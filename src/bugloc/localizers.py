"""Estimator-style localization techniques.

Every technique follows the same protocol: construct with plain parameters,
fit() on a version's indexes, then predict(bug) for a Prediction whose paths
are a ranked file list of at most the configured list size. predict stores
nothing on the localizer, so one fitted instance can serve many threads.
"""

from __future__ import annotations

from dataclasses import dataclass

from .agent import AgentConfig, AgentTranscript, run_localization
from .chat import ChatProvider
from .code_index import CodeIndex, file_representation
from .embedders import EmbeddingProvider
from .embedding import EmbeddingIndex, Shortlist, check_embedded_by, shortlist_files
from .resolve import ResolvedPrediction, resolve_predictions, surviving_paths
from .tools import make_tool_registry
from .validation import check_is_fitted, require_bug_text
from .vsm import VsmModel


class LocalizationFailure(RuntimeError):
    """A single bug could not be localized; the transcript is attached."""

    def __init__(self, reason: str, transcript: AgentTranscript | None = None):
        super().__init__(reason)
        self.transcript = transcript


@dataclass(frozen=True)
class Prediction:
    """One predict(bug) call's answer. The agent also returns its transcript
    and the outcome of each claim it resolved."""

    paths: list[str]
    transcript: AgentTranscript | None = None
    resolved: list[ResolvedPrediction] | None = None


def _check_top_n(top_n: int) -> int:
    if top_n < 1:
        raise ValueError(f"top_n must be at least 1, got {top_n}")
    return top_n


class BaseLocalizer:
    """fit once per repository version, then predict per bug."""

    def fit(self, code_index: CodeIndex, embedding_index: EmbeddingIndex | None = None):
        raise NotImplementedError

    def predict(self, bug) -> Prediction:
        raise NotImplementedError


class VsmLocalizer(BaseLocalizer):
    """TF-IDF cosine ranking over file representations."""

    def __init__(self, top_n: int = 10):
        self.top_n = _check_top_n(top_n)
        self.model_: VsmModel | None = None

    def fit(self, code_index: CodeIndex, embedding_index: EmbeddingIndex | None = None):
        corpus = {
            path: file_representation(record) for path, record in code_index.files.items()
        }
        self.model_ = VsmModel(corpus)
        return self

    def predict(self, bug) -> Prediction:
        check_is_fitted(self, ("model_",))
        ranked = [path for path, _ in self.model_.score(require_bug_text(bug))]
        return Prediction(ranked[: self.top_n])


class EmbeddingLocalizer(BaseLocalizer):
    """Semantic shortlist only: the top_n prefix of the embedding shortlist."""

    def __init__(
        self,
        provider: EmbeddingProvider,
        shortlist_k: int = 50,
        top_n: int = 10,
    ):
        self.provider = provider
        self.shortlist_k = shortlist_k
        self.top_n = _check_top_n(top_n)
        self.embedding_index_: EmbeddingIndex | None = None

    def fit(self, code_index: CodeIndex, embedding_index: EmbeddingIndex | None = None):
        if embedding_index is None:
            raise ValueError("EmbeddingLocalizer.fit requires an embedding index")
        self.embedding_index_ = check_embedded_by(embedding_index, self.provider)
        return self

    def shortlist(self, bug) -> Shortlist:
        check_is_fitted(self, ("embedding_index_",))
        return shortlist_files(bug, self.embedding_index_, self.provider, k=self.shortlist_k)

    def predict(self, bug) -> Prediction:
        return Prediction(self.shortlist(bug).paths()[: self.top_n])


class AgentLocalizer(BaseLocalizer):
    """Full pipeline: the embedding shortlist, the tool-calling reasoning
    loop, then resolution of raw claims against the code index.

    Without an embedding provider no shortlist is made, so the
    candidate-filenames tool is absent from the prompt and from dispatch:
    the noembed ablation.
    """

    def __init__(
        self,
        chat_provider: ChatProvider,
        embedding_provider: EmbeddingProvider | None = None,
        shortlist_k: int = 50,
        config: AgentConfig = AgentConfig(),
    ):
        self.chat_provider = chat_provider
        self.embedding_provider = embedding_provider
        self.shortlist_k = shortlist_k
        self.config = config
        self.index_: CodeIndex | None = None
        self.embedding_index_: EmbeddingIndex | None = None

    def fit(self, code_index: CodeIndex, embedding_index: EmbeddingIndex | None = None):
        if self.embedding_provider is not None:
            if embedding_index is None:
                raise ValueError(
                    "AgentLocalizer with an embedding provider requires an embedding index; "
                    "fit with one, or construct it without a provider for noembed"
                )
            check_embedded_by(embedding_index, self.embedding_provider)
        self.index_ = code_index
        self.embedding_index_ = embedding_index
        return self

    def predict(self, bug) -> Prediction:
        check_is_fitted(self, ("index_",))
        shortlist = None
        if self.embedding_provider is not None:
            shortlist = shortlist_files(
                bug, self.embedding_index_, self.embedding_provider, k=self.shortlist_k
            )
        registry = make_tool_registry(self.index_, shortlist=shortlist)
        raw, transcript = run_localization(bug, registry, self.chat_provider, self.config)
        if transcript.failure_reason is not None:
            raise LocalizationFailure(transcript.failure_reason, transcript)
        resolved = resolve_predictions(raw, self.index_, final_size=self.config.final_list_size)
        return Prediction(surviving_paths(resolved), transcript, resolved)
