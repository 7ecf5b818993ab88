"""Estimator-style localization techniques.

Every technique follows the same protocol: construct with plain parameters,
fit() on a version's indexes, then predict(bug) for a ranked file list of at
most final_list_size entries. Constructor parameters are stored verbatim and
round-trip through get_params()/set_params(), so techniques are easy to
configure, log, and sweep.
"""

from __future__ import annotations

import inspect
import logging

from .agent import AgentConfig, AgentTranscript, run_localization
from .chat import ChatProvider
from .code_index import CodeIndex, file_representation
from .embedders import EmbeddingProvider
from .embedding import EmbeddingIndex, Shortlist, shortlist_files
from .resolve import resolve_predictions, surviving_paths
from .tools import make_tool_registry
from .validation import check_is_fitted, require_bug_text
from .vsm import VsmModel

logger = logging.getLogger(__name__)


class LocalizationFailure(RuntimeError):
    """A single bug could not be localized; the transcript is attached."""

    def __init__(self, reason: str, transcript: AgentTranscript | None = None):
        super().__init__(reason)
        self.transcript = transcript


class BaseLocalizer:
    """fit/predict protocol with sklearn-style parameter handling."""

    def _param_names(self) -> list[str]:
        signature = inspect.signature(type(self).__init__)
        return [name for name in signature.parameters if name != "self"]

    def get_params(self) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseLocalizer":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def fit(self, code_index: CodeIndex, embedding_index: EmbeddingIndex | None = None):
        raise NotImplementedError

    def predict(self, bug) -> list[str]:
        raise NotImplementedError


class VsmLocalizer(BaseLocalizer):
    """TF-IDF cosine ranking over file representations."""

    technique = "vsm"

    def __init__(self, top_n: int = 10):
        self.top_n = top_n
        self.index_: CodeIndex | None = None
        self.model_: VsmModel | None = None

    def fit(self, code_index: CodeIndex, embedding_index: EmbeddingIndex | None = None):
        corpus = {
            path: file_representation(record) for path, record in code_index.files.items()
        }
        self.index_ = code_index
        self.model_ = VsmModel(corpus)
        return self

    def predict(self, bug) -> list[str]:
        check_is_fitted(self, ("model_",))
        return [path for path, _ in self.model_.score(require_bug_text(bug))][: self.top_n]


class EmbeddingLocalizer(BaseLocalizer):
    """Semantic shortlist only: the top_n prefix of the embedding shortlist."""

    technique = "embedding_only"

    def __init__(
        self,
        provider: EmbeddingProvider,
        shortlist_k: int = 50,
        top_n: int = 10,
    ):
        self.provider = provider
        self.shortlist_k = shortlist_k
        self.top_n = top_n
        self.embedding_index_: EmbeddingIndex | None = None

    def fit(self, code_index: CodeIndex, embedding_index: EmbeddingIndex | None = None):
        if embedding_index is None:
            raise ValueError("EmbeddingLocalizer.fit requires an embedding index")
        self.embedding_index_ = embedding_index
        return self

    def shortlist(self, bug) -> Shortlist:
        check_is_fitted(self, ("embedding_index_",))
        return shortlist_files(bug, self.embedding_index_, self.provider, k=self.shortlist_k)

    def predict(self, bug) -> list[str]:
        return self.shortlist(bug).paths()[: self.top_n]


class AgentLocalizer(BaseLocalizer):
    """Full pipeline: optional embedding shortlist, the tool-calling reasoning
    loop, then resolution of raw claims against the code index.

    With use_candidate_tool=False no shortlist is made, so the
    candidate-filenames tool is absent from the prompt and from dispatch, and
    no embedding provider is needed.
    """

    def __init__(
        self,
        chat_provider: ChatProvider,
        embedding_provider: EmbeddingProvider | None = None,
        use_candidate_tool: bool = True,
        shortlist_k: int = 50,
        max_iterations: int = 10,
        final_list_size: int = 10,
        temperature: float = 1.0,
        run_seed: str = "",
        tool_result_char_cap: int | None = None,
    ):
        self.chat_provider = chat_provider
        self.embedding_provider = embedding_provider
        self.use_candidate_tool = use_candidate_tool
        self.shortlist_k = shortlist_k
        self.max_iterations = max_iterations
        self.final_list_size = final_list_size
        self.temperature = temperature
        self.run_seed = run_seed
        self.tool_result_char_cap = tool_result_char_cap
        self.index_: CodeIndex | None = None
        self.embedding_index_: EmbeddingIndex | None = None
        self.transcripts_: list[AgentTranscript] = []

    @property
    def technique(self) -> str:
        return "genloc" if self.use_candidate_tool else "noembed"

    def agent_config(self) -> AgentConfig:
        return AgentConfig(
            max_iterations=self.max_iterations,
            final_list_size=self.final_list_size,
            temperature=self.temperature,
            run_seed=self.run_seed,
            tool_result_char_cap=self.tool_result_char_cap,
        )

    def fit(self, code_index: CodeIndex, embedding_index: EmbeddingIndex | None = None):
        if self.use_candidate_tool:
            if embedding_index is None:
                raise ValueError(
                    "AgentLocalizer with the candidate tool requires an embedding index; "
                    "fit with one or set use_candidate_tool=False"
                )
            if self.embedding_provider is None:
                raise ValueError(
                    "AgentLocalizer with the candidate tool requires an embedding provider"
                )
        self.index_ = code_index
        self.embedding_index_ = embedding_index
        return self

    def predict(self, bug) -> list[str]:
        check_is_fitted(self, ("index_",))
        shortlist = None
        if self.use_candidate_tool:
            shortlist = shortlist_files(
                bug, self.embedding_index_, self.embedding_provider, k=self.shortlist_k
            )
        registry = make_tool_registry(self.index_, shortlist=shortlist)
        raw, transcript = run_localization(bug, registry, self.chat_provider, self.agent_config())
        self.transcripts_.append(transcript)
        if transcript.failure_reason is not None:
            raise LocalizationFailure(transcript.failure_reason, transcript)
        resolved = resolve_predictions(raw, self.index_, final_size=self.final_list_size)
        self.last_resolved_ = resolved
        return surviving_paths(resolved)
