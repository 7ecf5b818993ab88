"""Bug localization from natural-language bug reports.

Pipeline: parse a repository version into a code index, shortlist candidate
files by embedding similarity, let a tool-calling reasoning loop explore the
code base, and verify its ranked answer against files that actually exist.
Includes a TF-IDF baseline and an evaluation harness (Accuracy@k, MRR@10,
MAP@10, overlap analysis).
"""

from .agent import AgentConfig, AgentTranscript, ChatMessage, RawPrediction, build_prompt, parse_final_answer, run_localization
from .chat import RecordingChatProvider, RemoteChatProvider, ScriptedChatProvider, ToolCall
from .code_index import (
    Changeset,
    CodeIndex,
    MethodRecord,
    SourceFileRecord,
    build_index,
    diff_source_trees,
    file_representation,
    load_code_index,
    save_code_index,
    update_index,
)
from .dataset import BugReport, ingest_benchmark_tsv, load_bug_reports, save_bug_reports, split_chronological
from .embedders import CachedEmbedder, HashingEmbedder, RemoteEmbedder
from .embedding import (
    Chunk,
    EmbeddingIndex,
    EmbeddingRecord,
    Shortlist,
    build_embedding_index,
    chunk_text,
    load_embedding_index,
    save_embedding_index,
    shortlist_files,
    update_embeddings,
)
from .fuzzy import damerau_levenshtein, fuzzy_method_candidates
from .localizers import AgentLocalizer, BaseLocalizer, EmbeddingLocalizer, LocalizationFailure, Prediction, VsmLocalizer
from .metrics import (
    EvalReport,
    LocalizationResult,
    OverlapStats,
    accuracy_at_k,
    aggregate_runs,
    map_at_k,
    mrr_at_k,
    overlap_analysis,
)
from .resolve import ResolvedPrediction, jaccard_similarity, resolve_predictions
from .tokens import camel_split, tokenize
from .tools import ToolRegistry, ToolResult, make_tool_registry
from .validation import InputValidationError, NotFittedError, check_is_fitted
from .vsm import VsmModel

__version__ = "0.1.0"
