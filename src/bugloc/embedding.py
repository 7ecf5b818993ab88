"""Chunk-level embedding index: one float64 matrix, searched exactly.

File representations are split into token-bounded chunks, embedded, and kept
as the rows of one matrix; a file's score is the maximum cosine similarity of
its chunks to the query, ties by path. Updates mirror a from-scratch build:
untouched rows carry over, and the chunks of every refreshed file go to the
provider in one call, whose error propagates as a build's does. An index and
its archive record the chunk limit it was built with, and updates and queries
chunk at that limit.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .code_index import ArchiveFormatError, Changeset, CodeIndex, file_representation, read_archive
from .embedders import EmbeddingProvider
from .ioutil import atomic_write_text
from .tokens import token_spans
from .validation import InputValidationError, require_bug_text

logger = logging.getLogger(__name__)

DEFAULT_CHUNK_LIMIT = 300
DEFAULT_SHORTLIST_K = 50

EMBED_ARCHIVE_MAGIC = "bugloc-embedding-index"
EMBED_ARCHIVE_FORMAT = 1


@dataclass(frozen=True)
class Chunk:
    fq_path: str
    seq: int  # 0-based, contiguous per file
    text: str
    token_count: int


@dataclass(frozen=True)
class EmbeddingRecord:
    chunk: Chunk
    vector: tuple[float, ...]


@dataclass(eq=False)
class EmbeddingIndex:
    """Chunks sorted by (fq_path, seq) and, row for row, their vectors as one
    read-only float64 matrix. Construction sorts, rejects duplicate keys and
    vectors of another dimension, and works out once what queries need: the
    row norms, and each file's path and first row."""

    dimension: int
    provider_id: str
    chunk_limit: int = DEFAULT_CHUNK_LIMIT
    chunks: Iterable[Chunk] = ()  # stored as a sorted tuple
    vectors: np.ndarray = ()  # any (len(chunks), dimension) array-like

    def __post_init__(self):
        chunks = list(self.chunks)
        matrix = np.asarray(self.vectors, dtype=np.float64)
        if (chunks or matrix.size) and matrix.shape != (len(chunks), self.dimension):
            raise ValueError(f"vectors of shape {matrix.shape}, expected ({len(chunks)}, {self.dimension})")
        order = sorted(range(len(chunks)), key=lambda i: (chunks[i].fq_path, chunks[i].seq))
        self.chunks = tuple(chunks[i] for i in order)
        self.vectors = matrix.reshape(-1, self.dimension)[order]
        self.vectors.flags.writeable = False
        keys = [(c.fq_path, c.seq) for c in self.chunks]
        for key, following in zip(keys, keys[1:]):
            if key == following:
                raise ValueError(f"duplicate embedding record for {key}")
        self.norms = np.sqrt(np.vecdot(self.vectors, self.vectors))  # np.linalg.norm of each row
        starts = [i for i, key in enumerate(keys) if i == 0 or key[0] != keys[i - 1][0]]
        self.file_starts = np.array(starts, dtype=np.intp)
        self.file_paths = [keys[i][0] for i in starts]

    @cached_property
    def records(self) -> Mapping[tuple[str, int], EmbeddingRecord]:
        """Read-only (fq_path, seq) -> EmbeddingRecord view, built on first use."""
        rows = zip(self.chunks, self.vectors.tolist())
        return MappingProxyType({(c.fq_path, c.seq): EmbeddingRecord(c, tuple(v)) for c, v in rows})

    def paths(self) -> set[str]:
        return set(self.file_paths)

    def __len__(self) -> int:
        return len(self.chunks)


@dataclass
class Shortlist:
    entries: tuple[tuple[str, float], ...]  # (fq_path, score), score descending
    k: int

    def paths(self) -> list[str]:
        return [path for path, _ in self.entries]


def chunk_text(text: str, chunk_limit: int = DEFAULT_CHUNK_LIMIT, fq_path: str = "") -> list[Chunk]:
    """Greedy left-to-right packing into chunks of at most chunk_limit tokens.

    Chunk boundaries fall between tokens, so the concatenated token streams of
    the chunks equal the token stream of the input. A tokenless input yields
    exactly one empty chunk.
    """
    if chunk_limit < 1:
        raise ValueError("chunk_limit must be >= 1")
    spans = token_spans(text)
    if not spans:
        return [Chunk(fq_path=fq_path, seq=0, text="", token_count=0)]
    chunks: list[Chunk] = []
    for seq, start in enumerate(range(0, len(spans), chunk_limit)):
        group = spans[start : start + chunk_limit]
        chunks.append(
            Chunk(
                fq_path=fq_path,
                seq=seq,
                text=text[group[0][0] : group[-1][1]],
                token_count=len(group),
            )
        )
    return chunks


def _file_chunks(index: CodeIndex, fq_path: str, chunk_limit: int) -> list[Chunk]:
    return chunk_text(
        file_representation(index.files[fq_path]), chunk_limit=chunk_limit, fq_path=fq_path
    )


def build_embedding_index(
    index: CodeIndex, provider: EmbeddingProvider, chunk_limit: int = DEFAULT_CHUNK_LIMIT
) -> EmbeddingIndex:
    chunks = [c for fq_path in index.sorted_paths() for c in _file_chunks(index, fq_path, chunk_limit)]
    vectors = provider.embed_batch([c.text for c in chunks])
    return EmbeddingIndex(provider.dimension, provider.provider_id, chunk_limit, chunks, vectors)


def update_embeddings(
    eindex: EmbeddingIndex, changeset: Changeset, index: CodeIndex, provider: EmbeddingProvider
) -> EmbeddingIndex:
    """Re-embed only what the changeset touched, chunked at `eindex`'s chunk
    limit; untouched rows carry over verbatim. `index` must already reflect
    the post-changeset repository.

    The refreshed files are embedded in one provider call. Like
    build_embedding_index, the update either returns the whole new index or
    raises that call's error.
    """
    changeset.validate()
    refresh = set(changeset.added) | set(changeset.modified) | {new for _, new in changeset.renamed}
    dropped = refresh | set(changeset.deleted) | {old for old, _ in changeset.renamed}
    keep = np.array([c.fq_path not in dropped for c in eindex.chunks], dtype=bool)

    new_chunks: list[Chunk] = []
    for fq_path in sorted(refresh):
        if fq_path not in index.files:
            logger.error("changeset path missing from code index, skipped: %s", fq_path)
            continue
        new_chunks += _file_chunks(index, fq_path, eindex.chunk_limit)
    new_vectors = provider.embed_batch([c.text for c in new_chunks]) if new_chunks else []
    kept = [c for c, k in zip(eindex.chunks, keep) if k]
    vectors = np.concatenate([eindex.vectors[keep], np.reshape(new_vectors, (-1, eindex.dimension))])
    return EmbeddingIndex(eindex.dimension, eindex.provider_id, eindex.chunk_limit, kept + new_chunks, vectors)


def embed_query(text: str, provider: EmbeddingProvider, chunk_limit: int = DEFAULT_CHUNK_LIMIT):
    """Embed query text; text longer than the chunk limit is chunked and the
    per-chunk vectors are averaged."""
    chunks = chunk_text(text, chunk_limit=chunk_limit)
    if len(chunks) == 1:
        return np.asarray(provider.embed(chunks[0].text), dtype=np.float64)
    vectors = provider.embed_batch([c.text for c in chunks])
    return np.mean(np.asarray(vectors, dtype=np.float64), axis=0)


def shortlist_files(
    bug, eindex: EmbeddingIndex, provider: EmbeddingProvider, k: int = DEFAULT_SHORTLIST_K
) -> Shortlist:
    """Top-k files by maximum chunk cosine similarity to the bug text, ties
    by ascending path; chunks with a zero vector are never scored. The bug
    text is chunked at the index's chunk limit.

    Each row's dot product is reduced on its own (`np.vecdot`), not in one
    matrix-vector product, whose blocking may round a row differently at
    another offset: equal vectors tie exactly wherever their rows sit.
    """
    if k < 1:
        raise ValueError(f"shortlist size must be at least 1, got {k}")
    if len(eindex) == 0:
        raise InputValidationError("embedding index is empty")
    text = require_bug_text(bug)
    query = embed_query(text, provider, chunk_limit=eindex.chunk_limit)
    query_norm = float(np.linalg.norm(query))
    if query_norm == 0.0:
        raise InputValidationError("bug text produced a zero embedding vector")

    dots = np.vecdot(eindex.vectors, query)
    with np.errstate(divide="ignore", invalid="ignore"):  # zero rows are masked next
        cosines = np.clip(dots / (query_norm * eindex.norms), -1.0, 1.0)
    cosines[eindex.norms == 0.0] = -np.inf
    best = np.maximum.reduceat(cosines, eindex.file_starts)
    scored = np.flatnonzero(best > -np.inf)
    # file_paths ascend, so a stable sort on the score alone breaks ties by path
    ranked = scored[np.argsort(-best[scored], kind="stable")][:k]
    entries = zip([eindex.file_paths[i] for i in ranked], best[ranked].tolist())
    return Shortlist(entries=tuple(entries), k=k)


def save_embedding_index(eindex: EmbeddingIndex, path: str | Path) -> None:
    lines = [
        json.dumps(
            {
                "magic": EMBED_ARCHIVE_MAGIC,
                "format": EMBED_ARCHIVE_FORMAT,
                "dimension": eindex.dimension,
                "provider_id": eindex.provider_id,
                "chunk_limit": eindex.chunk_limit,
                "record_count": len(eindex),
            },
            sort_keys=True,
        )
    ]
    for chunk, vector in zip(eindex.chunks, eindex.vectors.tolist()):
        lines.append(
            json.dumps(
                {
                    "fq_path": chunk.fq_path,
                    "seq": chunk.seq,
                    "text": chunk.text,
                    "token_count": chunk.token_count,
                    "vector": vector,
                },
                sort_keys=True,
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_record(raw: dict) -> tuple[Chunk, list[float]]:
    return Chunk(raw["fq_path"], raw["seq"], raw["text"], raw["token_count"]), raw["vector"]


def load_embedding_index(path: str | Path) -> EmbeddingIndex:
    header, records = read_archive(
        path, EMBED_ARCHIVE_MAGIC, EMBED_ARCHIVE_FORMAT, "record_count", _parse_record
    )
    chunks, vectors = zip(*records) if records else ((), ())
    try:
        return EmbeddingIndex(
            header["dimension"], header["provider_id"], header["chunk_limit"], chunks, vectors
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArchiveFormatError(f"unusable embedding index archive {path}: {exc}") from None
