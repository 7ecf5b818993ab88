"""Chunk-level embedding index with cosine top-k retrieval.

File representations are split into token-bounded chunks, embedded, and
queried with a bug report; a file's score is the maximum cosine similarity
over its chunks. Incremental updates mirror a from-scratch build: the chunks
of every refreshed file go to the provider in one call, and only if that call
fails is each file sent on its own, so failures are still told per file. An
index records the chunk limit it was built with, and so does its archive.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .code_index import ArchiveFormatError, Changeset, CodeIndex, file_representation
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


@dataclass
class EmbeddingIndex:
    dimension: int
    provider_id: str
    chunk_limit: int | None = None  # None: unknown, as in archives written before it was recorded
    records: dict[tuple[str, int], EmbeddingRecord] = field(default_factory=dict)

    def add(self, record: EmbeddingRecord) -> None:
        key = (record.chunk.fq_path, record.chunk.seq)
        if key in self.records:
            raise ValueError(f"duplicate embedding record for {key}")
        if len(record.vector) != self.dimension:
            raise ValueError(
                f"record dimension {len(record.vector)} != index dimension {self.dimension}"
            )
        self.records[key] = record

    def paths(self) -> set[str]:
        return {path for path, _ in self.records}

    def sorted_records(self) -> list[EmbeddingRecord]:
        return [self.records[key] for key in sorted(self.records)]

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class Shortlist:
    entries: tuple[tuple[str, float], ...]  # (fq_path, score), score descending
    k: int

    def paths(self) -> list[str]:
        return [path for path, _ in self.entries]


class EmbeddingUpdateError(Exception):
    """Some files could not be re-embedded; the partial index is attached."""

    def __init__(self, partial_index: EmbeddingIndex, failures: dict[str, str]):
        summary = "; ".join(f"{path}: {err}" for path, err in sorted(failures.items()))
        super().__init__(f"embedding update failed for {len(failures)} file(s): {summary}")
        self.partial_index = partial_index
        self.failures = failures


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


def cosine_similarity(u, v) -> float:
    """dot(u,v) / (|u||v|), clamped to [-1, 1]. Zero vectors are an error,
    never silently zero."""
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine similarity is undefined for a zero vector")
    value = float(np.dot(a, b) / (norm_a * norm_b))
    return max(-1.0, min(1.0, value))


def _embed_chunks(
    chunks: list[Chunk], provider: EmbeddingProvider
) -> list[EmbeddingRecord]:
    vectors = provider.embed_batch([c.text for c in chunks])
    return [EmbeddingRecord(c, vec) for c, vec in zip(chunks, vectors)]


def _file_chunks(index: CodeIndex, fq_path: str, chunk_limit: int) -> list[Chunk]:
    return chunk_text(
        file_representation(index.files[fq_path]), chunk_limit=chunk_limit, fq_path=fq_path
    )


def build_embedding_index(
    index: CodeIndex, provider: EmbeddingProvider, chunk_limit: int = DEFAULT_CHUNK_LIMIT
) -> EmbeddingIndex:
    eindex = EmbeddingIndex(provider.dimension, provider.provider_id, chunk_limit)
    all_chunks: list[Chunk] = []
    for fq_path in index.sorted_paths():
        all_chunks.extend(_file_chunks(index, fq_path, chunk_limit))
    for record in _embed_chunks(all_chunks, provider):
        eindex.add(record)
    return eindex


def update_embeddings(
    eindex: EmbeddingIndex,
    changeset: Changeset,
    index: CodeIndex,
    provider: EmbeddingProvider,
    chunk_limit: int = DEFAULT_CHUNK_LIMIT,
) -> EmbeddingIndex:
    """Re-embed only what the changeset touched; untouched records carry over
    verbatim. `index` must already reflect the post-changeset repository.

    The refreshed files are embedded in one provider call. If it fails, each
    file is retried in a call of its own; those failures are collected and, if
    any occurred, an EmbeddingUpdateError carrying the partial index is raised.
    """
    changeset.validate()
    out = EmbeddingIndex(eindex.dimension, eindex.provider_id, chunk_limit)
    stale = set(changeset.deleted) | {old for old, _ in changeset.renamed}
    refresh = set(changeset.added) | set(changeset.modified) | {new for _, new in changeset.renamed}
    for key, record in eindex.records.items():
        if key[0] not in stale and key[0] not in refresh:
            out.records[key] = record

    chunks: dict[str, list[Chunk]] = {}
    for fq_path in sorted(refresh):
        if fq_path not in index.files:
            logger.error("changeset path missing from code index, skipped: %s", fq_path)
            continue
        chunks[fq_path] = _file_chunks(index, fq_path, chunk_limit)
    failures: dict[str, str] = {}
    records: list[EmbeddingRecord] = []
    if chunks:
        try:
            records = _embed_chunks([c for cs in chunks.values() for c in cs], provider)
        except Exception as batch_exc:  # provider failures must not lose other files
            logger.warning(
                "re-embedding %d file(s) in one call failed (%s); retrying one call per file",
                len(chunks), batch_exc,
            )
            for fq_path, file_chunks in chunks.items():
                try:
                    records.extend(_embed_chunks(file_chunks, provider))
                except Exception as exc:
                    failures[fq_path] = str(exc)
    for record in records:
        out.add(record)
    if failures:
        raise EmbeddingUpdateError(out, failures)
    return out


def embed_query(text: str, provider: EmbeddingProvider, chunk_limit: int = DEFAULT_CHUNK_LIMIT):
    """Embed query text; text longer than the chunk limit is chunked and the
    per-chunk vectors are averaged."""
    chunks = chunk_text(text, chunk_limit=chunk_limit)
    if len(chunks) == 1:
        return np.asarray(provider.embed(chunks[0].text), dtype=np.float64)
    vectors = provider.embed_batch([c.text for c in chunks])
    return np.mean(np.asarray(vectors, dtype=np.float64), axis=0)


def shortlist_files(
    bug,
    eindex: EmbeddingIndex,
    provider: EmbeddingProvider,
    k: int = DEFAULT_SHORTLIST_K,
    chunk_limit: int = DEFAULT_CHUNK_LIMIT,
) -> Shortlist:
    """Top-k files by maximum chunk cosine similarity to the bug text.

    Ties break by ascending path so the shortlist never depends on record
    insertion order.
    """
    if len(eindex) == 0:
        raise InputValidationError("embedding index is empty")
    text = require_bug_text(bug)
    query = embed_query(text, provider, chunk_limit=chunk_limit)
    if float(np.linalg.norm(query)) == 0.0:
        raise InputValidationError("bug text produced a zero embedding vector")

    best: dict[str, float] = {}
    for record in eindex.records.values():
        vec = np.asarray(record.vector, dtype=np.float64)
        if float(np.linalg.norm(vec)) == 0.0:
            continue  # pathless empty chunk cannot be scored
        score = cosine_similarity(query, vec)
        path = record.chunk.fq_path
        if path not in best or score > best[path]:
            best[path] = score
    ranked = sorted(best.items(), key=lambda item: (-item[1], item[0]))[:k]
    return Shortlist(entries=tuple(ranked), k=k)


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
    for record in eindex.sorted_records():
        lines.append(
            json.dumps(
                {
                    "fq_path": record.chunk.fq_path,
                    "seq": record.chunk.seq,
                    "text": record.chunk.text,
                    "token_count": record.chunk.token_count,
                    "vector": list(record.vector),
                },
                sort_keys=True,
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_embedding_index(path: str | Path) -> EmbeddingIndex:
    with open(path, encoding="utf-8") as handle:
        try:
            header = json.loads(handle.readline())
        except json.JSONDecodeError:
            raise ArchiveFormatError(f"not an embedding index archive: {path}") from None
        if header.get("magic") != EMBED_ARCHIVE_MAGIC:
            raise ArchiveFormatError(f"bad magic header in {path}")
        if header.get("format") != EMBED_ARCHIVE_FORMAT:
            raise ArchiveFormatError(
                f"unsupported archive format {header.get('format')!r} in {path}"
            )
        eindex = EmbeddingIndex(header["dimension"], header["provider_id"], header.get("chunk_limit"))
        for line in handle:
            if not line.strip():
                continue
            raw = json.loads(line)
            chunk = Chunk(raw["fq_path"], raw["seq"], raw["text"], raw["token_count"])
            eindex.add(EmbeddingRecord(chunk, tuple(raw["vector"])))
    return eindex
