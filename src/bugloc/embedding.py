"""Chunk-level embedding index: one float64 matrix, searched exactly.

File representations are split into token-bounded chunks, embedded, and kept
as the rows of one matrix; a file's score is the maximum cosine similarity of
its chunks to the query, ties by path. A from-scratch build is the update of
the empty index that adds every file: untouched rows carry over, and the
chunks of every refreshed file go to the provider in one call, whose error
propagates. An index and its archive record the chunk limit it was built
with, and updates and queries chunk at that limit. An index also holds the
code records its chunks were cut from, so that its archive can name them and
re-make the chunk text.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .code_index import (
    ArchiveFormatError, Changeset, CodeIndex, ObjectPool, SourceFileRecord, archive_pool,
    file_representation, load_record, read_manifest, store_record, write_manifest,
)
from .embedders import EmbeddingProvider
from .tokens import token_spans
from .validation import InputValidationError, require_bug_text

logger = logging.getLogger(__name__)

DEFAULT_CHUNK_LIMIT = 300
DEFAULT_SHORTLIST_K = 50

EMBED_ARCHIVE_MAGIC = "bugloc-embedding-index"
EMBED_ARCHIVE_FORMAT = 2


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
    row norms, and each file's path and first row. `sources` maps each path
    to the code record its chunks were cut from; an archive needs it."""

    dimension: int
    provider_id: str
    chunk_limit: int = DEFAULT_CHUNK_LIMIT
    chunks: Iterable[Chunk] = ()  # stored as a sorted tuple
    vectors: np.ndarray = ()  # any (len(chunks), dimension) array-like
    sources: Mapping[str, SourceFileRecord] = field(default_factory=dict)

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


def build_embedding_index(
    index: CodeIndex, provider: EmbeddingProvider, chunk_limit: int = DEFAULT_CHUNK_LIMIT
) -> EmbeddingIndex:
    """The update of the empty index that adds every file of `index`."""
    empty = EmbeddingIndex(provider.dimension, provider.provider_id, chunk_limit)
    return update_embeddings(empty, Changeset(added=tuple(index.files)), index, provider)


def update_embeddings(
    eindex: EmbeddingIndex, changeset: Changeset, index: CodeIndex, provider: EmbeddingProvider
) -> EmbeddingIndex:
    """Re-embed only what the changeset touched, chunked at `eindex`'s chunk
    limit; untouched rows carry over verbatim. `index` must already reflect
    the post-changeset repository.

    The refreshed files are embedded in one provider call, none when there
    are none; the update either returns the whole new index or raises that
    call's error.
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
        new_chunks += chunk_text(file_representation(index.files[fq_path]), eindex.chunk_limit, fq_path)
    kept = [c for c, k in zip(eindex.chunks, keep) if k]
    vectors = eindex.vectors[keep]
    if new_chunks:
        vectors = np.concatenate([vectors, provider.embed_batch([c.text for c in new_chunks])])
    return EmbeddingIndex(
        eindex.dimension, eindex.provider_id, eindex.chunk_limit, kept + new_chunks, vectors, index.files
    )


def embed_query(text: str, provider: EmbeddingProvider, chunk_limit: int = DEFAULT_CHUNK_LIMIT):
    """The mean of the vectors of the query text's chunks, cut at the chunk
    limit; the mean of one vector is that vector, up to the sign of a zero."""
    chunks = chunk_text(text, chunk_limit=chunk_limit)
    return provider.embed_batch([c.text for c in chunks]).mean(axis=0)


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


def _chunk_spans(text: str, chunks: Iterable[Chunk]) -> list[list[int]]:
    """[start, end, token_count] of each chunk of `text`, in order. Only
    whitespace lies between two chunks and each starts with a token, so a
    chunk's first match at or after the end of the one before is itself."""
    spans, end = [], 0
    for chunk in chunks:
        start = text.find(chunk.text, end)
        if start < 0:
            raise ValueError(f"chunk {chunk.seq} of {chunk.fq_path} is not in its source record")
        end = start + len(chunk.text)
        spans.append([start, end, chunk.token_count])
    return spans


def _encode_vectors(record_key: str, spans: list[list[int]], rows: np.ndarray) -> bytes:
    """A vector object: a JSON header line (the record the chunks were cut
    from, each chunk's span in its representation, the dimension), then the
    rows as little-endian float64 bytes."""
    header = {"record": record_key, "chunks": spans, "dimension": rows.shape[1]}
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return head + b"\n" + rows.astype("<f8", copy=False).tobytes()


def _decode_vectors(data: bytes, record_key: str, record: SourceFileRecord):
    """The chunks and read-only rows of a vector object cut from `record`."""
    head, _, body = data.partition(b"\n")
    header = json.loads(head)
    if header["record"] != record_key:
        raise ValueError(f"it holds the rows of record {header['record']!r}")
    dimension, spans = header["dimension"], header["chunks"]
    if dimension < 1 or len(body) % (8 * dimension):
        raise ValueError(f"its {len(body)} bytes of rows are not whole {dimension}-dimensional vectors")
    rows = np.frombuffer(body, dtype="<f8").reshape(-1, dimension)
    if len(rows) != len(spans):
        raise ValueError(f"it holds {len(rows)} rows for {len(spans)} chunks")
    text = file_representation(record)
    chunks = tuple(
        Chunk(record.fq_path, seq, text[start:end], tokens)
        for seq, (start, end, tokens) in enumerate(spans)
    )
    return chunks, rows


def _vector_key(
    pool: ObjectPool, record_key: str, record: SourceFileRecord, chunks: tuple[Chunk, ...], rows: np.ndarray
) -> str:
    """The key of the vector object of one file's chunks and rows. The object
    the pool last read or stored as made from the same record is reused, not
    encoded again, when its chunks are equal and its rows equal byte for
    byte: then it would encode to the same bytes. The rows interned are a
    view of the index's matrix, which the pool keeps alive."""
    stored = pool.made_from(record_key)
    if stored is not None:
        key, (stored_chunks, stored_rows) = stored
        if stored_chunks == chunks and stored_rows.tobytes() == rows.tobytes():
            return key
    spans = _chunk_spans(file_representation(record), chunks)
    return pool.put(_encode_vectors(record_key, spans, rows), (chunks, rows), source=record_key)


def save_embedding_index(
    eindex: EmbeddingIndex, path: str | Path, pool: ObjectPool | None = None, version_id: str = ""
) -> None:
    """Write each file's vector object and source record, those not stored
    yet, as a pack, then the manifest: a header (magic, format, version,
    provider, dimension, chunk limit, file count, packs) and one
    `[fq_path, record key, vector key]` line per file in path order. A file
    whose chunks and rows the pool holds already is not encoded again."""
    pool = archive_pool(path, pool)
    records = [eindex.sources[fq_path] for fq_path in eindex.file_paths]
    header = {
        "magic": EMBED_ARCHIVE_MAGIC,
        "format": EMBED_ARCHIVE_FORMAT,
        "version_id": version_id,
        "dimension": eindex.dimension,
        "provider_id": eindex.provider_id,
        "chunk_limit": eindex.chunk_limit,
        "file_count": len(eindex.file_paths),
    }
    bounds = [*eindex.file_starts.tolist(), len(eindex)]
    entries = []
    for record, start, end in zip(records, bounds, bounds[1:]):
        record_key = store_record(pool, record)
        vector_key = _vector_key(pool, record_key, record, eindex.chunks[start:end], eindex.vectors[start:end])
        entries.append([record.fq_path, record_key, vector_key])
    write_manifest(path, header, entries, pool)


def load_embedding_index(path: str | Path, pool: ObjectPool | None = None) -> EmbeddingIndex:
    """The index a manifest lists: its records and vector objects read
    through `pool`, the rows joined by one concatenation in path order."""
    pool = archive_pool(path, pool)
    header, entries = read_manifest(path, EMBED_ARCHIVE_MAGIC, EMBED_ARCHIVE_FORMAT, 3, pool)
    try:
        made_by = header["dimension"], header["provider_id"], header["chunk_limit"]
    except KeyError as exc:
        raise ArchiveFormatError(f"unusable embedding index archive {path}: {exc}") from None
    sources: dict[str, SourceFileRecord] = {}
    chunks: list[Chunk] = []
    blocks = []
    for fq_path, record_key, vector_key in entries:
        record = sources[fq_path] = load_record(pool, fq_path, record_key)
        file_chunks, rows = pool.get(
            vector_key, lambda data: _decode_vectors(data, record_key, record), source=record_key
        )
        chunks += file_chunks
        blocks.append(rows)
    try:
        return EmbeddingIndex(*made_by, chunks, np.concatenate(blocks) if blocks else (), sources)
    except (TypeError, ValueError) as exc:
        raise ArchiveFormatError(f"unusable embedding index archive {path}: {exc}") from None
