"""Chunk-level embedding index: one float64 matrix, searched exactly.

File representations are split into token-bounded chunks, embedded, and kept
as the rows of one matrix; a file's score is the maximum cosine similarity of
its chunks to the query, ties by path. A from-scratch build is the update of
the empty index that adds every file: untouched rows carry over, and the
chunks of every refreshed file go to the provider in one call, whose error
propagates. An index and its archive record the chunk limit it was built
with, and updates and queries chunk at that limit. An archive is written
and read with the code index of its version, whose records it re-makes
the chunk text from. Its manifest is one header line of the embedding
settings: each file's vector object is named by those settings and the key
of the file's record, so no line lists it.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .code_index import (
    ArchiveFormatError, Changeset, CodeIndex, ObjectPool, SourceFileRecord, archive_pool, file_representation,
    read_header, store_record,
)
from .embedders import EmbeddingProvider
from .ioutil import atomic_write_bytes
from .tokens import MAX_CHUNK_TOKENS, chunk_pattern
from .validation import InputValidationError, require_bug_text

logger = logging.getLogger(__name__)

DEFAULT_CHUNK_LIMIT = 300
DEFAULT_SHORTLIST_K = 50

EMBED_ARCHIVE_MAGIC = "bugloc-embedding-index"
EMBED_ARCHIVE_FORMAT = 7
EMBED_FIELDS = {"dimension": int, "provider_id": str, "chunk_limit": int, "file_count": int, "packs": list}


@dataclass(frozen=True)
class Chunk:
    fq_path: str
    seq: int  # 0-based, contiguous per file
    text: str


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
        chunks = tuple(self.chunks)
        matrix = np.asarray(self.vectors, dtype=np.float64)
        if (chunks or matrix.size) and matrix.shape != (len(chunks), self.dimension):
            raise ValueError(f"vectors of shape {matrix.shape}, expected ({len(chunks)}, {self.dimension})")
        matrix = matrix.reshape(-1, self.dimension)
        keys = [(c.fq_path, c.seq) for c in chunks]
        if all(key < following for key, following in zip(keys, keys[1:])):
            matrix = matrix.copy()  # the index shares no memory with its caller
        else:
            order = sorted(range(len(keys)), key=keys.__getitem__)
            chunks, matrix, keys = tuple(chunks[i] for i in order), matrix[order], [keys[i] for i in order]
            for key, following in zip(keys, keys[1:]):
                if key == following:
                    raise ValueError(f"duplicate embedding record for {key}")
        self.chunks, self.vectors = chunks, matrix
        self.vectors.flags.writeable = False
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

    def paths(self) -> list[str]:
        return [path for path, _ in self.entries]


def check_embedded_by(eindex: EmbeddingIndex, provider: EmbeddingProvider) -> EmbeddingIndex:
    """`eindex`, if `provider` made it: rows and queries must share one space."""
    made_by = (eindex.provider_id, eindex.dimension)
    if made_by != (provider.provider_id, provider.dimension):
        raise ValueError(
            "the embedding index was made by %s at dimension %d, not by %s at dimension %d"
            % (*made_by, provider.provider_id, provider.dimension)
        )
    return eindex


def chunk_text(text: str, chunk_limit: int = DEFAULT_CHUNK_LIMIT, fq_path: str = "") -> list[Chunk]:
    """Greedy left-to-right packing into chunks of at most chunk_limit tokens.

    Chunk boundaries fall between tokens, so the concatenated token streams of
    the chunks equal the token stream of the input. A tokenless input yields
    exactly one empty chunk. Each chunk is one match of the limit's chunk
    pattern, so every chunk but the last holds chunk_limit tokens.
    """
    if chunk_limit < 1:
        raise ValueError("chunk_limit must be >= 1")
    texts = chunk_pattern(min(chunk_limit, MAX_CHUNK_TOKENS)).findall(text) or [""]
    return [Chunk(fq_path, seq, chunk) for seq, chunk in enumerate(texts)]


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
    the post-changeset repository, and `provider` must have made `eindex`.

    The refreshed files are embedded in one provider call, none when there
    are none; the update either returns the whole new index or raises that
    call's error.
    """
    check_embedded_by(eindex, provider)
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
    return EmbeddingIndex(eindex.dimension, eindex.provider_id, eindex.chunk_limit, kept + new_chunks, vectors)


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
    text is chunked at the index's chunk limit and embedded by `provider`,
    which must have made the index.

    Each row's dot product is reduced on its own (`np.vecdot`), not in one
    matrix-vector product, whose blocking may round a row differently at
    another offset: equal vectors tie exactly wherever their rows sit.
    """
    if k < 1:
        raise ValueError(f"shortlist size must be at least 1, got {k}")
    check_embedded_by(eindex, provider)
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
    return Shortlist(entries=tuple(entries))


def _chunk_spans(text: str, chunks: Iterable[Chunk]) -> list[list[int]]:
    """[start, end] of each chunk of `text`, in order. Only
    whitespace lies between two chunks and each starts with a token, so a
    chunk's first match at or after the end of the one before is itself."""
    spans, end = [], 0
    for chunk in chunks:
        start = text.find(chunk.text, end)
        if start < 0:
            raise ValueError(f"chunk {chunk.seq} of {chunk.fq_path} is not in its source record")
        end = start + len(chunk.text)
        spans.append([start, end])
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
    chunks = tuple(Chunk(record.fq_path, seq, text[start:end]) for seq, (start, end) in enumerate(spans))
    return chunks, rows


def _namer(dimension: int, provider_id: str, chunk_limit: int):
    """The function that names the vector object of a record, by the
    record's key: the sha256 of the JSON list of the archive format,
    provider id, dimension and chunk limit, then the key. The settings are
    hashed once, and each name hashes on from a copy. JSON escapes every
    newline and every record object holds one, so no name is a record's key."""
    settings = hashlib.sha256(json.dumps([EMBED_ARCHIVE_FORMAT, provider_id, dimension, chunk_limit]).encode())

    def name(record_key: str) -> str:
        named = settings.copy()
        named.update(record_key.encode())
        return named.hexdigest()

    return name


def save_embedding_index(
    eindex: EmbeddingIndex, path: str | Path, code: CodeIndex, pool: ObjectPool | None = None
) -> EmbeddingIndex:
    """Write the vector objects, and the records of `code` (which must hold
    the same files), not stored yet as a pack, then the manifest: one header
    line (magic, format, provider, dimension, chunk limit, file count, and
    the packs that hold the vector objects). Each file's vector object is
    named by `_namer`, and only a file whose name is not stored is encoded.

    A name binds what an object was made from, not its rows: a file whose
    name is stored keeps the stored chunks and rows, which differ from
    `eindex`'s only if the provider gave other rows for the same text.
    Returns the index a load of the manifest gives: `eindex` itself unless
    such rows differ.
    """
    if eindex.file_paths != code.sorted_paths():
        raise ValueError("the embedding index and the code index hold other files")
    pool = archive_pool(path, pool)
    name = _namer(eindex.dimension, eindex.provider_id, eindex.chunk_limit)
    bounds = [*eindex.file_starts.tolist(), len(eindex)]
    names, chunks, blocks, same = [], [], [], True
    for fq_path, start, end in zip(eindex.file_paths, bounds, bounds[1:]):
        record = code.files[fq_path]
        record_key = store_record(pool, record)
        key = name(record_key)
        names.append(key)
        held = eindex.chunks[start:end], eindex.vectors[start:end]
        try:
            stored = pool.get(key, lambda data: _decode_vectors(data, record_key, record)) if pool.stored(key) else None
        except ArchiveFormatError:  # its pack was damaged and is dropped, so it is stored again
            stored = None
        if stored is not None:
            same = same and stored[0] == held[0] and stored[1].tobytes() == held[1].tobytes()
            held = stored
        else:  # the rows interned are a view of eindex's matrix, which the pool keeps alive
            spans = _chunk_spans(file_representation(record), held[0])
            pool.put(_encode_vectors(record_key, spans, held[1]), held, key)
        chunks += held[0]
        blocks.append(held[1])
    header = {
        "magic": EMBED_ARCHIVE_MAGIC,
        "format": EMBED_ARCHIVE_FORMAT,
        "dimension": eindex.dimension,
        "provider_id": eindex.provider_id,
        "chunk_limit": eindex.chunk_limit,
        "file_count": len(names),
        "packs": pool.pack(names),
    }
    atomic_write_bytes(path, (json.dumps(header, sort_keys=True) + "\n").encode())
    if same:
        return eindex
    return EmbeddingIndex(eindex.dimension, eindex.provider_id, eindex.chunk_limit, chunks, np.concatenate(blocks))


def load_embedding_index(path: str | Path, code: CodeIndex, pool: ObjectPool | None = None) -> EmbeddingIndex:
    """The index of the records of `code` in the settings the manifest at
    `path` names: each file's vector object, named by `_namer` from the
    header and the record's key, read through `pool` from the packs the
    header names; its chunks cut from the record; the rows joined by one
    concatenation in path order.

    An ArchiveFormatError unless the header passes `read_header`, is the
    whole file, and counts the files of `code`, and unless every name is in
    a pack read: a manifest left by another save or version fails, or gives
    the rows of the records of `code`."""
    path = Path(path)
    pool = archive_pool(path, pool)
    header, rest, _ = read_header(path, EMBED_ARCHIVE_MAGIC, EMBED_ARCHIVE_FORMAT, EMBED_FIELDS)
    if rest.read().strip():
        raise ArchiveFormatError(f"unreadable manifest {path}: it holds lines after its header")
    if header["file_count"] != len(code.files):
        raise ArchiveFormatError(f"{path} counts {header['file_count']} files, its code index {len(code.files)}")
    pool.read(header["packs"])
    made_by = header["dimension"], header["provider_id"], header["chunk_limit"]
    name = _namer(*made_by)
    chunks: list[Chunk] = []
    blocks = []
    for fq_path in code.sorted_paths():
        record = code.files[fq_path]
        record_key = store_record(pool, record)
        file_chunks, rows = pool.get(name(record_key), lambda data: _decode_vectors(data, record_key, record))
        chunks += file_chunks
        blocks.append(rows)
    try:
        return EmbeddingIndex(*made_by, chunks, np.concatenate(blocks) if blocks else ())
    except (TypeError, ValueError) as exc:
        raise ArchiveFormatError(f"unusable embedding index archive {path}: {exc}") from None
