"""Chunk-level embedding index: one float64 matrix, searched exactly.

File representations are split into token-bounded chunks, embedded, and kept
as the rows of one matrix; a file's score is the maximum cosine similarity of
its chunks to the query, ties by path. A from-scratch build is the update of
the empty index that adds every file: untouched rows carry over, and the
chunks of every refreshed file go to the provider in one call, whose error
propagates. An index and its archive record the chunk limit it was built
with, and updates and queries chunk at that limit. An archive is written
and read with the code index of its version, whose records it re-makes
the chunk text from: one vector key per file, tied to them by one digest.
A delta lists only the vector keys of the files its code delta adds or
changes.
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
    DELTA_FIELDS, ArchiveFormatError, Changeset, CodeIndex, Manifest, ObjectPool, SourceFileRecord,
    archive_pool, check_header, code_manifest, file_representation, read_manifest, store_record,
    write_manifest,
)
from .embedders import EmbeddingProvider
from .tokens import MAX_CHUNK_TOKENS, chunk_pattern
from .validation import InputValidationError, require_bug_text

logger = logging.getLogger(__name__)

DEFAULT_CHUNK_LIMIT = 300
DEFAULT_SHORTLIST_K = 50

EMBED_ARCHIVE_MAGIC = "bugloc-embedding-index"
EMBED_ARCHIVE_FORMAT = 6
EMBED_FIELDS = {
    "dimension": int, "provider_id": str, "chunk_limit": int, "file_count": int, "digest": str, "packs": list,
}
# a delta also names the code manifest whose delta it follows, as it names its base
LINK_FIELDS = {"code": DELTA_FIELDS["base"], "code_digest": DELTA_FIELDS["base_digest"]}


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


def _vector_key(pool: ObjectPool, record: SourceFileRecord, chunks: tuple[Chunk, ...], rows: np.ndarray) -> str:
    """The key of the vector object of one file's chunks and rows. The object
    the pool last read or stored as made from the same record is reused, not
    encoded again, when its chunks are equal and its rows equal byte for
    byte: then it would encode to the same bytes. The rows interned are a
    view of the index's matrix, which the pool keeps alive."""
    record_key = store_record(pool, record)
    stored = pool.made_from(record_key)
    if stored is not None:
        key, (stored_chunks, stored_rows) = stored
        if stored_chunks == chunks and stored_rows.tobytes() == rows.tobytes():
            return key
    spans = _chunk_spans(file_representation(record), chunks)
    return pool.put(_encode_vectors(record_key, spans, rows), (chunks, rows), source=record_key)


def _files_digest(pool: ObjectPool, code: CodeIndex, vector_keys: list[str]) -> str:
    """The sha256 of `code`'s record keys in path order, then `vector_keys`.
    No key is both (a record object starts `[`, a vector object `{`), so
    lists of other lengths never give the same digest."""
    record_keys = [store_record(pool, code.files[fq_path]) for fq_path in code.sorted_paths()]
    return hashlib.sha256("".join(record_keys + vector_keys).encode()).hexdigest()


def _vector_entries(code: Manifest, base: Manifest, lines: list) -> list:
    """The entries of an embedding delta of `lines` on `base`, which follows
    code delta `code`: each path of `code` takes the next line if `code`
    adds or changes it, else base's entry at that path. Base lists the files
    of `code.base`. A KeyError or ValueError if the lines do not fit."""
    refreshed = [line[0] for line in code.lines if len(line) > 1]
    if len(lines) != len(refreshed):
        raise ValueError(f"{len(lines)} lines for {len(refreshed)} files added or changed")
    if len(base.entries) != len(code.base.entries):
        raise ValueError(f"a base of {len(base.entries)} lines for {len(code.base.entries)} files")
    by_path = dict(zip([entry[0] for entry in code.base.entries], base.entries))
    by_path.update(zip(refreshed, lines))
    return [by_path[entry[0]] for entry in code.entries]


def _apply_vector_delta(pool: ObjectPool, base: Manifest, header: dict, lines: list, path: Path):
    """The entries of embedding delta `lines` on `base`, which follows the
    code delta its header names (see `_vector_entries`). Nothing here ties
    base to that delta's base: on another base the entries get other keys,
    which `load_embedding_index` refuses by their digest."""
    check_header(header, LINK_FIELDS, path, EMBED_ARCHIVE_MAGIC)
    code = code_manifest(path.parent / header.pop("code"), header.pop("code_digest"), pool)
    if code.base is None:
        raise ArchiveFormatError(f"{path} follows {code.path.name}, which is no delta")
    try:
        return _vector_entries(code, base, lines)
    except (KeyError, ValueError) as exc:
        raise ArchiveFormatError(f"{path} does not fit the code delta it follows: {exc!r}") from None


def save_embedding_index(
    eindex: EmbeddingIndex, path: str | Path, code: CodeIndex, pool: ObjectPool | None = None,
    base: str | Path | None = None,
) -> None:
    """Write the vector objects, and the records of `code` (which must hold
    the same files), not stored yet as a pack, then the manifest: a header
    (magic, format, provider, dimension, chunk limit, file count, the vector
    objects' packs, `_files_digest`) and a `[vector key]` line per file in
    path order. A file whose chunks and rows are stored is not encoded again.

    Given `base`, the path of an embedding manifest the pool read or wrote,
    say that of the version `code` was updated from, and saved through the
    pool that last saved `code` as a delta beside it, the manifest is a
    delta on base (see `write_manifest`): the lines of the files the code
    delta adds or changes, in its order, and the code manifest named in the
    header. It is full unless those lines resolved on base give its entries.
    """
    if eindex.file_paths != code.sorted_paths():
        raise ValueError("the embedding index and the code index hold other files")
    pool = archive_pool(path, pool)
    bounds = [*eindex.file_starts.tolist(), len(eindex)]
    vector_keys = [
        _vector_key(pool, code.files[fq_path], eindex.chunks[start:end], eindex.vectors[start:end])
        for fq_path, start, end in zip(eindex.file_paths, bounds, bounds[1:])
    ]
    header = {
        "magic": EMBED_ARCHIVE_MAGIC,
        "format": EMBED_ARCHIVE_FORMAT,
        "dimension": eindex.dimension,
        "provider_id": eindex.provider_id,
        "chunk_limit": eindex.chunk_limit,
        "file_count": len(eindex.file_paths),
        "digest": _files_digest(pool, code, vector_keys),
    }
    entries = [[key] for key in vector_keys]
    follows = pool.last_code[1] if pool.last_code is not None and pool.last_code[0] is code else None
    known = pool.manifests.get(Path(base)) if base is not None else None
    delta = links = None
    if known is not None and follows is not None and follows.base is not None:
        refreshed = {line[0] for line in follows.lines if len(line) > 1}
        lines = [entry for fq_path, entry in zip(eindex.file_paths, entries) if fq_path in refreshed]
        try:
            fits = _vector_entries(follows, known, lines) == entries
        except (KeyError, ValueError):
            fits = False
        if fits and follows.path.parent == Path(path).parent:
            delta, links = lines, {"code": follows.path.name, "code_digest": follows.digest}
    write_manifest(path, header, entries, pool, vector_keys, known, delta, links)


def load_embedding_index(path: str | Path, code: CodeIndex, pool: ObjectPool | None = None) -> EmbeddingIndex:
    """The index a manifest lists, full or a delta resolved through `pool`
    (see `read_manifest`, and `_vector_entries`): its vector objects read
    through `pool`, their chunks cut from the records of `code`, the rows
    joined by one concatenation in path order. A manifest whose digest is
    not the `_files_digest` of `code` and its keys (a save cut short between
    the two manifests, a line swapped, dropped or added, a delta resolved on
    a base it was not made on) is an ArchiveFormatError before any vector
    object is decoded."""
    pool = archive_pool(path, pool)
    header, entries = read_manifest(
        path, EMBED_ARCHIVE_MAGIC, EMBED_ARCHIVE_FORMAT, 1, pool, EMBED_FIELDS, _apply_vector_delta
    )
    made_by = header["dimension"], header["provider_id"], header["chunk_limit"]
    if header["digest"] != _files_digest(pool, code, [key for (key,) in entries]):
        raise ArchiveFormatError("its embedding archive was made from other files than its code archive")
    chunks: list[Chunk] = []
    blocks = []
    for fq_path, (vector_key,) in zip(code.sorted_paths(), entries):
        record = code.files[fq_path]
        record_key = store_record(pool, record)
        file_chunks, rows = pool.get(
            vector_key, lambda data: _decode_vectors(data, record_key, record), source=record_key
        )
        chunks += file_chunks
        blocks.append(rows)
    try:
        return EmbeddingIndex(*made_by, chunks, np.concatenate(blocks) if blocks else ())
    except (TypeError, ValueError) as exc:
        raise ArchiveFormatError(f"unusable embedding index archive {path}: {exc}") from None
