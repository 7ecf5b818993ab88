"""Versioned model of a source repository: files, method signatures, bodies.

A CodeIndex is built from a directory snapshot, updated incrementally with a
Changeset, and persisted as a manifest over content-addressed record objects.
Indexes are value objects: updates return a new index and reuse records for
untouched files.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .fuzzy import NameTable
from .ioutil import atomic_write_bytes, atomic_write_text
from .java_parser import Grammar, get_grammar

logger = logging.getLogger(__name__)

ARCHIVE_MAGIC = "bugloc-code-index"
ARCHIVE_FORMAT = 2
OBJECTS_DIR = "objects"  # beside the manifests
_DIGEST = re.compile("[0-9a-f]{64}")


class ConfigurationError(ValueError):
    """Fatal setup problem (missing repository root, unsupported grammar...)."""


class ArchiveFormatError(ValueError):
    """Persisted archive is not one whole archive of the expected magic and
    format: another format version, a foreign or corrupt file, a cut-off
    body, a missing or damaged pack of objects."""


@dataclass(frozen=True)
class MethodRecord:
    name: str
    signature: str  # canonical: name(paramType1,paramType2,...)
    # Verbatim method source, declaration through closing brace. Abstract and
    # interface methods have no implementation and store an empty body.
    body: str
    abstract: bool = False


@dataclass(frozen=True)
class SourceFileRecord:
    fq_path: str  # repository-relative, '/'-separated
    basename: str
    methods: tuple[MethodRecord, ...]
    parse_ok: bool


@dataclass
class Changeset:
    added: tuple[str, ...] = ()
    modified: tuple[str, ...] = ()
    deleted: tuple[str, ...] = ()
    renamed: tuple[tuple[str, str], ...] = ()

    def validate(self) -> None:
        """The four sets must be pairwise disjoint on old paths."""
        seen: set[str] = set()
        for group in (self.added, self.modified, self.deleted, [old for old, _ in self.renamed]):
            for path in group:
                if path in seen:
                    raise ValueError(f"path appears twice in changeset: {path!r}")
                seen.add(path)


@dataclass
class CodeIndex:
    version_id: str
    files: dict[str, SourceFileRecord] = field(default_factory=dict)
    method_locator: dict[str, tuple[str, ...]] = field(default_factory=dict)
    grammar: str = "java"  # the grammar that parsed the files

    def sorted_paths(self) -> list[str]:
        return sorted(self.files)

    # Lookup tables, built on first use and held for the life of the index.
    # They are not fields, so equality, repr and archives never see them.

    @cached_property
    def name_table(self) -> NameTable:
        """The method names, as the fuzzy search's bag filter reads them."""
        return NameTable(list(self.method_locator))

    @cached_property
    def paths_by_lower_basename(self) -> dict[str, tuple[str, ...]]:
        """Lowercased basename -> the sorted paths of the files whose
        basename lowercases to it."""
        paths: dict[str, list[str]] = {}
        for fq_path in self.sorted_paths():
            paths.setdefault(self.files[fq_path].basename.lower(), []).append(fq_path)
        return {basename: tuple(group) for basename, group in paths.items()}

    def paths_named(self, basename: str) -> list[str]:
        """The sorted paths of the files whose basename is `basename`."""
        paths = self.paths_by_lower_basename.get(basename.lower(), ())
        return [p for p in paths if self.files[p].basename == basename]


def _build_locator(files: dict[str, SourceFileRecord]) -> dict[str, tuple[str, ...]]:
    locator: dict[str, set[str]] = {}
    for record in files.values():
        for method in record.methods:
            locator.setdefault(method.name, set()).add(record.fq_path)
    return {name: tuple(sorted(paths)) for name, paths in sorted(locator.items())}


def _parse_file(path: Path, fq_path: str, grammar: Grammar) -> SourceFileRecord:
    basename = fq_path.rsplit("/", 1)[-1]
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        logger.warning("cannot read %s: %s", fq_path, exc)
        return SourceFileRecord(fq_path, basename, (), parse_ok=False)
    result = grammar.parse(text)
    if not result.ok:
        logger.debug("parse failure recorded for %s", fq_path)
        return SourceFileRecord(fq_path, basename, (), parse_ok=False)
    methods = tuple(
        MethodRecord(m.name, m.signature, m.body, m.abstract) for m in result.methods
    )
    return SourceFileRecord(fq_path, basename, methods, parse_ok=True)


def source_paths(root: Path, extensions: tuple[str, ...]) -> list[str]:
    """The '/'-separated paths, relative to `root`, of the files under it
    whose suffix is one of `extensions`, in the order of their `Path`s."""
    paths = sorted(p for p in root.rglob("*") if p.is_file() and p.suffix in extensions)
    return [p.relative_to(root).as_posix() for p in paths]


def build_index(repo_root: str | Path, grammar: str = "java", version_id: str = "") -> CodeIndex:
    """Parse every file matching the grammar's extensions under repo_root:
    the update of the empty index that adds them all.

    Unparsable files are recorded with parse_ok=False rather than skipped;
    a missing repo_root is fatal.
    """
    root = Path(repo_root)
    if not root.is_dir():
        raise ConfigurationError(f"repository root does not exist: {root}")
    try:
        gram = get_grammar(grammar)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None
    added = Changeset(added=tuple(source_paths(root, gram.extensions)))
    return update_index(CodeIndex(version_id, grammar=grammar), added, root, version_id, grammar)


def file_representation(record: SourceFileRecord) -> str:
    """The retrieval text for a file: its path, then method bodies in source order."""
    return "\n".join([record.fq_path] + [m.body for m in record.methods])


def update_index(
    index: CodeIndex,
    changeset: Changeset,
    repo_root: str | Path,
    new_version: str,
    grammar: str = "java",
) -> CodeIndex:
    """Apply a changeset against the on-disk tree at new_version.

    The result equals a full rebuild at new_version; untouched records are
    reused. A changeset path missing on disk is logged and skipped so the
    rebuild equivalence still holds.
    """
    changeset.validate()
    root = Path(repo_root)
    gram = get_grammar(grammar)
    files = dict(index.files)

    for path in changeset.deleted:
        if files.pop(path, None) is None:
            logger.warning("changeset deletes unknown path %s", path)
    reparse = list(changeset.added) + list(changeset.modified)
    for old, new in changeset.renamed:
        if files.pop(old, None) is None:
            logger.warning("changeset renames unknown path %s", old)
        reparse.append(new)
    for fq_path in reparse:
        disk = root / fq_path
        if not disk.is_file():
            logger.error("changeset path absent on disk, skipped: %s", fq_path)
            files.pop(fq_path, None)
            continue
        files[fq_path] = _parse_file(disk, fq_path, gram)

    return CodeIndex(new_version, files, _build_locator(files), grammar)


def diff_source_trees(
    old_root: str | Path, new_root: str | Path, extensions: tuple[str, ...] = (".java",)
) -> Changeset:
    """Derive a changeset between two directory snapshots.

    A deleted path and an added path with identical content are paired as a
    rename (greedily, in sorted-path order).
    """

    def digest_tree(root: Path) -> dict[str, str]:
        paths = source_paths(root, extensions)
        return {rel: hashlib.sha256((root / rel).read_bytes()).hexdigest() for rel in paths}

    old = digest_tree(Path(old_root))
    new = digest_tree(Path(new_root))
    added = sorted(set(new) - set(old))
    deleted = sorted(set(old) - set(new))
    modified = tuple(sorted(p for p in set(old) & set(new) if old[p] != new[p]))

    renamed: list[tuple[str, str]] = []
    unmatched_added = []
    by_digest: dict[str, list[str]] = {}
    for path in deleted:
        by_digest.setdefault(old[path], []).append(path)
    for path in added:
        bucket = by_digest.get(new[path])
        if bucket:
            renamed.append((bucket.pop(0), path))
        else:
            unmatched_added.append(path)
    still_deleted = tuple(sorted(p for bucket in by_digest.values() for p in bucket))
    return Changeset(
        added=tuple(unmatched_added),
        modified=modified,
        deleted=still_deleted,
        renamed=tuple(renamed),
    )


class ObjectPool:
    """Content-addressed objects, each named by the sha256 of its bytes, kept
    in packs: files under `directory`, beside the manifests that list them.

    A save stores the objects the pool does not hold yet as one new pack,
    itself named by the sha256 of its bytes, so a first save makes one file,
    not one per source file. Values read or written through a pool are
    interned by key for the life of the pool, so every index that holds a
    file's content holds the same record, chunks and rows. A pack that is
    missing, fails its digest or holds an object that does not decode is an
    ArchiveFormatError; a damaged pack is unlinked and its objects are
    forgotten, so that the next save writes them again.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._values: dict[str, object] = {}  # key -> interned value
        self._keys: dict[int, str] = {}  # id(value) -> key of each interned value
        self._read: set[str] = set()  # names of the packs read
        self._pack_of: dict[str, str] = {}  # key -> name of a pack on disk that holds it
        self._unread: dict[str, bytes] = {}  # key -> bytes read from a pack, not decoded yet
        self._new: dict[str, bytes] = {}  # key -> bytes of an object in no pack yet
        self._made_from: dict[str, str] = {}  # key -> key of the object last interned as made from it

    def read(self, packs) -> None:
        """Make the objects of the packs a manifest names available."""
        if not isinstance(packs, list):
            raise ArchiveFormatError(f"no list of packs: {packs!r}")
        for name in packs:
            if name in self._read:
                continue
            if not (isinstance(name, str) and _DIGEST.fullmatch(name)):  # it becomes a path
                raise ArchiveFormatError(f"{name!r} is not a pack name")
            path = os.path.join(self.directory, name)
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
            except FileNotFoundError:
                raise ArchiveFormatError(f"pack {name} is missing") from None
            try:
                if hashlib.sha256(data).hexdigest() != name:
                    raise ValueError("its bytes do not match its digest")
                objects = _split_pack(data)
            except (TypeError, ValueError) as exc:
                os.unlink(path)
                raise ArchiveFormatError(f"pack {name} is damaged: {exc}") from None
            self._read.add(name)
            for key, data in objects.items():
                self._pack_of.setdefault(key, name)
                if key not in self._values:
                    self._unread[key] = data

    def get(self, key: str, decode, source: str | None = None):
        """The value of object `key`: passed to `decode` on first use, the
        interned value after. `source` is the key of the object it was made
        from, if any (see `made_from`)."""
        value = self._values.get(key)
        if value is None:
            data = self._unread.pop(key, None)
            if data is None:
                raise ArchiveFormatError(f"object {key} is in none of the packs read")
            try:
                value = decode(data)
            except (KeyError, TypeError, ValueError) as exc:
                self._drop(self._pack_of[key])
                raise ArchiveFormatError(f"object {key} is damaged: {exc}") from None
        return self._intern(key, value, source)

    def put(self, data: bytes, value=None, source: str | None = None) -> str:
        """The key of `data`, kept for the next pack unless it is stored; a
        `value` given is interned as its value, made from object `source`."""
        key = hashlib.sha256(data).hexdigest()
        if key not in self._pack_of:
            self._new.setdefault(key, data)
        if value is not None:
            self._intern(key, value, source)
        return key

    def key(self, value, encode) -> str:
        """The key of `value`'s object, stored by `put(encode(value))` unless
        `value` is interned and stored already."""
        key = self._keys.get(id(value))
        if key is None or not self._stored(key):
            key = self.put(encode(value), value)
        return key

    def made_from(self, source: str):
        """The key and interned value of the object last read or stored as
        made from object `source`, if it is stored; else None."""
        key = self._made_from.get(source)
        if key is None or not self._stored(key):
            return None
        return key, self._values[key]

    def pack(self, keys) -> list[str]:
        """Write the objects put since the last pack as one new pack, if there
        are any; the sorted names of the packs that hold `keys`."""
        if self._new:
            data = _join_pack(self._new)
            name = hashlib.sha256(data).hexdigest()
            path = os.path.join(self.directory, name)
            if not os.path.exists(path):
                atomic_write_bytes(path, data)
            for key in self._new:
                self._pack_of[key] = name
            self._new = {}
        return sorted({self._pack_of[key] for key in keys})

    def _stored(self, key: str) -> bool:
        return key in self._pack_of or key in self._new

    def _intern(self, key: str, value, source: str | None = None):
        interned = self._values.setdefault(key, value)
        self._keys[id(interned)] = key
        if source is not None:
            self._made_from[source] = key
        return interned

    def _drop(self, pack: str) -> None:
        (self.directory / pack).unlink(missing_ok=True)
        self._read.discard(pack)
        for key in [key for key, name in self._pack_of.items() if name == pack]:
            del self._pack_of[key]
            self._unread.pop(key, None)


def _join_pack(objects: dict[str, bytes]) -> bytes:
    """A pack: a JSON line of [key, length] per object, then their bytes."""
    index = [[key, len(data)] for key, data in objects.items()]
    return json.dumps(index, separators=(",", ":")).encode() + b"\n" + b"".join(objects.values())


def _split_pack(data: bytes) -> dict[str, bytes]:
    head, _, body = data.partition(b"\n")
    objects, offset = {}, 0
    for key, length in json.loads(head):
        objects[key] = body[offset : offset + length]
        offset += length
    if offset != len(body):
        raise ValueError(f"its index covers {offset} of its {len(body)} bytes")
    return objects


def _encode_record(record: SourceFileRecord) -> bytes:
    """A record object: the JSON list [fq_path, basename, parse_ok, methods],
    each method a list [name, signature, body, abstract]."""
    methods = [[m.name, m.signature, m.body, m.abstract] for m in record.methods]
    fields = [record.fq_path, record.basename, record.parse_ok, methods]
    return json.dumps(fields, separators=(",", ":")).encode("utf-8")


def _decode_record(data: bytes) -> SourceFileRecord:
    fq_path, basename, parse_ok, methods = json.loads(data)
    return SourceFileRecord(fq_path, basename, tuple(MethodRecord(*m) for m in methods), parse_ok)


def archive_pool(path: str | Path, pool: ObjectPool | None) -> ObjectPool:
    """`pool`, or a fresh pool of the objects directory beside manifest `path`."""
    return pool if pool is not None else ObjectPool(Path(path).parent / OBJECTS_DIR)


def write_manifest(path: str | Path, header: dict, entries: list, pool: ObjectPool) -> None:
    """The objects put into `pool` as a new pack, then the manifest: the
    header with the packs that hold its objects, and one JSON list
    `[fq_path, key, ...]` per file."""
    header = dict(header, packs=pool.pack([key for entry in entries for key in entry[1:]]))
    lines = [json.dumps(header, sort_keys=True)] + [json.dumps(entry) for entry in entries]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_manifest(
    path: str | Path, magic: str, fmt: int, width: int, pool: ObjectPool
) -> tuple[dict, list]:
    """The header of a manifest and its entries, each a list of `width`
    strings: a path, then object keys. The packs the header names are read
    into `pool`.

    Raises ArchiveFormatError unless the header names `magic` and `fmt`, every
    entry decodes and has that shape, the paths ascend strictly (so none is
    repeated) and there are header["file_count"] entries, so an old, foreign,
    corrupt, edited or truncated manifest is never trusted.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            header = json.loads(handle.readline())
        except ValueError:
            raise ArchiveFormatError(f"no archive header in {path}") from None
        if not isinstance(header, dict) or header.get("magic") != magic:
            raise ArchiveFormatError(f"bad magic header in {path}")
        if header.get("format") != fmt:
            raise ArchiveFormatError(
                f"unsupported archive format {header.get('format')!r} in {path}"
            )
        try:
            entries = [json.loads(line) for line in handle if line.strip()]
        except ValueError as exc:
            raise ArchiveFormatError(f"unreadable entry in {path}: {exc!r}") from None
    for entry in entries:
        shaped = isinstance(entry, list) and len(entry) == width
        if not (shaped and all(isinstance(part, str) for part in entry)):
            raise ArchiveFormatError(f"malformed entry in {path}: {entry!r}")
    for entry, following in zip(entries, entries[1:]):
        if entry[0] >= following[0]:
            raise ArchiveFormatError(f"{path} lists {following[0]!r} out of order or twice")
    if len(entries) != header.get("file_count"):
        raise ArchiveFormatError(
            f"{path} holds {len(entries)} entries, its header says {header.get('file_count')!r}"
        )
    pool.read(header.get("packs"))
    return header, entries


def save_code_index(index: CodeIndex, path: str | Path, pool: ObjectPool | None = None) -> None:
    """Write the records not stored yet as a pack, then the manifest: a
    header (magic, format, version, grammar, file count, packs) and one
    `[fq_path, record key]` line per file in path order."""
    pool = archive_pool(path, pool)
    header = {
        "magic": ARCHIVE_MAGIC,
        "format": ARCHIVE_FORMAT,
        "version_id": index.version_id,
        "grammar": index.grammar,
        "file_count": len(index.files),
    }
    entries = [[p, store_record(pool, index.files[p])] for p in index.sorted_paths()]
    write_manifest(path, header, entries, pool)


def store_record(pool: ObjectPool, record: SourceFileRecord) -> str:
    """The key of `record`'s object, kept for the next pack unless stored."""
    return pool.key(record, _encode_record)


def load_record(pool: ObjectPool, fq_path: str, key: str) -> SourceFileRecord:
    """The record object `key`, which a manifest lists under `fq_path`."""
    record = pool.get(key, _decode_record)
    if record.fq_path != fq_path:
        raise ArchiveFormatError(f"object {key} holds {record.fq_path!r}, not {fq_path!r}")
    return record


def load_code_index(path: str | Path, pool: ObjectPool | None = None) -> CodeIndex:
    pool = archive_pool(path, pool)
    header, entries = read_manifest(path, ARCHIVE_MAGIC, ARCHIVE_FORMAT, 2, pool)
    files = {fq_path: load_record(pool, fq_path, key) for fq_path, key in entries}
    return CodeIndex(header["version_id"], files, _build_locator(files), header.get("grammar"))
