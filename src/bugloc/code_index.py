"""Versioned model of a source repository: files, method signatures, bodies.

A CodeIndex is built from a directory snapshot, updated incrementally with a
Changeset, and persisted as a manifest over content-addressed record objects.
Indexes are value objects: updates return a new index and reuse records for
untouched files. An index also holds, in memory only, the stat key of each
file whose bytes it read, so that the next diff hashes only the files whose
keys changed. The lookup tables of an index, its method locator among
them, are built from its records on first use. A record object is a JSON
head line (path, parse_ok and each method's name, signature and body
length), then every body as raw UTF-8 text; code archives of format 5 hold
such objects, and an archive of an older format is not read.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .fuzzy import NameTable
from .ioutil import ConfigurationError, atomic_write_bytes, atomic_write_text
from .java_parser import Grammar, MethodRecord, get_grammar

logger = logging.getLogger(__name__)

ARCHIVE_MAGIC = "bugloc-code-index"
ARCHIVE_FORMAT = 5
OBJECTS_DIR = "objects"  # beside the manifests
_DIGEST = re.compile("[0-9a-f]{64}")
# A stat key is kept only for a file last changed longer ago than this when
# the update that read it started, as git's index treats "racy" entries: a
# change within one timestamp step (2 s on FAT) could leave the key as it was.
RACY_WINDOW_NS = 2_000_000_000

StatKey = tuple[int, int, int, int, int]  # st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns


class ArchiveFormatError(ValueError):
    """Persisted archive is not one whole archive of the expected magic and
    format: another format version, a foreign or corrupt file, a cut-off
    body, a missing or damaged pack of objects."""


@dataclass(frozen=True)
class SourceFileRecord:
    fq_path: str  # repository-relative, '/'-separated
    methods: tuple[MethodRecord, ...]
    parse_ok: bool

    @property
    def basename(self) -> str:
        return self.fq_path.rsplit("/", 1)[-1]


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
    grammar: str = "java"  # the grammar that parsed the files
    digests: dict[str, str] = field(default_factory=dict)  # path -> sha256 hex of the bytes parsed
    # path -> stat key of the file when those bytes were read; no archive holds it
    stat_keys: dict[str, StatKey] = field(default_factory=dict, compare=False, repr=False)

    def sorted_paths(self) -> list[str]:
        return sorted(self.files)

    # Lookup tables, built on first use and held for the life of the index.
    # They are not fields, so equality, repr and archives never see them.

    @cached_property
    def method_locator(self) -> dict[str, tuple[str, ...]]:
        """Method name -> the sorted paths of the files that declare it, in
        name order, which the name table reads."""
        paths: dict[str, list[str]] = {}
        for fq_path in self.sorted_paths():
            for method in self.files[fq_path].methods:
                found = paths.setdefault(method.name, [])
                if not found or found[-1] != fq_path:  # overloads list a path once
                    found.append(fq_path)
        return {name: tuple(paths[name]) for name in sorted(paths)}

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


def _parse_file(data: bytes, fq_path: str, grammar: Grammar) -> SourceFileRecord:
    """The record of a file's bytes, decoded as `read_text(encoding="utf-8",
    errors="replace")` decodes them, universal newlines included."""
    text = data.decode("utf-8", errors="replace").replace("\r\n", "\n").replace("\r", "\n")
    result = grammar.parse(text)
    if not result.ok:
        logger.debug("parse failure recorded for %s", fq_path)
        return SourceFileRecord(fq_path, (), parse_ok=False)
    return SourceFileRecord(fq_path, tuple(result.methods), parse_ok=True)


def _suffix(name: str) -> str:
    """The suffix `Path.suffix` reads: from the last dot, unless the name
    starts or ends with it, so `.java` has none."""
    dot = name.rfind(".")
    return name[dot:] if 0 < dot < len(name) - 1 else ""


def source_paths(root: str | Path, extensions: tuple[str, ...]) -> list[str]:
    """The '/'-separated paths, relative to `root`, of the files under it
    whose suffix is one of `extensions`, in the order of their `Path`s: by
    parts, not by string. One `os.scandir` walk, which enters no symlinked
    directory, as `Path.rglob` does, and logs and skips a directory it
    cannot list; a missing root has no files."""
    found: list[tuple[str, ...]] = []

    def walk(directory: str, parts: tuple[str, ...]) -> None:
        try:
            with os.scandir(directory) as listing:
                entries = list(listing)
        except OSError as exc:
            logger.warning("directory unreadable, skipped: %s (%s)", directory, exc)
            return
        for entry in entries:
            if entry.is_dir(follow_symlinks=False):
                walk(entry.path, (*parts, entry.name))
            elif _suffix(entry.name) in extensions and entry.is_file():
                found.append((*parts, entry.name))

    walk(str(root), ())
    return ["/".join(parts) for parts in sorted(found)]


def build_index(repo_root: str | Path, grammar: str = "java", version_id: str = "") -> CodeIndex:
    """Parse every file matching the grammar's extensions under repo_root:
    the update of the empty index that adds them all, stat keys included.

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
    return update_index(CodeIndex(version_id, grammar=grammar), added, root, version_id)


def file_representation(record: SourceFileRecord) -> str:
    """The retrieval text for a file: its path, then method bodies in source order."""
    return "\n".join([record.fq_path] + [m.body for m in record.methods])


def _stat_key(st: os.stat_result) -> StatKey:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def update_index(
    index: CodeIndex,
    changeset: Changeset,
    repo_root: str | Path,
    new_version: str,
) -> CodeIndex:
    """Apply a changeset against the on-disk tree at new_version, parsing
    with the grammar that parsed `index`.

    The result equals a full rebuild at new_version; untouched records are
    reused, with their digests and stat keys. A changeset path that cannot be
    read, missing on disk say, is logged and skipped so the rebuild
    equivalence still holds. Each file parsed gets the stat key it had just
    before its read, unless it changed within RACY_WINDOW_NS of the update's
    start; a file parsed again loses its old key either way.
    """
    changeset.validate()
    root = Path(repo_root)
    gram = get_grammar(index.grammar)
    settled = time.time_ns() - RACY_WINDOW_NS  # a file changed since has no key kept
    files, digests, keys = dict(index.files), dict(index.digests), dict(index.stat_keys)

    for path in changeset.deleted:
        if files.pop(path, None) is None:
            logger.warning("changeset deletes unknown path %s", path)
    reparse = list(changeset.added) + list(changeset.modified)
    for old, new in changeset.renamed:
        if files.pop(old, None) is None:
            logger.warning("changeset renames unknown path %s", old)
        reparse.append(new)
    for fq_path in reparse:
        keys.pop(fq_path, None)
        path = root / fq_path
        try:
            st = os.stat(path)  # before the read: a change after it leaves a key that differs
            data = path.read_bytes()
        except OSError as exc:
            logger.error("changeset path unreadable, skipped: %s (%s)", fq_path, exc)
            files.pop(fq_path, None)
            continue
        if st.st_mtime_ns < settled and st.st_ctime_ns < settled:
            keys[fq_path] = _stat_key(st)
        digests[fq_path] = hashlib.sha256(data).hexdigest()
        files[fq_path] = _parse_file(data, fq_path, gram)

    digests = {path: digests[path] for path in files}
    keys = {path: keys[path] for path in files if path in keys}
    return CodeIndex(new_version, files, index.grammar, digests, keys)


def diff_source_trees(
    old: str | Path | CodeIndex, new_root: str | Path, extensions: tuple[str, ...] = (".java",)
) -> Changeset:
    """Derive the changeset from the old snapshot to the tree at new_root.

    `old` is the old snapshot's directory, or its CodeIndex, whose digests
    stand for its files; given an index, only the new tree is read, and of
    it only the files whose stat key differs from the one the index recorded
    for their path, or that have none: every other file keeps the index's
    digest. A file that cannot be read is logged and counts as absent, as
    `update_index` skips it. A deleted path and an added path with identical
    content are paired as a rename (greedily, in sorted-path order).
    """

    def digest_tree(root: str, known: CodeIndex | None = None) -> dict[str, str]:
        digests, prefix = {}, os.path.join(root, "")  # prefix + rel is os.path.join(root, rel)
        keys = known.stat_keys if known is not None else {}
        for rel in source_paths(root, extensions):
            try:
                key = keys.get(rel)
                if key is not None and _stat_key(os.stat(prefix + rel)) == key:
                    digests[rel] = known.digests[rel]
                    continue
                with open(prefix + rel, "rb", buffering=0) as file:  # no buffer: one read of it all
                    digests[rel] = hashlib.sha256(file.read()).hexdigest()
            except OSError as exc:
                logger.error("unreadable, left out of the diff: %s (%s)", rel, exc)
        return digests

    if isinstance(old, CodeIndex):
        new = digest_tree(os.fspath(new_root), old)
        old = old.digests
    else:
        old = digest_tree(os.fspath(old))
        new = digest_tree(os.fspath(new_root))
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
            except (TypeError, ValueError, RecursionError) as exc:
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
        if value is not None:
            if source is not None:
                self._made_from[source] = key
            return value
        data = self._unread.pop(key, None)
        if data is None:
            raise ArchiveFormatError(f"object {key} is in none of the packs read")
        try:
            value = decode(data)
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
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
    """A record object: the JSON line [fq_path, parse_ok, methods], each
    method a list [name, signature, body length], then the bodies one after
    another. All of it is UTF-8 with surrogates passed through, and the head
    escapes no other character, so that every string comes back as it was:
    JSON would join an escaped surrogate pair."""
    methods = [[m.name, m.signature, len(m.body)] for m in record.methods]
    fields = [record.fq_path, record.parse_ok, methods]
    text = json.dumps(fields, ensure_ascii=False, separators=(",", ":")) + "\n"
    return (text + "".join(m.body for m in record.methods)).encode("utf-8", "surrogatepass")


def _decode_record(data: bytes) -> SourceFileRecord:
    head, _, bodies = data.partition(b"\n")
    fq_path, parse_ok, methods = json.loads(head)
    if type(methods) is not list:  # a head that is a dict or a string unpacks too
        raise ValueError("its head is not a list of three fields, the last a list of methods")
    text = bodies.decode("utf-8", "surrogatepass")
    decoded, end = [], 0
    for name, signature, length in methods:
        body = text[end : end + length]
        if len(body) != length:
            raise ValueError(f"a body of {length!r} characters at offset {end} of {len(text)}")
        decoded.append(MethodRecord(name, signature, body))
        end += length
    if end != len(text):
        raise ValueError(f"its methods cover {end} of its {len(text)} body characters")
    return SourceFileRecord(fq_path, tuple(decoded), parse_ok)


def archive_pool(path: str | Path, pool: ObjectPool | None) -> ObjectPool:
    """`pool`, or a fresh pool of the objects directory beside manifest `path`."""
    return pool if pool is not None else ObjectPool(Path(path).parent / OBJECTS_DIR)


def write_manifest(path: str | Path, header: dict, entries: list, pool: ObjectPool, keys: list[str]) -> None:
    """The objects put into `pool` as a new pack, then the manifest: the
    header with the packs that hold the objects `keys` names, and one JSON
    list of strings per entry."""
    header = dict(header, packs=pool.pack(keys))
    # json.dumps(entry) of a list of strings, without its per-call set-up
    lines = [json.dumps(header, sort_keys=True)] + [
        "[" + ", ".join(map(encode_basestring_ascii, entry)) + "]" for entry in entries
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_manifest(
    path: str | Path, magic: str, fmt: int, width: int, pool: ObjectPool
) -> tuple[dict, list]:
    """The header of a manifest and its entries, each a list of `width`
    strings. The packs the header names are read into `pool`.

    Raises ArchiveFormatError unless the header names `magic` and `fmt`, every
    entry decodes and has that shape, and there are header["file_count"]
    entries: an old, foreign, corrupt or truncated manifest is never trusted.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            header = json.loads(handle.readline())
        except (ValueError, RecursionError):
            raise ArchiveFormatError(f"no archive header in {path}") from None
        if not isinstance(header, dict) or header.get("magic") != magic:
            raise ArchiveFormatError(f"bad magic header in {path}")
        if header.get("format") != fmt:
            raise ArchiveFormatError(
                f"unsupported archive format {header.get('format')!r} in {path}"
            )
        lines = [line for line in handle if line.strip()]
    try:
        entries = json.loads("[" + ",".join(lines) + "]")
    except (ValueError, RecursionError) as exc:
        raise ArchiveFormatError(f"unreadable entry in {path}: {exc!r}") from None
    # The one decode also takes two entries on one line, or an entry cut
    # between its items over two lines. No string spans lines, so when every
    # line ends a list, each line holds whole lists, and as many as there
    # are lines only if it holds one.
    if len(entries) != len(lines) or not all(line.rstrip().endswith("]") for line in lines):
        raise ArchiveFormatError(f"unreadable entry in {path}: a line that is not one entry")
    shaped = set(map(type, entries)) <= {list} and set(map(len, entries)) <= {width}
    if not (shaped and set(map(type, chain.from_iterable(entries))) <= {str}):
        raise ArchiveFormatError(f"malformed entry in {path}: not a list of {width} strings")
    if len(entries) != header.get("file_count"):
        raise ArchiveFormatError(
            f"{path} holds {len(entries)} entries, its header says {header.get('file_count')!r}"
        )
    pool.read(header.get("packs"))
    return header, entries


def save_code_index(index: CodeIndex, path: str | Path, pool: ObjectPool | None = None) -> None:
    """Write the records not stored yet as a pack, then the manifest: a
    header (magic, format, version, grammar, file count, packs) and one
    `[fq_path, record key, sha256 of the file's bytes]` line per file in
    path order."""
    pool = archive_pool(path, pool)
    header = {
        "magic": ARCHIVE_MAGIC,
        "format": ARCHIVE_FORMAT,
        "version_id": index.version_id,
        "grammar": index.grammar,
        "file_count": len(index.files),
    }
    entries = [[p, store_record(pool, index.files[p]), index.digests[p]] for p in index.sorted_paths()]
    write_manifest(path, header, entries, pool, [key for _, key, _ in entries])


def store_record(pool: ObjectPool, record: SourceFileRecord) -> str:
    """The key of `record`'s object, kept for the next pack unless stored."""
    return pool.key(record, _encode_record)


def load_record(pool: ObjectPool, fq_path: str, key: str) -> SourceFileRecord:
    """The record object `key`, which a manifest lists under `fq_path`."""
    record = pool.get(key, _decode_record)
    if record.fq_path != fq_path:
        raise ArchiveFormatError(f"object {key} holds {record.fq_path!r}, not {fq_path!r}")
    return record


def load_code_index(
    path: str | Path, pool: ObjectPool | None = None, base: CodeIndex | None = None
) -> CodeIndex:
    """The index a manifest lists, its records read through `pool`. Given a
    `base`, say the index of the version before, a file that `base` records
    with the same digest shares `base`'s digest string. Paths that do not
    ascend strictly (a path repeated, say) are an ArchiveFormatError."""
    pool = archive_pool(path, pool)
    header, entries = read_manifest(path, ARCHIVE_MAGIC, ARCHIVE_FORMAT, 3, pool)
    paths = [entry[0] for entry in entries]
    if not all(map(str.__lt__, paths, paths[1:])):
        following = next(b for a, b in zip(paths, paths[1:]) if a >= b)
        raise ArchiveFormatError(f"{path} lists {following!r} out of order or twice")
    files = {fq_path: load_record(pool, fq_path, key) for fq_path, key, _ in entries}
    old = base.digests if base is not None else {}
    digests = {fq_path: old[fq_path] if old.get(fq_path) == d else d for fq_path, _, d in entries}
    return CodeIndex(header["version_id"], files, header.get("grammar"), digests)
