"""Versioned model of a source repository: files, method signatures, bodies.

A CodeIndex is built from a directory snapshot, updated incrementally with a
Changeset, and persisted as a manifest over content-addressed record objects.
Indexes are value objects: updates return a new index and reuse records for
untouched files. An index also holds, in memory only, the stat key of each
file whose bytes it read, so that the next diff hashes only the files whose
keys changed. The lookup tables of an index, its method locator among
them, are built from its records on first use. A record object is a JSON
head line (path, parse_ok and each method's name, signature and body
length), then every body as raw UTF-8 text. A manifest is full, or a delta
on the manifest of the version it was built from; code archives of format 6
hold such manifests and objects, and an archive of an older format is not
read.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import re
import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

from .fuzzy import NameTable
from .ioutil import ConfigurationError, atomic_write_bytes
from .java_parser import Grammar, MethodRecord, get_grammar

logger = logging.getLogger(__name__)

ARCHIVE_MAGIC = "bugloc-code-index"
ARCHIVE_FORMAT = 6
OBJECTS_DIR = "objects"  # beside the manifests
_DIGEST = re.compile("[0-9a-f]{64}")
_PLAIN_NAME = re.compile(r"(?!\.\.?\Z)[^/\\\x00]+")  # a file name: no separator, not . or ..
# A delta is written only onto a chain of fewer deltas than this, and only
# while the deltas of the chain hold no more bytes than a full manifest, as
# Mercurial's revlog caps its delta chains (Mackall, 2006).
MAX_DELTA_DEPTH = 8
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
    # path -> (stat key before the read, bytes) of each added, modified or
    # renamed-to file the diff read, which the update parses without reading
    # it again; neither compared nor shown
    contents: dict[str, tuple[StatKey, bytes]] = field(default_factory=dict, compare=False, repr=False)

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
    reused, with their digests and stat keys. A file whose bytes the
    changeset carries (see `diff_source_trees`) is parsed from them; any
    other is read here. A changeset path that cannot be read, missing on
    disk say, is logged and skipped so the rebuild equivalence still holds.
    Each file parsed gets the stat key it had just before its read, unless
    it changed within RACY_WINDOW_NS of the update's start; a file parsed
    again loses its old key either way.
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
        read = changeset.contents.get(fq_path)
        if read is None:
            path = root / fq_path
            try:
                st = os.stat(path)  # before the read: a change after it leaves a key that differs
                read = _stat_key(st), path.read_bytes()
            except OSError as exc:
                logger.error("changeset path unreadable, skipped: %s (%s)", fq_path, exc)
                files.pop(fq_path, None)
                continue
        key, data = read
        if key[3] < settled and key[4] < settled:  # st_mtime_ns, st_ctime_ns
            keys[fq_path] = key
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
    content are paired as a rename (greedily, in sorted-path order). The
    changeset carries the bytes read of each new-tree file whose digest is
    not the old one at its path, with the stat key taken before the read.
    """

    def digest_tree(root: str, known: CodeIndex | None = None, old: dict | None = None) -> dict[str, str]:
        digests, prefix = {}, os.path.join(root, "")  # prefix + rel is os.path.join(root, rel)
        keys = known.stat_keys if known is not None else {}
        for rel in source_paths(root, extensions):
            try:
                key = keys.get(rel)
                if key is not None:
                    st = os.stat(prefix + rel)
                    if _stat_key(st) == key:
                        digests[rel] = known.digests[rel]
                        continue
                with open(prefix + rel, "rb", buffering=0) as file:  # no buffer: one read of it all
                    if key is None:
                        st = os.fstat(file.fileno())
                    data = file.read()
            except OSError as exc:
                logger.error("unreadable, left out of the diff: %s (%s)", rel, exc)
                continue
            digests[rel] = hashlib.sha256(data).hexdigest()
            if old is not None and old.get(rel) != digests[rel]:  # added, modified or renamed to
                contents[rel] = _stat_key(st), data
        return digests

    contents: dict[str, tuple[StatKey, bytes]] = {}
    if isinstance(old, CodeIndex):
        new = digest_tree(os.fspath(new_root), old, old.digests)
        old = old.digests
    else:
        old = digest_tree(os.fspath(old))
        new = digest_tree(os.fspath(new_root), old=old)
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
        contents=contents,
    )


class ObjectPool:
    """Objects kept in packs: files under `directory`, beside the manifests
    that list them. A record object is named by the sha256 of its bytes; a
    vector object by what it was made from (see `embedding._namer`), so
    that a manifest can derive its names instead of listing them.

    A save stores the objects the pool does not hold yet as one new pack,
    itself named by the sha256 of its bytes, so a first save makes one file,
    not one per source file. Values read or written through a pool are
    interned by key for the life of the pool, so every index that holds a
    file's content holds the same record, chunks and rows. A pack that is
    missing, fails its digest or holds an object that does not decode is an
    ArchiveFormatError; a damaged pack is unlinked and its objects are
    forgotten, so that the next save writes them again. A pool also keeps
    each code manifest read or written through it (see `Manifest`), so that
    a delta on one of them is written, and read, without reading it again.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._values: dict[str, object] = {}  # key -> interned value
        self._keys: dict[int, str] = {}  # id(value) -> key of each interned value
        self._read: set[str] = set()  # names of the packs read
        self._pack_of: dict[str, str] = {}  # key -> name of a pack on disk that holds it
        self._unread: dict[str, bytes] = {}  # key -> bytes read from a pack, not decoded yet
        self._new: dict[str, bytes] = {}  # key -> bytes of an object in no pack yet
        self.manifests: dict[Path, Manifest] = {}  # path -> the manifest last read or written there

    def read(self, packs) -> None:
        """Make the objects of the packs a manifest names available."""
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

    def get(self, key: str, decode):
        """The value of object `key`: passed to `decode` on first use, the
        interned value after."""
        value = self._values.get(key)
        if value is not None:
            return value
        data = self._unread.pop(key, None)
        if data is None:
            raise ArchiveFormatError(f"object {key} is in none of the packs read")
        try:
            value = decode(data)
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            self._drop(self._pack_of[key])
            raise ArchiveFormatError(f"object {key} is damaged: {exc}") from None
        return self._intern(key, value)

    def put(self, data: bytes, value=None, name: str | None = None) -> str:
        """The key of `data`, `name` or else the sha256 of the bytes, which
        are kept for the next pack unless the key is stored; a `value` given
        is interned as its value."""
        key = name or hashlib.sha256(data).hexdigest()
        if key not in self._pack_of:
            self._new.setdefault(key, data)
        if value is not None:
            self._intern(key, value)
        return key

    def key(self, value, encode) -> str:
        """The key of `value`'s object, stored by `put(encode(value))` unless
        `value` is interned and stored already."""
        key = self._keys.get(id(value))
        if key is None or not self.stored(key):
            key = self.put(encode(value), value)
        return key

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

    def stored(self, key: str) -> bool:
        """Whether object `key` is in a pack on disk, or kept for the next."""
        return key in self._pack_of or key in self._new

    def _intern(self, key: str, value):
        interned = self._values.setdefault(key, value)
        self._keys[id(interned)] = key
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


@dataclass(eq=False)
class Manifest:
    """A code manifest as a pool keeps it once read or written: the sha256
    of its bytes, the entries of the version it resolves to, and the size
    of the chain of deltas below it down to a full manifest."""

    path: Path
    digest: str
    entries: list
    depth: int = 0  # deltas from this manifest down to a full one
    chain: int = 0  # bytes of those deltas


def archive_pool(path: str | Path, pool: ObjectPool | None) -> ObjectPool:
    """`pool`, or a fresh pool of the objects directory beside manifest `path`."""
    return pool if pool is not None else ObjectPool(Path(path).parent / OBJECTS_DIR)


# header field -> its type, or the pattern its string matches, in every
# code manifest and in every delta; a manifest that fails one is not read
CODE_FIELDS = {"version_id": str, "grammar": str, "file_count": int, "packs": list}
DELTA_FIELDS = {"base": _PLAIN_NAME, "base_digest": _DIGEST}


def check_header(header: dict, fields: dict, path: Path, magic: str) -> None:
    """An ArchiveFormatError unless each field of `fields` is in `header`
    and of its type, or a string its pattern matches whole."""
    for name, kind in fields.items():
        value = header.get(name)
        if isinstance(kind, type) and type(value) is kind:  # not a bool for an int
            continue
        if not isinstance(kind, type) and type(value) is str and kind.fullmatch(value):
            continue
        label = magic.removeprefix("bugloc-").replace("-", " ")
        raise ArchiveFormatError(f"unusable {label} archive {path}: its header has no {name!r} of its type")


def read_header(path: Path, magic: str, fmt: int, fields: dict) -> tuple[dict, io.StringIO, bytes]:
    """The header line of the manifest at `path`, the rest of its text, to
    be read as a text-mode read splits lines, and its bytes. An
    ArchiveFormatError unless the file is UTF-8 and its header a JSON object
    that names `magic` and `fmt` and has `fields` (see `check_header`)."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        raise ArchiveFormatError(f"unreadable manifest {path}: {exc}") from None
    try:
        header = json.loads(text.readline())
    except (ValueError, RecursionError):
        raise ArchiveFormatError(f"no archive header in {path}") from None
    if not isinstance(header, dict) or header.get("magic") != magic:
        raise ArchiveFormatError(f"bad magic header in {path}")
    if header.get("format") != fmt:
        raise ArchiveFormatError(f"unsupported archive format {header.get('format')!r} in {path}")
    check_header(header, fields, path, magic)
    return header, text, data


def _manifest_bytes(header: dict, entries: list) -> bytes:
    # json.dumps(entry) of a list of strings, without its per-call set-up
    lines = [json.dumps(header, sort_keys=True)] + [
        "[" + ", ".join(map(encode_basestring_ascii, entry)) + "]" for entry in entries
    ]
    return ("\n".join(lines) + "\n").encode()


def _full_size(header: dict, entries: list) -> int:
    """The bytes `_manifest_bytes` gives, without encoding the entries:
    exact unless a string needs escaping. Each line of k strings adds two
    brackets, 2k quotes, k - 1 separators of two bytes and a newline."""
    strings = len(entries) and len(entries) * len(entries[0])
    text = sum(map(len, chain.from_iterable(entries)))
    return len(json.dumps(header, sort_keys=True)) + 1 + text + 4 * strings + len(entries)


def write_manifest(
    path: str | Path,
    header: dict,
    entries: list,
    pool: ObjectPool,
    keys: list[str],
    base: Manifest | None = None,
    delta: list | None = None,
) -> None:
    """The objects put into `pool` as a new pack, then the manifest: the
    header with the packs that hold the objects `keys` names, and one JSON
    list of strings per entry. The pool keeps the manifest.

    Given `base`, another manifest in the same directory, and `delta`, the
    lines that turn its entries into `entries`, the manifest is a delta
    instead: its header also names base's file and digest. It stays full
    when base ends a chain of MAX_DELTA_DEPTH deltas, or when the deltas of
    the chain would hold more bytes than the full manifest.
    """
    path = Path(path)
    header = dict(header, packs=pool.pack(keys))
    manifest = Manifest(path, "", entries)
    beside = delta is not None and base.path != path and base.path.parent == path.parent
    if beside and base.depth < MAX_DELTA_DEPTH:
        data = _manifest_bytes(dict(header, base=base.path.name, base_digest=base.digest), delta)
        if base.chain + len(data) <= _full_size(header, entries):
            manifest = Manifest(path, "", entries, base.depth + 1, base.chain + len(data))
    if not manifest.depth:
        data = _manifest_bytes(header, entries)
    manifest.digest = hashlib.sha256(data).hexdigest()
    atomic_write_bytes(path, data)
    pool.manifests[path] = manifest


def _read_file(path: Path) -> tuple[dict, list, bytes]:
    """The header and entries of one code manifest file, and its bytes:
    entries of three strings, as many as its file count, in a full
    manifest; of one or three strings in a delta."""
    header, handle, data = read_header(path, ARCHIVE_MAGIC, ARCHIVE_FORMAT, CODE_FIELDS)
    delta = "base" in header
    if delta:
        check_header(header, DELTA_FIELDS, path, ARCHIVE_MAGIC)
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
    shaped = set(map(type, entries)) <= {list} and set(map(len, entries)) <= ({1, 3} if delta else {3})
    if not (shaped and set(map(type, chain.from_iterable(entries))) <= {str}):
        raise ArchiveFormatError(f"malformed entry in {path}: not a list of 3 strings")
    if not delta and len(entries) != header["file_count"]:
        raise ArchiveFormatError(f"{path} holds {len(entries)} entries, its header says {header['file_count']!r}")
    return header, entries, data


def _resolve_manifest(
    path: Path, digest: str | None, pool: ObjectPool, seen: tuple = ()
) -> tuple[dict | None, Manifest]:
    """The header and the code manifest at `path`, its delta resolved onto
    its base. Given the `digest` its bytes must have, the manifest the pool
    keeps at `path` under that digest, with no header; else the file, read.

    `seen` are the paths of the deltas above, of which it is a base. Raises
    ArchiveFormatError for a base that is missing, rewritten, a base of
    itself, or below MAX_DELTA_DEPTH deltas.
    """
    known = pool.manifests.get(path)
    if digest is not None and known is not None and known.digest == digest:
        return None, known
    if path in seen:
        raise ArchiveFormatError(f"{path} is a base of itself")
    if len(seen) > MAX_DELTA_DEPTH:
        raise ArchiveFormatError(f"{seen[0]} ends a chain of more than {MAX_DELTA_DEPTH} deltas")
    try:
        header, entries, data = _read_file(path)
    except FileNotFoundError:
        if digest is None:
            raise
        raise ArchiveFormatError(f"{path}, which a delta is made on, is missing") from None
    got = hashlib.sha256(data).hexdigest()
    if digest is not None and got != digest:
        raise ArchiveFormatError(f"{path} was rewritten since a delta was made on it")
    manifest = Manifest(path, got, entries)
    if "base" in header:
        base_path, base_digest = path.parent / header.pop("base"), header.pop("base_digest")
        _, base = _resolve_manifest(base_path, base_digest, pool, (*seen, path))
        if base.depth >= MAX_DELTA_DEPTH:
            raise ArchiveFormatError(f"{path} ends a chain of more than {MAX_DELTA_DEPTH} deltas")
        resolved = _apply_code_delta(base, entries, path)
        if len(resolved) != header["file_count"]:
            raise ArchiveFormatError(
                f"{path} resolves to {len(resolved)} entries, its header says {header['file_count']!r}"
            )
        manifest = Manifest(path, got, resolved, base.depth + 1, base.chain + len(data))
    pool.manifests[path] = manifest
    return header, manifest


def read_manifest(path: str | Path, pool: ObjectPool) -> tuple[dict, list]:
    """The header of a code manifest and its entries, each a list of three
    strings, as the full manifest of its version holds them: a delta is
    resolved onto its base, and the header has no base fields. The packs
    the header names are read into `pool`, which keeps the manifest.

    A delta's base is the manifest the pool keeps at the base's path under
    the digest the delta records, else that file, read and resolved in turn.

    Raises ArchiveFormatError unless the header passes `read_header` (and
    the checks of DELTA_FIELDS, in a delta), every entry decodes and has its
    shape, and there are header["file_count"] entries: an old, foreign,
    corrupt or truncated manifest is never trusted, nor a delta on a base
    that is missing, rewritten, a base of itself or below MAX_DELTA_DEPTH
    deltas.
    """
    header, manifest = _resolve_manifest(Path(path), None, pool)
    pool.read(header["packs"])
    return header, manifest.entries


def _apply_code_delta(base: Manifest, lines: list, path: Path):
    """The entries of code delta `lines` on `base`: a [path, record key,
    file digest] line adds or replaces its path, a [path] line deletes it."""
    paths = [line[0] for line in lines]
    if not all(map(str.__lt__, paths, paths[1:])):
        raise ArchiveFormatError(f"{path} lists a path out of order or twice")
    touched = set(paths)
    entries = [entry for entry in base.entries if entry[0] not in touched]
    if not {line[0] for line in lines if len(line) == 1} <= {entry[0] for entry in base.entries}:
        raise ArchiveFormatError(f"{path} deletes a path its base does not hold")
    entries += [line for line in lines if len(line) > 1]
    entries.sort(key=itemgetter(0))  # two ascending runs: one merge
    return entries


def _code_delta(old: list, new: list) -> list:
    """The lines that turn code manifest entries `old` into `new`: each
    entry of `new` that `old` does not hold, and [path] for each path of
    `old` that `new` does not, in path order."""
    gone = {entry[0]: entry for entry in old}
    lines = [entry for entry in new if gone.pop(entry[0], None) != entry]
    return sorted(lines + [[path] for path in gone], key=itemgetter(0))


def save_code_index(
    index: CodeIndex, path: str | Path, pool: ObjectPool | None = None, base: str | Path | None = None
) -> None:
    """Write the records not stored yet as a pack, then the manifest: a
    header (magic, format, version, grammar, file count, packs) and one
    `[fq_path, record key, sha256 of the file's bytes]` line per file in
    path order.

    Given `base`, the path of a manifest the pool read or wrote, say that
    of the version `index` was updated from, the manifest is a delta on it
    (see `write_manifest`): a line as above for each path added or changed,
    and a `[fq_path]` line for each path deleted, in path order.
    """
    pool = archive_pool(path, pool)
    header = {
        "magic": ARCHIVE_MAGIC,
        "format": ARCHIVE_FORMAT,
        "version_id": index.version_id,
        "grammar": index.grammar,
        "file_count": len(index.files),
    }
    entries = [[p, store_record(pool, index.files[p]), index.digests[p]] for p in index.sorted_paths()]
    known = pool.manifests.get(Path(base)) if base is not None else None
    delta = _code_delta(known.entries, entries) if known is not None else None
    write_manifest(path, header, entries, pool, [key for _, key, _ in entries], known, delta)


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
    """The index a manifest lists, full or a delta resolved through `pool`
    (see `read_manifest`), its records read through `pool`. A delta on a
    manifest the pool keeps shares that manifest's entries, so the files it
    leaves unchanged share their digest strings with the base's index.
    Paths that do not ascend strictly (a path repeated, say) are an
    ArchiveFormatError."""
    pool = archive_pool(path, pool)
    header, entries = read_manifest(path, pool)
    paths = [entry[0] for entry in entries]
    if not all(map(str.__lt__, paths, paths[1:])):
        following = next(b for a, b in zip(paths, paths[1:]) if a >= b)
        raise ArchiveFormatError(f"{path} lists {following!r} out of order or twice")
    files = {fq_path: load_record(pool, fq_path, key) for fq_path, key, _ in entries}
    digests = {fq_path: d for fq_path, _, d in entries}
    return CodeIndex(header["version_id"], files, header["grammar"], digests)
