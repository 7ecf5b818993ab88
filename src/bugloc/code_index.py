"""Versioned model of a source repository: files, method signatures, bodies.

A CodeIndex is built from a directory snapshot, updated incrementally with a
Changeset, and persisted as a single versioned archive. Indexes are value
objects: updates return a new index and reuse records for untouched files.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from .ioutil import atomic_write_text
from .java_parser import Grammar, get_grammar

logger = logging.getLogger(__name__)

ARCHIVE_MAGIC = "bugloc-code-index"
ARCHIVE_FORMAT = 1


class ConfigurationError(ValueError):
    """Fatal setup problem (missing repository root, unsupported grammar...)."""


class ArchiveFormatError(ValueError):
    """Persisted archive is not one whole archive of the expected magic and
    format: another format version, a foreign or corrupt file, a cut-off body."""


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


def build_index(repo_root: str | Path, grammar: str = "java", version_id: str = "") -> CodeIndex:
    """Parse every file matching the grammar's extensions under repo_root.

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

    files: dict[str, SourceFileRecord] = {}
    paths = sorted(
        p for p in root.rglob("*") if p.is_file() and p.suffix in gram.extensions
    )
    for path in paths:
        fq_path = path.relative_to(root).as_posix()
        files[fq_path] = _parse_file(path, fq_path, gram)
    return CodeIndex(version_id, files, _build_locator(files), grammar)


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
        out: dict[str, str] = {}
        for path in sorted(p for p in root.rglob("*") if p.is_file() and p.suffix in extensions):
            rel = path.relative_to(root).as_posix()
            out[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
        return out

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


def save_code_index(index: CodeIndex, path: str | Path) -> None:
    """Archive: one header line (magic, format, manifest), then one JSON record per file."""
    lines = [
        json.dumps(
            {
                "magic": ARCHIVE_MAGIC,
                "format": ARCHIVE_FORMAT,
                "version_id": index.version_id,
                "grammar": index.grammar,
                "file_count": len(index.files),
            },
            sort_keys=True,
        )
    ]
    for fq_path in index.sorted_paths():
        record = index.files[fq_path]
        lines.append(
            json.dumps(
                {
                    "fq_path": record.fq_path,
                    "basename": record.basename,
                    "parse_ok": record.parse_ok,
                    "methods": [
                        {
                            "name": m.name,
                            "signature": m.signature,
                            "body": m.body,
                            "abstract": m.abstract,
                        }
                        for m in record.methods
                    ],
                },
                sort_keys=True,
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_archive(path: str | Path, magic: str, fmt: int, count_key: str, parse) -> tuple[dict, list]:
    """The header of a JSON-lines archive and `parse` of each body record.

    Raises ArchiveFormatError unless the header names `magic` and `fmt`, every
    body line decodes and parses, and there are header[count_key] of them, so
    an old, foreign, corrupt or truncated archive is never trusted.
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
            records = [parse(json.loads(line)) for line in handle if line.strip()]
        except (KeyError, TypeError, ValueError) as exc:
            raise ArchiveFormatError(f"unreadable record in {path}: {exc!r}") from None
    if len(records) != header.get(count_key):
        raise ArchiveFormatError(
            f"{path} holds {len(records)} records, its header says {header.get(count_key)!r}"
        )
    return header, records


def _parse_file_record(raw: dict) -> SourceFileRecord:
    return SourceFileRecord(
        fq_path=raw["fq_path"],
        basename=raw["basename"],
        methods=tuple(
            MethodRecord(m["name"], m["signature"], m["body"], m["abstract"])
            for m in raw["methods"]
        ),
        parse_ok=raw["parse_ok"],
    )


def load_code_index(path: str | Path) -> CodeIndex:
    header, records = read_archive(
        path, ARCHIVE_MAGIC, ARCHIVE_FORMAT, "file_count", _parse_file_record
    )
    files = {record.fq_path: record for record in records}
    return CodeIndex(header["version_id"], files, _build_locator(files), header.get("grammar"))
