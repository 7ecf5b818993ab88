import builtins
import hashlib
import io
import json
import os
import random
import stat
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from bugloc import code_index
from bugloc.code_index import (
    ArchiveFormatError,
    Changeset,
    CodeIndex,
    ConfigurationError,
    MethodRecord,
    ObjectPool,
    SourceFileRecord,
    build_index,
    diff_source_trees,
    file_representation,
    load_code_index,
    load_record,
    save_code_index,
    source_paths,
    store_record,
    update_index,
    write_manifest,
)
from bugloc.java_parser import get_grammar
from conftest import java_class, write_tree
from oracles import locator_oracle


def test_empty_directory_gives_empty_index(tmp_path):
    index = build_index(tmp_path, "java", "v0")
    assert index.files == {}
    assert index.method_locator == {}


def test_missing_root_is_fatal(tmp_path):
    with pytest.raises(ConfigurationError):
        build_index(tmp_path / "nope", "java", "v0")


def test_single_fixture_file(tmp_path):
    write_tree(tmp_path, {"A.java": "int add(int a,int b){return a+b;}"})
    index = build_index(tmp_path, "java", "v0")
    assert list(index.files) == ["A.java"]
    record = index.files["A.java"]
    assert record.parse_ok
    assert [m.signature for m in record.methods] == ["add(int,int)"]
    assert index.method_locator == {"add": ("A.java",)}


def test_broken_file_recorded_not_skipped(tmp_path):
    write_tree(tmp_path, {"Bad.java": "class Bad { int foo( {"})
    index = build_index(tmp_path, "java", "v0")
    record = index.files["Bad.java"]
    assert not record.parse_ok
    assert record.methods == ()


def test_non_grammar_files_ignored(tmp_path):
    write_tree(tmp_path, {"A.java": "class A { }", "notes.txt": "hi", "b.py": "pass"})
    index = build_index(tmp_path, "java", "v0")
    assert list(index.files) == ["A.java"]


def test_basename_and_fq_path(tmp_path):
    write_tree(tmp_path, {"org/x/Thing.java": java_class("Thing", {"go": "a();"})})
    index = build_index(tmp_path, "java", "v0")
    record = index.files["org/x/Thing.java"]
    assert record.basename == "Thing.java"


def test_determinism(tmp_path):
    files = {
        f"pkg/C{i}.java": java_class(f"C{i}", {f"m{i}": "x();", "shared": "y();"})
        for i in range(8)
    }
    write_tree(tmp_path, files)
    first = build_index(tmp_path, "java", "v0")
    second = build_index(tmp_path, "java", "v0")
    assert first == second


def test_locator_completeness(tmp_path):
    files = {
        "a/A.java": java_class("A", {"common": "x();", "onlyA": "y();"}),
        "b/B.java": java_class("B", {"common": "x();"}),
    }
    write_tree(tmp_path, files)
    index = build_index(tmp_path, "java", "v0")
    for record in index.files.values():
        for method in record.methods:
            assert record.fq_path in index.method_locator[method.name]
    assert index.method_locator["common"] == ("a/A.java", "b/B.java")


def test_file_representation_contract(tmp_path):
    write_tree(
        tmp_path,
        {"p/F.java": "class F { void a() {one();} void b() {two();} }", "p/E.java": "class E { }"},
    )
    index = build_index(tmp_path, "java", "v0")
    rep = file_representation(index.files["p/F.java"])
    assert rep == "p/F.java\nvoid a() {one();}\nvoid b() {two();}"
    assert file_representation(index.files["p/E.java"]) == "p/E.java"


def test_representation_of_renamed_copy_differs_only_in_path(tmp_path):
    body = java_class("Same", {"go": "a();"})
    write_tree(tmp_path, {"x/Same.java": body, "y/Same.java": body})
    index = build_index(tmp_path, "java", "v0")
    rep_x = file_representation(index.files["x/Same.java"])
    rep_y = file_representation(index.files["y/Same.java"])
    assert rep_x.splitlines()[1:] == rep_y.splitlines()[1:]
    assert rep_x.splitlines()[0] != rep_y.splitlines()[0]


def test_update_empty_changeset_is_noop_except_version(tmp_path):
    write_tree(tmp_path, {"A.java": java_class("A", {"m": "x();"})})
    index = build_index(tmp_path, "java", "v0")
    updated = update_index(index, Changeset(), tmp_path, "v1")
    assert updated.version_id == "v1"
    assert updated.files == index.files
    assert updated.method_locator == index.method_locator


def test_update_delete_removes_file_and_locator_entries(tmp_path):
    write_tree(
        tmp_path,
        {"A.java": java_class("A", {"gone": "x();"}), "B.java": java_class("B", {"kept": "y();"})},
    )
    index = build_index(tmp_path, "java", "v0")
    (tmp_path / "A.java").unlink()
    updated = update_index(index, Changeset(deleted=("A.java",)), tmp_path, "v1")
    assert "A.java" not in updated.files
    assert "gone" not in updated.method_locator


def test_update_missing_path_on_disk_continues(tmp_path):
    write_tree(tmp_path, {"A.java": java_class("A", {"m": "x();"})})
    index = build_index(tmp_path, "java", "v0")
    updated = update_index(index, Changeset(added=("Ghost.java",)), tmp_path, "v1")
    assert "Ghost.java" not in updated.files
    assert updated.files.keys() == index.files.keys()


def test_changeset_validation_rejects_duplicates():
    with pytest.raises(ValueError):
        Changeset(added=("A.java",), deleted=("A.java",)).validate()


def _random_mutation(rng, root, paths):
    """Mutate the tree in place and return the corresponding changeset."""
    added, modified, deleted, renamed = [], [], [], []
    for _ in range(rng.randint(1, 6)):
        op = rng.choice(("add", "modify", "delete", "rename"))
        if op == "add":
            name = f"gen/N{rng.randrange(10**6)}.java"
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(
                java_class(f"N{len(paths)}", {f"m{rng.randrange(100)}": "z();"}), encoding="utf-8"
            )
            paths.add(name)
            added.append(name)
        elif op == "modify" and paths:
            name = rng.choice(sorted(paths))
            if name in added or name in [n for _, n in renamed] or name in modified:
                continue
            (root / name).write_text(
                java_class("Mod", {f"changed{rng.randrange(100)}": "w();"}), encoding="utf-8"
            )
            modified.append(name)
        elif op == "delete" and paths:
            name = rng.choice(sorted(paths))
            if name in added or name in modified or name in [n for _, n in renamed]:
                continue
            (root / name).unlink()
            paths.discard(name)
            deleted.append(name)
        elif op == "rename" and paths:
            name = rng.choice(sorted(paths))
            if name in added or name in modified or name in deleted:
                continue
            new_name = f"moved/R{rng.randrange(10**6)}.java"
            (root / new_name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).rename(root / new_name)
            paths.discard(name)
            paths.add(new_name)
            renamed.append((name, new_name))
    return Changeset(
        added=tuple(added), modified=tuple(modified), deleted=tuple(deleted), renamed=tuple(renamed)
    )


def test_random_changesets_match_full_rebuild(tmp_path):
    rng = random.Random(42)
    root = tmp_path / "repo"
    files = {
        f"pkg{i % 3}/F{i}.java": java_class(f"F{i}", {f"m{i}": "a();", "shared": "b();"})
        for i in range(12)
    }
    write_tree(root, files)
    paths = set(files)
    index = build_index(root, "java", "v0")
    for step in range(15):
        changeset = _random_mutation(rng, root, paths)
        version = f"v{step + 1}"
        index = update_index(index, changeset, root, version)
        rebuilt = build_index(root, "java", version)
        assert index == rebuilt


NAMES = ("close", "get", "open", "run", "set", "size")


def random_record(rng, path: str, names=NAMES) -> SourceFileRecord:
    """A record of up to five methods drawn from `names`, so some are
    overloads; one in six fails to parse and has no methods."""
    if rng.randrange(6) == 0:
        return SourceFileRecord(path, (), parse_ok=False)
    picked = [rng.choice(names) for _ in range(rng.randint(0, 5))]
    methods = tuple(MethodRecord(n, f"{n}(int{i})", f"void {n}(int{i} a) {{}}") for i, n in enumerate(picked))
    return SourceFileRecord(path, methods, parse_ok=True)


def random_files(rng, n: int, prefix: str) -> dict[str, SourceFileRecord]:
    paths = [f"{prefix}{i % 3}/F{i}.java" for i in range(n)]
    return {path: random_record(rng, path) for path in paths}


def changed_files(rng, files: dict, step: int) -> dict[str, SourceFileRecord]:
    """`files` after a few random changes: adds, edits, deletes, renames,
    a name taken out of every file, and names that sort first and last."""
    files = dict(files)
    for _ in range(rng.randint(1, 4)):
        op = rng.choice(("add", "edit", "delete", "rename", "drop a name", "first and last"))
        paths = sorted(files)
        if op == "add" or not paths:
            path = f"new/N{step}x{rng.randrange(10**6)}.java"
            files[path] = random_record(rng, path)
        elif op == "edit":
            path = rng.choice(paths)
            files[path] = random_record(rng, path)
        elif op == "delete":
            del files[rng.choice(paths)]
        elif op == "rename":
            record = files.pop(rng.choice(paths))
            path = f"moved/R{step}x{rng.randrange(10**6)}.java"
            files[path] = replace(record, fq_path=path)
        elif op == "drop a name":
            name = rng.choice(NAMES)
            for path, record in files.items():
                if any(m.name == name for m in record.methods):
                    methods = tuple(m for m in record.methods if m.name != name)
                    files[path] = replace(record, methods=methods)
        else:
            path = rng.choice(paths)
            files[path] = random_record(rng, path, names=(f"Aaa{step}", f"zzz{step}", "get"))
    return files


@pytest.mark.parametrize("seed", range(8))
def test_the_locator_equals_a_build_from_nothing(seed):
    rng = random.Random(seed)
    files = random_files(rng, rng.randint(0, 14), "pkg")
    for step in range(1, 25):
        locator = CodeIndex(f"v{step}", files).method_locator
        assert list(locator.items()) == list(locator_oracle(files).items())
        files = changed_files(rng, files, step)


def test_a_version_reads_no_methods_until_its_locator_or_name_table_is_read(tmp_path, monkeypatch):
    read = Counter()

    class Counted(SourceFileRecord):
        def __getattribute__(self, name):
            if name == "methods":
                read[object.__getattribute__(self, "fq_path")] += 1
            return object.__getattribute__(self, name)

    parse, decode = code_index._parse_file, code_index._decode_record
    monkeypatch.setattr(code_index, "_parse_file", lambda *args: Counted(**vars(parse(*args))))
    monkeypatch.setattr(code_index, "_decode_record", lambda data: Counted(**vars(decode(data))))
    root = tmp_path / "repo"
    write_tree(root, {f"org/F{i}.java": java_class(f"F{i}", {f"m{i}": "a();", "shared": "b();"}) for i in range(12)})
    v0 = build_index(root, "java", "v0")
    write_tree(root, {"org/F3.java": java_class("F3", {"edited": "c();"}), "org/New.java": java_class("New", {})})
    (root / "org/F7.java").unlink()
    v1 = update_index(v0, diff_source_trees(v0, root), root, "v1")
    assert not read
    pool = ObjectPool(tmp_path / "objects")
    for version in (v0, v1):
        save_code_index(version, tmp_path / f"{version.version_id}.jsonl", pool=pool)
    pool = ObjectPool(tmp_path / "objects")
    read.clear()  # the saves encoded every record
    loaded0 = load_code_index(tmp_path / "v0.jsonl", pool=pool)
    loaded1 = load_code_index(tmp_path / "v1.jsonl", pool=pool)
    assert not read

    tables = ("method_locator", "name_table")
    for version, first in ((v0, 0), (v1, 1), (loaded0, 1), (loaded1, 0)):
        read.clear()
        getattr(version, tables[first])
        assert read == Counter(dict.fromkeys(version.files, 1))  # each record once, shared or not
        read.clear()
        getattr(version, tables[1 - first])
        assert not read
        assert list(version.method_locator.items()) == list(locator_oracle(version.files).items())


def test_diff_source_trees_detects_all_kinds(tmp_path):
    old = write_tree(
        tmp_path / "old",
        {
            "keep/Same.java": "class Same { }",
            "mod/Changed.java": "class Changed { void a() { x(); } }",
            "gone/Dead.java": "class Dead { }",
            "move/Src.java": "class Src { void unique9() { q(); } }",
        },
    )
    new = write_tree(
        tmp_path / "new",
        {
            "keep/Same.java": "class Same { }",
            "mod/Changed.java": "class Changed { void a() { y(); } }",
            "fresh/NewFile.java": "class NewFile { }",
            "moved/Dst.java": "class Src { void unique9() { q(); } }",
        },
    )
    changeset = diff_source_trees(old, new)
    assert changeset.added == ("fresh/NewFile.java",)
    assert changeset.modified == ("mod/Changed.java",)
    assert changeset.deleted == ("gone/Dead.java",)
    assert changeset.renamed == (("move/Src.java", "moved/Dst.java"),)
    assert diff_source_trees(build_index(old, "java", "old"), new) == changeset


@pytest.mark.parametrize("old_as", ["directory", "index"])
def test_diff_source_trees_carries_the_bytes_of_the_new_files_it_finds_changed_and_no_other(tmp_path, old_as):
    old = write_tree(tmp_path / "old", {"Same.java": "class Same { }", "Changed.java": "class C { a(); }"})
    new = write_tree(
        tmp_path / "new",
        {"Same.java": "class Same { }", "Changed.java": "class C { b(); }", "Fresh.java": "class F { }"},
    )
    before = {rel: os.stat(new / rel) for rel in ("Changed.java", "Fresh.java")}
    changeset = diff_source_trees(old if old_as == "directory" else build_index(old, "java", "old"), new)
    assert changeset == Changeset(added=("Fresh.java",), modified=("Changed.java",))
    assert "contents" not in repr(changeset)
    assert changeset.contents == {
        rel: (code_index._stat_key(st), (new / rel).read_bytes()) for rel, st in before.items()
    }
    index = update_index(build_index(old, "java", "old"), changeset, tmp_path / "elsewhere", "new")
    assert index == build_index(new, "java", "new")  # parsed from the bytes carried, not read again


def test_source_paths_walk_finds_what_rglob_finds_in_path_order(tmp_path):
    names = [
        "a.java", "a-b/x.java", "a/x.java", "a/b/c.java", "A.java", "aa/x.java", ".java", "..java",
        "d..java", "c.", "e.java.bak", "z.JAVA", ".hidden/y.java", "dir.java/inner.java", "a/b.jav",
    ]
    write_tree(tmp_path, {name: "class X { }" for name in names})
    os.symlink(tmp_path / "a", tmp_path / "link")  # a symlinked directory is not entered
    os.symlink(tmp_path / "a.java", tmp_path / "alias.java")  # a symlinked file counts
    os.symlink(tmp_path / "missing.java", tmp_path / "broken.java")  # a broken link is no file
    found = source_paths(tmp_path, (".java",))
    assert found == [
        "..java", ".hidden/y.java", "A.java", "a/b/c.java", "a/x.java", "a-b/x.java", "a.java",
        "aa/x.java", "alias.java", "d..java", "dir.java/inner.java",
    ]
    paths = sorted(p for p in tmp_path.rglob("*") if p.is_file() and p.suffix == ".java")
    assert found == [p.relative_to(tmp_path).as_posix() for p in paths]
    assert source_paths(tmp_path / "missing", (".java",)) == []


def test_records_and_digests_of_files_with_odd_bytes(tmp_path):
    raw = {
        "Crlf.java": b"class Crlf {\r\n  void a() {\r\n    x();\r\n  }\r\n}\r\n",
        "LoneCr.java": b"class LoneCr {\r  void b() { y(); }\r\r}\r",
        "Invalid.java": b"class Invalid { void c() { z(\"\xff\xfe\xc3\"); } }\n\xe2\x82",
        "Bom.java": b"\xef\xbb\xbfclass Bom { void d() { w(); } }\r\n",
    }
    for name, data in raw.items():
        (tmp_path / name).write_bytes(data)
    index = build_index(tmp_path, "java", "v0")
    grammar = get_grammar("java")

    def fields(methods):
        return [(m.name, m.signature, m.body) for m in methods]

    for name, data in raw.items():
        text = (tmp_path / name).read_text(encoding="utf-8", errors="replace")
        expected = fields(grammar.parse(text).methods)
        assert expected and fields(index.files[name].methods) == expected
        assert index.digests[name] == hashlib.sha256(data).hexdigest()
    assert "\r" not in "".join(m.body for r in index.files.values() for m in r.methods)


def test_an_unreadable_file_is_logged_and_skipped(tmp_path, monkeypatch, caplog):
    write_tree(tmp_path, {"A.java": java_class("A", {"m": "x();"}), "Locked.java": "class Locked { }"})
    read_bytes = Path.read_bytes

    def locked(path):
        if path.name == "Locked.java":
            raise PermissionError(13, "Permission denied", str(path))
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", locked)
    with caplog.at_level("ERROR", logger="bugloc.code_index"):
        index = build_index(tmp_path, "java", "v0")
    assert list(index.files) == list(index.digests) == ["A.java"]
    assert "unreadable, skipped: Locked.java" in caplog.text


# --- stat keys: what a key must catch ----------------------------------------

TICK = 0.02  # past the coarse clock tick of the kernel's file timestamps


def two_classes(root):
    return write_tree(root, {"org/A.java": java_class("A", {"m": "x();"}), "org/B.java": java_class("B", {"n": "y();"})})


def update_in_place(v0, root):
    """The diff of the tree at `root` against `v0` and the index it updates
    to, checked against a diff that hashes every file and a build from
    scratch."""
    changeset = diff_source_trees(v0, root)
    assert changeset == diff_source_trees(replace(v0, stat_keys={}), root)
    v1 = update_index(v0, changeset, root, "v1")
    assert v1 == build_index(root, "java", "v1")
    return changeset, v1


def keyed_index(root, monkeypatch):
    """The index of `root` with a stat key for every file: the racy window
    is 0, and the clock moves on before the caller edits a file."""
    monkeypatch.setattr(code_index, "RACY_WINDOW_NS", 0)
    v0 = build_index(root, "java", "v0")
    assert set(v0.stat_keys) == set(v0.files)
    time.sleep(TICK)
    return v0


def rewrite_keeping_size_and_mtime(path, text, how):
    before = path.stat()
    if how == "in place":
        path.write_text(text, encoding="utf-8")
    elif how == "replaced":
        path.with_suffix(".tmp").write_text(text, encoding="utf-8")
        os.replace(path.with_suffix(".tmp"), path)
    else:  # deleted and recreated
        path.unlink()
        path.write_text(text, encoding="utf-8")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_dev, after.st_size, after.st_mtime_ns) == (before.st_dev, before.st_size, before.st_mtime_ns)
    if how == "in place":
        assert after.st_ino == before.st_ino  # so only the ctime tells the edit
    return after


@pytest.mark.parametrize("how", ["in place", "replaced", "deleted and recreated"])
def test_a_stat_key_catches_a_rewrite_of_the_same_size_and_mtime(tmp_path, monkeypatch, how):
    root = two_classes(tmp_path / "repo")
    v0 = keyed_index(root, monkeypatch)
    after = rewrite_keeping_size_and_mtime(root / "org/A.java", java_class("A", {"m": "z();"}), how)
    changeset, v1 = update_in_place(v0, root)
    assert changeset == Changeset(modified=("org/A.java",))
    assert v1.stat_keys["org/A.java"] == code_index._stat_key(after)
    assert v1.stat_keys["org/B.java"] == v0.stat_keys["org/B.java"]


def test_no_stat_key_is_kept_for_a_file_changed_within_the_racy_window(tmp_path):
    root = two_classes(tmp_path / "repo")
    an_hour_ago = time.time_ns() - 3600 * 10**9
    for path in (root / "org/A.java", root / "org/B.java"):
        os.utime(path, ns=(an_hour_ago, an_hour_ago))  # the ctimes stay within the window
    v0 = build_index(root, "java", "v0")
    assert code_index.RACY_WINDOW_NS == 2 * 10**9 and v0.stat_keys == {}
    rewrite_keeping_size_and_mtime(root / "org/A.java", java_class("A", {"m": "z();"}), "in place")
    changeset, v1 = update_in_place(v0, root)
    assert changeset == Changeset(modified=("org/A.java",))
    assert v1.stat_keys == {}


def test_a_file_parsed_again_within_the_racy_window_loses_its_stat_key(tmp_path, monkeypatch):
    root = two_classes(tmp_path / "repo")
    v0 = keyed_index(root, monkeypatch)
    monkeypatch.setattr(code_index, "RACY_WINDOW_NS", 2 * 10**9)
    rewrite_keeping_size_and_mtime(root / "org/A.java", java_class("A", {"m": "z();"}), "in place")
    changeset, v1 = update_in_place(v0, root)
    assert changeset == Changeset(modified=("org/A.java",))
    assert v1.stat_keys == {"org/B.java": v0.stat_keys["org/B.java"]}


def test_a_file_that_turns_unreadable_is_logged_and_left_out(tmp_path, monkeypatch, caplog):
    root = two_classes(tmp_path / "repo")
    v0 = keyed_index(root, monkeypatch)
    os.chmod(root / "org/A.java", 0)
    real_open = io.open

    def open_as_a_user(file, *args, **kwargs):  # the owner's read bit counts, as it does for a user
        if not os.stat(file).st_mode & stat.S_IRUSR:
            raise PermissionError(13, "Permission denied", str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", open_as_a_user)
    monkeypatch.setattr(builtins, "open", open_as_a_user)
    with caplog.at_level("ERROR", logger="bugloc.code_index"):
        changeset, v1 = update_in_place(v0, root)
    assert changeset == Changeset(deleted=("org/A.java",))
    assert list(v1.files) == list(v1.stat_keys) == ["org/B.java"]
    assert "unreadable, left out of the diff: org/A.java" in caplog.text


def test_an_index_drops_the_stat_key_of_each_file_it_drops(tmp_path, monkeypatch):
    root = write_tree(tmp_path / "repo", {f"org/F{i}.java": java_class(f"F{i}", {f"m{i}": "a();"}) for i in range(4)})
    v0 = keyed_index(root, monkeypatch)
    (root / "org/F0.java").unlink()
    os.rename(root / "org/F1.java", root / "org/G1.java")
    write_tree(root, {"org/F2.java": java_class("F2", {"edited": "b();"}), "org/New.java": java_class("New", {})})
    changeset, v1 = update_in_place(v0, root)
    assert changeset == Changeset(
        added=("org/New.java",), modified=("org/F2.java",), deleted=("org/F0.java",),
        renamed=(("org/F1.java", "org/G1.java"),),
    )
    assert list(v1.stat_keys) == list(v1.files)
    assert sorted(v1.files) == ["org/F2.java", "org/F3.java", "org/G1.java", "org/New.java"]
    assert v1.stat_keys["org/F3.java"] == v0.stat_keys["org/F3.java"]
    assert v1.stat_keys["org/G1.java"] != v0.stat_keys["org/F1.java"]  # a rename moves the ctime


def test_stat_keys_are_neither_compared_nor_archived(tmp_path, monkeypatch):
    root = two_classes(tmp_path / "repo")
    v0 = keyed_index(root, monkeypatch)
    assert v0 == replace(v0, stat_keys={}) and "stat_keys" not in repr(v0)
    save_code_index(v0, tmp_path / "v0.jsonl")
    assert load_code_index(tmp_path / "v0.jsonl").stat_keys == {}


def test_archive_roundtrip(tmp_path):
    write_tree(
        tmp_path / "repo",
        {"a/A.java": java_class("A", {"m": "x();"}), "b/Bad.java": "class Bad { broken ( {"},
    )
    index = build_index(tmp_path / "repo", "java", "v7")
    archive = tmp_path / "index.jsonl"
    save_code_index(index, archive)
    loaded = load_code_index(archive)
    assert loaded == index


# Quotes, backslashes, every control character, DEL, non-ASCII text from
# the BMP and beyond it, and lone surrogates of both halves.
ODD_CHARACTERS = '"\\/' + "".join(map(chr, range(32))) + "\x7f\x85\u2028é中😀\ud800\udbff\udc00\udfff"


@pytest.mark.parametrize("seed", range(8))
def test_manifest_lines_are_the_json_of_their_entries(tmp_path, seed):
    rng = random.Random(seed)
    alphabet = ODD_CHARACTERS + "abcXYZ09. "
    entries = sorted(
        {"".join(rng.choices(alphabet, k=rng.randrange(1, 12))): [
            "".join(rng.choices(alphabet, k=rng.randrange(0, 12))) for _ in range(2)
        ] for _ in range(60)}.items()
    )
    manifest, pool = tmp_path / "m.jsonl", ObjectPool(tmp_path / "objects")
    for entries in ([[path, *rest] for path, rest in entries], [[path] for path, _ in entries]):
        write_manifest(manifest, {"magic": "test", "format": 1, "file_count": len(entries)}, entries, pool, [])
        lines = manifest.read_text(encoding="utf-8").split("\n")
        assert lines[1:] == [json.dumps(entry) for entry in entries] + [""]


@pytest.mark.parametrize("cut", ["last line", "half of the last line"])
def test_archive_rejects_a_truncated_body(tmp_path, cut):
    write_tree(
        tmp_path / "repo",
        {"a/A.java": java_class("A", {"m": "x();"}), "b/B.java": java_class("B", {"n": "y();"})},
    )
    archive = tmp_path / "index.jsonl"
    save_code_index(build_index(tmp_path / "repo", "java", "v7"), archive)
    text = archive.read_text(encoding="utf-8")
    body_end = text.rstrip("\n").rfind("\n") + 1
    keep = body_end if cut == "last line" else (body_end + len(text)) // 2
    archive.write_text(text[:keep], encoding="utf-8")
    with pytest.raises(ArchiveFormatError):
        load_code_index(archive)


def two_file_archive(tmp_path):
    write_tree(
        tmp_path / "repo",
        {"org/A.java": java_class("A", {"m": "x();"}), "org/B.java": java_class("B", {"n": "y();"})},
    )
    archive = tmp_path / "index.jsonl"
    save_code_index(build_index(tmp_path / "repo", "java", "v7"), archive)
    return archive


@pytest.mark.parametrize("edit", ["repeated", "unsorted"])
def test_archive_rejects_a_repeated_or_unsorted_path(tmp_path, edit):
    archive = two_file_archive(tmp_path)
    header, a_line, b_line = archive.read_text(encoding="utf-8").splitlines()
    body = [a_line, a_line] if edit == "repeated" else [b_line, a_line]
    archive.write_text("\n".join([header, *body]) + "\n", encoding="utf-8")
    with pytest.raises(ArchiveFormatError, match="out of order or twice"):
        load_code_index(archive)


@pytest.mark.parametrize(
    "edit",
    [
        "two entries on one line",
        "an entry split over two lines",
        "a trailing comma",
        "an entry split over two lines, the next on its second",
    ],
)
def test_archive_rejects_a_line_that_is_not_one_entry(tmp_path, edit):
    archive = two_file_archive(tmp_path)
    header, a_line, b_line = archive.read_text(encoding="utf-8").splitlines()
    a_split = a_line.replace(", ", "\n", 1)  # ["org/A.java"  then  "key", "digest"]
    body = {
        "two entries on one line": [f"{a_line}, {b_line}"],
        "an entry split over two lines": [a_split, b_line],
        "a trailing comma": [a_line, b_line + ","],
        "an entry split over two lines, the next on its second": [f"{a_split}, {b_line}"],
    }[edit]
    archive.write_text("\n".join([header, *body]) + "\n", encoding="utf-8")
    with pytest.raises(ArchiveFormatError, match="unreadable entry"):
        load_code_index(archive)


@pytest.mark.parametrize(
    "entry", [[], ["org/A.java", "0" * 64], ["org/A.java", "0" * 64, 7], [["org/A.java"], "0" * 64, "1" * 64]]
)
def test_archive_rejects_an_entry_that_is_not_a_list_of_three_strings(tmp_path, entry):
    archive = two_file_archive(tmp_path)
    header, a_line, b_line = archive.read_text(encoding="utf-8").splitlines()
    archive.write_text("\n".join([header, json.dumps(entry), b_line]) + "\n", encoding="utf-8")
    with pytest.raises(ArchiveFormatError, match="malformed entry"):
        load_code_index(archive)


def test_archive_rejects_a_pack_cut_at_any_length_and_unlinks_it(tmp_path):
    archive = two_file_archive(tmp_path)
    (name,) = json.loads(archive.read_text(encoding="utf-8").splitlines()[0])["packs"]
    path = tmp_path / "objects" / name
    whole = path.read_bytes()
    for cut in range(len(whole)):
        path.write_bytes(whole[:cut])
        with pytest.raises(ArchiveFormatError, match=f"pack {name} is damaged"):
            load_code_index(archive)
        assert not path.exists()
    with pytest.raises(ArchiveFormatError, match=f"pack {name} is missing"):
        load_code_index(archive)


def test_archive_rejects_an_object_nested_deeper_than_the_recursion_limit(tmp_path):
    pool = ObjectPool(tmp_path)
    key = pool.put(b"[" * 100_000 + b"]" * 100_000 + b"\n")
    packs = pool.pack([key])
    fresh = ObjectPool(tmp_path)
    fresh.read(packs)
    with pytest.raises(ArchiveFormatError, match=f"object {key} is damaged"):
        load_record(fresh, "A.java", key)
    assert not (tmp_path / packs[0]).exists()


def test_archive_rejects_a_pack_name_that_is_not_a_digest(tmp_path):
    archive = two_file_archive(tmp_path)
    text = archive.read_text(encoding="utf-8")
    (name,) = json.loads(text.splitlines()[0])["packs"]
    archive.write_text(text.replace(name, "../index.jsonl"), encoding="utf-8")
    with pytest.raises(ArchiveFormatError, match="is not a pack name"):
        load_code_index(archive)
    assert archive.exists()


def test_archive_through_one_pool_stores_a_record_once(tmp_path):
    archive = two_file_archive(tmp_path)
    pool = ObjectPool(tmp_path / "objects")
    index = load_code_index(archive, pool=pool)
    write_tree(tmp_path / "repo", {"org/B.java": java_class("B", {"n": "z();"})})
    changed = update_index(index, Changeset(modified=("org/B.java",)), tmp_path / "repo", "v8")
    save_code_index(changed, tmp_path / "v8.jsonl", pool=pool)
    packs = sorted((tmp_path / "objects").iterdir(), key=lambda p: len(p.read_bytes()))
    assert [len(json.loads(p.read_bytes().split(b"\n")[0])) for p in packs] == [1, 2]
    assert load_code_index(tmp_path / "v8.jsonl") == changed


def test_a_pool_stores_again_the_records_of_a_pack_it_dropped(tmp_path):
    archive = two_file_archive(tmp_path)
    header, a_line, b_line = archive.read_text(encoding="utf-8").splitlines()
    (name,) = json.loads(header)["packs"]
    head, body = (tmp_path / "objects" / name).read_bytes().split(b"\n", 1)
    index = json.loads(head)  # [[A's key, length], [B's key, length]]
    a_bytes = body[: index[0][1]]
    bad = json.dumps([index[0], [index[1][0], 2]]).encode() + b"\n" + a_bytes + b"[]"
    bad_name = hashlib.sha256(bad).hexdigest()
    (tmp_path / "objects" / bad_name).write_bytes(bad)
    archive.write_text(
        "\n".join([header.replace(name, bad_name), a_line, b_line]) + "\n", encoding="utf-8"
    )
    pool = ObjectPool(tmp_path / "objects")
    with pytest.raises(ArchiveFormatError, match=f"object {index[1][0]} is damaged"):
        load_code_index(archive, pool=pool)  # A decodes, then B does not
    assert not (tmp_path / "objects" / bad_name).exists()
    a_record = load_record(pool, "org/A.java", index[0][0])  # interned, in no pack now
    a_digest = json.loads(a_line)[2]
    index = CodeIndex("v9", {"org/A.java": a_record}, digests={"org/A.java": a_digest})
    save_code_index(index, tmp_path / "v9.jsonl", pool=pool)
    assert load_code_index(tmp_path / "v9.jsonl").files == {"org/A.java": a_record}


def test_a_pool_keeps_an_object_under_the_name_it_is_given_until_its_pack_is_dropped(tmp_path):
    writer = ObjectPool(tmp_path / "objects")
    name = "f" * 64
    assert writer.put(b"rows", "rows", name) == name
    assert writer.put(b"other rows", "other", name) == name  # a name stored keeps its first bytes and value
    assert writer.stored(name) and writer.get(name, bytes.decode) == "rows"
    assert writer.put(b"rows") == hashlib.sha256(b"rows").hexdigest()  # without a name, its bytes name it
    bad = writer.put(b"damaged")
    (pack,) = writer.pack([name, bad])
    pool = ObjectPool(tmp_path / "objects")
    assert not pool.stored(name)
    pool.read([pack])
    assert pool.stored(name) and pool.get(name, bytes.decode) == "rows"
    with pytest.raises(ArchiveFormatError, match=f"object {bad} is damaged"):
        pool.get(bad, lambda data: json.loads(data))
    assert not pool.stored(name)  # its pack is gone, so a save stores it again
    pool.put(b"rows", name=name)
    packs = pool.pack([name])
    assert packs != [pack]
    reader = ObjectPool(tmp_path / "objects")
    reader.read(packs)
    assert reader.get(name, bytes.decode) == "rows"


ODD_TEXTS = (
    "", "\x00", "a\rb\r\nc\n", "line\u2028para\u2029", "\U0001f600 \U0001d538", "\ud800", "x\udfffy",
    "\ud83d\ude00", "ünïcødé", '"quoted" \\ and \\n',
)


def test_record_objects_give_back_every_string_as_it_was(tmp_path):
    methods = tuple(MethodRecord(f"m{i}{text}", f"m{i}{text}()", text) for i, text in enumerate(ODD_TEXTS))
    records = [
        SourceFileRecord("odd/\ud800Ö.java", methods, parse_ok=True),
        SourceFileRecord("a/Abstract.java", (MethodRecord("run", "run()", ""),), True),
        SourceFileRecord("a/Broken.java", (), parse_ok=False),
        SourceFileRecord("a/Empty.java", (), parse_ok=True),
    ]
    writer = ObjectPool(tmp_path / "objects")
    keys = [store_record(writer, record) for record in records]
    reader = ObjectPool(tmp_path / "objects")
    reader.read(writer.pack(keys))
    for record, key in zip(records, keys):
        loaded = load_record(reader, record.fq_path, key)
        assert loaded == record


@pytest.mark.parametrize(
    "data",
    [
        b'["A.java",true,[["m","m()",3]]]\nabcd',  # a body left over
        b'["A.java",true,[["m","m()",5]]]\nabcd',  # a body cut short
        b'["A.java",true,[["m","m()",-1],["n","n()",5]]]\nabcd',
        b'["A.java",true,[["m","m()",1.0]]]\na',
        b'["A.java",true,[["m","m()",2]]]\n\xff\xfe',  # not UTF-8
        b'["A.java",true,[["m","m()",1]]]\n\xc3',  # UTF-8 cut in a character
        b'["A.java",true,[["m","m()","ab"]]]\n',  # a body in the head
        b'["A.java","A.java",true,[["m","m()",4,false]]]\nabcd',  # format 4: basename, abstract flag
        b'["A.java",true,""]\n',
        b'["A.java",true,["xyz"]]\n',
        b'{"A.java":1,"B":2,"":3}\n',  # a dict unpacks into its keys
        b'{"A.java":1,"B":2,"C":3,"":4}\n',
        b'"xyz"\n',  # a string unpacks into its characters
        b'"wxyz"\n',
        b"[]\n",
        b"",
    ],
)
def test_a_record_object_that_does_not_decode_is_an_archive_format_error(tmp_path, data):
    writer = ObjectPool(tmp_path / "objects")
    key = writer.put(data)
    (name,) = writer.pack([key])
    pool = ObjectPool(tmp_path / "objects")
    pool.read([name])
    with pytest.raises(ArchiveFormatError, match=f"object {key} is damaged"):
        load_record(pool, "A.java", key)
    assert not (tmp_path / "objects" / name).exists()


def test_archive_keeps_the_grammar(tmp_path):
    write_tree(tmp_path / "repo", {"A.java": java_class("A", {"m": "x();"})})
    index = build_index(tmp_path / "repo", "java", "v7")
    assert index.grammar == "java"
    archive = tmp_path / "index.jsonl"
    save_code_index(index, archive)
    assert load_code_index(archive).grammar == "java"


def test_archive_rejects_wrong_magic(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"magic": "something-else", "format": 1}\n', encoding="utf-8")
    with pytest.raises(ArchiveFormatError):
        load_code_index(bad)
    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text("not json at all\n", encoding="utf-8")
    with pytest.raises(ArchiveFormatError):
        load_code_index(garbage)
