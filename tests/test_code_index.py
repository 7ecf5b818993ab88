import hashlib
import json
import random

import pytest

from bugloc.code_index import (
    ArchiveFormatError,
    Changeset,
    CodeIndex,
    ConfigurationError,
    ObjectPool,
    build_index,
    diff_source_trees,
    file_representation,
    load_code_index,
    load_record,
    save_code_index,
    update_index,
)
from conftest import java_class, write_tree


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
    save_code_index(CodeIndex("v9", {"org/A.java": a_record}), tmp_path / "v9.jsonl", pool=pool)
    assert load_code_index(tmp_path / "v9.jsonl").files == {"org/A.java": a_record}


def test_a_pool_forgets_what_was_made_from_an_object_of_a_pack_it_dropped(tmp_path):
    writer = ObjectPool(tmp_path / "objects")
    good = writer.put(b"rows", "rows", source="record")
    assert writer.made_from("record") == (good, "rows")
    bad = writer.put(b"damaged")
    (name,) = writer.pack([good, bad])
    pool = ObjectPool(tmp_path / "objects")
    pool.read([name])
    assert pool.made_from("record") is None
    assert pool.get(good, bytes.decode, source="record") == "rows"
    assert pool.made_from("record") == (good, "rows")
    with pytest.raises(ArchiveFormatError, match=f"object {bad} is damaged"):
        pool.get(bad, lambda data: json.loads(data))
    assert pool.made_from("record") is None  # its pack is gone, so it must be stored again
    assert pool.put(b"rows") == good
    packs = pool.pack([good])
    assert packs != [name]
    reader = ObjectPool(tmp_path / "objects")
    reader.read(packs)
    assert reader.get(good, bytes.decode) == "rows"


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
