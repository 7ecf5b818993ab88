"""Delta manifests: a version built from another is archived as the code
manifest lines that changed, and every load resolves it to what a full
manifest holds. An embedding manifest is one header line, delta or not."""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from bugloc import code_index, embedding, harness
from bugloc.code_index import ArchiveFormatError, ObjectPool, load_code_index, save_code_index
from bugloc.embedders import HashingEmbedder
from bugloc.embedding import load_embedding_index, save_embedding_index
from bugloc.harness import VersionStore
from conftest import java_class, write_tree
from test_harness import (
    assert_old_archives_are_rebuilt, chain_of_versions, count_opens, get_fresh, perfbench_gen, versioned_repo,
)

SEEDS = [1, 3, 7]


def header_of(path):
    return json.loads(Path(path).read_text(encoding="utf-8").split("\n", 1)[0])


def lines_of(path):
    return Path(path).read_text(encoding="utf-8").split("\n", 1)[1]


def write_header(path, header):
    _, rest = Path(path).read_text(encoding="utf-8").split("\n", 1)
    Path(path).write_text(json.dumps(header) + "\n" + rest, encoding="utf-8")


@pytest.fixture(scope="module", params=SEEDS)
def chain(request, tmp_path_factory):
    """A 12-version chain of 60 files, archived version by version in
    `cache`, and each version's indexes loaded back from full manifests."""
    tmp = tmp_path_factory.mktemp(f"chain{request.param}")
    gen = perfbench_gen()
    ds = gen.generate(request.param, 60, 8, 12)
    repo = gen.write_dataset(ds, tmp / "input")["repo"]
    cache, full = tmp / "cache", tmp / "full"
    store = VersionStore(repo, embedding_provider=HashingEmbedder(16), cache_dir=cache)
    expected = {}
    for version in ds.versions:
        code, embed = store.get(version)
        pool = ObjectPool(full / "objects")  # no manifest of another version: a full one
        save_code_index(code, full / f"{version}.code.jsonl", pool=pool)
        save_embedding_index(embed, full / f"{version}.embed.jsonl", code, pool=pool)
        pool = ObjectPool(full / "objects")
        loaded = load_code_index(full / f"{version}.code.jsonl", pool=pool)
        expected[version] = loaded, load_embedding_index(full / f"{version}.embed.jsonl", loaded, pool=pool)
    return repo, cache, ds.versions, expected


def copy_cache(chain, tmp_path):
    _, cache, _, _ = chain
    shutil.copytree(cache, tmp_path / "cache")
    return tmp_path / "cache"


def assert_same_version(got, expected):
    """The same records, digests and key order, chunks, and a bit-equal matrix."""
    (code, embed), (full_code, full_embed) = got, expected
    assert code == full_code
    assert list(code.files) == list(full_code.files) and list(code.digests) == list(full_code.digests)
    assert embed.chunks == full_embed.chunks and embed.file_paths == full_embed.file_paths
    assert embed.vectors.dtype == full_embed.vectors.dtype
    assert embed.vectors.tobytes() == full_embed.vectors.tobytes()


def loading_store(repo, cache, monkeypatch):
    """A fresh store that can only load: a build would fail."""
    monkeypatch.setattr(harness, "build_index", None)
    monkeypatch.setattr(harness, "update_index", None)
    return VersionStore(repo, embedding_provider=HashingEmbedder(16), cache_dir=cache)


def test_a_chain_is_one_full_code_manifest_then_deltas_within_the_depth_and_size_caps(chain):
    _, cache, versions, _ = chain
    depth = chain_bytes = 0
    for version in versions:
        manifest = cache / f"{version}.code.jsonl"
        full = cache.parent / "full" / manifest.name
        base = header_of(manifest).get("base")
        if base is None:
            depth = chain_bytes = 0
            assert lines_of(manifest) == lines_of(full)
            continue
        assert base == f"{versions[versions.index(version) - 1]}.code.jsonl"
        depth, chain_bytes = depth + 1, chain_bytes + manifest.stat().st_size
        # the full manifest it would be: its header with no base, then every line
        header = {k: v for k, v in header_of(manifest).items() if k not in ("base", "base_digest")}
        full_size = len(json.dumps(header, sort_keys=True)) + 1 + len(lines_of(full))
        assert depth <= code_index.MAX_DELTA_DEPTH and chain_bytes <= full_size
    # at 60 files the code deltas run into the depth cap: v9 would be a ninth delta on v0
    bases = [header_of(cache / f"{v}.code.jsonl").get("base") for v in versions]
    assert [b is None for b in bases] == [True] + [False] * 8 + [True, False, False]


def test_every_embedding_manifest_of_a_chain_is_one_header_line_under_1_kb(chain):
    _, cache, versions, _ = chain
    for version in versions:
        data = (cache / f"{version}.embed.jsonl").read_bytes()
        assert data.count(b"\n") == 1 and data.endswith(b"\n") and len(data) < 1024
        assert header_of(cache / f"{version}.embed.jsonl")["format"] == embedding.EMBED_ARCHIVE_FORMAT == 7


@pytest.mark.parametrize("order", ["every version in order", "the last version only"])
def test_a_fresh_store_loads_each_version_of_a_chain_as_its_full_manifest_holds_it(
    chain, tmp_path, monkeypatch, caplog, order
):
    repo, _, versions, expected = chain
    cache = copy_cache(chain, tmp_path)
    store = loading_store(repo, cache, monkeypatch)
    with caplog.at_level("WARNING", logger="bugloc.harness"):
        for version in versions if order == "every version in order" else versions[-1:]:
            assert_same_version(store.get(version), expected[version])
    assert "ignoring" not in caplog.text


def test_a_delta_on_a_manifest_the_store_holds_opens_no_other_manifest(chain, tmp_path, monkeypatch):
    repo, _, versions, _ = chain
    cache = copy_cache(chain, tmp_path)
    store = loading_store(repo, cache, monkeypatch)
    store.get(versions[0])
    opened = count_opens(monkeypatch, cache)
    for version in versions[1:]:
        opened.clear()
        store.get(version)
        manifests = {p.name for p in opened if p.suffix == ".jsonl"}
        assert manifests == {f"{version}.code.jsonl", f"{version}.embed.jsonl"}


def test_a_fresh_store_reads_at_most_two_full_code_manifests_to_load_the_last_version(
    chain, tmp_path, monkeypatch
):
    repo, cache, versions, _ = chain
    store = loading_store(repo, cache, monkeypatch)
    opened = count_opens(monkeypatch, cache)
    store.get(versions[-1])
    manifests = {p.name: p.stat().st_size for p in opened if p.suffix == ".jsonl"}
    full = (cache.parent / "full" / f"{versions[-1]}.code.jsonl").stat().st_size
    # v11 is a delta on v10, on v9, a full code manifest; its embedding manifest is its header
    assert sorted(manifests) == sorted([f"{v}.code.jsonl" for v in versions[-3:]] + [f"{versions[-1]}.embed.jsonl"])
    assert sum(size for name, size in manifests.items() if name.endswith(".code.jsonl")) <= 2 * full


@pytest.mark.parametrize("how", ["deleted", "rewritten"])
def test_a_chain_whose_base_is_deleted_or_rewritten_is_rebuilt_with_a_warning(
    chain, tmp_path, monkeypatch, caplog, how
):
    repo, _, versions, expected = chain
    cache = copy_cache(chain, tmp_path)
    base = cache / f"{versions[5]}.code.jsonl"
    if how == "deleted":
        base.unlink()
    else:
        header = header_of(base)
        write_header(base, dict(header, version_id=header["version_id"] + " "))
    packs = {p.name: p.read_bytes() for p in (cache / "objects").iterdir()}
    store = VersionStore(repo, embedding_provider=HashingEmbedder(16), cache_dir=cache)
    with caplog.at_level("WARNING", logger="bugloc.harness"):
        store.get(versions[7])
    assert f"ignoring the archive of {versions[7]}" in caplog.text
    assert ("is missing" if how == "deleted" else "was rewritten since a delta was made on it") in caplog.text
    assert {p.name: p.read_bytes() for p in (cache / "objects").iterdir() if p.name in packs} == packs
    assert "base" not in header_of(cache / f"{versions[7]}.code.jsonl")  # built from scratch: full
    store.get(versions[8])  # its base rewritten, so built from the one rebuilt, a delta on it
    assert header_of(cache / f"{versions[8]}.code.jsonl")["base"] == f"{versions[7]}.code.jsonl"
    with caplog.at_level("WARNING", logger="bugloc.harness"):
        for version in versions[7:9]:
            assert_same_version(loading_store(repo, cache, monkeypatch).get(version), expected[version])


def test_a_chain_deeper_than_the_depth_cap_is_written_full_and_refused_on_read(tmp_path, monkeypatch, caplog):
    gen = perfbench_gen()
    ds = gen.generate(3, 60, 8, 6)
    repo = gen.write_dataset(ds, tmp_path / "input")["repo"]
    cache = tmp_path / "cache"
    monkeypatch.setattr(code_index, "MAX_DELTA_DEPTH", 2)
    store = VersionStore(repo, embedding_provider=HashingEmbedder(16), cache_dir=cache)
    for version in ds.versions:
        store.get(version)
    fulls = ["base" not in header_of(cache / f"{v}.code.jsonl") for v in ds.versions]
    assert fulls == [True, False, False, True, False, False]
    monkeypatch.setattr(code_index, "MAX_DELTA_DEPTH", 1)
    packs = set((cache / "objects").iterdir())
    with caplog.at_level("WARNING", logger="bugloc.harness"):
        code, _ = VersionStore(repo, embedding_provider=HashingEmbedder(16), cache_dir=cache).get("v2")
    assert "ends a chain of more than 1 deltas" in caplog.text
    assert packs <= set((cache / "objects").iterdir())
    assert code == store.get("v2")[0]


def delta_pair(tmp_path, n_versions=2):
    """A store's archives of v0 (full) and v1 (a delta on it), 20 files,
    then of each later version, a delta on the one before."""
    root, cache = tmp_path / "repo", tmp_path / "cache"
    store = VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache)
    for version in chain_of_versions(root, n_versions, 20):
        store.get(version)
    assert header_of(cache / "v1.code.jsonl")["base"] == "v0.code.jsonl"
    return root, cache


@pytest.mark.parametrize(
    "name", ["../v0.code.jsonl", "sub/v0.code.jsonl", "/v0.code.jsonl", "..", ".", "", "a\\b", "a\0"]
)
@pytest.mark.parametrize("field", ["base"])
def test_a_delta_naming_a_file_that_is_not_a_plain_name_beside_it_is_refused(tmp_path, caplog, name, field):
    root, cache = delta_pair(tmp_path)
    manifest = cache / "v1.code.jsonl"
    (cache / "sub").mkdir()
    shutil.copyfile(cache / "v0.code.jsonl", cache / "sub" / "v0.code.jsonl")
    write_header(manifest, dict(header_of(manifest), **{field: name}))
    code, embed = get_fresh(root, cache, "v1", caplog)
    assert f"unusable code index archive {manifest}: its header has no {field!r}" in caplog.text
    assert embed.file_paths == sorted(code.files) and len(code.files) == 20


PACK_NAMES = {  # what a manifest names instead of pack `d` in the objects directory `o`
    "parent": lambda o, d: f"../{o.name}/{d}",
    "dot": lambda o, d: f"./{d}",
    "absolute": lambda o, d: f"{o}/{d}",
    "trailing slash": lambda o, d: f"{d}/",
    "upper case": lambda o, d: d.upper(),
    "short": lambda o, d: d[:-1],
    "nul": lambda o, d: f"{d}\0",
    "empty": lambda o, d: "",
}


@pytest.mark.parametrize("how", PACK_NAMES)
@pytest.mark.parametrize("kind", ["code", "embed"])
def test_a_manifest_naming_a_pack_that_is_not_a_digest_is_rebuilt_with_a_warning(tmp_path, caplog, kind, how):
    """Each name of `packs` becomes a path in the objects directory, so only
    a digest is read: not even a path that reaches the same pack."""
    root, cache = delta_pair(tmp_path)
    manifest = cache / f"v0.{kind}.jsonl"
    header = header_of(manifest)
    pack, *others = header["packs"]
    name = PACK_NAMES[how](cache / "objects", pack)
    write_header(manifest, dict(header, packs=[name, *others]))
    code, embed = get_fresh(root, cache, "v0", caplog)
    assert f"ignoring the archive of v0: {name!r} is not a pack name" in caplog.text
    assert embed.file_paths == sorted(code.files) and len(code.files) == 20
    get_fresh(root, cache, "v0", caplog)
    assert "ignoring" not in caplog.text  # written again, whole


def test_a_delta_whose_chain_loops_is_refused(tmp_path, caplog):
    root, cache = delta_pair(tmp_path)
    v0, v1 = cache / "v0.code.jsonl", cache / "v1.code.jsonl"
    v1_digest = hashlib.sha256(v1.read_bytes()).hexdigest()
    write_header(v0, dict(header_of(v0), base="v1.code.jsonl", base_digest=v1_digest))
    write_header(v1, dict(header_of(v1), base_digest=hashlib.sha256(v0.read_bytes()).hexdigest()))
    code, _ = get_fresh(root, cache, "v1", caplog)
    assert f"ignoring the archive of v1: {v1} is a base of itself" in caplog.text
    assert len(code.files) == 20


def test_an_unchanged_version_is_an_empty_delta(tmp_path):
    root = write_tree(tmp_path / "flat", {f"F{i}.java": java_class(f"F{i}", {"m": f"x{i}();"}) for i in range(20)})
    cache = tmp_path / "cache"
    store = VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache)
    store.get("rev-1")
    store.get("rev-2")
    header, *lines = (cache / "rev-2.code.jsonl").read_text(encoding="utf-8").splitlines()
    assert json.loads(header)["base"] == "rev-1.code.jsonl" and lines == []
    rev1, rev2 = (header_of(cache / f"rev-{n}.embed.jsonl") for n in (1, 2))
    assert rev1 == rev2  # the same settings, files and packs
    code = load_code_index(cache / "rev-2.code.jsonl")
    assert code.version_id == "rev-2" and code.files == store.get("rev-1")[0].files
    embed = load_embedding_index(cache / "rev-2.embed.jsonl", code)
    assert np.array_equal(embed.vectors, store.get("rev-1")[1].vectors)


@pytest.mark.parametrize("old", ["code", "embedding"])
def test_archives_of_format_5_are_rebuilt(tmp_path, caplog, monkeypatch, old):
    assert_old_archives_are_rebuilt(tmp_path, caplog, monkeypatch, old, 5, 5, [])


def save_format6_embedding_index(eindex, path, code, pool):
    """An embedding archive as format 6 wrote it: a `digest` over the
    record keys and vector keys in the header, then one `[vector key]` line
    per file, the key the sha256 of the object's bytes."""
    saved = embedding.save_embedding_index(eindex, path, code, pool)
    record_keys = [code_index.store_record(pool, code.files[p]) for p in code.sorted_paths()]
    name = embedding._namer(eindex.dimension, eindex.provider_id, eindex.chunk_limit)
    header = json.loads(Path(path).read_text(encoding="utf-8"))
    objects = {}
    for pack in header["packs"]:
        objects.update(code_index._split_pack((Path(path).parent / "objects" / pack).read_bytes()))
    vector_keys = [hashlib.sha256(objects[name(key)]).hexdigest() for key in record_keys]
    header = dict(header, format=6, digest=hashlib.sha256("".join(record_keys + vector_keys).encode()).hexdigest())
    lines = [json.dumps(header, sort_keys=True)] + [json.dumps([key]) for key in vector_keys]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return saved


def test_embedding_archives_of_format_6_are_rebuilt(tmp_path, caplog, monkeypatch):
    patches = [(harness, "save_embedding_index", save_format6_embedding_index)]
    assert_old_archives_are_rebuilt(tmp_path, caplog, monkeypatch, "embedding", 6, 6, patches)


CODE_FIELDS = {
    "version_id": 7, "grammar": ["java"], "file_count": "3", "packs": "x", "base": 7, "base_digest": "0" * 63,
}
EMBED_FIELDS = {"dimension": True, "provider_id": 16, "chunk_limit": 300.0, "file_count": None, "packs": {}}


@pytest.mark.parametrize("edit", ["missing", "mistyped"])
@pytest.mark.parametrize(
    "kind, field", [("code", f) for f in CODE_FIELDS] + [("embed", f) for f in EMBED_FIELDS]
)
def test_a_header_that_lacks_or_mistypes_a_field_is_rebuilt_with_a_warning(tmp_path, caplog, kind, field, edit):
    root, cache = delta_pair(tmp_path)
    version = "v1" if field.startswith("base") else "v0"
    manifest = cache / f"{version}.{kind}.jsonl"
    header = header_of(manifest)
    if edit == "missing":
        del header[field]
    else:
        header[field] = (CODE_FIELDS if kind == "code" else EMBED_FIELDS)[field]
    write_header(manifest, header)
    code, embed = get_fresh(root, cache, version, caplog)
    label = "code index" if kind == "code" else "embedding index"
    if (field, edit) == ("base", "missing"):  # then it is a full manifest of too few lines
        assert f"ignoring the archive of {version}: {manifest} holds 1 entries, its header says 20" in caplog.text
    else:
        assert f"ignoring the archive of {version}: unusable {label} archive {manifest}" in caplog.text
        assert f"{field!r}" in caplog.text
    assert embed.file_paths == sorted(code.files)
    get_fresh(root, cache, version, caplog)
    assert "ignoring" not in caplog.text  # written again, whole


def test_a_code_manifest_without_a_version_id_is_rebuilt_not_a_crash(tmp_path, caplog):
    root = versioned_repo(tmp_path)
    cache = tmp_path / "cache"
    VersionStore(root, cache_dir=cache).get("v1")
    header = header_of(cache / "v1.code.jsonl")
    del header["version_id"]
    write_header(cache / "v1.code.jsonl", header)
    with pytest.raises(ArchiveFormatError, match="'version_id'"):
        load_code_index(cache / "v1.code.jsonl")
    with caplog.at_level("WARNING", logger="bugloc.harness"):
        code, _ = VersionStore(root, cache_dir=cache).get("v1")
    assert "'version_id'" in caplog.text and code.version_id == "v1"


def test_a_version_built_again_from_itself_is_written_full(tmp_path, caplog):
    root, cache = delta_pair(tmp_path)
    store = VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache)
    code, _ = store.get("v1")
    store.build("v1", previous="v1")
    for kind in ("code", "embed"):
        assert "base" not in header_of(cache / f"v1.{kind}.jsonl")  # no delta on the file it replaces
    assert get_fresh(root, cache, "v1", caplog)[0] == code
    assert "ignoring" not in caplog.text


@pytest.mark.parametrize("kind", ["code", "embed"])
def test_a_manifest_line_that_is_not_utf8_is_rebuilt_not_a_crash(tmp_path, caplog, kind):
    root, cache = delta_pair(tmp_path)
    manifest = cache / f"v0.{kind}.jsonl"
    data = manifest.read_bytes()
    end = data.rindex(b'"]')  # in the last line: an entry, or the embedding manifest's header
    manifest.write_bytes(data[:end] + b"\xff" + data[end:])
    code, embed = get_fresh(root, cache, "v0", caplog)
    assert f"ignoring the archive of v0: unreadable manifest {manifest}" in caplog.text
    assert embed.file_paths == sorted(code.files) and len(code.files) == 20
