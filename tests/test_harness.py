import gc
import hashlib
import json
import os
import shutil
import tracemalloc
from pathlib import Path

import pytest

from bugloc import harness, java_parser
from bugloc.chat import ChatTurn, ScriptedChatProvider
from bugloc.code_index import build_index, load_code_index
from bugloc.embedders import CachedEmbedder, HashingEmbedder, RetriableProviderError
from bugloc.embedding import build_embedding_index, load_embedding_index
from bugloc.harness import (
    VersionStore,
    evaluate_technique,
    format_report_table,
    report_from_dict,
    report_to_dict,
)
from bugloc.localizers import EmbeddingLocalizer, VsmLocalizer
from bugloc.metrics import DataError
from conftest import java_class, make_bug, write_tree


def versioned_repo(tmp_path):
    v1 = {
        "org/A.java": java_class("A", {"alpha": "alphaword unique1;"}),
        "org/B.java": java_class("B", {"beta": "betaword unique2;"}),
    }
    v2 = dict(v1)
    v2["org/C.java"] = java_class("C", {"gamma": "gammaword unique3;"})
    root = tmp_path / "repo"
    write_tree(root / "v1", v1)
    write_tree(root / "v2", v2)
    return root


def test_version_store_resolves_subdirectories(tmp_path):
    root = versioned_repo(tmp_path)
    store = VersionStore(root, embedding_provider=HashingEmbedder(32))
    code1, embed1 = store.get("v1")
    code2, embed2 = store.get("v2")
    assert set(code1.files) == {"org/A.java", "org/B.java"}
    assert set(code2.files) == {"org/A.java", "org/B.java", "org/C.java"}
    assert embed1 is not None and embed2 is not None
    # incremental second build equals a from-scratch one
    fresh = build_index(root / "v2", "java", "v2")
    assert code2 == fresh


def test_version_store_flat_repo_reused(tmp_path):
    root = write_tree(tmp_path / "flat", {"A.java": java_class("A", {"m": "x();"})})
    store = VersionStore(root)
    code, embed = store.get("whatever-version")
    assert list(code.files) == ["A.java"]
    assert embed is None


def test_version_store_flat_repo_relabels_instead_of_rebuilding(tmp_path):
    root = write_tree(tmp_path / "flat", {"A.java": java_class("A", {"m": "x();"})})
    store = VersionStore(root, embedding_provider=HashingEmbedder(16))
    code1, embed1 = store.get("rev-1")
    code2, embed2 = store.get("rev-2")
    assert code2.version_id == "rev-2"
    assert code2.files is code1.files  # shared, not reparsed
    assert embed2 is embed1


def test_version_store_archives_cached(tmp_path):
    root = versioned_repo(tmp_path)
    cache = tmp_path / "cache"
    store = VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache)
    store.get("v1")
    assert (cache / "v1.code.jsonl").exists()
    assert (cache / "v1.embed.jsonl").exists()
    # a fresh store loads from the archive
    store2 = VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache)
    code, embed = store2.get("v1")
    assert set(code.files) == {"org/A.java", "org/B.java"}
    assert len(embed) > 0


def test_version_store_rebuilds_archive_of_another_provider(tmp_path, caplog):
    root = versioned_repo(tmp_path)
    cache = tmp_path / "cache"
    VersionStore(root, embedding_provider=HashingEmbedder(64), cache_dir=cache).get("v1")
    provider = HashingEmbedder(128)
    store = VersionStore(root, embedding_provider=provider, cache_dir=cache)
    with caplog.at_level("WARNING", logger="bugloc.harness"):
        code, embed = store.get("v1")
    localizer = EmbeddingLocalizer(provider, top_n=10).fit(code, embed)
    assert localizer.predict(bugs_for_eval()[0]).paths[0] == "org/A.java"
    assert "hashing-64" in caplog.text
    assert load_embedding_index(cache / "v1.embed.jsonl").dimension == 128


def two_look_alike_versions(tmp_path):
    root = tmp_path / "repo"
    write_tree(root / "rel" / "1", {"org/A.java": java_class("A", {"alpha": "a();"})})
    write_tree(root / "rel_1", {"org/B.java": java_class("B", {"beta": "b();"})})
    return root


def test_version_store_rebuilds_archive_of_another_version(tmp_path, caplog):
    root = two_look_alike_versions(tmp_path)
    cache = tmp_path / "cache"
    store = VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache)
    store.get("rel/1")
    # an archive pair copied under another version's names
    for source, target in zip(store.archive_paths("rel/1"), store.archive_paths("rel_1")):
        shutil.copyfile(source, target)
    store = VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache)
    with caplog.at_level("WARNING", logger="bugloc.harness"):
        code, embed = store.get("rel_1")
    assert "it holds version 'rel/1'" in caplog.text
    assert (code.version_id, list(code.files)) == ("rel_1", ["org/B.java"])
    assert embed.file_paths == ["org/B.java"]
    assert load_code_index(cache / "rel_1.code.jsonl").version_id == "rel_1"


def test_version_store_archive_names_are_distinct(tmp_path):
    store = VersionStore(tmp_path, cache_dir=tmp_path / "cache")
    ids = ["rel/1", "rel_1", "rel%2F1", "", "_"]
    names = {path.name for version_id in ids for path in store.archive_paths(version_id)}
    assert len(names) == 2 * len(ids)
    assert [p.name for p in store.archive_paths("v1")] == ["v1.code.jsonl", "v1.embed.jsonl"]


def test_version_store_look_alike_versions_load_their_own_archives(tmp_path, caplog, monkeypatch):
    root = two_look_alike_versions(tmp_path)
    cache = tmp_path / "cache"
    for version_id in ("rel/1", "rel_1"):
        VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache).get(version_id)
    monkeypatch.setattr(harness, "build_index", None)  # a second round must not build
    with caplog.at_level("WARNING", logger="bugloc.harness"):
        for version_id, path in (("rel/1", "org/A.java"), ("rel_1", "org/B.java")):
            store = VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache)
            code, embed = store.get(version_id)
            assert (code.version_id, list(code.files), embed.file_paths) == (version_id, [path], [path])
    assert "ignoring the archive" not in caplog.text


class SwitchableEmbedder(HashingEmbedder):
    """Raises for any batch while `broken` is set."""

    broken = False

    def embed_batch(self, texts):
        if self.broken:
            raise RetriableProviderError(self.provider_id, 3, "HTTP 500")
        return super().embed_batch(texts)


def test_version_store_failed_update_leaves_no_index(tmp_path):
    root = versioned_repo(tmp_path)
    cache = tmp_path / "cache"
    provider = SwitchableEmbedder(16)
    store = VersionStore(root, embedding_provider=provider, cache_dir=cache)
    store.get("v1")
    provider.broken = True
    for _ in range(2):  # nothing memoized: the second get tries again
        with pytest.raises(RetriableProviderError):
            store.get("v2")
    assert not any(path.exists() for path in store.archive_paths("v2"))
    code, embed = VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache).get("v2")
    assert embed.paths() == set(code.files) == {"org/A.java", "org/B.java", "org/C.java"}


def long_file_repo(tmp_path):
    body = " ".join(f"call{i}();" for i in range(120))
    write_tree(tmp_path / "repo" / "v1", {"org/Long.java": java_class("Long", {"run": body})})
    return tmp_path / "repo"


def test_version_store_rebuilds_archive_of_another_chunk_limit(tmp_path, caplog):
    root = long_file_repo(tmp_path)
    cache = tmp_path / "cache"
    _, wide = VersionStore(root, embedding_provider=HashingEmbedder(32), cache_dir=cache).get("v1")
    assert max(r.chunk.token_count for r in wide.records.values()) > 50
    store = VersionStore(root, embedding_provider=HashingEmbedder(32), cache_dir=cache, chunk_limit=50)
    with caplog.at_level("WARNING", logger="bugloc.harness"):
        _, embed = store.get("v1")
    assert max(r.chunk.token_count for r in embed.records.values()) <= 50
    assert "chunk limit 300" in caplog.text
    assert load_embedding_index(cache / "v1.embed.jsonl").chunk_limit == 50


def test_version_store_rebuilds_archive_without_chunk_limit(tmp_path, caplog):
    root = long_file_repo(tmp_path)
    cache = tmp_path / "cache"
    VersionStore(root, embedding_provider=HashingEmbedder(32), cache_dir=cache).get("v1")
    archive = cache / "v1.embed.jsonl"
    header, rest = archive.read_text(encoding="utf-8").split("\n", 1)
    header = json.loads(header)
    del header["chunk_limit"]
    archive.write_text(json.dumps(header) + "\n" + rest, encoding="utf-8")
    with caplog.at_level("WARNING", logger="bugloc.harness"):
        VersionStore(root, embedding_provider=HashingEmbedder(32), cache_dir=cache).get("v1")
    assert "unusable embedding index archive" in caplog.text and "'chunk_limit'" in caplog.text
    assert load_embedding_index(archive).chunk_limit == 300


def test_version_store_rebuilds_archive_of_another_format(tmp_path, caplog):
    root = versioned_repo(tmp_path)
    cache = tmp_path / "cache"
    VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache).get("v1")
    archive = cache / "v1.embed.jsonl"
    header, rest = archive.read_text(encoding="utf-8").split("\n", 1)
    archive.write_text(json.dumps(dict(json.loads(header), format=0)) + "\n" + rest, encoding="utf-8")
    with caplog.at_level("WARNING", logger="bugloc.harness"):
        _, embed = VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache).get("v1")
    assert "ignoring the archive of v1: unsupported archive format 0" in caplog.text
    assert embed.paths() == {"org/A.java", "org/B.java"}
    assert load_embedding_index(archive).records == embed.records


@pytest.mark.parametrize("archive_name", ["v1.code.jsonl", "v1.embed.jsonl"])
def test_version_store_rebuilds_truncated_archive(tmp_path, caplog, archive_name):
    root = versioned_repo(tmp_path)
    cache = tmp_path / "cache"
    VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache).get("v1")
    archive = cache / archive_name
    whole = archive.read_bytes()
    archive.write_bytes(whole[: whole.rstrip(b"\n").rfind(b"\n") + 1])
    with caplog.at_level("WARNING", logger="bugloc.harness"):
        code, _ = VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache).get("v1")
    assert "ignoring the archive of v1" in caplog.text
    assert set(code.files) == {"org/A.java", "org/B.java"}
    assert archive.read_bytes() == whole


def manifest_entries(path):
    """The [fq_path, key, ...] lines of a manifest."""
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def get_fresh(root, cache, version_id, caplog):
    """`version_id` from a fresh store, with the store's warnings in `caplog`."""
    caplog.clear()
    with caplog.at_level("WARNING", logger="bugloc.harness"):
        return VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache).get(version_id)


def test_version_store_rebuilds_an_embedding_manifest_of_another_version(tmp_path, caplog):
    root = versioned_repo(tmp_path)
    cache = tmp_path / "cache"
    store = VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache)
    store.get("v1")
    store.get("v2")
    v1_embed, v2_embed = store.archive_paths("v1")[1], store.archive_paths("v2")[1]
    whole = v1_embed.read_bytes()
    shutil.copyfile(v2_embed, v1_embed)
    code, embed = get_fresh(root, cache, "v1", caplog)
    assert "ignoring the archive of v1: its embedding archive was made from other files" in caplog.text
    assert embed.file_paths == sorted(code.files) == ["org/A.java", "org/B.java"]
    assert v1_embed.read_bytes() == whole


def test_version_store_rebuilds_a_save_cut_between_its_two_manifests(tmp_path, caplog, monkeypatch):
    root = versioned_repo(tmp_path)
    cache = tmp_path / "cache"
    VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache).get("v1")
    write_tree(root / "v1", {"org/A.java": java_class("A", {"alpha": "alphaword edited();"})})

    def crash(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "save_embedding_index", crash)
    with pytest.raises(KeyboardInterrupt):  # after the code manifest, before the other
        VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache).build("v1")
    monkeypatch.undo()
    code, embed = get_fresh(root, cache, "v1", caplog)
    assert "its embedding archive was made from other files than its code archive" in caplog.text
    assert "edited" in code.files["org/A.java"].methods[0].body
    assert embed.sources == code.files
    assert "edited" in embed.chunks[0].text
    get_fresh(root, cache, "v1", caplog)
    assert "ignoring" not in caplog.text


def pack_index(path):
    """The [key, length] of each object in a pack."""
    return json.loads(path.read_bytes().split(b"\n", 1)[0])


def pack_holding(cache, key):
    """The pack in `cache` that holds object `key`."""
    (path,) = [p for p in (cache / "objects").iterdir() if key in dict(pack_index(p))]
    return path


def damage(path, how):
    data = path.read_bytes()
    if how == "missing":
        path.unlink()
    elif how == "flipped":
        path.write_bytes(data[:-1] + bytes([data[-1] ^ 0x20]))
    else:
        path.write_bytes(data[: int(how.removeprefix("cut at "))])


@pytest.mark.parametrize("how", ["missing", "cut at 0", "cut at 1", "cut at 40", "flipped"])
@pytest.mark.parametrize("column", [1, 2], ids=["record object", "vector object"])
def test_version_store_rebuilds_a_damaged_pack(tmp_path, caplog, monkeypatch, how, column):
    root = versioned_repo(tmp_path)
    cache = tmp_path / "cache"
    VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache).get("v1")
    path = pack_holding(cache, manifest_entries(cache / "v1.embed.jsonl")[1][column])
    whole = path.read_bytes()
    damage(path, how)
    code, embed = get_fresh(root, cache, "v1", caplog)
    assert f"ignoring the archive of v1: pack {path.name} is " in caplog.text
    assert embed.paths() == set(code.files) == {"org/A.java", "org/B.java"}
    assert path.read_bytes() == whole  # unlinked, then written again
    monkeypatch.setattr(harness, "build_index", None)  # the next store only loads
    get_fresh(root, cache, "v1", caplog)
    assert "ignoring" not in caplog.text


def test_version_store_rebuilds_a_vector_object_of_partial_rows(tmp_path, caplog, monkeypatch):
    root = versioned_repo(tmp_path)
    cache = tmp_path / "cache"
    VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache).get("v1")
    manifest = cache / "v1.embed.jsonl"
    text = manifest.read_text(encoding="utf-8")
    key = manifest_entries(manifest)[0][2]
    pack = pack_holding(cache, key)
    head, body = pack.read_bytes().split(b"\n", 1)
    objects, offset = {}, 0
    for object_key, length in json.loads(head):
        objects[object_key] = body[offset : offset + length]
        offset += length
    objects[key] = objects[key][:-8]  # a whole number of float64s, not of rows
    index = [[object_key, len(data)] for object_key, data in objects.items()]
    bad = json.dumps(index).encode() + b"\n" + b"".join(objects.values())
    bad_name = hashlib.sha256(bad).hexdigest()
    (cache / "objects" / bad_name).write_bytes(bad)
    manifest.write_text(text.replace(pack.name, bad_name), encoding="utf-8")
    get_fresh(root, cache, "v1", caplog)
    assert f"object {key} is damaged" in caplog.text
    assert "not whole 16-dimensional vectors" in caplog.text
    assert not (cache / "objects" / bad_name).exists()
    assert manifest.read_text(encoding="utf-8") == text
    monkeypatch.setattr(harness, "build_index", None)
    get_fresh(root, cache, "v1", caplog)
    assert "ignoring" not in caplog.text


def chain_of_versions(root, n_versions, n_files):
    """Version k differs from version k - 1 in file k only."""
    def source(i, edit):
        methods = {f"step{j}": f"value{j} = compute{i}x{j}(input{edit}); log(value{j});" for j in range(6)}
        return java_class(f"C{i}", methods)

    files = {f"org/p{i % 3}/C{i}.java": source(i, 0) for i in range(n_files)}
    versions = []
    for k in range(n_versions):
        if k:
            files[f"org/p{k % 3}/C{k}.java"] = source(k, k)
        versions.append(f"v{k}")
        write_tree(root / f"v{k}", files)
    return versions


def test_version_store_versions_loaded_from_archives_share_their_files(tmp_path, monkeypatch):
    root, cache = tmp_path / "repo", tmp_path / "cache"
    versions = chain_of_versions(root, 9, 40)
    building = VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache)
    for version in versions:
        building.get(version)
    del building
    monkeypatch.setattr(harness, "build_index", None)  # every version is loaded
    monkeypatch.setattr(harness, "update_index", None)
    store = VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache)
    gc.collect()
    tracemalloc.start()
    try:
        traced = [tracemalloc.get_traced_memory()[0]]
        loaded = []
        for version in versions:
            loaded.append(store.get(version))
            traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    first = traced[1] - traced[0]
    added = [after - before for before, after in zip(traced[1:], traced[2:])]
    assert max(added) <= first / 4, (first, added)
    (code0, embed0), (code1, embed1) = loaded[:2]
    assert code1.files["org/p2/C2.java"] is code0.files["org/p2/C2.java"]
    assert code1.files["org/p1/C1.java"] != code0.files["org/p1/C1.java"]
    assert all(a is b for a, b in zip(embed0.chunks[-10:], embed1.chunks[-10:]))


def test_version_store_one_file_update_writes_its_objects_and_two_manifests(tmp_path, monkeypatch):
    root, cache = tmp_path / "repo", tmp_path / "cache"
    versions = chain_of_versions(root, 2, 12)
    store = VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache)
    store.get(versions[0])
    written = []
    replace = os.replace

    def counting(src, dst):
        written.append(Path(dst))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", counting)
    store.get(versions[1])
    code_manifest, embed_manifest = store.archive_paths(versions[1])
    ((_, record_key, vector_key),) = [
        entry for entry in manifest_entries(embed_manifest) if entry[0] == "org/p1/C1.java"
    ]
    code_pack, manifest, embed_pack, last = written
    assert (manifest, last) == (code_manifest, embed_manifest)
    assert [key for key, _ in pack_index(code_pack)] == [record_key]
    assert [key for key, _ in pack_index(embed_pack)] == [vector_key]


class MethodlessGrammar(java_parser.JavaGrammar):
    """Indexes Java files but finds no methods in them."""

    name = "java-methodless"

    def parse(self, text):
        return java_parser.ParseResult(methods=[], ok=True)


class KotlinFilesAsJava(java_parser.JavaGrammar):
    """Parses .kt files, and only those, by the Java rules."""

    name = "kt-as-java"

    def __init__(self):
        super().__init__(extensions=(".kt",))


@pytest.fixture
def register_grammar(monkeypatch):
    """`register_grammar` into a registry this test alone sees."""
    monkeypatch.setattr(java_parser, "_GRAMMARS", dict(java_parser._GRAMMARS))
    return java_parser.register_grammar


@pytest.fixture
def methodless_grammar(register_grammar):
    register_grammar(MethodlessGrammar())


def test_version_store_rebuilds_archive_of_another_grammar(tmp_path, caplog, methodless_grammar):
    root = versioned_repo(tmp_path)
    cache = tmp_path / "cache"
    code, _ = VersionStore(root, "java-methodless", cache_dir=cache).get("v1")
    assert not code.files["org/A.java"].methods
    with caplog.at_level("WARNING", logger="bugloc.harness"):
        code, _ = VersionStore(root, "java", cache_dir=cache).get("v1")
    assert "ignoring the archive of v1: it was parsed as 'java-methodless'" in caplog.text
    assert [m.name for m in code.files["org/A.java"].methods] == ["alpha"]
    assert load_code_index(cache / "v1.code.jsonl").grammar == "java"


def test_version_store_relabel_keeps_the_grammar(tmp_path, methodless_grammar):
    root = write_tree(tmp_path / "flat", {"A.java": java_class("A", {"m": "x();"})})
    store = VersionStore(root, "java-methodless", cache_dir=tmp_path / "cache")
    store.get("rev-1")
    assert store.get("rev-2")[0].grammar == "java-methodless"
    assert load_code_index(tmp_path / "cache" / "rev-2.code.jsonl").grammar == "java-methodless"


def test_version_store_incremental_build_diffs_the_grammar_files(tmp_path, register_grammar):
    register_grammar(KotlinFilesAsJava())
    root = tmp_path / "repo"
    v1 = {"org/A.kt": java_class("A", {"alpha": "a();"})}
    write_tree(root / "v1", v1)
    write_tree(root / "v2", {**v1, "org/B.kt": java_class("B", {"beta": "b();", "gamma": "c();"})})
    provider = HashingEmbedder(16)
    store = VersionStore(root, "kt-as-java", embedding_provider=provider)
    store.get("v1")
    code, embed = store.get("v2")
    fresh = build_index(root / "v2", "kt-as-java", "v2")
    assert sorted(fresh.files) == ["org/A.kt", "org/B.kt"]
    assert code == fresh
    assert embed.records == build_embedding_index(fresh, provider).records


def bugs_for_eval():
    return [
        make_bug("bug-a", "alphaword unique1", "", "v1", truth=["org/A.java"]),
        make_bug("bug-c", "gammaword unique3", "", "v2", truth=["org/C.java"]),
    ]


def test_evaluate_technique_embedding_only(tmp_path):
    root = versioned_repo(tmp_path)
    provider = HashingEmbedder(64)
    store = VersionStore(root, embedding_provider=provider)
    outcome = evaluate_technique(
        bugs_for_eval(),
        lambda: EmbeddingLocalizer(provider, top_n=10),
        store,
        "embedding_only",
        runs=3,
    )
    assert outcome.report.accuracy_at[1] == 1.0
    assert outcome.report.mrr_at_10 == 1.0
    assert outcome.failures == []
    assert len(outcome.run_reports) == 3
    # deterministic provider: zero variance across runs
    for run_report in outcome.run_reports:
        assert run_report.accuracy_at == outcome.report.accuracy_at


def test_evaluate_technique_vsm(tmp_path):
    root = versioned_repo(tmp_path)
    store = VersionStore(root)
    outcome = evaluate_technique(
        bugs_for_eval(), VsmLocalizer, store, "vsm", runs=1
    )
    assert outcome.report.accuracy_at[1] == 1.0


def test_evaluate_requires_ground_truth(tmp_path):
    root = versioned_repo(tmp_path)
    store = VersionStore(root)
    with pytest.raises(DataError):
        evaluate_technique([make_bug(truth=())], VsmLocalizer, store, "vsm")


def test_evaluate_records_per_bug_failures_as_misses(tmp_path):
    root = versioned_repo(tmp_path)
    provider = HashingEmbedder(32)
    store = VersionStore(root, embedding_provider=provider)

    from bugloc.localizers import AgentLocalizer

    chat = ScriptedChatProvider([ChatTurn(content="never a parseable list")])
    outcome = evaluate_technique(
        bugs_for_eval(),
        lambda: AgentLocalizer(chat_provider=chat, embedding_provider=provider),
        store,
        "genloc",
        runs=1,
    )
    assert len(outcome.failures) == 2
    assert outcome.report.accuracy_at[10] == 0.0
    assert outcome.transcripts


def test_evaluate_concurrent_workers_match_sequential(tmp_path):
    root = versioned_repo(tmp_path)
    provider = HashingEmbedder(64)
    store = VersionStore(root, embedding_provider=provider)
    sequential = evaluate_technique(
        bugs_for_eval(), lambda: EmbeddingLocalizer(provider), store, "embedding_only",
        runs=2, workers=1,
    )
    concurrent = evaluate_technique(
        bugs_for_eval(), lambda: EmbeddingLocalizer(provider), store, "embedding_only",
        runs=2, workers=4,
    )
    assert concurrent.report.accuracy_at == sequential.report.accuracy_at
    assert concurrent.report.per_bug == sequential.report.per_bug


def test_evaluate_concurrent_workers_match_sequential_through_a_cache(tmp_path):
    root = versioned_repo(tmp_path)
    topics = [
        ("alphaword unique1", "org/A.java", "v1"),
        ("betaword unique2", "org/B.java", "v1"),
        ("gammaword unique3", "org/C.java", "v2"),
    ]
    bugs = [
        make_bug(f"bug-{i}", f"{text} report {i}", f"seen {i} times", version, truth=[path])
        for i, (text, path, version) in enumerate(topics * 8)
    ]
    outcomes, caches = [], []
    for workers in (1, 4):
        # A fresh cache per run, so every query misses, under threads at workers=4.
        cache_file = tmp_path / f"cache-{workers}.json"
        provider = CachedEmbedder(HashingEmbedder(64), cache_file)
        store = VersionStore(root, embedding_provider=provider)
        outcomes.append(evaluate_technique(
            bugs, lambda: EmbeddingLocalizer(provider), store, "embedding_only",
            runs=2, workers=workers,
        ))
        caches.append(json.loads(cache_file.read_text(encoding="utf-8")))
    sequential, concurrent = outcomes
    assert sequential.failures == concurrent.failures == []
    assert concurrent.report.accuracy_at == sequential.report.accuracy_at
    assert concurrent.report.per_bug == sequential.report.per_bug
    assert caches[0] == caches[1]


def test_report_dict_roundtrip(tmp_path):
    root = versioned_repo(tmp_path)
    provider = HashingEmbedder(32)
    store = VersionStore(root, embedding_provider=provider)
    outcome = evaluate_technique(
        bugs_for_eval(), lambda: EmbeddingLocalizer(provider), store, "embedding_only", runs=2
    )
    raw = report_to_dict(outcome.report, outcome.failures)
    assert raw["schema_version"] == 1
    assert raw["coverage"] == 1.0
    back = report_from_dict(raw)
    assert back.accuracy_at == outcome.report.accuracy_at
    assert back.per_bug == outcome.report.per_bug


def test_format_report_table_mirrors_columns(tmp_path):
    root = versioned_repo(tmp_path)
    store = VersionStore(root)
    outcome = evaluate_technique(bugs_for_eval(), VsmLocalizer, store, "vsm", runs=1)
    table = format_report_table([outcome.report])
    header = table.splitlines()[0]
    for column in ("Technique", "Acc@1", "Acc@5", "Acc@10", "MAP@10", "MRR@10"):
        assert column in header
    assert "vsm" in table
