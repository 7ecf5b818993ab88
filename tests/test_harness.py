import builtins
import gc
import hashlib
import importlib
import io
import json
import os
import shutil
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from bugloc import code_index, embedding, harness, java_parser
from bugloc import load_bug_reports
from bugloc.chat import ScriptedChatProvider
from bugloc.code_index import (
    Changeset, build_index, diff_source_trees, load_code_index, save_code_index, update_index,
)
from bugloc.embedders import CachedEmbedder, HashingEmbedder, RetriableProviderError
from bugloc.embedding import build_embedding_index, chunk_text, load_embedding_index
from bugloc.harness import (
    VersionStore,
    evaluate_technique,
    format_report_table,
    report_from_dict,
    report_to_dict,
)
from bugloc.localizers import EmbeddingLocalizer, VsmLocalizer
from bugloc.metrics import DataError
from bugloc.tokens import tokenize
from bugloc.validation import bug_text
from conftest import java_class, make_bug, same_embeddings, text_turn, write_tree
from oracles import locator_oracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_embed_archive(cache, version="v1"):
    """The embedding archive of `version` in `cache`, read with its code archive."""
    code = load_code_index(cache / f"{version}.code.jsonl")
    return load_embedding_index(cache / f"{version}.embed.jsonl", code)


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


def test_version_store_updates_from_an_archive_whose_tree_is_gone(tmp_path):
    root, cache = tmp_path / "repo", tmp_path / "cache"
    v1 = {
        "org/A.java": java_class("A", {"alpha": "a();"}),
        "org/B.java": java_class("B", {"beta": "b();"}),
        "org/Gone.java": java_class("Gone", {"lost": "g();"}),
    }
    write_tree(root / "v1", v1)
    write_tree(
        root / "v2",
        {
            "org/A.java": java_class("A", {"alpha": "changed();"}),
            "org/B.java": v1["org/B.java"],
            "org/C.java": java_class("C", {"gamma": "c();"}),
        },
    )
    provider = HashingEmbedder(16)
    VersionStore(root, embedding_provider=provider, cache_dir=cache).get("v1")
    shutil.rmtree(root / "v1")
    code, embed = VersionStore(root, embedding_provider=provider, cache_dir=cache).build("v2", previous="v1")
    fresh = build_index(root / "v2", "java", "v2")
    assert code == fresh  # files, method locator and digests
    assert same_embeddings(embed, build_embedding_index(fresh, provider))


def test_version_store_update_reads_each_file_of_the_new_tree_and_none_of_the_old(tmp_path, monkeypatch):
    root = tmp_path / "repo"
    v1 = {f"org/F{i}.java": java_class(f"F{i}", {f"m{i}": "a();"}) for i in range(6)}
    v2 = {**v1, "org/F0.java": java_class("F0", {"m0": "b();"}), "org/New.java": java_class("New", {})}
    del v2["org/F1.java"]
    write_tree(root / "v1", v1)
    write_tree(root / "v2", v2)
    store = VersionStore(root, embedding_provider=HashingEmbedder(16))
    store.get("v1")
    reads = Counter()
    real_open = io.open

    def counting_open(file, *args, **kwargs):  # Path.read_bytes and read_text open through io.open
        reads[Path(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    store.build("v2", previous="v1")
    # once, by the diff: the parse of a changed file takes the bytes it read
    assert reads == Counter({root / "v2" / rel: 1 for rel in v2})


@pytest.mark.parametrize("locked", ["org/F1.java", "org/Locked.java"])  # unchanged since v1; new in v2
def test_version_store_update_leaves_out_an_unreadable_file(tmp_path, monkeypatch, caplog, locked):
    root = tmp_path / "repo"
    v1 = {f"org/F{i}.java": java_class(f"F{i}", {f"m{i}": "a();"}) for i in range(3)}
    v2 = {**v1, "org/F0.java": java_class("F0", {"m0": "b();"}), "org/Locked.java": java_class("Locked", {})}
    write_tree(root / "v1", v1)
    write_tree(root / "v2", v2)
    provider = HashingEmbedder(16)
    store = VersionStore(root, embedding_provider=provider)
    store.get("v1")
    denied = root / "v2" / locked
    real_open, real_read_bytes = io.open, Path.read_bytes

    def locked_open(file, *args, **kwargs):
        if Path(file) == denied:
            raise PermissionError(13, "Permission denied", str(file))
        return real_open(file, *args, **kwargs)

    def locked_read_bytes(path):
        if path == denied:
            raise PermissionError(13, "Permission denied", str(path))
        return real_read_bytes(path)

    monkeypatch.setattr(io, "open", locked_open)
    monkeypatch.setattr(builtins, "open", locked_open)
    monkeypatch.setattr(Path, "read_bytes", locked_read_bytes)
    with caplog.at_level("ERROR"):
        code, embed = store.get("v2")
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and locked in errors[0]
    fresh = build_index(root / "v2", "java", "v2")
    assert locked not in fresh.files
    assert code == fresh
    assert same_embeddings(embed, build_embedding_index(fresh, provider))


def perfbench_gen():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        return importlib.import_module("gen")


def dataset_changeset(change) -> Changeset:
    """A changeset of `gen.Dataset.changesets` as the Changeset a diff gives."""
    renamed = tuple(map(tuple, change["renamed"]))
    return Changeset(tuple(change["added"]), tuple(change["modified"]), tuple(change["deleted"]), renamed)


def parsed_paths(changeset) -> set[str]:
    """The paths an update by `changeset` reads: added, modified, renamed to."""
    return {*changeset.added, *changeset.modified, *(new for _, new in changeset.renamed)}


def count_opens(monkeypatch, under: Path) -> Counter:
    """The number of times each file under `under` is opened from now on."""
    opened, real_open = Counter(), io.open

    def counting_open(file, *args, **kwargs):  # Path.read_bytes opens through io.open
        if isinstance(file, (str, Path)) and Path(file).is_relative_to(under):
            opened[Path(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    return opened


def record_diffs(monkeypatch) -> list[Changeset]:
    """The changesets of the diffs the harness makes from now on."""
    found, diff = [], harness.diff_source_trees
    monkeypatch.setattr(harness, "diff_source_trees", lambda *args: found.append(diff(*args)) or found[-1])
    return found


def test_version_store_update_opens_no_file_whose_stat_key_is_unchanged(tmp_path, monkeypatch):
    gen = perfbench_gen()
    ds = gen.generate(3, 60, 8, 2)
    repo = gen.write_dataset(ds, tmp_path / "input")["repo"]  # unchanged files are hard links
    monkeypatch.setattr(code_index, "RACY_WINDOW_NS", 0)
    store = VersionStore(repo, embedding_provider=HashingEmbedder(16))
    store.get("v0")
    diffs, opened = record_diffs(monkeypatch), count_opens(monkeypatch, repo)
    code, _ = store.get("v1")
    changeset = dataset_changeset(ds.changesets[0])
    assert diffs == [changeset]
    assert set(opened) == {repo / "v1" / rel for rel in parsed_paths(changeset)}
    assert code == build_index(repo / "v1", "java", "v1")


def test_version_store_update_from_an_archive_opens_each_file_of_the_new_tree(tmp_path, monkeypatch):
    gen = perfbench_gen()
    ds = gen.generate(3, 60, 8, 2)
    repo, cache = gen.write_dataset(ds, tmp_path / "input")["repo"], tmp_path / "cache"
    monkeypatch.setattr(code_index, "RACY_WINDOW_NS", 0)
    building = VersionStore(repo, cache_dir=cache)
    building.get("v0")
    diffs = record_diffs(monkeypatch)
    building.get("v1")
    store = VersionStore(repo, cache_dir=cache)
    assert store.get("v0")[0].stat_keys == {}  # no archive holds a key
    opened = count_opens(monkeypatch, repo)
    code, _ = store.build("v1", previous="v0")
    # once, by the diff: the parse of a changed file takes the bytes it read
    assert opened == Counter({repo / "v1" / rel: 1 for rel in ds.trees[1]})
    assert diffs == [dataset_changeset(ds.changesets[0])] * 2
    assert code == building.get("v1")[0]


@pytest.mark.parametrize("seed", [1, 3, 7])
def test_version_store_chain_updates_by_stat_key_equal_full_diffs_and_builds(tmp_path, monkeypatch, seed):
    gen = perfbench_gen()
    ds = gen.generate(seed, 120, 30, 4)
    repo = gen.write_dataset(ds, tmp_path / "input")["repo"]
    monkeypatch.setattr(code_index, "RACY_WINDOW_NS", 0)
    store = VersionStore(repo)
    store.get(ds.versions[0])
    diffs, opened = record_diffs(monkeypatch), count_opens(monkeypatch, repo)
    opens = []
    for i, version in enumerate(ds.versions[1:]):
        opened.clear()
        code, _ = store.get(version)
        opens.append(sum(opened.values()))
        full_diff = diff_source_trees(repo / ds.versions[i], repo / version)
        assert diffs[i] == full_diff == dataset_changeset(ds.changesets[i])
        assert code == build_index(repo / version, "java", version)
    # by key, each update opens only the files it parses, once each
    assert opens == [len(parsed_paths(d)) for d in diffs] and max(opens) < 120


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


def test_version_store_rebuilds_a_version_whose_embedding_archive_is_missing(tmp_path, monkeypatch):
    root = versioned_repo(tmp_path)
    cache = tmp_path / "cache"
    VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache).get("v1")
    (cache / "v1.embed.jsonl").unlink()
    builds = []
    monkeypatch.setattr(harness, "build_index", lambda *args: builds.append(args) or build_index(*args))
    code, embed = VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache).get("v1")
    assert len(builds) == 1  # the code archive alone is not loaded
    assert same_embeddings(load_embed_archive(cache), embed)
    assert load_code_index(cache / "v1.code.jsonl").files == code.files


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
    assert load_embed_archive(cache).dimension == 128


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


def test_version_store_save_that_raises_memoizes_nothing(tmp_path, monkeypatch):
    root = versioned_repo(tmp_path)
    store = VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=tmp_path / "cache")

    def full_disk(*args, **kwargs):
        raise OSError("no space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(harness, "save_embedding_index", full_disk)
        with pytest.raises(OSError):
            store.get("v1")
    code_manifest, embed_manifest = store.archive_paths("v1")
    assert code_manifest.exists() and not embed_manifest.exists()
    written = []
    replace = os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: written.append(Path(dst)) or replace(src, dst))
    code, embed = store.get("v1")  # not memoized, so built again and saved whole
    assert {code_manifest, embed_manifest} <= set(written)
    assert same_embeddings(load_embed_archive(tmp_path / "cache"), embed)


class DriftingEmbedder(HashingEmbedder):
    """Rows that differ on every call, as a remote provider's may."""

    calls = 0

    def embed_batch(self, texts):
        self.calls += 1
        return super().embed_batch(texts) + self.calls


def test_version_store_keeps_the_stored_rows_of_a_reverted_file_whatever_the_provider_gives(tmp_path):
    root, cache = tmp_path / "repo", tmp_path / "cache"
    v0 = {"org/A.java": java_class("A", {"alpha": "alphaword();"}), "org/B.java": java_class("B", {"beta": "b();"})}
    write_tree(root / "v0", v0)
    write_tree(root / "v1", dict(v0, **{"org/A.java": java_class("A", {"alpha": "edited();"})}))
    write_tree(root / "v2", v0)  # A reverted
    provider = DriftingEmbedder(16)
    store = VersionStore(root, embedding_provider=provider, cache_dir=cache)
    embeds = [store.get(version)[1] for version in ("v0", "v1", "v2")]
    assert provider.calls == 3  # the revert still asks the provider for A's rows
    fresh = VersionStore(root, embedding_provider=DriftingEmbedder(16), cache_dir=cache)
    reloaded = fresh.get("v2")[1]
    assert fresh.embedding_provider.calls == 0
    assert store.get("v2")[1] is embeds[2]
    assert embeds[2].chunks == reloaded.chunks and embeds[2].vectors.tobytes() == reloaded.vectors.tobytes()


@pytest.mark.parametrize("edit", ["reverted", "edited again"])
def test_version_store_code_manifest_rewritten_under_an_old_embedding_manifest_is_rebuilt_or_loads_its_own_rows(
    tmp_path, caplog, monkeypatch, edit
):
    root = versioned_repo(tmp_path)
    cache = tmp_path / "cache"
    store = VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache)
    store.get("v1")
    original = (root / "v1" / "org/A.java").read_bytes()
    write_tree(root / "v1", {"org/A.java": java_class("A", {"alpha": "alphaword edited();"})})
    store.build("v1", previous="v1")  # A's new rows in a pack of their own, beside the pack of A's and B's
    old_embed = store.archive_paths("v1")[1].read_bytes()
    if edit == "reverted":
        (root / "v1" / "org/A.java").write_bytes(original)
    else:
        write_tree(root / "v1", {"org/A.java": java_class("A", {"alpha": "alphaword edited again();"})})

    def crash(*args, **kwargs):
        raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr(harness, "save_embedding_index", crash)
        with pytest.raises(KeyboardInterrupt):  # after the code manifest, before the other
            VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache).build("v1")
    assert store.archive_paths("v1")[1].read_bytes() == old_embed
    code, embed = get_fresh(root, cache, "v1", caplog)
    if edit == "reverted":  # A's original object is in a pack the old manifest names
        assert "ignoring" not in caplog.text
    else:
        assert "ignoring the archive of v1: object " in caplog.text and "is in none of the packs read" in caplog.text
    fresh = build_index(root / "v1", "java", "v1")
    fresh_embed = build_embedding_index(fresh, HashingEmbedder(16))
    assert code == fresh
    assert embed.chunks == fresh_embed.chunks and embed.vectors.tobytes() == fresh_embed.vectors.tobytes()


def long_file_repo(tmp_path):
    body = " ".join(f"call{i}();" for i in range(120))
    write_tree(tmp_path / "repo" / "v1", {"org/Long.java": java_class("Long", {"run": body})})
    return tmp_path / "repo"


def test_version_store_rebuilds_archive_of_another_chunk_limit(tmp_path, caplog):
    root = long_file_repo(tmp_path)
    cache = tmp_path / "cache"
    _, wide = VersionStore(root, embedding_provider=HashingEmbedder(32), cache_dir=cache).get("v1")
    assert max(len(tokenize(c.text)) for c in wide.chunks) > 50
    store = VersionStore(root, embedding_provider=HashingEmbedder(32), cache_dir=cache, chunk_limit=50)
    with caplog.at_level("WARNING", logger="bugloc.harness"):
        _, embed = store.get("v1")
    assert max(len(tokenize(c.text)) for c in embed.chunks) <= 50
    assert "chunk limit 300" in caplog.text
    assert load_embed_archive(cache).chunk_limit == 50


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
    assert load_embed_archive(cache).chunk_limit == 300


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
    assert same_embeddings(load_embed_archive(cache), embed)


def format3_record(record) -> bytes:
    """A record object as code archives of format 3 held it: one JSON list,
    the bodies inside it."""
    methods = [[m.name, m.signature, m.body, m.body == ""] for m in record.methods]
    return json.dumps([record.fq_path, record.basename, record.parse_ok, methods], separators=(",", ":")).encode()


def format4_record(record) -> bytes:
    """A record object as code archives of format 4 held it: the head also
    names the basename and flags each method without a body."""
    methods = [[m.name, m.signature, len(m.body), m.body == ""] for m in record.methods]
    head = json.dumps([record.fq_path, record.basename, record.parse_ok, methods], ensure_ascii=False, separators=(",", ":"))
    return (head + "\n" + "".join(m.body for m in record.methods)).encode("utf-8", "surrogatepass")


def assert_old_archives_are_rebuilt(tmp_path, caplog, monkeypatch, old, code_format, embed_format, patches):
    """Archives written with the formats given, and with each (module, name,
    function) of `patches` in place, are ignored with a warning and rebuilt;
    the packs of the old objects stay."""
    root = versioned_repo(tmp_path)
    cache = tmp_path / "cache"
    with monkeypatch.context() as patch:
        patch.setattr(code_index, "ARCHIVE_FORMAT", code_format)
        patch.setattr(embedding, "EMBED_ARCHIVE_FORMAT", embed_format)
        for module, name, replacement in patches:
            patch.setattr(module, name, replacement)
        VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache).get("v1")
    if old == "embedding":
        save_code_index(build_index(root / "v1", "java", "v1"), cache / "v1.code.jsonl")
    packs = set((cache / "objects").iterdir())
    code, embed = get_fresh(root, cache, "v1", caplog)
    fmt = code_format if old == "code" else embed_format
    assert f"ignoring the archive of v1: unsupported archive format {fmt}" in caplog.text
    assert "damaged" not in caplog.text
    assert packs <= set((cache / "objects").iterdir())  # none unlinked
    assert code == build_index(root / "v1", "java", "v1")
    assert embed.file_paths == sorted(code.files)
    monkeypatch.setattr(harness, "build_index", None)  # the next store only loads
    get_fresh(root, cache, "v1", caplog)
    assert "ignoring" not in caplog.text


@pytest.mark.parametrize("old", ["code", "embedding"])
def test_version_store_rebuilds_archives_of_the_formats_that_held_bodies_in_json(
    tmp_path, caplog, monkeypatch, old
):
    patches = [(code_index, "_encode_record", format3_record)]
    assert_old_archives_are_rebuilt(tmp_path, caplog, monkeypatch, old, 3, 2, patches)


@pytest.mark.parametrize("old", ["code", "embedding"])
def test_version_store_rebuilds_archives_of_the_formats_that_stored_derived_fields(
    tmp_path, caplog, monkeypatch, old
):
    chunk_spans = embedding._chunk_spans

    def format3_spans(text, chunks):  # each span also holds its chunk's token count
        return [[*span, len(tokenize(c.text))] for span, c in zip(chunk_spans(text, chunks), chunks)]

    patches = [(code_index, "_encode_record", format4_record), (embedding, "_chunk_spans", format3_spans)]
    assert_old_archives_are_rebuilt(tmp_path, caplog, monkeypatch, old, 4, 3, patches)


def save_format4_embedding_index(eindex, path, code, pool):
    """An embedding archive as format 4 wrote it: the header names the
    version, the packs of the record objects too, and each line is
    [fq_path, record key, vector key]."""
    saved = embedding.save_embedding_index(eindex, path, code, pool)
    paths = code.sorted_paths()
    record_keys = [code_index.store_record(pool, code.files[p]) for p in paths]
    name = embedding._namer(eindex.dimension, eindex.provider_id, eindex.chunk_limit)
    header = dict(json.loads(Path(path).read_text(encoding="utf-8")), format=4, version_id=code.version_id)
    header["packs"] = sorted(set(header.pop("packs")) | set(pool.pack(record_keys)))
    entries = [[p, r, name(r)] for p, r in zip(paths, record_keys)]
    text = "\n".join([json.dumps(header, sort_keys=True), *map(json.dumps, entries)]) + "\n"
    Path(path).write_text(text, encoding="utf-8")
    return saved


def test_version_store_rebuilds_embedding_archives_of_the_format_that_repeated_the_code_manifest(
    tmp_path, caplog, monkeypatch
):
    patches = [(harness, "save_embedding_index", save_format4_embedding_index)]
    assert_old_archives_are_rebuilt(tmp_path, caplog, monkeypatch, "embedding", 5, 4, patches)


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
    """The [fq_path, record key, file digest] lines of a code manifest."""
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def vector_pack(cache, version="v1"):
    """The one pack that the embedding manifest of `version` names."""
    (name,) = json.loads((cache / f"{version}.embed.jsonl").read_text(encoding="utf-8"))["packs"]
    return cache / "objects" / name


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
    assert f"ignoring the archive of v1: {v1_embed} counts 3 files, its code index 2" in caplog.text
    assert embed.file_paths == sorted(code.files) == ["org/A.java", "org/B.java"]
    assert v1_embed.read_bytes() == whole


@pytest.mark.parametrize(
    "which, line, refused",
    [(0, 1, "unreadable entry in"), (1, 0, "no archive header in"), (1, 1, "unreadable manifest")],
    ids=["code manifest", "embedding manifest", "embedding manifest line"],
)
def test_version_store_rebuilds_a_manifest_nested_deeper_than_the_recursion_limit(
    tmp_path, caplog, which, line, refused
):
    root = versioned_repo(tmp_path)
    cache = tmp_path / "cache"
    store = VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache)
    built = store.get("v1")
    manifest = store.archive_paths("v1")[which]
    lines = manifest.read_text(encoding="utf-8").splitlines()[:1]
    lines[line:] = ["[" * 100_000 + "]" * 100_000]
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, embed = get_fresh(root, cache, "v1", caplog)
    assert f"ignoring the archive of v1: {refused} {manifest}" in caplog.text
    assert code == built[0]
    assert (embed.chunks, embed.vectors.tolist()) == (built[1].chunks, built[1].vectors.tolist())


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
    assert "is in none of the packs read" in caplog.text  # the edited file's rows were never stored
    assert "edited" in code.files["org/A.java"].methods[0].body
    assert embed.file_paths == sorted(code.files)
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
@pytest.mark.parametrize("kind", ["record object", "vector object"])
def test_version_store_rebuilds_a_damaged_pack(tmp_path, caplog, monkeypatch, how, kind):
    root = versioned_repo(tmp_path)
    cache = tmp_path / "cache"
    VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache).get("v1")
    if kind == "record object":
        path = pack_holding(cache, manifest_entries(cache / "v1.code.jsonl")[1][1])
    else:
        path = vector_pack(cache)
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
    pack = vector_pack(cache)
    key = pack_index(pack)[0][0]  # the pack holds vector objects only: the records are in the code save's
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
    code, embed = loaded[-1]
    packs = json.loads(store.archive_paths(versions[-1])[1].read_text(encoding="utf-8"))["packs"]
    name = embedding._namer(embed.dimension, embed.provider_id, embed.chunk_limit)
    names = {name(code_index.store_record(store.objects, record)) for record in code.files.values()}
    held = [names & {key for key, _ in pack_index(cache / "objects" / pack)} for pack in packs]
    assert all(held) and set().union(*held) == names  # only the packs of its vector objects


def test_version_store_versions_loaded_from_archives_share_records_and_digests(tmp_path):
    root, cache = tmp_path / "repo", tmp_path / "cache"
    v1 = {
        "org/A.java": java_class("A", {"alpha": "a();", "shared": "s();"}),
        "org/B.java": java_class("B", {"beta": "b();", "shared": "s();"}),
        "org/C.java": java_class("C", {"gamma": "c();"}),
    }
    v2 = dict(v1, **{"org/C.java": java_class("C", {"delta": "d();"}), "org/D.java": java_class("D", {})})
    write_tree(root / "v1", v1)
    write_tree(root / "v2", v2)
    building = VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache)
    building.get("v1")
    building.get("v2")
    store = VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=cache)
    (code1, _), (code2, _) = store.get("v1"), store.get("v2")
    assert code2 == building.get("v2")[0]
    assert list(code2.method_locator.items()) == list(locator_oracle(code2.files).items())
    for path in ("org/A.java", "org/B.java"):
        assert code2.files[path] is code1.files[path]
        assert code2.digests[path] is code1.digests[path]
    assert code2.digests["org/C.java"] != code1.digests["org/C.java"]


# Computed with this code (code archive format 6, embedding archive format 7).
# They also depend on the parser, the chunker, the hashing embedder and
# perfbench/gen.py, so a change to any of them moves them.
GOLDEN_MANIFESTS = {
    "v0.code.jsonl": "882513b8780566f07820aaee92ab50df800f8cec7033c780dd67cdcfd07853de",
    "v0.embed.jsonl": "e3d1447b020494c83b79187b0888fc7997479d80cae5cad09d9b97b687a6e672",
    "v1.code.jsonl": "7ca97fa7dcb7413498de5c924bff348e7dbdb12ff9a9493b3bbed86cb62196d5",
    "v1.embed.jsonl": "184b181beafd02d6ef30bdb3d047d4744737bdcb689a4424e8d58233f3eccdea",
    "v2.code.jsonl": "079474e39224e5fdf7191ae5be60866c1cc836c85fbc240c5f65a42f5c7fb3f5",
    "v2.embed.jsonl": "40dbf2ce0d801083ad2c468c6b4c2a4f737b150b10de5dfb8f2fc453b6b8ff7e",
}
GOLDEN_PACKS = [
    "096da8fc7c95970303e58f7d9601319e4851681e686fdbf427f1679128267287",
    "1d7b41c555e70d703cebad534602523e892392566409dc1d2677162779ff465f",
    "207a7a82645350b0f6b2b605755ae3ffedb9fa2ecdf2bac38b73e1d7d9127c94",
    "4502ee3aeef71264d2acca67ff84cbb0898653f23d020e086abb4ba0234b3fc4",
    "47e1723c4d88b4e49f8dc9edb31d2687716b306f55f8e33373b70d53bd11e05a",
    "50049e7979c1acbf78d5c38883b29c6e71f8836f05bb845e1fe719124163d508",
]


def test_golden_archives_of_the_seed3_corpus_are_unchanged(tmp_path):
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        gen = importlib.import_module("gen")
    ds = gen.generate(3, 500, 34, 3, bug_versions=1)
    paths = gen.write_dataset(ds, tmp_path / "input")
    cache = tmp_path / "cache"
    store = VersionStore(paths["repo"], embedding_provider=HashingEmbedder(64), cache_dir=cache)
    for version in ds.versions:
        store.get(version)
    manifests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(cache.glob("*.jsonl"))}
    packs = sorted((cache / "objects").iterdir())
    assert manifests == GOLDEN_MANIFESTS
    assert [p.name for p in packs] == GOLDEN_PACKS
    assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in packs] == GOLDEN_PACKS
    for manifest in cache.glob("*.embed.jsonl"):  # one header line under 1 KB, at 500 files
        data = manifest.read_bytes()
        assert data.count(b"\n") == 1 and data.endswith(b"\n") and len(data) < 1024


# The sha256 of every file the version-chain set-up writes at seeds 1, 3
# and 7: the embedding cache file after each version and after the bug
# queries are embedded, each version's code and embedding manifests, and
# every pack. Computed with this code; they depend on what GOLDEN_MANIFESTS
# does, and on the cache file's format.
GOLDEN_CHAIN_FILES = {
    1: {
        "cache-after-v0": "8bfe94d32057e2daf9f257adb98aab3071fb5113d3ea427f8f963ef858a08689",
        "cache-after-v1": "aba316c7ee1b5757c10b2b792b9f4b94daea81c3c286d644437d628d8f4f1748",
        "cache-after-v2": "3a7462dc5502b592325680bd5aacbc96e6d7d2f5e0d2c01ad9e5574700d487cf",
        "cache-after-v3": "a7215537043687b16f8eb415936e976c75cafbb35c41313b888cd4b7778a3ca7",
        "cache-after-queries": "65514dc868454afd55b16fee764ce474111202e29b1e1793d35e1b6c1e5e552f",
        "v0.code.jsonl": "ad1c63f6671e1f850bcda3a1811850e6e984b6cbdcd82e8048bf1cea614edaa3",
        "v0.embed.jsonl": "8b75f02cc6e74a33dcffd16612f4170d95d68a34b66d69621a4fad00f1bd9a2f",
        "v1.code.jsonl": "15e6cd5e894b7865fd03fd064f53f37823c2dfc843dde18781aa7d7007321d97",
        "v1.embed.jsonl": "2ca1d45c3ba1a4fb94e9f0c1b7326b88478ec8fd2b386bb4681354743bff6b59",
        "v2.code.jsonl": "bd75c43fdc6d1a9451f887a01ac17d3e33f5a1004e0882062f94d66ca9b44cf8",
        "v2.embed.jsonl": "64e3bfdb94fe1c108683b5a3b237c0023faa33e2079e40ebcb726b06a4c2dccb",
        "v3.code.jsonl": "28edb53357b37eb8d06107bc01a8b724619dce294572aeefbc0170d9eb780176",
        "v3.embed.jsonl": "2a07657f04767c7f10c5cacfe7fec7f1e24e60dfd650e6fe7a0df1cf6815103f",
        "objects/135fb04d2edbfd1ea737c7aa8045dbffc450e950bb938239cb02b843edeae279": "135fb04d2edbfd1ea737c7aa8045dbffc450e950bb938239cb02b843edeae279",
        "objects/2aef4f57bf1d3641a4fcf4662cdfdaac4ed39ffedb04c6d4083fb7bbf536c0c7": "2aef4f57bf1d3641a4fcf4662cdfdaac4ed39ffedb04c6d4083fb7bbf536c0c7",
        "objects/41a55796f937e4c447f94a626f0077f0027f0f09121384d17c7e2fc80990dc45": "41a55796f937e4c447f94a626f0077f0027f0f09121384d17c7e2fc80990dc45",
        "objects/4e832fb6c36e4a6efdf65d027aa228d072c45ecf0979dc59220a22da41d347f9": "4e832fb6c36e4a6efdf65d027aa228d072c45ecf0979dc59220a22da41d347f9",
        "objects/9419d9e642ce1426a42b00c7cf05d017634d1970fa646ef754b034bf027d2577": "9419d9e642ce1426a42b00c7cf05d017634d1970fa646ef754b034bf027d2577",
        "objects/eec5f7cb74fce735b2ca786d944f40aad5042d768a62d4cdb5a9cf40d102c6fc": "eec5f7cb74fce735b2ca786d944f40aad5042d768a62d4cdb5a9cf40d102c6fc",
        "objects/f0d9f2f1ff52f9292188dd1480a0e5d6d7d43fdc808af015402b18841a79b736": "f0d9f2f1ff52f9292188dd1480a0e5d6d7d43fdc808af015402b18841a79b736",
        "objects/f4544d03851a0cb523e0d645eca04add5655a2d10a22c50c8bd5d4821ccfc844": "f4544d03851a0cb523e0d645eca04add5655a2d10a22c50c8bd5d4821ccfc844",
    },
    3: {
        "cache-after-v0": "de51b42036ba2aac64dec906ce30478776ae9f1897008cb542c269d1e73be1a0",
        "cache-after-v1": "f853e6cfc15c95c02ef3b071c1223fee5cdbbbd7639d805613feb8d834c601b5",
        "cache-after-v2": "913008cc34f72df91002d37cac960b462f9961861dccf3017bd972b1297677e2",
        "cache-after-v3": "eb51f7e23d9249dfad948c4fe8c2995b5422786f4db9c833fb1c81e04a83b54c",
        "cache-after-queries": "d2918034e1542189aa8007275483230236d7749ff85888db8c79d5be72d73595",
        "v0.code.jsonl": "882513b8780566f07820aaee92ab50df800f8cec7033c780dd67cdcfd07853de",
        "v0.embed.jsonl": "e02f2650ab73211af74c06ef55d8d9bbd39c8000e30e9c551e76190c2577ff9e",
        "v1.code.jsonl": "7ca97fa7dcb7413498de5c924bff348e7dbdb12ff9a9493b3bbed86cb62196d5",
        "v1.embed.jsonl": "0ea37fb8104b755212e69e1043783ac6d7b1212b8d698da62c4cc2559414d523",
        "v2.code.jsonl": "079474e39224e5fdf7191ae5be60866c1cc836c85fbc240c5f65a42f5c7fb3f5",
        "v2.embed.jsonl": "d9e80bc3bfeea65568a4c4f0c3cb6accaad319f9e76c614b449bb39aa47537b6",
        "v3.code.jsonl": "d378f25fa9d3a80f029d6eccd3642197c502efd6269194b94e2d27a95a032a15",
        "v3.embed.jsonl": "fe1400af1c0ea51bd4fc274ab931d20d41b04b4cf9835b5ac7b1eaac9b3e5488",
        "objects/1d7b41c555e70d703cebad534602523e892392566409dc1d2677162779ff465f": "1d7b41c555e70d703cebad534602523e892392566409dc1d2677162779ff465f",
        "objects/4502ee3aeef71264d2acca67ff84cbb0898653f23d020e086abb4ba0234b3fc4": "4502ee3aeef71264d2acca67ff84cbb0898653f23d020e086abb4ba0234b3fc4",
        "objects/47e1723c4d88b4e49f8dc9edb31d2687716b306f55f8e33373b70d53bd11e05a": "47e1723c4d88b4e49f8dc9edb31d2687716b306f55f8e33373b70d53bd11e05a",
        "objects/5303d8a39ee31d086f569f50d21247a0fde548059920d9950e956d3ee19b7d09": "5303d8a39ee31d086f569f50d21247a0fde548059920d9950e956d3ee19b7d09",
        "objects/55cbb4f55aa4d176d047b2473c23204173cdb5d942eeef37d8b7b27e4b9550df": "55cbb4f55aa4d176d047b2473c23204173cdb5d942eeef37d8b7b27e4b9550df",
        "objects/671ac45a8711c3bd0a53248539385314c40e4c6bd49910ab8a555e5aa1fa8c4d": "671ac45a8711c3bd0a53248539385314c40e4c6bd49910ab8a555e5aa1fa8c4d",
        "objects/7bc6960147ddba48854f139c986f4a6ade2f65cb87f6ad2bf8cea67db8a22418": "7bc6960147ddba48854f139c986f4a6ade2f65cb87f6ad2bf8cea67db8a22418",
        "objects/ec29984efa8671e47a9084ff8808c42b474599091968dbe8c239bff3a3f0f7b3": "ec29984efa8671e47a9084ff8808c42b474599091968dbe8c239bff3a3f0f7b3",
    },
    7: {
        "cache-after-v0": "b39328bb078ac89d1664af44b23ed8efbb6f62da40d7fe844f1d0a7dbde2cb61",
        "cache-after-v1": "0858a16d3534d27d0acc2f65e6664cc7f935af89904e4d483d948fe74f540c49",
        "cache-after-v2": "c0c7f56e50efd25bfaba50ee838ef83bb8b1f61346c3a4bcf1947447a32ac668",
        "cache-after-v3": "954e5d059def1b9fd837fafaaa957c22a4e303a7faca8d9a614a8ae371424765",
        "cache-after-queries": "c29afe6c5818d7e502eeac3c83b6a1c00a995f3014a2697da9b7535ce8322262",
        "v0.code.jsonl": "e259290cc28a3e3f37799966c3bc970b23516c69461057b438f0b729ed6cd48e",
        "v0.embed.jsonl": "9058e5ef39497f2ffb8ce11f21220bf67afd1f6a1e3e516776f3d247b55237a1",
        "v1.code.jsonl": "c5eb948b22f29e31bcf01c67d8bb3fe23989e49d8d28e0b7a6035f9397e5f6d4",
        "v1.embed.jsonl": "be39959e37865b1e88393db345bb36bbb9cbed4ba54d0bba450ae2d1a14bccd2",
        "v2.code.jsonl": "16c2489fb92ca43f7ecfaa55f2d6eb596d43b984161874d99405d9828a43b0b0",
        "v2.embed.jsonl": "e208b427390567fe4831ccafd522d0d0e1343a4b53f4482c43790ffc5d73273c",
        "v3.code.jsonl": "84385a439e60a3b0767d94456400997beb9cdd20a89de2f2cd610823c07da5b1",
        "v3.embed.jsonl": "00820623edf7f187d68289e153d638e38e45fda988fe8fb266071dd647a35fcf",
        "objects/00c38c01e8d20833f0a26a734b74c824750a38830c68981c4d995e25df9f1174": "00c38c01e8d20833f0a26a734b74c824750a38830c68981c4d995e25df9f1174",
        "objects/00d191f11a08616a2df765de01dbda3aa82ce6f0949147f332ca51ba26ff7670": "00d191f11a08616a2df765de01dbda3aa82ce6f0949147f332ca51ba26ff7670",
        "objects/386bab5fe2bbb50631598f2d494a4cb09663c18107d5051e79610d650aaeda0a": "386bab5fe2bbb50631598f2d494a4cb09663c18107d5051e79610d650aaeda0a",
        "objects/76a0d0b041ca9f9128dac99e15bf144660b86736dadc8b0a333b9be00f2a8912": "76a0d0b041ca9f9128dac99e15bf144660b86736dadc8b0a333b9be00f2a8912",
        "objects/b2e4b072c4be7fce9a3defe91fafd8f5e7730b3996c9ca32304b7c967ffd33e9": "b2e4b072c4be7fce9a3defe91fafd8f5e7730b3996c9ca32304b7c967ffd33e9",
        "objects/eb88b3fba8a65f3a1c39d46b8c756542ad61dfd3a848e0826c3156e6c4faa47b": "eb88b3fba8a65f3a1c39d46b8c756542ad61dfd3a848e0826c3156e6c4faa47b",
        "objects/ebdc8058ffc0d2e56b82b05c5c690944bdf93a28dd18fbae2976b4f077bbe22b": "ebdc8058ffc0d2e56b82b05c5c690944bdf93a28dd18fbae2976b4f077bbe22b",
        "objects/f91a039fec6c831faf08adaf3b0017209ab921cb3442179233a1b790c2ef2e1e": "f91a039fec6c831faf08adaf3b0017209ab921cb3442179233a1b790c2ef2e1e",
    },
}


def chain_files(seed, tmp_path):
    """name -> sha256 of each file written as the version-chain benchmark
    builds every version of `seed` with a file-backed cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        gen = importlib.import_module("gen")
    ds = gen.generate(seed, 500, 120, 4)
    paths = gen.write_dataset(ds, tmp_path / "input")
    cache, cache_file = tmp_path / "cache", tmp_path / "embeddings-cache.json"
    provider = CachedEmbedder(HashingEmbedder(128), cache_file)
    store = VersionStore(paths["repo"], embedding_provider=provider, cache_dir=cache)

    def sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    files = {}
    for version in ds.versions:
        store.get(version)
        files[f"cache-after-{version}"] = sha(cache_file)
    queries = [chunk_text(bug_text(bug)) for bug in load_bug_reports(paths["dataset"])]
    provider.embed_batch([chunk.text for chunks in queries for chunk in chunks])
    files["cache-after-queries"] = sha(cache_file)
    files.update((p.name, sha(p)) for p in sorted(cache.glob("*.jsonl")))
    files.update((f"objects/{p.name}", sha(p)) for p in sorted((cache / "objects").iterdir()))
    return files


@pytest.mark.parametrize("seed", sorted(GOLDEN_CHAIN_FILES))
def test_golden_files_of_the_version_chain_set_up_are_unchanged(tmp_path, seed):
    files = chain_files(seed, tmp_path)
    assert len(files) > 4 + 8  # cache states, manifests, then packs
    assert files == GOLDEN_CHAIN_FILES[seed]


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
    (record_key,) = [key for path, key, _ in manifest_entries(code_manifest) if path == "org/p1/C1.java"]
    code_pack, manifest, embed_pack, last = written
    assert (manifest, last) == (code_manifest, embed_manifest)
    assert [key for key, _ in pack_index(code_pack)] == [record_key]
    name = embedding._namer(16, HashingEmbedder(16).provider_id, 300)
    assert [key for key, _ in pack_index(embed_pack)] == [name(record_key)]


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


def test_update_index_parses_with_the_grammar_of_the_index(tmp_path, methodless_grammar):
    root = versioned_repo(tmp_path)
    index = build_index(root / "v1", "java-methodless", "v1")
    updated = update_index(index, Changeset(added=("org/C.java",)), root / "v2", "v2")
    assert updated.grammar == "java-methodless"
    assert updated == build_index(root / "v2", "java-methodless", "v2")


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
    assert same_embeddings(embed, build_embedding_index(fresh, provider))


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
    rankings = {}
    for result in outcome.report.per_bug:
        rankings.setdefault(result.run_id, []).append((result.bug_id, result.ranked_paths))
    assert sorted(rankings) == [1, 2, 3]
    # deterministic provider: zero variance across runs
    assert rankings[1] == rankings[2] == rankings[3]


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

    chat = ScriptedChatProvider([text_turn("never a parseable list")])
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
