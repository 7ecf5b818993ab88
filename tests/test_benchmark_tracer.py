"""The benchmark's tracer patches bugloc functions by the names their callers
import them under; a rename in bugloc must fail here, not in a traced run."""

import importlib
from pathlib import Path

from bugloc import HashingEmbedder, VsmLocalizer, harness, localizers, tools
from bugloc.harness import VersionStore
from bugloc.vsm import VsmModel
from conftest import java_class, make_bug, write_tree


def test_tracer_installs_counts_and_uninstalls(monkeypatch, two_file_repo):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer_module = importlib.import_module("tracer")
    modules = (harness, localizers, tools)
    before = [dict(vars(m)) for m in modules]
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        registry = localizers.make_tool_registry(two_file_repo[0], shortlist=None)
        registry.dispatch(tools.SEARCH_METHOD, {"name": "strat"})
        registry.dispatch(
            tools.GET_METHOD_BODY, {"method": "stpo", "fq_path": "org/apache/Catalina.java"}
        )
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    calls = {name: stats["calls"] for name, stats in tracer.aggregate().items()}
    assert calls["fuzzy.fuzzy_method_candidates"] == 1
    assert calls["tools.search_method"] == calls["tools.get_method_body"] == 1
    # four names scanned by the global search, two distances for the per-file match
    assert tracer.counts["fuzzy.names_scanned"] == 4 + 2


def test_tracer_times_vsm_fit_and_score_and_uninstalls(monkeypatch, two_file_repo):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer_module = importlib.import_module("tracer")
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        localizer = VsmLocalizer(top_n=2)
        for _ in range(2):
            localizer.fit(two_file_repo[0])
        for summary in ("label update", "server halt", "catalina start"):
            localizer.predict(make_bug(summary=summary))
    finally:
        tracer.uninstall()
    assert localizers.VsmModel is VsmModel
    calls = {name: stats["calls"] for name, stats in tracer.aggregate().items()}
    assert calls["vsm.fit"] == 2
    assert calls["vsm.score"] == 3


def test_tracer_times_a_two_version_chain_and_uninstalls(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer_module = importlib.import_module("tracer")
    root = tmp_path / "repo"
    v1 = {f"org/F{i}.java": java_class(f"F{i}", {f"m{i}": "a();"}) for i in range(3)}
    v2 = {**v1, "org/F0.java": java_class("F0", {"m0": "b();"}), "org/New.java": java_class("New", {})}
    write_tree(root / "v1", v1)
    write_tree(root / "v2", v2)
    before = dict(vars(harness))
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        store = VersionStore(root, embedding_provider=HashingEmbedder(16), cache_dir=tmp_path / "cache")
        store.get("v1")
        store.get("v2")
    finally:
        tracer.uninstall()
    assert dict(vars(harness)) == before
    calls = {name: stats["calls"] for name, stats in tracer.aggregate().items()}
    for name in (
        "code_index.build_index", "embedding.build_embedding_index", "code_index.diff_source_trees",
        "code_index.update_index", "embedding.update_embeddings",
    ):
        assert calls[name] == 1, name
    assert calls["code_index.save_code_index"] == calls["embedding.save_embedding_index"] == 2
    assert tracer.counts["code_index.files_parsed"] == len(v1) + 2
