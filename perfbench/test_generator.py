"""Tests of the benchmark's input generator (gen.py)."""

from __future__ import annotations

import re
from collections import Counter

import pytest

import gen
from bugloc import HashingEmbedder, build_embedding_index, build_index, load_bug_reports, shortlist_files
from bugloc.agent import parse_final_answer
from bugloc.chat import ScriptedChatProvider
from bugloc.code_index import diff_source_trees
from bugloc.resolve import resolve_predictions, surviving_paths
from bugloc.vsm import VsmModel

N_FILES, N_BUGS, N_VERSIONS = 120, 40, 4


@pytest.fixture(scope="module")
def dataset():
    return gen.generate(7, N_FILES, N_BUGS, N_VERSIONS)


@pytest.fixture(scope="module")
def written(dataset, tmp_path_factory):
    return gen.write_dataset(dataset, tmp_path_factory.mktemp("bench-input"))


def test_same_seed_same_inputs_and_other_seed_differs(dataset):
    again = gen.generate(7, N_FILES, N_BUGS, N_VERSIONS)
    assert again.trees == dataset.trees
    assert again.bugs == dataset.bugs
    assert again.replays == dataset.replays
    assert again.changesets == dataset.changesets
    assert gen.generate(8, N_FILES, N_BUGS, N_VERSIONS).trees[0] != dataset.trees[0]


def test_vocabulary_is_zipf_so_idf_weights_vary(dataset):
    words = Counter(re.findall(r"\b[a-z]+\b", " ".join(dataset.trees[0].values())))
    counts = sorted(words.values(), reverse=True)
    assert counts[0] > 20 * counts[len(counts) // 2]
    model = VsmModel(dataset.trees[0])
    weights = [w for term, w in model.idf.items() if term.isalpha()]
    assert sum(w > 0 for w in weights) > 0.9 * len(weights)
    assert max(weights) > 3 * min(w for w in weights if w > 0)


def test_method_names_are_camel_case_and_repeat_across_files(written):
    code = build_index(written["repo"] / "v0", "java", "v0")
    assert len(code.files) == N_FILES and all(r.parse_ok for r in code.files.values())
    names = [m.name for r in code.files.values() for m in r.methods]
    assert all(re.fullmatch(r"[a-z]+(?:[A-Z][a-z]+)*", n) for n in names)
    assert 0.3 < len(set(names)) / len(names) < 0.8
    assert max(len(paths) for paths in code.method_locator.values()) >= 10


def test_changesets_are_what_a_tree_diff_finds(dataset, written):
    for i, change in enumerate(dataset.changesets):
        old, new = written["repo"] / f"v{i}", written["repo"] / f"v{i + 1}"
        found = diff_source_trees(old, new)
        assert list(found.added) == change["added"]
        assert list(found.modified) == change["modified"]
        assert list(found.deleted) == change["deleted"]
        assert [list(pair) for pair in found.renamed] == change["renamed"]
        touched = sum(len(v) for v in change.values())
        assert 0.01 <= touched / len(dataset.trees[i]) <= 0.05


def test_reports_quote_their_ground_truth(dataset, written):
    bugs = load_bug_reports(written["dataset"])
    assert [b.bug_id for b in bugs] == [b["bug_id"] for b in dataset.bugs]
    assert any(len(b.ground_truth) > 1 for b in bugs)
    versions = set()
    for bug in bugs:
        tree = dataset.trees[int(bug.version_id[1:])]
        versions.add(bug.version_id)
        assert all(path in tree for path in bug.ground_truth)
        if dataset.plan[bug.bug_id]["report"] == "specific":
            text = f"{bug.summary} {bug.description}"
            assert any(path.rsplit("/", 1)[-1][:-5] in text for path in bug.ground_truth)
    assert len(versions) == N_VERSIONS


def test_shortlist_recall_is_strictly_between_0_and_1(written):
    code = build_index(written["repo"] / "v0", "java", "v0")
    embedder = HashingEmbedder(128)
    eindex = build_embedding_index(code, embedder)
    bugs = [b for b in load_bug_reports(written["dataset"]) if b.version_id == "v0"]
    hits = [any(p in b.ground_truth for p in shortlist_files(b, eindex, embedder, k=10).paths()) for b in bugs]
    assert 0 < sum(hits) < len(hits)


def test_replays_mix_all_tools_and_resolve_as_planned(dataset, written):
    indexes = {v: build_index(written["repo"] / v, "java", v) for v in dataset.versions}
    outcomes = Counter()
    forced = misspelled = 0
    for bug in dataset.bugs:
        replay = ScriptedChatProvider.from_file(written["replays"] / f"{bug['bug_id']}.json")
        calls = [t.tool_call.name for t in replay.turns[:-1]]
        assert set(calls) == set(gen.TOOL_NAMES)
        plan = dataset.plan[bug["bug_id"]]
        forced += plan["forced"]
        misspelled += plan["misspelled"]
        if plan["forced"]:
            assert len(calls) == gen.MAX_ITERATIONS - 1
        raw = parse_final_answer(replay.turns[-1].content)
        resolved = resolve_predictions(raw, indexes[bug["version_id"]])
        assert surviving_paths(resolved) == dataset.expected[bug["bug_id"]]
        outcomes.update(r.resolution for r in resolved)
    assert forced and misspelled
    assert set(outcomes) == {"exact", "basename_jaccard", "dropped-excluded"}
