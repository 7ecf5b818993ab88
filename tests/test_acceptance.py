"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance and time
budget is asserted here, not just eyeballed.
"""

from __future__ import annotations

import itertools
import random
import time

import numpy as np
import pytest

from bugloc.agent import AgentConfig, run_localization, transcript_to_json
from bugloc.chat import ScriptedChatProvider
from bugloc.code_index import Changeset, build_index, update_index
from bugloc.embedders import HashingEmbedder
from bugloc.embedding import build_embedding_index, chunk_text, shortlist_files, update_embeddings
from bugloc.fuzzy import damerau_levenshtein
from bugloc.localizers import AgentLocalizer, EmbeddingLocalizer, VsmLocalizer
from bugloc.metrics import LocalizationResult, accuracy_at_k, map_at_k, mrr_at_k, overlap_analysis
from bugloc.resolve import resolve_predictions
from bugloc.agent import RawPrediction
from bugloc.tokens import tokenize
from bugloc.tools import GET_CANDIDATE_FILENAMES, make_tool_registry
from conftest import final_answer, java_class, make_bug, same_embeddings, text_turn, tool_turn, write_tree
from oracles import accuracy_oracle, map_oracle, mrr_oracle


def _ok(criterion: str) -> None:
    print(f"ACCEPTANCE PASS: {criterion}")


# --- criterion 1: metric oracle equivalence ---------------------------------------


def _single_bug_cases():
    """Exhaustive single-bug space: every list length 0..10, every hit-position
    subset of size <= 3, every count of relevant files missing from the list."""
    for length in range(0, 11):
        ranking = [f"f{i}" for i in range(1, length + 1)]
        positions = list(range(1, length + 1))
        for n_hits in range(0, 4):
            for hits in itertools.combinations(positions, n_hits):
                for unretrieved in range(0, 4 - n_hits):
                    if n_hits + unretrieved == 0:
                        continue  # ground truth must be non-empty
                    truth = {f"f{p}" for p in hits} | {f"miss{u}" for u in range(unretrieved)}
                    yield ranking, truth


def test_criterion_1_metric_oracle_equivalence():
    start = time.perf_counter()
    cases = 0
    for ranking, truth in _single_bug_cases():
        rankings = {"b": ranking}
        truths = {"b": truth}
        results = [LocalizationResult("b", "t", 1, tuple(ranking))]
        for k in range(1, 11):
            assert abs(
                accuracy_at_k(results, truths, k) - accuracy_oracle(rankings, truths, k)
            ) <= 1e-12
            assert abs(mrr_at_k(results, truths, k) - mrr_oracle(rankings, truths, k)) <= 1e-12
            assert abs(map_at_k(results, truths, k) - map_oracle(rankings, truths, k)) <= 1e-12
        cases += 1

    rng = random.Random(1234)
    pool = [f"file{i}" for i in range(14)]
    for _ in range(300):
        rankings, truths = {}, {}
        for b in range(rng.randint(2, 6)):
            bug_id = f"b{b}"
            rankings[bug_id] = rng.sample(pool, rng.randint(0, 10))
            truths[bug_id] = set(rng.sample(pool, rng.randint(1, 3)))
        results = [
            LocalizationResult(bug_id, "t", 1, tuple(r)) for bug_id, r in rankings.items()
        ]
        for k in (1, 5, 10):
            assert abs(
                accuracy_at_k(results, truths, k) - accuracy_oracle(rankings, truths, k)
            ) <= 1e-12
            assert abs(mrr_at_k(results, truths, k) - mrr_oracle(rankings, truths, k)) <= 1e-12
            assert abs(map_at_k(results, truths, k) - map_oracle(rankings, truths, k)) <= 1e-12
        cases += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"metric sweep took {elapsed:.1f}s"
    _ok(f"1 metric oracle equivalence ({cases} result sets, {elapsed:.1f}s)")


# --- criterion 2: paper-anchored metric spot checks --------------------------------


def test_criterion_2_metric_spot_checks():
    ranking = [f"f{i}" for i in range(1, 11)]
    results = [LocalizationResult("b", "t", 1, tuple(ranking))]
    assert mrr_at_k(results, {"b": {"f5"}}, 10) == pytest.approx(0.2, abs=1e-12)

    rng = random.Random(42)
    pool = [f"p{i}" for i in range(12)]
    for _ in range(200):
        results, truths = [], {}
        for b in range(rng.randint(1, 6)):
            bug_id = f"b{b}"
            results.append(
                LocalizationResult(bug_id, "t", 1, tuple(rng.sample(pool, rng.randint(0, 10))))
            )
            truths[bug_id] = set(rng.sample(pool, rng.randint(1, 3)))
        a1 = accuracy_at_k(results, truths, 1)
        a5 = accuracy_at_k(results, truths, 5)
        a10 = accuracy_at_k(results, truths, 10)
        assert a1 <= a5 <= a10
    _ok("2 paper-anchored spot checks (rank-5 hit -> 0.2; Accuracy@1<=@5<=@10)")


# --- criterion 3: edit-distance oracle ----------------------------------------------


def _batched_osa_oracle(a_codes: np.ndarray, b_codes: np.ndarray) -> np.ndarray:
    """Full OSA recurrence evaluated in parallel over a batch of pairs.

    a_codes: (n, la); b_codes: (n, lb); returns (n,) distances.
    """
    n, la = a_codes.shape
    _, lb = b_codes.shape
    if la == 0:
        return np.full(n, lb, dtype=np.int16)
    if lb == 0:
        return np.full(n, la, dtype=np.int16)
    prev = np.repeat(np.arange(lb + 1, dtype=np.int16)[:, None], n, axis=1)
    prev2 = np.zeros_like(prev)
    for i in range(1, la + 1):
        cur = np.empty_like(prev)
        cur[0] = i
        ai = a_codes[:, i - 1]
        for j in range(1, lb + 1):
            cost = (ai != b_codes[:, j - 1]).astype(np.int16)
            best = np.minimum(prev[j] + 1, cur[j - 1] + 1)
            best = np.minimum(best, prev[j - 1] + cost)
            if i > 1 and j > 1:
                transposable = (ai == b_codes[:, j - 2]) & (a_codes[:, i - 2] == b_codes[:, j - 1])
                best = np.where(transposable, np.minimum(best, prev2[j - 2] + 1), best)
            cur[j] = best
        prev2, prev = prev, cur
    return prev[lb]


def test_criterion_3_edit_distance_oracle():
    start = time.perf_counter()
    assert damerau_levenshtein("abc", "acb") == 1
    assert damerau_levenshtein("ca", "abc") == 3

    strings = [""]
    for length in range(1, 7):
        strings += ["".join(p) for p in itertools.product("abc", repeat=length)]

    # Unordered pairs against the batched full DP, grouped by length pair.
    groups: dict[tuple[int, int], list[tuple[str, str]]] = {}
    for i, a in enumerate(strings):
        for b in strings[i:]:
            groups.setdefault((len(a), len(b)), []).append((a, b))

    total = 0
    for (la, lb), pairs in groups.items():
        impl = np.fromiter(
            (damerau_levenshtein(a, b) for a, b in pairs), dtype=np.int16, count=len(pairs)
        )
        a_codes = np.frombuffer("".join(a for a, _ in pairs).encode(), dtype=np.uint8).reshape(
            len(pairs), la
        ) if la else np.empty((len(pairs), 0), dtype=np.uint8)
        b_codes = np.frombuffer("".join(b for _, b in pairs).encode(), dtype=np.uint8).reshape(
            len(pairs), lb
        ) if lb else np.empty((len(pairs), 0), dtype=np.uint8)
        oracle = _batched_osa_oracle(a_codes, b_codes)
        mismatch = np.nonzero(impl != oracle)[0]
        assert mismatch.size == 0, f"first mismatch: {pairs[mismatch[0]]}"
        total += len(pairs)

    # Distance is symmetric; spot-check the implementation on a random sample.
    rng = random.Random(9)
    for _ in range(5000):
        a, b = rng.choice(strings), rng.choice(strings)
        assert damerau_levenshtein(a, b) == damerau_levenshtein(b, a)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"edit-distance sweep took {elapsed:.1f}s"
    _ok(f"3 edit-distance oracle ({total} unordered pairs, {elapsed:.1f}s)")


# --- criterion 4: incremental equivalence -------------------------------------------


def _apply_random_changeset(rng, root, paths, step):
    added, modified, deleted, renamed = [], [], [], []
    touched: set[str] = set()
    for _ in range(rng.randint(1, 5)):
        op = rng.choice(("add", "modify", "delete", "rename"))
        if op == "add":
            name = f"gen/S{step}N{rng.randrange(10**6)}.java"
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(
                java_class(f"G{rng.randrange(10**6)}", {f"m{rng.randrange(999)}": "a();"}),
                encoding="utf-8",
            )
            paths.add(name)
            touched.add(name)
            added.append(name)
        elif op == "modify":
            pool = sorted(paths - touched)
            if not pool:
                continue
            name = rng.choice(pool)
            (root / name).write_text(
                java_class("Mod", {f"c{rng.randrange(999)}": "b();"}), encoding="utf-8"
            )
            touched.add(name)
            modified.append(name)
        elif op == "delete":
            pool = sorted(paths - touched)
            if not pool:
                continue
            name = rng.choice(pool)
            (root / name).unlink()
            paths.discard(name)
            touched.add(name)
            deleted.append(name)
        else:
            pool = sorted(paths - touched)
            if not pool:
                continue
            name = rng.choice(pool)
            new_name = f"moved/S{step}R{rng.randrange(10**6)}.java"
            (root / new_name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).rename(root / new_name)
            paths.discard(name)
            paths.add(new_name)
            touched.add(name)
            touched.add(new_name)
            renamed.append((name, new_name))
    return Changeset(
        added=tuple(added), modified=tuple(modified), deleted=tuple(deleted), renamed=tuple(renamed)
    )


def test_criterion_4_incremental_equivalence(tmp_path):
    start = time.perf_counter()
    rng = random.Random(2025)
    root = tmp_path / "repo"
    files = {
        f"pkg{i % 5}/File{i}.java": java_class(
            f"File{i}", {f"method{i}": f"word{i} shared{i % 7};", "common": "c();"}
        )
        for i in range(50)
    }
    write_tree(root, files)
    paths = set(files)
    provider = HashingEmbedder(dimension=32)

    code = build_index(root, "java", "v0")
    embed = build_embedding_index(code, provider)
    for step in range(100):
        changeset = _apply_random_changeset(rng, root, paths, step)
        version = f"v{step + 1}"
        code = update_index(code, changeset, root, version)
        embed = update_embeddings(embed, changeset, code, provider)
        code_rebuilt = build_index(root, "java", version)
        embed_rebuilt = build_embedding_index(code_rebuilt, provider)
        assert code == code_rebuilt
        assert same_embeddings(embed, embed_rebuilt)
        assert embed.dimension == embed_rebuilt.dimension

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"incremental sweep took {elapsed:.1f}s"
    _ok(f"4 incremental equivalence (100 changesets over 50-file repo, {elapsed:.1f}s)")


# --- criterion 5: chunking contract ---------------------------------------------------


def test_criterion_5_chunking_contract():
    rng = random.Random(11)
    vocabulary = ["alpha", "beta_2", "(", ")", "{", "}", ";", ".", "zoomOut", "x9", "_lead"]
    for _ in range(150):
        n_tokens = rng.randint(1, 2000)
        words = [rng.choice(vocabulary) for _ in range(n_tokens)]
        text = ""
        for word in words:
            text += word + rng.choice([" ", "  ", "\n", "\t "])
        chunks = chunk_text(text, chunk_limit=300)
        assert all(len(tokenize(c.text)) <= 300 for c in chunks)
        reassembled = [t for c in chunks for t in tokenize(c.text)]
        assert reassembled == tokenize(text)
    _ok("5 chunking contract (<=300 tokens per chunk; exact token-stream reassembly)")


# --- criterion 6: retrieval sanity ----------------------------------------------------


def test_criterion_6_retrieval_sanity(tmp_path):
    files = {}
    for i in range(19):
        files[f"pkg/Noise{i}.java"] = java_class(
            f"Noise{i}", {f"filler{i}": f"unrelated{i} padding{i} stuff{i};"}
        )
    files["pkg/Planted.java"] = java_class(
        "Planted", {"zoomOut": "meterchart dialscale renderfail;"}
    )
    root = write_tree(tmp_path / "repo", files)
    index = build_index(root, "java", "v1")
    bug = make_bug(
        "bug-planted", "meterchart dialscale", "zoomOut renderfail", "v1",
        truth=["pkg/Planted.java"],
    )

    provider = HashingEmbedder(dimension=64)
    eindex = build_embedding_index(index, provider)
    shortlist = shortlist_files(bug, eindex, provider, k=50)
    assert shortlist.paths()[0] == "pkg/Planted.java"

    vsm_ranking = VsmLocalizer().fit(index).predict(bug).paths
    assert vsm_ranking[0] == "pkg/Planted.java"

    for ranking in (shortlist.paths()[:10], vsm_ranking):
        results = [LocalizationResult("bug-planted", "t", 1, tuple(ranking))]
        assert accuracy_at_k(results, {"bug-planted": {"pkg/Planted.java"}}, 1) == 1.0
    _ok("6 retrieval sanity (planted file rank 1 for embedding shortlist and VSM)")


# --- criterion 7: end-to-end replay ----------------------------------------------------


def _scenario_env(tmp_path):
    files = {
        "org/chart/AutoScale.java": java_class(
            "AutoScale", {"zoomOut": "scale /= step;", "render": "draw();"}
        ),
        "org/weaver/BcelClassWeaver.java": java_class(
            "BcelClassWeaver", {"weave": "transform();", "weaveClass": "apply();"}
        ),
        "org/other/Helper.java": java_class("Helper", {"assist": "help();"}),
    }
    root = write_tree(tmp_path, files)
    index = build_index(root, "java", "v1")
    provider = HashingEmbedder(dimension=64)
    eindex = build_embedding_index(index, provider)
    return index, eindex, provider


def test_criterion_7_end_to_end_replay(tmp_path):
    index, eindex, provider = _scenario_env(tmp_path / "repo")
    bug = make_bug("bug-replay", "zoomOut rendering failure", "stack trace mentions zoomOut")

    scenario_a = [  # method-name-driven navigation
        tool_turn("search_method", {"name": "zoomOut"}),
        tool_turn("get_method_body", {"method": "zoomOut"}),
        text_turn(final_answer(["org/chart/AutoScale.java"])),
    ]
    scenario_b = [  # candidate-filenames fallback
        tool_turn("search_file", {"name": "DB2PreparedStatement.java"}),
        tool_turn(GET_CANDIDATE_FILENAMES, {}),
        tool_turn("get_method_signatures_of_a_file", {"fq_path": "org/weaver/BcelClassWeaver.java"}),
        text_turn(final_answer(["org/weaver/BcelClassWeaver.java"])),
    ]
    scenario_c = [tool_turn("search_file", {"name": "Missing.java"})] * 9 + [
        text_turn(final_answer(["org/other/Helper.java"]))
    ]

    scenarios = {
        "a-method-navigation": (scenario_a, False, 3),
        "b-candidate-fallback": (scenario_b, True, 4),
        "c-forced-at-ten": (scenario_c, False, 10),
    }
    for name, (turns, with_candidates, expected_iterations) in scenarios.items():
        outputs = set()
        for _ in range(3):
            registry = make_tool_registry(
                index,
                shortlist=shortlist_files(bug, eindex, provider, k=50) if with_candidates else None,
            )
            predictions, transcript = run_localization(
                bug,
                registry,
                ScriptedChatProvider(turns),
                AgentConfig(),
            )
            assert transcript.failure_reason is None, (name, transcript.failure_reason)
            assert transcript.iterations_used == expected_iterations, name
            outputs.add(
                (
                    transcript_to_json(transcript).encode("utf-8"),
                    tuple((p.fq_path_claim, p.rank) for p in predictions),
                )
            )
        assert len(outputs) == 1, f"scenario {name} not byte-identical across runs"
    _ok("7 end-to-end replay (3 scenarios byte-identical across 3 runs each)")


# --- criterion 8: resolver soundness -----------------------------------------------------


def test_criterion_8_resolver_soundness(tmp_path):
    files = {
        "x/y/TitleBlock.java": java_class("TitleBlock", {"draw": "a();"}),
        "a/z/TitleBlock.java": java_class("TitleBlock", {"draw": "b();"}),
    }
    files.update(
        {
            f"m{i}/n{j}/Klass{i}.java": java_class(f"Klass{i}", {"go": "x();"})
            for i in range(6)
            for j in range(2)
        }
    )
    index = build_index(write_tree(tmp_path / "repo", files), "java", "v1")

    # hand-computed two-candidate case: claim tokens {a,b,title,block,java};
    # x/y candidate scores 3/7, a/z candidate scores 4/6 and must win
    resolved = resolve_predictions(
        [RawPrediction("a/b/TitleBlock.java", "claimed", 1)], index
    )
    assert resolved[0].fq_path == "a/z/TitleBlock.java"

    rng = random.Random(321)
    pool = sorted(index.files) + [
        "bogus/Klass0.java",
        "Klass3.java",
        "nowhere/Unknown.java",
        "m0/n0/KLASS0.java",
        "deep/er/Klass5.java",
    ]
    for _ in range(300):
        claims = [
            RawPrediction(rng.choice(pool), "j", i + 1)
            for i in range(rng.randint(0, 14))
        ]
        resolved = resolve_predictions(claims, index)
        survivors = [r for r in resolved if r.rank is not None]
        assert all(r.fq_path in index.files for r in survivors)
        assert [r.rank for r in survivors] == list(range(1, len(survivors) + 1))
        positions = [resolved.index(s) for s in survivors]
        assert positions == sorted(positions)
        assert len(survivors) <= 10
        again = resolve_predictions(
            [RawPrediction(s.fq_path, s.justification, i + 1) for i, s in enumerate(survivors)],
            index,
        )
        again_survivors = [r for r in again if r.rank is not None]
        assert [s.fq_path for s in again_survivors] == [s.fq_path for s in survivors]
    _ok("8 resolver soundness (existence, contiguity, order, idempotence, TitleBlock case)")


# --- criterion 9: ablation behavior --------------------------------------------------------


def test_criterion_9_ablation_behavior(tmp_path):
    index, eindex, provider = _scenario_env(tmp_path / "repo")
    bug = make_bug("bug-ablate", "zoomOut rendering failure", "dial chart")

    # noembed: tool absent from prompt and dispatch
    chat = ScriptedChatProvider(
        [
            tool_turn(GET_CANDIDATE_FILENAMES, {}),
            text_turn(final_answer(["org/chart/AutoScale.java"])),
        ]
    )
    localizer = AgentLocalizer(chat_provider=chat).fit(index)
    prediction = localizer.predict(bug)
    assert prediction.paths == ["org/chart/AutoScale.java"]
    transcript = prediction.transcript
    assert GET_CANDIDATE_FILENAMES not in transcript.messages[0].content
    tool_message = next(m for m in transcript.messages if m.role == "tool")
    assert "not available" in tool_message.tool_result

    # embedding_only: output is exactly the shortlist's top-10 prefix
    embedding_localizer = EmbeddingLocalizer(provider, shortlist_k=50, top_n=10).fit(index, eindex)
    expected = shortlist_files(bug, eindex, provider, k=50).paths()[:10]
    assert embedding_localizer.predict(bug).paths == expected
    _ok("9 ablation behavior (noembed prompt+dispatch; embedding_only = shortlist prefix)")


# --- criterion 10: overlap partition ----------------------------------------------------------


def test_criterion_10_overlap_partition():
    rng = random.Random(654)
    for _ in range(150):
        bug_ids = [f"b{i}" for i in range(rng.randint(2, 12))]
        truths = {bug_id: {f"{bug_id}-target"} for bug_id in bug_ids}
        per_technique = {}
        for technique in ("genloc", "embedding_only", "vsm", "noembed")[: rng.randint(2, 4)]:
            results = []
            for run_id in range(1, rng.randint(1, 3) + 1):
                for bug_id in bug_ids:
                    hit = rng.random() < 0.5
                    ranked = [f"{bug_id}-target"] if hit else [f"{bug_id}-wrong"]
                    results.append(
                        LocalizationResult(bug_id, technique, run_id, tuple(ranked))
                    )
            per_technique[technique] = results
        stats = overlap_analysis(per_technique, truths, k=10)
        for stat in stats.values():
            assert stat.localized == stat.overlapping | stat.unique
            assert not (stat.overlapping & stat.unique)
            assert len(stat.localized) == len(stat.overlapping) + len(stat.unique)
        union_of_unique = set()
        for stat in stats.values():
            assert not (union_of_unique & stat.unique)
            union_of_unique |= stat.unique
    _ok("10 overlap partition (localized = overlapping + unique per technique)")
