import random

import pytest

from bugloc.metrics import (
    DataError,
    EvalReport,
    LocalizationResult,
    MetricError,
    accuracy_at_k,
    aggregate_runs,
    average_precision,
    build_report,
    map_at_k,
    mrr_at_k,
    overlap_analysis,
)
from oracles import accuracy_oracle, map_oracle, mrr_oracle


def results_from(rankings: dict[str, list[str]], technique="t", run_id=1):
    return [
        LocalizationResult(bug_id, technique, run_id, tuple(ranking))
        for bug_id, ranking in rankings.items()
    ]


def truths_for(rankings, truths):
    return {bug_id: set(files) for bug_id, files in truths.items()}


# --- paper-anchored spot checks -------------------------------------------------


def test_rank_five_hit_contributes_point_two():
    rankings = {"b1": [f"f{i}" for i in range(1, 11)]}
    truths = {"b1": {"f5"}}
    assert mrr_at_k(results_from(rankings), truths, 10) == pytest.approx(0.2)


def test_miss_contributes_zero():
    rankings = {"b1": ["a", "b"]}
    truths = {"b1": {"z"}}
    assert mrr_at_k(results_from(rankings), truths, 10) == 0.0


def test_mrr_direct_evaluation():
    rankings = {"b1": ["hit", "x"], "b2": ["x", "y"], "b3": ["x", "y", "z", "hit3"]}
    truths = {"b1": {"hit"}, "b2": {"nope"}, "b3": {"hit3"}}
    assert mrr_at_k(results_from(rankings), truths, 10) == pytest.approx((1 + 0 + 0.25) / 3)


def test_accuracy_direct_count():
    rankings = {"b1": ["hit", "x"], "b2": ["x", "y"], "b3": ["x", "y", "z", "hit3"]}
    truths = {"b1": {"hit"}, "b2": {"nope"}, "b3": {"hit3"}}
    results = results_from(rankings)
    assert accuracy_at_k(results, truths, 5) == pytest.approx(2 / 3)
    assert accuracy_at_k(results, truths, 1) == pytest.approx(1 / 3)


def test_accuracy_all_rank_one():
    rankings = {f"b{i}": ["hit"] for i in range(4)}
    truths = {f"b{i}": {"hit"} for i in range(4)}
    results = results_from(rankings)
    for k in (1, 5, 10):
        assert accuracy_at_k(results, truths, k) == 1.0


def test_ap_single_relevant_at_rank_one():
    assert average_precision(["hit", "x"], {"hit"}, 10) == 1.0


def test_ap_two_relevant_ranks_one_and_three():
    assert average_precision(["hit1", "x", "hit2"], {"hit1", "hit2"}, 10) == pytest.approx(
        (1 / 1 + 2 / 3) / 2
    )


def test_ap_denominator_counts_unretrieved_relevant():
    # one relevant at rank 2, the other outside the top 10 entirely
    ranking = ["x", "hit1"] + [f"pad{i}" for i in range(20)]
    assert average_precision(ranking, {"hit1", "hit-outside"}, 10) == pytest.approx(0.25)


def test_ap_is_one_iff_relevant_occupy_top_ranks():
    assert average_precision(["h1", "h2", "x"], {"h1", "h2"}, 10) == 1.0
    assert average_precision(["h1", "x", "h2"], {"h1", "h2"}, 10) < 1.0


# --- errors ---------------------------------------------------------------------


def test_empty_result_set_is_metric_error():
    with pytest.raises(MetricError):
        accuracy_at_k([], {}, 1)
    with pytest.raises(MetricError):
        mrr_at_k([], {}, 10)
    with pytest.raises(MetricError):
        map_at_k([], {}, 10)


def test_empty_ground_truth_is_data_error():
    results = results_from({"b1": ["a"]})
    with pytest.raises(DataError):
        map_at_k(results, {"b1": set()}, 10)
    with pytest.raises(DataError):
        accuracy_at_k(results, {}, 1)


# --- oracle sweep -----------------------------------------------------------------


def random_case(rng):
    n_bugs = rng.randint(1, 6)
    rankings, truths = {}, {}
    pool = [f"file{i}" for i in range(15)]
    for b in range(n_bugs):
        bug_id = f"b{b}"
        length = rng.randint(0, 10)
        rankings[bug_id] = rng.sample(pool, length)
        n_rel = rng.randint(1, 3)
        truth = set(rng.sample(pool, n_rel))
        truths[bug_id] = truth
    return rankings, truths


def test_metrics_match_brute_force_oracle():
    rng = random.Random(2024)
    for _ in range(400):
        rankings, truths = random_case(rng)
        results = results_from(rankings)
        for k in (1, 3, 5, 10):
            assert accuracy_at_k(results, truths, k) == pytest.approx(
                accuracy_oracle(rankings, truths, k), abs=1e-12
            )
            assert mrr_at_k(results, truths, k) == pytest.approx(
                mrr_oracle(rankings, truths, k), abs=1e-12
            )
            assert map_at_k(results, truths, k) == pytest.approx(
                map_oracle(rankings, truths, k), abs=1e-12
            )


def test_monotonicity_and_mrr_bound_random_sweep():
    rng = random.Random(77)
    for _ in range(200):
        rankings, truths = random_case(rng)
        results = results_from(rankings)
        acc = [accuracy_at_k(results, truths, k) for k in (1, 5, 10)]
        assert acc[0] <= acc[1] <= acc[2]
        for k in (1, 5, 10):
            assert mrr_at_k(results, truths, k) <= accuracy_at_k(results, truths, k) + 1e-12
        assert 0.0 <= map_at_k(results, truths, 10) <= 1.0


# --- first_hit_rank ---------------------------------------------------------------


def test_from_ranking_first_hit():
    result = LocalizationResult.from_ranking("b", "t", 1, ["x", "hit", "hit2"], {"hit", "hit2"})
    assert result.first_hit_rank == 2
    miss = LocalizationResult.from_ranking("b", "t", 1, ["x"], {"hit"})
    assert miss.first_hit_rank is None


# --- aggregation -------------------------------------------------------------------


def make_report(acc1, technique="t", run_id=1):
    rankings = {"b1": ["hit"] if acc1 else ["x"], "b2": ["hit2"]}
    truths = {"b1": {"hit"}, "b2": {"hit2"}}
    return build_report(results_from(rankings, technique, run_id), truths, technique)


def test_aggregate_identical_runs_equals_single():
    reports = [make_report(True, run_id=i) for i in (1, 2, 3)]
    agg = aggregate_runs(reports)
    assert agg.accuracy_at == reports[0].accuracy_at
    assert agg.mrr_at_10 == reports[0].mrr_at_10
    assert len(agg.per_bug) == 6  # per-run results kept


def test_aggregate_means_metrics():
    r1 = EvalReport("t", {1: 0.4, 5: 0.5, 10: 0.6}, 0.3, 0.2, results_from({"b": ["x"]}))
    r2 = EvalReport("t", {1: 0.5, 5: 0.6, 10: 0.7}, 0.4, 0.3, results_from({"b": ["x"]}))
    r3 = EvalReport("t", {1: 0.6, 5: 0.7, 10: 0.8}, 0.5, 0.4, results_from({"b": ["x"]}))
    agg = aggregate_runs([r1, r2, r3])
    assert agg.accuracy_at[1] == pytest.approx(0.5)
    assert agg.mrr_at_10 == pytest.approx(0.4)
    assert agg.map_at_10 == pytest.approx(0.3)


def test_aggregate_rejects_mismatched_bug_sets():
    r1 = EvalReport("t", {1: 0.5}, 0.5, 0.5, results_from({"b1": ["x"]}))
    r2 = EvalReport("t", {1: 0.5}, 0.5, 0.5, results_from({"b2": ["x"]}))
    with pytest.raises(DataError):
        aggregate_runs([r1, r2])


# --- overlap ------------------------------------------------------------------------


def test_overlap_identical_hit_sets():
    truths = {"b1": {"f"}, "b2": {"g"}}
    per_technique = {
        "A": results_from({"b1": ["f"], "b2": ["g"]}, "A"),
        "B": results_from({"b1": ["f"], "b2": ["g"]}, "B"),
    }
    stats = overlap_analysis(per_technique, truths)
    assert stats["A"].unique == frozenset()
    assert stats["B"].unique == frozenset()
    assert stats["A"].localized == frozenset({"b1", "b2"})


def test_overlap_set_arithmetic_example():
    truths = {"1": {"f1"}, "2": {"f2"}, "3": {"f3"}}
    per_technique = {
        "A": results_from({"1": ["f1"], "2": ["f2"], "3": ["x"]}, "A"),
        "B": results_from({"1": ["x"], "2": ["f2"], "3": ["f3"]}, "B"),
    }
    stats = overlap_analysis(per_technique, truths)
    assert stats["A"].counts == (2, 1, 1)
    assert stats["B"].counts == (2, 1, 1)
    assert stats["A"].unique == frozenset({"1"})


def test_overlap_requires_two_techniques():
    with pytest.raises(ValueError):
        overlap_analysis({"A": results_from({"b": ["x"]})}, {"b": {"x"}})


def test_overlap_union_across_runs():
    truths = {"b1": {"f"}, "b2": {"g"}}
    run1 = results_from({"b1": ["f"], "b2": ["x"]}, "A", run_id=1)
    run2 = results_from({"b1": ["x"], "b2": ["g"]}, "A", run_id=2)
    per_technique = {
        "A": run1 + run2,
        "B": results_from({"b1": ["x"], "b2": ["x"]}, "B"),
    }
    stats = overlap_analysis(per_technique, truths)
    assert stats["A"].localized == frozenset({"b1", "b2"})


def test_overlap_partition_random_sweep():
    rng = random.Random(5)
    for _ in range(100):
        bug_ids = [f"b{i}" for i in range(rng.randint(2, 10))]
        truths = {bug_id: {f"{bug_id}-hit"} for bug_id in bug_ids}
        per_technique = {}
        for technique in ("A", "B", "C")[: rng.randint(2, 3)]:
            rankings = {
                bug_id: ([f"{bug_id}-hit"] if rng.random() < 0.5 else ["miss"])
                for bug_id in bug_ids
            }
            per_technique[technique] = results_from(rankings, technique)
        stats = overlap_analysis(per_technique, truths)
        for stat in stats.values():
            assert stat.localized == stat.overlapping | stat.unique
            assert not (stat.overlapping & stat.unique)
