"""Ranking metrics and cross-technique analysis.

Accuracy@k counts bugs whose first relevant file sits in the top k. MRR@k
averages 1/rank of that first hit (0 beyond k). MAP@k averages per-bug average
precision, whose denominator is the bug's total number of relevant files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence


class MetricError(ValueError):
    """Metric undefined for the given inputs (e.g. no results at all)."""


class DataError(ValueError):
    """Input records are malformed (missing ground truth, mismatched runs...)."""


@dataclass(frozen=True)
class LocalizationResult:
    bug_id: str
    technique: str
    run_id: int
    ranked_paths: tuple[str, ...]
    first_hit_rank: int | None = None

    @classmethod
    def from_ranking(
        cls,
        bug_id: str,
        technique: str,
        run_id: int,
        ranked_paths: Sequence[str],
        ground_truth: Iterable[str],
    ) -> "LocalizationResult":
        first_hit = _first_hit(ranked_paths, set(ground_truth))
        return cls(bug_id, technique, run_id, tuple(ranked_paths), first_hit)


def _first_hit(ranked_paths: Sequence[str], truth: set) -> int | None:
    """1-based rank of the first path in `truth`; None when there is none."""
    for position, path in enumerate(ranked_paths, start=1):
        if path in truth:
            return position
    return None


def _truth_for(result: LocalizationResult, ground_truths: Mapping[str, Iterable[str]]) -> set:
    try:
        truth = set(ground_truths[result.bug_id])
    except KeyError:
        raise DataError(f"no ground truth for bug {result.bug_id}") from None
    if not truth:
        raise DataError(f"empty ground truth for bug {result.bug_id}")
    return truth


def accuracy_at_k(
    results: Sequence[LocalizationResult],
    ground_truths: Mapping[str, Iterable[str]],
    k: int,
) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    if not results:
        raise MetricError("accuracy is undefined for an empty result set")
    hits = 0
    for result in results:
        rank = _first_hit(result.ranked_paths, _truth_for(result, ground_truths))
        if rank is not None and rank <= k:
            hits += 1
    return hits / len(results)


def mrr_at_k(
    results: Sequence[LocalizationResult],
    ground_truths: Mapping[str, Iterable[str]],
    k: int = 10,
) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    if not results:
        raise MetricError("MRR is undefined for an empty result set")
    total = 0.0
    for result in results:
        rank = _first_hit(result.ranked_paths, _truth_for(result, ground_truths))
        if rank is not None and rank <= k:
            total += 1.0 / rank
    return total / len(results)


def average_precision(ranked_paths: Sequence[str], truth: set, k: int) -> float:
    relevant_seen = 0
    total = 0.0
    for position, path in enumerate(ranked_paths[:k], start=1):
        if path in truth:
            relevant_seen += 1
            total += relevant_seen / position
    return total / len(truth)


def map_at_k(
    results: Sequence[LocalizationResult],
    ground_truths: Mapping[str, Iterable[str]],
    k: int = 10,
) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    if not results:
        raise MetricError("MAP is undefined for an empty result set")
    total = 0.0
    for result in results:
        truth = _truth_for(result, ground_truths)
        total += average_precision(result.ranked_paths, truth, k)
    return total / len(results)


@dataclass
class EvalReport:
    technique: str
    accuracy_at: dict[int, float]
    mrr_at_10: float
    map_at_10: float
    per_bug: list[LocalizationResult] = field(default_factory=list)


def build_report(
    results: Sequence[LocalizationResult],
    ground_truths: Mapping[str, Iterable[str]],
    technique: str,
    ks: tuple[int, ...] = (1, 5, 10),
) -> EvalReport:
    return EvalReport(
        technique=technique,
        accuracy_at={k: accuracy_at_k(results, ground_truths, k) for k in ks},
        mrr_at_10=mrr_at_k(results, ground_truths, 10),
        map_at_10=map_at_k(results, ground_truths, 10),
        per_bug=list(results),
    )


def aggregate_runs(reports: Sequence[EvalReport]) -> EvalReport:
    """Arithmetic mean of each metric across repeated runs.

    All runs must cover the same bug set; per-bug results of every run are
    kept for overlap analysis.
    """
    if not reports:
        raise DataError("no run reports to aggregate")
    bug_sets = [frozenset(r.bug_id for r in report.per_bug) for report in reports]
    if any(bugs != bug_sets[0] for bugs in bug_sets[1:]):
        raise DataError("runs cover different bug sets")
    ks = sorted(reports[0].accuracy_at)
    count = len(reports)
    return EvalReport(
        technique=reports[0].technique,
        accuracy_at={k: sum(r.accuracy_at[k] for r in reports) / count for k in ks},
        mrr_at_10=sum(r.mrr_at_10 for r in reports) / count,
        map_at_10=sum(r.map_at_10 for r in reports) / count,
        per_bug=[result for report in reports for result in report.per_bug],
    )


@dataclass(frozen=True)
class OverlapStats:
    technique: str
    localized: frozenset[str]
    overlapping: frozenset[str]
    unique: frozenset[str]

    @property
    def counts(self) -> tuple[int, int, int]:
        return len(self.localized), len(self.overlapping), len(self.unique)


def overlap_analysis(
    per_technique: Mapping[str, Sequence[LocalizationResult]],
    ground_truths: Mapping[str, Iterable[str]],
    k: int = 10,
) -> dict[str, OverlapStats]:
    """Which bugs each technique localizes in the top k, and which it alone
    localizes. A technique's set is the union over all its runs, so a
    nondeterministic technique is credited with every bug it ever hit."""
    if len(per_technique) < 2:
        raise ValueError("overlap analysis needs at least two techniques")
    localized: dict[str, set[str]] = {}
    for technique, results in per_technique.items():
        hits: set[str] = set()
        for result in results:
            rank = _first_hit(result.ranked_paths, _truth_for(result, ground_truths))
            if rank is not None and rank <= k:
                hits.add(result.bug_id)
        localized[technique] = hits
    out: dict[str, OverlapStats] = {}
    for technique, hits in localized.items():
        others: set[str] = set()
        for other, other_hits in localized.items():
            if other != technique:
                others |= other_hits
        unique = hits - others
        out[technique] = OverlapStats(
            technique=technique,
            localized=frozenset(hits),
            overlapping=frozenset(hits - unique),
            unique=frozenset(unique),
        )
    return out
