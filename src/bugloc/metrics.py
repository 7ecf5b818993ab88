"""Ranking metrics and cross-technique analysis.

Accuracy@k counts bugs whose first relevant file sits in the top k. MRR@k
averages 1/rank of that first hit (0 beyond k). MAP@k averages per-bug average
precision, whose denominator is the bug's total number of relevant files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence


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


def sum_left_to_right(values: Iterable[float]) -> float:
    """0.0 plus each value in turn. Builtin sum() compensates float error
    from Python 3.12 on, so a total it makes depends on the interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


def _defined(metric: str, results: Sequence[LocalizationResult], k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if not results:
        raise MetricError(f"{metric} is undefined for an empty result set")


def _top_k_hits(
    results: Iterable[LocalizationResult], ground_truths: Mapping[str, Iterable[str]], k: int
) -> Iterator[tuple[LocalizationResult, set, int | None]]:
    """Each result, its bug's ground truth, and the rank of its first hit if
    that lies in the top k, else None."""
    for result in results:
        truth = _truth_for(result, ground_truths)
        rank = _first_hit(result.ranked_paths, truth)
        yield result, truth, rank if rank is not None and rank <= k else None


def accuracy_at_k(
    results: Sequence[LocalizationResult],
    ground_truths: Mapping[str, Iterable[str]],
    k: int,
) -> float:
    _defined("accuracy", results, k)
    hits = sum(rank is not None for _, _, rank in _top_k_hits(results, ground_truths, k))
    return hits / len(results)


def mrr_at_k(
    results: Sequence[LocalizationResult],
    ground_truths: Mapping[str, Iterable[str]],
    k: int = 10,
) -> float:
    _defined("MRR", results, k)
    ranks = [rank for _, _, rank in _top_k_hits(results, ground_truths, k) if rank is not None]
    return sum_left_to_right(1.0 / rank for rank in ranks) / len(results)


def average_precision(ranked_paths: Sequence[str], truth: set, k: int) -> float:
    hits = [position for position, path in enumerate(ranked_paths[:k], start=1) if path in truth]
    return sum_left_to_right(seen / position for seen, position in enumerate(hits, start=1)) / len(truth)


def map_at_k(
    results: Sequence[LocalizationResult],
    ground_truths: Mapping[str, Iterable[str]],
    k: int = 10,
) -> float:
    _defined("MAP", results, k)
    precisions = [
        average_precision(result.ranked_paths, truth, k)
        for result, truth, _ in _top_k_hits(results, ground_truths, k)
    ]
    return sum_left_to_right(precisions) / len(results)


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

    def mean(values) -> float:
        return sum_left_to_right(values) / len(reports)

    return EvalReport(
        technique=reports[0].technique,
        accuracy_at={k: mean(r.accuracy_at[k] for r in reports) for k in ks},
        mrr_at_10=mean(r.mrr_at_10 for r in reports),
        map_at_10=mean(r.map_at_10 for r in reports),
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
    localized = {
        technique: {
            result.bug_id for result, _, rank in _top_k_hits(results, ground_truths, k) if rank is not None
        }
        for technique, results in per_technique.items()
    }
    out: dict[str, OverlapStats] = {}
    for technique, hits in localized.items():
        unique = hits.difference(*(others for other, others in localized.items() if other != technique))
        out[technique] = OverlapStats(
            technique=technique,
            localized=frozenset(hits),
            overlapping=frozenset(hits - unique),
            unique=frozenset(unique),
        )
    return out
