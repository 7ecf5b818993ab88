"""Post-processing of raw model predictions into verified existing files.

An exact path claim is kept as-is. Otherwise the claim's basename is matched
against the index and the candidate whose path tokens have the highest Jaccard
similarity with the claimed path wins; claims with no same-basename file are
dropped, and surviving ranks close up.
"""

from __future__ import annotations

from dataclasses import dataclass

from .code_index import CodeIndex
from .agent import RawPrediction
from .tokens import camel_split

RESOLUTION_EXACT = "exact"
RESOLUTION_JACCARD = "basename_jaccard"
RESOLUTION_DROPPED = "dropped-excluded"


@dataclass(frozen=True)
class ResolvedPrediction:
    fq_path: str
    rank: int | None  # 1-based and contiguous for surviving entries; None when dropped
    resolution: str
    justification: str


def jaccard_similarity(a: set, b: set) -> float:
    """|a ∩ b| / |a ∪ b|; two empty sets count as identical (1.0)."""
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def path_token_set(path: str) -> set[str]:
    """Lowercased tokens of a path split on '/', '.', and camelCase boundaries."""
    tokens: set[str] = set()
    for segment in path.replace(".", "/").split("/"):
        for part in camel_split(segment):
            tokens.add(part.lower())
    return tokens


def resolve_predictions(
    raw: list[RawPrediction], index: CodeIndex, final_size: int = 10
) -> list[ResolvedPrediction]:
    """Verify every claim, in raw order.

    Entries that resolve to the same file collapse to the earliest rank; the
    surviving list is truncated to final_size. Dropped entries stay in the
    output (rank None) so the outcome of each claim is visible.
    """
    out: list[ResolvedPrediction] = []
    kept_paths: set[str] = set()
    kept = 0
    for pred in raw:
        claim = pred.fq_path_claim.strip()
        resolved: str | None = None
        resolution = RESOLUTION_DROPPED
        if claim in index.files:
            resolved, resolution = claim, RESOLUTION_EXACT
        else:
            basename = claim.rsplit("/", 1)[-1]
            candidates = index.paths_named(basename)
            if candidates:
                claim_tokens = path_token_set(claim)
                # max() keeps the first of equal keys, and the candidates are
                # sorted, so the ascending path wins ties.
                resolved = max(
                    candidates,
                    key=lambda path: jaccard_similarity(claim_tokens, path_token_set(path)),
                )
                resolution = RESOLUTION_JACCARD
        if resolved is None or resolved in kept_paths or kept >= final_size:
            out.append(
                ResolvedPrediction(
                    fq_path=resolved if resolved is not None else claim,
                    rank=None,
                    resolution=RESOLUTION_DROPPED,
                    justification=pred.justification,
                )
            )
            continue
        kept += 1
        kept_paths.add(resolved)
        out.append(
            ResolvedPrediction(
                fq_path=resolved, rank=kept, resolution=resolution, justification=pred.justification
            )
        )
    return out


def surviving_paths(resolved: list[ResolvedPrediction]) -> list[str]:
    return [r.fq_path for r in resolved if r.rank is not None]
