"""Correctness checks, run outside the timed phase.

The references here are written independently of the code they check:
the shortlist reference is one NumPy matrix product over the index's chunk
vectors, and the VSM reference re-implements the documented TF-IDF rules.
Orders are compared exactly, except that two entries whose reference scores
differ by at most SCORE_TOL may swap (float sums may round differently).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np

SCORE_TOL = 1e-9

_TOKEN = re.compile(r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]")
_CAMEL = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|[0-9]+")


def same_order(got: list[str], want: list[tuple[str, float]], scores: dict[str, float]) -> bool:
    """`got` equals the paths of `want`, up to swaps of near-tied scores."""
    if len(got) != len(want):
        return False
    for path, (ref_path, ref_score) in zip(got, want):
        if path != ref_path and abs(scores.get(path, math.inf) - ref_score) > SCORE_TOL:
            return False
    return True


def bug_query(bug) -> str:
    return f"{bug.summary}\n{bug.description}"


class ShortlistReference:
    """Brute-force file ranking by maximum chunk cosine similarity, ties by path."""

    def __init__(self, eindex):
        keys = sorted(eindex.records)
        self.paths = [path for path, _ in keys]
        matrix = np.array([eindex.records[key].vector for key in keys], dtype=np.float64)
        norms = np.linalg.norm(matrix, axis=1)
        self.live = norms > 0.0
        self.unit = matrix / np.where(self.live, norms, 1.0)[:, None]

    def rank(self, query_vector, k: int) -> tuple[list[tuple[str, float]], dict[str, float]]:
        q = np.asarray(query_vector, dtype=np.float64)
        cosines = np.clip(self.unit @ (q / np.linalg.norm(q)), -1.0, 1.0)
        best: dict[str, float] = {}
        for path, live, score in zip(self.paths, self.live, cosines.tolist()):
            if live and (path not in best or score > best[path]):
                best[path] = score
        ranked = sorted(best.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:k], best


def _vsm_terms(text: str) -> list[str]:
    terms: list[str] = []
    for token in _TOKEN.findall(text):
        if token[0].isalnum() or token[0] == "_":
            terms.extend(part.lower() for part in _CAMEL.findall(token))
        else:
            terms.append(token)
    return terms


class VsmReference:
    """TF-IDF (raw tf times ln(N/df)) cosine over each file's path and method
    bodies, descending score, ties by ascending path."""

    def __init__(self, code_index):
        docs = {
            path: "\n".join([path] + [m.body for m in record.methods])
            for path, record in code_index.files.items()
        }
        counts = {path: Counter(_vsm_terms(text)) for path, text in docs.items()}
        df = Counter(term for c in counts.values() for term in c)
        n = len(docs)
        self.idf = {term: math.log(n / d) for term, d in df.items()}
        self.vectors = {
            path: {t: tf * self.idf[t] for t, tf in c.items()} for path, c in counts.items()
        }
        self.norms = {p: math.sqrt(sum(w * w for w in v.values())) for p, v in self.vectors.items()}

    def rank(self, text: str, k: int) -> tuple[list[tuple[str, float]], dict[str, float]]:
        query = {t: tf * self.idf[t] for t, tf in Counter(_vsm_terms(text)).items() if t in self.idf}
        qnorm = math.sqrt(sum(w * w for w in query.values()))
        scores = {}
        for path, vec in self.vectors.items():
            dot = sum(w * vec.get(t, 0.0) for t, w in query.items())
            denom = qnorm * self.norms[path]
            scores[path] = dot / denom if denom else 0.0
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:k], scores


def index_differences(built, rebuilt) -> list[str]:
    """Differences between two (CodeIndex, EmbeddingIndex | None) pairs."""
    errors = []
    if built[0].files != rebuilt[0].files:
        changed = sorted(set(built[0].files) ^ set(rebuilt[0].files)) or sorted(
            p for p in built[0].files if built[0].files[p] != rebuilt[0].files.get(p)
        )
        errors.append(f"code index files differ, e.g. {changed[:3]}")
    if built[0].method_locator != rebuilt[0].method_locator:
        errors.append("method locators differ")
    if (built[1] is None) != (rebuilt[1] is None):
        errors.append("one side has no embedding index")
    elif built[1] is not None:
        if built[1].records != rebuilt[1].records:
            keys = sorted(set(built[1].records) ^ set(rebuilt[1].records)) or sorted(
                k for k in built[1].records if built[1].records[k] != rebuilt[1].records.get(k)
            )
            errors.append(f"embedding records differ, e.g. {keys[:3]}")
        if built[1].dimension != rebuilt[1].dimension:
            errors.append("embedding dimensions differ")
    return errors


def cache_differences(cache_path, vectors: dict[str, tuple], provider_id: str) -> list[str]:
    """Entries of a CachedEmbedder file that are not the reference vector of a
    text in `vectors` (text -> vector)."""
    raw = json.loads(Path(cache_path).read_text(encoding="utf-8"))
    want = {f"{provider_id}:{hashlib.sha256(t.encode('utf-8')).hexdigest()}": v for t, v in vectors.items()}
    errors = []
    unknown = raw.keys() - want.keys()
    if unknown:
        errors.append(f"{len(unknown)} entries for texts the run never embedded")
    wrong = [key for key in raw.keys() & want.keys() if tuple(raw[key]) != tuple(want[key])]
    if wrong:
        errors.append(f"{len(wrong)} entries hold another vector than a fresh embedder's")
    return errors
