"""Independent reference implementations used only to check the library.

These are written straight from the defining formulas/recurrences, in a
different style from the production code, and must stay that way.
"""

from __future__ import annotations

from functools import lru_cache


def osa_distance_oracle(a: str, b: str) -> int:
    """Optimal string alignment distance as a memoized recurrence."""

    @lru_cache(maxsize=None)
    def d(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        best = min(
            d(i - 1, j) + 1,  # delete
            d(i, j - 1) + 1,  # insert
            d(i - 1, j - 1) + (0 if a[i - 1] == b[j - 1] else 1),  # substitute
        )
        if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
            best = min(best, d(i - 2, j - 2) + 1)  # adjacent transposition
        return best

    return d(len(a), len(b))


def accuracy_oracle(rankings: dict[str, list[str]], truths: dict[str, set], k: int) -> float:
    hit = 0
    for bug_id, ranking in rankings.items():
        truth = truths[bug_id]
        if any(path in truth for path in ranking[:k]):
            hit += 1
    return hit / len(rankings)


def mrr_oracle(rankings: dict[str, list[str]], truths: dict[str, set], k: int) -> float:
    total = 0.0
    for bug_id, ranking in rankings.items():
        truth = truths[bug_id]
        reciprocal = 0.0
        for position, path in enumerate(ranking, start=1):
            if path in truth:
                if position <= k:
                    reciprocal = 1.0 / position
                break
        total += reciprocal
    return total / len(rankings)


def map_oracle(rankings: dict[str, list[str]], truths: dict[str, set], k: int) -> float:
    total = 0.0
    for bug_id, ranking in rankings.items():
        truth = truths[bug_id]
        numerator = 0.0
        for j in range(1, min(k, len(ranking)) + 1):
            rel_j = 1.0 if ranking[j - 1] in truth else 0.0
            if rel_j:
                precision_j = sum(1 for path in ranking[:j] if path in truth) / j
                numerator += precision_j * rel_j
        total += numerator / len(truth)
    return total / len(rankings)


WORD_CHARACTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")


def chunk_text_oracle(text: str, limit: int) -> list[tuple[str, int]]:
    """Greedy token packing, one character and one token at a time: the
    (text, token count) of each chunk, a chunk running from the first
    character of its first token to the last of its last. A token is a run
    of ASCII letters, digits and underscores, or any other character that is
    not whitespace; a text without tokens is one empty chunk."""
    starts, ends = [], []
    position = 0
    while position < len(text):
        if text[position].isspace():
            position += 1
            continue
        starts.append(position)
        if text[position] in WORD_CHARACTERS:
            while position < len(text) and text[position] in WORD_CHARACTERS:
                position += 1
        else:
            position += 1
        ends.append(position)
    if not starts:
        return [("", 0)]
    chunks = []
    for first in range(0, len(starts), limit):
        last = min(first + limit, len(starts)) - 1
        chunks.append((text[starts[first] : ends[last]], last - first + 1))
    return chunks


def locator_oracle(files) -> dict[str, tuple[str, ...]]:
    """The method locator of `files` (path -> record), built from nothing:
    every method name, in sorted order, with the sorted paths of the files
    that declare it."""
    names = sorted({method.name for record in files.values() for method in record.methods})
    return {
        name: tuple(sorted({r.fq_path for r in files.values() if any(m.name == name for m in r.methods)}))
        for name in names
    }
