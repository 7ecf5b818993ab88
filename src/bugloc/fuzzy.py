"""Edit-distance recovery for near-miss method references.

Uses the optimal-string-alignment variant of Damerau-Levenshtein: inserts,
deletes, substitutions, and adjacent transpositions, with no substring edited
twice (so d("ca","abc") is 3, where unrestricted Damerau-Levenshtein gives 2).

A global search first filters an index's method names exactly by bag
distance, max(|A∖B|, |B∖A|) over the two strings' character multisets: an
insertion, deletion or substitution changes it by at most one and a
transposition not at all, so it never exceeds the OSA distance (Bartolini,
Ciaccia & Patella, SPIRE 2002). Only the names within the cap on that bound
go through the vectorized OSA pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .code_index import CodeIndex


def damerau_levenshtein(a: str, b: str) -> int:
    """OSA distance between two strings."""
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    prev2 = [0] * (lb + 1)
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        ca = a[i - 1]
        for j in range(1, lb + 1):
            cost = 0 if ca == b[j - 1] else 1
            best = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            if i > 1 and j > 1 and ca == b[j - 2] and a[i - 2] == b[j - 1]:
                best = min(best, prev2[j - 2] + 1)
            cur[j] = best
        prev2, prev = prev, cur
    return prev[lb]


def default_distance_cap(query: str) -> int:
    return max(2, -(-len(query) // 4))


def _lengths(names: list[str]) -> np.ndarray:
    return np.fromiter(map(len, names), dtype=np.intp, count=len(names))


def _code_points(text: str) -> np.ndarray:
    """The code points of text as int32, one per character as len() counts
    them; a lone surrogate (possible in JSON-decoded text) is kept as its own
    code point."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<i4")


class NameTable:
    """The method names of one index, with what the bag filter reads: their
    lengths, and how often each character of their alphabet occurs in each
    name (one row per character, one column per name)."""

    def __init__(self, names: list[str]):
        self.names = names
        self.lengths = _lengths(names)
        self.alphabet, columns = np.unique(_code_points("".join(names)), return_inverse=True)
        cells = columns * len(names) + np.repeat(np.arange(len(names)), self.lengths)
        counts = np.bincount(cells, minlength=len(self.alphabet) * len(names))
        # int32 halves what an index holds; no name is 2**31 characters long
        self.counts = counts.astype(np.int32).reshape(len(self.alphabet), len(names))

    def within(self, query: str, cap: int) -> list[str]:
        """The names whose bag distance from query is at most cap.

        With `common` the size of the multiset intersection, the bag distance
        is max(len(query), len(name)) - common; a query character outside the
        alphabet adds nothing to `common`.
        """
        codes = _code_points(query)
        slots = np.searchsorted(self.alphabet, codes)
        known = slots < len(self.alphabet)
        known[known] = self.alphabet[slots[known]] == codes[known]
        chars, wanted = np.unique(slots[known], return_counts=True)
        common = np.minimum(self.counts[chars], wanted[:, None]).sum(axis=0)
        bag = np.maximum(self.lengths, len(query)) - common
        return [self.names[k] for k in np.flatnonzero(bag <= cap)]


def osa_distances(query: str, names: list[str]) -> np.ndarray:
    """OSA distance from query to each of names, equal to damerau_levenshtein.

    The names are one padded int32 code-point matrix; the recurrence runs one
    query character (DP row) at a time over all names at once, and each
    name's distance is read at its own length column. Columns past a name's
    end only ever feed columns further right, so padding never leaks in.
    """
    lengths = _lengths(names)
    width = int(lengths.max(initial=0))
    codes = np.full((len(names), width), -1, dtype=np.int32)
    codes[np.arange(width) < lengths[:, None]] = _code_points("".join(names))
    columns = np.arange(width + 1, dtype=np.int32)
    prev = np.tile(columns, (len(names), 1))
    prev2 = prev_match = None
    for i, char in enumerate(query, 1):
        match = codes == ord(char)
        cur = np.empty_like(prev)
        cur[:, 0] = i
        # deletion and substitution (cost 0 where the characters match)
        np.minimum(prev[:, 1:] + 1, prev[:, :-1] + ~match, out=cur[:, 1:])
        if prev_match is not None:
            # adjacent transposition: query[i-2:i] == reversed name[j-2:j]
            swap = match[:, :-1] & prev_match[:, 1:]
            np.minimum(cur[:, 2:], prev2[:, :-2] + 1, out=cur[:, 2:], where=swap)
        # insertion chain cur[j] = min(cur[j], cur[j-1] + 1), as a running minimum
        cur = np.minimum.accumulate(cur - columns, axis=1) + columns
        prev2, prev, prev_match = prev, cur, match
    return prev[np.arange(len(names)), lengths]


def fuzzy_method_candidates(
    query: str, index: CodeIndex, n: int = 5, cap: int | None = None
) -> list[tuple[str, str]]:
    """(method name, fq_path) pairs within edit distance cap of the query,
    sorted by (distance, name, path) and truncated to n.

    Only names within cap of the query by bag distance, a lower bound on the
    OSA distance, are scored; the index's name table is built on first use.
    """
    if cap is None:
        cap = default_distance_cap(query)
    names = index.name_table.within(query, cap)
    if not names:
        return []
    distances = osa_distances(query, names)
    scored = [
        (int(distances[k]), names[k], path)
        for k in np.flatnonzero(distances <= cap)
        for path in index.method_locator[names[k]]
    ]
    scored.sort()
    return [(name, path) for _, name, path in scored[:n]]
