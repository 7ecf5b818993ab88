"""TF-IDF vector space model baseline.

Term weights are raw term frequency times ln(N/df); documents and the query
are compared by cosine similarity. Preprocessing is lowercase, the shared
tokenizer, and camelCase splitting - no stemming, no stop words.

The documents are held as an inverted file (Zobel & Moffat, "Inverted files
for text search engines", 2006): the postings of each term are one run of an
int32 document array and a float64 weight array. Every sum adds left to
right in first-occurrence term order, so scores do not depend on how the
interpreter implements builtin sum().
"""

from __future__ import annotations

import logging
import math
from array import array
from collections import Counter

import numpy as np

from .metrics import sum_left_to_right
from .tokens import camel_split, tokenize
from .validation import require_bug_text

logger = logging.getLogger(__name__)


def _split(token: str) -> tuple[str, ...]:
    """A word token's lowercased camelCase parts; a punctuation token as-is."""
    if token[0].isalnum() or token[0] == "_":
        return tuple(part.lower() for part in camel_split(token))
    return (token,)


def vsm_terms(text: str) -> list[str]:
    """Lowercased terms: word tokens split at camelCase boundaries,
    punctuation tokens kept as-is."""
    return [term for token in tokenize(text) for term in _split(token)]


def _term_counts(text: str, memo: dict[str, tuple[str, ...]], store: bool) -> dict[str, int]:
    """Counter(vsm_terms(text)), keys in the same first-occurrence order. Each
    distinct token is split once, through `memo`; a token the memo lacks is
    added to it only if `store`."""
    counts: dict[str, int] = {}
    for token, n in Counter(tokenize(text)).items():
        parts = memo.get(token)
        if parts is None:
            parts = _split(token)
            if store:
                memo[token] = parts
        for term in parts:
            counts[term] = counts.get(term, 0) + n
    return counts


class VsmModel:
    """Precomputed TF-IDF corpus; queries score against it repeatedly."""

    def __init__(self, corpus: dict[str, str]):
        if not corpus:
            raise ValueError("VSM corpus must be non-empty")
        self.paths = sorted(corpus)
        n_docs = len(self.paths)
        self._parts: dict[str, tuple[str, ...]] = {}
        self._term_ids: dict[str, int] = {}
        # The term id and tf of each (document, term) pair, in document order.
        pair_terms, pair_tfs, doc_ends = array("i"), array("i"), [0]
        for path in self.paths:
            counts = _term_counts(corpus[path], self._parts, store=True)
            pair_terms.extend(self._term_ids.setdefault(t, len(self._term_ids)) for t in counts)
            pair_tfs.extend(counts.values())
            doc_ends.append(len(pair_terms))
        term_of = np.frombuffer(pair_terms, dtype=np.int32)
        df = np.bincount(term_of, minlength=len(self._term_ids))
        self.idf = {
            term: math.log(n_docs / count) for term, count in zip(self._term_ids, df.tolist())
        }
        # Weights in place and squares per document: large temporaries would
        # raise the peak memory of a fit.
        idf = np.array(list(self.idf.values()))
        weights = idf[term_of]
        weights *= np.frombuffer(pair_tfs, dtype=np.int32)
        self._norms = np.sqrt(
            [sum_left_to_right((w * w).tolist()) for w in np.split(weights, doc_ends[1:-1])]
        )
        # The postings of term t are _docs[_offsets[t]:_offsets[t + 1]], in
        # document order, and the same slice of _weights.
        by_term = np.argsort(term_of, kind="stable")
        doc_of = np.repeat(np.arange(n_docs, dtype=np.int32), np.diff(doc_ends))
        self._docs = doc_of[by_term]
        self._weights = weights[by_term]
        self._offsets = [0] + np.cumsum(df).tolist()

    def score(self, query_text: str) -> list[tuple[str, float]]:
        """All corpus files scored against the query, descending, ties broken
        by ascending path. An all-zero query vector yields all-zero scores.

        Reads the model and writes nothing, so threads may share one model."""
        query_counts = _term_counts(query_text, self._parts, store=False)
        query_vec = [
            (self._term_ids[term], tf * self.idf[term])
            for term, tf in query_counts.items()
            if term in self.idf
        ]
        query_norm = math.sqrt(sum_left_to_right(w * w for _, w in query_vec))
        if query_norm == 0.0:
            logger.warning(
                "query shares no weighted terms with the corpus; ranking is path order"
            )
            return [(path, 0.0) for path in self.paths]
        # Each document gets the additions of the dense dot product in the
        # same order, minus those of a term it lacks or of weight 0: adding
        # +0.0 to a non-negative sum changes nothing.
        dots = np.zeros(len(self.paths))
        for term_id, weight in query_vec:
            if weight:
                a, b = self._offsets[term_id], self._offsets[term_id + 1]
                dots[self._docs[a:b]] += weight * self._weights[a:b]
        scores = np.zeros(len(self.paths))
        np.divide(dots, query_norm * self._norms, out=scores, where=self._norms > 0.0)
        order = np.argsort(-scores, kind="stable").tolist()
        return list(zip([self.paths[i] for i in order], scores[order].tolist()))
