import copy
import importlib
import logging
import math
import sys
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from bugloc.code_index import build_index, file_representation
from bugloc.tokens import camel_split, tokenize
from bugloc.validation import bug_text
from bugloc.vsm import VsmModel, _term_counts, vsm_rank, vsm_terms
from conftest import java_class, make_bug, write_tree

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_terms_lowercased_and_camel_split():
    assert vsm_terms("zoomOut fails") == ["zoom", "out", "fails"]


def test_terms_keep_punctuation_tokens():
    assert vsm_terms("a(b)") == ["a", "(", "b", ")"]


def test_single_document_corpus():
    bug = make_bug(summary="whatever text")
    assert vsm_rank(bug, {"only/Doc.java": "some content"}) == ["only/Doc.java"]


def test_planted_corpus_distinctive_terms_rank_first():
    corpus = {
        "a/Noise1.java": "alpha beta gamma common",
        "b/Noise2.java": "delta epsilon zeta common",
        "c/Planted.java": "meterchart zoomstep dial common",
    }
    bug = make_bug(summary="meterchart zoomstep", description="dial broken")
    ranking = vsm_rank(bug, corpus)
    assert ranking[0] == "c/Planted.java"


def test_identical_documents_tie_by_path():
    corpus = {"b/Doc.java": "same words here", "a/Doc.java": "same words here"}
    bug = make_bug(summary="same words")
    assert vsm_rank(bug, corpus) == ["a/Doc.java", "b/Doc.java"]


def test_unknown_query_terms_all_zero_with_warning(caplog):
    corpus = {"a/A.java": "alpha beta", "b/B.java": "gamma delta"}
    bug = make_bug(summary="nothing matches qqq")
    with caplog.at_level(logging.WARNING, logger="bugloc.vsm"):
        ranking = vsm_rank(bug, corpus)
    assert ranking == ["a/A.java", "b/B.java"]
    assert any("no weighted terms" in r.message for r in caplog.records)


def test_idf_is_ln_n_over_df():
    corpus = {"a": "apple banana", "b": "apple", "c": "apple cherry"}
    model = VsmModel(corpus)
    assert model.idf["apple"] == pytest.approx(math.log(3 / 3))
    assert model.idf["banana"] == pytest.approx(math.log(3 / 1))
    assert model.idf["cherry"] == pytest.approx(math.log(3 / 1))


def test_tf_is_raw_count():
    # doc a repeats "fault" twice; with equal idf weighting it outranks doc b
    corpus = {
        "a": "fault fault filler1",
        "b": "fault filler2 filler3",
        "c": "unrelated words only",
    }
    model = VsmModel(corpus)
    scores = dict(model.score("fault"))
    assert scores["a"] > scores["b"] > scores["c"]


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        VsmModel({})


def test_scores_descending_ties_path_ascending():
    corpus = {f"p{i}": f"word{i} shared" for i in range(6)}
    model = VsmModel(corpus)
    scored = model.score("word3 shared")
    values = [s for _, s in scored]
    assert values == sorted(values, reverse=True)
    assert scored[0][0] == "p3"


# --- the inverted file against the dict-of-dicts model it replaced ---------------


def reference_terms(text: str) -> list[str]:
    terms: list[str] = []
    for token in tokenize(text):
        if token[0].isalnum() or token[0] == "_":
            terms.extend(part.lower() for part in camel_split(token))
        else:
            terms.append(token)
    return terms


def left_to_right(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


class ReferenceVsm:
    """The dict-of-dicts model that scored every file in a Python loop. Its
    sums are written as explicit left-to-right loops (builtin sum() of floats
    is compensated from Python 3.12 on), so the reference means the same on
    every interpreter."""

    def __init__(self, corpus: dict[str, str]):
        self.paths = sorted(corpus)
        n_docs = len(self.paths)
        doc_counts = {path: Counter(reference_terms(corpus[path])) for path in self.paths}
        df = Counter()
        for counts in doc_counts.values():
            df.update(counts.keys())
        self.idf = {term: math.log(n_docs / count) for term, count in df.items()}
        self.vectors = {}
        self.norms = {}
        for path, counts in doc_counts.items():
            vec = {term: tf * self.idf[term] for term, tf in counts.items()}
            self.vectors[path] = vec
            self.norms[path] = math.sqrt(left_to_right(w * w for w in vec.values()))

    def score(self, query_text: str) -> list[tuple[str, float]]:
        query_counts = Counter(reference_terms(query_text))
        query_vec = {
            term: tf * self.idf[term] for term, tf in query_counts.items() if term in self.idf
        }
        query_norm = math.sqrt(left_to_right(w * w for w in query_vec.values()))
        if query_norm == 0.0:
            return [(path, 0.0) for path in self.paths]
        scores = []
        for path in self.paths:
            doc_vec, doc_norm = self.vectors[path], self.norms[path]
            if doc_norm == 0.0:
                scores.append((path, 0.0))
                continue
            dot = left_to_right(w * doc_vec.get(term, 0.0) for term, w in query_vec.items())
            scores.append((path, dot / (query_norm * doc_norm)))
        scores.sort(key=lambda item: (-item[1], item[0]))
        return scores


@pytest.fixture(scope="module")
def criterion_6_corpus(tmp_path_factory):
    """The acceptance suite's retrieval-sanity corpus and its one bug text."""
    files = {
        f"pkg/Noise{i}.java": java_class(
            f"Noise{i}", {f"filler{i}": f"unrelated{i} padding{i} stuff{i};"}
        )
        for i in range(19)
    }
    files["pkg/Planted.java"] = java_class(
        "Planted", {"zoomOut": "meterchart dialscale renderfail;"}
    )
    index = build_index(write_tree(tmp_path_factory.mktemp("c6"), files), "java", "v1")
    corpus = {path: file_representation(record) for path, record in index.files.items()}
    bug = make_bug(summary="meterchart dialscale", description="zoomOut renderfail")
    return corpus, [bug_text(bug)]


@pytest.fixture(scope="module")
def seeded_corpus():
    """A seeded benchmark corpus of 60 files and its bug texts."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        gen = importlib.import_module("gen")
    dataset = gen.generate(11, 60, 12, 1)
    return dataset.trees[0], [f"{b['summary']}\n{b['description']}" for b in dataset.bugs]


@pytest.fixture(scope="module")
def edge_corpus():
    """An empty document, a token with no terms, repeated camelCase parts."""
    corpus = {"b": "", "a": "x y", "c": "_", "d": "getX getX(y) XGetx", "e": "x"}
    return corpus, ["x", "getX y", "_ q", "q"]


@pytest.fixture(params=["criterion_6_corpus", "seeded_corpus", "edge_corpus"])
def corpus_and_bugs(request):
    return request.getfixturevalue(request.param)


def test_scores_repr_equal_to_the_reference(corpus_and_bugs):
    corpus, bug_texts = corpus_and_bugs
    model, reference = VsmModel(corpus), ReferenceVsm(corpus)
    assert list(model.idf.items()) == list(reference.idf.items())
    for query in bug_texts + [corpus[path] for path in sorted(corpus)]:
        assert repr(model.score(query)) == repr(reference.score(query))


def test_term_counts_equal_counter_of_terms_in_key_order(corpus_and_bugs):
    corpus, bug_texts = corpus_and_bugs
    for text in bug_texts + list(corpus.values()) + ["getHTTPResponse_code x_y ;;_ a(b)"]:
        want = list(Counter(vsm_terms(text)).items())
        assert list(_term_counts(text, {}, store=False).items()) == want
        assert list(_term_counts(text, {}, store=True).items()) == want
        assert vsm_terms(text) == reference_terms(text)


def test_doc_of_only_zero_idf_terms_scores_zero_without_warning():
    corpus = {"a": "common", "b": "common rare", "c": "common other"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = VsmModel(corpus).score("rare common")
    assert scores[0][0] == "b" and scores[0][1] > 0.0
    assert dict(scores)["a"] == 0.0
    assert not any(math.isnan(s) for _, s in scores)


def test_query_of_only_zero_idf_terms_is_path_order_with_warning(caplog):
    model = VsmModel({"b": "common x", "a": "common y"})
    with caplog.at_level(logging.WARNING, logger="bugloc.vsm"):
        assert model.score("common zzz") == [("a", 0.0), ("b", 0.0)]
    assert any("no weighted terms" in r.message for r in caplog.records)


def test_score_leaves_the_model_unchanged(seeded_corpus):
    corpus, bug_texts = seeded_corpus
    model = VsmModel(corpus)
    state = {name: copy.deepcopy(value) for name, value in vars(model).items()}
    model.score(bug_texts[0] + " brandNewToken unseenWord QQQ9_x")
    assert vars(model).keys() == state.keys()
    for name, value in state.items():
        now = getattr(model, name)
        if isinstance(value, np.ndarray):
            assert now.dtype == value.dtype and np.array_equal(now, value)
        else:
            assert now == value


def test_four_threads_share_one_model(seeded_corpus):
    corpus, bug_texts = seeded_corpus
    model = VsmModel(corpus)
    queries = bug_texts * 4
    sequential = [model.score(q) for q in queries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert list(pool.map(model.score, queries, timeout=120)) == sequential
    finally:
        sys.setswitchinterval(interval)
