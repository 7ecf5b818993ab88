"""The benchmark's correctness checks read the embedding index from outside
(`records`, `.vector`); a change to the index must keep them working here,
not only in a benchmark run."""

import importlib
import json
from pathlib import Path

import pytest

from bugloc import CachedEmbedder, EmbeddingIndex, HashingEmbedder, build_embedding_index, build_index, load_bug_reports, shortlist_files
from bugloc.code_index import file_representation
from bugloc.embedding import embed_query
from bugloc.vsm import VsmModel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """perfbench's checks module and a seeded corpus: (checks, code index,
    embedding index, embedder, bugs)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        checks = importlib.import_module("checks")
        gen = importlib.import_module("gen")
    written = gen.write_dataset(gen.generate(11, 60, 12, 1), tmp_path_factory.mktemp("bench-input"))
    code = build_index(written["repo"] / "v0", "java", "v0")
    embedder = HashingEmbedder(64)
    return checks, code, build_embedding_index(code, embedder), embedder, load_bug_reports(written["dataset"])


def test_shortlist_reference_agrees_with_shortlist_files(bench):
    checks, _, eindex, embedder, bugs = bench
    reference = checks.ShortlistReference(eindex)
    for bug in bugs:
        got = shortlist_files(bug, eindex, embedder, k=20).entries
        want, _ = reference.rank(embed_query(checks.bug_query(bug), embedder), 20)
        assert [path for path, _ in got] == [path for path, _ in want]
        assert all(abs(a - b) <= checks.SCORE_TOL for (_, a), (_, b) in zip(got, want))


def test_vsm_reference_agrees_with_vsm_model(bench):
    checks, code, _, _, bugs = bench
    reference = checks.VsmReference(code)
    model = VsmModel({path: file_representation(record) for path, record in code.files.items()})
    for bug in bugs:
        text = checks.bug_query(bug)
        got = model.score(text)
        want, scores = reference.rank(text, len(got))
        assert checks.same_order([path for path, _ in got], want, scores)
        assert all(abs(score - scores[path]) <= checks.SCORE_TOL for path, score in got)


def test_index_differences_of_an_index_with_itself_is_empty(bench):
    checks, code, eindex, _, _ = bench
    assert checks.index_differences((code, eindex), (code, eindex)) == []


def test_index_differences_sees_one_changed_vector(bench):
    checks, code, eindex, _, _ = bench
    vectors = eindex.vectors.copy()
    vectors[len(vectors) // 2, 0] += 0.25
    changed = EmbeddingIndex(eindex.dimension, eindex.provider_id, eindex.chunk_limit, eindex.chunks, vectors)
    differences = checks.index_differences((code, eindex), (code, changed))
    assert differences and "embedding records differ" in differences[0]


def test_cache_differences_sees_one_edited_entry(bench, tmp_path):
    checks, _, eindex, embedder, _ = bench
    texts = sorted({chunk.text for chunk in eindex.chunks})[:40]
    cache_file = tmp_path / "cache.json"
    CachedEmbedder(HashingEmbedder(embedder.dimension), cache_file).embed_batch(texts)
    vectors = dict(zip(texts, embedder.embed_batch(texts)))
    assert checks.cache_differences(cache_file, vectors, embedder.provider_id) == []
    raw = json.loads(cache_file.read_text(encoding="utf-8"))
    raw[min(raw)][0] += 0.25
    cache_file.write_text(json.dumps(raw), encoding="utf-8")
    differences = checks.cache_differences(cache_file, vectors, embedder.provider_id)
    assert len(differences) == 1 and differences[0].startswith("1 entries hold another vector")
