import builtins
import gc
import hashlib
import importlib
import json
import math
import os
import random
import sys
import threading
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from bugloc import embedding
from bugloc.chat import RemoteChatProvider
from bugloc.code_index import (
    ArchiveFormatError, Changeset, CodeIndex, ObjectPool, build_index, save_code_index, update_index,
)
from bugloc.embedders import (
    CachedEmbedder,
    HashingEmbedder,
    ProviderContractError,
    RemoteEmbedder,
    RetriableProviderError,
)
from bugloc.embedding import (
    Chunk,
    EmbeddingIndex,
    build_embedding_index,
    chunk_text,
    load_embedding_index,
    save_embedding_index,
    shortlist_files,
    update_embeddings,
)
from bugloc.tokens import tokenize
from bugloc.validation import InputValidationError
from conftest import html_response, java_class, make_bug, write_tree
from oracles import chunk_text_oracle


# --- chunking -------------------------------------------------------------


def test_short_text_single_chunk():
    chunks = chunk_text("one two three", chunk_limit=300)
    assert len(chunks) == 1
    assert len(tokenize(chunks[0].text)) == 3


def test_650_tokens_split_300_300_50():
    text = " ".join(f"tok{i}" for i in range(650))
    chunks = chunk_text(text, chunk_limit=300)
    assert [len(tokenize(c.text)) for c in chunks] == [300, 300, 50]
    assert [c.seq for c in chunks] == [0, 1, 2]


def test_empty_text_yields_one_empty_chunk():
    chunks = chunk_text("", chunk_limit=300, fq_path="p/E.java")
    assert len(chunks) == 1
    assert chunks[0].text == ""
    assert len(tokenize(chunks[0].text)) == 0
    assert chunks[0].fq_path == "p/E.java"


def test_path_only_representation_counts_path_tokens():
    chunks = chunk_text("org/x/E.java", chunk_limit=300)
    assert len(chunks) == 1
    assert len(tokenize(chunks[0].text)) == len(tokenize("org/x/E.java"))


def test_chunk_reassembly_random_sweep():
    rng = random.Random(7)
    vocabulary = ["alpha", "beta_2", "(", ")", "{", "}", ";", "zoomOut", "x"]
    for _ in range(60):
        n = rng.randint(1, 2000)
        text = " ".join(rng.choice(vocabulary) for _ in range(n))
        chunks = chunk_text(text, chunk_limit=300)
        assert all(len(tokenize(c.text)) <= 300 for c in chunks)
        reassembled = [t for c in chunks for t in tokenize(c.text)]
        assert reassembled == tokenize(text)
        assert [c.seq for c in chunks] == list(range(len(chunks)))


def test_chunk_limit_must_be_positive():
    with pytest.raises(ValueError):
        chunk_text("x", chunk_limit=0)


# Pieces of random texts: words, punctuation, every kind of whitespace,
# non-ASCII letters and digits (each a token of its own), emoji.
CHUNK_PIECES = (
    "a", "Zq", "zoomOut", "beta_2", "_", "0", "42", "x9_y", "(", ")", "{", "};", ".", "==", "\\", '"',
    " ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\xa0", "\u2003", "\u3000",
    "é", "Ünï", "ß", "数字", "٣٤", "²", "Ⅻ", "😀", "ﬁ",
)
CHUNK_LIMITS = (1, 2, 7, 64, 300, 10**6)


def test_chunks_equal_token_by_token_packing():
    rng = random.Random(18)
    texts = ["", " ", " \t\n\r\x0b\x0c\xa0\u2003 ", "x", "数", "a\u2003b"]
    for _ in range(400):
        n = rng.choice((rng.randint(1, 12), rng.randint(1, 200), rng.randint(500, 1500)))
        weights = [rng.random() for _ in CHUNK_PIECES]
        texts.append("".join(rng.choices(CHUNK_PIECES, weights, k=n)))
    for text in texts:
        for limit in CHUNK_LIMITS:
            chunks = chunk_text(text, limit, "p/F.java")
            assert [(c.text, len(tokenize(c.text))) for c in chunks] == chunk_text_oracle(text, limit), (text, limit)
            assert [(c.fq_path, c.seq) for c in chunks] == [("p/F.java", i) for i in range(len(chunks))]


def test_huge_chunk_limits_give_one_chunk():
    text = " void zoomOut(int step) {\n\treturn; } "
    for limit in (2**32 - 2, 2**32 - 1, 2**32, 2**40):
        assert chunk_text(text, limit) == [Chunk("", 0, text.strip())]
        assert chunk_text(" \n", limit) == [Chunk("", 0, "")]


# --- golden chunks and embeddings: pinned as digests ---------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# Texts no generated file holds: case, non-ASCII letters and digits, tabs,
# carriage returns, whitespace only, nothing at all.
ODD_TEXTS = (
    "", " \t\n ", "Zoom zoom ZOOM zoomOut", "naïve Ünïcode 数字 ٣٤ x² ﬁle",
    "a\tb\nc\r\nd  e\x0bf\x0cg h", "_ __ a_b 0x1F 1e9 __init__", "(){};==!=<<=>>>=",
)
# Computed with the chunker that cut the text at a list of token spans and
# the embedder that hashed every token occurrence. They also depend on the
# parser and on perfbench/gen.py, so a change to either moves them.
GOLDEN_CHUNKS = "31b56d84e67c8ce531bf4f62552a4bb8c773ed55e2fe707eccca409f08aee6dc"
GOLDEN_EMBEDDINGS = {
    1: "dbb839e1dd4a35283b24d2ad61d05dd7f80763c9a75cea109456b4302e408c87",
    64: "9aa147ac5eac4126f63c20b4385399d7bb762fe67644db70f3243e5235547f2d",
    128: "789b98ebc817ef605f2c42c32b29338b8d5fbf3476f334af86e5c7145616cff1",
}


@pytest.fixture(scope="module")
def seed3_texts(tmp_path_factory) -> list[str]:
    """The file representations of the seed-3 benchmark corpus in path
    order, its bug texts, then the odd texts."""
    from bugloc.code_index import file_representation
    from bugloc.dataset import load_bug_reports
    from bugloc.validation import bug_text

    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        gen = importlib.import_module("gen")
    paths = gen.write_dataset(gen.generate(3, 500, 34, 1), tmp_path_factory.mktemp("seed3"))
    index = build_index(paths["repo"] / "v0", "java", "v0")
    files = [file_representation(index.files[p]) for p in index.sorted_paths()]
    return files + [bug_text(bug) for bug in load_bug_reports(paths["dataset"])] + list(ODD_TEXTS)


def test_golden_chunk_lists_are_unchanged(seed3_texts):
    digest = hashlib.sha256()
    few = seed3_texts[:50] + list(ODD_TEXTS)
    runs = [(1, few), (2, few), (7, seed3_texts), (64, seed3_texts), (300, seed3_texts), (10**6, few)]
    for limit, texts in runs:
        for i, text in enumerate(texts):
            rows = [[c.fq_path, c.seq, c.text, len(tokenize(c.text))] for c in chunk_text(text, limit, f"t{i}")]
            digest.update(json.dumps([limit, rows]).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_CHUNKS


@pytest.mark.parametrize("dimension", sorted(GOLDEN_EMBEDDINGS))
def test_golden_embedding_matrices_are_unchanged(seed3_texts, dimension):
    texts = [c.text for text in seed3_texts for c in chunk_text(text)]
    matrix = HashingEmbedder(dimension).embed_batch(texts)
    assert matrix.shape == (len(texts), dimension)
    assert hashlib.sha256(matrix.tobytes()).hexdigest() == GOLDEN_EMBEDDINGS[dimension]


# --- cosine scores of the shortlist ---------------------------------------


class StubEmbedder(HashingEmbedder):
    """Embeds every text as the one vector it is given."""

    def __init__(self, vector):
        super().__init__(dimension=len(vector))
        self.provider_id = "stub"  # the provider of every stub_index
        self.vector = tuple(vector)

    def embed_batch(self, texts):
        return np.array([self.vector for _ in texts], dtype=np.float64)


def stub_index(files: dict[str, list[list[float]]]) -> EmbeddingIndex:
    """An index of one chunk per given vector, seq in list order."""
    chunks = [Chunk(path, seq, f"{path}#{seq}") for path, vs in files.items() for seq in range(len(vs))]
    vectors = [v for vs in files.values() for v in vs]
    return EmbeddingIndex(len(vectors[0]), "stub", 300, chunks, vectors)


def stub_scores(files, query, k=50) -> dict[str, float]:
    provider = StubEmbedder(query)
    return dict(shortlist_files(make_bug(summary="query", description=""), stub_index(files), provider, k=k).entries)


def test_cosine_self_similarity():
    assert stub_scores({"A.java": [[1.0, 2.0, 3.0]]}, [1.0, 2.0, 3.0])["A.java"] == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert stub_scores({"A.java": [[1.0, 0.0]]}, [0.0, 1.0]) == {"A.java": 0.0}


def test_cosine_closed_form():
    # closed form: 1/sqrt(2)
    assert stub_scores({"A.java": [[1.0, 1.0]]}, [1.0, 0.0])["A.java"] == pytest.approx(2**-0.5, abs=1e-9)


def test_cosine_of_a_file_is_its_best_chunk():
    scores = stub_scores({"A.java": [[0.0, 1.0], [1.0, 1.0], [-1.0, 0.0]]}, [1.0, 0.0])
    assert scores["A.java"] == pytest.approx(2**-0.5, abs=1e-9)


def test_cosine_zero_vector_is_error():
    with pytest.raises(InputValidationError, match="zero embedding"):
        stub_scores({"A.java": [[1.0, 0.0]]}, [0.0, 0.0])
    # a zero chunk is never scored, and a file of zero chunks is never listed
    files = {"A.java": [[0.0, 0.0], [0.0, 1.0]], "Empty.java": [[0.0, 0.0]], "B.java": [[1.0, 0.0]]}
    assert stub_scores(files, [1.0, 0.0]) == {"B.java": 1.0, "A.java": 0.0}


def test_cosine_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        stub_scores({"A.java": [[1.0, 0.0, 0.0]]}, [1.0, 0.0])


def test_cosine_symmetry_and_scale_invariance():
    rng = random.Random(3)
    for _ in range(50):
        u = [rng.uniform(-1, 1) for _ in range(8)]
        v = [rng.uniform(-1, 1) for _ in range(8)]
        alpha = rng.uniform(0.01, 100)
        score = stub_scores({"A.java": [u]}, v)["A.java"]
        assert stub_scores({"A.java": [v]}, u)["A.java"] == pytest.approx(score, abs=1e-12)
        # scaling the index vector or the query changes nothing
        assert stub_scores({"A.java": [[alpha * x for x in u]]}, v)["A.java"] == pytest.approx(score, abs=1e-12)
        assert stub_scores({"A.java": [u]}, [alpha * x for x in v])["A.java"] == pytest.approx(score, abs=1e-12)


@pytest.mark.parametrize("dimension", [16, 25, 31, 33, 48, 64, 100, 128])
def test_shortlist_equal_vectors_tie_exactly_at_any_row_offset(dimension):
    # Every file holds the same best vector, after 0-6 worse chunks, so that
    # vector sits at many row offsets; its score must be bit-equal in every
    # row, and the files rank by path alone.
    rng = np.random.default_rng(dimension)
    query = rng.standard_normal(dimension)
    shared = (query + rng.standard_normal(dimension)).tolist()
    files = {
        f"pkg/F{i:03d}.java": [(-query + rng.standard_normal(dimension)).tolist() for _ in range(i % 7)] + [shared]
        for i in range(120)
    }
    provider = StubEmbedder(query.tolist())
    shortlist = shortlist_files(make_bug(summary="query", description=""), stub_index(files), provider, k=200)
    assert shortlist.paths() == sorted(files)
    assert len({score for _, score in shortlist.entries}) == 1


def test_index_rejects_duplicate_keys_and_other_dimensions():
    chunk = Chunk("A.java", 0, "a")
    with pytest.raises(ValueError, match="duplicate"):
        EmbeddingIndex(2, "stub", 300, [chunk, chunk], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"expected \(1, 2\)"):
        EmbeddingIndex(2, "stub", 300, [chunk], [[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        EmbeddingIndex(2, "stub", 300, [chunk], [])


def test_index_records_are_a_read_only_view_of_the_matrix():
    index = stub_index({"B.java": [[0.5, 1.5]], "A.java": [[1.0, 0.0], [0.0, 2.0]]})
    assert [(c.fq_path, c.seq) for c in index.chunks] == [("A.java", 0), ("A.java", 1), ("B.java", 0)]
    assert index.records[("A.java", 1)].vector == (0.0, 2.0)
    assert list(index.records) == [("A.java", 0), ("A.java", 1), ("B.java", 0)]
    with pytest.raises(TypeError):
        index.records[("C.java", 0)] = index.records[("A.java", 0)]
    with pytest.raises(ValueError):
        index.vectors[0, 0] = 9.0


@pytest.mark.parametrize("ordered", [True, False])
def test_index_shares_no_memory_with_the_callers_matrix(ordered):
    chunks = [Chunk("A.java", 0, "a"), Chunk("A.java", 1, "b"), Chunk("B.java", 0, "c")]
    vectors = np.array([[1.0, 0.0], [0.0, 2.0], [0.5, 1.5]])
    order = [0, 1, 2] if ordered else [2, 0, 1]
    given = vectors[order]
    index = EmbeddingIndex(2, "stub", 300, [chunks[i] for i in order], given)
    assert index.chunks == tuple(chunks)
    assert np.array_equal(index.vectors, vectors)
    assert not np.shares_memory(index.vectors, given)
    given[:] = 7.0
    assert np.array_equal(index.vectors, vectors) and given.flags.writeable


# --- hashing embedder -----------------------------------------------------


def test_hashing_embedder_deterministic():
    provider = HashingEmbedder(dimension=32)
    first = provider.embed("void zoomOut() { scale(); }")
    second = provider.embed("void zoomOut() { scale(); }")
    assert first.tolist() == second.tolist()


def test_hashing_embedder_dimension():
    provider = HashingEmbedder(dimension=64)
    assert len(provider.embed("anything")) == 64


def test_hashing_embedder_vectors_finite_and_normalized():
    provider = HashingEmbedder(dimension=16)
    vec = provider.embed("alpha beta gamma")
    assert all(math.isfinite(x) for x in vec)
    assert math.isclose(sum(x * x for x in vec), 1.0, rel_tol=1e-9)


def _reference_hashing_vector(text: str, dimension: int) -> tuple[float, ...]:
    """The embedder's definition, one MD5 per token and one add per token."""
    vec = [0.0] * dimension
    for token in tokenize(text):
        digest = hashlib.md5(token.lower().encode("utf-8")).digest()
        vec[int.from_bytes(digest[:4], "big") % dimension] += 1.0 if digest[4] & 1 else -1.0
    norm = math.sqrt(sum(x * x for x in vec))
    return tuple(x / norm for x in vec) if norm > 0.0 else tuple(vec)


HASHING_TEXTS = [
    "",
    "{ ; }",
    "void zoomOut() { scale(); }",
    "Zoom zoom ZOOM zoomOut zoomout",
    "alpha beta alpha gamma beta alpha",
    "naïve café 😀 Ünïcode tokens",
    " ".join(f"token{i % 37}" for i in range(600)),
]


def test_hashing_embedder_bits_independent_of_memo():
    warm = HashingEmbedder(dimension=16)
    warm.embed_batch(["zoom alpha unrelated words", "café token3 token5"])
    fresh = HashingEmbedder(dimension=16).embed_batch(HASHING_TEXTS)
    # repr tells 0.0 from 0 and -0.0, and shows every bit of a float
    assert repr(warm.embed_batch(HASHING_TEXTS).tolist()) == repr(fresh.tolist())
    assert repr(fresh.tolist()) == repr([list(_reference_hashing_vector(t, 16)) for t in HASHING_TEXTS])


# --- remote embedder (fault injection) ------------------------------------


class _FakeResponse:
    def __init__(self, status_code, body=None):
        self.status_code = status_code
        self._body = body or {}

    def json(self):
        return self._body


class _FakeSession:
    def __init__(self, responses):
        self.headers = {}
        self.responses = list(responses)
        self.calls = 0

    def post(self, url, json=None, timeout=None):
        self.calls += 1
        return self.responses.pop(0)


def test_remote_embedder_requires_api_key(monkeypatch):
    monkeypatch.delenv("TEST_EMBED_KEY", raising=False)
    from bugloc.code_index import ConfigurationError

    with pytest.raises(ConfigurationError):
        RemoteEmbedder("m", 4, "https://api.example", api_key_env="TEST_EMBED_KEY")


def test_remote_embedder_retries_then_fails(monkeypatch):
    monkeypatch.setenv("TEST_EMBED_KEY", "k")
    session = _FakeSession([_FakeResponse(500), _FakeResponse(503), _FakeResponse(500)])
    provider = RemoteEmbedder(
        "m", 2, "https://api.example", api_key_env="TEST_EMBED_KEY",
        max_attempts=3, session=session, retry_delay=0.0,
    )
    with pytest.raises(RetriableProviderError) as err:
        provider.embed_batch(["x"])
    assert err.value.attempts == 3
    assert "remote:m" in str(err.value)
    assert session.calls == 3


def test_remote_embedder_recovers_after_transient_error(monkeypatch):
    monkeypatch.setenv("TEST_EMBED_KEY", "k")
    ok = _FakeResponse(200, {"data": [{"embedding": [1.0, 2.0]}]})
    session = _FakeSession([_FakeResponse(429), ok])
    provider = RemoteEmbedder(
        "m", 2, "https://api.example", api_key_env="TEST_EMBED_KEY",
        max_attempts=3, session=session, retry_delay=0.0,
    )
    assert provider.embed_batch(["x"]).tolist() == [[1.0, 2.0]]


def test_remote_embedder_dimension_mismatch_is_contract_error(monkeypatch):
    monkeypatch.setenv("TEST_EMBED_KEY", "k")
    session = _FakeSession([_FakeResponse(200, {"data": [{"embedding": [1.0, 2.0, 3.0]}]})])
    provider = RemoteEmbedder(
        "m", 2, "https://api.example", api_key_env="TEST_EMBED_KEY", session=session
    )
    with pytest.raises(ProviderContractError):
        provider.embed_batch(["x"])


def remote_with_responses(monkeypatch, *bodies, max_batch_size=64):
    """A 2-dimensional RemoteEmbedder whose posts answer `bodies` in turn."""
    monkeypatch.setenv("TEST_EMBED_KEY", "k")
    session = _FakeSession([_FakeResponse(200, body) for body in bodies])
    return RemoteEmbedder(
        "m", 2, "https://api.example", api_key_env="TEST_EMBED_KEY",
        max_batch_size=max_batch_size, session=session,
    )


@pytest.mark.parametrize(
    "vectors",
    [
        [[1.0, 2.0]],
        [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
        [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
        [[1.0, 2.0], [3.0]],
        [[1.0, float("nan")], [3.0, 4.0]],
        [[1.0, 2.0], [float("-inf"), 4.0]],
        [[1.0, None], [3.0, 4.0]],
        [[1.0, 2.0], ["three", 4.0]],
        [[1.0, 2.0], [10**400, 4.0]],
    ],
    ids=["too-few", "too-many", "dimension", "ragged", "nan", "inf", "null", "string", "no-float-holds-it"],
)
def test_remote_embedder_rejects_a_response_that_breaks_the_contract(monkeypatch, vectors):
    provider = remote_with_responses(monkeypatch, {"data": [{"embedding": v} for v in vectors]})
    with pytest.raises(ProviderContractError):
        provider.embed_batch(["x", "y"])


def test_remote_embedder_returns_one_float64_matrix_over_its_batches(monkeypatch):
    provider = remote_with_responses(
        monkeypatch,
        {"data": [{"embedding": [1, 2]}, {"embedding": [3.5, -4.0]}]},
        {"data": [{"embedding": [0.25, 6]}]},
        max_batch_size=2,
    )
    vectors = provider.embed_batch(["x", "y", "z"])
    assert vectors.dtype == np.float64 and vectors.shape == (3, 2)
    assert vectors.tolist() == [[1.0, 2.0], [3.5, -4.0], [0.25, 6.0]]


def test_remote_embedder_non_json_body_is_contract_error(monkeypatch):
    monkeypatch.setenv("TEST_EMBED_KEY", "k")
    session = _FakeSession([html_response()])
    provider = RemoteEmbedder(
        "m", 2, "https://api.example", api_key_env="TEST_EMBED_KEY", session=session
    )
    with pytest.raises(ProviderContractError, match="not JSON"):
        provider.embed_batch(["x"])
    assert session.calls == 1


def test_cached_embedder_avoids_refetch(tmp_path):
    class Counting(HashingEmbedder):
        def __init__(self):
            super().__init__(dimension=8)
            self.batches = 0

        def embed_batch(self, texts):
            self.batches += 1
            return super().embed_batch(texts)

    inner = Counting()
    cache_file = tmp_path / "cache.json"
    provider = CachedEmbedder(inner, cache_file)
    first = provider.embed("hello world")
    assert inner.batches == 1
    again = provider.embed("hello world")
    assert inner.batches == 1
    assert first.tolist() == again.tolist()

    # A fresh process reuses the persisted cache: zero provider calls.
    inner2 = Counting()
    provider2 = CachedEmbedder(inner2, cache_file)
    assert provider2.embed("hello world").tolist() == first.tolist()
    assert inner2.batches == 0


def test_cached_embedder_needs_only_an_id_a_dimension_and_embed_batch(tmp_path):
    class Minimal:
        provider_id, dimension = "minimal-4", 4

        def embed_batch(self, texts):
            return np.ones((len(texts), 4))

    provider = CachedEmbedder(Minimal(), tmp_path / "cache.json")
    assert provider.embed_batch(["a", "b"]).tolist() == [[1.0] * 4] * 2
    assert not hasattr(provider, "max_batch_size")


def test_writing_into_a_cached_embedders_result_leaves_the_cache_as_it_is(tmp_path):
    cache_file = tmp_path / "cache.json"
    provider = CachedEmbedder(HashingEmbedder(8), cache_file)
    missed = provider.embed_batch(["alpha", "beta"])
    want = missed.tolist()
    missed[:] = 7.0
    hit = provider.embed_batch(["beta", "alpha"])
    assert hit.tolist() == want[::-1]
    hit[:] = 9.0
    provider.embed("alpha")[:] = 5.0
    provider.embed("gamma")  # a miss: the file is written again
    assert provider.embed_batch(["alpha", "beta"]).tolist() == want
    inner = CountingEmbedder(8)
    assert CachedEmbedder(inner, cache_file).embed_batch(["alpha", "beta"]).tolist() == want
    assert inner.calls == []


def test_cached_embedder_concurrent_misses(tmp_path):
    cache_file = tmp_path / "cache.json"
    CachedEmbedder(HashingEmbedder(8), cache_file).embed_batch([f"seed {i}" for i in range(3000)])
    provider = CachedEmbedder(HashingEmbedder(8), cache_file)
    errors = []

    def work(worker):
        try:
            for i in range(30):
                provider.embed(f"worker {worker} miss {i}")
        except Exception as exc:  # recorded, so the assertion below names it
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(json.loads(cache_file.read_text(encoding="utf-8"))) == 3120


def cache_json(provider):
    """The cache file's text as a cache started empty must write it."""
    return json.dumps({key: list(vec) for key, vec in provider._cache.items()})


@pytest.fixture
def written(monkeypatch):
    """Every file written, in order: the target of each atomic write (an
    os.replace) and each file opened for writing in place."""
    targets = []
    real_replace, real_open = os.replace, builtins.open

    def replacing(src, dst, *args, **kwargs):
        targets.append(Path(dst))
        return real_replace(src, dst, *args, **kwargs)

    def opening(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        if isinstance(file, (str, os.PathLike)) and set(mode) & set("wax+"):
            targets.append(Path(file))
        return handle

    monkeypatch.setattr(os, "replace", replacing)
    monkeypatch.setattr(builtins, "open", opening)
    return targets


def test_cached_embedder_file_is_the_json_of_its_mapping(tmp_path):
    cache_file = tmp_path / "cache.json"
    provider = CachedEmbedder(HashingEmbedder(8), cache_file)
    provider.embed_batch(["alpha beta", "gamma", "alpha beta"])  # a text repeated
    provider.embed_batch(["gamma", "delta", "delta", "epsilon"])  # a hit, a repeat, misses
    provider.embed("alpha beta")
    assert len(provider._cache) == 4
    assert cache_file.read_text(encoding="utf-8") == cache_json(provider)

    reopened = CachedEmbedder(HashingEmbedder(8), cache_file)
    reopened.embed_batch(["zeta", "alpha beta", "eta", "zeta"])
    reopened.embed("theta")
    assert len(reopened._cache) == 7
    assert cache_file.read_text(encoding="utf-8") == cache_json(reopened)


def test_cached_embedder_hits_do_not_write(tmp_path, written):
    cache_file = tmp_path / "cache.json"
    provider = CachedEmbedder(HashingEmbedder(8), cache_file)
    provider.embed_batch(["one", "two"])
    assert written == [cache_file]
    provider.embed_batch(["two", "three", "four", "three"])
    assert written == [cache_file] * 2
    provider.embed_batch(["two", "one", "two"])
    CachedEmbedder(HashingEmbedder(8), cache_file).embed("one")
    assert written == [cache_file] * 2


@pytest.mark.parametrize("seeded", [[], ["one", "two"]])
def test_cached_embedder_appends_to_a_file_of_other_whitespace(tmp_path, seeded):
    in_memory = CachedEmbedder(HashingEmbedder(8))
    in_memory.embed_batch(seeded)
    mapping = {key: list(vec) for key, vec in in_memory._cache.items()}
    cache_file = tmp_path / "cache.json"
    cache_file.write_text(json.dumps(mapping, indent=2) + "\n", encoding="utf-8")
    provider = CachedEmbedder(HashingEmbedder(8), cache_file)
    provider.embed_batch(["three", "one"])
    provider.embed("four")
    raw = json.loads(cache_file.read_text(encoding="utf-8"))
    assert raw == {key: list(vec) for key, vec in provider._cache.items()}
    assert len(raw) == len(set(seeded) | {"one", "three", "four"})


def cache_entry(provider, text):
    """The bytes of `text`'s entry in `provider`'s cache file."""
    key = provider._key(text)
    return f"{json.dumps(key)}: {json.dumps(provider._cache[key].tolist())}".encode()


def test_cached_embedder_miss_on_a_large_cache_appends_only_its_entries(tmp_path):
    cache_file = tmp_path / "cache.json"
    CachedEmbedder(HashingEmbedder(4), cache_file).embed_batch([f"text {i}" for i in range(8000)])
    before, inode = cache_file.read_bytes(), cache_file.stat().st_ino
    provider = CachedEmbedder(HashingEmbedder(4), cache_file)
    assert len(provider._cache) == 8000
    provider.embed_batch(["text 1", "new one", "new two"])
    after = cache_file.read_bytes()
    added = b", " + cache_entry(provider, "new one") + b", " + cache_entry(provider, "new two") + b"}"
    assert cache_file.stat().st_ino == inode
    assert after == before[:-1] + added
    assert len(after) - len(before) == len(added) - 1 < 250


def test_cached_embedder_keeps_the_whole_entries_of_a_file_cut_at_any_byte(tmp_path, caplog):
    cache_file = tmp_path / "cache.json"
    texts = ["alpha", "beta", "gamma"]
    writer = CachedEmbedder(HashingEmbedder(3), cache_file)
    for text in texts:
        writer.embed(text)
    whole = cache_file.read_bytes()
    ends = [whole.index(cache_entry(writer, text)) + len(cache_entry(writer, text)) for text in texts]
    keys = [writer._key(text) for text in texts]
    for cut in range(len(whole)):
        cache_file.write_bytes(whole[:cut])
        caplog.clear()
        with caplog.at_level("WARNING", logger="bugloc.embedders"):
            provider = CachedEmbedder(HashingEmbedder(3), cache_file)
        kept = keys[: sum(end <= cut for end in ends)]
        assert list(provider._cache) == kept, cut
        assert f"{len(kept)} entries before the damage are kept" in caplog.text
        provider.embed("delta")  # a whole file again, not an append to the cut one
        assert cache_file.read_text(encoding="utf-8") == cache_json(provider)


def test_cached_embedder_rewrites_a_file_damaged_before_its_end(tmp_path, caplog):
    cache_file = tmp_path / "cache.json"
    writer = CachedEmbedder(HashingEmbedder(3), cache_file)
    writer.embed_batch(["alpha", "beta", "gamma"])
    whole = cache_file.read_bytes()
    cache_file.write_bytes(whole.replace(cache_entry(writer, "beta"), b'"beta": [not a number]'))
    with caplog.at_level("WARNING", logger="bugloc.embedders"):
        provider = CachedEmbedder(HashingEmbedder(3), cache_file)
    assert list(provider._cache) == [writer._key("alpha")]
    assert "1 entries before the damage are kept" in caplog.text
    provider.embed("gamma")
    assert cache_file.read_text(encoding="utf-8") == cache_json(provider)
    assert len(CachedEmbedder(HashingEmbedder(3), cache_file)._cache) == 2


@pytest.mark.parametrize("seeded", [[], ["zero"]])
def test_cached_embedders_that_share_a_file_keep_each_others_entries(tmp_path, seeded):
    cache_file = tmp_path / "cache.json"
    CachedEmbedder(HashingEmbedder(8), cache_file).embed_batch(seeded)
    first, second = (CachedEmbedder(HashingEmbedder(8), cache_file) for _ in range(2))
    first.embed("one")
    second.embed("two")
    first.embed_batch(["three", "two"])  # "two" is a miss for `first`, and is written twice
    second.embed("four")
    texts = [*seeded, "one", "two", "three", "four"]
    reopened = CachedEmbedder(HashingEmbedder(8), cache_file)
    assert list(reopened._cache) == [reopened._key(text) for text in texts]
    for text in texts:
        assert reopened._cache[reopened._key(text)].tolist() == HashingEmbedder(8).embed(text).tolist()


class RandomRows:
    """Dense random rows from a seeded generator, as a model's embeddings
    are, under one provider id whatever the dimension."""

    provider_id = "random"

    def __init__(self, dimension, seed=0):
        self.dimension = dimension
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def embed_batch(self, texts):
        self.calls += 1
        return self.rng.standard_normal((len(texts), self.dimension))


def cache_by_the_embedder(cache_file):
    CachedEmbedder(RandomRows(8), cache_file).embed_batch(["alpha", "beta gamma", "delta"])


def cache_by_json_dumps(cache_file):
    rows = RandomRows(8).embed_batch(["alpha", "beta"])
    cache_file.write_text(json.dumps({f"random:{i}": row.tolist() for i, row in enumerate(rows)}, indent=2))


def empty_cache(cache_file):
    cache_file.write_text("{}")


def cache_with_a_key_written_twice(cache_file):
    first, second = CachedEmbedder(RandomRows(8, seed=1), cache_file), CachedEmbedder(RandomRows(8, seed=2), cache_file)
    first.embed("one")
    second.embed("two")
    first.embed_batch(["three", "two"])  # "two" again, with another row
    assert cache_file.read_text(encoding="utf-8").count(first._key("two")) == 2


@pytest.mark.parametrize(
    "write", [cache_by_the_embedder, cache_by_json_dumps, empty_cache, cache_with_a_key_written_twice]
)
def test_cached_embedder_reads_a_whole_file_as_json_loads_does(tmp_path, caplog, write):
    cache_file = tmp_path / "cache.json"
    write(cache_file)
    with caplog.at_level("WARNING", logger="bugloc.embedders"):
        provider = CachedEmbedder(RandomRows(8), cache_file)
    assert caplog.text == ""
    want = json.loads(cache_file.read_bytes())
    assert list(provider._cache) == list(want)
    assert [row.tobytes() for row in provider._cache.values()] == [
        np.array(row, dtype=np.float64).tobytes() for row in want.values()
    ]
    assert not provider._damaged


def test_cached_embedder_load_holds_at_most_the_files_bytes_and_the_rows_it_keeps(tmp_path):
    cache_file = tmp_path / "cache.json"
    CachedEmbedder(RandomRows(128), cache_file).embed_batch([f"text {i}" for i in range(2000)])
    inner = RandomRows(128)
    gc.collect()
    tracemalloc.start()
    try:
        provider = CachedEmbedder(inner, cache_file)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(provider._cache) == 2000
    assert peak < cache_file.stat().st_size + 1.5 * held, (peak, held)


def test_cached_rows_of_another_length_are_misses(tmp_path, caplog):
    cache_file = tmp_path / "cache.json"
    wide = CachedEmbedder(RandomRows(4), cache_file).embed_batch(["alpha", "beta"])
    inner = RandomRows(3, seed=1)
    with caplog.at_level("WARNING", logger="bugloc.embedders"):
        narrow = CachedEmbedder(inner, cache_file)
    assert narrow._cache == {}
    assert "2 rows whose length is not 3 are left out" in caplog.text
    assert "damaged" not in caplog.text
    assert narrow.embed_batch(["alpha"]).shape == (1, 3)
    hit_and_miss = narrow.embed_batch(["alpha", "gamma"])
    assert hit_and_miss.shape == (2, 3)
    assert inner.calls == 2
    # The file now holds alpha and beta at 4, then alpha and gamma at 3.
    for dimension, texts, want in [(4, ["alpha", "beta"], wide), (3, ["alpha", "gamma"], hit_and_miss)]:
        caplog.clear()
        inner = RandomRows(dimension, seed=2)
        with caplog.at_level("WARNING", logger="bugloc.embedders"):
            reader = CachedEmbedder(inner, cache_file)
        assert f"2 rows whose length is not {dimension} are left out" in caplog.text
        assert list(reader._cache) == [reader._key(text) for text in texts]
        assert reader.embed_batch(texts).tolist() == want.tolist()
        assert inner.calls == 0


# --- index build / shortlist / update -------------------------------------


def planted_repo(tmp_path, n_files=20):
    files = {}
    for i in range(n_files):
        files[f"pkg/File{i}.java"] = java_class(
            f"File{i}", {f"method{i}": f"filler{i} = other{i}();"}
        )
    files["pkg/Target.java"] = java_class(
        "Target", {"zoomOut": "meterchart dial rendering failure;"}
    )
    return write_tree(tmp_path / "repo", files)


def test_shortlist_singleton_corpus(tmp_path):
    root = write_tree(tmp_path / "r", {"Only.java": java_class("Only", {"m": "x();"})})
    index = build_index(root, "java", "v0")
    provider = HashingEmbedder(dimension=32)
    eindex = build_embedding_index(index, provider)
    bug = make_bug(summary="anything at all")
    shortlist = shortlist_files(bug, eindex, provider, k=50)
    assert shortlist.paths() == ["Only.java"]


def test_shortlist_planted_match_rank_1(tmp_path):
    root = planted_repo(tmp_path)
    index = build_index(root, "java", "v0")
    provider = HashingEmbedder(dimension=64)
    eindex = build_embedding_index(index, provider)
    bug = make_bug(summary="zoomOut failure", description="meterchart dial rendering failure")
    shortlist = shortlist_files(bug, eindex, provider, k=50)
    assert shortlist.paths()[0] == "pkg/Target.java"


def test_shortlist_k_larger_than_corpus(tmp_path):
    root = write_tree(
        tmp_path / "r",
        {f"F{i}.java": java_class(f"F{i}", {"m": "x();"}) for i in range(3)},
    )
    index = build_index(root, "java", "v0")
    provider = HashingEmbedder(dimension=32)
    eindex = build_embedding_index(index, provider)
    shortlist = shortlist_files(make_bug(), eindex, provider, k=50)
    assert len(shortlist.entries) == 3


@pytest.mark.parametrize("k", [0, -1])
def test_shortlist_rejects_k_below_one(tmp_path, k):
    root = write_tree(
        tmp_path / "r",
        {f"F{i}.java": java_class(f"F{i}", {"m": "x();"}) for i in range(5)},
    )
    index = build_index(root, "java", "v0")
    provider = HashingEmbedder(dimension=32)
    eindex = build_embedding_index(index, provider)
    with pytest.raises(ValueError, match="at least 1"):
        shortlist_files(make_bug(), eindex, provider, k=k)


def test_shortlist_scores_sorted_and_ties_by_path(tmp_path):
    body = java_class("Same", {"m": "identical();"})
    root = write_tree(tmp_path / "r", {"b/Same.java": body, "a/Same.java": body})
    index = build_index(root, "java", "v0")
    provider = HashingEmbedder(dimension=32)
    eindex = build_embedding_index(index, provider)
    shortlist = shortlist_files(make_bug(summary="identical"), eindex, provider, k=50)
    scores = [score for _, score in shortlist.entries]
    assert scores == sorted(scores, reverse=True)
    # Path line differs so scores differ slightly; force a tie via equal scores check:
    tied = [path for path, score in shortlist.entries if score == shortlist.entries[0][1]]
    assert tied == sorted(tied)


def test_shortlist_insertion_order_irrelevant(tmp_path):
    root = planted_repo(tmp_path, n_files=6)
    index = build_index(root, "java", "v0")
    provider = HashingEmbedder(dimension=64)
    eindex = build_embedding_index(index, provider)
    reversed_index = EmbeddingIndex(
        eindex.dimension, eindex.provider_id, eindex.chunk_limit,
        reversed(eindex.chunks), eindex.vectors[::-1],
    )
    assert reversed_index.records == eindex.records
    bug = make_bug(summary="zoomOut meterchart dial")
    assert shortlist_files(bug, eindex, provider).entries == shortlist_files(
        bug, reversed_index, provider
    ).entries


def test_shortlist_empty_bug_text_rejected(tmp_path):
    root = write_tree(tmp_path / "r", {"A.java": "class A { }"})
    index = build_index(root, "java", "v0")
    provider = HashingEmbedder(dimension=8)
    eindex = build_embedding_index(index, provider)
    with pytest.raises(InputValidationError):
        shortlist_files(make_bug(summary="", description="  "), eindex, provider)


def test_shortlist_empty_index_rejected():
    with pytest.raises(InputValidationError):
        shortlist_files(make_bug(), EmbeddingIndex(8, "hashing-8"), HashingEmbedder(8))


def hashing_as(provider_id: str, dimension: int) -> HashingEmbedder:
    """A hashing embedder that calls itself `provider_id`."""
    provider = HashingEmbedder(dimension)
    provider.provider_id = provider_id
    return provider


def test_shortlist_refuses_a_provider_that_did_not_make_the_index(tmp_path):
    root = planted_repo(tmp_path, n_files=4)
    eindex = build_embedding_index(build_index(root, "java", "v0"), HashingEmbedder(16))
    with pytest.raises(ValueError, match="made by hashing-16 at dimension 16, not by other-16"):
        shortlist_files(make_bug(summary="zoomOut"), eindex, hashing_as("other-16", 16))


def test_update_embeddings_refuses_a_provider_that_did_not_make_the_index(tmp_path):
    root = planted_repo(tmp_path, n_files=4)
    index = build_index(root, "java", "v0")
    eindex = build_embedding_index(index, HashingEmbedder(16))
    changeset = Changeset(modified=(index.sorted_paths()[0],))
    with pytest.raises(ValueError, match="made by hashing-16 at dimension 16, not by other-16"):
        update_embeddings(eindex, changeset, index, hashing_as("other-16", 16))


def test_long_bug_reports_are_chunk_averaged(tmp_path):
    root = write_tree(tmp_path / "r", {"A.java": java_class("A", {"m": "alpha();"})})
    index = build_index(root, "java", "v0")
    provider = HashingEmbedder(dimension=16)
    eindex = build_embedding_index(index, provider)
    long_description = " ".join(f"word{i}" for i in range(900))
    shortlist = shortlist_files(
        make_bug(summary="alpha", description=long_description), eindex, provider, k=5
    )
    assert shortlist.paths() == ["A.java"]


def test_update_embeddings_empty_changeset_identical(tmp_path):
    root = planted_repo(tmp_path, n_files=4)
    index = build_index(root, "java", "v0")
    provider = HashingEmbedder(dimension=32)
    eindex = build_embedding_index(index, provider)
    updated = update_embeddings(eindex, Changeset(), index, provider)
    assert updated.records == eindex.records


def test_update_embeddings_delete_all(tmp_path):
    root = write_tree(tmp_path / "r", {"A.java": "class A { }", "B.java": "class B { }"})
    index = build_index(root, "java", "v0")
    provider = HashingEmbedder(dimension=8)
    eindex = build_embedding_index(index, provider)
    for path in ("A.java", "B.java"):
        (root / path).unlink()
    new_index = update_index(index, Changeset(deleted=("A.java", "B.java")), root, "v1")
    updated = update_embeddings(eindex, Changeset(deleted=("A.java", "B.java")), new_index, provider)
    assert len(updated) == 0


def test_update_embeddings_rename_matches_rebuild(tmp_path):
    root = write_tree(
        tmp_path / "r",
        {"old/Name.java": java_class("Name", {"m": "x();"}), "K.java": "class K { }"},
    )
    index = build_index(root, "java", "v0")
    provider = HashingEmbedder(dimension=16)
    eindex = build_embedding_index(index, provider)
    (root / "new").mkdir()
    (root / "old/Name.java").rename(root / "new/Name.java")
    changeset = Changeset(renamed=(("old/Name.java", "new/Name.java"),))
    new_index = update_index(index, changeset, root, "v1")
    updated = update_embeddings(eindex, changeset, new_index, provider)
    rebuilt = build_embedding_index(new_index, provider)
    assert updated.records == rebuilt.records
    # The untouched file's row is carried over bit for bit.
    def row(ei, key):
        return ei.vectors[ei.chunks.index(ei.records[key].chunk)].tobytes()

    assert row(updated, ("K.java", 0)) == row(eindex, ("K.java", 0))


def test_update_embeddings_keeps_the_index_chunk_limit(tmp_path):
    body = " ".join(f"call{i}();" for i in range(120))
    root = write_tree(tmp_path / "r", {"A.java": java_class("A", {"m": body})})
    index = build_index(root, "java", "v0")
    provider = HashingEmbedder(dimension=8)
    eindex = build_embedding_index(index, provider, chunk_limit=50)
    write_tree(root, {"A.java": java_class("A", {"m": body + " more();"})})
    changeset = Changeset(modified=("A.java",))
    new_index = update_index(index, changeset, root, "v1")
    updated = update_embeddings(eindex, changeset, new_index, provider)
    assert updated.chunk_limit == 50
    assert max(len(tokenize(c.text)) for c in updated.chunks) == 50
    assert updated.records == build_embedding_index(new_index, provider, chunk_limit=50).records


class CountingEmbedder(HashingEmbedder):
    """Records the number of texts of every embed_batch call; raises for a
    batch holding a text that contains `fail_on`."""

    def __init__(self, dimension, fail_on=None):
        super().__init__(dimension)
        self.calls = []
        self.fail_on = fail_on

    def embed_batch(self, texts):
        self.calls.append(len(texts))
        if self.fail_on is not None and any(self.fail_on in t for t in texts):
            raise RetriableProviderError("flaky", 3, "down")
        return super().embed_batch(texts)


def test_build_of_an_index_without_files_makes_no_provider_call():
    provider = CountingEmbedder(16)
    eindex = build_embedding_index(CodeIndex("v0"), provider)
    assert provider.calls == []
    assert len(eindex) == 0 and eindex.vectors.shape == (0, 16)


def test_update_embeddings_is_one_provider_call_and_one_cache_write(tmp_path, written):
    files = {f"pkg/F{i}.java": java_class(f"F{i}", {f"m{i}": f"old{i}();"}) for i in range(50)}
    root = write_tree(tmp_path / "r", files)
    index = build_index(root, "java", "v0")
    inner = CountingEmbedder(16)
    cache_file = tmp_path / "cache.json"
    provider = CachedEmbedder(inner, cache_file)
    eindex = build_embedding_index(index, provider)
    for i, path in enumerate(files):
        (root / path).write_text(java_class(f"F{i}", {f"m{i}": f"new{i}();"}), encoding="utf-8")
    changeset = Changeset(modified=tuple(files))
    new_index = update_index(index, changeset, root, "v1")
    inner.calls.clear()
    written.clear()
    updated = update_embeddings(eindex, changeset, new_index, provider)
    assert inner.calls == [50]
    assert written == [cache_file]
    assert updated.records == build_embedding_index(new_index, HashingEmbedder(16)).records
    assert cache_file.read_text(encoding="utf-8") == cache_json(provider)


def test_update_embeddings_raises_the_error_of_its_one_provider_call(tmp_path):
    names = ("A", "B", "C")
    root = write_tree(tmp_path / "r", {f"{n}.java": java_class(n, {"m": "x();"}) for n in names})
    index = build_index(root, "java", "v0")
    eindex = build_embedding_index(index, HashingEmbedder(8))
    for n in names:
        (root / f"{n}.java").write_text(java_class(n, {"m2": "y();"}), encoding="utf-8")
    changeset = Changeset(modified=tuple(f"{n}.java" for n in names))
    new_index = update_index(index, changeset, root, "v1")
    flaky = CountingEmbedder(8, fail_on="B.java")
    with pytest.raises(RetriableProviderError):
        update_embeddings(eindex, changeset, new_index, flaky)
    assert flaky.calls == [3]


class _StatusSession(_FakeSession):
    """Answers every POST with the same status."""

    def __init__(self, status):
        super().__init__([])
        self.status = status

    def post(self, url, json=None, timeout=None):
        self.calls += 1
        return _FakeResponse(self.status)


@pytest.mark.parametrize(
    "status, error, posts", [(500, RetriableProviderError, 3), (400, ProviderContractError, 1)]
)
def test_update_embeddings_retries_only_in_the_transport(tmp_path, monkeypatch, status, error, posts):
    monkeypatch.setenv("TEST_EMBED_KEY", "k")
    files = {f"pkg/F{i}.java": java_class(f"F{i}", {f"m{i}": f"old{i}();"}) for i in range(50)}
    root = write_tree(tmp_path / "r", files)
    index = build_index(root, "java", "v0")
    eindex = build_embedding_index(index, hashing_as("remote:m", 8))  # as if the endpoint had made it
    for i, path in enumerate(files):
        (root / path).write_text(java_class(f"F{i}", {f"m{i}": f"new{i}();"}), encoding="utf-8")
    changeset = Changeset(modified=tuple(files))
    new_index = update_index(index, changeset, root, "v1")
    session = _StatusSession(status)
    provider = RemoteEmbedder(
        "m", 8, "https://api.example", api_key_env="TEST_EMBED_KEY",
        max_attempts=3, session=session, retry_delay=0.0,
    )
    with pytest.raises(error):
        update_embeddings(eindex, changeset, new_index, provider)
    assert session.calls == posts


@pytest.mark.parametrize("size", [0, -3])
def test_remote_embedder_rejects_a_batch_size_below_one(monkeypatch, size):
    monkeypatch.setenv("TEST_EMBED_KEY", "k")
    with pytest.raises(ValueError, match="max_batch_size must be at least 1"):
        RemoteEmbedder("m", 8, "https://api.example", api_key_env="TEST_EMBED_KEY", max_batch_size=size)


@pytest.mark.parametrize("attempts", [0, -3])
@pytest.mark.parametrize(
    "make",
    [partial(RemoteEmbedder, "m", 8, "https://api.example"), partial(RemoteChatProvider, "m", "https://api.example")],
    ids=["embedder", "chat"],
)
def test_remote_providers_reject_max_attempts_below_one(monkeypatch, make, attempts):
    monkeypatch.setenv("TEST_REMOTE_KEY", "k")
    session = _StatusSession(200)
    with pytest.raises(ValueError, match=f"max_attempts must be at least 1, got {attempts}"):
        make(api_key_env="TEST_REMOTE_KEY", max_attempts=attempts, session=session)
    assert session.calls == 0


def test_embedding_archive_roundtrip(tmp_path):
    root = planted_repo(tmp_path, n_files=3)
    index = build_index(root, "java", "v0")
    provider = HashingEmbedder(dimension=16)
    eindex = build_embedding_index(index, provider)
    archive = tmp_path / "embed.jsonl"
    with pytest.raises(ValueError, match="hold other files"):
        save_embedding_index(eindex, archive, CodeIndex("v0"))
    save_embedding_index(eindex, archive, index)
    loaded = load_embedding_index(archive, index)
    assert loaded.records == eindex.records
    assert loaded.dimension == eindex.dimension
    assert loaded.provider_id == eindex.provider_id


def test_embedding_archive_roundtrip_of_many_chunks_per_file(tmp_path):
    root = planted_repo(tmp_path, n_files=4)
    index = build_index(root, "java", "v0")
    eindex = build_embedding_index(index, HashingEmbedder(dimension=8), chunk_limit=3)
    assert len(eindex) > 3 * len(index.files)
    save_embedding_index(eindex, tmp_path / "embed.jsonl", index)
    loaded = load_embedding_index(tmp_path / "embed.jsonl", index)
    assert loaded.chunks == eindex.chunks
    assert np.array_equal(loaded.vectors, eindex.vectors)
    assert loaded.file_paths == sorted(index.files)
    assert loaded.chunk_limit == 3


def test_embedding_archive_rejects_the_code_index_of_another_version_and_keeps_its_objects(tmp_path):
    root = planted_repo(tmp_path, n_files=3)
    index = build_index(root, "java", "v0")
    pool = ObjectPool(tmp_path / "objects")
    save_code_index(index, tmp_path / "v0.code.jsonl", pool=pool)
    eindex = build_embedding_index(index, HashingEmbedder(dimension=8))
    save_embedding_index(eindex, tmp_path / "v0.embed.jsonl", index, pool=pool)
    write_tree(root, {"pkg/File1.java": java_class("File1", {"method1": "changed();"})})
    updated = update_index(index, Changeset(modified=("pkg/File1.java",)), root, "v1")

    def objects():
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "objects").iterdir()}

    before = objects()
    with pytest.raises(ArchiveFormatError, match="made from other files than its code archive"):
        load_embedding_index(tmp_path / "v0.embed.jsonl", updated)
    assert objects() == before


def counted_encodes(monkeypatch) -> list[str]:
    """The record keys of the vector objects `save_embedding_index` encodes."""
    encoded = []
    encode = embedding._encode_vectors

    def counting(record_key, spans, rows):
        encoded.append(record_key)
        return encode(record_key, spans, rows)

    monkeypatch.setattr(embedding, "_encode_vectors", counting)
    return encoded


@pytest.mark.parametrize("start", ["built", "loaded"])
def test_embedding_save_encodes_only_the_vector_object_of_an_updated_file(tmp_path, monkeypatch, start):
    root = planted_repo(tmp_path, n_files=5)
    provider = HashingEmbedder(dimension=16)
    index = build_index(root, "java", "v0")
    eindex = build_embedding_index(index, provider)
    pool = ObjectPool(tmp_path / "objects")
    save_embedding_index(eindex, tmp_path / "v0.jsonl", index, pool=pool)
    if start == "loaded":
        pool = ObjectPool(tmp_path / "objects")
        index = build_index(root, "java", "v0")
        eindex = load_embedding_index(tmp_path / "v0.jsonl", index, pool=pool)
    encoded = counted_encodes(monkeypatch)
    write_tree(root, {"pkg/File2.java": java_class("File2", {"method2": "changed();"})})
    changeset = Changeset(modified=("pkg/File2.java",))
    index = update_index(index, changeset, root, "v1")
    updated = update_embeddings(eindex, changeset, index, provider)
    save_embedding_index(updated, tmp_path / "v1.jsonl", index, pool=pool)
    assert len(encoded) == 1
    save_embedding_index(updated, tmp_path / "v1-again.jsonl", index, pool=pool)
    assert len(encoded) == 1
    assert (tmp_path / "v1.jsonl").read_bytes() == (tmp_path / "v1-again.jsonl").read_bytes()
    fresh = EmbeddingIndex(16, provider.provider_id, chunks=updated.chunks, vectors=updated.vectors)
    save_embedding_index(fresh, tmp_path / "fresh" / "v1.jsonl", index)  # a pool of its own encodes every file
    assert len(encoded) == 1 + len(index.files)
    entries = [(path / "v1.jsonl").read_text(encoding="utf-8").splitlines()[1:] for path in (tmp_path, tmp_path / "fresh")]
    assert entries[0] == entries[1]


@pytest.mark.parametrize("change", ["row", "chunk"])
def test_embedding_save_encodes_a_file_whose_rows_or_chunks_changed(tmp_path, monkeypatch, change):
    index = build_index(planted_repo(tmp_path, n_files=3), "java", "v0")
    eindex = build_embedding_index(index, HashingEmbedder(dimension=8))
    pool = ObjectPool(tmp_path / "objects")
    save_embedding_index(eindex, tmp_path / "v0.jsonl", index, pool=pool)
    vectors, chunks = eindex.vectors.copy(), list(eindex.chunks)
    first = eindex.file_starts[1]
    if change == "row":
        vectors[first, 0] += 1.0
    else:  # the same rows, one chunk's text cut by a character
        chunks[first] = Chunk(chunks[first].fq_path, 0, chunks[first].text[:-1])
    changed = EmbeddingIndex(8, eindex.provider_id, chunks=chunks, vectors=vectors)
    encoded = counted_encodes(monkeypatch)
    save_embedding_index(changed, tmp_path / "v1.jsonl", index, pool=pool)
    assert len(encoded) == 1
    before, after = (
        [json.loads(line) for line in (tmp_path / name).read_text(encoding="utf-8").splitlines()[1:]]
        for name in ("v0.jsonl", "v1.jsonl")
    )
    assert [a[0] == b[0] for a, b in zip(before, after)] == [i != 1 for i in range(len(before))]
    loaded = load_embedding_index(tmp_path / "v1.jsonl", index)
    assert loaded.chunks == tuple(chunks) and np.array_equal(loaded.vectors, vectors)


def test_embedding_archive_rejects_vector_objects_of_two_dimensions(tmp_path):
    index = build_index(planted_repo(tmp_path, n_files=2), "java", "v0")
    lines = {}
    for dimension in (8, 16):
        archive = tmp_path / f"embed{dimension}.jsonl"
        save_embedding_index(build_embedding_index(index, HashingEmbedder(dimension)), archive, index)
        lines[dimension] = archive.read_text(encoding="utf-8").splitlines()
    save_code_index(index, tmp_path / "code.jsonl")
    record_keys = [key for _, key, _ in map(json.loads, (tmp_path / "code.jsonl").read_text().splitlines()[1:])]
    vector_lines = [lines[16][1], *lines[8][2:]]
    vector_keys = [key for (key,) in map(json.loads, vector_lines)]
    header = json.loads(lines[16][0])
    header["packs"] = sorted(set(header["packs"]) | set(json.loads(lines[8][0])["packs"]))
    header["digest"] = hashlib.sha256("".join(record_keys + vector_keys).encode()).hexdigest()
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("\n".join([json.dumps(header), *vector_lines]) + "\n", encoding="utf-8")
    with pytest.raises(ArchiveFormatError, match="unusable embedding index archive"):
        load_embedding_index(mixed, index)


def test_embedding_archive_rejects_wrong_magic(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"magic": "nope", "format": 1}\n', encoding="utf-8")
    with pytest.raises(ArchiveFormatError):
        load_embedding_index(bad, CodeIndex(""))


def saved_archive(tmp_path):
    root = planted_repo(tmp_path, n_files=3)
    index = build_index(root, "java", "v0")
    eindex = build_embedding_index(index, HashingEmbedder(dimension=16))
    archive = tmp_path / "embed.jsonl"
    save_embedding_index(eindex, archive, index)
    return archive, index


@pytest.mark.parametrize("cut", ["last line", "half of the last line"])
def test_embedding_archive_rejects_a_truncated_body(tmp_path, cut):
    archive, index = saved_archive(tmp_path)
    text = archive.read_text(encoding="utf-8")
    body_end = text.rstrip("\n").rfind("\n") + 1
    keep = body_end if cut == "last line" else (body_end + len(text)) // 2
    archive.write_text(text[:keep], encoding="utf-8")
    with pytest.raises(ArchiveFormatError):
        load_embedding_index(archive, index)


def test_embedding_archive_rejects_rows_of_another_dimension(tmp_path):
    archive, index = saved_archive(tmp_path)
    header, rest = archive.read_text(encoding="utf-8").split("\n", 1)
    archive.write_text(header.replace('"dimension": 16', '"dimension": 8') + "\n" + rest, encoding="utf-8")
    with pytest.raises(ArchiveFormatError, match=r"expected \(\d+, 8\)"):
        load_embedding_index(archive, index)
