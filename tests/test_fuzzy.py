import gc
import itertools
import random
import sys
import threading
import weakref
from collections import Counter

import pytest

import bugloc.fuzzy
from bugloc.code_index import Changeset, CodeIndex, MethodRecord, SourceFileRecord, build_index, update_index
from bugloc.fuzzy import (
    NameTable,
    damerau_levenshtein,
    default_distance_cap,
    fuzzy_method_candidates,
    osa_distances,
)
from conftest import java_class, write_tree
from oracles import osa_distance_oracle


def test_identity():
    assert damerau_levenshtein("abc", "abc") == 0


def test_adjacent_transposition_costs_one():
    assert damerau_levenshtein("abc", "acb") == 1


def test_osa_restriction_case():
    # unrestricted Damerau-Levenshtein would give 2 here
    assert damerau_levenshtein("ca", "abc") == 3


def test_empty_strings():
    assert damerau_levenshtein("", "") == 0
    assert damerau_levenshtein("", "abc") == 3
    assert damerau_levenshtein("abc", "") == 3


def test_symmetry_random_sample():
    rng = random.Random(11)
    alphabet = "abc"
    for _ in range(300):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        assert damerau_levenshtein(a, b) == damerau_levenshtein(b, a)
        assert damerau_levenshtein(a, a) == 0


def test_matches_oracle_on_short_pairs():
    strings = [
        "".join(p)
        for length in range(0, 5)
        for p in itertools.product("abc", repeat=length)
    ]
    for a in strings:
        for b in strings:
            assert damerau_levenshtein(a, b) == osa_distance_oracle(a, b), (a, b)


def test_matches_oracle_on_random_pairs_across_machine_words():
    # lengths above 64 take the bit vectors past one machine word
    rng = random.Random(43)
    alphabet = ["a", "b", "c", "X", "é", "中", "\ud800"]

    def word():
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 90)))

    for _ in range(2000):
        a, b = word(), word()
        assert damerau_levenshtein(a, b) == osa_distance_oracle(a, b), (a, b)


def test_typo_recovery_example():
    assert damerau_levenshtein("updateLable", "updateLabel") == 1


def test_default_cap_formula():
    assert default_distance_cap("ab") == 2
    assert default_distance_cap("abcd") == 2
    assert default_distance_cap("abcdefgh") == 2
    assert default_distance_cap("abcdefghi") == 3
    assert default_distance_cap("a" * 20) == 5


def _index(tmp_path):
    files = {
        "a/A.java": java_class("A", {"updateLabel": "x();", "refresh": "y();"}),
        "b/B.java": java_class("B", {"updateLabel": "z();", "zoomOut": "w();"}),
    }
    return build_index(write_tree(tmp_path / "repo", files), "java", "v0")


def test_exact_name_is_rank_one(tmp_path):
    index = _index(tmp_path)
    candidates = fuzzy_method_candidates("updateLabel", index)
    assert candidates[0] == ("updateLabel", "a/A.java")
    assert candidates[1] == ("updateLabel", "b/B.java")


def test_transposed_query_found(tmp_path):
    index = _index(tmp_path)
    candidates = fuzzy_method_candidates("updateLable", index)
    assert candidates[0][0] == "updateLabel"


def test_cap_can_exclude_everything(tmp_path):
    index = _index(tmp_path)
    assert fuzzy_method_candidates("qqqqqqqq", index, cap=1) == []


def test_candidates_sorted_and_truncated(tmp_path):
    files = {
        f"p/C{i}.java": java_class(f"C{i}", {f"nam{i}": "x();"}) for i in range(8)
    }
    index = build_index(write_tree(tmp_path / "many", files), "java", "v0")
    candidates = fuzzy_method_candidates("nam0", index, n=5, cap=2)
    assert len(candidates) == 5
    distances = [damerau_levenshtein("nam0", name) for name, _ in candidates]
    assert distances == sorted(distances)
    assert candidates[0][0] == "nam0"


# --- the vectorized kernel against the scalar kernel and the oracle ---------

AB_STRINGS = ["".join(p) for length in range(5) for p in itertools.product("ab", repeat=length)]


def test_kernel_matches_scalar_on_all_short_ab_pairs():
    for query in AB_STRINGS:
        expected = [damerau_levenshtein(query, name) for name in AB_STRINGS]
        assert osa_distances(query, AB_STRINGS).tolist() == expected, query
        oracle = [osa_distance_oracle(query, name) for name in AB_STRINGS]
        assert osa_distances(query, AB_STRINGS).tolist() == oracle, query


def test_kernel_matches_scalar_on_random_unicode():
    rng = random.Random(23)
    # non-ASCII, astral (one code point, two UTF-16 units) and a lone surrogate
    alphabet = ["a", "b", "c", "é", "ß", "😀", "𝔘", "\ud800"]

    def word():
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 9)))

    for _ in range(400):
        query = word()
        names = [word() for _ in range(rng.randint(1, 8))] + [""]
        expected = [damerau_levenshtein(query, name) for name in names]
        assert osa_distances(query, names).tolist() == expected, (query, names)
        oracle = [osa_distance_oracle(query, name) for name in names]
        assert osa_distances(query, names).tolist() == oracle, (query, names)


# --- fuzzy_method_candidates against a brute-force reference ---------------


def reference_candidates(query, locator, n=5, cap=None):
    if cap is None:
        cap = default_distance_cap(query)
    scored = sorted(
        (damerau_levenshtein(query, name), name, path)
        for name, paths in locator.items()
        for path in paths
    )
    return [(name, path) for distance, name, path in scored if distance <= cap][:n]


@pytest.fixture(scope="module")
def synthetic_index():
    rng = random.Random(7)
    stems = ["render", "update", "stop", "step", "getLabel", "setLabel", "paint"]
    locator: dict[str, set[str]] = {}
    for _ in range(300):
        name = rng.choice(stems)
        for _ in range(rng.randint(0, 2)):  # a few random edits
            k = rng.randrange(len(name) + 1)
            name = name[:k] + rng.choice("aeiopst") + name[k + 1:]
        path = f"p{rng.randrange(6)}/C{rng.randrange(4)}.java"
        locator.setdefault(name, set()).add(path)
    # distance ties across several names, each defined in several paths
    for name in ("stap", "stip", "stup"):
        locator.setdefault(name, set()).update({"z/A.java", "a/Z.java", "m/M.java"})
    methods: dict[str, list[MethodRecord]] = {}
    for name, paths in locator.items():
        for path in paths:
            methods.setdefault(path, []).append(MethodRecord(name, f"{name}()", ""))
    files = {path: SourceFileRecord(path, tuple(found), parse_ok=True) for path, found in methods.items()}
    return CodeIndex(version_id="v0", files=files)


FUZZY_QUERIES = [
    ("stop", {}),
    ("stop", {"n": 50}),
    ("stap", {"n": 1}),
    ("stxp", {"n": 12}),
    ("rendr", {}),
    ("updaet", {"n": 20}),
    ("getLable", {"n": 3, "cap": 3}),
    ("render", {"cap": 0}),
    ("stap", {"cap": 0, "n": 10}),
    ("", {}),
    ("", {"cap": 4, "n": 100}),
    ("thisQueryIsLongerThanEveryMethodName", {}),
    ("thisQueryIsLongerThanEveryMethodName", {"cap": 40, "n": 7}),
    ("😀ender", {"n": 8}),
]


@pytest.mark.parametrize("query,kwargs", FUZZY_QUERIES)
def test_candidates_equal_brute_force(synthetic_index, query, kwargs):
    expected = reference_candidates(query, synthetic_index.method_locator, **kwargs)
    assert fuzzy_method_candidates(query, synthetic_index, **kwargs) == expected


def test_synthetic_index_exercises_ties_and_truncation(synthetic_index):
    locator = synthetic_index.method_locator
    ties = reference_candidates("stxp", locator, n=1000)
    distances = [damerau_levenshtein("stxp", name) for name, _ in ties]
    assert distances.count(1) >= 9  # stap, stip, stup in three paths each, at least
    assert len(reference_candidates("stop", locator, n=1000)) > 5
    assert reference_candidates("thisQueryIsLongerThanEveryMethodName", locator) == []


def test_candidates_never_call_the_scalar_distance(synthetic_index, monkeypatch):
    expected = reference_candidates("updaet", synthetic_index.method_locator, n=20)

    def scalar_distance(a, b):
        raise AssertionError("fuzzy_method_candidates fell back to the per-name DP")

    monkeypatch.setattr(bugloc.fuzzy, "damerau_levenshtein", scalar_distance)
    assert fuzzy_method_candidates("updaet", synthetic_index, n=20) == expected


# --- the bag-distance filter -----------------------------------------------


def bag_distance(a, b):
    """max(|A - B|, |B - A|) over the strings' character multisets."""
    ca, cb = Counter(a), Counter(b)
    return max(sum((ca - cb).values()), sum((cb - ca).values()))


def test_bag_filter_is_exact_and_never_exceeds_the_osa_distance():
    rng = random.Random(31)
    # astral characters and a lone surrogate; the query also draws from
    # characters that no name holds, so they are outside the table's alphabet
    in_names = ["a", "b", "c", "é", "😀", "𝔘", "\ud800"]
    query_only = ["x", "ß", "🙂", "\udfff"]

    def word(alphabet):
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 9)))

    for _ in range(300):
        names = [word(in_names) for _ in range(rng.randint(1, 8))] + [""]
        query = word(in_names + query_only)
        table = NameTable(names)
        for name in names:
            assert bag_distance(query, name) <= damerau_levenshtein(query, name), (query, name)
        for cap in range(-1, 11):
            expected = [name for name in names if bag_distance(query, name) <= cap]
            assert table.within(query, cap) == expected, (query, names, cap)


def test_filter_sends_few_names_to_the_osa_pass(synthetic_index, monkeypatch):
    # fuzzy.names_scanned in the benchmark counts every name of the index,
    # so only a count at the kernel shows what the filter leaves
    expected = reference_candidates("updaet", synthetic_index.method_locator, n=1000)
    received = []
    kernel = bugloc.fuzzy.osa_distances

    def counting(query, names):
        received.append(list(names))
        return kernel(query, names)

    monkeypatch.setattr(bugloc.fuzzy, "osa_distances", counting)
    assert fuzzy_method_candidates("updaet", synthetic_index, n=1000) == expected
    assert len(received) == 1
    assert {name for name, _ in expected} <= set(received[0])
    assert len(received[0]) * 5 < len(synthetic_index.method_locator)


def test_an_index_builds_one_name_table_that_dies_with_it(tmp_path, monkeypatch):
    built = []
    init = NameTable.__init__

    def counting(self, names):
        built.append(weakref.ref(self))
        init(self, names)

    monkeypatch.setattr(NameTable, "__init__", counting)
    root = write_tree(
        tmp_path / "repo",
        {"a/A.java": java_class("A", {"updateLabel": "x();", "refresh": "y();"})},
    )
    index = build_index(root, "java", "v0")
    for query in ("updateLable", "refrsh", "zoomOt", "updateLable"):
        fuzzy_method_candidates(query, index)
    assert len(built) == 1 and built[0]() is index.name_table
    # the table is no field: equality and repr do not see it
    assert index == build_index(root, "java", "v0")
    assert "name_table" not in repr(index)

    (root / "b").mkdir()
    (root / "b/B.java").write_text(java_class("B", {"zoomOut": "w();"}), encoding="utf-8")
    updated = update_index(index, Changeset(added=("b/B.java",)), root, "v1")
    assert fuzzy_method_candidates("zoomOt", updated) == [("zoomOut", "b/B.java")]
    assert fuzzy_method_candidates("zoomOt", index) == []
    assert len(built) == 2 and built[1]() is updated.name_table

    del index
    gc.collect()
    assert built[0]() is None
    assert built[1]() is updated.name_table


def test_threads_searching_one_fresh_index_get_the_reference_results(synthetic_index):
    locator = synthetic_index.method_locator
    queries = ["stop", "updaet", "rendr", "getLable", "stxp", "😀ender"]
    expected = {q: reference_candidates(q, locator, n=50) for q in queries}
    results, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            index = CodeIndex(version_id="v0", files=synthetic_index.files)  # no table yet
            threads = [
                threading.Thread(
                    target=lambda q=q: results.append((q, fuzzy_method_candidates(q, index, n=50)))
                )
                for q in queries * 2
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 3 * 2 * len(queries)
    assert all(found == expected[q] for q, found in results)
