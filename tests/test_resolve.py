import random

from bugloc.agent import RawPrediction
from bugloc.code_index import build_index
from bugloc.resolve import (
    RESOLUTION_DROPPED,
    RESOLUTION_EXACT,
    RESOLUTION_JACCARD,
    jaccard_similarity,
    path_token_set,
    resolve_predictions,
    surviving_paths,
)
from conftest import java_class, write_tree


def raw(*claims):
    return [
        RawPrediction(fq_path_claim=claim, justification=f"j{i}", rank=i + 1)
        for i, claim in enumerate(claims)
    ]


# --- jaccard -----------------------------------------------------------------


def test_jaccard_identical_sets():
    assert jaccard_similarity({"a", "b"}, {"a", "b"}) == 1.0


def test_jaccard_disjoint_sets():
    assert jaccard_similarity({"a"}, {"b"}) == 0.0


def test_jaccard_half_overlap():
    assert jaccard_similarity({"a", "b", "c"}, {"b", "c", "d"}) == 0.5


def test_jaccard_both_empty_by_convention():
    assert jaccard_similarity(set(), set()) == 1.0


def test_path_token_set_splits_separators_and_camel_case():
    assert path_token_set("a/b/TitleBlock.java") == {"a", "b", "title", "block", "java"}
    assert path_token_set("org/JavaElementLabels.java") == {
        "org", "java", "element", "labels",
    }


# --- resolution ---------------------------------------------------------------


def fixture_index(tmp_path, files=None):
    files = files or {
        "x/y/TitleBlock.java": java_class("TitleBlock", {"draw": "a();"}),
        "a/z/TitleBlock.java": java_class("TitleBlock", {"draw": "b();"}),
        "a/b/Other.java": java_class("Other", {"run": "c();"}),
    }
    return build_index(write_tree(tmp_path / "repo", files), "java", "v1")


def test_exact_path_kept(tmp_path):
    index = fixture_index(tmp_path)
    resolved = resolve_predictions(raw("a/b/Other.java"), index)
    assert resolved[0].resolution == RESOLUTION_EXACT
    assert resolved[0].fq_path == "a/b/Other.java"
    assert resolved[0].rank == 1


def test_titleblock_jaccard_picks_higher_overlap(tmp_path):
    # claim a/b/TitleBlock.java: tokens {a,b,title,block,java}
    #   x/y/TitleBlock.java -> |∩|=3, |∪|=7 -> 3/7
    #   a/z/TitleBlock.java -> |∩|=4, |∪|=6 -> 2/3  (winner)
    index = fixture_index(tmp_path)
    resolved = resolve_predictions(raw("a/b/TitleBlock.java"), index)
    assert resolved[0].fq_path == "a/z/TitleBlock.java"
    assert resolved[0].resolution == RESOLUTION_JACCARD


def test_jaccard_tie_breaks_path_ascending(tmp_path):
    files = {
        "p/q/Widget.java": java_class("Widget", {"a": "x();"}),
        "p/r/Widget.java": java_class("Widget", {"a": "x();"}),
    }
    index = fixture_index(tmp_path, files)
    resolved = resolve_predictions(raw("zz/Widget.java"), index)
    assert resolved[0].fq_path == "p/q/Widget.java"


def test_unknown_basename_dropped_ranks_shift(tmp_path):
    index = fixture_index(tmp_path)
    resolved = resolve_predictions(
        raw("a/b/Other.java", "nowhere/Ghost.java", "x/y/TitleBlock.java"), index
    )
    assert [r.resolution for r in resolved] == [
        RESOLUTION_EXACT,
        RESOLUTION_DROPPED,
        RESOLUTION_EXACT,
    ]
    assert surviving_paths(resolved) == ["a/b/Other.java", "x/y/TitleBlock.java"]
    survivors = [r for r in resolved if r.rank is not None]
    assert [r.rank for r in survivors] == [1, 2]


def test_duplicates_after_resolution_collapse_to_best_rank(tmp_path):
    index = fixture_index(tmp_path)
    # both claims resolve to a/z/TitleBlock.java
    resolved = resolve_predictions(raw("a/z/TitleBlock.java", "a/q/TitleBlock.java"), index)
    survivors = [r for r in resolved if r.rank is not None]
    assert len(survivors) == 1
    assert survivors[0].rank == 1
    assert resolved[1].resolution == RESOLUTION_DROPPED


def test_truncated_to_final_size(tmp_path):
    files = {f"p/F{i}.java": java_class(f"F{i}", {"m": "x();"}) for i in range(15)}
    index = fixture_index(tmp_path, files)
    resolved = resolve_predictions(raw(*[f"p/F{i}.java" for i in range(15)]), index)
    assert len(surviving_paths(resolved)) == 10


def test_justifications_carried(tmp_path):
    index = fixture_index(tmp_path)
    resolved = resolve_predictions(raw("a/b/Other.java"), index)
    assert resolved[0].justification == "j0"


def test_soundness_order_idempotence_random_sweep(tmp_path):
    files = {
        f"m{i}/n{j}/Name{i}.java": java_class(f"Name{i}", {"go": "x();"})
        for i in range(5)
        for j in range(2)
    }
    index = fixture_index(tmp_path, files)
    all_paths = sorted(index.files)
    rng = random.Random(99)
    pool = all_paths + [
        "bogus/Name0.java",
        "Name3.java",
        "missing/Unknown.java",
        "m0/n0/NAME0.java",
        "a/b/c/Name4.java",
    ]
    for _ in range(200):
        claims = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
        resolved = resolve_predictions(raw(*claims), index)
        survivors = [r for r in resolved if r.rank is not None]
        # soundness
        for record in survivors:
            assert record.fq_path in index.files
        # contiguous ranks
        assert [r.rank for r in survivors] == list(range(1, len(survivors) + 1))
        # order preservation: survivors appear in claim order
        positions = [resolved.index(s) for s in survivors]
        assert positions == sorted(positions)
        # idempotence: resolving the survivors again is the identity
        again = resolve_predictions(
            raw(*[s.fq_path for s in survivors]), index
        )
        again_survivors = [r for r in again if r.rank is not None]
        assert [s.fq_path for s in again_survivors] == [s.fq_path for s in survivors]
        assert all(r.resolution == RESOLUTION_EXACT for r in again_survivors)


def test_basename_match_is_case_sensitive(tmp_path):
    files = {
        "a/Title.java": java_class("Title", {"draw": "a();"}),
        "b/title.java": java_class("title", {"draw": "b();"}),
        "c/TITLE.java": java_class("TITLE", {"draw": "c();"}),
    }
    index = fixture_index(tmp_path, files)
    resolved = resolve_predictions(raw("x/title.java", "x/Title.java", "x/TiTle.java"), index)
    assert [(r.fq_path, r.rank, r.resolution) for r in resolved] == [
        ("b/title.java", 1, RESOLUTION_JACCARD),
        ("a/Title.java", 2, RESOLUTION_JACCARD),
        ("x/TiTle.java", None, RESOLUTION_DROPPED),
    ]
