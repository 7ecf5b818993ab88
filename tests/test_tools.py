import pytest

from bugloc.code_index import build_index
from bugloc.embedding import Shortlist
from bugloc.tools import (
    GET_CANDIDATE_FILENAMES,
    GET_METHOD_BODY,
    GET_METHOD_SIGNATURES,
    SEARCH_FILE,
    SEARCH_METHOD,
    ToolRegistry,
    ToolResult,
    _match_files,
    make_tool_registry,
)
from conftest import java_class, write_tree


@pytest.fixture
def repo_index(tmp_path):
    files = {
        "org/eclipse/ui/JavaElementLabels.java": java_class(
            "JavaElementLabels", {"updateLabel": "label = compute();"}
        ),
        "org/apache/Catalina.java": (
            "public class Catalina {\n"
            "    void start() { server.begin(); }\n"
            "    void stop() { server.halt(); }\n"
            "}\n"
        ),
        "org/other/MyLabels.java": java_class("MyLabels", {"paint": "draw();"}),
        "alt/pkg/Catalina.java": java_class("Catalina", {"boot": "init();"}),
    }
    return build_index(write_tree(tmp_path / "repo", files), "java", "v1")


def shortlist_for(index):
    entries = tuple((path, 1.0 - i * 0.1) for i, path in enumerate(sorted(index.files)))
    return Shortlist(entries=entries, k=50)


def registry_for(index, shortlist=None, **kwargs):
    return make_tool_registry(index, shortlist=shortlist, **kwargs)


# --- search_file ------------------------------------------------------------


def test_search_file_exact_basename(repo_index):
    result = registry_for(repo_index).dispatch(SEARCH_FILE, {"name": "JavaElementLabels.java"})
    assert result.ok
    assert result.payload == "org/eclipse/ui/JavaElementLabels.java"
    assert result.note is None


def test_search_file_not_found_is_result_not_error(repo_index):
    result = registry_for(repo_index).dispatch(SEARCH_FILE, {"name": "Missing.java"})
    assert result.ok
    assert "No file matching" in result.payload


def test_search_file_case_insensitive_fallback_noted(repo_index):
    result = registry_for(repo_index).dispatch(SEARCH_FILE, {"name": "javaelementlabels.java"})
    assert result.ok
    assert result.payload == "org/eclipse/ui/JavaElementLabels.java"
    assert result.note


def test_search_file_substring_matches_sorted(repo_index):
    result = registry_for(repo_index).dispatch(SEARCH_FILE, {"name": "Labels"})
    assert result.payload.splitlines() == [
        "org/eclipse/ui/JavaElementLabels.java",
        "org/other/MyLabels.java",
    ]
    assert result.note


def test_search_file_duplicate_basename_lists_both(repo_index):
    result = registry_for(repo_index).dispatch(SEARCH_FILE, {"name": "Catalina.java"})
    assert result.payload.splitlines() == [
        "alt/pkg/Catalina.java",
        "org/apache/Catalina.java",
    ]


# --- search_method ----------------------------------------------------------


def test_search_method_exact(repo_index):
    result = registry_for(repo_index).dispatch(SEARCH_METHOD, {"name": "updateLabel"})
    assert result.payload == "org/eclipse/ui/JavaElementLabels.java"
    assert result.note is None


def test_search_method_typo_fuzzy_recovery(repo_index):
    result = registry_for(repo_index).dispatch(SEARCH_METHOD, {"name": "updateLable"})
    assert "updateLabel" in result.payload
    assert result.note and "fuzzy" in result.note


def test_search_method_unknown_empty_index(tmp_path):
    (tmp_path / "empty").mkdir()
    empty = build_index(tmp_path / "empty", "java", "v0")
    result = registry_for(empty).dispatch(SEARCH_METHOD, {"name": "anything"})
    assert result.ok
    assert "No method named" in result.payload


# --- get_candidate_filenames -------------------------------------------------


def test_candidates_passthrough_in_shortlist_order(repo_index):
    shortlist = shortlist_for(repo_index)
    registry = registry_for(repo_index, shortlist)
    result = registry.dispatch(GET_CANDIDATE_FILENAMES, {})
    assert result.payload.splitlines() == list(shortlist.paths())
    # scores never leak to the model
    assert "0." not in result.payload and "1.0" not in result.payload


def test_candidates_absent_in_noembed_mode(repo_index):
    registry = registry_for(repo_index, shortlist=None)
    assert GET_CANDIDATE_FILENAMES not in registry
    result = registry.dispatch(GET_CANDIDATE_FILENAMES, {})
    assert not result.ok
    assert "not available" in result.payload


def test_candidates_fail_closed_without_shortlist(repo_index):
    registry = registry_for(repo_index, shortlist=None)
    result = registry.dispatch(GET_CANDIDATE_FILENAMES, {})
    assert not result.ok


# --- get_method_signatures_of_a_file -----------------------------------------


def test_signatures_in_source_order(repo_index):
    result = registry_for(repo_index).dispatch(
        GET_METHOD_SIGNATURES, {"fq_path": "org/apache/Catalina.java"}
    )
    assert result.payload.splitlines() == ["start()", "stop()"]


def test_signatures_basename_fallback_noted(repo_index):
    result = registry_for(repo_index).dispatch(
        GET_METHOD_SIGNATURES, {"fq_path": "wrong/pkg/JavaElementLabels.java"}
    )
    assert result.payload == "updateLabel()"
    assert result.note and "basename" in result.note


def test_signatures_path_absent(repo_index):
    result = registry_for(repo_index).dispatch(GET_METHOD_SIGNATURES, {"fq_path": "No.java"})
    assert result.ok
    assert "No file matching" in result.payload


# --- get_method_body ----------------------------------------------------------


def test_body_exact_hit(repo_index):
    result = registry_for(repo_index).dispatch(
        GET_METHOD_BODY, {"method": "start", "fq_path": "org/apache/Catalina.java"}
    )
    assert "server.begin();" in result.payload
    assert "start()" in result.payload


def test_body_global_lookup(repo_index):
    result = registry_for(repo_index).dispatch(GET_METHOD_BODY, {"method": "stop"})
    assert "server.halt();" in result.payload


def test_body_misspelled_name_recovers(repo_index):
    result = registry_for(repo_index).dispatch(
        GET_METHOD_BODY, {"method": "strat", "fq_path": "org/apache/Catalina.java"}
    )
    assert "server.begin();" in result.payload
    assert result.note and "fuzzy" in result.note


def test_body_distant_name_lists_signatures(repo_index):
    result = registry_for(repo_index).dispatch(
        GET_METHOD_BODY, {"method": "zzzzzzzzzz", "fq_path": "org/apache/Catalina.java"}
    )
    assert "Available signatures" in result.payload
    assert "start()" in result.payload


def test_body_overloads_all_returned(tmp_path):
    src = "class O { void f() { a(); } void f(int x) { b(); } }"
    index = build_index(write_tree(tmp_path / "o", {"O.java": src}), "java", "v0")
    result = registry_for(index).dispatch(GET_METHOD_BODY, {"method": "f", "fq_path": "O.java"})
    assert "f()" in result.payload and "f(int)" in result.payload
    assert "a();" in result.payload and "b();" in result.payload


# --- registry / dispatcher -----------------------------------------------------


def test_registry_rejects_unknown_tool_names():
    registry = ToolRegistry()
    with pytest.raises(ValueError):
        registry.register("run_bash", lambda: ToolResult(True, "x"), {})


def test_dispatch_unknown_tool_is_result(repo_index):
    result = registry_for(repo_index).dispatch("made_up_tool", {})
    assert not result.ok
    assert "not available" in result.payload


def test_dispatch_bad_arguments_is_result(repo_index):
    result = registry_for(repo_index).dispatch(SEARCH_FILE, {"wrong_arg": "x"})
    assert not result.ok
    assert "Invalid arguments" in result.payload


def test_tool_totality_never_raises(repo_index):
    registry = registry_for(repo_index, shortlist_for(repo_index))
    probes = [
        (SEARCH_FILE, {"name": ""}),
        (SEARCH_METHOD, {"name": ""}),
        (GET_CANDIDATE_FILENAMES, {}),
        (GET_METHOD_SIGNATURES, {"fq_path": ""}),
        (GET_METHOD_BODY, {"method": ""}),
        (GET_METHOD_BODY, {"method": "x", "fq_path": None}),
        (SEARCH_FILE, {}),
    ]
    for name, arguments in probes:
        result = registry.dispatch(name, arguments)
        assert isinstance(result, ToolResult)


def test_schemas_cover_registered_tools(repo_index):
    registry = registry_for(repo_index, shortlist_for(repo_index))
    schema_names = {s["name"] for s in registry.schemas()}
    assert schema_names == {
        SEARCH_FILE,
        SEARCH_METHOD,
        GET_CANDIDATE_FILENAMES,
        GET_METHOD_SIGNATURES,
        GET_METHOD_BODY,
    }


# --- characterization: everything a model sees from each tool ------------------

CHARACTERIZED_FILES = {
    "org/eclipse/ui/JavaElementLabels.java": java_class(
        "JavaElementLabels", {"updateLabel": "label = compute();", "getLabel": "return label;"}
    ),
    "org/apache/Catalina.java": java_class(
        "Catalina", {"start": "server.begin();", "stop": "server.halt();"}
    ),
    "alt/pkg/Catalina.java": java_class("Catalina", {"boot": "init();"}),
    "org/other/MyLabels.java": java_class("MyLabels", {"paint": "draw();", "render": "paint();"}),
    "org/view/Shape.java": (
        "abstract class Shape {\n"
        "    abstract void render();\n"
        "    void render(int scale) { draw(scale); }\n"
        "}\n"
    ),
    "org/apache/Pump.java": java_class("Pump", {"stop": "valve.close();", "step": "tick();"}),
    "broken/Bad.java": "class Bad { int foo( {",
    "empty/Empty.java": "class Empty { }\n",
}

# (case id, registry kind, tool name, arguments). Registry kinds: "shortlist"
# (all five tools, a three-file shortlist), "none" (candidate tool without a
# shortlist), "empty" (an empty shortlist), "noembed" (no candidate tool).
CHARACTERIZATION_CASES = [
    ("file-exact", "shortlist", SEARCH_FILE, {"name": "JavaElementLabels.java"}),
    ("file-case-insensitive", "shortlist", SEARCH_FILE, {"name": "javaelementlabels.java"}),
    ("file-substring", "shortlist", SEARCH_FILE, {"name": "Labels"}),
    ("file-shared-basename", "shortlist", SEARCH_FILE, {"name": "Catalina.java"}),
    ("file-missing", "shortlist", SEARCH_FILE, {"name": "Missing.java"}),
    ("file-empty-name", "shortlist", SEARCH_FILE, {"name": ""}),
    ("file-none-name", "shortlist", SEARCH_FILE, {"name": None}),
    ("method-exact", "shortlist", SEARCH_METHOD, {"name": "updateLabel"}),
    ("method-exact-several", "shortlist", SEARCH_METHOD, {"name": "render"}),
    ("method-fuzzy-several", "shortlist", SEARCH_METHOD, {"name": "rendr"}),
    ("method-fuzzy-tie", "shortlist", SEARCH_METHOD, {"name": "stap"}),
    ("method-missing", "shortlist", SEARCH_METHOD, {"name": "zzzzzzzzzz"}),
    ("candidates-shortlist", "shortlist", GET_CANDIDATE_FILENAMES, {}),
    ("candidates-no-shortlist", "none", GET_CANDIDATE_FILENAMES, {}),
    ("candidates-empty-shortlist", "empty", GET_CANDIDATE_FILENAMES, {}),
    ("candidates-noembed", "noembed", GET_CANDIDATE_FILENAMES, {}),
    ("sigs-exact", "shortlist", GET_METHOD_SIGNATURES, {"fq_path": "org/apache/Catalina.java"}),
    ("sigs-basename-fallback", "shortlist", GET_METHOD_SIGNATURES,
     {"fq_path": "wrong/pkg/JavaElementLabels.java"}),
    ("sigs-case-insensitive-fallback", "shortlist", GET_METHOD_SIGNATURES,
     {"fq_path": "org/eclipse/ui/javaelementlabels.java"}),
    ("sigs-substring-fallback", "shortlist", GET_METHOD_SIGNATURES, {"fq_path": "Shape"}),
    ("sigs-substring-several", "shortlist", GET_METHOD_SIGNATURES, {"fq_path": "Labels"}),
    ("sigs-shared-basename", "shortlist", GET_METHOD_SIGNATURES, {"fq_path": "x/Catalina.java"}),
    ("sigs-missing", "shortlist", GET_METHOD_SIGNATURES, {"fq_path": "No.java"}),
    ("sigs-unparsable", "shortlist", GET_METHOD_SIGNATURES, {"fq_path": "broken/Bad.java"}),
    ("sigs-unparsable-fallback", "shortlist", GET_METHOD_SIGNATURES, {"fq_path": "Bad.java"}),
    ("sigs-no-methods", "shortlist", GET_METHOD_SIGNATURES, {"fq_path": "empty/Empty.java"}),
    ("sigs-no-methods-fallback", "shortlist", GET_METHOD_SIGNATURES, {"fq_path": "Empty.java"}),
    ("sigs-none-path", "shortlist", GET_METHOD_SIGNATURES, {"fq_path": None}),
    ("sigs-trailing-slash", "shortlist", GET_METHOD_SIGNATURES, {"fq_path": "org/apache/"}),
    ("body-exact", "shortlist", GET_METHOD_BODY,
     {"method": "start", "fq_path": "org/apache/Catalina.java"}),
    ("body-abstract-and-overloaded", "shortlist", GET_METHOD_BODY,
     {"method": "render", "fq_path": "org/view/Shape.java"}),
    ("body-file-fuzzy", "shortlist", GET_METHOD_BODY,
     {"method": "strat", "fq_path": "org/apache/Catalina.java"}),
    ("body-file-fuzzy-overloaded", "shortlist", GET_METHOD_BODY,
     {"method": "rendr", "fq_path": "org/view/Shape.java"}),
    ("body-file-fuzzy-tie", "shortlist", GET_METHOD_BODY,
     {"method": "stap", "fq_path": "org/apache/Pump.java"}),
    ("body-fallback-exact", "shortlist", GET_METHOD_BODY,
     {"method": "getLabel", "fq_path": "wrong/JavaElementLabels.java"}),
    ("body-fallback-fuzzy-merged-note", "shortlist", GET_METHOD_BODY,
     {"method": "updateLable", "fq_path": "wrong/JavaElementLabels.java"}),
    ("body-distant-name", "shortlist", GET_METHOD_BODY,
     {"method": "zzzzzzzzzz", "fq_path": "org/apache/Catalina.java"}),
    ("body-fallback-distant-name", "shortlist", GET_METHOD_BODY,
     {"method": "zzzzzzzzzz", "fq_path": "Pump.java"}),
    ("body-unparsable", "shortlist", GET_METHOD_BODY,
     {"method": "foo", "fq_path": "broken/Bad.java"}),
    ("body-no-methods", "shortlist", GET_METHOD_BODY,
     {"method": "run", "fq_path": "empty/Empty.java"}),
    ("body-shared-basename", "shortlist", GET_METHOD_BODY,
     {"method": "start", "fq_path": "x/Catalina.java"}),
    ("body-missing-file", "shortlist", GET_METHOD_BODY, {"method": "start", "fq_path": "No.java"}),
    ("body-trailing-slash", "shortlist", GET_METHOD_BODY,
     {"method": "start", "fq_path": "org/apache/"}),
    ("body-global-exact-several", "shortlist", GET_METHOD_BODY, {"method": "render"}),
    ("body-global-exact-overloads", "shortlist", GET_METHOD_BODY, {"method": "stop"}),
    ("body-global-fuzzy-several", "shortlist", GET_METHOD_BODY, {"method": "rendr"}),
    ("body-global-fuzzy-tie", "shortlist", GET_METHOD_BODY, {"method": "stap"}),
    ("body-global-missing", "shortlist", GET_METHOD_BODY, {"method": "zzzzzzzzzz"}),
    ("body-empty-path-is-global", "shortlist", GET_METHOD_BODY,
     {"method": "boot", "fq_path": ""}),
    ("body-none-path-is-global", "shortlist", GET_METHOD_BODY,
     {"method": "boot", "fq_path": None}),
    ("dispatch-unknown-tool", "shortlist", "made_up_tool", {}),
    ("dispatch-unexpected-argument", "shortlist", SEARCH_FILE, {"wrong_arg": "x"}),
    ("dispatch-missing-argument", "shortlist", GET_METHOD_BODY, {}),
    ("dispatch-argument-to-candidates", "shortlist", GET_CANDIDATE_FILENAMES, {"k": 3}),
]


def characterization_registries(root):
    index = build_index(write_tree(root, CHARACTERIZED_FILES), "java", "v1")
    shortlist = Shortlist(
        entries=(
            ("org/apache/Catalina.java", 0.9),
            ("org/view/Shape.java", 0.5),
            ("empty/Empty.java", 0.1),
        ),
        k=3,
    )
    return {
        "shortlist": make_tool_registry(index, shortlist=shortlist),
        "none": make_tool_registry(index, shortlist=None),
        "empty": make_tool_registry(index, shortlist=Shortlist(entries=(), k=3)),
        "noembed": make_tool_registry(index, shortlist=None),
    }


@pytest.fixture(scope="module")
def characterized_registries(tmp_path_factory):
    return characterization_registries(tmp_path_factory.mktemp("characterized"))

# The exact (ok, payload, note) of each case above: what a model is shown.
# A refactor of the tools must leave every entry unchanged.
CHARACTERIZED_RESULTS = {
    "file-exact": (
        True,
        "org/eclipse/ui/JavaElementLabels.java",
        None,
    ),
    "file-case-insensitive": (
        True,
        "org/eclipse/ui/JavaElementLabels.java",
        "matched basename case-insensitively for 'javaelementlabels.java'",
    ),
    "file-substring": (
        True,
        (
            "org/eclipse/ui/JavaElementLabels.java\n"
            "org/other/MyLabels.java"
        ),
        "matched 'Labels' as a path substring",
    ),
    "file-shared-basename": (
        True,
        (
            "alt/pkg/Catalina.java\n"
            "org/apache/Catalina.java"
        ),
        None,
    ),
    "file-missing": (
        True,
        "No file matching 'Missing.java' was found.",
        None,
    ),
    "file-empty-name": (
        True,
        "No file matching '' was found.",
        None,
    ),
    "file-none-name": (
        False,
        "Invalid arguments for 'search_file': 'name' must be a string, not NoneType",
        None,
    ),
    "method-exact": (
        True,
        "org/eclipse/ui/JavaElementLabels.java",
        None,
    ),
    "method-exact-several": (
        True,
        (
            "org/other/MyLabels.java\n"
            "org/view/Shape.java"
        ),
        None,
    ),
    "method-fuzzy-several": (
        True,
        (
            "No exact definition of 'rendr'. Closest method names:\n"
            "render - org/other/MyLabels.java\n"
            "render - org/view/Shape.java"
        ),
        "fuzzy-matched from 'rendr'",
    ),
    "method-fuzzy-tie": (
        True,
        (
            "No exact definition of 'stap'. Closest method names:\n"
            "step - org/apache/Pump.java\n"
            "stop - org/apache/Catalina.java\n"
            "stop - org/apache/Pump.java\n"
            "start - org/apache/Catalina.java"
        ),
        "fuzzy-matched from 'stap'",
    ),
    "method-missing": (
        True,
        "No method named 'zzzzzzzzzz' was found in the code base.",
        None,
    ),
    "candidates-shortlist": (
        True,
        (
            "org/apache/Catalina.java\n"
            "org/view/Shape.java\n"
            "empty/Empty.java"
        ),
        None,
    ),
    "candidates-no-shortlist": (
        False,
        "Tool 'get_candidate_filenames' is not available in this run.",
        None,
    ),
    "candidates-empty-shortlist": (
        True,
        "The candidate shortlist is empty.",
        None,
    ),
    "candidates-noembed": (
        False,
        "Tool 'get_candidate_filenames' is not available in this run.",
        None,
    ),
    "sigs-exact": (
        True,
        (
            "start()\n"
            "stop()"
        ),
        None,
    ),
    "sigs-basename-fallback": (
        True,
        (
            "updateLabel()\n"
            "getLabel()"
        ),
        "'wrong/pkg/JavaElementLabels.java' not found; using basename match org/eclipse/ui/JavaElementLabels.java",
    ),
    "sigs-case-insensitive-fallback": (
        True,
        (
            "updateLabel()\n"
            "getLabel()"
        ),
        "'org/eclipse/ui/javaelementlabels.java' not found; using basename match org/eclipse/ui/JavaElementLabels.java",
    ),
    "sigs-substring-fallback": (
        True,
        (
            "render()\n"
            "render(int)"
        ),
        "'Shape' not found; using basename match org/view/Shape.java",
    ),
    "sigs-substring-several": (
        True,
        (
            "Multiple files match that name:\n"
            "org/eclipse/ui/JavaElementLabels.java\n"
            "org/other/MyLabels.java"
        ),
        "'Labels' not found; listing basename matches",
    ),
    "sigs-shared-basename": (
        True,
        (
            "Multiple files match that name:\n"
            "alt/pkg/Catalina.java\n"
            "org/apache/Catalina.java"
        ),
        "'x/Catalina.java' not found; listing basename matches",
    ),
    "sigs-missing": (
        True,
        "No file matching 'No.java' was found.",
        None,
    ),
    "sigs-unparsable": (
        True,
        "broken/Bad.java could not be parsed; no signatures available.",
        None,
    ),
    "sigs-unparsable-fallback": (
        True,
        "broken/Bad.java could not be parsed; no signatures available.",
        "'Bad.java' not found; using basename match broken/Bad.java",
    ),
    "sigs-no-methods": (
        True,
        "empty/Empty.java defines no methods.",
        None,
    ),
    "sigs-no-methods-fallback": (
        True,
        "empty/Empty.java defines no methods.",
        "'Empty.java' not found; using basename match empty/Empty.java",
    ),
    "sigs-none-path": (
        False,
        "Invalid arguments for 'get_method_signatures_of_a_file': 'fq_path' must be a string, not NoneType",
        None,
    ),
    "sigs-trailing-slash": (
        True,
        "No file matching 'org/apache/' was found.",
        None,
    ),
    "body-exact": (
        True,
        (
            "start() in org/apache/Catalina.java:\n"
            "void start() { server.begin(); }"
        ),
        None,
    ),
    "body-abstract-and-overloaded": (
        True,
        (
            "render() in org/view/Shape.java:\n"
            "<abstract method: no body>\n"
            "\n"
            "render(int) in org/view/Shape.java:\n"
            "void render(int scale) { draw(scale); }"
        ),
        None,
    ),
    "body-file-fuzzy": (
        True,
        (
            "start() in org/apache/Catalina.java:\n"
            "void start() { server.begin(); }"
        ),
        "fuzzy-matched 'strat' to 'start'",
    ),
    "body-file-fuzzy-overloaded": (
        True,
        (
            "render() in org/view/Shape.java:\n"
            "<abstract method: no body>\n"
            "\n"
            "render(int) in org/view/Shape.java:\n"
            "void render(int scale) { draw(scale); }"
        ),
        "fuzzy-matched 'rendr' to 'render'",
    ),
    "body-file-fuzzy-tie": (
        True,
        (
            "step() in org/apache/Pump.java:\n"
            "void step() { tick(); }"
        ),
        "fuzzy-matched 'stap' to 'step'",
    ),
    "body-fallback-exact": (
        True,
        (
            "getLabel() in org/eclipse/ui/JavaElementLabels.java:\n"
            "void getLabel() { return label; }"
        ),
        "'wrong/JavaElementLabels.java' not found; using basename match org/eclipse/ui/JavaElementLabels.java",
    ),
    "body-fallback-fuzzy-merged-note": (
        True,
        (
            "updateLabel() in org/eclipse/ui/JavaElementLabels.java:\n"
            "void updateLabel() { label = compute(); }"
        ),
        "'wrong/JavaElementLabels.java' not found; using basename match org/eclipse/ui/JavaElementLabels.java; fuzzy-matched 'updateLable' to 'updateLabel'",
    ),
    "body-distant-name": (
        True,
        (
            "No method close to 'zzzzzzzzzz' in org/apache/Catalina.java. Available signatures:\n"
            "start()\n"
            "stop()"
        ),
        None,
    ),
    "body-fallback-distant-name": (
        True,
        (
            "No method close to 'zzzzzzzzzz' in org/apache/Pump.java. Available signatures:\n"
            "stop()\n"
            "step()"
        ),
        "'Pump.java' not found; using basename match org/apache/Pump.java",
    ),
    "body-unparsable": (
        True,
        (
            "No method close to 'foo' in broken/Bad.java. Available signatures:\n"
            "<none>"
        ),
        None,
    ),
    "body-no-methods": (
        True,
        (
            "No method close to 'run' in empty/Empty.java. Available signatures:\n"
            "<none>"
        ),
        None,
    ),
    "body-shared-basename": (
        True,
        (
            "Multiple files match that name:\n"
            "alt/pkg/Catalina.java\n"
            "org/apache/Catalina.java"
        ),
        "'x/Catalina.java' not found; listing basename matches",
    ),
    "body-missing-file": (
        True,
        "No file matching 'No.java' was found.",
        None,
    ),
    "body-trailing-slash": (
        True,
        "No file matching 'org/apache/' was found.",
        None,
    ),
    "body-global-exact-several": (
        True,
        (
            "render() in org/other/MyLabels.java:\n"
            "void render() { paint(); }\n"
            "\n"
            "render() in org/view/Shape.java:\n"
            "<abstract method: no body>\n"
            "\n"
            "render(int) in org/view/Shape.java:\n"
            "void render(int scale) { draw(scale); }"
        ),
        None,
    ),
    "body-global-exact-overloads": (
        True,
        (
            "stop() in org/apache/Catalina.java:\n"
            "void stop() { server.halt(); }\n"
            "\n"
            "stop() in org/apache/Pump.java:\n"
            "void stop() { valve.close(); }"
        ),
        None,
    ),
    "body-global-fuzzy-several": (
        True,
        (
            "render() in org/other/MyLabels.java:\n"
            "void render() { paint(); }\n"
            "\n"
            "render() in org/view/Shape.java:\n"
            "<abstract method: no body>\n"
            "\n"
            "render(int) in org/view/Shape.java:\n"
            "void render(int scale) { draw(scale); }"
        ),
        "fuzzy-matched 'rendr' to 'render'",
    ),
    "body-global-fuzzy-tie": (
        True,
        (
            "step() in org/apache/Pump.java:\n"
            "void step() { tick(); }"
        ),
        "fuzzy-matched 'stap' to 'step'",
    ),
    "body-global-missing": (
        True,
        "No method named 'zzzzzzzzzz' was found in the code base.",
        None,
    ),
    "body-empty-path-is-global": (
        True,
        (
            "boot() in alt/pkg/Catalina.java:\n"
            "void boot() { init(); }"
        ),
        None,
    ),
    "body-none-path-is-global": (
        True,
        (
            "boot() in alt/pkg/Catalina.java:\n"
            "void boot() { init(); }"
        ),
        None,
    ),
    "dispatch-unknown-tool": (
        False,
        "Tool 'made_up_tool' is not available in this run.",
        None,
    ),
    "dispatch-unexpected-argument": (
        False,
        "Invalid arguments for 'search_file': make_tool_registry.<locals>.search_file() got an unexpected keyword argument 'wrong_arg'",
        None,
    ),
    "dispatch-missing-argument": (
        False,
        "Invalid arguments for 'get_method_body': make_tool_registry.<locals>.get_method_body() missing 1 required positional argument: 'method'",
        None,
    ),
    "dispatch-argument-to-candidates": (
        False,
        "Invalid arguments for 'get_candidate_filenames': make_tool_registry.<locals>.get_candidate_filenames() got an unexpected keyword argument 'k'",
        None,
    ),
}


@pytest.mark.parametrize(
    "kind,tool,arguments,expected",
    [
        pytest.param(kind, tool, arguments, CHARACTERIZED_RESULTS[case_id], id=case_id)
        for case_id, kind, tool, arguments in CHARACTERIZATION_CASES
    ],
)
def test_tool_results_are_pinned(characterized_registries, kind, tool, arguments, expected):
    result = characterized_registries[kind].dispatch(tool, dict(arguments))
    assert (result.ok, result.payload, result.note) == expected


def cascade_by_scanning(index, name):
    """search_file's cascade over every file, as a reference."""
    if not name:
        return [], None
    exact = sorted(p for p, r in index.files.items() if r.basename == name)
    if exact:
        return exact, None
    lowered = name.lower()
    ci = sorted(p for p, r in index.files.items() if r.basename.lower() == lowered)
    if ci:
        return ci, f"matched basename case-insensitively for '{name}'"
    sub = sorted(p for p in index.files if lowered in p.lower())
    if sub:
        return sub, f"matched '{name}' as a path substring"
    return [], None


def test_file_matches_equal_a_scan_of_every_file(tmp_path):
    files = {
        path: java_class("X", {"go": "x();"})
        for path in (
            "z/Foo.java", "a/Foo.java", "b/foo.java", "c/FOO.java", "Foo.java",
            "d/Bar.java", "e/Straße.java", "f/STRASSE.java",
        )
    }
    index = build_index(write_tree(tmp_path / "repo", files), "java", "v1")
    for name in (
        "Foo.java", "foo.java", "FOO.JAVA", "fOo.java", "Bar.java", "bar.java", "BAR.java",
        "Straße.java", "strasse.java", "ar.ja", "a/", "java", "", "Missing.java", "z/Foo.java",
    ):
        assert _match_files(index, name) == cascade_by_scanning(index, name), name
