import hashlib
import importlib
import json
import random
from pathlib import Path

from bugloc import java_parser
from bugloc.java_parser import JavaGrammar, get_grammar
from conftest import java_class

import pytest

GRAMMAR = JavaGrammar()


def names(result):
    return [m.name for m in result.methods]


def test_bare_method_fixture():
    result = GRAMMAR.parse("int add(int a,int b){return a+b;}")
    assert result.ok
    assert len(result.methods) == 1
    method = result.methods[0]
    assert method.name == "add"
    assert method.signature == "add(int,int)"
    assert method.body == "int add(int a,int b){return a+b;}"


def test_broken_file_not_ok_and_methodless():
    result = GRAMMAR.parse("class A { int foo( {")
    assert not result.ok
    assert result.methods == []


def test_unterminated_string_is_parse_failure():
    result = GRAMMAR.parse('class A { String s = "oops; }')
    assert not result.ok


def test_constructor_included_initializers_excluded():
    src = """
    class Foo {
        static { setup(); }
        { instanceInit(); }
        Foo(int size) { this.size = size; }
        void work() { run(); }
    }
    """
    result = GRAMMAR.parse(src)
    assert result.ok
    assert names(result) == ["Foo", "work"]
    assert result.methods[0].signature == "Foo(int)"


def test_field_declarations_excluded():
    src = """
    class Foo {
        int limit = compute(1, 2);
        Runnable r;
        void act() { go(); }
    }
    """
    result = GRAMMAR.parse(src)
    assert names(result) == ["act"]


def test_generics_kept_whitespace_normalized():
    src = "class A { Map<String, List<Integer>> lookup(Map<String , List<Integer>> m, int... rest) { return m; } }"
    result = GRAMMAR.parse(src)
    assert result.methods[0].signature == "lookup(Map<String,List<Integer>>,int...)"


def test_array_param_styles():
    src = "class A { void f(int[] a, int b[]) { } }"
    result = GRAMMAR.parse(src)
    assert result.methods[0].signature == "f(int[],int[])"


def test_annotations_ignored():
    src = """
    class A {
        @Override
        @SuppressWarnings("unchecked")
        void act(@Named("x") int a) { go(); }
        @Deprecated int legacyField = thing();
    }
    """
    result = GRAMMAR.parse(src)
    assert names(result) == ["act"]
    assert result.methods[0].signature == "act(int)"


def test_abstract_and_interface_methods_flagged_empty_body():
    src = """
    interface Api {
        String value();
        default int version() { return 1; }
    }
    abstract class Base {
        abstract void flush();
    }
    """
    result = GRAMMAR.parse(src)
    by_name = {m.name: m for m in result.methods}
    assert by_name["value"].abstract and by_name["value"].body == ""
    assert by_name["flush"].abstract and by_name["flush"].body == ""
    assert not by_name["version"].abstract
    assert by_name["version"].body == "default int version() { return 1; }"


def test_inner_and_anonymous_class_methods_attributed_to_file():
    src = """
    class Outer {
        class Inner { void innerRun() { a(); } }
        void spawn() {
            new Thread(new Runnable() {
                public void run() { work(); }
            }).start();
        }
    }
    """
    result = GRAMMAR.parse(src)
    assert names(result) == ["innerRun", "spawn", "run"]


def test_enum_constants_not_methods_but_their_bodies_are():
    src = """
    enum Color {
        RED(1) { int shade() { return 1; } },
        GREEN;
        int base() { return 0; }
    }
    """
    result = GRAMMAR.parse(src)
    assert names(result) == ["shade", "base"]


def test_control_flow_keywords_not_methods():
    src = """
    class A {
        void f() {
            if (x) { y(); }
            while (p()) { q(); }
            for (int i = 0; i < n; i++) { r(); }
            try { s(); } catch (Exception e) { t(); } finally { u(); }
            synchronized (lock) { v(); }
            switch (k) { case 1: break; }
        }
    }
    """
    result = GRAMMAR.parse(src)
    assert names(result) == ["f"]


def test_comments_and_strings_with_braces_are_inert():
    src = """
    class A {
        // } stray brace in comment {
        /* { another } */
        void f() { String s = "{not a block}"; char c = '{'; }
    }
    """
    result = GRAMMAR.parse(src)
    assert result.ok
    assert names(result) == ["f"]


def test_methods_in_source_order():
    src = "class A { void b() { } void a() { } void c() { } }"
    result = GRAMMAR.parse(src)
    assert names(result) == ["b", "a", "c"]


def test_overloads_each_recorded():
    src = "class A { void f() { } void f(int x) { } }"
    result = GRAMMAR.parse(src)
    assert [m.signature for m in result.methods] == ["f()", "f(int)"]


def test_annotation_array_arguments_do_not_hide_members():
    src = """
    @SuppressWarnings({"unchecked", "rawtypes"})
    public class A {
        @W({"x", "y"}) void act() { go(); }
        void later() { done(); }
    }
    """
    result = GRAMMAR.parse(src)
    assert result.ok
    assert names(result) == ["act", "later"]


def test_anonymous_class_inside_call_arguments():
    src = """
    class A {
        void spawn() {
            new Thread(new Runnable() { public void run() { work(); } }).start();
        }
    }
    """
    result = GRAMMAR.parse(src)
    assert names(result) == ["spawn", "run"]


def test_array_literals_and_lambdas_in_arguments():
    src = """
    class A {
        int f(java.util.List<int[]> xs) {
            int[] flat = new int[]{1, 2, 3};
            xs.forEach(x -> { consume(x); });
            return register(new int[]{4}, () -> { return 5; });
        }
    }
    """
    result = GRAMMAR.parse(src)
    assert result.ok
    assert names(result) == ["f"]


def test_switch_expressions_and_text_blocks():
    src = '''
    class A {
        static final String BLOCK = """
            { braces } and "quotes" inside
            """;
        int pick(int kind) {
            return switch (kind) {
                case 1 -> 1;
                case 2 -> { yield 2; }
                default -> 0;
            };
        }
    }
    '''
    result = GRAMMAR.parse(src)
    assert result.ok
    assert names(result) == ["pick"]


def test_annotation_members_with_array_defaults_are_recorded():
    src = "@interface A { int[] v() default {1, 2}; C[] cs() default { @C(1), @C(2) }; String s(); }"
    result = GRAMMAR.parse(src)
    assert result.ok
    assert [(m.signature, m.body, m.abstract) for m in result.methods] == [
        ("v()", "", True), ("cs()", "", True), ("s()", "", True),
    ]


def test_native_method_stored_bodyless():
    src = "class A { public synchronized native void nativeOp(int flags); }"
    result = GRAMMAR.parse(src)
    assert [m.signature for m in result.methods] == ["nativeOp(int)"]
    assert result.methods[0].abstract and result.methods[0].body == ""


def test_unbalanced_parens_is_parse_failure():
    assert not GRAMMAR.parse("class A { void f(int x { } }").ok
    assert not GRAMMAR.parse("class A { void f() { g(); ) } }").ok


def test_grammar_registry():
    assert get_grammar("java").name == "java"
    with pytest.raises(ValueError):
        get_grammar("cobol")


def test_grammar_extension_set_is_configurable(tmp_path):
    from bugloc.java_parser import register_grammar
    from bugloc.code_index import build_index

    class JspGrammar(JavaGrammar):
        name = "java-jsp"

    register_grammar(JspGrammar(extensions=(".java", ".jsp")))
    (tmp_path / "A.java").write_text("class A { void m() { x(); } }", encoding="utf-8")
    (tmp_path / "B.jsp").write_text("class B { void n() { y(); } }", encoding="utf-8")
    index = build_index(tmp_path, "java-jsp", "v0")
    assert set(index.files) == {"A.java", "B.jsp"}


# --- golden parse: results pinned as one digest -----------------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Fragments a mutant gets inserted at random offsets.
MUTATIONS = (
    "{", "}", "(", ")", ";", '"', "'", "/*", "*/", "//", '"""', "\\", "@A(", "->",
    "new X() {", "class L {", "enum E {", "record R(int a) {",
)
GOLDEN_MUTANTS = 3000
# Computed with the parser that lexed whole files, before bodies were skimmed;
# it also depends on perfbench/gen.py, so a change to the generator moves it.
GOLDEN_DIGEST = "46a114590e3d968e3ed27794a8dc63bcbc96516e47cac059552826415113acc8"


def _golden_sources() -> list[str]:
    """Generated benchmark classes of three seeds, the classes of the
    acceptance suite, and seeded mutants of both."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        gen = importlib.import_module("gen")
    sources = []
    for seed in (1, 3, 7):
        tree = gen.generate(seed, 40, 1).trees[0]
        sources += [tree[path] for path in sorted(tree)]
    sources += [
        java_class("AutoScale", {"zoomOut": "scale /= step;", "render": "draw();"}),
        java_class("BcelClassWeaver", {"weave": "transform();", "weaveClass": "apply();"}),
        java_class("Helper", {"assist": "help();"}),
        java_class("Planted", {"zoomOut": "meterchart dialscale renderfail;"}),
    ]
    sources += [
        java_class(f"File{i}", {f"method{i}": f"word{i} shared{i % 7};", "common": "c();"})
        for i in range(50)
    ]
    rng = random.Random(2026)
    originals = list(sources)
    for _ in range(GOLDEN_MUTANTS):
        text = rng.choice(originals)
        if rng.random() < 0.25:
            start = rng.randrange(len(text))
            text = text[:start] + text[start + rng.randint(1, 40):]
        else:
            for _ in range(rng.randint(1, 4)):
                at = rng.randrange(len(text) + 1)
                text = text[:at] + rng.choice(MUTATIONS) + text[at:]
        sources.append(text)
    return sources


def test_golden_parse_results_are_unchanged():
    digest = hashlib.sha256()
    for text in _golden_sources():
        result = GRAMMAR.parse(text)
        methods = [[m.name, m.signature, m.body, m.abstract] for m in result.methods]
        digest.update(json.dumps([result.ok, methods]).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_DIGEST


# --- method bodies are skimmed, not lexed: the traps of skimming ------------


def bodies(result):
    return {m.name: m.body for m in result.methods}


def test_for_header_semicolons_inside_a_body():
    src = """
    class A {
        void loop(int n) {
            for (int i = 0; i < n; i++) { step(i); }
            for (;;) { if (done()) { break; } }
            for (String s : names) { use(s); }
        }
        void after() { }
    }
    """
    result = GRAMMAR.parse(src)
    assert result.ok
    assert names(result) == ["loop", "after"]
    assert bodies(result)["loop"].endswith("for (String s : names) { use(s); }\n        }")


def test_array_initializers_inside_a_body():
    src = """
    class A {
        int[] f() {
            int[] a = {1, 2};
            int[][] grid = new int[][] { {1}, {2, 3} };
            String[] s = new String[] {"}", "{"};
            return new int[] { a[0] };
        }
        void g() { }
    }
    """
    result = GRAMMAR.parse(src)
    assert result.ok
    assert names(result) == ["f", "g"]


def test_block_lambdas_inside_a_body():
    src = """
    class A {
        void f() {
            run(() -> { go(); });
            items.forEach(x -> { if (x) { y(); } });
            Supplier<Runnable> s = () -> () -> { deep(); };
        }
        void g() { }
    }
    """
    result = GRAMMAR.parse(src)
    assert result.ok
    assert names(result) == ["f", "g"]


def test_anonymous_classes_as_arguments_and_chained():
    src = """
    class A {
        void submitAll() {
            pool.submit(new Callable<V>() { public V call() { return v; } },
                        new Runnable() { public void run() { work(); } });
            new Task() { void first() { } }.start(new Step() { void second() { } });
            Object o = new Object() { @Override public String toString() { return "{"; } };
        }
        void last() { }
    }
    """
    result = GRAMMAR.parse(src)
    assert result.ok
    assert names(result) == ["submitAll", "call", "run", "first", "second", "toString", "last"]
    assert bodies(result)["toString"] == '@Override public String toString() { return "{"; }'


def test_local_types_declared_inside_a_method():
    src = """
    class A {
        void outer() {
            class Local { void lm() { a(); } }
            record Pair(int a, int b) { int sum() { return a + b; } }
            enum Mode { ON, OFF; boolean on() { return this == ON; } }
            interface Hook { void fire(); default void skip() { } }
            new Local().lm();
        }
        void after() { }
    }
    """
    result = GRAMMAR.parse(src)
    assert result.ok
    assert names(result) == ["outer", "lm", "sum", "on", "fire", "skip", "after"]
    assert [m.name for m in result.methods if m.abstract] == ["fire"]


def test_identifiers_that_contain_a_type_keyword_open_blocks(monkeypatch):
    segments = []
    lex = java_parser._lex

    def recording(text, start=0, end=None):
        segments.append(text[start:end])
        return lex(text, start, end)

    monkeypatch.setattr(java_parser, "_lex", recording)
    src = """
    class A {
        void check() {
            if (renewal.subclassOf(records)) { step(); }
            while (newer) { records++; }
        }
        void after() { }
    }
    """
    result = GRAMMAR.parse(src)
    assert result.ok
    assert names(result) == ["check", "after"]
    assert any("subclassOf" in seg for seg in segments)
    assert any("newer" in seg for seg in segments)


def test_braces_and_quotes_in_literals_and_comments_inside_a_body():
    src = '''
    class A {
        void f() {
            String s = "{ \\" } (";
            char c = '}'; char q = '"'; char e = '\\''; char b = '\\\\';
            String t = """
                { " } ) ' \\n still text
                """;
            // } { ) ' "
            /* } { ( " ' */
            String u = "\\\\";
        }
        void g() { }
    }
    '''
    result = GRAMMAR.parse(src)
    assert result.ok
    assert names(result) == ["f", "g"]


UNCLOSED_OR_STRAY = {
    "string": 'String s = "open;\n',
    "char": "char c = 'x;\n",
    "text-block": 'String t = """ never closed;',
    "block-comment": "/* never closed",
    "string-escape-at-end": 'String s = "ends in a backslash\\',
    "char-escape-at-end": "char c = '\\",
    "text-block-of-one-quote": 'String t = """";',
    "stray-paren": "g());",
}
# Each statement inside a method body, where it is skimmed, and at class
# level as a field, where the skim rejects it before its segment is lexed.
PLACEMENTS = {
    "": lambda statement: "class A {\n void f() {\n  { " + statement + "\n }\n}\n void g() { } }",
    "-at-class-level": lambda statement: "class A {\n " + statement + "\n void g() { } }",
}


@pytest.mark.parametrize(
    "src",
    [
        pytest.param(place(statement), id=case + suffix)
        for suffix, place in PLACEMENTS.items()
        for case, statement in UNCLOSED_OR_STRAY.items()
    ],
)
def test_lex_errors_and_stray_parens_inside_a_body_fail_the_file(src):
    result = GRAMMAR.parse(src)
    assert not result.ok
    assert result.methods == []


def test_lexer_sees_a_small_part_of_a_long_method(monkeypatch):
    lexed = []
    lex = java_parser._lex

    def counting(text, start=0, end=None):
        lexed.append(len(text[start:end]))
        return lex(text, start, end)

    monkeypatch.setattr(java_parser, "_lex", counting)
    statements = "\n".join(
        f'        if (x{i} > {i}) {{ call{i}(a, "s{i}"); }} else {{ y = f(y, {i}); }}' for i in range(2000)
    )
    src = f"class Big {{\n    int state;\n    void huge(int a) {{\n{statements}\n    }}\n}}\n"
    result = GRAMMAR.parse(src)
    assert result.ok and names(result) == ["huge"]
    assert sum(lexed) < len(src) / 10


ESCAPED_QUOTES = 'String s = """\n    a \\""" b\n    """;'


def test_an_escaped_triple_quote_does_not_end_a_text_block():
    # a field is lexed whole; in a method body the skimming pattern reads it
    in_field = GRAMMAR.parse("class A {\n  " + ESCAPED_QUOTES + "\n  void f() { }\n}\n")
    assert in_field.ok and names(in_field) == ["f"]
    in_body = GRAMMAR.parse("class A {\n  void f() { " + ESCAPED_QUOTES + " }\n  void g() { }\n}\n")
    assert in_body.ok and names(in_body) == ["f", "g"]
    assert '\\""" b' in in_body.methods[0].body


@pytest.mark.parametrize(
    "src",
    [
        'class A {\n  String s = """\n    a \\""";\n  void f() { }\n}\n',
        'class A {\n  void f() { String s = """\n    a \\"""; }\n  void g() { }\n}\n',
    ],
    ids=["field", "body"],
)
def test_a_text_block_ending_in_an_escaped_triple_quote_is_unterminated(src):
    result = GRAMMAR.parse(src)
    assert not result.ok
    assert result.methods == []


def test_non_ascii_identifiers_and_separators():
    # U+3000 separates tokens and "²" is part of a word: the lexer reads
    # Unicode whitespace and alphanumerics, not only ASCII ones
    src = "class Ä { void grüße(int ä, Straße s) { x(); }\n　int x²() { return 1; } }"
    result = GRAMMAR.parse(src)
    assert result.ok
    assert [(m.name, m.signature, m.body, m.abstract) for m in result.methods] == [
        ("grüße", "grüße(int,Straße)", "void grüße(int ä, Straße s) { x(); }", False),
        ("x²", "x²()", "int x²() { return 1; }", False),
    ]
