import pytest

from bugloc.tokens import MAX_CHUNK_TOKENS, camel_split, chunk_pattern, tokenize


def test_empty_text_has_no_tokens():
    assert tokenize("") == []


def test_code_line_tokens():
    assert tokenize("int add(int a)") == ["int", "add", "(", "int", "a", ")"]


def test_underscored_identifier_is_one_token():
    assert tokenize("foo_bar2") == ["foo_bar2"]


def test_whitespace_discarded():
    assert tokenize("  a \n\t b  ") == ["a", "b"]


def test_punctuation_is_single_char_tokens():
    assert tokenize("a==b;") == ["a", "=", "=", "b", ";"]


def test_chunk_pattern_matches_whole_chunks_of_tokens():
    text = "void zoomOut(int step)\t{ return; }"
    assert chunk_pattern(3).findall(text) == ["void zoomOut(", "int step)", "{ return;", "}"]
    assert chunk_pattern(1).findall(text) == tokenize(text)
    assert chunk_pattern(MAX_CHUNK_TOKENS).findall(f"  {text}\n") == [text]
    assert chunk_pattern(4).findall(" \n\t") == [] and chunk_pattern(4).findall("") == []


def test_chunk_pattern_is_compiled_once_per_limit():
    assert chunk_pattern(300) is chunk_pattern(300)
    for limit in (0, MAX_CHUNK_TOKENS + 1):
        with pytest.raises(ValueError):
            chunk_pattern(limit)
    with pytest.raises(TypeError):
        chunk_pattern(2.5)


def test_camel_split():
    assert camel_split("JavaElementLabels") == ["Java", "Element", "Labels"]
    assert camel_split("HTMLPageLM") == ["HTML", "Page", "LM"]
    assert camel_split("zoomOut") == ["zoom", "Out"]
    assert camel_split("foo_bar2") == ["foo", "bar", "2"]
