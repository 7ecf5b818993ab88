"""Deterministic text tokenization shared by chunking, retrieval, and the VSM baseline.

The token rule is provider-independent so that chunk boundaries and term
statistics never depend on a remote embedding model's subword scheme.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache

# Maximal runs of ASCII alphanumerics/underscore are one token; any other
# non-whitespace character is a token by itself; whitespace is discarded.
_TOKEN = r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]"
_TOKEN_RE = re.compile(_TOKEN)

# camelCase / PascalCase / ACRONYMWord / digit-run boundaries.
_CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|[0-9]+")

# The most tokens one chunk pattern matches: `re` takes no repeat count above
# 2**32 - 2. A text holds no more tokens than characters, so a larger limit
# cuts any text shorter than 2**32 characters as this one does.
MAX_CHUNK_TOKENS = 2**32 - 1


def tokenize(text: str) -> list[str]:
    """Split text into word and single-character punctuation tokens."""
    return _TOKEN_RE.findall(text)


@lru_cache(maxsize=8)
def chunk_pattern(limit: int) -> re.Pattern:
    """The pattern of one chunk of 1 to `limit` tokens (at most
    MAX_CHUNK_TOKENS): a token, then up to limit - 1 more, each after
    optional whitespace. No match needs to backtrack, so each match takes
    the longest run of tokens it can, and `findall` cuts a text as packing
    its tokens one by one, `limit` to a chunk, would."""
    limit = operator.index(limit)  # a float would make the repeat literal text
    if not 1 <= limit <= MAX_CHUNK_TOKENS:
        raise ValueError(f"a chunk holds 1 to {MAX_CHUNK_TOKENS} tokens, not {limit}")
    return re.compile(rf"(?:{_TOKEN})(?:\s*(?:{_TOKEN})){{0,{limit - 1}}}")


def camel_split(word: str) -> list[str]:
    """Break a word at case and digit boundaries: ``HTMLPageLM`` -> HTML, Page, LM.

    Underscores and other non-alphanumerics inside the word are dropped.
    """
    return _CAMEL_RE.findall(word)
