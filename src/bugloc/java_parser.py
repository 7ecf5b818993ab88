"""Grammar-based extraction of method declarations from source files.

Grammars are pluggable per language; the built-in one covers Java. It is a
brace-context scanner rather than a full parser: file-level bug localization
only needs method names, canonical signatures, and verbatim bodies,
attributed to the file they appear in (including methods of nested and
anonymous classes). The scanner lexes only where it reads tokens: type
bodies (the file root, classes, enums, records, interfaces, anonymous
classes) are lexed segment by segment, while method bodies, initializers and
blocks are skimmed from one brace, parenthesis or semicolon to the next,
over literals and comments, and lexed only where a type may begin. One set
of comment and literal rules serves both the skim and the segment lexer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_TYPE_KEYWORDS = {"class", "interface", "enum", "record"}

# Identifiers that can precede "(" without being a method name.
_NON_METHOD_NAMES = {
    "if", "while", "for", "switch", "catch", "synchronized", "do", "else",
    "try", "finally", "return", "new", "throw", "assert", "case", "break",
    "continue", "this", "super", "instanceof", "yield",
}

_WORD = "word"
_PUNCT = "punct"
_STR = "str"

# Java's comments, and its text-block, string and char literals. A backslash
# skips the next character, and a text block ends at its first `"""` that no
# backslash escapes.
_COMMENT = r"//[^\n]*|/\*[\s\S]*?\*/"
_LITERAL = (
    r'"""[^"\\]*(?:(?:\\[\s\S]|"(?!""))[^"\\]*)*"""'
    r'|"(?!"")[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*"'
    r"|'[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*'"
)

# What the scanner stops at: a brace or semicolon; a parenthesis, or a
# balanced pair that holds none of the other stops; a whole comment or
# literal, or the opening characters of one that does not close. Every
# alternative begins with a fixed character, so the engine skips ahead to the
# next candidate.
_SKIM = re.compile(
    r"\{|\}|;|\([^(){};\"'/]*\)|\(|\)|" + _COMMENT + "|" + _LITERAL + r"|/\*|\"|'"
)

# The tokens of a segment: whitespace and comments (dropped), a literal, a
# word, or any other single character. The skim has already matched every
# comment and literal of a segment whole, so none is unterminated here.
_TOKEN = re.compile(r"\s+|" + _COMMENT + "|(" + _LITERAL + r")|(\w+)|(\S)")
_TOKEN_KINDS = (None, _STR, _WORD, _PUNCT)

# A '{' outside a type body opens a type only after one of these words (a
# type keyword, or "new" of an anonymous class); a segment without any of
# them as a substring opens a block.
_TYPE_HINT = re.compile("new|class|interface|enum|record")


@dataclass(frozen=True)
class ParsedMethod:
    name: str
    signature: str
    body: str
    abstract: bool = False


@dataclass
class ParseResult:
    methods: list[ParsedMethod]
    ok: bool


class Grammar:
    """Language front-end: which files to index and how to extract methods."""

    name: str = ""
    extensions: tuple[str, ...] = ()

    def parse(self, text: str) -> ParseResult:
        raise NotImplementedError


_Token = tuple[str, str, int]  # (kind, value, offset of its first character)


def _lex(text: str, start: int, end: int) -> list[_Token]:
    """Tokenize text[start:end] to (kind, value, start), offsets into `text`;
    comments are dropped, string and char literals become single opaque
    tokens so braces inside them are inert."""
    return [
        (_TOKEN_KINDS[m.lastindex], m.group(), m.start())
        for m in _TOKEN.finditer(text, start, end)
        if m.lastindex
    ]


def _strip_annotations(seg: list[_Token]) -> list[_Token]:
    """Drop @Name and @Name(...) groups; keep '@interface' (a type keyword)."""
    out: list[_Token] = []
    i = 0
    while i < len(seg):
        kind, val, _ = seg[i]
        if kind == _PUNCT and val == "@":
            if i + 1 < len(seg) and seg[i + 1][1] == "interface":
                out.append(seg[i])
                i += 1
                continue
            i += 1
            if i < len(seg) and seg[i][0] == _WORD:
                i += 1
                while i + 1 < len(seg) and seg[i][1] == "." and seg[i + 1][0] == _WORD:
                    i += 2
            if i < len(seg) and seg[i][1] == "(":
                depth = 1
                i += 1
                while i < len(seg) and depth:
                    if seg[i][1] == "(":
                        depth += 1
                    elif seg[i][1] == ")":
                        depth -= 1
                    i += 1
            continue
        out.append(seg[i])
        i += 1
    return out


def _has_type_keyword(seg: list[_Token]) -> bool:
    # Depth is clamped at zero: a segment may begin mid-expression with
    # unmatched ")" tokens (e.g. after an annotation whose array argument
    # opened a brace context), and those must not hide a type keyword.
    depth = 0
    for kind, val, _ in seg:
        if kind == _PUNCT:
            if val == "(":
                depth += 1
            elif val == ")":
                depth = max(0, depth - 1)
        elif kind == _WORD and depth == 0 and val in _TYPE_KEYWORDS:
            return True
    return False


def _is_anonymous_class_header(seg: list[_Token]) -> bool:
    """True for segments ending ``new Name ( ... )`` right before a '{'."""
    if not seg or seg[-1][1] != ")":
        return False
    depth = 0
    i = len(seg) - 1
    while i >= 0:
        val = seg[i][1]
        if val == ")":
            depth += 1
        elif val == "(":
            depth -= 1
            if depth == 0:
                break
        i -= 1
    if i <= 0:
        return False
    # Walk back over the (possibly dotted, possibly generic) type name.
    for j in range(i - 1, -1, -1):
        kind, val = seg[j][0], seg[j][1]
        if kind == _WORD:
            if val == "new":
                return True
        elif val not in (".", "<", ">", ","):
            return False
    return False


@dataclass
class _MethodHeader:
    name: str
    param_toks: list[_Token]
    name_pos: int


def _match_method_header(
    seg: list[_Token], terminator: str
) -> _MethodHeader | None:
    """Match ``[modifiers/type] name ( params ) [throws .../default ...]``.

    ``terminator`` is '{' for concrete methods and ';' for abstract ones.
    Field declarations are rejected via the depth-0 '=' guard.
    """
    seg = _strip_annotations(seg)
    if not seg:
        return None
    depth = 0
    for kind, val, _ in seg:
        if kind == _PUNCT:
            if val in "([":
                depth += 1
            elif val in ")]":
                depth = max(0, depth - 1)
            elif val == "=" and depth == 0:
                return None
    # Find the last top-level ")" and validate what follows it.
    close = None
    depth = 0
    for idx in range(len(seg) - 1, -1, -1):
        val = seg[idx][1]
        if val == ")":
            if depth == 0 and close is None:
                close = idx
            depth += 1
        elif val == "(":
            depth -= 1
    if close is None:
        return None
    suffix = seg[close + 1 :]
    if suffix:
        head = suffix[0][1]
        if head == "throws":
            if any(t[0] == _PUNCT and t[1] not in (",", ".") for t in suffix[1:]):
                return None
        elif head == "default" and terminator == ";":
            pass  # annotation member default value; anything may follow
        else:
            return None
    # Match close back to its "(".
    depth = 0
    open_idx = None
    for idx in range(close, -1, -1):
        val = seg[idx][1]
        if val == ")":
            depth += 1
        elif val == "(":
            depth -= 1
            if depth == 0:
                open_idx = idx
                break
    if open_idx is None or open_idx == 0:
        return None
    kind, name, start = seg[open_idx - 1]
    if kind != _WORD or name in _NON_METHOD_NAMES or name in _TYPE_KEYWORDS:
        return None
    if name[0].isdigit():
        return None
    return _MethodHeader(name=name, param_toks=seg[open_idx + 1 : close], name_pos=start)


def _canonical_signature(name: str, param_toks: list[_Token]) -> str:
    """``name(paramType1,paramType2,...)`` — type names only, whitespace collapsed."""
    params: list[list[tuple[str, str]]] = [[]]
    depth = 0
    for kind, val, _ in param_toks:
        if kind == _PUNCT:
            if val in "(<[":
                depth += 1
            elif val in ")>]":
                depth -= 1
            elif val == "," and depth == 0:
                params.append([])
                continue
        params[-1].append((kind, val))
    types: list[str] = []
    for toks in params:
        toks = [(k, v) for k, v in toks if not (k == _WORD and v == "final")]
        if not toks:
            continue
        # The parameter name is the last word token; anything after it
        # (trailing array brackets) belongs to the type.
        name_idx = None
        for idx in range(len(toks) - 1, -1, -1):
            if toks[idx][0] == _WORD:
                name_idx = idx
                break
        if name_idx is not None and name_idx > 0:
            toks = toks[:name_idx] + toks[name_idx + 1 :]
        rendered = ""
        prev_word = False
        for k, v in toks:
            is_word = k == _WORD
            if is_word and prev_word:
                rendered += " "
            rendered += v
            prev_word = is_word
        if rendered:
            types.append(rendered)
    return f"{name}({','.join(types)})"


def _bodiless(header: _MethodHeader) -> tuple[int, ParsedMethod]:
    """An abstract or native method or an annotation member, keyed by the
    offset of its name."""
    sig = _canonical_signature(header.name, header.param_toks)
    return header.name_pos, ParsedMethod(header.name, sig, "", abstract=True)


@dataclass
class _Ctx:
    kind: str  # "type" | "method" | "block"
    enum_constants: bool = False
    header: _MethodHeader | None = None  # a method's, or an array default's member
    decl_start: int = -1  # offset of the declaration's first token


class JavaGrammar(Grammar):
    """Extracts Java method declarations (constructors included, initializers
    and field declarations excluded; nested/anonymous class methods attributed
    to the enclosing file)."""

    name = "java"

    def __init__(self, extensions: tuple[str, ...] = (".java",)):
        self.extensions = extensions

    def parse(self, text: str) -> ParseResult:
        collected: list[tuple[int, ParsedMethod]] = []
        # The file root behaves like a type body so bare top-level methods
        # (common in fixtures and snippets) are still recognized.
        stack: list[_Ctx] = [_Ctx("type")]
        seg_start = 0  # offset just past the last brace or semicolon
        paren_depth = 0

        for match in _SKIM.finditer(text):
            val = match.group()
            if val == "(":
                paren_depth += 1
                continue
            if val == ")":
                paren_depth -= 1
                if paren_depth < 0:
                    return ParseResult([], ok=False)
                continue
            if len(val) > 1:
                if val == "/*":  # a block comment that does not close
                    return ParseResult([], ok=False)
                continue  # a comment, literal or balanced pair of parentheses
            pos = match.start()
            top = stack[-1]
            if val == "{":
                if top.kind == "type" or _TYPE_HINT.search(text, seg_start, pos):
                    stack.append(self._classify(_lex(text, seg_start, pos), top))
                else:
                    stack.append(_Ctx("block"))
            elif val == "}":
                if len(stack) == 1:
                    return ParseResult([], ok=False)
                ctx = stack.pop()
                if ctx.kind == "method":
                    body = text[ctx.decl_start : pos + 1]
                    sig = _canonical_signature(ctx.header.name, ctx.header.param_toks)
                    collected.append(
                        (ctx.decl_start, ParsedMethod(ctx.header.name, sig, body))
                    )
                elif ctx.header is not None:  # an annotation member's array default
                    collected.append(_bodiless(ctx.header))
            elif val == ";":
                if top.kind == "type":
                    if top.enum_constants:
                        top.enum_constants = False
                    else:
                        header = _match_method_header(_lex(text, seg_start, pos), terminator=";")
                        if header is not None:
                            collected.append(_bodiless(header))
            else:  # the opening quote of a literal that does not close
                return ParseResult([], ok=False)
            seg_start = pos + 1

        if len(stack) != 1 or paren_depth != 0:
            return ParseResult([], ok=False)
        collected.sort(key=lambda item: item[0])
        return ParseResult([m for _, m in collected], ok=True)

    def _classify(self, seg: list[_Token], parent: _Ctx) -> _Ctx:
        if _has_type_keyword(seg):
            is_enum = any(k == _WORD and v == "enum" for k, v, _ in seg)
            return _Ctx("type", enum_constants=is_enum)
        if _is_anonymous_class_header(seg):
            return _Ctx("type")
        if parent.kind == "type":
            if parent.enum_constants:
                return _Ctx("type")  # enum constant body
            header = _match_method_header(seg, terminator="{")
            if header is not None:
                # Skip stray ")" left over from an annotation whose array
                # argument opened its own brace context.
                start_idx = 0
                while start_idx < len(seg) and seg[start_idx][1] == ")":
                    start_idx += 1
                return _Ctx("method", header=header, decl_start=seg[start_idx][2])
            # `int[] v() default {1, 2};`: an annotation member whose default
            # value is an array, recorded when the array closes
            return _Ctx("block", header=_match_method_header(seg, terminator=";"))
        return _Ctx("block")


_GRAMMARS: dict[str, Grammar] = {JavaGrammar.name: JavaGrammar()}


def get_grammar(name: str) -> Grammar:
    try:
        return _GRAMMARS[name]
    except KeyError:
        raise ValueError(
            f"unsupported grammar {name!r}; available: {sorted(_GRAMMARS)}"
        ) from None


def register_grammar(grammar: Grammar) -> None:
    _GRAMMARS[grammar.name] = grammar
