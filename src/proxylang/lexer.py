"""Tokenizer for .plx source text.

tokenize returns a Tokens sequence. Its items are (kind, lexeme, line,
column) tuples: kind is "identifier", "keyword", "number", "string" or
"punctuator", and line and column are 1-based and point at the lexeme's
first character. The parser reads only its lexemes and lines lists, which
the scan fills a line at a time: each /* */ comment that spans lines is
first blanked (_blank_spanning_comments), the text is split on "\n", and
one findall of _TOKEN lexes each line, so there is no Python work per
token. Kinds and columns are worked out by a second, exact pass over the
same lines, and only when a host or an error message asks for them. Each
pass is linear in the length of the source.
"""

import re
from collections.abc import Sequence

from .errors import LexError

KEYWORDS = frozenset([
    "var", "function", "if", "else", "while", "return", "new",
    "true", "false", "null", "undefined",
])

# Every punctuator. _TOKEN's punctuator group spells them out so that the
# longest wins (maximal munch): ':===:' over ':==:', '===' over '=='.
PUNCTUATORS = (
    ":===:", ":==:", "===", "!==", "==", "!=", "<=", ">=", "&&", "||",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":",
    "=", "<", ">", "+", "-", "*", "/", "!",
)

WORD = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")  # a keyword or identifier

ESCAPES = {"n": "\n", "t": "\t", '"': '"', "'": "'", "\\": "\\"}

_ESCAPE = "\\\\[" + re.escape("".join(ESCAPES)) + "]"


def _string_body(quote: str) -> str:
    """The longest valid string body after the quote: a string ends at the
    first unescaped quote of its own kind and never spans a line."""
    plain = f"[^{quote}\\\\\\n]*"
    return f"{plain}(?:{_ESCAPE}{plain})*"


_BLANKS = " \t\r\v\f"
_BLANK = f"[{_BLANKS}]"
_STRING = "|".join(q + _string_body(q) + q for q in "\"'")

# One lexeme. The alternatives are tried in order, the frequent kinds
# first: every kind but the punctuators starts with a character of its
# own, and the punctuators are one group led by a character class. A '/'
# is the punctuator only when no '/' or '*' follows it, so that comments
# win over it.
_LEXEME = "|".join([
    WORD.pattern,
    r"[(){}\[\];,.?+*-]|:===?:|[=!](?:==?)?|[<>]=?|&&|\|\||:|/(?![/*])",
    r"[0-9]+(?:\.[0-9]+)?",
    _STRING,
])

# Blanks and the comments between them. Every run here is possessive
# (taken whole, never given back), so no input makes a scan try a run
# again from each of its characters.
_SKIP = rf"{_BLANK}*+(?:(?://.*|/\*.*?\*/){_BLANK}*+)*+"


def _line_scanner(bad: str) -> re.Pattern:
    """The pattern that lexes one line, whose trailing blanks are gone, a
    match at a time, from its start to its end: a token after the blanks
    and comments before it, in group 1; or, where no token can start, a
    bad character (matched by bad), which takes the rest of the line with
    it; or the blanks and comments that end the line."""
    return re.compile(
        f"{_SKIP}(?:({_LEXEME})|{bad}.*)|(?!\\Z){_SKIP}\\Z")


# findall gives one lexeme per token, and "" for a match that is no
# token: a comment that ends the line, or a bad character, which is then
# the line's last match. _VALID_LINE matches a whole line only if it holds
# no bad character. _TOKEN_AT also captures the bad character, in group 2,
# and finditer gives where each match starts.
_TOKEN = _line_scanner(f"[^{_BLANKS}]")
_VALID_LINE = re.compile(f"(?:{_SKIP}(?:{_LEXEME}))*+{_SKIP}")
_TOKEN_AT = _line_scanner(f"([^{_BLANKS}])")
_STRING_BODY = {q: re.compile(_string_body(q)) for q in "\"'"}

# The text up to the next comment that spans lines, and that comment,
# group 1. Strings, '//' comments and '/* */' comments that close on their
# own line are passed over whole, so a '/*' inside one opens nothing.
# Group 1 is None at the end of the source, and at a string or comment
# that does not close, where the line scan reports an error.
_SPANNING_COMMENT = re.compile(
    rf"(?:[^\"'/]++|{_STRING}|//.*|/\*.*?\*/|/(?![/*]))*+(/\*(?s:.*?)\*/)?")

# the kind of a lexeme that is no keyword, by its first character
START_KIND = {
    **dict.fromkeys(
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$",
        "identifier"),
    **dict.fromkeys("0123456789", "number"),
    '"': "string", "'": "string",
    **dict.fromkeys((p[0] for p in PUNCTUATORS), "punctuator"),
}


def tokenize(source: str) -> "Tokens":
    """Split source into tokens: a Tokens sequence of (kind, lexeme, line,
    column) tuples, whose lexemes and lines lists the parser reads.

    Skips whitespace, '//' line comments, and '/* */' block comments.
    Unterminated strings or block comments, unsupported escape sequences,
    and characters outside the language raise LexError with a position:
    the first error in the source.
    """
    text = _blank_spanning_comments(source) if "/*" in source else source
    rows = text.split("\n")
    lexemes, lines = [], []
    findall = _TOKEN.findall
    for line, row in enumerate(rows, 1):
        row = row.rstrip(_BLANKS)
        found = findall(row)
        if found:
            if not found[-1]:
                # a comment or a bad character ends the line, one scan
                # tells which; only the last match can be the bad character
                if _VALID_LINE.fullmatch(row) is None:
                    *_, last = _TOKEN_AT.finditer(row)
                    _raise_error(source, last[2], line, last.start(2) + 1)
                del found[-1]
            lexemes += found
            lines += [line] * len(found)
    return Tokens(lexemes, lines, rows)


def _blank_spanning_comments(source: str) -> str:
    """source with each comment that spans lines replaced by its newlines
    and, on its last line, by as many spaces as it takes there, so every
    token keeps its line and column."""
    parts, start = [], 0
    for m in _SPANNING_COMMENT.finditer(source):
        comment = m[1]
        if comment is None:
            break
        parts.append(source[start:m.start(1)])
        parts.append("\n" * comment.count("\n")
                     + " " * (len(comment) - 1 - comment.rfind("\n")))
        start = m.end(1)
    parts.append(source[start:])
    return "".join(parts)


def _raise_error(source: str, ch: str, line: int, column: int):
    """Raise the LexError of the bad character ch at line and column:
    what kind of error it is depends on the source text after it."""
    if ch == "/":
        raise LexError("unterminated block comment", line, column)
    if ch in _STRING_BODY:
        start = 0  # where the line starts in source
        for _ in range(line - 1):
            start = source.index("\n", start) + 1
        pos = start + column - 1
        end = _STRING_BODY[ch].match(source, pos + 1).end()
        if source.startswith("\\", end) and end + 1 < len(source):
            raise LexError(
                f"unsupported escape sequence '\\{source[end + 1]}'",
                line, column + end + 1 - pos)
        raise LexError("unterminated string literal", line, column)
    raise LexError(f"unexpected character {ch!r}", line, column)


class Tokens(Sequence):
    """The tokens of one source: the lexemes list and the lines list (the
    line of each lexeme), which the parser reads; and, as a sequence, the
    (kind, lexeme, line, column) tuples, which are built on first use by
    an exact second pass over the scanned lines, and kept. Indexing,
    slicing and iterating give tuples; a slice is a list of them."""

    __slots__ = ("lexemes", "lines", "_rows", "_items")

    def __init__(self, lexemes: list[str], lines: list[int],
                 rows: list[str]):
        self.lexemes = lexemes
        self.lines = lines
        self._rows = rows  # the scanned text, line by line
        self._items = None

    def __len__(self) -> int:
        return len(self.lexemes)

    def __getitem__(self, index):
        return self._tuples()[index]

    def __iter__(self):
        return iter(self._tuples())

    def _tuples(self) -> list[tuple[str, str, int, int]]:
        """Every token as a (kind, lexeme, line, column) tuple."""
        if self._items is None:
            items = []
            for line, row in enumerate(self._rows, 1):
                for m in _TOKEN_AT.finditer(row.rstrip(_BLANKS)):
                    lexeme = m[1]
                    if lexeme:
                        kind = ("keyword" if lexeme in KEYWORDS else
                                START_KIND[lexeme[0]])
                        items.append((kind, lexeme, line, m.start(1) + 1))
            self._items = items
        return self._items


def decode_string_lexeme(lexeme: str) -> str:
    """Turn a string token's lexeme (quotes included) into its value."""
    if "\\" not in lexeme:
        return lexeme[1:-1]
    return re.sub(r"\\(.)", lambda m: ESCAPES[m.group(1)], lexeme[1:-1])
