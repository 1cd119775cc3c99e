"""Tokenizer for .plx source text.

tokenize returns a Tokens: its lexemes list, and its lines list, the
1-based line of each lexeme, which the parser reads. The scan fills them
a line at a time: each /* */ comment that spans lines is first blanked
(_blank_spanning_comments), the text is split on "\n", and one findall of
_TOKEN lexes each line, so there is no Python work per token. A token's
column, the 1-based column of its first character, is worked out only
when an error message or a host asks for it (Tokens.column), by scanning
that token's line alone. The scan is linear in the length of the source.
"""

import re
from bisect import bisect_left

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


def tokenize(source: str) -> "Tokens":
    """Split source into tokens: a Tokens, whose lexemes and lines lists
    the parser reads.

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


class Tokens:
    """The tokens of one source: the lexemes list and the lines list (the
    line of each lexeme), which the parser reads, and column(i), which
    scans token i's line once an error message or a host asks for it."""

    __slots__ = ("lexemes", "lines", "_rows", "_columns")

    def __init__(self, lexemes: list[str], lines: list[int],
                 rows: list[str]):
        self.lexemes = lexemes
        self.lines = lines
        self._rows = rows  # the scanned text, line by line
        self._columns = {}  # line -> the columns of its tokens, once asked

    def __len__(self) -> int:
        return len(self.lexemes)

    def column(self, i: int) -> int:
        """The 1-based column of token i; for i == len(self), the end of
        input, just past the last token (1 for no tokens)."""
        lines = self.lines
        if i == len(lines):
            return self.column(i - 1) + len(self.lexemes[i - 1]) if i else 1
        line = lines[i]
        columns = self._columns.get(line)
        if columns is None:
            row = self._rows[line - 1].rstrip(_BLANKS)
            columns = self._columns[line] = [
                m.start(1) + 1 for m in _TOKEN_AT.finditer(row) if m[1]]
        # i's place on its line: how many tokens before i are on it, as
        # lines is sorted
        return columns[i - bisect_left(lines, line, 0, i)]


def decode_string_lexeme(lexeme: str) -> str:
    """Turn a string token's lexeme (quotes included) into its value."""
    if "\\" not in lexeme:
        return lexeme[1:-1]
    return re.sub(r"\\(.)", lambda m: ESCAPES[m.group(1)], lexeme[1:-1])
