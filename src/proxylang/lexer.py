"""Tokenizer for .plx source text."""

import re
from dataclasses import dataclass

from .errors import LexError

KEYWORDS = frozenset([
    "var", "function", "if", "else", "while", "return", "new",
    "true", "false", "null", "undefined",
])

# Longest lexeme first so maximal munch falls out of ordered alternation:
# ':===:' must win over ':==:', and '===' over '=='.
PUNCTUATORS = (
    ":===:", ":==:", "===", "!==", "==", "!=", "<=", ">=", "&&", "||",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":",
    "=", "<", ">", "+", "-", "*", "/", "!",
)

ESCAPES = {"n": "\n", "t": "\t", '"': '"', "'": "'", "\\": "\\"}

_ESCAPE = "\\\\[" + re.escape("".join(ESCAPES)) + "]"


def _string_body(quote: str) -> str:
    """The longest valid string body after the quote: a string ends at the
    first unescaped quote of its own kind and never spans a line."""
    plain = f"[^{quote}\\\\\\n]*"
    return f"{plain}(?:{_ESCAPE}{plain})*"


# Each match is a run of blanks and then one token, newline or comment, so
# blanks cost no match of their own. The alternatives are tried in
# order, so the order is the lexer's tie-break: comments come before the
# '/' punctuator, a valid string before the catch-all that reports a broken
# one, and the catch-all comes last, where anything it matches is an error.
# The catch-all excludes blanks: otherwise, at blanks that end the input,
# the regex would give blanks back from the run and report one of them.
_TOKEN = re.compile("[ \t\r\v\f]*(?:" + "|".join([
    r"(?P<word>[A-Za-z_$][A-Za-z0-9_$]*)",
    r"(?P<comment>//[^\n]*|/\*.*?\*/)",
    r"(?P<open_comment>/\*)",
    "(?P<punctuator>" + "|".join(map(re.escape, PUNCTUATORS)) + ")",
    r"(?P<number>[0-9]+(?:\.[0-9]+)?)",
    r"(?P<newline>\n)",
    "(?P<string>" + "|".join(q + _string_body(q) + q for q in "\"'") + ")",
    r"(?P<error>[^ \t\r\v\f])",
]) + ")", re.DOTALL)
_STRING_BODY = {q: re.compile(_string_body(q)) for q in "\"'"}


@dataclass(slots=True)
class Token:
    kind: str  # "identifier" | "keyword" | "number" | "string" | "punctuator"
    lexeme: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    """Split source into tokens.

    Skips whitespace, '//' line comments, and '/* */' block comments.
    Unterminated strings or block comments, unsupported escape sequences,
    and characters outside the language raise LexError with a position.
    """
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        lexeme = m.group(kind)
        pos = m.end() - len(lexeme)
        if kind == "word":
            tokens.append(Token("keyword" if lexeme in KEYWORDS
                                else "identifier",
                                lexeme, line, pos - line_start + 1))
        elif kind == "punctuator" or kind == "number" or kind == "string":
            tokens.append(Token(kind, lexeme, line, pos - line_start + 1))
        elif kind == "newline":
            line += 1
            line_start = pos + 1
        elif kind == "comment":
            newlines = lexeme.count("\n")
            if newlines:
                line += newlines
                line_start = pos + lexeme.rfind("\n") + 1
        elif kind == "open_comment":
            raise LexError("unterminated block comment",
                           line, pos - line_start + 1)
        else:
            _raise_error(source, lexeme, pos, line, pos - line_start + 1)
    return tokens


def _raise_error(source: str, ch: str, pos: int, line: int, column: int):
    if ch in _STRING_BODY:
        end = _STRING_BODY[ch].match(source, pos + 1).end()
        if source.startswith("\\", end) and end + 1 < len(source):
            raise LexError(
                f"unsupported escape sequence '\\{source[end + 1]}'",
                line, column + end + 1 - pos)
        raise LexError("unterminated string literal", line, column)
    raise LexError(f"unexpected character {ch!r}", line, column)


def decode_string_lexeme(lexeme: str) -> str:
    """Turn a string token's lexeme (quotes included) into its value."""
    return re.sub(r"\\(.)", lambda m: ESCAPES[m.group(1)], lexeme[1:-1])
