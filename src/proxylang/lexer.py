"""Tokenizer for .plx source text.

A token is a plain tuple (kind, lexeme, line, column): kind is "identifier",
"keyword", "number", "string" or "punctuator", and line and column are
1-based and point at the lexeme's first character.
"""

import re

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


# Each match is a run of blanks and then one token, newline or comment, so
# blanks cost no match of their own. The alternatives are tried in order,
# the frequent kinds first: every kind but the punctuators starts with a
# character of its own, and the punctuators are one group led by a
# character class. A '/' is the punctuator only when no '/' or '*' follows
# it, so that comments win over it, and one that is no comment either
# opens a comment that never closes. A valid string comes before the
# catch-all that reports a broken one, and the catch-all comes last, where
# anything it matches is an error. The catch-all excludes blanks:
# otherwise, at blanks that end the input, the regex would give blanks
# back from the run and report one of them.
_TOKEN = re.compile("[ \t\r\v\f]*(?:" + "|".join([
    "(?P<word>" + WORD.pattern + ")",
    r"(?P<punctuator>[(){}\[\];,.?+*-]|:===?:|[=!](?:==?)?|[<>]=?|&&|\|\|"
    r"|:|/(?![/*]))",
    r"(?P<number>[0-9]+(?:\.[0-9]+)?)",
    r"(?P<newline>\n)",
    r"(?P<comment>//[^\n]*|/\*.*?\*/)",
    "(?P<string>" + "|".join(q + _string_body(q) + q for q in "\"'") + ")",
    r"(?P<error>[^ \t\r\v\f])",
]) + ")", re.DOTALL)
_STRING_BODY = {q: re.compile(_string_body(q)) for q in "\"'"}


# the group numbers tokenize dispatches on (m.lastindex, cheaper than
# m.lastgroup and a group name), read off _TOKEN; the one group left is
# the error
_WORD, _PUNCTUATOR, _NUMBER, _NEWLINE, _COMMENT, _STRING = (
    _TOKEN.groupindex[kind] for kind in (
        "word", "punctuator", "number", "newline", "comment", "string"))


def tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """Split source into (kind, lexeme, line, column) tokens.

    Skips whitespace, '//' line comments, and '/* */' block comments.
    Unterminated strings or block comments, unsupported escape sequences,
    and characters outside the language raise LexError with a position.
    """
    tokens = []
    append = tokens.append
    line, last_newline = 1, -1  # column = index - last_newline
    for m in _TOKEN.finditer(source):
        group = m.lastindex
        if group == _WORD:
            lexeme = m[group]
            append(("keyword" if lexeme in KEYWORDS else "identifier",
                    lexeme, line, m.start(group) - last_newline))
        elif group == _PUNCTUATOR:
            append(("punctuator", m[group], line,
                    m.start(group) - last_newline))
        elif group == _NUMBER:
            append(("number", m[group], line, m.start(group) - last_newline))
        elif group == _NEWLINE:
            line += 1
            last_newline = m.end() - 1
        elif group == _COMMENT:
            lexeme = m[group]
            newlines = lexeme.count("\n")
            if newlines:
                line += newlines
                last_newline = m.start(group) + lexeme.rfind("\n")
        elif group == _STRING:
            append(("string", m[group], line, m.start(group) - last_newline))
        else:
            pos = m.start(group)
            _raise_error(source, m[group], pos, line, pos - last_newline)
    return tokens


def _raise_error(source: str, ch: str, pos: int, line: int, column: int):
    if ch == "/":
        raise LexError("unterminated block comment", line, column)
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
    if "\\" not in lexeme:
        return lexeme[1:-1]
    return re.sub(r"\\(.)", lambda m: ESCAPES[m.group(1)], lexeme[1:-1])
