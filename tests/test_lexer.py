import pytest
from hypothesis import given
from hypothesis import strategies as st

from proxylang.errors import LexError
from proxylang.lexer import (KEYWORDS, PUNCTUATORS, _TOKEN, _TOKEN_AT,
                             Tokens, decode_string_lexeme, tokenize)

from conftest import run_in_child


def lexemes(source):
    return tokenize(source).lexemes


def positions(tokens):
    """Each token's (lexeme, line, column)."""
    return [(lexeme, tokens.lines[i], tokens.column(i))
            for i, lexeme in enumerate(tokens.lexemes)]


def test_proxy_construction_line():
    tokens = tokenize("var p = new Proxy (target, handler);")
    assert tokens.lexemes == [
        "var", "p", "=", "new", "Proxy", "(", "target", ",", "handler",
        ")", ";"]
    assert tokens.lines == [1] * 11
    assert [tokens.column(i) for i in range(11)] \
        == [1, 5, 7, 9, 13, 19, 20, 26, 28, 35, 36]


# Maximal munch around the colon operators: every split of the longer
# operator must not win over the operator itself.
@pytest.mark.parametrize("source,expected", [
    ("a :===: b", ["a", ":===:", "b"]),
    ("a :==: b", ["a", ":==:", "b"]),
    ("a === b", ["a", "===", "b"]),
    ("a == b", ["a", "==", "b"]),
    ("a !== b", ["a", "!==", "b"]),
    ("a != b", ["a", "!=", "b"]),
    ("a:===:b", ["a", ":===:", "b"]),
    ("a:==:b", ["a", ":==:", "b"]),
    ("x===y", ["x", "===", "y"]),
    ("x==y", ["x", "==", "y"]),
    ("a ? b : c", ["a", "?", "b", ":", "c"]),
])
def test_operator_munch(source, expected):
    assert lexemes(source) == expected


def test_colon_operators_do_not_leak_colons():
    # ':===:' is one token, not ':' '===' ':'
    tokens = tokenize("p:===:q")
    assert len(tokens) == 3
    assert tokens.lexemes[1] == ":===:"
    assert (tokens.column(1), tokens.column(2)) == (2, 7)


def test_positions():
    assert positions(tokenize('var x = 1;\n  x = "two";')) == [
        ("var", 1, 1), ("x", 1, 5), ("=", 1, 7), ("1", 1, 9), (";", 1, 10),
        ("x", 2, 3), ("=", 2, 5), ('"two"', 2, 7), (";", 2, 12)]


def test_comments_skipped():
    assert lexemes("a // rest ignored\nb") == ["a", "b"]
    assert lexemes("a /* one\ntwo */ b") == ["a", "b"]
    assert lexemes("/* x */") == []
    assert positions(tokenize("/* a\nb */ c")) == [("c", 2, 6)]


def test_numbers():
    assert lexemes("0 42 3.25 10.0") == ["0", "42", "3.25", "10.0"]
    # a trailing dot is member access, not part of the number
    assert lexemes("1.foo") == ["1", ".", "foo"]
    assert lexemes("1.5.foo") == ["1.5", ".", "foo"]


def test_strings_and_escapes():
    assert decode_string_lexeme('"a\\nb"') == "a\nb"
    assert decode_string_lexeme("'it\\'s'") == "it's"
    assert decode_string_lexeme('"tab\\there"') == "tab\there"
    assert decode_string_lexeme('"q\\"q"') == 'q"q'
    assert decode_string_lexeme('"back\\\\slash"') == "back\\slash"
    assert lexemes("'single' \"double\"") == ["'single'", '"double"']


def test_line_scanners_capture_the_lexeme_and_the_bad_character():
    # tokenize's findall reads group 1 alone: one lexeme a token, and ""
    # for the comment or bad character that ends a line; _TOKEN_AT, the
    # same pattern, also captures that character, in group 2. A capturing
    # group added to an alternative would shift them, so it fails here
    # instead of mislabelling tokens
    assert _TOKEN.groups == 1 and _TOKEN_AT.groups == 2
    assert _TOKEN.findall("a /* b */ c // d") == ["a", "c", ""]
    assert _TOKEN.findall("a @ b") == ["a", ""]
    assert _TOKEN.findall("/* b */") == [""]
    assert [m.groups() for m in _TOKEN_AT.finditer("a @ b")] \
        == [("a", None), (None, "@")]


def test_tokens_sequence():
    # the parser reads the lexemes and lines lists; column(i) gives a
    # token's column, and column(len(tokens)) the end of input's, just
    # past the last token. A Tokens has no items to index or iterate
    tokens = tokenize('var s = "x";\n/* a\nb */ s.n')
    assert isinstance(tokens, Tokens)
    assert tokens.lexemes == ["var", "s", "=", '"x"', ";", "s", ".", "n"]
    assert tokens.lines == [1, 1, 1, 1, 1, 3, 3, 3]
    assert len(tokens) == 8
    assert [tokens.column(i) for i in range(9)] \
        == [1, 5, 7, 9, 12, 6, 7, 8, 9]
    assert tokens.column(3) == 9  # asked again, from the line's columns
    with pytest.raises(TypeError):
        tokens[0]
    with pytest.raises(TypeError):
        iter(tokens)


def test_keywords_vs_identifiers():
    # a word is a keyword only whole: a keyword with more letters after
    # it is one identifier
    assert lexemes("var varx if iffy") == ["var", "varx", "if", "iffy"]
    assert lexemes("undefined undefinedx $ _a") \
        == ["undefined", "undefinedx", "$", "_a"]
    assert [lexeme in KEYWORDS for lexeme in lexemes("var varx if iffy")] \
        == [True, False, True, False]


@pytest.mark.parametrize("source", [
    '"open', "'open", '"line\nbreak"', '"bad \\q escape"', "/* never closed",
    "@", "#", "a & b", "a | b",
])
def test_lex_errors(source):
    with pytest.raises(LexError) as exc:
        tokenize(source)
    assert exc.value.line >= 1
    assert exc.value.column >= 1


def test_error_positions_exact():
    with pytest.raises(LexError) as exc:
        tokenize("ok;\n  @")
    assert (exc.value.line, exc.value.column) == (2, 3)


@pytest.mark.parametrize("source,message,line,column", [
    # a string that does not close is reported at its opening quote
    ('x = "open', "unterminated string literal", 1, 5),
    ("a;\n  'line\nbreak'", "unterminated string literal", 2, 3),
    # an unsupported escape is reported at the character after the '\\'
    ('"bad \\q escape"', "unsupported escape sequence '\\q'", 1, 7),
    ('"ab\\\n"', "unsupported escape sequence '\\\n'", 1, 5),
    ('"ab\\', "unterminated string literal", 1, 1),
    ("a;\nb;\n  /* never closed", "unterminated block comment", 3, 3),
    ("/*/", "unterminated block comment", 1, 1),
    # identifiers, digits and blanks are ASCII only
    ("var \u00e9 = 1;", "unexpected character '\u00e9'", 1, 5),
    ("x = \u0663;", "unexpected character '\u0663'", 1, 5),
    ("a\u00a0b", "unexpected character '\\xa0'", 1, 2),
    ("a & b", "unexpected character '&'", 1, 3),
    ("a | b", "unexpected character '|'", 1, 3),
])
def test_lex_errors_exact(source, message, line, column):
    with pytest.raises(LexError) as exc:
        tokenize(source)
    assert (exc.value.message, exc.value.line, exc.value.column) \
        == (message, line, column)


# blanks before a token, an error, a newline, a comment or the end of input
@pytest.mark.parametrize("source,expected", [
    ("x \t\v\f\r", [("x", 1, 1)]),
    (" \t\v\f\r ", []),
    ("", []),
    ("a  \n \tb", [("a", 1, 1), ("b", 2, 3)]),
    ("a \t// note\n  b", [("a", 1, 1), ("b", 2, 3)]),
    ("a \v/* x\ny */ \fb", [("a", 1, 1), ("b", 2, 7)]),
])
def test_blank_runs(source, expected):
    assert positions(tokenize(source)) == expected


@pytest.mark.parametrize("source,message,line,column", [
    ("  @", "unexpected character '@'", 1, 3),
    ("a;\n\t \f#", "unexpected character '#'", 2, 4),
    ("x  \t/* open", "unterminated block comment", 1, 5),
    ("x =  'open", "unterminated string literal", 1, 6),
])
def test_blanks_before_an_error(source, message, line, column):
    with pytest.raises(LexError) as exc:
        tokenize(source)
    assert (exc.value.message, exc.value.line, exc.value.column) \
        == (message, line, column)


def test_no_end_of_input_token():
    assert positions(tokenize("a  ")) == [("a", 1, 1)]
    assert tokenize("a  ").column(1) == 2


# A blank run that ends the input, or a comment that never closes, is
# scanned once: a lexer that tries such a run again from each of its
# characters needs hours for these, and a linear one milliseconds
LONG_INPUTS = """
from proxylang.errors import LexError
from proxylang.interpreter import run_source
from proxylang.lexer import tokenize
for source in ["x;" + " " * 1_000_000, "x;" + "\\t" * 1_000_000,
               "x;\\n" + " \\t" * 500_000 + "\\ny;" + "\\t " * 500_000]:
    print(len(tokenize(source)))
print(run_source("print(1);" + " " * 1_000_000).output, end="")
for source in ["/* " * 50_000, "/*\\n" * 50_000, "x /*" * 50_000,
               "/**/\\n" * 50_000 + "/* " * 50_000]:
    try:
        tokenize(source)
    except LexError as err:
        print(err.message, err.line, err.column)
"""


def test_long_blank_runs_and_unclosed_comments_lex_in_linear_time():
    proc = run_in_child(LONG_INPUTS, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines() == [
        "2", "2", "4", "1",
        "unterminated block comment 1 1", "unterminated block comment 1 1",
        "unterminated block comment 1 3",
        "unterminated block comment 50001 1"]


# every punctuator, and the comments that the lone '/' must give way to
@given(st.lists(st.sampled_from(
    ["a", "var", "x1", "$_", "42", "3.5", '"s"', "'t\\n'", *PUNCTUATORS,
     " ", "\t", "\r", "\v", "\f", "  ", "\n",
     "//", "// note\n", "/* a\nb */", "/**/"]), max_size=30))
def test_token_positions_point_at_lexemes(parts):
    source = "".join(parts)
    lines = source.split("\n")
    try:
        tokens = tokenize(source)
    except LexError as err:
        # a '/' next to a '*' opens a comment that need not close
        assert "/*" in source
        assert err.message == "unterminated block comment"
        return
    for lexeme, line, column in positions(tokens):
        start = column - 1
        assert lines[line - 1][start:start + len(lexeme)] == lexeme


@given(st.text(max_size=200))
def test_fuzz_never_crashes(source):
    # any input either tokenizes or raises a positioned LexError
    try:
        tokens = tokenize(source)
    except LexError as err:
        assert err.line >= 1 and err.column >= 1
    else:
        assert len(tokens.lines) == len(tokens.lexemes)
        for lexeme, _, column in positions(tokens):
            assert lexeme and column >= 1


SPACED_COMMENTS = ["// note\n", "/* a\nb */", "/**/"]


@given(st.lists(st.sampled_from(
    ["a", "b", "1", "2.5", *PUNCTUATORS, *SPACED_COMMENTS]), max_size=12))
def test_fuzz_spaced_tokens_roundtrip(parts):
    # tokens separated by spaces lex back to exactly those lexemes, and
    # the comments among them to nothing
    source = " ".join(parts)
    assert lexemes(source) == [p for p in parts if p not in SPACED_COMMENTS]
