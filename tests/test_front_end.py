"""The front end against its reference.

tokenize and parse must agree with reference_front_end.py, the tokenizer
and parser as they were before tokenize returned a Tokens sequence, on
every input: the same LexError (message, line, column), or for each
token the same (lexeme, line, column), read from the Tokens' lexemes and
lines lists and its column method, as the reference's (kind, lexeme,
line, column) item less its kind, which tokenize no longer gives; then
the same AST, every node's line and scoped flag included (a function
node's, and its constant flag, as reference.mark_scopes works them out),
or the same ParseError (message, line, column, at_eof), from parse and
from parse_expression alike. The one rule that differs is the expression nesting bound: the reference counts the links
of a chain open at once, the parser bounds each tree's height and its
open expressions. Where either reports "expression nesting too deep",
the parser must accept exactly the trees that fit its bounds, checked by
tree_height, a loop. The inputs are the corpus, coincidence and prelude
programs, the benchmark's generated scripts of two seeds, the parser's
deepest inputs, each way to nest an expression at the bound, trees far
taller than the bound, the prelude with a token cut or deleted, and
generated text heavy in the characters that comments, strings and lines
are made of.
"""

import dataclasses
import importlib.util
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_front_end as reference
from proxylang.errors import LexError, ParseError
from proxylang.lexer import PUNCTUATORS, tokenize
from proxylang.parser import _MAX_NESTING, parse, parse_expression
from proxylang.prelude import default_prelude_source

from conftest import COINCIDENCE_DIR, CORPUS_DIR, TESTS_DIR
from test_parser import DEEP_INPUTS, tree_height
from test_interpreter import TALL_TREES
from test_lexer import positions


def dump(node):
    """node as nested tuples of its class name and every field, line,
    scoped and constant flags included, which node equality leaves
    out."""
    kind = type(node)
    if kind is list or kind is tuple:
        return [dump(item) for item in node]
    if kind not in FIELDS:
        FIELDS[kind] = dataclasses.is_dataclass(kind) and [
            f.name for f in dataclasses.fields(kind)]
    names = FIELDS[kind]
    if not names:
        return node
    return (kind.__name__, *[dump(getattr(node, name)) for name in names])


FIELDS = {}  # each class's field names, or False for a value


def reference_positions(tokens):
    """Each token's (lexeme, line, column), from the reference's items."""
    return [item[1:] for item in tokens]


def outcome(tokenize, positions, parse, parse_expression, source):
    """What a front end makes of source: its LexError, or its tokens'
    positions and what parse and parse_expression make of them, a tree or
    a ParseError. The positions are read after parse, which thus looks up
    its error's column in a Tokens that has worked out none yet."""
    try:
        tokens = tokenize(source)
    except LexError as err:
        return ("LexError", err.message, err.line, err.column)
    results = []
    for entry, argument in ((parse, tokens), (parse_expression, source)):
        try:
            results.append(entry(argument))
        except ParseError as err:
            results.append(("ParseError", err.message, err.line, err.column,
                            err.at_eof))
    return [positions(tokens), *results]


def assert_same(source):
    ours = outcome(tokenize, positions, parse, parse_expression, source)
    theirs = outcome(reference.tokenize, reference_positions,
                     reference.parse, reference.parse_expression, source)
    if ours[0] == "LexError" or theirs[0] == "LexError":
        assert ours == theirs, repr(source[:200])
        return
    assert ours[0] == theirs[0], repr(source[:200])
    for mine, the_reference in zip(ours[1:], theirs[1:]):
        if too_deep(mine) or too_deep(the_reference):
            assert within_the_bounds(mine, the_reference), repr(source[:200])
        else:
            assert dump(mine) == dump(the_reference), repr(source[:200])


TOO_DEEP = "expression nesting too deep"


def too_deep(result):
    return type(result) is tuple and result[1] == TOO_DEEP


def within_the_bounds(ours, theirs):
    """Whether the parser's result agrees with the reference's under the
    parser's bounds, when either is an expression nesting error. A tree
    the reference accepts has at most 400 expressions open at once, so
    the parser must accept it if and only if it is at most _MAX_NESTING
    tall; a tree the parser accepts must be; and a nesting error comes no
    later than a different error from the other front end, which read the
    same grammar that far."""
    if type(theirs) is not tuple:
        return too_deep(ours) and tree_height(theirs) > _MAX_NESTING
    if type(ours) is not tuple:
        return tree_height(ours) <= _MAX_NESTING
    if too_deep(ours) != too_deep(theirs):
        deep, other = (ours, theirs) if too_deep(ours) else (theirs, ours)
        return deep[2:4] <= other[2:4]
    return True


def scripts_programs(seed):
    """The programs the benchmark's scripts workload runs at seed."""
    bench = TESTS_DIR.parent / "perfbench"
    spec = importlib.util.spec_from_file_location(
        "perfbench_scripts", bench / "workloads" / "scripts.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(bench))  # for its harness import
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench))

    class Setup:
        prelude = None

    return [program[2]
            for program in module.Scripts(None, Setup, seed).programs]


def test_real_programs():
    sources = [path.read_text() for path in sorted(
        [*CORPUS_DIR.glob("*.plx"), *COINCIDENCE_DIR.glob("*.plx")])]
    assert len(sources) > 30
    for source in [*sources, default_prelude_source()]:
        assert_same(source)


@pytest.mark.parametrize("seed", [7, 13])
def test_benchmark_scripts(seed):
    programs = scripts_programs(seed)
    assert len(programs) == 200
    for source in programs:
        assert_same(source)


# but the tall trees, which test_tall_trees compares
@pytest.mark.parametrize("source", [
    pytest.param(param.values[0], id=param.id) for param in DEEP_INPUTS
    if param.values[0] not in {tree.values[0] for tree in TALL_TREES}])
def test_deep_inputs(source):
    assert_same(source)


# each way to nest an expression, just under, at and just past the bound
NESTINGS = {"parentheses": lambda n: "(" * n + "1" + ")" * n,
            "minus signs": lambda n: "-" * n + "1",
            "negations": lambda n: "!" * n + "1",
            "call arguments": lambda n: "f(" * n + "1" + ")" * n,
            "indexes": lambda n: "a" + "[0]" * n,
            "sums": lambda n: "1" + " + 1" * n,
            "conditionals": lambda n: "a ? b : " * n + "c"}


@pytest.mark.parametrize("source", [
    pytest.param(f"x = {nest(n)};", id=f"{n} {name}")
    for name, nest in NESTINGS.items() for n in (398, 399, 400)])
def test_nesting_at_the_bound(source):
    assert_same(source)


def test_prelude_with_a_token_cut_or_deleted():
    # the prelude cut just before every third token, and with that token
    # deleted: the errors of each rule, at a token and at the end of input
    source = default_prelude_source()
    starts = [0]  # where each line starts
    for line in source.split("\n"):
        starts.append(starts[-1] + len(line) + 1)
    tokens = tokenize(source)
    for lexeme, line, column in positions(tokens)[::3]:
        at = starts[line - 1] + column - 1
        assert_same(source[:at])
        assert_same(source[:at] + source[at + len(lexeme):])


def tall_expression(program):
    """The expression a TALL_TREES program prints."""
    return program[program.index("print(") + len("print("):-len(");")]


# trees far taller than the bound, nested through call arguments, prefix
# operators, object-literal values, '?:' arms, computed keys and function
# bodies, as programs and as expressions alone
@pytest.mark.parametrize("source", [
    *(pytest.param(param.values[0], id=param.id) for param in TALL_TREES),
    *(pytest.param(tall_expression(param.values[0]),
                   id=f"{param.id}, the expression") for param in TALL_TREES),
])
def test_tall_trees(source):
    assert_same(source)


# comments that span lines, beside strings and comments that hold their
# delimiters, and each of them left open
@pytest.mark.parametrize("source", [
    "a /* x\ny */ b", "a /* x\n\ny */ b /* z\n */ c;", "/* x\n",
    "a;\n/* x\ny", '"/*"\nx */', "'/*' /* '\n*/' b", "// /*\nx */ y",
    "x /* a */ y /* b\n c */ z", "/*/ */\n/*\n*/x", "/**/\n/*\n*/ @",
    '"open /* x\n */', 'x = "\\q" /*\n*/', "a /* x\r\n */ b\r\n",
    "/*\n*/ /*\n*/ \"s\" /*\n", "x\n/* a\nb */ y z\n w @",
])
def test_comments_and_strings(source):
    assert_same(source)


# single characters that open, close or break comments, strings and
# lines, blanks and characters outside the language
CHARACTERS = ["/", "*", '"', "'", "\\", "\n", "\r\n", "\r", " ", "\t",
              "\v", "\f", "\x00", "\u00e9", "\u0663", "\u00a0", "@",
              "a", "1", "."]
LEXEMES = ["var", "x", "f", "function", "if", "else", "while", "return",
           "new", "true", "null", "2.5", '"s"', "'t\\n'", "/*", "*/", "//",
           *PUNCTUATORS]
# what lies between lexemes: blanks, line breaks and comments
SEPARATORS = [" ", " ", "\n", "\r\n", "\t", "/* c */", "// c\n", "/*\n*/"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(CHARACTERS), max_size=40).map("".join))
def test_generated_characters(source):
    assert_same(source)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from([*LEXEMES, *SEPARATORS]), max_size=40)
       .map("".join))
def test_generated_lexemes(source):
    assert_same(source)
