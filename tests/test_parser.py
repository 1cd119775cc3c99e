import dataclasses
import functools
import operator
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxylang import lexer, nodes
from proxylang.errors import ParseError
from proxylang.interpreter import run_source
from proxylang.nodes import (Assign, Binary, Block, Call, Conditional,
                             Expr, ExprStmt, FunctionDecl, FunctionExpr,
                             Identifier, If, MethodCall, New, NumberLit,
                             ObjectLit, PropertyGet, PropertySet, Return,
                             StringLit, Unary, VarDecl, While,
                             pretty_print)
from proxylang.lexer import tokenize
from proxylang.objects import divide
from proxylang.parser import (_MAX_NESTING, parse, parse_expression,
                              parse_source)
from proxylang.prelude import default_prelude_source

from conftest import COINCIDENCE_DIR, CORPUS_DIR, run_in_child
from test_interpreter import TALL_TREES


def stmt(source):
    program = parse_source(source)
    assert len(program.statements) == 1
    return program.statements[0]


def expr(source):
    return stmt(source + ";").expr


def test_var_decl():
    node = stmt("var x = 1;")
    assert node == VarDecl("x", NumberLit(1.0))


def test_new_with_space_before_arguments():
    node = stmt("var p = new Proxy (target, handler);")
    assert node == VarDecl("p", New(Identifier("Proxy"),
                                    [Identifier("target"),
                                     Identifier("handler")]))


def test_precedence_tiers():
    # * binds over +, + over <, < over ==, == over &&, && over ||
    node = expr("a || b && c == d < e + f * g")
    assert node == Binary(
        "||", Identifier("a"),
        Binary("&&", Identifier("b"),
               Binary("==", Identifier("c"),
                      Binary("<", Identifier("d"),
                             Binary("+", Identifier("e"),
                                    Binary("*", Identifier("f"),
                                           Identifier("g")))))))


def test_equality_same_op_chains_left():
    node = expr("a == b == c")
    assert node == Binary("==", Binary("==", Identifier("a"),
                                       Identifier("b")), Identifier("c"))


@pytest.mark.parametrize("source,column", [
    pytest.param(source, column, id=source) for source, column in [
        ("a == b === c;", 8), ("a === b == c;", 9), ("a :==: b == c;", 10),
        ("a != b !== c;", 8), ("a === b :===: c;", 9),
        # the chain rule holds below a looser and above a tighter operator
        ("a && b == c === d;", 13), ("a < b == c < d === e;", 16),
    ]
])
def test_equality_mixed_ops_rejected(source, column):
    with pytest.raises(ParseError) as exc:
        parse_source(source)
    assert "cannot mix" in exc.value.message
    assert "expected" in exc.value.message
    assert (exc.value.line, exc.value.column) == (1, column)


def test_equality_chains_end_at_looser_operators():
    # each side of '&&' and each arm of '?:' is a chain of its own
    assert expr("a == b && c === d") == Binary(
        "&&", Binary("==", Identifier("a"), Identifier("b")),
        Binary("===", Identifier("c"), Identifier("d")))
    assert expr("a == b ? c === d : e") == Conditional(
        Binary("==", Identifier("a"), Identifier("b")),
        Binary("===", Identifier("c"), Identifier("d")), Identifier("e"))


def test_mixed_ops_fine_with_parens():
    node = expr("(a == b) != (a :==: b)")
    assert node == Binary("!=",
                          Binary("==", Identifier("a"), Identifier("b")),
                          Binary(":==:", Identifier("a"), Identifier("b")))


def test_member_and_calls():
    assert expr("a.b.c") == PropertyGet(
        PropertyGet(Identifier("a"), "b", False), "c", False)
    assert expr("a[k]") == PropertyGet(Identifier("a"), Identifier("k"),
                                       True)
    assert expr("f(1)(2)") == Call(Call(Identifier("f"), [NumberLit(1.0)]),
                                   [NumberLit(2.0)])
    assert expr("o.m(1)") == MethodCall(Identifier("o"), "m", False,
                                        [NumberLit(1.0)])
    assert expr("o[k](1)") == MethodCall(Identifier("o"), Identifier("k"),
                                         True, [NumberLit(1.0)])


def test_new_binds_member_chain():
    assert expr("new ns.Proxy(a, b)") == New(
        PropertyGet(Identifier("ns"), "Proxy", False),
        [Identifier("a"), Identifier("b")])
    # the call parens belong to 'new'; further postfix applies outside
    assert expr("new Proxy(a, b).x") == PropertyGet(
        New(Identifier("Proxy"), [Identifier("a"), Identifier("b")]),
        "x", False)


def test_assignment_forms():
    assert stmt("x = 1;") == Assign("x", NumberLit(1.0))
    assert stmt("a.b = 1;") == PropertySet(Identifier("a"), "b", False,
                                           NumberLit(1.0))
    assert stmt("a[k] = 1;") == PropertySet(Identifier("a"),
                                            Identifier("k"), True,
                                            NumberLit(1.0))
    with pytest.raises(ParseError):
        parse_source("f() = 1;")
    with pytest.raises(ParseError):
        parse_source("1 = 2;")


def test_object_literal():
    node = expr('{ a: 1, "b c": 2, 0: 3, while: 4 }')
    assert node == ObjectLit([("a", NumberLit(1.0)),
                              ("b c", NumberLit(2.0)),
                              ("0", NumberLit(3.0)),
                              ("while", NumberLit(4.0))])


@pytest.mark.parametrize("literal,key", [
    ("{ 1.50: 7 }", "1.5"), ("{ 0.50: 2 }", "0.5"), ("{ 2.0: 1 }", "2"),
    ("{ 007: 1 }", "7"),
    ("{ 100000000000000000000000: 1 }", "1e+23"),
])
def test_object_literal_number_keys_take_the_number_form(literal, key):
    # the key a computed access with the same number reads
    assert expr(literal).entries[0][0] == key


def test_object_literal_statement_position():
    # no block statements exist, so a leading '{' is an object literal
    node = stmt("{ a: 1 };")
    assert isinstance(node, ExprStmt)
    assert isinstance(node.expr, ObjectLit)


def test_function_forms():
    decl = stmt("function f(a, b) { return a; }")
    assert decl == FunctionDecl("f", FunctionExpr(
        ["a", "b"], Block([Return(Identifier("a"))])))
    # a declaration is its name and the function its closures are made of
    assert [field.name for field in dataclasses.fields(FunctionDecl)] \
        == ["name", "function", "line"]
    assert decl.function.line == decl.line
    # a leading 'function' is a declaration; expression form needs parens
    anon = expr("(function (x) { return x; })")
    assert anon == FunctionExpr(["x"], Block([Return(Identifier("x"))]))
    var_init = stmt("var f = function (x) { return x; };")
    assert var_init == VarDecl(
        "f", FunctionExpr(["x"], Block([Return(Identifier("x"))])))
    # prefix operators apply to a function expression as to any operand
    assert expr("!function (x) { return x; }") == Unary(
        "!", FunctionExpr(["x"], Block([Return(Identifier("x"))])))
    assert expr("-!function () { return 1; }()") == Unary("-", Unary(
        "!", Call(FunctionExpr([], Block([Return(NumberLit(1.0))])), [])))


def test_if_while_and_ternary():
    node = stmt("if (a) { b; } else { c; }")
    assert node == If(Identifier("a"),
                      Block([ExprStmt(Identifier("b"))]),
                      Block([ExprStmt(Identifier("c"))]))
    node = stmt("while (a) { b; }")
    assert node == While(Identifier("a"), Block([ExprStmt(Identifier("b"))]))
    node = expr("a ? b : c")
    assert node == Conditional(Identifier("a"), Identifier("b"),
                               Identifier("c"))
    nested = expr("a ? b ? c : d : e")
    assert nested == Conditional(
        Identifier("a"),
        Conditional(Identifier("b"), Identifier("c"), Identifier("d")),
        Identifier("e"))


@pytest.mark.parametrize("source,fragment", [
    ("var x;", "expected '='"),
    ("if (a) b;", "expected '{'"),
    ("if (a) { } else b;", "expected '{'"),
    ("return 1;", "outside of a function"),
    ("a ===;", "expected an expression"),
    ("var 1 = 2;", "expected a variable name"),
    ("function () { };", "expected a function name"),
    ("f(1;", "expected"),
    ("new 5;", "expected '('"),
])
def test_parse_errors(source, fragment):
    with pytest.raises(ParseError) as exc:
        parse_source(source)
    assert fragment in exc.value.message


# (message, line, column, at_eof) of each error: at end of input an error
# points just past the last token, or at 1:1 when there is none
@pytest.mark.parametrize("source,message,line,column,at_eof", [
    ("var", "expected a variable name but reached end of input", 1, 4, True),
    ("var x", "expected '=' but reached end of input", 1, 6, True),
    ("function f(", "expected a parameter name but reached end of input",
     1, 12, True),
    ("function f(a,", "expected a parameter name but reached end of input",
     1, 14, True),
    ("if (a) { b;", "expected '}' but reached end of input", 1, 12, True),
    ("new Proxy", "expected '(' after the constructed value", 1, 10, True),
    ("new Proxy(a", "expected ')' but reached end of input", 1, 12, True),
    ("x.", "expected a property name but reached end of input", 1, 3, True),
    ("f(1, 2", "expected ')' but reached end of input", 1, 7, True),
    ("o = {", "expected a property key but reached end of input", 1, 6, True),
    ("o = {;", "expected a property key but found ';'", 1, 6, False),
    ("o = {a", "expected ':' but reached end of input", 1, 7, True),
    ("o = {a:", "expected an expression but reached end of input",
     1, 8, True),
    ("a ?", "expected an expression but reached end of input", 1, 4, True),
    ("a ? b", "expected ':' but reached end of input", 1, 6, True),
    ("a ? b :", "expected an expression but reached end of input",
     1, 8, True),
    ("x = -", "expected an expression but reached end of input", 1, 6, True),
    ("print(1) 2;", "expected ';' but found '2'", 1, 10, False),
    ("1 = 2;", "invalid assignment target", 1, 3, False),
    # nesting too deep is never at_eof, on a token or at end of input: the
    # 802nd open expression, where it opens; a tree too tall, just past its
    # first node taller than 400 levels
    pytest.param("x = " + "(" * 801 + "1", "expression nesting too deep",
                 1, 806, False, id="801 parens then a token"),
    pytest.param("x = " + "(" * 801, "expression nesting too deep",
                 1, 806, False, id="801 parens at end of input"),
    pytest.param("x = " + "-" * 400 + "1;", "expression nesting too deep",
                 1, 406, False, id="400 minus signs"),
    pytest.param("x = a\n" + "? b : c\n" * 400 + ";",
                 "expression nesting too deep", 402, 1, False,
                 id="400-deep conditional chain"),
    pytest.param("while (a) {\n" * 401 + "}\n" * 401,
                 "block nesting too deep", 401, 11, False,
                 id="401 nested blocks"),
])
def test_parse_errors_exact(source, message, line, column, at_eof):
    with pytest.raises(ParseError) as exc:
        parse_source(source)
    err = exc.value
    assert (err.message, err.line, err.column, err.at_eof) \
        == (message, line, column, at_eof)


@pytest.mark.parametrize("source,message,line,column,at_eof", [
    ("", "expected an expression but reached end of input", 1, 1, True),
    ("(", "expected an expression but reached end of input", 1, 2, True),
    ("1 2", "unexpected '2' after the expression", 1, 3, False),
])
def test_parse_expression_errors_exact(source, message, line, column,
                                       at_eof):
    with pytest.raises(ParseError) as exc:
        parse_expression(source)
    err = exc.value
    assert (err.message, err.line, err.column, err.at_eof) \
        == (message, line, column, at_eof)


def test_parse_leaves_the_token_list_alone():
    # parse reads the lexemes and lines lists of a Tokens and changes
    # neither, nor their columns; a Tokens cut short (the first three
    # tokens) raises, at a column it looks up, and is left alone too
    def state(tokens):
        return (list(tokens.lexemes), list(tokens.lines),
                [tokens.column(i) for i in range(len(tokens))])

    tokens = tokenize("var x = f(1, 2);")
    before = state(tokens)
    parse(tokens)
    assert state(tokens) == before
    short = tokenize("var x =")
    with pytest.raises(ParseError) as exc:
        parse(short)
    assert (exc.value.line, exc.value.column) == (1, 8)
    assert state(short) == tuple(part[:3] for part in before)


def test_error_position():
    with pytest.raises(ParseError) as exc:
        parse_source("var x = 1;\nvar = 2;")
    assert (exc.value.line, exc.value.column) == (2, 5)


def test_eof_flag():
    with pytest.raises(ParseError) as exc:
        parse_source("var x = ")
    assert exc.value.at_eof
    with pytest.raises(ParseError) as exc:
        parse_source("var = 1;")
    assert not exc.value.at_eof


def test_a_late_parse_error_scans_one_line(monkeypatch):
    # a ParseError's column is found by scanning its token's line alone,
    # not every line before it, and that line's other columns, the end of
    # input's too, are then read without scanning it again
    class CountingScanner:
        calls = 0

        def finditer(self, row):
            CountingScanner.calls += 1
            return scanner.finditer(row)

    scanner = lexer._TOKEN_AT
    monkeypatch.setattr(lexer, "_TOKEN_AT", CountingScanner())
    tokens = tokenize("var x = 1;\n" * 20000 + "x = ;")
    with pytest.raises(ParseError) as exc:
        parse(tokens)
    assert (exc.value.line, exc.value.column) == (20001, 5)
    assert CountingScanner.calls == 1
    end = len(tokens)
    assert [tokens.column(i) for i in range(end - 3, end + 1)] \
        == [1, 3, 5, 6]
    assert CountingScanner.calls == 1


@pytest.mark.parametrize("source, column", [
    ("", 1),
    ("/* only\n a comment */", 1),
    ("x = 1; /* a comment\n that spans lines */", 7),
    ("var x = 1;\ny = f(2", 8),
], ids=["empty", "a comment alone", "a comment that spans lines",
        "several tokens on the last line"])
def test_end_of_input_column(source, column):
    # just past the last token, whatever follows it; 1 for no tokens
    tokens = tokenize(source)
    assert tokens.column(len(tokens)) == column


def test_deep_nesting_rejected_structurally():
    source = "x = " + "(" * 2000 + "1" + ")" * 2000 + ";"
    with pytest.raises(ParseError) as exc:
        parse_source(source)
    assert "nesting" in exc.value.message
    source = "x = " + "!" * 5000 + "y;"
    with pytest.raises(ParseError):
        parse_source(source)


def test_deepest_nesting_parses_in_a_fresh_process():
    # parsing raises the recursion limit itself, so no Interpreter() has
    # to have run first for the deepest nesting the parser accepts
    proc = run_in_child("""
from proxylang.errors import ParseError
from proxylang.interpreter import run_source
print(run_source("print(" + "(" * 799 + "1" + ")" * 799 + ");").output)
try:
    run_source("x = " + "(" * 2000 + "1" + ")" * 2000 + ";")
except ParseError as err:
    print(err.message)
""")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "1\n\nexpression nesting too deep\n"


# inputs that would outrun the host stack, or build a tree taller than
# printing and evaluation can recurse through, if a rule were unbounded,
# and the diagnostic each gives: the 401st nested block or 802nd open
# expression where it opens, or the first node taller than 400 levels just
# past its last token
DEEP_INPUTS = [
    pytest.param("if (a) {\n" * 7000 + "}\n" * 7000,
                 ("block nesting too deep", 401, 8), id="7000 nested ifs"),
    pytest.param("function f() {\n" * 5000 + "}\n" * 5000,
                 ("block nesting too deep", 401, 14),
                 id="5000 nested functions"),
    pytest.param("x = a\n" + "? b : c\n" * 25000 + ";",
                 ("expression nesting too deep", 802, 3),
                 id="25000-deep conditional chain"),
    # flat chains are parsed in a loop, but each link is one more level of
    # the tree that printing and evaluation recurse through
    pytest.param("x = 1\n" + "+ 1\n" * 30000 + ";",
                 ("expression nesting too deep", 402, 1),
                 id="30000-term sum"),
    pytest.param("print(1\n" + "+ 1\n" * 30000 + ");",
                 ("expression nesting too deep", 402, 1),
                 id="30000-term sum as an argument"),
    pytest.param("x = a\n" + ".a\n" * 30000 + ";",
                 ("expression nesting too deep", 402, 1),
                 id="30000-long member read"),
    pytest.param("x = o\n" + "[0]\n" * 30000 + ";",
                 ("expression nesting too deep", 402, 1),
                 id="30000-long index read"),
    pytest.param("x = new C\n" + "()\n" * 30000 + ";",
                 ("expression nesting too deep", 402, 1),
                 id="30000-long call chain"),
    # a chain whose first operand is a parenthesised chain continues its
    # left spine: 380 of them, each up to 389 terms, would be 76,000 tall
    pytest.param("print(" + functools.reduce(
        lambda src, g: "(" + src + " + 1" * (390 - g) + ")",
        range(380, 0, -1), "1") + ");",
        ("expression nesting too deep", 1, 2009),
        id="380 parenthesised chains, each the first operand of the next"),
    # and so does one nested in an argument, a prefix operator, an object
    # literal, a '?:' arm, a computed key or a function's body
    *(pytest.param(tree.values[0], ("expression nesting too deep", 1, column),
                   id=tree.id)
      for tree, column in zip(TALL_TREES,
                              [2340, 1946, 3072, 2586, 2324, 9532])),
]


@pytest.mark.parametrize("source,diagnostic", DEEP_INPUTS)
def test_deep_inputs_raise_parse_error(source, diagnostic):
    leaked = []
    for entry in (parse_source, run_source):
        try:
            with pytest.raises(ParseError) as exc:
                entry(source)
        except RecursionError:
            leaked.append(entry.__name__)
            continue
        err = exc.value
        assert (err.message, err.line, err.column, err.at_eof) \
            == (*diagnostic, False)
    # failing outside the handler keeps the 20,000-frame traceback out of
    # the report
    if leaked:
        pytest.fail(f"a host RecursionError escaped {', '.join(leaked)}")


def test_deepest_block_nesting_parses_and_runs():
    ifs = ("var n = 0;\n" + "if (true) {\n" * 400 + "n = n + 1;\n"
           + "}\n" * 400 + "print(n);\n")
    assert run_source(ifs).output == "1\n"
    # 400 nested declarations, each calling the one it declares
    functions = ("function f() {\n" * 400 + "return 2;\n"
                 + "}\nreturn f();\n" * 399 + "}\nprint(f());\n")
    assert run_source(functions).output == "2\n"
    # blocks have their own count: an expression 400 levels tall and 400
    # levels of blocks inside it are not too deep
    parse_source("x = " + "-" * 399 + "function () {"
                 + "function g() {" * 399 + "}" * 400 + ";")


def test_longest_flat_chains_parse_print_and_run():
    # each link of a chain is one level of the tree: print(…) is a call
    # above its argument, so a sum in it takes 398 operators at most, and
    # a read compared with === takes 397 suffixes
    def sums(n):
        return "print(" + "1 + " * n + "1);"

    def reads(n):
        return "var a = {}; a.a = a; print(" + "a." * n + "a === a);"

    assert run_source(sums(398)).output == "399\n"
    assert run_source(reads(397)).output == "true\n"
    assert pretty_print(parse_source(sums(398))) \
        == "print(" + "(" * 398 + "1" + " + 1)" * 398 + ");\n"
    for source in (sums(399), reads(398)):
        with pytest.raises(ParseError) as exc:
            parse_source(source)
        assert exc.value.message == "expression nesting too deep"
    # parentheses add no level: a sum inside the most of them parses
    parse_source("x = " + "(" * 800 + "f() + a.b" + ")" * 800 + ";")


def tree_height(tree):
    """The height of the tallest expression in tree, a node or a list, as
    the parser bounds it: the most expression nodes on a path down from
    tree, read with a loop. So an expression node is one level taller
    than its tallest child, a function expression one taller than the
    tallest expression in its body, and an assignment to a property
    counts its target as the property read it parses as."""
    tallest, todo = 0, [(tree, 0)]
    while todo:
        item, height = todo.pop()
        kind = type(item)
        if kind in EXPRESSIONS:
            height += 1
            tallest = max(tallest, height)
        if kind is PropertySet:
            held = [(item.obj, height + 1), (item.key, height + 1),
                    (item.value, height)]
        elif kind is list or kind is tuple:
            held = [(value, height) for value in item]
        else:
            held = [(getattr(item, name), height)
                    for name in FIELD_NAMES[kind]]
        todo += [pair for pair in held if type(pair[0]) in FIELD_NAMES]
    return tallest


EXPRESSIONS = set(typing.get_args(Expr))
# each node class's field names; a value of a class not here, but for
# list and tuple, holds no node
FIELD_NAMES = {kind: [field.name for field in dataclasses.fields(kind)]
               for kind in vars(nodes).values()
               if isinstance(kind, type) and dataclasses.is_dataclass(kind)}
FIELD_NAMES.update({list: None, tuple: None})


# ways to nest an expression in one more, '@' standing for the inner one
NESTS = {"parentheses": "(@)", "negations": "!@", "minus signs": "-@",
         "call arguments": "f(@)", "computed keys": "o[@]",
         "object-literal values": "{a: @}", "then arms": "c ? @ : 0",
         "else arms": "c ? 0 : @", "conditions": "(@ ? 1 : 0)",
         "new operands": "new (@)()", "new arguments": "new C(@)",
         "function expressions": "function () { return @; }",
         "immediately invoked functions": "function () { return @; }()",
         "sums": "@ + 1", "member reads": "@.a"}
CALLS = {"call arguments", "new operands", "new arguments",
         "immediately invoked functions"}


@st.composite
def nestings(draw):
    """An expression nested in runs of up to six ways of NESTS, about
    _MAX_NESTING times in all, whether any of its runs calls, and how
    many function bodies it nests."""
    ways = draw(st.lists(st.sampled_from(sorted(NESTS)), min_size=1,
                         max_size=6))
    total = draw(st.integers(_MAX_NESTING - 20, _MAX_NESTING + 20))
    cuts = sorted(draw(st.lists(st.integers(0, total),
                                min_size=len(ways) - 1,
                                max_size=len(ways) - 1)))
    source, calls, bodies = "1", False, 0
    for way, start, end in zip(ways, [0, *cuts], [*cuts, total]):
        before, after = NESTS[way].split("@")
        source = before * (end - start) + source + after * (end - start)
        calls = calls or (way in CALLS and end > start)
        if "{ return" in before:
            bodies += end - start
    return source, calls, bodies


def attempt(function, *args):
    """What function(*args) returns or the ParseError it raises, and the
    name of any other exception it raises, so that the test fails outside
    the handler, without a 20,000-frame traceback in its report."""
    try:
        return function(*args), None
    except ParseError as err:
        return err, None
    except Exception as exc:
        return None, type(exc).__name__


@settings(max_examples=150, deadline=None)
@given(nestings())
def test_generated_nestings(nesting):
    # every program the parser accepts is within the height bound, prints
    # as source that parses back to it, and, if it makes no call, runs
    # within the host's recursion limit; every other program is rejected
    # as too deep (its blocks first, if it nests more function bodies than
    # blocks may nest), and none raises a host exception
    source, calls, bodies = nesting
    program = f"var c = true; var o = {{}}; var v = 0;\nv = {source};\n"
    tree, escaped = attempt(parse_source, program)
    assert escaped is None, f"parse_source raised {escaped}"
    if isinstance(tree, ParseError):
        assert tree.message == ("block" if bodies > _MAX_NESTING else
                                "expression") + " nesting too deep"
        return
    assert tree_height(tree) <= _MAX_NESTING
    printed, escaped = attempt(pretty_print, tree)
    assert escaped is None, f"pretty_print raised {escaped}"
    again, escaped = attempt(parse_source, printed)
    assert escaped is None, f"parsing the printed program raised {escaped}"
    same = again == tree  # compared apart, so a failure prints no tree
    assert same, "the printed program parses to another tree"
    if not calls:
        result, escaped = attempt(run_source, program)
        assert escaped is None, f"run_source raised {escaped}"
        assert result.error_message != "host recursion limit exceeded"


def test_parse_expression_entry():
    assert parse_expression("1 + 2") == Binary("+", NumberLit(1.0),
                                               NumberLit(2.0))
    with pytest.raises(ParseError):
        parse_expression("1; 2")


def test_statement_lines_recorded():
    program = parse_source("var a = 1;\n\nprint(a);\n")
    assert program.statements[0].line == 1
    assert program.statements[1].line == 3


# --- pretty printer round trips ---

SNIPPETS = [
    "var p = new Proxy(target, handler);\n",
    'print("hi", 1.5, true, null, undefined);\n',
    "if (a == b) {\n  c = d;\n} else {\n  e.f = g;\n}\n",
    "while (i < 10) {\n  i = i + 1;\n}\n",
    "function f(a, b) {\n  return a :===: b;\n}\n",
    "var o = { a: 1, b: { c: 2 } };\n",
    "var h = (function (x) {\n  return x;\n});\n",
    "x = a ? b : c;\n",
    "y = (a == b) != (a :==: b);\n",
    "delete_me[0] = -1;\n",
    # a member callee in parentheses is a plain call, not a method call
    "x = (o.m)(1);\n",
    "x = (o[k])(1);\n",
    # the operand of 'new' has no call of its own
    "x = new (f())(a, b);\n",
    "x = new (o.m(1))(a, b);\n",
    "x = new (new Proxy(a, b))(c, d);\n",
    # a prefix operator binds looser than a suffix or 'new'
    "x = (-o).p + (!f)(1) + new (-C)() + (-o)[k];\n",
    # a run of prefix operators prints as one level, as it parsed
    pytest.param("x = " + "-" * 399 + "y;\n", id="399 prefix -"),
    pytest.param("x = " + "!" * 399 + "y;\n", id="399 prefix !"),
]


@pytest.mark.parametrize("source", SNIPPETS)
def test_roundtrip_fixed(source):
    first = parse_source(source)
    printed = pretty_print(first)
    assert parse_source(printed) == first


REAL_PROGRAMS = sorted([*CORPUS_DIR.glob("*.plx"),
                        *COINCIDENCE_DIR.glob("*.plx")])


@pytest.mark.parametrize("source", [
    *(pytest.param(path.read_text(encoding="utf-8"), id=path.name)
      for path in REAL_PROGRAMS),
    pytest.param(default_prelude_source(), id="prelude.plx"),
])
def test_roundtrip_real_programs(source):
    first = parse_source(source)
    assert parse_source(pretty_print(first)) == first


# random expression ASTs survive print -> parse -> print
_names = st.sampled_from(["a", "b", "c"])


def _exprs(depth):
    leaf = st.one_of(
        st.builds(NumberLit, st.floats(min_value=0, max_value=1e6,
                                       allow_nan=False).map(
            lambda f: float(f"{f:.6g}") if f != int(f) else float(int(f)))),
        st.builds(StringLit, st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=8)),
        st.builds(Identifier, _names))
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.builds(lambda l, r, op: Binary(op, l, r), sub, sub,
                  st.sampled_from(["+", "*", "==", "===", ":==:", "<",
                                   "&&"])),
        st.builds(lambda o, k: PropertyGet(o, k, False), sub,
                  st.sampled_from(["x", "y"])),
        st.builds(Unary, st.sampled_from(["-", "!"]), sub),
        st.builds(lambda c, t, o: Conditional(c, t, o), sub, sub, sub))


@settings(max_examples=200)
@given(_exprs(3))
def test_roundtrip_generated(tree):
    from proxylang.nodes import ExprStmt, Program
    program = Program([ExprStmt(tree)])
    printed = pretty_print(program)
    assert parse_source(printed) == program


# --- node layout ---

EVERY_NODE = """
var o = { a: 1, b: "s", c: true, d: null, e: undefined };
function f(x) { return -x; }
x = new Proxy(o, {});
o.a = o.b;
if (o.c) { f(1); } else { o.m(!x ? 1 + 2 : (function () { })); }
while (false) { }
"""


def test_parsed_nodes_have_no_dict():
    from proxylang import lexer, nodes
    classes = {cls for cls in vars(nodes).values()
               if isinstance(cls, type) and dataclasses.is_dataclass(cls)}
    seen, todo = set(), [parse_source(EVERY_NODE)]
    while todo:
        item = todo.pop()
        if isinstance(item, (list, tuple)):
            todo.extend(item)
        elif dataclasses.is_dataclass(item):
            assert not hasattr(item, "__dict__"), type(item).__name__
            seen.add(type(item))
            todo.extend(getattr(item, f.name)
                        for f in dataclasses.fields(item))
    assert seen == classes


# every node class, each construct on lines of its own: a node takes the
# line of its first token, and a binary operation, call, method call,
# property read and '?:' take their left operand's, so each of those has
# its operator on a later line
EVERY_NODE_ON_ITS_OWN_LINES = """var o =
  {
    n: 1,
    s:
      "s"
  };
function f(x)
{
  return
    -
    x;
}
if (
  true
) {
  o
    .n = false;
} else {
  o
    [
    "n"
    ] = null;
}
while (
  undefined
) {
}
x =
  a
  +
  b
  *
  c
  -
  d;
f
  (
  1
  );
o
  .m(
  2
  );
y = c
  ? d
  : e;
z = new
  C
  (
  3
  );
w = function
  () {
  };
v = o
  .n;
"""


def test_every_node_has_its_line():
    # line is left out of equality, so only this test catches a line
    # taken from the wrong token or passed into the wrong field
    seen, todo = [], [parse_source(EVERY_NODE_ON_ITS_OWN_LINES)]
    while todo:
        item = todo.pop()
        if isinstance(item, (list, tuple)):
            todo.extend(reversed(item))
        elif dataclasses.is_dataclass(item):
            seen.append((type(item).__name__, item.line))
            todo.extend(reversed([getattr(item, f.name)
                                  for f in dataclasses.fields(item)]))
    assert seen == [
        ("Program", 1),
        ("VarDecl", 1), ("ObjectLit", 2), ("NumberLit", 3),
        ("StringLit", 5),
        ("FunctionDecl", 7), ("FunctionExpr", 7), ("Block", 8),
        ("Return", 9), ("Unary", 10),
        ("Identifier", 11),
        ("If", 13), ("BoolLit", 14),
        ("Block", 15), ("PropertySet", 16), ("Identifier", 16),
        ("BoolLit", 17),
        ("Block", 18), ("PropertySet", 19), ("Identifier", 19),
        ("StringLit", 21), ("NullLit", 22),
        ("While", 24), ("UndefinedLit", 25), ("Block", 26),
        # (a + (b * c)) - d
        ("Assign", 28), ("Binary", 29), ("Binary", 29), ("Identifier", 29),
        ("Binary", 31), ("Identifier", 31), ("Identifier", 33),
        ("Identifier", 35),
        ("ExprStmt", 36), ("Call", 36), ("Identifier", 36),
        ("NumberLit", 38),
        ("ExprStmt", 40), ("MethodCall", 40), ("Identifier", 40),
        ("NumberLit", 42),
        ("Assign", 44), ("Conditional", 44), ("Identifier", 44),
        ("Identifier", 45), ("Identifier", 46),
        ("Assign", 47), ("New", 47), ("Identifier", 48), ("NumberLit", 50),
        ("Assign", 52), ("FunctionExpr", 52), ("Block", 53),
        ("Assign", 55), ("PropertyGet", 55), ("Identifier", 55)]
    from proxylang import lexer, nodes
    assert {name for name, _ in seen} == {
        cls.__name__ for cls in vars(nodes).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)}


def test_block_scoped_when_a_direct_statement_declares():
    assert stmt("if (a) { var x = 1; }").then.scoped
    assert stmt("if (a) { function g() { } }").then.scoped
    outer = stmt("while (a) { if (b) { var x = 1; } }").body
    assert not outer.scoped
    assert outer.statements[0].then.scoped
    assert not stmt("while (a) { }").body.scoped
    # computed, not compared
    assert Block([VarDecl("x", NumberLit(1.0))]).scoped
    assert Block([VarDecl("x", NumberLit(1.0))]) \
        == stmt("if (a) { var x = 1; }").then


def test_binary_resolves_its_operator_on_numbers():
    # the operator on two numbers and a number literal on the right are
    # set when the node is built, by the parser and the constructor alike
    node = expr("i + 1")
    assert node.on_numbers is operator.add and node.literal == 1.0
    assert expr("1 - i").literal is None
    assert expr("a / 0").on_numbers is divide and expr("a / 0").literal == 0
    for op in ("==", "===", ":==:", ":===:"):
        assert expr(f"a {op} b").on_numbers is operator.eq, op
    for op in ("!=", "!=="):
        assert expr(f"a {op} b").on_numbers is operator.ne, op
    for op in ("&&", "||"):
        node = expr(f"a {op} 2")
        assert node.on_numbers is None and node.literal == 2.0, op
    assert expr('a + "1"').literal is None
    built = Binary("<", Identifier("i"), NumberLit(300.0))
    assert built.on_numbers is operator.lt and built.literal == 300.0
    assert built == expr("i < 300")
    with pytest.raises(KeyError):
        Binary("%", Identifier("i"), NumberLit(2.0))


@pytest.mark.parametrize("source", [
    *(pytest.param(path.read_text(encoding="utf-8"), id=path.name)
      for path in REAL_PROGRAMS),
    pytest.param(default_prelude_source(), id="prelude.plx"),
    pytest.param(EVERY_NODE_ON_ITS_OWN_LINES, id="every node"),
])
def test_parsed_nodes_match_their_constructors(source):
    # the parser builds most nodes without their __init__, slot by slot:
    # each must be the node its public constructor builds from its init
    # fields, with the same line, Block.scoped and Binary.on_numbers and
    # literal, which equality leaves out
    todo = [parse_source(source)]
    while todo:
        item = todo.pop()
        if isinstance(item, (list, tuple)):
            todo.extend(item)
        elif dataclasses.is_dataclass(item):
            fields = dataclasses.fields(item)
            built = type(item)(**{f.name: getattr(item, f.name)
                                  for f in fields if f.init})
            assert built == item, item
            assert built.line == item.line, item
            if isinstance(item, Block):
                assert built.scoped == item.scoped, item
            if isinstance(item, Binary):
                assert built.on_numbers is item.on_numbers, item
                assert built.literal == item.literal, item
            todo.extend(getattr(item, f.name) for f in fields)
