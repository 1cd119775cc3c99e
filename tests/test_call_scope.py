"""A language call builds a scope only where its body can observe one.

The parser sets each FunctionExpr's scoped flag, a declaration's
included, and Interpreter.invoke binds the parameters in a scope of their
own only when it is set. test_front_end.py checks the flag of every
function the corpus, coincidence, prelude and benchmark scripts programs
hold against reference_front_end.mark_scopes, a walk of the finished
tree. These tests check hand-picked bodies, each written as a declaration
and as an expression, host-built functions and the closures that the
prelude and the corpus make, and run generated functions twice, once with
the parser's flags and once with every function forced to bind, requiring
the same output, value and error.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_front_end as reference
from proxylang.interpreter import Interpreter, evaluate_program, run_source
from proxylang.nodes import (Block, FunctionDecl, FunctionExpr, Identifier,
                             Return)
from proxylang.objects import FunctionRecord, OrdinaryObject, render_value
from proxylang.parser import parse_expression, parse_source
from proxylang.prelude import default_prelude_source

from conftest import CORPUS_DIR, MODES


def flag(source):
    """The scoped flag of the function expression source."""
    return parse_expression(source).scoped


def test_which_bodies_bind():
    binds = [
        "function(t) { return t; }",
        "function(t) { t = 1; return 0; }",
        "function(t) { return function() { return t; }; }",
        "function(t) { return function() { t = 2; }; }",
        "function(t) { return o[t]; }",
        "function(t) { return function(t) { return t; }; }",  # conservative
        "function() { var x = 1; return x; }",
        "function() { function g() {} return 0; }",
        "function(t, t) { return 1 + t; }",
    ]
    skips = [
        "function() { return 1; }",
        "function(t, p) { return true; }",
        "function() { c = c + step; return c; }",
        "function(t) { return o.t; }",
        "function(t) { return {t: 1}; }",
        "function(t) { o.t = 1; return 0; }",
        "function(t) { return function() { var u = 1; return u; }; }",
        "function(t) { return function(u) { return u; }; }",
        "function(t) { return function() { function t() {} }; }",
        "function(t) { print(\"t\"); }",
        # a declaration in an if or while block goes to the block's scope
        "function() { if (a) { var x = 1; } return 0; }",
        "function() { while (a) { if (b) { function g() {} } } }",
    ]
    for source in binds:
        assert flag(source) is True, source
    for source in skips:
        assert flag(source) is False, source


def test_declarations_mark_the_enclosing_function():
    # a nested function's declarations are its own; its declaration is
    # its enclosing function's
    outer = parse_source(
        "function f() { var g = function() { var x = 1; return x; }; "
        "return g; } function h() { return function() { function k() {} "
        "}; }").statements
    f, h = (decl.function for decl in outer)
    assert f.scoped is True and f.body.statements[0].init.scoped is True
    assert h.scoped is False
    assert h.body.statements[0].value.scoped is True


def test_host_built_functions_bind():
    body = Block([Return(Identifier("t"))])
    assert FunctionDecl("f", FunctionExpr(["t"], body)).function.scoped \
        is True
    assert FunctionExpr(["t"], body).scoped is True
    # the flag is left out of equality, like Block.scoped
    parsed = parse_expression("function(t) { return 1; }")
    assert parsed.scoped is False
    assert parsed == FunctionExpr(["t"], Block([Return(
        parse_expression("1"))]))
    interp = Interpreter()
    record = FunctionRecord(FunctionExpr(["t"], body), interp.globals)
    assert record.node.scoped is True
    assert interp.invoke(OrdinaryObject(function=record), None, [5.0]) \
        == 5.0
    assert "t" not in interp.globals


def test_closures_share_their_node():
    # a closure is its node and its scope: nothing is copied off the node
    assert FunctionRecord.__slots__ == ("node", "env")
    interp = Interpreter()
    program = parse_source(
        "function make(n) { return function() { return n; }; }\n"
        "var a = make(1);\nvar b = make(2);")
    result = evaluate_program(program, interp)
    assert result.ok
    a, b = (interp.globals[name].function for name in "ab")
    assert a.node is b.node
    assert isinstance(a.node, FunctionExpr)
    assert a.env is not b.env
    assert interp.invoke(interp.globals["b"], None, []) == 2.0
    make = interp.globals["make"].function
    # a declaration's closure is made from the FunctionExpr it holds
    assert make.node is program.statements[0].function
    assert make.env is interp.globals


# each body, as a declaration and as the same function written as an
# expression
BODIES = [
    "{ return t; }",
    "{ return function() { return t; }; }",
    "{ var x = 1; return x; }",
    "{ function g() { } return 0; }",
    "{ return true; }",
    "{ return false; }",
    "{ return !false; }",
]


def test_a_declaration_and_an_expression_agree():
    for body in BODIES:
        declared, = parse_source(f"function f(t, p) {body}").statements
        written = parse_expression(f"function(t, p) {body}")
        assert declared.function == written, body
        assert (declared.function.scoped, declared.function.constant) \
            == (written.scoped, written.constant), body


def test_every_closure_is_made_from_a_function_expr(monkeypatch):
    # every closure the prelude and the corpus make, in every mode
    made = []
    alloc_function = Interpreter.alloc_function

    def alloc(interp, record):
        made.append(record.node.__class__)
        return alloc_function(interp, record)

    monkeypatch.setattr(Interpreter, "alloc_function", alloc)
    for path in sorted(CORPUS_DIR.glob("*.plx")):
        for mode in MODES:
            run_source(path.read_text(encoding="utf-8"), mode=mode,
                       prelude_source=default_prelude_source())
    assert made and set(made) == {FunctionExpr}


# --- generated functions, with and without the parser's flags ---

NAMES = st.sampled_from(["t", "p", "q", "g"])  # q is no global

DIGITS = st.integers(0, 9).map(str)
ATOMS = st.one_of(
    NAMES,
    DIGITS,
    NAMES.map(lambda n: f"o.{n}"),
    NAMES.map(lambda n: f"{{{n}: 1}}.{n}"),
    NAMES.map(lambda n: f"(function() {{ return {n}; }})()"),
    NAMES.map(lambda n: f"(function({n}) {{ return {n}; }})(7)"),
)
EXPRESSIONS = st.one_of(ATOMS, st.builds("{} {} {}".format, ATOMS,
                                         st.sampled_from("+-*"), ATOMS))
SIMPLE_STATEMENTS = st.one_of(
    st.builds("var {} = {};".format, NAMES, EXPRESSIONS),
    st.builds("{} = {};".format, NAMES, EXPRESSIONS),
    st.builds("{} = {};".format, NAMES, DIGITS),
    st.builds("return {};".format, DIGITS),
    st.builds("print({});".format, EXPRESSIONS),
    st.builds("o.{} = {};".format, NAMES, EXPRESSIONS),
    st.builds("return {};".format, EXPRESSIONS),
    st.builds("return function() {{ return {}; }};".format, EXPRESSIONS),
    st.builds("return function() {{ {} = {}; return {}; }};".format,
              NAMES, EXPRESSIONS, NAMES),
    st.builds("function {}() {{ return {}; }}".format, NAMES, EXPRESSIONS),
)


def nested(statements):
    """statements, or an if, with or without an else, around up to three
    of them."""
    block = st.lists(statements, max_size=3).map("\n".join)
    return st.one_of(
        statements,
        st.builds("if ({} < 5) {{\n{}\n}}".format, ATOMS, block),
        st.builds("if ({} < 5) {{\n{}\n}} else {{\n{}\n}}".format,
                  ATOMS, block, block))


# a statement a line, so that an error's line tells them apart
STATEMENTS = nested(nested(SIMPLE_STATEMENTS))


@st.composite
def programs(draw):
    params = ", ".join(draw(st.lists(NAMES, max_size=3)))
    body = "\n".join(draw(st.lists(STATEMENTS, max_size=3)))
    args = ", ".join(draw(st.lists(DIGITS, max_size=3)))
    if draw(st.booleans()):
        define = f"function f({params}) {{\n{body}\n}}"
    else:
        define = f"var f = function({params}) {{\n{body}\n}};"
    return "\n".join([
        "var t = 100; var p = 200; var g = 300;",
        "var o = {t: 1, p: 2, q: 3, g: 4};",
        define,
        f"var r = f({args});",
        "print(r);",
        'if (typeofValue(r) == "object") { print(r()); print(r()); }',
        "print(f(1, 2, 3, 4));",
        "print(t, p, g, o.t, o.p, o.q, o.g);",
        "t + p + g;",
    ])


def outcome(program):
    result = evaluate_program(program, Interpreter())
    value = None if result.value is None else render_value(result.value)
    return (result.status, result.error_kind, result.error_message,
            result.error_line, result.output, value)


@settings(max_examples=300, deadline=None)
@given(programs())
def test_skipping_a_scope_changes_nothing(source):
    flagged = parse_source(source)
    bound = parse_source(source)
    for node in reference.function_nodes(bound):
        node.scoped = True
    assert outcome(flagged) == outcome(bound), source

