"""A trap-mode vote through a constant trap is answered without a call.

The parser sets each FunctionDecl's and FunctionExpr's constant flag to
True or False when its body is exactly one `return true;` or
`return false;`, and proxies.is_transparent answers a vote through such a
trap with the flag, below MAX_CALL_DEPTH, instead of invoking it.
test_front_end.py checks the flag of every function the corpus,
coincidence, prelude and benchmark scripts programs hold against
reference_front_end.mark_scopes. These tests check hand-picked bodies and
host-built functions, and run generated proxy forests twice, once with the
parser's flags and once with every constant cleared, so that every vote
is a call, requiring the same output and error.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_front_end as reference
from proxylang.errors import MAX_CALL_DEPTH
from proxylang.interpreter import Interpreter, evaluate_program
from proxylang.nodes import Block, BoolLit, FunctionDecl, FunctionExpr, Return
from proxylang.objects import FunctionRecord, render_value
from proxylang.parser import parse_expression, parse_source
from proxylang.proxies import is_transparent, proxy_create


def test_which_bodies_are_constant():
    constants = [
        ("function(t, p) { return true; }", True),
        ("function(t, p) { return false; }", False),
        ("function() { return (true); }", True),
    ]
    others = [
        "function(t, p) { return 1; }",
        "function(t, p) { return !false; }",
        "function(t, p) { return yes; }",
        "function(t, p) { return; }",
        "function(t, p) { }",
        "function(t, p) { return true; return false; }",
        "function(t, p) { print(1); return true; }",
        "function(t, p) { if (t) { return true; } }",
        "function(t, p) { var x = true; return x; }",
    ]
    for source, constant in constants:
        assert parse_expression(source).constant is constant, source
    for source in others:
        assert parse_expression(source).constant is None, source
    declared, = parse_source("function no(t, p) { return false; }").statements
    assert declared.constant is False
    # a nested function's body is its own
    outer = parse_expression("function() { return function() "
                             "{ return true; }; }")
    assert outer.constant is None
    assert outer.body.statements[0].value.constant is True


def test_host_built_functions_are_called():
    body = Block([Return(BoolLit(True))])
    assert FunctionDecl("f", [], body).constant is None
    assert FunctionExpr([], body).constant is None
    # the flag is left out of equality and repr, like scoped
    parsed = parse_expression("function() { return true; }")
    assert parsed.constant is True
    assert parsed == FunctionExpr([], body)
    assert "constant" not in repr(parsed)
    # a record a host builds has no constant, so a vote through it runs
    interp = Interpreter(mode="trap")
    record = FunctionRecord([], Block([Return(BoolLit(True))]),
                            interp.globals)
    assert record.constant is None
    calls = []
    invoke = interp.invoke
    interp.invoke = lambda *args: calls.append(args) or invoke(*args)
    trap = interp.alloc_function(record)
    proxy = proxy_create(interp, interp.heap.alloc_object(),
                         interp.heap.alloc_object({"isTransparent": trap}))
    assert is_transparent(interp, proxy) is True
    assert len(calls) == 1
    record.constant = False
    assert is_transparent(interp, proxy) is False
    assert len(calls) == 1


# --- generated proxy forests, with and without the parser's flags ---

# each handler a proxy can have: constant traps, written inline and
# declared; traps that must run, throw or revoke their own proxy; no trap,
# a trap that is not callable, a handler that is a proxy and a trap that
# is a callable proxy
HANDLERS = [
    "{isTransparent: function(t, p) { return true; }}",
    "{isTransparent: function(t, p) { return false; }}",
    "{isTransparent: yesDecl}",
    "{isTransparent: noDecl}",
    "{isTransparent: function(t, p) { return yes; }}",
    "{isTransparent: function(t, p) { return p === t; }}",
    "{isTransparent: function(t, p) { return 1; }}",
    '{isTransparent: function(t, p) { print("voted"); return true; }}',
    "{isTransparent: function(t, p) { return t.missing.x; }}",
    '{isTransparent: function(t, p) { contractViolation("no"); }}',
    "{isTransparent: function(t, p) { Proxy.revoke(p); return true; }}",
    "{isTransparent: function(t, p) { return Proxy.withTransparency(p, "
    "true, function() { return p === t; }); }}",
    "{}",
    "{isTransparent: true}",
    "new Proxy({isTransparent: function(t, p) { return true; }}, {})",
    "{isTransparent: new Proxy(function(t, p) { return false; }, {})}",
]

OPERATORS = ["===", "==", "!==", "!="]
PROBES = ["WeakMap().set({a}, 1).get({b})", "WeakMap().set({a}, 1).has({b})"]

PRELUDE = """var yes = true;
function yesDecl(t, p) { return true; }
function noDecl(t, p) { return false; }
function at(n, f) { if (n > 1) { return at(n - 1, f); } return f(); }
var n0 = {};
var n1 = {};"""


@st.composite
def forests(draw):
    """A program that wraps, revokes and compares, a statement a line.
    A comparison may run under a withTransparency override, and an
    operator may run in a call MAX_CALL_DEPTH - 2 to MAX_CALL_DEPTH deep,
    where a constant vote is still answered and then is called."""
    nodes, proxies = 2, []
    lines = [PRELUDE]
    for _ in range(draw(st.integers(1, 14))):
        step = draw(st.sampled_from(["wrap", "wrap", "revoke", "compare",
                                     "compare", "compare"]))
        if step == "wrap" or not proxies:
            target = draw(st.integers(0, nodes - 1))
            handler = draw(st.sampled_from(HANDLERS))
            lines.append(f"var n{nodes} = new Proxy(n{target}, {handler});")
            proxies.append(nodes)
            nodes += 1
        elif step == "revoke":
            lines.append(f"Proxy.revoke(n{draw(st.sampled_from(proxies))});")
        else:
            a, b = (f"n{draw(st.integers(0, nodes - 1))}" for _ in "ab")
            expression = draw(st.sampled_from(
                [f"{a} {op} {b}" for op in OPERATORS]
                + [probe.format(a=a, b=b) for probe in PROBES]))
            how = draw(st.sampled_from(["top", "pinned", "deep"]))
            if how == "pinned":
                pinned = draw(st.sampled_from(proxies))
                flag = draw(st.sampled_from(["true", "false"]))
                expression = (f"Proxy.withTransparency(n{pinned}, {flag}, "
                              f"function() {{ return {expression}; }})")
            elif how == "deep":
                # the operator runs MAX_CALL_DEPTH - deep calls deep
                deep = draw(st.integers(0, 2))
                op = draw(st.sampled_from(OPERATORS))
                expression = (f"at({MAX_CALL_DEPTH - 1 - deep}, "
                              f"function() {{ return {a} {op} {b}; }})")
            lines.append(f"print({expression});")
    return "\n".join(lines)


def outcome(program):
    interp = Interpreter(mode="trap")
    result = evaluate_program(program, interp)
    value = None if result.value is None else render_value(result.value)
    return (result.status, result.error_kind, result.error_message,
            result.error_line, result.output, value, interp.depth,
            len(interp.override_stack))


@settings(max_examples=300, deadline=None)
@given(forests())
def test_answering_constant_votes_changes_nothing(source):
    flagged = parse_source(source)
    called = parse_source(source)
    for node in reference.function_nodes(called):
        node.constant = None
    assert outcome(flagged) == outcome(called), source
