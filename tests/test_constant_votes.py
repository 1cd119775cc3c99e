"""A trap-mode vote through a constant trap is answered without a call.

Each FunctionExpr's constant flag, a declaration's included, is True or
False when its body is exactly one `return true;` or `return false;`, set
by the parser or, for a node a host builds, by FunctionExpr.__post_init__,
and proxies.is_transparent answers a vote through such a trap with the
flag, below MAX_CALL_DEPTH, instead of invoking it. test_front_end.py
checks the flag of every function the corpus, coincidence, prelude and
benchmark scripts programs hold against reference_front_end.mark_scopes.
These tests check hand-picked bodies, parsed and host-built, and run
generated proxy forests twice, once with the parser's flags and once with
every constant cleared, so that every vote is a call, requiring the same
output and error.

A walk whose every vote was static is memoised on every link it asked
(proxies.get_equality_object), and a memoised path holds under overrides
that name no link on it. The same forests, which also rewrite handlers'
isTransparent, override links on and off the operands' chains and
compare from the middle of chains already walked, run once as parsed and
once with every memo made stale before each resolution, again requiring
the same outcome. That second run installs its own interp.resolve, which
the equality operators must call for every proxy operand.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_front_end as reference
from proxylang import objects
from proxylang.errors import MAX_CALL_DEPTH
from proxylang.interpreter import Interpreter, evaluate_program
from proxylang.nodes import Block, BoolLit, FunctionDecl, FunctionExpr, Return
from proxylang.objects import FunctionRecord, render_value
from proxylang.parser import parse_expression, parse_source
from proxylang.proxies import (get_equality_object, is_transparent,
                               look_through, proxy_create)


CONSTANTS = [
    ("function(t, p) { return true; }", True),
    ("function(t, p) { return false; }", False),
    ("function() { return (true); }", True),
]
OTHERS = [
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


def test_which_bodies_are_constant():
    for source, constant in CONSTANTS:
        assert parse_expression(source).constant is constant, source
    for source in OTHERS:
        assert parse_expression(source).constant is None, source
    declared, = parse_source("function no(t, p) { return false; }").statements
    assert declared.function.constant is False
    # a nested function's body is its own
    outer = parse_expression("function() { return function() "
                             "{ return true; }; }")
    assert outer.constant is None
    assert outer.body.statements[0].value.constant is True


def test_host_built_functions_vote_as_parsed_ones():
    # FunctionExpr.__post_init__ gives a node a host builds the constant
    # the parser gives the same body
    for source in [source for source, _ in CONSTANTS] + OTHERS:
        parsed = parse_expression(source)
        built = FunctionExpr(parsed.params, parsed.body)
        assert built.constant is parsed.constant, source
    body = Block([Return(BoolLit(True))])
    assert FunctionDecl("f", FunctionExpr([], body)).function.constant \
        is True
    # the flag is left out of equality and repr, like scoped
    parsed = parse_expression("function() { return true; }")
    assert parsed == FunctionExpr([], body)
    assert "constant" not in repr(parsed)
    # a record a host builds votes by its constant, with no call, until a
    # host clears it
    interp = Interpreter(mode="trap")
    record = FunctionRecord(FunctionExpr([], Block([Return(BoolLit(True))])),
                            interp.globals)
    calls = []
    invoke = interp.invoke
    interp.invoke = lambda *args: calls.append(args) or invoke(*args)
    trap = interp.alloc_function(record)
    proxy = proxy_create(interp, interp.heap.alloc_object(),
                         interp.heap.alloc_object({"isTransparent": trap}))
    assert is_transparent(interp, proxy) is True
    assert (calls, interp.votes_run) == ([], 0)
    record.node.constant = None
    assert is_transparent(interp, proxy) is True
    assert (len(calls), interp.votes_run) == (1, 1)


# --- generated proxy forests, with and without the parser's flags ---

# each isTransparent a handler can have or be rewritten to: constant
# traps, written inline and declared; traps that must run, throw or revoke
# their own proxy; a trap that is not callable and a trap that is a
# callable proxy
TRAPS = [
    "function(t, p) { return true; }",
    "function(t, p) { return false; }",
    "yesDecl",
    "noDecl",
    "function(t, p) { return yes; }",
    "function(t, p) { return p === t; }",
    "function(t, p) { return 1; }",
    'function(t, p) { print("voted"); return true; }',
    "function(t, p) { return t.missing.x; }",
    'function(t, p) { contractViolation("no"); }',
    "function(t, p) { Proxy.revoke(p); return true; }",
    "function(t, p) { return Proxy.withTransparency(p, "
    "true, function() { return p === t; }); }",
    "true",
    "new Proxy(function(t, p) { return false; }, {})",
]

# each handler a proxy can have: one per trap, no trap, and a handler that
# is a proxy
HANDLERS = [f"{{isTransparent: {trap}}}" for trap in TRAPS] + [
    "{}",
    "new Proxy({isTransparent: function(t, p) { return true; }}, {})",
]

# the handlers and traps whose votes are static: drawn twice as often,
# so that many walks are memoised
STATIC_HANDLERS = HANDLERS[:4] + ["{}"]
STATIC_TRAPS = TRAPS[:4] + ["undefined", "null"]

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
    """A program that wraps, revokes, rewrites a handler's isTransparent
    and compares, a statement a line. Proxy n{k} has handler h{k}. A
    revocation or rewrite of link k is bracketed by the same === of a
    proxy whose chain holds k. A comparison may run under a
    withTransparency override of a proxy on an operand's chain or of any
    proxy, an operator between a proxy and a node on its chain may run in
    a call MAX_CALL_DEPTH - 2 to MAX_CALL_DEPTH deep, where a constant vote
    is still answered and then is called, and a comparison may start from
    a link below a proxy it names; each follows the same === of that proxy
    at the top level. So many comparisons repeat one whose walk may have
    been memoised, or start inside one."""
    nodes, proxies, targets = 2, [], {}
    lines = [PRELUDE]

    def chain(node):
        """node, its target, and so on to the first non-proxy."""
        yield node
        while node in targets:
            node = targets[node]
            yield node

    def partner(x):
        """Half the time a node on x's chain below x, else any node."""
        return draw(st.sampled_from([*chain(x)][1:] or [0])) \
            if draw(st.booleans()) else draw(st.integers(0, nodes - 1))

    for _ in range(draw(st.integers(1, 14))):
        step = draw(st.sampled_from(["wrap", "wrap", "revoke", "rewrite",
                                     "compare", "compare", "compare"]))
        if step == "wrap" or not proxies:
            target = draw(st.integers(0, nodes - 1))
            handler = draw(st.sampled_from(HANDLERS + STATIC_HANDLERS))
            lines.append(f"var h{nodes} = {handler}; "
                         f"var n{nodes} = new Proxy(n{target}, h{nodes});")
            proxies.append(nodes)
            targets[nodes] = target
            nodes += 1
        elif step in ("revoke", "rewrite"):
            k = draw(st.sampled_from(proxies))
            x = draw(st.sampled_from([p for p in proxies if k in chain(p)]))
            a, b = f"n{x}", f"n{partner(x)}"
            if step == "revoke":
                change = f"Proxy.revoke(n{k});"
            else:
                trap = draw(st.sampled_from(TRAPS + STATIC_TRAPS))
                change = f"h{k}.isTransparent = {trap};"
            lines += [f"print({a} === {b});", change, f"print({a} === {b});"]
        else:
            how = draw(st.sampled_from(["top", "pinned", "deep", "deep",
                                        "inside"]))
            # the first operand is a proxy at least half the time, and
            # always in a deep call, where the second is on its chain
            x = draw(st.sampled_from(proxies)) \
                if how == "deep" or draw(st.booleans()) \
                else draw(st.integers(0, nodes - 1))
            y = draw(st.sampled_from([*chain(x)][1:])) if how == "deep" \
                else partner(x)
            a, b = f"n{x}", f"n{y}"
            if how != "top":
                lines.append(f"print({a} === {b});")
            if how == "inside":
                # from a proxy below x, whose walk the line above passed
                a = f"n{draw(st.sampled_from([*chain(x)][1:-1] or [x]))}"
            expression = draw(st.sampled_from(
                [f"{a} {op} {b}" for op in OPERATORS]
                + [probe.format(a=a, b=b) for probe in PROBES]))
            if how == "pinned":
                on_chains = [n for n in (*chain(x), *chain(y))
                             if n in targets]
                # half the time any proxy, most often on neither chain
                pinned = draw(st.sampled_from(
                    on_chains if on_chains and draw(st.booleans())
                    else proxies))
                flag = draw(st.sampled_from(["true", "false"]))
                expression = (f"Proxy.withTransparency(n{pinned}, {flag}, "
                              f"function() {{ return {expression}; }})")
            elif how == "deep":
                # the operator runs MAX_CALL_DEPTH - deep calls deep, most
                # often at the limit, where no constant vote is answered
                deep = draw(st.sampled_from([0, 0, 1, 2]))
                op = draw(st.sampled_from(OPERATORS))
                expression = (f"at({MAX_CALL_DEPTH - 1 - deep}, "
                              f"function() {{ return {a} {op} {b}; }})")
            lines.append(f"print({expression});")
    return "\n".join(lines)


def outcome(program, stale=False):
    """What running program in trap mode shows. If stale, every
    resolution first raises objects.walk_epoch, so that no walk memo is
    ever current and every walk asks each of its votes."""
    interp = Interpreter(mode="trap")
    if stale:
        def resolve(interp, value):
            objects.walk_epoch += 1
            return get_equality_object(interp, value)
        interp.resolve = resolve
    result = evaluate_program(program, interp)
    value = None if result.value is None else render_value(result.value)
    return (result.status, result.error_kind, result.error_message,
            result.error_line, result.output, value, interp.depth,
            len(interp.override_stack))


def test_a_host_resolver_is_called_for_every_proxy_operand():
    # the operators read a memo inline only for the mode's own resolver;
    # one a host installs, as outcome(stale=True) does, is called for each
    # proxy operand, first operand first, on a repeat too, when every
    # walk below is memoised
    for mode, resolver in (("transparent", look_through),
                           ("trap", get_equality_object)):
        interp = Interpreter(mode=mode)
        assert evaluate_program(parse_source(
            "var o = {}; var p = new Proxy(o, {isTransparent: "
            "function(t, q) { return true; }}); var q = new Proxy(p, {});"
            "var r = new Proxy(p, {}); print(q === r, q == o);"),
            interp).ok
        asked = []

        def resolve(interp, value):
            asked.append(value)
            return resolver(interp, value)
        interp.resolve = resolve
        proxies = {name: interp.globals[name] for name in "pqr"}
        for op in OPERATORS:
            for left, right in ("pq", "qo", "or", "rp"):
                for _ in range(2):
                    asked.clear()
                    assert evaluate_program(parse_source(
                        f"{left} {op} {right};"), interp).ok
                    assert asked == [proxies[name] for name in left + right
                                     if name in proxies], (mode, op, left)


@settings(max_examples=300, deadline=None)
@given(forests())
def test_answering_constant_votes_changes_nothing(source):
    flagged = parse_source(source)
    called = parse_source(source)
    for node in reference.function_nodes(called):
        node.constant = None
    assert outcome(flagged) == outcome(called), source


@settings(max_examples=300, deadline=None)
@given(forests())
def test_memoised_walks_change_nothing(source):
    program = parse_source(source)
    assert outcome(program) == outcome(program, stale=True), source
