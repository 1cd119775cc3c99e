import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxylang import equality, objects
from proxylang.cli import main
from proxylang.equality import (EqualityMode, builtin_is_equal,
                                builtin_is_identical, loose_equals,
                                opaque_loose_equals, opaque_strict_equals,
                                primitive_loose_equals, raw_identical,
                                strict_equals, string_to_number)
from proxylang.interpreter import Interpreter, evaluate_program, run_source
from proxylang.objects import NULL, UNDEFINED, HeapObject, OrdinaryObject
from proxylang.parser import parse_expression, parse_source
from proxylang.proxies import (ProxyObject, get_equality_object,
                               look_through, proxy_create, revoke)

from test_acceptance import load_table, to_value

MODES = list(EqualityMode)


def interp_for(mode):
    return Interpreter(mode=mode)


def resolved(interp, value):
    """value as == and === of interp's mode compare it, resolved by the
    interpreter's resolver (opaque mode has none)."""
    resolve = interp.resolve
    return value if resolve is None else resolve(interp, value)


def chain(interp, flags):
    """target plus one proxy per flag; True/False via trap, None bare."""
    nodes = [interp.heap.alloc_object()]
    for flag in flags:
        props = {}
        if flag is not None:
            props["isTransparent"] = interp.alloc_native(
                "isTransparent", lambda itp, this, args, f=flag: f)
        nodes.append(proxy_create(interp, nodes[-1],
                                  interp.heap.alloc_object(props)))
    return nodes


# --- raw identity ---

def test_raw_identical_objects_by_reference():
    a, b = OrdinaryObject(), OrdinaryObject()
    assert raw_identical(a, a)
    assert not raw_identical(a, b)
    assert not raw_identical(a, 3.0)


def test_raw_identical_primitives():
    assert raw_identical(1.0, 1.0)
    assert not raw_identical(float("nan"), float("nan"))
    assert raw_identical(0.0, -0.0)
    assert raw_identical("a", "a")
    # strings compare by value, not by which object holds the text
    assert raw_identical("ab", "".join(["a", "b"]))
    assert raw_identical(True, True)
    assert not raw_identical(True, False)
    assert not raw_identical(True, 1.0)
    assert not raw_identical(False, 0.0)
    assert raw_identical(NULL, NULL)
    assert raw_identical(UNDEFINED, UNDEFINED)
    assert not raw_identical(NULL, UNDEFINED)
    assert not raw_identical("1", 1.0)


# --- mode-by-mode proxy resolution ---

def test_opaque_mode_never_resolves():
    interp = interp_for(EqualityMode.OPAQUE)
    nodes = chain(interp, [True])
    assert not strict_equals(interp, nodes[1], nodes[0])
    assert not loose_equals(interp, nodes[1], nodes[0])
    assert strict_equals(interp, nodes[1], nodes[1])


def test_transparent_mode_always_resolves():
    interp = interp_for(EqualityMode.TRANSPARENT)
    # even a False trap answer cannot keep the proxy distinct
    nodes = chain(interp, [False, None, True])
    for a, b in itertools.combinations(nodes, 2):
        assert strict_equals(interp, a, b)
        assert loose_equals(interp, a, b)


def test_operators_mode_matches_transparent_for_plain_ops(tmp_path, capsys):
    # the name "operators" selects transparent mode: in the enum, the CLI
    # flag and a corpus script's mode pragma
    assert list(EqualityMode) == [EqualityMode.OPAQUE,
                                  EqualityMode.TRANSPARENT, EqualityMode.TRAP]
    assert EqualityMode("operators") is EqualityMode.TRANSPARENT
    interp = interp_for("operators")
    assert interp.mode is EqualityMode.TRANSPARENT
    assert interp.resolve is look_through
    nodes = chain(interp, [None, None])
    assert strict_equals(interp, nodes[2], nodes[0])
    assert not opaque_strict_equals(interp, nodes[2], nodes[0])
    assert opaque_strict_equals(interp, nodes[2], nodes[2])
    assert not opaque_loose_equals(interp, nodes[2], nodes[0])
    assert opaque_loose_equals(interp, nodes[0], nodes[0])

    script = tmp_path / "alias.plx"
    script.write_text("// mode: operators\n"
                      "var t = {};\nprint(new Proxy(t, {}) == t);\n")
    (tmp_path / "alias.expected").write_text("true\n")
    assert main(["run", str(script), "--equality-mode", "operators"]) == 0
    assert capsys.readouterr().out == "true\n"
    # the pragma overrides the default opaque flag
    assert main(["corpus", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "PASS alias.plx\n1 passed, 0 failed\n"


def test_trap_mode_respects_votes():
    interp = interp_for(EqualityMode.TRAP)
    nodes = chain(interp, [True, False, True])
    # nodes[3] resolves through 3 (True) to 2; 2 votes False, stays
    assert strict_equals(interp, nodes[3], nodes[2])
    assert not strict_equals(interp, nodes[3], nodes[1])
    assert not strict_equals(interp, nodes[3], nodes[0])
    assert strict_equals(interp, nodes[1], nodes[0])


def test_opaque_operators_available_in_every_mode():
    for mode in MODES:
        interp = interp_for(mode)
        nodes = chain(interp, [True])
        assert not opaque_strict_equals(interp, nodes[1], nodes[0])
        assert not opaque_loose_equals(interp, nodes[1], nodes[0])
        assert opaque_strict_equals(interp, nodes[1], nodes[1])


def test_builtins_resolve_fully_in_every_mode():
    for mode in MODES:
        interp = interp_for(mode)
        nodes = chain(interp, [False, None])
        assert builtin_is_identical(interp, nodes[2], nodes[0])
        assert builtin_is_equal(interp, nodes[2], nodes[0])


def test_each_mode_chooses_its_resolver_once():
    # opaque mode resolves nothing; transparent mode resolves with the
    # memoised walk
    assert [interp_for(mode).resolve for mode in MODES] \
        == [None, look_through, get_equality_object]


def test_revoked_proxy_is_an_equality_endpoint():
    for mode in MODES:
        interp = interp_for(mode)
        nodes = chain(interp, [True, True])
        revoke(interp, nodes[1])
        # comparisons never raise on revoked proxies
        assert strict_equals(interp, nodes[1], nodes[1])
        assert not strict_equals(interp, nodes[1], nodes[0])
        if mode is EqualityMode.OPAQUE:
            assert not strict_equals(interp, nodes[2], nodes[1])
        else:
            assert strict_equals(interp, nodes[2], nodes[1])
        assert not builtin_is_identical(interp, nodes[1], nodes[0])


def test_resolution_is_idempotent():
    for mode in MODES:
        interp = interp_for(mode)
        for flags in itertools.product([True, False, None], repeat=3):
            nodes = chain(interp, list(flags))
            for node in nodes:
                once = resolved(interp, node)
                assert resolved(interp, once) == once


def test_ref_never_equals_primitive():
    for mode in MODES:
        interp = interp_for(mode)
        nodes = chain(interp, [True])
        for prim in (0.0, 1.0, "", "x", True, False, NULL, UNDEFINED):
            assert not strict_equals(interp, nodes[1], prim)
            assert not loose_equals(interp, nodes[1], prim)
            assert not loose_equals(interp, prim, nodes[0])


# --- the look-through memo ---

UNCONDITIONAL = (EqualityMode.TRANSPARENT,)


def fresh_end(value):
    """The end of an unconditional look-through walk, taken afresh."""
    while isinstance(value, ProxyObject) and value.handler is not None:
        value = value.target
    return value


# each step wraps one node, may revoke one proxy (through the interpreter
# of one mode), then compares every node; nodes to wrap and proxies to
# revoke are picked among the newest, so chains grow deep and branch, and
# links inside chains compared the step before get revoked
forest_steps = st.lists(
    st.tuples(st.integers(0, 7), st.none() | st.integers(0, 7),
              st.integers(0, len(MODES) - 1)),
    min_size=1, max_size=24)


@settings(max_examples=150, deadline=None)
@given(forest_steps)
def test_memoised_resolution_matches_a_fresh_walk(steps):
    # the objects are shared by one interpreter per mode, and every
    # comparison is checked against a fresh walk in every mode
    interps = [Interpreter(mode=mode) for mode in MODES]
    home = interps[0]
    nodes = [home.heap.alloc_object() for _ in range(3)]
    made = []
    for wrap, revoked, via in steps:
        made.append(proxy_create(home, nodes[-1 - wrap % len(nodes)],
                                 home.heap.alloc_object()))
        nodes.append(made[-1])
        if revoked is not None:
            revoke(interps[via], made[-1 - revoked % len(made)])
        b = nodes[-1 - wrap % len(nodes)]
        for a in nodes:
            same = fresh_end(a) is fresh_end(b)
            for interp in interps:
                assert look_through(interp, a) is fresh_end(a)
                if interp.mode in UNCONDITIONAL:
                    assert interp.resolve(interp, a) is fresh_end(a)
                    assert strict_equals(interp, a, b) == same
                    assert loose_equals(interp, b, a) == same
                else:
                    assert resolved(interp, a) \
                        is (a if interp.mode is EqualityMode.OPAQUE
                            else get_equality_object(interp, a))
                assert builtin_is_identical(interp, a, b) == same
                assert builtin_is_equal(interp, b, a) == same


def test_revocation_through_another_interpreter_stales_the_memo():
    first = interp_for(EqualityMode.TRANSPARENT)
    second = interp_for(EqualityMode.OPAQUE)
    nodes = chain(first, [None, None, None])
    assert first.resolve(first, nodes[3]) is nodes[0]
    revoke(second, nodes[2])
    assert first.resolve(first, nodes[3]) is nodes[2]
    # a second revocation is a no-op: the count, and so every memo, stands
    count = objects.walk_epoch
    revoke(second, nodes[2])
    assert objects.walk_epoch == count
    assert nodes[3].endpoint == (count, nodes[2])


def test_only_resolved_operands_carry_a_memo():
    interp = interp_for(EqualityMode.TRANSPARENT)
    nodes = chain(interp, [None, None, None])
    assert strict_equals(interp, nodes[3], nodes[0])
    assert [node.endpoint[1] for node in nodes[1:]] \
        == [None, None, nodes[0]]
    # trap mode never memoises
    trap = interp_for(EqualityMode.TRAP)
    nodes = chain(trap, [True, True])
    assert strict_equals(trap, nodes[2], nodes[0])
    assert [node.endpoint[1] for node in nodes[1:]] == [None, None]


INVALIDATION = """
function link(t) {
    return new Proxy(t, {isTransparent: function(t, p) { return true; }});
}
var o = {};
var middle = link(link(o));
var p = link(middle);
var m = WeakMap();
m.set(o, 1);
"""
PROBE = "print(p === o, Proxy.isIdentical(p, o), m.get(p));\n"
REVOKE = "Proxy.revoke(middle);\n"


@pytest.mark.parametrize("mode,before,after", [
    ("opaque", "false true undefined", "false false undefined"),
    ("transparent", "true true 1", "false false undefined"),
    ("operators", "true true 1", "false false undefined"),
    ("trap", "true true 1", "false false undefined"),
])
def test_revoking_a_middle_link_flips_earlier_answers(mode, before, after):
    # every answer after the revocation is the one a run that never
    # compared before it gives; revoking again changes nothing
    warm = run_source(INVALIDATION + PROBE + REVOKE + PROBE + REVOKE + PROBE,
                      mode=mode)
    cold = run_source(INVALIDATION + REVOKE + PROBE, mode=mode)
    assert warm.ok and cold.ok
    assert warm.output.splitlines() == [before, after, after]
    assert cold.output.splitlines() == [after]


# --- primitive coercion table behaviors ---

@pytest.mark.parametrize("a,b,expected", [
    (NULL, UNDEFINED, True),
    (UNDEFINED, NULL, True),
    (NULL, 0.0, False),
    (UNDEFINED, 0.0, False),
    (True, 1.0, True),
    (False, 0.0, True),
    (True, "1", True),
    (False, "", True),
    (False, "0", True),
    (1.0, "1", True),
    (0.0, "", True),
    (0.0, "  ", True),
    (16.0, "0x10", True),
    (1.0, "1.0", True),
    (float("nan"), float("nan"), False),
    (float("nan"), "NaN", False),
    (math.inf, "Infinity", True),
    (-math.inf, "-Infinity", True),
    (1.0, "abc", False),
    ("1", "1.0", False),
    ("", "0", False),
    ("\u0661\u0662", 12.0, False), ("\uff11", 1.0, False),
    ("\u20285", 5.0, True), ("\u30005", 5.0, True),
])
def test_primitive_loose_pairs(a, b, expected):
    assert primitive_loose_equals(a, b) is expected
    assert primitive_loose_equals(b, a) is expected


@pytest.mark.parametrize("text,expected", [
    ("", 0.0), ("  ", 0.0), ("42", 42.0), (" 42 ", 42.0), ("-3.5", -3.5),
    ("+7", 7.0), (".5", 0.5), ("5.", 5.0), ("1e3", 1000.0), ("1E-2", 0.01),
    ("0x10", 16.0), ("0XAb", 171.0), ("Infinity", math.inf),
    ("-Infinity", -math.inf), ("+Infinity", math.inf),
    # every StrWhiteSpaceChar is trimmed: line terminators and Zs spaces
    ("\u20285", 5.0), ("5\u2029", 5.0), ("\u30005", 5.0),
    ("\u1680\u2000\u200a5\u202f\u205f", 5.0), ("\xa0\ufeff5", 5.0),
])
def test_string_to_number(text, expected):
    assert string_to_number(text) == expected


@pytest.mark.parametrize("text", [
    "abc", "1 2", "1.2.3", "0x", "-0x10", "infinity", "NaN", "1px", "--5",
    # only ASCII digits are digits
    "\u0661\u0662", "\uff11", "1\u0660", "\u0661e2", "0x\uff11",
])
def test_string_to_number_garbage_is_nan(text):
    assert math.isnan(string_to_number(text))


# --- property-style checks ---

prims = st.one_of(
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.booleans(),
    st.just(NULL),
    st.just(UNDEFINED))


@given(prims, prims)
def test_loose_symmetric(a, b):
    assert primitive_loose_equals(a, b) == primitive_loose_equals(b, a)


@given(prims)
def test_loose_reflexive_without_nan(a):
    assert primitive_loose_equals(a, a)


@given(st.text(max_size=10))
def test_string_to_number_total(text):
    result = string_to_number(text)
    assert isinstance(result, float)


@given(st.text(alphabet="0123456789aAbBeEfFxX+-.Infity", max_size=10))
def test_number_patterns_are_disjoint(text):
    # string_to_number tries the decimal pattern first, which is its
    # answer only because no text matches two of the patterns
    patterns = (equality._DECIMAL, equality._HEX, equality._INFINITY)
    assert sum(p.fullmatch(text) is not None for p in patterns) <= 1


def test_strict_implies_loose_on_primitives():
    sample = [0.0, 1.0, 2.0, float("nan"), "", "0", "1", "abc",
              True, False, NULL, UNDEFINED]
    for a, b in itertools.product(sample, repeat=2):
        if raw_identical(a, b):
            assert primitive_loose_equals(a, b)


# --- only a proxy operand is resolved: a differential check ---

def reference_primitive_loose(a, b):
    """== on two primitives, with no same-type shortcut."""
    if isinstance(a, bool):
        return reference_primitive_loose(1.0 if a else 0.0, b)
    if isinstance(b, bool):
        return reference_primitive_loose(a, 1.0 if b else 0.0)
    if type(a) is type(b):
        return raw_identical(a, b)
    if {type(a), type(b)} == {type(NULL), type(UNDEFINED)}:
        return True
    if isinstance(a, float) and isinstance(b, str):
        return a == string_to_number(b)
    if isinstance(a, str) and isinstance(b, float):
        return string_to_number(a) == b
    return False


def reference_equals(interp, op, a, b):
    """op on a and b with both operands resolved first, whatever they
    are."""
    a = resolved(interp, a)
    b = resolved(interp, b)
    if op in ("===", "!=="):
        equal = raw_identical(a, b)
    elif isinstance(a, HeapObject) or isinstance(b, HeapObject):
        equal = raw_identical(a, b)
    else:
        equal = reference_primitive_loose(a, b)
    return equal if op in ("==", "===") else not equal


EQUALITY_OPERANDS = """
var o = {};
var other = {};
var f = function() { return 1; };
function vote(answer) {
  return {isTransparent: function(t, p) { return answer; }};
}
var yes = new Proxy(o, vote(true));
var no = new Proxy(o, vote(false));
var bare = new Proxy(o, {});
var deep = new Proxy(yes, vote(true));
var stuck = new Proxy(no, vote(true));
var revoked = new Proxy(o, vote(true));
Proxy.revoke(revoked);
var past = new Proxy(revoked, vote(true));
var wrapped = new Proxy(f, vote(true));
"""
OBJECT_NAMES = ("o", "other", "f", "yes", "no", "bare", "deep", "stuck",
                "revoked", "past", "wrapped")


@pytest.mark.parametrize("mode", MODES)
def test_equality_matches_a_resolve_first_reference(mode):
    # every pair of the primitive table's values, objects, proxies and
    # revoked proxies, through the language's four equality operators
    values, pairs = load_table()
    primitives = [to_value(value) for value in values]
    for i, j, loose, strict in pairs:
        a, b = primitives[i], primitives[j]
        assert reference_primitive_loose(a, b) is loose
        assert raw_identical(a, b) is strict
    interp = Interpreter(mode=mode)
    assert evaluate_program(parse_source(EQUALITY_OPERANDS), interp).ok
    operands = primitives + [interp.globals[name]
                             for name in OBJECT_NAMES]
    for op in ("==", "!=", "===", "!=="):
        node = parse_expression(f"a {op} b")
        for a, b in itertools.product(operands, repeat=2):
            interp.globals["a"] = a
            interp.globals["b"] = b
            assert node.evaluate(interp, interp.globals) \
                is reference_equals(interp, op, a, b), (op, a, b)
