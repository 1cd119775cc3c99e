"""The value layer, every equality operator and print against
reference_values.py.

The helpers now test the common class first, kind_of reads a class
table, and raw identity is one expression that each comparison evaluates
in its own frame. reference_values.py keeps the helpers as they were.
Over every kind of language value (floats at each edge the helpers
branch on, bools, numeric and other strings, null, undefined, ordinary
objects and proxies, revoked ones included) each helper must give the
reference's value or error; ===, !==, ==, !=, :==:, :===:,
Proxy.isIdentical and Proxy.isEqual, run as programs in each mode, must
give what the reference comparisons give on the mode's resolution of the
operands; and print must write the reference's rendering. A pair is also
tried against a copy of its first value, an equal but distinct float or
string, so that identity where value equality is due shows.
"""

import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_values as ref
from proxylang import equality, objects
from proxylang.errors import PlxRuntimeError
from proxylang.interpreter import Interpreter, evaluate_program
from proxylang.objects import NULL, UNDEFINED, HeapObject
from proxylang.parser import parse_expression, parse_source
from proxylang.proxies import get_equality_object, look_through

from conftest import MODES

NEAR_1E21 = math.nextafter(1e21, 0.0)
FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf, 1e21, -1e21,
          NEAR_1E21, -NEAR_1E21, math.nextafter(1e21, math.inf),
          2.0 ** 53 - 1, 2.0 ** 53 + 1, -(2.0 ** 53) - 1, 1e-7, 1e-5, 1.0,
          -1.5, 0.1, 123.0)
STRINGS = ("", "0", "-0", "1", " 1 ", "1.5", "1e21", "0x10", "Infinity",
           "-Infinity", "NaN", "abc", "true", "false", "null", "undefined",
           "[object]")

# objects, every one built by this program in one interpreter, and shared
# by each mode's interpreter below: two proxies over o that vote true, one
# that votes false, one with no trap, one over a proxy, revoked links, and
# one whose vote runs code
OBJECTS_SETUP = """
var o = {}; var o2 = {x: 1}; var f = function() { return 1; };
var yes = new Proxy(o, {isTransparent: function(t, p) { return true; }});
var also = new Proxy(o, {isTransparent: function(t, p) { return true; }});
var no = new Proxy(o, {isTransparent: function(t, p) { return false; }});
var plain = new Proxy(o, {});
var deep = new Proxy(yes, {isTransparent: function(t, p) { return true; }});
var dead = new Proxy(o, {isTransparent: function(t, p) { return true; }});
var above = new Proxy(dead, {isTransparent: function(t, p) { return true; }});
var runs = new Proxy(o2, {isTransparent: function(t, p) { return !false; }});
var other = new Proxy(o2, {});
Proxy.revoke(dead);
"""
OBJECT_NAMES = ("o", "o2", "f", "yes", "also", "no", "plain", "deep", "dead",
                "above", "runs", "other")


def build_objects():
    interp = Interpreter()
    assert evaluate_program(parse_source(OBJECTS_SETUP), interp).ok
    return tuple(interp.globals.lookup(name) for name in OBJECT_NAMES)


OBJECTS = build_objects()
VALUES = FLOATS + STRINGS + (True, False, NULL, UNDEFINED) + OBJECTS

# each mode's interpreter, with the operands as the globals a and b
INTERPRETERS = {mode: Interpreter(mode=mode) for mode in MODES}
RESOLVERS = {"opaque": None, "transparent": look_through,
             "trap": get_equality_object}
OPERATORS = ("===", "!==", "==", "!=", ":==:", ":===:")
PROGRAMS = {op: parse_expression(f"a {op} b") for op in OPERATORS}
PROGRAMS["isIdentical"] = parse_expression("Proxy.isIdentical(a, b)")
PROGRAMS["isEqual"] = parse_expression("Proxy.isEqual(a, b)")
PRINT = parse_expression("print(a, b)")


def copy(value):
    """An equal value that is another object where it can be: a float or
    a string of more than one character is rebuilt."""
    if value.__class__ is float:
        return float(repr(value))
    if value.__class__ is str:
        return "".join(list(value))
    return value


def outcome(helper, *args):
    """What a helper gives: its value and that value's class, or its
    error's class and message."""
    try:
        value = helper(*args)
    except (TypeError, PlxRuntimeError) as err:
        return "error", err.__class__, str(err)
    return "value", value.__class__, value


def reference_loose(a, b):
    if isinstance(a, HeapObject) or isinstance(b, HeapObject):
        return a is b  # objects never coerce
    return ref.primitive_loose_equals(a, b)


def reference_answers(mode, interp, a, b):
    """Every comparison of a and b, as the reference compares them."""
    resolve = RESOLVERS[mode]
    ra, rb = (a, b) if resolve is None \
        else (resolve(interp, a), resolve(interp, b))
    la, lb = look_through(interp, a), look_through(interp, b)
    strict, loose = ref.raw_identical(ra, rb), reference_loose(ra, rb)
    return {"===": strict, "!==": not strict, "==": loose, "!=": not loose,
            ":===:": ref.raw_identical(a, b), ":==:": reference_loose(a, b),
            "isIdentical": ref.raw_identical(la, lb),
            "isEqual": reference_loose(la, lb)}


def check_value(value):
    for helper in ("to_property_key", "render_value", "kind_of", "truthy"):
        assert outcome(getattr(objects, helper), value) \
            == outcome(getattr(ref, helper), value), (helper, value)
    if value.__class__ is float:
        assert outcome(objects.format_number, value) \
            == outcome(ref.format_number, value), value


def check_pair(a, b):
    assert outcome(equality.raw_identical, a, b) \
        == outcome(ref.raw_identical, a, b), (a, b)
    if not isinstance(a, HeapObject) and not isinstance(b, HeapObject):
        assert outcome(equality.primitive_loose_equals, a, b) \
            == outcome(ref.primitive_loose_equals, a, b), (a, b)
    for mode, interp in INTERPRETERS.items():
        interp.globals.bindings.update(a=a, b=b)
        expected = reference_answers(mode, interp, a, b)
        for name, program in PROGRAMS.items():
            assert program.evaluate(interp, interp.globals) \
                is expected[name], (mode, name, a, b)
        interp.sink = io.StringIO()
        PRINT.evaluate(interp, interp.globals)
        assert interp.output_text() \
            == f"{ref.render_value(a)} {ref.render_value(b)}\n", (a, b)


def test_every_value_and_pair_of_the_pool():
    for a in VALUES:
        check_value(a)
        check_pair(a, copy(a))
        for b in VALUES:
            check_pair(a, b)


values = st.one_of(st.sampled_from(VALUES), st.floats(), st.text(),
                   st.integers(-2 ** 60, 2 ** 60).map(float),
                   st.sampled_from(STRINGS).map(lambda s: f" {s}\t"))


@settings(max_examples=300, deadline=None)
@given(values, values, st.booleans())
def test_helpers_operators_and_print_against_the_reference(a, b, same):
    if same:
        b = copy(a)
    check_value(a)
    check_value(b)
    check_pair(a, b)
    check_pair(b, a)
