"""The binary operators against a Python model of them.

_binary answers a pair of numbers itself, with the operator that the node
was given when it was built (Binary.on_numbers), and takes a number
literal on the right from the node (Binary.literal) without evaluating
it; every other pair goes to the entry the node was given for it
(Binary.on_others), which rejects it for an operator that needs
numbers. Each of the 16 operators, on
operands drawn from NaN, +0, -0, +Infinity, -Infinity, integers, numeric
and non-numeric strings, "", booleans, null, undefined, an object and two
proxies of it, with the left operand a literal or a variable and the
right one a literal, a variable or a nested expression, must give in
each mode what the model gives: the same value (NaN for NaN, -0 told from
0, an object by identity), or an error of the same kind, message and
line. The model applies IEEE arithmetic and order, with objects.divide
for '/', and the functions of equality.py for the six equality
operators.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxylang.equality import (loose_equals, opaque_loose_equals,
                                opaque_strict_equals, strict_equals)
from proxylang.interpreter import Interpreter, evaluate_program
from proxylang.objects import (HeapObject, divide, kind_of, render_value,
                               truthy)
from proxylang.parser import parse_source

from conftest import MODES

# (how a program makes the value, the literal that is it or None)
NUMBERS = [("0 / 0", None), ("0", "0"), ("-0", None), ("1 / 0", None),
           ("-1 / 0", None), ("7", "7"), ("-3", None), ("2.5", "2.5"),
           ("1000000000000000000000", "1000000000000000000000")]
OTHERS = [*((text, text) for text in (
    '"12"', '" 7 "', '"0x1F"', '"-Infinity"', '"2.5e0"', '"abc"', '""',
    "true", "false", "null", "undefined")),
    ("o", None), ("p", None), ("q", None)]

# the right operand, the value in r: nested expressions that give it
NESTED = ("(true && r)", "(false || r)", "(true ? r : 0)")

MODEL = {
    "+": lambda a, b: a + b, "-": lambda a, b: a - b,
    "*": lambda a, b: a * b, "/": divide,
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
}
EQUALITY = {
    "==": loose_equals,
    "!=": lambda interp, a, b: not loose_equals(interp, a, b),
    "===": strict_equals,
    "!==": lambda interp, a, b: not strict_equals(interp, a, b),
    ":==:": opaque_loose_equals,
    ":===:": opaque_strict_equals,
}
OPERATORS = ("&&", "||", *EQUALITY, *MODEL)

SETUP = ("var o = {};\n"
         "var p = new Proxy(o, {isTransparent: function(t, x) "
         "{ return true; }});\n"
         "var q = new Proxy(o, {});\n"
         "var l = %s;\n"
         "var r = %s;\n")
LINE = 6  # the left operand's line, and so the operator's


def model(interp, op, left, right):
    """The value of left op right, or the (kind, message, line) of its
    error."""
    if op == "&&":
        return right if truthy(left) else left
    if op == "||":
        return left if truthy(left) else right
    if op in EQUALITY:
        return EQUALITY[op](interp, left, right)
    if left.__class__ is float and right.__class__ is float:
        return MODEL[op](left, right)
    if op == "+" and (left.__class__ is str or right.__class__ is str):
        if isinstance(left, HeapObject) or isinstance(right, HeapObject):
            return ("TypeError", "cannot concatenate an object with a string",
                    LINE)
        return render_value(left) + render_value(right)
    if op in ("<", "<=", ">", ">=") and left.__class__ is str \
            and right.__class__ is str:
        return MODEL[op](left, right)
    bad = right if left.__class__ is float else left
    return ("TypeError", f"'{op}' needs numbers, not {kind_of(bad)}", LINE)


def same(a, b) -> bool:
    """Whether a and b are one value: NaN is NaN, -0 is not 0, and an
    object is itself."""
    if a.__class__ is not b.__class__:
        return False
    if a.__class__ is float:
        return (a != a and b != b) or (
            a == b and math.copysign(1.0, a) == math.copysign(1.0, b))
    return a is b if isinstance(a, HeapObject) else a == b


operand = st.one_of(st.sampled_from(NUMBERS), st.sampled_from(OTHERS))


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=300, deadline=None)
@given(op=st.sampled_from(OPERATORS), left=operand, left_literal=st.booleans(),
       right=operand, right_form=st.sampled_from(("literal", "r", *NESTED)))
@example(op="!==", left=("7", "7"), left_literal=False, right=("2.5", "2.5"),
         right_form="literal")
@example(op="-", left=("7", "7"), left_literal=True, right=('"12"', '"12"'),
         right_form="r")
def test_operators_match_the_model(mode, op, left, left_literal, right,
                                   right_form):
    left_expr = left[1] if left_literal and left[1] else "l"
    right_expr = right_form
    if right_form == "literal":
        right_expr = right[1] or "r"
    source = (SETUP % (left[0], right[0])
              + f"{left_expr}\n  {op} {right_expr};\n")
    interp = Interpreter(mode=mode)
    result = evaluate_program(parse_source(source), interp)
    expected = model(interp, op, interp.globals["l"], interp.globals["r"])
    if type(expected) is tuple:
        assert not result.ok, source
        assert (result.error_kind, result.error_message, result.error_line) \
            == expected, source
        return
    assert result.ok, (source, result.error_message)
    assert same(result.value, expected), (source, result.value, expected)

