"""The value layer's helpers as they were before the common class was
tested first and raw identity became one expression: format_number,
to_property_key, render_value, kind_of, truthy, raw_identical and
primitive_loose_equals, each a chain of isinstance and singleton tests.
test_values.py checks the current helpers, every equality operator and
print against them. string_to_number, which did not change, is the
program's own. format_number alone has a new rule since: ECMAScript's
Number::toString, written here from the spec's steps, with the digits
and exponent read from a Decimal."""

import math
from decimal import Decimal

from proxylang.equality import string_to_number
from proxylang.errors import LangTypeError
from proxylang.objects import NULL, UNDEFINED, HeapObject


def kind_of(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, float):
        return "number"
    if isinstance(value, str):
        return "string"
    if value is NULL:
        return "null"
    if value is UNDEFINED:
        return "undefined"
    if isinstance(value, HeapObject):
        return "object"
    raise TypeError(f"not a language value: {value!r}")


def truthy(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value == value and value != 0.0
    if isinstance(value, str):
        return value != ""
    if value is NULL or value is UNDEFINED:
        return False
    return True


def format_number(value: float) -> str:
    """Number::toString: the value is s * 10 ** (n - k), s the k shortest
    digits that read back as it (repr's), placed by the spec's cases."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    if value == 0:
        return "0"
    if value < 0:
        return "-" + format_number(-value)
    _, digits, exponent = Decimal(repr(value)).normalize().as_tuple()
    s = "".join(map(str, digits))
    k = len(s)
    n = exponent + k
    if k <= n <= 21:
        return s + "0" * (n - k)
    if 0 < n <= 21:
        return s[:n] + "." + s[n:]
    if -6 < n <= 0:
        return "0." + "0" * -n + s
    e = f"e{'+' if n - 1 >= 0 else '-'}{abs(n - 1)}"
    return s + e if k == 1 else s[0] + "." + s[1:] + e


def render_value(value) -> str:
    """Printed form: numbers in decimal, objects as an opaque tag."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_number(value)
    if isinstance(value, str):
        return value
    if value is NULL:
        return "null"
    if value is UNDEFINED:
        return "undefined"
    if isinstance(value, HeapObject):
        return "[object]"
    raise TypeError(f"not a language value: {value!r}")


def to_property_key(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return format_number(value)
    raise LangTypeError(
        f"property keys must be strings or numbers, not {kind_of(value)}")


def raw_identical(a, b) -> bool:
    """Reference identity on objects, same-type value equality otherwise."""
    kind = a.__class__
    if kind is b.__class__ and (kind is float or kind is str):
        return a == b  # NaN != NaN, 0.0 == -0.0
    # objects are their own references; the bools, NULL and UNDEFINED
    # are singletons
    return a is b


def primitive_loose_equals(a, b) -> bool:
    if a.__class__ is b.__class__:
        # same-type value equality: NaN != NaN, 0.0 == -0.0, and null and
        # undefined are singletons
        return a == b
    if isinstance(a, bool):
        return primitive_loose_equals(1.0 if a else 0.0, b)
    if isinstance(b, bool):
        return primitive_loose_equals(a, 1.0 if b else 0.0)
    if (a is NULL and b is UNDEFINED) or (a is UNDEFINED and b is NULL):
        return True
    if isinstance(a, float) and isinstance(b, str):
        return a == string_to_number(b)
    if isinstance(a, str) and isinstance(b, float):
        return string_to_number(a) == b
    return False
