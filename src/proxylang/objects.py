"""Value domain, ordinary objects, the allocation counter and the binary
operators on two numbers.

Values are floats (all numbers), bools, strings, the null and undefined
singletons, and objects. An object is its own reference: raw identity is
Python identity, and the host frees an object once nothing reaches it, by
reference counting or, in a cycle, by its cyclic collector (see
interpreter.run_source). The heap only counts allocations. Property
tables are string keyed and insertion ordered. Numbers used as property
keys are converted to their printed decimal form, so obj[0] and obj["0"]
address the same slot; every other non-string key is a type error.
"""

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import LangTypeError


class Null:
    __slots__ = ()

    def __repr__(self):
        return "null"


class Undefined:
    __slots__ = ()

    def __repr__(self):
        return "undefined"


NULL = Null()
UNDEFINED = Undefined()

# how many events in this process could have moved the end of a proxy
# walk: a revocation (proxies.revoke) or a write or delete of a handler's
# isTransparent. A walk memo stamped with an older count may be stale
walk_epoch = 0


@dataclass(slots=True)
class FunctionRecord:
    """A function defined in the language: the FunctionExpr it is made
    from (a declaration's too), whose params, body, scoped and constant
    flags a call reads (see nodes.py), and its closure scope. A node a
    host builds has scoped True and constant None, so its record binds."""
    node: object  # FunctionExpr
    env: object   # Environment


@dataclass(slots=True)
class NativeFunction:
    """A function implemented in Python: fn(interp, this_value, args)."""
    name: str
    fn: Callable


class HeapObject:
    """Base of every language object, ordinary or proxy. Subclasses keep
    Python's identity equality and hashing: an object is its own
    reference."""
    __slots__ = ()


class OrdinaryObject(HeapObject):
    __slots__ = ("properties", "function", "handles")
    # it is no proxy, but ProxyObject._forward reads a link target's handler
    handler = None

    def __init__(self, properties=None, function=None):
        # the dict given is kept, not copied
        self.properties: dict = {} if properties is None else properties
        self.function = function  # FunctionRecord | NativeFunction | None
        self.handles = False  # set for good by a proxy it is handler of

    def get(self, interp, key):
        return self.properties.get(key, UNDEFINED)

    def set(self, interp, key, value):
        """Write a property. Writing or deleting isTransparent on a handler
        (``handles``) may change its vote, so it raises walk_epoch: a host
        that writes its properties dict directly stales no walk memo."""
        global walk_epoch
        if key == "isTransparent" and self.handles:
            walk_epoch += 1
        self.properties[key] = value

    def has(self, interp, key):
        return key in self.properties

    def delete(self, interp, key):
        global walk_epoch
        if key in self.properties:
            if key == "isTransparent" and self.handles:
                walk_epoch += 1
            del self.properties[key]
            return True
        return False

    def own_keys(self, interp):
        return list(self.properties)

    def call(self, interp, this_value, args):
        return interp.call_value(self, this_value, args)


class Heap:
    """Allocation counter: len(heap) is the number of objects allocated."""
    __slots__ = ("_allocated",)

    def __init__(self):
        self._allocated = 0

    def alloc(self, obj: HeapObject) -> HeapObject:
        self._allocated += 1
        return obj

    def alloc_object(self, props: Iterable = ()) -> OrdinaryObject:
        """Allocate an object with a copy of props (a mapping or pairs)."""
        return self.alloc(OrdinaryObject(dict(props)))

    def __len__(self):
        return self._allocated


# --- value helpers ---

_KINDS = {float: "number", str: "string", bool: "boolean", Null: "null",
          Undefined: "undefined", OrdinaryObject: "object"}


def kind_of(value) -> str:
    kind = _KINDS.get(value.__class__)
    if kind is None and not isinstance(value, HeapObject):
        raise TypeError(f"not a language value: {value!r}")
    return kind or "object"


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
    """A number's text, as ECMAScript's Number::toString gives it. Below
    2**53 in magnitude, the common case tested first (NaN fails the
    bound), an integral one is its integer, and another from 1e-4 up is
    its repr, which the spec agrees with. Any other finite one places
    repr's shortest digits by the spec's cases: written out to 21 digits
    before the point or 6 zeros after it, with an unpadded exponent beyond."""
    if -2.0 ** 53 < value < 2.0 ** 53:
        whole = int(value)
        if whole == value:
            return str(whole)
        if not -1e-4 < value < 1e-4:
            return repr(value)
    elif value != value:
        return "NaN"
    elif value == math.inf:
        return "Infinity"
    elif value == -math.inf:
        return "-Infinity"
    if value < 0:
        return "-" + format_number(-value)
    mantissa, _, exponent = repr(value).partition("e")
    integral, _, fraction = mantissa.partition(".")
    digits = (integral + fraction).lstrip("0")
    # the value is 0.digits times 10 to the point
    point = int(exponent or 0) + len(digits) - len(fraction)
    digits = digits.rstrip("0")
    # only an integer from 2**53 up or a number under 1e-4 is left, so the
    # point never falls between two digits
    if len(digits) <= point <= 21:
        return digits + "0" * (point - len(digits))
    if -6 < point <= 0:
        return "0." + "0" * -point + digits
    if len(digits) > 1:
        digits = digits[0] + "." + digits[1:]
    return f"{digits}e{point - 1:+d}"


def render_value(value) -> str:
    """Printed form: numbers in decimal, objects as an opaque tag. A
    string, a number and a bool, the common values, are tested first."""
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return format_number(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is NULL:
        return "null"
    if value is UNDEFINED:
        return "undefined"
    if isinstance(value, HeapObject):
        return "[object]"
    raise TypeError(f"not a language value: {value!r}")


def divide(left: float, right: float) -> float:
    """left / right on two numbers, IEEE style: a nonzero number over a
    zero is an infinity of the quotient's sign, and 0 / 0 is NaN."""
    if right == 0.0:
        if left != left or left == 0.0:
            return math.nan
        sign = math.copysign(1.0, left) * math.copysign(1.0, right)
        return math.inf * sign
    return left / right


# each binary operator on two numbers: the six equality operators are ==
# or != on them in every mode, so NaN is unequal to itself and 0 equals
# -0; && and || have None, as they pick an operand instead
NUMBER_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                    "/": divide, "<": operator.lt, "<=": operator.le,
                    ">": operator.gt, ">=": operator.ge,
                    "==": operator.eq, "===": operator.eq,
                    ":==:": operator.eq, ":===:": operator.eq,
                    "!=": operator.ne, "!==": operator.ne,
                    "&&": None, "||": None}


def to_property_key(value) -> str:
    # a float first: the evaluator passes a string key without a call
    if isinstance(value, float):
        return format_number(value)
    if isinstance(value, str):
        return value
    raise LangTypeError(
        f"property keys must be strings or numbers, not {kind_of(value)}")
