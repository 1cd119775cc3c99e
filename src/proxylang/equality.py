"""Equality semantics, configurable per interpreter.

Four modes decide how proxies compare:

* opaque: a proxy is a distinct object; == and === use reference
  identity on objects, so a proxy never equals its target.
* transparent: == and === resolve every proxy (revoked ones excepted)
  to the innermost non-proxy before comparing, unconditionally.
* operators: == and === resolve like transparent mode, and the extra
  operators :==: and :===: compare without resolving, so programs that
  need reference identity can still ask for it.
* trap: each proxy votes via its isTransparent trap; == and === follow
  a proxy only while it answers true, stopping at the first opaque or
  revoked link.

The opaque operators :==: and :===: are available in every mode and
always compare raw references. Proxy.isEqual and Proxy.isIdentical
always resolve fully, regardless of mode.

Primitive comparisons are unaffected by the mode. === on primitives is
same-type value equality (NaN is unequal to itself, 0 equals -0); ==
additionally coerces: null equals undefined, booleans compare as 0/1,
and a number meets a string by converting the string to a number.
Objects never coerce: an object compared to a primitive with == is
simply unequal.

Only a proxy operand is ever resolved. Every mode resolves a non-proxy
to itself, so ==, ===, their negations and the opaque operators compare
a primitive or an ordinary object as it is, without a resolution step.
"""

import math
import re
from enum import Enum

from . import proxies
from .objects import NULL, UNDEFINED, HeapObject
from .proxies import ProxyObject, get_equality_object


class EqualityMode(Enum):
    OPAQUE = "opaque"
    TRANSPARENT = "transparent"
    OPERATORS = "operators"
    TRAP = "trap"


def raw_identical(a, b) -> bool:
    """Reference identity on objects, same-type value equality otherwise."""
    if isinstance(a, (HeapObject, bool)) \
            or isinstance(b, (HeapObject, bool)):
        return a is b  # objects are their own references
    if isinstance(a, float) and isinstance(b, float):
        return a == b  # NaN != NaN, 0.0 == -0.0
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    return a is b  # NULL and UNDEFINED are singletons


def resolve_for_mode(interp, value, mode: EqualityMode):
    """The object (or primitive) an equality operand stands for.

    Transparent and operators modes resolve unconditionally, pausing only
    at revoked proxies. Targets are fixed and only revoke() revokes, so
    the end of that walk changes only when the revocation count does: a
    proxy operand answers from its endpoint memo while the memo's count is
    current, and walks (and refreshes the memo) otherwise. The count is
    read through its module at every check. Trap mode asks the votes
    afresh every time."""
    if mode is EqualityMode.OPAQUE:
        return value
    if mode is EqualityMode.TRAP:
        return get_equality_object(interp, value)
    if value.__class__ is not ProxyObject or value.revoked:
        return value
    count, end = value.endpoint
    if count == proxies.revocations:
        return end
    end = value.target
    while end.__class__ is ProxyObject and not end.revoked:
        end = end.target
    value.endpoint = (proxies.revocations, end)
    return end


def strict_equals(interp, a, b, mode=None) -> bool:
    # every mode resolves a non-proxy to itself, so only a proxy is
    # resolved; a is still resolved before b, as trap-mode votes run code
    mode = interp.mode if mode is None else mode
    if a.__class__ is ProxyObject:
        a = resolve_for_mode(interp, a, mode)
    if b.__class__ is ProxyObject:
        b = resolve_for_mode(interp, b, mode)
    return raw_identical(a, b)


def loose_equals(interp, a, b, mode=None) -> bool:
    mode = interp.mode if mode is None else mode
    if a.__class__ is ProxyObject:
        a = resolve_for_mode(interp, a, mode)
    if b.__class__ is ProxyObject:
        b = resolve_for_mode(interp, b, mode)
    if isinstance(a, HeapObject) or isinstance(b, HeapObject):
        return raw_identical(a, b)  # objects never coerce
    return primitive_loose_equals(a, b)


def opaque_strict_equals(interp, a, b) -> bool:
    """The :===: operator: never resolves."""
    return strict_equals(interp, a, b, EqualityMode.OPAQUE)


def opaque_loose_equals(interp, a, b) -> bool:
    """The :==: operator: never resolves, still coerces primitives."""
    return loose_equals(interp, a, b, EqualityMode.OPAQUE)


def builtin_is_identical(interp, a, b) -> bool:
    """Proxy.isIdentical: === through every proxy, in any mode."""
    return strict_equals(interp, a, b, EqualityMode.TRANSPARENT)


def builtin_is_equal(interp, a, b) -> bool:
    """Proxy.isEqual: == through every proxy, in any mode."""
    return loose_equals(interp, a, b, EqualityMode.TRANSPARENT)


# --- primitive coercion ---

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


# ECMAScript's StrWhiteSpaceChar: white space, every Zs space and the
# line terminators
_WS = ("\t\n\v\f\r \xa0\u1680\u2028\u2029\u202f\u205f\u3000\ufeff"
       + "".join(map(chr, range(0x2000, 0x200B))))
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
_HEX = re.compile(r"0[xX][0-9a-fA-F]+")
_INFINITY = re.compile(r"[+-]?Infinity")


def string_to_number(text: str) -> float:
    """Numeric value of a string: '' is 0, garbage is NaN."""
    body = text.strip(_WS)
    if body == "":
        return 0.0
    if _HEX.fullmatch(body):
        return float(int(body, 16))
    if _INFINITY.fullmatch(body):
        return -math.inf if body.startswith("-") else math.inf
    if _DECIMAL.fullmatch(body):
        return float(body)
    return math.nan
