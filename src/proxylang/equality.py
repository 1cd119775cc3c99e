"""Equality semantics, configurable per interpreter.

Three modes decide how proxies compare:

* opaque: a proxy is a distinct object; == and === use reference
  identity on objects, so a proxy never equals its target.
* transparent: == and === resolve every proxy (revoked ones excepted)
  to the innermost non-proxy before comparing, unconditionally.
* trap: each proxy votes via its isTransparent trap; == and === follow
  a proxy only while it answers true, stopping at the first opaque or
  revoked link.

EqualityMode("operators") is transparent: the name stays accepted.
Each Interpreter picks its mode's resolver once (interp.resolve), and no
comparison takes a mode. :==: and :===: never resolve; Proxy.isEqual and
Proxy.isIdentical always resolve with proxies.look_through.

Primitive comparisons are unaffected by the mode. Raw identity, ===
after resolution, is a.__class__ is b.__class__ and a == b, evaluated in
each comparison's own frame: a bool is no number, NaN is unequal to
itself, 0 equals -0, and objects, null and undefined compare by identity
(object.__eq__). == answers two operands of one class alike and else
coerces: null equals undefined, booleans compare as 0/1, and a number
meets a string by converting the string to a number. Objects never
coerce: an object compared to a primitive with == is simply unequal.

Only a proxy operand of == or === is ever resolved: every resolver
gives a non-proxy back as it is, so a primitive or an ordinary object is
compared without a resolution step. The memo a proxy operand's
resolver would read (proxies.py) is read inline, and the resolver called
only on a miss: endpoint for look_through and Proxy.isIdentical, voted
for get_equality_object with no override on the stack, below
MAX_CALL_DEPTH. Any other resolver, a host's, is called for every proxy.
"""

import math
import re
from enum import Enum

from . import objects
from .errors import MAX_CALL_DEPTH
from .objects import NULL, UNDEFINED, HeapObject
from .proxies import ProxyObject, get_equality_object, look_through


class EqualityMode(Enum):
    OPAQUE = "opaque"
    TRANSPARENT = "transparent"
    TRAP = "trap"

    @classmethod
    def _missing_(cls, value):
        return cls.TRANSPARENT if value == "operators" else None


def raw_identical(a, b) -> bool:
    """Raw identity, the expression each comparison inlines: identity on
    objects, same-class == otherwise (NaN != NaN, 0.0 == -0.0)."""
    return a.__class__ is b.__class__ and a == b


def strict_equals(interp, a, b) -> bool:
    # only a proxy is resolved, by the interpreter's resolver (None in
    # opaque mode) or from the memo it would read (module docstring); a
    # before b, as trap-mode votes run code, which may raise the count
    resolve = interp.resolve
    if resolve is look_through or resolve is get_equality_object \
            and not interp.override_stack and interp.depth < MAX_CALL_DEPTH:
        if a.__class__ is ProxyObject:
            count, end = a.endpoint if resolve is look_through else a.voted
            a = end if count == objects.walk_epoch else resolve(interp, a)
        if b.__class__ is ProxyObject:
            count, end = b.endpoint if resolve is look_through else b.voted
            b = end if count == objects.walk_epoch else resolve(interp, b)
    elif resolve is not None:
        a = resolve(interp, a) if a.__class__ is ProxyObject else a
        b = resolve(interp, b) if b.__class__ is ProxyObject else b
    return a.__class__ is b.__class__ and a == b


def loose_equals(interp, a, b) -> bool:
    resolve = interp.resolve
    if resolve is look_through or resolve is get_equality_object \
            and not interp.override_stack and interp.depth < MAX_CALL_DEPTH:
        if a.__class__ is ProxyObject:
            count, end = a.endpoint if resolve is look_through else a.voted
            a = end if count == objects.walk_epoch else resolve(interp, a)
        if b.__class__ is ProxyObject:
            count, end = b.endpoint if resolve is look_through else b.voted
            b = end if count == objects.walk_epoch else resolve(interp, b)
    elif resolve is not None:
        a = resolve(interp, a) if a.__class__ is ProxyObject else a
        b = resolve(interp, b) if b.__class__ is ProxyObject else b
    if a.__class__ is b.__class__:
        return a == b  # raw identity, before any coercion rule
    if isinstance(a, HeapObject) or isinstance(b, HeapObject):
        return False  # objects never coerce
    return primitive_loose_equals(a, b)


def opaque_strict_equals(interp, a, b) -> bool:
    """The :===: operator: never resolves."""
    return a.__class__ is b.__class__ and a == b


def opaque_loose_equals(interp, a, b) -> bool:
    """The :==: operator: never resolves, still coerces primitives."""
    if a.__class__ is b.__class__:
        return a == b  # raw identity, before any coercion rule
    if isinstance(a, HeapObject) or isinstance(b, HeapObject):
        return False  # objects never coerce
    return primitive_loose_equals(a, b)


def builtin_is_identical(interp, a, b) -> bool:
    """Proxy.isIdentical: === through every proxy, in any mode."""
    if a.__class__ is ProxyObject:
        count, end = a.endpoint
        a = end if count == objects.walk_epoch else look_through(interp, a)
    if b.__class__ is ProxyObject:
        count, end = b.endpoint
        b = end if count == objects.walk_epoch else look_through(interp, b)
    return a.__class__ is b.__class__ and a == b


def builtin_is_equal(interp, a, b) -> bool:
    """Proxy.isEqual: == through every proxy, in any mode."""
    return opaque_loose_equals(interp, look_through(interp, a),
                               look_through(interp, b))


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
    """Numeric value of a string: '' is 0, garbage is NaN. The three
    patterns match disjoint texts, so the decimal one, the common case,
    is tried first."""
    body = text.strip(_WS)
    if body == "":
        return 0.0
    if _DECIMAL.fullmatch(body):
        return float(body)
    if _HEX.fullmatch(body):
        return float(int(body, 16))
    if _INFINITY.fullmatch(body):
        return -math.inf if body.startswith("-") else math.inf
    return math.nan
