"""Proxy objects: trap dispatch, revocation, and transparency resolution.

A proxy pairs a target object with a handler object. Every internal
operation on the proxy first consults the handler for a trap function of
the same name; if the handler has one it is invoked with the target, the
operation's arguments, and the proxy itself, and its result stands in
for the operation. Absent traps forward to the target unchanged. A
revoked proxy answers every trapped operation with RevokedProxyError,
but equality never raises: for resolution purposes a revoked proxy is
simply its own endpoint.

Transparency is the proxy's answer to "may equality look through you".
It is decided in this order:

1. the innermost dynamic override installed by with_transparency, if
   any entry on the override stack names this proxy;
2. revoked proxies are never transparent;
3. a callable isTransparent trap on the handler, invoked with
   (target, proxy) and coerced to a boolean;
4. otherwise false.
"""

from .errors import LangTypeError, RevokedProxyError
from .objects import (NULL, UNDEFINED, HeapObject, format_number,
                      internal_call, internal_delete, internal_get,
                      internal_has, internal_own_keys, internal_set,
                      is_callable, kind_of, truthy)


class ProxyObject(HeapObject):
    __slots__ = ("target", "handler", "revoked")

    def __init__(self, target: HeapObject, handler: HeapObject):
        self.target = target
        self.handler = handler
        self.revoked = False

    # --- internal operations ---

    def get(self, interp, key, receiver):
        trap = self._trap(interp, "get")
        if trap is None:
            return internal_get(interp, self.target, key, receiver)
        return interp.call_value(trap, self.handler,
                                 [self.target, key, self])

    def set(self, interp, key, value, receiver):
        trap = self._trap(interp, "set")
        if trap is None:
            internal_set(interp, self.target, key, value, receiver)
            return
        # the trap's return value carries no meaning
        interp.call_value(trap, self.handler,
                          [self.target, key, value, self])

    def has(self, interp, key):
        trap = self._trap(interp, "has")
        if trap is None:
            return internal_has(interp, self.target, key)
        return truthy(interp.call_value(trap, self.handler,
                                        [self.target, key, self]))

    def delete(self, interp, key):
        trap = self._trap(interp, "deleteProperty")
        if trap is None:
            return internal_delete(interp, self.target, key)
        return truthy(interp.call_value(trap, self.handler,
                                        [self.target, key, self]))

    def own_keys(self, interp):
        trap = self._trap(interp, "ownKeys")
        if trap is None:
            return internal_own_keys(interp, self.target)
        result = interp.call_value(trap, self.handler,
                                   [self.target, self])
        return unpack_key_object(interp, result)

    def call(self, interp, this_value, args):
        trap = self._trap(interp, "apply")
        if trap is None:
            return internal_call(interp, self.target, this_value, args)
        args_obj = pack_args_object(interp, args)
        return interp.call_value(
            trap, self.handler, [self.target, this_value, args_obj, self])

    def is_callable_obj(self) -> bool:
        return self.target.is_callable_obj()

    # --- trap lookup ---

    def _trap(self, interp, name: str):
        if self.revoked:
            raise RevokedProxyError(f"'{name}' on a revoked proxy")
        trap = internal_get(interp, self.handler, name, self.handler)
        if trap is UNDEFINED or trap is NULL:
            return None
        if not is_callable(trap):
            raise LangTypeError(f"trap '{name}' is not callable")
        return trap


def proxy_create(interp, target, handler) -> ProxyObject:
    """Allocate a proxy; target and handler must both be objects."""
    if not isinstance(target, HeapObject):
        raise LangTypeError(
            f"proxy target must be an object, not {kind_of(target)}")
    if not isinstance(handler, HeapObject):
        raise LangTypeError(
            f"proxy handler must be an object, not {kind_of(handler)}")
    return interp.heap.alloc(ProxyObject(target, handler))


def revoke(interp, value) -> None:
    """Permanently disable a proxy's traps. Revoking twice is a no-op."""
    if not isinstance(value, ProxyObject):
        if isinstance(value, HeapObject):
            raise LangTypeError(
                "cannot revoke an object that is not a proxy")
        raise LangTypeError(f"cannot revoke a {kind_of(value)}")
    value.revoked = True


def is_transparent(interp, proxy: ProxyObject) -> bool:
    """Decide whether equality may look through the proxy (rules 1-4)."""
    for overridden, flag in reversed(interp.override_stack):
        if overridden is proxy:
            return flag
    if proxy.revoked:
        return False
    trap = internal_get(interp, proxy.handler, "isTransparent", proxy.handler)
    if not is_callable(trap):
        return False
    result = interp.call_value(trap, proxy.handler, [proxy.target, proxy])
    return truthy(result)


def get_equality_object(interp, value):
    """Follow transparent proxies to the value equality should compare.

    Stops at the first non-proxy, at any proxy that answers opaque, and
    at revoked proxies. Proxy chains are acyclic because targets are
    fixed at construction, so the walk terminates.
    """
    while isinstance(value, ProxyObject) and is_transparent(interp, value):
        value = value.target
    return value


def with_transparency(interp, proxy, flag, thunk):
    """Run thunk with the proxy's transparency pinned to flag.

    The override is visible to every equality decision in the dynamic
    extent of the call, nests innermost-wins, and is removed when the
    thunk finishes, whether it returns or raises.
    """
    if not isinstance(proxy, ProxyObject):
        raise LangTypeError("transparency overrides require a proxy")
    if not isinstance(flag, bool):
        raise LangTypeError(
            f"transparency must be a boolean, not {kind_of(flag)}")
    if not is_callable(thunk):
        raise LangTypeError("the body of a transparency override "
                            "must be callable")
    interp.override_stack.append((proxy, flag))
    try:
        return interp.call_value(thunk, UNDEFINED, [])
    finally:
        interp.override_stack.pop()


# --- argument packing for apply and ownKeys traps ---

def pack_args_object(interp, args) -> HeapObject:
    """Box a positional argument list as {"0": v0, ..., "length": n}."""
    props = {str(i): v for i, v in enumerate(args)}
    props["length"] = float(len(args))
    return interp.heap.alloc_object(props)


def unpack_args_object(interp, value) -> list:
    """Read {"0".."length"} back into a positional list."""
    if not isinstance(value, HeapObject):
        raise LangTypeError(
            f"an arguments object is required, not {kind_of(value)}")
    length = internal_get(interp, value, "length", value)
    if not isinstance(length, float) or length != length \
            or length < 0 or length != int(length):
        raise LangTypeError(
            "'length' of an arguments object must be a non-negative integer")
    return [internal_get(interp, value, format_number(float(i)), value)
            for i in range(int(length))]


def unpack_key_object(interp, value) -> list:
    """Like unpack_args_object, but every element must be a string."""
    keys = unpack_args_object(interp, value)
    for key in keys:
        if not isinstance(key, str):
            raise LangTypeError(
                f"property keys must be strings, not {kind_of(key)}")
    return keys
