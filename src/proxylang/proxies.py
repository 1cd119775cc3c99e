"""Proxy objects: trap dispatch, revocation, and transparency resolution.

A proxy pairs a target object with a handler object. The operations a
program reaches, get, set and call, first consult the handler for a trap
(get, set or apply); if the handler has one it is invoked with the
target, the operation's arguments, and the proxy itself, and its result
stands in for the operation. Absent traps forward to the target
unchanged. The host's has, delete and own_keys read no handler: they act
on the ordinary object at the end of the chain. A revoked proxy answers
every operation with RevokedProxyError, but equality never raises: for
resolution purposes a revoked proxy is simply its own endpoint.

Traps are looked up afresh at every operation, link by link along a
chain of proxies, and nothing is kept from one walk to the next. A link
whose handler is an ordinary object has its trap read straight from the
handler's properties; a missing, undefined or null trap passes the link
with no host frame, and with it the links directly below with the same
handler, so a run of such links costs one dictionary read. A present
trap, a revoked link and a handler that is itself a proxy (whose lookup
runs user code) go through ProxyObject._trap, which raises for a revoked
link or a trap that is not callable, and which is where a tracer counts
the traps found.

A proxy's target is fixed at construction, and so is its handler until
revoke() drops it for good: as in ECMAScript, a proxy is revoked exactly
when its handler is None. So the endpoint of an unconditional look-through
walk (transparent mode, Proxy.isEqual, Proxy.isIdentical) can change only
when some proxy is revoked. A trap-mode walk whose every vote was static
(rule 3) can change only then too, or when a handler's isTransparent is
written or deleted. Such an end is memoised, stamped with
objects.walk_epoch, the process-wide count of those events, and stands
while the count is unchanged: an unconditional walk's on the proxy it
started from (endpoint), a trap-mode walk's on every link it asked
(voted). equality.py reads these memos inline (see look_through and
get_equality_object). Only on an object marked as a handler
(OrdinaryObject.handles) does an isTransparent write raise the count. A
vote that is not static is asked at every decision. The count is a plain
global, so interpreters that share objects must stay on one thread.

Transparency is the proxy's answer to "may equality look through you".
It is decided in this order:

1. the innermost dynamic override installed by with_transparency, if
   any entry on the override stack names this proxy; a memoised
   trap-mode path holds for each link on it that no override names;
2. revoked proxies are never transparent;
3. a callable isTransparent trap on the handler, invoked with
   (target, proxy) and coerced to a boolean. While it is looked up and
   runs, the proxy is overridden opaque, so the trap can compare its own
   proxy without asking itself again. A language error from the lookup or
   the trap, or the proxy revoked by its own trap, is an opaque vote (a
   host RecursionError or MemoryError is not caught). A vote is static
   when it runs no code: the vote of a revoked link, of an ordinary
   handler whose isTransparent is missing, undefined or null, and of an
   ordinary handler whose trap is a function whose node has a constant
   (its body is one `return true;` or `return false;`, see nodes.py),
   below MAX_CALL_DEPTH. Such a trap is not invoked: the vote is its
   constant, which the call would return and nothing could observe, and
   it is not charged as a call. At the depth limit it is invoked,
   overflows and votes opaque, as any trap. Only revoke() or a write or
   delete of the handler's isTransparent can change a static vote.
   is_transparent alone tells a vote static, and counts every other vote
   in interp.votes_run;
4. otherwise false.
"""

from . import objects
from .errors import (MAX_CALL_DEPTH, LangTypeError, PlxRuntimeError,
                     RevokedProxyError)
from .objects import (NULL, UNDEFINED, FunctionRecord, HeapObject,
                      OrdinaryObject, format_number, kind_of, truthy)


# the memo of a proxy no walk has memoised: no count matches it
_NO_ENDPOINT = (-1, None)


class ProxyObject(HeapObject):
    """A target and a handler, fixed at construction but for revoke(),
    which sets the handler to None for good. ``endpoint`` is (walk_epoch,
    end): the end of the last unconditional look-through walk started from
    this proxy, and the count it was taken at. ``voted`` is the same for
    the last trap-mode walk through static votes only that asked this
    proxy. It marks its handler."""
    __slots__ = ("target", "handler", "endpoint", "voted")

    def __init__(self, target: HeapObject, handler: HeapObject):
        self.target = target
        self.handler = handler
        self.endpoint = self.voted = _NO_ENDPOINT
        if handler.__class__ is OrdinaryObject:
            handler.handles = True

    # --- internal operations ---

    def get(self, interp, key):
        link, handler, trap = self._forward(interp, "get")
        if trap is None:
            return link.get(interp, key)
        return interp.invoke(trap, handler, [link.target, key, link])

    def set(self, interp, key, value):
        link, handler, trap = self._forward(interp, "set")
        if trap is None:
            link.set(interp, key, value)
            return
        # the trap's return value carries no meaning
        interp.invoke(trap, handler, [link.target, key, value, link])

    def has(self, interp, key):
        return self._end("has").has(interp, key)

    def delete(self, interp, key):
        return self._end("deleteProperty").delete(interp, key)

    def own_keys(self, interp):
        return self._end("ownKeys").own_keys(interp)

    def call(self, interp, this_value, args):
        link, handler, trap = self._forward(interp, "apply")
        if trap is None:
            return interp.invoke(link, this_value, args)
        args_obj = pack_args_object(interp, args)
        return interp.invoke(
            trap, handler, [link.target, this_value, args_obj, link])

    # --- trap lookup ---

    def _forward(self, interp, name: str):
        """Give the first link of the chain whose handler has a trap for
        name, with that handler, read before the trap as ECMAScript reads
        it (the lookup may revoke the link), and the trap; or the ordinary
        object at the end, with None for both. Trap-less links are passed
        in a loop, so a forwarding chain of any depth costs no host stack.
        A link with an ordinary handler is read inline, and passed when its
        trap is missing, undefined or null, with every link directly below
        it that has the same handler (a revoked link has None): no code
        runs between them, so the inner loop reads no dict. _trap is
        entered only for a present trap, a revoked link or a handler that
        is not ordinary, so it still validates (and a tracer counts) every
        trap found; no run crosses it, as a proxy handler's lookup runs
        code, which may give a passed handler a trap. Links are asked in
        order and nothing is kept between walks, so a revoked or badly
        trapped link raises where the operation reaches it, and a handler
        changed by an earlier link's trap is read as it now is."""
        link = self
        while link.__class__ is ProxyObject:
            handler = link.handler
            if handler.__class__ is not OrdinaryObject:
                trap = link._trap(interp, name)
                if trap is not None:
                    return link, handler, trap
                link = link.target
            else:
                trap = handler.properties.get(name, UNDEFINED)
                if trap is not UNDEFINED and trap is not NULL:
                    return link, handler, link._trap(interp, name)
                link = link.target
                while link.handler is handler:
                    link = link.target
        return link, None, None

    def _trap(self, interp, name: str):
        """The handler's trap for name, None if it has none. An ordinary
        handler's is read from its properties, which is what its get gives,
        and an ordinary object with a function is callable without a call
        of is_callable; a proxy handler or a proxy trap is asked in full."""
        handler = self.handler
        if handler is None:
            raise RevokedProxyError(f"'{name}' on a revoked proxy")
        if handler.__class__ is OrdinaryObject:
            trap = handler.properties.get(name, UNDEFINED)
        else:
            trap = handler.get(interp, name)
        if trap is UNDEFINED or trap is NULL:
            return None
        if (trap.__class__ is not OrdinaryObject or trap.function is None) \
                and not is_callable(trap):
            raise LangTypeError(f"trap '{name}' is not callable")
        return trap

    def _end(self, name: str):
        """The ordinary object at the end of the chain, for a host
        operation (has, delete, own_keys) that no trap answers: no handler
        is read, and a revoked link raises as _trap would for name."""
        link = self
        while link.__class__ is ProxyObject:
            if link.handler is None:
                raise RevokedProxyError(f"'{name}' on a revoked proxy")
            link = link.target
        return link


def is_callable(value) -> bool:
    """Whether value can be called: a function object, or a proxy whose
    chain of targets ends at one."""
    while value.__class__ is ProxyObject:
        value = value.target
    return isinstance(value, OrdinaryObject) and value.function is not None


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
    """Drop a proxy's handler for good, as ECMAScript revokes a proxy; a
    second revoke is a no-op. The first stales every walk memo."""
    if not isinstance(value, ProxyObject):
        if isinstance(value, HeapObject):
            raise LangTypeError(
                "cannot revoke an object that is not a proxy")
        raise LangTypeError(f"cannot revoke a {kind_of(value)}")
    if value.handler is not None:
        value.handler = None
        objects.walk_epoch += 1


def is_transparent(interp, proxy: ProxyObject) -> bool:
    """Decide whether equality may look through the proxy (rules 1-4).

    Trap mode runs this once per link of every walk that is not answered
    from a memo (get_equality_object). A static vote (rule 3) is answered
    inline: a revoked proxy's handler is None, and an ordinary handler's
    trap is read straight from its properties, as _forward reads one, with
    no override pushed, no argument list built and no Interpreter.invoke
    made. Every other vote adds one to interp.votes_run and runs under the
    override: a handler that is a proxy is asked by its get, a callable
    trap is run by one invoke, and every answer is coerced with truthy."""
    override_stack = interp.override_stack
    if override_stack:
        for overridden, flag in reversed(override_stack):
            if overridden is proxy:
                return flag
    handler = proxy.handler
    if handler is None:
        return False
    if handler.__class__ is OrdinaryObject:
        trap = handler.properties.get("isTransparent", UNDEFINED)
        if trap.__class__ is OrdinaryObject:
            function = trap.function
            if function.__class__ is FunctionRecord \
                    and function.node.constant is not None \
                    and interp.depth < MAX_CALL_DEPTH:
                return function.node.constant
        elif trap is UNDEFINED or trap is NULL:
            return False
    interp.votes_run += 1
    override_stack.append((proxy, False))
    try:
        if handler.__class__ is not OrdinaryObject:
            trap = handler.get(interp, "isTransparent")
        if trap.__class__ is OrdinaryObject and trap.function is not None \
                or is_callable(trap):
            answer = interp.invoke(trap, handler, [proxy.target, proxy])
        else:
            answer = False
        if answer.__class__ is not bool:
            answer = truthy(answer)
    except PlxRuntimeError:
        return False
    finally:
        override_stack.pop()
    return answer and proxy.handler is not None


def look_through(interp, value):
    """The end of an unconditional walk from value, the first non-proxy
    or revoked proxy, read from value's endpoint memo while its count is
    current; equality.py reads that memo itself, and calls this on a miss.
    interp is unused: every resolver is called alike."""
    if value.__class__ is not ProxyObject or value.handler is None:
        return value
    count, end = value.endpoint
    if count == objects.walk_epoch:
        return end
    end = value.target
    while end.__class__ is ProxyObject and end.handler is not None:
        end = end.target
    value.endpoint = (objects.walk_epoch, end)
    return end


def get_equality_object(interp, value):
    """Follow transparent proxies to the value equality should compare.

    Stops at the first non-proxy, at any proxy that answers opaque, and
    at revoked proxies. Proxy chains are acyclic because targets are
    fixed at construction, so the walk terminates.

    Below MAX_CALL_DEPTH a link whose ``voted`` memo is current ends the
    walk at the memo's end, and other links are asked through
    is_transparent. A walk whose every vote was static (interp.votes_run
    did not move) stores one (walk_epoch, end) on each link it asked, the
    last included (path compression), unless an override is on the stack.
    Under overrides a memoised path is followed by target to its end, or
    to the first link an override names, whose override is applied, and
    the walk goes on. No memo is read or written at the depth limit.
    """
    if value.__class__ is not ProxyObject:
        return value
    below = interp.depth < MAX_CALL_DEPTH
    if interp.override_stack or not below:
        overrides = dict(interp.override_stack)  # the innermost wins
        while value.__class__ is ProxyObject:
            count, end = value.voted
            if count == objects.walk_epoch and below:
                while value is not end and value not in overrides:
                    value = value.target
                if not overrides.get(value, False):  # the end, or opaque
                    return value
            elif not is_transparent(interp, value):
                return value
            value = value.target
        return value
    votes_run = interp.votes_run
    asked = []
    while value.__class__ is ProxyObject:
        count, end = value.voted
        if count == objects.walk_epoch:
            value = end
            break
        asked.append(value)
        if not is_transparent(interp, value):
            break
        value = value.target
    if interp.votes_run == votes_run:
        memo = (objects.walk_epoch, value)
        for link in asked:
            link.voted = memo
    return value


def with_transparency(interp, proxy, flag, thunk):
    """Run thunk with the proxy's transparency pinned to flag.

    Only is_transparent reads overrides, so only the trap-mode resolver
    (get_equality_object) sees one: opaque mode resolves no proxy, and
    transparent mode's look_through follows every unrevoked one. The
    override holds for the dynamic extent of the call, nests
    innermost-wins, and is removed when the thunk finishes, whether it
    returns or raises.
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
        return interp.invoke(thunk, UNDEFINED, [])
    finally:
        interp.override_stack.pop()


# --- argument packing for apply traps ---

def pack_args_object(interp, args) -> HeapObject:
    """Box a positional argument list as {"0": v0, ..., "length": n}."""
    # a loop, not a dict comprehension, which on Python 3.11 runs in a host
    # frame of its own; membranes and contracts pack every apply
    props = {}
    for i, value in enumerate(args):
        props[str(i)] = value
    props["length"] = float(len(args))
    return interp.heap.alloc(OrdinaryObject(props))


# the longest list unpack_args_object builds. It reads one entry per index
# below 'length', whatever the object holds, so a one-property
# {length: 1e9} would ask for a billion. The arguments objects that the
# prelude's apply traps hand to Reflect.apply copy a call's arguments,
# written out in its source, so they are far shorter. 65,536 entries are
# half a megabyte of references, read in tens of milliseconds.
MAX_ARGS_LENGTH = 65536


def unpack_args_object(interp, value) -> list:
    """Read {"0".."length"} back into a positional list."""
    if not isinstance(value, HeapObject):
        raise LangTypeError(
            f"an arguments object is required, not {kind_of(value)}")
    length = value.get(interp, "length")
    # the bound is checked before int(), which raises for an infinity
    if not isinstance(length, float) or not 0 <= length <= MAX_ARGS_LENGTH \
            or length != int(length):
        raise LangTypeError(
            "'length' of an arguments object must be an integer "
            f"from 0 to {MAX_ARGS_LENGTH}")
    return [value.get(interp, format_number(float(i)))
            for i in range(int(length))]
