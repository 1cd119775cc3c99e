"""The entry points that perfbench/tracing.py replaces.

The tracer patches each of these in the namespace where the program
looks it up (``owner.__dict__[name]``). A refactor that moves or renames
one would break ``perfbench/run.py --trace 1`` without failing any other
tier-1 test, so their places are pinned here, and so is how often the
program enters the one it counts traps with. A change that compares or
calls without entering a wrapped entry point would leave the tracer's
counts short, so how often the equality functions, ``Interpreter.invoke``
and ``OrdinaryObject.get`` are entered by a fixed program is pinned too.
"""

import weakref

import pytest

import proxylang
import proxylang.interpreter as interpreter
import proxylang.objects as objects
import proxylang.parser as parser
import proxylang.proxies as proxies
import proxylang.weakmap as weakmap
from proxylang.errors import RevokedProxyError
from proxylang.objects import UNDEFINED

OPERATIONS = ("get", "set", "has", "delete", "own_keys")
EQUALITY = ("strict_equals", "loose_equals", "opaque_strict_equals",
            "opaque_loose_equals", "builtin_is_equal", "builtin_is_identical")


def test_objects_hooks():
    assert "alloc" in objects.Heap.__dict__
    for name in OPERATIONS:
        assert name in objects.OrdinaryObject.__dict__


def test_proxies_hooks():
    for name in OPERATIONS + ("call", "_trap"):
        assert name in proxies.ProxyObject.__dict__
    assert "is_transparent" in vars(proxies)


def test_interpreter_hooks():
    names = ("proxy_create", "revoke", "with_transparency",
             "evaluate_program") + EQUALITY
    for name in names:
        assert name in vars(interpreter)
    for name in ("__init__", "invoke"):
        assert name in interpreter.Interpreter.__dict__
    assert "evaluate_program" in vars(proxylang)


def test_parser_and_weakmap_hooks():
    for name in ("tokenize", "parse"):
        assert name in vars(parser)
    for name in ("idmap_set", "idmap_get", "idmap_has", "idmap_delete"):
        assert name in vars(weakmap)


def test_heap_length_counts_allocations():
    interp = interpreter.Interpreter()
    allocated = len(interp.heap)
    assert isinstance(allocated, int)
    interp.heap.alloc_object()
    assert len(interp.heap) == allocated + 1


def test_programs_take_weak_references():
    # the tracer keeps prelude programs by weak reference
    program = parser.parse_source("var x = 1;")
    assert weakref.ref(program)() is program


def count_trap_entries(monkeypatch):
    """Wrap ProxyObject._trap; give the (entered, found) counts."""
    counts = {"entered": 0, "found": 0}
    find_trap = proxies.ProxyObject._trap

    def trap(proxy, interp, name):
        counts["entered"] += 1
        found = find_trap(proxy, interp, name)
        if found is not None:
            counts["found"] += 1
        return found
    monkeypatch.setattr(proxies.ProxyObject, "_trap", trap)
    return counts


def trap_chain(interp, depth, trap_at, revoked_at=None, meta_at=None):
    """A chain of depth links over {x: 1}, link 0 outermost: a get trap at
    trap_at, a revoked link at revoked_at and, at meta_at, a handler that
    is a proxy whose own get trap answers undefined."""
    answer = interp.alloc_native("get", lambda itp, this, args: "trapped")
    nothing = interp.alloc_native("get", lambda itp, this, args: UNDEFINED)
    link = interp.heap.alloc_object({"x": 1.0})
    links = []
    for i in reversed(range(depth)):
        if i == meta_at:
            handler = proxies.proxy_create(
                interp, interp.heap.alloc_object(),
                interp.heap.alloc_object({"get": nothing}))
        else:
            handler = interp.heap.alloc_object(
                {"get": answer} if i == trap_at else {})
        link = proxies.proxy_create(interp, link, handler)
        links.append(link)
    if revoked_at is not None:
        proxies.revoke(interp, links[depth - 1 - revoked_at])
    return link


@pytest.mark.parametrize("trap_at", [0, 4, 9])
@pytest.mark.parametrize("revoked_at,meta_at",
                         [(None, None), (2, None), (7, None), (None, 2),
                          (None, 7)])
def test_trap_is_entered_once_per_trap_found(monkeypatch, trap_at,
                                              revoked_at, meta_at):
    # ProxyObject._trap is where --trace 1 counts proxies.traps.*: it is
    # entered once per trap found, plus once per revoked or non-ordinary
    # link the walk reaches, and never for a trap-less link
    interp = interpreter.Interpreter()
    counts = count_trap_entries(monkeypatch)
    chain = trap_chain(interp, 10, trap_at, revoked_at, meta_at)
    if revoked_at is not None and revoked_at < trap_at:
        with pytest.raises(RevokedProxyError):
            chain.get(interp, "x")
        assert counts == {"entered": 1, "found": 0}
        return
    assert chain.get(interp, "x") == "trapped"
    # a meta handler's lookup is a get on a proxy, whose own trap is found
    meta_reached = meta_at is not None and meta_at < trap_at
    found = 2 if meta_reached else 1
    assert counts == {"entered": found + meta_reached, "found": found}


PAIR_SETUP = ("var yes = true; var o = {}; var p = new Proxy(o, "
              "{isTransparent: function(t, q) { return true; }}); "
              "var q = new Proxy(o, {isTransparent: function(t, q) "
              "{ return yes; }});")
PAIR = ("print(p == q, p === q, p !== q, p :===: q, Proxy.isIdentical(p, q));"
        " Proxy.isEqual(p, q);")
WRAPPED = ("strict_equals", "loose_equals", "opaque_strict_equals",
           "builtin_is_identical", "builtin_is_equal")


def count_entries(monkeypatch):
    """Wrap each entry point of WRAPPED, Interpreter.invoke and
    OrdinaryObject.get with a counter, as a host tracer does; give the
    counts by name."""
    counts = dict.fromkeys(WRAPPED + ("invoke", "get"), 0)

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in WRAPPED:
        monkeypatch.setattr(interpreter, name,
                            counted(name, getattr(interpreter, name)))
    monkeypatch.setattr(interpreter.Interpreter, "invoke",
                        counted("invoke", interpreter.Interpreter.invoke))
    monkeypatch.setattr(objects.OrdinaryObject, "get",
                        counted("get", objects.OrdinaryObject.get))
    return counts


@pytest.mark.parametrize("mode,invokes", [("opaque", 3), ("transparent", 3),
                                          ("trap", 6)])
def test_wrappers_see_every_comparison_and_call(monkeypatch, mode, invokes):
    # the equality workload's statement and a Proxy.isEqual: each
    # comparison enters its equality function once, each native call
    # enters invoke, and each Proxy.* read enters get; in trap mode q's
    # trap runs code, so each of the three resolving comparisons invokes
    # it once more (a vote through `return true;` is never invoked)
    interp = interpreter.Interpreter(mode=mode)
    assert interpreter.evaluate_program(parser.parse_source(PAIR_SETUP),
                                        interp).ok
    counts = count_entries(monkeypatch)
    result = interpreter.evaluate_program(parser.parse_source(PAIR), interp)
    assert result.ok
    assert counts == {"strict_equals": 2, "loose_equals": 1,
                      "opaque_strict_equals": 1, "builtin_is_identical": 1,
                      "builtin_is_equal": 1, "invoke": invokes, "get": 2}
