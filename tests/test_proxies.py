import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxylang import objects
from proxylang.errors import LangTypeError, RevokedProxyError
from proxylang.interpreter import (MAX_CALL_DEPTH, Interpreter,
                                   evaluate_program)
from proxylang.objects import NULL, UNDEFINED
from proxylang.parser import parse_source
from proxylang.proxies import (MAX_ARGS_LENGTH, ProxyObject,
                               get_equality_object, is_transparent,
                               pack_args_object, proxy_create, revoke,
                               unpack_args_object, with_transparency)


@pytest.fixture
def interp():
    return Interpreter(mode="trap")


def native(interp, fn, name="fn"):
    return interp.alloc_native(name, fn)


def make_proxy(interp, target=None, handler_props=None):
    target = target if target is not None else interp.heap.alloc_object()
    handler = interp.heap.alloc_object(handler_props or {})
    return proxy_create(interp, target, handler), target, handler


# --- trap dispatch ---

def test_absent_traps_forward(interp):
    proxy, target, _ = make_proxy(interp)
    proxy.set(interp, "foo", 42.0)
    assert target.get(interp, "foo") == 42.0
    assert proxy.get(interp, "foo") == 42.0
    assert proxy.has(interp, "foo")
    assert proxy.own_keys(interp) == ["foo"]
    assert proxy.delete(interp, "foo")
    assert not target.has(interp, "foo")


def test_get_trap_receives_target_key_proxy(interp):
    seen = {}

    def trap(itp, this, args):
        seen["args"] = args
        return 7.0

    proxy, target, handler = make_proxy(
        interp, handler_props={"get": native(interp, trap)})
    assert proxy.get(interp, "foo") == 7.0
    assert seen["args"] == [target, "foo", proxy]
    # the target is untouched and direct access bypasses the trap
    assert target.get(interp, "foo") is UNDEFINED


def test_set_trap_result_is_ignored(interp):
    def trap(itp, this, args):
        target, key, value = args[0], args[1], args[2]
        target.set(itp, key, value * 2)
        return "ignored"

    proxy, target, _ = make_proxy(
        interp, handler_props={"set": native(interp, trap)})
    proxy.set(interp, "n", 10.0)
    assert target.get(interp, "n") == 20.0


# --- host operations: has, delete and own_keys read no handler ---

def host_chain(interp, log):
    """A chain over {x: 1, y: 2}: the innermost link has a proxy handler
    whose get trap logs the name it is asked for, the next a handler that
    holds has, deleteProperty, ownKeys and get traps which log their own
    name, and the outermost an empty handler."""
    def logger(name):
        return native(interp, lambda itp, this, args: log.append(name))

    base = interp.heap.alloc_object({"x": 1.0, "y": 2.0})
    meta = interp.heap.alloc_object({"get": logger("meta get")})
    inner = proxy_create(interp, base, proxy_create(
        interp, interp.heap.alloc_object(), meta))
    traps = interp.heap.alloc_object(
        {name: logger(name)
         for name in ("has", "deleteProperty", "ownKeys", "get")})
    middle = proxy_create(interp, inner, traps)
    outer = proxy_create(interp, middle, interp.heap.alloc_object())
    return base, (inner, middle, outer)


def test_host_operations_answer_as_the_end_object(interp):
    log = []
    base, links = host_chain(interp, log)
    for link in links:
        assert link.has(interp, "x") is True
        assert link.has(interp, "z") is False
        assert link.own_keys(interp) == ["x", "y"]
    assert links[2].delete(interp, "y") is True
    assert links[0].delete(interp, "y") is False
    assert base.own_keys(interp) == ["x"]
    assert links[1].own_keys(interp) == ["x"]
    assert log == []


def test_host_operations_consult_no_handler(interp):
    # the same handlers answer a get, so they are live; host operations
    # never ask them, not even the proxy handler's get trap for a name
    log = []
    _, (inner, _, outer) = host_chain(interp, log)
    outer.has(interp, "x")
    outer.delete(interp, "x")
    outer.own_keys(interp)
    inner.has(interp, "x")
    assert log == []
    outer.get(interp, "x")
    assert log == ["get"]
    inner.get(interp, "x")
    assert log == ["get", "meta get"]


def test_host_operations_on_a_revoked_link_raise(interp):
    # every link's handler has traps, and the revoked link is the innermost
    log = []
    _, (inner, _, outer) = host_chain(interp, log)
    revoke(interp, inner)
    operations = {"has": lambda: outer.has(interp, "x"),
                  "deleteProperty": lambda: outer.delete(interp, "x"),
                  "ownKeys": lambda: outer.own_keys(interp)}
    for name, operation in operations.items():
        with pytest.raises(RevokedProxyError) as caught:
            operation()
        assert caught.value.message == f"'{name}' on a revoked proxy"
    assert log == []


def test_apply_trap_receives_packed_args(interp):
    seen = {}

    def trap(itp, this, args):
        seen["target"], seen["this"], seen["packed"], seen["proxy"] = args
        return unpack_args_object(itp, seen["packed"])[0]

    fn = native(interp, lambda itp, this, args: "original")
    handler = interp.heap.alloc_object(
        {"apply": native(interp, trap)})
    proxy = proxy_create(interp, fn, handler)
    result = proxy.call(interp, NULL, ["first", "second"])
    assert result == "first"
    assert seen["target"] == fn
    assert seen["this"] is NULL
    assert seen["proxy"] == proxy
    packed = seen["packed"]
    assert packed.get(interp, "length") == 2.0
    assert packed.get(interp, "0") == "first"


def test_apply_absent_forwards_positionally(interp):
    fn = native(interp, lambda itp, this, args: args[0] + args[1])
    proxy, _, _ = make_proxy(interp, target=fn)
    assert proxy.call(interp, UNDEFINED, [1.0, 2.0]) == 3.0


def test_trap_lookup_through_handler_proxy(interp):
    # handlers may themselves be proxies; trap lookup is a full get
    def meta_get(itp, this, args):
        key = args[1]
        if key == "get":
            return native(itp, lambda i2, t2, a2: "from-meta")
        return UNDEFINED

    inner_handler = interp.heap.alloc_object()
    meta_handler = interp.heap.alloc_object(
        {"get": native(interp, meta_get)})
    handler_proxy = proxy_create(interp, inner_handler, meta_handler)
    target = interp.heap.alloc_object()
    proxy = proxy_create(interp, target, handler_proxy)
    assert proxy.get(interp, "x") == "from-meta"


def test_present_non_callable_trap_is_an_error(interp):
    proxy, _, _ = make_proxy(interp, handler_props={"get": 5.0})
    with pytest.raises(LangTypeError):
        proxy.get(interp, "x")


def test_null_trap_counts_as_absent(interp):
    proxy, target, _ = make_proxy(interp, handler_props={"get": NULL})
    target.set(interp, "x", 1.0)
    assert proxy.get(interp, "x") == 1.0


def test_proxy_target_may_be_proxy(interp):
    base = interp.heap.alloc_object([("x", "deep")])
    inner, _, _ = make_proxy(interp, target=base)
    outer, _, _ = make_proxy(interp, target=inner)
    assert outer.get(interp, "x") == "deep"


def forwarding_chain(interp, target, depth=100_000, handler=None):
    handler = handler if handler is not None else interp.heap.alloc_object()
    for _ in range(depth):
        target = proxy_create(interp, target, handler)
    return target


def without_host_recursion(operation, *args):
    """operation(*args); fails outside the handler if it recursed past the
    host limit, so pytest does not format one traceback entry per link."""
    try:
        return operation(*args)
    except RecursionError:
        pass
    pytest.fail("a trap-less forwarding chain recursed on the host stack")


def test_deep_forwarding_chain_reaches_target(interp):
    base = interp.heap.alloc_object({"x": 1.0, "y": 2.0})
    chain = forwarding_chain(interp, base)
    assert without_host_recursion(chain.has, interp, "x")
    assert not without_host_recursion(chain.has, interp, "z")
    assert without_host_recursion(chain.own_keys, interp) == ["x", "y"]
    assert without_host_recursion(chain.delete, interp, "y") is True
    assert without_host_recursion(chain.delete, interp, "y") is False
    assert base.own_keys(interp) == ["x"]


def test_innermost_trap_answers_through_deep_chain(interp):
    seen = {}

    def trap(itp, this, args):
        seen["args"] = args
        return "yes"

    base = interp.heap.alloc_object()
    inner, _, _ = make_proxy(interp, target=base,
                             handler_props={"get": native(interp, trap)})
    chain = forwarding_chain(interp, inner)
    assert without_host_recursion(chain.get, interp, "anything") == "yes"
    assert seen["args"] == [base, "anything", inner]


# --- forwarding against a reference walk ---

# the handler of a link, as language source; each kind sets the trap of
# every operation below, so get, set and call all meet it
HANDLERS = {
    "empty": "{}",
    "shared": "shared",  # one handler object for every such link
    "undefined": "{get: undefined, set: undefined, apply: undefined}",
    "null": "{get: null, set: null, apply: null}",
    "five": "{get: 5, set: 5, apply: 5}",
    "trap": "traps",
    # a proxy handler: looking a trap up on it adds that trap to the
    # shared handler, so a shared link further in (or on a later walk)
    # has one
    "meta": "meta",
}

CHAIN_SETUP = """var shared = {};
var traps = {
  get: function(t, k, r) { return "trapped " + k; },
  set: function(t, k, v, r) { t[k] = v + 100; },
  apply: function(t, self, args, r) {
    return 10 * Reflect.apply(t, self, args); }
};
var added = {
  get: function(t, k, r) { return "added " + k; },
  set: function(t, k, v, r) { t[k] = v + 1000; },
  apply: function(t, self, args, r) { return "added call"; }
};
var meta = new Proxy({}, {get: function(t, name, r) {
  shared[name] = added[name]; return undefined; }});
var o = function(x) { return x + 1; };
o.x = 1;
var p = o;"""

# each operation runs twice, so a second walk sees what the first changed
OPERATIONS = {
    "get": "print(p.x);\nprint(p.x);",
    "set": "p.x = 7;\nprint(o.x);\np.x = 8;\nprint(o.x);",
    "call": "print(p(2));\nprint(p(3));",
}


def reference_forward(link, interp, name):
    """The forwarding walk that asks _trap at every link."""
    while True:
        handler = link.handler
        trap = link._trap(interp, name)
        if trap is not None:
            return link, handler, trap
        link = link.target
        if link.__class__ is not ProxyObject:
            return link, None, None


def run_chain(kinds, revoked, operation, forward=None):
    """Run operation through a fresh chain, kinds[0] the innermost link
    and the revoked-th link revoked (None for none), with
    ProxyObject._forward replaced by forward if given."""
    lines = CHAIN_SETUP.splitlines()
    for i, kind in enumerate(kinds):
        lines.append(f"p = new Proxy(p, {HANDLERS[kind]}); var l{i} = p;")
    if revoked is not None:
        lines.append(f"Proxy.revoke(l{revoked});")
    lines.append(OPERATIONS[operation])
    program = parse_source("\n".join(lines))
    saved = ProxyObject._forward
    if forward is not None:
        ProxyObject._forward = forward
    try:
        result = evaluate_program(program, Interpreter())
    finally:
        ProxyObject._forward = saved
    return (result.status, result.error_kind, result.error_message,
            result.error_line, result.output)


@st.composite
def chains(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(HANDLERS)),
                          min_size=1, max_size=30))
    revoked = draw(st.none() | st.integers(0, len(kinds) - 1))
    return kinds, revoked


@settings(max_examples=120, deadline=None)
@given(chains())
def test_forwarding_matches_a_walk_that_asks_every_link(chain):
    kinds, revoked = chain
    for operation in OPERATIONS:
        assert run_chain(kinds, revoked, operation) \
            == run_chain(kinds, revoked, operation, reference_forward)


def test_forwarding_chains_cover_every_outcome():
    # the reference itself: a value, a trap's answer, a trap added by a
    # meta handler on the first walk, and each error kind, with the line
    # of the first operation
    first = len(CHAIN_SETUP.splitlines()) + 1
    assert run_chain(["empty", "shared", "null"], None, "get")[4] \
        == "1\n1\n"
    assert run_chain(["trap", "undefined"], None, "call")[4] == "30\n40\n"
    assert run_chain(["shared", "meta"], None, "set")[4] == "1007\n1008\n"
    assert run_chain(["empty", "five"], None, "get")[1:4] \
        == ("TypeError", "trap 'get' is not callable", first + 2)
    revoked = ("RevokedProxyError", "'apply' on a revoked proxy")
    assert run_chain(["empty", "trap", "empty"], 2, "call")[1:4] \
        == revoked + (first + 4,)
    # reached from inside the apply trap, the error has the trap's line
    in_trap = CHAIN_SETUP[:CHAIN_SETUP.index("Reflect.apply")].count("\n")
    assert run_chain(["empty", "trap", "empty"], 0, "call")[1:4] \
        == revoked + (in_trap + 1,)


def test_create_requires_objects(interp):
    obj = interp.heap.alloc_object()
    for bad in (1.0, "s", True, NULL, UNDEFINED):
        with pytest.raises(LangTypeError):
            proxy_create(interp, bad, obj)
        with pytest.raises(LangTypeError):
            proxy_create(interp, obj, bad)


# --- revocation ---

def test_revoked_operations_error(interp):
    fn = native(interp, lambda itp, this, args: "ok")
    proxy, _, _ = make_proxy(interp, target=fn)
    revoke(interp, proxy)
    with pytest.raises(RevokedProxyError):
        proxy.get(interp, "x")
    with pytest.raises(RevokedProxyError):
        proxy.set(interp, "x", 1.0)
    with pytest.raises(RevokedProxyError):
        proxy.has(interp, "x")
    with pytest.raises(RevokedProxyError):
        proxy.delete(interp, "x")
    with pytest.raises(RevokedProxyError):
        proxy.own_keys(interp)
    with pytest.raises(RevokedProxyError):
        proxy.call(interp, UNDEFINED, [])


def test_revoking_drops_the_handler(interp):
    # a proxy is revoked exactly when its handler is None: nothing else
    # records it, and each operation still raises its own message
    assert ProxyObject.__slots__ == ("target", "handler", "endpoint",
                                     "voted")
    fn = native(interp, lambda itp, this, args: "ok")
    trap = native(interp, lambda itp, this, args: "trapped")
    traps = dict.fromkeys(
        ("get", "set", "apply", "has", "deleteProperty", "ownKeys"), trap)
    proxy, target, _ = make_proxy(interp, target=fn, handler_props=traps)
    revoke(interp, proxy)
    assert proxy.handler is None and proxy.target is target
    operations = {"get": lambda: proxy.get(interp, "x"),
                  "set": lambda: proxy.set(interp, "x", 1.0),
                  "apply": lambda: proxy.call(interp, UNDEFINED, []),
                  "has": lambda: proxy.has(interp, "x"),
                  "deleteProperty": lambda: proxy.delete(interp, "x"),
                  "ownKeys": lambda: proxy.own_keys(interp)}
    for name, operation in operations.items():
        with pytest.raises(RevokedProxyError) as caught:
            operation()
        assert caught.value.message == f"'{name}' on a revoked proxy"


REVOKED_IN_LOOKUP = """var p = null;
var trap = new Proxy(function() { return 0; }, {
  apply: function(t, self, args, q) { print(self === h); return 5; } });
var h = new Proxy({}, {get: function(t, name, r) {
  Proxy.revoke(p); return trap; }});
function fresh() { p = new Proxy(function() { return 1; }, h); return p; }
print(fresh().x);
fresh().x = 2;
print(fresh()(3));
p.x;"""


def test_a_trap_is_called_with_the_handler_its_lookup_revoked():
    # the handler is read before its trap is looked up, as in ECMAScript:
    # a proxy handler whose get revokes the proxy still has the trap it
    # gives called with itself as this, which the trap's apply trap sees
    result = evaluate_program(parse_source(REVOKED_IN_LOOKUP), Interpreter())
    assert result.output == "true\n5\ntrue\ntrue\n5\n"
    assert (result.error_kind, result.error_message) \
        == ("RevokedProxyError", "'get' on a revoked proxy")


def test_revoke_is_idempotent_and_proxy_only(interp):
    proxy, _, _ = make_proxy(interp)
    revoke(interp, proxy)
    revoke(interp, proxy)
    with pytest.raises(LangTypeError):
        revoke(interp, interp.heap.alloc_object())
    with pytest.raises(LangTypeError):
        revoke(interp, 1.0)


def test_revoked_equality_never_raises(interp):
    target = interp.heap.alloc_object()
    proxy, _, _ = make_proxy(interp, target=target)
    revoke(interp, proxy)
    assert get_equality_object(interp, proxy) == proxy
    assert not is_transparent(interp, proxy)


# --- transparency ---

def _true_trap(interp):
    return native(interp, lambda itp, this, args: True)


def _false_trap(interp):
    return native(interp, lambda itp, this, args: False)


def test_is_transparent_defaults_false(interp):
    proxy, _, _ = make_proxy(interp)
    assert is_transparent(interp, proxy) is False


def test_is_transparent_reads_trap(interp):
    p_true, _, _ = make_proxy(
        interp, handler_props={"isTransparent": _true_trap(interp)})
    p_false, _, _ = make_proxy(
        interp, handler_props={"isTransparent": _false_trap(interp)})
    assert is_transparent(interp, p_true) is True
    assert is_transparent(interp, p_false) is False


def test_is_transparent_trap_receives_target_and_proxy(interp):
    seen = {}

    def trap(itp, this, args):
        seen["args"] = args
        return True

    proxy, target, _ = make_proxy(
        interp, handler_props={"isTransparent": native(interp, trap)})
    assert is_transparent(interp, proxy)
    assert seen["args"] == [target, proxy]


def test_is_transparent_truthiness_and_non_callable(interp):
    p_num, _, _ = make_proxy(interp, handler_props={
        "isTransparent": native(interp, lambda i, t, a: 1.0)})
    assert is_transparent(interp, p_num) is True
    # present but not callable answers opaque rather than raising
    p_bad, _, _ = make_proxy(interp, handler_props={"isTransparent": 5.0})
    assert is_transparent(interp, p_bad) is False


def test_revoked_is_never_transparent(interp):
    proxy, _, _ = make_proxy(
        interp, handler_props={"isTransparent": _true_trap(interp)})
    assert is_transparent(interp, proxy)
    revoke(interp, proxy)
    assert not is_transparent(interp, proxy)


def test_override_beats_trap_and_revocation(interp):
    proxy, _, _ = make_proxy(
        interp, handler_props={"isTransparent": _false_trap(interp)})

    def probe(itp, this, args):
        return is_transparent(itp, proxy)

    assert with_transparency(interp, proxy, True,
                             native(interp, probe)) is True
    revoke(interp, proxy)
    assert with_transparency(interp, proxy, True,
                             native(interp, probe)) is True
    assert is_transparent(interp, proxy) is False


def test_override_nesting_innermost_wins(interp):
    proxy, _, _ = make_proxy(interp)
    log = []

    def inner(itp, this, args):
        log.append(is_transparent(itp, proxy))
        return UNDEFINED

    def outer(itp, this, args):
        log.append(is_transparent(itp, proxy))
        with_transparency(itp, proxy, False, native(itp, inner))
        log.append(is_transparent(itp, proxy))
        return UNDEFINED

    with_transparency(interp, proxy, True, native(interp, outer))
    assert log == [True, False, True]
    assert interp.override_stack == []


def test_override_pops_on_error(interp):
    proxy, _, _ = make_proxy(interp)

    def boom(itp, this, args):
        raise LangTypeError("boom")

    with pytest.raises(LangTypeError):
        with_transparency(interp, proxy, True, native(interp, boom))
    assert interp.override_stack == []


def test_override_validates_arguments(interp):
    proxy, _, _ = make_proxy(interp)
    thunk = native(interp, lambda itp, this, args: UNDEFINED)
    with pytest.raises(LangTypeError):
        with_transparency(interp, interp.heap.alloc_object(), True, thunk)
    with pytest.raises(LangTypeError):
        with_transparency(interp, proxy, 1.0, thunk)
    with pytest.raises(LangTypeError):
        with_transparency(interp, proxy, True, 5.0)
    assert interp.override_stack == []


def test_override_distinguishes_proxies(interp):
    target = interp.heap.alloc_object()
    p1, _, _ = make_proxy(interp, target=target)
    p2, _, _ = make_proxy(interp, target=target)

    def probe(itp, this, args):
        return (is_transparent(itp, p1), is_transparent(itp, p2))

    assert with_transparency(interp, p1, True,
                             native(interp, probe)) == (True, False)


OVERRIDES = """
var o = {};
var p = new Proxy(o, {isTransparent: function(t, q) { return false; }});
Proxy.withTransparency(p, false, function() { print(p === o); });
Proxy.withTransparency(p, true, function() { print(p === o); });
"""


@pytest.mark.parametrize("mode,printed", [
    ("opaque", ["false", "false"]),
    ("transparent", ["true", "true"]),
    ("operators", ["true", "true"]),
    ("trap", ["false", "true"]),
])
def test_overrides_act_only_in_trap_mode(mode, printed):
    # only the trap resolver consults the override stack: opaque mode
    # resolves nothing, and transparent mode (which "operators" names too)
    # looks through every unrevoked proxy whatever it is pinned to
    interp = Interpreter(mode=mode)
    result = evaluate_program(parse_source(OVERRIDES), interp)
    assert result.ok
    assert result.output.splitlines() == printed
    assert interp.override_stack == []


# --- equality object resolution ---

def build_chain(interp, flags):
    """node 0 is a plain object; node i proxies node i-1 with the given
    transparency: True, False, or None for no trap at all."""
    nodes = [interp.heap.alloc_object()]
    for flag in flags:
        props = {}
        if flag is not None:
            props["isTransparent"] = native(
                interp, lambda itp, this, args, f=flag: f)
        handler = interp.heap.alloc_object(props)
        nodes.append(proxy_create(interp, nodes[-1], handler))
    return nodes


def fixpoint(flags, start):
    """Independent model: walk down while the link is transparent."""
    i = start
    while i > 0 and flags[i - 1] is True:
        i -= 1
    return i


@pytest.mark.parametrize("flags", list(itertools.product(
    [True, False, None], repeat=2)))
def test_equality_object_two_links_exhaustive(interp, flags):
    nodes = build_chain(interp, list(flags))
    for start in range(len(nodes)):
        expected = nodes[fixpoint(flags, start)]
        assert get_equality_object(interp, nodes[start]) == expected


def test_equality_object_long_chains(interp):
    for length in range(1, 11):
        flags = [True] * length
        nodes = build_chain(interp, flags)
        assert get_equality_object(interp, nodes[-1]) == nodes[0]
        # one opaque link midway stops the walk just above it
        flags[length // 2] = False
        nodes = build_chain(interp, flags)
        assert get_equality_object(interp, nodes[-1]) \
            == nodes[length // 2 + 1]


def test_equality_object_idempotent(interp):
    for flags in itertools.product([True, False, None], repeat=3):
        nodes = build_chain(interp, list(flags))
        once = get_equality_object(interp, nodes[-1])
        assert get_equality_object(interp, once) == once


def test_equality_object_on_primitives(interp):
    for prim in (1.0, "s", True, NULL, UNDEFINED):
        assert get_equality_object(interp, prim) == prim


def test_equality_object_stops_at_revoked(interp):
    nodes = build_chain(interp, [True, True])
    revoke(interp, nodes[1])
    assert get_equality_object(interp, nodes[2]) == nodes[1]


def test_impure_transparency_trap_is_reconsulted(interp):
    # a trap may answer differently over time; resolution asks fresh
    answers = iter([True, False])

    def flaky(itp, this, args):
        return next(answers)

    target = interp.heap.alloc_object()
    handler = interp.heap.alloc_object(
        {"isTransparent": native(interp, flaky)})
    proxy = proxy_create(interp, target, handler)
    assert get_equality_object(interp, proxy) == target
    assert get_equality_object(interp, proxy) == proxy


# --- votes that overflow the call stack ---

def run_output(interp, source):
    result = evaluate_program(parse_source(source), interp)
    assert result.ok, (result.error_kind, result.error_message)
    return result.output


def test_vote_that_recurses_to_stack_overflow_is_opaque(interp):
    output = run_output(interp, """
        function down(n) { return down(n + 1); }
        var o = {};
        var p = new Proxy(o, {isTransparent: function(t, q) {
            return down(0); }});
        print(p === o, p == o, o === p, p !== o, p != o);
    """)
    assert output == "false false false true true\n"
    assert interp.depth == 0
    assert interp.override_stack == []


@pytest.mark.parametrize("depth, answer", [
    (MAX_CALL_DEPTH - 2, "true true"),
    # the trap is call MAX_CALL_DEPTH, and its call of yes() overflows
    (MAX_CALL_DEPTH - 1, "false false"),
    # the trap's own call overflows
    (MAX_CALL_DEPTH, "false false")])
def test_vote_at_the_call_depth_limit(interp, depth, answer):
    # the votes are made in the body of the depth-th nested call and
    # saved on r, as at the deepest no call is left to print them; at the
    # top level the same votes look through. A trap whose body is
    # `return true;` is not called below the limit, so one call shallower
    # than it, where yes() overflows, it looks through; at the limit it is
    # called, overflows and is opaque like any other trap, even though
    # the first comparison, at the top level, memoised its walk
    constant = "false false" if depth == MAX_CALL_DEPTH else "true true"
    for body, expected, voter in (
            ("return yes();", answer, interp),
            ("return true;", constant, Interpreter(mode="trap"))):
        output = run_output(voter, f"""
            function yes() {{ return true; }}
            var o = {{}};
            var p = new Proxy(o, {{isTransparent: function(t, q) {{
                {body} }}}});
            var r = {{}};
            function at(n) {{
                if (n > 1) {{ return at(n - 1); }}
                r.strict = p === o;
                r.loose = p == o;
            }}
            var first = p === o;
            at({depth});
            print(first, r.strict, r.loose, p === o, p == o);
        """)
        assert output == "true " + expected + " true true\n", body
        assert voter.depth == 0
        assert voter.override_stack == []


def test_memoised_walk_yields_to_an_override(interp):
    # the first p === o memoises its walk through two `return true;`
    # links; under an override the memo is not read, and afterwards it is
    output = run_output(interp, """
        var o = {};
        var h = {isTransparent: function(t, q) { return true; }};
        var p = new Proxy(new Proxy(o, h), h);
        print(p === o);
        print(Proxy.withTransparency(p, false, function() { return p === o; }));
        print(p === o);
    """)
    assert output == "true\nfalse\ntrue\n"


def test_host_delete_of_the_trap_stales_a_memoised_walk(interp):
    output = run_output(interp, """
        var o = {};
        var h = {isTransparent: function(t, q) { return true; }};
        var p = new Proxy(o, h);
        print(p === o);
    """)
    assert output == "true\n"
    proxy, target = interp.globals.lookup("p"), interp.globals.lookup("o")
    assert proxy.voted[1] is target
    handler = interp.globals.lookup("h")
    assert handler.delete(interp, "isTransparent") is True
    assert run_output(interp, "print(p === o);") == "true\nfalse\n"


def test_only_a_handler_s_is_transparent_write_stales_memos(interp):
    # a write or delete of isTransparent raises walk_epoch on an object
    # that some proxy was built with as its handler, by a script or by a
    # host, and on no other object, so a memo stays current
    output = run_output(interp, """
        var o = {};
        var p = new Proxy(o, {isTransparent: function(t, q) { return true; }});
        print(p === o);
        var d = {};
        d.isTransparent = 1;
    """)
    assert output == "true\n"
    proxy = interp.globals.lookup("p")
    assert proxy.voted[0] == objects.walk_epoch
    handler = interp.heap.alloc_object()
    ProxyObject(interp.heap.alloc_object(), handler)
    for obj, moves in ((interp.globals.lookup("d"), 0), (handler, 1)):
        count = objects.walk_epoch
        obj.set(interp, "isTransparent", NULL)
        obj.set(interp, "x", NULL)
        assert objects.walk_epoch == count + moves
        assert obj.delete(interp, "isTransparent") is True
        assert obj.delete(interp, "x") is True
        assert objects.walk_epoch == count + 2 * moves


def test_args_object_round_trip(interp):
    values = [1.0, "two", NULL, UNDEFINED, True]
    packed = pack_args_object(interp, values)
    assert unpack_args_object(interp, packed) == values
    assert packed.get(interp, "length") == 5.0


APPLY = "function f() { return 1; } Reflect.apply(f, null, {length: %s});"


def test_unpack_bounds_the_length(interp):
    # at the bound every entry is read; past it, or at an infinity (where
    # int() would raise a host OverflowError), nothing is, and a script
    # gets a language TypeError
    at_bound = interp.heap.alloc_object([("length", float(MAX_ARGS_LENGTH))])
    assert unpack_args_object(interp, at_bound) \
        == [UNDEFINED] * MAX_ARGS_LENGTH
    result = evaluate_program(parse_source(APPLY % MAX_ARGS_LENGTH), interp)
    assert result.ok and result.value == 1.0
    for length in (MAX_ARGS_LENGTH + 1, "1 / 0"):
        result = evaluate_program(parse_source(APPLY % length), interp)
        assert result.error_kind == "TypeError", length
        assert str(MAX_ARGS_LENGTH) in result.error_message


def test_unpack_rejects_bad_length(interp):
    for length in (-1.0, 1.5, "three", float("nan"), UNDEFINED,
                   float(MAX_ARGS_LENGTH + 1), float("inf")):
        obj = interp.heap.alloc_object([("length", length)])
        with pytest.raises(LangTypeError):
            unpack_args_object(interp, obj)
    with pytest.raises(LangTypeError):
        unpack_args_object(interp, "not an object")
