import pytest

from proxylang.equality import EqualityMode, strict_equals
from proxylang.errors import LangReferenceError, LangTypeError
from proxylang.interpreter import Interpreter, run_source
from proxylang.objects import NULL, UNDEFINED
from proxylang.proxies import proxy_create, revoke
from proxylang.weakmap import (IdentityMap, create_weakmap, idmap_delete,
                               idmap_get, idmap_has, idmap_set)

from conftest import MODE_NAMES


def transparent_proxy(interp, target):
    handler = interp.heap.alloc_object({
        "isTransparent": interp.alloc_native(
            "isTransparent", lambda itp, this, args: True)})
    return proxy_create(interp, target, handler)


def test_object_keys_only():
    interp = Interpreter()
    imap = IdentityMap()
    for bad in (1.0, "k", True, NULL, UNDEFINED):
        with pytest.raises(LangTypeError):
            idmap_set(interp, imap, bad, 1.0)
        with pytest.raises(LangTypeError):
            idmap_get(interp, imap, bad)


def test_basic_store():
    interp = Interpreter()
    imap = IdentityMap()
    a = interp.heap.alloc_object()
    b = interp.heap.alloc_object()
    idmap_set(interp, imap, a, "A")
    assert idmap_get(interp, imap, a) == "A"
    assert idmap_get(interp, imap, b) is UNDEFINED
    assert idmap_has(interp, imap, a)
    assert not idmap_has(interp, imap, b)
    assert idmap_delete(interp, imap, a)
    assert not idmap_delete(interp, imap, a)


def test_trap_mode_aliases_transparent_proxy():
    interp = Interpreter(mode=EqualityMode.TRAP)
    imap = IdentityMap()
    target = interp.heap.alloc_object()
    proxy = transparent_proxy(interp, target)
    idmap_set(interp, imap, target, 1.0)
    assert idmap_get(interp, imap, proxy) == 1.0
    idmap_set(interp, imap, proxy, 2.0)
    assert idmap_get(interp, imap, target) == 2.0
    assert len(imap.entries) == 1


def test_opaque_mode_keeps_proxy_distinct():
    interp = Interpreter(mode=EqualityMode.OPAQUE)
    imap = IdentityMap()
    target = interp.heap.alloc_object()
    proxy = transparent_proxy(interp, target)
    idmap_set(interp, imap, target, 1.0)
    assert idmap_get(interp, imap, proxy) is UNDEFINED
    idmap_set(interp, imap, proxy, 2.0)
    assert idmap_get(interp, imap, target) == 1.0
    assert len(imap.entries) == 2


def test_resolution_happens_at_every_operation():
    # the key's meaning can change between operations when a trap's
    # answer changes; the map must consult the mode each time
    interp = Interpreter(mode=EqualityMode.TRAP)
    imap = IdentityMap()
    target = interp.heap.alloc_object()
    state = {"transparent": False}
    handler = interp.heap.alloc_object({
        "isTransparent": interp.alloc_native(
            "isTransparent",
            lambda itp, this, args: state["transparent"])})
    proxy = proxy_create(interp, target, handler)
    idmap_set(interp, imap, proxy, "opaque-entry")  # keyed by the proxy
    assert idmap_has(interp, imap, proxy)
    state["transparent"] = True
    assert not idmap_has(interp, imap, proxy)  # now resolves to target
    idmap_set(interp, imap, target, "target-entry")
    assert idmap_get(interp, imap, proxy) == "target-entry"


def test_revoked_key_resolves_to_itself():
    interp = Interpreter(mode=EqualityMode.TRANSPARENT)
    imap = IdentityMap()
    target = interp.heap.alloc_object()
    proxy = transparent_proxy(interp, target)
    revoke(interp, proxy)
    idmap_set(interp, imap, proxy, "r")
    assert idmap_get(interp, imap, proxy) == "r"
    assert idmap_get(interp, imap, target) is UNDEFINED


def test_trap_mode_key_whose_trap_misbehaves_is_opaque():
    # a key whose isTransparent trap raises, compares its own proxy or
    # revokes it resolves to the proxy itself: the map answers, nothing
    # raises, and the override stack is empty afterwards
    interp = Interpreter(mode=EqualityMode.TRAP)
    target = interp.heap.alloc_object()
    asked = []

    def raises(itp, this, args):
        raise LangReferenceError("'missingName' is not defined")

    def self_compare(itp, this, args):
        asked.append(args[1])
        return strict_equals(itp, args[1], args[0])

    def self_revoke(itp, this, args):
        revoke(itp, args[1])
        return True

    for trap in (raises, self_compare, self_revoke):
        imap = IdentityMap()
        idmap_set(interp, imap, target, 1.0)
        handler = interp.heap.alloc_object({
            "isTransparent": interp.alloc_native("isTransparent", trap)})
        proxy = proxy_create(interp, target, handler)
        assert idmap_get(interp, imap, proxy) is UNDEFINED
        assert not idmap_has(interp, imap, proxy)
        idmap_set(interp, imap, proxy, 2.0)
        assert idmap_get(interp, imap, target) == 1.0
        assert idmap_get(interp, imap, proxy) == 2.0
        assert idmap_delete(interp, imap, proxy)
        assert idmap_get(interp, imap, target) == 1.0
        assert interp.override_stack == []
    assert len(asked) == 5  # once per operation on the proxy, never again


def test_weakmap_object_surface():
    interp = Interpreter(mode=EqualityMode.TRAP)
    wm = create_weakmap(interp)
    target = interp.heap.alloc_object()
    proxy = transparent_proxy(interp, target)

    def call_method(name, args):
        method = wm.get(interp, name)
        return method.call(interp, wm, args)

    assert call_method("set", [target, 42.0]) == wm  # returns this
    assert call_method("get", [proxy]) == 42.0
    assert call_method("has", [proxy]) is True
    assert call_method("delete", [proxy]) is True
    assert call_method("has", [target]) is False
    assert call_method("get", [target]) is UNDEFINED
    with pytest.raises(LangTypeError):
        call_method("set", ["prim", 1.0])


def test_separate_maps_are_independent():
    interp = Interpreter()
    m1, m2 = IdentityMap(), IdentityMap()
    obj = interp.heap.alloc_object()
    idmap_set(interp, m1, obj, 1.0)
    assert not idmap_has(interp, m2, obj)


# --- RawWeakMap: keys by raw identity in every mode ---

@pytest.mark.parametrize("mode", MODE_NAMES)
def test_raw_map_keeps_proxy_and_target_distinct(mode):
    interp = Interpreter(mode=mode)
    imap = IdentityMap(raw=True)
    target = interp.heap.alloc_object()
    proxy = transparent_proxy(interp, target)
    idmap_set(interp, imap, target, 1.0)
    assert idmap_get(interp, imap, proxy) is UNDEFINED
    assert not idmap_has(interp, imap, proxy)
    idmap_set(interp, imap, proxy, 2.0)
    assert idmap_get(interp, imap, target) == 1.0
    assert idmap_get(interp, imap, proxy) == 2.0
    assert idmap_delete(interp, imap, proxy)
    assert idmap_has(interp, imap, target)
    assert len(imap.entries) == 1


@pytest.mark.parametrize("mode", MODE_NAMES)
def test_raw_map_accepts_revoked_proxy_key(mode):
    interp = Interpreter(mode=mode)
    imap = IdentityMap(raw=True)
    target = interp.heap.alloc_object()
    proxy = transparent_proxy(interp, target)
    idmap_set(interp, imap, proxy, "live")
    revoke(interp, proxy)
    assert idmap_get(interp, imap, proxy) == "live"
    idmap_set(interp, imap, proxy, "revoked")
    assert idmap_get(interp, imap, proxy) == "revoked"
    assert idmap_get(interp, imap, target) is UNDEFINED
    assert idmap_delete(interp, imap, proxy)


def test_raw_map_object_keys_only():
    interp = Interpreter(mode=EqualityMode.TRAP)
    imap = IdentityMap(raw=True)
    for bad in (1.0, "k", True, NULL, UNDEFINED):
        for op in (idmap_get, idmap_has, idmap_delete):
            with pytest.raises(LangTypeError, match="RawWeakMap keys"):
                op(interp, imap, bad)
        with pytest.raises(LangTypeError, match="RawWeakMap keys"):
            idmap_set(interp, imap, bad, 1.0)


@pytest.mark.parametrize("mode", MODE_NAMES)
def test_weakmap_and_raw_map_side_by_side(mode):
    # the same probes through both builtins: WeakMap still resolves
    # through the mode, RawWeakMap never does
    aliases = "true" if mode != "opaque" else "false"
    result = run_source("""
    var t = {};
    var p = new Proxy(t, { isTransparent: function(t, p) { return true; } });
    var wm = WeakMap();
    var raw = RawWeakMap();
    wm.set(t, "t");
    raw.set(t, "t");
    print(wm.has(p), raw.has(p), raw.has(t), raw.get(p));
    print(raw.set(p, "p") :===: raw, raw.get(p), raw.get(t));
    """, mode=mode)
    assert result.ok, (result.error_kind, result.error_message)
    assert result.output == f"{aliases} false true undefined\ntrue p t\n"


@pytest.mark.parametrize("name", ["WeakMap", "RawWeakMap"])
def test_set_returns_its_receiver(name):
    # set returns this: the map when called on it, a trap-less proxy when
    # called through one, undefined when called detached
    result = run_source(f"""
    var m = {name}();
    var k = {{}};
    var p = new Proxy(m, {{}});
    var s = m.set;
    print(m.set(k, 1) :===: m, p.set(k, 2) :===: p, s(k, 3), m.get(k));
    """)
    assert result.ok, (result.error_kind, result.error_message)
    assert result.output == "true true undefined 3\n"


def test_raw_map_primitive_key_is_a_language_error():
    result = run_source("RawWeakMap().set(1, 2);")
    assert result.error_kind == "TypeError"
    assert "RawWeakMap keys must be objects" in result.error_message
