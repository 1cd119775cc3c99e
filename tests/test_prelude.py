import pytest

import proxylang.interpreter as interpreter
import proxylang.weakmap as weakmap
from proxylang.errors import RevokedProxyError
from proxylang.interpreter import Interpreter, evaluate_program, run_source
from proxylang.objects import HeapObject
from proxylang.parser import parse_source
from proxylang.prelude import default_prelude_source
from proxylang.proxies import ProxyObject

from conftest import MODE_NAMES, MODES


def run(source, mode="opaque", prelude=None):
    if prelude is None:
        prelude = default_prelude_source()
    return run_source(source, mode=mode, prelude_source=prelude)


def out(source, mode="opaque"):
    result = run(source, mode)
    assert result.ok, (result.error_kind, result.error_message)
    return result.output


def interp_after(source, mode="opaque"):
    interp = Interpreter(mode=mode)
    evaluate_program(parse_source(default_prelude_source()), interp)
    result = evaluate_program(parse_source(source), interp)
    assert result.ok, (result.error_kind, result.error_message)
    return interp


def test_prelude_parses_and_runs_in_every_mode():
    for mode in MODES:
        result = run_source("print(1);", mode=mode,
                            prelude_source=default_prelude_source())
        assert result.ok


def test_prelude_defines_library_functions():
    assert out("""
    print(typeofValue(revocable), typeofValue(membrane));
    print(typeofValue(contractProperty), typeofValue(contractMethod));
    """) == "object object\nobject object\n"


# --- revocable ---

def test_revocable_forwards_until_revoked():
    assert out("""
    var r = revocable({ x: 1 });
    print(r.proxy.x);
    r.proxy.x = 5;
    print(r.proxy.x);
    r.revoke();
    print("done");
    """) == "1\n5\ndone\n"


def test_revocable_rejects_use_after_revoke():
    result = run("""
    var r = revocable({ x: 1 });
    r.revoke();
    print(r.proxy.x);
    """)
    assert result.error_kind == "RevokedProxyError"


def test_revoke_is_idempotent():
    assert out("""
    var r = revocable({});
    r.revoke();
    r.revoke();
    print("ok");
    """) == "ok\n"


# --- membranes ---

def test_membrane_wraps_reached_objects():
    assert out("""
    var inner = { child: { deep: 7 } };
    var m = membrane(inner);
    print(m.wrapper :===: inner, m.wrapper.child :===: inner.child);
    print(m.wrapper.child.deep);
    """) == "false false\n7\n"


def test_membrane_wrapper_cache_is_stable():
    # reaching the same inner object twice yields the same wrapper,
    # under raw identity, in every mode
    source = """
    var shared = { v: 1 };
    var inner = { a: shared, b: shared };
    var m = membrane(inner);
    print(m.wrapper.a :===: m.wrapper.b);
    print(m.wrapper.a :===: m.wrapper.a);
    """
    for mode in MODES:
        assert out(source, mode) == "true\ntrue\n"


def test_membrane_writes_are_unwrapped():
    # passing a wrapper back through a set stores the raw inner object
    assert out("""
    var inner = { a: { tag: "a" }, b: null };
    var m = membrane(inner);
    m.wrapper.b = m.wrapper.a;
    print(inner.b :===: inner.a);
    print(m.wrapper.b :===: m.wrapper.a);
    """) == "true\ntrue\n"


def test_membrane_wraps_function_results_and_unwraps_arguments():
    assert out("""
    var registry = { last: null };
    var inner = {
      registry: registry,
      remember: function(x) { registry.last = x; return registry; }
    };
    var m = membrane(inner);
    var wetRegistry = m.wrapper.registry;
    var result = m.wrapper.remember(wetRegistry);
    print(registry.last :===: registry);
    print(result :===: wetRegistry);
    """) == "true\ntrue\n"


def test_membrane_revoke_cuts_every_wrapper():
    result = run("""
    var inner = { child: { x: 1 } };
    var m = membrane(inner);
    var outerChild = m.wrapper.child;
    m.revoke();
    print(outerChild.x);
    """)
    assert result.error_kind == "RevokedProxyError"
    result = run("""
    var m = membrane({ x: 1 });
    m.revoke();
    m.wrapper.x = 2;
    """)
    assert result.error_kind == "RevokedProxyError"


def test_membrane_revoke_covers_all_internal_operations():
    interp = interp_after("""
    var inner = { child: { x: 1 }, f: function() { return 1; } };
    var m = membrane(inner);
    var w1 = m.wrapper;
    var w2 = m.wrapper.child;
    var w3 = m.wrapper.f;
    m.revoke();
    """)
    env = interp.globals
    wrappers = [env[n] for n in ("w1", "w2", "w3")]
    for obj in wrappers:
        assert isinstance(obj, HeapObject)
        assert isinstance(obj, ProxyObject)
        with pytest.raises(RevokedProxyError):
            obj.get(interp, "x")
        with pytest.raises(RevokedProxyError):
            obj.set(interp, "x", 1.0)
        with pytest.raises(RevokedProxyError):
            obj.has(interp, "x")
        with pytest.raises(RevokedProxyError):
            obj.delete(interp, "x")
        with pytest.raises(RevokedProxyError):
            obj.own_keys(interp)
        with pytest.raises(RevokedProxyError):
            obj.call(interp, None, [])


def test_membrane_isolation_in_operators_mode():
    # even with transparent ==, the membrane never leaks a raw inner
    # reference: the cached wrapper comes back instead
    assert out("""
    var secret = { token: "wet" };
    var inner = { secret: secret, take: function(x) { return x; } };
    var m = membrane(inner);
    var once = m.wrapper.secret;
    var twice = m.wrapper.take(once);
    print(once :===: secret);
    print(twice :===: secret);
    print(twice :===: once);
    print(once == secret);
    """, mode="operators") == "false\nfalse\ntrue\ntrue\n"


def test_membrane_primitives_cross_unwrapped():
    assert out("""
    var inner = { n: 4, s: "text", f: function(a, b) { return a + b; } };
    var m = membrane(inner);
    print(m.wrapper.n, m.wrapper.s, m.wrapper.f(1, 2));
    """) == "4 text 3\n"


def test_membrane_gives_a_proxy_and_its_target_distinct_wrappers():
    # a proxy inside the graph is its own inner object: it gets its own
    # wrapper, and unwrapping that wrapper gives the proxy back, not its
    # target, so writes through the membrane keep the proxy's traps
    source = """
    var t = { v: 1 };
    var inner = { t: t, p: new Proxy(t, {}) };
    var m = membrane(inner);
    var wt = m.wrapper.t;
    var wp = m.wrapper.p;
    print(wp :===: wt);
    m.wrapper.x = wp;
    print(inner.x :===: inner.p);
    """
    for mode in MODES:
        assert out(source, mode) == "false\ntrue\n", mode


MAP_OPS = ("idmap_set", "idmap_get", "idmap_has", "idmap_delete")


def _count_calls(monkeypatch, module, names, counts, key=None):
    """Count the calls of each function of ``module`` named in ``names``
    in ``counts``, under ``key`` or else under the function's name."""
    for name in names:
        def counted(*args, _original=getattr(module, name),
                    _key=key or name):
            counts[_key] = counts.get(_key, 0) + 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)


def _sweep_counts(monkeypatch, mode, n):
    """Raw comparisons and map operations of a membrane sweep that
    reads, writes back and re-reads each of ``n`` objects."""
    counts = {"raw": 0, "map": 0}
    _count_calls(monkeypatch, interpreter,
                 ("opaque_strict_equals", "opaque_loose_equals"), counts,
                 "raw")
    _count_calls(monkeypatch, weakmap, MAP_OPS, counts, "map")
    assert out(f"""
    var all = {{ length: {n} }};
    var i = 0;
    while (i < {n}) {{ all[i] = {{ v: i }}; i = i + 1; }}
    var m = membrane(all);
    var w = m.wrapper;
    var s = 0;
    i = 0;
    while (i < w.length) {{
      var node = w[i];
      node.self = node;
      s = s + node.self.v;
      i = i + 1;
    }}
    print(s);
    """, mode) == f"{n * (n - 1) // 2}\n"
    monkeypatch.undo()
    return counts


def test_membrane_bookkeeping_is_linear(monkeypatch):
    for mode in MODES:
        small = _sweep_counts(monkeypatch, mode, 40)
        large = _sweep_counts(monkeypatch, mode, 160)
        assert small["raw"] == large["raw"] == 0, mode
        assert small["map"] > 0, mode
        assert large["map"] <= 4 * small["map"] + 8, (mode, small, large)


# one crossing of a membrane whose wrapper w has already handed out the
# wrapper of a, and the map calls it makes, by operation
CROSSINGS = (
    ("var r = w.a;", {"idmap_get": 1}),                    # already wrapped
    ("var r = w.b;", {"idmap_get": 1, "idmap_set": 3}),    # fresh
    ("var r = w.n;", {"idmap_get": 1}),                    # a primitive
    ("w.c = w.a;", {"idmap_get": 2}))                      # written back


@pytest.mark.parametrize("mode", MODE_NAMES)
def test_each_crossing_makes_one_map_probe(monkeypatch, mode):
    # wrapperOf maps a wrapper to itself, so one get answers whether a
    # value is a wrapper or is already wrapped; unwrap makes one get too.
    # The get comes before any type test, so a primitive misses in it
    counts = {}
    _count_calls(monkeypatch, weakmap, MAP_OPS, counts)
    for statement, expected in CROSSINGS:
        interp = interp_after("""
        var inner = { a: {}, b: {}, n: 1 };
        var m = membrane(inner);
        var w = m.wrapper;
        var first = w.a;
        """, mode)
        counts.clear()
        assert evaluate_program(parse_source(statement), interp).ok
        assert counts == expected, (statement, counts)


@pytest.mark.parametrize("mode", MODE_NAMES)
def test_membrane_wrapper_stored_inside_the_graph_comes_back_as_itself(mode):
    # a raw holder puts a wrapper into the inner graph; reading it back
    # through the membrane finds the wrapper's entry for itself in
    # wrapperOf, so it is not wrapped a second time
    assert out("""
    var inner = { a: { v: 1 } };
    var m = membrane(inner);
    var wa = m.wrapper.a;
    inner.leak = wa;
    print(m.wrapper.leak :===: wa, m.wrapper.leak.v);
    """, mode) == "true 1\n"


@pytest.mark.parametrize("mode", MODE_NAMES)
def test_membrane_crossing_allocates_only_the_wrapper(mode):
    # every wrapper shares the membrane's one handler, so a fresh object
    # crossing in and back out costs the object literal and its wrapper
    interp = interp_after("var m = membrane({}); var w = m.wrapper;", mode)
    crossing = parse_source("w.x = {}; var r = w.x;")
    allocated = len(interp.heap)
    for _ in range(100):
        assert evaluate_program(crossing, interp).ok
    assert len(interp.heap) - allocated <= 2 * 100


# --- property contracts ---

def test_contract_property_allows_valid_writes():
    assert out("""
    var account = contractProperty({ balance: 10 }, "balance",
        function(v) { return typeofValue(v) == "number" && v >= 0; });
    account.balance = 25;
    print(account.balance);
    """) == "25\n"


def test_contract_property_rejects_before_effect():
    result = run("""
    var target = { balance: 10 };
    var account = contractProperty(target, "balance",
        function(v) { return v >= 0; });
    account.balance = 0 - 5;
    """)
    assert result.error_kind == "ContractViolation"
    assert "'balance'" in result.error_message
    # the write never landed
    follow = run("""
    var target = { balance: 10 };
    var account = contractProperty(target, "balance",
        function(v) { return v >= 0; });
    var failed = false;
    print(target.balance);
    """)
    assert follow.output == "10\n"


def test_contract_property_other_keys_unchecked():
    assert out("""
    var account = contractProperty({ balance: 1 }, "balance",
        function(v) { return v >= 0; });
    account.owner = "ada";
    print(account.owner);
    """) == "ada\n"


def test_contract_property_is_transparent_in_trap_mode():
    assert out("""
    var target = { balance: 10 };
    var account = contractProperty(target, "balance",
        function(v) { return v >= 0; });
    print(account === target, account == target);
    print(account :===: target);
    """, mode="trap") == "true true\nfalse\n"


def test_contract_property_schizophrenia_in_opaque_mode():
    assert out("""
    var target = { balance: 10 };
    var account = contractProperty(target, "balance",
        function(v) { return v >= 0; });
    print(account === target);
    """, mode="opaque") == "false\n"


def test_stacked_contracts_check_every_layer():
    source = """
    var account = contractProperty(
        contractProperty({ balance: 10 }, "balance",
            function(v) { return v >= 0; }),
        "balance",
        function(v) { return v <= 100; });
    account.balance = %s;
    print(account.balance);
    """
    assert out(source % "50") == "50\n"
    assert run(source % "(0 - 1)").error_kind == "ContractViolation"
    assert run(source % "200").error_kind == "ContractViolation"


def test_stacked_contracts_stay_transparent():
    assert out("""
    var target = { balance: 10 };
    var layered = contractProperty(
        contractProperty(target, "balance", function(v) { return v >= 0; }),
        "balance", function(v) { return v <= 100; });
    print(layered === target);
    """, mode="trap") == "true\n"


# --- method contracts ---

def test_contract_method_passes_valid_calls():
    assert out("""
    var calc = contractMethod(
        { double: function(x) { return x + x; } },
        "double",
        function(a) { return typeofValue(a) == "number"; },
        function(r) { return typeofValue(r) == "number"; });
    print(calc.double(4));
    """) == "8\n"


def test_contract_method_rejects_bad_argument():
    result = run("""
    var calc = contractMethod(
        { double: function(x) { return x + x; } },
        "double",
        function(a) { return typeofValue(a) == "number"; },
        function(r) { return true; });
    calc.double("s");
    """)
    assert result.error_kind == "ContractViolation"
    assert "'double'" in result.error_message
    assert "argument" in result.error_message


def test_contract_method_rejects_bad_result():
    result = run("""
    var calc = contractMethod(
        { wrong: function(x) { return "oops"; } },
        "wrong",
        function(a) { return true; },
        function(r) { return typeofValue(r) == "number"; });
    calc.wrong(1);
    """)
    assert result.error_kind == "ContractViolation"
    assert "result" in result.error_message


def test_contract_method_argument_check_precedes_call():
    # the underlying method must not run when an argument is rejected
    result = run("""
    var log = { ran: false };
    var obj = contractMethod(
        { m: function(x) { log.ran = true; return x; } },
        "m",
        function(a) { return false; },
        function(r) { return true; });
    obj.m(1);
    """)
    assert result.error_kind == "ContractViolation"
    probe = run("""
    var log = { ran: false };
    var obj = contractMethod(
        { m: function(x) { log.ran = true; return x; } },
        "m",
        function(a) { return false; },
        function(r) { return true; });
    print(log.ran);
    """)
    assert probe.output == "false\n"


def test_contract_method_other_properties_flow_through():
    assert out("""
    var obj = contractMethod(
        { m: function() { return 1; }, tag: "t" },
        "m", function(a) { return true; }, function(r) { return true; });
    print(obj.tag);
    """) == "t\n"


def test_contract_method_is_transparent_in_trap_mode():
    assert out("""
    var target = { m: function(x) { return x; } };
    var wrapped = contractMethod(target, "m",
        function(a) { return true; }, function(r) { return true; });
    print(wrapped === target, wrapped :===: target);
    """, mode="trap") == "true false\n"


@pytest.mark.parametrize("mode", MODE_NAMES)
def test_contract_method_guard_is_made_once_per_member(mode):
    interp = interp_after("""
    var o = contractMethod({ m: function(x) { return x + 1; } }, "m",
        function(a) { return true; }, function(r) { return true; });
    print(o.m :===: o.m, o.m(1));
    """, mode)
    assert interp.output_text() == "true 2\n"
    read = parse_source("o.m;")
    evaluate_program(read, interp)
    allocated = len(interp.heap)
    evaluate_program(read, interp)
    assert len(interp.heap) == allocated
    # a non-object member is still rejected by new Proxy
    result = run("""
    var o = contractMethod({ m: 5 }, "m",
        function(a) { return true; }, function(r) { return true; });
    o.m;
    """, mode)
    assert (result.error_kind, result.error_message) == \
        ("TypeError", "proxy target must be an object, not number")


def test_contract_behavior_identical_across_modes():
    source = """
    var account = contractProperty({ balance: 10 }, "balance",
        function(v) { return typeofValue(v) == "number" && v >= 0; });
    account.balance = 25;
    print(account.balance);
    account.owner = "ada";
    print(account.owner);
    account.balance = account.balance + 5;
    print(account.balance);
    print("done");
    """
    expected = "25\nada\n30\ndone\n"
    for mode in MODES:
        assert out(source, mode) == expected


def test_contract_wrappers_report_transparent_via_builtin():
    interp = interp_after("""
    var target = { balance: 1 };
    var wrapped = contractProperty(target, "balance",
        function(v) { return true; });
    """, mode="opaque")
    env = interp.globals
    wrapped = env["wrapped"]
    assert isinstance(wrapped, ProxyObject)
    from proxylang.proxies import is_transparent
    assert is_transparent(interp, wrapped) is True


def test_prelude_functions_callable_from_host():
    interp = interp_after("var seed = { x: 1 };")
    env = interp.globals
    revocable_fn = env["revocable"]
    seed = env["seed"]
    pair = revocable_fn.call(interp, None, [seed])
    proxy = pair.get(interp, "proxy")
    assert proxy.get(interp, "x") == 1.0
    revoke = pair.get(interp, "revoke")
    revoke.call(interp, None, [])
    with pytest.raises(RevokedProxyError):
        proxy.get(interp, "x")
