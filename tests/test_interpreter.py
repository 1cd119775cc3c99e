import functools
import gc
import io
import json
import resource
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxylang.interpreter as interpreter
from proxylang import nodes
from proxylang.equality import EqualityMode
from proxylang.errors import LexError, ParseError, PlxRuntimeError
from proxylang.interpreter import (ExecutionResult, Interpreter,
                                   evaluate_program, run_source)
from proxylang.nodes import pretty_print
from proxylang.objects import UNDEFINED, NativeFunction
from proxylang.parser import parse_source
from proxylang.prelude import default_prelude_source

from conftest import MODE_NAMES, MODES, run_in_child


def run(source, mode="opaque"):
    return run_source(source, mode=mode)


def out(source, mode="opaque"):
    result = run(source, mode)
    assert result.ok, (result.error_kind, result.error_message)
    return result.output


def err(source, mode="opaque"):
    result = run(source, mode)
    assert not result.ok
    return result


# --- rendering ---

def test_print_rendering():
    assert out('print("s", 1, 1.5, true, false, null, undefined);') \
        == "s 1 1.5 true false null undefined\n"
    assert out("print({}, function() {});") == "[object] [object]\n"
    assert out("print();") == "\n"
    assert out("print(0 - 0.0, 1 / 0, 0 - 1 / 0, 0 / 0);") \
        == "0 Infinity -Infinity NaN\n"
    assert out("print(12345678901234567890123);") == "1.2345678901234568e+22\n"


def test_string_concatenation():
    assert out('print("n=" + 5 + "!");') == "n=5!\n"
    assert out('print("v:" + true + "," + null + "," + undefined);') \
        == "v:true,null,undefined\n"
    assert err('print("x" + {});').error_kind == "TypeError"


# --- variables, scope, closures ---

def test_var_and_assignment():
    assert out("var x = 1; x = x + 1; print(x);") == "2\n"


def test_undeclared_reference_errors():
    result = err("print(nope);")
    assert result.error_kind == "ReferenceError"
    assert "'nope'" in result.error_message
    assert err("nope = 1;").error_kind == "ReferenceError"


def test_block_scoping_of_declarations():
    # declarations inside a block do not leak out
    result = err("if (true) { var inner = 1; } print(inner);")
    assert result.error_kind == "ReferenceError"
    source = "var i = 0; while (i < 2) { var w = i; i = i + 1; } print(w);"
    assert err(source).error_kind == "ReferenceError"
    source = "if (true) { function f() { return 1; } } print(f());"
    assert err(source).error_kind == "ReferenceError"
    # but assignment reaches outward
    assert out("var x = 0; if (true) { x = 5; } print(x);") == "5\n"


def test_nested_block_declaration_stays_in_the_nested_block():
    result = err("if (true) { if (true) { var z = 1; } print(z); }")
    assert result.error_kind == "ReferenceError"
    assert result.error_message == "'z' is not defined"
    assert result.error_line == 1


def test_assignment_reaches_the_nearest_shadowing_declaration():
    source = ("var x = 1; if (true) { var x = 2; if (true) { x = 3; } "
              "print(x); } print(x);")
    assert out(source) == "3\n1\n"


def test_loop_closures_see_their_own_scope():
    # a body that declares makes a scope per iteration
    source = """
    var fs = {}; var i = 0;
    while (i < 3) { var j = i; fs[i] = function () { return j; }; i = i + 1; }
    print(fs[0](), fs[1](), fs[2]());
    """
    assert out(source) == "0 1 2\n"
    # a body that does not shares the enclosing scope
    source = """
    var fs = {}; var i = 0;
    while (i < 3) { fs[i] = function () { return i; }; i = i + 1; }
    print(fs[0](), fs[1](), fs[2]());
    """
    assert out(source) == "3 3 3\n"


def test_closures_capture_environment():
    source = """
    function counter() {
      var n = 0;
      return function() { n = n + 1; return n; };
    }
    var c1 = counter();
    var c2 = counter();
    print(c1(), c1(), c1(), c2());
    """
    assert out(source) == "1 2 3 1\n"


def test_missing_arguments_are_undefined():
    assert out("function f(a, b) { return b; } print(f(1));") \
        == "undefined\n"


def test_extra_arguments_ignored():
    assert out("function f(a) { return a; } print(f(1, 2, 3));") == "1\n"


def test_return_without_value():
    assert out("function f() { return; } print(f());") == "undefined\n"


@pytest.mark.parametrize("mode", MODE_NAMES)
def test_parameter_binding(mode):
    # missing arguments are undefined, extra ones are ignored
    assert out("function f(a, b, c) { return c; } print(f(1), f(1, 2));",
               mode) == "undefined undefined\n"
    assert out("function f(a, b) { return a + b; } print(f(1, 2, 3, 4));",
               mode) == "3\n"
    # a repeated parameter name takes the last position's argument, even
    # when that argument is missing
    assert out("function f(a, a) { return a; } print(f(1), f(1, 2));",
               mode) == "undefined 2\n"
    assert out("function f(a, b, a) { return a; } print(f(1, 2));",
               mode) == "undefined\n"
    # a closure sees the parameters of its own call, not a later one's
    assert out("""
    function adder(x) { return function(y) { return x + y; }; }
    var add1 = adder(1);
    var add10 = adder(10);
    function x(y) { return y; }
    print(add1(2), add10(2), x(5));
    """, mode) == "3 12 5\n"


@settings(max_examples=200)
@given(st.lists(st.sampled_from("abc"), max_size=5).flatmap(
    lambda params: st.tuples(st.just(params), st.lists(
        st.integers(min_value=0, max_value=99),
        max_size=len(params) + 2))))
def test_parameter_binding_model(params_and_args):
    # names repeat, and arguments run from none to two past the parameters
    params, args = params_and_args
    names = sorted(set(params))
    source = (f"function f({', '.join(params)}) "
              f"{{ print({', '.join(names)}); }} "
              f"f({', '.join(map(str, args))});")
    # the model: zip, then undefined for each missing position in order,
    # so a repeated name takes its last position
    bindings = dict(zip(params, map(str, args)))
    for param in params[len(args):]:
        bindings[param] = "undefined"
    assert out(source) == " ".join(bindings[name] for name in names) + "\n"


def test_functions_are_objects():
    assert out("""
    function f() { return 1; }
    f.tag = "mine";
    print(f.tag, f());
    """) == "mine 1\n"


# --- control flow and operators ---

def test_if_else_and_while():
    assert out("""
    var total = 0;
    var i = 0;
    while (i < 5) {
      if (i / 2 == (i / 2 > 1 ? 2 : 0)) { total = total + i; }
      i = i + 1;
    }
    print(total, i);
    """) == "4 5\n"


# if and while decide a condition that is not a bool by its truthiness,
# as ECMAScript's ToBoolean does
FALSY = ("0", "0 / 0", '""', "null", "undefined")
TRUTHY = ("1", '"x"', "{}", "new Proxy({}, {})")


@pytest.mark.parametrize("value", FALSY + TRUTHY)
def test_if_and_while_decide_a_non_bool_condition(value):
    expected = "then\n1\n" if value in TRUTHY else "else\n0\n"
    assert out(f"""
    var c = {value};
    if (c) {{ print("then"); }} else {{ print("else"); }}
    var n = 0;
    while (c) {{ n = n + 1; c = false; }}
    print(n);
    """) == expected


@pytest.mark.parametrize("loop, value", [
    # a return that is a direct statement of the body
    ("while (i < 3) { i = i + 1; return i; }", 1),
    # one inside an if in the body
    ("while (i < 3) { i = i + 1; if (i == 2) { return i; } }", 2),
    # one in a body with a declaration of its own, which gets a scope
    ("while (i < 3) { var j = i; i = i + 1; return j; }", 0)])
def test_a_return_in_a_while_body_ends_the_call(loop, value):
    assert out(f"function f() {{ var i = 0; {loop} return 99; }}"
               " print(f());") == f"{value}\n"


def test_logical_operators_short_circuit_and_pass_values():
    assert out('print(1 && "x", 0 && "x", null || "d", "a" || "b");') \
        == "x 0 d a\n"
    assert out("var o = {}; false && o.boom(); print(1);") == "1\n"


def test_ternary():
    assert out('print(1 < 2 ? "y" : "n");') == "y\n"


def test_unary():
    assert out("print(!0, !1, !undefined, !null, !\"\", !\"x\");") \
        == "true false true true true false\n"
    assert out("print(-(1 + 2));") == "-3\n"
    assert err('print(-"s");').error_kind == "TypeError"


def test_arithmetic_type_strictness():
    assert err("print(1 - true);").error_kind == "TypeError"
    assert err("print({} * 2);").error_kind == "TypeError"
    assert err('print("2" * 2);').error_kind == "TypeError"
    assert err("print(1 < true);").error_kind == "TypeError"
    assert err('print(1 < "2");').error_kind == "TypeError"
    assert out('print("a" < "b", "b" <= "a", "z" > "y");') \
        == "true false true\n"


def test_division_edge_cases():
    assert out("print(1 / 0, -1 / 0, 0 / 0, 1 / -0.0);") \
        == "Infinity -Infinity NaN -Infinity\n"
    assert out("print(7 / 2);") == "3.5\n"


# --- objects and member access ---

def test_object_literals_and_access():
    assert out("""
    var o = { a: 1, nested: { b: 2 }, "q k": 3 };
    print(o.a, o.nested.b, o["q k"]);
    o.a = 10;
    o["c"] = o.a + 1;
    print(o.a, o.c);
    """) == "1 2 3\n10 11\n"


def test_duplicate_literal_keys_last_wins():
    assert out("var o = { a: 1, a: 2 }; print(o.a);") == "2\n"


def test_computed_keys_format_numbers():
    assert out("""
    var o = {};
    o[0] = "zero";
    o[1.5] = "mid";
    print(o["0"], o["1.5"]);
    """) == "zero mid\n"
    # a key is the number's ECMAScript text, a literal's key included
    assert out("""
    var o = {0.00001: "small", 0.0000001: "tiny"};
    o[0.000001] = "six";
    print(o["0.00001"], o[0.00001], o["1e-7"], o["0.000001"], o["1e-06"]);
    """) == "small small tiny six undefined\n"
    assert err("var o = {}; o[true] = 1;").error_kind == "TypeError"


def test_member_access_on_primitives_errors():
    assert err("var x = 1; print(x.y);").error_kind == "TypeError"
    assert err("null.x = 1;").error_kind == "TypeError"
    assert err('print("s".length);').error_kind == "TypeError"


def test_method_call_on_missing_property():
    assert err("var o = {}; o.m();").error_kind == "TypeError"


def test_calling_non_function():
    assert err("var x = 5; x();").error_kind == "TypeError"
    assert err("var o = {}; o();").error_kind == "TypeError"


# Every way of calling a value that cannot be called fails with the same
# kind, message and line: a call, a method call, Reflect.apply, an apply
# trap, and the host's call_value and obj.call.

CALL_SETUP = """var rp = new Proxy(function() { return 1; }, {});
Proxy.revoke(rp);
var pp = new Proxy({}, {});
"""
NOT_CALLABLE = {"number": "5", "object": "{}", "revoked proxy": "rp",
                "proxy over an object": "pp"}
CALL_SITES = {
    "call": "var f = %s;\nf();",
    "method call": "var o = {m: %s};\no.m();",
    "Reflect.apply": "Reflect.apply(%s, undefined, {length: 0});",
    "apply trap": "var q = new Proxy(function() {}, {apply: %s});\nq();",
    "call in an apply trap": "var v = %s;\n"
                             "var q = new Proxy(function() {}, "
                             "{apply: function(t, h, a) {\n"
                             "  return v();\n}});\nq();",
}
REVOKED = ("RevokedProxyError", "'apply' on a revoked proxy")
CALL_ERRORS = {
    "call": {"number": ("TypeError", "number is not callable"),
             "object": ("TypeError", "object is not callable"),
             "revoked proxy": REVOKED,
             "proxy over an object": ("TypeError", "object is not callable")},
    "Reflect.apply": {
        "number": ("TypeError", "Reflect.apply needs a callable"),
        "object": ("TypeError", "Reflect.apply needs a callable"),
        "revoked proxy": REVOKED,
        "proxy over an object":
            ("TypeError", "Reflect.apply needs a callable")},
    "apply trap": {
        "number": ("TypeError", "trap 'apply' is not callable"),
        "object": ("TypeError", "trap 'apply' is not callable"),
        "revoked proxy": REVOKED,
        "proxy over an object":
            ("TypeError", "trap 'apply' is not callable")},
}
CALL_ERRORS["method call"] = CALL_ERRORS["call in an apply trap"] = \
    CALL_ERRORS["call"]
CALL_LINES = {"call": 5, "method call": 5, "Reflect.apply": 4,
              "apply trap": 5, "call in an apply trap": 6}


@pytest.mark.parametrize("mode", MODE_NAMES)
@pytest.mark.parametrize("site", CALL_SITES)
@pytest.mark.parametrize("callee", NOT_CALLABLE)
def test_call_errors_agree_across_call_sites(callee, site, mode):
    result = err(CALL_SETUP + CALL_SITES[site] % NOT_CALLABLE[callee], mode)
    assert (result.error_kind, result.error_message, result.error_line) \
        == CALL_ERRORS[site][callee] + (CALL_LINES[site],)


@pytest.mark.parametrize("callee", NOT_CALLABLE)
def test_host_call_errors_agree(callee):
    interp = Interpreter()
    assert evaluate_program(parse_source(
        CALL_SETUP + f"var v = {NOT_CALLABLE[callee]};"), interp).ok
    value = interp.globals.lookup("v")
    attempts = [lambda: interp.call_value(value, UNDEFINED, [])]
    if callee != "number":
        attempts.append(lambda: value.call(interp, UNDEFINED, []))
    for attempt in attempts:
        with pytest.raises(PlxRuntimeError) as caught:
            attempt()
        assert (caught.value.kind, caught.value.message, caught.value.line) \
            == CALL_ERRORS["call"][callee] + (None,)
    assert interp.depth == 0


# An isTransparent trap votes with the truthiness of its answer; one that
# cannot be called votes opaque. Proxy.isEqual looks through regardless.
TRANSPARENCY_VOTES = [
    ("1", False),
    ("{}", False),
    ("new Proxy(function(t, p) { return true; }, {})", True),
    ("new Proxy(function(t, p) { return false; }, {})", False),
    ("typeofValue", True),
    ("function(t, p) { return true; }", True),
    ("function(t, p) { return false; }", False),
    ("function(t, p) { return 1; }", True),
    ("function(t, p) { return 0; }", False),
    ('function(t, p) { return ""; }', False),
    ('function(t, p) { return "x"; }', True),
    ("function(t, p) { return {}; }", True),
    ("function(t, p) { return undefined; }", False),
    ("function(t, p) { return null; }", False),
    ("function(t, p) { return 0 / 0; }", False),
]


@pytest.mark.parametrize("trap, vote", TRANSPARENCY_VOTES,
                         ids=[trap for trap, _ in TRANSPARENCY_VOTES])
def test_is_transparent_votes_by_trap_kind(trap, vote):
    seen = "true" if vote else "false"
    assert out(f"""var o = {{}};
    var p = new Proxy(o, {{isTransparent: {trap}}});
    print(p === o, p == o, p !== o, Proxy.isEqual(p, o));
    """, "trap") == f"{seen} {seen} {'false' if vote else 'true'} true\n"


# --- new ---

def test_new_only_constructs_proxy():
    assert out("var p = new Proxy({}, {}); print(typeofValue(p));") \
        == "object\n"
    assert err("var o = {}; new o();").error_kind == "TypeError"
    assert err("function f() {} new f();").error_kind == "TypeError"
    assert err("new Proxy({});").error_kind == "TypeError"
    assert err("new Proxy({}, {}, {});").error_kind == "TypeError"
    assert err("new Proxy(1, {});").error_kind == "TypeError"


def test_builtin_typeof():
    assert out("""
    print(typeofValue(1), typeofValue("s"), typeofValue(true));
    print(typeofValue(null), typeofValue(undefined));
    print(typeofValue({}), typeofValue(function() {}),
          typeofValue(new Proxy({}, {})));
    """) == "number string boolean\nnull undefined\nobject object object\n"


def test_reflect_apply():
    assert out("""
    function add(a, b) { return a + b; }
    print(Reflect.apply(add, undefined, { 0: 1, 1: 2, length: 2 }));
    """) == "3\n"
    assert err("Reflect.apply(1, undefined, {});").error_kind == "TypeError"
    assert err("function f() {} Reflect.apply(f, undefined, 5);") \
        .error_kind == "TypeError"


def test_builtin_surface():
    interp = Interpreter()
    bindings = interp.globals.bindings
    assert sorted(bindings) == [
        "Proxy", "RawWeakMap", "Reflect", "WeakMap", "contractViolation",
        "print", "typeofValue"]
    assert len(interp.heap) == 12

    def assert_native(value, name):
        assert isinstance(value.function, NativeFunction)
        assert value.function.name == name

    for name in ("print", "typeofValue", "contractViolation", "WeakMap",
                 "RawWeakMap"):
        assert_native(bindings[name], name)
    members = {"Reflect": ["apply"],
               "Proxy": ["revoke", "isEqual", "isIdentical",
                         "withTransparency"]}
    for name, keys in members.items():
        assert bindings[name].function is None
        assert list(bindings[name].properties) == keys
        for key in keys:
            assert_native(bindings[name].properties[key], key)

    # each map allocates itself and its four methods
    for name in ("WeakMap", "RawWeakMap"):
        allocated = len(interp.heap)
        wm = interp.call_value(bindings[name], UNDEFINED, [])
        assert len(interp.heap) == allocated + 5
        assert list(wm.properties) == ["set", "get", "has", "delete"]
        for key, method in wm.properties.items():
            assert_native(method, key)

    # 'new' accepts the Proxy object and no other global
    assert interp._proxy_builtin is bindings["Proxy"]
    assert evaluate_program(parse_source("new Proxy({}, {});"), interp).ok
    for name in sorted(bindings.keys() - {"Proxy"}):
        result = evaluate_program(
            parse_source(f"new {name}({{}}, {{}});"), interp)
        assert result.error_message == "'new' can only construct Proxy"


# --- stack limit ---

def test_call_stack_boundary_exact():
    template = """
    function rec(n) {
      if (n <= 0) { return 0; }
      return rec(n - 1) + 1;
    }
    print(rec(%d));
    """
    assert out(template % 1023) == "1023\n"
    result = err(template % 1024)
    assert result.error_kind == "StackOverflow"
    assert "1024" in result.error_message


def test_stack_depth_resets_between_runs():
    interp = Interpreter()
    program = parse_source("function f() { return 1; } f();")
    evaluate_program(program, interp)
    assert interp.depth == 0


def test_stack_depth_resets_after_overflow():
    source = "function f() { return f(); } f();"
    program = parse_source(source)
    interp = Interpreter()
    result = evaluate_program(program, interp)
    assert result.error_kind == "StackOverflow"
    assert interp.depth == 0
    # the interpreter stays usable
    follow_up = evaluate_program(parse_source("print(1);"), interp)
    assert follow_up.ok


def tall_tree(open_, close, levels, terms):
    """levels trees, each nested in the next through open_ and close as
    the first operand of a sum, which the g-th from the outside continues
    with terms - g more terms."""
    return functools.reduce(
        lambda src, g: open_ + src + " + 1" * (terms - g) + close,
        range(levels, 0, -1), "1")


# trees far taller than the parser's expression bound, though each of
# their chains is shorter than it: each chain's first operand is the next
# tree, nested through call arguments, prefix operators, object-literal
# values, '?:' arms, computed keys or immediately invoked function
# expressions. Whatever the parser decides about them, running one gives a
# result or a ParseError, never a host exception, and pretty_print prints
# every one the parser accepts
TALL_TREES = [
    pytest.param("function f(x) { return x; } print("
                 + tall_tree("f(", ")", 380, 390) + ");",
                 id="380 nested calls"),
    pytest.param("print(" + functools.reduce(
        lambda src, g: "(-" + src + " + 1" * (395 - 2 * g) + ")",
        range(190, 0, -1), "1") + ");", id="190 nested negations"),
    pytest.param("print(" + tall_tree("{a: ", "}", 380, 390) + ");",
                 id="380 nested object-literal values"),
    pytest.param("var c = true; print(" + functools.reduce(
        lambda src, g: "(c ? " + src + " + 1" * (395 - 2 * g) + " : 0)",
        range(190, 0, -1), "1") + ");", id="190 nested conditional arms"),
    pytest.param("var o = {}; print(" + tall_tree("o[", "]", 380, 390)
                 + ");", id="380 nested computed keys"),
    pytest.param("print(" + tall_tree("function () { return ", "; }()",
                                      380, 390) + ");",
                 id="380 nested immediately invoked functions"),
]


@pytest.mark.parametrize("source", TALL_TREES)
def test_tall_trees_never_leak_a_host_exception(source):
    interp = Interpreter()
    escaped = None
    for entry in (run_source,
                  lambda src: evaluate_program(parse_source(src), interp),
                  lambda src: pretty_print(parse_source(src))):
        try:
            result = entry(source)
        except ParseError:
            continue
        except Exception as exc:
            escaped = type(exc).__name__
            break
        if isinstance(result, str):  # what pretty_print printed
            continue
        assert isinstance(result, ExecutionResult)
        assert result.status in ("ok", "error")
    # failing outside the handler keeps the 20,000-frame traceback out of
    # the report
    assert escaped is None, f"a host {escaped} escaped"
    assert interp.depth == 0
    assert evaluate_program(parse_source("print(1);"), interp).ok


HANDLER_CHAIN_PROBE = '''
import json
from proxylang.interpreter import Interpreter, evaluate_program
from proxylang.parser import parse_source
from proxylang.proxies import proxy_create

interp = Interpreter(mode="trap")
h = interp.heap.alloc_object()
for _ in range(100_000):
    h = proxy_create(interp, interp.heap.alloc_object(), h)
interp.globals.declare("h", h)
program = parse_source("""
var q = new Proxy({}, {});
print("before");
Proxy.withTransparency(q, true, function() {
  print(new Proxy({x: 1}, h).x);
});
""")
try:
    result = evaluate_program(program, interp)
except RecursionError:
    print(json.dumps({"escaped": True}))
else:
    follow_up = evaluate_program(parse_source("print(1);"), interp)
    print(json.dumps({
        "escaped": False, "status": result.status,
        "error_kind": result.error_kind, "output": result.output,
        "depth": interp.depth, "override_stack": len(interp.override_stack),
        "follow_up_ok": follow_up.ok}))
'''


def test_host_recursion_comes_back_as_stack_overflow():
    # reading a trap through 100,000 handlers, each a proxy whose own
    # handler is the next, recurses once per handler on the host stack;
    # evaluate_program must still return a result, with the call depth
    # and the override stack unwound
    proc = run_in_child(HANDLER_CHAIN_PROBE)
    assert proc.returncode == 0, proc.stderr[-2000:]
    probe = json.loads(proc.stdout)
    if probe["escaped"]:
        pytest.fail("a host RecursionError escaped evaluate_program")
    assert (probe["status"], probe["error_kind"]) == ("error", "StackOverflow")
    assert probe["output"] == "before\n"
    assert probe["depth"] == 0
    assert probe["override_stack"] == 0
    assert probe["follow_up_ok"]


DEEP_FORWARDING = """
var h = {};
function chain(t) {
  var i = 0;
  while (i < 100000) { t = new Proxy(t, h); i = i + 1; }
  return t;
}
var o = {x: 1};
var p = chain(o);
print(p.x);
p.y = 2;
print(p.y, o.y);
var f = chain(function(a, b) { return a + b; });
print(f(40, 2));
print(Reflect.apply(f, undefined, { 0: 1, 1: 2, length: 2 }));
"""


@pytest.mark.parametrize("mode", MODE_NAMES)
def test_deep_forwarding_chain_reaches_target(mode):
    before = resource.getrlimit(resource.RLIMIT_STACK)
    assert out(DEEP_FORWARDING, mode) == "1\n2 2\n42\n3\n"
    assert resource.getrlimit(resource.RLIMIT_STACK) == before


def test_interpreter_leaves_the_stack_rlimit_alone():
    # in a child whose soft limit is below its hard one, so that a raise
    # would show
    proc = run_in_child("""
import resource
from proxylang.interpreter import Interpreter
_, hard = resource.getrlimit(resource.RLIMIT_STACK)
if hard == resource.RLIM_INFINITY or hard > 8 << 20:
    resource.setrlimit(resource.RLIMIT_STACK, (8 << 20, hard))
before = resource.getrlimit(resource.RLIMIT_STACK)
Interpreter()
print(before == resource.getrlimit(resource.RLIMIT_STACK))
""")
    assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr


def test_host_memory_exhaustion_comes_back_as_resource_error():
    def exhausted(interp, this, args):
        raise MemoryError
    interp = Interpreter()
    interp.globals.declare("allocate", interp.alloc_native("allocate",
                                                          exhausted))
    result = evaluate_program(parse_source("""
    function f() { return allocate(); }
    print("before");
    f();
    """), interp)
    assert (result.status, result.error_kind) == ("error", "ResourceError")
    assert result.output == "before\n"
    assert interp.depth == 0
    follow_up = evaluate_program(parse_source("print(1);"), interp)
    assert follow_up.ok


# --- error reporting ---

def test_runtime_error_lines():
    result = err("var a = 1;\nvar b = 2;\nprint(missing);\n")
    assert result.error_kind == "ReferenceError"
    assert result.error_line == 3


def test_error_line_inside_function_body():
    result = err("""function f() {
  return boom;
}
f();
""")
    assert result.error_line == 2


def test_output_preserved_up_to_error():
    result = err('print("one");\nprint("two");\nboom;')
    assert result.output == "one\ntwo\n"
    assert result.error_line == 3


# An error takes the line of the innermost node that raises it: the node
# itself, not the statement around it, and in a called function the
# callee's line, not the call site's.

ERROR_LINES = [
    ("undefined identifier",
     "var a = 1;\nprint(a +\n  nope);", "ReferenceError", 3),
    ("property read on a primitive",
     "var n = 1;\nprint(n.x);", "TypeError", 2),
    ("computed key of the wrong type",
     "var o = {};\nprint(o[\n  null]);", "TypeError", 2),
    ("method call on a primitive",
     'var s = "a";\n\ns.m();', "TypeError", 3),
    ("call of a non-callable",
     "var f = 1;\nprint(\n  f(\n    2));", "TypeError", 3),
    ("method call of a missing method",
     "var o = {};\no.nothing();", "TypeError", 2),
    ("new of a non-Proxy",
     "var F = {};\nvar x = new F({}, {});", "TypeError", 2),
    ("binary type error",
     "var a = {};\nvar b = 1 -\n  a;", "TypeError", 2),
    ("unary type error",
     'var u = -\n  "s";', "TypeError", 1),
    ("property set on a primitive",
     "var n = 1;\nn.x = 2;", "TypeError", 2),
    ("assignment to an undeclared name",
     "var a = 1;\nnope = 2;", "ReferenceError", 2),
    ("revoked-proxy trap inside a multi-line expression",
     "var p = new Proxy({x: 1}, {});\nProxy.revoke(p);\n"
     "print(1 +\n  2 +\n  p.x +\n  3);", "RevokedProxyError", 5),
    ("error from a native builtin",
     'var a = 1;\ncontractViolation(\n  "no");', "ContractViolation", 2),
    ("error inside a called function",
     "function f(o) {\n  return o.x.y;\n}\nf({});", "TypeError", 2),
    ("stack overflow at the call",
     "function f() {\n  return 1 + f();\n}\nf();", "StackOverflow", 2),
]


@pytest.mark.parametrize("mode", MODE_NAMES)
@pytest.mark.parametrize("source, kind, line",
                         [case[1:] for case in ERROR_LINES],
                         ids=[case[0] for case in ERROR_LINES])
def test_error_kind_and_line_by_node(source, kind, line, mode):
    result = err(source, mode)
    assert (result.error_kind, result.error_line) == (kind, line), \
        result.error_message


def test_static_errors_raise():
    with pytest.raises(ParseError):
        run_source("var = 1;")
    with pytest.raises(LexError):
        run_source('var s = "open;')


# --- determinism and isolation ---

def test_runs_are_deterministic():
    source = """
    var o = { a: 1, b: 2, c: 3 };
    var wm = WeakMap();
    wm.set(o, "v");
    print(wm.get(o), o.a + o.b + o.c);
    """
    outputs = {run(source).output for _ in range(5)}
    assert len(outputs) == 1


def test_interpreters_do_not_share_state():
    i1 = Interpreter()
    i2 = Interpreter()
    evaluate_program(parse_source("var x = 1;"), i1)
    result = evaluate_program(parse_source("print(x);"), i2)
    assert result.error_kind == "ReferenceError"
    assert len(i2.heap) <= len(i1.heap)


def test_mode_strings_accepted():
    for name in MODE_NAMES:
        assert Interpreter(mode=name).mode == EqualityMode(name)
    with pytest.raises(ValueError):
        Interpreter(mode="bogus")


def test_custom_sink():
    sink = io.StringIO()
    result = run_source('print("to sink");', sink=sink)
    assert sink.getvalue() == "to sink\n"
    assert result.output == "to sink\n"


@pytest.mark.parametrize("source, value", [
    ("var x = 2; x + 1;", 3.0),
    ('print("a");', UNDEFINED),
    ("1; var x = 2;", None),
    ("", None),
    ("1; if (true) { 2; }", None),
])
def test_result_value_is_the_last_expression_statement(source, value):
    result = run(source)
    assert result.ok
    assert result.value == value


def test_result_value_is_none_on_error():
    result = run("1; boom;")
    assert (result.ok, result.value) == (False, None)


def test_runs_share_one_parsed_prelude(monkeypatch):
    # a prelude text no other test uses, so its first run parses it
    prelude = default_prelude_source() + "\nvar probe = 7;\n"
    source = """
    var t = {v: 1};
    var r = revocable(t);
    var m = membrane(t);
    print(r.proxy == t, r.proxy :==: t, m.wrapper.v, probe);
    r.revoke();
    print(r.proxy == t);
    """
    parses = []

    def counting_parse(text):
        parses.append(text)
        return parse_source(text)
    monkeypatch.setattr(interpreter, "parse_source", counting_parse)
    for _ in range(2):
        for mode in MODES:
            interp = Interpreter(mode=mode)
            assert evaluate_program(parse_source(prelude), interp).ok
            fresh = evaluate_program(parse_source(source), interp)
            assert fresh.ok, fresh.error_message
            assert run_source(source, mode=mode, prelude_source=prelude) \
                == fresh
    assert parses.count(prelude) == 1
    cached = interpreter._parse_prelude(prelude)
    assert pretty_print(cached) == pretty_print(parse_source(prelude))
    assert cached == parse_source(prelude)


def test_prelude_error_is_reported():
    result = run_source("print(1);", prelude_source="boom;")
    assert not result.ok
    assert result.error_kind == "ReferenceError"
    assert result.output == ""


# --- what run_source leaves for the cyclic collector ---

LEAK_PROBE = """
function f() { return 1; }
var o = {f: f};
var p = new Proxy(o, {isTransparent: function(t, q) { return true; }});
print(f());
print(p === o);
"""

# a WeakMap's and a RawWeakMap's methods do not close over the map
MAP_PROBE = """
var m = WeakMap();
var r = RawWeakMap();
var k = {};
m.set(k, 1).set(k, 2);
r.set(k, m);
print(m.get(k), r.get(k) :===: m);
"""


@pytest.mark.parametrize("mode", MODE_NAMES)
@pytest.mark.parametrize("source, prelude, expected", [
    (LEAK_PROBE, None, ("ok", None)),
    ("var a = 1; print(a); b;", None, ("error", "ReferenceError")),
    ("print(1);", "var x = y;", ("error", "ReferenceError")),
    (MAP_PROBE, None, ("ok", None)),
], ids=["script", "script-error", "prelude-error", "maps"])
def test_run_source_leaves_no_cyclic_garbage(source, prelude, expected, mode,
                                            prelude_source):
    # run_source releases its interpreter's globals, so reference counting
    # frees the run: the functions, the proxy, the prelude's closures and
    # a caught error's frames; without the release, a trap-mode LEAK_PROBE
    # left about 60 objects to the collector, and while a map's set
    # returned the map it closed over, MAP_PROBE left 45
    gc.collect()
    gc.disable()
    try:
        result = run_source(source, mode=mode,
                            prelude_source=prelude or prelude_source)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert (result.status, result.error_kind) == expected


def test_a_returned_object_keeps_the_globals_it_reads():
    value = run_source("var x = 41; function f() { return x + 1; } f;").value
    assert Interpreter().call_value(value, UNDEFINED, []) == 42.0
    obj = run_source("var x = 41; var o = {m: function() { return x + 1; }};"
                     " o;").value
    host = Interpreter()
    assert host.call_value(obj.get(host, "m"), obj, []) == 42.0


def test_releasing_a_long_structure_is_safe():
    # freeing the chain by reference counting nests one deallocation per
    # link, which CPython's trashcan flattens; a child, in case it did not
    proc = run_in_child("""
from proxylang import run_source
result = run_source(
    "var head = null; var i = 0;"
    " while (i < 200000) { head = {next: head}; i = i + 1; } print(i);")
print(result.status, result.output, end="")
""")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "ok 200000\n"


# --- equality operators through the evaluator ---

def test_equality_ops_respect_mode():
    source = """
    var t = {};
    var p = new Proxy(t, { isTransparent: function(tt, pp) { return true; } });
    print(p == t, p === t, p != t, p !== t, p :==: t, p :===: t);
    """
    assert out(source, mode="opaque") \
        == "false false true true false false\n"
    assert out(source, mode="trap") == "true true false false false false\n"
    assert out(source, mode="transparent") \
        == "true true false false false false\n"
    assert out(source, mode="operators") \
        == "true true false false false false\n"


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=30))
def test_loop_count_model(n):
    source = f"""
    var i = 0;
    var total = 0;
    while (i < {n}) {{ total = total + i; i = i + 1; }}
    print(total);
    """
    assert out(source) == f"{n * (n - 1) // 2}\n"


def test_every_node_class_has_a_handler():
    # an expression evaluates itself, a statement executes itself, and a
    # Block or Program is neither: its statements run in a loop
    for node_class in typing.get_args(nodes.Expr):
        assert callable(getattr(node_class, "evaluate", None)), node_class
        assert not hasattr(node_class, "execute"), node_class
    for node_class in typing.get_args(nodes.Stmt):
        assert callable(getattr(node_class, "execute", None)), node_class
        assert not hasattr(node_class, "evaluate"), node_class
    for node_class in (nodes.Block, nodes.Program):
        assert not hasattr(node_class, "evaluate"), node_class
        assert not hasattr(node_class, "execute"), node_class


def test_a_bare_block_is_not_a_statement():
    # the parser builds a Block only as the body of an if, a while or a
    # function, so a host's Program that holds one as a statement is
    # refused, like any other non-statement
    program = nodes.Program([
        nodes.Block([nodes.VarDecl("x", nodes.NumberLit(1.0))]),
        nodes.ExprStmt(nodes.Identifier("x"))])
    with pytest.raises(TypeError, match="not a statement node"):
        pretty_print(program)
    with pytest.raises(AttributeError, match="execute"):
        evaluate_program(program, Interpreter())


@pytest.mark.parametrize("literal,read", [
    ("{1.50: 7}", "o[1.5]"), ("{0.50: 7}", "o[0.5]"),
    ("{100000000000000000000000: 7}", "o[100000000000000000000000]"),
    ("{1.50: 7}", 'o["1.5"]'),
])
def test_numeric_literal_keys_meet_computed_keys(literal, read):
    assert out(f"var o = {literal}; print({read});") == "7\n"
