"""Host frames per language call and per parse, counted, never timed.

A language call and a trap-mode isTransparent vote each pass through a
fixed chain of Python frames. These tests count the frames one call and
one vote enter (sys.setprofile "call" events) and bound them by today's
count (a vote through a `return true;` trap, at one link or at fifty,
must enter no invoke at all, and a repeat through fifty must ask no link,
nor a walk from the middle of a memoised path or under an override, and
memoised operands must enter no resolver),
so that a refactor that puts frames back on the call path fails here
instead of only showing up as a slower trap-mode benchmark; so are the frames one iteration of a numeric while
loop enters, with and without a scoped block. So are a read through a chain of trap-less proxies,
which must not grow with the chain, one membrane read, a WeakMap probe,
primitive equality, two strings, an if or a '?:' on a bool, a number
literal as a right operand, which must enter no frame, the equality workload's statement,
print and Proxy.isIdentical, which must enter no helper (render_value,
raw_identical, arg or write), and the literals that must not enter a
comprehension's frame. So are the scopes a call or a loop builds, counted
by line-tracing the evaluator's statements that build one. A repeated
look-through of a deep proxy chain is bounded in lines run (sys.settrace
"line" events), so that losing its memo fails here, and so is a read
through trap-less links, with one handler for all and with one a link. The parser's deepest inputs are
bounded too, both in frames entered and in frames on the stack at once,
which HOST_RECURSION_LIMIT must cover: one parser frame a parenthesis or
a '?:' arm, two an object-literal value, three a nested 'if' and six a
nested function expression (2,402 frames on the stack for 400 'if' blocks
around 399 object literals, each value in parentheses, and 2,397 for 399
nested functions, counted from parse). So are parsing the prelude and
the benchmark's scripts, where the parser enters fewer frames than it
reads tokens, and the lexer, which enters no frame per token or per line.
"""

import gc
import sys

import pytest

from proxylang import interpreter
from proxylang.errors import ParseError
from proxylang.interpreter import Interpreter, evaluate_program
from proxylang.lexer import tokenize
from proxylang.objects import UNDEFINED
from proxylang.parser import parse, parse_expression, parse_source
from proxylang.prelude import default_prelude_source

from conftest import MODES
from test_front_end import scripts_programs


def names_entered(function, *args):
    """The value of function(*args) and the names of the Python frames
    it entered, its own first. The collector is off meanwhile, as in
    frames(), so no collection callback (hypothesis registers one) is
    counted."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        value = function(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return value, names


def frames_entered(mode, setup, expression):
    """The value of expression and the names of the Python frames its
    evaluation entered, after setup has run in a fresh interpreter."""
    interp = Interpreter(mode=mode)
    assert evaluate_program(parse_source(setup), interp).ok
    node = parse_expression(expression)
    return names_entered(node.evaluate, interp, interp.globals)


def test_one_language_call():
    # _call, _identifier, _literal, invoke and _identifier: _call enters
    # invoke directly, which binds the parameters and builds the scope, one
    # dict, without a frame of its own, and runs the body's return itself
    # (7 frames with _return)
    value, names = frames_entered(
        "opaque", "function f(x) { return x; }", "f(1)")
    assert value == 1.0
    assert names.count("invoke") == 1
    assert "_return" not in names
    assert len(names) <= 5, names


def test_one_trap_mode_vote():
    # _binary, two _identifier and the === operator's lambda,
    # strict_equals, and get_equality_object, the trap-mode resolver, for
    # the proxy operand only; is_transparent, which reads the ordinary
    # handler's trap from its properties; strict_equals compares the
    # results itself (one frame more with raw_identical). A trap whose
    # body is `return true;` is answered by its record's constant, with no
    # invoke and no _literal (10 frames when it was invoked). Any other
    # trap is invoked directly, with no frame before invoke, which runs its
    # return itself: `return yes;` adds invoke and _identifier (12 frames
    # with the handler's get, _return and raw_identical, 13 when each
    # operand went through a resolver that branched on the mode)
    setup = ("var yes = true; var o = {}; var p = new Proxy(o, "
             "{isTransparent: function(t, p) { %s }});")
    for body, calls, most in (("return true;", 0, 7),
                              ("return yes;", 1, 9)):
        value, names = frames_entered("trap", setup % body, "p === o")
        assert value is True
        assert names.count("is_transparent") == 1
        assert names.count("invoke") == calls, body
        for skipped in ("get", "_return", "_literal"):
            assert skipped not in names, (body, skipped)
        assert len(names) <= most, (body, names)


def test_votes_through_a_chain_of_constant_traps():
    # p === o through 50 links whose traps are `return true;`: one
    # is_transparent a link and no invoke, 57 frames (157 when each vote
    # was invoked)
    value, names = frames_entered(
        "trap",
        "var o = {}; var p = o; var i = 0; while (i < 50) { p = new Proxy("
        "p, {isTransparent: function(t, q) { return true; }}); i = i + 1; }",
        "p === o")
    assert value is True
    assert names.count("is_transparent") == 50
    assert "invoke" not in names
    assert len(names) <= 57, names


CHAIN = ("var yes = true; var o = {}; var p = o; var i = 0; while (i < 50) {"
         " p = new Proxy(p, {isTransparent: i == %d ? function(t, q) {"
         " return yes; } : function(t, q) { return true; }}); i = i + 1; }")


def repeated_votes(setup, repeats):
    """The value and frames of each p === o in trap mode after the
    first."""
    interp = Interpreter(mode="trap")
    assert evaluate_program(parse_source(setup), interp).ok
    node = parse_expression("p === o")
    assert node.evaluate(interp, interp.globals) is True
    return [names_entered(node.evaluate, interp, interp.globals)
            for _ in range(repeats)]


def test_repeated_vote_through_constant_traps_is_memoised():
    # the first walk through 50 `return true;` links memoised its end on
    # p, so the second asks no link and strict_equals reads the memo
    # itself: _binary, two _identifier, the lambda and strict_equals (6
    # frames when it called get_equality_object for it)
    (value, names), = repeated_votes(CHAIN % -1, 1)
    assert value is True
    assert "is_transparent" not in names
    assert len(names) <= 5, names


MEMOISED = ("var o = {}; var p = o; var q = o; var i = 0; while (i < 50) {"
            " p = new Proxy(p, {isTransparent: function(t, q) {"
            " return true; }}); i = i + 1; if (i == 25) { q = p; } }"
            " var r = new Proxy({}, {}); var first = p === o;")


def test_a_memoised_path_answers_from_its_links_and_under_overrides():
    # the first p === o through 50 `return true;` links stored its end on
    # every link, so a walk from q, the 25th, asks no vote; an override of
    # r, on no link of p's path, leaves the path's memo standing, and an
    # override of q, on it, is applied where the path reaches q, again
    # with no vote (50 and 25 is_transparent when only p's memo was kept
    # and an override made every walk vote)
    within = "Proxy.withTransparency(%s, %s, function() { return p === o; })"
    for expression, expected in (("q === o", True),
                                 (within % ("r", "false"), True),
                                 (within % ("q", "false"), False),
                                 (within % ("q", "true"), True)):
        value, names = frames_entered("trap", MEMOISED, expression)
        assert value is expected, expression
        assert "is_transparent" not in names, expression


def test_memoised_operands_enter_no_resolver():
    # once both operands' walks are memoised, Proxy.isIdentical reads
    # their endpoint memos itself, and === each memo of its mode's walk
    setup = ("var o = {}; var h = {isTransparent: function(t, q) {"
             " return true; }}; var b = new Proxy(o, h);"
             " var c = new Proxy(new Proxy(o, h), h);"
             " var first = Proxy.isIdentical(b, c) && b === c;")
    for mode, expression, resolver in (
            ("opaque", "Proxy.isIdentical(b, c)", "look_through"),
            ("transparent", "b === c", "look_through"),
            ("trap", "b === c", "get_equality_object")):
        value, names = frames_entered(mode, setup, expression)
        assert value is True, mode
        assert resolver not in names, (mode, names)


def test_one_vote_that_runs_code_is_asked_on_every_repeat():
    # link 25's trap reads a global, so no walk through it is memoised
    # and each repeat asks all 50 links and invokes that one trap
    for value, names in repeated_votes(CHAIN % 25, 3):
        assert value is True
        assert names.count("is_transparent") == 50
        assert names.count("invoke") == 1


def scope_lines():
    """The lines of interpreter.py that build a scope: each is a dict
    display whose "." entry is the enclosing scope, one in invoke, one in
    _if and one in _while."""
    with open(interpreter.__file__) as source:
        lines = {number for number, text in enumerate(source, 1)
                 if '= {".": ' in text and "globals" not in text}
    assert len(lines) == 3, lines
    return lines


def scopes_built(function, *args):
    """The value of function(*args) and how many scopes it built: the
    sys.settrace "line" events of the statements scope_lines() gives."""
    path, lines, built = interpreter.__file__, scope_lines(), 0

    def trace(frame, event, arg):
        nonlocal built
        if event == "line" and frame.f_lineno in lines:
            built += 1
        return trace

    def enter(frame, event, arg):
        return trace if frame.f_code.co_filename == path else None

    sys.settrace(enter)
    try:
        value = function(*args)
    finally:
        sys.settrace(None)
    return value, built


def test_scopes_built_per_call():
    # a call binds its parameters in a scope of its own only if its body
    # can observe one: a vote through function(t, p) { return true; } and
    # the compute workload's counter closure build none, and
    # function(x) { return x; } builds one
    cases = [
        ("trap", "var o = {}; var p = new Proxy(o, "
         "{isTransparent: function(t, p) { return true; }});",
         "p === o", True, 0),
        ("opaque", "function counter(step) { var c = 0; "
         "return function() { c = c + step; return c; }; } "
         "var k = counter(3); k();", "k()", 6.0, 0),
        ("opaque", "function f(x) { return x; }", "f(1)", 1.0, 1),
    ]
    for mode, setup, expression, expected, scopes in cases:
        interp = Interpreter(mode=mode)
        assert evaluate_program(parse_source(setup), interp).ok
        node = parse_expression(expression)
        value, built = scopes_built(node.evaluate, interp, interp.globals)
        assert value == expected
        assert built == scopes, (expression, built)


RESOLVERS = ("look_through", "get_equality_object")


def test_raw_operators_on_two_proxies():
    # _binary, two _identifier, the operator's lambda and
    # opaque_strict_equals or opaque_loose_equals, which compare two
    # objects inline (:===: entered raw_identical too). Neither enters a
    # resolver, in any mode (9 frames each when they called strict_equals
    # and loose_equals with the opaque mode)
    for mode in MODES:
        for expression, most in (("p :===: q", 5), ("p :==: q", 5)):
            value, names = frames_entered(
                mode,
                "var o = {}; var p = new Proxy(o, {isTransparent: "
                "function(t, q) { return true; }}); var q = new Proxy(o, {});",
                expression)
            assert value is False
            for resolver in RESOLVERS:
                assert resolver not in names, (mode, expression)
            assert len(names) <= most, (mode, expression, names)


PAIR_SETUP = ("var o = {}; var p = new Proxy(o, {isTransparent: "
              "function(t, q) { return true; }}); var q = new Proxy(o, "
              "{isTransparent: function(t, q) { return true; }});")
PAIR = "print(p == q, p === q, p !== q, p :===: q, Proxy.isIdentical(p, q))"
HELPERS = ("render_value", "raw_identical", "arg", "write")


def test_one_equality_workload_statement():
    # the equality workload's statement on one pair, after a p === q has
    # memoised both trap-mode walks: 12 _identifier, four _binary and
    # their lambdas, strict_equals twice, loose_equals,
    # opaque_strict_equals, two look_through, builtin_is_identical, and
    # print's and isIdentical's calls (_call, _method_call, get, two
    # invoke, the Proxy lambda and _builtin_print): 34 frames in both
    # modes, as trap mode's compares read the memos inline (6
    # get_equality_object more when they did not). print renders a bool or
    # a string itself and writes the sink, and the comparisons compare raw
    # identity inline (48 and 54 frames with five render_value, four
    # raw_identical, two arg and a write)
    for mode, most in (("opaque", 34), ("trap", 34)):
        interp = Interpreter(mode=mode)
        assert evaluate_program(parse_source(PAIR_SETUP), interp).ok
        assert parse_expression("p === q").evaluate(
            interp, interp.globals) is (mode == "trap")
        _, names = names_entered(parse_expression(PAIR).evaluate, interp,
                                 interp.globals)
        expected = "true true false false true\n" if mode == "trap" \
            else "false false true false true\n"
        assert interp.output_text() == expected, mode
        for helper in HELPERS:
            assert helper not in names, (mode, helper)
        assert len(names) <= most, (mode, names)


def test_builtins_enter_no_helper():
    # print(true, false, "s"): _call, _identifier, three _literal, invoke
    # and _builtin_print (11 frames with three render_value and a write
    # besides); Proxy.isIdentical(p, q): _method_call, three _identifier,
    # get, invoke, the lambda, builtin_is_identical and two look_through
    # (13 frames with two arg and a raw_identical besides)
    for setup, expression, most in (("", 'print(true, false, "s")', 7),
                                    (PAIR_SETUP, "Proxy.isIdentical(p, q)",
                                     10)):
        value, names = frames_entered("opaque", setup, expression)
        assert value is (UNDEFINED if setup == "" else True)
        for helper in HELPERS:
            assert helper not in names, (expression, helper)
        assert len(names) <= most, (expression, names)


def test_trap_less_links_enter_no_frames():
    # _property_get, _identifier, ProxyObject.get, _forward and the
    # target's get: an unrevoked link whose ordinary handler has no trap
    # is read inline, one dictionary read a link here, where each link
    # has a handler of its own, and none for a link below it with the
    # same handler; so 100 links cost what 1 does (a _trap and a handler
    # get a link would be 205)
    counts = []
    for depth in (1, 100):
        value, names = frames_entered(
            "opaque",
            "var o = {x: 1}; var p = o; var i = 0;"
            f"while (i < {depth}) {{ p = new Proxy(p, {{}}); i = i + 1; }}",
            "p.x")
        assert value == 1.0
        assert "_trap" not in names
        counts.append(len(names))
    assert counts[0] == counts[1] <= 5, counts


def test_one_membrane_read():
    # the membrane's get trap runs wrap(t[key]), whose one RawWeakMap probe
    # comes first and reads its argument inline, never resolving a raw
    # map's key. w.a, with a's wrapper already made, is answered by the
    # probe, a hit: no typeofValue, and if (w) tests an object, so truthy
    # is entered once: 26 frames (43 when typeofValue(value) != "object"
    # came first, 56 when wrap asked innerOf.has, wrapperOf.has and
    # wrapperOf.get). w.n, a number, misses and pays the type test, whose
    # typeofValue reads the kind table inline and whose != compares two
    # strings in _binary: 34 frames (31 when the test came first and
    # skipped the probe). Either way _trap reads the get trap from the
    # ordinary handler's properties and asks no is_callable
    interp = Interpreter()
    assert evaluate_program(parse_source(
        default_prelude_source()
        + "var inner = {a: {v: 1}, n: 1}; var m = membrane(inner);"
        + "var w = m.wrapper; var first = w.a;"), interp).ok
    for expression, expected, typeofs, most in (
            ("w.a", interp.globals["first"], 0, 26),
            ("w.n", 1.0, 1, 34)):
        value, names = names_entered(parse_expression(expression).evaluate,
                                     interp, interp.globals)
        assert value is expected or value == expected, expression
        for helper in ("arg", "_resolve_key", "to_property_key",
                       "raw_identical", "kind_of", "loose_equals",
                       "is_callable") + RESOLVERS:
            assert helper not in names, (expression, helper)
        assert names.count("_builtin_typeof") == typeofs, names
        assert names.count("idmap_get") == 1, names
        assert names.count("truthy") == 1, names
        assert len(names) <= most, (expression, names)


def test_primitive_equality():
    # two strings or two numbers: _binary and two _identifier, as _binary
    # compares them itself (5 frames for two strings when they went through
    # the operator's lambda and loose_equals, 6 with primitive_loose_equals;
    # 6 for two numbers through the lambda); an operand that is not a proxy
    # is never resolved
    for setup, expression, most in (
            ('var a = "x"; var b = "y";', "a != b", 3),
            ("var a = 1; var b = 2;", "a == b", 3)):
        value, names = frames_entered("opaque", setup, expression)
        assert value is (expression == "a != b")
        for resolver in RESOLVERS:
            assert resolver not in names, expression
        assert len(names) <= most, (expression, names)


def test_two_strings_enter_no_operator_entry():
    # _binary answers two strings with the node's operator, as it answers
    # two numbers: no on_others entry (an equality lambda or _plus) and
    # no loose_equals is entered, in any mode
    for mode in MODES:
        for expression, expected in (('"a" + "b"', "ab"), ('"a" < "b"', True),
                                     ('"x" != "y"', True)):
            value, names = frames_entered(mode, "", expression)
            assert value == expected, (mode, expression)
            assert names == ["_binary", "_literal", "_literal"], names


def test_weakmap_probe_of_an_ordinary_key():
    # _method_call, two _identifier, the method read (get), invoke,
    # wm_get and idmap_get: 7 frames.
    # An ordinary key stands for itself in every mode, so it is not
    # resolved, in trap mode no more than in opaque mode (one and two
    # frames more when it was); a proxy key still is, by the mode's
    # resolver, and in opaque mode by none: 8 frames there with
    # _resolve_key, 9 in transparent mode with look_through, and 10 in
    # trap mode with the vote, whose `return true;` is its constant (one
    # frame more each when _resolve_key called a resolver that branched
    # on the mode)
    # each mode's resolver of a proxy key, and the frames its probe enters
    proxy_probe = {"opaque": (None, 8), "transparent": ("look_through", 9),
                   "trap": ("get_equality_object", 10)}
    for mode, (resolver, most) in proxy_probe.items():
        setup = ("var m = WeakMap(); var o = {}; m.set(o, 1); var p = "
                 "new Proxy(o, {isTransparent: function(t, q) "
                 "{ return true; }});")
        value, names = frames_entered(mode, setup, "m.get(o)")
        assert value == 1.0
        assert "_resolve_key" not in names, mode
        assert len(names) <= 7, (mode, names)
        value, names = frames_entered(mode, setup, "m.get(p)")
        assert value == (UNDEFINED if mode == "opaque" else 1.0)
        assert [name for name in names if name in RESOLVERS] \
            == ([] if resolver is None else [resolver]), mode
        assert len(names) <= most, (mode, names)


def test_if_takes_a_bool_condition_as_it_is():
    interp = Interpreter()
    assert evaluate_program(parse_source("var a = 1; var b = 0;"),
                            interp).ok
    _, names = names_entered(
        evaluate_program,
        parse_source("if (a < 2) { b = 1; } else { b = 2; }"), interp)
    assert interp.globals["b"] == 1.0
    assert "_if" in names
    assert "truthy" not in names


def test_conditional_takes_a_bool_condition_as_it_is():
    value, names = frames_entered("opaque", "var c = true;", "c ? 1 : 2")
    assert value == 1.0
    assert names == ["_conditional", "_identifier", "_literal"], names


def test_literals_enter_no_comprehension():
    # _object_lit builds its dict in a loop and _new evaluates its two
    # arguments directly: ({a: 1, b: 2}) enters 5 frames and
    # new Proxy(o, {}) 9, with no <dictcomp> or <listcomp> among them
    for setup, expression, most in (("", "({a: 1, b: 2})", 5),
                                    ("var o = {};", "new Proxy(o, {})", 9)):
        _, names = frames_entered("opaque", setup, expression)
        assert "<dictcomp>" not in names and "<listcomp>" not in names
        assert len(names) <= most, (expression, names)


def frames_per_iteration(loop):
    """How many Python frames one iteration of loop enters: a while loop
    that counts the global i up to n, beside a global s."""
    def entered(n):
        interp = Interpreter()
        assert evaluate_program(
            parse_source(f"var i = 0; var s = 0; var n = {n};"), interp).ok
        count, _ = frames(lambda p: evaluate_program(p, interp),
                          parse_source(loop))
        assert interp.globals["i"] == n
        return count

    return (entered(110) - entered(10)) / 100


def test_one_loop_iteration():
    # 10 frames an iteration of the loop below: _binary and two
    # _identifier for the condition, _assign, _binary and two _identifier
    # for s = s + i, and _assign, _binary and _identifier for i = i + 1,
    # whose literal is read from its node (11 frames with a _literal);
    # _while runs the body itself, and arithmetic and order on two numbers
    # and a bool condition enter none of their own
    per_iteration = frames_per_iteration(
        "while (i < n) { s = s + i; i = i + 1; }")
    assert per_iteration <= 10, per_iteration


def test_number_literal_operands_enter_no_frame():
    # _binary and _identifier: a number literal on the right is read from
    # the Binary node, which the parser gave its value, so it enters no
    # _literal, whatever the operator
    for expression, expected in (("i < 300", True), ("n - 1", 3.0)):
        value, names = frames_entered("opaque", "var i = 1; var n = 4;",
                                      expression)
        assert value == expected
        assert "_literal" not in names, expression
        assert names == ["_binary", "_identifier"], (expression, names)


def test_one_scoped_loop_iteration():
    # a var in the body makes it a scoped block, so each iteration gets a
    # fresh scope, one dict built without a frame: the 10 frames above,
    # plus _var_decl and _identifier for the var (the t that s = s + t
    # reads stands for the i it read): 12. The unscoped loop builds none
    per_iteration = frames_per_iteration(
        "while (i < n) { var t = i; s = s + t; i = i + 1; }")
    assert per_iteration <= 12, per_iteration
    for body, scopes in (("var t = i; s = s + t; i = i + 1;", 10),
                         ("s = s + i; i = i + 1;", 0)):
        interp = Interpreter()
        _, built = scopes_built(evaluate_program, parse_source(
            f"var i = 0; var s = 0; while (i < 10) {{ {body} }}"), interp)
        assert interp.globals["s"] == 45.0
        assert built == scopes, (body, built)


def lines_run(mode, setup, expression):
    """How many Python lines a second evaluation of expression runs
    (sys.settrace "line" events), after setup and a first evaluation."""
    interp = Interpreter(mode=mode)
    assert evaluate_program(parse_source(setup), interp).ok
    node = parse_expression(expression)
    first = node.evaluate(interp, interp.globals)
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return trace

    sys.settrace(trace)
    try:
        value = node.evaluate(interp, interp.globals)
    finally:
        sys.settrace(None)
    assert value == first
    return value, lines


def test_lines_per_trap_less_link():
    # p.x through 1,001 links against 1. A link whose ordinary handler has
    # no get trap runs 7 lines of _forward, one dictionary read among
    # them; each link below it with the same handler, unrevoked, runs 2,
    # the inner loop's condition and its step, and reads nothing (8 lines
    # a link, shared handler or not, when every handler was read)
    def per_link(handler):
        counts = [lines_run(
            "opaque",
            "var o = {x: 1}; var h = {}; var p = o; var i = 0;"
            f"while (i < {depth}) {{ p = new Proxy(p, {handler}); "
            "i = i + 1; }", "p.x")[1] for depth in (1, 1001)]
        return (counts[1] - counts[0]) / 1000

    assert per_link("h") <= 2
    assert per_link("{}") <= 7


def test_look_through_is_memoised():
    # the first Proxy.isIdentical walks 10,000 links; the second answers
    # from the operand's endpoint memo, so the chain's depth is not paid
    # again: 59 lines, where an unmemoised walk runs two lines a link,
    # 20,057 in all
    value, lines = lines_run(
        "opaque",
        "var o = {}; var p = o; var i = 0;"
        "while (i < 10000) { p = new Proxy(p, {}); i = i + 1; }",
        "Proxy.isIdentical(p, o)")
    assert value is True
    assert lines <= 100, lines


def frames(function, argument):
    """How many Python frames function(argument) entered, itself
    included, and how many of them were on the stack at once at the
    deepest point. The collector is off meanwhile, so no collection
    callback is counted."""
    entered = depth = deepest = 0

    def profile(frame, event, arg):
        nonlocal entered, depth, deepest
        if event == "call":
            entered += 1
            depth += 1
            deepest = max(deepest, depth)
        elif event == "return":
            depth -= 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        function(argument)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return entered, deepest


def test_tokenize_enters_no_frame_per_token():
    # the scan fills lists of lexemes and lines, so lexing 33 tokens a
    # line, of every kind (keywords, names, numbers, strings, operators,
    # punctuation, a comment), 726 in all, enters tokenize and the Tokens
    # it returns (a token class would enter its __init__ once a token)
    source = ('if (a.b[0] != "x" && c <= 1.5) { f(a, {k: -2}, p :===: q); }'
              " // why\n") * 22
    assert len(tokenize(source)) == 33 * 22
    entered, _ = frames(tokenize, source)
    assert entered <= 2, entered


def test_tokenize_enters_no_frame_per_line():
    # one findall a line, and the check of a line that ends in a comment
    # inline: 1,000 lines enter what 10 do; a comment that spans lines
    # costs one frame more for the whole source, the pass that blanks it
    def lines(n):
        return ("var x = 1; // one\n" * n + "/* spans\n lines */ x;\n"
                + "// two\n" * n)

    counts = []
    for n in (10, 1000):
        assert len(tokenize(lines(n))) == 5 * n + 2
        entered, _ = frames(tokenize, lines(n))
        counts.append(entered)
    assert counts[0] == counts[1] <= 3, counts


def test_parsing_the_prelude():
    # 312 frames for 682 tokens (327 for 705, 335 for the earlier 721-token
    # prelude, on which the other counts in parentheses were taken): one an
    # expression, with every operand, suffix and binary operator in it but
    # its parenthesised parts, arguments, keys and '?:' arms; one a keyword
    # statement and one a block, which sets Block.scoped inline (367 frames
    # with a helper for it); expected lexemes are compared inline, and the
    # nodes the parser makes most are built without their __init__ (1,697
    # frames when each operand, binary run, token check and node entered
    # one)
    entered, _ = frames(parse, tokenize(default_prelude_source()))
    assert entered <= 312, entered


def test_parsing_the_benchmark_scripts():
    # the scripts workload's 200 programs at seed 7: 61,747 frames for
    # 137,270 tokens, under one a token (66,761 with a helper for
    # Block.scoped, 317,815 when each operand, binary run, token check and
    # node entered one)
    programs = [tokenize(source) for source in scripts_programs(7)]
    tokens = sum(len(program) for program in programs)
    entered = sum(frames(parse, program)[0] for program in programs)
    assert entered <= 61747, entered
    assert entered < tokens, (entered, tokens)


def test_deepest_parses():
    # the deepest inputs the parser accepts: 801 open expressions (one
    # frame a parenthesis, a '?:' arm or a statement's expression), 400
    # levels of blocks (three frames an 'if': the statement, its block and
    # the block's statements, beside the condition, which returns first),
    # and both at once, through object literals (two frames a value: the
    # expression and the literal's entries) and through 399 nested
    # function expressions, the outermost as tall as the bound allows (six
    # frames a function: the parenthesis, the operand, parse_function,
    # which stays on the stack while its body is read, the block, its
    # statements and the return)
    def ifs(body):
        return "if (a) {" * 400 + body + "}" * 400

    def functions(n):
        return "x = " + "(function() { return " * n + "1" + "; })" * n + ";"

    cases = [("x = " + "(" * 800 + "1" + ")" * 800 + ";", 807, 803),
             (ifs(""), 2005, 1202),
             ("x = " + "a ? b : " * 399 + "c;", 1204, 402),
             (ifs("x = " + "{a: (" * 399 + "((1))" + ")}" * 399 + ";"),
              3206, 2402),
             (functions(399), 2800, 2397)]
    for source, most_entered, most_deep in cases:
        entered, deepest = frames(parse, tokenize(source))
        assert entered <= most_entered, source[:20]
        assert deepest <= most_deep, source[:20]
    with pytest.raises(ParseError, match="expression nesting too deep"):
        parse(tokenize(functions(400)))
