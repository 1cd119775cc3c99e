"""Host frames per language call, counted, never timed.

A language call and a trap-mode isTransparent vote each pass through a
fixed chain of Python frames. These tests count the frames one call and
one vote enter (sys.setprofile "call" events) and bound them by today's
count, so that a refactor that puts frames back on the call path fails
here instead of only showing up as a slower trap-mode benchmark.
"""

import sys

from proxylang.interpreter import _EVAL, Interpreter, evaluate_program
from proxylang.parser import parse_expression, parse_source


def frames_entered(mode, setup, expression):
    """The value of expression and the names of the Python frames its
    evaluation entered, after setup has run in a fresh interpreter."""
    interp = Interpreter(mode=mode)
    assert evaluate_program(parse_source(setup), interp).ok
    node = parse_expression(expression)
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        value = _EVAL[node.__class__](interp, node, interp.globals)
    finally:
        sys.setprofile(None)
    return value, names


def test_one_language_call():
    # _call, _identifier, _literal, call_value, invoke,
    # Environment.__init__, _return, _identifier
    value, names = frames_entered(
        "opaque", "function f(x) { return x; }", "f(1)")
    assert value == 1.0
    assert names.count("invoke") == 1
    assert len(names) <= 8, names


def test_one_trap_mode_vote():
    # the call above's frames for the trap, plus the equality operator,
    # resolution of both operands, is_transparent and the handler read
    value, names = frames_entered(
        "trap",
        "var o = {}; var p = new Proxy(o, "
        "{isTransparent: function(t, p) { return true; }});",
        "p === o")
    assert value is True
    assert names.count("is_transparent") == 1
    assert names.count("invoke") == 1
    assert len(names) <= 17, names
