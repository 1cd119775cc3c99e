import gc
import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from proxylang.errors import LangTypeError
from proxylang.interpreter import Interpreter, evaluate_program
from proxylang.objects import (NULL, UNDEFINED, HeapObject, OrdinaryObject,
                               format_number, kind_of, render_value,
                               to_property_key, truthy)
from proxylang.parser import parse_source
from proxylang.proxies import ProxyObject


@pytest.fixture
def interp():
    return Interpreter()


def test_get_after_set(interp):
    ref = interp.heap.alloc_object()
    ref.set(interp, "a", 1.0)
    assert ref.get(interp, "a") == 1.0
    ref.set(interp, "a", "two")
    assert ref.get(interp, "a") == "two"
    assert ref.get(interp, "missing") is UNDEFINED


def test_own_keys_matches_has(interp):
    ref = interp.heap.alloc_object([("x", 1.0), ("y", 2.0)])
    ref.set(interp, "z", 3.0)
    keys = ref.own_keys(interp)
    assert keys == ["x", "y", "z"]  # insertion order
    for key in keys:
        assert ref.has(interp, key)
    assert not ref.has(interp, "w")


def test_delete_all_subsets_against_dict_model(interp):
    # brute force: every subset of three keys deleted in every order
    keys = ("a", "b", "c")
    for subset in itertools.chain.from_iterable(
            itertools.permutations(keys, n) for n in range(4)):
        ref = interp.heap.alloc_object([(k, 1.0) for k in keys])
        model = {k: 1.0 for k in keys}
        for key in subset:
            expected = key in model
            model.pop(key, None)
            assert ref.delete(interp, key) is expected
        assert ref.own_keys(interp) == list(model)
        # deleting again reports absence
        for key in subset:
            assert ref.delete(interp, key) is False


def test_allocations_are_distinct(interp):
    refs = [interp.heap.alloc_object() for _ in range(1000)]
    assert len({id(r) for r in refs}) == 1000
    # writes through one reference never show through another
    refs[0].set(interp, "k", 1.0)
    assert refs[1].get(interp, "k") is UNDEFINED


def test_objects_compare_by_identity():
    # an object is its own reference, so no kind of object may redefine
    # equality or hashing
    kinds = HeapObject.__subclasses__()
    assert {OrdinaryObject, ProxyObject} <= set(kinds)
    for kind in kinds:
        assert kind.__eq__ is object.__eq__
        assert kind.__hash__ is object.__hash__


def test_unreachable_objects_are_freed():
    # every iteration makes an object and a closure over it; once the loop
    # is over nothing reaches them, yet the heap has counted them all
    def live_objects():
        gc.collect()
        return sum(isinstance(o, OrdinaryObject) for o in gc.get_objects())

    before = live_objects()
    interp = Interpreter()
    builtins = len(interp.heap)
    result = evaluate_program(parse_source("""
    var i = 0;
    while (i < 100000) {
        var t = {a: i};
        var f = function() { return t; };
        i = i + 1;
    }
    """), interp)
    assert result.ok
    assert len(interp.heap) == builtins + 200_000
    assert live_objects() - before <= builtins


def test_reinsertion_moves_key_to_end(interp):
    ref = interp.heap.alloc_object([("a", 1.0), ("b", 2.0)])
    ref.delete(interp, "a")
    ref.set(interp, "a", 3.0)
    assert ref.own_keys(interp) == ["b", "a"]


def test_property_keys():
    assert to_property_key("s") == "s"
    assert to_property_key(0.0) == "0"
    assert to_property_key(1.5) == "1.5"
    assert to_property_key(-0.0) == "0"
    for bad in (True, NULL, UNDEFINED, OrdinaryObject()):
        with pytest.raises(LangTypeError):
            to_property_key(bad)


def test_number_and_string_keys_alias(interp):
    ref = interp.heap.alloc_object()
    ref.set(interp, to_property_key(0.0), "zero")
    assert ref.get(interp, "0") == "zero"


@pytest.mark.parametrize("value,text", [
    (0.0, "0"),
    (-0.0, "0"),
    (3.0, "3"),
    (-3.0, "-3"),
    (3.5, "3.5"),
    (float("nan"), "NaN"),
    (float("inf"), "Infinity"),
    (float("-inf"), "-Infinity"),
    (1e21, "1e+21"),
    (123456789.0, "123456789"),
    # ECMAScript's Number::toString, not Python's repr
    (1e-7, "1e-7"),
    (1.5e-7, "1.5e-7"),
    (1e-6, "0.000001"),
    (1e-5, "0.00001"),
    (2.0 ** 60, "1152921504606847000"),
    (math.nextafter(1e21, 0.0), "999999999999999900000"),
    (5e-324, "5e-324"),
    (0.000123, "0.000123"),
    (-1.5e-7, "-1.5e-7"),
    (2.0 ** 53, "9007199254740992"),
])
def test_format_number(value, text):
    assert format_number(value) == text


def test_render_value(interp):
    assert render_value(True) == "true"
    assert render_value(False) == "false"
    assert render_value(NULL) == "null"
    assert render_value(UNDEFINED) == "undefined"
    assert render_value("s") == "s"
    assert render_value(interp.heap.alloc_object()) == "[object]"


def test_truthiness():
    for falsy in (False, 0.0, -0.0, float("nan"), "", NULL, UNDEFINED):
        assert not truthy(falsy)
    for true in (True, 1.0, -1.0, "x", "0", OrdinaryObject()):
        assert truthy(true)


def test_kind_of():
    assert kind_of(1.0) == "number"
    assert kind_of(True) == "boolean"
    assert kind_of("") == "string"
    assert kind_of(NULL) == "null"
    assert kind_of(UNDEFINED) == "undefined"
    assert kind_of(OrdinaryObject()) == "object"


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_number_roundtrips(value):
    text = format_number(value)
    assert float(text) == value or (value == int(value)
                                    and float(text) == value)
