"""The entry points that perfbench/tracing.py replaces.

The tracer patches each of these in the namespace where the program
looks it up (``owner.__dict__[name]``). A refactor that moves or renames
one would break ``perfbench/run.py --trace 1`` without failing any other
tier-1 test, so their places are pinned here.
"""

import weakref

import proxylang
import proxylang.interpreter as interpreter
import proxylang.objects as objects
import proxylang.parser as parser
import proxylang.proxies as proxies
import proxylang.weakmap as weakmap

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
