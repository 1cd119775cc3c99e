"""Per-layer tracing from outside the program.

The tracer replaces the layers' entry points, at the sites where the
program looks them up, with wrappers that count calls and charge time to
a layer. Time is charged to the layer on top of a span stack, so a
layer's time is its self time: its spans' duration minus what the spans
of other layers inside them cover, with a recursive layer's inner spans
folded into the outermost one. Times use the benchmark's clock, scaled to
reference speed like every other time it reports (see ``speed``). Nothing
inside the program changes, and ``end_round`` puts every original back.

The layers and where they are entered:

=============  ==========================================================
lexer          ``tokenize`` as ``parser`` calls it
parser         ``parse`` as ``parser`` calls it
prelude        ``evaluate_program`` of the bundled prelude
interpreter    ``evaluate_program`` of any other program, and
               ``Interpreter.invoke`` (every language-level call)
objects        ``Heap.alloc`` and ordinary property access
               (``OrdinaryObject.get/set/has/delete/own_keys``)
proxies        ``ProxyObject`` operations, ``is_transparent`` as
               ``get_equality_object`` calls it, and ``proxy_create``,
               ``revoke``, ``with_transparency`` as ``interpreter`` calls
               them; ``ProxyObject._trap`` is counted by trap name
equality       ``strict_equals``, ``loose_equals``, ``opaque_*`` and
               ``builtin_is_*`` as ``interpreter`` calls them
weakmap        ``idmap_*`` as the map's methods call them
=============  ==========================================================
"""

import dataclasses
import statistics
import weakref

from harness import Meter
from speed import clock

LAYERS = ("lexer", "parser", "prelude", "interpreter", "objects",
          "proxies", "equality", "weakmap")
TRAPS = ("get", "set", "has", "deleteProperty", "ownKeys", "apply")

# every per-layer count and self time, in the order they are printed
COUNTS = (
    ["lexer.calls", "lexer.tokens", "parser.calls", "parser.nodes",
     "prelude.loads", "interpreter.calls", "interpreter.max_depth",
     "objects.calls", "objects.heap_slots", "proxies.calls"]
    + [f"proxies.traps.{t}" for t in TRAPS]
    + ["proxies.is_transparent_calls", "equality.compares",
       "equality.raw_compares", "weakmap.ops"])
SELF_TIMES = ["lexer.self_s", "parser.self_s", "prelude.eval_s",
              "interpreter.self_s", "objects.self_s", "proxies.self_s",
              "equality.self_s", "weakmap.self_s"]
_TIME_OF_LAYER = dict(zip(LAYERS, SELF_TIMES))

_OUTSIDE = "outside"  # time spent in no layer: the benchmark itself


def count_nodes(program):
    """Number of AST nodes (dataclass instances) under ``program``."""
    count, todo = 0, [program]
    while todo:
        item = todo.pop()
        if isinstance(item, (list, tuple)):
            todo.extend(item)
        elif dataclasses.is_dataclass(item) and not isinstance(item, type):
            count += 1
            todo.extend(getattr(item, f.name)
                        for f in dataclasses.fields(item))
    return count


class Tracer:
    def __init__(self, plx, speed):
        self.plx = plx
        self.speed = speed
        self.prelude = plx.default_prelude_source()
        self.rounds = []       # (counts, self times) of each traced round
        self.meter = Meter(speed)   # times the traced rounds
        self._saved = []       # (owner, name, original) to restore
        self._reset()

    def _reset(self):
        self.counts = dict.fromkeys(COUNTS, 0)
        self.busy = dict.fromkeys(LAYERS + (_OUTSIDE,), 0.0)
        self.stack = [_OUTSIDE]
        self.mark = clock()
        self.depth = 0
        self.interpreters = []
        self._prelude_programs = {}   # id -> weakref of prelude Programs
        self._next_parse_is_prelude = False

    # --- rounds ---

    def start_round(self):
        self._reset()
        self._install()

    def end_round(self):
        self._uninstall()
        self._charge()
        self.counts["objects.heap_slots"] = sum(
            len(interp.heap) for interp in self.interpreters)
        self.interpreters = []
        times = {_TIME_OF_LAYER[layer]: self.busy[layer] for layer in LAYERS}
        self.rounds.append((dict(self.counts), times))

    def metrics(self):
        """Per-layer metrics: the counts of one round, which every traced
        round must repeat, and each self time's median over rounds."""
        counts = self.rounds[0][0]
        for other, _ in self.rounds[1:]:
            if other != counts:
                raise RuntimeError("traced rounds disagree on counts")
        result = {name: {"value": counts[name], "unit": "count"}
                  for name in COUNTS}
        for name in SELF_TIMES:
            result[name] = {
                "value": statistics.median(t[name] for _, t in self.rounds),
                "unit": "s"}
        return result

    # --- span bookkeeping ---

    def _charge(self):
        now = clock()
        self.busy[self.stack[-1]] += (now - self.mark) * self.speed.factor
        self.mark = now

    def _span(self, layer, fn, *counters, after=None):
        """Wrap ``fn`` in a span of ``layer``, a name or a function of the
        call's arguments that gives one. Each call bumps ``counters``;
        ``after`` sees the arguments and result once the span has ended."""
        tracer, counts, busy, stack = self, self.counts, self.busy, self.stack
        speed = self.speed

        def traced(*args, **kwargs):
            for counter in counters:
                counts[counter] += 1
            now = clock()
            busy[stack[-1]] += (now - tracer.mark) * speed.factor
            tracer.mark = now
            level = len(stack)
            stack.append(layer(*args) if callable(layer) else layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                now = clock()
                busy[stack[-1]] += (now - tracer.mark) * speed.factor
                tracer.mark = now
                # an inner span cut short by a host RecursionError may not
                # have popped itself
                del stack[level:]
            if after is not None:
                after(args, result)
            return result
        return traced

    # --- hooks ---

    def _patch(self, owner, name, replacement):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _install(self):
        import proxylang.interpreter as interpreter
        import proxylang.objects as objects
        import proxylang.parser as parser
        import proxylang.proxies as proxies
        import proxylang.weakmap as weakmap

        counts = self.counts

        def tokens_read(args, tokens):
            counts["lexer.tokens"] += len(tokens)
            self._next_parse_is_prelude = args[0] == self.prelude

        def nodes_built(args, program):
            counts["parser.nodes"] += count_nodes(program)
            if self._next_parse_is_prelude:
                self._prelude_programs[id(program)] = weakref.ref(program)
            self._next_parse_is_prelude = False

        self._patch(parser, "tokenize",
                    self._span("lexer", parser.tokenize, "lexer.calls",
                               after=tokens_read))
        self._patch(parser, "parse",
                    self._span("parser", parser.parse, "parser.calls",
                               after=nodes_built))

        def program_layer(program, interp):
            ref = self._prelude_programs.get(id(program))
            if ref is not None and ref() is program:
                counts["prelude.loads"] += 1
                return "prelude"
            return "interpreter"

        # run_source looks evaluate_program up in its module; the
        # benchmark looks it up on the package
        evaluate = self._span(program_layer, interpreter.evaluate_program)
        self._patch(interpreter, "evaluate_program", evaluate)
        self._patch(self.plx, "evaluate_program", evaluate)

        Interpreter = interpreter.Interpreter
        original_init = Interpreter.__init__

        def init(interp, *args, **kwargs):
            original_init(interp, *args, **kwargs)
            self.interpreters.append(interp)
        self._patch(Interpreter, "__init__", init)

        invoke = self._span("interpreter", Interpreter.invoke,
                            "interpreter.calls")

        def invoke_with_depth(*args):
            self.depth += 1
            if self.depth > counts["interpreter.max_depth"]:
                counts["interpreter.max_depth"] = self.depth
            try:
                return invoke(*args)
            finally:
                self.depth -= 1
        self._patch(Interpreter, "invoke", invoke_with_depth)

        self._patch(objects.Heap, "alloc",
                    self._span("objects", objects.Heap.alloc,
                               "objects.calls"))
        for name in ("get", "set", "has", "delete", "own_keys"):
            self._patch(objects.OrdinaryObject, name,
                        self._span("objects",
                                   getattr(objects.OrdinaryObject, name),
                                   "objects.calls"))

        for name in ("get", "set", "has", "delete", "own_keys", "call"):
            self._patch(proxies.ProxyObject, name,
                        self._span("proxies",
                                   getattr(proxies.ProxyObject, name),
                                   "proxies.calls"))
        find_trap = proxies.ProxyObject._trap

        def trap(proxy, interp, name):
            found = find_trap(proxy, interp, name)
            if found is not None:
                counts[f"proxies.traps.{name}"] += 1
            return found
        self._patch(proxies.ProxyObject, "_trap", trap)
        self._patch(proxies, "is_transparent",
                    self._span("proxies", proxies.is_transparent,
                               "proxies.is_transparent_calls"))
        for name in ("proxy_create", "revoke", "with_transparency"):
            self._patch(interpreter, name,
                        self._span("proxies", getattr(interpreter, name),
                                   "proxies.calls"))

        for name in ("strict_equals", "loose_equals", "builtin_is_equal",
                     "builtin_is_identical"):
            self._patch(interpreter, name,
                        self._span("equality", getattr(interpreter, name),
                                   "equality.compares"))
        for name in ("opaque_strict_equals", "opaque_loose_equals"):
            self._patch(interpreter, name,
                        self._span("equality", getattr(interpreter, name),
                                   "equality.compares",
                                   "equality.raw_compares"))

        for name in ("idmap_set", "idmap_get", "idmap_has", "idmap_delete"):
            self._patch(weakmap, name,
                        self._span("weakmap", getattr(weakmap, name),
                                   "weakmap.ops"))
