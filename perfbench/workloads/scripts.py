"""scripts: the embedding path, one ``run_source`` call per program.

Each program is generated from a description: ``lines`` one-line
declarations (functions, object literals, strings), most never called,
then a few prints of calls and property reads whose values the
description gives. Every third program also compares a transparent proxy
with its target, and every third other one probes a ``WeakMap`` through
one; their answers depend on the equality mode.

Each ``run_source`` call parses the program, builds an interpreter, and
parses and evaluates the bundled prelude before the program, so the
front end and the prelude load do most of the work here. Every round runs
the programs ``SIZES`` lists in each mode, in a seeded order, so all
seeds do the same amount of work.
"""

import random

from harness import MODES, Expect

# declarations per program and how many such programs a round runs in each
# mode: mostly small programs, and a tail of large ones. As many programs
# are smaller than the 10-declaration ones as are larger, so the median
# latency falls inside their times; the largest is 1 call in 50, so the
# 99th percentile falls inside its times and not on a stray pause.
SIZES = ((2, 10), (5, 10), (10, 10), (20, 12), (50, 4), (100, 3), (300, 1))
CALLS = 3
WORDS = ("alpha", "beta", "gamma", "delta", "omega", "kappa")


def declaration(rng, k):
    """One declaration: its source and, when it can be printed, the
    expression that reads it and the value that expression has."""
    kind = k % 4
    if kind == 0:
        c1, c2 = rng.randrange(1, 9), rng.randrange(10, 90)
        a, b = rng.randrange(0, 20), rng.randrange(0, 20)
        t = a * c1 + b
        return (f"function f{k}(a, b) {{ var t = a * {c1} + b; "
                f"if (t > {c2}) {{ return t - {c2}; }} return t; }}",
                f"f{k}({a}, {b})", str(t - c2 if t > c2 else t))
    if kind == 1:
        x, w = rng.randrange(100), rng.randrange(100)
        word = rng.choice(WORDS)
        return (f"var d{k} = {{x: {x}, y: \"{word}\", z: {{w: {w}}}}};",
                f"d{k}.x + d{k}.z.w", str(x + w))
    if kind == 2:
        c, n = rng.randrange(0, 9), rng.randrange(1, 12)
        return (f"function g{k}(n) {{ var s = 0; var i = 0; "
                f"while (i < n) {{ s = s + i + {c}; i = i + 1; }} "
                f"return s; }}",
                f"g{k}({n})", str(n * (n - 1) // 2 + c * n))
    word = rng.choice(WORDS)
    return f"var s{k} = \"{word}\";", f"s{k} + \"!\"", word + "!"


def program(rng, lines, mode, extra):
    """Source and expected output of one program."""
    declared = [declaration(rng, k) for k in range(lines)]
    source = [src for src, _, _ in declared]
    output = []
    for _, expr, value in rng.sample(declared, min(CALLS, lines)):
        source.append(f"print({expr});")
        output.append(value)
    looks_through = mode != "opaque"
    if extra == "proxy":
        source.append("var target = {v: 1}; var p = new Proxy(target, "
                      "{isTransparent: function(t, q) { return true; }});")
        source.append("print(p === target, p :===: target, p.v);")
        output.append(f"{'true' if looks_through else 'false'} false 1")
    elif extra == "weakmap":
        value = rng.randrange(100)
        source.append("var key = {}; var map = WeakMap(); "
                      f"map.set(key, {value}); "
                      "var p = new Proxy(key, "
                      "{isTransparent: function(t, q) { return true; }});")
        source.append("print(map.get(p), map.has(p));")
        output.append(f"{value} true" if looks_through
                      else "undefined false")
    return "\n".join(source), "".join(line + "\n" for line in output)


class Scripts:
    """The programs of one seed, and how a round runs them."""

    def __init__(self, plx, setup, seed, scale=1.0):
        self.plx, self.setup = plx, setup
        self.prelude = setup.prelude
        rng = random.Random(f"scripts:{seed}")
        sizes = [lines for lines, copies in SIZES
                 for _ in range(max(1, round(copies * scale)))]
        self.programs = []  # (label, mode, source, expected output)
        slot = 0
        for mode in MODES:
            for lines in sizes:
                extra = ("proxy", "weakmap", None)[slot % 3]
                source, output = program(rng, lines, mode, extra)
                self.programs.append((f"{lines} lines", mode, source,
                                      Expect(output)))
                slot += 1
        rng.shuffle(self.programs)

    def describe(self):
        return (f"{len(self.programs)} programs per round, "
                f"{SIZES[0][0]} to {SIZES[-1][0]} declarations each")

    def round(self, meter):
        run_source, prelude = self.plx.run_source, self.prelude
        for label, mode, source, expect in self.programs:
            meter.run(lambda: run_source(source, mode=mode,
                                         prelude_source=prelude),
                      expect, mode=mode, label=f"{mode} {label}")
