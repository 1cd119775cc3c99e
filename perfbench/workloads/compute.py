"""compute: plain evaluation, no proxies.

Each task is a small program of one kind: an arithmetic ``while`` loop,
a recursive function, closures, short-lived object literals with property
reads and writes, string building, or primitive ``==``/``===`` across
types. Its expected output is computed here in Python from the
parameters the task was generated with.

The seed draws each task's constants. The work a task does is set by its
kind alone, so every seed gives the same amount of work. Programs without
proxies behave alike in all four equality modes, so every round runs
every task once per mode on a fresh interpreter: a gap between the
per-mode rates here is cost that a mode adds to code that has no proxies.
"""

import random

from harness import MODES, Expect, clear_output

LOOP_N = 300
FIB_N, FIB_HEAVY_N = 11, 13
CLOSURES, CLOSURE_CALLS = 8, 25
OBJECTS_N = 200
STRING_N = 150
COMPARE_N = 60


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def task_loop(rng):
    a, b = rng.randrange(1, 50), rng.randrange(0, 1000)
    source = (f"var s = {b}; var i = 0;\n"
              f"while (i < {LOOP_N}) {{ s = s + i * {a} - 1; i = i + 1; }}\n"
              "print(s);")
    n = LOOP_N
    return source, f"{b + a * n * (n - 1) // 2 - n}\n"


def task_fib(rng, n=FIB_N):
    offset = rng.randrange(0, 1000)
    source = ("function fib(n) { if (n < 2) { return n; } "
              "return fib(n - 1) + fib(n - 2); }\n"
              f"print(fib({n}) + {offset});")
    return source, f"{fib(n) + offset}\n"


def task_fib_heavy(rng):
    return task_fib(rng, FIB_HEAVY_N)


def task_closures(rng):
    steps = [rng.randrange(1, 20) for _ in range(CLOSURES)]
    lines = ["function counter(step) { var c = 0; "
             "return function() { c = c + step; return c; }; }",
             "var fs = {};", "var total = 0;"]
    lines += [f"fs[{k}] = counter({s});" for k, s in enumerate(steps)]
    lines.append(f"var k = 0; while (k < {CLOSURES}) {{ var j = 0; "
                 f"while (j < {CLOSURE_CALLS}) {{ total = total + fs[k](); "
                 "j = j + 1; } k = k + 1; }")
    lines.append("print(total);")
    calls = CLOSURE_CALLS
    total = sum(s * calls * (calls + 1) // 2 for s in steps)
    return "\n".join(lines), f"{total}\n"


def task_objects(rng):
    y, w = rng.randrange(1, 100), rng.randrange(1, 10)
    source = ("var acc = 0; var last = {x: 0}; var i = 0;\n"
              f"while (i < {OBJECTS_N}) {{ var o = {{x: i, y: {y}}}; "
              f"o.z = o.x * {w} + o.y; last.x = o.z; acc = acc + o.z; "
              "i = i + 1; }\n"
              "print(acc, last.x);")
    n = OBJECTS_N
    acc = w * n * (n - 1) // 2 + y * n
    return source, f"{acc} {(n - 1) * w + y}\n"


def task_strings(rng):
    pieces = ["".join(rng.choice("abcdefgh") for _ in range(2))
              for _ in range(4)]
    table = ", ".join(f'{k}: "{p}"' for k, p in enumerate(pieces))
    source = (f"var parts = {{{table}}}; var s = \"\"; var i = 0; "
              "var k = 0;\n"
              f"while (i < {STRING_N}) {{ s = s + parts[k]; k = k + 1; "
              "if (k == 4) { k = 0; } i = i + 1; }\n"
              "print(s);")
    return source, "".join(pieces[i % 4] for i in range(STRING_N)) + "\n"


def task_compare(rng):
    """Primitive equality across types: number against the same number
    as a string, booleans against 0 and 1, null against undefined."""
    base = rng.randrange(0, 1000)
    source = ("var loose = 0; var strict = 0; var i = 0;\n"
              f"while (i < {COMPARE_N}) {{ var n = i + {base}; "
              'var t = "" + n; '
              "if (n == t) { loose = loose + 1; } "
              "if (n === t) { strict = strict + 1; } "
              "if ((i < 2) == i) { loose = loose + 1; } "
              "if (null == undefined) { loose = loose + 1; } "
              "if (null === undefined) { strict = strict + 1; } "
              "i = i + 1; }\n"
              "print(loose, strict);")
    # n == "" + n always holds, so does null == undefined, and a boolean
    # meets a number as 1 or 0
    loose = sum(2 + ((1 if i < 2 else 0) == i) for i in range(COMPARE_N))
    return source, f"{loose} 0\n"


# (task kind, copies per round and mode). As many tasks are cheaper than
# the loop as are dearer, so the median latency falls inside the loop's
# times and not on a gap between two kinds; the heavy task is 1 call in 44,
# so the 99th percentile falls inside its times and not on a stray pause.
KINDS = ((task_compare, 8), (task_strings, 8), (task_loop, 12),
         (task_closures, 5), (task_objects, 5), (task_fib, 5),
         (task_fib_heavy, 1))


class Compute:
    """The compute tasks of one seed, and how a round runs them."""

    def __init__(self, plx, setup, seed, scale=1.0):
        self.plx, self.setup = plx, setup
        rng = random.Random(f"compute:{seed}")
        self.tasks = []  # (label, program, expected output)
        for kind, copies in KINDS:
            for copy in range(max(1, round(copies * scale))):
                source, output = kind(rng)
                self.tasks.append((f"{kind.__name__}#{copy}",
                                   plx.parse_source(source), Expect(output)))
        rng.shuffle(self.tasks)

    def describe(self):
        return f"{len(self.tasks)} tasks x {len(MODES)} modes per round"

    def round(self, meter):
        plx = self.plx
        for mode in MODES:
            interp = self.setup.interpreter(mode)
            for label, program, expect in self.tasks:
                meter.run(lambda: plx.evaluate_program(program, interp),
                          expect, mode=mode, label=f"{mode} {label}")
                clear_output(interp)
