"""equality: the four equality modes over a seeded proxy forest.

The forest has ``BASES`` plain objects and one proxy chain per entry of
``CHAIN_LENGTHS``, each over a base the seed picks, so chains share
bases. Every link of a chain votes through its handler's
``isTransparent``: true, false, or no trap at all. The places of the
links that do not vote true, and of the revoked links, are fixed per
chain; the seed picks only which of false and no trap each one is. So a
trap-mode walk has the same length under every seed and only its answers
change: the cost of a round does not depend on the seed.

Operands are every base and the top and the middle link of every chain.
Each repetition compares all pairs of operands with ``==``, ``===``,
``!==``, ``:===:`` and ``Proxy.isIdentical``; compares pairs inside
``Proxy.withTransparency`` overrides, nested too; and sets, gets and
probes a ``WeakMap`` with operands as keys. Each mode runs on its own
interpreter. Cheaper modes run more repetitions, so that each mode's
phase lasts about as long.

Every answer is checked against ``Model``, which computes each operand's
endpoint per mode: opaque mode stops at once; transparent and operators
modes follow targets to the innermost proxy that is not revoked; trap
mode follows while the link votes true and is not revoked, with the
innermost override of a link taking precedence over both.
"""

import random

from harness import MODES, Expect, clear_output

BASES = 6
CHAIN_LENGTHS = (50, 45, 40, 35, 30, 25, 20, 15, 10, 5)
PAIRS_PER_SCRIPT = 13
OVERRIDES = 12
MAP_KEYS, MAP_PROBES = 10, 20
REPETITIONS = {"opaque": 24, "transparent": 16, "operators": 16, "trap": 2}


class Model:
    """The forest as data, and each operand's endpoint per mode."""

    def __init__(self, rng):
        self.target = {}   # proxy name -> target name
        self.vote = {}     # proxy name -> True, False or None (no trap)
        self.revoked = set()
        self.bases = [f"o{i}" for i in range(BASES)]
        self.operands = list(self.bases)
        self.chains = []
        for c, length in enumerate(CHAIN_LENGTHS):
            below = self.bases[rng.randrange(BASES)]
            links = []
            for depth in range(1, length + 1):
                name = f"c{c}_{depth}"
                self.target[name] = below
                self.vote[name] = True
                links.append(name)
                below = name
            # chains 1, 4, 7: a link a quarter of the way up stops trap
            # walks; chains 2, 5, 8: the innermost link does
            if c % 3 != 0:
                stop = links[length // 4 if c % 3 == 1 else 0]
                self.vote[stop] = rng.choice((False, None))
            # chains 3 and 7 have a revoked link a third of the way up
            if c % 4 == 3:
                self.revoked.add(links[length // 3])
            self.chains.append(links)
            self.operands.append(links[-1])
            if length > 1:
                self.operands.append(links[length // 2 - 1])

    def is_proxy(self, name):
        return name in self.target

    def endpoint(self, name, mode, overrides=()):
        """What ``name`` stands for under ``mode``; ``overrides`` is the
        stack of (proxy, flag), innermost last."""
        if mode == "opaque":
            return name
        while self.is_proxy(name):
            if mode != "trap":
                if name in self.revoked:
                    return name
            else:
                pinned = [flag for proxy, flag in overrides if proxy == name]
                if pinned:
                    if not pinned[-1]:
                        return name
                elif name in self.revoked or self.vote[name] is not True:
                    return name
            name = self.target[name]
        return name

    def build_source(self):
        lines = ["var yes = {isTransparent: function(t, p) { return true; }};",
                 "var no = {isTransparent: function(t, p) { return false; }};",
                 "var mute = {};"]
        lines += [f"var {b} = {{id: {i}}};" for i, b in enumerate(self.bases)]
        handler = {True: "yes", False: "no", None: "mute"}
        for links in self.chains:
            lines += [f"var {name} = new Proxy({self.target[name]}, "
                      f"{handler[self.vote[name]]});" for name in links]
        lines += [f"Proxy.revoke({name});" for name in sorted(self.revoked)]
        return "\n".join(lines)


def text(value):
    return "true" if value else "false"


class Equality:
    """The forest and scripts of one seed, and how a round runs them."""

    def __init__(self, plx, setup, seed, scale=1.0):
        self.plx, self.setup = plx, setup
        rng = random.Random(f"equality:{seed}")
        self.model = model = Model(rng)
        self.build = plx.parse_source(model.build_source())
        operands = model.operands
        pairs = [(x, y) for i, x in enumerate(operands)
                 for y in operands[i + 1:]]
        pairs = pairs[:max(PAIRS_PER_SCRIPT, round(len(pairs) * scale))]
        proxies = [x for x in operands if model.is_proxy(x)]
        overrides = [self._override(rng, proxies, operands)
                     for _ in range(OVERRIDES)]
        keys = [rng.choice(operands) for _ in range(MAP_KEYS)]
        probes = [rng.choice(operands) for _ in range(MAP_PROBES)]
        self.reps = {mode: max(1, round(n * scale))
                     for mode, n in REPETITIONS.items()}
        # mode -> [(label, program, expected output, operations)]
        self.scripts = {mode: [] for mode in MODES}
        for mode in MODES:
            for start in range(0, len(pairs), PAIRS_PER_SCRIPT):
                batch = pairs[start:start + PAIRS_PER_SCRIPT]
                self._add(mode, "pairs",
                          [self._pair(x, y) for x, y in batch],
                          [self._pair_answer(x, y, mode) for x, y in batch],
                          5 * len(batch))
            self._add(mode, "overrides", [src for src, _ in overrides],
                      [text(model.endpoint(x, mode, stack)
                            == model.endpoint(y, mode, stack))
                       for (_, (x, y, stack)) in overrides], len(overrides))
            self._add_map(mode, keys, probes)

    def _add(self, mode, label, statements, lines, ops):
        program = self.plx.parse_source("\n".join(statements))
        expect = Expect("".join(line + "\n" for line in lines))
        self.scripts[mode].append((label, program, expect, ops))

    @staticmethod
    def _pair(x, y):
        return (f"print({x} == {y}, {x} === {y}, {x} !== {y}, "
                f"{x} :===: {y}, Proxy.isIdentical({x}, {y}));")

    def _pair_answer(self, x, y, mode):
        model = self.model
        same = model.endpoint(x, mode) == model.endpoint(y, mode)
        identical = (model.endpoint(x, "transparent")
                     == model.endpoint(y, "transparent"))
        return " ".join(map(text, (same, same, not same, x == y, identical)))

    @staticmethod
    def _override(rng, proxies, operands):
        """A comparison inside one or two nested overrides, as source and
        as (x, y, override stack)."""
        x, y = rng.choice(proxies), rng.choice(operands)
        outer = (x, rng.random() < 0.5)
        if rng.random() < 0.5:
            stack = [outer]
            source = (f"print(Proxy.withTransparency({x}, {text(outer[1])}, "
                      f"function() {{ return {x} === {y}; }}));")
        else:
            inner = (rng.choice((x, rng.choice(proxies))), rng.random() < 0.5)
            stack = [outer, inner]
            source = (f"print(Proxy.withTransparency({x}, {text(outer[1])}, "
                      f"function() {{ return Proxy.withTransparency("
                      f"{inner[0]}, {text(inner[1])}, "
                      f"function() {{ return {x} === {y}; }}); }}));")
        return source, (x, y, stack)

    def _add_map(self, mode, keys, probes):
        model = self.model
        stored = {}
        statements = ["var map = WeakMap();"]
        for k, key in enumerate(keys):
            statements.append(f'map.set({key}, "v{k}");')
            stored[model.endpoint(key, mode)] = f"v{k}"
        lines = []
        for probe in probes:
            statements.append(f"print(map.get({probe}), map.has({probe}));")
            found = stored.get(model.endpoint(probe, mode))
            lines.append(f"{found} true" if found else "undefined false")
        self._add(mode, "weakmap", statements, lines,
                  len(keys) + 2 * len(probes))

    def describe(self):
        model = self.model
        return (f"{len(model.target)} proxies over {BASES} bases, "
                f"{len(model.operands)} operands; repetitions per mode "
                + ", ".join(f"{m} {n}" for m, n in self.reps.items()))

    def round(self, meter):
        plx = self.plx
        for mode in MODES:
            interp = self.setup.interpreter(mode)
            meter.run(lambda: plx.evaluate_program(self.build, interp),
                      Expect(""), ops=0, label=f"{mode} build")
            for _ in range(self.reps[mode]):
                for label, program, expect, ops in self.scripts[mode]:
                    meter.run(lambda: plx.evaluate_program(program, interp),
                              expect, ops=ops, mode=mode,
                              label=f"{mode} {label}")
                    clear_output(interp)
