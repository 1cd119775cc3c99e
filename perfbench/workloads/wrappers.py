"""wrappers: membrane and contract traffic, the patterns the paper is for.

Each round builds, per equality mode, a seeded object graph on a fresh
interpreter: ``NODES`` nodes with a number ``v``, two links ``a`` and
``b`` to random nodes (so children are shared and cycles are common),
and on every fourth node the methods ``sum(o)`` and ``link(o)``. The
prelude's ``membrane()`` wraps the graph, and a first sweep reads every
node through it. A reader then goes through the wrapper only: it reads, writes numbers and wrappers, and calls methods
with wrapped arguments. Accounts guarded by ``contractProperty`` and
``contractMethod`` take deposits that the predicates accept. The round
ends with checks of what the method must guarantee (membrane caching,
isolation, contract transparency) and with ``revoke()``, after which
every access through the membrane must fail with ``RevokedProxyError``.

Every expected output comes from a model of the graph and accounts kept
here in Python as the operations are generated.

Once per round, trap mode also reads ``p.x`` through a chain of
``DEEP_CHAIN`` trap-less forwarding proxies. The embedding contract says
that read returns an ``ExecutionResult``, the value 1 or a language
error; at the time this benchmark was written a host ``RecursionError``
escapes instead, so it is counted as a failed operation.
"""

import random

from harness import MODES, Expect, clear_output, must_run

NODES = 150
ACCOUNTS = 6
DEEP_CHAIN = 100_000

# operations per mode and round; fixed, so that every seed does the same
# number of each
READS, WRITES, RELINKS, CALLS, LINKS = 30, 12, 8, 8, 4
DEPOSITS, WITHDRAWALS = 10, 10
# each isolation probe checks several nodes: it is the heaviest operation,
# 3 of a mode's 91, so the 99th latency percentile falls inside its spread
# of times rather than on a stray pause of a lighter operation
ISOLATION_PROBES, NODES_PER_PROBE = 3, 3


def spread(rng, items, count):
    """``count`` items taken evenly from ``items``, at a seeded offset, in
    a seeded order."""
    items = list(items)
    picks = [items[int((i + rng.random()) * len(items) / count)]
             for i in range(count)]
    rng.shuffle(picks)
    return picks


class Graph:
    """The Python model of the graph and accounts, and the programs."""

    def __init__(self, rng, nodes, scale):
        n = self.n = nodes
        self.v = [rng.randrange(100) for _ in range(n)]
        self.initial = list(self.v)
        self.a = [rng.randrange(n) for _ in range(n)]
        self.b = [rng.randrange(n) for _ in range(n)]
        self.methods = [j for j in range(n) if j % 4 == 0]
        self.balance = [rng.randrange(50, 100) for _ in range(ACCOUNTS)]
        self.build = self._build_source()
        self.ops = self._operations(rng, scale)

    def _build_source(self):
        lines = [f"var n{j} = {{id: {j}, v: {self.v[j]}}};"
                 for j in range(self.n)]
        lines += [f"n{j}.a = n{self.a[j]}; n{j}.b = n{self.b[j]};"
                  for j in range(self.n)]
        for j in self.methods:
            lines.append(f"n{j}.sum = function(o) {{ return n{j}.v + o.v; }};")
            lines.append(f"n{j}.link = function(o) "
                         f"{{ n{j}.peer = o; return o.v; }};")
        lines.append("var all = {" + ", ".join(f"{j}: n{j}"
                                               for j in range(self.n)) + "};")
        lines.append(f"var root = {{all: all, size: {self.n}}};")
        lines.append("var m = membrane(root); var w = m.wrapper; "
                     "var wall = w.all; var saved = wall[0];")
        # a first sweep through the wrapper wraps every node, so that each
        # later access scans a wrapper list of the same length whatever the
        # seed
        lines.append(f"var sum = 0; var k = 0; while (k < {self.n}) "
                     "{ sum = sum + wall[k].v; k = k + 1; } print(sum);")
        nonneg = "function(x) { return x >= 0; }"
        positive = "function(x) { return x > 0; }"
        for k, balance in enumerate(self.balance):
            lines.append(f"var acct{k} = {{balance: {balance}}};")
            lines.append(f"var g{k} = contractProperty(acct{k}, \"balance\", "
                         f"{nonneg});")
            lines.append(f"var teller{k} = {{deposit: function(x) {{ "
                         f"acct{k}.balance = acct{k}.balance + x; "
                         f"return acct{k}.balance; }}}};")
            lines.append(f"var bank{k} = contractMethod(teller{k}, "
                         f"\"deposit\", {positive}, {nonneg});")
        return "\n".join(lines)

    def _operations(self, rng, scale):
        """(label, source, expected output) of every operation, in order;
        the model changes as the writes are generated."""
        n, v, a, b = self.n, self.v, self.a, self.b

        def count(base):
            return max(1, round(base * scale))

        kinds = (["read"] * count(READS) + ["write"] * count(WRITES)
                 + ["relink"] * count(RELINKS) + ["call"] * count(CALLS)
                 + ["link"] * count(LINKS) + ["deposit"] * count(DEPOSITS)
                 + ["withdraw"] * count(WITHDRAWALS))
        rng.shuffle(kinds)
        # the membrane finds a wrapper by a linear scan, so an operation
        # costs more the later its node was wrapped; each kind takes its
        # nodes evenly from the whole graph, so every seed does the same work
        nodes = {kind: (spread(rng, range(n), kinds.count(kind)),
                        spread(rng, range(n), kinds.count(kind)))
                 for kind in sorted(set(kinds))}
        for kind in ("call", "link"):
            nodes[kind] = (spread(rng, self.methods, kinds.count(kind)),
                           nodes[kind][1])
        ops = []
        for kind in kinds:
            j, k = nodes[kind][0].pop(), nodes[kind][1].pop()
            if kind == "read":
                ops.append((kind, f"print(wall[{j}].a.v, wall[{j}].b.v);",
                            f"{v[a[j]]} {v[b[j]]}\n"))
            elif kind == "write":
                value = rng.randrange(100)
                v[j] = value
                ops.append((kind, f"wall[{j}].v = {value}; "
                                  f"print(wall[{j}].v);", f"{value}\n"))
            elif kind == "relink":
                # the wrapper written is unwrapped on the way in, and the
                # read returns the cached wrapper for the same node
                b[j] = k
                ops.append((kind, f"wall[{j}].b = wall[{k}]; "
                                  f"print(wall[{j}].b :===: wall[{k}], "
                                  f"wall[{j}].b.v);", f"true {v[k]}\n"))
            elif kind == "call":
                ops.append((kind, f"print(wall[{j}].sum(wall[{k}]));",
                            f"{v[j] + v[k]}\n"))
            elif kind == "link":
                ops.append((kind, f"print(wall[{j}].link(wall[{k}]), "
                                  f"wall[{j}].peer :===: wall[{k}]);",
                            f"{v[k]} true\n"))
            elif kind == "deposit":
                acct, amount = rng.randrange(ACCOUNTS), rng.randrange(1, 20)
                self.balance[acct] += amount
                ops.append((kind, f"print(bank{acct}.deposit({amount}));",
                            f"{self.balance[acct]}\n"))
            else:
                acct = rng.randrange(ACCOUNTS)
                amount = rng.randrange(0, self.balance[acct] + 1)
                self.balance[acct] -= amount
                ops.append((kind, f"g{acct}.balance = g{acct}.balance - "
                                  f"{amount}; print(g{acct}.balance);",
                            f"{self.balance[acct]}\n"))
        probed = spread(rng, range(n), ISOLATION_PROBES * NODES_PER_PROBE)
        for p in range(ISOLATION_PROBES):
            nodes = probed[p * NODES_PER_PROBE:(p + 1) * NODES_PER_PROBE]
            ops.append(("isolation", "\n".join(
                f"print(wall[{j}] :===: all[{j}], "
                f"wall[{j}].a :===: n{a[j]}, "
                f"Proxy.isIdentical(wall[{j}], all[{j}]), "
                f"Proxy.isIdentical(wall[{j}].a, n{a[j]}));" for j in nodes),
                "false false true true\n" * NODES_PER_PROBE))
        ops.append(("caching", "print(w.all :===: wall, "
                               "wall[1] :===: wall[1], saved :===: wall[0]);",
                    "true true true\n"))
        return ops


class Wrappers:
    """The graph and operations of one seed, and how a round runs them."""

    def __init__(self, plx, setup, seed, scale=1.0, deep_chain=DEEP_CHAIN):
        self.plx, self.setup = plx, setup
        rng = random.Random(f"wrappers:{seed}")
        self.graph = Graph(rng, max(8, round(NODES * scale)), scale)
        self.build = plx.parse_source(self.graph.build)
        self.ops = [(label, plx.parse_source(source), Expect(output))
                    for label, source, output in self.graph.ops]
        self.transparency = plx.parse_source(
            "print(g0 === acct0, g0 :===: acct0, bank0 === teller0);")
        self.revoke = plx.parse_source("m.revoke();")
        self.revoked = [plx.parse_source(source) for source in
                        ("print(saved.v);", "print(wall[1].v);",
                         "print(w.size);")]
        self.deep = setup.interpreter("trap")
        must_run(plx, self.deep,
                 f"var h = {{}}; var p = {{x: 1}}; var k = 0; "
                 f"while (k < {deep_chain}) {{ p = new Proxy(p, h); "
                 f"k = k + 1; }}")
        self.deep_read = plx.parse_source("print(p.x);")
        self.deep_chain = deep_chain

    def describe(self):
        return (f"graph of {self.graph.n} nodes, {len(self.ops) + 5} "
                f"operations x {len(MODES)} modes, and 1 read through "
                f"{self.deep_chain} forwarding proxies per round")

    def round(self, meter):
        plx = self.plx
        for mode in MODES:
            interp = self.setup.interpreter(mode)

            def run(program, expect, label, ops=1):
                meter.run(lambda: plx.evaluate_program(program, interp),
                          expect, ops, mode, f"{mode} {label}")
                clear_output(interp)

            run(self.build, Expect(f"{sum(self.graph.initial)}\n"), "build",
                ops=0)
            for label, program, expect in self.ops:
                run(program, expect, label)
            # a contract wrapper says it is transparent: trap-mode ===
            # looks through it, and only opaque mode tells it apart
            same = "false" if mode == "opaque" else "true"
            run(self.transparency, Expect(f"{same} false {same}\n"),
                "transparency")
            run(self.revoke, Expect(""), "revoke")
            for program in self.revoked:
                run(program, Expect(error="RevokedProxyError"), "revoked")
        meter.run(lambda: plx.evaluate_program(self.deep_read, self.deep),
                  Expect("1\n", error="*"),
                  label=f"p.x through {self.deep_chain} proxies")
        clear_output(self.deep)
