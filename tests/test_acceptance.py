"""Acceptance gate: ten end-to-end checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v` for a pass/fail line per
criterion (add -s to see the [criterion NN] summary lines as well).
Every expected value here was fixed before the implementation existed:
corpus outputs were hand-traced, the primitive table was generated from
an independent engine, and the structural checks compare against small
self-contained models written directly in this file.
"""

import itertools
import json
import random

import pytest

from proxylang.cli import _mode_pragma
from proxylang.equality import (
    EqualityMode,
    loose_equals,
    opaque_strict_equals,
    strict_equals,
)
from proxylang.errors import ContractViolation, PlxRuntimeError, RevokedProxyError
from proxylang.interpreter import Interpreter, evaluate_program, run_source
from proxylang.objects import NULL, UNDEFINED
from proxylang.parser import parse_source
from proxylang.prelude import default_prelude_source
from proxylang.proxies import ProxyObject, proxy_create, with_transparency

from conftest import COINCIDENCE_DIR, CORPUS_DIR, DATA_DIR

PRELUDE = default_prelude_source()


def report(number, label):
    print(f"[criterion {number:02d}] PASS {label}")


def run_ok(source, mode, prelude=PRELUDE):
    result = run_source(source, mode=mode, prelude_source=prelude)
    assert result.ok, (result.error_kind, result.error_message)
    return result.output


def corpus_source(name):
    return (CORPUS_DIR / f"{name}.plx").read_text(encoding="utf-8")


def corpus_expected(name):
    return (CORPUS_DIR / f"{name}.expected").read_text(encoding="utf-8")


def fresh(mode="opaque"):
    return Interpreter(mode=mode)


# ---------------------------------------------------------------------------
# 1. Opaque baseline: distinct proxies over one target are three distinct
#    identities under ===.

def test_criterion_01_opaque_baseline():
    interp = fresh("opaque")
    t = interp.heap.alloc_object()
    p1 = proxy_create(interp, t, interp.heap.alloc_object())
    p2 = proxy_create(interp, t, interp.heap.alloc_object())
    assert strict_equals(interp, p1, p2) is False
    assert strict_equals(interp, p1, t) is False
    assert strict_equals(interp, t, t) is True

    # the same shape at the language level, against a frozen transcript
    assert run_ok(corpus_source("opaque_baseline"), "opaque") \
        == corpus_expected("opaque_baseline")
    report(1, "opaque baseline: wrappers are distinct identities")


# ---------------------------------------------------------------------------
# 2. Trap-design matrix: === under trap mode must agree with raw identity
#    of an independently computed look-through fixpoint, exhaustively over
#    every constant-trap assignment of several small proxy shapes.

# each shape lists, per proxy node, the index of its target; index 0 is
# always the plain base object and proxies are numbered from 1
SHAPES = {
    "chain-1": [0],
    "chain-2": [0, 1],
    "chain-3": [0, 1, 2],
    "fork": [0, 0],
    "fork-deep": [0, 1, 1],
}


def model_fixpoint(node, parents, flags):
    """Independent model: follow targets while the trap answers true."""
    while node != 0 and flags[node]:
        node = parents[node - 1]
    return node


def test_criterion_02_trap_matrix_exhaustive():
    cases = 0
    for shape_name, parents in SHAPES.items():
        n_proxies = len(parents)
        for assignment in itertools.product([False, True],
                                            repeat=n_proxies):
            cases += 1
            flags = {i + 1: flag for i, flag in enumerate(assignment)}
            total = n_proxies + 1

            lines = ["var n0 = {};"]
            for i, parent in enumerate(parents, start=1):
                trap = "true" if flags[i] else "false"
                lines.append(
                    f"var n{i} = new Proxy(n{parent}, "
                    f"{{ isTransparent: function(t, p) "
                    f"{{ return {trap}; }} }});")
            for i in range(total):
                for j in range(total):
                    lines.append(f"print(n{i} === n{j});")
            output = run_ok("\n".join(lines), "trap", prelude=None)

            expected = []
            for i in range(total):
                for j in range(total):
                    same = model_fixpoint(i, parents, flags) \
                        == model_fixpoint(j, parents, flags)
                    expected.append("true" if same else "false")
            assert output.splitlines() == expected, \
                (shape_name, assignment)
    assert cases <= 100
    report(2, f"trap matrix: {cases} trap assignments match the model")


# ---------------------------------------------------------------------------
# 3. The proxy-detection idiom: == and :==: disagree exactly when the left
#    operand transparently wraps the right one.

def test_criterion_03_isproxy_snippet():
    expectations = {
        "isproxy_wrapped": "true\n",
        "isproxy_nested": "true\n",
        "isproxy_same": "false\n",
        "isproxy_unrelated": "false\n",
    }
    for name, verdict in expectations.items():
        expected = corpus_expected(name)
        assert expected == verdict
        assert run_ok(corpus_source(name), "transparent") == expected
    report(3, "proxy-detection idiom distinguishes wrapped from plain")


# ---------------------------------------------------------------------------
# 4. Equality stays an equivalence relation in every mode over randomized
#    heaps of objects and constant-trap proxy chains.

PRIMITIVE_POOL = [0.0, 1.0, 2.0, 42.0, -1.0, "", "a", "b", True, False,
                  NULL, UNDEFINED]


def generate_heap_layout(rng):
    """None means a plain object; (target, flag) a proxy with a constant
    trap (flag None: no trap at all). Chains are capped at four links."""
    layout = [None] * rng.randint(1, 3)
    total = rng.randint(6, 10)
    while len(layout) < total:
        base = rng.randrange(len(layout))
        for _ in range(rng.randint(1, 4)):
            flag = rng.choice([True, False, None])
            layout.append((base, flag))
            base = len(layout) - 1
    return layout


def materialize(interp, layout):
    refs = []
    for entry in layout:
        if entry is None:
            refs.append(interp.heap.alloc_object())
            continue
        target, flag = entry
        if flag is None:
            handler = interp.heap.alloc_object()
        else:
            trap = interp.alloc_native(
                "constantTrap", lambda i, this, args, f=flag: f)
            handler = interp.heap.alloc_object({"isTransparent": trap})
        refs.append(proxy_create(interp, refs[target], handler))
    return refs


def partition_consistent(matrix):
    """True iff the boolean matrix is reflexive and two values compare
    equal exactly when they relate identically to every sample value,
    which is precisely reflexivity + symmetry + transitivity."""
    rows = [tuple(row) for row in matrix]
    for i, row in enumerate(matrix):
        if not row[i]:
            return False
        for j, cell in enumerate(row):
            if cell != (rows[i] == rows[j]):
                return False
    return True


def triples_consistent(matrix):
    n = len(matrix)
    for i in range(n):
        if not matrix[i][i]:
            return False
        for j in range(n):
            if matrix[i][j] != matrix[j][i]:
                return False
            for k in range(n):
                if matrix[i][j] and matrix[j][k] and not matrix[i][k]:
                    return False
    return True


def test_criterion_04_equivalence_relations():
    rng = random.Random(20240819)
    heaps = 1000
    explicit_triple_budget = 50
    for heap_index in range(heaps):
        layout = generate_heap_layout(rng)
        # one interpreter per mode, all sharing the heap the first builds
        interps = [fresh(mode) for mode in EqualityMode]
        refs = materialize(interps[0], layout)
        picked = rng.sample(refs, min(8, len(refs)))
        sample = picked + rng.sample(PRIMITIVE_POOL, 12 - len(picked))
        rng.shuffle(sample)
        for mode, interp in zip(EqualityMode, interps):
            for op in (strict_equals, loose_equals):
                matrix = [[op(interp, a, b) for b in sample]
                          for a in sample]
                assert partition_consistent(matrix), \
                    (heap_index, mode, op.__name__)
                if heap_index < explicit_triple_budget:
                    assert triples_consistent(matrix), \
                        (heap_index, mode, op.__name__)
    report(4, f"equivalence laws hold over {heaps} random heaps x "
              f"{len(EqualityMode)} modes x 2 operators")


# ---------------------------------------------------------------------------
# 5. Mode coincidence: trap mode without traps is opaque mode; trap mode
#    with all-true traps is transparent mode.

EMPTY_FACTORY = "function handlerFactory() { return {}; }\n"
ALL_TRUE_FACTORY = (
    "function handlerFactory() {\n"
    "  return { isTransparent: function(t, p) { return true; } };\n"
    "}\n"
)


def signature(source, mode):
    result = run_source(source, mode=mode, prelude_source=PRELUDE)
    return (result.output, result.error_kind, result.error_line)


def test_criterion_05_mode_coincidence():
    # corpus scripts that never install an isTransparent trap and never
    # override transparency must be oblivious to trap-vs-opaque mode
    trapless = []
    for script in sorted(CORPUS_DIR.glob("*.plx")):
        source = script.read_text(encoding="utf-8")
        if "isTransparent" in source or "withTransparency" in source \
                or "contract" in source:
            continue
        trapless.append((script.name, source))
    assert len(trapless) >= 10
    for name, source in trapless:
        assert signature(source, "trap") == signature(source, "opaque"), \
            name

    # probe templates run twice: handlers without traps must make trap
    # mode coincide with opaque, all-true traps with transparent
    templates = sorted(COINCIDENCE_DIR.glob("*.plx"))
    assert len(templates) >= 4
    for template in templates:
        body = template.read_text(encoding="utf-8")
        quiet = EMPTY_FACTORY + body
        assert signature(quiet, "trap") == signature(quiet, "opaque"), \
            template.name
        loud = ALL_TRUE_FACTORY + body
        assert signature(loud, "trap") == signature(loud, "transparent"), \
            template.name
    report(5, f"trap==opaque and trap==transparent coincidences hold on "
              f"{len(trapless)} scripts + {len(templates)} probe templates")


# ---------------------------------------------------------------------------
# 6. Contract transparency: attaching contracts is unobservable in trap
#    mode; in opaque mode the identity probe gives the wrapper away.

CONTRACT_PAIRS = [
    ("contract_account_on", "contract_account_off"),
    ("contract_method_on", "contract_method_off"),
    ("contract_stacked", "contract_stacked_off"),
]


def test_criterion_06_contract_transparency():
    for with_name, without_name in CONTRACT_PAIRS:
        with_out = run_ok(corpus_source(with_name), "trap")
        without_out = run_ok(corpus_source(without_name), "trap")
        assert with_out == without_out, (with_name, without_name)
        assert with_out == corpus_expected(with_name)

    # the schizophrenia witness: same contract script, opaque equality
    opaque_out = run_ok(corpus_source("contract_account_on"), "opaque")
    assert opaque_out == corpus_expected("contract_account_opaque")
    clean = run_ok(corpus_source("contract_account_off"), "opaque")
    opaque_lines = opaque_out.splitlines()
    clean_lines = clean.splitlines()
    assert len(opaque_lines) == len(clean_lines)
    diffs = [i for i, (a, b) in enumerate(zip(opaque_lines, clean_lines))
             if a != b]
    assert diffs == [2]
    assert (opaque_lines[2], clean_lines[2]) == ("false", "true")
    report(6, "contracts invisible in trap mode, witnessed in opaque mode")


# ---------------------------------------------------------------------------
# 7. Membranes: cached wrappers, no wet leaks, and total revocation.

MEMBRANE_SETUP = """
var leafA = { x: 1 };
var wet = { child: { leaf: leafA }, f: function(v) { return v; } };
var m = membrane(wet);
var w0 = m.wrapper;
var w1 = w0.child;
var w2 = w1.leaf;
var w3 = w0.f;
var w1again = w0.child;
var echoed = w0.f(w2);
"""


def test_criterion_07_membrane_and_revocation():
    for mode in ("opaque", "transparent"):
        interp = fresh(mode)
        evaluate_program(parse_source(PRELUDE), interp)
        result = evaluate_program(parse_source(MEMBRANE_SETUP), interp)
        assert result.ok, (result.error_kind, result.error_message)
        env = interp.globals

        wet_refs = [env["wet"]]
        wet_refs.append(wet_refs[0].get(interp, "child"))
        wet_refs.append(wet_refs[1].get(interp, "leaf"))
        wet_refs.append(wet_refs[0].get(interp, "f"))

        wrappers = [env[n] for n in ("w0", "w1", "w2", "w3")]
        # repeated crossings reuse the cached wrapper, by raw identity
        assert opaque_strict_equals(interp, env["w1"], env["w1again"])
        assert opaque_strict_equals(interp, env["echoed"], env["w2"])
        # the dry side holds only wrappers, never a wet reference
        for wrapper in wrappers:
            assert isinstance(wrapper, ProxyObject)
            for wet in wet_refs:
                assert not opaque_strict_equals(interp, wrapper, wet)

        revoke = env["m"].get(interp, "revoke")
        interp.invoke(revoke, None, [])
        for obj in wrappers:
            for probe in (
                lambda: obj.get(interp, "x"),
                lambda: obj.set(interp, "x", 1.0),
                lambda: obj.has(interp, "x"),
                lambda: obj.delete(interp, "x"),
                lambda: obj.own_keys(interp),
                lambda: obj.call(interp, None, []),
            ):
                with pytest.raises(RevokedProxyError):
                    probe()

    # the frozen language-level transcripts agree
    for name in ("membrane_cache", "membrane_isolation"):
        source = corpus_source(name)
        mode = _mode_pragma(source) or EqualityMode.OPAQUE
        assert run_ok(source, mode) == corpus_expected(name)
    revoked = run_source(corpus_source("membrane_revoked"),
                         mode=EqualityMode.OPAQUE, prelude_source=PRELUDE)
    assert revoked.error_kind == "RevokedProxyError"
    assert revoked.output == corpus_expected("membrane_revoked")
    report(7, "membrane caching, isolation, and total revocation hold")


# ---------------------------------------------------------------------------
# 8. Identity maps resolve keys the way the mode's equality does.

WEAKMAP_PROBE = """
var t = { id: "t" };
var p = new Proxy(t, { isTransparent: function(a, b) { return true; } });
var wm = WeakMap();
wm.set(t, 42);
print(wm.get(p));
"""


def test_criterion_08_weakmap_consistency():
    assert run_ok(WEAKMAP_PROBE, "trap", prelude=None) == "42\n"
    assert run_ok(WEAKMAP_PROBE, "opaque", prelude=None) == "undefined\n"
    for name in ("weakmap_trap", "weakmap_opaque"):
        source = corpus_source(name)
        mode = "trap" if "// mode: trap" in source else "opaque"
        assert run_ok(source, mode) == corpus_expected(name)
    report(8, "identity-map lookups track each mode's equality")


# ---------------------------------------------------------------------------
# 9. Scoped transparency overrides: visible only inside the dynamic
#    extent, restored on both normal and error exits.

def test_criterion_09_scoped_override_balance():
    interp = fresh("trap")
    t = interp.heap.alloc_object()
    p = proxy_create(interp, t, interp.heap.alloc_object())
    rng = random.Random(987123)
    stats = {"true_probes": 0, "errors": 0, "max_depth": 0}
    model = []

    def probe():
        expected = model[-1] if model else False
        assert strict_equals(interp, p, t) is expected
        if expected:
            stats["true_probes"] += 1

    def enter(depth):
        flag = rng.random() < 0.5

        def thunk(i, this, args):
            model.append(flag)
            try:
                stats["max_depth"] = max(stats["max_depth"], len(model))
                for _ in range(rng.randint(1, 3)):
                    roll = rng.random()
                    if roll < 0.45:
                        probe()
                    elif roll < 0.75 and depth < 6:
                        enter(depth + 1)
                    else:
                        raise ContractViolation("chaos")
            finally:
                model.pop()

        with_transparency(interp, p, flag,
                          interp.alloc_native("thunk", thunk))

    for _ in range(100):
        probe()
        try:
            enter(0)
        except PlxRuntimeError:
            stats["errors"] += 1
        assert interp.override_stack == []
        assert model == []
        probe()

    assert stats["true_probes"] > 20
    assert stats["errors"] > 20
    assert stats["max_depth"] >= 3

    # deterministic language-level transcript of the same behavior
    assert run_ok(corpus_source("scoped_override"), "trap") \
        == corpus_expected("scoped_override")
    report(9, f"override stack balanced across 100 sequences "
              f"({stats['errors']} aborted by errors, "
              f"nesting to {stats['max_depth']})")


# ---------------------------------------------------------------------------
# 10. Primitive equality against a table tabulated by an independent
#     engine: 144 pairs, == and ===, byte-frozen in the repo.

def load_table():
    data = json.loads(
        (DATA_DIR / "primitive_equality_table.json").read_text())
    return data["values"], data["pairs"]


def to_literal(desc):
    kind, text = desc["type"], desc["repr"]
    if kind == "number":
        return "(0 / 0)" if text == "NaN" else text
    if kind == "string":
        return '"' + text + '"'
    return text


def to_value(desc):
    kind, text = desc["type"], desc["repr"]
    if kind == "number":
        return float("nan") if text == "NaN" else float(text)
    if kind == "string":
        return text
    if kind == "boolean":
        return text == "true"
    return NULL if kind == "null" else UNDEFINED


def test_criterion_10_primitive_equality_table():
    values, pairs = load_table()
    assert len(pairs) == len(values) ** 2 == 144

    lines = []
    expected = []
    for i, j, loose, strict in pairs:
        a, b = to_literal(values[i]), to_literal(values[j])
        lines.append(f"print({a} == {b});")
        lines.append(f"print({a} === {b});")
        expected.append("true" if loose else "false")
        expected.append("true" if strict else "false")
    script = "\n".join(lines)
    for mode in ("opaque", "trap"):
        assert run_ok(script, mode, prelude=None).splitlines() == expected

    # the same table through the embedding API, in every mode
    decoded = [to_value(v) for v in values]
    for mode in EqualityMode:
        interp = fresh(mode)
        for i, j, loose, strict in pairs:
            assert loose_equals(interp, decoded[i], decoded[j]) is loose
            assert strict_equals(interp, decoded[i], decoded[j]) is strict
    report(10, "all 144 primitive pairs match the independent table")
