"""What every workload shares: loading the program, interpreter set-up,
timing and checking of calls, and the end-to-end metrics of a run.

The program is imported from ``src/`` of the checkout this directory sits
in, and is driven only through its public API.
"""

import gc
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import clock

ROOT = Path(__file__).resolve().parent.parent
MODES = ("opaque", "transparent", "operators", "trap")


def load_program():
    """Import proxylang from the checkout, or exit if it is not there."""
    src = ROOT / "src"
    if not (src / "proxylang" / "__init__.py").is_file():
        sys.exit(f"perfbench: no proxylang sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import proxylang
    return proxylang


class Setup:
    """Interpreter set-up as an embedder does it: ``Interpreter(mode)``
    plus the bundled prelude, parsed and evaluated. Every set-up is timed,
    in seconds at reference speed."""

    def __init__(self, plx, speed):
        self.plx = plx
        self.speed = speed
        self.prelude = plx.default_prelude_source()
        self.samples = []

    def interpreter(self, mode):
        plx = self.plx
        self.speed.refresh()
        start = clock()
        interp = plx.Interpreter(mode)
        result = plx.evaluate_program(plx.parse_source(self.prelude), interp)
        self.samples.append(self.speed.scale(clock() - start))
        if not result.ok:
            raise RuntimeError(f"prelude failed in {mode} mode: "
                               f"{result.error_kind}: {result.error_message}")
        return interp


class Expect:
    """The outcome an operation must have: ``output`` printed on success,
    or a language error of kind ``error``, where ``"*"`` takes any kind.
    Giving both accepts either outcome."""

    __slots__ = ("output", "error")

    def __init__(self, output=None, error=None):
        self.output = output
        self.error = error

    def mismatch(self, result):
        """None when ``result`` is right, else what is wrong with it."""
        if not result.ok:
            if self.error in ("*", result.error_kind):
                return None
            return f"{result.error_kind}: {result.error_message}"
        if self.output is None:
            return f"expected {self.error}, got {result.output[:120]!r}"
        if result.output != self.output:
            return (f"output {result.output[:120]!r} != "
                    f"expected {self.output[:120]!r}")
        return None


class Meter:
    """Runs calls into the program, times them and checks their results.

    A call returns an ``ExecutionResult`` and counts ``ops`` operations of
    its workload. A host exception out of the call is a failed operation;
    a result that differs from the expected one makes the run incorrect.

    Times are in seconds at reference speed (see ``speed``). Every round
    makes the same calls in the same order, so the k-th call of each round
    is the same work, and the round-level metrics take each call's median
    over the rounds.
    """

    def __init__(self, speed):
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.mismatches = []
        self.failures = []
        self.latencies = []   # seconds of every call with ops; inf if failed
        self.rounds = []      # per round: [(mode, ops, seconds)] of its calls

    def start_round(self):
        self.rounds.append([])

    def run(self, call, expect, ops=1, mode=None, label=""):
        """Time ``call()`` and check its result against ``expect``.

        ``mode`` names the equality mode the operations ran in, for the
        per-mode rates; None keeps them out of the rates. A call with no
        operations is set-up work: timed, but not a latency sample."""
        self.speed.refresh()
        start = clock()
        try:
            result = call()
        except Exception as exc:  # a host exception is the failure counted
            result = None
            self.failed += ops
            self.failures.append(f"{label}: {type(exc).__name__}")
        elapsed = self.speed.scale(clock() - start)
        self.attempted += ops
        self.rounds[-1].append((mode, ops, elapsed))
        if ops:
            self.latencies.append(elapsed if result is not None
                                  else math.inf)
        if result is not None:
            problem = expect.mismatch(result)
            if problem is not None:
                self.mismatches.append(f"{label}: {problem}")
        return result

    def typical_calls(self):
        """(mode, ops, seconds) of each call of a round, its seconds the
        median over the rounds."""
        first = self.rounds[0]
        if any(len(r) != len(first) for r in self.rounds):
            raise RuntimeError("rounds made different calls")
        return [(mode, ops, statistics.median(r[k][2] for r in self.rounds))
                for k, (mode, ops, _) in enumerate(first)]


def must_run(plx, interp, source):
    """Evaluate set-up code that has to succeed, and drop its output."""
    result = plx.evaluate_program(plx.parse_source(source), interp)
    if not result.ok:
        raise RuntimeError(f"set-up failed: {result.error_kind}: "
                           f"{result.error_message}")
    clear_output(interp)


def clear_output(interp):
    interp.sink.seek(0)
    interp.sink.truncate(0)


def percentile(values, share):
    """Nearest-rank percentile; ``share`` in (0, 1]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def run_rounds(workload, seconds, meter, min_ops=0, min_rounds=1,
               tracer=None):
    """Repeat whole rounds until ``seconds`` have passed, the meter holds
    at least ``min_ops`` latency samples, and ``min_rounds`` have run.
    Each round starts by setting up an interpreter in every mode, so the
    set-up samples spread over the whole run.

    With a tracer, each untraced round is followed by a traced one, which
    ``tracer.meter`` times."""
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        for mode in MODES:
            workload.setup.interpreter(mode)
        meter.start_round()
        workload.round(meter)
        if tracer is not None:
            gc.collect()
            tracer.start_round()
            tracer.meter.start_round()
            workload.round(tracer.meter)
            tracer.end_round()
        if (time.perf_counter() >= deadline and len(meter.rounds) >= min_rounds
                and len(meter.latencies) >= min_ops):
            return


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def round_s(meter):
    """Seconds of one round, each call taking its median over the rounds."""
    return sum(seconds for _, _, seconds in meter.typical_calls())


def end_to_end(meter, setup):
    """The end-to-end metrics of one untraced run."""
    samples_ms = [s * 1000.0 for s in meter.latencies]
    calls = meter.typical_calls()
    metrics = {
        "setup_s": (statistics.median(setup.samples), "s"),
        "run_s": (round_s(meter), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    for mode in MODES:
        ops = sum(n for m, n, _ in calls if m == mode)
        busy = sum(seconds for m, _, seconds in calls if m == mode)
        metrics[f"ops_per_s.{mode}"] = (ops / busy, "op/s")
    metrics["script_p50_ms"] = (percentile(samples_ms, 0.50), "ms")
    metrics["script_p99_ms"] = (percentile(samples_ms, 0.99), "ms")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}
