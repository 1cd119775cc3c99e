"""Run one proxylang benchmark workload, or all of them.

    python3 perfbench/run.py --workload compute --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py           # every workload, one process each

A run generates its inputs from ``--seed``, then repeats whole rounds of
the workload for ``--seconds`` seconds, and until it has made at least
four rounds and 1,000 timed calls, checking every output. Its last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` rounds alternate untraced and
traced, and the metrics are the per-layer ones of the traced rounds plus
the tracing overhead.
"""

import argparse
import gc
import importlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from speed import Speed  # noqa: E402

WORKLOADS = ("compute", "wrappers", "equality", "scripts")
MIN_ROUNDS = 4   # each call's median time is taken over at least this many
MIN_CALLS = 1000  # so that ten latency samples lie beyond the 99th percentile


def workload_class(name):
    """The class in ``workloads/<name>.py`` that generates and runs it."""
    module = importlib.import_module(f"workloads.{name}")
    return getattr(module, name.capitalize())


def run_one(name, seed, seconds, trace):
    """Run one workload in this process; return its result object."""
    plx = harness.load_program()
    speed = Speed()
    setup = harness.Setup(plx, speed)
    workload = workload_class(name)(plx, setup, seed)
    # the generated programs live as long as the run; keep the collector
    # from walking them whenever it collects the program's garbage
    gc.collect()
    gc.freeze()
    meter = harness.Meter(speed)
    if not trace:
        harness.run_rounds(workload, seconds, meter, MIN_CALLS, MIN_ROUNDS)
        metrics = harness.end_to_end(meter, setup)
        meters = [meter]
    else:
        from tracing import Tracer
        tracer = Tracer(plx, speed)
        # a traced run reports no percentiles, so it needs no minimum of
        # calls; half the time goes to untraced rounds
        harness.run_rounds(workload, seconds / 2, meter,
                           min_rounds=MIN_ROUNDS // 2, tracer=tracer)
        metrics = tracer.metrics()
        plain_s = harness.round_s(meter)
        traced_s = harness.round_s(tracer.meter)
        metrics["trace.run_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_s - plain_s,
                                       "unit": "s"}
        meters = [meter, tracer.meter]
    mismatches = [m for each in meters for m in each.mismatches]
    failures = {f for each in meters for f in each.failures}
    for line in mismatches[:20]:
        print(f"perfbench: wrong output: {line}", file=sys.stderr)
    for line in sorted(failures):
        print(f"perfbench: failed: {line}", file=sys.stderr)
    print(f"# {name}: {workload.describe()}; "
          f"{sum(len(m.rounds) for m in meters)} rounds", file=sys.stderr)
    return {"correct": not mismatches,
            "attempted": sum(m.attempted for m in meters),
            "failed": sum(m.failed for m in meters), "metrics": metrics}


def run_all(seed, seconds, trace):
    """Run every workload in a fresh process of its own and print a table
    of its metrics; exit non-zero if any run fails or is incorrect."""
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:30} {entry['value']:>14.6g} {entry['unit']}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
