"""Quick tests of the benchmark itself: every workload runs and checks
out at a tiny size, every checker rejects a perturbed output, and the
traced counts repeat.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402
from speed import Speed  # noqa: E402
from tracing import Tracer  # noqa: E402

plx = harness.load_program()
speed = Speed()
SCALE = 0.1


def tiny(name):
    options = {"deep_chain": 500} if name == "wrappers" else {}
    return run.workload_class(name)(plx, harness.Setup(plx, speed), seed=7,
                                    scale=SCALE, **options)


def one_round(workload):
    meter = harness.Meter(speed)
    harness.run_rounds(workload, 0, meter)
    return meter


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_round_is_correct(name):
    meter = one_round(tiny(name))
    assert meter.mismatches == []
    assert meter.failures == []
    assert meter.attempted > 0


def perturbed(result):
    """The same result with its outcome changed: other output on success,
    success with empty output on an error."""
    if not result.ok:
        return dataclasses.replace(result, status="ok", error_kind=None,
                                   error_message=None, output="")
    output = result.output
    digits = list(re.finditer(r"\d", output))
    if digits:
        k = digits[-1].start()
        output = output[:k] + str((int(output[k]) + 1) % 10) + output[k + 1:]
    elif "true" in output:
        output = output.replace("true", "false", 1)
    elif "false" in output:
        output = output.replace("false", "true", 1)
    else:
        output += "x"
    return dataclasses.replace(result, output=output)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_checker_rejects_every_perturbed_output(name, monkeypatch):
    workload = tiny(name)
    for entry in ("evaluate_program", "run_source"):
        real = getattr(plx, entry)
        monkeypatch.setattr(
            plx, entry,
            lambda *args, real=real, **kwargs: perturbed(real(*args,
                                                              **kwargs)))
    meter = harness.Meter(speed)
    meter.start_round()
    workload.round(meter)
    calls = len(meter.rounds[0])
    assert calls > 0
    assert len(meter.mismatches) == calls


def test_host_exception_is_a_failed_operation():
    meter = harness.Meter(speed)
    meter.start_round()

    def overflow():
        raise RecursionError

    assert meter.run(overflow, harness.Expect("1\n", error="*"), ops=3) \
        is None
    assert (meter.attempted, meter.failed, meter.mismatches) == (3, 3, [])
    assert meter.latencies == [float("inf")]


def test_deep_forwarding_read_is_attempted_once_per_round():
    workload = tiny("wrappers")
    meter = one_round(workload)
    deep = [label for label in meter.failures if "forwarding" in label]
    assert deep == []  # 500 links are well within reach
    modes = [mode for mode, _, _ in meter.rounds[0]]
    assert modes.count(None) == 1


def traced_counts(name):
    tracer = Tracer(plx, speed)
    meter = harness.Meter(speed)
    workload = tiny(name)
    harness.run_rounds(workload, 0, meter, min_rounds=2, tracer=tracer)
    assert tracer.meter.mismatches == [] and meter.mismatches == []
    return tracer.metrics()


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat(name):
    first, second = traced_counts(name), traced_counts(name)
    counts = {k: v for k, v in first.items() if v["unit"] == "count"}
    assert counts == {k: second[k] for k in counts}
    assert counts["prelude.loads"]["value"] > 0


def test_compute_never_enters_proxies_or_weakmap():
    metrics = traced_counts("compute")
    for name, entry in metrics.items():
        if name.startswith(("proxies.", "weakmap.")):
            assert entry["value"] == 0, name
    assert metrics["interpreter.calls"]["value"] > 0
    assert metrics["equality.compares"]["value"] > 0


def test_tracer_restores_the_program():
    import proxylang.interpreter as interpreter
    before = (interpreter.evaluate_program, interpreter.Interpreter.invoke,
              plx.evaluate_program)
    traced_counts("equality")
    assert (interpreter.evaluate_program, interpreter.Interpreter.invoke,
            plx.evaluate_program) == before


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    traced = traced_counts("scripts")
    traced["trace.run_s"] = traced["trace.overhead_s"] = {"unit": "s"}
    assert per_layer == {k: v["unit"] for k, v in traced.items()}
    meter = one_round(tiny("compute"))
    setup = harness.Setup(plx, speed)
    setup.interpreter("opaque")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    measured = harness.end_to_end(meter, setup)
    assert end_to_end == {k: v["unit"] for k, v in measured.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "compute",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
