"""Tests of the benchmark itself: the tracer, the reference check and the printed metrics.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
import signal
from collections import Counter

import numpy as np
import pytest

import run
from tracer import Tracer

run.import_package()

import iupm  # noqa: E402  (imported from this checkout's src/ by import_package)
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def toy_package():
    """toypkg.mod defines outer() and inner(); toypkg.other imports inner by name."""
    now = [0.0]
    mod = types.ModuleType("toypkg.mod")

    def inner():
        now[0] += 5.0

    def outer():
        now[0] += 1.0
        mod.inner()
        now[0] += 2.0
        mod.inner()
        now[0] += 3.0

    mod.inner, mod.outer = inner, outer
    other = types.ModuleType("toypkg.other")
    other.inner = inner
    modules = {"toypkg": types.ModuleType("toypkg"), "toypkg.mod": mod, "toypkg.other": other}
    sys.modules.update(modules)
    yield mod, other, (lambda: now[0])
    for name in modules:
        del sys.modules[name]


def test_self_time_on_nested_toy_calls(toy_package):
    mod, other, clock = toy_package
    with Tracer("toypkg", spans=["mod.outer", "mod.inner"], clock=clock) as tracer:
        mod.outer()
        assert other.inner is mod.inner and hasattr(other.inner, "__wrapped__")
    assert tracer.span_calls() == Counter({"mod.outer": 1, "mod.inner": 2})
    assert tracer.self_times() == {"mod.outer": 6.0, "mod.inner": 10.0}
    assert tracer.durations() == {"mod.outer": [16.0], "mod.inner": [5.0, 5.0]}


def test_missing_binding_is_reported_absent(toy_package):
    mod, _, clock = toy_package
    with Tracer("toypkg", spans=["mod.outer", "mod.gone", "nomodule.f"], clock=clock) as tracer:
        mod.outer()
    assert tracer.absent == ["mod.gone", "nomodule.f"]
    assert tracer.span_calls() == Counter({"mod.outer": 1})


def test_bindings_are_restored_after_a_traced_run():
    modules = [m for k, m in sys.modules.items() if k == "iupm" or k.startswith("iupm.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    wl = workloads.WORKLOADS["study-multi"]()
    tracer = run.make_tracer(wl)
    with tracer:
        assert iupm.inference.fit_mle is not before[("iupm.inference", "fit_mle")]
        assert iupm.bias.fit_mle is iupm.inference.fit_mle  # every binding of one function
        wl.warmup().run()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.absent == [] and tracer.span_calls()["inference.fit_mle"] == 6


def test_perturbed_output_trips_the_reference_check_and_counts_as_failed():
    wl = workloads.WORKLOADS["study-multi"]()
    refs = json.loads(run.REFERENCES.read_text(encoding="utf-8"))["study-multi"]
    op = wl.warmup()
    metrics, reps = op.run()
    assert run.Checker(wl, refs)(op, (metrics, reps))

    perturbed = {nm: arr.copy() for nm, arr in reps.items()}
    perturbed[iupm.MLE_WITH_UDSA][1, 0] *= 1.0 + 1e-8  # one standard error, beyond the 1e-9 tolerance
    wl.rounds = lambda seed: iter([[workloads.Op(op.key, op.size, lambda: (metrics, perturbed), op.work)]])
    checker = run.Checker(wl, refs)
    _, attempted, failed = run.timing_pass(wl, 0, 0.0, checker, Counter(), run.HostSpeed())
    assert (attempted, failed) == (op.size, op.size)
    assert any("stored reference" in p for p in checker.problems)
    assert 1e-9 < checker.max_rel_err < 2e-8


def test_host_speed_leaves_no_timer_behind():
    speed = run.HostSpeed(interval=0.01)
    handler = signal.getsignal(signal.SIGALRM)
    scaled, out, exc = speed.time(lambda: sum(i * i for i in range(300_000)))
    assert out == sum(i * i for i in range(300_000)) and exc is None and scaled > 0
    _, out, exc = speed.time(lambda: 1 / 0)
    assert out is None and isinstance(exc, ZeroDivisionError)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.factors) == 2


def test_rel_err_treats_structure_and_missing_values_strictly():
    assert workloads.rel_err([1.0, None, "x"], [1.0, None, "x"]) == 0.0
    assert workloads.rel_err([1.0, None], [1.0, 0.0]) == float("inf")
    assert workloads.rel_err([1.0], [1.0, 2.0]) == float("inf")
    assert workloads.rel_err(True, 1) == float("inf")
    assert workloads.rel_err(2.0, 2.0 * (1 + 1e-10)) < 1e-9
    assert workloads.clean(np.array([1.0, np.nan])) == [1.0, None]


def test_declared_metrics_match_the_benchmark_file():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_metrics()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.CALIBRATION_OF) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_has_a_name_and_a_unit(trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "study-imperfect", "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=180, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = run.per_layer_metrics() if trace else run.END_TO_END
    assert list(result["metrics"]) == list(declared)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study-multi", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
