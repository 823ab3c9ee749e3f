"""iupm benchmark: time each workload end to end, or trace it layer by layer.

    python3 perfbench/run.py --workload study-multi --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload, one after another
    python3 perfbench/run.py --write-references   # re-record references.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  A human-readable
report goes to standard error.  The exit code is 1 when an output fails its
check and 2 when the package cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path
from statistics import median

# One thread: OpenBLAS would otherwise run large dot products on every core.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402  (after the thread settings; setup_s times the import of iupm alone)

from tracer import OBJECTIVE, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
WORKLOAD_NAMES = ("study-multi", "fit-large-m", "lrt-negbin", "study-imperfect")
SETUP_REPEATS = 5
_CAL_Y = np.array([3.0, 5.0, 2.0, 7.0, 1.0, 4.0])
SAMPLE_INTERVAL_S = 0.05  # host-speed samples during timed calls (not while tracing)

END_TO_END = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Functions traced as spans, and the metrics reported for each.
SPANS = {
    "poisson.log_likelihood": ("calls", "self_ms"),
    "poisson.gradient": ("calls", "self_ms"),
    "poisson.hessian": ("calls", "self_ms"),
    "poisson.classify_extreme": ("calls", "self_ms"),
    "inference.fit_mle": ("calls", "self_ms", "p50_ms"),
    "inference.fisher_information_multi": ("calls", "self_ms", "p50_ms"),
    "inference.expected_m": ("calls", "self_ms", "p50_ms"),
    "bias.fit_bc_mle": ("calls", "self_ms"),
    "bias.a_matrices": ("calls", "self_ms"),
    "bias.third_derivative_expectations": ("calls", "self_ms"),
    "bias.bias_term": ("calls", "self_ms"),
    "negbin.fit_negbin": ("calls", "self_ms", "p50_ms"),
    "negbin.lrt_overdispersion": ("calls", "self_ms", "p50_ms"),
    "imperfect.fit_imperfect": ("calls", "self_ms", "p50_ms"),
    "simulate.run_study": ("calls", "self_ms"),
    "simulate.lrt_power_study": ("calls", "self_ms"),
    "simulate.simulate_level": ("calls", "self_ms"),
    "assay.summarize_wells": ("calls", "self_ms"),
    "assay.parse_summary_json": ("self_ms",),
    "cli.main": ("self_ms",),
}
# Optimizers: the parameters holding their callbacks, and the metrics reported.
OPTIMIZERS = {
    "optimize.maximize": ({"f": "f_evals", "g": "g_evals"}, ("calls", "iters", "f_evals", "g_evals", "self_ms")),
    "optimize.maximize_box": ({"f": "f_evals", "g": "g_evals"}, ("calls", "iters", "f_evals", "g_evals", "self_ms")),
    "optimize.fd_newton_polish": ({"grad": "g_evals"}, ("calls", "g_evals", "self_ms")),
}
# Functions called too often for a span each: only their calls are counted.
COUNTED = ("special.log_binom",)
EXCLUDED = ("mle-with-udsa", "bc-mle-with-udsa", "mle-without-udsa", "imperfect-mle", "perfect-assumed-mle", "lrt")
UNITS = {"calls": "count/op", "iters": "count/op", "f_evals": "count/op", "g_evals": "count/op",
         "self_ms": "ms/op", "p50_ms": "ms"}


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name, (_, kinds) in OPTIMIZERS.items():
        out.update({f"{name}.{kind}": UNITS[kind] for kind in kinds})
    out["optimize.objective_ms"] = "ms/op"
    for name, kinds in SPANS.items():
        out.update({f"{name}.{kind}": UNITS[kind] for kind in kinds})
    out.update({f"{name}.calls": "count/op" for name in COUNTED})
    out["simulate.redraws"] = "count/op"
    out.update({f"simulate.excluded.{nm}": "count/op" for nm in EXCLUDED})
    out.update({
        "warnings.count": "count/op",
        "result_max_rel_err": "ratio",
        "failed_frac": "ratio",
        "trace_overhead_frac": "ratio",
        "trace.absent_layers": "count",
    })
    return out


# ---------------------------------------------------------------------------
# Checking


class Checker:
    """Checks each output against its invariants and any stored reference."""

    def __init__(self, workload, references: dict):
        self.workload = workload
        self.references = references
        self.max_rel_err = 0.0
        self.compared = 0
        self.problems: list[str] = []

    def __call__(self, op, out, exc=None, captured=None) -> bool:
        wl = self.workload
        if exc is not None:
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            try:
                problems = wl.check(out, op) + self._compare(op.key, wl.flatten(out))
                if captured is not None:
                    problems += wl.check_captured(captured, out)
                    problems += self._compare(op.key + "/captured", wl.flatten_captured(captured))
            except Exception as err:  # a malformed output fails its op; the run goes on
                problems = [f"output not checkable: {type(err).__name__}: {err}"]
        self.problems += [f"{op.key}: {p}" for p in problems]
        return not problems

    def _compare(self, key: str, flat: dict) -> list[str]:
        from workloads import REL_TOL, rel_err

        ref = self.references.get(key)
        if ref is None:
            return []
        # Finite numbers differ by at most 2 in this measure; 2 also marks a structural mismatch.
        err = min(rel_err(flat, ref), 2.0)
        self.compared += 1
        self.max_rel_err = max(self.max_rel_err, err)
        return [f"deviates from the stored reference by {err:.3g} (tolerance {REL_TOL:g})"] if err > REL_TOL else []


# ---------------------------------------------------------------------------
# Host speed, set-up, timing pass, traced passes


def calibrate_numpy() -> float:
    """Seconds a fixed loop of small-array numpy calls (the solvers' mix) takes right now."""
    start = time.perf_counter()
    rates = np.full(6, 0.3)
    total = 0.0
    for _ in range(60):
        rates = np.abs(rates + 1e-3 * (_CAL_Y / np.expm1(rates) - (24.0 - _CAL_Y)))
        total += float(_CAL_Y @ np.log(-np.expm1(-rates)) - (24.0 - _CAL_Y) @ rates)
    return time.perf_counter() - start


def calibrate_python() -> float:
    """Seconds a fixed pure-Python loop over math.lgamma (the O(M) sums' mix) takes right now."""
    start = time.perf_counter()
    total = 0.0
    for k in range(1, 3000):
        total += math.lgamma(k) - math.lgamma(k + 1)
    return time.perf_counter() - start


def calibrate_mixed() -> float:
    """Geometric mean of the two loops, for code that is half of each."""
    return math.sqrt(calibrate_numpy() * calibrate_python())


# Each calibration with its seconds on an idle 2-vCPU x86-64 VM (Python 3.11, numpy 2.4),
# and the one that tracks each workload's code best under contention.
CALIBRATIONS = {
    "numpy": (calibrate_numpy, 0.0010),
    "mixed": (calibrate_mixed, math.sqrt(0.0010 * 0.0014)),
}
CALIBRATION_OF = {"study-multi": "numpy", "fit-large-m": "mixed", "lrt-negbin": "numpy", "study-imperfect": "numpy"}


class HostSpeed:
    """Times calls in reference-host seconds.

    The benchmark shares its host's CPUs, and their speed for this process
    drifts by up to 2x over seconds.  A call's wall time is scaled by the
    calibration loop's reference time over the geometric mean of its times
    before the call, after it and, when ``interval`` is set, every
    ``interval`` seconds during it (from a SIGALRM handler whose own time is
    not counted).  This removes most of the drift from the metrics.
    """

    def __init__(self, calibration: str = "numpy", interval: float = 0.0):
        self.calibrate, self.reference_s = CALIBRATIONS[calibration]
        self.interval = interval
        self.factors: list[float] = []

    def time(self, fn):
        """Call fn(); returns (scaled seconds, result or None, exception or None)."""
        calibrate = self.calibrate
        samples = [calibrate()]
        spent, done = 0.0, False

        def sample(signum, frame):
            nonlocal spent
            if not done:
                begin = time.perf_counter()
                samples.append(calibrate())
                spent += time.perf_counter() - begin

        if self.interval:
            previous = signal.signal(signal.SIGALRM, sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        start = time.perf_counter()
        try:
            out, exc = fn(), None
        except Exception as err:  # counted as a failed op by the caller
            out, exc = None, err
        finally:
            done = True
            elapsed = time.perf_counter() - start
            if self.interval:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        samples.append(calibrate())
        factor = self.reference_s / math.exp(math.fsum(map(math.log, samples)) / len(samples))
        self.factors.append(factor)
        return (elapsed - spent) * factor, out, exc


def set_up(wl, work_dir: Path, checker: Checker, speed: HostSpeed) -> tuple[float, bool]:
    """Median over SETUP_REPEATS of (prepare inputs + warm-up op); True when every warm-up checked out."""
    times, ok = [], True
    for _ in range(SETUP_REPEATS):
        prepare_s, op, exc = speed.time(lambda: (wl.prepare(work_dir), wl.warmup())[1])
        if exc is not None:
            raise exc
        run_s, out, exc = speed.time(op.run)
        times.append(prepare_s + run_s)
        ok = checker(op, out, exc) and ok
    return median(times), ok


def timing_pass(wl, seed: int, seconds: float, checker: Checker, seen: Counter, speed: HostSpeed):
    """Run whole rounds of ops until ``seconds`` of wall time have passed.

    Returns (ops per scaled second, attempted, failed).  Each kind of work
    counts with the fastest of its scaled timings, the one least disturbed
    by the host's other tenants.
    """
    best: dict[str, tuple[float, int]] = {}
    attempted = failed = 0
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for ops in wl.rounds(seed):
            for op in ops:
                scaled, out, exc = speed.time(op.run)
                if op.work not in best or scaled < best[op.work][0]:
                    best[op.work] = (scaled, op.size)
                attempted += op.size
                failed += 0 if checker(op, out, exc) else op.size
            if time.perf_counter() - start >= seconds:
                break
    seen.update(f"{w.category.__name__} {Path(w.filename).name}:{w.lineno}" for w in caught)
    rate = sum(size for _, size in best.values()) / sum(t for t, _ in best.values())
    return rate, attempted, failed


def make_tracer(wl):
    return Tracer(
        "iupm",
        spans=tuple(SPANS) + tuple(c for c in wl.captures if c not in SPANS),
        counted=COUNTED,
        optimizers={name: roles for name, (roles, _) in OPTIMIZERS.items()},
        keep_results=wl.captures,
    )


def one_pass(wl, ops, checker: Checker, seen: Counter, speed: HostSpeed, tracer=None):
    """Run a fixed list of ops once; returns (scaled seconds, failed, counts)."""
    counts: Counter = Counter()
    failed, busy = 0, 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for op in ops:
            before = {c: len(tracer.results[c]) for c in wl.captures} if tracer else {}
            scaled, out, exc = speed.time(op.run)
            busy += scaled
            captured = {c: tracer.results[c][before[c]:] for c in wl.captures} if tracer and wl.captures else None
            failed += 0 if checker(op, out, exc, captured) else op.size
            if exc is None:
                try:
                    counts.update({f"simulate.excluded.{k}": v for k, v in wl.excluded(out, op).items()})
                except Exception as err:  # already reported by the checker
                    checker.problems.append(f"{op.key}: exclusions unreadable: {err}")
    seen.update(f"{w.category.__name__} {Path(w.filename).name}:{w.lineno}" for w in caught)
    counts["warnings.count"] = len(caught)
    if tracer is not None:
        counts.update({f"{name}.calls": n for name, n in tracer.span_calls().items()})
        counts.update({f"{name}.calls" if name in COUNTED else name: n for name, n in tracer.counts.items()})
    return busy, failed, counts


def traced_passes(wl, seed: int, seconds: float, checker: Checker, seen: Counter, speed: HostSpeed):
    """Alternate untraced and traced passes over the workload's trace ops until ``seconds`` have passed.

    At least two traced passes run, so the traced counters can be compared
    pass to pass, and each follows an untraced pass over the same inputs, so
    any cache the program keeps is in the same state for both.
    """
    ops = wl.trace_ops(seed)
    per_op = sum(op.size for op in ops)
    traced_s, untraced_s, pass_counts = [], [], []
    self_s: Counter = Counter()
    durations: dict[str, list] = {}
    objective_s = 0.0
    attempted = failed = 0
    absent: list[str] = []
    start = time.perf_counter()
    traced = False
    while True:
        if traced:
            tracer = make_tracer(wl)
            with tracer:
                busy, fails, counts = one_pass(wl, ops, checker, seen, speed, tracer)
            traced_s.append(busy)
            pass_counts.append(counts)
            self_s.update(tracer.self_times())
            for name, ds in tracer.durations().items():
                durations.setdefault(name, []).extend(ds)
            objective_s += sum(end - begin for name, begin, end, parent in tracer.spans
                               if name == OBJECTIVE and (parent < 0 or tracer.spans[parent][0] != name))
            absent = tracer.absent
        else:
            busy, fails, _ = one_pass(wl, ops, checker, seen, speed)
            untraced_s.append(busy)
        attempted += per_op
        failed += fails
        traced = not traced
        if time.perf_counter() - start >= seconds and len(traced_s) >= 2 and not traced:
            break

    repeat_ok = all(c == pass_counts[0] for c in pass_counts[1:])
    if not repeat_ok:
        checker.problems.append("traced counters differ between passes over the same inputs")
    counts = pass_counts[0]
    traced_ops = per_op * len(traced_s)
    metrics = {"optimize.objective_ms": 1e3 * objective_s / traced_ops}
    layers = [(nm, kinds) for nm, (_, kinds) in OPTIMIZERS.items()] + list(SPANS.items())
    for name, kinds in layers + [(nm, ("calls",)) for nm in COUNTED]:
        for kind in kinds:
            if kind == "self_ms":
                metrics[f"{name}.self_ms"] = 1e3 * self_s[name] / traced_ops
            elif kind == "p50_ms":
                metrics[f"{name}.p50_ms"] = 1e3 * median(durations[name]) if name in durations else 0.0
            else:
                metrics[f"{name}.{kind}"] = counts[f"{name}.{kind}"] / per_op
    draws = counts["simulate.simulate_level.calls"] / wl.levels if wl.levels else per_op
    metrics["simulate.redraws"] = (draws - per_op) / per_op
    for nm in EXCLUDED:
        metrics[f"simulate.excluded.{nm}"] = counts[f"simulate.excluded.{nm}"] / per_op
    metrics["warnings.count"] = counts["warnings.count"] / per_op
    metrics["trace_overhead_frac"] = min(traced_s) / min(untraced_s) - 1.0
    metrics["trace.absent_layers"] = len(absent)
    return metrics, attempted, failed, repeat_ok, absent


# ---------------------------------------------------------------------------
# Entry points


def import_package(speed: HostSpeed | None = None) -> float:
    """Import iupm from this checkout's src/ and return the (scaled) seconds the import took."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    elapsed, iupm, exc = (speed or HostSpeed()).time(lambda: importlib.import_module("iupm"))
    if exc is not None:
        raise exc
    if Path(iupm.__file__).resolve().parent != (src / "iupm").resolve():
        raise ImportError(f"iupm was imported from {iupm.__file__}, not from {src}")
    return elapsed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    speed = HostSpeed(CALIBRATION_OF[name], interval=0.0 if trace else SAMPLE_INTERVAL_S)
    try:
        import_s = import_package(speed)
    except ImportError as exc:
        print(f"error: cannot import iupm from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[name]()
    references = json.loads(REFERENCES.read_text(encoding="utf-8")).get(name, {})
    checker = Checker(wl, references)
    work_dir = ROOT / ".perfbench-work" / f"{name}-{os.getpid()}"
    seen: Counter = Counter()
    try:
        setup_s, setup_ok = set_up(wl, work_dir, checker, speed)
        if trace:
            metrics, attempted, failed, repeat_ok, absent = traced_passes(wl, seed, seconds, checker, seen, speed)
        else:
            rate, attempted, failed = timing_pass(wl, seed, seconds, checker, seen, speed)
            repeat_ok, absent = True, []
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if trace:
        metrics["result_max_rel_err"] = checker.max_rel_err
        metrics["failed_frac"] = failed / attempted
        units = per_layer_metrics()
    else:
        metrics = {
            "ops_per_s": rate,
            "setup_s": import_s + setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    correct = failed == 0 and setup_ok and repeat_ok

    print(f"{name}: seed {seed}, {attempted} ops, {failed} failed, "
          f"{checker.compared} outputs compared with references, "
          f"max relative deviation {checker.max_rel_err:.3g}; "
          f"host speed factor median {median(speed.factors):.3f}", file=sys.stderr)
    for metric, unit in units.items():
        print(f"  {metric:<48} {metrics[metric]:>14.6g} {unit}", file=sys.stderr)
    if not trace:
        print(f"  {'failed_frac':<48} {failed / attempted:>14.6g} ratio", file=sys.stderr)
    for layer in absent:
        print(f"  absent layer: {layer}", file=sys.stderr)
    for where, n in sorted(seen.items()):
        print(f"  warning x{n}: {where}", file=sys.stderr)
    for problem in checker.problems[:20]:
        print(f"  FAILED {problem}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, one after another; a table of the results."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        status = max(status, proc.returncode if result is None else (0 if result["correct"] else 1))
        rows.append((name, result))
    for name, result in rows:
        if result is None:
            print(f"{name}: no result")
            continue
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<48} {m['value']:>14.6g} {m['unit']}")
        if not trace:
            print(f"  {'failed_frac':<48} {result['failed'] / result['attempted']:>14.6g} ratio")
    return status


def write_references() -> int:
    """Record the outputs of the warm-up op and of the first rounds at the stored seeds."""
    import_package()
    import workloads

    refs = {}
    work_dir = ROOT / ".perfbench-work" / "references"
    try:
        for name in WORKLOAD_NAMES:
            wl = workloads.WORKLOADS[name]()
            wl.prepare(work_dir)
            ops = [wl.warmup()] + [op for s in workloads.STORED_SEEDS for op in wl.reference_ops(s)]
            entries = {}
            checker = Checker(wl, {})
            for op in ops:
                if op.key in entries:
                    continue
                tracer = make_tracer(wl)
                with tracer:
                    out = op.run()
                captured = dict(tracer.results) if wl.captures else None
                if not checker(op, out, None, captured):
                    print("\n".join(checker.problems), file=sys.stderr)
                    return 1
                entries[op.key] = wl.flatten(out)
                if captured is not None:
                    entries[op.key + "/captured"] = wl.flatten_captured(captured)
            refs[name] = entries
            print(f"{name}: {len(entries)} references", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir.parent, ignore_errors=True)
    REFERENCES.write_text(json.dumps(refs, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="seed the inputs are drawn from")
    parser.add_argument("--seconds", type=float, default=20.0, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced per-layer passes instead of the end-to-end timing")
    parser.add_argument("--write-references", action="store_true",
                        help="re-record references.json from the current code")
    args = parser.parse_args(argv)
    if args.write_references:
        return write_references()
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
