"""The benchmark's workloads: inputs made from a seed, the timed operations, and output checks.

Every workload yields rounds of operations.  The first operation of the
first round is the same for every seed, so each run compares at least one
operation against the stored references; the others are drawn from the run's
seed.  An operation covers ``size`` ops in the sense of the metrics:
replicates for the studies and the LRT study, one ``iupm fit`` command for
``fit-large-m``.  Operations with the same ``work`` label do the same work, so
the benchmark can take the fastest of their timings.

Outputs are checked two ways: against ``references.json`` when one is stored
under the operation's key (relative tolerance ``REL_TOL``), and by invariants
that hold for any seed (interval formula, summaries recomputed from the
replicates, the score at the fitted rates).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from statistics import NormalDist
from typing import Callable, Iterator

import numpy as np

import iupm
import iupm.cli

REL_TOL = 1e-9
STORED_SEEDS = (0, 1)  # the default seed and one held-out seed
_Z = NormalDist().inv_cdf(0.975)  # every workload fits at alpha = 0.05


def derive_seed(*parts) -> int:
    """A 56-bit seed from any labels, identical on every platform."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:7], "big")


def clean(value):
    """Plain JSON values: arrays become lists, NaN becomes None."""
    if isinstance(value, np.ndarray):
        return [clean(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [clean(v) for v in value]
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    value = float(value)
    return None if math.isnan(value) else value


def rel_err(a, b) -> float:
    """Largest relative difference between two nested values (inf on a structural mismatch)."""
    if isinstance(b, list) or isinstance(a, list):
        if not (isinstance(a, list) and isinstance(b, list)) or len(a) != len(b):
            return math.inf
        return max((rel_err(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(b, dict) or isinstance(a, dict):
        if not (isinstance(a, dict) and isinstance(b, dict)) or a.keys() != b.keys():
            return math.inf
        return max((rel_err(a[k], b[k]) for k in b), default=0.0)
    if a is None or b is None or isinstance(a, (str, bool)) or isinstance(b, (str, bool)):
        return 0.0 if (a == b and type(a) is type(b)) else math.inf
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _wald_problems(est, se, lo, hi, label) -> list[str]:
    if est == se == lo == hi == 0.0:  # the all-negative boundary outcome
        return []
    if not (math.isfinite(est) and est > 0 and math.isfinite(se) and se > 0):
        return [f"{label}: estimate {est!r} / se {se!r} not finite and positive"]
    half = _Z * se / est
    want = (est * math.exp(-half), est * math.exp(half))
    if max(rel_err(lo, want[0]), rel_err(hi, want[1])) > REL_TOL:
        return [f"{label}: interval ({lo!r}, {hi!r}) is not the log-scale Wald interval {want!r}"]
    return []


@dataclass
class Op:
    key: str                      # reference key
    size: int                     # ops counted by the metrics
    run: Callable[[], object]     # the timed call
    work: str                     # operations with one label do the same work
    inputs: object = None         # what the invariants need to know about the input


# ---------------------------------------------------------------------------
# Monte Carlo studies


class StudyWorkload:
    """``run_study`` in chunks of ``chunk`` replicates; one op is one replicate.

    Every round repeats the same ``chunks`` chunks.
    """

    captures = ()

    def __init__(self, name, scenario, estimators, comparator, chunk, chunks):
        self.name = name
        self.scenario = scenario
        self.estimators = list(estimators)
        self.comparator = comparator
        self.chunk = chunk
        self.chunks = chunks
        self.levels = len(scenario.levels)

    def _op(self, key, seed, reps) -> Op:
        scenario = replace(self.scenario, seed=seed, reps=reps)
        return Op(key, reps, lambda: iupm.run_study(
            scenario, estimators=self.estimators, comparator=self.comparator, keep_replicates=True), key)

    def prepare(self, work_dir: Path):
        return None

    def warmup(self) -> Op:
        return self._op("warmup", derive_seed(self.name, "warmup"), 2)

    def rounds(self, seed: int) -> Iterator[list[Op]]:
        ops = [self._op("fixed/0", derive_seed(self.name, "fixed"), self.chunk)]
        ops += [self._op(f"{seed}/{j}", derive_seed(self.name, seed, j), self.chunk) for j in range(1, self.chunks)]
        while True:
            yield ops

    def reference_ops(self, seed: int) -> list[Op]:
        return next(self.rounds(seed))

    trace_ops = reference_ops

    def flatten(self, out) -> dict:
        metrics, reps = out
        flat = {}
        for nm in self.estimators:
            m = metrics[nm]
            flat[f"{nm}.replicates"] = clean(reps[nm])
            flat[f"{nm}.metrics"] = clean([m.bias, m.ase, m.ese, m.cp, m.re, m.discarded, m.n_used])
        return flat

    def excluded(self, out, op: Op) -> dict[str, int]:
        metrics, _ = out
        return {nm: op.size - metrics[nm].n_used for nm in self.estimators}

    def check(self, out, op: Op) -> list[str]:
        metrics, reps = out
        problems = []
        T = self.scenario.truth
        for nm in self.estimators:
            est, se, lo, hi = reps[nm]
            used = ~np.isnan(est)
            if np.any(np.isnan(reps[nm][:, used])) or not np.all(np.isnan(reps[nm][:, ~used])):
                problems.append(f"{nm}: a replicate is neither complete nor fully excluded")
                continue
            for r in np.flatnonzero(used):
                problems += _wald_problems(est[r], se[r], lo[r], hi[r], f"{nm} replicate {r}")
            n_used = int(used.sum())
            want = [
                float((est[used].mean() - T) / T) if n_used else math.nan,
                float(se[used].mean()) if n_used else None,
                float(est[used].std(ddof=1)) if n_used >= 2 else None,
                float(((lo[used] <= T) & (T <= hi[used])).mean()) if n_used else None,
            ]
            m = metrics[nm]
            if m.n_used != n_used or rel_err(clean([m.bias, m.ase, m.ese, m.cp]), clean(want)) > REL_TOL:
                problems.append(f"{nm}: summary {m} does not match its replicates")
        if self.comparator is not None:
            comp = metrics[self.comparator].ese
            for nm in self.estimators:
                m = metrics[nm]
                if nm != self.comparator and m.ese and comp:
                    if rel_err(m.re, comp**2 / m.ese**2) > REL_TOL:
                        problems.append(f"{nm}: relative efficiency {m.re!r} is not ese ratio squared")
        if iupm.BC_MLE_WITH_UDSA in self.estimators and iupm.MLE_WITH_UDSA in self.estimators:
            se_bc, se_mle = reps[iupm.BC_MLE_WITH_UDSA][1], reps[iupm.MLE_WITH_UDSA][1]
            both = ~np.isnan(se_bc) & ~np.isnan(se_mle)
            if not np.array_equal(se_bc[both], se_mle[both]):
                problems.append("bias-corrected SE differs from the MLE's SE")
        return problems


# ---------------------------------------------------------------------------
# Overdispersion LRT power study


class LrtWorkload:
    """``lrt_power_study`` in chunks; one op is one replicate (one LRT)."""

    captures = ("negbin.lrt_overdispersion",)

    def __init__(self, name, scenario, gamma, chunk, chunks, alpha=0.05):
        self.name = name
        self.scenario = scenario
        self.gamma = gamma
        self.chunk = chunk
        self.chunks = chunks
        self.alpha = alpha
        self.levels = len(scenario.levels)

    def _op(self, key, seed, reps) -> Op:
        scenario = replace(self.scenario, seed=seed, reps=reps)
        return Op(key, reps, lambda: iupm.lrt_power_study(scenario, [self.gamma], alpha=self.alpha), key)

    prepare = StudyWorkload.prepare
    warmup = StudyWorkload.warmup
    rounds = StudyWorkload.rounds
    reference_ops = trace_ops = StudyWorkload.reference_ops

    def flatten(self, out) -> dict:
        (row,) = out
        return {"power": clean([row["gamma"], row["power"], row["reps"]])}

    def excluded(self, out, op: Op) -> dict[str, int]:
        return {"lrt": op.size - out[0]["reps"]}

    def check(self, out, op: Op) -> list[str]:
        if len(out) != 1:
            return [f"expected one power row, got {len(out)}"]
        row = out[0]
        if row["reps"] == 0 and math.isnan(row["power"]):
            return []
        rejected = row["power"] * row["reps"]
        if row["gamma"] != self.gamma or not 0 < row["reps"] <= op.size \
                or abs(rejected - round(rejected)) > 1e-9 * op.size:
            return [f"power row {row} is inconsistent with {op.size} replicates"]
        return []

    def flatten_captured(self, captured) -> dict:
        return {"lrt": clean([[r.statistic, r.p_value] for r in captured["negbin.lrt_overdispersion"]])}

    def check_captured(self, captured, out) -> list[str]:
        results = captured["negbin.lrt_overdispersion"]
        problems = []
        for r in results:
            want = 1.0 if r.statistic == 0.0 else 0.5 * math.erfc(math.sqrt(0.5 * r.statistic))
            if r.statistic < 0 or rel_err(r.p_value, want) > REL_TOL:
                problems.append(f"LRT p-value {r.p_value!r} does not match statistic {r.statistic!r}")
        row = out[0]
        if len(results) != row["reps"] or \
                sum(r.p_value <= self.alpha for r in results) != round(row["power"] * row["reps"]):
            problems.append("power row does not match the LRT calls made")
        return problems


# ---------------------------------------------------------------------------
# One large-M bias-corrected fit through the command line


def one_level_assay(rng, M: int, n: int, u: float, q: float, truth: float) -> dict:
    """A summary-json document drawn well by well: n lineages at equal rates."""
    lam = np.full(n, u * truth / n)
    Z = rng.random((M, n)) < -np.expm1(-lam)
    positive = np.flatnonzero(Z.any(axis=1))
    m = round(q * positive.size)  # ties to even, as the package rounds
    sequenced = rng.choice(positive, size=m, replace=False)
    Y = Z[sequenced].sum(axis=0)
    level = {"u": u, "M": M, "MN": M - positive.size, "m": m, "Y": [int(y) for y in Y], "q": q}
    return {"n": n, "levels": [level]}


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


class FitWorkload:
    """``iupm fit --bias-correct`` in-process on a one-level assay; one op is one command.

    Each round is one command.  Round j draws its assay with M = ``M + j``,
    so no two commands of a run share an (M, q) pair, as separate CLI
    invocations would not share a cache of per-(M, q) tables; the work per
    command is the same to within j / M.
    """

    captures = ()
    levels = 0
    reference_rounds = 4

    def __init__(self, name, M, n, u, q, truth, warmup_M):
        self.name = name
        self.M, self.n, self.u, self.q, self.truth = M, n, u, q, truth
        self.warmup_M = warmup_M
        self.work_dir: Path | None = None

    def prepare(self, work_dir: Path):
        self.work_dir = work_dir
        work_dir.mkdir(parents=True, exist_ok=True)

    def _op(self, key, seed, M) -> Op:
        doc = one_level_assay(_rng(seed), M, self.n, self.u, self.q, self.truth)
        path = self.work_dir / f"{key.replace('/', '-')}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["fit", "--input", str(path), "--bias-correct"]

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = iupm.cli.main(argv)
            return code, out.getvalue()

        return Op(key, 1, run, "fit", doc)

    def warmup(self) -> Op:
        return self._op("warmup", derive_seed(self.name, "warmup"), self.warmup_M)

    def rounds(self, seed: int) -> Iterator[list[Op]]:
        yield [self._op("fixed/0", derive_seed(self.name, "fixed"), self.M)]
        j = 1
        while True:
            yield [self._op(f"{seed}/{j}", derive_seed(self.name, seed, j), self.M + j)]
            j += 1

    def reference_ops(self, seed: int) -> list[Op]:
        return [op for ops in islice(self.rounds(seed), self.reference_rounds) for op in ops]

    def trace_ops(self, seed: int) -> list[Op]:
        return next(islice(self.rounds(seed), 1, None))

    def flatten(self, out) -> dict:
        code, text = out
        report = json.loads(text)
        est, bc = report["estimate"], report["bias_corrected"]
        flat = {f"estimate.{k}": clean(est[k]) for k in ("iupm", "se", "ci", "tau", "log_lik", "converged", "extreme")}
        flat.update({f"bias_corrected.{k}": clean(bc[k]) for k in ("iupm", "se", "ci", "tau", "converged", "clamped")})
        return flat

    def excluded(self, out, op: Op) -> dict[str, int]:
        return {}

    def check(self, out, op: Op) -> list[str]:
        code, text = out
        if code != 0:
            return [f"iupm fit exited with {code}"]
        report = json.loads(text)
        est, bc = report["estimate"], report["bias_corrected"]
        problems = []
        if not (est["converged"] and bc["converged"] and est["extreme"] == "regular"):
            problems.append("fit not converged or not regular")
        for label, fit in (("estimate", est), ("bias_corrected", bc)):
            if rel_err(fit["iupm"], math.fsum(fit["tau"])) > REL_TOL:
                problems.append(f"{label}: iupm is not the sum of the rates")
            problems += _wald_problems(fit["iupm"], fit["se"], *fit["ci"], label)
        want_bc = [max(t - b, 0.0) for t, b in zip(est["tau"], bc["bias"])]
        if rel_err(bc["tau"], want_bc) > REL_TOL or bc["se"] != est["se"]:
            problems.append("bias-corrected rates are not the MLE minus the bias")
        # The score of the one-level Poisson likelihood vanishes at the MLE.
        (lv,) = op.inputs["levels"]
        u, tau = lv["u"], np.asarray(est["tau"])
        Y = np.asarray(lv["Y"], dtype=float)
        complete = lv["MN"] + lv["m"]
        score = u * (Y / np.expm1(u * tau) - (complete - Y) + (lv["M"] - complete) / math.expm1(u * tau.sum()))
        if np.max(np.abs(tau * score)) > 1e-6:
            problems.append(f"score {score.tolist()} does not vanish at the fitted rates")
        return problems


# ---------------------------------------------------------------------------


WORKLOADS = {
    # M stays <= 36: time goes to the solver and the finite-difference bias term.
    "study-multi": lambda: StudyWorkload(
        "study-multi",
        iupm.SimScenario(truth=1.0, n_dvl=6, allocation="constant", levels=(
            iupm.SimLevel(0.5, 12, 0.0), iupm.SimLevel(1.0, 24, 0.5), iupm.SimLevel(2.0, 36, 1.0))),
        [iupm.MLE_WITH_UDSA, iupm.BC_MLE_WITH_UDSA, iupm.MLE_WITHOUT_UDSA],
        comparator=iupm.MLE_WITHOUT_UDSA, chunk=10, chunks=15),
    # Time goes to the O(M) expected-information sums, called 2n+1 times by the bias term.
    "fit-large-m": lambda: FitWorkload(
        "fit-large-m", M=200_000, n=3, u=1.0, q=0.5, truth=1.0, warmup_M=2_000),
    # The only path through negbin, the bounded solver and gamma-mixture draws; no bias term.
    "lrt-negbin": lambda: LrtWorkload(
        "lrt-negbin",
        iupm.SimScenario(truth=1.0, n_dvl=12, levels=(
            iupm.SimLevel(0.5, 30, 0.0), iupm.SimLevel(1.0, 60, 0.5), iupm.SimLevel(2.0, 90, 1.0))),
        gamma=4.0, chunk=5, chunks=20),
    # The only path through the per-well imperfect-assay likelihood and WellRecord generation.
    "study-imperfect": lambda: StudyWorkload(
        "study-imperfect",
        iupm.SimScenario(truth=1.0, n_dvl=6, allocation="constant", levels=(iupm.SimLevel(1.0, 32, 1.0),),
                         model="imperfect", rates=iupm.ErrorRates(0.9, 0.9, 0.9, 0.9)),
        [iupm.IMPERFECT_MLE, iupm.PERFECT_ASSUMED_MLE], comparator=None, chunk=10, chunks=30),
}
