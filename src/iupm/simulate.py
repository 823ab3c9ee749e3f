"""Monte Carlo study harness: data generation, estimator loops, and metrics.

Replicates use counter-based substreams keyed by (seed, replicate index), so
results are bit-identical for any thread count and for serial vs parallel
runs.  Generated assays that hit the divergent all-positive/single-lineage
outcome are discarded and redrawn (the discard count is reported); replicates
where only the no-sequencing estimator is infinite are excluded from that
estimator's cells rather than redrawn.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .assay import AssayDataError, DilutionLevelData, ErrorRates, MultiDilutionAssay, WellAssay, WellRecord, summarize_wells
from .bias import bias_correct
from .imperfect import ImperfectFitError, ImperfectModel, fit_imperfect
from .inference import FitResult, SingularInformationError, fit_mle
from .negbin import IdentifiabilityError, fit_negbin, lrt_overdispersion
from .poisson import ExtremeOutcome, classify_extreme
from .special import nint

__all__ = [
    "SimLevel",
    "SimScenario",
    "SimMetrics",
    "MLE_WITH_UDSA",
    "BC_MLE_WITH_UDSA",
    "MLE_WITHOUT_UDSA",
    "BC_MLE_WITHOUT_UDSA",
    "NB_MLE",
    "IMPERFECT_MLE",
    "PERFECT_ASSUMED_MLE",
    "allocate_rates",
    "simulate_level",
    "run_study",
    "lrt_power_study",
    "scenario_from_json",
    "scenario_to_json",
    "metrics_csv",
    "replicates_csv",
]

MLE_WITH_UDSA = "mle-with-udsa"
BC_MLE_WITH_UDSA = "bc-mle-with-udsa"
MLE_WITHOUT_UDSA = "mle-without-udsa"
BC_MLE_WITHOUT_UDSA = "bc-mle-without-udsa"
NB_MLE = "nb-mle"
IMPERFECT_MLE = "imperfect-mle"
PERFECT_ASSUMED_MLE = "perfect-assumed-mle"

_ALL_ESTIMATORS = {
    MLE_WITH_UDSA,
    BC_MLE_WITH_UDSA,
    MLE_WITHOUT_UDSA,
    BC_MLE_WITHOUT_UDSA,
    NB_MLE,
    IMPERFECT_MLE,
    PERFECT_ASSUMED_MLE,
}


@dataclass(frozen=True)
class SimLevel:
    u: float
    M: int
    q: float


@dataclass(frozen=True)
class SimScenario:
    """One simulation configuration.

    truth is the total rate per million; it is split over n_dvl underlying
    lineages either evenly ("constant") or with the second half three times
    the first ("non-constant", even n_dvl only).
    """

    truth: float
    n_dvl: int
    levels: tuple[SimLevel, ...]
    allocation: str = "constant"
    model: str = "poisson"
    gamma: float = 0.0
    rates: ErrorRates | None = None
    reps: int = 1000
    seed: int = 20230

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if self.truth <= 0:
            raise ValueError("truth must be positive")
        if self.n_dvl < 1 or self.reps < 1:
            raise ValueError("n_dvl and reps must be at least 1")
        if self.allocation not in ("constant", "non-constant"):
            raise ValueError(f"unknown allocation {self.allocation!r}")
        if self.model not in ("poisson", "negbin", "imperfect"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.model == "imperfect" and self.rates is None:
            raise ValueError("the imperfect model needs error rates")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if not self.levels:
            raise ValueError("at least one dilution level is required")
        if not 0 <= self.seed < 2**63:
            raise ValueError("seed must fit in a non-negative 63-bit integer")


@dataclass
class SimMetrics:
    """Relative bias, average/empirical SE, coverage, and relative efficiency."""

    bias: float
    ase: float | None
    ese: float | None
    cp: float | None
    re: float | None
    discarded: int
    n_used: int


def allocate_rates(truth: float, n_dvl: int, allocation: str) -> np.ndarray:
    if truth <= 0:
        raise ValueError("truth must be positive")
    if allocation == "constant":
        return np.full(n_dvl, truth / n_dvl)
    if allocation == "non-constant":
        if n_dvl % 2:
            raise ValueError("non-constant allocation needs an even number of lineages")
        half = n_dvl // 2
        return np.concatenate(
            [np.full(half, truth / (2 * n_dvl)), np.full(half, 3 * truth / (2 * n_dvl))]
        )
    raise ValueError(f"unknown allocation {allocation!r}")


def _rng_for(seed: int, rep: int) -> np.random.Generator:
    key = np.array([seed, rep], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def simulate_level(tau, u, M, q, rng, model="poisson", gamma=0.0, rates=None):
    """Draw one dilution level.

    Returns a DilutionLevelData summary over all underlying lineages; the
    imperfect model additionally returns the per-well assay, as the second
    element of a tuple.  The sequenced subset is a uniform draw without
    replacement among the (observed-)positive wells of size nearest-integer
    q times their count.
    """
    tau = np.asarray(tau, dtype=float)
    lam = u * tau
    n = lam.size
    if model == "negbin" and gamma > 0.0:
        with np.errstate(invalid="ignore"):
            shape = np.full((M, n), 1.0 / gamma)
            mix = rng.gamma(shape, gamma * np.broadcast_to(lam, (M, n)))
        counts = rng.poisson(mix)
        Z = counts >= 1
    else:
        Z = rng.random((M, n)) < -np.expm1(-lam)
    W = Z.any(axis=1)
    if model == "imperfect":
        flips_w = rng.random(M)
        w_star = np.where(W, flips_w < rates.sens_qvoa, flips_w < 1.0 - rates.spec_qvoa)
        flips_z = rng.random((M, n))
        z_star = np.where(Z, flips_z < rates.sens_udsa, flips_z < 1.0 - rates.spec_udsa)
        observed_w, observed_z = w_star, z_star
    else:
        observed_w, observed_z = W, Z
    pos_idx = np.flatnonzero(observed_w)
    m = nint(q * pos_idx.size)
    R = np.zeros(M, dtype=int)
    if m > 0:
        R[rng.choice(pos_idx, size=m, replace=False)] = 1
    rows = [observed_z[j].astype(int) if R[j] else None for j in range(M)]
    summary = summarize_wells(u, observed_w.astype(int), rows, R, q=q, n_dvl=n)
    if model != "imperfect":
        return summary
    records = tuple(
        WellRecord(
            w_star=int(observed_w[j]),
            r=int(R[j]),
            z_star=tuple(int(v) for v in observed_z[j]) if R[j] else None,
        )
        for j in range(M)
    )
    return summary, WellAssay(u=u, wells=records, n=n)


@dataclass
class SimDraw:
    assay: MultiDilutionAssay
    well_assays: tuple[WellAssay, ...] | None = None


def _restrict_well_assay(wa: WellAssay, keep: list[int]) -> WellAssay:
    records = tuple(
        WellRecord(
            w_star=rec.w_star,
            r=rec.r,
            z_star=tuple(rec.z_star[i] for i in keep) if rec.z_star is not None else None,
        )
        for rec in wa.wells
    )
    return WellAssay(u=wa.u, wells=records, n=len(keep))


def _assemble_draw(levels, wells) -> SimDraw:
    pooled = np.sum([lv.y_array() for lv in levels], axis=0)
    keep = [i for i in range(levels[0].n) if pooled[i] >= 1]
    assay_levels = tuple(
        DilutionLevelData(u=lv.u, M=lv.M, M_N=lv.M_N, m=lv.m, Y=tuple(lv.Y[i] for i in keep), q=lv.q)
        for lv in levels
    )
    assay = MultiDilutionAssay(assay_levels, len(keep))
    restricted = tuple(_restrict_well_assay(wa, keep) for wa in wells) if wells else None
    return SimDraw(assay=assay, well_assays=restricted)


def _simulate_until_regular(scenario: SimScenario, rng, max_attempts: int = 10_000):
    """Draw an assay, rejecting the divergent all-positive/single-lineage case."""
    tau = allocate_rates(scenario.truth, scenario.n_dvl, scenario.allocation)
    for attempt in range(max_attempts):
        levels = []
        wells = []
        for lv in scenario.levels:
            out = simulate_level(
                tau, lv.u, lv.M, lv.q, rng,
                model=scenario.model, gamma=scenario.gamma, rates=scenario.rates,
            )
            if scenario.model == "imperfect":
                summary, wa = out
                wells.append(wa)
            else:
                summary = out
            levels.append(summary)
        draw = _assemble_draw(levels, wells)
        if classify_extreme(draw.assay) is not ExtremeOutcome.ALL_POSITIVE_SINGLE_DVL:
            return draw, attempt
    raise RuntimeError("scenario keeps producing divergent assays; refusing to loop forever")


def _usable(fit: FitResult | None):
    """A fit's (estimate, se, lower, upper); None excludes the replicate.

    A failed shared fit (None), an unconverged one and an infinite one are
    excluded.  An assay that is infinite only without its sequencing data is
    excluded from the no-sequencing estimators, not redrawn.
    """
    if fit is None or fit.extreme is ExtremeOutcome.ALL_POSITIVE_SINGLE_DVL or not fit.converged:
        return None
    return fit.iupm, fit.se_iupm, fit.ci[0], fit.ci[1]


_WITHOUT_UDSA = (MLE_WITHOUT_UDSA, BC_MLE_WITHOUT_UDSA)
_BIAS_CORRECTED = (BC_MLE_WITH_UDSA, BC_MLE_WITHOUT_UDSA)


def _apply_estimators(names, scenario: SimScenario, draw: SimDraw) -> dict:
    """Each estimator's (estimate, se, lower, upper) on one replicate; None excludes it.

    The assay and its strip_udsa() copy are each fitted by Poisson MLE at most
    once, and every estimator built on that fit shares it.  A
    SingularInformationError from a shared fit excludes all of them.
    """

    @cache
    def poisson_fit(without_udsa: bool):
        assay = draw.assay.strip_udsa() if without_udsa else draw.assay
        try:
            return assay, fit_mle(assay)
        except SingularInformationError:
            return assay, None

    return {nm: _apply_estimator(nm, scenario, draw, poisson_fit) for nm in names}


def _apply_estimator(name: str, scenario: SimScenario, draw: SimDraw, poisson_fit):
    try:
        if name == IMPERFECT_MLE:
            model = ImperfectModel(rates=scenario.rates, assays=draw.well_assays)
            return _usable(fit_imperfect(model))
        if name not in _ALL_ESTIMATORS:
            raise ValueError(f"unknown estimator {name!r}")
        assay, fit = poisson_fit(name in _WITHOUT_UDSA)
        if fit is None:
            return None
        if name in _BIAS_CORRECTED:
            return _usable(bias_correct(fit, assay))
        if name == NB_MLE:
            nb = fit_negbin(assay, pois=fit)
            return (nb.iupm, math.nan, math.nan, math.nan) if nb.converged else None
        return _usable(fit)
    except (ImperfectFitError, SingularInformationError):
        return None


def _default_estimators(model: str) -> list[str]:
    if model == "imperfect":
        return [IMPERFECT_MLE, PERFECT_ASSUMED_MLE]
    if model == "negbin":
        return [NB_MLE, MLE_WITH_UDSA, BC_MLE_WITH_UDSA]
    return [MLE_WITH_UDSA, BC_MLE_WITH_UDSA, MLE_WITHOUT_UDSA, BC_MLE_WITHOUT_UDSA]


def run_study(
    scenario: SimScenario,
    estimators=None,
    comparator: str | None = None,
    threads: int = 1,
    keep_replicates: bool = False,
):
    """Run the scenario and summarize each estimator.

    ``comparator`` names an estimator whose squared empirical SE forms the
    numerator of the relative-efficiency column for every other estimator.
    With ``keep_replicates`` the per-replicate estimate arrays are returned
    alongside the metrics.
    """
    estimators = list(estimators) if estimators is not None else _default_estimators(scenario.model)
    unknown = [nm for nm in estimators if nm not in _ALL_ESTIMATORS]
    if unknown:
        raise ValueError(f"unknown estimators: {unknown}")
    if scenario.model != "imperfect" and IMPERFECT_MLE in estimators:
        raise ValueError("the imperfect-assays estimator needs per-well data (model 'imperfect')")
    names = list(estimators)
    if comparator is not None and comparator not in names:
        names.append(comparator)
    reps = scenario.reps
    columns = {nm: np.full((4, reps), np.nan) for nm in names}
    discards = np.zeros(reps, dtype=int)

    def one(rep: int):
        rng = _rng_for(scenario.seed, rep)
        draw, n_discarded = _simulate_until_regular(scenario, rng)
        discards[rep] = n_discarded
        for nm, out in _apply_estimators(names, scenario, draw).items():
            if out is not None:
                columns[nm][:, rep] = out

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(one, range(reps)))
    else:
        for rep in range(reps):
            one(rep)

    total_discarded = int(discards.sum())
    T = scenario.truth

    def summarize(nm: str) -> SimMetrics:
        est, se, lo, hi = columns[nm]
        used = ~np.isnan(est)
        n_used = int(used.sum())
        bias = float((est[used].mean() - T) / T) if n_used else math.nan
        ese = float(est[used].std(ddof=1)) if n_used >= 2 else None
        se_used = se[used][~np.isnan(se[used])]
        ase = float(se_used.mean()) if se_used.size else None
        ci_ok = used & ~np.isnan(lo)
        cp = float(((lo[ci_ok] <= T) & (T <= hi[ci_ok])).mean()) if ci_ok.any() else None
        return SimMetrics(bias=bias, ase=ase, ese=ese, cp=cp, re=None,
                          discarded=total_discarded, n_used=n_used)

    metrics = {nm: summarize(nm) for nm in estimators}
    if comparator is not None:
        comp = summarize(comparator) if comparator not in metrics else metrics[comparator]
        for nm, m in metrics.items():
            if nm != comparator and m.ese and comp.ese:
                m.re = float(comp.ese**2 / m.ese**2)
    if keep_replicates:
        return metrics, {nm: columns[nm].copy() for nm in names}
    return metrics


def lrt_power_study(scenario: SimScenario, gammas, alpha: float = 0.05, threads: int = 1):
    """Empirical rejection rate of the overdispersion LRT per dispersion value."""
    rows = []
    for gamma in gammas:
        scn = replace(scenario, model="negbin", gamma=float(gamma))
        reject = np.full(scn.reps, np.nan)

        def one(rep: int):
            rng = _rng_for(scn.seed, rep)
            draw, _ = _simulate_until_regular(scn, rng)
            try:
                res = lrt_overdispersion(draw.assay)
            except (SingularInformationError, IdentifiabilityError):
                return
            reject[rep] = 1.0 if res.p_value <= alpha else 0.0

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(one, range(scn.reps)))
        else:
            for rep in range(scn.reps):
                one(rep)
        used = ~np.isnan(reject)
        rows.append(
            {
                "gamma": float(gamma),
                "power": float(reject[used].mean()) if used.any() else math.nan,
                "reps": int(used.sum()),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Scenario files and result tables


def scenario_from_json(text: str | bytes):
    """Parse a scenario document; returns (scenario, estimators, comparator)."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AssayDataError(f"malformed scenario JSON: {exc}") from exc
    try:
        levels = tuple(SimLevel(u=float(lv["u"]), M=int(lv["M"]), q=float(lv["q"])) for lv in doc["levels"])
        rates = ErrorRates(**doc["rates"]) if "rates" in doc else None
        scenario = SimScenario(
            truth=float(doc["T"]),
            n_dvl=int(doc["n_dvl"]),
            levels=levels,
            allocation=doc.get("allocation", "constant"),
            model=doc.get("model", "poisson"),
            gamma=float(doc.get("gamma", 0.0)),
            rates=rates,
            reps=int(doc.get("reps", 1000)),
            seed=int(doc.get("seed", 20230)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise AssayDataError(f"bad scenario: {exc}") from exc
    estimators = doc.get("estimators")
    if estimators is not None:
        bad = [nm for nm in estimators if nm not in _ALL_ESTIMATORS]
        if bad:
            raise AssayDataError(f"bad scenario: unknown estimators {bad}")
    return scenario, estimators, doc.get("comparator")


def scenario_to_json(scenario: SimScenario, estimators=None, comparator=None) -> str:
    doc = {
        "T": scenario.truth,
        "n_dvl": scenario.n_dvl,
        "allocation": scenario.allocation,
        "levels": [{"u": lv.u, "M": lv.M, "q": lv.q} for lv in scenario.levels],
        "model": scenario.model,
        "reps": scenario.reps,
        "seed": scenario.seed,
    }
    if scenario.model == "negbin":
        doc["gamma"] = scenario.gamma
    if scenario.rates is not None:
        doc["rates"] = {
            "sens_qvoa": scenario.rates.sens_qvoa,
            "spec_qvoa": scenario.rates.spec_qvoa,
            "sens_udsa": scenario.rates.sens_udsa,
            "spec_udsa": scenario.rates.spec_udsa,
        }
    if estimators is not None:
        doc["estimators"] = list(estimators)
    if comparator is not None:
        doc["comparator"] = comparator
    return json.dumps(doc, indent=2) + "\n"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


def metrics_csv(results: dict[str, SimMetrics], scenario_name: str, truth: float) -> str:
    lines = ["scenario,estimator,truth,n_used,discarded,bias,ase,ese,cp,re"]
    for name, m in results.items():
        lines.append(
            ",".join(
                [
                    scenario_name,
                    name,
                    _fmt(truth),
                    str(m.n_used),
                    str(m.discarded),
                    _fmt(m.bias),
                    _fmt(m.ase),
                    _fmt(m.ese),
                    _fmt(m.cp),
                    _fmt(m.re),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def replicates_csv(replicates: dict[str, np.ndarray]) -> str:
    lines = ["rep,estimator,estimate,se,lower,upper"]
    for name in replicates:
        est, se, lo, hi = replicates[name]
        for rep in range(est.size):
            if math.isnan(est[rep]):
                continue
            lines.append(
                ",".join([str(rep), name, _fmt(float(est[rep])), _fmt(float(se[rep])),
                          _fmt(float(lo[rep])), _fmt(float(hi[rep]))])
            )
    return "\n".join(lines) + "\n"
