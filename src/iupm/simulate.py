"""Monte Carlo study harness: data generation, estimator loops, and metrics.

Replicates use counter-based substreams keyed by (seed, replicate index), so
reruns of a scenario are bit-identical.  Generated assays that hit the
divergent all-positive/single-lineage outcome are discarded and redrawn (the
discard count is reported); replicates where only the no-sequencing estimator
is infinite are excluded from that estimator's cells rather than redrawn.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from functools import cache
from typing import NamedTuple

import numpy as np

from .assay import (
    AssayDataError, ErrorRates, MultiDilutionAssay, WellAssay, _check, _Count, _List, _load_json, _Number,
    _Object, _Str, restrict_to_detected, summarize_well_assay,
)
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
    "StudyScenario",
    "scenario_to_json",
    "study_from_json",
    "metrics_csv",
    "power_csv",
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

    def __post_init__(self):
        if not (0 < self.u < math.inf and self.M >= 1 and 0 <= self.q <= 1):
            raise ValueError(f"a level needs u > 0 finite, M >= 1 and q in [0, 1], got {self}")


def _check_model(model: str, gamma: float, rates: ErrorRates | None) -> None:
    """The rules on a model and its parameters that a scenario and
    :func:`simulate_level` share."""
    if model not in ("poisson", "negbin", "imperfect"):
        raise ValueError(f"unknown model {model!r}")
    if model == "imperfect" and rates is None:
        raise ValueError("the imperfect model needs error rates")
    if not 0 <= gamma < math.inf:
        raise ValueError("gamma must be non-negative and finite")
    if rates is not None and model != "imperfect":
        raise ValueError(f"error rates apply only to the imperfect model, not {model!r}")
    if gamma != 0.0 and model != "negbin":
        raise ValueError(f"a nonzero gamma applies only to the negbin model, not {model!r}")


@dataclass(frozen=True)
class SimScenario:
    """One simulation configuration.

    truth is the total rate per million; it is split over n_dvl underlying
    lineages either evenly ("constant") or with the second half three times
    the first ("non-constant", even n_dvl only).  ``rates`` (imperfect model)
    and a nonzero ``gamma`` (negbin model) are refused for any other model.
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
        if not 0 < self.truth < math.inf:
            raise ValueError("truth must be positive and finite")
        if self.n_dvl < 1 or self.reps < 1:
            raise ValueError("n_dvl and reps must be at least 1")
        if self.allocation not in ("constant", "non-constant"):
            raise ValueError(f"unknown allocation {self.allocation!r}")
        if self.allocation == "non-constant" and self.n_dvl % 2:
            raise ValueError("non-constant allocation needs an even number of lineages")
        _check_model(self.model, self.gamma, self.rates)
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
    if n_dvl < 1:
        raise ValueError(f"n_dvl must be at least 1, got {n_dvl}")
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
    """Draw one dilution level's per-well readings over all underlying lineages.

    Returns the level's WellAssay; under the imperfect model it holds the
    error-prone readings.  The sequenced subset is a uniform draw without
    replacement among the (observed-)positive wells of size nearest-integer
    q times their count.  The model, gamma and rates follow the rules of
    :class:`SimScenario`.
    """
    _check_model(model, gamma, rates)
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
    return WellAssay(u, observed_w, R, observed_z * R[:, None])


@dataclass
class SimDraw:
    """One replicate, restricted to the detected lineages: the summaries, and
    for the imperfect model the per-well readings they came from (None for
    the other models, whose estimators need the summaries only)."""

    assay: MultiDilutionAssay
    well_assays: tuple[WellAssay, ...] | None = None


_MAX_ATTEMPTS = 10_000  # divergent draws in a row after which a scenario is refused


def _simulate_until_regular(scenario: SimScenario, rng):
    """Draw an assay, rejecting the divergent all-positive/single-lineage case."""
    tau = allocate_rates(scenario.truth, scenario.n_dvl, scenario.allocation)
    for attempt in range(_MAX_ATTEMPTS):
        wells = restrict_to_detected([
            simulate_level(tau, lv.u, lv.M, lv.q, rng, model=scenario.model, gamma=scenario.gamma, rates=scenario.rates)
            for lv in scenario.levels
        ])
        levels = tuple(summarize_well_assay(wa, lv.q) for wa, lv in zip(wells, scenario.levels))
        draw = SimDraw(MultiDilutionAssay(levels, wells[0].n), tuple(wells) if scenario.model == "imperfect" else None)
        if classify_extreme(draw.assay) is not ExtremeOutcome.ALL_POSITIVE_SINGLE_DVL:
            return draw, attempt
    raise AssayDataError(f"scenario produced {_MAX_ATTEMPTS} divergent assays in a row; refusing to loop forever")


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
            return _usable(fit_imperfect(model)) if model.n else None  # n = 0: no lineage detected
        assay, fit = poisson_fit(name in _WITHOUT_UDSA)
        if fit is None:
            return None
        if name in _BIAS_CORRECTED:
            return _usable(bias_correct(fit))
        if name == NB_MLE:
            nb = fit_negbin(assay, pois=fit)
            return (nb.iupm, math.nan, math.nan, math.nan) if nb.converged else None
        return _usable(fit)
    except (IdentifiabilityError, ImperfectFitError, SingularInformationError):
        return None


def _default_estimators(model: str) -> list[str]:
    if model == "imperfect":
        return [IMPERFECT_MLE, PERFECT_ASSUMED_MLE]
    if model == "negbin":
        return [NB_MLE, MLE_WITH_UDSA, BC_MLE_WITH_UDSA]
    return [MLE_WITH_UDSA, BC_MLE_WITH_UDSA, MLE_WITHOUT_UDSA, BC_MLE_WITHOUT_UDSA]


def _estimator_names(scenario: SimScenario, estimators: list[str], comparator) -> list[str]:
    """The estimators and comparator to fit, refusing any that no replicate could satisfy."""
    names = estimators + ([] if comparator is None or comparator in estimators else [comparator])
    unknown = [nm for nm in names if not (isinstance(nm, str) and nm in _ALL_ESTIMATORS)]
    if unknown:
        raise AssayDataError(f"unknown estimators: {unknown}")
    if scenario.model != "imperfect" and IMPERFECT_MLE in names:
        raise AssayDataError("the imperfect-assays estimator needs per-well data (model 'imperfect')")
    if NB_MLE in names:
        _check_power_levels(scenario)
    if IMPERFECT_MLE in names:
        scenario.rates.check_identifiable()
    return names


def _check_power_levels(scenario: SimScenario):
    if len(scenario.levels) < 2:
        raise IdentifiabilityError("the overdispersed fit needs at least two dilution levels")


def _check_power_scenario(scenario: SimScenario):
    _check_power_levels(scenario)
    if scenario.model == "imperfect" or scenario.gamma != 0.0:
        raise ValueError("a power scenario draws from the negbin model at each of its gammas: "
                         "it takes neither the imperfect model nor a gamma")


def run_study(
    scenario: SimScenario,
    estimators=None,
    comparator: str | None = None,
    keep_replicates: bool = False,
):
    """Run the scenario and summarize each estimator.

    ``comparator`` names an estimator whose squared empirical SE forms the
    numerator of the relative-efficiency column for every other estimator.
    With ``keep_replicates`` the per-replicate estimate arrays are returned
    alongside the metrics.  A configuration that no replicate could satisfy
    raises before any replicate is drawn.
    """
    estimators = list(estimators) if estimators is not None else _default_estimators(scenario.model)
    names = _estimator_names(scenario, estimators, comparator)
    reps = scenario.reps
    columns = {nm: np.full((4, reps), np.nan) for nm in names}
    total_discarded = 0
    for rep in range(reps):
        draw, n_discarded = _simulate_until_regular(scenario, _rng_for(scenario.seed, rep))
        total_discarded += n_discarded
        for nm, out in _apply_estimators(names, scenario, draw).items():
            if out is not None:
                columns[nm][:, rep] = out

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


def lrt_power_study(scenario: SimScenario, gammas, alpha: float = 0.05):
    """Empirical rejection rate of the overdispersion LRT per dispersion value.

    Each value's replicates are drawn from the negbin model at that gamma.
    A scenario that no replicate could test (one level), or whose model or
    gamma the draws would ignore, raises before any replicate is drawn.
    """
    _check_power_scenario(scenario)
    rows = []
    for gamma in gammas:
        scn = replace(scenario, model="negbin", gamma=float(gamma))
        reject = np.full(scn.reps, np.nan)
        for rep in range(scn.reps):
            draw, _ = _simulate_until_regular(scn, _rng_for(scn.seed, rep))
            try:
                res = lrt_overdispersion(draw.assay)
            except (SingularInformationError, IdentifiabilityError):
                continue
            reject[rep] = 1.0 if res.p_value <= alpha else 0.0
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


# what scenario_to_json writes, plus the dispersion values of a power scenario
_SCENARIO = _Object({
    "T": _Number(),
    "n_dvl": _Count(1),
    "allocation": _Str(default=SimScenario.allocation),
    "levels": _List(_Object({"u": _Number(), "M": _Count(1), "q": _Number()}), "{u, M, q} objects", non_empty=True),
    "model": _Str(default=SimScenario.model),
    "gamma": _Number(default=SimScenario.gamma),
    "rates": _Object(dict.fromkeys(("sens_qvoa", "spec_qvoa", "sens_udsa", "spec_udsa"), _Number()), default=None),
    "reps": _Count(1, default=SimScenario.reps),
    "seed": _Count(default=SimScenario.seed),
    "estimators": _List(_Str(), "names", default=None),
    "comparator": _Str(default=None),
    "gammas": _List(_Number(must="be a non-negative finite number", test=lambda g: 0 <= g < math.inf),
                    "non-negative finite numbers", non_empty=True, default=None),
})
_NAME = _Str(must="be a non-empty string without commas, quotes or line breaks",
             test=lambda s: s and not any(c in s for c in ',"\r\n'))
_STUDY = _Object({"scenarios": _List(_Object(None), "objects", non_empty=True)})
_STUDY_ENTRY = _Object({"name": _NAME, **_SCENARIO.keys})


class StudyScenario(NamedTuple):
    """One named scenario of a study document.

    With ``gammas`` it is a power scenario, run by ``lrt_power_study`` at
    alpha 0.05; without, ``run_study`` summarizes ``estimators``.
    """

    name: str
    scenario: SimScenario
    estimators: list[str] | None
    comparator: str | None
    gammas: list[float] | None


def _parse_scenario(doc: dict) -> tuple:
    """A checked scenario object as (scenario, estimators, comparator, gammas).

    A configuration that ``run_study`` or ``lrt_power_study`` would refuse
    is refused here, so a study fails before any of it runs.
    """
    rates = doc["rates"]
    scenario = SimScenario(
        truth=doc["T"], n_dvl=doc["n_dvl"], levels=tuple(SimLevel(**lv) for lv in doc["levels"]),
        allocation=doc["allocation"], model=doc["model"], gamma=doc["gamma"],
        rates=None if rates is None else ErrorRates(**rates), reps=doc["reps"], seed=doc["seed"],
    )
    estimators, comparator, gammas = doc["estimators"], doc["comparator"], doc["gammas"]
    if gammas is None:
        _estimator_names(scenario, _default_estimators(scenario.model) if estimators is None else estimators, comparator)
        return scenario, estimators, comparator, None
    if estimators is not None or comparator is not None:
        raise AssayDataError("a power scenario (gammas) takes no estimators or comparator")
    _check_power_scenario(scenario)
    return scenario, None, None, gammas


def study_from_json(text: str | bytes, name: str = "scenario") -> list[StudyScenario]:
    """Parse a study document, ``{"scenarios": [{"name": ..., <scenario fields>}, ...]}``.

    A plain scenario document is read as a study of one scenario called
    ``name``.  Names must be distinct, and a study holds either power
    scenarios only or metrics scenarios only.
    """
    doc = _load_json(text, "scenario JSON")
    if not isinstance(doc, dict):
        raise AssayDataError("a scenario or study document must be a JSON object")
    if "scenarios" not in doc:
        _check(_NAME, name, "a plain scenario document is named after its file, whose stem")
        try:
            return [StudyScenario(name, *_parse_scenario(_check(_SCENARIO, doc)))]
        except ValueError as exc:
            raise AssayDataError(f"bad scenario: {exc}") from exc
    study = []
    for i, entry in enumerate(_check(_STUDY, doc, "study")["scenarios"]):
        try:
            fields = _check(_STUDY_ENTRY, entry)
            study.append(StudyScenario(fields["name"], *_parse_scenario(fields)))
        except ValueError as exc:
            raise AssayDataError(f"bad scenario {i}: {exc}") from exc
    names = [entry.name for entry in study]
    duplicate = next((nm for nm in names if names.count(nm) > 1), None)
    if duplicate is not None:
        raise AssayDataError(f"study: scenario name {duplicate!r} is used twice")
    if len({entry.gammas is None for entry in study}) > 1:
        raise AssayDataError("study: power scenarios (gammas) and metrics scenarios cannot share one file")
    return study


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
        doc["rates"] = asdict(scenario.rates)
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


def power_csv(rows: list[dict], scenario_name: str) -> str:
    """``lrt_power_study`` rows as CSV, one per dispersion value."""
    lines = ["scenario,gamma,power,reps"]
    lines += [f"{scenario_name},{_fmt(row['gamma'])},{_fmt(row['power'])},{row['reps']}" for row in rows]
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
