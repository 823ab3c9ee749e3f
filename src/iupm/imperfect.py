"""Likelihood and constrained MLE under imperfect assay sensitivity/specificity.

Per-well observed-data likelihood: sequenced wells contribute the joint
probability of their (QVOA, UDSA) readings, unsequenced wells the marginal
QVOA probability.  The joint probability marginalizes the 2^n latent
infection patterns, but because the true QVOA status is 1 unless every
lineage is absent, the sum collapses to products:

    S  = prod_i [ P(z*_i | 0) e^{-lam_i} + P(z*_i | 1) (1 - e^{-lam_i}) ]
    T0 = prod_i   P(z*_i | 0) e^{-lam_i}
    P(w*, z*) = P(w* | W=1) (S - T0) + P(w* | W=0) T0,

which is what keeps evaluation O(M n) rather than O(M 2^n).  The per-well
factors P(z*|.) depend on the readings and the error rates only, so ``_Level``
builds them once per level for a whole fit; P(w*|.) is the same for every
sequenced well, since only QVOA-positive wells are sequenced.  It also keeps the
products S, T0 and P at the last rate vector, which the likelihood and its
gradient share: the solver asks for the gradient at the point whose
likelihood it has just taken.  The Hessian is closed form too (see
``_level_hessian``).  Rate MLEs are no longer guaranteed positive here, so the
fit maximizes directly on the rate scale under the lower bound tau >= 0, with
the gradient and that Hessian, which at the optimum also gives the observed
information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assay import AssayDataError, ErrorRates, WellAssay, summarize_well_assay
from .inference import FitResult, SingularInformationError, _fit_result, covariance
from .optimize import solve

__all__ = [
    "ImperfectModel",
    "ImperfectFitError",
    "ImpossibleDataError",
    "well_joint_prob",
    "well_marginal_prob",
    "imperfect_log_likelihood",
    "imperfect_gradient",
    "fit_imperfect",
]

class ImperfectFitError(RuntimeError):
    """Raised when the bounded fit cannot produce a usable estimate."""


class ImpossibleDataError(AssayDataError, ImperfectFitError):
    """Raised for readings that no rate vector can produce under the error
    rates: bad input to a fit, and an excluded replicate in a study."""


@dataclass(frozen=True)
class ImperfectModel:
    """Error rates plus per-well data, one WellAssay per dilution level."""

    rates: ErrorRates
    assays: tuple[WellAssay, ...]

    def __post_init__(self):
        object.__setattr__(self, "assays", tuple(self.assays))
        if not self.assays:
            raise AssayDataError("the imperfect model needs at least one dilution level")
        n = self.assays[0].n
        if any(wa.n != n for wa in self.assays):
            raise AssayDataError("all levels must share the same lineage columns")
        us = [wa.u for wa in self.assays]
        if len(set(us)) != len(us):
            raise AssayDataError("dilution levels u must be distinct")

    @property
    def n(self) -> int:
        return self.assays[0].n


class _Level:
    """One level's per-well constants under fixed error rates, built once per
    fit, plus the per-well products at the last rate vector evaluated.

    The solver asks for the gradient right after the likelihood at the same
    point, so the products are kept for one rate vector, keyed on its exact
    bytes: a differently signed zero can only miss, never return stale values.
    """

    def __init__(self, wa: WellAssay, rates: ErrorRates):
        seq = wa.r == 1
        self.seq_idx = np.flatnonzero(seq)
        z = wa.z_star[seq]
        self.n_unseq_pos = int(np.count_nonzero(wa.w_star[~seq]))
        self.n_unseq_neg = wa.M - self.seq_idx.size - self.n_unseq_pos
        self.n = wa.n
        self.well_name = wa.well_name
        self.rates = rates
        self.pz1 = np.where(z == 1.0, rates.sens_udsa, 1.0 - rates.sens_udsa)
        self.pz0 = np.where(z == 1.0, 1.0 - rates.spec_udsa, rates.spec_udsa)
        self.dpz = self.pz1 - self.pz0
        self.pw1 = rates.sens_qvoa
        self.pw0 = 1.0 - rates.spec_qvoa
        self._key = None
        self._products = None

    def products(self, lam: np.ndarray):
        """(e, s, S, T0, pw0 T0, P) of the sequenced wells at lam."""
        key = lam.tobytes()
        if key != self._key:
            e = np.exp(-lam)
            t0 = self.pz0 * e
            s = t0 + self.pz1 * (1.0 - e)
            S = np.multiply.reduce(s, axis=1)
            T0 = np.multiply.reduce(t0, axis=1)
            pw0_T0 = self.pw0 * T0
            P = self.pw1 * (S - T0) + pw0_T0
            self._key, self._products = key, (e, s, S, T0, pw0_T0, P)
        return self._products


def _leave_one_out_prod(a: np.ndarray) -> np.ndarray:
    """Row-wise products of all columns except each one (exact at zeros)."""
    out = np.empty_like(a)
    out[:, :1] = 1.0
    np.multiply.accumulate(a[:, :-1], axis=1, out=out[:, 1:])
    out[:, :-1] *= np.multiply.accumulate(a[:, :0:-1], axis=1)[:, ::-1]
    return out


def _marginals(lam_total: float, rates: ErrorRates) -> tuple[float, float]:
    eL = math.exp(-lam_total)
    pos = rates.sens_qvoa * (1.0 - eL) + (1.0 - rates.spec_qvoa) * eL
    neg = (1.0 - rates.sens_qvoa) * (1.0 - eL) + rates.spec_qvoa * eL
    return pos, neg


def well_joint_prob(lam, w_star: int, z_star, rates: ErrorRates) -> float:
    """P(W* = w_star, Z* = z_star) for one sequenced well."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    z = np.atleast_1d(np.asarray(z_star, dtype=float))
    if z.shape != lam.shape:
        raise ValueError("z_star must have one entry per lineage")
    e = np.exp(-lam)
    pz1 = np.where(z == 1.0, rates.sens_udsa, 1.0 - rates.sens_udsa)
    pz0 = np.where(z == 1.0, 1.0 - rates.spec_udsa, rates.spec_udsa)
    S = float(np.prod(pz0 * e + pz1 * (1.0 - e)))
    T0 = float(np.prod(pz0 * e))
    pw1 = rates.sens_qvoa if w_star == 1 else 1.0 - rates.sens_qvoa
    pw0 = 1.0 - rates.spec_qvoa if w_star == 1 else rates.spec_qvoa
    return pw1 * (S - T0) + pw0 * T0


def well_marginal_prob(lam, w_star: int, rates: ErrorRates) -> float:
    """P(W* = w_star) for an unsequenced well; depends on the rates only
    through their total."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    pos, neg = _marginals(float(lam.sum()), rates)
    return pos if w_star == 1 else neg


def _zero_probability(level: _Level, P: np.ndarray, pos: float, neg: float) -> str | None:
    """Why the data are impossible at this point, or None when they are not."""
    # fmin skips NaN, so this is any(P <= 0) in one reduction.
    if np.fmin.reduce(P, initial=math.inf) <= 0.0:
        bad = int(level.seq_idx[int(np.argmax(P <= 0.0))])
        return f"{level.well_name(bad)} has probability zero under the supplied error rates"
    if (level.n_unseq_pos and pos <= 0.0) or (level.n_unseq_neg and neg <= 0.0):
        return "an unsequenced well has probability zero under the supplied error rates"
    return None


def _level_loglik(lam: np.ndarray, level: _Level, strict: bool) -> float:
    *_, P = level.products(lam)
    pos, neg = _marginals(float(np.add.reduce(lam)), level.rates)
    reason = _zero_probability(level, P, pos, neg)
    if reason is not None:
        if strict:
            raise ImperfectFitError(reason)
        return -math.inf
    total = float(np.add.reduce(np.log(P)))
    for count, prob in ((level.n_unseq_pos, pos), (level.n_unseq_neg, neg)):
        if count:
            total += count * math.log(prob)
    return total


def _level_gradient(lam: np.ndarray, level: _Level) -> np.ndarray:
    e, s, _, T0, pw0_T0, P = level.products(lam)
    lam_total = float(np.add.reduce(lam))
    pos, neg = _marginals(lam_total, level.rates)
    if P.size:
        dS = _leave_one_out_prod(s) * (e * level.dpz)
        dP = level.pw1 * (dS + T0[:, None]) - pw0_T0[:, None]
        grad = np.add.reduce(dP / P[:, None], axis=0)
    else:
        grad = np.zeros(level.n)
    gain = (level.rates.sens_qvoa + level.rates.spec_qvoa - 1.0) * math.exp(-lam_total)
    if level.n_unseq_pos:
        grad += level.n_unseq_pos * gain / pos
    if level.n_unseq_neg:
        grad -= level.n_unseq_neg * gain / neg
    return grad


def _level_hessian(lam: np.ndarray, level: _Level) -> np.ndarray:
    """Hessian of ``_level_loglik`` in the level's rates, where every well
    has positive probability.

    A sequenced well has P = pw1 S + (pw0 - pw1) T0.  With r_i = s_i'/s_i
    (s_i'' = -s_i'), the second derivatives are S (r r' - diag(r^2 + r))
    and T0 11', so with a = pw1 S / P and b = (pw0 - pw1) T0 / P the rows
    of dP/P are a r - b, and P''/P - (dP/P)(dP/P)' summed over the wells is

        sum a(1 - a) r r' + (v 1' + 1 v') - diag(sum a (r^2 + r)) + sum (b - b^2) 11'

    with v = sum a b r: one n x n product over the wells.  Each s_i > 0
    wherever P > 0, since s_i >= pz0 e_i.  The unsequenced wells add c 11'
    with gain = (sens_qvoa + spec_qvoa - 1) e^{-Lambda} and
    c = n_pos (-gain/pos - (gain/pos)^2) + n_neg (gain/neg - (gain/neg)^2).
    """
    e, s, S, T0, pw0_T0, P = level.products(lam)
    lam_total = float(np.add.reduce(lam))
    pos, neg = _marginals(lam_total, level.rates)
    if P.size:
        r = e * level.dpz / s
        a = level.pw1 * S / P
        b = (pw0_T0 - level.pw1 * T0) / P
        H = (r * (a * (1.0 - a))[:, None]).T @ r
        v = (a * b) @ r
        H = 0.5 * (H + H.T) + (v[:, None] + v) + float(np.add.reduce(b) - b @ b)
        H[np.diag_indices_from(H)] -= a @ (r * r + r)
    else:
        H = np.zeros((level.n, level.n))
    gain = (level.rates.sens_qvoa + level.rates.spec_qvoa - 1.0) * math.exp(-lam_total)
    if level.n_unseq_pos:
        g = gain / pos
        H += level.n_unseq_pos * (-g - g * g)
    if level.n_unseq_neg:
        g = gain / neg
        H += level.n_unseq_neg * (g - g * g)
    return H


def imperfect_log_likelihood(lam, wa: WellAssay, rates: ErrorRates) -> float:
    """Observed-data log-likelihood of one level's per-well readings.

    A data/rate combination that is impossible under the model (some well
    with probability exactly zero) raises, naming the well.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.size != wa.n:
        raise ValueError(f"rate vector has length {lam.size}, assay has n={wa.n}")
    return _level_loglik(lam, _Level(wa, rates), strict=True)


def imperfect_gradient(lam, wa: WellAssay, rates: ErrorRates) -> np.ndarray:
    """Gradient of ``imperfect_log_likelihood`` in the level's rates; raises
    as it does where some well has probability zero."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.size != wa.n:
        raise ValueError(f"rate vector has length {lam.size}, assay has n={wa.n}")
    level = _Level(wa, rates)
    _level_loglik(lam, level, strict=True)  # raises for the data, on the products the gradient reuses
    return _level_gradient(lam, level)


def fit_imperfect(model: ImperfectModel, alpha: float = 0.05) -> FitResult:
    """Bounded MLE of the per-million rates from per-well data.

    Maximized by :func:`iupm.optimize.solve` under tau >= 0 from a pooled
    start, on the closed-form gradient and Hessian.  Standard errors use the
    observed information, the negated closed-form Hessian at the optimum;
    when some components sit at zero the information is taken on the free
    coordinates only and the interval is boundary-flagged via
    ``active_lower``.
    """
    model.rates.check_identifiable()
    levels = [(wa.u, _Level(wa, model.rates)) for wa in model.assays]
    n = model.n
    if n == 0:
        raise AssayDataError("the imperfect fit needs at least one lineage column")

    def objective(tau):
        return sum(_level_loglik(u * tau, level, strict=False) for u, level in levels)

    def grad(tau):
        out = np.zeros(n)
        for u, level in levels:
            out += u * _level_gradient(u * tau, level)
        return out

    def hessian(tau):
        out = np.zeros((n, n))
        for u, level in levels:
            out += (u * u) * _level_hessian(u * tau, level)
        return out

    # A well has probability zero at every interior point or at none: check one.
    start = _initial_tau(model)
    for d, (u, level) in enumerate(levels):
        try:
            _level_loglik(u * start, level, strict=True)
        except ImperfectFitError as exc:
            raise ImpossibleDataError(f"level {d}: {exc}") from None
    res, iterations = solve(objective, lambda x: (grad(x), hessian(x)), start, np.zeros(n), grad)
    tau = res.x
    free = tau > 0.0
    if not free.any():
        raise ImperfectFitError("all rate components ended on the zero boundary")
    try:
        cov_free = covariance(-hessian(tau)[np.ix_(free, free)])
    except SingularInformationError:
        raise ImperfectFitError(
            "observed information is singular at the optimum"
        ) from None
    if not float(cov_free.sum()) > 0.0:
        raise ImperfectFitError("observed information is not positive definite at the optimum")
    return _fit_result(
        tau, alpha, cov_free, log_lik=res.f, converged=res.converged, iterations=iterations, free=free
    )


def _initial_tau(model: ImperfectModel) -> np.ndarray:
    """Pooled naive-count start, floored away from the boundary."""
    n = model.n
    pooled = np.zeros(n)
    complete = 0
    for wa in model.assays:
        summary = summarize_well_assay(wa)
        pooled += summary.y_array()
        complete += summary.M_N + summary.m
    u_mean = float(np.mean([wa.u for wa in model.assays]))
    lo = 1.0 / (2.0 * max(complete, 1))
    inner = np.clip(1.0 - pooled / max(complete, 1), lo, 1.0 - lo)
    return np.maximum(-np.log(inner) / u_mean, 1e-3)
