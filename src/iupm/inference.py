"""Expected information, confidence intervals, and the fit orchestration.

Estimation works on per-million rates tau; a level at dilution u contributes
through the per-well rates ``lam = u * tau``.  Standard errors come from the
expected Fisher information, which needs the design fraction q of positive
wells sequenced at each level (recovered as m / M_P when not recorded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import poisson
from .assay import MultiDilutionAssay
from .poisson import ExtremeOutcome, classify_extreme
from .optimize import GRAD_TOL, maximize, newton_polish
from .special import expm1_ratio, log1mexp, normal_quantile

__all__ = [
    "SingularInformationError",
    "FitResult",
    "fisher_information",
    "fisher_information_multi",
    "covariance",
    "wald_ci",
    "multi_log_likelihood",
    "multi_gradient",
    "observed_information",
    "level_params",
    "fit_mle",
]


class SingularInformationError(RuntimeError):
    """The information matrix cannot be inverted reliably."""


@dataclass
class FitResult:
    """Point estimates and Wald inference for the per-million rates.

    ``tau_hat`` has one entry per detected lineage; for a fit without any
    sequencing information it holds the single total-rate parameter, so
    ``iupm == sum(tau_hat)`` either way.  ``bias`` is set by the
    bias-corrected fit.  ``active_lower`` lists components held at zero by a
    bounded fit (interval then unreliable near the boundary).
    """

    tau_hat: np.ndarray
    iupm: float
    covariance: np.ndarray
    se_iupm: float
    ci: tuple[float, float]
    alpha: float
    log_lik: float
    converged: bool
    iterations: int
    extreme: ExtremeOutcome
    bias: np.ndarray | None = None
    clamped: int = 0
    active_lower: tuple[int, ...] = field(default_factory=tuple)


_BLOCK = 4096


@lru_cache(maxsize=1)
def _lgamma_table(M: int) -> dict[int, np.ndarray]:
    """lgamma(j) for j = 0..M + 1 in blocks of _BLOCK, each entry NaN until a row asks for it.

    Windows at different Lambda overlap, and the levels of one assay often
    share M, so lgamma is evaluated once per argument per M, never more often
    than a whole row would need.  Only the blocks a window touches are
    allocated, so a large M does not hold a table of M + 2 entries.
    """
    return {}


def _lgammas(table: dict[int, np.ndarray], M: int, start: int, stop: int) -> np.ndarray:
    """lgamma(j) for j = start..stop - 1, filling in the entries still missing."""
    parts = []
    for b in range(start // _BLOCK, (stop - 1) // _BLOCK + 1):
        if b not in table:
            table[b] = np.full(min(_BLOCK, M + 2 - b * _BLOCK), np.nan)
        first = max(start - b * _BLOCK, 0)
        part = table[b][first:stop - b * _BLOCK]
        todo = np.flatnonzero(np.isnan(part))
        args = (todo + (b * _BLOCK + first)).tolist()
        part[todo] = np.fromiter(map(math.lgamma, args), dtype=float, count=todo.size)
        parts.append(part)
    return np.concatenate(parts)


@lru_cache(maxsize=8)
def _log_binom_row(M: int, lo: int, hi: int) -> np.ndarray:
    """log C(M, k) for k = lo..hi, each entry from lgamma.

    A cumulative log-sum would be cheaper but drifts (about 4e-10 relative at
    M = 200 000).  The information and the bias terms visit the levels of an
    assay in turn, so the cache keeps a row for each level of an assay of up
    to eight levels; for M <= 380 the window, and so the row, does not depend
    on Lambda.  A row has at most 2 sqrt(380 M) + 2 entries.
    """
    table = _lgamma_table(M)
    lg_k = _lgammas(table, M, lo + 1, hi + 2)
    lg_rest = _lgammas(table, M, M - hi + 1, M - lo + 2)
    row = (_lgammas(table, M, M + 1, M + 2)[0] - lg_k) - lg_rest[::-1]
    row.flags.writeable = False
    return row


def _nonzero_window(M: int, s: float) -> tuple[int, int]:
    """The k = lo..hi outside which every Binomial(M, s) weight is 0.0 in floats.

    By Hoeffding's inequality a count k with |k - M s| > sqrt(380 M) has
    probability at most 2 e^{-760}, below the smallest subnormal, so its
    weight exp(log C(M, k) + ...) underflows to exactly 0.0.  For M <= 380
    the window is the whole row 0..M.
    """
    mid, half = M * s, math.sqrt(380.0 * M)
    lo = math.floor(mid - half) if mid - half > 0.0 else 0
    hi = math.ceil(mid + half) if mid + half < M else M
    return lo, hi


@lru_cache(maxsize=8)
def _binomial_sums(Lambda: float, M: int, q: float) -> tuple[float, float, float, float]:
    """(Em, F, dEm/dLambda, dF/dLambda) from one pass over the well counts.

    The number of negative wells k is Binomial(M, s) with s = e^{-Lambda};
    the j = M - k positive wells yield <q j> sequenced ones.  Em is the
    expected sequenced count and F = sum_j C(M,j) <qj> p^{j-1} s^{M-j} =
    Em / p (p = 1 - s) the factor behind the per-lineage expectations.  Each
    term's Lambda-derivative is its weight times j s/p - k, and (j-1) s/p - k
    for F.

    Only the counts in :func:`_nonzero_window` are evaluated.  Their terms are
    scattered back into zeros of length M + 1 before the two dot products, so
    the BLAS sums add the same products at the same positions as a pass over
    every count would, and the results are the same to the bit.  The sums are
    memoized, so the bias term reuses the pass that the information of the
    same fit made at the same rates.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    if Lambda <= 0.0 or q == 0.0:
        return 0.0, 0.0, 0.0, 0.0
    s = math.exp(-Lambda)
    p = -math.expm1(-Lambda)
    r = s / p
    lo, hi = _nonzero_window(M, s)
    k = np.arange(lo, hi + 1, dtype=float)
    pos = M - k
    log_w = _log_binom_row(M, lo, hi) + k * -Lambda
    log_w += pos * log1mexp(Lambda)
    w = np.exp(log_w, out=log_w)
    seq = np.rint(q * pos)
    ws = w * seq
    slope = pos * r - k
    a, b = np.zeros(M + 1), np.zeros(M + 1)
    a[lo:hi + 1], b[lo:hi + 1] = w, seq
    Em = float(a @ b)
    a[lo:hi + 1], b[lo:hi + 1] = ws, slope
    dEm = float(a @ b)
    return Em, Em / p, dEm, (dEm - r * Em) / p


def fisher_information(lam, M: int, q: float) -> np.ndarray:
    """Expected information for the per-well rates at one dilution level.

    Diagonal: E(Y_i) e^{lam_i} / (e^{lam_i}-1)^2 plus a common term; every
    off-diagonal entry equals the common term, which is driven by the
    expected number of unsequenced positive wells.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if np.any(lam <= 0):
        raise ValueError("fisher_information requires strictly positive rates")
    Lam = float(lam.sum())
    Em, F, _, _ = _binomial_sums(Lam, M, q)
    common = expm1_ratio(M - M * math.exp(-Lam) - Em, Lam, 2)
    diag = expm1_ratio(-np.expm1(-lam) * F, lam, 2) + common
    matrix = np.full((lam.size, lam.size), common)
    np.fill_diagonal(matrix, diag)
    return matrix


def _information_derivative(lam, M: int, q: float):
    """Closed-form lam-derivatives of :func:`fisher_information` and the
    expected third derivatives of the log-likelihood at one level.

    The information is I_ij = c + delta_ij F / t_i with t_i = e^{lam_i} - 1
    and c = (M p - Em) (t + 1) / t^2, where t = e^Lam - 1, p = 1 - e^{-Lam}
    and Em, F are the sums of :func:`_binomial_sums`; c, Em and F depend on
    the rates through Lam = sum_i lam_i only.  Hence

        dI_ij / dlam_k = d_common + delta_ij d_diag_i - delta_ij delta_ik d_self_i

    with d_common = dc/dLam, d_diag = F' / t_i and d_self = F (t_i + 1) / t_i^2.
    Every mixed third derivative shares the value third_common, and the pure
    ones are third_diag; third_common vanishes when every positive well is
    sequenced (q = 1), the same cancellation as the off-diagonal of the
    information.  Returns (d_common, d_diag, d_self, third_common, third_diag),
    all from one pass over the well counts.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if np.any(lam <= 0):
        raise ValueError("the information derivative requires strictly positive rates")
    Lam = float(lam.sum())
    s = math.exp(-Lam)
    Em, F, dEm, dF = _binomial_sums(Lam, M, q)
    third_common = expm1_ratio(M - M * s - Em, Lam, 3)
    d_common = expm1_ratio(M * s - dEm, Lam, 2) - third_common
    third_diag = expm1_ratio(-np.expm1(-lam) * F, lam, 3) + third_common
    return d_common, expm1_ratio(dF, lam, 1), expm1_ratio(F, lam, 2), third_common, third_diag


def fisher_information_multi(tau, levels) -> np.ndarray:
    """Expected information for per-million rates over several levels.

    ``levels`` is a sequence of (u, M, q) design triples; each contributes
    u^2 times its per-well information evaluated at u * tau.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    total = np.zeros((tau.size, tau.size))
    for u, M, q in levels:
        total += u * u * fisher_information(u * tau, M, q)
    return total


COND_LIMIT = 1e12  # condition number above which an information matrix is refused


def covariance(info) -> np.ndarray:
    """Invert an information matrix, refusing ill-conditioned input."""
    matrix = np.asarray(info, dtype=float)
    cond = np.linalg.cond(matrix)
    if not math.isfinite(cond) or cond > COND_LIMIT:
        raise SingularInformationError(
            f"information matrix of size {matrix.shape[0]} is singular or "
            f"ill-conditioned (condition estimate {cond:.3e})"
        )
    cov = np.linalg.inv(matrix)
    return (cov + cov.T) / 2.0


def wald_ci(iupm: float, se: float, alpha: float = 0.05) -> tuple[float, float]:
    """Wald interval built on the log scale, so the endpoints stay positive.

    Endpoints are iupm * exp(+-z * se / iupm).  Degenerate inputs (zero or
    infinite estimate) give the matching degenerate interval.
    """
    if se < 0:
        raise ValueError("se must be non-negative")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if iupm == 0.0:
        return (0.0, 0.0)
    if math.isinf(iupm):
        return (math.inf, math.inf)
    if iupm < 0:
        raise ValueError("iupm must be non-negative")
    half = normal_quantile(1.0 - alpha / 2.0) * se / iupm
    upper = iupm * math.exp(half) if half < 700.0 else math.inf
    return (iupm * math.exp(-half) if half < 700.0 else 0.0, upper)


def multi_log_likelihood(tau, assay: MultiDilutionAssay) -> float:
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    return sum(poisson.log_likelihood(lv.u * tau, lv) for lv in assay.levels)


def multi_gradient(tau, assay: MultiDilutionAssay) -> np.ndarray:
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    out = np.zeros(tau.size)
    for lv in assay.levels:
        out += lv.u * poisson.gradient(lv.u * tau, lv)
    return out


def observed_information(tau, assay: MultiDilutionAssay) -> np.ndarray:
    """Negated Hessian of the joint log-likelihood (diagnostic alternative
    to the expected information)."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    out = np.zeros((tau.size, tau.size))
    for lv in assay.levels:
        out -= lv.u * lv.u * poisson.hessian(lv.u * tau, lv)
    return out


def level_params(assay: MultiDilutionAssay) -> list[tuple[float, int, float]]:
    """(u, M, q) design triples used by the expected-information formulas."""
    return [(lv.u, lv.M, lv.q_effective) for lv in assay.levels]


def _initial_theta(assay: MultiDilutionAssay) -> np.ndarray:
    """Pooled-count starting point: log(-log(1 - Y~/M~) / u) with clamping.

    Pools per-lineage counts and complete-data well counts across the levels;
    the inner log argument is kept away from 0 and 1 so lineages observed in
    every (or no) pooled well still start at a finite value.  The pooled rate
    is per well; where every level shares one u it is divided by that u to
    give the per-million rate, and assays with mixed u start from the per-well
    rate itself.
    """
    pooled = assay.pooled_y()
    m_tilde = sum(lv.M_N + lv.m for lv in assay.levels)
    lo = 1.0 / (2.0 * m_tilde)
    inner = np.clip(1.0 - pooled / m_tilde, lo, 1.0 - lo)
    rate = -np.log(inner)
    dilutions = {lv.u for lv in assay.levels}
    if len(dilutions) == 1:
        rate = rate / dilutions.pop()
    return np.log(rate)


def fit_mle(assay: MultiDilutionAssay, alpha: float = 0.05) -> FitResult:
    """Maximum-likelihood fit of the per-million rates for one assay.

    Regular assays are maximized over theta = log(tau), which needs no
    bounds: BFGS (:func:`iupm.optimize.maximize`) followed by a Newton polish
    on the analytic theta-Hessian.  The two boundary outcomes short-circuit
    to 0 and +inf with degenerate intervals.
    An assay without any sequencing data (n = 0) reduces to the classic
    one-parameter dilution model for the total rate.
    """
    extreme = classify_extreme(assay)
    n = assay.n
    if extreme is ExtremeOutcome.ALL_NEGATIVE:
        return FitResult(
            tau_hat=np.zeros(n),
            iupm=0.0,
            covariance=np.zeros((n, n)),
            se_iupm=0.0,
            ci=(0.0, 0.0),
            alpha=alpha,
            log_lik=0.0,
            converged=True,
            iterations=0,
            extreme=extreme,
        )
    if extreme is ExtremeOutcome.ALL_POSITIVE_SINGLE_DVL:
        return FitResult(
            tau_hat=np.full(max(n, 1), math.inf),
            iupm=math.inf,
            covariance=np.full((max(n, 1),) * 2, math.nan),
            se_iupm=math.inf,
            ci=(math.inf, math.inf),
            alpha=alpha,
            log_lik=math.nan,
            converged=True,
            iterations=0,
            extreme=extreme,
        )
    if n == 0:
        return _fit_total_only(assay, alpha)

    # A trial step whose rates leave the float range is rejected outright; the
    # solver evaluates the gradient only where the objective is finite.
    def objective(theta):
        with np.errstate(over="ignore", invalid="ignore"):
            value = multi_log_likelihood(np.exp(theta), assay)
        return value if math.isfinite(value) else -math.inf

    def grad(theta):
        tau = np.exp(theta)
        return tau * multi_gradient(tau, assay)

    def hess(theta, g, idx):
        # d^2 l / d theta^2 = diag(tau) H diag(tau) + diag(theta-gradient);
        # theta is unbounded, so idx holds every component.
        tau = np.exp(theta)
        H = -observed_information(tau, assay)
        return tau[:, None] * H * tau[None, :] + np.diag(g)

    res = maximize(objective, grad, _initial_theta(assay))
    theta, converged = newton_polish(grad, hess, res.x, max_steps=10)
    converged = converged or res.converged
    tau = np.exp(theta)
    info = fisher_information_multi(tau, level_params(assay))
    cov = covariance(info)
    se = math.sqrt(float(cov.sum()))
    iupm = float(tau.sum())
    return FitResult(
        tau_hat=tau,
        iupm=iupm,
        covariance=cov,
        se_iupm=se,
        ci=wald_ci(iupm, se, alpha),
        alpha=alpha,
        log_lik=multi_log_likelihood(tau, assay),
        converged=converged,
        iterations=res.iterations,
        extreme=ExtremeOutcome.REGULAR,
    )


def _expm1(x: float) -> float:
    """e^x - 1, or inf where it passes the float range."""
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


def _total_only_loglik(T: float, levels) -> float:
    total = 0.0
    for lv in levels:
        lam = lv.u * T
        if lv.M > lv.M_N:
            total += (lv.M - lv.M_N) * log1mexp(lam)
        total -= lv.M_N * lam
    return total


def _newton_polish_total(T: float, levels, tol: float, max_steps: int = 10):
    """Newton refinement of the one-parameter fit in phi = log(T)."""
    def dphi(T):
        dT = sum(lv.u * ((lv.M - lv.M_N) / _expm1(lv.u * T) - lv.M_N) for lv in levels)
        return T * dT, dT

    g, dT = dphi(T)
    for _ in range(max_steps):
        if abs(g) <= tol:
            return T, True
        t = [_expm1(lv.u * T) for lv in levels]
        d2T = -sum(
            lv.u * lv.u * (lv.M - lv.M_N) * (tk + 1.0) / (tk * tk)
            for lv, tk in zip(levels, t)
            if tk < math.inf  # a level with e^{uT} past the float range adds 0
        )
        d2phi = T * T * d2T + g
        if d2phi >= 0:
            break
        T_new = T * math.exp(-g / d2phi)
        g_new, dT_new = dphi(T_new)
        if not math.isfinite(g_new) or abs(g_new) >= abs(g):
            break
        T, g, dT = T_new, g_new, dT_new
    return T, abs(g) <= tol


def _fit_total_only(assay: MultiDilutionAssay, alpha: float) -> FitResult:
    """One-parameter fit of the total rate from well counts alone."""
    levels = assay.levels
    if len(levels) == 1:
        lv = levels[0]
        T = poisson.closed_form_no_udsa(lv.M, lv.M_N) / lv.u
        iterations, converged = 0, True
        log_lik = _total_only_loglik(T, levels)
    else:
        def objective(phi):
            with np.errstate(over="ignore", invalid="ignore"):
                value = _total_only_loglik(float(np.exp(phi[0])), levels)
            return value if math.isfinite(value) else -math.inf

        def grad(phi):
            T = float(np.exp(phi[0]))
            g = sum(
                lv.u * ((lv.M - lv.M_N) / _expm1(lv.u * T) - lv.M_N) for lv in levels
            )
            return np.array([T * g])

        seeds = [
            math.log(lv.M / lv.M_N) / lv.u for lv in levels if 0 < lv.M_N < lv.M
        ]
        T0 = float(np.mean(seeds)) if seeds else 0.5
        res = maximize(objective, grad, np.array([math.log(T0)]))
        T = float(np.exp(res.x[0]))
        T, polished = _newton_polish_total(T, levels, GRAD_TOL)
        iterations, converged = res.iterations, res.converged or polished
        log_lik = _total_only_loglik(T, levels)
    info = sum(lv.u * lv.u * lv.M / _expm1(lv.u * T) for lv in levels)
    se = 1.0 / math.sqrt(info)
    return FitResult(
        tau_hat=np.array([T]),
        iupm=T,
        covariance=np.array([[1.0 / info]]),
        se_iupm=se,
        ci=wald_ci(T, se, alpha),
        alpha=alpha,
        log_lik=log_lik,
        converged=converged,
        iterations=iterations,
        extreme=ExtremeOutcome.REGULAR,
    )
