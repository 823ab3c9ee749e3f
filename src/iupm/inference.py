"""Expected information, confidence intervals, and the fit orchestration.

Estimation works on per-million rates tau; a level at dilution u contributes
through the per-well rates ``lam = u * tau``.  Standard errors come from the
expected Fisher information, which needs the design fraction q of positive
wells sequenced at each level (recovered as m / M_P when not recorded); the
information is formed in :func:`fisher_information_multi` alone and its
derivative in :func:`iupm.bias.a_matrices` alone, from one :class:`LevelPass`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import poisson
from .assay import AssayDataError, MultiDilutionAssay, _never_detected
from .poisson import ExtremeOutcome, classify_extreme
from .optimize import solve
from .special import expm1_ratio, log1mexp, normal_quantile

__all__ = [
    "SingularInformationError",
    "FitResult",
    "LevelPass",
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
    bias-corrected fit.  For a Poisson fit of one level, ``iterations``
    counts the outer steps of the root in the total rate
    (:func:`iupm.poisson.one_level_mle`) and ``converged`` means that its
    bracket closed; for every other fit they come from the first stage of
    :func:`iupm.optimize.solve`.  ``iterations`` is 0 for a closed form or
    a boundary outcome.  ``active_lower`` lists components held at zero by
    a bounded fit (interval then unreliable near the boundary).
    ``level_pass`` keeps the :class:`LevelPass` of a regular :func:`fit_mle` fit.
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
    level_pass: LevelPass | None = None


_TABLE_MAX = 380  # log n! is tabulated up to here: every count of a level with M <= 380
_LOG_FACTORIALS = np.array([math.lgamma(n + 1) for n in range(_TABLE_MAX + 1)])
_LOG_FACTORIALS.flags.writeable = False
_STIRLING_CONST = 0.5 * math.log(2.0 * math.pi) - 0.5


def _log_factorials(a: int, b: int) -> np.ndarray:
    """log n! for n = a..b (0 <= a <= b), as a read-only table slice or a new array.

    Up to n = 380 the values are ``math.lgamma(n + 1)`` from a table built at
    import.  Above, Stirling's series for lgamma(x) at x = n + 1,

        (x - 1/2) log x - x + log(2 pi)/2 + 1/(12x) - 1/(360x^3) + 1/(1260x^5)
            - 1/(1680x^7) + 1/(1188x^9),

    is evaluated in numpy as (x - 1/2)(log x - 1) + (log(2 pi) - 1)/2 + ...,
    whose factor log x - 1 is exact.  At x >= 382 the first omitted term is
    below 1e-30.  Each value is within 1.75 ulp of the exact log n! for
    n = 381..60 000, where lgamma's own error reaches 1.86 ulp.
    """
    if b <= _TABLE_MAX:
        return _LOG_FACTORIALS[a:b + 1]
    x = np.arange(max(a, _TABLE_MAX + 1) + 1, b + 2, dtype=float)
    r = 1.0 / x
    r2 = r * r
    series = r * (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 * (1 / 1680 - r2 / 1188))))
    stirling = (x - 0.5) * (np.log(x) - 1.0) + (_STIRLING_CONST + series)
    if a > _TABLE_MAX:
        return stirling
    return np.concatenate((_LOG_FACTORIALS[a:], stirling))


def _log_binom_row(M: int, lo: int, hi: int) -> np.ndarray:
    """log C(M, k) for k = lo..hi, as (log M! - log k!) - log (M - k)!.

    log M! comes from ``math.lgamma`` and the two index ranges from
    :func:`_log_factorials`; for M <= 380 every entry therefore equals
    :func:`iupm.special.log_binom` to the bit, and above that it stays within
    about 2 ulp of log M! of the exact value, as an lgamma row does.  A
    cumulative log-sum would be cheaper but drifts (about 4e-10 relative at
    M = 200 000).  No row is cached.  A row of M <= 380 is two slices of the
    table; a row of a large M (about 1 ms and 140 KB at M = 200 000) is
    rarely asked for twice, since every new M or window misses, and a cached
    one outlives the draw that made it and holds the heap up.
    """
    lg_k = _log_factorials(lo, hi)
    lg_rest = _log_factorials(M - hi, M - lo)
    return (math.lgamma(M + 1) - lg_k) - lg_rest[::-1]


def _nonzero_window(M: int, s: float) -> tuple[int, int]:
    """The k = lo..hi outside which every Binomial(M, s) weight is 0.0 in floats.

    By Hoeffding's inequality a count k with |k - M s| > sqrt(380 M) has
    probability at most 2 e^{-760}, below the smallest subnormal, so its
    weight exp(log C(M, k) + ...) underflows to exactly 0.0.  For M <= 380
    the window is the whole row 0..M, so the 381-entry log-factorial table of
    :func:`_log_factorials` holds every log k! and log (M - k)! it needs, for
    every Lambda; above that the window has at most 2 sqrt(380 M) + 2 counts.
    """
    mid, half = M * s, math.sqrt(380.0 * M)
    lo = math.floor(mid - half) if mid - half > 0.0 else 0
    hi = math.ceil(mid + half) if mid + half < M else M
    return lo, hi


def _binomial_sums(Lambda: float, M: int, q: float) -> tuple[float, float, float, float]:
    """(Em, F, dEm/dLambda, dF/dLambda) from one pass over the well counts.

    The number of negative wells k is Binomial(M, s) with s = e^{-Lambda};
    the j = M - k positive wells yield <q j> sequenced ones.  Em is the
    expected sequenced count and F = sum_j C(M,j) <qj> p^{j-1} s^{M-j} =
    Em / p (p = 1 - s) the factor behind the per-lineage expectations.  Each
    term's Lambda-derivative is its weight times j s/p - k, and (j-1) s/p - k
    for F.

    Only the counts in :func:`_nonzero_window` are evaluated; every other
    weight is 0.0 in floats.  For M <= 380 the window is the whole row and
    its log C(M, k) come from the lgamma table, so the sums are those of a
    pass over every count with lgamma to the bit; above that the row comes
    from Stirling's series (:func:`_log_binom_row`) and the dot products add
    the same nonzero terms in other groupings.  When every positive well is
    sequenced (q = 1) no pass is made: the sums are Em = M p, F = M,
    dEm = M s and dF = 0, so the off-diagonal of the information and the
    mixed third derivatives vanish exactly.  Nothing is memoized: a fit
    keeps the sums of its one :class:`LevelPass`.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    if Lambda <= 0.0 or q == 0.0:
        return 0.0, 0.0, 0.0, 0.0
    s = math.exp(-Lambda)
    p = -math.expm1(-Lambda)
    if q == 1.0:
        return M * p, float(M), M * s, 0.0
    r = s / p
    lo, hi = _nonzero_window(M, s)
    k = np.arange(lo, hi + 1, dtype=float)
    pos = M - k
    log_w = _log_binom_row(M, lo, hi) + k * -Lambda
    log_w += pos * log1mexp(Lambda)
    w = np.exp(log_w, out=log_w)
    seq = np.rint(q * pos)
    Em = float(w @ seq)
    dEm = float((w * seq) @ (pos * r - k))
    return Em, Em / p, dEm, (dEm - r * Em) / p


class LevelPass:
    """One pass over the binomial sums of (u, M, q) ``levels`` at per-million
    rates tau: the dilutions ``u``, the (D, n) per-well rates ``lam`` = u tau,
    each level's total rate ``Lam`` and its (Em, F, dEm, dF) in ``sums``."""

    def __init__(self, tau, levels):
        self.levels = list(levels)
        self.u = np.array([level[0] for level in self.levels], dtype=float)
        self.lam = self.u[:, None] * np.atleast_1d(np.asarray(tau, dtype=float))
        if (self.lam <= 0.0).any():
            raise ValueError("the expected information requires strictly positive rates")
        self.Lam = self.lam.sum(axis=1).tolist()
        self.sums = [_binomial_sums(L, M, q) for (_, M, q), L in zip(self.levels, self.Lam)]


def fisher_information_multi(passed: LevelPass) -> np.ndarray:
    """Expected information for per-million rates from their :class:`LevelPass`.

    A level adds u^2 times its information at the per-well rates lam = u tau
    (one (D, n) array): a term c driven by the unsequenced positive wells in
    every entry, plus E(Y_i) e^{lam_i} / (e^{lam_i} - 1)^2 = F / (e^{lam_i} - 1)
    on the diagonal, so formed that no square underflows.  The levels are
    added in order and the matrix is built once.  With n = 0 the total rate
    is one pseudo-lineage, and a level adds u^2 M / (e^{uT} - 1).
    """
    u, n = passed.u, passed.lam.shape[1]
    # column 0 holds each level's common term c, the others its diagonal F / t_i + c
    terms = np.empty((u.size, n + 1))
    for d, ((_, M, _), Lam, (Em, *_)) in enumerate(zip(passed.levels, passed.Lam, passed.sums)):
        terms[d, 0] = expm1_ratio(M * -math.expm1(-Lam) - Em, Lam, 2)
    F = np.array([[F_d] for _, F_d, _, _ in passed.sums])
    terms[:, 1:] = expm1_ratio(F, passed.lam, 1) + terms[:, :1]
    with np.errstate(over="ignore", invalid="ignore"):  # u * u overflows past u = 1e154
        sums = (terms * (u * u)[:, None]).sum(axis=0)
    info = np.full((n, n), sums[0])
    np.fill_diagonal(info, sums[1:])
    return info


COND_LIMIT = 1e12  # condition number above which an information matrix is refused


def covariance(info) -> np.ndarray:
    """Invert an information matrix, refusing ill-conditioned or non-finite input or inverse."""
    matrix = np.asarray(info, dtype=float)
    cond = np.linalg.cond(matrix) if np.isfinite(matrix).all() else math.nan
    if cond <= COND_LIMIT:
        cov = np.linalg.inv(matrix)
        if np.isfinite(cov).all():
            return (cov + cov.T) / 2.0
    raise SingularInformationError(
        f"information matrix of size {matrix.shape[0]} is singular or "
        f"ill-conditioned (condition estimate {cond:.3e}) or has no finite inverse"
    )


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")


def wald_ci(iupm: float, se: float, alpha: float = 0.05) -> tuple[float, float]:
    """Wald interval built on the log scale, so the endpoints stay positive.

    Endpoints are iupm * exp(+-z * se / iupm).  Degenerate inputs (zero or
    infinite estimate) give the matching degenerate interval.
    """
    if se < 0:
        raise ValueError("se must be non-negative")
    _check_alpha(alpha)
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
    return poisson.log_likelihood(assay.terms.u * tau, assay)


def multi_gradient(tau, assay: MultiDilutionAssay) -> np.ndarray:
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    u = assay.terms.u
    # sum(axis=0) adds the levels' rows in level order, onto 0.0
    return (u * poisson.gradient(u * tau, assay)).sum(axis=0)


def observed_information(tau, assay: MultiDilutionAssay) -> np.ndarray:
    """Negated Hessian of the joint log-likelihood (diagnostic alternative
    to the expected information).

    Level d has Hessian diag(h_d) - c_d 11^T (:func:`iupm.poisson.hessian_parts`,
    c_d = 0.0 without unsequenced positive wells), so the information has
    0.0 - sum_d u_d^2 (h_di - c_d) on its diagonal and 0.0 - sum_d u_d^2 (0.0 - c_d)
    off it.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    u = assay.terms.u
    u2 = u * u
    h, common = poisson.hessian_parts(u * tau, assay)
    c = np.array([[0.0 if x is None else x] for x in common])
    # sum(axis=0) adds the levels in order on a (D, n) array with n >= 2 and
    # pairwise on a (D, 1) one, so the off-diagonal sum is broadcast to (D, n);
    # 0.0 - (a_1 + a_2 + ...) is 0.0 - a_1 - a_2 - ... to the bit, and never -0.0
    info = np.full((tau.size, tau.size), 0.0 - np.broadcast_to(u2 * (0.0 - c), h.shape).sum(axis=0)[0])
    info[np.diag_indices(tau.size)] = 0.0 - (u2 * (h - c)).sum(axis=0)
    return info


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


# Each model of fit_mle is (loglik at the rates, gradient and (gradient, Hessian)
# in x = log(rates), a function giving the x at which the solve step starts);
# only a fit of several levels solves.
def _lineage_model(assay: MultiDilutionAssay):
    """The per-lineage rates tau of an assay with n >= 1, in theta = log(tau)."""
    def grad(theta):
        tau = np.exp(theta)
        return tau * multi_gradient(tau, assay)

    def grad_hess(theta):
        # d^2 l / d theta^2 = diag(tau) H diag(tau) + diag(theta-gradient)
        g = grad(theta)
        tau = np.exp(theta)
        H = -observed_information(tau, assay)
        return g, tau[:, None] * H * tau[None, :] + np.diag(g)

    return partial(multi_log_likelihood, assay=assay), grad, grad_hess, partial(_initial_theta, assay)


def _total_model(levels):
    """The total rate T of an assay without sequencing data (n = 0), in
    phi = log(T): the classic one-parameter dilution model."""
    def loglik(tau):
        T, total = float(tau[0]), 0.0
        for lv in levels:
            lam = lv.u * T
            if lv.M > lv.M_N:
                total += (lv.M - lv.M_N) * log1mexp(lam)
            total -= lv.M_N * lam
        return total

    def grad(phi):
        T = float(np.exp(phi[0]))
        g = sum(lv.u * (expm1_ratio(lv.M - lv.M_N, lv.u * T, 1) - lv.M_N) for lv in levels)
        return np.array([T * g])

    def grad_hess(phi):
        # d^2 l / d phi^2 = T^2 d^2 l / dT^2 + dl/dphi
        g = grad(phi)
        T = float(np.exp(phi[0]))
        d2T = -sum(expm1_ratio(lv.u * lv.u * (lv.M - lv.M_N), lv.u * T, 2) for lv in levels)
        return g, np.array([[T * T * d2T + g[0]]])

    def start():
        seeds = [math.log(lv.M / lv.M_N) / lv.u for lv in levels if 0 < lv.M_N < lv.M]
        return np.array([math.log(float(np.mean(seeds)) if seeds else 0.5)])

    return loglik, grad, grad_hess, start


def fit_mle(assay: MultiDilutionAssay, alpha: float = 0.05) -> FitResult:
    """Maximum-likelihood fit of the per-million rates for one assay.

    With sequencing data the rates are the per-lineage tau; an assay
    without any (n = 0) reduces to the classic one-parameter dilution model
    for the total rate.  A regular assay of one level is fitted in per-well
    rates by :func:`iupm.poisson.one_level_mle`, a scalar root in the total
    rate (a closed form when n = 0 or when every positive well was
    sequenced), and divided by u; ``iterations`` then counts the root's
    outer steps and ``converged`` means that its bracket closed.  An assay
    of several levels is maximized over the log of the rates, which needs
    no bounds, by :func:`iupm.optimize.solve` on the analytic gradient and
    Hessian.  Either way, and for n = 0 too, the covariance is the inverse of
    :func:`fisher_information_multi` of a :class:`LevelPass` at the estimate,
    which the result keeps.  The two boundary outcomes short-circuit to 0
    and +inf with degenerate intervals.  Otherwise a lineage that no level
    detects has no finite MLE of its log-rate and raises AssayDataError, as
    :func:`iupm.assay.validate` does.
    """
    extreme = classify_extreme(assay)
    n = assay.n
    if extreme is ExtremeOutcome.ALL_NEGATIVE:
        return _fit_result(np.zeros(n), alpha, log_lik=0.0, extreme=extreme)
    if extreme is ExtremeOutcome.ALL_POSITIVE_SINGLE_DVL:
        return _fit_result(np.full(max(n, 1), math.inf), alpha, log_lik=math.nan, extreme=extreme)
    undetected = _never_detected(assay)
    if undetected:
        raise AssayDataError("; ".join(undetected))
    loglik, grad, grad_hess, start = _lineage_model(assay) if n else _total_model(assay.levels)
    if len(assay.levels) == 1:
        lv = assay.levels[0]
        lam, converged, iterations = poisson.one_level_mle(lv)
        tau = lam / lv.u
        log_lik = loglik(tau)
    else:
        res, iterations = solve(lambda x: loglik(np.exp(x)), grad_hess, start(), -math.inf, grad)
        tau, log_lik, converged = np.exp(res.x), res.f, res.converged
    passed = LevelPass(tau, level_params(assay))
    cov = covariance(fisher_information_multi(passed))
    return _fit_result(tau, alpha, cov, log_lik=log_lik, converged=converged, iterations=iterations,
                       level_pass=passed)


def _fit_result(tau, alpha, cov=None, *, log_lik, converged=True, iterations=0,
                extreme=ExtremeOutcome.REGULAR, free=None, level_pass=None) -> FitResult:
    """The one place a :class:`FitResult` is built, for every estimator.

    A boundary outcome (``extreme``) reports its total, 0 or +inf, as its SE
    and at both interval ends, with a zero or NaN covariance.  Otherwise
    ``cov`` is the covariance of the components ``free`` of ``tau`` (all of
    them by default); the others sit at zero, with zero rows and columns in
    the covariance, and are listed in ``active_lower``.  The SE of the total
    is the square root of the sum of ``cov``.  ``alpha`` is checked for
    every outcome, the boundary ones included.
    """
    _check_alpha(alpha)
    iupm = float(tau.sum())
    n = tau.size
    active_lower = ()
    if extreme is not ExtremeOutcome.REGULAR:
        cov, se, ci = np.full((n, n), 0.0 if iupm == 0.0 else math.nan), iupm, (iupm, iupm)
    else:
        se = math.sqrt(float(cov.sum()))
        ci = wald_ci(iupm, se, alpha)
        if free is not None:
            cov_free, cov = cov, np.zeros((n, n))
            cov[np.ix_(free, free)] = cov_free
            active_lower = tuple(int(i) for i in np.flatnonzero(~free))
    return FitResult(
        tau_hat=tau,
        iupm=iupm,
        covariance=cov,
        se_iupm=se,
        ci=ci,
        alpha=alpha,
        log_lik=log_lik,
        converged=converged,
        iterations=iterations,
        extreme=extreme,
        active_lower=active_lower,
        level_pass=level_pass,
    )
