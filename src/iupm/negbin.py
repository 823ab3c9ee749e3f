"""Overdispersed (negative-binomial) model and the boundary likelihood ratio test.

With dispersion gamma >= 0, a well is negative for lineage i with probability
(gamma*lam_i + 1)^(-1/gamma); gamma = 0 recovers the Poisson model.  Writing
eff_i = log(1 + gamma*lam_i)/gamma, that zero probability is exp(-eff_i), so
the overdispersed likelihood is exactly the Poisson one evaluated at the
effective rates.  The fit maximizes over log tau jointly with gamma under the
constraint gamma >= 0 on the analytic Hessian, which chains the Poisson
gradient and Hessian of all levels, evaluated in one pass, through
eff(lam, gamma); the parameters are only identifiable with data from at
least two dilution levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import poisson
from .assay import MultiDilutionAssay
from .inference import FitResult, fit_mle
from .optimize import solve
from .special import chi2_1_upper_tail

__all__ = [
    "NBFit",
    "LrtResult",
    "IdentifiabilityError",
    "fit_negbin",
    "lrt_from_loglik",
    "lrt_overdispersion",
]

# Log-likelihood differences below this are numerically zero for the LRT.
STATISTIC_FLOOR = 1e-7


class IdentifiabilityError(ValueError):
    """The requested model is not identifiable from the given assay data."""


@dataclass
class NBFit:
    tau_hat: np.ndarray
    gamma_hat: float
    iupm: float
    log_lik: float
    converged: bool


@dataclass
class LrtResult:
    statistic: float
    p_value: float


# The helpers below set no error state, though gamma * lam can overflow and
# the ratios then meet inf / inf.  They and the Poisson kernels take the rates
# of every level at once, as one (D, n) array, so the Hessian callback of
# fit_negbin and the solve step around its objective each set
# np.errstate(over="ignore", invalid="ignore") once around one pass over all
# the levels.


def _effective_rate(lam, gamma: float):
    """eff with exp(-eff) = (gamma*lam + 1)^(-1/gamma); equals lam at gamma = 0."""
    if gamma == 0.0:
        return lam
    lam = np.asarray(lam, dtype=float)
    x = gamma * lam
    eff = np.log1p(x) / gamma
    # below ~1e-300 the product underflows; use the exact gamma -> 0 limit
    return np.where(x < 1e-300, lam, eff)


# Below this gamma*lam the closed forms of d eff/d gamma and d^2 eff/d gamma^2
# cancel badly; their Taylor series in x = gamma*lam are used instead.  With
# _SERIES_POWERS terms the first omitted one is below 3e-17 of the sum.
_SERIES_EDGE = 0.1
_SERIES_POWERS = np.arange(18)
# d eff/d gamma = lam^2 sum_j (-1)^(j+1) (j+1)/(j+2) x^j
_SERIES_D1 = (-1.0) ** (_SERIES_POWERS + 1) * (_SERIES_POWERS + 1) / (_SERIES_POWERS + 2)
# d^2 eff/d gamma^2 = lam^3 sum_j (-1)^j (j+1)(j+2)/(j+3) x^j
_SERIES_D2 = (
    (-1.0) ** _SERIES_POWERS * (_SERIES_POWERS + 1) * (_SERIES_POWERS + 2) / (_SERIES_POWERS + 3)
)


def _gamma_derivatives(lam, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """(d eff / d gamma, d^2 eff / d gamma^2); -lam^2/2 and 2 lam^3/3 at gamma = 0.

    With x = gamma*lam they are (x/(1+x) - log1p x)/gamma^2 and
    (2 log1p x - 2x/(1+x) - x^2/(1+x)^2)/gamma^3, and their series below
    ``_SERIES_EDGE``.  Each power of gamma divides separately, so nothing
    overflows for gamma*lam up to the float limit.
    """
    lam = np.asarray(lam, dtype=float)
    if gamma == 0.0:
        lam2 = lam * lam
        return -0.5 * lam2, (2.0 / 3.0) * lam2 * lam
    x = gamma * lam
    small = x < _SERIES_EDGE
    n_small = np.count_nonzero(small)
    if n_small:
        # the large entries are zeroed so that their powers cannot overflow
        xs, ls = (x, lam) if n_small == x.size else (np.where(small, x, 0.0), np.where(small, lam, 0.0))
        powers = np.power.outer(xs, _SERIES_POWERS)
        lam2 = ls * ls
        series1, series2 = lam2 * (powers @ _SERIES_D1), lam2 * ls * (powers @ _SERIES_D2)
        if n_small == x.size:
            return series1, series2
    x = np.where(small, 1.0, x)  # keeps the closed forms away from 0 / 0
    y = x / (1.0 + x)
    log1p = np.log1p(x)
    d1 = (y - log1p) / gamma / gamma
    d2 = (2.0 * log1p - 2.0 * y - y * y) / gamma / gamma / gamma
    if n_small:
        return np.where(small, series1, d1), np.where(small, series2, d2)
    return d1, d2


def _nb_log_likelihood(tau, gamma: float, assay: MultiDilutionAssay) -> float:
    if gamma < 0:
        return -math.inf
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    return poisson.log_likelihood(_effective_rate(assay.terms.u * tau, gamma), assay)


def _nb_grad_hess(x, assay: MultiDilutionAssay) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the log-likelihood in x = (log tau, gamma).

    Chains the Poisson gradient p and Hessian diag(h) - c 11^T at the
    effective rates through eff(lam, gamma), lam = u tau, at every level.
    With a = d eff / d theta = lam / (1 + gamma lam) and b, b2 the gamma
    derivatives of eff, da/dtheta = a - gamma a^2 and da/dgamma = -a^2, so

        H_theta,theta = diag(h a^2 + p (a - gamma a^2)) - c a a^T
        H_theta,gamma = a (h b - c sum b) - p a^2
        H_gamma,gamma = h . b^2 - c (sum b)^2 + p . b2

    summed over the levels, whose (D, n) arrays are formed in one pass.  The
    sums run in level order; in column n and at (n, n) each level adds its
    own terms and then takes off its c terms, so a short loop over the
    levels adds those precomputed rows and scalars in turn.
    """
    n = x.size - 1
    tau, gamma = np.exp(x[:n]), float(x[n])
    lam = assay.terms.u * tau
    a = lam / (1.0 + gamma * lam)
    a2 = a * a
    b, b2 = _gamma_derivatives(lam, gamma)
    eff = _effective_rate(lam, gamma)
    p = poisson.gradient(eff, assay)
    h, common = poisson.hessian_parts(eff, assay)
    g = np.empty(n + 1)
    g[:n] = (p * a).sum(axis=0)
    pb = np.vecdot(p, b).tolist()
    column = a * (h * b) - p * a2
    corner = (np.vecdot(h, b * b) + np.vecdot(p, b2)).tolist()
    sb = b.sum(axis=1).tolist()
    with_c = [d for d, c in enumerate(common) if c is not None]
    a_c = a[with_c]
    H = np.empty((n + 1, n + 1))
    # 0.0 - (a_1 + a_2 + ...) is 0.0 - a_1 - a_2 - ... to the bit
    cs = np.array([common[d] for d in with_c])
    H[:n, :n] = 0.0 - (cs[:, None, None] * (a_c[:, :, None] * a_c[:, None, :])).sum(axis=0)
    c_rows = iter(np.array([common[d] * sb[d] for d in with_c])[:, None] * a_c)
    g[n], H[:n, n], H[n, n] = 0.0, 0.0, 0.0
    for d, c in enumerate(common):
        g[n] += pb[d]
        H[:n, n] += column[d]
        H[n, n] += corner[d]
        if c is not None:
            H[:n, n] -= next(c_rows)
            H[n, n] -= c * sb[d] * sb[d]
    H[np.diag_indices(n)] += (h * a2 + p * (a - gamma * a2)).sum(axis=0)
    H[n, :n] = H[:n, n]
    return g, H


def fit_negbin(assay: MultiDilutionAssay, *, pois: FitResult | None = None) -> NBFit:
    """Joint MLE of (tau, gamma) with gamma constrained to [0, inf).

    :func:`iupm.optimize.solve` on the analytic gradient and Hessian in
    (log tau, gamma), without a separate gradient callback, started from the
    Poisson fit with gamma = 0.1.  ``converged`` is set when the projected
    gradient meets the solver tolerance within its iteration cap.  ``pois``
    is the Poisson fit of ``assay`` when the caller already holds it; it is
    reused for the start, the boundary check and the gamma = 0 fallback
    instead of being refitted.
    """
    if assay.D < 2:
        raise IdentifiabilityError(
            "dispersion is not identifiable from a single dilution level; "
            "provide data from at least two"
        )
    if assay.n == 0:
        raise IdentifiabilityError("the overdispersed fit needs sequencing data (n >= 1)")
    if pois is None:
        pois = fit_mle(assay)
    if pois.extreme is not poisson.ExtremeOutcome.REGULAR:
        raise IdentifiabilityError(f"cannot fit an overdispersed model to an {pois.extreme.value} assay")
    theta0 = np.log(np.maximum(pois.tau_hat, 1e-8))
    n = theta0.size

    def grad_hess(x):
        with np.errstate(over="ignore", invalid="ignore"):
            return _nb_grad_hess(x, assay)

    res, _ = solve(
        lambda x: _nb_log_likelihood(np.exp(x[:n]), float(x[n]), assay),
        grad_hess,
        np.concatenate([theta0, [0.1]]),
        np.concatenate([np.full(n, -math.inf), [0.0]]),
    )
    if 2.0 * (res.f - pois.log_lik) < STATISTIC_FLOOR:
        # No real gain over the gamma = 0 boundary, where the joint maximum
        # is exactly the Poisson fit.
        return NBFit(
            tau_hat=pois.tau_hat.copy(),
            gamma_hat=0.0,
            iupm=pois.iupm,
            log_lik=pois.log_lik,
            converged=pois.converged,
        )
    tau_hat = np.exp(res.x[:n])
    return NBFit(
        tau_hat=tau_hat,
        gamma_hat=float(res.x[n]),
        iupm=float(tau_hat.sum()),
        log_lik=res.f,
        converged=res.converged,
    )


def lrt_from_loglik(log_lik_poisson: float, log_lik_negbin: float) -> LrtResult:
    """Boundary LRT for overdispersion from the two maximized log-likelihoods.

    The null puts gamma on the boundary, so the statistic is referred to a
    50/50 mixture of a point mass at zero and chi-squared with one degree of
    freedom.  Differences below the numerical floor count as exactly zero.
    """
    statistic = 2.0 * (log_lik_negbin - log_lik_poisson)
    if statistic < STATISTIC_FLOOR:
        return LrtResult(statistic=0.0, p_value=1.0)
    return LrtResult(statistic=statistic, p_value=0.5 * chi2_1_upper_tail(statistic))


def lrt_overdispersion(assay: MultiDilutionAssay) -> LrtResult:
    """Boundary LRT for overdispersion on one assay.

    The Poisson fit is the null fit and also the start of the negative-binomial
    fit, which reuses it.
    """
    pois = fit_mle(assay)
    nb = fit_negbin(assay, pois=pois)
    return lrt_from_loglik(pois.log_lik, nb.log_lik)
