"""Overdispersed (negative-binomial) model and the boundary likelihood ratio test.

With dispersion gamma >= 0, a well is negative for lineage i with probability
(gamma*lam_i + 1)^(-1/gamma); gamma = 0 recovers the Poisson model.  Writing
eff_i = log(1 + gamma*lam_i)/gamma, that zero probability is exp(-eff_i), so
the overdispersed likelihood is exactly the Poisson one evaluated at the
effective rates.  The fit maximizes over log tau jointly with gamma under the
constraint gamma >= 0; the parameters are only identifiable with data from at
least two dilution levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import poisson
from .assay import MultiDilutionAssay
from .inference import FitResult, fit_mle
from .optimize import OptOptions, fd_newton_polish, maximize_box
from .special import chi2_1_upper_tail

__all__ = [
    "NBFit",
    "LrtResult",
    "IdentifiabilityError",
    "nb_zero_prob",
    "nb_log_likelihood",
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


def nb_zero_prob(lam, gamma: float):
    """P(count = 0) under mean lam and dispersion gamma; e^{-lam} at gamma = 0."""
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    lam = np.asarray(lam, dtype=float)
    out = np.exp(-_effective_rate(lam, gamma))
    return float(out) if out.ndim == 0 else out


def _effective_rate(lam, gamma: float):
    """eff with exp(-eff) = (gamma*lam + 1)^(-1/gamma); equals lam at gamma = 0."""
    if gamma == 0.0:
        return lam
    lam = np.asarray(lam, dtype=float)
    x = gamma * lam
    with np.errstate(over="ignore", invalid="ignore"):
        eff = np.log1p(x) / gamma
    # below ~1e-300 the product underflows; use the exact gamma -> 0 limit
    return np.where(x < 1e-300, lam, eff)


def _deff_dlam(lam, gamma: float):
    return 1.0 / (1.0 + gamma * lam)


def _deff_dgamma(lam, gamma: float):
    """d eff / d gamma, with a series fallback where the direct form cancels."""
    lam = np.asarray(lam, dtype=float)
    if gamma == 0.0:
        return -0.5 * lam * lam
    x = gamma * lam
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.where(
            x < 1e-5,
            -0.5 * lam * lam + (2.0 / 3.0) * gamma * lam**3,
            (x / (1.0 + x) - np.log1p(x)) / (gamma * gamma),
        )
    return out


def nb_log_likelihood(tau, gamma: float, assay: MultiDilutionAssay) -> float:
    """Joint log-likelihood over all dilution levels, same additive constant
    convention as the Poisson form (the two agree exactly at gamma = 0)."""
    if gamma < 0:
        return -math.inf
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for lv in assay.levels:
            total += poisson.log_likelihood(_effective_rate(lv.u * tau, gamma), lv)
    return total


def _nb_gradient(tau, gamma: float, assay: MultiDilutionAssay) -> tuple[np.ndarray, float]:
    """(d l / d tau, d l / d gamma) by the chain rule through the effective rates."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    g_tau = np.zeros(tau.size)
    g_gamma = 0.0
    for lv in assay.levels:
        lam = lv.u * tau
        eff = _effective_rate(lam, gamma)
        pg = poisson.gradient(eff, lv)
        g_tau += lv.u * pg * _deff_dlam(lam, gamma)
        g_gamma += float(pg @ _deff_dgamma(lam, gamma))
    return g_tau, g_gamma


def fit_negbin(
    assay: MultiDilutionAssay, opts: OptOptions | None = None, *, pois: FitResult | None = None
) -> NBFit:
    """Joint MLE of (tau, gamma) with gamma constrained to [0, inf).

    Starts from the Poisson fit with gamma = 0.1; if that run stalls on the
    gamma boundary without meeting the tolerance it is retried from gamma = 1
    and the better of the two is kept.  ``pois`` is the Poisson fit of
    ``assay`` when the caller already holds it; it is reused for the start,
    the boundary check and the gamma = 0 fallback instead of being refitted.
    """
    if assay.D < 2:
        raise IdentifiabilityError(
            "dispersion is not identifiable from a single dilution level; "
            "provide data from at least two"
        )
    if assay.n == 0:
        raise IdentifiabilityError("the overdispersed fit needs sequencing data (n >= 1)")
    if pois is None:
        pois = fit_mle(assay, opts)
    if pois.extreme is not poisson.ExtremeOutcome.REGULAR:
        raise IdentifiabilityError(f"cannot fit an overdispersed model to a {pois.extreme.value} assay")
    theta0 = np.log(np.maximum(pois.tau_hat, 1e-8))
    n = theta0.size

    def objective(x):
        with np.errstate(over="ignore", invalid="ignore"):
            return nb_log_likelihood(np.exp(x[:n]), float(x[n]), assay)

    def grad(x):
        with np.errstate(over="ignore", invalid="ignore"):
            tau = np.exp(x[:n])
            g_tau, g_gamma = _nb_gradient(tau, float(x[n]), assay)
            return np.concatenate([tau * g_tau, [g_gamma]])

    lower = np.concatenate([np.full(n, -math.inf), [0.0]])
    tol = (opts or OptOptions()).grad_tol

    def run(gamma0):
        res = maximize_box(objective, grad, np.concatenate([theta0, [gamma0]]), lower, opts)
        x, polished = fd_newton_polish(grad, res.x, lower, tol)
        f_polished = objective(x)
        if f_polished >= res.f - 1e-9 * (abs(res.f) + 1.0):
            res.x, res.f = x, f_polished
            res.converged = res.converged or polished
        return res

    res = run(0.1)
    if not res.converged and n in res.active_lower:
        retry = run(1.0)
        if retry.f > res.f:
            res = retry
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


def lrt_overdispersion(assay: MultiDilutionAssay, opts: OptOptions | None = None) -> LrtResult:
    """Boundary LRT for overdispersion on one assay.

    The Poisson fit is the null fit and also the start of the negative-binomial
    fit, which reuses it.
    """
    pois = fit_mle(assay, opts)
    nb = fit_negbin(assay, opts, pois=pois)
    return lrt_from_loglik(pois.log_lik, nb.log_lik)
