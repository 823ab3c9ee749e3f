"""Small-sample bias correction of the rate MLE.

The first-order bias of the MLE is Sigma A(tau) vec(Sigma), where A is built
from the derivative of the expected information and the expected third
derivatives of the log-likelihood (Cox & Snell 1968).  Subtracting it reduces
the bias order from O(1/M) to O(1/M^2) while leaving the asymptotic
covariance unchanged.  Both ingredients are closed forms: a level's
information depends on its rates through t_i = e^{lam_i} - 1 and through
binomial sums over the total rate, whose derivatives come from the same pass
over the well counts as the sums themselves.

Sign convention: each block is assembled as

    A_k = -dI/dtau_k - (1/2) E[d^3 l / dtau dtau' dtau_k].

On the one-parameter no-sequencing model this yields the correction
(e^T - 1) / (2M), which matches both the Taylor expansion of log(M/M_N) and
simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .assay import MultiDilutionAssay
from .inference import FitResult, _information_derivative, fit_mle, level_params, wald_ci
from .poisson import ExtremeOutcome
from .special import expm1_ratio

__all__ = [
    "BiasComponents",
    "a_matrices",
    "bias_term",
    "bias_correct",
    "fit_bc_mle",
]


@dataclass
class BiasComponents:
    """Pieces of the correction: per-coordinate A blocks and their inputs."""

    a_blocks: list[np.ndarray]
    dI_dtau: list[np.ndarray]
    third_diag: np.ndarray   # E[d^3 l / dtau_i^3]
    third_common: float      # any mixed third-derivative expectation


def _level_terms(lam, M: int, q: float):
    """Expected third derivatives and the information derivative at one level.

    Returns (third_diag, third_common, d_common, d_diag, d_self), all from
    one pass over the well counts; the last three are those of
    :func:`iupm.inference._information_derivative`.  Every mixed third
    derivative shares the value third_common; it vanishes when every positive
    well is sequenced (q = 1), the same cancellation as the off-diagonal of
    the information matrix.
    """
    d_common, d_diag, d_self, Em, F = _information_derivative(lam, M, q)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    Lam = float(lam.sum())
    third_common = expm1_ratio(M - M * math.exp(-Lam) - Em, Lam, 3)
    third_diag = expm1_ratio(-np.expm1(-lam) * F, lam, 3) + third_common
    return third_diag, float(third_common), d_common, d_diag, d_self


def a_matrices(tau, levels) -> BiasComponents:
    """Assemble the A blocks for per-million rates over (u, M, q) levels.

    A single dilution level at u = 1 reproduces the per-well construction.
    Both dI/dtau and the third-derivative expectations are closed forms, each
    level scaled by u^3 from its per-well rates u * tau.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    n = tau.size
    totals = [np.zeros(n), 0.0, 0.0, np.zeros(n), np.zeros(n)]
    for u, M, q in levels:
        terms = _level_terms(u * tau, M, q)
        totals = [total + u**3 * term for total, term in zip(totals, terms)]
    third_diag, third_common, d_common, d_diag, d_self = totals
    dI_shared = np.full((n, n), d_common) + np.diag(d_diag)
    dI = []
    blocks = []
    for k in range(n):
        dI_k = dI_shared.copy()
        dI_k[k, k] -= d_self[k]
        third_block = np.full((n, n), third_common)
        third_block[k, k] = third_diag[k]
        dI.append(dI_k)
        blocks.append(-dI_k - 0.5 * third_block)
    return BiasComponents(
        a_blocks=blocks, dI_dtau=dI, third_diag=third_diag, third_common=third_common
    )


def bias_term(tau_hat, cov: np.ndarray, components: BiasComponents) -> np.ndarray:
    """First-order bias Sigma A vec(Sigma), evaluated blockwise."""
    tau_hat = np.atleast_1d(np.asarray(tau_hat, dtype=float))
    n = tau_hat.size
    inner = np.zeros(n)
    for k in range(n):
        inner += components.a_blocks[k] @ cov[:, k]
    return cov @ inner


def bias_correct(fit: FitResult, assay: MultiDilutionAssay) -> FitResult:
    """The Poisson fit of ``assay`` minus its estimated first-order bias.

    Boundary and unconverged fits come back unchanged.  Components pushed
    below zero by the correction are clamped to zero (rates are non-negative)
    and counted in ``clamped``.  The covariance consistently estimates the
    corrected estimator's variance too, so the interval is the same Wald
    construction at ``fit.alpha``, recentered on the corrected total.
    """
    if fit.extreme is not ExtremeOutcome.REGULAR or not fit.converged:
        return fit
    comps = a_matrices(fit.tau_hat, level_params(assay))
    b = bias_term(fit.tau_hat, fit.covariance, comps)
    corrected = fit.tau_hat - b
    clamped = int(np.sum(corrected < 0.0))
    corrected = np.maximum(corrected, 0.0)
    iupm = float(corrected.sum())
    return replace(
        fit,
        tau_hat=corrected,
        iupm=iupm,
        ci=wald_ci(iupm, fit.se_iupm, fit.alpha),
        bias=b,
        clamped=clamped,
    )


def fit_bc_mle(assay: MultiDilutionAssay, alpha: float = 0.05) -> FitResult:
    """Bias-corrected MLE: :func:`bias_correct` applied to a new :func:`fit_mle`.

    A caller that already holds the Poisson fit of ``assay`` should pass it to
    :func:`bias_correct` instead, which reuses it.
    """
    return bias_correct(fit_mle(assay, alpha), assay)
