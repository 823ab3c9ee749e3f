"""Small-sample bias correction of the rate MLE.

The first-order bias of the MLE is Sigma A(tau) vec(Sigma), where A is built
from the derivative of the expected information and the expected third
derivatives of the log-likelihood (Cox & Snell 1968).  Subtracting it reduces
the bias order from O(1/M) to O(1/M^2) while leaving the asymptotic
covariance unchanged.  Both ingredients are closed forms: a level's
information depends on its rates through t_i = e^{lam_i} - 1 and through
binomial sums over the total rate, whose derivatives come from the same pass
over the well counts as the sums themselves (a fit's one
:class:`iupm.inference.LevelPass`).  :func:`a_matrices` is the one place that
derivative is formed, as :func:`iupm.inference.fisher_information_multi` is
for the information.

Sign convention: A_k = -dI/dtau_k - (1/2) E[d^3 l / dtau dtau' dtau_k].
On the one-parameter no-sequencing model this yields the correction
(e^T - 1) / (2M), which matches both the Taylor expansion of log(M/M_N) and
simulation.

Every Poisson ingredient is a constant plus a diagonal plus one (k, k) entry,
so each block has the form

    A_k = -a 11' - diag(d_diag) + beta_k e_k e_k'

with a = d_common + third_common / 2 and
beta = d_self - (third_diag - third_common) / 2, and the contraction
inner = sum_k A_k Sigma e_k needs no block:

    inner = -a (1' Sigma 1) 1 - d_diag o (Sigma 1) + beta o diag(Sigma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .inference import FitResult, LevelPass, SingularInformationError, wald_ci
from .poisson import ExtremeOutcome
from .special import expm1_ratio

__all__ = [
    "BiasComponents",
    "a_matrices",
    "bias_term",
    "bias_correct",
]


@dataclass
class BiasComponents:
    """The level sums, each scaled by (u / s)^3, that make up every A block.

    They are those of dI/dtau and E[d^3 l] divided by s^3, where s = ``scale``
    is the power of two with s <= u < 2s for the largest dilution u: a level's
    terms are of its per-well rates, and u^3 alone leaves the normal floats
    past u = 5.6e102 and below u = 2.8e-103.

    A level's information c + delta_ij F / t_i (t_i = e^{lam_i} - 1) depends on
    the rates through t_i and through Lam = sum_i lam_i (c, and F of
    :func:`iupm.inference._binomial_sums`), so dI_ij / dlam_k = d_common +
    delta_ij d_diag_i - delta_ij delta_ik d_self_i.  The mixed third
    derivatives share one value, which vanishes when q = 1.
    """

    d_common: float          # the constant of every dI/dtau_k
    d_diag: np.ndarray       # the diagonal of every dI/dtau_k
    d_self: np.ndarray       # subtracted from entry (k, k) of dI/dtau_k
    third_common: float      # any mixed third-derivative expectation
    third_diag: np.ndarray   # E[d^3 l / dtau_i^3]
    scale: float             # s, a power of two


def a_matrices(passed: LevelPass) -> BiasComponents:
    """The A-block ingredients for per-million rates from their :class:`LevelPass`.

    Closed forms from the binomial sums of the information, with the levels'
    per-well rates u * tau as one (D, n) array, each level scaled by (u / s)^3
    and added in order.  No block is built: :func:`bias_term` contracts the sums.
    Sums past the float range raise SingularInformationError.
    """
    lam, s = passed.lam, math.ldexp(1.0, math.frexp(passed.u.max())[1] - 1)
    scalars = np.empty((lam.shape[0], 4))  # per level: d_common, third_common, F, dF
    for d, ((_, M, _), Lam, (Em, F, dEm, dF)) in enumerate(zip(passed.levels, passed.Lam, passed.sums)):
        third_common = expm1_ratio(M * -math.expm1(-Lam) - Em, Lam, 3)
        d_common = expm1_ratio(M * math.exp(-Lam) - dEm, Lam, 2) - third_common
        scalars[d] = d_common, third_common, F, dF
    d_common, third_common, F, dF = scalars.T[:, :, None]  # (D, 1) columns
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf at a vanishing level is NaN
        terms = np.concatenate((d_common, third_common, expm1_ratio(dF, lam, 1), expm1_ratio(F, lam, 2),
                                expm1_ratio(-np.expm1(-lam) * F, lam, 3) + third_common), axis=1)
        # (u / s)^3 as a scalar power each: an array power may round differently
        weight = np.array([x ** 3 for x in passed.u / s])[:, None]
        sums = (weight * terms).sum(axis=0)
    if not np.isfinite(sums).all():
        raise SingularInformationError("the derivative of the information matrix leaves the float range")
    d_diag, d_self, third_diag = sums[2:].reshape(3, -1)
    return BiasComponents(sums[0], d_diag, d_self, sums[1], third_diag, s)


def bias_term(cov: np.ndarray, comps: BiasComponents) -> np.ndarray:
    """First-order bias Sigma A vec(Sigma) for the covariance ``cov``.

    Returns the vector cov @ inner, with inner in the closed form of the
    module docstring: O(n^2) work and no per-lineage block.  The sums are
    over s^3 (s = ``comps.scale``), so it contracts them with s^2 cov, of
    the size of a per-well covariance, and divides the result by s; each
    factor is a power of two, exact unless it leaves the normal floats.
    """
    s = comps.scale
    cov = cov * s * s
    a = comps.d_common + 0.5 * comps.third_common
    beta = comps.d_self - 0.5 * (comps.third_diag - comps.third_common)
    inner = -a * cov.sum() - comps.d_diag * cov.sum(axis=1) + beta * np.diag(cov)
    return cov @ inner / s


def bias_correct(fit: FitResult) -> FitResult:
    """A :func:`iupm.inference.fit_mle` fit minus its estimated first-order bias.

    The bias comes from the sums kept in ``fit.level_pass``, at no new pass.
    Boundary and unconverged fits come back unchanged; any other fit without
    them (imperfect, or already corrected) raises ValueError.  Components pushed
    below zero by the correction are clamped to zero (rates are non-negative)
    and counted in ``clamped``.  The covariance consistently estimates the
    corrected estimator's variance too, so the interval is the same Wald
    construction at ``fit.alpha``, recentered on the corrected total.
    """
    if fit.extreme is not ExtremeOutcome.REGULAR or not fit.converged:
        return fit
    if fit.level_pass is None:
        raise ValueError("bias_correct takes a Poisson fit of fit_mle, and this fit has no binomial sums")
    b = bias_term(fit.covariance, a_matrices(fit.level_pass))
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
        level_pass=None,
    )
