"""Poisson observed-data log-likelihood for one dilution level.

Rates are per-well means (``lambda``); all dilution scaling to per-million
rates happens in :mod:`iupm.inference`, keeping one source of truth for the
math here.  With per-lineage counts Y, negative wells M_N, and m sequenced
positive wells out of M, the log-likelihood is

    sum_i [ Y_i log(1 - e^{-lam_i}) - lam_i (M_N + m - Y_i) ]
        + (M - M_N - m) log(1 - e^{-Lam}),      Lam = sum_i lam_i,

up to an additive constant that does not involve the rates.  Conventions:
a zero rate with a zero count contributes exactly 0, and a zero rate with a
positive count sends the value to -inf (never an exception).

The per-level constants (Y as floats, the positive-count mask and counts,
M_N + m - Y and the unsequenced count) live in
:attr:`DilutionLevelData.terms <iupm.assay.DilutionLevelData.terms>`, built
on a level's first evaluation and reused by every later one.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .assay import DilutionLevelData, MultiDilutionAssay
from .special import expm1_ratio, log1mexp, log1mexp_arr

__all__ = [
    "ExtremeOutcome",
    "log_likelihood",
    "gradient",
    "hessian",
    "hessian_parts",
    "closed_form_no_udsa",
    "closed_form_full_udsa",
    "classify_extreme",
]


class ExtremeOutcome(Enum):
    REGULAR = "regular"
    ALL_NEGATIVE = "all-negative"
    ALL_POSITIVE_SINGLE_DVL = "all-positive-single-dvl"


def _unpack(lam, level: DilutionLevelData):
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    terms = level.terms
    if lam.shape != terms.y.shape:
        raise ValueError(f"rate vector has length {lam.size}, level has n={level.n}")
    return lam, terms


def log_likelihood(lam, level: DilutionLevelData) -> float:
    lam, c = _unpack(lam, level)
    # count_nonzero takes a fraction of the time of any() on arrays this short
    if np.count_nonzero(lam < 0.0):
        return -math.inf
    lam_pos = lam if c.all_pos else lam[c.pos]
    if np.count_nonzero(lam_pos) < lam_pos.size:
        return -math.inf
    total = -float(lam @ c.neg)
    if lam_pos.size:
        total += float(c.y_pos @ log1mexp_arr(lam_pos))
    if c.unseq > 0:
        lam_total = float(lam.sum())
        if lam_total <= 0.0:
            return -math.inf
        total += c.unseq * log1mexp(lam_total)
    return total


def gradient(lam, level: DilutionLevelData) -> np.ndarray:
    """d log-likelihood / d lambda_i; +inf components flag a zero rate with counts."""
    lam, c = _unpack(lam, level)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lead = c.y / np.expm1(lam)
        if not c.all_pos:
            lead = np.where(c.pos, lead, 0.0)
        out = lead - c.neg
        if c.unseq != 0:
            out = out + c.unseq / np.expm1(float(lam.sum()))
    return out


def hessian(lam, level: DilutionLevelData) -> np.ndarray:
    """Second derivatives: diagonal per-lineage terms plus a shared rank-one term."""
    diag, common = hessian_parts(lam, level)
    H = np.diag(diag)
    if common is not None:
        H = H - common
    return H


def hessian_parts(lam, level: DilutionLevelData) -> tuple[np.ndarray, float | None]:
    """(diag, common) with :func:`hessian` = diag(diag) - common * 11^T.

    ``common`` is None when the level has no unsequenced positive wells.
    """
    lam, c = _unpack(lam, level)
    diag = np.where(c.pos, expm1_ratio(-c.y, lam, 2), 0.0)
    if c.unseq == 0:
        return diag, None
    return diag, expm1_ratio(c.unseq, float(lam.sum()), 2)


def closed_form_no_udsa(M: int, M_N: int) -> float:
    """MLE of the total rate when no wells were sequenced: log(M / M_N).

    M_N = 0 signals the divergent all-positive extreme and returns +inf.
    """
    if not 0 <= M_N <= M or M < 1:
        raise ValueError(f"need 0 <= M_N <= M with M >= 1, got M={M}, M_N={M_N}")
    if M_N == 0:
        return math.inf
    return math.log(M / M_N)


def closed_form_full_udsa(M: int, Y) -> np.ndarray:
    """Per-lineage MLEs when every positive well was sequenced: -log(1 - Y_i/M).

    A component with Y_i = M is the divergent extreme and comes back +inf.
    """
    Y = np.atleast_1d(np.asarray(Y, dtype=float))
    if np.any(Y < 0) or np.any(Y > M):
        raise ValueError("need 0 <= Y_i <= M")
    with np.errstate(divide="ignore"):
        return -np.log1p(-Y / M)


def classify_extreme(assay: MultiDilutionAssay) -> ExtremeOutcome:
    """Detect the two outcomes where the MLE sits on the boundary.

    All wells negative at every level gives a total-rate MLE of zero.  All
    wells positive at every level with one lineage carried by every sequenced
    well lets that lineage's rate grow without bound (MLE +inf).
    """
    levels = assay.levels
    if all(lv.M_N == lv.M for lv in levels):
        return ExtremeOutcome.ALL_NEGATIVE
    if all(lv.M_N == 0 for lv in levels):
        if assay.n == 0:
            return ExtremeOutcome.ALL_POSITIVE_SINGLE_DVL
        Y = np.array([lv.Y for lv in levels])       # (D, n)
        m = np.array([lv.m for lv in levels])       # (D,)
        if np.any(np.all(Y == m[:, None], axis=0)):
            return ExtremeOutcome.ALL_POSITIVE_SINGLE_DVL
    return ExtremeOutcome.REGULAR
