"""Poisson observed-data log-likelihood of one or several dilution levels.

Rates are per-well means (``lambda``); all dilution scaling to per-million
rates happens in :mod:`iupm.inference`, keeping one source of truth for the
math here.  With per-lineage counts Y, negative wells M_N, and m sequenced
positive wells out of M, one level's log-likelihood is

    sum_i [ Y_i log(1 - e^{-lam_i}) - lam_i (M_N + m - Y_i) ]
        + (M - M_N - m) log(1 - e^{-Lam}),      Lam = sum_i lam_i,

up to an additive constant that does not involve the rates.  Conventions:
a zero rate with a zero count contributes exactly 0, and a zero rate with a
positive count sends the value to -inf (never an exception).

Each kernel takes the rates of the D levels of a
:class:`~iupm.assay.MultiDilutionAssay` as a (D, n) array, one row per
level, and sums the levels.  The constants (Y as floats, the
positive-count mask and counts, M_N + m - Y and the unsequenced counts)
live with the assay in its
:attr:`~iupm.assay.MultiDilutionAssay.terms`, built on the first evaluation
and reused by every later one, and every level is evaluated in one pass
over those arrays.  Each level's sums are formed as if it were evaluated
alone and are added in level order, so a level gives the same bits among
others as in an assay of its own; only the per-level scalars (the log of the
unsequenced term and its curvature) go through ``math`` one level at a
time.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from enum import Enum

import numpy as np

from .assay import DilutionLevelData, LevelTerms, MultiDilutionAssay
from .special import expm1_ratio, log1mexp, log1mexp_arr

__all__ = [
    "ExtremeOutcome",
    "log_likelihood",
    "gradient",
    "hessian_parts",
    "closed_form_no_udsa",
    "closed_form_full_udsa",
    "one_level_mle",
    "classify_extreme",
]


_NO_ERRSTATE = nullcontext()


class ExtremeOutcome(Enum):
    REGULAR = "regular"
    ALL_NEGATIVE = "all-negative"
    ALL_POSITIVE_SINGLE_DVL = "all-positive-single-dvl"


def _unpack(lam, assay: MultiDilutionAssay) -> tuple[np.ndarray, LevelTerms]:
    """(rates as a (D, n) array, the terms of ``assay``)."""
    lam = np.asarray(lam, dtype=float)
    terms = assay.terms
    if lam.shape != terms.y.shape:
        raise ValueError(f"rates of shape {lam.shape} do not fit {terms.y.shape[0]} level(s) of n={assay.n}")
    return lam, terms


def log_likelihood(lam, assay: MultiDilutionAssay) -> float:
    """The log-likelihood summed over the levels of ``assay`` at the (D, n) rates lam."""
    lam, c = _unpack(lam, assay)
    lam_pos = lam.ravel() if c.all_pos else lam[c.pos]
    dead = None
    # count_nonzero takes a fraction of the time of any() on arrays this short
    if np.count_nonzero(lam < 0.0) or np.count_nonzero(lam_pos) < lam_pos.size:
        # A level with a negative rate, or a zero rate at a positive count, is
        # -inf, and its own terms, which may warn, are never used.
        dead = ((lam < 0.0) | ((lam == 0.0) & c.pos)).any(axis=1).tolist()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore") if dead else _NO_ERRSTATE:
        logs = log1mexp_arr(lam_pos)
        lam_neg = np.vecdot(lam, c.neg).tolist()
        lam_totals = lam.sum(axis=1).tolist() if c.unseq_levels else None
    total = 0.0
    for d, (cut, unseq) in enumerate(zip(c.cuts, c.unseq.tolist())):
        if dead is not None and dead[d]:
            total += -math.inf
            continue
        level = -lam_neg[d]
        if cut.stop > cut.start:
            level += float(c.y_pos[cut] @ logs[cut])
        if unseq > 0:
            if lam_totals[d] <= 0.0:
                level = -math.inf
            else:
                level += unseq * log1mexp(lam_totals[d])
        total += level
    return total


def gradient(lam, assay: MultiDilutionAssay) -> np.ndarray:
    """d log-likelihood / d lambda as a (D, n) array; +inf components flag a zero rate with counts."""
    lam, c = _unpack(lam, assay)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lead = c.y / np.expm1(lam)
        if not c.all_pos:
            lead = np.where(c.pos, lead, 0.0)
        out = lead - c.neg
        if c.unseq_levels:
            common = c.unseq / np.expm1(lam.sum(axis=1))
            if len(c.unseq_levels) < len(common):
                # no entry of out is -0.0, so adding 0.0 to a level without the term changes nothing
                common = np.where(c.unseq != 0.0, common, 0.0)
            out = out + common[:, None]
    return out


def hessian_parts(lam, assay: MultiDilutionAssay):
    """(diag, common) with the Hessian diag(diag[d]) - common[d] * 11^T at each level d.

    diag is a (D, n) array and common a list of D floats, each None when its
    level has no unsequenced positive wells.
    """
    lam, c = _unpack(lam, assay)
    diag = np.where(c.pos, expm1_ratio(-c.y, lam, 2), 0.0)
    common = [None] * len(c.cuts)
    if c.unseq_levels:
        common = [
            expm1_ratio(unseq, lam_total, 2) if unseq != 0.0 else None
            for unseq, lam_total in zip(c.unseq.tolist(), lam.sum(axis=1).tolist())
        ]
    return diag, common


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

    They are formed as log1p(Y_i / (M - Y_i)), which keeps its precision
    where Y_i is close to M.  A component with Y_i = M is the divergent
    extreme and comes back +inf.
    """
    Y = np.atleast_1d(np.asarray(Y, dtype=float))
    if np.any(Y < 0) or np.any(Y > M):
        raise ValueError("need 0 <= Y_i <= M")
    with np.errstate(divide="ignore"):
        return np.log1p(Y / (M - Y))


ROOT_ULPS = 4  # the root in the total rate is bracketed to this many ulps
MAX_ROOT_STEPS = 100


def one_level_mle(level: DilutionLevelData) -> tuple[np.ndarray, bool, int]:
    """The MLE of one regular level in per-well rates, as (rates, converged, steps).

    Setting the score of lineage i to zero gives its rate in closed form for
    a given total rate Lam,

        lam_i(Lam) = log1p(Y_i / (b_i - C(Lam))),   b_i = M_N + m - Y_i,   C(Lam) = U / (e^Lam - 1),

    with U = M - M_N - m the unsequenced positive wells, so the fit is the
    root of h(Lam) = F(Lam) - Lam, F = sum_i lam_i, on (log1p(U / min_i b_i), inf),
    where the rate of the lineage with the least b_i diverges.  Each lam_i
    falls as Lam rises, so h' < -1: the root is unique and lies between any
    Lam and F(Lam), which brackets it at every step.  Since every lam_i lies
    between its C = 0 value log1p(Y_i / b_i) and the total, the root is at
    least max(sum_i log1p(Y_i / b_i), max_i log1p((U + Y_i) / b_i)), where
    the search starts.

    Each step is a Newton step on Lam / F(Lam) - 1, which has the same root.
    Near the divergence lam_i grows like 1 / (b_i - C), and there that
    function is close to linear in Lam where h is not: a Newton step on h
    from the left only about doubles the distance from the divergence.  A
    step below two ulps is lengthened to two ulps, and a step that leaves
    the bracket is replaced by bisection (Brent 1973, *Algorithms for
    Minimization without Derivatives*).  Once the bracket has closed to
    ``ROOT_ULPS`` ulps, the rates take one last Newton step on h to first
    order, lam_i + lam_i' h / (1 - F'), so that they sum to the point they
    belong to even where some lam_i changes far faster than Lam.
    ``converged`` says the bracket closed within ``MAX_ROOT_STEPS`` steps,
    and steps counts the evaluations of F.

    Without unsequenced positive wells (U = 0) the rates are
    :func:`closed_form_full_udsa`, and without lineages (n = 0) the one
    rate is the total :func:`closed_form_no_udsa`, with no root to find.
    """
    M, M_N, m = level.M, level.M_N, level.m
    if level.n == 0:
        return np.array([closed_form_no_udsa(M, M_N)]), True, 0
    U = M - M_N - m
    if U == 0:
        return closed_form_full_udsa(M, level.Y), True, 0
    Y = level.y_array()
    b = (M_N + m) - Y
    lo = max(float(np.log1p(Y / b).sum()), float(np.log1p((U + Y) / b).max()))
    hi = math.inf
    x = lo
    converged = False
    for step in range(1, MAX_ROOT_STEPS + 1):
        C = U / math.expm1(x)
        r = b - C
        lam = np.log1p(Y / r)
        falls = C * (1.0 + C / U) * (Y / (r * (r + Y)))  # -d lam_i / dLam
        total, fall = float(lam.sum()), float(falls.sum())
        if total > x:
            fresh = total < hi
            lo, hi = x, min(hi, total)
        elif total < x:
            fresh = total > lo
            lo, hi = max(lo, total), x
        if total == x or hi - lo <= ROOT_ULPS * math.ulp(hi):
            converged = True
            break
        dx = (total - x) * total / (total + x * fall)
        if abs(dx) < 2.0 * math.ulp(x):
            dx = math.copysign(2.0 * math.ulp(x), dx)
        # Every point evaluated so far is a bracket end or outside the bracket.
        # A step may also end on the end F(x) that it has just set, which is
        # the root where F is flat.
        x_new = x + dx
        x = x_new if lo < x_new < hi or fresh and x_new == total else 0.5 * (lo + hi)
    lam -= falls * ((total - x) / (1.0 + fall))
    return lam, converged, step


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
