"""Shared numeric kernels: rounding rule, tail probabilities, stable logs.

Everything here is stateless and thread-safe.
"""

from __future__ import annotations

import math
import sys
from statistics import NormalDist

import numpy as np

__all__ = [
    "nint",
    "log1mexp",
    "log1mexp_arr",
    "log_binom",
    "expm1_ratio",
    "chi2_1_upper_tail",
    "normal_quantile",
]

_LOG2 = math.log(2.0)
_LOG_MAX = math.log(sys.float_info.max)
_STD_NORMAL = NormalDist()


def nint(x: float) -> int:
    """Nearest integer; exact .5 fractions round half to even.

    This single function fixes the tie rule used everywhere a count is
    derived from a fraction (e.g. the number of sequenced wells).
    """
    if not math.isfinite(x):
        raise ValueError(f"nint requires a finite argument, got {x!r}")
    return round(float(x))


def log1mexp(x: float) -> float:
    """log(1 - exp(-x)) for x >= 0, computed without cancellation.

    Returns -inf at x = 0.
    """
    if x < 0:
        raise ValueError("log1mexp requires x >= 0")
    if x == 0.0:
        return -math.inf
    if x < _LOG2:
        return math.log(-math.expm1(-x))
    return math.log1p(-math.exp(-x))


def log1mexp_arr(x) -> np.ndarray:
    """Vectorized ``log1mexp``; entries of x must be >= 0."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < _LOG2
    with np.errstate(divide="ignore"):
        out[small] = np.log(-np.expm1(-x[small]))
        big = ~small
        out[big] = np.log1p(-np.exp(-x[big]))
    return out


def expm1_ratio(c, x, k: int):
    """c times the k-th of 1/t, (t + 1)/t^2 and (t + 1)(t + 2)/t^3, with t = e^x - 1.

    These are the magnitudes of 1/t and of its first two x-derivatives.  While
    t^k is a float the value is computed as written (math for a scalar x, numpy
    for an array); past that every one of them equals c e^{-x} to double
    precision, which is returned instead, so no term overflows.
    """
    if np.ndim(x) == 0:
        x = float(x)
        if x > _LOG_MAX / k:
            return c * math.exp(-x)
        return _expm1_ratio(c, math.expm1(x), k)
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        direct = _expm1_ratio(c, np.expm1(x), k)
    return np.where(x > _LOG_MAX / k, c * np.exp(-x), direct)


def _expm1_ratio(c, t, k: int):
    if k == 1:
        return c / t
    if k == 2:
        return c * (t + 1.0) / (t * t)
    return c * (t + 1.0) * (t + 2.0) / t**3


def log_binom(M: int, k: int) -> float:
    """log of the binomial coefficient C(M, k) via log-gamma."""
    if k < 0 or k > M:
        raise ValueError(f"log_binom requires 0 <= k <= M, got k={k}, M={M}")
    return math.lgamma(M + 1) - math.lgamma(k + 1) - math.lgamma(M - k + 1)


def chi2_1_upper_tail(s: float) -> float:
    """P(X > s) for X chi-squared with one degree of freedom."""
    if s < 0:
        raise ValueError("chi2_1_upper_tail requires s >= 0")
    return math.erfc(math.sqrt(0.5 * s))


def normal_quantile(p: float) -> float:
    """Standard normal quantile (inverse CDF) for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_quantile requires 0 < p < 1, got {p}")
    return _STD_NORMAL.inv_cdf(p)
