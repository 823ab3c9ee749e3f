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
    """Vectorized ``log1mexp``; entries of x must be > 0.

    Each entry takes the scalar form's branch.  No error state is set: only
    an entry of 0 would divide by zero, so callers exclude zeros first.
    """
    x = np.asarray(x, dtype=float)
    small = x < _LOG2
    n_small = np.count_nonzero(small)
    if n_small == x.size:
        return np.log(-np.expm1(-x))
    if n_small == 0:
        return np.log1p(-np.exp(-x))
    out = np.empty_like(x)
    out[small] = np.log(-np.expm1(-x[small]))
    big = ~small
    out[big] = np.log1p(-np.exp(-x[big]))
    return out


def expm1_ratio(c, x, k: int):
    """c times the k-th of 1/t, (t + 1)/t^2 and (t + 1)(t + 2)/t^3, with t = e^x - 1.

    These are the magnitudes of 1/t and of its first two x-derivatives.  While
    t^k is a float the value is computed as written (math for a scalar x, numpy
    for an array); past that every one of them equals c e^{-x} to double
    precision, which is returned instead, so no term overflows.  A scalar x
    whose t^k is below the normal floats divides c (k - 1)! by t k times; at
    x = 0 both branches give c / 0 as IEEE arithmetic does (+-inf, or nan for
    c = 0) without a warning.
    """
    if np.ndim(x) == 0:
        x = float(x)
        if x > _LOG_MAX / k:
            return c * math.exp(-x)
        t = math.expm1(x)
        if t**k >= sys.float_info.min:
            return _expm1_ratio(c, t, k)
        if t == 0.0:
            # a Python float raises on c / 0; a numpy one gives the array branch's value
            with np.errstate(divide="ignore", invalid="ignore"):
                return _expm1_ratio(c, np.float64(t), k)
        value = c * math.factorial(k - 1)  # t + 1 and t + 2 are exactly 1 and 2
        with np.errstate(over="ignore"):
            for _ in range(k):
                value = value / t
        return value
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
