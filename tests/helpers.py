"""Shared test data builders and oracles, of three kinds.

* Exact or independent evaluators, which share no code with the quantity
  they check: ``decimal_log_likelihood``, the 40-digit ``exact_*`` sums and
  log-factorials, ``enumerate_expectations``, ``brute_force_joint_prob``,
  ``decimal_level_hessian``, ``direct_nb_log_likelihood``,
  ``myers_mle_bisect``, ``decimal_one_level_rates``, the central differences ``fd_gradient`` and
  ``fd_hessian_of_gradient``, and the well generator ``simulate_wells``.
* Kernels as first written, which the package's kernels must match bit for
  bit: ``reference_log_likelihood``, ``reference_gradient``, ``log_binom``,
  the full-row ``reference_binomial_*`` sums, ``ReferenceTables`` with the
  ``reference_level_*`` imperfect kernels, and ``reference_a_blocks`` with
  ``reference_bias_term`` (built on the package's own ``a_matrices`` sums).
* Deleted solvers and fits, which pin the bits of the BFGS fits that remain:
  ``reference_maximize``, ``reference_maximize_box``,
  ``reference_hessian_polish``, ``reference_fd_hessian``,
  ``reference_observed_information``, ``reference_fit_imperfect``,
  ``reference_newton_polish``, ``reference_newton_polish_total``,
  ``reference_fit_total_only``, ``negbin_objectives``, ``nb_gradient`` and
  ``reference_fit_negbin``.  They reuse the package's line search,
  ``maximize``, the Poisson ``_lineage_model``, ``_initial_tau`` and negbin
  kernels, so they pin solver paths, not values; they go once every fit runs
  one Newton solver and its tests check the optimum itself.  The BFGS
  update, the infinity norm and the noise-floor step are their own copies,
  as first written, so the package's rewritten forms are checked against
  them rather than shared.
"""

import itertools
import json
import math
from fractions import Fraction
from decimal import MAX_EMAX, MIN_EMIN, Decimal, getcontext, localcontext
from functools import lru_cache
from pathlib import Path

import numpy as np

from iupm import (
    AssayDataError,
    DilutionLevelData,
    ImperfectFitError,
    MultiDilutionAssay,
    WellAssay,
)
from iupm import imperfect
from iupm.poisson import ExtremeOutcome, closed_form_no_udsa
from iupm.special import log1mexp
from iupm.imperfect import ImpossibleDataError, _initial_tau
from iupm.inference import (
    FitResult,
    SingularInformationError,
    _lineage_model,
    covariance,
    wald_ci,
)
from iupm import poisson
from iupm.negbin import (
    STATISTIC_FLOOR,
    NBFit,
    _effective_rate,
    _gamma_derivatives,
    _nb_log_likelihood,
)
from iupm.optimize import (
    OptResult,
    _wolfe,
    maximize,
)

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


def load_subjects():
    doc = json.loads((DATA_DIR / "subjects_qvoa.json").read_text())
    return doc["subjects"]


def subject_assay(record) -> MultiDilutionAssay:
    """QVOA-only assay (no sequencing columns) for one subject record."""
    levels = tuple(
        DilutionLevelData(u=u, M=M, M_N=M - MP, m=0, Y=(), q=0.0)
        for u, M, MP in zip(record["u"], record["M"], record["MP"])
    )
    return MultiDilutionAssay(levels, 0)


def simulate_wells(rng, M, lam):
    """Independent perfect-assay well generator (Bernoulli per lineage)."""
    lam = np.asarray(lam, dtype=float)
    Z = rng.random((M, lam.size)) < (1.0 - np.exp(-lam))
    W = Z.any(axis=1)
    return W.astype(int), Z.astype(int)


def random_level(rng, n=None, M=None, u=1.0, lam_scale=1.0, require_detected=False):
    """A valid dilution-level summary drawn by simulating wells directly."""
    while True:
        n_ = int(rng.integers(1, 5)) if n is None else n
        M_ = int(rng.integers(6, 40)) if M is None else M
        lam = rng.uniform(0.05, 0.6, n_) * lam_scale
        W, Z = simulate_wells(rng, M_, u * lam)
        pos = np.flatnonzero(W)
        q = float(rng.choice([0.5, 0.75, 1.0]))
        m = round(q * pos.size)
        R = np.zeros(M_, dtype=int)
        if m > 0:
            R[rng.choice(pos, size=m, replace=False)] = 1
        Y = (Z * R[:, None]).sum(axis=0)
        level = DilutionLevelData(
            u=u, M=M_, M_N=int(M_ - pos.size), m=int(m), Y=tuple(int(y) for y in Y), q=q
        )
        if not require_detected or (np.all(Y >= 1) and level.M > level.M_N + level.m):
            return level


def random_regular_assay(rng, D=1, n=3, M=24):
    """An assay with every lineage detected and at least one negative well."""
    while True:
        us = sorted(rng.choice([0.25, 0.5, 1.0, 2.0, 2.5], size=D, replace=False))
        levels = [random_level(rng, n=n, M=M, u=float(u)) for u in us]
        pooled = np.sum([lv.y_array() for lv in levels], axis=0)
        some_negative = any(lv.M_N > 0 for lv in levels)
        if np.all(pooled >= 1) and some_negative:
            return MultiDilutionAssay(tuple(levels), n)


def decimal_log_likelihood(lam, level, digits=50) -> float:
    """High-precision direct evaluation of the summarized log-likelihood."""
    getcontext().prec = digits
    one = Decimal(1)
    total = Decimal(0)
    lam_dec = [Decimal(repr(float(v))) for v in np.atleast_1d(lam)]
    seq_neg = level.M_N + level.m
    for lam_i, y in zip(lam_dec, level.Y):
        p_neg = (-lam_i).exp()
        if y > 0:
            total += Decimal(y) * (one - p_neg).ln()
        total -= lam_i * Decimal(seq_neg - y)
    unseq = level.M - seq_neg
    if unseq > 0:
        lam_total = sum(lam_dec, Decimal(0))
        total += Decimal(unseq) * (one - (-lam_total).exp()).ln()
    return float(total)


def _reference_log1mexp_arr(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < math.log(2.0)
    with np.errstate(divide="ignore"):
        out[small] = np.log(-np.expm1(-x[small]))
        big = ~small
        out[big] = np.log1p(-np.exp(-x[big]))
    return out


def _reference_log1mexp(x):
    if x < math.log(2.0):
        return math.log(-math.expm1(-x))
    return math.log1p(-math.exp(-x))


def reference_log_likelihood(lam, level) -> float:
    """The Poisson level log-likelihood as first written, rebuilding every
    per-level constant on each call: the oracle the cached-constant kernel
    must match bit for bit."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    Y = np.asarray(level.Y, dtype=float)
    if np.any(lam < 0):
        return -math.inf
    seq_neg = level.M_N + level.m
    unseq = level.M - seq_neg
    pos = Y > 0
    if np.any(pos & (lam == 0.0)):
        return -math.inf
    total = -float(lam @ (seq_neg - Y))
    if np.any(pos):
        total += float(Y[pos] @ _reference_log1mexp_arr(lam[pos]))
    if unseq > 0:
        lam_total = float(lam.sum())
        if lam_total <= 0.0:
            return -math.inf
        total += unseq * _reference_log1mexp(lam_total)
    return total


def reference_gradient(lam, level) -> np.ndarray:
    """The Poisson level gradient as first written (see reference_log_likelihood)."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    Y = np.asarray(level.Y, dtype=float)
    seq_neg = level.M_N + level.m
    unseq = level.M - seq_neg
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.expm1(lam)
        lead = np.where(Y > 0, Y / t, 0.0)
    out = lead - (seq_neg - Y)
    if unseq != 0:
        lam_total = float(lam.sum())
        with np.errstate(divide="ignore", over="ignore"):
            out = out + unseq / np.expm1(lam_total)
    return out


@lru_cache(maxsize=1)
def _reference_log_binom_row(M: int) -> np.ndarray:
    lg = np.fromiter(map(math.lgamma, range(1, M + 2)), dtype=float, count=M + 1)
    row = (lg[M] - lg) - lg[::-1]
    row.flags.writeable = False
    return row


def reference_binomial_sums(Lambda: float, M: int, q: float) -> tuple[float, float, float, float]:
    """The expected-information sums as first vectorized, over every count
    k = 0..M: the oracle the windowed ``_binomial_sums`` must match bit for
    bit where the window is the whole row (M <= 380), and within the
    rounding of ``reference_sum_scales`` above."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    if Lambda <= 0.0 or q == 0.0:
        return 0.0, 0.0, 0.0, 0.0
    k = np.arange(M + 1, dtype=float)
    pos = M - k
    log_w = _reference_log_binom_row(M) + k * -Lambda
    log_w += pos * _reference_log1mexp(Lambda)
    w = np.exp(log_w, out=log_w)
    seq = np.rint(q * pos)
    Em = float(w @ seq)
    s = math.exp(-Lambda)
    p = -math.expm1(-Lambda)
    r = s / p
    dEm = float((w * seq) @ (pos * r - k))
    return Em, Em / p, dEm, (dEm - r * Em) / p


def reference_binomial_weights(Lambda: float, M: int) -> np.ndarray:
    """The Binomial(M, e^-Lambda) weights of every count, as
    ``reference_binomial_sums`` computes them."""
    k = np.arange(M + 1, dtype=float)
    log_w = _reference_log_binom_row(M) + k * -Lambda
    log_w += (M - k) * _reference_log1mexp(Lambda)
    return np.exp(log_w, out=log_w)


_EXACT = dict(prec=40, Emax=MAX_EMAX, Emin=MIN_EMIN)  # 40 digits, no underflow


@lru_cache(maxsize=1)
def _exact_binomial_half_row(M: int) -> tuple[Decimal, ...]:
    """C(M, k) for k = 0..M // 2 in 40-digit decimal arithmetic, by the
    recurrence C(M, k + 1) = C(M, k) (M - k) / (k + 1); it shares no code
    with lgamma or with Stirling's series."""
    with localcontext(**_EXACT):
        row = [Decimal(1)]
        for k in range(M // 2):
            row.append(row[-1] * (M - k) / (k + 1))
    return tuple(row)


def log_binom(M: int, k: int) -> float:
    """log of the binomial coefficient C(M, k) via log-gamma."""
    if k < 0 or k > M:
        raise ValueError(f"log_binom requires 0 <= k <= M, got k={k}, M={M}")
    return math.lgamma(M + 1) - math.lgamma(k + 1) - math.lgamma(M - k + 1)


def exact_log_binom(M: int, k: int) -> float:
    """log C(M, k) from the 40-digit half row, rounded once."""
    with localcontext(**_EXACT):
        return float(_exact_binomial_half_row(M)[min(k, M - k)].ln())


_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
_BERNOULLI = (  # B_2, B_4, ..., B_16
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
)


def exact_log_factorial(n: int) -> float:
    """log n! for n >= 381, from Stirling's series for lgamma(n + 1) in
    40-digit decimal arithmetic with the Bernoulli terms up to x^-15; at
    x = n + 1 >= 382 the first omitted term is below 1e-44."""
    if n < 381:
        raise ValueError("the series is used for n >= 381 only")
    with localcontext(prec=40):
        x = Decimal(n + 1)
        total = (x - Decimal("0.5")) * x.ln() - x + (2 * _PI).ln() / 2
        for k, b in enumerate(_BERNOULLI, 1):
            total += Decimal(b.numerator) / (Decimal(b.denominator * 2 * k * (2 * k - 1)) * x ** (2 * k - 1))
        return float(total)


@lru_cache(maxsize=16)
def _exact_binomial_weights(Lambda: float, M: int, lo: int, hi: int) -> np.ndarray:
    with localcontext(**_EXACT):
        s = (-Decimal(Lambda)).exp()
        p = 1 - s
        power, ratio = s**lo * p ** (M - lo), s / p
        half = _exact_binomial_half_row(M)
        w = []
        for k in range(lo, hi + 1):
            w.append(float(half[k if 2 * k <= M else M - k] * power))
            power *= ratio
    w = np.array(w)
    w.flags.writeable = False
    return w


def exact_binomial_sums(Lambda: float, M: int, q: float, lo: int, hi: int) -> tuple[float, float, float, float]:
    """(Em, F, dEm, dF) as ``_binomial_sums`` defines them, over the counts
    k = lo..hi: the Binomial(M, e^-Lambda) weights are computed in 40-digit
    decimal arithmetic from the half row of C(M, k) and rounded once to
    floats, and each sum is taken exactly (``math.fsum``) over the float
    products above 2^-80 of the largest; the dropped ones add less than
    2e-20 of it.  Rounding the weights and products costs at most about
    2e-16 of each sum's absolute terms, far below the error of a float
    log C(M, k) row."""
    w = _exact_binomial_weights(Lambda, M, lo, hi)
    k = np.arange(lo, hi + 1, dtype=float)
    pos = M - k
    ws = w * np.rint(q * pos)
    p = -math.expm1(-Lambda)
    r = math.exp(-Lambda) / p

    def exact_sum(terms):  # terms spanning the whole float range slow fsum many times over
        size = np.abs(terms)
        return math.fsum(terms[size >= size.max() * 2.0**-80].tolist())

    Em, dEm = exact_sum(ws), exact_sum(ws * (pos * r - k))
    return Em, Em / p, dEm, (dEm - r * Em) / p


def reference_sum_scales(Lambda: float, M: int, q: float) -> tuple[float, float, float, float]:
    """The sums of the absolute terms of (Em, F, dEm, dF) in
    ``reference_binomial_sums``: the scale of their rounding error."""
    k = np.arange(M + 1, dtype=float)
    ws = reference_binomial_weights(Lambda, M) * np.rint(q * (M - k))
    p = -math.expm1(-Lambda)
    r = math.exp(-Lambda) / p
    Em, slope = float(ws.sum()), float(np.abs(ws * ((M - k) * r - k)).sum())
    return Em, Em / p, slope, (slope + r * Em) / p


# The solver layer as it stood with two BFGS loops and three Newton polishers:
# the oracle that the merged ``maximize`` must match bit for bit, and that the
# Newton finish of each fit must match where it runs.  The line search they
# call is shared with the library and unchanged; the BFGS update, infinity
# norm and noise-floor step below are copies of the library's as first written.
REF_MAX_ITER = 10_000
REF_GRAD_TOL = 1e-8
REF_STEP_TOL = 1e-10
REF_ARMIJO = 1e-4
REF_CURVATURE = 0.9


def _bfgs_update(H, s, y):
    """Inverse-Hessian BFGS update (minimization convention, s'y > 0)."""
    sy = float(s @ y)
    Hy = H @ y
    yHy = float(y @ Hy)
    H += ((sy + yHy) / sy**2) * np.outer(s, s)
    H -= (np.outer(Hy, s) + np.outer(s, Hy)) / sy
    return H


def _inf_norm(v) -> float:
    return float(np.abs(v).max()) if np.size(v) else 0.0


def _noise_floor_step(f, g, x, d, fx, gx, amax=1.0):
    """Unit step along d, kept when it shrinks the gradient norm without
    measurably lowering the objective; (0, -fx, gx) when it does not."""
    a = min(1.0, amax)
    x_try = x + a * d
    f_try = float(f(x_try))
    if not math.isfinite(f_try) or f_try < fx - 1e-10 * (abs(fx) + 1.0):
        return 0.0, -fx, gx
    g_try = np.atleast_1d(np.asarray(g(x_try), dtype=float))
    if not np.all(np.isfinite(g_try)) or _inf_norm(g_try) >= _inf_norm(gx):
        return 0.0, -fx, gx
    return a, -f_try, g_try


def reference_maximize(f, g, x0) -> OptResult:
    """Unconstrained BFGS."""
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    n = x.size
    fx = float(f(x))
    gx = np.atleast_1d(np.asarray(g(x), dtype=float))
    if not math.isfinite(fx) or not np.all(np.isfinite(gx)):
        raise ValueError("objective or gradient is not finite at the starting point")
    H = np.eye(n)
    iters = 0
    converged = _inf_norm(gx) <= REF_GRAD_TOL
    while not converged and iters < REF_MAX_ITER:
        d = H @ gx
        if float(d @ gx) <= 0.0:
            H = np.eye(n)
            d = gx.copy()
        cache: dict = {}

        def phi(a):
            return -float(f(x + a * d))

        def dphi(a):
            ga = np.atleast_1d(np.asarray(g(x + a * d), dtype=float))
            cache["grad"] = (a, ga)
            return -float(ga @ d)

        g0 = -float(gx @ d)
        a, phi_a, _ = _wolfe(phi, dphi, -fx, g0, REF_ARMIJO, REF_CURVATURE)
        if a <= 0.0:
            a, phi_a, g_new = _noise_floor_step(f, g, x, d, fx, gx)
            if a <= 0.0:
                break
            x_new = x + a * d
            f_new = -phi_a
        else:
            x_new = x + a * d
            if "grad" in cache and cache["grad"][0] == a:
                g_new = cache["grad"][1]
            else:
                g_new = np.atleast_1d(np.asarray(g(x_new), dtype=float))
            f_new = -phi_a
        s = x_new - x
        y = gx - g_new
        if float(s @ y) > 1e-12 * (np.linalg.norm(s) * np.linalg.norm(y) + 1e-300):
            H = _bfgs_update(H, s, y)
        else:
            H = np.eye(n)
        rel_step = _inf_norm(s) / max(1.0, _inf_norm(x_new))
        x, fx, gx = x_new, f_new, g_new
        iters += 1
        converged = np.all(np.isfinite(gx)) and _inf_norm(gx) <= REF_GRAD_TOL
        if not converged and rel_step <= REF_STEP_TOL:
            break
    return OptResult(
        x=x, f=fx, grad_norm=_inf_norm(gx), iterations=iters, converged=bool(converged)
    )


def reference_maximize_box(f, g, x0, lower) -> OptResult:
    """Gradient projection with BFGS updates on the free set."""
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    lo = np.broadcast_to(np.asarray(lower, dtype=float), x.shape).copy()
    if np.any(x < lo):
        raise ValueError("infeasible starting point: need x0 >= lower")
    bound_tol = 1e-12 * np.maximum(1.0, np.abs(np.where(np.isfinite(lo), lo, 0.0)))

    def snap(v):
        hit = np.isfinite(lo) & (v - lo <= bound_tol)
        v[hit] = lo[hit]
        return v

    x = snap(x)
    fx = float(f(x))
    gx = np.atleast_1d(np.asarray(g(x), dtype=float))
    if not math.isfinite(fx) or not np.all(np.isfinite(gx)):
        raise ValueError("objective or gradient is not finite at the starting point")
    Hf = None
    prev_free = None
    iters = 0
    converged = False
    while iters < REF_MAX_ITER:
        at_bound = np.isfinite(lo) & (x <= lo + bound_tol)
        active = at_bound & (gx <= 0.0)
        pg = np.where(active, 0.0, gx)
        if _inf_norm(pg) <= REF_GRAD_TOL:
            converged = True
            break
        free = ~active
        key = free.tobytes()
        if key != prev_free:
            Hf = np.eye(int(free.sum()))
            prev_free = key
        gf = gx[free]
        df = Hf @ gf
        d = np.zeros_like(x)
        d[free] = df
        d[at_bound & (d < 0.0)] = 0.0
        if float(d @ gx) <= 0.0:
            Hf = np.eye(gf.size)
            d = np.zeros_like(x)
            d[free] = gf
            d[at_bound & (d < 0.0)] = 0.0
        moving_down = (d < 0.0) & np.isfinite(lo)
        amax = math.inf
        if np.any(moving_down):
            amax = float(np.min((lo[moving_down] - x[moving_down]) / d[moving_down]))
            amax = max(amax, 0.0)
        cache: dict = {}

        def phi(a):
            return -float(f(x + a * d))

        def dphi(a):
            ga = np.atleast_1d(np.asarray(g(x + a * d), dtype=float))
            cache["grad"] = (a, ga)
            return -float(ga @ d)

        g0 = -float(gx @ d)
        a, phi_a, _ = _wolfe(phi, dphi, -fx, g0, REF_ARMIJO, REF_CURVATURE, amax=amax)
        if a <= 0.0:
            a, phi_a, _ = _noise_floor_step(f, g, x, d, fx, gx, amax=amax)
            cache.pop("grad", None)
            if a <= 0.0:
                break
        x_new = snap(x + a * d)
        hit_wall = bool(np.any((x_new == lo) & (x > lo)))
        if hit_wall:
            f_new = float(f(x_new))
            g_new = np.atleast_1d(np.asarray(g(x_new), dtype=float))
        else:
            f_new = -phi_a
            if "grad" in cache and cache["grad"][0] == a:
                g_new = cache["grad"][1]
            else:
                g_new = np.atleast_1d(np.asarray(g(x_new), dtype=float))
        s = x_new - x
        if not hit_wall:
            sf = s[free]
            yf = (gx - g_new)[free]
            if float(sf @ yf) > 1e-12 * (np.linalg.norm(sf) * np.linalg.norm(yf) + 1e-300):
                Hf = _bfgs_update(Hf, sf, yf)
            else:
                Hf = np.eye(sf.size)
        rel_step = _inf_norm(s) / max(1.0, _inf_norm(x_new))
        x, fx, gx = x_new, f_new, g_new
        iters += 1
        if rel_step <= REF_STEP_TOL and not hit_wall:
            at_bound = np.isfinite(lo) & (x <= lo + bound_tol)
            pg = np.where(at_bound & (gx <= 0.0), 0.0, gx)
            converged = _inf_norm(pg) <= REF_GRAD_TOL
            break
    at_bound = np.isfinite(lo) & (x <= lo + bound_tol)
    pg = np.where(at_bound & (gx <= 0.0), 0.0, gx)
    return OptResult(
        x=x,
        f=fx,
        grad_norm=_inf_norm(pg),
        iterations=iters,
        converged=bool(converged or _inf_norm(pg) <= REF_GRAD_TOL),
    )


def reference_hessian_polish(grad, hess, x, lower=None, tol=1e-8, max_steps=10):
    """The former Newton polish that finished every fit: Newton steps on the
    caller's Hessian block ``hess(x, g, idx)`` over the free components
    ``idx``, where ``g = grad(x)``.  Components at a finite lower bound with
    an outward gradient stay put and leave the projected norm; a step is kept
    only when it shrinks that norm.  Returns (x, converged)."""
    x = np.atleast_1d(np.asarray(x, dtype=float)).copy()
    lo = (
        np.full(x.size, -math.inf)
        if lower is None
        else np.broadcast_to(np.asarray(lower, dtype=float), x.shape).copy()
    )
    bound_tol = 1e-12 * np.maximum(1.0, np.abs(np.where(np.isfinite(lo), lo, 0.0)))

    def projected(xv, gv):
        outward = np.isfinite(lo) & (xv <= lo + bound_tol) & (gv <= 0.0)
        return _inf_norm(np.where(outward, 0.0, gv)), np.flatnonzero(~outward)

    g = np.atleast_1d(np.asarray(grad(x), dtype=float))
    norm, idx = projected(x, g)
    for _ in range(max_steps):
        if norm <= tol:
            return x, True
        try:
            step = np.linalg.solve(hess(x, g, idx), -g[idx])
        except np.linalg.LinAlgError:
            break
        cand = x.copy()
        cand[idx] += step
        cand = np.maximum(cand, lo)
        g_new = np.atleast_1d(np.asarray(grad(cand), dtype=float))
        if not np.all(np.isfinite(g_new)):
            break
        norm_new, idx_new = projected(cand, g_new)
        if norm_new >= norm:
            break
        x, g, norm, idx = cand, g_new, norm_new, idx_new
    return x, norm <= tol


def reference_fd_hessian(grad, lower):
    """A ``hess`` for ``reference_hessian_polish`` from finite differences of ``grad``,
    as the library had it: each free column is a central difference, or a
    forward one where the backward point would cross a finite lower bound;
    the block is then symmetrized."""
    def hess(x, g, idx):
        lo = np.broadcast_to(np.asarray(lower, dtype=float), x.shape)
        H = np.zeros((idx.size, idx.size))
        for col, i in enumerate(idx):
            h = max(1e-7, 1e-7 * abs(x[i]))
            down = x.copy()
            down[i] -= h
            up = x.copy()
            up[i] += h
            if np.isfinite(lo[i]) and down[i] < lo[i]:
                H[:, col] = (np.asarray(grad(up), dtype=float)[idx] - g[idx]) / h
            else:
                H[:, col] = (
                    np.asarray(grad(up), dtype=float)[idx]
                    - np.asarray(grad(down), dtype=float)[idx]
                ) / (2.0 * h)
        return (H + H.T) / 2.0

    return hess


def reference_observed_information(tau, free, grad_full, h_rel=1e-5):
    """Observed information on the free coordinates from central differences
    of the analytic gradient, at steps h_rel * tau (at least 1e-8, at most
    tau / 2)."""
    idx = np.flatnonzero(free)
    k = idx.size
    H = np.zeros((k, k))
    for col, i in enumerate(idx):
        h = max(h_rel * tau[i], 1e-8)
        if tau[i] - h < 0:
            h = tau[i] / 2.0
        hi = tau.copy()
        hi[i] += h
        lo = tau.copy()
        lo[i] -= h
        H[:, col] = (grad_full(hi)[idx] - grad_full(lo)[idx]) / (2.0 * h)
    H = (H + H.T) / 2.0
    return -H


def reference_fit_imperfect(model, alpha=0.05) -> FitResult:
    """The imperfect-assay fit with finite-difference second derivatives:
    bounded BFGS, a Newton polish on ``reference_fd_hessian`` and the
    covariance from ``reference_observed_information``.  The level kernels
    are looked up on ``iupm.imperfect`` at each call, so a test can patch
    them."""
    model.rates.check_identifiable()
    levels = [(wa.u, imperfect._Level(wa, model.rates)) for wa in model.assays]
    n = model.n
    if n == 0:
        raise AssayDataError("the imperfect fit needs at least one lineage column")

    def objective(tau):
        return sum(imperfect._level_loglik(u * tau, level) for u, level in levels)

    def grad(tau):
        out = np.zeros(n)
        for u, level in levels:
            out += u * imperfect._level_gradient(u * tau, level)
        return out

    start = _initial_tau(model)
    for d, (u, level) in enumerate(levels):
        lam = u * start
        *_, P = level.products(lam)
        reason = imperfect._zero_probability(level, P, *imperfect._marginals(float(lam.sum()), level.rates))
        if reason is not None:
            raise ImpossibleDataError(f"level {d}: {reason}")
    lower = np.zeros(n)
    res = maximize(objective, grad, start, lower)
    tau, polished = reference_hessian_polish(grad, reference_fd_hessian(grad, lower), res.x, lower)
    if objective(tau) >= res.f - 1e-9 * (abs(res.f) + 1.0):
        converged = res.converged or polished
    else:
        tau, converged = res.x, res.converged
    free = tau > 0.0
    if not free.any():
        raise ImperfectFitError("all rate components ended on the zero boundary")
    try:
        cov_free = covariance(reference_observed_information(tau, free, grad))
    except SingularInformationError:
        raise ImperfectFitError("observed information is singular at the optimum") from None
    variance = float(cov_free.sum())
    if not variance > 0.0:
        raise ImperfectFitError("observed information is not positive definite at the optimum")
    cov = np.zeros((n, n))
    cov[np.ix_(free, free)] = cov_free
    se = math.sqrt(variance)
    iupm = float(tau.sum())
    return FitResult(
        tau_hat=tau,
        iupm=iupm,
        covariance=cov,
        se_iupm=se,
        ci=wald_ci(iupm, se, alpha),
        alpha=alpha,
        log_lik=objective(tau),
        converged=converged,
        iterations=res.iterations,
        extreme=ExtremeOutcome.REGULAR,
        active_lower=tuple(int(i) for i in np.flatnonzero(~free)),
    )


def reference_newton_polish(theta, assay, tol=1e-8, max_steps=10):
    """Newton refinement of the Poisson fit in theta = log(tau), on the
    analytic theta-Hessian, keeping the best point seen."""
    theta = theta.copy()
    _, theta_grad, grad_hess, _ = _lineage_model(assay)
    g = theta_grad(theta)
    best = (theta.copy(), float(np.max(np.abs(g))))
    for _ in range(max_steps):
        gnorm = float(np.max(np.abs(g)))
        if gnorm <= tol:
            return theta, True
        _, H = grad_hess(theta)
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            break
        candidate = theta + step
        g_new = theta_grad(candidate)
        if not np.all(np.isfinite(g_new)) or float(np.max(np.abs(g_new))) >= gnorm:
            break
        theta, g = candidate, g_new
        if float(np.max(np.abs(g))) < best[1]:
            best = (theta.copy(), float(np.max(np.abs(g))))
    theta, gnorm = best
    return theta, gnorm <= tol


def _expm1(x: float) -> float:
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


def reference_newton_polish_total(T: float, levels, tol: float = 1e-8, max_steps: int = 10):
    """The former scalar Newton polish of the no-sequencing fit: steps in
    phi = log(T), taken as T e^{step}.  Returns (T, converged, steps taken)."""
    def dphi(T):
        dT = sum(lv.u * ((lv.M - lv.M_N) / _expm1(lv.u * T) - lv.M_N) for lv in levels)
        return T * dT, dT

    g, dT = dphi(T)
    steps = 0
    for _ in range(max_steps):
        if abs(g) <= tol:
            return T, True, steps
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
        steps += 1
    return T, abs(g) <= tol, steps


def reference_fit_total_only(assay, alpha=0.05):
    """The former one-parameter fit of the total rate from well counts alone,
    with its own BFGS call, scalar polish, SE 1/sqrt(info) and assembly.
    Returns (fit, steps the polish took)."""
    levels = assay.levels
    steps = 0
    if len(levels) == 1:
        lv = levels[0]
        T = closed_form_no_udsa(lv.M, lv.M_N) / lv.u
        iterations, converged = 0, True
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
        res = maximize(objective, grad, np.array([math.log(T0)]), -math.inf)
        T = float(np.exp(res.x[0]))
        T, polished, steps = reference_newton_polish_total(T, levels)
        iterations, converged = res.iterations, res.converged or polished
    info = sum(lv.u * lv.u * lv.M / _expm1(lv.u * T) for lv in levels)
    se = 1.0 / math.sqrt(info)
    fit = FitResult(
        tau_hat=np.array([T]),
        iupm=T,
        covariance=np.array([[1.0 / info]]),
        se_iupm=se,
        ci=wald_ci(T, se, alpha),
        alpha=alpha,
        log_lik=_total_only_loglik(T, levels),
        converged=converged,
        iterations=iterations,
        extreme=ExtremeOutcome.REGULAR,
    )
    return fit, steps


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.size)
    for i in range(x.size):
        step = h * max(1.0, abs(x[i]))
        e = np.zeros(x.size)
        e[i] = step
        out[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return out


def fd_hessian_of_gradient(g, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.zeros((n, n))
    for i in range(n):
        step = h * max(1.0, abs(x[i]))
        e = np.zeros(n)
        e[i] = step
        H[:, i] = (np.asarray(g(x + e)) - np.asarray(g(x - e))) / (2.0 * step)
    return (H + H.T) / 2.0


def dense_hessian(lam, assay):
    """The Poisson Hessian of each level of ``assay`` at the (D, n) rates lam
    as a dense matrix, diag(h) - c 11^T from ``poisson.hessian_parts``: a
    (D, n, n) array."""
    h, common = poisson.hessian_parts(lam, assay)
    return np.array([np.diag(row) - (0.0 if c is None else c) for row, c in zip(h, common)])


def one_level(level) -> MultiDilutionAssay:
    """One level as an assay of its own, the form the Poisson kernels take."""
    return MultiDilutionAssay((level,), level.n)


def level_log_likelihood(lam, level) -> float:
    """The Poisson log-likelihood of one level at its (n,) rates."""
    return poisson.log_likelihood(np.reshape(lam, (1, -1)), one_level(level))


def level_gradient(lam, level) -> np.ndarray:
    """The Poisson gradient of one level at its (n,) rates, as an (n,) array."""
    return poisson.gradient(np.reshape(lam, (1, -1)), one_level(level))[0]


def level_hessian(lam, level) -> np.ndarray:
    """The dense (n, n) Poisson Hessian of one level at its (n,) rates."""
    return dense_hessian(np.reshape(lam, (1, -1)), one_level(level))[0]


def reference_a_blocks(comps):
    """The dense A_k and dI/dtau_k blocks assembled entry by entry from the
    level sums of :func:`iupm.a_matrices`, times the s^3 that they are
    divided by; returns (a_blocks, dI_dtau)."""
    s3 = comps.scale ** 3
    n = comps.d_diag.size
    dI_shared = np.full((n, n), comps.d_common) + np.diag(comps.d_diag)
    dI = []
    blocks = []
    for k in range(n):
        dI_k = dI_shared.copy()
        dI_k[k, k] -= comps.d_self[k]
        third_block = np.full((n, n), comps.third_common)
        third_block[k, k] = comps.third_diag[k]
        dI.append(s3 * dI_k)
        blocks.append(s3 * (-dI_k - 0.5 * third_block))
    return blocks, dI


def reference_bias_term(cov, blocks) -> np.ndarray:
    """Sigma A vec(Sigma) contracted block by block."""
    inner = np.zeros(cov.shape[0])
    for k, block in enumerate(blocks):
        inner += block @ cov[:, k]
    return cov @ inner


def enumerate_expectations(lam, M, q):
    """Exact E(m) and E(Y_i) by enumerating all well configurations and all
    equally likely sequencing subsets.  Feasible for small M and n."""
    lam = np.asarray(lam, dtype=float)
    n = lam.size
    p = 1.0 - np.exp(-lam)
    e_m = 0.0
    e_y = np.zeros(n)
    for config in itertools.product(range(2**n), repeat=M):
        rows = np.array([[(c >> i) & 1 for i in range(n)] for c in config])
        prob = float(np.prod(np.where(rows == 1, p, 1.0 - p)))
        if prob == 0.0:
            continue
        W = rows.any(axis=1)
        pos = np.flatnonzero(W)
        m = round(q * pos.size)
        e_m += prob * m
        if m == 0:
            continue
        subsets = list(itertools.combinations(pos, m))
        for subset in subsets:
            e_y += (prob / len(subsets)) * rows[list(subset)].sum(axis=0)
    return e_m, e_y


def brute_force_joint_prob(lam, w_star, z_star, rates) -> float:
    """2^n enumeration of the imperfect-assay joint well probability."""
    lam = np.asarray(lam, dtype=float)
    n = lam.size
    total = 0.0
    for zs in itertools.product((0, 1), repeat=n):
        w = 1 if sum(zs) >= 1 else 0
        if w == 1:
            pw = rates.sens_qvoa if w_star == 1 else 1.0 - rates.sens_qvoa
        else:
            pw = 1.0 - rates.spec_qvoa if w_star == 1 else rates.spec_qvoa
        prob = pw
        for i, z in enumerate(zs):
            if z == 1:
                pz = rates.sens_udsa if z_star[i] == 1 else 1.0 - rates.sens_udsa
                prob *= pz * (1.0 - math.exp(-lam[i]))
            else:
                pz = 1.0 - rates.spec_udsa if z_star[i] == 1 else rates.spec_udsa
                prob *= pz * math.exp(-lam[i])
        total += prob
    return total


def decimal_level_hessian(lam, wa, rates, digits=50) -> np.ndarray:
    """Hessian of one level's imperfect-assay log-likelihood, from a 2^n
    enumeration of each well's probability in ``digits``-digit decimals.

    Each latent pattern contributes P(w* | W) prod_i f_i(lam_i), where f_i is
    c1 (1 - e^{-lam_i}) for a present lineage and c0 e^{-lam_i} for an absent
    one: (c1, c0) are P(z*_i | 1), P(z*_i | 0) for a sequenced well and 1 for
    an unsequenced one.  Every term is differentiated factor by factor.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        one = Decimal(1)
        x = [(-Decimal(float(v))).exp() for v in np.atleast_1d(lam)]
        n = len(x)
        sens_q, spec_q, sens_u, spec_u = (
            Decimal(float(v)) for v in (rates.sens_qvoa, rates.spec_qvoa, rates.sens_udsa, rates.spec_udsa)
        )
        H = [[Decimal(0)] * n for _ in range(n)]
        for w_star, r, z_star in zip(wa.w_star.tolist(), wa.r.tolist(), wa.z_star.tolist()):
            P, dP = Decimal(0), [Decimal(0)] * n
            d2P = [[Decimal(0)] * n for _ in range(n)]
            for zs in itertools.product((0, 1), repeat=n):
                if any(zs):
                    pw = sens_q if w_star == 1 else one - sens_q
                else:
                    pw = one - spec_q if w_star == 1 else spec_q
                f, df, d2f = [], [], []
                for i, z in enumerate(zs):
                    if r == 1:
                        c1 = sens_u if z_star[i] == 1 else one - sens_u
                        c0 = one - spec_u if z_star[i] == 1 else spec_u
                    else:
                        c1 = c0 = one
                    if z == 1:
                        f.append(c1 * (one - x[i]))
                        df.append(c1 * x[i])
                        d2f.append(-c1 * x[i])
                    else:
                        f.append(c0 * x[i])
                        df.append(-c0 * x[i])
                        d2f.append(c0 * x[i])

                def prod_except(*skip):
                    out = pw
                    for k in range(n):
                        if k not in skip:
                            out *= f[k]
                    return out

                P += prod_except()
                for i in range(n):
                    dP[i] += df[i] * prod_except(i)
                    d2P[i][i] += d2f[i] * prod_except(i)
                    for j in range(n):
                        if j != i:
                            d2P[i][j] += df[i] * df[j] * prod_except(i, j)
            for i in range(n):
                for j in range(n):
                    H[i][j] += d2P[i][j] / P - dP[i] * dP[j] / (P * P)
        return np.array([[float(v) for v in row] for row in H])


class ReferenceTables:
    """The imperfect-assay per-level arrays as first written: the readings
    only, with every rate-dependent factor rebuilt on each evaluation."""

    def __init__(self, wa: WellAssay):
        seq = wa.r == 1
        self.seq_idx = np.flatnonzero(seq)
        self.z = wa.z_star[seq]
        self.w_seq = wa.w_star[seq]
        self.n_unseq_pos = int(np.count_nonzero(wa.w_star[~seq]))
        self.n_unseq_neg = wa.M - self.seq_idx.size - self.n_unseq_pos
        self.n = wa.n


def _reference_leave_one_out_prod(a):
    m, n = a.shape
    prefix = np.ones((m, n))
    suffix = np.ones((m, n))
    if n > 1:
        prefix[:, 1:] = np.cumprod(a[:, :-1], axis=1)
        suffix[:, :-1] = np.cumprod(a[:, ::-1][:, :-1], axis=1)[:, ::-1]
    return prefix * suffix


def _reference_marginals(lam_total, rates):
    eL = math.exp(-lam_total)
    pos = rates.sens_qvoa * (1.0 - eL) + (1.0 - rates.spec_qvoa) * eL
    neg = (1.0 - rates.sens_qvoa) * (1.0 - eL) + rates.spec_qvoa * eL
    return pos, neg


def reference_factors(tables, rates):
    """The per-well factors P(z*|1), P(z*|0), P(w*|1), P(w*|0) of the sequenced wells."""
    pz1 = np.where(tables.z == 1.0, rates.sens_udsa, 1.0 - rates.sens_udsa)
    pz0 = np.where(tables.z == 1.0, 1.0 - rates.spec_udsa, rates.spec_udsa)
    pw1 = np.where(tables.w_seq == 1.0, rates.sens_qvoa, 1.0 - rates.sens_qvoa)
    pw0 = np.where(tables.w_seq == 1.0, 1.0 - rates.spec_qvoa, rates.spec_qvoa)
    return pz1, pz0, pw1, pw0


def reference_seq_probs(lam, tables, rates):
    e = np.exp(-lam)
    pz1, pz0, pw1, pw0 = reference_factors(tables, rates)
    s = pz0 * e + pz1 * (1.0 - e)
    t0 = pz0 * e
    S = s.prod(axis=1)
    T0 = t0.prod(axis=1)
    P = pw1 * (S - T0) + pw0 * T0
    return e, pz1, pz0, s, S, T0, pw1, pw0, P


def reference_level_loglik(lam, tables, rates, strict):
    """The imperfect-assay level log-likelihood as first written: the oracle
    the shared-product kernel must match bit for bit."""
    *_, P = reference_seq_probs(lam, tables, rates)
    if np.any(P <= 0.0):
        if strict:
            bad = int(tables.seq_idx[int(np.argmax(P <= 0.0))])
            raise ImperfectFitError(
                f"well {bad} has probability zero under the supplied error rates"
            )
        return -math.inf
    total = float(np.log(P).sum())
    pos, neg = _reference_marginals(float(lam.sum()), rates)
    for count, prob in ((tables.n_unseq_pos, pos), (tables.n_unseq_neg, neg)):
        if count:
            if prob <= 0.0:
                if strict:
                    raise ImperfectFitError(
                        "an unsequenced well has probability zero under the supplied error rates"
                    )
                return -math.inf
            total += count * math.log(prob)
    return total


def reference_level_gradient(lam, tables, rates):
    """The imperfect-assay level gradient as first written."""
    e, pz1, pz0, s, S, T0, pw1, pw0, P = reference_seq_probs(lam, tables, rates)
    grad = np.zeros(tables.n)
    if tables.z.shape[0]:
        dS = _reference_leave_one_out_prod(s) * (e * (pz1 - pz0))
        dP = pw1[:, None] * (dS + T0[:, None]) - pw0[:, None] * T0[:, None]
        grad += (dP / P[:, None]).sum(axis=0)
    lam_total = float(lam.sum())
    pos, neg = _reference_marginals(lam_total, rates)
    gain = (rates.sens_qvoa + rates.spec_qvoa - 1.0) * math.exp(-lam_total)
    if tables.n_unseq_pos:
        grad += tables.n_unseq_pos * gain / pos
    if tables.n_unseq_neg:
        grad -= tables.n_unseq_neg * gain / neg
    return grad


def direct_nb_log_likelihood(tau, gamma, assay) -> float:
    """Straightforward evaluation of the overdispersed likelihood from its
    zero-probability definition, written independently of the library."""
    tau = np.asarray(tau, dtype=float)
    total = 0.0
    for lv in assay.levels:
        lam = lv.u * tau
        if gamma == 0.0:
            p0 = np.exp(-lam)
        else:
            p0 = (gamma * lam + 1.0) ** (-1.0 / gamma)
        for y, p in zip(lv.Y, p0):
            if y > 0:
                total += y * math.log(1.0 - p)
            total += (lv.M_N + lv.m - y) * math.log(p)
        unseq = lv.M - lv.M_N - lv.m
        if unseq > 0:
            total += unseq * math.log(1.0 - float(np.prod(p0)))
    return total


def nb_gradient(tau, gamma: float, assay: MultiDilutionAssay) -> tuple[np.ndarray, float]:
    """(d l / d tau, d l / d gamma) by the chain rule through the effective rates."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    g_tau = np.zeros(tau.size)
    g_gamma = 0.0
    for lv in assay.levels:
        lam = lv.u * tau
        eff = _effective_rate(lam, gamma)
        pg = level_gradient(eff, lv)
        g_tau += lv.u * pg / (1.0 + gamma * lam)
        g_gamma += float(pg @ _gamma_derivatives(lam, gamma)[0])
    return g_tau, g_gamma


def negbin_objectives(assay):
    """The negative-binomial log-likelihood and its gradient in
    x = (log tau, gamma), from ``negbin``'s own kernels, and the bounds
    gamma >= 0."""
    n = assay.n

    def objective(x):
        with np.errstate(over="ignore", invalid="ignore"):
            return _nb_log_likelihood(np.exp(x[:n]), float(x[n]), assay)

    def grad(x):
        with np.errstate(over="ignore", invalid="ignore"):
            tau = np.exp(x[:n])
            g_tau, g_gamma = nb_gradient(tau, float(x[n]), assay)
            return np.concatenate([tau * g_tau, [g_gamma]])

    return objective, grad, np.concatenate([np.full(n, -math.inf), [0.0]])


def reference_fit_negbin(assay, pois):
    """The former negative-binomial fit: bounded BFGS from gamma = 0.1 with a
    Newton polish on a finite-difference Hessian, retried from gamma = 1 when
    it stalls on the gamma boundary."""
    theta0 = np.log(np.maximum(pois.tau_hat, 1e-8))
    n = theta0.size
    objective, grad, lower = negbin_objectives(assay)
    hess = reference_fd_hessian(grad, lower)

    def run(gamma0):
        res = maximize(objective, grad, np.concatenate([theta0, [gamma0]]), lower)
        x, polished = reference_hessian_polish(grad, hess, res.x, lower)
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
        return NBFit(pois.tau_hat.copy(), 0.0, pois.iupm, pois.log_lik, pois.converged)
    tau_hat = np.exp(res.x[:n])
    return NBFit(tau_hat, float(res.x[n]), float(tau_hat.sum()), res.f, res.converged)


def myers_mle_bisect(levels, lo=1e-10, hi=200.0) -> float:
    """Root of the one-parameter score by bisection (no sequencing data)."""
    def score(T):
        return sum(lv.u * ((lv.M - lv.M_N) / math.expm1(lv.u * T) - lv.M_N) for lv in levels)

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if score(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def decimal_one_level_rates(level, digits=50) -> list[float]:
    """The per-well MLE of one level with unsequenced positive wells (U > 0)
    and lineages, by bisection in ``digits``-digit decimals on
    h(Lam) = sum_i log(1 + Y_i / (b_i - C(Lam))) - Lam, b_i = M_N + m - Y_i,
    C(Lam) = U / (e^Lam - 1).  The root lies above log(1 + (U + Y_i) / b_i)
    for every i and below the sum of the rates there."""
    with localcontext() as ctx:
        ctx.prec = digits
        one = Decimal(1)
        U = Decimal(level.M - level.M_N - level.m)
        Y = [Decimal(y) for y in level.Y]
        b = [Decimal(level.M_N + level.m - y) for y in level.Y]

        def rates(Lam):
            C = U / (Lam.exp() - one)
            return [(one + y / (bi - C)).ln() for y, bi in zip(Y, b)]

        lo = max((one + (U + y) / bi).ln() for y, bi in zip(Y, b))
        hi = sum(rates(lo), Decimal(0))
        while hi - lo > Decimal(10) ** (5 - digits) * hi:
            mid = (lo + hi) / 2
            if sum(rates(mid), Decimal(0)) > mid:
                lo = mid
            else:
                hi = mid
        return [float(v) for v in rates((lo + hi) / 2)]
