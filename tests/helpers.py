"""Shared test oracles: independent evaluators that never touch the library's
own implementation of the quantity they check."""

import itertools
import json
import math
from dataclasses import dataclass
from decimal import Decimal, getcontext, localcontext
from functools import lru_cache
from pathlib import Path

import numpy as np

from iupm import (
    AssayDataError,
    DilutionLevelData,
    ImperfectFitError,
    MultiDilutionAssay,
    WellAssay,
    allocate_rates,
    classify_extreme,
    nint,
)
from iupm import imperfect
from iupm.poisson import ExtremeOutcome
from iupm.imperfect import ImpossibleDataError, _initial_tau
from iupm.inference import (
    FitResult,
    SingularInformationError,
    covariance,
    multi_gradient,
    observed_information,
    wald_ci,
)
from iupm.negbin import STATISTIC_FLOOR, NBFit, _nb_gradient, _nb_log_likelihood
from iupm.optimize import (
    OptResult,
    _bfgs_update,
    _inf_norm,
    _noise_floor_step,
    _wolfe,
    maximize,
    newton_polish,
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
    bit."""
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


# The solver layer as it stood with two BFGS loops and three Newton polishers:
# the oracle that the merged ``maximize`` and ``newton_polish`` must match bit
# for bit.  The line search, noise-floor step and BFGS update they call are
# shared with the library and unchanged.
REF_MAX_ITER = 10_000
REF_GRAD_TOL = 1e-8
REF_STEP_TOL = 1e-10
REF_ARMIJO = 1e-4
REF_CURVATURE = 0.9


def reference_maximize(f, g, x0, callback=None) -> OptResult:
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
        if callback is not None:
            callback(x.copy(), fx)
        converged = np.all(np.isfinite(gx)) and _inf_norm(gx) <= REF_GRAD_TOL
        if not converged and rel_step <= REF_STEP_TOL:
            break
    return OptResult(
        x=x, f=fx, grad_norm=_inf_norm(gx), iterations=iters, converged=bool(converged), active_lower=()
    )


def reference_maximize_box(f, g, x0, lower, callback=None) -> OptResult:
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
        if callback is not None:
            callback(x.copy(), fx)
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
        active_lower=tuple(int(i) for i in np.flatnonzero(at_bound)),
    )


def reference_fd_newton_polish(grad, x, lower=None, tol=1e-8, max_steps=8):
    """Newton refinement on a finite-difference Hessian of an analytic gradient."""
    x = np.atleast_1d(np.asarray(x, dtype=float)).copy()
    n = x.size
    lo = (
        np.full(n, -math.inf)
        if lower is None
        else np.broadcast_to(np.asarray(lower, dtype=float), x.shape).copy()
    )
    bound_tol = 1e-12 * np.maximum(1.0, np.abs(np.where(np.isfinite(lo), lo, 0.0)))

    def projected(xv, gv):
        at_b = np.isfinite(lo) & (xv <= lo + bound_tol)
        return _inf_norm(np.where(at_b & (gv <= 0.0), 0.0, gv)), at_b

    g = np.atleast_1d(np.asarray(grad(x), dtype=float))
    norm, at_b = projected(x, g)
    for _ in range(max_steps):
        if norm <= tol:
            return x, True
        free = ~(at_b & (g <= 0.0))
        idx = np.flatnonzero(free)
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
        H = (H + H.T) / 2.0
        try:
            step = np.linalg.solve(H, -g[idx])
        except np.linalg.LinAlgError:
            break
        cand = x.copy()
        cand[idx] += step
        cand = np.maximum(cand, lo)
        g_new = np.atleast_1d(np.asarray(grad(cand), dtype=float))
        if not np.all(np.isfinite(g_new)):
            break
        norm_new, at_b_new = projected(cand, g_new)
        if norm_new >= norm:
            break
        x, g, norm, at_b = cand, g_new, norm_new, at_b_new
    return x, norm <= tol


def reference_fd_hessian(grad, lower):
    """A ``hess`` for ``newton_polish`` from finite differences of ``grad``,
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
        return sum(imperfect._level_loglik(u * tau, level, strict=False) for u, level in levels)

    def grad(tau):
        out = np.zeros(n)
        for u, level in levels:
            out += u * imperfect._level_gradient(u * tau, level)
        return out

    start = _initial_tau(model)
    for d, (u, level) in enumerate(levels):
        try:
            imperfect._level_loglik(u * start, level, strict=True)
        except ImperfectFitError as exc:
            raise ImpossibleDataError(f"level {d}: {exc}") from None
    lower = np.zeros(n)
    res = maximize(objective, grad, start, lower)
    tau, polished = newton_polish(grad, reference_fd_hessian(grad, lower), res.x, lower)
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

    def theta_grad(th):
        tau = np.exp(th)
        return tau * multi_gradient(tau, assay)

    g = theta_grad(theta)
    best = (theta.copy(), float(np.max(np.abs(g))))
    for _ in range(max_steps):
        gnorm = float(np.max(np.abs(g)))
        if gnorm <= tol:
            return theta, True
        tau = np.exp(theta)
        H = -observed_information(tau, assay)
        H = tau[:, None] * H * tau[None, :] + np.diag(g)
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


def reference_a_blocks(comps):
    """The dense A_k and dI/dtau_k blocks assembled entry by entry from the
    level sums of :func:`iupm.a_matrices`; returns (a_blocks, dI_dtau)."""
    n = comps.d_diag.size
    dI_shared = np.full((n, n), comps.d_common) + np.diag(comps.d_diag)
    dI = []
    blocks = []
    for k in range(n):
        dI_k = dI_shared.copy()
        dI_k[k, k] -= comps.d_self[k]
        third_block = np.full((n, n), comps.third_common)
        third_block[k, k] = comps.third_diag[k]
        dI.append(dI_k)
        blocks.append(-dI_k - 0.5 * third_block)
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


@dataclass(frozen=True)
class ReferenceWellRecord:
    """One well as the per-well format first stored it: Python-int readings,
    with ``z_star`` present exactly when the well was sequenced."""

    w_star: int
    r: int
    z_star: tuple | None = None

    def __post_init__(self):
        if self.w_star not in (0, 1) or self.r not in (0, 1):
            raise AssayDataError("w_star and r must be 0/1 indicators")
        if self.r == 1:
            if self.z_star is None:
                raise AssayDataError("a sequenced well (r=1) must carry z_star")
            z = tuple(int(v) for v in self.z_star)
            if any(v not in (0, 1) for v in z):
                raise AssayDataError("z_star entries must be 0/1 indicators")
            object.__setattr__(self, "z_star", z)
        elif self.z_star is not None:
            raise AssayDataError("an unsequenced well (r=0) must not carry z_star")


@dataclass(frozen=True)
class ReferenceWellAssay:
    """One level's wells as a tuple of records, as first written."""

    u: float
    wells: tuple
    n: int


def as_records(wa) -> ReferenceWellAssay:
    """The wells of an array WellAssay as records, one well at a time."""
    wells = tuple(
        ReferenceWellRecord(
            w_star=int(wa.w_star[j]),
            r=int(wa.r[j]),
            z_star=tuple(int(v) for v in wa.z_star[j]) if wa.r[j] else None,
        )
        for j in range(wa.M)
    )
    return ReferenceWellAssay(u=wa.u, wells=wells, n=wa.n)


def as_arrays(ref) -> WellAssay:
    """A record-based level as the library's array WellAssay."""
    return WellAssay(
        ref.u,
        [rec.w_star for rec in ref.wells],
        [rec.r for rec in ref.wells],
        np.array([rec.z_star or (0,) * ref.n for rec in ref.wells]).reshape(len(ref.wells), ref.n),
    )


def reference_summarize_wells(u, W, Z, R, q=None, n_dvl=None) -> DilutionLevelData:
    """``summarize_wells`` as first written: Z rows may be None for unsequenced
    wells, and the counts are taken one well at a time."""
    W = np.asarray(W, dtype=int)
    R = np.asarray(R, dtype=int)
    M = W.size
    rows = [None] * M if Z is None else [None if row is None else np.asarray(row, dtype=int) for row in Z]
    n = n_dvl
    for row in rows:
        if row is not None:
            if n is None:
                n = row.size
            elif row.size != n:
                raise AssayDataError("inconsistent z row lengths")
    n = 0 if n is None else n
    M_N = int(np.sum(W == 0))
    m = 0
    Y = np.zeros(n, dtype=int)
    for j in range(M):
        if R[j] == 1:
            if rows[j] is None:
                raise AssayDataError(f"well {j}: sequenced (R=1) but no z row provided")
            if W[j] == 1:
                m += 1
            Y += rows[j]
    return DilutionLevelData(u=u, M=M, M_N=M_N, m=m, Y=tuple(int(y) for y in Y), q=q)


def reference_simulate_level(tau, u, M, q, rng, model="poisson", gamma=0.0, rates=None):
    """``simulate_level`` as first written: the draws become per-well rows and
    records, summarized one well at a time."""
    tau = np.asarray(tau, dtype=float)
    lam = u * tau
    n = lam.size
    if model == "negbin" and gamma > 0.0:
        with np.errstate(invalid="ignore"):
            shape = np.full((M, n), 1.0 / gamma)
            mix = rng.gamma(shape, gamma * np.broadcast_to(lam, (M, n)))
        Z = rng.poisson(mix) >= 1
    else:
        Z = rng.random((M, n)) < -np.expm1(-lam)
    W = Z.any(axis=1)
    if model == "imperfect":
        flips_w = rng.random(M)
        W = np.where(W, flips_w < rates.sens_qvoa, flips_w < 1.0 - rates.spec_qvoa)
        flips_z = rng.random((M, n))
        Z = np.where(Z, flips_z < rates.sens_udsa, flips_z < 1.0 - rates.spec_udsa)
    pos_idx = np.flatnonzero(W)
    m = nint(q * pos_idx.size)
    R = np.zeros(M, dtype=int)
    if m > 0:
        R[rng.choice(pos_idx, size=m, replace=False)] = 1
    rows = [Z[j].astype(int) if R[j] else None for j in range(M)]
    summary = reference_summarize_wells(u, W.astype(int), rows, R, q=q, n_dvl=n)
    records = tuple(
        ReferenceWellRecord(
            w_star=int(W[j]), r=int(R[j]), z_star=tuple(int(v) for v in Z[j]) if R[j] else None
        )
        for j in range(M)
    )
    return summary, ReferenceWellAssay(u=u, wells=records, n=n)


def reference_draw(scenario, rng):
    """One replicate's detected-lineage summaries and per-well records, drawn
    and restricted as first written (redraws of the divergent case included)."""
    tau = allocate_rates(scenario.truth, scenario.n_dvl, scenario.allocation)
    while True:
        drawn = [
            reference_simulate_level(
                tau, lv.u, lv.M, lv.q, rng, model=scenario.model, gamma=scenario.gamma, rates=scenario.rates
            )
            for lv in scenario.levels
        ]
        levels = [summary for summary, _ in drawn]
        pooled = np.sum([lv.y_array() for lv in levels], axis=0)
        keep = [i for i in range(levels[0].n) if pooled[i] >= 1]
        assay = MultiDilutionAssay(
            tuple(
                DilutionLevelData(u=lv.u, M=lv.M, M_N=lv.M_N, m=lv.m, Y=tuple(lv.Y[i] for i in keep), q=lv.q)
                for lv in levels
            ),
            len(keep),
        )
        wells = tuple(
            ReferenceWellAssay(
                u=wa.u,
                wells=tuple(
                    ReferenceWellRecord(
                        rec.w_star, rec.r, tuple(rec.z_star[i] for i in keep) if rec.z_star is not None else None
                    )
                    for rec in wa.wells
                ),
                n=len(keep),
            )
            for _, wa in drawn
        )
        if classify_extreme(assay) is not ExtremeOutcome.ALL_POSITIVE_SINGLE_DVL:
            return assay, wells


class ReferenceTables:
    """The imperfect-assay per-level arrays as first written: the readings
    only, with every rate-dependent factor rebuilt on each evaluation.  Takes
    a record-based level, or an array WellAssay read one well at a time."""

    def __init__(self, wa):
        if isinstance(wa, WellAssay):
            wa = as_records(wa)
        seq = [(j, rec) for j, rec in enumerate(wa.wells) if rec.r == 1]
        self.seq_idx = np.array([j for j, _ in seq], dtype=int)
        self.z = (
            np.array([rec.z_star for _, rec in seq], dtype=float)
            if seq
            else np.zeros((0, wa.n))
        )
        self.w_seq = np.array([rec.w_star for _, rec in seq], dtype=float)
        unseq = [rec for rec in wa.wells if rec.r == 0]
        self.n_unseq_pos = sum(1 for rec in unseq if rec.w_star == 1)
        self.n_unseq_neg = len(unseq) - self.n_unseq_pos
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
            g_tau, g_gamma = _nb_gradient(tau, float(x[n]), assay)
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
        x, polished = newton_polish(grad, hess, res.x, lower)
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
