"""Maximization under optional lower bounds: BFGS and projected Newton.

:func:`solve` is the one solve step of every fit, and its docstring states
which solver runs when.  :func:`maximize` runs BFGS with a strong-Wolfe line
search; given lower bounds it projects the gradient and keeps the BFGS matrix
on the free components.  Internally the line search works on the negated
objective, so the usual strong-Wolfe conditions for minimization apply
unchanged.  :func:`newton_maximize` is projected Newton on an analytic
Hessian under lower bounds (Bertsekas 1982).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["OptResult", "solve"]

MAX_ITER = 10_000
GRAD_TOL = 1e-8     # infinity norm of the (projected) gradient
STEP_TOL = 1e-10    # relative parameter change
ARMIJO = 1e-4       # sufficient-decrease constant
CURVATURE = 0.9     # strong-Wolfe curvature constant
NEWTON_MAX_ITER = 100   # iteration cap of newton_maximize
NEWTON_HALVINGS = 40    # step halvings before newton_maximize gives up on a direction
EPS_ACTIVE = 1e-3       # widest gap to a bound that newton_maximize treats as on it
FLAT = 1e-12            # relative objective change below float noise
MEMO_SIZE = 128         # points whose objective values solve remembers, the latest evaluated


@dataclass
class OptResult:
    x: np.ndarray
    f: float
    grad_norm: float
    iterations: int
    converged: bool


def solve(objective, grad_hess, x0, lower, grad=None) -> tuple[OptResult, int]:
    """Maximize ``objective`` from x0 under ``lower``: the solve step of every fit.

    The objective is evaluated with overflow and invalid-operation warnings
    silenced, and a value that is not finite counts as -inf: a trial step
    whose parameters leave the float range is rejected outright, so the
    derivatives are evaluated only where the objective is finite.  Given the
    gradient ``grad``, BFGS (:func:`maximize`) runs first, and where it stops
    short of the gradient tolerance (line searches stall once objective
    changes fall below float noise) projected Newton (:func:`newton_maximize`)
    on ``grad_hess`` finishes from where it stopped.  Without ``grad``
    projected Newton runs alone from x0.  Returns the result of the last
    solver run, whose ``f`` is the objective as evaluated at its ``x``, and
    the iteration count of the first.

    Each point is evaluated at most once while it is among the last
    ``MEMO_SIZE`` points evaluated.  The solvers come back to points they
    have already evaluated (a zoom bracket that collapses below float
    resolution, the noise-floor step retrying the unit step, Newton starting
    where BFGS stopped), so the values at those points are kept, keyed on the
    exact bytes of x, the oldest dropped to make room: the memo does not grow
    with the iteration count, and it is dropped with the call.
    """
    memo: dict[bytes, float] = {}

    def f(x):
        key = x.tobytes()
        value = memo.get(key)
        if value is None:
            with np.errstate(over="ignore", invalid="ignore"):
                value = objective(x)
            if not math.isfinite(value):
                value = -math.inf
            if len(memo) == MEMO_SIZE:
                del memo[next(iter(memo))]
            memo[key] = value
        return value

    if grad is None:
        res = newton_maximize(f, grad_hess, x0, lower)
        return res, res.iterations
    first = maximize(f, grad, x0, lower)
    if first.converged:
        return first, first.iterations
    return newton_maximize(f, grad_hess, first.x, lower), first.iterations


def _wolfe(phi, dphi, phi0, g0, c1, c2, amax=math.inf):
    """Strong-Wolfe step for minimization along a descent direction (g0 < 0).

    Returns (alpha, phi(alpha), ok).  ok is True when both Wolfe conditions
    hold, or when the feasible cap amax was reached while still descending
    with sufficient decrease.
    """
    a_prev, phi_prev, d_prev = 0.0, phi0, g0
    a = min(1.0, amax)
    for it in range(40):
        phi_a = phi(a)
        if (not math.isfinite(phi_a)) or phi_a > phi0 + c1 * a * g0 or (it > 0 and phi_a >= phi_prev):
            return _zoom(phi, dphi, a_prev, phi_prev, d_prev, a, phi_a, phi0, g0, c1, c2)
        d_a = dphi(a)
        if abs(d_a) <= -c2 * g0:
            return a, phi_a, True
        if d_a >= 0.0:
            return _zoom(phi, dphi, a, phi_a, d_a, a_prev, phi_prev, phi0, g0, c1, c2)
        if a >= amax * (1.0 - 1e-12):
            # Hit the feasible cap still descending; Armijo already holds.
            return a, phi_a, True
        a_prev, phi_prev, d_prev = a, phi_a, d_a
        a = min(2.0 * a, amax)
    return a_prev, phi_prev, a_prev > 0.0


def _zoom(phi, dphi, a_lo, phi_lo, d_lo, a_hi, phi_hi, phi0, g0, c1, c2):
    """Refine a bracketing interval until the strong-Wolfe conditions hold."""
    for _ in range(30):
        h = a_hi - a_lo
        if abs(h) <= 1e-16 * max(1.0, abs(a_lo)):
            break
        a = None
        if math.isfinite(phi_hi):
            # Minimizer of the quadratic through (a_lo, phi_lo, d_lo) and (a_hi, phi_hi);
            # exact for quadratic objectives.
            denom = phi_hi - phi_lo - d_lo * h
            if denom > 0.0:  # convex along the bracket
                cand = a_lo - 0.5 * d_lo * h * h / denom
                lo, hi = (a_lo, a_hi) if h > 0 else (a_hi, a_lo)
                margin = 0.05 * abs(h)
                if lo + margin <= cand <= hi - margin:
                    a = cand
        if a is None:
            a = a_lo + 0.5 * h
        phi_a = phi(a)
        if (not math.isfinite(phi_a)) or phi_a > phi0 + c1 * a * g0 or phi_a >= phi_lo:
            a_hi, phi_hi = a, phi_a
        else:
            d_a = dphi(a)
            if abs(d_a) <= -c2 * g0:
                return a, phi_a, True
            if d_a * (a_hi - a_lo) >= 0:
                a_hi, phi_hi = a_lo, phi_lo
            a_lo, phi_lo, d_lo = a, phi_a, d_a
    ok = a_lo > 0.0
    return a_lo, phi_lo, ok


def _bfgs_update(H, s, y):
    """Inverse-Hessian BFGS update (minimization convention, s'y > 0)."""
    sy = float(s @ y)
    Hy = H @ y
    yHy = float(y @ Hy)
    H += ((sy + yHy) / sy**2) * (s[:, None] * s)
    t = Hy[:, None] * s
    H -= (t + t.T) / sy
    return H


def _vector(v) -> np.ndarray:
    return np.atleast_1d(np.asarray(v, dtype=float))


def _inf_norm(v: np.ndarray) -> float:
    return float(np.maximum.reduce(np.abs(v), initial=0.0))


def _finite(v: np.ndarray) -> bool:
    return bool(np.logical_and.reduce(np.isfinite(v), axis=None))


class _Bounds:
    """Componentwise lower bounds, at least one of them finite.

    A component within ``tol`` of a finite bound counts as on it.
    """

    def __init__(self, lo: np.ndarray):
        self.lo = lo
        self.finite = np.isfinite(lo)
        self.tol = 1e-12 * np.maximum(1.0, np.abs(np.where(self.finite, lo, 0.0)))
        self.edge = lo + self.tol

    def project(self, x, g) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(g with the outward components on a bound zeroed, the on-bound
        mask, the mask of those outward components)."""
        at = self.finite & (x <= self.edge)
        outward = at & (g <= 0.0)
        return np.where(outward, 0.0, g), at, outward

    def snap(self, x) -> np.ndarray:
        return np.where(self.finite & (x - self.lo <= self.tol), self.lo, x)


def newton_maximize(f, grad_hess, x0, lower) -> OptResult:
    """Maximize a smooth function by projected Newton under lower bounds.

    ``grad_hess(x)`` returns the gradient and the Hessian at x; ``lower``
    holds componentwise bounds, ``-inf`` for a free component.  Each
    iteration follows Bertsekas (1982):

    1. A component within min(``EPS_ACTIVE``, projected gradient norm) of its
       bound whose gradient points outward is held in the epsilon-active set
       and moves only along its gradient; the other components take the
       Newton step of their Hessian block, by Cholesky, or with the
       eigenvalues of the negated block made positive when it is not
       positive definite.
    2. The projected step is tried at full length and halved until the
       objective rises by the Armijo fraction of the predicted gain, or moves
       by less than float noise (``FLAT`` relative) while the projected
       gradient shrinks.

    The projected gradient is P[x + g] - x, so a component on its bound with
    an outward gradient counts as stationary.  Iteration stops when its
    infinity-norm meets ``GRAD_TOL`` (``converged``), after
    ``NEWTON_MAX_ITER`` iterations, or when no halving is accepted.  A
    gradient or Hessian that is not finite at x0 returns x0 unconverged after
    0 iterations; an objective that is not finite there raises.  For a
    concave objective the returned point is the global maximum.
    """
    x = _vector(x0).copy()
    lo = np.broadcast_to(np.asarray(lower, dtype=float), x.shape)
    if np.any(x < lo):
        raise ValueError("infeasible starting point: need x0 >= lower")
    bounded = np.isfinite(lo)
    any_bound = bool(bounded.any())

    def projected_norm(x, g):
        # max(lo - x, g) is g itself where every lo is -inf
        return _inf_norm(np.maximum(lo - x, g) if any_bound else g)

    fx = float(f(x))
    if not math.isfinite(fx):
        raise ValueError("objective is not finite at the starting point")
    g, H = grad_hess(x)
    norm = projected_norm(x, g) if _finite(g) and _finite(H) else math.nan
    iters = 0
    while norm > GRAD_TOL and iters < NEWTON_MAX_ITER:
        active = bounded & (x - lo <= min(EPS_ACTIVE, norm)) & (g <= 0.0)
        some_active = bool(active.any())
        if some_active:
            free = ~active
            d = np.where(active, g, 0.0)
            d[free] = _newton_direction(H[np.ix_(free, free)], g[free])
            slope = float(g[free] @ d[free])
        else:
            d = _newton_direction(H, g)
            slope = float(g @ d)
        step = 1.0
        for _ in range(NEWTON_HALVINGS):
            x_new = x + step * d
            if any_bound:
                x_new = np.maximum(x_new, lo)
            f_new = float(f(x_new))
            if math.isfinite(f_new):
                gain = step * slope
                if some_active:
                    gain += float(g[active] @ (x_new - x)[active])
                armijo = f_new - fx >= ARMIJO * gain
                if armijo or abs(f_new - fx) <= FLAT * (abs(fx) + 1.0):
                    g_new, H_new = grad_hess(x_new)
                    norm_new = projected_norm(x_new, g_new)
                    if _finite(g_new) and _finite(H_new) and (armijo or norm_new < norm):
                        break
            step *= 0.5
        else:
            break
        x, fx, g, H, norm = x_new, f_new, g_new, H_new, norm_new
        iters += 1
    return OptResult(
        x=x,
        f=fx,
        grad_norm=norm,
        iterations=iters,
        converged=norm <= GRAD_TOL,
    )


def _newton_direction(H, g) -> np.ndarray:
    """Ascent direction d with -H d = g; where -H is not positive definite,
    its eigenvalues are replaced by their absolute values, floored at
    1e-8 of the largest."""
    try:
        L = np.linalg.cholesky(-H)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(-H)
        w = np.abs(w)
        w = np.maximum(w, 1e-8 * float(w.max(initial=0.0)) + 1e-300)
        return V @ ((V.T @ g) / w)
    return np.linalg.solve(L.T, np.linalg.solve(L, g))


def maximize(f, g, x0, lower) -> OptResult:
    """Maximize a smooth function with BFGS, optionally under lower bounds.

    Parameters
    ----------
    f, g : callables returning the objective value and gradient.
    x0 : starting point; f and g must be finite there.
    lower : componentwise lower bounds; ``-inf`` leaves a component
        unconstrained.

    With bounds this is gradient projection with BFGS updates on the free set.
    Convergence is declared on the projected gradient: components held at
    their bound with an outward-pointing gradient are excluded from the norm,
    and ``converged`` is set only when that infinity-norm meets ``GRAD_TOL``.
    For a concave objective the returned point is the global maximum; in
    general it is a stationary point.
    """
    x = _vector(x0).copy()
    lo = np.broadcast_to(np.asarray(lower, dtype=float), x.shape)
    if np.any(x < lo):
        raise ValueError("infeasible starting point: need x0 >= lower")
    # Without a finite bound the projection bookkeeping is skipped entirely.
    bounds = _Bounds(lo.copy()) if np.isfinite(lo).any() else None
    if bounds is not None:
        x = bounds.snap(x)
    fx = float(f(x))
    gx = _vector(g(x))
    if not math.isfinite(fx) or not _finite(gx):
        raise ValueError("objective or gradient is not finite at the starting point")
    H = np.eye(x.size)
    # The BFGS matrix lives on the free components, None when all are free;
    # it restarts whenever the set of outward components on a bound changes.
    free, prev_outward = None, None
    iters = 0
    while iters < MAX_ITER:
        pg = gx
        if bounds is not None:
            pg, at_bound, outward = bounds.project(x, gx)
        if _inf_norm(pg) <= GRAD_TOL:
            break
        amax = math.inf
        with np.errstate(over="ignore"):  # a gradient near the float limit gives inf slopes
            if bounds is None:
                d = H @ gx
                slope = float(gx @ d)
                if slope <= 0.0:
                    H = np.eye(x.size)
                    d = gx.copy()
                    slope = float(gx @ d)
            else:
                key = outward.tobytes()
                if key != prev_outward:
                    free = ~outward if outward.any() else None
                    H = np.eye(x.size if free is None else int(free.sum()))
                    prev_outward = key
                gf = gx if free is None else gx[free]
                d = _feasible(H @ gf, free, at_bound)
                slope = float(gx @ d)
                if slope <= 0.0:
                    H = np.eye(H.shape[0])
                    d = _feasible(gf, free, at_bound)
                    slope = float(gx @ d)
                moving_down = (d < 0.0) & bounds.finite
                if moving_down.any():
                    amax = float(np.minimum.reduce((bounds.lo[moving_down] - x[moving_down]) / d[moving_down]))
                    amax = max(amax, 0.0)
        trial = [None, None]  # the last step tried and its point
        cache: dict = {}

        def point(a):
            if a != trial[0]:
                trial[0], trial[1] = a, x + a * d
            return trial[1]

        def phi(a):
            return -float(f(point(a)))

        def dphi(a):
            ga = _vector(g(point(a)))
            cache["grad"] = (a, ga)
            return -float(ga @ d)

        a, phi_a, _ = _wolfe(phi, dphi, -fx, -slope, ARMIJO, CURVATURE, amax=amax)
        noise_step = a <= 0.0
        if noise_step:
            # Objective differences are at float-noise level; keep the full
            # quasi-Newton step if it still shrinks the gradient.
            a, phi_a, g_step = _noise_floor_step(f, g, point, fx, gx, amax=amax)
            if a <= 0.0:
                break
            cache["grad"] = (a, g_step)
        x_new = point(a)
        hit_wall = False
        if bounds is not None:
            x_step, x_new = x_new, bounds.snap(x_new)
            hit_wall = bool(((x_new == bounds.lo) & (x > bounds.lo)).any())
            if noise_step and not np.array_equal(x_new, x_step):
                cache.clear()  # the step's gradient was taken before the snap
        if hit_wall:
            f_new = float(f(x_new))
            g_new = _vector(g(x_new))
        else:
            f_new = -phi_a
            if "grad" in cache and cache["grad"][0] == a:
                g_new = cache["grad"][1]
            else:
                g_new = _vector(g(x_new))
        s = x_new - x
        if not hit_wall:
            sf, yf = s, gx - g_new  # gradient difference of the negated objective
            if free is not None:
                sf, yf = sf[free], yf[free]
            # sqrt(v.v) is np.linalg.norm(v), bit for bit
            if float(sf @ yf) > 1e-12 * (math.sqrt(sf.dot(sf)) * math.sqrt(yf.dot(yf)) + 1e-300):
                H = _bfgs_update(H, sf, yf)
            else:
                H = np.eye(sf.size)  # curvature lost near machine precision
        rel_step = _inf_norm(s) / max(1.0, _inf_norm(x_new))
        x, fx, gx = x_new, f_new, g_new
        iters += 1
        if rel_step <= STEP_TOL and not hit_wall:
            break
    pg = gx if bounds is None else bounds.project(x, gx)[0]
    grad_norm = _inf_norm(pg)
    return OptResult(
        x=x,
        f=fx,
        grad_norm=grad_norm,
        iterations=iters,
        converged=grad_norm <= GRAD_TOL,
    )


def _feasible(df, free, at_bound) -> np.ndarray:
    """The full-length direction with df on the free components (on all of
    them when ``free`` is None), never into a wall."""
    if free is None:
        return np.where(at_bound & (df < 0.0), 0.0, df)
    d = np.zeros(free.size)
    d[free] = df
    d[at_bound & (d < 0.0)] = 0.0
    return d


def _noise_floor_step(f, g, point, fx, gx, amax=1.0):
    """Last-resort unit step for when the line search cannot measure progress.

    Near the optimum the objective change along d drops below float noise and
    Armijo comparisons become meaningless; the quasi-Newton step is then
    essentially a Newton step, so accept it when it reduces the gradient norm
    without measurably hurting the objective.  ``point(a)`` is the trial
    point at step a along d.
    """
    a = min(1.0, amax)
    x_try = point(a)
    f_try = float(f(x_try))
    if not math.isfinite(f_try) or f_try < fx - 1e-10 * (abs(fx) + 1.0):
        return 0.0, -fx, gx
    g_try = _vector(g(x_try))
    if not _finite(g_try) or _inf_norm(g_try) >= _inf_norm(gx):
        return 0.0, -fx, gx
    return a, -f_try, g_try
