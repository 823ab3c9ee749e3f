"""Maximization under optional lower bounds: projected Newton, BFGS and a Newton polish.

:func:`newton_maximize` is projected Newton on an analytic Hessian under
lower bounds (Bertsekas 1982); the negative-binomial fit uses it.
:func:`maximize` runs BFGS with a strong-Wolfe line search; given lower bounds
it projects the gradient and keeps the BFGS matrix on the free components.
Internally the line search works on the negated objective, so the usual
strong-Wolfe conditions for minimization apply unchanged.  Line searches stall
once objective changes fall below float noise, so the fits finish with
:func:`newton_polish`, whose steps compare gradients only and take the
Hessian from the caller.  Bounded BFGS now serves only the imperfect-assay
fit; the Poisson fit runs BFGS without bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["OptResult", "newton_maximize", "maximize", "newton_polish"]

MAX_ITER = 10_000
GRAD_TOL = 1e-8     # infinity norm of the (projected) gradient
STEP_TOL = 1e-10    # relative parameter change
ARMIJO = 1e-4       # sufficient-decrease constant
CURVATURE = 0.9     # strong-Wolfe curvature constant
NEWTON_MAX_ITER = 100   # iteration cap of newton_maximize
NEWTON_HALVINGS = 40    # step halvings before newton_maximize gives up on a direction
EPS_ACTIVE = 1e-3       # widest gap to a bound that newton_maximize treats as on it
FLAT = 1e-12            # relative objective change below float noise


@dataclass
class OptResult:
    x: np.ndarray
    f: float
    grad_norm: float
    iterations: int
    converged: bool
    active_lower: tuple[int, ...] = field(default_factory=tuple)


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
    H += ((sy + yHy) / sy**2) * np.outer(s, s)
    H -= (np.outer(Hy, s) + np.outer(s, Hy)) / sy
    return H


def _vector(v) -> np.ndarray:
    return np.atleast_1d(np.asarray(v, dtype=float))


def _inf_norm(v) -> float:
    return float(np.abs(v).max()) if np.size(v) else 0.0


class _Bounds:
    """Componentwise lower bounds, at least one of them finite.

    A component within ``tol`` of a finite bound counts as on it.
    """

    def __init__(self, lo: np.ndarray):
        self.lo = lo
        self.finite = np.isfinite(lo)
        self.tol = 1e-12 * np.maximum(1.0, np.abs(np.where(self.finite, lo, 0.0)))

    @classmethod
    def of(cls, lower, shape) -> _Bounds | None:
        """The bounds ``lower`` for vectors of ``shape``, or None when no entry is finite."""
        if lower is None:
            return None
        bounds = cls(np.broadcast_to(np.asarray(lower, dtype=float), shape).copy())
        return bounds if bounds.finite.any() else None

    def project(self, x, g) -> tuple[np.ndarray, np.ndarray]:
        """(g with the outward components on a bound zeroed, the on-bound mask)."""
        at = self.finite & (x <= self.lo + self.tol)
        return np.where(at & (g <= 0.0), 0.0, g), at

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
    ``NEWTON_MAX_ITER`` iterations, or when no halving is accepted.  For a
    concave objective the returned point is the global maximum.
    """
    x = _vector(x0).copy()
    lo = np.broadcast_to(np.asarray(lower, dtype=float), x.shape)
    if np.any(x < lo):
        raise ValueError("infeasible starting point: need x0 >= lower")
    bounded = np.isfinite(lo)
    fx = float(f(x))
    g, H = grad_hess(x)
    if not (math.isfinite(fx) and _finite(g, H)):
        raise ValueError("objective, gradient or Hessian is not finite at the starting point")
    norm = _inf_norm(np.maximum(lo - x, g))
    iters = 0
    while norm > GRAD_TOL and iters < NEWTON_MAX_ITER:
        active = bounded & (x - lo <= min(EPS_ACTIVE, norm)) & (g <= 0.0)
        free = ~active
        d = np.where(active, g, 0.0)
        d[free] = _newton_direction(H[np.ix_(free, free)], g[free])
        slope = float(g[free] @ d[free])
        step = 1.0
        for _ in range(NEWTON_HALVINGS):
            x_new = np.maximum(x + step * d, lo)
            f_new = float(f(x_new))
            if math.isfinite(f_new):
                armijo = f_new - fx >= ARMIJO * (step * slope + float(g[active] @ (x_new - x)[active]))
                if armijo or abs(f_new - fx) <= FLAT * (abs(fx) + 1.0):
                    g_new, H_new = grad_hess(x_new)
                    norm_new = _inf_norm(np.maximum(lo - x_new, g_new))
                    if _finite(g_new, H_new) and (armijo or norm_new < norm):
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
        active_lower=tuple(int(i) for i in np.flatnonzero(bounded & (x <= lo))),
    )


def _finite(g, H) -> bool:
    return bool(np.all(np.isfinite(g)) and np.all(np.isfinite(H)))


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


def maximize(f, g, x0, lower=None, callback=None) -> OptResult:
    """Maximize a smooth function with BFGS, optionally under lower bounds.

    Parameters
    ----------
    f, g : callables returning the objective value and gradient.
    x0 : starting point; f and g must be finite there.
    lower : optional componentwise lower bounds; ``-inf`` leaves a component
        unconstrained.
    callback : optional, called as ``callback(x, fx)`` after each accepted step.

    With bounds this is gradient projection with BFGS updates on the free set.
    Convergence is declared on the projected gradient: components held at
    their bound with an outward-pointing gradient are excluded from the norm,
    and ``converged`` is set only when that infinity-norm meets ``GRAD_TOL``.
    For a concave objective the returned point is the global maximum; in
    general it is a stationary point.
    """
    x = _vector(x0).copy()
    if lower is not None and np.any(x < lower):
        raise ValueError("infeasible starting point: need x0 >= lower")
    # Without a finite bound the projection bookkeeping is skipped entirely.
    bounds = _Bounds.of(lower, x.shape)
    if bounds is not None:
        x = bounds.snap(x)
    fx = float(f(x))
    gx = _vector(g(x))
    if not math.isfinite(fx) or not np.all(np.isfinite(gx)):
        raise ValueError("objective or gradient is not finite at the starting point")
    H = np.eye(x.size)
    prev_free = None
    iters = 0
    while iters < MAX_ITER:
        pg = gx
        if bounds is not None:
            pg, at_bound = bounds.project(x, gx)
        if _inf_norm(pg) <= GRAD_TOL:
            break
        amax = math.inf
        if bounds is None:
            d = H @ gx
            if float(d @ gx) <= 0.0:
                H = np.eye(x.size)
                d = gx.copy()
        else:
            free = ~(at_bound & (gx <= 0.0))
            key = free.tobytes()
            if key != prev_free:
                H = np.eye(int(free.sum()))
                prev_free = key
            d = _feasible(H @ gx[free], free, at_bound)
            if float(d @ gx) <= 0.0:
                H = np.eye(H.shape[0])
                d = _feasible(gx[free], free, at_bound)
            moving_down = (d < 0.0) & bounds.finite
            if np.any(moving_down):
                amax = float(np.min((bounds.lo[moving_down] - x[moving_down]) / d[moving_down]))
                amax = max(amax, 0.0)
        cache: dict = {}

        def phi(a):
            return -float(f(x + a * d))

        def dphi(a):
            ga = _vector(g(x + a * d))
            cache["grad"] = (a, ga)
            return -float(ga @ d)

        a, phi_a, _ = _wolfe(phi, dphi, -fx, -float(gx @ d), ARMIJO, CURVATURE, amax=amax)
        noise_step = a <= 0.0
        if noise_step:
            # Objective differences are at float-noise level; keep the full
            # quasi-Newton step if it still shrinks the gradient.
            a, phi_a, g_step = _noise_floor_step(f, g, x, d, fx, gx, amax=amax)
            if a <= 0.0:
                break
            cache["grad"] = (a, g_step)
        x_new = x + a * d
        hit_wall = False
        if bounds is not None:
            x_step, x_new = x_new, bounds.snap(x_new)
            hit_wall = bool(np.any((x_new == bounds.lo) & (x > bounds.lo)))
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
            if bounds is not None:
                sf, yf = sf[free], yf[free]
            if float(sf @ yf) > 1e-12 * (np.linalg.norm(sf) * np.linalg.norm(yf) + 1e-300):
                H = _bfgs_update(H, sf, yf)
            else:
                H = np.eye(sf.size)  # curvature lost near machine precision
        rel_step = _inf_norm(s) / max(1.0, _inf_norm(x_new))
        x, fx, gx = x_new, f_new, g_new
        iters += 1
        if callback is not None:
            callback(x.copy(), fx)
        if rel_step <= STEP_TOL and not hit_wall:
            break
    pg, active_lower = gx, ()
    if bounds is not None:
        pg, at_bound = bounds.project(x, gx)
        active_lower = tuple(int(i) for i in np.flatnonzero(at_bound))
    grad_norm = _inf_norm(pg)
    return OptResult(
        x=x,
        f=fx,
        grad_norm=grad_norm,
        iterations=iters,
        converged=grad_norm <= GRAD_TOL,
        active_lower=active_lower,
    )


def _feasible(df, free, at_bound) -> np.ndarray:
    """The full-length direction with df on the free components, never into a wall."""
    d = np.zeros(free.size)
    d[free] = df
    d[at_bound & (d < 0.0)] = 0.0
    return d


def _noise_floor_step(f, g, x, d, fx, gx, amax=1.0):
    """Last-resort unit step for when the line search cannot measure progress.

    Near the optimum the objective change along d drops below float noise and
    Armijo comparisons become meaningless; the quasi-Newton step is then
    essentially a Newton step, so accept it when it reduces the gradient norm
    without measurably hurting the objective.
    """
    a = min(1.0, amax)
    x_try = x + a * d
    f_try = float(f(x_try))
    if not math.isfinite(f_try) or f_try < fx - 1e-10 * (abs(fx) + 1.0):
        return 0.0, -fx, gx
    g_try = _vector(g(x_try))
    if not np.all(np.isfinite(g_try)) or _inf_norm(g_try) >= _inf_norm(gx):
        return 0.0, -fx, gx
    return a, -f_try, g_try


def newton_polish(grad, hess, x, lower=None, max_steps=8):
    """Newton refinement from x until the projected gradient meets ``GRAD_TOL``.

    Line searches cannot measure objective changes once they fall below float
    noise, which can strand the gradient just above a tight tolerance; Newton
    steps need no objective comparisons.  ``hess(x, g, idx)`` returns the
    Hessian block on the free components ``idx`` at x, where ``g = grad(x)``;
    without a finite bound ``idx`` holds every component.  Components at a
    finite lower bound with an outward gradient stay put and are excluded
    from the projected norm.  A step is kept only when it shrinks that norm.
    Returns (x, converged).
    """
    x = _vector(x).copy()
    bounds = _Bounds.of(lower, x.shape)
    every = np.arange(x.size)

    def projected(xv, gv):
        if bounds is None:
            return _inf_norm(gv), every
        pg, at = bounds.project(xv, gv)
        return _inf_norm(pg), np.flatnonzero(~(at & (gv <= 0.0)))

    g = _vector(grad(x))
    norm, idx = projected(x, g)
    for _ in range(max_steps):
        if norm <= GRAD_TOL:
            return x, True
        try:
            step = np.linalg.solve(hess(x, g, idx), -g[idx])
        except np.linalg.LinAlgError:
            break
        cand = x.copy()
        cand[idx] += step
        if bounds is not None:
            cand = np.maximum(cand, bounds.lo)
        g_new = _vector(grad(cand))
        if not np.all(np.isfinite(g_new)):
            break
        norm_new, idx_new = projected(cand, g_new)
        if norm_new >= norm:
            break
        x, g, norm, idx = cand, g_new, norm_new, idx_new
    return x, norm <= GRAD_TOL
