import math

import numpy as np
import pytest

from iupm import DilutionLevelData, ErrorRates, fit_imperfect, fit_mle
from iupm import imperfect, inference, optimize
from iupm.imperfect import ImperfectModel
from iupm.optimize import maximize, newton_maximize, newton_polish
from iupm.poisson import closed_form_full_udsa, log_likelihood, gradient
from iupm.simulate import SimLevel, SimScenario, _rng_for, _simulate_until_regular
from helpers import (
    negbin_objectives,
    reference_fd_hessian,
    reference_fd_newton_polish,
    reference_maximize,
    reference_maximize_box,
    reference_newton_polish,
)


def quad_problem(P, b):
    def f(x):
        return float(-0.5 * x @ P @ x + b @ x)

    def g(x):
        return -(P @ x) + b

    return f, g, np.linalg.solve(P, b)


class TestMaximize:
    def test_one_dimensional_quadratic(self):
        res = maximize(lambda x: -((x[0] - 3.0) ** 2), lambda x: np.array([-2.0 * (x[0] - 3.0)]), [0.0])
        assert res.converged
        assert res.x[0] == pytest.approx(3.0, abs=1e-9)
        assert res.f == pytest.approx(0.0, abs=1e-16)

    def test_random_quadratics_converge_fast(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            A = rng.normal(size=(n, n))
            P = A @ A.T + n * np.eye(n)
            f, g, xstar = quad_problem(P, rng.normal(size=n))
            res = maximize(f, g, rng.normal(size=n))
            assert res.converged
            assert res.iterations <= n + 5
            np.testing.assert_allclose(res.x, xstar, atol=1e-7)

    def test_negated_rosenbrock(self):
        def f(x):
            return -((1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)

        def g(x):
            return -np.array(
                [
                    -2.0 * (1 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
                    200.0 * (x[1] - x[0] ** 2),
                ]
            )

        res = maximize(f, g, np.array([-1.2, 1.0]))
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-6)

    def test_monotone_ascent(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(4, 4))
        P = A @ A.T + 4 * np.eye(4)
        f, g, _ = quad_problem(P, rng.normal(size=4))
        values = []
        maximize(f, g, rng.normal(size=4), callback=lambda x, fx: values.append(fx))
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_full_sequencing_loglik_matches_closed_form(self):
        level = DilutionLevelData(u=1.0, M=12, M_N=7, m=5, Y=(3, 2))
        res = maximize(
            lambda lam: log_likelihood(lam, level),
            lambda lam: gradient(lam, level),
            np.array([0.5, 0.5]),
        )
        np.testing.assert_allclose(res.x, closed_form_full_udsa(12, (3, 2)), atol=1e-8)

    def test_non_finite_start_raises(self):
        with pytest.raises(ValueError):
            maximize(lambda x: math.nan, lambda x: np.array([0.0]), [1.0])

    def test_max_iter_flags_non_convergence(self, monkeypatch):
        monkeypatch.setattr(optimize, "MAX_ITER", 3)

        def f(x):
            return -((1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)

        def g(x):
            return -np.array(
                [
                    -2.0 * (1 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
                    200.0 * (x[1] - x[0] ** 2),
                ]
            )

        res = maximize(f, g, np.array([-1.2, 1.0]))
        assert not res.converged
        assert res.iterations == 3


class TestMaximizeBox:
    def test_active_bound(self):
        res = maximize(
            lambda x: -((x[0] + 1.0) ** 2), lambda x: np.array([-2.0 * (x[0] + 1.0)]), [1.0], [0.0]
        )
        assert res.converged
        assert res.x[0] == 0.0
        assert res.active_lower == (0,)

    def test_inactive_bound(self):
        res = maximize(
            lambda x: -((x[0] - 2.0) ** 2), lambda x: np.array([-2.0 * (x[0] - 2.0)]), [0.5], [0.0]
        )
        assert res.converged
        assert res.x[0] == pytest.approx(2.0, abs=1e-9)
        assert res.active_lower == ()

    def test_active_components_have_outward_gradient(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            A = rng.normal(size=(n, n))
            P = A @ A.T + n * np.eye(n)
            f, g, _ = quad_problem(P, rng.normal(size=n))
            lower = rng.uniform(-0.5, 0.5, n)
            res = maximize(f, g, lower + 1.0, lower)
            assert res.converged
            grad_at = g(res.x)
            for i in res.active_lower:
                assert grad_at[i] <= 1e-8
            # projected stationarity: free coordinates have tiny gradient
            free = [i for i in range(n) if i not in res.active_lower]
            if free:
                assert np.max(np.abs(grad_at[free])) <= 1e-7

    def test_unbounded_lower_agrees_with_maximize(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = rng.normal(size=(n, n))
            P = A @ A.T + n * np.eye(n)
            f, g, xstar = quad_problem(P, rng.normal(size=n))
            x0 = rng.normal(size=n)
            res_box = maximize(f, g, x0, np.full(n, -math.inf))
            res_unc = maximize(f, g, x0)
            assert np.array_equal(res_box.x, res_unc.x)
            assert (res_box.f, res_box.grad_norm, res_box.iterations, res_box.converged) == (
                res_unc.f, res_unc.grad_norm, res_unc.iterations, res_unc.converged
            )
            assert res_box.active_lower == res_unc.active_lower == ()

    def test_infeasible_start_raises(self):
        with pytest.raises(ValueError):
            maximize(lambda x: -x[0] ** 2, lambda x: np.array([-2 * x[0]]), [-1.0], [0.0])

    def test_monotone_ascent(self):
        values = []
        maximize(
            lambda x: -((x[0] + 1.0) ** 2) - (x[1] - 1.0) ** 2,
            lambda x: np.array([-2.0 * (x[0] + 1.0), -2.0 * (x[1] - 1.0)]),
            [2.0, 3.0],
            [0.0, 0.0],
            callback=lambda x, fx: values.append(fx),
        )
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def quad_grad_hess(P, b):
    def grad_hess(x):
        return -(P @ x) + b, -P

    return grad_hess


def negated_rosenbrock_newton():
    f, g = negated_rosenbrock()

    def grad_hess(x):
        H = -np.array([[2.0 - 400.0 * (x[1] - 3.0 * x[0] ** 2), -400.0 * x[0]], [-400.0 * x[0], 200.0]])
        return g(x), H

    return f, grad_hess


class TestNewtonMaximize:
    def test_quadratic_in_one_step(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            A = rng.normal(size=(n, n))
            P = A @ A.T + n * np.eye(n)
            b = rng.normal(size=n)
            f, _, xstar = quad_problem(P, b)
            res = newton_maximize(f, quad_grad_hess(P, b), rng.normal(size=n), np.full(n, -math.inf))
            assert res.converged and res.iterations == 1
            np.testing.assert_allclose(res.x, xstar, atol=1e-10)

    def test_bounded_quadratics_are_projected_stationary(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            A = rng.normal(size=(n, n))
            P = A @ A.T + n * np.eye(n)
            b = rng.normal(size=n)
            f, g, _ = quad_problem(P, b)
            lower = rng.uniform(-0.5, 0.5, n)
            res = newton_maximize(f, quad_grad_hess(P, b), lower + 1.0, lower)
            assert res.converged
            grad_at = g(res.x)
            for i in res.active_lower:
                assert res.x[i] == lower[i] and grad_at[i] <= 1e-8
            free = [i for i in range(n) if i not in res.active_lower]
            assert np.max(np.abs(grad_at[free]), initial=0.0) <= 1e-8
            ref = maximize(f, g, lower + 1.0, lower)
            assert res.f >= ref.f - 1e-12 * abs(ref.f)

    def test_active_bound_is_reached_exactly(self):
        res = newton_maximize(
            lambda x: -((x[0] + 1.0) ** 2),
            lambda x: (np.array([-2.0 * (x[0] + 1.0)]), np.array([[-2.0]])),
            [1.0],
            [0.0],
        )
        assert res.converged and res.x[0] == 0.0 and res.active_lower == (0,)

    def test_indefinite_hessian_takes_an_ascent_step(self):
        # the negated Rosenbrock function is not concave at (0, 1)
        f, grad_hess = negated_rosenbrock_newton()
        x0 = np.array([0.0, 1.0])
        assert np.linalg.eigvalsh(grad_hess(x0)[1]).max() > 0.0
        res = newton_maximize(f, grad_hess, x0, [-math.inf, -math.inf])
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-8)

    def test_infeasible_or_non_finite_start_raises(self):
        def grad_hess(x):
            return np.array([-2 * x[0]]), np.array([[-2.0]])

        with pytest.raises(ValueError):
            newton_maximize(lambda x: -x[0] ** 2, grad_hess, [-1.0], [0.0])
        with pytest.raises(ValueError):
            newton_maximize(lambda x: math.nan, grad_hess, [1.0], [0.0])

    def test_iteration_cap_flags_non_convergence(self, monkeypatch):
        monkeypatch.setattr(optimize, "NEWTON_MAX_ITER", 2)
        f, grad_hess = negated_rosenbrock_newton()
        res = newton_maximize(f, grad_hess, np.array([-1.2, 1.0]), [-math.inf, -math.inf])
        assert not res.converged and res.iterations == 2


def negated_rosenbrock():
    def f(x):
        return -((1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)

    def g(x):
        return -np.array(
            [-2.0 * (1 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2), 200.0 * (x[1] - x[0] ** 2)]
        )

    return f, g


def outcome(res):
    """An OptResult's fields, with x as bytes so that == compares every bit."""
    return (res.x.tobytes(), res.f, res.grad_norm, res.iterations, res.converged, res.active_lower)


def polished(out):
    """A polish's (x, converged), with x as bytes."""
    return out[0].tobytes(), out[1]


def spy(monkeypatch, module, name):
    """Record (args, outcome at return) of every call of module.name."""
    calls = []
    real = getattr(module, name)

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, outcome(out) if isinstance(out, optimize.OptResult) else polished(out)))
        return out

    monkeypatch.setattr(module, name, recorded)
    return calls


STUDY_MULTI = SimScenario(
    truth=1.0, n_dvl=6, levels=(SimLevel(0.5, 12, 0.0), SimLevel(1.0, 24, 0.5), SimLevel(2.0, 36, 1.0))
)
LRT_NEGBIN = SimScenario(
    truth=1.0, n_dvl=12, model="negbin", gamma=4.0,
    levels=(SimLevel(0.5, 30, 0.0), SimLevel(1.0, 60, 0.5), SimLevel(2.0, 90, 1.0)),
)
STUDY_IMPERFECT = SimScenario(
    truth=1.0, n_dvl=6, levels=(SimLevel(1.0, 32, 1.0),), model="imperfect",
    rates=ErrorRates(0.9, 0.9, 0.9, 0.9),
)


class TestMatchesReference:
    """The one BFGS loop and the one Newton polish return, bit for bit, what
    the separate unconstrained and bounded loops and the per-model polishers
    returned (``tests/helpers.py`` keeps those as ``reference_*``)."""

    def test_quadratics(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            A = rng.normal(size=(n, n))
            P = A @ A.T + n * np.eye(n)
            f, g, _ = quad_problem(P, rng.normal(size=n))
            x0 = rng.normal(size=n)
            assert outcome(maximize(f, g, x0)) == outcome(reference_maximize(f, g, x0))
            for lower in (rng.uniform(-0.5, 0.5, n), np.full(n, -math.inf)):
                start = np.maximum(x0, lower + 1.0) if np.isfinite(lower).all() else x0
                assert outcome(maximize(f, g, start, lower)) == outcome(
                    reference_maximize_box(f, g, start, lower)
                )

    def test_rosenbrock(self):
        f, g = negated_rosenbrock()
        for x0 in ([-1.2, 1.0], [2.0, -1.0], [0.0, 0.0]):
            x0 = np.array(x0)
            assert outcome(maximize(f, g, x0)) == outcome(reference_maximize(f, g, x0))
            lower = [-math.inf, -2.0]
            assert outcome(maximize(f, g, x0, lower)) == outcome(reference_maximize_box(f, g, x0, lower))

    def test_poisson_theta_objectives(self, monkeypatch):
        bfgs = spy(monkeypatch, inference, "maximize")
        polish = spy(monkeypatch, inference, "newton_polish")
        for rep in range(40):
            draw, _ = _simulate_until_regular(STUDY_MULTI, _rng_for(STUDY_MULTI.seed, rep))
            for assay in (draw.assay, draw.assay.strip_udsa()):
                bfgs.clear()
                polish.clear()
                fit_mle(assay)
                assert len(bfgs) == 1 and len(polish) == (1 if assay.n else 0)
                (f, g, x0), got = bfgs[0]
                assert got == outcome(reference_maximize(f, g, x0))
                if polish:
                    (_, _, x), got = polish[0]
                    assert got == polished(reference_newton_polish(x, assay))

    def test_bounded_negbin_objectives(self):
        # bounded BFGS and the finite-difference polish on the negative-binomial
        # objectives, from the Poisson fit with gamma = 0.1
        for rep in range(20):
            draw, _ = _simulate_until_regular(LRT_NEGBIN, _rng_for(LRT_NEGBIN.seed, rep))
            f, g, lower = negbin_objectives(draw.assay)
            x0 = np.concatenate([np.log(np.maximum(fit_mle(draw.assay).tau_hat, 1e-8)), [0.1]])
            res = maximize(f, g, x0, lower)
            assert outcome(res) == outcome(reference_maximize_box(f, g, x0, lower))
            got = newton_polish(g, reference_fd_hessian(g, lower), res.x, lower)
            assert polished(got) == polished(reference_fd_newton_polish(g, res.x, lower))

    def test_bounded_imperfect_objectives(self, monkeypatch):
        bfgs = spy(monkeypatch, imperfect, "maximize")
        polish = spy(monkeypatch, imperfect, "newton_polish")
        for rep in range(6):
            draw, _ = _simulate_until_regular(STUDY_IMPERFECT, _rng_for(STUDY_IMPERFECT.seed, rep))
            fit_imperfect(ImperfectModel(rates=STUDY_IMPERFECT.rates, assays=draw.well_assays))
        assert len(bfgs) == len(polish) == 6
        for ((f, g, x0, lower), got), ((grad, _, x, lower_p), _) in zip(bfgs, polish):
            assert got == outcome(reference_maximize_box(f, g, x0, lower))
            got_p = polished(newton_polish(grad, reference_fd_hessian(grad, lower_p), x, lower_p))
            assert got_p == polished(reference_fd_newton_polish(grad, x, lower_p))
