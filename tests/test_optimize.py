import math

import numpy as np
import pytest

from iupm import (
    DilutionLevelData,
    ErrorRates,
    ExtremeOutcome,
    fit_imperfect,
    fit_mle,
    fit_negbin,
)
from iupm import imperfect, inference, optimize
from iupm.imperfect import ImperfectModel, _Level, _level_loglik
from iupm.inference import _lineage_model, _total_model
from iupm.negbin import _nb_log_likelihood
from iupm.optimize import maximize, newton_maximize
from iupm.poisson import closed_form_full_udsa
from iupm.simulate import SimLevel, SimScenario, _rng_for, _simulate_until_regular
from helpers import (
    level_gradient,
    level_log_likelihood,
    negbin_objectives,
    reference_hessian_polish,
    reference_maximize,
    reference_maximize_box,
    reference_newton_polish,
    reference_newton_polish_total,
)


def quad_problem(P, b):
    def f(x):
        return float(-0.5 * x @ P @ x + b @ x)

    def g(x):
        return -(P @ x) + b

    return f, g, np.linalg.solve(P, b)


def iterate_values(monkeypatch, f, g, x0, lower):
    """The objective at each iterate of ``maximize``: the run stopped after
    1, 2, ... iterations, until it stops on its own."""
    values = []
    for cap in range(1, optimize.MAX_ITER + 1):
        monkeypatch.setattr(optimize, "MAX_ITER", cap)
        res = maximize(f, g, x0, lower)
        values.append(res.f)
        if res.iterations < cap:
            return values
    return values


class TestMaximize:
    def test_one_dimensional_quadratic(self):
        res = maximize(lambda x: -((x[0] - 3.0) ** 2), lambda x: np.array([-2.0 * (x[0] - 3.0)]), [0.0], -math.inf)
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
            res = maximize(f, g, rng.normal(size=n), -math.inf)
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

        res = maximize(f, g, np.array([-1.2, 1.0]), -math.inf)
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-6)

    def test_monotone_ascent(self, monkeypatch):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(4, 4))
        P = A @ A.T + 4 * np.eye(4)
        f, g, _ = quad_problem(P, rng.normal(size=4))
        values = iterate_values(monkeypatch, f, g, rng.normal(size=4), -math.inf)
        assert len(values) > 2
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_full_sequencing_loglik_matches_closed_form(self):
        level = DilutionLevelData(u=1.0, M=12, M_N=7, m=5, Y=(3, 2))
        res = maximize(
            lambda lam: level_log_likelihood(lam, level),
            lambda lam: level_gradient(lam, level),
            np.array([0.5, 0.5]),
            -math.inf,
        )
        np.testing.assert_allclose(res.x, closed_form_full_udsa(12, (3, 2)), atol=1e-8)

    def test_non_finite_start_raises(self):
        with pytest.raises(ValueError):
            maximize(lambda x: math.nan, lambda x: np.array([0.0]), [1.0], -math.inf)

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

        res = maximize(f, g, np.array([-1.2, 1.0]), -math.inf)
        assert not res.converged
        assert res.iterations == 3


class TestMaximizeBox:
    def test_active_bound(self):
        res = maximize(
            lambda x: -((x[0] + 1.0) ** 2), lambda x: np.array([-2.0 * (x[0] + 1.0)]), [1.0], [0.0]
        )
        assert res.converged
        assert res.x[0] == 0.0

    def test_inactive_bound(self):
        res = maximize(
            lambda x: -((x[0] - 2.0) ** 2), lambda x: np.array([-2.0 * (x[0] - 2.0)]), [0.5], [0.0]
        )
        assert res.converged
        assert res.x[0] == pytest.approx(2.0, abs=1e-9)

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
            active = res.x == lower  # a component within float noise of its bound is put on it
            assert np.all(res.x >= lower)
            assert np.all(grad_at[active] <= 1e-8)
            # projected stationarity: free coordinates have tiny gradient
            free = ~active
            if free.any():
                assert np.max(np.abs(grad_at[free])) <= 1e-7

    def test_unbounded_lower_agrees_with_maximize(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = rng.normal(size=(n, n))
            P = A @ A.T + n * np.eye(n)
            f, g, xstar = quad_problem(P, rng.normal(size=n))
            x0 = rng.normal(size=n)
            # a -inf bound on every component is the unbounded path that solve takes with a scalar -inf
            res_box = maximize(f, g, x0, np.full(n, -math.inf))
            res_unc = maximize(f, g, x0, -math.inf)
            assert np.array_equal(res_box.x, res_unc.x)
            assert (res_box.f, res_box.grad_norm, res_box.iterations, res_box.converged) == (
                res_unc.f, res_unc.grad_norm, res_unc.iterations, res_unc.converged
            )

    def test_infeasible_start_raises(self):
        with pytest.raises(ValueError):
            maximize(lambda x: -x[0] ** 2, lambda x: np.array([-2 * x[0]]), [-1.0], [0.0])

    def test_monotone_ascent(self, monkeypatch):
        values = iterate_values(
            monkeypatch,
            lambda x: -((x[0] + 1.0) ** 2) - (x[1] - 1.0) ** 2,
            lambda x: np.array([-2.0 * (x[0] + 1.0), -2.0 * (x[1] - 1.0)]),
            [2.0, 3.0],
            [0.0, 0.0],
        )
        assert len(values) > 1
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
            active = res.x <= lower
            assert np.all(res.x[active] == lower[active]) and np.all(grad_at[active] <= 1e-8)
            free = ~active
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
        assert res.converged and res.x[0] == 0.0

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

    def test_non_finite_hessian_at_start_returns_unconverged(self):
        def grad_hess(x):
            return np.array([-2 * x[0]]), np.array([[math.nan]])

        res = newton_maximize(lambda x: -x[0] ** 2, grad_hess, [1.0], [0.0])
        assert not res.converged and res.iterations == 0 and res.x.tolist() == [1.0]

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
    return (res.x.tobytes(), res.f, res.grad_norm, res.iterations, res.converged)


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


def former_polish(grad_hess, x, lower=None):
    """The former Newton polish from x on the gradient and Hessian of
    ``grad_hess``, as (x bytes, converged)."""
    def hess(xv, g, idx):
        return grad_hess(xv)[1][np.ix_(idx, idx)]

    return polished(reference_hessian_polish(lambda xv: grad_hess(xv)[0], hess, x, lower))


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
    """The one BFGS loop, and the Newton finish where it runs, return bit for
    bit what the separate unconstrained and bounded loops and the former
    polishers returned (``tests/helpers.py`` keeps those as ``reference_*``)."""

    def test_quadratics(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            A = rng.normal(size=(n, n))
            P = A @ A.T + n * np.eye(n)
            f, g, _ = quad_problem(P, rng.normal(size=n))
            x0 = rng.normal(size=n)
            assert outcome(maximize(f, g, x0, -math.inf)) == outcome(reference_maximize(f, g, x0))
            for lower in (rng.uniform(-0.5, 0.5, n), np.full(n, -math.inf)):
                start = np.maximum(x0, lower + 1.0) if np.isfinite(lower).all() else x0
                assert outcome(maximize(f, g, start, lower)) == outcome(
                    reference_maximize_box(f, g, start, lower)
                )

    def test_rosenbrock(self):
        f, g = negated_rosenbrock()
        for x0 in ([-1.2, 1.0], [2.0, -1.0], [0.0, 0.0]):
            x0 = np.array(x0)
            assert outcome(maximize(f, g, x0, -math.inf)) == outcome(reference_maximize(f, g, x0))
            lower = [-math.inf, -2.0]
            assert outcome(maximize(f, g, x0, lower)) == outcome(reference_maximize_box(f, g, x0, lower))

    def test_poisson_theta_objectives(self, monkeypatch):
        bfgs = spy(monkeypatch, optimize, "maximize")
        newton = spy(monkeypatch, optimize, "newton_maximize")
        finished = 0
        # replicates 75 and 88 (with UDSA) and 286 (without) end BFGS unconverged
        for rep in [*range(40), 75, 88, 286]:
            draw, _ = _simulate_until_regular(STUDY_MULTI, _rng_for(STUDY_MULTI.seed, rep))
            for assay in (draw.assay, draw.assay.strip_udsa()):
                bfgs.clear()
                newton.clear()
                fit_mle(assay)
                assert len(bfgs) == 1
                (f, g, x0, _), got = bfgs[0]
                assert got == outcome(reference_maximize(f, g, x0))
                # Newton finishes exactly the fits that BFGS leaves unconverged
                assert len(newton) == (0 if got[4] else 1)
                if not newton:
                    continue
                finished += 1
                (_, grad_hess, x, _), got = newton[0]
                assert (got[0], got[4]) == former_polish(grad_hess, x)
                if assay.n:
                    assert (got[0], got[4]) == polished(reference_newton_polish(x, assay))
                else:
                    # the former scalar polish steps to T e^s, not e^{log T + s}
                    T, converged, _ = reference_newton_polish_total(float(np.exp(x[0])), assay.levels)
                    assert got[4] == converged
                    T_got = float(np.exp(np.frombuffer(got[0])[0]))
                    assert T_got == pytest.approx(T, rel=1e-15, abs=0.0)
        assert finished == 3

    def test_bounded_negbin_objectives(self):
        # bounded BFGS on the negative-binomial objectives, from the Poisson
        # fit with gamma = 0.1
        for rep in range(20):
            draw, _ = _simulate_until_regular(LRT_NEGBIN, _rng_for(LRT_NEGBIN.seed, rep))
            f, g, lower = negbin_objectives(draw.assay)
            x0 = np.concatenate([np.log(np.maximum(fit_mle(draw.assay).tau_hat, 1e-8)), [0.1]])
            res = maximize(f, g, x0, lower)
            assert outcome(res) == outcome(reference_maximize_box(f, g, x0, lower))

    def test_bounded_imperfect_objectives(self, monkeypatch):
        bfgs = spy(monkeypatch, optimize, "maximize")
        newton = spy(monkeypatch, optimize, "newton_maximize")
        # replicates 10, 16 and 17 end BFGS unconverged
        for rep in [*range(6), 10, 16, 17]:
            draw, _ = _simulate_until_regular(STUDY_IMPERFECT, _rng_for(STUDY_IMPERFECT.seed, rep))
            fit_imperfect(ImperfectModel(rates=STUDY_IMPERFECT.rates, assays=draw.well_assays))
        assert len(bfgs) == 9
        # Newton finishes exactly the fits that BFGS leaves unconverged
        assert [args[2].tobytes() for args, _ in newton] == [got[0] for _, got in bfgs if not got[4]]
        assert len(newton) == 3
        for (f, g, x0, lower), got in bfgs:
            assert got == outcome(reference_maximize_box(f, g, x0, lower))
        for (_, grad_hess, x, lower), got in newton:
            assert (got[0], got[4]) == former_polish(grad_hess, x, lower)


def test_solve_evaluates_each_point_once(monkeypatch):
    """Within the last ``MEMO_SIZE`` points a solve evaluated, no point's
    bytes reach the objective a fit hands to the solve step twice."""
    solves = []
    real = optimize.solve

    def recorded(objective, *args):
        points = []
        solves.append(points)

        def spied(x):
            points.append(x.tobytes())
            return objective(x)

        return real(spied, *args)

    for module in (inference, imperfect):
        monkeypatch.setattr(module, "solve", recorded)
    for rep in range(40):
        draw, _ = _simulate_until_regular(STUDY_MULTI, _rng_for(STUDY_MULTI.seed, rep))
        fit_mle(draw.assay)
        fit_mle(draw.assay.strip_udsa())
    for rep in range(20):
        draw, _ = _simulate_until_regular(STUDY_IMPERFECT, _rng_for(STUDY_IMPERFECT.seed, rep))
        fit_imperfect(ImperfectModel(rates=STUDY_IMPERFECT.rates, assays=draw.well_assays))
    assert len(solves) == 100
    for points in solves:
        for i, key in enumerate(points):
            assert key not in points[max(0, i - optimize.MEMO_SIZE):i]


class TestLogLikIsTheLikelihoodAtTheEstimate:
    """A fit's ``log_lik`` is the value the solve step returned with its last
    point, not a second evaluation; it equals the model's likelihood
    evaluated again at the returned estimate, bit for bit."""

    def test_poisson_with_and_without_udsa(self):
        stripped_fits = 0
        # Newton finishes replicates 75 and 88 (with UDSA) and 286 (without)
        for rep in [*range(40), 75, 88, 286]:
            draw, _ = _simulate_until_regular(STUDY_MULTI, _rng_for(STUDY_MULTI.seed, rep))
            fit = fit_mle(draw.assay)
            assert fit.log_lik == _lineage_model(draw.assay)[0](fit.tau_hat)
            stripped = draw.assay.strip_udsa()
            fit = fit_mle(stripped)
            if fit.extreme is ExtremeOutcome.REGULAR:
                loglik = _total_model(stripped.levels)[0]
                assert fit.log_lik == loglik(fit.tau_hat)
                stripped_fits += 1
        assert stripped_fits >= 30

    def test_imperfect(self):
        for rep in range(40):
            draw, _ = _simulate_until_regular(STUDY_IMPERFECT, _rng_for(STUDY_IMPERFECT.seed, rep))
            fit = fit_imperfect(ImperfectModel(rates=STUDY_IMPERFECT.rates, assays=draw.well_assays))
            assert fit.log_lik == sum(
                _level_loglik(wa.u * fit.tau_hat, _Level(wa, STUDY_IMPERFECT.rates)) for wa in draw.well_assays
            )

    def test_negbin(self):
        for rep in range(40):
            draw, _ = _simulate_until_regular(LRT_NEGBIN, _rng_for(LRT_NEGBIN.seed, rep))
            nb = fit_negbin(draw.assay)
            with np.errstate(over="ignore", invalid="ignore"):
                assert nb.log_lik == _nb_log_likelihood(nb.tau_hat, nb.gamma_hat, draw.assay)
