import math
import warnings
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iupm import (
    DilutionLevelData,
    IdentifiabilityError,
    MultiDilutionAssay,
    fit_mle,
    fit_negbin,
    lrt_from_loglik,
    lrt_overdispersion,
    multi_log_likelihood,
    nb_log_likelihood,
    nb_zero_prob,
)
from iupm import optimize
from iupm.negbin import _SERIES_EDGE, _gamma_derivatives, _nb_grad_hess
from iupm.simulate import SimLevel, SimScenario, _rng_for, _simulate_until_regular
from helpers import (
    direct_nb_log_likelihood,
    fd_gradient,
    nb_gradient,
    negbin_objectives,
    random_level,
    reference_fit_negbin,
)

LRT_NEGBIN = SimScenario(
    truth=1.0, n_dvl=12, model="negbin", gamma=4.0,
    levels=(SimLevel(0.5, 30, 0.0), SimLevel(1.0, 60, 0.5), SimLevel(2.0, 90, 1.0)),
)
# On this assay the likelihood keeps rising as gamma and one rate grow without bound.
RUNAWAY = MultiDilutionAssay(
    (DilutionLevelData(2.0, 12, 7, 3, (1, 3)), DilutionLevelData(0.5, 3, 2, 1, (1, 1), q=0.5)), 2
)


def two_level_assay(rng, n=3):
    while True:
        lv1 = random_level(rng, n=n, M=18, u=1.0)
        lv2 = random_level(rng, n=n, M=24, u=2.0)
        pooled = lv1.y_array() + lv2.y_array()
        if np.all(pooled >= 1) and (lv1.M_N > 0 or lv2.M_N > 0):
            return MultiDilutionAssay((lv1, lv2), n)


class TestZeroProbability:
    def test_poisson_limit(self):
        assert nb_zero_prob(1.0, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_unit_dispersion(self):
        assert nb_zero_prob(1.0, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_continuity_at_the_boundary(self):
        assert nb_zero_prob(0.7, 1e-8) == pytest.approx(math.exp(-0.7), abs=1e-7)

    @given(
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_is_a_probability(self, lam, gamma):
        p = nb_zero_prob(lam, gamma)
        assert 0.0 < p < 1.0

    def test_overflowing_dispersion_raises_no_warning(self):
        assay = MultiDilutionAssay(
            (DilutionLevelData(2.0, 12, 7, 3, (1, 3)), DilutionLevelData(0.5, 3, 2, 1, (1, 1))), 2
        )
        tau = np.array([1e300, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p = nb_zero_prob(tau, 1e300)
            ll = nb_log_likelihood(tau, 1e300, assay)
        assert p[0] == 0.0 and 0.0 <= p[1] <= 1.0
        assert ll == -math.inf


class TestLogLikelihood:
    def test_gamma_zero_equals_poisson(self):
        rng = np.random.default_rng(6)
        assay = two_level_assay(rng)
        tau = rng.uniform(0.05, 0.5, assay.n)
        assert nb_log_likelihood(tau, 0.0, assay) == pytest.approx(
            multi_log_likelihood(tau, assay), abs=1e-10
        )

    def test_single_level_profile_is_flat(self):
        # two parameter pairs with identical per-well zero probability give
        # identical single-level likelihoods: not identifiable from one level
        lv = DilutionLevelData(u=1.0, M=10, M_N=4, m=3, Y=(2, 2))
        assay = MultiDilutionAssay((lv,), 2)
        a = nb_log_likelihood(np.array([1.0, 1.0]), 2.0, assay)
        b = nb_log_likelihood(np.array([math.sqrt(3.0) - 1.0] * 2), 1.0, assay)
        assert a == pytest.approx(b, rel=1e-12)

    def test_matches_independent_direct_evaluation(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            assay = two_level_assay(rng)
            tau = rng.uniform(0.05, 0.8, assay.n)
            gamma = float(rng.uniform(0.0, 3.0))
            assert nb_log_likelihood(tau, gamma, assay) == pytest.approx(
                direct_nb_log_likelihood(tau, gamma, assay), rel=1e-10
            )

    def test_continuity_invariant(self):
        rng = np.random.default_rng(21)
        assay = two_level_assay(rng)
        tau = rng.uniform(0.1, 0.4, assay.n)
        assert nb_log_likelihood(tau, 1e-6, assay) == pytest.approx(
            multi_log_likelihood(tau, assay), abs=1e-4
        )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            assay = two_level_assay(rng)
            tau = rng.uniform(0.08, 0.6, assay.n)
            gamma = float(rng.uniform(0.05, 2.0))
            g_tau, g_gamma = nb_gradient(tau, gamma, assay)
            fd = fd_gradient(
                lambda x: nb_log_likelihood(x[:-1], float(x[-1]), assay),
                np.concatenate([tau, [gamma]]),
            )
            np.testing.assert_allclose(
                np.concatenate([g_tau, [g_gamma]]), fd, rtol=1e-5, atol=1e-5
            )


class TestFitNegbin:
    def test_single_level_rejected(self):
        lv = DilutionLevelData(u=1.0, M=10, M_N=4, m=3, Y=(2, 2))
        with pytest.raises(IdentifiabilityError):
            fit_negbin(MultiDilutionAssay((lv,), 2))

    def test_boundary_solution_equals_poisson_fit(self):
        pinned = 0
        for rep in range(25):
            scn = SimScenario(
                truth=1.0,
                n_dvl=6,
                levels=(SimLevel(0.5, 30, 0.0), SimLevel(1.0, 60, 0.5), SimLevel(2.0, 90, 1.0)),
                model="negbin",
                gamma=0.0,
                reps=1,
                seed=400 + rep,
            )
            draw, _ = _simulate_until_regular(scn, _rng_for(scn.seed, 0))
            nb = fit_negbin(draw.assay)
            if nb.gamma_hat == 0.0:
                pinned += 1
                pois = fit_mle(draw.assay)
                np.testing.assert_allclose(nb.tau_hat, pois.tau_hat, atol=1e-6)
                assert nb.log_lik == pytest.approx(pois.log_lik, abs=1e-8)
        assert pinned >= 5  # the boundary case is common under no overdispersion

    def test_pinning_agrees_with_boundary_score(self):
        # gamma stays at zero exactly when the dispersion score at the
        # Poisson fit points outward (up to likelihood-flat hairline cases)
        agree = total = 0
        for rep in range(30):
            scn = SimScenario(
                truth=1.0,
                n_dvl=12,
                levels=(SimLevel(0.5, 6, 0.0), SimLevel(1.0, 12, 0.5), SimLevel(2.0, 18, 1.0)),
                model="negbin",
                gamma=0.0,
                reps=1,
                seed=600 + rep,
            )
            draw, _ = _simulate_until_regular(scn, _rng_for(scn.seed, 0))
            pois = fit_mle(draw.assay)
            _, score = nb_gradient(pois.tau_hat, 0.0, draw.assay)
            nb = fit_negbin(draw.assay)
            total += 1
            agree += (nb.gamma_hat == 0.0) == (score <= 0.0)
        assert agree >= int(0.9 * total)

    def test_heavy_overdispersion_reduces_bias(self):
        # when the counts really are overdispersed the Poisson fit shrinks
        # toward zero while the overdispersed fit stays near the truth
        nb_med, pois_med = [], []
        scn = SimScenario(
            truth=1.0,
            n_dvl=12,
            levels=(SimLevel(0.5, 30, 0.0), SimLevel(1.0, 60, 0.5), SimLevel(2.0, 90, 1.0)),
            model="negbin",
            gamma=4.0,
            reps=1,
            seed=1009,
        )
        for rep in range(80):
            draw, _ = _simulate_until_regular(scn, _rng_for(scn.seed, rep))
            nb = fit_negbin(draw.assay)
            if not nb.converged:
                continue
            nb_med.append(nb.iupm)
            pois_med.append(fit_mle(draw.assay).iupm)
        nb_med, pois_med = np.median(nb_med), np.median(pois_med)
        assert abs(nb_med - 1.0) < abs(pois_med - 1.0)
        assert pois_med < 1.0


class TestLrt:
    @pytest.mark.parametrize(
        "statistic,p3",
        [(7.469, 0.003), (0.0, 1.000)],
    )
    def test_reference_mapping(self, statistic, p3):
        res = lrt_from_loglik(0.0, statistic / 2.0)
        assert round(res.p_value, 3) == p3

    def test_mapping_near_quarter(self):
        # 0.5 * upper tail at 0.412 is 0.260478; the published pair
        # (0.412, 0.261) arises from the unrounded statistic
        res = lrt_from_loglik(0.0, 0.412 / 2.0)
        assert res.p_value == pytest.approx(0.2604780629889923, rel=1e-12)
        rounded = {round(lrt_from_loglik(0.0, s / 2.0).p_value, 3) for s in (0.4115, 0.412, 0.4125)}
        assert 0.261 in rounded

    def test_tiny_differences_floor_to_zero(self):
        res = lrt_from_loglik(10.0, 10.0 + 1e-9)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_p_value_monotone_in_statistic(self):
        stats = np.linspace(0.01, 20.0, 200)
        ps = [lrt_from_loglik(0.0, s / 2.0).p_value for s in stats]
        assert all(b < a for a, b in zip(ps, ps[1:]))

    @settings(max_examples=15)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_statistic_never_negative(self, seed):
        scn = SimScenario(
            truth=1.0,
            n_dvl=6,
            levels=(SimLevel(1.0, 12, 0.5), SimLevel(2.0, 18, 1.0)),
            model="negbin",
            gamma=0.0,
            reps=1,
            seed=seed,
        )
        draw, _ = _simulate_until_regular(scn, _rng_for(scn.seed, 0))
        res = lrt_overdispersion(draw.assay)
        assert res.statistic >= 0.0
        assert 0.0 <= res.p_value <= 1.0


def theta_gradient(x, assay):
    """The gradient in (log tau, gamma), from the tau-gradient of ``nb_gradient``."""
    return negbin_objectives(assay)[1](x)


def fd_theta_hessian(x, assay, h=1e-5):
    """Central differences of ``theta_gradient``; at gamma = 0 the gamma column
    is the second-order forward difference, since eff is not continued below 0."""
    n = x.size - 1
    H = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        step = np.zeros(n + 1)
        step[i] = h * max(1.0, abs(x[i]))
        if i == n and x[n] == 0.0:
            H[:, i] = (
                -3.0 * theta_gradient(x, assay)
                + 4.0 * theta_gradient(x + step, assay)
                - theta_gradient(x + 2.0 * step, assay)
            ) / (2.0 * step[i])
        else:
            H[:, i] = (theta_gradient(x + step, assay) - theta_gradient(x - step, assay)) / (2.0 * step[i])
    return H


def random_assay(rng, D, n=3):
    while True:
        levels = tuple(random_level(rng, n=n, M=18 + 6 * d, u=(0.5, 1.0, 2.0)[d]) for d in range(D))
        if np.all(sum(lv.y_array() for lv in levels) >= 1):
            return MultiDilutionAssay(levels, n)


def exact_gamma_derivatives(lam, gamma):
    """d eff/d gamma and d^2 eff/d gamma^2 from their closed forms in 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(gamma) * Decimal(lam)
        log1p, y, g = (1 + x).ln(), x / (1 + x), Decimal(gamma)
        return float((y - log1p) / g**2), float((2 * log1p - 2 * y - y * y) / g**3)


class TestHessian:
    @pytest.mark.parametrize("D", [1, 2, 3])
    def test_matches_central_differences_of_the_gradient(self, D):
        rng = np.random.default_rng(70 + D)
        for _ in range(6):
            assay = random_assay(rng, D)
            tau = rng.uniform(0.05, 0.8, assay.n)
            lam_max = max(lv.u for lv in assay.levels) * float(tau.max())
            # gamma = 0; gamma*lam inside the series branch; one rate on the
            # branch edge and the others below it; moderate dispersion
            for gamma in (0.0, 1e-3, _SERIES_EDGE / lam_max, 0.7, 3.0):
                x = np.concatenate([np.log(tau), [gamma]])
                g, H = _nb_grad_hess(x, assay)
                np.testing.assert_allclose(g, theta_gradient(x, assay), rtol=1e-12, atol=1e-12)
                fd = fd_theta_hessian(x, assay)
                np.testing.assert_allclose(H, fd, rtol=1e-6, atol=1e-6 * float(np.abs(fd).max()))
                assert np.array_equal(H, H.T)

    def test_gamma_derivatives_are_accurate_across_the_series_edge(self):
        for x in (1e-12, 1e-6, 1e-3, 0.05, 0.0999, _SERIES_EDGE, 0.10001, 0.3, 1.0, 10.0, 1e5):
            for lam in (0.01, 0.3, 2.0):
                d1, d2 = _gamma_derivatives(np.array([lam]), x / lam)
                e1, e2 = exact_gamma_derivatives(lam, x / lam)
                assert d1[0] == pytest.approx(e1, rel=1e-14)
                assert d2[0] == pytest.approx(e2, rel=1e-13)

    def test_gamma_zero_limits(self):
        lam = np.array([0.2, 1.5])
        d1, d2 = _gamma_derivatives(lam, 0.0)
        np.testing.assert_array_equal(d1, -0.5 * lam**2)
        np.testing.assert_allclose(d2, 2.0 * lam**3 / 3.0, rtol=1e-15)

    def test_finite_without_warnings_up_to_the_float_limit(self):
        rng = np.random.default_rng(5)
        assay = random_assay(rng, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for gamma in (1e-3, 1.0, 1e3):
                for x_max in (1e-3, 0.1, 10.0, 1e10, 1e100, 1e300):
                    # per-million rates whose largest gamma * lam is 2 x_max at u = 2
                    tau = x_max / gamma * np.array([1.0, 1e-3, 1e-6])
                    g, H = _nb_grad_hess(np.concatenate([np.log(tau), [gamma]]), assay)
                    assert np.all(np.isfinite(g)) and np.all(np.isfinite(H))


def fits(scenario, reps):
    """(Poisson fit, new fit, former fit) on the first ``reps`` regular draws."""
    for rep in range(reps):
        draw, _ = _simulate_until_regular(scenario, _rng_for(scenario.seed, rep))
        pois = fit_mle(draw.assay)
        yield pois, fit_negbin(draw.assay, pois=pois), reference_fit_negbin(draw.assay, pois)


def assert_matches_former_fit(pois, nb, ref):
    assert nb.converged
    assert nb.log_lik >= ref.log_lik - 1e-12 * abs(ref.log_lik)
    new, old = lrt_from_loglik(pois.log_lik, nb.log_lik), lrt_from_loglik(pois.log_lik, ref.log_lik)
    assert new.statistic == pytest.approx(old.statistic, abs=1e-12)
    assert (new.p_value <= 0.05) == (old.p_value <= 0.05)


@pytest.fixture
def newton_runs(monkeypatch):
    """The results of every ``newton_maximize`` call the negbin fit makes: the
    calls bounded below, by gamma >= 0, not the Poisson fits' unbounded ones."""
    runs = []
    real = optimize.newton_maximize

    def recorded(*args):
        out = real(*args)
        if np.isfinite(args[3]).any():
            runs.append(out)
        return out

    monkeypatch.setattr(optimize, "newton_maximize", recorded)
    return runs


class TestAgainstFormerFit:
    """Projected Newton against the former bounded BFGS fit (``reference_fit_negbin``)."""

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 4.0])
    def test_lrt_scenario_draws(self, newton_runs, gamma):
        for pois, nb, ref in fits(replace(LRT_NEGBIN, gamma=gamma), 40):
            assert_matches_former_fit(pois, nb, ref)
        assert len(newton_runs) == 40 and all(run.converged for run in newton_runs)

    # Replicates of the lrt-negbin benchmark at seed 5 (chunks 1/3, 4/4 and
    # 18/1) on which projected Newton without the epsilon-active set and the
    # float-noise acceptance runs to its iteration cap: the first two end on
    # gamma = 0, the third stalls at a gradient norm of 1.6e-7.
    @pytest.mark.parametrize(
        "seed,rep,at_zero",
        [(7447788103991204, 3, True), (62451147619527799, 4, True), (71270300854264792, 1, False)],
    )
    def test_hard_replicates_converge(self, newton_runs, seed, rep, at_zero):
        scenario = replace(LRT_NEGBIN, seed=seed)
        draw, _ = _simulate_until_regular(scenario, _rng_for(seed, rep))
        pois = fit_mle(draw.assay)
        nb = fit_negbin(draw.assay, pois=pois)
        assert_matches_former_fit(pois, nb, reference_fit_negbin(draw.assay, pois))
        (run,) = newton_runs
        assert run.converged and run.iterations <= 10
        assert (run.x[-1] == 0.0) == at_zero

    def test_runaway_assay_stays_unconverged(self, newton_runs):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            nb = fit_negbin(RUNAWAY)
        (run,) = newton_runs
        assert not nb.converged and not run.converged
        assert run.iterations <= optimize.NEWTON_MAX_ITER
        assert nb.log_lik > fit_mle(RUNAWAY).log_lik
