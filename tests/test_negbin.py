import math
import warnings

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
from iupm.negbin import _nb_gradient
from iupm.simulate import SimLevel, SimScenario, _rng_for, _simulate_until_regular
from helpers import direct_nb_log_likelihood, fd_gradient, random_level


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
            g_tau, g_gamma = _nb_gradient(tau, gamma, assay)
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
            _, score = _nb_gradient(pois.tau_hat, 0.0, draw.assay)
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
