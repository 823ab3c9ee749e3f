import math

import numpy as np
import pytest

from iupm import (
    DilutionLevelData,
    ErrorRates,
    ExtremeOutcome,
    ImperfectModel,
    LevelPass,
    MultiDilutionAssay,
    WellAssay,
    a_matrices,
    bias_term,
    bias_correct,
    fisher_information_multi,
    fit_imperfect,
    fit_mle,
)
from iupm.inference import covariance, level_params
from iupm.simulate import SimLevel, SimScenario, _rng_for, _simulate_until_regular
from helpers import random_regular_assay, reference_a_blocks, reference_bias_term


def fit_bc(assay):
    """The bias-corrected MLE of ``assay``."""
    return bias_correct(fit_mle(assay))


class TestThirdDerivativeExpectations:
    def test_full_sequencing_closed_form(self):
        # with every positive well sequenced the mixed entries and the
        # derivative of the off-diagonal information vanish exactly, and the
        # diagonal reduces to M (e^lam + 1) / (e^lam - 1)^2
        lam = 0.5
        t = math.expm1(lam)
        for M in (12, 380, 200_000):
            comps = a_matrices(LevelPass(np.array([lam]), [(1.0, M, 1.0)]))
            assert comps.d_common == comps.third_common == 0.0
            assert comps.third_diag[0] == pytest.approx(M * (t + 2.0) / (t * t), rel=1e-10)

    def test_exchangeable_rates(self):
        diag = a_matrices(LevelPass(np.array([0.2, 0.2, 0.2]), [(1.0, 18, 0.5)])).third_diag
        assert np.ptp(diag) < 1e-12

    def test_matches_monte_carlo_average(self):
        # E[third derivative] estimated by averaging the data-dependent
        # formula over simulated assays
        rng = np.random.default_rng(2023)
        lam = np.array([0.4, 0.6])
        M, q, reps = 24, 0.5, 200_000
        Z = rng.random((reps, M, 2)) < (1.0 - np.exp(-lam))
        W = Z.any(axis=2)
        MP = W.sum(axis=1)
        m = np.round(q * MP).astype(int)  # round-half-even, same rule as nint
        # choose sequenced wells uniformly: rank positive wells by random keys
        keys = np.where(W, rng.random((reps, M)), np.inf)
        order = np.argsort(keys, axis=1)
        R = np.zeros((reps, M), dtype=bool)
        rows = np.arange(reps)
        for j in range(M):
            take = j < m
            R[rows[take], order[take, j]] = True
        Y = (Z & R[:, :, None]).sum(axis=1)
        tL = math.expm1(float(lam.sum()))
        t0 = np.expm1(lam[0])
        unseq = W.sum(axis=1) - m  # positive wells left unsequenced
        common_term = unseq * (tL + 1.0) * (tL + 2.0) / tL**3
        diag_draws = Y[:, 0] * (t0 + 1.0) * (t0 + 2.0) / t0**3 + common_term
        comps = a_matrices(LevelPass(lam, [(1.0, M, q)]))
        common, diag = comps.third_common, comps.third_diag
        for draws, target in ((diag_draws, diag[0]), (common_term, common)):
            mc, se = draws.mean(), draws.std(ddof=1) / math.sqrt(reps)
            assert abs(mc - target) <= 4.0 * se, (mc, target, se)


class TestAMatrices:
    def test_one_parameter_no_sequencing_kernel(self):
        # d info/d rate = -M e^L / (e^L - 1)^2 and E[l'''] = M (e^L + 1) /
        # (e^L - 1)^2 combine to the kernel M / (2 (e^L - 1))
        M, Lam = 12, 1.0
        comps = a_matrices(LevelPass(np.array([Lam]), [(1.0, M, 0.0)]))
        kernel = reference_a_blocks(comps)[0][0][0, 0]
        assert kernel == pytest.approx(M / (2.0 * math.expm1(Lam)), rel=1e-4)

    def test_numeric_information_derivative_matches_symbolic(self):
        # full sequencing: diagonal entries are M / (e^lam - 1)
        lam = np.array([0.4])
        comps = a_matrices(LevelPass(lam, [(1.0, 12, 1.0)]))
        symbolic = -12.0 * math.exp(0.4) / math.expm1(0.4) ** 2
        assert reference_a_blocks(comps)[1][0][0, 0] == pytest.approx(symbolic, rel=1e-5)

    def test_exchangeable_blocks_are_permutations(self):
        tau = np.array([0.3, 0.3])
        comps = a_matrices(LevelPass(tau, [(1.0, 20, 0.5)]))
        A0, A1 = reference_a_blocks(comps)[0]
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(A1, P @ A0 @ P, rtol=1e-6, atol=1e-8)


def central_difference_dI(tau, levels):
    """dI/dtau_k by central differences with step 1e-4 tau_k."""
    blocks = []
    for k in range(tau.size):
        h = 1e-4 * tau[k]
        hi, lo = tau.copy(), tau.copy()
        hi[k] += h
        lo[k] -= h
        blocks.append(
            (fisher_information_multi(LevelPass(hi, levels)) - fisher_information_multi(LevelPass(lo, levels)))
            / (2.0 * h)
        )
    return blocks


class TestClosedFormInformationDerivative:
    @pytest.mark.parametrize(
        "tau, levels",
        [
            (np.array([0.2, 0.5]), [(1.0, 37, 0.25)]),
            (np.array([0.3, 0.1, 0.6]), [(1.0, 2000, 0.5)]),
            (np.array([0.2, 0.3, 0.1]), [(0.5, 12, 0.0), (1.0, 24, 0.5), (2.0, 36, 1.0)]),
            (np.array([0.05, 0.4, 0.25]), [(0.5, 30, 0.75), (1.0, 60, 0.5), (3.0, 12, 0.25)]),
        ],
    )
    def test_matches_central_difference(self, tau, levels):
        closed = reference_a_blocks(a_matrices(LevelPass(tau, levels)))[1]
        for k, numeric in enumerate(central_difference_dI(tau, levels)):
            np.testing.assert_allclose(closed[k], numeric, rtol=1e-6)


class TestBiasTerm:
    def test_one_parameter_closed_form(self):
        # with M=12, M_N=6 the fit is log 2 and the correction is exactly
        # (e^L - 1) / (2 M) = 1/24
        lv = DilutionLevelData(u=1.0, M=12, M_N=6, m=0, Y=(), q=0.0)
        bc = fit_bc(MultiDilutionAssay((lv,), 0))
        assert bc.bias[0] == pytest.approx(1.0 / 24.0, rel=1e-6)
        assert bc.iupm == pytest.approx(math.log(2.0) - 1.0 / 24.0, rel=1e-6)

    def test_no_sequencing_closed_form_at_small_rates(self):
        # the total-only bias is (e^{uT} - 1) / (2 u M); a = d_common +
        # third_common / 2 cancels to -M / (2t) from terms of size M / t^2,
        # which leaves a relative error of a few ulps over uT
        M = 24
        for u in (0.5, 1.0, 2.0):
            for x in np.geomspace(1e-8, 5.0, 100):
                cov = np.array([[math.expm1(x) / (u * u * M)]])
                bias = bias_term(cov, a_matrices(LevelPass(np.array([x / u]), [(u, M, 0.0)])))[0]
                closed = math.expm1(x) / (2.0 * u * M)
                assert bias == pytest.approx(closed, rel=2e-15 / x, abs=0.0), (u, x)

    def test_vanishes_as_information_grows(self):
        tau = np.array([0.4, 0.3])
        comps = a_matrices(LevelPass(tau, [(1.0, 24, 1.0)]))
        cov = np.linalg.inv(np.diag([50.0, 60.0]))
        small = bias_term(cov / 1e6, comps)
        assert np.max(np.abs(small)) < 1e-6

    def test_doubling_wells_roughly_halves_the_correction(self):
        rng = np.random.default_rng(8)
        ratios = []
        for _ in range(50):
            tau = rng.uniform(0.1, 0.5, 3)
            for M, store in ((16, []), (32, [])):
                comps = a_matrices(LevelPass(tau, [(1.0, M, 1.0)]))
                cov = covariance(fisher_information_multi(LevelPass(tau, [(1.0, M, 1.0)])))
                store.append(np.linalg.norm(bias_term(cov, comps)))
                if M == 16:
                    b16 = store[0]
                else:
                    ratios.append(store[0] / b16)
        ratios = np.array(ratios)
        assert np.all((ratios > 0.35) & (ratios < 0.65))

    def test_correction_positive_for_total_only_model(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            M = int(rng.integers(8, 40))
            M_N = int(rng.integers(1, M))
            lv = DilutionLevelData(u=1.0, M=M, M_N=M_N, m=0, Y=(), q=0.0)
            bc = fit_bc(MultiDilutionAssay((lv,), 0))
            if M_N < M:
                assert bc.bias[0] > 0.0


# 7 designs x 45 replicates = 315 simulated fits against the block contraction
ORACLE_REPS = 45
ORACLE_DESIGNS = {
    "n1": (0.8, 1, (SimLevel(1.0, 24, 0.5),)),
    "q0": (1.0, 4, (SimLevel(1.0, 24, 0.0),)),
    "q1": (1.0, 6, (SimLevel(1.0, 12, 1.0),)),
    "M2000": (0.5, 5, (SimLevel(1.0, 2000, 0.25),)),
    "three-level": (1.0, 6, (SimLevel(0.5, 12, 0.5), SimLevel(1.0, 24, 0.75), SimLevel(2.0, 36, 1.0))),
    "two-level-q0": (1.5, 8, (SimLevel(0.5, 18, 0.25), SimLevel(1.0, 18, 0.0))),
    "n40": (3.0, 40, (SimLevel(0.5, 60, 0.5), SimLevel(1.0, 40, 1.0))),
}


@pytest.mark.parametrize("design", list(ORACLE_DESIGNS))
def test_bias_term_matches_block_contraction(design):
    truth, n_dvl, levels = ORACLE_DESIGNS[design]
    scn = SimScenario(truth=truth, n_dvl=n_dvl, levels=levels, seed=404)
    for rep in range(ORACLE_REPS):
        draw, _ = _simulate_until_regular(scn, _rng_for(scn.seed, rep))
        fit = fit_mle(draw.assay)
        comps = a_matrices(fit.level_pass)
        expected = reference_bias_term(fit.covariance, reference_a_blocks(comps)[0])
        np.testing.assert_allclose(bias_term(fit.covariance, comps), expected, rtol=1e-13, atol=0.0)


class TestFitBcMle:
    def test_reduces_bias_in_simulation(self):
        scn = SimScenario(
            truth=1.0, n_dvl=6, levels=(SimLevel(1.0, 12, 1.0),), reps=400, seed=2112
        )
        from iupm.simulate import BC_MLE_WITH_UDSA, MLE_WITH_UDSA, run_study

        res = run_study(scn, estimators=[MLE_WITH_UDSA, BC_MLE_WITH_UDSA])
        assert abs(res[BC_MLE_WITH_UDSA].bias) < abs(res[MLE_WITH_UDSA].bias)
        assert -0.04 <= res[BC_MLE_WITH_UDSA].bias <= 0.02

    def test_correction_shrinks_with_more_wells(self):
        # paired replicates: the correction magnitude at M=32 falls below the
        # one at M=12 nearly always
        smaller = 0
        for rep in range(60):
            corrections = {}
            for M in (12, 32):
                scn = SimScenario(
                    truth=1.0, n_dvl=6, levels=(SimLevel(1.0, M, 1.0),), reps=1, seed=900 + rep
                )
                draw, _ = _simulate_until_regular(scn, _rng_for(scn.seed, 0))
                bc = fit_bc(draw.assay)
                corrections[M] = np.linalg.norm(bc.bias)
            smaller += corrections[32] < corrections[12]
        assert smaller >= 54  # at least 90%

    def test_single_level_equals_unit_dilution_multi(self):
        rng = np.random.default_rng(77)
        assay = random_regular_assay(rng, D=1, n=3, M=24)
        lv = assay.levels[0]
        unit = MultiDilutionAssay(
            (DilutionLevelData(u=1.0, M=lv.M, M_N=lv.M_N, m=lv.m, Y=lv.Y, q=lv.q),), 3
        )
        bc = fit_bc(unit)
        # same data expressed at dilution 2: per-million estimates halve,
        # and the corrected totals track the same transformation
        scaled = MultiDilutionAssay(
            (DilutionLevelData(u=2.0, M=lv.M, M_N=lv.M_N, m=lv.m, Y=lv.Y, q=lv.q),), 3
        )
        bc_scaled = fit_bc(scaled)
        assert 2.0 * bc_scaled.iupm == pytest.approx(bc.iupm, abs=1e-6)

    def test_clamping_never_leaves_negative_rates(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            assay = random_regular_assay(rng, D=1, n=4, M=12)
            bc = fit_bc(assay)
            assert np.all(bc.tau_hat >= 0.0)
            if bc.clamped:
                assert np.any(bc.tau_hat == 0.0)
            assert bc.iupm == pytest.approx(float(bc.tau_hat.sum()), rel=1e-12)

    def test_interval_recentered_on_corrected_total(self):
        rng = np.random.default_rng(15)
        assay = random_regular_assay(rng, D=2, n=3)
        plain = fit_mle(assay)
        bc = fit_bc(assay)
        assert bc.se_iupm == plain.se_iupm  # covariance kept from the MLE
        lo, hi = bc.ci
        assert lo < bc.iupm < hi
        z_half = 1.959963984540054 * bc.se_iupm / bc.iupm
        assert hi == pytest.approx(bc.iupm * math.exp(z_half), rel=1e-12)
        assert lo == pytest.approx(bc.iupm * math.exp(-z_half), rel=1e-12)

    def test_extreme_outcomes_pass_through(self):
        lv = DilutionLevelData(u=1.0, M=12, M_N=12, m=0, Y=())
        bc = fit_bc(MultiDilutionAssay((lv,), 0))
        assert bc.iupm == 0.0 and bc.bias is None


NO_SUMS = "bias_correct takes a Poisson fit of fit_mle, and this fit has no binomial sums"


def imperfect_fit(rate_at_zero):
    """A converged regular imperfect fit of a ``study-imperfect``-like draw,
    or of one level whose second lineage is never detected and sits at 0."""
    rates = ErrorRates(0.9, 0.9, 0.9, 0.9)
    if rate_at_zero:
        w = np.array([1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1, 1])
        z = np.zeros((w.size, 2), dtype=int)
        z[:, 0] = w * np.arange(w.size) % 2
        assays = (WellAssay(1.0, w, w, z),)
    else:
        scn = SimScenario(truth=1.0, n_dvl=6, levels=(SimLevel(1.0, 32, 1.0),), model="imperfect",
                          rates=rates, reps=1, seed=5)
        assays = _simulate_until_regular(scn, _rng_for(scn.seed, 0))[0].well_assays
    fit = fit_imperfect(ImperfectModel(rates=rates, assays=assays))
    assert fit.converged and fit.extreme is ExtremeOutcome.REGULAR and fit.level_pass is None
    assert (0.0 in fit.tau_hat) == rate_at_zero
    return fit


class TestBiasCorrectNeedsTheSumsOfAFit:
    @pytest.mark.parametrize("rate_at_zero", [False, True])
    def test_refuses_an_imperfect_fit(self, rate_at_zero):
        with pytest.raises(ValueError, match=NO_SUMS):
            bias_correct(imperfect_fit(rate_at_zero))

    def test_refuses_to_correct_twice(self):
        bc = fit_bc(random_regular_assay(np.random.default_rng(15), D=2, n=3))
        assert bc.bias is not None and bc.level_pass is None
        with pytest.raises(ValueError, match=NO_SUMS):
            bias_correct(bc)

    def test_the_fit_keeps_the_pass_of_its_estimate(self):
        assay = random_regular_assay(np.random.default_rng(16), D=3, n=4)
        fit = fit_mle(assay)
        fresh = LevelPass(fit.tau_hat, level_params(assay))
        assert fit.level_pass.sums == fresh.sums
        np.testing.assert_array_equal(fisher_information_multi(fit.level_pass), fisher_information_multi(fresh))
