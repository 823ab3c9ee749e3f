import itertools
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from iupm import (
    AssayDataError,
    ErrorRates,
    ImperfectFitError,
    ImperfectModel,
    ImpossibleDataError,
    WellAssay,
    fit_imperfect,
    fit_mle,
    restrict_to_detected,
    summarize_well_assay,
)
from iupm import imperfect, optimize
from iupm.imperfect import (
    _Level,
    _level_gradient,
    _level_hessian,
    _level_loglik,
    _marginals,
    _zero_probability,
)
from iupm.inference import covariance
from iupm.simulate import SimLevel, SimScenario, _rng_for, _simulate_until_regular
from helpers import (
    ReferenceTables,
    brute_force_joint_prob,
    decimal_level_hessian,
    fd_gradient,
    fd_hessian_of_gradient,
    level_log_likelihood,
    reference_fit_imperfect,
    reference_level_gradient,
    reference_level_loglik,
)

PERFECT = ErrorRates(1.0, 1.0, 1.0, 1.0)


def rates_strategy():
    prob = st.floats(min_value=0.55, max_value=1.0)
    return st.builds(ErrorRates, prob, prob, prob, prob)


def draw_well_assay(seed, M=16, n=3, rates=PERFECT, q=0.75, lam=None):
    scn = SimScenario(
        truth=float(np.sum(lam)) if lam is not None else 1.0,
        n_dvl=n,
        levels=(SimLevel(1.0, M, q),),
        model="imperfect",
        rates=rates,
        reps=1,
        seed=seed,
    )
    draw, _ = _simulate_until_regular(scn, _rng_for(seed, 0))
    return draw


def joint_prob(lam, z_star, rates):
    """P(W* = 1, Z* = z_star) of one sequenced well, as the fit's products give it."""
    level = _Level(WellAssay(1.0, [1], [1], [z_star]), rates)
    return float(level.products(np.asarray(lam, dtype=float))[-1][0])


def impossibility(lam, wa, rates):
    """What ``_zero_probability`` reports at lam: the reason the data are
    impossible there, or None."""
    level = _Level(wa, rates)
    *_, P = level.products(lam)
    return _zero_probability(level, P, *_marginals(float(np.add.reduce(lam)), rates))


class TestWellJointProb:
    def test_perfect_rates_reduce_to_lineage_product(self):
        value = joint_prob([0.2, 0.3], (1, 0), PERFECT)
        assert value == pytest.approx((1 - math.exp(-0.2)) * math.exp(-0.3), rel=1e-12)

    @given(
        st.integers(min_value=1, max_value=3),
        rates_strategy(),
        st.data(),
    )
    def test_matches_brute_force_enumeration(self, n, rates, data):
        # only QVOA-positive wells are sequenced; a well's QVOA reading alone
        # has the marginal probability, the enumeration summed over Z*
        lam = np.array([data.draw(st.floats(min_value=0.0, max_value=3.0)) for _ in range(n)])
        z_star = tuple(data.draw(st.integers(min_value=0, max_value=1)) for _ in range(n))
        brute = brute_force_joint_prob(lam, 1, z_star, rates)
        assert joint_prob(lam, z_star, rates) == pytest.approx(brute, abs=1e-12)
        for w_star, ours in zip((1, 0), _marginals(float(lam.sum()), rates)):
            brute = sum(brute_force_joint_prob(lam, w_star, zs, rates) for zs in itertools.product((0, 1), repeat=n))
            assert ours == pytest.approx(brute, abs=1e-12)

    def test_zero_rates_leave_only_the_false_positive_channel(self):
        rates = ErrorRates(0.9, 0.9, 0.9, 0.9)
        lam = np.zeros(2)
        value = joint_prob(lam, (1, 0), rates)
        expected = (1 - rates.spec_qvoa) * (1 - rates.spec_udsa) * rates.spec_udsa
        assert value == pytest.approx(expected, rel=1e-12)

    @given(rates_strategy(), st.data())
    def test_outcomes_sum_to_one(self, rates, data):
        # every reading of a sequenced positive well, and the negative well
        n = data.draw(st.integers(min_value=1, max_value=3))
        lam = np.array([data.draw(st.floats(min_value=0.0, max_value=2.0)) for _ in range(n)])
        total = sum(joint_prob(lam, zs, rates) for zs in itertools.product((0, 1), repeat=n))
        total += _marginals(float(lam.sum()), rates)[1]
        assert total == pytest.approx(1.0, abs=1e-10)


class TestWellMarginalProb:
    def test_perfect_rates(self):
        assert _marginals(0.4 + 0.3, PERFECT)[0] == pytest.approx(1 - math.exp(-0.7), rel=1e-12)

    def test_mixture_value(self):
        rates = ErrorRates(0.9, 0.9, 1.0, 1.0)
        assert _marginals(math.log(2.0), rates)[0] == pytest.approx(0.5, rel=1e-12)

    @given(rates_strategy(), st.floats(min_value=0.0, max_value=4.0))
    def test_complement(self, rates, total):
        assert sum(_marginals(total, rates)) == pytest.approx(1.0, abs=1e-12)


class TestLogLikelihood:
    def test_perfect_rates_equal_summary_likelihood(self):
        draw = draw_well_assay(seed=3, M=18, n=3)
        wa = draw.well_assays[0]
        lam = np.array([0.25, 0.4, 0.1])
        assert _level_loglik(lam, _Level(wa, PERFECT)) == pytest.approx(
            level_log_likelihood(lam, draw.assay.levels[0]), abs=1e-10
        )

    def test_matches_per_well_enumeration(self):
        rng = np.random.default_rng(8)
        rates = ErrorRates(0.9, 0.85, 0.8, 0.95)
        draw = draw_well_assay(seed=10, M=5, n=2, rates=rates, q=0.5)
        wa = draw.well_assays[0]
        for _ in range(10):
            lam = rng.uniform(0.0, 1.5, 2)
            expected = 0.0
            for w_star, r, z_star in zip(wa.w_star, wa.r, wa.z_star):
                if r == 1:
                    expected += math.log(brute_force_joint_prob(lam, w_star, z_star, rates))
                else:
                    pos = sum(
                        brute_force_joint_prob(lam, w_star, zs, rates)
                        for zs in itertools.product((0, 1), repeat=2)
                    )
                    expected += math.log(pos)
            assert _level_loglik(lam, _Level(wa, rates)) == pytest.approx(expected, rel=1e-10)

    def test_unsequenced_wells_depend_only_on_the_total(self):
        wa = WellAssay(1.0, [1, 0, 1, 1, 0], np.zeros(5), np.zeros((5, 2)))
        rates = ErrorRates(0.9, 0.9, 0.9, 0.9)
        a = _level_loglik(np.array([0.6, 0.2]), _Level(wa, rates))
        b = _level_loglik(np.array([0.1, 0.7]), _Level(wa, rates))
        assert a == pytest.approx(b, rel=1e-12)

    def test_well_order_invariance(self):
        draw = draw_well_assay(seed=21, M=12, n=2, rates=ErrorRates(0.9, 0.9, 0.9, 0.9))
        wa = draw.well_assays[0]
        rates = ErrorRates(0.9, 0.9, 0.9, 0.9)
        lam = np.array([0.3, 0.5])
        shuffled = WellAssay(wa.u, wa.w_star[::-1], wa.r[::-1], wa.z_star[::-1])
        assert _level_loglik(lam, _Level(wa, rates)) == pytest.approx(
            _level_loglik(lam, _Level(shuffled, rates)), rel=1e-12
        )

    def test_impossible_well_is_reported_with_index(self):
        # perfect rates cannot produce a sequenced positive well with an
        # all-zero lineage row
        wa = WellAssay(1.0, [1], [1], [[0, 0]])
        assert _level_loglik(np.array([0.3, 0.3]), _Level(wa, PERFECT)) == -math.inf
        with pytest.raises(ImpossibleDataError, match="^level 0: well 0 has probability zero"):
            fit_imperfect(ImperfectModel(rates=PERFECT, assays=(wa,)))

    def test_cost_scales_linearly_not_exponentially(self):
        # n = 60 lineages would be ~1e18 enumeration terms; the factorized
        # form must stay fast
        rng = np.random.default_rng(5)
        n, M = 60, 40
        w = rng.random(M) < 0.8
        r = w & (rng.random(M) < 0.8)
        wa = WellAssay(1.0, w, r, (rng.random((M, n)) < 0.2) & r[:, None])
        lam = rng.uniform(0.01, 0.2, n)
        rates = ErrorRates(0.9, 0.9, 0.9, 0.9)
        start = time.perf_counter()
        for _ in range(20):
            level = _Level(wa, rates)
            _level_loglik(lam, level)
            _level_gradient(lam, level)
        assert time.perf_counter() - start < 1.0


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        rates = ErrorRates(0.9, 0.9, 0.85, 0.92)
        draw = draw_well_assay(seed=14, M=20, n=4, rates=rates, q=0.6)
        wa = draw.well_assays[0]
        for _ in range(20):
            lam = rng.uniform(0.05, 0.8, 4)
            ana = _level_gradient(lam, _Level(wa, rates))
            fd = fd_gradient(lambda v: _level_loglik(v, _Level(wa, rates)), lam)
            np.testing.assert_allclose(ana, fd, rtol=1e-6, atol=1e-6)

    def test_zero_gradient_at_perfect_model_mle(self):
        draw = draw_well_assay(seed=30, M=24, n=3, q=1.0)
        wa = draw.well_assays[0]
        fit = fit_mle(draw.assay)
        grad = _level_gradient(fit.tau_hat, _Level(wa, PERFECT))
        assert np.max(np.abs(grad)) < 1e-6

    @pytest.mark.parametrize(
        "r, z_star, lam, message",
        [
            (1, [1, 0], [0.0, 0.2], "well 1 has probability zero"),
            (0, [0, 0], [0.0, 0.0], "an unsequenced well has probability zero"),
        ],
        ids=["sequenced", "unsequenced"],
    )
    def test_impossible_point_is_minus_inf_with_its_reason(self, r, z_star, lam, message):
        # perfect rates cannot give a positive reading where the rates are zero
        wa = WellAssay(1.0, [0, 1], [0, r], [[0, 0], z_star])
        lam = np.array(lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _level_loglik(lam, _Level(wa, PERFECT)) == -math.inf
            assert impossibility(lam, wa, PERFECT).startswith(message)

    def test_exchangeable_lineages_share_the_gradient(self):
        wa = WellAssay(1.0, [1, 1, 0], [1, 0, 0], [[1, 1], [0, 0], [0, 0]])
        rates = ErrorRates(0.9, 0.9, 0.9, 0.9)
        g = _level_gradient(np.array([0.4, 0.4]), _Level(wa, rates))
        assert g[0] == pytest.approx(g[1], rel=1e-12)


class TestFitImperfect:
    def test_perfect_rates_reduce_to_perfect_fit(self):
        for seed in (2, 7, 19):
            draw = draw_well_assay(seed=seed, M=20, n=3, q=0.75)
            model = ImperfectModel(rates=PERFECT, assays=draw.well_assays)
            imperfect = fit_imperfect(model)
            perfect = fit_mle(draw.assay)
            assert imperfect.iupm == pytest.approx(perfect.iupm, abs=1e-6)
            np.testing.assert_allclose(imperfect.tau_hat, perfect.tau_hat, atol=1e-6)

    def test_unidentifiable_rates_rejected(self):
        draw = draw_well_assay(seed=4)
        bad = ErrorRates(0.5, 0.5, 0.9, 0.9)
        with pytest.raises(AssayDataError):
            fit_imperfect(ImperfectModel(rates=bad, assays=draw.well_assays))

    def test_never_detected_lineage_lands_on_the_boundary(self):
        # a lineage column with no observed detections under imperfect
        # specificity is pushed to rate zero and flagged
        rng = np.random.default_rng(40)
        rates = ErrorRates(0.9, 0.9, 0.9, 0.95)
        w = np.zeros(24, dtype=int)
        z = np.zeros((24, 2), dtype=int)
        for j in range(24):
            w[j] = rng.random() < 0.6
            if w[j]:
                z[j, 0] = rng.random() < 0.5
        wa = WellAssay(1.0, w, w, z)
        fit = fit_imperfect(ImperfectModel(rates=rates, assays=(wa,)))
        assert 1 in fit.active_lower
        assert fit.tau_hat[1] == 0.0

    def test_indefinite_observed_information_is_a_fit_error(self):
        # Replicate 0 of this design ends where the numerical observed
        # information has a non-positive total variance.
        rates = ErrorRates(0.5, 0.8, 0.5, 1.0)
        scn = SimScenario(
            truth=1.0,
            n_dvl=3,
            levels=(SimLevel(1.0, 5, 0.5), SimLevel(2.0, 11, 1.0)),
            model="imperfect",
            rates=rates,
            reps=1,
            seed=229,
        )
        draw, _ = _simulate_until_regular(scn, _rng_for(229, 0))
        with pytest.raises(ImperfectFitError, match="not positive definite"):
            fit_imperfect(ImperfectModel(rates=rates, assays=draw.well_assays))

    def test_multi_level_shares_the_rate_vector(self):
        rates = ErrorRates(0.9, 0.9, 0.9, 0.9)
        scn = SimScenario(
            truth=1.0,
            n_dvl=4,
            levels=(SimLevel(0.5, 10, 1.0), SimLevel(1.0, 14, 0.75)),
            model="imperfect",
            rates=rates,
            reps=1,
            seed=61,
        )
        draw, _ = _simulate_until_regular(scn, _rng_for(61, 0))
        fit = fit_imperfect(ImperfectModel(rates=rates, assays=draw.well_assays))
        assert fit.converged
        assert fit.tau_hat.size == draw.assay.n
        assert fit.se_iupm > 0.0
        lo, hi = fit.ci
        assert 0 < lo <= fit.iupm <= hi

    def test_naive_summaries_of_imperfect_data_still_fit(self):
        # the perfect-model estimator applied to error-prone readings: the
        # summary can break the perfect-assay counting identity, but the fit
        # must still run (this is the model-misspecification comparator)
        rates = ErrorRates(0.85, 0.9, 0.85, 0.9)
        draw = draw_well_assay(seed=77, M=32, n=6, rates=rates, q=1.0)
        fit = fit_mle(draw.assay)
        assert fit.converged
        assert fit.iupm > 0.0

    def test_impossible_data_fail_before_the_solver(self, monkeypatch):
        # With sens_udsa = spec_qvoa = 1, the sequenced QVOA-positive well 1
        # with z* = 0 has probability zero at every rate vector.
        rates = ErrorRates(1.0, 1.0, 1.0, 0.8)
        wa = WellAssay(1.0, [1, 1, 0, 1], [1, 1, 0, 0], [[1], [0], [0], [0]])

        def no_solver(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(optimize, "maximize", no_solver)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ImpossibleDataError, match="^level 0: well 1 has probability zero") as info:
                fit_imperfect(ImperfectModel(rates=rates, assays=(wa,)))
        assert isinstance(info.value, AssayDataError) and isinstance(info.value, ImperfectFitError)

    def test_small_fits_return_or_raise_a_fit_error(self):
        # Random readings under rates from {0.8, 0.9, 1.0} include data that
        # are impossible under the rates; every fit returns or raises a fit
        # or data error, without a RuntimeWarning.
        rng = np.random.default_rng(1001)
        outcomes = set()
        for _ in range(400):
            wa = random_well_assay(rng, int(rng.integers(1, 4)), int(rng.integers(1, 12)), rng.choice([0.0, 0.5, 1.0]))
            model = ImperfectModel(rates=ErrorRates(*rng.choice([0.8, 0.9, 1.0], 4)), assays=(wa,))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    fit_imperfect(model)
                    outcomes.add("fit")
                except (ImperfectFitError, AssayDataError) as exc:
                    outcomes.add(type(exc))
        assert outcomes == {"fit", ImperfectFitError, ImpossibleDataError}

    def test_summary_of_well_assay_matches_assembled_levels(self):
        draw = draw_well_assay(seed=91, M=16, n=3, rates=ErrorRates(0.9, 0.9, 0.9, 0.9))
        assert restrict_to_detected(draw.well_assays) == list(draw.well_assays)
        rebuilt = summarize_well_assay(draw.well_assays[0], draw.assay.levels[0].q)
        assert rebuilt == draw.assay.levels[0]


def random_well_assay(rng, n, M, seq_share):
    """M random wells over n lineages; each positive well is sequenced with
    probability seq_share, with random readings."""
    w = np.zeros(M, dtype=int)
    r = np.zeros(M, dtype=int)
    z = np.zeros((M, n), dtype=int)
    for j in range(M):
        w[j] = rng.random() < 0.7
        r[j] = w[j] and rng.random() < seq_share
        if r[j]:
            z[j] = rng.random(n) < 0.4
    return WellAssay(1.0, w, r, z)


def random_rates(rng):
    kind = rng.integers(3)
    if kind == 0:
        return PERFECT
    if kind == 1:
        return ErrorRates(*rng.uniform(0.55, 1.0, 4))
    return ErrorRates(*rng.choice([0.8, 0.9, 1.0], 4))


def random_lam(rng, n):
    lam = rng.uniform(0.0, 2.0, n)
    lam[rng.random(n) < 0.2] = 0.0
    lam[rng.random(n) < 0.1] = rng.uniform(700.0, 800.0)
    return lam


def assert_level_matches_reference(lam, wa, rates):
    """The kernel's likelihood, the reason it gives for impossible data, and
    its gradient through a fresh level and through one whose products were
    just computed, against the kernel as first written."""
    tables = ReferenceTables(wa)
    assert _level_loglik(lam, _Level(wa, rates)) == reference_level_loglik(lam, tables, rates, strict=False)
    try:
        reference_level_loglik(lam, tables, rates, strict=True)
    except ImperfectFitError as exc:
        assert impossibility(lam, wa, rates) == str(exc)
    else:
        assert impossibility(lam, wa, rates) is None
    with np.errstate(divide="ignore", invalid="ignore"):
        try:
            expected = reference_level_gradient(lam, tables, rates)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                _level_gradient(lam, _Level(wa, rates))
            return
        level = _Level(wa, rates)
        _level_loglik(lam, level)
        shared = _level_gradient(lam, level)
        fresh = _level_gradient(lam, _Level(wa, rates))
    assert np.array_equal(shared, expected, equal_nan=True)
    assert np.array_equal(fresh, expected, equal_nan=True)


EDGE_CASES = [
    ([1, 0, 1], [0, 0, 0], np.zeros((3, 3)), [0.2, 0.0, 0.5], ErrorRates(0.9, 0.8, 0.9, 0.9)),
    ([1, 1, 1], [1, 1, 1], [[1, 0], [0, 1], [1, 1]], [0.3, 0.7], ErrorRates(0.9, 0.8, 0.85, 0.95)),
    ([1, 0, 1], [1, 0, 0], [[1], [0], [0]], [0.4], ErrorRates(0.9, 0.9, 0.9, 0.9)),
    ([1, 0], [1, 0], [[1, 0], [0, 0]], [0.4, 0.0], ErrorRates(0.9, 0.9, 0.9, 0.9)),
    ([1, 0, 1], [1, 0, 0], [[1, 1], [0, 0], [0, 0]], [750.0, 0.3], ErrorRates(0.9, 0.9, 0.9, 0.9)),
    ([1, 1], [1, 1], [[1, 1], [0, 1]], [720.0, 701.0], PERFECT),
    ([0, 1], [0, 1], [[0, 0], [1, 0]], [0.0, 0.2], PERFECT),
    ([1, 0], [0, 0], [[0, 0], [0, 0]], [0.0, 0.0], PERFECT),
]
EDGE_IDS = [
    "no-sequenced-well", "every-well-sequenced", "one-lineage", "zero-rate",
    "rate-past-700", "all-rates-past-700", "zero-probability-well", "zero-probability-unsequenced",
]

FIT_DESIGNS = [
    (6, (SimLevel(1.0, 32, 1.0),), ErrorRates(0.9, 0.9, 0.9, 0.9), 11),
    (4, (SimLevel(0.5, 12, 0.75), SimLevel(2.0, 20, 1.0)), ErrorRates(0.85, 0.95, 0.8, 0.9), 12),
]
FIT_DESIGN_IDS = ["study-imperfect-design", "two-level-unequal-rates"]


def design_models(n_dvl, levels, rates, seed, reps=100):
    """The imperfect models of the first ``reps`` draws of a design."""
    scn = SimScenario(truth=1.0, n_dvl=n_dvl, levels=levels, model="imperfect", rates=rates, reps=1, seed=seed)
    for rep in range(reps):
        draw, _ = _simulate_until_regular(scn, _rng_for(seed, rep))
        yield ImperfectModel(rates=rates, assays=draw.well_assays)


class TestMatchesReference:
    """The shared-product kernel gives the bits of the kernel as first
    written, on random levels, on edge cases and through whole fits."""

    def test_random_levels(self):
        rng = np.random.default_rng(2024)
        for _ in range(250):
            n = int(rng.integers(1, 7))
            wa = random_well_assay(rng, n, int(rng.integers(1, 30)), rng.choice([0.0, 0.5, 1.0]))
            rates = random_rates(rng)
            for _ in range(3):
                assert_level_matches_reference(random_lam(rng, n), wa, rates)

    @pytest.mark.parametrize("w_star, r, z_star, lam, rates", EDGE_CASES, ids=EDGE_IDS)
    def test_edge_cases(self, w_star, r, z_star, lam, rates):
        assert_level_matches_reference(np.array(lam), WellAssay(1.0, w_star, r, z_star), rates)

    @pytest.mark.parametrize("n_dvl, levels, rates, seed", FIT_DESIGNS, ids=FIT_DESIGN_IDS)
    def test_fits(self, monkeypatch, n_dvl, levels, rates, seed):
        # The reference kernels run on a _Level that also keeps the readings,
        # so the fit's closed-form Hessian sees the same products either way.
        class ReferenceLevel(_Level):
            def __init__(self, wa, rates):
                super().__init__(wa, rates)
                self.tables = ReferenceTables(wa)

        def fit_fields(model):
            try:
                fit = fit_imperfect(model)
            except ImperfectFitError as exc:
                return str(exc)
            return (
                fit.tau_hat.tobytes(), fit.covariance.tobytes(), fit.iupm, fit.se_iupm, fit.ci,
                fit.log_lik, fit.iterations, fit.converged, fit.active_lower,
            )

        for rep, model in enumerate(design_models(n_dvl, levels, rates, seed)):
            ours = fit_fields(model)
            with monkeypatch.context() as patch:
                patch.setattr(imperfect, "_Level", ReferenceLevel)
                patch.setattr(
                    imperfect, "_level_loglik",
                    lambda lam, level: reference_level_loglik(lam, level.tables, level.rates, strict=False),
                )
                patch.setattr(
                    imperfect, "_level_gradient",
                    lambda lam, level: reference_level_gradient(lam, level.tables, level.rates),
                )
                reference = fit_fields(model)
            assert ours == reference, rep


class TestSharedProducts:
    """The one-entry memo of per-well products never returns stale values."""

    def setup_method(self):
        rates = ErrorRates(0.9, 0.85, 0.8, 0.95)
        self.rates = rates
        self.wa = draw_well_assay(seed=14, M=20, n=4, rates=rates, q=0.6).well_assays[0]

    def test_gradient_at_a_new_point_is_fresh(self):
        level = _Level(self.wa, self.rates)
        x1 = np.array([0.1, 0.2, 0.3, 0.4])
        x2 = np.array([0.5, 0.1, 0.2, 0.3])
        _level_loglik(x1, level)
        assert np.array_equal(_level_gradient(x2, level), _level_gradient(x2, _Level(self.wa, self.rates)))
        assert _level_loglik(x1, level) == _level_loglik(x1, _Level(self.wa, self.rates))

    def test_mutating_the_callers_array_is_not_stale(self):
        level = _Level(self.wa, self.rates)
        lam = np.array([0.1, 0.2, 0.3, 0.4])
        _level_loglik(lam, level)
        lam[2] = 0.9
        fresh = _Level(self.wa, self.rates)
        assert np.array_equal(_level_gradient(lam, level), _level_gradient(lam, fresh))
        assert _level_loglik(lam, level) == _level_loglik(lam, fresh)

    def test_levels_of_one_model_keep_their_own_products(self):
        other = draw_well_assay(seed=15, M=12, n=4, rates=self.rates, q=1.0).well_assays[0]
        model = ImperfectModel(rates=self.rates, assays=(self.wa, WellAssay(2.0, other.w_star, other.r, other.z_star)))
        first, second = (_Level(wa, self.rates) for wa in model.assays)
        lam = np.array([0.1, 0.2, 0.3, 0.4])
        _level_loglik(lam, first)
        _level_loglik(lam, second)
        for level, wa in ((first, self.wa), (second, other)):
            expected = reference_level_gradient(lam, ReferenceTables(wa), self.rates)
            assert np.array_equal(_level_gradient(lam, level), expected)

    def test_gradient_after_likelihood_reuses_the_products(self, monkeypatch):
        calls = []
        real_exp = np.exp

        def counting_exp(x, *args, **kwargs):
            calls.append(x)
            return real_exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counting_exp)
        level = _Level(self.wa, self.rates)
        lam = np.array([0.1, 0.2, 0.3, 0.4])
        _level_loglik(lam, level)
        assert len(calls) == 1
        _level_gradient(lam.copy(), level)
        assert len(calls) == 1
        _level_gradient(lam + 0.1, level)
        assert len(calls) == 2


def checked_hessian(lam, wa, rates):
    """_level_hessian at lam, asserting that it is exactly symmetric and
    finite and that it warns about nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        H = _level_hessian(np.asarray(lam, dtype=float), _Level(wa, rates))
    assert H.shape == (wa.n, wa.n)
    assert np.array_equal(H, H.T) and np.all(np.isfinite(H))
    return H


def assert_matches_exact(H, expected, rel=1e-11):
    """Every entry within rel of the largest entry of the exact Hessian."""
    assert np.max(np.abs(H - expected)) <= rel * np.max(np.abs(expected))


class TestHessian:
    """The closed-form level Hessian against central differences of the
    gradient and against an exact per-well enumeration."""

    def test_matches_central_differences_of_the_gradient(self):
        rng = np.random.default_rng(77)
        for _ in range(150):
            n = int(rng.integers(1, 7))
            wa = random_well_assay(rng, n, int(rng.integers(1, 30)), rng.choice([0.0, 0.5, 1.0]))
            rates = ErrorRates(*rng.uniform(0.55, 1.0, 4))
            lam = rng.uniform(0.05, 2.5, n)
            H = checked_hessian(lam, wa, rates)
            fd = fd_hessian_of_gradient(lambda v: _level_gradient(v, _Level(wa, rates)), lam)
            np.testing.assert_allclose(H, fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(fd)))

    def test_matches_exact_enumeration(self):
        # small levels, as in criterion 08a: the 2^n patterns of every well,
        # differentiated term by term in 50-digit decimals
        rng = np.random.default_rng(415)
        for _ in range(150):
            n = int(rng.integers(1, 4))
            wa = random_well_assay(rng, n, int(rng.integers(1, 9)), rng.choice([0.0, 0.5, 1.0]))
            rates = ErrorRates(*rng.uniform(0.55, 1.0, 4))
            lam = rng.uniform(0.0, 2.5, n)
            assert_matches_exact(checked_hessian(lam, wa, rates), decimal_level_hessian(lam, wa, rates))

    @pytest.mark.parametrize("w_star, r, z_star, lam, rates", EDGE_CASES, ids=EDGE_IDS)
    def test_edge_cases(self, w_star, r, z_star, lam, rates):
        wa = WellAssay(1.0, w_star, r, z_star)
        lam = np.array(lam)
        if not math.isfinite(_level_loglik(lam, _Level(wa, rates))):
            # Outside the Hessian's domain; the fit rejects such data before
            # the solver, so no second derivative is ever asked for here.
            assert "probability zero" in impossibility(lam, wa, rates)
            return
        assert_matches_exact(checked_hessian(lam, wa, rates), decimal_level_hessian(lam, wa, rates))

    def test_two_levels_with_unsequenced_wells(self):
        # Both levels hold unsequenced positive and negative wells, so the
        # marginal term c 11' enters; the fit's covariance is the inverse of
        # the negated sum of u^2 times each level's Hessian at u tau.
        rates = ErrorRates(0.85, 0.9, 0.8, 0.95)
        model = ImperfectModel(
            rates=rates,
            assays=(
                WellAssay(0.5, [1, 1, 0, 1, 0, 1], [1, 0, 0, 1, 0, 0], [[1, 0, 1], [0] * 3, [0] * 3, [0, 1, 0], [0] * 3, [0] * 3]),
                WellAssay(2.0, [1, 1, 1, 0, 1], [1, 1, 0, 0, 0], [[1, 1, 0], [0, 1, 1], [0] * 3, [0] * 3, [0] * 3]),
            ),
        )
        tau = np.array([0.3, 0.5, 0.2])
        for wa in model.assays:
            lam = wa.u * tau
            assert_matches_exact(checked_hessian(lam, wa, rates), decimal_level_hessian(lam, wa, rates))
        fit = fit_imperfect(model)
        free = fit.tau_hat > 0.0
        total = sum(wa.u**2 * checked_hessian(wa.u * fit.tau_hat, wa, rates) for wa in model.assays)
        np.testing.assert_allclose(
            fit.covariance[np.ix_(free, free)], covariance(-total[np.ix_(free, free)]), rtol=1e-12, atol=0.0
        )

    def test_study_imperfect_fits_match_the_finite_difference_fit(self):
        # the fit with finite-difference second derivatives, in the polish and
        # in the observed information, over 100 draws of the study-imperfect
        # design: the same exclusions, estimates within 1e-14, SE within 1e-9
        n_dvl, levels, rates, _ = FIT_DESIGNS[0]
        for model in design_models(n_dvl, levels, rates, seed=700):
            outcomes = []
            for fit_fn in (fit_imperfect, reference_fit_imperfect):
                try:
                    outcomes.append(fit_fn(model))
                except ImperfectFitError as exc:
                    outcomes.append(str(exc))
            ours, reference = outcomes
            if isinstance(reference, str):
                assert ours == reference
                continue
            assert (ours.iterations, ours.converged, ours.active_lower) == (
                reference.iterations, reference.converged, reference.active_lower
            )
            np.testing.assert_allclose(ours.tau_hat, reference.tau_hat, rtol=1e-14, atol=0.0)
            assert ours.iupm == pytest.approx(reference.iupm, rel=1e-14, abs=0.0)
            assert ours.log_lik == pytest.approx(reference.log_lik, rel=1e-14, abs=0.0)
            assert ours.se_iupm == pytest.approx(reference.se_iupm, rel=1e-9, abs=0.0)
            np.testing.assert_allclose(ours.ci, reference.ci, rtol=1e-9, atol=0.0)
            scale = np.max(np.abs(reference.covariance))
            assert np.max(np.abs(ours.covariance - reference.covariance)) <= 1e-8 * scale
