import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iupm import (
    DilutionLevelData,
    ExtremeOutcome,
    MultiDilutionAssay,
    classify_extreme,
    closed_form_full_udsa,
    closed_form_no_udsa,
)
from iupm.optimize import maximize
from iupm.inference import fit_mle
from iupm.poisson import gradient, hessian_parts, log_likelihood, one_level_mle
from helpers import (
    decimal_log_likelihood,
    decimal_one_level_rates,
    dense_hessian,
    fd_gradient,
    fd_hessian_of_gradient,
    level_gradient,
    level_hessian,
    level_log_likelihood,
    one_level,
    random_level,
    reference_gradient,
    reference_log_likelihood,
)


def level(M, M_N, m, Y, u=1.0):
    return DilutionLevelData(u=u, M=M, M_N=M_N, m=m, Y=tuple(Y))


class TestLogLikelihood:
    def test_matches_high_precision_evaluation(self):
        lv = level(12, 6, 4, (3, 2))
        lam = np.array([0.1, 0.2])
        assert level_log_likelihood(lam, lv) == pytest.approx(
            decimal_log_likelihood(lam, lv), rel=1e-13
        )

    def test_no_sequencing_reduces_to_total_rate_form(self):
        lv = level(12, 6, 0, (0, 0, 0))
        lam = np.array([0.2, 0.3, 0.1])
        total = lam.sum()
        expected = (12 - 6) * math.log(1 - math.exp(-total)) - 6 * total
        assert level_log_likelihood(lam, lv) == pytest.approx(expected, rel=1e-12)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_joint_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        lv = random_level(rng)
        lam = rng.uniform(0.05, 1.0, lv.n)
        perm = rng.permutation(lv.n)
        lv_perm = level(lv.M, lv.M_N, lv.m, tuple(lv.Y[i] for i in perm))
        assert level_log_likelihood(lam, lv) == pytest.approx(
            level_log_likelihood(lam[perm], lv_perm), rel=1e-12
        )

    def test_zero_rate_with_counts_is_minus_inf(self):
        lv = level(12, 6, 3, (2, 1))
        assert level_log_likelihood([0.0, 0.5], lv) == -math.inf

    def test_zero_rate_with_zero_count_contributes_nothing(self):
        lv = level(12, 6, 3, (3, 0))
        with_zero = level_log_likelihood([0.4, 0.0], lv)
        reduced = level_log_likelihood([0.4], level(12, 6, 3, (3,)))
        assert with_zero == pytest.approx(reduced, rel=1e-12)


class TestDerivatives:
    def test_gradient_zero_at_full_sequencing_mle(self):
        lv = level(12, 5, 7, (4, 3))
        lam = -np.log1p(-np.array([4, 3]) / 12)
        np.testing.assert_allclose(level_gradient(lam, lv), 0.0, atol=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1234)
        for _ in range(60):
            lv = random_level(rng)
            lam = rng.uniform(0.05, 1.0, lv.n)
            fd = fd_gradient(lambda v: level_log_likelihood(v, lv), lam)
            ana = level_gradient(lam, lv)
            np.testing.assert_allclose(ana, fd, rtol=1e-6, atol=1e-6)

    def test_exchangeable_components_share_gradient(self):
        lv = level(20, 8, 6, (4, 4))
        g = level_gradient([0.33, 0.33], lv)
        assert g[0] == pytest.approx(g[1], rel=1e-14)

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            lv = random_level(rng)
            lam = rng.uniform(0.05, 1.0, lv.n)
            fd = fd_hessian_of_gradient(lambda v: level_gradient(v, lv), lam)
            np.testing.assert_allclose(level_hessian(lam, lv), fd, rtol=1e-5, atol=1e-5)

    def test_hessian_negative_definite_with_counts_everywhere(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 200:
            lv = random_level(rng, require_detected=True)
            lam = rng.uniform(0.05, 1.5, lv.n)
            eigs = np.linalg.eigvalsh(level_hessian(lam, lv))
            assert np.all(eigs < 0.0)
            checked += 1

    def test_hessian_diagonal_at_full_sequencing(self):
        lv = level(10, 4, 6, (5, 3))
        H = level_hessian([0.5, 0.4], lv)
        assert H[0, 1] == 0.0 and H[1, 0] == 0.0

    def test_all_zero_rates_with_unsequenced_positive_wells(self):
        # The unsequenced positive wells need a positive total rate: at zero
        # rates the log-likelihood is -inf, and the gradient and the Hessian's
        # common term are +inf, without an exception or a warning.
        lv = level(12, 6, 3, (2, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ll, g, (_, common) = level_log_likelihood([0.0, 0.0], lv), level_gradient([0.0, 0.0], lv), hessian_parts(
                np.zeros((1, 2)), one_level(lv)
            )
        assert ll == -math.inf
        assert g.tolist() == [math.inf, math.inf]
        assert common == [math.inf]

    def test_concavity_on_random_inputs(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            lv = random_level(rng)
            lam = rng.uniform(0.02, 2.0, lv.n)
            eigs = np.linalg.eigvalsh(level_hessian(lam, lv))
            assert np.all(eigs <= 1e-10)


def assert_kernels_match_reference(lam, lv):
    ll, ref = level_log_likelihood(lam, lv), reference_log_likelihood(lam, lv)
    assert ll == ref, (lam, lv)
    assert np.array_equal(level_gradient(lam, lv), reference_gradient(lam, lv)), (lam, lv)


class TestCachedConstants:
    """The kernels reuse each level's constants and must reproduce the
    rebuild-every-call reference exactly."""

    def test_bit_identical_on_random_levels(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            lv = random_level(rng, n=int(rng.integers(1, 13)), u=float(rng.choice([0.5, 1.0, 2.0])))
            for lam in (
                rng.uniform(0.0, 2.0, lv.n),
                rng.exponential(0.3, lv.n),
                rng.uniform(0.5, 0.9, lv.n),  # both sides of log 2, the log1mexp branch point
            ):
                assert_kernels_match_reference(lam, lv)

    @pytest.mark.parametrize(
        "lv, lam",
        [
            (level(12, 6, 3, (0, 2, 0)), [0.3, 0.4, 0.0]),     # zero columns, one at rate 0
            (level(12, 6, 3, (0, 0)), [0.3, 0.4]),             # no positive count at all
            (level(12, 6, 6, (4, 3)), [0.3, 0.9]),             # unseq = 0
            (level(12, 6, 3, (2, 1)), [0.0, 0.5]),             # zero rate, positive count: -inf
            (level(12, 6, 3, (2, 1)), [-0.1, 0.5]),            # negative rate: -inf
            (level(12, 6, 3, (2, 0)), [0.5, -1e-300]),         # tiny negative rate, zero count
            (level(12, 0, 6, (6, 3)), [710.0, 0.2]),           # lam > 709
            (level(12, 3, 6, (6, 3)), [800.0, 750.0]),
            (level(12, 6, 3, (3,)), [0.4]),                    # n = 1
            (level(12, 6, 3, (3,)), 0.4),
            (level(12, 6, 0, (0,)), [0.0]),
        ],
    )
    def test_bit_identical_on_edge_cases(self, lv, lam):
        assert_kernels_match_reference(lam, lv)

    def test_cache_is_invisible_to_equality_hash_and_pickle(self):
        def single():
            return MultiDilutionAssay((level(20, 5, 8, (4, 0, 6)),), 3)

        def two_levels():
            return MultiDilutionAssay((level(20, 5, 8, (4, 0, 6)), level(20, 5, 8, (4, 0, 6), u=0.5)), 3)

        lam = np.array([0.2, 0.9, 0.1])
        for build, rates in ((single, lam[None]), (two_levels, np.array([lam, 0.5 * lam]))):
            cached = build()
            ll, g = log_likelihood(rates, cached), gradient(rates, cached)
            assert "terms" in vars(cached)
            fresh = build()
            assert "terms" not in vars(fresh)
            assert fresh == cached and hash(fresh) == hash(cached)
            restored = pickle.loads(pickle.dumps(cached))
            assert "terms" not in vars(restored)
            assert restored == cached and hash(restored) == hash(cached)
            for other in (fresh, restored):
                assert log_likelihood(rates, other) == ll
                assert np.array_equal(gradient(rates, other), g)
            assert not restored.terms.y.flags.writeable

    def test_shared_constants_are_read_only(self):
        lv = level(12, 6, 3, (2, 1))
        for terms in (one_level(lv).terms, MultiDilutionAssay((lv, level(12, 12, 0, (0, 0), u=2.0)), 2).terms):
            for arr in (terms.u, terms.y, terms.pos, terms.y_pos, terms.neg, terms.unseq):
                assert not arr.flags.writeable


# The stacked kernels against a per-level evaluation of the formula in the
# poisson docstring, written with math one term at a time.  The two add the
# same terms in other orders, so they agree to within a few ulp of the
# largest term: RTOL of the sum of the terms' magnitudes.
RTOL = 1e-12


def log_1m_exp(x):
    """log(1 - e^{-x}) for x > 0, accurate to a few ulp on both sides of log 2:
    past it log(-expm1(-x)) takes the log of a number near 1 and loses the
    low bits of a small result, so log1p(-exp(-x)) is used there instead."""
    return math.log(-math.expm1(-x)) if x < math.log(2.0) else math.log1p(-math.exp(-x))


def formula_level(lam, lv):
    """(log-likelihood, its magnitude, gradient, gradient magnitudes, Hessian) of one level."""
    lam = [float(v) for v in lam]
    neg = [lv.M_N + lv.m - y for y in lv.Y]
    unseq = lv.M - lv.M_N - lv.m
    Lam = sum(lam)
    terms = [-v * k for v, k in zip(lam, neg)]
    if any(v < 0 for v in lam) or any(v == 0 and y > 0 for v, y in zip(lam, lv.Y)) or (unseq > 0 and Lam <= 0):
        ll = -math.inf
    else:
        terms += [y * log_1m_exp(v) for v, y in zip(lam, lv.Y) if y > 0]
        if unseq > 0:
            terms.append(unseq * log_1m_exp(Lam))
        ll = math.fsum(terms)
    if min(lam) <= 0:
        return ll, sum(map(abs, terms)), None, None, None
    lead = [y / math.expm1(v) if y > 0 else 0.0 for v, y in zip(lam, lv.Y)]
    shared = unseq / math.expm1(Lam) if unseq else 0.0
    grad = np.array([a - k + shared for a, k in zip(lead, neg)])
    scale = np.array([a + k + abs(shared) for a, k in zip(lead, neg)])
    curvature = unseq * math.exp(Lam) / math.expm1(Lam) ** 2 if unseq else 0.0
    hess = np.full((len(lam), len(lam)), -curvature)
    for i, (v, y) in enumerate(zip(lam, lv.Y)):
        hess[i, i] -= y * math.exp(v) / math.expm1(v) ** 2
    return ll, sum(map(abs, terms)), grad, scale, hess


@st.composite
def stacked_assays(draw):
    """D levels of n lineages, each with zero counts now and then and, at
    times, every positive well sequenced; and (D, n) rates with at most one
    zero or negative entry."""
    D, n = draw(st.integers(1, 4)), draw(st.integers(1, 20))
    levels = []
    for d in range(D):
        M = draw(st.integers(1, 40))
        M_N = draw(st.integers(0, M))
        m = M - M_N if draw(st.booleans()) else draw(st.integers(0, M - M_N))
        Y = draw(st.lists(st.integers(0, m), min_size=n, max_size=n))
        levels.append(level(M, M_N, m, Y, u=0.5 * (d + 1)))
    lam = np.array(draw(st.lists(st.floats(0.01, 3.0), min_size=D * n, max_size=D * n))).reshape(D, n)
    edit = draw(st.sampled_from(["none", "zero", "negative"]))
    if edit != "none":
        lam[draw(st.integers(0, D - 1)), draw(st.integers(0, n - 1))] = 0.0 if edit == "zero" else -draw(st.floats(1e-300, 1.0))
    return MultiDilutionAssay(tuple(levels), n), lam


class TestStackedKernels:
    @given(stacked_assays())
    def test_every_level_matches_the_formula(self, case):
        assay, lam = case
        per_level = [formula_level(row, lv) for row, lv in zip(lam, assay.levels)]
        ll = log_likelihood(lam, assay)
        want = math.fsum(p[0] for p in per_level)
        if math.isinf(want):
            assert ll == want
        else:
            assert abs(ll - want) <= RTOL * sum(p[1] for p in per_level)
        if lam.min() <= 0.0:
            return
        g, H = gradient(lam, assay), dense_hessian(lam, assay)
        assert g.shape == lam.shape and H.shape == lam.shape + lam.shape[1:]
        for d, (_, _, grad, scale, hess) in enumerate(per_level):
            assert np.all(np.abs(g[d] - grad) <= RTOL * scale)
            np.testing.assert_allclose(H[d], hess, rtol=RTOL, atol=0.0)


class TestClosedForms:
    @pytest.mark.parametrize(
        "M,M_N,expected",
        [(12, 6, math.log(2)), (24, 8, math.log(3)), (36, 36, 0.0)],
    )
    def test_no_sequencing(self, M, M_N, expected):
        assert closed_form_no_udsa(M, M_N) == pytest.approx(expected, abs=1e-12)

    def test_no_sequencing_divergent_case(self):
        assert closed_form_no_udsa(10, 0) == math.inf

    def test_full_sequencing_values(self):
        np.testing.assert_allclose(
            closed_form_full_udsa(10, (2, 5)),
            [-math.log1p(-0.2), -math.log1p(-0.5)],
            rtol=1e-12,
        )
        assert closed_form_full_udsa(32, (1,))[0] == pytest.approx(0.0317486983, abs=1e-9)

    def test_full_sequencing_divergent_component(self):
        out = closed_form_full_udsa(4, (4,))
        assert out[0] == math.inf


class TestOneLevelMle:
    """The paths of the one-level root in the total rate."""

    @pytest.mark.parametrize(
        "M, M_N, Y, u",
        [(12, 7, (3, 2), 1.0), (40, 0, (39, 25, 1), 0.25), (100_000, 1, (99_999,), 1e3), (9, 4, (5,), 2e-3)],
    )
    def test_full_sequencing_is_the_closed_form_to_the_bit(self, M, M_N, Y, u):
        lv = level(M, M_N, M - M_N, Y, u)
        lam, converged, steps = one_level_mle(lv)
        assert (lam.tobytes(), converged, steps) == (closed_form_full_udsa(M, Y).tobytes(), True, 0)
        fit = fit_mle(MultiDilutionAssay((lv,), len(Y)))
        assert fit.tau_hat.tobytes() == (closed_form_full_udsa(M, Y) / u).tobytes()
        assert (fit.converged, fit.iterations) == (True, 0)

    def test_no_lineages_is_the_total_closed_form(self):
        lam, converged, steps = one_level_mle(level(24, 8, 0, ()))
        assert (lam.tolist(), converged, steps) == ([closed_form_no_udsa(24, 8)], True, 0)

    @pytest.mark.parametrize(
        "M, M_N, m, Y",
        [
            (10, 0, 4, (3, 2)),  # no negative well, 2 unsequenced positive ones
            (200_000, 0, 3, (2, 2)),
            (200_000, 0, 12, (11,) + (1,) * 11),
            (200_000, 1, 2, (2, 1)),  # b_1 - C is 2e-5 of b_1 at the root
            (100_000, 1, 5, (5, 1, 1)),  # and 8e-5 here
        ],
    )
    def test_matches_decimal_bisection(self, M, M_N, m, Y):
        lv = level(M, M_N, m, Y)
        lam, converged, steps = one_level_mle(lv)
        assert converged and steps <= 12
        np.testing.assert_allclose(lam, decimal_one_level_rates(lv), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("M, M_N, m", [(1000, 1, 10), (37, 5, 4), (200_000, 3, 150)])
    def test_one_lineage_is_the_rate_without_sequencing(self, M, M_N, m):
        # the lineage is in every sequenced well, so its rate is the total log(M / M_N)
        lam, converged, steps = one_level_mle(level(M, M_N, m, (m,)))
        assert converged and steps <= 2
        assert abs(lam[0] - closed_form_no_udsa(M, M_N)) <= math.ulp(lam[0])


class TestClassifyExtreme:
    def test_all_negative(self):
        lv = level(12, 12, 0, ())
        assay = MultiDilutionAssay((lv,), 0)
        assert classify_extreme(assay) is ExtremeOutcome.ALL_NEGATIVE

    def test_all_positive_single_lineage(self):
        lv = level(6, 0, 6, (6,))
        assay = MultiDilutionAssay((lv,), 1)
        assert classify_extreme(assay) is ExtremeOutcome.ALL_POSITIVE_SINGLE_DVL

    def test_all_positive_no_sequencing(self):
        lv = level(6, 0, 0, ())
        assay = MultiDilutionAssay((lv,), 0)
        assert classify_extreme(assay) is ExtremeOutcome.ALL_POSITIVE_SINGLE_DVL

    def test_negatives_at_other_levels_keep_it_regular(self):
        # an all-positive level is fine as long as some level has negatives
        levels = (
            level(18, 0, 0, (0, 0, 0), u=2.5),
            level(6, 3, 3, (2, 1, 1), u=0.5),
            level(6, 5, 1, (1, 0, 0), u=0.1),
        )
        assay = MultiDilutionAssay(levels, 3)
        assert classify_extreme(assay) is ExtremeOutcome.REGULAR

    def test_shared_lineage_across_levels_detected(self):
        levels = (
            level(4, 0, 4, (4, 2), u=1.0),
            level(4, 0, 2, (2, 1), u=0.5),
        )
        assay = MultiDilutionAssay(levels, 2)
        assert classify_extreme(assay) is ExtremeOutcome.ALL_POSITIVE_SINGLE_DVL


class TestAugmentedLikelihood:
    @settings(max_examples=10)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_zero_count_lineage_gets_zero_rate(self, seed):
        # appending an undetected lineage and maximizing over n+1 bounded
        # rates must leave the total unchanged with the new rate at zero.
        # Only a regular level has a finite MLE to compare: with every well
        # positive and one lineage in every sequenced well, that rate runs
        # off to infinity and both fits stop at arbitrary large values.
        rng = np.random.default_rng(seed)
        lv = random_level(rng, require_detected=True)
        while classify_extreme(MultiDilutionAssay((lv,), lv.n)) is not ExtremeOutcome.REGULAR:
            lv = random_level(rng, require_detected=True)
        augmented = level(lv.M, lv.M_N, lv.m, tuple(lv.Y) + (0,))

        def f(lam):
            return level_log_likelihood(lam, augmented)

        def g(lam):
            return level_gradient(lam, augmented)

        base = maximize(
            lambda lam: level_log_likelihood(lam, lv),
            lambda lam: level_gradient(lam, lv),
            np.full(lv.n, 0.2),
            np.zeros(lv.n),
        )
        res = maximize(f, g, np.full(lv.n + 1, 0.2), np.zeros(lv.n + 1))
        assert res.x[-1] <= 1e-6
        assert abs(res.x.sum() - base.x.sum()) < 1e-6
