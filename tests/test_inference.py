import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from iupm import (
    AssayDataError,
    DilutionLevelData,
    ErrorRates,
    ExtremeOutcome,
    ImperfectModel,
    LevelPass,
    MultiDilutionAssay,
    SingularInformationError,
    WellAssay,
    classify_extreme,
    closed_form_full_udsa,
    covariance,
    fisher_information_multi,
    fit_imperfect,
    fit_mle,
    wald_ci,
)
from iupm import poisson
from iupm.inference import (
    _TABLE_MAX,
    _binomial_sums,
    _log_binom_row,
    _log_factorials,
    _nonzero_window,
    level_params,
)
from iupm.simulate import SimLevel, SimScenario, _rng_for, _simulate_until_regular
from iupm.special import expm1_ratio, log1mexp, nint
from helpers import (
    decimal_one_level_rates,
    enumerate_expectations,
    exact_binomial_sums,
    exact_log_binom,
    exact_log_factorial,
    load_subjects,
    log_binom,
    myers_mle_bisect,
    random_regular_assay,
    reference_binomial_sums,
    reference_binomial_weights,
    reference_fit_total_only,
    reference_sum_scales,
    subject_assay,
)

Z975 = 1.959963984540054


def expected_m(Lambda, M, q):
    """Expected number of sequenced positive wells: Em of the binomial sums."""
    return _binomial_sums(Lambda, M, q)[0]


def expected_y(lam, Lambda, M, q):
    """Expected per-lineage sequenced count, (1 - e^{-lam}) F as the information forms it."""
    return -np.expm1(-np.asarray(lam, dtype=float)) * _binomial_sums(Lambda, M, q)[1]


class TestExpectations:
    def test_expected_m_full_sequencing_is_binomial_mean(self):
        assert expected_m(1.0, 12, 1.0) == pytest.approx(12 * (1 - math.exp(-1.0)), rel=1e-12)

    def test_expected_m_no_sequencing(self):
        assert expected_m(1.0, 12, 0.0) == 0.0

    def test_expected_m_tie_rule(self):
        # M = 2, negative probability 1/2: positive count 1 sequences
        # round-half-even(0.5) = 0 wells, count 2 sequences 1
        assert expected_m(math.log(2.0), 2, 0.5) == pytest.approx(0.25, rel=1e-12)

    def test_expected_y_full_sequencing(self):
        assert expected_y(0.2, 1.0, 12, 1.0) == pytest.approx(
            12 * (1 - math.exp(-0.2)), rel=1e-12
        )

    def test_expected_y_vanishes_without_sequencing_or_rate(self):
        assert expected_y(0.3, 1.0, 10, 0.0) == 0.0
        assert expected_y(0.0, 1.0, 10, 1.0) == 0.0

    def test_expectations_match_exhaustive_enumeration(self):
        lam = np.array([0.3, 0.7])
        for q in (0.5, 0.75, 1.0):
            em_exact, ey_exact = enumerate_expectations(lam, 4, q)
            assert expected_m(float(lam.sum()), 4, q) == pytest.approx(em_exact, rel=1e-10)
            np.testing.assert_allclose(
                expected_y(lam, float(lam.sum()), 4, q), ey_exact, rtol=1e-10
            )

    @given(
        st.floats(min_value=0.01, max_value=0.95),
        st.floats(min_value=0.05, max_value=3.0),
        st.integers(min_value=1, max_value=40),
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    )
    def test_ordering_bounds(self, frac, Lam, M, q):
        lam_i = frac * Lam
        ey = float(expected_y(lam_i, Lam, M, q))
        em = expected_m(Lam, M, q)
        assert -1e-12 <= ey <= em + 1e-12 <= M + 1e-12


def scalar_expected_m(Lam, M, q):
    """Per-k reference: log weights term by term, then one dot product."""
    if Lam <= 0.0 or q == 0.0:
        return 0.0
    k = np.arange(M + 1, dtype=float)
    log_w = np.array([log_binom(M, kk) for kk in range(M + 1)])
    log_w += np.where(k > 0, k * -Lam, 0.0)
    log_w += np.where(M - k > 0, (M - k) * log1mexp(Lam), 0.0)
    seq = np.array([nint(q * (M - kk)) for kk in range(M + 1)], dtype=float)
    return float(np.exp(log_w) @ seq)


def scalar_expected_y(lam, Lam, M, q):
    """Per-k reference: sum over the negative-well count k < M of
    C(M,k) <q(M-k)> e^{-Lam k} (1-e^-Lam)^{M-k-1}, scaled by 1 - e^{-lam}.

    log C(M, k) is taken at the negative count, as in ``expected_m``; the
    mirror form log C(M, M-k) rounds differently, and at M = 2000, where the
    lgamma terms are near 1e4, the two sums part by up to 2e-13.
    """
    if Lam <= 0.0 or q == 0.0:
        return 0.0 * lam
    l1m = log1mexp(Lam)
    total = 0.0
    for k in range(M):
        seq = nint(q * (M - k))
        if seq:
            total += seq * math.exp(log_binom(M, k) - Lam * k + (M - k - 1) * l1m)
    return -np.expm1(-lam) * total


def assert_sums_near_exact(Lam, M, q, which=(0, 1, 2, 3)):
    """Each of the chosen (Em, F, dEm, dF) lies within 2 ulp of log M!, times
    its absolute-term scale, of the 40-digit sums over the window: the error
    that a float log C(M, k) row within about 2 ulp of log M! allows.  Below
    M = 3, where log M! < 1, the ulp is that of 1.0: the exact sums' own
    rounding of their weights and products (the closed forms of q = 1 are
    checked there)."""
    lo, hi = _nonzero_window(M, math.exp(-Lam))
    sums, exact = _binomial_sums(Lam, M, q), exact_binomial_sums(Lam, M, q, lo, hi)
    scales = reference_sum_scales(Lam, M, q)
    ulp = math.ulp(max(math.lgamma(M + 1), 1.0))
    for i in which:
        assert abs(sums[i] - exact[i]) <= 2.0 * ulp * scales[i], (Lam, q, i)


class TestVectorizedExpectations:
    @pytest.mark.parametrize("M", [1, 2, 12, 37, 2000])
    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 1.0])
    def test_match_scalar_loops(self, M, q):
        # q = 0.25 and 0.5 put positive counts on the round-half-even ties of nint
        for Lam in (0.01, 0.3, math.log(2.0), 1.7, 6.0):
            lam = np.array([0.2, 0.5, 0.3]) * Lam
            if M <= 380:
                if q == 1.0:
                    # no pass is made: Em is M p, near the exact sum
                    assert expected_m(Lam, M, q) == M * -math.expm1(-Lam)
                    assert_sums_near_exact(Lam, M, q, [0, 1])
                else:
                    assert expected_m(Lam, M, q) == scalar_expected_m(Lam, M, q)
                np.testing.assert_allclose(
                    expected_y(lam, Lam, M, q), scalar_expected_y(lam, Lam, M, q), rtol=1e-13, atol=0.0
                )
            else:
                # the row comes from Stirling's series here and the scalar
                # loops from lgamma, so the sums are checked against exact
                # arithmetic instead of the loops
                assert_sums_near_exact(Lam, M, q, [0, 1])

    def test_q_outside_unit_interval_raises(self):
        with pytest.raises(ValueError):
            expected_y(0.2, 1.0, 12, 1.5)


WINDOW_M = [1, 2, 36, 379, 380, 381, 2000, 20_000, 200_000, 200_003]
WINDOW_LAMBDA = [1e-8, 1e-4, 0.01, 0.3, math.log(2.0), 1.0, 6.0, 30.0, 700.0]
WINDOW_Q = [0.25, 0.5, 1.0]


class TestNonzeroWindow:
    """The sums are evaluated only on the counts whose weight can be nonzero."""

    @pytest.mark.parametrize("M", WINDOW_M)
    def test_bit_identical_to_full_row(self, M):
        # above M = 380 the window is shorter than the row, the dot products
        # group the same terms differently and the row comes from Stirling's
        # series, so the sums are checked against exact arithmetic instead;
        # at q = 1 no pass is made, and the closed forms are checked the same way
        for Lam in WINDOW_LAMBDA:
            for q in WINDOW_Q:
                if q == 1.0:
                    p, s = -math.expm1(-Lam), math.exp(-Lam)
                    assert _binomial_sums(Lam, M, q) == (M * p, M, M * s, 0.0), Lam
                    assert_sums_near_exact(Lam, M, q)
                elif M <= 380:
                    assert _binomial_sums(Lam, M, q) == reference_binomial_sums(Lam, M, q), (Lam, q)
                else:
                    assert_sums_near_exact(Lam, M, q)

    @pytest.mark.parametrize("M", WINDOW_M)
    def test_weights_outside_window_are_zero(self, M):
        for Lam in WINDOW_LAMBDA:
            lo, hi = _nonzero_window(M, math.exp(-Lam))
            assert 0 <= lo <= hi <= M
            w = reference_binomial_weights(Lam, M)
            assert np.all(w[:lo] == 0.0) and np.all(w[hi + 1:] == 0.0), Lam
            if M >= 2000:
                assert hi - lo < M

    @pytest.mark.parametrize("M", WINDOW_M)
    def test_cached_row_holds_only_the_window(self, M):
        for Lam in WINDOW_LAMBDA:
            lo, hi = _nonzero_window(M, math.exp(-Lam))
            assert _log_binom_row(M, lo, hi).shape == (hi - lo + 1,)

    @pytest.mark.parametrize("M", WINDOW_M)
    def test_row_matches_log_binom(self, M):
        # to the bit where the row comes from the lgamma table; above that
        # within 4 ulp of log M! of the exact log C(M, k) at sampled k
        ulp = math.ulp(math.lgamma(M + 1))
        for Lam in WINDOW_LAMBDA:
            lo, hi = _nonzero_window(M, math.exp(-Lam))
            row = _log_binom_row(M, lo, hi).tolist()
            if M <= 380:
                assert row == [log_binom(M, k) for k in range(lo, hi + 1)], Lam
                continue
            ks = {lo, hi, *np.linspace(lo, hi, 31).round().astype(int).tolist()}
            ks |= {k for k in (380, 381, M - 381, M - 380) if lo <= k <= hi}
            for k in sorted(ks):
                assert abs(row[k - lo] - exact_log_binom(M, k)) <= 4.0 * ulp, (Lam, k)

    def test_small_rows_are_whole(self):
        for M in (1, 36, 380):
            for Lam in WINDOW_LAMBDA:
                assert _nonzero_window(M, math.exp(-Lam)) == (0, M)

    def test_large_m_sums_call_lgamma_at_most_once(self, monkeypatch):
        # the row's log k! come from the table or from numpy, not from a
        # math.lgamma call per count (about 35 000 of them at M = 200 000)
        calls = []
        lgamma = math.lgamma

        def counting_lgamma(x):
            calls.append(x)
            return lgamma(x)

        monkeypatch.setattr(math, "lgamma", counting_lgamma)
        _binomial_sums(1.0, 200_000, 0.5)
        assert len(calls) <= 1


def assert_log_factorial(n, value):
    """To the bit of lgamma where the table holds n; above, within 2 ulp of
    the exact log n! and 3 ulp of lgamma, which is itself up to 1.86 ulp off
    (on n = 381..60000, where the two part by 3 ulp at 21 n, first n = 3907)."""
    reference = math.lgamma(n + 1)
    if n <= _TABLE_MAX:
        assert value == reference, n
    else:
        exact = exact_log_factorial(n)
        assert abs(value - exact) <= 2.0 * math.ulp(exact), n
        assert abs(value - reference) <= 3.0 * math.ulp(reference), n


class TestLogFactorials:
    @pytest.mark.parametrize(
        "a, b",
        [(0, 0), (0, 380), (17, 17), (100, 250), (380, 380), (381, 381), (380, 381),
         (0, 381), (200, 1200), (381, 1500), (99_000, 100_000), (10**7 - 50, 10**7)],
    )
    def test_ranges_match_log_factorial(self, a, b):
        values = _log_factorials(a, b)
        assert values.shape == (b - a + 1,)
        for n, value in zip(range(a, b + 1), values.tolist()):
            assert_log_factorial(n, value)

    def test_sampled_entries_up_to_1e7(self):
        rng = np.random.default_rng(11)
        for n in rng.integers(_TABLE_MAX + 1, 10**7, 500).tolist():
            assert_log_factorial(n, _log_factorials(n, n)[0])

    def test_table_slices_are_read_only(self):
        assert not _log_factorials(0, 380).flags.writeable


class TestFisherInformation:
    def test_full_sequencing_diagonal_form(self):
        # the q = 1 sums are closed forms, so the off-diagonal is exactly 0
        for M in (24, 380, 200_000):
            info = fisher_information_multi(LevelPass(np.array([0.3, 0.3]), [(1.0, M, 1.0)]))
            expected = M / math.expm1(0.3)
            np.testing.assert_allclose(np.diag(info), expected, rtol=1e-12)
            assert info[0, 1] == info[1, 0] == 0.0

    def test_exchangeable_rates_give_exchangeable_information(self):
        info = fisher_information_multi(LevelPass(np.array([0.25, 0.25, 0.25]), [(1.0, 18, 0.5)]))
        d = np.diag(info)
        assert d[0] == pytest.approx(d[1], rel=1e-12) == pytest.approx(d[2], rel=1e-12)
        off = info[~np.eye(3, dtype=bool)]
        assert np.ptp(off) < 1e-14

    def test_single_lineage_no_sequencing(self):
        info = fisher_information_multi(LevelPass(np.array([0.7]), [(1.0, 12, 0.0)]))
        assert info[0, 0] == pytest.approx(12.0 / math.expm1(0.7), rel=1e-12)

    def test_no_sequencing_information_at_small_rates(self):
        # M p - Em is formed as M (1 - e^-Lam) without cancellation as Lam -> 0
        for Lam in np.geomspace(1e-8, 5.0, 200):
            info = fisher_information_multi(LevelPass(np.array([Lam]), [(1.0, 24, 0.0)]))[0, 0]
            assert info == pytest.approx(24.0 / math.expm1(Lam), rel=1e-15, abs=0.0), Lam

    def test_matches_enumerated_expectations(self):
        # entries are linear in E(Y), E(m), E(M_N); rebuild them from the
        # exhaustive enumeration and compare
        lam = np.array([0.3, 0.7])
        M, q = 4, 0.5
        em, ey = enumerate_expectations(lam, M, q)
        Lam = float(lam.sum())
        tL = math.expm1(Lam)
        common = (M - M * math.exp(-Lam) - em) * (tL + 1) / tL**2
        t = np.expm1(lam)
        diag = ey * (t + 1) / t**2 + common
        expected = np.full((2, 2), common)
        np.fill_diagonal(expected, diag)
        np.testing.assert_allclose(fisher_information_multi(LevelPass(lam, [(1.0, M, q)])), expected, rtol=1e-10)

    def test_multi_reduces_to_single(self):
        # one level at dilution u is u^2 times the per-well information at u tau,
        # F / t_i + c on the diagonal and c off it
        tau = np.array([0.2, 0.4])
        for u in (0.5, 1.0, 2.0):
            lam = u * tau
            Lam = float(lam.sum())
            Em, F, _, _ = _binomial_sums(Lam, 20, 0.75)
            common = expm1_ratio(20 * -math.expm1(-Lam) - Em, Lam, 2)
            single = np.full((2, 2), common)
            np.fill_diagonal(single, F / np.expm1(lam) + common)
            multi = fisher_information_multi(LevelPass(tau, [(u, 20, 0.75)]))
            np.testing.assert_allclose(multi, u * u * single, rtol=1e-14)

    def test_identical_levels_double_the_information(self):
        tau = np.array([0.2, 0.4])
        one = fisher_information_multi(LevelPass(tau, [(1.0, 20, 0.75)]))
        two = fisher_information_multi(LevelPass(tau, [(1.0, 20, 0.75), (1.0, 20, 0.75)]))
        np.testing.assert_allclose(two, 2.0 * one, rtol=1e-14)

    def test_multi_matches_per_level_enumeration(self):
        tau = np.array([0.15, 0.35])
        levels = [(0.5, 4, 0.5), (1.0, 3, 1.0), (2.0, 4, 0.75)]
        expected = np.zeros((2, 2))
        for u, M, q in levels:
            lam = u * tau
            em, ey = enumerate_expectations(lam, M, q)
            Lam = float(lam.sum())
            tL = math.expm1(Lam)
            common = (M - M * math.exp(-Lam) - em) * (tL + 1) / tL**2
            t = np.expm1(lam)
            block = np.full((2, 2), common)
            np.fill_diagonal(block, ey * (t + 1) / t**2 + common)
            expected += u * u * block
        np.testing.assert_allclose(
            fisher_information_multi(LevelPass(tau, levels)), expected, rtol=1e-10
        )


    def test_off_diagonal_is_the_summed_common_term(self):
        # the structured bias term rests on every off-diagonal entry being
        # the same constant, sum_d u_d^2 c_d
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            tau = rng.uniform(0.05, 0.8, n)
            levels = [
                (float(u), int(rng.integers(1, 400)), float(rng.choice([0.0, 0.25, 0.5, 1.0])))
                for u in rng.choice([0.25, 0.5, 1.0, 2.0], size=int(rng.integers(1, 4)), replace=False)
            ]
            common = 0.0
            for u, M, q in levels:
                Lam = float(u * tau.sum())
                Em = _binomial_sums(Lam, M, q)[0]
                common += u * u * expm1_ratio(M * -math.expm1(-Lam) - Em, Lam, 2)
            off = fisher_information_multi(LevelPass(tau, levels))[~np.eye(n, dtype=bool)]
            assert np.all(off == common)


class TestCovariance:
    def test_diagonal_inverse(self):
        cov = covariance(np.diag([2.0, 5.0]))
        np.testing.assert_allclose(cov, np.diag([0.5, 0.2]), rtol=1e-14)

    def test_known_two_by_two(self):
        cov = covariance(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(cov, [[2 / 3, -1 / 3], [-1 / 3, 2 / 3]], rtol=1e-12)

    def test_multiplies_back_to_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            A = rng.normal(size=(n, n))
            info = A @ A.T + n * np.eye(n)
            cov = covariance(info)
            np.testing.assert_allclose(cov @ info, np.eye(n), atol=1e-10)

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularInformationError):
            covariance(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestWaldCI:
    def test_reference_values(self):
        lo, hi = wald_ci(1.0, 0.2, 0.05)
        assert lo == pytest.approx(math.exp(-Z975 * 0.2), rel=1e-12)
        assert hi == pytest.approx(math.exp(Z975 * 0.2), rel=1e-12)
        lo2, hi2 = wald_ci(2.0, 0.5, 0.05)
        assert lo2 == pytest.approx(2.0 * math.exp(-Z975 * 0.25), rel=1e-12)
        assert hi2 == pytest.approx(2.0 * math.exp(Z975 * 0.25), rel=1e-12)

    def test_zero_se_collapses(self):
        assert wald_ci(1.5, 0.0) == (1.5, 1.5)

    def test_degenerate_estimates(self):
        assert wald_ci(0.0, 0.3) == (0.0, 0.0)
        assert wald_ci(math.inf, 0.3) == (math.inf, math.inf)

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.001, max_value=0.5),
    )
    def test_contains_the_estimate(self, iupm, se, alpha):
        lo, hi = wald_ci(iupm, se, alpha)
        assert 0.0 < lo <= iupm <= hi


class TestFitMle:
    def test_full_sequencing_matches_closed_form(self):
        lv = DilutionLevelData(u=1.0, M=12, M_N=7, m=5, Y=(3, 2))
        fit = fit_mle(MultiDilutionAssay((lv,), 2))
        np.testing.assert_allclose(fit.tau_hat, closed_form_full_udsa(12, (3, 2)), atol=1e-8)
        assert fit.converged

    def test_no_sequencing_matches_closed_form_exactly(self):
        lv = DilutionLevelData(u=2.0, M=24, M_N=8, m=0, Y=(), q=0.0)
        fit = fit_mle(MultiDilutionAssay((lv,), 0))
        assert fit.iupm == pytest.approx(math.log(3.0) / 2.0, abs=1e-10)
        assert fit.tau_hat.shape == (1,)

    def test_multi_level_no_sequencing_matches_bisection(self):
        subjects = load_subjects()
        for name in ("C4", "C10", "C13", "C17"):
            assay = subject_assay(subjects[name])
            fit = fit_mle(assay)
            oracle = myers_mle_bisect(assay.levels)
            assert fit.iupm == pytest.approx(oracle, abs=1e-8)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        assay = random_regular_assay(rng, D=2, n=4)
        fit = fit_mle(assay)
        perm = rng.permutation(4)
        permuted = MultiDilutionAssay(
            tuple(
                DilutionLevelData(
                    u=lv.u, M=lv.M, M_N=lv.M_N, m=lv.m, Y=tuple(lv.Y[i] for i in perm), q=lv.q
                )
                for lv in assay.levels
            ),
            4,
        )
        fit_p = fit_mle(permuted)
        assert fit.iupm == pytest.approx(fit_p.iupm, abs=1e-8)
        np.testing.assert_allclose(fit.tau_hat[perm], fit_p.tau_hat, atol=1e-8)

    def test_dilution_scaling_consistency(self):
        rng = np.random.default_rng(14)
        base = random_regular_assay(rng, D=1, n=3, M=30)
        lv = base.levels[0]
        for u in (0.5, 2.0):
            scaled = MultiDilutionAssay(
                (DilutionLevelData(u=u, M=lv.M, M_N=lv.M_N, m=lv.m, Y=lv.Y, q=lv.q),), 3
            )
            fit_scaled = fit_mle(scaled)
            fit_unit = fit_mle(
                MultiDilutionAssay(
                    (DilutionLevelData(u=1.0, M=lv.M, M_N=lv.M_N, m=lv.m, Y=lv.Y, q=lv.q),), 3
                )
            )
            np.testing.assert_allclose(u * fit_scaled.tau_hat, fit_unit.tau_hat, atol=1e-8)

    @settings(max_examples=20)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_stationarity_and_se_identity(self, seed):
        rng = np.random.default_rng(seed)
        assay = random_regular_assay(rng, D=int(rng.integers(1, 3)), n=3)
        fit = fit_mle(assay)
        assert fit.converged
        u = assay.terms.u
        grad = (u * poisson.gradient(u * fit.tau_hat, assay)).sum(axis=0)
        assert np.max(np.abs(fit.tau_hat * grad)) <= 1e-6
        assert fit.se_iupm == pytest.approx(math.sqrt(float(fit.covariance.sum())), rel=1e-12)
        eigs = np.linalg.eigvalsh(fit.covariance)
        assert np.all(eigs > 0)
        assert fit.log_lik == pytest.approx(poisson.log_likelihood(u * fit.tau_hat, assay), rel=1e-12)

    def test_mixed_zero_q_level_contributes_its_counts(self):
        # a level with no sequencing still informs the total through M_N
        lv1 = DilutionLevelData(u=1.0, M=20, M_N=9, m=5, Y=(3, 2, 1), q=0.5)
        lv0 = DilutionLevelData(u=2.0, M=10, M_N=4, m=0, Y=(0, 0, 0), q=0.0)
        both = fit_mle(MultiDilutionAssay((lv1, lv0), 3))
        only = fit_mle(MultiDilutionAssay((lv1,), 3))
        assert both.iupm != pytest.approx(only.iupm, abs=1e-4)
        assert both.se_iupm < only.se_iupm

    def test_all_negative_short_circuit(self):
        lv = DilutionLevelData(u=1.0, M=12, M_N=12, m=0, Y=())
        fit = fit_mle(MultiDilutionAssay((lv,), 0))
        assert fit.extreme is ExtremeOutcome.ALL_NEGATIVE
        assert fit.iupm == 0.0
        assert fit.ci == (0.0, 0.0)

    def test_all_positive_single_lineage_short_circuit(self):
        lv = DilutionLevelData(u=1.0, M=6, M_N=0, m=6, Y=(6,))
        fit = fit_mle(MultiDilutionAssay((lv,), 1))
        assert fit.extreme is ExtremeOutcome.ALL_POSITIVE_SINGLE_DVL
        assert fit.iupm == math.inf
        assert fit.ci == (math.inf, math.inf)

    @pytest.mark.parametrize(
        "levels",
        [[(1.0, 10, 5, 3, (3, 0))], [(1.0, 10, 5, 3, (3, 0)), (0.5, 12, 8, 2, (2, 0))]],
        ids=["one-level", "two-levels"],
    )
    def test_never_detected_lineage_is_refused(self, levels):
        # its log-rate has no finite maximum: one level used to fail in the
        # information, two to return a "converged" rate near 1e-9
        assay = MultiDilutionAssay(tuple(DilutionLevelData(*lv) for lv in levels), 2)
        with pytest.raises(AssayDataError, match=r"^lineage 1: never detected \(sum of Y across levels is 0\)$"):
            fit_mle(assay)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 5.0, math.nan])
    @pytest.mark.parametrize("outcome", ["regular", "all-negative", "all-positive", "n0-closed-form", "imperfect"])
    def test_every_outcome_refuses_alpha_outside_unit_interval(self, outcome, alpha):
        wells = WellAssay(1.0, [1, 1, 1, 0, 0, 1], [1, 1, 1, 0, 0, 1], [[1, 0], [0, 1], [1, 1], [0, 0], [0, 0], [1, 0]])
        fits = {
            "regular": lambda: fit_mle(MultiDilutionAssay((DilutionLevelData(1.0, 6, 3, 2, (1,)),), 1), alpha),
            "all-negative": lambda: fit_mle(MultiDilutionAssay((DilutionLevelData(1.0, 6, 6, 0, (0,)),), 1), alpha),
            "all-positive": lambda: fit_mle(MultiDilutionAssay((DilutionLevelData(1.0, 6, 0, 6, (6,)),), 1), alpha),
            "n0-closed-form": lambda: fit_mle(MultiDilutionAssay((DilutionLevelData(1.0, 12, 5, 0, ()),), 0), alpha),
            "imperfect": lambda: fit_imperfect(
                ImperfectModel(rates=ErrorRates(0.9, 0.9, 0.9, 0.9), assays=(wells,)), alpha=alpha
            ),
        }
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            fits[outcome]()

    def test_q_zero_everywhere_equals_total_only_model(self):
        # sequencing columns empty at every level: identical to the classic fit
        levels = (
            DilutionLevelData(u=1.0, M=24, M_N=10, m=0, Y=(), q=0.0),
            DilutionLevelData(u=0.5, M=12, M_N=9, m=0, Y=(), q=0.0),
        )
        fit = fit_mle(MultiDilutionAssay(levels, 0))
        assert fit.iupm == pytest.approx(myers_mle_bisect(levels), abs=1e-9)

    def test_overflowing_trial_steps_raise_no_warning(self):
        # at M = 20000 the first BFGS trial steps push exp(theta) past the float range
        lv = DilutionLevelData(u=1.0, M=20000, M_N=7358, m=6321, Y=(2835, 2840, 2830))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_mle(MultiDilutionAssay((lv,), 3))
        assert fit.converged
        assert fit.iupm == pytest.approx(1.0, rel=1e-3)

    def test_total_only_fit_with_widely_spread_dilutions(self):
        # at u = 1000 the solver's trial steps put e^{uT} past the float range
        levels = (
            DilutionLevelData(u=1000.0, M=12, M_N=3, m=0, Y=(), q=0.0),
            DilutionLevelData(u=0.001, M=12, M_N=10, m=0, Y=(), q=0.0),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_mle(MultiDilutionAssay(levels, 0))
        assert fit.converged
        assert fit.iupm == pytest.approx(myers_mle_bisect(levels, hi=0.5), rel=1e-7)
        assert math.isfinite(fit.se_iupm) and fit.se_iupm > 0.0

    def test_level_params_use_recorded_or_derived_q(self):
        lv = DilutionLevelData(u=1.0, M=12, M_N=6, m=3, Y=(3,))
        assert level_params(MultiDilutionAssay((lv,), 1)) == [(1.0, 12, 0.5)]


@st.composite
def one_level_assays(draw):
    """A regular one-level assay: M from 1 to 2e5 spread over its decades, n
    from 1 to 12, a sequenced fraction q in [0, 1] of the positive wells (at
    least one), and u from 1e-3 to 1e3.  Lineage i is in at least its share
    of the m sequenced wells, so every sequenced well carries a lineage."""
    M = max(1, round(10.0 ** draw(st.floats(0.0, math.log10(2e5)))))
    M_N = draw(st.integers(0, M - 1))
    M_P = M - M_N
    m = min(M_P, max(1, round(draw(st.floats(0.0, 1.0)) * M_P)))
    n = draw(st.integers(1, 12))
    Y = tuple(
        min(m, max(1, m // n + (i < m % n), round(draw(st.floats(0.0, 1.0)) * m))) for i in range(n)
    )
    u = 10.0 ** draw(st.floats(-3.0, 3.0))
    assay = MultiDilutionAssay((DilutionLevelData(u=u, M=M, M_N=M_N, m=m, Y=Y),), n)
    assume(classify_extreme(assay) is ExtremeOutcome.REGULAR)
    return assay


def small_one_level_assays(rng, count):
    """``count`` regular one-level assays with M < 60, n <= 6 and unsequenced positive wells."""
    assays = []
    while len(assays) < count:
        M = int(rng.integers(2, 60))
        M_N = int(rng.integers(0, M))
        m = int(rng.integers(1, M - M_N + 1))
        n = int(rng.integers(1, 7))
        Y = tuple(int(min(m, max(1, m // n + (i < m % n), rng.integers(0, m + 1)))) for i in range(n))
        u = float(10.0 ** rng.uniform(-2.0, 2.0))
        assay = MultiDilutionAssay((DilutionLevelData(u=u, M=M, M_N=M_N, m=m, Y=Y),), n)
        if M - M_N - m > 0 and classify_extreme(assay) is ExtremeOutcome.REGULAR:
            assays.append(assay)
    return assays


class TestOneLevelOptimum:
    """A one-level fit is the optimum itself, not a solver's stopping point."""

    @settings(max_examples=300, derandomize=True)
    @given(one_level_assays())
    def test_scaled_score_vanishes(self, assay):
        # tau_i dl/dtau_i = lam_i [Y_i / (e^lam_i - 1) - b_i + U / (e^Lam - 1)], with
        # b_i = M_N + m - Y_i: at most 1e-12 of the sum of its terms' sizes
        lv = assay.levels[0]
        fit = fit_mle(assay)
        assert fit.converged and fit.iterations <= 12
        lam = lv.u * fit.tau_hat
        Y = lv.y_array()
        first, b = Y / np.expm1(lam), (lv.M_N + lv.m) - Y
        common = (lv.M - lv.M_N - lv.m) / math.expm1(float(lam.sum()))
        score = lam * (first - b + common)
        assert np.all(np.abs(score) <= 1e-12 * lam * (first + b + common))

    def test_matches_decimal_bisection(self):
        for assay in small_one_level_assays(np.random.default_rng(2606), 20):
            lv = assay.levels[0]
            expected = np.array(decimal_one_level_rates(lv)) / lv.u
            np.testing.assert_allclose(fit_mle(assay).tau_hat, expected, rtol=1e-13, atol=0.0)


def random_total_only_assay(rng):
    """A regular n = 0 assay of 2 or 3 levels, u log-uniform over four decades."""
    while True:
        levels = []
        for _ in range(int(rng.integers(2, 4))):
            M = int(rng.integers(2, 60))
            u = float(10.0 ** rng.uniform(-2.0, 2.0))
            levels.append(DilutionLevelData(u=u, M=M, M_N=int(rng.integers(0, M + 1)), m=0, Y=(), q=0.0))
        assay = MultiDilutionAssay(tuple(levels), 0)
        if classify_extreme(assay) is ExtremeOutcome.REGULAR:
            return assay


class TestTotalOnlyMatchesReference:
    """The n = 0 fit goes through the same solver call, Newton polish and
    covariance as every other Poisson fit; it matches the former private path
    (``reference_fit_total_only``) up to the rounding of a polish step, taken
    as e^{log T + s} where the former polish took T e^s, and of the SE, now
    sqrt(1 / I) where it was 1 / sqrt(I)."""

    @staticmethod
    def check(assay):
        fit = fit_mle(assay)
        ref, steps = reference_fit_total_only(assay)
        if steps == 0:
            assert fit.tau_hat.tobytes() == ref.tau_hat.tobytes()
            assert fit.log_lik == ref.log_lik
        else:
            assert fit.tau_hat[0] == pytest.approx(ref.tau_hat[0], rel=1e-15, abs=0.0)
        assert fit.iupm == fit.tau_hat[0]
        assert fit.se_iupm == pytest.approx(ref.se_iupm, rel=1e-15, abs=0.0)
        # An endpoint iupm e^{+-z se / iupm} moves z se / iupm times as much as se.
        tol = 1e-15 * max(1.0, Z975 * ref.se_iupm / ref.iupm)
        assert fit.ci == pytest.approx(ref.ci, rel=tol, abs=0.0)
        assert (fit.converged, fit.iterations) == (ref.converged, ref.iterations)
        return steps

    def test_study_multi_draws_without_sequencing(self):
        scenario = SimScenario(
            truth=1.0, n_dvl=6,
            levels=(SimLevel(0.5, 12, 0.0), SimLevel(1.0, 24, 0.5), SimLevel(2.0, 36, 1.0)),
        )
        for rep in range(40):
            draw, _ = _simulate_until_regular(scenario, _rng_for(scenario.seed, rep))
            self.check(draw.assay.strip_udsa())

    def test_random_multi_level_assays(self):
        rng = np.random.default_rng(1401)
        steps = [self.check(random_total_only_assay(rng)) for _ in range(300)]
        assert any(steps)  # some draws exercise the polish step

    def test_one_level_closed_form_is_exact(self):
        rng = np.random.default_rng(1402)
        for _ in range(100):
            M = int(rng.integers(2, 60))
            lv = DilutionLevelData(u=float(10.0 ** rng.uniform(-2.0, 2.0)), M=M,
                                   M_N=int(rng.integers(1, M)), m=0, Y=(), q=0.0)
            assert self.check(MultiDilutionAssay((lv,), 0)) == 0

