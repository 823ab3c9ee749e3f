import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

from iupm.special import (
    chi2_1_upper_tail,
    expm1_ratio,
    log1mexp,
    log1mexp_arr,
    nint,
    normal_quantile,
)
from helpers import log_binom


class TestNint:
    @pytest.mark.parametrize(
        "x,expected",
        [(2.5, 2), (3.5, 4), (0.5, 0), (1.5, 2), (2.51, 3), (3.0, 3), (0.0, 0), (4.4999, 4)],
    )
    def test_values(self, x, expected):
        assert nint(x) == expected

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            nint(math.inf)
        with pytest.raises(ValueError):
            nint(math.nan)

    @given(st.floats(min_value=0, max_value=1e6, allow_nan=False))
    def test_is_floor_or_ceil(self, x):
        assert nint(x) in (math.floor(x), math.ceil(x))

    @given(st.integers(min_value=0, max_value=10**6))
    def test_half_integers_round_to_even(self, k):
        assert nint(k + 0.5) % 2 == 0


class TestChi2Tail:
    def test_at_zero(self):
        assert chi2_1_upper_tail(0.0) == 1.0

    def test_95th_percentile(self):
        # quantile computed by inverting the normal relation z_{0.975}^2
        s = normal_quantile(0.975) ** 2
        assert s == pytest.approx(3.841459, abs=1e-6)
        assert chi2_1_upper_tail(s) == pytest.approx(0.05, abs=1e-9)

    def test_quantile_round_trip(self):
        for p in [0.5, 0.1, 0.01, 1e-4]:
            s = normal_quantile(1.0 - p / 2.0) ** 2
            assert chi2_1_upper_tail(s) == pytest.approx(p, rel=1e-10)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            chi2_1_upper_tail(-0.1)


class TestNormalQuantile:
    def test_key_values(self):
        assert normal_quantile(0.5) == 0.0
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)

    def test_cdf_round_trip(self):
        # Phi(q(p)) must recover p; Phi written directly from erfc.
        for p in [1e-12, 1e-6, 0.025, 0.5, 0.975, 1 - 1e-6, 1 - 1e-12]:
            z = normal_quantile(p)
            phi = 0.5 * math.erfc(-z / math.sqrt(2.0))
            assert phi == pytest.approx(p, rel=1e-9, abs=1e-13)

    @given(st.floats(min_value=1e-6, max_value=0.5))
    def test_symmetry(self, p):
        # symmetry to the accuracy contract; deeper tails are limited by the
        # float rounding of 1 - p itself, amplified by the quantile slope
        assert normal_quantile(p) == pytest.approx(-normal_quantile(1.0 - p), abs=1e-9)

    def test_rejects_out_of_range(self):
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                normal_quantile(p)


class TestLogBinom:
    def test_small_value(self):
        assert log_binom(4, 2) == pytest.approx(math.log(6), rel=1e-14)

    def test_edges(self):
        assert log_binom(7, 0) == 0.0
        assert log_binom(7, 7) == 0.0

    @given(st.integers(min_value=0, max_value=60), st.data())
    def test_matches_exact_integer_arithmetic(self, M, data):
        k = data.draw(st.integers(min_value=0, max_value=M))
        exact = math.log(math.comb(M, k))
        assert log_binom(M, k) == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            log_binom(5, 6)


class TestLog1mexp:
    @given(st.floats(min_value=1e-300, max_value=50))
    def test_matches_both_naive_branches(self, x):
        # both naive forms are accurate away from their own bad regime
        naive = math.log(-math.expm1(-x)) if x < 1 else math.log1p(-math.exp(-x))
        assert log1mexp(x) == pytest.approx(naive, rel=1e-12)

    def test_zero_gives_neg_inf(self):
        assert log1mexp(0.0) == -math.inf

    def test_array_version_agrees(self):
        xs = np.array([1e-12, 1e-4, 0.1, math.log(2.0), 5.0, 40.0])
        out = log1mexp_arr(xs)
        for x, o in zip(xs, out):
            assert o == pytest.approx(log1mexp(float(x)), rel=1e-14)


class TestExpm1Ratio:
    @staticmethod
    def direct(c, t, k):
        return [c / t, c * (t + 1.0) / (t * t), c * (t + 1.0) * (t + 2.0) / t**3][k - 1]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bit_identical_to_the_direct_form_in_range(self, k):
        xs = [1e-6, 0.3, 2.0, 40.0, 200.0, 236.0]
        for x in xs:
            assert expm1_ratio(1.7, x, k) == self.direct(1.7, math.expm1(x), k)
        arr = np.array(xs)
        c = np.linspace(0.5, 3.0, arr.size)
        assert np.array_equal(expm1_ratio(c, arr, k), self.direct(c, np.expm1(arr), k))

    @pytest.mark.parametrize("k, x", [(2, 1e-160), (3, 1e-110)])
    def test_scalar_x_with_t_power_below_the_normal_floats(self, k, x):
        # t^k is subnormal or 0: the value is finite, or inf, never a division by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = expm1_ratio(1e-300, x, k)
            assert expm1_ratio(1.7, x, k) == math.inf
            assert expm1_ratio(-1.7, x, k) == -math.inf
            assert expm1_ratio(0.0, x, k) == 0.0
            vector = expm1_ratio(np.array([1e-300, 1.7, 0.0]), x, k)
        with localcontext() as ctx:
            ctx.prec = 40
            t = Decimal(math.expm1(x))
            want = float(Decimal(1e-300) * [1 / t, (t + 1) / t**2, (t + 1) * (t + 2) / t**3][k - 1])
        assert tiny == pytest.approx(want, rel=1e-15)
        assert vector.tolist() == [tiny, math.inf, 0.0]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_scalar_and_array_branches_agree_at_zero(self, k):
        # t = expm1(0) = 0: both branches give c / 0, +-inf or nan, and
        # neither raises or warns
        cs = [1.7, -1.7, 0.0]
        for x in (0.0, -0.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scalar = [expm1_ratio(c, x, k) for c in cs]
                vector = expm1_ratio(np.array(cs), np.full(len(cs), x), k)
            assert np.array_equal(scalar, vector, equal_nan=True)
        assert [expm1_ratio(c, 0.0, k) for c in cs[:2]] == [math.inf, -math.inf]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_past_the_float_range_matches_high_precision(self, k):
        xs = [1.0, 100.0, 236.5, 236.7, 354.8, 355.0, 600.0, 709.7, 709.8, 1040.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = [expm1_ratio(2.0, x, k) for x in xs]
            vector = expm1_ratio(2.0, np.array(xs), k)
        with localcontext() as ctx:
            ctx.prec = 40
            for x, got, got_v in zip(xs, scalar, vector):
                t = Decimal(x).exp() - 1
                want = float(2 * [1 / t, (t + 1) / t**2, (t + 1) * (t + 2) / t**3][k - 1])
                assert got == pytest.approx(want, rel=1e-13, abs=1e-320)
                assert got_v == pytest.approx(want, rel=1e-13, abs=1e-320)
