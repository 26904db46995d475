import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sincprod import (
    ToleranceError,
    ValidationError,
    classical_frequencies,
    crosscheck,
    frequency_list,
    quadrature_estimate,
    tail_bound,
)
from sincprod.quadrature import _integrand_grid

I8_COEFFICIENT = 1 - Fraction(6879714958723010531, 467807924720320453655260875000)


def fl(*values):
    return frequency_list([Fraction(v) for v in values])


def integrand(freqs, x):
    """prod_j sinc(a_j x) at one point, through the oracle's vectorised kernel."""
    return float(_integrand_grid([float(a) for a in freqs.sorted_entries], np.array([x]))[0])


class TestIntegrand:
    def test_at_zero(self):
        assert integrand(fl(1, "1/3", "1/5"), 0.0) == 1.0
        assert integrand(fl(7), 0.0) == 1.0

    def test_sin_zero(self):
        assert abs(integrand(fl(1), math.pi)) < 1e-15

    def test_quarter_periods(self):
        x = 3 * math.pi / 2
        expected = (math.sin(x) / x) * (math.sin(x / 3) / (x / 3))
        assert integrand(fl(1, "1/3"), x) == pytest.approx(expected, abs=1e-16)
        assert integrand(fl(1, "1/3"), x) == pytest.approx((-2 / (3 * math.pi)) * (2 / math.pi), abs=1e-15)

    def test_taylor_branch_is_continuous(self):
        freqs = fl(1)
        for t in (9.999e-5, 1.0001e-4):
            assert integrand(freqs, t) == pytest.approx(math.sin(t) / t, abs=1e-15)

    @given(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False))
    def test_even_to_the_last_bit(self, x):
        freqs = fl(1, "1/3", "2/7")
        assert integrand(freqs, x) == integrand(freqs, -x)


class TestTailBound:
    def test_examples(self):
        assert tail_bound(fl(1, 1), 1000.0) == pytest.approx(2e-3, rel=1e-12)
        assert tail_bound(fl(1, 1, 1), 100.0) == pytest.approx(1e-4, rel=1e-12)
        assert tail_bound(fl(2, 1), 10.0) == pytest.approx(0.1, rel=1e-12)

    def test_rejects_single_factor(self):
        with pytest.raises(ValidationError):
            tail_bound(fl(1), 10.0)

    def test_rejects_bad_window(self):
        with pytest.raises(ValidationError):
            tail_bound(fl(1, 1), 0.0)

    def test_doubling_r_for_n2(self):
        freqs = fl(1, "1/3")
        assert tail_bound(freqs, 200.0) == pytest.approx(tail_bound(freqs, 100.0) / 2, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_doubling_r_scales_by_tail_exponent(self, n):
        freqs = classical_frequencies(n)
        ratio = tail_bound(freqs, 80.0) / tail_bound(freqs, 160.0)
        assert ratio == pytest.approx(2 ** (n - 1), rel=1e-12)


class TestQuadratureEstimate:
    def test_two_factors_near_pi(self):
        result = quadrature_estimate(fl(1, "1/3"), 1e-8)
        assert abs(result.value - math.pi) <= 1e-8
        assert result.total_error_bound <= 1e-8
        assert result.total_error_bound == result.tail_bound + result.discretization_error_estimate
        assert result.total_error_bound >= result.tail_bound >= 0

    def test_three_equal_factors(self):
        result = quadrature_estimate(fl(1, 1, 1), 1e-8)
        assert abs(result.value - 3 * math.pi / 4) <= 1e-8

    def test_classical_break_tight(self):
        result = quadrature_estimate(classical_frequencies(8), 1e-10)
        assert abs(result.value - float(I8_COEFFICIENT) * math.pi) <= 1e-10

    def test_rejects_single_factor(self):
        with pytest.raises(ValidationError):
            quadrature_estimate(fl(1), 1e-8)

    @pytest.mark.parametrize("target", [1e-13, 0.0, -1e-8, float("nan")])
    def test_rejects_bad_targets(self, target):
        with pytest.raises(ToleranceError):
            quadrature_estimate(fl(1, 1), target)

    @pytest.mark.parametrize(
        "values,match",
        [
            ((Fraction(1, 10**400), 1), "frequency is about 1e-400"),
            ((10**400, 1), "frequency is about 1e400"),
            ((Fraction(1, 10**200), Fraction(1, 10**200)), "product is about 1e-400"),
            ((10**200, 10**200), "product is about 1e400"),
            ((Fraction(1, 10**150), Fraction(1, 10**150)), "window"),
            ((10**300, Fraction(1, 10**300)), "far field"),
            ((1, 1, Fraction(1, 10**100)), "near field"),
            ((1, Fraction(10**400, 10**400 + 1)), "far field"),
        ],
    )
    def test_rejects_values_outside_double_range(self, values, match):
        with pytest.raises(ToleranceError, match=match):
            quadrature_estimate(fl(*values), 1e-8)

    def test_tail_bound_rejects_product_outside_double_range(self):
        with pytest.raises(ToleranceError):
            tail_bound(fl(Fraction(1, 10**200), Fraction(1, 10**200)), 10.0)


class TestCrosscheck:
    @pytest.mark.parametrize(
        "values",
        [
            (1, "1/3", "1/5", "1/7"),
            (1, 1, 1, "1/2"),
            (1, 1),
        ],
    )
    def test_passes(self, values):
        report = crosscheck(fl(*values), 1e-8)
        assert report.passed
        assert report.difference <= report.quadrature.total_error_bound

    def test_tight_targets_smaller_n(self):
        for values in ((1, 1), ("3/2", "2/3", "1/2")):
            report = crosscheck(fl(*values), 1e-10)
            assert report.passed, values

    def test_report_carries_exact_value(self):
        report = crosscheck(fl(1, 1, 1), 1e-8)
        assert report.exact_coefficient == Fraction(3, 4)
        assert report.exact_value == pytest.approx(3 * math.pi / 4, abs=1e-15)
