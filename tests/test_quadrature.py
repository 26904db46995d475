import math
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sincprod import (
    ToleranceError,
    ValidationError,
    classical_frequencies,
    crosscheck,
    frequency_list,
    quadrature,
    quadrature_estimate,
    tail_bound,
)
from sincprod.engine import _integer_weights
from sincprod.quadrature import (
    _BLOCK,
    _ULP,
    _ZETA_DIRECT_TERMS,
    _ZETA_EM_COEFFICIENTS,
    _direct_samples,
    _hurwitz_zeta,
    _periodic_sample,
)

ZETA_ULPS = 16  # the zeta kernel's share of _ULPS_PER_FACTOR in the quadrature docstring
I8_COEFFICIENT = 1 - Fraction(6879714958723010531, 467807924720320453655260875000)


def fl(*values):
    return frequency_list([Fraction(v) for v in values])


def crosscheck_both_paths(freqs, target):
    """crosscheck with the periodic sample taken on an array and one r at a time; both must agree and pass.

    SCALAR_FACTORS switches periodic inputs only: direct mode has one loop, so its two reports are equal.
    """
    reports = []
    for limit in (0, math.inf):
        with mock.patch.object(quadrature, "SCALAR_FACTORS", limit):
            reports.append(crosscheck(freqs, target))
    array, scalar = (report.quadrature for report in reports)
    assert abs(array.value - scalar.value) <= array.rounding_bound + scalar.rounding_bound
    assert (array.mode, array.samples, array.tail_bound) == (scalar.mode, scalar.samples, scalar.tail_bound)
    assert all(report.passed for report in reports), reports
    return reports


def traced_peak(run):
    """The most memory tracemalloc saw allocated while run() ran, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def integrand(freqs, x):
    """prod_j sinc(a_j x) at one x > 0, through the direct sample loop with h = x and K = 1."""
    (value,), _ = _direct_samples([float(a) for a in freqs.sorted_entries], x, 1)
    return value


# input and target, then the result's mode, samples, R.hex(), value.hex(), rounding and tail bounds in hex,
# and the relative tolerance on the rounding bound
PINNED = [
    (
        fl(1, "1/3", "1/5"), 1e-9, "periodic", 23, "0x1.78fdb9effea46p+6",
        "0x1.921fb54442d18p+1", "0x1.846bc554dcaffp-45", "0x0.0p+0", 0,
    ),
    (
        fl(1, "1/10007"), 1e-10, "periodic", 10008, "0x1.eb37abb57a7f6p+15",
        "0x1.921fb54442d0ep+1", "0x1.208c01c1d30a6p-42", "0x0.0p+0", 0,
    ),
    (
        classical_frequencies(8), 1e-10, "direct", 64, "0x1.8dc9b3039edbbp+7",
        "0x1.921fb54429537p+1", "0x1.30e9c9648cd88p-41", "0x1.9dbe09717672bp-35", 0,
    ),
    # 26 812 sample factors: the envelope's summation order is not pinned, only its size
    (
        fl("1/97", "1/89", "1/83", "1/79"), 1e-10, "direct", 6703, "0x1.bc9f7910e8270p+19",
        "0x1.68650a874f4f9p+7", "0x1.86f71ac3ac015p-39", "0x1.b7a4923ce4763p-35", 1e-12,
    ),
    # the exact tail bound lies above its nearest double, so the bound is rounded up by one ulp
    (
        classical_frequencies(5), 1e-10, "direct", 499, "0x1.b68db230d9220p+10",
        "0x1.921fb54442d0fp+1", "0x1.69dc0ba9ec06ep-42", "0x1.b6e54d2d19c7dp-35", 0,
    ),
    # the nearest double already lies above the exact tail bound
    (
        classical_frequencies(6), 1e-9, "direct", 115, "0x1.80b5be623bd1fp+8",
        "0x1.921fb5444b60fp+1", "0x1.b85cb12ce10b3p-42", "0x1.0f42ce759d25fp-31", 0,
    ),
]


class TestIntegrand:
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


class TestHurwitzZetaKernel:
    @pytest.mark.parametrize("s", [*range(2, 13), 20, 40])
    def test_matches_mpmath_within_its_share(self, s):
        q = np.linspace(1.0, 2.0, 129)  # both endpoints, steps of 2^-7
        values = _hurwitz_zeta(s, q)
        with mpmath.workdps(40):
            for x, value in zip(q.tolist(), values.tolist()):
                exact = mpmath.zeta(s, x)
                for path, v in (("array", value), ("float", _hurwitz_zeta(s, x))):
                    assert type(v) is float and abs(v - exact) <= ZETA_ULPS * _ULP * exact, (path, s, x)

    def test_coefficients_are_bernoulli_numbers(self):
        for j, coefficient in enumerate(_ZETA_EM_COEFFICIENTS, 1):
            assert coefficient == float(mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j))

    def test_truncation_is_below_one_ulp(self):
        N, omitted = _ZETA_DIRECT_TERMS, 2 * len(_ZETA_EM_COEFFICIENTS) + 2
        with mpmath.workdps(40):
            c = abs(mpmath.bernoulli(omitted)) / mpmath.factorial(omitted)

            def first_omitted(s, q):  # B_2J+2 / (2J+2)! * s(s+1)...(s+2J) * (q+N)^(-s-2J-1), in size
                return c * mpmath.rf(s, omitted - 1) * mpmath.mpf(q + N) ** (1 - s - omitted)

            def bound(s):  # the docstring's bound on first_omitted / zeta(s, q) over q in [1, 2]
                return c * mpmath.rf(s, omitted - 1) * (mpmath.mpf(2) / (N + 2)) ** s / mpmath.mpf(N + 1) ** (omitted - 1)

            assert first_omitted(2, 1) < _ULP * mpmath.zeta(2, 1)
            # past its peak each step multiplies the bound by (s+2J+1)/s * 2/(N+2) < 1
            peak = max(range(2, 100), key=bound)
            assert peak == 4 and bound(peak) < _ULP
            assert all(bound(s + 1) < bound(s) for s in range(peak, 100))


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

    def test_past_double_range_is_inf(self):
        assert tail_bound(classical_frequencies(3), 1e-200) == math.inf  # R^2 underflows to 0
        assert tail_bound(fl(1, 1), math.inf) == 0.0

    def test_rounds_the_exact_bound_up(self):
        for freqs, R in ((classical_frequencies(5), 3.7), (fl("1/3", "2/7"), 1e5), (fl(*["1/75000000"] * 40), 2e8)):
            n = freqs.n
            exact = 2 / ((n - 1) * Fraction(R) ** (n - 1) * freqs.product())
            bound = tail_bound(freqs, R)
            assert Fraction(bound) >= exact and Fraction(math.nextafter(bound, 0.0)) < exact

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.builds(Fraction, st.integers(1, 40), st.integers(1, 40)), min_size=2, max_size=12),
        st.one_of(
            st.floats(1e-3, 1e12),
            st.integers(1, 10**12),
            st.builds(Fraction, st.integers(1, 10**12), st.integers(1, 10**6)),
        ),
    )
    def test_is_the_smallest_double_above_the_exact_bound(self, values, R):
        freqs = frequency_list(values)
        n = freqs.n
        exact = 2 / ((n - 1) * Fraction(R) ** (n - 1) * freqs.product())
        bound = tail_bound(freqs, R)
        if exact > Fraction(sys.float_info.max):
            assert bound == math.inf
        else:
            assert Fraction(bound) >= exact > Fraction(math.nextafter(bound, 0.0))

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
        assert result.total_error_bound == result.tail_bound + result.rounding_bound
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
            ((Fraction(1, 10**150), Fraction(1, 10**150)), "exceeds target"),
            ((10**300, Fraction(1, 10**300)), "samples"),
            ((1, 1, Fraction(1, 10**100)), "samples"),
            ((1, Fraction(10**400, 10**400 + 1)), "samples"),
        ],
    )
    def test_rejects_values_outside_double_range(self, values, match):
        with pytest.raises(ToleranceError, match=match):
            quadrature_estimate(fl(*values), 1e-8)

    @pytest.mark.parametrize("values,width", [((1, "1/3"), math.pi), (("1/2", "1/7"), 2 * math.pi)])
    def test_rejects_targets_not_below_the_values_size(self, values, width):
        for target in (width, 1e300):
            for run in (quadrature_estimate, crosscheck):
                with pytest.raises(ToleranceError, match="not below pi/a_1"):  # the value lies in (0, pi/a_1]
                    run(fl(*values), target)
        assert crosscheck(fl(*values), math.nextafter(width, 0.0)).passed

    def test_over_budget_names_its_cost_without_allocating(self):
        freqs = fl(1, Fraction(10**400, 10**400 + 1))  # M = 2*10^400 + 2, direct K about 1.3e8

        def run():
            with pytest.raises(ToleranceError, match=r"about 10\^8\.1 samples"):
                quadrature_estimate(freqs, 1e-8)

        assert traced_peak(run) < 100_000

    @pytest.mark.parametrize(
        "freqs,target,mode,samples,R,value,rounding,tail,rel",
        PINNED,
        ids=[
            "periodic-69-factors", "periodic-20016-factors", "direct-512-factors", "direct-26812-factors",
            "direct-tail-rounded-up", "direct-tail-already-above",
        ],
    )
    def test_pinned_bits(self, freqs, target, mode, samples, R, value, rounding, tail, rel):
        result = quadrature_estimate(freqs, target)
        assert (result.mode, result.samples, result.R.hex()) == (mode, samples, R)
        assert (result.value.hex(), result.tail_bound.hex()) == (value, tail)
        assert abs(result.rounding_bound - float.fromhex(rounding)) <= rel * float.fromhex(rounding)

    def test_exact_quantities_come_from_the_integer_weights(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Fraction arithmetic on the oracle's success path")

        expected = [quadrature_estimate(freqs, target) for freqs, target, *_ in PINNED]
        monkeypatch.setattr("sincprod.core.FrequencyList.product", refuse)
        monkeypatch.setattr("sincprod.quadrature.Fraction", refuse)
        assert [quadrature_estimate(freqs, target) for freqs, target, *_ in PINNED] == expected

    def test_periodic_mode_samples_one_period(self):
        result = quadrature_estimate(fl(1, "1/10007"), 1e-10)
        assert (result.mode, result.samples, result.tail_bound) == ("periodic", 10008, 0.0)
        assert result.R == pytest.approx(2 * math.pi * 10007, rel=1e-15)
        assert 0 < result.total_error_bound == result.rounding_bound <= 1e-10

    def test_direct_mode_spends_half_the_target_on_the_tail(self):
        freqs = classical_frequencies(8)
        result = quadrature_estimate(freqs, 1e-10)
        assert result.mode == "direct" and 1 <= result.samples < 1000
        assert result.tail_bound == tail_bound(freqs, result.R) <= 0.5e-10
        h = result.R / result.samples
        assert h * sum(float(a) for a in freqs.entries) < 2 * math.pi

    def test_denormal_product_does_not_overflow(self):
        # prod a_j is about 1e-315 and R^39 about 1e323: neither may pass through a double
        freqs = frequency_list([Fraction(1, 75000000)] * 40)
        for run in (quadrature_estimate, crosscheck):
            with pytest.raises(ToleranceError, match="exceeds target"):  # the value is about 5e7
                run(freqs, 1e-8)
        result = quadrature_estimate(freqs, 1e-3)
        assert result.mode == "direct" and result.tail_bound > 0
        n = 40  # integral of sinc(x)^n / pi by the classical alternating sum, scaled by 1/a
        q = sum((-1) ** k * math.comb(n, k) * Fraction(n - 2 * k) ** (n - 1) for k in range((n + 1) // 2))
        q /= 2 ** (n - 1) * math.factorial(n - 1)
        assert quadrature._compare(result, q * 75000000).passed

    def test_tail_bound_rejects_product_outside_double_range(self):
        with pytest.raises(ToleranceError):
            tail_bound(fl(Fraction(1, 10**200), Fraction(1, 10**200)), 10.0)


class TestBlocks:
    """Past one block the samples stream into one math.fsum, _BLOCK at a time."""

    @pytest.mark.parametrize("samples", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 1])
    def test_block_edges_take_every_periodic_sample_once(self, samples):
        freqs = fl(1, Fraction(1, samples - 1))  # weights d and 1, so M - 1 = d + 1 samples
        weights, _ = _integer_weights(freqs)
        M = sum(weights) + 1
        result = quadrature_estimate(freqs, 1e-6)
        assert (result.mode, result.samples) == ("periodic", M - 1) and M - 1 == samples
        assert 2 * samples > quadrature.SCALAR_FACTORS  # the array path
        terms, _ = _periodic_sample(np.arange(1, M, dtype=np.int64), weights, M, np.sin, np.minimum)
        h = result.R / M
        assert result.value.hex() == (h * (1.0 + 2.0 * math.fsum(terms.tolist()))).hex()
        with mock.patch.object(quadrature, "_BLOCK", M):  # one block: the envelope summed pairwise throughout
            whole = quadrature_estimate(freqs, 1e-6)
        assert result.rounding_bound == pytest.approx(whole.rounding_bound, rel=1e-12)

    def test_direct_blocks_match_one_block(self):
        freqs = fl(1, 1, "1/1000003")
        result = quadrature_estimate(freqs, 1e-5)
        assert result.mode == "direct" and result.samples > 8 * _BLOCK
        with mock.patch.object(quadrature, "_BLOCK", result.samples):
            whole = quadrature_estimate(freqs, 1e-5)
        assert result.value.hex() == whole.value.hex()
        assert result.rounding_bound == pytest.approx(whole.rounding_bound, rel=1e-12)

    # a block's temporaries, whatever the sample count; every sample at once traced 11.45 and 4.35 MiB
    @pytest.mark.parametrize(
        "values,target,mib",
        [((1, "1/100003"), 1e-6, 4), ((1, 1, "1/1000003"), 1e-5, 2)],
        ids=["periodic-100004-samples", "direct-142353-samples"],
    )
    def test_traced_peak_is_a_few_blocks(self, values, target, mib):
        freqs = fl(*values)
        assert traced_peak(lambda: quadrature_estimate(freqs, target)) <= mib * 2**20


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

    @pytest.mark.parametrize("values,target", [((1, "1/10007"), 1e-10), ((1, "1/1000003"), 1e-6)])
    def test_widely_spread_pairs(self, values, target):
        report = crosscheck(fl(*values), target)
        assert report.passed and report.quadrature.mode == "periodic"

    def test_pair_on_both_paths(self):
        array, scalar = crosscheck_both_paths(fl(1, "1/10007"), 1e-10)
        assert array.quadrature.samples * 2 > quadrature.SCALAR_FACTORS  # the array path by default

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.builds(Fraction, st.integers(1, 12), st.integers(1, 12)), min_size=2, max_size=6
        )
    )
    def test_random_lists_certify(self, values):
        report, _ = crosscheck_both_paths(frequency_list(values), 1e-9)
        event(report.quadrature.mode)
