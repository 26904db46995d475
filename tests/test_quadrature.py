import math
import random
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import mpmath
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
    _cotangent_weight,
    _derivative_polynomial,
    _direct_samples,
    _pair_samples,
    _periodic_samples,
)

I8_COEFFICIENT = 1 - Fraction(6879714958723010531, 467807924720320453655260875000)
# primes of the pair classes that perfbench's oracle-verify workload draws its n = 2 inputs from
PAIR_PRIMES = [p for p in range(60, 1001) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def fl(*values):
    return frequency_list([Fraction(v) for v in values])


def coefficients(n):
    return [a / math.factorial(n - 1) for a in reversed(_derivative_polynomial(n - 1))]


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
        fl(1, "1/3", "1/5"), 1e-9, "periodic", 12, "0x1.78fdb9effea46p+6",
        "0x1.921fb54442d18p+1", "0x1.8251c6a789d64p-45", "0x0.0p+0", 0,
    ),
    (
        fl(1, "1/10007"), 1e-10, "periodic", 5004, "0x1.eb37abb57a7f6p+15",
        "0x1.921fb54442d18p+1", "0x1.9d04b39c0f2f9p-44", "0x0.0p+0", 0,
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
    # (at 1e-10 this list takes 282 periodic samples, fewer than direct K = 499)
    (
        classical_frequencies(5), 1e-8, "direct", 158, "0x1.15b8a42517192p+9",
        "0x1.921fb544453ccp+1", "0x1.69dc026c2352fp-42", "0x1.552257c3b2334p-28", 0,
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
    """The periodic weight x^n sum over m in Z of (x + m)^-n = x^n (zeta(n, x) + (-1)^n zeta(n, 1 - x)) at x = r/M.

    The oracle takes this bilateral Hurwitz zeta sum from its cotangent partial fraction, W_n(u) with u = pi x.
    """

    def test_derivative_polynomials_follow_the_recurrence(self):
        assert [_derivative_polynomial(k) for k in range(4)] == [[0, 1], [1, 0, 1], [0, 2, 0, 2], [2, 0, 8, 0, 6]]
        for k in range(40):
            p, q = _derivative_polynomial(k), _derivative_polynomial(k + 1)
            assert len(q) == k + 3 and all(type(a) is int and a >= 0 for a in q)
            # P_{k+1} = (1 + c^2) P_k' at k + 3 points, enough for a polynomial of degree k + 2
            for c in range(k + 3):
                derivative = sum(j * a * c ** (j - 1) for j, a in enumerate(p) if j)
                assert sum(a * c**j for j, a in enumerate(q)) == (1 + c * c) * derivative

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 11])
    def test_derivative_polynomials_differentiate_the_cotangent(self, k):
        with mpmath.workdps(40):
            for x in (mpmath.mpf("0.3"), mpmath.mpf("1.1")):
                value = sum(a * mpmath.cot(x) ** j for j, a in enumerate(_derivative_polynomial(k)))
                assert abs((-1) ** k * mpmath.diff(mpmath.cot, x, k) - value) <= mpmath.mpf(10) ** -25 * value

    @pytest.mark.parametrize("n", [*range(2, 13), 20, 40])
    def test_matches_mpmath_within_its_share(self, n):
        # W_n at u = pi r / M is x^n sum over m in Z of (x + m)^-n with x = r/M; both tan branches, r = M/2
        with mpmath.workdps(40):
            for M in (3, 4, 7, 64, 1001, 4 * 10**6 + 1):
                for r in sorted({1, 2, M // 4, M // 4 + 1, M // 3, (M - 1) // 2, M // 2} & set(range(1, M // 2 + 1))):
                    x = mpmath.mpf(r) / M
                    exact = x**n * (mpmath.zeta(n, x) + (-1) ** n * mpmath.zeta(n, 1 - x))
                    weight = _cotangent_weight(r, M, coefficients(n))
                    # 13n + 3 ulps: the share of W_n in the quadrature docstring's rounding certificate
                    assert abs(weight - exact) <= (13 * n + 3) * _ULP * exact, (M, r)
                    assert 0 <= weight <= math.pi**2 / 4

    def test_pair_identity_matches_the_general_form(self):
        # the pair term within 26 ulps of its envelope, the general one within 2 * 38 ulps of its own
        rng = random.Random(2024)
        cases = [(1, 1, 1), (1, 2, 2), (3, 2, 3)]  # M = 3, 4 and 6 at r = floor(M/2)
        for _ in range(300):
            w1, w2 = rng.randint(1, 10**6), rng.randint(1, 10**6)
            M = w1 + w2 + 1
            cases.append((w1, w2, rng.choice((1, rng.randint(1, M // 2), M // 2))))
        for w1, w2, r in cases:
            M = w1 + w2 + 1
            (pair,), pair_envelope = _pair_samples([w1, w2], M, r, r + 1)
            (general,), general_envelope = _periodic_samples([w1, w2], M, r, r + 1)
            assert abs(pair - general) <= (26 * pair_envelope + 76 * general_envelope) * _ULP, (w1, w2, r)

    def test_twenty_ones_certify_at_the_floor(self):
        report = crosscheck(fl(*[1] * 20), 1e-12)
        result = report.quadrature
        assert (result.mode, result.samples) == ("periodic", 10)
        assert math.isfinite(result.value) and 0 < result.total_error_bound <= 1e-12
        assert report.passed


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
            "periodic-36-factors", "periodic-10008-factors", "direct-512-factors", "direct-26812-factors",
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
        assert (result.mode, result.samples, result.tail_bound) == ("periodic", 5004, 0.0)
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
        for M in (2 * samples, 2 * samples + 1):  # with and without the half-weight sample r = M/2
            freqs = fl(1, Fraction(1, M - 2))  # weights M - 2 and 1
            weights, _ = _integer_weights(freqs)
            result = quadrature_estimate(freqs, 1e-6)
            assert (result.mode, result.samples) == ("periodic", M // 2) and M // 2 == samples
            terms, _ = _pair_samples(weights, M, 1, samples + 1)
            if M % 2 == 0:
                terms[-1] /= 2
            h = result.R / M
            assert result.value.hex() == (h * (1.0 + 2.0 * math.fsum(terms))).hex()
            with mock.patch.object(quadrature, "_BLOCK", M):  # one block: the envelope summed in one piece
                whole = quadrature_estimate(freqs, 1e-6)
            assert result.value.hex() == whole.value.hex()
            assert result.rounding_bound == pytest.approx(whole.rounding_bound, rel=1e-12)

    def test_direct_blocks_match_one_block(self):
        freqs = fl(1, 1, "1/1000003")
        result = quadrature_estimate(freqs, 1e-5)
        assert result.mode == "direct" and result.samples > 8 * _BLOCK
        with mock.patch.object(quadrature, "_BLOCK", result.samples):
            whole = quadrature_estimate(freqs, 1e-5)
        assert result.value.hex() == whole.value.hex()
        assert result.rounding_bound == pytest.approx(whole.rounding_bound, rel=1e-12)

    # two blocks' terms, whatever the sample count; every sample at once traced 3.05 and 4.35 MiB
    @pytest.mark.parametrize(
        "values,target,mib",
        [((1, "1/200007"), 1e-6, 2), ((1, 1, "1/1000003"), 1e-5, 2)],
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

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(
            st.tuples(
                st.lists(st.builds(Fraction, st.integers(1, 12), st.integers(1, 12)), min_size=2, max_size=6),
                st.just(1e-9),
            ),
            # two distinct primes p, p' in 60..1000 and values k/p, k'/p' up to 0.9
            st.tuples(
                st.lists(st.sampled_from(PAIR_PRIMES), min_size=2, max_size=2, unique=True).flatmap(
                    lambda primes: st.tuples(
                        *(st.builds(Fraction, st.integers(p // 40, 9 * p // 10), st.just(p)) for p in primes)
                    )
                ),
                st.sampled_from((1e-6, 1e-7, 1e-8)),
            ),
        )
    )
    def test_random_lists_certify(self, case):
        values, target = case
        report = crosscheck(frequency_list(values), target)
        assert report.passed, (values, target)
        event(report.quadrature.mode)
