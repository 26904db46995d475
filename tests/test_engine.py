import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sincprod import (
    CapacityError,
    EnumerationStrategy,
    ValidationError,
    VerificationError,
    classical_frequencies,
    engine,
    frequency_list,
    integral_coefficient,
    signed_moment_sum,
)
from sincprod.cli import main
from support import arbitrary_list, reference_coefficient, reference_moment_sum, signed_frequency_sum

I8_COEFFICIENT = 1 - Fraction(6879714958723010531, 467807924720320453655260875000)

positive_fractions = st.fractions(min_value=Fraction(1, 20), max_value=20, max_denominator=20)
small_lists = st.lists(positive_fractions, min_size=1, max_size=7)


class TestSignedFrequencySum:
    # lam(s) of the reference oracle that every engine test compares against
    def test_examples(self):
        fl = frequency_list([Fraction(1), Fraction(1, 3), Fraction(1, 5)])
        assert signed_frequency_sum(fl, (1, 1, 1)) == Fraction(23, 15)
        assert signed_frequency_sum(fl, (1, -1, -1)) == Fraction(7, 15)
        single = frequency_list([Fraction(3, 7)])
        assert signed_frequency_sum(single, (-1,)) == Fraction(-3, 7)

    def test_length_mismatch(self):
        fl = frequency_list([Fraction(1), Fraction(2)])
        with pytest.raises(ValidationError):
            signed_frequency_sum(fl, (1,))

    def test_bad_sign(self):
        fl = frequency_list([Fraction(1)])
        with pytest.raises(ValidationError):
            signed_frequency_sum(fl, (0,))


class TestSignedMomentSum:
    @pytest.mark.parametrize(
        "values,expected",
        [
            ([1, 1], Fraction(2)),
            ([1, 1, 1], Fraction(6)),
            ([Fraction(2), Fraction(1), Fraction(1, 2)], Fraction(4)),
        ],
    )
    def test_hand_enumerated(self, values, expected):
        fl = frequency_list(values)
        assert reference_moment_sum(fl) == expected  # oracle confirms the frozen value
        for strategy in EnumerationStrategy:
            assert signed_moment_sum(fl, strategy) == expected

    def test_single_frequency(self):
        fl = frequency_list([Fraction(5, 3)])
        assert signed_moment_sum(fl) == 1
        assert signed_moment_sum(fl, EnumerationStrategy.BRUTE_FORCE) == 1

    @pytest.mark.parametrize("a", [1, 5, 7])
    def test_mitm_single_frequency(self, a):
        fl = frequency_list([a])
        assert signed_moment_sum(fl, EnumerationStrategy.MEET_IN_MIDDLE) == 1
        assert integral_coefficient(fl, EnumerationStrategy.MEET_IN_MIDDLE).coefficient == 1 / Fraction(a)

    def test_capacity_guard(self):
        fl = frequency_list([Fraction(1)] * 41)
        with pytest.raises(CapacityError):
            signed_moment_sum(fl)

    def test_mitm_examples(self):
        mitm = EnumerationStrategy.MEET_IN_MIDDLE
        assert signed_moment_sum(frequency_list([1, 1, 1]), mitm) == 6
        assert signed_moment_sum(frequency_list([Fraction(2), 1, Fraction(1, 2)]), mitm) == 4

    def test_mitm_matches_break_fraction(self):
        freqs = classical_frequencies(8)
        implied = I8_COEFFICIENT * Fraction(2) ** 7 * math.factorial(7) * freqs.product()
        assert signed_moment_sum(freqs, EnumerationStrategy.MEET_IN_MIDDLE) == implied

    @settings(max_examples=40, deadline=None)
    @given(small_lists)
    def test_mirror_identity(self, values):
        # sum over all vectors with lam > 0 equals the half enumeration with
        # the first sign pinned to +1, folding in each mirror image:
        # lam < 0 stands for -s and contributes (-1)^n (prod s) |lam|^(n-1)
        fl = frequency_list(values)
        n = fl.n
        parity = (-1) ** n
        folded = Fraction(0)
        for rest in product((1, -1), repeat=n - 1):
            signs = (1, *rest)
            lam = sum(s * a for s, a in zip(signs, fl.sorted_entries))
            if lam > 0:
                folded += math.prod(signs) * lam ** (n - 1)
            elif lam < 0:
                folded += parity * math.prod(signs) * (-lam) ** (n - 1)
        assert folded == reference_moment_sum(fl)

    def test_zero_sum_vectors_are_inert(self):
        # for n >= 2 a vector with lam = 0 contributes 0^(n-1) = 0, so
        # counting it makes no difference
        for values in ([1, 1], [1, Fraction(1, 2), Fraction(1, 2)], [3, 2, 1]):
            fl = frequency_list(values)
            n = fl.n
            with_zeros = Fraction(0)
            for signs in product((1, -1), repeat=n):
                lam = sum(s * a for s, a in zip(signs, fl.sorted_entries))
                if lam >= 0:
                    with_zeros += math.prod(signs) * lam ** (n - 1)
            assert with_zeros == signed_moment_sum(fl)


class TestIntegralCoefficient:
    def test_single(self):
        assert integral_coefficient(frequency_list([1])).coefficient == 1
        assert integral_coefficient(frequency_list([5])).coefficient == Fraction(1, 5)

    def test_classical_four(self):
        assert integral_coefficient(classical_frequencies(4)).coefficient == 1

    def test_equal_three(self):
        assert integral_coefficient(frequency_list([1, 1, 1])).coefficient == Fraction(3, 4)

    def test_classical_break(self):
        assert integral_coefficient(classical_frequencies(8)).coefficient == I8_COEFFICIENT


class TestProvenBound:
    # q = 2 f_X(0) for a symmetric unimodal X, so 0 < q <= 1/a_1; for the
    # list (1, 1), q = S/2 and the kernel must give 0 < S <= 2.
    @pytest.mark.parametrize("moment", [0, 3])
    def test_out_of_bound_result_is_a_verification_error(self, monkeypatch, capsys, moment):
        monkeypatch.setattr(engine, "_moment_sum_mitm", lambda weights, n: moment)
        with pytest.raises(VerificationError, match="proven bound"):
            integral_coefficient(frequency_list([1, 1]))
        assert main(["integrate", "1", "1"]) == 2
        assert "proven bound" in capsys.readouterr().err


class TestStrategyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(small_lists)
    def test_all_strategies_match_reference(self, values):
        fl = frequency_list(values)
        expected = reference_moment_sum(fl)
        assert signed_moment_sum(fl, EnumerationStrategy.BRUTE_FORCE) == expected
        assert signed_moment_sum(fl, EnumerationStrategy.MEET_IN_MIDDLE) == expected

    def test_larger_seeded_cases(self):
        rng = random.Random(1905)
        for n in (12, 15, 17, 18):
            fl = arbitrary_list(rng, n)
            brute = signed_moment_sum(fl, EnumerationStrategy.BRUTE_FORCE)
            assert signed_moment_sum(fl, EnumerationStrategy.MEET_IN_MIDDLE) == brute


class TestEngineLaws:
    @settings(max_examples=40, deadline=None)
    @given(small_lists, st.randoms(use_true_random=False))
    def test_permutation_invariance(self, values, rng):
        fl = frequency_list(values)
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert (
            integral_coefficient(frequency_list(shuffled)).coefficient
            == integral_coefficient(fl).coefficient
        )

    @settings(max_examples=40, deadline=None)
    @given(small_lists, positive_fractions)
    def test_scaling_law(self, values, c):
        fl = frequency_list(values)
        scaled = fl.scaled(c)
        assert integral_coefficient(scaled).coefficient == integral_coefficient(fl).coefficient / c

    @settings(max_examples=40, deadline=None)
    @given(small_lists)
    def test_coefficient_matches_reference(self, values):
        fl = frequency_list(values)
        assert integral_coefficient(fl).coefficient == reference_coefficient(fl)
