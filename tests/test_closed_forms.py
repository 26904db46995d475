import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sincprod import (
    ApplicabilityError,
    DominanceTag,
    EnumerationStrategy,
    PiMultiple,
    ValidationError,
    VerificationError,
    classical_frequencies,
    classify_dominance,
    closed_form_values,
    correction_term,
    evaluate,
    frequency_list,
    integral_coefficient,
)
from sincprod import closed_forms
from sincprod.cli import main
from sincprod.closed_forms import (
    VERIFY_LIMIT,
    first_dominant_correction,
    first_dominant_value,
    three_dominant_equal_first_two,
    three_dominant_value,
    three_frequency_value,
)
from support import (
    boundary_list,
    factorial_frequency_family,
    first_dominant_list,
    reference_coefficient,
    three_dominant_list,
)

I8_COEFFICIENT = 1 - Fraction(6879714958723010531, 467807924720320453655260875000)

positive_fractions = st.fractions(min_value=Fraction(1, 20), max_value=20, max_denominator=20)


PRIMES_TO_71 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]


def fl(*values):
    return frequency_list([Fraction(v) for v in values])


class TestClassicalFrequencies:
    def test_examples(self):
        assert classical_frequencies(1).entries == (Fraction(1),)
        assert classical_frequencies(4).entries == (
            Fraction(1),
            Fraction(1, 3),
            Fraction(1, 5),
            Fraction(1, 7),
        )
        assert classical_frequencies(8).entries[-1] == Fraction(1, 15)

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            classical_frequencies(0)


class TestClassifyDominance:
    def test_classical_seven_first_dominant(self):
        cls = classify_dominance(classical_frequencies(7))
        assert cls.tag is DominanceTag.FIRST_DOMINANT
        assert not cls.boundary_flags

    def test_classical_eight_boundary(self):
        cls = classify_dominance(classical_frequencies(8))
        assert cls.tag is DominanceTag.FIRST_DOMINANT_BOUNDARY
        assert cls.dominated_count == 7

    def test_three_dominant(self):
        assert classify_dominance(fl(1, 1, 1, "1/2")).tag is DominanceTag.THREE_DOMINANT

    def test_tie_goes_to_none_with_flag(self):
        cls = classify_dominance(fl(1, "1/2", "1/2"))
        assert cls.tag is DominanceTag.NONE
        assert cls.boundary_flags

    def test_pair_tie(self):
        assert classify_dominance(fl(1, 1)).tag is DominanceTag.NONE

    def test_n2_first_dominant(self):
        assert classify_dominance(fl(2, 1)).tag is DominanceTag.FIRST_DOMINANT

    def test_single_always_first_dominant(self):
        assert classify_dominance(fl(5)).tag is DominanceTag.FIRST_DOMINANT

    def test_boundary_tie_falls_through_to_three_dominant(self):
        # a1 = a2 ties the lower boundary inequality; the three-dominant
        # condition still holds strictly
        cls = classify_dominance(fl(1, 1, "1/10"))
        assert cls.tag is DominanceTag.THREE_DOMINANT
        assert cls.boundary_flags

    def test_boundary_with_unequal_top(self):
        cls = classify_dominance(fl(1, "3/4", "3/4"))
        assert cls.tag is DominanceTag.FIRST_DOMINANT_BOUNDARY
        assert cls.dominated_count == 2

    def test_checks_expose_exact_sides(self):
        cls = classify_dominance(classical_frequencies(7))
        first = cls.checks[0]
        assert first.lhs == 1
        assert first.rhs == sum(Fraction(1, 2 * j - 1) for j in range(2, 8))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(positive_fractions, min_size=1, max_size=7),
        positive_fractions,
    )
    def test_scale_invariant(self, values, c):
        base = frequency_list(values)
        assert classify_dominance(base).tag is classify_dominance(base.scaled(c)).tag

    @settings(max_examples=40, deadline=None)
    @given(st.lists(positive_fractions, min_size=3, max_size=7))
    def test_first_and_three_dominance_exclusive(self, values):
        a = frequency_list(values).sorted_entries
        first = a[0] > sum(a[1:])
        three = a[1] + a[2] - a[0] > sum(a[3:])
        assert not (first and three)


class TestFirstDominantValue:
    def test_examples(self):
        assert first_dominant_value(fl(2, 1, "1/2")).coefficient == Fraction(1, 2)
        assert first_dominant_value(classical_frequencies(7)).coefficient == 1
        assert first_dominant_value(fl(5)).coefficient == Fraction(1, 5)

    def test_cross_check_engine(self):
        freqs = fl(2, 1, "1/2")
        assert first_dominant_value(freqs).coefficient == integral_coefficient(freqs).coefficient

    def test_rejects_non_dominant(self):
        with pytest.raises(ApplicabilityError, match="a1 > a2"):
            first_dominant_value(fl(1, 1, 1))


class TestCorrectionTerm:
    def test_classical_eight(self):
        term = correction_term(classical_frequencies(8))
        assert term.normalized_gap == Fraction(-982, 45045)
        assert term.dominated_count == 7

    def test_unequal_top(self):
        term = correction_term(fl(1, "3/4", "3/4"))
        assert term.normalized_gap == Fraction(-1, 2)
        assert term.dominated_count == 2

    def test_tied_top_pair(self):
        term = correction_term(fl(1, 1, "1/10"))
        assert term.normalized_gap == Fraction(-1, 10)
        assert term.dominated_count == 2

    def test_rejects_dominant_list(self):
        with pytest.raises(ApplicabilityError):
            correction_term(classical_frequencies(7))

    def test_rejects_far_from_boundary(self):
        # a1 loses even without the smallest frequency
        with pytest.raises(ApplicabilityError):
            correction_term(fl(1, 1, 1, 1))


class TestFirstDominantCorrection:
    def test_classical_eight(self):
        value = first_dominant_correction(classical_frequencies(8))
        assert value.coefficient == I8_COEFFICIENT

    def test_small_case(self):
        assert first_dominant_correction(fl(1, "3/4", "3/4")).coefficient == Fraction(8, 9)

    def test_tied_pair_matches_engine(self):
        freqs = fl(1, 1, "1/10")
        assert (
            first_dominant_correction(freqs).coefficient
            == integral_coefficient(freqs).coefficient
            == Fraction(39, 40)
        )


class TestThreeDominantValue:
    def test_examples(self):
        assert three_dominant_value(fl(1, 1, 1)).coefficient == Fraction(3, 4)
        assert three_dominant_value(fl(1, 1, 1, "1/2")).coefficient == Fraction(35, 48)
        assert three_dominant_value(fl(1, 1, "1/2")).coefficient == Fraction(7, 8)

    def test_rejects_dominant_first(self):
        with pytest.raises(ApplicabilityError, match="a2 \\+ a3"):
            three_dominant_value(fl(2, 1, "1/2"))

    def test_example_one_form(self):
        # (1,1,1,tail): coefficient = 1 - sum(a_j^2)/12
        freqs = fl(1, 1, 1, "1/2")
        expected = 1 - (3 + Fraction(1, 4)) / 12
        assert three_dominant_value(freqs).coefficient == expected


class TestThreeDominantEqualFirstTwo:
    def test_examples(self):
        assert three_dominant_equal_first_two(fl(1, 1, "1/2")).coefficient == Fraction(7, 8)
        assert three_dominant_equal_first_two(fl(1, 1, 1, "1/2")).coefficient == Fraction(35, 48)
        assert three_dominant_equal_first_two(fl(2, 2, 1)).coefficient == Fraction(7, 16)

    def test_scaling_consistency(self):
        # (2,2,1) is (1,1,1/2) scaled by 2, so the value halves
        assert (
            three_dominant_equal_first_two(fl(2, 2, 1)).coefficient
            == three_dominant_equal_first_two(fl(1, 1, "1/2")).coefficient / 2
        )

    def test_rejects_unequal_pair(self):
        with pytest.raises(ApplicabilityError, match="a1 = a2"):
            three_dominant_equal_first_two(fl(3, 2, 2))


class TestThreeFrequencyValue:
    def test_examples(self):
        assert three_frequency_value(fl(1, 1, 1)).coefficient == Fraction(3, 4)
        assert three_frequency_value(fl(1, 1, "1/2")).coefficient == Fraction(7, 8)
        assert three_frequency_value(fl(3, 2, 2)).coefficient == Fraction(5, 16)

    def test_cross_check_engine(self):
        freqs = fl(3, 2, 2)
        assert three_frequency_value(freqs).coefficient == integral_coefficient(freqs).coefficient

    def test_rejects_other_sizes(self):
        with pytest.raises(ApplicabilityError, match="n = 3"):
            three_frequency_value(fl(1, 1, 1, 1))


class TestFactorialFamily:
    # the reciprocal-factorial identity of the three-dominant form
    def test_three_terms(self):
        freqs, coefficient = factorial_frequency_family(3)
        assert freqs.entries == (Fraction(1), Fraction(1), Fraction(1, 2))
        assert coefficient == Fraction(7, 8)

    def test_five_terms(self):
        _, coefficient = factorial_frequency_family(5)
        expected = Fraction(5, 4) - Fraction(1, 6) * (
            1 + 1 + Fraction(1, 4) + Fraction(1, 36) + Fraction(1, 576)
        )
        assert coefficient == expected

    def test_eight_terms_matches_engine(self):
        freqs, coefficient = factorial_frequency_family(8)
        assert coefficient == three_dominant_value(freqs).coefficient
        assert coefficient == integral_coefficient(freqs).coefficient


class TestEvaluate:
    def test_classical_five(self):
        result = evaluate(classical_frequencies(5))
        assert result.value.coefficient == 1
        assert result.provenance == "first-dominant"
        assert result.verified

    def test_classical_eight(self):
        result = evaluate(classical_frequencies(8))
        assert result.value.coefficient == I8_COEFFICIENT
        assert result.provenance == "first-dominant-correction"

    def test_classical_nine_engine_fallback(self):
        result = evaluate(classical_frequencies(9))
        assert result.provenance == "engine:mitm"
        assert result.value.coefficient == integral_coefficient(classical_frequencies(9)).coefficient
        assert not result.verified

    def test_skip_verification(self):
        result = evaluate(classical_frequencies(5), verify=False)
        assert result.value.coefficient == 1
        assert not result.verified

    def test_none_class_uses_engine(self):
        result = evaluate(fl(1, 1))
        assert result.provenance == "engine:mitm"
        assert result.value.coefficient == 1

    def test_coprime_engine_route_and_reverification_at_limit(self):
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]
        engine_route = frequency_list([Fraction(1, p) for p in primes[:15]])
        result = evaluate(engine_route)
        assert result.provenance == "engine:mitm"
        brute = integral_coefficient(engine_route, EnumerationStrategy.BRUTE_FORCE)
        assert result.value == brute
        # 2 > 1/3 + ... + 1/71, so the closed form applies and is re-checked at n = 20
        closed_form = frequency_list([2] + [Fraction(1, p) for p in primes[1:]])
        result = evaluate(closed_form)
        assert closed_form.n == VERIFY_LIMIT
        assert result.provenance == "first-dominant"
        assert result.verified

    def test_closed_form_disagreeing_with_the_engine_names_both_values(self, monkeypatch):
        # 17/28 lies inside the proven bound 0 < q <= 1, so only the engine comparison catches it
        monkeypatch.setattr(closed_forms, "three_dominant_value", lambda freqs: PiMultiple(Fraction(17, 28)))
        with pytest.raises(VerificationError) as info:
            evaluate(fl(1, 1, 1))
        assert str(info.value) == "three-dominant gave 17/28 but the engine gave 3/4 for (1, 1, 1)"

    @pytest.mark.parametrize(
        "values,verify",
        [
            ([3] + [Fraction(1, p) for p in PRIMES_TO_71], True),
            ([3, Fraction(1, 2), Fraction(1, 3)], False),
        ],
        ids=["n21-past-verify-limit", "n3-no-verify"],
    )
    def test_closed_form_outside_the_proven_bound_is_refused(self, monkeypatch, capsys, values, verify):
        # 2/a_1 breaks q <= 1/a_1; no engine recomputation runs at n = 21 or with verify off
        monkeypatch.setattr(closed_forms, "first_dominant_value", lambda freqs: PiMultiple(2 / freqs.sorted_entries[0]))
        freqs = frequency_list(values)
        with pytest.raises(VerificationError) as info:
            evaluate(freqs, verify=verify)
        bound = "outside the proven bound 0 < q <= 1/a_1 = 1/3"
        assert str(info.value) == f"first-dominant gave 2/3 for ({freqs}), {bound}"
        argv = ["integrate", *map(str, values)] + ([] if verify else ["--no-verify"])
        assert main(argv) == 2
        assert capsys.readouterr().err == f"verification failure: {info.value}\n"


class TestFormulaTable:
    FORMULAS = (
        "first_dominant_value",
        "first_dominant_correction",
        "three_dominant_value",
        "three_dominant_equal_first_two",
        "three_frequency_value",
    )

    def test_evaluate_calls_only_its_route_at_call_time(self, monkeypatch):
        # a wrapper set on the module attribute after import sees the call
        calls = []
        for name in self.FORMULAS:

            def traced(freqs, formula=getattr(closed_forms, name), name=name):
                calls.append(name)
                return formula(freqs)

            monkeypatch.setattr(closed_forms, name, traced)
        evaluate(classical_frequencies(8))
        evaluate(fl(1, 1, 1, "1/2"))
        assert calls == ["first_dominant_correction", "three_dominant_value"]

    @pytest.mark.parametrize("freqs", [fl(1, 1, 1), fl(2, 1, "1/2"), classical_frequencies(8)])
    def test_values_include_the_route(self, freqs):
        result = evaluate(freqs)
        assert closed_form_values(freqs)[result.provenance] == result.value

    def test_values_empty_without_hypothesis(self):
        assert closed_form_values(fl(1, 1)) == {}


class TestRandomizedAgainstEngine:
    def test_first_dominant(self):
        rng = random.Random(11)
        for _ in range(10):
            freqs = first_dominant_list(rng, rng.randint(1, 9))
            assert first_dominant_value(freqs).coefficient == reference_coefficient(freqs)

    def test_boundary(self):
        rng = random.Random(12)
        for _ in range(10):
            freqs = boundary_list(rng, rng.randint(3, 9))
            assert first_dominant_correction(freqs).coefficient == reference_coefficient(freqs)

    def test_three_dominant(self):
        rng = random.Random(13)
        for _ in range(10):
            freqs = three_dominant_list(rng, rng.randint(3, 9))
            value = three_dominant_value(freqs).coefficient
            assert value == reference_coefficient(freqs)
            a = freqs.sorted_entries
            if a[0] == a[1]:
                assert three_dominant_equal_first_two(freqs).coefficient == value
            if freqs.n == 3:
                assert three_frequency_value(freqs).coefficient == value
