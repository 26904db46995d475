"""Acceptance gate: every criterion, at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines alongside the pytest verdicts. Exact comparisons are exact;
the only tolerances anywhere are the quadrature targets, which are part of
the contract being tested.
"""

import math
import random
import time
from fractions import Fraction

from sincprod import (
    EnumerationStrategy,
    classical_frequencies,
    classify_dominance,
    crosscheck,
    frequency_list,
    integral_coefficient,
    signed_moment_sum,
)
from sincprod.closed_forms import (
    first_dominant_correction,
    first_dominant_value,
    three_dominant_equal_first_two,
    three_dominant_value,
    three_frequency_value,
)
from support import boundary_list, first_dominant_list, three_dominant_list

I8_COEFFICIENT = 1 - Fraction(6879714958723010531, 467807924720320453655260875000)


def report(name: str, ok: bool) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return ok


def test_classical_pattern_holds_through_seven():
    start = time.perf_counter()
    ok = all(
        integral_coefficient(classical_frequencies(n)).coefficient == 1 for n in range(1, 8)
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    assert report(f"classical family gives exactly pi for n = 1..7 ({elapsed:.3f}s)", ok)


def test_pattern_breaks_at_eight_with_exact_fraction():
    freqs = classical_frequencies(8)
    start = time.perf_counter()
    engine = integral_coefficient(freqs).coefficient
    elapsed = time.perf_counter() - start
    closed = first_dominant_correction(freqs).coefficient
    ok = engine == I8_COEFFICIENT and closed == engine and elapsed < 0.1
    assert report(f"n = 8 break reproduced exactly, engine and closed form ({elapsed:.3f}s)", ok)


def test_break_gap_reproduction():
    # independent one-line summation, then the library value
    independent = 1 - sum(Fraction(1, 2 * j - 1) for j in range(2, 9))
    cls = classify_dominance(classical_frequencies(8))
    first = cls.checks[0]
    ok = (
        independent == Fraction(-982, 45045)
        and 1 - first.rhs / first.lhs == independent
        and cls.dominated_count == 7
    )
    assert report("break gap -982/45045 with N = 7 confirmed independently", ok)


def test_first_dominant_closed_forms_match_engine():
    rng = random.Random(2024)
    start = time.perf_counter()
    ok = True
    for _ in range(50):
        freqs = first_dominant_list(rng, rng.randint(1, 12))
        ok = ok and (
            first_dominant_value(freqs).coefficient
            == integral_coefficient(freqs).coefficient
        )
    for _ in range(50):
        freqs = boundary_list(rng, rng.randint(3, 12))
        ok = ok and (
            first_dominant_correction(freqs).coefficient
            == integral_coefficient(freqs).coefficient
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    assert report(f"dominant/boundary closed forms = engine on 100 random lists ({elapsed:.1f}s)", ok)


def test_three_dominant_closed_forms_match_engine():
    rng = random.Random(2025)
    start = time.perf_counter()
    ok = True
    for _ in range(50):
        freqs = three_dominant_list(rng, rng.randint(3, 12))
        value = three_dominant_value(freqs).coefficient
        ok = ok and value == integral_coefficient(freqs).coefficient
        a = freqs.sorted_entries
        if a[0] == a[1]:
            ok = ok and three_dominant_equal_first_two(freqs).coefficient == value
        if freqs.n == 3:
            ok = ok and three_frequency_value(freqs).coefficient == value
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    assert report(f"three-dominant closed forms = engine on 50 random lists ({elapsed:.1f}s)", ok)


def test_triple_ones_family_squared_norm_form():
    rng = random.Random(2026)
    ok = True
    for _ in range(20):
        extra = rng.randint(1, 6)
        tail = []
        budget = Fraction(9, 10)
        for _ in range(extra):
            den = rng.randint(2, 50)
            num = rng.randint(1, max(1, int(budget / extra * den)))
            tail.append(Fraction(num, den))
        assert sum(tail) < 1
        freqs = frequency_list([Fraction(1), Fraction(1), Fraction(1), *tail])
        expected = 1 - sum((a * a for a in freqs.entries), start=Fraction(0)) / 12
        ok = ok and integral_coefficient(freqs).coefficient == expected
    assert report("1 - |a|^2/12 form on 20 random (1,1,1,tail) lists", ok)


def test_reciprocal_factorial_truncation():
    freqs = frequency_list([Fraction(1, math.factorial(j)) for j in range(8)])
    expected = Fraction(5, 4) - Fraction(1, 6) * sum(
        (Fraction(1, math.factorial(j) ** 2) for j in range(8)), start=Fraction(0)
    )
    ok = integral_coefficient(freqs).coefficient == expected
    assert report("reciprocal-factorial family truncated at 8 terms", ok)


def test_strategy_equivalence_and_large_mitm():
    rng = random.Random(2027)
    sizes = (
        [rng.randint(2, 10) for _ in range(160)]
        + [rng.randint(11, 14) for _ in range(28)]
        + [15] * 4
        + [16] * 8
    )
    ok = True
    for n in sizes:
        values = [Fraction(rng.randint(1, 100), rng.randint(1, 100)) for _ in range(n)]
        if rng.random() < 0.4:
            values[rng.randrange(n)] = values[rng.randrange(n)]
        freqs = frequency_list(values)
        brute = signed_moment_sum(freqs, EnumerationStrategy.BRUTE_FORCE)
        ok = ok and signed_moment_sum(freqs, EnumerationStrategy.MEET_IN_MIDDLE) == brute
    assert report("both strategies identical on 200 random lists (n <= 16)", ok)

    start = time.perf_counter()
    value = integral_coefficient(classical_frequencies(24), EnumerationStrategy.MEET_IN_MIDDLE)
    elapsed = time.perf_counter() - start
    ok = value.coefficient > 0 and elapsed < 60.0
    assert report(f"meet-in-the-middle completes n = 24 classical list ({elapsed:.1f}s)", ok)


def test_scaling_and_permutation_laws():
    rng = random.Random(2028)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 9)
        values = [Fraction(rng.randint(1, 50), rng.randint(1, 50)) for _ in range(n)]
        c = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        freqs = frequency_list(values)
        base = integral_coefficient(freqs).coefficient
        ok = ok and integral_coefficient(freqs.scaled(c)).coefficient == base / c
        shuffled = list(values)
        rng.shuffle(shuffled)
        ok = ok and integral_coefficient(frequency_list(shuffled)).coefficient == base
    assert report("scaling law and permutation invariance on 100 random pairs", ok)


def test_quadrature_crosscheck_suite():
    three_dominant_cases = [
        [1, 1, 1],
        [1, 1, Fraction(1, 2)],
        [1, 1, 1, Fraction(1, 2)],
        [2, 2, 1],
        [1, 1, Fraction(3, 4), Fraction(1, 2)],
    ]
    cases = [classical_frequencies(n) for n in range(2, 9)]
    cases += [frequency_list(values) for values in three_dominant_cases]
    ok = True
    worst = 0.0
    for freqs in cases:
        start = time.perf_counter()
        result = crosscheck(freqs, 1e-8)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        ok = ok and result.passed and elapsed < 10.0
    assert report(f"quadrature crosscheck on 12 lists at 1e-8 (worst case {worst:.2f}s)", ok)
