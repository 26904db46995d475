"""Shared test helpers: an independent reference oracle and list generators.

The reference oracle enumerates sign vectors with itertools and plain
Fraction arithmetic. It shares no code with the engine (no Gray codes, no
integer scaling, no sorting tricks), so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Sequence
from fractions import Fraction

from sincprod import (
    DominanceTag,
    FrequencyList,
    ValidationError,
    classify_dominance,
    frequency_list,
)


def signed_frequency_sum(freqs: FrequencyList, signs: Sequence[int]) -> Fraction:
    """lam(s) = sum_j s_j a_j, pairing signs with the sorted frequencies."""
    if len(signs) != freqs.n:
        raise ValidationError(f"expected {freqs.n} signs, got {len(signs)}")
    for i, s in enumerate(signs):
        if s not in (-1, 1):
            raise ValidationError(f"sign at index {i} must be -1 or +1, got {s!r}")
    return sum((s * a for s, a in zip(signs, freqs.sorted_entries)), start=Fraction(0))


def reference_moment_sum(freqs: FrequencyList) -> Fraction:
    n = freqs.n
    total = Fraction(0)
    for signs in itertools.product((1, -1), repeat=n):
        lam = signed_frequency_sum(freqs, signs)
        if lam > 0:
            total += math.prod(signs) * lam ** (n - 1)
    return total


def reference_coefficient(freqs: FrequencyList) -> Fraction:
    n = freqs.n
    scale = Fraction(2) ** (n - 1) * math.factorial(n - 1) * freqs.product()
    return reference_moment_sum(freqs) / scale


def sample_fraction(rng: random.Random, max_num: int = 50, max_den: int = 50) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def sample_fraction_below(
    rng: random.Random, cap: Fraction, max_num: int = 50, max_den: int = 50
) -> Fraction:
    """Positive fraction <= cap, with small numerator/denominator when cap allows."""
    den_lo = max(1, math.ceil(1 / cap))  # guarantees some numerator fits
    den_hi = max(max_den, 2 * den_lo)
    for _ in range(1000):
        den = rng.randint(den_lo, den_hi)
        hi = min(max_num, int(cap * den))
        if hi >= 1:
            return Fraction(rng.randint(1, hi), den)
    raise AssertionError(f"cannot sample below cap {cap}")


def _shuffled(rng: random.Random, values: list[Fraction]) -> FrequencyList:
    values = list(values)
    rng.shuffle(values)
    return frequency_list(values)


def first_dominant_list(rng: random.Random, n: int) -> FrequencyList:
    """a_1 strictly beats the sum of everything else."""
    a1 = Fraction(rng.randint(2, 50))
    out = [a1]
    if n > 1:
        budget = a1 * Fraction(rng.randint(5, 9), 10)
        out += [sample_fraction_below(rng, budget / (n - 1)) for _ in range(n - 1)]
    fl = _shuffled(rng, out)
    assert classify_dominance(fl).tag is DominanceTag.FIRST_DOMINANT
    return fl


def boundary_list(rng: random.Random, n: int) -> FrequencyList:
    """a_1 beats the first n-2 of the rest but loses once the smallest joins."""
    assert n >= 3
    tail = sorted((sample_fraction(rng) for _ in range(n - 2)), reverse=True)
    smallest = sample_fraction_below(rng, tail[-1])
    gap = smallest * Fraction(rng.randint(1, 9), 10)
    a1 = sum(tail, start=Fraction(0)) + gap
    fl = _shuffled(rng, [a1, *tail, smallest])
    cls = classify_dominance(fl)
    assert cls.tag is DominanceTag.FIRST_DOMINANT_BOUNDARY and cls.dominated_count == n - 1
    return fl


def three_dominant_list(rng: random.Random, n: int) -> FrequencyList:
    """The three largest dominate: a_2 + a_3 - a_1 > sum of the rest."""
    assert n >= 3
    if n == 3:
        top = sample_fraction(rng)
        fl = _shuffled(rng, [top, top, sample_fraction_below(rng, top)])
    else:
        a2 = sample_fraction(rng)
        a3 = sample_fraction_below(rng, a2)
        a1 = a2 + a3 * Fraction(rng.randint(0, 9), 10)  # in [a2, a2 + a3)
        margin = a2 + a3 - a1
        cap = min(a3, margin * Fraction(9, 10) / (n - 3))
        tail = [sample_fraction_below(rng, cap) for _ in range(n - 3)]
        fl = _shuffled(rng, [a1, a2, a3, *tail])
    assert classify_dominance(fl).tag is DominanceTag.THREE_DOMINANT
    return fl


def factorial_frequency_family(n_terms: int) -> tuple[FrequencyList, Fraction]:
    """a_j = 1/j! for j = 0 .. n_terms-1, and its three-dominant closed form.

    coefficient = 5/4 - (1/6) sum_j 1/(j!)^2, valid while the three largest
    frequencies dominate the truncated tail (they always do for the full
    family, whose tail sums to e - 5/2 < 1/2).
    """
    assert n_terms >= 3
    freqs = frequency_list([Fraction(1, math.factorial(j)) for j in range(n_terms)])
    assert classify_dominance(freqs).tag is DominanceTag.THREE_DOMINANT
    squares = sum((a * a for a in freqs.entries), start=Fraction(0))
    return freqs, Fraction(5, 4) - squares / 6


def arbitrary_list(rng: random.Random, n: int, max_num: int = 100, max_den: int = 100) -> FrequencyList:
    """Unconstrained positive list; often repeats entries so zero sums occur."""
    values = [sample_fraction(rng, max_num, max_den) for _ in range(n)]
    if n >= 2 and rng.random() < 0.5:
        values[rng.randrange(n)] = values[rng.randrange(n)]
    return _shuffled(rng, values)
