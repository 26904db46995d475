"""Correctness gate: every answer a timed op returned is checked, untimed.

Four checks, each applied where it fits:

* bound      0 < q <= 1/a_1, proven for every list (q = 2 f_X(0) for a sum
             X of uniform variables, which is symmetric and unimodal);
* classical  the family 1, 1/3, ..., 1/(2n-1) gives q = 1 for n <= 7 and the
             published constant at n = 8;
* reference  lists with n <= SMALL_N match a plain itertools/Fraction sign
             enumeration written here, sharing no code with sincprod;
* strategy   an answer from the engine's brute force is recomputed with the
             public meet-in-the-middle strategy. An answer from the engine's
             meet in the middle (n >= 21) would take brute force 2.5 s to
             minutes, so it is recomputed with `halfsum_reference` below,
             this file's own grouped half-sum combination.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction

import mpmath

SMALL_N = 12

CLASSICAL_8 = Fraction(467807924713440738696537864469, 467807924720320453655260875000)


def reference_coefficient(values) -> Fraction:
    n = len(values)
    total = Fraction(0)
    for signs in itertools.product((1, -1), repeat=n):
        lam = sum(s * a for s, a in zip(signs, values))
        if lam > 0:
            total += math.prod(signs) * lam ** (n - 1)
    return total / (2 ** (n - 1) * math.factorial(n - 1) * math.prod(values))


def _integer_weights(values) -> tuple[list[int], int]:
    scale = math.lcm(*(a.denominator for a in values))
    return sorted((int(a * scale) for a in values), reverse=True), scale


def _grouped_sums(weights) -> dict[int, int]:
    """Signed sum -> net sign product over all sign choices of `weights`."""
    sums = {0: 1}
    for w in weights:
        nxt = defaultdict(int)
        for lam, count in sums.items():
            nxt[lam + w] += count
            nxt[lam - w] -= count
        sums = nxt
    return sums


def _halves(values):
    weights, scale = _integer_weights(values)
    cut = len(weights) - len(weights) // 2
    return _grouped_sums(weights[:cut]), _grouped_sums(weights[cut:]), scale


def halfsum_distinct_ratio(values) -> float:
    """Distinct half-sums over half-sum patterns, for the engine's split."""
    n = len(values)
    left, right, _ = _halves([Fraction(a) for a in values])
    return (len(left) + len(right)) / (2 ** (n - n // 2) + 2 ** (n // 2))


def halfsum_reference(values) -> Fraction:
    """Exact q from the two halves' grouped signed sums.

    For each left sum L the pairs with L + R > 0 contribute
    sum_k C(p, k) L^(p-k) M_k, where M_k is the moment of order k of the
    right sums above -L; walking L downwards only ever drops right sums.
    """
    n = len(values)
    p = n - 1
    left, right, scale = _halves(values)
    right_sorted = sorted((lam, c) for lam, c in right.items() if c)
    moments = [0] * (p + 1)
    for lam, c in right_sorted:
        power = c
        for k in range(p + 1):
            moments[k] += power
            power *= lam
    binom = [math.comb(p, k) for k in range(p + 1)]
    total, dropped = 0, 0
    for lam_left, count in sorted(left.items(), reverse=True):
        while dropped < len(right_sorted) and right_sorted[dropped][0] <= -lam_left:
            lam, c = right_sorted[dropped]
            power = c
            for k in range(p + 1):
                moments[k] -= power
                power *= lam
            dropped += 1
        if count:
            total += count * sum(binom[k] * lam_left ** (p - k) * moments[k] for k in range(p + 1))
    moment_sum = Fraction(total, scale**p)
    return moment_sum / (2**p * math.factorial(p) * math.prod(values))


def expected_tag(values) -> str:
    """Dominance class by the definitions in the paper, strict inequalities."""
    a = sorted(values, reverse=True)
    rest = sum(a[1:], Fraction(0))
    if a[0] > rest:
        return "first-dominant"
    if len(a) >= 3:
        if a[0] > rest - a[-1] and rest > a[0]:
            return "first-dominant-boundary"
        if a[1] + a[2] - a[0] > sum(a[3:], Fraction(0)):
            return "three-dominant"
    return "none"


def is_classical(values) -> bool:
    return sorted(values, reverse=True) == [Fraction(1, 2 * j - 1) for j in range(1, len(values) + 1)]


def check_coefficient(values, q: Fraction, route: str, pkg) -> list[str]:
    """Problems with answer q for `values`; `route` is the provenance string."""
    values = [Fraction(a) for a in values]
    n = len(values)
    problems = []
    if not 0 < q <= 1 / max(values):
        problems.append(f"bound: q = {q} outside (0, 1/a_1]")
    if is_classical(values) and n <= 8:
        want = 1 if n <= 7 else CLASSICAL_8
        if q != want:
            problems.append(f"classical: n = {n} gave {q}, expected {want}")
    if n <= SMALL_N and q != reference_coefficient(values):
        problems.append(f"reference: {q} differs from the Fraction enumeration")
    if route == "engine:brute" and n >= 2:
        other = pkg.integral_coefficient(
            pkg.frequency_list(values), pkg.EnumerationStrategy.MEET_IN_MIDDLE
        ).coefficient
        if q != other:
            problems.append(f"strategy: brute gave {q}, meet-in-the-middle {other}")
    elif route == "engine:mitm" and q != halfsum_reference(values):
        problems.append(f"strategy: meet-in-the-middle gave {q}, half-sum reference differs")
    return problems


def check_decimal(q: Fraction, text: str, digits: int) -> list[str]:
    """The printed value is q*pi to `digits` places."""
    with mpmath.workdps(digits + 30):
        error = abs(mpmath.mpf(text) - mpmath.mpf(q.numerator) / q.denominator * mpmath.pi)
        if error > mpmath.mpf(10) ** (-digits) / 2 * (1 + mpmath.mpf(10) ** -10):
            return [f"decimal: {text} is not q*pi to {digits} places"]
    return []
