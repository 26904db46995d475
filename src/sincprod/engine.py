"""Exact evaluation of integral(prod_j sinc(a_j x), x over R) as q*pi.

Expanding each sinc factor into complex exponentials splits the integrand
into 2^n terms indexed by sign vectors s in {-1,+1}^n, each with signed
frequency sum lam(s) = sum_j s_j a_j. Only the terms with lam(s) > 0
contribute to the residue at the origin, and collecting them gives

    coefficient = S / (2^(n-1) (n-1)! prod_j a_j),
    S = sum over lam(s) > 0 of (prod_j s_j) lam(s)^(n-1).

Two enumeration strategies compute S and must agree bit-exactly:

* MEET_IN_MIDDLE  - the default: split the list in half, sort one half's
                    partial sums, and combine through binomial-expanded
                    suffix moments; O(2^(n/2) n) big-int steps.
* BRUTE_FORCE     - all 2^n vectors, Gray-code order; the trusted
                    reference that tests compare the default against.

The result is checked against a proven bound: q = 2 f_X(0) for
X = U_1 + ... + U_n with U_j uniform on [-a_j, a_j], and X is symmetric and
unimodal, so 0 < q <= 1/a_1 (D. Borwein and J. M. Borwein, Ramanujan J. 5,
2001). A value outside it is a defect, reported as VerificationError.

Internally all arithmetic is on integers: frequencies are scaled by the
lcm of their denominators, so every lam is an integer and the single
division back to a rational happens once at the end.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .core import FrequencyList, PiMultiple
from .errors import CapacityError, ValidationError, VerificationError

__all__ = [
    "EnumerationStrategy",
    "MAX_FREQUENCIES",
    "signed_moment_sum",
    "integral_coefficient",
]

# 2^(n/2) working set past this point; keep the resource envelope predictable
MAX_FREQUENCIES = 40


class EnumerationStrategy(Enum):
    BRUTE_FORCE = "brute"
    MEET_IN_MIDDLE = "mitm"


def _integer_weights(freqs: FrequencyList) -> tuple[list[int], int]:
    scale = math.lcm(*(a.denominator for a in freqs.sorted_entries))
    return [a.numerator * (scale // a.denominator) for a in freqs.sorted_entries], scale


def _moment_sum_brute(weights: list[int], n: int) -> int:
    p = n - 1
    lam = sum(weights)
    total = lam**p if lam > 0 else 0
    sign = 1
    mask = 0
    for step in range(1, 1 << n):
        bit = (step & -step).bit_length() - 1  # Gray code: flip exactly one sign
        mask ^= 1 << bit
        lam += -2 * weights[bit] if mask >> bit & 1 else 2 * weights[bit]
        sign = -sign
        if lam > 0:
            total += sign * lam**p
    return total


def _signed_sums(weights: list[int]) -> list[tuple[int, int]]:
    """All 2^k pairs (partial lam, sign product) for one half of the split."""
    out = [(sum(weights), 1)]
    lam, sign, mask = out[0][0], 1, 0
    for step in range(1, 1 << len(weights)):
        bit = (step & -step).bit_length() - 1
        mask ^= 1 << bit
        lam += -2 * weights[bit] if mask >> bit & 1 else 2 * weights[bit]
        sign = -sign
        out.append((lam, sign))
    return out


def _moment_sum_mitm(weights: list[int], n: int) -> int:
    # Split A|B. For a fixed A-vector, the sum over B-vectors with
    # lam_A + lam_B > 0 of sign_B (lam_A + lam_B)^(n-1) expands by the
    # binomial theorem into suffix moments sum sign_B lam_B^m taken over
    # the B-sums above the cut lam_B > -lam_A; ties lam_A + lam_B = 0 are
    # excluded. Walking the A-sums in decreasing order moves the cut
    # monotonically right, so n running totals replace a full moment table.
    p = n - 1
    half = n // 2
    side_a = weights[: n - half]
    side_b = weights[n - half :]

    b_sums = sorted(_signed_sums(side_b))
    moments = [0] * (p + 1)  # suffix moments of b_sums[cut:], all orders
    for lam, sign in b_sums:
        power = sign
        for m in range(p + 1):
            moments[m] += power
            power *= lam

    binom = [math.comb(p, k) for k in range(p + 1)]
    total = 0
    cut = 0
    for lam_a, sign_a in sorted(_signed_sums(side_a), reverse=True):
        while cut < len(b_sums) and b_sums[cut][0] <= -lam_a:
            lam, sign = b_sums[cut]
            power = sign
            for m in range(p + 1):
                moments[m] -= power
                power *= lam
            cut += 1
        if cut == len(b_sums):
            break  # every remaining lam_A is smaller still
        acc = 0
        power = 1
        for k in range(p + 1):
            acc += binom[k] * power * moments[p - k]
            power *= lam_a
        total += sign_a * acc
    return total


def signed_moment_sum(
    freqs: FrequencyList,
    strategy: EnumerationStrategy = EnumerationStrategy.MEET_IN_MIDDLE,
) -> Fraction:
    """S = sum over sign vectors with lam > 0 of (prod signs) lam^(n-1).

    Permutation-invariant in the frequencies; identical for every strategy.
    """
    n = freqs.n
    if n > MAX_FREQUENCIES:
        raise CapacityError(
            f"n = {n} exceeds the size guard ({MAX_FREQUENCIES}); "
            "the 2^(n/2) working set would be impractical"
        )
    weights, scale = _integer_weights(freqs)
    if strategy is EnumerationStrategy.BRUTE_FORCE:
        total = _moment_sum_brute(weights, n)
    elif strategy is EnumerationStrategy.MEET_IN_MIDDLE:
        total = _moment_sum_mitm(weights, n)
    else:
        raise ValidationError(f"unknown strategy {strategy!r}")
    return Fraction(total, scale ** (n - 1))


def integral_coefficient(
    freqs: FrequencyList,
    strategy: EnumerationStrategy = EnumerationStrategy.MEET_IN_MIDDLE,
) -> PiMultiple:
    """Exact rational q with integral(prod_j sinc(a_j x) dx) = q*pi.

    For a single frequency the integral is the improper Riemann one.
    Raises VerificationError if q breaks the proven bound 0 < q <= 1/a_1.
    """
    # strategy stays positional: perfbench's tracer labels the span from args[1]
    moment = signed_moment_sum(freqs, strategy)
    n = freqs.n
    coefficient = moment / (Fraction(2) ** (n - 1) * math.factorial(n - 1) * freqs.product())
    if not 0 < coefficient <= 1 / freqs.sorted_entries[0]:
        raise VerificationError(
            f"engine gave {coefficient} for ({freqs}), outside the proven "
            f"bound 0 < q <= 1/a_1 = {1 / freqs.sorted_entries[0]}"
        )
    return PiMultiple(coefficient)
