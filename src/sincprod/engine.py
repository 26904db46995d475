"""Exact evaluation of integral(prod_j sinc(a_j x), x over R) as q*pi.

Expanding each sinc factor into complex exponentials splits the integrand
into 2^n terms indexed by sign vectors s in {-1,+1}^n, each with signed
frequency sum lam(s) = sum_j s_j a_j. Only the terms with lam(s) > 0
contribute to the residue at the origin, and collecting them gives

    coefficient = S / (2^(n-1) (n-1)! prod_j a_j),
    S = sum over lam(s) > 0 of (prod_j s_j) lam(s)^(n-1).

Two enumeration strategies compute S and must agree bit-exactly:

* MEET_IN_MIDDLE  - the default: split the list in half, sort both halves'
                    partial sums, and combine through binomial-expanded
                    moments; O(2^(n/2) n) big-int steps.
* BRUTE_FORCE     - all 2^n vectors; the trusted reference that tests
                    compare the default against.

Both walk sign patterns with one Gray-code generator. It yields each pattern
as one int, the key 2 lam + b with b = 1 when the sign product is -1: each step
flips one sign, so b alternates along the walk, lam = key >> 1, and keys sort
by lam. A sorted list entry is one pointer plus an int that small sums share.
By tracemalloc peak (CPython 3.11) that is 16-25 bytes per half-sum pattern on
24-30 copies of 1 and on a six-value alphabet at n = 30, and about 60 on
coprime lists at n = 24, against 65-100 for (lam, sign) tuples.

One cost rule bounds both: no walk visits more than 2^MAX_WALK patterns at
once. Brute force walks n weights and MITM n - floor(n/2), so n <= 20 and
n <= 40 pass; a larger input raises CapacityError, naming the cost, before
any kernel runs.

The result is checked against a proven bound: q = 2 f_X(0) for
X = U_1 + ... + U_n with U_j uniform on [-a_j, a_j], and X is symmetric and
unimodal, so 0 < q <= 1/a_1 (D. Borwein and J. M. Borwein, Ramanujan J. 5,
2001). A value outside it is a defect, reported as VerificationError.

Internally all arithmetic is on integers: frequencies are scaled by the
lcm of their denominators, so every lam is an integer, and integral_coefficient
divides back to a rational once, at the end, and checks the bound in integers.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from enum import Enum
from fractions import Fraction

from .core import FrequencyList, PiMultiple
from .errors import CapacityError, ValidationError, VerificationError

__all__ = ["EnumerationStrategy", "signed_moment_sum", "integral_coefficient"]

# The budget counts sign patterns only. On small weights 2^20 patterns take brute force about
# a second (classical n = 20: 0.9-1.1 s on a 2-core Xeon, CPython 3.11), and each further bit
# doubles it; time also grows with the bit size of the weights: 16 rationals with 40-digit
# numerators and denominators (2^16 patterns) take brute force 8-10 s, meet-in-the-middle 0.5-0.9 s.
# Memory at the budget: meet-in-the-middle on 40 copies of 1 (2^20 + 2^20 keys) peaks at about
# 54 MB RSS in a fresh process, where (lam, sign) tuples needed 174 MB.
MAX_WALK = 20


class EnumerationStrategy(Enum):
    BRUTE_FORCE = "brute"
    MEET_IN_MIDDLE = "mitm"


def _integer_weights(freqs: FrequencyList) -> tuple[list[int], int]:
    scale = math.lcm(*(a.denominator for a in freqs.sorted_entries))
    return [a.numerator * (scale // a.denominator) for a in freqs.sorted_entries], scale


def _signed_sums(weights: list[int]) -> Iterator[int]:
    """All 2^k sign patterns of k weights as keys 2*lam + b, in Gray-code order.

    Decode with lam = key >> 1 and sign -1 when key & 1; the floor shift and the
    XOR on the low bit are exact for negative ints too.
    """
    key, mask = 2 * sum(weights), 0
    yield key
    for step in range(1, 1 << len(weights)):
        bit = (step & -step).bit_length() - 1  # Gray code: flip exactly one sign
        mask ^= 1 << bit
        key += -4 * weights[bit] if mask >> bit & 1 else 4 * weights[bit]
        key ^= 1
        yield key


def _moment_sum_brute(weights: list[int], n: int) -> int:
    p = n - 1  # lam > 0 exactly when key > 1
    return sum(-(key >> 1) ** p if key & 1 else (key >> 1) ** p for key in _signed_sums(weights) if key > 1)


def _moment_sum_mitm(weights: list[int], n: int) -> int:
    # Split A|B. For a fixed A-vector, the sum over B-vectors with
    # lam_A + lam_B > 0 of sign_B (lam_A + lam_B)^(n-1) expands by the
    # binomial theorem into moments sum sign_B lam_B^m over the B-sums above
    # the cut lam_B > -lam_A. Keys order by lam (the parity bit only orders equal
    # lams, which no moment sees), so walking the A-keys in increasing order only
    # lowers the cut, and n running totals gain B-keys and never lose one. A
    # tie adds 0^(n-1) = 0 (none occurs at n = 1): ">=" is an equivalent mutant.
    p = n - 1
    half = n // 2
    b_keys = sorted(_signed_sums(weights[n - half :]), reverse=True)
    moments = [0] * (p + 1)  # moments of b_keys[:cut], all orders
    binom = [math.comb(p, k) for k in range(p + 1)]
    total = cut = 0
    for key_a in sorted(_signed_sums(weights[: n - half])):
        lam_a = key_a >> 1
        while cut < len(b_keys) and b_keys[cut] >> 1 > -lam_a:
            key = b_keys[cut]
            lam, power = key >> 1, -1 if key & 1 else 1
            for m in range(p + 1):
                moments[m] += power
                power *= lam
            cut += 1
        if cut == 0:
            continue  # no B-key above the cut yet, so every moment is 0
        acc = 0
        power = 1
        for k in range(p + 1):
            acc += binom[k] * power * moments[p - k]
            power *= lam_a
        total += -acc if key_a & 1 else acc
    return total


def signed_moment_sum(
    freqs: FrequencyList,
    strategy: EnumerationStrategy = EnumerationStrategy.MEET_IN_MIDDLE,
) -> Fraction:
    """S = sum over sign vectors with lam > 0 of (prod signs) lam^(n-1).

    Permutation-invariant in the frequencies; identical for every strategy.
    """
    n = freqs.n
    if strategy is EnumerationStrategy.BRUTE_FORCE:
        kernel, walk = _moment_sum_brute, n
    elif strategy is EnumerationStrategy.MEET_IN_MIDDLE:
        kernel, walk = _moment_sum_mitm, n - n // 2
    else:
        raise ValidationError(f"unknown strategy {strategy!r}")
    if walk > MAX_WALK:
        cost = f"2^{walk} sign patterns"
        raise CapacityError(
            f"engine:{strategy.value} on n = {n} walks {cost} at once, over the budget of 2^{MAX_WALK}", cost=cost
        )
    weights, scale = _integer_weights(freqs)
    return Fraction(kernel(weights, n), scale ** (n - 1))


def _check_bound(source: str, q: Fraction, freqs: FrequencyList) -> None:
    """Raise VerificationError unless q keeps the proven bound 0 < q <= 1/a_1, compared in integers."""
    a1 = freqs.sorted_entries[0]
    if not 0 < q.numerator * a1.numerator <= q.denominator * a1.denominator:
        raise VerificationError(f"{source} gave {q} for ({freqs}), outside the proven bound 0 < q <= 1/a_1 = {1 / a1}")


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
    weights, scale = _integer_weights(freqs)  # a_j = w_j / scale
    # One Fraction from integer products, so one gcd: S / (2^(n-1) (n-1)! freqs.product()) would
    # normalise a Fraction at every step. Best of 7 on a 2-core Xeon, CPython 3.11.7: 9-10 us
    # against 24 us on 7 terms and 15-23 against 84 us on a six-value alphabet at n = 30; the
    # division wins only where the kernel dwarfs both, coprime n = 24 (130-180 against 75 us
    # beside a 0.15 s kernel). Reusing signed_moment_sum's weights instead would need it to
    # return them, and perfbench's tracer reads its Fraction result.
    denominator = moment.denominator * 2 ** (n - 1) * math.factorial(n - 1) * math.prod(weights)
    coefficient = Fraction(moment.numerator * scale**n, denominator)
    _check_bound("engine", coefficient, freqs)
    return PiMultiple(coefficient)
