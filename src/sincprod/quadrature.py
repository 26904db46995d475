"""Floating-point verification oracle for the exact engine.

The oracle evaluates integral prod_j sinc(a_j x) dx by the Fourier route,
not by residues, and pairs the value with a proven error bound, so an exact
coefficient q can be checked against |numeric - q*pi| <= total_error_bound.

Sampling theorem (R. Baillie, D. Borwein and J. M. Borwein, "Surprising
sinc sums and integrals", Amer. Math. Monthly 115, 2008): f(x) =
prod_j sinc(a_j x) is the characteristic function of a sum of uniform
variables on [-a_j, a_j], so its Fourier transform vanishes outside
[-omega, omega] with omega = sum_j a_j. By Poisson summation, for n >= 2
and 0 < h <= 2*pi/omega,

    integral f = h * sum over k in Z of f(k h)   exactly.

f is even and f(0) = 1, so that is h * (1 + 2 * sum_{k >= 1} f(k h)).
Two ways to take the sum; the cheaper one by sample count is used:

* periodic - L = lcm of the denominators, w_j = L a_j, M = sum_j w_j + 1 and
  h = 2 pi L / M. Then a_j k h = 2 pi k w_j / M, so prod_j sin(a_j k h)
  repeats every M steps of k and each argument reduces exactly in integers,
  (k w_j mod M). Grouping k = r + m M, the infinite sum is
  sum_{r=1}^{M-1} f(r h) z_r with z_r = (r/M)^n zeta(n, r/M), a Hurwitz
  zeta value taken as 1 + (r/M)^n zeta(n, 1 + r/M) so that large n log M
  cannot overflow (the kernel is described below). M - 1 samples, no
  truncation, no discretization.
* direct - h just below 2 pi / omega and 1 <= k <= K. Since
  |f(x)| <= 1 / (prod_j a_j |x|^n), the samples past K add at most
  tail_bound(freqs, K h). K samples.

Certificate: total_error_bound = tail bound (0 in periodic mode) + rounding
bound. math.fsum rounds the sample sum once, and h * (1 + 2 sum) costs at
most 6 ulps of the value. Each of the n factors of a sample is within
_ULPS_PER_FACTOR = 64 ulps of its envelope min(1, 1/(a_j k h)), times
max(1, a_1 k h) in direct mode, where arguments round in proportion to
their size. In ulps of that envelope: argument rounding 6 pi < 19 after the
exact reduction (6 in direct mode); sin 2 (libm's math.sin, in periodic
mode also numpy's; 0.5 measured); quotient and running product 2; in
periodic mode z_r, whose Hurwitz zeta kernel on [1, 2] takes 16 ulps
(truncation below 0.35 ulp, proven below, and rounding below 2.9 ulps
measured against mpmath, with numpy's power and with float ** alike) and
its argument, power and sum 2n + 4 more per sample: at most 12 a factor.
That is 35 ulps (10 in direct mode), so 29 of the 64 are slack, and the
slack absorbs the rounding of the envelope sum itself: each of its K terms
(K = M - 1 in periodic mode) is within (4n + 20) ulps, and the sum,
pairwise within a block (left to right in Python floats), left to right
across blocks, adds a relative (K - 1) 2^-53 <= 2.3e-10 at MAX_SAMPLES, as
any order of summation does, far below 29/64 for any n below 10^14. Hence
rounding bound = 2 h (ulp of the sum + n * 64 ulps of the envelope sum) +
6 ulps of the value + n * 2^-1074 per sample for underflow.

Both costs are Python numbers (M can exceed 10^400), compared before any
array exists; past MAX_SAMPLES the oracle raises ToleranceError naming
the cost. Direct mode takes its samples one at a time in Python floats.
The periodic sample is one function, applied to one r or to an array: up
to SCALAR_FACTORS sample factors (n times the sample count) to each r in
Python ints and floats, so numpy is never imported, and past that to an
int64 array (r w_j below 2^42 within MAX_SAMPLES). The choice depends on
the input alone. Either mode takes its samples in blocks of _BLOCK = 2^14
and streams every block's terms into one math.fsum, which rounds once
whatever the split, so the value does not depend on the block size and
memory holds a block, not M - 1 or K samples.

Hurwitz zeta kernel: zeta(s, q) for integer s >= 2 and q in [1, 2] by
Euler-Maclaurin summation of x^-s from q, with N = 9 direct terms,

    sum_{k<N} (q+k)^-s + (q+N)^(1-s)/(s-1) + (q+N)^-s/2
        + sum_{j=1..8} B_2j/(2j)! * s(s+1)...(s+2j-2) * (q+N)^(-s-2j+1).

x^-s is completely monotone, so the remainder has the sign of the first
omitted term, B_18/18! (s)_17 (q+N)^(-s-17), and is smaller in size. As
zeta(s, q) > q^-s, that term is below |B_18|/18! (s)_17 (q/(q+N))^s
(q+N)^-17 <= |B_18|/18! (s)_17 (2/11)^s 10^-17 of the value. This bound
grows by (s+17)/s * 2/11 from s to s + 1, so it is largest at s = 4,
where it is 3.8e-17 = 0.35 ulp.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .core import FrequencyList
from .engine import _integer_weights, integral_coefficient
from .errors import ToleranceError, ValidationError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "tail_bound",
    "quadrature_estimate",
    "crosscheck",
    "QuadratureResult",
    "CrosscheckReport",
]

MIN_TARGET = 1e-12
# In a fresh process on a 2-core Xeon with CPython 3.11: 1, 1/1000003 (M = 1000005) on an array
# takes about 0.3 s and peaks at 31.5 MB, 3 MB over importing numpy; 1.4e6 direct samples
# (1, 1, 1/1000003 at 1e-7) take 0.6 to 1 s and peak at 16 MB. Memory stays one block's worth.
MAX_SAMPLES = 2_000_000
# Periodic mode only: up to this many sample factors (n * samples) it takes one r at a time
# and numpy is never imported. On a 2-core Xeon with CPython 3.11 that costs about 2.4 us a
# factor (a 5000-sample pair: 24 ms, against 1.3 ms on an array), so 10000 factors stay
# near 25 ms, well under the 0.17 s that importing numpy costs a fresh process.
SCALAR_FACTORS = 10_000
# Samples per block on an array and in direct mode, all streamed into one math.fsum. A block's
# array temporaries and the last block's terms cost about 150 traced bytes a sample, so the oracle
# peaks near 2.4 MiB whatever M or K is (a 95 000-sample pair at once: 10.4 MiB). On a 2-core Xeon
# with numpy 2.4 that pair took 14-16 ms at 2^13, 17 ms at 2^14, 18-21 ms at 2^15, 24 ms at once.
_BLOCK = 2**14
_ULP = 2.0**-53
_ULPS_PER_FACTOR = 64
_ZETA_DIRECT_TERMS = 9
# B_2j / (2j)! for j = 1..8, the Euler-Maclaurin coefficients of the zeta kernel
_ZETA_EM_COEFFICIENTS = tuple(
    float(Fraction(b) / math.factorial(2 * j))
    for j, b in enumerate(("1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730", "7/6", "-3617/510"), 1)
)


def _as_double(num: int, den: int, what: str) -> float:
    """num / den, correctly rounded, refusing ratios that double precision turns into 0 or inf."""
    try:
        result = num / den
    except OverflowError:
        result = math.inf
    if result == 0.0 or math.isinf(result):
        g = math.gcd(num, den)
        exponent = round(((num // g).bit_length() - (den // g).bit_length()) * math.log10(2))
        raise ToleranceError(
            f"{what} is about 1e{exponent}, outside double-precision range; "
            "the quadrature oracle cannot evaluate it"
        )
    return result


def _tail_bound(n: int, prod_num: int, prod_den: int, R: float) -> float:
    """2 / ((n-1) R^(n-1) prod a_j), prod a_j = prod_num / prod_den, exact until one int / int, then rounded up."""
    if R == math.inf:
        return 0.0
    r_num, r_den = R.as_integer_ratio()
    num, den = 2 * prod_den * r_den ** (n - 1), (n - 1) * r_num ** (n - 1) * prod_num
    try:
        bound = num / den
    except OverflowError:
        return math.inf
    b_num, b_den = bound.as_integer_ratio()
    return bound if b_num * den >= num * b_den else math.nextafter(bound, math.inf)


def tail_bound(freqs: FrequencyList, R: float) -> float:
    """Upper bound on |integral over |x| > R|: 2 / ((n-1) R^(n-1) prod a_j).

    The same number bounds h * sum over |k| > R/h of |f(k h)|.
    """
    if freqs.n < 2:
        raise ValidationError(
            "tail bound diverges for a single factor; that integral is only "
            "conditionally convergent and is covered by the exact engine"
        )
    if not (R > 0):
        raise ValidationError(f"window edge must be positive, got {R}")
    weights, L = _integer_weights(freqs)
    prod_num, prod_den = math.prod(weights), L**freqs.n
    _as_double(prod_num, prod_den, "the frequency product")  # refused as quadrature_estimate refuses it
    return _tail_bound(freqs.n, prod_num, prod_den, R)


class QuadratureResult(NamedTuple):
    value: float
    rounding_bound: float
    tail_bound: float
    R: float  # sampled span: K*h in direct mode, one period M*h = 2*pi*L in periodic mode
    mode: str  # "periodic" or "direct"
    samples: int  # M - 1 or K

    @property
    def total_error_bound(self) -> float:
        return self.tail_bound + self.rounding_bound


class CrosscheckReport(NamedTuple):
    quadrature: QuadratureResult
    exact_coefficient: Fraction
    exact_value: float
    difference: float
    passed: bool


def _hurwitz_zeta(s: int, q: float | np.ndarray) -> float | np.ndarray:
    """zeta(s, q) for integer s >= 2 and q in [1, 2], a float or an array; see the module docstring."""
    a = q + _ZETA_DIRECT_TERMS
    power = a**-s
    inverse_square = 1.0 / (a * a)
    scaled = power / a  # (q+N)^(-s-2j+1) at j = 1
    rising = float(s)  # s(s+1)...(s+2j-2) at j = 1
    corrections = 0.0 * q
    for j, coefficient in enumerate(_ZETA_EM_COEFFICIENTS, 1):
        corrections += coefficient * rising * scaled
        scaled *= inverse_square
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    total = corrections + power / 2 + a * power / (s - 1)
    for k in reversed(range(_ZETA_DIRECT_TERMS)):  # smallest parts first
        total += (q + k) ** -s
    return total


def _periodic_sample(r: int | np.ndarray, weights: list[int], M: int, sin, minimum):
    """f(r h) z_r and its envelope times z_r, with h = 2 pi L / M, for one int r or an int64 array.

    sin and minimum are math.sin and min for an int, np.sin and np.minimum for an array.
    """
    term = bound = 1.0
    for w in weights:
        d = (r * w) / M * (2 * math.pi)  # a_j r h, unreduced
        term *= sin((r * w % M) / M * (2 * math.pi)) / d
        bound *= minimum(1.0, 1.0 / d)
    x = r / M
    z = 1.0 + x ** len(weights) * _hurwitz_zeta(len(weights), 1.0 + x)
    return term * z, bound * z


def _direct_samples(a_floats: list[float], h: float, K: int, start: int = 1) -> tuple[list[float], float]:
    """f(k h) for k = start..K and the sum of their envelope, in Python floats; a_floats is non-increasing."""
    sin, first, rest = math.sin, a_floats[0], a_floats[1:]
    terms, envelope = [], 0.0
    for k in range(start, K + 1):
        x = k * h
        t = first * x
        term, bound = sin(t) / t, 1.0  # 1.0 * sin(t) / t, exactly
        for a in rest:
            t = a * x
            term *= sin(t) / t
            bound *= 1.0 / t if t > 1.0 else 1.0  # min(1, 1/t); a call to min costs more than the rest
        terms.append(term)
        envelope += bound
    return terms, envelope


def _sum_in_blocks(block, count: int) -> tuple[float, float]:
    """math.fsum of the terms of samples 1..count and the sum of their envelope, taken _BLOCK samples at a time.

    block(start, stop) returns the terms of samples start..stop-1 as a list and the sum of their envelope.
    The one fsum rounds once however the terms are split; the envelopes add left to right across blocks.
    """
    envelope = 0.0

    def terms():
        nonlocal envelope
        for start in range(1, count + 1, _BLOCK):
            block_terms, block_envelope = block(start, min(start + _BLOCK, count + 1))
            envelope += block_envelope
            yield block_terms

    total = math.fsum(itertools.chain.from_iterable(terms()))
    return total, envelope


def quadrature_estimate(freqs: FrequencyList, target_abs_error: float) -> QuadratureResult:
    """The integral by the sampling theorem, with total_error_bound <= target_abs_error.

    Direct mode spends half the target on the tail. Rejected: n = 1 (the
    sampling theorem and the tail bound need n >= 2), targets below 1e-12
    (double precision cannot certify them against values of order pi),
    inputs whose cheaper mode needs more than MAX_SAMPLES samples, and
    targets not below pi/a_1, which no value in (0, pi/a_1] can fail.
    """
    n = freqs.n
    if n < 2:
        raise ValidationError(
            "quadrature oracle requires n >= 2; the single-factor integral is "
            "only conditionally convergent"
        )
    target = float(target_abs_error)
    if not math.isfinite(target) or target <= 0:
        raise ToleranceError(f"target must be a positive finite float, got {target_abs_error}")
    if target < MIN_TARGET:
        raise ToleranceError(f"target {target} is below the achievable floor {MIN_TARGET}")

    # exact quantities are integer ratios, each rounded once by a correctly rounded int / int: a_j = w_j / L,
    # omega = W / L and pi_double = pi_num / pi_den < pi; the factor keeps h below 2*pi/omega
    weights, L = _integer_weights(freqs)
    pi_num, pi_den = math.pi.as_integer_ratio()
    W = sum(weights)
    a_floats = [_as_double(w, L, "a frequency") for w in weights]
    prod_num, prod_den = math.prod(weights), L**n
    prod_a = _as_double(prod_num, prod_den, "the frequency product")
    h = _as_double(2 * pi_num * L, pi_den * W, "the sampling step 2*pi/omega") * (1 - 2.0**-50)
    log_k = (math.log10(4 / ((n - 1) * target)) - math.log10(prod_a)) / (n - 1) - math.log10(h)
    K = math.floor(10**log_k) + 1 if log_k < 18 else math.inf  # tail_bound(freqs, K*h) <= target/2
    M = W + 1

    cost = min(M - 1, K)
    if cost > MAX_SAMPLES:
        raise ToleranceError(
            f"the oracle needs about 10^{math.log10(cost):.1f} samples (the cheaper of "
            f"periodic M - 1 and direct K), over its budget of {MAX_SAMPLES}"
        )
    if target >= math.pi / a_floats[0]:
        raise ToleranceError(f"target {target} is not below pi/a_1 = {math.pi / a_floats[0]:.6g}, the value's own size")
    mode, samples = ("periodic", M - 1) if M - 1 <= K else ("direct", K)
    if mode == "periodic":
        R = _as_double(2 * L * pi_num, pi_den, "one period 2*pi*lcm of the denominators")
        h = R / M
        if n * samples <= SCALAR_FACTORS:  # decided by the input alone

            def block(start, stop):
                terms, envelope = [], 0.0
                for r in range(start, stop):
                    term, bound = _periodic_sample(r, weights, M, math.sin, min)
                    terms.append(term)
                    envelope += bound
                return terms, envelope

        else:
            import numpy as np

            def block(start, stop):
                terms, bounds = _periodic_sample(np.arange(start, stop, dtype=np.int64), weights, M, np.sin, np.minimum)
                return terms.tolist(), float(bounds.sum())

        tail = 0.0
    else:
        R = K * h

        def block(start, stop):
            return _direct_samples(a_floats, h, stop - 1, start)

        tail = _tail_bound(n, prod_num, prod_den, R)

    total, envelope = _sum_in_blocks(block, samples)
    value = h * (1.0 + 2.0 * total)
    allowance = n * _ULPS_PER_FACTOR * envelope
    rounding = 6 * _ULP * value + 2 * h * _ULP * (abs(total) + allowance) + samples * n * 2.0**-1074
    if tail + rounding > target:
        raise ToleranceError(f"certified error {tail + rounding} exceeds target {target}")
    return QuadratureResult(value, rounding, tail, R, mode, samples)


def _compare(quad: QuadratureResult, exact: Fraction) -> CrosscheckReport:
    """Check an estimate against an exact coefficient q: |value - q*pi| within the bound."""
    exact_value = float(exact) * math.pi
    difference = abs(quad.value - exact_value)
    # 4 ulps for float(q), math.pi and their product; subtracting two nearby doubles is exact
    passed = difference <= quad.total_error_bound + 4 * _ULP * exact_value
    return CrosscheckReport(quad, exact, exact_value, difference, passed)


def crosscheck(freqs: FrequencyList, target_abs_error: float) -> CrosscheckReport:
    """Compare the numeric estimate against the exact engine value."""
    return _compare(quadrature_estimate(freqs, target_abs_error), integral_coefficient(freqs).coefficient)
