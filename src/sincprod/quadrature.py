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
  (k w_j mod M). Grouping every k != 0 as r + m M over m in Z, the residue r
  collects f(r h) times the weight x^n sum_{m in Z} (x + m)^-n, x = r/M,
  and the term of r equals the term of M - r. So sum_{k >= 1} f(k h) is the
  sum over r = 1..M/2 of those terms, where r = M/2 (M even) has weight
  1/2: floor(M/2) samples, no truncation, no discretization.
* direct - h just below 2 pi / omega and 1 <= k <= K. Since
  |f(x)| <= 1 / (prod_j a_j |x|^n), the samples past K add at most
  tail_bound(freqs, K h). K samples.

Cotangent weight: differentiating Euler's pi cot(pi x) = sum_m 1/(x + m)
n - 1 times gives sum_m (x + m)^-n = pi^n P_{n-1}(cot pi x) / (n-1)!
with P_0 = c and P_{k+1} = (1 + c^2) P_k', whose coefficients a_j are
nonnegative integers (the derivative polynomials of M. E. Hoffman, Amer.
Math. Monthly 102, 1995). With u = pi x in (0, pi/2] and t = u cot u in
[0, 1], the weight of residue r is

    W_n(u) = sum_j a_j t^j u^(n-j) / (n-1)!,

a sum of nonnegative terms, each at most W_n <= pi^2/4, that never cancels
and is evaluated by Horner's rule in t. The cost rule takes periodic mode
only for n <= 40: as prod_j a_j >= 2^-1074, K <= c W 2^(1074/(n(n-1))) /
(2 pi) + 1 with c = (4/((n-1) target))^(1/(n-1)), below floor(M/2) >= W/2
for every n > 40. So every nonzero coefficient lies in [1/39!, 2e5].

For n = 2, w_1 + w_2 = M - 1 turns sin(2u w_1) sin(2u w_2) into
sin(u)^2 - sin(pi r (w_1 - w_2) / M)^2, so the pair term is
(1 - rho^2) / (4 w_1 w_2) with rho = sin(pi k / M) / sin(u) and
k = r (w_1 - w_2) reduced into [-M/2, M/2]: two sines per sample.

Certificate: total_error_bound = tail bound (0 in periodic mode) + rounding
bound. math.fsum rounds the sample sum once, and h * (1 + 2 sum) costs at
most 6 ulps of the value. Each of the n factors of a sample is within
_ULPS_PER_FACTOR = 64 ulps of its envelope min(1, 1/(a_j k h)), times
max(1, a_1 k h) in direct mode, where arguments round in proportion to
their size. In ulps of that envelope: argument rounding 6 pi < 19 after the
exact reduction (6 in direct mode); sin 2 (libm's math.sin; 0.5 measured);
quotient and running product 2; in periodic mode W_n, whose arguments u =
r pi/M and pi/2 - u = (M - 2r) pi/(2M) are within 3 ulps, so that tan (2
ulps, below 1 measured against mpmath) on [0, pi/4], where its condition
number is at most pi/2, leaves t = u / tan(u) or u tan(pi/2 - u) within 11,
and each term of W_n, with its coefficient, powers and Horner steps, within
13n + 3; with the product by W_n that is at most 15 a factor. That is 38
ulps (10 in direct mode), so 26 of the 64 are slack. The pair term takes
sin at arguments in [-pi/2, pi/2], so rho is within 11 ulps and each term
within 26 ulps of its envelope (1 + rho^2) / (4 w_1 w_2), far inside its
128. The slack absorbs the rounding of the envelope sum itself: each of its
K terms (K = floor(M/2) in periodic mode) is within 18n + 4 ulps, the pair
envelope of a block, 2 N / (4 w_1 w_2) minus the sum of its N terms, within
N + 31, and the sum, left to right across blocks, adds a relative (K - 1)
2^-53 <= 2.3e-10 at MAX_SAMPLES, as any order of summation does, far below
26/64 for any n below 10^14. Hence rounding bound = 6 ulps of the value +
2 h (ulp of the sum + n * 64 ulps of the envelope sum + 8n 2^-1074 per
sample for underflow: at most 4n + 2 roundings of a sample can underflow,
each losing at most 2^-1075 before a factor of at most W_n <= pi^2/4).

Both costs are Python numbers (M can exceed 10^400), compared before any
sample is taken; past MAX_SAMPLES the oracle raises ToleranceError naming
the cost. Every sample is taken in Python ints and floats, so the oracle
needs nothing outside the standard library. Either mode takes its samples
in blocks of _BLOCK = 2^14 and streams every block's terms into one
math.fsum, which rounds once whatever the split, so the value does not
depend on the block size and memory holds a block, not all the samples.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .core import FrequencyList
from .engine import _integer_weights, integral_coefficient
from .errors import ToleranceError, ValidationError

__all__ = [
    "tail_bound",
    "quadrature_estimate",
    "crosscheck",
    "QuadratureResult",
    "CrosscheckReport",
]

MIN_TARGET = 1e-12
# In a fresh process on a 2-core Xeon with CPython 3.11, imports included, each peaking near 15 MB: the pair
# 1, 1/1000003 at 1e-6 (500 002 periodic samples) takes about 0.2 s, 1, 1/3999997 (2e6 samples) 0.6 to 0.9 s,
# 1, 1, 1/1000003 at 1e-7 (1e6 periodic samples of three factors) 1.8 s and 1, 1, 1/2000003 at 3e-7
# (1.16e6 direct samples) 0.5 s. Memory stays one block's worth.
MAX_SAMPLES = 2_000_000
# Samples per block, all streamed into one math.fsum. At most two blocks' terms are alive, about 32 traced
# bytes a sample, so the oracle peaks near 1 MiB whatever M or K is (a 100 004-sample pair at once: 3.1 MiB).
_BLOCK = 2**14
_ULP = 2.0**-53
_ULPS_PER_FACTOR = 64


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
    samples: int  # floor(M/2) or K

    @property
    def total_error_bound(self) -> float:
        return self.tail_bound + self.rounding_bound


class CrosscheckReport(NamedTuple):
    quadrature: QuadratureResult
    exact_coefficient: Fraction
    exact_value: float
    difference: float
    passed: bool


def _derivative_polynomial(k: int) -> list[int]:
    """Coefficients of P_k, lowest degree first: P_0 = c and P_{k+1} = (1 + c^2) P_k'."""
    p = [0, 1]
    for _ in range(k):
        derivative = [j * a for j, a in enumerate(p)][1:]
        p = [x + y for x, y in zip(derivative + [0, 0], [0, 0] + derivative)]
    return p


def _cotangent_weight(r: int, M: int, coefficients: list[float]) -> float:
    """W_n(u) at u = pi r / M in (0, pi/2], from the coefficients a_j / (n-1)! for j = n down to 0."""
    step = math.pi / M
    u = r * step
    t = u / math.tan(u) if 4 * r <= M else u * math.tan((M - 2 * r) * step / 2)  # cot u = tan(pi/2 - u)
    weight, power = coefficients[0], 1.0
    for c in coefficients[1:]:
        power *= u
        weight = weight * t + c * power
    return weight


def _periodic_samples(weights: list[int], M: int, start: int, stop: int) -> tuple[list[float], float]:
    """f(r h) W_n(pi r / M) for r = start..stop-1 <= M/2, h = 2 pi L / M, and the sum of their envelope times W_n."""
    n = len(weights)
    coefficients = [a / math.factorial(n - 1) for a in reversed(_derivative_polynomial(n - 1))]
    two_pi_over_m, sin = 2 * math.pi / M, math.sin
    terms, envelope = [], 0.0
    for r in range(start, stop):
        term = bound = 1.0
        for w in weights:
            d = r * w * two_pi_over_m  # a_j r h, unreduced
            term *= sin(r * w % M * two_pi_over_m) / d
            bound *= 1.0 / d if d > 1.0 else 1.0
        weight = _cotangent_weight(r, M, coefficients)
        terms.append(term * weight)
        envelope += bound * weight
    return terms, envelope


def _pair_samples(weights: list[int], M: int, start: int, stop: int) -> tuple[list[float], float]:
    """The terms of _periodic_samples for n = 2 by the pair identity, and the sum of (1 + rho^2) / (4 w_1 w_2)."""
    w1, w2 = weights
    d, half, step, scale, sin = (w1 - w2) % M, M // 2, math.pi / M, 1 / (4 * w1 * w2), math.sin
    # rho = sin(pi k / M) / sin(pi r / M), k = r (w_1 - w_2) reduced into [-M/2, M/2]
    terms = [
        (1.0 - (rho := sin(((r * d + half) % M - half) * step) / sin(r * step)) * rho) * scale
        for r in range(start, stop)
    ]
    return terms, 2 * scale * len(terms) - sum(terms)


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

    cost = min(M // 2, K)
    if cost > MAX_SAMPLES:
        raise ToleranceError(
            f"the oracle needs about 10^{math.log10(cost):.1f} samples (the cheaper of "
            f"periodic M // 2 and direct K), over its budget of {MAX_SAMPLES}"
        )
    if target >= math.pi / a_floats[0]:
        raise ToleranceError(f"target {target} is not below pi/a_1 = {math.pi / a_floats[0]:.6g}, the value's own size")
    mode, samples = ("periodic", M // 2) if M // 2 <= K else ("direct", K)
    if mode == "periodic":
        R = _as_double(2 * L * pi_num, pi_den, "one period 2*pi*lcm of the denominators")
        h = R / M
        periodic_samples = _pair_samples if n == 2 else _periodic_samples

        def block(start, stop):
            terms, envelope = periodic_samples(weights, M, start, stop)
            if 2 * stop == M + 2:  # r = M/2 is its own mirror image M - r: weight 1/2, envelope kept whole
                terms[-1] *= 0.5
            return terms, envelope

        tail = 0.0
    else:
        R = K * h

        def block(start, stop):
            return _direct_samples(a_floats, h, stop - 1, start)

        tail = _tail_bound(n, prod_num, prod_den, R)

    total, envelope = _sum_in_blocks(block, samples)
    value = h * (1.0 + 2.0 * total)
    allowance = n * _ULPS_PER_FACTOR * envelope
    rounding = 6 * _ULP * value + 2 * h * (_ULP * (abs(total) + allowance) + samples * 8 * n * 2.0**-1074)
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
