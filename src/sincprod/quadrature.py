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
their size. The 64 ulps cover argument rounding (6 pi ulps after the exact
reduction, 6 in direct mode), sin (numpy's or libm's math.sin, each taken
as 2 ulps, 0.5 measured), quotient and product, and in periodic mode the
Hurwitz zeta kernel on [1, 2] (taken as 16 ulps: truncation below 0.35 ulp,
proven below, and rounding below 2.9 ulps measured against mpmath, with
numpy's power and with float ** alike) with its argument and power. So
rounding bound = 2 h (ulp of the sum + n * 64 ulps of the envelope sum)
+ 6 ulps of the value + n * 2^-1074 per sample for underflow.

Both costs are Python numbers (M can exceed 10^400), compared before any
array exists; past MAX_SAMPLES the oracle raises ToleranceError naming
the cost. Up to SCALAR_FACTORS sample factors (n times the sample count)
the samples are taken one at a time in Python ints and floats and numpy is
never imported; larger sets go through numpy arrays. The choice depends on
the input alone. Each scalar loop computes its array twin's expressions in
the same order, so the accounting above covers both: they differ only in
whose sin and power run, and in periodic mode the scalar loop reduces
k w_j mod M in Python ints, the array loop in int64 (below 2^42 within
MAX_SAMPLES).

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
# about one second and 100 MB of arrays; 1, 1/1000003 (M = 1000005) fits
MAX_SAMPLES = 2_000_000
# Up to this many sample factors (n * samples) the scalar loops run and numpy is never
# imported. On a 2-core Xeon with CPython 3.11 they cost about 1.9 us a factor in periodic
# mode (a 6917-sample pair: 26 ms, against 1.3 ms in numpy) and 0.3 us in direct mode, so
# 10000 factors stay near 20 ms, well under the 0.14 s that importing numpy costs a fresh
# process.
SCALAR_FACTORS = 10_000
_ULP = 2.0**-53
_ULPS_PER_FACTOR = 64
_ZETA_DIRECT_TERMS = 9
# B_2j / (2j)! for j = 1..8, the Euler-Maclaurin coefficients of the zeta kernel
_ZETA_EM_COEFFICIENTS = tuple(
    float(Fraction(b) / math.factorial(2 * j))
    for j, b in enumerate(("1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730", "7/6", "-3617/510"), 1)
)


def _as_double(value: Fraction, what: str) -> float:
    """float(value), refusing values that double precision turns into 0 or inf."""
    try:
        result = float(value)
    except OverflowError:
        result = math.inf
    if result == 0.0 or math.isinf(result):
        exponent = round((value.numerator.bit_length() - value.denominator.bit_length()) * math.log10(2))
        raise ToleranceError(
            f"{what} is about 1e{exponent}, outside double-precision range; "
            "the quadrature oracle cannot evaluate it"
        )
    return result


def _integrand_grid(a_floats: list[float], xs: np.ndarray) -> np.ndarray:
    """prod_j sinc(a_j x) at every x; exactly even because only |x| is used."""
    import numpy as np

    out = np.ones_like(xs)
    for a in a_floats:
        t = a * np.abs(xs)
        out *= np.where(t > 0, np.sin(t), 1.0) / np.where(t > 0, t, 1.0)  # sinc(0) = 1
    return out


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
    _as_double(freqs.product(), "the frequency product")  # refused as quadrature_estimate refuses it
    if R == math.inf:
        return 0.0
    # exact, then rounded up once: R^(n-1) and the product may leave double range on their own
    exact = 2 / ((freqs.n - 1) * Fraction(R) ** (freqs.n - 1) * freqs.product())
    try:
        bound = float(exact)
    except OverflowError:
        return math.inf
    return bound if Fraction(bound) >= exact else math.nextafter(bound, math.inf)


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


def _periodic_samples(weights: list[int], M: int) -> tuple[list[float], float]:
    """f(r h) z_r for r = 1..M-1, with h = 2 pi L / M, and the sum of their envelope."""
    import numpy as np

    r = np.arange(1, M, dtype=np.int64)
    terms = np.ones(M - 1)
    envelope = np.ones(M - 1)
    for w in weights:
        d = (r * w) / M * (2 * math.pi)  # a_j r h, unreduced
        terms *= np.sin((r * w % M) / M * (2 * math.pi)) / d
        envelope *= np.minimum(1.0, 1.0 / d)
    x = r / M
    z = 1.0 + x ** len(weights) * _hurwitz_zeta(len(weights), 1.0 + x)
    return (terms * z).tolist(), float((envelope * z).sum())


def _periodic_scalar(weights: list[int], M: int) -> tuple[list[float], float]:
    """_periodic_samples one r at a time, expression by expression, in Python ints and floats."""
    n, sin, two_pi = len(weights), math.sin, 2 * math.pi
    terms, envelope = [], 0.0
    for r in range(1, M):
        term = bound = 1.0
        for w in weights:
            d = (r * w) / M * two_pi
            term *= sin((r * w % M) / M * two_pi) / d
            bound *= 1.0 / d if d > 1.0 else 1.0  # min(1, 1/d); a call to min costs more than the rest
        x = r / M
        z = 1.0 + x**n * _hurwitz_zeta(n, 1.0 + x)
        terms.append(term * z)
        envelope += bound * z
    return terms, envelope


def _direct_samples(a_floats: list[float], h: float, K: int) -> tuple[list[float], float]:
    """f(k h) for k = 1..K and the sum of their envelope; a_floats is non-increasing."""
    import numpy as np

    xs = np.arange(1, K + 1) * h
    envelope = np.ones(K)
    for a in a_floats[1:]:
        envelope *= np.minimum(1.0, 1.0 / (a * xs))
    return _integrand_grid(a_floats, xs).tolist(), float(envelope.sum())


def _direct_scalar(a_floats: list[float], h: float, K: int) -> tuple[list[float], float]:
    """_direct_samples one k at a time, expression by expression, in Python floats."""
    sin, first, rest = math.sin, a_floats[0], a_floats[1:]
    terms, envelope = [], 0.0
    for k in range(1, K + 1):
        x = k * h
        t = first * x
        term, bound = sin(t) / t, 1.0  # 1.0 * sin(t) / t, exactly
        for a in rest:
            t = a * x
            term *= sin(t) / t
            bound *= 1.0 / t if t > 1.0 else 1.0  # min(1, 1/t), as in _periodic_scalar
        terms.append(term)
        envelope += bound
    return terms, envelope


def quadrature_estimate(freqs: FrequencyList, target_abs_error: float) -> QuadratureResult:
    """The integral by the sampling theorem, with total_error_bound <= target_abs_error.

    Direct mode spends half the target on the tail. Rejected: n = 1 (the
    sampling theorem and the tail bound need n >= 2), targets below 1e-12
    (double precision cannot certify them against values of order pi), and
    inputs whose cheaper mode needs more than MAX_SAMPLES samples.
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

    a_floats = [_as_double(a, "a frequency") for a in freqs.sorted_entries]
    prod_a = _as_double(freqs.product(), "the frequency product")
    omega = sum(freqs.sorted_entries)
    # float(2*pi_double/omega) rounds once, and pi_double < pi; the factor keeps h below 2*pi/omega
    h = _as_double(2 * Fraction(math.pi) / omega, "the sampling step 2*pi/omega") * (1 - 2.0**-50)
    log_k = (math.log10(4 / ((n - 1) * target)) - math.log10(prod_a)) / (n - 1) - math.log10(h)
    K = math.floor(10**log_k) + 1 if log_k < 18 else math.inf  # tail_bound(freqs, K*h) <= target/2
    weights, L = _integer_weights(freqs)
    M = sum(weights) + 1

    cost = min(M - 1, K)
    if cost > MAX_SAMPLES:
        raise ToleranceError(
            f"the oracle needs about 10^{math.log10(cost):.1f} samples (the cheaper of "
            f"periodic M - 1 and direct K), over its budget of {MAX_SAMPLES}"
        )
    mode, samples = ("periodic", M - 1) if M - 1 <= K else ("direct", K)
    scalar = n * samples <= SCALAR_FACTORS  # decided by the input alone
    if mode == "periodic":
        R = _as_double(2 * L * Fraction(math.pi), "one period 2*pi*lcm of the denominators")
        h = R / M
        terms, envelope = (_periodic_scalar if scalar else _periodic_samples)(weights, M)
        tail = 0.0
    else:
        R = K * h
        terms, envelope = (_direct_scalar if scalar else _direct_samples)(a_floats, h, K)
        tail = tail_bound(freqs, R)

    total = math.fsum(terms)
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
