"""Floating-point verification oracle for the exact engine.

Integrates prod_j sinc(a_j x) over a finite window [-R, R] and pairs the
estimate with a rigorous truncation bound, so an exact coefficient q can be
checked against |numeric - q*pi| <= total_error_bound.

The truncation side is easy: |prod sinc(a_j x)| <= 1/(prod_j a_j |x|^n)
integrates to the closed-form tail bound. The discretization side has one
hard regime: for n = 2 the tail only decays like 1/R, so meeting a 1e-8
budget forces R around 1e9 while panels must stay at the oscillation scale.
Evaluating billions of panels pointwise is hopeless, but the frequencies
are rational, so the sine product T(x) = prod_j sin(a_j x) is periodic and
the composite midpoint sum over the whole far field collapses to one period
of T weighted by Hurwitz-zeta differences. That closed form is exactly the
midpoint-rule value, just summed in a different order.

Panel layout: a near field [0, X0] of Gauss-Legendre panels refined under a
split-in-half error estimator, then a uniform midpoint far field [X0, R]
whose width is halved until a doubling comparison plus an Euler-Maclaurin
boundary bound meets its budget. All widths start at or below the quarter
period of the fastest factor. Evenness of the integrand halves the work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import zeta as _hurwitz_zeta

from .core import FrequencyList
from .engine import integral_coefficient
from .errors import ToleranceError, ValidationError

__all__ = [
    "tail_bound",
    "quadrature_estimate",
    "crosscheck",
    "QuadratureResult",
    "CrosscheckReport",
]

MIN_TARGET = 1e-12
_TAYLOR_CUTOFF = 1e-4  # below this, sin(t)/t loses digits; the quartic Taylor row is exact to ~1e-28

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)

_PERIODIC_MAX_POINTS = 8_000_000
_DIRECT_MAX_POINTS = 25_000_000


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
    out = np.ones_like(xs)
    ax = np.abs(xs)
    for a in a_floats:
        t = a * ax
        small = t < _TAYLOR_CUTOFF
        safe = np.where(small, 1.0, t)
        out *= np.where(small, 1.0 - t * t / 6.0 + t**4 / 120.0, np.sin(t) / safe)
    return out


def tail_bound(freqs: FrequencyList, R: float) -> float:
    """Upper bound on |integral over |x| > R|: 2 / ((n-1) R^(n-1) prod a_j)."""
    if freqs.n < 2:
        raise ValidationError(
            "tail bound diverges for a single factor; that integral is only "
            "conditionally convergent and is covered by the exact engine"
        )
    if not (R > 0):
        raise ValidationError(f"window edge must be positive, got {R}")
    n = freqs.n
    return 2.0 / ((n - 1) * R ** (n - 1) * _as_double(freqs.product(), "the frequency product"))


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    discretization_error_estimate: float
    tail_bound: float
    R: float

    @property
    def total_error_bound(self) -> float:
        return self.tail_bound + self.discretization_error_estimate


@dataclass(frozen=True)
class CrosscheckReport:
    quadrature: QuadratureResult
    exact_coefficient: Fraction
    exact_value: float
    difference: float
    passed: bool


def _gl_panels(a_floats: list[float], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """10-point Gauss-Legendre value of each panel [lo_i, hi_i]."""
    out = np.empty_like(lo)
    step = 200_000  # keep the (panels x nodes) scratch arrays modest
    for start in range(0, lo.size, step):
        sl = slice(start, min(start + step, lo.size))
        mid = 0.5 * (lo[sl] + hi[sl])
        half = 0.5 * (hi[sl] - lo[sl])
        xs = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        out[sl] = (_integrand_grid(a_floats, xs) @ _GL_WEIGHTS) * half
    return out


def _near_field(
    a_floats: list[float], x_hi: float, width: float, budget: float
) -> tuple[float, float]:
    """Adaptive panels on [0, x_hi]; estimator compares a panel to its halves."""
    count = max(1, math.ceil(x_hi / width))
    edges = np.linspace(0.0, x_hi, count + 1)
    lo, hi = edges[:-1], edges[1:]
    for _ in range(48):
        coarse = _gl_panels(a_floats, lo, hi)
        mid = 0.5 * (lo + hi)
        fine = _gl_panels(a_floats, lo, mid) + _gl_panels(a_floats, mid, hi)
        err = np.abs(coarse - fine)
        total_err = float(err.sum())
        if total_err <= budget:
            return float(fine.sum()), total_err
        bad = err > budget * (hi - lo) / x_hi  # panels over their width-share
        lo = np.concatenate([lo[~bad], lo[bad], mid[bad]])
        hi = np.concatenate([hi[~bad], mid[bad], hi[bad]])
    raise ToleranceError("near-field refinement did not converge to the requested budget")


def _edge_derivative_bound(prod_a: float, n: int, omega: float, x: float) -> float:
    # |f'(x)| <= amp(x) (omega + n/x) with amp(x) = min(1, 1/(prod_a x^n))
    amp = min(1.0, 1.0 / (prod_a * x**n))
    return amp * (omega + n / x)


def _periodic_midpoint(
    a_floats: list[float],
    prod_a: float,
    n: int,
    x_lo: float,
    periods: int,
    period: float,
    points: int,
) -> float:
    """Composite midpoint over [x_lo, x_lo + periods*period], in closed form.

    T(x) = prod sin(a_j x) repeats every period, so the sum over all panels
    groups by position within the period and the 1/x^n weights telescope
    into Hurwitz-zeta differences. Equal to the plain midpoint sum up to
    floating-point associativity.
    """
    w = period / points
    t = x_lo + (np.arange(points) + 0.5) * w
    trig = np.ones_like(t)
    for a in a_floats:
        trig *= np.sin(a * t)
    q = t / period
    weights = _hurwitz_zeta(n, q) - _hurwitz_zeta(n, q + periods)
    return w * float(np.dot(trig, weights)) / (prod_a * period**n)


def _direct_midpoint(a_floats: list[float], x_lo: float, x_hi: float, count: int) -> float:
    w = (x_hi - x_lo) / count
    total = 0.0
    step = 2_000_000
    for start in range(0, count, step):
        idx = np.arange(start, min(start + step, count), dtype=np.float64)
        total += float(_integrand_grid(a_floats, x_lo + (idx + 0.5) * w).sum())
    return w * total


def _far_field(
    a_floats: list[float],
    prod_a: float,
    n: int,
    omega: float,
    x_lo: float,
    r_needed: float,
    width: float,
    denominator_lcm: int,
    budget: float,
) -> tuple[float, float, float]:
    """Midpoint rule on [x_lo, R], width halved until certified.

    Returns (value, error estimate, R actually covered). R may grow past
    r_needed to complete a whole number of periods; the tail bound only
    shrinks. The estimate combines a halving comparison with first
    Euler-Maclaurin boundary terms (midpoint error is boundary-driven once
    panels resolve the oscillation), doubled for neglected higher terms.
    """
    try:
        period = 2.0 * math.pi * denominator_lcm
    except OverflowError:  # a period past double range is never inside the window
        period = math.inf
    periodic = period <= (r_needed - x_lo)
    if periodic:
        points = math.ceil(period / width)
        periods = math.ceil((r_needed - x_lo) / period)
        x_hi = x_lo + periods * period
        if points > _PERIODIC_MAX_POINTS:
            raise ToleranceError(
                f"far field needs {points} points per period; tolerance unreachable"
            )
    else:
        span = (r_needed - x_lo) / width
        x_hi = r_needed
        if not span <= _DIRECT_MAX_POINTS:  # compared before ceil, which fails on inf
            raise ToleranceError(
                f"far field needs {span:.3g} midpoint panels; tolerance unreachable"
            )
        points = math.ceil(span)

    def rule(k: int) -> float:
        if periodic:
            return _periodic_midpoint(a_floats, prod_a, n, x_lo, periods, period, k)
        return _direct_midpoint(a_floats, x_lo, x_hi, k)

    previous = rule(points)
    cap = _PERIODIC_MAX_POINTS if periodic else _DIRECT_MAX_POINTS
    while True:
        points *= 2
        if points > cap:
            raise ToleranceError("far-field refinement did not converge; tolerance unreachable")
        current = rule(points)
        w = (period / points) if periodic else ((x_hi - x_lo) / points)
        em = (
            2.0
            * (w * w / 24.0)
            * (
                _edge_derivative_bound(prod_a, n, omega, x_lo)
                + _edge_derivative_bound(prod_a, n, omega, x_hi)
            )
        )
        estimate = abs(current - previous) + em
        if estimate <= budget:
            return current, estimate, x_hi
        previous = current


def quadrature_estimate(freqs: FrequencyList, target_abs_error: float) -> QuadratureResult:
    """Estimate the integral with total_error_bound <= target_abs_error.

    The budget is split evenly: R is chosen so the tail bound uses at most
    half the target, and panel refinement must certify the other half.
    Rejected: n = 1 (divergent tail bound) and targets below 1e-12 (double
    precision cannot certify them against values of order pi).
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
    omega = sum(a_floats)
    disc_budget = target / 2.0
    # push the near/far boundary out until midpoint edge effects are small
    edge_goal = disc_budget / 20.0
    try:
        r_needed = (4.0 / ((n - 1) * prod_a * target)) ** (1.0 / (n - 1)) * (1.0 + 1e-9)
        width = min(math.pi / (2.0 * a_floats[0]), 2.0 * math.pi / (3.0 * omega))
        x0 = (width**2 * (omega + 1.0) / (24.0 * prod_a * edge_goal)) ** (1.0 / n)
        x0 = min(max(x0, 32.0 * width), r_needed)
        near_panels = math.ceil(x0 / width)
    except (OverflowError, ZeroDivisionError, ValueError):  # ceil of inf or nan
        r_needed = math.inf
    if math.isinf(r_needed):
        raise ToleranceError(
            "the quadrature window for these frequencies lies outside double-precision range"
        )
    if near_panels > _DIRECT_MAX_POINTS:
        raise ToleranceError(f"near field needs {near_panels} panels; tolerance unreachable")
    x0 = near_panels * width

    near_value, near_est = _near_field(a_floats, x0, width, 0.4 * disc_budget)

    if x0 >= r_needed:
        far_value, far_est, r_final = 0.0, 0.0, x0
    else:
        scale = math.lcm(*(a.denominator for a in freqs.sorted_entries))
        far_value, far_est, r_final = _far_field(
            a_floats, prod_a, n, omega, x0, r_needed, width, scale, 0.4 * disc_budget
        )

    value = 2.0 * (near_value + far_value)
    discretization = near_est + far_est
    tail = tail_bound(freqs, r_final)
    if tail + discretization > target:
        raise ToleranceError(
            f"certified error {tail + discretization} exceeds target {target}"
        )
    return QuadratureResult(value, discretization, tail, r_final)


def crosscheck(freqs: FrequencyList, target_abs_error: float) -> CrosscheckReport:
    """Compare the numeric estimate against the exact engine value."""
    quad = quadrature_estimate(freqs, target_abs_error)
    exact = integral_coefficient(freqs).coefficient
    exact_value = float(exact) * math.pi
    difference = abs(quad.value - exact_value)
    return CrosscheckReport(quad, exact, exact_value, difference, difference <= quad.total_error_bound)
