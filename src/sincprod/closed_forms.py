"""Closed-form values for dominant-frequency configurations.

Two families of exact shortcuts exist, both stated for the frequencies in
non-increasing order a_1 >= a_2 >= ... >= a_n:

* First frequency dominant, a_1 > a_2 + ... + a_n: the integral is pi/a_1.
  Just past that regime (a_1 still beats the first n-2 of the others but
  loses to all n-1 together) a single sign pattern flips side and the value
  picks up one explicitly computable correction term.
* First three frequencies dominant, a_2 + a_3 - a_1 > a_4 + ... + a_n: the
  sign of every signed frequency sum is decided by the first three signs,
  and the integral is a quadratic form in the frequencies over 12 a_1 a_2 a_3.
  Its a_1 = a_2 case ("equal pair") and its n = 3 case (the classical
  three-factor value) are kept as identities.

Each defining inequality is built by one helper, which both
`classify_dominance` (recording it with exact sides) and the hypothesis of
every formula use. One table maps each provenance name to its formula:
`evaluate` takes the row its classification routes to, and
`closed_form_values` returns every row whose hypothesis holds, which the
CLI's `verify` compares. Every closed form is verified against the
enumeration engine in the test suite; `evaluate` re-checks at runtime
for small n, and checks every value it returns against the proven bound
0 < q <= 1/a_1. The formulas themselves are not in `__all__`: import them
from this module by name.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .core import FrequencyList, PiMultiple, frequency_list
from .engine import _check_bound, integral_coefficient
from .errors import ApplicabilityError, ValidationError, VerificationError

__all__ = [
    "DominanceTag",
    "InequalityCheck",
    "DominanceClass",
    "Evaluation",
    "classical_frequencies",
    "classify_dominance",
    "closed_form_values",
    "evaluate",
]

VERIFY_LIMIT = 20  # closed forms are re-checked against the engine up to here


class DominanceTag(Enum):
    FIRST_DOMINANT = "first-dominant"
    FIRST_DOMINANT_BOUNDARY = "first-dominant-boundary"
    THREE_DOMINANT = "three-dominant"
    NONE = "none"


class InequalityCheck(NamedTuple):
    """One strict comparison lhs > rhs with both sides kept exact."""

    label: str
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs > self.rhs

    @property
    def tie(self) -> bool:
        return self.lhs == self.rhs

    def __str__(self) -> str:
        rel = ">" if self.holds else ("=" if self.tie else "<")
        return f"{self.label}: {self.lhs} {rel} {self.rhs}"


class DominanceClass(NamedTuple):
    tag: DominanceTag
    dominated_count: Optional[int]  # N for the boundary class, else None
    boundary_flags: tuple[str, ...]  # labels of comparisons that tied exactly
    checks: tuple[InequalityCheck, ...]


def classical_frequencies(n: int) -> FrequencyList:
    """The textbook family 1, 1/3, 1/5, ..., 1/(2n-1)."""
    if n < 1:
        raise ValidationError(f"need at least one frequency, got n = {n}")
    return frequency_list([Fraction(1, 2 * j - 1) for j in range(1, n + 1)])


def _first_dominance(a: tuple[Fraction, ...]) -> InequalityCheck:
    return InequalityCheck("a1 > a2 + ... + an", a[0], sum(a[1:], start=Fraction(0)))


def _boundary_pair(a: tuple[Fraction, ...]) -> tuple[InequalityCheck, InequalityCheck]:
    """a1 beats the first n-2 of the others, but not all n-1 together."""
    head = sum(a[1:-1], start=Fraction(0))
    return (
        InequalityCheck("a1 > a2 + ... + a(n-1)", a[0], head),
        InequalityCheck("a2 + ... + an > a1", head + a[-1], a[0]),
    )


def _three_dominance(a: tuple[Fraction, ...]) -> InequalityCheck:
    return InequalityCheck(
        "a2 + a3 - a1 > a4 + ... + an", a[1] + a[2] - a[0], sum(a[3:], start=Fraction(0))
    )


def classify_dominance(freqs: FrequencyList) -> DominanceClass:
    """Decide which closed-form regime the sorted frequencies fall in.

    Classes are tried in order: first dominant, first dominant boundary,
    three dominant. Every defining inequality must hold strictly; a
    comparison that lands on exact equality fails its class, is recorded
    in boundary_flags, and later classes are still considered. When no
    class holds the tag is NONE and only the engine applies.
    """
    a = freqs.sorted_entries
    checks = [_first_dominance(a)]
    if checks[0].holds:
        tag = DominanceTag.FIRST_DOMINANT
    elif freqs.n < 3:
        tag = DominanceTag.NONE
    else:
        lower, upper = _boundary_pair(a)
        checks += [lower, upper]
        if lower.holds and upper.holds:
            tag = DominanceTag.FIRST_DOMINANT_BOUNDARY
        else:
            three = _three_dominance(a)
            checks.append(three)
            tag = DominanceTag.THREE_DOMINANT if three.holds else DominanceTag.NONE
    return DominanceClass(
        tag,
        freqs.n - 1 if tag is DominanceTag.FIRST_DOMINANT_BOUNDARY else None,
        tuple(c.label for c in checks if c.tie),
        tuple(checks),
    )


def _require(condition: bool, description: str) -> None:
    if not condition:
        raise ApplicabilityError(description)


def _require_check(check: InequalityCheck, allow_tie: bool = False) -> None:
    _require(check.holds or (allow_tie and check.tie), f"hypothesis fails: {check}")


def first_dominant_value(freqs: FrequencyList) -> PiMultiple:
    """pi/a_1 when the largest frequency strictly dominates all the others."""
    a = freqs.sorted_entries
    _require_check(_first_dominance(a))
    return PiMultiple(1 / a[0])


def first_dominant_correction(freqs: FrequencyList) -> PiMultiple:
    """pi/a_1 minus the single-pattern correction, exact at the boundary.

    Just past first dominance, the flipped sign pattern (+1, -1, ..., -1)
    is the one sign vector on the wrong side. Its signed sum is -g, where
    g = (a_2 + ... + a_n) - a_1 > 0 is the gap of the boundary check, and

    coefficient = 1/a_1 - g^N / (2^(N-1) N! prod_j a_j),  N = n - 1.
    """
    _require(freqs.n >= 3, f"correction needs n >= 3, got n = {freqs.n}")
    lower, upper = _boundary_pair(freqs.sorted_entries)
    # The formula needs the flipped pattern to be the single sign vector on
    # the wrong side. That holds with the lower inequality relaxed to >=:
    # an exact tie there only creates zero sums, which never contribute.
    _require_check(lower, allow_tie=True)
    _require_check(upper)
    N = freqs.n - 1
    correction = (upper.lhs - upper.rhs) ** N / (2 ** (N - 1) * math.factorial(N) * freqs.product())
    return PiMultiple(1 / freqs.sorted_entries[0] - correction)


def _three_dominant_hypothesis(freqs: FrequencyList) -> None:
    _require(freqs.n >= 3, f"three-dominant form needs n >= 3, got n = {freqs.n}")
    _require_check(_three_dominance(freqs.sorted_entries))


def three_dominant_value(freqs: FrequencyList) -> PiMultiple:
    """Quadratic-form value when the three largest frequencies dominate.

    coefficient = (-sum_k a_k^2 - 2(a_1^2 + a_2^2 + a_3^2)
                   + 6(a_1 a_2 + a_2 a_3 + a_1 a_3)) / (12 a_1 a_2 a_3)
    """
    _three_dominant_hypothesis(freqs)
    a = freqs.sorted_entries
    all_sq = sum((x * x for x in a), start=Fraction(0))
    top_sq = a[0] ** 2 + a[1] ** 2 + a[2] ** 2
    cross = a[0] * a[1] + a[1] * a[2] + a[0] * a[2]
    return PiMultiple((-all_sq - 2 * top_sq + 6 * cross) / (12 * a[0] * a[1] * a[2]))


def three_dominant_equal_first_two(freqs: FrequencyList) -> PiMultiple:
    """Simplified three-dominant form for a_1 = a_2.

    coefficient = 1/a_1 - a_3/(4 a_1^2) - (1/(12 a_3 a_1^2)) sum_{k>=4} a_k^2
    """
    _three_dominant_hypothesis(freqs)
    a = freqs.sorted_entries
    _require(a[0] == a[1], f"equal-pair form needs a1 = a2, got {a[0]} != {a[1]}")
    tail_sq = sum((x * x for x in a[3:]), start=Fraction(0))
    return PiMultiple(1 / a[0] - a[2] / (4 * a[0] ** 2) - tail_sq / (12 * a[2] * a[0] ** 2))


def three_frequency_value(freqs: FrequencyList) -> PiMultiple:
    """Classical three-factor value, the n = 3 case of the quadratic form.

    coefficient = (2(a_1 a_2 + a_2 a_3 + a_3 a_1) - (a_1^2 + a_2^2 + a_3^2))
                  / (4 a_1 a_2 a_3)
    """
    _require(freqs.n == 3, f"three-factor form needs n = 3, got n = {freqs.n}")
    _three_dominant_hypothesis(freqs)
    a = freqs.sorted_entries
    cross = a[0] * a[1] + a[1] * a[2] + a[2] * a[0]
    squares = a[0] ** 2 + a[1] ** 2 + a[2] ** 2
    return PiMultiple((2 * cross - squares) / (4 * a[0] * a[1] * a[2]))


class Evaluation(NamedTuple):
    value: PiMultiple
    provenance: str
    classification: DominanceClass
    verified: bool


def _table() -> dict[str, tuple[Optional[DominanceTag], Callable[[FrequencyList], PiMultiple]]]:
    """Provenance name -> (the class it is the route of, formula), in `verify` order.

    The equal-pair and three-factor identities are special cases of the
    three-dominant form; no class routes to them. Built per call, so every
    formula is looked up in this module's namespace when it is used.
    """
    first, three = DominanceTag.FIRST_DOMINANT, DominanceTag.THREE_DOMINANT
    return {
        first.value: (first, first_dominant_value),
        "first-dominant-correction": (
            DominanceTag.FIRST_DOMINANT_BOUNDARY,
            first_dominant_correction,
        ),
        three.value: (three, three_dominant_value),
        "three-dominant-equal-pair": (None, three_dominant_equal_first_two),
        "three-factor": (None, three_frequency_value),
    }


def closed_form_values(freqs: FrequencyList) -> dict[str, PiMultiple]:
    """Every closed form whose hypothesis holds, by provenance name.

    Independent of the classification: one list can meet several
    hypotheses (1, 1, 1 meets the relaxed boundary pair, the three-dominant
    form and both of its special cases), and all of them must agree.
    """
    values = {}
    for name, (_, formula) in _table().items():
        try:
            values[name] = formula(freqs)
        except ApplicabilityError:
            continue
    return values


def evaluate(freqs: FrequencyList, verify: bool = True) -> Evaluation:
    """Best available route to the exact value, with provenance.

    Takes the formula the classification routes to, falling back to the
    enumeration engine when none applies. While n <= VERIFY_LIMIT (and
    `verify` is left on) a chosen closed form is recomputed through the
    engine; any disagreement, or a value outside the proven bound
    0 < q <= 1/a_1 at any n, raises VerificationError.
    """
    classification = classify_dominance(freqs)
    routes = {tag: (name, formula) for name, (tag, formula) in _table().items() if tag is not None}
    if classification.tag not in routes:
        return Evaluation(integral_coefficient(freqs), "engine:mitm", classification, False)
    provenance, formula = routes[classification.tag]
    value = formula(freqs)

    verified = False
    if verify and freqs.n <= VERIFY_LIMIT:
        engine_value = integral_coefficient(freqs)
        if engine_value.coefficient != value.coefficient:
            raise VerificationError(
                f"{provenance} gave {value.coefficient} but the engine gave "
                f"{engine_value.coefficient} for ({freqs})"
            )
        verified = True
    _check_bound(provenance, value.coefficient, freqs)
    return Evaluation(value, provenance, classification, verified)
