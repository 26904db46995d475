"""Exact arithmetic foundation: rationals, frequency lists, pi-multiples.

All numeric state is held in `fractions.Fraction`, which already guarantees
the canonical form this package relies on: positive denominator, reduced to
lowest terms, zero represented as 0/1. Everything here is an immutable value
and safe to share between threads.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import RationalParseError, ValidationError

__all__ = [
    "parse_rational",
    "format_rational",
    "FrequencyList",
    "frequency_list",
    "load_frequency_file",
    "PiMultiple",
]

# integer, fraction with explicit denominator, or finite decimal
_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+)|\.(\d+))?$")

# CPython refuses int<->str conversions past a configurable digit limit
# (4300 by default, never below 640); longer numbers go through in pieces.
_STR_PIECE = 600
_STR_PIECE_BOUND = 10**_STR_PIECE


def _int_from_digits(text: str) -> int:
    """int(text) for a run of decimal digits (optional leading minus) of any length."""
    if len(text) <= _STR_PIECE:
        return int(text)
    if text.startswith("-"):
        return -_int_from_digits(text[1:])
    half = len(text) // 2
    return _int_from_digits(text[:-half]) * 10**half + _int_from_digits(text[-half:])


def _int_to_digits(value: int) -> str:
    """str(value) for an int of any size."""
    if -_STR_PIECE_BOUND < value < _STR_PIECE_BOUND:
        return str(value)
    if value < 0:
        return "-" + _int_to_digits(-value)
    half = value.bit_length() * 3 // 20  # about half the decimal digits
    high, low = divmod(value, 10**half)
    return _int_to_digits(high) + _int_to_digits(low).zfill(half)


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational from ``n``, ``n/d`` or a finite decimal.

    Finite decimals convert exactly (``0.2`` -> 1/5). Anything else,
    including float notation like ``1e3`` and a zero denominator, is
    rejected so exactness can never silently degrade.
    """
    cleaned = text.strip().replace("−", "-")  # tolerate typographic minus
    m = _RATIONAL_RE.match(cleaned)
    if m is None:
        raise RationalParseError(f"not a rational literal: {text!r}")
    whole, den, frac = m.groups()
    if den is not None:
        if _int_from_digits(den) == 0:
            raise RationalParseError(f"zero denominator in {text!r}")
        return Fraction(_int_from_digits(whole), _int_from_digits(den))
    if frac is not None:
        sign = -1 if whole.lstrip().startswith("-") else 1
        scale = 10 ** len(frac)
        return Fraction(_int_from_digits(whole) * scale + sign * _int_from_digits(frac), scale)
    return Fraction(_int_from_digits(whole))


def format_rational(value: Fraction) -> str:
    """Canonical text form: ``n`` or ``n/d``. Round-trips through parse."""
    if value.denominator == 1:
        return _int_to_digits(value.numerator)
    return f"{_int_to_digits(value.numerator)}/{_int_to_digits(value.denominator)}"


class FrequencyList(NamedTuple):
    """Validated list of strictly positive rational frequencies.

    `entries` keeps the order the caller gave (used for reporting), and
    `sorted_entries` holds the same values in non-increasing order (all
    mathematics indexes this view).
    """

    entries: tuple[Fraction, ...]
    sorted_entries: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def product(self) -> Fraction:
        return math.prod(self.sorted_entries, start=Fraction(1))

    def scaled(self, c: Fraction) -> "FrequencyList":
        """Same list with every frequency multiplied by c > 0."""
        return frequency_list([c * a for a in self.entries])

    def __str__(self) -> str:
        return ", ".join(format_rational(a) for a in self.entries)


def frequency_list(values: Iterable[Fraction | int]) -> FrequencyList:
    """Validate and index a frequency list; empty or non-positive input fails."""
    entries = tuple(Fraction(v) for v in values)
    if not entries:
        raise ValidationError("frequency list must not be empty")
    for i, a in enumerate(entries):
        if a <= 0:
            raise ValidationError(f"frequency at index {i} is not positive: {a}")
    return FrequencyList(entries, tuple(sorted(entries, reverse=True)))


def load_frequency_file(path: str | Path) -> FrequencyList:
    """Read one rational per line; blank lines and ``#`` comments are skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is dropped
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValidationError(f"cannot read frequency file {str(path)!r}: {reason}") from None
    values = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(parse_rational(line))
        except RationalParseError as exc:
            raise RationalParseError(f"{path}:{lineno}: {exc}") from None
    return frequency_list(values)


# Chudnovsky series: pi = 426880 sqrt(10005) / sum_j t_j, where each term
# t_j shrinks by a factor of about 640320**3 / 1728 ~ 1.5e14 (14.18 digits).
_CHUDNOVSKY_C3_24 = 640320**3 // 24
_CHUDNOVSKY_DIGITS_PER_TERM = 14
_PI_GUARD_DIGITS = 10


def _chudnovsky_split(a: int, b: int) -> tuple[int, int, int]:
    """Binary splitting (P, Q, T) of the Chudnovsky terms a..b-1."""
    if b - a == 1:
        if a == 0:
            p = q = 1
        else:
            p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
            q = a * a * a * _CHUDNOVSKY_C3_24
        t = p * (13591409 + 545140134 * a)
        return p, q, -t if a & 1 else t
    m = (a + b) // 2
    p_am, q_am, t_am = _chudnovsky_split(a, m)
    p_mb, q_mb, t_mb = _chudnovsky_split(m, b)
    return p_am * p_mb, q_am * q_mb, q_mb * t_am + p_am * t_mb


def _pi_scaled(k: int) -> int:
    """floor(pi * 10**k), exactly, in integer arithmetic.

    The Chudnovsky sum is taken to ``k + guard`` digits. Series truncation,
    the integer square root and the final division leave the scaled value
    within 2 units of pi * 10**(k + guard), so when both ends of that
    interval floor to the same k-digit value it is the answer; otherwise
    (pi * 10**k lies within 10**-guard of an integer) more guard digits
    are taken.
    """
    guard = _PI_GUARD_DIGITS
    while True:
        one = 10 ** (k + guard)
        terms = (k + guard) // _CHUDNOVSKY_DIGITS_PER_TERM + 2
        _, q, t = _chudnovsky_split(0, terms)
        scaled = 426880 * math.isqrt(10005 * one * one) * q // t
        low, high = (scaled - 2) // 10**guard, (scaled + 2) // 10**guard
        if low == high:
            return low
        guard *= 2


class PiMultiple(NamedTuple):
    """An exact value q*pi, stored as the rational coefficient q."""

    coefficient: Fraction

    def __float__(self) -> float:
        return float(self.coefficient) * math.pi

    def decimal(self, digits: int = 15) -> str:
        """Decimal expansion of coefficient*pi, rounded half-even.

        The coefficient is exact, so the only approximation is pi itself;
        it is taken with 20+ guard digits beyond what the output needs.
        """
        if digits < 0:
            raise ValidationError("digits must be non-negative")
        q = self.coefficient
        guard = 20 + len(_int_to_digits(1 + abs(q.numerator) // q.denominator))
        scaled = Fraction(q.numerator * _pi_scaled(digits + guard), q.denominator * 10**guard)
        units = round(scaled)  # Fraction rounds half-even
        sign = "-" if units < 0 else ""
        whole, frac = divmod(abs(units), 10**digits)
        if digits == 0:
            return f"{sign}{_int_to_digits(whole)}"
        return f"{sign}{_int_to_digits(whole)}.{_int_to_digits(frac).zfill(digits)}"

    def __str__(self) -> str:
        return f"{format_rational(self.coefficient)} * pi"
