import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mpmath
import sincprod
from sincprod import (
    DominanceClass,
    DominanceTag,
    Evaluation,
    InequalityCheck,
    PiMultiple,
    RationalParseError,
    ValidationError,
    format_rational,
    frequency_list,
    load_frequency_file,
    parse_rational,
)
from sincprod import core

PI_50 = "3.14159265358979323846264338327950288419716939937511"


class TestParseRational:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("982/45045", Fraction(982, 45045)),
            ("6/4", Fraction(3, 2)),
            ("0.2", Fraction(1, 5)),
            ("-0.25", Fraction(-1, 4)),
            ("-7/3", Fraction(-7, 3)),
            ("17", Fraction(17)),
            ("-3", Fraction(-3)),
            ("  5/10  ", Fraction(1, 2)),
            ("−3/4", Fraction(-3, 4)),
            ("0.0", Fraction(0)),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize(
        "text", ["", "1/0", "1e3", ".5", "5.", "1/2/3", "abc", "+5", "1.5.2", "1/-2", "nan"]
    )
    def test_rejects(self, text):
        with pytest.raises(RationalParseError) as exc:
            parse_rational(text)
        assert text.strip() in str(exc.value) or "denominator" in str(exc.value)

    def test_error_names_token(self):
        with pytest.raises(RationalParseError, match="1x2"):
            parse_rational("1x2")

    @given(st.fractions(max_denominator=10**9))
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    @given(st.integers(min_value=-(10**12), max_value=10**12), st.integers(min_value=1, max_value=10**12))
    def test_canonical_form(self, num, den):
        q = parse_rational(f"{num}/{den}")
        assert q.denominator > 0
        assert math.gcd(abs(q.numerator), q.denominator) == 1

    @given(st.fractions(max_denominator=10**6), st.fractions(max_denominator=10**6))
    def test_arithmetic_stays_canonical(self, r, s):
        for q in (r + s, r * s, r - s):
            assert q.denominator > 0
            assert math.gcd(abs(q.numerator), q.denominator) == 1


class TestFrequencyList:
    def test_sorted_view(self):
        fl = frequency_list([Fraction(1), Fraction(1, 3), Fraction(1, 5)])
        assert fl.n == 3
        assert fl.sorted_entries == (Fraction(1), Fraction(1, 3), Fraction(1, 5))

    def test_permutation_same_sorted_view(self):
        a = frequency_list([Fraction(1), Fraction(1, 3), Fraction(1, 5)])
        b = frequency_list([Fraction(1, 3), Fraction(1), Fraction(1, 5)])
        assert a.sorted_entries == b.sorted_entries
        assert b.entries == (Fraction(1, 3), Fraction(1), Fraction(1, 5))

    def test_rejects_non_positive_with_index(self):
        with pytest.raises(ValidationError, match="index 1"):
            frequency_list([Fraction(1), Fraction(0)])
        with pytest.raises(ValidationError, match="index 2"):
            frequency_list([Fraction(1), Fraction(1), Fraction(-2)])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            frequency_list([])

    def test_keeps_given_fractions(self):
        class Sub(Fraction):
            pass

        given_values = [Fraction(1, 3), Fraction(2)]
        fl = frequency_list([*given_values, 5, Sub(1, 7)])
        assert all(a is b for a, b in zip(fl.entries, given_values))
        assert fl.entries[2:] == (Fraction(5), Fraction(1, 7))
        assert all(type(a) is Fraction for a in fl.entries)

    def test_helpers(self):
        fl = frequency_list([Fraction(1, 2), Fraction(2)])
        assert fl.product() == 1
        assert fl.scaled(Fraction(2)).entries == (Fraction(1), Fraction(4))

    @given(st.lists(st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50), min_size=1, max_size=8))
    def test_sort_order_is_permutation(self, values):
        fl = frequency_list(values)
        assert Counter(fl.entries) == Counter(fl.sorted_entries)
        assert all(x >= y for x, y in zip(fl.sorted_entries, fl.sorted_entries[1:]))


class TestFrequencyFile:
    def test_load(self, tmp_path):
        path = tmp_path / "freqs.txt"
        path.write_text("# classical, first three\n1\n\n1/3\n0.2\n", encoding="utf-8")
        fl = load_frequency_file(path)
        assert fl.entries == (Fraction(1), Fraction(1, 3), Fraction(1, 5))

    @pytest.mark.parametrize("head", [b"", b"# exported by a Windows editor\n"], ids=["value", "comment"])
    def test_leading_byte_order_mark_is_ignored(self, tmp_path, head):
        body = head + b"1\r\n1/3\r\n0.2\r\n"
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(body)
        marked.write_bytes(b"\xef\xbb\xbf" + body)
        assert load_frequency_file(marked) == load_frequency_file(plain)
        assert load_frequency_file(plain).entries == (Fraction(1), Fraction(1, 3), Fraction(1, 5))

    def test_byte_order_mark_after_the_start_is_rejected(self, tmp_path):
        path = tmp_path / "inner.txt"
        path.write_bytes(b"1\n\xef\xbb\xbf1/3\n")
        with pytest.raises(RationalParseError, match=":2:"):
            load_frequency_file(path)

    def test_missing_file_names_path(self, tmp_path):
        path = tmp_path / "absent.txt"
        with pytest.raises(ValidationError, match="absent.txt"):
            load_frequency_file(path)

    def test_directory_names_path(self, tmp_path):
        with pytest.raises(ValidationError, match=tmp_path.name):
            load_frequency_file(tmp_path)

    def test_undecodable_file_names_path(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"1\n\xff1/3\n")
        with pytest.raises(ValidationError, match="latin1.txt"):
            load_frequency_file(path)

    def test_error_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\nbogus\n", encoding="utf-8")
        with pytest.raises(RationalParseError, match=":2:"):
            load_frequency_file(path)


class TestPiMultiple:
    def test_decimal_pi(self):
        assert PiMultiple(Fraction(1)).decimal(15) == PI_50[:17]
        assert PiMultiple(Fraction(1)).decimal(50) == PI_50

    def test_decimal_rounding(self):
        # 3*pi/4 = 2.35619449019234...; digit 10 rounds up
        assert PiMultiple(Fraction(3, 4)).decimal(10) == "2.3561944902"

    def test_decimal_negative_and_zero_digits(self):
        assert PiMultiple(Fraction(-1)).decimal(3) == "-3.142"
        assert PiMultiple(Fraction(1)).decimal(0) == "3"
        assert PiMultiple(Fraction(0)).decimal(4) == "0.0000"

    def test_decimal_rejects_negative_digits(self):
        with pytest.raises(ValidationError):
            PiMultiple(Fraction(1)).decimal(-1)

    @pytest.mark.parametrize("q", [Fraction(1), Fraction(3, 4), Fraction(-5, 7)])
    def test_decimal_past_int_str_limit(self, q):
        # 6000 digits is past CPython's default 4300-digit int<->str limit
        with mpmath.workdps(6100):
            expected = mpmath.nstr(q.numerator * mpmath.pi / q.denominator, 6001, strip_zeros=False)
        assert PiMultiple(q).decimal(6000) == expected

    def test_float(self):
        assert float(PiMultiple(Fraction(1, 2))) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_large_coefficient_guard_digits(self):
        q = Fraction(10**40 + 7, 3)
        text = PiMultiple(q).decimal(5)
        expect = float(text)  # sanity only; exactness checked via known pi above
        assert expect == pytest.approx(float(q) * math.pi, rel=1e-12)


def _mpmath_decimal(q: Fraction, digits: int, dps: int) -> Fraction:
    """q*pi rounded to `digits` places by mpmath at `dps` significant digits.

    Fails unless mpmath's value lies clearly off the halfway point, so the
    rounding it gives is the true one.
    """
    with mpmath.workdps(dps):
        x = mpmath.mpf(q.numerator) / q.denominator * mpmath.pi * mpmath.mpf(10) ** digits
        units = int(mpmath.nint(x))
        assert abs(abs(x - units) - mpmath.mpf(1) / 2) > (1 + abs(x)) * mpmath.mpf(10) ** (10 - dps)
    return Fraction(units, 10**digits)


def _assert_decimal(q: Fraction, digits: int, dps: int) -> None:
    text = PiMultiple(q).decimal(digits)
    assert len(text.partition(".")[2]) == digits
    assert parse_rational(text) == _mpmath_decimal(q, digits, dps)


def _near_half(big_n: int, digits: int, k: int, b: int) -> Fraction:
    """q with q*pi*10**digits within about big_n * 10**-(digits + k) of big_n + 1/2.

    Above the half for b = 0, below it for b = 1.
    """
    with mpmath.workdps(digits + k + 30):
        pi_floor = int(mpmath.floor(mpmath.pi * mpmath.mpf(10) ** (digits + k)))
    return Fraction((2 * big_n + 1) * 10**k, 2 * (pi_floor + b))


NEAR_HALF = [
    (sign, big_n, digits, k, b)
    for sign in (1, -1)
    for big_n in (1, 12345, 3141592653589793)
    for digits in (0, 3, 15, 40)
    for k in (30, 60, 120)
    for b in (0, 1)
]


class TestCorrectRounding:
    """Decimals are q*pi correctly rounded half-even, checked against mpmath."""

    @pytest.mark.parametrize("sign,big_n,digits,k,b", NEAR_HALF)
    def test_near_half(self, sign, big_n, digits, k, b):
        _assert_decimal(sign * _near_half(big_n, digits, k, b), digits, digits + k + 80)

    def test_random_coefficients(self):
        rng = random.Random(20241)
        for _ in range(300):
            q = Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**30))
            digits = rng.randint(0, 80)
            _assert_decimal(q, digits, digits + 100)


class TestPiDigits:
    @pytest.mark.parametrize("k", [0, 1, 15, 60, 761, 1000, 5000])
    def test_matches_mpmath(self, k):
        # at k = 761 the digits that follow are 999999...
        _assert_decimal(Fraction(1), k, k + 30)

    def test_close_call_takes_more_guard_digits(self, monkeypatch):
        # q*pi*10**15 lies within about 1e-75 of a half, so the first bracket
        # of q*pi cannot decide the rounding and pi is taken again, longer
        q = _near_half(1, 15, 60, 0)
        expected = _mpmath_decimal(q, 15, 160)
        roots = []
        isqrt = math.isqrt
        monkeypatch.setattr(core.math, "isqrt", lambda n: roots.append(n) or isqrt(n))
        assert parse_rational(PiMultiple(q).decimal(15)) == expected
        assert len(roots) > 1


class TestLongDigitStrings:
    def test_parse_past_int_str_limit(self):
        assert parse_rational("1/1" + "0" * 5000) == Fraction(1, 10**5000)
        assert parse_rational("-" + "7" * 5000) == -7 * (10**5000 - 1) // 9
        assert parse_rational("0." + "0" * 4999 + "1") == Fraction(1, 10**5000)

    @given(st.integers(min_value=1, max_value=12000), st.integers(min_value=0, max_value=10**6))
    def test_format_round_trip(self, digits, seed):
        value = Fraction(-(10 ** (digits - 1)) - seed, 10**digits + 3)
        assert parse_rational(format_rational(value)) == value

    def test_format_matches_str_below_limit(self):
        for value in (Fraction(0), Fraction(-7, 3), Fraction(10**4000 + 1, 3)):
            assert format_rational(value) == str(value)


_CHECK_REPR = "InequalityCheck(label='a1 > a2', lhs=Fraction(1, 1), rhs=Fraction(1, 3))"
_DOMINANCE_REPR = (
    "DominanceClass(tag=<DominanceTag.FIRST_DOMINANT: 'first-dominant'>, dominated_count=None, "
    f"boundary_flags=(), checks=({_CHECK_REPR},))"
)
_QUAD_REPR = "QuadratureResult(value=1.5, rounding_bound=1e-16, tail_bound=0.0, R=6.0, mode='direct', samples=3)"
_THIRD = Fraction(1, 3)


def _check():
    return InequalityCheck("a1 > a2", Fraction(1), _THIRD)


def _dominance():
    return DominanceClass(DominanceTag.FIRST_DOMINANT, None, (), (_check(),))


def _quad():
    return sincprod.QuadratureResult(1.5, 1e-16, 0.0, 6.0, "direct", 3)


# name -> (build a fresh instance, its repr); every call builds a new, field-for-field equal object
VALUE_TYPES = {
    "FrequencyList": (
        lambda: frequency_list([1, _THIRD]),
        "FrequencyList(entries=(Fraction(1, 1), Fraction(1, 3)), sorted_entries=(Fraction(1, 1), Fraction(1, 3)))",
    ),
    "PiMultiple": (lambda: PiMultiple(Fraction(1)), "PiMultiple(coefficient=Fraction(1, 1))"),
    "InequalityCheck": (_check, _CHECK_REPR),
    "DominanceClass": (_dominance, _DOMINANCE_REPR),
    "Evaluation": (
        lambda: Evaluation(PiMultiple(Fraction(1)), "first-dominant", _dominance(), True),
        "Evaluation(value=PiMultiple(coefficient=Fraction(1, 1)), provenance='first-dominant', "
        f"classification={_DOMINANCE_REPR}, verified=True)",
    ),
    "QuadratureResult": (_quad, _QUAD_REPR),
    "CrosscheckReport": (
        lambda: sincprod.CrosscheckReport(_quad(), Fraction(1, 2), 1.5, 0.0, True),
        f"CrosscheckReport(quadrature={_QUAD_REPR}, exact_coefficient=Fraction(1, 2), exact_value=1.5, "
        "difference=0.0, passed=True)",
    ),
}


class TestValueSemantics:
    """Pins what callers may rely on, whatever the value types are built from."""

    @pytest.mark.parametrize("name", list(VALUE_TYPES))
    def test_equal_fields_equal_values(self, name):
        make, text = VALUE_TYPES[name]
        a, b = make(), make()
        assert type(a).__name__ == name and repr(a) == text
        assert a is not b and a == b

    @pytest.mark.parametrize("name", list(VALUE_TYPES))
    def test_frozen_and_hashable(self, name):
        a, b = VALUE_TYPES[name][0](), VALUE_TYPES[name][0]()
        assert hash(a) == hash(b)
        first_field = VALUE_TYPES[name][1].split("(", 1)[1].split("=", 1)[0]
        with pytest.raises(AttributeError):
            setattr(a, first_field, None)
        assert a == b

    def test_properties_and_methods(self):
        freqs = frequency_list([1, _THIRD])
        assert freqs.n == 2 and str(freqs) == "1, 1/3"
        assert float(PiMultiple(Fraction(1))) == math.pi
        assert str(PiMultiple(Fraction(1))) == "1 * pi"
        assert _quad().total_error_bound == 1e-16
        assert _check().holds and not _check().tie
        assert str(_check()) == "a1 > a2: 1 > 1/3"
        assert str(InequalityCheck("t", Fraction(1), Fraction(1))) == "t: 1 = 1"
        assert str(InequalityCheck("t", Fraction(1), Fraction(2))) == "t: 1 < 2"
