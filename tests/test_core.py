import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mpmath
from sincprod import (
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


class TestPiDigits:
    @pytest.mark.parametrize("k", [0, 1, 15, 60, 1000, 5000])
    def test_matches_mpmath(self, k):
        with mpmath.workdps(k + 30):
            expected = int(mpmath.floor(mpmath.pi * 10**k))
        assert core._pi_scaled(k) == expected

    def test_close_call_takes_more_guard_digits(self, monkeypatch):
        # decimals 762..767 of pi are 999999, so pi * 10**761 lies within
        # 2e-6 of an integer; five guard digits cannot decide its floor
        monkeypatch.setattr(core, "_PI_GUARD_DIGITS", 5)
        with mpmath.workdps(800):
            expected = int(mpmath.floor(mpmath.pi * 10**761))
        assert core._pi_scaled(761) == expected


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
