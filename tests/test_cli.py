import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sincprod
from sincprod import (
    CapacityError,
    PiMultiple,
    closed_forms,
    engine,
    frequency_list,
    integral_coefficient,
    parse_rational,
)
from sincprod.cli import main

I8_STRING = str(1 - Fraction(6879714958723010531, 467807924720320453655260875000))
# 21 reciprocal primes: one past the brute-force row's limit, and no closed form applies
RECIPROCAL_PRIMES_21 = [f"1/{p}" for p in range(2, 80) if all(p % d for d in range(2, p))][:21]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIntegrate:
    def test_classical_three(self, capsys):
        code, out, _ = run(capsys, "integrate", "1", "1/3", "1/5")
        assert code == 0
        assert "coefficient: 1" in out
        assert "3.14159265" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "integrate", "1", "1", "1", "--json")
        assert code == 0
        record = json.loads(out)
        assert record["coefficient"] == "3/4"
        assert record["n"] == 3
        assert record["freqs"] == ["1", "1", "1"]
        assert parse_rational(record["coefficient"]) == Fraction(3, 4)
        assert record["decimal"].startswith("2.35619449")

    def test_text_and_json_agree(self, capsys):
        _, out_json, _ = run(capsys, "integrate", "2", "1", "1/2", "--json")
        _, out_text, _ = run(capsys, "integrate", "2", "1", "1/2")
        coeff = json.loads(out_json)["coefficient"]
        assert f"coefficient: {coeff}" in out_text

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "freqs.txt"
        lines = ["# classical break"] + [str(Fraction(1, 2 * j - 1)) for j in range(1, 9)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "integrate", "--file", str(path), "--json")
        assert code == 0
        assert json.loads(out)["coefficient"] == I8_STRING

    def test_file_with_byte_order_mark(self, capsys, tmp_path):
        plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_text("1\n1/3\n1/5\n", encoding="utf-8")
        marked.write_text("1\n1/3\n1/5\n", encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        expected = run(capsys, "integrate", "--file", str(plain))
        assert expected[0] == 0 and "coefficient: 1\n" in expected[1]
        assert run(capsys, "integrate", "--file", str(marked)) == expected

    def test_forced_strategy(self, capsys):
        code, out, _ = run(capsys, "integrate", "1", "1", "1", "--strategy", "mitm", "--json")
        assert code == 0
        record = json.loads(out)
        assert record["coefficient"] == "3/4"
        assert record["provenance"] == "engine:mitm"

    def test_digits_flag(self, capsys):
        _, out, _ = run(capsys, "integrate", "1", "--digits", "30", "--json")
        assert json.loads(out)["decimal"] == "3.141592653589793238462643383280"

    def test_parse_error_exits_one(self, capsys):
        code, _, err = run(capsys, "integrate", "1", "bogus")
        assert code == 1
        assert "bogus" in err

    def test_non_positive_exits_one(self, capsys):
        code, _, err = run(capsys, "integrate", "1", "0")
        assert code == 1
        assert "index 1" in err

    def test_no_frequencies_exits_one(self, capsys):
        code, _, err = run(capsys, "integrate")
        assert code == 1
        assert "no frequencies" in err

    def test_missing_file_exits_one(self, capsys, tmp_path):
        path = tmp_path / "absent.txt"
        code, out, err = run(capsys, "integrate", "--file", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and str(path) in err

    def test_directory_file_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "integrate", "--file", str(tmp_path))
        assert code == 1
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_digits_past_int_str_limit(self, capsys):
        code, out, _ = run(capsys, "integrate", "1", "1", "1", "--digits", "6000", "--json")
        assert code == 0
        whole, frac = json.loads(out)["decimal"].split(".")
        assert whole == "2" and len(frac) == 6000

    def test_file_and_args_conflict(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1\n", encoding="utf-8")
        code, _, err = run(capsys, "integrate", "1", "--file", str(path))
        assert code == 1

    @pytest.mark.parametrize(
        "argv,cost",
        [
            (["integrate", *RECIPROCAL_PRIMES_21, "--strategy", "brute"], "engine:brute on n = 21 walks 2^21"),
            (["verify", *["1"] * 41], "engine:mitm on n = 41 walks 2^21"),
        ],
        ids=["brute-21", "verify-41"],
    )
    def test_over_the_engine_budget_exits_one(self, capsys, argv, cost):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {cost} sign patterns at once, over the budget of 2^20\n"

    def test_reader_closing_early_leaves_no_traceback(self):
        # 70 000 digits overflow a 64 KiB pipe buffer, so the write must fail
        src = str(Path(sincprod.__file__).resolve().parent.parent)
        with subprocess.Popen(
            [sys.executable, "-m", "sincprod.cli", "integrate", "1", "--digits", "70000"],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err


class TestClassify:
    def test_seven_classical(self, capsys):
        args = [str(Fraction(1, 2 * j - 1)) for j in range(1, 8)]
        code, out, _ = run(capsys, "classify", *args)
        assert code == 0
        assert "first-dominant" in out
        assert "43024/45045" in out  # exact right-hand side of the dominance check

    def test_three_dominant(self, capsys):
        code, out, _ = run(capsys, "classify", "1", "1", "1", "1/2")
        assert code == 0
        assert "three-dominant" in out

    def test_tie_reports_none_with_flag(self, capsys):
        code, out, _ = run(capsys, "classify", "1", "1/2", "1/2")
        assert code == 0
        assert "classification: none" in out
        assert "boundary ties" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "classify", "1", "1", "1/10", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"] == "three-dominant"
        assert payload["boundary_flags"]
        assert all({"label", "lhs", "rhs", "holds"} <= set(c) for c in payload["checks"])


RECORD_1_1_1 = [
    ("freqs", ["1", "1", "1"]),
    ("n", 3),
    ("coefficient", "3/4"),
    ("decimal", "2.356194490192345"),
    ("classification", "three-dominant"),
    ("provenance", "three-dominant"),
]


class TestJsonRecord:
    """The --json record's keys, their order and their values, null included."""

    def test_integrate_verified(self, capsys):
        code, out, err = run(capsys, "integrate", "1", "1", "1", "--json")
        assert (code, err) == (0, "")
        verified = {"method": "engine-recomputation", "match": True}
        assert list(json.loads(out).items()) == RECORD_1_1_1 + [("verified", verified)]
        assert out.endswith('"match": true\n  }\n}\n')

    def test_integrate_no_verify_keeps_null(self, capsys):
        code, out, err = run(capsys, "integrate", "1", "1", "1", "--json", "--no-verify")
        assert (code, err) == (0, "")
        assert list(json.loads(out).items()) == RECORD_1_1_1 + [("verified", None)]
        assert out.endswith('  "verified": null\n}\n')

    def test_classic_table_rows_are_the_same_records(self, capsys):
        code, out, err = run(capsys, "classic-table", "--max-n", "3", "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert list(payload) == ["rows"]
        singles = [
            json.loads(run(capsys, "integrate", *["1", "1/3", "1/5"][:n], "--json", "--no-verify")[1]) for n in (1, 2, 3)
        ]
        assert [list(row.items()) for row in payload["rows"]] == [list(row.items()) for row in singles]


class TestClassicTable:
    def test_seven_rows_all_one(self, capsys):
        code, out, _ = run(capsys, "classic-table", "--max-n", "7", "--json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 7
        assert all(r["coefficient"] == "1" for r in rows)

    def test_break_row(self, capsys):
        code, out, _ = run(capsys, "classic-table", "--max-n", "8", "--json")
        rows = json.loads(out)["rows"]
        assert rows[7]["coefficient"] == I8_STRING
        assert rows[7]["classification"] == "first-dominant-boundary"

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "classic-table", "--max-n", "1")
        assert code == 0
        assert out.count("coefficient") == 1

    @pytest.mark.parametrize("bad", ["0", "13"])
    def test_range_guard(self, capsys, bad):
        code, _, err = run(capsys, "classic-table", "--max-n", bad)
        assert code == 1
        assert "max-n" in err


class TestVerify:
    def test_classical_break(self, capsys):
        args = [str(Fraction(1, 2 * j - 1)) for j in range(1, 9)]
        code, out, _ = run(capsys, "verify", *args)
        assert code == 0
        assert "all" in out and "identical" in out
        assert "pass" in out

    def test_equal_three(self, capsys):
        code, out, _ = run(capsys, "verify", "1", "1", "1")
        assert code == 0
        assert "3/4" in out

    def test_example_family_with_tolerance(self, capsys):
        code, out, _ = run(capsys, "verify", "1", "1", "1", "1/2", "--tolerance", "1e-8")
        assert code == 0
        assert "35/48" in out

    def test_listing_has_two_engine_rows(self, capsys):
        # the two engine rows, then every closed form whose hypothesis holds, in table order
        three_dominant = ["three-dominant", "three-dominant-equal-pair", "three-factor"]
        cases = [
            (["1", "1", "1"], ["first-dominant-correction", *three_dominant]),
            (["1", "1", "1/10"], ["first-dominant-correction", *three_dominant]),
            (["3", "2", "2"], ["first-dominant-correction", "three-dominant", "three-factor"]),
            ([f"1/{2 * j - 1}" for j in range(1, 9)], ["first-dominant-correction"]),
        ]
        for freqs, closed_forms in cases:
            code, out, _ = run(capsys, "verify", *freqs)
            assert code == 0
            listing = out.split("pairwise agreement:")[0].splitlines()[1:]
            names = ["engine:brute", "engine:mitm", *closed_forms]
            assert [line.split()[:2] for line in listing] == [
                [f"[{i}]", name] for i, name in enumerate(names, 1)
            ]

    def test_single_frequency_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "1")
        assert code == 1

    def test_too_tight_tolerance_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "1", "1", "--tolerance", "1e-11")
        assert code == 1
        assert "1e-10" in err

    @pytest.mark.parametrize("tolerance", ["nan", "inf"])
    def test_non_finite_tolerance_rejected_up_front(self, capsys, tolerance):
        code, out, err = run(capsys, "verify", "1", "1", "--tolerance", tolerance)
        assert (code, out) == (1, "")
        assert "1e-10" in err

    @pytest.mark.parametrize("tiny", [True, False])
    def test_frequency_outside_double_range_exits_three(self, capsys, tiny):
        big = "1" + "0" * 400
        code, out, err = run(capsys, "verify", f"1/{big}" if tiny else big, "1")
        assert code == 3
        assert "exact agreement: all" in out
        assert err.startswith("could not certify: ") and "double-precision range" in err

    def test_over_budget_oracle_exits_three(self, capsys):
        code, out, err = run(capsys, "verify", "1", "1/" + "1" * 30)
        assert code == 3
        assert "exact agreement: all" in out and "quadrature" not in out
        assert err.startswith("could not certify: ") and "samples" in err

    def test_tolerance_as_wide_as_the_value_exits_three(self, capsys):
        code, out, err = run(capsys, "verify", "1", "1/3", "--tolerance", "1e300")
        assert code == 3
        assert "exact agreement: all" in out and "quadrature" not in out
        assert err.startswith("could not certify: ") and "not below pi/a_1" in err

    def test_brute_row_skipped_above_limit(self, capsys):
        code, out, _ = run(capsys, "verify", *RECIPROCAL_PRIMES_21)
        assert code == 0
        listing, oracle = out.split(
            "exact agreement: only one exact value (engine:mitm); "
            "the quadrature oracle is the only independent check\n"
        )
        rows = listing.splitlines()[1:]
        assert rows[0] == "  [1] engine:brute  skipped (2^21 sign patterns)"
        assert [row.split()[:2] for row in rows] == [["[1]", "engine:brute"], ["[2]", "engine:mitm"]]
        # one exact value: no 1 x 1 table comparing engine:mitm with itself
        assert "pairwise agreement:" not in out and "exact agreement: all" not in out
        assert oracle.startswith("quadrature (") and oracle.rstrip().endswith(": pass")

    @pytest.mark.parametrize("ones,brute,mitm", [(40, 41, 21), (44, 45, 23)])
    def test_first_dominant_verifies_with_both_engine_rows_over_budget(self, capsys, ones, brute, mitm):
        code, out, err = run(capsys, "verify", "100", *["1"] * ones)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[1:5] == [
            f"  [1] engine:brute    skipped (2^{brute} sign patterns)",
            f"  [2] engine:mitm     skipped (2^{mitm} sign patterns)",
            "  [3] first-dominant  1/100",
            "exact agreement: only one exact value (first-dominant); "
            "the quadrature oracle is the only independent check",
        ]
        assert lines[5].startswith("quadrature (direct, 30 samples): ")
        assert lines[6].endswith(": pass") and len(lines) == 7

    def test_closed_form_mismatch_exits_two(self, capsys, monkeypatch):
        original = closed_forms.three_dominant_value
        monkeypatch.setattr(
            closed_forms, "three_dominant_value", lambda freqs: PiMultiple(original(freqs).coefficient + Fraction(1, 7))
        )
        code, out, err = run(capsys, "verify", "1", "1", "1")
        assert code == 2
        assert "quadrature" not in out
        assert err.splitlines() == ["exact agreement: FAILED"] + [
            f"  mismatch: {x} != {y}"
            for x, y in [
                ("engine:brute", "three-dominant"),
                ("engine:mitm", "three-dominant"),
                ("first-dominant-correction", "three-dominant"),
                ("three-dominant", "three-dominant-equal-pair"),
                ("three-dominant", "three-factor"),
            ]
        ]

    def test_oracle_disagreement_exits_two(self, capsys, monkeypatch):
        quadrature = sincprod.quadrature
        original = quadrature.quadrature_estimate

        def shifted(freqs, target):
            # the estimate moves 2 * target away, past its own bound (at most target)
            quad = original(freqs, target)
            return quad._replace(value=quad.value + 2 * target)

        monkeypatch.setattr(quadrature, "quadrature_estimate", shifted)
        code, out, err = run(capsys, "verify", "1", "1/3", "1/5")
        assert code == 2
        assert "exact agreement: all 3 values identical" in out
        assert out.rstrip().endswith(": FAIL")
        assert err == "verification failure: quadrature disagrees with the exact value\n"

    @pytest.mark.parametrize("freqs,expected", [(["1", "1/3", "1/5"], (1, 1)), (RECIPROCAL_PRIMES_21, (0, 1))])
    def test_each_engine_kernel_runs_at_most_once(self, capsys, monkeypatch, freqs, expected):
        calls = Counter()
        for name in ("_moment_sum_brute", "_moment_sum_mitm"):
            original = getattr(engine, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(engine, name, counted)
        code, _, _ = run(capsys, "verify", *freqs)
        assert code == 0
        assert (calls["_moment_sum_brute"], calls["_moment_sum_mitm"]) == expected

    def test_output_the_benchmark_gate_parses(self, capsys):
        # perfbench's cli-desk gate reads these three lines of a 3-to-5-term verify
        for freqs in (["1", "1/3", "1/5"], ["3/2", "2/3", "1/2", "1/7"], ["7/5", "1", "5/6", "1/3", "2/9"]):
            code, out, _ = run(capsys, "verify", *freqs, "--tolerance", "1e-9")
            assert code == 0
            lines = out.splitlines()
            brute = next(line for line in lines if line.lstrip().startswith("[1]") and "engine:brute" in line)
            assert Fraction(brute.split()[-1]) == integral_coefficient(frequency_list(map(parse_rational, freqs))).coefficient
            assert any(line.startswith("exact agreement: all") for line in lines)
            assert any(line.rstrip().endswith(": pass") for line in lines)


# n = 1..16 keeps brute force well under a second; at 21 and 22 the brute row
# is over budget and MITM is cheap; at 41..45 both engine rows are over budget.
# 17..20 (brute force up to 2 s) and 23..40 (MITM up to minutes) stay out.
CONTRACT_SIZES = [*range(1, 17), 21, 22, *range(41, 46)]
EVERYDAY = st.one_of(
    st.builds(Fraction, st.integers(1, 12), st.integers(1, 12)),
    st.builds(Fraction, st.integers(1, 10**4), st.integers(1, 10**4)),
)
HUGE = st.builds(Fraction, st.integers(1, 10**40), st.integers(1, 10**40))
VALID_TOLERANCES = ["1e-10", "1e-8", "0.5", "1e300"]
BAD_TOLERANCES = ["9.99e-11", "0", "-1e-8", "nan", "inf"]


@st.composite
def contract_lists(draw):
    n = draw(st.sampled_from(CONTRACT_SIZES))
    values = draw(st.lists(EVERYDAY, min_size=n, max_size=n))
    # at most two huge entries: sixteen of them make brute force take seconds
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        values[i] = draw(HUGE)
    if draw(st.booleans()):  # a first frequency above the sum of the rest: first-dominant at any n
        values[0] = sum(values[1:], draw(EVERYDAY))
    return values


def call(argv):
    # capsys is set up once per test, not once per Hypothesis example
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def printed_coefficient(out):
    if out.startswith("{"):
        return Fraction(json.loads(out)["coefficient"])
    return Fraction(out.split("coefficient: ", 1)[1].splitlines()[0])


def listed_exact_values(out):
    """The values of the `verify` listing (its first block of `[i]` lines), skipped rows left out."""
    rows = []
    for line in out.splitlines()[1:]:
        if not line.startswith("  ["):
            break
        rows.append(line)
    return [Fraction(row.split()[-1]) for row in rows if "skipped (" not in row]


class TestContract:
    @settings(max_examples=60, deadline=None)
    @given(
        contract_lists(),
        st.sampled_from(["0", "1", "15", "60"]),
        # valid tolerances twice as often: only they reach the integrate/verify comparison
        st.one_of(st.sampled_from(VALID_TOLERANCES), st.sampled_from(VALID_TOLERANCES), st.sampled_from(BAD_TOLERANCES)),
        st.integers(-1, 13),
        st.sampled_from(["-1", "0", "20"]),
        st.lists(st.booleans(), min_size=3, max_size=3),
    )
    def test_random_argv_keeps_the_exit_contract(self, values, digits, tolerance, max_n, table_digits, as_json):
        tokens = [str(a) for a in values]
        json_flags = [["--json"] if flag else [] for flag in as_json]
        integrate = call(["integrate", *tokens, "--digits", digits, *json_flags[0]])
        verify = call(["verify", *tokens, "--tolerance", tolerance])
        others = [
            call(["classify", *tokens, *json_flags[1]]),
            call(["classic-table", "--max-n", str(max_n), "--digits", table_digits, *json_flags[2]]),
        ]
        for code, _, err in [integrate, verify, *others]:
            assert code in (0, 1, 3), err
        if integrate[0] == 0 and len(values) >= 2 and tolerance in VALID_TOLERANCES:
            code, out, err = verify
            assert code != 1, err
            exact = listed_exact_values(out)
            assert exact and set(exact) == {printed_coefficient(integrate[1])}


def help_texts(capsys, command):
    """Argument -> its help text in `sincprod COMMAND --help` ("" when it has none)."""
    assert main([command, "--help"]) == 0
    texts = {}
    for line in capsys.readouterr().out.splitlines():
        if re.match(r"  \S", line):  # an argument's own line; wrapped help lines are indented further
            invocation, _, text = line.strip().partition("  ")
            texts[invocation.split()[0]] = text.strip()
    return texts


class TestArgparseBehavior:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["integrate", "1", "--frobnicate"]) == 1

    def test_shared_inputs_have_one_help_text(self, capsys):
        texts = [help_texts(capsys, command) for command in ("integrate", "classify", "verify")]
        for option in ("freqs", "--file"):
            assert texts[0][option] and all(text[option] == texts[0][option] for text in texts), option

    @pytest.mark.parametrize("command", ["integrate", "classify", "classic-table"])
    def test_every_json_flag_has_help(self, capsys, command):
        assert help_texts(capsys, command)["--json"]


class TestDigits:
    @pytest.mark.parametrize(
        "argv",
        [["integrate", "1", "1/3", "1/5"], ["integrate", "1", "1", "--strategy", "brute"], ["classic-table"]],
        ids=["integrate", "integrate-brute", "classic-table"],
    )
    def test_negative_digits_refused_before_the_engine(self, capsys, monkeypatch, argv):
        def engine_ran(*args, **kwargs):
            raise AssertionError("the engine ran before --digits was checked")

        monkeypatch.setattr("sincprod.cli.evaluate", engine_ran)
        monkeypatch.setattr("sincprod.cli.integral_coefficient", engine_ran)
        assert run(capsys, *argv, "--digits", "-1") == (1, "", "error: digits must be non-negative\n")


LAZY_IMPORT_PROBE = """
import sys
bare = set(sys.modules)  # what the interpreter loads before any sincprod import
import sincprod
import sincprod.cli

for argv in (["integrate", "1", "1/3", "1/5"], ["classify", "1", "1", "1/2"], ["classic-table", "--max-n", "8"]):
    assert sincprod.cli.main(argv) == 0, argv
heavy = sorted(m for m in ("numpy", "scipy", "mpmath") if m in sys.modules)
assert not heavy, heavy
slow = sorted(m for m in ("dataclasses", "inspect", "json") if m in sys.modules and m not in bare)
assert not slow, slow
assert "sincprod.quadrature" not in sys.modules
exported = list(sincprod.__all__)
assert callable(sincprod.crosscheck)
assert sincprod.quadrature is sys.modules["sincprod.quadrature"]
assert sincprod.__all__ == exported
assert all(hasattr(sincprod, name) for name in exported)
for name in sincprod.quadrature.__all__:
    assert name in exported and getattr(sincprod, name) is getattr(sincprod.quadrature, name), name
print("ok")
"""


ORACLE_IMPORT_PROBE = """
import sys
from fractions import Fraction
import sincprod
import sincprod.cli

assert sincprod.cli.main(["verify", "1", "1/3", "1/5"]) == 0
assert sincprod.crosscheck(sincprod.classical_frequencies(8), 1e-10).passed
assert sincprod.cli.main(["verify", "1/97", "1/89", "1/83", "1/79", "--tolerance", "1e-10"]) == 0  # direct
assert sincprod.cli.main(["verify", "1", "1/10007", "--tolerance", "1e-10"]) == 0  # periodic, 5004 samples
assert "numpy" not in sys.modules
pair = sincprod.frequency_list([Fraction(1), Fraction(1, 1000003)])
assert sincprod.crosscheck(pair, 1e-6).passed  # periodic, 500 002 samples
assert "numpy" not in sys.modules
heavy = sorted(m for m in ("scipy", "mpmath") if m in sys.modules)
assert not heavy, heavy
print("ok")
"""


JSON_IMPORT_PROBE = """
import sys
bare = set(sys.modules)
import sincprod.cli

assert sincprod.cli.main(["verify", "1", "1/3", "1/5"]) == 0
slow = sorted(m for m in ("dataclasses", "inspect", "json") if m in sys.modules and m not in bare)
assert not slow, slow
assert sincprod.cli.main(["integrate", "1", "1/3", "1/5", "--json"]) == 0
assert "json" in sys.modules
slow = sorted(m for m in ("dataclasses", "inspect") if m in sys.modules and m not in bare)
assert not slow, slow
print("ok")
"""


def run_probe(probe):
    src = str(Path(sincprod.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestLazyImports:
    def test_exact_commands_load_no_numeric_stack(self):
        proc = run_probe(LAZY_IMPORT_PROBE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "ok"

    def test_json_loads_only_for_json_output(self):
        proc = run_probe(JSON_IMPORT_PROBE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "ok"

    def test_oracle_loads_no_numeric_stack(self):
        proc = run_probe(ORACLE_IMPORT_PROBE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "ok"

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            sincprod.no_such_name


PUBLIC_NAMES = {
    "DominanceClass", "DominanceTag", "Evaluation", "InequalityCheck",
    "classical_frequencies", "classify_dominance", "closed_form_values", "evaluate",
    "FrequencyList", "PiMultiple", "format_rational", "frequency_list", "load_frequency_file", "parse_rational",
    "EnumerationStrategy", "integral_coefficient", "signed_moment_sum",
    "ApplicabilityError", "CapacityError", "RationalParseError", "SincprodError",
    "ToleranceError", "ValidationError", "VerificationError",
    "CrosscheckReport", "QuadratureResult", "crosscheck", "quadrature_estimate", "tail_bound",
    "__version__",
}

# module -> attribute paths that perfbench's tracer wraps or reads
TRACED = {
    "closed_forms": (
        "first_dominant_value", "first_dominant_correction", "three_dominant_value",
        "three_dominant_equal_first_two", "three_frequency_value", "classify_dominance", "evaluate",
    ),
    "engine": ("signed_moment_sum", "EnumerationStrategy.BRUTE_FORCE"),
    "core": ("parse_rational", "frequency_list", "load_frequency_file", "PiMultiple.decimal"),
}
TRACED_PATHS = [(module, path) for module, paths in TRACED.items() for path in paths]


class TestPublicSurface:
    def test_the_package_exports_the_same_names(self):
        assert len(sincprod.__all__) == len(PUBLIC_NAMES) == 30
        assert set(sincprod.__all__) == PUBLIC_NAMES
        namespace = {}
        exec("from sincprod import *", namespace)
        assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES

    def test_each_name_is_declared_by_one_module(self):
        lists = [getattr(sincprod, m).__all__ for m in ("closed_forms", "core", "engine", "errors", "quadrature")]
        declared = [name for names in lists for name in names] + ["__version__"]
        assert sorted(declared) == sorted(PUBLIC_NAMES)

    @pytest.mark.parametrize("module,path", TRACED_PATHS, ids=[f"{m}.{p}" for m, p in TRACED_PATHS])
    def test_traced_names_stay_attributes_of_their_module(self, module, path):
        target = importlib.import_module(f"sincprod.{module}")
        for part in path.split("."):
            target = getattr(target, part)
        assert callable(target) or isinstance(target, sincprod.EnumerationStrategy)


SHOW_BREAK = Path(sincprod.__file__).resolve().parents[2] / "scripts" / "show_break.py"


def run_show_break(*args):
    root = SHOW_BREAK.parents[1]
    return subprocess.run(
        [sys.executable, str(SHOW_BREAK), *args],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestShowBreak:
    @pytest.mark.parametrize("args", [["abc"], ["0"], ["-3"], ["4", "5"]], ids=["abc", "0", "-3", "two"])
    def test_bad_argument_prints_usage(self, args):
        proc = run_show_break(*args)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("usage: python scripts/show_break.py [MAX_N]")

    def test_reports_the_n8_deficit(self):
        proc = run_show_break("9")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert "n =  8  first-dominant-correction    deficit 1.471e-11 * pi" in lines
        assert "  1 - 1/3 - 1/5 - ... - 1/15 = -982/45045  (< 0, with N = 7)" in lines

    def test_engine_error_exits_one_without_traceback(self, monkeypatch, capsys):
        spec = importlib.util.spec_from_file_location("show_break", SHOW_BREAK)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        evaluate = script.evaluate

        def over_budget_at_three(freqs):
            if freqs.n == 3:
                raise CapacityError("n = 3 is over the budget")
            return evaluate(freqs)

        monkeypatch.setattr(script, "evaluate", over_budget_at_three)
        monkeypatch.setattr(sys, "argv", ["show_break.py", "9"])
        assert script.main() == 1
        captured = capsys.readouterr()
        assert captured.err == "error: n = 3 is over the budget\n"
        assert "n =  2" in captured.out and "Traceback" not in captured.out + captured.err
