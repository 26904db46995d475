import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sincprod
from sincprod import parse_rational
from sincprod.cli import main

I8_STRING = str(1 - Fraction(6879714958723010531, 467807924720320453655260875000))


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
        code, out, _ = run(capsys, "verify", "1", "1", "1")
        assert code == 0
        listing = out.split("pairwise agreement:")[0]
        engine_rows = [line.split()[:2] for line in listing.splitlines() if "engine:" in line]
        assert engine_rows == [["[1]", "engine:brute"], ["[2]", "engine:mitm"]]

    def test_single_frequency_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "1")
        assert code == 1

    def test_too_tight_tolerance_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "1", "1", "--tolerance", "1e-11")
        assert code == 1
        assert "1e-10" in err

    @pytest.mark.parametrize("tiny", [True, False])
    def test_frequency_outside_double_range_exits_one(self, capsys, tiny):
        big = "1" + "0" * 400
        code, out, err = run(capsys, "verify", f"1/{big}" if tiny else big, "1")
        assert code == 1
        assert "exact agreement: all" in out
        assert err.startswith("error: ") and "double-precision range" in err


class TestArgparseBehavior:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["integrate", "1", "--frobnicate"]) == 1


LAZY_IMPORT_PROBE = """
import sys
import sincprod
import sincprod.cli

for argv in (["integrate", "1", "1/3", "1/5"], ["classify", "1", "1", "1/2"], ["classic-table", "--max-n", "8"]):
    assert sincprod.cli.main(argv) == 0, argv
heavy = sorted(m for m in ("numpy", "scipy", "mpmath") if m in sys.modules)
assert not heavy, heavy
exported = list(sincprod.__all__)
assert callable(sincprod.crosscheck)
assert sincprod.quadrature is sys.modules["sincprod.quadrature"]
assert sincprod.__all__ == exported
assert all(hasattr(sincprod, name) for name in exported)
for name in sincprod.quadrature.__all__:
    assert name in exported and getattr(sincprod, name) is getattr(sincprod.quadrature, name), name
print("ok")
"""


class TestLazyImports:
    def test_exact_commands_load_no_numeric_stack(self):
        src = str(Path(sincprod.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", LAZY_IMPORT_PROBE],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "ok"

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            sincprod.no_such_name
