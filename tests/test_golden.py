"""Golden outputs of the command-line front end.

Each case runs `sincprod.cli.main` in-process on one argv and compares the
exit code, stdout and stderr byte for byte with `cli_golden.json`, which
holds the outputs the CLI printed when these cases were written. A change
that must alter an output edits that file in the same change, and says so.
"""

import json
from pathlib import Path

import pytest

from sincprod.cli import main

CLASSICAL_8 = ["1", "1/3", "1/5", "1/7", "1/9", "1/11", "1/13", "1/15"]

CASES = {
    "integrate": ["integrate", "1", "1/3", "1/5"],
    "integrate-json": ["integrate", "1", "1/3", "1/5", "--json"],
    "integrate-boundary": ["integrate", *CLASSICAL_8],
    "integrate-boundary-json": ["integrate", *CLASSICAL_8, "--json"],
    "integrate-three-dominant": ["integrate", "1", "1", "1/2"],
    "integrate-engine-json": ["integrate", "1", "1/2", "1/2", "--json"],
    "integrate-brute": ["integrate", *CLASSICAL_8, "--strategy", "brute"],
    "integrate-brute-json": ["integrate", "1", "1", "1", "--strategy", "brute", "--json"],
    "integrate-mitm-json": ["integrate", "1", "1", "1", "--strategy", "mitm", "--json"],
    "integrate-no-verify": ["integrate", "2", "1", "1/2", "--no-verify"],
    "integrate-no-verify-json": ["integrate", "2", "1", "1/2", "--no-verify", "--json"],
    "integrate-digits-0": ["integrate", "1", "1/3", "1/5", "--digits", "0"],
    "integrate-digits-60": ["integrate", "1", "1/3", "1/5", "--digits", "60"],
    "integrate-digits-60-json": ["integrate", *CLASSICAL_8, "--digits", "60", "--json"],
    "integrate-41-ones": ["integrate", *["1"] * 41],
    "integrate-no-frequencies": ["integrate"],
    "integrate-parse-error": ["integrate", "1", "1e3"],
    "classify-boundary": ["classify", *CLASSICAL_8],
    "classify-boundary-json": ["classify", *CLASSICAL_8, "--json"],
    "classify-three-dominant": ["classify", "1", "1", "1/2"],
    "classify-ties": ["classify", "1", "1/2", "1/2"],
    "classify-ties-json": ["classify", "1", "1/2", "1/2", "--json"],
    "classic-table": ["classic-table"],
    "classic-table-json": ["classic-table", "--json"],
    "classic-table-12": ["classic-table", "--max-n", "12"],
    "classic-table-12-json": ["classic-table", "--max-n", "12", "--digits", "5", "--json"],
    "classic-table-13": ["classic-table", "--max-n", "13"],
    "verify": ["verify", "1", "1/3", "1/5"],
    "verify-equal-three": ["verify", "1", "1", "1"],
    "verify-100-and-40-ones": ["verify", "100", *["1"] * 40],
    "verify-41-ones": ["verify", *["1"] * 41],
    "verify-wide-tolerance": ["verify", "1", "1/3", "--tolerance", "1e300"],
    "verify-single-frequency": ["verify", "1"],
}

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


def test_every_case_has_one_golden_output():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_output_is_byte_identical(name, capsys):
    code = main(list(CASES[name]))
    captured = capsys.readouterr()
    expected = GOLDEN[name]
    assert (code, captured.out, captured.err) == (expected["code"], expected["stdout"], expected["stderr"])
