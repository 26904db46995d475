"""Command-line front end.

Subcommands:
    integrate     exact pi-coefficient of a frequency list
    classify      dominance classification with exact inequality sides
    classic-table the 1, 1/3, 1/5, ... family up to a chosen length
    verify        brute force vs meet-in-the-middle vs closed forms, then the
                  quadrature oracle against the first exact value listed; an
                  engine row over budget is listed as skipped with its cost,
                  and no pairwise table is printed when one exact value is left

`integrate` uses the closed form when one applies, else meet-in-the-middle;
`--strategy brute|mitm` forces an engine strategy instead.

Exit codes: 0 success, 1 input error (an input over the engine's budget included,
for verify only when no exact value is left) or stdout closed before all output
was written, 2 verification failure (routes disagree, the oracle disagrees, or a
result breaks 0 < q <= 1/a_1), 3 the oracle could not certify the value (its
cost is over budget, or a number it needs is outside double-precision range),
or the tolerance is not below pi/a_1, so a pass would certify nothing.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .closed_forms import classical_frequencies, classify_dominance, closed_form_values, evaluate
from .core import (
    FrequencyList,
    format_rational,
    frequency_list,
    load_frequency_file,
    parse_rational,
)
from .engine import EnumerationStrategy, integral_coefficient
from .errors import CapacityError, SincprodError, ToleranceError, VerificationError


def _record(freqs: FrequencyList, value, classification, provenance: str, digits: int, verified=None) -> dict:
    return {
        "freqs": [format_rational(a) for a in freqs.entries],
        "n": freqs.n,
        "coefficient": format_rational(value.coefficient),
        "decimal": value.decimal(digits),
        "classification": classification.tag.value,
        "provenance": provenance,
        "verified": verified,
    }


def _print_json(payload: dict) -> None:
    import json  # only --json output loads it

    print(json.dumps(payload, indent=2))


def _freqs_from_args(args: argparse.Namespace) -> FrequencyList:
    if args.file:
        if args.freqs:
            raise SincprodError("give frequencies either as arguments or with --file, not both")
        return load_frequency_file(args.file)
    if not args.freqs:
        raise SincprodError("no frequencies given (pass them as arguments or use --file)")
    return frequency_list([parse_rational(tok) for tok in args.freqs])


def _cmd_integrate(args: argparse.Namespace) -> int:
    freqs = _freqs_from_args(args)
    verified = None
    if args.strategy:
        strategy = EnumerationStrategy(args.strategy)
        value = integral_coefficient(freqs, strategy)
        classification, provenance = classify_dominance(freqs), f"engine:{strategy.value}"
    else:
        result = evaluate(freqs, verify=not args.no_verify)
        value, provenance, classification = result.value, result.provenance, result.classification
        if result.verified:
            verified = {"method": "engine-recomputation", "match": True}
    record = _record(freqs, value, classification, provenance, args.digits, verified)
    if args.json:
        _print_json(record)
        return 0
    print(f"frequencies: {', '.join(record['freqs'])}  (n = {record['n']})")
    print(f"coefficient: {record['coefficient']}")
    print(f"value: {record['decimal']}  (coefficient * pi)")
    print(f"classification: {record['classification']}")
    print(f"provenance: {record['provenance']}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    freqs = _freqs_from_args(args)
    cls = classify_dominance(freqs)
    if args.json:
        payload = {
            "freqs": [format_rational(a) for a in freqs.entries],
            "n": freqs.n,
            "classification": cls.tag.value,
            "dominated_count": cls.dominated_count,
            "boundary_flags": list(cls.boundary_flags),
            "checks": [
                {"label": c.label, "lhs": format_rational(c.lhs), "rhs": format_rational(c.rhs), "holds": c.holds}
                for c in cls.checks
            ],
        }
        _print_json(payload)
        return 0
    print(f"frequencies: {freqs}  (n = {freqs.n})")
    print(f"classification: {cls.tag.value}")
    if cls.dominated_count is not None:
        print(f"dominated count N: {cls.dominated_count}")
    for check in cls.checks:
        print(f"  {check}")
    if cls.boundary_flags:
        print(f"boundary ties: {'; '.join(cls.boundary_flags)}")
    return 0


def _cmd_classic_table(args: argparse.Namespace) -> int:
    if not 1 <= args.max_n <= 12:
        raise SincprodError(f"--max-n must be between 1 and 12, got {args.max_n}")
    rows = []
    for n in range(1, args.max_n + 1):
        freqs = classical_frequencies(n)
        result = evaluate(freqs)
        rows.append(_record(freqs, result.value, result.classification, result.provenance, args.digits))
    if args.json:
        _print_json({"rows": rows})
        return 0
    coeff_width = max(len(r["coefficient"]) for r in rows)
    for row in rows:
        print(
            f"n = {row['n']:2d}  coefficient = {row['coefficient']:<{coeff_width}}  "
            f"value = {row['decimal']}  [{row['classification']}]"
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    freqs = _freqs_from_args(args)
    if freqs.n < 2:
        raise SincprodError("verify needs at least two frequencies (quadrature excludes n = 1)")
    if not 1e-10 <= args.tolerance < math.inf:  # false for nan too
        raise SincprodError(f"--tolerance must be a finite number of at least 1e-10, got {args.tolerance}")

    rows: dict[str, Fraction | CapacityError] = {}  # in listing order; a row over budget holds its error
    for strategy in EnumerationStrategy:
        try:
            rows[f"engine:{strategy.value}"] = integral_coefficient(freqs, strategy).coefficient
        except CapacityError as exc:
            rows[f"engine:{strategy.value}"] = exc
    rows.update((name, value.coefficient) for name, value in closed_form_values(freqs).items())
    names = [name for name, value in rows.items() if not isinstance(value, CapacityError)]
    if not names:
        raise list(rows.values())[-1]  # every row is an engine error: report the last one

    print(f"frequencies: {freqs}  (n = {freqs.n})")
    index = {name: i for i, name in enumerate(rows, 1)}
    width = max(map(len, rows))
    for name, value in rows.items():
        shown = f"skipped ({value.cost})" if isinstance(value, CapacityError) else format_rational(value)
        print(f"  [{index[name]}] {name:<{width}}  {shown}")
    if len(names) > 1:
        print("pairwise agreement:")
        print(f"  {'':{width + 4}}  " + "  ".join(f"[{index[name]}]" for name in names))
        for row in names:
            cells = "  ".join(f"{'=' if rows[row] == rows[col] else 'X':^3}" for col in names)
            print(f"  [{index[row]}] {row:<{width}}  {cells}")

    mismatches = [(x, y) for i, x in enumerate(names) for y in names[i + 1 :] if rows[x] != rows[y]]
    if mismatches:
        print("exact agreement: FAILED", file=sys.stderr)
        for x, y in mismatches:
            print(f"  mismatch: {x} != {y}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(
            f"exact agreement: only one exact value ({names[0]}); "
            "the quadrature oracle is the only independent check"
        )
    else:
        print(f"exact agreement: all {len(names)} values identical")

    from . import quadrature  # numpy loads for large periodic sets; attributes are read per call, so wrappers apply

    try:
        quad = quadrature.quadrature_estimate(freqs, args.tolerance)
    except ToleranceError as exc:
        print(f"could not certify: {exc}", file=sys.stderr)
        return 3
    report = quadrature._compare(quad, rows[names[0]])
    print(
        f"quadrature ({quad.mode}, {quad.samples} samples): {quad.value!r}  vs exact {report.exact_value!r}\n"
        f"  |difference| = {report.difference:.3e}  <=  bound {quad.total_error_bound:.3e}: "
        f"{'pass' if report.passed else 'FAIL'}"
    )
    if not report.passed:
        print("verification failure: quadrature disagrees with the exact value", file=sys.stderr)
        return 2
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sincprod",
        description="Exact sinc-product integrals as rational multiples of pi.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # parent parsers for the options that several commands take, each declared once with one help text
    freqs, digits, as_json = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    freqs.add_argument("freqs", nargs="*", help="frequencies as n, n/d or finite decimals")
    freqs.add_argument("--file", help="read frequencies from a file, one per line")
    digits.add_argument("--digits", type=int, default=15, help="decimal digits of coefficient*pi")
    as_json.add_argument("--json", action="store_true", help="emit one JSON object")

    integrate = sub.add_parser("integrate", parents=[freqs, digits, as_json], help="compute the exact pi-coefficient")
    integrate.add_argument(
        "--strategy", choices=[s.value for s in EnumerationStrategy], help="force an engine strategy"
    )
    integrate.add_argument("--no-verify", action="store_true", help="skip closed-form re-verification")
    integrate.set_defaults(func=_cmd_integrate)

    sub.add_parser(
        "classify", parents=[freqs, as_json], help="dominance classification with exact inequalities"
    ).set_defaults(func=_cmd_classify)

    table = sub.add_parser("classic-table", parents=[digits, as_json], help="table for the family 1, 1/3, 1/5, ...")
    table.add_argument("--max-n", type=int, default=8, help="number of rows (1..12)")
    table.set_defaults(func=_cmd_classic_table)

    verify = sub.add_parser("verify", parents=[freqs], help="cross-validate every route to the value")
    verify.add_argument("--tolerance", type=float, default=1e-8, help="quadrature target (>= 1e-10)")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits on its own errors and --help
        return 0 if not exc.code else 1
    try:
        # one check for every command that prints decimals, made before any engine work
        if getattr(args, "digits", 0) < 0:
            raise SincprodError("digits must be non-negative")
        code = args.func(args)
        sys.stdout.flush()  # a reader that left early shows here, not at exit
        return code
    except BrokenPipeError:
        # Python's own idiom: point stdout at devnull so the flush at exit
        # does not fail again, and exit 1 as Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except SincprodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
