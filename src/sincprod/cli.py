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
from typing import NamedTuple, Optional, Sequence

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

# The value types are NamedTuples because importing dataclasses pulls in inspect, ast and dis,
# and json is imported in the --json branches only: a plain exact call loads neither.


class OutputRecord(NamedTuple):
    freqs: list[str]
    n: int
    coefficient: str
    decimal: str
    classification: str
    provenance: str
    verified: Optional[dict] = None


def _record(freqs: FrequencyList, value, classification, provenance: str, digits: int, verified=None) -> OutputRecord:
    return OutputRecord(
        freqs=[format_rational(a) for a in freqs.entries],
        n=freqs.n,
        coefficient=format_rational(value.coefficient),
        decimal=value.decimal(digits),
        classification=classification.tag.value,
        provenance=provenance,
        verified=verified,
    )


def _print_record(record: OutputRecord, as_json: bool) -> None:
    if as_json:
        import json

        print(json.dumps(record._asdict(), indent=2))
        return
    print(f"frequencies: {', '.join(record.freqs)}  (n = {record.n})")
    print(f"coefficient: {record.coefficient}")
    print(f"value: {record.decimal}  (coefficient * pi)")
    print(f"classification: {record.classification}")
    print(f"provenance: {record.provenance}")


def _freqs_from_args(args: argparse.Namespace) -> FrequencyList:
    if getattr(args, "file", None):
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
    _print_record(_record(freqs, value, classification, provenance, args.digits, verified), args.json)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    freqs = _freqs_from_args(args)
    cls = classify_dominance(freqs)
    if args.json:
        import json

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
        print(json.dumps(payload, indent=2))
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
        import json

        print(json.dumps({"rows": [r._asdict() for r in rows]}, indent=2))
        return 0
    coeff_width = max(len(r.coefficient) for r in rows)
    for row in rows:
        print(
            f"n = {row.n:2d}  coefficient = {row.coefficient:<{coeff_width}}  "
            f"value = {row.decimal}  [{row.classification}]"
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    freqs = _freqs_from_args(args)
    if freqs.n < 2:
        raise SincprodError("verify needs at least two frequencies (quadrature excludes n = 1)")
    if not math.isfinite(args.tolerance):
        raise SincprodError(f"--tolerance must be a finite number of at least 1e-10, got {args.tolerance}")
    if args.tolerance < 1e-10:
        raise SincprodError(f"--tolerance must be at least 1e-10, got {args.tolerance}")

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

    mismatches = []
    if len(names) > 1:
        print("pairwise agreement:")
        header = "  ".join(f"[{index[name]}]" for name in names)
        print(f"  {'':{width + 4}}  {header}")
        for i, row in enumerate(names):
            agree = [rows[row] == rows[col] for col in names]
            mismatches += [(row, names[j]) for j in range(i + 1, len(names)) if not agree[j]]
            cells = "  ".join(f"{'=' if same else 'X':^3}" for same in agree)
            print(f"  [{index[row]}] {row:<{width}}  {cells}")
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

    integrate = sub.add_parser("integrate", help="compute the exact pi-coefficient")
    integrate.add_argument("freqs", nargs="*", help="frequencies as n, n/d or finite decimals")
    integrate.add_argument("--file", help="read frequencies from a file, one per line")
    integrate.add_argument(
        "--strategy",
        choices=[s.value for s in EnumerationStrategy],
        help="force an engine strategy",
    )
    integrate.add_argument("--digits", type=int, default=15, help="decimal digits of coefficient*pi")
    integrate.add_argument("--json", action="store_true", help="emit one JSON object")
    integrate.add_argument("--no-verify", action="store_true", help="skip closed-form re-verification")
    integrate.set_defaults(func=_cmd_integrate)

    classify = sub.add_parser("classify", help="dominance classification with exact inequalities")
    classify.add_argument("freqs", nargs="*")
    classify.add_argument("--file", help="read frequencies from a file")
    classify.add_argument("--json", action="store_true")
    classify.set_defaults(func=_cmd_classify)

    table = sub.add_parser("classic-table", help="table for the family 1, 1/3, 1/5, ...")
    table.add_argument("--max-n", type=int, default=8, help="number of rows (1..12)")
    table.add_argument("--digits", type=int, default=15)
    table.add_argument("--json", action="store_true")
    table.set_defaults(func=_cmd_classic_table)

    verify = sub.add_parser("verify", help="cross-validate every route to the value")
    verify.add_argument("freqs", nargs="*")
    verify.add_argument("--file", help="read frequencies from a file")
    verify.add_argument("--tolerance", type=float, default=1e-8, help="quadrature target (>= 1e-10)")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits on its own errors and --help
        return 0 if not exc.code else 1
    try:
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
