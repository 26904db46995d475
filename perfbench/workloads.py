"""The four seeded workloads and the one operation each of them times.

A workload is a fixed *round*: a tuple of (shape, size) slots. Each round
shuffles the slots and fills them with fresh values from
``random.Random(f"{name}:{seed}:{round}")``, so the same seed gives the same
inputs, and the proportions of routes, strategies and sizes never change.
Runs measure whole rounds; every run therefore sees the same mix, and the
percentiles land in the same place of it. The program only ever sees the
generated frequency lists (or CLI arguments).
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from time import perf_counter as time_now
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import gate

PRIMES = tuple(p for p in range(2, 1000) if all(p % d for d in range(2, math.isqrt(p) + 1)))
REPEATED_ALPHABET = tuple(
    Fraction(a) for a in ("1", "1/2", "1/3", "2/3", "1/4", "3/4")
)


@dataclass(frozen=True)
class Op:
    kind: str  # "cli", "evaluate" or "crosscheck"
    values: tuple[Fraction, ...]
    argv: tuple[str, ...] = ()
    tolerance: float = 0.0
    freqs: object = field(default=None, compare=False)  # a FrequencyList, built untimed


@dataclass
class Outcome:
    seconds: float
    result: object = None  # Evaluation, CrosscheckReport or (exit code, stdout)
    error: str = ""
    problems: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # exported by a traced child process

    @property
    def failed(self) -> bool:
        return bool(self.error or self.problems)


def _text(values) -> list[str]:
    return [str(a) for a in values]


def coprime_fractions(rng, n):
    """n values p/d in (0, 1) whose denominators are the first n primes.

    No two sign patterns give the same signed sum. Fixing the denominators
    fixes the lcm, and with it the integer sizes the engine works on, so a
    slot costs about the same whatever the seed.
    """
    return [Fraction(rng.randint(1, d - 1), d) for d in PRIMES[:n]]


def first_dominant(rng, n):
    tail = coprime_fractions(rng, n - 1)
    return [Fraction(math.floor(sum(tail)) + 1 + rng.randint(0, 3)), *tail]


def first_dominant_boundary(rng, n):
    """a_1 beats all but the smallest of the rest, and loses once it joins."""
    tail = sorted(coprime_fractions(rng, n - 1), reverse=True)
    head = sum(tail[:-1])
    return [head + tail[-1] * Fraction(rng.randint(1, 9), 10), *tail]


def three_dominant(rng, n):
    """a_2 + a_3 - a_1 > a_4 + ... + a_n by construction."""
    tail = coprime_fractions(rng, n - 3)
    spare = math.floor(sum(tail)) + 1 + rng.randint(0, 2)  # a_3 - sum(tail) > 0
    a3 = Fraction(spare)
    a2 = a3 + rng.randint(0, 3)
    a1 = a2 + (a3 - sum(tail)) * Fraction(rng.randint(0, 9), 10)
    return [a1, a2, a3, *tail]


SHAPES = {
    "first-dominant": (first_dominant, "first-dominant"),
    "first-dominant-correction": (first_dominant_boundary, "first-dominant-boundary"),
    "three-dominant": (three_dominant, "three-dominant"),
    "engine": (coprime_fractions, "none"),
}


class Workload:
    name = ""
    in_process = True
    round_slots: tuple = ()

    def __init__(self, pkg, root: Path, seed: int, env: dict):
        self.pkg = pkg
        self.root = root
        self.seed = seed
        self.env = env

    def round(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        slots = list(self.round_slots)
        rng.shuffle(slots)
        return [self.make_op(rng, *slot) for slot in slots]

    def _list_op(self, kind, values, tolerance=0.0):
        return Op(kind, tuple(values), tolerance=tolerance, freqs=self.pkg.frequency_list(values))

    def warmup_op(self) -> Op:
        raise NotImplementedError

    def setup_code(self) -> str:
        """Python source for a fresh interpreter: import sincprod, run the warm-up op."""
        op = self.warmup_op()
        values = ", ".join(f"Fraction({str(a)!r})" for a in op.values)
        call = {
            "evaluate": "sincprod.evaluate(freqs)",
            "crosscheck": f"sincprod.crosscheck(freqs, {op.tolerance!r})",
        }[op.kind]
        return (
            "from fractions import Fraction\n"
            "import sincprod\n"
            f"freqs = sincprod.frequency_list([{values}])\n"
            f"{call}\n"
        )

    def run(self, op: Op, traced: bool = False) -> Outcome:
        """Time one op; an exception ends the op, not the run."""
        start = time_now()
        try:
            if op.kind == "evaluate":
                result = self.pkg.evaluate(op.freqs)
            else:
                result = self.pkg.crosscheck(op.freqs, op.tolerance)
        except Exception as exc:  # every failure is counted, none stops the run
            return Outcome(time_now() - start, error=f"{type(exc).__name__}: {exc}")
        return Outcome(time_now() - start, result)

    def check(self, op: Op, outcome: Outcome) -> list[str]:
        if op.kind == "evaluate":
            evaluation = outcome.result
            return gate.check_coefficient(
                op.values, evaluation.value.coefficient, evaluation.provenance, self.pkg
            )
        report = outcome.result
        strategy = "brute" if len(op.values) <= 20 else "mitm"
        problems = gate.check_coefficient(
            op.values, report.exact_coefficient, f"engine:{strategy}", self.pkg
        )
        if not report.passed:
            problems.append(
                f"oracle: |difference| {report.difference:.3e} exceeds bound "
                f"{report.quadrature.total_error_bound:.3e}"
            )
        return problems


class ExactDistinct(Workload):
    """In-process evaluate() on lists whose signed sums never coincide.

    The slots straddle the n = 20/21 switch from brute force to meet in the
    middle, and mix engine-route lists with closed-form lists, which are
    re-verified through the engine while n <= 20.
    """

    name = "exact-distinct"
    # Cost classes, cheapest first; the median falls inside the five n = 15
    # brute-force slots and the 90th percentile inside the three ~0.3 s slots.
    round_slots = (
        ("first-dominant", 21), ("first-dominant-correction", 22), ("three-dominant", 23),
        ("first-dominant", 24), ("first-dominant-correction", 25), ("three-dominant", 26),
        ("first-dominant", 26),
        ("engine", 14), ("first-dominant", 14),
        ("engine", 15), ("engine", 15), ("engine", 15), ("first-dominant", 15), ("first-dominant-correction", 15),
        ("engine", 16), ("three-dominant", 16), ("engine", 17), ("engine", 21), ("engine", 22), ("engine", 23),
        ("engine", 18), ("engine", 18), ("engine", 24),
        ("engine", 20),
    )

    def make_op(self, rng, shape, n):
        build, tag = SHAPES[shape]
        values = build(rng, n)
        assert gate.expected_tag(values) == tag, (shape, values)
        rng.shuffle(values)
        return self._list_op("evaluate", values)

    def warmup_op(self):
        return self._list_op("evaluate", coprime_fractions(random.Random(f"{self.name}:{self.seed}:warm-up"), 10))


class ExactRepeated(Workload):
    """In-process evaluate() on lists from a six-letter alphabet.

    Many signed sums are equal, so half-sum dedup or a grouped-sum dynamic
    program pays off here, where it cannot on exact-distinct.
    """

    name = "exact-repeated"
    # Every size twice: brute force (n <= 20) and meet in the middle
    # interleave into a ladder of costs about 1.3x apart, so when the
    # machine's speed changes during a run the percentiles shift smoothly,
    # as the mean does, instead of jumping between two speeds.
    round_slots = tuple(("alphabet", n) for n in (*range(16, 31), *range(16, 31), 16, 17))

    def make_op(self, rng, shape, n):
        values = [rng.choice(REPEATED_ALPHABET) for _ in range(n)]
        assert gate.expected_tag(values) == "none", values
        return self._list_op("evaluate", values)

    def warmup_op(self):
        rng = random.Random(f"{self.name}:{self.seed}:warm-up")
        return self._list_op("evaluate", [rng.choice(REPEATED_ALPHABET) for _ in range(10)])


# n = 2 pair classes: (denominator prime band, value band, tolerance). Each
# band is narrow so one class costs about the same whatever the seed; the
# far field's cost grows with lcm(d1, d2) * (a1 + a2).
PAIR_CLASSES = {
    "pair-small": ((60, 80), (0.6, 0.9), 1e-6),
    "pair-mid": ((400, 480), (0.2, 0.28), 1e-7),
    "pair-wide": ((850, 1000), (0.03, 0.045), 1e-8),
}


class OracleVerify(Workload):
    """In-process crosscheck(): the quadrature oracle against the exact value.

    n = 2 pairs go through the periodic Hurwitz-zeta far field with R up to
    about 5e11; n = 3..8 lists are cheap at 1e-9/1e-10. Inputs are never
    filtered by whether the oracle can certify them.
    """

    name = "oracle-verify"
    # The median falls inside the 21 n = 6..8 lists, the 90th percentile
    # inside the four pair-mid slots.
    round_slots = (
        *(("list", n) for n in (6, 7, 8) * 7),
        *(("list", 5),) * 3,
        ("list", 3), ("list", 3), ("list", 4), ("list", 4), ("classical", 0),
        ("pair-small", 2),
        *(("pair-mid", 2),) * 4,
        ("pair-wide", 2),
    )

    def make_op(self, rng, shape, n):
        if shape == "classical":
            values = [Fraction(1, 2 * j - 1) for j in range(1, rng.randint(3, 8) + 1)]
            return self._list_op("crosscheck", values, 1e-10)
        if shape == "list":
            # values in [1/2, 1] keep R, and so the cost, within a narrow range
            dens = [rng.randint(2, 12) for _ in range(n)]
            values = [Fraction(rng.randint((d + 1) // 2, d), d) for d in dens]
            return self._list_op("crosscheck", values, rng.choice((1e-9, 1e-10)))
        (d_lo, d_hi), (v_lo, v_hi), tolerance = PAIR_CLASSES[shape]
        dens = rng.sample([p for p in PRIMES if d_lo <= p <= d_hi], 2)
        values = [Fraction(rng.randint(max(1, math.ceil(v_lo * d)), math.floor(v_hi * d)), d) for d in dens]
        return self._list_op("crosscheck", values, tolerance)

    def warmup_op(self):
        return self._list_op("crosscheck", [Fraction(1), Fraction(1, 2), Fraction(1, 3)], 1e-9)


class CliDesk(Workload):
    """Fresh `python -m sincprod.cli` processes, one at a time.

    What a terminal user pays: interpreter start, import, argument parsing
    and formatting; the exact work is small.
    """

    name = "cli-desk"
    in_process = False
    round_slots = (
        ("integrate-classical", 0),
        ("integrate-json", 0),
        ("integrate-digits", 0),
        ("integrate", 0),
        ("classify", 0),
        ("classify-closed-form", 0),
        ("classic-table", 0),
        ("verify", 0),
    )

    def make_op(self, rng, shape, _):
        def small_list(lo, hi):
            return [Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(rng.randint(lo, hi))]

        if shape == "integrate-classical":
            values = [Fraction(1, 2 * j - 1) for j in range(1, rng.randint(1, 10) + 1)]
            rng.shuffle(values)
            argv = ["integrate", *_text(values)]
        elif shape == "integrate-json":
            values = small_list(1, 10)
            argv = ["integrate", *_text(values), "--json"]
        elif shape == "integrate-digits":
            values = small_list(1, 10)
            argv = ["integrate", *_text(values), "--digits", str(rng.randint(20, 60))]
        elif shape == "integrate":
            values = small_list(5, 10)
            argv = ["integrate", *_text(values)]
        elif shape == "classify":
            values = small_list(3, 8)
            argv = ["classify", *_text(values), *(["--json"] if rng.random() < 0.5 else [])]
        elif shape == "classify-closed-form":
            values = rng.choice((first_dominant, three_dominant))(rng, rng.randint(4, 8))
            rng.shuffle(values)
            argv = ["classify", *_text(values)]
        elif shape == "classic-table":
            values = ()
            argv = ["classic-table", "--max-n", str(rng.randint(8, 12)), *(["--json"] if rng.random() < 0.5 else [])]
        else:
            values = small_list(3, 5)
            argv = ["verify", *_text(values), "--tolerance", rng.choice(("1e-8", "1e-9"))]
        return Op("cli", tuple(values), tuple(argv))

    def warmup_op(self):
        return Op("cli", (Fraction(1), Fraction(1, 3), Fraction(1, 5)), ("integrate", "1", "1/3", "1/5"))

    def setup_code(self) -> str:
        argv = list(self.warmup_op().argv)
        return (
            "import contextlib, io\n"
            "import sincprod\n"
            "from sincprod.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    main({argv!r})\n"
        )

    def command(self, op: Op, traced: bool) -> list[str]:
        if traced:
            return [sys.executable, str(self.root / "perfbench" / "cli_child.py"), *op.argv]
        return [sys.executable, "-m", "sincprod.cli", *op.argv]

    def run(self, op: Op, traced: bool = False) -> Outcome:
        start = time_now()
        proc = subprocess.run(
            self.command(op, traced), cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120
        )
        seconds = time_now() - start
        code, out, err, spans = proc.returncode, proc.stdout, proc.stderr, []
        if traced and code == 0:
            child = json.loads(out)
            code, out, err, spans = child["code"], child["stdout"], child["stderr"], child["spans"]
        if code != 0:
            return Outcome(seconds, (code, out), error=f"exit {code}: {err.strip()[-300:]}", spans=spans)
        return Outcome(seconds, (code, out), spans=spans)

    def check(self, op: Op, outcome: Outcome) -> list[str]:
        _, out = outcome.result
        command = op.argv[0]
        as_json = "--json" in op.argv
        if command == "integrate":
            if as_json:
                record = json.loads(out)
                q, decimal, provenance = Fraction(record["coefficient"]), record["decimal"], record["provenance"]
            else:
                fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
                q, decimal, provenance = Fraction(fields["coefficient"]), fields["value"].split()[0], fields["provenance"]
            digits = int(op.argv[op.argv.index("--digits") + 1]) if "--digits" in op.argv else 15
            return gate.check_coefficient(op.values, q, provenance, self.pkg) + gate.check_decimal(q, decimal, digits)
        if command == "classify":
            if as_json:
                tag = json.loads(out)["classification"]
            else:
                tag = next(line.split(": ", 1)[1] for line in out.splitlines() if line.startswith("classification: "))
            want = gate.expected_tag(op.values)
            return [] if tag == want else [f"classify: got {tag}, expected {want}"]
        if command == "classic-table":
            if as_json:
                rows = [(Fraction(r["coefficient"]), r["decimal"], r["provenance"]) for r in json.loads(out)["rows"]]
            else:
                rows = []
                for line in out.splitlines():
                    parts = line.split()
                    rows.append((Fraction(parts[5]), parts[8], ""))
            problems = []
            for n, (q, decimal, provenance) in enumerate(rows, 1):
                values = [Fraction(1, 2 * j - 1) for j in range(1, n + 1)]
                problems += gate.check_coefficient(values, q, provenance, self.pkg)
                problems += gate.check_decimal(q, decimal, 15)
            want_rows = int(op.argv[op.argv.index("--max-n") + 1])
            if len(rows) != want_rows:
                problems.append(f"classic-table: {len(rows)} rows, expected {want_rows}")
            return problems
        # verify: every route agreed and the oracle certified the value
        lines = out.splitlines()
        brute = next(line.split()[-1] for line in lines if "engine:brute" in line and line.lstrip().startswith("[1]"))
        problems = gate.check_coefficient(op.values, Fraction(brute), "engine:brute", self.pkg)
        if not any(line.startswith("exact agreement: all") for line in lines):
            problems.append("verify: exact routes disagree")
        if not any(line.rstrip().endswith(": pass") for line in lines):
            problems.append("verify: the oracle did not certify the value")
        return problems


WORKLOADS = {w.name: w for w in (CliDesk, ExactDistinct, ExactRepeated, OracleVerify)}
