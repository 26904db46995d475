"""Spans around sincprod's public functions, recorded from the benchmark side.

`install` replaces each public function with a timing wrapper in every
loaded ``sincprod`` module that binds it, so a call from ``closed_forms`` or
``quadrature`` into ``engine`` opens a span nested under its caller. Spans
stay in memory (name, start, end, parent, op id, attributes) until the run
writes them out; self time is a span minus the spans directly under it.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store; `op` is the id stamped on every new span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._open: list[int] = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), parent, self.op)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def adopt(self, exported: list, parent: Span) -> None:
        """Add spans exported by a child process under `parent`.

        perf_counter is the system-wide monotonic clock on Linux, so the
        child's timestamps are on the same axis as ours.
        """
        base = len(self.spans)
        parent_index = self.spans.index(parent)
        for name, start, end, up, attrs in exported:
            span = Span(name, start, parent_index if up is None else base + up, parent.op)
            span.end = end
            span.attrs = attrs
            self.spans.append(span)

    def export(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.attrs] for s in self.spans]


def _strategy_of(args, kwargs, default):
    if len(args) > 1:
        return args[1]
    return kwargs.get("strategy", default)


def _traced(tracer: Tracer, name, fn, describe=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            tracer.finish(span)
        if describe is not None:
            span.attrs.update(describe(args, result))
        return result

    return wrapper


def _targets(pkg):
    core, closed_forms, engine, quadrature = pkg.core, pkg.closed_forms, pkg.engine, pkg.quadrature
    default_strategy = engine.EnumerationStrategy.BRUTE_FORCE
    formula = "closed_forms.formula"
    targets = [
        (core, "parse_rational", "core.parse", None),
        (core, "frequency_list", "core.parse", None),
        (core, "load_frequency_file", "core.parse", None),
        (closed_forms, "classify_dominance", "closed_forms.classify", None),
        (
            closed_forms,
            "evaluate",
            "closed_forms.evaluate",
            lambda args, r: {"provenance": r.provenance},
        ),
        (closed_forms, "first_dominant_value", formula, None),
        (closed_forms, "first_dominant_correction", formula, None),
        (closed_forms, "three_dominant_value", formula, None),
        (closed_forms, "three_dominant_equal_first_two", formula, None),
        (closed_forms, "three_frequency_value", formula, None),
        (
            engine,
            "signed_moment_sum",
            lambda args, kw: "engine." + _strategy_of(args, kw, default_strategy).value,
            lambda args, r: {
                "n": args[0].n,
                "bits": r.numerator.bit_length(),
                "values": [str(a) for a in args[0].sorted_entries],
            },
        ),
        (
            quadrature,
            "quadrature_estimate",
            "quadrature.estimate",
            lambda args, r: {"R": r.R, "tail": r.tail_bound, "bound": r.total_error_bound},
        ),
        (
            quadrature,
            "crosscheck",
            "quadrature.crosscheck",
            lambda args, r: {"difference": r.difference, "bound": r.quadrature.total_error_bound},
        ),
    ]
    cli = sys.modules.get(pkg.__name__ + ".cli")
    if cli is not None:
        targets.append((cli, "main", "cli.main", None))
    return targets


@contextlib.contextmanager
def install(tracer: Tracer, pkg):
    """Wrap sincprod's public functions for the duration of the block."""
    modules = [m for name, m in sys.modules.items() if name == pkg.__name__ or name.startswith(pkg.__name__ + ".")]
    replaced = []
    for home, attr, name, describe in _targets(pkg):
        original = getattr(home, attr)
        wrapper = _traced(tracer, name, original, describe)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                replaced.append((module, attr, original))
    pi_multiple = pkg.core.PiMultiple
    original_decimal = pi_multiple.decimal
    pi_multiple.decimal = _traced(tracer, "core.decimal", original_decimal)
    try:
        yield tracer
    finally:
        pi_multiple.decimal = original_decimal
        for module, attr, original in replaced:
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.seconds
    return [s.seconds - c for s, c in zip(spans, covered)]


def _mitm_patterns(n: int) -> int:
    return 2 ** (n - n // 2) + 2 ** (n // 2)


PATTERNS = {
    "brute": lambda n: 2**n,
    "mirror": lambda n: 2 ** (n - 1),
    "mitm": _mitm_patterns,
}

CLOSED_FORM_ROUTES = ("first-dominant", "first-dominant-correction", "three-dominant")

PER_OP_TIMES = (
    "cli.main_s",
    "core.parse_s",
    "core.decimal_s",
    "closed_forms.classify_s",
    "closed_forms.formula_s",
    "closed_forms.reverify_s",
    "engine.brute_s",
    "engine.mirror_s",
    "engine.mitm_s",
    "quadrature.estimate_s",
    "quadrature.exact_s",
)

ROUTES = (*CLOSED_FORM_ROUTES, "engine:brute", "engine:mitm")

PER_ROUND_COUNTS = (
    *("closed_forms.route." + route.replace(":", "-") for route in ROUTES),
    *(f"engine.calls.{strategy}" for strategy in PATTERNS),
    "engine.patterns",
    "quadrature.tolerance_errors",
)

MEANS = (
    "engine.result_bits",
    "engine.halfsum_distinct_ratio",
    "quadrature.R_log10",
    "quadrature.tail_share",
    "quadrature.margin",
)


def layer_metrics(spans: list[Span], ops: int, rounds: int, distinct_ratio) -> dict[str, float]:
    """Per-layer figures from one traced phase.

    Times are self seconds per op; counts are per round, so they repeat
    exactly for a fixed round design. `distinct_ratio(values)` gives the
    share of distinct half-sums of a frequency list. Routes and strategies
    the benchmark does not name yet are left out.
    """
    own = self_times(spans)
    per_op = defaultdict(float)
    per_round = defaultdict(float)
    means = defaultdict(list)

    estimate_seconds = defaultdict(float)
    for span in spans:
        if span.name == "quadrature.estimate" and span.parent is not None:
            estimate_seconds[span.parent] += span.seconds

    def closed_form_ancestor(index):
        while index is not None:
            span = spans[index]
            if span.name == "closed_forms.evaluate":
                return span.attrs.get("provenance") in CLOSED_FORM_ROUTES
            index = span.parent
        return False

    for i, span in enumerate(spans):
        name = span.name
        if name in ("cli.main", "core.parse", "core.decimal", "closed_forms.classify", "closed_forms.formula"):
            per_op[name + "_s"] += own[i]
        elif name == "closed_forms.evaluate" and "provenance" in span.attrs:
            per_round["closed_forms.route." + span.attrs["provenance"].replace(":", "-")] += 1
        elif name.startswith("engine."):
            strategy = name.split(".", 1)[1]
            per_op[name + "_s"] += own[i]
            per_round["engine.calls." + strategy] += 1
            if "n" in span.attrs and strategy in PATTERNS:
                n = span.attrs["n"]
                per_round["engine.patterns"] += PATTERNS[strategy](n)
                means["engine.result_bits"].append(span.attrs["bits"])
                if n >= 2:
                    means["engine.halfsum_distinct_ratio"].append(distinct_ratio(span.attrs["values"]))
            if closed_form_ancestor(span.parent):
                per_op["closed_forms.reverify_s"] += span.seconds
        elif name == "quadrature.estimate":
            per_op["quadrature.estimate_s"] += span.seconds
            if span.attrs.get("error") == "ToleranceError":
                per_round["quadrature.tolerance_errors"] += 1
            elif "R" in span.attrs:
                means["quadrature.R_log10"].append(math.log10(span.attrs["R"]))
                means["quadrature.tail_share"].append(span.attrs["tail"] / span.attrs["bound"])
        elif name == "quadrature.crosscheck":
            per_op["quadrature.exact_s"] += span.seconds - estimate_seconds[i]
            if "bound" in span.attrs:
                means["quadrature.margin"].append(span.attrs["difference"] / span.attrs["bound"])

    out = {name: per_op[name] / ops for name in PER_OP_TIMES}
    out.update({name: per_round[name] / rounds for name in PER_ROUND_COUNTS})
    # a mean over no samples (a layer this workload never enters) reads 0
    out.update({name: sum(means[name]) / len(means[name]) if means[name] else 0.0 for name in MEANS})
    return out
