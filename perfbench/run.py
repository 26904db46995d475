#!/usr/bin/env python3
"""sincprod benchmark: seeded workloads, one closed-loop client, a correctness gate.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact-distinct --seed 1 --seconds 20 --trace 0

Workloads: cli-desk, exact-distinct, exact-repeated, oracle-verify (see
perfbench/README.md). One client waits for each answer before sending the
next request. A run measures whole rounds until --seconds have passed, then
checks every answer untimed, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 gives the
end-to-end metrics; --trace 1 runs each round untraced and then traced and
gives the per-layer metrics, including the tracing overhead. Metric names
and units come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5  # fresh interpreters per run; setup_s is their median
PROBE_REPEATS = 3  # interpreter-start and import probes in a traced run
CHILD_TIMEOUT_S = 120

MEASUREMENT_LIMITS = (
    "no CPU pinning; file cache not controlled (warm after the first import); "
    "machine shared with other workloads; one client, one process at a time"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def load_sincprod():
    """Import sincprod from this checkout's src/, never from site-packages."""
    init = ROOT / "src" / "sincprod" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no sincprod sources at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(init.parent.parent))
    import sincprod

    if Path(sincprod.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported sincprod from {sincprod.__file__}, not {init}")
    return sincprod


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(args, env) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {args[:3]} exited {proc.returncode}: {proc.stderr[-500:]}")
    return seconds, proc


def setup_seconds(workload, env) -> float:
    """Median wall time of a fresh interpreter importing sincprod and running one warm-up op."""
    code = workload.setup_code()
    return statistics.median(run_child([sys.executable, "-c", code], env)[0] for _ in range(SETUP_REPEATS))


def _import_breakdown(stderr: str) -> dict[str, float]:
    """Seconds in sincprod's import, and in the outermost numpy/scipy and mpmath imports.

    -X importtime prints children before their parent, indented by depth;
    reading it backwards visits each parent before its children.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line[13:] or "cumulative" in line:
            continue
        _, cumulative, name = line[12:].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cumulative) / 1e6, name.strip()))
    totals = {"cli.import_s": 0.0, "cli.import_numeric_s": 0.0, "cli.import_mpmath_s": 0.0}
    inside = []  # stack of (depth, group) for open numeric/mpmath imports
    for depth, seconds, name in reversed(rows):
        while inside and inside[-1][0] >= depth:
            inside.pop()
        root = name.split(".")[0]
        group = {"numpy": "numeric", "scipy": "numeric", "mpmath": "mpmath"}.get(root)
        if name == "sincprod":
            totals["cli.import_s"] += seconds
        if group and not any(g == group for _, g in inside):
            totals[f"cli.import_{group}_s"] += seconds
        if group:
            inside.append((depth, group))
    return totals


def import_probes(env) -> dict[str, float]:
    samples = []
    count = "import sys; before = len(sys.modules); import sincprod; print(len(sys.modules) - before)"
    for _ in range(PROBE_REPEATS):
        _, proc = run_child([sys.executable, "-X", "importtime", "-c", count], env)
        sample = _import_breakdown(proc.stderr)
        sample["cli.modules_loaded"] = float(proc.stdout.strip())
        sample["cli.interp_start_s"] = run_child([sys.executable, "-c", "pass"], env)[0]
        samples.append(sample)
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def measure(workload, seconds):
    """Closed loop: whole rounds until `seconds` of wall time have passed."""
    outcomes, rounds = [], 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for op in workload.round(rounds):
            outcomes.append((op, workload.run(op)))
        rounds += 1
    return outcomes, rounds


def measure_traced(workload, seconds, pkg, tracer):
    """Each op runs untraced and then traced, back to back, so machine drift hits both alike."""
    import tracing

    untraced, traced, rounds = [], [], 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for i, op in enumerate(workload.round(rounds)):
            untraced.append((op, workload.run(op)))
            with tracing.install(tracer, pkg):
                tracer.op = f"{rounds}.{i}"
                span = tracer.begin("op." + op.kind)
                outcome = workload.run(op, traced=True)
                tracer.finish(span)
            if outcome.spans:
                tracer.adopt(outcome.spans, span)
            traced.append((op, outcome))
        rounds += 1
    return untraced, traced, rounds


def apply_gate(workload, outcomes) -> None:
    for op, outcome in outcomes:
        if outcome.error:
            continue
        try:
            outcome.problems = workload.check(op, outcome)
        except (KeyError, ValueError, IndexError, StopIteration, TypeError) as exc:
            outcome.problems = [f"gate could not read the answer: {type(exc).__name__}: {exc}"]


def context(pkg) -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "mpmath"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "sincprod": getattr(pkg, "__version__", None),
        **versions,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "measurement_limits": MEASUREMENT_LIMITS,
    }


def properties(outcomes, gate) -> dict:
    """Input and route properties: the share of ops per route, mean half-sum ratio."""
    routes = {}
    for op, outcome in outcomes:
        route = getattr(outcome.result, "provenance", None) or (op.argv[0] if op.argv else op.kind)
        routes[route] = routes.get(route, 0) + 1
    ratios = [gate.halfsum_distinct_ratio(op.values) for op, _ in outcomes if len(op.values) >= 2]
    return {
        "ops": len(outcomes),
        "route_share": {k: round(v / len(outcomes), 4) for k, v in sorted(routes.items())},
        "mean_halfsum_distinct_ratio": round(sum(ratios) / len(ratios), 4) if ratios else None,
    }


def emit(metrics: dict, trace: bool, outcomes) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise SystemExit(
            f"perfbench: metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(metrics))}, "
            f"unexpected {sorted(set(metrics) - set(units))}"
        )
    failed = sum(o.failed for _, o in outcomes)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(outcomes),
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
        )
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    pkg = load_sincprod()
    sys.path.insert(0, str(HERE))
    import gate
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = child_env()
    workload = WORKLOADS[args.workload](pkg, ROOT, args.seed, env)

    if not args.trace:
        setup = setup_seconds(workload, env)
        workload.run(workload.warmup_op())
        outcomes, rounds = measure(workload, args.seconds)
        rss = peak_rss_mb(workload)
        apply_gate(workload, outcomes)
        latencies = [o.seconds for _, o in outcomes]
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        metrics = {
            "latency_p50_s": deciles[4],
            "latency_p90_s": deciles[8],
            "throughput_ops_s": len(latencies) / sum(latencies),
            "success_frac": sum(not o.failed for _, o in outcomes) / len(outcomes),
            "setup_s": setup,
            "peak_rss_mb": rss,
        }
    else:
        probes = import_probes(env)
        workload.run(workload.warmup_op())
        tracer = tracing.Tracer()
        untraced, traced, rounds = measure_traced(workload, args.seconds, pkg, tracer)
        outcomes = untraced + traced
        apply_gate(workload, outcomes)
        metrics = tracing.layer_metrics(tracer.spans, len(traced), rounds, gate.halfsum_distinct_ratio)
        metrics.update(probes)
        metrics["trace.overhead_frac"] = sum(o.seconds for _, o in traced) / sum(o.seconds for _, o in untraced) - 1
        metrics["workload.ops_per_round"] = len(traced) / rounds
        metrics["gate.wrong"] = float(sum(bool(o.problems) for _, o in outcomes))
        metrics["gate.errors"] = float(sum(bool(o.error) for _, o in outcomes))
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        with open(out / f"trace-{args.workload}-seed{args.seed}.jsonl", "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"context": context(pkg), "workload": args.workload, "seed": args.seed}) + "\n")
            for s in tracer.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.attrs]) + "\n")

    for op, outcome in outcomes:
        if outcome.failed:
            what = " ".join(op.argv) or ", ".join(map(str, op.values))
            print(f"perfbench: FAILED {op.kind} {what}: {outcome.error or outcome.problems[0]}", file=sys.stderr)
    print(json.dumps({"context": context(pkg), "rounds": rounds, "properties": properties(outcomes, gate)}))
    emit(metrics, bool(args.trace), outcomes)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
