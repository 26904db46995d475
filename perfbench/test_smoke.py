"""Smoke test: every workload emits every metric named in BENCHMARK.json, with its unit.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q

Each case is one short run (--seconds 1 still measures one whole round).
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(wanted)
    for name, unit in wanted.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit, name
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name


def test_same_seed_same_inputs():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import sincprod
    from workloads import WORKLOADS

    for cls in WORKLOADS.values():
        first, second = (cls(sincprod, ROOT, 3, {}).round(0) for _ in range(2))
        assert first == second
        assert first != cls(sincprod, ROOT, 4, {}).round(0)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "exact-distinct", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
