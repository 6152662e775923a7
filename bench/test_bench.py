"""Tests of the benchmark itself: smoke runs of every workload and the span maths.

Run from the repository root with ``python -m pytest bench``.  The smoke
runs use the smallest sizes, so they check wiring and metric names, not
speed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from run import WORKLOADS, tail  # noqa: E402
from spans import Tracer, growth_exponent, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_same_seed_gives_same_inputs(tmp_path):
    import numpy as np

    from workloads import WORKLOADS as TYPES

    def inputs(seed):
        workload = TYPES["wire"](np.random.default_rng(seed), TYPES["wire"].LADDER, tmp_path)
        return [(op.n, op.steps, op.input_mode, op.label) for op in workload.items]

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def test_self_time_subtracts_children():
    tracer = Tracer(True)
    with tracer.op("op", "a"):
        tracer.call("layer.f", sum, [1, 2])
    parent, child = tracer.spans
    parent["start"], parent["end"] = 0, 100
    child["start"], child["end"] = 10, 40
    assert self_times(tracer.spans) == {parent["id"]: 70, child["id"]: 30}
    assert child["parent"] == parent["id"] and child["op"] == parent["op"] == "a"


def test_disabled_tracer_records_nothing():
    tracer = Tracer(False)
    with tracer.op("op", "a"):
        assert tracer.call("layer.f", max, 3, 4) == 4
        tracer.note(count=1)
    assert tracer.spans == []


def test_growth_exponent_of_a_quadratic():
    sizes = [10, 20, 40, 80]
    assert growth_exponent(sizes, [3e-6 * n**2 for n in sizes]) == pytest.approx(2.0)


def test_tail_keeps_ten_samples_beyond():
    value, percentile, beyond = tail([float(i) for i in range(1, 51)])
    assert (value, percentile, beyond) == (40.0, 80.0, 10)
    assert tail([5.0, 1.0])[0] == 5.0
