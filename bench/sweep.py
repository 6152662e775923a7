"""Layer sweep: every layer once at a fixed ladder of sizes, traced.

The traced run of every workload starts with this sweep, so each per-layer
metric has spans at several sizes (for the growth fits) and at the
reference sizes that ROADMAP's baseline table quotes.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import hiddencluster as hc
from workloads import (
    Cli,
    Lattice,
    LatticeOp,
    Oracle,
    OracleOp,
    Wire,
    WireOp,
    chain,
    grid,
    positions,
    random_label,
)

WIRE_SIZES = (50, 100, 200, 400)
GRID_SIDES = (10, 20, 30)
ORACLE_GRIDS = (2, 3, 4)
SMOKE_WIRE_SIZES, SMOKE_GRID_SIDES, SMOKE_ORACLE_GRIDS = (4, 6), (2, 3), (2,)
IMPORT_SAMPLES = 3

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import hiddencluster.cli; "
    "print(time.perf_counter() - t)"
)


def import_ms(samples: int) -> float:
    """Median wall time of ``import hiddencluster.cli`` in fresh interpreters."""
    times = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                             text=True, check=True, timeout=60)
        times.append(float(out.stdout) * 1e3)
    return statistics.median(times)


def run_sweep(tracer, rng: np.random.Generator, workdir: Path, smoke: bool) -> float:
    """Trace one pass over every layer; return the CLI import time in ms."""
    wire_sizes = SMOKE_WIRE_SIZES if smoke else WIRE_SIZES
    sides = SMOKE_GRID_SIDES if smoke else GRID_SIDES
    oracle_grids = SMOKE_ORACLE_GRIDS if smoke else ORACLE_GRIDS

    runs = []
    for n in wire_sizes:
        label = random_label(rng)
        specs = [hc.momentum()] * (n - 1) + [hc.gkp_labeled(*label)]
        runs.append((Wire, WireOp(n, n - 1, chain(n), specs, label, n - 1)))
    for side in sides:
        runs.append((Lattice, LatticeOp(side, side, grid(side, side), [hc.momentum()] * side**2)))
    for n in oracle_grids:
        specs = [hc.momentum()] * 4
        runs.append((Oracle, OracleOp(n, 4, "chain", chain(4), specs, random_label(rng),
                                      positions(rng, Oracle.POSITIONS))))
    for index, (workload, op) in enumerate(runs):
        with tracer.op(f"sweep.{workload.name}", f"sweep-{index}"):
            workload.run(op, tracer)

    # its own directory, so the workload's input files stay as written
    (workdir / "sweep").mkdir(exist_ok=True)
    cli = Cli(rng, Cli.SMOKE if smoke else Cli.LADDER, workdir / "sweep")
    seen = set()
    for op in cli.items:
        if op.exit_code == 0 and op.command not in seen:
            seen.add(op.command)
            with tracer.op("sweep.cli", f"sweep-cli-{op.command}"):
                cli.run(op, tracer)
    return import_ms(1 if smoke else IMPORT_SAMPLES)
