"""One benchmark client: set up a workload, run it as a closed loop, report.

Started by ``run.py`` in its own process, with ``PYTHONPATH`` pointing at the
checkout's ``src``.  The last line of its standard output is one JSON
object.  Set-up time runs from just before ``import hiddencluster`` to the
end of input generation, so the modules imported at the top use only the
standard library.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from layers import per_layer_metrics
from spans import Tracer


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    return parser.parse_args(argv)


class Loop:
    """Closed loop over a workload's cycle: one op at a time, checked after."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def cycle(self, tracer, pass_id: str) -> float:
        """Run every op of the cycle once; return the summed op time in ms."""
        total = 0.0
        for index, op in enumerate(self.workload.items):
            self.attempted += 1
            try:
                elapsed, reason = self.attempt(op, tracer, f"{pass_id}-{index}")
            except Exception as err:  # a failing op is counted, not fatal
                reason = f"{type(err).__name__}: {err}"
            if reason is not None:
                self.failures.append(f"op {index}: {reason}")
                continue
            self.latencies_ms.append(elapsed)
            total += elapsed
        return total

    def attempt(self, op, tracer, op_id: str) -> tuple[float, str | None]:
        """Time one op, then check it; its output is freed before the next op."""
        start = time.perf_counter()
        with tracer.op(f"op.{self.workload.name}", op_id):
            out = self.workload.run(op, tracer)
        elapsed = (time.perf_counter() - start) * 1e3
        return elapsed, self.workload.check(op, out)


def peak_rss_mb(include_children: bool) -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return rss / 1024.0


def measure(loop: Loop, seconds: float) -> dict:
    untraced = Tracer(False)
    deadline = time.perf_counter() + seconds
    for cycles in itertools.count(1):
        loop.cycle(untraced, f"c{cycles}")
        if time.perf_counter() >= deadline:
            break
    return {
        "latencies_ms": loop.latencies_ms,
        "cycles": cycles,
        "peak_rss_mb": peak_rss_mb(include_children=loop.workload.name == "cli"),
    }


def trace(loop: Loop, seconds: float, rng, workdir: Path, smoke: bool, spans_path) -> dict:
    """Sweep every layer traced, then alternate untraced and traced cycles."""
    from sweep import run_sweep

    deadline = time.perf_counter() + seconds
    traced = Tracer(True)
    cli_import_ms = run_sweep(traced, rng, workdir, smoke)
    untraced, sweep_spans = Tracer(False), len(traced.spans)
    ratios = []
    for pairs in itertools.count(1):
        if pairs % 2:
            plain = loop.cycle(untraced, f"u{pairs}")
            with_spans = loop.cycle(traced, f"t{pairs}")
        else:
            with_spans = loop.cycle(traced, f"t{pairs}")
            plain = loop.cycle(untraced, f"u{pairs}")
        if plain > 0.0:
            ratios.append(with_spans / plain)
        if time.perf_counter() >= deadline:
            break
    for span in traced.spans[sweep_spans:]:
        span["weight"] = 1.0 / pairs
    if spans_path is not None:
        traced.dump(spans_path)
    metrics = per_layer_metrics(traced.spans, cli_import_ms, statistics.median(ratios))
    return {"per_layer": metrics, "pairs": pairs}


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    import hiddencluster

    expected = Path(os.environ["BENCH_SRC"]).resolve() / "hiddencluster"
    if Path(hiddencluster.__file__).resolve().parent != expected:
        print(f"hiddencluster imported from {hiddencluster.__file__}, not {expected}",
              file=sys.stderr)
        return 2
    import numpy as np

    from workloads import WORKLOADS

    workload_type = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    ladder = workload_type.SMOKE if args.smoke else workload_type.LADDER
    workload = workload_type(rng, ladder, args.workdir)
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s, "numpy": np.__version__}
    if not args.setup_only:
        loop = Loop(workload)
        if args.trace:
            result.update(trace(loop, args.seconds, rng, args.workdir, args.smoke, args.spans))
        else:
            result.update(measure(loop, args.seconds))
        result.update(attempted=loop.attempted, failures=loop.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
