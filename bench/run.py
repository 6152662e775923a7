"""Benchmark of the hiddencluster library and CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {wire,lattice,oracle,cli} --seed N \\
        --seconds S --trace {0,1} [--smoke]

One client runs the workload as a closed loop in its own process
(``worker.py``), importing the package from the checkout's ``src``.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run.  ``--smoke`` runs every workload at its smallest sizes.
Every run appends a record to ``.bench_out/runs.jsonl``; traced runs also
write their spans there.  See ``bench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import REFERENCES
from layers import UNITS as PER_LAYER_UNITS

# BENCHMARK.json lists oracle and cli; wire and lattice run by hand (see bench/README.md)
WORKLOADS = ("wire", "lattice", "oracle", "cli")
SETUP_SAMPLES = 8
TIME_LIMIT_S = 170.0
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="smallest sizes, one setup sample")
    return parser.parse_args(argv)


def worker_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["BENCH_SRC"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    env.update({name: "1" for name in THREAD_VARIABLES})
    env.pop("HIDDENCLUSTER_SEED", None)
    # users import from compiled bytecode, so let Python cache it in the checkout
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_worker(args, extra: list, env: dict, workdir: Path, deadline: float) -> dict:
    command = [
        sys.executable, str(Path(__file__).with_name("worker.py")),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), *(["--smoke"] if args.smoke else []), *extra,
    ]
    proc = subprocess.run(command, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond); with ten samples or fewer
    it falls back to the maximum.
    """
    ordered = sorted(latencies)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, str]:
    latencies = result["latencies_ms"]
    if not latencies:
        raise RuntimeError("no op completed: " + "; ".join(result["failures"][:3]))
    value, percentile, beyond = tail(latencies)
    attempted = result["attempted"]
    values = {
        "ops_per_s": len(latencies) / (sum(latencies) / 1e3),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "success_ratio": (attempted - len(result["failures"])) / attempted,
    }
    note = (f"op_tail_ms is p{percentile:.1f} of {len(latencies)} ops ({beyond} beyond); "
            f"failed_ratio {len(result['failures']) / attempted:.4g}; "
            f"{result['cycles']} cycles; setup samples {len(setups)}")
    return values, note


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "hiddencluster" / "__init__.py").is_file():
        print(f"error: no hiddencluster package under {src}", file=sys.stderr)
        return 2
    out = root / ".bench_out"
    workdir = out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    env = worker_env(src)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        # Set-up-only clients run on both sides of the measured one, so one
        # slow stretch of the host does not set the median set-up time.
        samples = 0 if args.trace else 1 if args.smoke else SETUP_SAMPLES
        setups = [run_worker(args, ["--setup-only"], env, workdir, deadline)["setup_s"]
                  for _ in range(samples // 2)]
        spans = out / f"spans-{run_id}.jsonl"
        extra = ["--spans", str(spans)] if args.trace else []
        result = run_worker(args, extra, env, workdir, deadline)
        setups += [run_worker(args, ["--setup-only"], env, workdir, deadline)["setup_s"]
                   for _ in range(samples - samples // 2)]
        if args.trace:
            values, units = result["per_layer"], PER_LAYER_UNITS
            note = f"{result['pairs']} untraced/traced pairs; spans in {spans.relative_to(root)}"
        else:
            setups.append(result["setup_s"])
            (values, note), units = end_to_end(result, setups), END_TO_END_UNITS
    except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} missing or unexpected",
              file=sys.stderr)
        return 1

    failed = len(result["failures"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "time": time.time(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": result["numpy"],
        "blas_threads": {name: "1" for name in THREAD_VARIABLES},
        "setup_samples_s": setups, "attempted": result["attempted"], "failed": failed,
        "failures": result["failures"][:10], "note": note, "metrics": values,
        "latencies_ms": result.get("latencies_ms"),
    }
    with open(out / "runs.jsonl", "a", encoding="utf-8") as runs:
        runs.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"# {run_id}: nproc {record['nproc']}, python {record['python']}, "
          f"numpy {record['numpy']}, BLAS threads 1")
    print(f"# {note}")
    for failure in result["failures"][:10]:
        print(f"# FAILED {failure}")
    for name in units:
        beside = f"   (ROADMAP baseline {REFERENCES[name][1]:g} ms)" if name in REFERENCES else ""
        print(f"# {name} = {values[name]:.6g} {units[name]}{beside}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
