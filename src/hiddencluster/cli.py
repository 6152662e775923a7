"""Command-line frontend.

Exit codes: 0 success, 2 usage or bad input data, 3 I/O failure,
4 unsupported operation, 5 verification failure.  Every command is
deterministic given its inputs and the seed (flag ``--seed`` on ``verify``,
overridable through the ``HIDDENCLUSTER_SEED`` environment variable).

The frontend turns text into values and keeps its own policies (aliases,
grammars, the topology size cap, flag exclusivity, the seed variable); each
rule on a value, such as the bin size or the seed sign, is checked once by the
library call that owns it.  Bad input raises ``DomainError`` or ``GraphParseError``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path

from .errors import DomainError, GraphParseError, UnsupportedMeasurement, UnsupportedTopology
from .gates import (
    Topology,
    chain_topology,
    decompose_cz_multimode,
    decompose_cz_two_mode,
    grid_topology,
)
from .graphs import (
    ModeSpec,
    build_cluster,
    from_json,
    gkp_labeled,
    gkp_plus,
    momentum,
    norm_sq,
    render_dot,
    require_json_int,
    to_json,
)
from .measurement import LogicalFrame, WireRun, measure_p0, run_wire
from .modular import DEFAULT_ALPHA


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that also reads exponent notation, -inf and -nan as negative values.

    argparse takes only ``-<digits>`` and ``-<digits>.<digits>`` for negative
    numbers, so ``--g -1e-3`` or ``--g -inf`` would read the value as an
    unknown option.  No option here looks like a number, so widening the
    pattern (``-inf``, ``-infinity`` and ``-nan`` in any case, as ``float``
    reads them) is safe, and ``add_subparsers`` gives every subcommand this
    class.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
        )


def parse_alpha(text: str) -> float:
    if text.strip() == "sqrt_pi":
        return DEFAULT_ALPHA
    try:
        return float(text)
    except ValueError as err:
        raise DomainError(f"invalid bin size {text!r}") from err


def _parse_complex(token: str) -> complex:
    try:
        value = complex(token.strip().replace(" ", ""))
    except ValueError as err:
        raise DomainError(f"invalid amplitude {token!r}") from err
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise DomainError(f"amplitude {token!r} is not finite")
    return value


def parse_node_specs(text: str, n_modes: int) -> list[ModeSpec]:
    """Parse the per-mode node types: p | gkp+ | gkp:c0,c1.

    A single entry is broadcast to all ``n_modes`` modes (the build checks
    the count).  The two amplitudes of ``gkp:c0,c1`` may use any Python
    complex literal without commas.
    """
    tokens = [t.strip() for t in text.split(",")]
    specs: list[ModeSpec] = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token == "p":
            specs.append(momentum())
        elif token in ("gkp+", "gkp:+"):
            specs.append(gkp_plus())
        elif token.startswith("gkp:"):
            if i + 1 >= len(tokens):
                raise DomainError(f"{token!r} needs two amplitudes: gkp:c0,c1")
            c0 = _parse_complex(token[4:])
            c1 = _parse_complex(tokens[i + 1])
            i += 1
            total = norm_sq(c0, c1)
            if total == math.inf:
                raise DomainError("gkp amplitudes are too large to normalize")
            if total < sys.float_info.min:
                # the squares are subnormal or underflow to 0: rescale the pair first
                scale = max(abs(c0), abs(c1))
                if scale == 0.0:
                    raise DomainError("gkp amplitudes cannot both be zero")
                c0, c1 = c0 / scale, c1 / scale
                total = norm_sq(c0, c1)
            norm = math.sqrt(total)
            specs.append(gkp_labeled(c0 / norm, c1 / norm))
        else:
            raise DomainError(f"unknown node type {token!r} (expected p, gkp+ or gkp:c0,c1)")
        i += 1
    if len(specs) == 1 and n_modes > 1:
        specs = specs * n_modes
    return specs


#: Largest topology accepted, a 100x100 grid.  Topologies are edge lists, so a build
#: costs time and memory linear in the edges; the cap bounds that work, and larger
#: counts are refused before anything is allocated.
MAX_TOPOLOGY_MODES = 10_000


def _require_topology_size(n_modes: int, text: str) -> None:
    if n_modes > MAX_TOPOLOGY_MODES:
        raise DomainError(f"{text}: {n_modes} modes exceed the limit of {MAX_TOPOLOGY_MODES}")


def parse_topology(text: str) -> Topology:
    """chain:N, grid:RxC, or a path to a JSON edge-list file.

    An edge file's reversed and repeated pairs name one edge; the rest of
    its checks are :class:`Topology`'s, reported with the file name.
    """
    if text.startswith("chain:"):
        n_modes = _positive_int(text[6:], "chain length")
        _require_topology_size(n_modes, text)
        return chain_topology(n_modes)
    if text.startswith("grid:"):
        dims = text[5:].lower().split("x")
        if len(dims) != 2:
            raise DomainError(f"grid spec must be grid:RxC, got {text!r}")
        rows = _positive_int(dims[0], "grid rows")
        cols = _positive_int(dims[1], "grid cols")
        _require_topology_size(rows * cols, text)
        return grid_topology(rows, cols)
    try:
        doc = json.loads(Path(text).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as err:  # a ValueError: bad JSON, UTF-8 or int digits
        raise DomainError(f"{text}: invalid edge-list JSON: {err}") from err
    try:
        if isinstance(doc, dict):
            edges = doc.get("edges", [])
            n_modes = require_json_int(doc["n_modes"], "n_modes") if "n_modes" in doc else None
        else:
            edges, n_modes = doc, None
        pairs = set()
        for pair in edges:
            if not isinstance(pair, list) or len(pair) != 2:
                raise DomainError(f"{text}: edges must be [i, j] pairs")
            i, j = (require_json_int(end, "edge end") for end in pair)
            pairs.add((min(i, j), max(i, j)))
    except (TypeError, GraphParseError) as err:
        raise DomainError(f"{text}: malformed edge list: {err}") from err
    if n_modes is None:
        n_modes = 1 + max([0, *(j for _, j in pairs)])
    _require_topology_size(n_modes, text)
    try:
        return Topology(n_modes, tuple(sorted(pairs)))
    except DomainError as err:
        raise DomainError(f"{text}: {err}") from err


def _positive_int(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError as err:
        raise DomainError(f"invalid {what} {text!r}") from err
    if value < 1:
        raise DomainError(f"{what} must be positive, got {value}")
    return value


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _read_graph(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise DomainError(f"{path}: graph file is not UTF-8 text: {err}") from err
    return from_json(text)


def _term_dict(term) -> dict:
    (mode_a, kind_a), (mode_b, kind_b) = term.op_a, term.op_b
    return {
        "op_a": {"kind": kind_a.value, "mode": mode_a},
        "op_b": {"kind": kind_b.value, "mode": mode_b},
        "coefficient": term.coefficient,
    }


def _write_walk(args: argparse.Namespace, run: WireRun) -> None:
    """Write the run's residual graph and, with ``--log``, one JSON line per step record."""
    _write_text(args.output, to_json(run.graph))
    if args.log is not None:
        lines = (
            {
                "step": step,
                "measured_mode": record.measured_mode,
                "outcome": record.outcome,
                "hadamard_count": record.frame.hadamard_count,
                "label": [[z.real, z.imag] for z in record.frame.current_label],
            }
            for step, record in enumerate(run.records, 1)
        )
        _write_text(args.log, "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines))


def _resolve_seed(value: int | None) -> int:
    # the environment variable overrides even an explicit flag
    env = os.environ.get("HIDDENCLUSTER_SEED")
    if env is not None:
        try:
            value = int(env)
        except ValueError as err:
            raise DomainError(f"HIDDENCLUSTER_SEED must be an integer, got {env!r}") from err
    return 0 if value is None else value


def cmd_build(args: argparse.Namespace) -> int:
    topology = parse_topology(args.topology)
    specs = parse_node_specs(args.nodes, topology.n_modes)
    graph = build_cluster(topology, specs, parse_alpha(args.alpha))
    _write_text(args.output, to_json(graph))
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    alpha = parse_alpha(args.alpha)
    if args.topology is not None and args.g is not None:
        raise DomainError("--g and --topology are mutually exclusive")
    if args.topology is not None:
        topology = parse_topology(args.topology)
        decomposition = decompose_cz_multimode(topology, alpha)
        doc = {
            "alpha": alpha,
            # the edge-file format, so the document is itself a valid --topology
            "n_modes": topology.n_modes,
            "edges": [list(edge) for edge in topology.edges],
            "logical_terms": [_term_dict(t) for t in decomposition.logical_terms],
            "gauge_terms": [_term_dict(t) for t in decomposition.gauge_terms],
            "interaction_terms": [_term_dict(t) for t in decomposition.interaction_terms],
        }
    elif args.g is not None:
        terms = decompose_cz_two_mode(args.g, alpha)
        doc = {"alpha": alpha, "g": args.g, "terms": [_term_dict(t) for t in terms]}
    else:
        raise DomainError("decompose requires either --g or --topology")
    _write_text(args.output, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    _write_walk(args, measure_p0(_read_graph(args.input), args.mode, LogicalFrame()))
    return 0


def cmd_run_wire(args: argparse.Namespace) -> int:
    _write_walk(args, run_wire(_read_graph(args.input), args.steps))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # the oracle behind the suite needs numpy; no other command imports it
    from .certify import run_verification

    report = run_verification(
        alpha=parse_alpha(args.alpha),
        grid_n=args.n,
        max_modes=args.max_modes,
        seed=_resolve_seed(args.seed),
        g_scale=args.g_scale,
    )
    _write_text(args.output, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if report["passed"] else 5


def cmd_render(args: argparse.Namespace) -> int:
    graph = _read_graph(args.input)
    _write_text(args.output, render_dot(graph))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="hiddencluster",
        description="Build, rewrite and verify subsystem-decomposed cluster states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build a cluster graph and write it as JSON")
    build.add_argument("--topology", required=True, help="chain:N, grid:RxC, or edge-list file")
    build.add_argument("--nodes", required=True, help="per-mode types: p | gkp+ | gkp:c0,c1")
    build.add_argument("--alpha", default="sqrt_pi", help="bin size (number or sqrt_pi)")
    build.add_argument("-o", "--output", default="-", help="output path (default stdout)")
    build.set_defaults(func=cmd_build)

    decompose = sub.add_parser("decompose", help="decompose a controlled-Z into couplings")
    decompose.add_argument("--g", type=float, help="two-mode gate weight")
    decompose.add_argument("--topology", help="chain:N, grid:RxC, or edge-list file")
    decompose.add_argument("--alpha", default="sqrt_pi")
    decompose.add_argument("-o", "--output", default="-")
    decompose.set_defaults(func=cmd_decompose)

    measure = sub.add_parser("measure", help="measure one GKP-type mode (outcome 0)")
    measure.add_argument("--input", required=True, help="graph JSON file")
    measure.add_argument("--mode", type=int, required=True)
    measure.add_argument("--log", help="JSON-lines measurement log")
    measure.add_argument("-o", "--output", default="-")
    measure.set_defaults(func=cmd_measure)

    wire = sub.add_parser("run-wire", help="teleport along a linear wire")
    wire.add_argument("--input", required=True, help="graph JSON file")
    wire.add_argument("--steps", type=int, required=True)
    wire.add_argument("--log", help="JSON-lines measurement log")
    wire.add_argument("-o", "--output", default="-")
    wire.set_defaults(func=cmd_run_wire)

    verify = sub.add_parser("verify", help="run the oracle-backed identity suite")
    verify.add_argument("--alpha", default="sqrt_pi")
    verify.add_argument("--n", type=int, default=2, help="grid size n >= 1; see --max-modes")
    verify.add_argument(
        "--max-modes",
        type=int,
        default=3,
        help="largest chain length (at least 2; (2*n*n)**max-modes and 4**max-modes "
        "must stay within 2**20)",
    )
    verify.add_argument("--g-scale", type=float, default=1.0, help="detuning factor (1 = tuned)")
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("-o", "--output", default="-")
    verify.set_defaults(func=cmd_verify)

    render = sub.add_parser("render", help="render a graph JSON file as DOT")
    render.add_argument("--input", required=True)
    render.add_argument("-o", "--output", default="-")
    render.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, GraphParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 3
    except (UnsupportedMeasurement, UnsupportedTopology) as err:
        print(f"unsupported: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
