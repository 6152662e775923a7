"""The four seeded workloads: their inputs, one op each, and its output checks.

Every workload replays one *cycle* of ops.  The sizes in a cycle come from a
fixed ladder that every seed shares, so runs with different seeds do the
same amount of work; the seed draws everything else: labels, input ends,
node mixes, topologies, positions and the order of the ops.  Each op's
output is checked outside the timed region by :meth:`check`, which returns
a failure reason or ``None``.
"""

from __future__ import annotations

import math
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hiddencluster as hc
from hiddencluster.certify import decomposed_cluster_state, direct_cluster_state, graph_state

ALPHA = hc.DEFAULT_ALPHA
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
U = hc.SubsystemKind.GAUGE_MODULAR


def chain(n: int) -> np.ndarray:
    a = np.zeros((n, n))
    i = np.arange(n - 1)
    a[i, i + 1] = a[i + 1, i] = 1.0
    return a


def grid(rows: int, cols: int) -> np.ndarray:
    n = rows * cols
    a = np.zeros((n, n))
    i = np.arange(n).reshape(rows, cols)
    for left, right in ((i[:, :-1], i[:, 1:]), (i[:-1, :], i[1:, :])):
        a[left, right] = a[right, left] = 1.0
    return a


def ring(n: int) -> np.ndarray:
    a = chain(n)
    if n > 2:
        a[0, n - 1] = a[n - 1, 0] = 1.0
    return a


def star(n: int) -> np.ndarray:
    a = np.zeros((n, n))
    a[0, 1:] = a[1:, 0] = 1.0
    return a


def random_edges(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    a = np.zeros((n, n))
    for k in rng.choice(len(pairs), size=count, replace=False):
        i, j = pairs[k]
        a[i, j] = a[j, i] = 1.0
    return a


def random_label(rng: np.random.Generator) -> tuple[complex, complex]:
    """Qubit amplitudes with both weights in [0.2, 0.8]."""
    weight = rng.uniform(0.2, 0.8)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return (complex(math.sqrt(weight)), complex(math.sqrt(1.0 - weight) * np.exp(1j * phase)))


def positions(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.uniform(-20.0 * ALPHA, 20.0 * ALPHA, size=count)


def node_mix(rng: np.random.Generator, n: int) -> list:
    """Half momentum (rounded up), the rest gkp+ and labeled GKP, at seeded positions.

    Fixing the shares keeps the number of surviving edges, and so the
    cost of an op, nearly the same for every seed.
    """
    kinds = [0] * (n - n // 2) + [1] * (n // 4) + [2] * (n // 2 - n // 4)
    specs = []
    for kind in rng.permutation(kinds):
        if kind == 0:
            specs.append(hc.momentum())
        elif kind == 1:
            specs.append(hc.gkp_plus())
        else:
            specs.append(hc.gkp_labeled(*random_label(rng)))
    return specs


def edge_count(adjacency: np.ndarray) -> int:
    return int(adjacency.sum()) // 2


# Checks walk amplitude vectors in slices of this many amplitudes (1 MiB), so
# they hold far less memory than the ops they check and leave the measured
# peak RSS to the program.
CHUNK = 1 << 16


def chunks(size: int):
    return (slice(start, start + CHUNK) for start in range(0, size, CHUNK))


def max_deviation(x: np.ndarray, y: np.ndarray) -> float:
    """``max_amplitude_deviation`` of two amplitude vectors, a slice at a time.

    ``y`` is rotated by the global phase ``align_global_phase`` picks: the one
    matching ``x`` at its first amplitude of largest modulus.
    """
    peak, index = -1.0, 0
    for part in chunks(x.size):
        modulus = np.abs(x[part])
        k = int(np.argmax(modulus))
        if modulus[k] > peak:
            peak, index = modulus[k], part.start + k
    rotation = x[index] * np.conj(y[index])
    phase = rotation / abs(rotation) if rotation != 0 else 1.0
    return max(float(np.max(np.abs(x[part] - y[part] * phase))) for part in chunks(x.size))


def fidelity_deficit(x: np.ndarray, y: np.ndarray) -> float:
    """``1 - |<x|y>|^2 / (<x|x><y|y>)``, summed a slice at a time."""
    overlap, xx, yy = 0j, 0.0, 0.0
    for part in chunks(x.size):
        a, b = x[part], y[part]
        overlap += np.vdot(a, b)
        xx += np.vdot(a, a).real
        yy += np.vdot(b, b).real
    return 1.0 - abs(overlap) ** 2 / (xx * yy)


# --- wire --------------------------------------------------------------------


@dataclass
class WireOp:
    n: int
    steps: int
    adjacency: np.ndarray
    specs: list
    label: tuple[complex, complex]
    input_mode: int


class Wire:
    """Teleport a labeled GKP input down a momentum chain with ``run_wire``."""

    name = "wire"
    # (modes, share of the chain measured).  Sorted by cost the cycle is four
    # cheap ops, three chain:200 runs, one more, then the chain:400 full run
    # three times: the median lands mid-way through the chain:200 group and
    # the tail rank inside the chain:400 group, whatever the cycle count.
    LADDER = [(50, 1.0), (100, 0.5), (100, 1.0), (150, 1.0)] + [(200, 1.0)] * 3 + [
        (300, 0.5)] + [(400, 1.0)] * 3
    SMOKE = [(4, 1.0), (6, 0.5)]

    def __init__(self, rng: np.random.Generator, ladder: list, workdir: Path) -> None:
        adjacency = {}
        self.items = []
        for n, share in ladder:
            if n not in adjacency:
                adjacency[n] = chain(n)
            label = random_label(rng)
            input_mode = 0 if rng.integers(2) else n - 1
            specs = [hc.momentum()] * n
            specs[input_mode] = hc.gkp_labeled(*label)
            steps = max(1, round(share * (n - 1)))
            self.items.append(WireOp(n, steps, adjacency[n], specs, label, input_mode))
        self.items = [self.items[i] for i in rng.permutation(len(self.items))]

    @staticmethod
    def run(op: WireOp, tracer):
        graph = tracer.call("graphs.build_cluster", hc.build_cluster, op.adjacency,
                            op.specs, ALPHA, size=op.n)
        run = tracer.call("measurement.run_wire", hc.run_wire, graph, op.steps, size=op.n)
        tracer.note(steps=op.steps)
        text = tracer.call("graphs.to_json", hc.to_json, run.graph, size=op.n - op.steps)
        tracer.note(bytes=len(text))
        return run, text

    def check(self, op: WireOp, out) -> str | None:
        run, _ = out
        if run.frame.hadamard_count != op.steps:
            return f"hadamard_count {run.frame.hadamard_count} != steps {op.steps}"
        expected = np.linalg.matrix_power(HADAMARD, op.steps) @ np.array(op.label)
        drift = float(np.max(np.abs(np.array(run.frame.current_label) - expected)))
        if drift > 1e-12:
            return f"label drift {drift:.3g} > 1e-12"
        rest = op.n - op.steps
        specs = [hc.momentum()] * rest
        specs[0 if op.input_mode == 0 else rest - 1] = hc.gkp_labeled(*run.frame.current_label)
        if not hc.structurally_equal(run.graph, hc.build_cluster(chain(rest), specs, ALPHA)):
            return "residual graph differs from a fresh build of the residual chain"
        return None


# --- lattice -----------------------------------------------------------------


@dataclass
class LatticeOp:
    rows: int
    cols: int
    adjacency: np.ndarray
    specs: list


class Lattice:
    """Decompose, build, serialize, parse and render grid cluster graphs."""

    name = "lattice"
    # (rows, cols), laid out like the wire ladder: four small grids, three of
    # 400 modes, one of 600, then the 30x30 reference grid three times.
    LADDER = [(10, 10), (10, 16), (12, 15), (15, 15), (20, 20), (10, 40), (16, 25),
              (15, 40)] + [(30, 30)] * 3
    SMOKE = [(2, 2), (2, 3)]

    def __init__(self, rng: np.random.Generator, ladder: list, workdir: Path) -> None:
        adjacency = {}
        self.items = []
        for rows, cols in ladder:
            if rng.integers(2):
                rows, cols = cols, rows
            if (rows, cols) not in adjacency:
                adjacency[rows, cols] = grid(rows, cols)
            specs = node_mix(rng, rows * cols)
            self.items.append(LatticeOp(rows, cols, adjacency[rows, cols], specs))
        self.items = [self.items[i] for i in rng.permutation(len(self.items))]

    @staticmethod
    def run(op: LatticeOp, tracer):
        n = op.rows * op.cols
        terms = tracer.call("gates.decompose_cz_multimode", hc.decompose_cz_multimode,
                            op.adjacency, ALPHA, size=n)
        tracer.note(terms=len(terms.all_terms))
        graph = tracer.call("graphs.build_cluster", hc.build_cluster, op.adjacency,
                            op.specs, ALPHA, size=n)
        text = tracer.call("graphs.to_json", hc.to_json, graph, size=n)
        tracer.note(bytes=len(text))
        parsed = tracer.call("graphs.from_json", hc.from_json, text, size=n)
        dot = tracer.call("graphs.render_dot", hc.render_dot, parsed, size=n)
        return terms, graph, text, parsed, dot

    def check(self, op: LatticeOp, out) -> str | None:
        terms, graph, text, parsed, dot = out
        if not np.array_equal(hc.logical_subgraph(graph), op.adjacency):
            return "logical subgraph differs from the adjacency"
        edges = edge_count(op.adjacency)
        families = (len(terms.logical_terms), len(terms.gauge_terms),
                    len(terms.interaction_terms))
        if families != (edges, 3 * edges, 2 * edges):
            return f"term families {families} for {edges} edges, expected 1/3/2 per edge"
        if hc.to_json(parsed) != text:
            return "to_json(from_json(text)) is not byte-identical"
        lines = sum(" -- " in line for line in dot.splitlines())
        if lines != sum(e.multiplicity for e in parsed.edges):
            return f"{lines} DOT edge lines, expected the sum of multiplicities"
        return None


# --- oracle ------------------------------------------------------------------


@dataclass
class OracleOp:
    n: int
    modes: int
    topology: str
    adjacency: np.ndarray
    specs: list
    label: tuple[complex, complex]
    positions: np.ndarray


@dataclass
class OracleOut:
    direct: object
    decomposed: object
    from_graph: object
    deficits: list
    off_mass: list
    recomposed: list


class Oracle:
    """Certify hidden-cluster identities on the dense grid oracle."""

    name = "oracle"
    TOPOLOGIES = {"chain": chain, "star": star, "ring": ring}
    # (grid size, modes, topology).  n=4 with 4 modes holds 2^20 amplitudes;
    # its ring, the costliest instance, runs four times so the tail rank
    # lands inside that group.
    LADDER = [(4, 4, "chain"), (4, 4, "star"), (4, 4, "random"), (4, 3, "ring"),
              (4, 3, "chain"), (4, 2, "chain"), (3, 4, "ring"), (3, 4, "random"),
              (3, 3, "star"), (2, 4, "ring"), (2, 3, "chain")] + [(4, 4, "ring")] * 4
    SMOKE = [(2, 2, "chain"), (2, 3, "random")]
    POSITIONS = 10_000

    def __init__(self, rng: np.random.Generator, ladder: list, workdir: Path) -> None:
        self.items = []
        for n, modes, topology in ladder:
            if topology == "random":
                adjacency = random_edges(rng, modes, modes - 1)
            else:
                adjacency = self.TOPOLOGIES[topology](modes)
            specs = node_mix(rng, modes)
            self.items.append(
                OracleOp(n, modes, topology, adjacency, specs, random_label(rng),
                         positions(rng, self.POSITIONS))
            )
        self.items = [self.items[i] for i in rng.permutation(len(self.items))]

    @staticmethod
    def run(op: OracleOp, tracer) -> OracleOut:
        grid_spec = hc.GridSpec(op.n, ALPHA)
        amplitudes = grid_spec.dim**op.modes
        edges = edge_count(op.adjacency)
        direct = tracer.call("certify.direct_cluster_state", direct_cluster_state,
                             grid_spec, op.adjacency, op.specs, size=amplitudes)
        tracer.note(passes=edges, bytes=16 * amplitudes * (edges + 1))
        decomposed = tracer.call("certify.decomposed_cluster_state", decomposed_cluster_state,
                                 grid_spec, op.adjacency, op.specs, size=amplitudes)
        tracer.note(passes=6 * edges, bytes=16 * amplitudes * (6 * edges + 1))
        graph = tracer.call("graphs.build_cluster", hc.build_cluster, op.adjacency, op.specs,
                            ALPHA, size=op.modes)
        from_graph = tracer.call("certify.graph_state", graph_state, grid_spec, graph,
                                 size=amplitudes)
        tracer.note(passes=len(graph.edges), bytes=16 * amplitudes * (len(graph.edges) + 1))
        deficits, off_mass = Oracle._teleport(grid_spec, op.label, tracer)
        recomposed = Oracle._round_trip(op.positions, tracer)
        return OracleOut(direct, decomposed, from_graph, deficits, off_mass, recomposed)

    @staticmethod
    def _teleport(grid_spec, label, tracer):
        """Teleport ``label`` down a 4-mode chain, comparing both routes per step."""
        modes = 4
        adjacency = chain(modes)
        specs = [hc.momentum()] * (modes - 1) + [hc.gkp_labeled(*label)]
        graph = tracer.call("graphs.build_cluster", hc.build_cluster, adjacency, specs, ALPHA,
                            size=modes)
        amplitudes = grid_spec.dim**modes
        state = tracer.call("certify.direct_cluster_state", direct_cluster_state, grid_spec,
                            adjacency, specs, size=amplitudes, tag="teleport")
        tracer.note(passes=modes - 1, bytes=16 * amplitudes * modes)
        frame = hc.LogicalFrame(0, label)
        remaining, current = list(range(modes)), modes - 1
        deficits, off_mass = [], []
        for _ in range(modes - 1):
            axis = remaining.index(current)
            amplitudes = grid_spec.dim ** len(remaining)
            projected, _ = tracer.call("oracle.project_p0", hc.project_p0, state, axis,
                                       size=amplitudes)
            tracer.note(bytes=16 * amplitudes)
            state = projected.normalized()
            remaining.pop(axis)
            amplitudes //= grid_spec.dim
            result = tracer.call("measurement.measure_p0", hc.measure_p0, graph, current, frame,
                                 size=len(remaining) + 1)
            graph, frame = result.graph, result.frame
            current = graph.node_by_id(result.record.converted_node).mode
            symbolic = tracer.call("certify.graph_state", graph_state, grid_spec, graph,
                                   size=amplitudes, tag="teleport")
            tracer.note(passes=len(graph.edges), bytes=16 * amplitudes * (len(graph.edges) + 1))
            deficits.append(1.0 - tracer.call("oracle.fidelity", hc.fidelity, state, symbolic,
                                              size=amplitudes))
            tracer.note(bytes=32 * amplitudes)
            rho = tracer.call("oracle.reduced_density", hc.reduced_density, state,
                              [(remaining.index(current), U)], size=amplitudes)
            tracer.note(bytes=16 * amplitudes)
            diagonal = np.diagonal(rho).real
            off_mass.append(float(diagonal.sum() - diagonal[grid_spec.zero_u_index]))
        return deficits, off_mass

    @staticmethod
    def _round_trip(positions: np.ndarray, tracer) -> list:
        values = positions.tolist()
        split = tracer.call("modular.decompose_position",
                            lambda: [hc.decompose_position(x, ALPHA) for x in values],
                            size=len(values))
        tracer.note(calls=len(values))
        return tracer.call("modular.recompose", lambda: [hc.recompose(q, ALPHA) for q in split],
                           size=len(values))

    def check(self, op: OracleOp, out: OracleOut) -> str | None:
        deviation = max_deviation(out.direct.amplitudes, out.decomposed.amplitudes)
        if deviation > 1e-12:
            return f"direct vs decomposed deviation {deviation:.3g} > 1e-12"
        deficit = fidelity_deficit(out.direct.amplitudes, out.from_graph.amplitudes)
        if deficit > 1e-10:
            return f"graph_state fidelity deficit {deficit:.3g} > 1e-10"
        if max(out.deficits) > 1e-10:
            return f"teleport fidelity deficit {max(out.deficits):.3g} > 1e-10"
        if max(out.off_mass) > 1e-20:
            return f"teleport off-u=0 mass {max(out.off_mass):.3g} > 1e-20"
        if out.recomposed != op.positions.tolist():
            return "decompose_position/recompose round trip is not exact"
        return None


# --- cli ---------------------------------------------------------------------


@dataclass
class CliOp:
    command: str
    argv: list
    exit_code: int
    expected_output: str | None = None


def run_cli(argv: list, cwd: Path, timeout: float = 120.0) -> tuple[int, float]:
    """Run one CLI command in a fresh interpreter; return (exit code, wall ms).

    ``Popen.wait`` with a timeout polls in steps of up to 50 ms, which would
    quantize the wall time, so a timer kills an overdue command instead and
    the wait itself blocks.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "hiddencluster.cli", *argv], cwd=cwd,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    return code, (time.perf_counter() - start) * 1e3


def complex_literal(z: complex) -> str:
    return repr(complex(z)).strip("()")


def node_arg(specs: list) -> str:
    """The ``--nodes`` text for a list of mode specs."""
    parts = []
    for spec in specs:
        if spec.cv_type is hc.CvType.MOMENTUM:
            parts.append("p")
        elif spec.cv_type is hc.CvType.GKP_PLUS:
            parts.append("gkp+")
        else:
            c0, c1 = spec.amplitudes
            parts.append(f"gkp:{complex_literal(c0)},{complex_literal(c1)}")
    return ",".join(parts)


class Cli:
    """A scripted session of fresh-process CLI commands, one at a time."""

    name = "cli"
    # (chain modes, grid rows, grid cols) of the session's inputs
    LADDER = [(40, 10, 12)]
    SMOKE = [(4, 2, 2)]

    def __init__(self, rng: np.random.Generator, ladder: list, workdir: Path) -> None:
        from hiddencluster.cli import parse_node_specs

        self.workdir = workdir
        ((n, rows, cols),) = ladder
        label = random_label(rng)
        input_mode = 0 if rng.integers(2) else n - 1
        chain_specs = [hc.momentum()] * n
        chain_specs[input_mode] = hc.gkp_labeled(*label)
        chain_nodes = node_arg(chain_specs)
        grid_nodes = node_arg(node_mix(rng, rows * cols))

        def built(adjacency, nodes):
            specs = parse_node_specs(nodes, adjacency.shape[0])
            return hc.to_json(hc.build_cluster(adjacency, specs, ALPHA))

        wire_text = built(chain(n), chain_nodes)
        (workdir / "wire.json").write_text(wire_text, encoding="utf-8")
        momentum_mode = n - 1 - input_mode
        seed = str(int(rng.integers(2**31)))
        g = repr(float(rng.uniform(-2.0, 2.0)))
        steps = str(int(rng.integers(n // 2, n)))
        self.items = [
            CliOp("build", ["build", "--topology", f"chain:{n}", "--nodes", chain_nodes,
                            "-o", "out-chain.json"], 0, wire_text),
            CliOp("build", ["build", "--topology", f"grid:{rows}x{cols}", "--nodes", grid_nodes,
                            "-o", "out-grid.json"], 0, built(grid(rows, cols), grid_nodes)),
            CliOp("run-wire", ["run-wire", "--input", "wire.json", "--steps", steps,
                               "--log", "steps.jsonl", "-o", "out-wire.json"], 0),
            CliOp("measure", ["measure", "--input", "wire.json", "--mode", str(input_mode),
                              "-o", "out-measure.json"], 0),
            CliOp("measure", ["measure", "--input", "wire.json", "--mode", str(momentum_mode),
                              "-o", "out-refused.json"], 4),
            CliOp("decompose", ["decompose", "--g", g, "-o", "out-terms.json"], 0),
            CliOp("decompose", ["decompose", "--topology", f"grid:{rows}x{cols}",
                                "-o", "out-partition.json"], 0),
            CliOp("render", ["render", "--input", "wire.json", "-o", "out-wire.dot"], 0),
            CliOp("verify", ["verify", "--seed", seed, "-o", "out-verify.json"], 0),
            CliOp("verify", ["verify", "--n", "4", "--seed", seed, "-o", "out-verify4.json"], 0),
            CliOp("verify", ["verify", "--g-scale", "0.5", "--seed", seed,
                             "-o", "out-detuned.json"], 5),
        ]
        self.items = [self.items[i] for i in rng.permutation(len(self.items))]

    def run(self, op: CliOp, tracer):
        return tracer.call(f"cli.{op.command}", run_cli, op.argv, self.workdir)

    def check(self, op: CliOp, out) -> str | None:
        code, _ = out
        if code != op.exit_code:
            return f"{op.command} exited {code}, expected {op.exit_code}"
        if op.expected_output is not None:
            written = (self.workdir / op.argv[-1]).read_text(encoding="utf-8")
            if written != op.expected_output:
                return f"{op.command} output differs from the in-process to_json"
        return None


WORKLOADS = {w.name: w for w in (Wire, Lattice, Oracle, Cli)}
