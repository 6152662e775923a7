"""Symbolic momentum measurements on subsystem graphs.

Measuring the full momentum of a GKP-type node (outcome fixed to 0)
factorizes into a logical X measurement with outcome +1 and a gauge
momentum projection.  On the graph this deletes the measured mode, pins the
neighbor's modular-position node to u = 0 (which absorbs all of that node's
edges), and teleports the measured logical label onto the neighbor with a
Hadamard applied.  A walk down a wire pins only the last neighbor's node;
every other GKP-type mode's is pinned already.  Only outcome 0 is modeled,
only degree-1 nodes may be measured, and the neighbor may not be labeled
(its label would multiply the teleported one); anything else raises instead
of producing an unproved rewrite.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import DomainError, UnsupportedMeasurement, UnsupportedTopology
from .graphs import (
    CvType,
    ModeRecord,
    SubsystemGraph,
    logical_neighbors,
    norm_sq,
)
from .modular import SubsystemKind

_S = 1.0 / math.sqrt(2.0)

#: The logical Hadamard as nested tuples; ``HADAMARD @ vector`` works on numpy vectors.
HADAMARD = ((_S, _S), (_S, -_S))


class LogicalFrame(Record):
    """Accumulated logical byproduct along a wire: one Hadamard per hop."""

    hadamard_count: int = 0
    current_label: tuple[complex, complex] = (1.0 + 0.0j, 0.0 + 0.0j)


class MeasurementRecord(Record):
    measured_mode: int
    outcome: float
    removed_nodes: tuple[int, int, int]
    converted_node: int


class MeasurementResult(Record):
    graph: SubsystemGraph
    frame: LogicalFrame
    record: MeasurementRecord


def _apply_hadamard(amplitudes: tuple[complex, complex]) -> tuple[complex, complex]:
    # Each row sums from 0j, as a matrix product does, so signed zeros come
    # out as they do from ``numpy.array(HADAMARD) @ amplitudes``.
    c0, c1 = complex(amplitudes[0]), complex(amplitudes[1])
    c0, c1 = (0j + h0 * c0 + h1 * c1 for h0, h1 in HADAMARD)
    # 2 * _S**2 rounds below 1, so each hop shrinks |c0|^2 + |c1|^2 by about
    # 2.2e-16; rescaling once the drift passes 1e-14 keeps a long wire's label
    # inside from_json's 1e-12 tolerance and leaves short wires bit-exact.
    total = norm_sq(c0, c1)
    if abs(total - 1.0) > 1e-14:
        scale = math.sqrt(total)
        c0, c1 = c0 / scale, c1 / scale
    return c0, c1


def measure_p0(graph: SubsystemGraph, mode: int, frame: LogicalFrame) -> MeasurementResult:
    """Measure the momentum of a GKP-type mode with outcome 0.

    The measured mode must have exactly one neighbor at the mode level, not a
    labeled one.  The neighbor becomes a GKP-labeled mode carrying the Hadamard
    of the measured label, its modular-position node is pinned to u = 0 and
    stripped of edges, and the frame's Hadamard count increments by one.

    Only ``frame.hadamard_count`` is read.  The label teleported is the
    measured mode's own amplitudes in ``graph``, and the returned frame's
    ``current_label`` is the Hadamard of that label, whatever
    ``frame.current_label`` holds.
    """
    run = _walk(graph, logical_neighbors(graph), mode, 1, frame.hadamard_count)
    return MeasurementResult(graph=run.graph, frame=run.frame, record=run.records[0])


class WireRun(Record):
    graph: SubsystemGraph
    frame: LogicalFrame
    records: tuple[MeasurementRecord, ...]
    #: frame after each step, aligned with ``records``
    frames: tuple[LogicalFrame, ...] = ()


def _wire_input_mode(graph: SubsystemGraph, neighbors: dict[int, set[int]]) -> int:
    """Pick the wire's input end: a GKP-type endpoint of the mode-level path.

    Prefers a labeled endpoint; if both ends qualify equally the higher mode
    index wins, so chains built with the input listed last behave as written.
    """
    degrees = [len(neighbors[m.index]) for m in graph.modes]
    n = len(degrees)
    if n > 1 and (
        sum(degrees) // 2 != n - 1 or sorted(degrees) != [1, 1] + [2] * (n - 2)
    ):
        raise UnsupportedTopology("run_wire requires a linear chain of modes")
    endpoints = [m.index for m, d in zip(graph.modes, degrees) if n == 1 or d == 1]
    gkp_ends = [i for i in endpoints if graph.mode_by_index(i).cv_type.is_gkp]
    if not gkp_ends:
        raise UnsupportedMeasurement("wire has no GKP-type input endpoint")
    labeled = [
        i for i in gkp_ends if graph.mode_by_index(i).cv_type is CvType.GKP_LABELED
    ]
    candidates = labeled or gkp_ends
    return max(candidates)


def _walk(
    graph: SubsystemGraph,
    neighbors: dict[int, set[int]],
    mode: int,
    steps: int,
    hadamard_count: int,
) -> WireRun:
    """Measure ``steps`` modes in turn from ``mode``, counting Hadamards from ``hadamard_count``.

    Each hop measures the mode the previous hop relabeled, so its residual
    neighbors are its ``neighbors`` minus the modes already measured.  The
    residual graph is built once, after the last hop, without the edges of
    the measured modes and of the one node pinned.
    """
    record = graph.mode_by_index(mode)
    if not record.cv_type.is_gkp:
        raise UnsupportedMeasurement(
            f"mode {mode} is a momentum node; the rewrite is only derived for GKP-type "
            "nodes (use the grid oracle instead)"
        )
    amplitudes, label = graph.mode_amplitudes(mode), record.label
    frame = LogicalFrame(hadamard_count, amplitudes)
    measured: set[int] = set()
    records: list[MeasurementRecord] = []
    frames: list[LogicalFrame] = []
    for _ in range(steps):
        remaining = neighbors[mode] - measured
        if len(remaining) != 1:
            raise UnsupportedTopology(
                f"measured mode {mode} has {len(remaining)} neighbors; only degree-1 nodes "
                "are supported"
            )
        (neighbor,) = remaining
        if graph.mode_by_index(neighbor).cv_type is CvType.GKP_LABELED:
            raise UnsupportedMeasurement(
                f"mode {neighbor} is labeled; teleporting onto a labeled neighbor is not "
                "derived (use the grid oracle instead)"
            )
        amplitudes = _apply_hadamard(amplitudes)
        label = f"H({label or '+'})"
        frame = LogicalFrame(hadamard_count=frame.hadamard_count + 1, current_label=amplitudes)
        records.append(
            MeasurementRecord(
                measured_mode=mode,
                outcome=0.0,
                removed_nodes=(3 * mode, 3 * mode + 1, 3 * mode + 2),
                converted_node=3 * neighbor + SubsystemKind.GAUGE_MODULAR.offset,
            )
        )
        frames.append(frame)
        measured.add(mode)
        mode = neighbor
    if not records:
        return WireRun(graph=graph, frame=frame, records=(), frames=())

    modes = tuple(
        ModeRecord(m.index, CvType.GKP_LABELED, label, amplitudes)
        if m.index == mode
        else m
        for m in graph.modes
        if m.index not in measured
    )
    dropped = {node for r in records for node in r.removed_nodes} | {records[-1].converted_node}
    kept = tuple(e for e in graph.edges if e.a not in dropped and e.b not in dropped)
    residual = SubsystemGraph(alpha=graph.alpha, modes=modes, edges=kept)
    return WireRun(graph=residual, frame=frame, records=tuple(records), frames=tuple(frames))


def run_wire(graph: SubsystemGraph, steps: int) -> WireRun:
    """Measure a linear wire step by step from its GKP-type input end; ``steps`` is an int."""
    if type(steps) is not int:
        raise DomainError(f"steps must be an int, got {steps!r}")
    if steps < 0 or steps > len(graph.modes) - 1:
        raise DomainError(
            f"steps must be between 0 and {len(graph.modes) - 1}, got {steps}"
        )
    neighbors = logical_neighbors(graph)
    return _walk(graph, neighbors, _wire_input_mode(graph, neighbors), steps, 0)
