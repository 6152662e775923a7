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
    _display_name,
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
    """One outcome-0 momentum measurement and the logical ``frame`` after it.

    The step removes ``measured_mode``'s three nodes and pins ``converted_node``,
    the neighbor's modular-position node, to u = 0; ``outcome`` is always 0.
    """

    measured_mode: int
    outcome: int
    converted_node: int
    frame: LogicalFrame


class WireRun(Record):
    graph: SubsystemGraph
    #: the last record's frame, or the input's after zero steps
    frame: LogicalFrame
    records: tuple[MeasurementRecord, ...]

    @property
    def record(self) -> MeasurementRecord:
        """The last step's record; a zero-step run has none and raises ``IndexError``."""
        return self.records[-1]


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


def measure_p0(graph: SubsystemGraph, mode: int, frame: LogicalFrame) -> WireRun:
    """Measure the momentum of a GKP-type mode with outcome 0.

    The measured mode must have exactly one neighbor at the mode level, not a
    labeled one.  The neighbor becomes a GKP-labeled mode carrying the Hadamard
    of the measured label, its modular-position node is pinned to u = 0 and
    stripped of edges.  The returned run's one record holds the frame after the
    step, whose Hadamard count is one more than ``frame``'s.

    Only ``frame.hadamard_count`` is read.  The label teleported is the
    measured mode's own amplitudes in ``graph``, and the record frame's
    ``current_label`` is the Hadamard of that label, whatever
    ``frame.current_label`` holds.
    """
    if not graph.mode_by_index(mode).cv_type.is_gkp:
        raise UnsupportedMeasurement(
            f"mode {mode} is a momentum node; the rewrite is only derived for GKP-type "
            "nodes (use the grid oracle instead)"
        )
    neighbors = logical_neighbors(graph)[mode]
    if len(neighbors) != 1:
        raise UnsupportedTopology(
            f"measured mode {mode} has {len(neighbors)} neighbors; only degree-1 nodes "
            "are supported"
        )
    return _walk(graph, [mode, *neighbors], frame.hadamard_count)


def _wire_path(graph: SubsystemGraph) -> list[int]:
    """The wire's modes in order from its input end, found by walking the chain.

    The walk starts at the first mode of degree below 2 and must find exactly
    one new neighbor per hop until it has met every mode; otherwise the modes
    do not form a linear chain.  The input end is a GKP-type end, a labeled
    one first; if both ends qualify equally the higher mode index wins, so
    chains built with the input listed last behave as written.
    """
    neighbors = logical_neighbors(graph)
    path = [m for m, adjacent in neighbors.items() if len(adjacent) < 2][:1]
    while path and len(ahead := neighbors[path[-1]].difference(path[-2:])) == 1:
        path.extend(ahead)
    # a second new neighbor anywhere leaves a mode the walk never meets
    if len(path) != len(graph.modes):
        raise UnsupportedTopology("run_wire requires a linear chain of modes")
    ends = [graph.mode_by_index(m) for m in (path[0], path[-1])]
    gkp_ends = [m for m in ends if m.cv_type.is_gkp]
    if not gkp_ends:
        raise UnsupportedMeasurement("wire has no GKP-type input endpoint")
    start = max(gkp_ends, key=lambda m: (m.cv_type is CvType.GKP_LABELED, m.index))
    return path if start.index == path[0] else path[::-1]


def _walk(graph: SubsystemGraph, path: list[int], hadamard_count: int) -> WireRun:
    """Measure ``path[:-1]`` in turn, counting Hadamards from ``hadamard_count``.

    Each mode in ``path`` must be the one neighbor of the previous mode once
    the modes before it are measured; the callers check that, and the walk
    refuses only a hop onto a labeled neighbor.  The residual graph is built
    once, after the last hop, without the edges of the measured modes and of
    the one node pinned.
    """
    amplitudes = graph.mode_amplitudes(path[0])
    label = _display_name(graph.mode_by_index(path[0]))
    frame = LogicalFrame(hadamard_count, amplitudes)
    records: list[MeasurementRecord] = []
    for mode, neighbor in zip(path, path[1:]):
        if graph.mode_by_index(neighbor).cv_type is CvType.GKP_LABELED:
            raise UnsupportedMeasurement(
                f"mode {neighbor} is labeled; teleporting onto a labeled neighbor is not "
                "derived (use the grid oracle instead)"
            )
        amplitudes = _apply_hadamard(amplitudes)
        label = f"H({label})"
        frame = LogicalFrame(frame.hadamard_count + 1, amplitudes)
        converted_node = 3 * neighbor + SubsystemKind.GAUGE_MODULAR.offset
        records.append(MeasurementRecord(mode, 0, converted_node, frame))
    if not records:
        return WireRun(graph=graph, frame=frame, records=())

    measured, last = set(path[:-1]), path[-1]
    modes = tuple(
        ModeRecord(m.index, CvType.GKP_LABELED, label, amplitudes)
        if m.index == last
        else m
        for m in graph.modes
        if m.index not in measured
    )
    offsets = [kind.offset for kind in SubsystemKind]
    dropped = {3 * m + offset for m in measured for offset in offsets}
    dropped.add(records[-1].converted_node)
    kept = tuple(e for e in graph.edges if e.a not in dropped and e.b not in dropped)
    residual = SubsystemGraph(alpha=graph.alpha, modes=modes, edges=kept)
    return WireRun(graph=residual, frame=frame, records=tuple(records))


def run_wire(graph: SubsystemGraph, steps: int) -> WireRun:
    """Measure a linear wire step by step from its GKP-type input end; ``steps`` is an int."""
    if type(steps) is not int:
        raise DomainError(f"steps must be an int, got {steps!r}")
    if not graph.modes:
        raise DomainError("run_wire needs a wire of at least one mode, got a graph with none")
    if steps < 0 or steps > len(graph.modes) - 1:
        raise DomainError(
            f"steps must be between 0 and {len(graph.modes) - 1}, got {steps}"
        )
    return _walk(graph, _wire_path(graph)[: steps + 1], 0)
