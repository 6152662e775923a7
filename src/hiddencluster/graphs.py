"""Typed subsystem graphs for CV, GKP and hybrid cluster states.

Every physical mode contributes three nodes (logical qubit, gauge bin
number, gauge modular position).  Node ``3*i + kind.offset`` (0 logical,
1 gauge bin, 2 gauge modular; see :class:`SubsystemKind`) is that kind's
node of the mode with index ``i``, and its state follows from that mode's
input type, so a graph stores only its modes and edges.  Edges carry a
small integer multiplicity; under the node-operator normalization
(circle = u/alpha, square = m, diamond = ell) every single line is a
coupling of strength pi, so the physical coefficient of an edge is
``pi * multiplicity / alpha**k`` with ``k`` the number of modular endpoints.

Building a cluster graph stamps each coupling of :data:`gates.TUNED_COUPLINGS`
onto each mode pair as an edge of its exact integer factor, forming no float,
and leaves out every edge incident to a modular-position node pinned at u = 0:
a phase generated by u acts as the identity on that eigenstate.  A measurement
that pins a neighbor's modular position deletes its edges by the same rule,
which every graph keeps.
"""

from __future__ import annotations

import enum
import json
import math
from collections import Counter
from itertools import starmap
from operator import attrgetter
from typing import TYPE_CHECKING

from ._record import Record, set_field
from .errors import DomainError, GraphParseError
from .gates import TUNED_COUPLINGS, Topology, as_topology
from .modular import SubsystemKind, require_bin_size

if TYPE_CHECKING:
    import numpy as np

EDGE_UNIT_PHASE = math.pi

_LOGICAL, _MODULAR = SubsystemKind.LOGICAL.offset, SubsystemKind.GAUGE_MODULAR.offset


class CvType(enum.Enum):
    """What the mode held before decomposition."""

    MOMENTUM = "momentum"
    GKP_PLUS = "gkp_plus"
    GKP_LABELED = "gkp_labeled"

    @property
    def is_gkp(self) -> bool:
        return self is not CvType.MOMENTUM


class NodeState(enum.Enum):
    LOGICAL_PLUS = "logical_plus"
    LOGICAL_LABELED = "logical_labeled"
    UNIFORM_BIN = "uniform_bin"
    UNIFORM_MODULAR = "uniform_modular"
    MODULAR_ZERO = "modular_zero"


class Node(Record):
    id: int
    mode: int
    kind: SubsystemKind
    state: NodeState


def _checked_amplitudes(
    cv_type: CvType, label: str | None, amplitudes: tuple[complex, complex] | None
) -> tuple[complex, complex] | None:
    """Check one mode's fields as :func:`from_json` requires them; return its amplitudes.

    ``label`` is a string or None, and ``amplitudes`` are given exactly for
    ``GKP_LABELED``, as a pair of finite numbers (not strings) with unit
    norm; they come back as complex numbers.
    """
    if label is not None and not isinstance(label, str):
        raise DomainError(f"mode label must be a string or None, got {label!r}")
    if cv_type is not CvType.GKP_LABELED:
        if amplitudes is not None:
            raise DomainError(f"a {cv_type.value} mode cannot carry amplitudes")
        return None
    if amplitudes is None:
        raise DomainError("a gkp_labeled mode needs logical amplitudes")
    try:
        c0, c1 = amplitudes
        if isinstance(c0, str) or isinstance(c1, str):
            raise TypeError("an amplitude cannot be a string")
        c0, c1 = complex(c0), complex(c1)
    except (TypeError, ValueError):
        raise DomainError(
            f"logical amplitudes must be a pair of numbers, got {amplitudes!r}"
        ) from None
    if not all(math.isfinite(x) for x in (c0.real, c0.imag, c1.real, c1.imag)):
        raise DomainError(f"logical amplitudes must be finite, got ({c0}, {c1})")
    total = norm_sq(c0, c1)
    if abs(total - 1.0) > 1e-12:
        raise DomainError(f"logical amplitudes must be normalized, got |c|^2 = {total}")
    return c0, c1


class ModeRecord(Record):
    """One physical mode: its index, input type and, when labeled, its amplitudes.

    Construction checks that ``index`` is a nonnegative int, so every node id
    is one too, and the rest of the mode as :class:`ModeSpec` does, so a graph
    of records always writes a document that :func:`from_json` reads back.
    """

    index: int
    cv_type: CvType
    label: str | None
    amplitudes: tuple[complex, complex] | None

    def __init__(
        self,
        index: int,
        cv_type: CvType,
        label: str | None = None,
        amplitudes: tuple[complex, complex] | None = None,
    ) -> None:
        if type(index) is not int:
            raise DomainError(f"mode index must be an int, got {index!r}")
        if index < 0:
            raise DomainError(f"mode index must be nonnegative, got {index}")
        set_field(self, "index", index)
        set_field(self, "cv_type", cv_type)
        set_field(self, "label", label)
        set_field(self, "amplitudes", _checked_amplitudes(cv_type, label, amplitudes))


class ModeSpec(Record):
    """Input description of one mode, before indices are assigned.

    Construction checks what :func:`from_json` checks of a mode, so every
    spec builds a graph whose document reads back: ``label`` is a string or
    None, and ``amplitudes`` are given exactly for ``GKP_LABELED``, as a
    finite unit-norm pair of numbers (stored as complex numbers).
    """

    cv_type: CvType
    label: str | None
    amplitudes: tuple[complex, complex] | None

    def __init__(
        self,
        cv_type: CvType,
        label: str | None = None,
        amplitudes: tuple[complex, complex] | None = None,
    ) -> None:
        set_field(self, "cv_type", cv_type)
        set_field(self, "label", label)
        set_field(self, "amplitudes", _checked_amplitudes(cv_type, label, amplitudes))


def momentum() -> ModeSpec:
    return ModeSpec(CvType.MOMENTUM)


def gkp_plus() -> ModeSpec:
    return ModeSpec(CvType.GKP_PLUS)


def norm_sq(c0: complex, c1: complex) -> float:
    """|c0|^2 + |c1|^2 of finite amplitudes, or inf when it overflows.

    A square too large for a float raises ``OverflowError`` and two finite
    squares can sum past the float maximum; both give inf, so every caller
    applies one rule.
    """
    try:
        return abs(c0) ** 2 + abs(c1) ** 2
    except OverflowError:
        return math.inf


def gkp_labeled(c0: complex, c1: complex) -> ModeSpec:
    """A GKP mode labeled "psi" encoding the qubit c0|0> + c1|1>; see :class:`ModeSpec`."""
    return ModeSpec(CvType.GKP_LABELED, "psi", (c0, c1))


class SubsystemEdge(Record):
    """Edge of multiplicity 1 or 2 between int nodes (not bools) of two modes; ends sorted."""

    a: int
    b: int
    multiplicity: int

    def __init__(self, a: int, b: int, multiplicity: int) -> None:
        if type(a) is not int or type(b) is not int:
            raise DomainError(f"edge ends must be ints, got ({a!r}, {b!r})")
        if a > b:
            a, b = b, a
        if a // 3 == b // 3:
            raise DomainError(f"edge ({a}, {b}) joins two nodes of the same mode")
        if type(multiplicity) is not int or multiplicity not in (1, 2):
            raise DomainError(f"edge ({a}, {b}) has multiplicity {multiplicity!r}, not 1 or 2")
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "multiplicity", multiplicity)


def _display_name(record: ModeRecord) -> str:
    """The logical name drawn and teleported: a labeled mode's label or ``psi``, else ``+``."""
    return (record.label or "psi") if record.cv_type is CvType.GKP_LABELED else "+"


def _node_states_for(cv_type: CvType) -> tuple[NodeState, NodeState, NodeState]:
    logical = (
        NodeState.LOGICAL_LABELED if cv_type is CvType.GKP_LABELED else NodeState.LOGICAL_PLUS
    )
    modular = NodeState.MODULAR_ZERO if cv_type.is_gkp else NodeState.UNIFORM_MODULAR
    return (logical, NodeState.UNIFORM_BIN, modular)


def _node_fields(record: ModeRecord) -> list[tuple[int, int, SubsystemKind, NodeState]]:
    """(id, mode, kind, state) of a mode's nodes: id 3*index + kind offset, state from cv_type."""
    index = record.index
    return [
        (3 * index + kind.offset, index, kind, state)
        for kind, state in zip(SubsystemKind, _node_states_for(record.cv_type))
    ]


class SubsystemGraph(Record):
    """Modes and edges; each mode's three nodes are derived from its record.

    An edge endpoint names its mode (``id // 3``) and kind (``id % 3``)
    without a lookup table.  The mode index is kept in the instance
    ``__dict__`` beside the fields; equality and hashing read only the
    fields.  ``alpha`` is a finite float (:func:`require_bin_size`),
    ``modes`` and ``edges`` are iterables of :class:`ModeRecord` and
    :class:`SubsystemEdge` records, kept as tuples, and repeated mode
    indices or edges, edge ends in missing modes and edges at pinned
    modular-position nodes are refused.  A mode index or node id looked up
    is an int, not a bool or a float.
    """

    alpha: float
    modes: tuple[ModeRecord, ...]
    edges: tuple[SubsystemEdge, ...]

    def __init__(
        self, alpha: float, modes: tuple[ModeRecord, ...], edges: tuple[SubsystemEdge, ...]
    ) -> None:
        alpha = require_bin_size(alpha)
        members_of = (("modes", modes, ModeRecord), ("edges", edges, SubsystemEdge))
        stored = []
        for what, members, member_type in members_of:
            try:
                members = tuple(members)
            except TypeError:
                raise DomainError(
                    f"graph {what} must be an iterable of {member_type.__name__} records, "
                    f"got {members!r}"
                ) from None
            if not set(map(type, members)) <= {member_type}:
                stray = next(m for m in members if type(m) is not member_type)
                raise DomainError(
                    f"graph {what} must be {member_type.__name__} records, got {stray!r}"
                )
            stored.append(members)
        modes, edges = stored
        mode_index = {record.index: record for record in modes}
        if len(mode_index) != len(modes):
            raise DomainError("duplicate mode indices")
        pairs = list(map(attrgetter("a", "b"), edges))
        if len(set(pairs)) != len(pairs):
            repeat = next(pair for pair, count in Counter(pairs).items() if count > 1)
            raise DomainError(f"duplicate edge {repeat}")
        ends = {end for pair in pairs for end in pair}
        unknown = sorted(end for end in ends if end // 3 not in mode_index)
        if unknown:
            raise DomainError(
                f"an edge references unknown node {unknown[0]}: "
                f"the graph has no mode {unknown[0] // 3}"
            )
        # one modular-position node per GKP-type mode is pinned at u = 0
        pinned = ends & {3 * m.index + _MODULAR for m in modes if m.cv_type.is_gkp}
        if pinned:
            raise DomainError(f"an edge is incident to pinned modular-position node {min(pinned)}")
        set_field(self, "alpha", alpha)
        set_field(self, "modes", modes)
        set_field(self, "edges", edges)
        set_field(self, "_mode_index", mode_index)

    def node_by_id(self, node_id: int) -> Node:
        if type(node_id) is not int:
            raise DomainError(f"node id must be an int, got {node_id!r}")
        record = self._mode_index.get(node_id // 3)
        if record is None:
            raise DomainError(f"no node with id {node_id}")
        return Node(*_node_fields(record)[node_id % 3])

    def mode_by_index(self, index: int) -> ModeRecord:
        if type(index) is not int:
            raise DomainError(f"mode index must be an int, got {index!r}")
        record = self._mode_index.get(index)
        if record is None:
            raise DomainError(f"no mode with index {index}")
        return record

    def mode_amplitudes(self, index: int) -> tuple[complex, complex]:
        """Logical amplitudes of a mode; plus-type modes are (1,1)/sqrt(2)."""
        record = self.mode_by_index(index)
        if record.amplitudes is not None:
            return record.amplitudes
        inv = 1.0 / math.sqrt(2.0)
        return (complex(inv), complex(inv))


def cluster_topology(adjacency: Topology | np.ndarray, specs: list[ModeSpec]) -> Topology:
    """``adjacency`` as a :class:`Topology` (:func:`as_topology`), with one spec per mode."""
    topology = as_topology(adjacency)
    if len(specs) != topology.n_modes:
        raise DomainError(f"{topology.n_modes} modes in adjacency but {len(specs)} node types")
    return topology


def build_cluster(
    adjacency: Topology | np.ndarray, node_types: list[ModeSpec], alpha: float
) -> SubsystemGraph:
    """Build the subsystem graph of a tuned cluster state.

    ``adjacency`` is the mode-level :class:`Topology` or a binary adjacency
    matrix (see :func:`cluster_topology`); ``node_types`` gives each mode's input
    state.  All-GKP inputs leave only the logical-logical edges; momentum
    inputs additionally keep their modular-position couplings.
    """
    alpha = require_bin_size(alpha)
    topology = cluster_topology(adjacency, node_types)

    modes = tuple(
        ModeRecord(index=i, cv_type=s.cv_type, label=s.label, amplitudes=s.amplitudes)
        for i, s in enumerate(node_types)
    )
    # One edge's tuned couplings as (kind offset on i, kind offset on j,
    # multiplicity), stamped onto each mode pair (i, j) less those at a GKP
    # end's pinned modular node.
    template = [(kind_a.offset, kind_b.offset, units) for kind_a, kind_b, units in TUNED_COUPLINGS]
    gkp = [record.cv_type.is_gkp for record in modes]
    stamped = sorted(
        (3 * i + ka, 3 * j + kb, multiplicity)
        for i, j in topology.edges
        for ka, kb, multiplicity in template
        if not (gkp[i] and ka == _MODULAR or gkp[j] and kb == _MODULAR)
    )
    return SubsystemGraph(alpha=alpha, modes=modes, edges=tuple(starmap(SubsystemEdge, stamped)))


def logical_neighbors(graph: SubsystemGraph) -> dict[int, set[int]]:
    """Mode-level adjacency from the logical-logical edges: index -> neighbor indices."""
    neighbors: dict[int, set[int]] = {record.index: set() for record in graph.modes}
    for edge in graph.edges:
        if edge.a % 3 == _LOGICAL and edge.b % 3 == _LOGICAL:
            neighbors[edge.a // 3].add(edge.b // 3)
            neighbors[edge.b // 3].add(edge.a // 3)
    return neighbors


def logical_subgraph(graph: SubsystemGraph) -> np.ndarray:
    """Binary adjacency over the logical nodes, indexed by mode position."""
    import numpy as np

    position = {record.index: pos for pos, record in enumerate(graph.modes)}
    n = len(graph.modes)
    a = np.zeros((n, n))
    for mode, neighbors in logical_neighbors(graph).items():
        for other in neighbors:
            a[position[mode], position[other]] = 1.0
    return a


def edge_coefficient(graph: SubsystemGraph, edge: SubsystemEdge) -> float:
    """Physical coupling coefficient of an edge, undoing the normalization."""
    modular_ends = (edge.a % 3 == _MODULAR) + (edge.b % 3 == _MODULAR)
    return EDGE_UNIT_PHASE * edge.multiplicity / graph.alpha**modular_ends


# --- rendering ---------------------------------------------------------------

_DOT_SHAPE = {
    SubsystemKind.LOGICAL: "diamond",
    SubsystemKind.GAUGE_BIN: "box",
    SubsystemKind.GAUGE_MODULAR: "circle",
}


#: Each node state's DOT label and style; a logical node shows its mode's
#: display name instead, and the open markers are labeled or pinned states.
_DOT_NODE = {
    NodeState.LOGICAL_PLUS: (None, ", style=filled"),
    NodeState.LOGICAL_LABELED: (None, ""),
    NodeState.UNIFORM_BIN: ("m", ", style=filled"),
    NodeState.UNIFORM_MODULAR: ("u", ", style=filled"),
    NodeState.MODULAR_ZERO: ("u=0", ""),
}

#: A label as a DOT string: backslashes and quotes escaped, and each line
#: break written as ``\n`` (``\r\n`` is folded to one first).
_DOT_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\n"})


def render_dot(graph: SubsystemGraph) -> str:
    """Deterministic DOT text, nodes by id; double edges are emitted as two parallel lines."""
    lines = ["graph subsystem_cluster {", "  node [fontsize=10];"]
    for record in sorted(graph.modes, key=attrgetter("index")):
        for node_id, _, kind, state in _node_fields(record):
            label, style = _DOT_NODE[state]
            if label is None:
                label = _display_name(record).replace("\r\n", "\n").translate(_DOT_ESCAPES)
            lines.append(f'  n{node_id} [shape={_DOT_SHAPE[kind]}, label="{label}"{style}];')
    for edge in sorted(graph.edges, key=lambda e: (e.a, e.b)):
        lines.extend(f"  n{edge.a} -- n{edge.b};" for _ in range(edge.multiplicity))
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- serialization -----------------------------------------------------------


def to_json(graph: SubsystemGraph) -> str:
    """The document of ``alpha``, ``modes`` and ``edges``; nodes follow from the modes."""
    doc = {
        "alpha": graph.alpha,
        "modes": [
            {
                "index": record.index,
                "cv_type": record.cv_type.value,
                **({"label": record.label} if record.label is not None else {}),
                **(
                    {"amplitudes": [[z.real, z.imag] for z in record.amplitudes]}
                    if record.amplitudes is not None
                    else {}
                ),
            }
            for record in graph.modes
        ],
        "edges": [
            {"a": e.a, "b": e.b, "multiplicity": e.multiplicity} for e in graph.edges
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _parse_amplitudes(raw: object, where: str) -> tuple[complex, complex]:
    if (
        not isinstance(raw, list)
        or len(raw) != 2
        or not all(isinstance(p, list) and len(p) == 2 for p in raw)
    ):
        raise GraphParseError(f"{where}: amplitudes must be [[re, im], [re, im]]")
    return (complex(raw[0][0], raw[0][1]), complex(raw[1][0], raw[1][1]))


def require_json_int(value: object, what: str) -> int:
    """A parsed JSON integer; floats, strings and booleans are refused, not truncated."""
    if type(value) is not int:
        raise GraphParseError(f"{what} must be a JSON integer, got {value!r}")
    return value


def from_json(text: str) -> SubsystemGraph:
    """Read a graph document; anything malformed raises :class:`GraphParseError`.

    Older documents also carry the derived ``nodes`` list; it must hold exactly
    the nodes the modes imply by the module docstring's layout, or it is refused.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise GraphParseError(
            f"invalid JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    except (RecursionError, ValueError) as err:  # too deep, or an int past the digit limit
        raise GraphParseError(f"invalid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise GraphParseError("top-level document must be an object")
    try:
        alpha = require_bin_size(doc["alpha"])
        modes = []
        for raw in doc["modes"]:
            index = raw["index"]
            cv_type = CvType(raw["cv_type"])
            amplitudes = (
                _parse_amplitudes(raw["amplitudes"], f"mode {index}")
                if "amplitudes" in raw
                else None
            )
            try:
                modes.append(ModeRecord(index, cv_type, raw.get("label"), amplitudes))
            except DomainError as err:
                raise GraphParseError(f"mode {index}: {err}") from err
        legacy = "nodes" in doc  # the key, not its value: a null node list is refused
        nodes = [
            (
                require_json_int(raw["id"], "id"),
                require_json_int(raw["mode"], "mode"),
                raw["kind"],
                raw["state"],
            )
            for raw in (doc["nodes"] if legacy else ())
        ]
        edges = tuple(
            SubsystemEdge(raw["a"], raw["b"], raw["multiplicity"]) for raw in doc["edges"]
        )
        expected = [
            (node_id, mode, kind.value, state.value)
            for record in (modes if legacy else ())
            for node_id, mode, kind, state in _node_fields(record)
        ]
        # compared in the try: an unhashable kind or state raises TypeError
        nodes_match = len(nodes) == len(expected) and set(nodes) == set(expected)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise GraphParseError(f"malformed graph document: {err}") from err

    if not nodes_match:
        raise GraphParseError(
            "nodes must be exactly ids 3*index + (0 logical, 1 gauge_m, 2 gauge_u) "
            "of each mode, with states matching its cv_type"
        )
    try:
        return SubsystemGraph(alpha=alpha, modes=tuple(modes), edges=edges)
    except DomainError as err:
        raise GraphParseError(f"malformed graph document: {err}") from err


# --- structural comparison ---------------------------------------------------


#: Largest per-amplitude difference of two labels that still counts as equal.
AMPLITUDE_TOLERANCE = 1e-12


def _positional_edges(graph: SubsystemGraph, order: list[ModeRecord]) -> list[tuple[int, ...]]:
    """The sorted (a, b, multiplicity) edges, each mode renumbered to its place in ``order``."""
    position = {record.index: pos for pos, record in enumerate(order)}
    return sorted(
        (3 * position[e.a // 3] + e.a % 3, 3 * position[e.b // 3] + e.b % 3, e.multiplicity)
        for e in graph.edges
    )


def structurally_equal(first: SubsystemGraph, second: SubsystemGraph) -> bool:
    """Equality up to mode renumbering; label strings are display-only and ignored.

    The modes are compared in index order, by cv_type and by amplitudes within
    :data:`AMPLITUDE_TOLERANCE`, then the edges with each mode renumbered to its place.
    """
    if first.alpha != second.alpha or len(first.modes) != len(second.modes):
        return False
    by_index = attrgetter("index")
    order_a, order_b = sorted(first.modes, key=by_index), sorted(second.modes, key=by_index)
    for ma, mb in zip(order_a, order_b):
        if ma.cv_type is not mb.cv_type:
            return False
        # equal cv_types carry amplitudes together: exactly the labeled ones do
        if ma.amplitudes is not None and any(
            abs(x - y) > AMPLITUDE_TOLERANCE for x, y in zip(ma.amplitudes, mb.amplitudes)
        ):
            return False
    return _positional_edges(first, order_a) == _positional_edges(second, order_b)
