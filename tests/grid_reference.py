"""Test-side references for the grid oracle and the graph calculus.

Each state here is built the slow, obvious way: a chain of ``np.kron``
products for a product state, then one full-tensor phase per coupling in
the order given, and the qubit cluster state by a scan of a dense matrix.
The tests compare ``oracle.coupled_product``, ``oracle.qubit_cluster_state``
and the ``certify`` routes against these, build dense adjacency matrices
here, and compare two density matrices with ``mixed_fidelity``.  A graph's
grid state, edge coefficients and edge pairs are read here node record by
node record through ``node_by_id``, the form ``certify`` and ``graphs``
used before they read an edge end's mode and kind from ``id // 3`` and
``id % 3``.  ``legacy_document`` writes a graph's document in its older
form, which also carried the derived ``nodes`` list, with the node layout
spelled out here; ``NODE_DEFECTS`` lists broken ``nodes`` lists of such a
document that ``from_json`` and every command reading a graph must refuse.
The package itself never imports this module.
"""

import json
import math

import numpy as np

from hiddencluster.certify import mode_state
from hiddencluster.errors import DomainError
from hiddencluster.gates import CouplingTerm, chain_topology
from hiddencluster.graphs import EDGE_UNIT_PHASE, CvType, NodeState, to_json
from hiddencluster.modular import SubsystemKind
from hiddencluster.oracle import DiscretizedState, coupled_product


def tensor_product(states):
    """The kron product of grid states, mode-major in list order."""
    if not states:
        raise DomainError("tensor product needs at least one state")
    grid = states[0].grid
    amps = states[0].amplitudes
    total_modes = states[0].n_modes
    for state in states[1:]:
        if state.grid != grid:
            raise DomainError("all factors must share one grid")
        amps = np.kron(amps, state.amplitudes)
        total_modes += state.n_modes
    return DiscretizedState(grid, total_modes, amps)


def product_state(grid, specs):
    """The unentangled product of each mode spec's grid state."""
    return tensor_product([mode_state(grid, spec) for spec in specs])


def _on_mode(values, mode, n_modes, dim):
    shape = [1] * n_modes
    shape[mode] = dim
    return np.asarray(values).reshape(shape)


def sequential_reference(state, couplings):
    """One full-tensor factor exp(i c a (x) b) per coupling, in the order given.

    Couplings are ``(mode_a, values_a, mode_b, values_b, coefficient)`` as
    in ``oracle.coupled_product``; returns the flat amplitude vector.
    """
    dim, n_modes = state.grid.dim, state.n_modes
    tensor = state.amplitudes.reshape((dim,) * n_modes)
    for mode_a, values_a, mode_b, values_b, coefficient in couplings:
        va = _on_mode(values_a, mode_a, n_modes, dim)
        vb = _on_mode(values_b, mode_b, n_modes, dim)
        tensor = tensor * np.exp(1j * coefficient * va * vb)
    return tensor.reshape(-1)


def term_couplings(grid, terms):
    """Symbolic coupling terms as oracle couplings on ``grid``."""
    couplings = []
    for t in terms:
        (mode_a, kind_a), (mode_b, kind_b) = t.op_a, t.op_b
        couplings.append(
            (mode_a, grid.basis_values(kind_a), mode_b, grid.basis_values(kind_b), t.coefficient)
        )
    return couplings


def apply_terms(state, terms):
    """Apply symbolic coupling terms to any grid state, one factor at a time."""
    couplings = term_couplings(state.grid, terms)
    return DiscretizedState(state.grid, state.n_modes, sequential_reference(state, couplings))


def apply_phase(state, kind, mode, coefficient):
    """Apply exp(i * coefficient * op) for one diagonal subsystem operator on one mode."""
    dim, n_modes = state.grid.dim, state.n_modes
    phase = np.exp(1j * coefficient * _on_mode(state.grid.basis_values(kind), mode, n_modes, dim))
    tensor = state.amplitudes.reshape((dim,) * n_modes) * phase
    return DiscretizedState(state.grid, n_modes, tensor.reshape(-1))


def graph_shape(graph):
    """Hashable shape ignoring logical labels: used to compare rewrites across inputs.

    The cv_types in mode-index order, and the sorted ``(a, b, multiplicity)``
    edges with each mode renumbered to its place in that order.
    """
    order = sorted(graph.modes, key=lambda record: record.index)
    place = {record.index: pos for pos, record in enumerate(order)}

    def renumber(node_id):
        return 3 * place[node_id // 3] + node_id % 3

    edges = sorted((renumber(e.a), renumber(e.b), e.multiplicity) for e in graph.edges)
    return (tuple(record.cv_type for record in order), tuple(edges))


def legacy_document(graph):
    """``graph``'s document as older versions wrote it: the keys ``to_json``
    writes plus ``nodes``, mode by mode in ``graph.modes`` order, each mode's
    logical, gauge_m and gauge_u node with id ``3*index + (0, 1, 2)``."""
    doc = json.loads(to_json(graph))
    doc["nodes"] = []
    for record in graph.modes:
        logical = "logical_labeled" if record.cv_type is CvType.GKP_LABELED else "logical_plus"
        modular = "modular_zero" if record.cv_type.is_gkp else "uniform_modular"
        kinds = [("logical", logical), ("gauge_m", "uniform_bin"), ("gauge_u", modular)]
        doc["nodes"] += [
            {"id": 3 * record.index + offset, "mode": record.index, "kind": kind, "state": state}
            for offset, (kind, state) in enumerate(kinds)
        ]
    return doc


_NODE_MISMATCH = (
    "nodes must be exactly ids 3*index + (0 logical, 1 gauge_m, 2 gauge_u) "
    "of each mode, with states matching its cv_type"
)


def _set_field(index, key, value):
    def edit(nodes, n_modes):
        nodes[index][key] = value

    return edit


def _repeat_first(nodes, n_modes):
    nodes[1] = dict(nodes[0])


def _append_node(nodes, n_modes):
    nodes.append({"id": 3 * n_modes, "mode": n_modes, "kind": "logical", "state": "logical_plus"})


#: Defects of a legacy document's ``nodes`` list, each an edit ``(nodes, n_modes)``
#: of a document whose first mode is a momentum mode, with the exact refusal.
NODE_DEFECTS = {
    "wrong-state": (_set_field(0, "state", "logical_labeled"), _NODE_MISMATCH),
    "unknown-state": (_set_field(0, "state", "plus"), _NODE_MISMATCH),
    "repeated-and-missing": (_repeat_first, _NODE_MISMATCH),
    "extra-node": (_append_node, _NODE_MISMATCH),
    "unknown-kind": (_set_field(0, "kind", "gauge_x"), _NODE_MISMATCH),
    "list-kind": (
        _set_field(0, "kind", ["logical"]),
        "malformed graph document: unhashable type: 'list'",
    ),
    "float-id": (
        _set_field(0, "id", 0.0),
        "malformed graph document: id must be a JSON integer, got 0.0",
    ),
}


def topology_matrix(topology):
    """The dense binary adjacency matrix of a topology."""
    a = np.zeros((topology.n_modes, topology.n_modes))
    for i, j in topology.edges:
        a[i, j] = a[j, i] = 1.0
    return a


def chain_adjacency(n_modes):
    """Binary adjacency matrix of a linear chain on ``n_modes`` modes."""
    return topology_matrix(chain_topology(n_modes))


def dense_qubit_cluster_state(adjacency):
    """The qubit cluster state of a dense adjacency matrix, one basis state at a time.

    Each amplitude of |+...+> (mode-major) takes a factor -1 for every pair
    i < j with a nonzero entry whose bits are both 1.
    """
    adjacency = np.asarray(adjacency, dtype=float)
    n = adjacency.shape[0]
    amps = np.full(2**n, 1.0 / math.sqrt(2**n), dtype=complex)
    for index in range(2**n):
        bits = [(index >> (n - 1 - i)) & 1 for i in range(n)]
        sign = 1.0
        for i in range(n):
            for j in range(i + 1, n):
                if adjacency[i, j] != 0.0 and bits[i] and bits[j]:
                    sign = -sign
        amps[index] *= sign
    return amps


def _sqrtm_psd(rho):
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def mixed_fidelity(rho, sigma):
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))**2 of two density
    matrices, each normalized to unit trace first."""
    x, y = np.asarray(rho, dtype=complex), np.asarray(sigma, dtype=complex)
    if x.ndim != 2 or x.shape != y.shape:
        raise DomainError("fidelity arguments must have matching dimensions")
    x = x / np.trace(x).real
    y = y / np.trace(y).real
    sq = _sqrtm_psd(x)
    eigenvalues = np.linalg.eigvalsh(sq @ y @ sq)
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    return float(np.sqrt(eigenvalues).sum() ** 2)


def node_of(graph, mode, kind):
    """A mode's node of one kind, as a ``Node`` record."""
    return graph.node_by_id(3 * mode + kind.offset)


def reference_edge_coefficient(graph, edge):
    """Physical coupling coefficient of an edge, its ends' kinds read from node records."""
    modular_ends = sum(
        graph.node_by_id(i).kind is SubsystemKind.GAUGE_MODULAR for i in (edge.a, edge.b)
    )
    return EDGE_UNIT_PHASE * edge.multiplicity / graph.alpha**modular_ends


def reference_edge_pairs(graph):
    """Subsystem pairs joined by an edge, as unordered (mode, kind) pairs of node records."""
    pairs = set()
    for edge in graph.edges:
        node_a, node_b = graph.node_by_id(edge.a), graph.node_by_id(edge.b)
        pairs.add(frozenset(((node_a.mode, node_a.kind), (node_b.mode, node_b.kind))))
    return pairs


def reference_graph_state(grid, graph):
    """A subsystem graph's grid state, each node and edge end read as a ``Node`` record."""
    if grid.alpha != graph.alpha:
        raise DomainError("grid and graph disagree on the bin size")
    n = grid.n
    axis_of = {record.index: axis for axis, record in enumerate(graph.modes)}
    vectors = []
    for record in graph.modes:
        logical_node = node_of(graph, record.index, SubsystemKind.LOGICAL)
        if logical_node.state is NodeState.LOGICAL_LABELED:
            logical = np.array(graph.mode_amplitudes(record.index), dtype=complex)
        else:
            logical = np.full(2, 1.0 / math.sqrt(2.0), dtype=complex)
        bins = np.full(n, 1.0 / math.sqrt(n), dtype=complex)
        modular_node = node_of(graph, record.index, SubsystemKind.GAUGE_MODULAR)
        if modular_node.state is NodeState.MODULAR_ZERO:
            modular = np.zeros(n, dtype=complex)
            modular[grid.zero_u_index] = 1.0
        else:
            modular = np.full(n, 1.0 / math.sqrt(n), dtype=complex)
        vectors.append(np.kron(np.kron(logical, bins), modular))
    values = {kind: grid.basis_values(kind) for kind in SubsystemKind}
    couplings = []
    for edge in graph.edges:
        node_a, node_b = graph.node_by_id(edge.a), graph.node_by_id(edge.b)
        couplings.append(
            (
                axis_of[node_a.mode],
                values[node_a.kind],
                axis_of[node_b.mode],
                values[node_b.kind],
                reference_edge_coefficient(graph, edge),
            )
        )
    return coupled_product(grid, vectors, couplings)
