"""Test-side references for the grid oracle and the graph calculus.

Each state here is built the slow, obvious way: a chain of ``np.kron``
products for a product state, then one full-tensor phase per coupling in
the order given, and the qubit cluster state by a scan of a dense matrix.
The tests compare ``oracle.coupled_product``, ``oracle.qubit_cluster_state``
and the ``certify`` routes against these, build dense adjacency matrices
here, and compare two density matrices with ``mixed_fidelity``; the
package itself never imports them.
"""

import math

import numpy as np

from hiddencluster.certify import mode_state
from hiddencluster.errors import DomainError
from hiddencluster.gates import CouplingTerm, SubsystemOperator, chain_topology
from hiddencluster.graphs import canonical
from hiddencluster.oracle import DiscretizedState


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


def term(sub_a, sub_b, coefficient):
    """The coupling term exp(i c a (x) b) between two (mode, kind) subsystems."""
    (mode_a, kind_a), (mode_b, kind_b) = sub_a, sub_b
    op_a, op_b = SubsystemOperator(kind_a, mode_a), SubsystemOperator(kind_b, mode_b)
    return CouplingTerm(op_a, op_b, coefficient)


def term_couplings(grid, terms):
    """Symbolic coupling terms as oracle couplings on ``grid``."""
    values = grid.basis_values
    return [
        (t.op_a.mode, values(t.op_a.kind), t.op_b.mode, values(t.op_b.kind), t.coefficient)
        for t in terms
    ]


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
    """Hashable shape ignoring logical labels: used to compare rewrites across inputs."""
    g = canonical(graph)
    return (tuple(m.cv_type for m in g.modes), g.edges)


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
