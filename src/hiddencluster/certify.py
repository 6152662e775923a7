"""Bridges between the symbolic layer and the grid oracle, plus the
reproducible verification suite behind ``hiddencluster verify``.

Everything here evaluates symbolic objects (coupling terms, subsystem
graphs) as concrete operations on discretized states, so the two routes to
any identity stay independent: the oracle never consults the decomposition
it is checking.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DomainError
from .gates import (
    Topology,
    _coupling_layout,
    chain_topology,
    decompose_cz_multimode,
    decompose_cz_two_mode,
)
from .graphs import (
    CvType,
    ModeSpec,
    SubsystemGraph,
    build_cluster,
    cluster_topology,
    edge_coefficient,
    gkp_labeled,
    gkp_plus,
    logical_neighbors,
    momentum,
    structurally_equal,
)
from .measurement import HADAMARD, run_wire
from .modular import DEFAULT_ALPHA, SubsystemKind, require_real
from .oracle import (
    DiscretizedState,
    GridSpec,
    connected_correlators,
    coupled_product,
    coupling_strength,
    fidelity,
    prepare_gkp_state,
    prepare_momentum_state,
    project_p0,
    purity,
    qubit_cluster_state,
    reduced_density,
)

# --- evaluating symbolic objects on the grid ---------------------------------


def _kind_values(grid: GridSpec) -> list[np.ndarray]:
    """Each kind's basis values, indexed by its offset."""
    return [grid.basis_values(kind) for kind in SubsystemKind]


def _term_couplings(grid: GridSpec, terms) -> list:
    values = _kind_values(grid)
    couplings = []
    for t in terms:
        (mode_a, kind_a), (mode_b, kind_b) = t.op_a, t.op_b
        couplings.append(
            (mode_a, values[kind_a.offset], mode_b, values[kind_b.offset], t.coefficient)
        )
    return couplings


def _mode_vectors(grid: GridSpec, specs: list[ModeSpec]) -> list[np.ndarray]:
    """Each mode spec's one-mode amplitude vector on ``grid``."""
    inv = 1.0 / math.sqrt(2.0)
    vectors = []
    for spec in specs:
        if spec.cv_type is CvType.MOMENTUM:
            state = prepare_momentum_state(grid)
        elif spec.cv_type is CvType.GKP_PLUS:
            state = prepare_gkp_state(grid, inv, inv)
        else:
            assert spec.amplitudes is not None
            state = prepare_gkp_state(grid, *spec.amplitudes)
        vectors.append(state.amplitudes)
    return vectors


def direct_cluster_state(
    grid: GridSpec,
    adjacency: Topology | np.ndarray,
    specs: list[ModeSpec],
    g_scale: float = 1.0,
) -> DiscretizedState:
    """Route one: the position-position gate on every edge, times a finite ``g_scale``.

    ``adjacency``, in both routes, is a :class:`Topology` or a binary
    matrix, which :func:`cluster_topology` checks against ``specs`` once.
    """
    topology = cluster_topology(adjacency, specs)
    g_scale = require_real(g_scale, "g_scale")
    if not math.isfinite(g_scale):
        raise DomainError(f"g_scale must be finite, got {g_scale!r}")
    g = g_scale * math.pi / grid.alpha**2
    pos = grid.position_values()
    couplings = [(i, pos, j, pos, g) for i, j in topology.edges]
    return coupled_product(grid, _mode_vectors(grid, specs), couplings)


def decomposed_cluster_state(
    grid: GridSpec, adjacency: Topology | np.ndarray, specs: list[ModeSpec]
) -> DiscretizedState:
    """Route two: the surviving symbolic coupling terms."""
    topology = cluster_topology(adjacency, specs)
    terms = decompose_cz_multimode(topology, grid.alpha).all_terms
    return coupled_product(grid, _mode_vectors(grid, specs), _term_couplings(grid, terms))


def graph_state(grid: GridSpec, graph: SubsystemGraph) -> DiscretizedState:
    """Evaluate a subsystem graph as a grid state.

    Each mode becomes the product of its logical amplitudes (``|+>`` unless
    labeled), a uniform bin vector, and a modular vector that is pinned at
    u = 0 for GKP-type modes and uniform otherwise; each edge applies its
    coupling phase.  Mode axes follow the graph's mode list order, and an
    edge end ``id`` is kind offset ``id % 3`` of mode ``id // 3``.
    """
    if grid.alpha != graph.alpha:
        raise DomainError("grid and graph disagree on the bin size")
    n = grid.n
    axis_of = {record.index: axis for axis, record in enumerate(graph.modes)}
    vectors = []
    for record in graph.modes:
        logical = np.array(graph.mode_amplitudes(record.index), dtype=complex)
        bins = np.full(n, 1.0 / math.sqrt(n), dtype=complex)
        if record.cv_type.is_gkp:
            modular = np.zeros(n, dtype=complex)
            modular[grid.zero_u_index] = 1.0
        else:
            modular = np.full(n, 1.0 / math.sqrt(n), dtype=complex)
        vectors.append(np.kron(np.kron(logical, bins), modular))
    values = _kind_values(grid)
    couplings = [
        (
            axis_of[edge.a // 3],
            values[edge.a % 3],
            axis_of[edge.b // 3],
            values[edge.b % 3],
            edge_coefficient(graph, edge),
        )
        for edge in graph.edges
    ]
    return coupled_product(grid, vectors, couplings)


def max_amplitude_deviation(a: DiscretizedState, b: DiscretizedState) -> float:
    """Largest per-amplitude difference once b's global phase is aligned to a's.

    b is rotated to match a at a's largest amplitude, unless either vanishes there.
    """
    x, y = a.amplitudes, b.amplitudes
    if x.shape != y.shape:
        raise DomainError("states have different dimensions")
    index = int(np.argmax(np.abs(x)))
    rotation = x[index] * np.conj(y[index])
    magnitude = abs(rotation)
    if magnitude != 0.0:
        y = y * (rotation / magnitude)
    return float(np.max(np.abs(x - y)))


# --- sampling helpers ---------------------------------------------------------


def sample_quantum_numbers(rng: np.random.Generator, alpha: float, count: int):
    """Random (ell, m, u) arrays with bins in [-5, 5]."""
    ell = rng.integers(0, 2, size=count).astype(float)
    m = rng.integers(-5, 6, size=count).astype(float)
    u = rng.uniform(-alpha / 2, alpha / 2, size=count)
    return ell, m, u


def sample_label(rng: np.random.Generator) -> tuple[complex, complex]:
    """Random qubit amplitudes kept away from the poles.

    Both weights stay in [0.2, 0.8] so that every coupling touching the
    logical subsystem acts nontrivially; at the poles some couplings are
    genuinely inert and produce no correlation to detect.
    """
    weight = rng.uniform(0.2, 0.8)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return (complex(math.sqrt(weight)), math.sqrt(1.0 - weight) * np.exp(1j * phase))


def phase_deviation(edges, alpha: float, terms, samples) -> float:
    """Max |exp(i sum_(i, j, w) w x_i x_j) - product of the terms' factors| over samples.

    ``edges`` holds weighted ``(i, j, w)`` mode pairs, ``terms`` the coupling
    terms that should reproduce their phase, ``samples[mode]`` that mode's
    (ell, m, u) arrays, and each position is x = alpha*(ell + 2m) + u.
    """
    x = [alpha * (ell + 2.0 * m) + u for ell, m, u in samples]
    exponent = np.zeros_like(x[0])
    for i, j, w in edges:
        exponent = exponent + w * x[i] * x[j]
    lhs = np.exp(1j * exponent)
    product = np.ones_like(lhs)
    for term in terms:
        (mode_a, kind_a), (mode_b, kind_b) = term.op_a, term.op_b
        va = samples[mode_a][kind_a.offset]
        vb = samples[mode_b][kind_b.offset]
        product = product * np.exp(1j * term.coefficient * va * vb)
    return float(np.max(np.abs(lhs - product)))


# --- verification suite -------------------------------------------------------


def _check(name: str, deviation: float, tolerance: float) -> dict:
    """One report entry: the check passes when its deviation is within tolerance.

    A deviation that is not finite is written as ``None`` (JSON ``null``) and fails.
    """
    finite = math.isfinite(deviation)
    return {
        "name": name,
        "passed": bool(finite and deviation <= tolerance),
        "max_deviation": float(deviation) if finite else None,
        "tolerance": tolerance,
    }


def all_subsystem_pairs(n_modes: int):
    subsystems = [(mode, kind) for mode in range(n_modes) for kind in SubsystemKind]
    return itertools.combinations(subsystems, 2)


def graph_edge_pairs(graph: SubsystemGraph) -> set:
    """Subsystem pairs joined by an edge, as unordered (mode, kind) pairs."""
    kinds = tuple(SubsystemKind)
    return {
        frozenset(((edge.a // 3, kinds[edge.a % 3]), (edge.b // 3, kinds[edge.b % 3])))
        for edge in graph.edges
    }


def random_topology(rng: np.random.Generator, n_modes: int) -> Topology:
    """A random graph on ``n_modes`` modes: each pair joined with probability 1/2."""
    rows, cols = np.nonzero(np.triu(rng.integers(0, 2, size=(n_modes, n_modes)), k=1))
    return Topology(n_modes, tuple(zip(rows.tolist(), cols.tolist())))


def random_mode_specs(rng: np.random.Generator, n_modes: int) -> list[ModeSpec]:
    specs = []
    for _ in range(n_modes):
        draw = rng.integers(0, 3)
        if draw == 0:
            specs.append(momentum())
        elif draw == 1:
            specs.append(gkp_plus())
        else:
            specs.append(gkp_labeled(*sample_label(rng)))
    return specs


def _expected_block(alpha: float) -> np.ndarray:
    pi = math.pi
    return np.array(
        [
            [pi, 2 * pi, pi / alpha],
            [2 * pi, 4 * pi, 2 * pi / alpha],
            [pi / alpha, 2 * pi / alpha, pi / alpha**2],
        ]
    )


def _wire_unzip_deviation(
    grid: GridSpec, n_modes: int, label: tuple[complex, complex], g_scale: float
) -> float:
    """Worst deficit across one full teleportation run down a wire.

    Step k is ``run_wire`` for k steps on the built wire, whose input is its
    last mode, so the oracle measures the state's last axis at each step.
    Covers, at every step: fidelity of the measured oracle state against the
    state of the walked graph, structural equality of that graph with a
    fresh build on the residual wire, and the neighbor's modular mass away
    from u = 0.  At the end, the single remaining mode is compared against
    the Hadamard-evolved label directly.
    """
    chain = chain_topology(n_modes)
    specs = [momentum() for _ in range(n_modes - 1)] + [gkp_labeled(*label)]
    graph = build_cluster(chain, specs, grid.alpha)
    state = direct_cluster_state(grid, chain, specs, g_scale=g_scale)

    worst = 0.0
    expected_label = np.array(label, dtype=complex)
    for steps in range(1, n_modes):
        rest = n_modes - steps
        projected, weight = project_p0(state, rest)
        if weight == 0.0:
            return float("inf")
        state = projected.normalized()
        run = run_wire(graph, steps)
        expected_label = HADAMARD @ expected_label

        worst = max(worst, 1.0 - fidelity(state, graph_state(grid, run.graph)))

        residual_specs = [momentum() for _ in range(rest - 1)]
        residual_specs.append(gkp_labeled(*run.frame.current_label))
        rebuilt = build_cluster(chain_topology(rest), residual_specs, grid.alpha)
        if not structurally_equal(run.graph, rebuilt):
            return float("inf")

        rho_u = reduced_density(state, [(rest - 1, SubsystemKind.GAUGE_MODULAR)])
        off_mass = float(
            sum(
                rho_u[j, j].real
                for j in range(grid.n)
                if j != grid.zero_u_index
            )
        )
        # the off-mass bound is far tighter than the fidelity bound; scale it
        # so one worst-case number covers both
        worst = max(worst, off_mass * 1e10)

    final = prepare_gkp_state(grid, *expected_label)
    worst = max(worst, 1.0 - fidelity(state, final))
    label_drift = float(
        np.max(np.abs(np.array(run.frame.current_label) - expected_label))
    )
    return max(worst, label_drift)


#: Largest state ``run_verification`` builds: ``dim**max_modes`` grid amplitudes,
#: and the ``2**max_modes`` x ``2**max_modes`` logical density matrix of the GKP check.
_VERIFY_BUDGET = 2**20


def run_verification(
    alpha: float = DEFAULT_ALPHA,
    grid_n: int = 2,
    max_modes: int = 3,
    seed: int = 0,
    g_scale: float = 1.0,
) -> dict:
    """Run the identity suite and return a reproducible report dictionary.

    ``g_scale`` rescales the direct-route gate weight; any value other than
    1 detunes the gate and the state-equality checks fail, which is the
    intended negative control.  ``max_modes`` and ``seed`` are ints, ``seed`` >= 0;
    ``GridSpec`` checks ``grid_n``, and the amplitude budget alone bounds both sizes.
    """
    for name, value in (("max_modes", max_modes), ("seed", seed)):
        if type(value) is not int:
            raise DomainError(f"{name} must be an int, got {value!r}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    grid = GridSpec(n=grid_n, alpha=alpha)
    base = max(grid.dim, 4)
    # base >= 4 > 2, so a count past the budget's bit length is over budget
    # without raising base to it
    if not 2 <= max_modes <= _VERIFY_BUDGET.bit_length() or base**max_modes > _VERIFY_BUDGET:
        raise DomainError(
            f"grid n={grid_n} with max_modes={max_modes} is out of range: max_modes must be "
            f"at least 2, and (2*n*n)**max_modes grid amplitudes and 4**max_modes logical "
            f"density entries must stay within the budget of 2**20 = {_VERIFY_BUDGET}"
        )
    rng = np.random.default_rng(seed)
    tuned = math.pi / grid.alpha**2
    # numpy refuses the draws below from [-2*tuned, 2*tuned] when the width overflows
    if math.isinf(4.0 * tuned):
        raise DomainError(f"bin size {grid.alpha!r} is too small: 4*pi/alpha**2 overflows")
    checks: list[dict] = []

    # Phase identities for the two-mode gate at random and tuned weights.
    tuples = (
        sample_quantum_numbers(rng, alpha, 1000),
        sample_quantum_numbers(rng, alpha, 1000),
    )
    weights = list(rng.uniform(-2.0 * tuned, 2.0 * tuned, size=20))
    weights += [tuned, tuned / 2.0, 0.0]
    deviation = max(
        phase_deviation([(0, 1, g)], alpha, decompose_cz_two_mode(g, alpha), tuples)
        for g in weights
    )
    checks.append(_check("two_mode_phase_identity", deviation, 1e-10))
    checks.append(
        _check(
            "tuned_term_count",
            float(abs(len(decompose_cz_two_mode(tuned, alpha)) - 6)),
            0.0,
        )
    )

    # Multimode identity on a random 4-mode adjacency.
    topology4 = random_topology(rng, 4)
    samples4 = [sample_quantum_numbers(rng, alpha, 1000) for _ in range(4)]
    edges4 = [(i, j, tuned) for i, j in topology4.edges]
    terms4 = decompose_cz_multimode(topology4, alpha).all_terms
    deviation = phase_deviation(edges4, alpha, terms4, samples4)
    checks.append(_check("multimode_phase_identity", deviation, 1e-10))

    # Block expansion of the two-mode edge: its nine couplings as a 3x3 block.
    block = np.zeros((3, 3))
    for kind_a, kind_b, coefficient in _coupling_layout(tuned, alpha):
        block[kind_a.offset, kind_b.offset] = coefficient
    expected = _expected_block(alpha)
    relative = np.abs(block - expected) / np.abs(expected)
    checks.append(_check("block_expansion", float(relative.max()), 1e-12))

    # Hidden-cluster state identity for momentum inputs.
    deviation = 0.0
    for n_modes in range(2, max_modes + 1):
        a = chain_topology(n_modes)
        specs = [momentum() for _ in range(n_modes)]
        lhs = direct_cluster_state(grid, a, specs, g_scale=g_scale)
        rhs = decomposed_cluster_state(grid, a, specs)
        deviation = max(deviation, max_amplitude_deviation(lhs, rhs))
    checks.append(_check("cv_cluster_identity", deviation, 1e-12))

    # GKP clusters: logical state pure, equal to the qubit cluster, gauge flat.
    deviation = 0.0
    for n_modes in range(2, max_modes + 1):
        a = chain_topology(n_modes)
        specs = [gkp_plus() for _ in range(n_modes)]
        state = direct_cluster_state(grid, a, specs, g_scale=g_scale)
        logical = reduced_density(
            state, [(mode, SubsystemKind.LOGICAL) for mode in range(n_modes)]
        )
        deviation = max(deviation, 1.0 - purity(logical))
        deviation = max(deviation, 1.0 - fidelity(qubit_cluster_state(a), logical))
        correlators = connected_correlators(state, all_subsystem_pairs(n_modes))
        deviation = max(deviation, max(map(abs, correlators)))
    checks.append(_check("gkp_cluster_product", deviation, 1e-12))

    # Hybrid two-mode state: asymmetric factorization and correlation set.
    state_dev = 0.0
    absent_strength = 0.0
    present_margin = 0.0
    for _ in range(5):
        label = sample_label(rng)
        specs = [momentum(), gkp_labeled(*label)]
        a = chain_topology(2)
        lhs = direct_cluster_state(grid, a, specs, g_scale=g_scale)
        rhs = decomposed_cluster_state(grid, a, specs)
        state_dev = max(state_dev, max_amplitude_deviation(lhs, rhs))
        graph = build_cluster(a, specs, alpha)
        edge_pairs = graph_edge_pairs(graph)
        if grid.n > 1:
            for pair_a, pair_b in all_subsystem_pairs(2):
                strength = coupling_strength(lhs, pair_a, pair_b)
                if frozenset((pair_a, pair_b)) in edge_pairs:
                    present_margin = max(present_margin, 1e-6 - strength)
                else:
                    absent_strength = max(absent_strength, strength)
    checks.append(_check("hybrid_state_identity", state_dev, 1e-12))
    checks.append(
        _check(
            "hybrid_correlation_structure",
            max(absent_strength, present_margin),
            1e-12,
        )
    )

    # Teleportation down a wire unzips the neighbor and applies Hadamards.
    deviation = 0.0
    for n_modes in range(2, max_modes + 1):
        for _ in range(5):
            deviation = max(
                deviation,
                _wire_unzip_deviation(grid, n_modes, sample_label(rng), g_scale),
            )
    checks.append(_check("unzip_teleportation", deviation, 1e-10))

    # Graph calculus: the logical edges always return the input topology.
    failures = 0
    for _ in range(50):
        n_modes = int(rng.integers(2, 9))
        a = random_topology(rng, n_modes)
        graph = build_cluster(a, random_mode_specs(rng, n_modes), alpha)
        logical = logical_neighbors(graph)
        if {(i, j) for i in logical for j in logical[i] if i < j} != set(a.edges):
            failures += 1
    checks.append(_check("graph_soundness", float(failures), 0.0))

    report = {
        "config": {
            "alpha": float(alpha),
            "grid_n": grid_n,
            "max_modes": max_modes,
            "seed": int(seed),
            "g_scale": float(g_scale),
        },
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    return report
