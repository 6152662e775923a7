"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time

import numpy as np

from grid_reference import apply_terms, chain_adjacency, product_state
from hiddencluster.certify import (
    all_subsystem_pairs,
    direct_cluster_state,
    graph_edge_pairs,
    graph_state,
    max_amplitude_deviation,
    sample_label,
    sample_quantum_numbers,
    two_mode_phase_deviation,
)
from hiddencluster.cli import main as cli_main
from hiddencluster.gates import (
    CouplingTerm,
    _coupling_layout,
    chain_topology,
    decompose_cz_multimode,
    decompose_cz_two_mode,
)
from hiddencluster.graphs import (
    NodeState,
    _node_fields,
    build_cluster,
    gkp_labeled,
    gkp_plus,
    logical_subgraph,
    momentum,
    structurally_equal,
)
from hiddencluster.measurement import HADAMARD, LogicalFrame, measure_p0
from hiddencluster.modular import DEFAULT_ALPHA, SubsystemKind
from hiddencluster.oracle import (
    GridSpec,
    connected_correlators,
    coupling_strength,
    fidelity,
    prepare_gkp_state,
    project_p0,
    purity,
    qubit_cluster_state,
    reduced_density,
)

PI = math.pi
L, M, U = SubsystemKind.LOGICAL, SubsystemKind.GAUGE_BIN, SubsystemKind.GAUGE_MODULAR


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_phase_identity_suite():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    worst = 0.0
    for alpha in (1.0, DEFAULT_ALPHA, 2.0):
        tuples = (
            sample_quantum_numbers(rng, alpha, 1000),
            sample_quantum_numbers(rng, alpha, 1000),
        )
        tuned = PI / alpha**2
        weights = list(rng.uniform(-2 * tuned, 2 * tuned, size=20)) + [tuned, tuned / 2, 0.0]
        for g in weights:
            worst = max(worst, two_mode_phase_deviation(g, alpha, tuples))
        assert len(decompose_cz_two_mode(tuned, alpha)) == 6
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed < 5.0
    _report(
        "criterion-1 phase-identity suite",
        ok,
        f"max deviation {worst:.3e} < 1e-10, tuned terms = 6, {elapsed:.2f}s < 5s",
    )


def test_criterion_2_kronecker_expansion():
    worst = 0.0
    for alpha in (1.0, DEFAULT_ALPHA, 2.0):
        # the nine couplings of one tuned edge as its 3x3 (ell, m, u) block
        block = np.zeros((3, 3))
        for kind_a, kind_b, coefficient in _coupling_layout(PI / alpha**2, alpha):
            block[kind_a.offset, kind_b.offset] = coefficient
        expected = np.array(
            [
                [PI, 2 * PI, PI / alpha],
                [2 * PI, 4 * PI, 2 * PI / alpha],
                [PI / alpha, 2 * PI / alpha, PI / alpha**2],
            ]
        )
        worst = max(worst, float(np.max(np.abs(block - expected) / np.abs(expected))))
    _report(
        "criterion-2 kronecker expansion",
        worst < 1e-12,
        f"max relative deviation {worst:.3e} < 1e-12",
    )


def test_criterion_3_hidden_cluster_identity():
    start = time.monotonic()
    alpha = DEFAULT_ALPHA
    worst = 0.0
    for n in (1, 2, 3):
        grid = GridSpec(n=n, alpha=alpha)
        for n_modes in (2, 3):
            adjacency = chain_adjacency(n_modes)
            specs = [momentum()] * n_modes
            lhs = direct_cluster_state(grid, adjacency, specs)
            decomposition = decompose_cz_multimode(adjacency, alpha)
            rhs = apply_terms(product_state(grid, specs), decomposition.all_terms)
            worst = max(worst, max_amplitude_deviation(lhs, rhs))
    elapsed = time.monotonic() - start
    ok = worst < 1e-12 and elapsed < 30.0
    _report(
        "criterion-3 hidden-cluster identity",
        ok,
        f"max per-amplitude deviation {worst:.3e} < 1e-12, {elapsed:.2f}s < 30s",
    )


def test_criterion_4_gkp_cluster_product_structure():
    alpha = DEFAULT_ALPHA
    worst_purity = 0.0
    worst_fidelity = 0.0
    worst_correlator = 0.0
    for n in (1, 2, 3):
        grid = GridSpec(n=n, alpha=alpha)
        for n_modes in (2, 3):
            chain = chain_topology(n_modes)
            state = direct_cluster_state(grid, chain, [gkp_plus()] * n_modes)
            rho = reduced_density(state, [(mode, L) for mode in range(n_modes)])
            worst_purity = max(worst_purity, 1.0 - purity(rho))
            worst_fidelity = max(
                worst_fidelity, 1.0 - fidelity(qubit_cluster_state(chain), rho)
            )
            correlators = connected_correlators(state, all_subsystem_pairs(n_modes))
            worst_correlator = max(worst_correlator, max(map(abs, correlators)))
    ok = worst_purity < 1e-12 and worst_fidelity < 1e-12 and worst_correlator < 1e-12
    _report(
        "criterion-4 gkp cluster product structure",
        ok,
        f"purity deficit {worst_purity:.3e}, fidelity deficit {worst_fidelity:.3e}, "
        f"max correlator {worst_correlator:.3e}, all < 1e-12",
    )


def test_criterion_5_hybrid_asymmetric_coupling():
    alpha = DEFAULT_ALPHA
    rng = np.random.default_rng(5)
    adjacency = chain_adjacency(2)
    worst = 0.0
    structure_ok = True
    for trial in range(20):
        label = sample_label(rng)
        specs = [momentum(), gkp_labeled(*label)]
        for n in (1, 2, 3):
            grid = GridSpec(n=n, alpha=alpha)
            lhs = direct_cluster_state(grid, adjacency, specs)
            # CS (x) Phi, then the single asymmetric interaction factor
            terms = [
                CouplingTerm((0, L), (1, L), PI),
                CouplingTerm((0, U), (1, U), PI / alpha**2),
                CouplingTerm((0, M), (1, U), 2 * PI / alpha),
                CouplingTerm((0, U), (1, M), 2 * PI / alpha),
                CouplingTerm((0, U), (1, L), PI / alpha),
            ]
            rhs = apply_terms(product_state(grid, specs), terms)
            worst = max(worst, max_amplitude_deviation(lhs, rhs))
            if n > 1:
                graph = build_cluster(adjacency, specs, alpha)
                assert len(graph.edges) == 3
                edges = graph_edge_pairs(graph)
                detected = {
                    frozenset((sub_a, sub_b))
                    for sub_a, sub_b in all_subsystem_pairs(2)
                    if coupling_strength(lhs, sub_a, sub_b) > 1e-6
                }
                absent_max = max(
                    coupling_strength(lhs, sub_a, sub_b)
                    for sub_a, sub_b in all_subsystem_pairs(2)
                    if frozenset((sub_a, sub_b)) not in edges
                )
                structure_ok = structure_ok and detected == edges and absent_max < 1e-12
    ok = worst < 1e-12 and structure_ok
    _report(
        "criterion-5 hybrid asymmetric coupling",
        ok,
        f"max per-amplitude deviation {worst:.3e} < 1e-12, "
        f"correlator set == 3-edge graph: {structure_ok}",
    )


def test_criterion_6_unzipping_teleportation():
    start = time.monotonic()
    alpha = DEFAULT_ALPHA
    rng = np.random.default_rng(6)
    worst_fidelity = 0.0
    worst_off_mass = 0.0
    worst_label = 0.0
    structure_ok = True
    for n in (2, 3, 4):
        grid = GridSpec(n=n, alpha=alpha)
        for n_modes in (2, 3):
            adjacency = chain_adjacency(n_modes)
            for trial in range(20):
                label = sample_label(rng)
                specs = [momentum()] * (n_modes - 1) + [gkp_labeled(*label)]
                graph = build_cluster(adjacency, specs, alpha)
                state = direct_cluster_state(grid, adjacency, specs)
                remaining = list(range(n_modes))
                frame = LogicalFrame(0, label)
                expected = np.array(label, dtype=complex)
                current = n_modes - 1
                for _ in range(n_modes - 1):
                    axis = remaining.index(current)
                    projected, _ = project_p0(state, axis)
                    state = projected.normalized()
                    remaining.pop(axis)
                    result = measure_p0(graph, current, frame)
                    graph, frame = result.graph, result.frame
                    expected = HADAMARD @ expected
                    neighbor = graph.node_by_id(result.record.converted_node).mode

                    worst_fidelity = max(
                        worst_fidelity, 1.0 - fidelity(state, graph_state(grid, graph))
                    )
                    axis = remaining.index(neighbor)
                    rho_u = reduced_density(state, [(axis, U)])
                    worst_off_mass = max(
                        worst_off_mass,
                        sum(
                            rho_u[j, j].real
                            for j in range(grid.n)
                            if j != grid.zero_u_index
                        ),
                    )
                    residual = build_cluster(
                        chain_adjacency(len(remaining)),
                        [
                            gkp_labeled(*frame.current_label)
                            if index == neighbor
                            else momentum()
                            for index in remaining
                        ],
                        alpha,
                    )
                    structure_ok = structure_ok and structurally_equal(graph, residual)
                    current = neighbor
                # wire consumed: the last mode is pure GKP(H^k label)
                worst_fidelity = max(
                    worst_fidelity,
                    1.0 - fidelity(state, prepare_gkp_state(grid, *expected)),
                )
                worst_label = max(
                    worst_label,
                    float(np.max(np.abs(np.array(frame.current_label) - expected))),
                )
                assert frame.hadamard_count == n_modes - 1
    elapsed = time.monotonic() - start
    ok = (
        worst_fidelity < 1e-10
        and worst_off_mass < 1e-20
        and worst_label < 1e-12
        and structure_ok
        and elapsed < 60.0
    )
    _report(
        "criterion-6 unzipping teleportation",
        ok,
        f"fidelity deficit {worst_fidelity:.3e} < 1e-10, off-u=0 mass "
        f"{worst_off_mass:.3e} < 1e-20, label drift {worst_label:.3e} < 1e-12, "
        f"graphs match residual builds: {structure_ok}, {elapsed:.2f}s < 60s",
    )


def test_criterion_7_graph_calculus_soundness():
    rng = np.random.default_rng(7)
    alpha = DEFAULT_ALPHA
    failures = 0
    for _ in range(200):
        n_modes = int(rng.integers(1, 9))
        upper = np.triu(rng.integers(0, 2, size=(n_modes, n_modes)), k=1).astype(float)
        adjacency = upper + upper.T
        specs = []
        for _ in range(n_modes):
            draw = rng.integers(0, 3)
            if draw == 0:
                specs.append(momentum())
            elif draw == 1:
                specs.append(gkp_plus())
            else:
                specs.append(gkp_labeled(*sample_label(rng)))
        graph = build_cluster(adjacency, specs, alpha)
        if not np.array_equal(logical_subgraph(graph), adjacency):
            failures += 1
            continue
        pinned = {
            node_id
            for record in graph.modes
            for node_id, _, _, state in _node_fields(record)
            if state is NodeState.MODULAR_ZERO
        }
        if any(edge.a in pinned or edge.b in pinned for edge in graph.edges):
            failures += 1
    _report(
        "criterion-7 graph calculus soundness",
        failures == 0,
        f"{failures} failures over 200 random graphs (N <= 8, mixed node types)",
    )


def test_criterion_8_determinism(tmp_path):
    wire = tmp_path / "wire.json"
    assert cli_main(
        ["build", "--topology", "chain:4", "--nodes", "p,p,p,gkp:0.6,0.8", "-o", str(wire)]
    ) == 0
    renders = []
    reports = []
    for tag in ("a", "b"):
        dot = tmp_path / f"render_{tag}.dot"
        report = tmp_path / f"report_{tag}.json"
        assert cli_main(["render", "--input", str(wire), "-o", str(dot)]) == 0
        assert cli_main(["verify", "--seed", "11", "-o", str(report)]) == 0
        renders.append(dot.read_bytes())
        reports.append(report.read_bytes())
    ok = renders[0] == renders[1] and reports[0] == reports[1]
    assert json.loads(reports[0])["passed"] is True
    _report(
        "criterion-8 determinism",
        ok,
        "verify report and render output byte-identical across two runs",
    )
