import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grid_reference import (
    chain_adjacency,
    product_state,
    reference_edge_coefficient,
    reference_edge_pairs,
    reference_graph_state,
    spec_state,
    term_couplings,
    topology_matrix,
)
from hiddencluster import certify
from hiddencluster.certify import (
    _mode_vectors,
    decomposed_cluster_state,
    direct_cluster_state,
    graph_edge_pairs,
    graph_state,
    max_amplitude_deviation,
    random_topology,
    run_verification,
    sample_label,
)
from hiddencluster.cli import main
from hiddencluster.errors import DomainError
from hiddencluster.gates import Topology, chain_topology, decompose_cz_multimode, grid_topology
from hiddencluster.graphs import (
    CvType,
    SubsystemGraph,
    build_cluster,
    edge_coefficient,
    gkp_labeled,
    gkp_plus,
    logical_neighbors,
    momentum,
)
from hiddencluster.measurement import LogicalFrame, WireRun, measure_p0, run_wire
from hiddencluster.modular import DEFAULT_ALPHA
from hiddencluster.oracle import (
    DiscretizedState,
    GridSpec,
    coupled_product,
    fidelity,
    prepare_gkp_state,
    prepare_momentum_state,
    project_p0,
    qubit_cluster_state,
)

ALPHA = DEFAULT_ALPHA
DATA = Path(__file__).parent / "data"
RING_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0)]
STAR_EDGES = [(0, 1), (0, 2), (0, 3)]


def random_specs(rng, n):
    out = []
    for _ in range(n):
        draw = rng.integers(0, 3)
        if draw == 0:
            out.append(momentum())
        elif draw == 1:
            out.append(gkp_plus())
        else:
            out.append(gkp_labeled(*sample_label(rng)))
    return out


class TestGraphStateSemantics:
    """A built graph evaluated on the grid must equal the gate it came from."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_mixed_builds(self, n):
        rng = np.random.default_rng(20 + n)
        grid = GridSpec(n=n, alpha=ALPHA)
        for _ in range(10):
            n_modes = int(rng.integers(1, 4))
            upper = np.triu(rng.integers(0, 2, size=(n_modes, n_modes)), k=1).astype(float)
            adjacency = upper + upper.T
            specs = random_specs(rng, n_modes)
            graph = build_cluster(adjacency, specs, ALPHA)
            via_graph = graph_state(grid, graph)
            via_gate = direct_cluster_state(grid, adjacency, specs)
            assert max_amplitude_deviation(via_gate, via_graph) < 1e-12

    def test_alpha_mismatch_rejected(self):
        graph = build_cluster(chain_adjacency(2), [momentum()] * 2, 1.0)
        with pytest.raises(DomainError):
            graph_state(GridSpec(n=2, alpha=2.0), graph)


class TestDecomposedRouteMatchesReference:
    """The decomposed route equals the spec states' product under the terms'
    couplings, each built in ``grid_reference``, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_mixed_builds(self, n):
        rng = np.random.default_rng(40 + n)
        grid = GridSpec(n=n, alpha=ALPHA)
        for _ in range(10):
            topology = random_topology(rng, int(rng.integers(1, 4)))
            specs = random_specs(rng, topology.n_modes)
            terms = decompose_cz_multimode(topology, ALPHA).all_terms
            vectors = [spec_state(grid, spec).amplitudes for spec in specs]
            reference = coupled_product(grid, vectors, term_couplings(grid, terms))
            state = decomposed_cluster_state(grid, topology_matrix(topology), specs)
            assert state.n_modes == reference.n_modes == topology.n_modes
            assert state.amplitudes.tobytes() == reference.amplitudes.tobytes()


def assert_matches_node_record_reference(grid, graph):
    """graph_state, graph_edge_pairs and edge_coefficient equal their node-record
    references in ``grid_reference`` bit for bit."""
    state, reference = graph_state(grid, graph), reference_graph_state(grid, graph)
    assert state.n_modes == reference.n_modes == len(graph.modes)
    assert state.amplitudes.tobytes() == reference.amplitudes.tobytes()
    assert graph_edge_pairs(graph) == reference_edge_pairs(graph)
    for edge in graph.edges:
        assert edge_coefficient(graph, edge) == reference_edge_coefficient(graph, edge)


@st.composite
def mode_specs(draw, n_modes, labeled=True):
    """Momentum, plus and, when ``labeled``, labeled GKP modes, the labels away
    from the poles."""
    specs = []
    for _ in range(n_modes):
        kind = draw(st.sampled_from(["p", "gkp+", "gkp"] if labeled else ["p", "gkp+"]))
        if kind == "p":
            specs.append(momentum())
        elif kind == "gkp+":
            specs.append(gkp_plus())
        else:
            weight = draw(st.floats(0.05, 0.95))
            phase = draw(st.floats(0.0, 2.0 * math.pi))
            c1 = math.sqrt(1.0 - weight) * complex(math.cos(phase), math.sin(phase))
            specs.append(gkp_labeled(math.sqrt(weight), c1))
    return specs


@st.composite
def grid_and_graph(draw, max_modes):
    """A grid of size 1..3, and a graph built on a random topology of at most
    ``max_modes`` modes (3 at grid size 3, so a state stays below 6000 amplitudes)."""
    alpha = draw(st.sampled_from([ALPHA, 1.0, 2.5]))
    grid = GridSpec(n=draw(st.integers(1, 3)), alpha=alpha)
    n_modes = draw(st.integers(1, max_modes if grid.n < 3 else 3))
    pairs = [(i, j) for i in range(n_modes) for j in range(i + 1, n_modes)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    specs = draw(mode_specs(n_modes))
    return grid, build_cluster(Topology(n_modes, tuple(sorted(edges))), specs, alpha)


class TestGraphStateMatchesNodeRecordReference:
    """Reading an edge end's mode and kind from its id gives the same state,
    edge pairs and coefficients as reading its node record."""

    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @given(drawn=grid_and_graph(max_modes=4))
    def test_built_graphs(self, drawn):
        assert_matches_node_record_reference(*drawn)

    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @given(drawn=grid_and_graph(max_modes=5), data=st.data())
    def test_residual_graphs_of_measure_p0(self, drawn, data):
        """Measured degree-1 GKP-type modes leave gaps in the mode indices.  Only
        modes whose neighbor is unlabeled are measured: the walk refuses the rest."""
        grid, graph = drawn
        for _ in range(data.draw(st.integers(1, 3), label="measurements")):
            neighbors = logical_neighbors(graph)
            candidates = [
                record.index
                for record in graph.modes
                if record.cv_type.is_gkp
                and len(neighbors[record.index]) == 1
                and graph.mode_by_index(min(neighbors[record.index])).cv_type
                is not CvType.GKP_LABELED
            ]
            if not candidates:
                break
            mode = data.draw(st.sampled_from(candidates), label="measured mode")
            graph = measure_p0(graph, mode, LogicalFrame(0, graph.mode_amplitudes(mode))).graph
            assert_matches_node_record_reference(grid, graph)

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_residual_graphs_of_run_wire(self, data):
        """A wire whose input is mode 0 keeps only its high mode indices.  Only the
        input is labeled: the walk refuses to hop into a labeled mode."""
        grid = GridSpec(n=data.draw(st.integers(1, 3), label="grid n"), alpha=ALPHA)
        n_modes = data.draw(st.integers(2, 5), label="n_modes")
        specs = data.draw(mode_specs(n_modes, labeled=False), label="specs")
        input_mode = data.draw(st.sampled_from([0, n_modes - 1]), label="input")
        specs[input_mode] = gkp_labeled(0.6, 0.8j)
        graph = build_cluster(chain_topology(n_modes), specs, ALPHA)
        steps = data.draw(st.integers(1, n_modes - 1), label="steps")
        run = run_wire(graph, steps)
        kept = n_modes - steps
        assert len(run.graph.modes) == kept
        if grid.n < 3 or kept <= 3:
            assert_matches_node_record_reference(grid, run.graph)

    def test_residual_graphs_with_gaps(self):
        """A measured star leaf and a wire walked from mode 0 leave gaps."""
        star = Topology(4, ((0, 1), (0, 2), (0, 3)))
        specs = [momentum(), gkp_plus(), gkp_labeled(0.6, 0.8j), gkp_plus()]
        graph = build_cluster(star, specs, ALPHA)
        measured = measure_p0(graph, 2, LogicalFrame(0, (0.6, 0.8j))).graph
        assert [record.index for record in measured.modes] == [0, 1, 3]
        wire = build_cluster(chain_topology(4), [gkp_plus()] + [momentum()] * 3, ALPHA)
        walked = run_wire(wire, 2).graph
        assert [record.index for record in walked.modes] == [2, 3]
        for residual in (measured, walked):
            assert residual.edges
            assert_matches_node_record_reference(GridSpec(n=2, alpha=ALPHA), residual)


class TestGridEqualitiesUpToN4:
    """The three state identities hold per amplitude on every grid size."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cv_gkp_and_hybrid(self, n):
        grid = GridSpec(n=n, alpha=ALPHA)
        rng = np.random.default_rng(30 + n)
        cases = [
            [momentum(), momentum()],
            [gkp_plus(), gkp_plus()],
            [momentum(), gkp_labeled(*sample_label(rng))],
            [momentum(), momentum(), momentum()],
            [gkp_plus(), gkp_plus(), gkp_plus()],
            [momentum(), momentum(), gkp_labeled(*sample_label(rng))],
        ]
        for specs in cases:
            adjacency = chain_adjacency(len(specs))
            lhs = direct_cluster_state(grid, adjacency, specs)
            rhs = decomposed_cluster_state(grid, adjacency, specs)
            assert max_amplitude_deviation(lhs, rhs) < 1e-12

    @pytest.mark.parametrize("topology", ["ring", "star"])
    def test_four_modes_at_n4(self, topology):
        # 32**4 = 2**20 amplitudes, the largest size the benchmark runs
        grid = GridSpec(n=4, alpha=ALPHA)
        adjacency = np.zeros((4, 4))
        for i, j in RING_EDGES if topology == "ring" else STAR_EDGES:
            adjacency[i, j] = adjacency[j, i] = 1.0
        specs = [momentum(), gkp_plus(), gkp_labeled(0.6, 0.8j), momentum()]
        lhs = direct_cluster_state(grid, adjacency, specs)
        rhs = decomposed_cluster_state(grid, adjacency, specs)
        assert max_amplitude_deviation(lhs, rhs) < 1e-12
        graph = build_cluster(adjacency, specs, ALPHA)
        assert 1.0 - fidelity(lhs, graph_state(grid, graph)) < 1e-10

    @pytest.mark.parametrize("route", [direct_cluster_state, decomposed_cluster_state])
    def test_adjacency_size_must_match_specs(self, route):
        grid = GridSpec(n=1, alpha=ALPHA)
        with pytest.raises(DomainError, match="^2 modes in adjacency but 3 node types$"):
            route(grid, chain_adjacency(2), [momentum()] * 3)


class TestTopologyBoundary:
    """Each route reads a Topology and its dense matrix the same way."""

    @pytest.mark.parametrize("route", [direct_cluster_state, decomposed_cluster_state])
    def test_routes_are_bit_identical_for_topology_and_matrix(self, route):
        grid = GridSpec(n=2, alpha=ALPHA)
        rng = np.random.default_rng(50)
        cases = [chain_topology(1), chain_topology(3), grid_topology(2, 2)]
        cases += [random_topology(rng, n_modes) for n_modes in (2, 3, 3, 4)]
        for topology in cases:
            specs = random_specs(rng, topology.n_modes)
            from_edges = route(grid, topology, specs)
            from_matrix = route(grid, topology_matrix(topology), specs)
            assert from_edges.amplitudes.tobytes() == from_matrix.amplitudes.tobytes()

    def test_topologies_are_accepted(self):
        grid = GridSpec(2, 1.0)
        chain = chain_topology(2)
        assert direct_cluster_state(grid, chain, [momentum()] * 2).n_modes == 2
        assert decomposed_cluster_state(grid, chain, [momentum()] * 2).n_modes == 2
        assert qubit_cluster_state(chain).shape == (4,)

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.zeros((2, 3)), "must be square"),
            (np.array([[0.0, 1.0], [0.0, 0.0]]), "must be symmetric"),
            (np.eye(2), "must have zero diagonal"),
            (0.5 * chain_adjacency(2), "entries must be 0 or 1"),
        ],
        ids=["not-square", "asymmetric", "diagonal", "not-binary"],
    )
    @pytest.mark.parametrize("route", [direct_cluster_state, decomposed_cluster_state])
    def test_malformed_matrices_keep_their_messages(self, route, matrix, message):
        with pytest.raises(DomainError, match=message):
            route(GridSpec(n=1, alpha=ALPHA), matrix, [momentum()] * 2)


class TestHelpers:
    def test_mode_vectors_dispatch(self):
        grid = GridSpec(n=2, alpha=ALPHA)
        inv = 1 / math.sqrt(2)
        specs = [momentum(), gkp_plus(), gkp_labeled(0.6, 0.8)]
        expected = [
            prepare_momentum_state(grid),
            prepare_gkp_state(grid, inv, inv),
            prepare_gkp_state(grid, 0.6, 0.8),
        ]
        for vector, state in zip(_mode_vectors(grid, specs), expected, strict=True):
            assert np.array_equal(vector, state.amplitudes)

    def test_deviation_ignores_global_phase(self):
        rng = np.random.default_rng(40)
        grid = GridSpec(n=2, alpha=ALPHA)
        base = rng.normal(size=grid.dim) + 1j * rng.normal(size=grid.dim)
        state = DiscretizedState(grid, 1, base)
        rotated = DiscretizedState(grid, 1, base * np.exp(1.23j))
        assert max_amplitude_deviation(state, rotated) < 1e-12

    def test_deviation_requires_matching_shapes(self):
        grid = GridSpec(n=1, alpha=1.0)
        one = product_state(grid, [momentum()])
        two = product_state(grid, [momentum(), momentum()])
        with pytest.raises(DomainError):
            max_amplitude_deviation(one, two)


class TestVerificationReport:
    def test_report_structure_and_pass(self):
        report = run_verification(grid_n=2, max_modes=2, seed=3)
        assert report["passed"] is True
        assert set(report["config"]) == {"alpha", "grid_n", "max_modes", "seed", "g_scale"}
        names = [c["name"] for c in report["checks"]]
        assert names == sorted(set(names), key=names.index)  # unique, ordered
        for check in report["checks"]:
            assert set(check) == {"name", "passed", "max_deviation", "tolerance"}

    def test_detuned_gate_fails_state_identity(self):
        report = run_verification(grid_n=2, max_modes=2, seed=3, g_scale=0.5)
        by_name = {c["name"]: c for c in report["checks"]}
        assert not report["passed"]
        assert not by_name["cv_cluster_identity"]["passed"]
        # the symbolic-only checks are weight-independent and still pass
        assert by_name["two_mode_phase_identity"]["passed"]
        assert by_name["block_expansion"]["passed"]

    def test_resource_bounds(self):
        # just past the 2**20 budget on grid amplitudes (50**4, 128**3,
        # 1058**2, 32**5, 18**5, 8**7) or on logical density entries (4**11),
        # then a count too small and one too large to raise any base to; the
        # budget is the one bound on the grid size too
        for grid_n, max_modes in [(5, 4), (8, 3), (23, 2), (4, 5), (3, 5), (2, 7), (1, 11),
                                  (2, 1), (1, 10**12)]:
            with pytest.raises(DomainError, match=r"budget of 2\*\*20 = 1048576"):
                run_verification(grid_n=grid_n, max_modes=max_modes)

    def test_budget_message_names_the_grid_and_the_count(self):
        # the grid size alone is over budget here; 2 modes is the minimum
        with pytest.raises(DomainError) as info:
            run_verification(grid_n=23, max_modes=2)
        assert str(info.value) == (
            "grid n=23 with max_modes=2 is out of range: max_modes must be at least 2, "
            "and (2*n*n)**max_modes grid amplitudes and 4**max_modes logical density "
            "entries must stay within the budget of 2**20 = 1048576"
        )

    @pytest.mark.parametrize("grid_n", [0, -1])
    def test_grid_size_is_checked_by_gridspec(self, grid_n):
        with pytest.raises(DomainError) as info:
            run_verification(grid_n=grid_n)
        assert str(info.value) == f"grid size must be a positive integer, got {grid_n}"

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("grid_n, max_modes", [(5, 3), (7, 3), (16, 2)])
    def test_grids_past_four_pass_within_the_budget(self, grid_n, max_modes, seed):
        report = run_verification(grid_n=grid_n, max_modes=max_modes, seed=seed)
        assert report["passed"] is True
        assert report["config"]["grid_n"] == grid_n

    def test_budget_edge_is_accepted(self):
        report = run_verification(grid_n=2, max_modes=4, seed=3)
        assert report["passed"] is True
        assert report["config"]["max_modes"] == 4

    @pytest.mark.parametrize(
        "name, value",
        [("grid_n", 2.0), ("grid_n", True), ("max_modes", 3.0), ("seed", 1.5), ("seed", False)],
        ids=repr,
    )
    def test_integer_arguments_refuse_floats_and_bools(self, name, value):
        with pytest.raises(DomainError) as info:
            run_verification(**{name: value})
        if name == "grid_n":  # GridSpec holds the one grid-size rule
            assert str(info.value) == f"grid size must be a positive integer, got {value!r}"
        else:
            assert str(info.value) == f"{name} must be an int, got {value!r}"

    def test_negative_seed_is_refused_as_the_cli_refuses_it(self, capsys, monkeypatch):
        monkeypatch.delenv("HIDDENCLUSTER_SEED", raising=False)
        with pytest.raises(DomainError) as info:
            run_verification(seed=-1)
        assert str(info.value) == "seed must be nonnegative, got -1"
        assert main(["verify", "--seed", "-1"]) == 2
        assert str(info.value) in capsys.readouterr().err

    @pytest.mark.parametrize("g_scale", [math.inf, -math.inf, math.nan])
    def test_non_finite_g_scale_is_rejected(self, g_scale):
        with pytest.raises(DomainError, match="g_scale must be finite"):
            run_verification(grid_n=2, max_modes=2, g_scale=g_scale)


def _zero_weight_projection(state, mode):
    return project_p0(state, mode)[0], 0.0


def _walk_without_edges(graph, steps):
    run = run_wire(graph, steps)
    bare = SubsystemGraph(run.graph.alpha, run.graph.modes, ())
    return WireRun(graph=bare, frame=run.frame, records=run.records)


def _no_logical_neighbors(graph):
    return {record.index: set() for record in graph.modes}


class TestFailureBranches:
    """Each failure branch of the teleport and soundness checks, forced by
    patching one call the check makes, fails that check alone and makes
    ``verify`` exit 5."""

    @pytest.mark.parametrize(
        "name, replacement, failing, deviation",
        [
            ("project_p0", _zero_weight_projection, "unzip_teleportation", None),
            ("run_wire", _walk_without_edges, "unzip_teleportation", None),
            ("logical_neighbors", _no_logical_neighbors, "graph_soundness", (1.0, 50.0)),
        ],
        ids=["zero-weight", "structure-mismatch", "soundness"],
    )
    def test_forced_failure(self, name, replacement, failing, deviation, monkeypatch, capsys):
        """An infinite deviation is written as ``null``; the soundness check
        counts one failure per random topology with an edge."""
        monkeypatch.delenv("HIDDENCLUSTER_SEED", raising=False)
        monkeypatch.setattr(certify, name, replacement)
        report = run_verification(seed=3)
        failed = [check for check in report["checks"] if not check["passed"]]
        assert [check["name"] for check in failed] == [failing]
        if deviation is None:
            assert failed[0]["max_deviation"] is None
        else:
            assert deviation[0] <= failed[0]["max_deviation"] <= deviation[1]
        assert report["passed"] is False
        assert main(["verify", "--seed", "3"]) == 5
        printed = strict_json(capsys.readouterr().out)
        assert printed == report


def strict_json(text):
    """``json.loads`` that refuses ``NaN``, ``Infinity`` and ``-Infinity``,
    which RFC 8259 JSON does not have."""

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


def test_strict_json_refuses_non_finite_numbers():
    for text in ('{"max_deviation": Infinity}', "[NaN]", "-Infinity"):
        with pytest.raises(ValueError, match="not JSON"):
            strict_json(text)


@pytest.mark.parametrize("path", sorted(DATA.glob("verify-*.json")), ids=lambda path: path.name)
def test_pinned_reports_are_strict_json(path):
    report = strict_json(path.read_text(encoding="utf-8"))
    assert all(check["max_deviation"] is not None for check in report["checks"])


def test_non_finite_deviation_is_a_failing_null():
    assert certify._check("c", math.inf, 1.0) == {
        "name": "c", "passed": False, "max_deviation": None, "tolerance": 1.0
    }
    assert certify._check("c", math.nan, 1.0)["max_deviation"] is None
    assert certify._check("c", 0.5, 1.0)["passed"] is True
