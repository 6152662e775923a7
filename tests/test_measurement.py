import itertools
import math

import numpy as np
import pytest

from grid_reference import chain_adjacency, graph_shape, mixed_fidelity
from hiddencluster.certify import direct_cluster_state, graph_state, sample_label
from hiddencluster.errors import DomainError, UnsupportedMeasurement, UnsupportedTopology
from hiddencluster.gates import Topology, chain_topology
from hiddencluster.graphs import (
    CvType,
    NodeState,
    build_cluster,
    from_json,
    gkp_labeled,
    gkp_plus,
    logical_subgraph,
    momentum,
    norm_sq,
    structurally_equal,
    to_json,
)
from hiddencluster.measurement import (
    HADAMARD,
    LogicalFrame,
    _apply_hadamard,
    measure_p0,
    run_wire,
)
from hiddencluster.modular import DEFAULT_ALPHA, SubsystemKind
from hiddencluster.oracle import (
    GridSpec,
    fidelity,
    project_p0,
    reduced_density,
)

ALPHA = DEFAULT_ALPHA


def wire(n_modes, label=None, all_gkp=False):
    interior = gkp_plus() if all_gkp else momentum()
    specs = [interior] * (n_modes - 1)
    specs.append(gkp_labeled(*label) if label is not None else gkp_plus())
    return build_cluster(chain_adjacency(n_modes), specs, ALPHA)


class TestProjectorFactorization:
    def test_bra_factorizes_on_grid(self):
        # uniform single-mode bra == (logical + bra) (x) (uniform gauge bra)
        grid = GridSpec(n=2, alpha=ALPHA)
        dim = grid.dim
        full = np.full(dim, 1.0 / math.sqrt(dim))
        logical = np.full(2, 1.0 / math.sqrt(2.0))
        gauge = np.full(grid.n * grid.n, 1.0 / math.sqrt(grid.n * grid.n))
        assert np.allclose(full, np.kron(logical, gauge), atol=1e-15)


class TestMeasureP0:
    def test_terminal_measurement_on_five_mode_wire(self):
        label = (0.6, 0.8)
        graph = wire(5, label=label)
        result = measure_p0(graph, 4, LogicalFrame(0, label))
        assert len(result.graph.modes) == 4
        assert [m.index for m in result.graph.modes] == [0, 1, 2, 3]
        new_terminal = result.graph.mode_by_index(3)
        assert new_terminal.cv_type is CvType.GKP_LABELED
        expected = HADAMARD @ np.array(label)
        assert np.allclose(new_terminal.amplitudes, expected, atol=1e-12)
        # the neighbor's circle is now open and edge-free
        u_node = result.graph.node_by_id(3 * 3 + SubsystemKind.GAUGE_MODULAR.offset)
        assert u_node.state is NodeState.MODULAR_ZERO
        assert not any(u_node.id in (e.a, e.b) for e in result.graph.edges)
        assert result.frame.hadamard_count == 1
        assert result.record.measured_mode == 4
        assert result.record.outcome == 0 and type(result.record.outcome) is int
        assert result.record.converted_node == u_node.id
        assert result.record.frame is result.frame
        # the measured mode's three nodes are gone from the residual graph
        for kind in SubsystemKind:
            with pytest.raises(DomainError, match=f"^no node with id {12 + kind.offset}$"):
                result.graph.node_by_id(3 * 4 + kind.offset)

    def test_plus_label_becomes_zero(self):
        inv = 1 / math.sqrt(2)
        graph = wire(2, label=(inv, inv))
        result = measure_p0(graph, 1, LogicalFrame(0, (inv, inv)))
        amps = result.graph.mode_by_index(0).amplitudes
        assert abs(amps[0] - 1.0) < 1e-12 and abs(amps[1]) < 1e-12

    def test_two_steps_compose_to_identity_on_zero(self):
        graph = wire(3, label=(1.0, 0.0))
        frame = LogicalFrame(0, (1.0, 0.0))
        first = measure_p0(graph, 2, frame)
        second = measure_p0(first.graph, 1, first.frame)
        assert second.frame.hadamard_count == 2
        amps = np.array(second.frame.current_label)
        assert np.allclose(amps, [1.0, 0.0], atol=1e-12)

    def test_momentum_node_rejected(self):
        graph = build_cluster(chain_adjacency(2), [momentum(), gkp_plus()], ALPHA)
        with pytest.raises(UnsupportedMeasurement):
            measure_p0(graph, 0, LogicalFrame())

    def test_high_degree_rejected(self):
        star = np.zeros((4, 4))
        star[0, 1:] = star[1:, 0] = 1.0
        graph = build_cluster(star, [gkp_plus()] * 4, ALPHA)
        with pytest.raises(UnsupportedTopology):
            measure_p0(graph, 0, LogicalFrame())

    def test_isolated_node_rejected(self):
        graph = build_cluster(np.zeros((1, 1)), [gkp_plus()], ALPHA)
        with pytest.raises(UnsupportedTopology):
            measure_p0(graph, 0, LogicalFrame())

    @pytest.mark.parametrize(
        "neighbor_label, written_fidelity", [((0.6, 0.8), 0.98), ((1.0, 0.0), 0.5)]
    )
    def test_hop_into_labeled_neighbor_is_refused(self, neighbor_label, written_fidelity):
        """On the oracle the neighbor's own label d multiplies the teleported H c
        entrywise.  A graph labeled H c alone misses d, so the walk refuses the
        hop and names the neighbor."""
        grid = GridSpec(n=2, alpha=ALPHA)
        label = (1.0, 0.0)
        specs = [gkp_labeled(*neighbor_label), gkp_labeled(*label)]
        projected, _ = project_p0(direct_cluster_state(grid, chain_adjacency(2), specs), 1)
        state = projected.normalized()

        def single_mode(amplitudes):
            return graph_state(grid, wire(1, amplitudes / np.linalg.norm(amplitudes)))

        teleported = HADAMARD @ np.array(label)
        assert fidelity(state, single_mode(teleported)) == pytest.approx(written_fidelity)
        exact = single_mode(np.array(neighbor_label) * teleported)
        assert fidelity(state, exact) >= 1 - 1e-12
        graph = build_cluster(chain_adjacency(2), specs, ALPHA)
        with pytest.raises(UnsupportedMeasurement, match="^mode 0 is labeled;"):
            measure_p0(graph, 1, LogicalFrame())

    def test_rewrite_is_input_independent(self):
        rng = np.random.default_rng(12)
        shapes = {
            graph_shape(measure_p0(wire(4, sample_label(rng)), 3, LogicalFrame()).graph)
            for _ in range(8)
        }
        assert len(shapes) == 1

    def test_result_equals_residual_build(self):
        rng = np.random.default_rng(13)
        for n_modes in range(2, 7):
            label = sample_label(rng)
            graph = wire(n_modes, label)
            result = measure_p0(graph, n_modes - 1, LogicalFrame(0, label))
            residual_specs = [momentum()] * (n_modes - 2) + [
                gkp_labeled(*result.frame.current_label)
            ]
            rebuilt = build_cluster(chain_adjacency(n_modes - 1), residual_specs, ALPHA)
            assert structurally_equal(result.graph, rebuilt)

    @pytest.mark.parametrize("input_mode", [0, 1])
    @pytest.mark.parametrize("label", [(0.6, 0.8j), None], ids=["labeled", "gkp_plus"])
    def test_one_hop_is_the_one_step_wire(self, input_mode, label):
        """``measure_p0`` on a 2-mode wire's input end returns the ``WireRun`` that
        ``run_wire(graph, 1)`` does, whose ``record`` is its one record."""
        specs = [momentum(), gkp_labeled(*label) if label is not None else gkp_plus()]
        if input_mode == 0:
            specs.reverse()
        graph = build_cluster(chain_topology(2), specs, ALPHA)
        result = measure_p0(graph, input_mode, LogicalFrame())
        assert result == run_wire(graph, 1)
        assert result.records == (result.record,) and result.record.measured_mode == input_mode


class TestRunWire:
    def test_zero_steps_is_identity(self):
        graph = wire(4, (0.6, 0.8))
        run = run_wire(graph, 0)
        assert run.graph == graph
        assert run.records == ()
        with pytest.raises(IndexError):
            run.record
        assert run.frame.hadamard_count == 0
        assert run.frame.current_label == (0.6, 0.8)

    def test_three_steps_apply_h_cubed(self):
        rng = np.random.default_rng(14)
        label = sample_label(rng)
        run = run_wire(wire(4, label), 3)
        expected = np.array(label)
        for _ in range(3):
            expected = HADAMARD @ expected
        assert np.allclose(np.array(run.frame.current_label), expected, atol=1e-12)
        assert run.frame.hadamard_count == 3
        assert len(run.records) == 3
        assert run.record is run.records[-1] and run.record.frame is run.frame
        assert len(run.graph.modes) == 1

    def test_all_gkp_wire_gives_same_logical_result(self):
        rng = np.random.default_rng(15)
        label = sample_label(rng)
        hybrid = run_wire(wire(4, label), 2)
        gkp = run_wire(wire(4, label, all_gkp=True), 2)
        assert np.allclose(
            np.array(hybrid.frame.current_label),
            np.array(gkp.frame.current_label),
            atol=1e-12,
        )
        # graphs differ only in the circle fill states before measurement
        assert np.array_equal(logical_subgraph(hybrid.graph), logical_subgraph(gkp.graph))

    @pytest.mark.parametrize("n_modes", range(2, 9))
    @pytest.mark.parametrize("input_last", [True, False])
    @pytest.mark.parametrize("label", [(0.6, 0.8j), None], ids=["labeled", "gkp_plus"])
    def test_run_wire_folds_measure_p0(self, n_modes, input_last, label):
        specs = [momentum()] * (n_modes - 1)
        specs.append(gkp_labeled(*label) if label is not None else gkp_plus())
        start = n_modes - 1 if input_last else 0
        if not input_last:
            specs.reverse()
        graph = build_cluster(chain_adjacency(n_modes), specs, ALPHA)
        for k in range(n_modes):
            run = run_wire(graph, k)
            folded, frame, mode = graph, LogicalFrame(0, graph.mode_amplitudes(start)), start
            records, frames = [], []
            for _ in range(k):
                result = measure_p0(folded, mode, frame)
                folded, frame = result.graph, result.frame
                records.append(result.record)
                frames.append(frame)
                mode = result.record.converted_node // 3
            assert run.graph == folded
            assert run.records == tuple(records)
            assert tuple(record.frame for record in run.records) == tuple(frames)
            assert run.frame == frame
            if k:
                base = "psi" if label is not None else "+"
                assert run.graph.mode_by_index(mode).label == "H(" * k + base + ")" * k

    def test_long_wire_label_reads_back(self):
        """Each hop's rounding shrinks |c0|^2 + |c1|^2 by about 2.2e-16; without a
        rescale this label reaches 0.9999999999989999 after 4494 hops, and the
        residual document fails from_json's 1e-12 normalization check."""
        label = (0.7601281522225072, -0.6282264267706764 + 0.16594200464543277j)
        specs = [momentum()] * 4494 + [gkp_labeled(*label)]
        run = run_wire(build_cluster(chain_topology(4495), specs, ALPHA), 4494)
        assert abs(norm_sq(*run.frame.current_label) - 1.0) <= 1e-14
        assert from_json(to_json(run.graph)) == run.graph

    def test_too_many_steps_rejected(self):
        with pytest.raises(DomainError):
            run_wire(wire(3), 3)

    @pytest.mark.parametrize("steps", [1.0, True, "1"], ids=repr)
    def test_steps_must_be_an_int(self, steps):
        with pytest.raises(DomainError) as info:
            run_wire(wire(3), steps)
        assert str(info.value) == f"steps must be an int, got {steps!r}"

    @pytest.mark.parametrize("steps", [0, 1])
    def test_graph_without_modes_rejected(self, steps):
        empty = from_json(f'{{"alpha": {ALPHA!r}, "modes": [], "edges": []}}')
        with pytest.raises(DomainError) as info:
            run_wire(empty, steps)
        message = "run_wire needs a wire of at least one mode, got a graph with none"
        assert str(info.value) == message

    def test_non_wire_rejected(self):
        star = Topology(4, ((0, 1), (0, 2), (0, 3)))
        path_beside_triangle = Topology(5, ((0, 1), (2, 3), (2, 4), (3, 4)))
        for topology in (star, path_beside_triangle):
            graph = build_cluster(topology, [gkp_plus()] * topology.n_modes, ALPHA)
            for steps in range(topology.n_modes):
                with pytest.raises(UnsupportedTopology) as info:
                    run_wire(graph, steps)
                assert str(info.value) == "run_wire requires a linear chain of modes"

    def test_refuses_exactly_the_graphs_that_are_not_paths(self):
        """Over every graph of 1-5 modes, ``run_wire`` accepts a graph exactly
        when it is connected, has n - 1 edges and no mode of degree above 2.
        A degree sequence alone also passes a path beside disjoint cycles."""
        counts = {True: 0, False: 0}
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                edges = tuple(pair for bit, pair in enumerate(pairs) if mask >> bit & 1)
                degrees = [sum(m in pair for pair in edges) for m in range(n)]
                reached = {0}
                for _ in range(n):
                    reached |= {m for pair in edges if reached & set(pair) for m in pair}
                is_path = len(reached) == n and len(edges) == n - 1 and max(degrees) <= 2
                graph = build_cluster(Topology(n, edges), [gkp_plus()] * n, ALPHA)
                try:
                    run_wire(graph, 0)
                except UnsupportedTopology as err:
                    assert str(err) == "run_wire requires a linear chain of modes"
                    assert not is_path, edges
                else:
                    assert is_path, edges
                counts[is_path] += 1
        # 1099 graphs, of which 1 + 1 + 3 + 12 + 60 are labeled paths
        assert counts == {True: 77, False: 1022}

    def test_wire_without_gkp_end_rejected(self):
        specs = [momentum(), gkp_plus(), momentum()]
        graph = build_cluster(chain_adjacency(3), specs, ALPHA)
        with pytest.raises(UnsupportedMeasurement):
            run_wire(graph, 1)

    def test_hop_into_labeled_mode_is_refused(self):
        graph = build_cluster(
            chain_adjacency(3), [gkp_labeled(1.0, 0.0), momentum(), gkp_labeled(0.6, 0.8)], ALPHA
        )
        assert run_wire(graph, 1).records[0].measured_mode == 2
        with pytest.raises(UnsupportedMeasurement, match="^mode 0 is labeled;"):
            run_wire(graph, 2)

    def test_input_end_prefers_labeled(self):
        specs = [gkp_labeled(0.6, 0.8), momentum(), gkp_plus()]
        graph = build_cluster(chain_adjacency(3), specs, ALPHA)
        run = run_wire(graph, 1)
        assert run.records[0].measured_mode == 0


class TestHadamard:
    def test_forty_applications_match_numpy_in_repr(self):
        """The pure-Python Hadamard reproduces the numpy matrix product bit for bit,
        signed zeros included."""
        rng = np.random.default_rng(8)
        signed_zeros = [
            (complex(one, zero_im), complex(zero_re, zero_im2))
            for one in (1.0, -1.0)
            for zero_im in (0.0, -0.0)
            for zero_re in (0.0, -0.0)
            for zero_im2 in (0.0, -0.0)
        ]
        labels = [sample_label(rng) for _ in range(200)] + signed_zeros + [(0.6, 0.8j)]
        matrix = np.array(HADAMARD)
        for label in labels:
            ours = label
            reference = np.array(label, dtype=complex)
            for _ in range(40):
                ours = _apply_hadamard(ours)
                reference = matrix @ reference
                expected = (complex(reference[0]), complex(reference[1]))
                assert repr(ours) == repr(expected), label

    def test_matrix_form(self):
        s = 1.0 / math.sqrt(2.0)
        assert HADAMARD == ((s, s), (s, -s))
        assert np.array_equal(
            np.array(HADAMARD), np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        )


class TestOracleAgreement:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("n_modes", [2, 3])
    def test_post_measurement_logical_state(self, n, n_modes):
        rng = np.random.default_rng(16 + n)
        grid = GridSpec(n=n, alpha=ALPHA)
        label = sample_label(rng)
        adjacency = chain_adjacency(n_modes)
        specs = [momentum()] * (n_modes - 1) + [gkp_labeled(*label)]
        graph = build_cluster(adjacency, specs, ALPHA)
        state = direct_cluster_state(grid, adjacency, specs)

        projected, _ = project_p0(state, n_modes - 1)
        state = projected.normalized()
        result = measure_p0(graph, n_modes - 1, LogicalFrame(0, label))

        # full residual state matches the state of the rewritten graph
        assert fidelity(state, graph_state(grid, result.graph)) >= 1 - 1e-10
        # and so does the logical reduction of the neighbor
        neighbor_axis = n_modes - 2
        rho = reduced_density(state, [(neighbor_axis, SubsystemKind.LOGICAL)])
        rho_symbolic = reduced_density(
            graph_state(grid, result.graph), [(neighbor_axis, SubsystemKind.LOGICAL)]
        )
        assert mixed_fidelity(rho, rho_symbolic) >= 1 - 1e-10
