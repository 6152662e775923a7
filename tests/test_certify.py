import math

import numpy as np
import pytest

from hiddencluster.certify import (
    align_global_phase,
    decomposed_cluster_state,
    direct_cluster_state,
    graph_state,
    max_amplitude_deviation,
    mode_state,
    product_state,
    run_verification,
    sample_label,
)
from hiddencluster.errors import DomainError
from hiddencluster.gates import chain_adjacency
from hiddencluster.graphs import build_cluster, gkp_labeled, gkp_plus, momentum
from hiddencluster.modular import DEFAULT_ALPHA
from hiddencluster.oracle import GridSpec, fidelity, prepare_gkp_state

ALPHA = DEFAULT_ALPHA
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
        with pytest.raises(DomainError, match="adjacency size does not match"):
            route(grid, chain_adjacency(2), [momentum()] * 3)


class TestHelpers:
    def test_mode_state_dispatch(self):
        grid = GridSpec(n=2, alpha=ALPHA)
        inv = 1 / math.sqrt(2)
        plus = mode_state(grid, gkp_plus())
        assert fidelity(plus, prepare_gkp_state(grid, inv, inv)) == pytest.approx(1.0)
        labeled = mode_state(grid, gkp_labeled(0.6, 0.8))
        assert fidelity(labeled, prepare_gkp_state(grid, 0.6, 0.8)) == pytest.approx(1.0)

    def test_align_global_phase(self):
        rng = np.random.default_rng(40)
        base = rng.normal(size=8) + 1j * rng.normal(size=8)
        rotated = base * np.exp(1.23j)
        aligned = align_global_phase(base, rotated)
        assert np.allclose(aligned, base, atol=1e-12)

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
        with pytest.raises(DomainError, match=r"1\.\.4"):
            run_verification(grid_n=5)
        # just past the 2**20 budget on grid amplitudes (32**5, 18**5, 8**7)
        # or on logical density entries (4**11), then a count too small
        # and one too large to raise any base to
        for grid_n, max_modes in [(4, 5), (3, 5), (2, 7), (1, 11), (2, 1), (1, 10**12)]:
            with pytest.raises(DomainError, match=r"budget of 2\*\*20 = 1048576"):
                run_verification(grid_n=grid_n, max_modes=max_modes)

    def test_budget_edge_is_accepted(self):
        report = run_verification(grid_n=2, max_modes=4, seed=3)
        assert report["passed"] is True
        assert report["config"]["max_modes"] == 4

    @pytest.mark.parametrize("g_scale", [math.inf, -math.inf, math.nan])
    def test_non_finite_g_scale_is_rejected(self, g_scale):
        with pytest.raises(DomainError, match="g_scale must be finite"):
            run_verification(grid_n=2, max_modes=2, g_scale=g_scale)
