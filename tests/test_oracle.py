import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hiddencluster.certify import apply_terms, direct_cluster_state
from hiddencluster.errors import DomainError
from hiddencluster.gates import chain_adjacency, decompose_cz_two_mode
from hiddencluster.graphs import gkp_labeled, gkp_plus, momentum
from hiddencluster.modular import DEFAULT_ALPHA, SubsystemKind
from hiddencluster.oracle import (
    DiscretizedState,
    GridSpec,
    apply_couplings,
    apply_cz,
    apply_subsystem_coupling,
    apply_subsystem_phase,
    connected_correlator,
    coupled_product,
    coupling_strength,
    fidelity,
    load_state,
    prepare_gkp_state,
    prepare_momentum_state,
    project_p0,
    purity,
    qubit_cluster_state,
    reduced_density,
    save_state,
    tensor_product,
)

ALPHA = DEFAULT_ALPHA
L, M, U = SubsystemKind.LOGICAL, SubsystemKind.GAUGE_BIN, SubsystemKind.GAUGE_MODULAR


def random_state(grid, n_modes, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=grid.dim**n_modes) + 1j * rng.normal(size=grid.dim**n_modes)
    return DiscretizedState(grid, n_modes, raw / np.linalg.norm(raw))


class TestGridSpec:
    def test_dimensions_and_ranges(self):
        grid = GridSpec(n=4, alpha=2.0)
        assert grid.dim == 32
        assert list(grid.m_values()) == [-2, -1, 0, 1]
        assert np.allclose(grid.u_values(), [-1.0, -0.5, 0.0, 0.5])
        assert grid.u_values()[grid.zero_u_index] == 0.0

    def test_odd_grid_contains_zero(self):
        grid = GridSpec(n=3, alpha=1.0)
        assert list(grid.m_values()) == [-1, 0, 1]
        assert grid.u_values()[grid.zero_u_index] == 0.0
        assert np.all(np.abs(grid.u_values()) <= 0.5)

    def test_position_values_recompose(self):
        grid = GridSpec(n=2, alpha=ALPHA)
        ell = grid.basis_values(L)
        m = grid.basis_values(M)
        u = grid.basis_values(U)
        assert np.allclose(grid.position_values(), ALPHA * ell + 2 * ALPHA * m + u)

    def test_invalid_n(self):
        with pytest.raises(DomainError):
            GridSpec(n=0, alpha=1.0)


class TestPreparation:
    def test_smallest_momentum_state(self):
        state = prepare_momentum_state(GridSpec(n=1, alpha=1.0))
        assert np.allclose(state.amplitudes, [1 / math.sqrt(2)] * 2)

    def test_momentum_state_n2(self):
        state = prepare_momentum_state(GridSpec(n=2, alpha=1.0))
        assert np.allclose(state.amplitudes, np.full(8, 1 / math.sqrt(8)))
        assert state.norm() == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_momentum_reduced_logical_is_plus(self, n):
        state = prepare_momentum_state(GridSpec(n=n, alpha=ALPHA))
        rho = reduced_density(state, [(0, L)])
        assert np.allclose(rho, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_gkp_zero_is_uniform_comb(self):
        grid = GridSpec(n=3, alpha=ALPHA)
        state = prepare_gkp_state(grid, 1.0, 0.0)
        amps = state.amplitudes.reshape(2, 3, 3)
        assert np.allclose(amps[0, :, grid.zero_u_index], 1 / math.sqrt(3))
        assert np.count_nonzero(amps) == 3

    def test_gkp_plus_reduced_modular_is_pinned(self):
        grid = GridSpec(n=3, alpha=ALPHA)
        inv = 1 / math.sqrt(2)
        state = prepare_gkp_state(grid, inv, inv)
        rho = reduced_density(state, [(0, U)])
        expected = np.zeros((3, 3))
        expected[grid.zero_u_index, grid.zero_u_index] = 1.0
        assert np.allclose(rho, expected, atol=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            prepare_gkp_state(GridSpec(n=2, alpha=1.0), 1.0, 1.0)


class TestApplyCz:
    def test_zero_weight_is_identity(self):
        grid = GridSpec(n=2, alpha=ALPHA)
        state = tensor_product([prepare_momentum_state(grid)] * 2)
        out = apply_cz(state, 0, 1, 0.0)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_norm_preserved(self):
        grid = GridSpec(n=3, alpha=ALPHA)
        state = random_state(grid, 2, seed=1)
        out = apply_cz(state, 0, 1, 0.83)
        assert abs(out.norm() - 1.0) < 1e-14

    def test_tuned_gate_equals_factor_product(self):
        grid = GridSpec(n=3, alpha=ALPHA)
        state = random_state(grid, 2, seed=2)
        g = math.pi / ALPHA**2
        direct = apply_cz(state, 0, 1, g)
        factored = apply_terms(state, decompose_cz_two_mode(g, ALPHA))
        assert np.max(np.abs(direct.amplitudes - factored.amplitudes)) < 1e-12

    def test_factor_order_is_irrelevant(self):
        grid = GridSpec(n=2, alpha=ALPHA)
        state = random_state(grid, 2, seed=3)
        terms = decompose_cz_two_mode(math.pi / ALPHA**2, ALPHA)
        forward = apply_terms(state, terms)
        backward = apply_terms(state, list(reversed(terms)))
        assert np.max(np.abs(forward.amplitudes - backward.amplitudes)) < 1e-13

    def test_rejects_same_mode(self):
        grid = GridSpec(n=2, alpha=1.0)
        state = random_state(grid, 2, seed=4)
        with pytest.raises(DomainError):
            apply_cz(state, 1, 1, 1.0)
        with pytest.raises(DomainError):
            apply_subsystem_coupling(state, (0, L), (0, U), 1.0)


class TestSubsystemCoupling:
    def test_oracle_equality_of_both_orderings(self):
        # apply exp(i c u_0 (x) ell_1) directly, then as shift * controlled Rz
        c = math.pi / ALPHA
        grid = GridSpec(n=3, alpha=ALPHA)
        state = random_state(grid, 2, seed=3)

        direct = apply_subsystem_coupling(state, (0, U), (1, L), c)

        shifted = apply_subsystem_phase(state, U, 0, c / 2.0)
        u_vals = grid.basis_values(U).reshape(grid.dim, 1)
        z_vals = (1.0 - 2.0 * grid.basis_values(L)).reshape(1, grid.dim)
        rotation = np.exp(-1j * (c * u_vals) * z_vals / 2.0)
        rotated = shifted.amplitudes.reshape(grid.dim, grid.dim) * rotation
        assert np.allclose(direct.amplitudes, rotated.reshape(-1), atol=1e-14)


KERNEL_GRID = GridSpec(n=2, alpha=ALPHA)
KERNEL_MODES = 3
_KERNEL_VALUES = {
    "logical": KERNEL_GRID.basis_values(L),
    "gauge_m": KERNEL_GRID.basis_values(M),
    "gauge_u": KERNEL_GRID.basis_values(U),
    "position": KERNEL_GRID.position_values(),
}
_NAMED_COUPLING = st.tuples(
    st.integers(0, KERNEL_MODES - 1),
    st.sampled_from(sorted(_KERNEL_VALUES)),
    st.integers(0, KERNEL_MODES - 1),
    st.sampled_from(sorted(_KERNEL_VALUES)),
    st.floats(-3.0, 3.0),
).filter(lambda c: c[0] != c[2])


def kernel_couplings(named):
    return [(a, _KERNEL_VALUES[va], b, _KERNEL_VALUES[vb], c) for a, va, b, vb, c in named]


def sequential_reference(state, couplings):
    """One full-tensor factor exp(i c a (x) b) per coupling, in the order given."""
    dim, n_modes = state.grid.dim, state.n_modes
    tensor = state.amplitudes.reshape((dim,) * n_modes)
    for mode_a, values_a, mode_b, values_b, coefficient in couplings:
        shape_a, shape_b = [1] * n_modes, [1] * n_modes
        shape_a[mode_a] = shape_b[mode_b] = dim
        va, vb = values_a.reshape(shape_a), values_b.reshape(shape_b)
        tensor = tensor * np.exp(1j * coefficient * va * vb)
    return tensor.reshape(-1)


class TestApplyCouplings:
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(named=st.lists(_NAMED_COUPLING, max_size=8), seed=st.integers(0, 2**32 - 1))
    @example(  # one pair three times, in both mode orders, position and subsystem values
        named=[
            (0, "position", 2, "position", 0.9),
            (2, "gauge_u", 0, "logical", -1.3),
            (0, "gauge_m", 2, "gauge_u", 2.5),
        ],
        seed=0,
    )
    def test_matches_sequential_reference(self, named, seed):
        state = random_state(KERNEL_GRID, KERNEL_MODES, seed)
        before = state.amplitudes.copy()
        couplings = kernel_couplings(named)
        fused = apply_couplings(state, couplings)
        assert np.array_equal(state.amplitudes, before)
        assert fused.amplitudes is not state.amplitudes
        expected = sequential_reference(state, couplings)
        assert np.max(np.abs(fused.amplitudes - expected)) < 1e-13

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(
        named=st.lists(_NAMED_COUPLING, max_size=4),
        bad_modes=st.one_of(
            st.integers(0, KERNEL_MODES - 1).map(lambda m: (m, m)),
            st.tuples(st.sampled_from([-1, KERNEL_MODES]), st.integers(0, KERNEL_MODES - 1)),
        ),
        swap=st.booleans(),
        position=st.integers(0, 4),
    )
    def test_rejects_same_mode_or_out_of_range(self, named, bad_modes, swap, position):
        mode_a, mode_b = reversed(bad_modes) if swap else bad_modes
        named = list(named)
        named.insert(position, (mode_a, "position", mode_b, "gauge_u", 1.0))
        state = random_state(KERNEL_GRID, KERNEL_MODES, 0)
        before = state.amplitudes.copy()
        with pytest.raises(DomainError):
            apply_couplings(state, kernel_couplings(named))
        assert np.array_equal(state.amplitudes, before)

    def test_no_couplings_returns_a_copy(self):
        state = random_state(KERNEL_GRID, KERNEL_MODES, 1)
        out = apply_couplings(state, [])
        assert np.array_equal(out.amplitudes, state.amplitudes)
        assert not np.shares_memory(out.amplitudes, state.amplitudes)

    def test_rejects_values_of_the_wrong_length(self):
        state = random_state(KERNEL_GRID, 2, 2)
        values = KERNEL_GRID.position_values()
        with pytest.raises(DomainError):
            apply_couplings(state, [(0, values[:-1], 1, values, 1.0)])


def grid_values(grid, name):
    if name == "position":
        return grid.position_values()
    return grid.basis_values({"logical": L, "gauge_m": M, "gauge_u": U}[name])


def random_vectors(grid, n_modes, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n_modes, grid.dim)) + 1j * rng.normal(size=(n_modes, grid.dim))
    return list(raw / np.linalg.norm(raw, axis=1, keepdims=True))


@st.composite
def product_cases(draw):
    """(grid n, mode count, vector seed, couplings named as in _NAMED_COUPLING)."""
    n = draw(st.sampled_from([1, 2]))
    n_modes = draw(st.integers(1, 4))
    mode, kind = st.integers(0, n_modes - 1), st.sampled_from(sorted(_KERNEL_VALUES))
    coupling = st.tuples(mode, kind, mode, kind, st.floats(-3.0, 3.0))
    coupling = coupling.filter(lambda c: c[0] != c[2])
    named = draw(st.lists(coupling, max_size=8)) if n_modes > 1 else []
    return n, n_modes, draw(st.integers(0, 2**32 - 1)), named


class TestCoupledProduct:
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(case=product_cases())
    @example(  # one pair three times in both mode orders; modes 1 and 3 uncoupled
        case=(
            2,
            4,
            0,
            [
                (0, "position", 2, "position", 0.9),
                (2, "gauge_u", 0, "logical", -1.3),
                (0, "gauge_m", 2, "gauge_u", 2.5),
            ],
        )
    )
    @example(case=(2, 3, 1, []))
    def test_matches_tensor_product_then_sequential_reference(self, case):
        n, n_modes, seed, named = case
        grid = GridSpec(n=n, alpha=ALPHA)
        vectors = random_vectors(grid, n_modes, seed)
        before = [v.copy() for v in vectors]
        couplings = [
            (a, grid_values(grid, va), b, grid_values(grid, vb), c) for a, va, b, vb, c in named
        ]
        out = coupled_product(grid, vectors, couplings)
        assert all(np.array_equal(v, w) for v, w in zip(vectors, before))
        product = tensor_product([DiscretizedState(grid, 1, v) for v in vectors])
        expected = sequential_reference(product, couplings)
        assert (out.n_modes, out.amplitudes.shape) == (n_modes, expected.shape)
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-13

    @pytest.mark.parametrize(
        "bad",
        [
            (1, "position", 1, "gauge_u", 1.0),
            (-1, "position", 1, "gauge_u", 1.0),
            (0, "position", 3, "gauge_u", 1.0),
            (0, "short", 1, "gauge_u", 1.0),
            (0, "position", 1, "gauge_u", math.inf),
            (2, "position", 0, "gauge_u", math.nan),
        ],
        ids=["same-mode", "negative-mode", "mode-past-end", "wrong-length", "inf", "nan"],
    )
    def test_rejects_bad_couplings(self, bad):
        vectors = random_vectors(KERNEL_GRID, 3, 4)
        before = [v.copy() for v in vectors]
        values = dict(_KERNEL_VALUES, short=_KERNEL_VALUES["position"][:-1])
        named = [(0, "logical", 2, "gauge_m", 0.5), bad]
        couplings = [(a, values[va], b, values[vb], c) for a, va, b, vb, c in named]
        with pytest.raises(DomainError):
            coupled_product(KERNEL_GRID, vectors, couplings)
        assert all(np.array_equal(v, w) for v, w in zip(vectors, before))

    def test_rejects_wrong_length_or_missing_vectors(self):
        vectors = random_vectors(KERNEL_GRID, 2, 5)
        with pytest.raises(DomainError):
            coupled_product(KERNEL_GRID, [vectors[0], vectors[1][:-1]], [])
        with pytest.raises(DomainError):
            coupled_product(KERNEL_GRID, [], [])


class TestProjection:
    def test_single_mode_momentum_projects_to_unit_scalar(self):
        grid = GridSpec(n=3, alpha=ALPHA)
        projected, weight = project_p0(prepare_momentum_state(grid), 0)
        assert projected.n_modes == 0
        assert projected.amplitudes.shape == (1,)
        assert abs(abs(projected.amplitudes[0]) - 1.0) < 1e-14
        assert weight == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_hybrid_teleportation(self, n):
        grid = GridSpec(n=n, alpha=ALPHA)
        label = (0.6, 0.8j)
        state = direct_cluster_state(
            grid,
            chain_adjacency(2),
            [momentum(), gkp_labeled(*label)],
        )
        projected, weight = project_p0(state, 1)
        assert weight > 0.0
        out = projected.normalized()
        expected = prepare_gkp_state(grid, *((0.6 + 0.8j) / math.sqrt(2), (0.6 - 0.8j) / math.sqrt(2)))
        assert fidelity(out, expected) >= 1 - 1e-12

    def test_unzip_annihilates_off_zero_modular_mass(self):
        grid = GridSpec(n=4, alpha=ALPHA)
        label = (0.6, 0.8)
        state = direct_cluster_state(
            grid,
            chain_adjacency(2),
            [momentum(), gkp_labeled(*label)],
        )
        projected, _ = project_p0(state, 1)
        rho = reduced_density(projected.normalized(), [(0, U)])
        off = sum(rho[j, j].real for j in range(grid.n) if j != grid.zero_u_index)
        assert off < 1e-20


class TestReducedDensity:
    def test_full_trace_is_one(self):
        grid = GridSpec(n=2, alpha=ALPHA)
        state = random_state(grid, 2, seed=5)
        rho = reduced_density(state, [(0, L)])
        assert np.trace(rho).real == pytest.approx(1.0)
        assert np.all(np.linalg.eigvalsh(rho) > -1e-12)

    def test_gkp_cluster_logical_pair_is_pure(self):
        grid = GridSpec(n=2, alpha=ALPHA)
        adjacency = chain_adjacency(2)
        state = direct_cluster_state(grid, adjacency, [gkp_plus(), gkp_plus()])
        rho = reduced_density(state, [(0, L), (1, L)])
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(qubit_cluster_state(adjacency), rho) == pytest.approx(1.0, abs=1e-12)

    def test_cvcs_logical_pair_is_mixed(self):
        grid = GridSpec(n=2, alpha=ALPHA)
        state = direct_cluster_state(grid, chain_adjacency(2), [momentum(), momentum()])
        rho = reduced_density(state, [(0, L), (1, L)])
        assert purity(rho) < 1.0 - 1e-3

    def test_selection_order_matters(self):
        grid = GridSpec(n=2, alpha=ALPHA)
        state = random_state(grid, 2, seed=6)
        ab = reduced_density(state, [(0, L), (1, L)])
        ba = reduced_density(state, [(1, L), (0, L)])
        swap = ab.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        assert np.allclose(ba, swap, atol=1e-14)

    def test_bad_selection_rejected(self):
        grid = GridSpec(n=2, alpha=ALPHA)
        state = random_state(grid, 1, seed=7)
        with pytest.raises(DomainError):
            reduced_density(state, [])
        with pytest.raises(DomainError):
            reduced_density(state, [(0, L), (0, L)])


class TestFidelity:
    def test_self_fidelity(self):
        state = random_state(GridSpec(n=2, alpha=1.0), 1, seed=8)
        assert fidelity(state, state) == pytest.approx(1.0)

    def test_orthogonal_states(self):
        zero = np.array([1.0, 0.0])
        one = np.array([0.0, 1.0])
        assert fidelity(zero, one) == 0.0

    def test_global_phase_invariance(self):
        state = random_state(GridSpec(n=2, alpha=1.0), 1, seed=9)
        rotated = DiscretizedState(state.grid, 1, state.amplitudes * np.exp(0.7j))
        assert fidelity(state, rotated) == pytest.approx(1.0)

    def test_symmetric_mixed_case(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        sigma = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        f_ab = fidelity(rho, sigma)
        f_ba = fidelity(sigma, rho)
        assert f_ab == pytest.approx(f_ba)
        assert f_ab == pytest.approx(0.5)

    def test_vector_against_density(self):
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        rho = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
        assert fidelity(plus, rho) == pytest.approx(0.5)
        assert fidelity(rho, plus) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            fidelity(np.ones(2), np.ones(3))


class TestCorrelators:
    def test_diagonal_correlators_vanish_on_cluster_states(self):
        # diagonal phases leave the product probability distribution intact
        grid = GridSpec(n=3, alpha=ALPHA)
        state = direct_cluster_state(grid, chain_adjacency(2), [momentum(), momentum()])
        for kind_a in (L, M, U):
            for kind_b in (L, M, U):
                assert abs(connected_correlator(state, (0, kind_a), (1, kind_b))) < 1e-12

    def test_coupling_strength_reads_edges(self):
        grid = GridSpec(n=4, alpha=ALPHA)
        state = tensor_product([prepare_momentum_state(grid)] * 2)
        coupled = apply_subsystem_coupling(state, (0, M), (1, U), 2 * math.pi / ALPHA)
        assert coupling_strength(coupled, (0, M), (1, U)) == pytest.approx(
            2 * math.pi / grid.n
        )
        assert coupling_strength(coupled, (0, L), (1, U)) < 1e-12

    def test_two_pi_integer_coupling_reads_as_absent(self):
        grid = GridSpec(n=3, alpha=ALPHA)
        state = tensor_product([prepare_momentum_state(grid)] * 2)
        coupled = apply_subsystem_coupling(state, (0, M), (1, M), 4 * math.pi)
        assert coupling_strength(coupled, (0, M), (1, M)) < 1e-12

    def test_coupling_strength_rejects_identical_subsystem(self):
        state = prepare_momentum_state(GridSpec(n=2, alpha=1.0))
        with pytest.raises(DomainError):
            coupling_strength(tensor_product([state, state]), (0, L), (0, L))


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        grid = GridSpec(n=3, alpha=ALPHA)
        state = random_state(grid, 2, seed=10)
        path = tmp_path / "state.bin"
        save_state(state, path)
        loaded = load_state(path, alpha=ALPHA)
        assert loaded.grid == grid
        assert loaded.n_modes == 2
        assert np.array_equal(loaded.amplitudes, state.amplitudes)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        save_state(random_state(GridSpec(n=2, alpha=1.0), 1, seed=11), path)
        valid = path.read_bytes()
        for junk in (
            b"NOTASTATE" + b"\x00" * 16,
            valid[:10],  # magic plus a partial header
            valid[:-24],  # payload cut mid-amplitude
            valid[:8] + (2).to_bytes(4, "little") + (2**31).to_bytes(4, "little"),
        ):
            path.write_bytes(junk)
            with pytest.raises(DomainError):
                load_state(path, alpha=1.0)


class TestTensorProduct:
    def test_mode_major_ordering(self):
        grid = GridSpec(n=1, alpha=1.0)
        zero = prepare_gkp_state(grid, 1.0, 0.0)
        one = prepare_gkp_state(grid, 0.0, 1.0)
        state = tensor_product([zero, one])
        amps = state.amplitudes.reshape(2, 2)
        assert amps[0, 1] == pytest.approx(1.0)

    def test_mismatched_grids_rejected(self):
        a = prepare_momentum_state(GridSpec(n=1, alpha=1.0))
        b = prepare_momentum_state(GridSpec(n=2, alpha=1.0))
        with pytest.raises(DomainError):
            tensor_product([a, b])
