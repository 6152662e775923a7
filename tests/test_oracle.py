import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grid_reference import (
    apply_phase,
    apply_terms,
    chain_adjacency,
    dense_qubit_cluster_state,
    mixed_fidelity,
    sequential_reference,
    tensor_product,
    term_couplings,
    topology_matrix,
)
import layout_reference
from hiddencluster.certify import direct_cluster_state
from hiddencluster.errors import DomainError
from hiddencluster.gates import CouplingTerm, Topology, chain_topology, decompose_cz_two_mode
from hiddencluster.graphs import gkp_labeled, gkp_plus, momentum
from hiddencluster.modular import DEFAULT_ALPHA, SubsystemKind
from hiddencluster import oracle
from hiddencluster.oracle import (
    DiscretizedState,
    _merge_small_factors,
    _require_finite,
    _require_mode,
    _support,
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

ALPHA = DEFAULT_ALPHA
L, M, U = SubsystemKind.LOGICAL, SubsystemKind.GAUGE_BIN, SubsystemKind.GAUGE_MODULAR


def random_state(grid, n_modes, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=grid.dim**n_modes) + 1j * rng.normal(size=grid.dim**n_modes)
    return DiscretizedState(grid, n_modes, raw / np.linalg.norm(raw))


def sum_norm(vector):
    """The 2-norm as numpy's pairwise sum of the squared parts, which no BLAS
    thread count changes."""
    return math.sqrt(np.sum(np.square(vector.real) + np.square(vector.imag)))


_SRC = Path(__file__).resolve().parents[1] / "src"

# one line per (n, mode count, mode after the first): the sha256 of the
# projected amplitudes and the hex of the weight.  The states are left
# unnormalized, since a BLAS norm of a large vector would itself round by
# thread count.
_PROJECTION_PROBE = """
import hashlib, sys
import numpy as np
from hiddencluster.oracle import DiscretizedState, GridSpec, project_p0
for n in (3, 4):
    grid = GridSpec(n=n, alpha=float(sys.argv[1]))
    for n_modes in (3, 4):
        rng = np.random.default_rng(10 * n_modes + n)
        size = grid.dim**n_modes
        amplitudes = rng.normal(size=size) + 1j * rng.normal(size=size)
        state = DiscretizedState(grid, n_modes, amplitudes)
        for mode in range(1, n_modes):
            projected, weight = project_p0(state, mode)
            digest = hashlib.sha256(projected.amplitudes.tobytes()).hexdigest()
            print(n, n_modes, mode, digest, weight.hex())
"""


def random_vectors(grid, n_modes, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n_modes, grid.dim)) + 1j * rng.normal(size=(n_modes, grid.dim))
    return list(raw / np.linalg.norm(raw, axis=1, keepdims=True))


class TestGridSpec:
    def test_dimensions_and_ranges(self):
        grid = GridSpec(n=4, alpha=2.0)
        assert grid.dim == 32
        assert list(grid.axis_values(M)) == [-2, -1, 0, 1]
        assert np.allclose(grid.axis_values(U), [-1.0, -0.5, 0.0, 0.5])
        assert grid.axis_values(U)[grid.zero_u_index] == 0.0

    def test_odd_grid_contains_zero(self):
        grid = GridSpec(n=3, alpha=1.0)
        assert list(grid.axis_values(M)) == [-1, 0, 1]
        assert grid.axis_values(U)[grid.zero_u_index] == 0.0
        assert np.all(np.abs(grid.axis_values(U)) <= 0.5)

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

    @pytest.mark.parametrize("c0, c1", [(1e200, 0), (1e155, 1e155)])
    def test_rejects_amplitudes_whose_square_overflows(self, c0, c1):
        with pytest.raises(DomainError, match=r"must be normalized, got \|c\|\^2 = inf"):
            prepare_gkp_state(GridSpec(n=2, alpha=1.0), c0, c1)


def cz(grid, mode_i, mode_j, g):
    """The position-position gate exp(i g q_i q_j) as one oracle coupling."""
    pos = grid.position_values()
    return (mode_i, pos, mode_j, pos, g)


class TestApplyCz:
    """The position-position gate on the grid, as ``coupled_product`` applies it."""

    def test_zero_weight_is_identity(self):
        grid = GridSpec(n=2, alpha=ALPHA)
        vectors = random_vectors(grid, 2, seed=0)
        out = coupled_product(grid, vectors, [cz(grid, 0, 1, 0.0)])
        assert np.array_equal(out.amplitudes, np.kron(*vectors))

    def test_norm_preserved(self):
        grid = GridSpec(n=3, alpha=ALPHA)
        out = coupled_product(grid, random_vectors(grid, 2, seed=1), [cz(grid, 0, 1, 0.83)])
        assert abs(out.norm() - 1.0) < 1e-14

    def test_tuned_gate_equals_factor_product(self):
        grid = GridSpec(n=3, alpha=ALPHA)
        state = random_state(grid, 2, seed=2)
        g = math.pi / ALPHA**2
        direct = sequential_reference(state, [cz(grid, 0, 1, g)])
        factored = apply_terms(state, decompose_cz_two_mode(g, ALPHA))
        assert np.max(np.abs(direct - factored.amplitudes)) < 1e-12

    def test_factor_order_is_irrelevant(self):
        grid = GridSpec(n=2, alpha=ALPHA)
        vectors = random_vectors(grid, 2, seed=3)
        terms = decompose_cz_two_mode(math.pi / ALPHA**2, ALPHA)
        forward = coupled_product(grid, vectors, term_couplings(grid, terms))
        backward = coupled_product(grid, vectors, term_couplings(grid, reversed(terms)))
        assert np.max(np.abs(forward.amplitudes - backward.amplitudes)) < 1e-13

    def test_rejects_same_mode(self):
        grid = GridSpec(n=2, alpha=1.0)
        vectors = random_vectors(grid, 2, seed=4)
        with pytest.raises(DomainError):
            coupled_product(grid, vectors, [cz(grid, 1, 1, 1.0)])
        with pytest.raises(DomainError):
            same_mode = CouplingTerm((0, L), (0, U), 1.0)
            coupled_product(grid, vectors, term_couplings(grid, [same_mode]))


class TestSubsystemCoupling:
    def test_oracle_equality_of_both_orderings(self):
        # apply exp(i c u_0 (x) ell_1) directly, then as shift * controlled Rz
        c = math.pi / ALPHA
        grid = GridSpec(n=3, alpha=ALPHA)
        state = random_state(grid, 2, seed=3)

        direct = apply_terms(state, [CouplingTerm((0, U), (1, L), c)])

        shifted = apply_phase(state, U, 0, c / 2.0)
        u_vals = grid.basis_values(U).reshape(grid.dim, 1)
        z_vals = (1.0 - 2.0 * grid.basis_values(L)).reshape(1, grid.dim)
        rotation = np.exp(-1j * (c * u_vals) * z_vals / 2.0)
        rotated = shifted.amplitudes.reshape(grid.dim, grid.dim) * rotation
        assert np.allclose(direct.amplitudes, rotated.reshape(-1), atol=1e-14)


KERNEL_GRID = GridSpec(n=2, alpha=ALPHA)
_KERNEL_VALUES = {
    "logical": KERNEL_GRID.basis_values(L),
    "gauge_m": KERNEL_GRID.basis_values(M),
    "gauge_u": KERNEL_GRID.basis_values(U),
    "position": KERNEL_GRID.position_values(),
}


def grid_values(grid, name):
    if name == "position":
        return grid.position_values()
    return grid.basis_values({"logical": L, "gauge_m": M, "gauge_u": U}[name])


@st.composite
def product_cases(draw):
    """(grid n, mode count, vector seed, couplings (mode, values name, mode, values name, c)).

    Up to 6 modes at n=1 and 5 at n=2, so that chains of pair tables merge
    below full size before the dense write.
    """
    n = draw(st.sampled_from([1, 2]))
    n_modes = draw(st.integers(1, 6 if n == 1 else 5))
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
    @example(  # 4-mode ring: the pair tables merge into two 3-mode tables
        case=(
            2,
            4,
            2,
            [
                (0, "position", 1, "position", 0.7),
                (2, "gauge_u", 1, "logical", -1.1),
                (3, "position", 2, "gauge_m", 2.3),
                (0, "gauge_u", 3, "position", -0.4),
            ],
        )
    )
    @example(  # 5-mode star around mode 2, mode 5 uncoupled
        case=(
            1,
            6,
            3,
            [
                (2, "position", 0, "position", 1.3),
                (1, "gauge_m", 2, "logical", 0.6),
                (2, "gauge_u", 3, "position", -2.2),
                (4, "logical", 2, "gauge_u", 2.9),
            ],
        )
    )
    @example(  # 3-mode ring: every merge would reach full size, so none happens
        case=(
            2,
            3,
            4,
            [
                (0, "position", 1, "gauge_u", 0.8),
                (1, "logical", 2, "position", -1.7),
                (2, "gauge_m", 0, "position", 1.9),
            ],
        )
    )
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
            (1.0, "position", 2, "gauge_u", 1.0),
            (0, "position", True, "gauge_u", 1.0),
        ],
        ids=["same-mode", "negative-mode", "mode-past-end", "wrong-length", "inf", "nan",
             "float-mode", "bool-mode"],
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


class TestFiniteProof:
    """``coupled_product`` proves its result finite from the factor tables and
    scans the tensor only when that bound fails."""

    # the pair tables (3, 4), (0, 1) and (1, 2), then the five mode vectors;
    # each vector merges into the first table on its mode (3 and 4 into
    # (3, 4), 0 and 1 into (0, 1), 2 into (1, 2)), then the (0, 1) and
    # (1, 2) tables merge, before the (3, 4) table is multiplied in
    POSITIONS = KERNEL_GRID.position_values()
    COUPLINGS = [
        (3, POSITIONS, 4, POSITIONS, 0.6),
        (0, POSITIONS, 1, POSITIONS, 0.9),
        (1, POSITIONS, 2, POSITIONS, -1.4),
    ]

    @pytest.mark.parametrize(
        "scales",
        [
            {0: "nan"},
            {4: "inf"},
            {0: 1e200, 1: 1e200},  # merged into one pair table, which overflows
            # every table is finite, but the merged (0, 1, 2) table overflows
            # although the tiny (3, 4) table would scale it back into range
            {0: 1e200, 2: 1e200, 3: 1e-300},
        ],
        ids=["nan-entry", "inf-entry", "overflowing-pair", "overflowing-merge"],
    )
    def test_non_finite_product_is_rejected(self, scales):
        vectors = random_vectors(KERNEL_GRID, 5, 6)
        for mode, scale in scales.items():
            if isinstance(scale, str):
                vectors[mode][1] = float(scale)
            else:
                vectors[mode] = vectors[mode] * scale
        with pytest.raises(DomainError, match="^amplitudes must be finite$"):
            coupled_product(KERNEL_GRID, vectors, self.COUPLINGS)

    def finite_bound(self, vectors):
        """The bound the rule forms over the factor list: scale 2 for each of
        the three unimodular pair tables, max(1, 2*max|v|) for each vector."""
        return 2.0**3 * math.prod(max(2.0 * float(np.abs(v).max()), 1.0) for v in vectors)

    @pytest.mark.parametrize(
        "log2_bound, scans", [(999.5, 0), (1000.5, 1)], ids=["proven", "scanned"]
    )
    def test_large_finite_product_matches_reference(self, log2_bound, scans, monkeypatch):
        vectors = random_vectors(KERNEL_GRID, 5, 7)
        vectors[0], vectors[2] = vectors[0] * 1e100, vectors[2] * 1e100
        # the scales of vectors 0 and 2 now exceed 1, so scaling them by f
        # scales the bound by f**2
        f = math.sqrt(2.0**log2_bound / self.finite_bound(vectors))
        vectors[0], vectors[2] = vectors[0] * f, vectors[2] * f
        assert math.isclose(math.log2(self.finite_bound(vectors)), log2_bound)
        checked = []
        monkeypatch.setattr(
            oracle, "_require_finite", lambda a: checked.append(a.size) or _require_finite(a)
        )
        out = coupled_product(KERNEL_GRID, vectors, self.COUPLINGS)
        # the five vectors are checked up front; the tensor only when unproven
        assert checked.count(KERNEL_GRID.dim**5) == scans
        product = tensor_product([DiscretizedState(KERNEL_GRID, 1, v) for v in vectors])
        expected = sequential_reference(product, self.COUPLINGS)
        assert np.all(np.isfinite(out.amplitudes))
        peak = np.max(np.abs(expected))
        assert peak > 2.0**900
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-13 * peak


SUPPORT_GRID = GridSpec(n=3, alpha=ALPHA)  # dim 18; a GKP comb sits on indices 1 + 3k


def only(vector, indices):
    """``vector`` with every entry outside ``indices`` set to zero."""
    kept = np.zeros_like(vector)
    kept[indices] = vector[indices]
    return kept


def gkp_vector(c0, c1):
    return prepare_gkp_state(SUPPORT_GRID, c0, c1).amplitudes


#: name -> (vectors from four random unit vectors, whether every zero amplitude
#: lies outside the support and so is +0.0)
SUPPORT_CASES = {
    "gkp-combs": (
        lambda r: [gkp_vector(0.6, 0.8), r[1], gkp_vector(1, 0), gkp_vector(0, 1)],
        True,
    ),
    # modes 2 and 3 each hold one entry; each support takes one zero beside it
    "single-entries": (
        lambda r: [only(r[0], [0]), r[1], only(r[2], [17]), only(r[3], [5])],
        False,
    ),
    "irregular-gaps": (
        lambda r: [only(r[0], [1, 2, 7]), only(r[1], [0, 4, 16]), r[2], only(r[3], [3, 9, 11])],
        False,
    ),
    "all-zero": (lambda r: [r[0], np.zeros_like(r[1]), r[2], r[3]], True),
    "signed-zeros": (lambda r: [r[0], only(r[1], [2, 3, 8]) * -1.0, r[2], -only(r[3], [6])], False),
}


class TestSupport:
    """``coupled_product`` computes only the slice where every mode vector is nonzero."""

    POSITIONS = SUPPORT_GRID.position_values()
    COUPLINGS = [
        (0, POSITIONS, 1, POSITIONS, 0.9),
        (1, POSITIONS, 2, POSITIONS, -1.4),
        (2, POSITIONS, 3, POSITIONS, 0.6),
        (3, POSITIONS, 0, POSITIONS, 2.1),
        (2, SUPPORT_GRID.basis_values(L), 0, SUPPORT_GRID.basis_values(U), 0.7),
    ]

    @pytest.mark.parametrize(
        "nonzero, expected",
        [
            (list(range(18)), slice(None)),
            (list(range(1, 18, 3)), slice(1, 17, 3)),
            (list(range(10, 18, 3)), slice(10, 17, 3)),
            ([], slice(0, 0)),
            ([5], slice(5, 7)),
            ([17], slice(16, 18)),
            ([1, 2, 7], slice(1, 8, 1)),
            ([0, 4, 16], slice(0, 17, 4)),
        ],
        ids=["full", "gkp-comb", "gkp-one", "zero", "single", "single-last", "gaps", "gcd-4"],
    )
    def test_support_slice(self, nonzero, expected):
        vector = np.zeros(SUPPORT_GRID.dim, dtype=complex)
        vector[nonzero] = 1.0 + 0.5j
        assert _support(vector) == expected

    @pytest.mark.parametrize("case", sorted(SUPPORT_CASES))
    def test_partial_supports_match_references(self, case, monkeypatch):
        build, zeros_off_support = SUPPORT_CASES[case]
        vectors = build(random_vectors(SUPPORT_GRID, 4, seed=8))
        before = [v.copy() for v in vectors]
        out = coupled_product(SUPPORT_GRID, vectors, self.COUPLINGS).amplitudes
        assert all(np.array_equal(v, w) for v, w in zip(vectors, before))
        product = tensor_product([DiscretizedState(SUPPORT_GRID, 1, v) for v in vectors])
        expected = sequential_reference(product, self.COUPLINGS)
        assert np.array_equal(out == 0, expected == 0)
        assert np.max(np.abs(out - expected)) < 1e-13
        if zeros_off_support:
            assert not np.any(np.signbit(out[out == 0].view(float)))
        # the same multiplies on full-size tables give the same amplitudes
        monkeypatch.setattr(oracle, "_support", lambda vector: slice(None))
        full = coupled_product(SUPPORT_GRID, vectors, self.COUPLINGS).amplitudes
        assert np.array_equal(out, full)

    @pytest.mark.parametrize(
        "bad", [complex(math.inf, 0), complex(0, -math.inf), complex(math.nan, 0)],
        ids=["inf", "imaginary-inf", "nan"],
    )
    def test_non_finite_entry_beside_a_zero_vector_is_refused(self, bad):
        vectors = random_vectors(SUPPORT_GRID, 4, seed=9)
        vectors[1] = np.zeros_like(vectors[1])
        vectors[2][4] = bad
        before = [v.copy() for v in vectors]
        with pytest.raises(DomainError, match="^amplitudes must be finite$"):
            coupled_product(SUPPORT_GRID, vectors, self.COUPLINGS)
        assert all(np.array_equal(v, w, equal_nan=True) for v, w in zip(vectors, before))

    def test_non_finite_phase_off_every_support_is_refused(self):
        comb = gkp_vector(1, 0)
        values = SUPPORT_GRID.position_values()
        values[0] = math.inf  # index 0 is off the comb
        with pytest.raises(DomainError, match="^coupling phase on modes 0 and 1 is not finite$"):
            coupled_product(SUPPORT_GRID, [comb, comb], [(0, values, 1, values, 0.5)])

    def test_overflow_is_refused_only_on_the_support(self):
        """A pair table that overflows is refused only when a zero vector
        does not leave it out of every amplitude."""
        vectors = random_vectors(SUPPORT_GRID, 4, seed=10)
        vectors[0], vectors[1] = vectors[0] * 1e200, vectors[1] * 1e200
        vectors[3] = gkp_vector(1, 0)
        with pytest.raises(DomainError, match="^amplitudes must be finite$"):
            coupled_product(SUPPORT_GRID, vectors, self.COUPLINGS)
        vectors[3] = np.zeros_like(vectors[3])
        out = coupled_product(SUPPORT_GRID, vectors, self.COUPLINGS).amplitudes
        assert not np.any(out.view(float))


class TestFactorMerge:
    """The merge order of ``_multiply_factors``: smallest union first, below full size."""

    @pytest.mark.parametrize(
        "n_modes, pairs, merged",
        [
            (4, [(0, 1), (1, 2), (2, 3)], [(0, 1, 2), (2, 3)]),
            (4, [(0, 1), (1, 2), (2, 3), (0, 3)], [(0, 1, 2), (0, 2, 3)]),
            (4, [(0, 1), (0, 2), (0, 3)], [(0, 1, 2), (0, 3)]),
            (5, [(0, 1), (1, 2), (2, 3), (3, 4)], [(0, 1, 2), (2, 3, 4)]),
            (3, [(0, 1), (1, 2), (0, 2)], [(0, 1), (1, 2), (0, 2)]),
            (4, [(0, 1, 2, 3), (0, 1), (2, 3)], [(0, 1, 2, 3), (0, 1), (2, 3)]),
            (6, [(0, 1), (2, 3), (4,), (5,)], [(0, 1, 2, 3), (4, 5)]),
            # pair tables, then one vector per mode, as coupled_product lists them
            (4, [(0, 1), (1, 2), (2, 3), (0,), (1,), (2,), (3,)], [(0, 1, 2), (2, 3)]),
            (4, [(0, 1), (1, 2), (2, 3), (0, 3), (0,), (1,), (2,), (3,)],
             [(0, 1, 2), (0, 2, 3)]),
            (2, [(0, 1), (0,), (1,)], [(0, 1), (0,), (1,)]),
        ],
        ids=[
            "chain", "ring", "star", "chain-5", "ring-3", "full-state", "singles",
            "chain-vectors", "ring-vectors", "pair-vectors",
        ],
    )
    def test_merge_order_and_values(self, n_modes, pairs, merged):
        dim = 2
        rng = np.random.default_rng(len(pairs))
        factors = [(modes, rng.normal(size=(dim,) * len(modes))) for modes in pairs]
        out = _merge_small_factors(n_modes, factors)
        assert [modes for modes, _ in out] == merged
        assert [modes for modes, _ in factors] == pairs  # the input list is not changed

        def full(factor_list):
            tensor = np.ones((dim,) * n_modes)
            for modes, table in factor_list:
                tensor = tensor * table.reshape([dim if m in modes else 1 for m in range(n_modes)])
            return tensor

        assert np.allclose(full(out), full(factors), rtol=1e-14, atol=0.0)

    @staticmethod
    def complex_tables(shapes, seed):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=shape) + 1j * rng.normal(size=shape) for shape in shapes]

    def test_each_vector_lands_in_the_first_table_on_its_mode(self):
        """On a 4-mode ring each vector is multiplied into the first pair
        table on its mode, lower mode first, before any two tables merge."""
        d = 3
        t01, t12, t23, t03, v0, v1, v2, v3 = self.complex_tables([(d, d)] * 4 + [(d,)] * 4, 1)
        factors = [((0, 1), t01), ((1, 2), t12), ((2, 3), t23), ((0, 3), t03)]
        factors += [((mode,), v) for mode, v in enumerate([v0, v1, v2, v3])]
        out = _merge_small_factors(4, factors)
        assert [modes for modes, _ in out] == [(0, 1, 2), (0, 2, 3)]
        expected = [
            (t01 * v0[:, None] * v1)[:, :, None] * (t12 * v2)[None, :, :],
            (t23 * v3)[None, :, :] * t03[:, None, :],
        ]
        assert all(np.array_equal(table, e) for (_, table), e in zip(out, expected))

    def test_two_modes_merge_nothing(self):
        """At two modes every union is full size, so the pair table and both
        vectors are left for the tensor write."""
        factors = list(zip([(0, 1), (0,), (1,)], self.complex_tables([(3, 3), (3,), (3,)], 2)))
        out = _merge_small_factors(2, factors)
        assert all(a is b for a, b in zip(out, factors)) and len(out) == 3


class TestProjection:
    def test_single_mode_momentum_projects_to_unit_scalar(self):
        grid = GridSpec(n=3, alpha=ALPHA)
        projected, weight = project_p0(prepare_momentum_state(grid), 0)
        assert projected.n_modes == 0
        assert projected.amplitudes.shape == (1,)
        assert abs(abs(projected.amplitudes[0]) - 1.0) < 1e-14
        assert weight == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "n, n_modes", [(1, 1), (1, 6), (2, 1), (2, 4), (3, 2), (3, 4), (4, 1), (4, 3)]
    )
    def test_matches_tensordot(self, n, n_modes):
        # verify, the CLI and the benchmark project only the last mode; the
        # first and last modes stay bit-identical to tensordot
        grid = GridSpec(n=n, alpha=ALPHA)
        state = random_state(grid, n_modes, seed=n_modes)
        bra = np.full(grid.dim, 1.0 / math.sqrt(grid.dim))
        for mode in range(n_modes):
            projected, weight = project_p0(state, mode)
            tensor = state.amplitudes.reshape((grid.dim,) * n_modes)
            expected = np.tensordot(bra, tensor, axes=(0, mode)).reshape(-1)
            if mode in (0, n_modes - 1):
                assert projected.amplitudes.tobytes() == expected.tobytes()
            else:
                assert np.allclose(projected.amplitudes, expected, rtol=0.0, atol=1e-14)
            assert weight == sum_norm(projected.amplitudes)

    def test_thread_count_changes_no_later_projection(self):
        """Every mode's projection but the first has the same bytes on one
        OpenBLAS thread as on four, the middle modes included.  The first
        mode's is tensordot's own column-summed product
        (test_matches_tensordot), which the thread count may round."""
        digests = []
        for threads in ("1", "4"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(_SRC))
            result = subprocess.run(
                [sys.executable, "-c", _PROJECTION_PROBE, str(ALPHA)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            digests.append(result.stdout.splitlines())
        assert len(digests[0]) == 2 * (2 + 3)
        assert digests[0] == digests[1]

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

    @pytest.mark.parametrize("mode", [False, True, 1.0, "0"], ids=repr)
    def test_mode_must_be_an_int(self, mode):
        state = random_state(GridSpec(n=2, alpha=ALPHA), 2, seed=4)
        with pytest.raises(DomainError) as info:
            project_p0(state, mode)
        assert str(info.value) == f"mode must be an int, got {mode!r}"


class TestReducedDensity:
    def test_full_trace_is_one(self):
        grid = GridSpec(n=2, alpha=ALPHA)
        state = random_state(grid, 2, seed=5)
        rho = reduced_density(state, [(0, L)])
        assert np.trace(rho).real == pytest.approx(1.0)
        assert np.all(np.linalg.eigvalsh(rho) > -1e-12)

    def test_gkp_cluster_logical_pair_is_pure(self):
        grid = GridSpec(n=2, alpha=ALPHA)
        chain = chain_topology(2)
        state = direct_cluster_state(grid, chain, [gkp_plus(), gkp_plus()])
        rho = reduced_density(state, [(0, L), (1, L)])
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(qubit_cluster_state(chain), rho) == pytest.approx(1.0, abs=1e-12)

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

    def test_zero_state_has_no_reduced_state(self):
        grid = GridSpec(n=2, alpha=ALPHA)
        zero = DiscretizedState(grid, 1, np.zeros(grid.dim))
        with pytest.raises(DomainError) as info:
            reduced_density(zero, [(0, L)])
        assert str(info.value) == "state has zero norm; no reduced state exists"
        with pytest.raises(DomainError) as info:
            zero.normalized()
        assert str(info.value) == "cannot normalize the zero vector"

    def test_bad_selection_rejected(self):
        grid = GridSpec(n=2, alpha=ALPHA)
        state = random_state(grid, 1, seed=7)
        with pytest.raises(DomainError):
            reduced_density(state, [])
        with pytest.raises(DomainError):
            reduced_density(state, [(0, L), (0, L)])

    @pytest.mark.parametrize("mode", [0.0, True, "0"], ids=repr)
    def test_mode_must_be_an_int(self, mode):
        state = random_state(GridSpec(n=2, alpha=ALPHA), 2, seed=7)
        with pytest.raises(DomainError) as info:
            reduced_density(state, [(1, M), (mode, L)])
        assert str(info.value) == f"mode must be an int, got {mode!r}"


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
        f_ab = mixed_fidelity(rho, sigma)
        f_ba = mixed_fidelity(sigma, rho)
        assert f_ab == pytest.approx(f_ba)
        assert f_ab == pytest.approx(0.5)

    def test_two_density_matrices_rejected(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        sigma = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        with pytest.raises(DomainError, match="two density matrices"):
            fidelity(rho, sigma)
        with pytest.raises(DomainError, match="two density matrices"):
            fidelity(rho, rho)

    def test_vector_against_density(self):
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        rho = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
        assert fidelity(plus, rho) == pytest.approx(0.5)
        assert fidelity(rho, plus) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        # a longer vector, a larger density matrix, a non-square matrix
        for other in (np.ones(3), np.eye(3), np.eye(2)[:, :1]):
            for a, b in ((np.ones(2), other), (other, np.ones(2))):
                with pytest.raises(DomainError) as info:
                    fidelity(a, b)
                assert str(info.value) == "fidelity arguments must have matching dimensions"

    def test_three_index_argument_is_refused(self):
        with pytest.raises(DomainError) as info:
            fidelity(np.ones((2, 2, 2)), np.ones(2))
        assert str(info.value) == "fidelity arguments must be vectors or density matrices"

    @pytest.mark.parametrize(
        "a, b, message",
        [
            (np.zeros(2), np.ones(2), "^cannot normalize a zero vector or a zero-trace"),
            (np.ones(2), np.zeros(2), "^cannot normalize a zero vector or a zero-trace"),
            (np.ones(2), np.diag([1.0, -1.0]), "^cannot normalize a zero vector or a zero-trace"),
            (np.ones(2), np.zeros((2, 2)), "^cannot normalize a zero vector or a zero-trace"),
            (np.array([1.0, np.nan]), np.ones(2), "^fidelity arguments must be finite$"),
            (np.ones(2), np.array([[np.inf, 0.0], [0.0, 1.0]]), "must be finite$"),
        ],
        ids=["zero-vector", "zero-second-vector", "traceless-density", "zero-density",
             "nan-vector", "inf-density"],
    )
    def test_undefined_fidelity_is_refused(self, a, b, message):
        with pytest.raises(DomainError, match=message):
            fidelity(a, b)
        with pytest.raises(DomainError, match=message):
            fidelity(b, a)


class TestScaledStates:
    """A state scaled so far that its squared norm overflows or underflows, or
    comes near the float minimum, gives what the unit state gives.  Before
    these were rescaled, ``[1e200, 1e200]`` read as a fidelity of 0.0 with
    itself, normalized to the zero vector, and gave an all-NaN reduced
    density and NaN correlators, while ``[1e-200, 1e-200]`` was refused as a
    zero vector."""

    SCALES = [1e200, 1e-200, 1e-160, 1e300]

    @staticmethod
    def scaled(scale):
        unit = random_state(GridSpec(n=2, alpha=ALPHA), 2, seed=4)
        return unit, DiscretizedState(unit.grid, 2, unit.amplitudes * scale)

    @pytest.mark.parametrize("value", [1e200, 1e-200])
    def test_the_two_entry_vector(self, value):
        x = np.array([value, value])
        assert fidelity(x, x) == pytest.approx(1.0, abs=1e-15)
        state = DiscretizedState(GridSpec(n=1, alpha=ALPHA), 1, x)
        assert np.allclose(state.normalized().amplitudes, [math.sqrt(0.5)] * 2, rtol=0, atol=1e-15)
        assert np.allclose(reduced_density(state, [(0, L)]), 0.5, rtol=0, atol=1e-15)
        bell = DiscretizedState(GridSpec(n=1, alpha=ALPHA), 2, np.array([value, 0, 0, value]))
        assert connected_correlators(bell, [((0, L), (1, L))]) == [0.25]

    @pytest.mark.parametrize("scale", SCALES)
    def test_fidelity(self, scale):
        unit, state = self.scaled(scale)
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-14)
        assert fidelity(state, unit) == pytest.approx(1.0, abs=1e-14)
        rho, vector = reduced_density(unit, [(0, L)]), np.array([0.6, 0.8j])
        assert fidelity(vector * scale, rho * scale) == pytest.approx(
            fidelity(vector, rho), abs=1e-14
        )

    @pytest.mark.parametrize("value", [2e200, 2e-200])
    def test_norm_and_projection_weight(self, value):
        """Before ``norm`` rescaled, 2e200 overflowed with a warning and 2e-200
        read as a zero norm, so a projection's weight read as zero."""
        state = DiscretizedState(GridSpec(n=1, alpha=ALPHA), 2, np.full(4, value))
        assert state.norm() == pytest.approx(2 * value, rel=1e-15, abs=0)
        projected, weight = project_p0(state, 1)
        assert weight == pytest.approx(2 * value, rel=1e-15, abs=0)
        assert projected.norm() == weight

    @pytest.mark.parametrize("scale", SCALES)
    def test_norm(self, scale):
        unit, state = self.scaled(scale)
        assert state.norm() == pytest.approx(scale * unit.norm(), rel=1e-14, abs=0)
        assert unit.norm() == sum_norm(unit.amplitudes)

    @pytest.mark.parametrize("scale", SCALES)
    def test_normalized(self, scale):
        unit, state = self.scaled(scale)
        assert np.allclose(state.normalized().amplitudes, unit.amplitudes, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("scale", SCALES)
    def test_reduced_density(self, scale):
        unit, state = self.scaled(scale)
        for selection in ([(0, L)], [(1, M), (0, U)]):
            expected = reduced_density(unit, selection)
            assert np.allclose(reduced_density(state, selection), expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("scale", SCALES)
    def test_connected_correlators(self, scale):
        unit, state = self.scaled(scale)
        pairs = [((0, L), (1, L)), ((0, M), (1, U)), ((1, U), (1, M))]
        assert np.allclose(
            connected_correlators(state, pairs),
            connected_correlators(unit, pairs),
            rtol=0,
            atol=1e-14,
        )


def reference_connected_correlator(state, sub_a, sub_b):
    """An earlier revision's one-pair correlator, with the same arithmetic."""
    (mode_a, kind_a), (mode_b, kind_b) = sub_a, sub_b
    _require_mode(mode_a, state.n_modes)
    _require_mode(mode_b, state.n_modes)
    dim = state.grid.dim
    probs = np.abs(state.amplitudes.reshape((dim,) * state.n_modes)) ** 2
    total = probs.sum()
    if total == 0.0:
        raise DomainError("state has zero norm")
    shape_a = [1] * state.n_modes
    shape_a[mode_a] = dim
    shape_b = [1] * state.n_modes
    shape_b[mode_b] = dim
    va = state.grid.basis_values(kind_a).reshape(shape_a)
    vb = state.grid.basis_values(kind_b).reshape(shape_b)
    mean_a = float((probs * va).sum() / total)
    mean_b = float((probs * vb).sum() / total)
    mean_ab = float((probs * va * vb).sum() / total)
    return mean_ab - mean_a * mean_b


class TestCorrelators:
    def test_diagonal_correlators_vanish_on_cluster_states(self):
        # diagonal phases leave the product probability distribution intact
        grid = GridSpec(n=3, alpha=ALPHA)
        state = direct_cluster_state(grid, chain_adjacency(2), [momentum(), momentum()])
        for kind_a in (L, M, U):
            for kind_b in (L, M, U):
                pair = ((0, kind_a), (1, kind_b))
                assert abs(connected_correlators(state, [pair])[0]) < 1e-12

    def test_batch_is_bit_identical_to_reference(self):
        # |psi|^2 of a random state correlates every subsystem pair
        state = random_state(GridSpec(n=2, alpha=ALPHA), 3, 8)
        subsystems = [(mode, kind) for mode in range(3) for kind in (L, M, U)]
        pairs = [(a, b) for a in subsystems for b in subsystems]
        values = connected_correlators(state, pairs)
        expected = [reference_connected_correlator(state, a, b) for a, b in pairs]
        assert repr(values) == repr(expected)
        assert min(map(abs, values)) > 0.0
        assert [connected_correlators(state, [pair])[0] for pair in pairs] == values
        assert connected_correlators(state, iter(pairs[:5])) == values[:5]
        assert connected_correlators(state, []) == []

    def test_batch_rejects_bad_modes_and_zero_norm(self):
        state = random_state(GridSpec(n=2, alpha=ALPHA), 2, 9)
        with pytest.raises(DomainError, match="mode 2 out of range"):
            connected_correlators(state, [((0, L), (1, M)), ((1, U), (2, L))])
        zero = DiscretizedState(state.grid, 2, np.zeros_like(state.amplitudes))
        with pytest.raises(DomainError, match="zero norm"):
            connected_correlators(zero, [((0, L), (1, M))])

    def test_coupling_strength_reads_edges(self):
        grid = GridSpec(n=4, alpha=ALPHA)
        state = tensor_product([prepare_momentum_state(grid)] * 2)
        coupled = apply_terms(state, [CouplingTerm((0, M), (1, U), 2 * math.pi / ALPHA)])
        assert coupling_strength(coupled, (0, M), (1, U)) == pytest.approx(
            2 * math.pi / grid.n
        )
        assert coupling_strength(coupled, (0, L), (1, U)) < 1e-12

    def test_two_pi_integer_coupling_reads_as_absent(self):
        grid = GridSpec(n=3, alpha=ALPHA)
        state = tensor_product([prepare_momentum_state(grid)] * 2)
        coupled = apply_terms(state, [CouplingTerm((0, M), (1, M), 4 * math.pi)])
        assert coupling_strength(coupled, (0, M), (1, M)) < 1e-12

    def test_coupling_strength_rejects_identical_subsystem(self):
        state = prepare_momentum_state(GridSpec(n=2, alpha=1.0))
        with pytest.raises(DomainError):
            coupling_strength(tensor_product([state, state]), (0, L), (0, L))


def outcome(function, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return function(*args)
    except DomainError as error:
        return ("raised", str(error))


class TestOneLayout:
    """``GridSpec.shape`` and ``axis_values`` against the tiled layout, and the
    readouts' one subsystem view against their own reshapes, byte for byte."""

    ALPHAS = (1.0, ALPHA, 2.5, 0.3)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_values_match_the_tiled_layout(self, n):
        for alpha in self.ALPHAS:
            grid = GridSpec(n=n, alpha=alpha)
            assert grid.shape == (2, n, n) and grid.dim == 2 * n * n
            assert grid.axis_values(L).tobytes() == np.array([0.0, 1.0]).tobytes()
            m_values = layout_reference.m_values(grid).astype(float)
            assert grid.axis_values(M).tobytes() == m_values.tobytes()
            assert grid.axis_values(U).tobytes() == layout_reference.u_values(grid).tobytes()
            for kind in (L, M, U):
                values = grid.basis_values(kind)
                expected = layout_reference.basis_values(grid, kind)
                assert values.dtype == expected.dtype and values.shape == expected.shape
                assert values.tobytes() == expected.tobytes()
                assert values.flags.writeable
            expected = layout_reference.position_values(grid)
            assert grid.position_values().tobytes() == expected.tobytes()

    SELECTIONS = [
        [(0, L)],
        [(0, U), (0, L)],
        [(0, M), (0, U), (0, L)],
        [(-1, U), (0, M)],
        [(-1, L), (0, L), (-1, M)],
    ]
    PAIRS = [((0, L), (-1, M)), ((0, M), (0, U)), ((-1, U), (0, L)), ((0, L), (-1, M))]

    @staticmethod
    def on_modes(subsystems, n_modes):
        """Read mode -1 as the last mode, as a list of (mode, kind) pairs."""
        return [(mode % n_modes, kind) for mode, kind in subsystems]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
    def test_readouts_match_their_own_reshapes(self, n, n_modes):
        state = random_state(GridSpec(n=n, alpha=ALPHA), n_modes, seed=10 * n + n_modes)
        for selection in self.SELECTIONS:
            selection = self.on_modes(selection, n_modes)
            if len(set(selection)) < len(selection):
                continue
            expected = layout_reference.reduced_density(state, selection)
            assert reduced_density(state, selection).tobytes() == expected.tobytes()
        pairs = [tuple(self.on_modes(pair, n_modes)) for pair in self.PAIRS]
        pairs = [(a, b) for a, b in pairs if a != b]
        for sub_a, sub_b in pairs:
            expected = layout_reference.coupling_strength(state, sub_a, sub_b)
            assert repr(coupling_strength(state, sub_a, sub_b)) == repr(expected)
        # subsystems repeat across pairs, and one pair is listed twice
        expected = layout_reference.connected_correlators(state, pairs)
        assert repr(connected_correlators(state, pairs)) == repr(expected)
        assert connected_correlators(state, []) == [] == layout_reference.connected_correlators(
            state, []
        )

    def test_readouts_match_on_coupled_states(self):
        grid = GridSpec(n=4, alpha=ALPHA)
        state = direct_cluster_state(grid, chain_adjacency(3), [momentum(), gkp_plus(), momentum()])
        subsystems = [(mode, kind) for mode in range(3) for kind in (L, M, U)]
        pairs = [(a, b) for a in subsystems for b in subsystems if a != b]
        expected = layout_reference.connected_correlators(state, pairs)
        assert repr(connected_correlators(state, pairs)) == repr(expected)
        for sub_a, sub_b in pairs:
            expected = layout_reference.coupling_strength(state, sub_a, sub_b)
            assert repr(coupling_strength(state, sub_a, sub_b)) == repr(expected)
        for selection in ([(1, L)], [(0, L), (2, L)], [(2, U), (1, M), (0, L)]):
            expected = layout_reference.reduced_density(state, selection)
            assert reduced_density(state, selection).tobytes() == expected.tobytes()

    ERRORS = [
        ("reduced_density", ([],), "subsystem selection must be nonempty"),
        ("reduced_density", ([(0, L), (0, L)],), "duplicate subsystem in selection"),
        ("reduced_density", ([(5, L), (5, L)],), "duplicate subsystem in selection"),
        ("reduced_density", ([(0, L), (5, M), (7, U)],), "mode 5 out of range for 2 modes"),
        ("reduced_density", ([(-1, L)],), "mode -1 out of range for 2 modes"),
        ("coupling_strength", ((5, L), (5, L)), "mode 5 out of range for 2 modes"),
        ("coupling_strength", ((0, L), (9, L)), "mode 9 out of range for 2 modes"),
        ("coupling_strength", ((1, M), (1, M)), "coupling strength needs two distinct subsystems"),
        (
            "connected_correlators",
            ([((0, L), (1, M)), ((3, U), (2, L))],),
            "mode 3 out of range for 2 modes",
        ),
        ("connected_correlators", ([((0, L), (1, M)), ((1, U), (2, L))],), "mode 2 out of range"),
        ("reduced_density", ([(1.0, L)],), "mode must be an int, got 1.0"),
        ("coupling_strength", ((0, L), (True, M)), "mode must be an int, got True"),
        ("connected_correlators", ([((0, L), (1.0, M))],), "mode must be an int, got 1.0"),
    ]

    @pytest.mark.parametrize("name, args, message", ERRORS)
    def test_errors_keep_their_messages_and_order(self, name, args, message):
        state = random_state(GridSpec(n=2, alpha=ALPHA), 2, 3)
        zero = DiscretizedState(state.grid, 2, np.zeros_like(state.amplitudes))
        for subject in (state, zero):
            raised = outcome(getattr(oracle, name), subject, *args)
            assert raised == outcome(getattr(layout_reference, name), subject, *args)
            assert raised[0] == "raised" and raised[1].startswith(message)


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


@st.composite
def topologies(draw):
    n_modes = draw(st.integers(0, 8))
    pairs = [(i, j) for i in range(n_modes) for j in range(i + 1, n_modes)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Topology(n_modes, tuple(pair for pair, keep in zip(pairs, chosen) if keep))


class TestQubitClusterState:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(topologies())
    def test_bit_identical_to_the_dense_scan(self, topology):
        amps = qubit_cluster_state(topology)
        reference = dense_qubit_cluster_state(topology_matrix(topology))
        assert amps.dtype == reference.dtype and amps.tobytes() == reference.tobytes()

    def test_reads_any_object_with_modes_and_edges(self):
        class Edges:
            n_modes = 2
            edges = ((0, 1),)

        assert qubit_cluster_state(Edges()).tobytes() == qubit_cluster_state(
            chain_topology(2)
        ).tobytes()
