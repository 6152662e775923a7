import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import coupling_reference
from grid_reference import chain_adjacency, topology_matrix
from hiddencluster.certify import (
    multimode_phase_deviation,
    random_topology,
    sample_quantum_numbers,
    two_mode_phase_deviation,
)
from hiddencluster.errors import DomainError
from hiddencluster.gates import (
    COUPLINGS,
    TUNED_COUPLINGS,
    CouplingTerm,
    Topology,
    _coupling_layout,
    _phase_is_identity,
    as_topology,
    chain_topology,
    decompose_cz_multimode,
    decompose_cz_two_mode,
    grid_topology,
)
from hiddencluster.graphs import build_cluster, momentum
from hiddencluster.modular import (
    _MAX_BIN_SIZE,
    _MIN_BIN_SIZE,
    DEFAULT_ALPHA,
    SubsystemKind,
    require_bin_size,
)

L, M, U = SubsystemKind.LOGICAL, SubsystemKind.GAUGE_BIN, SubsystemKind.GAUGE_MODULAR
PI = math.pi


def term(kind_a, kind_b, coefficient):
    return CouplingTerm((0, kind_a), (1, kind_b), coefficient)


def kinds_and_coeffs(terms):
    return {t.kinds: t.coefficient for t in terms}


class TestTwoModeDecomposition:
    def test_tuned_keeps_exactly_six_terms(self):
        alpha = DEFAULT_ALPHA
        terms = decompose_cz_two_mode(PI / alpha**2, alpha)
        assert len(terms) == 6
        assert all((t.op_a[0], t.op_b[0]) == (0, 1) for t in terms)
        got = kinds_and_coeffs(terms)
        assert got[(L, L)] == pytest.approx(PI)
        assert got[(U, U)] == pytest.approx(PI / alpha**2)
        assert got[(M, U)] == pytest.approx(2 * PI / alpha)
        assert got[(U, M)] == pytest.approx(2 * PI / alpha)
        assert got[(L, U)] == pytest.approx(PI / alpha)
        assert got[(U, L)] == pytest.approx(PI / alpha)
        # the logical-bin and bin-bin couplings are the pruned ones
        assert (L, M) not in got and (M, L) not in got and (M, M) not in got

    def test_zero_weight_is_identity(self):
        assert decompose_cz_two_mode(0.0, 1.3) == []

    def test_half_tuned_keeps_eight_terms(self):
        alpha = 1.7
        terms = decompose_cz_two_mode(PI / (2 * alpha**2), alpha)
        assert len(terms) == 8
        got = kinds_and_coeffs(terms)
        assert got[(L, M)] == pytest.approx(PI)
        assert (M, M) not in got  # coefficient 2*pi, pruned

    def test_generic_weight_keeps_all_nine(self):
        assert len(decompose_cz_two_mode(0.37, 1.1)) == 9

    @pytest.mark.parametrize("g, alpha", [(1e308, 1e10), (1e300, 1e5), (-1e308, 10.0)])
    def test_rejects_overflowing_coefficient(self, g, alpha):
        with pytest.raises(DomainError):
            decompose_cz_two_mode(g, alpha)


class TestTrivialityPredicate:
    def test_integer_pair_at_two_pi(self):
        assert _phase_is_identity(term(L, M, 2 * PI))

    def test_modular_operand_never_trivial(self):
        assert not _phase_is_identity(term(L, U, 2 * PI))

    def test_bin_pair_at_four_pi(self):
        assert _phase_is_identity(term(M, M, 4 * PI))

    def test_near_multiple_within_tolerance(self):
        assert _phase_is_identity(term(L, M, 2 * PI * (1 + 1e-12)))
        assert not _phase_is_identity(term(L, M, 2 * PI * 1.5))


class TestPhaseIdentity:
    """exp(i g x1 x2) must equal the product of the surviving factors."""

    @pytest.mark.parametrize("alpha", [1.0, DEFAULT_ALPHA, 2.0])
    def test_random_weights(self, alpha):
        rng = np.random.default_rng(7)
        tuples = (
            sample_quantum_numbers(rng, alpha, 400),
            sample_quantum_numbers(rng, alpha, 400),
        )
        tuned = PI / alpha**2
        for g in [tuned, tuned / 2, 0.0, *rng.uniform(-2 * tuned, 2 * tuned, 12)]:
            assert two_mode_phase_deviation(g, alpha, tuples) < 1e-10

    def test_pruned_factors_are_unit_phases_on_integers(self):
        alpha = DEFAULT_ALPHA
        g = PI / alpha**2
        ells = np.arange(2.0)
        ms = np.arange(-5.0, 6.0)
        for coeff, va, vb in [
            (2 * g * alpha**2, ells, ms),  # logical-bin
            (2 * g * alpha**2, ms, ells),
            (4 * g * alpha**2, ms, ms),  # bin-bin
        ]:
            phases = np.exp(1j * coeff * np.outer(va, vb))
            assert np.max(np.abs(phases - 1.0)) < 1e-12

    def test_multimode_identity(self):
        rng = np.random.default_rng(11)
        alpha = DEFAULT_ALPHA
        for n_modes in (2, 3, 4):
            upper = np.triu(rng.integers(0, 2, size=(n_modes, n_modes)), k=1).astype(float)
            topology = as_topology(upper + upper.T)
            samples = [sample_quantum_numbers(rng, alpha, 1000) for _ in range(n_modes)]
            assert multimode_phase_deviation(topology, alpha, samples) < 1e-10


class TestCouplingLayout:
    def test_two_mode_block_matches_displayed_entries(self):
        for alpha in (1.0, DEFAULT_ALPHA, 2.0, 1.9):
            tuned = PI / alpha**2
            block = np.zeros((3, 3))
            for kind_a, kind_b, coefficient in _coupling_layout(tuned, alpha):
                block[kind_a.offset, kind_b.offset] = coefficient
            displayed = np.array(
                [
                    [PI, 2 * PI, PI / alpha],
                    [2 * PI, 4 * PI, 2 * PI / alpha],
                    [PI / alpha, 2 * PI / alpha, PI / alpha**2],
                ]
            )
            assert np.allclose(block, displayed, rtol=1e-12, atol=0.0)
            # the same floats as the Kronecker block tuned * outer(v, v) with
            # v = (alpha, 2*alpha, 1), which verify's block_expansion used to read
            v = np.array([alpha, 2.0 * alpha, 1.0])
            assert block.tobytes() == (tuned * np.outer(v, v)).tobytes()


class TestCouplingTable:
    def test_tuned_couplings_are_the_six_odd_or_modular_ones(self):
        assert [(ka, kb) for ka, kb, _ in COUPLINGS] == [
            (L, L), (M, M), (U, U), (L, M), (M, L), (L, U), (U, L), (M, U), (U, M)
        ]
        assert TUNED_COUPLINGS == (
            (L, L, 1), (U, U, 1), (L, U, 1), (U, L, 1), (M, U, 2), (U, M, 2)
        )

    @pytest.mark.parametrize(
        "alpha", [3e-154, 1e-100, 0.01, 0.37, 1.0, DEFAULT_ALPHA, 1.9, 2.0, 10.0, 1e100, 1e154]
    )
    def test_float_expansion_at_the_tuned_weight_matches_the_table(self, alpha):
        """The float route prunes to the table's survivors, in table order, and
        each coefficient is its integer units of pi/alpha**p to within 1e-9."""
        terms = decompose_cz_two_mode(PI / (alpha * alpha), alpha)
        assert [t.kinds for t in terms] == [(ka, kb) for ka, kb, _ in TUNED_COUPLINGS]
        for t, (_, _, units) in zip(terms, TUNED_COUPLINGS):
            strength = t.coefficient * alpha ** t.kinds.count(U) / PI
            assert abs(strength - units) <= 1e-9


def _log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(
        lambda t: min(max(math.exp(t), low), high)
    )


BIN_SIZES = st.one_of(
    # the ends of the valid interval and their neighbours inside it
    st.sampled_from([
        _MIN_BIN_SIZE,
        math.nextafter(_MIN_BIN_SIZE, math.inf),
        math.nextafter(_MAX_BIN_SIZE, 0.0),
        _MAX_BIN_SIZE,
    ]),
    _log_uniform(_MIN_BIN_SIZE, _MAX_BIN_SIZE),
    # the sizes at which the float route overflows
    _log_uniform(_MIN_BIN_SIZE, 4e-154),
    st.floats(0.01, 10.0),
)

TOPOLOGIES = st.one_of(
    st.integers(1, 6).map(chain_topology),
    st.tuples(st.integers(1, 3), st.integers(1, 3)).map(lambda rc: grid_topology(*rc)),
    st.tuples(st.integers(0, 2**32 - 1), st.integers(2, 6)).map(
        lambda args: random_topology(np.random.default_rng(args[0]), args[1])
    ),
)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(topology=TOPOLOGIES, alpha=BIN_SIZES)
def test_tuned_table_matches_the_float_route_and_stays_finite(topology, alpha):
    assert require_bin_size(alpha) == alpha
    result = decompose_cz_multimode(topology, alpha)
    assert all(math.isfinite(t.coefficient) for t in result.all_terms)
    try:
        expected = coupling_reference.decompose_cz_multimode(topology, alpha)
    except DomainError:
        event("the float route overflows")
        assert len(result.all_terms) == 6 * len(topology.edges)
        return
    assert repr(result) == repr(expected)


def _exact(terms):
    """Each term's operands and coefficient, the coefficient as ``float.hex``."""
    return [(t.op_a, t.op_b, t.coefficient.hex()) for t in terms]


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(topology=TOPOLOGIES, alpha=BIN_SIZES, fraction=st.floats(-1.0, 1.0))
def test_one_formula_matches_both_earlier_routes(topology, alpha, fraction):
    """``_coupling_layout`` gives the unit route's tuned coefficients bit for bit,
    and the float route's at any weight in [-2*pi/alpha**2, 2*pi/alpha**2] where
    that route returns; where it overflows, the coefficients are still finite."""
    result = decompose_cz_multimode(topology, alpha)
    expected = coupling_reference.decompose_cz_multimode_by_units(topology, alpha)
    assert _exact(result.logical_terms) == _exact(expected.logical_terms)
    assert _exact(result.gauge_terms) == _exact(expected.gauge_terms)
    assert _exact(result.interaction_terms) == _exact(expected.interaction_terms)

    g = (2.0 * fraction) * (PI / (alpha * alpha))
    if not math.isfinite(g):
        event("the weight overflows")
        return
    terms = decompose_cz_two_mode(g, alpha)
    try:
        old = coupling_reference.decompose_cz_two_mode(g, alpha)
    except DomainError:
        event("the float route overflows at this weight")
        assert all(math.isfinite(t.coefficient) for t in terms)
        return
    assert _exact(terms) == _exact(old)


@pytest.mark.parametrize("alpha", [_MIN_BIN_SIZE, 2e-154, 2.6e-154])
def test_tiny_bin_sizes_decompose_where_the_float_route_overflows(alpha):
    with pytest.raises(DomainError, match="overflows a coupling coefficient"):
        coupling_reference.decompose_cz_multimode(chain_topology(2), alpha)
    terms = decompose_cz_multimode(chain_topology(2), alpha).all_terms
    # logical, gauge, then interaction family, each in table order
    table = {(ka, kb): units for ka, kb, units in TUNED_COUPLINGS}
    assert [t.kinds for t in terms] == [(L, L), (U, U), (M, U), (U, M), (L, U), (U, L)]
    for t in terms:
        assert math.isfinite(t.coefficient)
        strength = t.coefficient * alpha ** t.kinds.count(U) / PI
        assert abs(strength - table[t.kinds]) <= 1e-9


class TestMultimodeDecomposition:
    def test_two_mode_partition_is_1_3_2(self):
        result = decompose_cz_multimode(chain_adjacency(2), DEFAULT_ALPHA)
        assert len(result.logical_terms) == 1
        assert len(result.gauge_terms) == 3
        assert len(result.interaction_terms) == 2
        two_mode = decompose_cz_two_mode(PI / DEFAULT_ALPHA**2, DEFAULT_ALPHA)
        assert sorted(result.all_terms, key=repr) == sorted(two_mode, key=repr)

    def test_empty_adjacency(self):
        result = decompose_cz_multimode(np.zeros((3, 3)), 1.0)
        assert result.all_terms == ()

    def test_grid_per_edge_counts(self):
        adjacency = topology_matrix(grid_topology(2, 3))
        edges = int(adjacency.sum()) // 2
        assert edges == 7
        result = decompose_cz_multimode(adjacency, DEFAULT_ALPHA)
        assert len(result.logical_terms) == edges
        assert len(result.gauge_terms) == 3 * edges
        assert len(result.interaction_terms) == 2 * edges

    def test_partition_matches_prune_pipeline(self):
        # independent route: prune the raw nine-term expansion pair by pair,
        # appending each edge's terms to their family in layout order, each
        # (0, 1) template term re-addressed here to the edge's modes (i, j)
        alpha = DEFAULT_ALPHA
        rng = np.random.default_rng(21)
        cases = [chain_adjacency(5), topology_matrix(grid_topology(2, 3))] + [
            topology_matrix(random_topology(rng, n_modes)) for n_modes in (2, 3, 4, 5, 6, 7, 8, 8)
        ]
        for adjacency in cases:
            n = adjacency.shape[0]
            logical, gauge, interaction = [], [], []
            for i in range(n):
                for j in range(i + 1, n):
                    if adjacency[i, j]:
                        for template in decompose_cz_two_mode(PI / alpha**2, alpha):
                            (_, kind_a), (_, kind_b) = template.op_a, template.op_b
                            t = CouplingTerm((i, kind_a), (j, kind_b), template.coefficient)
                            if set(t.kinds) == {L}:
                                logical.append(t)
                            elif L not in t.kinds:
                                gauge.append(t)
                            else:
                                interaction.append(t)
            result = decompose_cz_multimode(adjacency, alpha)
            assert list(result.logical_terms) == logical
            assert list(result.gauge_terms) == gauge
            assert list(result.interaction_terms) == interaction
            for t in result.interaction_terms:
                assert set(t.kinds) == {L, U}
            # modes reach the CLI's JSON output, which refuses numpy integers
            for t in result.all_terms:
                (mode_a, _), (mode_b, _) = t.op_a, t.op_b
                assert type(mode_a) is int and type(mode_b) is int

    def test_rejects_non_binary(self):
        with pytest.raises(DomainError):
            decompose_cz_multimode(0.5 * chain_adjacency(2), 1.0)
        with pytest.raises(DomainError, match="entries must be 0 or 1"):
            as_topology(np.array([[0.0, 2.0], [2.0, 0.0]]))



class TestTopology:
    def test_builders_give_row_major_edges(self):
        assert chain_topology(1) == Topology(1, ())
        assert chain_topology(4).edges == ((0, 1), (1, 2), (2, 3))
        assert grid_topology(2, 2) == Topology(4, ((0, 1), (0, 2), (1, 3), (2, 3)))
        assert grid_topology(1, 3) == chain_topology(3)

    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 5), (3, 1), (3, 4), (5, 5)])
    def test_dense_views_match_the_edge_builders(self, rows, cols):
        topology = grid_topology(rows, cols)
        matrix = topology_matrix(topology)
        # modes r*cols + c are neighbours iff they are one grid step apart
        cells = [divmod(i, cols) for i in range(rows * cols)]
        steps = [[abs(r - s) + abs(c - d) for s, d in cells] for r, c in cells]
        assert np.array_equal(matrix, np.equal(steps, 1))
        assert as_topology(matrix) == topology
        assert int(matrix.sum()) == 2 * len(topology.edges)
        n = rows * cols
        assert as_topology(chain_adjacency(n)) == chain_topology(n)

    def test_matrix_boundary_yields_python_ints(self):
        topology = as_topology(topology_matrix(grid_topology(2, 3)))
        assert all(type(end) is int for edge in topology.edges for end in edge)
        assert type(topology.n_modes) is int

    def test_builders_reject_empty_shapes(self):
        with pytest.raises(DomainError, match="at least one mode"):
            chain_topology(0)
        with pytest.raises(DomainError, match="positive"):
            grid_topology(2, 0)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: chain_topology(2.5), "chain length must be an int, got 2.5"),
            (lambda: chain_topology(True), "chain length must be an int, got True"),
            (lambda: grid_topology(2.5, 2), "grid dimensions must be ints, got (2.5, 2)"),
            (lambda: grid_topology(2, True), "grid dimensions must be ints, got (2, True)"),
            (lambda: Topology(2.5, ()), "n_modes must be an int, got 2.5"),
            (lambda: Topology(True, ()), "n_modes must be an int, got True"),
            (lambda: Topology(3, ((0.0, 1.0),)), "edge (0.0, 1.0) must have int ends"),
            (lambda: Topology(3, ((0, 1), (1, True))), "edge (1, True) must have int ends"),
        ],
        ids=["chain-float", "chain-bool", "grid-float", "grid-bool", "n-modes-float",
             "n-modes-bool", "end-float", "end-bool"],
    )
    def test_integer_arguments_refuse_floats_and_bools(self, build, message):
        with pytest.raises(DomainError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "edges, message",
        [
            (((0, 1, 2),), "edge (0, 1, 2) must be an (i, j) pair"),
            ((5,), "edge 5 must be an (i, j) pair"),
            (((0, 1), [2]), "edge [2] must be an (i, j) pair"),
            (None, "edges must be an iterable of pairs, got None"),
        ],
        ids=["triple", "bare-int", "singleton-after-valid", "none"],
    )
    def test_malformed_edges_are_refused(self, edges, message):
        with pytest.raises(DomainError) as info:
            Topology(3, edges)
        assert str(info.value) == message

    def test_edges_are_kept_as_a_tuple(self):
        # a one-shot iterator is read once, and a list becomes hashable
        assert Topology(3, iter([(0, 1), (1, 2)])) == chain_topology(3)
        assert hash(Topology(3, [(0, 1), (1, 2)])) == hash(chain_topology(3))

    @pytest.mark.parametrize(
        "n_modes, edges",
        [
            (3, ((0, 3),)),
            (3, ((-1, 2),)),
            (3, ((1, 1),)),
            (3, ((0, 1), (0, 1))),
            (3, ((1, 0),)),
            (3, ((1, 2), (0, 1))),
            (-1, ()),
        ],
        ids=["end-out-of-range", "negative-end", "self-loop", "duplicate", "reversed",
             "out-of-order", "negative-n-modes"],
    )
    def test_hand_built_topology_is_rejected(self, n_modes, edges):
        with pytest.raises(DomainError):
            build_cluster(Topology(n_modes, edges), [momentum()] * 3, 1.0)
        with pytest.raises(DomainError):
            decompose_cz_multimode(Topology(n_modes, edges), 1.0)

    def test_node_count_must_match_the_topology(self):
        with pytest.raises(DomainError, match="3 modes in adjacency but 2 node types"):
            build_cluster(chain_topology(3), [momentum()] * 2, 1.0)
