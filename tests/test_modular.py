import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hiddencluster.certify import direct_cluster_state, run_verification
from hiddencluster.errors import DomainError
from hiddencluster.gates import chain_topology, decompose_cz_two_mode
from hiddencluster.graphs import momentum
from hiddencluster.modular import (
    DEFAULT_ALPHA,
    decompose_position,
    recompose,
    require_bin_size,
)
from hiddencluster.oracle import GridSpec

ALPHAS = [0.25, 1.0, DEFAULT_ALPHA, 2.0, 7.5]
MAX_FLOAT = 1.7976931348623157e308
# the end points of the valid bin sizes
MIN_BIN, MAX_BIN = 1.3219564750381271e-154, 1.3407807929942596e154

positions = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)
alphas = st.sampled_from(ALPHAS)


def away_from_boundary(x: float, alpha: float) -> bool:
    frac = x / alpha + 0.5
    return abs(frac - round(frac)) > 1e-6


def test_zero_and_comb_positions():
    assert decompose_position(0.0, 1.0) == (0, 0, 0.0)
    # comb positions alpha*(2m + j) carry ell = j and u = 0
    for alpha in (1.0, DEFAULT_ALPHA):
        ell, m, u = decompose_position(alpha, alpha)
        assert (ell, m) == (1, 0)
        assert abs(u) < 4 * math.ulp(alpha)
        ell, m, u = decompose_position(alpha * (2 * 3 + 1), alpha)
        assert (ell, m) == (1, 3)
        assert abs(u) < 16 * math.ulp(alpha)


def test_fractional_example():
    q = decompose_position(2.49, 1.0)
    assert q[:2] == (0, 1)
    assert q[2] == pytest.approx(0.49, abs=1e-12)
    assert recompose(q, 1.0) == pytest.approx(2.49, abs=4 * math.ulp(2.49))


def test_boundary_rolls_upward():
    assert decompose_position(0.5, 1.0) == (1, 0, -0.5)


def test_recompose_examples():
    assert recompose((0, 0, 0.0), DEFAULT_ALPHA) == 0.0
    assert recompose((1, 1, -0.5), 1.0) == pytest.approx(2.5)
    assert recompose((0, -2, 0.25), 1.0) == pytest.approx(-3.75)


def test_recompose_takes_an_int_bin_size_as_its_float():
    for q in [(1, 1, -0.5), (0, -2, 0.25)]:
        assert recompose(q, 1) == recompose(q, 1.0)
    with pytest.raises(DomainError, match="^bin size must be finite and positive, got 0.0$"):
        recompose((0, 0, 0.0), 0)


@given(x=positions, alpha=alphas)
@settings(max_examples=300, derandomize=True)
def test_round_trip(x, alpha):
    q = decompose_position(x, alpha)
    back = recompose(q, alpha)
    assert abs(back - x) <= 4 * math.ulp(max(abs(x), alpha))


@given(x=positions, alpha=alphas)
@settings(max_examples=300, derandomize=True)
def test_u_range(x, alpha):
    ell, _, u = decompose_position(x, alpha)
    assert -alpha / 2 <= u < alpha / 2
    assert ell in (0, 1)


@given(x=st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), alpha=alphas)
@settings(max_examples=300, derandomize=True)
def test_two_alpha_periodicity(x, alpha):
    assume(away_from_boundary(x, alpha))
    ell, m, u = decompose_position(x, alpha)
    shifted_ell, shifted_m, shifted_u = decompose_position(x + 2 * alpha, alpha)
    assert (shifted_ell, shifted_m) == (ell, m + 1)
    assert abs(shifted_u - u) <= 8 * math.ulp(max(abs(x), alpha))


@given(x=st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), alpha=alphas)
@settings(max_examples=300, derandomize=True)
def test_alpha_shift(x, alpha):
    assume(away_from_boundary(x, alpha))
    ell, m, u = decompose_position(x, alpha)
    shifted_ell, shifted_m, shifted_u = decompose_position(x + alpha, alpha)
    assert shifted_ell == 1 - ell
    assert shifted_m == m + ell
    assert abs(shifted_u - u) <= 8 * math.ulp(max(abs(x), alpha))


@given(k=st.integers(min_value=-1000, max_value=1000), alpha=alphas)
@settings(max_examples=200, derandomize=True)
def test_half_bin_boundary_stays_in_range(k, alpha):
    x = (k + 0.5) * alpha
    q = decompose_position(x, alpha)
    assert -alpha / 2 <= q[2] < alpha / 2
    assert abs(recompose(q, alpha) - x) <= 4 * math.ulp(max(abs(x), alpha))


def test_extreme_positions_keep_invariants():
    for x in (1e300, -1e300, 1e18):
        q = decompose_position(x, 1.0)
        assert -0.5 <= q[2] < 0.5
        assert abs(recompose(q, 1.0) - x) <= 4 * math.ulp(abs(x))


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_nonfinite_position_rejected(bad):
    with pytest.raises(DomainError):
        decompose_position(bad, 1.0)


@pytest.mark.parametrize("bad_alpha", [0.0, -1.0, float("nan"), 1e-320, 1e200])
def test_bad_alpha_rejected(bad_alpha):
    with pytest.raises(DomainError):
        decompose_position(1.0, bad_alpha)


@pytest.mark.parametrize(
    "q, message",
    [
        ((True, False, 0.0), "logical quantum number must be the int 0 or 1, got True"),
        ((0, True, 0.0), "bin number must be an int, got True"),
        ((1.0, 0, 0.0), "logical quantum number must be the int 0 or 1, got 1.0"),
        ((0, 2.0, 0.0), "bin number must be an int, got 2.0"),
    ],
    ids=["ell-bool", "m-bool", "ell-float", "m-float"],
)
def test_recompose_takes_int_quantum_numbers_only(q, message):
    with pytest.raises(DomainError) as info:
        recompose(q, 1.0)
    assert str(info.value) == message


def test_recompose_rejects_invariant_violations():
    with pytest.raises(DomainError):
        recompose((2, 0, 0.0), 1.0)
    with pytest.raises(DomainError):
        recompose((0, 0, 0.5), 1.0)  # u = +alpha/2 excluded
    with pytest.raises(DomainError):
        recompose((0, 1.5, 0.0), 1.0)  # type: ignore[arg-type]
    with pytest.raises(DomainError):
        recompose((0, 0, -0.6), 1.0)  # u below -alpha/2


@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
def test_recompose_rejects_non_finite_modular_position(u):
    with pytest.raises(DomainError) as info:
        recompose((0, 0, u), 1.0)
    assert str(info.value) == f"modular position {u!r} outside [-alpha/2, alpha/2) for alpha=1.0"


@pytest.mark.parametrize("x, alpha", [(1.7e308, 0.5), (1e308, 1e-150)])
def test_bin_index_overflow_rejected(x, alpha):
    with pytest.raises(DomainError) as info:
        decompose_position(x, alpha)
    assert f"position {x!r} overflows" in str(info.value)
    assert f"alpha={alpha!r}" in str(info.value)


@pytest.mark.parametrize(
    "q, alpha",
    [
        ((0, 10**300, 0.0), 1e10),
        ((1, -(10**300), 0.0), 1e10),
        ((0, 10**400, 0.0), 1.0),
    ],
    ids=["inf", "minus-inf", "int-too-large"],
)
def test_recompose_overflow_rejected(q, alpha):
    with pytest.raises(DomainError) as info:
        recompose(q, alpha)
    assert f"position of {q!r} overflows a float for alpha={alpha!r}" in str(info.value)


@pytest.mark.parametrize("x", [MAX_FLOAT, -MAX_FLOAT])
@pytest.mark.parametrize("alpha", [7.5, 3.0])
def test_split_that_cannot_recompose_rejected(x, alpha):
    with pytest.raises(DomainError) as info:
        decompose_position(x, alpha)
    assert f"position {x!r} has no split that recomposes" in str(info.value)


@given(
    x=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=2.0**1023, max_value=MAX_FLOAT),
        st.floats(min_value=-MAX_FLOAT, max_value=-(2.0**1023)),
    ),
    alpha=st.one_of(alphas, st.sampled_from([3.0, 1e-100, 1e150, MAX_BIN])),
)
@settings(max_examples=1000, derandomize=True)
@example(x=MAX_FLOAT, alpha=1.0)
@example(x=-MAX_FLOAT, alpha=MAX_BIN)
def test_accepted_split_recomposes_to_a_finite_float(x, alpha):
    try:
        q = decompose_position(x, alpha)
    except DomainError:
        return
    assert math.isfinite(recompose(q, alpha))


class TestSplitTuple:
    @given(case=st.tuples(positions, alphas))
    @settings(max_examples=100, derandomize=True)
    def test_split_is_a_plain_int_int_float_tuple(self, case):
        q = decompose_position(*case)
        assert type(q) is tuple and len(q) == 3
        assert [type(v) for v in q] == [int, int, float]

    @pytest.mark.parametrize("q", [None, (0, 0), (0, 0, 0.0, 1)], ids=repr)
    def test_recompose_refuses_anything_but_a_triple(self, q):
        with pytest.raises(DomainError) as info:
            recompose(q, 1.0)
        assert str(info.value) == f"quantum numbers must be an (ell, m, u) triple, got {q!r}"


# An earlier revision's bin-size check, split and rebuild, verbatim apart from
# the names and the split returning the (ell, m, u) tuple; the current code
# must give bit-identical numbers and the same messages.
def reference_require_bin_size(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise DomainError(f"bin size must be finite and positive, got {alpha!r}")
    square = alpha * alpha
    if not 0.0 < square < math.inf or not 0.0 < math.pi / square < math.inf:
        raise DomainError(
            f"bin size {alpha!r} is out of range: alpha**2 or pi/alpha**2 is 0 or infinite"
        )
    return alpha


def reference_decompose_position(x: float, alpha: float) -> tuple:
    alpha = reference_require_bin_size(alpha)
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"position value must be finite, got {x!r}")

    k = math.floor(x / alpha + 0.5)
    u = x - alpha * k
    # x/alpha rounding can put k off by one near the bin boundary.
    if u >= alpha / 2:
        k += 1
        u = x - alpha * k
    elif u < -alpha / 2:
        k -= 1
        u = x - alpha * k
    # Residual round-off exactly at the boundary: pin to the included
    # endpoint (perturbs the represented x by at most 1 ulp).
    if u >= alpha / 2:
        k += 1
        u = -alpha / 2
    elif u < -alpha / 2:
        u = -alpha / 2

    ell = k % 2
    m = (k - ell) // 2
    return (ell, m, u)


def reference_recompose(ell: int, m: int, u: float, alpha: float) -> float:
    return alpha * (ell + 2 * m) + u


@st.composite
def split_inputs(draw):
    """Random positions, exact bin edges (k +- 1/2)*alpha and their ulp neighbours."""
    alpha = draw(alphas)
    if draw(st.booleans()):
        return draw(positions), alpha
    k = draw(st.one_of(st.integers(-1000, 1000), st.integers(-(10**15), 10**15)))
    edge = (k + draw(st.sampled_from([-0.5, 0.5]))) * alpha
    step = draw(st.sampled_from([None, -math.inf, math.inf]))
    return (edge if step is None else math.nextafter(edge, step)), alpha


@given(case=split_inputs())
@settings(max_examples=1000, derandomize=True)
@example(case=(0.5, 1.0))
@example(case=(-0.0, DEFAULT_ALPHA))
@example(case=(math.nextafter(0.5, -math.inf), 1.0))
def test_split_is_bit_identical_to_reference(case):
    x, alpha = case
    q = decompose_position(x, alpha)
    expected = reference_decompose_position(x, alpha)
    assert repr(q) == repr(expected)
    assert repr(recompose(q, alpha)) == repr(reference_recompose(*expected, alpha))


def checked_bin_size(check, alpha):
    try:
        return repr(check(alpha))
    except DomainError as err:
        return f"DomainError: {err}"


@pytest.mark.parametrize(
    "alpha",
    [
        MIN_BIN,
        MAX_BIN,
        math.nextafter(MIN_BIN, 0.0),
        math.nextafter(MAX_BIN, math.inf),
        0.0,
        -0.0,
        -1.0,
        -MIN_BIN,
        -MAX_BIN,
        math.inf,
        -math.inf,
        math.nan,
        1,
    ],
)
def test_bin_size_check_is_identical_to_reference(alpha):
    assert checked_bin_size(require_bin_size, alpha) == checked_bin_size(
        reference_require_bin_size, alpha
    )


@pytest.mark.parametrize(
    "alpha",
    ["2.5", b"2.5", bytearray(b"2.5"), True, False, None, 1 + 0j],
    ids=["str", "bytes", "bytearray", "True", "False", "None", "complex"],
)
def test_bin_size_must_be_a_number(alpha):
    # float() reads the first five, and raises a bare TypeError on the last two
    assert checked_bin_size(require_bin_size, alpha) == (
        f"DomainError: bin size must be a number, got {alpha!r}"
    )


@given(
    alpha=st.one_of(
        st.floats(),
        st.floats(min_value=MIN_BIN / 4, max_value=MIN_BIN * 4),
        st.floats(min_value=MAX_BIN / 4, max_value=MAX_BIN * 4),
    )
)
@settings(max_examples=1000, derandomize=True)
def test_random_bin_size_check_is_identical_to_reference(alpha):
    assert checked_bin_size(require_bin_size, alpha) == checked_bin_size(
        reference_require_bin_size, alpha
    )


#: Every real-valued argument, by the name its refusal gives, as a call of one value.
REAL_ARGUMENTS = {
    "bin size": require_bin_size,
    "position value": lambda v: decompose_position(v, 1.0),
    "modular position": lambda v: recompose((0, 0, v), 1.0),
    "gate weight": lambda v: decompose_cz_two_mode(v, 1.0),
    "g_scale": lambda v: direct_cluster_state(
        GridSpec(1, 1.0), chain_topology(2), [momentum()] * 2, g_scale=v
    ),
    "verify g_scale": lambda v: run_verification(g_scale=v),
}


class TestRealArguments:
    """One number rule for every real-valued argument: a ``numbers.Real`` that
    is not a bool, within the float range."""

    @pytest.mark.parametrize("what", sorted(REAL_ARGUMENTS))
    @pytest.mark.parametrize(
        "value",
        ["1.5", b"1.5", True, np.True_, Decimal("0.25"), None, 0.5j],
        ids=["str", "bytes", "True", "numpy-True", "Decimal", "None", "complex"],
    )
    def test_refuses_what_is_not_a_real_number(self, what, value):
        with pytest.raises(DomainError) as info:
            REAL_ARGUMENTS[what](value)
        name = what.removeprefix("verify ")
        assert str(info.value) == f"{name} must be a number, got {value!r}"

    @pytest.mark.parametrize("what", sorted(REAL_ARGUMENTS))
    @pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["large", "large-negative"])
    def test_refuses_a_real_beyond_the_float_range(self, what, value):
        with pytest.raises(DomainError) as info:
            REAL_ARGUMENTS[what](value)
        name = what.removeprefix("verify ")
        assert str(info.value) == f"{name} is out of range: it overflows a float"

    @pytest.mark.parametrize(
        "value", [0, Fraction(1, 4), np.float64(0.25), np.int64(0)], ids=repr
    )
    def test_accepts_any_real_as_its_float(self, value):
        assert decompose_position(value, 1.0) == decompose_position(float(value), 1.0)
        assert recompose((1, 2, value), 1.0) == recompose((1, 2, float(value)), 1.0)
        assert decompose_cz_two_mode(value, 1.0) == decompose_cz_two_mode(float(value), 1.0)
        assert require_bin_size(value + 1) == float(value + 1)
