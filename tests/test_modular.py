import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hiddencluster.errors import DomainError
from hiddencluster.modular import (
    DEFAULT_ALPHA,
    QuantumNumbers,
    decompose_position,
    gauge_position,
    recompose,
)

ALPHAS = [0.25, 1.0, DEFAULT_ALPHA, 2.0, 7.5]

positions = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)
alphas = st.sampled_from(ALPHAS)


def away_from_boundary(x: float, alpha: float) -> bool:
    frac = x / alpha + 0.5
    return abs(frac - round(frac)) > 1e-6


def test_zero_and_comb_positions():
    assert decompose_position(0.0, 1.0) == QuantumNumbers(0, 0, 0.0)
    # comb positions alpha*(2m + j) carry ell = j and u = 0
    for alpha in (1.0, DEFAULT_ALPHA):
        q = decompose_position(alpha, alpha)
        assert (q.ell, q.m) == (1, 0)
        assert abs(q.u) < 4 * math.ulp(alpha)
        q = decompose_position(alpha * (2 * 3 + 1), alpha)
        assert (q.ell, q.m) == (1, 3)
        assert abs(q.u) < 16 * math.ulp(alpha)


def test_fractional_example():
    q = decompose_position(2.49, 1.0)
    assert (q.ell, q.m) == (0, 1)
    assert q.u == pytest.approx(0.49, abs=1e-12)
    assert recompose(q, 1.0) == pytest.approx(2.49, abs=4 * math.ulp(2.49))


def test_boundary_rolls_upward():
    q = decompose_position(0.5, 1.0)
    assert q == QuantumNumbers(1, 0, -0.5)


def test_recompose_examples():
    assert recompose(QuantumNumbers(0, 0, 0.0), DEFAULT_ALPHA) == 0.0
    assert recompose(QuantumNumbers(1, 1, -0.5), 1.0) == pytest.approx(2.5)
    assert recompose(QuantumNumbers(0, -2, 0.25), 1.0) == pytest.approx(-3.75)


def test_gauge_position_examples():
    assert gauge_position(QuantumNumbers(1, 0, 0.0), 1.0) == 0.0
    assert gauge_position(QuantumNumbers(0, 3, 0.1), 1.0) == pytest.approx(3.1)
    assert gauge_position(QuantumNumbers(1, -1, -0.4), 2.0) == pytest.approx(-2.4)


def test_gauge_position_cross_check():
    # x - alpha*ell - alpha*m must agree with gauge_position after decompose
    for x in (-17.3, -0.2, 4.81, 123.456):
        for alpha in (1.0, DEFAULT_ALPHA, 2.0):
            q = decompose_position(x, alpha)
            expected = x - alpha * q.ell - alpha * q.m
            assert gauge_position(q, alpha) == pytest.approx(expected, abs=1e-9)


@given(x=positions, alpha=alphas)
@settings(max_examples=300, derandomize=True)
def test_round_trip(x, alpha):
    q = decompose_position(x, alpha)
    back = recompose(q, alpha)
    assert abs(back - x) <= 4 * math.ulp(max(abs(x), alpha))


@given(x=positions, alpha=alphas)
@settings(max_examples=300, derandomize=True)
def test_u_range(x, alpha):
    q = decompose_position(x, alpha)
    assert -alpha / 2 <= q.u < alpha / 2
    assert q.ell in (0, 1)


@given(x=st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), alpha=alphas)
@settings(max_examples=300, derandomize=True)
def test_two_alpha_periodicity(x, alpha):
    assume(away_from_boundary(x, alpha))
    q = decompose_position(x, alpha)
    shifted = decompose_position(x + 2 * alpha, alpha)
    assert (shifted.ell, shifted.m) == (q.ell, q.m + 1)
    assert abs(shifted.u - q.u) <= 8 * math.ulp(max(abs(x), alpha))


@given(x=st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), alpha=alphas)
@settings(max_examples=300, derandomize=True)
def test_alpha_shift(x, alpha):
    assume(away_from_boundary(x, alpha))
    q = decompose_position(x, alpha)
    shifted = decompose_position(x + alpha, alpha)
    assert shifted.ell == 1 - q.ell
    assert shifted.m == q.m + q.ell
    assert abs(shifted.u - q.u) <= 8 * math.ulp(max(abs(x), alpha))


@given(k=st.integers(min_value=-1000, max_value=1000), alpha=alphas)
@settings(max_examples=200, derandomize=True)
def test_half_bin_boundary_stays_in_range(k, alpha):
    x = (k + 0.5) * alpha
    q = decompose_position(x, alpha)
    assert -alpha / 2 <= q.u < alpha / 2
    assert abs(recompose(q, alpha) - x) <= 4 * math.ulp(max(abs(x), alpha))


def test_extreme_positions_keep_invariants():
    for x in (1e300, -1e300, 1e18):
        q = decompose_position(x, 1.0)
        assert -0.5 <= q.u < 0.5
        assert abs(recompose(q, 1.0) - x) <= 4 * math.ulp(abs(x))


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_nonfinite_position_rejected(bad):
    with pytest.raises(DomainError):
        decompose_position(bad, 1.0)


@pytest.mark.parametrize("bad_alpha", [0.0, -1.0, float("nan"), 1e-320, 1e200])
def test_bad_alpha_rejected(bad_alpha):
    with pytest.raises(DomainError):
        decompose_position(1.0, bad_alpha)


def test_recompose_rejects_invariant_violations():
    with pytest.raises(DomainError):
        recompose(QuantumNumbers(2, 0, 0.0), 1.0)
    with pytest.raises(DomainError):
        recompose(QuantumNumbers(0, 0, 0.5), 1.0)  # u = +alpha/2 excluded
    with pytest.raises(DomainError):
        recompose(QuantumNumbers(0, 1.5, 0.0), 1.0)  # type: ignore[arg-type]
    with pytest.raises(DomainError):
        gauge_position(QuantumNumbers(0, 0, -0.6), 1.0)
