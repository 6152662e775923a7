"""Exact brute-force state-vector simulator on a finite (ell, m, u) grid.

Each mode is discretized to the 2*n*n points (ell, m, u) with ell in
{0, 1}, m running over n consecutive integers centered on 0, and u over the
n values alpha*j/n for the same centered range of j (so u = 0 is always on
the grid).  Matching the m-count to the u-count is what makes the model
exact rather than approximate: for any u-grid offset j, the bin-number sum
sum_m exp(2*pi*i*j*m/n) over n consecutive integers vanishes unless j = 0,
so momentum projections annihilate every off-zero modular component with no
truncation error.  The unnormalizable ideal states become ordinary unit
vectors here, and all in-scope gate and measurement identities hold on the
grid to floating round-off.

States are dense complex vectors ordered mode-major, then (ell, m-index,
u-index) within a mode, the order of ``SubsystemKind.offset``.  Operations
never mutate their inputs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ._record import Record, set_field
from .errors import DomainError
from .modular import SubsystemKind, require_bin_size

#: A subsystem address on the grid: (mode index, subsystem kind).
Subsystem = tuple[int, SubsystemKind]


class GridSpec(Record):
    """Finite discretization of one mode: n bin values and n modular values."""

    n: int
    alpha: float

    def __init__(self, n: int, alpha: float) -> None:
        if not isinstance(n, int) or n < 1:
            raise DomainError(f"grid size must be a positive integer, got {n!r}")
        set_field(self, "n", n)
        set_field(self, "alpha", require_bin_size(alpha))

    @property
    def dim(self) -> int:
        return 2 * self.n * self.n

    @property
    def zero_u_index(self) -> int:
        return self.n // 2

    def m_values(self) -> np.ndarray:
        start = -(self.n // 2)
        return np.arange(start, start + self.n)

    def u_values(self) -> np.ndarray:
        return self.alpha * self.m_values() / self.n

    def basis_values(self, kind: SubsystemKind) -> np.ndarray:
        """Eigenvalue of one subsystem operator at each of the dim basis points."""
        n = self.n
        ell = np.repeat(np.arange(2), n * n)
        if kind is SubsystemKind.LOGICAL:
            return ell.astype(float)
        if kind is SubsystemKind.GAUGE_BIN:
            return np.tile(np.repeat(self.m_values(), n), 2).astype(float)
        return np.tile(np.tile(self.u_values(), n), 2)

    def position_values(self) -> np.ndarray:
        """Physical position alpha*ell + 2*alpha*m + u at each basis point."""
        return (
            self.alpha * self.basis_values(SubsystemKind.LOGICAL)
            + 2.0 * self.alpha * self.basis_values(SubsystemKind.GAUGE_BIN)
            + self.basis_values(SubsystemKind.GAUGE_MODULAR)
        )


def _require_mode(mode: int, n_modes: int) -> None:
    if not 0 <= mode < n_modes:
        raise DomainError(f"mode {mode} out of range for {n_modes} modes")


def _require_finite(amplitudes: np.ndarray) -> None:
    if not np.all(np.isfinite(amplitudes)):
        raise DomainError("amplitudes must be finite")


class DiscretizedState(Record):
    """Dense amplitude vector over the grid of ``n_modes`` modes."""

    grid: GridSpec
    n_modes: int
    amplitudes: np.ndarray

    def __init__(self, grid: GridSpec, n_modes: int, amplitudes: np.ndarray) -> None:
        if n_modes < 0:
            raise DomainError("mode count must be nonnegative")
        amplitudes = np.asarray(amplitudes, dtype=complex)
        expected = grid.dim**n_modes
        if amplitudes.shape != (expected,):
            raise DomainError(
                f"amplitude vector has length {amplitudes.shape}, expected ({expected},)"
            )
        _require_finite(amplitudes)
        set_field(self, "grid", grid)
        set_field(self, "n_modes", n_modes)
        set_field(self, "amplitudes", amplitudes)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "DiscretizedState":
        norm = self.norm()
        if norm == 0.0:
            raise DomainError("cannot normalize the zero vector")
        return DiscretizedState(self.grid, self.n_modes, self.amplitudes / norm)

    def _tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((self.grid.dim,) * self.n_modes)


def prepare_momentum_state(grid: GridSpec) -> DiscretizedState:
    """Zero-momentum analog: the uniform superposition over all grid points."""
    dim = grid.dim
    return DiscretizedState(grid, 1, np.full(dim, 1.0 / math.sqrt(dim), dtype=complex))


def prepare_gkp_state(grid: GridSpec, c0: complex, c1: complex) -> DiscretizedState:
    """Comb state c0|0> + c1|1>: support on u = 0 only, uniform over bins."""
    c0, c1 = complex(c0), complex(c1)
    # products, not ``**``: an overflowing square is then inf, not an OverflowError
    norm_sq = sum(c.real * c.real + c.imag * c.imag for c in (c0, c1))
    if abs(norm_sq - 1.0) > 1e-12:
        raise DomainError(f"logical amplitudes must be normalized, got |c|^2 = {norm_sq}")
    n = grid.n
    amps = np.zeros((2, n, n), dtype=complex)
    amps[0, :, grid.zero_u_index] = c0 / math.sqrt(n)
    amps[1, :, grid.zero_u_index] = c1 / math.sqrt(n)
    return DiscretizedState(grid, 1, amps.reshape(-1))


#: One diagonal two-mode coupling exp(i * coefficient * a (x) b), given as
#: (mode_a, values_a, mode_b, values_b, coefficient) where each values array
#: holds the operator's eigenvalue at the dim basis points of its mode.
Coupling = tuple[int, np.ndarray, int, np.ndarray, float]


def _pair_exponents(
    n_modes: int, dim: int, couplings: list[Coupling]
) -> dict[tuple[int, int], np.ndarray]:
    """Sum the exponents of all couplings on each unordered mode pair (a < b).

    Each table is dim x dim with mode a on its first axis; pairs keep the
    order of their first coupling.
    """
    exponents: dict[tuple[int, int], np.ndarray] = {}
    # an exponent that overflows or is undefined is rejected after the loop, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for mode_a, values_a, mode_b, values_b, coefficient in couplings:
            _require_mode(mode_a, n_modes)
            _require_mode(mode_b, n_modes)
            if mode_a == mode_b:
                raise DomainError("coupling operands must act on distinct modes")
            exponent = np.multiply.outer(float(coefficient) * np.asarray(values_a), values_b)
            if exponent.shape != (dim, dim):
                raise DomainError(f"coupling values must have one entry per basis point ({dim})")
            if mode_a > mode_b:
                mode_a, mode_b, exponent = mode_b, mode_a, exponent.T
            pair = (mode_a, mode_b)
            exponents[pair] = exponents[pair] + exponent if pair in exponents else exponent
    for (mode_a, mode_b), exponent in exponents.items():
        if not np.all(np.isfinite(exponent)):
            raise DomainError(f"coupling phase on modes {mode_a} and {mode_b} is not finite")
    return exponents


#: A broadcast factor: (modes, table), where the table has one axis of length
#: dim per listed mode and the modes are listed in increasing order.
Factor = tuple[tuple[int, ...], np.ndarray]


def _spread(table: np.ndarray, modes: tuple[int, ...], axes, dim: int) -> np.ndarray:
    """View a factor's table with one axis per entry of the sorted ``axes``."""
    return table.reshape([dim if mode in modes else 1 for mode in axes])


def _merge_small_factors(dim: int, n_modes: int, factors: list[Factor]) -> list[Factor]:
    """Multiply factors together while their product stays below full size.

    Each step merges the two factors whose mode union is smallest, the first
    such pair in list order on a tie, as long as that union has fewer than
    ``n_modes`` modes; the merged factor takes the first one's place.  A
    merged table holds at most 1/dim of the full tensor.
    """
    factors = list(factors)
    while True:
        best = None
        for i, j in itertools.combinations(range(len(factors)), 2):
            union = set(factors[i][0]) | set(factors[j][0])
            if len(union) < n_modes and (best is None or len(union) < len(best[2])):
                best = (i, j, union)
        if best is None:
            return factors
        i, j, union = best
        modes = tuple(sorted(union))
        (modes_a, table_a), (modes_b, table_b) = factors[i], factors[j]
        table = _spread(table_a, modes_a, modes, dim) * _spread(table_b, modes_b, modes, dim)
        factors[i] = (modes, table)
        del factors[j]


#: Bound below which a product of factor tables provably stays finite.
_FINITE_BOUND = 2.0**1000


def _multiply_factors(grid: GridSpec, n_modes: int, factors: list[Factor]) -> DiscretizedState:
    """Multiply broadcast factors into one fresh (dim,)*n_modes tensor.

    The small factors are contracted first (:func:`_merge_small_factors`),
    so a state whose factors pair up below full size, such as a 4-mode
    chain, star or ring, is written by a single broadcast multiply.  Any
    factors left after that are multiplied in place, so no factor is
    written.  The result is proven finite from the factor tables'
    largest moduli; only when that bound fails is the tensor scanned.
    """
    dim = grid.dim
    # Every tensor entry, and every entry of a merged table, is a product of
    # one entry per factor, so each partial product a multiply forms is at
    # most the product of max(1, max|table|) over the factors; the factor 2
    # per table covers the rounding of every complex multiply.  Below 2**1000
    # no partial product, nor any term inside a complex multiply, can
    # overflow, so finite tables give a finite tensor.  A NaN or inf entry
    # makes its scale NaN or inf and fails the test, as does a true overflow;
    # then the tensor is scanned.  A non-finite product is reported by that
    # scan, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        scales = np.maximum([2.0 * np.abs(table).max() for _, table in factors], 1.0)
        proven = math.prod(scales.tolist()) < _FINITE_BOUND
        shaped = [
            _spread(table, modes, range(n_modes), dim)
            for modes, table in _merge_small_factors(dim, n_modes, factors)
        ]
        tensor = np.empty((dim,) * n_modes, dtype=complex)
        if len(shaped) == 1:
            tensor[...] = shaped[0]
        else:
            np.multiply(shaped[0], shaped[1], out=tensor)
            for factor in shaped[2:]:
                np.multiply(tensor, factor, out=tensor)
    amplitudes = tensor.reshape(-1)
    if not proven:
        _require_finite(amplitudes)
    # the one state built without __init__'s checks: its shape holds by
    # construction and its amplitudes were proven or scanned finite above
    state = object.__new__(DiscretizedState)
    set_field(state, "grid", grid)
    set_field(state, "n_modes", n_modes)
    set_field(state, "amplitudes", amplitudes)
    return state


def coupled_product(
    grid: GridSpec, vectors: list[np.ndarray], couplings: list[Coupling]
) -> DiscretizedState:
    """The tensor product of the per-mode vectors, times each coupling's phase.

    The product state itself is never built: each mode's vector is folded
    into the first pair table that touches it, and a mode with no coupling
    is its own factor, so the full tensor is written once and then updated.
    """
    if not vectors:
        raise DomainError("a product state needs at least one mode")
    dim = grid.dim
    vectors = [np.asarray(vector) for vector in vectors]
    if any(vector.shape != (dim,) for vector in vectors):
        raise DomainError(f"mode vectors must have one entry per basis point ({dim})")
    n_modes = len(vectors)
    unfolded = set(range(n_modes))
    factors = []
    exponents = _pair_exponents(n_modes, dim, couplings)
    # a fold that overflows is reported by _multiply_factors' scan, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for (mode_a, mode_b), exponent in exponents.items():
            table = np.exp(1j * exponent)
            if mode_a in unfolded:
                table *= vectors[mode_a][:, None]
                unfolded.discard(mode_a)
            if mode_b in unfolded:
                table *= vectors[mode_b]
                unfolded.discard(mode_b)
            factors.append(((mode_a, mode_b), table))
    factors += [((mode,), vectors[mode]) for mode in sorted(unfolded)]
    return _multiply_factors(grid, n_modes, factors)


def project_p0(state: DiscretizedState, mode: int) -> tuple[DiscretizedState, float]:
    """Contract one mode with the uniform (zero-momentum) bra.

    Returns the unnormalized state on the remaining modes together with its
    norm, the outcome weight; callers normalize when they need a state.
    """
    _require_mode(mode, state.n_modes)
    dim = state.grid.dim
    bra = np.full(dim, 1.0 / math.sqrt(dim))
    contracted = np.tensordot(bra, state._tensor(), axes=(0, mode))
    projected = DiscretizedState(state.grid, state.n_modes - 1, contracted.reshape(-1))
    return projected, projected.norm()


def reduced_density(
    state: DiscretizedState, subsystems: list[Subsystem]
) -> np.ndarray:
    """Partial trace onto the listed subsystems, in the order given."""
    if not subsystems:
        raise DomainError("subsystem selection must be nonempty")
    if len(set(subsystems)) != len(subsystems):
        raise DomainError("duplicate subsystem in selection")
    n = state.grid.n
    axes = []
    for mode, kind in subsystems:
        _require_mode(mode, state.n_modes)
        axes.append(3 * mode + kind.offset)
    tensor = state.amplitudes.reshape((2, n, n) * state.n_modes)
    rest = [ax for ax in range(3 * state.n_modes) if ax not in axes]
    moved = np.transpose(tensor, axes + rest)
    sizes = moved.shape[: len(axes)]
    kept = int(np.prod(sizes))
    flat = moved.reshape(kept, -1)
    rho = flat @ flat.conj().T
    trace = float(np.trace(rho).real)
    if trace <= 0.0:
        raise DomainError("state has zero norm; no reduced state exists")
    return rho / trace


def purity(rho: np.ndarray) -> float:
    return float(np.trace(rho @ rho).real)


def _as_vector_or_density(obj) -> np.ndarray:
    if isinstance(obj, DiscretizedState):
        return obj.amplitudes
    arr = np.asarray(obj, dtype=complex)
    if arr.ndim not in (1, 2):
        raise DomainError("fidelity arguments must be vectors or density matrices")
    return arr


def fidelity(a, b) -> float:
    """State fidelity; 1 iff equal up to global phase in the pure case.

    Accepts two amplitude vectors (or :class:`DiscretizedState`), or one
    vector and one density matrix in either order; pure inputs are
    normalized first.  Two density matrices are refused.
    """
    x, y = _as_vector_or_density(a), _as_vector_or_density(b)
    if x.ndim == 2 and y.ndim == 1:
        x, y = y, x
    if x.ndim == 2:
        raise DomainError("fidelity needs at least one pure state, got two density matrices")
    x = x / np.linalg.norm(x)
    if y.ndim == 1:
        y = y / np.linalg.norm(y)
        if x.shape != y.shape:
            raise DomainError("fidelity arguments must have matching dimensions")
        return float(abs(np.vdot(x, y)) ** 2)
    if y.shape != (x.size, x.size):
        raise DomainError("fidelity arguments must have matching dimensions")
    y = y / np.trace(y).real
    return float(np.real(x.conj() @ y @ x))


def connected_correlators(state: DiscretizedState, pairs) -> list[float]:
    """Connected two-point function <AB> - <A><B> of each subsystem pair, in order.

    ``|psi|**2`` and each subsystem's mean are computed once for all pairs.
    """
    pairs = list(pairs)
    for sub_a, sub_b in pairs:
        _require_mode(sub_a[0], state.n_modes)
        _require_mode(sub_b[0], state.n_modes)
    dim = state.grid.dim
    probs = np.abs(state._tensor()) ** 2
    total = probs.sum()
    if total == 0.0:
        raise DomainError("state has zero norm")
    values, means = {}, {}
    for mode, kind in dict.fromkeys(sub for pair in pairs for sub in pair):
        value = _spread(state.grid.basis_values(kind), (mode,), range(state.n_modes), dim)
        values[mode, kind] = value
        means[mode, kind] = float((probs * value).sum() / total)
    return [
        float((probs * values[sub_a] * values[sub_b]).sum() / total) - means[sub_a] * means[sub_b]
        for sub_a, sub_b in pairs
    ]


def coupling_strength(
    state: DiscretizedState, sub_a: Subsystem, sub_b: Subsystem
) -> float:
    """Bilinear phase coupling between two subsystems, read off the state.

    Computes the largest mixed second difference of the amplitude phase over
    one grid step of each subsystem coordinate, i.e. the connected two-point
    function of the log-wavefunction.  For a state built from diagonal phase
    couplings on a product state this is exactly the coupling's phase step
    (mod 2*pi) and zero for uncoupled pairs, including couplings whose phase
    is a 2*pi multiple per step and hence physically absent.  Points outside
    the state's support carry no phase and are skipped; a subsystem with a
    single grid point yields 0.
    """
    (mode_a, kind_a), (mode_b, kind_b) = sub_a, sub_b
    _require_mode(mode_a, state.n_modes)
    _require_mode(mode_b, state.n_modes)
    if (mode_a, kind_a) == (mode_b, kind_b):
        raise DomainError("coupling strength needs two distinct subsystems")
    n = state.grid.n
    tensor = state.amplitudes.reshape((2, n, n) * state.n_modes)
    axis_a = 3 * mode_a + kind_a.offset
    axis_b = 3 * mode_b + kind_b.offset

    def view(shift_a: bool, shift_b: bool) -> np.ndarray:
        index: list[slice] = [slice(None)] * tensor.ndim
        index[axis_a] = slice(1, None) if shift_a else slice(None, -1)
        index[axis_b] = slice(1, None) if shift_b else slice(None, -1)
        return tensor[tuple(index)]

    mixed = (
        view(True, True)
        * view(False, False)
        * np.conj(view(True, False))
        * np.conj(view(False, True))
    )
    magnitudes = np.abs(mixed)
    scale = magnitudes.max() if magnitudes.size else 0.0
    if scale == 0.0:
        return 0.0
    support = magnitudes > 1e-12 * scale
    return float(np.max(np.abs(np.angle(mixed[support]))))


def qubit_cluster_state(topology) -> np.ndarray:
    """Reference qubit cluster state: CZ on each edge applied to |+...+>, mode-major.

    ``topology`` is read by duck typing (its ``n_modes`` and ``(i, j)``
    ``edges``, as on ``gates.Topology``), so the oracle imports nothing from
    the symbolic layer.  A basis state's sign is the parity of
    ``bits[i] & bits[j]`` over the edges.
    """
    n = topology.n_modes
    index = np.arange(2**n)
    parity = np.zeros(2**n, dtype=np.int64)
    for i, j in topology.edges:
        parity ^= (index >> (n - 1 - i)) & (index >> (n - 1 - j)) & 1
    amps = np.full(2**n, 1.0 / math.sqrt(2**n), dtype=complex)
    amps[parity == 1] *= -1.0
    return amps
