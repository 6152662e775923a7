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
u-index) within a mode.  Operations never mutate their inputs.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError
from .modular import SubsystemKind, require_bin_size

_MAGIC = b"HCGRID01"
_KIND_AXIS = {
    SubsystemKind.LOGICAL: 0,
    SubsystemKind.GAUGE_BIN: 1,
    SubsystemKind.GAUGE_MODULAR: 2,
}

#: A subsystem address on the grid: (mode index, subsystem kind).
Subsystem = tuple[int, SubsystemKind]


@dataclass(frozen=True)
class GridSpec:
    """Finite discretization of one mode: n bin values and n modular values."""

    n: int
    alpha: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"grid size must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "alpha", require_bin_size(self.alpha))

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


@dataclass
class DiscretizedState:
    """Dense amplitude vector over the grid of ``n_modes`` modes."""

    grid: GridSpec
    n_modes: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.n_modes < 0:
            raise DomainError("mode count must be nonnegative")
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        expected = self.grid.dim**self.n_modes
        if self.amplitudes.shape != (expected,):
            raise DomainError(
                f"amplitude vector has length {self.amplitudes.shape}, expected ({expected},)"
            )
        _require_finite(self.amplitudes)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "DiscretizedState":
        norm = self.norm()
        if norm == 0.0:
            raise DomainError("cannot normalize the zero vector")
        return DiscretizedState(self.grid, self.n_modes, self.amplitudes / norm)

    def _tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((self.grid.dim,) * self.n_modes)

    def _require_mode(self, mode: int) -> None:
        _require_mode(mode, self.n_modes)


def prepare_momentum_state(grid: GridSpec) -> DiscretizedState:
    """Zero-momentum analog: the uniform superposition over all grid points."""
    dim = grid.dim
    return DiscretizedState(grid, 1, np.full(dim, 1.0 / math.sqrt(dim), dtype=complex))


def prepare_gkp_state(grid: GridSpec, c0: complex, c1: complex) -> DiscretizedState:
    """Comb state c0|0> + c1|1>: support on u = 0 only, uniform over bins."""
    c0, c1 = complex(c0), complex(c1)
    norm_sq = abs(c0) ** 2 + abs(c1) ** 2
    if abs(norm_sq - 1.0) > 1e-12:
        raise DomainError(f"logical amplitudes must be normalized, got |c|^2 = {norm_sq}")
    n = grid.n
    amps = np.zeros((2, n, n), dtype=complex)
    amps[0, :, grid.zero_u_index] = c0 / math.sqrt(n)
    amps[1, :, grid.zero_u_index] = c1 / math.sqrt(n)
    return DiscretizedState(grid, 1, amps.reshape(-1))


def tensor_product(states: list[DiscretizedState]) -> DiscretizedState:
    if not states:
        raise DomainError("tensor product needs at least one state")
    grid = states[0].grid
    amps = states[0].amplitudes
    total_modes = states[0].n_modes
    for state in states[1:]:
        if state.grid != grid:
            raise DomainError("all factors must share one grid")
        amps = np.kron(amps, state.amplitudes)
        total_modes += state.n_modes
    return DiscretizedState(grid, total_modes, amps)


def _axis_shape(n_modes: int, mode: int, dim: int) -> tuple[int, ...]:
    shape = [1] * n_modes
    shape[mode] = dim
    return tuple(shape)


def apply_subsystem_phase(
    state: DiscretizedState, kind: SubsystemKind, mode: int, coefficient: float
) -> DiscretizedState:
    """Apply exp(i * coefficient * op) for one diagonal subsystem operator."""
    state._require_mode(mode)
    values = state.grid.basis_values(kind)
    phase = np.exp(1j * coefficient * values).reshape(
        _axis_shape(state.n_modes, mode, state.grid.dim)
    )
    return DiscretizedState(state.grid, state.n_modes, (state._tensor() * phase).reshape(-1))


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
    # the one state built without __post_init__: its shape holds by
    # construction and its amplitudes were proven or scanned finite above
    state = object.__new__(DiscretizedState)
    state.grid, state.n_modes, state.amplitudes = grid, n_modes, amplitudes
    return state


def apply_couplings(state: DiscretizedState, couplings: list[Coupling]) -> DiscretizedState:
    """Apply a product of diagonal two-mode couplings in one pass per mode pair.

    The couplings commute, so the exponents of all entries on one unordered
    mode pair are summed into a single dim x dim table, exponentiated once,
    and multiplied into a copy of the state tensor.
    """
    exponents = _pair_exponents(state.n_modes, state.grid.dim, couplings)
    factors = [(tuple(range(state.n_modes)), state._tensor())]
    factors += [(pair, np.exp(1j * exponent)) for pair, exponent in exponents.items()]
    return _multiply_factors(state.grid, state.n_modes, factors)


def coupled_product(
    grid: GridSpec, vectors: list[np.ndarray], couplings: list[Coupling]
) -> DiscretizedState:
    """The product state of per-mode vectors with the couplings applied.

    Equals ``apply_couplings(tensor_product(...), couplings)`` without
    building the product state: each mode's vector is folded into the first
    pair table that touches it, and a mode with no coupling is its own
    factor, so the full tensor is written once and then updated in place.
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


def apply_subsystem_coupling(
    state: DiscretizedState,
    op_a: Subsystem,
    op_b: Subsystem,
    coefficient: float,
) -> DiscretizedState:
    """Apply exp(i * coefficient * a (x) b) for two diagonal subsystem operators."""
    (mode_a, kind_a), (mode_b, kind_b) = op_a, op_b
    values = state.grid.basis_values
    return apply_couplings(state, [(mode_a, values(kind_a), mode_b, values(kind_b), coefficient)])


def apply_cz(
    state: DiscretizedState, mode_i: int, mode_j: int, g: float
) -> DiscretizedState:
    """Apply the position-position gate exp(i g q_i q_j) as diagonal phases."""
    pos = state.grid.position_values()
    return apply_couplings(state, [(mode_i, pos, mode_j, pos, g)])


def project_p0(state: DiscretizedState, mode: int) -> tuple[DiscretizedState, float]:
    """Contract one mode with the uniform (zero-momentum) bra.

    Returns the unnormalized state on the remaining modes together with its
    norm, the outcome weight; callers normalize when they need a state.
    """
    state._require_mode(mode)
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
        state._require_mode(mode)
        axes.append(3 * mode + _KIND_AXIS[kind])
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


def _sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(a, b) -> float:
    """State fidelity; 1 iff equal up to global phase in the pure case.

    Accepts amplitude vectors (or :class:`DiscretizedState`) and density
    matrices in any combination; pure inputs are normalized first.
    """
    x, y = _as_vector_or_density(a), _as_vector_or_density(b)
    if x.ndim == 2 and y.ndim == 1:
        x, y = y, x
    if x.ndim == 1:
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
    if x.shape != y.shape:
        raise DomainError("fidelity arguments must have matching dimensions")
    x = x / np.trace(x).real
    y = y / np.trace(y).real
    sq = _sqrtm_psd(x)
    eigenvalues = np.linalg.eigvalsh(sq @ y @ sq)
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    return float(np.sqrt(eigenvalues).sum() ** 2)


def connected_correlator(
    state: DiscretizedState, sub_a: Subsystem, sub_b: Subsystem
) -> float:
    """Connected two-point function <AB> - <A><B> of two diagonal operators."""
    return connected_correlators(state, [(sub_a, sub_b)])[0]


def connected_correlators(state: DiscretizedState, pairs) -> list[float]:
    """:func:`connected_correlator` of each subsystem pair, in order.

    ``|psi|**2`` and each subsystem's mean are computed once for all pairs.
    """
    pairs = list(pairs)
    for sub_a, sub_b in pairs:
        state._require_mode(sub_a[0])
        state._require_mode(sub_b[0])
    dim = state.grid.dim
    probs = np.abs(state._tensor()) ** 2
    total = probs.sum()
    if total == 0.0:
        raise DomainError("state has zero norm")
    values, means = {}, {}
    for mode, kind in dict.fromkeys(sub for pair in pairs for sub in pair):
        value = state.grid.basis_values(kind).reshape(_axis_shape(state.n_modes, mode, dim))
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
    state._require_mode(mode_a)
    state._require_mode(mode_b)
    if (mode_a, kind_a) == (mode_b, kind_b):
        raise DomainError("coupling strength needs two distinct subsystems")
    n = state.grid.n
    tensor = state.amplitudes.reshape((2, n, n) * state.n_modes)
    axis_a = 3 * mode_a + _KIND_AXIS[kind_a]
    axis_b = 3 * mode_b + _KIND_AXIS[kind_b]

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


def qubit_cluster_state(adjacency: np.ndarray) -> np.ndarray:
    """Reference qubit cluster state: CZ edges applied to |+...+>, mode-major."""
    adjacency = np.asarray(adjacency, dtype=float)
    n = adjacency.shape[0]
    amps = np.full(2**n, 1.0 / math.sqrt(2**n), dtype=complex)
    for index in range(2**n):
        bits = [(index >> (n - 1 - i)) & 1 for i in range(n)]
        sign = 1.0
        for i in range(n):
            for j in range(i + 1, n):
                if adjacency[i, j] != 0.0 and bits[i] and bits[j]:
                    sign = -sign
        amps[index] *= sign
    return amps


def save_state(state: DiscretizedState, path: str | Path) -> None:
    """Write a regression snapshot: magic, n, n_modes, then interleaved f64 re/im."""
    payload = np.ascontiguousarray(state.amplitudes, dtype="<c16").tobytes()
    header = _MAGIC + struct.pack("<II", state.grid.n, state.n_modes)
    Path(path).write_bytes(header + payload)


def load_state(path: str | Path, alpha: float) -> DiscretizedState:
    """Read a snapshot written by :func:`save_state`; alpha is not stored."""
    raw = Path(path).read_bytes()
    if raw[: len(_MAGIC)] != _MAGIC:
        raise DomainError(f"{path}: not a state snapshot (bad magic)")
    header = len(_MAGIC) + 8
    if len(raw) < header:
        raise DomainError(f"{path}: truncated snapshot header")
    n, n_modes = struct.unpack_from("<II", raw, len(_MAGIC))
    count, odd_bytes = divmod(len(raw) - header, 16)
    # dim = 2*n*n >= 2, so dim**n_modes can only equal count if n_modes fits in its bits
    if n < 1 or odd_bytes or n_modes > count.bit_length() or (2 * n * n) ** n_modes != count:
        raise DomainError(
            f"{path}: payload of {len(raw) - header} bytes does not match "
            f"grid n={n} with {n_modes} modes"
        )
    amps = np.frombuffer(raw[header:], dtype="<c16").astype(complex)
    return DiscretizedState(GridSpec(n=n, alpha=alpha), n_modes, amps)
