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

States are dense complex vectors ordered mode-major, then by the (ell,
m-index, u-index) axes of ``GridSpec.shape`` within a mode, the order of
``SubsystemKind.offset``.  Operations never mutate their inputs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ._record import Record, set_field
from .errors import DomainError
from .modular import Subsystem, SubsystemKind, require_bin_size


class GridSpec(Record):
    """Finite discretization of one mode: n bin values and n modular values."""

    n: int
    alpha: float

    def __init__(self, n: int, alpha: float) -> None:
        if type(n) is not int or n < 1:
            raise DomainError(f"grid size must be a positive integer, got {n!r}")
        set_field(self, "n", n)
        set_field(self, "alpha", require_bin_size(alpha))

    @property
    def shape(self) -> tuple[int, int, int]:
        """One mode's (ell, m, u) axes, in the order of ``SubsystemKind.offset``."""
        return (2, self.n, self.n)

    @property
    def dim(self) -> int:
        return math.prod(self.shape)

    @property
    def zero_u_index(self) -> int:
        return self.n // 2

    def axis_values(self, kind: SubsystemKind) -> np.ndarray:
        """Eigenvalue of one subsystem operator along its own axis of ``shape``."""
        if kind is SubsystemKind.LOGICAL:
            return np.array([0.0, 1.0])
        bins = np.arange(-(self.n // 2), self.n - self.n // 2)
        if kind is SubsystemKind.GAUGE_BIN:
            return bins.astype(float)
        return self.alpha * bins / self.n

    def basis_values(self, kind: SubsystemKind) -> np.ndarray:
        """Eigenvalue of one subsystem operator at each of the dim basis points."""
        values = _spread(self.axis_values(kind), (kind.offset,), range(len(self.shape)))
        return np.broadcast_to(values, self.shape).flatten()

    def position_values(self) -> np.ndarray:
        """Physical position alpha*ell + 2*alpha*m + u at each basis point."""
        return (
            self.alpha * self.basis_values(SubsystemKind.LOGICAL)
            + 2.0 * self.alpha * self.basis_values(SubsystemKind.GAUGE_BIN)
            + self.basis_values(SubsystemKind.GAUGE_MODULAR)
        )


def _require_mode(mode: int, n_modes: int) -> None:
    if type(mode) is not int:
        raise DomainError(f"mode must be an int, got {mode!r}")
    if not 0 <= mode < n_modes:
        raise DomainError(f"mode {mode} out of range for {n_modes} modes")


def _require_finite(amplitudes: np.ndarray) -> None:
    if not np.all(np.isfinite(amplitudes)):
        raise DomainError("amplitudes must be finite")


#: Smallest norm, trace or total used as computed: below it a norm's squares
#: near the float minimum lose precision, and dividing by it can overflow.
_TINY_SIZE = 2.0**-500


def _peak(array: np.ndarray) -> float:
    """Largest magnitude of any real or imaginary part of ``array``."""
    return max(np.abs(array.real).max(initial=0.0), np.abs(array.imag).max(initial=0.0))


def _rescaling(sized, array: np.ndarray):
    """``sized(array)``, a ``(value, size)`` pair whose size is a norm, trace or total.

    When the size overflows or falls below :data:`_TINY_SIZE` in magnitude,
    ``sized`` runs again on ``array`` divided by its largest real or
    imaginary part; the size is then 0 only for a zero array.  Any other
    array takes one pass, bit-identical to ``sized(array)``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        value, size = sized(array)
    if not _TINY_SIZE <= abs(size) < math.inf:
        peak = _peak(array)
        if peak > 0.0:
            # part by part: a complex quotient overflows by a subnormal divisor
            value, size = sized(array.real / peak + 1j * (array.imag / peak))
    return value, size


def _with_norm(vector: np.ndarray) -> tuple[np.ndarray, float]:
    # numpy's own pairwise sum: a BLAS norm rounds by its thread count
    return vector, np.sqrt(np.sum(vector.real**2 + vector.imag**2))


class DiscretizedState(Record):
    """Dense amplitude vector over the grid of ``n_modes`` modes."""

    grid: GridSpec
    n_modes: int
    amplitudes: np.ndarray

    def __init__(self, grid: GridSpec, n_modes: int, amplitudes: np.ndarray) -> None:
        if type(n_modes) is not int or n_modes < 0:
            raise DomainError(f"mode count must be a nonnegative integer, got {n_modes!r}")
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

    # The amplitudes compare as one array, never elementwise inside the field
    # tuple; an array is unhashable, so defining __eq__ leaves no __hash__.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.grid, self.n_modes) == (other.grid, other.n_modes) and np.array_equal(
            self.amplitudes, other.amplitudes
        )

    def norm(self) -> float:
        """The 2-norm, taken on the amplitudes over their peak part when it
        overflows or falls below :data:`_TINY_SIZE`, as :func:`_rescaling` does."""
        scaled, norm = _rescaling(_with_norm, self.amplitudes)
        if scaled is not self.amplitudes:  # the norm of the rescaled amplitudes
            return float(norm) * float(_peak(self.amplitudes))
        return float(norm)

    def normalized(self) -> "DiscretizedState":
        amplitudes, norm = _rescaling(_with_norm, self.amplitudes)
        if norm == 0.0:
            raise DomainError("cannot normalize the zero vector")
        return DiscretizedState(self.grid, self.n_modes, amplitudes / norm)

    def _subsystem_axes(self, subsystems) -> tuple[np.ndarray, list[int]]:
        """The ``grid.shape * n_modes`` view of the amplitudes and each subsystem's axis."""
        axes = []
        for mode, kind in subsystems:
            _require_mode(mode, self.n_modes)
            axes.append(3 * mode + kind.offset)
        return self.amplitudes.reshape(self.grid.shape * self.n_modes), axes


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
    amps = np.zeros(grid.shape, dtype=complex)
    amps[0, :, grid.zero_u_index] = c0 / math.sqrt(grid.n)
    amps[1, :, grid.zero_u_index] = c1 / math.sqrt(grid.n)
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


#: A broadcast factor: (modes, table), where the table has one axis per listed
#: mode, as long as that mode's support, and the modes are listed in
#: increasing order.
Factor = tuple[tuple[int, ...], np.ndarray]


def _spread(table: np.ndarray, modes: tuple[int, ...], axes) -> np.ndarray:
    """View a factor's table with one axis per entry of the sorted ``axes``.

    The table's axes keep their own lengths; every other axis has length 1.
    """
    lengths = iter(table.shape)
    return table.reshape([next(lengths) if mode in modes else 1 for mode in axes])


def _merge_small_factors(n_modes: int, factors: list[Factor]) -> list[Factor]:
    """Multiply factors together while their product stays below full size.

    Each step merges the two factors whose mode union is smallest, the first
    such pair in list order on a tie, as long as that union has fewer than
    ``n_modes`` modes; the merged factor takes the first one's place.  A
    merged table holds at most 1/dim of the full tensor.
    """
    # The tie rule makes the product order a function of the list order
    # alone: with every pair table listed before the one-mode vectors, each
    # vector is multiplied into the first pair table on its mode, lower mode
    # first.  Each factor's mode set is kept beside it, as a bit mask.
    masks = [sum(1 << mode for mode in modes) for modes, _ in factors]
    factors = list(factors)
    while True:
        best, best_size = None, n_modes
        for i, j in itertools.combinations(range(len(factors)), 2):
            size = (masks[i] | masks[j]).bit_count()
            if size < best_size:
                best, best_size = (i, j), size
        if best is None:
            return factors
        i, j = best
        union = masks[i] | masks[j]
        modes = tuple(mode for mode in range(n_modes) if union >> mode & 1)
        (modes_a, table_a), (modes_b, table_b) = factors[i], factors[j]
        table = _spread(table_a, modes_a, modes) * _spread(table_b, modes_b, modes)
        factors[i], masks[i] = (modes, table), union
        del factors[j], masks[j]


def _support(vector: np.ndarray) -> slice:
    """The tightest strided slice that holds every nonzero entry of ``vector``.

    It runs from the first nonzero index to one past the last, with the gcd
    of the gaps between nonzero indices as its step: ``slice(None)`` for a
    vector with no zero, ``slice(n//2, ..., n)`` for a GKP comb, and an empty
    slice for the zero vector.  A single nonzero entry gets two adjacent
    points: numpy multiplies one-element arrays in a scalar loop whose
    complex product can differ in the last bit from its vector loop's, so
    a one-element table could round differently from the full product.
    """
    nonzero = np.flatnonzero(vector)
    if nonzero.size == vector.size:
        return slice(None)
    if nonzero.size == 0:
        return slice(0, 0)
    if nonzero.size == 1:
        start = min(int(nonzero[0]), vector.size - 2)
        return slice(start, start + 2)
    step = int(np.gcd.reduce(np.diff(nonzero)))
    return slice(int(nonzero[0]), int(nonzero[-1]) + 1, step)


#: Bound below which a product of factor tables provably stays finite.
_FINITE_BOUND = 2.0**1000


def _multiply_factors(
    grid: GridSpec, factors: list[Factor], supports: list[slice]
) -> DiscretizedState:
    """Multiply broadcast factors into one fresh tensor with one mode per support.

    Each factor's table holds only its modes' ``supports``.  The factors are
    contracted below full size first (:func:`_merge_small_factors`), and what
    is left is multiplied straight into the view ``tensor[supports]`` of a
    zeroed tensor, the later ones in place: no sub-tensor is built and no
    amplitude outside the support is computed, so those are all ``+0.0``,
    where a product with a zero entry could be ``-0.0``.

    The result is proven finite from the tables' largest moduli, and only
    when that bound fails is the tensor scanned.  Every computed amplitude,
    and every entry of a merged table, is a product of one entry per table,
    while the amplitudes outside the view are never computed.  So an input
    is refused exactly when an amplitude on the support overflows: a partial
    product that overflows only where another mode's vector is zero, and
    would turn into NaN there (inf * 0), is never formed.
    """
    dim, n_modes = grid.dim, len(supports)
    # Each partial product a multiply forms is at most the product of
    # max(1, max|table|) over the factors; the factor 2 per table covers the
    # rounding of every complex multiply.  Below 2**1000 no partial product,
    # nor any term inside a complex multiply, can overflow, so finite tables
    # give a finite tensor; above it the tensor is scanned, and a non-finite
    # product is reported by that scan, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        scales = np.maximum([2.0 * np.abs(table).max(initial=0.0) for _, table in factors], 1.0)
        proven = math.prod(scales.tolist()) < _FINITE_BOUND
        shaped = [
            _spread(table, modes, range(n_modes))
            for modes, table in _merge_small_factors(n_modes, factors)
        ]
        tensor = np.zeros((dim,) * n_modes, dtype=complex)
        view = tensor[tuple(supports)]
        if len(shaped) == 1:
            view[...] = shaped[0]
        else:
            np.multiply(shaped[0], shaped[1], out=view)
            for factor in shaped[2:]:
                np.multiply(view, factor, out=view)
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

    The product state itself is never built.  The factors are each pair's
    phase table, then each mode's vector as a one-mode factor, and
    :func:`_multiply_factors` writes their product once.  Only the support
    of the product, the slice where every vector is nonzero, is computed:
    each mode's support is the tightest strided slice of its vector's
    nonzero entries (:func:`_support`), read from the vectors alone.  Each
    pair's phase table is checked finite at every basis point and sliced to
    its two modes' supports before it is exponentiated; each vector is
    checked finite up front.
    """
    if not vectors:
        raise DomainError("a product state needs at least one mode")
    dim = grid.dim
    vectors = [np.asarray(vector) for vector in vectors]
    if any(vector.shape != (dim,) for vector in vectors):
        raise DomainError(f"mode vectors must have one entry per basis point ({dim})")
    exponents = _pair_exponents(len(vectors), dim, couplings)
    # checked here, not by the product: a non-finite entry may lie beside a
    # zero vector, whose empty support leaves it out of every product
    for vector in vectors:
        _require_finite(vector)
    supports = [_support(vector) for vector in vectors]
    factors = [
        ((mode_a, mode_b), np.exp(1j * exponent[supports[mode_a], supports[mode_b]]))
        for (mode_a, mode_b), exponent in exponents.items()
    ]
    factors += [((mode,), vectors[mode][support]) for mode, support in enumerate(supports)]
    return _multiply_factors(grid, factors, supports)


def project_p0(state: DiscretizedState, mode: int) -> tuple[DiscretizedState, float]:
    """Contract one mode with the uniform (zero-momentum) bra.

    Returns the unnormalized state on the remaining modes together with its
    norm, the outcome weight; callers normalize when they need a state.
    The contraction is one matrix-vector product: the amplitudes as a
    ``(rest, dim)`` matrix with this mode's axis last, times the bra.  A
    middle mode costs one state-sized copy.  Each amplitude is one row's dot
    product, which no BLAS thread count changes, except on the first mode:
    its matrix is a column-major view, summed by columns as ``np.tensordot``
    sums that axis, in an order the thread count sets.
    """
    _require_mode(mode, state.n_modes)
    dim = state.grid.dim
    bra = np.full(dim, 1.0 / math.sqrt(dim))
    tensor = np.swapaxes(state.amplitudes.reshape(dim**mode, dim, -1), 1, 2)
    contracted = tensor.reshape(-1, dim) @ bra
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
    tensor, axes = state._subsystem_axes(subsystems)
    rest = [ax for ax in range(tensor.ndim) if ax not in axes]
    moved = np.transpose(tensor, axes + rest)
    kept = math.prod(moved.shape[: len(axes)])

    def with_trace(flat: np.ndarray) -> tuple[np.ndarray, float]:
        rho = flat @ flat.conj().T
        return rho, float(np.trace(rho).real)

    rho, trace = _rescaling(with_trace, moved.reshape(kept, -1))
    if trace <= 0.0:
        raise DomainError("state has zero norm; no reduced state exists")
    return rho / trace


def purity(rho: np.ndarray) -> float:
    return float(np.trace(rho @ rho).real)


def _normalized_operand(obj) -> np.ndarray:
    """A fidelity argument scaled to unit norm (a vector) or unit trace (a density matrix)."""
    if isinstance(obj, DiscretizedState):
        arr = obj.amplitudes  # finite by construction
    else:
        arr = np.asarray(obj, dtype=complex)
        if arr.ndim not in (1, 2):
            raise DomainError("fidelity arguments must be vectors or density matrices")
        if not np.all(np.isfinite(arr)):
            raise DomainError("fidelity arguments must be finite")
    sized = _with_norm if arr.ndim == 1 else lambda matrix: (matrix, np.trace(matrix).real)
    arr, scale = _rescaling(sized, arr)
    if scale == 0.0:
        raise DomainError("cannot normalize a zero vector or a zero-trace density matrix")
    return arr / scale


def fidelity(a, b) -> float:
    """State fidelity; 1 iff equal up to global phase in the pure case.

    Accepts two amplitude vectors (or :class:`DiscretizedState`), or one
    vector and one density matrix in either order; vectors are normalized
    first, and a density matrix is divided by its trace.  Two density
    matrices are refused, as are a zero vector, a zero-trace density matrix
    and any non-finite entry.
    """
    x, y = _normalized_operand(a), _normalized_operand(b)
    if x.ndim == 2 and y.ndim == 1:
        x, y = y, x
    if x.ndim == 2:
        raise DomainError("fidelity needs at least one pure state, got two density matrices")
    if y.ndim == 1:
        if x.shape != y.shape:
            raise DomainError("fidelity arguments must have matching dimensions")
        return float(abs(np.sum(x.conj() * y)) ** 2)  # no BLAS, as in _with_norm
    if y.shape != (x.size, x.size):
        raise DomainError("fidelity arguments must have matching dimensions")
    return float(np.real(x.conj() @ y @ x))


def connected_correlators(state: DiscretizedState, pairs) -> list[float]:
    """Connected two-point function <AB> - <A><B> of each subsystem pair, in order.

    ``|psi|**2`` and each subsystem's mean are computed once for all pairs.
    """
    pairs = list(pairs)
    subsystems = list(dict.fromkeys(sub for pair in pairs for sub in pair))
    tensor, axes = state._subsystem_axes(subsystems)

    def with_total(tensor: np.ndarray) -> tuple[np.ndarray, float]:
        probs = np.abs(tensor) ** 2
        return probs, probs.sum()

    probs, total = _rescaling(with_total, tensor)
    if total == 0.0:
        raise DomainError("state has zero norm")
    values, means = {}, {}
    for (mode, kind), axis in zip(subsystems, axes):
        values[mode, kind] = _spread(state.grid.axis_values(kind), (axis,), range(tensor.ndim))
        means[mode, kind] = float((probs * values[mode, kind]).sum() / total)
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
    tensor, (axis_a, axis_b) = state._subsystem_axes([sub_a, sub_b])
    if axis_a == axis_b:
        raise DomainError("coupling strength needs two distinct subsystems")

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
