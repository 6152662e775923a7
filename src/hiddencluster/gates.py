"""Symbolic decomposition of CV controlled-Z gates into subsystem couplings.

A position-position gate ``exp(i g q_0 q_1)`` splits, through the modular
decomposition q = alpha*ell + 2*alpha*m + u of each position, into the nine
commuting exponentials of :data:`COUPLINGS`.  A coupling of two integer-spectrum
operators whose coefficient is a multiple of 2*pi is the identity and is pruned.
At the tuned weight ``g = pi / alpha**2`` a coupling with p modular operands is
an exact integer number of units of pi/alpha**p: six, :data:`TUNED_COUPLINGS`, survive.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ._record import Record, set_field
from .errors import DomainError
from .modular import Subsystem, SubsystemKind, require_bin_size, require_real

if TYPE_CHECKING:
    import numpy as np

_TWO_PI = 2.0 * math.pi

#: Relative tolerance of the 2*pi-multiple test; coefficients arise as exact
#: rational multiples of pi, so anything looser would mask real detuning.
COEFFICIENT_TOLERANCE = 1e-9


class CouplingTerm(Record):
    """One factor exp(i * coefficient * op_a (x) op_b) of a decomposed gate.

    Each operand is a ``(mode, kind)`` :data:`Subsystem` address.  All such
    factors commute, so the order of a term list never matters.
    """

    op_a: Subsystem
    op_b: Subsystem
    coefficient: float

    @property
    def kinds(self) -> tuple[SubsystemKind, SubsystemKind]:
        return (self.op_a[1], self.op_b[1])


#: The nine couplings of exp(i g q_0 q_1) as (kind on mode 0, kind on mode 1,
#: factor): the coefficient is factor * g * alpha**(2 - p).
COUPLINGS = (
    (SubsystemKind.LOGICAL, SubsystemKind.LOGICAL, 1),
    (SubsystemKind.GAUGE_BIN, SubsystemKind.GAUGE_BIN, 4),
    (SubsystemKind.GAUGE_MODULAR, SubsystemKind.GAUGE_MODULAR, 1),
    (SubsystemKind.LOGICAL, SubsystemKind.GAUGE_BIN, 2),
    (SubsystemKind.GAUGE_BIN, SubsystemKind.LOGICAL, 2),
    (SubsystemKind.LOGICAL, SubsystemKind.GAUGE_MODULAR, 1),
    (SubsystemKind.GAUGE_MODULAR, SubsystemKind.LOGICAL, 1),
    (SubsystemKind.GAUGE_BIN, SubsystemKind.GAUGE_MODULAR, 2),
    (SubsystemKind.GAUGE_MODULAR, SubsystemKind.GAUGE_BIN, 2),
)

#: The couplings of the tuned gate, in table order: the p = 0 ones with an even
#: factor are multiples of 2*pi, and a survivor's factor is its edge multiplicity.
TUNED_COUPLINGS = tuple(
    (kind_a, kind_b, factor)
    for kind_a, kind_b, factor in COUPLINGS
    if not (kind_a.integer_spectrum and kind_b.integer_spectrum and factor % 2 == 0)
)


def _phase_is_identity(term: CouplingTerm) -> bool:
    """True iff the term's phase is 1 on every joint eigenstate: its coefficient
    is 0, or both operands have integer spectrum (a modular operand's is
    continuous) and the coefficient is an integer multiple of 2*pi within
    the relative ``COEFFICIENT_TOLERANCE``.
    """
    if term.coefficient == 0.0:
        return True
    kind_a, kind_b = term.kinds
    if not (kind_a.integer_spectrum and kind_b.integer_spectrum):
        return False
    turns = term.coefficient / _TWO_PI
    return abs(turns - round(turns)) <= COEFFICIENT_TOLERANCE * max(1.0, abs(turns))


def _coupling_layout(g: float, alpha: float) -> list[tuple[SubsystemKind, SubsystemKind, float]]:
    """The nine (kind on mode 0, kind on mode 1, coefficient) terms of exp(i g q_0 q_1).

    A coefficient is ``(factor * g) * alpha**(2 - p)``; where ``factor * g`` alone
    overflows it is ``factor * (g * alpha**(2 - p))``, finite whenever its value fits.
    """
    powers = (1.0, alpha, alpha * alpha)  # alpha**(2 - p), indexed by 2 - p
    layout = []
    for kind_a, kind_b, factor in COUPLINGS:
        power = powers[kind_a.integer_spectrum + kind_b.integer_spectrum]
        scaled = factor * g
        c = scaled * power if math.isfinite(scaled) else factor * (g * power)
        layout.append((kind_a, kind_b, c))
    if not all(math.isfinite(c) for _, _, c in layout):
        raise DomainError(
            f"gate weight {g!r} at bin size {alpha!r} overflows a coupling coefficient"
        )
    return layout


def decompose_cz_two_mode(g: float, alpha: float) -> list[CouplingTerm]:
    """Expand exp(i g q_0 q_1) into its surviving subsystem couplings.

    Returns the terms of :data:`COUPLINGS` on modes 0 and 1, with float
    coefficients, less the factors that are identically 1; for
    ``g = pi/alpha**2`` these are the :data:`TUNED_COUPLINGS`.
    """
    alpha = require_bin_size(alpha)
    if type(g) is not float:
        g = require_real(g, "gate weight")
    if not math.isfinite(g):
        raise DomainError(f"gate weight must be finite, got {g!r}")

    terms = [CouplingTerm((0, ka), (1, kb), c) for ka, kb, c in _coupling_layout(g, alpha)]
    return [t for t in terms if not _phase_is_identity(t)]


def _edge_fault(edge: object, n_modes: int, previous: tuple[int, int]) -> str:
    """Why :class:`Topology` refuses ``edge``, which follows the edge ``previous``."""
    try:
        i, j = edge
    except (TypeError, ValueError):
        return f"edge {edge!r} must be an (i, j) pair"
    if type(edge) is not tuple:
        return f"edge {edge!r} must be a tuple, got {type(edge).__name__}"
    if type(i) is not int or type(j) is not int:
        return f"edge ({i!r}, {j!r}) must have int ends"
    if i == j:
        return f"self-loop at mode {i}"
    if not 0 <= i < j < n_modes:
        return f"edge ({i}, {j}) must have ends 0 <= i < j < n_modes={n_modes}"
    return f"edge ({i}, {j}) repeats or breaks the row-major order after {previous}"


class Topology(Record):
    """Mode-level graph: ``n_modes`` modes and the ``(i, j)`` pairs they share.

    ``edges``, any iterable of ``(i, j)`` tuples kept as a tuple, lists each
    pair once with ``i < j``, in row-major order, and every end is a mode index
    below ``n_modes``; ``n_modes`` and the ends are ints, not bools or floats.
    Construction checks this in O(E), so a ``Topology`` is valid wherever it is passed.
    """

    n_modes: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n_modes: int, edges: tuple[tuple[int, int], ...]) -> None:
        if type(n_modes) is not int:
            raise DomainError(f"n_modes must be an int, got {n_modes!r}")
        if n_modes < 0:
            raise DomainError(f"n_modes must be nonnegative, got {n_modes}")
        try:
            edges = tuple(edges)
        except TypeError:
            raise DomainError(f"edges must be an iterable of pairs, got {edges!r}") from None
        last_i = last_j = -1
        for edge in edges:
            # one test per valid edge; _edge_fault names the rule a refused one breaks
            try:
                i, j = edge
            except (TypeError, ValueError):
                i = j = None
            if not (
                type(edge) is tuple
                and type(i) is int
                and type(j) is int
                and 0 <= i < j < n_modes
                and (i > last_i or i == last_i and j > last_j)
            ):
                raise DomainError(_edge_fault(edge, n_modes, (last_i, last_j)))
            last_i, last_j = i, j
        set_field(self, "n_modes", n_modes)
        set_field(self, "edges", edges)


def chain_topology(n_modes: int) -> Topology:
    """A linear chain on ``n_modes`` modes, an int of at least 1."""
    if type(n_modes) is not int:
        raise DomainError(f"chain length must be an int, got {n_modes!r}")
    if n_modes < 1:
        raise DomainError("a chain needs at least one mode")
    return Topology(n_modes, tuple((i, i + 1) for i in range(n_modes - 1)))


def grid_topology(rows: int, cols: int) -> Topology:
    """A rows-by-cols rectangular grid, row-major modes; both are positive ints."""
    if type(rows) is not int or type(cols) is not int:
        raise DomainError(f"grid dimensions must be ints, got ({rows!r}, {cols!r})")
    if rows < 1 or cols < 1:
        raise DomainError("grid dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return Topology(rows * cols, tuple(edges))


def as_topology(adjacency: Topology | np.ndarray) -> Topology:
    """A ``Topology`` as given, or the one a dense binary adjacency matrix encodes.

    This is the one place a matrix is checked (square, symmetric, zero
    diagonal, entries 0 or 1) and becomes edges: the ``(i, j)`` pairs with
    ``i < j`` and entry 1, in row-major order, as Python ints so that terms
    built from them stay JSON-serializable.
    """
    if isinstance(adjacency, Topology):
        return adjacency
    import numpy as np

    matrix = np.asarray(adjacency, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DomainError(f"adjacency matrix must be square, got shape {matrix.shape}")
    if not np.array_equal(matrix, matrix.T):
        raise DomainError("adjacency matrix must be symmetric")
    if np.any(np.diagonal(matrix) != 0.0):
        raise DomainError("adjacency matrix must have zero diagonal")
    if not np.all((matrix == 0.0) | (matrix == 1.0)):
        raise DomainError("adjacency entries must be 0 or 1")
    rows, cols = np.nonzero(matrix)
    upper = rows < cols
    return Topology(matrix.shape[0], tuple(zip(rows[upper].tolist(), cols[upper].tolist())))


class MultimodeDecomposition(Record):
    """Surviving couplings of a tuned multimode controlled-Z, by family.

    ``logical_terms`` holds the ell-ell couplings (one per edge, pi each),
    ``gauge_terms`` the m-u and u-u couplings, and ``interaction_terms`` the
    ell-u couplings that entangle logical qubits with gauge modes.
    """

    logical_terms: tuple[CouplingTerm, ...]
    gauge_terms: tuple[CouplingTerm, ...]
    interaction_terms: tuple[CouplingTerm, ...]

    @property
    def all_terms(self) -> tuple[CouplingTerm, ...]:
        return self.logical_terms + self.gauge_terms + self.interaction_terms


def decompose_cz_multimode(
    adjacency: Topology | np.ndarray, alpha: float
) -> MultimodeDecomposition:
    """Decompose the tuned gate with weight matrix (pi/alpha**2) * adjacency.

    ``adjacency`` is a :class:`Topology` or a binary matrix (see
    :func:`as_topology`); general weights are only supported pairwise
    through :func:`decompose_cz_two_mode`.  Every edge carries the six
    :data:`TUNED_COUPLINGS`, with their coefficients from :func:`_coupling_layout`
    at g = pi/alpha**2, stamped onto each edge in row-major order and sorted into
    families by their number of logical ends: logical 2, gauge 0 and interaction 1.
    """
    alpha = require_bin_size(alpha)
    edges = as_topology(adjacency).edges
    layout = _coupling_layout(math.pi / (alpha * alpha), alpha)
    tuned = [row for row, coupling in zip(layout, COUPLINGS) if coupling in TUNED_COUPLINGS]

    def stamp(logical_ends: int) -> tuple[CouplingTerm, ...]:
        template = [row for row in tuned if row[:2].count(SubsystemKind.LOGICAL) == logical_ends]
        return tuple(CouplingTerm((i, ka), (j, kb), c) for i, j in edges for ka, kb, c in template)

    return MultimodeDecomposition(stamp(2), stamp(0), stamp(1))
