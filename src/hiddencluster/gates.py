"""Symbolic decomposition of CV controlled-Z gates into subsystem couplings.

A position-position gate ``exp(i g q_1 q_2)`` splits, through the modular
decomposition of each position operator, into nine commuting exponentials
``exp(i c * a_1 (x) b_2)`` where ``a`` and ``b`` range over the operators
ell, m, u of each mode.  Couplings between two integer-spectrum operators
whose coefficient is a multiple of 2*pi contribute no phase at all and are
pruned.  At the tuned weight ``g = pi / alpha**2`` exactly six couplings
survive.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ._record import Record, set_field
from .errors import DomainError
from .modular import Subsystem, SubsystemKind, require_bin_size

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

    def __init__(self, op_a: Subsystem, op_b: Subsystem, coefficient: float) -> None:
        set_field(self, "op_a", op_a)
        set_field(self, "op_b", op_b)
        set_field(self, "coefficient", coefficient)

    @property
    def kinds(self) -> tuple[SubsystemKind, SubsystemKind]:
        return (self.op_a[1], self.op_b[1])

    @property
    def modular_operand_count(self) -> int:
        return sum(k is SubsystemKind.GAUGE_MODULAR for k in self.kinds)


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
    """The nine (kind on mode 0, kind on mode 1, coefficient) terms of exp(i g q_0 q_1)."""
    ell, m, u = SubsystemKind.LOGICAL, SubsystemKind.GAUGE_BIN, SubsystemKind.GAUGE_MODULAR
    a2 = alpha * alpha
    layout = [
        (ell, ell, g * a2),
        (m, m, 4.0 * g * a2),
        (u, u, g),
        (ell, m, 2.0 * g * a2),
        (m, ell, 2.0 * g * a2),
        (ell, u, g * alpha),
        (u, ell, g * alpha),
        (m, u, 2.0 * g * alpha),
        (u, m, 2.0 * g * alpha),
    ]
    if not all(math.isfinite(c) for _, _, c in layout):
        raise DomainError(
            f"gate weight {g!r} at bin size {alpha!r} overflows a coupling coefficient"
        )
    return layout


def decompose_cz_two_mode(g: float, alpha: float) -> list[CouplingTerm]:
    """Expand exp(i g q_0 q_1) into its surviving subsystem couplings.

    Returns the cross-mode terms of the full nine-term expansion, on modes
    0 and 1 (:func:`decompose_cz_multimode` re-addresses them per edge), with
    factors that are identically 1 removed.  For ``g = pi/alpha**2`` exactly
    six terms survive: ell-ell (pi), u-u (pi/alpha**2), the two m-u pairs
    (2*pi/alpha each), and the two ell-u pairs (pi/alpha each).
    """
    alpha = require_bin_size(alpha)
    g = float(g)
    if not math.isfinite(g):
        raise DomainError(f"gate weight must be finite, got {g!r}")

    terms = [CouplingTerm((0, ka), (1, kb), c) for ka, kb, c in _coupling_layout(g, alpha)]
    return [t for t in terms if not _phase_is_identity(t)]


class Topology(Record):
    """Mode-level graph: ``n_modes`` modes and the ``(i, j)`` pairs they share.

    ``edges`` lists each pair once with ``i < j``, in row-major order, and
    every end is a mode index below ``n_modes``.  Construction checks this
    in O(E), so a ``Topology`` is valid wherever it is passed.
    """

    n_modes: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n_modes: int, edges: tuple[tuple[int, int], ...]) -> None:
        if n_modes < 0:
            raise DomainError(f"n_modes must be nonnegative, got {n_modes}")
        previous = (-1, -1)
        for i, j in edges:
            if i == j:
                raise DomainError(f"self-loop at mode {i}")
            if not 0 <= i < j < n_modes:
                raise DomainError(
                    f"edge ({i}, {j}) must have ends 0 <= i < j < n_modes={n_modes}"
                )
            if (i, j) <= previous:
                raise DomainError(
                    f"edge ({i}, {j}) repeats or breaks the row-major order after {previous}"
                )
            previous = (i, j)
        set_field(self, "n_modes", n_modes)
        set_field(self, "edges", edges)


def chain_topology(n_modes: int) -> Topology:
    """A linear chain on ``n_modes`` modes."""
    if n_modes < 1:
        raise DomainError("a chain needs at least one mode")
    return Topology(n_modes, tuple((i, i + 1) for i in range(n_modes - 1)))


def grid_topology(rows: int, cols: int) -> Topology:
    """A rows-by-cols rectangular grid, row-major modes."""
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

    def __init__(
        self,
        logical_terms: tuple[CouplingTerm, ...],
        gauge_terms: tuple[CouplingTerm, ...],
        interaction_terms: tuple[CouplingTerm, ...],
    ) -> None:
        set_field(self, "logical_terms", logical_terms)
        set_field(self, "gauge_terms", gauge_terms)
        set_field(self, "interaction_terms", interaction_terms)

    @property
    def all_terms(self) -> tuple[CouplingTerm, ...]:
        return self.logical_terms + self.gauge_terms + self.interaction_terms


def decompose_cz_multimode(
    adjacency: Topology | np.ndarray, alpha: float
) -> MultimodeDecomposition:
    """Decompose the tuned gate with weight matrix (pi/alpha**2) * adjacency.

    ``adjacency`` is a :class:`Topology` or a binary matrix (see
    :func:`as_topology`); general weights are only supported pairwise
    through :func:`decompose_cz_two_mode`.  Every edge carries the same six
    couplings, so they are derived and sorted into families once, then
    stamped onto each edge in row-major order.  ell-m and m-m couplings are
    always pruned at the tuned weight.
    """
    alpha = require_bin_size(alpha)
    edges = as_topology(adjacency).edges

    logical: list[CouplingTerm] = []
    gauge: list[CouplingTerm] = []
    interaction: list[CouplingTerm] = []
    for term in decompose_cz_two_mode(math.pi / (alpha * alpha), alpha):
        kinds = set(term.kinds)
        if kinds == {SubsystemKind.LOGICAL}:
            logical.append(term)
        elif SubsystemKind.LOGICAL not in kinds:
            gauge.append(term)
        elif kinds == {SubsystemKind.LOGICAL, SubsystemKind.GAUGE_MODULAR}:
            interaction.append(term)
        else:
            # ell-m survives only for detuned weights, which the
            # binary precondition rules out.
            raise AssertionError(f"unexpected surviving term {term}")

    def stamp(template: list[CouplingTerm]) -> tuple[CouplingTerm, ...]:
        kinds = [(t.kinds, t.coefficient) for t in template]
        return tuple(
            CouplingTerm((i, kind_a), (j, kind_b), c)
            for i, j in edges
            for (kind_a, kind_b), c in kinds
        )

    return MultimodeDecomposition(stamp(logical), stamp(gauge), stamp(interaction))
