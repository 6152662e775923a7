"""Frozen-dataclass copies of the package's records, as the records were
declared before they became plain ``Record`` classes: the same field names,
order, defaults and construction checks.  ``test_records`` compares each
record's behaviour against its copy here; the package never imports this.
``DiscretizedState`` was a mutable dataclass; its copy is frozen, as the
record now is.  ``ModeSpec``, ``ModeRecord``, ``SubsystemEdge`` and
``SubsystemGraph`` had fewer checks or none, and ``Topology`` and ``GridSpec``
took a float or bool where an int belongs (and ``Topology`` a list where an
edge tuple belongs); their copies carry the checks the
records have now, written out edge by edge, so each pair refuses the same
arguments with the same messages.  ``WireRun``'s copy has the record's
``record`` property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hiddencluster import graphs
from hiddencluster.errors import DomainError
from hiddencluster.modular import require_bin_size


@dataclass(frozen=True)
class CouplingTerm:
    op_a: object
    op_b: object
    coefficient: float


@dataclass(frozen=True)
class Topology:
    n_modes: int
    edges: tuple

    def __post_init__(self) -> None:
        if type(self.n_modes) is not int:
            raise DomainError(f"n_modes must be an int, got {self.n_modes!r}")
        if self.n_modes < 0:
            raise DomainError(f"n_modes must be nonnegative, got {self.n_modes}")
        previous = (-1, -1)
        for edge in self.edges:
            i, j = edge
            if type(edge) is not tuple:
                raise DomainError(f"edge {edge!r} must be a tuple, got {type(edge).__name__}")
            if type(i) is not int or type(j) is not int:
                raise DomainError(f"edge ({i!r}, {j!r}) must have int ends")
            if i == j:
                raise DomainError(f"self-loop at mode {i}")
            if not 0 <= i < j < self.n_modes:
                raise DomainError(
                    f"edge ({i}, {j}) must have ends 0 <= i < j < n_modes={self.n_modes}"
                )
            if (i, j) <= previous:
                raise DomainError(
                    f"edge ({i}, {j}) repeats or breaks the row-major order after {previous}"
                )
            previous = (i, j)


@dataclass(frozen=True)
class MultimodeDecomposition:
    logical_terms: tuple
    gauge_terms: tuple
    interaction_terms: tuple


@dataclass(frozen=True)
class Node:
    id: int
    mode: int
    kind: object
    state: object


def _check_mode(mode) -> None:
    """The construction checks of ``ModeSpec`` and ``ModeRecord``."""
    if mode.label is not None and not isinstance(mode.label, str):
        raise DomainError(f"mode label must be a string or None, got {mode.label!r}")
    if mode.cv_type.value == "gkp_labeled":
        if mode.amplitudes is None:
            raise DomainError("a gkp_labeled mode needs logical amplitudes")
        pair = tuple(mode.amplitudes) if isinstance(mode.amplitudes, (tuple, list)) else ()
        if len(pair) != 2 or not all(isinstance(c, (int, float, complex)) for c in pair):
            raise DomainError(
                f"logical amplitudes must be a pair of numbers, got {mode.amplitudes!r}"
            )
        c0, c1 = (complex(c) for c in pair)
        if not all(math.isfinite(x) for x in (c0.real, c0.imag, c1.real, c1.imag)):
            raise DomainError(f"logical amplitudes must be finite, got ({c0}, {c1})")
        try:
            total = abs(c0) ** 2 + abs(c1) ** 2
        except OverflowError:
            total = math.inf
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"logical amplitudes must be normalized, got |c|^2 = {total}")
        object.__setattr__(mode, "amplitudes", (c0, c1))
    elif mode.amplitudes is not None:
        raise DomainError(f"a {mode.cv_type.value} mode cannot carry amplitudes")


@dataclass(frozen=True)
class ModeRecord:
    index: int
    cv_type: object
    label: str | None = None
    amplitudes: tuple | None = None

    def __post_init__(self) -> None:
        if type(self.index) is not int:
            raise DomainError(f"mode index must be an int, got {self.index!r}")
        if self.index < 0:
            raise DomainError(f"mode index must be nonnegative, got {self.index}")
        _check_mode(self)


@dataclass(frozen=True)
class ModeSpec:
    cv_type: object
    label: str | None = None
    amplitudes: tuple | None = None

    def __post_init__(self) -> None:
        _check_mode(self)


@dataclass(frozen=True)
class SubsystemEdge:
    a: int
    b: int
    multiplicity: int

    def __post_init__(self) -> None:
        if type(self.a) is not int or type(self.b) is not int:
            raise DomainError(f"edge ends must be ints, got ({self.a!r}, {self.b!r})")
        low, high = min(self.a, self.b), max(self.a, self.b)
        object.__setattr__(self, "a", low)
        object.__setattr__(self, "b", high)
        if low // 3 == high // 3:
            raise DomainError(f"edge ({low}, {high}) joins two nodes of the same mode")
        if type(self.multiplicity) is not int or self.multiplicity not in (1, 2):
            raise DomainError(
                f"edge ({low}, {high}) has multiplicity {self.multiplicity!r}, not 1 or 2"
            )


@dataclass(frozen=True)
class SubsystemGraph:
    alpha: float
    modes: tuple
    edges: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", require_bin_size(self.alpha))
        for what, members, member_type in (
            ("modes", self.modes, graphs.ModeRecord),
            ("edges", self.edges, graphs.SubsystemEdge),
        ):
            name = member_type.__name__
            try:
                iter(members)
            except TypeError:
                raise DomainError(
                    f"graph {what} must be an iterable of {name} records, got {members!r}"
                ) from None
            for member in members:
                if not isinstance(member, member_type):
                    raise DomainError(f"graph {what} must be {name} records, got {member!r}")
        modes = {}
        for mode in self.modes:
            if mode.index in modes:
                raise DomainError("duplicate mode indices")
            modes[mode.index] = mode
        seen = set()
        for edge in self.edges:
            if (edge.a, edge.b) in seen:
                raise DomainError(f"duplicate edge ({edge.a}, {edge.b})")
            seen.add((edge.a, edge.b))
        ends = sorted({end for edge in self.edges for end in (edge.a, edge.b)})
        for end in ends:
            if end // 3 not in modes:
                raise DomainError(
                    f"an edge references unknown node {end}: the graph has no mode {end // 3}"
                )
        for end in ends:
            if end % 3 == 2 and modes[end // 3].cv_type.value != "momentum":
                raise DomainError(f"an edge is incident to pinned modular-position node {end}")


@dataclass(frozen=True)
class LogicalFrame:
    hadamard_count: int = 0
    current_label: tuple = (1.0 + 0.0j, 0.0 + 0.0j)


@dataclass(frozen=True)
class MeasurementRecord:
    measured_mode: int
    outcome: int
    converted_node: int
    frame: object


@dataclass(frozen=True)
class WireRun:
    graph: object
    frame: object
    records: tuple

    @property
    def record(self):
        return self.records[-1]


@dataclass(frozen=True)
class GridSpec:
    n: int
    alpha: float

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n < 1:
            raise DomainError(f"grid size must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "alpha", require_bin_size(self.alpha))


@dataclass(frozen=True)
class DiscretizedState:
    grid: object
    n_modes: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if type(self.n_modes) is not int or self.n_modes < 0:
            raise DomainError(f"mode count must be a nonnegative integer, got {self.n_modes!r}")
        object.__setattr__(self, "amplitudes", np.asarray(self.amplitudes, dtype=complex))
        expected = self.grid.dim**self.n_modes
        if self.amplitudes.shape != (expected,):
            raise DomainError(
                f"amplitude vector has length {self.amplitudes.shape}, expected ({expected},)"
            )
