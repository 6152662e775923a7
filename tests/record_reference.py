"""Frozen-dataclass copies of the package's records, as the records were
declared before they became plain ``Record`` classes: the same field names,
order, defaults and construction checks.  ``test_records`` compares each
record's behaviour against its copy here; the package never imports this.
``DiscretizedState`` was a mutable dataclass; its copy is frozen, as the
record now is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hiddencluster.errors import DomainError
from hiddencluster.modular import require_bin_size


@dataclass(frozen=True)
class SubsystemOperator:
    kind: object
    mode: int


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
        if self.n_modes < 0:
            raise DomainError(f"n_modes must be nonnegative, got {self.n_modes}")
        previous = (-1, -1)
        for i, j in self.edges:
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


@dataclass(frozen=True)
class ModeRecord:
    index: int
    cv_type: object
    label: str | None = None
    amplitudes: tuple | None = None


@dataclass(frozen=True)
class ModeSpec:
    cv_type: object
    label: str | None = None
    amplitudes: tuple | None = None


@dataclass(frozen=True)
class SubsystemEdge:
    a: int
    b: int
    multiplicity: int

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise DomainError("self-loops are not allowed")
        if self.a > self.b:
            low, high = self.b, self.a
            object.__setattr__(self, "a", low)
            object.__setattr__(self, "b", high)
        if self.multiplicity < 1:
            raise DomainError("edge multiplicity must be positive")


@dataclass(frozen=True)
class SubsystemGraph:
    alpha: float
    modes: tuple
    edges: tuple


@dataclass(frozen=True)
class LogicalFrame:
    hadamard_count: int = 0
    current_label: tuple = (1.0 + 0.0j, 0.0 + 0.0j)


@dataclass(frozen=True)
class MeasurementRecord:
    measured_mode: int
    outcome: float
    removed_nodes: tuple
    converted_node: int


@dataclass(frozen=True)
class MeasurementResult:
    graph: object
    frame: object
    record: object


@dataclass(frozen=True)
class WireRun:
    graph: object
    frame: object
    records: tuple
    frames: tuple = ()


@dataclass(frozen=True)
class GridSpec:
    n: int
    alpha: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"grid size must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "alpha", require_bin_size(self.alpha))


@dataclass(frozen=True)
class DiscretizedState:
    grid: object
    n_modes: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.n_modes < 0:
            raise DomainError("mode count must be nonnegative")
        object.__setattr__(self, "amplitudes", np.asarray(self.amplitudes, dtype=complex))
        expected = self.grid.dim**self.n_modes
        if self.amplitudes.shape != (expected,):
            raise DomainError(
                f"amplitude vector has length {self.amplitudes.shape}, expected ({expected},)"
            )
