"""Copies of the float route by which ``decompose_cz_multimode`` once derived
the tuned couplings: the nine coefficients written out term by term, pruned
with the 2*pi test and sorted into families at run time.  ``test_gates``
compares the package's integer-table route against it wherever this route
returns; below a bin size of about 2.64e-154 its ``(4.0 * g) * alpha**2``
overflows and it raises.  The package never imports this.
"""

from __future__ import annotations

import math

from hiddencluster.errors import DomainError
from hiddencluster.gates import (
    CouplingTerm,
    MultimodeDecomposition,
    _phase_is_identity,
    as_topology,
)
from hiddencluster.modular import SubsystemKind, require_bin_size, require_real


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
    alpha = require_bin_size(alpha)
    if type(g) is not float:
        g = require_real(g, "gate weight")
    if not math.isfinite(g):
        raise DomainError(f"gate weight must be finite, got {g!r}")

    terms = [CouplingTerm((0, ka), (1, kb), c) for ka, kb, c in _coupling_layout(g, alpha)]
    return [t for t in terms if not _phase_is_identity(t)]


def decompose_cz_multimode(adjacency, alpha: float) -> MultimodeDecomposition:
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
