"""Copies of two earlier routes to the coupling coefficients, which
``test_gates`` compares the package's one formula against.  The package never
imports this.

The float route (``decompose_cz_two_mode`` and ``decompose_cz_multimode``)
writes the nine coefficients out term by term, prunes them with the 2*pi test
and sorts the tuned ones into families at run time; below a bin size of about
2.64e-154 its ``(4.0 * g) * alpha**2`` overflows and it raises, and so does any
weight whose ``4.0 * g`` overflows.  The unit route (``decompose_cz_multimode_by_units``)
stamps the tuned table with coefficients ``units * (g * alpha**(2 - p))``.
"""

from __future__ import annotations

import math

from hiddencluster.errors import DomainError
from hiddencluster.gates import (
    CouplingTerm,
    TUNED_COUPLINGS,
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


def decompose_cz_multimode_by_units(adjacency, alpha: float) -> MultimodeDecomposition:
    alpha = require_bin_size(alpha)
    edges = as_topology(adjacency).edges
    g = math.pi / (alpha * alpha)
    unit = (g, g * alpha, g * (alpha * alpha))  # pi/alpha**p, indexed by 2 - p

    def stamp(logical_ends: int) -> tuple[CouplingTerm, ...]:
        template = [
            (ka, kb, units * unit[ka.integer_spectrum + kb.integer_spectrum])
            for ka, kb, units in TUNED_COUPLINGS
            if (ka, kb).count(SubsystemKind.LOGICAL) == logical_ends
        ]
        return tuple(CouplingTerm((i, ka), (j, kb), c) for i, j in edges for ka, kb, c in template)

    return MultimodeDecomposition(stamp(2), stamp(0), stamp(1))
