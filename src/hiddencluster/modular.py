"""Modular-position arithmetic for a single bosonic mode.

A position eigenvalue ``x`` splits uniquely into

    x = alpha * ell + 2 * alpha * m + u

with a binary logical quantum number ``ell``, an integer gauge bin number
``m``, and a centered modular remainder ``u`` in the half-open interval
``[-alpha/2, alpha/2)``.  The bin size ``alpha`` is a free positive
parameter; ``sqrt(pi)`` is the conventional square-lattice choice and is
exported as :data:`DEFAULT_ALPHA`, but every function here takes ``alpha``
explicitly.
"""

from __future__ import annotations

import enum
import math

from ._record import Record
from .errors import DomainError

DEFAULT_ALPHA = math.sqrt(math.pi)


class SubsystemKind(enum.Enum):
    """The three virtual subsystems of one mode.

    LOGICAL has spectrum {0, 1}, GAUGE_BIN has integer spectrum, and
    GAUGE_MODULAR has continuous spectrum [-alpha/2, alpha/2).

    The declaration order is the package's one (ell, m, u) layout of a mode:
    ``offset`` is 0, 1, 2 in this order, so kind ``k`` of mode ``i`` is node
    ``3*i + k.offset``, oracle axis ``3*i + k.offset`` and sample column
    ``k.offset``, and iterating the class lists the kinds in that order.
    """

    LOGICAL = "logical"
    GAUGE_BIN = "gauge_m"
    GAUGE_MODULAR = "gauge_u"

    def __init__(self, value: str) -> None:
        # members are made in declaration order, each before it is registered
        self.offset = len(type(self).__members__)

    @property
    def integer_spectrum(self) -> bool:
        return self is not SubsystemKind.GAUGE_MODULAR


class QuantumNumbers(Record):
    """The triple (ell, m, u) describing one position eigenvalue.

    An immutable slotted record: fields are set once, in ``__init__``, and
    assigning or deleting one raises ``AttributeError``.  Equality, hashing
    and ``repr`` follow the field tuple (see :class:`Record`).
    """

    __slots__ = ("ell", "m", "u")

    ell: int
    m: int
    u: float

    def __init__(self, ell: int, m: int, u: float) -> None:
        _set_ell(self, ell)
        _set_m(self, m)
        _set_u(self, u)

    def __reduce__(self):
        # copy and pickle rebuild through __init__, past the __setattr__ guard
        return QuantumNumbers, (self.ell, self.m, self.u)


# the slot descriptors write the fields past the __setattr__ guard, and more
# cheaply than object.__setattr__
_set_ell = QuantumNumbers.ell.__set__
_set_m = QuantumNumbers.m.__set__
_set_u = QuantumNumbers.u.__set__
_new_record = object.__new__  # decompose_position skips the __init__ frame

# The exact float interval of valid bin sizes: rounding of alpha*alpha and
# pi/alpha**2 is monotone in alpha, so the alphas for which both are finite
# and nonzero form an interval, and these are its end points.
_MIN_BIN_SIZE = 1.3219564750381271e-154
_MAX_BIN_SIZE = 1.3407807929942596e154


def require_bin_size(alpha: float) -> float:
    """Validate a bin size: finite, strictly positive, and such that alpha**2
    and the tuned gate weight pi/alpha**2 are finite and nonzero floats."""
    alpha = float(alpha)
    if not _MIN_BIN_SIZE <= alpha <= _MAX_BIN_SIZE:  # also false for NaN
        if not math.isfinite(alpha) or alpha <= 0.0:
            raise DomainError(f"bin size must be finite and positive, got {alpha!r}")
        raise DomainError(
            f"bin size {alpha!r} is out of range: alpha**2 or pi/alpha**2 is 0 or infinite"
        )
    return alpha


def _require_quantum_numbers(q: QuantumNumbers, alpha: float) -> None:
    if q.ell not in (0, 1):
        raise DomainError(f"logical quantum number must be 0 or 1, got {q.ell!r}")
    if not isinstance(q.m, int):
        raise DomainError(f"bin number must be an integer, got {q.m!r}")
    half = alpha / 2
    # alpha is finite, so this also rejects a NaN or infinite u
    if not -half <= q.u < half:
        raise DomainError(
            f"modular position {q.u!r} outside [-alpha/2, alpha/2) for alpha={alpha}"
        )


# Below this size a split always recomposes to a finite float: alpha*k is
# within alpha/2 <= 2**511 of |x| <= 2**1023, far below the float maximum.
_LARGE_POSITION = 2.0**1023


def decompose_position(x: float, alpha: float) -> QuantumNumbers:
    """Split a position eigenvalue into (ell, m, u).

    The combined bin index is k = floor(x/alpha + 1/2), so a remainder that
    would land exactly on +alpha/2 rolls upward into the next bin, realizing
    the half-open interval.  ``ell = k mod 2`` and ``m = (k - ell) / 2``.
    """
    alpha = require_bin_size(alpha)
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"position value must be finite, got {x!r}")
    try:
        k = math.floor(x / alpha + 0.5)
    except OverflowError:  # x/alpha is infinite
        raise DomainError(
            f"position {x!r} overflows its bin index x/alpha for alpha={alpha!r}"
        ) from None
    half = alpha / 2
    u = x - alpha * k
    # x/alpha rounding can put k off by one near the bin boundary.
    if u >= half:
        k += 1
        u = x - alpha * k
    elif u < -half:
        k -= 1
        u = x - alpha * k
    # Residual round-off exactly at the boundary: pin to the included
    # endpoint (perturbs the represented x by at most 1 ulp).
    if u >= half:
        k += 1
        u = -half
    elif u < -half:
        u = -half

    if abs(x) > _LARGE_POSITION and not math.isfinite(alpha * k + u):
        # the same sum recompose forms, since ell + 2*m == k
        raise DomainError(
            f"position {x!r} has no split that recomposes to a finite float for alpha={alpha!r}"
        )
    ell = k % 2
    q = _new_record(QuantumNumbers)
    _set_ell(q, ell)
    _set_m(q, (k - ell) // 2)
    _set_u(q, u)
    return q


def recompose(q: QuantumNumbers, alpha: float) -> float:
    """Rebuild the position eigenvalue alpha*ell + 2*alpha*m + u."""
    alpha = require_bin_size(alpha)
    _require_quantum_numbers(q, alpha)
    try:
        x = alpha * (q.ell + 2 * q.m) + q.u
    except OverflowError:  # ell + 2*m does not fit in a float
        x = math.inf
    if not math.isfinite(x):
        raise DomainError(f"position of {q!r} overflows a float for alpha={alpha!r}")
    return x
