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


#: One subsystem address, (mode index, kind): the operand of a coupling term
#: and the argument of the oracle's reduced-state and correlation routines.
Subsystem = tuple[int, SubsystemKind]


# The exact float interval of valid bin sizes: rounding of alpha*alpha and
# pi/alpha**2 is monotone in alpha, so the alphas for which both are finite
# and nonzero form an interval, and these are its end points.
_MIN_BIN_SIZE = 1.3219564750381271e-154
_MAX_BIN_SIZE = 1.3407807929942596e154


def require_real(value: object, what: str) -> float:
    """``value`` as a float: a ``numbers.Real`` that is not a ``bool``.

    Strings, bytes, bools, ``numpy.bool_`` and ``decimal.Decimal`` (neither
    of the last two is a ``numbers.Real``) raise ``DomainError``, and so does
    a real beyond the float range.
    """
    import numbers  # here, not at the top: a command that passes only floats never loads it

    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise DomainError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{what} is out of range: it overflows a float") from None


def require_bin_size(alpha: float) -> float:
    """Validate a bin size: a real number (:func:`require_real`) that is
    finite, strictly positive, and such that alpha**2 and the tuned gate
    weight pi/alpha**2 are finite and nonzero floats."""
    if type(alpha) is not float:
        alpha = require_real(alpha, "bin size")
    if not _MIN_BIN_SIZE <= alpha <= _MAX_BIN_SIZE:  # also false for NaN
        if not math.isfinite(alpha) or alpha <= 0.0:
            raise DomainError(f"bin size must be finite and positive, got {alpha!r}")
        raise DomainError(
            f"bin size {alpha!r} is out of range: alpha**2 or pi/alpha**2 is 0 or infinite"
        )
    return alpha


# Below this size a split always recomposes to a finite float: alpha*k is
# within alpha/2 <= 2**511 of |x| <= 2**1023, far below the float maximum.
_LARGE_POSITION = 2.0**1023


def decompose_position(x: float, alpha: float) -> tuple[int, int, float]:
    """Split a position eigenvalue into the plain tuple (ell, m, u).

    The combined bin index is k = floor(x/alpha + 1/2), so a remainder that
    would land exactly on +alpha/2 rolls upward into the next bin, realizing
    the half-open interval.  ``ell = k mod 2`` and ``m = (k - ell) / 2``.
    ``x`` is a real number (:func:`require_real`).
    """
    # a float alpha inside the band and a float x with |x| <= 2**1023 pass
    # straight through; every other input takes the full checks
    if type(alpha) is not float or not _MIN_BIN_SIZE <= alpha <= _MAX_BIN_SIZE:
        alpha = require_bin_size(alpha)
    if type(x) is not float:
        x = require_real(x, "position value")
    large = not -_LARGE_POSITION <= x <= _LARGE_POSITION  # also true for NaN
    if large and not math.isfinite(x):
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

    if large and not math.isfinite(alpha * k + u):
        # the same sum recompose forms, since ell + 2*m == k
        raise DomainError(
            f"position {x!r} has no split that recomposes to a finite float for alpha={alpha!r}"
        )
    return k & 1, k >> 1, u


def recompose(q: tuple[int, int, float], alpha: float) -> float:
    """Rebuild alpha*ell + 2*alpha*m + u from ``q = (ell, m, u)``; ``ell`` and ``m`` are ints."""
    if type(alpha) is not float or not _MIN_BIN_SIZE <= alpha <= _MAX_BIN_SIZE:
        alpha = require_bin_size(alpha)
    try:
        ell, m, u = q
    except (TypeError, ValueError):
        raise DomainError(f"quantum numbers must be an (ell, m, u) triple, got {q!r}") from None
    if type(ell) is not int or not 0 <= ell <= 1:
        raise DomainError(f"logical quantum number must be the int 0 or 1, got {ell!r}")
    if type(m) is not int:
        raise DomainError(f"bin number must be an int, got {m!r}")
    if type(u) is not float:
        u = require_real(u, "modular position")
    half = alpha / 2
    # alpha is finite, so this also rejects a NaN or infinite u
    if not -half <= u < half:
        raise DomainError(f"modular position {u!r} outside [-alpha/2, alpha/2) for alpha={alpha}")
    try:
        x = alpha * (ell + 2 * m) + u
    except OverflowError:  # ell + 2*m does not fit in a float
        x = math.inf
    if not math.isfinite(x):
        raise DomainError(f"position of {q!r} overflows a float for alpha={alpha!r}")
    return x
