"""Test-side references for the oracle's grid layout and its subsystem readouts.

An earlier revision spelled one mode's (ell, m, u) layout out in each place
that used it: the bin and modular values as their own lists, each
subsystem's value at every basis point by tiling and repeating them, and
each readout reshaping the amplitudes to ``(2, n, n) * n_modes`` (or to one
``dim`` axis per mode) with its own mode checks.  These copies keep that
arithmetic, so the tests can hold ``oracle.GridSpec`` and the readouts that
share one subsystem view to it byte for byte.  The package itself never
imports this module.
"""

import numpy as np

from hiddencluster.errors import DomainError
from hiddencluster.modular import SubsystemKind
from hiddencluster.oracle import _require_mode, _rescaling


def m_values(grid):
    start = -(grid.n // 2)
    return np.arange(start, start + grid.n)


def u_values(grid):
    return grid.alpha * m_values(grid) / grid.n


def basis_values(grid, kind):
    """Eigenvalue of one subsystem operator at each of the dim basis points."""
    n = grid.n
    ell = np.repeat(np.arange(2), n * n)
    if kind is SubsystemKind.LOGICAL:
        return ell.astype(float)
    if kind is SubsystemKind.GAUGE_BIN:
        return np.tile(np.repeat(m_values(grid), n), 2).astype(float)
    return np.tile(np.tile(u_values(grid), n), 2)


def position_values(grid):
    return (
        grid.alpha * basis_values(grid, SubsystemKind.LOGICAL)
        + 2.0 * grid.alpha * basis_values(grid, SubsystemKind.GAUGE_BIN)
        + basis_values(grid, SubsystemKind.GAUGE_MODULAR)
    )


def reduced_density(state, subsystems):
    if not subsystems:
        raise DomainError("subsystem selection must be nonempty")
    if len(set(subsystems)) != len(subsystems):
        raise DomainError("duplicate subsystem in selection")
    n = state.grid.n
    axes = []
    for mode, kind in subsystems:
        _require_mode(mode, state.n_modes)
        axes.append(3 * mode + kind.offset)
    tensor = state.amplitudes.reshape((2, n, n) * state.n_modes)
    rest = [ax for ax in range(3 * state.n_modes) if ax not in axes]
    moved = np.transpose(tensor, axes + rest)
    sizes = moved.shape[: len(axes)]
    kept = int(np.prod(sizes))

    def with_trace(flat):
        rho = flat @ flat.conj().T
        return rho, float(np.trace(rho).real)

    rho, trace = _rescaling(with_trace, moved.reshape(kept, -1))
    if trace <= 0.0:
        raise DomainError("state has zero norm; no reduced state exists")
    return rho / trace


def connected_correlators(state, pairs):
    pairs = list(pairs)
    for sub_a, sub_b in pairs:
        _require_mode(sub_a[0], state.n_modes)
        _require_mode(sub_b[0], state.n_modes)

    def with_total(tensor):
        probs = np.abs(tensor) ** 2
        return probs, probs.sum()

    dim, n_modes = state.grid.dim, state.n_modes
    probs, total = _rescaling(with_total, state.amplitudes.reshape((dim,) * n_modes))
    if total == 0.0:
        raise DomainError("state has zero norm")
    values, means = {}, {}
    for mode, kind in dict.fromkeys(sub for pair in pairs for sub in pair):
        shape = [1] * n_modes
        shape[mode] = dim
        value = basis_values(state.grid, kind).reshape(shape)
        values[mode, kind] = value
        means[mode, kind] = float((probs * value).sum() / total)
    return [
        float((probs * values[sub_a] * values[sub_b]).sum() / total) - means[sub_a] * means[sub_b]
        for sub_a, sub_b in pairs
    ]


def coupling_strength(state, sub_a, sub_b):
    (mode_a, kind_a), (mode_b, kind_b) = sub_a, sub_b
    _require_mode(mode_a, state.n_modes)
    _require_mode(mode_b, state.n_modes)
    if (mode_a, kind_a) == (mode_b, kind_b):
        raise DomainError("coupling strength needs two distinct subsystems")
    n = state.grid.n
    tensor = state.amplitudes.reshape((2, n, n) * state.n_modes)
    axis_a = 3 * mode_a + kind_a.offset
    axis_b = 3 * mode_b + kind_b.offset

    def view(shift_a, shift_b):
        index = [slice(None)] * tensor.ndim
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
