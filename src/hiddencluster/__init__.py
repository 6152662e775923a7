"""Subsystem-decomposed cluster states: typed graphs, gate decompositions,
symbolic measurements, and an exact finite-grid oracle to certify them."""

from .errors import (
    DomainError,
    GraphParseError,
    HiddenClusterError,
    UnsupportedMeasurement,
    UnsupportedTopology,
)
from .gates import (
    CouplingTerm,
    MultimodeDecomposition,
    Topology,
    chain_topology,
    decompose_cz_multimode,
    decompose_cz_two_mode,
    grid_topology,
)
from .graphs import (
    CvType,
    ModeRecord,
    ModeSpec,
    Node,
    NodeState,
    SubsystemEdge,
    SubsystemGraph,
    build_cluster,
    from_json,
    gkp_labeled,
    gkp_plus,
    logical_subgraph,
    momentum,
    render_dot,
    structurally_equal,
    to_json,
)
from .measurement import (
    HADAMARD,
    LogicalFrame,
    MeasurementRecord,
    WireRun,
    measure_p0,
    run_wire,
)
from .modular import (
    DEFAULT_ALPHA,
    SubsystemKind,
    decompose_position,
    recompose,
)

# The grid oracle needs numpy, so its names load on first use (PEP 562); the
# symbolic layer and every CLI command but ``verify`` then run without numpy.
_ORACLE_NAMES = (
    "DiscretizedState",
    "GridSpec",
    "connected_correlators",
    "coupled_product",
    "coupling_strength",
    "fidelity",
    "prepare_gkp_state",
    "prepare_momentum_state",
    "project_p0",
    "purity",
    "qubit_cluster_state",
    "reduced_density",
)

__version__ = "0.1.0"

__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} | {"oracle", *_ORACLE_NAMES}
)


def __getattr__(name: str):
    if name != "oracle" and name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    oracle = importlib.import_module(f"{__name__}.oracle")
    value = oracle if name == "oracle" else getattr(oracle, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
