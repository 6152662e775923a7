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
    SubsystemOperator,
    chain_adjacency,
    decompose_cz_multimode,
    decompose_cz_two_mode,
    expand_adjacency,
    grid_adjacency,
    is_trivial_term,
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
    MeasurementResult,
    WireRun,
    measure_p0,
    run_wire,
)
from .modular import (
    DEFAULT_ALPHA,
    QuantumNumbers,
    SubsystemKind,
    decompose_position,
    gauge_position,
    recompose,
)
from .oracle import (
    DiscretizedState,
    GridSpec,
    apply_couplings,
    apply_cz,
    apply_subsystem_coupling,
    apply_subsystem_phase,
    connected_correlator,
    coupling_strength,
    fidelity,
    load_state,
    prepare_gkp_state,
    prepare_momentum_state,
    project_p0,
    purity,
    qubit_cluster_state,
    reduced_density,
    save_state,
    tensor_product,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
