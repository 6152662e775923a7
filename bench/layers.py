"""Per-layer metrics derived from the traced run's spans.

Busy times are self times in ms: one workload cycle (averaged over the
traced passes) plus one layer sweep.  Counts are taken over the same work.
``.growth`` is the log-log slope of per-call time against input size
(modes for symbolic layers, amplitudes for the oracle).
"""

from __future__ import annotations

import statistics

from spans import LayerStats

CLI_COMMANDS = ("build", "run-wire", "measure", "decompose", "render", "verify")

#: name -> unit of every per-layer metric, in report order.
UNITS = {
    "modular.decompose_position.calls": "count",
    "modular.decompose_position.busy_ms": "ms",
    "gates.decompose_cz_multimode.busy_ms": "ms",
    "gates.decompose_cz_multimode.terms": "count",
    "gates.decompose_cz_multimode.growth": "exponent",
    "graphs.build_cluster.busy_ms": "ms",
    "graphs.build_cluster.growth": "exponent",
    "graphs.to_json.busy_ms": "ms",
    "graphs.to_json.bytes": "bytes",
    "graphs.from_json.busy_ms": "ms",
    "graphs.from_json.growth": "exponent",
    "graphs.render_dot.busy_ms": "ms",
    "measurement.run_wire.busy_ms": "ms",
    "measurement.run_wire.steps": "count",
    "measurement.run_wire.ms_per_step": "ms",
    "measurement.run_wire.growth": "exponent",
    "oracle.project_p0.busy_ms": "ms",
    "oracle.fidelity.busy_ms": "ms",
    "oracle.reduced_density.busy_ms": "ms",
    "oracle.bytes_computed": "bytes",
    "certify.direct_cluster_state.busy_ms": "ms",
    "certify.decomposed_cluster_state.busy_ms": "ms",
    "certify.graph_state.busy_ms": "ms",
    "certify.coupling_passes": "count",
    "certify.decomposed_over_direct": "ratio",
    "cli.import_ms": "ms",
    **{f"cli.{command}.wall_ms": "ms" for command in CLI_COMMANDS},
    "trace.overhead_ratio": "ratio",
}

#: Reference readout -> (span name, ROADMAP baseline in ms on 2 cores with
#: numpy 2.4.6).  The sweep's largest size for each span is the reference size.
REFERENCES = {
    "ref.run_wire.chain400_ms": ("measurement.run_wire", 936.0),
    "ref.build_cluster.grid30x30_ms": ("graphs.build_cluster", 308.0),
    "ref.direct_cluster_state.n4m4_ms": ("certify.direct_cluster_state", 66.0),
    "ref.decomposed_cluster_state.n4m4_ms": ("certify.decomposed_cluster_state", 185.0),
    "ref.graph_state.n4m4_ms": ("certify.graph_state", 171.0),
}
UNITS.update({name: "ms" for name in REFERENCES})

ORACLE_CALLS = ("oracle.project_p0", "oracle.fidelity", "oracle.reduced_density")
CERTIFY_CALLS = (
    "certify.direct_cluster_state",
    "certify.decomposed_cluster_state",
    "certify.graph_state",
)


def per_layer_metrics(spans: list[dict], cli_import_ms: float, overhead: float) -> dict:
    """Every per-layer metric, by name."""
    s = LayerStats(spans)
    m = {}
    for name in ("modular.decompose_position", "gates.decompose_cz_multimode",
                 "graphs.build_cluster", "graphs.to_json", "graphs.from_json",
                 "graphs.render_dot", "measurement.run_wire", *ORACLE_CALLS, *CERTIFY_CALLS):
        m[f"{name}.busy_ms"] = s.busy_ms(name)
    for name in ("gates.decompose_cz_multimode", "graphs.build_cluster", "graphs.from_json",
                 "measurement.run_wire"):
        m[f"{name}.growth"] = s.growth(name)
    m["modular.decompose_position.calls"] = s.count("modular.decompose_position", "calls")
    m["gates.decompose_cz_multimode.terms"] = s.count("gates.decompose_cz_multimode", "terms")
    m["graphs.to_json.bytes"] = s.count("graphs.to_json", "bytes")
    steps = s.count("measurement.run_wire", "steps")
    m["measurement.run_wire.steps"] = steps
    m["measurement.run_wire.ms_per_step"] = m["measurement.run_wire.busy_ms"] / steps
    m["oracle.bytes_computed"] = sum(s.count(n, "bytes") for n in ORACLE_CALLS + CERTIFY_CALLS)
    m["certify.coupling_passes"] = sum(s.count(n, "passes") for n in CERTIFY_CALLS)
    m["certify.decomposed_over_direct"] = (
        s.busy_ms("certify.decomposed_cluster_state")
        / s.busy_ms("certify.direct_cluster_state", untagged=True)
    )
    m["cli.import_ms"] = cli_import_ms
    for command in CLI_COMMANDS:
        m[f"cli.{command}.wall_ms"] = statistics.median(s.durations_ms(f"cli.{command}"))
    m["trace.overhead_ratio"] = overhead
    m.update(reference_readouts(spans))
    return m


def reference_readouts(spans: list[dict]) -> dict[str, float]:
    """Single untagged sweep calls at the largest size of each reference span."""
    sweep_ops = {s["id"] for s in spans if s["parent"] is None and s["op"].startswith("sweep")}
    found = {}
    for key, (name, _) in REFERENCES.items():
        largest = max(
            (s for s in spans
             if s["parent"] in sweep_ops and s["name"] == name and s["tag"] is None),
            key=lambda s: s["size"],
        )
        found[key] = (largest["end"] - largest["start"]) / 1e6
    return found
