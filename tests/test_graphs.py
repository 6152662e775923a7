import cmath
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grid_reference import (
    NODE_DEFECTS,
    chain_adjacency,
    graph_shape,
    legacy_document,
    topology_matrix,
)
from hiddencluster.cli import parse_topology
from hiddencluster.errors import DomainError, GraphParseError
from hiddencluster.gates import Topology, chain_topology, decompose_cz_multimode, grid_topology
from hiddencluster.graphs import (
    CvType,
    ModeRecord,
    ModeSpec,
    NodeState,
    SubsystemEdge,
    SubsystemGraph,
    _node_fields,
    build_cluster,
    from_json,
    gkp_labeled,
    gkp_plus,
    logical_subgraph,
    momentum,
    norm_sq,
    render_dot,
    structurally_equal,
    to_json,
)
from hiddencluster.measurement import LogicalFrame, measure_p0, run_wire
from hiddencluster.modular import DEFAULT_ALPHA, SubsystemKind

L, M, U = SubsystemKind.LOGICAL, SubsystemKind.GAUGE_BIN, SubsystemKind.GAUGE_MODULAR


def node_of(graph, mode, kind):
    """A mode's node of one kind, looked up by its id in the (ell, m, u) layout."""
    node = graph.node_by_id(3 * mode + kind.offset)
    assert (node.mode, node.kind) == (mode, kind)
    return node


def graph_nodes(graph):
    """Every node as ``{"id", "mode", "kind", "state"}``, derived by ``_node_fields``."""
    return [
        {"id": node_id, "mode": mode, "kind": kind.value, "state": state.value}
        for record in graph.modes
        for node_id, mode, kind, state in _node_fields(record)
    ]


def edge_kinds(graph):
    """Multiset of (kind, kind, multiplicity) per edge, kinds sorted."""
    out = []
    for e in graph.edges:
        ka = graph.node_by_id(e.a).kind.value
        kb = graph.node_by_id(e.b).kind.value
        out.append((*sorted((ka, kb)), e.multiplicity))
    return sorted(out)


def random_specs(rng, n):
    specs = []
    for _ in range(n):
        kind = rng.integers(0, 3)
        if kind == 0:
            specs.append(momentum())
        elif kind == 1:
            specs.append(gkp_plus())
        else:
            w = rng.uniform(0.1, 0.9)
            specs.append(gkp_labeled(math.sqrt(w), math.sqrt(1 - w)))
    return specs


class TestBuildCluster:
    def test_two_mode_cv_cluster_has_six_edges(self):
        graph = build_cluster(chain_adjacency(2), [momentum(), momentum()], DEFAULT_ALPHA)
        assert len(graph_nodes(graph)) == 6
        ids = {
            (mode, kind): node_of(graph, mode, kind).id
            for mode in (0, 1)
            for kind in (L, M, U)
        }
        got = {(e.a, e.b, e.multiplicity) for e in graph.edges}
        expected_pairs = [
            ((0, L), (1, L), 1),
            ((0, L), (1, U), 1),
            ((0, U), (1, L), 1),
            ((0, U), (1, U), 1),
            ((0, M), (1, U), 2),
            ((0, U), (1, M), 2),
        ]
        assert got == {
            tuple(sorted((ids[a], ids[b]))) + (mult,) for a, b, mult in expected_pairs
        }

    def test_two_mode_gkp_cluster_keeps_only_logical_edge(self):
        graph = build_cluster(chain_adjacency(2), [gkp_plus(), gkp_plus()], DEFAULT_ALPHA)
        assert edge_kinds(graph) == [("logical", "logical", 1)]

    def test_hybrid_two_mode_has_three_edges(self):
        specs = [momentum(), gkp_labeled(0.6, 0.8)]
        graph = build_cluster(chain_adjacency(2), specs, DEFAULT_ALPHA)
        logical_0 = node_of(graph, 0, L).id
        logical_1 = node_of(graph, 1, L).id
        bin_1 = node_of(graph, 1, M).id
        modular_0 = node_of(graph, 0, U).id
        got = {(e.a, e.b, e.multiplicity) for e in graph.edges}
        assert got == {
            (logical_0, logical_1, 1),
            tuple(sorted((modular_0, logical_1))) + (1,),
            tuple(sorted((modular_0, bin_1))) + (2,),
        }

    def test_grid_logical_subgraph_is_the_grid(self):
        adjacency = topology_matrix(grid_topology(2, 3))
        graph = build_cluster(adjacency, [momentum()] * 6, DEFAULT_ALPHA)
        assert np.array_equal(logical_subgraph(graph), adjacency)
        # 7 grid edges, 6 subsystem edges each for momentum-momentum pairs
        assert len(graph.edges) == 7 * 6
        assert len(graph_nodes(graph)) == 18

    def test_mixed_grid_keeps_input_adjacency(self):
        adjacency = topology_matrix(grid_topology(2, 3))
        rng = np.random.default_rng(5)
        graph = build_cluster(adjacency, random_specs(rng, 6), DEFAULT_ALPHA)
        assert np.array_equal(logical_subgraph(graph), adjacency)

    def test_empty_graph(self):
        graph = build_cluster(np.zeros((0, 0)), [], 1.0)
        assert graph_nodes(graph) == [] and graph.edges == ()
        assert logical_subgraph(graph).shape == (0, 0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DomainError):
            build_cluster(chain_adjacency(3), [momentum()] * 2, 1.0)

    def test_non_binary_rejected(self):
        with pytest.raises(DomainError):
            build_cluster(0.5 * chain_adjacency(2), [momentum()] * 2, 1.0)


class TestInvariants:
    def test_random_graphs_round_trip_adjacency_and_absorb(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            upper = np.triu(rng.integers(0, 2, size=(n, n)), k=1).astype(float)
            adjacency = upper + upper.T
            graph = build_cluster(adjacency, random_specs(rng, n), DEFAULT_ALPHA)
            assert np.array_equal(logical_subgraph(graph), adjacency)
            nodes = graph_nodes(graph)
            assert len(nodes) == 3 * n
            pinned = {
                node["id"] for node in nodes if node["state"] == NodeState.MODULAR_ZERO.value
            }
            for edge in graph.edges:
                assert edge.a not in pinned and edge.b not in pinned
                kinds = {graph.node_by_id(edge.a).kind, graph.node_by_id(edge.b).kind}
                assert kinds != {L, M} and kinds != {M}
                if kinds == {M, U}:
                    assert edge.multiplicity == 2
                else:
                    assert edge.multiplicity == 1

    @pytest.mark.parametrize(
        "c0, c1", [(math.nan, 0.0), (1.0, complex(0.0, math.nan)), (math.inf, 0.0), (1e300, 0.0)]
    )
    def test_gkp_labeled_rejects_non_finite_or_unnormalized(self, c0, c1):
        with pytest.raises(DomainError):
            gkp_labeled(c0, c1)

    @pytest.mark.parametrize(
        "c0, c1",
        [(0.6, 0.8j), (9e153, 9e153j), (3e-170, 0.0), (1.2e154 + 5e153j, 2.0), (0.0, 0.0)],
    )
    def test_norm_sq_is_the_plain_sum_when_finite(self, c0, c1):
        expected = abs(complex(c0)) ** 2 + abs(complex(c1)) ** 2
        assert math.isfinite(expected)
        assert norm_sq(complex(c0), complex(c1)) == expected

    @pytest.mark.parametrize(
        "c0, c1", [(1.34e154, 1.34e154), (1e200, 0.0), (0.0, 1e155j), (1e308, 1e308j)]
    )
    def test_norm_sq_is_inf_when_it_overflows(self, c0, c1):
        assert norm_sq(complex(c0), complex(c1)) == math.inf

    @pytest.mark.parametrize(
        "spec",
        [
            ModeSpec(CvType.MOMENTUM, "in"),
            ModeSpec(CvType.GKP_PLUS),
            ModeSpec(CvType.GKP_LABELED, "", (0.6, -0.8j)),
            ModeSpec(CvType.GKP_LABELED, None, (1, 0)),
        ],
    )
    def test_hand_built_spec_document_reads_back(self, spec):
        graph = build_cluster(chain_adjacency(2), [momentum(), spec], DEFAULT_ALPHA)
        assert from_json(to_json(graph)) == graph

    @pytest.mark.parametrize("amplitudes", [(1,), (1, 0, 0), "ab", 5, ("0.6", "0.8")], ids=repr)
    def test_spec_refuses_amplitudes_that_are_not_a_pair_of_numbers(self, amplitudes):
        with pytest.raises(DomainError) as info:
            ModeSpec(CvType.GKP_LABELED, "psi", amplitudes)
        assert str(info.value) == (
            f"logical amplitudes must be a pair of numbers, got {amplitudes!r}"
        )

    def test_overflowing_label_names_an_infinite_norm(self):
        with pytest.raises(DomainError, match=r"got \|c\|\^2 = inf"):
            gkp_labeled(1e154, 1e154)
        with pytest.raises(DomainError, match=r"got \|c\|\^2 = inf"):
            gkp_labeled(1e300, 0.0)

    def test_edge_normalizes_endpoint_order(self):
        edge = SubsystemEdge(a=5, b=2, multiplicity=1)
        assert (edge.a, edge.b) == (2, 5)
        with pytest.raises(DomainError):
            SubsystemEdge(a=1, b=1, multiplicity=1)


class TestRendering:
    def test_single_momentum_mode(self):
        graph = build_cluster(np.zeros((1, 1)), [momentum()], DEFAULT_ALPHA)
        dot = render_dot(graph)
        assert dot.count("shape=diamond") == 1
        assert dot.count("shape=box") == 1
        assert dot.count("shape=circle") == 1
        assert dot.count("style=filled") == 3
        assert "--" not in dot

    def test_gkp_pair_renders_single_edge_and_open_circles(self):
        graph = build_cluster(chain_adjacency(2), [gkp_plus(), gkp_plus()], DEFAULT_ALPHA)
        dot = render_dot(graph)
        assert dot.count("--") == 1
        # squares and diamonds filled, pinned circles open
        assert dot.count("style=filled") == 4
        assert dot.count('label="u=0"') == 2

    def test_double_edges_render_twice(self):
        graph = build_cluster(chain_adjacency(2), [momentum(), momentum()], DEFAULT_ALPHA)
        dot = render_dot(graph)
        assert dot.count("--") == 8  # 4 single + 2 double edges

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(9)
        adjacency = topology_matrix(grid_topology(2, 3))
        graph = build_cluster(adjacency, random_specs(rng, 6), DEFAULT_ALPHA)
        assert render_dot(graph).encode() == render_dot(graph).encode()

    def test_labels_are_escaped_as_dot_strings(self):
        amplitudes = (0.6, 0.8)
        specs = [
            ModeSpec(CvType.GKP_LABELED, 'a"b\n}', amplitudes),
            ModeSpec(CvType.GKP_LABELED, "c\\d\r\ne\rf", amplitudes),
            gkp_labeled(*amplitudes),
            gkp_plus(),
        ]
        dot = render_dot(build_cluster(chain_adjacency(4), specs, DEFAULT_ALPHA))
        lines = dot.splitlines()
        assert lines[2] == r'  n0 [shape=diamond, label="a\"b\n}"];'
        assert lines[5] == r'  n3 [shape=diamond, label="c\\d\ne\nf"];'
        assert lines[8] == '  n6 [shape=diamond, label="psi"];'
        assert lines[11] == '  n9 [shape=diamond, label="+", style=filled];'
        assert len(lines) == 2 + 12 + 3 + 1 and lines[-1] == "}"

    def test_empty_graph_renders_header_only(self):
        graph = build_cluster(np.zeros((0, 0)), [], 1.0)
        lines = [line for line in render_dot(graph).splitlines() if line.strip()]
        assert lines[0].startswith("graph ")
        assert lines[-1] == "}"
        assert all("shape" not in line for line in lines)


def hybrid_grid():
    adjacency = topology_matrix(grid_topology(2, 3))
    specs = [
        momentum(),
        gkp_plus(),
        momentum(),
        ModeSpec(CvType.GKP_LABELED, "in", (1 / math.sqrt(2), 1j / math.sqrt(2))),
        momentum(),
        gkp_plus(),
    ]
    return build_cluster(adjacency, specs, DEFAULT_ALPHA)


class TestSerialization:

    def test_round_trip_identity(self):
        graph = hybrid_grid()
        restored = from_json(to_json(graph))
        assert restored == graph

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{\n  "alpha": ,\n}', "^invalid JSON at line 2 column 12: Expecting value$"),
            ("[" * 100_000, "^invalid JSON: .*recursion"),
            ("1" * 5000, "^invalid JSON: .*digits"),
        ],
        ids=["syntax-error", "too-deep", "integer-too-long"],
    )
    def test_undecodable_text_is_a_parse_error(self, text, message):
        with pytest.raises(GraphParseError, match=message):
            from_json(text)

    @pytest.mark.parametrize("text", ["[]", "1.5", '"graph"', "null"])
    def test_document_that_is_not_an_object_is_refused(self, text):
        with pytest.raises(GraphParseError) as info:
            from_json(text)
        assert str(info.value) == "top-level document must be an object"

    def test_empty_document(self):
        graph = build_cluster(np.zeros((0, 0)), [], 1.0)
        restored = from_json(to_json(graph))
        assert restored == graph
        doc = json.loads(to_json(graph))
        assert doc == {"alpha": 1.0, "modes": [], "edges": []} and graph_nodes(restored) == []

    def test_truncated_document_fails_with_location(self):
        text = to_json(hybrid_grid())
        with pytest.raises(GraphParseError, match="line"):
            from_json(text[: len(text) // 2])

    def test_schema_keys_are_lowercase(self):
        doc = json.loads(to_json(hybrid_grid()))
        assert set(doc) == {"alpha", "modes", "edges"}
        mode = doc["modes"][3]
        assert mode["cv_type"] == "gkp_labeled"
        assert mode["label"] == "in"
        assert mode["amplitudes"] == [
            [1 / math.sqrt(2), 0.0],
            [0.0, 1 / math.sqrt(2)],
        ]
        kinds = {node["kind"] for node in graph_nodes(from_json(to_json(hybrid_grid())))}
        assert kinds == {"logical", "gauge_m", "gauge_u"}

    def test_rejects_unknown_edge_endpoint(self):
        doc = json.loads(to_json(hybrid_grid()))
        doc["edges"].append({"a": 0, "b": 999, "multiplicity": 1})
        with pytest.raises(GraphParseError, match="unknown node"):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "mode, field, value, message",
        [
            (3, "label", 5, "mode label must be a string or None, got 5"),
            (3, "amplitudes", None, "a gkp_labeled mode needs logical amplitudes"),
            (
                3,
                "amplitudes",
                [[0.6, 0.0], [0.6, 0.0]],
                "logical amplitudes must be normalized, got |c|^2 = 0.72",
            ),
            (0, "amplitudes", [[1.0, 0.0], [0.0, 0.0]], "a momentum mode cannot carry amplitudes"),
        ],
    )
    def test_mode_refusals_name_the_mode(self, mode, field, value, message):
        doc = json.loads(to_json(hybrid_grid()))
        if value is None:
            del doc["modes"][mode][field]
        else:
            doc["modes"][mode][field] = value
        with pytest.raises(GraphParseError) as info:
            from_json(json.dumps(doc))
        assert str(info.value) == f"malformed graph document: mode {mode}: {message}"

    def test_rejects_edge_on_pinned_node(self):
        graph = build_cluster(chain_adjacency(2), [gkp_plus(), gkp_plus()], 1.0)
        doc = legacy_document(graph)
        pinned = next(n for n in doc["nodes"] if n["state"] == "modular_zero")
        other = next(
            n for n in doc["nodes"] if n["kind"] == "gauge_m" and n["mode"] != pinned["mode"]
        )
        doc["edges"].append({"a": other["id"], "b": pinned["id"], "multiplicity": 1})
        with pytest.raises(GraphParseError, match="pinned"):
            from_json(json.dumps(doc))
        del doc["nodes"]
        with pytest.raises(GraphParseError, match="pinned"):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "defect, match",
        [
            ("duplicate_edge", "duplicate edge"),
            ("multiplicity_3", "multiplicity 3"),
            ("same_mode_edge", "same mode"),
            ("shifted_node_ids", "3\\*index"),
            ("nan_amplitude", "finite"),
        ],
    )
    def test_rejects_broken_invariants(self, defect, match):
        doc = legacy_document(hybrid_grid())
        if defect == "duplicate_edge":
            doc["edges"].append(dict(doc["edges"][0]))
        elif defect == "multiplicity_3":
            doc["edges"][0]["multiplicity"] = 3
        elif defect == "same_mode_edge":
            doc["edges"].append({"a": 0, "b": 1, "multiplicity": 1})  # mode 0: logical--gauge_m
        elif defect == "shifted_node_ids":
            for node in doc["nodes"]:
                node["id"] += 3
            for edge in doc["edges"]:
                edge["a"] += 3
                edge["b"] += 3
        else:
            doc["modes"][3]["amplitudes"][0][0] = float("nan")
        with pytest.raises(GraphParseError, match=match):
            from_json(json.dumps(doc))
        if defect != "shifted_node_ids":  # the other defects are refused in either form
            del doc["nodes"]
            with pytest.raises(GraphParseError, match=match):
                from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("multiplicity", 1.9, "edge ({a}, {b}) has multiplicity 1.9, not 1 or 2"),
            ("multiplicity", "2", "edge ({a}, {b}) has multiplicity '2', not 1 or 2"),
            ("multiplicity", True, "edge ({a}, {b}) has multiplicity True, not 1 or 2"),
            ("mode_index", 0.7, "mode 0.7: mode index must be an int, got 0.7"),
            ("mode_index", "0", "mode 0: mode index must be an int, got '0'"),
            ("node_id", 0.0, "id must be a JSON integer, got 0.0"),
            ("edge_a", "as_float", "edge ends must be ints, got ({a}.0, {b})"),
            ("alpha", "1.5", "bin size must be a number, got '1.5'"),
        ],
    )
    def test_rejects_non_integer_numbers(self, field, value, message):
        doc = legacy_document(hybrid_grid())
        a, b = doc["edges"][0]["a"], doc["edges"][0]["b"]
        if field == "multiplicity":
            doc["edges"][0]["multiplicity"] = value
        elif field == "mode_index":
            doc["modes"][0]["index"] = value
            for node in doc["nodes"][:3]:
                node["mode"] = value
        elif field == "node_id":
            doc["nodes"][0]["id"] = value
        elif field == "alpha":
            doc["alpha"] = value
        else:
            doc["edges"][0]["a"] = float(doc["edges"][0]["a"])
        with pytest.raises(GraphParseError) as info:
            from_json(json.dumps(doc))
        assert str(info.value) == "malformed graph document: " + message.format(a=a, b=b)
        if field != "node_id":  # the other fields are refused in either form
            del doc["nodes"]
            with pytest.raises(GraphParseError) as info:
                from_json(json.dumps(doc))
            assert str(info.value) == "malformed graph document: " + message.format(a=a, b=b)

    @pytest.mark.parametrize("defect", sorted(NODE_DEFECTS))
    def test_rejects_a_broken_node_list(self, defect):
        doc = legacy_document(hybrid_grid())
        edit, message = NODE_DEFECTS[defect]
        edit(doc["nodes"], len(doc["modes"]))
        with pytest.raises(GraphParseError) as info:
            from_json(json.dumps(doc))
        assert str(info.value) == message

    def test_read_graph_derives_its_nodes_as_a_fresh_build(self):
        graph = hybrid_grid()
        read = from_json(to_json(graph))
        ids = range(3 * len(graph.modes))
        assert [read.node_by_id(i) for i in ids] == [graph.node_by_id(i) for i in ids]
        assert graph_nodes(read) == graph_nodes(graph)

    @pytest.mark.parametrize(
        "nodes, message",
        [
            (None, "^malformed graph document: 'NoneType' object is not iterable$"),
            (5, "^malformed graph document: 'int' object is not iterable$"),
            ("ab", "^malformed graph document: string indices must be integers"),
        ],
        ids=["null", "number", "string"],
    )
    def test_a_present_nodes_key_is_checked_whatever_its_value(self, nodes, message):
        doc = json.loads(to_json(hybrid_grid()))
        doc["nodes"] = nodes
        with pytest.raises(GraphParseError, match=message):
            from_json(json.dumps(doc))


def _json_paths(value, prefix=()):
    """Every key/index path below the document root."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, item in children:
        yield prefix + (key,)
        yield from _json_paths(item, prefix + (key,))


_WIRE = build_cluster(chain_adjacency(4), [momentum()] * 3 + [gkp_plus()], DEFAULT_ALPHA)
_FUZZ_GRAPHS = [hybrid_grid(), measure_p0(_WIRE, 3, LogicalFrame()).graph]
_FUZZ_DOCUMENTS = [to_json(graph) for graph in _FUZZ_GRAPHS] + [
    json.dumps(legacy_document(graph)) for graph in _FUZZ_GRAPHS
]
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.lists(st.one_of(st.integers(-3, 40), st.floats(), st.text(max_size=3)), max_size=3),
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_from_json_mutations_parse_or_reject(data):
    """One mutated field of a valid document either raises GraphParseError or
    parses into a graph that keeps the invariants and round-trips."""
    doc = json.loads(data.draw(st.sampled_from(_FUZZ_DOCUMENTS)))
    path = data.draw(st.sampled_from(list(_json_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_JSON_VALUES)
    try:
        graph = from_json(json.dumps(doc))
    except GraphParseError:
        return
    assert isinstance(graph, SubsystemGraph)
    text = to_json(graph)
    assert "NaN" not in text and "Infinity" not in text
    assert all(e.multiplicity in (1, 2) and e.a // 3 != e.b // 3 for e in graph.edges)
    assert len({(e.a, e.b) for e in graph.edges}) == len(graph.edges)
    assert from_json(text) == graph


def _raw_document(alpha, modes, edges):
    """The document of raw ``[index, cv_type, label, amplitudes]`` modes and
    ``[a, b, multiplicity]`` edges, laid out in the older form that also
    carries the derived ``nodes`` list, with no record built and nothing
    checked."""
    nodes = []
    for index, cv_type, _, _ in modes:
        ids = [3 * index + k for k in range(3)] if isinstance(index, (int, float)) else [index] * 3
        states = [
            "logical_labeled" if cv_type is CvType.GKP_LABELED else "logical_plus",
            "uniform_bin",
            "modular_zero" if cv_type.is_gkp else "uniform_modular",
        ]
        nodes += [
            {"id": i, "mode": index, "kind": kind.value, "state": state}
            for i, kind, state in zip(ids, SubsystemKind, states)
        ]
    doc = {
        "alpha": alpha,
        "modes": [
            {
                "index": index,
                "cv_type": cv_type.value,
                **({"label": label} if label is not None else {}),
                **(
                    {"amplitudes": [[c.real, c.imag] for c in amplitudes]}
                    if amplitudes is not None
                    else {}
                ),
            }
            for index, cv_type, label, amplitudes in modes
        ],
        "nodes": nodes,
        "edges": [{"a": a, "b": b, "multiplicity": m} for a, b, m in edges],
    }
    return json.dumps(doc)


_MUTATED_GRAPHS = [hybrid_grid(), _WIRE, measure_p0(_WIRE, 3, LogicalFrame()).graph]
_FIELD_VALUES = st.one_of(
    st.integers(-4, 24),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_record_mutations_construct_iff_their_document_reads_back(data):
    """One mutation of a built graph's record fields constructs exactly when
    the document of those fields reads back, and a graph that constructs
    round-trips through its document byte for byte."""
    graph = data.draw(st.sampled_from(_MUTATED_GRAPHS))
    modes = [[m.index, m.cv_type, m.label, m.amplitudes] for m in graph.modes]
    edges = [[e.a, e.b, e.multiplicity] for e in graph.edges]
    mutation = data.draw(
        st.sampled_from(
            ["mode_index", "edge_field", "drop_mode", "repeat_mode", "repeat_edge", "add_edge"]
        )
    )
    if mutation == "mode_index":
        modes[data.draw(st.integers(0, len(modes) - 1))][0] = data.draw(_FIELD_VALUES)
    elif mutation == "drop_mode":
        del modes[data.draw(st.integers(0, len(modes) - 1))]
    elif mutation == "repeat_mode":
        modes.append(list(data.draw(st.sampled_from(modes))))
    elif mutation == "add_edge":
        edges.append(data.draw(st.lists(st.integers(-4, 24), min_size=3, max_size=3)))
    elif edges and mutation == "edge_field":
        edges[data.draw(st.integers(0, len(edges) - 1))][data.draw(st.integers(0, 2))] = (
            data.draw(_FIELD_VALUES)
        )
    elif edges:
        a, b, m = data.draw(st.sampled_from(edges))
        edges.append(data.draw(st.sampled_from([[a, b, m], [b, a, m], [a, b, 3 - m]])))
    try:
        built = SubsystemGraph(
            graph.alpha,
            tuple(ModeRecord(*mode) for mode in modes),
            tuple(SubsystemEdge(*edge) for edge in edges),
        )
    except DomainError:
        built = None
    try:
        read = from_json(_raw_document(graph.alpha, modes, edges))
    except GraphParseError:
        read = None
    assert (built is None) == (read is None)
    if built is not None:
        assert read == built
        text = to_json(built)
        assert to_json(from_json(text)) == text


_SPECS = [momentum(), gkp_plus(), gkp_labeled(0.6, 0.8j)]


def _edges_from_terms(terms, alpha, specs):
    """Graph edges read off a term list: one per term, sorted, pinned u nodes absorbed."""
    pinned = {3 * i + 2 for i, spec in enumerate(specs) if spec.cv_type.is_gkp}
    edges = []
    for t in terms:
        (mode_a, kind_a), (mode_b, kind_b) = t.op_a, t.op_b
        a = 3 * mode_a + kind_a.offset
        b = 3 * mode_b + kind_b.offset
        modular = (kind_a is U) + (kind_b is U)
        if a not in pinned and b not in pinned:
            edges.append(SubsystemEdge(a, b, round(t.coefficient * alpha**modular / math.pi)))
    return tuple(sorted(edges, key=lambda e: (e.a, e.b)))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_edge_list_and_matrix_forms_agree(data):
    """An edge file with repeated and reversed pairs and the dense matrix of the
    same pairs build the same graph and the same decomposition."""
    n = data.draw(st.integers(1, 12), label="n_modes")
    pairs = (
        data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda p: p[0] != p[1]
                ),
                max_size=30,
            ),
            label="pairs",
        )
        if n > 1
        else []
    )
    repeats = (
        data.draw(st.lists(st.sampled_from(pairs), max_size=6), label="repeats") if pairs else []
    )
    written = data.draw(
        st.permutations(pairs + [(j, i) for i, j in repeats] + repeats[:2]), label="order"
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.json"
        path.write_text(json.dumps({"n_modes": n, "edges": [list(p) for p in written]}))
        topology = parse_topology(str(path))
    matrix = np.zeros((n, n))
    for i, j in written:
        matrix[i, j] = matrix[j, i] = 1.0
    assert topology.n_modes == n
    assert len(topology.edges) == int(matrix.sum()) // 2

    alpha = data.draw(st.sampled_from([DEFAULT_ALPHA, 1.0, 2.5]), label="alpha")
    specs = data.draw(st.lists(st.sampled_from(_SPECS), min_size=n, max_size=n), label="specs")
    from_edges = build_cluster(topology, specs, alpha)
    from_matrix = build_cluster(matrix, specs, alpha)
    assert to_json(from_edges) == to_json(from_matrix)
    assert np.array_equal(logical_subgraph(from_edges), matrix)

    by_edges = decompose_cz_multimode(topology, alpha)
    by_matrix = decompose_cz_multimode(matrix, alpha)
    assert by_edges.logical_terms == by_matrix.logical_terms
    assert by_edges.gauge_terms == by_matrix.gauge_terms
    assert by_edges.interaction_terms == by_matrix.interaction_terms
    # the stamped graph edges are the decomposition's terms, sorted and absorbed
    assert from_edges.edges == _edges_from_terms(by_edges.all_terms, alpha, specs)


class TestStructuralComparison:
    def test_renumbered_modes_are_structurally_equal(self):
        graph = build_cluster(chain_adjacency(3), [gkp_plus(), momentum(), momentum()], 1.0)
        renumbered = _relabeled(graph, [2, 5, 9], [2, 0, 1])
        assert renumbered.modes[0].index == 9 and renumbered != graph
        assert structurally_equal(graph, renumbered) and structurally_equal(renumbered, graph)

    def test_structural_equality_ignores_labels(self):
        x, y = (ModeSpec(CvType.GKP_LABELED, label, (0.6, 0.8)) for label in "xy")
        a = build_cluster(chain_adjacency(2), [momentum(), x], 1.0)
        b = build_cluster(chain_adjacency(2), [momentum(), y], 1.0)
        assert structurally_equal(a, b)

    def test_structural_inequality_on_amplitudes(self):
        a = build_cluster(chain_adjacency(2), [momentum(), gkp_labeled(0.6, 0.8)], 1.0)
        b = build_cluster(chain_adjacency(2), [momentum(), gkp_labeled(0.8, 0.6)], 1.0)
        assert not structurally_equal(a, b)

    def test_graph_shape_ignores_amplitudes(self):
        a = build_cluster(chain_adjacency(2), [momentum(), gkp_labeled(0.6, 0.8)], 1.0)
        b = build_cluster(chain_adjacency(2), [momentum(), gkp_labeled(0.8, 0.6)], 1.0)
        assert graph_shape(a) == graph_shape(b)

    def test_alpha_and_mode_count_matter(self):
        graph = build_cluster(chain_adjacency(2), [momentum(), gkp_plus()], 1.0)
        scaled = build_cluster(chain_adjacency(2), [momentum(), gkp_plus()], 2.0)
        longer = build_cluster(chain_adjacency(3), [momentum(), momentum(), gkp_plus()], 1.0)
        for other in (scaled, longer):
            assert not structurally_equal(graph, other)
            assert not structurally_equal(other, graph)

    def test_cv_type_matters(self):
        a = build_cluster(chain_adjacency(2), [momentum(), gkp_plus()], 1.0)
        b = build_cluster(chain_adjacency(2), [momentum(), momentum()], 1.0)
        assert not structurally_equal(a, b)


def _relabeled(graph, new_index, order, labels=None):
    """``graph`` with the mode at place k (in index order) renumbered ``new_index[k]``,
    its edge ends following, and the modes listed in the order ``order`` gives."""
    modes = sorted(graph.modes, key=lambda record: record.index)
    renamed = {record.index: new_index[k] for k, record in enumerate(modes)}

    def renumber(node_id):
        return 3 * renamed[node_id // 3] + node_id % 3

    records = tuple(
        ModeRecord(
            renamed[modes[k].index],
            modes[k].cv_type,
            modes[k].label if labels is None else labels[k],
            modes[k].amplitudes,
        )
        for k in order
    )
    edges = tuple(
        SubsystemEdge(renumber(e.b), renumber(e.a), e.multiplicity) for e in reversed(graph.edges)
    )
    return SubsystemGraph(graph.alpha, records, edges)


def _with_mode(graph, place, **fields):
    """``graph`` with fields of the mode at ``place`` replaced; edges at a newly pinned
    modular node are dropped, as every graph drops them."""
    records = list(graph.modes)
    old = records[place]
    values = {"cv_type": old.cv_type, "label": old.label, "amplitudes": old.amplitudes}
    records[place] = ModeRecord(old.index, **{**values, **fields})
    pinned = 3 * old.index + U.offset if records[place].cv_type.is_gkp else None
    edges = tuple(e for e in graph.edges if pinned not in (e.a, e.b))
    return SubsystemGraph(graph.alpha, tuple(records), edges)


_SPEC_DRAWS = st.one_of(
    st.just(momentum()),
    st.just(gkp_plus()),
    st.builds(
        lambda weight, phase: gkp_labeled(
            math.sqrt(weight), math.sqrt(1 - weight) * cmath.exp(1j * phase)
        ),
        st.floats(0.2, 0.8),
        st.floats(0.0, 2 * math.pi),
    ),
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_structural_equality_property(data):
    """A graph equals itself renumbered by any strictly increasing index map, with its
    modes and edges listed in another order; one changed multiplicity, cv_type, edge or
    amplitude (by more than 1e-12) makes it unequal, and labels or an amplitude change
    below 1e-12 do not."""
    n = data.draw(st.integers(1, 6), label="modes")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    topology = Topology(n, tuple(pair for pair, kept in zip(pairs, keep) if kept))
    specs = data.draw(st.lists(_SPEC_DRAWS, min_size=n, max_size=n), label="specs")
    alpha = data.draw(st.sampled_from([DEFAULT_ALPHA, 1.0, 2.5]), label="alpha")
    graph = build_cluster(topology, specs, alpha)

    gaps = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n), label="gaps")
    new_index = [sum(gaps[: k + 1]) - 1 for k in range(n)]
    order = data.draw(st.permutations(range(n)), label="order")
    relabeled = _relabeled(graph, new_index, order)
    assert structurally_equal(graph, relabeled) and structurally_equal(relabeled, graph)

    labeled = [k for k, record in enumerate(relabeled.modes) if record.amplitudes is not None]
    changes = ["labels", "cv_type"] + ["edge", "multiplicity"] * bool(graph.edges)
    changes += ["add_edge"] * any(not kept for kept in keep)
    changes += ["amplitude_small", "amplitude_large"] * bool(labeled)
    change = data.draw(st.sampled_from(changes), label="change")
    if change == "labels":
        labels = data.draw(st.lists(st.one_of(st.none(), st.text(max_size=3)), min_size=n,
                                    max_size=n), label="labels")
        changed, equal = _relabeled(graph, new_index, order, labels), True
    elif change == "cv_type":
        place = data.draw(st.integers(0, n - 1), label="place")
        cv_type = relabeled.modes[place].cv_type
        fields = {"cv_type": CvType.MOMENTUM if cv_type is CvType.GKP_PLUS else CvType.GKP_PLUS,
                  "amplitudes": None}
        changed, equal = _with_mode(relabeled, place, **fields), False
    elif change in ("edge", "multiplicity"):
        k = data.draw(st.integers(0, len(relabeled.edges) - 1), label="edge")
        edges = list(relabeled.edges)
        e = edges.pop(k)
        if change == "multiplicity":
            edges.insert(k, SubsystemEdge(e.a, e.b, 3 - e.multiplicity))
        changed, equal = SubsystemGraph(alpha, relabeled.modes, tuple(edges)), False
    elif change == "add_edge":
        i, j = data.draw(st.sampled_from([p for p, kept in zip(pairs, keep) if not kept]))
        new_edge = SubsystemEdge(3 * new_index[i] + L.offset, 3 * new_index[j] + L.offset, 1)
        edges = relabeled.edges + (new_edge,)
        changed, equal = SubsystemGraph(alpha, relabeled.modes, edges), False
    else:
        place = data.draw(st.sampled_from(labeled), label="place")
        c0, c1 = relabeled.modes[place].amplitudes
        shift = data.draw(st.floats(0.0, 5e-13) if change == "amplitude_small"
                          else st.floats(2e-12, 1e-3), label="shift")
        # a phase on c1 keeps the norm and moves c1 by |c1| * |exp(i t) - 1| = shift
        turn = 2 * math.asin(shift / (2 * abs(c1)))
        changed = _with_mode(relabeled, place, amplitudes=(c0, c1 * cmath.exp(1j * turn)))
        equal = change == "amplitude_small"
    assert structurally_equal(graph, changed) is equal
    assert structurally_equal(changed, graph) is equal


@st.composite
def _written_graphs(draw):
    """A graph of the three kinds the package writes: a random build, a build's
    document read back with its modes and edges shuffled, or a wire's residual."""
    source = draw(st.sampled_from(["build", "shuffled-read", "wire-residual"]), label="source")
    n = draw(st.integers(0 if source == "build" else 1, 7), label="modes")
    spec_draws = st.one_of(
        _SPEC_DRAWS, st.builds(lambda label: ModeSpec(CvType.GKP_PLUS, label), st.text(max_size=4))
    )
    specs = draw(st.lists(spec_draws, min_size=n, max_size=n), label="specs")
    alpha = draw(st.sampled_from([DEFAULT_ALPHA, 1.0, 2.5]), label="alpha")
    if source == "wire-residual":
        # the walk refuses to hop into a labeled mode, so only the last mode
        # keeps a label; labeled, it is the input
        specs[:-1] = [gkp_plus() if s.cv_type is CvType.GKP_LABELED else s for s in specs[:-1]]
        if not (specs[0].cv_type.is_gkp or specs[-1].cv_type.is_gkp):
            specs[-1] = gkp_labeled(0.6, 0.8j)
        wire = build_cluster(chain_topology(n), specs, alpha)
        return run_wire(wire, draw(st.integers(0, n - 1), label="steps")).graph
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)), label="keep")
    topology = Topology(n, tuple(pair for pair, kept in zip(pairs, keep) if kept))
    graph = build_cluster(topology, specs, alpha)
    if source == "build":
        return graph
    doc = json.loads(to_json(graph))
    doc["modes"] = draw(st.permutations(doc["modes"]), label="mode order")
    doc["edges"] = draw(st.permutations(doc["edges"]), label="edge order")
    return from_json(json.dumps(doc))


def _reference_document(graph):
    """The document of ``alpha``, ``modes`` and ``edges`` built field by field from
    the records, in record order: what ``to_json`` must encode."""
    modes = []
    for record in graph.modes:
        mode = {"index": record.index, "cv_type": record.cv_type.value}
        if record.label is not None:
            mode["label"] = record.label
        if record.amplitudes is not None:
            mode["amplitudes"] = [[z.real, z.imag] for z in record.amplitudes]
        modes.append(mode)
    edges = [{"a": e.a, "b": e.b, "multiplicity": e.multiplicity} for e in graph.edges]
    return {"alpha": graph.alpha, "modes": modes, "edges": edges}


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(graph=_written_graphs())
def test_to_json_is_the_sorted_indented_dump_of_the_records(graph):
    """The writer's reference: every written document is exactly
    ``json.dumps(doc, indent=2, sort_keys=True)`` of the records' fields, and
    reads back to an equal graph."""
    text = to_json(graph)
    assert text == json.dumps(_reference_document(graph), indent=2, sort_keys=True) + "\n"
    assert from_json(text) == graph


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(graph=_written_graphs(), data=st.data())
def test_a_legacy_document_reads_as_its_new_form(graph, data):
    """A document in the older form, its ``nodes`` list in any order, reads to the
    graph its new form reads to, and renders to the same DOT."""
    doc = legacy_document(graph)
    doc["nodes"] = data.draw(st.permutations(doc["nodes"]), label="node order")
    legacy = from_json(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    current = from_json(to_json(graph))
    assert legacy == current == graph
    assert render_dot(legacy) == render_dot(current)
