import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from grid_reference import NODE_DEFECTS, legacy_document
from hiddencluster.certify import direct_cluster_state, run_verification
from hiddencluster.cli import main, parse_alpha, parse_node_specs, parse_topology
from hiddencluster.errors import DomainError
from hiddencluster.gates import Topology, chain_topology
from hiddencluster.graphs import CvType, build_cluster, from_json, momentum, render_dot
from hiddencluster.measurement import run_wire
from hiddencluster.modular import DEFAULT_ALPHA, require_bin_size
from hiddencluster.oracle import GridSpec


def run(*argv):
    return main(list(argv))


def read_graph(path):
    return from_json(path.read_text(encoding="utf-8"))


def dot_node_count(graph):
    """The number of node lines in the graph's DOT text."""
    return sum(" [shape=" in line for line in render_dot(graph).splitlines())


class TestParsers:
    def test_alpha_alias(self):
        assert parse_alpha("sqrt_pi") == math.sqrt(math.pi)
        assert parse_alpha("2.5") == 2.5
        with pytest.raises(DomainError, match="^invalid bin size 'two'$"):
            parse_alpha("two")
        # the parser reads the number; the library's bin-size rule refuses it
        assert parse_alpha("-1") == -1.0
        with pytest.raises(DomainError, match="^bin size must be finite and positive, got -1.0$"):
            require_bin_size(parse_alpha("-1"))

    def test_node_specs(self):
        specs = parse_node_specs("p,p,gkp+,gkp:+", 4)
        assert [s.cv_type for s in specs] == [
            CvType.MOMENTUM,
            CvType.MOMENTUM,
            CvType.GKP_PLUS,
            CvType.GKP_PLUS,
        ]

    def test_labeled_spec_consumes_two_tokens(self):
        specs = parse_node_specs("p,gkp:0.6,0.8", 2)
        assert specs[1].cv_type is CvType.GKP_LABELED
        assert specs[1].amplitudes == (0.6 + 0j, 0.8 + 0j)

    def test_complex_amplitudes(self):
        specs = parse_node_specs("gkp:0.6,0.8j", 1)
        assert specs[0].amplitudes == (0.6 + 0j, 0.8j)

    def test_broadcast(self):
        specs = parse_node_specs("gkp+", 6)
        assert len(specs) == 6

    def test_count_mismatch(self):
        # the parser broadcasts one entry only; the build refuses a short list
        specs = parse_node_specs("p,p", 3)
        assert len(specs) == 2
        with pytest.raises(DomainError, match="^3 modes in adjacency but 2 node types$"):
            build_cluster(chain_topology(3), specs, DEFAULT_ALPHA)

    def test_unknown_type(self):
        with pytest.raises(DomainError):
            parse_node_specs("qubit", 1)

    @pytest.mark.parametrize(
        "n, nodes, message",
        [
            (1, "gkp:abc,1", "invalid amplitude 'abc'"),
            (2, "p,gkp:1", "'gkp:1' needs two amplitudes: gkp:c0,c1"),
        ],
        ids=["bad-amplitude", "one-amplitude"],
    )
    def test_malformed_labeled_spec_exits_2(self, n, nodes, message, capsys):
        with pytest.raises(DomainError) as refused:
            parse_node_specs(nodes, n)
        assert str(refused.value) == message
        assert run("build", "--topology", f"chain:{n}", "--nodes", nodes) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_topology_chain_and_grid(self):
        assert parse_topology("chain:3") == Topology(3, ((0, 1), (1, 2)))
        grid = parse_topology("grid:2x3")
        assert grid.n_modes == 6 and len(grid.edges) == 7
        assert grid.edges == ((0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5))

    def test_topology_edge_list(self, tmp_path):
        path = tmp_path / "edges.json"
        path.write_text(json.dumps({"n_modes": 4, "edges": [[0, 1], [1, 3]]}))
        assert parse_topology(str(path)) == Topology(4, ((0, 1), (1, 3)))
        path2 = tmp_path / "bare.json"
        path2.write_text("[[0, 2]]")
        assert parse_topology(str(path2)) == Topology(3, ((0, 2),))
        path3 = tmp_path / "repeated.json"
        path3.write_text("[[2, 0], [1, 2], [0, 2], [2, 1], [2, 0]]")
        topology = parse_topology(str(path3))
        assert topology.n_modes == 3
        assert topology.edges == ((0, 2), (1, 2))

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"n_modes": 3, "edges": [[0, 1], [2, 2]]}', "self-loop at mode 2"),
            ('{"n_modes": 3, "edges": [[0, -1]]}', "edge (-1, 0) must have ends"),
            ("[[-3, -2]]", "edge (-3, -2) must have ends"),
            ('{"n_modes": 3, "edges": [[1, 3]]}', "edge (1, 3) must have ends"),
            ('{"n_modes": -1, "edges": []}', "n_modes must be nonnegative, got -1"),
            ('{"edges": [[0, 1, 2]]}', "edges must be [i, j] pairs"),
        ],
        ids=["self-loop", "negative-end", "implied-count-negative-ends", "end-past-n-modes",
             "negative-n-modes", "edge-triple"],
    )
    @pytest.mark.parametrize("command", ["build", "decompose"])
    def test_invalid_edge_file_exits_2_naming_the_file(
        self, command, text, message, tmp_path, capsys
    ):
        path = tmp_path / "bad-edges.json"
        path.write_text(text)
        with pytest.raises(DomainError, match=f"^{re.escape(str(path))}: "):
            parse_topology(str(path))
        argv = [command, "--topology", str(path)]
        argv += ["--nodes", "p"] if command == "build" else []
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err and err.count("\n") == 1


class TestBuild:
    def test_chain_five(self, tmp_path):
        out = tmp_path / "wire.json"
        code = run(
            "build",
            "--topology", "chain:5",
            "--nodes", "p,p,p,p,gkp:+",
            "--alpha", "1.7724538509",
            "-o", str(out),
        )
        assert code == 0
        graph = read_graph(out)
        assert dot_node_count(graph) == 15
        assert graph.alpha == 1.7724538509

    def test_single_mode(self, tmp_path, capsys):
        assert run("build", "--topology", "chain:1", "--nodes", "p") == 0
        text = capsys.readouterr().out
        graph = from_json(text)
        assert dot_node_count(graph) == 3 and graph.edges == ()

    def test_gkp_grid_keeps_logical_edges_only(self, tmp_path):
        out = tmp_path / "grid.json"
        assert run("build", "--topology", "grid:2x3", "--nodes", "gkp+", "-o", str(out)) == 0
        graph = read_graph(out)
        assert len(graph.edges) == 7
        assert dot_node_count(graph) == 18

    def test_bad_spec_exits_2(self, capsys):
        assert run("build", "--topology", "chain:0", "--nodes", "p") == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_edge_file_exits_3(self, capsys):
        assert run("build", "--topology", "no/such/file.json", "--nodes", "p") == 3
        assert "io error:" in capsys.readouterr().err

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        out = tmp_path / "missing" / "deep" / "wire.json"
        assert run("build", "--topology", "chain:2", "--nodes", "p", "-o", str(out)) == 3

    def test_build_bytes_deterministic(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        args = ["build", "--topology", "grid:2x3", "--nodes", "gkp+"]
        assert run(*args, "-o", str(first)) == 0
        assert run(*args, "-o", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()


class TestDecompose:
    def test_two_mode_terms(self, capsys):
        assert run("decompose", "--g", "0.5", "--alpha", "1.0") == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["terms"]) == 9
        kinds = {(t["op_a"]["kind"], t["op_b"]["kind"]) for t in doc["terms"]}
        assert ("logical", "logical") in kinds

    def test_tuned_multimode_partition(self, capsys):
        assert run("decompose", "--topology", "chain:3", "--alpha", "sqrt_pi") == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["logical_terms"]) == 2
        assert len(doc["gauge_terms"]) == 6
        assert len(doc["interaction_terms"]) == 4

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--g", "-2.5", "--alpha", "1.0"],
             "6722d955463e5cdd7c7af7774ea91701e202a0cb791b0f28fb7e7695e396a994"),
            (["--g", "1.7"],
             "d7689c0c51517d3a4d10fe5130607e3f57f765e1edcf465930ddce518b0c1e18"),
            (["--topology", "grid:2x3"],
             "4a0ced9b33ca404904c509004b15a9a813ddcf56255ae70ded096e11df0c7a85"),
        ],
        ids=["g-detuned", "g-generic", "grid-2x3"],
    )
    def test_document_bytes_are_pinned(self, argv, digest, tmp_path):
        """Each document's SHA-256: a change to the term record or to its
        encoding that moves any byte fails here."""
        out = tmp_path / "terms.json"
        assert run("decompose", *argv, "-o", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_requires_g_or_topology(self, capsys):
        assert run("decompose") == 2

    def test_rejects_both_g_and_topology(self, capsys):
        assert run("decompose", "--g", "1.0", "--topology", "chain:2") == 2

    @pytest.mark.parametrize("topology", ["chain:3", "grid:3x4", "edges.json"])
    def test_topology_document_is_a_topology_input(self, topology, tmp_path, monkeypatch):
        """The document names its topology in the edge-file format, so passing it
        back as --topology decomposes the same gate, byte for byte."""
        monkeypatch.chdir(tmp_path)
        # reversed and repeated pairs, and a mode (4) that no edge touches
        edges = [[2, 0], [0, 2], [3, 1], [1, 3], [1, 2]]
        Path("edges.json").write_text(json.dumps({"n_modes": 5, "edges": edges}))
        assert run("decompose", "--topology", topology, "-o", "first.json") == 0
        doc = json.loads(Path("first.json").read_text())
        assert sorted(doc) == ["alpha", "edges", "gauge_terms", "interaction_terms",
                               "logical_terms", "n_modes"]
        expected = parse_topology(topology)
        assert doc["n_modes"] == expected.n_modes
        assert doc["edges"] == [list(edge) for edge in expected.edges]
        assert parse_topology("first.json") == expected
        assert run("decompose", "--topology", "first.json", "-o", "second.json") == 0
        assert Path("second.json").read_bytes() == Path("first.json").read_bytes()


class TestSmallestBinSizes:
    """Bin sizes near the lower end of the valid interval build and decompose
    with finite numbers, and the built document reads back."""

    def test_build_writes_finite_numbers(self, tmp_path):
        out = tmp_path / "wire.json"
        argv = ["--topology", "chain:5", "--nodes", "p", "--alpha", "2e-154"]
        assert run("build", *argv, "-o", str(out)) == 0
        text = out.read_text(encoding="utf-8")
        assert "Infinity" not in text and "NaN" not in text
        assert read_graph(out).alpha == 2e-154
        assert run("render", "--input", str(out), "-o", str(tmp_path / "wire.dot")) == 0

    def test_decompose_writes_finite_numbers(self, tmp_path):
        out = tmp_path / "terms.json"
        argv = ["--topology", "chain:3", "--alpha", "1.3219564750381271e-154"]
        assert run("decompose", *argv, "-o", str(out)) == 0
        text = out.read_text(encoding="utf-8")
        assert "Infinity" not in text and "NaN" not in text
        doc = json.loads(text)
        terms = doc["logical_terms"] + doc["gauge_terms"] + doc["interaction_terms"]
        assert len(terms) == 12
        assert all(math.isfinite(t["coefficient"]) for t in terms)

    @pytest.mark.parametrize("alpha", ["2.65e-154", "2.7e-154", "3e-154"])
    def test_verify_passes_where_a_weight_times_four_overflows(self, alpha, capsys):
        # seed 7 draws a weight above a quarter of the float maximum at each size
        assert run("verify", "--alpha", alpha, "--seed", "7") == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True


class TestMeasureAndWire:
    def build_wire(self, tmp_path, n, nodes):
        path = tmp_path / "wire.json"
        assert run("build", "--topology", f"chain:{n}", "--nodes", nodes, "-o", str(path)) == 0
        return path

    def test_measure_writes_graph_and_log(self, tmp_path):
        wire = self.build_wire(tmp_path, 3, "p,p,gkp:0.6,0.8")
        out = tmp_path / "after.json"
        log = tmp_path / "log.jsonl"
        assert run("measure", "--input", str(wire), "--mode", "2", "-o", str(out), "--log", str(log)) == 0
        graph = read_graph(out)
        assert len(graph.modes) == 2
        lines = log.read_text().splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["step"] == 1
        assert entry["measured_mode"] == 2
        assert entry["outcome"] == 0
        assert entry["hadamard_count"] == 1
        assert len(entry["label"]) == 2

    def test_measure_momentum_exits_4(self, tmp_path, capsys):
        wire = self.build_wire(tmp_path, 3, "p,p,gkp+")
        assert run("measure", "--input", str(wire), "--mode", "0") == 4
        assert "unsupported:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "n, nodes, argv",
        [
            (2, "gkp:0.6,0.8,gkp:1,0", ["measure", "--mode", "1"]),
            (3, "gkp:1,0,p,gkp:0.6,0.8", ["run-wire", "--steps", "2"]),
        ],
        ids=["measure", "run-wire"],
    )
    def test_hop_into_labeled_mode_exits_4(self, n, nodes, argv, tmp_path, capsys):
        wire = self.build_wire(tmp_path, n, nodes)
        out = tmp_path / "out.json"
        assert run(argv[0], "--input", str(wire), *argv[1:], "-o", str(out)) == 4
        err = capsys.readouterr().err
        assert err.startswith("unsupported: mode 0 is labeled;") and err.count("\n") == 1
        assert not out.exists()

    def test_path_beside_a_triangle_exits_4(self, tmp_path, capsys):
        edges = tmp_path / "edges.json"
        edges.write_text(json.dumps({"n_modes": 5, "edges": [[0, 1], [2, 3], [2, 4], [3, 4]]}))
        graph = tmp_path / "graph.json"
        assert run("build", "--topology", str(edges), "--nodes", "gkp+", "-o", str(graph)) == 0
        out, log = tmp_path / "out.json", tmp_path / "log.jsonl"
        capsys.readouterr()
        argv = ["--input", str(graph), "--steps", "1", "-o", str(out), "--log", str(log)]
        assert run("run-wire", *argv) == 4
        captured = capsys.readouterr()
        assert captured.err == "unsupported: run_wire requires a linear chain of modes\n"
        assert captured.out == "" and not out.exists() and not log.exists()

    @pytest.mark.parametrize("existing", [None, b"earlier bytes\n"], ids=["absent", "present"])
    @pytest.mark.parametrize(
        "argv", [["measure", "--mode", "2"], ["run-wire", "--steps", "1"]], ids=["measure", "run-wire"]
    )
    def test_failed_log_leaves_the_output_untouched(self, argv, existing, tmp_path, capsys):
        """A ``--log`` that cannot be written exits 3 before ``-o`` is written: an
        absent output stays absent and an existing one keeps its bytes."""
        wire = self.build_wire(tmp_path, 3, "p,p,gkp+")
        out, log = tmp_path / "out.json", tmp_path / "no-such-dir" / "log.jsonl"
        if existing is not None:
            out.write_bytes(existing)
        capsys.readouterr()
        options = ["--log", str(log), "-o", str(out)]
        assert run(argv[0], "--input", str(wire), *argv[1:], *options) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("io error: ") and captured.err.count("\n") == 1
        assert captured.out == "" and not log.exists()
        assert (out.read_bytes() if out.exists() else None) == existing

    def test_run_wire_full(self, tmp_path):
        wire = self.build_wire(tmp_path, 4, "p,p,p,gkp:0.6,0.8")
        out = tmp_path / "final.json"
        log = tmp_path / "log.jsonl"
        assert run("run-wire", "--input", str(wire), "--steps", "3", "-o", str(out), "--log", str(log)) == 0
        graph = read_graph(out)
        assert len(graph.modes) == 1
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert [entry["step"] for entry in lines] == [1, 2, 3]
        assert [entry["hadamard_count"] for entry in lines] == [1, 2, 3]

    @pytest.mark.parametrize(
        "argv", [["measure", "--mode", "2"], ["run-wire", "--steps", "1"]], ids=["measure", "run-wire"]
    )
    def test_legacy_input_writes_the_document_without_nodes(self, argv, tmp_path):
        wire = self.build_wire(tmp_path, 3, "p,p,gkp:0.6,0.8")
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(legacy_document(read_graph(wire)), indent=2), encoding="utf-8")
        written = {}
        for name, path in (("legacy", legacy), ("current", wire)):
            written[name] = tmp_path / f"{name}-out.json"
            assert run(argv[0], "--input", str(path), *argv[1:], "-o", str(written[name])) == 0
        assert written["legacy"].read_bytes() == written["current"].read_bytes()
        assert set(json.loads(written["legacy"].read_text(encoding="utf-8"))) == {
            "alpha", "modes", "edges"
        }

    def test_run_wire_zero_steps_copies_graph(self, tmp_path):
        wire = self.build_wire(tmp_path, 3, "p,p,gkp+")
        out = tmp_path / "copy.json"
        assert run("run-wire", "--input", str(wire), "--steps", "0", "-o", str(out)) == 0
        assert read_graph(out) == read_graph(wire)

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("run-wire-steps5", ["run-wire", "--steps", "5"]),
            ("run-wire-steps0", ["run-wire", "--steps", "0"]),
            ("measure-mode5", ["measure", "--mode", "5"]),
        ],
    )
    def test_walk_bytes_are_pinned(self, name, argv, tmp_path):
        """The residual graphs and JSON-lines logs under ``tests/data/walk`` pin every
        byte ``measure`` and ``run-wire`` write for a six-mode wire whose label
        has an imaginary amplitude, so a float outcome or a changed
        rounding of the label fails here.  Zero steps write the input graph and
        an empty log."""
        wire = self.build_wire(tmp_path, 6, "p,p,p,p,p,gkp:0.6,0.8j")
        out, log = tmp_path / "out.json", tmp_path / "log.jsonl"
        options = ["-o", str(out), "--log", str(log)]
        assert run(argv[0], "--input", str(wire), *argv[1:], *options) == 0
        data = Path(__file__).parent / "data" / "walk"
        assert out.read_bytes() == (data / f"{name}.json").read_bytes()
        assert log.read_bytes() == (data / f"{name}.jsonl").read_bytes()

    @pytest.mark.parametrize("steps", ["0", "1"])
    def test_graph_without_modes_exits_2(self, steps, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"alpha": DEFAULT_ALPHA, "modes": [], "edges": []}))
        assert run("run-wire", "--input", str(path), "--steps", steps) == 2
        assert capsys.readouterr().err == (
            "error: run_wire needs a wire of at least one mode, got a graph with none\n"
        )

    @pytest.mark.parametrize(
        "input_mode, name",
        [
            ({"cv_type": "gkp_labeled", "amplitudes": [[0.6, 0.0], [0.0, 0.8]]}, "psi"),
            ({"cv_type": "gkp_plus", "label": "phi"}, "+"),
        ],
        ids=["labeled-without-label", "plus-type-with-label"],
    )
    @pytest.mark.parametrize(
        "argv", [["measure", "--mode", "1"], ["run-wire", "--steps", "1"]], ids=["measure", "run-wire"]
    )
    def test_walk_names_its_input_as_render_draws_it(self, input_mode, name, argv, tmp_path):
        """A hand-written input mode that ``render`` draws as ``name`` teleports as
        ``H(name)``: a labeled mode is its label or ``psi``, a plus-type mode ``+``."""
        path, dot, out = tmp_path / "wire.json", tmp_path / "wire.dot", tmp_path / "out.json"
        modes = [{"index": 0, "cv_type": "gkp_plus"}, {"index": 1, **input_mode}]
        edges = [{"a": 0, "b": 3, "multiplicity": 1}]
        path.write_text(json.dumps({"alpha": DEFAULT_ALPHA, "modes": modes, "edges": edges}))
        assert run("render", "--input", str(path), "-o", str(dot)) == 0
        assert f'  n3 [shape=diamond, label="{name}"' in dot.read_text().splitlines()[5]
        assert run(argv[0], "--input", str(path), *argv[1:], "-o", str(out)) == 0
        assert read_graph(out).mode_by_index(0).label == f"H({name})"

    @pytest.mark.parametrize(
        "argv",
        [["render"], ["measure", "--mode", "-1", "--log", "{tmp}/log.jsonl"],
         ["run-wire", "--steps", "1", "--log", "{tmp}/log.jsonl"]],
        ids=["render", "measure", "run-wire"],
    )
    def test_negative_mode_index_exits_2(self, argv, tmp_path, capsys):
        """A mode index of -1 would give node ids such as ``n-3``, which DOT cannot
        read; every command that reads the document refuses it and writes nothing."""
        path, out = tmp_path / "graph.json", tmp_path / "out"
        modes = [{"index": -1, "cv_type": "gkp_plus"}, {"index": 0, "cv_type": "gkp_plus"}]
        edges = [{"a": -3, "b": 0, "multiplicity": 1}]
        path.write_text(json.dumps({"alpha": DEFAULT_ALPHA, "modes": modes, "edges": edges}))
        options = [arg.format(tmp=tmp_path) for arg in argv[1:]]
        assert run(argv[0], "--input", str(path), *options, "-o", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: malformed graph document: mode -1: mode index must be nonnegative, got -1\n"
        )
        assert captured.out == "" and sorted(tmp_path.iterdir()) == [path]

    def test_too_many_steps_exits_2(self, tmp_path):
        wire = self.build_wire(tmp_path, 3, "p,p,gkp+")
        assert run("run-wire", "--input", str(wire), "--steps", "5") == 2

    def test_corrupt_graph_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        assert run("measure", "--input", str(path), "--mode", "0") == 2


class TestVerify:
    def test_default_run_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert run("verify", "-o", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        deviations = {
            c["name"]: c["max_deviation"] for c in report["checks"]
        }
        assert deviations["cv_cluster_identity"] < 1e-12

    def test_degenerate_grid_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert run("verify", "--n", "1", "-o", str(out)) == 0

    def test_detuned_gate_flagged(self, tmp_path):
        out = tmp_path / "report.json"
        assert run("verify", "--g-scale", "0.5", "-o", str(out)) == 5
        report = json.loads(out.read_text())
        failing = {c["name"] for c in report["checks"] if not c["passed"]}
        assert "cv_cluster_identity" in failing

    def test_resource_guard(self, capsys):
        # the budget is the one bound on the grid size: 50**4 and 128**3
        # amplitudes are over it
        assert run("verify", "--n", "5", "--max-modes", "4") == 2
        assert "budget of 2**20 = 1048576" in capsys.readouterr().err
        assert run("verify", "--n", "8") == 2
        assert "budget of 2**20 = 1048576" in capsys.readouterr().err
        assert run("verify", "--n", "2", "--max-modes", "7") == 2
        assert "budget of 2**20 = 1048576" in capsys.readouterr().err
        assert run("verify", "--n", "4", "--max-modes", "5") == 2
        assert run("verify", "--n", "1", "--max-modes", "11") == 2

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_g_scale_names_the_flag(self, value, capsys):
        assert run("verify", "--g-scale", value) == 2
        assert capsys.readouterr().err == f"error: g_scale must be finite, got {value}\n"

    def test_report_bytes_deterministic(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run("verify", "--seed", "7", "-o", str(first)) == 0
        assert run("verify", "--seed", "7", "-o", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "name, argv, code",
        [
            ("seed7", ["--seed", "7"], 0),
            ("n4-seed11", ["--n", "4", "--seed", "11"], 0),
            ("n4-max-modes4-seed5", ["--n", "4", "--max-modes", "4", "--seed", "5"], 0),
            ("n16-max-modes2-seed7", ["--n", "16", "--max-modes", "2", "--seed", "7"], 0),
            ("n1-max-modes10-seed3", ["--n", "1", "--max-modes", "10", "--seed", "3"], 0),
            ("g-scale0.5-seed9", ["--g-scale", "0.5", "--seed", "9"], 5),
        ],
        ids=["seed7", "n4-seed11", "n4-max-modes4-seed5", "n16-max-modes2-seed7",
             "n1-max-modes10-seed3", "g-scale0.5-seed9"],
    )
    def test_report_bytes_are_pinned(self, name, argv, code, tmp_path, monkeypatch):
        """The first three reports under ``tests/data`` were written when the
        oracle still computed every amplitude of each state, with numpy 2.4 on
        x86-64.  The n = 16 report was written, on the same numpy, by the
        change that let ``verify`` take grids past n = 4; it pins a grid size
        the other three never reach.  The n = 1 report, written on the same
        numpy while ``verify`` still folded one-step measurements, pins wires
        of up to ten modes, so walks of up to nine steps.  The detuned
        g_scale = 0.5 report, written on the same numpy, is the negative
        control: it exits 5 with five failing checks, and pins the sizes of
        their deviations.  Deviations that pass are round-off figures, so
        these bytes also pin the order of the oracle's floating-point
        operations.  The five passing reports' ``unzip_teleportation``
        deviations were written again when the oracle's norms and overlaps
        moved from BLAS to numpy's own sums, which no BLAS thread count
        changes."""
        monkeypatch.delenv("HIDDENCLUSTER_SEED", raising=False)
        out = tmp_path / "report.json"
        assert run("verify", *argv, "-o", str(out)) == code
        pinned = Path(__file__).parent / "data" / f"verify-{name}.json"
        assert out.read_bytes() == pinned.read_bytes()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        by_flag = tmp_path / "flag.json"
        by_env = tmp_path / "env.json"
        assert run("verify", "--seed", "123", "-o", str(by_flag)) == 0
        monkeypatch.setenv("HIDDENCLUSTER_SEED", "123")
        assert run("verify", "-o", str(by_env)) == 0
        assert by_flag.read_bytes() == by_env.read_bytes()

    def test_non_integer_env_seed_exits_2(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "report.json"
        monkeypatch.setenv("HIDDENCLUSTER_SEED", "abc")
        assert run("verify", "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert err == "error: HIDDENCLUSTER_SEED must be an integer, got 'abc'\n"
        assert not out.exists()

    def test_env_seed_beats_flag(self, tmp_path, monkeypatch):
        base = tmp_path / "base.json"
        overridden = tmp_path / "overridden.json"
        assert run("verify", "--seed", "42", "-o", str(base)) == 0
        monkeypatch.setenv("HIDDENCLUSTER_SEED", "42")
        assert run("verify", "--seed", "999", "-o", str(overridden)) == 0
        assert base.read_bytes() == overridden.read_bytes()


class TestRender:
    def test_render_bytes_deterministic(self, tmp_path):
        wire = tmp_path / "wire.json"
        assert run("build", "--topology", "chain:3", "--nodes", "p,p,gkp+", "-o", str(wire)) == 0
        first = tmp_path / "a.dot"
        second = tmp_path / "b.dot"
        assert run("render", "--input", str(wire), "-o", str(first)) == 0
        assert run("render", "--input", str(wire), "-o", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()
        text = first.read_text()
        assert text.startswith("graph ")
        assert "shape=diamond" in text


class TestBadInputExits2:
    """Malformed values reach exit 2 with a one-line error, never a traceback."""

    @pytest.mark.parametrize(
        "env, argv",
        [
            ({}, ["build", "--topology", "{tmp}/edges_not_list.json", "--nodes", "p"]),
            ({}, ["build", "--topology", "{tmp}/edge_not_int.json", "--nodes", "p"]),
            ({"HIDDENCLUSTER_SEED": "-1"}, ["verify"]),
            ({}, ["verify", "--seed", "-1"]),
            ({}, ["build", "--topology", "chain:2", "--nodes", "p", "--alpha", "1e-320"]),
            ({}, ["build", "--topology", "chain:2", "--nodes", "p", "--alpha", "1e200"]),
            ({}, ["build", "--topology", "chain:2", "--nodes", "p,gkp:1,nan", "-o", "{tmp}/g.json"]),
            ({}, ["decompose", "--g", "1e308", "--alpha", "1e10"]),
            ({}, ["decompose", "--topology", "{tmp}/edge_float.json"]),
            ({}, ["decompose", "--topology", "{tmp}/edge_string.json"]),
            ({}, ["decompose", "--topology", "{tmp}/edge_bool.json"]),
            ({}, ["decompose", "--topology", "{tmp}/n_modes_float.json"]),
            ({}, ["decompose", "--topology", "{tmp}/n_modes_string.json"]),
            ({}, ["build", "--topology", "chain:10000000", "--nodes", "p"]),
            ({}, ["build", "--topology", "grid:5000x5000", "--nodes", "p"]),
            ({}, ["build", "--topology", "{tmp}/edge_far.json", "--nodes", "p"]),
            ({}, ["build", "--topology", "{tmp}/n_modes_huge.json", "--nodes", "p"]),
            ({}, ["build", "--topology", "{tmp}/n_modes_zero.json", "--nodes", "p"]),
            ({}, ["decompose", "--topology", "{tmp}/n_modes_zero.json"]),
            ({}, ["decompose", "--topology", "chain:10000000"]),
            ({}, ["decompose", "--g", "-1e308", "--alpha", "10"]),
            ({}, ["verify", "--g-scale", "inf"]),
            ({}, ["verify", "--g-scale", "nan"]),
            ({}, ["verify", "--g-scale", "-inf"]),
            ({}, ["verify", "--g-scale", "-Infinity"]),
            ({}, ["decompose", "--g", "-inf"]),
            ({}, ["decompose", "--g", "-nan"]),
            ({}, ["decompose", "--g", "-Infinity"]),
            ({}, ["decompose", "--g", "-NaN", "--alpha", "2.0"]),
            ({}, ["render", "--input", "{tmp}/alpha_string.json"]),
            ({}, ["render", "--input", "{tmp}/nodes_null.json", "-o", "{tmp}/g.json"]),
            ({}, ["measure", "--input", "{tmp}/nodes_null.json", "--mode", "0", "-o", "{tmp}/g.json"]),
            ({}, ["run-wire", "--input", "{tmp}/nodes_null.json", "--steps", "1", "-o", "{tmp}/g.json"]),
            ({}, ["verify", "--alpha", "1.3219564750381271e-154"]),
            ({}, ["verify", "--alpha", "2e-154"]),
            ({}, ["render", "--input", "{tmp}/deep.json", "-o", "{tmp}/g.json"]),
            ({}, ["measure", "--input", "{tmp}/deep.json", "--mode", "0", "-o", "{tmp}/g.json"]),
            ({}, ["run-wire", "--input", "{tmp}/deep.json", "--steps", "1", "-o", "{tmp}/g.json"]),
            ({}, ["build", "--topology", "{tmp}/deep.json", "--nodes", "p", "-o", "{tmp}/g.json"]),
            ({}, ["decompose", "--topology", "{tmp}/deep.json", "-o", "{tmp}/g.json"]),
            ({}, ["render", "--input", "{tmp}/long_int.json", "-o", "{tmp}/g.json"]),
            ({}, ["measure", "--input", "{tmp}/long_int.json", "--mode", "0", "-o", "{tmp}/g.json"]),
            ({}, ["run-wire", "--input", "{tmp}/long_int.json", "--steps", "1", "-o", "{tmp}/g.json"]),
            ({}, ["build", "--topology", "{tmp}/long_int.json", "--nodes", "p", "-o", "{tmp}/g.json"]),
            ({}, ["decompose", "--topology", "{tmp}/long_int.json", "-o", "{tmp}/g.json"]),
        ],
        ids=[
            "topology-edges-not-a-list",
            "topology-edge-not-an-int",
            "env-seed-negative",
            "flag-seed-negative",
            "alpha-squared-underflows",
            "alpha-squared-overflows",
            "nan-amplitude",
            "coefficient-overflows",
            "topology-edge-float",
            "topology-edge-string",
            "topology-edge-bool",
            "topology-n-modes-float",
            "topology-n-modes-string",
            "chain-too-long",
            "grid-too-large",
            "topology-edge-too-far",
            "topology-n-modes-too-large",
            "topology-n-modes-zero",
            "decompose-topology-n-modes-zero",
            "decompose-chain-too-long",
            "negative-exponent-weight-overflows",
            "g-scale-infinite",
            "g-scale-nan",
            "g-scale-negative-infinite",
            "g-scale-negative-infinity-spelled-out",
            "weight-negative-infinite",
            "weight-negative-nan",
            "weight-negative-infinity-spelled-out",
            "weight-negative-nan-mixed-case",
            "graph-alpha-string",
            "render-nodes-null",
            "measure-nodes-null",
            "run-wire-nodes-null",
            "verify-smallest-bin-size-weight-range-overflows",
            "verify-tiny-bin-size-weight-range-overflows",
            "render-json-too-deep",
            "measure-json-too-deep",
            "run-wire-json-too-deep",
            "build-json-too-deep",
            "decompose-json-too-deep",
            "render-json-integer-too-long",
            "measure-json-integer-too-long",
            "run-wire-json-integer-too-long",
            "build-json-integer-too-long",
            "decompose-json-integer-too-long",
        ],
    )
    def test_exits_2_without_traceback(self, env, argv, tmp_path, monkeypatch, capsys, recwarn):
        for name, text in {
            "edges_not_list": '{"edges": 5}',
            "edge_not_int": '[[1, "x"]]',
            "edge_float": "[[0, 1.9]]",
            "edge_string": '[[0, "2"]]',
            "edge_bool": "[[true, 2]]",
            "n_modes_float": '{"n_modes": 3.7, "edges": [[0, 1]]}',
            "n_modes_string": '{"n_modes": "4", "edges": [[0, 1]]}',
            "edge_far": "[[0, 10000000]]",
            "n_modes_huge": '{"n_modes": 10000000, "edges": []}',
            "n_modes_zero": '{"n_modes": 0, "edges": [[0, 1]]}',
            "alpha_string": '{"alpha": "1.5", "modes": [], "nodes": [], "edges": []}',
            # a present nodes key is checked whatever its value
            "nodes_null": '{"alpha": 1.0, "modes": [{"index": 0, "cv_type": "gkp_plus"}], '
            '"nodes": null, "edges": []}',
            # JSON the decoder cannot hold: past its nesting depth, past int's digit limit
            "deep": "[" * 100_000,
            "long_int": "1" * 5000,
        }.items():
            (tmp_path / f"{name}.json").write_text(text)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert run(*(arg.format(tmp=tmp_path) for arg in argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert err.count("\n") == 1 and "Warning" not in err and not recwarn.list
        assert not (tmp_path / "g.json").exists()


# Each value rule has one definition, in the library layer that owns the value.
# A case is (env, argv, the library call that owns the rule); ``{tmp}`` in argv
# and the call's argument name a directory holding ``wire.json``, a 3-mode wire.
_ALPHA_COMMANDS = {
    "build": ["build", "--topology", "chain:2", "--nodes", "p"],
    "decompose-g": ["decompose", "--g", "0.5"],
    "decompose-topology": ["decompose", "--topology", "chain:2"],
    "verify": ["verify", "--max-modes", "2"],
}
_ONE_RULE_CASES = {
    **{
        f"alpha-{value}-{name}": (
            {}, [*argv, "--alpha", value], lambda tmp, value=value: require_bin_size(float(value))
        )
        for value in ["inf", "nan", "-1", "0", "1e-400"]
        for name, argv in _ALPHA_COMMANDS.items()
    },
    "steps-negative": (
        {}, ["run-wire", "--input", "{tmp}/wire.json", "--steps", "-1"],
        lambda tmp: run_wire(read_graph(tmp / "wire.json"), -1),
    ),
    "seed-flag-negative": ({}, ["verify", "--seed", "-1"], lambda tmp: run_verification(seed=-1)),
    "seed-env-negative": (
        {"HIDDENCLUSTER_SEED": "-1"}, ["verify"], lambda tmp: run_verification(seed=-1)
    ),
    "node-count-short": (
        {}, ["build", "--topology", "chain:3", "--nodes", "p,p"],
        lambda tmp: build_cluster(chain_topology(3), [momentum()] * 2, DEFAULT_ALPHA),
    ),
    "g-scale-infinite": (
        {}, ["verify", "--g-scale", "inf"],
        lambda tmp: direct_cluster_state(
            GridSpec(2, DEFAULT_ALPHA), chain_topology(2), [momentum()] * 2, g_scale=math.inf
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(_ONE_RULE_CASES))
def test_cli_refuses_with_the_library_message(case, tmp_path, monkeypatch, capsys):
    """The CLI exits 2 with ``error: `` and exactly the message of the library
    call that owns the rule, so each rule has one text."""
    env, argv, call = _ONE_RULE_CASES[case]
    assert run("build", "--topology", "chain:3", "--nodes", "p,p,gkp+",
               "-o", str(tmp_path / "wire.json")) == 0
    monkeypatch.delenv("HIDDENCLUSTER_SEED", raising=False)
    with pytest.raises(DomainError) as refused:
        call(tmp_path)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    capsys.readouterr()
    assert run(*(arg.format(tmp=tmp_path) for arg in argv)) == 2
    assert capsys.readouterr().err == f"error: {refused.value}\n"


class TestBrokenNodeListExits2:
    """Every command that reads a graph refuses an older document's broken
    ``nodes`` list with exit 2 and the one-line message ``from_json`` gives,
    never a traceback."""

    @pytest.mark.parametrize("defect", sorted(NODE_DEFECTS))
    @pytest.mark.parametrize(
        "argv",
        [["render"], ["measure", "--mode", "2"], ["run-wire", "--steps", "1"]],
        ids=["render", "measure", "run-wire"],
    )
    def test_exits_2_without_traceback(self, argv, defect, tmp_path, capsys):
        path, out = tmp_path / "wire.json", tmp_path / "out"
        assert run("build", "--topology", "chain:3", "--nodes", "p,p,gkp+", "-o", str(path)) == 0
        doc = legacy_document(read_graph(path))
        edit, message = NODE_DEFECTS[defect]
        edit(doc["nodes"], len(doc["modes"]))
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert run(argv[0], "--input", str(path), *argv[1:], "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not out.exists()


class TestNegativeExponentValues:
    """argparse reads only -1 and -1.5 as numbers; -1e-3 must not be taken for an option."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--g", "-1e-3"],
            ["decompose", "--g", "-2.5E+1", "--alpha", "2.0"],
            ["verify", "--g-scale", "-1e-3", "--max-modes", "2"],
        ],
    )
    def test_spaced_value_matches_joined_value(self, argv, tmp_path):
        command, flag, value, *rest = argv
        spaced, joined = tmp_path / "spaced", tmp_path / "joined"
        code = run(*argv, "-o", str(spaced))
        assert run(command, f"{flag}={value}", *rest, "-o", str(joined)) == code
        assert spaced.read_bytes() == joined.read_bytes()

    def test_overflowing_weight_reaches_the_overflow_check(self, capsys):
        assert run("decompose", "--g", "-1e308", "--alpha", "10") == 2
        assert "overflows a coupling coefficient" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-inf", "-nan", "-INFINITY"])
    def test_negative_non_finite_weight_names_the_finite_rule(self, value, capsys):
        assert run("decompose", "--g", value) == 2
        expected = repr(float(value))
        assert capsys.readouterr().err == f"error: gate weight must be finite, got {expected}\n"


class TestAmplitudeOverflow:
    """``|c0|^2 + |c1|^2`` that overflows is refused as too large, by either route."""

    @pytest.mark.parametrize(
        "nodes",
        ["gkp:1e154,1e154", "gkp:1e200,1", "gkp:1,1e200j", "p,gkp:1e154j,1e154"],
        ids=["finite-squares-sum-to-inf", "square-overflows", "imaginary-square-overflows",
             "second-mode"],
    )
    def test_too_large_to_normalize(self, nodes, capsys, tmp_path):
        out = tmp_path / "g.json"
        assert run("build", "--topology", "chain:2", "--nodes", nodes, "-o", str(out)) == 2
        assert capsys.readouterr().err == "error: gkp amplitudes are too large to normalize\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "nodes, expected",
        [
            ("gkp:1e-200,1e-200", (1 / math.sqrt(2), 1 / math.sqrt(2))),
            ("gkp:1e-160,1e-160", (1 / math.sqrt(2), 1 / math.sqrt(2))),
            ("gkp:0,1e-170", (0.0, 1.0)),
        ],
        ids=["squares-underflow", "squares-subnormal", "one-amplitude-zero"],
    )
    def test_tiny_amplitudes_are_rescaled_before_normalizing(self, nodes, expected, tmp_path):
        out = tmp_path / "g.json"
        assert run("build", "--topology", "chain:1", "--nodes", nodes, "-o", str(out)) == 0
        assert read_graph(out).modes[0].amplitudes == tuple(complex(c) for c in expected)

    def test_zero_amplitudes_are_refused(self, capsys):
        assert run("build", "--topology", "chain:2", "--nodes", "gkp:0,0") == 2
        assert capsys.readouterr().err == "error: gkp amplitudes cannot both be zero\n"

    def test_normal_pairs_normalize_as_before(self):
        # a pair whose squares are normal floats takes the unscaled path
        (spec,) = parse_node_specs("gkp:3e-150,4e-150j", 1)
        norm = math.sqrt(abs(3e-150) ** 2 + abs(4e-150j) ** 2)
        assert spec.amplitudes == (3e-150 / norm + 0j, 4e-150j / norm)

    def test_large_finite_amplitudes_are_normalized(self, tmp_path):
        out = tmp_path / "g.json"
        assert run("build", "--topology", "chain:2", "--nodes", "gkp:3e153,4e153j",
                   "-o", str(out)) == 0
        assert read_graph(out).modes[0].amplitudes == pytest.approx((0.6, 0.8j), abs=1e-15)


_SRC = Path(__file__).resolve().parents[1] / "src"

_IMPORT_PROBE = """
import json, sys
import hiddencluster
from hiddencluster.cli import main
code = main(json.loads(sys.argv[1]))
print(json.dumps([code, "numpy" in sys.modules, "dataclasses" in sys.modules]))
"""


class TestNumpyStaysUnloaded:
    """Only ``verify`` needs the grid oracle, so only ``verify`` imports numpy;
    no command but ``verify`` imports ``dataclasses`` either."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("numpy-free")
        assert main(["build", "--topology", "chain:4", "--nodes", "p,p,p,gkp:0.6,0.8j",
                     "-o", str(path / "wire.json")]) == 0
        return path

    def probe(self, argv, cwd):
        env = {k: v for k, v in os.environ.items() if k != "HIDDENCLUSTER_SEED"}
        env["PYTHONPATH"] = str(_SRC)
        result = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argv)],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        )
        assert "Traceback" not in result.stderr, result.stderr
        return json.loads(result.stdout.splitlines()[-1])

    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            (["build", "--topology", "chain:5", "--nodes", "p,gkp+,p,p,gkp:0.6,0.8"], 0),
            (["build", "--topology", "grid:3x4", "--nodes", "p"], 0),
            (["decompose", "--g", "-1.3"], 0),
            (["decompose", "--topology", "grid:2x3"], 0),
            (["measure", "--input", "wire.json", "--mode", "3", "--log", "m.jsonl"], 0),
            (["measure", "--input", "wire.json", "--mode", "0"], 4),
            (["run-wire", "--input", "wire.json", "--steps", "3", "--log", "w.jsonl"], 0),
            (["render", "--input", "wire.json"], 0),
        ],
        ids=["build-chain", "build-grid", "decompose-g", "decompose-topology", "measure",
             "measure-refused", "run-wire", "render"],
    )
    def test_symbolic_commands_never_import_numpy(self, argv, exit_code, workdir):
        assert self.probe(argv + ["-o", "out"], workdir) == [exit_code, False, False]

    def test_verify_imports_numpy(self, workdir):
        argv = ["verify", "--max-modes", "2", "-o", "report.json"]
        assert self.probe(argv, workdir)[:2] == [0, True]


# Flag values for the argv fuzz below, as (valid, malformed) spellings of each
# flag; ``{dir}`` names the fixture directory.  ``verify`` stays cheap: its
# valid ``--n`` and ``--max-modes`` values are at most 2 and 3.
_MISSING = ["{dir}/missing.json", "{dir}"]
_GRAPHS = (["{dir}/wire.json", "{dir}/gkp.json"],
           ["{dir}/edges.json", "{dir}/bad.json", "{dir}/binary.json", *_MISSING])
_OUTPUTS = (["-", "{dir}/out.txt"], ["{dir}/no-such-dir/out.txt", "{dir}"])
_ALPHAS = (["sqrt_pi", "1", "2.5", "0.3"], ["0", "-1", "1e-320", "1e200", "nan", "inf", "x"])
_TOPOLOGIES = (
    ["chain:1", "chain:3", "grid:2x2", "{dir}/edges.json"],
    ["chain:0", "chain:x", "chain:10000000", "grid:2x", "grid:0x3", "grid:2x3x4",
     "grid:5000x5000", "{dir}/wire.json", "{dir}/bad.json", "{dir}/binary.json", *_MISSING],
)
_MODES = (["0", "1", "2"], ["-1", "3", "7", "1.5", "x", ""])
_COMMAND_FLAGS = {
    "build": {
        "--topology": _TOPOLOGIES,
        "--nodes": (["p", "gkp+", "gkp:+", "gkp:0.6,0.8", "gkp:0.6,0.8j", "p,p,gkp+"],
                    ["gkp:0,0", "gkp:1e200,1e200", "gkp:1,nan", "gkp:0.6", "qubit", ""]),
        "--alpha": _ALPHAS,
        "-o": _OUTPUTS,
    },
    "decompose": {
        "--g": (["0", "0.5", "1", "-2.5", "1e-3", "-1e-3"],
                ["1e308", "-1e308", "inf", "-inf", "nan", "-NaN", "x", ""]),
        "--topology": _TOPOLOGIES,
        "--alpha": _ALPHAS,
        "-o": _OUTPUTS,
    },
    "measure": {"--input": _GRAPHS, "--mode": _MODES, "--log": _OUTPUTS, "-o": _OUTPUTS},
    "run-wire": {"--input": _GRAPHS, "--steps": _MODES, "--log": _OUTPUTS, "-o": _OUTPUTS},
    "verify": {
        "--alpha": _ALPHAS,
        "--n": (["1", "2", "5"], ["0", "23", "-1", "x"]),
        "--max-modes": (["2", "3"], ["1", "0", "100", "x"]),
        "--g-scale": (["1", "0.5", "2", "0", "-1"], ["inf", "-inf", "nan", "x"]),
        "--seed": (["0", "7"], ["-1", "x"]),
        "-o": _OUTPUTS,
    },
    "render": {"--input": _GRAPHS, "-o": _OUTPUTS},
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    flags = _COMMAND_FLAGS[command]
    argv = [command]
    # each flag, required or not, is left out a quarter of the time, and a
    # present flag takes a malformed value a quarter of the time
    for flag in draw(st.permutations(sorted(flags))):
        if draw(st.integers(0, 3)):
            valid, malformed = flags[flag]
            argv += [flag, draw(st.sampled_from(valid if draw(st.integers(0, 3)) else malformed))]
    return argv + draw(st.sampled_from([[]] * 6 + [["--bogus"], ["extra"]]))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for name, nodes in [("wire", "p,p,gkp:0.6,0.8"), ("gkp", "gkp+")]:
        argv = ["build", "--topology", "chain:3", "--nodes", nodes, "-o", str(path / f"{name}.json")]
        assert main(argv) == 0
    (path / "edges.json").write_text('{"n_modes": 3, "edges": [[0, 1], [2, 1]]}')
    (path / "bad.json").write_text("{ not json")
    (path / "binary.json").write_bytes(b"\xff\xfe\x00")
    return path


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(argv=cli_argv())
def test_random_argv_reaches_a_documented_exit(argv, fuzz_dir):
    """Any argv exits 0, 2, 3, 4 or 5, with no traceback and no warning."""
    argv = [arg.format(dir=fuzz_dir) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exit_:
                code = exit_.code
    event(f"{argv[0]} exit {code}")
    assert code in {0, 2, 3, 4, 5}, (argv, code, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    assert not caught, [str(w.message) for w in caught]
