"""The package's public surface and layout: every exported name resolves,
the README's library quick start runs as written, only ``modular``
defines the (ell, m, u) order of a mode's subsystems, the oracle imports
nothing it checks, every public ``certify`` function has a caller in the
package, and the CLI keeps no error type of its own."""

import ast
import re
from pathlib import Path

import hiddencluster
from hiddencluster.modular import SubsystemKind

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src" / "hiddencluster"


def test_every_exported_name_resolves():
    for name in hiddencluster.__all__:
        getattr(hiddencluster, name)
    namespace = {}
    exec("from hiddencluster import *", namespace)
    assert set(hiddencluster.__all__) <= set(namespace)


def test_dir_lists_every_exported_name():
    # the oracle's names load lazily, so dir() lists __all__ beside the loaded globals
    listed = dir(hiddencluster)
    assert listed == sorted(set(listed))
    assert {"__version__", *hiddencluster.__all__} <= set(listed)


def test_readme_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), f"{README.name} quick start", "exec"), {})


def _member(node) -> str | None:
    """The member name of a ``SubsystemKind.<MEMBER>`` expression, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "SubsystemKind"
        and node.attr in SubsystemKind.__members__
    ):
        return node.attr
    return None


def _is_layout_table(value) -> bool:
    """A sequence spelling all three kinds, or a dict from kinds to integers."""
    if isinstance(value, (ast.Tuple, ast.List)):
        return {_member(e) for e in value.elts} >= set(SubsystemKind.__members__)
    if isinstance(value, ast.Dict):
        return any(_member(k) for k in value.keys) and all(
            isinstance(v, ast.Constant) and type(v.value) is int for v in value.values
        )
    if isinstance(value, ast.DictComp):
        # {kind: offset for offset, kind in enumerate(...)}
        for generator in value.generators:
            iterable, target = generator.iter, generator.target
            if (
                isinstance(iterable, ast.Call)
                and isinstance(iterable.func, ast.Name)
                and iterable.func.id == "enumerate"
                and isinstance(target, ast.Tuple)
                and isinstance(target.elts[0], ast.Name)
                and isinstance(value.value, ast.Name)
                and value.value.id == target.elts[0].id
            ):
                return True
    return False


def layout_tables(source: str) -> list[int]:
    """Line numbers of module-level assignments that define a kind layout table."""
    return [
        statement.lineno
        for statement in ast.parse(source).body
        if isinstance(statement, (ast.Assign, ast.AnnAssign))
        and statement.value is not None
        and _is_layout_table(statement.value)
    ]


def test_the_guard_finds_the_tables_it_forbids():
    forbidden = [
        "_KIND_ORDER = (SubsystemKind.LOGICAL, SubsystemKind.GAUGE_BIN, "
        "SubsystemKind.GAUGE_MODULAR)",
        "ALL = [SubsystemKind.GAUGE_BIN, SubsystemKind.LOGICAL, SubsystemKind.GAUGE_MODULAR]",
        "_KIND_OFFSET = {kind: offset for offset, kind in enumerate(_KIND_ORDER)}",
        "_KIND_AXIS = {SubsystemKind.LOGICAL: 0, SubsystemKind.GAUGE_BIN: 1}",
        "AXIS: dict = {SubsystemKind.GAUGE_MODULAR: 2}",
    ]
    allowed = [
        '_DOT_SHAPE = {SubsystemKind.LOGICAL: "diamond", SubsystemKind.GAUGE_BIN: "box"}',
        "_MODULAR = SubsystemKind.GAUGE_MODULAR.offset",
        "def f():\n    KINDS = (SubsystemKind.LOGICAL, SubsystemKind.GAUGE_BIN, "
        "SubsystemKind.GAUGE_MODULAR)",
        "PAIR = (SubsystemKind.LOGICAL, SubsystemKind.GAUGE_MODULAR)",
    ]
    assert [layout_tables(source) for source in forbidden] == [[1]] * len(forbidden)
    assert [layout_tables(source) for source in allowed] == [[]] * len(allowed)


def test_only_modular_defines_the_kind_layout():
    """``SubsystemKind.offset`` is the one (ell, m, u) layout; no other module
    may keep its own table of the three kinds or of their offsets."""
    assert [(kind.name, kind.offset) for kind in SubsystemKind] == [
        ("LOGICAL", 0), ("GAUGE_BIN", 1), ("GAUGE_MODULAR", 2)
    ]
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if path.name != "modular.py"
        and (lines := layout_tables(path.read_text(encoding="utf-8")))
    }
    assert len(list(SRC.glob("*.py"))) >= 9
    assert found == {}


def package_imports(source: str) -> set[str]:
    """The package modules that ``source`` imports, at any level of nesting;
    ``hiddencluster`` itself when it imports the package's top level."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            if node.level == 0 and path[0] != "hiddencluster":
                continue
            path = path[1:] if node.level == 0 else [name for name in path if name]
            found |= {path[0]} if path else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                path = alias.name.split(".")
                if path[0] == "hiddencluster":
                    found.add(path[1] if len(path) > 1 else "hiddencluster")
    return found


def test_the_import_guard_finds_injected_imports():
    injected = [
        "from .graphs import build_cluster",
        "def f():\n    from .certify import graph_state",
        "from . import gates",
        "import hiddencluster.measurement",
        "from hiddencluster.graphs import SubsystemGraph",
        "from hiddencluster import certify",
        "import hiddencluster",
    ]
    assert [package_imports(source) for source in injected] == [
        {"graphs"}, {"certify"}, {"gates"}, {"measurement"}, {"graphs"}, {"certify"},
        {"hiddencluster"},
    ]
    assert package_imports("import numpy as np\nfrom hiddencluster_x import y") == set()


def test_oracle_imports_nothing_it_checks():
    """The oracle stays independent of the symbolic layer it certifies: it
    imports only the record base, the error types and ``modular``'s
    subsystem types from the package, at module or function level."""
    source = (SRC / "oracle.py").read_text(encoding="utf-8")
    allowed = {"_record", "errors", "modular"}
    assert package_imports(source) <= allowed
    injected = source + "\n\ndef _peek():\n    from .graphs import build_cluster\n"
    assert package_imports(injected) - allowed == {"graphs"}


def called_names(source: str) -> set[str]:
    """Names ``source`` calls, as ``f(...)`` or ``obj.f(...)``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                found.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                found.add(node.func.attr)
    return found


def uncalled_public_functions(source: str, callers: list[str]) -> list[str]:
    """Public module-level functions of ``source`` that no ``callers`` source calls."""
    calls = set().union(*map(called_names, callers))
    return [
        statement.name
        for statement in ast.parse(source).body
        if isinstance(statement, ast.FunctionDef)
        and not statement.name.startswith("_")
        and statement.name not in calls
    ]


def test_every_public_certify_function_has_a_package_caller():
    """No public ``certify`` function exists only for its tests.  Only the
    CLI imports ``certify`` (the package does not re-export it), so its
    callers are ``certify`` itself and ``cli``."""
    importers = {
        path.name
        for path in SRC.glob("*.py")
        if "certify" in package_imports(path.read_text(encoding="utf-8"))
    }
    assert importers == {"cli.py"}
    source = (SRC / "certify.py").read_text(encoding="utf-8")
    cli = (SRC / "cli.py").read_text(encoding="utf-8")
    assert uncalled_public_functions(source, [source, cli]) == []
    injected = source + "\n\ndef only_tests_call_this(state):\n    return state.norm()\n"
    assert uncalled_public_functions(injected, [injected, cli]) == ["only_tests_call_this"]


def test_cli_defines_no_exception_class():
    """Every exit-2 error is a ``DomainError`` or ``GraphParseError`` from
    ``errors``: the CLI raises the library's types, which ``main`` maps to exit 2,
    and defines no exception class of its own."""
    from hiddencluster import cli

    own = [
        name
        for name, value in vars(cli).items()
        if isinstance(value, type)
        and issubclass(value, BaseException)
        and value.__module__ == cli.__name__
    ]
    assert own == []


def test_matrix_entry_points_the_benchmark_calls():
    """The benchmark's workloads pass dense float matrices, built as below, to
    ``build_cluster``, ``decompose_cz_multimode`` and both certify routes, and
    compare ``logical_subgraph`` with the matrix.  Each call is made here the
    same way and gives what the ``Topology`` of the same grid gives."""
    import numpy as np

    from hiddencluster.certify import decomposed_cluster_state, direct_cluster_state

    hc, alpha, rows, cols = hiddencluster, hiddencluster.DEFAULT_ALPHA, 2, 2
    adjacency = np.zeros((rows * cols, rows * cols))
    i = np.arange(rows * cols).reshape(rows, cols)
    for left, right in ((i[:, :-1], i[:, 1:]), (i[:-1, :], i[1:, :])):
        adjacency[left, right] = adjacency[right, left] = 1.0
    topology = hc.grid_topology(rows, cols)
    specs = [hc.momentum(), hc.gkp_plus(), hc.momentum(), hc.gkp_labeled(0.6, 0.8j)]

    graph = hc.build_cluster(adjacency, specs, alpha)
    assert graph == hc.build_cluster(topology, specs, alpha)
    assert np.array_equal(hc.logical_subgraph(graph), adjacency)
    assert hc.decompose_cz_multimode(adjacency, alpha) == hc.decompose_cz_multimode(
        topology, alpha
    )
    grid = hc.GridSpec(2, alpha)
    for route in (direct_cluster_state, decomposed_cluster_state):
        from_matrix = route(grid, adjacency, specs).amplitudes
        assert from_matrix.tobytes() == route(grid, topology, specs).amplitudes.tobytes()


def test_measurement_entry_points_the_benchmark_calls():
    """The benchmark's teleport passes each ``measure_p0`` result's ``frame`` to
    the next call and reads the next mode to measure off the record's
    ``converted_node``; its wire workload reads ``run_wire(...).frame``.  Each
    call is made here the same way, on the dense chain matrix the benchmark
    builds."""
    import numpy as np

    hc, alpha, label = hiddencluster, hiddencluster.DEFAULT_ALPHA, (0.6, 0.8j)
    adjacency = np.zeros((4, 4))
    i = np.arange(3)
    adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
    specs = [hc.momentum()] * 3 + [hc.gkp_labeled(*label)]

    graph = hc.build_cluster(adjacency, specs, alpha)
    frame, current = hc.LogicalFrame(0, label), 3
    for step in range(1, 4):
        result = hc.measure_p0(graph, current, frame)
        graph, frame = result.graph, result.frame
        current = graph.node_by_id(result.record.converted_node).mode
        assert frame is result.record.frame and frame.hadamard_count == step
        assert current == 3 - step
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    for k in range(4):
        run = hc.run_wire(hc.build_cluster(adjacency, specs, alpha), k)
        expected = np.linalg.matrix_power(hadamard, k) @ np.array(label)
        assert run.frame.hadamard_count == k
        assert np.max(np.abs(np.array(run.frame.current_label) - expected)) <= 1e-12
