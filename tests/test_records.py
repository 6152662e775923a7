"""The package's records behave as the frozen dataclasses they replace.

Each record is compared with its frozen-dataclass copy in
``record_reference``: ``repr``, ``==``, ``hash``, ``__match_args__``, the
frozen guard, the constructor's signature, positional and keyword
construction with defaults, the construction checks, ``copy`` and
``pickle``.  A record whose constructor would only store its fields writes
none: ``Record`` generates it.
"""

import ast
import copy
import dataclasses
import inspect
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

import record_reference as ref
from hiddencluster import gates, graphs, measurement, oracle
from hiddencluster._record import Record
from hiddencluster.errors import DomainError
from hiddencluster.modular import DEFAULT_ALPHA, SubsystemKind

SRC = Path(__file__).resolve().parents[1] / "src" / "hiddencluster"

L, U = SubsystemKind.LOGICAL, SubsystemKind.GAUGE_MODULAR
OP_A, OP_B = (0, L), (1, U)
TERM = gates.CouplingTerm(OP_A, OP_B, 3.5)
LABELED, MOMENTUM = graphs.CvType.GKP_LABELED, graphs.CvType.MOMENTUM
MODE = graphs.ModeRecord(0, graphs.CvType.GKP_LABELED, "psi", (0.6 + 0j, 0.8j))
# EDGE joins the logical nodes of modes 0 and 1
MODES = (MODE, graphs.ModeRecord(1, graphs.CvType.MOMENTUM))
EDGE = graphs.SubsystemEdge(0, 3, 1)
GRAPH = graphs.SubsystemGraph(1.5, MODES, (EDGE,))
FRAME = measurement.LogicalFrame(2, (0.6 + 0j, -0.8j))
RECORD = measurement.MeasurementRecord(1, 0, 2, FRAME)
GRID = oracle.GridSpec(2, 1.5)


# a one-field record; no module of the package declares one
class Single(Record):
    value: object


# (record, its reference copy, positional args, different args, the required
# prefix of the args when later fields have defaults, else None)
CASES = {
    "CouplingTerm": (gates.CouplingTerm, ref.CouplingTerm,
                     (OP_A, OP_B, 3.5), (OP_A, OP_B, -3.5), None),
    "Topology": (gates.Topology, ref.Topology,
                 (3, ((0, 1), (1, 2))), (3, ((0, 1),)), None),
    "MultimodeDecomposition": (gates.MultimodeDecomposition, ref.MultimodeDecomposition,
                               ((TERM,), (), (TERM,)), ((TERM,), (), ()), None),
    "Node": (graphs.Node, ref.Node,
             (7, 2, U, graphs.NodeState.MODULAR_ZERO),
             (7, 2, U, graphs.NodeState.UNIFORM_MODULAR), None),
    "ModeRecord": (graphs.ModeRecord, ref.ModeRecord,
                   (3, graphs.CvType.GKP_LABELED, "phi", (0.6 + 0j, 0.8j)),
                   (3, graphs.CvType.GKP_LABELED, "phi", (0.8 + 0j, 0.6j)),
                   (3, graphs.CvType.MOMENTUM)),
    "ModeSpec": (graphs.ModeSpec, ref.ModeSpec,
                 (graphs.CvType.GKP_LABELED, "phi", (0.6 + 0j, 0.8j)),
                 (graphs.CvType.GKP_LABELED, "chi", (0.6 + 0j, 0.8j)),
                 (graphs.CvType.GKP_PLUS,)),
    "SubsystemEdge": (graphs.SubsystemEdge, ref.SubsystemEdge,
                      (2, 5, 2), (2, 5, 1), None),
    "SubsystemGraph": (graphs.SubsystemGraph, ref.SubsystemGraph,
                       (1.5, MODES, (EDGE,)), (1.5, MODES, ()), None),
    "LogicalFrame": (measurement.LogicalFrame, ref.LogicalFrame,
                     (2, (0.6 + 0j, -0.8j)), (3, (0.6 + 0j, -0.8j)), None),
    "MeasurementRecord": (measurement.MeasurementRecord, ref.MeasurementRecord,
                          (1, 0, 2, FRAME), (1, 0, 2, measurement.LogicalFrame(0, (1 + 0j, 0j))),
                          None),
    "WireRun": (measurement.WireRun, ref.WireRun,
                (GRAPH, FRAME, (RECORD,)), (GRAPH, FRAME, ()), None),
    "GridSpec": (oracle.GridSpec, ref.GridSpec, (2, 1.5), (3, 1.5), None),
    "DiscretizedState": (oracle.DiscretizedState, ref.DiscretizedState,
                         (GRID, 1, np.arange(8) + 0.5j), (GRID, 1, np.arange(8) + 0.25j), None),
}

# arguments each record refuses, with the reference's message
REFUSED = [
    ("Topology", (-1, ())),
    ("Topology", (3, ((1, 1),))),
    ("Topology", (3, ((0, 3),))),
    ("Topology", (3, ((1, 2), (0, 1)))),
    ("Topology", (3, ((0, 1), (0, 1)))),
    ("Topology", (2.5, ())),
    ("Topology", (True, ())),
    ("Topology", (3, ((0.0, 1.0),))),
    ("Topology", (3, ((0, 1), (1, True)))),
    ("Topology", (3, ([0, 1],))),
    ("ModeSpec", (LABELED, "psi", (float("nan"), 0j))),
    ("ModeSpec", (LABELED, "psi", (1.0, complex(0.0, float("inf"))))),
    ("ModeSpec", (LABELED, "psi", (2 + 0j, 0j))),
    ("ModeSpec", (LABELED, "psi", (1e300, 0j))),
    ("ModeSpec", (LABELED,)),
    ("ModeSpec", (MOMENTUM, None, (1 + 0j, 0j))),
    ("ModeSpec", (graphs.CvType.GKP_PLUS, None, (0.6, 0.8))),
    ("ModeSpec", (MOMENTUM, 7)),
    ("ModeRecord", (0, MOMENTUM, None, (1 + 0j, 0j))),
    ("ModeRecord", (1, LABELED, 5, (0.6, 0.8))),
    ("ModeRecord", (1, LABELED, "psi", (float("nan"), 0j))),
    ("ModeRecord", (1, LABELED, "psi", (0.6, 0.6))),
    ("ModeRecord", (1, LABELED)),
    ("ModeRecord", (1, LABELED, "psi", ("0.6", "0.8"))),
    ("ModeRecord", (0.5, graphs.CvType.GKP_PLUS)),
    ("ModeRecord", (True, MOMENTUM)),
    ("ModeRecord", (-1, MOMENTUM)),
    ("ModeRecord", (-3, LABELED, "psi", (0.6, 0.8))),
    ("SubsystemGraph", (float("nan"), (), ())),
    ("SubsystemGraph", (0.0, (MODE,), ())),
    ("SubsystemGraph", (1.5, (MODE, MODE), ())),
    ("SubsystemGraph", (1.5, MODES, (EDGE, graphs.SubsystemEdge(3, 0, 2)))),
    ("SubsystemGraph", (1.5, (MODE,), (EDGE,))),
    ("SubsystemGraph", (1.5, MODES, (graphs.SubsystemEdge(2, 3, 1),))),
    ("SubsystemGraph", ("2", (), ())),
    ("SubsystemGraph", (True, (), ())),
    ("SubsystemGraph", (1.0, ("x",), ())),
    ("SubsystemGraph", (1.0, (MODE, graphs.ModeSpec(MOMENTUM)), ())),
    ("SubsystemGraph", (1.5, MODES, (EDGE, (0, 3, 1)))),
    ("SubsystemGraph", (1.5, (graphs.Node(0, 0, L, graphs.NodeState.LOGICAL_PLUS),), ())),
    ("SubsystemGraph", (1.0, None, ())),
    ("SubsystemGraph", (1.0, (), 5)),
    ("SubsystemGraph", (1.0, None, 5)),
    ("SubsystemGraph", (10**400, (), ())),
    ("SubsystemGraph", (np.True_, (), ())),
    ("SubsystemEdge", (4, 4, 1)),
    ("SubsystemEdge", (5, 4, 0)),
    ("SubsystemEdge", (float("nan"), 3, 1)),
    ("SubsystemEdge", (0, True, 1)),
    ("SubsystemEdge", (0, 3, 3)),
    ("SubsystemEdge", (0, 3, 1.0)),
    ("GridSpec", (0, 1.5)),
    ("GridSpec", (2.0, 1.5)),
    ("GridSpec", (2, -1.0)),
    ("GridSpec", (2, float("nan"))),
    ("GridSpec", (2, "1.5")),
    ("GridSpec", (2, b"1.5")),
    ("GridSpec", (True, 1.5)),
    ("GridSpec", (2, 10**400)),
    ("DiscretizedState", (GRID, -1, np.ones(1))),
    ("DiscretizedState", (GRID, 1.0, np.ones(8))),
    ("DiscretizedState", (GRID, True, np.ones(8))),
    ("DiscretizedState", (GRID, np.int64(1), np.ones(8))),
    ("DiscretizedState", (GRID, 1, np.ones(3))),
]


def field_names(reference):
    return tuple(f.name for f in dataclasses.fields(reference))


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as err:
        return type(err)


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def record_classes():
    """The package's ``class X(Record)`` declarations, found by ``ast``."""
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "Record" for base in node.bases
            ):
                yield node


def package_records():
    return {node.name for node in record_classes()}


def parameters(cls):
    """Each constructor parameter's name, kind and default, in order."""
    return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]


def only_stores_a_field(statement):
    """True for ``set_field(self, "name", name)``: a parameter stored unchanged."""
    return re.fullmatch(r"set_field\(self, '(\w+)', \1\)", ast.unparse(statement)) is not None


class TestRecordsMatchTheirDataclasses:
    def test_every_record_is_covered(self):
        assert set(CASES) == package_records()

    def test_no_record_writes_a_constructor_that_only_stores_its_fields(self):
        # Record generates that constructor; a hand-written __init__ must check something
        store_only = [
            cls.name
            for cls in record_classes()
            for item in cls.body
            if isinstance(item, ast.FunctionDef) and item.name == "__init__"
            and all(map(only_stores_a_field, item.body))
        ]
        assert store_only == []

    def test_constructor_signature(self, case):
        cls, reference, _, _, _ = case
        assert parameters(cls) == parameters(reference)

    def test_repr_and_field_order(self, case):
        cls, reference, args, _, _ = case
        assert repr(cls(*args)) == repr(reference(*args))
        assert cls._fields == field_names(reference)
        assert cls.__match_args__ == reference.__match_args__

    def test_equality(self, case):
        cls, reference, args, other, _ = case
        record = cls(*args)
        assert record == cls(*args) and not record != cls(*args)
        assert record != cls(*other) and not record == cls(*other)
        assert record.__eq__(reference(*args)) is NotImplemented
        assert record != reference(*args)
        assert record != args

    def test_hash(self, case):
        cls, reference, args, _, _ = case
        assert hash_or_error(cls(*args)) == hash_or_error(reference(*args))

    def test_fields_cannot_be_assigned_or_deleted(self, case):
        cls, reference, args, other, _ = case
        record = cls(*args)
        for name in field_names(reference) + ("extra",):
            for target in (record, reference(*args)):
                with pytest.raises(AttributeError):
                    setattr(target, name, other[0])
                with pytest.raises(AttributeError):
                    delattr(target, name)
        assert repr(record) == repr(cls(*args))

    def test_keyword_construction_and_defaults(self, case):
        cls, reference, args, _, required = case
        keywords = dict(zip(field_names(reference), args))
        assert cls(**keywords) == cls(*args)
        assert repr(cls(**keywords)) == repr(reference(**keywords))
        if required is not None:
            assert repr(cls(*required)) == repr(reference(*required))

    def test_copy_and_pickle(self, case):
        cls, _, args, _, _ = case
        record = cls(*args)
        for clone in (copy.copy(record), pickle.loads(pickle.dumps(record))):
            assert type(clone) is cls
            assert clone == record and repr(clone) == repr(record)

    @pytest.mark.parametrize("name, args", REFUSED, ids=[f"{n}-{a!r}" for n, a in REFUSED])
    def test_construction_checks_match(self, name, args):
        cls, reference, _, _, _ = CASES[name]
        with pytest.raises(DomainError) as expected:
            reference(*args)
        with pytest.raises(DomainError) as refused:
            cls(*args)
        assert str(refused.value) == str(expected.value)

    def test_a_list_edge_is_refused_by_name(self):
        # a list edge would make the topology unhashable and unequal to its tuple twin
        with pytest.raises(DomainError, match=r"^edge \[0, 1\] must be a tuple, got list$"):
            gates.Topology(3, ([0, 1],))

    def test_construction_normalizes_as_the_dataclass_did(self):
        assert repr(graphs.SubsystemEdge(5, 2, 1)) == repr(ref.SubsystemEdge(5, 2, 1))
        assert oracle.GridSpec(2, 3).alpha == ref.GridSpec(2, 3).alpha == 3.0
        spec = graphs.ModeSpec(LABELED, "psi", (0.6, 0.8))
        assert repr(spec) == repr(ref.ModeSpec(LABELED, "psi", (0.6, 0.8)))
        assert all(type(c) is complex for c in spec.amplitudes)
        mode = graphs.ModeRecord(2, LABELED, "psi", (0.6, 0.8))
        assert repr(mode) == repr(ref.ModeRecord(2, LABELED, "psi", (0.6, 0.8)))
        assert repr(graphs.SubsystemGraph(2, (), ())) == repr(ref.SubsystemGraph(2, (), ()))
        assert type(graphs.SubsystemGraph(2, (), ()).alpha) is float
        state = oracle.DiscretizedState(GRID, 0, [1])
        assert state.amplitudes.dtype == complex and state.amplitudes.shape == (1,)

    def test_match_statement_reads_fields_in_order(self):
        match graphs.SubsystemEdge(5, 2, 1):
            case graphs.SubsystemEdge(low, high, multiplicity=1):
                assert (low, high) == (2, 5)
            case _:
                pytest.fail("edge did not match")

    def test_a_one_field_record_matches_its_dataclass(self):
        # its field tuple holds one value, not the bare value
        record, reference = Single(1.5), ref.Single(1.5)
        assert repr(record) == repr(reference) == "Single(value=1.5)"
        assert hash(record) == hash(reference)
        assert record == Single(1.5) and not record != Single(1.5)
        assert record != Single((1.5,)) and ref.Single(1.5) != ref.Single((1.5,))
        assert record.__eq__(reference) is NotImplemented

    def test_a_class_attribute_is_no_default(self):
        # the generated constructor takes every field, whatever the class body assigns
        class Pair(Record):
            a: int
            b: int = 0

        assert [p.default for p in inspect.signature(Pair).parameters.values()] == [
            inspect.Parameter.empty
        ] * 2
        with pytest.raises(TypeError, match="missing 1 required positional argument: 'b'"):
            Pair(1)
        assert Pair(1, 2).b == 2


# a wire run's records: one step, two steps (the last differs from the first), none
RUN_RECORDS = {
    "one-step": (RECORD,),
    "two-step": (
        measurement.MeasurementRecord(4, 0, 8, measurement.LogicalFrame(1, (1 + 0j, 0j))), RECORD
    ),
    "zero-step": (),
}


class TestWireRunRecord:
    """``WireRun.record`` is the last step's record, read-only and not a field, as
    the reference's property is; a zero-step run has none."""

    @pytest.mark.parametrize("records", sorted(RUN_RECORDS))
    def test_record_is_the_last_of_the_records(self, records):
        for cls in (measurement.WireRun, ref.WireRun):
            run = cls(GRAPH, FRAME, RUN_RECORDS[records])
            if run.records:
                assert run.record is run.records[-1] and run.record == RECORD
            else:
                with pytest.raises(IndexError, match="^tuple index out of range$"):
                    run.record

    def test_record_cannot_be_assigned_and_is_not_a_field(self):
        run = measurement.WireRun(GRAPH, FRAME, (RECORD,))
        with pytest.raises(AttributeError):
            run.record = RECORD
        assert "record" not in measurement.WireRun._fields and "record=" not in repr(run)


# a state over GridSpec(1, 1.0) holds 2**n_modes amplitudes
EQUALITY_GRID = oracle.GridSpec(1, 1.0)


class TestDiscretizedStateEquality:
    """States compare their grid, mode count and amplitude arrays, so ``==``
    gives a bool for any size and never raises; a state is unhashable."""

    @staticmethod
    def state(n_modes, amplitudes, grid=EQUALITY_GRID):
        return oracle.DiscretizedState(grid, n_modes, amplitudes)

    @pytest.mark.parametrize("n_modes", [0, 1, 4])
    def test_equal_states(self, n_modes):
        amplitudes = np.arange(2**n_modes) * (0.5 - 0.25j)
        for cls in (oracle.DiscretizedState, ref.DiscretizedState):
            same = cls(EQUALITY_GRID, n_modes, amplitudes)
            assert same == cls(EQUALITY_GRID, n_modes, amplitudes.copy())
            assert not same != cls(EQUALITY_GRID, n_modes, amplitudes.copy())

    @pytest.mark.parametrize("n_modes", [0, 1, 4])
    def test_states_that_differ_in_one_field(self, n_modes):
        amplitudes = np.arange(2**n_modes) + 0.5j
        changed = amplitudes.copy()
        changed[-1] += 1e-15
        base = self.state(n_modes, amplitudes)
        others = {
            "amplitude": self.state(n_modes, changed),
            "grid": self.state(n_modes, amplitudes, oracle.GridSpec(1, 2.0)),
            "mode count": self.state(n_modes + 1, np.tile(amplitudes, 2)),
        }
        for name, other in others.items():
            assert (base == other) is False and (base != other) is True, name

    def test_a_different_grid_and_count_with_the_same_amplitudes(self):
        # 8 amplitudes are one mode of an n = 2 grid or three of an n = 1 grid
        amplitudes = np.ones(8)
        one = self.state(1, amplitudes, oracle.GridSpec(2, 1.0))
        assert one != self.state(3, amplitudes)

    def test_a_state_is_unhashable(self):
        for cls in (oracle.DiscretizedState, ref.DiscretizedState):
            with pytest.raises(TypeError, match="^unhashable type: 'DiscretizedState'$"):
                hash(cls(EQUALITY_GRID, 1, np.ones(2)))


class TestSubsystemGraphCache:
    def test_equal_after_cached_properties_are_read(self):
        topology = gates.chain_topology(4)
        specs = [graphs.momentum(), graphs.gkp_plus(), graphs.momentum(),
                 graphs.gkp_labeled(0.6, 0.8j)]
        graph = graphs.build_cluster(topology, specs, DEFAULT_ALPHA)
        fresh = graphs.build_cluster(topology, specs, DEFAULT_ALPHA)
        assert graphs.render_dot(graph).count(" [shape=") == 12
        assert graph.node_by_id(4).mode == 1
        assert graph == fresh and hash(graph) == hash(fresh)
        assert repr(graph) == repr(fresh)
        assert repr(graph) == repr(ref.SubsystemGraph(graph.alpha, graph.modes, graph.edges))
        for clone in (copy.copy(graph), pickle.loads(pickle.dumps(graph))):
            assert clone == fresh and clone.node_by_id(4) == fresh.node_by_id(4)


def test_no_module_of_the_package_uses_cached_property():
    """A record holds only its fields and the index it builds at construction:
    no module uses ``functools.cached_property``, which stores a value on first read."""
    users = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            if "cached_property" in names:
                users.append(path.name)
    assert len(list(SRC.glob("*.py"))) >= 9
    assert users == []


def test_no_module_of_the_package_imports_dataclasses():
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                importers.append(path.name)
    assert len(list(SRC.glob("*.py"))) >= 9
    assert importers == []
