"""Value semantics of the package's record classes, and its public names."""

import copy
import pickle

import pytest

import leafcat
from leafcat.bounds import Record
from leafcat.graph import Graph
from leafcat.leafwords import Rejection
from leafcat.subtrees import NEG_INF, LeafFunction
from leafcat.verify import VerifyReport

# (a value, an equal value built apart from it, an unequal value, its repr)
VALUES = [
    (Graph.from_edges(3, [(1, 0), (1, 2)]), Graph(3, frozenset({(0, 1), (1, 2)})),
     Graph.from_edges(3, [(0, 1)]), "Graph(n=3, adj_masks=(2, 5, 2))"),
    (LeafFunction(3, (0, 0, 2, NEG_INF)), LeafFunction(3, tuple([0, 0, 2, NEG_INF])),
     LeafFunction(3, (0, 0, 2, 2)), "LeafFunction(n=3, values=(0, 0, 2, -inf))"),
    (Rejection("not-prefix-normal", ("01", "11")), Rejection("not-prefix-normal", ("01", "11")),
     Rejection("not-prefix-normal"), "Rejection(reason='not-prefix-normal', witness=('01', '11'))"),
    (VerifyReport("c", 3, 4, ["x"], 0.5), VerifyReport("c", 3, 4, ("x",), 0.5),
     VerifyReport("c", 3, 4, ["x"], 0.25),
     "VerifyReport(claim='c', bound=3, instances=4, failures=('x',), seconds=0.5, notes='')"),
]
IDS = ["Graph", "LeafFunction", "Rejection", "VerifyReport"]
# edges given as a list are frozen, so the graph hashes and compares by value
EDGE_LIST = (Graph(3, [(0, 1)]), Graph.from_edges(3, [(1, 0)]), Graph(3, []),
             "Graph(n=3, adj_masks=(2, 1, 0))")


@pytest.mark.parametrize("value, same, other, text", VALUES + [EDGE_LIST],
                         ids=IDS + ["Graph-edge-list"])
def test_equality_hash_and_repr(value, same, other, text):
    assert value == same and hash(value) == hash(same) and len({value, same}) == 1
    assert value != other and other != value
    assert value != text and value.__eq__(text) is NotImplemented
    assert repr(value) == text


@pytest.mark.parametrize("value, fields", zip([v[0] for v in VALUES], [
    ("n", "adj_masks"), ("n", "values"), ("reason", "witness"),
    ("claim", "bound", "instances", "failures", "seconds", "notes")]), ids=IDS)
def test_fields_cannot_change(value, fields):
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


def test_graph_stores_its_neighbor_table():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert g.adj_masks is g.adj_masks and g.adj_masks == (0b010, 0b101, 0b010)
    assert g == Graph.from_edges(3, [(0, 1), (1, 2)])  # built apart, the same table


@pytest.mark.parametrize("value", [v[0] for v in VALUES], ids=IDS)
def test_pickle_and_deepcopy_round_trip(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(twin, value._fields[0], None)
        if isinstance(value, LeafFunction):  # it ends in NEG_INF, which stays one object
            assert value.values[-1] is twin.values[-1] is NEG_INF


@pytest.mark.parametrize("cls", [type(v[0]) for v in VALUES], ids=IDS)
def test_value_policy_lives_in_record(cls):
    assert issubclass(cls, Record)
    own = {"__eq__", "__hash__", "__setattr__", "__delattr__", "__repr__"} & set(vars(cls))
    assert not own, f"{cls.__name__} defines {sorted(own)} itself"


def test_verify_report_fields():
    report = VerifyReport("c", 3, 4)
    assert list(report.to_dict()) == ["claim", "bound", "instances", "failures", "seconds",
                                      "notes"]
    assert report.to_dict() == {"claim": "c", "bound": 3, "instances": 4, "failures": [],
                                "seconds": 0.0, "notes": ""}
    # failures are kept as a tuple, and to_dict hands out a list of its own
    assert report.failures == () and report.passed
    report.to_dict()["failures"].append("x")
    assert report.passed and report == VerifyReport("c", 3, 4)
    assert not VerifyReport("c", 3, 4, ["x"]).passed


# the names of the package before its submodules were loaded on demand
PUBLIC_NAMES = [
    "Graph", "LeafFunction", "NEG_INF", "OMEGA", "Rejection", "bounds", "caterpillar_graph",
    "catseq", "chain", "classify_leaf_word", "decompose", "delta_leaf_word",
    "enumerate_free_trees", "enumerate_induced_subtrees", "enumerate_pnw", "equivalent", "f1",
    "f1_profile", "fk_tree", "fully_leafed_witness", "graft", "graph", "hasse_covers",
    "induced_subgraph", "is_k_prefix_normal", "is_prefix_normal", "is_subsequence", "is_tree",
    "leaf_count", "leaf_equivalent", "leaf_function_bruteforce", "leaf_function_caterpillar",
    "leaf_function_from_word", "leaf_function_tree", "leafwords", "leaves", "left", "pnf", "rc",
    "realize_caterpillar", "reversal", "right", "size", "spine_degrees", "star", "subtrees",
    "wheel", "word_of", "words",
]


def test_public_names_resolve():
    assert leafcat.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(leafcat, name)
        module = getattr(value, "__module__", None) or getattr(value, "__name__", "")
        assert module.startswith("leafcat."), name
        assert name in dir(leafcat)
    assert leafcat.Graph is Graph and leafcat.NEG_INF is NEG_INF
    star = {}
    exec("from leafcat import *", star)
    assert sorted(k for k in star if not k.startswith("__")) == PUBLIC_NAMES
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        leafcat.no_such_name  # noqa: B018
