import re

import pytest

from leafcat.graph import (
    CHAIN_MAX_N,
    FK_MAX_K,
    GRAPH_MAX_N,
    STAR_MAX_M,
    WHEEL_MAX_N,
    Graph,
    _preorder_levels,
    caterpillar_graph,
    chain,
    fk_tree,
    induced_subgraph,
    is_tree,
    leaf_count,
    read_edge_list,
    star,
    to_dot,
    wheel,
    write_edge_list,
)


def union_find_is_tree(g):
    # independent connectivity + edge-count check
    if g.n == 0:
        return len(g.edges) == 0
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    roots = {find(v) for v in range(g.n)}
    return len(roots) == 1 and len(g.edges) == g.n - 1


def test_graph_rejects_self_loops_and_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError, match=re.escape("edge (1,0) not canonical (min,max)")):
        Graph(2, frozenset({(1, 0)}))


def test_self_loop_rejected_by_graph():
    # from_edges leaves the self-loop to Graph, which names it
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        Graph.from_edges(3, [(1, 1)])


def test_graph_rejects_one_vertex_past_its_cap():
    with pytest.raises(ValueError, match=re.escape(f"n={GRAPH_MAX_N + 1} outside 0..{GRAPH_MAX_N}")):
        Graph(GRAPH_MAX_N + 1, frozenset())
    assert Graph(GRAPH_MAX_N, frozenset()).n == GRAPH_MAX_N


@pytest.fixture
def no_build(monkeypatch):
    """Make any start of building a graph fail the test."""

    def started(*args):
        raise AssertionError("graph building started")

    monkeypatch.setattr(Graph, "from_edges", staticmethod(started))


# (generator, an argument past its range, the rejection)
OUT_OF_RANGE = [
    (chain, 0, f"n=0 outside 1..{CHAIN_MAX_N}"),
    (chain, CHAIN_MAX_N + 1, f"n={CHAIN_MAX_N + 1} outside 1..{CHAIN_MAX_N}"),
    (star, -1, f"m=-1 outside 0..{STAR_MAX_M}"),
    (star, STAR_MAX_M + 1, f"m={STAR_MAX_M + 1} outside 0..{STAR_MAX_M}"),
    (wheel, 2, f"n=2 outside 3..{WHEEL_MAX_N}"),
    (wheel, WHEEL_MAX_N + 1, f"n={WHEEL_MAX_N + 1} outside 3..{WHEEL_MAX_N}"),
    (fk_tree, 0, f"k=0 outside 1..{FK_MAX_K}"),
    (fk_tree, FK_MAX_K + 1, f"k={FK_MAX_K + 1} outside 1..{FK_MAX_K}"),
    # one vertex over the cap: a spine of 2 carrying GRAPH_MAX_N - 1 leaves
    (caterpillar_graph, (GRAPH_MAX_N - 2, 1), f"size={GRAPH_MAX_N + 1} outside 3..{GRAPH_MAX_N}"),
]


@pytest.mark.parametrize("make, arg, message", OUT_OF_RANGE,
                         ids=[f"{make.__name__}-{message.split()[0]}" for make, _, message in OUT_OF_RANGE])
def test_generator_rejects_before_building(make, arg, message, no_build):
    with pytest.raises(ValueError, match=re.escape(message)):
        make(arg)


@pytest.mark.parametrize("make, arg", [
    (chain, CHAIN_MAX_N), (star, STAR_MAX_M), (wheel, WHEEL_MAX_N), (fk_tree, FK_MAX_K),
    (caterpillar_graph, (GRAPH_MAX_N - 3, 1)),
], ids=["chain", "star", "wheel", "fk_tree", "caterpillar_graph"])
def test_generator_caps_fit_the_graph_cap(make, arg):
    # the largest argument builds a graph the graph cap admits; one more would not
    assert GRAPH_MAX_N - 6 < make(arg).n <= GRAPH_MAX_N


def test_from_edges_dedups():
    g = Graph.from_edges(3, [(0, 1), (1, 0)])
    assert len(g.edges) == 1


def test_from_edges_matches_read_edge_list():
    # either orientation gives the canonical (min, max) edge
    a, b = Graph.from_edges(30, [(1, 0), (28, 29)]), read_edge_list("30 2\n0 1\n29 28\n")
    assert a == b and sorted(a.edges) == [(0, 1), (28, 29)]


def test_induced_subgraph_edge():
    g = chain(3)
    sub = induced_subgraph(g, {0, 1})
    assert sub.n == 2 and sub.edges == frozenset({(0, 1)})


def test_induced_subgraph_empty():
    assert induced_subgraph(chain(4), set()).n == 0


def test_induced_subgraph_relabels_in_order():
    g = chain(5)
    sub = induced_subgraph(g, {1, 3, 4})
    assert sub.edges == frozenset({(1, 2)})  # 3-4 survives as 1-2


def test_induced_subgraph_out_of_range():
    with pytest.raises(ValueError):
        induced_subgraph(chain(3), {0, 7})


def test_is_tree_basics():
    assert is_tree(chain(3))
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert not is_tree(triangle)
    assert is_tree(Graph.from_edges(0, []))  # the empty tree
    assert not is_tree(wheel(10))
    assert len(wheel(10).edges) == 20  # 2n edges != n-1 on 11 vertices


def test_preorder_visits_the_highest_neighbor_first():
    # neighbors are pushed in ascending order, so the walk pops the highest
    assert _preorder_levels(Graph.from_edges(4, [(0, 1), (0, 2), (2, 3)])) == [0, 1, 2, 1]
    # only what vertex 0 reaches
    assert _preorder_levels(Graph.from_edges(6, [(0, 1), (0, 2), (2, 3), (4, 5)])) == [0, 1, 2, 1]


def test_leaf_count():
    assert leaf_count(Graph.from_edges(1, [])) == 0
    assert leaf_count(chain(2)) == 2
    assert leaf_count(star(5)) == 5
    with pytest.raises(ValueError):
        leaf_count(wheel(3))


def test_wheel_shapes():
    w3 = wheel(3)
    assert w3.n == 4 and len(w3.edges) == 6  # K4
    w10 = wheel(10)
    assert w10.n == 11 and len(w10.edges) == 20
    w4 = wheel(4)
    assert w4.degree(4) == 4
    assert all(w4.degree(i) == 3 for i in range(4))
    with pytest.raises(ValueError):
        wheel(2)


def test_caterpillar_graph():
    g = caterpillar_graph((2,))
    assert g.n == 3 and is_tree(g) and leaf_count(g) == 2
    g = caterpillar_graph((3, 0, 2, 4, 0, 1))
    assert g.n == 16 and leaf_count(g) == 10
    g = caterpillar_graph((5,))
    assert g.edges == star(5).edges
    with pytest.raises(ValueError):
        caterpillar_graph((0, 1))


@pytest.mark.parametrize("k,n", [(1, 13), (2, 19), (3, 25)])
def test_fk_tree_sizes(k, n):
    g = fk_tree(k)
    assert g.n == n == 6 * k + 7
    assert is_tree(g)


@pytest.mark.parametrize("k", range(1, 6))
def test_fk_tree_leaves(k):
    g = fk_tree(k)
    assert leaf_count(g) == 3 * (k + 2)


def test_fk_tree_rejects_zero():
    with pytest.raises(ValueError):
        fk_tree(0)


def test_generators_agree_with_union_find():
    gs = [chain(1), chain(6), star(0), star(4), wheel(5),
          caterpillar_graph((3, 1, 2)), fk_tree(2)]
    for g in gs:
        assert is_tree(g) == union_find_is_tree(g)


def test_edge_list_roundtrip():
    g = caterpillar_graph((3, 1, 2))
    text = write_edge_list(g)
    assert text.splitlines()[0] == f"{g.n} {len(g.edges)}"
    assert read_edge_list(text) == g


def test_edge_list_rejects_bad_input():
    with pytest.raises(ValueError):
        read_edge_list("")
    with pytest.raises(ValueError):
        read_edge_list("2 2\n0 1\n")
    bad = {
        "3 1\n0 1 2\n": "bad edge line '0 1 2'",
        "3 1\n0\n": "bad edge line '0'",
        "3 1\n0 x\n": "bad edge line '0 x'",
        "3\n": "bad header line '3'",
        "3 a\n": "bad header line '3 a'",
        "-1 0\n": f"n=-1 outside 0..{GRAPH_MAX_N}",
    }
    for text, message in bad.items():
        with pytest.raises(ValueError, match=re.escape(message)):
            read_edge_list(text)


def test_dot_export():
    dot = to_dot(chain(3), highlight=[1])
    assert dot.startswith("graph G {")
    assert "1 [color=blue];" in dot
    assert "0 -- 1;" in dot and "1 -- 2;" in dot
