import copy
import functools
import itertools
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.generators.atlas import graph_atlas_g

from leafcat import subtrees, verify
from leafcat.catseq import all_sequences, leaf_function_caterpillar
from leafcat.graph import (
    GRAPH_MAX_N,
    STAR_MAX_M,
    Graph,
    _preorder_levels,
    caterpillar_graph,
    chain,
    fk_tree,
    is_tree,
    star,
    wheel,
)
from leafcat.subtrees import (
    NEG_INF,
    LeafFunction,
    enumerate_free_trees,
    enumerate_induced_subtrees,
    fully_leafed_witness,
    leaf_function_bruteforce,
    leaf_function_tree,
)
from leafcat.words import rc


def test_leaf_function_validation():
    with pytest.raises(ValueError):
        LeafFunction(3, (0, 0, 2))  # wrong length
    with pytest.raises(ValueError):
        LeafFunction(3, (1, 0, 2, 2))  # L(0) != 0
    with pytest.raises(ValueError):
        LeafFunction(3, (0, 0, NEG_INF, 2))  # -inf not a suffix
    with pytest.raises(ValueError, match="L\\(1\\) must be 0"):
        LeafFunction(3, (0, 1, 2, 2))
    with pytest.raises(ValueError, match="bad leaf-function value -1"):
        LeafFunction(3, (0, 0, 2, -1))
    with pytest.raises(ValueError, match="bad leaf-function value 2.0"):
        LeafFunction(3, (0, 0, 2.0, 2))
    for values, bad in (((0, 0, True), True), ((0, False, 1), False), ((False, 0, 1), False)):
        with pytest.raises(ValueError, match=f"bad leaf-function value {bad}"):  # not a bool
            LeafFunction(2, values)


def test_sentinels_keep_repr_and_identity():
    from leafcat.leafwords import OMEGA

    assert (repr(NEG_INF), repr(OMEGA)) == ("-inf", "w")
    assert (str(NEG_INF), str(OMEGA)) == ("-inf", "w")
    assert (format(NEG_INF), f"{OMEGA}") == ("-inf", "w")
    assert NEG_INF is not OMEGA
    for sentinel in (NEG_INF, OMEGA):
        assert copy.deepcopy(sentinel) is sentinel
        assert pickle.loads(pickle.dumps(sentinel)) is sentinel
    # a pickle made when the sentinels were defined in subtrees loads to the same object
    assert pickle.loads(b"cleafcat.subtrees\nSentinel\n(V-inf\ntR.") is NEG_INF


def test_wheel10_leaf_function():
    lf = leaf_function_bruteforce(wheel(10))
    assert lf.values == (0, 0, 2, 2, 3, 4, 5, 2, 2, 2, NEG_INF, NEG_INF)
    assert lf.values[7] - lf.values[6] == -3


def test_caterpillar_312_leaf_function():
    lf = leaf_function_bruteforce(caterpillar_graph((3, 1, 2)))
    assert lf.values == (0, 0, 2, 2, 3, 4, 4, 5, 5, 6)


def test_chain_leaf_function():
    assert leaf_function_bruteforce(chain(5)).values == (0, 0, 2, 2, 2, 2)


def test_size_bound_enforced():
    with pytest.raises(ValueError):
        leaf_function_bruteforce(chain(21))
    leaf_function_bruteforce(chain(21), max_n=21)


def test_brute_force_bound_has_a_ceiling():
    cap = subtrees.BRUTEFORCE_MAX_N
    message = f"max_n={cap + 1} outside 0..{cap}"
    with pytest.raises(ValueError, match=message):
        leaf_function_bruteforce(chain(3), max_n=cap + 1)
    with pytest.raises(ValueError, match=message):
        fully_leafed_witness(chain(3), 2, max_n=cap + 1)
    with pytest.raises(ValueError, match=f"n={cap + 1} outside 0..{cap}"):
        next(enumerate_induced_subtrees(chain(cap + 1), 2))
    assert leaf_function_bruteforce(chain(cap), max_n=cap).values[cap] == 2


def test_enumerate_subtrees_triangle():
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert list(enumerate_induced_subtrees(triangle, 3)) == []


def test_enumerate_subtrees_chain4_edges():
    assert list(enumerate_induced_subtrees(chain(4), 2)) == [(0, 1), (1, 2), (2, 3)]


def test_enumerate_subtrees_wheel4_size5():
    assert list(enumerate_induced_subtrees(wheel(4), 5)) == []
    # every 5-set carries more than 4 edges, hence a cycle
    g = wheel(4)
    assert all(
        len([(u, v) for u, v in g.edges if u in sub and v in sub]) > 4
        for sub in itertools.combinations(range(5), 5)
    )


@functools.lru_cache(maxsize=16)
def _neighbor_lists(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbor lists read off the edge set, not off the bitmasks that
    the engine walks."""
    nbrs = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return tuple(tuple(sorted(ns)) for ns in nbrs)


def _subset_leaves(g: Graph, vs) -> int | None:
    """The leaf count of G[vs] if it is a tree (the empty set included), else
    None: read off the subset by hand, as an oracle for the enumeration."""
    inside = set(vs)
    adj = _neighbor_lists(g)
    degree = {v: sum(u in inside for u in adj[v]) for v in vs}
    if vs and sum(degree.values()) != 2 * (len(vs) - 1):
        return None
    seen, frontier = set(vs[:1]), list(vs[:1])
    while frontier:
        for u in adj[frontier.pop()]:
            if u in inside and u not in seen:
                seen.add(u)
                frontier.append(u)
    return sum(d == 1 for d in degree.values()) if len(seen) == len(vs) else None


def _naive_leaf_function(g: Graph) -> LeafFunction:
    """L_G from the definition: the best of every vertex subset of each size."""
    best = [0] + [NEG_INF] * g.n
    for i in range(1, g.n + 1):
        for vs in itertools.combinations(range(g.n), i):
            leaves = _subset_leaves(g, vs)
            if leaves is not None and (best[i] is NEG_INF or leaves > best[i]):
                best[i] = leaves
    return LeafFunction(g.n, tuple(best))


def test_enumeration_matches_subset_scan():
    # independent oracle: scan all vertex subsets
    graphs = [wheel(4), chain(5), caterpillar_graph((2, 0, 1)),
              Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])]
    for g in graphs:
        for i in range(g.n + 1):
            expected = [vs for vs in itertools.combinations(range(g.n), i)
                        if _subset_leaves(g, vs) is not None]
            assert sorted(enumerate_induced_subtrees(g, i)) == sorted(expected)


@st.composite
def random_graphs(draw, max_n=10):
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, c in zip(pairs, chosen) if c])


@settings(max_examples=150, deadline=None)
@given(random_graphs())
def test_bruteforce_matches_subset_oracle_on_random_graphs(g):
    assert leaf_function_bruteforce(g) == _naive_leaf_function(g), sorted(g.edges)


@settings(max_examples=150, deadline=None)
@given(random_graphs(), st.data())
def test_witness_is_fully_leafed_on_random_graphs(g, data):
    i = data.draw(st.integers(0, g.n))
    best = leaf_function_bruteforce(g).values[i]
    witness = fully_leafed_witness(g, i)
    if best is NEG_INF:
        assert witness is None
    else:
        # i distinct vertices inducing a tree with L(i) leaves
        assert len(set(witness)) == len(witness) == i
        assert _subset_leaves(g, witness) == best


def _mask(vs) -> int:
    return sum(1 << v for v in vs)


def _uncut_walks(g: Graph, limits) -> dict:
    """Per limit, the uncut walk's (mask, leaf count) pairs in order, and its
    tables (best, first)."""
    walks = {}
    for limit in limits:
        best, first = [0] + [-1] * g.n, [0] * (g.n + 1)
        walks[limit] = list(subtrees._induced_trees(g, limit, best, first)), (best, first)
    return walks


def _assert_leaf_counts_carried(g: Graph, walks=None):
    # at every limit the walk yields exactly the induced trees of that size,
    # each once with its own leaf count, and its table holds, at each size up
    # to the limit, the subsets' best count and a set that has it; `walks`,
    # when given, holds the uncut walks of _uncut_walks at every limit
    trees = [{} for _ in range(g.n + 1)]
    for i in range(1, g.n + 1):
        for vs in itertools.combinations(range(g.n), i):
            leaves = _subset_leaves(g, vs)
            if leaves is not None:
                trees[i][_mask(vs)] = leaves
    if walks is None:
        walks = _uncut_walks(g, range(1, g.n + 1))
    for limit in range(1, g.n + 1):
        yielded, (best, first) = walks[limit]
        assert sorted(yielded) == sorted(trees[limit].items()), (sorted(g.edges), limit)
        for i in range(1, g.n + 1):
            want = max(trees[i].values(), default=-1) if i <= limit else -1
            assert best[i] == want, (sorted(g.edges), limit, i)
            if i <= limit and want >= 0:
                assert trees[i].get(first[i]) == want, (sorted(g.edges), limit, i)


def test_leaf_counts_carried_on_families():
    graphs = [Graph.from_edges(n, itertools.combinations(range(n), 2)) for n in range(2, 9)]
    graphs += [wheel(n) for n in range(3, 10)] + [fk_tree(1), chain(12), star(10)]
    for g in graphs:
        _assert_leaf_counts_carried(g)


@st.composite
def graphs_at_density(draw, tenths, max_n=10):
    # each pair is an edge with probability tenths / 10
    n = draw(st.integers(0, max_n))
    return Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                if draw(st.integers(0, 9)) < tenths])


@settings(max_examples=100, deadline=None)
@given(st.one_of(graphs_at_density(8), graphs_at_density(2)))
def test_leaf_counts_carried_on_random_graphs(g):
    _assert_leaf_counts_carried(g)


def test_witness_chain3():
    assert fully_leafed_witness(chain(3), 3) == (0, 1, 2)


def test_witness_size0():
    assert fully_leafed_witness(wheel(4), 0) == ()


def test_witness_wheel10_size7():
    from leafcat.graph import induced_subgraph, is_tree, leaf_count

    u = fully_leafed_witness(wheel(10), 7)
    sub = induced_subgraph(wheel(10), u)
    assert len(u) == 7 and is_tree(sub) and leaf_count(sub) == 2


def test_witness_none_when_no_subtree():
    assert fully_leafed_witness(wheel(10), 10) is None


def test_witness_deterministic_and_optimal():
    g = wheel(6)
    lf = leaf_function_bruteforce(g)
    for i in range(g.n + 1):
        u = fully_leafed_witness(g, i)
        if lf.values[i] is NEG_INF:
            assert u is None
        else:
            from leafcat.graph import induced_subgraph, leaf_count

            assert leaf_count(induced_subgraph(g, u)) == lf.values[i]
        assert u == fully_leafed_witness(g, i)


def test_witness_scan_stops_at_its_size():
    # sets of size i keep their depth-first order when larger ones are cut,
    # so the witness is the one the scan of every connected set finds
    graphs = [wheel(12)]
    for seed in range(5):
        rng = random.Random(seed)
        graphs.append(Graph.from_edges(14, [e for e in itertools.combinations(range(14), 2)
                                            if rng.random() < 0.3]))
    for g in graphs:
        best, first = subtrees._scan(g, g.n)
        for i in sorted({0, 1, 2, 4, 6, 8, g.n}):
            expected = None if best[i] < 0 else tuple(v for v in range(g.n) if first[i] >> v & 1)
            assert fully_leafed_witness(g, i) == expected, (sorted(g.edges), i)


def test_witness_is_the_first_maximizing_set():
    # pinned enumeration order: anchors ascending, lowest vertex extended first
    assert [fully_leafed_witness(wheel(12), i) for i in (4, 6, 8)] == [
        (0, 2, 4, 12), (0, 2, 4, 6, 8, 12), (0, 1, 2, 3, 4, 5, 6, 7)]


def test_enumeration_order_is_pinned():
    rng = random.Random(7)
    g = Graph.from_edges(9, [e for e in itertools.combinations(range(9), 2)
                             if rng.random() < 0.35])
    assert list(enumerate_induced_subtrees(g, 5)) == [
        (0, 1, 3, 5, 7), (0, 1, 5, 6, 7), (0, 1, 3, 5, 8), (0, 1, 5, 6, 8), (0, 3, 4, 5, 6),
        (0, 3, 4, 5, 8), (1, 2, 3, 5, 6), (1, 2, 3, 5, 7), (1, 2, 4, 6, 7), (1, 2, 4, 6, 8),
        (1, 2, 5, 6, 8), (1, 2, 5, 7, 8), (2, 3, 4, 5, 6), (2, 3, 4, 5, 8)]


def _recursive_induced_trees(g: Graph, limit: int):
    """The engine as it was when each vertex of a set held one nested generator
    frame: the reference for the explicit-stack walk, set by set, in order."""
    adj = g.adj_masks

    def extend(s: int, vs: tuple[int, ...], ext: int, closed: int, leaves: int):
        yield vs, leaves
        if len(vs) >= limit:
            return
        while ext:
            low = ext & -ext
            ext ^= low
            w = low.bit_length() - 1
            inside = adj[w] & s
            if inside & (inside - 1):
                continue
            d = (adj[inside.bit_length() - 1] & s).bit_count()  # of w's one neighbour, u
            grown = leaves + 1 - (d == 1) + (d == 0)  # w is a leaf; u was one, or now is
            new_ext = ext | (adj[w] & above & ~closed)
            yield from extend(s | low, vs + (w,), new_ext, closed | adj[w] | low, grown)

    for v in range(g.n):
        above = -1 << (v + 1)
        yield from extend(1 << v, (v,), adj[v] & above, (1 << v) | adj[v], 0)


def _assert_walk_is_the_reference(g: Graph, limits, made=None) -> None:
    # The walk at each limit must yield exactly the reference's sets of
    # max(limit, 1) vertices, in its order, as masks with their leaf counts,
    # and its table must hold the reference's first strict maximum at each
    # size up to max(limit, 1).  One reference walk at the top limit serves
    # every limit: its sets of at most max(limit, 1) vertices, in its order,
    # are its walk at that limit.  No walk is held as a whole list, unless
    # `made` holds the walks of _uncut_walks already.
    tables, walks = {}, {}  # walks: the size they yield -> [(limit, walk)]
    for limit in limits:
        if made is None:
            tables[limit] = [0] + [-1] * g.n, [0] * (g.n + 1)
            walk = subtrees._induced_trees(g, limit, *tables[limit])
        else:
            sets, tables[limit] = made[limit]
            walk = iter(sets)
        walks.setdefault(max(limit, 1), []).append((limit, walk))
    best, first = [0] + [-1] * g.n, [0] * (g.n + 1)
    for vs, leaves in _recursive_induced_trees(g, max(limits)):
        size, mask = len(vs), _mask(vs)
        if leaves > best[size]:
            best[size], first[size] = leaves, mask
        for limit, walk in walks.get(size, ()):
            assert next(walk, None) == (mask, leaves), (sorted(g.edges), limit)
    for limit, walk in itertools.chain.from_iterable(walks.values()):
        assert next(walk, None) is None, (sorted(g.edges), limit)
        top = max(limit, 1)
        cut = [-1] * (g.n - top)
        assert tables[limit] == (best[:top + 1] + cut, first[:top + 1] + [0] * len(cut)), (
            sorted(g.edges), limit)


def test_walk_matches_the_recursive_engine_on_the_atlas(atlas_pass):
    _raise_first(atlas_pass["reference"])


@pytest.mark.parametrize("g", [wheel(18), fk_tree(3), caterpillar_graph(rc("1" * 15 + "0"))],
                         ids=["wheel-18", "fk-3", "star-caterpillar"])
def test_walk_matches_the_recursive_engine_on_families(g):
    _assert_walk_is_the_reference(g, range(g.n + 1))


def test_walk_matches_the_recursive_engine_at_the_deepest_stack():
    # a random recursive tree on BRUTEFORCE_MAX_N vertices: the whole graph is
    # an induced tree, so the walk grows one set to the cap
    rng = random.Random(25)
    n = subtrees.BRUTEFORCE_MAX_N
    g = Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])
    assert is_tree(g)
    _assert_walk_is_the_reference(g, [n])


def _walk(g: Graph, limit: int, cut: bool = False):
    """The walk's tables at `limit`, and how many sets it yielded."""
    best, first = [0] + [-1] * g.n, [0] * (g.n + 1)
    yielded = sum(1 for _ in subtrees._induced_trees(g, limit, best, first, cut=cut))
    return (best, first), yielded


def _assert_cut_scan_is_the_full_walk(g: Graph, limits, walks=None) -> None:
    # the cut scan behind leaf functions and witnesses must end with the best
    # counts and first best sets of the uncut walk, the one the per-size
    # enumeration reads; `walks`, when given, holds those of _uncut_walks
    for limit in limits:
        full = _walk(g, limit)[0] if walks is None else walks[limit][1]
        assert subtrees._scan(g, limit) == full, (sorted(g.edges), limit)


def test_cut_scan_is_the_full_walk_on_the_atlas(atlas_pass):
    _raise_first(atlas_pass["cut"])


@settings(max_examples=100, deadline=None)
@given(st.one_of(graphs_at_density(8, max_n=12), graphs_at_density(2, max_n=12)))
def test_cut_scan_is_the_full_walk_on_random_graphs(g):
    _assert_cut_scan_is_the_full_walk(g, range(g.n + 1))


def _random_tree(n: int, seed: int) -> Graph:
    """A seeded random recursive tree: each vertex joins an earlier one."""
    rng = random.Random(seed)
    return Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


@pytest.mark.parametrize("g", [wheel(18), fk_tree(3), caterpillar_graph(rc("1" * 15 + "0")),
                               _random_tree(25, 25)],
                         ids=["wheel-18", "fk-3", "star-caterpillar", "random-tree-25"])
def test_cut_scan_is_the_full_walk_on_families(g):
    _assert_cut_scan_is_the_full_walk(g, [4, 6, 8, g.n])
    # and the cut fires: at limit 8 fewer sets of 8 vertices are reached
    assert _walk(g, 8, cut=True)[1] < _walk(g, 8)[1]


def test_negative_size_rejected():
    with pytest.raises(ValueError, match="i=-1 outside 0..3"):
        fully_leafed_witness(chain(3), -1)
    with pytest.raises(ValueError, match="i=-1 outside 0..3"):
        list(enumerate_induced_subtrees(chain(3), -1))


def test_neg_inf_suffix_invariant():
    for g in [wheel(5), wheel(8), Graph.from_edges(4, [(0, 1), (2, 3)]),
              Graph.from_edges(3, [])]:
        leaf_function_bruteforce(g)  # LeafFunction validates the suffix itself


def tree_canonical_form(g: Graph):
    """Canonical encoding of a tree: AHU form rooted at the center(s)."""
    adj = _neighbor_lists(g)

    def encode(root: int, parent: int):
        subs = sorted(encode(v, root) for v in adj[root] if v != parent)
        return tuple(subs)

    if g.n == 0:
        return ()
    # peel leaves to find the 1 or 2 centers
    deg = [len(ns) for ns in adj]
    layer = [v for v in range(g.n) if deg[v] <= 1]
    remaining = set(range(g.n))
    while len(remaining) > 2:
        nxt = []
        for v in layer:
            remaining.discard(v)
            for u in adj[v]:
                if u in remaining:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    return min(encode(c, -1) for c in remaining)


# OEIS A000055
FREE_TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
                    11: 235, 12: 551, 13: 1301, 14: 3159}


@pytest.mark.parametrize("n,count", sorted(FREE_TREE_COUNTS.items()))
def test_free_tree_counts(n, count):
    trees = list(enumerate_free_trees(n))
    assert len(trees) == count
    from leafcat.graph import is_tree

    assert all(is_tree(t) and t.n == n for t in trees)
    assert len({tree_canonical_form(t) for t in trees}) == count


def _prufer_tree(n, seq, labels):
    """The labeled tree of a Pruefer sequence, with vertices renamed by labels."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    edges.append(tuple(v for v in range(n) if degree[v] == 1))
    return Graph.from_edges(n, [(labels[u], labels[v]) for u, v in edges])


def test_free_trees_against_labeled_enumeration():
    # second route: all labeled trees from Pruefer sequences, deduplicated
    # by the canonical form
    for n in range(2, 8):
        classes = {tree_canonical_form(_prufer_tree(n, seq, range(n)))
                   for seq in itertools.product(range(n), repeat=n - 2)}
        assert len(classes) == len(list(enumerate_free_trees(n)))


@pytest.mark.parametrize("n", range(1, 13))
def test_free_trees_match_networkx(n):
    # the generator follows the same algorithm, so it yields the same trees
    # with the same vertex numbers in the same order
    import networkx as nx

    expected = [frozenset((min(u, v), max(u, v)) for u, v in t.edges())
                for t in nx.nonisomorphic_trees(n)]
    assert [t.edges for t in enumerate_free_trees(n)] == expected


def test_free_tree_bounds():
    with pytest.raises(ValueError):
        list(enumerate_free_trees(0))
    with pytest.raises(ValueError):
        list(enumerate_free_trees(15))


def _next_rooted_tree(levels, p=None):
    """Beyer-Hedetniemi successor of a rooted tree's level sequence, changing
    it from position p on (by default, from the last vertex not on level 1)."""
    if p is None:
        p = len(levels) - 1
        while levels[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    # from p on, the sequence repeats levels[q:p]: from p's parent q up to p
    fill = len(levels) - p
    return levels[:p] + (levels[q:p] * (fill // (p - q) + 1))[:fill]


def _reference_free_trees(n):
    """The free-tree generator of Wright, Richmond, Odlyzko and McKay, walking
    Beyer and Hedetniemi's rooted trees, with its canonicity test written on
    copies: the root's first subtree and the rest of the tree as level
    sequences of their own, compared by height, then by (size, sequence)."""
    def split(levels):
        m = [*levels, 1].index(1, 2)
        return [d - 1 for d in levels[1:m]], [0] + levels[m:]

    if n == 1:
        yield [0]
        return
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while levels is not None:
        left, rest = split(levels)
        if not (max(rest) > max(left) or (
                max(rest) == max(left) and (len(left), left) <= (len(rest), rest))):
            p = len(left)
            old, levels = levels, _next_rooted_tree(levels, p)
            if old[p] > 2:
                height = max(split(levels)[0])
                levels[-height - 1:] = range(1, height + 2)
        yield levels
        levels = _next_rooted_tree(levels)


@pytest.mark.parametrize("n", range(1, 15))
def test_free_tree_levels_match_the_reference(n):
    got = [list(levels) for levels, _ in subtrees._free_trees(n)]
    assert got == list(_reference_free_trees(n))
    assert len(got) == FREE_TREE_COUNTS[n]


def _rooted_trees(size):
    """Every rooted tree on `size` vertices as its canonical level sequence,
    from the path down, by the successor above."""
    levels = list(range(size))
    while levels is not None:
        yield levels
        levels = _next_rooted_tree(levels)


def _height(levels) -> int:
    return max(levels) - min(levels)


@pytest.mark.parametrize("n", [3, 4, 7, 8, 13, 14])
def test_shapes_are_the_rooted_trees_within_the_bound(n):
    # a shape of size s and height h can hang from the center of a free tree
    # on n vertices iff s + h <= n - 2 or 2s <= n; the search builds those and
    # no other, each once, and a higher shape sorts above a lower one
    shapes = subtrees._rooted_shapes(n)
    want = {tuple(d + 1 for d in levels) for size in range(1, n)
            for levels in _rooted_trees(size)
            if size + _height(levels) <= n - 2 or 2 * size <= n}
    assert sorted(shape[0] for shape in shapes) == sorted(want)
    assert [(size, height) for levels, size, height, _, _ in shapes] == [
        (len(levels), _height(levels)) for levels, *_ in shapes]
    assert [shape[1] for shape in shapes] == sorted(shape[1] for shape in shapes)
    heights = [shape[2] for shape in sorted(shapes, reverse=True)]
    assert heights == sorted(heights, reverse=True)
    if n == 13:
        assert len(shapes) == 155


def test_monotone_iff_tree():
    # trees have non-decreasing values; connected non-trees do not
    # (atlas holds every graph on up to 7 vertices)
    import networkx as nx

    for ag in graph_atlas_g():
        n = len(ag)
        if n < 3 or not nx.is_connected(ag):
            continue
        g = Graph.from_edges(n, [(int(u), int(v)) for u, v in ag.edges()])
        vals = leaf_function_bruteforce(g).values
        nondecreasing = all(
            b is not NEG_INF and a <= b
            for a, b in zip(vals, vals[1:])
            if a is not NEG_INF
        ) and not any(
            a is NEG_INF and b is not NEG_INF for a, b in zip(vals, vals[1:])
        )
        from leafcat.graph import is_tree

        assert nondecreasing == is_tree(g), (g, vals)


def test_connected_noncomplete_l3_is_2():
    import networkx as nx

    for ag in graph_atlas_g():
        n = len(ag)
        if n < 3 or n > 6 or not nx.is_connected(ag):
            continue
        if len(ag.edges()) == n * (n - 1) // 2:
            continue  # complete
        g = Graph.from_edges(n, [(int(u), int(v)) for u, v in ag.edges()])
        assert leaf_function_bruteforce(g).values[3] == 2


def _atlas_graphs():
    """The 1,253 graphs of networkx's atlas, every graph on up to 7 vertices."""
    for ag in graph_atlas_g():
        yield Graph.from_edges(len(ag), [(int(u), int(v)) for u, v in ag.edges()])


def _assert_atlas_oracle(g: Graph, walks, distinct) -> None:
    # brute force yields exactly the graph's induced trees with their own leaf
    # counts, and its leaf function obeys the step laws
    _assert_leaf_counts_carried(g, walks)
    values = leaf_function_bruteforce(g).values
    distinct[g.n].add(values)
    for i in range(2, g.n):
        a, b = values[i], values[i + 1]
        if a is not NEG_INF and b is not NEG_INF:
            # up by at most one on every graph (drop a leaf of a best tree);
            # down by at most one holds only up to 7 vertices
            assert -1 <= b - a <= 1, (sorted(g.edges), values)


@pytest.fixture(scope="module")
def atlas_pass() -> dict:
    """One pass over the atlas for the four tests that check all of it: per
    graph, one uncut walk at each limit serves the subset oracle, the
    recursive engine and the cut scan, and the witnesses are checked too.
    Maps each check to the errors it raised, graph by graph, and "distinct"
    to the distinct leaf functions per order."""
    out = {"oracle": [], "reference": [], "cut": [], "witness": [],
           "distinct": [set() for _ in range(8)]}
    for g in _atlas_graphs():
        walks = _uncut_walks(g, range(g.n + 1))
        checks = {
            "oracle": lambda: _assert_atlas_oracle(g, walks, out["distinct"]),
            # the reference run at each limit itself
            "reference": lambda: [_assert_walk_is_the_reference(g, [limit], walks)
                                  for limit in range(g.n + 1)],
            "cut": lambda: _assert_cut_scan_is_the_full_walk(g, range(g.n + 1), walks),
            "witness": lambda: _assert_atlas_witnesses(g),
        }
        for name, check in checks.items():
            try:
                check()
            except Exception as exc:  # raised again by the check's own test
                out[name].append(exc)
    return out


def _raise_first(errors: list) -> None:
    if errors:
        raise errors[0]


def test_atlas_is_an_exhaustive_oracle(atlas_pass):
    # every graph on up to 7 vertices
    _raise_first(atlas_pass["oracle"])
    assert [len(d) for d in atlas_pass["distinct"]] == [1, 1, 2, 3, 5, 8, 14, 25]


def _assert_atlas_witnesses(g: Graph) -> None:
    # None exactly at -inf, else an i-set with L(i) leaves: the first best
    # set of a full scan, the one fully_leafed_witness's shorter scan keeps
    values = leaf_function_bruteforce(g).values
    first = subtrees._scan(g, g.n)[1]
    for i in range(g.n + 1):
        witness = fully_leafed_witness(g, i)
        assert (witness is None) == (values[i] is NEG_INF), (sorted(g.edges), i)
        if witness is not None:
            assert len(set(witness)) == len(witness) == i, (sorted(g.edges), i)
            assert _subset_leaves(g, witness) == values[i], (sorted(g.edges), i)
            assert _mask(witness) == first[i], (sorted(g.edges), i)


def test_witnesses_on_the_atlas(atlas_pass):
    _raise_first(atlas_pass["witness"])


def test_cone_over_path_drops_by_two():
    # the cone over a 6-vertex path plus an isolated vertex: the smallest
    # order at which L falls by 2 in one step
    cone = Graph.from_edges(8, [(i, i + 1) for i in range(5)] + [(i, 7) for i in range(7)])
    expected = (0, 0, 2, 2, 3, 4, 2, NEG_INF, NEG_INF)
    assert leaf_function_bruteforce(cone).values == expected
    assert _naive_leaf_function(cone).values == expected


def test_edge_implies_l2():
    for g in [chain(2), wheel(3), caterpillar_graph((2,))]:
        assert leaf_function_bruteforce(g).values[2] == 2


# ---------------------------------------------------------------------------
# the tree DP against brute force


@pytest.mark.parametrize("n", range(1, 12))
def test_tree_dp_matches_bruteforce_on_free_trees(n):
    for t in enumerate_free_trees(n):
        assert leaf_function_tree(t) == leaf_function_bruteforce(t), sorted(t.edges)


def test_tree_dp_matches_bruteforce_on_families():
    trees = [fk_tree(k) for k in (1, 2, 3)]
    trees += [chain(n) for n in range(1, 16)] + [star(m) for m in range(0, 16)]
    trees += [caterpillar_graph(s) for s in all_sequences(9)]
    for t in trees:
        assert leaf_function_tree(t) == leaf_function_bruteforce(t, max_n=25), sorted(t.edges)


@st.composite
def random_trees(draw, max_n=12):
    n = draw(st.integers(2, max_n))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return _prufer_tree(n, seq, draw(st.permutations(range(n))))


@settings(max_examples=150, deadline=None)
@given(random_trees())
def test_tree_dp_matches_bruteforce_on_random_trees(t):
    assert leaf_function_tree(t) == leaf_function_bruteforce(t)


def test_census_path_matches_tree_dp():
    # the census reads the search's values; the public entry numbers each
    # generated Graph again by depth-first search
    for n in range(1, 14):
        for (levels, values), t in zip(subtrees._free_trees(n), enumerate_free_trees(n),
                                       strict=True):
            assert levels[0] == 0 and all(1 <= levels[v] <= levels[v - 1] + 1 for v in range(1, n))
            assert values == leaf_function_tree(t).values, sorted(t.edges)


def test_census_memo_matches_bruteforce():
    # one memo across n = 3..11, shared as leaf_function_tree would share it,
    # so later trees hit the rooted subtrees of earlier ones
    memo = {}
    for n in range(3, 12):
        for (levels, _), t in zip(subtrees._free_trees(n), enumerate_free_trees(n), strict=True):
            values = subtrees._leaf_function_levels(list(levels), memo)
            assert values == leaf_function_bruteforce(t).values, sorted(t.edges)
    # a key is a subtree's shape: its level sequence as a child of the root,
    # its own root at depth 1, so one entry serves the subtree at every depth
    assert memo
    for key in memo:
        assert 1 <= len(key) <= subtrees._MEMO_MAX_SIZE and key[0] == 1
        assert all(2 <= key[i] <= key[i - 1] + 1 for i in range(1, len(key)))


_NONE = subtrees._NONE


@st.composite
def merge_args(draw):
    """Arguments of one merge: a parent's entry and a closed child's rows,
    and whether the merge is the root's last.  A row holds _NONE at entry 0
    and a count at each size from 1; `under` starts at size 1.  The parent's
    `inside` covers every size of the merged row.  A memoised child brings
    the best counts inside it, per size from 2; a walked child brings none."""
    counts = st.integers(0, 12)
    row = [_NONE] + draw(st.lists(counts, min_size=1, max_size=6))
    under = tuple(draw(st.lists(counts, min_size=1, max_size=6)))
    size = len(row) + len(under)
    target = draw(st.lists(counts, min_size=size, max_size=size + 6))
    inside = draw(st.one_of(st.none(), st.lists(counts, min_size=len(under),
                                                max_size=len(under))))
    return [1, row, None, target], under, inside, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(merge_args())
def test_merge_up_is_max_plus_convolution(args):
    parent, under, inside, last = args
    row, target = list(parent[1]), list(parent[3])
    # the oracle: a set topped by the parent holds s of its sizes and k of the
    # child's; next, the parent over one set under the child is a leaf
    def best(t, keep_row=True):  # of the sets of t vertices topped by the parent
        kept = [row[t]] if keep_row and t < len(row) else []  # no vertex under the child
        return max(kept + [row[s] + under[t - s - 1]
                           for s in range(1, min(t, len(row))) if t - s <= len(under)])

    want_row = [_NONE] + [best(t) for t in range(1, len(row) + len(under))]
    # the gift, per size t from 2: the parent and a set of t - 1 under the
    # child, the parent a leaf, or a best set inside a memoised child
    gift = [under[t - 2] + 1 for t in range(2, len(under) + 2)]
    if inside is not None:
        gift = [max(a, b) for a, b in zip(gift, inside)]
    want = list(target)
    for t, x in enumerate(gift, 2):
        want[t] = max(want[t], x)
    if last:  # the root's values gain its sets through the child; its close adds the rest
        for t in range(2, len(want_row)):
            want[t] = max(want[t], best(t, keep_row=False))
    read = list(gift)
    subtrees._merge_up(parent, under, gift, parent[3] if last else None)
    assert parent[1] == (row if last else want_row) and parent[3] == want
    assert gift == read  # the gift, kept in the memo, is read, never written


def test_merge_up_rows_keep_their_invariant(monkeypatch):
    # every row the tree DP and the free-tree search hand to the merge:
    # entry 0 is _NONE and every size from 1 to the subtree's size is
    # reached, so no entry after it is negative; the child's row starts at
    # size 1.  A set less a leaf keeps its top, so each size's count is at
    # most one above the size before: no set a vertex tops beats its parent
    # over that set less a leaf, which is why only the root closes its row
    merge, checked = subtrees._merge_up, [0]

    def checking(parent, under, gift, grown=None):
        row = parent[1]
        assert row[0] == _NONE and min(row[1:]) >= 0 and len(row) >= 2, row
        assert under and min(under) >= 0, under
        for counts in row[1:], under:
            assert all(b <= a + 1 for a, b in zip(counts, counts[1:])), counts
        checked[0] += 1
        merge(parent, under, gift, grown)

    monkeypatch.setattr(subtrees, "_merge_up", checking)
    trees = [t for n in range(1, 13) for t in enumerate_free_trees(n)]
    trees += [chain(300), star(300)] + [caterpillar_graph(s) for s in all_sequences(9)]
    for t in trees:
        leaf_function_tree(t)
    assert checked[0] > len(trees)


def test_census_search_matches_fresh_memo(monkeypatch):
    # every tree on 1 to 14 vertices: the search's values against the tree DP
    # with a fresh memo.  The search merges once per step, and each whole tree
    # closes once, through the merge that writes the values: at n = 13 and 14
    # about 2.1 merges per tree, where the DP merges each of the root's
    # children at least
    merge, merges, last = subtrees._merge_up, [0], [0]

    def counted(parent, under, gift, grown=None):
        merges[0] += 1
        last[0] += grown is not None
        merge(parent, under, gift, grown)

    monkeypatch.setattr(subtrees, "_merge_up", counted)
    for n in range(1, 15):
        merges[0] = last[0] = 0
        trees = list(subtrees._free_trees(n))
        assert last[0] == (len(trees) if n > 2 else 0) and len(trees) == FREE_TREE_COUNTS[n]
        if n >= 13:
            assert merges[0] < 2.2 * len(trees), (n, merges[0])
        monkeypatch.setattr(subtrees, "_merge_up", merge)
        for levels, values in trees:
            assert subtrees._leaf_function_levels(list(levels), {}) == values, levels
        monkeypatch.setattr(subtrees, "_merge_up", counted)


def test_census_search_matches_bruteforce():
    # each tree on at most 9 vertices, its values straight from the search
    for n in range(1, 10):
        for (_, values), t in zip(subtrees._free_trees(n), enumerate_free_trees(n), strict=True):
            assert values == leaf_function_bruteforce(t).values, sorted(t.edges)


def _levels_graph(levels) -> Graph:
    """The tree of a preorder level sequence, numbered in preorder."""
    last, edges = {}, []
    for v, d in enumerate(levels):
        if v:
            edges.append((last[d - 1], v))
        last[d] = v
    return Graph.from_edges(len(levels), edges)


def _naive_rows(shape) -> tuple[tuple, list]:
    """The `under` and gift rows of a shape, its level sequence at depth 1,
    by a scan of every vertex subset of the shape under a parent p.  `under`
    at size k: the best set of k + 1 holding p, less p, a leaf.  The gift at
    size t: the best t-set inside the shape or, the one-child row, holding p."""
    g, size = _levels_graph([0, *shape]), len(shape)  # p is vertex 0
    inside, one_child = [-1] * (size + 2), [-1] * (size + 2)
    for vs in itertools.chain.from_iterable(
            itertools.combinations(range(size + 1), i) for i in range(2, size + 2)):
        leaves = _subset_leaves(g, vs)
        if leaves is not None:
            row = one_child if vs[0] == 0 else inside
            row[len(vs)] = max(row[len(vs)], leaves)
    return (tuple(x - 1 for x in one_child[2:]),
            [max(a, b) for a, b in zip(inside[2:], one_child[2:])])


def test_memo_rows_are_the_naive_counts():
    # each memoised shape, from one memo shared over the trees below
    memo = {}
    trees = [list(levels) for n in range(1, 13) for levels, _ in subtrees._free_trees(n)]
    trees += [_preorder_levels(t) for t in [star(300)] + [caterpillar_graph(s)
                                                          for s in all_sequences(9)]]
    for levels in trees:
        subtrees._leaf_function_levels(levels, memo)
    assert len(memo) > 100
    for key, rows in memo.items():
        assert rows == _naive_rows(key), key


def test_shape_rows_are_the_naive_counts():
    # each of the 155 shapes the census builds for its trees on 13 vertices,
    # made from a smaller open shape by one merge
    for levels, _, _, under, gift in subtrees._rooted_shapes(13):
        assert (under, gift) == _naive_rows(levels), levels


def test_census_ends_at_the_root_s_last_merge(monkeypatch):
    # each of the census's trees ends at the merge of its center's last
    # child, which writes the values and builds no row.  Through the tree DP,
    # with one memo over the same trees, the root's last child is a memo hit
    # in all but one of them, and its merge writes the values too
    merge, last = subtrees._merge_up, [0]

    def counted(parent, under, gift, grown=None):
        last[0] += grown is not None
        merge(parent, under, gift, grown)

    monkeypatch.setattr(subtrees, "_merge_up", counted)
    reports = verify.run_suite("trees", 13)
    assert not any(r.failures for r in reports)
    assert sum(r.instances for r in reports) == last[0] == 2286
    trees = [list(levels) for n in range(3, 14) for levels, _ in subtrees._free_trees(n)]
    memo, last[0] = {}, 0
    for levels in trees:
        subtrees._leaf_function_levels(levels, memo)
    assert last[0] == 2285


# one memo across every example, as the census shares one across its trees
_SHARED_MEMO = {}


@settings(max_examples=150, deadline=None)
@given(random_trees(max_n=14))
def test_shared_memo_matches_bruteforce_on_random_trees(t):
    values = subtrees._leaf_function_levels(_preorder_levels(t), _SHARED_MEMO)
    assert values == leaf_function_bruteforce(t).values, sorted(t.edges)


@st.composite
def caterpillar_sequences(draw, max_size=40):
    """A sequence of size at most max_size: a spine of k vertices, each
    end carrying a leaf, and the other leaves placed along it at random."""
    k = draw(st.integers(1, max_size // 2))
    placed = draw(st.lists(st.integers(0, k - 1), max_size=max_size - k - 2))
    s = [placed.count(i) for i in range(k)]
    s[0] += 1
    s[-1] += 1
    return tuple(s)


@settings(max_examples=150, deadline=None)
@given(caterpillar_sequences())
def test_caterpillar_formula_matches_tree_dp(s):
    assert leaf_function_caterpillar(s) == leaf_function_tree(caterpillar_graph(s)), s


def test_caterpillar_formula_matches_tree_dp_on_large_caterpillars():
    # besides the chain and the star below, the only trees of hundreds of
    # vertices: here the knapsack rows merged at a spine vertex differ in length
    rng = random.Random(24)
    for size in (250, 500, 750, 1000):
        k = rng.randint(2, size // 3)
        s = [0] * k
        for _ in range(size - k - 2):
            s[rng.randrange(k)] += 1
        s[0] += 1
        s[-1] += 1
        s = tuple(s)
        assert leaf_function_caterpillar(s) == leaf_function_tree(caterpillar_graph(s)), s


def test_tree_dp_on_the_largest_chain_and_star():
    # the DP walks its tree without recursion: the chain, numbered from an
    # end, is GRAPH_MAX_N - 1 levels deep
    n = GRAPH_MAX_N
    assert leaf_function_tree(chain(n)).values == (0, 0) + (2,) * (n - 1)
    # the star's sets of i >= 3 vertices hold its centre and i - 1 leaves
    m = STAR_MAX_M
    assert leaf_function_tree(star(m)).values == (0, 0, 2) + tuple(range(2, m + 1))


def test_tree_dp_memory_is_linear():
    # each vertex's knapsack is freed once merged into its parent's; keeping
    # every row took 465 KB on this chain
    t = chain(300)
    tracemalloc.start()
    try:
        lf = leaf_function_tree(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lf.values == (0, 0) + (2,) * 299
    assert peak < 200_000


def test_tree_dp_empty_tree():
    assert leaf_function_tree(Graph(0, frozenset())).values == (0,)


def test_tree_dp_rejects_non_trees():
    for g in [Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]),
              Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)]),  # n - 1 edges, cycle
              Graph.from_edges(4, [(0, 1), (2, 3)]),
              Graph.from_edges(2, []),
              wheel(5)]:
        with pytest.raises(ValueError, match="requires a tree"):
            leaf_function_tree(g)
