"""Leaf functions: brute force on any graph, dynamic programming on trees.

The brute-force engine grows connected vertex sets from each anchor vertex,
restricted to vertices above the anchor, with exclusive-neighborhood
extension so that every connected set is produced exactly once.  Sets are
bitmasks internally.  It stays the oracle for the tree DP.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

from .graph import Graph

DEFAULT_MAX_N = 20


class Sentinel:
    """A marker value, one instance per name, compared by identity.  Not a
    number on purpose: arithmetic with it must be handled explicitly, never
    silently."""

    _named: dict[str, "Sentinel"] = {}

    def __new__(cls, name: str):
        if name not in cls._named:
            self = super().__new__(cls)
            self.name = name
            cls._named[name] = self
        return cls._named[name]

    def __repr__(self):
        return self.name

    def __reduce__(self):
        return Sentinel, (self.name,)


# the value of an empty maximum
NEG_INF = Sentinel("-inf")


@dataclass(frozen=True)
class LeafFunction:
    """Values of L_G: max leaves over induced subtrees of each size 0..n."""

    n: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} values, got {len(self.values)}")
        if self.values[0] != 0:
            raise ValueError("L(0) must be 0")
        if self.n >= 1 and self.values[1] != 0:
            raise ValueError("L(1) must be 0")
        seen_inf = False
        for v in self.values[1:]:
            if v is NEG_INF:
                seen_inf = True
            elif seen_inf:
                raise ValueError("-inf entries must form a suffix")
            elif not isinstance(v, int) or v < 0:
                raise ValueError(f"bad leaf-function value {v!r}")

    def to_json(self) -> str:
        vals = ["-inf" if v is NEG_INF else v for v in self.values]
        return json.dumps({"n": self.n, "values": vals})

    @staticmethod
    def from_json(text: str) -> "LeafFunction":
        data = json.loads(text)
        vals = tuple(NEG_INF if v == "-inf" else int(v) for v in data["values"])
        return LeafFunction(int(data["n"]), vals)


def _connected_set_masks(g: Graph, limit: int) -> Iterator[int]:
    """All nonempty connected vertex sets of size <= limit, each exactly once.

    Deterministic order: anchors ascending, then depth-first with the lowest
    available vertex extended first.
    """
    adj = g.adj_masks

    def extend(s: int, size: int, ext: int, closed: int):
        yield s
        if size == limit:
            return
        while ext:
            low = ext & -ext
            ext ^= low
            w = low.bit_length() - 1
            new_ext = ext | (adj[w] & above & ~closed)
            yield from extend(s | low, size + 1, new_ext, closed | adj[w] | low)

    for v in range(g.n):
        above = -1 << (v + 1)
        yield from extend(1 << v, 1, adj[v] & above, (1 << v) | adj[v])


def _mask_vertices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return tuple(out)


def _tree_stats(g: Graph, mask: int, vertices: tuple[int, ...]):
    """(is_tree, leaf_count) for the induced subgraph on a connected set."""
    adj = g.adj_masks
    twice_edges = 0
    leaves = 0
    for v in vertices:
        d = (adj[v] & mask).bit_count()
        twice_edges += d
        if d == 1:
            leaves += 1
    return twice_edges == 2 * (len(vertices) - 1), leaves


def enumerate_induced_subtrees(g: Graph, i: int) -> Iterator[tuple[int, ...]]:
    """Vertex sets U with |U| = i and G[U] a tree, each once, sorted tuples."""
    if i > g.n:
        raise ValueError(f"i={i} exceeds n={g.n}")
    if i == 0:
        yield ()
        return
    for mask in _connected_set_masks(g, i):
        vs = _mask_vertices(mask)
        if len(vs) != i:
            continue
        ok, _ = _tree_stats(g, mask, vs)
        if ok:
            yield vs


def _scan(g: Graph):
    """Single pass over all connected sets: best leaf count per size and the
    first witness mask attaining it (strict improvements only, so the witness
    is the earliest set in enumeration order reaching the maximum)."""
    best: list[int | None] = [None] * (g.n + 1)
    witness: list[int | None] = [None] * (g.n + 1)
    best[0] = 0
    witness[0] = 0
    for mask in _connected_set_masks(g, g.n):
        vs = _mask_vertices(mask)
        ok, leaves = _tree_stats(g, mask, vs)
        if not ok:
            continue
        size = len(vs)
        if best[size] is None or leaves > best[size]:
            best[size] = leaves
            witness[size] = mask
    return best, witness


def leaf_function_bruteforce(g: Graph, max_n: int = DEFAULT_MAX_N) -> LeafFunction:
    """Ground-truth leaf function by exhaustive enumeration."""
    if g.n > max_n:
        raise ValueError(f"graph has {g.n} vertices, exceeds bound {max_n}")
    best, _ = _scan(g)
    return LeafFunction(g.n, tuple(NEG_INF if b is None else b for b in best))


def fully_leafed_witness(g: Graph, i: int, max_n: int = DEFAULT_MAX_N):
    """A vertex set of size i inducing a tree with L_G(i) leaves, or None.

    Deterministic: first maximizing set in enumeration order.
    """
    if i > g.n:
        raise ValueError(f"i={i} exceeds n={g.n}")
    if g.n > max_n:
        raise ValueError(f"graph has {g.n} vertices, exceeds bound {max_n}")
    _, witness = _scan(g)
    if witness[i] is None:
        return None
    return _mask_vertices(witness[i])


# ---------------------------------------------------------------------------
# Tree DP

# An impossible knapsack entry: adding real leaf counts to it stays negative.
_NONE = -(1 << 30)


def leaf_function_tree(t: Graph) -> LeafFunction:
    """L_T of a tree in O(n^2), after Blondin Masse et al., "Fully leafed
    induced subtrees" (arXiv:1709.09808).

    Root the tree at 0; every subtree S has a top vertex v, the one nearest
    the root.  For each v a knapsack over its children records, per size of
    S and per number of chosen children capped at 2, the most leaves of S
    other than v.  Vertex v then counts as a leaf of S when its parent is in
    S and it has no chosen child, or when it is the top and has exactly one.
    """
    n = t.n
    if n == 0:
        return LeafFunction(0, (0,))
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in t.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    parent = [-1] * n
    parent[0] = 0  # the root is its own parent, so never revisited
    order = [0]
    for v in order:
        for u in nbrs[v]:
            if parent[u] < 0:
                parent[u] = v
                order.append(u)
    if len(order) != n or len(t.edges) != n - 1:
        raise ValueError("leaf_function_tree requires a tree")
    best = [0] * (n + 1)
    # under_parent[v][s]: most leaves of a set of s vertices topped by v,
    # counting v, when v's parent is in the set too
    under_parent: list[list[int]] = [[]] * n
    for v in reversed(order):
        # by_kids[c][s]: most leaves other than v of a set of s vertices
        # topped by v with min(chosen children, 2) == c
        by_kids = [[_NONE, 0], [_NONE, _NONE], [_NONE, _NONE]]
        for u in nbrs[v]:
            if u == parent[v]:
                continue
            sub = list(enumerate(under_parent[u]))[1:]
            grown = [row + [_NONE] * len(sub) for row in by_kids]
            for c, row in enumerate(by_kids):
                out = grown[min(c + 1, 2)]
                for s, a in enumerate(row):
                    if a >= 0:
                        for k, b in sub:
                            if a + b > out[s + k]:
                                out[s + k] = a + b
            by_kids = grown
        none, one, more = by_kids
        under_parent[v] = [max(none[s] + 1, one[s], more[s]) for s in range(len(none))]
        for s in range(2, len(none)):
            best[s] = max(best[s], one[s] + 1, more[s])
    return LeafFunction(n, tuple(best))


# ---------------------------------------------------------------------------
# Free trees

FREE_TREE_MAX_N = 14


def enumerate_free_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of trees on n vertices.

    Wright, Richmond, Odlyzko and McKay, "Constant time generation of free
    trees" (SIAM J. Comput., 1986): the canonical level sequences, rooted at
    a center, in decreasing order.  Vertex i is the i-th vertex in preorder.
    """
    if not 1 <= n <= FREE_TREE_MAX_N:
        raise ValueError(f"n={n} outside supported range 1..{FREE_TREE_MAX_N}")
    if n == 1:
        yield Graph(1, frozenset())
        return
    # the path, rooted at its center
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while levels is not None:
        levels = _next_free_tree(levels)
        last = {}  # level -> latest vertex on it, the parent of the next one below
        edges = []
        for v, d in enumerate(levels):
            if d:
                edges.append((last[d - 1], v))
            last[d] = v
        yield Graph(n, frozenset(edges))
        levels = _next_rooted_tree(levels)


def _next_rooted_tree(levels: list[int], p: int | None = None) -> list[int] | None:
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
    out = list(levels)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def _split_tree(levels: list[int]) -> tuple[list[int], list[int]]:
    """The root's first subtree, and the tree without it, as level sequences."""
    m = next((i for i in range(2, len(levels)) if levels[i] == 1), len(levels))
    return [d - 1 for d in levels[1:m]], [0] + levels[m:]


def _next_free_tree(levels: list[int]) -> list[int]:
    """`levels` if it is the canonical sequence of a free tree, else the next
    candidate: the first subtree must be no higher than the rest, and, at
    equal height, no larger, and at equal size not after it."""
    left, rest = _split_tree(levels)
    left_height, rest_height = max(left), max(rest)
    if rest_height > left_height or (
            rest_height == left_height and (len(left), left) <= (len(rest), rest)):
        return levels
    p = len(left)
    out = _next_rooted_tree(levels, p)
    if levels[p] > 2:
        height = max(_split_tree(out)[0])
        out[-height - 1:] = range(1, height + 2)
    return out


def tree_canonical_form(g: Graph):
    """Canonical encoding of a tree: AHU form rooted at the center(s)."""

    def encode(root: int, parent: int):
        subs = sorted(encode(v, root) for v in g.adj[root] if v != parent)
        return tuple(subs)

    if g.n == 0:
        return ()
    # peel leaves to find the 1 or 2 centers
    deg = [g.degree(v) for v in range(g.n)]
    layer = [v for v in range(g.n) if deg[v] <= 1]
    removed = 0
    remaining = set(range(g.n))
    while len(remaining) > 2:
        nxt = []
        for v in layer:
            remaining.discard(v)
            removed += 1
            for u in g.adj[v]:
                if u in remaining:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    centers = sorted(remaining)
    return min(encode(c, -1) for c in centers)
