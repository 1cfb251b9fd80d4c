"""Simple undirected graphs and generators for the tree families used here.

Vertices are dense integers 0..n-1.  A graph stores only each vertex's neighbour
set, as a bitmask; its edges, as (min, max) pairs in order, are read off them.
"""

from __future__ import annotations

from typing import Iterable

from .bounds import (CHAIN_MAX_N, FK_MAX_K, GRAPH_MAX_N, STAR_MAX_M, WHEEL_MAX_N, Record,
                     check_range)
from .catseq import size


class Graph(Record):
    """Immutable simple graph on vertices 0..n-1, with n <= GRAPH_MAX_N.

    Graphs are equal, and hash alike, when their n and edge sets are."""

    _fields = ("n", "adj_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        check_range("n", n, 0, GRAPH_MAX_N)
        masks = [0] * n
        for u, v in edges:
            check_range("vertex", u, 0, n - 1)
            check_range("vertex", v, 0, n - 1)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                raise ValueError(f"edge ({u},{v}) not canonical (min,max)")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        super().__init__(n=n, adj_masks=tuple(masks))

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, canonicalizing and deduplicating edges; Graph rejects non-int ends."""
        return Graph(n, ((v, u) if type(u) is type(v) is int and u > v else (u, v)
                         for u, v in edges))

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.sorted_edges())

    def degree(self, v: int) -> int:
        check_range("vertex", v, 0, self.n - 1)
        return self.adj_masks[v].bit_count()

    def sorted_edges(self) -> list[tuple[int, int]]:
        """The edges in ascending order, in O(n + m): each vertex's higher neighbours."""
        edges = []
        for u, mask in enumerate(self.adj_masks):
            mask >>= u + 1  # bit p is now vertex u + 1 + p
            while mask:
                low = mask & -mask
                mask ^= low
                edges.append((u, u + low.bit_length()))
        return edges


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by `vertices`, relabeled to 0..|U|-1.

    Relabeling preserves relative order: new index i corresponds to the
    i-th smallest original vertex, i.e. the index map is sorted(vertices).
    """
    vertices = list(vertices)
    for v in vertices:  # each one as given: an equal int must not hide a non-int
        check_range("vertex", v, 0, g.n - 1)
    vs = sorted(set(vertices))
    index = {v: i for i, v in enumerate(vs)}
    edges = [(index[u], index[v]) for u, v in g.sorted_edges() if u in index and v in index]
    return Graph.from_edges(len(vs), edges)


def _preorder_levels(g: Graph) -> list[int]:
    """The depths, in a depth-first preorder from vertex 0, of the vertices
    that vertex 0 reaches; a preorder level sequence when g is a tree."""
    adj = g.adj_masks
    levels, stack, seen = [], [(0, 0)], 1
    while stack:
        v, d = stack.pop()
        levels.append(d)
        new = adj[v] & ~seen
        seen |= new
        while new:  # pushed in ascending order, which fixes the preorder
            low = new & -new
            new ^= low
            stack.append((low.bit_length() - 1, d + 1))
    return levels


def is_tree(g: Graph) -> bool:
    """True iff g is connected and acyclic.  The empty graph counts as a tree."""
    return g.n == 0 or len(g.edges) == g.n - 1 and len(_preorder_levels(g)) == g.n


def leaf_count(g: Graph) -> int:
    """Number of degree-1 vertices of a tree.

    A single vertex has no leaf; the 2-vertex tree has two.
    """
    if not is_tree(g):
        raise ValueError("leaf_count requires a tree")
    return sum(1 for mask in g.adj_masks if mask.bit_count() == 1)


# ---------------------------------------------------------------------------
# Generators


def chain(n: int) -> Graph:
    check_range("n", n, 1, CHAIN_MAX_N)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(m: int) -> Graph:
    """Star K_{1,m}: center 0 with m pendant leaves."""
    check_range("m", m, 0, STAR_MAX_M)
    return Graph.from_edges(m + 1, [(0, i) for i in range(1, m + 1)])


def wheel(n: int) -> Graph:
    """Wheel W_n: a cycle on n rim vertices plus a hub adjacent to all of them.

    Vertices 0..n-1 form the rim, vertex n is the hub; n+1 vertices total.
    """
    check_range("n", n, 3, WHEEL_MAX_N)
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n) for i in range(n)]
    return Graph.from_edges(n + 1, edges)


def caterpillar_graph(s: tuple[int, ...]) -> Graph:
    """Caterpillar with spine v_1..v_k and s_i pendant leaves on v_i.

    Spine vertices come first (0..k-1), then leaves in spine order.
    """
    check_range("size", size(s), 3, GRAPH_MAX_N)
    k = len(s)
    edges = [(i, i + 1) for i in range(k - 1)]
    nxt = k
    for i, cnt in enumerate(s):
        for _ in range(cnt):
            edges.append((i, nxt))
            nxt += 1
    return Graph.from_edges(nxt, edges)


def fk_tree(k: int) -> Graph:
    """Tree on 6k+7 vertices: a hub joined to three chains of k-1 vertices,
    each chain ending in the center of a star on k+3 vertices.

    For k=1 the chains are empty and the hub connects directly to the three
    star centers.
    """
    check_range("k", k, 1, FK_MAX_K)
    edges = []
    nxt = 1  # 0 is the hub
    for _ in range(3):
        prev = 0
        for _ in range(k - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        center = nxt
        nxt += 1
        edges.append((prev, center))
        for _ in range(k + 2):
            edges.append((center, nxt))
            nxt += 1
    return Graph.from_edges(nxt, edges)


# ---------------------------------------------------------------------------
# Text formats


def write_edge_list(g: Graph) -> str:
    """Edge-list format: first line "n m", then one "u v" line per edge."""
    edges = g.sorted_edges()
    lines = [f"{g.n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def _int_pair(line: str, what: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) == 2:
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:
            pass
    raise ValueError(f"bad {what} line {line.strip()!r}: expected two integers")


def read_edge_list(text: str) -> Graph:
    """Parse the format of `write_edge_list`.

    The header's m must equal the number of edge lines; a repeated edge line
    is merged by `Graph.from_edges`.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    n, m = _int_pair(lines[0], "header")
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = [_int_pair(ln, "edge") for ln in lines[1:]]
    return Graph.from_edges(n, edges)


def to_dot(g: Graph, highlight: Iterable[int] = ()) -> str:
    """Graphviz export; vertices in `highlight` get color=blue."""
    highlight = list(highlight)
    for v in highlight:
        check_range("vertex", v, 0, g.n - 1)
    hi = set(highlight)
    lines = ["graph G {"]
    for v in range(g.n):
        attr = " [color=blue]" if v in hi else ""
        lines.append(f"  {v}{attr};")
    for u, v in g.sorted_edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
