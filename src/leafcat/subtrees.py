"""Brute-force leaf functions via exhaustive induced-subtree enumeration.

The engine grows connected vertex sets from each anchor vertex, restricted
to vertices above the anchor, with exclusive-neighborhood extension so that
every connected set is produced exactly once.  Sets are bitmasks internally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

from .graph import Graph

DEFAULT_MAX_N = 20


class _NegInf:
    """Sentinel for the value of an empty maximum.  Not a number on purpose:
    arithmetic with it must be handled explicitly, never silently."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-inf"


NEG_INF = _NegInf()


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
# Free trees

FREE_TREE_MAX_N = 14


def enumerate_free_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of trees on n vertices."""
    # networkx takes about 0.2 s to import and nothing else here needs it, so
    # it is loaded on first use rather than with the package.
    import networkx as nx

    if not 1 <= n <= FREE_TREE_MAX_N:
        raise ValueError(f"n={n} outside supported range 1..{FREE_TREE_MAX_N}")
    if n == 1:
        yield Graph.from_edges(1, [])
        return
    for t in nx.nonisomorphic_trees(n):
        yield Graph.from_edges(n, [(int(u), int(v)) for u, v in t.edges()])


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
