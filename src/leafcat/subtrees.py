"""Leaf functions: brute force on any graph, dynamic programming on trees.

The brute-force engine is one generator, `_induced_trees`.  It grows
connected vertex sets from each anchor vertex, restricted to vertices above
the anchor, with exclusive-neighborhood extension so that every connected set
is produced exactly once.  It keeps each set's leaf count per step and walks
a set with a cycle but never yields it.  Leaf functions, witnesses and the
per-size enumeration all read it.  It stays the oracle for the tree DP.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Iterator

from .bounds import BRUTEFORCE_MAX_N, DEFAULT_MAX_N, FREE_TREE_MAX_N, Record, check_range

if TYPE_CHECKING:  # a leaf function of a caterpillar or a word needs no Graph
    from .graph import Graph


class Sentinel(Enum):
    """The two marker values, compared by identity.  Not numbers on purpose:
    arithmetic with them must be handled explicitly, never silently."""

    NEG_INF = "-inf"  # the value of an empty maximum
    OMEGA = "w"  # a leaf-word letter next to an empty maximum

    def __repr__(self):
        return self.value

    __str__ = __repr__


NEG_INF = Sentinel.NEG_INF


class LeafFunction(Record):
    """Values of L_G: max leaves over induced subtrees of each size 0..n.

    Immutable; equal, and hashed alike, when n and the values are."""

    _fields = ("n", "values")

    def __init__(self, n: int, values: tuple):
        if len(values) != n + 1:
            raise ValueError(f"expected {n + 1} values, got {len(values)}")
        if values[0] != 0:
            raise ValueError("L(0) must be 0")
        if n >= 1 and values[1] != 0:
            raise ValueError("L(1) must be 0")
        seen_inf = False
        for v in values:
            if v is NEG_INF:
                seen_inf = True
            elif seen_inf:
                raise ValueError("-inf entries must form a suffix")
            elif type(v) is not int or v < 0:  # bool is an int subclass
                raise ValueError(f"bad leaf-function value {v!r}")
        super().__init__(n=n, values=values)


def _induced_trees(g: Graph, limit: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(vertices, leaf count) of each connected set of size <= max(limit, 1)
    that induces a tree, each set once, its vertices in the order they joined.

    Order: anchors ascending, then depth-first, lowest available vertex first.
    Leaf counts carry over in O(1) per step; a cyclic set (None) is walked, never yielded.
    """
    adj = g.adj_masks

    def extend(s: int, vs: tuple[int, ...], ext: int, closed: int, leaves: int | None):
        if leaves is not None:
            yield vs, leaves
        if len(vs) >= limit:
            return
        while ext:
            low = ext & -ext
            ext ^= low
            w = low.bit_length() - 1
            inside = adj[w] & s
            grown = None  # w closes a cycle, or s already has one
            if leaves is not None and not inside & (inside - 1):
                d = (adj[inside.bit_length() - 1] & s).bit_count()  # of w's one neighbour, u
                grown = leaves + 1 - (d == 1) + (d == 0)  # w is a leaf; u was one, or now is
            new_ext = ext | (adj[w] & above & ~closed)
            yield from extend(s | low, vs + (w,), new_ext, closed | adj[w] | low, grown)

    for v in range(g.n):
        above = -1 << (v + 1)
        yield from extend(1 << v, (v,), adj[v] & above, (1 << v) | adj[v], 0)


def enumerate_induced_subtrees(g: Graph, i: int) -> Iterator[tuple[int, ...]]:
    """Vertex sets U with |U| = i and G[U] a tree, each once, sorted tuples."""
    check_range("i", i, 0, g.n)
    check_range("n", g.n, 0, BRUTEFORCE_MAX_N)
    if i == 0:
        yield ()
        return
    for vs, _ in _induced_trees(g, i):
        if len(vs) == i:
            yield tuple(sorted(vs))


def _scan(g: Graph, limit: int):
    """Best leaf count per size over the induced trees of at most `limit`
    vertices, and the first witness attaining it, in join order (strict
    improvements only: the earliest such set in enumeration order, which
    `limit` keeps)."""
    best: list[int | None] = [0] + [None] * g.n
    witness: list[tuple[int, ...] | None] = [()] + [None] * g.n
    for vs, leaves in _induced_trees(g, limit):
        size = len(vs)
        if best[size] is None or leaves > best[size]:
            best[size] = leaves
            witness[size] = vs
    return best, witness


def leaf_function_bruteforce(g: Graph, max_n: int = DEFAULT_MAX_N) -> LeafFunction:
    """Ground-truth leaf function by exhaustive enumeration."""
    check_range("max_n", max_n, 0, BRUTEFORCE_MAX_N)
    check_range("n", g.n, 0, max_n)
    best, _ = _scan(g, g.n)
    return LeafFunction(g.n, tuple(NEG_INF if b is None else b for b in best))


def fully_leafed_witness(g: Graph, i: int, max_n: int = DEFAULT_MAX_N):
    """A vertex set of size i inducing a tree with L_G(i) leaves, or None.

    Deterministic: first maximizing set in enumeration order.
    """
    check_range("i", i, 0, g.n)
    check_range("max_n", max_n, 0, BRUTEFORCE_MAX_N)
    check_range("n", g.n, 0, max_n)
    _, witness = _scan(g, i)
    return None if witness[i] is None else tuple(sorted(witness[i]))


# ---------------------------------------------------------------------------
# Tree DP

# An impossible knapsack entry: adding real leaf counts to it stays negative.
_NONE = -(1 << 30)
# the knapsack of a vertex before any child merges: the set {v} alone
_ALONE = ([_NONE, 0], [_NONE, _NONE], [_NONE, _NONE])
# rooted subtrees of at most this many vertices are memoised by their shape
_MEMO_MAX_SIZE = 8


def leaf_function_tree(t: Graph) -> LeafFunction:
    """L_T of a tree: the tree DP on its depth-first preorder from vertex 0."""
    from .graph import _preorder_levels

    if t.n == 0:
        return LeafFunction(0, (0,))
    levels = _preorder_levels(t)
    if len(levels) != t.n or len(t.edges) != t.n - 1:
        raise ValueError("leaf_function_tree requires a tree")
    return LeafFunction(t.n, _leaf_function_levels(levels, {}))


def _leaf_function_levels(levels: list[int], memo: dict, chain: list | None = None) -> tuple:
    """The values of L_T, in O(n^2), of the tree with preorder level sequence
    `levels`, after Blondin Masse et al., "Fully leafed induced subtrees"
    (arXiv:1709.09808).

    Every subtree S has a top vertex v, the one nearest the root.  A knapsack
    over v's children records, per size of S and per number of chosen
    children capped at 2, the most leaves of S other than v; v counts as a
    leaf of S when its parent is in S and it has no chosen child, or when it
    is the top and has exactly one.  A vertex closes once its subtree has
    been walked, merges into its parent's knapsack and is dropped, so the live
    rows are O(n).  A subtree of at most _MEMO_MAX_SIZE vertices other than
    the whole tree is looked up in `memo` by its shape, its slice of `levels`
    less its own depth, and on a hit is merged without being walked; the memo
    holds its "under parent" row and the best leaf counts of the sets topped
    inside it.  The root closes last and has no parent: its counts are the
    values, returned unchecked.

    A `chain` list, when given, carries the root's merges from call to call:
    at each root child after the first, the levels up to and including it,
    the root's rows and the counts inside the root.  A call resumes at the
    last child whose prefix it shares, so consecutive trees of the census
    merge again only the root children that changed."""
    n = len(levels)
    best = [0] * (n + 1)
    # the open vertices [depth, knapsack, memo key, inside], the root first;
    # inside gathers the best leaf counts of the sets topped in the subtree:
    # its own row when the subtree is memoised, else `best`
    stack = [[0, _ALONE, None, best]]
    v = 1
    while True:
        d = levels[v] if v < n else 0  # at the end, close every vertex
        while stack[-1][0] >= d:
            _, (none, one, more), key, inside = stack.pop()
            for s in range(2, len(none)):
                inside[s] = max(inside[s], one[s] + 1, more[s])
            if not stack:  # the root
                return tuple(best)
            # the most leaves of a set of s vertices topped by v, counting v,
            # when v's parent is in the set too
            under = tuple([max(none[s] + 1, one[s], more[s]) for s in range(1, len(none))])
            if key is not None:
                memo[key] = under, tuple(inside)
            _merge_up(stack[-1], under, inside)
        if d == 1 and chain is not None:  # the root has merged its children before v
            root = stack[-1]
            if v > 1:
                chain.append((levels[:v + 1], root[1], root[3][:v]))
            else:  # the first child: resume after the longest prefix kept in the chain
                while chain and levels[:len(chain[-1][0])] != chain[-1][0]:
                    chain.pop()
                if chain:
                    prefix, root[1], inside = chain[-1]
                    root[3][:len(inside)] = inside
                    v = len(prefix) - 1
        end, stop = v + 1, min(n, v + _MEMO_MAX_SIZE + 1)
        while end < stop and levels[end] > d:
            end += 1
        key = None
        if end - v <= _MEMO_MAX_SIZE:  # the subtree is levels[v:end]
            key = bytes([x - d for x in levels[v:end]])
            if key in memo:
                _merge_up(stack[-1], *memo[key])
                v = end
                continue
        stack.append([d, _ALONE, key, best if key is None else [0] * (end - v + 1)])
        v += 1


def _merge_up(parent: list, under: tuple, inside) -> None:
    """Merge a closed subtree's two rows into its parent's stack entry."""
    none, one, more = parent[1]
    pad = [_NONE] * len(under)
    grown = none + pad, one + pad, more + pad
    # the subtree is one more chosen child: none -> one, one and more -> more
    for row, out in ((none, grown[1]), (one, grown[2]), (more, grown[2])):
        for s, a in enumerate(row):
            if a >= 0:
                for t, b in enumerate(under, s + 1):
                    if a + b > out[t]:
                        out[t] = a + b
    parent[1] = grown
    target = parent[3]
    if inside is not target:
        for s, x in enumerate(inside):
            if x > target[s]:
                target[s] = x


# ---------------------------------------------------------------------------
# Free trees


def enumerate_free_trees(n: int) -> Iterator[Graph]:
    """One tree per isomorphism class on n vertices, numbered in preorder."""
    from .graph import Graph

    for levels in _free_tree_levels(n):
        last = [0] * n  # level -> latest vertex on it, the parent of the next one below
        edges = []
        for v, d in enumerate(levels[1:], 1):
            last[d] = v
            edges.append((last[d - 1], v))
        yield Graph(n, frozenset(edges))


def _free_tree_levels(n: int) -> Iterator[list[int]]:
    """The free trees on n vertices as preorder level sequences: the
    canonical ones of Wright, Richmond, Odlyzko and McKay, "Constant time
    generation of free trees" (SIAM J. Comput., 1986), rooted at a center, in
    decreasing order."""
    check_range("n", n, 1, FREE_TREE_MAX_N)
    if n == 1:
        yield [0]
        return
    # the path, rooted at its center
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while levels is not None:
        levels = _next_free_tree(levels)
        yield levels
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

