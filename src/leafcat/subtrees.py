"""Leaf functions: brute force on any graph, dynamic programming on trees.

The brute-force engine is one generator, `_induced_trees`: Wernicke's ESU
enumerator (2006) restricted to trees, walked as one loop over an explicit
stack.  It grows vertex sets from each anchor, above the anchor only, by
exclusive-neighborhood extension, never by a vertex that closes a cycle, so
each induced tree comes once, its leaf count carried from the tree it grew
from.  It records each size's best leaf count and first set to reach it, for
leaf functions, witnesses and the tree DP's check, and yields sets of one size.
For leaf functions and witnesses it cuts each set from which no larger tree
can beat the best leaf count of its size, which leaves their values and
witnesses those of the full walk.  The per-size enumeration is never cut.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .bounds import (BRUTEFORCE_MAX_N, DEFAULT_MAX_N, FREE_TREE_MAX_N, NEG_INF, LeafFunction,
                     Sentinel, check_range)  # Sentinel: older pickles of NEG_INF name it here

if TYPE_CHECKING:  # the verify suites run the tree DP on levels and need no Graph
    from .graph import Graph


def _induced_trees(g: Graph, limit: int, best: list, first: list,
                   *, cut: bool = False) -> Iterator[tuple[int, int]]:
    """(vertex mask, leaf count) of each set of exactly max(limit, 1) vertices
    that induces a tree, each set once.  Each induced tree of at most that
    size whose leaf count beats best[size], below 0 until a tree of that size
    is found, writes its count there and its mask to first[size].

    Order: anchors ascending, then depth-first, lowest available vertex first.
    No set is grown by a vertex with two neighbours in it: each set on the way
    to an induced tree is a tree too, and a vertex next to the set may enter
    an extension, to be refused.  Leaf counts carry over in O(1) per step.

    With `cut` (leaf functions and witnesses; the per-size enumeration is never
    cut), a set of k >= 2 vertices and l leaves is not grown when l <= bar[k],
    the least best[t] - (t - k) over t in (k, limit]: each added vertex adds at
    most one leaf, and first[t] moves only on a strict gain, so the tables and
    witnesses are the full walk's.  An unreached size, at -1, keeps every set
    below it open; bar[limit] = limit ends the walk at limit.
    """
    adj, bar = g.adj_masks, [*range(-1 - limit, -1), limit]
    if g.n:
        best[1], first[1] = 0, 1  # each vertex alone is a tree without leaves
    for v in range(g.n):
        if limit <= 1:
            yield 1 << v, 0
            continue
        above = -1 << (v + 1)
        stack = [(1 << v, 2, adj[v] & above, 0)]  # (set, size of the sets grown from it, ...)
        while stack:
            s, size, ext, leaves = stack.pop()
            while ext:
                low = ext & -ext
                ext ^= low
                w = low.bit_length() - 1
                inside = adj[w] & s
                if inside & (inside - 1):
                    continue
                d = (adj[inside.bit_length() - 1] & s).bit_count()  # of w's one neighbour, u
                grown = leaves + 1 - (d == 1) + (d == 0)  # w is a leaf; u was one, or now is
                if grown > best[size]:
                    best[size], first[size] = grown, s | low
                    t, m = size, bar[size]  # raise the bars below size (min() costs a call)
                    while cut and t > 2 and (
                            m := (best[t] if best[t] < m else m) - 1) != bar[t - 1]:
                        bar[t - 1], t = m, t - 1
                if grown > bar[size]:  # descend; the frame left resumes at ext
                    stack.append((s, size, ext, leaves))
                    s, size, ext, leaves = s | low, size + 1, ext | (adj[w] & above & ~s), grown
                elif size == limit:
                    yield s | low, grown


def _vertices(mask: int) -> tuple[int, ...]:
    """The vertices of a set mask, ascending."""
    vs = []
    while mask:
        vs.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(vs)


def enumerate_induced_subtrees(g: Graph, i: int) -> Iterator[tuple[int, ...]]:
    """Vertex sets U with |U| = i and G[U] a tree, each once, sorted tuples.
    A generator: i and the graph's size are checked at the first next()."""
    check_range("i", i, 0, g.n)
    check_range("n", g.n, 0, BRUTEFORCE_MAX_N)
    if i == 0:
        yield ()
        return
    for mask, _ in _induced_trees(g, i, [-1] * (g.n + 1), [0] * (g.n + 1)):
        yield _vertices(mask)


def _scan(g: Graph, limit: int) -> tuple[list[int], list[int]]:
    """Per size up to `limit`, the best leaf count (-1 if none) and the mask
    of the first set in walk order to reach it, which `limit` keeps."""
    best, first = [0] + [-1] * g.n, [0] * (g.n + 1)
    for _ in _induced_trees(g, limit, best, first, cut=True):
        pass
    return best, first


def leaf_function_bruteforce(g: Graph, max_n: int = DEFAULT_MAX_N) -> LeafFunction:
    """Ground-truth leaf function, exact: the walk cuts only sets that cannot beat a best."""
    check_range("max_n", max_n, 0, BRUTEFORCE_MAX_N)
    check_range("n", g.n, 0, max_n)
    best, _ = _scan(g, g.n)
    return LeafFunction(g.n, tuple(NEG_INF if b < 0 else b for b in best))


def fully_leafed_witness(g: Graph, i: int, max_n: int = DEFAULT_MAX_N):
    """A vertex set of size i inducing a tree with L_G(i) leaves, or None.

    Deterministic: first maximizing set in enumeration order.
    """
    check_range("i", i, 0, g.n)
    check_range("max_n", max_n, 0, BRUTEFORCE_MAX_N)
    check_range("n", g.n, 0, max_n)
    best, first = _scan(g, i)
    return None if best[i] < 0 else _vertices(first[i])


# ---------------------------------------------------------------------------
# Tree DP

# An impossible knapsack entry: adding real leaf counts to it stays negative.
_NONE = -(1 << 30)
# the knapsack row of a vertex before any child merges: the set {v} alone
_ALONE = [_NONE, 0]
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
    row over v's children records, per size of S, the most leaves of S other
    than v.  Under its parent, v is a leaf of S iff S = {v}: the row with 1
    for {v} is v's "under parent" row.  As the top, v is a leaf iff S holds
    just one child c of v, which the row counts one short: c hands v a gift
    row, per size from 2 the most leaves of {v} plus a set under c, and of
    the sets topped inside c's subtree if it is memoised.  A vertex closes
    once its subtree has been walked, merges into its parent and is dropped,
    so the live rows are O(n).  A subtree of at most _MEMO_MAX_SIZE vertices
    other than the whole tree is looked up in `memo` by its shape, its slice
    of `levels` moved to put its top at depth 1, and on a hit its two rows
    are merged without a walk.  The root closes last and has no parent: its
    counts are the values, returned unchecked.  A memo hit that ends the
    tree writes its merge straight into them.

    A `chain` list, when given, carries the root's merges from call to call:
    at each root child after the first, the levels up to and including it,
    the root's row and the counts inside the root.  A call resumes at the
    last child whose prefix it shares, so consecutive trees of the census
    merge again only the root children that changed."""
    n = len(levels)
    best = [0] * (n + 1)
    # the open vertices [depth, knapsack row, memo key, inside], the root
    # first; inside gathers the best leaf counts of the sets topped in the
    # subtree: a row of its own when the subtree is memoised, else `best`
    stack = [[0, _ALONE, None, best]]
    v = 1
    while True:
        d = levels[v] if v < n else 0  # at the end, close every vertex
        while stack[-1][0] >= d:
            _, row, key, inside = stack.pop()
            for s in range(2, len(row)):
                if row[s] > inside[s]:
                    inside[s] = row[s]
            if not stack:  # the root
                return tuple(best)
            under = (1, *row[2:])  # per size from 1, the most leaves counting v
            gift = [b + 1 for b in under]  # from size 2: the parent over one set under v
            if key is not None:  # and the sets topped inside the subtree
                gift = [*map(max, inside[2:], gift)]
                memo[key] = under, gift
            _merge_up(stack[-1], under, gift)
        if d == 1 and chain is not None:  # the root has merged its children before v
            root = stack[-1]
            if v > 1:  # a set of the root and one child may have v vertices
                chain.append((levels[:v + 1], root[1], root[3][:v + 1]))
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
            part = levels[v:end]  # keyed as a child of the root, at depth 1
            key = bytes(part if d == 1 else [x - d + 1 for x in part])
            if key in memo:  # the root's last child writes the values, and the root closes
                _merge_up(stack[-1], *memo[key], best if d == 1 and end == n else None)
                v = end
                continue
        stack.append([d, _ALONE, key, best if key is None else [0] * (end - v + 2)])
        v += 1


def _merge_up(parent: list, under: tuple, gift: list, grown: list | None = None) -> None:
    """Merge a closed subtree's rows into its parent's stack entry: `under`
    into the parent's knapsack row, and `gift` into its inside.  Given
    `grown`, the knapsack writes there and leaves the parent's row as it was:
    the root's last merge writes the values, which its close completes.

    Every row keeps _NONE at entry 0 and a leaf count at each size from 1 to
    its subtree's size, and `under` starts at size 1: so the knapsack reads
    the parent's row from size 1, tests no entry for an unreached size, and
    runs its inner loop over the longer of the two."""
    row = parent[1]
    if grown is None:
        grown = parent[1] = row + [_NONE] * len(under)
    tops = row[1:]  # from size 1, as `under`
    outer, inner = (under, tops) if len(under) < len(tops) else (tops, under)
    start = 2  # the size of a set of one vertex from each
    for a in outer:
        t = start
        for b in inner:
            if a + b > grown[t]:
                grown[t] = a + b
            t += 1
        start += 1
    target = parent[3]
    for t, x in enumerate(gift, 2):
        if x > target[t]:
            target[t] = x


# ---------------------------------------------------------------------------
# Free trees


def enumerate_free_trees(n: int) -> Iterator[Graph]:
    """One tree per isomorphism class on n vertices, numbered in preorder.
    A generator: n is checked at the first next(), not at the call."""
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
    # from p on, the sequence repeats levels[q:p]: from p's parent q up to p
    fill = len(levels) - p
    return levels[:p] + (levels[q:p] * (fill // (p - q) + 1))[:fill]


def _next_free_tree(levels: list[int]) -> list[int]:
    """`levels` if it is the canonical sequence of a free tree, else the next
    candidate: the root's first subtree, up to its second child m, must be no
    higher than the rest, the root with levels[m:], and, at equal height, no
    larger, and at equal size not after it: only that last test copies lists."""
    n = len(levels)
    try:
        m = levels.index(1, 2)
    except ValueError:  # the root has one child
        m = n
    left_height, rest_height = max(levels[1:m]) - 1, max(levels[m:], default=0)
    if rest_height > left_height or rest_height == left_height and (
            m - 1 < n - m + 1 or m - 1 == n - m + 1
            and [d - 1 for d in levels[1:m]] <= [0, *levels[m:]]):
        return levels
    p = m - 1  # the first subtree's last vertex
    out = _next_rooted_tree(levels, p)
    if levels[p] > 2:  # from p on, out repeats levels of 2 or more: the root has one child
        height = max(out) - 1
        out[-height - 1:] = range(1, height + 2)
    return out
