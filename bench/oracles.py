"""Reference computations that the benchmark checks leafcat against.

Everything here is written from the definitions in the paper and does not
import leafcat, so a fault in the program cannot hide in its own reference.
`networkx` is imported inside the functions that need it: the benchmark's
own imports must not add to the set-up time it measures.
"""

from __future__ import annotations

from itertools import product

# OEIS A000055: free trees on n vertices, n = 3..13.
FREE_TREES = {3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
              11: 235, 12: 551, 13: 1301}
# OEIS A194850: prefix normal words of length n, n = 0..12.
PREFIX_NORMAL_WORDS = (1, 2, 3, 5, 8, 14, 23, 41, 70, 125, 218, 395, 697)
SMALLEST_NON_PN_TREE_WORD = "1101011011"


# ---------------------------------------------------------------------------
# Graphs


def _adj_masks(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def naive_subtrees(n: int, edges, size: int | None = None):
    """Leaf function of the graph and the induced trees of one size.

    Every nonempty vertex subset is examined. A subset whose induced edge
    count is |U| - 1 is passed to `networkx.is_tree`; no other subset can
    induce a tree. Returns (values, trees) where values[i] is the most
    leaves of an induced tree on i vertices (None when there is none) and
    trees is the set of sorted vertex tuples of size `size`.
    """
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    adj = _adj_masks(n, edges)
    values: list[int | None] = [None] * (n + 1)
    values[0] = 0
    trees = set()
    for mask in range(1, 1 << n):
        verts = [v for v in range(n) if mask >> v & 1]
        degs = [(adj[v] & mask).bit_count() for v in verts]
        if sum(degs) != 2 * (len(verts) - 1) or not nx.is_tree(g.subgraph(verts)):
            continue
        k = len(verts)
        leaves = degs.count(1)
        if values[k] is None or leaves > values[k]:
            values[k] = leaves
        if k == size:
            trees.add(tuple(verts))
    return tuple(values), trees


def induced_tree_leaves(n: int, edges, vertices) -> int | None:
    """Leaf count of the tree induced by `vertices`, or None if it is no tree."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    h = g.subgraph(vertices)
    if len(set(vertices)) != len(vertices) or not nx.is_tree(h):
        return None
    return sum(1 for v in h if h.degree(v) == 1) if len(vertices) > 1 else 0


def wheel_edges(n: int):
    """W_n: rim 0..n-1, hub n."""
    return [(i, (i + 1) % n) for i in range(n)] + [(i, n) for i in range(n)]


def wheel_leaf_function(n: int):
    """Closed form for W_n: a hub with an independent rim set gives a star of
    up to n//2 + 1 vertices; rim paths give 2 leaves up to n - 1 vertices."""
    vals = [0, 0, 2]
    for i in range(3, n + 2):
        if i <= n // 2 + 1:
            vals.append(i - 1)
        elif i <= n - 1:
            vals.append(2)
        else:
            vals.append(None)
    return tuple(vals)


def fk_leaf_word(k: int) -> str:
    """Leaf word of the tree F_k on 6k + 7 vertices."""
    return ("1" * (k + 1) + "0" * k + "1" + "0" * k
            + "1" * (k + 1) + "0" * k + "1" * (k + 1))


# ---------------------------------------------------------------------------
# Words and caterpillar sequences


def rc(w: str) -> tuple[int, ...]:
    """Reading caterpillar: '0' starts a new spine vertex, '1' adds a leaf."""
    seq = [2]
    for c in w:
        if c == "0":
            seq[-1] -= 1
            seq.append(1)
        else:
            seq[-1] += 1
    return tuple(seq)


def f1_profile(w: str) -> tuple[int, ...]:
    """Most ones in a factor of each length 0..|w|, by scanning every window."""
    return tuple(max(w[j:j + i].count("1") for j in range(len(w) - i + 1))
                 for i in range(len(w) + 1))


def is_prefix_normal(w: str) -> bool:
    prof = f1_profile(w)
    return all(w[:i].count("1") == prof[i] for i in range(len(w) + 1))


def pnf(w: str) -> str:
    prof = f1_profile(w)
    return "".join(str(prof[i] - prof[i - 1]) for i in range(1, len(w) + 1))


def pn_violation(w: str):
    """Shortest length at which a factor beats the prefix, first such factor."""
    for length in range(1, len(w) + 1):
        limit = w[:length].count("1")
        for j in range(1, len(w) - length + 1):
            if w[j:j + length].count("1") > limit:
                return w[:length], w[j:j + length]
    return None


def is_violation_witness(w: str, witness) -> bool:
    """(p, f): p a prefix of w, f a factor of w of the same length, more ones in f."""
    if not witness or len(witness) != 2:
        return False
    p, f = witness
    return (w.startswith(p) and len(f) == len(p) and f in w
            and f.count("1") > p.count("1"))


def caterpillar_leaf_function(w: str):
    """Leaf function of the caterpillar of rc(w): L(i) = F1(w, i-3) + 2."""
    return (0, 0, 2) + tuple(f + 2 for f in f1_profile(w))


def leaf_function_of_word(w: str):
    """The tree-shaped leaf function whose leaf word is w."""
    return (0, 0, 2) + tuple(2 + w[:i].count("1") for i in range(len(w) + 1))


def spine_degrees(s):
    if len(s) == 1:
        return (s[0],)
    return (s[0] + 1,) + tuple(x + 2 for x in s[1:-1]) + (s[-1] + 1,)


def below(x, y) -> bool:
    """x <= y: the spine degrees of x are dominated by a window of those of y."""
    dx, dy = spine_degrees(x), spine_degrees(y)
    return any(all(a <= b for a, b in zip(dx, dy[shift:]))
               for shift in range(len(dy) - len(dx) + 1))


def all_sequences(max_size: int):
    """Caterpillar sequences of size <= max_size, as rc of every short word."""
    return [rc("".join(bits)) for n in range(max(0, max_size - 2))
            for bits in product("01", repeat=n)]


def hasse_covers(max_size: int):
    """Cover pairs of the order, as the transitive reduction by networkx."""
    import networkx as nx

    seqs = all_sequences(max_size)
    d = nx.DiGraph()
    d.add_nodes_from(seqs)
    d.add_edges_from((x, y) for x in seqs for y in seqs if x != y and below(x, y))
    return set(nx.transitive_reduction(d).edges())


def poset_instances(max_size: int) -> dict[str, int]:
    """Instance counts of the poset suite: elements, ordered pairs of distinct
    elements, and chains x <= y <= z."""
    seqs = all_sequences(max_size)
    m = len(seqs)
    down = [sum(below(x, y) for x in seqs) for y in seqs]
    up = [sum(below(x, y) for y in seqs) for x in seqs]
    return {
        "poset-reflexivity": m,
        "poset-antisymmetry": m * (m - 1),
        "poset-transitivity": sum(d * u for d, u in zip(down, up)),
    }


def morphism_instances(max_len: int) -> dict[str, int]:
    """Instance counts of the morphism suite at its bound."""
    words = 2 ** (max_len + 1) - 1
    pairs = (2 ** (min(max_len, 6) + 1) - 1) ** 2
    # one instance per truncation size 3..|w|+3, i.e. |w| + 1 per word
    sizes = sum(2 ** n * (n + 1) for n in range(max_len + 1))
    return {
        "graft-monoid": words + (2 ** 5 - 1) ** 3,
        "graft-additivity": pairs,
        "rc-morphism": pairs + words,
        "truncation-reading": sizes,
        "graft-decomposition": sizes,
    }


def roundtrip_instances(max_len: int) -> dict[str, int]:
    return {
        "roundtrip-prefix-normal": sum(PREFIX_NORMAL_WORDS[: min(max_len, 12) + 1]),
        "roundtrip-general": 2 ** (min(max_len, 10) + 1) - 1,
    }


def leaf_equivalence_instances(max_len: int) -> dict[str, int]:
    return {"leaf-equivalence-iff-profile":
            sum(2 ** n * (2 ** n - 1) // 2 for n in range(min(max_len, 8) + 1))}


def format_sequence(s) -> str:
    return ",".join(str(x) for x in s)
