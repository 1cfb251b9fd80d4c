"""Leaf functions of graphs, caterpillar sequences and prefix normal words."""

from .graph import (
    Graph,
    caterpillar_graph,
    chain,
    fk_tree,
    induced_subgraph,
    is_tree,
    leaf_count,
    star,
    wheel,
)
from .subtrees import (
    NEG_INF,
    LeafFunction,
    enumerate_free_trees,
    enumerate_induced_subtrees,
    fully_leafed_witness,
    leaf_function_bruteforce,
    leaf_function_tree,
)
from .catseq import (
    decompose,
    graft,
    hasse_covers,
    is_subsequence,
    leaf_function_caterpillar,
    leaves,
    left,
    reversal,
    right,
    size,
    spine_degrees,
    word_of,
)
from .words import (
    enumerate_pnw,
    equivalent,
    f1,
    f1_profile,
    is_k_prefix_normal,
    is_prefix_normal,
    pnf,
    rc,
)
from .leafwords import (
    OMEGA,
    Rejection,
    classify_leaf_word,
    delta_leaf_word,
    leaf_equivalent,
    leaf_function_from_word,
    realize_caterpillar,
)

__all__ = [name for name in dir() if not name.startswith("_")]
