"""Leaf functions of graphs, caterpillar sequences and prefix normal words.

A public name loads its submodule on first use (PEP 562), so a program that
needs one module does not compile the others.
"""

from importlib import import_module

# submodule -> the public names it defines
_PUBLIC = {
    "graph": ("Graph", "caterpillar_graph", "chain", "fk_tree", "induced_subgraph", "is_tree",
              "leaf_count", "star", "wheel"),
    "bounds": ("NEG_INF", "LeafFunction"),
    "subtrees": ("enumerate_free_trees", "enumerate_induced_subtrees", "fully_leafed_witness",
                 "leaf_function_bruteforce", "leaf_function_tree"),
    "catseq": ("decompose", "graft", "hasse_covers", "is_subsequence", "leaf_function_caterpillar",
               "leaves", "left", "reversal", "right", "size", "spine_degrees", "word_of"),
    "words": ("enumerate_pnw", "equivalent", "f1", "f1_profile", "is_k_prefix_normal",
              "is_prefix_normal", "pnf", "rc"),
    "leafwords": ("OMEGA", "Rejection", "classify_leaf_word", "delta_leaf_word", "leaf_equivalent",
                  "leaf_function_from_word", "realize_caterpillar"),
}
_SOURCE = {name: module for module, names in _PUBLIC.items() for name in names}
_MODULES = tuple(_PUBLIC)

__all__ = sorted([*_SOURCE, *_MODULES])


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f".{name}", __name__)  # the import binds it here
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
