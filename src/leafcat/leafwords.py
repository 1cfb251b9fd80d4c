"""Leaf words (discrete derivatives of leaf functions) and realization.

A leaf word is a tuple over the integers plus the sentinel OMEGA, which
marks differences involving an absent value.
"""

from __future__ import annotations

from .bounds import NEG_INF, LeafFunction, Record, Sentinel
from .words import _rc, pn_violation, prefix_ones, rc

OMEGA = Sentinel.OMEGA

LeafWord = tuple


def delta_leaf_word(lf: LeafFunction) -> LeafWord:
    """Letter i is L(i+3) - L(i+2) for i = 1..n-3; OMEGA when either value
    is absent.  The universal difference prefix 0,2,0 carries no information
    and is not part of the word."""
    if lf.n < 3:
        raise ValueError(f"leaf word undefined for n={lf.n} < 3")
    letters = []
    for i in range(1, lf.n - 2):
        a, b = lf.values[i + 2], lf.values[i + 3]
        if b is NEG_INF:  # a is -inf only if b is: -inf entries form a suffix
            letters.append(OMEGA)
        else:
            letters.append(b - a)
    return tuple(letters)


def leaf_function_from_word(w: str) -> LeafFunction:
    """The tree-shaped leaf function whose leaf word is the binary word w."""
    values = (0, 0, 2) + tuple(2 + p for p in prefix_ones(w))
    return LeafFunction(len(w) + 3, values)


TREE_COMPATIBLE = "tree-compatible"
NON_TREE = "non-tree"
INVALID = "invalid"


def classify_leaf_word(lw: LeafWord) -> str:
    """tree-compatible: alphabet within {0,1}; non-tree: some letter in
    {-1,-2,...} or OMEGA, with OMEGA letters forming a suffix; invalid
    otherwise (letters > 1, or OMEGA before a plain letter)."""
    seen_omega = False
    non_tree = False
    for letter in lw:
        if letter is OMEGA:
            seen_omega = True
            non_tree = True
        elif seen_omega:
            return INVALID
        elif type(letter) is not int or letter > 1:  # bool is an int subclass
            return INVALID
        elif letter < 0:
            non_tree = True
    return NON_TREE if non_tree else TREE_COMPATIBLE


class Rejection(Record):
    """Machine-readable reason a leaf function is not caterpillar-realizable.

    Immutable; equal, and hashed alike, when reason and witness are."""

    _fields = ("reason", "witness")

    def __init__(self, reason: str, witness: tuple[str, str] | None = None):
        # reason: bad-size | bad-prefix | bad-alphabet | not-prefix-normal
        super().__init__(reason=reason, witness=witness)

    def message(self) -> str:
        if self.witness is not None:
            p, f = self.witness
            return f"{self.reason}: prefix {p} has fewer 1s than factor {f}"
        return self.reason


def realize_caterpillar(lf: LeafFunction):
    """The caterpillar sequence realizing lf, or a Rejection naming the first
    failed condition."""
    if lf.n < 3:
        return Rejection("bad-size")
    if lf.values[:4] != (0, 0, 2, 2):
        return Rejection("bad-prefix")
    lw = delta_leaf_word(lf)
    if classify_leaf_word(lw) != TREE_COMPATIBLE:
        return Rejection("bad-alphabet")
    w = format_leaf_word(lw)
    witness = pn_violation(w)
    if witness is not None:
        return Rejection("not-prefix-normal", witness)
    return _rc(w)


def leaf_equivalent(w1: str, w2: str) -> bool:
    """True iff the caterpillars read from w1 and w2 have equal leaf functions."""
    from .catseq import leaf_function_caterpillar  # only here: leaf words of graphs need no catseq

    return leaf_function_caterpillar(rc(w1)) == leaf_function_caterpillar(rc(w2))


# ---------------------------------------------------------------------------
# Text format


def format_leaf_word(lw: LeafWord) -> str:
    """Comma-separated letters with OMEGA as 'w'; binary words compact."""
    if {0, 1}.issuperset(lw):
        return "".join(["01"[letter] for letter in lw])
    return ",".join("w" if letter is OMEGA else str(letter) for letter in lw)
