"""Caterpillar sequences: order, truncations, graft and the fast leaf function.

A caterpillar sequence (s_1,...,s_k) is a tuple of non-negative ints with
s_1, s_k >= 1 (and s_1 >= 2 when k = 1).  It encodes the caterpillar with
spine v_1..v_k carrying s_i pendant leaves on v_i.

A public function checks its sequences once, on entry, and never inside a
loop over them.  Every sequence this module or `words.rc` returns is a
`CatSeq`, built from checked input without a second check; `check_sequence`
returns at once for a `CatSeq`, and checks a plain tuple in full.  The text
form, `parse_sequence` and `format_sequence`, is imported from `bounds`.
"""

from __future__ import annotations

from operator import le

from .bounds import (HASSE_MAX_SIZE, SEQUENCES_MAX_SIZE, WORD_MAX_LEN, CatSeq, LeafFunction,
                     _trusted, check_range, check_sequence, format_sequence, parse_sequence)
from .words import _binary_words, _rc, f1_profile


def size(s: CatSeq) -> int:
    """Number of vertices of the caterpillar: k + sum(s)."""
    check_sequence(s)
    return len(s) + sum(s)


def leaves(s: CatSeq) -> int:
    check_sequence(s)
    return sum(s)


def reversal(s: CatSeq) -> CatSeq:
    check_sequence(s)
    return _trusted(s[::-1])


def spine_degrees(s: CatSeq) -> tuple[int, ...]:
    """Degrees of the spine vertices in the caterpillar of s."""
    check_sequence(s)
    if len(s) == 1:
        return (s[0],)
    return (s[0] + 1, *map((2).__add__, s[1:-1]), s[-1] + 1)


def _dominated(ds: tuple[int, ...], db: tuple[int, ...]) -> bool:
    """True iff ds is pointwise <= some window of db of its length."""
    return any(all(map(le, ds, db[shift:])) for shift in range(len(db) - len(ds) + 1))


def is_subsequence(small: CatSeq, big: CatSeq) -> bool:
    """Shifted pointwise domination of spine degree sequences (the order <=)."""
    return _dominated(spine_degrees(small), spine_degrees(big))


def graft(s1: CatSeq, s2: CatSeq) -> CatSeq:
    """Merge overlapping at one spine vertex; associative with identity (2)."""
    check_sequence(s1)
    check_sequence(s2)
    return _trusted(s1[:-1] + (s1[-1] + s2[0] - 2,) + s2[1:])


def left_recursive(s: CatSeq, i: int) -> CatSeq:
    """Reference recursion for the left truncation: peel from the right end.
    Each peel removes exactly one vertex."""
    n = size(s)
    check_range("i", i, 3, n)
    for _ in range(n - i):
        if s[-1] >= 2:
            s = s[:-1] + (s[-1] - 1,)
        else:
            s = s[:-2] + (s[-2] + 1,)
    return _trusted(s)


def _mirror(s: CatSeq) -> CatSeq:
    """s reversed, unchecked and a CatSeq if s is; a non-tuple is left for the check to reject."""
    if type(s) is CatSeq:
        return _trusted(s[::-1])
    return s[::-1] if isinstance(s, tuple) else s


def right_recursive(s: CatSeq, i: int) -> CatSeq:
    return _trusted(left_recursive(_mirror(s), i)[::-1])


def alpha_beta_left(s: CatSeq, i: int) -> tuple[int, int]:
    """The unique (a, alpha) with left(s, i) = (s_1,...,s_a, alpha), where
    0 <= a <= k-1, 1 <= alpha <= s_{a+1}+1 and i = sum_{m<=a}(s_m+1) + alpha + 1.
    """
    check_range("i", i, 3, size(s))
    prefix = 0
    for a in range(len(s)):
        alpha = i - prefix - 1
        if 1 <= alpha <= s[a] + 1:
            return a, alpha
        prefix += s[a] + 1
    raise AssertionError(f"no (a, alpha) for {s} at i={i}")  # unreachable


def alpha_beta_right(s: CatSeq, i: int) -> tuple[int, int]:
    """The unique (b, beta) with right(s, i) = (beta, s_b,...,s_k), b 1-based."""
    a, alpha = alpha_beta_left(_mirror(s), i)
    return len(s) - a + 1, alpha


def left(s: CatSeq, i: int) -> CatSeq:
    """Left caterpillar subsequence of size i, by closed form."""
    a, alpha = alpha_beta_left(s, i)
    return _trusted(s[:a] + (alpha,))


def right(s: CatSeq, i: int) -> CatSeq:
    """Right caterpillar subsequence of size i."""
    b, beta = alpha_beta_right(s, i)
    return _trusted((beta,) + s[b - 1:])


def decompose(s: CatSeq, i: int) -> tuple[CatSeq, CatSeq]:
    """Split s as graft(left(s, i), right(s, size(s)+3-i)); the two parts
    meet at the spine vertex where left(s, i) ends."""
    a, alpha = alpha_beta_left(s, i)
    return _trusted(s[:a] + (alpha,)), _trusted((s[a] + 2 - alpha,) + s[a + 1:])


def word_of(s: CatSeq) -> str:
    """The unique binary word w with rc(w) = s."""
    check_sequence(s)
    check_range("word length", len(s) + sum(s) - 3, 0, WORD_MAX_LEN)
    # s_1 - 1 ones, a 0 before each further spine vertex, and s_k - 1 ones at the end
    return "0".join(["1" * x for x in s])[1:-1]


def leaf_function_caterpillar(s: CatSeq) -> LeafFunction:
    """Leaf function of the caterpillar of s: L(i) = F1(word_of(s), i-3) + 2."""
    w = word_of(s)
    values = (0, 0, 2) + tuple(f + 2 for f in f1_profile(w))
    return LeafFunction(len(w) + 3, values)


# ---------------------------------------------------------------------------
# Poset machinery


def all_sequences(max_size: int) -> list[CatSeq]:
    """All caterpillar sequences of size <= max_size, smallest sizes first.

    Sequences of size m are exactly the rc images of binary words of
    length m-3, so we enumerate words.
    """
    check_range("max_size", max_size, 0, SEQUENCES_MAX_SIZE)
    return [_rc(w) for w in _binary_words(max_size - 3)]


def hasse_covers(max_size: int) -> set[tuple[CatSeq, CatSeq]]:
    """Cover relations (lower, upper) of the order restricted to size <= max_size.

    The order is graded by size, so the covers are exactly the related pairs
    of consecutive sizes.  Size = sum(spine degrees) - k + 2 is strictly
    monotone.  For s < t, take a window of t's spine degrees that dominates
    s: if it leaves out an end of t, drop a leaf at that end (with a single
    leaf there, this removes the end's degree); otherwise some degree of t
    exceeds that of s and is at least 3, so drop a leaf there.  Either way
    this gives u of size size(t) - 1 with s <= u < t.
    """
    check_range("max_size", max_size, 0, HASSE_MAX_SIZE)
    seqs = all_sequences(max_size)
    pairs = list(zip(seqs, map(spine_degrees, seqs)))
    # the 2**k sequences of size k + 3 start at index 2**k - 1
    blocks = [pairs[2 ** k - 1:2 ** (k + 1) - 1] for k in range(max_size - 2)]
    return {(x, y) for lower, upper in zip(blocks, blocks[1:])
            for x, dx in lower for y, dy in upper if _dominated(dx, dy)}


def hasse_dot(max_size: int) -> str:
    """DOT digraph of the Hasse diagram, edges lower -> upper."""
    covers = sorted(hasse_covers(max_size))
    lines = ["digraph hasse {"]
    for s in sorted(all_sequences(max_size)):
        lines.append(f'  "{format_sequence(s)}";')
    for lo, hi in covers:
        lines.append(f'  "{format_sequence(lo)}" -> "{format_sequence(hi)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
