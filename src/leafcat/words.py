"""Binary words: maximal-ones profiles, prefix normality and the reading map.

Words are plain Python strings over '0'/'1'; the empty word is "".  A public
function checks its word once, on entry; the private helpers below work on
prefix sums of a word already checked and never check again.
"""

from __future__ import annotations

from itertools import accumulate, product, repeat
from operator import add, le, sub
from typing import Iterator

from .bounds import ENUM_MAX_LEN, K_MAX, WORD_MAX_LEN, CatSeq, _trusted, check_range

_BITS = bytes.maketrans(b"01", b"\0\1")  # the bytes of '0' and '1' to the ints 0 and 1


def check_binary(w: str) -> None:
    if not isinstance(w, str):  # a list or tuple of strings has a length and letters too
        raise ValueError(f"not a binary word: {w!r}")
    check_range("word length", len(w), 0, WORD_MAX_LEN)
    if w.strip("01"):  # stripping 0s and 1s from both ends stops at any other letter
        raise ValueError(f"not a binary word: {w!r}")


def prefix_ones(w: str) -> tuple[int, ...]:
    """Cumulative ones counts: entry i is |pref_i(w)|_1."""
    check_binary(w)
    # a tuple display knows its length; tuple() of an iterator would allocate
    # a guessed size and resize, which fills the small-tuple free lists
    return (0, *accumulate(w.encode().translate(_BITS)))


def _f1s(pre: tuple[int, ...]) -> Iterator[int]:
    """F1(w, i) for i = 0..|w|, lazily, from the prefix sums of w: the best
    window of length i is the largest difference pre[j + i] - pre[j]; `map`
    stops at the end of pre[i:]."""
    return (max(map(sub, pre[i:], pre)) for i in range(len(pre)))


def f1(w: str, i: int) -> int:
    """Maximal number of 1s in a factor of length i, as `_f1s` finds it."""
    pre = prefix_ones(w)
    check_range("i", i, 0, len(w))
    return max(map(sub, pre[i:], pre))


def f1_profile(w: str) -> tuple[int, ...]:
    """(F1(w, 0), ..., F1(w, |w|))."""
    return tuple(_f1s(prefix_ones(w)))


def is_prefix_normal(w: str) -> bool:
    """True iff every prefix has at least as many 1s as any equal-length factor.

    Only factors that start a run of 1s after a 0 are compared, each with
    the prefixes of all its lengths at once: a factor with more 1s than its
    prefix keeps them without its leading 0s, and then with the 1s before it
    in place of its last letters."""
    pre = prefix_ones(w)
    j = w.find("01") + 1
    while j:
        if not all(map(le, map(sub, pre[j:], repeat(pre[j])), pre)):
            return False
        j = w.find("01", j) + 1
    return True


def pn_violation(w: str):
    """Minimal-length witness (prefix, factor) with |factor|_1 > |prefix|_1,
    or None if w is prefix normal.  The factor is the first occurrence at the
    minimal violating length.
    """
    pre = prefix_ones(w)
    for length, (best, limit) in enumerate(zip(_f1s(pre), pre)):
        if best > limit:
            j = next(j for j in range(len(w) - length + 1) if pre[j + length] - pre[j] > limit)
            return w[:length], w[j : j + length]
    return None


def is_k_prefix_normal(w: str, k: int) -> bool:
    """True iff every factor exceeds its equal-length prefix by at most k ones.

    The empty prefix (length 0) is included; it is vacuously satisfied.
    """
    check_range("k", k, 0, K_MAX)
    pre = prefix_ones(w)
    return all(f - p <= k for f, p in zip(_f1s(pre), pre))


def pnf(w: str) -> str:
    """Prefix normal form: the unique prefix normal word with the same profile."""
    prof = f1_profile(w)
    return "".join("01"[b - a] for a, b in zip(prof, prof[1:]))


def equivalent(w1: str, w2: str) -> bool:
    """Same length and same maximal-ones profile."""
    return f1_profile(w1) == f1_profile(w2)


def rc(w: str) -> CatSeq:
    """Reading caterpillar sequence: '0' starts a new spine vertex,
    '1' adds a leaf to the current one.  rc("") = (2)."""
    check_binary(w)
    return _rc(w)


def _rc(w: str) -> CatSeq:
    """rc of a word already checked; every word reads as a valid sequence."""
    seq = [2]
    for c in w:
        if c == "0":
            seq[-1] -= 1
            seq.append(1)
        else:
            seq[-1] += 1
    return _trusted(seq)


def _binary_words(max_len: int) -> Iterator[str]:
    """Every binary word of length at most max_len, shorter words first and
    each length in lexicographic order; the caller bounds max_len."""
    for n in range(max_len + 1):
        for bits in product("01", repeat=n):
            yield "".join(bits)


def enumerate_pnw(n: int) -> Iterator[str]:
    """All prefix normal words of length n, in lexicographic order.

    Prefix normal words are closed under taking prefixes, so the search tree
    is pruned at the first non-normal prefix.  Only a new suffix can break
    normality, and a 0 breaks none: w1 is normal iff its suffix of each length
    L <= |w| has at most pre[L] ones.  A generator: n is checked at the first
    next(), not at the call.
    """
    check_range("n", n, 0, ENUM_MAX_LEN)

    def grow(w: str, pre: tuple[int, ...]) -> Iterator[str]:
        if len(w) == n:
            yield w
            return
        yield from grow(w + "0", pre + (pre[-1],))
        # the suffix of length L has ones - pre[len(w) + 1 - L] ones, and pre[::-1]
        # lists pre[len(w) + 1 - L] for L = 1..len(w) as pre[1:] lists pre[L]
        ones = pre[-1] + 1
        if min(map(add, pre[1:], pre[::-1]), default=ones) >= ones:
            yield from grow(w + "1", pre + (ones,))

    yield from grow("", (0,))
