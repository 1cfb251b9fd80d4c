import itertools

import pytest

from leafcat import catseq as cs
from leafcat import words as wd
from leafcat.graph import wheel
from leafcat.leafwords import (
    INVALID,
    NON_TREE,
    OMEGA,
    TREE_COMPATIBLE,
    Rejection,
    classify_leaf_word,
    delta_leaf_word,
    format_leaf_word,
    leaf_equivalent,
    leaf_function_from_word,
    realize_caterpillar,
)
from leafcat.subtrees import LeafFunction, leaf_function_bruteforce


def all_words(max_len):
    for n in range(max_len + 1):
        for bits in itertools.product("01", repeat=n):
            yield "".join(bits)


def word_str(lw):
    return "".join(str(x) for x in lw)


def test_delta_leaf_word_tree_example():
    lf = LeafFunction(9, (0, 0, 2, 2, 3, 4, 4, 5, 5, 6))
    assert word_str(delta_leaf_word(lf)) == "110101"


def test_delta_leaf_word_wheel10():
    lw = delta_leaf_word(leaf_function_bruteforce(wheel(10)))
    assert lw == (1, 1, 1, -3, 0, 0, OMEGA, OMEGA)


def test_delta_leaf_word_minimal():
    assert delta_leaf_word(LeafFunction(3, (0, 0, 2, 2))) == ()
    with pytest.raises(ValueError):
        delta_leaf_word(LeafFunction(2, (0, 0, 2)))


def test_leaf_function_from_word():
    assert leaf_function_from_word("110101").values == (0, 0, 2, 2, 3, 4, 4, 5, 5, 6)
    assert leaf_function_from_word("").values == (0, 0, 2, 2)


def test_difference_identity_spot_check():
    # L(7) - L(4) counts ones in the window of the leaf word
    lf = leaf_function_from_word("110101")
    w = word_str(delta_leaf_word(lf))
    assert lf.values[7] - lf.values[4] == w[: 7 - 3][-3:].count("1") == 2
    assert w[: 7 - 3][-3:] == "101"


def test_difference_identity_exhaustive():
    for w in all_words(8):
        lf = leaf_function_from_word(w)
        n = lf.n
        for i in range(3, n + 1):
            for j in range(i, n + 1):
                window = w[: j - 3][len(w[: j - 3]) - (j - i):]
                assert lf.values[j] - lf.values[i] == window.count("1")


def test_classify():
    assert classify_leaf_word((1, 1, 0, 1, 0, 1)) == TREE_COMPATIBLE
    assert classify_leaf_word((1, 1, 1, -3, 0, 0, OMEGA, OMEGA)) == NON_TREE
    assert classify_leaf_word((1, 2, 0)) == INVALID
    assert classify_leaf_word((OMEGA, 1)) == INVALID
    assert classify_leaf_word(()) == TREE_COMPATIBLE
    assert classify_leaf_word((0, -1)) == NON_TREE
    # a bool is no letter, as no value check of the package takes one for an int
    assert classify_leaf_word((True,)) == INVALID
    assert classify_leaf_word((1, False)) == INVALID


def test_realize_examples():
    assert realize_caterpillar(LeafFunction(9, (0, 0, 2, 2, 3, 4, 4, 5, 5, 6))) == (3, 1, 2)
    assert realize_caterpillar(LeafFunction(3, (0, 0, 2, 2))) == (2,)


def test_realize_rejects_non_prefix_normal():
    lf = leaf_function_from_word("1101011011")
    result = realize_caterpillar(lf)
    assert isinstance(result, Rejection)
    assert result.reason == "not-prefix-normal"
    assert result.witness == ("11010", "11011")


def test_realize_rejects_structure():
    assert realize_caterpillar(LeafFunction(2, (0, 0, 2))).reason == "bad-size"
    assert realize_caterpillar(LeafFunction(4, (0, 0, 2, 3, 3))).reason == "bad-prefix"
    wheel_lf = leaf_function_bruteforce(wheel(10))
    assert realize_caterpillar(wheel_lf).reason == "bad-alphabet"


def test_realize_roundtrip():
    # any accepted vector is reproduced by its realization
    for n in range(13):
        for w in wd.enumerate_pnw(n):
            lf = leaf_function_from_word(w)
            s = realize_caterpillar(lf)
            assert not isinstance(s, Rejection)
            assert cs.leaf_function_caterpillar(s) == lf


def test_roundtrip_general_words():
    # for arbitrary words the recovered leaf word is the prefix normal form
    for w in all_words(10):
        lw = delta_leaf_word(cs.leaf_function_caterpillar(wd.rc(w)))
        assert word_str(lw) == wd.pnf(w)
        assert wd.is_prefix_normal(word_str(lw))


def test_fully_leafed_prefix_law():
    # the left truncation attains the leaf function of a prefix normal word
    for n in range(11):
        for w in wd.enumerate_pnw(n):
            s = wd.rc(w)
            lf = cs.leaf_function_caterpillar(s)
            for i in range(3, cs.size(s) + 1):
                assert lf.values[i] == cs.leaves(cs.left(s, i))


def test_leaf_equivalent():
    assert leaf_equivalent("01", "10")
    assert leaf_equivalent("00110101100", "11010110000")
    assert not leaf_equivalent("01", "11")


def test_leaf_equivalence_iff_profile_equal():
    for n in range(8):
        group = ["".join(b) for b in itertools.product("01", repeat=n)]
        lfs = {w: cs.leaf_function_caterpillar(wd.rc(w)) for w in group}
        for w1 in group:
            for w2 in group:
                assert (lfs[w1] == lfs[w2]) == wd.equivalent(w1, w2)


def test_factor_subsequence_law():
    # every factor reads to a subsequence with the right size and leaf count
    for w in all_words(7):
        s = wd.rc(w)
        for i in range(len(w) + 1):
            for j in range(i, len(w) + 1):
                u = w[i:j]
                t = wd.rc(u)
                assert cs.is_subsequence(t, s)
                assert cs.size(t) == len(u) + 3
                assert cs.leaves(t) == u.count("1") + 2


def test_fully_leafed_from_corner_truncations():
    # some left-of-right (and right-of-left) truncation is fully leafed
    for w in all_words(7):
        s = wd.rc(w)
        lf = cs.leaf_function_caterpillar(s)
        n = cs.size(s)
        for i in range(3, n + 1):
            target = lf.values[i]
            assert any(
                cs.leaves(cs.left(cs.right(s, j), i)) == target
                for j in range(i, n + 1)
            )
            assert any(
                cs.leaves(cs.right(cs.left(s, j), i)) == target
                for j in range(i, n + 1)
            )


def test_leaf_word_text_format():
    lw = (1, 1, 1, -3, 0, 0, OMEGA, OMEGA)
    assert format_leaf_word(lw) == "1,1,1,-3,0,0,w,w"
    assert format_leaf_word((1, 1, 0, 1, 0, 1)) == "110101"
