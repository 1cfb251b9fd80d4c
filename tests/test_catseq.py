import copy
import itertools
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafcat import catseq as cs
from leafcat import leafwords as lw
from leafcat import words as wd
from leafcat.graph import caterpillar_graph
from leafcat.subtrees import leaf_function_bruteforce

binary_words = st.text(alphabet="01", max_size=14)


def all_words(max_len):
    for n in range(max_len + 1):
        for bits in itertools.product("01", repeat=n):
            yield "".join(bits)


def test_check_sequence():
    for bad in [(), (0,), (1,), (0, 1), (1, 0), (-1, 2), (1.5,)]:
        with pytest.raises(ValueError):
            cs.check_sequence(bad)
    for bad in [(2, True), (True, 1), (False, 2)]:  # bool is not an entry
        with pytest.raises(ValueError, match="entries must be non-negative integers"):
            cs.check_sequence(bad)
    for good in [(2,), (1, 1), (3, 0, 2, 4, 0, 1)]:
        cs.check_sequence(good)


def test_size_and_leaves():
    assert cs.size((3, 0, 2, 4, 0, 1)) == 16
    assert cs.leaves((3, 0, 2, 4, 0, 1)) == 10
    assert cs.size((2,)) == 3 and cs.leaves((2,)) == 2


def test_reversal():
    assert cs.reversal((4, 2, 0, 1)) == (1, 0, 2, 4)
    assert cs.reversal(cs.reversal((3, 0, 2, 4, 0, 1))) == (3, 0, 2, 4, 0, 1)


def test_spine_degrees():
    assert cs.spine_degrees((2,)) == (2,)
    assert cs.spine_degrees((3, 1)) == (4, 2)
    assert cs.spine_degrees((3, 0, 2, 4, 0, 1)) == (4, 2, 4, 6, 2, 2)


def test_spine_degrees_match_graph():
    s = (3, 0, 2, 4, 0, 1)
    g = caterpillar_graph(s)
    # spine vertices are 0..k-1 by construction
    assert cs.spine_degrees(s) == tuple(g.degree(i) for i in range(len(s)))


def test_is_subsequence_examples():
    big = (3, 0, 2, 4, 0, 1)
    assert cs.is_subsequence((1, 1, 4, 0, 1), big)
    assert cs.is_subsequence((6,), big)
    assert not cs.is_subsequence((1, 1), (3,))
    assert not cs.is_subsequence((3,), (1, 1))


def test_graft_examples():
    assert cs.graft((4, 1), (3, 0, 1)) == (4, 2, 0, 1)
    assert cs.graft((1, 1), (3,)) == (1, 2)
    for s in [(2,), (1, 1), (3, 0, 2, 4, 0, 1)]:
        assert cs.graft((2,), s) == s
        assert cs.graft(s, (2,)) == s


def test_left_right_examples():
    s = (3, 0, 2, 4, 0, 1)
    assert cs.left(s, 6) == (3, 1)
    assert cs.right(s, 6) == (2, 0, 1)
    assert cs.left(s, cs.size(s)) == s
    assert cs.right(s, cs.size(s)) == s
    with pytest.raises(ValueError):
        cs.left(s, 2)
    with pytest.raises(ValueError):
        cs.right(s, cs.size(s) + 1)


def test_alpha_beta_left():
    assert cs.alpha_beta_left((3, 0, 2, 4, 0, 1), 6) == (1, 1)
    s = (3, 0, 2, 4, 0, 1)
    assert cs.alpha_beta_left(s, cs.size(s)) == (len(s) - 1, s[-1])
    # basis for a single-entry sequence: left of size i is (i-1)
    assert cs.alpha_beta_left((5,), 4) == (0, 3)
    assert cs.left((5,), 4) == (3,) == cs.left_recursive((5,), 4)


def test_alpha_beta_relations():
    for w in all_words(8):
        s = wd.rc(w)
        for i in range(3, cs.size(s) + 1):
            a, alpha = cs.alpha_beta_left(s, i)
            assert 0 <= a <= len(s) - 1
            assert 1 <= alpha <= s[a] + 1
            assert i == sum(x + 1 for x in s[:a]) + alpha + 1
            assert s[:a] + (alpha,) == cs.left(s, i)
            b, beta = cs.alpha_beta_right(s, i)
            assert 2 <= b <= len(s) + 1
            assert 1 <= beta <= s[b - 2] + 1
            assert i == sum(x + 1 for x in s[b - 1:]) + beta + 1
            assert (beta,) + s[b - 1:] == cs.right(s, i)


def test_closed_form_matches_recursion():
    for w in all_words(9):
        s = wd.rc(w)
        for i in range(3, cs.size(s) + 1):
            assert cs.left(s, i) == cs.left_recursive(s, i)
            assert cs.right(s, i) == cs.right_recursive(s, i)


def test_decompose():
    # graft of the split halves always reproduces the sequence
    assert cs.decompose((4, 2, 0, 1), 7) == ((4, 1), (3, 0, 1))
    s = (3, 0, 2, 4, 0, 1)
    assert cs.decompose(s, 3) == ((2,), s)
    assert cs.decompose(s, 6)[0] == (3, 1)
    assert cs.graft(*cs.decompose(s, 6)) == s
    for w in all_words(8):
        s = wd.rc(w)
        for i in range(3, cs.size(s) + 1):
            assert cs.graft(*cs.decompose(s, i)) == s


def test_decompose_is_left_and_right():
    for s in cs.all_sequences(12):
        n = cs.size(s)
        for i in range(3, n + 1):
            assert cs.decompose(s, i) == (cs.left(s, i), cs.right(s, n + 3 - i)), (s, i)


def test_word_of():
    assert cs.word_of((2,)) == ""
    assert cs.word_of((3, 1, 2)) == "110101"
    assert cs.word_of((1, 0, 2, 1, 2, 0, 1)) == "00110101100"


def test_word_of_rejects_a_word_past_the_cap():
    cap = wd.WORD_MAX_LEN
    # size cap + 4 reads as a word of cap + 1 letters
    with pytest.raises(ValueError, match=f"word length={cap + 1} outside 0..{cap}"):
        cs.word_of((cap + 3,))
    assert cs.word_of((cap + 2,)) == "1" * cap


def test_all_sequences_bound():
    cap = cs.SEQUENCES_MAX_SIZE
    for size in (-1, cap + 1):
        with pytest.raises(ValueError, match=f"max_size={size} outside 0..{cap}"):
            cs.all_sequences(size)


def test_word_of_rc_roundtrip():
    for w in all_words(12):
        assert cs.word_of(wd.rc(w)) == w
    for w in all_words(8):
        s = wd.rc(w)
        assert wd.rc(cs.word_of(s)) == s


def test_leaf_function_caterpillar_examples():
    assert cs.leaf_function_caterpillar((3, 1, 2)).values == (0, 0, 2, 2, 3, 4, 4, 5, 5, 6)
    assert cs.leaf_function_caterpillar((1, 0, 2, 1, 2, 0, 1)).values[8] == 5
    star6 = cs.leaf_function_caterpillar((6,))
    assert all(star6.values[i] == i - 1 for i in range(3, 8))


def test_leaf_function_caterpillar_matches_bruteforce_small():
    for w in all_words(7):
        s = wd.rc(w)
        assert cs.leaf_function_caterpillar(s) == leaf_function_bruteforce(caterpillar_graph(s))


@given(binary_words, binary_words)
@settings(max_examples=200)
def test_graft_laws_random(u, v):
    a, b = wd.rc(u), wd.rc(v)
    g = cs.graft(a, b)
    cs.check_sequence(g)  # closure
    assert cs.size(g) == cs.size(a) + cs.size(b) - 3
    assert cs.leaves(g) == cs.leaves(a) + cs.leaves(b) - 2
    assert cs.reversal(g) == cs.graft(cs.reversal(b), cs.reversal(a))
    assert cs.is_subsequence(a, g) and cs.is_subsequence(b, g)


@given(binary_words, binary_words, binary_words)
@settings(max_examples=200)
def test_graft_associative_random(u, v, x):
    a, b, c = wd.rc(u), wd.rc(v), wd.rc(x)
    assert cs.graft(cs.graft(a, b), c) == cs.graft(a, cs.graft(b, c))


def test_order_is_size_monotone():
    seqs = cs.all_sequences(8)
    for x in seqs:
        for y in seqs:
            if cs.is_subsequence(x, y):
                assert cs.size(x) <= cs.size(y)


def test_truncations_below_and_mirror():
    for w in all_words(8):
        s = wd.rc(w)
        for i in range(3, cs.size(s) + 1):
            assert cs.is_subsequence(cs.left(s, i), s)
            assert cs.is_subsequence(cs.right(s, i), s)
            assert cs.left(cs.reversal(s), i) == cs.reversal(cs.right(s, i))


def test_hasse_covers():
    covers = cs.hasse_covers(6)
    assert ((1, 1), (1, 2)) in covers
    assert ((3,), (1, 2)) in covers
    assert ((1, 1), (2, 1)) in covers
    assert ((3,), (2, 1)) in covers
    # (2) is the unique minimum: it covers nothing and everything of size 4
    # sits directly above it
    assert not any(hi == (2,) for lo, hi in covers)
    lowers = {lo for lo, hi in covers}
    assert (2,) in lowers
    seqs = cs.all_sequences(6)
    assert all(cs.is_subsequence((2,), s) for s in seqs)


def test_hasse_covers_are_the_transitive_reduction():
    """The covers against networkx's transitive reduction of the order, as
    the public is_subsequence gives it, on every size bound up to 10."""
    import networkx as nx

    seqs = cs.all_sequences(10)
    order = nx.DiGraph([(x, y) for x in seqs for y in seqs if x != y and cs.is_subsequence(x, y)])
    for m in range(11):
        upto_m = order.subgraph(s for s in seqs if cs.size(s) <= m)
        assert cs.hasse_covers(m) == set(nx.transitive_reduction(upto_m).edges)


def test_hasse_covers_join_consecutive_sizes():
    counts = [len(cs.hasse_covers(m)) for m in range(12)]
    covers = cs.hasse_covers(12)
    assert counts + [len(covers)] == [0, 0, 0, 0, 2, 8, 23, 58, 137, 312, 695, 1526, 3317]
    assert all(cs.size(hi) == cs.size(lo) + 1 for lo, hi in covers)


def test_poset_restricted_to_size_6_is_not_a_lattice():
    seqs = cs.all_sequences(6)
    uppers = [s for s in seqs
              if cs.is_subsequence((1, 1), s) and cs.is_subsequence((3,), s)]
    minimal = [u for u in uppers
               if not any(v != u and cs.is_subsequence(v, u) for v in uppers)]
    assert sorted(minimal) == [(1, 2), (2, 1)]


def test_hasse_bound():
    with pytest.raises(ValueError):
        cs.hasse_covers(13)


def test_hasse_dot():
    dot = cs.hasse_dot(5)
    assert dot.startswith("digraph hasse {")
    assert '"2" -> ' in dot


def test_parse_format_roundtrip():
    s = (3, 0, 2, 4, 0, 1)
    assert cs.parse_sequence(cs.format_sequence(s)) == s
    with pytest.raises(ValueError):
        cs.parse_sequence("3,x")
    with pytest.raises(ValueError):
        cs.parse_sequence("0,1")


# ---------------------------------------------------------------------------
# CatSeq: a checked sequence that the checks trust

# every malformed sequence the checks above and tests/test_validation.py use,
# and a list, which is not a tuple
BAD_SEQUENCES = [(), (0,), (1,), (0, 1), (1, 0), (-1, 2), (1.5,), (2, True), (True, 1),
                 (False, 2), 5, None, [2]]


@pytest.mark.parametrize("entries", [(2,), (1, 1), (3, 0, 2, 4, 0, 1)])
def test_catseq_is_a_tuple_in_repr_equality_and_hash(entries):
    s = cs.CatSeq(entries)
    assert type(s).__name__ == "CatSeq" and isinstance(s, tuple)
    assert repr(s) == repr(entries) and str(s) == str(entries)
    assert s == entries and entries == s and hash(s) == hash(entries)
    assert len({s, entries}) == 1 and {s: 1}[entries] == 1
    assert not hasattr(s, "__dict__")


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_catseq_pickles(protocol):
    s = cs.CatSeq((3, 0, 2))
    twin = pickle.loads(pickle.dumps(s, protocol))
    assert type(twin) is cs.CatSeq and twin == s and hash(twin) == hash(s)


def test_catseq_copies():
    s = cs.CatSeq((3, 0, 2))
    for twin in (copy.copy(s), copy.deepcopy(s)):
        assert type(twin) is cs.CatSeq and twin == s and hash(twin) == hash(s)


@pytest.mark.parametrize("bad", BAD_SEQUENCES, ids=repr)
def test_catseq_rejects_what_check_sequence_rejects(bad):
    with pytest.raises(ValueError) as expected:
        cs.check_sequence(bad)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        cs.CatSeq(bad)


def test_only_a_catseq_skips_the_check():
    s = cs.CatSeq((3, 0, 2))
    # a slice or a concatenation is a plain tuple again, and is checked in full
    assert type(s[:-1]) is tuple and type(s + (1,)) is tuple
    with pytest.raises(ValueError, match="entries must be non-negative integers"):
        cs.size(s[:-1] + (True,))

    class Other(tuple):
        pass

    class Sub(cs.CatSeq):
        pass

    # neither another tuple subclass nor a subclass of CatSeq is trusted
    for kind in (Other, Sub):
        with pytest.raises(ValueError, match="first and last entries must be >= 1"):
            cs.size(tuple.__new__(kind, (0, 1)))


def test_library_sequences_are_catseq():
    s = (3, 0, 2, 4, 0, 1)
    built = [wd.rc("0110"), cs.graft(s, (2, 1)), cs.reversal(s), cs.left(s, 6), cs.right(s, 6),
             *cs.decompose(s, 6), cs.left_recursive(s, 6), cs.right_recursive(s, 6),
             *cs.all_sequences(6), cs.parse_sequence("3,0,2"),
             lw.realize_caterpillar(lw.leaf_function_from_word("1101"))]
    assert {type(x).__name__ for x in built} == {"CatSeq"}
