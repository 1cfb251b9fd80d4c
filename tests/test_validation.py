"""Public functions check a word or a caterpillar sequence once, on entry,
and every size, index and vertex is an int."""

import inspect
import re
from collections import Counter

import pytest

from leafcat import catseq as cs
from leafcat import leafwords as lw
from leafcat import words as wd
from leafcat.graph import Graph, chain, induced_subgraph, to_dot, wheel
from leafcat.subtrees import LeafFunction, leaf_function_bruteforce
from leafcat.verify import run_suite

BAD_WORD = "012"
BAD_SEQ = (0, 1)


@pytest.fixture
def checks(monkeypatch):
    """Count the calls of check_binary and check_sequence."""
    counts = Counter()

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(x):
            counts[name] += 1
            return original(x)

        monkeypatch.setattr(module, name, wrapper)

    counting(wd, "check_binary")
    counting(cs, "check_sequence")
    return counts


# built here, so that only realize_caterpillar's own checks are counted
LF_1101 = lw.leaf_function_from_word("1101")


@pytest.mark.parametrize("call", [
    lambda: wd.f1_profile("01" * 50),
    lambda: wd.is_prefix_normal("01" * 50),
    lambda: wd.is_prefix_normal("1" * 50 + "0" * 50),
    lambda: wd.is_k_prefix_normal("01" * 50, 1),
    lambda: wd.pn_violation("1" * 50 + "0" * 50),
    lambda: wd.pnf("01" * 50),
    lambda: lw.realize_caterpillar(LF_1101),
], ids=["f1_profile", "is_prefix_normal-no", "is_prefix_normal-yes",
        "is_k_prefix_normal", "pn_violation", "pnf", "realize_caterpillar"])
def test_word_checked_once(call, checks):
    call()
    assert checks == {"check_binary": 1}


SEQ = (1,) + (0,) * 8 + (1,)


@pytest.mark.parametrize("call, expected", [
    (lambda: cs.left_recursive(SEQ, 3), (2,)),
    (lambda: cs.right_recursive(SEQ, 3), (2,)),
    (lambda: cs.alpha_beta_right(SEQ, 3), (11, 2)),
    (lambda: cs.right(SEQ, 3), (2,)),
    (lambda: cs.decompose(SEQ, 5), ((1, 0, 1), (1,) + (0,) * 6 + (1,))),
], ids=["left_recursive", "right_recursive", "alpha_beta_right", "right", "decompose"])
def test_sequence_checked_once(call, expected, checks):
    assert call() == expected
    assert checks == {"check_sequence": 1}


def test_enumerate_pnw_checks_no_candidate(checks):
    assert len(list(wd.enumerate_pnw(8))) == 70
    assert checks == {}


def test_hasse_covers_checks_each_sequence_once(checks):
    covers = cs.hasse_covers(6)
    assert covers and checks["check_sequence"] == len(cs.all_sequences(6))


@pytest.mark.parametrize("suite, bound", [("morphism", 6), ("poset", 5)])
def test_suites_check_only_catseq_values(suite, bound, monkeypatch):
    """The suites read sequences the library built, so each check is the fast path."""
    kinds = Counter()
    original = cs.check_sequence

    def recording(s):
        kinds[type(s).__name__] += 1
        return original(s)

    monkeypatch.setattr(cs, "check_sequence", recording)
    assert all(report.passed for report in run_suite(suite, bound))
    assert set(kinds) == {"CatSeq"} and kinds["CatSeq"] > 0


# words that are not a str: a list or tuple of strings has a length and
# letters too, bytes and None have no letters that are strings
NOT_A_STR = [
    (wd.rc, (["01", "1"],)),
    (wd.rc, (("0", "1"),)),
    (wd.f1_profile, (b"0101",)),
    (wd.is_prefix_normal, (None,)),
]

# (function, arguments with a malformed word or sequence in them)
MALFORMED = [
    (wd.check_binary, (BAD_WORD,)),
    (wd.prefix_ones, (BAD_WORD,)),
    (wd.f1, (BAD_WORD, 1)),
    (wd.f1_profile, (BAD_WORD,)),
    (wd.is_prefix_normal, (BAD_WORD,)),
    (wd.pn_violation, (BAD_WORD,)),
    (wd.is_k_prefix_normal, (BAD_WORD, 1)),
    (wd.pnf, (BAD_WORD,)),
    (wd.equivalent, (BAD_WORD, "01")),
    (wd.equivalent, ("01", BAD_WORD)),
    (wd.equivalent, ("01", "0x2")),
    (wd.rc, (BAD_WORD,)),
    *NOT_A_STR,
    (cs.check_sequence, (BAD_SEQ,)),
    (cs.size, (BAD_SEQ,)),
    (cs.leaves, (BAD_SEQ,)),
    (cs.reversal, (BAD_SEQ,)),
    (cs.spine_degrees, (BAD_SEQ,)),
    (cs.is_subsequence, (BAD_SEQ, (2,))),
    (cs.is_subsequence, ((2,), BAD_SEQ)),
    (cs.graft, (BAD_SEQ, (2,))),
    (cs.graft, ((2,), BAD_SEQ)),
    (cs.left_recursive, (BAD_SEQ, 3)),
    (cs.right_recursive, (BAD_SEQ, 3)),
    (cs.alpha_beta_left, (BAD_SEQ, 3)),
    (cs.alpha_beta_right, (BAD_SEQ, 3)),
    (cs.left, (BAD_SEQ, 3)),
    (cs.right, (BAD_SEQ, 3)),
    (cs.right, (5, 3)),
    (cs.right_recursive, (None, 3)),
    (cs.alpha_beta_right, (5, 3)),
    (cs.decompose, (BAD_SEQ, 3)),
    (cs.word_of, (BAD_SEQ,)),
    (cs.leaf_function_caterpillar, (BAD_SEQ,)),
    (cs.parse_sequence, ("0,1",)),
    (lw.leaf_function_from_word, (BAD_WORD,)),
    (lw.leaf_equivalent, (BAD_WORD, "01")),
    (lw.leaf_equivalent, ("01", BAD_WORD)),
    (Graph.degree, (wheel(4), -1)),
    (Graph.degree, (wheel(4), 5)),
]

# public functions that take no word or sequence, or report a bad one in
# their result instead of raising
NOT_CHECKING = {
    "words": {"enumerate_pnw"},
    "catseq": {"all_sequences", "hasse_covers", "hasse_dot", "format_sequence"},
    "leafwords": {"delta_leaf_word", "classify_leaf_word", "realize_caterpillar",
                  "format_leaf_word"},
}


@pytest.mark.parametrize("fn, args", MALFORMED,
                         ids=[f"{fn.__name__}{args}" for fn, args in MALFORMED])
def test_malformed_argument_raises(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


@pytest.mark.parametrize("fn, args", NOT_A_STR,
                         ids=[f"{fn.__name__}{args}" for fn, args in NOT_A_STR])
def test_word_that_is_not_a_str_raises(fn, args):
    with pytest.raises(ValueError, match=f"^not a binary word: {re.escape(repr(args[0]))}$"):
        fn(*args)


@pytest.mark.parametrize("module", [wd, cs, lw], ids=lambda m: m.__name__)
def test_every_public_function_is_covered(module):
    public = {name for name, fn in inspect.getmembers(module, inspect.isfunction)
              if fn.__module__ == module.__name__ and not name.startswith("_")}
    short = module.__name__.rsplit(".", 1)[1]
    covered = {fn.__name__ for fn, _ in MALFORMED if fn.__module__ == module.__name__}
    assert public == covered | NOT_CHECKING[short]


# (a call with one scalar that is not an int, that scalar's name and value)
NOT_AN_INT = [
    (lambda: Graph(3, [(None, 1)]), "vertex=None"),
    (lambda: Graph(3, [("a", 1)]), "vertex='a'"),
    (lambda: Graph(3, [(0, 1.5)]), "vertex=1.5"),
    (lambda: Graph(3, [(0.0, 2)]), "vertex=0.0"),
    (lambda: Graph(3, [(False, True)]), "vertex=False"),
    (lambda: Graph(3.0, []), "n=3.0"),
    (lambda: leaf_function_bruteforce(chain(3), max_n=20.0), "max_n=20.0"),
    (lambda: wd.f1("01", True), "i=True"),
    (lambda: cs.left((3,), 3.0), "i=3.0"),
    (lambda: wheel(4).degree(True), "vertex=True"),
    (lambda: wheel(4).degree(1.0), "vertex=1.0"),
    (lambda: LeafFunction(2.0, (0, 0, 2)), "n=2.0"),
    (lambda: LeafFunction(True, (0, 0)), "n=True"),
    (lambda: LeafFunction("a", (0,)), "n='a'"),
    # from_edges checks both ends before it orders an edge
    *[pytest.param(lambda e=e: Graph.from_edges(30, [e]), named, id=f"from_edges-{e[0]!r}-{e[1]!r}")
      for e, named in [((0.0, 2), "vertex=0.0"), ((0.0, 28), "vertex=0.0"), ((None, 1), "vertex=None"),
                       (("a", 1), "vertex='a'"), ((1, True), "vertex=True")]],
    # a vertex list is checked element by element, before it is deduplicated
    *[pytest.param(lambda f=f, vs=vs: f(wheel(4), vs), named,
                   id=f"{f.__name__}-{vs[0]!r}-{vs[1]!r}")
      for f, vs, named in [(induced_subgraph, [0, "a"], "vertex='a'"),
                           (induced_subgraph, [None, 0], "vertex=None"),
                           (to_dot, [0, "a"], "vertex='a'"),
                           (induced_subgraph, [1, 1.0], "vertex=1.0"),
                           (induced_subgraph, [0, False], "vertex=False"),
                           (to_dot, [1, True], "vertex=True")]],
]


@pytest.mark.parametrize("call, named", NOT_AN_INT,
                         ids=[getattr(row, "id", None) or row[1] for row in NOT_AN_INT])
def test_scalar_that_is_not_an_int_raises(call, named):
    with pytest.raises(ValueError, match=f"^{re.escape(named)} is not an integer$"):
        call()


def test_leaf_function_rejects_negative_n_and_non_tuple_values():
    with pytest.raises(ValueError, match="^n=-1 is negative$"):
        LeafFunction(-1, ())
    # a list of values would make the leaf function unhashable
    for values in ([0, 0, 2], range(3)):
        with pytest.raises(ValueError, match="^values must be a tuple"):
            LeafFunction(2, values)
