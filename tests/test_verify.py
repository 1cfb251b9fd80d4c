import inspect
import json
import re
from collections import Counter
from itertools import product

import pytest

from leafcat import subtrees, verify, words
from leafcat.bounds import SUITE_BOUNDS
from leafcat.cli import main
from leafcat.leafwords import delta_leaf_word, format_leaf_word
from leafcat.subtrees import LeafFunction


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def no_enumeration(monkeypatch):
    """Make any start of a suite's enumeration fail the test."""

    def started(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(verify.catseq, "all_sequences", started)
    monkeypatch.setattr(verify.words, "_binary_words", started)
    monkeypatch.setattr(verify, "_free_tree_levels", started)
    for suite in verify.SUITES:
        monkeypatch.setattr(verify, f"suite_{suite.replace('-', '_')}", started)


def rejection(suite, value):
    """The pattern of a suite's rejection of `value`: its bound's name, the
    value and both ends of the suite's range."""
    name = next(iter(inspect.signature(suite).parameters))
    low, high = SUITE_BOUNDS[suite.__name__.removeprefix("suite_").replace("_", "-")]
    return re.escape(f"{name}={value} outside {low}..{high}")


# (suite function, the low end of its range, its cap), from the one table
SUITE_RANGES = [(getattr(verify, f"suite_{name.replace('-', '_')}"), low, high)
                for name, (low, high) in SUITE_BOUNDS.items()]


@pytest.mark.parametrize("suite, cap", [(suite, high) for suite, _, high in SUITE_RANGES])
def test_suite_rejects_bound_above_cap(suite, cap, no_enumeration):
    with pytest.raises(ValueError, match=rejection(suite, cap + 1)):
        suite(cap + 1)


minimums = pytest.mark.parametrize("suite, low", [(suite, low) for suite, low, _ in SUITE_RANGES])


@minimums
def test_suite_rejects_bound_below_minimum(suite, low, no_enumeration):
    with pytest.raises(ValueError, match=rejection(suite, low - 1)):
        suite(low - 1)


@minimums
def test_suite_accepts_its_minimum(suite, low):
    reports = suite(low)
    assert reports and all(r.passed and r.bound == low for r in reports)


def test_all_rejects_a_bound(no_enumeration):
    with pytest.raises(ValueError, match="'all'"):
        verify.run_suite("all", 5)
    with pytest.raises(AssertionError, match="enumeration started"):
        verify.run_suite("all")


def test_run_suite_dispatch(monkeypatch):
    assert verify.SUITES == ("poset", "morphism", "roundtrip", "leaf-equivalence", "trees")
    with pytest.raises(ValueError, match="unknown suite 'nonsense'"):
        verify.run_suite("nonsense")
    calls = []
    for suite in verify.SUITES:
        name = f"suite_{suite.replace('-', '_')}"
        monkeypatch.setattr(verify, name, lambda *bound, name=name: calls.append((name, bound)))
    verify.run_suite("theorem53", 5)
    verify.run_suite("theorem61")
    verify.run_suite("trees", 4)
    assert calls == [("suite_roundtrip", (5,)), ("suite_leaf_equivalence", ()),
                     ("suite_trees", (4,))]


def claims(reports):
    return [(r.claim, r.instances) for r in reports]


def _spine_degrees(s):
    if len(s) == 1:
        return s
    return (s[0] + 1, *(x + 2 for x in s[1:-1]), s[-1] + 1)


def _below(x, y):
    """x <= y: the spine degrees of x lie under some window of those of y."""
    dx, dy = _spine_degrees(x), _spine_degrees(y)
    return any(all(dx[i] <= dy[shift + i] for i in range(len(dx)))
               for shift in range(len(dy) - len(dx) + 1))


@pytest.mark.parametrize("bound", [5, 7])
def test_poset_instance_counts(bound):
    # sequences of size m are the rc images of the 2^(m-3) words of length m-3
    seqs = [words.rc("".join(bits)) for n in range(bound - 2)
            for bits in product("01", repeat=n)]
    chains = sum(_below(x, y) and _below(y, z) for x in seqs for y in seqs for z in seqs)
    assert claims(verify.suite_poset(bound)) == [
        ("poset-reflexivity", len(seqs)),
        ("poset-antisymmetry", len(seqs) * (len(seqs) - 1)),
        ("poset-transitivity", chains),
    ]
    if bound == 7:
        assert (len(seqs), chains) == (31, 729)


@pytest.mark.parametrize("bound", [4, 8])
def test_morphism_instance_counts(bound):
    all_words = 2 ** (bound + 1) - 1
    pairs = (2 ** (min(bound, 6) + 1) - 1) ** 2
    # (w, i) for 3 <= i <= |w| + 3
    cuts = sum(2 ** n * (n + 1) for n in range(bound + 1))
    assert claims(verify.suite_morphism(bound)) == [
        ("graft-monoid", all_words + 31 ** 3),
        ("graft-additivity", pairs),
        ("rc-morphism", pairs + all_words),
        ("truncation-reading", cuts),
        ("graft-decomposition", cuts),
    ]
    if bound == 8:
        assert (all_words + 31 ** 3, pairs, pairs + all_words, cuts) == (
            30_302, 16_129, 16_640, 4_097)


# OEIS A194850: prefix normal words of length n, n = 0..4
PREFIX_NORMAL_WORDS = (1, 2, 3, 5, 8)


def non_normal(max_len):
    return 2 ** (max_len + 1) - 1 - sum(PREFIX_NORMAL_WORDS[: max_len + 1])


@pytest.fixture
def pnf_identity(monkeypatch):
    """Make every word its own normal form: the non-normal words fail."""
    monkeypatch.setattr(verify.words, "pnf", lambda w: w)


def test_failing_claim_reports_its_failures(pnf_identity):
    general = verify.suite_roundtrip(4)[1]
    assert (general.claim, general.passed, len(general.failures)) == (
        "roundtrip-general", False, non_normal(4))
    assert general.line().startswith(
        f"FAIL roundtrip-general bound=4 instances=31 failures={non_normal(4)} ")


def test_cli_failing_suite(pnf_identity, capsys):
    for bound in (3, 4):  # 4 and 12 failures
        code, out = run(capsys, "verify", "--suite", "roundtrip", "--max-n", str(bound))
        assert code == 1
        assert f"FAIL roundtrip-general bound={bound} instances=" in out
        assert f" failures={non_normal(bound)} " in out
        assert out.count("counterexample:") == min(non_normal(bound), 10)
    code, out = run(capsys, "--json", "verify", "--suite", "roundtrip", "--max-n", "3")
    assert code == 1
    assert json.loads(out)[1]["failures"] == ["01", "001", "010", "011"]


def test_tree_census_sees_a_non_normal_word(monkeypatch):
    # the first tree on 5 and on 13 vertices read 01 and 0100000000
    broken = {5: (0, 0, 2, 2, 2, 3), 13: (0, 0, 2, 2, 2) + (3,) * 9}

    def leaf_function(levels, memo, chain):
        n = len(levels)
        if n in broken:
            return broken.pop(n)
        return subtrees._leaf_function_levels(levels, memo, chain)

    monkeypatch.setattr(verify, "_leaf_function_levels", leaf_function)
    small, smallest = verify.suite_trees(13)
    assert not broken
    assert (small.claim, small.instances, small.failures) == (
        "tree-leaf-words-prefix-normal", 985, ("n=5 word=01",))
    assert (smallest.instances, smallest.failures) == (
        1301, ("non-prefix-normal words at n=13: ['0100000000', '1101011011']",))
    assert smallest.notes.endswith(": 0100000000,1101011011")


def test_tree_census_records_a_non_binary_word(monkeypatch, capsys):
    # a leaf word with a letter outside {0, 1} fails the claim like a word
    # that is not prefix normal: it is reported, and the command exits 1
    broken = {}

    def leaf_function(levels, memo, chain):
        n = len(levels)
        if n in broken:
            return broken.pop(n)
        return subtrees._leaf_function_levels(levels, memo, chain)

    monkeypatch.setattr(verify, "_leaf_function_levels", leaf_function)
    broken[7] = (0, 0, 2, 2, 2, 4, 2, 2)  # the first tree on 7 vertices reads 0,2,-2,0
    (small,) = verify.suite_trees(8)
    assert not broken
    assert (small.claim, small.instances, small.failures) == (
        "tree-leaf-words-prefix-normal", 46, ("n=7 word=0,2,-2,0",))
    broken[7] = (0, 0, 2, 2, 2, 4, 2, 2)
    code, out = run(capsys, "verify", "--suite", "trees", "--max-n", "8")
    assert not broken and code == 1
    assert out.startswith("FAIL tree-leaf-words-prefix-normal bound=8 instances=46 failures=1 ")
    assert out.splitlines()[1] == "  counterexample: n=7 word=0,2,-2,0"


def test_tree_census_decides_each_word_once(monkeypatch, capsys):
    # 2,286 trees on 3 to 13 vertices have 511 distinct leaf words, of n - 3
    # letters each: 292 on at most 12 vertices and 219 on 13
    decided = Counter()
    decide = words.is_prefix_normal

    def counted(w):
        decided[len(w) + 3] += 1
        return decide(w)

    monkeypatch.setattr(words, "is_prefix_normal", counted)
    code, out = run(capsys, "verify", "--suite", "trees", "--max-n", "13")
    assert code == 0 and "instances=985 " in out and "instances=1301 " in out
    assert sum(decided.values()) == 511
    assert (sum(decided[n] for n in range(13)), decided[13]) == (292, 219)


def test_tree_census_builds_no_leaf_function(monkeypatch, capsys):
    # the DP returns bare values, and the census reads each distinct one's
    # leaf word off them: no LeafFunction is built or checked
    built = []
    init = LeafFunction.__init__

    def counted(self, n, values):
        built.append(values)
        init(self, n, values)

    monkeypatch.setattr(LeafFunction, "__init__", counted)
    code, out = run(capsys, "verify", "--suite", "trees", "--max-n", "13")
    assert code == 0 and "instances=985 " in out and "instances=1301 " in out
    assert built == []


def test_tree_census_words_match_the_leaf_word_oracle(monkeypatch):
    # every tree on 3 to 14 vertices goes through the census's law, each word
    # failing as if not prefix normal, so the census writes out the word of
    # each of the 5,445 trees; each must be the word that LeafFunction,
    # delta_leaf_word and format_leaf_word read from the DP's values
    trees = [lv for n in range(3, 15) for lv in subtrees._free_tree_levels(n)]

    def levels(n):
        yield from (trees if n == 12 else ())

    monkeypatch.setattr(verify, "_free_tree_levels", levels)
    monkeypatch.setattr(words, "is_prefix_normal", lambda w: False)
    (report,) = verify.suite_trees(12)
    memo, want, distinct = {}, [], set()
    for lv in trees:
        values = subtrees._leaf_function_levels(lv, memo)
        distinct.add(values)
        lw = delta_leaf_word(LeafFunction(len(lv), values))
        want.append(f"n={len(lv)} word={format_leaf_word(lw)}")
    assert (report.instances, len(distinct)) == (5445, 907)
    assert report.failures == tuple(want)
    # words with letters other than 0 and 1, with a 2 or of two digits, read
    # from the first tree on 7 vertices
    monkeypatch.undo()
    for values, text in (((0, 0, 2, 2, 4, 5, 5, 5), "2,1,0,0"),
                         ((0, 0, 2, 2, 12, 2, 3, 3), "10,-10,1,0")):
        broken = {7: values}

        def leaf_function(levels, memo, chain):
            return (broken.pop(len(levels), None)
                    or subtrees._leaf_function_levels(levels, memo, chain))

        monkeypatch.setattr(verify, "_leaf_function_levels", leaf_function)
        (report,) = verify.suite_trees(7)
        assert not broken and format_leaf_word(delta_leaf_word(LeafFunction(7, values))) == text
        assert report.failures == (f"n=7 word={text}",)


def test_tree_census_builds_no_graph(monkeypatch):
    # the census hands the generator's parent arrays to the DP: no Graph is
    # built, so none is rooted again by breadth-first search
    def built(*args, **kwargs):
        raise AssertionError("Graph built")

    monkeypatch.setattr("leafcat.graph.Graph", built)
    with pytest.raises(AssertionError, match="Graph built"):
        next(subtrees.enumerate_free_trees(4))
    small, smallest = verify.run_suite("trees", 13)
    assert small.passed and smallest.passed
    assert (small.instances, smallest.instances) == (985, 1301)
