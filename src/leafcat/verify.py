"""Exhaustive verification suites over small instances.

Each claim sweeps every instance up to its bound and records the failures;
a claim passes iff the failure list is empty.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product

from . import catseq, words
from .graph import Graph
from .leafwords import delta_leaf_word
from .subtrees import enumerate_free_trees, leaf_function_tree


@dataclass
class VerifyReport:
    claim: str
    bound: int
    instances: int
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0
    notes: str = ""

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (
            f"{status} {self.claim} bound={self.bound} "
            f"instances={self.instances} failures={len(self.failures)} "
            f"time={self.seconds:.2f}s"
        )
        if self.notes:
            out += f" [{self.notes}]"
        for f in self.failures[:10]:
            out += f"\n  counterexample: {f}"
        return out

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "bound": self.bound,
            "instances": self.instances,
            "failures": self.failures,
            "seconds": self.seconds,
            "notes": self.notes,
        }


def _all_words(max_len: int) -> list[str]:
    out = []
    for n in range(max_len + 1):
        out += ["".join(bits) for bits in product("01", repeat=n)]
    return out


def _timed(claim: str, bound: int, fn) -> VerifyReport:
    start = time.perf_counter()
    instances, failures, notes = fn()
    return VerifyReport(claim, bound, instances, failures, time.perf_counter() - start, notes)


def _word_of_delta(lw) -> str:
    return "".join(str(x) for x in lw)


def _check_bound(suite: str, name: str, value: int, low: int, high: int) -> None:
    """Reject a bound outside low..high before the suite starts any work."""
    if not low <= value <= high:
        raise ValueError(f"{suite} suite supports {low} <= {name} <= {high}, got {value}")


# ---------------------------------------------------------------------------
# poset


POSET_MIN_SIZE, POSET_MAX_SIZE = 0, 9


def suite_poset(max_size: int = 7) -> list[VerifyReport]:
    _check_bound("poset", "max_size", max_size, POSET_MIN_SIZE, POSET_MAX_SIZE)
    seqs = catseq.all_sequences(max_size)

    def reflexivity():
        bad = [catseq.format_sequence(s) for s in seqs if not catseq.is_subsequence(s, s)]
        return len(seqs), bad, ""

    def antisymmetry():
        bad = []
        count = 0
        for x in seqs:
            for y in seqs:
                if x == y:
                    continue
                count += 1
                if catseq.is_subsequence(x, y) and catseq.is_subsequence(y, x):
                    bad.append(f"{x} <-> {y}")
        return count, bad, ""

    def transitivity():
        le = {
            (i, j)
            for i, x in enumerate(seqs)
            for j, y in enumerate(seqs)
            if catseq.is_subsequence(x, y)
        }
        bad = []
        count = 0
        for i in range(len(seqs)):
            for j in range(len(seqs)):
                if (i, j) not in le:
                    continue
                for k in range(len(seqs)):
                    if (j, k) in le:
                        count += 1
                        if (i, k) not in le:
                            bad.append(f"{seqs[i]} <= {seqs[j]} <= {seqs[k]}")
        return count, bad, ""

    return [
        _timed("poset-reflexivity", max_size, reflexivity),
        _timed("poset-antisymmetry", max_size, antisymmetry),
        _timed("poset-transitivity", max_size, transitivity),
    ]


# ---------------------------------------------------------------------------
# morphism / algebra


MORPHISM_MIN_LEN, MORPHISM_MAX_LEN = 0, 10


def suite_morphism(max_len: int = 8) -> list[VerifyReport]:
    _check_bound("morphism", "max_len", max_len, MORPHISM_MIN_LEN, MORPHISM_MAX_LEN)
    pair_len = min(max_len, 6)
    pair_words = _all_words(pair_len)
    all_words = _all_words(max_len)

    def monoid():
        ident = (2,)
        bad = []
        count = 0
        for w in all_words:
            s = words.rc(w)
            count += 1
            if catseq.graft(s, ident) != s or catseq.graft(ident, s) != s:
                bad.append(f"identity fails for {s}")
        triples = _all_words(4)
        for u in triples:
            for v in triples:
                for x in triples:
                    a, b, c = words.rc(u), words.rc(v), words.rc(x)
                    count += 1
                    if catseq.graft(catseq.graft(a, b), c) != catseq.graft(a, catseq.graft(b, c)):
                        bad.append(f"associativity fails for {a},{b},{c}")
        return count, bad, ""

    def additivity():
        bad = []
        count = 0
        for u in pair_words:
            for v in pair_words:
                a, b = words.rc(u), words.rc(v)
                g = catseq.graft(a, b)
                count += 1
                if catseq.size(g) != catseq.size(a) + catseq.size(b) - 3:
                    bad.append(f"size additivity fails for {a},{b}")
                if catseq.leaves(g) != catseq.leaves(a) + catseq.leaves(b) - 2:
                    bad.append(f"leaf additivity fails for {a},{b}")
                if catseq.reversal(g) != catseq.graft(catseq.reversal(b), catseq.reversal(a)):
                    bad.append(f"reversal law fails for {a},{b}")
                if not (catseq.is_subsequence(a, g) and catseq.is_subsequence(b, g)):
                    bad.append(f"factors not below graft for {a},{b}")
        return count, bad, ""

    def rc_morphism():
        bad = []
        count = 0
        for u in pair_words:
            for v in pair_words:
                count += 1
                if words.rc(u + v) != catseq.graft(words.rc(u), words.rc(v)):
                    bad.append(f"rc({u}+{v}) != graft")
        for w in all_words:
            count += 1
            if words.rc(w[::-1]) != catseq.reversal(words.rc(w)):
                bad.append(f"rc reversal fails for {w}")
        return count, bad, ""

    def truncation_reading():
        bad = []
        count = 0
        for w in all_words:
            s = words.rc(w)
            n = len(w) + 3
            if catseq.size(s) != n:
                bad.append(f"size(rc({w})) != {n}")
            if catseq.leaves(s) != w.count("1") + 2:
                bad.append(f"leaves(rc({w})) != |w|_1+2")
            for a in "01":
                if catseq.leaves(words.rc(w + a)) != catseq.leaves(s) + int(a):
                    bad.append(f"leaf step fails for {w}+{a}")
            for i in range(3, n + 1):
                count += 1
                lt = catseq.left(s, i)
                rt = catseq.right(s, i)
                if lt != catseq.left_recursive(s, i):
                    bad.append(f"left closed form != recursion for {w}, i={i}")
                if rt != catseq.right_recursive(s, i):
                    bad.append(f"right closed form != recursion for {w}, i={i}")
                if lt != words.rc(w[: i - 3]):
                    bad.append(f"left != rc(pref) for {w}, i={i}")
                if rt != words.rc(w[len(w) - (i - 3) :]):
                    bad.append(f"right != rc(suff) for {w}, i={i}")
                if catseq.leaves(lt) != w[: i - 3].count("1") + 2:
                    bad.append(f"left leaf count fails for {w}, i={i}")
                if catseq.leaves(rt) != w[len(w) - (i - 3) :].count("1") + 2:
                    bad.append(f"right leaf count fails for {w}, i={i}")
                if not catseq.is_subsequence(lt, s) or not catseq.is_subsequence(rt, s):
                    bad.append(f"truncation not below for {w}, i={i}")
                if catseq.left(catseq.reversal(s), i) != catseq.reversal(catseq.right(s, i)):
                    bad.append(f"left/right mirror fails for {w}, i={i}")
        return count, bad, ""

    def decomposition():
        bad = []
        count = 0
        for w in all_words:
            s = words.rc(w)
            for i in range(3, catseq.size(s) + 1):
                count += 1
                lo, hi = catseq.decompose(s, i)
                if catseq.graft(lo, hi) != s:
                    bad.append(f"decomposition fails for {s}, i={i}")
        return count, bad, ""

    return [
        _timed("graft-monoid", max_len, monoid),
        _timed("graft-additivity", pair_len, additivity),
        _timed("rc-morphism", pair_len, rc_morphism),
        _timed("truncation-reading", max_len, truncation_reading),
        _timed("graft-decomposition", max_len, decomposition),
    ]


# ---------------------------------------------------------------------------
# realization round-trips


ROUNDTRIP_MIN_LEN, ROUNDTRIP_MAX_LEN = 0, 12


def suite_roundtrip(max_len: int = 12) -> list[VerifyReport]:
    _check_bound("roundtrip", "max_len", max_len, ROUNDTRIP_MIN_LEN, ROUNDTRIP_MAX_LEN)
    gen_bound = min(max_len, 10)

    def roundtrip_prefix_normal():
        bad = []
        count = 0
        for n in range(max_len + 1):
            for w in words.enumerate_pnw(n):
                count += 1
                lf = catseq.leaf_function_caterpillar(words.rc(w))
                if _word_of_delta(delta_leaf_word(lf)) != w:
                    bad.append(w)
        return count, bad, ""

    def roundtrip_general():
        bad = []
        count = 0
        for w in _all_words(gen_bound):
            count += 1
            lf = catseq.leaf_function_caterpillar(words.rc(w))
            dl = _word_of_delta(delta_leaf_word(lf))
            if dl != words.pnf(w) or not words.is_prefix_normal(dl):
                bad.append(w)
        return count, bad, ""

    return [
        _timed("roundtrip-prefix-normal", max_len, roundtrip_prefix_normal),
        _timed("roundtrip-general", gen_bound, roundtrip_general),
    ]


# ---------------------------------------------------------------------------
# leaf equivalence


LEAF_EQUIVALENCE_MIN_LEN, LEAF_EQUIVALENCE_MAX_LEN = 0, 8


def suite_leaf_equivalence(max_len: int = 8) -> list[VerifyReport]:
    _check_bound("leaf-equivalence", "max_len", max_len,
                 LEAF_EQUIVALENCE_MIN_LEN, LEAF_EQUIVALENCE_MAX_LEN)

    def equivalence():
        bad = []
        count = 0
        for n in range(max_len + 1):
            group = ["".join(bits) for bits in product("01", repeat=n)]
            lfs = {w: catseq.leaf_function_caterpillar(words.rc(w)) for w in group}
            profs = {w: words.f1_profile(w) for w in group}
            for a in range(len(group)):
                for b in range(a + 1, len(group)):
                    w1, w2 = group[a], group[b]
                    count += 1
                    if (lfs[w1] == lfs[w2]) != (profs[w1] == profs[w2]):
                        bad.append(f"{w1} vs {w2}")
        return count, bad, ""

    return [_timed("leaf-equivalence-iff-profile", max_len, equivalence)]


# ---------------------------------------------------------------------------
# tree census

SMALLEST_NON_PN_TREE_WORD = "1101011011"


def _tree_leaf_word(t: Graph) -> str:
    return _word_of_delta(delta_leaf_word(leaf_function_tree(t)))


TREES_MIN_N, TREES_MAX_N = 3, 13


def suite_trees(max_n: int = 12) -> list[VerifyReport]:
    _check_bound("trees", "max_n", max_n, TREES_MIN_N, TREES_MAX_N)
    reports = []

    def all_prefix_normal():
        bad = []
        count = 0
        for n in range(3, min(max_n, 12) + 1):
            for t in enumerate_free_trees(n):
                count += 1
                w = _tree_leaf_word(t)
                if not words.is_prefix_normal(w):
                    bad.append(f"n={n} word={w}")
        return count, bad, ""

    reports.append(_timed("tree-leaf-words-prefix-normal", min(max_n, 12), all_prefix_normal))

    if max_n >= 13:

        def smallest_counterexample():
            found = set()
            count = 0
            for t in enumerate_free_trees(13):
                count += 1
                w = _tree_leaf_word(t)
                if not words.is_prefix_normal(w):
                    found.add(w)
            bad = []
            if found != {SMALLEST_NON_PN_TREE_WORD}:
                bad.append(f"non-prefix-normal words at n=13: {sorted(found)}")
            notes = "counterexample leaf words at n=13: " + ",".join(sorted(found))
            return count, bad, notes

        reports.append(_timed("smallest-non-prefix-normal-tree", 13, smallest_counterexample))

    return reports


# suite name -> runner taking the optional bound; each looks its suite_*
# function up when called, so a wrapper set on that name sees these calls too
_RUNNERS = {
    "poset": lambda *bound: suite_poset(*bound),
    "morphism": lambda *bound: suite_morphism(*bound),
    "roundtrip": lambda *bound: suite_roundtrip(*bound),
    "leaf-equivalence": lambda *bound: suite_leaf_equivalence(*bound),
    "trees": lambda *bound: suite_trees(*bound),
}
SUITES = tuple(_RUNNERS)
# accepted alternate spellings for the suite selector
SUITE_ALIASES = {"theorem53": "roundtrip", "theorem61": "leaf-equivalence"}


def run_suite(name: str, max_n: int | None = None) -> list[VerifyReport]:
    """Run one suite, or all of them at their defaults, and return the reports.

    `max_n` is the bound of a single suite; the suites' bounds differ too much
    for one value to serve them all, so it cannot be given with "all".
    """
    if name == "all":
        if max_n is not None:
            raise ValueError("a bound applies to a single suite, not to 'all'")
        return [r for s in SUITES for r in run_suite(s)]
    runner = _RUNNERS.get(SUITE_ALIASES.get(name, name))
    if runner is None:
        raise ValueError(f"unknown suite {name!r}")
    return runner() if max_n is None else runner(max_n)
