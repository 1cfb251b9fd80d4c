"""Exhaustive verification suites over small instances.

Each claim sweeps every instance up to its bound and records the failures;
a claim passes iff it records none.
"""

from __future__ import annotations

import time
from itertools import chain, combinations, groupby, product

from . import catseq, words
from .bounds import SUITE_ALIASES, SUITE_BOUNDS, Record, check_range
from .leafwords import delta_leaf_word, format_leaf_word
from .subtrees import _free_trees


class VerifyReport(Record):
    """One claim's outcome: its bound, instance count, failures and time."""

    _fields = ("claim", "bound", "instances", "failures", "seconds", "notes")

    def __init__(self, claim: str, bound: int, instances: int, failures=(), seconds: float = 0.0,
                 notes: str = ""):
        super().__init__(claim=claim, bound=bound, instances=instances, failures=tuple(failures),
                         seconds=seconds, notes=notes)

    def to_dict(self) -> dict:
        return {**{f: getattr(self, f) for f in self._fields}, "failures": list(self.failures)}

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


def _claim(claim: str, bound: int, cases, law) -> VerifyReport:
    """Check one law on every case, an argument tuple for `law`.

    Each case is one instance; the failures are the texts `law(*case)`
    returns or yields, in case order.
    """
    start = time.perf_counter()
    instances, failures = 0, []
    for instances, case in enumerate(cases, 1):
        failures.extend(law(*case))
    return VerifyReport(claim, bound, instances, failures, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# poset


def suite_poset(max_size: int = 7) -> list[VerifyReport]:
    check_range("max_size", max_size, *SUITE_BOUNDS["poset"])
    seqs = catseq.all_sequences(max_size)
    idx = range(len(seqs))
    le = {(i, j) for i in idx for j in idx if catseq.is_subsequence(seqs[i], seqs[j])}

    def reflexive(i):
        if (i, i) not in le:
            yield catseq.format_sequence(seqs[i])

    def antisymmetric(i, j):
        if (i, j) in le and (j, i) in le:
            yield f"{seqs[i]} <-> {seqs[j]}"

    def transitive(i, j, k):
        if (i, k) not in le:
            yield f"{seqs[i]} <= {seqs[j]} <= {seqs[k]}"

    chains = ((i, j, k) for i in idx for j in idx if (i, j) in le for k in idx if (j, k) in le)
    return [
        _claim("poset-reflexivity", max_size, zip(idx), reflexive),
        _claim("poset-antisymmetry", max_size,
               ((i, j) for i in idx for j in idx if i != j), antisymmetric),
        _claim("poset-transitivity", max_size, chains, transitive),
    ]


# ---------------------------------------------------------------------------
# morphism / algebra


def suite_morphism(max_len: int = 8) -> list[VerifyReport]:
    check_range("max_len", max_len, *SUITE_BOUNDS["morphism"])
    pair_len = min(max_len, 6)
    pair_words = list(words._binary_words(pair_len))
    all_words = list(words._binary_words(max_len))
    triple_words = list(words._binary_words(4))
    # rc, size, leaves and reversal of every word the laws below read, and the
    # graft of each pair of triple words; rc(u + v), rc(w + a) and what is
    # applied to a graft are themselves laws, so those stay calls
    rc = {w: words.rc(w) for w in all_words + triple_words}
    sz = {w: catseq.size(s) for w, s in rc.items()}
    lv = {w: catseq.leaves(s) for w, s in rc.items()}
    rev = {w: catseq.reversal(s) for w, s in rc.items()}
    gp = {(u, v): catseq.graft(rc[u], rc[v]) for u, v in product(triple_words, repeat=2)}

    def monoid(u, v=None, x=None):
        """The identity law on one word's sequence, associativity on three."""
        a = rc[u]
        if v is None:  # rc("") is (2), the identity
            if catseq.graft(a, rc[""]) != a or catseq.graft(rc[""], a) != a:
                yield f"identity fails for {a}"
        elif catseq.graft(gp[u, v], rc[x]) != catseq.graft(a, gp[v, x]):
            yield f"associativity fails for {a},{rc[v]},{rc[x]}"

    def additive(u, v):
        a, b = rc[u], rc[v]
        g = catseq.graft(a, b)
        if catseq.size(g) != sz[u] + sz[v] - 3:
            yield f"size additivity fails for {a},{b}"
        if catseq.leaves(g) != lv[u] + lv[v] - 2:
            yield f"leaf additivity fails for {a},{b}"
        if catseq.reversal(g) != catseq.graft(rev[v], rev[u]):
            yield f"reversal law fails for {a},{b}"
        if not (catseq.is_subsequence(a, g) and catseq.is_subsequence(b, g)):
            yield f"factors not below graft for {a},{b}"

    def morphism(u, v=None):
        """rc turns concatenation into graft, and reversal into reversal."""
        if v is not None:
            if words.rc(u + v) != catseq.graft(rc[u], rc[v]):
                yield f"rc({u}+{v}) != graft"
        elif rc[u[::-1]] != rev[u]:
            yield f"rc reversal fails for {u}"

    def reading(w, i):
        s = rc[w]
        if i == 3:  # the laws on the whole of w, once per word
            n = len(w) + 3
            if sz[w] != n:
                yield f"size(rc({w})) != {n}"
            if lv[w] != w.count("1") + 2:
                yield f"leaves(rc({w})) != |w|_1+2"
            for a in "01":
                if catseq.leaves(words.rc(w + a)) != lv[w] + int(a):
                    yield f"leaf step fails for {w}+{a}"
        pre, suf = w[: i - 3], w[len(w) - (i - 3) :]
        lt, rt = catseq.left(s, i), catseq.right(s, i)
        if lt != catseq.left_recursive(s, i):
            yield f"left closed form != recursion for {w}, i={i}"
        if rt != catseq.right_recursive(s, i):
            yield f"right closed form != recursion for {w}, i={i}"
        if lt != rc[pre]:
            yield f"left != rc(pref) for {w}, i={i}"
        if rt != rc[suf]:
            yield f"right != rc(suff) for {w}, i={i}"
        if catseq.leaves(lt) != pre.count("1") + 2:
            yield f"left leaf count fails for {w}, i={i}"
        if catseq.leaves(rt) != suf.count("1") + 2:
            yield f"right leaf count fails for {w}, i={i}"
        if not catseq.is_subsequence(lt, s) or not catseq.is_subsequence(rt, s):
            yield f"truncation not below for {w}, i={i}"
        if catseq.left(rev[w], i) != catseq.reversal(catseq.right(s, i)):
            yield f"left/right mirror fails for {w}, i={i}"

    def decomposes(s, i):
        lo, hi = catseq.decompose(s, i)
        if catseq.graft(lo, hi) != s:
            yield f"decomposition fails for {s}, i={i}"

    return [
        _claim("graft-monoid", max_len,
               chain(zip(all_words), product(triple_words, repeat=3)), monoid),
        _claim("graft-additivity", pair_len, product(pair_words, repeat=2), additive),
        _claim("rc-morphism", pair_len,
               chain(product(pair_words, repeat=2), zip(all_words)), morphism),
        _claim("truncation-reading", max_len,
               ((w, i) for w in all_words for i in range(3, len(w) + 4)), reading),
        _claim("graft-decomposition", max_len,
               ((rc[w], i) for w in all_words for i in range(3, sz[w] + 1)), decomposes),
    ]


# ---------------------------------------------------------------------------
# realization round-trips


def suite_roundtrip(max_len: int = 12) -> list[VerifyReport]:
    check_range("max_len", max_len, *SUITE_BOUNDS["roundtrip"])
    gen_bound = min(max_len, 10)

    def read_back(w):
        if format_leaf_word(delta_leaf_word(catseq.leaf_function_caterpillar(words.rc(w)))) != w:
            yield w

    def to_normal_form(w):
        dl = format_leaf_word(delta_leaf_word(catseq.leaf_function_caterpillar(words.rc(w))))
        if dl != words.pnf(w) or not words.is_prefix_normal(dl):
            yield w

    normal = (w for n in range(max_len + 1) for w in words.enumerate_pnw(n))
    return [
        _claim("roundtrip-prefix-normal", max_len, zip(normal), read_back),
        _claim("roundtrip-general", gen_bound, zip(words._binary_words(gen_bound)), to_normal_form),
    ]


# ---------------------------------------------------------------------------
# leaf equivalence


def suite_leaf_equivalence(max_len: int = 8) -> list[VerifyReport]:
    check_range("max_len", max_len, *SUITE_BOUNDS["leaf-equivalence"])
    all_words = list(words._binary_words(max_len))
    lfs = {w: catseq.leaf_function_caterpillar(words.rc(w)) for w in all_words}
    profs = {w: words.f1_profile(w) for w in all_words}

    def iff(w1, w2):
        if (lfs[w1] == lfs[w2]) != (profs[w1] == profs[w2]):
            yield f"{w1} vs {w2}"

    # pairs of words of one length; words of different lengths never compare
    pairs = (p for _, group in groupby(all_words, len) for p in combinations(group, 2))
    return [_claim("leaf-equivalence-iff-profile", max_len, pairs, iff)]


# ---------------------------------------------------------------------------
# tree census

SMALLEST_NON_PN_TREE_WORD = "1101011011"


def suite_trees(max_n: int = 12) -> list[VerifyReport]:
    check_range("max_n", max_n, *SUITE_BOUNDS["trees"])
    # the free-tree search hands over each tree's levels and bare values, never
    # -inf on a tree.  Each distinct values' leaf word is decided once: the
    # verdict, () or the failure's text, serves every tree that has them.  A
    # word with a letter other than 0 or 1 is no binary word and fails
    verdicts = {}

    def normal(levels, values):
        verdict = verdicts.get(values)
        if verdict is None:
            lw = [values[i + 4] - values[i + 3] for i in range(len(levels) - 3)]
            binary = {0, 1}.issuperset(lw)
            w = "".join(["01"[letter] for letter in lw]) if binary else ",".join(map(str, lw))
            ok = binary and words.is_prefix_normal(w)
            verdict = verdicts[values] = () if ok else (f"n={len(levels)} word={w}",)
        return verdict

    trees = (tree for n in range(3, min(max_n, 12) + 1) for tree in _free_trees(n))
    reports = [_claim("tree-leaf-words-prefix-normal", min(max_n, 12), trees, normal)]
    if max_n >= 13:
        scan = _claim("smallest-non-prefix-normal-tree", 13, _free_trees(13), normal)
        found = sorted({f.removeprefix("n=13 word=") for f in scan.failures})
        failures = ([] if found == [SMALLEST_NON_PN_TREE_WORD]
                    else [f"non-prefix-normal words at n=13: {found}"])
        reports.append(VerifyReport(scan.claim, scan.bound, scan.instances, failures, scan.seconds,
                                    "counterexample leaf words at n=13: " + ",".join(found)))
    return reports


SUITES = tuple(SUITE_BOUNDS)


def run_suite(name: str, max_n: int | None = None) -> list[VerifyReport]:
    """Run one suite, or all of them at their defaults, and return the reports.

    `max_n` is the bound of a single suite; the suites' bounds differ too much
    for one value to serve them all, so it cannot be given with "all".
    """
    if name == "all":
        if max_n is not None:
            raise ValueError("a bound applies to a single suite, not to 'all'")
        return [r for s in SUITES for r in run_suite(s)]
    name = SUITE_ALIASES.get(name, name)
    if name not in SUITE_BOUNDS:
        raise ValueError(f"unknown suite {name!r}")
    # looked up when called, so a wrapper set on a suite_* name sees this call
    suite = globals()[f"suite_{name.replace('-', '_')}"]
    if max_n is None:
        return suite()
    check_range("max_n", max_n, *SUITE_BOUNDS[name])
    return suite(max_n)
