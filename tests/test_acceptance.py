"""End-to-end acceptance checks.

Each test covers one criterion, records a PASS/FAIL line, and pins its
runtime budget where one applies.  The lines are echoed in the terminal
summary (see conftest.py).
"""

import itertools
import math
import random
import time
from collections import defaultdict

from leafcat import catseq as cs
from leafcat import words as wd
from leafcat.cli import main
from leafcat.graph import caterpillar_graph, fk_tree, wheel
from leafcat.leafwords import delta_leaf_word, leaf_function_from_word
from leafcat.subtrees import NEG_INF, leaf_function_bruteforce
from leafcat.verify import run_suite

RESULTS = []

# OEIS A194850: prefix normal words of length n, n = 0..12
PREFIX_NORMAL_WORDS = (1, 2, 3, 5, 8, 14, 23, 41, 70, 125, 218, 395, 697)
# OEIS A000055: free trees with n vertices, n = 0..13
FREE_TREES = (1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301)


def check(name, ok, detail=""):
    RESULTS.append((name, bool(ok), detail))
    line = f"{'PASS' if ok else 'FAIL'} {name}" + (f"  [{detail}]" if detail else "")
    print(line)
    assert ok, line


def word_str(lw):
    return "".join(str(x) for x in lw)


def wheel_formula(n):
    vals = [0, 0, 2]
    for i in range(3, n + 2):
        if i <= n // 2 + 1:
            vals.append(i - 1)
        elif i <= n - 1:
            vals.append(2)
        else:
            vals.append(NEG_INF)
    return tuple(vals)


def test_criterion_wheel_formula():
    t0 = time.perf_counter()
    ok = all(
        leaf_function_bruteforce(wheel(n)).values == wheel_formula(n)
        for n in range(5, 13)
    )
    lf10 = leaf_function_bruteforce(wheel(10))
    ok = ok and lf10.values[7] - lf10.values[6] == -3
    dt = time.perf_counter() - t0
    check("wheel-leaf-function-formula", ok and dt < 10, f"n=5..12, {dt:.1f}s < 10s")


def instances(reports):
    return {r.claim: r.instances for r in reports}


def test_criterion_reading_roundtrip_and_normal_form():
    t0 = time.perf_counter()
    reports = run_suite("roundtrip", 12)
    ok = all(r.passed for r in reports) and instances(reports) == {
        "roundtrip-prefix-normal": sum(PREFIX_NORMAL_WORDS),
        "roundtrip-general": sum(2 ** n for n in range(11)),
    }
    dt = time.perf_counter() - t0
    check("reading-roundtrip-and-normal-form", ok and dt < 60,
          f"normal<=12 exact, all<=10 to normal form, {dt:.1f}s < 60s")


def test_criterion_oracle_equivalence():
    ok = all(
        cs.leaf_function_caterpillar(s)
        == leaf_function_bruteforce(caterpillar_graph(s))
        for s in cs.all_sequences(14)
    )
    rng = random.Random(20260823)
    for _ in range(200):
        w = "".join(rng.choice("01") for _ in range(rng.randint(0, 17)))
        s = wd.rc(w)
        ok = ok and cs.leaf_function_caterpillar(s) == leaf_function_bruteforce(
            caterpillar_graph(s), max_n=20)
    check("caterpillar-oracle-equivalence", ok,
          "sizes<=14 exhaustive + 200 seeded random sizes<=20")


def test_criterion_leaf_equivalence_profile_law():
    t0 = time.perf_counter()
    reports = run_suite("leaf-equivalence", 8)
    ok = all(r.passed for r in reports) and instances(reports) == {
        "leaf-equivalence-iff-profile": sum(math.comb(2 ** n, 2) for n in range(9)),
    }
    dt = time.perf_counter() - t0
    check("leaf-equivalence-profile-law", ok and dt < 120,
          f"pairs of length <= 8, {dt:.1f}s < 120s")


def test_criterion_worked_example():
    w = "00110101100"
    s = wd.rc(w)
    ok = cs.leaf_function_caterpillar(s).values[8] == 5
    ok = ok and cs.left(cs.right(s, 12), 8) == (3, 1, 1)
    check("worked-example-values", ok, "L(8)=5 and left(right(.,12),8)=(3,1,1)")


def test_criterion_tree_census():
    t0 = time.perf_counter()
    reports = run_suite("trees", 13)
    ok = all(r.passed for r in reports) and instances(reports) == {
        "tree-leaf-words-prefix-normal": sum(FREE_TREES[3:13]),
        "smallest-non-prefix-normal-tree": FREE_TREES[13],
    }
    found = reports[-1].notes.removeprefix("counterexample leaf words at n=13: ")
    ok = ok and found.split(",") == ["1101011011"]
    fk1 = word_str(delta_leaf_word(leaf_function_bruteforce(fk_tree(1))))
    ok = ok and fk1 == "1101011011"
    dt = time.perf_counter() - t0
    check("tree-census-smallest-non-normal", ok and dt <= 600,
          f"n<=12 all normal, 1101011011 at n=13, {dt:.0f}s <= 600s")


def test_criterion_fk_family_law():
    ok = True
    for k in (1, 2, 3):
        expected = ("1" * (k + 1) + "0" * k + "1" + "0" * k
                    + "1" * (k + 1) + "0" * k + "1" * (k + 1))
        word = word_str(delta_leaf_word(leaf_function_bruteforce(fk_tree(k), max_n=25)))
        ok = ok and word == expected
        ok = ok and wd.is_k_prefix_normal(word, k)
        ok = ok and not wd.is_k_prefix_normal(word, k - 1)
    check("fk-family-law", ok, "k in {1,2,3}")


def test_criterion_algebra_suites():
    reports = run_suite("poset") + run_suite("morphism")
    ok = all(r.passed for r in reports)
    check("sequence-algebra-suites", ok, f"{len(reports)} claims, zero failures")


def test_criterion_normal_form_uniqueness():
    ok = True
    for n in range(11):
        classes = defaultdict(list)
        for bits in itertools.product("01", repeat=n):
            w = "".join(bits)
            classes[wd.f1_profile(w)].append(w)
        for members in classes.values():
            normal = [w for w in members if wd.is_prefix_normal(w)]
            if len(normal) != 1 or any(wd.pnf(w) != normal[0] for w in members):
                ok = False
    check("normal-form-uniqueness", ok, "every class of length <= 10")


def test_criterion_cli_realization(capsys):
    code = main(["realize", "0,0,2,2,3,4,4,5,5,6"])
    out = capsys.readouterr().out
    seq = cs.parse_sequence(out.strip())
    ok = code == 0 and cs.leaf_function_caterpillar(seq).values == (
        0, 0, 2, 2, 3, 4, 4, 5, 5, 6)

    bad = leaf_function_from_word("1101011011")
    code = main(["realize", ",".join(str(v) for v in bad.values)])
    out = capsys.readouterr().out
    ok = ok and code == 1 and "11010" in out and "11011" in out
    check("cli-realization", ok, "accept with round-trip, reject with witness")
