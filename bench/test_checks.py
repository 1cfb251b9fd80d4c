"""Each correctness check of the benchmark must reject a wrong answer.

Small versions of the workloads run one real round, which must pass; then
one output at a time is replaced by a wrong one, which must be caught.

    PYTHONPATH=src python -m pytest -q bench/test_checks.py
"""

import json
import sys
from types import SimpleNamespace

import pytest

import oracles as ref
import workloads as wl

sys.path.insert(0, str(wl.ROOT / "src"))


def off_by_one(lf):
    values = list(lf.values)
    values[4] += 1
    return SimpleNamespace(values=tuple(values))


def report(claim, instances, passed=True, notes=""):
    return SimpleNamespace(claim=claim, instances=instances, passed=passed, notes=notes)


class SmallGraphs(wl.Graphs):
    WHEELS = range(5, 9)
    FK = (1,)
    STAR_CATERPILLAR_WORD = "11110"
    RANDOM = ((8, 9), (9, 20))
    QUERY_WHEEL = 7
    WITNESS_SIZES = (3, 4)
    ENUM_SIZE = 4


class SmallAlgebra(wl.Algebra):
    SUITES = (("poset", 5), ("morphism", 4), ("roundtrip", 6), ("leaf-equivalence", 4))
    WORD_LEN = 30
    WORDS_EACH = 2
    ROUNDTRIPS = 5
    HASSE_SIZE = 6


def one_round(cls):
    w = cls(seed=7)
    w.setup()
    w.prepare(0)
    results = w.run_round(0)
    assert not any(isinstance(v, wl.Failed) for v in results.values())
    assert w.check_round(0, results) == []
    return w, results


def test_oracle_matches_wheel_closed_form():
    for n in range(5, 10):
        values, _ = ref.naive_subtrees(n + 1, ref.wheel_edges(n))
        assert values == ref.wheel_leaf_function(n)


def test_tree_check_rejects_off_by_one():
    star = [(0, 1), (0, 2), (0, 3)]
    assert wl.check_tree_leaf_function(4, star, (0, 0, 2, 2, 3)) == []
    assert wl.check_tree_leaf_function(4, star, (0, 0, 2, 2, 2)) != []


def test_census_reports_check():
    good = [report("tree-leaf-words-prefix-normal", 985),
            report("smallest-non-prefix-normal-tree", 1301,
                   notes="counterexample leaf words at n=13: 1101011011")]
    assert wl.check_census_reports(good) == []
    assert wl.check_census_reports([good[0], report(good[1].claim, 1300, notes=good[1].notes)])
    assert wl.check_census_reports([good[0], report(
        good[1].claim, 1301, notes="counterexample leaf words at n=13: 1101011011,1101101011")])
    assert wl.check_census_reports([report(good[0].claim, 985, passed=False), good[1]])


def test_graphs_checks_reject_wrong_answers():
    w, results = one_round(SmallGraphs)

    def rejected(key, value):
        return w.check_round(0, {**results, key: value}) != []

    assert rejected(("lf", "wheel-6"), off_by_one(results[("lf", "wheel-6")]))
    assert rejected(("lf", "fk-1"), off_by_one(results[("lf", "fk-1")]))
    assert rejected(("lf", "random-0"), off_by_one(results[("lf", "random-0")]))
    assert rejected(("lf", "caterpillar"), off_by_one(results[("lf", "caterpillar")]))
    g = w.round_graphs[0]["wheel-7"]
    triangle = next((u, v, x) for u, v in sorted(g.edges) for x in range(g.n)
                    if x not in (u, v) and tuple(sorted((u, x))) in g.edges
                    and tuple(sorted((v, x))) in g.edges)
    assert rejected(("witness", "wheel-7", 3), tuple(sorted(triangle)))
    trees = results[("enum", "random-1")]
    assert rejected(("enum", "random-1"), trees[1:])
    assert rejected(("enum", "random-1"), trees + trees[:1])


def test_witness_check():
    edges = sorted((min(e), max(e)) for e in ref.wheel_edges(5))
    assert wl.check_witness(6, edges, 3, (0, 2, 5), 2) == []
    assert wl.check_witness(6, edges, 3, (0, 1, 5), 2) != []  # a triangle
    assert wl.check_witness(6, edges, 3, (0, 2), 2) != []  # wrong size
    assert wl.check_witness(6, edges, 6, None, None) == []


def test_algebra_checks_reject_wrong_answers():
    w, results = one_round(SmallAlgebra)

    def rejected(key, value):
        return w.check_round(0, {**results, key: value}) != []

    prof = results[("f1", 0)]
    assert rejected(("f1", 0), prof[:-1] + (prof[-1] + 1,))
    assert rejected(("pnf", 2), results[("pnf", 2)][::-1])  # a non-prefix-normal word
    assert rejected(("pnv", 2), None)
    assert rejected(("pnv", 0), ("1", "1"))
    witness = results[("realize", 2)].witness
    assert rejected(("realize", 2), SimpleNamespace(reason="not-prefix-normal",
                                                    witness=(witness[1], witness[0])))
    seq = results[("realize", 0)]
    assert rejected(("realize", 0), seq[:-1] + (seq[-1] + 1,))
    s, u = results[("roundtrip", 0)]
    assert rejected(("roundtrip", 0), (s + (1,), u))
    covers = results[("hasse",)]
    assert rejected(("hasse",), set(list(covers)[1:]))
    reports = results[("suite", "poset")]
    assert rejected(("suite", "poset"), [report(r.claim, r.instances + 1) for r in reports])


def test_cli_commands_match_the_program(tmp_path, monkeypatch, capsys):
    from leafcat.cli import main

    monkeypatch.setattr(wl, "OUT_DIR", tmp_path)
    w = wl.Cli(seed=3)
    w.setup()
    wrong = []
    for cmd in w.commands:
        code = main(cmd.argv)
        if cmd.check(code, capsys.readouterr().out):
            wrong.append(cmd.argv)
    # the one known fault: a repeated edge line is accepted
    assert wrong == [["leaf-function", str(tmp_path / "duplicate-edge.txt")]]


def test_cli_check_rejects_wrong_output():
    cmd = wl.Command(["rc", "110101"], 0, "3,1,2")
    assert cmd.check(0, "3,1,2\n") is None
    assert cmd.check(0, "3,1,3\n") is not None
    assert cmd.check(2, "") is not None
    line = wl.verify_line("poset-reflexivity", 5, 15)
    assert line("PASS poset-reflexivity bound=5 instances=15 failures=0 time=0.00s\n")
    assert not line("PASS poset-reflexivity bound=5 instances=14 failures=0 time=0.00s\n")


def test_tracer_counts_and_restores():
    from leafcat import catseq, leafwords, words
    from tracer import Tracer

    original = words.rc
    tracer = Tracer().install()
    try:
        assert leafwords.rc is words.rc is not original
        catseq.leaf_function_caterpillar(words.rc("0110"))
        list(words.enumerate_pnw(3))
    finally:
        tracer.uninstall()
    assert words.rc is original and leafwords.rc is original
    assert tracer.calls["words.rc"] == 1 and tracer.calls["words.f1_profile"] == 1
    assert tracer.yielded["words.enumerate_pnw"] == ref.PREFIX_NORMAL_WORDS[3]
    assert all(s >= 0 for s in tracer.self_s.values())


@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_benchmark_json_lists_the_reported_metrics(section):
    import run

    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    reported = run.END_TO_END if section == "end_to_end" else run.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec[section]} == reported
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
