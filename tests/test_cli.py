import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import leafcat
from leafcat import bounds, catseq, graph, verify, words
from leafcat.bounds import BRUTEFORCE_MAX_N, DEFAULT_MAX_N
from leafcat.cli import main
from leafcat.graph import read_edge_list, wheel, write_edge_list


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_roundtrip(capsys):
    code, out, err = run(capsys, "generate", "--family", "wheel", "--param", "10")
    assert code == 0 and err == ""
    assert read_edge_list(out) == wheel(10)


def test_generate_caterpillar(capsys):
    code, out, _ = run(capsys, "generate", "--family", "caterpillar", "--param", "3,1,2")
    assert code == 0
    g = read_edge_list(out)
    assert g.n == 9


def test_generate_dot(capsys):
    code, out, _ = run(capsys, "generate", "--family", "chain", "--param", "3",
                       "--dot", "--highlight", "0,2")
    assert code == 0
    assert "0 [color=blue];" in out and "2 [color=blue];" in out


def test_generate_json(capsys):
    code, out, err = run(capsys, "--json", "generate", "--family", "wheel", "--param", "10")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data == {"n": 11, "edges": [list(e) for e in wheel(10).sorted_edges()]}
    assert write_edge_list(graph.Graph(data["n"], {tuple(e) for e in data["edges"]})) == \
        run(capsys, "generate", "--family", "wheel", "--param", "10")[1]
    argv = ["generate", "--family", "chain", "--param", "3", "--dot", "--highlight", "0,2"]
    code, out, err = run(capsys, "--json", *argv)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"dot": run(capsys, *argv)[1]}


def test_generate_dot_rejects_bad_highlight(capsys):
    for highlight, message in (("0,3", "vertex=3 outside 0..2"), ("-1", "vertex=-1 outside 0..2"),
                               ("0,x", "vertex='x' is not an integer"),
                               ("0,,1", "vertex='' is not an integer")):
        code, out, err = run(capsys, "generate", "--family", "chain", "--param", "3",
                             "--dot", "--highlight", highlight)
        assert code == 2 and out == ""
        assert message in err


def test_generate_highlight_needs_dot(capsys):
    for highlight in ("0", "7"):
        code, out, err = run(capsys, "generate", "--family", "chain", "--param", "3",
                             "--highlight", highlight)
        assert code == 2 and out == ""
        assert "--highlight needs --dot" in err


@pytest.mark.parametrize("argv, message", [
    (["generate", "--family", "chain", "--param", "x"], "--param='x' is not an integer"),
    (["leaf-word", "--family", "star", "--param", "2.5"], "--param='2.5' is not an integer"),
    (["realize", "0,0,x"], "L(2)='x' is not an integer"),
    (["realize", "0,,1"], "L(1)='' is not an integer"),
    (["leaf-function", "--family", "wheel"], "--family requires --param"),
], ids=["generate-param", "leaf-word-param", "realize-entry", "realize-empty-entry",
        "family-without-param"])
def test_non_integer_argument_exits_2(capsys, argv, message):
    # a message meant for users, naming the flag or entry and its value, not
    # Python's own int() message
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_leaf_function_wheel(capsys):
    code, out, err = run(capsys, "leaf-function", "--family", "wheel", "--param", "10")
    assert code == 0 and err == ""
    assert out.strip().endswith("10 -> -inf, 11 -> -inf")


def test_leaf_function_caterpillar_json(capsys):
    code, out, _ = run(capsys, "--json", "leaf-function", "--caterpillar", "3,1,2")
    assert code == 0
    data = json.loads(out)
    assert data == {"n": 9, "values": [0, 0, 2, 2, 3, 4, 4, 5, 5, 6]}


def test_leaf_function_trivial_caterpillar(capsys):
    code, out, _ = run(capsys, "--json", "leaf-function", "--caterpillar", "2")
    assert json.loads(out)["values"] == [0, 0, 2, 2]


def test_leaf_function_from_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(write_edge_list(wheel(4)))
    code, out, _ = run(capsys, "--json", "leaf-function", str(path))
    assert code == 0
    assert json.loads(out)["values"] == [0, 0, 2, 2, "-inf", "-inf"]


def test_leaf_word_wheel(capsys):
    code, out, _ = run(capsys, "leaf-word", "--family", "wheel", "--param", "10")
    assert code == 0
    assert out.strip() == "1,1,1,-3,0,0,w,w"


def test_tree_past_brute_force_bound(capsys):
    # a tree goes through the tree DP, which --max-n does not bound
    code, out, err = run(capsys, "leaf-function", "--family", "chain", "--param", "30")
    assert code == 0 and err == ""
    assert out.strip() == ", ".join(f"{i} -> {0 if i < 2 else 2}" for i in range(31))
    code, out, err = run(capsys, "leaf-function", "--family", "wheel", "--param", "20")
    assert code == 2 and out == ""
    assert err == "error: n=21 outside 0..20\n"


def test_brute_force_bound_past_its_ceiling(capsys):
    code, out, err = run(capsys, "leaf-function", "--family", "wheel", "--param", "5",
                         "--max-n", "1000")
    assert (code, out, err) == (2, "", f"error: max_n=1000 outside 0..{BRUTEFORCE_MAX_N}\n")


def test_empty_caterpillar_exits_2(capsys):
    # an empty sequence is a bad caterpillar, reported as one, not a traceback
    for command in ("leaf-function", "leaf-word"):
        assert run(capsys, command, "--caterpillar", "") == (
            2, "", "error: bad caterpillar sequence: ''\n")


def test_tree_output_matches_brute_force(tmp_path, capsys, monkeypatch):
    path = tmp_path / "tree.txt"
    path.write_text("7 6\n0 1\n1 2\n1 3\n3 4\n4 5\n4 6\n")
    inputs = [["--family", "fk", "--param", "1"], ["--family", "star", "--param", "5"],
              ["--family", "caterpillar", "--param", "3,0,2,4,0,1"], [str(path)]]
    commands = [[*flag, command, *given] for given in inputs
                for command in ("leaf-function", "leaf-word") for flag in ([], ["--json"])]
    via_dp = [run(capsys, *argv) for argv in commands]
    monkeypatch.setattr("leafcat.graph.is_tree", lambda g: False)
    assert via_dp == [run(capsys, *argv) for argv in commands]
    assert all(code == 0 and out and err == "" for code, out, err in via_dp)


def test_rc_and_word_of_roundtrip(capsys):
    code, out, _ = run(capsys, "rc", "110101")
    assert code == 0 and out.strip() == "3,1,2"
    code, out, _ = run(capsys, "word-of", "3,1,2")
    assert code == 0 and out.strip() == "110101"


def test_rc_empty(capsys):
    # the empty word is given as an empty argument
    assert run(capsys, "rc", "") == (0, "2\n", "")
    assert run(capsys, "pnf", "") == (0, "\n", "")
    assert run(capsys, "check-pn", "") == (0, "prefix normal\n", "")


def test_pnf(capsys):
    code, out, _ = run(capsys, "pnf", "00110101100")
    assert code == 0 and out.strip() == "11010110000"


def test_check_pn_pass(capsys):
    code, out, err = run(capsys, "check-pn", "110101")
    assert code == 0 and err == ""


def test_check_pn_fail_cites_witness(capsys):
    code, out, _ = run(capsys, "check-pn", "1101011011")
    assert code == 1
    assert "11010" in out and "11011" in out


def test_check_pn_k(capsys):
    code, _, _ = run(capsys, "check-pn", "1101011011", "--k", "1")
    assert code == 0
    code, _, _ = run(capsys, "check-pn", "1110010011100111", "--k", "1")
    assert code == 1


def test_equiv(capsys):
    assert run(capsys, "equiv", "01", "10")[0] == 0
    assert run(capsys, "equiv", "01", "11")[0] == 1


def test_equiv_rejects_a_non_binary_word(capsys):
    code, out, err = run(capsys, "equiv", "01", "0x2")
    assert (code, out, err) == (2, "", "error: not a binary word: '0x2'\n")


def test_realize_accepts(capsys):
    code, out, _ = run(capsys, "realize", "0,0,2,2,3,4,4,5,5,6")
    assert code == 0 and out.strip() == "3,1,2"


def test_realize_rejects_with_witness(capsys):
    values = "0,0,2,2,3,4,4,5,5,6,7,7,8,9"  # induced by 1101011011
    code, out, _ = run(capsys, "realize", values)
    assert code == 1
    assert "not-prefix-normal" in out and "11010" in out and "11011" in out


def test_realize_json(capsys):
    code, out, _ = run(capsys, "--json", "realize", "0,0,2,2,3,4,4,5,5,6")
    assert code == 0
    assert json.loads(out) == {"realizable": True, "sequence": "3,1,2"}
    # a vector that is no leaf function is rejected in JSON too
    assert run(capsys, "realize", "0,1") == (1, "rejected: L(1) must be 0\n", "")
    code, out, err = run(capsys, "--json", "realize", "0,1")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"realizable": False, "reason": "not-a-leaf-function",
                               "witness": None}


def test_poset(capsys):
    code, out, _ = run(capsys, "poset", "--max-size", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert "1,1 < 1,2" in lines and "3 < 2,1" in lines


def test_poset_dot(capsys):
    code, out, _ = run(capsys, "poset", "--max-size", "5", "--dot")
    assert code == 0 and out.startswith("digraph hasse {")


def test_poset_json(capsys):
    code, out, err = run(capsys, "--json", "poset", "--max-size", "6")
    assert (code, err) == (0, "")
    covers = json.loads(out)
    text = run(capsys, "poset", "--max-size", "6")[1]
    assert text == "".join(f"{lo} < {hi}\n" for lo, hi in covers)
    assert ["1,1", "1,2"] in covers and len(covers) == len(catseq.hasse_covers(6))
    # no covers: no text line, and one empty JSON list
    assert run(capsys, "poset", "--max-size", "3") == (0, "", "")
    assert run(capsys, "--json", "poset", "--max-size", "3") == (0, "[]\n", "")
    code, out, _ = run(capsys, "--json", "poset", "--max-size", "5", "--dot")
    assert code == 0 and json.loads(out) == {"dot": catseq.hasse_dot(5)}


def test_poset_rejects_a_negative_size(capsys):
    code, out, err = run(capsys, "poset", "--max-size", "-3")
    assert (code, out) == (2, "")
    assert err == "error: max_size=-3 outside 0..12\n"


def test_verify_roundtrip_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "roundtrip", "--max-n", "8")
    assert code == 0 and err == ""
    assert "FAIL" not in out
    # the alternate spelling selects the same suite; the wall-clock time=
    # field differs between any two runs, so it is left out of the comparison
    code, out2, _ = run(capsys, "verify", "--suite", "theorem53", "--max-n", "8")

    def untimed(text):
        return re.sub(r"time=\d+\.\d\ds", "time=", text)

    assert code == 0 and untimed(out2) == untimed(out)
    assert untimed(out) != out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "--json", "verify", "--suite", "poset", "--max-n", "6")
    assert code == 0
    reports = json.loads(out)
    assert all(r["failures"] == [] for r in reports)
    assert {r["claim"] for r in reports} == {
        "poset-reflexivity", "poset-antisymmetry", "poset-transitivity"}


def test_usage_errors_exit_2(capsys, no_work):
    assert run(capsys, "rc", "012")[0] == 2
    for command in ("rc", "pnf", "check-pn"):  # the word is required
        code, out, err = run(capsys, command)
        assert (code, out) == (2, "") and "the following arguments are required: word" in err
    assert run(capsys, "leaf-function")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "leaf-function", "/nonexistent/path")[0] == 2
    # a graph command takes exactly one graph input, and --param only with
    # --family; its usage line shows the three inputs as one required choice
    for command in ("leaf-function", "leaf-word"):
        usage = (f"usage: leafcat {command} [-h] (graph_file | --caterpillar CATERPILLAR | "
                 "--family {wheel,star,chain,fk,caterpillar}) [--param PARAM] [--max-n MAX_N]\n")
        for inputs in (["p3.txt", "--caterpillar", "3,0,2"],
                       ["p3.txt", "--family", "wheel", "--param", "5"],
                       ["--caterpillar", "3,0,2", "--family", "wheel", "--param", "5"]):
            code, out, err = run(capsys, command, *inputs)
            assert (code, out) == (2, "") and "not allowed with argument" in err
            assert err.startswith(usage)
        code, out, err = run(capsys, command, "--param", "5")
        assert (code, out) == (2, "") and "one of the arguments" in err
        for inputs in (["p3.txt"], ["--caterpillar", "3,0,2"]):
            assert run(capsys, command, *inputs, "--param", "5") == (
                2, "", "error: --param requires --family\n")


def test_malformed_edge_list_exits_2(tmp_path, capsys):
    path = tmp_path / "g.txt"
    for text in ("3 1\n0 1 2\n", "3 1\n0 x\n", "3\n"):
        path.write_text(text)
        code, out, err = run(capsys, "leaf-function", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "line" in err


def test_verify_all_rejects_bound(capsys):
    code, out, err = run(capsys, "verify", "--suite", "all", "--max-n", "5")
    assert code == 2 and out == ""
    assert "'all'" in err


def test_verify_rejects_bound_outside_suite_range(capsys):
    for suite, bound in (("poset", "-1"), ("trees", "2"), ("leaf-equivalence", "9"),
                         ("roundtrip", "13")):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max-n", bound)
        low, high = verify.SUITE_BOUNDS[suite]
        assert code == 2 and out == ""
        assert err == f"error: max_n={bound} outside {low}..{high}\n"


def _checkout_env():
    """The environment of a child interpreter that imports this leafcat."""
    src = str(Path(leafcat.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


# what a cold `leafcat rc` never loads: the word commands need neither
# leafwords nor json, and no module of the program needs dataclasses,
# inspect (which dataclasses imports) or networkx
NOT_LOADED_BY_RC = ("networkx", "dataclasses", "inspect", "json", "leafcat.leafwords")


def test_cold_start_leaves_networkx_unloaded():
    # the program never imports networkx, not even to enumerate free trees
    script = (
        "import sys\n"
        "import leafcat\n"
        "assert not [m for m in sys.modules if m.startswith('leafcat.')], 'package'\n"
        "import leafcat.cli\n"
        "assert 'networkx' not in sys.modules, 'import'\n"
        "leafcat.cli.main(['rc', '0101'])\n"
        f"loaded = [m for m in {NOT_LOADED_BY_RC!r} if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "leafcat.cli.main(['--json', 'rc', '0101'])\n"
        "leafcat.cli.main(['verify', '--suite', 'poset', '--max-n', '3'])\n"
        "from leafcat.subtrees import enumerate_free_trees\n"
        "assert len(list(enumerate_free_trees(4))) == 2\n"
        "assert 'networkx' not in sys.modules, 'free trees'\n"
    )
    env = _checkout_env()
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # the outputs of the commands run after the lazy imports
    assert re.sub(r"time=\d+\.\d\ds", "time=", proc.stdout) == (
        "1,1,2\n"
        '{"sequence": "1,1,2"}\n'
        "PASS poset-reflexivity bound=3 instances=1 failures=0 time=\n"
        "PASS poset-antisymmetry bound=3 instances=0 failures=0 time=\n"
        "PASS poset-transitivity bound=3 instances=1 failures=0 time=\n")


WORD_MODULES = {"cli", "bounds", "words", "catseq"}


# README's cold-start table: commands, and the modules of leafcat they load
@pytest.mark.parametrize("commands, modules", [
    ([["rc", "0101"], ["pnf", "0101"], ["word-of", "1,1,2"], ["check-pn", "1010"],
      ["poset", "--max-size", "3"], ["--help"]], WORD_MODULES),
    ([["generate", "--help"], ["leaf-function", "--help"], ["verify", "--help"]], WORD_MODULES),
    ([["equiv", "01", "10"], ["realize", "0,0,2,2"]], WORD_MODULES | {"leafwords"}),
    ([["leaf-function", "--caterpillar", "3,1,2"]], WORD_MODULES),
    ([["leaf-word", "--caterpillar", "3,1,2"]], WORD_MODULES | {"leafwords"}),
    ([["generate", "--family", "chain", "--param", "3"]], WORD_MODULES | {"graph"}),
    ([["leaf-function", "--family", "chain", "--param", "3"]],
     WORD_MODULES | {"graph", "subtrees"}),
    ([["leaf-word", "--family", "chain", "--param", "4"]],
     WORD_MODULES | {"graph", "subtrees", "leafwords"}),
    ([["verify", "--suite", "poset", "--max-n", "3"]],
     WORD_MODULES | {"subtrees", "leafwords", "verify"}),
], ids=["word-commands", "command-help", "equiv-realize", "leaf-function-caterpillar",
        "leaf-word-caterpillar", "generate", "leaf-function", "leaf-word", "verify"])
def test_cold_start_table(commands, modules):
    script = (
        "import contextlib, io, sys\n"
        "import leafcat.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [leafcat.cli.main(argv) for argv in {commands!r}]\n"
        "print(codes, sorted(m for m in sys.modules if m.startswith('leafcat.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=_checkout_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    expected = sorted(f"leafcat.{m}" for m in modules)
    assert proc.stdout == f"{[0] * len(commands)} {expected}\n"


def test_python_m_leafcat():
    env = _checkout_env()
    proc = subprocess.run([sys.executable, "-m", "leafcat", "rc", "0101"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1,1,2\n", "")
    proc = subprocess.run([sys.executable, "-m", "leafcat", "poset", "--max-size", "13"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "outside 0..12" in proc.stderr


def test_help_prints_the_caps(capsys, monkeypatch):
    # wide enough that argparse wraps no help line, hyphenated names included
    monkeypatch.setenv("COLUMNS", "1000")

    def help_text(*argv):
        code, out, err = run(capsys, *argv, "--help")
        assert (code, err) == (0, "")
        return out

    suites = help_text("verify")
    for suite, (low, high) in bounds.SUITE_BOUNDS.items():
        assert f"{suite} {low}..{high}" in suites
    assert "{all," + ",".join([*bounds.SUITE_BOUNDS, *bounds.SUITE_ALIASES]) + "}" in suites
    params = (f"wheel 3..{bounds.WHEEL_MAX_N}, star 0..{bounds.STAR_MAX_M}, "
              f"chain 1..{bounds.CHAIN_MAX_N}, fk 1..{bounds.FK_MAX_K}, or a caterpillar "
              f"sequence of size 3..{bounds.GRAPH_MAX_N}")
    assert params in help_text("generate")
    for command in ("leaf-function", "leaf-word"):
        out = help_text(command)
        assert params in out
        assert f"brute-force bound 0..{BRUTEFORCE_MAX_N} " in out
        assert f"(default {DEFAULT_MAX_N})" in out
        assert f"caterpillar sequence of size 3..{bounds.WORD_MAX_LEN + 3}," in out
    assert f"largest sequence size, 0..{bounds.HASSE_MAX_SIZE} (default 6)" in help_text("poset")
    word = f"binary word of at most {bounds.WORD_MAX_LEN} letters"
    for command in ("rc", "pnf", "check-pn", "equiv"):
        assert word in help_text(command)
    assert f"for k in 0..{bounds.K_MAX} " in help_text("check-pn")
    assert f"caterpillar sequence of size 3..{bounds.WORD_MAX_LEN + 3}" in help_text("word-of")


def test_python_m_leafcat_cli():
    proc = subprocess.run([sys.executable, "-m", "leafcat.cli", "rc", "0101"], env=_checkout_env(),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1,1,2\n", "")


# family -> (its parameter's name, minimum, cap)
FAMILY_RANGES = {"wheel": ("n", 3, graph.WHEEL_MAX_N), "star": ("m", 0, graph.STAR_MAX_M),
                 "chain": ("n", 1, graph.CHAIN_MAX_N), "fk": ("k", 1, graph.FK_MAX_K)}


def _out_of_range():
    """(id, argv, rejection) for each bounded flag at its minimum - 1 and its
    cap + 1; a caterpillar's size and a word's length have no minimum - 1."""
    cases = []
    graph_commands = ("generate", "leaf-function", "leaf-word")
    for family, (name, low, high) in FAMILY_RANGES.items():
        for value in (low - 1, high + 1):
            cases += [(f"{command}-{family}-{value}",
                       [command, "--family", family, "--param", str(value)],
                       f"{name}={value} outside {low}..{high}") for command in graph_commands]
    cap = graph.GRAPH_MAX_N
    cases += [(f"{command}-caterpillar-{cap + 1}",
               [command, "--family", "caterpillar", "--param", f"{cap - 2},1"],
               f"size={cap + 1} outside 3..{cap}") for command in graph_commands]
    for value in (-1, BRUTEFORCE_MAX_N + 1):
        cases += [(f"{command}-max-n-{value}",
                   [command, "--family", "wheel", "--param", "5", "--max-n", str(value)],
                   f"max_n={value} outside 0..{BRUTEFORCE_MAX_N}")
                  for command in ("leaf-function", "leaf-word")]
    cap = catseq.HASSE_MAX_SIZE
    cases += [(f"poset-{value}", ["poset", "--max-size", str(value)],
               f"max_size={value} outside 0..{cap}") for value in (-1, cap + 1)]
    for suite, (low, high) in verify.SUITE_BOUNDS.items():
        cases += [(f"verify-{suite}-{value}", ["verify", "--suite", suite, "--max-n", str(value)],
                   f"max_n={value} outside {low}..{high}") for value in (low - 1, high + 1)]
    cap = words.WORD_MAX_LEN
    long_word = f"word length={cap + 1} outside 0..{cap}"
    cases += [(f"{command}-long-word", [command, "1" * (cap + 1)], long_word)
              for command in ("rc", "pnf", "check-pn")]
    cases += [(f"check-pn-k-{value}", ["check-pn", "0101", "--k", str(value)],
               f"k={value} outside 0..{words.K_MAX}") for value in (-1, words.K_MAX + 1)]
    # a caterpillar of size cap + 4 reads as a word of cap + 1 letters
    cases += [("word-of-long-word", ["word-of", str(cap + 3)], long_word),
              ("leaf-function-caterpillar-long-word",
               ["leaf-function", "--caterpillar", str(cap + 3)], long_word)]
    return cases


OUT_OF_RANGE = _out_of_range()


@pytest.fixture
def no_work(monkeypatch):
    """Make any start of the work behind a command fail the test."""

    def started(*args, **kwargs):
        raise AssertionError("work started")

    for target in ("leafcat.subtrees.leaf_function_bruteforce",
                   "leafcat.subtrees.leaf_function_tree", "leafcat.words.f1_profile",
                   "leafcat.catseq.f1_profile", "leafcat.words.rc",
                   "leafcat.catseq.all_sequences"):
        monkeypatch.setattr(target, started)
    monkeypatch.setattr(graph.Graph, "from_edges", staticmethod(started))
    for suite in verify.SUITES:
        monkeypatch.setattr(verify, f"suite_{suite.replace('-', '_')}", started)


@pytest.mark.parametrize("argv, rejection", [case[1:] for case in OUT_OF_RANGE],
                         ids=[case[0] for case in OUT_OF_RANGE])
def test_bounded_flag_out_of_range_exits_2(capsys, no_work, argv, rejection):
    assert run(capsys, *argv) == (2, "", f"error: {rejection}\n")


def test_machine_outputs_reparse(capsys):
    # values printed in machine format re-parse to equal values
    from leafcat.subtrees import NEG_INF, LeafFunction, leaf_function_bruteforce

    code, out, _ = run(capsys, "--json", "leaf-function", "--family", "wheel", "--param", "6")
    assert out == '{"n": 7, "values": [0, 0, 2, 2, 3, 2, "-inf", "-inf"]}\n'
    data = json.loads(out)
    lf = LeafFunction(data["n"], tuple(NEG_INF if v == "-inf" else v for v in data["values"]))
    assert lf == leaf_function_bruteforce(wheel(6))
    code, out, _ = run(capsys, "rc", "0101")
    assert catseq.parse_sequence(out.strip()) == (1, 1, 2)
