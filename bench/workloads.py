"""The benchmark's workloads: inputs made from a seed, one timed round, checks.

A round is a fixed list of operations; every run repeats whole rounds, so
the share of failed operations is the same in every run. `setup` holds all
imports of leafcat and all input generation. Checks run outside the timed
region and compare against `oracles`, never against stored program output.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import oracles as ref
from meter import Meter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"


class Failed:
    """Outcome of an operation that raised or exited with the wrong code."""

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self):
        return f"Failed({self.reason})"


def plain(lf) -> tuple:
    """Leaf-function values with -inf as None."""
    return tuple(v if isinstance(v, int) else None for v in lf.values)


def leaf_word(values) -> tuple:
    """Letters L(i+3) - L(i+2), i = 1..n-3, with None where a value is absent."""
    return tuple(None if a is None or b is None else b - a
                 for a, b in zip(values[3:], values[4:]))


def format_leaf_word(lw) -> str:
    if all(x in (0, 1) for x in lw):
        return "".join(map(str, lw))
    return ",".join("w" if x is None else str(x) for x in lw)


def random_word(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def random_prefix_normal_word(rng: random.Random, n: int) -> str:
    """Grow a word letter by letter; a 1 that breaks prefix normality becomes
    a 0, which never does."""
    w, prefix_ones, suffix_ones = "", [0], [0]
    for _ in range(n):
        # the new factors are the suffixes of w + "1"; the whole word is a prefix
        if rng.random() < 0.6 and all(
                suffix_ones[i - 1] + 1 <= prefix_ones[i] for i in range(1, len(w) + 1)):
            w += "1"
        else:
            w += "0"
        a = int(w[-1])
        suffix_ones = [0] + [x + a for x in suffix_ones]
        prefix_ones.append(prefix_ones[-1] + a)
    return w


def random_non_prefix_normal_word(rng: random.Random, n: int) -> str:
    while True:
        w = random_word(rng, n)
        if ref.pn_violation(w) is not None:
            return w


def random_connected_edges(rng: random.Random, n: int, m: int) -> list:
    """A random spanning tree plus m - n + 1 further random edges."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges.update(rng.sample(rest, m - (n - 1)))
    return sorted(edges)


# ---------------------------------------------------------------------------
# Cold command-line invocations


class Command:
    """One `leafcat` invocation and what it must produce.

    `expect` is the exact stripped stdout, or a predicate on stdout.
    """

    def __init__(self, argv, code: int, expect=None):
        self.argv = list(argv)
        self.code = code
        self.expect = expect

    def check(self, code: int, out: str) -> str | None:
        """None when (code, out) is right, else the reason it is wrong."""
        if code != self.code:
            return f"leafcat {' '.join(self.argv)}: exit {code}, expected {self.code}"
        if self.expect is None:
            return None
        ok = self.expect(out) if callable(self.expect) else out.strip() == self.expect
        return None if ok else f"leafcat {' '.join(self.argv)}: wrong output {out.strip()[:120]!r}"


def run_cold(cmd: Command, trace_file: Path | None = None):
    """(seconds, exit code, stdout, peak RSS in MB) of one cold `leafcat` process.

    The outputs are small enough for the pipes, so the child can be reaped
    with wait4, which gives its own resource usage, before they are read.
    """
    env = dict(os.environ)
    if trace_file is not None:
        env["LEAFCAT_BENCH_TRACE"] = str(trace_file)
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(BENCH_DIR / "cold.py"), *cmd.argv], cwd=ROOT,
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = proc.stdout.read()
    return seconds, proc.returncode, out, usage.ru_maxrss / 1024


def verify_line(claim: str, bound: int, instances: int):
    pattern = re.compile(rf"PASS {re.escape(claim)} bound={bound} instances={instances} "
                         r"failures=0 time=\d+\.\d\ds")
    return lambda out: bool(pattern.fullmatch(out.strip()))


def leaf_function_text(values) -> str:
    return ", ".join(f"{i} -> {'-inf' if v is None else v}" for i, v in enumerate(values))


# ---------------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}-{seed}")
        self.trace_dir: Path | None = None  # set for a traced cli round
        self.meter = Meter()  # times every operation of a round

    def attempt(self, results: dict, key, fn, *args, **kwargs) -> None:
        """Run and time one operation; an exception makes it a failed one."""
        try:
            results[key] = self.meter.time(fn, *args, **kwargs)
        except Exception as exc:  # counted as a failed operation, not fatal
            results[key] = Failed(repr(exc))

    def setup(self) -> None:
        """Imports and input generation: everything before the first timed op."""

    def prepare(self, r: int) -> None:
        """Untimed per-round input preparation."""

    def run_round(self, r: int) -> dict:
        """Run round r; returns {operation key: result or Failed}."""
        raise NotImplementedError

    def check_round(self, r: int, results: dict) -> list[str]:
        raise NotImplementedError

    def check_once(self) -> list[str]:
        """Checks made once per run, outside the timed region."""
        return []

    def suite_reports(self, results: dict) -> dict:
        """The verify reports of one round, by suite name."""
        return {}

    def probe_commands(self) -> list[Command]:
        """The workload's `leafcat` commands, timed in process for
        cli.main_ms_p50 and, outside `cli`, cold for cli.invocation_ms_p50."""
        raise NotImplementedError

    # cli's rounds are cold invocations: latency and peak RSS come from them
    samples_from_rounds = False


class Census(Workload):
    """The tree census of `leafcat verify --suite trees --max-n 13`."""

    name = "census"
    MAX_N = 13
    SAMPLE_SIZES = (9, 10, 11, 12, 13, 13)

    def setup(self):
        from leafcat import subtrees, verify
        self.verify, self.subtrees = verify, subtrees

    def run_round(self, r):
        results = {}
        self.attempt(results, "trees", self.verify.run_suite, "trees", self.MAX_N)
        return results

    def check_round(self, r, results):
        reports = results["trees"]
        if isinstance(reports, Failed):
            return []
        return check_census_reports(reports)

    def suite_reports(self, results):
        return {"trees": results["trees"]}

    def check_once(self) -> list[str]:
        """Free-tree counts and a seeded sample against the naive oracle."""
        errors = []
        trees = {n: list(self.subtrees.enumerate_free_trees(n)) for n in ref.FREE_TREES}
        for n, expected in ref.FREE_TREES.items():
            if len(trees[n]) != expected:
                errors.append(f"{len(trees[n])} free trees on {n} vertices, A000055 says {expected}")
        for n in self.SAMPLE_SIZES:
            t = trees[n][self.rng.randrange(len(trees[n]))]
            got = plain(self.subtrees.leaf_function_bruteforce(t, max_n=self.MAX_N))
            errors += check_tree_leaf_function(n, sorted(t.edges), got)
        return errors

    def probe_commands(self):
        return [Command(["verify", "--suite", "trees", "--max-n", "9"], 0,
                        verify_line("tree-leaf-words-prefix-normal", 9,
                                    sum(ref.FREE_TREES[n] for n in range(3, 10))))]


def check_census_reports(reports) -> list[str]:
    got = [(r.claim, r.passed, r.instances) for r in reports]
    want = [("tree-leaf-words-prefix-normal", True, sum(ref.FREE_TREES[n] for n in range(3, 13))),
            ("smallest-non-prefix-normal-tree", True, ref.FREE_TREES[13])]
    errors = [] if got == want else [f"census reports {got}, expected {want}"]
    if len(reports) == 2:
        found = reports[1].notes.rpartition(": ")[2].split(",")
        if found != [ref.SMALLEST_NON_PN_TREE_WORD]:
            errors.append(f"non-prefix-normal leaf words at n=13: {found}")
    return errors


def check_tree_leaf_function(n: int, edges, got) -> list[str]:
    """A tree's leaf function against the naive oracle, and its leaf word."""
    want, _ = ref.naive_subtrees(n, edges)
    if got != want:
        return [f"tree {edges}: leaf function {got}, naive oracle {want}"]
    lw = leaf_word(got)
    if any(x not in (0, 1) for x in lw):
        return [f"tree {edges}: leaf word {lw} is not binary"]
    w = "".join(map(str, lw))
    if not ref.is_prefix_normal(w) and (n < 13 or w != ref.SMALLEST_NON_PN_TREE_WORD):
        return [f"tree {edges}: leaf word {w} is not prefix normal"]
    return []


class Graphs(Workload):
    """Brute-force leaf functions on non-tree graphs and per-size queries."""

    name = "graphs"
    MAX_N = 25
    WHEELS = range(5, 19)
    FK = (1, 2, 3)
    STAR_CATERPILLAR_WORD = "1" * 15 + "0"
    # (vertices, edges) of the seeded random graphs: sparse, then dense
    RANDOM = ((12, 14), (14, 17), (16, 20), (18, 23), (12, 30), (13, 33), (14, 36), (16, 42))
    ORACLE_MAX_N = 14
    QUERY_WHEEL = 12
    WITNESS_SIZES = (4, 6, 8)
    ENUM_SIZE = 6

    def setup(self):
        from leafcat import catseq, graph, subtrees
        self.graph, self.subtrees, self.catseq = graph, subtrees, catseq
        self.random_edges = [random_connected_edges(self.rng, n, m) for n, m in self.RANDOM]
        self.query_graphs = [f"wheel-{self.QUERY_WHEEL}"] + [
            f"random-{i}" for i, (n, _) in enumerate(self.RANDOM) if n <= self.ORACLE_MAX_N]
        self.perms, self.round_graphs = {}, {}
        self.expected = None
        self.first_seen = {}  # leaf functions with no oracle: every relabelling must agree

    def prepare(self, r):
        rng = random.Random(f"graphs-{self.seed}-round-{r}")
        perms = {}
        for k in self.WHEELS:
            perms[f"wheel-{k}"] = rng.sample(range(k + 1), k + 1)
        for k in self.FK:
            perms[f"fk-{k}"] = rng.sample(range(6 * k + 7), 6 * k + 7)
        n_cat = len(self.STAR_CATERPILLAR_WORD) + 3
        perms["caterpillar"] = rng.sample(range(n_cat), n_cat)
        self.texts = {}
        for i, ((n, _), edges) in enumerate(zip(self.RANDOM, self.random_edges)):
            p = perms[f"random-{i}"] = rng.sample(range(n), n)
            lines = [f"{n} {len(edges)}"] + [f"{p[u]} {p[v]}" for u, v in edges]
            self.texts[i] = "\n".join(lines) + "\n"
        self.perms[r] = perms

    def _relabel(self, g, p):
        return self.graph.Graph.from_edges(g.n, [(p[u], p[v]) for u, v in g.edges])

    def _build(self, r):
        """The round's graphs, through the program's constructors and parser."""
        graph, perms = self.graph, self.perms[r]
        graphs = {}
        for k in self.WHEELS:
            graphs[f"wheel-{k}"] = self._relabel(graph.wheel(k), perms[f"wheel-{k}"])
        for k in self.FK:
            graphs[f"fk-{k}"] = self._relabel(graph.fk_tree(k), perms[f"fk-{k}"])
        seq = self.catseq.parse_sequence(ref.format_sequence(ref.rc(self.STAR_CATERPILLAR_WORD)))
        graphs["caterpillar"] = self._relabel(graph.caterpillar_graph(seq), perms["caterpillar"])
        for i in range(len(self.RANDOM)):
            graphs[f"random-{i}"] = graph.read_edge_list(self.texts[i])
        return graphs, seq

    def run_round(self, r):
        subtrees = self.subtrees
        graphs, seq = self.meter.time(self._build, r)
        self.round_graphs[r] = graphs
        results = {}
        for key, g in graphs.items():
            self.attempt(results, ("lf", key), subtrees.leaf_function_bruteforce, g,
                         max_n=self.MAX_N)
        for key in self.query_graphs:
            g = graphs[key]
            for i in self.WITNESS_SIZES:
                self.attempt(results, ("witness", key, i), subtrees.fully_leafed_witness, g, i,
                             max_n=self.MAX_N)
            self.attempt(results, ("enum", key), lambda: list(
                subtrees.enumerate_induced_subtrees(g, self.ENUM_SIZE)))
        self.attempt(results, ("lf-caterpillar",), self.catseq.leaf_function_caterpillar, seq)
        return results

    def _expectations(self):
        """Leaf functions and induced trees in the original labels, from the
        closed forms and the naive oracle; computed once per run."""
        if self.expected is None:
            lf, trees = {}, {}
            for k in self.WHEELS:
                lf[f"wheel-{k}"] = ref.wheel_leaf_function(k)
            k = self.QUERY_WHEEL
            _, trees[f"wheel-{k}"] = ref.naive_subtrees(k + 1, ref.wheel_edges(k), self.ENUM_SIZE)
            lf["caterpillar"] = ref.caterpillar_leaf_function(self.STAR_CATERPILLAR_WORD)
            for i, (n, _) in enumerate(self.RANDOM):
                if n <= self.ORACLE_MAX_N:
                    lf[f"random-{i}"], trees[f"random-{i}"] = ref.naive_subtrees(
                        n, self.random_edges[i], self.ENUM_SIZE)
            self.expected = lf, trees
        return self.expected

    def check_round(self, r, results):
        want_lf, want_trees = self._expectations()
        perms, graphs = self.perms[r], self.round_graphs[r]
        errors = []
        values = {}
        for key in graphs:
            got = results[("lf", key)]
            if isinstance(got, Failed):
                continue
            values[key] = got = plain(got)
            if key.startswith("fk-"):
                k = int(key[3:])
                lw = format_leaf_word(leaf_word(got))
                if lw != ref.fk_leaf_word(k):
                    errors.append(f"F_{k}: leaf word {lw}, expected {ref.fk_leaf_word(k)}")
            else:
                want = want_lf[key] if key in want_lf else self.first_seen.setdefault(key, got)
                if got != want:
                    errors.append(f"{key}: leaf function {got}, expected {want}")
        fast = results[("lf-caterpillar",)]
        if (not isinstance(fast, Failed) and "caterpillar" in values
                and plain(fast) != values["caterpillar"]):
            errors.append(f"caterpillar: formula {plain(fast)} != brute force {values['caterpillar']}")
        for key in self.query_graphs:
            g = graphs[key]
            inverse = {new: old for old, new in enumerate(perms[key])}
            for i in self.WITNESS_SIZES:
                wit = results[("witness", key, i)]
                if not isinstance(wit, Failed):
                    errors += check_witness(g.n, sorted(g.edges), i, wit, want_lf[key][i])
            got = results[("enum", key)]
            if not isinstance(got, Failed):
                errors += check_enumeration(key, [tuple(sorted(inverse[v] for v in t)) for t in got],
                                            want_trees[key])
        return errors

    def probe_commands(self):
        wheel10 = ref.wheel_leaf_function(10)
        return [Command(["leaf-function", "--family", "wheel", "--param", "10"], 0,
                        leaf_function_text(wheel10)),
                Command(["leaf-word", "--family", "fk", "--param", "1"], 0, ref.fk_leaf_word(1))]


def check_witness(n: int, edges, i: int, witness, leaves) -> list[str]:
    """A witness is an i-set inducing a tree with L(i) leaves, None iff L(i) is."""
    if leaves is None or witness is None:
        return [] if leaves is None and witness is None else [
            f"size {i}: witness {witness} but L({i}) = {leaves}"]
    got = ref.induced_tree_leaves(n, edges, witness) if len(witness) == i else None
    return [] if got == leaves else [
        f"size {i}: witness {witness} induces {got} leaves, L({i}) = {leaves}"]


def check_enumeration(key: str, got, want: set) -> list[str]:
    if len(got) != len(set(got)):
        return [f"{key}: enumerate_induced_subtrees repeats a set"]
    if set(got) != want:
        return [f"{key}: enumerate_induced_subtrees gave {len(got)} sets, oracle {len(want)}"]
    return []


class Algebra(Workload):
    """The sequence algebra: suites, 200-letter words, round trips, covers."""

    name = "algebra"
    SUITES = (("poset", 7), ("morphism", 8), ("roundtrip", 12), ("leaf-equivalence", 8))
    WORD_LEN = 200
    WORDS_EACH = 12
    ROUNDTRIPS = 300
    HASSE_SIZE = 10

    def setup(self):
        from leafcat import catseq, leafwords, verify, words
        self.catseq, self.leafwords, self.verify, self.words = catseq, leafwords, verify, words
        rng = self.rng
        # half prefix normal, half not
        self.long_words = ([random_prefix_normal_word(rng, self.WORD_LEN)
                            for _ in range(self.WORDS_EACH)]
                           + [random_non_prefix_normal_word(rng, self.WORD_LEN)
                              for _ in range(self.WORDS_EACH)])
        self.short_words = [random_word(rng, rng.randrange(40)) for _ in range(self.ROUNDTRIPS)]
        self.oracle = {}

    def run_round(self, r):
        words, catseq, leafwords = self.words, self.catseq, self.leafwords
        results = {}
        for name, bound in self.SUITES:
            self.attempt(results, ("suite", name), self.verify.run_suite, name, bound)
        for j, w in enumerate(self.long_words):
            self.attempt(results, ("f1", j), words.f1_profile, w)
            self.attempt(results, ("pnf", j), words.pnf, w)
            self.attempt(results, ("pnv", j), words.pn_violation, w)
            self.attempt(results, ("realize", j),
                    lambda: leafwords.realize_caterpillar(leafwords.leaf_function_from_word(w)))
        for j, u in enumerate(self.short_words):
            self.attempt(results, ("roundtrip", j),
                         lambda: (s := words.rc(u), catseq.word_of(s)))
        self.attempt(results, ("hasse",), catseq.hasse_covers, self.HASSE_SIZE)
        return results

    def suite_reports(self, results):
        return {name: results[("suite", name)] for name, _ in self.SUITES}

    def _ref(self, fn, *args):
        """Oracle results, memoized across rounds (the checks are not timed)."""
        key = (fn.__name__,) + args
        if key not in self.oracle:
            self.oracle[key] = fn(*args)
        return self.oracle[key]

    def check_round(self, r, results):
        errors = []
        for (kind, *rest), got in results.items():
            if isinstance(got, Failed):
                continue
            if kind == "suite":
                name = rest[0]
                want = self._ref(SUITE_INSTANCES[name], dict(self.SUITES)[name])
                errors += check_suite(name, got, want)
            elif kind == "roundtrip":
                u = self.short_words[rest[0]]
                if got != (ref.rc(u), u):
                    errors.append(f"rc/word_of round trip of {u!r} gave {got}")
            elif kind == "hasse":
                if got != self._ref(ref.hasse_covers, self.HASSE_SIZE):
                    errors.append(f"hasse_covers({self.HASSE_SIZE}): {len(got)} covers differ "
                                  "from the transitive reduction")
            else:
                errors += check_word_op(kind, self.long_words[rest[0]], got, self._ref)
        return errors

    def probe_commands(self):
        w = self.long_words[0][:40]
        return [Command(["verify", "--suite", "leaf-equivalence", "--max-n", "6"], 0,
                        verify_line("leaf-equivalence-iff-profile", 6,
                                    ref.leaf_equivalence_instances(6)["leaf-equivalence-iff-profile"])),
                Command(["check-pn", w], 0, "prefix normal")]


SUITE_INSTANCES = {"poset": ref.poset_instances, "morphism": ref.morphism_instances,
                   "roundtrip": ref.roundtrip_instances,
                   "leaf-equivalence": ref.leaf_equivalence_instances}


def check_suite(name: str, reports, want: dict) -> list[str]:
    got = {r.claim: r.instances for r in reports}
    errors = [] if got == want else [f"suite {name}: instances {got}, expected {want}"]
    return errors + [f"suite {name}: claim {r.claim} failed" for r in reports if not r.passed]


def check_word_op(kind: str, w: str, got, oracle) -> list[str]:
    """One word operation against the definitions; `oracle(fn, *args)` memoizes."""
    profile = oracle(ref.f1_profile, w)
    normal = profile == tuple(w[:i].count("1") for i in range(len(w) + 1))
    if kind == "f1":
        ok = got == profile
    elif kind == "pnf":
        ok = oracle(ref.is_prefix_normal, got) and oracle(ref.f1_profile, got) == profile
    elif kind == "pnv":
        ok = got is None if normal else (
            got is not None and tuple(got) == oracle(ref.pn_violation, w)
            and ref.is_violation_witness(w, got))
    else:  # realize_caterpillar(leaf_function_from_word(w))
        ok = got == ref.rc(w) if normal else (
            getattr(got, "reason", None) == "not-prefix-normal"
            and ref.is_violation_witness(w, got.witness))
    return [] if ok else [f"{kind} of {w[:24]}...: wrong result {str(got)[:80]}"]


class Cli(Workload):
    """A closed loop of cold `leafcat` invocations, one client, one at a time."""

    name = "cli"
    samples_from_rounds = True

    def setup(self):
        import leafcat.cli  # noqa: F401  (imported for the in-process timings)
        rng = self.rng
        self.latency_s, self.peak_rss_mb = [], 0.0
        OUT_DIR.mkdir(exist_ok=True)
        dup = OUT_DIR / "duplicate-edge.txt"
        # header says 3 edges, but one edge line repeats: must be rejected
        dup.write_text("3 3\n0 1\n1 2\n0 1\n")
        a, b, c, d, e = (random_word(rng, rng.randrange(8, 20)) for _ in range(5))
        pn1, pn2 = (random_prefix_normal_word(rng, 14) for _ in range(2))
        bad1, bad2 = (random_non_prefix_normal_word(rng, 14) for _ in range(2))
        k = rng.randrange(5, 13)
        p1, f1 = ref.pn_violation(bad1)
        p2, f2 = ref.pn_violation(bad2)
        wheel_k = [f"{k + 1} {2 * k}"] + [f"{u} {v}" for u, v in sorted(
            (min(e_), max(e_)) for e_ in ref.wheel_edges(k))]
        covers = sorted(ref.hasse_covers(6))
        self.commands = [
            Command(["rc", "110101"], 0, "3,1,2"),
            Command(["pnf", "00110101100"], 0, "11010110000"),
            Command(["rc", a], 0, ref.format_sequence(ref.rc(a))),
            Command(["word-of", ref.format_sequence(ref.rc(b))], 0, b),
            Command(["pnf", c], 0, ref.pnf(c)),
            Command(["check-pn", pn1], 0, "prefix normal"),
            Command(["check-pn", bad1], 1, f"not prefix normal: prefix {p1} has fewer 1s than factor {f1}"),
            Command(["equiv", d, ref.pnf(d)], 0, "equivalent"),
            Command(["realize", ",".join(map(str, ref.leaf_function_of_word(pn2)))], 0,
                    ref.format_sequence(ref.rc(pn2))),
            Command(["realize", ",".join(map(str, ref.leaf_function_of_word(bad2)))], 1,
                    f"rejected: not-prefix-normal: prefix {p2} has fewer 1s than factor {f2}"),
            Command(["leaf-function", "--caterpillar", ref.format_sequence(ref.rc(e))], 0,
                    leaf_function_text(ref.caterpillar_leaf_function(e))),
            Command(["leaf-word", "--family", "wheel", "--param", "10"], 0,
                    format_leaf_word(leaf_word(ref.wheel_leaf_function(10)))),
            Command(["generate", "--family", "wheel", "--param", str(k)], 0, "\n".join(wheel_k)),
            Command(["poset", "--max-size", "6"], 0, "\n".join(
                f"{ref.format_sequence(lo)} < {ref.format_sequence(hi)}" for lo, hi in covers)),
            Command(["rc", a[:4] + "2" + a[4:]], 2, ""),
            Command(["leaf-function", str(dup)], 2),
        ]

    def run_round(self, r):
        results = {}
        for j, cmd in enumerate(self.commands):
            trace_file = None if self.trace_dir is None else self.trace_dir / f"r{r}-c{j}.json"
            try:
                seconds, code, out, rss_mb = run_cold(cmd, trace_file)
            except (OSError, subprocess.SubprocessError) as exc:
                results[j] = Failed(repr(exc))
                continue
            self.meter.record(seconds)
            self.latency_s.append(seconds)
            self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
            results[j] = (code, out) if code == cmd.code else Failed(f"exit {code}")
        return results

    def check_round(self, r, results):
        return [err for j, cmd in enumerate(self.commands)
                if not isinstance(results[j], Failed)
                for err in [cmd.check(*results[j])] if err]

    def probe_commands(self):
        return self.commands


WORKLOADS = {w.name: w for w in (Census, Graphs, Algebra, Cli)}
