"""Spans around the calls into leafcat's public functions.

The wrappers are installed from the benchmark's side: each function below is
replaced by a timing wrapper in every leafcat module that binds it, so a call
made through `verify` or `cli` is traced as well as a direct one. Spans are
kept in memory and written out when the run ends; a span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# traced name -> (module, attribute) pairs; names shared by several
# functions (the graph layer) add up.
TARGETS = {
    "subtrees.leaf_function_bruteforce": [("leafcat.subtrees", "leaf_function_bruteforce")],
    "subtrees.enumerate_free_trees": [("leafcat.subtrees", "enumerate_free_trees")],
    "subtrees.fully_leafed_witness": [("leafcat.subtrees", "fully_leafed_witness")],
    "subtrees.enumerate_induced_subtrees": [("leafcat.subtrees", "enumerate_induced_subtrees")],
    "graph": [("leafcat.graph", name) for name in (
        "Graph.from_edges", "induced_subgraph", "chain", "star", "wheel",
        "caterpillar_graph", "fk_tree", "read_edge_list", "write_edge_list")],
    **{f"catseq.{name}": [("leafcat.catseq", name)] for name in (
        "leaf_function_caterpillar", "graft", "is_subsequence", "left", "right",
        "hasse_covers")},
    **{f"words.{name}": [("leafcat.words", name)] for name in (
        "rc", "f1_profile", "pnf", "is_prefix_normal", "pn_violation", "enumerate_pnw")},
    "leafwords.delta_leaf_word": [("leafcat.leafwords", "delta_leaf_word")],
    "leafwords.realize_caterpillar": [("leafcat.leafwords", "realize_caterpillar")],
    **{f"verify.{suite}": [("leafcat.verify", f"suite_{suite.replace('-', '_')}")]
       for suite in ("poset", "morphism", "roundtrip", "leaf-equivalence", "trees")},
}

# Spans past this many are counted in the totals but not stored.
SPAN_CAP = 50_000


class Tracer:
    """Aggregated self times and call counts plus a bounded span log."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.yielded = Counter()
        self.spans = []  # (id, parent id, name, start, end, round)
        self.dropped = 0
        self.round = 0
        self._stack = []  # [id, name, start, child seconds]
        self._next_id = 0
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, perf_counter(), 0.0])

    def _exit(self):
        end = perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, name, start, end, self.round))
        else:
            self.dropped += 1

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            # a generator's work happens while it is resumed: one span per step
            @functools.wraps(fn)
            def gen(*args, **kwargs):
                self.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    self._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    self.yielded[name] += 1
                    yield item
            return gen

        @functools.wraps(fn)
        def call(*args, **kwargs):
            self.calls[name] += 1
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return call

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every target wherever a leafcat module binds it."""
        for name, targets in TARGETS.items():
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                if "." in attr:  # a static method: Graph.from_edges
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    self._restore.append((cls, meth, cls.__dict__[meth]))
                    setattr(cls, meth, staticmethod(self._wrap(name, getattr(cls, meth))))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for mod in list(sys.modules.values()):
                    mod_name = getattr(mod, "__name__", "")
                    if mod_name != "leafcat" and not mod_name.startswith("leafcat."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, original))
                            setattr(mod, key, wrapper)
        return self

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- output ----------------------------------------------------------------

    def totals(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "yielded": dict(self.yielded)}

    def add_totals(self, totals: dict) -> None:
        """Fold in the totals of a traced child process."""
        self.calls.update(totals["calls"])
        self.yielded.update(totals["yielded"])
        for name, seconds in totals["self_s"].items():
            self.self_s[name] += seconds

    def write(self, path, **extra) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "parent", "name", "start", "end", "round")
        with open(path, "w") as fh:
            json.dump({**extra, **self.totals(), "dropped_spans": self.dropped,
                       "spans": [dict(zip(fields, s)) for s in self.spans]}, fh)
