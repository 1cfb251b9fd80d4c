"""The mutation harness, `tests/mutants.py`, still applies to the source: a
change to mutated code must update its mutants in the same change."""

import importlib.util
from pathlib import Path

PATH = Path(__file__).with_name("mutants.py")


def _harness():
    spec = importlib.util.spec_from_file_location("mutants", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_edit_occurs_exactly_once():
    harness = _harness()
    assert harness.unmatched() == []
    names = [m[0] for m in harness.MUTANTS]
    assert len(names) == len(set(names))


def test_a_kill_names_the_failing_test():
    killer = _harness()._killer
    out = ("F\n=== short test summary info ===\n"
           "FAILED tests/test_subtrees.py::test_free_tree_counts[13-1301] - assert 1300 == 1301\n"
           "!!! stopping after 1 failures !!!\n1 failed, 20 passed in 3.1s\n")
    assert killer(out) == "tests/test_subtrees.py::test_free_tree_counts[13-1301]"
    assert killer("ERROR tests/test_verify.py - ImportError: x\n") == "tests/test_verify.py"
    assert killer("1 failed\n") == "(no FAILED line)"
