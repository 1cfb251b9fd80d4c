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
