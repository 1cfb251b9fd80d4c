import pytest

from leafcat import verify


@pytest.fixture
def no_enumeration(monkeypatch):
    """Make any start of a suite's enumeration fail the test."""

    def started(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(verify.catseq, "all_sequences", started)
    monkeypatch.setattr(verify, "_all_words", started)
    monkeypatch.setattr(verify, "enumerate_free_trees", started)
    for suite in verify.SUITES:
        monkeypatch.setattr(verify, f"suite_{suite.replace('-', '_')}", started)


@pytest.mark.parametrize("suite, cap", [
    (verify.suite_poset, verify.POSET_MAX_SIZE),
    (verify.suite_morphism, verify.MORPHISM_MAX_LEN),
    (verify.suite_roundtrip, verify.ROUNDTRIP_MAX_LEN),
    (verify.suite_leaf_equivalence, verify.LEAF_EQUIVALENCE_MAX_LEN),
    (verify.suite_trees, verify.TREES_MAX_N),
])
def test_suite_rejects_bound_above_cap(suite, cap, no_enumeration):
    with pytest.raises(ValueError, match=f"<= {cap}"):
        suite(cap + 1)


minimums = pytest.mark.parametrize("suite, low", [
    (verify.suite_poset, verify.POSET_MIN_SIZE),
    (verify.suite_morphism, verify.MORPHISM_MIN_LEN),
    (verify.suite_roundtrip, verify.ROUNDTRIP_MIN_LEN),
    (verify.suite_leaf_equivalence, verify.LEAF_EQUIVALENCE_MIN_LEN),
    (verify.suite_trees, verify.TREES_MIN_N),
])


@minimums
def test_suite_rejects_bound_below_minimum(suite, low, no_enumeration):
    with pytest.raises(ValueError, match=f"supports {low} <= "):
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
