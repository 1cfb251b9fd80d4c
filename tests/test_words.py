import itertools
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafcat import words as wd

binary_words = st.text(alphabet="01", max_size=20)


def all_words(max_len):
    for n in range(max_len + 1):
        for bits in itertools.product("01", repeat=n):
            yield "".join(bits)


def brute_f1(w, i):
    if i == 0:
        return 0
    return max(w[j : j + i].count("1") for j in range(len(w) - i + 1))


def brute_is_pn(w):
    return all(w[:i].count("1") >= brute_f1(w, i) for i in range(1, len(w) + 1))


def binary_verdict(w):
    """check_binary's message for w, or None if it accepts w."""
    try:
        wd.check_binary(w)
    except ValueError as exc:
        return str(exc)
    return None


def letter_verdict(w):
    return None if set(w) <= {"0", "1"} else f"not a binary word: {w!r}"


def test_check_binary_matches_the_letter_set():
    # every word of up to 8 letters over "01a2 " (488,281 words, about 1 s)
    for n in range(9):
        for letters in itertools.product("01a2 ", repeat=n):
            w = "".join(letters)
            assert binary_verdict(w) == letter_verdict(w), w


@pytest.mark.parametrize("w", ["a0101", "01x01", "01012", " 0", "0 ", "0\n1", "\u0660",
                               "\uff10", "\uff11", "\u00b9", "01\u00b9", "\uff1001"])
def test_check_binary_rejects_any_other_letter(w):
    # a bad letter at the start, in the middle or at the end, and digits that
    # are not ASCII: Arabic-Indic zero, fullwidth 0 and 1, superscript one
    assert binary_verdict(w) == letter_verdict(w) == f"not a binary word: {w!r}"


@given(st.text(max_size=30) | st.text(alphabet="01\uff10\u00b9a ", max_size=30))
@settings(max_examples=300)
def test_check_binary_matches_the_letter_set_on_any_text(w):
    assert binary_verdict(w) == letter_verdict(w)


def running_ones(w):
    counts, ones = [0], 0
    for c in w:
        ones += c == "1"
        counts.append(ones)
    return tuple(counts)


def test_prefix_ones_is_the_running_count():
    for w in all_words(10):
        assert wd.prefix_ones(w) == running_ones(w), w


@given(st.text(alphabet="01", max_size=300))
def test_prefix_ones_is_the_running_count_on_long_words(w):
    assert wd.prefix_ones(w) == running_ones(w)


def test_f1_examples():
    assert wd.f1("00110101100", 5) == 3
    assert wd.f1("1101011011", 5) == 4
    w = "0110101"
    assert wd.f1(w, len(w)) == w.count("1")
    assert wd.f1(w, 0) == 0
    with pytest.raises(ValueError):
        wd.f1(w, len(w) + 1)


def test_f1_matches_bruteforce():
    for w in all_words(9):
        profile = tuple(brute_f1(w, i) for i in range(len(w) + 1))
        for i in range(len(w) + 1):
            assert wd.f1(w, i) == profile[i]
        assert wd.f1_profile(w) == profile


def test_k_prefix_normal_matches_the_definition():
    # every factor has at most k more ones than the prefix of its length
    for w in all_words(10):
        excess = max(w[j:j + i].count("1") - w[:i].count("1")
                     for i in range(len(w) + 1) for j in range(len(w) - i + 1))
        for k in range(7):
            assert wd.is_k_prefix_normal(w, k) == (excess <= k), (w, k)


@given(st.text(alphabet="01", max_size=200))
@settings(max_examples=100)
def test_profile_matches_single_windows(w):
    assert wd.f1_profile(w) == tuple(wd.f1(w, i) for i in range(len(w) + 1))


def test_profile_shape():
    prof = wd.f1_profile("00110101100")
    assert prof == (0, 1, 2, 2, 3, 3, 4, 5, 5, 5, 5, 5)


@given(binary_words)
@settings(max_examples=300)
def test_profile_increments(w):
    prof = wd.f1_profile(w)
    assert prof[0] == 0
    assert prof[-1] == w.count("1")
    assert all(b - a in (0, 1) for a, b in zip(prof, prof[1:]))


def test_is_prefix_normal_examples():
    assert wd.is_prefix_normal("")
    assert wd.is_prefix_normal("0" * 7)
    assert wd.is_prefix_normal("1" * 7)
    assert wd.is_prefix_normal("110101")
    assert not wd.is_prefix_normal("1101011011")


def test_is_prefix_normal_matches_bruteforce():
    for w in all_words(10):
        assert wd.is_prefix_normal(w) == brute_is_pn(w)


def test_pn_violation_witness():
    assert wd.pn_violation("1101011011") == ("11010", "11011")
    assert wd.pn_violation("110101") is None


def test_pn_violation_yields_abelian_pair():
    # every non-normal word yields a prefix ending in 0 and a factor starting
    # in 1 whose interiors are abelian equivalent
    for w in all_words(10):
        wit = wd.pn_violation(w)
        assert (wit is None) == wd.is_prefix_normal(w)
        if wit is None:
            continue
        p, f = wit
        assert w.startswith(p) and f in w and len(p) == len(f)
        assert p.endswith("0") and f.startswith("1")
        u, u2 = p[:-1], f[1:]
        assert Counter(u) == Counter(u2)


def test_k_prefix_normal_examples():
    assert wd.is_k_prefix_normal("1101011011", 1)
    assert not wd.is_k_prefix_normal("1101011011", 0)
    assert wd.is_k_prefix_normal("1110010011100111", 2)
    assert not wd.is_k_prefix_normal("1110010011100111", 1)
    for w in ["", "10110", "1101011011"]:
        assert wd.is_k_prefix_normal(w, len(w))
    assert wd.is_k_prefix_normal("01", wd.K_MAX)
    for k in (-1, wd.K_MAX + 1):
        with pytest.raises(ValueError, match=f"^k={k} outside 0..{wd.K_MAX}$"):
            wd.is_k_prefix_normal("01", k)


def test_zero_prefix_normal_is_prefix_normal():
    for w in all_words(9):
        assert wd.is_k_prefix_normal(w, 0) == wd.is_prefix_normal(w)


def test_pnf_examples():
    assert wd.pnf("011") == "110"
    assert wd.pnf("00110101100") == "11010110000"
    for w in ["110101", "11010110000", "", "000", "111"]:
        assert wd.is_prefix_normal(w)
        assert wd.pnf(w) == w


def test_pnf_properties():
    for w in all_words(9):
        v = wd.pnf(w)
        assert wd.is_prefix_normal(v)
        assert wd.f1_profile(v) == wd.f1_profile(w)
        assert wd.pnf(v) == v


def test_pnf_unique_in_class():
    for n in range(11):
        classes = defaultdict(list)
        for bits in itertools.product("01", repeat=n):
            w = "".join(bits)
            classes[wd.f1_profile(w)].append(w)
        for members in classes.values():
            normal = [w for w in members if wd.is_prefix_normal(w)]
            assert len(normal) == 1
            assert all(wd.pnf(w) == normal[0] for w in members)


def test_equivalent():
    assert wd.equivalent("01", "10")
    assert not wd.equivalent("01", "11")
    assert wd.equivalent("00110101100", "11010110000")
    assert not wd.equivalent("01", "010")


def test_word_past_its_cap_is_rejected():
    cap = wd.WORD_MAX_LEN
    message = f"word length={cap + 1} outside 0..{cap}"
    for fn in (wd.pnf, wd.f1_profile, wd.is_prefix_normal, wd.pn_violation, wd.rc):
        with pytest.raises(ValueError, match=message):
            fn("1" * (cap + 1))
    assert wd.rc("1" * cap) == (cap + 2,)


def test_f1_window_out_of_range():
    with pytest.raises(ValueError, match="i=4 outside 0..3"):
        wd.f1("011", 4)
    with pytest.raises(ValueError, match="i=-1 outside 0..3"):
        wd.f1("011", -1)


def test_rc_examples():
    assert wd.rc("") == (2,)
    assert wd.rc("110101") == (3, 1, 2)
    assert wd.rc("00110101100") == (1, 0, 2, 1, 2, 0, 1)
    with pytest.raises(ValueError):
        wd.rc("012")


def test_enumerate_pnw_small():
    assert list(wd.enumerate_pnw(0)) == [""]
    assert list(wd.enumerate_pnw(2)) == ["00", "10", "11"]
    assert list(wd.enumerate_pnw(3)) == ["000", "100", "101", "110", "111"]


def test_enumerate_pnw_matches_filter():
    # every length up to 14, in lexicographic order: the filter costs about 0.5 s
    for n in range(15):
        expected = sorted(w for w in ("".join(b) for b in itertools.product("01", repeat=n))
                          if brute_is_pn(w))
        assert list(wd.enumerate_pnw(n)) == expected


def test_enumerate_pnw_bound():
    with pytest.raises(ValueError):
        list(wd.enumerate_pnw(23))
