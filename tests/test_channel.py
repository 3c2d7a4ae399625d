"""Deletion patterns: application, grammar, sampling."""

import random
import re
from collections import Counter
from itertools import combinations, product

import pytest

from gccodes.channel import (
    DeletionPattern,
    InvalidPatternError,
    Window,
    delete_localized,
    pattern_from_text,
    pattern_to_text,
    sample_pattern,
)
from gccodes.codec import gc_params, is_subsequence, multi_params
from oracles import list_delete


def test_two_window_reference_string():
    x = "100101001010010010110"
    pat = pattern_from_text("3:0,1,3;15:0,2")
    assert delete_localized(x, pat) == "1000010100100110"
    assert len(delete_localized(x, pat)) == 16


def test_single_window_reference_string():
    # removing the 7th, 9th and 10th codeword bits
    x = "110010100111100000001100110000001"
    pat = pattern_from_text("7:0,2,3")
    assert delete_localized(x, pat) == "110010011100000001100110000001"


def test_empty_pattern():
    pat = pattern_from_text("")
    assert pat.windows == ()
    assert delete_localized("10110", pat) == "10110"


def test_text_round_trip():
    # "3:" is a window that deletes nothing, as sampling with zero
    # deletions produces
    for text in ("3:0,1,3;15:0,2", "7:0,2,3", "1:0", "3:", ""):
        assert pattern_to_text(pattern_from_text(text)) == text
    assert pattern_from_text("3:").positions() == []


def test_positions_are_one_indexed_ascending():
    pat = pattern_from_text("3:0,1,3;15:0,2")
    assert pat.positions() == [3, 4, 6, 15, 17]


@pytest.mark.parametrize("bad", [
    "3:1,1",         # duplicate offset
    "0:1",           # start below 1
    "3:-1",          # negative offset
    "5:0;3:0",       # starts out of order
    "abc",
    "3:0,;4:0",
])
def test_malformed_pattern_text(bad):
    with pytest.raises(InvalidPatternError):
        pattern_from_text(bad)


@pytest.mark.parametrize("start", [0, -1])
def test_window_start_below_one_names_the_rule(start):
    with pytest.raises(InvalidPatternError, match="1-based and must be at least 1"):
        DeletionPattern((Window(start, (0,)),))
    with pytest.raises(InvalidPatternError, match="1-based and must be at least 1"):
        pattern_from_text(f"{start}:1")
    # starts out of order still name the ordering rule
    with pytest.raises(InvalidPatternError, match="strictly increasing"):
        pattern_from_text("5:0;3:0")


@pytest.mark.parametrize("start, offsets, shown", [
    (1, (0.5,), "offset 0.5"),
    (1.0, (0,), "window start 1.0"),
    (1, ("1",), "offset '1'"),
    (True, (0,), "window start True"),
    (1, (0, False), "offset False"),
    ("2", (), "window start '2'"),
], ids=["float-offset", "float-start", "str-offset", "bool-start", "bool-offset",
        "str-start"])
def test_pattern_values_must_be_ints(start, offsets, shown):
    """A start or offset that is not an int, a bool included, is refused
    when the pattern is built, naming the value, not later by a slice or a
    comparison."""
    with pytest.raises(InvalidPatternError, match=rf"^{re.escape(shown)} is not an int$"):
        DeletionPattern((Window(start, offsets),))
    with pytest.raises(InvalidPatternError, match=rf"^{re.escape(shown)} is not an int$"):
        DeletionPattern((Window(3, (0,)), Window(start, offsets)))


def test_validate_against_code():
    p = gc_params(16, 4, 3)
    pattern_from_text("7:0,2,3").validate(p.n, p.w)
    with pytest.raises(InvalidPatternError):
        pattern_from_text("7:0,2,4").validate(p.n, p.w)       # offset = w
    with pytest.raises(InvalidPatternError):
        pattern_from_text("33:1").validate(p.n, p.w)          # runs past the end
    with pytest.raises(InvalidPatternError):
        pattern_from_text("3:0;5:0").validate(p.n, p.w, z=2)  # spans overlap
    with pytest.raises(InvalidPatternError):
        pattern_from_text("3:0;9:0").validate(p.n, p.w, z=1)  # too many windows


def test_delete_length_and_subsequence():
    rng = random.Random(17)
    p = gc_params(64, 6, 3)
    for _ in range(200):
        x = "".join(rng.choice("01") for _ in range(p.n))
        pat = sample_pattern(p, rng.randrange(p.w + 1), rng)
        y = delete_localized(x, pat, w=p.w, z=1)
        assert len(y) == p.n - len(pat.positions())
        assert is_subsequence(y, x)


def _offset_sets(size):
    return [offs for d in range(size + 1) for offs in combinations(range(size), d)]


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_one_pass_delete_matches_the_position_list_reference():
    """delete_localized against list_delete on every string of distinct
    characters of length 0..12, every single window (starts 1..14, offsets
    any subset of 0..4) and every pair of windows (starts 1..13, offsets any
    subset of 0..2), whether empty, overlapping, unordered or past the end,
    with no contract, w = 2 or 3, and z = 1 or 2: equal strings, or errors
    of the same type and text."""
    patterns = [DeletionPattern((Window(start, offs),))
                for start in range(1, 15) for offs in _offset_sets(5)]
    patterns += [DeletionPattern((Window(a, p), Window(b, q)))
                 for a, b in combinations(range(1, 14), 2)
                 for p, q in product(_offset_sets(3), repeat=2)]
    contracts = [(None, None)] + [(w, z) for w in (2, 3) for z in (None, 1, 2)]
    kinds = Counter()
    for n in range(13):
        x = "0123456789ab"[:n]
        for pat in patterns:
            for w, z in contracts:
                got = _outcome(delete_localized, x, pat, w, z)
                assert got == _outcome(list_delete, x, pat, w, z), (x, pat, w, z)
                kinds[re.sub(r"\d+", "#", got[1]) if isinstance(got, tuple) else ""] += 1
    # every error of the channel shows up, and so do plain cuts
    assert sorted(kinds) == ["", "# windows exceed the limit z=#",
                             "deletion positions fall outside the string",
                             "offset # falls outside a window of size #",
                             "window at # sticks out of a #-bit string",
                             "windows must not overlap",
                             "windows overlap: duplicate or unordered positions"]
    assert kinds[""] > 10_000


def test_z_without_w_is_refused():
    x = "0110100110"
    for text in ("3:0", "", "3:0;9:0"):
        with pytest.raises(ValueError, match="z=2 needs the window size w"):
            delete_localized(x, pattern_from_text(text), z=2)
        with pytest.raises(ValueError, match="z=1 needs the window size w"):
            delete_localized(x, pattern_from_text(text), None, 1)


def test_burst_equals_slice_removal():
    x = "11001010011110000101"
    pat = DeletionPattern((Window(5, (0, 1, 2, 3)),))
    assert delete_localized(x, pat) == x[:4] + x[8:]


def test_sampling_deterministic():
    p = gc_params(16, 4, 3)
    a = sample_pattern(p, 2, "seed-string")
    b = sample_pattern(p, 2, "seed-string")
    c = sample_pattern(p, 2, "other")
    assert a == b
    assert a != c


def test_sampling_full_window_is_burst():
    p = gc_params(16, 4, 3)
    pat = sample_pattern(p, 4, 123)
    (win,) = pat.windows
    assert win.offsets == (0, 1, 2, 3)


def test_sampling_modes_and_domain():
    p = gc_params(16, 4, 3)
    rng = random.Random(1)
    for _ in range(300):
        (win,) = sample_pattern(p, 1, rng).windows
        assert 1 <= win.start <= p.n - p.w + 1
    for _ in range(300):
        (win,) = sample_pattern(p, 1, rng, mode="systematic-only").windows
        assert 1 <= win.start <= p.k - p.w + 1


def test_sampling_multi_disjoint_sorted():
    mp = multi_params(64, 4, 7, 2)
    rng = random.Random(2)
    for _ in range(300):
        pat = sample_pattern(mp, (2, 3), rng)
        w1, w2 = pat.windows
        assert w1.start + mp.w - 1 < w2.start
        assert len(w1.offsets) == 2 and len(w2.offsets) == 3
        pat.validate(mp.n, mp.w, z=2)


def test_sampling_delta_validation():
    p = gc_params(16, 4, 3)
    with pytest.raises(ValueError):
        sample_pattern(p, 5, 0)
    mp = multi_params(64, 4, 7, 2)
    with pytest.raises(ValueError):
        sample_pattern(mp, (1, 5), 0)
    with pytest.raises(ValueError):
        sample_pattern(mp, (1,), 0)
    # a bool is not a deletion count, alone or in a sequence
    for delta, shown in ((True, "True"), (False, "False"), ((1, True), "True"),
                         ((1.0, 1), "1.0")):
        with pytest.raises(InvalidPatternError,
                           match=rf"^per-window deletions must be ints, got {shown}$"):
            sample_pattern(mp if isinstance(delta, tuple) else p, delta, 0)


@pytest.mark.parametrize("delta, shown", [(3.0, "3.0"), (None, "None"), (object, "<class 'object'>")])
def test_sampling_refuses_a_delta_that_is_no_sequence(delta, shown):
    # refused by name, as an InvalidPatternError, at z = 1 and at z = 2;
    # a rejected draw leaves the rng where it was
    for p in (gc_params(16, 4, 3), multi_params(64, 4, 7, 2)):
        rng = random.Random(5)
        with pytest.raises(InvalidPatternError, match=rf"^delta must be an int or a sequence of "
                                                      rf"{p.z} ints, got {re.escape(shown)}$"):
            sample_pattern(p, delta, rng)
        assert rng.getstate() == random.Random(5).getstate()


def test_window_start_histogram_uniform():
    # chi-square against uniform; threshold df + 3 sqrt(2 df) keeps the
    # check seed-stable without an inverse-CDF table
    p = gc_params(128, 7, 3)
    rng = random.Random(2024)
    bins = p.n - p.w + 1
    counts = Counter(sample_pattern(p, 3, rng).windows[0].start
                     for _ in range(100_000))
    expect = 100_000 / bins
    stat = sum((counts.get(s, 0) - expect) ** 2 / expect
               for s in range(1, bins + 1))
    df = bins - 1
    assert stat <= df + 3 * (2 * df) ** 0.5, stat
