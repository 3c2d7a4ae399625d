"""Rate and failure-bound calculators plus the exhaustive sweep oracle.

Expected figures are recomputed here from first principles (independent
arithmetic, no shared helpers) before being compared.
"""

import math
import random
from collections import Counter

import pytest

from gccodes import analysis
from gccodes.analysis import (
    DEFAULT_SCOPE_CAP,
    MiscorrectionError,
    ScopeTooLargeError,
    bound_multi,
    bound_single,
    exhaustive_oracle,
    max_case_count,
)
from gccodes.channel import InvalidPatternError
from gccodes.multi_window import MAX_Z, multi_params
from gccodes.single_window import (
    INVALID_INPUT,
    SUCCESS,
    DecodeResult,
    InvalidConfigError,
    decode,
    gc_params,
)
from oracles import sweep_every_pattern

K_GRID = (128, 256, 512, 1024, 2048, 4096)

# published two-decimal rates for the c=3 and c=4 tables
RATES_C3 = ("0.82", "0.89", "0.93", "0.96", "0.98", "0.99")
RATES_C4 = ("0.78", "0.86", "0.92", "0.95", "0.97", "0.99")

# published two-significant-figure bounds for c=4
BOUNDS_C4 = ("1.4e-01", "1.3e-01", "1.1e-01", "1.0e-01", "9.1e-02", "8.3e-02")


def sig2_half_up(x):
    """Two significant figures, ties away from zero, as the tables round."""
    if x == 0:
        return "0.0e+00"
    e = math.floor(math.log10(abs(x)))
    scaled = x / 10 ** (e - 1)
    r = math.floor(scaled + 0.5)
    if r >= 100:
        r //= 10
        e += 1
    return f"{r / 10:.1f}e{e:+03d}"


def test_sig2_helper():
    assert sig2_half_up(0.125) == "1.3e-01"
    assert sig2_half_up(0.1) == "1.0e-01"
    assert sig2_half_up(0.0833) == "8.3e-02"
    assert sig2_half_up(0.096) == "9.6e-02"


def test_rate_single_golden():
    assert gc_params(128, 7, 3).n == 157
    assert bound_single(128, 7, 3).rate == 128 / 157
    assert gc_params(4096, 12, 4).n == 4157
    assert f"{bound_single(4096, 12, 4).rate:.2f}" == "0.99"
    assert gc_params(16, 4, 3).n == 33


@pytest.mark.parametrize("c,table", [(3, RATES_C3), (4, RATES_C4)])
def test_rate_tables(c, table):
    for k, want in zip(K_GRID, table):
        w = (k - 1).bit_length()
        assert f"{bound_single(k, w, c).rate:.2f}" == want, k


def test_bound_single_formula_and_table():
    for k, want in zip(K_GRID, BOUNDS_C4):
        w = (k - 1).bit_length()
        rep = bound_single(k, w, 4)
        assert sig2_half_up(rep.failure_bound) == want, k
        # independent recompute of the pre-clamp expression
        assert rep.failure_bound == pytest.approx((k / w) * 2.0 ** (-w))
        assert rep.redundancy_bits == 4 * w + w + 1
        assert rep.rate == k / (k + rep.redundancy_bits)


def test_bound_single_c3_trivial():
    for k in K_GRID:
        w = (k - 1).bit_length()
        assert bound_single(k, w, 3).failure_bound == 1.0


def test_bound_single_regimes():
    assert bound_single(1024, 4, 4).regime == "small-window"
    assert bound_single(1024, 10, 4).regime == "large-window"
    assert bound_single(1024, 12, 4).regime == "large-window"


def test_bound_monotone_in_c_and_k():
    for k in K_GRID:
        w = (k - 1).bit_length()
        vals = [bound_single(k, w, c).failure_bound for c in range(3, 9)]
        assert vals == sorted(vals, reverse=True)
    along_k = [bound_single(k, (k - 1).bit_length(), 4).failure_bound
               for k in K_GRID]
    assert along_k == sorted(along_k, reverse=True)


def test_max_case_count_recompute():
    # k=64, w=4, z=2: 11 blocks, C(9,2)=36 placements; the richest split
    # of missing bits between two windows capped at 4 has 5 variants
    assert max_case_count(64, 4, 7, 2) == 36 * 5
    # z=1 reduces to the m-1 adjacent pairs
    assert max_case_count(16, 4, 3, 1) == 3


def test_bound_multi_values():
    rep7 = bound_multi(64, 4, 7, 2)
    assert rep7.failure_bound == 1.0          # 180/64 clamps
    rep8 = bound_multi(64, 4, 8, 2)
    assert rep8.failure_bound == pytest.approx(180 / 4096)
    assert rep8.redundancy_bits == 8 * 6 * 9
    assert rep8.windows == 2
    assert bound_multi(64, 4, 6, 2).failure_bound == 1.0   # c = 3z


def test_bound_multi_z1_shape():
    # same exponent as the single-window bound, case count in place of k/ell
    rep = bound_multi(1024, 10, 5, 1)
    m = -(-1024 // 10)
    assert rep.failure_bound == pytest.approx((m - 1) * 2.0 ** (-10 * 2))
    single = bound_single(1024, 10, 5)
    assert rep.failure_bound / single.failure_bound == pytest.approx(
        (m - 1) / (1024 / 10))


def test_bound_multi_validation():
    with pytest.raises(InvalidConfigError):
        bound_multi(64, 4, 4, 2)
    with pytest.raises(InvalidConfigError):
        bound_multi(64, 4, 7, 0)


@pytest.mark.parametrize("args", [
    (64, 4, 7, 0),       # no window
    (64, 4, 4, 2),       # c below 2z + 1
    (64, 4, 2, 1),       # c below 2z + 1 and below 3
    (3, 2, 4, 1),        # k too small
    (2, 1, 4, 2),        # k too small and c below 2z + 1
    (16, 16, 5, 2),      # window as large as the message
    (16, 4, 7, 3),       # 4 blocks cannot host 3 pairs
    (8, 4, 5, 2),        # 2 blocks cannot host 2 pairs
    (16, 4, 13, 2),      # 4 + 13 symbols exceed GF(16)
    (64, 4, 9, MAX_Z + 1),   # more windows than the cap, all else valid
    (4096, 12, 8, 3),    # 817 332 503 cases, over the case budget
])
def test_multi_params_and_bound_multi_refuse_alike(args):
    with pytest.raises(InvalidConfigError) as built:
        multi_params(*args)
    with pytest.raises(InvalidConfigError) as bounded:
        bound_multi(*args)
    with pytest.raises(InvalidConfigError) as counted:
        max_case_count(*args)
    assert str(built.value) == str(bounded.value) == str(counted.value)


def test_oracle_single_guess_never_fails():
    p = gc_params(8, 4, 3)
    assert p.m == 2
    rep = exhaustive_oracle(p, "10110100")
    assert rep.trials == 352 and rep.failures == 0


def test_oracle_worked_example_full_scope():
    p = gc_params(16, 4, 3)
    rep = exhaustive_oracle(p, "1100101001111000")
    assert rep.trials == 480
    assert rep.failures == 0
    assert rep.failure_patterns == ()


def test_oracle_c5_full_scope():
    p = gc_params(16, 4, 5)
    rep = exhaustive_oracle(p, "1100101001111000")
    assert rep.trials == 608 and rep.failures == 0


def test_oracle_scope_cap(monkeypatch):
    # w = 20: 2^20 offset subsets at each of 83 starts, 87M patterns
    p = gc_params(21, 20, 3)
    monkeypatch.setattr(analysis, "decode", None)  # raises before any decode
    with pytest.raises(ScopeTooLargeError,
                       match=f"^87031808 patterns exceed the cap {DEFAULT_SCOPE_CAP}$"):
        exhaustive_oracle(p, "1" * 21)
    assert DEFAULT_SCOPE_CAP >= 10 ** 6


def test_oracle_refuses_bad_starts_before_any_work(monkeypatch):
    # gc_params(16, 4, 3) has n = 33, so windows start at 1..30
    p = gc_params(16, 4, 3)
    monkeypatch.setattr(analysis, "encode", None)  # raises before any encode
    monkeypatch.setattr(analysis, "decode", None)  # ... or decode
    for starts, shown in (([1, 2, 31], "31"), ([2.5], "2.5"), ([0], "0"),
                          ([-1], "-1"), (["3"], "'3'"), ([None], "None")):
        with pytest.raises(InvalidPatternError,
                           match=rf"^window start {shown} outside 1\.\.30$"):
            exhaustive_oracle(p, "1100101001111000", window_starts=starts)


def _messages(k, count):
    rng = random.Random(f"oracle-sweep/{k}")
    return [format(rng.getrandbits(k), f"0{k}b") for _ in range(count)]


@pytest.mark.parametrize("args, messages, starts, failing", [
    ((64, 6, 3), _messages(64, 4), None, True),
    ((64, 6, 3), _messages(64, 1), [58, 2, 58, 45], True),  # repeated, unordered
    ((8, 4, 3), [format(v, "08b") for v in range(0, 256, 17)], None, False),
    ((9, 4, 3), [format(v, "09b") for v in range(0, 512, 37)], None, False),
    ((12, 4, 3), [format(v, "012b") for v in range(0, 4096, 301)], None, False),
    ((16, 4, 5), _messages(16, 4) + ["1100101001111000"], None, False),
], ids=["k64", "k64-starts", "m2", "m3-last1", "m3", "c5"])
def test_oracle_matches_the_every_pattern_sweep(monkeypatch, args, messages, starts,
                                                failing):
    """The oracle's report equals the sweep that decodes every pattern,
    failure_patterns in order, and it decodes each distinct word once."""
    p = gc_params(*args)
    decoded = []

    def counting_decode(y, q):
        decoded.append(y)
        return decode(y, q)

    monkeypatch.setattr(analysis, "decode", counting_decode)
    failures = 0
    for u in messages:
        decoded.clear()
        want, received = sweep_every_pattern(p, u, starts)
        assert exhaustive_oracle(p, u, starts) == want
        assert sorted(decoded) == sorted({y for _, y in received})
        assert len(decoded) < len(received)
        failures += want.failures
    assert (failures > 0) == failing


@pytest.mark.parametrize("verdict, error", [
    (DecodeResult(status=SUCCESS, message="0" * 16),
     "wrong message for pattern {pat} (start={start}, offsets={offsets})"),
    (DecodeResult(status=INVALID_INPUT, reason="stubbed refusal"),
     "decoder rejected a channel-compliant pattern {pat}: stubbed refusal"),
], ids=["wrong-message", "invalid-input"])
def test_oracle_error_names_the_first_pattern_of_its_word(monkeypatch, verdict, error):
    p = gc_params(16, 4, 3)
    u = "1100101001111000"
    _, received = sweep_every_pattern(p, u)
    # the deletion word most patterns give, at several window starts
    target, _ = Counter(y for _, y in received if len(y) < p.n).most_common(1)[0]
    pats = [pat for pat, y in received if y == target]
    assert len({pat.windows[0].start for pat in pats}) > 1
    first = pats[0]
    calls = []

    def stub_decode(y, q):
        calls.append(y)
        return verdict if y == target else decode(y, q)

    monkeypatch.setattr(analysis, "decode", stub_decode)
    with pytest.raises(MiscorrectionError) as exc:
        exhaustive_oracle(p, u)
    win = first.windows[0]
    assert str(exc.value) == error.format(pat=first, start=win.start, offsets=win.offsets)
    assert calls.count(target) == 1 and calls[-1] == target
