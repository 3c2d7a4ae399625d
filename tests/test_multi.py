"""Multi-window codec: repetition-coded parities, case enumeration, decode."""

import random
import re
import time
from functools import reduce
from itertools import combinations
from math import comb
from operator import xor
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gccodes import codec, mds, multi_window
from gccodes.analysis import bound_multi
from gccodes.channel import (
    DeletionPattern,
    Window,
    delete_localized,
    pattern_from_text,
    sample_pattern,
)
from gccodes.codec import (
    FAILURE,
    INVALID_INPUT,
    SUCCESS,
    CodeParams,
    DecodeResult,
    InvalidConfigError,
    decode,
    decode_multi,
    encode,
    encode_multi,
    evaluate_guess,
    gc_params,
    MAX_Z,
    is_subsequence,
    max_case_count,
    multi_params,
)
from gccodes.gf2e import MAX_ELL, FieldContext
from gccodes.multi_window import (
    _case_table,
    _prefix_sums,
    _screen,
    _table_top,
    enumerate_cases,
    repetition_decode,
    repetition_encode,
)
from oracles import (differing_blocks, erasure_decode, loop_parities, message_parity_bits,
                     verify_parities)


def test_repetition_encode_golden():
    assert repetition_encode("101", 3) == "111000111"
    assert repetition_encode("", 3) == ""
    assert repetition_encode("1", 1) == "1"


def test_repetition_encode_validation():
    # checked as repetition_decode checks its bits: "ab" gave "aabb"
    with pytest.raises(ValueError, match=r"^bits must contain only '0' and '1'$"):
        repetition_encode("ab", 2)
    with pytest.raises(ValueError, match=r"^bits must contain only '0' and '1'$"):
        repetition_encode("1_0", 2)
    with pytest.raises(TypeError, match="not bytes"):
        repetition_encode(b"01", 2)
    with pytest.raises(TypeError, match="not list"):
        repetition_encode(["0", "1"], 2)
    for r in (0, -1, 2.0, "2", True, None):
        with pytest.raises(ValueError, match=rf"^r={re.escape(repr(r))} must be an int of at least 1$"):
            repetition_encode("01", r)


def test_repetition_decode_golden():
    assert repetition_decode("1000111", 3, 3, 2) == "101"
    for bits in ("101", "0110", "111111"):
        assert repetition_decode(repetition_encode(bits, 4), len(bits), 4, 0) == bits


def test_repetition_decode_validation():
    with pytest.raises(ValueError):
        repetition_decode("10001110", 3, 3, 2)   # wrong length
    with pytest.raises(ValueError):
        repetition_decode("1111", 2, 3, 3)       # d = r loses a whole run
    with pytest.raises(ValueError, match=r"^bits must contain only '0' and '1'$"):
        repetition_decode("aabbx", 3, 2, 1)      # the right length, not bits
    with pytest.raises(TypeError, match="not bytes"):
        repetition_decode(b"001100", 3, 2, 0)


def test_repetition_positional_rule_exhaustive():
    # index-map argument: whatever the contents, the bit read at i*r must
    # come from the i-th original run; checked for every deletion set
    for m_bits in range(1, 7):
        for r in range(1, 6):
            total = m_bits * r
            for d in range(r):
                for gone in combinations(range(total), d):
                    keep = [i for i in range(total) if i not in set(gone)]
                    for i in range(m_bits):
                        assert keep[i * r] // r == i, (m_bits, r, gone, i)


def test_repetition_decode_content_spot_checks():
    rng = random.Random(8)
    for _ in range(200):
        m_bits, r = rng.randrange(1, 7), rng.randrange(2, 6)
        bits = "".join(rng.choice("01") for _ in range(m_bits))
        full = repetition_encode(bits, r)
        d = rng.randrange(r)
        gone = sorted(rng.sample(range(len(full)), d))
        damaged = "".join(ch for i, ch in enumerate(full) if i not in set(gone))
        assert repetition_decode(damaged, m_bits, r, d) == bits


@pytest.mark.parametrize("args", [(64, 4, 8, 2), (48, 2, 7, 3), (32, 3, 4, 1)])
def test_tail_parities_read_the_repetition_tail(args):
    """The packed parities _tail_parities reads are the message's, parity
    1 in the low lane, for any z*w or fewer deletions anywhere in the
    codeword: fewer than r leave bit i*r of y[k:] in run i."""
    mp = multi_params(*args)
    rng = random.Random(f"tail parities/{args}")
    for _ in range(200):
        u = format(rng.getrandbits(mp.k), f"0{mp.k}b")
        gone = set(rng.sample(range(mp.n), rng.randrange(mp.z * mp.w + 1)))
        y = "".join(b for i, b in enumerate(encode(u, mp)) if i not in gone)
        bits = message_parity_bits(u, mp.gen)
        want = sum(int(bits[r * mp.ell:(r + 1) * mp.ell], 2) << r * mp.ell for r in range(mp.c))
        assert multi_window._tail_parities(y, mp) == want, (args, sorted(gone))


def test_multi_params_golden():
    mp = multi_params(16, 4, 5, 2)
    assert type(mp) is CodeParams
    assert (mp.z, mp.r) == (2, 9)
    assert (mp.ell, mp.m, mp.r, mp.n) == (4, 4, 9, 196)
    mp = multi_params(64, 4, 5, 2)
    assert (mp.ell, mp.m, mp.last_block_len, mp.r, mp.n) == (6, 11, 4, 9, 334)


def test_multi_params_validation():
    with pytest.raises(InvalidConfigError):
        multi_params(64, 4, 5, 0)
    with pytest.raises(InvalidConfigError):
        multi_params(64, 4, 4, 2)       # c below 2z + 1
    with pytest.raises(InvalidConfigError):
        multi_params(16, 4, 7, 3)       # 4 blocks cannot host 3 pairs
    with pytest.raises(InvalidConfigError, match="z=4 exceeds the cap of 3 windows"):
        multi_params(256, 4, 9, 4)      # above MAX_Z


@pytest.mark.parametrize("z, bad", [(True, "z=True"), (2.0, "z=2.0"), ("2", "z='2'")])
def test_non_int_window_count_refused(z, bad):
    # a bool z would build a code with z=True and r=5; a str z would fail
    # in z * w + 1 with a bare TypeError
    for build in (multi_params, bound_multi):
        with pytest.raises(InvalidConfigError, match=f"^{re.escape(bad)} is not an int$"):
            build(64, 4, 8, z)
    with pytest.raises(InvalidConfigError, match="^w=4.0 is not an int$"):
        multi_params(64, 4.0, 8, 2)


@pytest.mark.parametrize("args, bad", [
    ((64, 6, 3, "cauchy", True, True), "z=True"),     # would build a code with n = 89
    ((64, 4, 8, "cauchy", 2, 9.0), "r=9.0"),          # would build n = 496.0
])
def test_code_params_refuse_non_int_z_and_r(args, bad):
    with pytest.raises(InvalidConfigError, match=f"^{re.escape(bad)} is not an int$"):
        CodeParams(*args)


def test_an_unaffordable_code_is_refused_before_any_table(monkeypatch):
    # 342 blocks hold C(339, 3) = 6 435 689 placements of 3 pairs, times
    # 127 splits at the richest delta; a first decode would build a
    # solver per placement. multi_params refuses it before it builds a
    # field, generator or solver, and the largest code in use still builds.
    def built(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(codec, "FieldContext", built)
    monkeypatch.setattr(mds, "make_generator", built)
    monkeypatch.setattr(mds, "log_solver", built)
    start = time.perf_counter()
    with pytest.raises(InvalidConfigError,
                       match="^817332503 cases exceed the case budget of 100000$"):
        multi_params(4096, 12, 8, 3)
    assert time.perf_counter() - start < 1
    assert max_case_count(256, 4, 8, 3) == 69_426 <= codec.MAX_CASES


def test_encode_multi_layout():
    mp = multi_params(16, 4, 5, 2)
    u = "1100101001111000"
    x = encode_multi(u, mp)
    assert len(x) == 196
    assert x[:16] == u
    assert encode_multi("0" * 16, mp) == "0" * 196
    # stripping the intact repetition recovers the direct parities
    assert repetition_decode(x[16:], mp.c * mp.ell, mp.r, 0) == \
        message_parity_bits(u, mp.gen)


def brute_cases(m, z, w, delta):
    out = set()
    def rec(prev, left, acc):
        if left == 0:
            s = sum(d for _, d in acc)
            if s == delta:
                out.add((tuple(i for i, _ in acc), tuple(d for _, d in acc)))
            return
        for i in range(prev + 2, m):
            for d in range(w + 1):
                rec(i, left - 1, acc + [(i, d)])
    rec(-1, z, [])
    return out


def test_enumerate_cases_against_brute_force():
    """The cases and their order: placements ascending, then splits in
    lexicographic order. The reported guess and the order of candidates
    follow this order."""
    for args in ((96, 2, 5, 2), (48, 2, 7, 3)):     # ell 7, m 14; ell 6, m 8
        mp = multi_params(*args)
        for delta in range(mp.z * mp.w + 1):
            got = list(enumerate_cases(mp, delta))
            assert got == sorted(brute_cases(mp.m, mp.z, mp.w, delta)), (args, delta)


@pytest.mark.parametrize("args", [(16, 4, 3, 1), (40, 3, 5, 1), (96, 2, 5, 2), (36, 3, 5, 2),
                                  (48, 2, 7, 3), (60, 3, 7, 3)])
def test_max_case_count_against_brute_force(args):
    m, w, z = multi_params(*args).m, args[1], args[3]
    assert max_case_count(*args) == max(len(brute_cases(m, z, w, delta))
                                        for delta in range(z * w + 1))


def test_enumerate_cases_counts():
    # 6 blocks give C(4,2) = 6 disjoint pair placements; 2 deletions
    # split three ways between the two windows
    mp = multi_params(36, 2, 5, 2)
    assert mp.m == 6
    assert len(list(enumerate_cases(mp, 2))) == 18
    mp4 = multi_params(20, 2, 5, 2)
    assert mp4.m == 4
    cases = list(enumerate_cases(mp4, 0))
    assert cases == [((1, 3), (0, 0))]


def test_enumerate_cases_single_window_reduces():
    p = gc_params(16, 4, 3)
    mp = multi_params(16, 4, 3, 1)
    assert [pairs[0] for pairs, _ in enumerate_cases(mp, 3)] == [1, 2, 3]
    assert all(deltas == (3,) for _, deltas in enumerate_cases(mp, 3))
    assert p.m == mp.m


U64 = "1011001110001111010101000011001010111100110100101101110001010011"


def test_one_codec_for_both_layouts():
    """encode and decode take the layout from p.r, so the multi-window
    names are the same functions; encode_multi used to drop the buffer
    whatever the params, giving 112 bits for a k = 64 word with n = 117."""
    assert encode_multi is encode and decode_multi is decode
    rng = random.Random(14)
    for p in (gc_params(64, 4, 8), gc_params(64, 4, 8, "vandermonde"),
              multi_params(64, 4, 8, 1), multi_params(64, 4, 8, 2)):
        u = format(rng.getrandbits(64), "064b")
        x = encode(u, p)
        assert x == encode_multi(u, p) and len(x) == p.n
        assert decode(x, p).message == u


@pytest.mark.parametrize("args", [(64, 4, 8, 1), (64, 4, 8, 2), (64, 4, 10, 3)],
                         ids=["z1", "z2", "z3"])
def test_decode_never_wrong_on_repetition_params(args):
    """decode on encode_multi words, 3 deletions in each window of the
    message bits. decode used to run the buffer code's guess loop on them
    whatever r was, and about half of these words came back Success with
    a wrong message."""
    mp = multi_params(*args)
    rng = random.Random(f"repetition/{args}")
    succ = 0
    for _ in range(300):
        u = format(rng.getrandbits(mp.k), f"0{mp.k}b")
        pat = sample_pattern(mp, 3, rng, "systematic-only")
        res = decode(delete_localized(encode_multi(u, mp), pat, w=mp.w, z=mp.z), mp)
        assert res.status != SUCCESS or res.message == u
        succ += res.status == SUCCESS
    assert succ >= 250


def test_decode_multi_no_deletions():
    mp = multi_params(64, 4, 5, 2)
    assert decode_multi(encode_multi(U64, mp), mp).message == U64


def test_decode_multi_two_systematic_windows():
    # 2 bits out of blocks 2-3 and 1 bit out of blocks 7-8
    mp = multi_params(64, 4, 5, 2)
    x = encode_multi(U64, mp)
    y = delete_localized(x, DeletionPattern(
        (Window(10, (0, 2)), Window(40, (1,)))), w=4, z=2)
    res = decode_multi(y, mp)
    assert res.status == SUCCESS and res.message == U64
    pairs, deltas = res.guess
    assert len(pairs) == 2 and sum(deltas) == 3


def test_decode_multi_deletions_in_repetition_region():
    # up to w missing bits anywhere behind the systematic part are
    # absorbed by a trailing-pair case; larger losses there are only
    # handled best effort, so the last pattern may be refused but must
    # never come back wrong
    mp = multi_params(64, 4, 5, 2)
    x = encode_multi(U64, mp)
    for pat_text in ("70:0,1,2", "330:0,1,2,3", "100:1,3"):
        y = delete_localized(x, pattern_from_text(pat_text), w=4, z=2)
        res = decode_multi(y, mp)
        assert res.status == SUCCESS and res.message == U64, pat_text
    y = delete_localized(x, pattern_from_text("70:0,1,3;200:0,1,2,3"), w=4, z=2)
    res = decode_multi(y, mp)
    assert res.status != SUCCESS or res.message == U64


def test_decode_multi_length_contract():
    mp = multi_params(64, 4, 5, 2)
    x = encode_multi(U64, mp)
    assert decode_multi(x + "0", mp).status == INVALID_INPUT
    assert decode_multi(x[: mp.n - 9], mp).status == INVALID_INPUT


def pair_feasible(pat, p):
    """True when ascending disjoint block pairs can cover every window."""
    prev = -1
    for win in pat.windows:
        first = (win.start - 1) // p.ell + 1
        last = (win.start + p.w - 2) // p.ell + 1
        if last - first >= 2 or last > p.m:
            return False
        cands = [first] if last > first else [
            c for c in (first - 1, first) if 1 <= c]
        cands = [c for c in cands if c >= prev + 2 and c <= p.m - 1]
        if not cands:
            return False
        prev = min(cands)
    return True


def test_decode_multi_randomized_supported_channel():
    # windows that land in distinct block pairs always come back right
    rng = random.Random(31)
    for k in (32, 64):
        mp = multi_params(k, 4, 8, 2)
        for _ in range(150):
            u = format(rng.getrandbits(k), f"0{k}b")
            x = encode_multi(u, mp)
            while True:
                pat = sample_pattern(mp, (rng.randrange(5), rng.randrange(5)),
                                     rng, mode="systematic-only")
                if pair_feasible(pat, mp):
                    break
            y = delete_localized(x, pat, w=mp.w, z=mp.z)
            res = decode_multi(y, mp)
            assert res.status == SUCCESS and res.message == u, pat


def test_decode_multi_never_wrong_tiny_exhaustive():
    # every disjoint two-window pattern starting in the first 40 bits,
    # including merged windows and straddles into the parity region; the
    # tail candidate decodes every word whose deletions all hit the tail
    mp = multi_params(16, 2, 5, 2)
    assert (mp.ell, mp.m, mp.n) == (4, 4, 116)
    u = "1100101001111000"
    x = encode_multi(u, mp)
    outcomes = {SUCCESS: 0, FAILURE: 0, INVALID_INPUT: 0}
    for s1 in range(1, 41):
        for s2 in range(s1 + mp.w, 41):
            for o1 in ((0,), (1,), (0, 1)):
                for o2 in ((0,), (1,), (0, 1)):
                    pat = DeletionPattern((Window(s1, o1), Window(s2, o2)))
                    y = delete_localized(x, pat, w=mp.w, z=mp.z)
                    res = decode_multi(y, mp)
                    outcomes[res.status] += 1
                    if res.status == SUCCESS:
                        assert res.message == u, (s1, s2, o1, o2)
                    if pair_feasible(pat, mp):
                        assert res.status == SUCCESS, (s1, s2, o1, o2)
    assert outcomes == {SUCCESS: 6026, FAILURE: 0, INVALID_INPUT: 643}


def feasible_words(mp, count, seed):
    """Seeded (message, received) pairs whose windows sit in distinct,
    disjoint block pairs of the message."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        u = format(rng.getrandbits(mp.k), f"0{mp.k}b")
        while True:
            pat = sample_pattern(mp, tuple(rng.randrange(mp.w + 1) for _ in range(mp.z)),
                                 rng, mode="systematic-only")
            if pair_feasible(pat, mp):
                break
        out.append((u, delete_localized(encode_multi(u, mp), pat, w=mp.w, z=mp.z)))
    return out


def test_decode_multi_three_windows():
    mp = multi_params(64, 2, 7, 3)
    assert (mp.ell, mp.m, mp.r) == (6, 11, 7)
    for u, y in feasible_words(mp, 40, seed=53):
        res = decode_multi(y, mp)
        assert res.status == SUCCESS and res.message == u, y


def test_decode_multi_solvers_cached_and_bounded(monkeypatch):
    solved = []
    real = mds.log_solver

    def counted(gen, erased):
        solved.append(erased)
        return real(gen, erased)

    monkeypatch.setattr(mds, "log_solver", counted)
    mp = multi_params(64, 4, 8, 2)
    assert solved == []                   # building params solves no system
    words = feasible_words(mp, 6, seed=5)
    u, y = words[0]
    assert decode_multi(y, mp).message == u
    placements = comb(mp.m - mp.z, mp.z)
    assert len(solved) == len(set(solved)) == placements

    def no_elimination(*args):
        raise AssertionError("elimination on a cached placement")

    monkeypatch.setattr(FieldContext, "inv", no_elimination)
    for u, y in words[1:]:
        res = decode_multi(y, mp)
        assert res.status == SUCCESS and res.message == u
    assert len(solved) == placements


def test_one_code_keeps_both_screens_tables():
    # evaluate_guess runs the pair screen on any code, so one
    # multi-window code can keep both screens' tables in its one store:
    # the pair screen, then the case screen, then both again, each give
    # what they give on a fresh code
    args = (64, 4, 8, 2)
    mp = multi_params(*args)
    words = feasible_words(mp, 6, seed=41)
    rng = random.Random(41)
    guesses = []
    for u, _ in words:
        bits = message_parity_bits(u, mp.gen)
        parities = [int(bits[q * mp.ell:(q + 1) * mp.ell], 2) for q in range(mp.c)]
        guesses.append((u[:mp.k - rng.randrange(mp.w + 1)], rng.randrange(1, mp.m), parities))

    def pair_screen(p):
        return [evaluate_guess(s, i, parities, p) for s, i, parities in guesses]

    def case_screen(p):
        return [decode_multi(y, p) for _, y in words]

    want_pairs, want_cases = pair_screen(multi_params(*args)), case_screen(multi_params(*args))
    assert all(res.message == u for res, (u, _) in zip(want_cases, words))
    assert any(g.parities_ok for g in want_pairs) and not all(g.parities_ok for g in want_pairs)
    assert pair_screen(mp) == want_pairs and list(mp._tables) == ["pair screen"]
    assert case_screen(mp) == want_cases
    deltas = {mp.n - len(y) for _, y in words}
    # and the engine's block-reading masks, once a case was tested
    assert mp._tables.keys() - {"readings"} == {"pair screen", "case screen", *deltas}
    assert pair_screen(mp) == want_pairs and case_screen(mp) == want_cases


def subsequence(sub, sup):
    """Greedy two-pointer test, local to the tests."""
    i = 0
    for ch in sup:
        if i < len(sub) and sub[i] == ch:
            i += 1
    return i == len(sub)


def reference_decode_multi(y, mp):
    """decode_multi by the definition, one case at a time: read every
    intact block at the shift of the windows before it, erasure-decode the
    2z damaged blocks from parities 1..2z, check the spare parities, the
    padding and each pair's supersequence test, and rebuild the message
    from the blocks. Then the tail candidate: with delta >= 1, y[:k] when
    its c parities are the ones read off the tail, with guess None."""
    k, w, c, z, ell, m = mp.k, mp.w, mp.c, mp.z, mp.ell, mp.m
    last, n, t = mp.last_block_len, mp.n, 2 * mp.z
    if len(y) > n:
        return DecodeResult(INVALID_INPUT, reason=f"{len(y)} bits exceed the code length {n}")
    if len(y) < n - z * w:
        return DecodeResult(
            INVALID_INPUT, reason=f"{n - len(y)} deletions exceed the budget z*w = {z * w}")
    delta = n - len(y)
    # y[k:] is the repetition tail short of delta < r bits, so its bit q*r
    # still lies in the run of r copies of parity bit q
    parity_bits = y[k::mp.r][:c * ell]
    parities = [int(parity_bits[q * ell:(q + 1) * ell], 2) for q in range(c)]
    s = y[:k - delta]
    winners = {}
    for pairs, deltas in enumerate_cases(mp, delta):
        erased = [e for i in pairs for e in (i, i + 1)]
        symbols = [None] * m
        for j in range(1, m + 1):
            if j not in erased:
                shift = sum(d for i, d in zip(pairs, deltas) if i < j)
                start, blen = (j - 1) * ell - shift, last if j == m else ell
                bits = s[start:start + blen]
                assert start >= 0 and len(bits) == blen, (pairs, deltas, j)
                symbols[j - 1] = int(bits, 2) << (ell - blen)
        filled = erasure_decode(symbols, erased, parities[:t], range(1, t + 1), mp.gen)
        if not verify_parities(filled, parities[t:], range(t + 1, c + 1), mp.gen):
            continue
        if erased[-1] == m and filled[m - 1] % (1 << (ell - last)):
            continue
        blocks = "".join(format(v, f"0{ell}b") for v in filled)
        cum = 0
        for i, d in zip(pairs, deltas):
            region = s[(i - 1) * ell - cum:min((i + 1) * ell, k) - cum - d]
            cum += d
            if not subsequence(region, blocks[(i - 1) * ell:min((i + 1) * ell, k)]):
                break
        else:
            winners.setdefault(blocks[:k], (pairs, deltas))
    if delta and message_parity_bits(y[:k], mp.gen) == parity_bits:
        winners.setdefault(y[:k], None)
    if not winners:
        return DecodeResult(INVALID_INPUT, reason="no deletion placement is consistent")
    if len(winners) == 1:
        (cand, case), = winners.items()
        return DecodeResult(SUCCESS, message=cand, guess=case)
    return DecodeResult(FAILURE, candidates=tuple(winners))


def test_decode_multi_matches_reference():
    statuses = {}
    for args, count in (
        ((16, 4, 3, 1, "cauchy"), 400),      # ell 4, m 4: some words fail
        ((40, 3, 5, 1, "cauchy"), 40),       # ell 6, last block 4 bits
        ((30, 3, 4, 1, "vandermonde"), 40),  # ell 5, whole blocks
        ((64, 4, 8, 2, "cauchy"), 40),       # ell 6, last block 4 bits
        ((50, 3, 6, 2, "vandermonde"), 40),  # ell 6, last block 2 bits
        ((48, 2, 7, 3, "cauchy"), 40),       # ell 6, whole blocks
        ((45, 2, 8, 3, "vandermonde"), 40),  # ell 6, last block 3 bits
    ):
        mp = multi_params(*args)
        rng = random.Random(f"reference/{args}")
        words = []
        for t in range(count):
            u = format(rng.getrandbits(mp.k), f"0{mp.k}b")
            deltas = tuple(rng.randrange(mp.w + 1) for _ in range(mp.z))
            mode = ("whole-codeword", "systematic-only")[t % 2]
            pat = sample_pattern(mp, deltas if mp.z > 1 else deltas[0], rng, mode)
            words.append(delete_localized(encode_multi(u, mp), pat, w=mp.w, z=mp.z))
        for _ in range(8):      # not from the channel, lengths in and around the range
            length = mp.n - rng.randrange(-1, mp.z * mp.w + 2)
            words.append(format(rng.getrandbits(length), f"0{length}b"))
        for y in words:
            want = reference_decode_multi(y, mp)
            assert decode_multi(y, mp) == want, (args, y)
            statuses[want.status] = statuses.get(want.status, 0) + 1
    assert statuses.keys() == {SUCCESS, FAILURE, INVALID_INPUT}, statuses


@st.composite
def small_multi_words(draw):
    """(received word, params) of a small multi-window code: z <= 3, the
    per-window deletion counts each in 0..w, either sampling mode."""
    z = draw(st.integers(1, 3))
    w = draw(st.integers(1, 4))
    c = draw(st.integers(2 * z + 1, 2 * z + 3))
    k = draw(st.integers(max(8, 12 * z - 8), 72))
    kind = draw(st.sampled_from(["cauchy", "vandermonde"]))
    deltas = tuple(draw(st.lists(st.integers(0, w), min_size=z, max_size=z)))
    mode = draw(st.sampled_from(["whole-codeword", "systematic-only"]))
    seed = draw(st.integers(0, 2**32 - 1))
    return word_for(k, w, c, z, kind, deltas, mode, seed)


def word_for(k, w, c, z, kind, deltas, mode, seed):
    try:
        mp = multi_params(k, w, c, z, kind)
    except InvalidConfigError:
        assume(False)
    rng = random.Random(seed)
    u = format(rng.getrandbits(k), f"0{k}b")
    pat = sample_pattern(mp, deltas, rng, mode)
    return delete_localized(encode_multi(u, mp), pat, w=w, z=z), mp


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_multi_words())
@example(word_for(16, 4, 3, 1, "cauchy", (0,), "whole-codeword", 1))         # delta = 0
@example(word_for(64, 4, 8, 2, "cauchy", (0, 0), "systematic-only", 2))
@example(word_for(48, 2, 7, 3, "vandermonde", (0, 0, 0), "whole-codeword", 3))
@example(word_for(64, 4, 8, 2, "cauchy", (0, 3), "systematic-only", 4))      # one window deletes
@example(word_for(50, 3, 6, 2, "vandermonde", (2, 0), "whole-codeword", 5))
@example(word_for(48, 2, 7, 3, "cauchy", (0, 2, 0), "systematic-only", 6))
@example(word_for(45, 2, 8, 3, "vandermonde", (0, 0, 1), "whole-codeword", 7))
def test_decode_multi_matches_reference_property(word):
    y, mp = word
    assert decode_multi(y, mp) == reference_decode_multi(y, mp)


def plain_tail_rule(y, mp):
    """decode with the tail candidate by its plain rule: the result of the
    screened cases alone (decode with the tail check turned off), then,
    for a word missing delta >= 1 bits, y[:k] added with guess None
    whenever parity_bits(y[:k]) is the bit string read off the tail,
    whatever the cases found. No skip and no parity-1-first test."""
    with patch.object(codec, "_parities_hold", lambda *args: False):
        cases = decode(y, mp)
    u, delta = y[:mp.k], mp.n - len(y)
    if codec._check_received(y, mp) or not delta:
        return cases
    if codec.parity_bits(u, mp) != y[mp.k::mp.r][:mp.c * mp.ell]:
        return cases
    found = {SUCCESS: (cases.message,), FAILURE: cases.candidates}.get(cases.status, ())
    if u in found:
        return cases
    if not found:
        return DecodeResult(SUCCESS, message=u, guess=None)
    return DecodeResult(FAILURE, candidates=(*found, u))


@pytest.mark.parametrize("args", [
    (32, 3, 4, 1), (40, 2, 3, 1, "vandermonde"), (64, 4, 8, 2), (50, 3, 6, 2, "vandermonde"),
    (48, 2, 7, 3), (60, 2, 8, 3, "vandermonde"),
], ids=["z1", "z1-vandermonde", "z2", "z2-vandermonde", "z3", "z3-vandermonde"])
def test_tail_candidate_is_the_plain_rule(args):
    """Seeded words of the channel, both sampling modes in turn, each
    window's deletions uniform in 0..w: decode equals the plain rule. So
    skipping the tail check when a case already found y[:k] is exact
    (every candidate has all c parities, and decide keeps the first guess
    of a candidate), and so is testing parity 1 first. At z > 1 the tail
    candidate decodes some words no case explains."""
    mp = multi_params(*args)
    rng = random.Random(f"tail/{args}")
    kinds = set()
    for t in range(300):
        u = format(rng.getrandbits(mp.k), f"0{mp.k}b")
        deltas = tuple(rng.randrange(mp.w + 1) for _ in range(mp.z))
        pat = sample_pattern(mp, deltas, rng, ("whole-codeword", "systematic-only")[t % 2])
        y = delete_localized(encode(u, mp), pat)
        res = decode(y, mp)
        assert res == plain_tail_rule(y, mp), (args, y)
        assert res.status != SUCCESS or res.message == u
        tail = y[:mp.k] == u and mp.n > len(y)
        kinds.add("found" if tail and res.guess else "added" if tail else "cases")
    assert kinds == {"found", "cases", "added"} if mp.z > 1 else {"found", "cases"}, kinds


def test_tail_candidate_is_skipped_only_when_a_case_gave_it(monkeypatch):
    """A word with one window in the tail: a case gives the message, so
    the tail candidate adds nothing. When every case gives another
    message (_candidate patched), the tail candidate still follows it and
    decide refuses to choose; when no case gives one, it decodes alone."""
    mp = multi_params(64, 4, 8, 2)
    u = format(0x7CE42C8218072E8C, "064b")
    y = delete_localized(encode(u, mp), pattern_from_text(f"{mp.k + 9}:0,2,3"))
    res = decode(y, mp)
    assert res.status == SUCCESS and res.message == u and res.guess is not None
    other = u[::-1]
    monkeypatch.setattr(codec, "_candidate", lambda *args: other)
    assert decode(y, mp) == DecodeResult(FAILURE, candidates=(other, u))
    monkeypatch.setattr(codec, "_candidate", lambda *args: None)
    assert decode(y, mp) == DecodeResult(SUCCESS, message=u, guess=None)


def tail_words(mp, count, seed):
    """Seeded (message, received) pairs whose z windows all sit in the
    parity tail, starts uniform over the disjoint placements there and
    each window's deletions uniform in 0..w."""
    rng = random.Random(seed)
    room = mp.n - mp.k - mp.w + 1 - (mp.z - 1) * (mp.w - 1)
    words = []
    for _ in range(count):
        u = format(rng.getrandbits(mp.k), f"0{mp.k}b")
        starts = sorted(rng.sample(range(1, room + 1), mp.z))
        pat = DeletionPattern(tuple(
            Window(mp.k + t + j * (mp.w - 1), tuple(sorted(rng.sample(range(mp.w),
                                                                       rng.randrange(mp.w + 1)))))
            for j, t in enumerate(starts)))
        words.append((u, delete_localized(encode(u, mp), pat, w=mp.w, z=mp.z)))
    return words


@pytest.mark.parametrize("args, count", [((64, 4, 8, 2), 1500), ((48, 2, 7, 3), 500)],
                         ids=["z2", "z3"])
def test_no_all_tail_word_is_invalid(args, count):
    """Every deletion in the repetition tail leaves y[:k] the message and
    the tail's readout its parities (fewer than r bits missing), so the
    word decodes, with more than w deletions too, where no case explains
    it: without the tail candidate, 392 of the z = 2 words and 312 of the
    z = 3 words come back InvalidInput."""
    mp = multi_params(*args)
    statuses, beyond = {}, 0
    for u, y in tail_words(mp, count, seed=f"all-tail/{args}"):
        res = decode(y, mp)
        assert res.status == SUCCESS and res.message == u, (args, y, res)
        statuses[res.guess is None] = statuses.get(res.guess is None, 0) + 1
        beyond += mp.n - len(y) > mp.w
    assert statuses.keys() == {True, False} and beyond > count // 3, (statuses, beyond)


def test_decode_multi_tests_only_damaged_pairs_once(monkeypatch):
    # Every placement holding the same damaged pairs with the same shares
    # yields the same candidate, so each (damaged pairs, shares) reaches
    # _candidate at most once per decode, at the first case of
    # enumerate_cases that holds it. A pair placed at a zero share goes
    # through the same supersequence test, at its full length.
    mp = multi_params(64, 4, 8, 2)
    rng = random.Random(97)
    calls, cases = [], []

    def counted(region, dec):
        calls.append((region, dec))
        return is_subsequence(region, dec)

    real_candidate = codec._candidate

    def candidate(*args):
        cases[-1].append(args[2:4])
        return real_candidate(*args)

    def damaged(case):
        return tuple((i, d) for i, d in zip(*case) if d)

    monkeypatch.setattr(codec, "is_subsequence", counted)
    monkeypatch.setattr(codec, "_candidate", candidate)
    for _ in range(200):
        u = format(rng.getrandbits(mp.k), f"0{mp.k}b")
        deltas = (rng.randrange(mp.w + 1), rng.randrange(mp.w + 1))
        y = delete_localized(encode_multi(u, mp), sample_pattern(mp, deltas, rng))
        cases.append([])
        res = decode_multi(y, mp)
        assert res.status != SUCCESS or res.message == u
        keys = [damaged(case) for case in cases[-1]]
        assert len(keys) == len(set(keys)), keys
        if cases[-1]:
            firsts = {}
            for case in enumerate_cases(mp, mp.n - len(y)):
                firsts.setdefault(damaged(case), case)
            assert all(firsts[key] == case for key, case in zip(keys, cases[-1]))
    assert all(len(region) <= len(dec) for region, dec in calls)
    assert any(len(region) == len(dec) for region, dec in calls)
    checked = [case for per_word in cases for case in per_word]
    assert calls and any(0 in deltas for _, deltas in checked), (len(calls), len(checked))


def test_skipped_cases_change_no_result(monkeypatch):
    # The engine skips a passing case whose block readings differ in at
    # most c blocks from those of a case that gave a candidate: every
    # candidate of a word has the word's c parities, and c parity rows
    # have full rank on any c blocks, so the skipped case gives that
    # candidate or none. With the skip turned off, every result is the
    # same, and on each code the skip fired.
    near = codec._near
    for args, count in (((64, 4, 8, 2), 2000), ((48, 2, 7, 3), 500),
                        ((50, 3, 6, 2, "vandermonde"), 500)):
        mp = multi_params(*args)
        rng = random.Random(f"skip/{args}")
        words = []
        for _ in range(count):
            u = format(rng.getrandbits(mp.k), f"0{mp.k}b")
            deltas = tuple(rng.randrange(mp.w + 1) for _ in range(mp.z))
            words.append(delete_localized(encode_multi(u, mp), sample_pattern(mp, deltas, rng)))
        skips = []

        def counted(*case):
            skips.append(near(*case))
            return skips[-1]

        monkeypatch.setattr(codec, "_near", counted)
        skipping = [decode_multi(y, mp) for y in words]
        monkeypatch.setattr(codec, "_near", lambda *case: False)
        assert [decode_multi(y, mp) for y in words] == skipping, args
        assert any(skips), args


@st.composite
def case_pairs(draw):
    """Two cases on m blocks: z disjoint adjacent pairs each, named by
    their lower block, with a share of 0..MAX_ELL (w <= ell <= MAX_ELL)."""
    z = draw(st.integers(1, MAX_Z))
    m = draw(st.integers(2 * z, 400))
    cases = []
    for _ in range(2):
        lows = sorted(draw(st.lists(st.integers(1, m - z), min_size=z, max_size=z, unique=True)))
        shares = draw(st.lists(st.integers(0, MAX_ELL), min_size=z, max_size=z))
        cases.append((tuple(q + t for t, q in enumerate(lows)), tuple(shares)))
    return m, cases


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case_pairs())
@example((11, [((3,), (4,)), ((4,), (4,))]))            # adjacent guesses: 3 blocks differ
@example((11, [((2, 7), (0, 3)), ((2, 7), (0, 3))]))    # one case: only its 4 damaged blocks
@example((20, [((1, 5, 18), (20, 20, 20)), ((3, 9, 12), (0, 0, 0))]))  # shifts 60 apart
def test_lane_count_is_the_block_count(pair):
    # codec._differing counts in byte lanes what the oracle counts block
    # by block, either way round; of a code it reads m and the table
    # store only
    m, (case, other) = pair
    code = SimpleNamespace(m=m, _tables={})
    assert codec._differing(*case, *other, code) == differing_blocks(case, other, m)
    assert codec._differing(*other, *case, code) == differing_blocks(case, other, m)


@pytest.mark.parametrize("pairs, deltas, cut", [
    ((1, 10), (0, 3), (55, 58)),          # the last pair lost bits 55..57
    ((1, 10), (3, 0), (2, 5)),            # the first pair lost bits 2..4
], ids=["last-pair-damaged", "last-pair-intact"])
def test_candidate_refuses_set_padding_of_the_last_block(pairs, deltas, cut):
    mp = multi_params(64, 4, 8, 2)        # ell 6, m 11, last block 4 bits
    ell, log, exp = mp.ell, mp.ctx.log, mp.ctx.exp
    blocks = [int(U64[j:j + ell].ljust(ell, "0"), 2) for j in range(0, mp.k, ell)]
    s = U64[:cut[0]] + U64[cut[1]:]
    # solve row j copies the logs of syndrome j through, so with the logs
    # of the true blocks the case solves to exactly those blocks
    solve = [tuple(0 if r == j else log[0] for r in range(4)) for j in range(4)]
    true = [blocks[i - 1 + e] for i in pairs for e in (0, 1)]
    for padding, want in ((0, U64), (1, None), (0b10, None)):
        lh = [log[v] for v in true[:3] + [true[3] | padding]]
        sol = [reduce(xor, (exp[lw + lv] for lw, lv in zip(lws, lh))) for lws in solve]
        assert sol == true[:3] + [true[3] | padding]
        assert codec._candidate(s, mp, pairs, deltas, sol) == want


def test_case_off_the_last_shift_raises(monkeypatch):
    # with delta = 5 the group at shift 2 ends at block 10: block 11 read
    # at shift 2 runs past the end of s, so its entry holds no prefix sum.
    # The case table checks every read against its group's last block, so
    # a read past it raises when the table is built instead of taking
    # that entry
    mp = multi_params(64, 4, 8, 2)        # ell 6, m 11
    m, delta = mp.m, 5
    assert _table_top(mp, delta, 2) == 10 and _table_top(mp, delta, delta) == m
    real = multi_window._table_top

    def shorter(p, d, shift):               # the shift-2 group two blocks short
        return real(p, d, shift) - 2 * (shift == 2)

    monkeypatch.setattr(multi_window, "_table_top", shorter)
    with pytest.raises(IndexError, match="past the end"):
        _case_table(mp, delta)
    assert delta not in mp._tables
    monkeypatch.setattr(multi_window, "_table_top", real)
    cases = _case_table(mp, delta)
    g = cases.shifts.index(2)
    assert 0 < g < len(cases.shifts) - 1     # a middle group, read up to block 9
    size = len(cases.shifts) * (m + 1)       # entries in one copy of the groups
    index = tuple(range(len(cases.layout) * size))
    read = [e % size for get in cases.reads for e in get(index)]   # in every copy
    blocks = {g * (m + 1) + m - e for e in read if g * (m + 1) <= e < (g + 1) * (m + 1)}
    assert max(blocks) == 9


def oracle_prefix(s, shift, j, mp):
    """The packed parity contributions of blocks 1..j of s read shift bits
    early, each sliced off s and multiplied one product at a time; a
    block that starts before s counts as zero, a short last block is
    padded with zeros at the low end."""
    ell, m = mp.ell, mp.m
    symbols = [0] * m
    for b in range(1, j + 1):
        start, blen = (b - 1) * ell - shift, mp.last_block_len if b == m else ell
        if start >= 0:
            bits = s[start:start + blen]
            assert len(bits) == blen, (shift, j, b)
            symbols[b - 1] = int(bits, 2) << (ell - blen)
    return mds.pack(loop_parities(symbols, mp.gen), ell)


@pytest.mark.parametrize("args", [
    (64, 4, 8, 1),                        # last block 4 bits
    (64, 4, 8, 2),
    (96, 4, 10, 3),                       # last block 5 bits
    (50, 3, 6, 2, "vandermonde"),         # last block 2 bits
    (120, 13, 5, 2),                      # ell 13
], ids=["z1", "z2", "z3", "vandermonde", "ell13"])
def test_prefix_sums_match_the_oracle(args):
    """Every entry a case can read, in every group: blocks 1..j of s at
    the group's shift, up to its _table_top, and in the last group, at
    delta, the parities xor blocks j+1..m. With z > 1 the same again with
    the first segment of a first pair at j - 1 folded in ("head": blocks
    1..j-2 at shift 0), and with the last segment of a last pair at j + 1
    ("tail": the parities xor blocks j+3..m at delta)."""
    mp = multi_params(*args)
    ell, m, c = mp.ell, mp.m, mp.c
    rng = random.Random(f"prefix/{args}")
    for delta in range(mp.z * mp.w + 1):
        s = format(rng.getrandbits(mp.k - delta), f"0{mp.k - delta}b")
        parities = mds.pack([rng.getrandbits(ell) for _ in range(c)], ell)
        cases = _case_table(mp, delta)
        entries = _prefix_sums(s, parities, mp, cases)
        size = len(cases.shifts) * (m + 1)
        assert cases.layout == (("head", "tail", "sums")[:mp.z] if mp.z > 1 else ("sums",))
        assert len(entries) == len(cases.layout) * size
        assert {len(e) for e in entries} == {cases.lanes.nb}
        assert cases.shifts[0] == 0 and cases.shifts[-1] == delta
        last, top = len(cases.shifts) - 1, _table_top(mp, delta, 0)
        after = parities ^ oracle_prefix(s, delta, m, mp)   # parities xor all of s at delta
        for t, name in enumerate(cases.layout):
            for g, shift in enumerate(cases.shifts):
                for j in range(_table_top(mp, delta, shift) + 1):
                    want = oracle_prefix(s, shift, j, mp)
                    if g == last:
                        want ^= after
                    if name == "head" and j >= 2:
                        if j - 2 > top:           # no first pair at j - 1 is read
                            continue
                        want ^= oracle_prefix(s, 0, j - 2, mp)
                    if name == "tail" and j <= m - 2:
                        want ^= after ^ oracle_prefix(s, delta, j + 2, mp)
                    got = int.from_bytes(entries[t * size + g * (m + 1) + m - j], "little")
                    assert got == want, (args, delta, name, shift, j)


def oracle_case(s, parities, pairs, deltas, mp):
    """The packed syndromes of a case, whether each of its spare parities
    holds and its 2z damaged blocks, by the definition: every intact block
    sliced off s at the shift of the windows before it, the damaged blocks
    erasure-decoded from parities 1..2z, then parities 2z+1..c recomputed
    from all blocks."""
    ell, m, t = mp.ell, mp.m, 2 * mp.z
    erased = [e for i in pairs for e in (i, i + 1)]
    symbols = [None] * m
    for j in range(1, m + 1):
        if j not in erased:
            shift = sum(d for i, d in zip(pairs, deltas) if i < j)
            start, blen = (j - 1) * ell - shift, mp.last_block_len if j == m else ell
            bits = s[start:start + blen]
            assert start >= 0 and len(bits) == blen, (pairs, deltas, j)
            symbols[j - 1] = int(bits, 2) << (ell - blen)
    intact = loop_parities([v or 0 for v in symbols], mp.gen)
    syndromes = mds.pack([a ^ b for a, b in zip(parities, intact)], ell)
    filled = erasure_decode(symbols, erased, parities[:t], range(1, t + 1), mp.gen)
    holds = [got == want for got, want in zip(loop_parities(filled, mp.gen)[t:], parities[t:])]
    return syndromes, holds, [filled[e - 1] for e in erased]


def solved(screened, passed, mp):
    """multi_window._solved with every case solved (_solve), as the
    engine solves the cases it does not skip."""
    return [(pairs, deltas, multi_window._solve(at, mp))
            for pairs, deltas, at in multi_window._solved(screened, passed, mp)]


def screen_case(screened, i):
    """Case i of a _screen result as (pairs, shares, solve rows, packed
    syndromes): its placement row and split off the case table, its
    syndromes off block i of the gathered int."""
    cases, syn = screened
    pairs, solve, _ = cases.lanes.placements[cases.rows[i]]
    return (pairs, cases.splits[cases.shares[i]], solve,
            syn >> 8 * cases.lanes.nb * i & cases.lanes.syndromes)


@pytest.mark.parametrize("args, count", [
    ((16, 2, 5, 2), 30),                  # one placement
    ((64, 4, 8, 1), 30),
    ((50, 3, 6, 2, "vandermonde"), 30),
    ((100, 4, 10, 2), 24),                # c*ell = 70 > 64
    ((96, 4, 10, 3), 9),                  # c*ell = 70 > 64, z = 3
    ((120, 13, 5, 2), 12),                # ell 13
    ((100, 19, 5, 2), 12),                # ell 19
], ids=["one-placement", "z1", "vandermonde", "z2-c10", "z3-c10", "ell13", "ell19"])
def test_screen_lanes_match_the_oracle(args, count):
    """Every lane of the case screen, not only the survivors: its case is
    the next one of enumerate_cases that checks a new (damaged pairs,
    shares) set, its syndromes are the oracle's and its verdict is the
    oracle's on the screened spare parities, the first min(2, c - 2z).
    _solved hands over every lane that passed, and _solve, on any lane,
    gives the oracle's erased blocks exactly when every other spare
    parity holds, and None otherwise.
    The words are channel words with their true parities (the true case
    passes), random bits and parities (most fail) and zeros (all pass),
    then one all-tail word per delta: every deletion in the parity tail,
    so s is the message cut short and the parities its own. Several
    splits of one placement pass those, and share one solve. At delta 0,
    and at delta 4 of the one-placement code, a read takes one case."""
    mp = multi_params(*args)
    ell, c = mp.ell, mp.c
    rng = random.Random(f"screen/{args}")
    words = []
    for t in range(count):
        u = format(rng.getrandbits(mp.k), f"0{mp.k}b")
        deltas = tuple(rng.randrange(mp.w + 1) for _ in range(mp.z))
        delta = sum(deltas)
        if t % 3 == 0:
            pat = sample_pattern(mp, deltas, rng, "systematic-only")
            s = delete_localized(u, pat)
            bits = message_parity_bits(u, mp.gen)
            parities = [int(bits[q * ell:(q + 1) * ell], 2) for q in range(c)]
        elif t % 3 == 1:
            s = format(rng.getrandbits(mp.k - delta), f"0{mp.k - delta}b")
            parities = [rng.getrandbits(ell) for _ in range(c)]
        else:
            s, parities = "0" * (mp.k - delta), [0] * c
        words.append((s, parities))
    for delta in range(mp.z * mp.w + 1):
        u = format(rng.getrandbits(mp.k), f"0{mp.k}b")
        bits = message_parity_bits(u, mp.gen)
        words.append((u[:mp.k - delta], [int(bits[q * ell:(q + 1) * ell], 2) for q in range(c)]))
    screened_spares = min(2, c - 2 * mp.z)
    verdicts, shared, single, refused = set(), 0, 0, 0
    for s, parities in words:
        delta = mp.k - len(s)
        screened, passed = _screen(s, mds.pack(parities, ell), mp)
        firsts = {}
        for pairs, shares in enumerate_cases(mp, delta):
            firsts.setdefault(tuple((i, d) for i, d in zip(pairs, shares) if d), (pairs, shares))
        assert len(passed) == len(firsts)
        assert set(passed) <= {0, 1}
        lanes = [screen_case(screened, i) for i in range(len(passed))]
        assert [(pairs, shares) for pairs, shares, _, _ in lanes] == list(firsts.values())
        sols, oracle = {}, []
        for (pairs, shares, _, syndromes), ok in zip(lanes, passed):
            want, holds, blocks = oracle_case(s, parities, pairs, shares, mp)
            want_ok = all(holds[:screened_spares])
            assert (syndromes, bool(ok)) == (want, want_ok), (args, delta, pairs, shares)
            verdicts.add(bool(ok))
            oracle.append(blocks if all(holds[screened_spares:]) else None)
            refused += oracle[-1] is None
            if ok:
                sols.setdefault((pairs, want), []).append(shares)
        assert solved(screened, passed, mp) == [
            (pairs, shares, blocks)
            for (pairs, shares, _, _), blocks, ok in zip(lanes, oracle, passed) if ok]
        # every lane solved, passed or not: a solve is shared only by cases
        # with the same syndromes
        every = solved(screened, b"\1" * len(passed), mp)
        assert [sol for _, _, sol in every] == oracle
        shared += sum(len(splits) > 1 for splits in sols.values())
        single += len(passed) == 1
    # the same syndromes for every lane of the last word, nonzero solving
    # ones and the spare ones the first lane's blocks give: a solve is
    # shared only by cases of one placement
    t = 2 * mp.z

    def blocks_and_spares(pairs):
        erased = [e for i in pairs for e in (i, i + 1)]
        filled = erasure_decode([0] * mp.m, erased, values, range(1, t + 1), mp.gen)
        return [filled[e - 1] for e in erased], loop_parities(filled, mp.gen)[t:]

    values = [rng.randrange(1, 1 << ell) for _ in range(t)]
    spares = blocks_and_spares(lanes[0][0])[1]
    cases, nb = screened[0], screened[0].lanes.nb
    same = int.from_bytes(mds.pack(values + spares, ell).to_bytes(nb, "little") * len(passed),
                          "little")
    fixed = [sol for _, _, sol in solved((cases, same), b"\1" * len(passed), mp)]
    by_pairs = {}
    for pairs, _, _, _ in lanes:
        blocks, own = blocks_and_spares(pairs)
        by_pairs.setdefault(pairs, blocks if own[screened_spares:] == spares[screened_spares:]
                            else None)
    assert fixed == [by_pairs[pairs] for pairs, _, _, _ in lanes]
    assert fixed[0] is not None
    assert len(by_pairs) > 1 or len(multi_window._lanes(mp).placements) == 1
    assert verdicts == {False, True}
    assert refused or c - t <= 2              # a solve refused a case
    assert shared or mp.z == 1                # a solve was reused
    assert single                             # a read of one case, at delta 0 at least


def oracle_spares(s, parities, pairs, deltas, mp):
    """Whether each spare parity 2z+1..c of a case holds, product by
    product: the case's blocks (intact ones read off s, damaged ones
    erasure-decoded from parities 1..2z), then each spare parity
    recomputed from them one field product at a time."""
    ell, m, t = mp.ell, mp.m, 2 * mp.z
    erased = [e for i in pairs for e in (i, i + 1)]
    symbols = [None] * m
    for j in range(1, m + 1):
        if j not in erased:
            shift = sum(d for i, d in zip(pairs, deltas) if i < j)
            start, blen = (j - 1) * ell - shift, mp.last_block_len if j == m else ell
            symbols[j - 1] = int(s[start:start + blen], 2) << (ell - blen)
    filled = erasure_decode(symbols, erased, parities[:t], range(1, t + 1), mp.gen)
    return [got == want for got, want in zip(loop_parities(filled, mp.gen)[t:], parities[t:])]


@pytest.mark.parametrize("args", [(64, 4, 8, 2), (48, 2, 8, 3)], ids=["z2", "z3"])
def test_screen_verdict_is_every_spare_group(args):
    """The screen's verdict and _solve's, case by case, against the
    product-by-product oracle, on codes whose two screened spare groups
    fill the case block: its top bit, where the verdict's carry lands, is
    the top bit of the second group's last lane. Each word is a channel
    word whose spare parity q has one bit b flipped, for every q and b, so
    that some case fails spare parity q alone: in group q - 2z, with one
    bit set in that group's lane 0, at every bit of both groups, and past
    them in _solve. Then the same word unflipped, where its true case
    passes. A lane passes exactly when the first two spare parities hold,
    and _solve gives blocks exactly when the others hold, None otherwise."""
    mp = multi_params(*args)
    ell, c, t = mp.ell, mp.c, 2 * mp.z
    assert 8 * multi_window._lanes(mp).nb == max(2 * t, c) * ell == 2 * t * ell
    rng = random.Random(f"verdict/{args}")
    alone, verdicts = set(), set()
    for q in range(t, c):
        for b in range(ell):
            u = format(rng.getrandbits(mp.k), f"0{mp.k}b")
            deltas = tuple(rng.randrange(mp.w + 1) for _ in range(mp.z))
            s = delete_localized(u, sample_pattern(mp, deltas, rng, "systematic-only"))
            bits = message_parity_bits(u, mp.gen)
            for flip in (0, 1 << b):
                parities = [int(bits[r * ell:(r + 1) * ell], 2) for r in range(c)]
                parities[q] ^= flip
                screened, passed = _screen(s, mds.pack(parities, ell), mp)
                sols = solved(screened, b"\1" * len(passed), mp)
                for i, ok in enumerate(passed):
                    pairs, shares, _, _ = screen_case(screened, i)
                    holds = oracle_spares(s, parities, pairs, shares, mp)
                    assert ok == all(holds[:2]), (args, q, b, flip, pairs, shares)
                    assert (sols[i][2] is None) == (not all(holds[2:])), (args, q, b, pairs)
                    verdicts.add(ok)
                    if flip and holds.count(False) == 1 and not holds[q - t]:
                        alone.add((q, b))
    assert alone == {(q, b) for q in range(t, c) for b in range(ell)}
    assert verdicts == {0, 1}


@pytest.mark.parametrize("args", [(64, 4, 8, 1), (64, 4, 8, 2), (100, 4, 10, 2)],
                         ids=["z1", "z2", "z2-c10"])
def test_solve_checks_the_spares_the_screen_leaves(args):
    """Spare parities 2z+3..c are left by the screen to _solve. A channel
    word whose parity q among them has bit b flipped in all r copies, for
    every such q and b: the case decode reports for the unflipped word
    still passes its lane, _solve refuses it, and decode equals the
    reference, which checks all c parities. Then words cut short with
    such a flip, their parities read in full: at z = 2 several splits of
    the placement of the last four blocks pass and share one refused
    solve, which is computed once."""
    mp = multi_params(*args)
    k, ell, c, t, r = mp.k, mp.ell, mp.c, 2 * mp.z, mp.r
    rng = random.Random(f"solve-spares/{args}")

    def flipped(x, q, b):
        at = k + (q * ell + b) * r
        return x[:at] + "".join("10"[int(ch)] for ch in x[at:at + r]) + x[at + r:]

    for q in range(t + 2, c):
        for b in range(ell):
            while True:                   # a word a case decodes
                u = format(rng.getrandbits(k), f"0{k}b")
                deltas = tuple(rng.randrange(mp.w + 1) for _ in range(mp.z))
                pat = sample_pattern(mp, deltas, rng, "systematic-only")
                res = decode(delete_localized(encode(u, mp), pat), mp)
                if res.status == SUCCESS and res.guess is not None:
                    break
            y = delete_localized(flipped(encode(u, mp), q, b), pat)
            screened, passed = _screen(y[:k - sum(deltas)], multi_window._tail_parities(y, mp),
                                       mp)
            handed = {(pairs, deltas): at
                      for pairs, deltas, at in multi_window._solved(screened, passed, mp)}
            assert res.guess in handed, (args, q, b)
            assert multi_window._solve(handed[res.guess], mp) is None
            assert decode(y, mp) == reference_decode_multi(y, mp), (args, q, b)

    class Kept(dict):
        def __setitem__(self, key, value):
            writes.append(key)
            super().__setitem__(key, value)

    shared = 0
    for delta in range(2, mp.z * mp.w + 1):
        u = format(rng.getrandbits(k), f"0{k}b")
        bits = message_parity_bits(u, mp.gen)
        parities = [int(bits[q * ell:(q + 1) * ell], 2) for q in range(c)]
        parities[rng.randrange(t + 2, c)] ^= 1 << rng.randrange(ell)
        screened, passed = _screen(u[:k - delta], mds.pack(parities, ell), mp)
        writes, sols = [], Kept()
        results = {}
        for pairs, _, at in multi_window._solved(screened, passed, mp):
            at = (*at[:4], sols)
            results.setdefault((pairs, at[2] >> at[3] & (1 << c * ell) - 1), []).append(
                multi_window._solve(at, mp))
        assert len(writes) == len(set(writes)) == len(results)
        for (pairs, _), sols_of_key in results.items():
            assert len({id(sol) for sol in sols_of_key}) == 1
            shared += len(sols_of_key) > 1 and sols_of_key[0] is None and pairs[0] == mp.m - 3
    assert shared or mp.z == 1


def test_decode_multi_requests_no_solver_after_first_decode(monkeypatch):
    mp = multi_params(64, 4, 8, 2)
    assert mp._tables == {}               # building params builds no table
    words = feasible_words(mp, 8, seed=9)
    u, y = words[0]
    assert decode_multi(y, mp).message == u
    table = list(multi_window._lanes(mp).placements)
    assert [pairs for pairs, _, _ in table] == sorted({pairs for pairs, _ in enumerate_cases(mp, 3)})

    def no_solver(*args):
        raise AssertionError("solver requested after the first decode")

    monkeypatch.setattr(mds, "log_solver", no_solver)
    for u, y in words[1:]:
        res = decode_multi(y, mp)
        assert res.status == SUCCESS and res.message == u
    assert multi_window._lanes(mp).placements == table


@pytest.mark.parametrize("args", [(64, 4, 8, 2), (48, 2, 7, 3), (20, 2, 5, 2)])
def test_placement_table_owners(args):
    # a placement owns a zero-share pattern exactly when no earlier
    # placement holds every pair that pattern leaves damaged; every
    # pattern of every placement has exactly one owner
    mp = multi_params(*args)
    table = multi_window._lanes(mp).placements
    owners = {}
    for t, (pairs, _, owned) in enumerate(table):
        for mask in range(1 << mp.z):
            damaged = {i for j, i in enumerate(pairs) if not mask >> j & 1}
            earlier = any(damaged <= set(prev) for prev, _, _ in table[:t])
            assert bool(owned >> mask & 1) == (not earlier), (pairs, mask)
            if owned >> mask & 1:
                assert frozenset(damaged) not in owners
                owners[frozenset(damaged)] = pairs
    assert owners.keys() == {frozenset(sub) for pairs, _, _ in table
                             for r in range(mp.z + 1) for sub in combinations(pairs, r)}


@pytest.mark.parametrize("bad", ["_", "2", " "])
def test_decode_multi_refuses_non_binary_words(bad):
    mp = multi_params(64, 4, 8, 2)
    x = encode_multi(U64, mp)
    y = delete_localized(x, pattern_from_text("10:0,2;40:1"), w=4, z=2)
    assert decode_multi(y, mp).message == U64
    for word in (x, y):
        for pos in (5, mp.k + 20):        # in the message, in the parity tail
            res = decode_multi(word[:pos] + bad + word[pos + 1:], mp)
            assert res.status == INVALID_INPUT and "only '0' and '1'" in res.reason
