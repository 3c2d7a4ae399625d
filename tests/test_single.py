"""Single-window codec, pinned to the worked 16-bit example wherever the
expected value is known in advance."""

import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gccodes import codec, mds, single_window
from gccodes.analysis import bound_single, exhaustive_oracle
from gccodes.channel import DeletionPattern, Window, delete_localized, sample_pattern
from gccodes.codec import (
    FAILURE,
    INVALID_INPUT,
    SUCCESS,
    CodeParams,
    DecodeResult,
    InvalidConfigError,
    decode,
    encode,
    evaluate_guess,
    gc_params,
    is_subsequence,
)
from gccodes.gf2e import FieldContext, bits_to_symbols
from oracles import erasure_decode, guess_syndromes, verify_parities

U = "1100101001111000"
CODEWORD = "110010100111100000001100110000001"
RECEIVED = "110010011100000001100110000001"      # bits 7, 9, 10 deleted

PV = gc_params(16, 4, 3, kind="vandermonde")


def test_dims_golden():
    assert (PV.ell, PV.m, PV.last_block_len, PV.n) == (4, 4, 4, 33)
    p = gc_params(128, 7, 3)
    assert (p.ell, p.m, p.last_block_len, p.n) == (7, 19, 2, 157)
    p = gc_params(1024, 5, 4)
    assert (p.ell, p.m, p.last_block_len, p.n) == (10, 103, 4, 1070)


def test_dims_invalid():
    with pytest.raises(InvalidConfigError):
        gc_params(16, 4, 2)          # not enough parities
    with pytest.raises(InvalidConfigError):
        gc_params(16, 16, 3)         # window as large as the message
    with pytest.raises(InvalidConfigError):
        gc_params(4, 1, 3)           # 2 + 3 symbols exceed GF(4)
    with pytest.raises(InvalidConfigError):
        gc_params(16, 0, 3)


@pytest.mark.parametrize("k, w, c, bad", [
    (64, True, 3, "w=True"), (64, 6, 3.0, "c=3.0"), (64.0, 6, 3, "k=64.0"),
    (True, 6, 3, "k=True"), (64, 6.0, 3, "w=6.0"), (64, 6, "3", "c='3'"),
])
def test_non_int_sizes_refused(k, w, c, bad):
    # one type test per value in derive_dims, so every builder and bound
    # refuses at the boundary, a bool too
    for build in (gc_params, bound_single):
        with pytest.raises(InvalidConfigError, match=f"^{re.escape(bad)} is not an int$"):
            build(k, w, c)


@pytest.mark.parametrize("name", ["ell", "m", "last_block_len", "ctx", "gen", "n"])
def test_derived_fields_cannot_be_passed(name):
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        CodeParams(16, 4, 3, **{name: getattr(PV, name)})


def test_a_changed_field_derives_the_code_again():
    # a changed code is a new CodeParams of the six values, and derives
    # every other field again: a wider window takes a wider field,
    # ell = max(w, ceil(log2 k))
    base = gc_params(16, 4, 3)
    p = CodeParams(base.k, 6, base.c, base.kind, base.z, base.r)
    assert (p.ell, p.m, p.last_block_len, p.n, p.ctx.ell) == (6, 3, 4, 41, 6)
    assert p.gen.m == 3 and p.gen.ctx.ell == 6 and p != base
    x = encode(U, p)
    assert len(x) == p.n and x[16:23] == "0000001"
    rep = exhaustive_oracle(p, U)       # raises on a refused compliant word
    assert rep.trials == 36 * 2 ** 6
    p = CodeParams(20, base.w, base.c, base.kind, base.z, base.r)
    assert (p.ell, p.m, p.last_block_len, p.n) == (5, 4, 5, 40)
    assert decode(encode(U + "1011", p)[1:], p).message == U + "1011"


def test_params_compare_and_hash_by_their_six_fields():
    # ctx and gen derive from (k, w, c, kind, z, r); two builds of one code
    # hold tables of their own, yet compare and hash equal
    for build, args in ((gc_params, (16, 4, 3)),
                        (codec.multi_params, (16, 2, 5, 2))):
        a, b = build(*args), build(*args)
        assert a.ctx is not b.ctx and a.gen is not b.gen
        assert a == b and hash(a) == hash(b)
    # one field moved at a time; z cannot move without r, which follows it
    codes = [CodeParams(16, 4, 3), CodeParams(20, 4, 3), CodeParams(16, 5, 3),
             CodeParams(16, 4, 4), CodeParams(16, 4, 3, "vandermonde"),
             CodeParams(16, 4, 3, z=1, r=5), CodeParams(16, 2, 5, z=2, r=5),
             CodeParams(16, 2, 5, z=1, r=3)]
    for i, a in enumerate(codes):
        assert [a == b for b in codes] == [j == i for j in range(len(codes))]


@pytest.mark.parametrize("z, r", [(1, 7), (2, 1)])
def test_a_repetition_that_does_not_fit_z_is_refused(z, r):
    # r is 1 at z = 1 or z*w + 1, here 5 or 9
    with pytest.raises(InvalidConfigError) as refused:
        CodeParams(16, 4, 5, z=z, r=r)
    assert str(refused.value) == f"r={r} must be z*w + 1 = {4 * z + 1}, or 1 with z = 1"


def test_encode_golden():
    assert encode(U, PV) == CODEWORD
    # systematic prefix, then w zeros and a one, then 12 parity bits
    assert CODEWORD[:16] == U
    assert CODEWORD[16:21] == "00001"


def test_encode_validation():
    with pytest.raises(ValueError):
        encode(U + "0", PV)
    with pytest.raises(ValueError):
        encode(U[:-1] + "x", PV)


@pytest.mark.parametrize("bad", [U.encode(), None, int(U, 2)], ids=["bytes", "None", "int"])
@pytest.mark.parametrize("call", [
    lambda bad: decode(bad, PV),
    lambda bad: decode(bad, codec.multi_params(16, 2, 5, 2)),
    lambda bad: encode(bad, PV),
    lambda bad: encode(bad, codec.multi_params(16, 2, 5, 2)),
    lambda bad: bits_to_symbols(bad, PV.ctx),
    lambda bad: evaluate_guess(bad, 1, [0, 0, 0], PV),
], ids=["decode", "decode-multi", "encode", "encode-multi", "bits_to_symbols", "evaluate_guess"])
def test_a_word_that_is_not_a_str_is_a_type_error(bad, call):
    # one check at the boundary names the type, before any concatenation,
    # length or character test
    name = type(bad).__name__
    with pytest.raises(TypeError, match=f"^a bit string must be a str, not {name}$"):
        call(bad)


def test_detect_region():
    # three deletions in the message set the buffer's marker bit to one:
    # decode takes the guess path
    assert PV.n - len(RECEIVED) == 3
    assert decode(RECEIVED, PV) == DecodeResult(SUCCESS, message=U, guess=2)
    # no deletion, and deletions confined to the parity suffix, leave the
    # marker bit a zero: the parity path reads the message off the front
    for y, delta in ((CODEWORD, 0), (CODEWORD[:25] + CODEWORD[27:], 2)):
        assert PV.n - len(y) == delta
        assert decode(y, PV) == DecodeResult(SUCCESS, message=U, guess=None)


def test_detect_region_length_contract():
    assert decode(CODEWORD[: 33 - 5], PV) == DecodeResult(
        INVALID_INPUT, reason="5 deletions exceed the window size 4")
    assert decode(CODEWORD + "0", PV) == DecodeResult(
        INVALID_INPUT, reason="34 bits exceed the code length 33")


def strip_received(y, p):
    delta = p.n - len(y)
    s = y[: len(y) - p.c * p.ell - (p.w + 1)]
    parities = bits_to_symbols(y[len(y) - p.c * p.ell:], p.ctx)
    return s, parities, delta


def test_three_guesses_verdicts():
    s, parities, _ = strip_received(RECEIVED, PV)
    assert s == "1100100111000"

    g1 = evaluate_guess(s, 1, parities, PV)
    assert g1.decoded_pair == (4, 6)             # alpha^2, alpha^5
    assert not g1.parities_ok and not g1.supersequence_ok
    assert g1.candidate is None

    g2 = evaluate_guess(s, 2, parities, PV)
    assert g2.decoded_pair == (10, 7)            # alpha^9, alpha^10
    assert g2.parities_ok and g2.supersequence_ok and g2.padding_ok
    assert g2.candidate == U

    g3 = evaluate_guess(s, 3, parities, PV)
    assert g3.decoded_pair == (12, 0)            # alpha^6, zero
    assert not g3.parities_ok and g3.supersequence_ok
    assert g3.candidate is None


def test_try_guess_matches_evaluate():
    # only guess 2 leaves a candidate, and decode reports that guess
    s, parities, _ = strip_received(RECEIVED, PV)
    assert evaluate_guess(s, 1, parities, PV).candidate is None
    assert evaluate_guess(s, 2, parities, PV).candidate == U
    assert evaluate_guess(s, 3, parities, PV).candidate is None
    assert decode(RECEIVED, PV).guess == 2


def test_evaluate_guess_validation():
    s, parities, _ = strip_received(RECEIVED, PV)
    with pytest.raises(ValueError):
        evaluate_guess(s, 0, parities, PV)
    with pytest.raises(ValueError):
        evaluate_guess(s, 4, parities, PV)
    with pytest.raises(ValueError):
        evaluate_guess(s[:8], 1, parities, PV)
    for i in (True, 2.0):                     # True would report guess=True
        with pytest.raises(ValueError, match="guess index"):
            evaluate_guess(s, i, parities, PV)
    for bad in ("_", " ", "2"):               # int(s, 2) would take "_" and " "
        with pytest.raises(ValueError, match="only '0' and '1'"):
            evaluate_guess(s[:5] + bad + s[6:], 2, parities, PV)


@pytest.mark.parametrize("bad", [
    lambda par: par[:2],                  # one parity short
    lambda par: list(par) + [5],          # one parity too many
    lambda par: [par[0], 16, par[2]],     # 16 is outside GF(2^4)
    lambda par: [par[0], -1, par[2]],
    lambda par: [par[0], "5", par[2]],
    lambda par: [par[0], True, par[2]],   # would be read as 1
    lambda par: [par[0], 5.0, par[2]],
], ids=["two", "four", "too-large", "negative", "not-an-int", "bool", "float"])
def test_evaluate_guess_refuses_bad_parities(bad):
    # with the true guess, two parities used to report parities_ok=False
    # and a fourth was ignored; neither may give a verdict
    s, parities, _ = strip_received(RECEIVED, PV)
    assert evaluate_guess(s, 2, parities, PV).candidate == U
    with pytest.raises(ValueError, match="parities"):
        evaluate_guess(s, 2, bad(parities), PV)


def test_decode_golden():
    res = decode(RECEIVED, PV)
    assert res.status == SUCCESS
    assert res.message == U
    assert res.guess == 2


def test_decode_no_deletions():
    res = decode(CODEWORD, PV)
    assert res.status == SUCCESS and res.message == U and res.guess is None


def test_decode_length_contract():
    assert decode(CODEWORD[: 33 - 5], PV).status == INVALID_INPUT
    assert decode(CODEWORD + "0", PV).status == INVALID_INPUT


@pytest.mark.parametrize("bad", ["_", "2", " "])
def test_decode_refuses_non_binary_words(bad):
    # CODEWORD takes the parity path and RECEIVED the guess path; one
    # character in the message or the parities is replaced
    for word in (CODEWORD, RECEIVED):
        for pos in (3, len(word) - 2):
            res = decode(word[:pos] + bad + word[pos + 1:], PV)
            assert res.status == INVALID_INPUT and "only '0' and '1'" in res.reason


def test_all_single_deletions_recover():
    for i in range(33):
        y = CODEWORD[:i] + CODEWORD[i + 1:]
        res = decode(y, PV)
        assert res.status == SUCCESS and res.message == U, i


def test_parity_region_deletions_take_marker_path():
    # windows entirely behind the buffer leave the systematic image intact
    for start in (22, 26, 30):
        pat = DeletionPattern((Window(start, (0, 1, 2, 3)),))
        y = delete_localized(CODEWORD, pat, w=4, z=1)
        res = decode(y, PV)
        assert res.status == SUCCESS and res.message == U and res.guess is None


def test_buffer_straddle_never_wrong():
    # sweep every window that touches the buffer and every offset subset
    from itertools import combinations
    p = PV
    for start in range(p.k - p.w + 1, p.k + p.w + 2):
        if start + p.w - 1 > p.n:
            break
        for d in range(1, p.w + 1):
            for offs in combinations(range(p.w), d):
                pat = DeletionPattern((Window(start, offs),))
                y = delete_localized(CODEWORD, pat, w=p.w, z=1)
                res = decode(y, p)
                assert res.status in (SUCCESS, FAILURE)
                if res.status == SUCCESS:
                    assert res.message == U
                touched_systematic = any(start + o <= p.k for o in offs)
                if not touched_systematic:
                    assert res.status == SUCCESS


def test_randomized_never_wrong():
    p = gc_params(32, 5, 3)
    rng = random.Random(99)
    statuses = set()
    for _ in range(2000):
        u = format(rng.getrandbits(32), "032b")
        x = encode(u, p)
        pat = sample_pattern(p, rng.randrange(p.w + 1), rng)
        y = delete_localized(x, pat, w=p.w, z=1)
        res = decode(y, p)
        statuses.add(res.status)
        assert res.status != INVALID_INPUT
        if res.status == SUCCESS:
            assert res.message == u
    assert SUCCESS in statuses


def test_failure_reports_all_candidates():
    p = gc_params(16, 4, 3)
    u = "0011111001110000"
    x = encode(u, p)
    assert x == "001111100111000000001101001011110"
    y = delete_localized(x, DeletionPattern((Window(12, (0, 1, 2, 3)),)), w=4, z=1)
    res = decode(y, p)
    assert res.status == FAILURE
    assert res.message is None
    assert set(res.candidates) == {"1100101011100110", "0011111001110000"}
    assert u in res.candidates


def subsequence(sub, sup):
    """Greedy two-pointer test, local to the tests."""
    i = 0
    for ch in sup:
        if i < len(sub) and sub[i] == ch:
            i += 1
    return i == len(sub)


def test_is_subsequence_against_dp_oracle():
    rng = random.Random(3)
    for _ in range(500):
        sup = "".join(rng.choice("01") for _ in range(rng.randrange(12)))
        sub = "".join(rng.choice("01") for _ in range(rng.randrange(8)))
        assert is_subsequence(sub, sup) == subsequence(sub, sup)
    assert is_subsequence("", "") and is_subsequence("", "0")
    assert not is_subsequence("1", "")


def test_pair_solvers_cached_and_bounded(monkeypatch):
    solved = []
    real = mds.log_solver

    def counted(gen, erased):
        solved.append(erased)
        return real(gen, erased)

    monkeypatch.setattr(mds, "log_solver", counted)
    p = gc_params(128, 7, 3)
    assert solved == []                   # building params solves no system
    rng = random.Random(12)
    words = []
    for _ in range(8):
        u = format(rng.getrandbits(p.k), f"0{p.k}b")
        pat = sample_pattern(p, p.w, rng, "systematic-only")
        words.append((u, delete_localized(encode(u, p), pat)))
    u, y = words[0]
    assert decode(y, p).message == u
    assert solved == [(i, i + 1) for i in range(1, p.m)]

    def no_elimination(*args):
        raise AssertionError("elimination on a cached pair")

    monkeypatch.setattr(FieldContext, "mul", no_elimination)
    monkeypatch.setattr(FieldContext, "inv", no_elimination)
    for u, y in words[1:]:
        res = decode(y, p)
        assert res.status != SUCCESS or res.message == u
    assert len(solved) == p.m - 1


def reference_decode(y, p):
    """decode by the definition, one guess at a time: read the blocks
    before the pair at their nominal offsets and those after it delta bits
    earlier, erasure-decode the pair from parities 1 and 2, check the spare
    parities, the padding and the supersequence test, and rebuild the
    message from the blocks."""
    k, w, c, ell, m, last, n = p.k, p.w, p.c, p.ell, p.m, p.last_block_len, p.n
    if len(y) > n:
        return DecodeResult(INVALID_INPUT, reason=f"{len(y)} bits exceed the code length {n}")
    if len(y) < n - w:
        return DecodeResult(
            INVALID_INPUT, reason=f"{n - len(y)} deletions exceed the window size {w}")
    delta = n - len(y)
    if delta == 0 or y[k + w - delta] == "0":
        return DecodeResult(SUCCESS, message=y[:k], guess=None)
    tail = y[len(y) - c * ell:]
    parities = [int(tail[q * ell:(q + 1) * ell], 2) for q in range(c)]
    s = y[:k - delta]
    winners = {}
    for i in range(1, m):
        symbols = [None] * m
        for j in range(1, m + 1):
            if j not in (i, i + 1):
                start = (j - 1) * ell - (delta if j > i else 0)
                blen = last if j == m else ell
                bits = s[start:start + blen]
                assert len(bits) == blen, (i, j)
                symbols[j - 1] = int(bits, 2) << (ell - blen)
        filled = erasure_decode(symbols, [i, i + 1], parities[:2], [1, 2], p.gen)
        if not verify_parities(filled, parities[2:], range(3, c + 1), p.gen):
            continue
        if i + 1 == m and filled[m - 1] % (1 << (ell - last)):
            continue
        blocks = "".join(format(v, f"0{ell}b") for v in filled)
        pair_end = min((i + 1) * ell, k)
        if subsequence(s[(i - 1) * ell:pair_end - delta], blocks[(i - 1) * ell:pair_end]):
            winners.setdefault(blocks[:k], i)
    if not winners:
        return DecodeResult(INVALID_INPUT, reason="no deletion placement is consistent")
    if len(winners) == 1:
        (cand, i), = winners.items()
        return DecodeResult(SUCCESS, message=cand, guess=i)
    return DecodeResult(FAILURE, candidates=tuple(winners))


def test_decode_matches_reference():
    statuses = {}
    for *args, count in (
        (16, 4, 3, "vandermonde", 250),   # ell 4, whole blocks
        (16, 4, 3, "cauchy", 250),
        (37, 5, 3, "cauchy", 250),        # ell 6, last block 1 bit
        (100, 7, 5, "cauchy", 250),       # ell 7, last block 2 bits
        (64, 4, 4, "vandermonde", 250),   # ell 6, last block 4 bits
        (128, 7, 3, "cauchy", 250),       # ell 7, last block 2 bits
        (1024, 10, 3, "cauchy", 16),      # ell 10, 103 blocks, last 4 bits
        (300, 13, 4, "cauchy", 40),       # ell 13: three table chunks
        (200, 19, 3, "cauchy", 40),       # ell 19: four table chunks
    ):
        p = gc_params(*args)
        rng = random.Random(f"reference/{args}")
        words = []
        for t in range(count):
            u = format(rng.getrandbits(p.k), f"0{p.k}b")
            mode = ("whole-codeword", "systematic-only")[t % 2]
            pat = sample_pattern(p, rng.randrange(p.w + 1), rng, mode)
            words.append(delete_localized(encode(u, p), pat, w=p.w, z=1))
        for _ in range(10):     # not from the channel, lengths in and around the range
            length = p.n - rng.randrange(-1, p.w + 2)
            words.append(format(rng.getrandbits(length), f"0{length}b"))
        for y in words:
            want = reference_decode(y, p)
            assert decode(y, p) == want, (args, y)
            statuses[want.status] = statuses.get(want.status, 0) + 1
    assert statuses.keys() == {SUCCESS, FAILURE, INVALID_INPUT}, statuses


def oracle_passes(syndromes, i, gen):
    """The spare-parity verdict of guess i from its syndromes alone: the
    pair erasure-decoded from syndromes 1 and 2 with every other block
    zero, and its spare parities compared with the spare syndromes."""
    filled = erasure_decode([0] * gen.m, [i, i + 1], syndromes[:2], [1, 2], gen)
    return verify_parities(filled, syndromes[2:], range(3, gen.c + 1), gen)


def screen_lanes(s, parities, p):
    """_screen's syndromes and verdict for every guess, read off its lanes
    by the layout single_window.lane_tables documents: guess i in lane m - 1 - i,
    syndrome r+1 in segment r. The parities go in as the tail int the
    decoder reads, parity 1 highest. Asserts that nothing sits outside
    them."""
    tail = int("".join(format(v, f"0{p.ell}b") for v in parities), 2)
    (tables, syn), passed = single_window._screen(s, tail, p)
    ell, seg, lanes = p.ell, tables.seg, p.m - 1
    assert passed >> lanes * ell == 0 and syn >> p.c * seg == 0
    out = []
    for i in range(1, p.m):
        at = (p.m - 1 - i) * ell
        values = [syn >> (r * seg + at) & (1 << ell) - 1 for r in range(p.c)]
        top = passed >> at & (1 << ell) - 1
        assert top in (0, 1 << (ell - 1))
        out.append((values, bool(top)))
    for r in range(p.c):                      # no bits above the guess lanes
        assert syn >> (r * seg + lanes * ell) & (1 << (seg - lanes * ell)) - 1 == 0
    return out


@pytest.mark.parametrize("args", [
    (16, 4, 3, "vandermonde"),
    (37, 5, 3, "cauchy"),             # last block 1 bit
    (100, 7, 5, "cauchy"),            # three spare parities
    (1024, 10, 3, "cauchy"),
    (300, 13, 4, "cauchy"),           # three table chunks
    (200, 19, 3, "cauchy"),           # four table chunks
    (8, 4, 3, "cauchy"),              # m = 2: no intact block on either side
    (12, 4, 3, "cauchy"),             # m = 3
    (9, 4, 3, "cauchy"),              # m = 3, last block 1 bit
], ids=["k16", "k37", "k100-c5", "k1024", "ell13", "ell19", "m2", "m3", "m3-last1"])
def test_scan_reaches_the_direct_syndromes(args):
    """Every guess's syndromes and spare verdict in decode's screen equal
    the ones the oracle builds for that guess alone, one field product at
    a time."""
    p = gc_params(*args)
    rng = random.Random(f"scan/{args}")
    for t in range(12):
        u = format(rng.getrandbits(p.k), f"0{p.k}b")
        mode = ("whole-codeword", "systematic-only")[t % 2]
        y = delete_localized(encode(u, p), sample_pattern(p, rng.randrange(p.w + 1), rng, mode))
        if t % 3 == 2:                # any bits of the right lengths will do
            y = format(rng.getrandbits(len(y)), f"0{len(y)}b")
        s, parities, _ = strip_received(y, p)
        direct = []
        for i in range(1, p.m):
            syndromes = guess_syndromes(s, i, parities, p.k, p.gen)
            direct.append((syndromes, oracle_passes(syndromes, i, p.gen)))
        assert screen_lanes(s, parities, p) == direct, (args, y)


@st.composite
def screened_words(draw):
    """A code (k 4..300, c 3..5, either kind) and a systematic part of
    any length evaluate_guess takes, k - w..k, with random bits and
    parities."""
    k = draw(st.integers(4, 300))
    w = draw(st.integers(1, min(k - 1, 8)))
    c = draw(st.integers(3, 5))
    kind = draw(st.sampled_from(["cauchy", "vandermonde"]))
    try:
        p = gc_params(k, w, c, kind)
    except InvalidConfigError:
        assume(False)
    delta = draw(st.integers(0, p.w))
    s = draw(st.text("01", min_size=p.k - delta, max_size=p.k - delta))
    parities = draw(st.lists(st.integers(0, (1 << p.ell) - 1), min_size=c, max_size=c))
    return p, s, parities


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(screened_words())
def test_screen_survivors_match_the_oracle(word):
    """The screen lets through exactly the guesses whose oracle syndromes
    pass the oracle's spare-parity check."""
    p, s, parities = word
    lanes = screen_lanes(s, parities, p)
    survivors = [i for i, (_, ok) in enumerate(lanes, 1) if ok]
    want = [i for i in range(1, p.m)
            if oracle_passes(guess_syndromes(s, i, parities, p.k, p.gen), i, p.gen)]
    assert survivors == want


@pytest.mark.parametrize("args, messages", [
    ((8, 4, 3), range(256)),              # m = 2: every message
    ((9, 4, 3), range(0, 512, 4)),        # m = 3, last block 1 bit
    ((12, 4, 3), range(0, 4096, 64)),     # m = 3
], ids=["m2", "m3-last1", "m3"])
def test_edge_codes_exhaustive(args, messages):
    """Every window start, deletion count and offset set on the codes with
    the fewest blocks: never a wrong message (exhaustive_oracle raises
    MiscorrectionError on one) and no Failure, as at the scan the screen
    replaced."""
    p = gc_params(*args)
    trials = failures = 0
    for v in messages:
        rep = exhaustive_oracle(p, format(v, f"0{p.k}b"))
        trials += rep.trials
        failures += rep.failures
    assert trials == len(messages) * (p.n - p.w + 1) << p.w
    assert failures == 0


def test_evaluate_guess_survivors_are_decode_candidates():
    statuses = set()
    for args in (
        (37, 5, 3, "cauchy"),        # ell 6, last block 1 bit
        (100, 7, 5, "cauchy"),       # ell 7, last block 2 bits
        (64, 4, 4, "vandermonde"),   # ell 6, last block 4 bits
        (16, 4, 3, "vandermonde"),
        (16, 4, 3, "cauchy"),
    ):
        p = gc_params(*args)
        rng = random.Random(f"one spare check/{args}")
        for t in range(150):
            u = format(rng.getrandbits(p.k), f"0{p.k}b")
            mode = ("whole-codeword", "systematic-only")[t % 2]
            pat = sample_pattern(p, rng.randrange(1, p.w + 1), rng, mode)
            y = delete_localized(encode(u, p), pat, w=p.w, z=1)
            res = decode(y, p)
            if res.guess is None and res.status == SUCCESS:
                continue                      # parity path: no guesses
            statuses.add(res.status)
            s, parities, _ = strip_received(y, p)
            survivors = {}
            for i in range(1, p.m):
                cand = evaluate_guess(s, i, parities, p).candidate
                if cand is not None:
                    survivors.setdefault(cand, i)
            if res.status == SUCCESS:
                assert list(survivors.items()) == [(res.message, res.guess)], (args, y)
            else:
                assert tuple(survivors) == res.candidates, (args, y)
    assert statuses == {SUCCESS, FAILURE}, statuses


def test_every_passed_guess_reaches_the_one_check(monkeypatch):
    # the guess loop hands each guess that passed the screen, once and in
    # ascending order, to codec._candidate as the case ((i,), (delta,)),
    # and evaluate_guess's candidate is what it returns; the one exception
    # is a guess within c - 2 of an earlier guess that gave a candidate:
    # the two read at most c blocks differently, so the guess gives that
    # candidate or none (the engine's MDS-distance skip), and is skipped
    real = codec._candidate
    calls = []

    def recorded(s, p, pairs, deltas, sol):
        cand = real(s, p, pairs, deltas, sol)
        calls.append((pairs, deltas, cand))
        return cand

    monkeypatch.setattr(codec, "_candidate", recorded)
    checked = skipped = 0
    for args in ((37, 5, 3, "cauchy"), (64, 4, 4, "vandermonde"), (16, 4, 3, "cauchy"),
                 (128, 7, 3, "cauchy")):
        p = gc_params(*args)
        rng = random.Random(f"one check/{args}")
        for _ in range(60):
            u = format(rng.getrandbits(p.k), f"0{p.k}b")
            pat = sample_pattern(p, rng.randrange(1, p.w + 1), rng, "systematic-only")
            y = delete_localized(encode(u, p), pat, w=p.w, z=1)
            calls.clear()
            res = decode(y, p)
            got = list(calls)
            s, parities, delta = strip_received(y, p)
            assert res.guess is not None or res.status != SUCCESS
            reached, gave = [], {}            # gave: guess -> its candidate
            for i in range(1, p.m):
                verdict = evaluate_guess(s, i, parities, p)
                if not verdict.parities_ok:
                    continue
                near = [gave[j] for j in gave if i - j <= p.c - 2]
                if near:
                    assert verdict.candidate in (None, *near)
                    skipped += 1
                    continue
                reached.append((((i,), (delta,)), verdict.candidate))
                if verdict.candidate is not None:
                    gave[i] = verdict.candidate
            assert [(call[:2], call[2]) for call in got] == reached, (args, y)
            checked += len(got)
    assert checked > 240 and skipped, (checked, skipped)
