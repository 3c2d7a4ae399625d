"""The guess-and-check engine both codes share: parameters, encode,
decode, and the one check every surviving guess goes through.

A code is CodeParams(k, w, c, kind, z, r). r = 1 at z = 1 is the
single-window code: the c parities of its message sit behind a buffer of
w zeros and a one. r = z*w + 1, at any z including 1, repeats each
parity bit r times instead and has no buffer (multi_params). The
message is chunked into m = ceil(k / ell) field symbols and its
parities come from a systematic MDS layer over GF(2^ell) (mds).
encode_multi and decode_multi are encode and decode under their former
multi-window names. CodeParams sets every other field once, when built
(the code length n among them), and refuses assignment: a changed code is
a new CodeParams of the six values. It is a plain __slots__ class
(mds._Frozen), as Generator is, because a dataclass costs about 1 ms to
build in every fresh process; DecodeResult is the package's one
dataclass.

decode first refuses, through one check (_check_received), a received
word with characters other than 0 and 1, more than n bits, or more than
z*w of them missing. With the buffer, received bit k + w - delta + 1
then tells, with no chance of error, where the deletions landed: a 0
means before the buffer's one, so the message bits are read off the
front (the parity path). Otherwise the parities are intact at the tail
and decode guesses where the damage is. A guess names the adjacent block
pairs that absorbed the deletions and the share of each (one pair with
every deletion on the single-window code). The layout's screen checks
the spare parities of every guess at once and hands over the guesses
that pass as their (pairs, deltas) (single_window._screen and _solved,
multi_window._screen and _solved; with r > 1 the screen checks at most
two spare parities and _solve the rest), and the engine names each guess
as DecodeResult reports it: the pair index at r = 1, the (pairs, deltas)
case otherwise. It has each solved from two parities per pair
(_solve), drops a guess whose solve refuses it, and, in the order tried,
checks the others by _candidate: every pair must pass _damaged_pair's
padding and supersequence checks. With r > 1 and delta >= 1 one more
candidate follows the cases, with guess None: the tail candidate, the
first k bits of the word, when their c parities are the ones read off
the repetition tail (_parities_hold). When every deletion hit the tail
it is the message, untouched, and the readout exact, as fewer than r
bits are missing. It is not checked when a case already gave it, since
decide keeps the first guess of a candidate and a repeat changes
nothing. decide turns the candidates into the result.
A single surviving candidate is provably the sent message when the
channel respected the window contract; distinct candidates mean the
decoder refuses to choose (Failure).

Once a guess has given a candidate, a later guess whose block readings
differ in at most c blocks from those of a guess that gave one is
neither solved nor checked (_differing). A guess reads each block off
the received word at a shift, the bits deleted before it, or solves it
when it damages it. Like the (Q, E) rule of multi_window, the skip is
exact:

* every candidate of a word has all c of the word's parities: the 2z
  solving parities by construction, the spare parities because its guess
  passed the screen and the spare rows the screen leaves to _solve (with
  r > 1, every spare parity past the second). So two candidates differ
  by a word that every parity row annihilates;
* two guesses' candidates can differ only on blocks their readings
  differ on: a block either damages, or one both read at different
  shifts;
* on any t <= c blocks, the c parity rows have rank t: every square
  submatrix of a Cauchy generator is nonsingular, and the rows of a
  Vandermonde generator are the powers 0..c-1 of the distinct nodes
  alpha^(j-1). So a skipped guess gives the candidate of the guess it
  is near, or none;
* so the first guess to give each candidate is never skipped, and decide
  sees the same candidates, in the same order, with the same first
  guesses. On the single-window code the rule skips guess i' after guess
  i gave a candidate when i' - i <= c - 2.
"""

from collections import namedtuple
from dataclasses import dataclass
from itertools import repeat
from operator import contains

from . import mds, multi_window, single_window
from .gf2e import MAX_ELL, FieldContext, is_binary


class InvalidConfigError(ValueError):
    pass


SUCCESS = "success"
FAILURE = "failure"
INVALID_INPUT = "invalid-input"

# Enumerated cases grow combinatorially with z; past 3 windows the decoder
# is impractical at desk scale, so multi_params refuses larger z.
MAX_Z = 3

# The decoder's tables grow with the case count (max_case_count), so
# multi_params refuses more than this; multi_params(256, 4, 8, 3), the
# largest code in the tests, demos, bench and criteria, has 69 426.
MAX_CASES = 100_000


def _check_ints(**values):
    for name, value in values.items():
        if type(value) is not int:      # type(), not isinstance: a bool is refused too
            raise InvalidConfigError(f"{name}={value!r} is not an int")


class CodeParams(mds._Frozen):
    """Parameters of either code: z windows, each parity bit repeated r
    times. r = 1 at z = 1 is the single-window code, its parities behind a
    buffer of w zeros and a one; r = z*w + 1, at any z including 1, has
    no buffer (multi_params); any other r is refused. The other fields
    follow, as derive_dims (multi_dims for r > 1) says, and cannot be
    passed: ell, m, last_block_len, the field ctx, the generator gen and
    the code length n. Equality and hash read the six init fields, repr
    every field but n, and pickle and copy build the code again from the
    six (mds._Frozen). _tables, empty until the first decode, is the one
    store of the decoder's tables, each under a key of the module that
    fills it: "pair screen" (single_window; evaluate_guess runs it on any
    code), "case screen" and each delta (multi_window), and "readings"
    (the engine's skip, _differing)."""

    __slots__ = ("k", "w", "c", "kind", "z", "r", "ell", "m", "last_block_len", "ctx", "gen",
                 "n", "_tables")
    _init = _compare = __slots__[:6]
    _shown = __slots__[:11]

    def __init__(self, k, w, c, kind="cauchy", z=1, r=1):
        _check_ints(w=w, z=z, r=r)      # before z * w + 1 reads them
        if r == 1 and z == 1:
            ell, m, last = derive_dims(k, w, c)
        elif r == z * w + 1:
            ell, m, last = multi_dims(k, w, c, z)
        else:
            raise InvalidConfigError(f"r={r} must be z*w + 1 = {z * w + 1}, or 1 with z = 1")
        ctx = FieldContext(ell)
        gen = mds.make_generator(m, c, ctx, kind)
        for name, value in zip(self.__slots__, (k, w, c, kind, z, r, ell, m, last, ctx, gen,
                                                k + redundancy(ell, w, c, r), {})):
            object.__setattr__(self, name, value)


def redundancy(ell, w, c, r):
    """The bits a code adds to its message: c parity blocks of ell bits
    behind a buffer of w zeros and a one at r = 1, each parity bit
    repeated r times otherwise."""
    return c * ell + w + 1 if r == 1 else c * ell * r


def derive_dims(k, w, c):
    """Shared parameter validation and the (ell, m, last_block_len) rule.

    ell = max(w, ceil(log2 k)) keeps every window inside at most two
    adjacent blocks while the parities stay a vanishing fraction of the
    codeword as k grows.
    """
    _check_ints(k=k, w=w, c=c)
    if k < 4:
        raise InvalidConfigError(f"k={k} must be at least 4")
    if not 1 <= w < k:
        raise InvalidConfigError(f"w={w} must satisfy 1 <= w < k")
    if c < 3:
        raise InvalidConfigError(f"c={c} must be at least 3")
    ell = max(w, (k - 1).bit_length())
    if ell > MAX_ELL:
        raise InvalidConfigError(f"k={k}, w={w} need ell={ell}; the cap is ell <= {MAX_ELL}")
    m = -(-k // ell)
    if m < 2:
        raise InvalidConfigError(f"k={k}, w={w} leave only {m} block")
    if m + c > (1 << ell):
        raise InvalidConfigError(
            f"m + c = {m + c} exceeds field size 2^{ell}; lower c or w"
        )
    last = k - (m - 1) * ell
    return ell, m, last


def multi_dims(k, w, c, z):
    """The (ell, m, last_block_len) of derive_dims for z windows, after
    derive_dims' checks and those z windows add: one to MAX_Z windows,
    the 2z solving parities plus a spare, room for z disjoint block
    pairs, MAX_CASES."""
    ell, m, last = derive_dims(k, w, c)
    _check_ints(z=z)
    if z < 1:
        raise InvalidConfigError(f"z={z} must be at least 1")
    if z > MAX_Z:
        raise InvalidConfigError(f"z={z} exceeds the cap of {MAX_Z} windows")
    if c < 2 * z + 1:
        raise InvalidConfigError(f"c={c} must be at least 2z + 1 = {2 * z + 1}")
    if m < 2 * z:
        raise InvalidConfigError(f"{m} blocks cannot host {z} disjoint block pairs")
    cases = multi_window._case_count(m, w, z)
    if cases > MAX_CASES:
        raise InvalidConfigError(f"{cases} cases exceed the case budget of {MAX_CASES}")
    return ell, m, last


def gc_params(k, w, c, kind="cauchy"):
    return CodeParams(k, w, c, kind)


def multi_params(k, w, c, z, kind="cauchy"):
    _check_ints(w=w, z=z)               # before z * w + 1 reads them
    return CodeParams(k, w, c, kind, z, z * w + 1)


def max_case_count(k, w, c, z):
    """Exact worst-case size of enumerate_cases over all deletion counts.

    This is the set the failure bound takes its union over, not the number
    of cases decode checks at r > 1: that checks each set of damaged pairs
    and their shares once, at the first placement holding them, so it
    checks fewer. It refuses what multi_params refuses.
    """
    return multi_window._case_count(multi_dims(k, w, c, z)[1], w, z)


def parity_bits(u, p):
    """The c parity blocks of message u as one bit string, parity 1 first.

    u is checked first: a str (else TypeError), each character '0' or
    '1' (is_binary, so nothing int() would also take, such as '_', spaces
    or a sign, gets through), k of them. The parities are read off the
    message int by popcounts (mds.packed_parities); both layouts of
    encode share this path.
    """
    if not is_binary(u):
        raise ValueError("message must contain only '0' and '1'")
    if len(u) != p.k:
        raise ValueError(f"message must be {p.k} bits, got {len(u)}")
    ell = p.ell
    packed = mds.packed_parities(int(u, 2) << (p.m * ell - p.k), p.gen)
    mask, width = (1 << ell) - 1, f"0{ell}b"
    return "".join([format(packed >> sh & mask, width) for sh in range(0, p.c * ell, ell)])


def encode(u, p):
    """The codeword of message u: the parities behind a buffer of w zeros
    and a one when p.r = 1, each parity bit repeated r times otherwise.
    parity_bits checks u before anything is joined to it."""
    parities = parity_bits(u, p)
    if p.r == 1:
        return u + "0" * p.w + "1" + parities
    return u + multi_window.repetition_encode(parities, p.r)


def is_subsequence(sub, sup):
    """True iff sub can be obtained from sup by deleting characters."""
    # contains(it, ch) is ch in it, which advances it past the first match
    return all(map(contains, repeat(iter(sup)), sub))


@dataclass(frozen=True)
class DecodeResult:
    """The outcome of a decode. status is SUCCESS, FAILURE or
    INVALID_INPUT. On SUCCESS, message is the recovered message and guess
    how it was reached: the block-pair index on the guess path, None on
    the parity path, and with r > 1 the winning (pairs, deltas) case. On
    FAILURE, candidates holds every distinct surviving message in the
    order found. On INVALID_INPUT, reason says why no compliant channel
    explains the word. The fields a status does not name keep their
    defaults."""
    status: str
    message: str | None = None
    guess: object = None
    candidates: tuple = ()
    reason: str | None = None


# The full verdict for one guess, kept for inspection and tests.
GuessEval = namedtuple("GuessEval", "guess decoded_pair erased_region decoded_bits padding_ok "
                                    "parities_ok supersequence_ok candidate")


def _check_received(y, p):
    """The InvalidInput result for a received word no compliant channel
    could have produced from a codeword of p, or None: characters other
    than 0 and 1, more than n bits, or more than z*w bits missing. The
    reason names the single-window code's window (r = 1) or the
    multi-window code's budget."""
    n = p.n
    if not is_binary(y):
        reason = "the received word must contain only '0' and '1'"
    elif len(y) > n:
        reason = f"{len(y)} bits exceed the code length {n}"
    elif len(y) < n - p.z * p.w:
        limit = f"the window size {p.w}" if p.r == 1 else f"the budget z*w = {p.z * p.w}"
        reason = f"{n - len(y)} deletions exceed {limit}"
    else:
        return None
    return DecodeResult(INVALID_INPUT, reason=reason)


def evaluate_guess(s, i, parities, p):
    """Verdict for the guess that blocks (i, i+1) of a single-window code
    absorbed the deletions.

    s is the received word truncated to its first k - delta bits, parities
    the c parity symbols read off the intact tail, each an int in
    [0, 2^ell). 1 <= i <= m - 1. Every check is run and reported; nothing
    short-circuits. The syndromes, spare verdict and checks are decode's:
    guess i's lanes of its screen, then _damaged_pair and _candidate.
    """
    if type(i) is not int or not 1 <= i <= p.m - 1:
        raise ValueError(f"guess index must be an int in [1, {p.m - 1}], got {i!r}")
    if not is_binary(s):
        raise ValueError("systematic part must contain only '0' and '1'")
    if not p.k - p.w <= len(s) <= p.k:
        raise ValueError(f"systematic part must hold k - w .. k bits, got {len(s)}")
    if len(parities) != p.c:
        raise ValueError(f"expected {p.c} parities, got {len(parities)}")
    if not all(type(v) is int and 0 <= v < 1 << p.ell for v in parities):
        raise ValueError(f"parities must be field elements in [0, {1 << p.ell})")
    delta = p.k - len(s)
    screened, passed = single_window._screen(s, mds.pack(parities[::-1], p.ell), p)
    top = (p.m - i) * p.ell - 1               # the top bit of guess i's lane
    parities_ok = bool(passed >> top & 1)
    pair = single_window._solve((screened, top), p)
    region, dec, padding_ok, superseq_ok = _damaged_pair(s, p, i, 0, delta, *pair)
    cand = _candidate(s, p, (i,), (delta,), pair) if parities_ok else None
    return GuessEval(guess=i, decoded_pair=pair, erased_region=region,
                     decoded_bits=dec, padding_ok=padding_ok,
                     parities_ok=parities_ok, supersequence_ok=superseq_ok,
                     candidate=cand)


def decode(y, p):
    """Decode a received word missing up to w bits from each of z windows.

    Success carries the recovered message and how it was reached (a pair
    index, None for the parity path, or with r > 1 the (pairs, deltas)
    case, None for the tail candidate). Failure carries every distinct
    surviving candidate. InvalidInput flags a word no compliant channel
    could have produced, or a word with characters other than 0 and 1.
    """
    refused = _check_received(y, p)
    if refused is not None:
        return refused
    ell, delta = p.ell, p.n - len(y)
    if p.r == 1 and (delta == 0 or y[p.k + p.w - delta] == "0"):
        return DecodeResult(SUCCESS, message=y[:p.k], guess=None)
    s = y[:p.k - delta]
    if p.r == 1:
        screened, passed = single_window._screen(s, int(y[len(y) - p.c * ell:], 2), p)
        guesses, solve = single_window._solved(screened, passed, p, delta), single_window._solve
    else:
        parities = multi_window._tail_parities(y, p)
        screened, passed = multi_window._screen(s, parities, p)
        guesses, solve = multi_window._solved(screened, passed, p), multi_window._solve
    found, kept = [], []                # kept: (pairs, deltas) of each guess that gave one
    for pairs, deltas, at in guesses:
        if kept and _near(pairs, deltas, kept, p):
            continue
        sol = solve(at, p)              # None: a spare parity left to the solve failed
        cand = None if sol is None else _candidate(s, p, pairs, deltas, sol)
        found.append((pairs[0] if p.r == 1 else (pairs, deltas), cand))
        if cand is not None:
            kept.append((pairs, deltas))
    if p.r > 1 and delta:
        u = y[:p.k]
        # the tail candidate; decide keeps a candidate's first guess, so a
        # u that a case gave needs no check
        if all(cand != u for _, cand in found) and _parities_hold(u, parities, p):
            found.append((None, u))
    return decide(found)


def _parities_hold(u, parities, p):
    """True when the c parities of message u are the packed parities,
    checked one bit at a time (mds.parity_planes), parity 1 first, up to
    the first that differs: a word with damaged message bits mostly fails
    within parity 1."""
    x = int(u, 2) << p.m * p.ell - p.k
    for b, plane in enumerate(mds.parity_planes(p.gen)):
        if (x & plane).bit_count() & 1 != parities >> b & 1:
            return False
    return True


encode_multi, decode_multi = encode, decode


def decide(found):
    """The result of a decode from its (guess, candidate) pairs in the
    order the guesses were tried, candidate None for a guess that failed:
    no candidate is InvalidInput, one distinct candidate is Success with
    the first guess that gave it, more are Failure, in the order found."""
    winners = {}
    for guess, cand in found:
        if cand is not None and cand not in winners:
            winners[cand] = guess
    if not winners:
        return DecodeResult(INVALID_INPUT, reason="no deletion placement is consistent")
    if len(winners) == 1:
        cand, guess = next(iter(winners.items()))
        return DecodeResult(SUCCESS, message=cand, guess=guess)
    return DecodeResult(FAILURE, candidates=tuple(winners))


def _near(pairs, deltas, kept, p):
    """True when the case (pairs, deltas) reads at most c blocks
    differently from a kept case (_differing)."""
    for pairs2, deltas2 in kept:
        if _differing(pairs, deltas, pairs2, deltas2, p) <= p.c:
            return True
    return False


def _differing(pairs, deltas, pairs2, deltas2, p):
    """The number of blocks whose readings differ between two cases of
    one word: blocks either case damages, and blocks both read at
    different shifts (the bits deleted before the block).

    One byte lane per block, block j in lane m - j: a lane starts at
    0x40, gains the shift of the first case and loses that of the second
    (each at most z*w <= 60, so no lane carries or borrows), and is set to
    0xFF where either case damages its block. A lane differs from 0x40
    exactly where the readings differ, and the lanes that do are counted
    with one lane test. Each pair i adds its share to the lanes of blocks
    i+2..m, a prefix mask of the lanes with bit 0 set, and marks blocks i
    and i + 1. Those lanes (ones) and the masks of bits 0..6, bit 6 and
    bit 7 of every lane are kept in p._tables under "readings"."""
    masks = p._tables.get("readings")
    if masks is None:
        ones = int.from_bytes(b"\1" * p.m, "big")
        masks = p._tables["readings"] = ones, 0x7F * ones, 0x40 * ones, 0x80 * ones
    ones, low, mid, high = masks
    x, damaged, top = mid, 0, 8 * p.m - 8
    for i, d in zip(pairs, deltas):
        x += d * (ones >> 8 * i + 8)
        damaged |= 0xFFFF << top - 8 * i
    for i, d in zip(pairs2, deltas2):
        x -= d * (ones >> 8 * i + 8)
        damaged |= 0xFFFF << top - 8 * i
    x = (x | damaged) ^ mid
    return (((x & low) + low | x) & high).bit_count()


def _damaged_pair(s, p, i, before, d, a, b):
    """The checks of pair i, solved to blocks a and b, when the pairs
    before it lost `before` bits and it lost d: (region, dec, padding_ok,
    supersequence_ok), the region of s it covers, the decoded bits
    (formatted once, at the width of the message's bits they hold: a
    short last block's padding is shifted out), whether that padding is
    zero, and whether region is a subsequence of dec, which at d = 0 is
    equality. Every check is run."""
    ell = p.ell
    pad = ell - p.last_block_len if i + 1 == p.m else 0     # bits past the message
    region = s[(i - 1) * ell - before:(i + 1) * ell - before - d]
    dec = format((a << ell | b) >> pad, "b").zfill(2 * ell - pad)
    return region, dec, not b & (1 << pad) - 1, is_subsequence(region, dec)


def _candidate(s, p, pairs, deltas, sol):
    """The message of a guess that passed its screen, or None; sol holds
    the guess's solved blocks, two per pair, and a single-window guess i
    is the case ((i,), (delta,)). Every pair, a zero-share one included,
    must pass _damaged_pair's padding and supersequence checks, and puts
    its solved blocks into the message.
    """
    pieces = []
    cum = 0
    prev_end = 0  # bits of s consumed so far
    for j, (i, d) in enumerate(zip(pairs, deltas)):
        region, dec, padding_ok, superseq_ok = _damaged_pair(s, p, i, cum, d,
                                                             sol[2 * j], sol[2 * j + 1])
        if not (padding_ok and superseq_ok):
            return None
        start = (i - 1) * p.ell - cum
        pieces += (s[prev_end:start], dec)
        cum += d
        prev_end = start + len(region)
    pieces.append(s[prev_end:])
    return "".join(pieces)
