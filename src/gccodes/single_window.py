"""Codec for binary messages hit by up to w deletions confined to one
window of w consecutive positions.

Layout of a codeword (n = k + c*ell + w + 1 bits):

    [ k message bits | w zeros, then a single one | c parity blocks of ell bits ]

The message is chunked into m = ceil(k / ell) field symbols (a short final
block keeps its bits in the high coefficient positions) and the parities
come from a systematic MDS layer over GF(2^ell). The buffer between data
and parities lets the decoder tell, with no chance of error, whether the
deletions landed before the buffer's one (message side) or after (buffer or
parity side):

  * received bit at position k + w - delta + 1 is 0: the message bits are
    intact and are simply read off the front;
  * that bit is 1: the parities are intact at the tail, and the decoder
    tries every adjacent block pair (i, i+1), solving the pair by erasure
    decoding from two parities and keeping the guess only when the spare
    parities, the zero padding of a short final block, and a supersequence
    test against the received bits all agree.

The guesses are screened all at once (_screen): one Python int holds one
ell-bit field element per lane, so each big-int operation acts on every
block or every guess, about 10*ell + 3*log2(2m) + 20*c of them per word;
every size, mask and solve row that depends only on the code is read off
mds.lane_tables, and the parity tail is read as one int. Only
the few guesses that pass the spare parities are solved (_solved) and, in
ascending order, given multi_window._candidate, the one check of both
codes, as the case of pair i with share delta. evaluate_guess reports a
single guess through the same screen, solve and check.

encode and decode serve both codes: the params' repetition factor r picks
the layout, r = 1 this one, r > 1 the repetition-coded parities of
multi_window. decode first refuses, through one check (_check_received),
a received word with characters other than 0 and 1, more than n bits, or
more than z*w of them missing.

Distinct surviving candidates mean the decoder refuses to choose (Failure);
a single surviving candidate is provably the sent message when the channel
respected the window contract.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from itertools import repeat
from operator import contains

from . import mds
from .gf2e import MAX_ELL, FieldContext, is_binary


class InvalidConfigError(ValueError):
    pass


SUCCESS = "success"
FAILURE = "failure"
INVALID_INPUT = "invalid-input"


@dataclass(frozen=True)
class CodeParams:
    """Parameters of either code: z windows, each parity bit repeated r
    times. r = 1 at z = 1 is the single-window code, its parities behind a
    buffer of w zeros and a one; r = z*w + 1, at any z including 1, has
    no buffer (multi_params); any other r is refused. The other fields
    follow, as derive_dims (multi_dims for r > 1) says, and cannot be
    passed; equality and hash skip the tables ctx and gen."""
    k: int
    w: int
    c: int
    kind: str = "cauchy"
    z: int = 1
    r: int = 1
    ell: int = field(init=False)
    m: int = field(init=False)
    last_block_len: int = field(init=False)
    ctx: FieldContext = field(init=False, compare=False)
    gen: mds.Generator = field(init=False, compare=False)
    # the repetition decoder's tables, filled on its first call: the
    # placement table, the screen's layout and masks, and per delta the
    # case table
    _placements: list = field(default_factory=list, init=False, repr=False, compare=False)
    _lanes: list = field(default_factory=list, init=False, repr=False, compare=False)
    _cases: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        k, w, c, z, r = self.k, self.w, self.c, self.z, self.r
        if r == 1 and z == 1:
            ell, m, last = derive_dims(k, w, c)
        elif r == z * w + 1:
            ell, m, last = multi_window.multi_dims(k, w, c, z)
        else:
            raise InvalidConfigError(f"r={r} must be z*w + 1 = {z * w + 1}, or 1 with z = 1")
        ctx = FieldContext(ell)
        gen = mds.make_generator(m, c, ctx, self.kind)
        for name, value in zip(("ell", "m", "last_block_len", "ctx", "gen"),
                               (ell, m, last, ctx, gen)):
            object.__setattr__(self, name, value)

    @property
    def n(self):
        if self.r == 1:
            return self.k + self.c * self.ell + self.w + 1
        return self.k + self.c * self.ell * self.r


def derive_dims(k, w, c):
    """Shared parameter validation and the (ell, m, last_block_len) rule.

    ell = max(w, ceil(log2 k)) keeps every window inside at most two
    adjacent blocks while the parities stay a vanishing fraction of the
    codeword as k grows.
    """
    for name, value in (("k", k), ("w", w), ("c", c)):
        if type(value) is not int:      # type(), not isinstance: a bool is refused too
            raise InvalidConfigError(f"{name}={value!r} is not an int")
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


def gc_params(k, w, c, kind="cauchy"):
    return CodeParams(k, w, c, kind)


def parity_bits(u, p):
    """The c parity blocks of message u as one bit string, parity 1 first.

    u is checked first: k characters, each '0' or '1' (is_binary, so
    nothing int() would also take, such as '_', spaces or a sign, gets
    through). The parities are read off the message int by popcounts
    (mds.packed_parities); both layouts of encode share this path.
    """
    if len(u) != p.k:
        raise ValueError(f"message must be {p.k} bits, got {len(u)}")
    if not is_binary(u):
        raise ValueError("message must contain only '0' and '1'")
    ell = p.ell
    packed = mds.packed_parities(int(u, 2) << (p.m * ell - p.k), p.gen)
    mask, width = (1 << ell) - 1, f"0{ell}b"
    return "".join([format(packed >> sh & mask, width) for sh in range(0, p.c * ell, ell)])


def encode(u, p):
    """The codeword of message u: the parities behind a buffer of w zeros
    and a one when p.r = 1, each parity bit repeated r times otherwise."""
    if p.r == 1:
        return u + "0" * p.w + "1" + parity_bits(u, p)
    return u + multi_window.repetition_encode(parity_bits(u, p), p.r)


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


def _screen(s, tail, p):
    """Every guess's syndromes and spare-parity verdict, in lanes.

    s is the received word cut to its first k - delta bits, tail its c
    parity symbols read as one int, parity 1 highest. Guess i holds
    blocks (i, i+1) damaged, so its syndromes are the parities xor the
    contributions of blocks 1..i-1 read at their nominal offsets and of
    blocks i+2..m read delta bits early (right-aligned against the end of
    s). Returns (syn, passed), laid out as mds.lane_tables describes:
    syndrome r+1 of guess i is lane m - 1 - i of syn's segment r, and the
    top bit of lane m - 1 - i of passed is set iff every spare parity
    agrees with syndromes 1 and 2.

    s is read as one int holding both readings of its blocks, copied into
    c segments, and every block's contribution to every parity is one
    lane-wise product (_times). A running xor from the top lane down, in
    doubling steps, leaves in each lane the xor of it and the lanes above,
    so guess i's syndromes are its lane xor the lane m - 2 above it xor
    the parities xor lane 0, the total. The spare checks are the same
    products on copies of syndromes 1 and 2, xored with the spare
    syndromes: a zero lane passes, and a lane is nonzero iff its top bit
    is set in (d & low) + low | d. Every size and mask that depends only
    on the generator comes from the lane tables.
    """
    ell, m, c = p.ell, p.m, p.c
    t = mds.lane_tables(p.gen)
    seg, lsb, full = t.seg, t.lsb, (1 << ell) - 1
    word, right = int(s, 2), max(p.k - 2 * ell, 0)   # bits of blocks 3..m
    x = word >> len(s) - (m - 2) * ell << right | word & (1 << right) - 1
    acc = _times(_copies(x << ell - p.last_block_len, seg, c), t.blocks, lsb, full)
    for shift, mask in t.scan:
        acc ^= acc >> shift & mask
    syn = ((acc >> (m - 2) * ell & t.left) ^ acc) & t.guesses
    for r in range(c):
        v = tail >> (c - 1 - r) * ell
        syn ^= ((acc >> r * seg ^ v) & full) * t.ones << r * seg
    size, one, half = t.size, t.one, t.half
    x = _copies(syn & one, size, c - 2) | _copies(syn >> seg & one, size, c - 2) << half
    acc = _times(x, t.spares, lsb, full)
    d = acc >> half ^ acc & t.firsts
    for q in range(c - 2):
        d ^= (syn >> (q + 2) * seg & one) << q * size
    failed = ((d & t.low) + t.low | d) & t.high
    for _ in range(c - 3):
        failed |= failed >> size
    return syn, (failed & t.tops) ^ t.tops


def _times(x, weights, lsb, full):
    """Lane-wise products: lane by lane, the xor over b of weights[b]'s
    lane where bit b of x's lane is set. With weights[b] alpha^b times a
    weight in each lane, each lane of the result is x's lane times it."""
    acc = 0
    for b, w in enumerate(weights):
        acc ^= (x >> b & lsb) * full & w
    return acc


def _copies(x, seg, count):
    """count copies of x, seg bits apart."""
    out = x
    for q in range(1, count):
        out |= x << q * seg
    return out


def _solved(lanes, passed, p):
    """(i, (block i, block i + 1)) for each guess i whose lane has its top
    bit set in passed, lowest guess (highest lane) first: the pair solved
    from syndromes 1 and 2 of guess i, lane m - 1 - i of segments 0 and 1
    of _screen's lanes, by the solve rows the lane tables keep for it."""
    ell, mask, exp, log = p.ell, (1 << p.ell) - 1, p.ctx.exp, p.ctx.log
    t, out = mds.lane_tables(p.gen), []
    seg, solves = t.seg, t.solves
    while passed:
        top = passed.bit_length() - 1
        passed ^= 1 << top
        i = p.m - 1 - top // ell
        (a0, a1), (b0, b1) = solves[i]
        l0 = log[lanes >> top + 1 - ell & mask]
        l1 = log[lanes >> seg + top + 1 - ell & mask]
        out.append((i, (exp[a0 + l0] ^ exp[a1 + l1], exp[b0 + l0] ^ exp[b1 + l1])))
    return out


def evaluate_guess(s, i, parities, p):
    """Verdict for the guess that blocks (i, i+1) absorbed the deletions.

    s is the received word truncated to its first k - delta bits, parities
    the c parity symbols read off the intact tail, each an int in
    [0, 2^ell). 1 <= i <= m - 1. Every check is run and reported; nothing
    short-circuits. The syndromes, spare verdict and checks are decode's:
    guess i's lanes of its screen, then multi_window._damaged_pair and
    _candidate.
    """
    if not 1 <= i <= p.m - 1:
        raise ValueError(f"guess index must be in [1, {p.m - 1}], got {i}")
    if not p.k - p.w <= len(s) <= p.k:
        raise ValueError(f"systematic part must hold k - w .. k bits, got {len(s)}")
    if not is_binary(s):
        raise ValueError("systematic part must contain only '0' and '1'")
    if len(parities) != p.c:
        raise ValueError(f"expected {p.c} parities, got {len(parities)}")
    if not all(isinstance(v, int) and 0 <= v < 1 << p.ell for v in parities):
        raise ValueError(f"parities must be field elements in [0, {1 << p.ell})")
    lanes, passed = _screen(s, mds.pack(parities[::-1], p.ell), p)
    top = 1 << (p.m - i) * p.ell - 1          # the top bit of guess i's lane
    parities_ok = bool(passed & top)
    [(_, pair)] = _solved(lanes, top, p)
    delta = p.k - len(s)
    region, dec, padding_ok, superseq_ok = multi_window._damaged_pair(s, p, i, 0, delta, *pair)
    cand = multi_window._candidate(s, p, (i,), (delta,), pair) if parities_ok else None
    return GuessEval(guess=i, decoded_pair=pair, erased_region=region,
                     decoded_bits=dec, padding_ok=padding_ok,
                     parities_ok=parities_ok, supersequence_ok=superseq_ok,
                     candidate=cand)


def decode(y, p):
    """Decode a received word missing up to w bits from each of z windows.

    Success carries the recovered message and how it was reached (a pair
    index, or None for the parity path). Failure carries every distinct
    surviving candidate. InvalidInput flags a word no compliant channel
    could have produced, or a word with characters other than 0 and 1.
    With r > 1 the word is decoded by the case loop of multi_window.
    """
    refused = _check_received(y, p)
    if refused is not None:
        return refused
    if p.r != 1:
        return multi_window._decode_repetition(y, p)
    delta = p.n - len(y)
    if delta == 0 or y[p.k + p.w - delta] == "0":
        return DecodeResult(SUCCESS, message=y[:p.k], guess=None)
    s = y[:p.k - delta]
    lanes, passed = _screen(s, int(y[len(y) - p.c * p.ell:], 2), p)
    shares = (delta,)
    return decide([(i, multi_window._candidate(s, p, (i,), shares, pair))
                   for i, pair in _solved(lanes, passed, p)])


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


# multi_window builds on the names above, and encode and decode call into it
# per word. Imported last, once they exist, so that either module can be
# imported first; a module-level name costs less per call than an import in
# the function body.
from . import multi_window  # noqa: E402
