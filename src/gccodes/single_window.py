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

The guesses run in one fused loop: per guess, two xors of packed partial
sums give the syndromes, and the spare parities are checked inline with
one antilog lookup per product, against log-form rows kept on the
generator. Only the few guesses that pass them are solved and given the
padding and supersequence checks. evaluate_guess reports a single guess
through the same two steps.

Distinct surviving candidates mean the decoder refuses to choose (Failure);
a single surviving candidate is provably the sent message when the channel
respected the window contract.
"""

from dataclasses import dataclass

from . import mds
from .gf2e import FieldContext, bits_to_symbols


class InvalidConfigError(ValueError):
    pass


class TooManyDeletionsError(ValueError):
    pass


class TooLongError(ValueError):
    pass


SUCCESS = "success"
FAILURE = "failure"
INVALID_INPUT = "invalid-input"


@dataclass(frozen=True)
class CodeParams:
    k: int
    w: int
    c: int
    ell: int
    m: int
    last_block_len: int
    kind: str
    ctx: FieldContext
    gen: mds.Generator

    @property
    def n(self):
        return self.k + self.c * self.ell + self.w + 1


def derive_dims(k, w, c):
    """Shared parameter validation and the (ell, m, last_block_len) rule.

    ell = max(w, ceil(log2 k)) keeps every window inside at most two
    adjacent blocks while the parities stay a vanishing fraction of the
    codeword as k grows.
    """
    if k < 4:
        raise InvalidConfigError(f"k={k} must be at least 4")
    if not 1 <= w < k:
        raise InvalidConfigError(f"w={w} must satisfy 1 <= w < k")
    if c < 3:
        raise InvalidConfigError(f"c={c} must be at least 3")
    ell = max(w, (k - 1).bit_length())
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
    ell, m, last = derive_dims(k, w, c)
    ctx = FieldContext(ell)
    gen = mds.make_generator(m, c, ctx, kind)
    return CodeParams(k=k, w=w, c=c, ell=ell, m=m, last_block_len=last,
                      kind=kind, ctx=ctx, gen=gen)


def parity_bits(u, p):
    """The c parity blocks of message u as one bit string, parity 1 first.

    u is checked first: k characters, each '0' or '1' (is_binary, so
    nothing int() would also take, such as '_', spaces or a sign, gets
    through). The parities are read off the message int by popcounts
    (mds.packed_parities); encode and encode_multi share this path.
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
    return u + "0" * p.w + "1" + parity_bits(u, p)


@dataclass(frozen=True)
class RegionReport:
    systematic_affected: bool
    delta: int


def detect_affected_region(y, p):
    """Which side of the buffer lost bits, decided by one received bit.

    With delta = n - |y| deletions all confined to one w-window, position
    k + w - delta + 1 of y (1-indexed) reads 1 exactly when every deletion
    happened left of the buffer's one, i.e. the message bits may be
    damaged but the parity tail is intact. It reads 0 exactly when the
    message bits are untouched.
    """
    if len(y) > p.n:
        raise TooLongError(f"received {len(y)} bits but the code length is {p.n}")
    if len(y) < p.n - p.w:
        raise TooManyDeletionsError(
            f"received {len(y)} bits; at most {p.w} deletions are correctable"
        )
    delta = p.n - len(y)
    if delta == 0:
        return RegionReport(False, 0)
    return RegionReport(y[p.k + p.w - delta] == "1", delta)


def is_binary(y):
    """True iff y holds only '0' and '1'. Deleting both from the ASCII
    bytes is one C pass, about twice as fast as counting them; isascii,
    a flag check, refuses first what encode could not turn into ASCII."""
    return y.isascii() and not y.encode().translate(None, b"01")


NOT_BINARY = "the received word must contain only '0' and '1'"


def is_subsequence(sub, sup):
    """True iff sub can be obtained from sup by deleting characters."""
    it = iter(sup)
    return all(ch in it for ch in sub)


@dataclass(frozen=True)
class DecodeResult:
    status: str
    message: str | None = None
    # Winning guess: the block-pair index for the guess path, None for the
    # parity path. decode_multi stores its (pairs, deltas) case here.
    guess: object = None
    candidates: tuple = ()
    reason: str | None = None

    @property
    def ok(self):
        return self.status == SUCCESS


@dataclass(frozen=True)
class GuessEval:
    """Full verdict for one guess, kept for inspection and tests."""
    guess: int
    decoded_pair: tuple
    erased_region: str
    decoded_bits: str
    padding_ok: bool
    parities_ok: bool
    supersequence_ok: bool
    candidate: str | None


class _GuessContext:
    """Per-received-word scratch state shared across all guesses.

    Chunking the prefix once left-aligned and the suffix once right-aligned,
    plus running parity partial sums from both ends, makes each guess cost
    O(c) field operations instead of O(m * c). Parities and partial sums
    are packed ints in the layout of mds.parity_sums, which reads each
    block's contribution off the generator's split tables (mds.sum_tables),
    two lookups up to ell = 12 and no product. A guess's syndromes are
    then two xors.

    The guess loop, passing(), is fused: per guess it forms the syndromes,
    takes out syndromes 1 and 2 and checks every spare parity inline
    against the log-form rows of mds.pair_checks, making no function call.
    Only a guess that passes them (the true one, and about 2^-ell of the
    others at c = 3) reaches verdict(), which solves the pair from the
    log-form solve rows of mds.log_solver and runs the padding and
    supersequence checks. decode and evaluate share both.
    """

    def __init__(self, s, parities, p):
        self.s = s
        ell, m = p.ell, p.m
        self.parities = mds.pack(parities, ell)
        self.p = p
        self.checks = mds.pair_checks(p.gen)

        # left[i]: parity contributions of blocks 1..i read at their nominal
        # offsets (valid while those blocks are undamaged, i.e. i < guess).
        self.left = mds.parity_sums(
            p.gen, enumerate(bits_to_symbols(s[:(m - 2) * ell], p.ctx), 1))

        # right[j]: contributions of blocks j..m read right-aligned against
        # the end of s (valid when the deletions happened before block j),
        # for 3 <= j <= m + 2; the unused entries 0..2 are None.
        tail = bits_to_symbols(s[len(s) - p.last_block_len - (m - 3) * ell:], p.ctx)
        sums = mds.parity_sums(p.gen, zip(range(m, 2, -1), reversed(tail)))
        self.right = [None] * 3 + sums[::-1] + [0]

    def passing(self, guesses):
        """Yield (i, syn) for each guess i whose spare parities all agree
        with what syndromes 1 and 2 predict. syn packs the syndromes of the
        guess that blocks (i, i+1) are damaged and every other block is
        intact."""
        parities, left, right, checks = self.parities, self.left, self.right, self.checks
        exp, log = self.p.ctx.exp, self.p.ctx.log
        ell = self.p.ell
        mask = (1 << ell) - 1
        for i in guesses:
            syn = parities ^ left[i - 1] ^ right[i + 2]
            l0 = log[syn & mask]
            l1 = log[(syn >> ell) & mask]
            for la, lb, sh in checks[i]:
                if exp[l0 + la] ^ exp[l1 + lb] != (syn >> sh) & mask:
                    break
            else:
                yield i, syn

    def verdict(self, i, syn, parities_ok):
        """Solve the pair of guess i from syndromes 1 and 2, run the padding
        and supersequence checks, and report them with parities_ok; the
        candidate is set only when all three hold."""
        p = self.p
        ell, mask, exp, log = p.ell, (1 << p.ell) - 1, p.ctx.exp, p.ctx.log
        (a0, a1), (b0, b1) = mds.log_solver(p.gen, (i, i + 1))[0]
        l0, l1 = log[syn & mask], log[(syn >> ell) & mask]
        ui = exp[a0 + l0] ^ exp[a1 + l1]
        uj = exp[b0 + l0] ^ exp[b1 + l1]
        padding_ok = not (i + 1 == p.m and uj & ((1 << (ell - p.last_block_len)) - 1))
        # the guessed region, and the intact blocks i+2..m behind it
        tail = (p.m - i - 2) * ell + p.last_block_len if i + 1 < p.m else 0
        e = self.s[(i - 1) * ell: len(self.s) - tail]
        pair_len = ell + (p.last_block_len if i + 1 == p.m else ell)
        width = f"0{ell}b"
        dec = (format(ui, width) + format(uj, width))[:pair_len]
        superseq_ok = is_subsequence(e, dec)
        cand = None
        if padding_ok and parities_ok and superseq_ok:
            cand = self.s[:(i - 1) * ell] + dec + (self.s[len(self.s) - tail:] if tail else "")
        return GuessEval(guess=i, decoded_pair=(ui, uj), erased_region=e,
                         decoded_bits=dec, padding_ok=padding_ok,
                         parities_ok=parities_ok, supersequence_ok=superseq_ok,
                         candidate=cand)

    def evaluate(self, i):
        """Every check of guess i, run and reported; nothing short-circuits."""
        syn = self.parities ^ self.left[i - 1] ^ self.right[i + 2]
        parities_ok = next(self.passing((i,)), None) is not None
        return self.verdict(i, syn, parities_ok)


def evaluate_guess(s, i, parities, p):
    """Verdict for the guess that blocks (i, i+1) absorbed the deletions.

    s is the received word truncated to its first k - delta bits, parities
    the c parity symbols read off the intact tail. 1 <= i <= m - 1.
    """
    if not 1 <= i <= p.m - 1:
        raise ValueError(f"guess index must be in [1, {p.m - 1}], got {i}")
    if not p.k - p.w <= len(s) <= p.k:
        raise ValueError(f"systematic part must hold k - w .. k bits, got {len(s)}")
    return _GuessContext(s, list(parities), p).evaluate(i)


def try_guess(s, i, parities, p):
    """Candidate message under guess i, or None when the guess is impossible."""
    return evaluate_guess(s, i, parities, p).candidate


def decode(y, p):
    """Decode a received word missing up to w bits from one window.

    Success carries the recovered message and how it was reached (a pair
    index, or None for the parity path). Failure carries every distinct
    surviving candidate. InvalidInput flags a word no compliant channel
    could have produced, or a word with characters other than 0 and 1.
    """
    if not is_binary(y):
        return DecodeResult(INVALID_INPUT, reason=NOT_BINARY)
    if len(y) > p.n:
        return DecodeResult(INVALID_INPUT, reason=f"{len(y)} bits exceed the code length {p.n}")
    if len(y) < p.n - p.w:
        return DecodeResult(
            INVALID_INPUT,
            reason=f"{p.n - len(y)} deletions exceed the window size {p.w}",
        )
    delta = p.n - len(y)
    if delta == 0 or y[p.k + p.w - delta] == "0":
        return DecodeResult(SUCCESS, message=y[:p.k], guess=None)
    parities = bits_to_symbols(y[len(y) - p.c * p.ell:], p.ctx)
    ctx = _GuessContext(y[:p.k - delta], parities, p)
    winners = {}
    for i, syn in ctx.passing(range(1, p.m)):
        cand = ctx.verdict(i, syn, True).candidate
        if cand is not None and cand not in winners:
            winners[cand] = i
    if not winners:
        return DecodeResult(INVALID_INPUT, reason="no deletion placement is consistent")
    if len(winners) == 1:
        cand, i = next(iter(winners.items()))
        return DecodeResult(SUCCESS, message=cand, guess=i)
    return DecodeResult(FAILURE, candidates=tuple(winners))
