"""Variant correcting deletions spread over z disjoint windows.

No buffer this time: the c parity blocks are protected by an r = z*w + 1
repetition code instead, so up to z*w missing bits can never silence a
whole repetition run. The decoder first reads the parities positionally
off the tail, then jointly guesses which z adjacent block pairs absorbed
the deletions and how many went to each window, erasure-decoding all 2z
suspect blocks from the first 2z parities and keeping a case only when the
spare parities, padding, and per-region supersequence tests all agree.

The case loop is fused, like the single-window guess loop. The c parities
of a word and the partial sums of the intact blocks are packed ints,
parity r+1 in bits [r*ell, (r+1)*ell) (mds.parity_sums), so a case's
syndromes are the parities xor one table difference per intact segment.
The first and last segments do not depend on the split and are xored in
once per placement; a split adds only its middle segments. The logs of
the 2z solving syndromes are taken once per case, and every spare parity
is checked inline against the placement's log-form solver rows
(mds.log_solver) with one antilog lookup per product and no function
call. Only the cases that pass are solved and given the padding and
supersequence checks; a pair with a zero share is checked by equality,
and the supersequence tests of the pairs with a share run once per
decode for each distinct set of them (_candidate). The placements, each
with its solver, are listed once per params on the first decode; the
splits once per delta.
"""

from dataclasses import dataclass, field
from itertools import combinations

from . import mds
from .gf2e import is_binary, read_symbols
from .single_window import (
    FAILURE,
    INVALID_INPUT,
    NOT_BINARY,
    SUCCESS,
    CodeParams,
    DecodeResult,
    InvalidConfigError,
    gc_params,
    is_subsequence,
    parity_bits,
)

# Enumerated cases grow combinatorially with z; past 3 windows the decoder
# is impractical at desk scale, so larger z must be asked for explicitly.
DEFAULT_MAX_Z = 3


@dataclass(frozen=True)
class MultiParams:
    base: CodeParams
    z: int
    r: int
    # Filled by the first decode, so building params builds neither:
    # _placement_table result
    _placements: list = field(default_factory=list, init=False, repr=False, compare=False)
    # delta -> _splits result
    _splits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def k(self):
        return self.base.k

    @property
    def w(self):
        return self.base.w

    @property
    def c(self):
        return self.base.c

    @property
    def ell(self):
        return self.base.ell

    @property
    def m(self):
        return self.base.m

    @property
    def last_block_len(self):
        return self.base.last_block_len

    @property
    def kind(self):
        return self.base.kind

    @property
    def ctx(self):
        return self.base.ctx

    @property
    def gen(self):
        return self.base.gen

    @property
    def n(self):
        return self.k + self.c * self.ell * self.r


def multi_params(k, w, c, z, kind="cauchy", allow_large_z=False):
    if z < 1:
        raise InvalidConfigError(f"z={z} must be at least 1")
    if z > DEFAULT_MAX_Z and not allow_large_z:
        raise InvalidConfigError(
            f"z={z} exceeds the default cap {DEFAULT_MAX_Z}; pass allow_large_z=True"
        )
    if c < 2 * z + 1:
        raise InvalidConfigError(f"c={c} must be at least 2z + 1 = {2 * z + 1}")
    base = gc_params(k, w, c, kind)
    if base.m < 2 * z:
        raise InvalidConfigError(
            f"{base.m} blocks cannot host {z} disjoint block pairs"
        )
    return MultiParams(base=base, z=z, r=z * w + 1)


def repetition_encode(bits, r):
    return "".join(ch * r for ch in bits)


def repetition_decode(bits, m_bits, r, d):
    """Read m_bits data bits off a repetition block missing d < r bits.

    Bit i is taken at position (i-1)*r + 1 of the damaged block. However
    the d missing bits are split between interior deletions and front
    truncation, that position still falls inside bit i's original run of r
    copies, so the readout is exact.
    """
    if not 0 <= d < r:
        raise ValueError(f"d={d} must satisfy 0 <= d < r={r}")
    if len(bits) != m_bits * r - d:
        raise ValueError(
            f"expected {m_bits * r - d} bits for m_bits={m_bits}, r={r}, d={d}; got {len(bits)}"
        )
    return "".join(bits[i * r] for i in range(m_bits))


def encode_multi(u, mp):
    return u + repetition_encode(parity_bits(u, mp.base), mp.r)


def _compositions(total, parts, cap):
    if parts == 1:
        if 0 <= total <= cap:
            yield (total,)
        return
    for head in range(min(cap, total) + 1):
        for rest in _compositions(total - head, parts - 1, cap):
            yield (head,) + rest


def _pair_placements(m, z):
    """Every placement of z pairwise non-overlapping adjacent block pairs
    among m blocks, each named by its lower block, ascending."""
    for picked in combinations(range(1, m - z + 1), z):
        yield tuple(q + t for t, q in enumerate(picked))


def enumerate_cases(mp, delta):
    """Every explanation the decoder must try for delta missing bits:
    z pairwise non-overlapping adjacent block pairs (named by their lower
    block, ascending) crossed with every split of delta over the windows
    with each share in [0, w]. Zero shares are included; a window may have
    swallowed nothing.
    """
    if not 0 <= delta <= mp.z * mp.w:
        raise ValueError(f"delta={delta} must be in [0, {mp.z * mp.w}]")
    splits = _splits(mp, delta)
    for pairs in _pair_placements(mp.m, mp.z):
        for deltas, _ in splits:
            yield pairs, deltas


def _splits(mp, delta):
    """Every split of delta over the z windows, each share in [0, w], kept
    on mp per delta. Each comes with the shifts of its z - 1 middle
    segments: segment j, between pairs j and j+1, is read d_1 + ... + d_j
    bits early."""
    splits = mp._splits.get(delta)
    if splits is None:
        splits = tuple((deltas, tuple(sum(deltas[:j]) for j in range(1, mp.z)))
                       for deltas in _compositions(delta, mp.z, mp.w))
        mp._splits[delta] = splits
    return splits


def _placement_table(mp):
    """Every pair placement with the log-form solver of its 2z blocks
    (mds.log_solver), in enumerate_cases order. Built on the first decode
    and kept on mp; a singular placement raises SingularSystemError on
    every request and nothing is kept."""
    table = mp._placements
    if not table:
        gen = mp.gen
        table.extend([(pairs, mds.log_solver(gen, tuple(e for i in pairs for e in (i, i + 1))))
                      for pairs in _pair_placements(mp.m, mp.z)])
    return table


def _shift_table(s, mp, shift):
    """Packed parity partial sums of the blocks of s read shift bits early:
    tab[j] covers blocks jmin..j, whose bits start at (j-1)*ell - shift,
    and is 0 for j < jmin. The table ends at the last block whole inside
    s, so a read past it raises IndexError instead of giving a wrong
    syndrome."""
    p = mp.base
    ell, m, k = p.ell, p.m, p.k
    jmin = -(-shift // ell) + 1
    # block j < m ends at j*ell - shift, block m at k - shift
    top = m if k - shift <= len(s) else min(m - 1, (len(s) + shift) // ell)
    symbols = read_symbols(s[(jmin - 1) * ell - shift:min(k, top * ell) - shift], ell)
    return mds.parity_sums(p.gen, jmin, symbols)


def _candidate(s, mp, pairs, deltas, solve, lh, seen):
    """The message of a case that passed the spare checks, or None. The
    2z blocks are solved from the logs lh of the solving syndromes with
    the solve rows of mds.log_solver.

    A pair with a zero share lost nothing, so its supersequence test is
    region == dec; that, and the padding of a short last block when the
    last pair has a zero share, is checked case by case. The pairs with a
    share fix the rest: their (i, d, solved pair) tuple decides the
    padding when the last pair is among them, their supersequence tests
    and the message. seen maps that tuple to its outcome for one decode,
    because every intact pair placed at a zero share next to the same
    damaged pairs repeats it.
    """
    p = mp.base
    ell, m, exp = p.ell, p.m, p.ctx.exp
    low = ell - p.last_block_len  # padding bits of a short last block
    sol = []
    for lws in solve:
        acc = 0
        for lw, lv in zip(lws, lh):
            acc ^= exp[lw + lv]
        sol.append(acc)
    key = []
    cum = 0
    for i, d, a, b in zip(pairs, deltas, sol[::2], sol[1::2]):
        if d:
            key.append((i, d, a, b))
            cum += d
            continue
        # region == dec, compared as ints: a zero-share region always
        # holds the pair's full 2*ell bits (ell + last for the last pair,
        # whose bits shifted up to whole blocks leave the padding zero)
        start = (i - 1) * ell - cum
        if i + 1 < m:
            if int(s[start:(i + 1) * ell - cum], 2) != a << ell | b:
                return None
        elif int(s[start:], 2) << low != a << ell | b:
            return None
    key = tuple(key)
    if key in seen:
        return seen[key]
    seen[key] = None
    pieces = []
    cum = 0
    prev_end = 0  # bits of s consumed so far
    width = f"0{ell}b"
    for i, d, a, b in key:
        start = (i - 1) * ell - cum
        pieces.append(s[prev_end:start])
        cum += d
        dec = format(a, width) + format(b, width)
        if i + 1 < m:
            region = s[start:(i + 1) * ell - cum]
        elif b & ((1 << low) - 1):
            return None
        else:
            region, dec = s[start:], dec[:ell + p.last_block_len]
        if not is_subsequence(region, dec):
            return None
        pieces.append(dec)
        prev_end = start + len(region)
    pieces.append(s[prev_end:])
    seen[key] = cand = "".join(pieces)
    return cand


def decode_multi(y, mp):
    """Counterpart of decode for the multi-window construction."""
    n = mp.n
    if not is_binary(y):
        return DecodeResult(INVALID_INPUT, reason=NOT_BINARY)
    if len(y) > n:
        return DecodeResult(INVALID_INPUT, reason=f"{len(y)} bits exceed the code length {n}")
    if len(y) < n - mp.z * mp.w:
        return DecodeResult(
            INVALID_INPUT,
            reason=f"{n - len(y)} deletions exceed the budget z*w = {mp.z * mp.w}",
        )
    p = mp.base  # plain fields, not MultiParams' forwarding properties
    z, ell, m = mp.z, p.ell, p.m
    delta = n - len(y)
    tail_len = p.c * ell * mp.r - delta
    parity_bits = repetition_decode(y[len(y) - tail_len:], p.c * ell, mp.r, delta)
    parities = mds.pack(read_symbols(parity_bits, ell), ell)
    table = _placement_table(mp)
    splits = _splits(mp, delta)
    s = y[:p.k - delta]

    # One table per shift some segment is read at: the first segment at 0,
    # the last at delta (block m ends at k - delta = len(s)), the middle
    # ones at their splits' shifts.
    tabs = [None] * (delta + 1)
    for shift in {0, delta}.union(*(shifts for _, shifts in splits)):
        tabs[shift] = _shift_table(s, mp, shift)
    first, last = tabs[0], tabs[delta]
    split_tabs = [(deltas, [tabs[sh] for sh in shifts]) for deltas, shifts in splits]

    exp, log = p.ctx.exp, p.ctx.log
    mask = (1 << ell) - 1
    t = 2 * z
    heads = range(0, t * ell, ell)
    winners = {}
    seen = {}
    for pairs, (solve, spare) in table:
        # Syndromes: the parities xor the intact segments between the
        # pairs, each read at the shift of the deletions before it. Only
        # the middle segments depend on the split.
        base = parities ^ first[pairs[0] - 1] ^ last[m] ^ last[pairs[-1] + 1]
        bounds = [(pairs[j] + 1, pairs[j + 1] - 1) for j in range(z - 1)]
        for deltas, mids in split_tabs:
            syn = base
            for tab, (lo, hi) in zip(mids, bounds):
                syn ^= tab[hi] ^ tab[lo]
            lh = [log[(syn >> sh) & mask] for sh in heads]
            for row in spare:
                acc = 0
                for lw, lv in zip(row, lh):  # t products; row[t] is the shift
                    acc ^= exp[lw + lv]
                if acc != (syn >> row[t]) & mask:
                    break
            else:
                cand = _candidate(s, mp, pairs, deltas, solve, lh, seen)
                if cand is not None and cand not in winners:
                    winners[cand] = (pairs, deltas)
    if not winners:
        return DecodeResult(INVALID_INPUT, reason="no deletion placement is consistent")
    if len(winners) == 1:
        cand, case = next(iter(winners.items()))
        return DecodeResult(SUCCESS, message=cand, guess=case)
    return DecodeResult(FAILURE, candidates=tuple(winners))
