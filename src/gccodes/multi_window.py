"""Variant correcting deletions spread over z disjoint windows.

No buffer this time: the c parity blocks are protected by an r = z*w + 1
repetition code instead, so up to z*w missing bits can never silence a
whole repetition run. The decoder first reads the parities positionally
off the tail, then jointly guesses which z adjacent block pairs absorbed
the deletions and how many went to each window, erasure-decoding all 2z
suspect blocks from the first 2z parities and keeping a case only when the
spare parities, padding, and per-region supersequence tests all agree.

The c parities of a word and the partial sums of the intact blocks are
packed ints, parity r+1 in bits [r*ell, (r+1)*ell) (mds.parity_sums), so a
case's syndromes are the parities xor one table difference per intact
segment. Only the 2z solving syndromes, and each spare one as it is
checked, are taken out with a shift and a mask. The erasure solver is
looked up once per pair placement and shared by all its splits.
"""

from dataclasses import dataclass
from itertools import combinations

from . import mds
from .gf2e import bits_to_symbols, symbols_to_bits
from .single_window import (
    FAILURE,
    INVALID_INPUT,
    SUCCESS,
    CodeParams,
    DecodeResult,
    InvalidConfigError,
    gc_params,
    is_subsequence,
)

# Enumerated cases grow combinatorially with z; past 3 windows the decoder
# is impractical at desk scale, so larger z must be asked for explicitly.
DEFAULT_MAX_Z = 3


@dataclass(frozen=True)
class MultiParams:
    base: CodeParams
    z: int
    r: int

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
    p = mp.base
    if len(u) != p.k:
        raise ValueError(f"message must be {p.k} bits, got {len(u)}")
    if set(u) - {"0", "1"}:
        raise ValueError("message must contain only '0' and '1'")
    parities = mds.encode_parities(bits_to_symbols(u, p.ctx), p.gen)
    return u + repetition_encode(symbols_to_bits(parities, p.ctx), mp.r)


def _compositions(total, parts, cap):
    if parts == 1:
        if 0 <= total <= cap:
            yield (total,)
        return
    for head in range(min(cap, total) + 1):
        for rest in _compositions(total - head, parts - 1, cap):
            yield (head,) + rest


def _placements(mp, delta):
    """Every placement of z pairwise non-overlapping adjacent block pairs
    (named by their lower block, ascending), each with the list of splits
    of delta over the windows, every share in [0, w]."""
    if not 0 <= delta <= mp.z * mp.w:
        raise ValueError(f"delta={delta} must be in [0, {mp.z * mp.w}]")
    m, z, w = mp.m, mp.z, mp.w
    splits = list(_compositions(delta, z, w))
    for picked in combinations(range(1, m - z + 1), z):
        yield tuple(q + t for t, q in enumerate(picked)), splits


def enumerate_cases(mp, delta):
    """Every explanation the decoder must try for delta missing bits:
    z pairwise non-overlapping adjacent block pairs (named by their lower
    block, ascending) crossed with every split of delta over the windows
    with each share in [0, w]. Zero shares are included; a window may have
    swallowed nothing.
    """
    for pairs, splits in _placements(mp, delta):
        for deltas in splits:
            yield pairs, deltas


class _MultiContext:
    """Scratch state for one received word: the packed parities and, per
    alignment shift, a table of packed parity partial sums, built lazily."""

    def __init__(self, s, parities, mp, delta):
        self.s = s
        self.parities = mds.pack(parities, mp.ell)
        self.mp = mp
        self._tabs = [None] * (delta + 1)

    def _prefix_tab(self, shift):
        """Build and keep the table of one shift: tab[j] = packed parity
        contributions of blocks jmin..j when block bits start at
        (j-1)*ell - shift, and 0 for j < jmin. The table ends at the last
        block whole inside s, so a read past it raises IndexError instead
        of giving a wrong syndrome."""
        p = self.mp.base
        ell, m, k = p.ell, p.m, p.k
        s = self.s
        jmin = -(-shift // ell) + 1
        # block j < m ends at j*ell - shift, block m at k - shift
        top = m if k - shift <= len(s) else min(m - 1, (len(s) + shift) // ell)
        symbols = bits_to_symbols(s[(jmin - 1) * ell - shift:min(k, top * ell) - shift], p.ctx)
        tab = [0] * (jmin - 1) + mds.parity_sums(p.gen, zip(range(jmin, top + 1), symbols))
        self._tabs[shift] = tab
        return tab

    def candidate(self, pairs, deltas, solver):
        """Candidate message for one case, or None. solver is the cached
        erasure solver of the case's 2z blocks. The spare parities are
        checked first, straight from the syndromes; only a case that
        passes them is solved and checked for padding and supersequences."""
        p = self.mp.base  # plain fields, not MultiParams' forwarding properties
        z, ell, c, m, last = self.mp.z, p.ell, p.c, p.m, p.last_block_len
        mul = p.ctx.mul
        s = self.s

        # Syndromes: the parities xor the intact segments between the
        # pairs, each read at the shift of the deletions before it. Every
        # read is in range: the last segment's shift is delta, so block m
        # ends at k - delta = len(s).
        tabs = self._tabs
        syn = self.parities
        a = 1
        shift = 0
        for i, d in zip(pairs, deltas):
            tab = tabs[shift] or self._prefix_tab(shift)
            syn ^= tab[i - 1] ^ tab[a - 1]
            a = i + 2
            shift += d
        tab = tabs[shift] or self._prefix_tab(shift)
        syn ^= tab[m] ^ tab[a - 1]

        t = 2 * z
        mask = (1 << ell) - 1
        head = [(syn >> sh) & mask for sh in range(0, t * ell, ell)]
        for r in range(t, c):
            acc = 0
            for g, v in zip(solver[r], head):
                acc ^= mul(g, v)
            if acc != (syn >> (r * ell)) & mask:
                return None
        sol = []
        for row in solver[:t]:
            acc = 0
            for g, v in zip(row, head):
                acc ^= mul(g, v)
            sol.append(acc)
        if pairs[-1] + 1 == m and sol[-1] & ((1 << (ell - last)) - 1):
            return None

        width = f"0{ell}b"
        pieces = []
        cum = 0
        prev_end = 0  # bits of s consumed so far
        for j, (i, d) in enumerate(zip(pairs, deltas)):
            seg_start = prev_end
            region_start = (i - 1) * ell - cum
            pieces.append(s[seg_start:region_start])
            cum += d
            pair_len = ell + (last if i + 1 == m else ell)
            region = s[region_start:(i + 1) * ell - cum] if i + 1 < m else s[region_start:]
            dec = (format(sol[2 * j], width) + format(sol[2 * j + 1], width))[:pair_len]
            if not is_subsequence(region, dec):
                return None
            pieces.append(dec)
            prev_end = region_start + len(region)
        pieces.append(s[prev_end:])
        return "".join(pieces)


def decode_multi(y, mp):
    """Counterpart of decode for the multi-window construction."""
    n = mp.n
    if len(y) > n:
        return DecodeResult(INVALID_INPUT, reason=f"{len(y)} bits exceed the code length {n}")
    if len(y) < n - mp.z * mp.w:
        return DecodeResult(
            INVALID_INPUT,
            reason=f"{n - len(y)} deletions exceed the budget z*w = {mp.z * mp.w}",
        )
    delta = n - len(y)
    tail_len = mp.c * mp.ell * mp.r - delta
    parity_bits = repetition_decode(y[len(y) - tail_len:], mp.c * mp.ell, mp.r, delta)
    parities = bits_to_symbols(parity_bits, mp.ctx)
    ctx = _MultiContext(y[:mp.k - delta], parities, mp, delta)
    winners = {}
    for pairs, splits in _placements(mp, delta):
        erased = tuple(e for i in pairs for e in (i, i + 1))
        solver = mds.erasure_solver(mp.gen, erased)
        for deltas in splits:
            cand = ctx.candidate(pairs, deltas, solver)
            if cand is not None and cand not in winners:
                winners[cand] = (pairs, deltas)
    if not winners:
        return DecodeResult(INVALID_INPUT, reason="no deletion placement is consistent")
    if len(winners) == 1:
        cand, case = next(iter(winners.items()))
        return DecodeResult(SUCCESS, message=cand, guess=case)
    return DecodeResult(FAILURE, candidates=tuple(winners))
