"""Variant correcting deletions spread over z disjoint windows.

No buffer this time: the c parity blocks are protected by an r = z*w + 1
repetition code instead, so up to z*w missing bits can never silence a
whole repetition run. The decoder first reads the parities positionally
off the tail, then jointly guesses which z adjacent block pairs absorbed
the deletions and how many went to each window, erasure-decoding all 2z
suspect blocks from the first 2z parities and keeping a case only when the
spare parities, padding, and per-region supersequence tests all agree.
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


def enumerate_cases(mp, delta):
    """Every explanation the decoder must try for delta missing bits:
    z pairwise non-overlapping adjacent block pairs (named by their lower
    block, ascending) crossed with every split of delta over the windows
    with each share in [0, w]. Zero shares are included; a window may have
    swallowed nothing.
    """
    if not 0 <= delta <= mp.z * mp.w:
        raise ValueError(f"delta={delta} must be in [0, {mp.z * mp.w}]")
    m, z, w = mp.m, mp.z, mp.w
    splits = list(_compositions(delta, z, w))
    for picked in combinations(range(1, m - z + 1), z):
        pairs = tuple(q + t for t, q in enumerate(picked))
        for deltas in splits:
            yield pairs, deltas


class _MultiContext:
    """Scratch state for one received word: chunked symbols and parity
    partial sums per alignment shift, built lazily per shift."""

    def __init__(self, s, parities, mp):
        self.s = s
        self.parities = parities
        self.mp = mp
        self._prefix = {}

    def _prefix_tab(self, shift):
        """tab[j] = parity contributions of blocks jmin..j when block bits
        start at (j-1)*ell - shift; tab[jmin-1] is the zero tuple."""
        cached = self._prefix.get(shift)
        if cached is not None:
            return cached
        mp = self.mp
        ell, m, c, last = mp.ell, mp.m, mp.c, mp.last_block_len
        mul = mp.ctx.mul
        rows = mp.gen.rows
        s = self.s
        jmin = -(-shift // ell) + 1
        tab = {jmin - 1: (0,) * c}
        acc = tab[jmin - 1]
        for j in range(jmin, m + 1):
            start = (j - 1) * ell - shift
            blen = last if j == m else ell
            if start + blen > len(s):
                break
            v = int(s[start:start + blen], 2)
            if j == m:
                v <<= ell - last
            row = rows[j - 1]
            acc = tuple(acc[r] ^ mul(v, row[r]) for r in range(c))
            tab[j] = acc
        self._prefix[shift] = (jmin, tab)
        return jmin, tab

    def _segment(self, a, b, shift):
        """Contribution of intact blocks a..b at the given shift (zero when
        the range is empty)."""
        if a > b:
            return (0,) * self.mp.c
        jmin, tab = self._prefix_tab(shift)
        hi = tab[b]
        lo = tab[a - 1] if a - 1 >= jmin - 1 else tab[jmin - 1]
        return tuple(h ^ l for h, l in zip(hi, lo))

    def candidate(self, pairs, deltas):
        """Candidate message for one case, or None. The spare parities are
        checked first, straight from the syndromes with the cached solver
        of the case's erased blocks; only a case that passes them is
        solved and checked for padding and supersequences."""
        mp = self.mp
        z, ell, c, m, last = mp.z, mp.ell, mp.c, mp.m, mp.last_block_len
        mul = mp.ctx.mul
        s = self.s

        syn = list(self.parities)
        cum = 0
        seg_bounds = []
        prev_block_end = 0
        for i, d in zip(pairs, deltas):
            seg_bounds.append((prev_block_end + 1, i - 1, cum))
            cum += d
            prev_block_end = i + 1
        seg_bounds.append((prev_block_end + 1, m, cum))
        for a, b, shift in seg_bounds:
            contrib = self._segment(a, b, shift)
            for r in range(c):
                syn[r] ^= contrib[r]

        t = 2 * z
        erased = tuple(e for i in pairs for e in (i, i + 1))
        solver = mds.erasure_solver(mp.gen, erased)
        head = syn[:t]
        for r in range(t, c):
            acc = 0
            for a, v in zip(solver[r], head):
                acc ^= mul(a, v)
            if acc != syn[r]:
                return None
        sol = []
        for row in solver[:t]:
            acc = 0
            for a, v in zip(row, head):
                acc ^= mul(a, v)
            sol.append(acc)
        if erased[-1] == m and sol[-1] & ((1 << (ell - last)) - 1):
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
    ctx = _MultiContext(y[:mp.k - delta], parities, mp)
    winners = {}
    for pairs, deltas in enumerate_cases(mp, delta):
        cand = ctx.candidate(pairs, deltas)
        if cand is not None and cand not in winners:
            winners[cand] = (pairs, deltas)
    if not winners:
        return DecodeResult(INVALID_INPUT, reason="no deletion placement is consistent")
    if len(winners) == 1:
        cand, case = next(iter(winners.items()))
        return DecodeResult(SUCCESS, message=cand, guess=case)
    return DecodeResult(FAILURE, candidates=tuple(winners))
