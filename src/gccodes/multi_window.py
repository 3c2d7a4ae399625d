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
supersequence checks; a pair with a zero share is checked by equality.

A case is checked once per set of damaged pairs and their shares. Call
Q the pairs a split gives a positive share and E those shares: every
placement that contains Q, with E on Q and zero elsewhere, yields the
same candidate or none (_decode_repetition gives the argument), so only
the first such placement in enumerate_cases order runs the case. The
placements, each with its solver and the zero-share patterns it owns,
are listed once per params on the first decode; the splits once per
delta, grouped by the patterns that run them.

single_window.encode and decode run this layout for every params with
r > 1. encode_multi and decode_multi are those same two functions under
their former multi-window names.
"""

from dataclasses import replace
from itertools import combinations

from . import mds
from .gf2e import read_symbols
from .single_window import (
    InvalidConfigError,
    decide,
    decode,
    derive_dims,
    encode,
    gc_params,
    is_subsequence,
)

encode_multi, decode_multi = encode, decode

# Enumerated cases grow combinatorially with z; past 3 windows the decoder
# is impractical at desk scale, so multi_params refuses larger z.
MAX_Z = 3


def multi_dims(k, w, c, z):
    """The (ell, m, last_block_len) of derive_dims for z windows, after
    the checks z windows add: at least one window, the 2z solving
    parities plus a spare, and room for z disjoint block pairs."""
    if z < 1:
        raise InvalidConfigError(f"z={z} must be at least 1")
    if c < 2 * z + 1:
        raise InvalidConfigError(f"c={c} must be at least 2z + 1 = {2 * z + 1}")
    ell, m, last = derive_dims(k, w, c)
    if m < 2 * z:
        raise InvalidConfigError(f"{m} blocks cannot host {z} disjoint block pairs")
    return ell, m, last


def multi_params(k, w, c, z, kind="cauchy"):
    if z > MAX_Z:
        raise InvalidConfigError(f"z={z} exceeds the cap of {MAX_Z} windows")
    multi_dims(k, w, c, z)
    return replace(gc_params(k, w, c, kind), z=z, r=z * w + 1)


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


def enumerate_cases(p, delta):
    """Every explanation the decoder must try for delta missing bits:
    z pairwise non-overlapping adjacent block pairs (named by their lower
    block, ascending) crossed with every split of delta over the windows
    with each share in [0, w]. Zero shares are included; a window may have
    swallowed nothing.
    """
    if not 0 <= delta <= p.z * p.w:
        raise ValueError(f"delta={delta} must be in [0, {p.z * p.w}]")
    for pairs in _pair_placements(p.m, p.z):
        for deltas in _compositions(delta, p.z, p.w):
            yield pairs, deltas


def _placement_table(p):
    """Every pair placement in enumerate_cases order, with the log-form
    solver of its 2z blocks (mds.log_solver) and the zero-share patterns
    it owns. A pattern is a z-bit mask, bit j set when pair j gets a zero
    share; bit mask of the placement's owned int is set when it is the
    first placement to contain the pairs the pattern leaves damaged.
    Built on the first decode and kept on p; a singular placement raises
    SingularSystemError on every request and nothing is kept."""
    table = p._placements
    if not table:
        gen, z = p.gen, p.z
        rows = []
        first = {}  # damaged pairs -> the first placement containing them
        for pairs in _pair_placements(p.m, z):
            owned = 0
            for mask in range(1 << z):
                damaged = tuple(i for j, i in enumerate(pairs) if not mask >> j & 1)
                if first.setdefault(damaged, pairs) == pairs:
                    owned |= 1 << mask
            rows.append((pairs, mds.log_solver(gen, tuple(e for i in pairs for e in (i, i + 1))),
                         owned))
        table.extend(rows)
    return table


def _split_runs(p, delta, table):
    """The splits of delta over the z windows, each share in [0, w], that
    each owned int of the placement table runs, in enumerate_cases order:
    those whose zero-share pattern it owns. Each split comes with the
    shifts of its z - 1 middle segments: segment j, between pairs j and
    j+1, is read d_1 + ... + d_j bits early. Returned with the set of
    shifts some segment is read at: the first segment at 0, the last at
    delta (block m ends at k - delta), the middle ones at their splits'
    shifts. Kept on p per delta."""
    found = p._runs.get(delta)
    if found is None:
        splits = [(deltas, tuple(sum(deltas[:j]) for j in range(1, p.z)))
                  for deltas in _compositions(delta, p.z, p.w)]
        masks = [sum(1 << j for j, d in enumerate(deltas) if not d) for deltas, _ in splits]
        runs = {owned: tuple(sp for sp, mask in zip(splits, masks) if owned >> mask & 1)
                for owned in {owned for _, _, owned in table}}
        shifts = {0, delta}.union(*(mids for _, mids in splits))
        found = p._runs[delta] = shifts, runs
    return found


def _shift_table(s, p, shift):
    """Packed parity partial sums of the blocks of s read shift bits early:
    tab[j] covers blocks jmin..j, whose bits start at (j-1)*ell - shift,
    and is 0 for j < jmin. The table ends at the last block whole inside
    s, so a read past it raises IndexError instead of giving a wrong
    syndrome."""
    ell, m, k = p.ell, p.m, p.k
    jmin = -(-shift // ell) + 1
    # block j < m ends at j*ell - shift, block m at k - shift
    top = m if k - shift <= len(s) else min(m - 1, (len(s) + shift) // ell)
    symbols = read_symbols(s[(jmin - 1) * ell - shift:min(k, top * ell) - shift], ell)
    return mds.parity_sums(p.gen, jmin, symbols)


def _candidate(s, p, pairs, deltas, solve, lh):
    """The message of a case that passed the spare checks, or None. The
    2z blocks are solved from the logs lh of the solving syndromes with
    the solve rows of mds.log_solver.

    A pair with a zero share lost nothing, so its supersequence test is
    region == dec, compared as ints; that also checks the padding of a
    short last block when the last pair has a zero share. A pair with a
    share needs zero padding when it is the last pair, passes the
    supersequence test, and puts its solved blocks into the message.
    """
    ell, m, exp = p.ell, p.m, p.ctx.exp
    low = ell - p.last_block_len  # padding bits of a short last block
    sol = []
    for lws in solve:
        acc = 0
        for lw, lv in zip(lws, lh):
            acc ^= exp[lw + lv]
        sol.append(acc)
    pieces = []
    cum = 0
    prev_end = 0  # bits of s consumed so far
    width = f"0{ell}b"
    for i, d, a, b in zip(pairs, deltas, sol[::2], sol[1::2]):
        start = (i - 1) * ell - cum
        if not d:
            # a zero-share region always holds the pair's full 2*ell bits
            # (ell + last for the last pair, whose bits shifted up to
            # whole blocks leave the padding zero)
            if i + 1 < m:
                if int(s[start:(i + 1) * ell - cum], 2) != a << ell | b:
                    return None
            elif int(s[start:], 2) << low != a << ell | b:
                return None
            continue
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
    return "".join(pieces)


def _decode_repetition(y, p):
    """decode for a params with r > 1, on a word _check_received passed.

    Each case (pairs, deltas) of enumerate_cases is checked at most once
    per set Q of pairs with a positive share and their shares E, at the
    first placement containing Q. That is exact:

    * every intact block is read at the sum of the shares before it, and
      a zero share adds nothing, so the syndrome with only Q erased is
      the same for every placement containing Q;
    * every 2z-block system is nonsingular (_placement_table raises
      SingularSystemError otherwise), so a case's solve is unique;
    * so a zero-share pair passes its equality check, and the spare
      parities hold, exactly when that syndrome lies in the span of Q's
      columns, and then Q's solved blocks are the same either way;
    * so every case with the same (Q, E) yields the same candidate or
      none. The first of them in enumeration order is the one checked, so
      the first case to yield each candidate, which is the guess reported
      and fixes the order of the candidates, is unchanged.

    InvalidInput means no case tried is consistent. The cases assume that
    every deletion hit the message bits and that no two windows share a
    block pair, so some compliant words come out invalid: at k = 64,
    w = 4, c = 8, z = 2, about half of whole-codeword draws with w each.
    """
    z, ell, m = p.z, p.ell, p.m
    delta = p.n - len(y)
    tail_len = p.c * ell * p.r - delta
    parity_bits = repetition_decode(y[len(y) - tail_len:], p.c * ell, p.r, delta)
    parities = mds.pack(read_symbols(parity_bits, ell), ell)
    table = _placement_table(p)
    shifts, runs = _split_runs(p, delta, table)
    s = y[:p.k - delta]

    # One table per shift some segment is read at.
    tabs = [None] * (delta + 1)
    for shift in shifts:
        tabs[shift] = _shift_table(s, p, shift)
    first, last = tabs[0], tabs[delta]
    runs = {owned: [(deltas, [tabs[sh] for sh in mids]) for deltas, mids in run]
            for owned, run in runs.items()}

    exp, log = p.ctx.exp, p.ctx.log
    mask = (1 << ell) - 1
    t = 2 * z
    heads = range(0, t * ell, ell)
    winners = {}
    for pairs, (solve, spare), owned in table:
        split_tabs = runs[owned]
        if not split_tabs:
            continue
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
                cand = _candidate(s, p, pairs, deltas, solve, lh)
                if cand is not None and cand not in winners:
                    winners[cand] = (pairs, deltas)
    return decide(winners)
