"""Variant correcting deletions spread over z disjoint windows.

No buffer this time: the c parity blocks are protected by an r = z*w + 1
repetition code instead, so up to z*w missing bits can never silence a
whole repetition run. The decoder first reads the parities positionally
off the tail, then jointly guesses which z adjacent block pairs absorbed
the deletions and how many went to each window, erasure-decoding all 2z
suspect blocks from the first 2z parities and keeping a case only when the
spare parities, padding, and per-region supersequence tests all agree.

The cases are screened at once, with the lane products of the
single-window screen (single_window._times). The c parities of a word
and the partial sums of the intact blocks are packed ints (mds.pack), so
a case's syndromes are the parities xor one difference of partial sums
per intact segment. _prefix_sums gives the partial sums at every shift a
segment is read at, in one lane pass over s. _case_table lists, once per
delta, every case the decoder runs, with the index arrays of those reads
and the spare weights of its placement's log-form solver rows
(mds.log_solver) in lanes. _screen gathers the syndromes of every case
into one int, a block per case, with C-level maps over those arrays, and
checks every spare parity of every case as lane products: no
Python code runs per case. Only the cases that pass are solved and given
the padding and supersequence checks (_candidate); a pair with a zero
share is checked by equality. _candidate is the one such check for both
codes: single_window.decode hands it each guess that passes its own
screen as the case of one pair.

A case is checked once per set of damaged pairs and their shares. Call
Q the pairs a split gives a positive share and E those shares: every
placement that contains Q, with E on Q and zero elsewhere, yields the
same candidate or none (_decode_repetition gives the argument), so only
the first such placement in enumerate_cases order runs the case. The
placements, each with its solver and the zero-share patterns it owns,
are listed once per params on the first decode; each delta's case table
is built from those rows on its first decode.

single_window.encode and decode run this layout for every params with
r > 1. encode_multi and decode_multi are those same two functions under
their former multi-window names.
"""

from array import array
from bisect import bisect_right
from dataclasses import replace
from functools import reduce
from itertools import accumulate, combinations, compress
from math import comb
from operator import mul, xor
from types import SimpleNamespace

from . import mds
from .gf2e import read_symbols
from .single_window import (
    InvalidConfigError,
    _times,
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

# The decoder's tables grow with the case count (max_case_count), so
# multi_params refuses more than this; multi_params(256, 4, 8, 3), the
# largest code in the tests, demos, bench and criteria, has 69 426.
MAX_CASES = 100_000

# Byte -> 1 when its bit 0 is clear: the screen passed that case's block.
_PASSED = bytes(1 - (b & 1) for b in range(256))


def multi_dims(k, w, c, z):
    """The (ell, m, last_block_len) of derive_dims for z windows, after
    the checks z windows add: one to MAX_Z windows, the 2z solving
    parities plus a spare, room for z disjoint block pairs, MAX_CASES."""
    if z < 1:
        raise InvalidConfigError(f"z={z} must be at least 1")
    if z > MAX_Z:
        raise InvalidConfigError(f"z={z} exceeds the cap of {MAX_Z} windows")
    if c < 2 * z + 1:
        raise InvalidConfigError(f"c={c} must be at least 2z + 1 = {2 * z + 1}")
    ell, m, last = derive_dims(k, w, c)
    if m < 2 * z:
        raise InvalidConfigError(f"{m} blocks cannot host {z} disjoint block pairs")
    cases = _case_count(m, w, z)
    if cases > MAX_CASES:
        raise InvalidConfigError(f"{cases} cases exceed the case budget of {MAX_CASES}")
    return ell, m, last


def multi_params(k, w, c, z, kind="cauchy"):
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
    return bits[::r]


def _compositions(total, parts, cap):
    if parts == 1:
        if 0 <= total <= cap:
            yield (total,)
        return
    for head in range(min(cap, total) + 1):
        for rest in _compositions(total - head, parts - 1, cap):
            yield (head,) + rest


def _case_count(m, w, z):
    """max_case_count's closed form: placements times the most splits."""
    splits = max(sum(1 for _ in _compositions(d, z, w)) for d in range(z * w + 1))
    return comb(m - z, z) * splits


def max_case_count(k, w, c, z):
    """Exact worst-case size of enumerate_cases over all deletion counts.

    This is the set the failure bound takes its union over, not the number
    of cases decode checks at r > 1: that checks each set of damaged pairs
    and their shares once, at the first placement holding them, so it
    checks fewer. It refuses what multi_params refuses.
    """
    return _case_count(multi_dims(k, w, c, z)[1], w, z)


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
    Built on the first decode and kept on p."""
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


def _table_top(p, delta, shift):
    """The last block whose prefix sum at shift is read for a word missing
    delta bits: block m when block m ends inside s (it ends at k - shift),
    else the last block whole inside s. It depends only on delta and the
    shift."""
    if shift >= delta:
        return p.m
    return min(p.m - 1, (p.k - delta + shift) // p.ell)


def _lanes(p, table):
    """The layout of the case screen, and its masks, kept on p.

    The screen's ints are cut into blocks of nb bytes, each of width lanes
    of ell bits, lane 0 lowest. lsb and low mask bit 0 and bits 0..ell-2
    of every lane; only & reads a mask, so each covers the most blocks
    any delta uses, and a shorter int reads it as it is.

    The prefix sums come in groups of m + 1 blocks, one per shift
    (_prefix_sums): steps lists the (mask, shift) moves that spread
    ell-bit lanes out to one per block, copy copies lane 0 into lanes
    0..c-1, weights holds mds.lane_powers of block j's packed weights in
    block m - j of every group, and scan a (shift, mask) pair per
    doubling step of the running xor down each group. ones has bit 0 of
    every block of one group, syndromes lanes 0..c-1 of one block, and
    slices cuts the blocks out of the bytes of an int.

    A case's block holds its packed syndromes in lanes 0..c-1. For the
    spare checks it holds one group of 2z lanes per spare parity: group
    q, lanes q*2z..q*2z+2z-1, holds the 2z solving syndromes times the
    weights of spare parity 2z+q+1 in the solver rows. spread copies
    lanes 0..2z-1 (solve) into every group; lane0 masks lane 0 of every
    block and groups lane 0 of every group; ladder lists the shifts that
    or the bits of a lane into its bit 0. spares[row] is the block of
    placement row's spare weights, as bytes. Filled with the first case
    table.
    """
    if p._lanes:
        return p._lanes[0]
    z, ell, c, m = p.z, p.ell, p.c, p.m
    group = 2 * z
    width = max((c - group) * group, c)
    nb = -(-width * ell // 8)
    owners = [sum(owned >> mask & 1 for _, _, owned in table) for mask in range(1 << z)]
    most = max(sum(owners[_zeros(deltas)] for deltas in _compositions(delta, z, p.w))
               for delta in range(z * p.w + 1))
    shifts = z * p.w + 1                  # distinct shifts 0..delta, or 0 twice
    entries, bits = shifts * (m + 1), 8 * nb
    lane, gap = (1 << ell) - 1, bits - ell
    heads = range(0, (c - group) * group * ell, group * ell)

    def repeat_block(block):
        return int.from_bytes(block.to_bytes(nb, "little") * max(most, entries), "little")

    lsb = repeat_block(sum(1 << j * ell for j in range(width)))
    low = lsb * (lane >> 1)
    # lane i moves up by i * gap in all, gap << b at the step of its bit b
    steps = [(sum(lane << i * ell + (i >> b + 1 << b + 1) * gap
                  for i in range(entries) if i >> b & 1), gap << b)
             for b in reversed(range((entries - 1).bit_length()))]
    scan, step, full = [], 1, (1 << c * ell) - 1
    while step < m:
        scan.append((bits * step, sum(full << bits * e for e in range(entries)
                                      if e % (m + 1) <= m - step)))
        step *= 2
    block_weights = sum(mds.pack(p.gen.rows[m - 1 - e % (m + 1)], ell) << bits * e
                        for e in range(entries) if e % (m + 1) < m)
    exp = p.ctx.exp
    spares = [sum(exp[lw] << (q * group + r) * ell
                  for q, row in enumerate(spare) for r, lw in enumerate(row[:group])
                  ).to_bytes(nb, "little") for _, (_, spare), _ in table]
    lanes = SimpleNamespace(
        nb=nb, steps=steps, copy=sum(1 << r * ell for r in range(c)),
        weights=mds.lane_powers(block_weights, p.ctx, low, lsb), scan=scan,
        ones=sum(1 << bits * t for t in range(m + 1)), syndromes=full,
        slices=[slice(i, i + nb) for i in range(0, max(entries, len(table)) * nb, nb)],
        spares=spares, spread=sum(1 << h for h in heads),
        solve=repeat_block((1 << group * ell) - 1), lsb=lsb, low=low,
        lane0=repeat_block(lane), groups=repeat_block(sum(lane << h for h in heads)),
        ladder=[1 << i for i in range((ell - 1).bit_length())])
    p._lanes.append(lanes)
    return lanes


def _zeros(deltas):
    """The zero-share pattern of a split: bit j set when window j has no
    deletion."""
    return sum(1 << j for j, d in enumerate(deltas) if not d)


def _case_table(p, delta):
    """Every case the decoder runs for delta missing bits, in
    enumerate_cases order, laid out for the screen; kept on p per delta.

    A placement runs the splits of delta whose zero-share pattern it owns
    (_placement_table). Its cases are consecutive: used lists the
    placements that run any, counts how many, stops where each one's
    cases end, runs the splits each runs (indices into splits). A case's
    syndromes are the parities xor the intact segments, each read at the
    shift of the deletions before it, as entries of the prefix groups at
    shifts (_lanes); block j of group g is entry g*(m+1) + m - j:

    * the first segment at shift 0 and the last at delta; they depend only
      on the placement, read at heads and tails, the first and last group
      (the last has one of its own, also when delta is 0);
    * middle segment j of a split at the split's shift cuts[j]; reads[2j]
      and reads[2j+1] hold, per case, its ends in that shift's group.

    align gives per group the (left shift, mask) that puts the blocks of s
    read at its shift into its lanes. Blocks past a group's last block
    whole inside s (_table_top) hold no prefix sum, and a read of one
    raises IndexError, so no case takes such an entry. weights is
    mds.lane_powers of the spare weights of each case's placement, in the
    groups _lanes describes. Built from the kept placement rows: no solver
    is requested.
    """
    found = p._cases.get(delta)
    if found is not None:
        return found
    table = _placement_table(p)
    lanes = _lanes(p, table)
    z, ell, m = p.z, p.ell, p.m
    splits = list(_compositions(delta, z, p.w))
    cuts = [tuple(sum(deltas[:j]) for j in range(1, z)) for deltas in splits]
    shifts = [0, *sorted({sh for cut in cuts for sh in cut} - {0, delta}), delta]
    tops = [_table_top(p, delta, sh) for sh in shifts]
    align = []
    for g, sh in enumerate(shifts):
        at, jmin = g * (m + 1) * ell, -(-sh // ell) + 1
        align.append((m * ell - p.k + delta - sh + at, ((1 << (m - jmin + 1) * ell) - 1) << at))
    by_owned = {}
    used, counts, heads, tails, runs = array("I"), array("I"), array("I"), array("I"), []
    reads = [array("I") for _ in range(2 * (z - 1))]
    for row, (pairs, _, owned) in enumerate(table):
        entry = by_owned.get(owned)
        if entry is None:
            run = [i for i, deltas in enumerate(splits) if owned >> _zeros(deltas) & 1]
            at = [[shifts.index(cuts[i][j]) for i in run] for j in range(z - 1)] if run else []
            entry = by_owned[owned] = (run, [[g * (m + 1) + m for g in gs] for gs in at],
                                       [min(tops[g] for g in gs) for gs in at])
        run, bases, ends = entry
        if not run:
            continue
        if pairs[0] - 1 > tops[0] or any(pairs[j + 1] - 1 > ends[j] for j in range(z - 1)):
            raise IndexError(f"a case of placement {pairs} reads past the end of a prefix group")
        used.append(row)
        counts.append(len(run))
        runs.append(run)
        heads.append(m - (pairs[0] - 1))
        tails.append(len(shifts) * (m + 1) - 1 - (pairs[-1] + 1))
        for j, base in enumerate(bases):
            hi, lo = pairs[j + 1] - 1, pairs[j] + 1
            reads[2 * j].extend([b - hi for b in base])
            reads[2 * j + 1].extend([b - lo for b in base])
    chunks = map(lanes.spares.__getitem__, used)
    weights = int.from_bytes(b"".join(map(mul, chunks, counts)), "little")
    found = p._cases[delta] = SimpleNamespace(
        splits=splits, shifts=shifts, align=align, used=used, counts=counts, runs=runs,
        stops=array("I", accumulate(counts)), heads=heads, tails=tails, reads=reads,
        weights=mds.lane_powers(weights, p.ctx, lanes.low, lanes.lsb))
    return found


def _prefix_sums(s, parities, p, cases):
    """The entries of every prefix group of cases (_case_table), as nb
    bytes each in the layout of _lanes: entry g*(m+1) + m - j packs the
    parity contributions of blocks jmin..j of s read at group g's shift,
    where jmin is the first block whole inside s at that shift, and 0 for
    j < jmin. The last group, at delta, holds the parities xor the blocks
    after j instead. Entries past a group's _table_top are not sums.

    s is read once as an int; each group takes one copy of it, aligned
    and masked (cases.align). The lanes are spread out to one per entry
    in about log2 of the entry count moves, each symbol is copied into
    the c parity lanes by one multiply and multiplied by its block's
    weights lane by lane (single_window._times), and a running xor in
    doubling steps gives the sums down each group. One to_bytes gives
    every entry.
    """
    lanes = p._lanes[0]
    word, x = int(s, 2), 0
    for left, mask in cases.align:
        x |= word << left & mask
    for mask, shift in lanes.steps:
        moved = x & mask
        x ^= moved ^ moved << shift
    acc = _times(x * lanes.copy, lanes.weights, lanes.lsb, (1 << p.ell) - 1)
    for shift, mask in lanes.scan:
        acc ^= acc >> shift & mask
    last = 8 * lanes.nb * (len(cases.shifts) - 1) * (p.m + 1)
    acc ^= (parities ^ acc >> last & lanes.syndromes) * lanes.ones << last
    entries = len(cases.shifts) * (p.m + 1)
    table = acc.to_bytes(entries * lanes.nb, "little")
    return list(map(table.__getitem__, lanes.slices[:entries]))


def _damaged_pair(s, p, i, before, d, a, b):
    """The checks of damaged pair i, solved to blocks a and b, when the
    pairs before it lost `before` bits and it lost d: (region, dec,
    padding_ok, supersequence_ok), the region of s it covers, the decoded
    bits (cut to the message's bits for the last pair), whether a short
    last block's padding is zero, and whether region is a subsequence of
    dec. Every check is run."""
    ell, last = p.ell, i + 1 == p.m
    region = s[(i - 1) * ell - before:(i + 1) * ell - before - d]
    dec = format(a << ell | b, "b").zfill(2 * ell)
    if last:
        dec = dec[:ell + p.last_block_len]
    padding_ok = not (last and b & (1 << ell - p.last_block_len) - 1)
    return region, dec, padding_ok, is_subsequence(region, dec)


def _candidate(s, p, pairs, deltas, sol):
    """The message of a case that passed the spare checks, or None; sol
    holds the case's solved blocks, two per pair. Every guess of either
    code that passes its screen is checked here, a single-window guess i
    as the case ((i,), (delta,)).

    A pair with a zero share lost nothing, so its supersequence test is
    region == dec, compared as ints; that also checks the padding of a
    short last block when the last pair has a zero share. A pair with a
    share must pass _damaged_pair's padding and supersequence checks, and
    puts its solved blocks into the message.
    """
    ell = p.ell
    pieces = []
    cum = 0
    prev_end = 0  # bits of s consumed so far
    for j, i in enumerate(pairs):
        d, a, b = deltas[j], sol[2 * j], sol[2 * j + 1]
        start = (i - 1) * ell - cum
        if not d:
            # a zero-share region always holds the pair's full 2*ell bits
            # (ell + last for the last pair, whose bits shifted up to
            # whole blocks leave the padding zero)
            low = ell - p.last_block_len if i + 1 == p.m else 0
            if int(s[start:(i + 1) * ell - cum], 2) << low != a << ell | b:
                return None
            continue
        region, dec, padding_ok, superseq_ok = _damaged_pair(s, p, i, cum, d, a, b)
        if not (padding_ok and superseq_ok):
            return None
        pieces += (s[prev_end:start], dec)
        cum += d
        prev_end = start + len(region)
    pieces.append(s[prev_end:])
    return "".join(pieces)


def _screen(s, parities, p):
    """Every case's spare-parity verdict, in lanes.

    s is the received word cut to its first k - delta bits, parities the
    c parity symbols packed (mds.pack). Returns (passed, case): passed has
    one byte per case of _case_table(p, delta), in its order, 1 when every
    spare parity holds; case(i) gives case i's pairs, shares, solve rows
    (mds.log_solver) and packed syndromes.

    The syndromes of every case are gathered into one int, a block of nb
    bytes each (_lanes), out of the prefix sums (_prefix_sums): the first
    and last segments with the parities xored once per placement and
    repeated over its cases, the middle segments per case, all by C-level
    maps over the case table's index arrays. The solving syndromes are
    copied into every group, and each lane is multiplied by its spare
    weight (single_window._times). A group's 2z products are summed into
    its lane 0 by doubling and xored with its spare syndrome; a case
    passes when every group's lane 0 is zero. Every product is exact, so
    the verdict is the one a product-by-product check gives.
    """
    ell, group = p.ell, 2 * p.z
    cases = _case_table(p, p.k - len(s))
    lanes = p._lanes[0]
    entry = _prefix_sums(s, parities, p, cases).__getitem__
    nb, order = lanes.nb, "little"
    head, tail = (int.from_bytes(b"".join(map(entry, ends)), order)
                  for ends in (cases.heads, cases.tails))
    outer = (head ^ tail).to_bytes(len(cases.heads) * nb, order)
    syn = int.from_bytes(b"".join(map(mul, map(outer.__getitem__, lanes.slices), cases.counts)),
                         order)
    for read in cases.reads:
        syn ^= int.from_bytes(b"".join(map(entry, read)), order)

    acc = _times((syn & lanes.solve) * lanes.spread, cases.weights, lanes.lsb, (1 << ell) - 1)
    total, done, span = 0, 0, 1           # sums of 1, 2, 4, ... lanes
    while True:
        if group & span:
            total ^= acc >> done * ell
            done += span
        if 2 * span > group:
            break
        acc ^= acc >> span * ell
        span *= 2
    for q in range(p.c - group):
        total ^= (syn >> (group + q) * ell & lanes.lane0) << q * group * ell
    total &= lanes.groups
    for step in lanes.ladder:             # a lane's bits into its bit 0
        total |= total >> step
    failed = total
    for q in range(1, p.c - group):       # the groups into the block's bit 0
        failed |= total >> q * group * ell
    passed = failed.to_bytes(cases.stops[-1] * nb, order)[::nb].translate(_PASSED)

    def case(i):
        at = bisect_right(cases.stops, i)
        pairs, (solve, _), _ = p._placements[cases.used[at]]
        deltas = cases.splits[cases.runs[at][i - (cases.stops[at - 1] if at else 0)]]
        ends = [outer[at * nb:(at + 1) * nb], *(entry(read[i]) for read in cases.reads)]
        return pairs, deltas, solve, reduce(xor, [int.from_bytes(e, order) for e in ends])

    return passed, case


def _decode_repetition(y, p):
    """decode for a params with r > 1, on a word _check_received passed.

    Each case (pairs, deltas) of enumerate_cases is checked at most once
    per set Q of pairs with a positive share and their shares E, at the
    first placement containing Q. That is exact:

    * every intact block is read at the sum of the shares before it, and
      a zero share adds nothing, so the syndrome with only Q erased is
      the same for every placement containing Q;
    * every 2z-block system is nonsingular (mds.make_generator), so a
      case's solve is unique;
    * so a zero-share pair passes its equality check, and the spare
      parities hold, exactly when that syndrome lies in the span of Q's
      columns, and then Q's solved blocks are the same either way;
    * so every case with the same (Q, E) yields the same candidate or
      none. The first of them in enumeration order is the one checked, so
      the first case to yield each candidate, which is the guess reported
      and fixes the order of the candidates, is unchanged.

    Every case's spare parities are checked at once (_screen); the cases
    that pass are solved and, in enumeration order, reach _candidate.

    InvalidInput means no case tried is consistent. The cases assume that
    every deletion hit the message bits and that no two windows share a
    block pair, so some compliant words come out invalid: at k = 64,
    w = 4, c = 8, z = 2, about half of whole-codeword draws with w each.
    """
    ell = p.ell
    delta = p.n - len(y)
    tail_len = p.c * ell * p.r - delta
    parity_bits = repetition_decode(y[len(y) - tail_len:], p.c * ell, p.r, delta)
    s = y[:p.k - delta]
    passed, case = _screen(s, mds.pack(read_symbols(parity_bits, ell), ell), p)
    log, exp, mask = p.ctx.log, p.ctx.exp, (1 << ell) - 1
    heads = range(0, 2 * p.z * ell, ell)
    found = []
    for i in compress(range(len(passed)), passed):
        pairs, deltas, solve, syn = case(i)
        lh = [log[syn >> sh & mask] for sh in heads]
        sol = []
        for lws in solve:
            acc = 0
            for lw, lv in zip(lws, lh):
                acc ^= exp[lw + lv]
            sol.append(acc)
        found.append(((pairs, deltas), _candidate(s, p, pairs, deltas, sol)))
    return decide(found)
