"""The multi-window code's screen: every case of a word at once.

No buffer this time: the c parity blocks are protected by an r = z*w + 1
repetition code instead, so up to z*w missing bits can never silence a
whole repetition run, and repetition_decode reads the parities
positionally off the tail. A case (enumerate_cases) guesses which z
adjacent block pairs absorbed the deletions and how many went to each
window; its 2z suspect blocks are solved from the first 2z parities, and
the spare parities must agree.

The cases are screened at once, with lane products (mds._times). The c
parities of a word and the partial sums of the intact blocks are packed
ints (mds.pack), so a case's syndromes are the parities xor one
difference of partial sums per intact segment. _prefix_sums gives the
partial sums at every shift a segment is read at, in one lane pass over
s, with copies that fold the first and last segments into the ends of
the middle ones, so that a case is 2*max(1, z-1) reads. _case_table
lists, once per delta, every case the decoder runs, with one
operator.itemgetter per read and the spare weights of its placement's
log-form solver rows (mds.log_solver) in lanes. _screen gathers the
syndromes of every case into one int, a block per case, one join per
read, and checks every spare parity of every case as lane products: no
Python code runs per case. Only the cases that pass are handed to the
engine (_solved), and solved when the engine asks (_solve), each
distinct (placement, solving syndromes) once.

A case is checked once per set of damaged pairs and their shares. Call
Q the pairs a split gives a positive share and E those shares: only the
first placement in enumerate_cases order that contains Q, with E on Q
and zero elsewhere, runs the case. That is exact:

* every intact block is read at the sum of the shares before it, and a
  zero share adds nothing, so the syndrome with only Q erased is the
  same for every placement containing Q;
* every 2z-block system is nonsingular (mds.make_generator), so a case's
  solve is unique;
* so a zero-share pair passes its check (equality, at its full length),
  and the spare parities hold, exactly when that syndrome lies in the
  span of Q's columns, and then Q's solved blocks are the same either
  way;
* so every case with the same (Q, E) yields the same candidate or none.
  The first of them in enumeration order is the one checked, so the
  first case to yield each candidate, which is the guess reported and
  fixes the order of the candidates, is unchanged.

On the first decode, _lanes lists the placements in p._tables, each with
its solve rows and the zero-share patterns it owns; each delta's case
table is built from those rows on its first decode, and kept there too.

The cases assume that every deletion hit the message bits and that no
two windows share a block pair, so some compliant words match no case
and decode to InvalidInput: at k = 64, w = 4, c = 8, z = 2, about half
of whole-codeword draws with w each.
"""

from array import array
from bisect import bisect_right
from itertools import accumulate, combinations, compress
from math import comb
from operator import itemgetter, mul
from struct import Struct
from types import SimpleNamespace

from . import mds
from .mds import _times

# Byte -> 1 when its bit 0 is clear: the screen passed that case's block.
_PASSED = bytes(1 - (b & 1) for b in range(256))


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


def _table_top(p, delta, shift):
    """The last block whose prefix sum at shift is read for a word missing
    delta bits: block m when block m ends inside s (it ends at k - shift),
    else the last block whole inside s. It depends only on delta and the
    shift."""
    if shift >= delta:
        return p.m
    return min(p.m - 1, (p.k - delta + shift) // p.ell)


def _lanes(p):
    """The layout of the case screen, its masks and its placements, kept
    in p._tables under "case screen".

    placements lists every pair placement in enumerate_cases order as
    (pairs, solve, owned): its pairs, the solve rows of mds.log_solver on
    its 2z blocks, and the zero-share patterns it owns. A pattern is a
    z-bit mask, bit j set when pair j gets a zero share; bit mask of owned
    is set when the placement is the first to contain the pairs the
    pattern leaves damaged. Each placement's system is solved once, here.

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
    every block of one group, and syndromes lanes 0..c-1 of one block.

    A case's block holds its packed syndromes in lanes 0..c-1. For the
    spare checks it holds one group of 2z lanes per spare parity: group
    q, lanes q*2z..q*2z+2z-1, holds the 2z solving syndromes times the
    weights of spare parity 2z+q+1 in the solver rows. spread copies
    lanes 0..2z-1 (solve) into every group; lane0 masks lane 0 of every
    block and groups lane 0 of every group; ladder lists the shifts that
    or the bits of a lane into its bit 0. spares[row] is the block of
    placement row's spare weights, as bytes. Built with the first case
    table.
    """
    lanes = p._tables.get("case screen")
    if lanes is not None:
        return lanes
    z, ell, c, m, exp = p.z, p.ell, p.c, p.m, p.ctx.exp
    group = 2 * z
    width = max((c - group) * group, c)
    nb = -(-width * ell // 8)
    placements, spares, owners = [], [], [0] * (1 << z)
    first = {}  # damaged pairs -> the first placement containing them
    for pairs in _pair_placements(m, z):
        owned = 0
        for mask in range(1 << z):
            damaged = tuple(i for j, i in enumerate(pairs) if not mask >> j & 1)
            if first.setdefault(damaged, pairs) == pairs:
                owned |= 1 << mask
                owners[mask] += 1
        solve, spare = mds.log_solver(p.gen, tuple(e for i in pairs for e in (i, i + 1)))
        placements.append((pairs, solve, owned))
        spares.append(sum(exp[lw] << (q * group + r) * ell for q, row in enumerate(spare)
                          for r, lw in enumerate(row)).to_bytes(nb, "little"))
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
    lanes = p._tables["case screen"] = SimpleNamespace(
        placements=placements, nb=nb, steps=steps, copy=sum(1 << r * ell for r in range(c)),
        weights=mds.lane_powers(block_weights, p.ctx, low, lsb), scan=scan,
        ones=sum(1 << bits * t for t in range(m + 1)), syndromes=full,
        spares=spares, spread=sum(1 << h for h in heads),
        solve=repeat_block((1 << group * ell) - 1), lsb=lsb, low=low,
        lane0=repeat_block(lane), groups=repeat_block(sum(lane << h for h in heads)),
        ladder=[1 << i for i in range((ell - 1).bit_length())])
    return lanes


def _zeros(deltas):
    """The zero-share pattern of a split: bit j set when window j has no
    deletion."""
    return sum(1 << j for j, d in enumerate(deltas) if not d)


def _case_table(p, delta):
    """Every case the decoder runs for delta missing bits, in
    enumerate_cases order, laid out for the screen; kept in p._tables
    under delta, with the code's layout (_lanes) as lanes, so that a
    screen takes every table it reads from one lookup.

    A placement runs the splits of delta whose zero-share pattern it owns
    (_lanes' placements). Its cases are consecutive: used lists the
    placements that run any, stops where each one's cases end, runs the
    splits each runs (indices into splits). A case's syndromes are the
    parities xor the intact segments, each read at the shift of the
    deletions before it, as entries of the prefix groups at shifts
    (_lanes). The entries come in one copy of every group per name in
    layout (_prefix_sums); block j of group g is entry g*(m+1) + m - j of
    a copy. reads holds one operator.itemgetter per read, which takes that
    read's entry of every case at once; a case's syndromes are the xor of
    its reads:

    * z = 1: the first segment in "sums" at shift 0 (the first group) and
      the last at delta (the last group, which has one of its own, also
      when delta is 0, and carries the parities);
    * z > 1: both ends of each middle segment j, in the group of its
      split's shift cuts[j]. The lower end of segment 0 is read in
      "head", which folds in the first segment, the upper end of segment
      z - 2 in "tail", which folds in the last, and every other end in
      "sums": 2(z - 1) reads.

    A getter of one entry takes it as a slice, so that every getter gives
    a tuple. unpack cuts the entries out of their bytes. align gives per
    group the (left shift, mask) that puts the blocks of s read at its
    shift into its lanes. Blocks past a group's last block whole inside s
    (_table_top) hold no prefix sum, and a read of one raises IndexError,
    so no case takes such an entry. weights is mds.lane_powers of the
    spare weights of each case's placement, in the groups _lanes
    describes. Built from the kept placement rows: no system is solved.
    """
    cases = p._tables.get(delta)
    if cases is not None:
        return cases
    lanes = _lanes(p)
    z, ell, m = p.z, p.ell, p.m
    splits = list(_compositions(delta, z, p.w))
    cuts = [tuple(sum(deltas[:j]) for j in range(1, z)) for deltas in splits]
    shifts = [0, *sorted({sh for cut in cuts for sh in cut} - {0, delta}), delta]
    tops = [_table_top(p, delta, sh) for sh in shifts]
    align = []
    for g, sh in enumerate(shifts):
        at, jmin = g * (m + 1) * ell, -(-sh // ell) + 1
        align.append((m * ell - p.k + delta - sh + at, ((1 << (m - jmin + 1) * ell) - 1) << at))
    size = len(shifts) * (m + 1)          # entries in one copy
    layout = ("head", "tail", "sums")[:z] if z > 1 else ("sums",)
    copy = {name: t * size for t, name in enumerate(layout)}
    pool = tuple(range(len(layout) * size))   # one int object per entry index
    by_owned = {}
    used, counts, runs = array("I"), array("I"), []
    reads = [[] for _ in range(2 * max(1, z - 1))]
    for row, (pairs, _, owned) in enumerate(lanes.placements):
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
        if z == 1:
            reads[0] += [pool[m - (pairs[0] - 1)]] * len(run)
            reads[1] += [pool[size - 1 - (pairs[0] + 1)]] * len(run)
        for j, base in enumerate(bases):
            lo = copy["head" if j == 0 else "sums"] - (pairs[j] + 1)
            hi = copy["tail" if j == z - 2 else "sums"] - (pairs[j + 1] - 1)
            reads[2 * j] += [pool[b + lo] for b in base]
            reads[2 * j + 1] += [pool[b + hi] for b in base]
    chunks = map(lanes.spares.__getitem__, used)
    weights = int.from_bytes(b"".join(map(mul, chunks, counts)), "little")
    cases = p._tables[delta] = SimpleNamespace(
        lanes=lanes, splits=splits, shifts=shifts, align=align, layout=layout, used=used,
        runs=runs, stops=array("I", accumulate(counts)),
        reads=[itemgetter(*read) if len(read) > 1 else itemgetter(slice(read[0], read[0] + 1))
               for read in reads],
        unpack=Struct(f"{lanes.nb}s" * (len(layout) * size)).unpack,
        weights=mds.lane_powers(weights, p.ctx, lanes.low, lanes.lsb))
    return cases


def _prefix_sums(s, parities, p, cases):
    """The entries of every prefix group of cases (_case_table), nb bytes
    each in the layout of _lanes, as one tuple: a copy of every group per
    name in cases.layout, in that order. In "sums", entry g*(m+1) + m - j
    packs the parity contributions of blocks jmin..j of s read at group
    g's shift, where jmin is the first block whole inside s at that shift,
    and 0 for j < jmin; the last group, at delta, holds the parities xor
    the blocks after j instead. Entries past a group's _table_top are not
    sums. "head" holds the same entry xor entry j - 2 of the first group
    (0 for j < 2): blocks 1..j-2 at shift 0, the first segment of a case
    whose first pair is j - 1. "tail" holds it xor entry j + 2 of the last
    group (0 for j > m - 2): the parities xor blocks j+3..m at delta, the
    last segment of a case whose last pair is j + 1.

    s is read once as an int; each group takes one copy of it, aligned
    and masked (cases.align). The lanes are spread out to one per entry
    in about log2 of the entry count moves, each symbol is copied into
    the c parity lanes by one multiply and multiplied by its block's
    weights lane by lane (mds._times), and a running xor in
    doubling steps gives the sums down each group. One to_bytes gives
    every entry of "sums"; "head" and "tail" xor in the first and last
    group, two entries along and repeated over the groups, as bytes.
    cases.unpack cuts the entries out.
    """
    lanes = cases.lanes
    word, x = int(s, 2), 0
    for left, mask in cases.align:
        x |= word << left & mask
    for mask, shift in lanes.steps:
        moved = x & mask
        x ^= moved ^ moved << shift
    acc = _times(x * lanes.copy, lanes.weights, lanes.lsb, (1 << p.ell) - 1)
    for shift, mask in lanes.scan:
        acc ^= acc >> shift & mask
    groups, nb = len(cases.shifts), lanes.nb
    last = 8 * nb * (groups - 1) * (p.m + 1)
    acc ^= (parities ^ acc >> last & lanes.syndromes) * lanes.ones << last
    table = acc.to_bytes(groups * (p.m + 1) * nb, "little")
    if p.z > 1:
        span, two = (p.m + 1) * nb, bytes(2 * nb)
        fold = (table[2 * nb:span] + two) * groups + (two + table[-span:-2 * nb]) * groups
        copies = len(cases.layout)
        table = (int.from_bytes(table * copies, "little") ^ int.from_bytes(fold, "little")
                 ).to_bytes(len(table) * copies, "little")
    return cases.unpack(table)


def _screen(s, parities, p):
    """Every case's spare-parity verdict, in lanes.

    s is the received word cut to its first k - delta bits, parities the
    c parity symbols packed (mds.pack). Returns (passed, case): passed has
    one byte per case of _case_table(p, delta), in its order, 1 when every
    spare parity holds; case(i) gives case i's pairs, shares, solve rows
    (mds.log_solver) and packed syndromes, read off the gathered int.

    The syndromes of every case are gathered into one int, a block of nb
    bytes each (_lanes), out of the prefix sums (_prefix_sums): one join
    per read of the case table, each of the entries its itemgetter takes,
    so the gather runs no Python code per case. The solving syndromes are
    copied into every group, and each lane is multiplied by its spare
    weight (mds._times). A group's 2z products are summed into
    its lane 0 by doubling and xored with its spare syndrome; a case
    passes when every group's lane 0 is zero. Every product is exact, so
    the verdict is the one a product-by-product check gives.
    """
    ell, group = p.ell, 2 * p.z
    cases = _case_table(p, p.k - len(s))
    lanes = cases.lanes
    entries = _prefix_sums(s, parities, p, cases)
    nb, order = lanes.nb, "little"
    syn = 0
    for read in cases.reads:
        syn ^= int.from_bytes(b"".join(read(entries)), order)

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
        pairs, solve, _ = lanes.placements[cases.used[at]]
        deltas = cases.splits[cases.runs[at][i - (cases.stops[at - 1] if at else 0)]]
        return pairs, deltas, solve, syn >> 8 * nb * i & lanes.syndromes

    return passed, case


def _solved(passed, case, p):
    """(guess, pairs, deltas, at) for each case that passed _screen, in
    enumerate_cases order: the guess is (pairs, deltas), and at what
    _solve needs to solve it when the engine asks. Every case of one
    decode shares at's last entry, the decode's solves."""
    sols = {}
    return [((pairs, deltas), pairs, deltas, (pairs, solve, syn, sols))
            for pairs, deltas, solve, syn in map(case, compress(range(len(passed)), passed))]


def _solve(at, p):
    """The 2z blocks of the case at = (pairs, solve, syn, sols) of
    _solved, solved from its solving syndromes by its solve rows. Cases of
    one placement with the same solving syndromes share one solve, kept
    in sols: every split of a placement whose middle segments are empty
    reads the same syndromes."""
    pairs, solve, syn, sols = at
    ell = p.ell
    key = pairs, syn & (1 << 2 * p.z * ell) - 1
    sol = sols.get(key)
    if sol is None:
        log, exp, mask = p.ctx.log, p.ctx.exp, (1 << ell) - 1
        lh = [log[syn >> sh & mask] for sh in range(0, 2 * p.z * ell, ell)]
        sol = sols[key] = []
        for lws in solve:
            acc = 0
            for lw, lv in zip(lws, lh):
                acc ^= exp[lw + lv]
            sol.append(acc)
    return sol
