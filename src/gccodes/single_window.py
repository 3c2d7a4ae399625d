"""The single-window code's screen: every guess of a word at once.

Layout of a codeword (n = k + c*ell + w + 1 bits):

    [ k message bits | w zeros, then a single one | c parity blocks of ell bits ]

The message is chunked into m = ceil(k / ell) field symbols, a short final
block keeping its bits in the high coefficient positions. When the
buffer's one shows the parities intact at the tail, the delta deletions
hit the message, and guess i says that blocks (i, i+1) absorbed them.
Its two erased blocks are solved from parities 1 and 2; the c - 2 spare
parities must then agree.

The guesses are screened all at once (_screen): one Python int holds one
ell-bit field element per lane, so each big-int operation acts on every
block or every guess, about 10*ell + 3*log2(2m) + 20*c of them per word;
every size, mask and solve row that depends only on the code is read off
lane_tables, and the parity tail is read as one int. The few guesses
that pass the spare parities are handed to the engine (_solved), and
each is solved only when the engine asks (_solve).
"""

from types import SimpleNamespace

from . import mds
from .mds import _copies, _times


def _screen(s, tail, p):
    """Every guess's syndromes and spare-parity verdict, in lanes.

    s is the received word cut to its first k - delta bits, tail its c
    parity symbols read as one int, parity 1 highest. Guess i holds
    blocks (i, i+1) damaged, so its syndromes are the parities xor the
    contributions of blocks 1..i-1 read at their nominal offsets and of
    blocks i+2..m read delta bits early (right-aligned against the end of
    s). Returns ((tables, syn), passed): the lane_tables namespace, for
    _solve, and two ints laid out as it describes: syndrome r+1 of guess
    i is lane m - 1 - i of syn's segment r, and the top bit of lane
    m - 1 - i of passed is set iff every spare parity agrees with
    syndromes 1 and 2.

    s is read as one int holding both readings of its blocks, copied into
    c segments, and every block's contribution to every parity is one
    lane-wise product (_times). A running xor from the top lane down, in
    doubling steps, leaves in each lane the xor of it and the lanes above,
    so guess i's syndromes are its lane xor the lane m - 2 above it xor
    the parities xor lane 0, the total. The spare checks are the same
    products on copies of syndromes 1 and 2, xored with the spare
    syndromes: a zero lane passes, and a lane is nonzero iff its top bit
    is set in (d & low) + low | d. Every size and mask that depends only
    on the code comes from the lane tables.
    """
    ell, m, c = p.ell, p.m, p.c
    t = lane_tables(p)
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
    return (t, syn), (failed & t.tops) ^ t.tops


def _solved(screened, passed, p, delta):
    """((i,), (delta,), (screened, top)) for each guess i that passed,
    lowest guess (highest lane) first: guess i as the case of pair i with
    share delta, and top, the top bit of its lane, for _solve."""
    ell, m, shares, out = p.ell, p.m, (delta,), []
    while passed:
        top = passed.bit_length() - 1
        passed ^= 1 << top
        out.append(((m - 1 - top // ell,), shares, (screened, top)))
    return out


def _solve(at, p):
    """(block i, block i + 1) of the guess at = (screened, top) of
    _solved, solved from syndromes 1 and 2 of guess i, lane m - 1 - i of
    segments 0 and 1 of the lanes in screened, by the solve rows the
    tables keep for it."""
    ((t, syn), top), ell = at, p.ell
    mask, exp, log = (1 << ell) - 1, p.ctx.exp, p.ctx.log
    (a0, a1), (b0, b1) = t.solves[p.m - 1 - top // ell]
    l0 = log[syn >> top + 1 - ell & mask]
    l1 = log[syn >> t.seg + top + 1 - ell & mask]
    return exp[a0 + l0] ^ exp[a1 + l1], exp[b0 + l0] ^ exp[b1 + l1]


def lane_tables(p):
    """The constants of the pair screen, kept in p._tables under "pair
    screen".

    The screen packs field elements into ints, one ell-bit lane each, lane
    0 lowest. A segment of the word has max(2m - 4, 1) lanes and holds,
    from the top lane down, blocks 1..m-2 read at their offsets, then
    blocks 3..m read against the end: lane t holds block m - t below lane
    m - 2 and block 2m - 4 - t from it up. blocks[b] has c such segments,
    seg bits apart, and lane t of segment r is alpha^b times the weight of
    lane t's block in parity r+1. A segment of guesses has the same width
    and holds guess i in lane m - 1 - i.

    A spare segment holds only the m - 1 guess lanes. spares[b] has
    2(c - 2) of them: segment q, for spare parity q+3, holds alpha^b times
    the weight a of syndrome 1 in that parity's spare row of
    mds.log_solver(gen, (i, i+1)), for guess i, segment c - 2 + q the
    weight b of syndrome 2.

    The result is a namespace: seg, and the tuples blocks and spares
    (entry b for bit b); scan, a (shift, mask) pair per doubling step of
    the screen's running xor; and masks of whole lanes or of single lane
    bits: lsb (bit 0 of every lane any product reads), left and guesses
    (lanes 0..m-3 and 0..m-2 of c segments), ones (bit 0 of lanes 0..m-2
    of one segment), and low and high (bits 0..ell-2 and bit ell-1 of
    every lane of c - 2 spare segments). For the spare checks: size, the
    bits of one spare segment, and one, their mask; half, the bits of the
    c - 2 copies of syndrome 1, and firsts, their mask; tops, bit ell-1 of
    every lane of one spare segment. solves[i] holds the solve rows of
    mds.log_solver(gen, (i, i+1)) for guess i (entry 0 is None). Every
    entry depends only on the code, so no decode computes one.

    The weights are one int(''.join(...)) each, and lane_powers gives
    alpha^b times them. Built on the first request, which solves every
    adjacent pair's system once.
    """
    tables = p._tables.get("pair screen")
    if tables is not None:
        return tables
    gen = p.gen
    pairs = [mds.log_solver(gen, (i, i + 1)) for i in range(1, gen.m)]
    exp, ell, m, c = gen.ctx.exp, gen.ctx.ell, gen.m, gen.c
    lanes = max(2 * m - 4, 1)
    width, bit0, top = f"0{ell}b", "0" * (ell - 1) + "1", "1" + "0" * (ell - 1)

    def pattern(lane, count, segments, size=lanes):
        """segments segments of size lanes, each with lane in its low count."""
        return int(("0" * ell * (size - count) + lane * count) * segments, 2)

    def times_alpha(values, size):
        """lane_powers of the int of one segment of size lanes per list in
        values, each value a lane, the first ones highest."""
        bits = "".join("0" * ell * (size - len(v)) + "".join([format(x, width) for x in v])
                       for v in values)
        low = pattern("0" + "1" * (ell - 1), size, len(values), size)
        return mds.lane_powers(int(bits, 2), gen.ctx, low, pattern(bit0, size, len(values), size))

    intact, span = [*range(1, m - 1), *range(3, m + 1)], (m - 1) * ell
    scan, step = [], 1
    while step < lanes:
        scan.append((step * ell, pattern("1" * ell, lanes - step, c)))
        step *= 2
    tables = SimpleNamespace(
        seg=lanes * ell, lsb=pattern(bit0, 1, max(c * lanes, 2 * (c - 2) * (m - 1)), 1),
        blocks=times_alpha([[gen.rows[j - 1][r] for j in intact] for r in reversed(range(c))],
                           lanes),
        scan=tuple(scan), left=pattern("1" * ell, m - 2, c),
        guesses=pattern("1" * ell, m - 1, c), ones=pattern(bit0, m - 1, 1),
        spares=times_alpha([[exp[spare[q][side]] for _, spare in pairs]
                            for side in (1, 0) for q in reversed(range(c - 2))], m - 1),
        low=pattern("0" + "1" * (ell - 1), m - 1, c - 2, m - 1),
        high=pattern(top, m - 1, c - 2, m - 1), size=span, one=(1 << span) - 1,
        half=(c - 2) * span, firsts=(1 << (c - 2) * span) - 1,
        tops=pattern(top, m - 1, 1, m - 1), solves=[None, *(solve for solve, _ in pairs)])
    p._tables["pair screen"] = tables
    return tables
