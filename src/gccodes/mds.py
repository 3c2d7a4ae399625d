"""Systematic MDS parity layer: generator construction, parity encoding
and erasure solving over a shared field context.

The decoders solve the same small erasure systems again and again: which
blocks are erased fixes the system, the received word only fixes its
right-hand side. log_solver inverts each system (erasure_solver) once per
generator and keeps the result in log form, so a decoder's case loop does
products, not elimination. erasure_solver runs one Gauss-Jordan pass over
the columns of the parity matrix stacked on an identity, which gives the
inverse and the spare-parity rows together.

A vector of c parity values, or of partial sums towards them, is kept
packed in one int: parity r+1 sits in bits [r*ell, (r+1)*ell). Adding two
vectors is one xor. Every packed parity bit is GF(2)-linear in the message
bits, so the encoder is bit-sliced: parity_planes keeps one mask per
packed bit over the message read as one int, and packed_parities takes
bit p as the parity of the popcount of x & planes[p], c*ell popcounts per
message. Both encoders go through it. The decoders' screens take every
block's contribution at once instead: a lane holds one field element, an
ell-bit field of one int, and a product by a weight per lane costs, per
symbol bit b, a few big-int operations against alpha^b times the
weights. lane_powers gives those alpha^b multiples for any lanes;
lane_tables keeps them for the single-window screen, and the multi-window
screen takes its block and spare weights through lane_powers too.

The decoders' solves multiply in log form: log_solver keeps an erasure
solver's rows for any erased set as logs, pair_checks the single-window
spare rows as its z = 1 case (which lane_tables lays out in lanes), and
the field's antilog table is padded so that exp[log[a] + log[b]] is a
product even when a or b is zero. Each product is then one table lookup.
Both screens take their spare weights from these rows.

Block and parity positions in the public functions are numbered from 1,
matching the way code blocks are counted everywhere else in this package.
"""

import sys
from array import array
from dataclasses import dataclass, field
from types import SimpleNamespace

from .gf2e import FieldContext


class FieldTooSmallError(ValueError):
    pass


class SingularSystemError(ArithmeticError):
    pass


@dataclass(frozen=True)
class Generator:
    """Parity weights for a systematic (m + c, m) code.

    rows[i][r] is the weight of systematic symbol i+1 in parity r+1, so
    parity r+1 of a message U is xor_i mul(U[i], rows[i][r]).
    """

    m: int
    c: int
    kind: str
    ctx: FieldContext
    rows: tuple
    # Filled on first request, so building a generator builds none of them:
    # erased blocks -> log_solver result
    _log_solvers: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # parity_planes result
    _planes: list = field(default_factory=list, init=False, repr=False, compare=False)
    # lane_tables result, its one entry
    _lanes: list = field(default_factory=list, init=False, repr=False, compare=False)


def make_generator(m, c, ctx, kind="cauchy"):
    """Parity weights of the given kind for m blocks and c parities.

    cauchy: weights 1 / (a_i + b_j) with a_i = i - 1 and b_j = m + j - 1
    as field elements. All square submatrices of the resulting parity
    block are nonsingular, so any pattern of erasures covered by enough
    parities is solvable.

    vandermonde: power-of-alpha weights alpha^{(i-1)(r-1)}. Not MDS for
    every (m, c, ell), but the decoders only solve parities 1..t on the t
    erased blocks, and that system is a Vandermonde matrix in the distinct
    nodes alpha^{i-1} (m < 2^ell), so it is always nonsingular. Only a
    spare parity's row can degenerate, into zero weights; that weakens
    the check and is not an error.
    """
    if kind not in ("cauchy", "vandermonde"):
        raise ValueError(f"unknown generator kind {kind!r}")
    if m + c > (1 << ctx.ell):
        raise FieldTooSmallError(
            f"m + c = {m + c} exceeds field size 2^{ctx.ell} = {1 << ctx.ell}"
        )
    if kind == "cauchy":
        rows = tuple(tuple(ctx.inv(i ^ (m + j)) for j in range(c)) for i in range(m))
    else:
        rows = tuple(tuple(ctx.alpha_pow(i * r) for r in range(c)) for i in range(m))
    return Generator(m=m, c=c, kind=kind, ctx=ctx, rows=rows)


def pack(values, ell):
    """values[r] in bits [r*ell, (r+1)*ell) of one int: the packed parity
    layout."""
    return sum(v << (r * ell) for r, v in enumerate(values))


# Byte -> b"0" or b"1" by one of its bits, one table per bit: parity_planes
# reads a bit of every column at once with bytes.translate.
_BIT_CHARS = [(b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8)]


def parity_planes(gen):
    """The c*ell masks that encode by popcount, kept on the generator.

    The padded message int x holds block i's symbol in bits
    [(m-i)*ell, (m-i+1)*ell); a short last block is zero-padded low, as in
    bits_to_symbols. Every parity bit is GF(2)-linear in x, so bit p of the
    packed parities (parity r+1 in bits [r*ell, (r+1)*ell)) is the parity
    of x & planes[p]. Bit b of block i contributes mul(1 << b, g) to parity
    r+1, g = rows[i-1][r]; alpha is x, so that is exp[log g + b], and the
    ell bits of a block read one slice of the antilog table (zeros for
    g = 0, whose log points into the padding). Plane r*ell + j collects bit
    j of those contributions: the columns of parity r+1 go into one array,
    and one strided slice per byte, one translate and one int() turn bit j
    of every column into the plane.
    """
    planes = gen._planes
    if not planes:
        exp, log, ell = gen.ctx.exp, gen.ctx.log, gen.ctx.ell
        for r in range(gen.c):
            cols = array("L")                   # bit 0 of x first
            for row in reversed(gen.rows):
                lg = log[row[r]]
                cols.extend(exp[lg:lg + ell])
            cols.reverse()                      # int() reads the top bit first
            if sys.byteorder == "big":
                cols.byteswap()
            raw, size = cols.tobytes(), cols.itemsize
            planes.extend(int(raw[j >> 3::size].translate(_BIT_CHARS[j & 7]), 2)
                          for j in range(ell))
    return planes


def packed_parities(x, gen):
    """Packed parities of the padded message int x (see parity_planes)."""
    acc = 0
    for plane in reversed(parity_planes(gen)):
        acc = acc << 1 | (x & plane).bit_count() & 1
    return acc


def erasure_solver(gen, erased):
    """The erasure system of the blocks in erased, solved.

    erased is an ascending tuple of t <= c block numbers (from 1); the
    system is parities 1..t restricted to those blocks. The result is c
    rows of t weights. With syn the syndromes (each parity xor the
    contribution of the intact blocks) and dot(row) = xor_r
    mul(row[r], syn[r]) over r < t:

      * dot(solver[j]) is the value of block erased[j], for j < t: the
        first t rows are the inverse of the system;
      * dot(solver[q]) is what syn[q] must equal, for q >= t: a spare
        parity check costs t products and no solve.

    One Gauss-Jordan pass runs on the columns of the c x t parity matrix
    stacked on a t x t identity. Column operations multiply both blocks on
    the right by the same matrix, so once the top t rows are the identity,
    that matrix is the system's inverse: it is the bottom block, and rows
    t..c-1 are the spare rows. Nothing is kept: the decoders read
    log_solver's cached log form. A singular system raises
    SingularSystemError.
    """
    t, c = len(erased), gen.c
    if not 1 <= t <= c:
        raise ValueError(f"{t} erased blocks need 1..c = {c} parities")
    cols = [list(gen.rows[e - 1]) + [int(j == i) for i in range(t)]
            for j, e in enumerate(erased)]
    mul = gen.ctx.mul
    for row in range(t):
        pivot = next((j for j in range(row, t) if cols[j][row]), None)
        if pivot is None:
            raise SingularSystemError(
                f"blocks {erased} are not erasure-decodable with this generator")
        cols[row], cols[pivot] = cols[pivot], cols[row]
        scale = gen.ctx.inv(cols[row][row])
        top = cols[row] = [mul(scale, v) for v in cols[row]]
        for j in range(t):
            f = cols[j][row]
            if j != row and f:
                cols[j] = [x ^ mul(f, y) for x, y in zip(cols[j], top)]
    return tuple(tuple(col[q] for col in cols) for q in [*range(c, c + t), *range(t, c)])


def log_solver(gen, erased):
    """erasure_solver(gen, erased) in log form, kept on the generator.

    The result is a pair (solve, spare). solve[j], for j < t, holds the
    logs of row j's t weights, so with lv[r] = log syn[r] block erased[j]
    is xor_r exp[solve[j][r] + lv[r]]. spare holds one row per spare
    parity q+1 > t: the logs of its t weights followed by q*ell, the bit
    where syndrome q+1 sits in the packed syndromes. The case passes that
    check exactly when xor_r exp[row[r] + lv[r]] equals syndrome q+1.
    Zero weights keep log[0], which the padded antilog table turns into
    zero products. The first request for erased runs erasure_solver, so
    each system is inverted once per generator. A singular system raises
    SingularSystemError on every request, and nothing is kept.
    """
    view = gen._log_solvers.get(erased)
    if view is None:
        log, ell, t = gen.ctx.log.__getitem__, gen.ctx.ell, len(erased)
        solver = erasure_solver(gen, erased)
        view = (tuple(tuple(map(log, row)) for row in solver[:t]),
                tuple((*map(log, row), q * ell) for q, row in enumerate(solver[t:], t)))
        gen._log_solvers[erased] = view
    return view


def pair_checks(gen):
    """The spare-parity checks of every adjacent block pair, in log form.

    Entry i, for 1 <= i < m, is the spare rows of log_solver(gen, (i, i+1)):
    one triple (log a, log b, r*ell) per spare parity r+1 > 2. With s0 and
    s1 syndromes 1 and 2, the guess that blocks i and i+1 absorbed the
    deletions passes check r exactly when exp[log s0 + log a] ^
    exp[log s1 + log b] equals syndrome r+1. Entry 0 is empty. Nothing is
    kept but the m - 1 pair solvers: lane_tables, which keeps its own
    result, is the one reader. A singular pair raises SingularSystemError.
    """
    return [()] + [log_solver(gen, (i, i + 1))[1] for i in range(1, gen.m)]


def lane_powers(x, ctx, low, lsb):
    """(x, alpha*x, ..., alpha^(ell-1)*x), lane by lane, for x holding one
    field element per ell-bit lane; low masks bits 0..ell-2 and lsb bit 0
    of every lane. Each is one lane-wise xtime of the one before: shift
    every lane up and, where its top bit left it, xor in the field
    polynomial."""
    ell = ctx.ell
    poly = ctx.poly ^ 1 << ell
    out = [x]
    for _ in range(ell - 1):
        out.append((out[-1] & low) << 1 ^ (out[-1] >> ell - 1 & lsb) * poly)
    return tuple(out)


def lane_tables(gen):
    """The constants of the single-window screen, kept on the generator.

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
    the weight a of syndrome 1 in each guess's pair_checks row, segment
    c - 2 + q the weight b of syndrome 2.

    The result is a namespace: seg, and the tuples blocks and spares
    (entry b for bit b); scan, a (shift, mask) pair per doubling step of
    the screen's running xor; and masks of whole lanes or of single lane
    bits: lsb (bit 0 of every lane any product reads), left and guesses
    (lanes 0..m-3 and 0..m-2 of c segments), ones (bit 0 of lanes 0..m-2
    of one segment), and low and high (bits 0..ell-2 and bit ell-1 of
    every lane of c - 2 spare segments).

    The weights are one int(''.join(...)) each, and lane_powers gives
    alpha^b times them. Filled on the first request, which also fills
    pair_checks; a singular pair raises SingularSystemError, and nothing
    is kept.
    """
    if gen._lanes:
        return gen._lanes[0]
    checks = pair_checks(gen)
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
        return lane_powers(int(bits, 2), gen.ctx, low, pattern(bit0, size, len(values), size))

    intact = [*range(1, m - 1), *range(3, m + 1)]
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
        spares=times_alpha([[exp[checks[i][q][side]] for i in range(1, m)]
                            for side in (1, 0) for q in reversed(range(c - 2))], m - 1),
        low=pattern("0" + "1" * (ell - 1), m - 1, c - 2, m - 1),
        high=pattern(top, m - 1, c - 2, m - 1))
    gen._lanes.append(tables)
    return tables
