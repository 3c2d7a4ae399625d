"""Systematic MDS parity layer: generator construction, parity encoding
and erasure solving over a shared field context.

The decoders solve the same small erasure systems again and again: which
blocks are erased fixes the system, the received word only fixes its
right-hand side. log_solver inverts one system into log-form rows and
keeps nothing: a layout module solves each system once, when it builds a
code's decoder tables, and keeps the rows there, so a decoder's case
loop does products, not elimination. A generator's weights follow from
its (m, c, kind, field), which keeps every such system nonsingular: the
elimination needs no pivot search and no solve can fail.

A vector of c parity values, or of partial sums towards them, is kept
packed in one int: parity r+1 sits in bits [r*ell, (r+1)*ell). Adding two
vectors is one xor. Every packed parity bit is GF(2)-linear in the message
bits, so the encoder is bit-sliced: parity_planes keeps one mask per
packed bit over the message read as one int, and packed_parities takes
bit p as the parity of the popcount of x & planes[p], c*ell popcounts per
message. Both encoders go through it. The decoders' screens take every
block's contribution at once instead: a lane holds one field element, an
ell-bit field of one int, and a product by a weight per lane (_times)
costs, per symbol bit b, a few big-int operations against alpha^b times
the weights. lane_powers gives those alpha^b multiples for any lanes.

The decoders' solves multiply in log form: the field's antilog table is
padded so that exp[log[a] + log[b]] is a product even when a or b is
zero, so each product is one table lookup. Both screens take their spare
weights from log_solver's rows.

Generator derives its rows once, when built, and refuses assignment; its
one kept table is the encoder's parity planes. It is a plain __slots__
class, not a dataclass: _Frozen gives it and codec.CodeParams their
equality, hash, repr and pickling, with the kept tables out of all four.

Block and parity positions in the public functions are numbered from 1,
matching the way code blocks are counted everywhere else in this package.
"""

import sys
from array import array


class FieldTooSmallError(ValueError):
    pass


class _Frozen:
    """Base of CodeParams and Generator: a value built once from its
    init fields, every other field set by __init__. _init names the init
    fields, _compare those eq and hash read, _shown those repr prints;
    the kept tables are in none of them. Assignment is refused, and
    pickle and copy build the object again from its init fields, so no
    half-derived copy can arise."""

    __slots__ = ()

    def _values(self, names):
        return tuple(getattr(self, name) for name in names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self._compare) == other._values(other._compare)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self._compare))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values(self._init)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Generator(_Frozen):
    """Parity weights for a systematic (m + c, m) code.

    rows[i][r] is the weight of systematic symbol i+1 in parity r+1, so
    parity r+1 of a message U is xor_i mul(U[i], rows[i][r]). The rows
    follow from (m, c, kind, ctx), as make_generator says.
    """

    __slots__ = ("m", "c", "kind", "ctx", "rows",
                 # the parity_planes result, filled on the first encode
                 "_planes")
    _init = __slots__[:4]
    _compare = _shown = __slots__[:5]

    def __init__(self, m, c, kind, ctx):
        if kind not in ("cauchy", "vandermonde"):
            raise ValueError(f"unknown generator kind {kind!r}")
        if m + c > (1 << ctx.ell):
            raise FieldTooSmallError(
                f"m + c = {m + c} exceeds field size 2^{ctx.ell} = {1 << ctx.ell}"
            )
        if kind == "cauchy":
            rows = tuple(tuple(ctx.inv(i ^ (m + j)) for j in range(c)) for i in range(m))
        else:
            rows = tuple(tuple(ctx.exp[i * r % ctx.order] for r in range(c)) for i in range(m))
        for name, value in zip(self.__slots__, (m, c, kind, ctx, rows, [])):
            object.__setattr__(self, name, value)


def make_generator(m, c, ctx, kind="cauchy"):
    """The Generator of the given kind for m blocks and c parities.

    The decoders solve parities 1..t on t erased blocks; for either kind
    that system is nonsingular, and log_solver relies on it.

    cauchy: weights 1 / (a_i + b_j) with a_i = i - 1 and b_j = m + j - 1
    as field elements. Every square submatrix is a Cauchy matrix, so it
    is nonsingular.

    vandermonde: power-of-alpha weights alpha^{(i-1)(r-1)}. Not MDS for
    every (m, c, ell), but the decoders' system is a Vandermonde matrix in
    the distinct nodes alpha^{i-1} (m < 2^ell). Only a spare parity's
    row can degenerate, into zero weights; that weakens the check and is
    not an error.
    """
    return Generator(m, c, kind, ctx)


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


def log_solver(gen, erased):
    """The erasure system of the blocks in erased, solved in log form.

    erased is an ascending tuple of t <= c block numbers (from 1); the
    system is parities 1..t restricted to those blocks. With syn the
    syndromes (each parity xor the contribution of the intact blocks) and
    lv[r] = log syn[r], the result is a pair (solve, spare). solve[j], for
    j < t, holds the logs of row j of the inverse: block erased[j] is
    xor_r exp[solve[j][r] + lv[r]]. spare holds one row per spare parity
    q+1 > t, the logs of its t weights: the check holds exactly when
    xor_r exp[row[r] + lv[r]] equals syndrome q+1. Zero weights keep
    log[0], which the padded antilog table turns into zero products.

    Each call runs one Gauss-Jordan pass on the columns of the c x t
    parity matrix stacked on a t x t identity; once the top t rows are
    the identity, the bottom block is the inverse and rows t..c-1 are the
    spare rows. It takes the pivots in order, with no search and no swap:
    the pivot of row s is the ratio of the leading minors of orders s+1
    and s, each the system of parities 1..s+1 on s+1 erased blocks, which
    make_generator keeps nonsingular. Its products are done in log form
    inline, exp[log a + log b], the pivot's inverse as exp[order - log a];
    the padded antilog table keeps a zero factor's product zero.
    """
    t, c, ctx = len(erased), gen.c, gen.ctx
    if not 1 <= t <= c:
        raise ValueError(f"{t} erased blocks need 1..c = {c} parities")
    exp, log = ctx.exp, ctx.log
    cols = [list(gen.rows[e - 1]) + [int(j == i) for i in range(t)]
            for j, e in enumerate(erased)]
    for row in range(t):
        scale = ctx.order - log[cols[row][row]]     # log of the pivot's inverse
        top = cols[row] = [exp[scale + log[v]] for v in cols[row]]
        for j in range(t):
            f = cols[j][row]
            if j != row and f:
                lf = log[f]
                cols[j] = [x ^ exp[lf + log[y]] for x, y in zip(cols[j], top)]
    return (tuple(tuple(log[col[q]] for col in cols) for q in range(c, c + t)),
            tuple(tuple(log[col[q]] for col in cols) for q in range(t, c)))


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
