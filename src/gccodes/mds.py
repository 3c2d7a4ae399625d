"""Systematic MDS parity layer: generator construction, parity encoding,
erasure solving, and parity verification over a shared field context.

The decoders solve the same small erasure systems again and again: which
blocks are erased fixes the system, the received word only fixes its
right-hand side. erasure_solver inverts each system once per generator and
keeps the result, so a decoder's case loop does products, not elimination.

A vector of c parity values, or of partial sums towards them, is kept
packed in one int: parity r+1 sits in bits [r*ell, (r+1)*ell). Adding two
vectors is one xor, and parity_sums builds the running sums that encoding
and both decoders' syndrome tables read.

Block and parity positions in the public functions are numbered from 1,
matching the way code blocks are counted everywhere else in this package.
"""

from dataclasses import dataclass, field

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
    # erased blocks -> erasure_solver result, filled on first request
    _solvers: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def cauchy_generator(m, c, ctx):
    """Cauchy-style parity weights 1 / (a_i + b_j) with a_i = i - 1 and
    b_j = m + j - 1 as field elements. All square submatrices of the
    resulting parity block are nonsingular, so any pattern of erasures
    covered by enough parities is solvable.
    """
    if m + c > (1 << ctx.ell):
        raise FieldTooSmallError(
            f"m + c = {m + c} exceeds field size 2^{ctx.ell} = {1 << ctx.ell}"
        )
    rows = tuple(
        tuple(ctx.inv(i ^ (m + j)) for j in range(c))
        for i in range(m)
    )
    return Generator(m=m, c=c, kind="cauchy", ctx=ctx, rows=rows)


def vandermonde_generator(m, c, ctx):
    """Power-of-alpha parity weights alpha^{(i-1)(r-1)}.

    Not guaranteed MDS for every (m, c, ell); a guess that leads to an
    unsolvable erasure system surfaces as SingularSystemError.
    """
    if m + c > (1 << ctx.ell):
        raise FieldTooSmallError(
            f"m + c = {m + c} exceeds field size 2^{ctx.ell} = {1 << ctx.ell}"
        )
    rows = tuple(
        tuple(ctx.alpha_pow(i * r) for r in range(c))
        for i in range(m)
    )
    return Generator(m=m, c=c, kind="vandermonde", ctx=ctx, rows=rows)


def make_generator(m, c, ctx, kind="cauchy"):
    if kind == "cauchy":
        return cauchy_generator(m, c, ctx)
    if kind == "vandermonde":
        return vandermonde_generator(m, c, ctx)
    raise ValueError(f"unknown generator kind {kind!r}")


def parity_sums(gen, blocks):
    """Running packed parity sums over (block, symbol) pairs.

    blocks yields (j, v) with j a block number (from 1) and v its symbol.
    The result has one more entry than blocks has pairs: entry 0 is 0 and
    entry n packs, for every parity r, the xor of mul(v, rows[j-1][r]) over
    the first n pairs, with parity r+1 in bits [r*ell, (r+1)*ell).
    """
    exp, log = gen.ctx.exp, gen.ctx.log
    rows = gen.rows
    shifts = range(0, gen.c * gen.ctx.ell, gen.ctx.ell)
    acc = 0
    out = [0]
    for j, v in blocks:
        if v:
            lv = log[v]
            for g, sh in zip(rows[j - 1], shifts):
                if g:  # mul(v, g), inlined
                    acc ^= exp[lv + log[g]] << sh
        out.append(acc)
    return out


def pack(values, ell):
    """values[r] in bits [r*ell, (r+1)*ell) of one int, the layout of
    parity_sums."""
    return sum(v << (r * ell) for r, v in enumerate(values))


def encode_parities(symbols, gen):
    """All c parity symbols for a full systematic vector."""
    if len(symbols) != gen.m:
        raise ValueError(f"expected {gen.m} symbols, got {len(symbols)}")
    packed = parity_sums(gen, enumerate(symbols, 1))[-1]
    ell = gen.ctx.ell
    mask = (1 << ell) - 1
    return [(packed >> (r * ell)) & mask for r in range(gen.c)]


def verify_parities(symbols, parity_values, parity_nums, gen):
    """True iff the selected parities recomputed from symbols match
    parity_values (parallel to parity_nums, numbered from 1)."""
    if len(symbols) != gen.m:
        raise ValueError(f"expected {gen.m} symbols, got {len(symbols)}")
    if len(parity_values) != len(parity_nums):
        raise ValueError("parity_values and parity_nums differ in length")
    mul = gen.ctx.mul
    for val, num in zip(parity_values, parity_nums):
        acc = 0
        for i, v in enumerate(symbols):
            acc ^= mul(v, gen.rows[i][num - 1])
        if acc != val:
            return False
    return True


def solve_square(matrix, rhs, ctx):
    """Solve A x = b over the field by Gaussian elimination.

    matrix is a list of row lists (consumed destructively on copies),
    rhs a parallel list. Raises SingularSystemError when no unique
    solution exists.
    """
    size = len(rhs)
    a = [list(row) for row in matrix]
    b = list(rhs)
    mul = ctx.mul
    inv = ctx.inv
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col]), None)
        if pivot is None:
            raise SingularSystemError("erasure system has no unique solution")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
        scale = inv(a[col][col])
        a[col] = [mul(scale, v) for v in a[col]]
        b[col] = mul(scale, b[col])
        for r in range(size):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x ^ mul(f, y) for x, y in zip(a[r], a[col])]
                b[r] ^= mul(f, b[col])
    return b


def erasure_solver(gen, erased):
    """The erasure system of the blocks in erased, solved once per generator.

    erased is an ascending tuple of t <= c block numbers (from 1); the
    system is parities 1..t restricted to those blocks. The result is c
    rows of t weights. With syn the syndromes (each parity xor the
    contribution of the intact blocks) and dot(row) = xor_r
    mul(row[r], syn[r]) over r < t:

      * dot(solver[j]) is the value of block erased[j], for j < t: the
        first t rows are the inverse of the system;
      * dot(solver[q]) is what syn[q] must equal, for q >= t: a spare
        parity check costs t products and no solve.

    Built with solve_square on the first request and kept on the
    generator, one entry per erased set a decoder tries. A singular system
    raises SingularSystemError on every request and is never cached.
    """
    solver = gen._solvers.get(erased)
    if solver is not None:
        return solver
    t = len(erased)
    if not 1 <= t <= gen.c:
        raise ValueError(f"{t} erased blocks need 1..c = {gen.c} parities")
    cols = [gen.rows[e - 1] for e in erased]
    transposed = [col[:t] for col in cols]
    try:
        inverse = [solve_square(transposed, [int(r == j) for j in range(t)], gen.ctx)
                   for r in range(t)]
    except SingularSystemError as exc:
        raise SingularSystemError(
            f"blocks {erased} are not erasure-decodable with this generator"
        ) from exc
    mul = gen.ctx.mul
    spare = []
    for q in range(t, gen.c):
        row = [0] * t
        for col, inv_row in zip(cols, inverse):
            for r, v in enumerate(inv_row):
                row[r] ^= mul(col[q], v)
        spare.append(row)
    solver = tuple(tuple(row) for row in inverse + spare)
    gen._solvers[erased] = solver
    return solver


def erasure_decode(symbols, erased, parity_values, parity_nums, gen):
    """Fill in erased symbol positions from the given parities.

    symbols: full-length sequence; entries at erased positions are ignored
    (None is fine). erased: block numbers (from 1), one per unknown.
    parity_values is parallel to parity_nums and must have the same length
    as erased, making the system square.
    """
    if len(symbols) != gen.m:
        raise ValueError(f"expected {gen.m} symbols, got {len(symbols)}")
    erased = sorted(erased)
    if len(set(erased)) != len(erased):
        raise ValueError("erased positions must be distinct")
    if len(erased) != len(parity_nums) or len(parity_values) != len(parity_nums):
        raise ValueError("need exactly one parity per erased position")
    mul = gen.ctx.mul
    erased_set = set(erased)
    syndromes = []
    matrix = []
    for val, num in zip(parity_values, parity_nums):
        acc = val
        for i, v in enumerate(symbols):
            if i + 1 not in erased_set:
                acc ^= mul(v, gen.rows[i][num - 1])
        syndromes.append(acc)
        matrix.append([gen.rows[e - 1][num - 1] for e in erased])
    solution = solve_square(matrix, syndromes, gen.ctx)
    filled = list(symbols)
    for e, v in zip(erased, solution):
        filled[e - 1] = v
    return filled
