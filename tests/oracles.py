"""Reference computations for the tests.

They share no code with the encoder or the decoders: symbols are sliced
off bit strings by hand, every parity is built one field product at a
time (FieldContext.mul), and erasure systems are solved by elimination
with those products. Only the field and the error type come from the
package.
"""

from gccodes.mds import SingularSystemError


def loop_parities(symbols, gen):
    """c parities of the leading symbols, one field product at a time."""
    out = []
    for r in range(gen.c):
        acc = 0
        for i, v in enumerate(symbols):
            acc ^= gen.ctx.mul(v, gen.rows[i][r])
        out.append(acc)
    return out


def guess_syndromes(s, i, parities, k, gen):
    """The c syndromes of the guess that blocks i and i+1 (from 1) absorbed
    the k - len(s) deletions of the systematic part s: each parity xor the
    contributions of the other blocks, those before the pair sliced off s
    at their offsets in the message, those after it as many bits earlier,
    a short last block padded with zeros at the low end, and the pair
    itself zero."""
    ell, shift = gen.ctx.ell, k - len(s)
    symbols = []
    for j in range(gen.m):                      # block j + 1
        start = j * ell - (shift if j > i else 0)
        bits = "" if i - 1 <= j <= i else s[start:start + min(ell, k - j * ell)]
        symbols.append(int(bits.ljust(ell, "0"), 2))
    return [a ^ b for a, b in zip(parities, loop_parities(symbols, gen))]


def verify_parities(symbols, parity_values, parity_nums, gen):
    """True iff the selected parities recomputed from symbols match
    parity_values (parallel to parity_nums, numbered from 1)."""
    if len(symbols) != gen.m:
        raise ValueError(f"expected {gen.m} symbols, got {len(symbols)}")
    if len(parity_values) != len(parity_nums):
        raise ValueError("parity_values and parity_nums differ in length")
    parities = loop_parities(symbols, gen)
    return all(parities[num - 1] == val for val, num in zip(parity_values, parity_nums))


def message_parity_bits(u, gen):
    """The c parity blocks of message u, parity 1 first: u is cut into
    ell-bit blocks, a short last block padded with zeros at the low end."""
    ell = gen.ctx.ell
    symbols = [int(u[j:j + ell].ljust(ell, "0"), 2) for j in range(0, len(u), ell)]
    return "".join(format(v, f"0{ell}b") for v in loop_parities(symbols, gen))


def solve_square(matrix, rhs, ctx):
    """Solve A x = b over the field by Gauss-Jordan elimination, one
    FieldContext product at a time. matrix is a list of row lists, rhs a
    parallel list; neither is modified. Raises SingularSystemError when no
    unique solution exists."""
    size = len(matrix)
    rows = [list(row) + [v] for row, v in zip(matrix, rhs)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            raise SingularSystemError("erasure system has no unique solution")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = ctx.inv(rows[col][col])
        rows[col] = [ctx.mul(scale, v) for v in rows[col]]
        for r in range(size):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [x ^ ctx.mul(f, y) for x, y in zip(rows[r], rows[col])]
    return [row[size] for row in rows]


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
    syndromes = []
    matrix = []
    for val, num in zip(parity_values, parity_nums):
        acc = val
        for i, v in enumerate(symbols):
            if i + 1 not in erased:
                acc ^= gen.ctx.mul(v, gen.rows[i][num - 1])
        syndromes.append(acc)
        matrix.append([gen.rows[e - 1][num - 1] for e in erased])
    filled = list(symbols)
    for e, v in zip(erased, solve_square(matrix, syndromes, gen.ctx)):
        filled[e - 1] = v
    return filled
