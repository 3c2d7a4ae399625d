"""Reference computations for the tests.

They share no code with the encoder or the decoders: symbols are sliced
off bit strings by hand, every parity is built one field product at a
time (mul), and erasure systems are solved by elimination with those
products. Only the field's tables come from the package. The one
exception is sweep_every_pattern, a reference for exhaustive_oracle's
bookkeeping, not for decoding: it runs the package's channel and codec.
list_delete is the channel as it was before its one-pass walk: it builds
the whole position list, checks it, and only then cuts.
"""

from itertools import combinations, product

from gccodes.analysis import MiscorrectionError, OracleReport
from gccodes.channel import DeletionPattern, InvalidPatternError, Window, delete_localized
from gccodes.codec import FAILURE, SUCCESS, decode, encode


class SingularMatrixError(ArithmeticError):
    """solve_square's system has no unique solution."""


def mul(ctx, a, b):
    """The product a*b in ctx's field, off its log and antilog tables:
    exp[log a + log b], which the padded antilog table makes zero when a
    or b is (tests/test_gf2e.py holds it to a table-free product)."""
    return ctx.exp[ctx.log[a] + ctx.log[b]]


def loop_parities(symbols, gen):
    """c parities of the leading symbols, one field product at a time."""
    out = []
    for r in range(gen.c):
        acc = 0
        for i, v in enumerate(symbols):
            acc ^= mul(gen.ctx, v, gen.rows[i][r])
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
    parallel list; neither is modified. Raises SingularMatrixError when no
    unique solution exists."""
    size = len(matrix)
    rows = [list(row) + [v] for row, v in zip(matrix, rhs)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            raise SingularMatrixError("erasure system has no unique solution")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = ctx.inv(rows[col][col])
        rows[col] = [mul(ctx, scale, v) for v in rows[col]]
        for r in range(size):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [x ^ mul(ctx, f, y) for x, y in zip(rows[r], rows[col])]
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
                acc ^= mul(gen.ctx, v, gen.rows[i][num - 1])
        syndromes.append(acc)
        matrix.append([gen.rows[e - 1][num - 1] for e in erased])
    filled = list(symbols)
    for e, v in zip(erased, solve_square(matrix, syndromes, gen.ctx)):
        filled[e - 1] = v
    return filled


def _deletion_sets(n, w, z, delta):
    """Every set of delta positions (from 0, ascending) of an n-bit word
    that at most z pairwise disjoint windows of w consecutive bits, each
    inside the word, can cover."""
    out = set()

    def place(lo, windows, taken):
        if len(taken) == delta:
            out.add(taken)
            return
        if not windows:
            return
        for start in range(lo, n - w + 1):
            for size in range(1, min(w, delta - len(taken)) + 1):
                for offsets in combinations(range(w), size):
                    place(start + w, windows - 1, taken + tuple(start + o for o in offsets))

    place(0, z, ())
    return sorted(out)


def block_readings(pairs, deltas, m):
    """What a case reads for each block 1..m, one block at a time: None
    when one of its pairs holds the block, else the bits its shares
    delete before the block (the shares of the pairs that end before it)."""
    readings = []
    for b in range(1, m + 1):
        if any(i <= b <= i + 1 for i in pairs):
            readings.append(None)
        else:
            readings.append(sum(d for i, d in zip(pairs, deltas) if i + 1 < b))
    return readings


def differing_blocks(case, other, m):
    """How many of blocks 1..m two cases read differently: damaged in
    either, or read at different shifts."""
    return sum(a is None or b is None or a != b
               for a, b in zip(block_readings(*case, m), block_readings(*other, m)))


def layout_tail(u, p):
    """What follows message u in its codeword: the buffer of w zeros and a
    one, then the parity blocks, when p.r = 1; each parity bit repeated r
    times otherwise."""
    parities = message_parity_bits(u, p.gen)
    if p.r == 1:
        return "0" * p.w + "1" + parities
    return "".join(ch * p.r for ch in parities)


def list_decode(y, p):
    """Every message whose codeword turns into y when n - len(y) of its
    bits are deleted within at most z disjoint windows of w bits, each
    window inside the codeword, ascending. Brute force: every compliant
    deletion set and every value of the deleted bits re-inserts a word x,
    and x counts when its tail is the layout_tail of its first k bits."""
    delta = p.n - len(y)
    if not 0 <= delta <= p.z * p.w:
        return []
    tails, found = {}, set()
    for gone in _deletion_sets(p.n, p.w, p.z, delta):
        for bits in product("01", repeat=delta):
            pieces, prev = [], 0
            for j, (pos, bit) in enumerate(zip(gone, bits)):
                pieces += [y[prev:pos - j], bit]
                prev = pos - j
            pieces.append(y[prev:])
            x = "".join(pieces)
            u = x[:p.k]
            tail = tails.get(u)
            if tail is None:
                tail = tails[u] = layout_tail(u, p)
            if x[p.k:] == tail:
                found.add(u)
    return sorted(found)


def sweep_every_pattern(p, u, window_starts=None):
    """exhaustive_oracle's sweep with one decode per pattern, not one per
    distinct received word: the same scope, counts, failure_patterns in
    sweep order and errors at the same pattern. Returns the report and
    every (pattern, received word) pair in sweep order."""
    if window_starts is None:
        window_starts = range(1, p.n - p.w + 2)
    x = encode(u, p)
    failure_patterns, received = [], []
    for start in window_starts:
        for d in range(p.w + 1):
            for offsets in combinations(range(p.w), d):
                pat = DeletionPattern(windows=(Window(start=start, offsets=offsets),))
                y = delete_localized(x, pat, w=p.w, z=1)
                received.append((pat, y))
                res = decode(y, p)
                if res.status == SUCCESS:
                    if res.message != u:
                        raise MiscorrectionError(
                            f"wrong message for pattern {pat} (start={start}, offsets={offsets})"
                        )
                elif res.status == FAILURE:
                    failure_patterns.append(pat)
                else:
                    raise MiscorrectionError(
                        f"decoder rejected a channel-compliant pattern {pat}: {res.reason}"
                    )
    report = OracleReport(trials=len(received), failures=len(failure_patterns),
                          failure_patterns=tuple(failure_patterns))
    return report, received


def list_delete(x, pat, w=None, z=None):
    """delete_localized by a position list: the window contract checked
    first when w is given (z ignored without it), then every deleted
    position listed, refused unless strictly ascending and inside x, and
    only then the cuts. Raises the same errors with the same text."""
    if w is not None:
        if z is not None and len(pat.windows) > z:
            raise InvalidPatternError(f"{len(pat.windows)} windows exceed the limit z={z}")
        prev_end = 0
        for win in pat.windows:
            if win.offsets and win.offsets[-1] >= w:
                raise InvalidPatternError(
                    f"offset {win.offsets[-1]} falls outside a window of size {w}")
            if win.start <= prev_end:
                raise InvalidPatternError("windows must not overlap")
            if win.start + w - 1 > len(x):
                raise InvalidPatternError(
                    f"window at {win.start} sticks out of a {len(x)}-bit string")
            prev_end = win.start + w - 1
    positions = [win.start + o for win in pat.windows for o in win.offsets]
    if sorted(set(positions)) != positions:
        raise InvalidPatternError("windows overlap: duplicate or unordered positions")
    if positions and (positions[0] < 1 or positions[-1] > len(x)):
        raise InvalidPatternError("deletion positions fall outside the string")
    pieces, prev = [], 0
    for pos in positions:
        pieces.append(x[prev:pos - 1])
        prev = pos
    pieces.append(x[prev:])
    return "".join(pieces)
