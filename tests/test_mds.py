"""Parity generators and erasure decoding.

The nonsingularity sweeps compute determinants with a local elimination
routine so the claim does not rest on the library's own solver.
"""

import copy
import random
from itertools import combinations

import pytest

from gccodes import codec, mds, multi_window
from gccodes.channel import delete_localized, sample_pattern
from gccodes.codec import (
    SUCCESS,
    decode,
    decode_multi,
    encode,
    encode_multi,
    gc_params,
    multi_params,
)
from gccodes.gf2e import FieldContext, bits_to_symbols
from gccodes.single_window import lane_tables
from gccodes.mds import (
    FieldTooSmallError,
    Generator,
    log_solver,
    make_generator,
    pack,
    packed_parities,
    parity_planes,
)
from oracles import (
    SingularMatrixError,
    erasure_decode,
    loop_parities,
    message_parity_bits,
    mul,
    solve_square,
    verify_parities,
)

GF16 = FieldContext(4)


def det(matrix, ctx):
    """Determinant by elimination, local to the tests."""
    a = [row[:] for row in matrix]
    n = len(a)
    d = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
        d = mul(ctx, d, a[col][col])
        inv = ctx.inv(a[col][col])
        for r in range(col + 1, n):
            if a[r][col]:
                f = mul(ctx, a[r][col], inv)
                a[r] = [x ^ mul(ctx, f, y) for x, y in zip(a[r], a[col])]
    return d


U_EXAMPLE = bits_to_symbols("1100101001111000", GF16)
P_EXAMPLE = [9, 8, 1]           # its parities: alpha^14, alpha^3, alpha^0


def test_vandermonde_rows_golden():
    gen = make_generator(4, 3, GF16, "vandermonde")
    assert gen.rows == (
        (1, 1, 1),
        (1, 2, 4),
        (1, 4, 3),
        (1, 8, 12),
    )


def test_generator_rows_follow_from_its_fields():
    """The rows are derived from (m, c, kind, ctx) on construction: they
    can be neither passed in nor assigned, and a generator of changed
    fields is a new Generator, which gets the rows of its fields or is
    refused."""
    gen = make_generator(4, 3, GF16, "vandermonde")
    with pytest.raises(TypeError):
        Generator(m=4, c=3, kind="vandermonde", ctx=GF16, rows=gen.rows)
    with pytest.raises(AttributeError, match="^cannot assign to field 'rows'$"):
        gen.rows = gen.rows
    cauchy = Generator(gen.m, gen.c, "cauchy", gen.ctx)
    assert cauchy.rows == tuple(tuple(GF16.inv(i ^ (4 + j)) for j in range(3)) for i in range(4))
    assert cauchy.rows != gen.rows and cauchy != gen
    with pytest.raises(FieldTooSmallError):
        Generator(14, gen.c, gen.kind, gen.ctx)


def test_parities_of_worked_example():
    gen = make_generator(4, 3, GF16, "vandermonde")
    x = int("".join(format(v, "04b") for v in U_EXAMPLE), 2)
    assert packed_parities(x, gen) == pack(P_EXAMPLE, 4)


@pytest.mark.parametrize("make", [
    lambda: gc_params(100, 7, 5),                 # ell 7, last block 2 bits, three spares
    lambda: gc_params(64, 4, 4, "vandermonde"),
    lambda: gc_params(8, 4, 3),                   # m = 2
    lambda: gc_params(9, 4, 3),                   # m = 3, last block 1 bit
    lambda: gc_params(300, 13, 3),
], ids=["cauchy-c5", "vandermonde", "m2", "m3", "ell13"])
def test_lane_tables_fill_on_first_decode(make):
    """Nothing until the first guess-path decode; then the documented
    layout, each lane alpha^b times its weight, kept and out of eq, hash
    and repr."""
    params = make()                               # fresh, so no table is filled yet
    gen, ctx, ell, m, c = params.gen, params.ctx, params.ell, params.m, params.c
    assert params._tables == {}                   # nothing until requested
    u = "01" * (params.k // 2) + "1" * (params.k % 2)
    x = encode(u, params)
    assert params._tables == {}                   # encoding builds none
    assert decode(x, params).message == u         # the parity path neither
    assert params._tables == {}
    assert decode(x[1:], params).message == u     # the guess path fills them
    tables = lane_tables(params)
    assert params._tables == {"pair screen": tables}
    assert lane_tables(params) is tables          # kept, not rebuilt
    assert "_tables" not in repr(params) and "namespace" not in repr(params)
    twin = copy.copy(params)                      # the same fields, no tables
    assert twin._tables == {} and twin == params and hash(twin) == hash(params)
    lanes = max(2 * m - 4, 1)
    assert tables.seg == lanes * ell and len(tables.blocks) == len(tables.spares) == ell

    def lane(x, segment, t, size=lanes):
        return x >> (segment * size + t) * ell & (1 << ell) - 1

    # lane t reads block m - t or 2m - 4 - t; m = 2 leaves one empty lane
    blocks = [m - t if t < m - 2 else 2 * m - 4 - t for t in range(lanes)] if m > 2 else [0]
    for b in range(ell):
        for r in range(c):
            assert [lane(tables.blocks[b], r, t) for t in range(lanes)] == [
                mul(ctx, 1 << b, gen.rows[j - 1][r]) if j else 0 for j in blocks], (b, r)
        assert tables.blocks[b] >> c * tables.seg == 0
        for q in range(c - 2):                    # guess i in lane m - 1 - i
            rows = [log_solver(gen, (m - 1 - t, m - t))[1][q] for t in range(m - 1)]
            for side in (0, 1):
                assert [lane(tables.spares[b], side * (c - 2) + q, t, m - 1)
                        for t in range(m - 1)] == [mul(ctx, 1 << b, ctx.exp[row[side]])
                                                   for row in rows]
        assert tables.spares[b] >> 2 * (c - 2) * (m - 1) * ell == 0


@pytest.mark.parametrize("params", [gc_params(100, 7, 5), gc_params(64, 4, 5, "vandermonde"),
                                    gc_params(16, 4, 3)])
def test_pair_checks_are_spare_solver_rows(params, monkeypatch):
    """lane_tables solves the system of every adjacent pair once and of
    no other erased set; a pair's spare rows, two weights each, times its
    weights in parities 1 and 2 are its weights in the spare parities."""
    params = copy.copy(params)                    # a fresh code, its tables empty
    gen, ctx = params.gen, params.ctx
    solved = {}

    def recorded(on, erased):
        assert on is gen and erased not in solved
        solved[erased] = view = log_solver(on, erased)
        return view

    monkeypatch.setattr(mds, "log_solver", recorded)
    lane_tables(params)
    assert sorted(solved) == [(i, i + 1) for i in range(1, gen.m)]
    for erased, (_, spare) in solved.items():
        cols = [[gen.rows[e - 1][r] for e in erased] for r in range(gen.c)]
        rows = [[ctx.exp[lw] for lw in row] for row in spare]
        assert [len(row) for row in spare] == [2] * (gen.c - 2)
        assert matmul(rows, cols[:2], ctx) == cols[2:], erased


@pytest.mark.parametrize("z", [1, 2, 3])
@pytest.mark.parametrize("kind", ["cauchy", "vandermonde"])
def test_log_solver_reproduces_erasure_solver(kind, z):
    """Products by log_solver's rows in log form equal products by the
    same rows as weights, checked against the oracle, for every placement
    of z pairs."""
    mp = multi_params(64, 4, 8, z, kind)          # ell 6, m 11, last block 4 bits
    gen, ctx, ell, t = mp.gen, mp.ctx, mp.ell, 2 * z
    rng = random.Random(f"{kind}/{z}")
    placements = [tuple(e for t_, q in enumerate(picked) for e in (q + t_, q + t_ + 1))
                  for picked in combinations(range(1, gen.m - z + 1), z)]
    for erased in placements:
        solver = check_solver(gen, erased, rng)
        solve, spare = view = log_solver(gen, erased)
        assert log_solver(gen, erased) == view     # solved again, the same rows
        rows = [*solve, *spare]
        for _ in range(4):
            syn = [rng.choice((0, rng.randrange(1 << ell))) for _ in range(t)]
            for logs, row in zip(rows, solver):
                want = 0
                for g, v in zip(row, syn):
                    want ^= mul(ctx, g, v)
                got = 0
                for lg, v in zip(logs, syn):
                    got ^= ctx.exp[lg + ctx.log[v]]
                assert got == want, (erased, syn)
    assert mp._tables == {} and gen._planes == []  # solving keeps nothing


@pytest.mark.parametrize("make", [
    lambda: gc_params(128, 7, 3).gen,             # Cauchy, the sim_grid code at k = 128
    lambda: gc_params(64, 4, 5, "vandermonde").gen,
    lambda: gc_params(100, 7, 5).gen,             # last block 2 of 7 bits
    lambda: make_generator(4, 3, GF16, "vandermonde"),
    lambda: gc_params(300, 13, 3).gen,            # ell 13, last block 1 bit
    lambda: make_generator(3, 3, FieldContext(19), "cauchy"),
], ids=["cauchy", "vandermonde", "short-last", "gf16", "ell13", "ell19"])
def test_parity_planes_reproduce_products(make, monkeypatch):
    gen = make()                                  # fresh, so no plane is built yet
    ctx, ell, m, c = gen.ctx, gen.ctx.ell, gen.m, gen.c
    assert gen._planes == []                      # nothing until requested
    planes = parity_planes(gen)
    monkeypatch.setattr(mds, "array", None)      # a rebuild would need it
    assert parity_planes(gen) is planes and gen._planes is planes
    assert "_planes" not in repr(gen)
    assert len(planes) == c * ell
    assert all(0 <= plane < 1 << (m * ell) for plane in planes)
    # bit q of the padded message int is bit q % ell of block m - q // ell,
    # whose products with that block's weights are the packed column
    for q in range(m * ell):
        row = gen.rows[m - 1 - q // ell]
        column = pack([mul(ctx, 1 << (q % ell), g) for g in row], ell)
        assert [planes[bit] >> q & 1 for bit in range(c * ell)] == \
            [column >> bit & 1 for bit in range(c * ell)], q
    rng = random.Random(ell)
    for _ in range(20):
        u = [rng.choice((0, rng.randrange(1 << ell))) for _ in range(m)]
        x = sum(v << ((m - 1 - i) * ell) for i, v in enumerate(u))
        assert packed_parities(x, gen) == pack(loop_parities(u, gen), ell)
    assert gen._planes is planes and len(planes) == c * ell   # kept, never rebuilt


ENCODER_CODES = [gc_params(k, (k - 1).bit_length(), 3) for k in (128, 256, 512, 1024, 4096)] + [
    gc_params(100, 7, 5, "vandermonde"), multi_params(64, 4, 8, 2),
    multi_params(100, 7, 7, 3), multi_params(256, 4, 8, 3, "vandermonde")]
ENCODER_IDS = ["k128", "k256", "k512", "k1024", "k4096", "short-last",
               "z2", "z3-short-last", "z3-vandermonde"]


@pytest.mark.parametrize("params", ENCODER_CODES, ids=ENCODER_IDS)
def test_encoders_match_product_loop(params):
    rng = random.Random(params.k)
    for _ in range(4):
        u = format(rng.getrandbits(params.k), f"0{params.k}b")
        tail = message_parity_bits(u, params.gen)
        if params.r == 1:
            want = u + "0" * params.w + "1" + tail
        else:
            want = u + "".join(ch * params.r for ch in tail)
        assert encode(u, params) == want and len(want) == params.n


def test_encoders_read_only_the_planes(monkeypatch):
    def banned(*args):
        raise AssertionError("encoding goes through the parity planes only")

    monkeypatch.setattr(multi_window, "_prefix_sums", banned)
    monkeypatch.setattr(multi_window, "_tail_parities", banned)
    monkeypatch.setattr(mds, "log_solver", banned)
    for params in (gc_params(128, 7, 3), multi_params(64, 4, 8, 2)):   # fresh codes
        encode("01" * (params.k // 2), params)
        assert params._tables == {}
        assert len(params.gen._planes) == params.c * params.ell


@pytest.mark.parametrize("head, tail", [
    ("1_", ""), (" ", ""), ("", " "), ("\t", ""), ("", "\n"), ("+", ""),
    ("\u0661", ""),                              # ARABIC-INDIC DIGIT ONE
], ids=["underscore", "leading-space", "trailing-space", "tab", "newline", "plus", "arabic-one"])
@pytest.mark.parametrize("multi", [False, True], ids=["encode", "encode_multi"])
def test_encoders_refuse_what_int_accepts(head, tail, multi):
    params = multi_params(64, 4, 8, 2) if multi else gc_params(64, 6, 3)
    u = head + "1" * (params.k - len(head) - len(tail)) + tail
    assert len(u) == params.k and int(u, 2) > 0   # int() alone would take it
    with pytest.raises(ValueError, match=r"^message must contain only '0' and '1'$"):
        (encode_multi if multi else encode)(u, params)


def test_verify_parities_subsets():
    gen = make_generator(4, 3, GF16, "vandermonde")
    p = P_EXAMPLE
    assert verify_parities(U_EXAMPLE, p, [1, 2, 3], gen)
    assert verify_parities(U_EXAMPLE, [p[2]], [3], gen)
    assert not verify_parities(U_EXAMPLE, [p[2] ^ 1], [3], gen)
    wrong = U_EXAMPLE[:3] + [U_EXAMPLE[3] ^ 5]
    assert not verify_parities(wrong, p, [1, 2, 3], gen)


def test_erasure_decode_all_pairs_worked_example():
    gen = make_generator(4, 3, GF16, "vandermonde")
    p = P_EXAMPLE
    for i in range(1, 4):
        erased = [i, i + 1]
        known = list(U_EXAMPLE)
        for e in erased:
            known[e - 1] = None
        got = erasure_decode(known, erased, [p[0], p[1]], [1, 2], gen)
        assert got == U_EXAMPLE


def test_erasure_decode_needs_square_system():
    gen = make_generator(4, 3, GF16, "vandermonde")
    p = P_EXAMPLE
    with pytest.raises(ValueError):
        erasure_decode([None, None, U_EXAMPLE[2], U_EXAMPLE[3]],
                       [1, 2], [p[0]], [1], gen)


def test_erasure_decode_random_cauchy():
    ctx = FieldContext(8)
    gen = make_generator(6, 3, ctx, "cauchy")
    rng = random.Random(5)
    for _ in range(50):
        u = [rng.randrange(256) for _ in range(6)]
        p = loop_parities(u, gen)
        for i in range(1, 6):
            known = list(u)
            known[i - 1] = known[i] = None
            got = erasure_decode(known, [i, i + 1], [p[0], p[1]], [1, 2], gen)
            assert got == u


def cauchy_submatrices_nonsingular(m, c, ctx):
    from itertools import combinations
    gen = make_generator(m, c, ctx, "cauchy")
    for size in range(1, min(m, c) + 1):
        for rows in combinations(range(m), size):
            for cols in combinations(range(c), size):
                sub = [[gen.rows[r][col] for col in cols] for r in rows]
                if det(sub, ctx) == 0:
                    return False
    return True


@pytest.mark.parametrize("ell", [4, 5, 8])
def test_cauchy_mds_exhaustive(ell):
    ctx = FieldContext(ell)
    for m in range(1, 7):
        for c in range(1, 7):
            if m + c > (1 << ell):
                continue
            assert cauchy_submatrices_nonsingular(m, c, ctx), (ell, m, c)


def rank(matrix, ctx):
    """Rank by elimination, local to the tests."""
    a, done = [row[:] for row in matrix], 0
    for col in range(len(a[0])):
        piv = next((r for r in range(done, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[done], a[piv] = a[piv], a[done]
        inv = ctx.inv(a[done][col])
        for r in range(len(a)):
            if r != done and a[r][col]:
                f = mul(ctx, a[r][col], inv)
                a[r] = [x ^ mul(ctx, f, y) for x, y in zip(a[r], a[done])]
        done += 1
    return done


@pytest.mark.parametrize("ell", [4, 5, 8])
def test_vandermonde_parities_have_full_rank_on_any_c_blocks(ell):
    # the decoder's skip (codec._differing) rests on this: on any t <= c
    # blocks the c parity rows have rank t, so two messages with the same
    # parities that differ in at most c blocks are one message. A Cauchy
    # generator has it as every square submatrix is nonsingular
    # (test_cauchy_mds_exhaustive); a Vandermonde one as its rows are the
    # powers 0..c-1 of the distinct nodes alpha^(j-1)
    ctx = FieldContext(ell)
    checked = 0
    for m in range(1, 7):
        for c in range(1, 7):
            if m + c > (1 << ell):
                continue
            gen = make_generator(m, c, ctx, "vandermonde")
            for t in range(1, min(m, c) + 1):
                for blocks in combinations(range(m), t):
                    matrix = [[gen.rows[j][r] for j in blocks] for r in range(c)]
                    assert rank(matrix, ctx) == t, (ell, m, c, blocks)
                    checked += 1
    assert checked > 500, checked


def test_cauchy_field_too_small():
    with pytest.raises(FieldTooSmallError):
        make_generator(10, 7, GF16, "cauchy")
    # 10 + 6 = 16 still fits
    make_generator(10, 6, GF16, "cauchy")


def test_make_generator_dispatch():
    assert make_generator(4, 3, GF16, "cauchy").kind == "cauchy"
    assert make_generator(4, 3, GF16, "vandermonde").kind == "vandermonde"
    with pytest.raises(ValueError):
        make_generator(4, 3, GF16, "hilbert")
    # the kind is checked before the field size, which both kinds check
    with pytest.raises(ValueError, match="unknown generator kind") as info:
        make_generator(10, 7, GF16, "hilbert")
    assert type(info.value) is ValueError
    with pytest.raises(FieldTooSmallError, match=r"m \+ c = 17 exceeds field size 2\^4 = 16"):
        make_generator(10, 7, GF16, "vandermonde")


def test_solve_square_singular():
    with pytest.raises(SingularMatrixError):
        solve_square([[1, 1], [1, 1]], [3, 5], GF16)


def test_solve_square_golden():
    # rows of the vandermonde system for the first block pair
    sol = solve_square([[1, 1], [1, 2]], [9, 8], GF16)
    assert len(sol) == 2
    a, b = sol
    assert a ^ b == 9
    assert a ^ mul(GF16, 2, b) == 8


def matmul(a, b, ctx):
    """Product of two matrices given as row lists, local to the tests."""
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = 0
            for v, b_row in zip(row, b):
                acc ^= mul(ctx, v, b_row[j])
            out_row.append(acc)
        out.append(out_row)
    return out


def check_solver(gen, erased, rng):
    """log_solver's rows for erased, checked against the oracle and
    returned as weights: c rows of t. Rows j < t times the system of
    parities 1..t on the erased blocks give the identity, and solve a
    random right-hand side as the oracle's pivoting solve_square does;
    rows q >= t times that system give parity q+1's weights on the
    blocks, by direct products."""
    ctx, t = gen.ctx, len(erased)
    solve, spare = log_solver(gen, erased)
    assert len(solve) == t and len(spare) == gen.c - t
    assert {len(row) for row in (*solve, *spare)} == {t}
    rows = [[ctx.exp[lw] for lw in row] for row in (*solve, *spare)]
    cols = [[gen.rows[e - 1][r] for e in erased] for r in range(gen.c)]
    assert matmul(rows[:t], cols[:t], ctx) == [[int(i == j) for j in range(t)] for i in range(t)]
    assert matmul(rows[t:], cols[:t], ctx) == cols[t:], erased
    rhs = [rng.randrange(1 << ctx.ell) for _ in range(t)]
    assert [row[0] for row in matmul(rows[:t], [[v] for v in rhs], ctx)] == \
        solve_square(cols[:t], rhs, ctx), erased
    return rows


def small_systems(ell):
    """Every (generator, erased) pair over GF(2^ell) the package can meet:
    both kinds, every m >= 2 and c >= 3 with m + c <= 2^ell, every erased
    set of 1..min(c, m) blocks."""
    ctx = FieldContext(ell)
    return [(gen, erased) for m in range(2, 1 << ell) for c in range(3, (1 << ell) - m + 1)
            for gen in (make_generator(m, c, ctx, kind) for kind in ("cauchy", "vandermonde"))
            for t in range(1, min(c, m) + 1) for erased in combinations(range(1, m + 1), t)]


@pytest.mark.parametrize("params, placements", [
    # every z = 2 placement of disjoint adjacent pairs
    (multi_params(64, 4, 8, 2), "pairs"),
    # every adjacent pair of the single-window code
    (gc_params(128, 7, 3), "single"),
    (multi_params(96, 2, 6, 2, kind="vandermonde"), "pairs"),
    (gc_params(64, 4, 5, kind="vandermonde"), "single"),
    # every erased set of every generator over GF(8) and GF(16)
    pytest.param(3, "every", id="gf8"),
    pytest.param(4, "every", id="gf16"),
])
def test_erasure_solver_against_oracle(params, placements):
    """log_solver's rows, which the pivot-free elimination gives, against
    the oracle's pivoting solve and direct products."""
    if placements == "every":
        systems = small_systems(params)
        assert len(systems) == {3: 174, 4: 20160}[params]
    else:
        gen = params.gen
        if placements == "single":
            cases = [(i, i + 1) for i in range(1, gen.m)]
        else:
            z = params.z
            cases = [tuple(e for t, q in enumerate(picked) for e in (q + t, q + t + 1))
                     for picked in combinations(range(1, gen.m - z + 1), z)]
        systems = [(gen, erased) for erased in cases]
    rng = random.Random(17)
    for gen, erased in systems:
        check_solver(gen, erased, rng)


def test_log_solver_keeps_nothing():
    # each call solves again and gives the same rows; the one table a
    # generator keeps is its parity planes, filled by an encode only
    ctx = FieldContext(8)
    gen = make_generator(6, 4, ctx, "cauchy")
    first = log_solver(gen, (2, 3))
    again = log_solver(gen, (2, 3))
    assert again == first and again is not first
    assert Generator.__slots__ == ("m", "c", "kind", "ctx", "rows", "_planes")
    assert gen._planes == []
    twin = make_generator(6, 4, ctx, "cauchy")
    assert gen == twin and hash(gen) == hash(twin)
    with pytest.raises(ValueError):
        log_solver(gen, (1, 2, 3, 4, 5))


def test_filled_solvers_make_decoders_eliminate_nothing(monkeypatch):
    rng = random.Random(31)
    cases = []
    for params, enc, dec in ((gc_params(128, 7, 3), encode, decode),
                             (multi_params(64, 4, 8, 2), encode_multi, decode_multi)):
        words = []
        for _ in range(4):
            u = format(rng.getrandbits(params.k), f"0{params.k}b")
            pat = sample_pattern(params, params.w, rng, "systematic-only")
            words.append((u, delete_localized(enc(u, params), pat)))
        cases.append((params, dec, words))
        dec(words[0][1], params)                  # solves every system it uses

    def no_elimination(*args):
        raise AssertionError("elimination after the tables were filled")

    monkeypatch.setattr(FieldContext, "inv", no_elimination)
    monkeypatch.setattr(mds, "log_solver", no_elimination)
    for params, dec, words in cases:
        for u, y in words:
            res = dec(y, params)
            assert res.status != SUCCESS or res.message == u
