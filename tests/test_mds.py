"""Parity generators and erasure decoding.

The nonsingularity sweeps compute determinants with a local elimination
routine so the claim does not rest on the library's own solver.
"""

import random
from dataclasses import replace
from itertools import combinations

import pytest

from gccodes import mds, multi_window, single_window
from gccodes.channel import delete_localized, sample_pattern
from gccodes.gf2e import FieldContext, bits_to_symbols
from gccodes.multi_window import decode_multi, encode_multi, multi_params
from gccodes.single_window import SUCCESS, decode, encode, gc_params
from gccodes.mds import (
    FieldTooSmallError,
    SingularSystemError,
    Generator,
    erasure_solver,
    lane_tables,
    log_solver,
    make_generator,
    pack,
    packed_parities,
    pair_checks,
    parity_planes,
)
from oracles import (
    erasure_decode,
    loop_parities,
    message_parity_bits,
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
        d = ctx.mul(d, a[col][col])
        inv = ctx.inv(a[col][col])
        for r in range(col + 1, n):
            if a[r][col]:
                f = ctx.mul(a[r][col], inv)
                a[r] = [x ^ ctx.mul(f, y) for x, y in zip(a[r], a[col])]
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
    assert gen._lanes == []                       # nothing until requested
    u = "01" * (params.k // 2) + "1" * (params.k % 2)
    x = encode(u, params)
    assert gen._lanes == []                       # encoding builds none
    assert decode(x, params).message == u         # the parity path neither
    assert gen._lanes == []
    assert decode(x[1:], params).message == u     # the guess path fills them
    tables = lane_tables(gen)
    assert gen._lanes == [tables] and lane_tables(gen) is tables   # kept, not rebuilt
    assert "_lanes" not in repr(gen) and "namespace" not in repr(params)
    twin = replace(gen)                           # the same fields, no tables
    assert twin._lanes == [] and twin == gen and hash(twin) == hash(gen)
    lanes = max(2 * m - 4, 1)
    assert tables.seg == lanes * ell and len(tables.blocks) == len(tables.spares) == ell

    def lane(x, segment, t, size=lanes):
        return x >> (segment * size + t) * ell & (1 << ell) - 1

    # lane t reads block m - t or 2m - 4 - t; m = 2 leaves one empty lane
    blocks = [m - t if t < m - 2 else 2 * m - 4 - t for t in range(lanes)] if m > 2 else [0]
    for b in range(ell):
        for r in range(c):
            assert [lane(tables.blocks[b], r, t) for t in range(lanes)] == [
                ctx.mul(1 << b, gen.rows[j - 1][r]) if j else 0 for j in blocks], (b, r)
        assert tables.blocks[b] >> c * tables.seg == 0
        for q in range(c - 2):                    # guess i in lane m - 1 - i
            rows = [erasure_solver(gen, (m - 1 - t, m - t))[2 + q] for t in range(m - 1)]
            for side in (0, 1):
                assert [lane(tables.spares[b], side * (c - 2) + q, t, m - 1)
                        for t in range(m - 1)] == [ctx.mul(1 << b, row[side]) for row in rows]
        assert tables.spares[b] >> 2 * (c - 2) * (m - 1) * ell == 0


@pytest.mark.parametrize("params", [gc_params(100, 7, 5), gc_params(64, 4, 5, "vandermonde"),
                                    gc_params(16, 4, 3)])
def test_pair_checks_are_spare_solver_rows(params):
    gen, ctx, ell = params.gen, params.ctx, params.ell
    checks = pair_checks(gen)
    assert pair_checks(gen) == checks
    assert len(checks) == gen.m and checks[0] == ()
    assert len(gen._log_solvers) == gen.m - 1
    for i in range(1, gen.m):
        solver = erasure_solver(gen, (i, i + 1))
        assert [(ctx.exp[la], ctx.exp[lb], sh) for la, lb, sh in checks[i]] == [
            (a, b, r * ell) for r, (a, b) in enumerate(solver[2:], 2)]


@pytest.mark.parametrize("z", [1, 2, 3])
@pytest.mark.parametrize("kind", ["cauchy", "vandermonde"])
def test_log_solver_reproduces_erasure_solver(kind, z):
    mp = multi_params(64, 4, 8, z, kind)          # ell 6, m 11, last block 4 bits
    gen, ctx, ell, t = mp.gen, mp.ctx, mp.ell, 2 * z
    rng = random.Random(f"{kind}/{z}")
    placements = [tuple(e for t_, q in enumerate(picked) for e in (q + t_, q + t_ + 1))
                  for picked in combinations(range(1, gen.m - z + 1), z)]
    for erased in placements:
        solver = erasure_solver(gen, erased)
        view = log_solver(gen, erased)
        assert log_solver(gen, erased) is view     # kept on the generator
        solve, spare = view
        assert len(solve) == t and [row[t] for row in spare] == [q * ell for q in range(t, gen.c)]
        rows = list(solve) + [row[:t] for row in spare]
        for _ in range(4):
            syn = [rng.choice((0, rng.randrange(1 << ell))) for _ in range(t)]
            for logs, row in zip(rows, solver):
                want = 0
                for g, v in zip(row, syn):
                    want ^= ctx.mul(g, v)
                got = 0
                for lg, v in zip(logs, syn):
                    got ^= ctx.exp[lg + ctx.log[v]]
                assert got == want, (erased, syn)
    assert len(gen._log_solvers) == len(placements)
    assert "_log_solvers" not in repr(gen)
    if z == 1:                                    # pair_checks holds the spare rows
        log = ctx.log
        assert pair_checks(gen) == [()] + [
            tuple((log[a], log[b], r * ell)
                  for r, (a, b) in enumerate(erasure_solver(gen, erased)[2:], 2))
            for erased in placements]
        assert all(pair_checks(gen)[i] is log_solver(gen, (i, i + 1))[1] for i in range(1, gen.m))


def test_log_solver_singular_keeps_nothing():
    gen = Generator(m=3, c=3, kind="test", ctx=GF16,
                    rows=((1, 1, 1), (1, 1, 2), (1, 2, 4)))   # pair (1, 2) singular
    for _ in range(2):
        with pytest.raises(SingularSystemError, match=r"\(1, 2\)"):
            log_solver(gen, (1, 2))
    assert gen._log_solvers == {}


@pytest.mark.parametrize("make", [
    lambda: gc_params(128, 7, 3).gen,             # Cauchy, the sim_grid code at k = 128
    lambda: gc_params(64, 4, 5, "vandermonde").gen,
    lambda: Generator(m=3, c=3, kind="test", ctx=GF16,
                      rows=((1, 0, 1), (0, 1, 2), (1, 2, 0))),
    lambda: gc_params(100, 7, 5).gen,             # last block 2 of 7 bits
    lambda: make_generator(4, 3, GF16, "vandermonde"),
    lambda: gc_params(300, 13, 3).gen,            # ell 13, last block 1 bit
    lambda: make_generator(3, 3, FieldContext(19), "cauchy"),
], ids=["cauchy", "vandermonde", "zero-weights", "short-last", "gf16", "ell13", "ell19"])
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
        column = pack([ctx.mul(1 << (q % ell), g) for g in row], ell)
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
    monkeypatch.setattr(single_window, "read_symbols", banned)
    monkeypatch.setattr(multi_window, "read_symbols", banned)
    for params in (gc_params(128, 7, 3), multi_params(64, 4, 8, 2)):   # fresh codes
        encode("01" * (params.k // 2), params)
        assert params.gen._log_solvers == {} and params.gen._lanes == []
        assert params._lanes == [] and params._cases == {}
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


def test_pair_checks_singular_pair_keeps_nothing():
    gen = Generator(m=3, c=3, kind="test", ctx=GF16,
                    rows=((1, 1, 1), (1, 2, 2), (1, 2, 4)))   # pair (2, 3) singular
    for _ in range(2):
        with pytest.raises(SingularSystemError, match=r"\(2, 3\)"):
            pair_checks(gen)
    # through decode: a guess-path word of a code with this generator
    params = replace(gc_params(12, 4, 3), kind="test", gen=gen)   # m = 3 over GF(16)
    y = encode("101100111000", params)[1:]
    for request in (lambda: lane_tables(gen), lambda: decode(y, params)):
        for _ in range(2):
            with pytest.raises(SingularSystemError, match=r"\(2, 3\)"):
                request()
    assert gen._lanes == []


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
    with pytest.raises(SingularSystemError):
        solve_square([[1, 1], [1, 1]], [3, 5], GF16)


def test_solve_square_golden():
    # rows of the vandermonde system for the first block pair
    sol = solve_square([[1, 1], [1, 2]], [9, 8], GF16)
    assert len(sol) == 2
    a, b = sol
    assert a ^ b == 9
    assert a ^ GF16.mul(2, b) == 8


def matmul(a, b, ctx):
    """Product of two matrices given as row lists, local to the tests."""
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = 0
            for v, b_row in zip(row, b):
                acc ^= ctx.mul(v, b_row[j])
            out_row.append(acc)
        out.append(out_row)
    return out


def check_solver(gen, erased, rng):
    t = len(erased)
    solver = erasure_solver(gen, erased)
    assert len(solver) == gen.c and all(len(row) == t for row in solver)
    # weights of the erased blocks in every parity: row r is parity r+1
    block_cols = [[gen.rows[e - 1][r] for e in erased] for r in range(gen.c)]
    identity = [[int(i == j) for j in range(t)] for i in range(t)]
    assert matmul(solver[:t], block_cols[:t], gen.ctx) == identity
    assert matmul(solver[t:], block_cols[:t], gen.ctx) == block_cols[t:]
    for _ in range(5):
        rhs = [rng.randrange(1 << gen.ctx.ell) for _ in range(t)]
        via_solver = [row[0] for row in matmul(solver[:t], [[v] for v in rhs], gen.ctx)]
        assert via_solver == solve_square(block_cols[:t], rhs, gen.ctx), erased


@pytest.mark.parametrize("params, placements", [
    # every z = 2 placement of disjoint adjacent pairs
    (multi_params(64, 4, 8, 2), "pairs"),
    # every adjacent pair of the single-window code
    (gc_params(128, 7, 3), "single"),
    (multi_params(96, 2, 6, 2, kind="vandermonde"), "pairs"),
    (gc_params(64, 4, 5, kind="vandermonde"), "single"),
])
def test_erasure_solver_against_oracle(params, placements):
    rng = random.Random(17)
    gen = params.gen
    if placements == "single":
        cases = [(i, i + 1) for i in range(1, gen.m)]
    else:
        z = params.z
        cases = [tuple(e for t, q in enumerate(picked) for e in (q + t, q + t + 1))
                 for picked in combinations(range(1, gen.m - z + 1), z)]
    for erased in cases:
        check_solver(gen, erased, rng)
    assert gen._log_solvers == {}                 # erasure_solver keeps nothing


def test_log_solver_is_cached_per_generator():
    ctx = FieldContext(8)
    gen = make_generator(6, 4, ctx, "cauchy")
    assert gen._log_solvers == {}
    first = log_solver(gen, (2, 3))
    assert log_solver(gen, (2, 3)) is first
    assert erasure_solver(gen, (3, 4)) is not erasure_solver(gen, (3, 4))
    assert list(gen._log_solvers) == [(2, 3)]
    # the table is not part of the generator's value
    twin = make_generator(6, 4, ctx, "cauchy")
    assert twin._log_solvers == {}
    assert gen == twin and hash(gen) == hash(twin)
    assert "_log_solvers" not in repr(gen)
    with pytest.raises(ValueError):
        log_solver(gen, (1, 2, 3, 4, 5))


def test_erasure_solver_singular_raises_every_time():
    # blocks 1 and 2 carry the same weights in parities 1 and 2
    gen = Generator(m=3, c=3, kind="test", ctx=GF16,
                    rows=((1, 1, 1), (1, 1, 2), (1, 2, 4)))
    for _ in range(2):
        with pytest.raises(SingularSystemError, match=r"\(1, 2\)"):
            erasure_solver(gen, (1, 2))
    check_solver(gen, (2, 3), random.Random(1))


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
        dec(words[0][1], params)                  # fills every solver it uses

    def no_elimination(*args):
        raise AssertionError("elimination after the solvers were filled")

    monkeypatch.setattr(mds, "erasure_solver", no_elimination)
    for params, dec, words in cases:
        filled = dict(params.gen._log_solvers)
        for u, y in words:
            res = dec(y, params)
            assert res.status != SUCCESS or res.message == u
        assert params.gen._log_solvers == filled
