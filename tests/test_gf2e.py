"""Field arithmetic checked against a bit-twiddling oracle that shares no
code with the table implementation."""

import random

import pytest

from gccodes import codec, gf2e
from gccodes.gf2e import (
    DEFAULT_POLYS,
    MAX_ELL,
    MIN_ELL,
    FieldContext,
    SEGMENT,
    NonPrimitivePolynomialError,
    UnsupportedExponentError,
    bits_to_symbols,
    read_symbols,
)


def slow_mul(a, b, poly, ell):
    """Carry-less multiply then reduce, no tables."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    for shift in range(acc.bit_length() - 1, ell - 1, -1):
        if acc >> shift & 1:
            acc ^= poly << (shift - ell)
    return acc


def slow_order(a, poly, ell):
    x, n = a, 1
    while x != 1:
        x = slow_mul(x, a, poly, ell)
        n += 1
    return n


GF16 = FieldContext(4)


def test_mul_matches_oracle_exhaustive_gf16():
    for a in range(16):
        for b in range(16):
            assert GF16.mul(a, b) == slow_mul(a, b, 0x13, 4)


@pytest.mark.parametrize("ell", [5, 6, 8, 10])
def test_mul_matches_oracle_sampled(ell):
    ctx = FieldContext(ell)
    poly = DEFAULT_POLYS[ell]
    order = 1 << ell
    # fixed stride walk covers a spread of operand pairs
    for a in range(1, order, max(1, order // 37)):
        for b in range(1, order, max(1, order // 29)):
            assert ctx.mul(a, b) == slow_mul(a, b, poly, ell)


def test_field_axioms_gf16():
    els = range(16)
    for a in els:
        assert GF16.mul(a, 1) == a
        assert GF16.mul(a, 0) == 0
        for b in els:
            assert GF16.mul(a, b) == GF16.mul(b, a)
    # associativity and distributivity on a coarser grid
    for a in range(0, 16, 3):
        for b in range(0, 16, 2):
            for c in els:
                assert GF16.mul(GF16.mul(a, b), c) == GF16.mul(a, GF16.mul(b, c))
                assert GF16.mul(a, b ^ c) == GF16.mul(a, b) ^ GF16.mul(a, c)


def test_inverse_exhaustive_gf16():
    for a in range(1, 16):
        assert GF16.mul(a, GF16.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        GF16.inv(0)


def test_inv_alpha_is_alpha_14():
    # alpha = 0b0010; its inverse closes the order-15 cycle
    assert GF16.inv(2) == GF16.exp[14]


def test_antilog_golden_gf16():
    want = [1, 2, 4, 8, 3, 6, 12, 11, 5, 10, 7, 14, 15, 13, 9]
    assert GF16.exp[:15] == want
    assert GF16.exp[15] == 1                     # one period repeats
    assert GF16.exp[21] == GF16.exp[6]


def test_worked_example_symbol_products():
    # 1100 * 1010 multiplies the two leading message symbols of the
    # worked example; the exponents 6 + 9 wrap to the identity
    assert GF16.mul(0b1100, 0b1010) == 0b0001
    assert GF16.log[0b1100] == 6
    assert GF16.log[0b1010] == 9


@pytest.mark.parametrize("ell", sorted(DEFAULT_POLYS))
def test_default_polys_weight_and_degree(ell):
    poly = DEFAULT_POLYS[ell]
    assert poly.bit_length() == ell + 1
    assert poly & 1, "constant term required for invertibility"


@pytest.mark.parametrize("ell", range(MIN_ELL, 13))
def test_default_polys_primitive(ell):
    # alpha must generate the full multiplicative group
    poly = DEFAULT_POLYS[ell]
    assert slow_order(2, poly, ell) == (1 << ell) - 1


def test_non_primitive_poly_rejected(monkeypatch):
    # the walk guards the polynomial table: x^4 + x^3 + x^2 + x + 1 is
    # irreducible yet alpha has order 5
    monkeypatch.setitem(DEFAULT_POLYS, 4, 0x1F)
    with pytest.raises(NonPrimitivePolynomialError):
        FieldContext(4)
    # reducible polynomials collide even earlier
    monkeypatch.setitem(DEFAULT_POLYS, 4, 0x18)
    with pytest.raises(NonPrimitivePolynomialError):
        FieldContext(4)


@pytest.mark.parametrize("ell", [MIN_ELL - 1, MAX_ELL + 1, 0])
def test_exponent_range(ell):
    with pytest.raises(UnsupportedExponentError):
        FieldContext(ell)


def test_bits_to_symbols_message_of_worked_example():
    assert bits_to_symbols("1100101001111000", GF16) == [12, 10, 7, 8]


def test_bits_symbols_round_trip_exact_multiple():
    bits = "110010100111"
    assert "".join(format(v, "04b") for v in bits_to_symbols(bits, GF16)) == bits


def test_short_final_chunk_fills_high_bits():
    # 2 leftover bits land in the top of the last symbol
    assert bits_to_symbols("110010", GF16) == [12, 0b1000]
    ctx32 = FieldContext(5)
    assert bits_to_symbols("1101101", ctx32) == [0b11011, 0b01000]


def test_bits_to_symbols_reads_leading_zeros():
    assert bits_to_symbols("00011111", GF16) == [1, 15]


def chunked_symbols(bits, ell):
    """One int per ell-bit chunk, a short last chunk padded with low zeros;
    local to the tests."""
    out = []
    for pos in range(0, len(bits), ell):
        chunk = bits[pos:pos + ell]
        out.append(int(chunk, 2) << (ell - len(chunk)))
    return out


@pytest.mark.parametrize("ell", [2, 4, 7, 12])
def test_bits_to_symbols_matches_per_chunk_reading(ell):
    ctx = FieldContext(ell)
    rng = random.Random(ell)
    span = SEGMENT * ell      # longer strings are read a segment at a time
    for length in [*range(1, 3 * ell + 2), span - 1, span, span + 1,
                   2 * span, 2 * span + ell - 1, 3 * span + ell + 1]:
        for bits in ("0" * length, "1" * length,
                     format(rng.getrandbits(length), f"0{length}b")):
            assert bits_to_symbols(bits, ctx) == chunked_symbols(bits, ell), bits


def test_bits_to_symbols_edges():
    assert bits_to_symbols("", GF16) == []
    for bad in ("x", "0x01", "0101x", "01010101x"):
        with pytest.raises(ValueError):
            bits_to_symbols(bad, GF16)


@pytest.mark.parametrize("bad", ["1_01", " 101", "+101", "\u0661\u0660\u0661"],
                         ids=["underscore", "leading-space", "plus", "arabic-digits"])
def test_bits_to_symbols_refuses_what_int_accepts(bad):
    assert int(bad, 2) in (5, 10)       # int() alone would read a number
    with pytest.raises(ValueError, match=r"^bits must contain only '0' and '1'$"):
        bits_to_symbols(bad, GF16)


def test_read_symbols_reads_bounded_segments(monkeypatch):
    """Each int() in the read covers at most SEGMENT symbols, so no shift
    copies more than a segment and the read is linear in the length."""
    lengths = []

    def counting_int(text, base):
        lengths.append(len(text))
        return int(text, base)

    monkeypatch.setattr(gf2e, "int", counting_int, raising=False)
    ell = 12
    bits = format(random.Random(3).getrandbits(10 * SEGMENT * ell + 7), "b")
    assert read_symbols(bits, ell) == chunked_symbols(bits, ell)
    assert max(lengths) == SEGMENT * ell and len(lengths) == -(-len(bits) // (SEGMENT * ell))
    lengths.clear()
    read_symbols(bits[:SEGMENT * ell], ell)        # a short string is one int
    assert lengths == [SEGMENT * ell]


def test_decoders_check_the_word_once(monkeypatch):
    """decode and decode_multi validate the received word themselves and
    then read it through read_symbols, not the checking bits_to_symbols."""
    p = codec.gc_params(64, 6, 3)
    mp = codec.multi_params(64, 4, 8, 2)
    u = format(random.Random(4).getrandbits(64), "064b")
    y = codec.encode(u, p)
    y = y[:10] + y[13:]                             # three deletions in the message
    ym = codec.encode_multi(u, mp)
    ym = ym[:10] + ym[12:40] + ym[41:]              # two windows

    def banned(bits):
        raise AssertionError("a decoder checked the word twice")

    monkeypatch.setattr(gf2e, "is_binary", banned)
    assert codec.decode(y, p).message == u
    assert codec.decode_multi(ym, mp).message == u
