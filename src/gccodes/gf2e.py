"""Arithmetic in GF(2^ell) backed by log/antilog tables.

Field elements are plain ints in [0, 2^ell) holding polynomial coefficients
over GF(2), most significant coefficient first: the bit string "1100" in a
4-bit field is x^3 + x^2. Addition is xor; multiplication and inversion go
through discrete-log tables built once per context.
"""

MIN_ELL = 2
# The GF(2^20) tables (4M antilog entries) take a few tenths of a second to
# build, and each step up would double their size and build time.
MAX_ELL = 20

# Lowest-weight primitive polynomial per degree, leading term included
# (0x13 is x^4 + x + 1). Each entry is re-verified at construction time.
DEFAULT_POLYS = {
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x402B,
    15: 0x8003,
    16: 0x1002D,
    17: 0x20009,
    18: 0x40081,
    19: 0x80027,
    20: 0x100009,
}


class UnsupportedExponentError(ValueError):
    pass


class NonPrimitivePolynomialError(ValueError):
    pass


class FieldContext:
    """GF(2^ell) with alpha the root of a primitive polynomial.

    Construction walks alpha^0, alpha^1, ... and fails if the walk returns
    to 1 before visiting every nonzero element, so a non-primitive modulus
    cannot produce a usable context. The antilog table holds alpha^i at
    double length, so products never need a modular reduction of the
    exponent sum, and then zeros: log[0] = 2 * order points into them, so
    exp[log[a] + log[b]] == mul(a, b) for every a and b, zero included.
    """

    def __init__(self, ell, primitive_poly=None):
        if not MIN_ELL <= ell <= MAX_ELL:
            raise UnsupportedExponentError(f"ell={ell} outside [{MIN_ELL}, {MAX_ELL}]")
        if primitive_poly is None:
            primitive_poly = DEFAULT_POLYS[ell]
        if primitive_poly.bit_length() != ell + 1:
            raise NonPrimitivePolynomialError(
                f"polynomial 0x{primitive_poly:x} does not have degree {ell}"
            )
        self.ell = ell
        self.poly = primitive_poly
        self.order = (1 << ell) - 1
        zero_log = 2 * self.order
        exp = [0] * (2 * zero_log + 1)
        log = [None] * (1 << ell)
        x = 1
        for i in range(self.order):
            if log[x] is not None:
                raise NonPrimitivePolynomialError(
                    f"0x{primitive_poly:x} is not primitive: alpha cycles after {i} steps"
                )
            exp[i] = x
            exp[i + self.order] = x
            log[x] = i
            x <<= 1
            if x >> ell:
                x ^= primitive_poly
        if x != 1:
            raise NonPrimitivePolynomialError(f"0x{primitive_poly:x} is not primitive")
        log[0] = zero_log
        self.exp = exp
        self.log = log

    def add(self, a, b):
        return a ^ b

    def mul(self, a, b):
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.exp[self.order - self.log[a]]

    def alpha_pow(self, e):
        """alpha^e for any integer e (reduced mod 2^ell - 1)."""
        return self.exp[e % self.order]

    def __repr__(self):
        return f"FieldContext(ell={self.ell}, poly=0x{self.poly:x})"


def bits_to_symbols(bits, ctx):
    """Chunk a '0'/'1' string into field symbols of ell bits each.

    A short final chunk keeps its bits in the high coefficient positions;
    the missing low positions read as zero. The string is read as one int,
    padded on the right to whole chunks, and each chunk is taken out with
    a shift and a mask.
    """
    ell = ctx.ell
    count = -(-len(bits) // ell)
    if not count:
        return []
    top = (count - 1) * ell
    word = int(bits, 2) << (top + ell - len(bits))
    mask = (1 << ell) - 1
    return [(word >> sh) & mask for sh in range(top, -1, -ell)]


def symbols_to_bits(symbols, ctx):
    """Inverse of bits_to_symbols for full-width blocks."""
    ell = ctx.ell
    return "".join(format(v, f"0{ell}b") for v in symbols)
