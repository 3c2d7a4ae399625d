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
    """GF(2^ell) with alpha the root of the primitive polynomial
    DEFAULT_POLYS[ell].

    Construction walks alpha^0, alpha^1, ... and fails if the walk returns
    to 1 before visiting every nonzero element, so a non-primitive modulus
    cannot produce a usable context. The antilog table holds alpha^i at
    double length, so products never need a modular reduction of the
    exponent sum, and then zeros: log[0] = 2 * order points into them, so
    exp[log[a] + log[b]] is the product a*b for every a and b, zero included.
    """

    def __init__(self, ell):
        if not MIN_ELL <= ell <= MAX_ELL:
            raise UnsupportedExponentError(f"ell={ell} outside [{MIN_ELL}, {MAX_ELL}]")
        self.ell = ell
        self.poly = poly = DEFAULT_POLYS[ell]
        self.order = (1 << ell) - 1
        zero_log = 2 * self.order
        exp = [0] * (2 * zero_log + 1)
        log = [None] * (1 << ell)
        x = 1
        for i in range(self.order):
            if log[x] is not None:
                raise NonPrimitivePolynomialError(
                    f"0x{poly:x} is not primitive: alpha cycles after {i} steps"
                )
            exp[i] = x
            exp[i + self.order] = x
            log[x] = i
            x <<= 1
            if x >> ell:
                x ^= poly
        if x != 1:
            raise NonPrimitivePolynomialError(f"0x{poly:x} is not primitive")
        log[0] = zero_log
        self.exp = exp
        self.log = log

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.exp[self.order - self.log[a]]

    def __repr__(self):
        return f"FieldContext(ell={self.ell}, poly=0x{self.poly:x})"

    # ell fixes the field, its polynomial and its tables, so two contexts
    # of one ell are equal: a copied Generator equals its original
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.ell == other.ell
        return NotImplemented

    def __hash__(self):
        return hash(self.ell)


def is_binary(bits):
    """True iff bits holds only '0' and '1'. Deleting both from the ASCII
    bytes is one C pass, about twice as fast as counting them; isascii,
    a flag check, refuses first what str.encode could not turn into ASCII.
    A bits that is not a str (bytes, None, an int) is a TypeError naming
    its type: decode's word, encode's message, evaluate_guess's s and the
    bits of bits_to_symbols and repetition_decode come through here before
    any other use."""
    if not isinstance(bits, str):
        raise TypeError(f"a bit string must be a str, not {type(bits).__name__}")
    return bits.isascii() and not bits.encode().translate(None, b"01")


def bits_to_symbols(bits, ctx):
    """Chunk a '0'/'1' string into field symbols of ell bits each.

    A short final chunk keeps its bits in the high coefficient positions;
    the missing low positions read as zero. Any other character raises
    ValueError, including what int(bits, 2) alone would take ('_', spaces,
    a sign, non-ASCII digits). One int() per chunk keeps the read linear
    in the length: a shift of one int of the whole string would copy it.
    """
    if not is_binary(bits):
        raise ValueError("bits must contain only '0' and '1'")
    ell = ctx.ell
    bits += "0" * (-len(bits) % ell)
    return [int(bits[q:q + ell], 2) for q in range(0, len(bits), ell)]
