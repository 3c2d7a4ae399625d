"""Reference computations for the tests.

They share no code with the encoder or the decoders: symbols are sliced
off bit strings by hand and every parity is built one field product at a
time (FieldContext.mul).
"""


def loop_parities(symbols, gen):
    """c parities of the leading symbols, one field product at a time."""
    out = []
    for r in range(gen.c):
        acc = 0
        for i, v in enumerate(symbols):
            acc = gen.ctx.add(acc, gen.ctx.mul(v, gen.rows[i][r]))
        out.append(acc)
    return out


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
