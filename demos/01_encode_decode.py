"""
Encoding and decoding a 16-bit message, step by step
====================================================

A worked end-to-end run at the smallest interesting size: k=16 message
bits, deletions confined to one window of w=4 positions, c=3 parity
symbols over GF(16).
"""

from gccodes import (
    bits_to_symbols,
    decode,
    delete_localized,
    encode,
    evaluate_guess,
    gc_params,
    pattern_from_text,
)

u = "1100101001111000"
p = gc_params(16, 4, 3, kind="vandermonde")

# block structure: the message splits into m chunks of ell bits, each
# read as one field symbol
print(f"k={p.k} w={p.w} c={p.c}  ->  ell={p.ell}, m={p.m}, n={p.n}")
symbols = bits_to_symbols(u, p.ctx)
print("message blocks:", [u[i:i + p.ell] for i in range(0, len(u), p.ell)])
print("as GF(16) symbols:", symbols)

# three parity symbols protect the blocks; a buffer of w zeros and a
# single one separates them from the message so the decoder can tell
# which side the deletions hit
x = encode(u, p)
print(f"codeword ({len(x)} bits):", x[:p.k], x[p.k:p.k + p.w + 1], x[p.k + p.w + 1:])
print("parity symbols:", bits_to_symbols(x[p.k + p.w + 1:], p.ctx))

# drop three bits from a window starting at position 7 (1-indexed)
pat = pattern_from_text("7:0,2,3")
y = delete_localized(x, pat)
print(f"\nreceived ({len(y)} bits):", y)

# the decoder guesses which adjacent pair of blocks absorbed the window,
# erasure-decodes that pair from two parities, and checks the rest
s = y[: len(y) - p.c * p.ell - (p.w + 1)]
tail = bits_to_symbols(y[len(y) - p.c * p.ell:], p.ctx)
for i in range(1, p.m):
    g = evaluate_guess(s, i, tail, p)
    verdict = "possible" if g.candidate else "impossible"
    print(f"guess {i}: pair={g.decoded_pair} parities_ok={g.parities_ok} "
          f"supersequence_ok={g.supersequence_ok} -> {verdict}")

res = decode(y, p)
print(f"\ndecoded: {res.message} via guess {res.guess}")
assert res.message == u
