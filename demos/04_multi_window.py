"""
Several windows at once
=======================

With z windows the buffer trick no longer works, so the parity bits
protect themselves instead: each one is repeated r = z*w + 1 times, and
any z windows can erase at most z*w of those copies. The decoder reads
the parities off positionally, then guesses one block pair per window.
encode and decode are the single-window ones: the params' r picks the
layout.
"""

from gccodes import (
    bound_multi,
    decode,
    delete_localized,
    encode,
    multi_params,
    pattern_from_text,
    repetition_decode,
    repetition_encode,
)

mp = multi_params(64, 4, 8, 2)
print(f"k={mp.k} w={mp.w} c={mp.c} z={mp.z}  ->  ell={mp.ell}, m={mp.m}, "
      f"r={mp.r}, n={mp.n}")

# the repetition readout in isolation: bit i lives at position i*r of the
# damaged block (0-indexed) for any d < r deletions, wherever they fall
block = repetition_encode("101", 3)
print(f"\nrepetition r=3 of '101': {block}")
damaged = block[2:]  # two copies lost off the front
print(f"missing 2 bits -> {damaged} -> reads back",
      repetition_decode(damaged, 3, 3, 2))

u = "1011001110001111010101000011001010111100110100101101110001010011"
x = encode(u, mp)
print(f"\ncodeword: {len(x)} bits ({mp.k} message + {mp.c * mp.ell * mp.r} "
      f"repetition-coded parity)")

# two windows, one in the message and one straddling into the parities
pat = pattern_from_text("10:0,1,3;40:1,2")
y = delete_localized(x, pat, w=mp.w, z=mp.z)
res = decode(y, mp)
print(f"pattern 10:0,1,3;40:1,2 -> {res.status}, guess={res.guess}")
assert res.message == u

rep = bound_multi(64, 4, 8, 2)
print(f"\nredundancy {rep.redundancy_bits} bits, rate {rep.rate:.3f}, "
      f"failure bound {rep.failure_bound:.3g}")
