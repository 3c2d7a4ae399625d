"""
Redundancy, rate, and the decoding-failure bound
================================================

The redundancy c*ell + w + 1 grows only logarithmically with k when the
window is tied to w = ceil(log2 k), so the rate climbs toward 1. The
failure bound (k/ell) * 2^-((c-3) ell) is the union bound over wrong
guesses surviving the c - 2 check parities; at c=3 it is vacuous and only
simulation says anything, at c=4 it starts to bite.
"""

from gccodes import bound_single

K_GRID = (128, 256, 512, 1024, 2048, 4096)

for c in (3, 4):
    print(f"c = {c}")
    print(f"{'k':>5} {'w':>3} {'n':>5} {'rate':>6} {'redundancy':>10} {'bound':>9}")
    for k in K_GRID:
        w = (k - 1).bit_length()
        rep = bound_single(k, w, c)
        n = k + rep.redundancy_bits
        print(f"{k:>5} {w:>3} {n:>5} {rep.rate:>6.2f} {rep.redundancy_bits:>10} "
              f"{rep.failure_bound:>9.2g}")
    print()

# a wider window than log2 k buys locality but costs redundancy: the
# blocks must stretch to ell = w, at most 20 (the field cap)
for w in (12, 16, 20):
    rep = bound_single(4096, w, 4)
    print(f"k=4096 w={w}: rate {rep.rate:.4f}, bound {rep.failure_bound:.2g}, "
          f"{rep.regime}")
