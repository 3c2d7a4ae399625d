"""Byte identity of the codec's outputs on a fixed seeded word set.

One sha256 covers every codeword from encode and encode_multi and the repr
of every DecodeResult from decode and decode_multi. A change that means to
keep every output byte-identical (a refactor, a speed-up) must leave the
digest as it is; a change that means to alter an output updates DIGEST
and says why.

The set spans the single-window code with both generator kinds, the
multi-window code at z = 1, 2 and 3, both sampling modes, per-window
deletion counts from 0 to w, and words cut short, one bit too long or
random.
"""

import hashlib
import random

from gccodes.channel import delete_localized, sample_pattern
from gccodes.codec import decode, decode_multi, encode, encode_multi, gc_params, multi_params

DIGEST = "d1a0b2dc892ba914d34d92036323c6fe628a24a55dce1c53e33543e88d5e7538"

# (k, w, c, z, kind); z = 0 stands for the single-window code
CODES = [
    (16, 4, 3, 0, "vandermonde"),
    (64, 6, 3, 0, "cauchy"),
    (100, 5, 4, 0, "vandermonde"),
    (128, 7, 3, 0, "cauchy"),
    (32, 3, 4, 1, "cauchy"),
    (40, 2, 3, 1, "vandermonde"),
    (64, 4, 8, 2, "cauchy"),
    (50, 3, 6, 2, "vandermonde"),
    (48, 2, 7, 3, "cauchy"),
    (60, 2, 8, 3, "vandermonde"),
]
WORDS_PER_CODE = 250
MODES = ("whole-codeword", "systematic-only")


def _outputs():
    rng = random.Random(20261018)
    for k, w, c, z, kind in CODES:
        if z:
            p = multi_params(k, w, c, z, kind)
            enc, dec, windows = encode_multi, decode_multi, z
        else:
            p = gc_params(k, w, c, kind)
            enc, dec, windows = encode, decode, 1
        for t in range(WORDS_PER_CODE):
            u = "".join(rng.choice("01") for _ in range(k))
            x = enc(u, p)
            yield x
            deltas = [rng.randint(0, w) for _ in range(windows)]
            pat = sample_pattern(p, deltas if z else deltas[0], rng, MODES[t % 2])
            y = delete_localized(x, pat)
            if t % 8 == 5:
                y = y[:len(y) - rng.randint(1, 2 * w)]       # cut short
            elif t % 8 == 6:
                y = x + rng.choice("01")                      # one bit too long
            elif t % 8 == 7:
                y = "".join(rng.choice("01") for _ in range(len(y)))
            yield repr(dec(y, p))


def test_outputs_match_the_pinned_digest():
    h = hashlib.sha256()
    for text in _outputs():
        h.update(text.encode())
        h.update(b"\n")
    assert h.hexdigest() == DIGEST
