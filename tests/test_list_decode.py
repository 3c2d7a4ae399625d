"""decode against the brute-force list decoder of tests/oracles.py.

list_decode re-inserts the missing bits in every window-confined way and
keeps the valid codewords, so it shares nothing with the decoder's case
set. The contract checked on every word: the sent message is in the
list, and a Success is a member of it. Where decode and the list
disagree, the counts are pinned exactly:

* invalid-listed: InvalidInput although the list is not empty;
* success-ambiguous: Success although the list has two or more members;
* failure-unique: Failure although the list has one member.

The multi-window decoder assumes that every deletion hit the message bits
and that no two windows share a block pair, so some compliant words come
back InvalidInput; those are the invalid-listed words below. The
single-window decoder's supersequence test is weaker than the window
contract, so on a few words it keeps a second candidate that no single
window explains; those are the failure-unique words.
"""

import random
from itertools import combinations

import pytest

from gccodes.channel import DeletionPattern, Window, delete_localized, sample_pattern
from gccodes.codec import FAILURE, INVALID_INPUT, SUCCESS, decode, encode, gc_params, multi_params
from oracles import list_decode


def tally(words, p):
    """Decode each (message, received) pair and list-decode it; check the
    contract and count the statuses and the three kinds of disagreement."""
    counts = {"invalid-listed": 0, "success-ambiguous": 0, "failure-unique": 0}
    for u, y in words:
        listed = list_decode(y, p)
        res = decode(y, p)
        assert u in listed, (u, y)
        if res.status == SUCCESS:
            assert res.message in listed, (u, y)
        counts[res.status] = counts.get(res.status, 0) + 1
        counts["invalid-listed"] += res.status == INVALID_INPUT and bool(listed)
        counts["success-ambiguous"] += res.status == SUCCESS and len(listed) >= 2
        counts["failure-unique"] += res.status == FAILURE and len(listed) == 1
    return counts


def test_single_window_every_pattern_of_a_few_messages():
    """gc_params(16, 4, 3), n = 33: every window start and every offset
    set, for six messages; equal received words are decoded once."""
    p = gc_params(16, 4, 3)
    rng = random.Random("list/single")
    words = {}
    for _ in range(6):
        u = format(rng.getrandbits(p.k), f"0{p.k}b")
        x = encode(u, p)
        for start in range(1, p.n - p.w + 2):
            for size in range(p.w + 1):
                for offsets in combinations(range(p.w), size):
                    pat = DeletionPattern((Window(start, offsets),))
                    words[u, delete_localized(x, pat, w=p.w, z=1)] = None
    assert tally(words, p) == {SUCCESS: 525, FAILURE: 4, "invalid-listed": 0,
                               "success-ambiguous": 0, "failure-unique": 4}


@pytest.mark.parametrize("args, count, want", [
    ((16, 2, 3, 1), 600, {SUCCESS: 600, "invalid-listed": 0,
                          "success-ambiguous": 0, "failure-unique": 0}),
    ((13, 1, 5, 2), 300, {SUCCESS: 262, INVALID_INPUT: 38, "invalid-listed": 38,
                          "success-ambiguous": 0, "failure-unique": 0}),
], ids=["z1", "z2-n73"])
def test_multi_window_raw_draws(args, count, want):
    """Raw sample_pattern draws, both sampling modes in turn, each window's
    deletion count uniform in 0..w; no draw is filtered."""
    p = multi_params(*args)
    rng = random.Random(f"list/{args}")
    words = []
    for t in range(count):
        u = format(rng.getrandbits(p.k), f"0{p.k}b")
        deltas = tuple(rng.randrange(p.w + 1) for _ in range(p.z))
        pat = sample_pattern(p, deltas, rng, ("whole-codeword", "systematic-only")[t % 2])
        words.append((u, delete_localized(encode(u, p), pat, w=p.w, z=p.z)))
    assert tally(words, p) == want
