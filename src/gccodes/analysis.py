"""Redundancy, rate, failure-probability bounds, and exhaustive sweeps.

The failure bounds upper-bound the chance that guess-and-check decoding
ends with two or more surviving candidates (the decoder then refuses to
answer; it never answers wrongly). They clamp at 1 when the parameters
leave no spare checking budget.
"""

from array import array
from collections import namedtuple
from functools import lru_cache
from itertools import combinations

from .channel import DeletionPattern, InvalidPatternError, Window
from .codec import (FAILURE, SUCCESS, decode, derive_dims, encode, max_case_count, multi_dims,
                    redundancy)


class ScopeTooLargeError(ValueError):
    pass


class MiscorrectionError(RuntimeError):
    """A decoder returned Success with the wrong message. Must never happen."""


DEFAULT_SCOPE_CAP = 10_000_000


# regime is "small-window" or "large-window"
BoundReport = namedtuple("BoundReport", "redundancy_bits rate failure_bound regime windows")


def _regime(k, w):
    return "small-window" if w < (k - 1).bit_length() else "large-window"


def bound_single(k, w, c):
    """Report for the single-window code.

    failure_bound is min(1, (k/ell) * 2^-((c-3) ell)): of the m - 1
    guesses, each wrong one survives the two solving parities plus c - 2
    spare checks with probability about 2^-((c-3) ell) once the
    supersequence test is counted worth one block.
    """
    ell, m, last = derive_dims(k, w, c)
    bits = redundancy(ell, w, c, 1)
    rate = k / (k + bits)
    fb = min(1.0, (k / ell) * 2.0 ** (-(c - 3) * ell))
    return BoundReport(redundancy_bits=bits, rate=rate, failure_bound=fb,
                       regime=_regime(k, w), windows=1)


def bound_multi(k, w, c, z):
    """Report for the multi-window code: t_max * 2^-(ell (c - 3z)) clamped
    at 1, where t_max is the exact case count maximized over the number of
    missing bits."""
    ell, m, last = multi_dims(k, w, c, z)
    bits = redundancy(ell, w, c, z * w + 1)
    rate = k / (k + bits)
    fb = min(1.0, max_case_count(k, w, c, z) * 2.0 ** (-ell * (c - 3 * z)))
    return BoundReport(redundancy_bits=bits, rate=rate, failure_bound=fb,
                       regime=_regime(k, w), windows=z)


OracleReport = namedtuple("OracleReport", "trials failures failure_patterns")


@lru_cache(maxsize=1)
def _sweep_order(w):
    """The patterns of a window of w bits in sweep order (every d in
    0..w, then combinations order), each as the index of its survivors in
    a start's doubling list: bit o of the index is set when offset o is
    kept. One array, kept for the last w only (4 MB at w = 20); callers
    only read it."""
    full = (1 << w) - 1
    return array("I", [full ^ sum(1 << o for o in offsets)
                       for d in range(w + 1) for offsets in combinations(range(w), d)])


def _pattern(start, index, w):
    """The one-window DeletionPattern of the survivor index at start."""
    return DeletionPattern((Window(start, tuple(o for o in range(w) if not index >> o & 1)),))


def exhaustive_oracle(p, u, window_starts=None):
    """Run encode -> delete -> decode over an exhaustive pattern scope.

    For each window start (default: every position where the window fits)
    and each deletion count 0..w, every subset of that size of the
    window's offsets is applied. Compliance is checked once per call,
    before encoding: a start that is not an int in 1..n - w + 1 (or is a
    bool) raises InvalidPatternError, and a scope over DEFAULT_SCOPE_CAP
    patterns ScopeTooLargeError.

    A start's words are cut from the codeword. Its window's 2^w survivors
    are built once, by doubling: the list starts as the empty string, and
    each window bit in turn appends a copy of every entry with that bit
    added, one short concatenation per subset; _sweep_order gives each
    pattern's survivor index, in sweep order. A word is the bits before
    the window, a survivor and the bits after it, cut once per distinct
    survivor of the start, and each distinct word is decoded once per
    call, at the first pattern that gives it. Every pattern counts in
    trials; every pattern whose word failed is listed in failure_patterns,
    in sweep order, and a start's patterns are walked for that only when
    one of its words failed. Raises MiscorrectionError at the first
    pattern whose word decodes to a wrong message or is refused as
    invalid input.
    tests/oracles.py's sweep_every_pattern, every pattern through
    delete_localized and decode, is the reference.
    """
    last = p.n - p.w + 1
    if window_starts is None:
        window_starts = range(1, last + 1)
    window_starts = list(window_starts)
    for start in window_starts:
        if isinstance(start, bool) or not isinstance(start, int) or not 1 <= start <= last:
            raise InvalidPatternError(f"window start {start!r} outside 1..{last}")
    total = 2 ** p.w * len(window_starts)
    if total > DEFAULT_SCOPE_CAP:
        raise ScopeTooLargeError(f"{total} patterns exceed the cap {DEFAULT_SCOPE_CAP}")
    x = encode(u, p)
    w = p.w
    order = _sweep_order(w)
    statuses = {}       # received word -> whether its decode failed, this call
    failure_patterns = []
    for start in window_starts:
        head, tail = x[:start - 1], x[start - 1 + w:]
        cuts = [""]
        for bit in x[start - 1:start - 1 + w]:
            cuts += [cut + bit for cut in cuts]
        bad = set()     # survivors whose word failed
        for cut in dict.fromkeys(map(cuts.__getitem__, order)):    # first patterns first
            y = head + cut + tail
            failed = statuses.get(y)
            if failed is None:
                res = decode(y, p)
                failed = statuses[y] = res.status == FAILURE
                if not failed and (res.status != SUCCESS or res.message != u):
                    pattern = _pattern(start, next(i for i in order if cuts[i] == cut), w)
                    if res.status == SUCCESS:
                        raise MiscorrectionError(
                            f"wrong message for pattern {pattern} "
                            f"(start={start}, offsets={pattern.windows[0].offsets})")
                    raise MiscorrectionError(
                        f"decoder rejected a channel-compliant pattern {pattern}: {res.reason}")
            if failed:
                bad.add(cut)
        if bad:
            failure_patterns += [_pattern(start, i, w) for i in order if cuts[i] in bad]
    return OracleReport(trials=len(order) * len(window_starts),
                        failures=len(failure_patterns),
                        failure_patterns=tuple(failure_patterns))
