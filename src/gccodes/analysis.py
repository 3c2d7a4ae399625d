"""Redundancy, rate, failure-probability bounds, and exhaustive sweeps.

The failure bounds upper-bound the chance that guess-and-check decoding
ends with two or more surviving candidates (the decoder then refuses to
answer; it never answers wrongly). They clamp at 1 when the parameters
leave no spare checking budget.
"""

from dataclasses import dataclass
from itertools import combinations, compress

from .channel import DeletionPattern, InvalidPatternError, Window
from .multi_window import max_case_count, multi_dims
from .single_window import FAILURE, SUCCESS, decode, derive_dims, encode


class ScopeTooLargeError(ValueError):
    pass


class MiscorrectionError(RuntimeError):
    """A decoder returned Success with the wrong message. Must never happen."""


DEFAULT_SCOPE_CAP = 10_000_000


@dataclass(frozen=True)
class BoundReport:
    redundancy_bits: int
    rate: float
    failure_bound: float
    regime: str          # "small-window" or "large-window"
    windows: int


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
    redundancy = c * ell + w + 1
    rate = k / (k + redundancy)
    fb = min(1.0, (k / ell) * 2.0 ** (-(c - 3) * ell))
    return BoundReport(redundancy_bits=redundancy, rate=rate, failure_bound=fb,
                       regime=_regime(k, w), windows=1)


def bound_multi(k, w, c, z):
    """Report for the multi-window code: t_max * 2^-(ell (c - 3z)) clamped
    at 1, where t_max is the exact case count maximized over the number of
    missing bits."""
    ell, m, last = multi_dims(k, w, c, z)
    r = z * w + 1
    redundancy = c * ell * r
    rate = k / (k + redundancy)
    fb = min(1.0, max_case_count(k, w, c, z) * 2.0 ** (-ell * (c - 3 * z)))
    return BoundReport(redundancy_bits=redundancy, rate=rate, failure_bound=fb,
                       regime=_regime(k, w), windows=z)


@dataclass(frozen=True)
class OracleReport:
    trials: int
    failures: int
    failure_patterns: tuple


def exhaustive_oracle(p, u, window_starts=None):
    """Run encode -> delete -> decode over an exhaustive pattern scope.

    For each window start (default: every position where the window fits)
    and each deletion count 0..w, every subset of that size of the
    window's offsets is applied. Compliance is checked once per call,
    before encoding: a start that is not an int in 1..n - w + 1 (or is a
    bool) raises InvalidPatternError, and a scope over DEFAULT_SCOPE_CAP
    patterns ScopeTooLargeError. A word is cut as the codeword's head, the
    window's survivors and its tail, one keep mask per offset set, and
    decoded once per call, at the first pattern that gives it. Every
    pattern counts in trials; every pattern whose word failed is listed in
    failure_patterns, in sweep order. Raises MiscorrectionError at the
    first pattern whose word decodes to a wrong message or is refused as
    invalid input. tests/oracles.py's sweep_every_pattern, every pattern
    through delete_localized and decode, is the reference.
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
    offset_sets = [offsets for d in range(w + 1) for offsets in combinations(range(w), d)]
    keeps = [bytes(o not in offsets for o in range(w)) for offsets in offset_sets]
    statuses = {}       # received word -> its decode status, this call only
    failure_patterns = []
    for start in window_starts:
        head, window, tail = x[:start - 1], x[start - 1:start - 1 + w], x[start - 1 + w:]
        for offsets, keep in zip(offset_sets, keeps):
            y = head + "".join(compress(window, keep)) + tail
            status = statuses.get(y)
            if status is None:
                res = decode(y, p)
                status = statuses[y] = res.status
                if status == SUCCESS and res.message != u:
                    raise MiscorrectionError(
                        "wrong message for pattern "
                        f"{DeletionPattern((Window(start, offsets),))} "
                        f"(start={start}, offsets={offsets})")
                if status not in (SUCCESS, FAILURE):
                    raise MiscorrectionError(
                        "decoder rejected a channel-compliant pattern "
                        f"{DeletionPattern((Window(start, offsets),))}: {res.reason}")
            if status == FAILURE:
                failure_patterns.append(DeletionPattern((Window(start, offsets),)))
    return OracleReport(trials=len(offset_sets) * len(window_starts),
                        failures=len(failure_patterns),
                        failure_patterns=tuple(failure_patterns))
