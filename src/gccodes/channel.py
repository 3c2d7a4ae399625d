"""Deletion channel whose deletions are confined to fixed-size windows.

A pattern names each window by the 1-indexed position of its first bit and
lists the deleted offsets inside the window (0-indexed, so offset o deletes
absolute position start + o). The textual form used by the command line is

    start:off1,off2;start:off1,...

e.g. "3:0,1,3;15:0,2" deletes positions 3, 4, 6, 15 and 17.

positions() and delete_localized walk the windows' offsets once, in order,
through one helper (_walk) that refuses a position not above the one
before it; delete_localized cuts the string during that walk.
"""

import random
from collections import namedtuple


class InvalidPatternError(ValueError):
    pass


class Window(namedtuple("Window", "start offsets")):
    __slots__ = ()

    def span_end(self, w):
        return self.start + w - 1


class DeletionPattern(namedtuple("DeletionPattern", "windows")):
    """A pattern's windows. __new__ checks them, and _make and unpickling
    go through it, so _replace refuses what the constructor refuses."""
    __slots__ = ()

    def __new__(cls, windows):
        prev_start = 0
        for win in windows:
            # type(), not isinstance: a bool is refused too
            if type(win.start) is not int:
                raise InvalidPatternError(f"window start {win.start!r} is not an int")
            for o in win.offsets:
                if type(o) is not int:
                    raise InvalidPatternError(f"offset {o!r} is not an int")
            if win.start < 1:
                raise InvalidPatternError(
                    f"window start {win.start}: starts are 1-based and must be at least 1")
            if win.start <= prev_start:
                raise InvalidPatternError("window starts must be strictly increasing")
            prev_start = win.start
            if list(win.offsets) != sorted(set(win.offsets)):
                raise InvalidPatternError("offsets must be sorted and distinct")
            if win.offsets and win.offsets[0] < 0:
                raise InvalidPatternError("offsets must be non-negative")
        return tuple.__new__(cls, (windows,))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def positions(self):
        """Absolute 1-indexed deleted positions, ascending."""
        return list(_walk(self.windows))

    def validate(self, n, w, z=None):
        """Check the pattern against a string length and window contract."""
        if z is not None and len(self.windows) > z:
            raise InvalidPatternError(f"{len(self.windows)} windows exceed the limit z={z}")
        prev_end = 0
        for win in self.windows:
            if win.offsets and win.offsets[-1] >= w:
                raise InvalidPatternError(
                    f"offset {win.offsets[-1]} falls outside a window of size {w}"
                )
            if win.start <= prev_end:
                raise InvalidPatternError("windows must not overlap")
            prev_end = win.span_end(w)
            if prev_end > n:
                raise InvalidPatternError(
                    f"window at {win.start} sticks out of a {n}-bit string"
                )
        return self


def _walk(windows):
    """The deleted positions, 1-indexed, window by window and offset by
    offset; raises InvalidPatternError at the first one not above the
    position before it (windows that overlap or come out of order)."""
    prev = 0
    for win in windows:
        start = win.start
        for o in win.offsets:
            pos = start + o
            if pos <= prev:
                raise InvalidPatternError("windows overlap: duplicate or unordered positions")
            yield pos
            prev = pos


def pattern_from_text(text):
    """Parse "start:off1,off2;start:..."; an empty string is the empty pattern."""
    text = text.strip()
    if not text:
        return DeletionPattern(())
    windows = []
    for part in text.split(";"):
        try:
            head, _, tail = part.partition(":")
            start = int(head)
            offsets = tuple(int(x) for x in tail.split(",")) if tail else ()
        except ValueError as exc:
            raise InvalidPatternError(f"cannot parse window {part!r}") from exc
        windows.append(Window(start, offsets))
    return DeletionPattern(tuple(windows))


def pattern_to_text(pat):
    return ";".join(
        f"{w.start}:" + ",".join(str(o) for o in w.offsets) for w in pat.windows
    )


def delete_localized(x, pat, w=None, z=None):
    """Apply a deletion pattern to a bit string, keeping bit order.

    The checks run in this order. z without w is a ValueError: the window
    count is part of the window contract. Given w, the pattern is checked
    against that contract (validate) before anything is cut. Then one walk
    over the deleted positions (_walk) cuts the string, refusing any
    position not above the one before it. Last, the final position is
    checked against the string's length; DeletionPattern already keeps
    every position at 1 or above.
    """
    if w is not None:
        pat.validate(len(x), w, z)
    elif z is not None:
        raise ValueError(f"z={z} needs the window size w")
    pieces = []
    prev = 0
    for pos in _walk(pat.windows):
        pieces.append(x[prev:pos - 1])
        prev = pos
    if prev > len(x):
        raise InvalidPatternError("deletion positions fall outside the string")
    pieces.append(x[prev:])
    return "".join(pieces)


def sample_pattern(p, delta, rng, mode="whole-codeword"):
    """Draw a uniform channel action for code parameters p.

    Window starts are uniform over every placement of z disjoint windows
    that fit inside the codeword ("whole-codeword") or inside the message
    bits only ("systematic-only"). delta is the per-window deletion count,
    either one int for all windows or a sequence of z ints (a bool is
    refused, not read as 0 or 1). rng is a
    random.Random, or a seed for one; equal seeds give equal patterns.
    """
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    z, w = p.z, p.w
    if mode == "whole-codeword":
        domain = p.n
    elif mode == "systematic-only":
        domain = p.k
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    if isinstance(delta, int):
        deltas = [delta] * z
    else:
        try:
            deltas = list(delta)
        except TypeError:
            raise InvalidPatternError(
                f"delta must be an int or a sequence of {z} ints, got {delta!r}") from None
    if len(deltas) != z:
        raise InvalidPatternError(f"need {z} per-window deletion counts, got {len(deltas)}")
    for d in deltas:
        if type(d) is not int:                  # a bool too: True is not one deletion
            raise InvalidPatternError(f"per-window deletions must be ints, got {d!r}")
        if not 0 <= d <= w:
            raise InvalidPatternError(f"per-window deletions must be in [0, {w}], got {d}")
    # Disjoint starts s_1 < ... < s_z with s_{j+1} >= s_j + w map bijectively
    # to strictly increasing t_j = s_j - (j-1)(w-1), so sampling t uniformly
    # without replacement is uniform over disjoint placements.
    room = domain - w + 1 - (z - 1) * (w - 1)
    if room < z:
        raise InvalidPatternError(
            f"cannot place {z} disjoint windows of size {w} in {domain} bits"
        )
    ts = sorted(rng.sample(range(1, room + 1), z))
    windows = []
    for j, (t, d) in enumerate(zip(ts, deltas)):
        start = t + j * (w - 1)
        offsets = tuple(sorted(rng.sample(range(w), d)))
        windows.append(Window(start, offsets))
    return DeletionPattern(tuple(windows))
