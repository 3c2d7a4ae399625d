"""Monte Carlo failure-rate harness.

Each trial draws its own RNG streams from (master_seed, k, trial index,
purpose), so reports are byte-identical for a given seed no matter how
trials are ordered or spread over worker processes. Per the construction
used in the published failure-rate figures, the window size is tied to the
message length: w = ceil(log2 k).

A block of trials runs in stages of at most _STAGE trials, each step done
for the whole stage before the next: draw, then encode and cut, then
decode. Decoding words one after another keeps the decoder's code and
tables warm in the CPU caches; _STAGE bounds the words held at once.
"""

import os
import random
import sys
from collections import namedtuple
from contextlib import ExitStack
from functools import lru_cache

from .analysis import bound_multi, bound_single
from .channel import delete_localized, sample_pattern
from .codec import (SUCCESS, InvalidConfigError, _check_ints, decode, encode, gc_params,
                    multi_params)

CSV_HEADER = "k,w,ell,c,z,delta,trials,failures,pr_failure,rate,bound"

# Trials per stage of _run_block. Timed over 512-trial blocks at k = 128
# and 4096, stages of 32 to 512 cost the same per trial within noise;
# stages of 16 cost up to 7% more at k = 128, and of 1 (no staging)
# 15-35% more. 64 sits past that knee at both.
_STAGE = 64


class SimConfig(namedtuple("SimConfig", "k_list c trials z delta delta_frac master_seed "
                                         "sampling_mode kind")):
    """One Monte Carlo run: delta is the per-window deletion count,
    absolute, or delta_frac the same as a fraction of w. __new__ checks
    the run before any trial, and _make and unpickling go through it, so
    _replace refuses what the constructor refuses."""
    __slots__ = ()

    def __new__(cls, k_list, c, trials, z=1, delta=None, delta_frac=None, master_seed=0,
                sampling_mode="whole-codeword", kind="cauchy"):
        self = tuple.__new__(cls, (k_list, c, trials, z, delta, delta_frac, master_seed,
                                   sampling_mode, kind))
        if (delta is None) == (delta_frac is None):
            raise InvalidConfigError("set exactly one of delta and delta_frac")
        if not k_list:
            raise InvalidConfigError("k_list must not be empty")
        # A bool is refused too. c and z as well: _make_params' cache
        # takes 3.0 for 3, and its z == 1 test True for 1.
        _check_ints(trials=trials, c=c, z=z)
        for k in k_list:
            _check_ints(k=k)
        if delta is not None:
            _check_ints(delta=delta)
        if trials < 1:
            raise InvalidConfigError("trials must be positive")
        if delta_frac is not None:
            if isinstance(delta_frac, bool) or not isinstance(delta_frac, (int, float)):
                raise InvalidConfigError(f"delta_frac={delta_frac!r} is not a number")
            if not 0 <= delta_frac <= 1:
                raise InvalidConfigError(f"delta_frac={delta_frac} outside [0, 1]")
        if sampling_mode not in ("whole-codeword", "systematic-only"):
            raise InvalidConfigError(f"unknown sampling mode {sampling_mode!r}")
        for k in k_list:                # refused before any k runs
            resolve_delta(self, _make_params(k, c, z, kind).w)
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


TrialRow = namedtuple("TrialRow", "k w ell c z delta trials failures miscorrections "
                                  "pr_failure rate bound")
TrialReport = namedtuple("TrialReport", "rows")


def resolve_delta(cfg, w):
    if cfg.delta is not None:
        d = cfg.delta
    else:
        d = int(cfg.delta_frac * w + 0.5)  # round half up
    if not 0 <= d <= w:
        raise InvalidConfigError(f"delta={d} outside [0, {w}]")
    return d


@lru_cache(maxsize=16)
def _make_params(k, c, z, kind):
    """The code for one k, kept across run_trials calls: SimConfig builds
    it first, so a k whose code cannot be built is refused before any
    trial; its parity planes fill on the first encode, its decoder tables
    (_tables) on the first decode, and every later trial in this process
    reuses them."""
    w = (k - 1).bit_length()
    if z == 1:
        return gc_params(k, w, c, kind)
    return multi_params(k, w, c, z, kind)


def _run_block(args):
    """Trials [t0, t1) for one k. Top-level so worker processes can pick it
    up; params come from the per-process cache, so a worker builds each k
    once, not once per block.

    The trials go in stages of at most _STAGE: every message and pattern
    of a stage is drawn, then every word encoded and cut, then the words
    decoded one after another, so the decoder's code and tables stay in
    the CPU caches instead of being evicted by the sampling and encoding
    between two decodes. Each trial still seeds its own streams and makes
    each public call once; only the order of work changes. _STAGE, not
    the block, bounds the words held at once: a block is trials/8 trials
    at workers=1 (125 000 of a 10^6-trial run), about 1 GB of words at
    k = 4096 if staged whole.
    """
    k, cfg, t0, t1 = args
    params = _make_params(k, cfg.c, cfg.z, cfg.kind)
    delta = resolve_delta(cfg, params.w)
    seed, mode, width = cfg.master_seed, cfg.sampling_mode, f"0{k}b"
    failures = 0
    miscorrections = 0
    for s0 in range(t0, t1, _STAGE):
        stage = range(s0, min(s0 + _STAGE, t1))
        msgs = [format(random.Random(f"{seed}/{k}/{t}/msg").getrandbits(k), width)
                for t in stage]
        pats = [sample_pattern(params, delta, random.Random(f"{seed}/{k}/{t}/pattern"), mode)
                for t in stage]
        words = [delete_localized(encode(u, params), pat) for u, pat in zip(msgs, pats)]
        for u, y in zip(msgs, words):
            res = decode(y, params)
            if res.status == SUCCESS:
                if res.message != u:
                    miscorrections += 1
            else:
                # InvalidInput counts as a failure too: the decoder gave no
                # answer. Under the default sampling modes it occurs in the
                # multi-window code when no enumerated case explains the word:
                # two windows share a block, or deletions behind the message
                # bits (more than w of them, say) leave a shift no case covers.
                failures += 1
    return failures, miscorrections


def run_trials(cfg, workers=1, progress=False):
    """Run cfg and report one row per k.

    workers > 1 spreads the trial blocks over processes; the outcome is
    identical either way because every trial seeds its own streams.
    _check_workers refuses workers first.
    """
    _check_workers(workers)
    rows = []
    for k in cfg.k_list:
        params = _make_params(k, cfg.c, cfg.z, cfg.kind)
        delta = resolve_delta(cfg, params.w)
        blocks = _split_blocks(k, cfg, workers)
        failures = miscorrections = 0
        with ExitStack() as stack:
            mapper = map
            if workers > 1:
                # imported here, so that importing the package does not
                # import multiprocessing
                from multiprocessing import Pool

                mapper = stack.enter_context(Pool(workers)).imap
            # imap, like map, yields the blocks' results in order
            for (f, mc), (_, _, _, t1) in zip(mapper(_run_block, blocks), blocks):
                failures += f
                miscorrections += mc
                if progress:
                    print(f"k={k}: {t1}/{cfg.trials} trials", file=sys.stderr, flush=True)
        if cfg.z == 1:
            bound = bound_single(k, params.w, cfg.c).failure_bound
        else:
            bound = bound_multi(k, params.w, cfg.c, cfg.z).failure_bound
        rows.append(TrialRow(
            k=k, w=params.w, ell=params.ell, c=cfg.c, z=cfg.z, delta=delta,
            trials=cfg.trials, failures=failures, miscorrections=miscorrections,
            pr_failure=failures / cfg.trials, rate=k / params.n, bound=bound,
        ))
        if progress:
            print(f"k={k}: done, {failures} failures / {cfg.trials} trials",
                  file=sys.stderr, flush=True)
    return TrialReport(rows=tuple(rows))


def _check_workers(workers, name="workers="):
    """Refuse a worker count that is not an int in 1..the CPU count, each
    worker being a process, with InvalidConfigError naming it as name
    followed by the count; run_trials calls it before it splits any block
    or starts any pool, and cli with the flag's name."""
    _check_ints(workers=workers)
    cpus = os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        raise InvalidConfigError(f"{name}{workers} must be in 1..{cpus}, the CPU count")


def _split_blocks(k, cfg, workers):
    per = max(1, min(cfg.trials, -(-cfg.trials // max(workers * 4, 8))))
    blocks = []
    t = 0
    while t < cfg.trials:
        hi = min(t + per, cfg.trials)
        blocks.append((k, cfg, t, hi))
        t = hi
    return blocks


def _g6(x):
    return f"{x:.6g}"


def report_to_csv(report):
    """CSV text; floats carry 6 significant digits and the rate is repeated
    rounded to 2 decimals in a trailing rate_2dp column."""
    lines = [CSV_HEADER + ",rate_2dp"]
    for r in report.rows:
        lines.append(
            f"{r.k},{r.w},{r.ell},{r.c},{r.z},{r.delta},{r.trials},{r.failures},"
            f"{_g6(r.pr_failure)},{_g6(r.rate)},{_g6(r.bound)},{r.rate:.2f}"
        )
    return "\n".join(lines) + "\n"
