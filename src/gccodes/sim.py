"""Monte Carlo failure-rate harness.

Each trial draws its own RNG streams from (master_seed, k, trial index,
purpose), so reports are byte-identical for a given seed no matter how
trials are ordered or spread over worker processes. Per the construction
used in the published failure-rate figures, the window size is tied to the
message length: w = ceil(log2 k).
"""

import random
import sys
from contextlib import ExitStack
from dataclasses import dataclass
from functools import lru_cache

from .analysis import bound_multi, bound_single
from .channel import delete_localized, sample_pattern
from .multi_window import multi_params
from .single_window import SUCCESS, InvalidConfigError, decode, encode, gc_params

CSV_HEADER = "k,w,ell,c,z,delta,trials,failures,pr_failure,rate,bound"


@dataclass(frozen=True)
class SimConfig:
    k_list: tuple
    c: int
    trials: int
    z: int = 1
    delta: int | None = None          # per-window deletions, absolute
    delta_frac: float | None = None   # ... or as a fraction of w
    master_seed: object = 0
    sampling_mode: str = "whole-codeword"
    kind: str = "cauchy"

    def __post_init__(self):
        if (self.delta is None) == (self.delta_frac is None):
            raise InvalidConfigError("set exactly one of delta and delta_frac")
        if self.trials < 1:
            raise InvalidConfigError("trials must be positive")
        if not self.k_list:
            raise InvalidConfigError("k_list must not be empty")


@dataclass(frozen=True)
class TrialRow:
    k: int
    w: int
    ell: int
    c: int
    z: int
    delta: int
    trials: int
    failures: int
    miscorrections: int
    pr_failure: float
    rate: float
    bound: float


@dataclass(frozen=True)
class TrialReport:
    rows: tuple


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
    """The code for one k, kept across run_trials calls: its parity planes
    fill on the first encode, its decoder tables (lane tables, solvers) on
    the first decode, and every later trial in this process reuses them."""
    w = (k - 1).bit_length()
    if z == 1:
        return gc_params(k, w, c, kind)
    return multi_params(k, w, c, z, kind)


def _run_block(args):
    """Trials [t0, t1) for one k. Top-level so worker processes can pick it
    up; params come from the per-process cache, so a worker builds each k
    once, not once per block."""
    k, cfg, t0, t1 = args
    params = _make_params(k, cfg.c, cfg.z, cfg.kind)
    delta = resolve_delta(cfg, params.w)
    failures = 0
    miscorrections = 0
    for t in range(t0, t1):
        u = format(
            random.Random(f"{cfg.master_seed}/{k}/{t}/msg").getrandbits(k), f"0{k}b"
        )
        pat = sample_pattern(
            params, delta,
            random.Random(f"{cfg.master_seed}/{k}/{t}/pattern"),
            cfg.sampling_mode,
        )
        res = decode(delete_localized(encode(u, params), pat), params)
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
    """
    if workers < 1:
        raise InvalidConfigError(f"workers={workers} must be at least 1")
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
