"""The benchmark's workloads, their output checks and their traced mirrors.

Each workload runs in units (one grid cycle, one batch of words, one
round of sweeps). A unit calls the package the way a user would, with no tracing,
and checks every decoded output. In a traced run each unit is followed by
a mirror: the same inputs pushed through the same public functions one call
at a time, with a span around every call, and its outcome must equal the
untraced unit's. Import this module only after run.py has put the
repository's own src/ first on sys.path.
"""

import random
import statistics
from contextlib import contextmanager
from itertools import combinations
from time import perf_counter, perf_counter_ns

import gccodes as gc
from calibrate import Speed

# sim_grid: the paper's failure-rate grid at c = 3, delta = w.
SIM_KS = (128, 256, 512, 1024, 4096)
SIM_C = 3
# Trials per run_trials call. At 200 the call rebuilds its params 9 times,
# about 1-2% of the call, close to the share a full simulate run pays.
SIM_TRIALS_PER_K = 200
# multi_z2: demo 04 / acceptance criterion 09 parameters.
MULTI_K, MULTI_W, MULTI_C, MULTI_Z = 64, 4, 8, 2
MULTI_BATCH = 10
# exhaustive_k64: every window start, every delta in 0..w, every offset set;
# the 84 window starts are split into EXH_BLOCKS blocks of 6.
EXH_K, EXH_W, EXH_C = 64, 6, 3
EXH_BLOCKS = 14
# Each params object is built this many times in the traced set-up.
SETUP_REPS = 5


class OutputMismatch(RuntimeError):
    """A decoded output or a failure count disagreed with the truth.

    `wrong` is how many operations of the unit under way failed the check.
    """

    def __init__(self, msg, wrong=1):
        super().__init__(msg)
        self.wrong = wrong


class Tally:
    """What the untraced units measured, plus the traced mirrors' cost.

    Rates and latencies are scaled to the nominal machine speed (see
    calibrate.py); the traced figures are raw wall times.
    """

    def __init__(self):
        self.speed = Speed()
        self.ops = 0
        self.undecoded = 0     # decodes that abstained or said invalid input
        self.rates = []        # ops per second, one sample per unit
        self.op_ms = []        # latency samples in ms
        self.untraced_s = 0.0  # untraced wall time of the units mirrored
        self.mirror_s = 0.0    # wall time of their traced mirrors
        self.mirror_busy_ns = 0  # layer spans' busy time inside the mirrors

    @contextmanager
    def mirror(self, tr, untraced_s):
        """Account for one traced mirror of work that took untraced_s."""
        t0 = perf_counter()
        since = len(tr)
        yield
        self.untraced_s += untraced_s
        self.mirror_s += perf_counter() - t0
        self.mirror_busy_ns += tr.busy_ns(since)


def percentile(samples, pct):
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def _msg(seed_text, k):
    return format(random.Random(seed_text).getrandbits(k), f"0{k}b")


def _check(res, u, where):
    if res.status == gc.SUCCESS and res.message != u:
        raise OutputMismatch(f"{where}: decoder returned a wrong message")
    return res.status


def _traced_decode(tr, y, p, u, root, op, where):
    """Single-window decode under a span named after the path it took:
    the parity path (nothing to guess) or the guess path, which always
    tries all m - 1 block pairs."""
    t0 = perf_counter_ns()
    res = gc.decode(y, p)
    t1 = perf_counter_ns()
    tr.count("single_window.decodes")
    if res.status == gc.SUCCESS and res.guess is None:
        tr.add("single_window.decode_parity", t0, t1, root, op)
    else:
        tr.add(f"single_window.decode_guess.k{p.k}", t0, t1, root, op)
        tr.count("single_window.guesses", p.m - 1)
    if res.status == gc.INVALID_INPUT:
        tr.count("single_window.invalid")
    return _check(res, u, where)


def traced_setup(specs, tr):
    """Build every params object the workload uses, each layer's
    constructor called on its own under a span."""
    for _ in range(SETUP_REPS):
        for name, *args in specs:
            if name == "multi_params":
                tr.call("multi_window.params", gc.multi_params, *args)
                args = args[:3]
            p = tr.call("single_window.params", gc.gc_params, *args)
            ctx = tr.call("gf2e.field_build", gc.FieldContext, p.ell)
            tr.call("mds.generator_build", gc.make_generator, p.m, p.c, ctx, p.kind)


class SimGrid:
    """sim.run_trials on k = 128..4096, c = 3, delta = w, whole-codeword
    sampling. One unit is one run_trials call per k, equal trials each."""

    name = "sim_grid"
    harness = "sim"

    def __init__(self, seed):
        self.seed = seed
        self.specs = [["gc_params", k, (k - 1).bit_length(), SIM_C] for k in SIM_KS]

    def unit(self, i, tally, tr):
        ops = 0
        scaled_s = 0.0
        for k in SIM_KS:
            cfg = gc.SimConfig(k_list=(k,), c=SIM_C, trials=SIM_TRIALS_PER_K,
                               delta_frac=1.0, master_seed=f"{self.seed}/{i}")
            t0 = perf_counter()
            row = gc.run_trials(cfg, workers=1).rows[0]
            dt = perf_counter() - t0
            scaled = dt * tally.speed.factor()
            if row.miscorrections:
                raise OutputMismatch(
                    f"run_trials k={k} master_seed={cfg.master_seed}: "
                    f"{row.miscorrections} wrong messages", row.miscorrections)
            ops += row.trials
            scaled_s += scaled
            tally.undecoded += row.failures
            tally.op_ms.append(scaled / row.trials * 1e3)
            if tr is not None:
                failures = self._mirror(cfg, k, tally, tr, dt)
                if failures != row.failures:
                    raise OutputMismatch(
                        f"k={k} master_seed={cfg.master_seed}: run_trials counted "
                        f"{row.failures} failures, the traced loop {failures}")
        tally.ops += ops
        tally.rates.append(ops / scaled_s)

    def _mirror(self, cfg, k, tally, tr, untraced_s):
        """Trial loop of sim.run_trials for one k, with the harness's
        per-trial seeds, one span per call into the package."""
        failures = 0
        with tally.mirror(tr, untraced_s):
            p = tr.call("single_window.params", gc.gc_params, k, (k - 1).bit_length(), SIM_C)
            delta = p.w  # delta_frac = 1.0 resolves to w
            for t in range(cfg.trials):
                root = tr.begin("bench.trial")
                u = _msg(f"{cfg.master_seed}/{k}/{t}/msg", k)
                rng = random.Random(f"{cfg.master_seed}/{k}/{t}/pattern")
                x = tr.call("single_window.encode", gc.encode, u, p, parent=root, op=root)
                pat = tr.call("channel.sample", gc.sample_pattern, p, delta, rng,
                              cfg.sampling_mode, parent=root, op=root)
                y = tr.call("channel.delete", gc.delete_localized, x, pat,
                            parent=root, op=root)
                status = _traced_decode(tr, y, p, u, root, root,
                                        f"sim_grid k={k} trial {cfg.master_seed}/{t}")
                failures += status != gc.SUCCESS
                tr.end(root)
        return failures


class MultiZ2:
    """encode_multi -> sample_pattern -> delete_localized -> decode_multi per
    word at k = 64, w = 4, c = 8, z = 2, each window's delta uniform in 0..w,
    patterns taken exactly as sample_pattern yields them. One unit is a
    batch of MULTI_BATCH words."""

    name = "multi_z2"
    harness = None

    def __init__(self, seed):
        self.seed = seed
        self.specs = [["multi_params", MULTI_K, MULTI_W, MULTI_C, MULTI_Z]]
        self.mp = gc.multi_params(MULTI_K, MULTI_W, MULTI_C, MULTI_Z)
        self._cases = {}

    def _words(self, i):
        words = []
        for j in range(i * MULTI_BATCH, (i + 1) * MULTI_BATCH):
            rng = random.Random(f"{self.seed}/multi_z2/{j}")
            u = format(rng.getrandbits(MULTI_K), f"0{MULTI_K}b")
            deltas = (rng.randrange(MULTI_W + 1), rng.randrange(MULTI_W + 1))
            words.append((j, u, deltas, rng))
        return words

    def unit(self, i, tally, tr):
        mp = self.mp
        words = self._words(i)
        statuses = []
        op_ms = []
        t_start = perf_counter()
        for j, u, deltas, rng in words:
            x = gc.encode_multi(u, mp)
            pat = gc.sample_pattern(mp, deltas, rng, "whole-codeword")
            y = gc.delete_localized(x, pat)
            t0 = perf_counter()
            res = gc.decode_multi(y, mp)
            op_ms.append((perf_counter() - t0) * 1e3)
            statuses.append(_check(res, u, f"multi_z2 word {self.seed}/{j}"))
        wall = perf_counter() - t_start
        f = tally.speed.factor()
        tally.ops += len(statuses)
        tally.undecoded += sum(s != gc.SUCCESS for s in statuses)
        tally.op_ms.extend(ms * f for ms in op_ms)
        tally.rates.append(len(statuses) / (wall * f))
        if tr is not None and self._mirror(i, tally, tr, wall) != statuses:
            raise OutputMismatch(f"multi_z2 batch {i}: traced replay decoded differently")

    def _case_count(self, delta):
        if delta not in self._cases:
            self._cases[delta] = sum(1 for _ in gc.enumerate_cases(self.mp, delta))
        return self._cases[delta]

    def _mirror(self, i, tally, tr, untraced_s):
        mp = self.mp
        words = self._words(i)
        statuses = []
        with tally.mirror(tr, untraced_s):
            for j, u, deltas, rng in words:
                root = tr.begin("bench.word")
                x = tr.call("multi_window.encode", gc.encode_multi, u, mp,
                            parent=root, op=root)
                pat = tr.call("channel.sample", gc.sample_pattern, mp, deltas, rng,
                              "whole-codeword", parent=root, op=root)
                y = tr.call("channel.delete", gc.delete_localized, x, pat,
                            parent=root, op=root)
                res = tr.call("multi_window.decode", gc.decode_multi, y, mp,
                              parent=root, op=root)
                tr.end(root)
                tr.count("multi_window.decodes")
                tr.count("multi_window.cases", self._case_count(mp.n - len(y)))
                if res.status == gc.INVALID_INPUT:
                    tr.count("multi_window.invalid")
                statuses.append(_check(res, u, f"multi_z2 traced word {self.seed}/{j}"))
        return statuses


def _pattern(start, offsets):
    return gc.DeletionPattern(windows=(gc.Window(start=start, offsets=offsets),))


class Exhaustive:
    """analysis.exhaustive_oracle at k = 64, w = 6, c = 3, every delta in
    0..w. One unit is a round of EXH_BLOCKS calls that together cover every
    window start once: call j sweeps the j-th contiguous block of starts
    for a message of its own. Failures per message are heavy-tailed, so
    more messages per run make the failure share steadier. Each call
    encodes once, then decodes that codeword 6 * 2^w times."""

    name = "exhaustive_k64"
    harness = "analysis"

    def __init__(self, seed):
        self.seed = seed
        self.specs = [["gc_params", EXH_K, EXH_W, EXH_C]]
        self.p = gc.gc_params(EXH_K, EXH_W, EXH_C)
        starts = range(1, self.p.n - self.p.w + 2)
        per = -(-len(starts) // EXH_BLOCKS)
        self.blocks = [starts[j:j + per] for j in range(0, len(starts), per)]

    def unit(self, i, tally, tr):
        reps = []
        scaled_s = 0.0
        for j, starts in enumerate(self.blocks):
            msg = i * len(self.blocks) + j
            u = _msg(f"{self.seed}/exhaustive_k64/{msg}", EXH_K)
            t0 = perf_counter()
            try:
                rep = gc.exhaustive_oracle(self.p, u, window_starts=starts)
            except gc.MiscorrectionError as exc:
                raise OutputMismatch(f"exhaustive_k64 message {msg}: {exc}") from exc
            dt = perf_counter() - t0
            expected = len(starts) << self.p.w
            if rep.trials != expected:
                raise OutputMismatch(f"exhaustive_k64 message {msg}: {rep.trials} "
                                     f"decodes, expected {expected}")
            scaled = dt * tally.speed.factor()
            reps.append(rep)
            scaled_s += scaled
            tally.op_ms.append(scaled / rep.trials * 1e3)
            if tr is not None:
                failures = self._mirror(msg, u, starts, tally, tr, dt)
                if failures != rep.failures:
                    raise OutputMismatch(
                        f"exhaustive_k64 message {msg}: exhaustive_oracle counted "
                        f"{rep.failures} failures, the traced loop {failures}")
        ops = sum(rep.trials for rep in reps)
        tally.ops += ops
        tally.undecoded += sum(rep.failures for rep in reps)
        tally.rates.append(ops / scaled_s)

    def _mirror(self, msg, u, starts, tally, tr, untraced_s):
        """The oracle's sweep, one span per call; op ids number the patterns."""
        p = self.p
        patterns = [(start, offsets) for start in starts for d in range(p.w + 1)
                    for offsets in combinations(range(p.w), d)]
        failures = 0
        with tally.mirror(tr, untraced_s):
            root = tr.begin("bench.message", op=msg)
            x = tr.call("single_window.encode", gc.encode, u, p, parent=root, op=msg)
            for op, (start, offsets) in enumerate(patterns):
                pat = tr.call("channel.pattern_build", _pattern, start, offsets,
                              parent=root, op=op)
                y = tr.call("channel.delete", gc.delete_localized, x, pat, p.w, 1,
                            parent=root, op=op)
                status = _traced_decode(tr, y, p, u, root, op,
                                        f"exhaustive_k64 message {msg} start {start}")
                if status == gc.INVALID_INPUT:
                    raise OutputMismatch(
                        f"exhaustive_k64 message {msg}: compliant pattern at "
                        f"{start}:{offsets} decoded as invalid input")
                failures += status == gc.FAILURE
            tr.end(root)
        return failures


WORKLOADS = {w.name: w for w in (SimGrid, MultiZ2, Exhaustive)}

TIMED_SPANS = (
    "gf2e.field_build", "mds.generator_build", "single_window.params",
    "multi_window.params", "single_window.encode", "single_window.decode_guess",
    "single_window.decode_parity", "multi_window.encode", "multi_window.decode",
    "channel.sample", "channel.pattern_build", "channel.delete",
)
CODE_LAYERS = ("gf2e", "mds", "single_window", "multi_window", "channel")


def layer_metrics(wl, tr, tally, traced_s):
    """Per-layer metrics from the spans and counts of a traced run.

    traced_s is the wall time of the traced set-up plus every mirror; each
    layer's busy share is its span time over it. A harness's self share is
    the part of its untraced wall time that the layer spans of its mirror
    do not account for.
    """
    totals = tr.totals()

    def agg(prefix):
        calls = busy = 0
        for name, (c, b) in totals.items():
            if name == prefix or name.startswith(prefix + "."):
                calls += c
                busy += b
        return calls, busy

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for base in TIMED_SPANS:
        calls, busy = agg(base)
        m[f"{base}_us"] = ratio(busy, calls) / 1e3
        m[f"{base}.calls"] = calls
        m[f"{base}.busy_s"] = busy / 1e9
    for k in SIM_KS:
        calls, busy = agg(f"single_window.decode_guess.k{k}")
        m[f"single_window.decode_guess_us.k{k}"] = ratio(busy, calls) / 1e3
    counts = tr.counts
    guesses = counts["single_window.guesses"]
    cases = counts["multi_window.cases"]
    m["single_window.guesses_per_decode"] = ratio(guesses, counts["single_window.decodes"])
    m["single_window.us_per_guess"] = ratio(agg("single_window.decode_guess")[1], guesses) / 1e3
    m["single_window.invalid_share"] = ratio(counts["single_window.invalid"],
                                             counts["single_window.decodes"])
    m["multi_window.cases_per_decode"] = ratio(cases, counts["multi_window.decodes"])
    m["multi_window.us_per_case"] = ratio(agg("multi_window.decode")[1], cases) / 1e3
    m["multi_window.decode_us_p99"] = percentile(tr.durations_ns("multi_window.decode"), 99) / 1e3
    m["multi_window.invalid_share"] = ratio(counts["multi_window.invalid"],
                                            counts["multi_window.decodes"])
    for layer in CODE_LAYERS:
        m[f"{layer}.busy_share"] = ratio(agg(layer)[1] / 1e9, traced_s)
    harness_self = 1.0 - ratio(tally.mirror_busy_ns / 1e9, tally.untraced_s)
    for harness in ("sim", "analysis"):
        m[f"{harness}.self_share"] = harness_self if wl.harness == harness else 0.0
    m["trace.overhead_share"] = ratio(tally.mirror_s, tally.untraced_s) - 1.0
    return m
