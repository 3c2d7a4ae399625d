"""Acceptance suite: ten end-to-end checks, one printed verdict line each.

Run with -s to see the PASS/FAIL lines. The Monte Carlo criteria (5-7, 9)
take a few minutes at full load; set GC_ACCEPT_SMOKE=1 to shrink them to a
quick smoke pass with the correspondingly looser tolerances noted inline.
"""

import math
import os
import random
import time
from itertools import combinations

from gccodes.analysis import bound_multi, bound_single, exhaustive_oracle
from gccodes.channel import delete_localized, sample_pattern
from gccodes.codec import (
    FAILURE,
    SUCCESS,
    decode,
    decode_multi,
    encode,
    encode_multi,
    evaluate_guess,
    gc_params,
    multi_params,
)
from gccodes.gf2e import FieldContext
from gccodes.mds import make_generator
from gccodes.multi_window import repetition_decode, repetition_encode
from gccodes.sim import SimConfig, run_trials

SMOKE = os.environ.get("GC_ACCEPT_SMOKE") == "1"

U = "1100101001111000"
CODEWORD = "1100101001111000" + "00001" + "100110000001"
RECEIVED = "110010011100000001100110000001"

K_GRID = (128, 256, 512, 1024, 2048, 4096)
RATES_C3 = ("0.82", "0.89", "0.93", "0.96", "0.98", "0.99")
RATES_C4 = ("0.78", "0.86", "0.92", "0.95", "0.97", "0.99")
BOUNDS_C4 = ("1.4e-01", "1.3e-01", "1.1e-01", "1.0e-01", "9.1e-02", "8.3e-02")
TARGET_C3 = (4.19e-2, 4.11e-2, 3.96e-2)


def report(num, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num:02d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def best_of(fn, reps=20):
    """Warmed minimum wall time of fn over reps calls, in seconds."""
    fn(), fn(), fn()
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def sig2_half_up(x):
    """Two significant figures, ties away from zero, as the tables round."""
    if x == 0:
        return "0.0e+00"
    e = math.floor(math.log10(abs(x)))
    scaled = x / 10 ** (e - 1)
    r = math.floor(scaled + 0.5)
    if r >= 100:
        r //= 10
        e += 1
    return f"{r / 10:.1f}e{e:+03d}"


def binom_upper_tail(f, n, p):
    """P(X >= f) for X ~ Binomial(n, p), via log pmf to dodge overflow."""
    if f <= 0:
        return 1.0
    if p <= 0.0:
        return 0.0
    lp, lq = math.log(p), math.log1p(-p)
    total = 0.0
    for i in range(f, n + 1):
        lpmf = (math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                + i * lp + (n - i) * lq)
        total += math.exp(lpmf)
    return min(total, 1.0)


def test_criterion_01_golden_encoding():
    p = gc_params(16, 4, 3, kind="vandermonde")
    x = encode(U, p)
    t = best_of(lambda: encode(U, p))
    ok = x == CODEWORD and t < 1e-3
    report(1, ok, f"encode golden, bit-exact, {t * 1e6:.0f}us")


def test_criterion_02_golden_decoding():
    p = gc_params(16, 4, 3, kind="vandermonde")
    res = decode(RECEIVED, p)
    delta = p.n - len(RECEIVED)
    s = RECEIVED[: len(RECEIVED) - p.c * p.ell - (p.w + 1)]
    from gccodes.gf2e import bits_to_symbols
    parities = bits_to_symbols(RECEIVED[len(RECEIVED) - p.c * p.ell:], p.ctx)
    g1 = evaluate_guess(s, 1, parities, p)
    g3 = evaluate_guess(s, 3, parities, p)
    ok = (
        res.status == SUCCESS and res.message == U and res.guess == 2
        and delta == 3
        and not g1.parities_ok and not g1.supersequence_ok
        and not g3.parities_ok and g3.supersequence_ok
    )
    t = best_of(lambda: decode(RECEIVED, p))
    ok = ok and t < 1e-3
    report(2, ok, f"decode golden via guess 2, verdicts match, {t * 1e6:.0f}us")


def test_criterion_03_rate_table():
    got3 = tuple(f"{bound_single(k, (k - 1).bit_length(), 3).rate:.2f}" for k in K_GRID)
    got4 = tuple(f"{bound_single(k, (k - 1).bit_length(), 4).rate:.2f}" for k in K_GRID)
    ok = got3 == RATES_C3 and got4 == RATES_C4
    report(3, ok, f"rate_2dp c=3 {got3}, c=4 {got4}")


def test_criterion_04_bound_column():
    got = tuple(
        sig2_half_up(bound_single(k, (k - 1).bit_length(), 4).failure_bound)
        for k in K_GRID
    )
    ok = got == BOUNDS_C4
    report(4, ok, f"bound column {got}")


def test_criterion_05_monte_carlo_c3():
    trials, factor = (10_000, 3.0) if SMOKE else (100_000, 2.0)
    cfg = SimConfig(k_list=(128, 256, 512), c=3, trials=trials,
                    delta_frac=1.0, master_seed=1)
    rep = run_trials(cfg)
    ratios = []
    ok = True
    for row, target in zip(rep.rows, TARGET_C3):
        ratios.append(row.pr_failure / target)
        ok = ok and target / factor <= row.pr_failure <= target * factor
        ok = ok and row.miscorrections == 0
    detail = (f"c=3 delta=w {trials} trials, Pr(F) "
              + "/".join(f"{r.pr_failure:.4g}" for r in rep.rows)
              + " vs targets, factors "
              + "/".join(f"{r:.2f}" for r in ratios))
    report(5, ok, detail)


def test_criterion_06_monte_carlo_c4_c5():
    t4, t5 = (10_000, 1_000) if SMOKE else (100_000, 10_000)
    rep4 = run_trials(SimConfig(k_list=(128, 256), c=4, trials=t4,
                                delta_frac=1.0, master_seed=1))
    rep5 = run_trials(SimConfig(k_list=(128, 256, 512, 1024), c=5, trials=t5,
                                delta_frac=1.0, master_seed=1))
    ok = all(r.pr_failure <= 1e-3 and r.miscorrections == 0 for r in rep4.rows)
    ok = ok and all(r.failures == 0 and r.miscorrections == 0 for r in rep5.rows)
    detail = (f"c=4 Pr(F) " + "/".join(f"{r.pr_failure:.2g}" for r in rep4.rows)
              + f" <= 1e-3 over {t4} trials; c=5 zero failures over {t5}")
    report(6, ok, detail)


def test_criterion_07_zero_miscorrection():
    n_msgs = 20 if SMOKE else 100
    p = gc_params(16, 4, 3)
    rng = random.Random("acceptance-7")
    trials = 0
    for _ in range(n_msgs):
        u = format(rng.getrandbits(16), "016b")
        rep = exhaustive_oracle(p, u)  # raises on any wrong-message outcome
        trials += rep.trials
    report(7, True, f"exhaustive sweep, {n_msgs} messages x {trials // n_msgs} "
                    f"patterns, zero miscorrections")


def test_criterion_08_repetition_recovery():
    checked = 0
    for m_bits in range(1, 7):
        for r in range(1, 6):
            msgs = {format(random.Random(f"{m_bits}/{r}").getrandbits(m_bits), f"0{m_bits}b"),
                    "0" * m_bits, "1" * m_bits}
            for u in msgs:
                block = repetition_encode(u, r)
                for d in range(r):
                    for drop in combinations(range(len(block)), d):
                        kept = [ch for i, ch in enumerate(block) if i not in set(drop)]
                        assert repetition_decode("".join(kept), m_bits, r, d) == u
                        checked += 1
    report(8, True, f"repetition readout exact over {checked} deletion patterns")


def pair_feasible(pat, p):
    """True when ascending disjoint block pairs can cover every window."""
    prev = -1
    for win in pat.windows:
        first = (win.start - 1) // p.ell + 1
        last = (win.start + p.w - 2) // p.ell + 1
        if last - first >= 2 or last > p.m:
            return False
        cands = [first] if last > first else [
            c for c in (first - 1, first) if 1 <= c]
        cands = [c for c in cands if c >= prev + 2 and c <= p.m - 1]
        if not cands:
            return False
        prev = min(cands)
    return True


def test_criterion_09_multi_window_randomized():
    trials = 250 if SMOKE else 1000
    details = []
    ok = True
    for k in (32, 64):
        mp = multi_params(k, 4, 8, 2)  # c = 4z, and c > 3z so the bound applies
        rng = random.Random(f"acceptance-9/{k}")
        succ = fail = 0
        for _ in range(trials):
            u = format(rng.getrandbits(k), f"0{k}b")
            x = encode_multi(u, mp)
            while True:
                pat = sample_pattern(mp, (rng.randrange(5), rng.randrange(5)),
                                     rng, mode="systematic-only")
                if pair_feasible(pat, mp):
                    break
            res = decode_multi(delete_localized(x, pat, w=mp.w, z=mp.z), mp)
            if res.status == SUCCESS:
                ok = ok and res.message == u
                succ += 1
            elif res.status == FAILURE:
                fail += 1
            else:
                ok = False
        bound = bound_multi(k, 4, 8, 2).failure_bound
        # consistent with Pr(F) <= bound unless the data reject it at 99%
        ok = ok and succ / trials >= 0.99
        ok = ok and binom_upper_tail(fail, trials, bound) > 0.01
        details.append(f"k={k} {succ}/{trials} success, {fail} failures")
    report(9, ok, "; ".join(details))


def test_criterion_10_cauchy_mds():
    def det(matrix, ctx):
        a = [row[:] for row in matrix]
        n = len(a)
        d = 1
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col]), None)
            if pivot is None:
                return 0
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
            d = ctx.mul(d, a[col][col])
            inv = ctx.inv(a[col][col])
            for r in range(col + 1, n):
                if a[r][col]:
                    f = ctx.mul(a[r][col], inv)
                    for cc in range(col, n):
                        a[r][cc] ^= ctx.mul(f, a[col][cc])
        return d

    checked = 0
    for ell in (4, 5, 8):
        ctx = FieldContext(ell)
        for m in range(1, 7):
            for c in range(1, 7):
                if m + c > (1 << ell):
                    continue
                gen = make_generator(m, c, ctx, "cauchy")
                for size in range(1, min(m, c) + 1):
                    for rows in combinations(range(m), size):
                        for cols in combinations(range(c), size):
                            sub = [[gen.rows[r][cc] for cc in cols] for r in rows]
                            assert det(sub, ctx) != 0, (ell, m, c, rows, cols)
                            checked += 1
    report(10, True, f"cauchy submatrices nonsingular, {checked} dets over "
                     f"ell in (4, 5, 8)")
