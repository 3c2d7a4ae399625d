"""Monte Carlo harness: determinism, counting, CSV shape."""

import multiprocessing
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gccodes

from gccodes import cli, sim
from gccodes.sim import SimConfig, report_to_csv, resolve_delta, run_trials
from gccodes.codec import InvalidConfigError, gc_params


def small_cfg(**kw):
    base = dict(k_list=(64,), c=3, trials=300, delta_frac=1.0, master_seed=7)
    base.update(kw)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(k_list=(64,), c=3, trials=10)                  # no delta at all
    with pytest.raises(ValueError):
        SimConfig(k_list=(64,), c=3, trials=10, delta=1, delta_frac=0.5)
    with pytest.raises(ValueError):
        SimConfig(k_list=(), c=3, trials=10, delta=1)
    with pytest.raises(ValueError):
        SimConfig(k_list=(64,), c=3, trials=0, delta=1)


def test_fraction_rounding_half_up():
    assert resolve_delta(small_cfg(delta_frac=0.5), 7) == 4
    assert resolve_delta(small_cfg(delta_frac=0.75), 7) == 5
    assert resolve_delta(small_cfg(delta_frac=0.5), 8) == 4
    assert resolve_delta(small_cfg(delta=3, delta_frac=None), 8) == 3


def test_deterministic_across_runs_and_workers():
    cfg = small_cfg()
    csv1 = report_to_csv(run_trials(cfg))
    csv2 = report_to_csv(run_trials(cfg))
    csv3 = report_to_csv(run_trials(cfg, workers=2))
    assert csv1 == csv2 == csv3


def test_progress_lines_do_not_depend_on_workers(capsys):
    cfg = small_cfg(k_list=(32, 64), trials=40)
    lines = []
    for workers in (1, 2):
        run_trials(cfg, workers=workers, progress=True)
        lines.append(capsys.readouterr().err.splitlines())
    assert lines[0] == lines[1]
    assert lines[0][:2] == ["k=32: 5/40 trials", "k=32: 10/40 trials"]
    assert len(lines[0]) == 2 * (8 + 1)         # 8 blocks and a summary per k


def test_import_leaves_multiprocessing_out():
    # the worker pool is imported only by a run with workers > 1, so
    # importing the package (and building params) does not pay for it
    root = str(Path(gccodes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, gccodes, gccodes.sim; "
            "gccodes.sim._make_params(64, 3, 1, 'cauchy'); "
            "print(gccodes.__file__); print('multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout.split()
    assert out == [gccodes.__file__, "False"]


def test_params_built_once_across_calls(monkeypatch):
    sim._make_params.cache_clear()
    built = []

    def counting_gc_params(*args):
        built.append(args)
        return gc_params(*args)

    monkeypatch.setattr(sim, "gc_params", counting_gc_params)
    cfg = small_cfg(trials=100)
    first = report_to_csv(run_trials(cfg))
    assert report_to_csv(run_trials(cfg)) == first
    assert built == [(64, 6, 3, "cauchy")]


def test_seed_changes_results():
    r1 = run_trials(small_cfg(trials=2000)).rows[0]
    r2 = run_trials(small_cfg(trials=2000, master_seed=8)).rows[0]
    assert (r1.failures, r2.failures) != (0, 0)
    assert r1.failures != r2.failures


def test_no_deletions_no_failures():
    rows = run_trials(small_cfg(delta=0, delta_frac=None)).rows
    assert rows[0].failures == 0 and rows[0].miscorrections == 0


def test_row_fields_and_zero_miscorrection():
    row = run_trials(small_cfg()).rows[0]
    assert (row.k, row.w, row.ell, row.c, row.z) == (64, 6, 6, 3, 1)
    assert row.delta == 6
    assert row.trials == 300
    assert row.miscorrections == 0
    assert row.pr_failure == row.failures / row.trials
    assert 0 < row.rate < 1 and row.bound == 1.0


def test_csv_golden_row():
    cfg = SimConfig(k_list=(128,), c=3, trials=10_000, delta_frac=1.0,
                    master_seed=42)
    text = report_to_csv(run_trials(cfg))
    lines = text.strip().split("\n")
    assert lines[0] == "k,w,ell,c,z,delta,trials,failures,pr_failure,rate,bound,rate_2dp"
    assert lines[1] == "128,7,7,3,1,7,10000,563,0.0563,0.815287,1,0.82"


def _reference_rows(cfg):
    """The per-trial loop run_trials stood for before it was staged:
    draw, encode, cut and decode one trial after another, through the
    public calls only."""
    rows = []
    for k in cfg.k_list:
        p = (gccodes.gc_params(k, (k - 1).bit_length(), cfg.c, cfg.kind) if cfg.z == 1
             else gccodes.multi_params(k, (k - 1).bit_length(), cfg.c, cfg.z, cfg.kind))
        delta = resolve_delta(cfg, p.w)
        failures = miscorrections = 0
        for t in range(cfg.trials):
            u = format(random.Random(f"{cfg.master_seed}/{k}/{t}/msg").getrandbits(k), f"0{k}b")
            pat = gccodes.sample_pattern(p, delta, random.Random(f"{cfg.master_seed}/{k}/{t}/pattern"),
                                         cfg.sampling_mode)
            res = gccodes.decode(gccodes.delete_localized(gccodes.encode(u, p), pat), p)
            if res.status != gccodes.SUCCESS:
                failures += 1
            elif res.message != u:
                miscorrections += 1
        rows.append((k, p.w, delta, failures, miscorrections))
    return rows


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", ["whole-codeword", "systematic-only"])
@pytest.mark.parametrize("z, kw", [
    (1, dict(k_list=(64, 128), c=3)),
    (2, dict(k_list=(32,), c=8)),
], ids=["z1", "z2"])
def test_staged_loop_matches_the_per_trial_loop(z, kw, mode, workers):
    # 9 stages and 5 trials: every block (trials/8) holds a full stage and
    # a part of one, whatever the worker count
    cfg = SimConfig(trials=9 * sim._STAGE + 5, z=z, delta_frac=1.0, master_seed=11,
                    sampling_mode=mode, **kw)
    assert max(t1 - t0 for _, _, t0, t1 in sim._split_blocks(kw["k_list"][0], cfg, workers)) \
        > sim._STAGE
    rows = run_trials(cfg, workers=workers).rows
    assert [(r.k, r.w, r.delta, r.failures, r.miscorrections) for r in rows] == \
        _reference_rows(cfg)
    assert sum(r.failures for r in rows) > 0


def test_each_decode_is_paired_with_its_own_trial(monkeypatch):
    # every third decode returns a wrong message: a decode checked against
    # another trial's message would count a miscorrection on every trial
    real, flips = sim.decode, []

    def flipping(y, p):
        res = real(y, p)
        flips.append(len(flips) % 3 == 2 and res.status == gccodes.SUCCESS)
        if flips[-1]:
            flipped = ("1" if res.message[0] == "0" else "0") + res.message[1:]
            return gccodes.DecodeResult(gccodes.SUCCESS, message=flipped, guess=res.guess)
        return res

    # 8 blocks, each of two full stages and 3 trials more
    cfg = small_cfg(trials=8 * (2 * sim._STAGE + 3))
    honest = run_trials(cfg).rows[0]
    monkeypatch.setattr(sim, "decode", flipping)
    row = run_trials(cfg, workers=1).rows[0]
    assert len(flips) == cfg.trials                 # one sim.decode call per trial
    assert row.miscorrections == sum(flips) > 0
    assert row.failures == honest.failures > 0


def test_stage_bounds_the_words_held(monkeypatch):
    # words encoded but not yet decoded never number more than _STAGE
    real_encode, real_decode = sim.encode, sim.decode
    held, peak, decoded = [0], [0], [0]

    def encode(u, p):
        held[0] += 1
        peak[0] = max(peak[0], held[0])
        return real_encode(u, p)

    def decode(y, p):
        held[0] -= 1
        decoded[0] += 1
        return real_decode(y, p)

    monkeypatch.setattr(sim, "encode", encode)
    monkeypatch.setattr(sim, "decode", decode)
    run_trials(small_cfg(trials=1000), workers=1)   # blocks of 125 trials
    assert decoded[0] == 1000 and held[0] == 0
    assert 1 < peak[0] <= sim._STAGE


def test_csv_empty_report():
    from gccodes.sim import TrialReport
    assert report_to_csv(TrialReport(rows=())) == \
        "k,w,ell,c,z,delta,trials,failures,pr_failure,rate,bound,rate_2dp\n"


def test_multi_window_rows():
    cfg = SimConfig(k_list=(32,), c=8, z=2, trials=150, delta_frac=1.0,
                    master_seed=3, sampling_mode="systematic-only")
    row = run_trials(cfg).rows[0]
    assert row.z == 2 and row.delta == 5
    assert row.miscorrections == 0
    assert report_to_csv(run_trials(cfg)) == report_to_csv(run_trials(cfg))


def test_workers_outside_one_to_cpu_count_refused(monkeypatch, capsys):
    # no process is started: the pool refuses any request
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was requested")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    cpus = os.cpu_count() or 1
    for workers in (0, -1, cpus + 1):
        with pytest.raises(InvalidConfigError,
                           match=re.escape(f"workers={workers} must be in 1..{cpus}, the CPU count")):
            run_trials(small_cfg(trials=1), workers=workers)
    # a float would fail inside the pool, a str on <, and True run as 1
    for workers in (2.5, "2", True):
        with pytest.raises(InvalidConfigError,
                           match=f"^workers={re.escape(repr(workers))} is not an int$"):
            run_trials(small_cfg(trials=1), workers=workers)
    for workers in (0, -1, cpus + 1):
        code = cli.main(["simulate", "--k-list", "64", "--c", "3", "--delta", "1",
                         "--trials", "1", "--workers", str(workers)])
        out, err = capsys.readouterr()
        assert code == 1 and out == "", workers
        assert err == f"gccodes: error: --workers {workers} must be in 1..{cpus}, the CPU count\n"


def test_workers_past_the_cpu_count_refused_before_any_block(monkeypatch):
    # run_trials bounds workers by the CPU count itself, not only the cli:
    # with two CPUs, three workers are refused before any block is split
    # or any pool is started
    def refused(*args, **kwargs):
        raise AssertionError("a block was split or a pool requested")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", refused)
    monkeypatch.setattr(sim, "_split_blocks", refused)
    with pytest.raises(InvalidConfigError, match=r"^workers=3 must be in 1\.\.2, the CPU count$"):
        run_trials(small_cfg(trials=1), workers=3)


@pytest.mark.parametrize("kw, error", [
    (dict(k_list=(64, 12), c=5, z=2), "3 blocks cannot host 2 disjoint block pairs"),
    (dict(k_list=(64,), c=3, kind="foo"), "unknown generator kind 'foo'"),
    (dict(k_list=(3,), c=3), "k=3 must be at least 4"),
    (dict(k_list=(64,), c=2), "c=2 must be at least 3"),
], ids=["z2-k12", "kind", "k3", "c2"])
def test_unbuildable_code_refused_before_any_trial(monkeypatch, kw, error):
    # SimConfig builds every k's code, so a k that has none is refused
    # before any trial of an earlier k runs
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(sim, "_run_block", no_trial)
    with pytest.raises(ValueError, match=f"^{error}$"):
        SimConfig(trials=3, delta=1, **kw)


@pytest.mark.parametrize("kw, error", [
    (dict(trials=True), "trials=True is not an int"),
    (dict(trials=2.5), "trials=2.5 is not an int"),
    (dict(delta=True), "delta=True is not an int"),
    (dict(delta=1.0), "delta=1.0 is not an int"),
    (dict(sampling_mode="bogus"), "unknown sampling mode 'bogus'"),
    (dict(k_list=(64, 64.0)), "k=64.0 is not an int"),
    (dict(c=3.0), "c=3.0 is not an int"),
    (dict(z=True), "z=True is not an int"),
    (dict(delta=None, delta_frac="0.5"), "delta_frac='0.5' is not a number"),
    (dict(delta=None, delta_frac=True), "delta_frac=True is not a number"),
], ids=["trials-bool", "trials-float", "delta-bool", "delta-float", "mode", "k-float",
        "c-float", "z-bool", "delta-frac-str", "delta-frac-bool"])
def test_values_that_would_fail_later_refused_before_any_trial(monkeypatch, kw, error):
    # each would run (trials=True as one trial, z=True as the z = 1 code,
    # c=3.0 off the cache entry of c=3, delta_frac=True as 1.0) or fail
    # later (delta_frac='0.5' with a bare TypeError)
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(sim, "_run_block", no_trial)
    SimConfig(k_list=(64,), c=3, trials=3, delta=1)     # puts c=3 in the params cache
    with pytest.raises(InvalidConfigError, match=f"^{re.escape(error)}$"):
        SimConfig(**{**dict(k_list=(64,), c=3, trials=3, delta=1), **kw})


def test_delta_refused_before_any_trial(monkeypatch, tmp_path, capsys):
    # a delta_frac outside [0, 1] (NaN included), or a delta some k of
    # k_list cannot take, is refused by SimConfig before any k runs; the
    # CLI exits 1 and writes no CSV
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(sim, "_run_block", no_trial)
    for frac in (1.1, -0.25, float("nan")):
        with pytest.raises(InvalidConfigError, match=rf"^delta_frac={frac} outside \[0, 1\]$"):
            SimConfig(k_list=(16,), c=3, trials=5, delta_frac=frac)
    # delta = 5 fits k = 4096 (w = 12), not k = 16 (w = 4)
    with pytest.raises(InvalidConfigError, match=r"^delta=5 outside \[0, 4\]$"):
        SimConfig(k_list=(4096, 16), c=3, trials=5, delta=5)
    assert SimConfig(k_list=(16, 4096), c=3, trials=5, delta_frac=1.0).delta_frac == 1.0
    out_csv = tmp_path / "res.csv"
    for flag, err_line in ((["--delta-frac", "1.1"], "delta_frac=1.1 outside [0, 1]"),
                           (["--delta", "5"], "delta=5 outside [0, 4]")):
        code = cli.main(["simulate", "--k-list", "4096,16", "--c", "3", *flag,
                         "--trials", "5", "--out", str(out_csv)])
        out, err = capsys.readouterr()
        assert code == 1 and out == "" and err == f"gccodes: error: {err_line}\n"
        assert not out_csv.exists()
