"""Monte Carlo harness: determinism, counting, CSV shape."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gccodes

from gccodes import cli, sim
from gccodes.sim import SimConfig, report_to_csv, resolve_delta, run_trials
from gccodes.single_window import InvalidConfigError, gc_params


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
    for workers in (0, -1):
        with pytest.raises(InvalidConfigError, match=f"workers={workers} must be at least 1"):
            run_trials(small_cfg(trials=1), workers=workers)
    cpus = os.cpu_count() or 1
    for workers in (0, -1, cpus + 1):
        code = cli.main(["simulate", "--k-list", "64", "--c", "3", "--delta", "1",
                         "--trials", "1", "--workers", str(workers)])
        out, err = capsys.readouterr()
        assert code == 1 and out == "", workers
        assert err == f"gccodes: error: --workers {workers} must be in 1..{cpus}, the CPU count\n"
