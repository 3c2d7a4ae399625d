"""Tests of the benchmark itself, run at tiny sizes:

    python3 -m pytest -q bench/tests

Every workload prints every metric BENCHMARK.json declares, with its unit,
and the output checks abort a run whose decoder or harness misbehaves.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_gccodes()

import gccodes  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "SIM_TRIALS_PER_K", 3)
    monkeypatch.setattr(workloads, "MULTI_BATCH", 4)
    monkeypatch.setattr(workloads, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    monkeypatch.setattr(run, "OUT", tmp_path)


def bench(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.001",
                     "--trace", str(trace)])
    out = capsys.readouterr()
    lines = out.out.strip().splitlines()
    return code, lines, json.loads(lines[-1]), out.err


def test_workloads_match_the_declared_ones():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(capsys, workload, trace):
    code, lines, result, _ = bench(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
                   for line in lines[:-1]), m["name"]
    assert lines[0].startswith("provenance ")
    prov = json.loads(lines[0].split(" ", 1)[1])
    assert Path(prov["gccodes_file"]).is_relative_to(ROOT / "src")
    assert {"commit", "python", "nproc", "cpu"} <= set(prov)


def test_traced_multi_z2_reports_invalid_input(capsys, monkeypatch):
    monkeypatch.setattr(workloads, "MULTI_BATCH", 40)
    code, _, result, _ = bench(capsys, "multi_z2", 1)
    assert code == 0
    share = result["metrics"]["multi_window.invalid_share"]["value"]
    assert 0 < share < 1


def _wrong_message(real):
    def decode(y, p):
        res = real(y, p)
        if res.status == gccodes.SUCCESS:
            flipped = ("1" if res.message[0] == "0" else "0") + res.message[1:]
            return dataclasses.replace(res, message=flipped)
        return res
    return decode


@pytest.mark.parametrize("workload, module, attr", [
    ("sim_grid", gccodes.sim, "decode"),
    ("multi_z2", gccodes, "decode_multi"),
    ("exhaustive_k64", gccodes.analysis, "decode"),
])
def test_wrong_message_aborts_the_run(capsys, monkeypatch, workload, module, attr):
    monkeypatch.setattr(module, attr, _wrong_message(getattr(module, attr)))
    code, _, result, err = bench(capsys, workload, 0)
    assert code == 1
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]
    assert "output check failed" in err


def test_sim_grid_failure_count_mismatch_is_caught(capsys, monkeypatch):
    # Only run_trials sees this decoder; the traced loop calls the real one.
    monkeypatch.setattr(gccodes.sim, "decode",
                        lambda y, p: gccodes.DecodeResult(gccodes.FAILURE))
    code, _, result, err = bench(capsys, "sim_grid", 1)
    assert code == 1
    assert result["correct"] is False
    assert "failures, the traced loop" in err


def _copy_bench(dest):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))


def _run_copy(cwd, env=None):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=120, env=env)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    _copy_bench(tmp_path)
    proc = _run_copy(tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no source tree" in proc.stderr


def test_refuses_a_gccodes_from_elsewhere(tmp_path):
    _copy_bench(tmp_path)
    (tmp_path / "src").mkdir()
    proc = _run_copy(tmp_path, env={"PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "not into" in proc.stderr
