"""Command-line interface, exercised through subprocesses end to end, and
in-process where a test must patch what the command calls."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gccodes
from gccodes import cli, codec, mds

U = "1100101001111000"
CODEWORD = "110010100111100000001100110000001"
RECEIVED = "110010011100000001100110000001"

# a k=16 cauchy word whose window-12 burst leaves two surviving candidates
AMBIG_Y = "00111110011000001101001011110"
AMBIG_CANDIDATES = {"1100101011100110", "0011111001110000"}

VAND = ["--k", "16", "--w", "4", "--c", "3", "--gen", "vandermonde"]


# the directory holding the gccodes this process imported; the child must run
# that same copy, whatever the working directory and however PYTHONPATH is set
PACKAGE_ROOT = str(Path(gccodes.__file__).resolve().parents[1])


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "gccodes", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def write(path, text):
    path.write_text(text + "\n")


def test_encode_corrupt_decode_pipeline(tmp_path):
    write(tmp_path / "msg.bits", U)
    r = run_cli("encode", *VAND, "--in", "msg.bits", "--out", "cw.bits",
                cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "cw.bits").read_text() == CODEWORD + "\n"

    r = run_cli("corrupt", "--pattern", "7:0,2,3", "--in", "cw.bits",
                "--out", "rx.bits", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "rx.bits").read_text() == RECEIVED + "\n"

    r = run_cli("decode", *VAND, "--in", "rx.bits", "--out", "dec.bits",
                cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "dec.bits").read_text() == U + "\n"
    assert "guess 2" in r.stderr


def test_decode_ambiguous_exits_2(tmp_path):
    write(tmp_path / "rx.bits", AMBIG_Y)
    r = run_cli("decode", "--k", "16", "--w", "4", "--c", "3",
                "--in", "rx.bits", "--out", "dec.bits", cwd=tmp_path)
    assert r.returncode == 2
    assert not (tmp_path / "dec.bits").exists()
    for cand in AMBIG_CANDIDATES:
        assert cand in r.stderr


def test_decode_overlong_input_exits_3(tmp_path):
    write(tmp_path / "rx.bits", CODEWORD + "00")
    r = run_cli("decode", *VAND, "--in", "rx.bits", "--out", "dec.bits",
                cwd=tmp_path)
    assert r.returncode == 3
    assert "not decodable" in r.stderr


def test_bad_bit_file_exits_1(tmp_path):
    write(tmp_path / "msg.bits", "110x101001111000")
    r = run_cli("encode", *VAND, "--in", "msg.bits", "--out", "cw.bits",
                cwd=tmp_path)
    assert r.returncode == 1
    assert "error:" in r.stderr
    write(tmp_path / "empty.bits", "")
    r = run_cli("encode", *VAND, "--in", "empty.bits", "--out", "cw.bits",
                cwd=tmp_path)
    assert r.returncode == 1
    assert "error:" in r.stderr


def test_wrong_length_message_exits_1(tmp_path):
    write(tmp_path / "msg.bits", U + "1")
    r = run_cli("encode", *VAND, "--in", "msg.bits", "--out", "cw.bits",
                cwd=tmp_path)
    assert r.returncode == 1
    assert "expected k=16" in r.stderr


def test_missing_subcommand_and_bad_flags_exit_1(tmp_path):
    for args in ((), ("encode", "--k", "16"), ("frobnicate",)):
        r = run_cli(*args, cwd=tmp_path)
        assert r.returncode == 1, args
        assert "error:" in r.stderr, args


def test_invalid_pattern_exits_1(tmp_path):
    write(tmp_path / "cw.bits", CODEWORD)
    for bad in ("0:1", "3:1,1", "3:0,"):
        r = run_cli("corrupt", "--pattern", bad, "--in", "cw.bits",
                    "--out", "rx.bits", cwd=tmp_path)
        assert r.returncode == 1, bad
        assert "error:" in r.stderr, bad


def test_window_start_below_one_exits_1(tmp_path):
    write(tmp_path / "cw.bits", CODEWORD)
    for bad in ("0:1", "-1:0"):
        r = run_cli("corrupt", f"--pattern={bad}", "--in", "cw.bits",
                    "--out", "rx.bits", cwd=tmp_path)
        assert r.returncode == 1, bad
        start = bad.split(":")[0]
        assert (f"gccodes: error: window start {start}: starts are 1-based "
                "and must be at least 1") in r.stderr, bad
        assert not (tmp_path / "rx.bits").exists()


def test_field_above_ell_20_exits_1(tmp_path):
    # ell = max(w, ceil(log2 k)); 21 is the smallest field the CLI refuses,
    # and it refuses before building one (bound builds none, so w=24 is safe)
    write(tmp_path / "msg.bits", "0" * 64)
    code = ["--k", "64", "--w", "21", "--c", "3"]
    for args in (("encode", *code, "--in", "msg.bits", "--out", "cw.bits"),
                 ("decode", *code, "--z", "2", "--in", "msg.bits", "--out", "dec.bits"),
                 ("corrupt", "--random", "--delta", "1", "--seed", "1", *code,
                  "--in", "msg.bits", "--out", "rx.bits"),
                 ("bound", "--k", "64", "--w", "24", "--c", "3"),
                 ("simulate", "--k-list", "64,1048577", "--c", "3", "--delta", "1",
                  "--trials", "1")):
        r = run_cli(*args, cwd=tmp_path)
        assert r.returncode == 1, args
        assert "gccodes: error:" in r.stderr and "ell <= 20" in r.stderr, args
        assert r.stdout == "", args
    assert sorted(p.name for p in tmp_path.iterdir()) == ["msg.bits"]
    r = run_cli("bound", "--k", "64", "--w", "20", "--c", "3", cwd=tmp_path)
    assert r.returncode == 0 and "redundancy_bits=81" in r.stdout


def test_corrupt_random_deterministic(tmp_path):
    write(tmp_path / "cw.bits", CODEWORD)
    args = ["corrupt", "--random", "--delta", "2", "--seed", "11", *VAND,
            "--in", "cw.bits", "--out", "rx.bits"]
    r1 = run_cli(*args, cwd=tmp_path)
    first = (tmp_path / "rx.bits").read_text()
    r2 = run_cli(*args, cwd=tmp_path)
    assert r1.returncode == r2.returncode == 0
    assert (tmp_path / "rx.bits").read_text() == first
    assert len(first.strip()) == 31
    assert "pattern" in r1.stderr


def test_corrupt_random_requires_seed_and_delta(tmp_path):
    write(tmp_path / "cw.bits", CODEWORD)
    r = run_cli("corrupt", "--random", "--delta", "2", "--in", "cw.bits",
                "--out", "rx.bits", cwd=tmp_path)
    assert r.returncode == 1
    assert "error:" in r.stderr


def test_corrupt_needs_exactly_one_of_pattern_and_random(tmp_path):
    # with neither flag corrupt used to sample a pattern, and with both it
    # applied the pattern and ignored --random; both calls exited 0
    write(tmp_path / "cw.bits", CODEWORD)
    io = ["--in", "cw.bits", "--out", "rx.bits"]
    for args in (("--delta", "2", "--seed", "5", "--k", "16", "--w", "4", "--c", "3"),
                 ("--pattern", "7:0,2", "--random", "--delta", "3", *VAND)):
        r = run_cli("corrupt", *args, *io, cwd=tmp_path)
        assert r.returncode == 1, args
        assert "error:" in r.stderr and "--pattern" in r.stderr, args
        assert not (tmp_path / "rx.bits").exists(), args


def test_corrupt_pattern_checked_against_code_flags(tmp_path):
    # the pattern used to be applied unchecked: six deletions in one window
    # of a w = 4 code, and a word of the wrong length, both exited 0
    write(tmp_path / "cw.bits", CODEWORD)
    write(tmp_path / "short.bits", CODEWORD[:-1])
    io = ["--out", "rx.bits"]
    for args in (("--pattern", "7:0,1,2,3,4,5", "--k", "16", "--w", "4", "--c", "3",
                  "--in", "cw.bits"),
                 ("--pattern", "7:0,2,3", *VAND, "--in", "short.bits"),
                 ("--pattern", "7:0,2,3", "--k", "16", "--in", "cw.bits")):
        r = run_cli("corrupt", *args, *io, cwd=tmp_path)
        assert r.returncode == 1, args
        assert "gccodes: error:" in r.stderr, args
        assert not (tmp_path / "rx.bits").exists(), args
    r = run_cli("corrupt", "--pattern", "7:0,2,3", *VAND, "--in", "cw.bits", *io,
                cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "rx.bits").read_text() == RECEIVED + "\n"


def test_corrupt_pattern_refuses_delta_and_seed(tmp_path):
    # --delta and --seed belong to --random; --pattern used to ignore them
    write(tmp_path / "cw.bits", CODEWORD)
    io = ["--in", "cw.bits", "--out", "rx.bits"]
    for extra in (("--delta", "3", "--seed", "5"), ("--delta", "3"), ("--seed", "5")):
        r = run_cli("corrupt", "--pattern", "7:0,2", *extra, *io, cwd=tmp_path)
        assert r.returncode == 1, extra
        assert "gccodes: error: --pattern takes neither --delta nor --seed" in r.stderr, extra
        assert not (tmp_path / "rx.bits").exists(), extra


def test_corrupt_refuses_flags_it_would_ignore(tmp_path):
    # --pattern without the code flags used to drop --z and --gen, and every
    # --pattern call dropped --mode: "3:0;9:0" with --z 1 exited 0 having
    # applied two windows
    write(tmp_path / "cw.bits", CODEWORD)
    io = ["--in", "cw.bits", "--out", "rx.bits"]
    for args in (("3:0;9:0", "--z", "1"), ("3:0;9:0", "--gen", "vandermonde"),
                 ("3:0;9:0", "--mode", "systematic-only"),
                 ("7:0,2,3", *VAND, "--mode", "whole-codeword")):
        r = run_cli("corrupt", "--pattern", *args, *io, cwd=tmp_path)
        assert r.returncode == 1, args
        assert "gccodes: error:" in r.stderr, args
        assert not (tmp_path / "rx.bits").exists(), args
    # left out, they still default to one window and the cauchy kind
    r = run_cli("corrupt", "--pattern", "3:0;9:0", *io, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "rx.bits").read_text() == CODEWORD[:2] + CODEWORD[3:8] + CODEWORD[9:] + "\n"
    r = run_cli("corrupt", "--pattern", "7:0,2,3", "--k", "16", "--w", "4", "--c", "3",
                *io, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "rx.bits").read_text() == RECEIVED + "\n"


def test_bound_output(tmp_path):
    r = run_cli("bound", "--k", "4096", "--w", "12", "--c", "4", cwd=tmp_path)
    assert r.returncode == 0
    lines = dict(line.split("=", 1) for line in r.stdout.strip().split("\n"))
    assert lines["redundancy_bits"] == "61"
    assert lines["failure_bound"] == "0.0833333"
    assert lines["rate"] == "0.985326"
    assert lines["regime"] == "large-window"
    assert lines["windows"] == "1"


def test_bound_multi_output(tmp_path):
    r = run_cli("bound", "--k", "64", "--w", "4", "--c", "8", "--z", "2",
                cwd=tmp_path)
    assert r.returncode == 0
    assert "failure_bound=0.0439453" in r.stdout
    assert "windows=2" in r.stdout


def test_bound_refuses_more_windows_than_the_cap(tmp_path):
    r = run_cli("bound", "--k", "64", "--w", "4", "--c", "9", "--z", "4", cwd=tmp_path)
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == "gccodes: error: z=4 exceeds the cap of 3 windows\n"


def test_simulate_stdout_and_file(tmp_path):
    args = ["simulate", "--k-list", "64,128", "--c", "3", "--delta", "2",
            "--trials", "50", "--seed", "5"]
    r = run_cli(*args, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().split("\n")
    assert lines[0].startswith("k,w,ell,c,z,delta,")
    assert len(lines) == 3
    assert lines[1].startswith("64,6,6,3,1,2,50,")

    r2 = run_cli(*args, "--out", "res.csv", cwd=tmp_path)
    assert r2.returncode == 0
    assert (tmp_path / "res.csv").read_text() == r.stdout
    assert r2.stdout == ""


def test_simulate_progress_on_stderr_only(tmp_path):
    r = run_cli("simulate", "--k-list", "64", "--c", "3", "--delta", "1",
                "--trials", "20", "--seed", "1", "--progress", cwd=tmp_path)
    assert r.returncode == 0
    assert r.stderr != ""
    assert r.stdout.startswith("k,w,ell,")


def test_simulate_refuses_unbuildable_k_before_any_trial(tmp_path):
    # k = 12 has 3 blocks, too few for z = 2; without the up-front check the
    # k = 64 trials ran first and --progress printed their lines
    r = run_cli("simulate", "--k-list", "64,12", "--c", "5", "--z", "2", "--delta", "1",
                "--trials", "3", "--progress", cwd=tmp_path)
    assert r.returncode == 1
    assert r.stderr == "gccodes: error: 3 blocks cannot host 2 disjoint block pairs\n"
    assert r.stdout == ""


def test_simulate_rejects_double_delta(tmp_path):
    r = run_cli("simulate", "--k-list", "64", "--c", "3", "--delta", "1",
                "--delta-frac", "0.5", "--trials", "5", cwd=tmp_path)
    assert r.returncode == 1
    assert "error:" in r.stderr


def test_simulate_unwritable_out_fails_before_any_trial(monkeypatch, capsys, tmp_path):
    def no_trials(*args, **kwargs):
        raise AssertionError("run_trials ran before --out was opened")

    monkeypatch.setattr(cli.sim, "run_trials", no_trials)
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = cli.main(["simulate", "--k-list", "64", "--c", "3", "--delta", "1",
                     "--trials", "5", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"gccodes: error: cannot write {out}")
    assert not out.parent.exists()


def test_simulate_failure_keeps_the_old_out(monkeypatch, tmp_path):
    # --out is written to a temporary file beside it and renamed onto it
    # only once the report is written: a run that raises leaves the old
    # file as it was and no temporary file behind
    def failing(*args, **kwargs):
        raise RuntimeError("trials interrupted")

    out = tmp_path / "keep.csv"
    out.write_text("old results\n")
    monkeypatch.setattr(cli.sim, "run_trials", failing)
    with pytest.raises(RuntimeError, match="trials interrupted"):
        cli.main(["simulate", "--k-list", "64", "--c", "3", "--delta", "1",
                  "--trials", "5", "--out", str(out)])
    assert out.read_text() == "old results\n"
    assert os.listdir(tmp_path) == ["keep.csv"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["encode", "--k", "16", "--w", "4", "--c", "3", "--in", "msg.bits"],
    ["simulate", "--k-list", "64", "--c", "3", "--delta", "1", "--trials", "5"],
], ids=["encode", "simulate"])
def test_a_failed_write_ends_in_one_line(argv, monkeypatch, capsys, tmp_path):
    # /dev/full takes the open and refuses the write, when it is flushed
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "msg.bits", U)
    assert cli.main([*argv, "--out", "/dev/full"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gccodes: error: cannot write /dev/full: ")
    assert err.count("\n") == 1


def test_an_interrupt_ends_in_one_line_and_keeps_the_old_out(monkeypatch, capsys, tmp_path):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    out = tmp_path / "keep.csv"
    out.write_text("old results\n")
    monkeypatch.setattr(cli.sim, "run_trials", interrupted)
    assert cli.main(["simulate", "--k-list", "64", "--c", "3", "--delta", "1",
                     "--trials", "5", "--out", str(out)]) == 130
    assert capsys.readouterr().err == "gccodes: interrupted\n"
    assert out.read_text() == "old results\n"
    assert os.listdir(tmp_path) == ["keep.csv"]


def test_simulate_out_gets_the_mode_of_a_plain_open(tmp_path):
    # a new file gets 0o666 less the umask and an existing one keeps its
    # mode, as open(path, "w") gives, not the temporary file's 0o600
    args = ["simulate", "--k-list", "64", "--c", "3", "--delta", "1", "--trials", "5"]
    umask = os.umask(0)
    os.umask(umask)
    new, kept = tmp_path / "new.csv", tmp_path / "kept.csv"
    kept.write_text("old results\n")
    kept.chmod(0o640)
    for out in (new, kept):
        assert cli.main([*args, "--out", str(out)]) == 0
        assert out.read_text().startswith("k,w,ell,")
    assert new.stat().st_mode & 0o777 == 0o666 & ~umask
    assert kept.stat().st_mode & 0o777 == 0o640
    assert sorted(os.listdir(tmp_path)) == ["kept.csv", "new.csv"]


@pytest.mark.parametrize("argv", [
    ["encode", "--in", "x.bits", "--out", "y.bits"],
    ["decode", "--in", "x.bits", "--out", "y.bits"],
    ["corrupt", "--random", "--delta", "1", "--seed", "1", "--in", "x.bits", "--out", "y.bits"],
    ["bound"],
], ids=["encode", "decode", "corrupt", "bound"])
def test_an_unaffordable_code_is_refused_before_any_table(argv, monkeypatch, capsys, tmp_path):
    # multi_params(4096, 12, 8, 3) enumerates 6 435 689 placements times
    # 127 splits; each command refuses it before building a field,
    # generator or solver, as simulate does at k = 4096 (w = 12)
    def built(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(codec, "FieldContext", built)
    monkeypatch.setattr(mds, "make_generator", built)
    monkeypatch.setattr(mds, "log_solver", built)
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "x.bits", "0110")
    code = ["--k", "4096", "--w", "12", "--c", "8", "--z", "3"]
    for args in ([*argv, *code],
                 ["simulate", "--k-list", "4096", "--c", "8", "--z", "3", "--delta", "1",
                  "--trials", "5"]):
        start = time.perf_counter()
        assert cli.main(args) == 1
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err == "gccodes: error: 817332503 cases exceed the case budget of 100000\n"
    assert os.listdir(tmp_path) == ["x.bits"]
