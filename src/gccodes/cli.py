"""Command-line front end.

Subcommands: encode, corrupt, decode, bound, simulate. Bit files are plain
text, the characters '0' and '1' with an optional trailing newline.

Exit codes: 0 success; 1 malformed arguments or files; decode additionally
uses 2 when the decoder ends with several candidates (listed on stderr)
and 3 when no deletion placement the decoder tries fits the input (at
z >= 2 some compliant words end there too; see
multi_window._decode_repetition).
"""

import argparse
import os
import shutil
import sys
from contextlib import contextmanager

from . import channel, sim
from .analysis import bound_multi, bound_single
from .gf2e import MAX_ELL, is_binary
from .multi_window import multi_params
from .single_window import (
    FAILURE,
    INVALID_INPUT,
    InvalidConfigError,
    decode,
    derive_dims,
    encode,
    gc_params,
)

class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse defaults to status 2, which decode reserves for Failure
        self.exit(1, f"{self.prog}: error: {message}\n")


def read_bits(path):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    text = text.rstrip("\n")
    if not text or not is_binary(text):
        raise CliError(f"{path} is not a bit file (only '0'/'1' and a trailing newline)")
    return text


@contextmanager
def _open_out(path):
    """path opened for writing, or stdout for '-', as a context manager;
    CliError when it cannot be opened. A file is written to a temporary
    file beside it, with the mode open(path, "w") would give, which
    replaces it when the block ends and is removed if the block raises.
    A device or a pipe is written in place."""
    if path == "-":
        yield sys.stdout
        return
    target = os.path.realpath(path)
    old = os.path.isfile(target)
    tmp = None if os.path.exists(target) and not old else f"{target}.{os.getpid()}.tmp"
    try:
        if old:
            open(target, "a").close()         # refused where open(path, "w") is
        f = open(tmp, "x") if tmp else open(target, "w")
        if old:
            shutil.copymode(target, tmp)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc
    try:
        with f:
            yield f
        if tmp:
            os.replace(tmp, target)
    except BaseException:
        if tmp:
            os.unlink(tmp)
        raise


def write_bits(path, bits):
    try:
        with _open_out(path) as f:
            f.write(bits + "\n")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _add_code_args(sub, required=True):
    """The code flags. Optional ones (corrupt) leave --z and --gen None,
    so a flag given without the code can be refused; the defaults are
    then applied in _cmd_corrupt."""
    sub.add_argument("--k", type=int, required=required, help="message length in bits")
    sub.add_argument("--w", type=int, required=required, help="window size")
    sub.add_argument("--c", type=int, required=required, help="number of parity symbols")
    sub.add_argument("--z", type=int, default=1 if required else None,
                     help="number of windows (default 1)")
    sub.add_argument("--gen", choices=("cauchy", "vandermonde"),
                     default="cauchy" if required else None,
                     help="parity generator kind (default cauchy)")


def _check_field(k, w, c):
    """Refuse, before anything is built, parameters whose field is too large."""
    ell = derive_dims(k, w, c)[0]
    if ell > MAX_ELL:
        raise CliError(f"k={k}, w={w} need ell={ell}; the CLI supports ell <= {MAX_ELL}")


def _params(args):
    _check_field(args.k, args.w, args.c)
    if args.z == 1:
        return gc_params(args.k, args.w, args.c, args.gen)
    return multi_params(args.k, args.w, args.c, args.z, args.gen)


def _cmd_encode(args):
    p = _params(args)
    u = read_bits(args.infile)
    if len(u) != args.k:
        raise CliError(f"{args.infile} holds {len(u)} bits, expected k={args.k}")
    write_bits(args.out, encode(u, p))
    return 0


def _cmd_corrupt(args):
    """Apply --pattern, or a pattern drawn by --random. Given the code
    flags, the pattern is checked against the code's windows; --random
    needs them to place its windows. A flag the call would ignore is
    refused."""
    x = read_bits(args.infile)
    code = (args.k, args.w, args.c)
    if args.pattern is not None:
        if args.delta is not None or args.seed is not None:
            raise CliError("--pattern takes neither --delta nor --seed")
        if args.mode is not None:
            raise CliError("--pattern takes no --mode")
        pat = channel.pattern_from_text(args.pattern)
        if code == (None, None, None):
            if args.z is not None or args.gen is not None:
                raise CliError("--z and --gen need --k, --w and --c")
            write_bits(args.out, channel.delete_localized(x, pat))
            return 0
    elif args.seed is None or args.delta is None:
        raise CliError("--random needs --delta and --seed")
    if None in code:
        raise CliError("--k, --w and --c go together, and --random needs them")
    args.z = 1 if args.z is None else args.z
    args.gen = args.gen or "cauchy"
    p = _params(args)
    if len(x) != p.n:
        raise CliError(f"{args.infile} holds {len(x)} bits, expected n={p.n}")
    if args.pattern is None:
        pat = channel.sample_pattern(p, args.delta, args.seed, args.mode or "whole-codeword")
        print(f"pattern {channel.pattern_to_text(pat)}", file=sys.stderr)
    write_bits(args.out, channel.delete_localized(x, pat, w=p.w, z=p.z))
    return 0


def _cmd_decode(args):
    p = _params(args)
    y = read_bits(args.infile)
    res = decode(y, p)
    if res.status == FAILURE:
        print("cannot decide between candidates:", file=sys.stderr)
        for cand in res.candidates:
            print(f"  {cand}", file=sys.stderr)
        return 2
    if res.status == INVALID_INPUT:
        print(f"not decodable: {res.reason}", file=sys.stderr)
        return 3
    write_bits(args.out, res.message)
    via = "parity path" if res.guess is None else f"guess {res.guess}"
    print(f"decoded via {via}", file=sys.stderr)
    return 0


def _cmd_bound(args):
    _check_field(args.k, args.w, args.c)
    rep = (bound_single(args.k, args.w, args.c) if args.z == 1
           else bound_multi(args.k, args.w, args.c, args.z))
    print(f"redundancy_bits={rep.redundancy_bits}")
    print(f"rate={rep.rate:.6g}")
    print(f"failure_bound={rep.failure_bound:.6g}")
    print(f"regime={rep.regime}")
    print(f"windows={rep.windows}")
    return 0


def _cmd_simulate(args):
    try:
        k_list = tuple(int(x) for x in args.k_list.split(","))
    except ValueError as exc:
        raise CliError(f"bad --k-list {args.k_list!r}") from exc
    for k in k_list:
        _check_field(k, (k - 1).bit_length(), args.c)  # sim ties w to k
    cpus = os.cpu_count() or 1
    if not 1 <= args.workers <= cpus:
        raise CliError(f"--workers {args.workers} must be in 1..{cpus}, the CPU count")
    cfg = sim.SimConfig(
        k_list=k_list, c=args.c, z=args.z, trials=args.trials,
        delta=args.delta, delta_frac=args.delta_frac,
        master_seed=args.seed, sampling_mode=args.mode, kind=args.gen,
    )
    # opened before the trials, so an unwritable --out costs none of them;
    # an existing --out keeps its contents until the report is written
    with _open_out(args.out) as out:
        report = sim.run_trials(cfg, workers=args.workers, progress=args.progress)
        out.write(sim.report_to_csv(report))
    bad = sum(r.miscorrections for r in report.rows)
    if bad:
        print(f"MISCORRECTIONS: {bad} (decoder bug, results unusable)", file=sys.stderr)
        return 1
    return 0


def build_parser():
    parser = _Parser(prog="gccodes",
                     description="Codes correcting deletions confined to windows")
    subs = parser.add_subparsers(dest="command", required=True)

    enc = subs.add_parser("encode", help="encode a message bit file")
    _add_code_args(enc)
    enc.add_argument("--in", dest="infile", required=True)
    enc.add_argument("--out", required=True)
    enc.set_defaults(fn=_cmd_encode)

    cor = subs.add_parser("corrupt", help="apply localized deletions")
    how = cor.add_mutually_exclusive_group(required=True)
    how.add_argument("--pattern", help='e.g. "3:0,1,3;15:0,2" (1-indexed starts)')
    how.add_argument("--random", action="store_true", help="sample a pattern instead")
    cor.add_argument("--delta", type=int, help="per-window deletions for --random")
    cor.add_argument("--seed", help="RNG seed for --random")
    cor.add_argument("--mode", choices=("whole-codeword", "systematic-only"),
                     help="where --random places its windows (default whole-codeword)")
    _add_code_args(cor, required=False)     # needed by --random, checked by --pattern
    cor.add_argument("--in", dest="infile", required=True)
    cor.add_argument("--out", required=True)
    cor.set_defaults(fn=_cmd_corrupt)

    dec = subs.add_parser("decode", help="decode a received bit file")
    _add_code_args(dec)
    dec.add_argument("--in", dest="infile", required=True)
    dec.add_argument("--out", required=True)
    dec.set_defaults(fn=_cmd_decode)

    bnd = subs.add_parser("bound", help="redundancy, rate, and failure bound")
    _add_code_args(bnd)
    bnd.set_defaults(fn=_cmd_bound)

    simp = subs.add_parser("simulate", help="Monte Carlo failure rates to CSV")
    simp.add_argument("--k-list", required=True, help="comma-separated message lengths")
    simp.add_argument("--c", type=int, required=True)
    simp.add_argument("--z", type=int, default=1)
    group = simp.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta", type=int, help="per-window deletions")
    group.add_argument("--delta-frac", type=float, help="deletions as a fraction of w")
    simp.add_argument("--trials", type=int, required=True)
    simp.add_argument("--seed", default="0")
    simp.add_argument("--mode", choices=("whole-codeword", "systematic-only"),
                      default="whole-codeword")
    simp.add_argument("--gen", choices=("cauchy", "vandermonde"), default="cauchy")
    simp.add_argument("--workers", type=int, default=1)
    simp.add_argument("--progress", action="store_true")
    simp.add_argument("--out", default="-", help="CSV path, '-' for stdout")
    simp.set_defaults(fn=_cmd_simulate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, InvalidConfigError, channel.InvalidPatternError, ValueError) as exc:
        print(f"gccodes: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
