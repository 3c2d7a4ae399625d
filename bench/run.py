"""gccodes benchmark: one workload per run, end-to-end or traced per layer.

    python3 bench/run.py --workload sim_grid --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is always imported from this checkout's
src/, and the run refuses to start if Python resolves gccodes elsewhere.
--trace 0 measures the end-to-end metrics with nothing instrumented.
--trace 1 follows every untraced unit with a traced mirror of it and
reports the per-layer metrics; the spans go to bench/out/. Metric names and
units come from BENCHMARK.json at the repository root. The last line of
stdout is the result as one JSON object. Its `failed` counts operations
whose output check failed: a wrong message, or a traced mirror that
disagrees with the call it mirrors. Such a failure aborts the run, so a
measured run reports 0. A decoder that abstains or calls its input invalid
has not failed the check; those outcomes are counted in fail_share.
Exit status: 0 measured, 1 an output check failed, 2 the package or
BENCHMARK.json could not be found.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 9

# Runs in a fresh interpreter per sample: import cost is paid once per
# process, so only a new process measures it. The reference loop runs once
# to warm up, then on both sides of the measured part to scale it.
SETUP_CHILD = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
from calibrate import NOMINAL_S, reference
reference()
r0 = reference()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import gccodes
for name, *args in json.loads(sys.argv[3]):
    getattr(gccodes, name)(*args)
dt = time.perf_counter() - t0
r1 = reference()
print(dt * NOMINAL_S / ((r0 + r1) / 2), gccodes.__file__)
"""


class GuardError(RuntimeError):
    pass


def _check_origin(path):
    where = Path(path).resolve()
    if SRC.resolve() not in where.parents:
        raise GuardError(f"gccodes resolves to {where}, not into {SRC}")
    return where


def import_gccodes():
    """Import gccodes from this checkout's src/ and return its file."""
    if not SRC.is_dir():
        raise GuardError(f"no source tree at {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    try:
        import gccodes
    except ImportError as exc:
        raise GuardError(f"cannot import gccodes from {SRC}: {exc}") from exc
    return _check_origin(gccodes.__file__)


def measure_setup(specs):
    """Median over fresh processes of importing gccodes and building the
    workload's params objects, scaled to the nominal machine speed."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(BENCH), str(SRC),
             json.dumps(specs)],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT)
        secs, path = proc.stdout.split(maxsplit=1)
        _check_origin(path.strip())
        samples.append(float(secs))
    return statistics.median(samples)


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def provenance(gc_file):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"gccodes_file": str(gc_file), "commit": _commit(),
            "python": platform.python_version(), "nproc": nproc,
            "cpu": _cpu_model()}


def measure(wl, tally, seconds, tr):
    """Run units until `seconds` have passed, finishing the unit under way."""
    start = perf_counter()
    i = 0
    while True:
        wl.unit(i, tally, tr)
        i += 1
        if perf_counter() - start >= seconds:
            return i


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    try:
        gc_file = import_gccodes()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (GuardError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    args = parse_args(argv, list(workloads.WORKLOADS))
    wl = workloads.WORKLOADS[args.workload](args.seed)
    print("provenance " + json.dumps(provenance(gc_file)))
    print(f"run workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    tally = workloads.Tally()
    tr = Tracer() if args.trace else None
    try:
        if tr is None:
            setup_s = measure_setup(wl.specs)
            units = measure(wl, tally, args.seconds, None)
            metrics = {
                "setup_s": setup_s,
                "decodes_per_s": statistics.median(tally.rates),
                "fail_share": tally.undecoded / tally.ops,
                "decode_ms_p50": statistics.median(tally.op_ms),
                "decode_ms_p90": workloads.percentile(tally.op_ms, 90),
            }
            declared = spec["end_to_end"]
        else:
            t0 = perf_counter()
            workloads.traced_setup(wl.specs, tr)
            setup_traced_s = perf_counter() - t0
            units = measure(wl, tally, args.seconds, tr)
            metrics = workloads.layer_metrics(wl, tr, tally,
                                              setup_traced_s + tally.mirror_s)
            declared = spec["per_layer"]
    except workloads.OutputMismatch as exc:
        print(f"bench: output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False,
                          "attempted": max(tally.ops, exc.wrong),
                          "failed": exc.wrong, "metrics": {}}))
        return 1

    names = [m["name"] for m in declared]
    if set(names) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(names) ^ set(metrics))} are "
                           "computed or declared but not both")
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in declared}
    print(f"units={units} ops={tally.ops} undecoded={tally.undecoded} "
          f"latency_samples={len(tally.op_ms)} rate_samples={len(tally.rates)}"
          + (f" setup_samples={SETUP_SAMPLES}" if tr is None else f" spans={len(tr)}"))
    for name in names:
        print(f"{name} {result[name]['value']:.6g} {result[name]['unit']}")
    if tr is not None:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tr.write(path, workload=args.workload, seed=args.seed)
        print(f"spans written to {path}")
    print(json.dumps({"correct": True, "attempted": tally.ops,
                      "failed": 0, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
