"""tsbounds benchmark: one workload per run, timed untraced or traced.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a tsbounds checkout; the package is imported from its
``src/``.  Workloads (see README.md for why each was chosen):

    golay-sweep           tsbounds bounds on the (23,12) Golay code, in-process
    ensemble-conditioned  tsb/itsb/ahp/psi on the n=12, R=1/2 ensemble spectrum
    exponent-assembly     chernoff_tsb/psi at n=64..512, then the exponent sweep
    simulate-golay        tsbounds simulate on Golay, seeded with --seed

--trace 0 repeats the workload's pass until S seconds are used (at least one
pass) and reports the end-to-end metrics.  Each timing is given in seconds
and in ``ref`` units: runs of a fixed reference computation timed alongside
(hostspeed.py), which cancels most of a shared host's swings in speed.
--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics.  Every cell is checked against reference.json; the last stdout line
is a JSON object with keys correct, attempted, failed and metrics, and the
exit code is 1 if any cell failed.  BLAS and OpenMP are pinned to one thread
each.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is repeated in fresh processes and reported as the median.
SETUP_SAMPLES = 5
# Modules whose static line count is reported as <module>.lines.
SOURCE_MODULES = ("cli", "codes", "bounds", "geometry", "numerics", "exponents", "mcsim")
# Median per-call time of each cell kind, reported under these names.
CELL_METRICS = {
    "tsb_block": "tsb_cell_s", "itsb": "itsb_cell_s", "ahp": "ahp_cell_s",
    "psi": "psi_cell_s", "chernoff_tsb": "chernoff_tsb_s",
    "chernoff_psi": "chernoff_psi_s", "exponent_row": "exponent_row_s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("golay-sweep", "ensemble-conditioned",
                            "exponent-assembly", "simulate-golay"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced inputs, for the harness self-test")
    p.add_argument("--probe-setup", action="store_true",
                   help="time imports and input construction, print it, exit")
    return p.parse_args(argv)


def probe_setup(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup",
           "--workload", args.workload] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


@dataclass
class Pass:
    start: float
    wall: float
    cpu: float
    cells: int


def measure(workloads, args, inputs, ref, tracer=None, max_passes=None):
    """Repeat the workload's pass while the next one is expected to end
    within --seconds; always at least one pass."""
    cells = workloads.Cells(tracer)
    passes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        first = len(cells.records)
        t0, c0 = time.perf_counter(), time.process_time()
        for msg in workloads.run_pass(args.workload, inputs, cells, args.seed, ref):
            # a pass-level failure no single cell can be blamed for
            cells.records.append(workloads.Cell("pass", "pass", 0.0, failures=[msg]))
        passes.append(Pass(t0, time.perf_counter() - t0, time.process_time() - c0,
                           len(cells.records) - first))
        if len(passes) == max_passes or time.perf_counter() + passes[-1].wall > deadline:
            return cells, passes


def end_to_end(cells, passes, setup, speed) -> dict:
    """Timings of passes and cells, each in seconds and in ref units."""
    walls = [p.wall for p in passes]
    refs = [speed.in_ref(p.start, p.start + p.wall) for p in passes]
    per_pass = sum(p.cells for p in passes)
    m = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_ref": (statistics.median(refs), "ref", len(refs)),
        "cells_per_kref": (1000.0 * per_pass / sum(refs), "1/kref", len(passes)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "cells_per_s": (per_pass / sum(walls), "1/s", len(passes)),
    }
    for kind, name in CELL_METRICS.items():
        mine = [c for c in cells.records if c.kind == kind]
        if mine:
            m[name] = (statistics.median(c.seconds for c in mine), "s", len(mine))
            m[name[:-2] + "_ref"] = (statistics.median(
                speed.in_ref(c.start, c.start + c.seconds) for c in mine), "ref", len(mine))
    sims = [c for c in cells.records if c.kind == "simulate" and c.result]
    if sims:
        trials = sum(c.result["trials"] for c in sims)
        m["trials_per_s"] = (trials / sum(c.seconds for c in sims), "1/s", len(sims))
        m["trials_per_kref"] = (1000.0 * trials / sum(
            speed.in_ref(c.start, c.start + c.seconds) for c in sims), "1/kref", len(sims))
    failed = sum(c.failed for c in cells.records)
    m["fail_frac"] = (failed / max(len(cells.records), 1), "ratio", len(cells.records))
    return m


def line_counts() -> dict:
    pkg = SRC / "tsbounds"
    counts = {f"{m}.lines": _lines(pkg / f"{m}.py") for m in SOURCE_MODULES}
    counts["src.lines"] = sum(_lines(p) for p in sorted(SRC.rglob("*.py")))
    return counts


def _lines(path: Path) -> int | None:
    try:
        return path.read_bytes().count(b"\n")
    except FileNotFoundError:
        return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    from workloads import nproc

    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": _commit(),
        "src_sha256": hashlib.sha256(b"".join(
            p.read_bytes() for p in sorted(SRC.rglob("*.py")))).hexdigest(),
        "seed": seed,
        "lines": line_counts(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for ln in fh:
                if ln.startswith("model name"):
                    return ln.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable: not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for ln in packed.read_text().splitlines():
            if ln.endswith(" " + name):
                return ln.split()[0]
    return f"unavailable: {name} not resolved"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tsbounds" / "__init__.py").is_file():
        print(f"error: no tsbounds package under {SRC}; run from a tsbounds checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    size = "smoke" if args.smoke else "full"

    t0 = time.perf_counter()
    import workloads
    inputs = workloads.setup(args.workload, size)
    first_setup = time.perf_counter() - t0
    if args.probe_setup:
        print(json.dumps({"setup_s": first_setup}))
        return 0
    import tsbounds
    if SRC.resolve() not in Path(tsbounds.__file__).resolve().parents:
        print(f"error: tsbounds imported from {tsbounds.__file__}, not {SRC}", file=sys.stderr)
        return 2

    ref = json.loads((HERE / "reference.json").read_text())[size][args.workload]
    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        cells, passes = measure(workloads, args, inputs, ref, max_passes=1)
    else:
        from hostspeed import HostSpeed  # after set-up: it imports numpy

        with HostSpeed(workloads.REFERENCE[args.workload]) as speed:
            cells, passes = measure(workloads, args, inputs, ref)
    records = list(cells.records)
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            workloads.setup(args.workload, size)  # spans the input construction too
            traced, traced_passes = measure(workloads, args, inputs, ref,
                                            tracer=tracer, max_passes=1)
        finally:
            tracer.restore()
        records += traced.records
        base = passes[0]
        proc = {
            "proc.cpu_s": (base.cpu, "s"),
            "proc.cpu_util": (base.cpu / base.wall, "ratio"),
            "proc.trace_overhead_s": (traced_passes[0].wall - base.wall, "s"),
        }
        metrics = tracer.layer_metrics(traced.records, proc)
        for name, value in env["lines"].items():
            metrics[name] = ({"value": value, "unit": "lines"} if value is not None else
                             {"value": None, "unit": "lines", "unavailable": "module file is gone"})
        tracer.write(stem.with_suffix(".spans.jsonl"))
        shown = {k: (v["value"], v["unit"], v.get("unavailable", "")) for k, v in metrics.items()}
    else:
        setup = [first_setup] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        e2e = end_to_end(cells, passes, setup, speed)
        shown = {k: (v, u, f"n={n}") for k, (v, u, n) in e2e.items()}
        # The result carries the metrics BENCHMARK.json names; the others
        # apply to some workloads only and are printed above it.
        names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in names}

    failed = [c for c in records if c.failed]
    for c in failed:
        print(f"FAILED {c.label}: {c.error or '; '.join(c.failures)}", file=sys.stderr)
    for name, (value, unit, note) in shown.items():
        print(f"{args.workload:22s} {name:30s} {value!s:>24} {unit:8s} {note}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    stem.with_suffix(".json").write_text(json.dumps(
        {"env": env, "passes": [p.wall for p in passes],
         "cells": [{"kind": c.kind, "label": c.label, "seconds": c.seconds,
                    "warnings": c.warnings, "error": c.error, "failures": c.failures}
                   for c in records],
         "result": result}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
