"""Self-test of the benchmark harness on reduced inputs.

    python3 benchmarks/selftest.py

Run from the root of a checkout.  For every workload it runs the harness
briefly (--smoke) untraced and twice traced, and checks that the result line
has the contract's keys, that every metric named in BENCHMARK.json is present
with its unit, that every end-to-end metric that applies to the workload is
printed, that the two traced runs count the same work, that a hook whose
attribute is gone reports its counters as unavailable, and that the harness
refuses to run, without a result, where there is no tsbounds source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BOUND_CELLS = ("tsb_cell_s", "itsb_cell_s", "ahp_cell_s", "psi_cell_s",
               "tsb_cell_ref", "itsb_cell_ref", "ahp_cell_ref", "psi_cell_ref")
APPLIES = {
    "golay-sweep": BOUND_CELLS,
    "ensemble-conditioned": BOUND_CELLS,
    "exponent-assembly": ("chernoff_tsb_s", "chernoff_psi_s", "exponent_row_s",
                          "chernoff_tsb_ref", "chernoff_psi_ref", "exponent_row_ref"),
    "simulate-golay": ("trials_per_s", "trials_per_kref"),
}
COMMON = ("setup_s", "wall_ref", "cells_per_kref", "peak_rss_mb", "wall_s", "cells_per_s",
          "fail_frac")
# Work counts that must repeat exactly between two traced runs.
COUNTS = ("kernel.gammainc_nodes", "numerics.integrals", "numerics.panels",
          "bounds.cone_solves", "numerics.objective_evals", "mcsim.gemm_flops_computed")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(done, names: dict, workload: str, trouble: list[str]) -> dict:
    """Check the result line against the contract; a run whose program
    checks failed still has to report every metric."""
    try:
        result = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        trouble.append(f"{workload}: no result line (exit {done.returncode}): "
                       f"{done.stderr[-1500:]}")
        return {}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        trouble.append(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or done.returncode != 0:
        failures = [ln for ln in done.stderr.splitlines() if ln.startswith("FAILED")]
        trouble.append(f"{workload}: program checks failed (exit {done.returncode}): {failures}")
    if result["attempted"] < 1:
        trouble.append(f"{workload}: no cell attempted")
    for name, unit in names.items():
        metric = result["metrics"].get(name)
        if metric is None:
            trouble.append(f"{workload}: metric {name} missing")
        elif metric["unit"] != unit:
            trouble.append(f"{workload}: {name} has unit {metric['unit']}, not {unit}")
        elif not isinstance(metric["value"], (int, float)) and "unavailable" not in metric:
            trouble.append(f"{workload}: {name} = {metric['value']!r}")
    extra = set(result["metrics"]) - set(names)
    if extra:
        trouble.append(f"{workload}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return result["metrics"]


def check_missing_hook(trouble: list[str]) -> None:
    """With bounds no longer calling adaptive_integrate, the counters it
    feeds must read as unavailable, not zero; the others stay available."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tsbounds.bounds as bounds
    from layertrace import Tracer

    saved = bounds.adaptive_integrate
    del bounds.adaptive_integrate
    try:
        tracer = Tracer()
        tracer.install()
        tracer.restore()
    finally:
        bounds.adaptive_integrate = saved
    metrics = tracer.layer_metrics([], {})
    for name in ("numerics.integrals", "numerics.panels"):
        reason = metrics[name].get("unavailable", "")
        if metrics[name]["value"] is not None or "no longer exists" not in reason:
            trouble.append(f"missing hook: {name} = {metrics[name]}")
    if metrics["kernel.gammainc_calls"]["value"] != 0:
        trouble.append(f"missing hook: kernel.gammainc_calls = {metrics['kernel.gammainc_calls']}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    trouble: list[str] = []
    check_missing_hook(trouble)
    for workload in (w["name"] for w in spec["workloads"]):
        done = run(workload, 0)
        metrics = check_result(done, e2e, workload, trouble)
        if any(not m["value"] > 0 for m in metrics.values()):
            trouble.append(f"{workload}: an end-to-end metric is not positive: {metrics}")
        printed = {ln.split()[1] for ln in done.stdout.splitlines()
                   if ln.startswith(workload + " ")}
        missing = [n for n in COMMON + APPLIES[workload] if n not in printed]
        if missing:
            trouble.append(f"{workload}: not printed: {missing}")
        first = check_result(run(workload, 1), layers, workload, trouble)
        second = check_result(run(workload, 1), layers, workload, trouble)
        for name in COUNTS:
            if name in first and first[name]["value"] != second.get(name, {}).get("value"):
                trouble.append(f"{workload}: {name} differs between traced runs")
        print(f"done {workload}", flush=True)

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run("golay-sweep", 0, cwd=bare)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        trouble.append(f"ran without src/: exit {done.returncode}, stdout {done.stdout!r}")
    for msg in trouble:
        print("FAIL " + msg)
    print("selftest " + ("failed" if trouble else "passed"))
    return 1 if trouble else 0


if __name__ == "__main__":
    sys.exit(main())
