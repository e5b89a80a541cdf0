"""Record reference.json: the values every benchmark cell is checked against.

    python3 benchmarks/record_reference.py

Run from the root of a checkout.  Re-record only when a change is meant to
alter the numbers, and say so in CHANGES.md.  The ensemble itsb values carry
the dropped-term defect (itsb skips every weight below the effective d_min),
so a fix of that defect must re-record them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Trials and seed of the Monte-Carlo reference; simulate-golay runs must
# agree with it within their combined standard errors.
SIM_REF_TRIALS = 4_000_000
SIM_REF_SEED = 20260101


def record(size: str) -> dict:
    import workloads
    from layertrace import BOUND_CELLS
    from tsbounds import bounds, exponents
    from tsbounds.bounds import ChannelPoint

    out = {}
    inp = workloads.setup("golay-sweep", size)
    out["golay-sweep"] = {"csv": _cli(workloads.bounds_argv(inp, 0))}

    inp = workloads.setup("ensemble-conditioned", size)
    cells = {}
    for snr in inp["snrs"]:
        ch = ChannelPoint.from_eb_n0_db(snr, inp["rate"])
        for name in BOUND_CELLS:
            r = getattr(bounds, name)(inp["spec"], ch)
            cells[f"{name}@{workloads.snr_label(ch)}"] = {
                "value": r.value, "log_value": r.log_value, "error_estimate": r.error_estimate}
    out["ensemble-conditioned"] = {
        "note": "itsb values still carry the dropped-term defect (weights below the "
                "effective d_min are skipped); re-record them when that is fixed",
        "cells": cells,
    }

    inp = workloads.setup("exponent-assembly", size)
    cells = {f"{name}@n={n},c={c:g}": getattr(exponents, name)(n, c, inp["specs"][n])
             for n in inp["ns"] for c in inp["cs"] for name in ("chernoff_tsb", "chernoff_psi")}
    csv = _cli(workloads.sweep_argv(inp, 0))
    sweep = [[float(v) for v in row.split(",")] for row in csv.splitlines()[1:]]
    out["exponent-assembly"] = {"cells": cells, "sweep": sweep}

    inp = workloads.setup("simulate-golay", size)
    ch = ChannelPoint.from_eb_n0_db(inp["snr"], inp["gen"].rate)
    out["simulate-golay"] = {
        "block_error_rate": _simulation(inp["path"], inp["snr"]),
        "tsb": bounds.tsb_block(inp["spec"], ch).value,
    }
    return out


def _cli(argv: list[str]) -> str:
    import workloads

    code, out = workloads.run_cli(argv)
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited with {code}")
    return out


@functools.cache
def _simulation(path: str, snr: float) -> dict:
    import workloads
    from tsbounds.bounds import ChannelPoint
    from tsbounds.codes import load_generator
    from tsbounds.mcsim import simulate_ml

    g = load_generator(path)
    est = simulate_ml(g, ChannelPoint.from_eb_n0_db(snr, g.rate), SIM_REF_TRIALS,
                      SIM_REF_SEED, threads=min(2, workloads.nproc()))
    return {"value": est.block_error_rate, "std_error": est.std_error,
            "trials": SIM_REF_TRIALS, "seed": SIM_REF_SEED}


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    ref = {size: record(size) for size in ("smoke", "full")}
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
