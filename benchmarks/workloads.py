"""The four benchmark workloads: their inputs, one timed pass each, and the
correctness checks applied to every cell a pass produced.

A cell is one unit of user-visible work: one bound at one E_b/N_0, one
exponential-assembly call, one exponent-sweep row or one simulate call.  A
cell fails if it raised, returned nan, returned converged=False or failed a
check against the reference recorded in reference.json.

Importing this module imports numpy, scipy and tsbounds; the harness times
that import as part of set-up.
"""

from __future__ import annotations

import io
import json
import math
import os
import time
import warnings
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from tsbounds import bounds, cli, codes, exponents
from tsbounds.bounds import ChannelPoint

from layertrace import BOUND_CELLS, Patches

HERE = Path(__file__).resolve().parent
NAMES = ("golay-sweep", "ensemble-conditioned", "exponent-assembly", "simulate-golay")
# The hostspeed.py reference each workload's timings are normalised by: the
# kind of work that dominates the workload, so that contention slows both
# alike.
REFERENCE = {"golay-sweep": "special", "ensemble-conditioned": "special",
             "exponent-assembly": "small_arrays", "simulate-golay": "decoder"}

# Input sizes.  "full" is what the benchmark measures; "smoke" is the
# reduced size the harness self-test runs.
SIZES = {
    "full": {
        "golay-sweep": {"generator": "golay23.txt", "grid": "4"},
        "ensemble-conditioned": {"n": 12, "rate": 0.5, "snrs": [4.0]},
        "exponent-assembly": {"ns": [64, 128, 256, 512], "rate": 0.5, "cs": [1.0, 1.5],
                              "sweep": "64,0.5", "grid": "0.45:0.85:0.05"},
        "simulate-golay": {"generator": "golay23.txt", "snr": 3.0, "trials": 500_000},
    },
    "smoke": {
        "golay-sweep": {"generator": "hamming7.txt", "grid": "4"},
        "ensemble-conditioned": {"n": 6, "rate": 0.5, "snrs": [4.0]},
        "exponent-assembly": {"ns": [64], "rate": 0.5, "cs": [1.0],
                              "sweep": "64,0.5", "grid": "0.45:0.55:0.05"},
        "simulate-golay": {"generator": "golay23.txt", "snr": 3.0, "trials": 100_000},
    },
}

# A value matches its reference when it is within this share of it, plus
# the two quadrature error budgets for bound values.
VALUE_RTOL = 1e-9
# Monte-Carlo agreement: standard errors of the difference to the reference.
SIM_Z = 5.0


@dataclass
class Cell:
    kind: str
    label: str
    seconds: float
    result: object = None
    start: float = 0.0
    error: str | None = None
    warnings: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    layer: str = "bounds"

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.failures)

    def warnings_of(self, layer: str) -> int:
        if self.layer != layer:
            return 0
        if layer == "exponents":
            return sum("pinned" in w for w in self.warnings)
        return len(self.warnings)


class Cells:
    """Times each cell and keeps its result and warnings.  Warnings are
    recorded per cell and then shown as usual, so none is silenced and none
    reaches stderr alone.  With a tracer, each cell is also a cell span."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.records: list[Cell] = []

    def call(self, layer: str, kind: str, label: str, fn, *args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sp = self.tracer.open(layer, kind, cell=True) if self.tracer else None
            t0 = time.perf_counter()
            try:
                result, error = fn(*args, **kwargs), None
            except Exception as exc:  # the cell fails; the sweep goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            if sp is not None:
                self.tracer.close(sp)
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        self.records.append(Cell(kind, label, seconds, result, t0, error,
                                 [str(w.message) for w in caught], layer=layer))
        if error is not None:
            raise RuntimeError(error)
        return result

    def bound_hooks(self) -> Patches:
        """Route the CLI's bound calls through call(), labelled by SNR."""
        patches = Patches()
        for name in BOUND_CELLS:
            def make(orig, name=name):
                def wrapper(spec, ch, *args, **kwargs):
                    label = f"{name}@{snr_label(ch)}"
                    return self.call("bounds", name, label, orig, spec, ch, *args, **kwargs)
                return wrapper
            patches.install(f"tsbounds.cli.{name}", make)
        if patches.missing:
            patches.restore()
            raise RuntimeError("; ".join(patches.missing.values()))
        return patches


def snr_label(ch: ChannelPoint) -> str:
    return f"{round(ch.eb_n0_db, 9):g}"


def bounds_argv(inp: dict, seed: int) -> list[str]:
    return ["bounds", "--generator", inp["path"], "--grid", inp["grid"],
            "--bounds", "tsb,itsb,ahp,psi", "--threads", "1", "--seed", str(seed)]


def sweep_argv(inp: dict, seed: int) -> list[str]:
    return ["exponent", "--ensemble", inp["sweep"], "--grid", inp["grid"], "--seed", str(seed)]


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _close(value: float, ref: float, slack: float = 0.0) -> bool:
    if math.isnan(ref):
        return math.isnan(value)
    return abs(value - ref) <= VALUE_RTOL * abs(ref) + slack


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def setup(name: str, size: str) -> dict:
    """Build a workload's inputs; the harness times this with the imports."""
    cfg = dict(SIZES[size][name])
    if "generator" in cfg:
        path = HERE / cfg["generator"]
        g = codes.load_generator(str(path))
        cfg.update(path=str(path), gen=g, spec=codes.enumerate_spectrum(g)[0])
    if name == "ensemble-conditioned":
        cfg["spec"] = codes.random_ensemble_spectrum(cfg["n"], cfg["rate"])
    if name == "exponent-assembly":
        cfg["specs"] = {n: codes.random_ensemble_spectrum(n, cfg["rate"]) for n in cfg["ns"]}
    return cfg


# ---------------------------------------------------------------------------
# passes: each returns the pass-level failures; cells land in `cells`
# ---------------------------------------------------------------------------


def run_pass(name: str, inp: dict, cells: Cells, seed: int, ref: dict) -> list[str]:
    return _PASSES[name](inp, cells, seed, ref)


def _golay_sweep(inp, cells, seed, ref):
    first = len(cells.records)
    hooks = cells.bound_hooks()
    try:
        code, csv = run_cli(bounds_argv(inp, seed))
    finally:
        hooks.restore()
    mine = cells.records[first:]
    problems = [] if code == 0 else [f"bounds exited with {code}"]
    if csv != ref["csv"]:
        problems += _csv_mismatch(csv, ref["csv"], mine)
    _check_bound_cells(mine)
    return problems


def _csv_mismatch(csv: str, ref_csv: str, mine: list[Cell]) -> list[str]:
    """Blame the cells whose printed value differs from the reference CSV;
    a CSV whose shape differs fails the whole pass."""
    got = [ln.split(",") for ln in csv.splitlines()]
    want = [ln.split(",") for ln in ref_csv.splitlines()]
    if len(got) != len(want) or got[0] != want[0] or any(len(r) != len(want[0]) for r in got):
        return ["bounds CSV shape differs from the reference"]
    header = want[0]
    by_label = {c.label: c for c in mine}
    for row, ref_row in zip(got[1:], want[1:]):
        for col, bound in enumerate(header):
            if bound.startswith("log_") or bound in ("eb_n0_db", "c"):
                continue
            if row[col:col + 2] != ref_row[col:col + 2] or row[:2] != ref_row[:2]:
                cell = by_label.get(f"{_cli_name(bound)}@{float(ref_row[0]):g}")
                msg = f"{bound} at {ref_row[0]} dB: CSV {row[col]} != reference {ref_row[col]}"
                if cell is None:
                    return [msg]
                cell.failures.append(msg)
    return []


def _cli_name(bound: str) -> str:
    return "tsb_block" if bound == "tsb" else bound


def _check_bound_cells(mine: list[Cell]) -> None:
    """Per-cell sanity and, per SNR, the orderings of the bound family:
    itsb <= tsb, ahp <= tsb, psi <= min(itsb, ahp), each within the two
    error budgets."""
    by_snr: dict[str, dict[str, Cell]] = {}
    for c in mine:
        if c.result is None:
            continue
        if not math.isfinite(c.result.log_value):
            c.failures.append("value is not finite")
        if not c.result.converged:
            c.failures.append("converged=False")
        by_snr.setdefault(c.label.split("@")[1], {})[c.kind] = c
    for snr, group in by_snr.items():
        for lo, hi in (("itsb", "tsb_block"), ("ahp", "tsb_block"),
                       ("psi", "itsb"), ("psi", "ahp")):
            if lo in group and hi in group:
                a, b = group[lo].result, group[hi].result
                if a.value > b.value + a.error_estimate + b.error_estimate + 1e-12 * b.value:
                    group[lo].failures.append(f"{lo} {a.value!r} > {hi} {b.value!r} at {snr} dB")


def _ensemble_conditioned(inp, cells, seed, ref):
    first = len(cells.records)
    for snr in inp["snrs"]:
        ch = ChannelPoint.from_eb_n0_db(snr, inp["rate"])
        for name in BOUND_CELLS:
            try:
                cells.call("bounds", name, f"{name}@{snr_label(ch)}", getattr(bounds, name),
                           inp["spec"], ch)
            except RuntimeError:
                pass  # recorded as a failed cell
    mine = cells.records[first:]
    for c in mine:
        want = ref["cells"].get(c.label)
        if c.result is None:
            continue
        if want is None:
            c.failures.append("no reference value")
        elif not _close(c.result.value, want["value"],
                        c.result.error_estimate + want["error_estimate"]):
            c.failures.append(f"value {c.result.value!r} != reference {want['value']!r}")
    _check_bound_cells(mine)
    return []


def _exponent_assembly(inp, cells, seed, ref):
    for n in inp["ns"]:
        for c in inp["cs"]:
            for name in ("chernoff_tsb", "chernoff_psi"):
                label = f"{name}@n={n},c={c:g}"
                try:
                    lv = cells.call("exponents", name, label, getattr(exponents, name),
                                    n, c, inp["specs"][n])
                except RuntimeError:
                    continue
                cell = cells.records[-1]
                want = ref["cells"].get(label)
                if want is None:
                    cell.failures.append("no reference value")
                elif not (math.isfinite(lv) and _close(lv, want)):
                    cell.failures.append(f"log bound {lv!r} != reference {want!r}")
    # The sweep is one CLI call; each row counts as a cell at the mean row time.
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, csv = run_cli(sweep_argv(inp, seed))
    wall = time.perf_counter() - t0
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    rows = csv.splitlines()[1:]
    want_rows = ref["sweep"]
    problems = [] if code == 0 else [f"exponent exited with {code}"]
    if len(rows) != len(want_rows):
        return problems + [f"exponent sweep has {len(rows)} rows, reference {len(want_rows)}"]
    per_row = wall / len(rows)
    for i, (row, want) in enumerate(zip(rows, want_rows)):
        got = [float(v) for v in row.split(",")]
        # the sweep's warnings go to its first row, so each counts once
        cell = Cell("exponent_row", f"row@{row.split(',')[0]}", per_row, got,
                    t0 + i * per_row, layer="exponents",
                    warnings=[str(w.message) for w in caught] if i == 0 else [])
        if not all(math.isfinite(v) for v in got[:4]):
            cell.failures.append("non-finite exponent")
        if len(got) != len(want) or not all(_close(a, b) for a, b in zip(got, want)):
            cell.failures.append(f"row {row} != reference {want}")
        cells.records.append(cell)
    return problems


def _simulate_golay(inp, cells, seed, ref):
    # One decoding thread: the host-speed sampler runs in the same thread,
    # and a pool would compete with it for the GIL and the cores.
    argv = ["simulate", "--generator", inp["path"], "--snr", f"{inp['snr']:g}",
            "--trials", str(inp["trials"]), "--seed", str(seed), "--threads", "1"]
    try:
        code, out = cells.call("mcsim", "simulate", f"simulate@{inp['snr']:g}", run_cli, argv)
    except RuntimeError:
        return []
    cell = cells.records[-1]
    cell.result = None
    if code != 0:
        cell.failures.append(f"simulate exited with {code}")
        return []
    report = cell.result = json.loads(out)
    p, se = report["block_error_rate"], report["std_error"]
    want = ref["block_error_rate"]
    if report["trials"] != inp["trials"]:
        cell.failures.append(f"ran {report['trials']} trials, asked {inp['trials']}")
    if abs(p - want["value"]) > SIM_Z * math.hypot(se, want["std_error"]):
        cell.failures.append(
            f"block error rate {p} outside {SIM_Z} se of reference {want['value']}")
    if not p <= ref["tsb"]:
        cell.failures.append(f"block error rate {p} above tsb {ref['tsb']}")
    if not report["bit_error_rate"] <= p:
        cell.failures.append("bit error rate above block error rate")
    earlier = [c.result for c in cells.records[:-1] if c.kind == "simulate" and c.result]
    if earlier and earlier[0] != report:
        cell.failures.append("same seed gave a different report")
    return []


def nproc() -> int:
    return len(os.sched_getaffinity(0))


_PASSES = {
    "golay-sweep": _golay_sweep,
    "ensemble-conditioned": _ensemble_conditioned,
    "exponent-assembly": _exponent_assembly,
    "simulate-golay": _simulate_golay,
}
