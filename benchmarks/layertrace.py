"""Outside-in layer trace for the tsbounds benchmark.

Nothing under ``src/`` is changed.  While a traced pass runs, wrappers from
this file replace module attributes at the call sites through which one layer
reaches the next (for example ``tsbounds.bounds.gammainc``, the name the
``bounds`` module calls the scipy kernel by) and are removed afterwards.
Every wrapped call records a span (layer, name, start, end, parent, cell);
the spans stay in memory and are written out when the run ends.  A layer's
self time is the time of its spans minus the time their child spans cover.

A hook whose attribute no longer exists is not installed; every counter fed
by it is then reported as unavailable, with the reason, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, fields

import numpy as np

BOUND_CELLS = ("tsb_block", "itsb", "ahp", "psi")
EXPONENT_CALLS = ("chernoff_tsb", "chernoff_psi", "tsb_exponent",
                  "union_exponent", "gallager_rce")


@dataclass(slots=True)
class Span:
    id: int
    layer: str
    name: str
    start: float
    end: float
    parent: int | None
    cell: int | None


def _resolve(target: str):
    module_name, attr = target.rsplit(".", 1)
    return importlib.import_module(module_name), attr


class Patches:
    """Module attributes replaced for the length of a pass, and the ones
    that could not be because they no longer exist."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self.missing: dict[str, str] = {}

    def install(self, target: str, make) -> None:
        module, attr = _resolve(target)
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing[target] = f"{target} no longer exists"
            return
        setattr(module, attr, functools.wraps(orig)(make(orig)))
        self._saved.append((module, attr, orig))

    def restore(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)


class Tracer:
    """In-memory span recorder.  Spans nest per thread; a cell span starts
    a new cell id that every span below it shares."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.patches = Patches()
        self._local = threading.local()
        self._cells = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str, cell: bool = False) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if cell:
            self._cells += 1
            cell_id = self._cells
        else:
            cell_id = parent.cell if parent else None
        sp = Span(len(self.spans), layer, name, time.perf_counter(), 0.0,
                  parent.id if parent else None, cell_id)
        self.spans.append(sp)
        stack.append(sp)
        return sp

    def close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack().pop()

    # -- wrappers --------------------------------------------------------

    def _spanned(self, fn, layer: str, name: str, cell: bool = False):
        def wrapper(*args, **kwargs):
            sp = self.open(layer, name, cell)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sp)
        return wrapper

    def _counted(self, fn, layer: str, key: str, nodes: bool):
        # Integrands and objectives: one call is one panel or one evaluation.
        inner = self._spanned(fn, layer, key)

        def wrapper(x):
            self.counts[key] += 1
            if nodes:
                self.counts[key + ".nodes"] += int(np.size(x))
            return inner(x)
        return wrapper

    def hook(self, target: str, layer: str, name: str, kind: str = "span",
             caller: str = "") -> None:
        """Install one wrapper.  kind selects what is counted besides the
        span: "kernel" counts broadcast nodes, "integrate" and "minimize"
        also wrap the callable argument (charged to the caller's layer),
        "mcsim" reads trials and errors off the result, "cell" starts a cell."""

        def make(orig):
            spanned = self._spanned(orig, layer, name, cell=kind == "cell")
            if kind == "kernel":
                def wrapper(*args, **kwargs):
                    self.counts[name + ".nodes"] += int(np.broadcast(*args).size)
                    return spanned(*args, **kwargs)
            elif kind in ("integrate", "minimize"):
                key = "integrand" if kind == "integrate" else "objective"

                def wrapper(f, *args, **kwargs):
                    g = self._counted(f, caller, key, kind == "integrate")
                    res = spanned(g, *args, **kwargs)
                    if kind == "integrate" and not res.converged:
                        self.counts["unconverged"] += 1
                    return res
            elif kind == "mcsim":
                def wrapper(g, ch, trials, *args, **kwargs):
                    est = spanned(g, ch, trials, *args, **kwargs)
                    self.counts["trials"] += est.trials
                    self.counts["block_errors"] += round(est.block_error_rate * est.trials)
                    self.counts["gemm_flops"] += 2 * est.trials * (1 << g.k) * g.n
                    return est
            else:
                wrapper = spanned
            return wrapper

        self.patches.install(target, make)

    def install(self) -> None:
        b, e, c, k = "tsbounds.bounds.", "tsbounds.exponents.", "tsbounds.cli.", "tsbounds.codes."
        # Bound cells and chernoff calls are spanned by the harness, which
        # times them in untraced runs too.
        self.hook(c + "main", "cli", "main")
        for name in ("tsb_exponent", "union_exponent", "gallager_rce"):
            self.hook(c + name, "exponents", name, "cell")
        for module in (c, k):
            for name in ("load_generator", "enumerate_spectrum", "random_ensemble_spectrum"):
                self.hook(module + name, "codes", name)
        self.hook(b + "solve_cone_radius", "bounds", "solve_cone_radius")
        self.hook(b + "alpha_theta", "geometry", "alpha_theta")
        self.hook(b + "adaptive_integrate", "numerics", "adaptive_integrate",
                  "integrate", caller="bounds")
        self.hook(b + "gammainc", "kernel", "gammainc", "kernel")
        self.hook(b + "gammaincc", "kernel", "gammaincc", "kernel")
        self.hook(e + "adaptive_integrate", "numerics", "adaptive_integrate",
                  "integrate", caller="exponents")
        self.hook(e + "minimize_1d", "numerics", "minimize_1d", "minimize",
                  caller="exponents")
        self.hook("tsbounds.mcsim.simulate_ml", "mcsim", "simulate_ml", "mcsim")

    def restore(self) -> None:
        self.patches.restore()

    def write(self, path) -> None:
        names = [f.name for f in fields(Span)]
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps({n: getattr(sp, n) for n in names}) + "\n")

    # -- aggregation -----------------------------------------------------

    def layer_metrics(self, cells, proc: dict) -> dict:
        """Per-layer metrics of the traced pass.  cells are the harness's
        cell records (warnings, error budgets); proc holds the process
        figures the harness measured."""
        covered: dict[int, float] = defaultdict(float)
        for sp in self.spans:
            if sp.parent is not None:
                covered[sp.parent] += sp.end - sp.start
        total: Counter = Counter()
        self_s: Counter = Counter()
        calls: Counter = Counter()
        outer_codes = 0.0
        for sp in self.spans:
            dur = sp.end - sp.start
            total[sp.name] += dur
            calls[(sp.layer, sp.name)] += 1
            self_s[sp.layer] += dur - covered[sp.id]
            self_s[(sp.layer, sp.name)] += dur - covered[sp.id]
            parent = self.spans[sp.parent] if sp.parent is not None else None
            if sp.layer == "codes" and (parent is None or parent.layer != "codes"):
                outer_codes += dur
        nodes = self.counts["gammainc.nodes"] + self.counts["gammaincc.nodes"]
        kernel_s = total["gammainc"] + total["gammaincc"]
        err_rel = [c.result.error_estimate / c.result.value for c in cells
                   if hasattr(c.result, "error_estimate") and c.result.value > 0.0]
        sim_s = total["simulate_ml"]
        m = {
            "kernel.gammainc_calls": (calls[("kernel", "gammainc")], "count"),
            "kernel.gammainc_nodes": (self.counts["gammainc.nodes"], "count"),
            "kernel.gammainc_s": (total["gammainc"], "s"),
            "kernel.gammaincc_nodes": (self.counts["gammaincc.nodes"], "count"),
            "kernel.ns_per_node": (kernel_s / nodes * 1e9 if nodes else 0.0, "ns"),
            # x read and result written, 8 bytes each; the order is a scalar
            "kernel.bytes_computed": (16 * nodes, "B"),
            "numerics.integrals": (calls[("numerics", "adaptive_integrate")], "count"),
            "numerics.panels": (self.counts["integrand"], "count"),
            "numerics.nodes": (self.counts["integrand.nodes"], "count"),
            "numerics.integrate_self_s": (self_s[("numerics", "adaptive_integrate")], "s"),
            "numerics.unconverged": (self.counts["unconverged"], "count"),
            "numerics.minimize_calls": (calls[("numerics", "minimize_1d")], "count"),
            "numerics.objective_evals": (self.counts["objective"], "count"),
            "numerics.minimize_s": (self_s[("numerics", "minimize_1d")], "s"),
            "bounds.self_s": (self_s["bounds"], "s"),
            "bounds.cone_solves": (calls[("bounds", "solve_cone_radius")], "count"),
            "bounds.cone_solve_s": (total["solve_cone_radius"], "s"),
            "bounds.err_budget_rel_max": (max(err_rel, default=0.0), "ratio"),
            "bounds.warnings": (sum(c.warnings_of("bounds") for c in cells), "count"),
            "geometry.calls": (calls[("geometry", "alpha_theta")], "count"),
            "geometry.s": (total["alpha_theta"], "s"),
            "exponents.self_s": (self_s["exponents"], "s"),
            "exponents.edge_pin_warnings": (sum(c.warnings_of("exponents") for c in cells),
                                            "count"),
            "mcsim.trials": (self.counts["trials"], "count"),
            "mcsim.block_errors": (self.counts["block_errors"], "count"),
            "mcsim.gemm_flops_computed": (self.counts["gemm_flops"], "flop"),
            "mcsim.gflops": (self.counts["gemm_flops"] / sim_s / 1e9 if sim_s else 0.0, "Gflop/s"),
            "codes.spectrum_s": (outer_codes, "s"),
            "cli.self_s": (self_s["cli"], "s"),
        }
        for name in BOUND_CELLS:
            m[f"bounds.calls.{name}"] = (calls[("bounds", name)], "count")
        for name in EXPONENT_CALLS:
            m[f"exponents.calls.{name}"] = (calls[("exponents", name)], "count")
        m.update(proc)
        return {k: self._metric(k, v, u) for k, (v, u) in m.items()}

    def _metric(self, name: str, value, unit: str) -> dict:
        gone = [reason for target, reason in self.patches.missing.items()
                if _feeds(target, name)]
        if gone:
            return {"value": None, "unit": unit, "unavailable": "; ".join(gone)}
        return {"value": value, "unit": unit}


# Which hooks feed which metrics: a metric is unavailable when any hook it
# is computed from could not be installed.
_FEEDS = {
    "gammainc": ("kernel.gammainc_", "kernel.ns_per_node", "kernel.bytes"),
    "gammaincc": ("kernel.gammaincc_", "kernel.ns_per_node", "kernel.bytes"),
    "adaptive_integrate": ("numerics.integ", "numerics.panels", "numerics.nodes",
                           "numerics.unconverged"),
    "minimize_1d": ("numerics.minimize", "numerics.objective"),
    "solve_cone_radius": ("bounds.cone",),
    "alpha_theta": ("geometry.",),
    "simulate_ml": ("mcsim.",),
    "main": ("cli.self_s",),
    "load_generator": ("codes.",),
    "enumerate_spectrum": ("codes.",),
    "random_ensemble_spectrum": ("codes.",),
}


def _feeds(target: str, metric: str) -> bool:
    attr = target.rsplit(".", 1)[1]
    if attr in BOUND_CELLS or attr in EXPONENT_CALLS:
        return metric.endswith("calls." + attr)
    return metric.startswith(_FEEDS.get(attr, ()))
