"""Command-line surface: compute distance spectra, sweep the finite-length
bounds over an E_b/N_0 grid, sweep the asymptotic exponents over an inverse
E_b/N_0 grid, and run the Monte-Carlo ML simulator.

All sweeps emit CSV with 17-significant-digit floats, so a fixed command line
reproduces byte-identical output.  Per-cell numeric failures become "nan"
cells; they, the bound cells whose quadrature did not converge and every
warning a sweep raised are listed in a JSON diagnostics sidecar next to the
output file, and each warning is then issued again.  The exit code is 3 only
when every cell of a sweep that can fail did; usage and input problems exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

from .bounds import BOUND_TOL, ChannelPoint, Plan, ahp, itsb, psi, tsb_block
from .codes import (
    GrowthRate,
    enumerate_spectrum,
    load_generator,
    load_spectrum,
    random_ensemble_spectrum,
    save_spectrum,
)
from .exponents import chernoff_psi, chernoff_tsb, gallager_rce, tsb_exponent, union_exponent
from .numerics import Tolerance

BOUND_CHOICES = ("tsb", "tsb-bit", "itsb", "ahp", "psi", "chernoff-tsb", "chernoff-psi")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

GRID_MAX = 10_000  # the most points a grid may hold; the largest documented sweep has 17


def parse_grid(text: str) -> list[float]:
    """Parse "start:stop:step" into an inclusive grid; a bare number is a
    single-point grid.  Every value must be finite, and the point count is
    checked against GRID_MAX before any point is made."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ValueError(f"grid must be start:stop:step or a single value, got {text!r}")
    values = [float(p) for p in parts]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"grid values must be finite, got {text!r}")
    if len(values) == 1:
        return values
    start, stop, step = values
    if step <= 0.0:
        raise ValueError(f"grid step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"grid is empty: stop {stop} < start {start}")
    steps = (stop - start) / step + 1e-9
    if not steps < GRID_MAX:  # an infinite count too
        count = math.floor(steps) + 1 if math.isfinite(steps) else steps
        raise ValueError(f"grid {text!r} has {count} points, more than {GRID_MAX}")
    return [start + i * step for i in range(math.floor(steps) + 1)]


def _thread_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _code_rate(text: str) -> float:
    rate = float(text)
    if not 0 < rate <= 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {rate}")
    return rate


def _parse_ensemble(text: str) -> tuple[int, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"ensemble must be 'n,rate', got {text!r}")
    return int(parts[0]), float(parts[1])


def _resolve_source(args, sub):
    """Load the code description: (spectrum, bit-spectrum-or-None, rate).
    Only a generator gives a bit spectrum, enumerated with the block one."""
    if args.generator:
        g = load_generator(args.generator)
        spec, bit_spec = enumerate_spectrum(g)
        return spec, bit_spec, g.rate
    if args.spectrum:
        spec = load_spectrum(args.spectrum)
        rate = args.rate if args.rate is not None else spec.rate
        if rate is None:
            sub.error("spectrum file carries no rate; pass --rate")
        return spec, None, rate
    n, rate = _parse_ensemble(args.ensemble)
    return random_ensemble_spectrum(n, rate), None, rate


def _write_text(out: str | None, text: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_sweep(args, grid, header: str, row, failable: int) -> int:
    """Run row on every grid point (in args.threads worker threads) and write
    the CSV.  row(x) returns the row's cells, its failures and its
    unconverged cells.  One catch in this thread records every warning the
    rows raise: the warning filters are process-wide, and a catch per worker
    thread is not thread-safe.  The sidecar, <out>.diag.json or stderr when
    there is no --out, is written only when a cell failed, did not converge
    or warned; each caught warning is then issued again (no registry: each
    is shown, none deduplicated).  Returns EXIT_NUMERIC exactly when all
    failable cells of every row failed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.threads == 1:
            results = [row(x) for x in grid]
        else:
            with ThreadPoolExecutor(max_workers=args.threads) as pool:
                results = list(pool.map(row, grid))
    lines = [header] + [",".join(f"{v:.17g}" for v in cells) for cells, _, _ in results]
    _write_text(args.out, "\n".join(lines) + "\n")
    failures = [f for _, fails, _ in results for f in fails]
    unconverged = [u for _, _, unconv in results for u in unconv]
    if failures or unconverged or caught:
        diag = {"failures": failures}
        if unconverged:
            diag["unconverged"] = unconverged
        if caught:
            diag["warnings"] = [
                {"category": c, "message": m}
                for c, m in sorted((w.category.__name__, str(w.message)) for w in caught)
            ]
        payload = json.dumps(diag, indent=1, sort_keys=True) + "\n"
        if args.out:
            _write_text(args.out + ".diag.json", payload)
        else:
            sys.stderr.write(payload)
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return EXIT_NUMERIC if len(failures) == failable * len(grid) else EXIT_OK


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_spectrum(args, sub) -> int:
    if not args.out:
        sub.error("spectrum needs --out for the JSON payload")
    g = load_generator(args.generator)
    spec, _ = enumerate_spectrum(g)
    save_spectrum(spec, args.out)
    lines = [
        f"({g.n},{g.k}) code, rate {g.k}/{g.n}, d_min = {spec.d_min}",
        f"{'h':>4} {'A_h':>12}",
    ]
    for h in range(spec.n + 1):
        lv = float(spec.log_a[h])
        if lv > -math.inf:
            lines.append(f"{h:>4} {round(math.exp(lv)):>12}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_bounds(args, sub) -> int:
    names = list(dict.fromkeys(b.strip() for b in args.bounds.split(",") if b.strip()))
    if not names:
        sub.error("at least one bound must be selected")
    for b in names:
        if b not in BOUND_CHOICES:
            sub.error(f"unknown bound {b!r}; choose from {', '.join(BOUND_CHOICES)}")
    spec, bit_spec, rate = _resolve_source(args, sub)
    if "tsb-bit" in names and bit_spec is None:
        sub.error("tsb-bit needs a generator source (input weights)")
    grid = parse_grid(args.grid)
    points = {db: ChannelPoint.from_eb_n0_db(db, rate) for db in grid}
    tol = Tolerance(
        abs_tol=args.tol_abs, rel_tol=args.tol_rel, max_iter=BOUND_TOL.max_iter
    )
    # One plan per spectrum for the whole grid and one term cache per row,
    # shared by the bounds of that row.  A plan that cannot be built (say
    # n < 3) is left out; each cell then records that error itself.
    plans = {}
    if {"tsb", "itsb", "ahp", "psi"} & set(names):
        try:
            plans["spec"] = Plan(spec)
        except ValueError:
            pass
    if "tsb-bit" in names:
        try:
            plans["bit"] = Plan(bit_spec)
        except ValueError:
            pass
    evals = {
        "tsb": lambda ch, t: tsb_block(spec, ch, tol, terms=t.get("spec")),
        "tsb-bit": lambda ch, t: tsb_block(bit_spec, ch, tol, terms=t.get("bit")),
        "itsb": lambda ch, t: itsb(spec, ch, tol, terms=t.get("spec")),
        "ahp": lambda ch, t: ahp(spec, ch, tol, terms=t.get("spec")),
        "psi": lambda ch, t: psi(spec, ch, tol, terms=t.get("spec")),
        "chernoff-tsb": lambda ch, t: chernoff_tsb(spec.n, ch.c, spec),
        "chernoff-psi": lambda ch, t: chernoff_psi(spec.n, ch.c, spec),
    }

    def row(db: float):
        ch = points[db]
        caches = {key: plan.at(ch, tol) for key, plan in plans.items()}
        cells, fails, unconv = [db, ch.c], [], []
        for name in names:
            at = {"eb_n0_db": db, "bound": name}
            try:
                res = evals[name](ch, caches)
                lv = getattr(res, "log_value", res)
                cells.extend([math.exp(lv), lv])
                if not getattr(res, "converged", True):  # chernoff-*: a bare log
                    unconv.append(at | {"error_estimate": res.error_estimate})
            except Exception as exc:  # recorded per cell, sweep continues
                cells.extend([math.nan, math.nan])
                fails.append(at | {"error": str(exc)})
        return cells, fails, unconv

    header = "eb_n0_db,c," + ",".join(f"{b},log_{b}" for b in names)
    return _csv_sweep(args, grid, header, row, len(names))


def cmd_exponent(args, sub) -> int:
    spec, _, rate = _resolve_source(args, sub)
    gr = GrowthRate.from_spectrum(spec)
    grid = parse_grid(args.grid)
    if any(x <= 0.0 for x in grid):
        sub.error("inverse E_b/N_0 values must be positive")
    points = {}
    for inv in grid:  # a refused point names its grid value, as from_eb_n0_db names the dB
        try:
            points[inv] = ChannelPoint(c=rate / inv, rate=rate)
        except ValueError as exc:
            raise ValueError(f"inverse E_b/N_0 = {inv}: {exc}") from None

    def row(inv: float):
        c = points[inv].c
        fails = []
        try:
            e_ub = union_exponent(gr, c).exponent
            t = tsb_exponent(gr, c)
            e_tsb, d_star = t.exponent, t.delta_star
        except ValueError as exc:
            # no admissible weight: flagged row, zeros by convention
            e_ub, e_tsb, d_star = 0.0, 0.0, math.nan
            fails.append({"inv_eb_n0": inv, "column": "e_tsb", "error": str(exc)})
        try:
            e_rce = gallager_rce(rate, c)
        except Exception as exc:
            e_rce = math.nan
            fails.append({"inv_eb_n0": inv, "column": "e_rce", "error": str(exc)})
        return (inv, e_ub, e_tsb, e_rce, d_star), fails, []

    # e_ub fails together with e_tsb, so a row has two failable cells
    return _csv_sweep(args, grid, "inv_eb_n0,e_ub,e_tsb,e_rce,delta_star", row, 2)


def cmd_simulate(args, sub) -> int:
    from .mcsim import CI_ALPHA, simulate_ml

    g = load_generator(args.generator)
    ch = ChannelPoint.from_eb_n0_db(args.snr, g.rate)
    est = simulate_ml(
        g, ch, args.trials, args.seed, transmit=args.transmit, threads=args.threads
    )
    lower, upper = est.block_error_ci()
    report = {
        "code": {"n": g.n, "k": g.k, "rate": g.rate},
        "channel": {"eb_n0_db": args.snr, "c": ch.c},
        "trials": est.trials,
        "seed": est.seed,
        "transmit": args.transmit,
        "block_error_rate": est.block_error_rate,
        "block_error_ci": {"level": 1.0 - CI_ALPHA, "lower": lower, "upper": upper},
        "std_error": est.std_error,
        "bit_error_rate": est.bit_error_rate,
        "bit_std_error": est.bit_std_error,
        "full_decodes": est.full_decodes,
    }
    _write_text(args.out, json.dumps(report, indent=1, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output path (default: stdout)")

    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument(
        "--threads", type=_thread_count, default=1,
        help="worker threads, at least 1 (grid rows or trial chunks)",
    )
    runs.add_argument(
        "--seed", type=int, default=0, help="RNG seed of simulate; bounds and exponent "
        "draw no random numbers and accept it so that scripted runs "
        "(benchmarks/workloads.py) pass one seed to every subcommand",
    )

    source = argparse.ArgumentParser(add_help=False)
    group = source.add_mutually_exclusive_group(required=True)
    group.add_argument("--generator", help="generator matrix file ('k n' header, 0/1 rows)")
    group.add_argument("--spectrum", help="spectrum JSON file (spectrum subcommand format)")
    group.add_argument("--ensemble", help="random ensemble as 'n,rate'")
    source.add_argument(
        "--rate", type=_code_rate,
        help="code rate in (0, 1], overriding the spectrum file's",
    )

    parser = argparse.ArgumentParser(
        prog="tsbounds",
        description="Upper bounds on ML decoding error probability for binary "
        "linear block codes over BPSK-AWGN, with matching error exponents.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_spec = subs.add_parser(
        "spectrum",
        parents=[common],
        help="enumerate a code's distance spectrum to JSON plus a weight table",
    )
    p_spec.add_argument("--generator", required=True, help="generator matrix file")
    p_spec.set_defaults(func=cmd_spectrum)

    p_bounds = subs.add_parser(
        "bounds",
        parents=[common, runs, source],
        help="sweep finite-length bounds over an E_b/N_0 grid to CSV",
    )
    p_bounds.add_argument(
        "--tol-abs",
        type=float,
        default=BOUND_TOL.abs_tol,
        help="absolute quadrature tolerance of the bound integrals",
    )
    p_bounds.add_argument(
        "--tol-rel",
        type=float,
        default=BOUND_TOL.rel_tol,
        help="relative quadrature tolerance of the bound integrals",
    )
    p_bounds.add_argument(
        "--grid", required=True, help="E_b/N_0 grid in dB as start:stop:step"
    )
    p_bounds.add_argument(
        "--bounds",
        required=True,
        help=f"comma-separated subset of: {', '.join(BOUND_CHOICES)} (psi is an envelope, "
        "not a bound)",
    )
    p_bounds.set_defaults(func=cmd_bounds)

    p_exp = subs.add_parser(
        "exponent",
        parents=[common, runs, source],
        help="sweep asymptotic exponents over an inverse E_b/N_0 grid to CSV",
    )
    p_exp.add_argument(
        "--grid", required=True, help="inverse E_b/N_0 grid as start:stop:step"
    )
    p_exp.set_defaults(func=cmd_exponent)

    p_sim = subs.add_parser(
        "simulate",
        parents=[common, runs],
        help="Monte-Carlo ML decoding simulation, JSON report",
    )
    p_sim.add_argument("--generator", required=True, help="generator matrix file")
    p_sim.add_argument("--snr", type=float, required=True, help="E_b/N_0 in dB")
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument(
        "--transmit", choices=("zero", "random"), default="zero",
        help="transmit the all-zero codeword or a uniform random message",
    )
    p_sim.set_defaults(func=cmd_simulate)

    # let each subcommand report usage errors with its own usage line
    for sub in (p_spec, p_bounds, p_exp, p_sim):
        sub.set_defaults(sub=sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, args.sub)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
