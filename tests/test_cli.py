"""Command-line surface tests: subcommand contracts, CSV header and format
stability, byte determinism, per-cell failure handling, and exit codes."""

import json
import math
import warnings
from dataclasses import replace

import pytest

from tsbounds import bounds, cli, exponents
from tsbounds.cli import main, parse_grid
from tsbounds.codes import load_spectrum

HAMMING_GEN = "4 7\n1000110\n0100011\n0010111\n0001101\n"


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


@pytest.fixture()
def gen_file(tmp_path):
    p = tmp_path / "hamming.gen"
    p.write_text(HAMMING_GEN)
    return str(p)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# grid parsing
# ---------------------------------------------------------------------------


def test_parse_grid():
    assert parse_grid("0:8:2") == [0.0, 2.0, 4.0, 6.0, 8.0]
    assert parse_grid("4") == [4.0]
    assert parse_grid("4:4:1") == [4.0]
    # inclusive endpoint survives float stepping
    assert parse_grid("0.45:0.85:0.05")[-1] == pytest.approx(0.85)
    assert len(parse_grid("0.45:0.85:0.05")) == 9
    with pytest.raises(ValueError):
        parse_grid("0:8:-1")
    with pytest.raises(ValueError):
        parse_grid("8:0:1")
    with pytest.raises(ValueError):
        parse_grid("1:2")
    for text in ("nan", "inf", "0:inf:1", "0.5:nan:0.1", "0.5:0.6:inf"):
        with pytest.raises(ValueError, match="finite"):
            parse_grid(text)
    assert len(parse_grid(f"1:{cli.GRID_MAX}:1")) == cli.GRID_MAX


def test_grid_with_an_infinite_count_is_usage_error(capsys):
    # Finite ends and step whose count overflows to inf: refused with the
    # count named, by each subcommand, not an OverflowError traceback.
    with pytest.raises(ValueError, match="has inf points"):
        parse_grid("0:1e308:1e-308")
    for argv in (["bounds", "--ensemble", "12,0.5", "--bounds", "tsb"],
                 ["exponent", "--ensemble", "12,0.5"]):
        assert run_cli(argv + ["--grid", "0:1e308:1e-308"]) == 2
        assert "has inf points" in capsys.readouterr().err


def test_grid_above_the_cap_is_refused_before_it_is_built(monkeypatch, capsys):
    # A finite but huge count is refused with the count named before any
    # point is made: range, which makes the points, is never reached.
    def no_range(*args):
        raise AssertionError(f"range{args} called")

    monkeypatch.setattr(cli, "range", no_range, raising=False)
    with pytest.raises(ValueError, match=f"8000000000 points, more than {cli.GRID_MAX}"):
        parse_grid("0:8:1e-9")
    with pytest.raises(ValueError, match=f"{cli.GRID_MAX + 1} points"):
        parse_grid(f"0:{cli.GRID_MAX}:1")
    for argv in (["bounds", "--ensemble", "12,0.5", "--bounds", "tsb"],
                 ["exponent", "--ensemble", "12,0.5"]):
        assert run_cli(argv + ["--grid", "0:8:1e-9"]) == 2
        assert "8000000000 points" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_roundtrip(gen_file, tmp_path, capsys):
    out = tmp_path / "spec.json"
    assert run_cli(["spectrum", "--generator", gen_file, "--out", str(out)]) == 0
    spec = load_spectrum(str(out))
    assert spec.n == 7
    assert spec.d_min == 3
    assert float(spec.log_a[3]) == pytest.approx(math.log(7), rel=1e-15)
    table = capsys.readouterr().out
    assert "d_min = 3" in table
    assert "(7,4) code" in table


def test_spectrum_malformed_row_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.gen"
    bad.write_text("4 7\n1000110\n01000\n0010111\n0001101\n")
    assert run_cli(["spectrum", "--generator", str(bad), "--out", str(tmp_path / "x.json")]) == 2
    assert "line 3" in capsys.readouterr().err


def test_spectrum_missing_file_exits_2(tmp_path, capsys):
    assert run_cli(["spectrum", "--generator", str(tmp_path / "nope.gen"),
                    "--out", str(tmp_path / "x.json")]) == 2


def test_spectrum_requires_out(gen_file):
    assert run_cli(["spectrum", "--generator", gen_file]) == 2


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_ordering_and_header(gen_file, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run_cli(["bounds", "--generator", gen_file, "--grid", "0:8:1",
                  "--bounds", "tsb,itsb", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["eb_n0_db", "c", "tsb", "log_tsb", "itsb", "log_itsb"]
    assert len(rows) == 9
    for row in rows:
        db, c, tsb_v, log_tsb, itsb_v, log_itsb = row
        assert c == pytest.approx(4 / 7 * 10 ** (db / 10), rel=1e-15)
        assert itsb_v <= tsb_v * (1 + 1e-9)
        assert math.exp(log_tsb) == pytest.approx(tsb_v, rel=1e-12)


def test_bounds_deterministic_and_thread_invariant(gen_file, tmp_path):
    args = ["bounds", "--generator", gen_file, "--grid", "0:4:2", "--bounds", "tsb,psi"]
    outs = []
    for name, extra in [("a.csv", []), ("b.csv", []), ("c.csv", ["--threads", "3"])]:
        out = tmp_path / name
        assert run_cli(args + ["--out", str(out)] + extra) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] == outs[2]


def test_bounds_spectrum_source_path_independent(gen_file, tmp_path):
    spec_json = tmp_path / "spec.json"
    assert run_cli(["spectrum", "--generator", gen_file, "--out", str(spec_json)]) == 0
    a, b = tmp_path / "from_gen.csv", tmp_path / "from_spec.csv"
    common = ["--grid", "0:8:2", "--bounds", "tsb"]
    assert run_cli(["bounds", "--generator", gen_file, "--out", str(a)] + common) == 0
    assert run_cli(["bounds", "--spectrum", str(spec_json), "--out", str(b)] + common) == 0
    assert a.read_bytes() == b.read_bytes()


# Frozen `bounds` CSV for the Hamming code: the regression oracle for
# changes that must leave every bound value unchanged.
HAMMING_BOUNDS_CSV = (
    "eb_n0_db,c,tsb,log_tsb,itsb,log_itsb,ahp,log_ahp,psi,log_psi\n"
    "2,0.90565325283492204,0.065356563010782229,-2.727897415327404,0.065356563010782229,-2.727897415327404,0.065356563010782229,-2.727897415327404,0.0332211472496498,-3.4045686404851225\n"
    "4,1.4353636751483314,0.012058727537198799,-4.4179666042614842,0.012058727537198799,-4.4179666042614842,0.012058727537198799,-4.4179666042614842,0.0043577044420792851,-5.4358098643834083\n"
)


# The same for the Golay code at 4 dB: the golay-sweep row of the benchmark.
GOLAY_BOUNDS_CSV = (
    "eb_n0_db,c,tsb,log_tsb,itsb,log_itsb,ahp,log_ahp,psi,log_psi\n"
    "4,1.3105494425267374,0.0026093711074148553,-5.9486460416953237,0.0026093711074148553,-5.9486460416953237,0.0026093711074148553,-5.9486460416953237,0.00080255146891985854,-7.1277145692910304\n"
)


def test_bounds_csv_frozen(gen_file, golay2312, tmp_path):
    golay_file = tmp_path / "golay.gen"
    golay_file.write_text(
        "12 23\n" + "".join("".join(map(str, row)) + "\n" for row in golay2312.bits)
    )
    for name, source, grid, want in (("hamming", gen_file, "2:4:2", HAMMING_BOUNDS_CSV),
                                      ("golay", str(golay_file), "4", GOLAY_BOUNDS_CSV)):
        out = tmp_path / f"{name}.csv"
        argv = ["bounds", "--generator", source, "--grid", grid,
                "--bounds", "tsb,itsb,ahp,psi", "--out", str(out)]
        assert run_cli(argv) == 0
        assert out.read_text() == want
        assert not (tmp_path / f"{name}.csv.diag.json").exists()  # every cell converged


def test_bounds_share_one_plan_and_row_cache(gen_file, tmp_path, monkeypatch):
    # One cone solve per spectrum for the whole grid (the code's and the
    # bit spectrum's), and no term integrated twice within a row: the row's
    # bounds share one term cache per spectrum.  Terms are told apart by
    # their cache key (itsb's and ahp's conditioned terms share labels).
    solves, computed = [], []
    orig_solve, orig_outer = bounds.solve_cone_radius, bounds._Engine._outer

    def solve_spy(spec):
        solves.append(spec.kind)
        return orig_solve(spec)

    def outer_spy(self, key):
        computed.append((self.ch, self.plan.spec.kind, key))
        return orig_outer(self, key)

    monkeypatch.setattr(bounds, "solve_cone_radius", solve_spy)
    monkeypatch.setattr(bounds._Engine, "_outer", outer_spy)
    argv = ["bounds", "--generator", gen_file, "--grid", "0:4:2",
            "--bounds", "tsb,itsb,ahp,psi,tsb-bit", "--out", str(tmp_path / "b.csv")]
    assert run_cli(argv) == 0
    assert solves == ["code", "bit"]
    assert len({(ch, kind) for ch, kind, _ in computed}) == 3 * 2  # rows x spectra
    assert len(set(computed)) == len(computed)


def test_bounds_usage_errors(gen_file, tmp_path):
    base = ["bounds", "--generator", gen_file, "--grid", "0:4:2"]
    assert run_cli(base + ["--bounds", ""]) == 2
    assert run_cli(base + ["--bounds", "frobnicate"]) == 2
    assert run_cli(["bounds", "--generator", gen_file, "--grid", "4:0:1",
                    "--bounds", "tsb"]) == 2
    # tsb-bit needs input weights, which a bare spectrum cannot supply
    spec_json = tmp_path / "spec.json"
    run_cli(["spectrum", "--generator", gen_file, "--out", str(spec_json)])
    assert run_cli(["bounds", "--spectrum", str(spec_json), "--grid", "0:4:2",
                    "--bounds", "tsb-bit"]) == 2
    # exactly one source
    assert run_cli(["bounds", "--grid", "0:4:2", "--bounds", "tsb"]) == 2
    assert run_cli(["bounds", "--generator", gen_file, "--ensemble", "64,0.5",
                    "--grid", "0:4:2", "--bounds", "tsb"]) == 2


def test_ensemble_above_the_cap_is_usage_error(capsys):
    # An ensemble too long to build is refused before any binomial is
    # computed, by each subcommand that takes one.
    for argv in (["bounds", "--grid", "4", "--bounds", "tsb"],
                 ["exponent", "--grid", "0.5"]):
        assert run_cli(argv + ["--ensemble", "4000000,0.5"]) == 2
        assert "n <= 65536" in capsys.readouterr().err


def test_bounds_chernoff_dominates_exact(gen_file, tmp_path):
    out = tmp_path / "chernoff.csv"
    rc = run_cli(["bounds", "--generator", gen_file, "--grid", "2:2:1",
                  "--bounds", "tsb,chernoff-tsb", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header[2:] == ["tsb", "log_tsb", "chernoff-tsb", "log_chernoff-tsb"]
    assert rows[0][4] >= rows[0][2]


def test_bounds_total_failure_exits_3_with_sidecar(tmp_path):
    # the envelope assembly needs a reference layer, which n = 1 cannot
    # supply: every cell fails, the CSV is all-nan, and the diagnostics
    # sidecar names the error
    spec_json = tmp_path / "repetition1.json"
    spec_json.write_text(json.dumps({
        "kind": "code", "n": 1, "d_min": 1, "rate": 0.5,
        "log_a": [0.0, 0.0],
    }))
    out = tmp_path / "fail.csv"
    rc = run_cli(["bounds", "--spectrum", str(spec_json), "--grid", "0:2:1",
                  "--bounds", "chernoff-psi", "--out", str(out)])
    assert rc == 3
    _, rows = read_csv(out)
    assert len(rows) == 3
    assert all(math.isnan(row[2]) for row in rows)
    diag = json.loads((tmp_path / "fail.csv.diag.json").read_text())
    assert len(diag["failures"]) == 3
    assert diag["failures"][0]["bound"] == "chernoff-psi"
    assert "n >= 2" in diag["failures"][0]["error"]


@pytest.mark.parametrize("flag", ["--tol-rel", "--tol-abs"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_is_usage_error(gen_file, tmp_path, capsys, flag, value):
    # a nan or inf tolerance is a usage error: exit 2 and no CSV, never a
    # sweep of unconverged cells or of cells marked converged on one panel
    out = tmp_path / "x.csv"
    assert run_cli(["bounds", "--generator", gen_file, "--grid", "4", "--bounds", "tsb",
                    flag, value, "--out", str(out)]) == 2
    assert not out.exists()
    assert "tolerances must be finite" in capsys.readouterr().err


def test_bounds_unconverged_cells_reach_sidecar(gen_file, tmp_path):
    # a relative tolerance below double precision leaves the quadrature
    # unconverged: the cells keep their values and the exit code stays 0,
    # and the sidecar lists each such cell with its error estimate (the
    # exponential assembly has no quadrature and is never listed)
    out = tmp_path / "tight.csv"
    argv = ["bounds", "--generator", gen_file, "--grid", "2:4:2",
            "--bounds", "tsb,chernoff-tsb",
            "--tol-rel", "1e-16", "--tol-abs", "0", "--out", str(out)]
    with pytest.warns(RuntimeWarning, match="did not converge"):
        assert run_cli(argv) == 0
    _, rows = read_csv(out)
    assert all(math.isfinite(v) for row in rows for v in row)
    diag = json.loads((tmp_path / "tight.csv.diag.json").read_text())
    assert diag["failures"] == []
    assert [(u["bound"], u["eb_n0_db"]) for u in diag["unconverged"]] == [
        ("tsb", 2.0), ("tsb", 4.0)]
    for u in diag["unconverged"]:
        assert set(u) == {"bound", "eb_n0_db", "error_estimate"}
        assert u["error_estimate"] > 0.0


def test_bounds_warnings_reach_sidecar(tmp_path):
    # one weight-3 word at n = 7: both exponential assemblies pin their slope
    # search at the box edge at both grid points.  Each pin is shown as a
    # warning, names its bound, n and c, and is listed in the sidecar; the
    # CSV and the exit code do not change.
    log_a = [0.0, "-inf", "-inf", 0.0, "-inf", "-inf", "-inf", "-inf"]
    spec_json = tmp_path / "one.json"
    spec_json.write_text(json.dumps(
        {"kind": "code", "n": 7, "d_min": 3, "rate": 3 / 7, "log_a": log_a}))
    out = tmp_path / "f.csv"
    argv = ["bounds", "--spectrum", str(spec_json), "--grid=-3:0:3",
            "--bounds", "chernoff-tsb,chernoff-psi", "--out", str(out)]
    with pytest.warns(RuntimeWarning, match="pinned at the box edge") as record:
        assert run_cli(argv) == 0
    _, rows = read_csv(out)
    assert len(rows) == 2 and all(math.isfinite(v) for row in rows for v in row)
    diag = json.loads((tmp_path / "f.csv.diag.json").read_text())
    assert diag["failures"] == [] and "unconverged" not in diag
    entries = diag["warnings"]
    assert sorted(str(w.message) for w in record) == [e["message"] for e in entries]
    assert all(e["category"] == "RuntimeWarning" for e in entries)
    for bound in ("chernoff_tsb", "chernoff_psi"):
        cells = [e["message"] for e in entries if e["message"].startswith(bound + "(n=7, c=")]
        assert len(cells) == 2 and len(set(cells)) == 2


def test_bounds_ensemble_source(tmp_path):
    out = tmp_path / "ens.csv"
    rc = run_cli(["bounds", "--ensemble", "32,0.5", "--grid", "3:3:1",
                  "--bounds", "tsb", "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert rows[0][2] > 0.0


# ---------------------------------------------------------------------------
# exponent
# ---------------------------------------------------------------------------


def test_exponent_columns_and_ordering(tmp_path):
    out = tmp_path / "exp.csv"
    rc = run_cli(["exponent", "--ensemble", "64,0.5", "--grid", "0.6:0.8:0.1",
                  "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["inv_eb_n0", "e_ub", "e_tsb", "e_rce", "delta_star"]
    assert len(rows) == 3
    for inv, e_ub, e_tsb, e_rce, d_star in rows:
        assert e_ub <= e_tsb + 1e-6
        assert e_tsb <= e_rce + 1e-6
        assert 0.0 < d_star <= 1.0


def test_exponent_rce_is_exactly_zero_above_capacity(tmp_path):
    # Above capacity the random-coding maximum is E0(0) = 0 at rho = 0, which
    # is written as exactly 0 (not quadrature noise, nor -0).
    out = tmp_path / "exp.csv"
    assert run_cli(["exponent", "--ensemble", "256,0.25", "--grid", "1.3:1.5:0.1",
                    "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    assert [r[3] for r in rows] == ["0", "0", "0"]


# The rows of `exponent --ensemble 64,0.5 --grid 0.45:0.85:0.05` recorded for
# the exponent-assembly benchmark, when every scan ran in scalar arithmetic
# and E0 was integrated over the whole output line.
EXPONENT_ROWS_64 = [
    [0.45, 0.06200160829370094, 0.06608871068472544, 0.06700331512756857, 0.22002098847332688],
    [0.5, 0.03331190276174978, 0.04584683883416618, 0.04712762747737867, 0.22002098847332688],
    [0.55, 0.008038966464072428, 0.03135216705454773, 0.03276760607721321, 0.22002098847332688],
    [0.6000000000000001, -0.01431122565423082, 0.020930320478002182, 0.022334437277906738,
     0.22002098847332688],
    [0.65, -0.03416797373408262, 0.013464572274193176, 0.014764117149819886, 0.22002098847332688],
    [0.7, -0.05189487131981385, 0.008186735232247076, 0.009321956442346721, 0.22002098847332688],
    [0.75, -0.06779649657209944, 0.004554514138745636, 0.005487468614484556, 0.22002098847332688],
    [0.8, -0.08212708799654594, 0.0021765725883240612, 0.002883790827165021, 0.22002098847332688],
    [0.8500000000000001, -0.09509896038301272, 0.0007651371291541864, 0.0012328967922080394,
     0.22002098847332688],
]


def test_exponent_rows_frozen(tmp_path):
    # The array scans and the half-line E0 move no value past rounding:
    # every column within 1e-12 relative of the recorded rows.  delta_star is
    # the argmax of a flat c0(delta), where a different search path moves it
    # by ~1e-8, so it is held to 1e-9.
    out = tmp_path / "exp.csv"
    assert run_cli(["exponent", "--ensemble", "64,0.5", "--grid", "0.45:0.85:0.05",
                    "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == len(EXPONENT_ROWS_64)
    for got, want in zip(rows, EXPONENT_ROWS_64):
        for col, (g, w) in enumerate(zip(got, want)):
            assert abs(g - w) <= 1e-12 * abs(w), (want[0], col, g, w)
        assert abs(got[4] - want[4]) <= 1e-9 * want[4]


def test_exponent_warnings_reach_sidecar(tmp_path, monkeypatch):
    # every warning a row raises, in any worker thread, is listed in the
    # sidecar and then shown; the CSV and the exit code do not change
    rce = cli.gallager_rce

    def warning_rce(rate, c):
        warnings.warn(f"probe at c={c!r}", RuntimeWarning)
        return rce(rate, c)

    monkeypatch.setattr(cli, "gallager_rce", warning_rce)
    out = tmp_path / "exp.csv"
    argv = ["exponent", "--ensemble", "64,0.5", "--grid", "0.6:0.8:0.1",
            "--threads", "2", "--out", str(out)]
    with pytest.warns(RuntimeWarning, match="probe at c=") as record:
        assert run_cli(argv) == 0
    _, rows = read_csv(out)
    assert len(rows) == 3 and all(math.isfinite(v) for row in rows for v in row)
    diag = json.loads((tmp_path / "exp.csv.diag.json").read_text())
    assert diag["failures"] == []
    assert [e["message"] for e in diag["warnings"]] == sorted(str(w.message) for w in record)
    assert len(diag["warnings"]) == 3
    assert all(e["category"] == "RuntimeWarning" for e in diag["warnings"])


def test_exponent_unconverged_e0_reaches_sidecar(tmp_path, monkeypatch):
    # an E0 quadrature that misses its tolerance leaves that row's e_rce nan
    # and lists it, naming rho and c; the other columns keep their values
    monkeypatch.setattr(exponents, "_GALLAGER_TOL",
                        replace(exponents._GALLAGER_TOL, abs_tol=0.0, rel_tol=1e-16))
    out = tmp_path / "exp.csv"
    assert run_cli(["exponent", "--ensemble", "64,0.5", "--grid", "0.6:0.8:0.1",
                    "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert all(math.isnan(row[3]) for row in rows)
    assert all(math.isfinite(v) for row in rows for v in row[:3] + row[4:])
    diag = json.loads((tmp_path / "exp.csv.diag.json").read_text())
    assert [(f["inv_eb_n0"], f["column"]) for f in diag["failures"]] == [
        (row[0], "e_rce") for row in rows]
    for f, row in zip(diag["failures"], rows):
        assert f"c={0.5 / row[0]!r}" in f["error"] and "rho=" in f["error"]


def test_exponent_exits_3_only_when_every_cell_fails(tmp_path, monkeypatch):
    # A row has two cells that can fail: e_tsb (e_ub fails with it) and
    # e_rce.  A non-binomial ensemble whose every weight has ln A_h < 0
    # admits no exponent, so e_tsb fails on every row; that alone exits 0.
    # Starving the E0 quadrature fails e_rce as well, and the sweep exits 3.
    spec_json = tmp_path / "negative.json"
    spec_json.write_text(json.dumps({
        "kind": "ensemble", "n": 16, "d_min": 1, "rate": 0.5, "log_a": [0.0] + [-1.0] * 16,
    }))
    out = tmp_path / "exp.csv"
    argv = ["exponent", "--spectrum", str(spec_json), "--grid", "0.6:0.8:0.1",
            "--out", str(out)]
    assert run_cli(argv) == 0
    diag = json.loads((tmp_path / "exp.csv.diag.json").read_text())
    assert [f["column"] for f in diag["failures"]] == ["e_tsb"] * 3
    monkeypatch.setattr(exponents, "_GALLAGER_TOL",
                        replace(exponents._GALLAGER_TOL, abs_tol=0.0, rel_tol=1e-16))
    assert run_cli(argv) == 3
    _, rows = read_csv(out)
    assert len(rows) == 3
    assert all(row[1:3] == [0.0, 0.0] and all(map(math.isnan, row[3:])) for row in rows)
    diag = json.loads((tmp_path / "exp.csv.diag.json").read_text())
    assert [(f["inv_eb_n0"], f["column"]) for f in diag["failures"]] == [
        (row[0], column) for row in rows for column in ("e_tsb", "e_rce")]


def test_exponent_single_point_and_code_source(gen_file, tmp_path):
    out = tmp_path / "one.csv"
    rc = run_cli(["exponent", "--generator", gen_file, "--grid", "0.5",
                  "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert len(rows) == 1


def test_exponent_requires_rate_and_positive_grid(tmp_path):
    rateless = tmp_path / "rateless.json"
    rateless.write_text(json.dumps({
        "kind": "code", "n": 7, "d_min": 3,
        "log_a": [0.0, "-inf", "-inf", math.log(7), math.log(7), "-inf", "-inf", 0.0],
    }))
    assert run_cli(["exponent", "--spectrum", str(rateless), "--grid", "0.5"]) == 2
    # explicit override unblocks the same file
    out = tmp_path / "ok.csv"
    assert run_cli(["exponent", "--spectrum", str(rateless), "--rate",
                    repr(4 / 7), "--grid", "0.5", "--out", str(out)]) == 0
    assert run_cli(["exponent", "--ensemble", "64,0.5", "--grid", "0:0.5:0.25"]) == 2
    assert run_cli(["exponent", "--ensemble", "64", "--grid", "0.5"]) == 2
    assert run_cli(["exponent", "--ensemble", "64,1.5", "--grid", "0.5"]) == 2
    # only the bounds sweep integrates, so only it takes tolerances
    assert run_cli(["exponent", "--ensemble", "64,0.5", "--grid", "0.5",
                    "--tol-rel", "1e-6"]) == 2


def test_non_finite_grid_is_usage_error(tmp_path, capsys):
    # a nan or inf grid value is a usage error in both sweeps: exit 2 and no
    # CSV, never a row of nan cells or an uncaught overflow
    out = tmp_path / "x.csv"
    for grid in ("nan", "0:inf:1"):
        assert run_cli(["exponent", "--ensemble", "64,0.5", "--grid", grid,
                        "--out", str(out)]) == 2
        assert run_cli(["bounds", "--ensemble", "8,0.5", "--grid", grid,
                        "--bounds", "tsb", "--out", str(out)]) == 2
        assert capsys.readouterr().err.count("grid values must be finite") == 2
    assert not out.exists()


@pytest.mark.parametrize("rate", ["-1", "2", "0", "nan"])
@pytest.mark.parametrize("command", [["exponent", "--grid", "0.5"],
                                     ["bounds", "--grid", "4", "--bounds", "tsb"]],
                         ids=["exponent", "bounds"])
def test_rate_outside_unit_interval_is_usage_error(gen_file, tmp_path, capsys, command, rate):
    # --rate -1 used to give a row of zeros "by convention" (exit 3), and
    # --rate 2 exponents above the code's with a nan e_rce (exit 0)
    spec_json = tmp_path / "h7.json"
    assert run_cli(["spectrum", "--generator", gen_file, "--out", str(spec_json)]) == 0
    out = tmp_path / "x.csv"
    argv = command + ["--spectrum", str(spec_json), "--rate", rate, "--out", str(out)]
    assert run_cli(argv) == 2
    assert not out.exists()
    assert "--rate: must lie in (0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("n", 7.9, "n must be an integer, got 7.9"),
    ("d_min", 3.5, "d_min must be an integer, got 3.5"),
    ("rate", "nan", "rate must lie in (0, 1], got nan"),
    ("rate", 2, "rate must lie in (0, 1], got 2"),
], ids=["n", "d_min", "rate-nan", "rate-2"])
def test_invalid_spectrum_file_is_usage_error(gen_file, tmp_path, capsys, field, value,
                                               message):
    # each field is checked where the file is read, and the error names the
    # file: "n": 7.9 used to load as n = 7, and "rate": "nan" to fail later
    # in every cell
    spec_json = tmp_path / "h7.json"
    assert run_cli(["spectrum", "--generator", gen_file, "--out", str(spec_json)]) == 0
    capsys.readouterr()
    payload = json.loads(spec_json.read_text())
    spec_json.write_text(json.dumps(payload | {field: value}))
    out = tmp_path / "x.csv"
    assert run_cli(["exponent", "--spectrum", str(spec_json), "--grid", "0.5",
                    "--out", str(out)]) == 2
    assert not out.exists()
    assert f"error: {spec_json}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command, message", [
    (["bounds", "--generator", "GEN", "--grid", "0:4000:2000", "--bounds", "tsb"],
     "E_b/N_0 = 4000.0 dB: need finite c > 0, got c=inf"),
    (["simulate", "--generator", "GEN", "--snr", "4000", "--trials", "10"],
     "E_b/N_0 = 4000.0 dB: need finite c > 0, got c=inf"),
    (["exponent", "--ensemble", "64,0.5", "--grid", "1e-320"],
     "need finite c > 0, got c=inf"),
], ids=["bounds", "simulate", "exponent"])
def test_non_finite_channel_point_is_usage_error(gen_file, tmp_path, capsys, command,
                                                 message):
    # an E_b/N_0 that overflows c used to end in an OverflowError traceback
    # (bounds, simulate) or in zeros "by convention" with exit 3 (exponent)
    out = tmp_path / "x.out"
    argv = [gen_file if a == "GEN" else a for a in command] + ["--out", str(out)]
    assert run_cli(argv) == 2
    assert not out.exists()
    assert f"error: {message}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# both sweeps
# ---------------------------------------------------------------------------


def test_sweeps_call_through_cli_names(gen_file, tmp_path, monkeypatch):
    # Both sweeps look their bound and exponent functions up as attributes
    # of tsbounds.cli at call time, so a wrapper patched there (as the
    # benchmark's tracer does) sees every cell and every row.
    names = ("tsb_block", "itsb", "ahp", "psi", "chernoff_tsb", "chernoff_psi",
             "tsb_exponent", "union_exponent", "gallager_rce")
    calls = dict.fromkeys(names, 0)

    def counting(name, orig):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    assert run_cli(["bounds", "--generator", gen_file, "--grid", "2:4:2",
                    "--bounds", ",".join(cli.BOUND_CHOICES),
                    "--out", str(tmp_path / "b.csv")]) == 0
    assert run_cli(["exponent", "--generator", gen_file, "--grid", "0.5:0.6:0.1",
                    "--out", str(tmp_path / "e.csv")]) == 0
    # tsb and tsb-bit both call tsb_block, on the code's and the bit spectrum
    assert calls == dict.fromkeys(names, 2) | {"tsb_block": 4}


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", [
    ["bounds", "--grid", "4", "--bounds", "tsb"],
    ["exponent", "--grid", "0.5"],
    ["simulate", "--snr", "4", "--trials", "1000"],
])
def test_threads_below_one_is_usage_error(gen_file, tmp_path, capsys, command, threads):
    # every subcommand with --threads rejects a count below 1 before it runs
    out = tmp_path / "x.out"
    argv = command + ["--generator", gen_file, "--threads", threads, "--out", str(out)]
    assert run_cli(argv) == 2
    assert not out.exists()
    assert "--threads: must be at least 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_reproducible_report(gen_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["simulate", "--generator", gen_file, "--snr", "4", "--trials", "20000",
            "--seed", "42"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["trials"] == 20000
    assert report["seed"] == 42
    assert report["code"] == {"n": 7, "k": 4, "rate": 4 / 7}
    p = report["block_error_rate"]
    assert report["std_error"] == pytest.approx(
        math.sqrt(p * (1 - p) / 20000), rel=1e-12
    )
    assert 0.0 < p < 0.1  # 4 dB Hamming block error rate is ~1e-2


def test_simulate_report_carries_exact_interval(gen_file, tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["simulate", "--generator", gen_file, "--snr", "4", "--trials", "20000",
                    "--seed", "42", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"code", "channel", "trials", "seed", "transmit",
                           "block_error_rate", "block_error_ci", "std_error",
                           "bit_error_rate", "bit_std_error", "full_decodes"}
    ci = report["block_error_ci"]
    assert ci["level"] == 0.95
    assert 0.0 < ci["lower"] < report["block_error_rate"] < ci["upper"] < 1.0


def test_simulate_thread_count_does_not_change_estimate(gen_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["simulate", "--generator", gen_file, "--snr", "2", "--trials", "150000",
            "--seed", "7"]
    assert run_cli(args + ["--out", str(a), "--threads", "1"]) == 0
    assert run_cli(args + ["--out", str(b), "--threads", "4"]) == 0
    assert json.loads(a.read_text())["block_error_rate"] == json.loads(
        b.read_text()
    )["block_error_rate"]


def test_simulate_zero_trials_usage_error(gen_file, capsys):
    assert run_cli(["simulate", "--generator", gen_file, "--snr", "4",
                    "--trials", "0"]) == 2
    assert "trials" in capsys.readouterr().err
