import json
import math
import warnings

import numpy as np
import pytest

from idq.cli import parse_curve_file, run
from idq.idrate import id_rate_iid, lc_delta_rate
from idq.simulator import estimate_pr_maybe
from idq.sources import IidGaussian


def run_csv(tmp_path, args, name="out.csv"):
    out = tmp_path / name
    code = run(args + ["--out", str(out)])
    assert code == 0
    return parse_curve_file(out.read_text())


def test_idrate_iid_contract(tmp_path):
    meta, cols, rows = run_csv(
        tmp_path, ["idrate-iid", "--variance", "1", "--dmax", "1.9", "--points", "100"]
    )
    assert cols == ["d_id", "rate"]
    assert len(rows) == 100
    assert meta["rate_unit"] == "bits"
    assert meta["log_base"] == "2"
    d = np.array([r[0] for r in rows])
    r = np.array([r[1] for r in rows])
    assert abs(np.interp(1.0, d, r) - 1.0) <= 1e-3
    assert np.all(np.diff(d) > 0)


def test_infinite_rates_serialize_as_inf(tmp_path):
    out = tmp_path / "inf.csv"
    assert run(["idrate-iid", "--dmax", "2.5", "--points", "6", "--out", str(out)]) == 0
    text = out.read_text()
    assert ",inf" in text
    meta, cols, rows = parse_curve_file(text)
    assert math.isinf(rows[-1][1])


def test_json_format(tmp_path):
    out = tmp_path / "o.json"
    assert run(["idrate-iid", "--dmax", "2.5", "--points", "6", "--format", "json",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["rate_unit"] == "bits"
    assert payload["columns"] == ["d_id", "rate"]
    assert payload["rows"][-1][1] == "inf"


def test_byte_identical_reruns(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["simulate", "--trials", "2000", "--points", "2", "--dmax", "0.5",
            "--block-len", "4", "--seed", "7"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_round_trip_rows(tmp_path):
    meta, cols, rows = run_csv(tmp_path, ["lcdelta", "--points", "20", "--dmax", "1.5"])
    for d, r in rows:
        assert r == pytest.approx(lc_delta_rate(1.0, d), abs=1e-10)
    assert sorted(rows) == rows


def test_exit_codes(tmp_path, capsys):
    assert run(["idrate-iid", "--no-such-flag"]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["idrate-iid", "--variance", "-1"]) == 2
    assert run(["tcdelta", "--variance", "-2"]) == 2
    assert run(["tcdelta", "--source", "bernoulli", "--max-iter", "0"]) == 2


def test_spectral_rho0_matches_iid(tmp_path):
    meta, cols, rows = run_csv(
        tmp_path,
        ["idrate-spectral", "--model", "gauss-markov", "--rho", "0",
         "--grid-points", "4096", "--tau-points", "50"],
    )
    for d, r in rows:
        assert r == pytest.approx(id_rate_iid(1.0, d), abs=1e-6)


def test_idrate_mv_per_component_columns(tmp_path):
    meta, cols, rows = run_csv(
        tmp_path, ["idrate-mv", "--rho", "0.7", "-M", "2", "--tau-points", "40"]
    )
    assert cols == ["d_id", "rate", "d_id_1", "d_id_2"]
    assert "eigenvalues" in meta
    for d, rate, d1, d2 in rows:
        assert d == pytest.approx((d1 + d2) / 2.0, abs=1e-9)
        assert d1 >= d2 - 1e-12  # largest component activates first


def test_tcdelta_bernoulli(tmp_path):
    meta, cols, rows = run_csv(
        tmp_path, ["tcdelta", "--source", "bernoulli", "--slopes", "12", "--tol", "1e-8"]
    )
    d = [r[0] for r in rows]
    r = [r[1] for r in rows]
    assert max(d) <= 0.5 + 1e-9
    assert all(np.diff(r) >= -1e-9)


def test_tcdelta_gaussian_small(tmp_path):
    meta, cols, rows = run_csv(
        tmp_path,
        ["tcdelta", "--source", "gaussian", "--grid-points", "129",
         "--slopes", "10", "--tol", "1e-7", "--max-iter", "2000"],
    )
    assert cols == ["d_id", "rate"]
    d = np.array([r[0] for r in rows])
    r = np.array([r[1] for r in rows])
    assert np.all(np.diff(d) > 0)
    assert np.all(np.diff(r) >= -1e-9)
    for dv, rv in rows:
        assert rv >= id_rate_iid(1.0, dv) - 5e-3


def test_simulate_header_reports_false_negatives(tmp_path):
    meta, cols, rows = run_csv(
        tmp_path,
        ["simulate", "--trials", "2000", "--points", "2", "--dmax", "0.5",
         "--block-len", "4", "--seed", "3"],
    )
    assert cols == ["d_id", "pr_maybe", "stderr"]
    assert meta["false_negatives"] == "0"
    # one run for all points gives each point's own estimate
    for row in rows:
        ref = estimate_pr_maybe(IidGaussian(1.0), 1.0, 4, row[0], 2000, 3)
        assert row[1:] == [float(f"{v:.12g}") for v in ref[:2]]


def _stop_warnings(caplog):
    return str(sum(r.name == "idq.tcdelta" and r.levelname == "WARNING" for r in caplog.records))


def test_compare_iid_small(tmp_path, caplog):
    meta, cols, rows = run_csv(
        tmp_path,
        ["compare", "--source", "iid-gaussian", "--grid-points", "257",
         "--slopes", "12", "--tol", "1e-8", "--max-iter", "3000"],
    )
    assert cols == ["d_id", "r_star", "r_tc", "r_lc"]
    assert meta["nonconverged"] == _stop_warnings(caplog)
    for d, r_star, r_tc, r_lc in rows:
        assert r_star == pytest.approx(id_rate_iid(1.0, d), abs=1e-9)
        assert r_lc == pytest.approx(lc_delta_rate(1.0, d), abs=1e-9)
        assert r_tc >= r_star - 5e-3


def test_compare_mv_small(tmp_path, caplog):
    meta, cols, rows = run_csv(
        tmp_path,
        ["compare", "--source", "mv-gaussian", "--rho", "0.7", "-M", "2",
         "--grid-points", "129", "--joint-grid-points", "21",
         "--joint-grid-sigmas", "5", "--slopes", "10", "--tau-points", "60",
         "--tol", "1e-7", "--max-iter", "2000"],
    )
    assert cols == ["d_id", "r_mstar", "r_ic", "r_i", "r_lc"]
    assert len(rows) > 3
    assert "eigenvalues" in meta
    assert meta["nonconverged"] == _stop_warnings(caplog)
    for d, r_mstar, r_ic, r_i, r_lc in rows:
        assert all(v >= 0 for v in (r_mstar, r_ic, r_i, r_lc))
        if d <= 1.5:
            # the optimum can never exceed any achievable scheme's rate
            # (away from the similarity limit, where the sampled water-filling
            # curve is steep and its linear interpolant overshoots)
            assert r_mstar <= r_ic + 1e-3
            assert r_mstar <= r_i + 1e-3


@pytest.mark.parametrize("flag,value", [("--rho", "nan"), ("--variance", "inf")])
def test_non_finite_covariance_is_a_usage_error(tmp_path, capsys, flag, value):
    assert run(["idrate-mv", flag, value, "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert "covariance matrix has non-finite" in err
    assert "Warning" not in err


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_invalid_idq_threads_is_a_usage_error(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("IDQ_THREADS", value)
    args = ["simulate", "--trials", "1000", "--points", "1", "--block-len", "2",
            "--out", str(tmp_path / "o.csv")]
    assert run(args) == 2
    assert "IDQ_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value",
    [("--dmax", "nan"), ("--dmax", "inf"), ("--variance", "nan"), ("--variance", "inf"),
     ("--block-len", "0"), ("--rate", "inf"), ("--points", "0")],
)
def test_invalid_simulate_input_is_a_usage_error(tmp_path, capsys, flag, value):
    args = ["simulate", "--trials", "1000", "--points", "2", "--block-len", "2",
            flag, value, "--out", str(tmp_path / "o.csv")]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert "idq: " in err and "Traceback" not in err


@pytest.mark.parametrize(
    "args,stopped",
    [(["--grid-points", "65", "--slopes", "3", "--max-iter", "2"], "3"),
     (["--source", "bernoulli"], "0")],
)
def test_tcdelta_header_counts_nonconverged_solves(tmp_path, caplog, args, stopped):
    meta, cols, rows = run_csv(tmp_path, ["tcdelta"] + args)
    assert meta["nonconverged"] == stopped == _stop_warnings(caplog)


@pytest.mark.parametrize(
    "args,message",
    [(["idrate-iid", "--dmax", "nan"], "--dmax must be finite"),
     (["idrate-iid", "--dmax", "inf"], "--dmax must be finite"),
     (["lcdelta", "--dmax", "nan"], "--dmax must be finite"),
     (["lcdelta", "--dmax", "inf"], "--dmax must be finite"),
     (["simulate", "--dmax", "inf"], "--dmax must be finite"),
     (["idrate-iid", "--variance", "nan"], "variance must be positive and finite"),
     (["lcdelta", "--variance", "inf"], "variance must be positive and finite")],
)
def test_non_finite_closed_form_input_is_a_usage_error(tmp_path, capsys, args, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's linspace warning must not come first
        assert run(args + ["--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert f"idq: {message}" in err
    assert "Warning" not in err


@pytest.mark.parametrize(
    "args,message",
    [(["idrate-iid", "--points", "0"], "--points must be at least 1"),
     (["lcdelta", "--points", "-3"], "--points must be at least 1"),
     (["idrate-mv", "--tau-points", "0"], "the water-level grid needs at least one point"),
     (["idrate-spectral", "--tau-points", "0"], "the water-level grid needs at least one point"),
     # checked before any solve: at defaults the sweeps take over a minute
     (["compare", "--source", "mv-gaussian", "--tau-points", "0"],
      "the water-level grid needs at least one point"),
     (["tcdelta", "--slopes", "-3"], "--slopes must be at least 1")],
    ids=["idrate-iid", "lcdelta", "idrate-mv", "idrate-spectral", "compare-mv", "tcdelta"],
)
def test_empty_point_grid_is_a_usage_error(tmp_path, capsys, args, message):
    out = tmp_path / "o.csv"
    assert run(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"idq: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_log_level_debug_reports_pruning(tmp_path, capsys):
    args = ["tcdelta", "--grid-points", "65", "--slopes", "3"]
    quiet, loud = tmp_path / "quiet.csv", tmp_path / "loud.csv"
    assert run(args + ["--out", str(quiet)]) == 0
    assert "DEBUG" not in capsys.readouterr().err
    assert run(args + ["--log-level", "debug", "--out", str(loud)]) == 0
    err = capsys.readouterr().err
    assert "DEBUG idq.tcdelta: " in err
    assert "dead codewords before slope" in err or "at or below PRUNE_EPS" in err
    assert loud.read_bytes() == quiet.read_bytes()  # the level is not a parameter
