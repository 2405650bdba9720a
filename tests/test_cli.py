import json
import math
import warnings

import numpy as np
import pytest

import idq.idrate
import idq.sources
import idq.tcdelta
from idq import cli
from idq.cli import parse_curve_file, run
from idq.errors import NumericalUnderflow
from idq.idrate import id_rate_iid, lc_delta_rate
from idq.linalg import jacobi_eigh
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


def test_out_of_memory_is_one_line_and_exit_2(monkeypatch, capsys):
    # a distortion table too large for memory, without allocating one
    def no_memory(a, b):
        raise MemoryError("Unable to allocate 9.62 GiB")

    monkeypatch.setattr(idq.tcdelta, "_sq_diff", no_memory)
    assert run(["tcdelta", "--source", "gaussian", "--grid-points", "9", "--slopes", "2"]) == 2
    err = capsys.readouterr().err
    assert err == "idq: out of memory: Unable to allocate 9.62 GiB\n"


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


def test_tcdelta_solves_a_grid_with_letters_of_zero_mass(tmp_path):
    # at 40 sigma the 20 outermost of the 513 masses underflow to 0; the
    # solve leaves those letters out, so no channel column normalizes to 0
    assert (idq.sources.discretize_gaussian(1.0, 40.0, 513).probs == 0.0).sum() == 20
    _, _, rows = run_csv(tmp_path, ["tcdelta", "--grid-sigmas", "40", "--slopes", "3"])
    assert len(rows) == 3


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


def test_simulate_header_reports_its_kmeans_training(tmp_path, capsys):
    meta, _, _ = run_csv(
        tmp_path,
        ["simulate", "--trials", "1000", "--points", "2", "--block-len", "4", "--seed", "3",
         "--log-level", "debug"],
    )
    line = next(ln for ln in capsys.readouterr().err.splitlines() if "k-means" in ln)
    assert line.split(": ")[2].startswith(f"{meta['kmeans_rounds']} rounds, ")
    debug = float(line.split("distortion ")[1].split()[0])
    assert float(meta["train_distortion"]) == pytest.approx(debug, rel=1e-8)


def _warnings(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "idq.tcdelta" and r.levelname == "WARNING"]


def _stop_warnings(caplog):
    return str(len(_warnings(caplog)))


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


# 129 component letters, 21 x 21 joint letters, 4 slopes: 5 of the 16 solves
# stop at --max-iter (the variance-0.3 component's solve at slope 0.35 is
# settled as one codeword before its loop)
_MV_SMALL = ["compare", "--source", "mv-gaussian", "--rho", "0.7", "-M", "2",
             "--grid-points", "129", "--joint-grid-points", "21", "--joint-grid-sigmas", "5",
             "--slopes", "4", "--tau-points", "60", "--tol", "1e-7", "--max-iter", "200"]


def test_compare_mv_is_byte_identical_for_any_idq_threads(tmp_path, caplog, monkeypatch):
    # two runs, the second with a left-over IDQ_THREADS, which nothing reads
    files, messages = [], []
    for value in (None, "2"):
        if value is None:
            monkeypatch.delenv("IDQ_THREADS", raising=False)
        else:
            monkeypatch.setenv("IDQ_THREADS", value)
        caplog.clear()
        out = tmp_path / f"run-{value}.csv"
        assert run(_MV_SMALL + ["--out", str(out)]) == 0
        files.append(out.read_bytes())
        messages.append(tuple(_warnings(caplog)))
        assert parse_curve_file(out.read_text())[0]["nonconverged"] == "5"
    assert files[0] == files[1]
    assert messages[0] == messages[1] and len(messages[0]) == 5


def test_simulate_is_byte_identical_for_any_idq_threads(tmp_path, monkeypatch):
    # the simulator reads no environment variable: a left-over IDQ_THREADS,
    # valid or not, changes nothing.  1024 codewords: the 10240 training rows
    # and 5000 query rows are searched in chunks of 128 rows
    args = ["simulate", "--block-len", "4", "--rate", "2.5", "--trials", "5000",
            "--points", "2", "--seed", "3"]
    files = {}
    for value in (None, "abc", "2"):
        if value is None:
            monkeypatch.delenv("IDQ_THREADS", raising=False)
        else:
            monkeypatch.setenv("IDQ_THREADS", value)
        out = tmp_path / f"threads-{value}.csv"
        assert run(args + ["--out", str(out)]) == 0
        files[value] = out.read_bytes()
    assert len(set(files.values())) == 1


def _underflow(message):
    def fail(*args, **kwargs):
        raise NumericalUnderflow(message)
    return fail


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("lane", ["sweep_points", "component_tc_curve"])
def test_numerical_failure_in_either_compare_lane_exits_3(tmp_path, capsys, monkeypatch,
                                                         threads, lane):
    monkeypatch.setenv("IDQ_THREADS", threads)
    monkeypatch.setattr(cli, lane, _underflow(f"{lane} failed"))
    out = tmp_path / "o.csv"
    assert run(_MV_SMALL + ["--out", str(out)]) == 3
    assert f"idq: numerical failure: {lane} failed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads,first", [("1", "sweep_points"),
                                           ("2", "sweep_points")])
def test_compare_mv_reports_one_error_when_both_lanes_fail(tmp_path, capsys, monkeypatch,
                                                           threads, first):
    # at any worker count the joint sweeps' error is raised first
    monkeypatch.setenv("IDQ_THREADS", threads)
    for lane in ("sweep_points", "component_tc_curve"):
        monkeypatch.setattr(cli, lane, _underflow(f"{lane} failed"))
    assert run(_MV_SMALL + ["--out", str(tmp_path / "o.csv")]) == 3
    err = capsys.readouterr().err
    assert err.count("numerical failure") == 1
    assert f"idq: numerical failure: {first} failed" in err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_compare_mv_skips_the_component_model_after_a_joint_failure(tmp_path, monkeypatch,
                                                                    threads):
    monkeypatch.setenv("IDQ_THREADS", threads)
    monkeypatch.setattr(cli, "sweep_points", _underflow("sweep_points failed"))
    calls, component_tc_curve = [], cli.component_tc_curve

    def counting(*args, **kwargs):
        calls.append(args)
        return component_tc_curve(*args, **kwargs)

    monkeypatch.setattr(cli, "component_tc_curve", counting)
    assert run(_MV_SMALL + ["--out", str(tmp_path / "o.csv")]) == 3
    assert calls == []


@pytest.mark.parametrize("flag,value", [("--rho", "nan"), ("--variance", "inf")])
def test_non_finite_covariance_is_a_usage_error(tmp_path, capsys, flag, value):
    assert run(["idrate-mv", flag, value, "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert "covariance matrix has non-finite" in err
    assert "Warning" not in err


@pytest.mark.parametrize("rate", ["17", "2000"])
def test_oversized_simulate_rate_is_a_usage_error(tmp_path, capsys, rate):
    args = ["simulate", "--trials", "1000", "--points", "1", "--block-len", "1",
            "--rate", rate, "--out", str(tmp_path / "o.csv")]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert "exceed the 2^16 maximum" in err and "Traceback" not in err


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
    # slope 0.35 of the 4 is settled as one codeword, with no iteration
    [(["--grid-points", "65", "--slopes", "4", "--max-iter", "2"], "3"),
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
     (["lcdelta", "--variance", "inf"], "variance must be positive and finite"),
     (["tcdelta", "--variance", "inf"], "variance must be positive and finite"),
     (["tcdelta", "--variance", "nan"], "variance must be positive and finite"),
     (["tcdelta", "--grid-sigmas", "inf"], "half width must be positive and finite"),
     (["idrate-spectral", "--variance", "inf"], "variance must be positive and finite"),
     (["idrate-spectral", "--variance", "nan"], "variance must be positive and finite"),
     # no solve could meet such a stop test: each would run to --max-iter
     (["tcdelta", "--tol", "nan"], "tol must be non-negative"),
     (["tcdelta", "--tol", "-1"], "tol must be non-negative")],
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
    # slope 2.5 leaves dead codewords, pruned before slope 0.35
    args = ["tcdelta", "--grid-points", "65", "--slopes", "4"]
    quiet, loud = tmp_path / "quiet.csv", tmp_path / "loud.csv"
    assert run(args + ["--out", str(quiet)]) == 0
    assert "DEBUG" not in capsys.readouterr().err
    assert run(args + ["--log-level", "debug", "--out", str(loud)]) == 0
    err = capsys.readouterr().err
    assert "DEBUG idq.tcdelta: " in err
    assert "dead codewords before slope" in err or "at or below PRUNE_EPS" in err
    assert loud.read_bytes() == quiet.read_bytes()  # the level is not a parameter


def _falling_sweep(stopped):
    """A stand-in for `sweep_points` whose rates fall along the curve."""
    def sweep(*args, **kwargs):
        return np.array([0.1, 0.2, 0.3]), np.array([0.5, 0.4, 0.6]), stopped
    return sweep


# (the module whose `sweep_points` falls, the command): in `compare`,
# `idq.tcdelta`'s serves the component model and `cli`'s the joint sweeps
@pytest.mark.parametrize("command", [(idq.tcdelta, ["tcdelta"]),
                                     (idq.tcdelta, ["tcdelta-components"]),
                                     (idq.tcdelta, ["compare", "--source", "mv-gaussian"]),
                                     (cli, ["compare", "--source", "mv-gaussian"])])
@pytest.mark.parametrize("stopped,code", [(1, 3), (0, 2)])
def test_falling_curve_after_a_capped_solve_is_a_numerical_failure(
        tmp_path, capsys, monkeypatch, command, stopped, code):
    # no real run with --max-iter 1-100 gives a falling curve, so the sweep is
    # replaced; with a solve stopped at its cap the fault is numerical.  When
    # the component model's sweep falls, the joint sweeps of `compare` have
    # run for real before it, on a small grid.
    module, command = command
    monkeypatch.setattr(module, "sweep_points", _falling_sweep(stopped))
    small = ["--tau-points", "20", "--joint-grid-points", "9"]
    assert run(command + small * (command[0] == "compare")
               + ["--out", str(tmp_path / "o.csv")]) == code
    err = capsys.readouterr().err
    assert "rate decreased along increasing d_id" in err
    assert ("numerical failure" in err) == (code == 3)
    assert ("solves stopped at max_iter" in err) == (code == 3)


def test_tiny_max_iter_is_counted_in_the_header(tmp_path, caplog):
    args = ["compare", "--source", "mv-gaussian", "--grid-points", "65",
            "--joint-grid-points", "9", "--slopes", "3", "--tau-points", "20",
            "--max-iter", "1"]
    meta, _, rows = run_csv(tmp_path, args)
    # no loop can meet the stop test in its first iteration: 11 of the 12
    # solves stop at the cap, and each says so once; the variance-0.3
    # component's solve at slope 0.35 is settled as one codeword, with no loop
    assert meta["nonconverged"] == "11" == _stop_warnings(caplog)
    assert rows


def test_compare_mv_decomposes_the_covariance_once(tmp_path, monkeypatch):
    # one eigendecomposition of the 2x2 covariance serves the component
    # variances and the joint discretization; each 1x1 component grid adds one
    dims = []

    def counting(c):
        dims.append(c.dim)
        return jacobi_eigh(c)

    for module in (cli, idq.sources):
        monkeypatch.setattr(module, "jacobi_eigh", counting)
    run_csv(tmp_path, ["compare", "--source", "mv-gaussian", "--grid-points", "65",
                       "--joint-grid-points", "9", "--slopes", "2", "--tau-points", "20"])
    assert sorted(dims) == [1, 1, 2]


def test_idrate_mv_water_fills_once_per_level(tmp_path, monkeypatch):
    levels = []

    def counting(xi, t):
        levels.append(t)
        return water_point(xi, t)

    water_point = idq.idrate._water_point
    monkeypatch.setattr(idq.idrate, "_water_point", counting)
    _, _, rows = run_csv(tmp_path, ["idrate-mv", "-M", "4", "--tau-points", "25"])
    assert len(rows) == len(levels) == len(set(levels)) == 25


@pytest.mark.parametrize(
    "args,params,extra",
    [(["idrate-iid", "--points", "2"], ["dmax", "points", "subcommand", "variance"], []),
     (["lcdelta", "--points", "2"], ["dmax", "points", "subcommand", "variance"], []),
     (["idrate-mv", "--tau-points", "3"],
      ["order", "rho", "subcommand", "tau-min", "tau-points", "variance"], ["eigenvalues"]),
     (["idrate-spectral", "--grid-points", "16", "--tau-points", "3"],
      ["grid-points", "model", "rho", "subcommand", "tau-min", "tau-points", "variance"], []),
     (["tcdelta", "--source", "bernoulli", "--slopes", "2"],
      ["grid-points", "grid-sigmas", "max-iter", "slopes", "source", "subcommand", "tol",
       "variance"], ["nonconverged"]),
     (["tcdelta-components", "--grid-points", "17", "--slopes", "2"],
      ["grid-points", "grid-sigmas", "max-iter", "order", "rho", "slopes", "subcommand", "tol",
       "variance"], ["eigenvalues", "nonconverged"]),
     (["simulate", "--trials", "1000", "--points", "2", "--block-len", "2"],
      ["block-len", "dmax", "points", "rate", "seed", "subcommand", "trials", "variance"],
      ["false_negatives", "kmeans_rounds", "train_distortion"]),
     (["compare", "--grid-points", "17", "--slopes", "2"],
      ["grid-points", "grid-sigmas", "joint-grid-points", "joint-grid-sigmas", "max-iter",
       "order", "rho", "slopes", "source", "subcommand", "tau-points", "tol", "variance"],
      ["nonconverged"]),
     (["compare", "--source", "mv-gaussian", "--grid-points", "17", "--joint-grid-points", "5",
       "--slopes", "2", "--tau-points", "10"],
      ["grid-points", "grid-sigmas", "joint-grid-points", "joint-grid-sigmas", "max-iter",
       "order", "rho", "slopes", "source", "subcommand", "tau-points", "tol", "variance"],
      ["eigenvalues", "nonconverged"])],
    ids=["idrate-iid", "lcdelta", "idrate-mv", "idrate-spectral", "tcdelta",
         "tcdelta-components", "simulate", "compare-iid", "compare-mv"],
)
def test_every_subcommand_header_records_its_command_and_parameters(tmp_path, args, params,
                                                                   extra):
    # the fixed keys, every parameter in sorted order, then the command's own
    meta, _, _ = run_csv(tmp_path, args)
    assert list(meta) == ["command", "version", "rate_unit", "log_base"] + params + extra
    assert meta["command"] == f"idq {args[0]}"
    assert meta["subcommand"] == args[0]
