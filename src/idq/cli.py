"""Command-line front end: curves, solver sweeps, and simulator runs as CSV/JSON.

Every output file starts with `# key=value` header lines recording the exact
command, all parameter values, the rate unit (always bits), and the seed, so
any file can be regenerated from its own header.  Infinite rates are written
as the literal string `inf`.  The environment variable IDQ_THREADS caps
worker parallelism in the simulator (0 = one worker per CPU).  `--log-level`
sets the level of the `idq` loggers for the run, whose records go to stderr;
it changes no output file.
"""

import argparse
import json
import logging
import math
import sys

import numpy as np

from . import __version__
from .errors import IdqError, NonConvergence, NumericalUnderflow
from .idrate import (
    default_tau_grid,
    id_curve_multivariate,
    id_curve_spectral,
    id_point_multivariate,
    id_rate_iid,
    lc_delta_rate,
    water_filling_allocation,
)
from .linalg import jacobi_eigh, toeplitz_covariance
from .sources import (
    GaussMarkov,
    IidGaussian,
    bernoulli_pmf,
    discretize_gaussian,
    discretize_mv_gaussian,
    spectral_grid,
)
from .simulator import estimate_pr_maybe
from .tcdelta import component_tc_curve, distortion_matrix, sweep_points, tc_curve

_FMT = "{:.12g}"


def _fmt(x) -> str:
    return _FMT.format(float(x))


def write_curve_file(stream, meta: dict, columns, rows, fmt: str):
    """Emit a curve file: `# key=value` headers then column-labelled rows."""
    if fmt == "csv":
        for key, value in meta.items():
            stream.write(f"# {key}={value}\n")
        stream.write(",".join(columns) + "\n")
        for row in rows:
            stream.write(",".join(_fmt(v) for v in row) + "\n")
    elif fmt == "json":
        payload = {
            "meta": {k: str(v) for k, v in meta.items()},
            "columns": list(columns),
            "rows": [[_fmt(v) if math.isinf(v) else float(_fmt(v)) for v in row] for row in rows],
        }
        json.dump(payload, stream, indent=1)
        stream.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def parse_curve_file(text: str):
    """Inverse of the CSV writer: returns (meta, columns, rows)."""
    meta = {}
    columns = None
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value
            continue
        if columns is None:
            columns = line.split(",")
            continue
        rows.append([float(v) for v in line.split(",")])
    return meta, columns, rows


def _meta(args, command: str, **extra) -> dict:
    meta = {
        "command": "idq " + " ".join(command.split()),
        "version": __version__,
        "rate_unit": "bits",
        "log_base": "2",
    }
    for key, value in sorted(vars(args).items()):
        if key in ("func", "out", "format", "log_level"):
            continue
        meta[key.replace("_", "-")] = value
    meta.update(extra)
    return meta


def _emit(args, meta, columns, rows) -> int:
    if args.out == "-":
        write_curve_file(sys.stdout, meta, columns, rows, args.format)
    else:
        with open(args.out, "w") as fh:
            write_curve_file(fh, meta, columns, rows, args.format)
    return 0


def _slope_grid(args, variance: float = 1.0, bernoulli: bool = False) -> np.ndarray:
    if args.slopes < 1:
        raise ValueError("--slopes must be at least 1")
    if bernoulli:
        return np.geomspace(0.05, 8.0, args.slopes)
    return np.geomspace(0.35, 130.0, args.slopes) / variance


def _d_grid(args) -> np.ndarray:
    """`--points` thresholds evenly spaced on [0, --dmax]."""
    if args.points < 1:
        raise ValueError("--points must be at least 1")
    if not math.isfinite(args.dmax):
        raise ValueError("--dmax must be finite")
    return np.linspace(0.0, args.dmax, args.points)


def _cmd_idrate_iid(args) -> int:
    d = _d_grid(args)
    rows = [(di, id_rate_iid(args.variance, di)) for di in d]
    return _emit(args, _meta(args, "idrate-iid"), ["d_id", "rate"], rows)


def _cmd_lcdelta(args) -> int:
    d = _d_grid(args)
    rows = [(di, lc_delta_rate(args.variance, di)) for di in d]
    return _emit(args, _meta(args, "lcdelta"), ["d_id", "rate"], rows)


def _ar1_eigenvalues(variance, rho, order):
    cov = toeplitz_covariance(variance * rho ** np.arange(order), order)
    return jacobi_eigh(cov).eigenvalues


def _cmd_idrate_mv(args) -> int:
    xi = _ar1_eigenvalues(args.variance, args.rho, args.order)
    taus = default_tau_grid(float(xi.max()), args.tau_points, args.tau_min)
    rows = []
    for tau in taus[::-1]:
        point = id_point_multivariate(xi, tau)
        alloc = water_filling_allocation(xi, tau)
        rows.append((point.d_id, point.rate, *alloc))
    rows.sort(key=lambda r: r[0])
    cols = ["d_id", "rate"] + [f"d_id_{m + 1}" for m in range(args.order)]
    meta = _meta(args, "idrate-mv", eigenvalues=",".join(_fmt(v) for v in xi))
    return _emit(args, meta, cols, rows)


def _cmd_idrate_spectral(args) -> int:
    if args.model == "gauss-markov":
        model = GaussMarkov(args.variance, args.rho)
    else:
        model = IidGaussian(args.variance)
    psd = spectral_grid(model, args.grid_points)
    taus = default_tau_grid(float(psd.values.max()), args.tau_points, args.tau_min)
    curve = id_curve_spectral(psd, taus, label=args.model)
    rows = list(zip(curve.d_ids, curve.rates))
    return _emit(args, _meta(args, "idrate-spectral"), ["d_id", "rate"], rows)


def _cmd_tcdelta(args) -> int:
    if args.source == "bernoulli":
        pmf = bernoulli_pmf(0.5)
        gamma = distortion_matrix(pmf.support, pmf.support, "hamming")
        s_grid = _slope_grid(args, bernoulli=True)
    else:
        pmf = discretize_gaussian(args.variance, args.grid_sigmas, args.grid_points)
        gamma = distortion_matrix(pmf.support, pmf.support, "quadratic")
        s_grid = _slope_grid(args, variance=args.variance)
    curve = tc_curve(pmf, gamma, s_grid, tol=args.tol, max_iter=args.max_iter)
    rows = list(zip(curve.d_ids, curve.rates))
    meta = _meta(args, "tcdelta", nonconverged=curve.nonconverged)
    return _emit(args, meta, ["d_id", "rate"], rows)


def _components_for(variance, rho, order, grid_sigmas, grid_points):
    xi = _ar1_eigenvalues(variance, rho, order)
    comps = []
    for v in xi:
        pmf = discretize_gaussian(float(v), grid_sigmas, grid_points)
        comps.append((pmf, distortion_matrix(pmf.support, pmf.support, "quadratic")))
    return xi, comps


def _cmd_tcdelta_components(args) -> int:
    xi, comps = _components_for(
        args.variance, args.rho, args.order, args.grid_sigmas, args.grid_points
    )
    s_grid = _slope_grid(args, variance=args.variance)
    curve = component_tc_curve(comps, s_grid, tol=args.tol, max_iter=args.max_iter)
    meta = _meta(args, "tcdelta-components", eigenvalues=",".join(_fmt(v) for v in xi),
                 nonconverged=curve.nonconverged)
    return _emit(args, meta, ["d_id", "rate"], list(zip(curve.d_ids, curve.rates)))


def _cmd_simulate(args) -> int:
    model = IidGaussian(args.variance)
    d_grid = _d_grid(args)
    ests, stderrs, total_fn = estimate_pr_maybe(
        model, args.rate, args.block_len, d_grid, args.trials, args.seed
    )
    rows = [(float(d), est, stderr) for d, est, stderr in zip(d_grid, ests, stderrs)]
    meta = _meta(args, "simulate", false_negatives=total_fn)
    return _emit(args, meta, ["d_id", "pr_maybe", "stderr"], rows)


def _cmd_compare(args) -> int:
    if args.source == "iid-gaussian":
        pmf = discretize_gaussian(args.variance, args.grid_sigmas, args.grid_points)
        gamma = distortion_matrix(pmf.support, pmf.support, "quadratic")
        curve = tc_curve(pmf, gamma, _slope_grid(args, variance=args.variance),
                         tol=args.tol, max_iter=args.max_iter)
        rows = [
            (d, id_rate_iid(args.variance, d), r, lc_delta_rate(args.variance, d))
            for d, r in zip(curve.d_ids, curve.rates)
        ]
        cols = ["d_id", "r_star", "r_tc", "r_lc"]
        return _emit(args, _meta(args, "compare", nonconverged=curve.nonconverged), cols, rows)

    # multivariate comparison: water-filling optimum, component model,
    # joint solver, and the plain rate-distortion (lossy-compression) baseline
    xi, comps = _components_for(
        args.variance, args.rho, args.order, args.grid_sigmas, args.grid_points
    )
    star = id_curve_multivariate(xi, default_tau_grid(float(xi.max()), args.tau_points))
    s_grid = _slope_grid(args, variance=args.variance)
    comp_curve = component_tc_curve(comps, s_grid, tol=args.tol, max_iter=args.max_iter)

    cov = toeplitz_covariance(args.variance * args.rho ** np.arange(args.order), args.order)
    letters, probs = discretize_mv_gaussian(cov, args.joint_grid_sigmas, args.joint_grid_points)
    gamma_j = distortion_matrix(letters, letters, "quadratic")
    stopped = comp_curve.nonconverged
    joint = []  # per-letter (d_id, rate) of the TC solver, then of plain rate-distortion
    for exponent_shift in (True, False):
        d, r, n_stopped = sweep_points(probs, gamma_j, s_grid, tol=args.tol,
                                       max_iter=args.max_iter, exponent_shift=exponent_shift)
        d, r = d / args.order, r / args.order
        o = np.argsort(d)
        joint.append((d[o], r[o]))
        stopped += n_stopped
    (d_tc, r_tc), (d_lc, r_lc) = joint

    lo = max(comp_curve.d_ids.min(), d_tc.min(), d_lc.min(), star.d_ids.min())
    hi = min(comp_curve.d_ids.max(), d_tc.max(), d_lc.max(), star.d_ids.max())
    rows = []
    for d, r_ic in zip(comp_curve.d_ids, comp_curve.rates):
        if not lo <= d <= hi:
            continue
        rows.append(
            (
                d,
                float(np.interp(d, star.d_ids, star.rates)),
                r_ic,
                float(np.interp(d, d_tc, r_tc)),
                float(np.interp(d, d_lc, r_lc)),
            )
        )
    cols = ["d_id", "r_mstar", "r_ic", "r_i", "r_lc"]
    meta = _meta(args, "compare", eigenvalues=",".join(_fmt(v) for v in xi),
                 nonconverged=stopped)
    return _emit(args, meta, cols, rows)


def _add_common(sp, seed=False):
    sp.add_argument("--out", default="-", help="output path, - for stdout")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--log-level", choices=("debug", "info", "warning", "error"),
                    default="warning", help="level of the idq log records sent to stderr")
    if seed:
        sp.add_argument("--seed", type=int, default=0)


def _add_solver(sp):
    sp.add_argument("--slopes", type=int, default=40, help="number of slope values")
    sp.add_argument("--grid-points", type=int, default=513)
    sp.add_argument("--grid-sigmas", type=float, default=8.0)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--max-iter", type=int, default=5000)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="idq",
        description="identification rate-similarity curves and triangle-rule "
        "query schemes for Gaussian sources (all rates in bits)",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("idrate-iid", help="closed-form i.i.d. Gaussian curve")
    p.add_argument("--variance", type=float, default=1.0)
    p.add_argument("--dmax", type=float, default=1.9)
    p.add_argument("--points", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=_cmd_idrate_iid)

    p = sub.add_parser("lcdelta", help="lossy-compression triangle-scheme curve")
    p.add_argument("--variance", type=float, default=1.0)
    p.add_argument("--dmax", type=float, default=1.9)
    p.add_argument("--points", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=_cmd_lcdelta)

    p = sub.add_parser("idrate-mv", help="reverse water-filling curve with per-component shares")
    p.add_argument("--variance", type=float, default=1.0)
    p.add_argument("--rho", type=float, default=0.7)
    p.add_argument("-M", "--order", type=int, default=2)
    p.add_argument("--tau-min", type=float, default=None)
    p.add_argument("--tau-points", type=int, default=200)
    _add_common(p)
    p.set_defaults(func=_cmd_idrate_mv)

    p = sub.add_parser("idrate-spectral", help="stationary-source curve from the PSD")
    p.add_argument("--model", choices=("gauss-markov", "iid"), default="gauss-markov")
    p.add_argument("--variance", type=float, default=1.0)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--grid-points", type=int, default=4096)
    p.add_argument("--tau-min", type=float, default=None)
    p.add_argument("--tau-points", type=int, default=200)
    _add_common(p)
    p.set_defaults(func=_cmd_idrate_spectral)

    p = sub.add_parser("tcdelta", help="iterative type-covering scheme approximation")
    p.add_argument("--source", choices=("gaussian", "bernoulli"), default="gaussian")
    p.add_argument("--variance", type=float, default=1.0)
    _add_solver(p)
    _add_common(p)
    p.set_defaults(func=_cmd_tcdelta)

    p = sub.add_parser("tcdelta-components", help="component model at common slopes")
    p.add_argument("--variance", type=float, default=1.0)
    p.add_argument("--rho", type=float, default=0.7)
    p.add_argument("-M", "--order", type=int, default=2)
    _add_solver(p)
    _add_common(p)
    p.set_defaults(func=_cmd_tcdelta_components)

    p = sub.add_parser("simulate", help="Monte-Carlo Pr{maybe} of the triangle scheme")
    p.add_argument("--variance", type=float, default=1.0)
    p.add_argument("--block-len", type=int, default=16)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--dmax", type=float, default=1.0)
    p.add_argument("--points", type=int, default=5)
    p.add_argument("--trials", type=int, default=10000)
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="matched-column comparison of all schemes")
    p.add_argument("--source", choices=("iid-gaussian", "mv-gaussian"), default="iid-gaussian")
    p.add_argument("--variance", type=float, default=1.0)
    p.add_argument("--rho", type=float, default=0.7)
    p.add_argument("-M", "--order", type=int, default=2)
    p.add_argument("--tau-points", type=int, default=200)
    p.add_argument("--joint-grid-points", type=int, default=33)
    p.add_argument("--joint-grid-sigmas", type=float, default=6.0)
    _add_solver(p)
    _add_common(p)
    p.set_defaults(func=_cmd_compare)

    return ap


def run(argv) -> int:
    """Parse and execute; exit code 0 on success, 2 on usage errors, 3 on
    numerical failures."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    log = logging.getLogger("idq")
    saved_level = log.level
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.setLevel(args.log_level.upper())
    log.addHandler(handler)
    try:
        return args.func(args)
    except (NonConvergence, NumericalUnderflow) as exc:
        print(f"idq: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (IdqError, ValueError) as exc:
        print(f"idq: {exc}", file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(saved_level)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
