"""Command-line front end: curves, solver sweeps, and simulator runs as CSV/JSON.

Every output file starts with `# key=value` header lines recording the
command as `idq <subcommand>`, every parameter value (the seed among them),
and the rate unit (always bits), so any file can be regenerated from its own
header.  Infinite rates are written as the literal string `inf`.
`compare --source mv-gaussian` runs its joint sweeps and then the component
model, which it skips once the joint sweeps fail, so its WARNING lines come
in one fixed order.
`--log-level` sets the level of the `idq` loggers for the run, whose records
go to stderr; it changes no output file.
"""

import argparse
import functools
import json
import logging
import math
import sys

import numpy as np

from . import __version__
from .errors import IdqError, NonConvergence, NumericalUnderflow
from .idrate import (
    curve_from_arrays,
    default_tau_grid,
    id_curve_multivariate,
    id_rate_iid,
    lc_delta_rate,
    water_filling_point,
)
from .linalg import jacobi_eigh, toeplitz_covariance
from .sources import (
    GaussMarkov,
    IidGaussian,
    MultivariateGaussian,
    bernoulli_pmf,
    discretize_gaussian,
    discretize_mv_gaussian,
    spectral_grid,
)
from .simulator import estimate_pr_maybe
from .tcdelta import component_tc_curve, distortion_matrix, sweep_points

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


def _meta(args, **extra) -> dict:
    meta = {
        "command": "idq " + args.subcommand,
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


def _emit(args, columns, rows, extra) -> None:
    meta = _meta(args, **extra)
    if args.out == "-":
        write_curve_file(sys.stdout, meta, columns, rows, args.format)
    else:
        with open(args.out, "w") as fh:
            write_curve_file(fh, meta, columns, rows, args.format)


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


def _cmd_closed_form(rate, args):
    """`idrate-iid` or `lcdelta`: the closed-form `rate(variance, d_id)` on
    the `--points` grid."""
    return ["d_id", "rate"], [(di, rate(args.variance, di)) for di in _d_grid(args)], {}


def _ar1_covariance(variance, rho, order):
    return toeplitz_covariance(variance * rho ** np.arange(order), order)


def _ar1_eigenvalues(variance, rho, order):
    return jacobi_eigh(_ar1_covariance(variance, rho, order)).eigenvalues


def _eigenvalues(xi) -> str:
    """The `eigenvalues=` header value: the component variances."""
    return ",".join(_fmt(v) for v in xi)


def _curve_table(curve, **extra):
    """A command's (columns, rows, extra header) for one (d_id, rate) curve."""
    return ["d_id", "rate"], list(zip(curve.d_ids, curve.rates)), extra


def _cmd_idrate_mv(args):
    xi = _ar1_eigenvalues(args.variance, args.rho, args.order)
    taus = default_tau_grid(float(xi.max()), args.tau_points, args.tau_min)
    rows = []
    for tau in taus[::-1]:
        point, alloc = water_filling_point(xi, tau)
        rows.append((point.d_id, point.rate, *alloc))
    rows.sort(key=lambda r: r[0])
    cols = ["d_id", "rate"] + [f"d_id_{m + 1}" for m in range(args.order)]
    return cols, rows, {"eigenvalues": _eigenvalues(xi)}


def _cmd_idrate_spectral(args):
    if args.model == "gauss-markov":
        model = GaussMarkov(args.variance, args.rho)
    else:
        model = IidGaussian(args.variance)
    psd = spectral_grid(model, args.grid_points)
    taus = default_tau_grid(float(psd.values.max()), args.tau_points, args.tau_min)
    return _curve_table(id_curve_multivariate(psd.values, taus))


def _gaussian_table(variance, sigmas, points):
    """A discretized Gaussian source and its quadratic distortion table."""
    pmf = discretize_gaussian(variance, sigmas, points)
    return pmf, distortion_matrix(pmf.support, pmf.support, "quadratic")


def _cmd_tcdelta(args):
    if args.source == "bernoulli":
        pmf = bernoulli_pmf(0.5)
        table = pmf, distortion_matrix(pmf.support, pmf.support, "hamming")
        s_grid = _slope_grid(args, bernoulli=True)
    else:
        table = _gaussian_table(args.variance, args.grid_sigmas, args.grid_points)
        s_grid = _slope_grid(args, variance=args.variance)
    curve = component_tc_curve([table], s_grid, tol=args.tol, max_iter=args.max_iter)
    return _curve_table(curve, nonconverged=curve.nonconverged)


def _components_for(xi, grid_sigmas, grid_points):
    """One discretized source and distortion table per KLT component variance."""
    return [_gaussian_table(float(v), grid_sigmas, grid_points) for v in xi]


def _cmd_tcdelta_components(args):
    xi = _ar1_eigenvalues(args.variance, args.rho, args.order)
    comps = _components_for(xi, args.grid_sigmas, args.grid_points)
    s_grid = _slope_grid(args, variance=args.variance)
    curve = component_tc_curve(comps, s_grid, tol=args.tol, max_iter=args.max_iter)
    return _curve_table(curve, eigenvalues=_eigenvalues(xi), nonconverged=curve.nonconverged)


def _cmd_simulate(args):
    model = IidGaussian(args.variance)
    d_grid = _d_grid(args)
    training = {}
    ests, stderrs, total_fn = estimate_pr_maybe(
        model, args.rate, args.block_len, d_grid, args.trials, args.seed, training=training
    )
    rows = [(float(d), est, stderr) for d, est, stderr in zip(d_grid, ests, stderrs)]
    return ["d_id", "pr_maybe", "stderr"], rows, {
        "false_negatives": total_fn, "kmeans_rounds": training["kmeans_rounds"],
        "train_distortion": _fmt(training["train_distortion"])}


def _cmd_compare(args):
    if args.source == "iid-gaussian":
        pmf, gamma = _gaussian_table(args.variance, args.grid_sigmas, args.grid_points)
        curve = component_tc_curve([(pmf, gamma)], _slope_grid(args, variance=args.variance),
                                   tol=args.tol, max_iter=args.max_iter)
        rows = [
            (d, id_rate_iid(args.variance, d), r, lc_delta_rate(args.variance, d))
            for d, r in zip(curve.d_ids, curve.rates)
        ]
        return ["d_id", "r_star", "r_tc", "r_lc"], rows, {"nonconverged": curve.nonconverged}

    # multivariate comparison: water-filling optimum, component model,
    # joint solver, and the plain rate-distortion (lossy-compression) baseline
    # the one decomposition of the covariance: component variances and the
    # joint discretization's quadratic form
    source = MultivariateGaussian(_ar1_covariance(args.variance, args.rho, args.order))
    xi = source.klt.eigenvalues
    comps = _components_for(xi, args.grid_sigmas, args.grid_points)
    star = id_curve_multivariate(xi, default_tau_grid(float(xi.max()), args.tau_points))
    s_grid = _slope_grid(args, variance=args.variance)

    # per-letter curves of the TC solver, then of plain rate-distortion, then
    # the component model: one after the other, so no two joint-letter
    # matrices are alive at once and a joint error ends the run first
    letters, probs = discretize_mv_gaussian(source, args.joint_grid_sigmas,
                                            args.joint_grid_points)
    gamma_j = distortion_matrix(letters, letters, "quadratic")
    joint = []
    for exponent_shift in (True, False):
        d, r, n_stopped = sweep_points(probs, gamma_j, s_grid, tol=args.tol,
                                       max_iter=args.max_iter, exponent_shift=exponent_shift)
        joint.append(curve_from_arrays(d / args.order, r / args.order, n_stopped))
    del gamma_j  # not alive beside the component model's matrices
    tc, lc = joint
    comp_curve = component_tc_curve(comps, s_grid, tol=args.tol, max_iter=args.max_iter)

    # rows at the component model's thresholds inside every curve's range
    curves = star, comp_curve, tc, lc
    lo = max(c.d_ids.min() for c in curves)
    hi = min(c.d_ids.max() for c in curves)
    d = comp_curve.d_ids
    keep = (lo <= d) & (d <= hi)
    d = d[keep]
    rows = list(zip(d, np.interp(d, star.d_ids, star.rates), comp_curve.rates[keep],
                    np.interp(d, tc.d_ids, tc.rates), np.interp(d, lc.d_ids, lc.rates)))
    stopped = comp_curve.nonconverged + tc.nonconverged + lc.nonconverged
    return (["d_id", "r_mstar", "r_ic", "r_i", "r_lc"], rows,
            {"eigenvalues": _eigenvalues(xi), "nonconverged": stopped})


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

    for name, rate, text in (("idrate-iid", id_rate_iid, "closed-form i.i.d. Gaussian curve"),
                             ("lcdelta", lc_delta_rate,
                              "lossy-compression triangle-scheme curve")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--variance", type=float, default=1.0)
        p.add_argument("--dmax", type=float, default=1.9)
        p.add_argument("--points", type=int, default=100)
        _add_common(p)
        p.set_defaults(func=functools.partial(_cmd_closed_form, rate))

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
    """Parse and execute; exit code 0 on success, 2 on usage errors and on
    running out of memory, 3 on numerical failures."""
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
        _emit(args, *args.func(args))
        return 0
    except (NonConvergence, NumericalUnderflow) as exc:
        print(f"idq: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (IdqError, ValueError) as exc:
        print(f"idq: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"idq: out of memory: {exc}", file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(saved_level)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
