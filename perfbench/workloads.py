"""Workload definitions: the idq commands each workload issues, drawn from a seed.

A seed picks one input variant from a short fixed table per workload, so the
reference rows recorded at the baseline commit cover every seed, and the
inputs stay inside the narrow ranges stated below.  The program itself only
ever sees the generated command lines.
"""

import random
from dataclasses import dataclass

# solver: AR(1) blocks with rho in [0.69, 0.71] and variance in [0.97, 1.03].
# Iteration counts move with both (the solver's |dD| <= tol stop is absolute),
# so the ranges are kept narrow to keep work per seed within a few percent.
SOLVER_VARIANTS = (
    (0.690, 1.00), (0.695, 0.97), (0.700, 1.03), (0.705, 0.98),
    (0.710, 1.02), (0.700, 1.00), (0.695, 1.01), (0.705, 0.99),
)
# montecarlo: the simulator's own seed (training and query sample streams).
MONTECARLO_SEEDS = (11, 23, 37, 41, 53, 67, 79, 97)
# closed-form: source variance 2^k.  Scaling the variance by a power of two
# scales every similarity column exactly and leaves rates unchanged, so one
# reference at variance 1 checks every seed, and the work does not change.
CLOSED_FORM_VARIANCES = (0.25, 0.5, 1.0, 2.0, 4.0)

# curve_maxdev bounds (absolute, in the file's own units).  solver: the solves
# stop at |dI|, |dD| <= 1e-6, so a faster kernel or another stopping rule may
# land a little elsewhere on the same curve; montecarlo: about six binomial
# standard errors of Pr{maybe} at 1e5 trials; closed-form: 12-digit rounding.
SOLVER_MAXDEV = 1e-3
MONTECARLO_MAXDEV = 1e-2
CLOSED_FORM_MAXDEV = 1e-8
# How far an achievable-scheme column may fall below the closed-form optimum,
# fixed from the baseline outputs over every variant (make_reference.py
# prints it): 0.326 bits at full size, 3.60 bits on the coarse smoke-test
# grids.  The solver's discretized sources have finite entropy, so near the
# similarity limit the joint columns fall below the continuous-source optimum.
SOLVER_OPTIMUM_TOL = 0.35
SOLVER_OPTIMUM_TOL_TINY = 3.7
CLOSED_FORM_OPTIMUM_TOL = 1e-12


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple
    # factor by which the d_id columns differ from the reference rows
    d_scale: float = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    variant: int
    commands: tuple
    # key of the reference rows the outputs are compared against
    ref_key: str
    # largest allowed difference from the reference rows (curve_maxdev)
    maxdev_bound: float
    # (label, column, optimum label, optimum column): an achievable scheme
    # must not fall below the closed-form optimum by more than optimum_tol
    optimum: tuple = ()
    optimum_tol: float = 0.0
    # label of the command whose rows must not depend on IDQ_THREADS
    thread_check: str = None


VARIANTS = {"solver": SOLVER_VARIANTS, "montecarlo": MONTECARLO_SEEDS,
            "closed-form": CLOSED_FORM_VARIANCES}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """Commands of one workload run for `seed`; `tiny` shrinks every size for
    the smoke test but keeps the same commands."""
    variant = random.Random(f"{name}:{seed}").randrange(len(VARIANTS[name]))
    return build_variant(name, variant, tiny)


def build_variant(name: str, v: int, tiny: bool = False) -> Workload:
    if name == "solver":
        rho, var = SOLVER_VARIANTS[v]
        argv = ["compare", "--source", "mv-gaussian", "-M", "2", "--slopes", "3",
                "--tol", "1e-6", "--rho", f"{rho:g}", "--variance", f"{var:g}"]
        if tiny:
            argv += ["--grid-points", "65", "--joint-grid-points", "9", "--slopes", "2"]
        cmds = (Command("compare", tuple(argv)),)
        return Workload(name, v, cmds, str(v), SOLVER_MAXDEV,
                        tuple(("compare", c, "compare", "r_mstar") for c in ("r_ic", "r_i", "r_lc")),
                        SOLVER_OPTIMUM_TOL_TINY if tiny else SOLVER_OPTIMUM_TOL)
    if name == "montecarlo":
        argv = ["simulate", "--block-len", "16", "--rate", "0.625", "--trials", "100000",
                "--points", "2", "--seed", str(MONTECARLO_SEEDS[v])]
        if tiny:
            argv += ["--block-len", "8", "--rate", "0.5", "--trials", "2000"]
        cmds = (Command("simulate", tuple(argv)),)
        return Workload(name, v, cmds, str(v), MONTECARLO_MAXDEV, thread_check="simulate")
    if name == "closed-form":
        var = CLOSED_FORM_VARIANCES[v]
        order, spectral_pts, taus, points, slopes = ("256", "4096", "200", "100", "40")
        if tiny:
            order, spectral_pts, taus, points, slopes = ("16", "256", "20", "10", "5")
        vs, dmax = f"{var:g}", repr(1.9 * var)
        cmds = (
            Command("idrate-mv",
                    ("idrate-mv", "-M", order, "--variance", vs, "--tau-points", taus), var),
            Command("idrate-spectral",
                    ("idrate-spectral", "--variance", vs, "--grid-points", spectral_pts,
                     "--tau-points", taus), var),
            Command("idrate-iid",
                    ("idrate-iid", "--variance", vs, "--dmax", dmax, "--points", points), var),
            Command("lcdelta",
                    ("lcdelta", "--variance", vs, "--dmax", dmax, "--points", points), var),
            Command("tcdelta-bernoulli",
                    ("tcdelta", "--source", "bernoulli", "--slopes", slopes)),
        )
        return Workload(name, v, cmds, "variance-1", CLOSED_FORM_MAXDEV,
                        (("lcdelta", "rate", "idrate-iid", "rate"),), CLOSED_FORM_OPTIMUM_TOL)
    raise ValueError(f"unknown workload {name!r}")
