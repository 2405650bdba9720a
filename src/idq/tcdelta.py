"""Iterative approximation of the type-covering triangle-scheme rate curve.

The solver alternates a tilted conditional update with a Bayes marginal
update.  For a slope s >= 0 the conditional is

    Q'(xhat_j | x_i) = t(xhat_j) * exp(-s * (Gamma - Gamma P P^T)(j, i)),

column-normalized, followed by t <- Q P.  The constant shift Gamma P P^T is
precomputed once per solve, and exponentials are stabilized by subtracting the
per-column maximum exponent (the normalization cancels the shift exactly).

No iteration forms Q.  With e = exp(a) fixed per slope, Q = e t / col where
col = t e, so t <- t * (e w) with w = P / col.  E_joint, the sum Q P a that
enters I, and J's shift term are matrix-vector products with e and with the
elementwise products e * Gamma and e * a, all three built once per slope.  An
iteration is thus four passes over n x n matrices and makes no n x n
temporary (`_step`; `ba_step` wraps the same step).  The channel is built
once, after the loop, and the reported rate, E_prod and E_joint are the
loop's values for it.

The two steps are exact alternating minimization (Blahut 1972) of

    J = I(X; Xhat) + s * sum_ij p_i Q(j|i) (Gamma_ji - shift_ji)
      = I(X; Xhat) + s * (E_joint - sum_j c_j (Q p^2)_j),

with c = Gamma p and shift_ji = c_j p_i, or shift = 0 (J = I + s * E_joint,
the rate-distortion Lagrangian) when `exponent_shift=False`.  J never rises
between iterations.  J equals the literal Lagrangian I - s * D_s, with
D_s = E_prod - E_joint, up to a constant only when c is constant over the live
codewords (binary Hamming sources, for one); otherwise I - s * D_s can rise.
For quadratic distortion it is unbounded below on the real line, and the
update that does descend it (shift c_j in place of c_j p_i) collapses the
513-letter N(0, 1) curve to d_id near 0.70.  The paper says only that the rate
comes from an iterative method; PAPER.md does not say which Lagrangian that
method descends.

Rates are reported in bits.  A solution's rate-similarity point carries the
largest similarity threshold the metric's triangle inequality certifies from
the channel moments: E_prod - E_joint for Hamming distance, and
(sqrt(E_prod) - sqrt(E_joint))^2 for quadratic distance.
"""

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalUnderflow
from .idrate import RATE_NONDECREASING, Curve, curve_from_arrays
from .sources import Pmf

logger = logging.getLogger(__name__)

LN2 = math.log(2.0)

#: Marginal entries below this are dropped from the codeword grid between
#: slope values (denormal-stall guard; zeros are absorbing under the update).
PRUNE_EPS = 1e-300

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 5000

QUADRATIC = "quadratic"
HAMMING = "hamming"


@dataclass(frozen=True)
class Channel:
    """Column-stochastic conditional matrix; entry (j, i) = Q(xhat_j | x_i)."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 2:
            raise DimensionMismatch("channel must be a 2-D matrix")
        if np.any(q < 0):
            raise ValueError("conditional probabilities must be non-negative")
        colsums = q.sum(axis=0)
        if not np.all(np.abs(colsums - 1.0) <= 1e-12):  # NaN fails too
            raise ValueError("every channel column must sum to 1 within 1e-12")
        object.__setattr__(self, "q", q)

    @property
    def n_code(self) -> int:
        return self.q.shape[0]

    @property
    def n_source(self) -> int:
        return self.q.shape[1]


@dataclass(frozen=True)
class DistortionMatrix:
    """Per-letter distortions; entry (j, i) = rho(x_i, xhat_j) >= 0."""

    gamma: np.ndarray
    metric: str = QUADRATIC

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.ndim != 2:
            raise DimensionMismatch("distortion matrix must be 2-D")
        if not np.all(np.isfinite(g) & (g >= 0)):
            raise ValueError("distortions must be finite and non-negative")
        object.__setattr__(self, "gamma", g)


@dataclass(frozen=True)
class TcSolution:
    """Converged (or iteration-capped) state of one slope's solve.

    d_s is the raw moment difference E_prod - E_joint; lagrangian_rise is the
    largest per-iteration increase of I - s * d_s observed (nats), logged when
    it exceeds the 1e-9 descent slack.  surrogate_rise is the largest
    per-iteration increase (nats) of the objective the update minimizes,

        J = I + s * (E_joint - sum_j c_j (Q p^2)_j),   c = Gamma p,

    computed from Gamma, p, c and the shift actually applied (the shift term
    is 0 when `exponent_shift=False`).  It stays at rounding level for a
    correct update.  J and I - s * d_s differ by a constant only when c is
    constant over the live codewords, so lagrangian_rise is at rounding level
    then too, and may be large otherwise.
    """

    slope_s: float
    channel: Channel
    code_marginal: Pmf
    d_s: float
    rate: float
    iterations: int
    converged: bool
    e_prod: float
    e_joint: float
    lagrangian_rise: float
    surrogate_rise: float


def distortion_matrix(x_grid, xhat_grid, metric: str = QUADRATIC) -> DistortionMatrix:
    """Distortion table between a source grid and a codeword grid.

    Grids may be 1-D scalars or (n, d) blocks; quadratic means squared
    Euclidean distance, hamming the 0/1 inequality indicator.
    """
    x = np.asarray(x_grid, dtype=float)
    xh = np.asarray(xhat_grid, dtype=float)
    if x.size == 0 or xh.size == 0:
        raise ValueError("grids must be non-empty")
    if x.ndim == 1:
        x = x[:, None]
    if xh.ndim == 1:
        xh = xh[:, None]
    if x.shape[1] != xh.shape[1]:
        raise DimensionMismatch("source and codeword letters have different widths")
    if metric == QUADRATIC:
        diff = xh[:, None, :] - x[None, :, :]
        return DistortionMatrix((diff**2).sum(axis=2), QUADRATIC)
    if metric == HAMMING:
        same = np.all(xh[:, None, :] == x[None, :, :], axis=2)
        return DistortionMatrix(1.0 - same.astype(float), HAMMING)
    raise ValueError(f"unknown metric {metric!r}")


def triangle_similarity(e_prod: float, e_joint: float, metric: str) -> float:
    """Largest similarity threshold certified by the triangle inequality."""
    if metric == HAMMING:
        return max(0.0, e_prod - e_joint)
    if metric == QUADRATIC:
        return max(0.0, math.sqrt(max(e_prod, 0.0)) - math.sqrt(max(e_joint, 0.0))) ** 2
    raise ValueError(f"unknown metric {metric!r}")


def _probs(p_x) -> np.ndarray:
    p = p_x.probs if isinstance(p_x, Pmf) else np.asarray(p_x, dtype=float)
    if p.ndim != 1 or np.any(p < 0) or not abs(p.sum() - 1.0) <= 1e-9:
        raise ValueError("source distribution must be a normalized 1-D pmf")
    return p


def _gamma(gamma) -> np.ndarray:
    return gamma.gamma if isinstance(gamma, DistortionMatrix) else np.asarray(gamma, dtype=float)


def mutual_information(p_x, q) -> float:
    """I(X; Xhat) in bits for source p_x through channel q, with 0 log 0 = 0."""
    p = _probs(p_x)
    qm = q.q if isinstance(q, Channel) else np.asarray(q, dtype=float)
    if qm.shape[1] != p.size:
        raise DimensionMismatch("channel columns must match the source alphabet")
    t = qm @ p
    z = qm * p[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        contrib = np.where(z > 0, z * (np.log2(qm) - np.log2(t)[:, None]), 0.0)
    return max(float(np.nansum(contrib)), 0.0)


def _tilt(g, p, s: float, exponent_shift: bool = True):
    """Per-slope matrices of the update: (c, a, e) with c = Gamma p,
    a = -s * (Gamma - c p^T) (or -s * Gamma without the shift) minus its column
    maxima, and e = exp(a)."""
    c = g @ p
    # shift entry (j, i) = p_i * sum_k p_k rho(x_k, xhat_j)
    a = -s * (g - np.outer(c, p)) if exponent_shift else -s * g
    a -= a.max(axis=0, keepdims=True)
    return c, a, np.exp(a)


def _step(e, t, p):
    """One update from codeword marginal t: returns (col, w, ew) with the
    column normalizers col = t e, w = p / col and ew = e [w, p w].  The new
    marginal is t * ew[:, 0]; the channel is e t / col (see `_channel`).

    A normalizer so far below the normal range that p / col overflows is an
    underflow too: the column's mass sits on codewords the grid has lost."""
    col = t @ e
    if np.all(col > 0.0):
        with np.errstate(over="ignore", invalid="ignore"):
            w = p / col
            ew = e @ np.column_stack((w, p * w))
        if np.isfinite(ew).all():
            return col, w, ew
    raise NumericalUnderflow(
        "a channel column normalized to zero; slope too large for the grid"
    )


def _channel(e, t, col) -> np.ndarray:
    return e * t[:, None] / col[None, :]


def ba_step(p_x, t, gamma, s: float):
    """One conditional/marginal update; returns (Channel, updated marginal Pmf).

    The codeword grid behind `t` must carry no zero entries (drop them first);
    raises NumericalUnderflow if a column normalizes to zero.
    """
    p = _probs(p_x)
    g = _gamma(gamma)
    tv = t.probs if isinstance(t, Pmf) else np.asarray(t, dtype=float)
    if g.shape != (tv.size, p.size):
        raise DimensionMismatch("gamma shape must be (len(t), len(p_x))")
    if s < 0:
        raise ValueError("slope must be non-negative")
    _, _, e = _tilt(g, p, s)
    col, _, ew = _step(e, tv, p)
    support = t.support if isinstance(t, Pmf) else np.arange(tv.size, dtype=float)
    return Channel(_channel(e, tv, col)), Pmf(support, tv * ew[:, 0])


def solve_tc_point(
    p_x,
    gamma,
    s: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    t0=None,
    xhat_support=None,
    exponent_shift: bool = True,
) -> TcSolution:
    """Iterate the update at one slope until both the rate and the moment
    difference move less than `tol` between consecutive iterations.

    Starts from the uniform codeword marginal unless `t0` warm-starts it;
    entries of `t0` below PRUNE_EPS are removed from the codeword grid for the
    duration of the solve (they are absorbing anyway) and reported as exact
    zeros in the result.  `exponent_shift=False` drops the Gamma P P^T term,
    which turns the update into the plain rate-distortion iteration (used for
    the lossy-compression baseline of correlated sources).  A solve that stops
    at `max_iter` logs one WARNING with its last steps in I and D_s.

    Each iteration is four matrix-vector passes (col = t e, e [w, p w],
    (e * Gamma) w and (e * a) w) over matrices built once per slope.  The
    channel is formed once, after the loop, from the marginal that produced
    the last column normalizers, and the rate is the loop's I for that
    channel (max(I, 0) / ln 2), so no second mutual-information pass is made.
    """
    p = _probs(p_x)
    g_full = _gamma(gamma)
    m, n = g_full.shape
    if n != p.size:
        raise DimensionMismatch("gamma columns must match the source alphabet")
    if s < 0:
        raise ValueError("slope must be non-negative")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if t0 is None:
        t = np.full(m, 1.0 / m)
    else:
        t = (t0.probs if isinstance(t0, Pmf) else np.asarray(t0, dtype=float)).copy()
        if t.shape != (m,):
            raise DimensionMismatch("warm start length must match the codeword grid")

    alive = t > PRUNE_EPS
    if not alive.any():
        raise NumericalUnderflow("no codewords above the pruning threshold")
    if not alive.all():
        logger.debug("pruning %d dead codewords before slope %g", int((~alive).sum()), s)
    g = g_full[alive]
    c, a, e = _tilt(g, p, s, exponent_shift)
    eg, ea = e * g, e * a
    del g, a  # the loop reads only e, e * Gamma and e * a

    i_prev = math.inf
    d_prev = math.inf
    lagr_prev = math.inf
    surr_prev = math.inf
    max_rise = 0.0
    max_surr_rise = 0.0
    converged = False
    step_i = step_d = math.inf
    t_new = t[alive] / t[alive].sum()
    for iterations in range(1, max_iter + 1):
        tv = t_new  # the marginal behind this iteration's channel e tv / col
        assert (tv >= 0.0).all()  # e >= 0, so the channel is non-negative too
        col, w, ew = _step(e, tv, p)
        t_new = tv * ew[:, 0]
        # I(X;Xhat) in nats from log Q = a + log t - log col.
        lt = np.where(tv > 0, np.log(np.maximum(tv, 5e-324)), 0.0)
        ltn = np.where(t_new > 0, np.log(np.maximum(t_new, 5e-324)), 0.0)
        i_nats = (
            float(tv @ (ea @ w))
            + float(t_new @ (lt - ltn))
            - float(np.log(col) @ p)
        )
        e_joint = float(tv @ (eg @ w))
        e_prod = float(t_new @ c)
        d_s = e_prod - e_joint
        lagr = i_nats - s * d_s
        # J's shift term: sum_ij p_i Q(j|i) c_j p_i = (c t) . (e (p w))
        shift_term = float((c * tv) @ ew[:, 1]) if exponent_shift else 0.0
        surr = i_nats + s * (e_joint - shift_term)
        if math.isfinite(lagr_prev):
            max_rise = max(max_rise, lagr - lagr_prev)
        if math.isfinite(surr_prev):
            max_surr_rise = max(max_surr_rise, surr - surr_prev)
        i_bits = i_nats / LN2
        step_i, step_d = abs(i_bits - i_prev), abs(d_s - d_prev)
        if step_i <= tol and step_d <= tol:
            converged = True
            break
        i_prev, d_prev, lagr_prev, surr_prev = i_bits, d_s, lagr, surr

    if not converged:
        logger.warning(
            "slope %g: not converged after %d iterations (last |dI| = %.3e bit, "
            "|dD| = %.3e; tol %.1e)",
            s,
            iterations,
            step_i,
            step_d,
            tol,
        )
    if max_rise > 1e-9:
        logger.debug(
            "I - s*D_s rose by %.3e during slope %g (the update descends J, which "
            "differs from I - s*D_s by more than a constant when Gamma p varies)",
            max_rise,
            s,
        )

    q_full = np.zeros((m, n))
    q_full[alive] = _channel(e, tv, col)
    t_full = q_full @ p
    if xhat_support is None:
        if isinstance(p_x, Pmf) and p_x.n == m:
            xhat_support = p_x.support
        else:
            xhat_support = np.arange(m, dtype=float)
    return TcSolution(
        slope_s=float(s),
        channel=Channel(q_full),
        code_marginal=Pmf(xhat_support, t_full),
        d_s=d_s,
        rate=max(i_nats, 0.0) / LN2,
        iterations=iterations,
        converged=converged,
        e_prod=e_prod,
        e_joint=e_joint,
        lagrangian_rise=max_rise,
        surrogate_rise=max_surr_rise,
    )


def tc_sweep(
    p_x,
    gamma,
    s_grid,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    warm_start: bool = True,
    xhat_support=None,
    exponent_shift: bool = True,
):
    """Solve every slope in `s_grid` (sorted ascending) and return the
    solutions in that order.

    Warm starts traverse the grid from the largest slope downward: the
    high-slope marginal keeps the full codeword support alive, whereas
    low-slope marginals are concentrated and would irreversibly kill codewords
    needed later (zeros are absorbing under the update).
    """
    svals = np.asarray(s_grid, dtype=float)
    if svals.ndim != 1 or svals.size == 0:
        raise ValueError("slope grid must be a non-empty 1-D array")
    if np.any(svals < 0) or np.any(np.diff(svals) < 0):
        raise ValueError("slope grid must be sorted ascending and non-negative")
    out = {}
    t_prev = None
    for s in svals[::-1]:
        sol = solve_tc_point(
            p_x,
            gamma,
            float(s),
            tol=tol,
            max_iter=max_iter,
            t0=t_prev if warm_start else None,
            xhat_support=xhat_support,
            exponent_shift=exponent_shift,
        )
        out[float(s)] = sol
        if warm_start:
            t_prev = sol.code_marginal.probs
    return [out[float(s)] for s in svals]


def _metric_of(gamma) -> str:
    return gamma.metric if isinstance(gamma, DistortionMatrix) else QUADRATIC


def solution_point(sol: TcSolution, metric: str):
    """(d_id, rate) for one solution under the metric's triangle mapping."""
    return triangle_similarity(sol.e_prod, sol.e_joint, metric), sol.rate


def tc_curve(
    p_x,
    gamma,
    s_grid,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    label: str = "tc-delta",
    warm_start: bool = True,
) -> Curve:
    """Rate-similarity curve traced by sweeping the slope grid."""
    sols = tc_sweep(p_x, gamma, s_grid, tol=tol, max_iter=max_iter, warm_start=warm_start)
    metric = _metric_of(gamma)
    pts = [solution_point(s, metric) for s in sols]
    return curve_from_arrays(
        [q[0] for q in pts], [q[1] for q in pts], label, RATE_NONDECREASING,
        sum(not s.converged for s in sols),
    )


def component_tc_sweep(
    components,
    s_grid,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """Per-component sweeps at common slopes; returns a list per component."""
    if not components:
        raise ValueError("need at least one component")
    return [
        tc_sweep(p_m, g_m, s_grid, tol=tol, max_iter=max_iter)
        for p_m, g_m in components
    ]


def component_tc_curve(
    components,
    s_grid,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    label: str = "tc-delta-components",
) -> Curve:
    """Pareto-condition curve of the component model: every component runs the
    solver independently at each common slope; the model's point averages the
    component rates and the component similarity thresholds."""
    per_comp = component_tc_sweep(components, s_grid, tol=tol, max_iter=max_iter)
    metrics = [_metric_of(g_m) for _, g_m in components]
    d, r = [], []
    for sols_at_s in zip(*per_comp):
        pts = [solution_point(sol, met) for sol, met in zip(sols_at_s, metrics)]
        d.append(float(np.mean([q[0] for q in pts])))
        r.append(float(np.mean([q[1] for q in pts])))
    stopped = sum(not sol.converged for sols in per_comp for sol in sols)
    return curve_from_arrays(d, r, label, RATE_NONDECREASING, stopped)


def _column_lattice(m: int, steps: int) -> np.ndarray:
    """All probability columns of length m with entries on a 1/steps lattice."""
    cols = []
    for combo in itertools.combinations_with_replacement(range(m), steps):
        counts = np.bincount(np.asarray(combo), minlength=m)
        cols.append(counts / steps)
    return np.array(cols)


def brute_force_tc_oracle(p_x, gamma, rate_budget: float, grid_step: float) -> float:
    """Exhaustive search over lattice channels for the best moment difference.

    Enumerates every column-stochastic matrix whose entries lie on a
    `grid_step` lattice, keeps those with I(X;Xhat) <= rate_budget, and
    returns the largest achieved E_prod - E_joint.  Cost grows combinatorially
    with the alphabet; intended for alphabets of at most 3 letters.
    """
    p = _probs(p_x)
    g = _gamma(gamma)
    m, n = g.shape
    if n > 3 or m > 3:
        raise ValueError("exhaustive search supports alphabets of at most 3 letters")
    if not 0 < grid_step <= 0.01 + 1e-12:
        raise ValueError("grid_step must lie in (0, 0.01]")
    if rate_budget < 0:
        raise ValueError("rate budget must be non-negative")
    steps = int(round(1.0 / grid_step))
    cols = _column_lattice(m, steps)
    c = g @ p
    best = 0.0
    # channels are cartesian products of per-source-letter columns
    index_iter = itertools.product(range(cols.shape[0]), repeat=n)
    buf = []
    for idx in index_iter:
        buf.append(idx)
        if len(buf) >= 200_000:
            best = max(best, _best_in_chunk(np.array(buf), cols, p, g, c, rate_budget))
            buf = []
    if buf:
        best = max(best, _best_in_chunk(np.array(buf), cols, p, g, c, rate_budget))
    return best


def _best_in_chunk(idx, cols, p, g, c, budget) -> float:
    q = cols[idx].transpose(0, 2, 1)  # (B, m, n)
    t = q @ p  # (B, m)
    e_prod = t @ c
    e_joint = np.einsum("bji,ji,i->b", q, g, p)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = q * p[None, None, :]
        logq = np.log2(q, where=q > 0, out=np.zeros_like(q))
        logt = np.log2(t, where=t > 0, out=np.zeros_like(t))
        info = np.where(z > 0, z * (logq - logt[:, :, None]), 0.0).sum(axis=(1, 2))
    ok = info <= budget + 1e-12
    if not ok.any():
        return 0.0
    return float((e_prod - e_joint)[ok].max())
