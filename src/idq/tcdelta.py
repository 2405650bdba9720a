"""Iterative approximation of the type-covering triangle-scheme rate curve.

The solver alternates a tilted conditional update with a Bayes marginal
update.  For a slope s >= 0 the conditional is

    Q'(xhat_j | x_i) = t(xhat_j) * exp(-s * (Gamma - Gamma P P^T)(j, i)),

column-normalized, followed by t <- Q P.  The constant shift Gamma P P^T is
precomputed once per solve, and exponentials are stabilized by subtracting the
per-column maximum exponent (the normalization cancels the shift exactly).

No iteration forms Q.  With e = exp(a) fixed per slope, Q = e t / col where
col = t e, so t <- t * (e w) with w = P / col.  E_joint and the shift term of
the objective J (below) are products with e * Gamma and with the 2-row
[t; c t] e, and the rate needs no third matrix: with amax the column maxima
subtracted from the exponent a, log Q = a - amax + log t - log col gives

    J = t_new . (log t - log t_new) - P . (log col + amax),
    I = J - s * (E_joint - shift term).

An iteration is thus three passes over the live rows of e and e * Gamma
(two when `exponent_shift=False` drops the shift row) and makes no n x n
temporary (`_step`; `ba_step` wraps the same step).  Rows whose marginal falls
to PRUNE_EPS are cut from both matrices during the solve, and entries of e
that would be sub-normal are exact zeros.  The channel is built once, after
the loop, and the reported rate, E_prod and E_joint are the loop's values for
it.

Without the shift, quadratic distortion between one lexicographic product
grid on both sides is a sum over axes, Gamma = sum_k Gamma_k, and nothing is
subtracted from a column (its own codeword has distortion 0), so
e = E_1 (x) ... (x) E_M with E_k = exp(-s Gamma_k).  `distortion_matrix` keeps
the per-axis grids for such tables, and the plain rate-distortion solve then
runs its passes as per-axis mode products (`_Kron`): 33 x 33 factors in place
of a 1089 x 1089 matrix at M = 2.  The shifted TC update stays dense, since
c p^T does not factor.

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

import functools
import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NumericalUnderflow
from .idrate import Curve, curve_from_arrays
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
    """Per-letter distortions; entry (j, i) = rho(x_i, xhat_j) >= 0.

    `axes` is set by `distortion_matrix` when the table is quadratic between
    one lexicographic product grid on both sides: the per-axis grids, so that
    Gamma = sum_k Gamma_k with Gamma_k the squared differences along axis k.
    """

    gamma: np.ndarray
    metric: str = QUADRATIC
    axes: tuple = field(default=None, init=False, repr=False, compare=False)

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
    Euclidean distance, summed one coordinate at a time, hamming the 0/1
    inequality indicator.  A quadratic table between one lexicographic
    product grid on both sides keeps its per-axis grids (`axes`).
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
        g = _sq_diff(xh[:, 0], x[:, 0])
        for k in range(1, x.shape[1]):
            g += _sq_diff(xh[:, k], x[:, k])
        dm = DistortionMatrix(g, QUADRATIC)
        if np.array_equal(x, xh):
            object.__setattr__(dm, "axes", _product_axes(x))
        return dm
    if metric == HAMMING:
        same = np.all(xh[:, None, :] == x[None, :, :], axis=2)
        return DistortionMatrix(1.0 - same.astype(float), HAMMING)
    raise ValueError(f"unknown metric {metric!r}")


def _sq_diff(a, b) -> np.ndarray:
    """The table (a_j - b_i)^2 of one coordinate."""
    d = np.subtract.outer(a, b)
    d *= d
    return d


def _product_axes(x):
    """The per-axis grids whose lexicographic product is the letter list x
    (rows of x), or None when x is no such product."""
    axes = tuple(np.unique(col) for col in x.T)
    if math.prod(a.size for a in axes) != len(x):
        return None
    mesh = np.meshgrid(*axes, indexing="ij")
    if all(np.array_equal(m.ravel(), col) for m, col in zip(mesh, x.T)):
        return axes
    return None


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


#: exp(a) is sub-normal below this exponent
_LOG_TINY = math.log(np.finfo(float).tiny)


def _exp(a) -> np.ndarray:
    """exp(a) in place, with exact zeros where the result would be sub-normal
    (numpy's exp is about 100x slower there, and so is every product that
    reads such entries).  Each entry moves by less than 2.3e-308."""
    normal = a >= _LOG_TINY
    np.exp(a, out=a, where=normal)
    a[~normal] = 0.0
    return a


def _tilt(g, p, s: float, exponent_shift: bool = True):
    """Per-slope terms of the update: (c, amax, e) with c = Gamma p, amax the
    column maxima of a = -s * (Gamma - c p^T) (or -s * Gamma without the
    shift), and e = exp(a - amax) (`_exp`)."""
    c = g @ p
    if exponent_shift:
        # shift entry (j, i) = p_i * sum_k p_k rho(x_k, xhat_j); in place,
        # s * (c p^T - Gamma) is -s * (Gamma - c p^T) bit for bit
        a = np.outer(c, p)
        a -= g
        a *= s
    else:
        a = -s * g
    amax = a.max(axis=0)
    a -= amax
    return c, amax, _exp(a)


def _mode_products(mats, v) -> np.ndarray:
    """(A_1 (x) ... (x) A_M) v for v over a lexicographic product grid: one
    small matrix product per axis, each of which moves its axis last."""
    for a in mats:
        v = (a @ v.reshape(a.shape[1], -1)).T
    return v.ravel()


class _Kron:
    """Rows `rows` of sum_r A_r1 (x) ... (x) A_rM over a lexicographic product
    grid, applied by per-axis mode products and never formed in the loop; the
    rows left out act as exact zeros.  `t @ k`, `k @ w` and `k[live]` mean
    what they mean on the dense matrix, so `_step` and the solver loop run on
    either."""

    __array_ufunc__ = None  # numpy then hands `t @ k` to __rmatmul__

    def __init__(self, terms, rows):
        self.terms, self.rows = terms, rows

    def __getitem__(self, live):
        return _Kron(self.terms, self.rows[live])

    def __matmul__(self, w):
        return sum(_mode_products(term, w) for term in self.terms)[self.rows]

    def __rmatmul__(self, t):
        full = np.zeros(math.prod(a.shape[0] for a in self.terms[0]))
        full[self.rows] = t
        return sum(_mode_products([a.T for a in term], full) for term in self.terms)

    def dense(self) -> np.ndarray:
        kron = (functools.reduce(np.kron, term) for term in self.terms)
        e = functools.reduce(np.add, kron)
        return e if self.rows.size == len(e) else e[self.rows]


def _step(e, t, p, c=None):
    """One update from codeword marginal t: returns (col, w, t_new, shift)
    with the column normalizers col = t e, w = p / col, the new marginal
    t_new = t * (e w) and J's shift term sum_ij p_i Q(j|i) c_j p_i =
    ((c t) e) . (p w), which is 0 when `c` is None.  One 2-row product gives
    col and (c t) e.  The channel is e t / col (see `_channel`).

    A normalizer so far below the normal range that p / col overflows is an
    underflow too: the column's mass sits on codewords the grid has lost."""
    if c is None:
        col = t @ e
    else:
        col, cte = np.vstack((t, c * t)) @ e
    if np.all(col > 0.0):
        with np.errstate(over="ignore", invalid="ignore"):
            w = p / col
            ew = e @ w
        if np.isfinite(ew).all():
            shift = 0.0 if c is None else float(cte @ (p * w))
            return col, w, t * ew, shift
    raise NumericalUnderflow(
        "a channel column normalized to zero; slope too large for the grid"
    )


def _channel(e, t, col) -> np.ndarray:
    """The channel e t / col, written over e."""
    e *= t[:, None]
    e /= col
    return e


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
    col, _, t_new, _ = _step(e, tv, p)
    support = t.support if isinstance(t, Pmf) else np.arange(tv.size, dtype=float)
    return Channel(_channel(e, tv, col)), Pmf(support, t_new)


def solve_tc_point(
    p_x,
    gamma,
    s: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    t0=None,
    exponent_shift: bool = True,
) -> TcSolution:
    """Iterate the update at one slope until both the rate and the moment
    difference move less than `tol` between consecutive iterations.

    Starts from the uniform codeword marginal unless `t0` warm-starts it;
    entries of `t0` at or below PRUNE_EPS are removed from the codeword grid
    for the duration of the solve (they are absorbing anyway) and reported as
    exact zeros in the result.  During the solve, once the codewords whose
    mass has fallen to PRUNE_EPS make up 1/8 of the live rows, they are cut
    from the iteration's matrices in the same way (one DEBUG line each time);
    the 1/8 keeps the row copies rare while no iteration streams many dead
    rows.  `exponent_shift=False` drops the Gamma P P^T term, which turns the
    update into the plain rate-distortion iteration (used for the
    lossy-compression baseline of correlated sources).  A solve that stops at
    `max_iter` logs one WARNING with its last steps in I and D_s.

    Each iteration is three matrix passes over the live rows of matrices
    built once per slope: [t; c t] e, e w and (e * Gamma) w (without the
    shift, t e in place of the 2-row product).  I comes from J and the
    moments (module docstring), so no e * a matrix is kept.  The channel is
    formed once, after the loop, from the marginal that produced the last
    column normalizers, and the rate is the loop's I for that channel
    (max(I, 0) / ln 2), so no second mutual-information pass is made.

    Without the shift, a `DistortionMatrix` with `axes` (quadratic, one
    product grid on both sides) has e = E_1 (x) ... (x) E_M with
    E_k = exp(-s Gamma_k), since Gamma = sum_k Gamma_k and no column shift is
    needed (amax = 0).  The passes then run as per-axis mode products; for
    M = 2, t e = E_1^T T E_2, e w = E_1 W E_2^T and
    (e * Gamma) w = (E_1 * Gamma_1) W E_2^T + E_1 W (E_2 * Gamma_2)^T.  Cut
    rows are held as exact zeros.  Every other input, and a factored solve
    whose column normalizer underflows (the dense kernel's column shift keeps
    that column finite), runs on the dense matrices.
    """
    try:
        return _solve(p_x, gamma, s, tol, max_iter, t0, exponent_shift)
    except NumericalUnderflow:
        if _kernel_axes(gamma, exponent_shift) is None:
            raise
    logger.debug("slope %g: a column normalizer underflowed on the per-axis "
                 "kernel; solving again on the dense one", s)
    return _solve(p_x, _gamma(gamma), s, tol, max_iter, t0, exponent_shift)


def _kernel_axes(gamma, exponent_shift):
    """The per-axis grids the solve factors its kernel over, or None (dense)."""
    return None if exponent_shift else getattr(gamma, "axes", None)


def _solve(p_x, gamma, s, tol, max_iter, t0, exponent_shift) -> TcSolution:
    """`solve_tc_point` on the kernel that gamma's structure selects."""
    p = _probs(p_x)
    g_full = _gamma(gamma)
    m, n = g_full.shape
    if n != p.size:
        raise DimensionMismatch("gamma columns must match the source alphabet")
    if s < 0:
        raise ValueError("slope must be non-negative")
    if not tol >= 0:  # also rejects NaN, which no step would ever meet
        raise ValueError("tol must be non-negative")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if t0 is None:
        t = np.full(m, 1.0 / m)
    else:
        t = (t0.probs if isinstance(t0, Pmf) else np.asarray(t0, dtype=float)).copy()
        if t.shape != (m,):
            raise DimensionMismatch("warm start length must match the codeword grid")

    rows = np.flatnonzero(t > PRUNE_EPS)  # codeword index of each live row
    if rows.size == 0:
        raise NumericalUnderflow("no codewords above the pruning threshold")
    if rows.size < m:
        logger.debug("pruning %d dead codewords before slope %g", m - rows.size, s)
    axes = _kernel_axes(gamma, exponent_shift)
    if axes is None:
        g = g_full if rows.size == m else g_full[rows]
        c, amax, e = _tilt(g, p, s, exponent_shift)
        eg = e * g
        del g  # the loop reads only e and e * Gamma
        p_amax = float(p @ amax)
    else:
        gk = [_sq_diff(a, a) for a in axes]
        ek = [_exp(-s * table) for table in gk]
        e = _Kron([ek], rows)
        eg = _Kron([ek[:k] + [ek[k] * gk[k]] + ek[k + 1:] for k in range(len(ek))], rows)
        c, p_amax = (g_full @ p)[rows], 0.0

    i_prev = math.inf
    d_prev = math.inf
    lagr_prev = math.inf
    surr_prev = math.inf
    max_rise = 0.0
    max_surr_rise = 0.0
    converged = False
    step_i = step_d = math.inf
    t_new = t[rows] / t[rows].sum()
    for iterations in range(1, max_iter + 1):
        tv = t_new  # the marginal behind this iteration's channel e tv / col
        assert (tv >= 0.0).all()  # e >= 0, so the channel is non-negative too
        dead = tv <= PRUNE_EPS
        n_dead = int(np.count_nonzero(dead))
        if 8 * n_dead >= tv.size:
            logger.debug(
                "slope %g, iteration %d: dropping %d of %d codewords at or below "
                "PRUNE_EPS", s, iterations, n_dead, tv.size,
            )
            live = ~dead
            rows, e, eg, c, tv = rows[live], e[live], eg[live], c[live], tv[live]
        col, w, t_new, shift_term = _step(e, tv, p, c if exponent_shift else None)
        lt = np.where(tv > 0, np.log(np.maximum(tv, 5e-324)), 0.0)
        ltn = np.where(t_new > 0, np.log(np.maximum(t_new, 5e-324)), 0.0)
        # J and I(X;Xhat) in nats from log Q = a - amax + log t - log col.
        # p . amax and s * shift_term nearly cancel, so I subtracts them together.
        j_amax = float(t_new @ (lt - ltn)) - float(np.log(col) @ p)  # J + p . amax
        e_joint = float(tv @ (eg @ w))
        surr = j_amax - p_amax
        i_nats = j_amax - s * e_joint - (p_amax - s * shift_term)
        e_prod = float(t_new @ c)
        d_s = e_prod - e_joint
        lagr = i_nats - s * d_s
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
    q_full[rows] = _channel(e.dense() if isinstance(e, _Kron) else e, tv, col)
    t_full = q_full @ p
    if isinstance(p_x, Pmf) and p_x.n == m:
        support = p_x.support
    else:
        support = np.arange(m, dtype=float)
    return TcSolution(
        slope_s=float(s),
        channel=Channel(q_full),
        code_marginal=Pmf(support, t_full),
        d_s=d_s,
        rate=max(i_nats, 0.0) / LN2,
        iterations=iterations,
        converged=converged,
        e_prod=e_prod,
        e_joint=e_joint,
        lagrangian_rise=max_rise,
        surrogate_rise=max_surr_rise,
    )


def _sweep(p_x, gamma, s_grid, tol, max_iter, exponent_shift):
    """Solve every slope of the ascending grid `s_grid`, from the largest down,
    and yield each solution as soon as it is solved.

    Each solve is warm-started from the previous solution's code marginal:
    the high-slope marginal keeps the full codeword support alive, whereas
    low-slope marginals are concentrated and would irreversibly kill codewords
    needed later (zeros are absorbing under the update).  Only that marginal
    is kept between solves.
    """
    svals = np.asarray(s_grid, dtype=float)
    if svals.ndim != 1 or svals.size == 0:
        raise ValueError("slope grid must be a non-empty 1-D array")
    if np.any(svals < 0) or np.any(np.diff(svals) < 0):
        raise ValueError("slope grid must be sorted ascending and non-negative")
    t_prev = None
    for s in svals[::-1]:
        sol = solve_tc_point(p_x, gamma, float(s), tol=tol, max_iter=max_iter,
                             t0=t_prev, exponent_shift=exponent_shift)
        t_prev = sol.code_marginal.probs
        yield sol
        del sol  # the next solve runs without it unless the consumer keeps it


def tc_sweep(
    p_x,
    gamma,
    s_grid,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """Solve every slope in `s_grid` (sorted ascending, warm-started from the
    largest slope down) and return all the solutions in ascending order."""
    return list(_sweep(p_x, gamma, s_grid, tol, max_iter, True))[::-1]


def _metric_of(gamma) -> str:
    return gamma.metric if isinstance(gamma, DistortionMatrix) else QUADRATIC


def solution_point(sol: TcSolution, metric: str):
    """(d_id, rate) for one solution under the metric's triangle mapping."""
    return triangle_similarity(sol.e_prod, sol.e_joint, metric), sol.rate


def sweep_points(
    p_x,
    gamma,
    s_grid,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    exponent_shift: bool = True,
):
    """Sweep `s_grid` like `tc_sweep`, but map each solution to its point under
    gamma's metric as it is solved and drop it (a solution holds a dense
    channel).  Returns (d_ids, rates, nonconverged) in ascending slope order,
    with nonconverged the number of solves that stopped at `max_iter`."""
    metric = _metric_of(gamma)
    d, r, stopped = [], [], 0
    for sol in _sweep(p_x, gamma, s_grid, tol, max_iter, exponent_shift):
        d_id, rate = solution_point(sol, metric)
        d.append(d_id)
        r.append(rate)
        stopped += not sol.converged
        del sol  # its dense channel would otherwise sit beside the next solve
    return np.array(d[::-1]), np.array(r[::-1]), stopped


def tc_curve(
    p_x,
    gamma,
    s_grid,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    label: str = "tc-delta",
) -> Curve:
    """Rate-similarity curve traced by sweeping the slope grid."""
    d, r, stopped = sweep_points(p_x, gamma, s_grid, tol=tol, max_iter=max_iter)
    return curve_from_arrays(d, r, label, nonconverged=stopped)


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
    if not components:
        raise ValueError("need at least one component")
    per_comp = [
        sweep_points(p_m, g_m, s_grid, tol=tol, max_iter=max_iter) for p_m, g_m in components
    ]
    d = [float(np.mean(d_at_s)) for d_at_s in zip(*(pc[0] for pc in per_comp))]
    r = [float(np.mean(r_at_s)) for r_at_s in zip(*(pc[1] for pc in per_comp))]
    return curve_from_arrays(d, r, label, nonconverged=sum(pc[2] for pc in per_comp))


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
