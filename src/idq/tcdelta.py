"""Iterative approximation of the type-covering triangle-scheme rate curve.

The solver alternates a tilted conditional update with a Bayes marginal
update.  For a slope s >= 0 the conditional is

    Q'(xhat_j | x_i) = t(xhat_j) * exp(-s * (Gamma - Gamma P P^T)(j, i)),

column-normalized, followed by t <- Q P.  The constant shift Gamma P P^T needs
only c = Gamma P, computed once per table and P (`_solve_setup`), and
exponentials are stabilized by subtracting the per-column maximum exponent
(the normalization cancels the shift exactly).

No iteration forms Q.  With e = exp(a) fixed per slope, Q = e t / col where
col = t e, so t <- t * (e w) with w = P / col.  E_joint and the shift term of
the objective J (below) are products with e * Gamma and with the 2-row
[t; c t] e, and the rate needs no third matrix: with amax the column maxima
subtracted from the exponent a, log Q = a - amax + log t - log col gives

    J = t_new . (log t - log t_new) - P . (log col + amax),
    I = J - s * (E_joint - shift term).

An iteration is thus three matrix-vector passes (two when
`exponent_shift=False` drops the shift row) and makes no n x n temporary
(`_step`).  Rows whose marginal falls to PRUNE_EPS are cut during the solve,
and entries of e (and of its folded averages) that would be sub-normal are
exact zeros.  The code marginal is the loop's last t * (e w), which is Q p,
and the reported rate, E_prod and E_joint are the loop's values for that Q;
the channel itself is built only when it is asked for, on every kernel from
the live rows of Gamma and the loop's last c, amax, t and col.  A letter of
zero mass (a wide grid's outermost masses underflow to 0) weighs nothing in
J, the moments or the update, so the loop leaves it out; its channel column
is t_j exp(-s Gamma_ji) normalized over the live codewords.

The passes run on one of two kernels, and the loop is the same on both.
Every source the CLI discretizes is zero-mean on a grid of integer offsets,
so x -> -x maps the letter list onto itself reversed, and p and Gamma are
symmetric under j -> n-1-j to the last bit.  A stationary block has a
persymmetric covariance, so on a product grid of identical axes its p and
Gamma are also symmetric under reversing the coordinate order (M = 2: the
swap (x_1, x_2) -> (x_2, x_1)).  `DistortionMatrix.symmetries` records these
maps and their product.  J is convex and invariant under each of them, so
from a start that they fix every iterate stays fixed by them too.  The
folded kernel runs the same loop on the quotient problem over the orbits of
the stabilizer H of p and the start: ceil(n/2) orbits under the mirror alone
and 289 of the 1089 joint letters at M = 2 under all four maps (Burnside).
Its matrices are the orbit averages K of the rows of e and of e * Gamma, the
mean of the |H| row blocks e[h R] (orbit sizes mu in {1, 2, 4}, so every
rescaling is exact), the letter-orbit masses p' and the codeword-orbit
masses t' = mu * t.  Dense is the case of the trivial group, and under the
mirror alone K = (e[R] + e[sigma R]) / mu.  The plain rate-distortion update
(no shift) folds the same way as the TC update.

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

Zero rate.  All mass on one codeword k, t = delta_k, is the channel
Q(k|i) = 1: rate 0 and E_prod = E_joint = c_k, so d_id 0.  J is convex in t,
and delta_k minimizes it over every codeword of the table iff the KKT
condition (Blahut 1972) g_j = sum_i p_i E_ji / E_ki <= 1 holds for every
j != k, with E = exp(a) the tilt.  The best single codeword is the argmin of
c, and at low slopes it is the exact optimum: without the shift term, g_j of
a N(0, v) source in the continuum is exp((2 s v - 1) s xhat_j^2), at most 1
for every xhat_j iff s <= 1/(2v), and a grid moves that threshold a little.
The loop only crawls toward rate 0 there and often stops at `max_iter`.  So
every solve first tests the condition for the centre codeword (the argmin
of c, live and fixed by the kernel's group), at the cost of one product on
its own tilt when the live rows fail it, and returns delta_k when it holds;
otherwise the loop runs unchanged.  No threshold is fixed in advance: the
test decides, with a margin that covers rounding.  A sweep that reaches such
a slope warm-starts the next lower one from delta_k, and the codewords that
start pruned are tested in the log domain, so every lower slope is proved
again over the whole table.

Rates are reported in bits.  A solution's rate-similarity point carries the
largest similarity threshold the metric's triangle inequality certifies from
the channel moments: E_prod - E_joint for Hamming distance, and
(sqrt(E_prod) - sqrt(E_joint))^2 for quadratic distance.
"""

import functools
import logging
import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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

#: Why a solve stopped (`TcSolution.stop_reason`): both steps at or below
#: `tol`, the iteration cap, or the one-codeword optimum proved before the loop.
TOL = "tol"
MAX_ITER = "max_iter"
ONE_CODEWORD = "one-codeword"

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


class DistortionMatrix:
    """Per-letter distortions; entry (j, i) = rho(x_i, xhat_j) >= 0, held as
    the dense m x n array `gamma`.  A solve reads nothing but `block`,
    `shape` and `max_entry`, so a table may hold less (`_ProductTable`).

    `symmetries` is set by `distortion_matrix` when both sides are one letter
    list x: the letter permutations q other than the identity with
    Gamma[q][:, q] == Gamma bit for bit that it finds (`_symmetries`).  With
    the identity they form a group of order 1, 2 or 4.

    A solve may keep its set-up for the next solve on the same table
    (`_solve_setup`), so a table is not to be changed once solved on.
    """

    def __init__(self, gamma, metric: str = QUADRATIC):
        g = np.asarray(gamma, dtype=float)
        if g.ndim != 2:
            raise DimensionMismatch("distortion matrix must be 2-D")
        if not np.all(np.isfinite(g) & (g >= 0)):
            raise ValueError("distortions must be finite and non-negative")
        self.gamma, self.shape, self.metric, self.symmetries = g, g.shape, metric, ()

    def block(self, rows, cols) -> np.ndarray:
        """Gamma[rows][:, cols], for index arrays, masks or slices: a view of
        `gamma` when both are slices, else a fresh array."""
        if isinstance(rows, slice) and isinstance(cols, slice):
            return self.gamma[rows, cols]
        return self.gamma[np.ix_(np.arange(self.shape[0])[rows], np.arange(self.shape[1])[cols])]

    @functools.cached_property
    def max_entry(self) -> float:
        """The largest entry."""
        return float(self.gamma.max())


class _ProductTable(DistortionMatrix):
    """The quadratic table of one letter list x that is a product grid
    (`_product_axes`; a sorted 1-D grid is one axis), held as x alone: n x d
    numbers in place of n^2.  Each block is computed from the letters as
    `distortion_matrix` computes a dense table, so it is that table's block
    bit for bit, and always a fresh array.  `gamma` is built on its first
    read and kept (tests and oracles read it; no solve does)."""

    def __init__(self, x):
        self.letters, self.shape, self.metric, self.symmetries = x, (len(x), len(x)), QUADRATIC, ()
        with np.errstate(over="ignore", invalid="ignore"):
            if not math.isfinite(self.max_entry):  # NaN too: an infinite letter
                raise ValueError("distortions must be finite and non-negative")

    def block(self, rows, cols) -> np.ndarray:
        x = self.letters
        return _pair_sum(lambda k: _sq_diff(x[rows, k], x[cols, k]), x.shape[1])

    @functools.cached_property
    def max_entry(self) -> float:
        """The entry between the last letter, every coordinate greatest, and
        the first, every coordinate least: rounding is monotone, so no entry
        is larger."""
        return float(self.block([-1], [0])[0, 0])

    @functools.cached_property
    def gamma(self) -> np.ndarray:
        return self.block(slice(None), slice(None))


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

    The code marginal is the loop's last Q p.  The channel Q, an m x n
    matrix, is built from the solve's last state on first access only.
    stop_reason is TOL or MAX_ITER for a solve that ran the loop, and
    ONE_CODEWORD (0 iterations) for one settled before it; `converged` is
    every stop but MAX_ITER.
    """

    slope_s: float
    code_marginal: Pmf
    rate: float
    iterations: int
    stop_reason: str
    e_prod: float
    e_joint: float
    lagrangian_rise: float
    surrogate_rise: float
    build_channel: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @property
    def d_s(self) -> float:
        return self.e_prod - self.e_joint

    @property
    def converged(self) -> bool:
        return self.stop_reason != MAX_ITER

    @functools.cached_property
    def channel(self) -> Channel:
        return Channel(self.build_channel())


def distortion_matrix(x_grid, xhat_grid, metric: str = QUADRATIC) -> DistortionMatrix:
    """Distortion table between a source grid and a codeword grid.

    Grids may be 1-D scalars or (n, d) blocks; quadratic means squared
    Euclidean distance, summed one coordinate at a time (`_pair_sum`), hamming
    the 0/1 inequality indicator.  A table between one letter list on both
    sides records the permutations that map it onto itself (`symmetries`; a
    Hamming table only the mirror).  A quadratic table of one letter list
    that is a product grid holds the letters alone and computes its entries
    when they are read (`_ProductTable`); every other table is dense.
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
    one_list = np.array_equal(x, xh)
    axes = _product_axes(x) if one_list and metric == QUADRATIC else None
    if metric == QUADRATIC and axes is not None:
        dm = _ProductTable(x.copy())
    elif metric == QUADRATIC:
        dm = DistortionMatrix(_pair_sum(lambda k: _sq_diff(xh[:, k], x[:, k]), x.shape[1]))
    elif metric == HAMMING:
        same = np.all(xh[:, None, :] == x[None, :, :], axis=2)
        dm = DistortionMatrix(1.0 - same.astype(float), HAMMING)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    if one_list:
        dm.symmetries = _symmetries(x, axes)
    return dm


def _sq_diff(a, b) -> np.ndarray:
    """The table (a_j - b_i)^2 of one coordinate."""
    d = np.subtract.outer(a, b)
    d *= d
    return d


def _pair_sum(term, d):
    """term(0) + ... + term(d-1), coordinates k and d-1-k added as one pair
    before the next pair, so that reversing the coordinate order leaves the
    sum unchanged bit for bit.  Each term is a fresh array, which the sum is
    written over."""
    for k in range((d + 1) // 2):
        pair = term(k)
        if k < d - 1 - k:
            pair += term(d - 1 - k)
        if k == 0:
            total = pair
        else:
            total += pair
    return total


def _product_axes(x):
    """The per-axis grids whose lexicographic product is the letter list x
    (rows of x), or None when x is no such product."""
    axes = []
    for col in x.T:
        a = np.sort(col)  # np.unique would import numpy.ma
        axes.append(a[np.append(True, a[1:] != a[:-1])])
    if math.prod(a.size for a in axes) != len(x):
        return None
    mesh = np.meshgrid(*axes, indexing="ij")
    if all(np.array_equal(m.ravel(), col) for m, col in zip(mesh, x.T)):
        return tuple(axes)
    return None


def _symmetries(x, axes) -> tuple:
    """The permutations other than the identity of the letter list x that map
    its table onto itself bit for bit: the mirror j -> n-1-j when
    x[::-1] == -x (every coordinate difference only changes sign); the
    reversal of the coordinate order when x is the product of `axes` and the
    axes read the same backwards (`distortion_matrix` adds coordinates k and
    d-1-k as one pair); and, when there are both, their product."""
    n = len(x)
    perms = [np.arange(n)]
    mirror = np.array_equal(x[::-1], -x)
    if mirror:
        perms.append(perms[0][::-1])
    if axes is not None and len(axes) > 1 \
            and all(np.array_equal(a, b) for a, b in zip(axes, axes[::-1])):
        reversal = perms[0].reshape([a.size for a in axes]).T.ravel()
        perms += [reversal, reversal[::-1]] if mirror else [reversal]
    # an axis of one point can make a map the identity, or two maps one
    return tuple({q.tobytes(): q for q in perms}.values())[1:]


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


def _table(gamma) -> DistortionMatrix:
    return gamma if isinstance(gamma, DistortionMatrix) else DistortionMatrix(gamma)


_TINY = np.finfo(float).tiny
#: exp(a) is sub-normal below this exponent
_LOG_TINY = math.log(_TINY)
_EPS = np.finfo(float).eps


def _exp(a) -> np.ndarray:
    """exp(a) in place, with exact zeros where the result would be sub-normal
    (numpy's exp is about 100x slower there, and so is every product that
    reads such entries).  Each entry moves by less than 2.3e-308."""
    normal = a >= _LOG_TINY
    np.exp(a, out=a, where=normal)
    np.copyto(a, 0.0, where=np.logical_not(normal, out=normal))
    return a


def _tilt(g, p, s: float, exponent_shift: bool = True, c=None, amax=None, live=None):
    """Per-slope terms of the update: (c, amax, e) with c = Gamma p, amax the
    column maxima of a = -s * (Gamma - c p^T) (or -s * Gamma without the
    shift), and e = exp(a - amax) (`_exp`).  Gamma is g, or, when g is a
    stack of row blocks (3-D, one row per entry of c), the blocks g[h] cut
    to their rows `live` (None: all) and stacked in order; each is read once
    and copied only when cut, one at a time, and g is never written.  p is
    the mass of each column of g; a given c (the rows' Gamma p over every
    letter) or amax is used as it is."""
    if g.ndim == 2:
        g = g[None]
    if c is None:
        c = g[0] @ p
    k = c.size
    a = np.empty((len(g) * k, p.size))
    for h, block in enumerate(g):
        ah = a[h * k:(h + 1) * k]
        if live is not None:
            block = block[live]
        if exponent_shift:
            # shift entry (j, i) = p_i * sum_k p_k rho(x_k, xhat_j); in place,
            # s * (c p^T - Gamma) is -s * (Gamma - c p^T) bit for bit
            np.outer(c, p, out=ah)
            ah -= block
        else:
            np.multiply(block, -s, out=ah)
    if exponent_shift:
        a *= s
    if amax is None:
        amax = a.max(axis=0)
    a -= amax
    return c, amax, _exp(a)


def _folded_tilt(block, live, p, s: float, exponent_shift: bool, c):
    """`_tilt` of a solve's set-up block (`_Setup.block`: row block h holds
    the image under the h-th group element, the identity first, of one
    codeword of each orbit, on one letter per letter orbit with masses p),
    cut to the live orbits `live` (None: all), whose Gamma p values are c:
    (amax, K, KG).  K is the mean of the group's row blocks of e, the orbit
    average of each codeword row (`_fold_rows`), and KG the same of
    e * Gamma.  The dense kernel is the case of the trivial group: K and KG
    are the rows of e and e * Gamma.  The block is shared by every solve of
    the set-up and only read: e is folded into K first, then e * Gamma is
    written over e, one image block at a time, and folded over its own
    first block (KG is a view of e), so the tilt holds the block, e, K and,
    when rows are dead, the live rows of one image block at a time.  On the
    dense kernel K is e itself, so e * Gamma takes a copy of the live rows
    (or, with every row live, a fresh array)."""
    order = block.shape[0]
    _, amax, e = _tilt(block, p, s, exponent_shift, c=c, live=live)
    k = _fold_rows(e, order)
    if order == 1:  # k is e
        g = block[0] if live is None else block[0][live]
        eg = np.multiply(e, g, out=None if live is None else g)
    else:
        for eh, g in zip(e.reshape(order, -1, e.shape[1]), block):
            eh *= g if live is None else g[live]
        eg = e
    return amax, k, _fold_rows(eg, order, over=True)


def _fold_rows(x, order, over=False) -> np.ndarray:
    """The mean of the `order` row blocks of x, x itself when order is 1: a
    new array, or, with `over`, x's first row block, written over (a view,
    which keeps all of x).  The blocks are added in order, as numpy's sum
    over the block axis adds them.  x is non-negative; a mean that would be
    sub-normal is an exact zero, as in `_exp`.  Under the mirror alone this
    is (e[R] + e[sigma R]) / mu with orbit sizes mu, bit for bit, since
    (y + y) / 2 == y."""
    if order == 1:
        return x
    blocks = x.reshape(order, -1, x.shape[1])
    out = blocks[0] if over else blocks[0].copy()
    for b in blocks[1:]:
        out += b
    out /= order
    out[out < _TINY] = 0.0
    return out


def _step(e, t, p, c=None):
    """One update from codeword marginal t: returns (col, w, t_new, cte) with
    the column normalizers col = t e, w = p / col, the new marginal
    t_new = t * (e w) and cte = (c t) e (None without `c`), from one 2-row
    product.  J's shift term sum_ij p_i Q(j|i) c_j p_i is cte . (p w); it is
    quadratic in p, so on the folded kernel, whose p is the letter-orbit mass
    (`_folded_tilt`), the caller forms it with one letter's mass.  The
    channel is e t / col (see `_channel`).

    A normalizer so far below the normal range that p / col overflows is an
    underflow too: the column's mass sits on codewords the grid has lost.
    Callers ignore numpy's overflow and invalid warnings around it."""
    if c is None:
        col, cte = t @ e, None
    else:
        col, cte = np.vstack((t, c * t)) @ e
    if col.min() > 0.0:
        w = p / col
        ew = e @ w
        if np.isfinite(ew).all():
            return col, w, t * ew, cte
    raise NumericalUnderflow(
        "a channel column normalized to zero; slope too large for the grid"
    )


def _channel(e, t, col) -> np.ndarray:
    """The channel e t / col, written over e."""
    e *= t[:, None]
    e /= col
    return e


def _kernel(gamma, p, t):
    """The kernel a solve runs on (folded or dense) and the group of codeword
    permutations it folds under, one per row with the identity first: the
    symmetries of gamma that fix p and t exactly (their stabilizer), or the
    identity alone."""
    group = [np.arange(t.size)]
    group += [q for q in getattr(gamma, "symmetries", ())
              if np.array_equal(p[q], p) and np.array_equal(t[q], t)]
    return "folded" if len(group) > 1 else "dense", np.array(group)


def _orbits(group):
    """(reps, orbit) for the permutation group `group` (one per row): reps
    holds the least element of each orbit in ascending order, and is a slice,
    so that indexing by it makes views, when those are 0 .. k-1; orbit[j] is
    the rank of the least element j maps to."""
    least = group.min(axis=0)
    reps = np.flatnonzero(least == group[0])  # group[0] is the identity
    orbit = np.searchsorted(reps, least)
    return (slice(reps.size) if reps[-1] == reps.size - 1 else reps), orbit


class _Setup(NamedTuple):
    """What a solve needs that depends on the table, p and the kernel's group
    only, not on the slope or the warm start's live rows (`_solve_setup`)."""

    reps: object  # one codeword of each orbit (`_orbits`)
    orbit: np.ndarray  # the orbit of each codeword
    mu_all: np.ndarray  # the size of each codeword orbit
    letter_orbit: np.ndarray  # the column of each letter of positive mass
    p_orb: np.ndarray  # the mass of each letter orbit of positive mass
    p_letter: np.ndarray  # the mass of one letter of each
    c_all: np.ndarray  # Gamma p on each codeword orbit
    rep: np.ndarray  # the index of one codeword of each orbit
    block: np.ndarray  # (order, orbits, columns): Gamma on the orbit images x columns


#: the set-up of the last solve, keyed by its table (`_solve_setup`)
_last_setup = weakref.WeakKeyDictionary()


def _solve_setup(table, p, group) -> _Setup:
    """The set-up of a solve on `table` with source masses p that folds
    under `group` (`_kernel`): the orbits, the letter-orbit masses, Gamma p
    on each codeword orbit and the block of Gamma that the tilt reads, the
    images of one codeword of each orbit under each group element (the
    identity first) on one letter of each letter orbit of positive mass.
    On the dense kernel the block is the table's own rows, a view of a
    dense table when every letter has mass.

    The last set-up built is kept for the next solve, so every slope of a
    sweep, and every sweep of the same p on one table (the TC and the plain
    rate-distortion sweep of `compare`), builds it once; a solve whose warm
    start prunes rows reads their live rows from its block (`_folded_tilt`).
    Only one set-up is kept, and only while its table lives: the components
    of `component_tc_curve`, swept one table after the other, hold one
    block at a time, not one each."""
    key = p.tobytes(), group.tobytes()
    if table in _last_setup and _last_setup[table][0] == key:
        return _last_setup[table][1]
    _last_setup.clear()  # the old block goes before the new one is built
    m, n = table.shape
    order = len(group)
    # the orbit of each codeword; under a symmetry (m = n) each letter has
    # the same orbit, otherwise each letter is its own
    reps, orbit = _orbits(group)
    cols, letter_orbit = (reps, orbit) if order > 1 else (slice(None), np.arange(n))
    p_orb = np.bincount(letter_orbit, p)  # the mass of each letter orbit
    if not p_orb.all():
        # a letter of zero mass weighs nothing in J, the moments or the
        # update, so the solve runs on the letter orbits of positive mass;
        # letter_orbit then maps each letter of positive mass to its column
        massive = np.flatnonzero(p_orb)
        cols = np.arange(n)[cols][massive]
        letter_orbit = np.searchsorted(massive, letter_orbit[p > 0])
        p_orb = p_orb[massive]
    c_all = table.block(reps, slice(None)) @ p  # before the block, so no two are alive
    rep = np.arange(m)[reps]
    block = table.block(slice(None) if order == 1 else group[:, rep].ravel(), cols)
    setup = _Setup(reps, orbit, np.bincount(orbit).astype(float), letter_orbit, p_orb,
                   p[cols], c_all, rep, block.reshape(order, rep.size, -1))
    _last_setup[table] = key, setup
    return setup


#: each solve's DEBUG line: slope, kernel, rows x letter columns, stop reason
_SOLVE_LINE = "slope %g: %s kernel, %d rows x %d columns, stopped on %s after %d iterations"


def _one_codeword(e, kr, p_orb, table, p, s, exponent_shift, k, dead, dc) -> bool:
    """Whether t = delta_k is proved to minimize J over every codeword of the
    table (module docstring): g_j = sum_i p_i E_ji / E_ki <= 1 for j != k.

    The live rows take one product on the solve's own tilt e (amax cancels
    in each ratio): k is fixed by the kernel's group, so E_ki is the same on
    each letter orbit, and g = e (p_orb / e[kr]).  Only if they pass are the
    codewords `dead` (one of each orbit the warm start pruned; dc holds their
    c less c_k) checked, in the log domain over the letters of positive mass.
    A zero E_ki at such a letter proves nothing.  Each zero written into e
    (`_exp`, `_fold_rows`) hides less than the smallest normal number, and
    every g_j must clear 1 by a margin for rounding: each exponent is off by
    a few eps (n + 1)(1 + s max Gamma), log p by at most 745 eps, and a sum
    of n terms by n eps, relative."""
    ek = e[kr]
    if not (ek > 0).all():
        return False
    v = p_orb / ek
    g = e @ v
    g[kr] = 0.0  # g_k = 1
    worst = g.max() + _TINY * v.sum()
    if worst > 1.0:  # most slopes end here, at the cost of one product
        return False
    n = p.size
    slack = 16 * _EPS * ((n + 1) * (1.0 + s * table.max_entry) + 745)
    if worst > 1.0 - slack:
        return False
    if dead.size == 0:
        return True
    letters = np.flatnonzero(p)
    # log(p_i E_ji / E_ki) = log p_i + s ((c_j - c_k) p_i - (Gamma_ji - Gamma_ki))
    x = table.block(dead, letters) - table.block([k], letters)
    if exponent_shift:
        x -= np.outer(dc, p[letters])
    x *= -s
    x += np.log(p[letters])
    top = x.max(axis=1)
    x -= top[:, None]
    log_g = top + np.log(np.exp(x).sum(axis=1))
    return bool(log_g.max() <= math.log1p(-slack))


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
    mass has fallen to PRUNE_EPS make up 1/8 of the live ones, they are cut
    from the iteration's matrices in the same way (one DEBUG line each time);
    the 1/8 keeps the row copies rare while no iteration streams many dead
    rows.  `exponent_shift=False` drops the Gamma P P^T term, which turns the
    update into the plain rate-distortion iteration (used for the
    lossy-compression baseline of correlated sources).  A solve that stops at
    `max_iter` logs one WARNING with its last steps in I and D_s, and every
    solve logs one DEBUG line naming its kernel (dense or folded) and why it
    stopped (`TcSolution.stop_reason`).

    Before the loop, a solve whose centre codeword k (the argmin of
    c = Gamma p, live and its own orbit) is proved the exact optimum by the
    KKT condition over every codeword (`_one_codeword`, module docstring)
    returns t = delta_k with no iteration: rate 0, E_prod = E_joint = c_k,
    stop reason ONE_CODEWORD.  Otherwise the loop below runs as it would
    without the test.

    Each iteration is three matrix passes over the live rows of matrices
    built once per slope: [t; c t] e, e w and (e * Gamma) w (without the
    shift, t e in place of the 2-row product).  I comes from J and the
    moments (module docstring), so no e * a matrix is kept.  The code
    marginal is the loop's last t * (e w), the Q p of the last iteration's
    channel Q = e t / col, and the rate is the loop's I for that channel
    (max(I, 0) / ln 2).  Q itself is built only when `TcSolution.channel` is
    first read, on every kernel from the live rows of Gamma tilted again with
    the loop's c and amax (`_build_channel`).

    Kernels (module docstring).  A `DistortionMatrix` with `symmetries`, one
    of which fixes p and the warm start exactly, runs folded on the orbits of
    all those that do, with or without the shift, and its code marginal is
    fixed by them exactly too, so a warm-started sweep stays folded.  Every
    other input runs dense.  Dense and folded matrices come from one set-up
    (`_solve_setup`), dense being the case of the trivial group: the orbits,
    Gamma p on each codeword orbit and the block of Gamma on the orbit
    images and letter orbits.  It depends on the table, p and the group
    only, so it is built on the first solve and kept for the next one on the
    same table with the same p and group: a sweep builds it once, and so do
    the TC and the plain rate-distortion sweep of one table and p.  A solve
    only tilts that block (its live rows when the warm start pruned some)
    and folds it (`_folded_tilt`).  A dense solve holds e and e * Gamma, a
    folded one their orbit averages (a quarter of the size under the
    mirror, a fourteenth under all four maps); a mid-solve cut copies one
    matrix at a time.  The set-up reads the table's blocks of the rows and
    letters it needs (`DistortionMatrix.block`) and nothing more, so a
    product table builds no dense array.
    """
    p = _probs(p_x)
    table = _table(gamma)
    m, n = table.shape
    if n != p.size:
        raise DimensionMismatch("gamma columns must match the source alphabet")
    if not 0.0 <= s < math.inf:  # also rejects NaN
        raise ValueError("slope must be finite and non-negative")
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

    kernel, group = _kernel(table, p, t)
    reps, orbit, mu_all, letter_orbit, p_orb, p_letter, c_all, rep, block = \
        _solve_setup(table, p, group)
    t = t[reps]  # the mass of one codeword of each orbit
    rows = np.flatnonzero(t > PRUNE_EPS)  # orbit of each live row
    if rows.size == 0:
        raise NumericalUnderflow("no codewords above the pruning threshold")
    mu = mu_all[rows]
    n_live = int(mu.sum())
    if n_live < m:
        logger.debug("pruning %d dead codewords before slope %g", m - n_live, s)
    c = c_all[rows]
    amax, e, eg = _folded_tilt(block, None if rows.size == rep.size else rows, p_letter, s,
                               exponent_shift, c)
    line = s, kernel, rows.size, p_orb.size  # for the DEBUG line
    if isinstance(p_x, Pmf) and p_x.n == m:
        support = p_x.support
    else:
        support = np.arange(m, dtype=float)

    # the centre codeword: the argmin of Gamma p, live and fixed by the group
    k = int(np.argmin(c_all))
    kr = int(np.searchsorted(rows, k))
    if mu_all[k] == 1 and kr < rows.size and rows[kr] == k:
        dead = np.flatnonzero(t <= PRUNE_EPS)
        if _one_codeword(e, kr, p_orb, table, p, s, exponent_shift, rep[k], rep[dead],
                         c_all[dead] - c_all[k]):
            logger.debug(_SOLVE_LINE, *line, ONE_CODEWORD, 0)
            return _one_codeword_solution(s, support, rep[k], float(c_all[k]), table.shape)
    p_amax = float(p_orb @ amax)

    i_prev = math.inf
    d_prev = math.inf
    lagr_prev = math.inf
    surr_prev = math.inf
    max_rise = 0.0
    max_surr_rise = 0.0
    converged = False
    step_i = step_d = math.inf
    t_new = mu * t[rows]
    t_new /= t_new.sum()
    ltn = np.log(t_new, out=np.zeros_like(t_new), where=t_new > 0)
    floor = mu * PRUNE_EPS  # each codeword of the orbit at PRUNE_EPS
    # _step raises NumericalUnderflow where p / col overflows
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, max_iter + 1):
            tv, lt = t_new, ltn  # the marginal behind this iteration's channel e tv / col
            assert (tv >= 0.0).all()  # e >= 0, so the channel is non-negative too
            dead = tv <= floor
            n_dead = int(mu[dead].sum())
            if 8 * n_dead >= n_live:
                logger.debug(
                    "slope %g, iteration %d: dropping %d of %d codewords at or below "
                    "PRUNE_EPS", s, iterations, n_dead, n_live,
                )
                live = ~dead
                rows, c, tv, lt = rows[live], c[live], tv[live], lt[live]
                mu, floor = mu[live], floor[live]
                n_live -= n_dead
                # one matrix at a time, so no old and new copies of both are alive
                e = e[live]
                eg = eg[live]
            col, w, t_new, cte = _step(e, tv, p_orb, c if exponent_shift else None)
            shift_term = 0.0 if cte is None else float(cte @ (p_letter * w))
            ltn = np.log(t_new, out=np.zeros_like(t_new), where=t_new > 0)
            # J and I(X;Xhat) in nats from log Q = a - amax + log t - log col.
            # p . amax and s * shift_term nearly cancel, so I subtracts them together.
            j_amax = float(t_new @ (lt - ltn)) - float(np.log(col) @ p_orb)  # J + p . amax
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

    stop_reason = TOL if converged else MAX_ITER
    logger.debug(_SOLVE_LINE, *line, stop_reason, iterations)
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
    del e, eg

    def per_codeword(v):
        """A vector over the live orbits, spread over all m codewords."""
        full = np.zeros(mu_all.size)
        full[rows] = v
        return full[orbit]

    codewords = np.flatnonzero(per_codeword(1.0))  # both members of each live orbit
    build_channel = functools.partial(
        _build_channel, table, p, s, exponent_shift, codewords, per_codeword(c)[codewords],
        per_codeword(tv / mu)[codewords], col[letter_orbit], amax[letter_orbit],
    )
    return TcSolution(
        slope_s=float(s),
        code_marginal=Pmf(support, per_codeword(t_new / mu)),
        rate=max(i_nats, 0.0) / LN2,
        iterations=iterations,
        stop_reason=stop_reason,
        e_prod=e_prod,
        e_joint=e_joint,
        lagrangian_rise=max_rise,
        surrogate_rise=max_surr_rise,
        build_channel=build_channel,
    )


def _one_codeword_solution(s, support, k, c_k, shape) -> TcSolution:
    """The solution t = delta_k: rate 0, E_prod = E_joint = c_k, and the
    channel Q(k|i) = 1."""
    t = np.zeros(shape[0])
    t[k] = 1.0

    def build_channel():
        q = np.zeros(shape)
        q[k] = 1.0
        return q

    return TcSolution(
        slope_s=float(s),
        code_marginal=Pmf(support, t),
        rate=0.0,
        iterations=0,
        stop_reason=ONE_CODEWORD,
        e_prod=c_k,
        e_joint=c_k,
        lagrangian_rise=0.0,
        surrogate_rise=0.0,
        build_channel=build_channel,
    )


def _build_channel(table, p, s, exponent_shift, codewords, c, t, col, amax):
    """The m x n channel e t / col of a solve's last iteration, with zeros
    outside its live `codewords`: the rows of e are the tilt of those rows of
    Gamma with the solve's own c and amax, on either kernel.  col and amax
    belong to the letters of positive mass.  The solve left the letters of
    zero mass out; each gets the column t_j exp(-s Gamma_ji) normalized over
    the live codewords, since its shift term c_j p_i is 0."""
    pos = p > 0
    q = np.empty((codewords.size, p.size))
    g = table.block(codewords, pos)
    _, _, e = _tilt(g, p[pos], s, exponent_shift, c=c, amax=amax)
    q[:, pos] = _channel(e, t, col)
    with np.errstate(divide="ignore"):
        b = np.log(t)[:, None] - s * table.block(codewords, ~pos)
    b -= b.max(axis=0)
    np.exp(b, out=b)
    # a column and its image under a symmetry hold the same values in
    # another order; summed sorted, they get one normalizer bit for bit
    q[:, ~pos] = b / np.sort(b, axis=0).sum(axis=0)
    if codewords.size == table.shape[0]:
        return q
    q_full = np.zeros(table.shape)
    q_full[codewords] = q
    return q_full


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
    if not np.all((0.0 <= svals) & (svals < math.inf)):  # also rejects NaN
        raise ValueError("slope must be finite and non-negative")
    if np.any(np.diff(svals) < 0):
        raise ValueError("slope grid must be sorted ascending")
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
    gamma's metric as it is solved and drop it; no solution's channel is
    built.  Returns (d_ids, rates, nonconverged) in ascending slope order,
    with nonconverged the number of solves that stopped at `max_iter`."""
    metric = _metric_of(gamma)
    d, r, stopped = [], [], 0
    for sol in _sweep(p_x, gamma, s_grid, tol, max_iter, exponent_shift):
        d_id, rate = solution_point(sol, metric)
        d.append(d_id)
        r.append(rate)
        stopped += sol.stop_reason == MAX_ITER
        del sol  # the next solve runs without it
    return np.array(d[::-1]), np.array(r[::-1]), stopped


def component_tc_curve(
    components,
    s_grid,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Curve:
    """Pareto-condition curve of the component model: every component runs the
    solver independently at each common slope; the model's point averages the
    component rates and the component similarity thresholds.  One component
    gives the curve of its own slope sweep."""
    if not components:
        raise ValueError("need at least one component")
    per_comp = [
        sweep_points(p_m, g_m, s_grid, tol=tol, max_iter=max_iter) for p_m, g_m in components
    ]
    d = [float(np.mean(d_at_s)) for d_at_s in zip(*(pc[0] for pc in per_comp))]
    r = [float(np.mean(r_at_s)) for r_at_s in zip(*(pc[1] for pc in per_comp))]
    return curve_from_arrays(d, r, sum(pc[2] for pc in per_comp))
