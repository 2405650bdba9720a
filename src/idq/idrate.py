"""Identification rate-similarity computations.

All rates are in bits per sample (log base 2, fixed project-wide).  An
unachievable similarity threshold yields the rate ``math.inf``; CSV output
serializes it as the literal string ``inf``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, TauOutOfRange, UnsupportedModel
from .sources import (
    GaussMarkov,
    IidGaussian,
    MultivariateGaussian,
    SourceModel,
)

_MONO_SLACK = 1e-9


def _check_point(d_id, rate) -> None:
    """A point's rule: threshold, then rate, non-negative; NaN fails both."""
    if not (d_id >= 0):
        raise ValueError("similarity threshold must be non-negative")
    if not (rate >= 0):
        raise ValueError("rate must be non-negative or infinite")


@dataclass(frozen=True)
class RateSimilarityPoint:
    """One (similarity threshold, rate) pair; rate may be math.inf."""

    d_id: float
    rate: float

    def __post_init__(self):
        _check_point(self.d_id, self.rate)

    @property
    def finite(self) -> bool:
        return math.isfinite(self.rate)


@dataclass(frozen=True, eq=False)
class Curve:
    """Rate-similarity points as two read-only 1-D arrays of one length, sorted
    by strictly increasing d_id, with rates that do not decrease along the
    curve beyond a 1e-9 slack; a bad point raises as `RateSimilarityPoint`.

    `nonconverged` counts the solves behind the points that stopped at their
    iteration cap; closed-form curves have none.
    """

    d_ids: np.ndarray
    rates: np.ndarray
    nonconverged: int = 0

    def __post_init__(self):
        d = np.array(self.d_ids, dtype=float)
        r = np.array(self.rates, dtype=float)
        if d.ndim != 1 or d.shape != r.shape:
            raise ValueError("d_ids and rates must be 1-D arrays of one length")
        # the points `_check_point` rejects, found at once; the first raises
        bad = np.flatnonzero(~((d >= 0) & (r >= 0)))
        if bad.size:
            _check_point(d[bad[0]], r[bad[0]])
        if np.any(np.diff(d) <= 0):
            raise ValueError("d_id must be strictly increasing along the curve")
        if np.any(np.diff(r) < -_MONO_SLACK):
            raise ValueError("rate decreased along increasing d_id beyond slack")
        d.flags.writeable = r.flags.writeable = False
        object.__setattr__(self, "d_ids", d)
        object.__setattr__(self, "rates", r)


def curve_from_arrays(d, r, nonconverged=0) -> Curve:
    """Sort by d_id, drop duplicate thresholds, and build a validated Curve.

    Points the curve cannot be built from (a rate that falls, say) raise
    ValueError, as bad input does; but when `nonconverged` of the solves
    behind them stopped at their iteration cap, they raise NonConvergence.
    """
    d = np.asarray(d, dtype=float)
    r = np.asarray(r, dtype=float)
    order = np.argsort(d, kind="stable")
    d, r = d[order], r[order]
    # a NaN threshold (sorted last) equals no neighbour, so it is kept and
    # rejected with its point
    keep = np.ones(d.size, dtype=bool)
    keep[1:] = d[1:] != d[:-1]
    try:
        return Curve(d[keep], r[keep], nonconverged)
    except ValueError as exc:
        if not nonconverged:
            raise
        raise NonConvergence(f"{exc} ({nonconverged} solves stopped at max_iter)") from exc


def _check_iid_args(variance: float, d_id: float) -> None:
    """A finite positive variance and a non-negative d_id (inf allowed, NaN not)."""
    if not (math.isfinite(variance) and variance > 0):
        raise ValueError("variance must be positive and finite")
    if not d_id >= 0:  # also rejects NaN
        raise ValueError("d_id must be non-negative")


def id_rate_iid(variance: float, d_id: float) -> float:
    """Identification rate of an i.i.d. Gaussian source at threshold d_id.

    log2(2 sigma^2 / (2 sigma^2 - d_id)) below the 2 sigma^2 limit, infinite at
    or above it.
    """
    _check_iid_args(variance, d_id)
    lim = 2.0 * variance
    if d_id >= lim:
        return math.inf
    return math.log2(lim / (lim - d_id))


def _water_levels(eigenvalues, tau_grid):
    """(eigenvalues, water levels from the last down) of a grid, checked once
    for every level: positive levels, none above the largest of a non-empty
    list of finite, non-negative eigenvalues."""
    xi = np.asarray(eigenvalues, dtype=float)
    taus = np.asarray(tau_grid, dtype=float)
    if not taus.size:
        return xi, taus
    if not taus.min() > 0:  # also rejects NaN
        raise TauOutOfRange("water level must be positive")
    if xi.ndim != 1 or xi.size == 0:
        raise ValueError("need a non-empty eigenvalue list")
    if not np.all(np.isfinite(xi) & (xi >= 0)):
        # a NaN or inf would pass every comparison below and poison the point
        raise ValueError("eigenvalues must be non-negative" if np.any(xi < 0)
                         else "eigenvalues must be finite")
    if taus.max() > xi.max() * (1.0 + 1e-12):
        raise TauOutOfRange(f"tau {taus.max()} above the largest component variance {xi.max()}")
    return xi, taus[::-1]


def water_filling_point(eigenvalues, tau):
    """(`id_point_multivariate`, the per-component similarity shares
    max(0, 2(xi - tau))) at one water level, from one water-filling."""
    xi, (t,) = _water_levels(eigenvalues, [float(tau)])
    point, shares = _water_point(xi, float(t))
    return RateSimilarityPoint(*point), shares


def water_filling_rows(eigenvalues, tau_grid) -> list:
    """One row [d_id, rate, *shares] of Python floats per water level of a
    grid, from its last level to its first: `water_filling_point` at each
    level, with the inputs checked once."""
    xi, levels = _water_levels(eigenvalues, tau_grid)
    rows = []
    for t in levels:
        (d_id, rate), shares = _water_point(xi, float(t))
        rows.append([d_id, rate, *shares.tolist()])
    return rows


def id_point_multivariate(eigenvalues, tau) -> RateSimilarityPoint:
    """Reverse water-filling point for a multivariate Gaussian block.

    rate = (1/M) sum max(0, log2(xi/tau)), d_id = (1/M) sum max(0, 2(xi - tau)).
    """
    return water_filling_point(eigenvalues, tau)[0]


def _water_point(xi, t: float):
    """((d_id, rate), shares) of `water_filling_point`, inputs already validated."""
    shares = np.maximum(0.0, 2.0 * (xi - t))
    rate = float(np.log2(xi[xi > t] / t).sum()) / xi.size
    d_id = float(shares.sum()) / xi.size
    return (max(d_id, 0.0), max(rate, 0.0)), shares


def default_tau_grid(xi_max: float, n_points: int = 200, tau_min: float = None) -> np.ndarray:
    """Log-spaced water levels in [xi_max * 1e-4, xi_max] (ascending)."""
    if n_points < 1:
        raise ValueError("the water-level grid needs at least one point")
    if xi_max <= 0:
        raise ValueError("largest component variance must be positive")
    lo = xi_max * 1e-4 if tau_min is None else tau_min
    if not 0 < lo <= xi_max:
        raise TauOutOfRange("tau_min must lie in (0, xi_max]")
    return np.geomspace(lo, xi_max, n_points)


def id_curve_multivariate(eigenvalues, tau_grid) -> Curve:
    """Sweep the water level over a sorted grid and collect the rate curve.

    Over the samples of a PSD (`SpectralGrid.values`) this is the spectral
    curve: the means over the samples are the midpoint Riemann sums of
    (1/2pi) int max(0, log2(Phi/tau)) and (1/2pi) int max(0, 2(Phi-tau)).
    """
    if np.any(np.diff(np.asarray(tau_grid, dtype=float)) <= 0):
        raise TauOutOfRange("tau grid must be sorted strictly ascending")
    xi, levels = _water_levels(eigenvalues, tau_grid)
    points = [_water_point(xi, float(t))[0] for t in levels]
    return curve_from_arrays(*np.reshape(points, (-1, 2)).T)


def similarity_limit(model: SourceModel) -> float:
    """Threshold beyond which query and database are inherently similar.

    2 sigma^2 for scalar Gaussians, twice the average covariance trace for
    multivariate blocks.
    """
    if isinstance(model, (IidGaussian, GaussMarkov)):
        return 2.0 * model.variance
    if isinstance(model, MultivariateGaussian):
        return 2.0 * float(np.trace(model.covariance.a)) / model.dim
    raise UnsupportedModel(f"similarity limit undefined for {type(model).__name__}")


def lc_delta_rate(variance: float, d_id: float) -> float:
    """Minimum rate of the lossy-compression triangle scheme for a Gaussian source.

    0.5 * log2(1 / (1 - sqrt(2u - u^2))) with u = d_id / (2 sigma^2); infinite
    for u >= 1.
    """
    _check_iid_args(variance, d_id)
    u = d_id / (2.0 * variance)
    if u >= 1.0:
        return math.inf
    root = math.sqrt(max(2.0 * u - u * u, 0.0))
    if root >= 1.0:
        return math.inf
    return 0.5 * math.log2(1.0 / (1.0 - root))
