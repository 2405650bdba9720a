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


@dataclass(frozen=True)
class RateSimilarityPoint:
    """One (similarity threshold, rate) pair; rate may be math.inf."""

    d_id: float
    rate: float

    def __post_init__(self):
        if not (self.d_id >= 0):  # also rejects NaN
            raise ValueError("similarity threshold must be non-negative")
        if not (self.rate >= 0):  # also rejects NaN
            raise ValueError("rate must be non-negative or infinite")

    @property
    def finite(self) -> bool:
        return math.isfinite(self.rate)


@dataclass(frozen=True)
class Curve:
    """Rate-similarity points sorted by strictly increasing d_id, with rates
    that do not decrease along the curve beyond a 1e-9 slack.

    `nonconverged` counts the solves behind the points that stopped at their
    iteration cap; closed-form curves have none.
    """

    points: tuple
    label: str
    nonconverged: int = 0

    def __post_init__(self):
        pts = tuple(self.points)
        d = np.array([p.d_id for p in pts])
        r = np.array([p.rate for p in pts])
        if np.any(np.diff(d) <= 0):
            raise ValueError("d_id must be strictly increasing along the curve")
        if np.any(np.diff(r) < -_MONO_SLACK):
            raise ValueError("rate decreased along increasing d_id beyond slack")
        object.__setattr__(self, "points", pts)

    @property
    def d_ids(self) -> np.ndarray:
        return np.array([p.d_id for p in self.points])

    @property
    def rates(self) -> np.ndarray:
        return np.array([p.rate for p in self.points])


def curve_from_arrays(d, r, label, nonconverged=0) -> Curve:
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
    keep = np.concatenate([[True], d[1:] != d[:-1]])
    try:
        pts = [RateSimilarityPoint(float(a), float(b)) for a, b in zip(d[keep], r[keep])]
        return Curve(tuple(pts), label, nonconverged)
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


def water_filling_point(eigenvalues, tau):
    """(`id_point_multivariate`, the per-component similarity shares
    max(0, 2(xi - tau))) at one water level, from one water-filling."""
    xi = np.asarray(eigenvalues, dtype=float)
    t = float(tau)
    if not t > 0:  # also rejects NaN
        raise TauOutOfRange("water level must be positive")
    if xi.ndim != 1 or xi.size == 0:
        raise ValueError("need a non-empty eigenvalue list")
    if not np.all(np.isfinite(xi) & (xi >= 0)):
        # a NaN or inf would pass every comparison below and poison the point
        raise ValueError("eigenvalues must be non-negative" if np.any(xi < 0)
                         else "eigenvalues must be finite")
    if t > xi.max() * (1.0 + 1e-12):
        raise TauOutOfRange(f"tau {t} above the largest component variance {xi.max()}")
    return _water_point(xi, t)


def id_point_multivariate(eigenvalues, tau) -> RateSimilarityPoint:
    """Reverse water-filling point for a multivariate Gaussian block.

    rate = (1/M) sum max(0, log2(xi/tau)), d_id = (1/M) sum max(0, 2(xi - tau)).
    """
    return water_filling_point(eigenvalues, tau)[0]


def _water_point(xi, t: float):
    """`water_filling_point` for inputs already validated."""
    shares = np.maximum(0.0, 2.0 * (xi - t))
    rate = float(np.log2(xi[xi > t] / t).sum()) / xi.size
    d_id = float(shares.sum()) / xi.size
    return RateSimilarityPoint(max(d_id, 0.0), max(rate, 0.0)), shares


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


def id_curve_multivariate(eigenvalues, tau_grid, label="mv-gaussian") -> Curve:
    """Sweep the water level over a sorted grid and collect the rate curve.

    Over the samples of a PSD (`SpectralGrid.values`) this is the spectral
    curve: the means over the samples are the midpoint Riemann sums of
    (1/2pi) int max(0, log2(Phi/tau)) and (1/2pi) int max(0, 2(Phi-tau)).
    """
    taus = np.asarray(tau_grid, dtype=float)
    if np.any(np.diff(taus) <= 0):
        raise TauOutOfRange("tau grid must be sorted strictly ascending")
    xi = np.asarray(eigenvalues, dtype=float)
    # the eigenvalues and the largest level are checked once, as the first
    # point would check them; the smaller levels need only be positive
    pts = [id_point_multivariate(xi, taus[-1])] if taus.size else []
    for t in taus[-2::-1]:
        if not t > 0:  # also rejects NaN
            raise TauOutOfRange("water level must be positive")
        pts.append(_water_point(xi, float(t))[0])
    return curve_from_arrays([p.d_id for p in pts], [p.rate for p in pts], label)


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
