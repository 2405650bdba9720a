"""Source models, discretization to finite PMFs, spectra, and seeded sampling."""

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DimensionMismatch, UnsupportedModel
from .linalg import SymMatrix, jacobi_eigh

# Discretization defaults: 8 sigma half-width leaves < 1e-15 truncated mass,
# 513 points keep the solver's channel matrices tractable.
DEFAULT_HALF_WIDTH_SIGMAS = 8.0
DEFAULT_GRID_POINTS = 513


@dataclass(frozen=True)
class IidGaussian:
    variance: float

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("variance must be positive")


@dataclass(frozen=True)
class MultivariateGaussian:
    covariance: SymMatrix

    def __post_init__(self):
        w = np.linalg.eigvalsh(self.covariance.a)
        if w.min() < -1e-10:
            raise ValueError(f"covariance is not PSD (min eigenvalue {w.min():.3e})")

    @property
    def dim(self) -> int:
        return self.covariance.dim


@dataclass(frozen=True)
class GaussMarkov:
    variance: float
    rho: float

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("variance must be positive")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("AR(1) coefficient must lie in (-1, 1)")


@dataclass(frozen=True)
class Bernoulli:
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("Bernoulli parameter must lie in [0, 1]")


SourceModel = Union[IidGaussian, MultivariateGaussian, GaussMarkov, Bernoulli]


@dataclass(frozen=True)
class Pmf:
    """Probability mass function on a strictly increasing real grid."""

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.support, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if s.ndim != 1 or s.shape != p.shape:
            raise DimensionMismatch("support and probs must be 1-D with equal length")
        if np.any(np.diff(s) <= 0):
            raise ValueError("support must be strictly increasing")
        if np.any(p < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, expected 1")
        object.__setattr__(self, "support", s)
        object.__setattr__(self, "probs", p)

    @property
    def n(self) -> int:
        return self.support.size

    def mean(self) -> float:
        return float(self.probs @ self.support)

    def second_moment(self) -> float:
        return float(self.probs @ self.support**2)


@dataclass(frozen=True)
class SpectralGrid:
    """PSD samples on a uniform midpoint grid over [-pi, pi]."""

    omegas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.omegas, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if w.ndim != 1 or w.shape != v.shape or w.size < 2:
            raise DimensionMismatch("need at least 2 matching grid points")
        steps = np.diff(w)
        if np.any(steps <= 0) or np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]):
            raise ValueError("omega grid must be uniform and increasing")
        if np.any(v < 0):
            raise ValueError("PSD values must be non-negative")
        object.__setattr__(self, "omegas", w)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.omegas.size


def autocovariance(model: SourceModel, lag: int) -> float:
    """Autocovariance at a non-negative lag for scalar stationary models."""
    if lag < 0:
        raise ValueError("lag must be non-negative")
    if isinstance(model, IidGaussian):
        return model.variance if lag == 0 else 0.0
    if isinstance(model, GaussMarkov):
        return model.variance * model.rho**lag
    raise UnsupportedModel(f"autocovariance undefined for {type(model).__name__}")


def psd_gauss_markov(rho: float, omega) -> float:
    """Unit-variance AR(1) power spectral density (1-rho^2)/(1-2 rho cos w + rho^2)."""
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must lie in (-1, 1)")
    omega = np.asarray(omega, dtype=float)
    out = (1.0 - rho * rho) / (1.0 - 2.0 * rho * np.cos(omega) + rho * rho)
    return float(out) if out.ndim == 0 else out


def spectral_grid(model: SourceModel, k_points: int = 4096) -> SpectralGrid:
    """Midpoint-rule PSD grid for a scalar stationary Gaussian model."""
    if k_points < 2:
        raise ValueError("need at least 2 grid points")
    h = 2.0 * np.pi / k_points
    omegas = -np.pi + (np.arange(k_points) + 0.5) * h
    if isinstance(model, IidGaussian):
        values = np.full(k_points, model.variance)
    elif isinstance(model, GaussMarkov):
        values = model.variance * psd_gauss_markov(model.rho, omegas)
    else:
        raise UnsupportedModel(f"no scalar PSD for {type(model).__name__}")
    return SpectralGrid(omegas, values)


def discretize_gaussian(
    variance: float,
    half_width_sigmas: float = DEFAULT_HALF_WIDTH_SIGMAS,
    n_points: int = DEFAULT_GRID_POINTS,
) -> Pmf:
    """Zero-mean Gaussian truncated to [-k sigma, k sigma] on a uniform grid.

    Point masses are proportional to the density at each grid point.  The grid
    is built from integer offsets so the PMF is symmetric to the last bit.
    """
    if variance <= 0:
        raise ValueError("variance must be positive")
    if half_width_sigmas <= 0:
        raise ValueError("half width must be positive")
    if n_points < 3 or n_points % 2 == 0:
        raise ValueError("n_points must be an odd integer >= 3 so that 0 is a grid point")
    half = (n_points - 1) // 2
    step = half_width_sigmas * np.sqrt(variance) / half
    support = (np.arange(n_points) - half) * step
    w = np.exp(-(support**2) / (2.0 * variance))
    return Pmf(support, w / w.sum())


def bernoulli_pmf(p: float) -> Pmf:
    """Two-point PMF on {0, 1}."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return Pmf(np.array([0.0, 1.0]), np.array([1.0 - p, p]))


def discretize_mv_gaussian(
    covariance: SymMatrix,
    half_width_sigmas: float = 6.0,
    n_points_per_axis: int = 33,
):
    """Product-grid discretization of a zero-mean multivariate Gaussian block.

    Each axis gets a symmetric uniform grid of `n_points_per_axis` points over
    +-`half_width_sigmas` marginal standard deviations; masses are proportional
    to the joint density.  Returns (letters, probs) where letters is an
    (n_axis_points^M, M) array of block values in lexicographic order.

    The per-axis point count is deliberately small: the letter count is
    n_points_per_axis^M and the solver's channel matrices are quadratic in it.
    """
    if half_width_sigmas <= 0:
        raise ValueError("half width must be positive")
    if n_points_per_axis < 3 or n_points_per_axis % 2 == 0:
        raise ValueError("points per axis must be an odd integer >= 3")
    cov = covariance.a
    m = covariance.dim
    basis = jacobi_eigh(covariance)
    if basis.eigenvalues.min() <= 0:
        raise ValueError("covariance must be strictly positive definite")
    half = (n_points_per_axis - 1) // 2
    axes = []
    for i in range(m):
        step = half_width_sigmas * np.sqrt(cov[i, i]) / half
        axes.append((np.arange(n_points_per_axis) - half) * step)
    mesh = np.meshgrid(*axes, indexing="ij")
    letters = np.stack([g.ravel() for g in mesh], axis=1)
    # quadratic form x^T C^-1 x from the eigenpairs already needed for the check above
    coeff = letters @ basis.eigenvectors
    quad = (coeff**2 / basis.eigenvalues[None, :]).sum(axis=1)
    w = np.exp(-0.5 * quad)
    return letters, w / w.sum()


def sample_block(model: SourceModel, block_len: int, n_blocks: int, seed) -> np.ndarray:
    """Draw an (n_blocks, block_len) sample matrix, bit-reproducible per seed.

    Multivariate blocks are colored through the covariance eigendecomposition;
    AR(1) uses the stationary recursion with an exact N(0, sigma^2) start.
    """
    if block_len < 1 or n_blocks < 1:
        raise ValueError("block_len and n_blocks must be positive")
    rng = np.random.default_rng(seed)
    if isinstance(model, IidGaussian):
        return np.sqrt(model.variance) * rng.standard_normal((n_blocks, block_len))
    if isinstance(model, MultivariateGaussian):
        if block_len != model.dim:
            raise DimensionMismatch(
                f"block_len {block_len} != covariance dimension {model.dim}"
            )
        basis = jacobi_eigh(model.covariance)
        coloring = basis.eigenvectors * np.sqrt(np.maximum(basis.eigenvalues, 0.0))
        z = rng.standard_normal((n_blocks, block_len))
        return z @ coloring.T
    if isinstance(model, GaussMarkov):
        sigma = np.sqrt(model.variance)
        rho = model.rho
        innov = sigma * np.sqrt(1.0 - rho * rho)
        z = rng.standard_normal((n_blocks, block_len))
        x = np.empty((n_blocks, block_len))
        x[:, 0] = sigma * z[:, 0]
        for t in range(1, block_len):
            x[:, t] = rho * x[:, t - 1] + innov * z[:, t]
        return x
    if isinstance(model, Bernoulli):
        return (rng.random((n_blocks, block_len)) < model.p).astype(float)
    raise UnsupportedModel(f"cannot sample {type(model).__name__}")
