import math

import numpy as np
import pytest

from idq.errors import DimensionMismatch, UnsupportedModel
from idq.linalg import SymMatrix, jacobi_eigh, toeplitz_covariance
from idq.sources import (
    Bernoulli,
    GaussMarkov,
    IidGaussian,
    MultivariateGaussian,
    Pmf,
    SpectralGrid,
    autocovariance,
    bernoulli_pmf,
    discretize_gaussian,
    discretize_mv_gaussian,
    psd_gauss_markov,
    sample_block,
    spectral_grid,
)


def test_model_validation():
    with pytest.raises(ValueError):
        IidGaussian(0.0)
    with pytest.raises(ValueError):
        GaussMarkov(1.0, 1.0)
    with pytest.raises(ValueError):
        Bernoulli(1.5)
    with pytest.raises(ValueError):
        MultivariateGaussian(SymMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])))  # not PSD


def test_autocovariance():
    assert autocovariance(IidGaussian(1.0), 3) == 0.0
    assert autocovariance(IidGaussian(2.5), 0) == 2.5
    assert autocovariance(GaussMarkov(1.0, 0.5), 2) == pytest.approx(0.25, abs=1e-15)
    assert autocovariance(GaussMarkov(2.0, 0.9), 0) == 2.0
    with pytest.raises(UnsupportedModel):
        autocovariance(Bernoulli(0.5), 0)


def test_psd_gauss_markov():
    assert psd_gauss_markov(0.0, 1.234) == 1.0
    assert psd_gauss_markov(0.5, 0.0) == pytest.approx(3.0, abs=1e-15)
    assert psd_gauss_markov(0.5, np.pi) == pytest.approx(1.0 / 3.0, abs=1e-15)
    # maximum at omega = 0 for positive correlation
    om = np.linspace(-np.pi, np.pi, 101)
    vals = psd_gauss_markov(0.7, om)
    assert vals.max() == vals[50]


def test_discretize_gaussian_small_grid():
    pmf = discretize_gaussian(1.0, 1.0, 3)
    assert np.allclose(pmf.support, [-1.0, 0.0, 1.0])
    w = math.exp(-0.5)
    expect = np.array([w, 1.0, w]) / (1.0 + 2.0 * w)
    assert np.allclose(pmf.probs, expect, atol=1e-15)


def test_discretize_gaussian_symmetry_and_mean():
    pmf = discretize_gaussian(1.0, 8.0, 513)
    assert np.array_equal(pmf.probs, pmf.probs[::-1])
    assert abs(pmf.mean()) <= 1e-12


def test_discretize_gaussian_scale_invariance():
    a = discretize_gaussian(1.0, 5.0, 101)
    b = discretize_gaussian(4.0, 5.0, 101)
    assert np.array_equal(a.probs, b.probs)
    assert np.allclose(b.support, 2.0 * a.support)


def test_discretize_gaussian_second_moment():
    pmf = discretize_gaussian(2.0, 8.0, 4001)
    assert abs(pmf.second_moment() - 2.0) <= 1e-6 * 2.0


def test_discretize_gaussian_preconditions():
    with pytest.raises(ValueError):
        discretize_gaussian(1.0, 8.0, 10)  # even
    with pytest.raises(ValueError):
        discretize_gaussian(-1.0, 8.0, 11)


def test_pmf_validation():
    with pytest.raises(ValueError):
        Pmf(np.array([0.0, 0.0]), np.array([0.5, 0.5]))  # not increasing
    with pytest.raises(ValueError):
        Pmf(np.array([0.0, 1.0]), np.array([0.6, 0.6]))  # sums to 1.2
    with pytest.raises(ValueError):
        Pmf(np.array([0.0, 1.0]), np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        Pmf(np.array([0.0, 1.0]), np.array([np.nan, 1.0]))
    assert bernoulli_pmf(0.25).probs.tolist() == [0.75, 0.25]


def test_spectral_grid_validation():
    with pytest.raises(ValueError):
        SpectralGrid(np.array([0.0, 1.0, 3.0]), np.ones(3))  # non-uniform
    with pytest.raises(ValueError):
        SpectralGrid(np.array([0.0, 1.0]), np.array([1.0, -1.0]))


def test_wiener_khinchin_consistency():
    for rho in (0.0, 0.5, 0.95):
        model = GaussMarkov(1.3, rho)
        grid = spectral_grid(model, 1 << 16)
        # midpoint Riemann sum of (1/2pi) int Phi equals the lag-0 autocovariance
        assert abs(grid.values.mean() - autocovariance(model, 0)) <= 1e-6


def test_sample_block_iid_variance():
    x = sample_block(IidGaussian(1.0), 1, 100_000, 99)
    v = x.var()
    assert 0.98 <= v <= 1.02


def test_sample_block_iid_scales_the_draws_in_place_bit_for_bit():
    # z *= sqrt(v) writes the bits sqrt(v) * z would allocate a second array for
    z = np.random.default_rng(17).standard_normal((300, 16))
    assert np.array_equal(sample_block(IidGaussian(2.0), 16, 300, 17), np.sqrt(2.0) * z)


def test_sample_block_gauss_markov_lag1():
    x = sample_block(GaussMarkov(1.0, 0.7), 2, 100_000, 123)
    r = np.mean(x[:, 0] * x[:, 1]) / x.var()
    assert abs(r - 0.7) <= 0.02


def test_sample_block_deterministic():
    a = sample_block(GaussMarkov(1.0, 0.5), 8, 100, 4321)
    b = sample_block(GaussMarkov(1.0, 0.5), 8, 100, 4321)
    assert np.array_equal(a, b)


def test_sample_block_multivariate():
    cov = toeplitz_covariance([1.0, 0.7], 2)
    model = MultivariateGaussian(cov)
    x = sample_block(model, 2, 200_000, 5)
    emp = np.cov(x.T)
    assert np.max(np.abs(emp - cov.a)) <= 0.02
    with pytest.raises(DimensionMismatch):
        sample_block(model, 3, 10, 5)


def test_rank_deficient_large_scale_covariance_is_psd():
    # B B^T with entries near 1e8: the rounding noise in its zero eigenvalues
    # (of order 1e-7) lies inside the relative clamp but outside an absolute 1e-10
    for seed in range(5):
        b = 1e4 * (1.0 + 0.1 * np.random.default_rng(seed).standard_normal((8, 3)))
        c = b @ b.T
        model = MultivariateGaussian(SymMatrix((c + c.T) / 2))
        assert np.all(np.abs(model.klt.eigenvalues[3:]) <= 1e-12 * model.klt.eigenvalues[0])
        x = sample_block(model, 8, 20_000, seed)
        assert np.linalg.matrix_rank(x, tol=1e-6 * np.abs(x).max()) == 3
        emp = x.T @ x / x.shape[0]
        assert np.max(np.abs(emp - model.covariance.a)) <= 0.1 * np.abs(c).max()


def test_sample_block_bernoulli():
    x = sample_block(Bernoulli(0.3), 4, 50_000, 8)
    assert set(np.unique(x)) <= {0.0, 1.0}
    assert abs(x.mean() - 0.3) <= 0.01


def test_discretize_mv_gaussian_moments():
    cov = toeplitz_covariance([1.0, 0.7], 2)
    letters, probs = discretize_mv_gaussian(cov, 6.0, 41)
    assert abs(probs.sum() - 1.0) <= 1e-12
    second = (probs[:, None] * letters**2).sum(axis=0)
    cross = (probs * letters[:, 0] * letters[:, 1]).sum()
    assert np.allclose(second, [1.0, 1.0], atol=2e-3)
    assert abs(cross - 0.7) <= 2e-3


def test_discretize_mv_gaussian_reuses_a_models_decomposition():
    cov = toeplitz_covariance([1.0, 0.7, 0.2], 3)
    model = MultivariateGaussian(cov)
    from_model = discretize_mv_gaussian(model, 6.0, 9)
    from_matrix = discretize_mv_gaussian(cov, 6.0, 9)
    for a, b in zip(from_model, from_matrix):
        assert a.tobytes() == b.tobytes()
    singular = MultivariateGaussian(SymMatrix(np.ones((2, 2))))  # PSD, not PD
    with pytest.raises(ValueError, match="strictly positive definite"):
        discretize_mv_gaussian(singular)


def _unaveraged_masses(cov, letters):
    """The masses as the normalized density exp(-x^T C^-1 x / 2) alone."""
    basis = jacobi_eigh(cov)
    quad = ((letters @ basis.eigenvectors) ** 2 / basis.eigenvalues[None, :]).sum(axis=1)
    w = np.exp(-0.5 * quad)
    return w / w.sum()


@pytest.mark.parametrize("coeffs,points", [([1.0, 0.7], 33), ([1.0, 0.5, 0.2], 9),
                                           ([1.0, -0.3, 0.6], 11)])
def test_persymmetric_covariance_gives_masses_invariant_under_axis_reversal(coeffs, points):
    m = len(coeffs)
    cov = toeplitz_covariance(coeffs, m)
    letters, probs = discretize_mv_gaussian(cov, 6.0, points)
    cube = probs.reshape((points,) * m)
    assert np.array_equal(cube.T, cube)  # the reversed coordinate order
    assert np.array_equal(probs[::-1], probs)  # x -> -x
    # The density's own masses miss the reversal by rounding: up to a few
    # hundred ulp in the far tails, where the quadratic form is large, and
    # about 1e-16 of the largest mass.  The average moves each mass by half
    # its mismatch, up to rounding.
    ref = _unaveraged_masses(cov, letters)
    mismatch = np.abs(ref - ref.reshape(cube.shape).T.ravel())
    assert np.all(np.abs(probs - ref) <= mismatch / 2 + 2 * np.spacing(ref))
    assert np.max(np.abs(probs - ref)) <= 2 * np.spacing(ref.max())


@pytest.mark.parametrize("cov", [[[1.0, 0.5], [0.5, 2.0]],
                                 [[1.0, 0.2, 0.1], [0.2, 1.5, 0.3], [0.1, 0.3, 2.0]]])
def test_other_covariances_give_the_density_masses_bit_for_bit(cov):
    cov = SymMatrix(np.array(cov))
    letters, probs = discretize_mv_gaussian(cov, 6.0, 9)
    assert probs.tobytes() == _unaveraged_masses(cov, letters).tobytes()
    assert np.array_equal(probs[::-1], probs)
