import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from idq.cli import run
from idq.errors import DimensionMismatch, NonConvergence
from idq.linalg import (
    EigenPair,
    SymMatrix,
    jacobi_eigh,
    klt_forward,
    klt_inverse,
    toeplitz_covariance,
)
from idq.sources import GaussMarkov, psd_gauss_markov, sample_block


def test_symmatrix_rejects_asymmetry():
    with pytest.raises(ValueError):
        SymMatrix(np.array([[1.0, 0.1], [0.2, 1.0]]))
    with pytest.raises(DimensionMismatch):
        SymMatrix(np.zeros((2, 3)))


def test_jacobi_identity():
    pair = jacobi_eigh(SymMatrix(np.eye(2)))
    assert np.allclose(pair.eigenvalues, [1.0, 1.0])
    assert np.allclose(pair.eigenvectors, np.eye(2))


def test_jacobi_correlated_pair():
    # roots of lambda^2 - 2 lambda + (1 - 0.49)
    pair = jacobi_eigh(SymMatrix(np.array([[1.0, 0.7], [0.7, 1.0]])))
    assert np.allclose(pair.eigenvalues, [1.7, 0.3], atol=1e-12)


def test_jacobi_diagonal_descending():
    pair = jacobi_eigh(SymMatrix(np.diag([2.0, 5.0])))
    assert pair.eigenvalues.tolist() == [5.0, 2.0]


def test_jacobi_matches_numpy_on_random_symmetric():
    rng = np.random.default_rng(7)
    for n in (3, 6, 12, 25):
        b = rng.standard_normal((n, n))
        m = (b + b.T) / 2.0
        pair = jacobi_eigh(SymMatrix(m))
        ref = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.allclose(pair.eigenvalues, ref, atol=1e-9 * max(1.0, np.abs(m).max()))
        v = pair.eigenvectors
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-9
        recon = (v * pair.eigenvalues) @ v.T
        assert np.max(np.abs(recon - m)) <= 1e-9 * np.abs(m).max()


_entries = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)


def _symmetric(b):
    # upper triangle mirrored: exactly symmetric without rounding
    return np.triu(b) + np.triu(b, 1).T


@st.composite
def symmetric_matrices(draw):
    """(matrix, is_psd): general symmetric, repeated spectra, or rank-deficient
    PSD, scaled by 10^-250 .. 10^100."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(("general", "repeated", "rank_deficient")))
    scale = 10.0 ** draw(st.integers(-250, 100))
    b = draw(arrays(float, (n, n), elements=_entries))
    if kind == "general":
        m, psd = _symmetric(b), False
    elif kind == "repeated":
        q, _ = np.linalg.qr(b + n * np.eye(n))
        w = np.array(draw(st.lists(st.sampled_from((0.0, 1.0, 2.5)), min_size=n, max_size=n)))
        m, psd = (q * w) @ q.T, True
        m = (m + m.T) / 2.0
    else:
        k = draw(st.integers(0, n - 1))
        m, psd = b[:, :k] @ b[:, :k].T, True
    m = m * scale
    # keep the largest entry a normal float: subnormals carry too few bits for
    # a 1e-9 relative reconstruction
    assume(not m.any() or np.abs(m).max() >= 1e-290)
    return m, psd


@settings(max_examples=200, deadline=None)
@given(symmetric_matrices())
def test_eigh_contract_property(case):
    m, psd = case
    pair = jacobi_eigh(SymMatrix(m))
    w, v = pair.eigenvalues, pair.eigenvectors
    n = m.shape[0]
    scale = np.abs(m).max()
    assert np.all(np.diff(w) <= 0.0)
    assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-10
    assert np.max(np.abs((v * w) @ v.T - m)) <= 1e-9 * scale
    for k in range(n):
        nz = np.nonzero(np.abs(v[:, k]) > 1e-12)[0]
        assert nz.size and v[nz[0], k] >= 0.0
    if psd:
        assert w.min() >= 0.0


def test_lapack_failure_is_non_convergence(tmp_path, monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NonConvergence):
        jacobi_eigh(SymMatrix(np.eye(2)))
    assert run(["idrate-mv", "-M", "2", "--out", str(tmp_path / "o.csv")]) == 3


def test_jacobi_clamps_psd_noise():
    # rank-deficient PSD matrix: one eigenvalue is exactly zero up to rounding
    u = np.array([[1.0, 2.0], [2.0, 4.0]])
    pair = jacobi_eigh(SymMatrix(u))
    assert pair.eigenvalues[-1] >= 0.0


def test_eigenpair_validation():
    with pytest.raises(ValueError):
        EigenPair(np.array([1.0, 2.0]), np.eye(2))  # ascending
    with pytest.raises(ValueError):
        EigenPair(np.array([1.0, 1.0]), np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_toeplitz_examples():
    assert toeplitz_covariance([1.0], 1).a.tolist() == [[1.0]]
    t = toeplitz_covariance([1.0, 0.5, 0.25], 3).a
    assert t.tolist() == [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]]
    assert np.array_equal(toeplitz_covariance([1.0, 0.0, 0.0], 3).a, np.eye(3))
    with pytest.raises(ValueError):
        toeplitz_covariance([0.0, 0.1], 2)


def test_klt_identity_and_sign_convention():
    basis = jacobi_eigh(SymMatrix(np.eye(2)))
    assert np.allclose(klt_forward(basis, np.array([3.0, -1.0])), [3.0, -1.0])
    basis = jacobi_eigh(SymMatrix(np.array([[1.0, 0.7], [0.7, 1.0]])))
    y = klt_forward(basis, np.array([1.0, 1.0]))
    assert abs(y[0] - np.sqrt(2.0)) <= 1e-12  # first component made non-negative
    assert abs(y[1]) <= 1e-12


def test_klt_round_trip_and_distance_preservation():
    rng = np.random.default_rng(11)
    b = rng.standard_normal((6, 6))
    basis = jacobi_eigh(SymMatrix(b @ b.T))
    x = rng.standard_normal((1000, 6))
    y = rng.standard_normal((1000, 6))
    assert np.max(np.abs(klt_inverse(basis, klt_forward(basis, x)) - x)) <= 1e-10
    d0 = ((x - y) ** 2).sum(axis=1)
    d1 = ((klt_forward(basis, x) - klt_forward(basis, y)) ** 2).sum(axis=1)
    assert np.all(np.abs(d0 - d1) <= 1e-9 * d0)


def test_klt_dimension_mismatch():
    basis = jacobi_eigh(SymMatrix(np.eye(3)))
    with pytest.raises(DimensionMismatch):
        klt_forward(basis, np.zeros(4))


def test_klt_decorrelates_ar1_blocks():
    m = 4
    cov = toeplitz_covariance(0.7 ** np.arange(m), m)
    basis = jacobi_eigh(cov)
    blocks = sample_block(GaussMarkov(1.0, 0.7), m, 100_000, 2024)
    coeff = klt_forward(basis, blocks)
    emp = np.cov(coeff.T)
    off = emp - np.diag(np.diag(emp))
    assert np.max(np.abs(off)) <= 0.02


def test_toeplitz_eigenvalues_bounded_by_psd_range():
    rho = 0.6
    cov = toeplitz_covariance(rho ** np.arange(64), 64)
    w = jacobi_eigh(cov).eigenvalues
    lo = psd_gauss_markov(rho, np.pi)
    hi = psd_gauss_markov(rho, 0.0)
    assert w.min() >= lo - 1e-9
    assert w.max() <= hi + 1e-9
