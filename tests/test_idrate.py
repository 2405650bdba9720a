import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from idq.errors import DomainError, NonConvergence, TauOutOfRange, UnsupportedModel
from idq.idrate import (
    Curve,
    RateSimilarityPoint,
    curve_from_arrays,
    default_tau_grid,
    id_curve_multivariate,
    id_point_multivariate,
    id_rate_iid,
    lc_delta_rate,
    similarity_limit,
    water_filling_point,
)
from idq.linalg import SymMatrix, toeplitz_covariance
from idq.sources import (
    Bernoulli,
    GaussMarkov,
    IidGaussian,
    MultivariateGaussian,
    SpectralGrid,
    spectral_grid,
)
from oracles import binary_entropy, binary_hamming_tc_oracle


def test_id_rate_iid_examples():
    assert id_rate_iid(1.0, 0.0) == 0.0
    assert id_rate_iid(1.0, 1.0) == 1.0
    assert id_rate_iid(1.0, 2.0) == math.inf
    assert id_rate_iid(1.0, 5.0) == math.inf


def test_id_rate_iid_convexity():
    d = np.linspace(0.0, 1.99, 2000)
    r = np.array([id_rate_iid(1.0, x) for x in d])
    second = np.diff(r, 2)
    assert second.min() >= -1e-9


def test_iid_below_lc_everywhere():
    for d in np.linspace(0.01, 1.95, 50):
        assert id_rate_iid(1.0, d) <= lc_delta_rate(1.0, d)


def test_id_point_multivariate_example():
    pt = id_point_multivariate([1.7, 0.3], 0.3)
    assert pt.d_id == pytest.approx(1.4, abs=1e-12)
    assert pt.rate == pytest.approx(0.5 * math.log2(1.7 / 0.3), abs=1e-12)


def test_id_point_multivariate_top_level():
    pt = id_point_multivariate([1.7, 0.3], 1.7)
    assert pt.d_id == 0.0
    assert pt.rate == 0.0


def test_id_point_multivariate_iid_reduction():
    # equal eigenvalues collapse onto the scalar curve
    for tau in (0.1, 0.5, 0.9):
        pt = id_point_multivariate([1.0, 1.0, 1.0], tau)
        assert pt.rate == pytest.approx(id_rate_iid(1.0, pt.d_id), abs=1e-12)


def test_water_filling_allocation_activation():
    # second component activates just below its variance
    alloc_hi = water_filling_point([1.7, 0.3], 0.3000001)[1]
    alloc_lo = water_filling_point([1.7, 0.3], 0.2999999)[1]
    assert alloc_hi[1] == 0.0
    assert alloc_lo[1] > 0.0
    pt = id_point_multivariate([1.7, 0.3], 0.25)
    assert pt.d_id == pytest.approx(water_filling_point([1.7, 0.3], 0.25)[1].mean(), abs=0.0)


@pytest.mark.parametrize("tau", [0.05, 0.3, 0.9, 1.7])
def test_water_filling_point_is_the_point_and_its_shares(tau):
    xi = [1.7, 0.9, 0.3, 0.1]
    point, shares = water_filling_point(xi, tau)
    assert point == id_point_multivariate(xi, tau)
    assert shares.tobytes() == water_filling_point(xi, tau)[1].tobytes()
    with pytest.raises(TauOutOfRange):
        water_filling_point(xi, 2.0)


def test_tau_out_of_range():
    with pytest.raises(TauOutOfRange):
        id_point_multivariate([1.0], 1.5)
    with pytest.raises(TauOutOfRange):
        id_point_multivariate([1.0], 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_eigenvalues_are_rejected(bad):
    for xi in ([1.7, bad], [bad]):
        with pytest.raises(ValueError, match="eigenvalues must be finite"):
            id_point_multivariate(xi, 0.1)
        with pytest.raises(ValueError, match="eigenvalues must be finite"):
            id_curve_multivariate(xi, [0.1, 0.2])
    # a negative eigenvalue keeps its own message, also beside a NaN or inf
    for xi in ([-1.0, bad], [1.7, -math.inf]):
        with pytest.raises(ValueError, match="eigenvalues must be non-negative"):
            id_curve_multivariate(xi, [0.1, 0.2])


@st.composite
def _water_filling_cases(draw):
    """Variances (1-64 entries, at least one positive), two water levels
    lo <= hi in [1e-3 max, max], and a permutation of the variances.

    The floor keeps the scalar-curve check well conditioned: id_rate_iid
    recovers tau from 2 sigma^2 - d_id, which loses sigma^2 / tau ulps."""
    xi = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=1, max_size=64))
    assume(max(xi) > 0)
    lo, hi = sorted(draw(st.floats(1e-3, 1.0)) * max(xi) for _ in range(2))
    return np.array(xi), lo, hi, draw(st.permutations(range(len(xi))))


@settings(max_examples=300, deadline=None)
@given(_water_filling_cases())
def test_water_filling_identities(case):
    xi, lo, hi, perm = case
    top = xi.max()
    p_lo, p_hi = id_point_multivariate(xi, lo), id_point_multivariate(xi, hi)
    assert 0.0 <= p_hi.rate <= p_lo.rate * (1 + 1e-12)
    assert 0.0 <= p_hi.d_id <= p_lo.d_id * (1 + 1e-12)
    assert id_point_multivariate(xi, top) == RateSimilarityPoint(0.0, 0.0)
    assert p_lo.d_id <= 2.0 * xi.mean() * (1 + 1e-12)
    p_perm = id_point_multivariate(xi[perm], lo)
    assert p_perm.rate == pytest.approx(p_lo.rate, rel=1e-12, abs=1e-300)
    assert p_perm.d_id == pytest.approx(p_lo.d_id, rel=1e-12, abs=1e-300)
    # M equal variances collapse onto the scalar curve
    flat = id_point_multivariate(np.full(xi.size, top), lo)
    assert flat.rate == pytest.approx(id_rate_iid(top, flat.d_id), abs=1e-12)


def test_id_curve_multivariate_single_eigenvalue_matches_iid():
    curve = id_curve_multivariate([2.0], default_tau_grid(2.0))
    for d_id, rate in zip(curve.d_ids, curve.rates):
        assert rate == pytest.approx(id_rate_iid(2.0, d_id), abs=1e-12)


def test_id_curve_multivariate_endpoint():
    # tau -> 0+ drives the similarity threshold toward twice the average trace
    xi = [1.7, 0.3]
    pt = id_point_multivariate(xi, 1e-9)
    assert pt.d_id == pytest.approx(2.0 * np.mean(xi), abs=1e-8)


def test_id_curve_monotone_in_tau():
    xi = [1.7, 0.3]
    taus = default_tau_grid(1.7, 50)
    pts = [id_point_multivariate(xi, t) for t in taus]
    rates = np.array([p.rate for p in pts])
    ds = np.array([p.d_id for p in pts])
    assert np.all(np.diff(rates) <= 1e-12)  # rate falls as tau rises
    assert np.all(np.diff(ds) <= 1e-12)


def _curve_point_by_point(xi, taus):
    """id_curve_multivariate as one checked id_point_multivariate per level."""
    pts = [id_point_multivariate(xi, t) for t in np.asarray(taus, dtype=float)[::-1]]
    return curve_from_arrays([p.d_id for p in pts], [p.rate for p in pts])


def _outcome(fn, *args):
    try:
        curve = fn(*args)
    except ValueError as exc:  # the type and message are compared
        return type(exc), str(exc)
    return curve.d_ids.tolist(), curve.rates.tolist()


@pytest.mark.parametrize(
    "xi, taus",
    [
        ([1.7, 0.3], default_tau_grid(1.7, 50)),
        ([1.7, 0.3], []),
        ([1.7, 0.3], [0.1, 1.7 * (1 + 1e-13)]),
        ([1.7, 0.3], [0.1, 2.0]),
        ([1.7, 0.3], [-0.1, 0.2]),
        ([1.7, 0.3], [0.0, 0.2]),
        ([1.7, 0.3], [0.1, np.nan, 0.2]),
        ([1.7, 0.3], [0.1, 0.2, np.nan]),
        ([1.7, 0.3], [3.0, np.nan, 0.2]),
        ([1.7, -0.3], [0.1, 0.2]),
        ([], [0.1, 0.2]),
        ([[1.7, 0.3]], [0.1, 0.2]),
    ],
)
def test_id_curve_multivariate_checks_once_like_each_point(xi, taus):
    # validating the eigenvalues once per curve keeps every value and error
    assert _outcome(id_curve_multivariate, xi, taus) == _outcome(_curve_point_by_point, xi, taus)


def test_id_point_spectral_flat_psd_matches_iid():
    grid = spectral_grid(IidGaussian(1.5), 4096)
    for tau in (0.1, 0.5, 1.0, 1.4):
        pt = id_point_multivariate(grid.values, tau)
        assert pt.rate == pytest.approx(id_rate_iid(1.5, pt.d_id), abs=1e-9)


def test_id_point_spectral_low_tau_limit():
    grid = spectral_grid(GaussMarkov(1.0, 0.5), 1 << 14)
    pt = id_point_multivariate(grid.values, 1e-9)
    assert pt.d_id == pytest.approx(2.0, abs=1e-5)


def test_id_curve_spectral_rho0_overlaps_iid():
    grid = spectral_grid(GaussMarkov(1.0, 0.0), 4096)
    curve = id_curve_multivariate(grid.values, default_tau_grid(1.0, 64))
    for d_id, rate in zip(curve.d_ids, curve.rates):
        assert rate == pytest.approx(id_rate_iid(1.0, d_id), abs=1e-9)


def test_spectral_tau_validation():
    grid = SpectralGrid(np.array([-1.0, 0.0, 1.0]), np.array([1.0, 2.0, 1.0]))
    with pytest.raises(TauOutOfRange):
        id_point_multivariate(grid.values, 2.5)


def test_similarity_limit():
    assert similarity_limit(IidGaussian(1.0)) == 2.0
    assert similarity_limit(GaussMarkov(2.0, 0.9)) == 4.0
    cov = toeplitz_covariance([1.0, 0.6], 2)
    assert similarity_limit(MultivariateGaussian(cov)) == 2.0
    with pytest.raises(UnsupportedModel):
        similarity_limit(Bernoulli(0.5))


@pytest.mark.parametrize("rate", [id_rate_iid, lc_delta_rate])
def test_closed_forms_reject_non_finite_input(rate):
    for variance, d_id in ((math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            rate(variance, d_id)
    assert rate(1.0, math.inf) == math.inf


def test_lc_delta_rate_examples():
    assert lc_delta_rate(1.0, 0.0) == 0.0
    u = 0.5
    expect = 0.5 * math.log2(1.0 / (1.0 - math.sqrt(2 * u - u * u)))
    assert lc_delta_rate(1.0, 1.0) == pytest.approx(expect, abs=1e-15)
    assert lc_delta_rate(1.0, 2.0) == math.inf


def test_binary_hamming_tc_oracle():
    assert binary_hamming_tc_oracle(0.0) == 0.0
    assert binary_hamming_tc_oracle(0.5) == 1.0
    assert binary_hamming_tc_oracle(0.25) == pytest.approx(
        1.0 - binary_entropy(0.25), abs=1e-15
    )
    with pytest.raises(DomainError):
        binary_hamming_tc_oracle(0.6)
    with pytest.raises(DomainError):
        binary_hamming_tc_oracle(-0.1)


def test_rate_similarity_point_validation():
    with pytest.raises(ValueError):
        RateSimilarityPoint(-0.1, 0.0)
    with pytest.raises(ValueError):
        RateSimilarityPoint(0.1, -1.0)
    assert not RateSimilarityPoint(0.1, math.inf).finite


def test_rate_similarity_point_rejects_a_nan_threshold():
    with pytest.raises(ValueError, match="similarity threshold"):
        RateSimilarityPoint(math.nan, 1.0)
    assert RateSimilarityPoint(math.inf, 1.0).d_id == math.inf


def test_curve_validation():
    Curve([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        Curve([1.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        Curve([0.0, 1.0], [1.0, 0.5])
    # two read-only 1-D arrays of one length
    d = np.array([0.0, 1.0])
    curve = Curve(d, np.array([0.0, math.inf]), 2)
    assert curve.nonconverged == 2 and curve.rates[-1] == math.inf
    assert d.flags.writeable  # the caller's array is left as it was
    for values in (curve.d_ids, curve.rates):
        assert values.dtype == float and not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0.5
    for d_ids, rates in (([0.0, 1.0], [0.0]), ([[0.0, 1.0]], [[0.0, 1.0]]), (0.0, 0.0)):
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            Curve(d_ids, rates)
    # the first bad point raises as a RateSimilarityPoint, threshold before rate
    with pytest.raises(ValueError, match="similarity threshold"):
        Curve([0.0, -1.0, 2.0], [0.0, -1.0, 1.0])
    with pytest.raises(ValueError, match="rate must be"):
        Curve([0.0, 1.0, -2.0], [0.0, -1.0, 1.0])


def test_curve_from_arrays_dedupes():
    c = curve_from_arrays([0.0, 1.0, 1.0, 2.0], [0.0, 0.5, 0.5, 1.0])
    assert len(c.d_ids) == 3
    assert curve_from_arrays([], []).d_ids.size == 0


def test_curve_from_arrays_blames_a_falling_curve_on_capped_solves():
    # bad input without a capped solve; a numerical failure with one
    with pytest.raises(ValueError, match="rate decreased"):
        curve_from_arrays([0.1, 0.2], [0.5, 0.4])
    with pytest.raises(NonConvergence, match=r"rate decreased.*\(1 solves stopped at max_iter\)"):
        curve_from_arrays([0.1, 0.2], [0.5, 0.4], nonconverged=1)


def test_curve_from_arrays_rejects_a_nan_threshold():
    # a NaN threshold and its rate are not dropped as a duplicate
    with pytest.raises(ValueError, match="similarity threshold"):
        curve_from_arrays([0.1, math.nan, 0.3], [0.1, 0.2, 0.3])
    with pytest.raises(NonConvergence, match=r"similarity threshold.*\(1 solves stopped"):
        curve_from_arrays([0.1, math.nan, 0.3], [0.1, 0.2, 0.3], nonconverged=1)
    assert curve_from_arrays([0.1, math.inf], [0.1, math.inf]).d_ids[-1] == math.inf
