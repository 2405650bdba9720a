import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from idq import simulator
from idq.errors import AdmissibilityViolation, DimensionMismatch, TooManyCodewords
from idq.linalg import klt_forward, jacobi_eigh, toeplitz_covariance
from idq.simulator import (
    Codebook,
    QueryOutcome,
    Signature,
    assign_signature,
    component_scheme_pr_maybe,
    estimate_pr_maybe,
    query_decide,
    train_codebook,
)
from idq.sources import GaussMarkov, IidGaussian, MultivariateGaussian, sample_block
from oracles import whole_array_component_pr_maybe, whole_array_pr_maybe, whole_array_streams


def test_train_single_codeword_is_mean():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((500, 3))
    cb = train_codebook(x, 0.0, 3, 1)
    assert np.allclose(cb.codewords[0], x.mean(axis=0), atol=1e-12)
    assert cb.rate_bits == 0.0


def test_train_two_level_gaussian():
    x = sample_block(IidGaussian(1.0), 1, 100_000, 3)
    cb = train_codebook(x, 1.0, 1, 7)
    levels = np.sort(cb.codewords[:, 0])
    ref = math.sqrt(2.0 / math.pi)
    assert levels[0] == pytest.approx(-ref, abs=0.02)
    assert levels[1] == pytest.approx(ref, abs=0.02)


def test_train_deterministic():
    x = sample_block(IidGaussian(1.0), 2, 5000, 11)
    a = train_codebook(x, 1.0, 2, 42)
    b = train_codebook(x, 1.0, 2, 42)
    assert np.array_equal(a.codewords, b.codewords)


def test_train_validation():
    x = np.zeros((100, 2))
    with pytest.raises(TooManyCodewords):
        train_codebook(np.zeros((10, 16)), 2.0, 16, 0)
    with pytest.raises(ValueError):
        train_codebook(x, 3.0, 2, 0)  # 64 codewords need 640 samples


def _loop_train(x, count, block_len, seed):
    """train_codebook with the centroid update as a loop over codewords."""
    rng = np.random.default_rng(seed)
    centroids = x[rng.choice(x.shape[0], size=count, replace=False)].copy()
    prev = math.inf
    for _ in range(simulator._KMEANS_ITERS):
        lab, d2 = simulator._nearest(centroids, x)
        distortion = float(d2.mean()) / block_len
        if prev - distortion < simulator._KMEANS_RTOL * max(prev, 1e-300):
            break
        prev = distortion
        for k in range(count):
            members = lab == k
            if members.any():
                centroids[k] = x[members].mean(axis=0)
    return centroids


# (0.625, 16) is the benchmark's simulate codebook: 1024 codewords, 10240 rows
@pytest.mark.parametrize("rate,block_len", [(1.0, 1), (3.0, 1), (1.0, 2), (0.6, 5), (0.625, 16)])
def test_train_matches_loop_update(rate, block_len):
    count = int(round(2.0 ** (rate * block_len)))
    x = sample_block(IidGaussian(1.0), block_len, max(3000, 10 * count), 19)
    cb = train_codebook(x, rate, block_len, 4)
    ref = _loop_train(x, count, block_len, 4)
    if block_len == 1:
        # a column mean is a pairwise sum, bincount a sequential one
        assert np.max(np.abs(cb.codewords - ref)) <= 1e-12
    else:
        assert np.array_equal(cb.codewords, ref)


def test_train_empty_cells_keep_their_centroid():
    # 200 samples over 5 distinct rows: at least 11 of the 16 initial
    # centroids repeat a lower one and win no samples
    rows = np.arange(10.0).reshape(5, 2)
    x = rows[np.random.default_rng(2).integers(0, 5, size=200)]
    cb = train_codebook(x, 2.0, 2, 8)
    init = x[np.random.default_rng(8).choice(200, size=16, replace=False)]
    lab, _ = simulator._nearest(cb.codewords, x)
    empty = np.bincount(lab, minlength=16) == 0
    assert empty.sum() >= 11
    assert np.array_equal(cb.codewords[empty], init[empty])
    assert np.array_equal(cb.codewords, _loop_train(x, 16, 2, 8))


def test_train_searches_fewer_distances_than_full_rounds(caplog):
    x = sample_block(IidGaussian(1.0), 16, 10240, 19)
    with caplog.at_level(logging.DEBUG, logger="idq.simulator"):
        train_codebook(x, 0.625, 16, 4)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "idq.simulator"]
    rounds = int(line.split(": ")[1].split()[0])
    searched, _, full = line.split(", ")[3].split()[:3]
    assert int(full) == rounds * 10240 * 1024
    # round 1 alone is a full search; the later rounds screen against the
    # centroids that moved (about 5 full rounds in all at 15-20 rounds)
    assert 10240 * 1024 <= int(searched) < int(full) / 2


def _assert_nearest_bound(cw, x, idx, dist):
    """test_nearest_contract's checks of one assignment of x to codewords cw."""
    assert np.array_equal(dist, ((x - cw[idx]) ** 2).sum(axis=1))
    brute = ((x[:, None, :] - cw[None, :, :]) ** 2).sum(axis=2)
    scale = (np.abs(x).max() + np.abs(cw).max()) ** 2 * cw.shape[1]
    assert np.all(dist <= brute.min(axis=1) + 1e-9 * scale)
    first = [np.flatnonzero((cw == c).all(axis=1))[0] for c in cw]
    assert np.array_equal(np.take(first, idx), idx)


@st.composite
def _training_cases(draw):
    """Training rows drawn with repeats from a pool of distinct rows (so the
    initial centroids can hold copies of one codeword), a codebook size and
    a chunk size."""
    dim, count = draw(st.integers(1, 8)), draw(st.sampled_from([1, 2, 4, 8, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 10 * count + draw(st.integers(0, 40))
    scale = 10.0 ** draw(st.integers(-3, 3))
    offset = draw(st.sampled_from([0.0, 1e3]))
    pool = rng.standard_normal((draw(st.integers(1, n)), dim)) * scale + offset
    x = pool[rng.integers(0, pool.shape[0], size=n)]
    return x, count, draw(st.integers(1, 64)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(_training_cases())
def test_train_rounds_keep_the_nearest_contract(case):
    x, count, rows, seed = case
    dim = x.shape[1]
    real = simulator._assignments
    log = []

    def recorded(x, centroids):
        for lab, dist, searched in real(x, centroids):
            log.append((centroids.copy(), lab.copy(), dist.copy()))
            yield lab, dist, searched

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_ASSIGN_ENTRIES", rows * count)
        mp.setattr(simulator, "_assignments", recorded)
        cw = train_codebook(x, math.log2(count) / dim, dim, seed).codewords
    for centroids, lab, dist in log:
        _assert_nearest_bound(centroids, x, lab, dist)
    # each live centroid is the mean of its cell in the round before; the
    # codebook differs from the last round's centroids when the round cap
    # stopped training after one more update
    after = [c for c, _, _ in log[1:]] + ([] if np.array_equal(cw, log[-1][0]) else [cw])
    for (_, lab, _), centroids in zip(log, after):
        for k in np.unique(lab):
            mean = x[lab == k].mean(axis=0)
            if dim == 1:  # a column mean is a pairwise sum, bincount a sequential one
                assert abs(centroids[k, 0] - mean[0]) <= 1e-12 * np.abs(x).max()
            else:
                assert np.array_equal(centroids[k], mean)


@st.composite
def _nearest_cases(draw):
    if draw(st.booleans()):  # a component scheme's scalar codebook
        count, dim = draw(st.integers(1, 4)), 1
    else:
        count, dim = draw(st.integers(1, 300)), draw(st.integers(1, 8))
    rows = draw(st.integers(1, 64))  # rows per chunk
    # one row, one chunk or several, maybe with a remainder
    n = draw(st.one_of(st.just(1), st.integers(1, rows), st.integers(rows + 1, 5 * rows)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    offset = draw(st.sampled_from([0.0, 1e3]))
    cw = rng.standard_normal((count, dim)) * scale + offset
    dup = rng.random(count) < draw(st.floats(0.0, 0.5))
    cw[dup] = cw[rng.integers(0, count, size=count)[dup]]
    x = rng.standard_normal((n, dim)) * scale + offset
    on_codeword = rng.random(n) < 0.2
    x[on_codeword] = cw[rng.integers(0, count, size=n)[on_codeword]]
    return cw, x, rows


@settings(max_examples=200, deadline=None)
@given(_nearest_cases())
def test_nearest_contract(case):
    cw, x, rows = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_ASSIGN_ENTRIES", rows * cw.shape[0])
        idx, dist = simulator._nearest(cw, x)
    _assert_nearest_bound(cw, x, idx, dist)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_nearest_copy_of_a_codeword_loses_to_the_first(dim):
    # OpenBLAS rounds x.c differently in the last columns of a 300-column
    # product; without the mapping to the first copy, the last copy won for
    # up to a fifth of these queries
    rng = np.random.default_rng(dim)
    cw = rng.standard_normal((300, dim))
    cw[-1] = cw[0]
    x = cw[0] + 1e-3 * rng.standard_normal((500, dim))
    idx, _ = simulator._nearest(cw, x)
    assert not np.any(idx == 299)


def test_train_logs_rounds_stop_rule_and_distortion(caplog, monkeypatch):
    x = np.random.default_rng(0).standard_normal((500, 3))
    with caplog.at_level(logging.DEBUG, logger="idq.simulator"):
        # one codeword: a sample row in round 1, the mean in round 2, and the
        # same mean in round 3
        train_codebook(x, 0.0, 3, 1)
        monkeypatch.setattr(simulator, "_KMEANS_ITERS", 3)
        train_codebook(x, 1.0, 3, 1)
    lines = [r.getMessage() for r in caplog.records if r.name == "idq.simulator"]
    assert len(lines) == 2
    mean_dist = ((x - x.mean(axis=0)) ** 2).sum(axis=1).mean() / 3
    assert lines[0].startswith("k-means, 1 codewords: 3 rounds, stopped by the 1e-06 rule, ")
    assert lines[0].endswith(" per sample at the last assignment")
    assert float(lines[0].split("distortion ")[1].split()[0]) == pytest.approx(mean_dist)
    assert lines[1].startswith("k-means, 8 codewords: 3 rounds, stopped by the 3-round cap")


def test_assign_signature_examples():
    cb = Codebook(1, np.array([[-1.0], [1.0]]))
    sig = assign_signature(cb, np.array([1.0]))
    assert sig.index == 1 and sig.stored_dist == 0.0
    sig = assign_signature(cb, np.array([0.2]))
    assert sig.index == 1
    assert sig.stored_dist == pytest.approx(0.64, abs=1e-12)
    # tie at zero resolves to the lower index
    assert assign_signature(cb, np.array([0.0])).index == 0
    with pytest.raises(DimensionMismatch):
        assign_signature(cb, np.zeros(2))


def test_query_decide_examples():
    cb = Codebook(1, np.array([[-1.0], [1.0]]))
    x = np.array([0.2])
    sig = assign_signature(cb, x)
    out = query_decide(sig, cb, x, 0.0, x=x)
    assert out.decision == "maybe" and out.truly_similar
    # stored 0, d_id 0: maybe only when y equals the codeword
    sig0 = Signature(1, 0.0)
    assert query_decide(sig0, cb, np.array([1.0]), 0.0).decision == "maybe"
    assert query_decide(sig0, cb, np.array([1.1]), 0.0).decision == "no"
    # sqrt(4) = 2 > sqrt(0.64) + sqrt(1) = 1.8
    sig2 = Signature(1, 0.64)
    assert query_decide(sig2, cb, np.array([3.0]), 1.0).decision == "no"


@pytest.mark.parametrize("d_id,message", [(math.nan, "d_id must be finite"),
                                           (math.inf, "d_id must be finite"),
                                           (-1.0, "d_id must be non-negative")])
def test_query_decide_rejects_a_bad_threshold(d_id, message):
    # a NaN threshold used to answer 'no' for an identical pair
    cb = Codebook(1, np.array([[-1.0], [1.0]]))
    y = np.array([0.2])
    with pytest.raises(ValueError, match=message):
        query_decide(assign_signature(cb, y), cb, y, d_id, x=y)


@pytest.mark.parametrize("stored,message", [(math.nan, "stored distance must be finite"),
                                            (math.inf, "stored distance must be finite"),
                                            (-1.0, "must be non-negative")])
def test_signature_rejects_a_bad_stored_distance(stored, message):
    with pytest.raises(ValueError, match=message):
        Signature(0, stored)


def test_query_decide_accepts_a_collinear_pair_at_triangle_equality():
    # codeword 0, then x, then y on one line, and d_id = d(x, y): the two
    # sides of the rule are equal, and without a slack for rounding the
    # computed sides reject this similar pair
    cb = Codebook(2, np.zeros((1, 2)))
    x, y = np.array([2.0, 0.0]), np.array([175.0, 0.0])
    d_id = 14964.5
    assert ((x - y) ** 2).mean() == d_id
    assert query_decide(assign_signature(cb, x), cb, y, d_id, x=x) == QueryOutcome("maybe", True)


_FLOAT_COORD = st.one_of(st.just(0.0), st.floats(1e-100, 1e3), st.floats(-1e3, -1e-100))


@st.composite
def _collinear_cases(draw):
    """A codeword c, a block x and a query y = x + k (x - c) on the ray from c
    through x, so that d(c, y) sits at triangle equality (to rounding, for
    float points); 1 to 16 samples, integer coordinates or floats of
    magnitude in [1e-100, 1e3] or exactly 0."""
    n = draw(st.integers(1, 16))
    if draw(st.booleans()):
        coord, k = st.integers(-1000, 1000).map(float), st.integers(0, 4).map(float)
    else:
        coord, k = _FLOAT_COORD, st.one_of(st.just(0.0), st.floats(1e-3, 4.0))
    c = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    x = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    y = x + draw(k) * (x - c)
    squares = np.concatenate([(c - x) ** 2, (c - y) ** 2, (x - y) ** 2])
    assume(not np.any((squares > 0) & (squares < np.finfo(float).tiny)))
    return c, x, y


@settings(max_examples=200, deadline=None)
@given(_collinear_cases())
def test_query_decide_has_no_false_negatives(case):
    c, x, y = case
    cb = Codebook(c.size, c[None, :])
    d_id = float(((x - y) ** 2).mean())  # d(x, y) exactly: a similar pair
    assert query_decide(assign_signature(cb, x), cb, y, d_id, x=x) == QueryOutcome("maybe", True)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rates=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2),
       d_ids=st.lists(st.floats(0.0, 3.0), min_size=2, max_size=2), frac=st.floats(0.0, 1.0))
def test_schemes_report_no_false_negatives(seed, rates, d_ids, frac):
    _, _, fn = estimate_pr_maybe(IidGaussian(1.0), rates[0], 4, d_ids, 1000, seed)
    assert fn == 0
    model = MultivariateGaussian(toeplitz_covariance([1.0, 0.7], 2))
    _, _, fn = component_scheme_pr_maybe(model, rates, d_ids, frac * np.mean(d_ids), 1000, seed)
    assert fn == 0


def test_estimate_requires_trials():
    with pytest.raises(ValueError):
        estimate_pr_maybe(IidGaussian(1.0), 1.0, 4, 0.5, 100, 0)


@pytest.mark.parametrize(
    "block_len,d_id", [(0, 0.5), (4, math.nan), (4, math.inf), (4, [0.5, math.nan]), (4, [])]
)
def test_estimate_validation(block_len, d_id):
    with pytest.raises(ValueError):
        estimate_pr_maybe(IidGaussian(1.0), 1.0, block_len, d_id, 1000, 0)


def _no_sampling(*args, **kwargs):
    raise AssertionError("sample_block called")


@pytest.mark.parametrize("rate", [17.0, 2000.0])
def test_oversized_rate_is_rejected_before_sampling(monkeypatch, rate):
    # 2.0 ** 2000 overflows a float; 2^17 codewords would need 1.3 M
    # training samples, so both are rejected before any block is drawn
    monkeypatch.setattr(simulator, "sample_block", _no_sampling)
    with pytest.raises(TooManyCodewords, match="exceed the 2\\^16 maximum"):
        estimate_pr_maybe(IidGaussian(1.0), rate, 1, 0.5, 1000, 0)
    with pytest.raises(TooManyCodewords, match="exceed the 2\\^16 maximum"):
        estimate_pr_maybe(IidGaussian(1.0), rate, 16, 0.5, 1000, 0)
    model = MultivariateGaussian(toeplitz_covariance([1.0, 0.7], 2))
    with pytest.raises(TooManyCodewords, match="exceed the 2\\^16 maximum"):
        component_scheme_pr_maybe(model, [1.0, rate], [1.0, 1.0], 0.5, 1000, 3)


def test_estimate_reports_its_kmeans_training(caplog):
    training = {}
    with caplog.at_level(logging.DEBUG, logger="idq.simulator"):
        out = estimate_pr_maybe(IidGaussian(1.0), 1.0, 8, 0.5, 2000, 5, training=training)
    assert out == estimate_pr_maybe(IidGaussian(1.0), 1.0, 8, 0.5, 2000, 5)
    line = next(r.getMessage() for r in caplog.records if r.name == "idq.simulator")
    assert set(training) == {"kmeans_rounds", "train_distortion"}
    assert line.split(": ")[1].startswith(f"{training['kmeans_rounds']} rounds, ")
    assert line.split("distortion ")[1].split()[0] == f"{training['train_distortion']:.9g}"


def test_estimate_trains_once_for_all_thresholds(monkeypatch):
    calls = []
    real = simulator.train_codebook

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(simulator, "train_codebook", counted)
    ests, stderrs, fn = estimate_pr_maybe(IidGaussian(1.0), 1.0, 8, [0.0, 0.25, 0.5], 2000, 5)
    assert len(calls) == 1
    singles = [estimate_pr_maybe(IidGaussian(1.0), 1.0, 8, d, 2000, 5) for d in (0.0, 0.25, 0.5)]
    assert ests == [r[0] for r in singles]
    assert stderrs == [r[1] for r in singles]
    assert fn == sum(r[2] for r in singles)


def test_estimate_zero_false_negatives():
    est, se, fn = estimate_pr_maybe(IidGaussian(1.0), 1.0, 8, 0.5, 5000, 17)
    assert fn == 0
    assert 0.0 <= est <= 1.0
    assert se <= math.sqrt(0.25 / 5000)


def test_estimate_deterministic():
    a = estimate_pr_maybe(IidGaussian(1.0), 1.0, 8, 0.5, 2000, 5)
    b = estimate_pr_maybe(IidGaussian(1.0), 1.0, 8, 0.5, 2000, 5)
    assert a == b


def test_estimate_reproducible_across_seeds_within_stderr():
    a = estimate_pr_maybe(IidGaussian(1.0), 1.0, 8, 0.5, 20_000, 1)
    b = estimate_pr_maybe(IidGaussian(1.0), 1.0, 8, 0.5, 20_000, 2)
    assert abs(a[0] - b[0]) <= 3.0 * (a[1] + b[1])


def test_estimate_above_similarity_limit_proxy():
    # d_id = 3 with sigma^2 = 1: nearly every pair is truly similar, so the
    # admissible scheme must answer maybe nearly always
    est, se, fn = estimate_pr_maybe(IidGaussian(1.0), 0.25, 64, 3.0, 5000, 23)
    p_similar = chi2.cdf(3.0 * 64 / 2.0, 64)
    assert fn == 0
    assert est >= p_similar - 3.0 * se


def test_component_scheme_m1_matches_joint():
    cov = toeplitz_covariance([1.0], 1)
    model = MultivariateGaussian(cov)
    a = estimate_pr_maybe(model, 1.0, 1, 0.5, 5000, 9)
    b = component_scheme_pr_maybe(model, [1.0], [0.5], 0.5, 5000, 9)
    assert a == b


def test_component_scheme_huge_thresholds_always_maybe():
    cov = toeplitz_covariance([1.0, 0.7], 2)
    model = MultivariateGaussian(cov)
    est, se, fn = component_scheme_pr_maybe(model, [1.0, 1.0], [50.0, 50.0], 0.5, 2000, 3)
    assert est == 1.0 and fn == 0


def test_component_scheme_admissibility_precondition():
    cov = toeplitz_covariance([1.0, 0.7], 2)
    model = MultivariateGaussian(cov)
    with pytest.raises(AdmissibilityViolation):
        component_scheme_pr_maybe(model, [1.0, 1.0], [0.1, 0.1], 0.5, 2000, 3)


@pytest.mark.parametrize(
    "rates,d_ids,d_id,message",
    [([1.0, math.nan], [1.0, 1.0], 0.5, "rate must be finite and non-negative"),
     ([1.0, math.inf], [1.0, 1.0], 0.5, "rate must be finite and non-negative"),
     ([1.0, -1.0], [1.0, 1.0], 0.5, "rate must be finite and non-negative"),
     ([1.0, 1.0], [1.0, math.nan], 0.5, "d_id must be finite"),
     ([1.0, 1.0], [1.0, -1.0], 0.0, "d_id must be non-negative"),
     ([1.0, 1.0], [1.0, 1.0], math.nan, "d_id must be finite"),
     ([1.0, 1.0], [1.0, 1.0], -0.5, "d_id must be non-negative")],
    ids=["nan-rate", "inf-rate", "negative-rate", "nan-component-d_id",
         "negative-component-d_id", "nan-d_id", "negative-d_id"],
)
def test_component_scheme_rejects_bad_rates_and_thresholds(rates, d_ids, d_id, message):
    # a NaN d_id or per-component threshold used to pass the admissibility check
    model = MultivariateGaussian(toeplitz_covariance([1.0, 0.7], 2))
    with pytest.raises(ValueError, match=message):
        component_scheme_pr_maybe(model, rates, d_ids, d_id, 1000, 3)


def test_component_scheme_zero_false_negatives():
    cov = toeplitz_covariance([1.0, 0.7], 2)
    model = MultivariateGaussian(cov)
    est, se, fn = component_scheme_pr_maybe(
        model, [2.0, 0.0], [2.55, 0.0], 1.275, 50_000, 31
    )
    assert fn == 0


def test_component_scheme_and_composition():
    cov = toeplitz_covariance([1.0, 0.7], 2)
    model = MultivariateGaussian(cov)
    log = []
    est, se, fn = component_scheme_pr_maybe(
        model, [1.0, 1.0], [1.0, 0.6], 0.8, 2000, 12, decision_log=log
    )
    assert len(log) == 2
    combined = log[0] & log[1]
    assert est == combined.mean()


def _chunk(rate, block_len):
    """Chunk rows of `estimate_pr_maybe` at this rate and block length."""
    sub_len = simulator._sub_block_len(rate, block_len)
    return simulator._chunk_rows(block_len, simulator._codeword_count(rate * sub_len), sub_len)


_MV3 = MultivariateGaussian(toeplitz_covariance([1.0, 0.7, 0.3], 3))


@pytest.mark.parametrize("model,rate,block_len", [
    (IidGaussian(1.0), 0.625, 16),  # the benchmark's codebook: 1024 codewords
    (IidGaussian(1.0), 0.25, 64),  # 32-sample sub-blocks of 256 codewords
    (GaussMarkov(1.0, 0.7), 1.0, 8),
    (_MV3, 1.0, 3),
], ids=["iid", "iid-sub-blocks", "gauss-markov", "mv-gaussian"])
@pytest.mark.parametrize("trials", ["below", "one", "one+1", "ragged"])
def test_streamed_estimate_matches_the_whole_array_oracle(model, rate, block_len, trials):
    # below one chunk, exactly one, one plus a single row (which joins the
    # chunk before it), and two chunks plus a part that is not a multiple of
    # the `_products` row count
    chunk = _chunk(rate, block_len)
    rows = max(1, simulator._ASSIGN_ENTRIES // simulator._codeword_count(
        rate * simulator._sub_block_len(rate, block_len)))
    n = {"below": 1000, "one": chunk, "one+1": chunk + 1,
         "ragged": 2 * chunk + rows // 2 + 3}[trials]
    assert chunk % rows == 0 and chunk > 1000
    d_ids = [0.0, 0.3, 0.8, 1.5]
    got = estimate_pr_maybe(model, rate, block_len, d_ids, n, 7)
    assert got == whole_array_pr_maybe(model, rate, block_len, d_ids, n, 7)
    assert estimate_pr_maybe(model, rate, block_len, 0.8, n, 7) == \
        whole_array_pr_maybe(model, rate, block_len, 0.8, n, 7)


@pytest.mark.parametrize("rates", [[1.0, 1.6, 2.0], [0.0, 1.0, 3.0]])
def test_streamed_component_scheme_matches_the_whole_array_oracle(rates):
    chunk = simulator._chunk_rows(3, min(simulator._codeword_count(r) for r in rates), 1)
    for n in (1000, chunk, chunk + 1, chunk + 77):
        log, ref_log = [], []
        got = component_scheme_pr_maybe(_MV3, rates, [0.6, 0.6, 0.6], 0.5, n, 5,
                                        decision_log=log)
        assert got == whole_array_component_pr_maybe(_MV3, rates, [0.6, 0.6, 0.6], 0.5, n, 5,
                                                     ref_log)
        assert [a.shape for a in log] == [(n,)] * 3
        assert all(np.array_equal(a, b) for a, b in zip(log, ref_log))


@pytest.mark.parametrize("model,block_len", [
    (IidGaussian(1.0), 4), (GaussMarkov(1.0, 0.7), 4),
    (MultivariateGaussian(toeplitz_covariance([1.0, 0.7, 0.4, 0.2], 4)), 4)],
    ids=["iid", "gauss-markov", "mv-gaussian"])
@pytest.mark.parametrize("trials", [1000, 2001, 2500])
def test_sample_stream_chunks_are_the_whole_arrays(model, block_len, trials):
    # 2001 would leave a last chunk of one row, whose coloring numpy computes
    # through another BLAS routine; it joins the chunk before it instead
    _, _, pairs = simulator._sample_streams(model, block_len, 10, 1, trials, 1000, 3)
    _, _, x, y = whole_array_streams(model, block_len, 10, 1, trials, 3)
    xs, ys = zip(*pairs)
    assert np.array_equal(np.concatenate(xs), x) and np.array_equal(np.concatenate(ys), y)


def _estimate_peak(trials, rate=0.625, block_len=16):
    tracemalloc.start()
    try:
        estimate_pr_maybe(IidGaussian(1.0), rate, block_len, [0.0, 1.0], trials, 11)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_estimate_memory_does_not_grow_with_trials():
    # every pair in memory would take x alone 200000 x 16 x 8 bytes (25.6 MB);
    # the first call leaves out the one-time allocations of a first estimate
    _estimate_peak(1000)
    small, large = _estimate_peak(20_000), _estimate_peak(200_000)
    assert large < 200_000 * 16 * 8 / 4
    assert large <= 1.25 * small


def test_one_codeword_streams_chunks_of_bounded_size():
    # at rate 0 the codebook is one codeword, whose `_products` row block
    # was 2^17 rows; at L = 64 each of x, y and the [x, 1] staging block of
    # such a chunk held about 67 MB (215 MB of peak here), where a chunk of
    # about 2^16 values holds 1 MB
    assert simulator._chunk_rows(64, 1, 64) * 64 <= 2 * simulator._CHUNK_VALUES
    assert _estimate_peak(140_000, rate=0.0, block_len=64) < 16e6


def test_component_scheme_streams_chunks_of_bounded_size_at_any_order():
    # 1 bit per component: scalar books of 2 codewords, whose `_products`
    # row block is 65536 rows, so a chunk of a multiple of it held
    # 65536 x 16 values of each of x, y and their coefficients (41.6 MB of
    # peak at 70000 trials); the chunk is now a divisor of the row block
    model = MultivariateGaussian(toeplitz_covariance(0.7 ** np.arange(16), 16))
    assert simulator._chunk_rows(16, 2, 1) * 16 == simulator._CHUNK_VALUES
    assert simulator._chunk_rows(16, 1024, 16) == 4096
    tracemalloc.start()
    try:
        component_scheme_pr_maybe(model, [1.0] * 16, [0.5] * 16, 0.5, 70_000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_component_water_filling_beats_equal_split():
    # same total rate (2 bits per block), water-filling allocation vs equal
    cov = toeplitz_covariance([1.0, 0.7], 2)
    model = MultivariateGaussian(cov)
    d_id = 1.275  # implied by the tau = 0.425 allocation (single active component)
    wf = component_scheme_pr_maybe(model, [2.0, 0.0], [2.55, 0.0], d_id, 100_000, 71)
    eq = component_scheme_pr_maybe(model, [1.0, 1.0], [d_id, d_id], d_id, 100_000, 71)
    assert wf[2] == 0 and eq[2] == 0
    assert wf[0] <= eq[0] - 3.0 * (wf[1] + eq[1])


def test_klt_domain_similarity_equivalence():
    cov = toeplitz_covariance([1.0, 0.7], 2)
    basis = jacobi_eigh(cov)
    x = sample_block(MultivariateGaussian(cov), 2, 1000, 13)
    y = sample_block(MultivariateGaussian(cov), 2, 1000, 14)
    d0 = ((x - y) ** 2).mean(axis=1)
    d1 = ((klt_forward(basis, x) - klt_forward(basis, y)) ** 2).mean(axis=1)
    assert np.max(np.abs(d0 - d1)) <= 1e-9 * max(1.0, d0.max())


def test_chunked_pair_distances_match_whole_array_sums():
    # the query and pair distances are summed in chunks of rows, bit for bit
    # as over the whole arrays, and no temporary holds every row
    rng = np.random.default_rng(4)
    for n, width in ((20000, 16), (9000, 3), (5, 1)):
        x, y = rng.normal(size=(n, width)), rng.normal(size=(n, width))
        codewords, idx = rng.normal(size=(50, width)), rng.integers(0, 50, n)
        assert np.array_equal(simulator._sq_dists(x, y), ((x - y) ** 2).sum(axis=1))
        assert np.array_equal(simulator._sq_dists(codewords, y, idx),
                              ((codewords[idx] - y) ** 2).sum(axis=1))
        # the per-sample pair distances: a mean is the sum over the width
        assert np.array_equal(simulator._sq_dists(x, y) / width, ((x - y) ** 2).mean(axis=1))
    x, y = rng.normal(size=(100000, 16)), rng.normal(size=(100000, 16))
    tracemalloc.start()
    try:
        simulator._sq_dists(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 4
