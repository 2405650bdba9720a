"""Monte-Carlo harness for concrete admissible similarity-query schemes.

A scheme stores, per database block, the index of its nearest codeword plus
the achieved per-sample quantization distance.  A query answers "no" only
when the triangle inequality proves the pair cannot be similar, so false
negatives are impossible by construction; the harness certifies that and
estimates Pr{maybe}.
"""

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityViolation, DimensionMismatch, TooManyCodewords
from .linalg import klt_forward
from .sources import MultivariateGaussian, SourceModel, sample_block

MAX_CODEWORDS = 1 << 16

#: Joint-scheme codebooks are trained over sub-blocks holding at most this
#: many bits, keeping k-means tractable; sub-quantizations concatenate into a
#: full-block codeword so the triangle rule applies to the whole block.
MAX_SUB_BLOCK_BITS = 12.0

_KMEANS_ITERS = 20
_KMEANS_RTOL = 1e-6
_ASSIGN_ENTRIES = 1 << 20

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Codebook:
    """Finite set of reconstruction vectors for fixed-length blocks."""

    block_len: int
    codewords: np.ndarray

    def __post_init__(self):
        cw = np.asarray(self.codewords, dtype=float)
        if cw.ndim != 2 or cw.shape[0] < 1 or cw.shape[1] != self.block_len:
            raise DimensionMismatch("codewords must be (count, block_len)")
        object.__setattr__(self, "codewords", cw)

    @property
    def count(self) -> int:
        return self.codewords.shape[0]

    @property
    def rate_bits(self) -> float:
        return math.log2(self.count) / self.block_len


@dataclass(frozen=True)
class Signature:
    """Stored description of one database block: codeword index plus the
    achieved per-sample quadratic distance."""

    index: int
    stored_dist: float

    def __post_init__(self):
        if self.index < 0 or self.stored_dist < 0:
            raise ValueError("index and stored distance must be non-negative")


@dataclass(frozen=True)
class QueryOutcome:
    """Decision for one query block; truly_similar is ground truth when known."""

    decision: str
    truly_similar: bool = None

    def __post_init__(self):
        if self.decision not in ("maybe", "no"):
            raise ValueError("decision must be 'maybe' or 'no'")


def _workers() -> int:
    """Worker count from IDQ_THREADS: unset or empty is 1, 0 is one per CPU."""
    raw = os.environ.get("IDQ_THREADS", "").strip()
    if not raw:
        return 1
    if not raw.isdecimal():
        raise ValueError(f"IDQ_THREADS must be a non-negative integer, got {raw!r}")
    return int(raw) or os.cpu_count() or 1


def _nearest(codewords: np.ndarray, blocks: np.ndarray):
    """Chunked nearest-codeword search: (indices, exact squared distances).

    ||x - c||^2 - ||x||^2 = [x, 1] . [-2c, ||c||^2], and ||x||^2 is the same
    for every codeword, so each chunk of rows costs one matrix product
    [x, 1] @ A with A = [-2C, ||c||^2]^T, written into a distance block, and
    one argmin.  Leaving ||x||^2 out moves only ties at rounding level.  A
    chunk holds about _ASSIGN_ENTRIES distances (8 MB), so the chunk
    boundaries depend only on the codebook, never on the worker count.
    Worker k takes every k-th chunk into one distance block and one [x, 1]
    staging block, both allocated here by the caller (blocks freed in a
    worker thread stay in that thread's malloc arena).

    Ties resolve to the lowest index: argmin returns the first minimum, and
    a copy of a codeword maps to its first copy.  Stored distances are
    recomputed from the differences, never taken from the product.
    """
    n, dim = blocks.shape
    count = codewords.shape[0]
    idx = np.empty(n, dtype=np.int64)
    dist = np.empty(n)
    # BLAS may round the product differently for two copies of one codeword,
    # so each index maps to the first copy of its codeword (bytewise equal rows)
    cw = np.ascontiguousarray(codewords)
    keys = cw.view(np.dtype((np.void, cw.itemsize * cw.shape[1]))).ravel()
    _, first, copy_of = np.unique(keys, return_index=True, return_inverse=True)
    lowest = first[copy_of]
    a = np.empty((dim + 1, count))
    a[:dim] = -2.0 * cw.T
    a[dim] = (cw**2).sum(axis=1)
    rows = max(1, _ASSIGN_ENTRIES // count)
    starts = range(0, n, rows)
    workers = max(1, min(_workers(), len(starts)))
    size = min(rows, n)
    d2s = [np.empty((size, count)) for _ in range(workers)]
    x1s = [np.ones((size, dim + 1)) for _ in range(workers)]

    def work(k):
        d2, x1 = d2s[k], x1s[k]
        for lo in starts[k::workers]:
            hi = min(lo + rows, n)
            x, m = blocks[lo:hi], hi - lo
            x1[:m, :dim] = x
            np.matmul(x1[:m], a, out=d2[:m])
            ii = lowest[d2[:m].argmin(axis=1)]
            idx[lo:hi] = ii
            dist[lo:hi] = ((x - codewords[ii]) ** 2).sum(axis=1)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, range(workers)))
    else:
        work(0)
    return idx, dist


def train_codebook(samples, rate_bits: float, block_len: int, seed) -> Codebook:
    """Lloyd/k-means codebook of 2^(rate_bits * block_len) codewords.

    Deterministic for a fixed seed: initial centroids are distinct sample rows
    drawn by the seeded generator; 20 update rounds or a relative distortion
    change below 1e-6, whichever first; empty cells keep their centroid.
    Logs the assignment rounds run, the rule that stopped them and the last
    assignment's per-sample distortion at DEBUG.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2 or x.shape[1] != block_len:
        raise DimensionMismatch("samples must be (count, block_len)")
    count = int(round(2.0 ** (rate_bits * block_len)))
    if count < 1:
        raise ValueError("rate too small for a single codeword")
    if count > MAX_CODEWORDS:
        raise TooManyCodewords(f"{count} codewords exceed the 2^16 maximum")
    if x.shape[0] < 10 * count:
        raise ValueError(f"need at least {10 * count} training samples, got {x.shape[0]}")
    rng = np.random.default_rng(seed)
    centroids = x[rng.choice(x.shape[0], size=count, replace=False)].copy()
    prev = math.inf
    stop = f"{_KMEANS_ITERS}-round cap"
    for rounds in range(1, _KMEANS_ITERS + 1):
        lab, d2 = _nearest(centroids, x)
        distortion = float(d2.mean()) / block_len
        if prev - distortion < _KMEANS_RTOL * max(prev, 1e-300):
            stop = f"{_KMEANS_RTOL:g} rule"
            break
        prev = distortion
        sizes = np.bincount(lab, minlength=count)
        live = sizes > 0
        for j in range(block_len):
            sums = np.bincount(lab, weights=x[:, j], minlength=count)
            centroids[live, j] = sums[live] / sizes[live]
    logger.debug("k-means, %d codewords: %d rounds, stopped by the %s, distortion %.9g "
                 "per sample at the last assignment", count, rounds, stop, distortion)
    return Codebook(block_len, centroids)


def assign_signature(cb: Codebook, x) -> Signature:
    """Signature of one block: nearest codeword and its per-sample distance."""
    x = np.asarray(x, dtype=float)
    if x.shape != (cb.block_len,):
        raise DimensionMismatch(f"block length {x.shape} != {cb.block_len}")
    idx, dist = _nearest(cb.codewords, x[None, :])
    return Signature(int(idx[0]), float(dist[0]) / cb.block_len)


def _maybe(d_hat, stored, d_id):
    """The triangle rule: maybe iff sqrt(d_hat) <= sqrt(stored) + sqrt(d_id).

    d(x, y) <= d_id implies sqrt(d(xhat, y)) <= sqrt(stored) + sqrt(d(x, y))
    <= sqrt(stored) + sqrt(d_id), so a similar pair can never be rejected.
    Elementwise over arrays of per-sample distances.
    """
    # d_hat, stored and d(x, y) are each a mean of L rounded squares of
    # rounded differences, within (L + 3) u of exact (u = 2^-53, first
    # order); through three square roots, a sum and the product below, the
    # two sides stray by at most (L + 7) u.  1e-13, about 900 u, covers blocks
    # of up to 890 samples even under sequential sums.  Without it, rounding
    # can reject a pair at triangle equality (collinear points).
    return np.sqrt(d_hat) <= (np.sqrt(stored) + np.sqrt(d_id)) * (1.0 + 1e-13)


def query_decide(sig: Signature, cb: Codebook, y, d_id: float, x=None) -> QueryOutcome:
    """Triangle-inequality decision (`_maybe`) for one query block.

    Pass the original block `x` to record ground truth in the outcome.
    """
    if d_id < 0:
        raise ValueError("d_id must be non-negative")
    y = np.asarray(y, dtype=float)
    if y.shape != (cb.block_len,):
        raise DimensionMismatch("query block length mismatch")
    xhat = cb.codewords[sig.index]
    d_hat = float(((xhat - y) ** 2).sum()) / cb.block_len
    maybe = bool(_maybe(d_hat, sig.stored_dist, d_id))
    truly = None
    if x is not None:
        x = np.asarray(x, dtype=float)
        truly = bool(((x - y) ** 2).mean() <= d_id)
    return QueryOutcome("maybe" if maybe else "no", truly)


def _sub_block_len(rate_bits: float, block_len: int) -> int:
    """Largest divisor of block_len whose sub-codebook stays within the bit cap."""
    for cand in range(block_len, 0, -1):
        if block_len % cand == 0 and rate_bits * cand <= MAX_SUB_BLOCK_BITS:
            return cand
    return 1


def _encode(cb: Codebook, x, y):
    """Per-sample stored and query distances (stored, d_hat) of the blocks x
    (rows, each quantized as consecutive sub-blocks of cb.block_len samples
    by their nearest codewords) and the query blocks y."""
    stored, d_hat = np.zeros(x.shape[0]), np.zeros(x.shape[0])
    for lo in range(0, x.shape[1], cb.block_len):
        sub = slice(lo, lo + cb.block_len)
        idx, dist = _nearest(cb.codewords, x[:, sub])
        stored += dist
        d_hat += ((cb.codewords[idx] - y[:, sub]) ** 2).sum(axis=1)
    return stored / x.shape[1], d_hat / x.shape[1]


def _tally(maybe, d_xy, d_id):
    """(Pr{maybe} estimate, binomial standard error, false negatives) of the
    decisions `maybe` on pairs at per-sample distances d_xy, threshold d_id."""
    false_neg = int(((d_xy <= d_id) & ~maybe).sum())
    est = float(maybe.mean())
    return est, math.sqrt(est * (1.0 - est) / maybe.size), false_neg


def _sample_streams(model, block_len: int, n_train: int, n_generators: int, trials: int, seed):
    """(training blocks, k-means generators, x blocks, y blocks) of one run.

    `seed`'s children 1 and 2 draw x and y; its child 0 spawns one child for
    the training blocks, then one per generator.
    """
    train_ss, x_ss, y_ss = np.random.SeedSequence(seed).spawn(3)
    x = sample_block(model, block_len, trials, x_ss)
    y = sample_block(model, block_len, trials, y_ss)
    blocks_ss, *gen_ss = train_ss.spawn(1 + n_generators)
    train = sample_block(model, block_len, n_train, blocks_ss)
    return train, [np.random.default_rng(child) for child in gen_ss], x, y


def estimate_pr_maybe(
    model: SourceModel,
    rate_bits: float,
    block_len: int,
    d_id,
    trials: int,
    seed,
):
    """Monte-Carlo estimate of Pr{maybe} for the triangle scheme.

    Draws `trials` independent (x, y) pairs (same distribution, independent of
    each other), trains the codebook on a disjoint sample stream, and returns
    (estimate, binomial standard error, false-negative count).  When the flat
    codebook would exceed MAX_SUB_BLOCK_BITS bits, the block is quantized as a
    concatenation of equal sub-blocks sharing one codebook; the triangle rule
    is applied to the whole block, so admissibility is untouched.

    `d_id` is one threshold or a 1-D sequence of them.  The codebook is
    trained and the pairs are drawn and encoded once; every threshold is
    decided on the same pairs.  For a sequence the estimate and standard error
    are lists, one entry per threshold, and the false-negative count is the
    total over all thresholds.
    """
    if trials < 1000:
        raise ValueError("need at least 1000 trials")
    if block_len < 1:
        raise ValueError("block_len must be positive")
    if not (math.isfinite(rate_bits) and rate_bits >= 0):
        raise ValueError("rate must be finite and non-negative")
    d_ids = np.asarray(d_id, dtype=float)
    if d_ids.ndim > 1 or d_ids.size == 0:
        raise ValueError("d_id must be a number or a non-empty 1-D sequence")
    if not np.all(np.isfinite(d_ids)):
        raise ValueError("d_id must be finite")
    if np.any(d_ids < 0):
        raise ValueError("d_id must be non-negative")
    sub_len = _sub_block_len(rate_bits, block_len)
    n_sub = block_len // sub_len
    count = int(round(2.0 ** (rate_bits * sub_len)))
    n_train_sub = max(10 * count, 4096)
    n_train_blocks = -(-n_train_sub // n_sub)  # ceil
    train_blocks, (km_rng,), x, y = _sample_streams(
        model, block_len, n_train_blocks, 1, trials, seed
    )
    cb = train_codebook(train_blocks.reshape(-1, sub_len), rate_bits, sub_len, km_rng)

    stored, d_hat = _encode(cb, x, y)
    d_xy = ((x - y) ** 2).mean(axis=1)
    ests, stderrs, false_negs = zip(*(_tally(_maybe(d_hat, stored, d), d_xy, d)
                                      for d in d_ids.ravel()))
    if d_ids.ndim == 0:
        return ests[0], stderrs[0], false_negs[0]
    return list(ests), list(stderrs), sum(false_negs)


def component_scheme_pr_maybe(
    model: MultivariateGaussian,
    per_component_rates,
    per_component_d_ids,
    d_id: float,
    trials: int,
    seed,
    decision_log: list = None,
):
    """Pr{maybe} of the transform-domain component scheme (AND of components).

    Each block is decorrelated by the covariance KLT; component m quantizes
    its coefficient with a scalar codebook of round(2^rate_m) codewords and
    answers maybe iff |xhat_m - y_m| <= |xhat_m - x_m| + sqrt(sum_k d_id_k)
    (`_maybe` with threshold sum_k d_id_k).
    The total-budget slack is what admissibility costs at finite blocklength:
    a similar pair may concentrate its whole distance budget M * d(x, y)
    <= M * d_id <= sum_k d_id_k in a single coefficient.  The block is labeled
    maybe iff every component says maybe; false negatives are counted against
    the original-domain distance and are structurally zero.

    Pass a list as `decision_log` to receive each component's per-trial
    decision array (for auditing the AND composition).
    """
    if not isinstance(model, MultivariateGaussian):
        raise DimensionMismatch("component scheme requires a MultivariateGaussian model")
    if trials < 1000:
        raise ValueError("need at least 1000 trials")
    m_dim = model.dim
    rates = np.asarray(per_component_rates, dtype=float)
    d_ids = np.asarray(per_component_d_ids, dtype=float)
    if rates.shape != (m_dim,) or d_ids.shape != (m_dim,):
        raise DimensionMismatch("need one rate and one threshold per component")
    if np.any(rates < 0) or np.any(d_ids < 0):
        raise ValueError("rates and thresholds must be non-negative")
    if d_ids.mean() < d_id - 1e-12:
        raise AdmissibilityViolation(
            f"average component threshold {d_ids.mean():.6g} below target {d_id:.6g}"
        )

    counts = [max(1, int(round(2.0**r))) for r in rates]
    n_train = max(4096, 10 * max(counts))
    train_blocks, km_rngs, x, y = _sample_streams(model, m_dim, n_train, m_dim, trials, seed)
    train_coeff = klt_forward(model.klt, train_blocks)
    books = [
        train_codebook(train_coeff[:, m][:, None], math.log2(counts[m]), 1, km_rngs[m])
        for m in range(m_dim)
    ]

    xc = klt_forward(model.klt, x)
    yc = klt_forward(model.klt, y)

    maybe = np.ones(trials, dtype=bool)
    for m in range(m_dim):
        stored, d_hat = _encode(books[m], xc[:, m:m + 1], yc[:, m:m + 1])
        comp_maybe = _maybe(d_hat, stored, d_ids.sum())
        if decision_log is not None:
            decision_log.append(comp_maybe.copy())
        maybe &= comp_maybe
    return _tally(maybe, ((x - y) ** 2).mean(axis=1), d_id)
