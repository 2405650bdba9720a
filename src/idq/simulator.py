"""Monte-Carlo harness for concrete admissible similarity-query schemes.

A scheme stores, per database block, the index of its nearest codeword plus
the achieved per-sample quantization distance.  A query answers "no" only
when the triangle inequality proves the pair cannot be similar, so false
negatives are impossible by construction; the harness certifies that and
estimates Pr{maybe}.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityViolation, DimensionMismatch, TooManyCodewords
from .linalg import jacobi_eigh, klt_forward
from .sources import MultivariateGaussian, SourceModel, sample_block

MAX_CODEWORDS = 1 << 16

#: Joint-scheme codebooks are trained over sub-blocks holding at most this
#: many bits, keeping k-means tractable; sub-quantizations concatenate into a
#: full-block codeword so the triangle rule applies to the whole block.
MAX_SUB_BLOCK_BITS = 12.0

_KMEANS_ITERS = 20
_KMEANS_RTOL = 1e-6
_ASSIGN_CHUNK = 8192


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
    """Chunked nearest-codeword search; ties resolve to the lowest index."""
    n = blocks.shape[0]
    idx = np.empty(n, dtype=np.int64)
    dist = np.empty(n)
    cw_sq = (codewords**2).sum(axis=1)
    workers = _workers()

    def one(lo):
        hi = min(lo + _ASSIGN_CHUNK, n)
        x = blocks[lo:hi]
        # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2, argmin over c
        d2 = (x**2).sum(axis=1)[:, None] - 2.0 * (x @ codewords.T) + cw_sq[None, :]
        ii = d2.argmin(axis=1)
        idx[lo:hi] = ii
        # recompute exactly to avoid cancellation noise in stored distances
        dist[lo:hi] = ((x - codewords[ii]) ** 2).sum(axis=1)
        return None

    starts = range(0, n, _ASSIGN_CHUNK)
    if workers > 1 and n > _ASSIGN_CHUNK:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(one, starts))
    else:
        for lo in starts:
            one(lo)
    return idx, dist


def train_codebook(samples, rate_bits: float, block_len: int, seed) -> Codebook:
    """Lloyd/k-means codebook of 2^(rate_bits * block_len) codewords.

    Deterministic for a fixed seed: initial centroids are distinct sample rows
    drawn by the seeded generator; 20 update rounds or a relative distortion
    change below 1e-6, whichever first; empty cells keep their centroid.
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
    for _ in range(_KMEANS_ITERS):
        lab, d2 = _nearest(centroids, x)
        distortion = float(d2.mean()) / block_len
        if prev - distortion < _KMEANS_RTOL * max(prev, 1e-300):
            break
        prev = distortion
        for k in range(count):
            members = lab == k
            if members.any():
                centroids[k] = x[members].mean(axis=0)
    return Codebook(block_len, centroids)


def assign_signature(cb: Codebook, x) -> Signature:
    """Signature of one block: nearest codeword and its per-sample distance."""
    x = np.asarray(x, dtype=float)
    if x.shape != (cb.block_len,):
        raise DimensionMismatch(f"block length {x.shape} != {cb.block_len}")
    idx, dist = _nearest(cb.codewords, x[None, :])
    return Signature(int(idx[0]), float(dist[0]) / cb.block_len)


def query_decide(sig: Signature, cb: Codebook, y, d_id: float, x=None) -> QueryOutcome:
    """Triangle-inequality decision: maybe iff
    sqrt(d(xhat, y)) <= sqrt(stored) + sqrt(d_id).

    d(x, y) <= d_id implies sqrt(d(xhat, y)) <= sqrt(stored) + sqrt(d(x, y))
    <= sqrt(stored) + sqrt(d_id), so a similar pair can never be rejected.
    Pass the original block `x` to record ground truth in the outcome.
    """
    if d_id < 0:
        raise ValueError("d_id must be non-negative")
    y = np.asarray(y, dtype=float)
    if y.shape != (cb.block_len,):
        raise DimensionMismatch("query block length mismatch")
    xhat = cb.codewords[sig.index]
    d_hat = float(((xhat - y) ** 2).sum()) / cb.block_len
    maybe = math.sqrt(d_hat) <= math.sqrt(sig.stored_dist) + math.sqrt(d_id)
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


def _train_seeds(seed_seq, k: int):
    return [np.random.default_rng(child) for child in seed_seq.spawn(k)]


def estimate_pr_maybe(
    model: SourceModel,
    rate_bits: float,
    block_len: int,
    d_id: float,
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
    """
    if trials < 1000:
        raise ValueError("need at least 1000 trials")
    if d_id < 0:
        raise ValueError("d_id must be non-negative")
    ss = np.random.SeedSequence(seed)
    train_ss, x_ss, y_ss = ss.spawn(3)

    sub_len = _sub_block_len(rate_bits, block_len)
    n_sub = block_len // sub_len
    count = int(round(2.0 ** (rate_bits * sub_len)))
    n_train_sub = max(10 * count, 4096)
    n_train_blocks = -(-n_train_sub // n_sub)  # ceil
    train_blocks = sample_block(model, block_len, n_train_blocks, train_ss.spawn(1)[0])
    train_sub = train_blocks.reshape(-1, sub_len)
    km_rng = _train_seeds(train_ss, 1)[0]
    cb = train_codebook(train_sub, rate_bits, sub_len, km_rng)

    x = sample_block(model, block_len, trials, x_ss)
    y = sample_block(model, block_len, trials, y_ss)
    stored = np.zeros(trials)
    d_hat = np.zeros(trials)
    for cidx in range(n_sub):
        sl = slice(cidx * sub_len, (cidx + 1) * sub_len)
        idx, dist = _nearest(cb.codewords, x[:, sl])
        stored += dist
        d_hat += ((cb.codewords[idx] - y[:, sl]) ** 2).sum(axis=1)
    stored /= block_len
    d_hat /= block_len

    maybe = np.sqrt(d_hat) <= np.sqrt(stored) + math.sqrt(d_id)
    truly = ((x - y) ** 2).mean(axis=1) <= d_id
    false_neg = int((truly & ~maybe).sum())
    est = float(maybe.mean())
    stderr = math.sqrt(est * (1.0 - est) / trials)
    return est, stderr, false_neg


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
    answers maybe iff |xhat_m - y_m| <= |xhat_m - x_m| + sqrt(sum_k d_id_k).
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

    basis = jacobi_eigh(model.covariance)
    ss = np.random.SeedSequence(seed)
    train_ss, x_ss, y_ss = ss.spawn(3)

    counts = [max(1, int(round(2.0**r))) for r in rates]
    n_train = max(4096, 10 * max(counts))
    train_blocks = sample_block(model, m_dim, n_train, train_ss.spawn(1)[0])
    train_coeff = klt_forward(basis, train_blocks)
    km_rngs = _train_seeds(train_ss, m_dim)
    books = [
        train_codebook(train_coeff[:, m][:, None], math.log2(counts[m]), 1, km_rngs[m])
        for m in range(m_dim)
    ]

    x = sample_block(model, m_dim, trials, x_ss)
    y = sample_block(model, m_dim, trials, y_ss)
    xc = klt_forward(basis, x)
    yc = klt_forward(basis, y)

    slack = math.sqrt(float(d_ids.sum()))
    maybe = np.ones(trials, dtype=bool)
    for m in range(m_dim):
        idx, dist = _nearest(books[m].codewords, xc[:, m][:, None])
        xhat = books[m].codewords[idx, 0]
        d_hat = (xhat - yc[:, m]) ** 2
        comp_maybe = np.sqrt(d_hat) <= np.sqrt(dist) + slack
        if decision_log is not None:
            decision_log.append(comp_maybe.copy())
        maybe &= comp_maybe

    truly = ((x - y) ** 2).mean(axis=1) <= d_id
    false_neg = int((truly & ~maybe).sum())
    est = float(maybe.mean())
    stderr = math.sqrt(est * (1.0 - est) / trials)
    return est, stderr, false_neg
