"""Monte-Carlo harness for concrete admissible similarity-query schemes.

A scheme stores, per database block, the index of its nearest codeword plus
the achieved per-sample quantization distance.  A query answers "no" only
when the triangle inequality proves the pair cannot be similar, so false
negatives are impossible by construction; the harness certifies that and
estimates Pr{maybe}.
"""

import functools
import logging
import math
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
_ASSIGN_ENTRIES = 1 << 17
#: The estimators draw, encode and tally their (x, y) pairs in chunks of
#: about this many sample values of x, so their memory does not grow with
#: the trial count.
_CHUNK_VALUES = 1 << 16

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

    @functools.cached_property
    def first_copy(self) -> np.ndarray:
        """`_first_copy` of the codewords, computed once per codebook."""
        return _first_copy(self.codewords)


@dataclass(frozen=True)
class Signature:
    """Stored description of one database block: codeword index plus the
    achieved per-sample quadratic distance."""

    index: int
    stored_dist: float

    def __post_init__(self):
        if not math.isfinite(self.stored_dist):
            raise ValueError("stored distance must be finite")
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


def _check_d_id(d_id) -> None:
    """Reject a non-finite or negative threshold (or array of thresholds)."""
    if not np.all(np.isfinite(d_id)):
        raise ValueError("d_id must be finite")
    if np.any(np.less(d_id, 0)):
        raise ValueError("d_id must be non-negative")


def _codeword_count(bits: float) -> int:
    """round(2^bits), the size of a codebook of `bits` bits per block; raises
    TooManyCodewords above MAX_CODEWORDS (2^bits is never evaluated past
    2^17, so a huge rate cannot overflow)."""
    count = int(round(2.0 ** min(bits, 17.0)))
    if count > MAX_CODEWORDS:
        raise TooManyCodewords(f"2^{bits:g} codewords exceed the 2^16 maximum")
    return count


def _block_rows(count: int, dim: int) -> int:
    """Rows of one `_products` chunk against `count` codewords of `dim`
    samples: about _ASSIGN_ENTRIES values in each of its distance and [x, 1]
    staging blocks, and at least one row."""
    return max(1, _ASSIGN_ENTRIES // max(count, dim + 1))


def _products(codewords: np.ndarray, blocks: np.ndarray, reduce, width: int = None) -> None:
    """Chunked distance products: reduce(lo, hi, x, d2) for each chunk of rows.

    ||x - c||^2 - ||x||^2 = [x, 1] . [-2c, ||c||^2], and ||x||^2 is the same
    for every codeword, so each chunk of rows x = blocks[lo:hi] costs one
    matrix product [x, 1] @ A with A = [-2C, ||c||^2]^T, written into a
    distance block d2 that `reduce` reads and may overwrite; it writes only
    rows lo:hi of its outputs.  A chunk holds `_block_rows` rows: about
    _ASSIGN_ENTRIES distances (1 MB, which stays in a core's cache from the
    product to `reduce`) against a codebook of `width` codewords (default:
    all of `codewords`; a screen against some codewords of a codebook keeps
    the codebook's chunks and blocks no larger than its full search's), and
    no more [x, 1] values than that, so the chunk boundaries depend only on
    the codebook.  Every chunk reuses one distance block and one [x, 1]
    staging block.  The estimators pass their pairs in chunks of a multiple
    of this row count (`_chunk_rows`), so their products see the row blocks
    that one call over every pair would.
    """
    n, dim = blocks.shape
    count = codewords.shape[0]
    a = np.empty((dim + 1, count))
    a[:dim] = -2.0 * codewords.T
    a[dim] = (codewords**2).sum(axis=1)
    rows = _block_rows(width or count, dim)
    size = min(rows, n)
    d2 = np.empty((size, count))
    x1 = np.ones((size, dim + 1))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        x, m = blocks[lo:hi], hi - lo
        x1[:m, :dim] = x
        np.matmul(x1[:m], a, out=d2[:m])
        reduce(lo, hi, x, d2[:m])


def _first_copy(codewords: np.ndarray) -> np.ndarray:
    """Index of the first copy (bytewise equal row) of each codeword."""
    cw = np.ascontiguousarray(codewords)
    keys = cw.view(np.dtype((np.void, cw.itemsize * cw.shape[1]))).ravel()
    _, first, copy_of = np.unique(keys, return_index=True, return_inverse=True)
    return first[copy_of]


def _nearest(codewords: np.ndarray, blocks: np.ndarray, runner_up: bool = False,
             lowest: np.ndarray = None):
    """Chunked nearest-codeword search: (indices, exact squared distances).

    Each chunk is one `_products` block and one argmin.  Leaving ||x||^2 out
    moves only ties at rounding level.  Ties resolve to the lowest index:
    argmin returns the first minimum, and a copy of a codeword maps to its
    first copy (`lowest`, the codewords' `_first_copy`, computed here when
    not given).  Stored distances are recomputed from the differences, never
    taken from the product.  With `runner_up`, also returns each row's own
    product value (its codeword's entry of [x, 1] @ A) and runner-up value
    (the smallest entry of any other codeword, inf for one codeword).
    """
    n = blocks.shape[0]
    idx = np.empty(n, dtype=np.int64)
    dist = np.empty(n)
    own, runner = (np.empty(n), np.empty(n)) if runner_up else (None, None)
    # BLAS may round the product differently for two copies of one codeword,
    # so each index maps to the first copy of its codeword
    cw = np.ascontiguousarray(codewords)
    if lowest is None:
        lowest = _first_copy(cw)

    def reduce(lo, hi, x, d2):
        ii = lowest[d2.argmin(axis=1)]
        idx[lo:hi] = ii
        dist[lo:hi] = _sq_dists(codewords, x, ii)
        if runner_up:
            r = np.arange(hi - lo)
            own[lo:hi] = d2[r, ii]
            d2[r, ii] = np.inf
            runner[lo:hi] = d2.min(axis=1)

    _products(cw, blocks, reduce)
    return (idx, dist, own, runner) if runner_up else (idx, dist)


def _screen(codewords: np.ndarray, moved, blocks: np.ndarray, own_col, own, runner) -> None:
    """Lower each row's `runner` to its smallest `_products` entry over the
    codewords[moved] other than column own_col (-1: none), and write that
    column's entry into `own`."""

    def reduce(lo, hi, x, d2):
        col = own_col[lo:hi]
        r = np.flatnonzero(col >= 0)
        own[lo + r] = d2[r, col[r]]
        d2[r, col[r]] = np.inf
        np.minimum(runner[lo:hi], d2.min(axis=1), out=runner[lo:hi])

    _products(codewords[moved], blocks, reduce, width=codewords.shape[0])


def _assignments(x: np.ndarray, centroids: np.ndarray):
    """Nearest-centroid labels of every Lloyd round, searching again only
    where a moved centroid can change them.

    Yields (labels, exact squared distances, row x codeword distances
    searched) once per round; the caller moves `centroids` in place between
    rounds, and the next round overwrites the arrays yielded.  Round 1 is a
    full `_nearest` search that keeps each row's own and runner-up product
    values.  A later round screens every row against the moved centroids
    only (rows not bytewise equal to the last round's; `np.bincount`
    reproduces an unchanged cell's centroid bit for bit), excluding the
    row's own codeword, and lowers the runner-up to the screened minimum, a
    bound below every other codeword's value.  A row keeps its codeword
    unless its own value comes within a rounding margin of that bound; such
    rows are searched again over all codewords.  The labels are the full
    search's labels except at rounding-level ties, and each row whose own
    centroid moved gets its distance recomputed from the differences.
    """
    n, dim = x.shape
    count = centroids.shape[0]
    lab, dist, own, runner = _nearest(centroids, x, runner_up=True)
    searched = n * count
    x_norm = math.sqrt(float((x**2).sum(axis=1).max()))
    moved_col = np.full(count, -1)
    while True:
        last = centroids.copy()
        yield lab, dist, searched
        moved = np.flatnonzero((centroids.view(np.uint64) != last.view(np.uint64)).any(axis=1))
        searched = n * moved.size
        if moved.size == 0:
            continue
        moved_col[:] = -1
        moved_col[moved] = np.arange(moved.size)
        own_col = moved_col[lab]
        _screen(centroids, moved, x, own_col, own, runner)
        # A product entry is a dot product of dim + 1 terms, one of them the
        # rounded ||c||^2, so it lies within e = (2 dim + 1) u S of its exact
        # value in whichever product computed it (u = 2^-53, first order, any
        # summation order), with S = (max ||x|| + max ||c||)^2.  A full search
        # would read the row's own entry at most own + 2e and every other
        # entry at least bound - 2e, so a row whose own value lies more than
        # 4e below its bound keeps its codeword under a full search too.
        # 4e <= (8 dim + 4) u S < 1e-15 (dim + 1) S; twice that also covers
        # the rounding of S and of the comparison.
        c_norm = math.sqrt(float((centroids**2).sum(axis=1).max()))
        margin = 2e-15 * (dim + 1) * (x_norm + c_norm) ** 2
        again = own >= runner - margin
        fix = (own_col >= 0) & ~again
        dist[fix] = _sq_dists(centroids, x[fix], lab[fix])
        rows = np.flatnonzero(again)
        if rows.size:
            lab[rows], dist[rows], own[rows], runner[rows] = _nearest(
                centroids, x[rows], runner_up=True)
            searched += rows.size * count


def train_codebook(samples, rate_bits: float, block_len: int, seed,
                   training: dict = None) -> Codebook:
    """Lloyd/k-means codebook of 2^(rate_bits * block_len) codewords.

    Deterministic for a fixed seed: initial centroids are distinct sample rows
    drawn by the seeded generator; 20 update rounds or a relative distortion
    change below 1e-6, whichever first; empty cells keep their centroid.
    Each round's labels come from `_assignments`: after a full first search,
    a round screens the rows against the centroids that moved and searches
    all codewords again only for rows that one of them may have captured (up
    to a rounding margin), so the labels are the full search's labels except
    at rounding-level ties.  Logs the assignment rounds run, the rule that
    stopped them, the row x codeword distances searched against a full
    search's and the last assignment's per-sample distortion at DEBUG.

    Pass a dict as `training` to receive the round count (`kmeans_rounds`)
    and that distortion (`train_distortion`).
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2 or x.shape[1] != block_len:
        raise DimensionMismatch("samples must be (count, block_len)")
    count = _codeword_count(rate_bits * block_len)
    if count < 1:
        raise ValueError("rate too small for a single codeword")
    if x.shape[0] < 10 * count:
        raise ValueError(f"need at least {10 * count} training samples, got {x.shape[0]}")
    rng = np.random.default_rng(seed)
    centroids = x[rng.choice(x.shape[0], size=count, replace=False)].copy()
    prev = math.inf
    stop = f"{_KMEANS_ITERS}-round cap"
    total = 0
    for rounds, (lab, d2, searched) in zip(range(1, _KMEANS_ITERS + 1),
                                          _assignments(x, centroids)):
        total += searched
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
    logger.debug("k-means, %d codewords: %d rounds, stopped by the %s, %d of %d row x "
                 "codeword distances searched, distortion %.9g per sample at the last "
                 "assignment", count, rounds, stop, total, rounds * x.shape[0] * count,
                 distortion)
    if training is not None:
        training.update(kmeans_rounds=rounds, train_distortion=distortion)
    return Codebook(block_len, centroids)


def assign_signature(cb: Codebook, x) -> Signature:
    """Signature of one block: nearest codeword and its per-sample distance."""
    x = np.asarray(x, dtype=float)
    if x.shape != (cb.block_len,):
        raise DimensionMismatch(f"block length {x.shape} != {cb.block_len}")
    idx, dist = _nearest(cb.codewords, x[None, :], lowest=cb.first_copy)
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
    _check_d_id(d_id)
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


def _sq_dists(a, b, take=None) -> np.ndarray:
    """((a[take] - b) ** 2).sum(axis=1), or the same of a itself without
    `take`, in chunks of about _ASSIGN_ENTRIES values of b's rows, so that
    no temporary holds every row; each row's sum is the one the whole arrays
    give, bit for bit."""
    n, width = b.shape
    out = np.empty(n)
    rows = max(1, _ASSIGN_ENTRIES // width)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        d = (a[lo:hi] if take is None else a[take[lo:hi]]) - b[lo:hi]
        d *= d
        d.sum(axis=1, out=out[lo:hi])
    return out


def _encode(cb: Codebook, x, y):
    """Per-sample stored and query distances (stored, d_hat) of the blocks x
    (rows, each quantized as consecutive sub-blocks of cb.block_len samples
    by their nearest codewords) and the query blocks y."""
    stored, d_hat = np.zeros(x.shape[0]), np.zeros(x.shape[0])
    for lo in range(0, x.shape[1], cb.block_len):
        sub = slice(lo, lo + cb.block_len)
        idx, dist = _nearest(cb.codewords, x[:, sub], lowest=cb.first_copy)
        stored += dist
        d_hat += _sq_dists(cb.codewords, y[:, sub], idx)
    return stored / x.shape[1], d_hat / x.shape[1]


def _count(maybe, d_xy, d_id) -> np.ndarray:
    """(maybe decisions, false negatives) among the decisions `maybe` on
    pairs at per-sample distances d_xy, threshold d_id."""
    return np.array([np.count_nonzero(maybe), np.count_nonzero((d_xy <= d_id) & ~maybe)])


def _tally(hits, false_neg, trials: int):
    """(Pr{maybe} estimate, binomial standard error, false negatives) of
    `hits` maybe decisions in `trials` pairs.  The estimate is the bits of
    the decisions' float mean: their float sum is the exact count."""
    est = int(hits) / trials
    return est, math.sqrt(est * (1.0 - est) / trials), int(false_neg)


def _chunk_rows(block_len: int, count: int, dim: int) -> int:
    """Rows of one chunk of pairs: about _CHUNK_VALUES // block_len, rounded
    down to a multiple (at least one) of the `_products` row count of a
    codebook of `count` codewords of `dim` samples.  When one such row block
    would hold more than twice that many rows (a codebook of fewer
    codewords than a block has samples), the chunk is instead the
    largest divisor of the row block within the target, so that no chunk
    straddles two row blocks and the chunk stays within the target at any
    block length."""
    step = _block_rows(count, dim)
    target = max(1, _CHUNK_VALUES // block_len)
    if step <= 2 * target:
        return max(1, target // step) * step
    return step // next(k for k in range(-(-step // target), step + 1) if step % k == 0)


def _sample_streams(model, block_len: int, n_train: int, n_generators: int, trials: int,
                    chunk: int, seed):
    """(training blocks, k-means generators, (x, y) chunks) of one run.

    `seed`'s children 1 and 2 draw x and y; its child 0 spawns one child for
    the training blocks, then one per generator.  The chunks, drawn when
    iterated, hold `chunk` rows each but the last, which holds the rest; a
    single remaining row joins the chunk before it, since numpy multiplies a
    single row through another BLAS routine than a block of rows.  Each of x
    and y is one generator drawn from chunk after chunk, so the chunks are
    the rows of the whole arrays that one draw each would give.
    """
    train_ss, x_ss, y_ss = np.random.SeedSequence(seed).spawn(3)
    blocks_ss, *gen_ss = train_ss.spawn(1 + n_generators)
    train = sample_block(model, block_len, n_train, blocks_ss)
    x_rng, y_rng = np.random.default_rng(x_ss), np.random.default_rng(y_ss)
    stops = [*range(chunk, trials - 1, chunk), trials]
    pairs = ((sample_block(model, block_len, hi - lo, x_rng),
              sample_block(model, block_len, hi - lo, y_rng))
             for lo, hi in zip([0, *stops], stops))
    return train, [np.random.default_rng(child) for child in gen_ss], pairs


def estimate_pr_maybe(
    model: SourceModel,
    rate_bits: float,
    block_len: int,
    d_id,
    trials: int,
    seed,
    training: dict = None,
):
    """Monte-Carlo estimate of Pr{maybe} for the triangle scheme.

    Draws `trials` independent (x, y) pairs (same distribution, independent of
    each other), trains the codebook on a disjoint sample stream, and returns
    (estimate, binomial standard error, false-negative count).  When the flat
    codebook would exceed MAX_SUB_BLOCK_BITS bits, the block is quantized as a
    concatenation of equal sub-blocks sharing one codebook; the triangle rule
    is applied to the whole block, so admissibility is untouched.  A
    (sub-)codebook above MAX_CODEWORDS raises TooManyCodewords before any
    block is drawn.

    `d_id` is one threshold or a 1-D sequence of them.  The codebook is
    trained and the pairs are drawn and encoded once; every threshold is
    decided on the same pairs.  For a sequence the estimate and standard error
    are lists, one entry per threshold, and the false-negative count is the
    total over all thresholds.

    The pairs are drawn, encoded and decided one chunk of `_chunk_rows`
    rows at a time, keeping only per-threshold counts between chunks, so
    memory does not grow with `trials`.  The results are those of drawing
    and encoding every pair at once, bit for bit, whenever a chunk holds
    whole `_products` row blocks: always unless one row block would hold
    more than twice _CHUNK_VALUES values of x (a codebook of fewer codewords
    than the block has samples, as at 1 bit per sample and 512 samples),
    where a chunk is a fraction of one and a nearest codeword can differ at
    a tie within rounding (see `component_scheme_pr_maybe`).

    Pass a dict as `training` to receive the codebook's k-means round count
    (`kmeans_rounds`) and per-sample training distortion at its last
    assignment (`train_distortion`).
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
    _check_d_id(d_ids)
    sub_len = _sub_block_len(rate_bits, block_len)
    n_sub = block_len // sub_len
    count = _codeword_count(rate_bits * sub_len)
    n_train_sub = max(10 * count, 4096)
    n_train_blocks = -(-n_train_sub // n_sub)  # ceil
    train_blocks, (km_rng,), pairs = _sample_streams(
        model, block_len, n_train_blocks, 1, trials, _chunk_rows(block_len, count, sub_len), seed
    )
    cb = train_codebook(train_blocks.reshape(-1, sub_len), rate_bits, sub_len, km_rng,
                        training)

    counts = np.zeros((d_ids.size, 2), dtype=np.int64)
    for x, y in pairs:
        stored, d_hat = _encode(cb, x, y)
        d_xy = _sq_dists(x, y) / block_len
        for k, d in enumerate(d_ids.ravel()):
            counts[k] += _count(_maybe(d_hat, stored, d), d_xy, d)
    ests, stderrs, false_negs = zip(*(_tally(hits, fn, trials) for hits, fn in counts))
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

    The pairs stream through in chunks of about _CHUNK_VALUES values of x,
    as in `estimate_pr_maybe`, of a multiple of the `_products` row count of
    the smallest component codebook (so of every one's when the counts are
    powers of two), or, when one row block alone would hold more than twice
    that (few codewords at a large M: 1 or 2 at M > 2), of a divisor of it
    (`_chunk_rows`).
    Such a chunk's products are smaller matrix products than one call over
    every pair makes, which a BLAS may round differently in the last bit, so
    a nearest codeword can then differ at a tie within rounding.

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
    if not np.all(np.isfinite(rates) & (rates >= 0)):
        raise ValueError("rate must be finite and non-negative")
    _check_d_id(d_ids)
    _check_d_id(d_id)
    if d_ids.mean() < d_id - 1e-12:
        raise AdmissibilityViolation(
            f"average component threshold {d_ids.mean():.6g} below target {d_id:.6g}"
        )

    counts = [_codeword_count(r) for r in rates]
    n_train = max(4096, 10 * max(counts))
    train_blocks, km_rngs, pairs = _sample_streams(
        model, m_dim, n_train, m_dim, trials, _chunk_rows(m_dim, min(counts), 1), seed)
    train_coeff = klt_forward(model.klt, train_blocks)
    books = [
        train_codebook(train_coeff[:, m][:, None], math.log2(counts[m]), 1, km_rngs[m])
        for m in range(m_dim)
    ]

    logs = [[] for _ in range(m_dim)]
    total = np.zeros(2, dtype=np.int64)
    for x, y in pairs:
        xc = klt_forward(model.klt, x)
        yc = klt_forward(model.klt, y)
        maybe = np.ones(x.shape[0], dtype=bool)
        for m in range(m_dim):
            stored, d_hat = _encode(books[m], xc[:, m:m + 1], yc[:, m:m + 1])
            comp_maybe = _maybe(d_hat, stored, d_ids.sum())
            if decision_log is not None:
                logs[m].append(comp_maybe)
            maybe &= comp_maybe
        total += _count(maybe, _sq_dists(x, y) / m_dim, d_id)
    if decision_log is not None:
        decision_log.extend(np.concatenate(chunks) for chunks in logs)
    return _tally(*total, trials)
