"""Reference routines the tests check the package against.

Independent oracles for the solver: the exhaustive lattice-channel search and
the binary-Hamming type-covering closed form.  `whole_array_pr_maybe` and
`whole_array_component_pr_maybe` are the simulator's two estimators as they
were before they streamed their pairs in chunks: every pair drawn, encoded
and decided in one array.  `ba_step` runs one solver
update on the solver's own kernels (`idq.tcdelta._tilt`, `_step` and
`_channel`) and builds the channel eagerly, so its raises are the solver's;
`mutual_information` computes I(X; Xhat) from a channel directly.
"""

import itertools
import math

import numpy as np

from idq import simulator
from idq.errors import DimensionMismatch, DomainError
from idq.linalg import klt_forward
from idq.sources import Pmf, sample_block
from idq.tcdelta import Channel, _channel, _probs, _step, _table, _tilt


def mutual_information(p_x, q) -> float:
    """I(X; Xhat) in bits for source p_x through channel q, with 0 log 0 = 0."""
    p = _probs(p_x)
    qm = q.q if isinstance(q, Channel) else np.asarray(q, dtype=float)
    if qm.shape[1] != p.size:
        raise DimensionMismatch("channel columns must match the source alphabet")
    t = qm @ p
    z = qm * p[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        contrib = np.where(z > 0, z * (np.log2(qm) - np.log2(t)[:, None]), 0.0)
    return max(float(np.nansum(contrib)), 0.0)


def ba_step(p_x, t, gamma, s: float):
    """One conditional/marginal update; returns (Channel, updated marginal Pmf).

    The codeword grid behind `t` must carry no zero entries (drop them first);
    raises NumericalUnderflow if a column normalizes to zero.
    """
    p = _probs(p_x)
    g = _table(gamma).gamma
    tv = t.probs if isinstance(t, Pmf) else np.asarray(t, dtype=float)
    if g.shape != (tv.size, p.size):
        raise DimensionMismatch("gamma shape must be (len(t), len(p_x))")
    if not 0.0 <= s < math.inf:  # also rejects NaN
        raise ValueError("slope must be finite and non-negative")
    _, _, e = _tilt(g, p, s)
    with np.errstate(over="ignore", invalid="ignore"):
        col, _, t_new, _ = _step(e, tv, p)
    support = t.support if isinstance(t, Pmf) else np.arange(tv.size, dtype=float)
    return Channel(_channel(e, tv, col)), Pmf(support, t_new)


def _column_lattice(m: int, steps: int) -> np.ndarray:
    """All probability columns of length m with entries on a 1/steps lattice."""
    cols = []
    for combo in itertools.combinations_with_replacement(range(m), steps):
        counts = np.bincount(np.asarray(combo), minlength=m)
        cols.append(counts / steps)
    return np.array(cols)


def brute_force_tc_oracle(p_x, gamma, rate_budget: float, grid_step: float) -> float:
    """Exhaustive search over lattice channels for the best moment difference.

    Enumerates every column-stochastic matrix whose entries lie on a
    `grid_step` lattice, keeps those with I(X;Xhat) <= rate_budget, and
    returns the largest achieved E_prod - E_joint.  Cost grows combinatorially
    with the alphabet; intended for alphabets of at most 3 letters.
    """
    p = _probs(p_x)
    g = _table(gamma).gamma
    m, n = g.shape
    if n > 3 or m > 3:
        raise ValueError("exhaustive search supports alphabets of at most 3 letters")
    if not 0 < grid_step <= 0.01 + 1e-12:
        raise ValueError("grid_step must lie in (0, 0.01]")
    if rate_budget < 0:
        raise ValueError("rate budget must be non-negative")
    steps = int(round(1.0 / grid_step))
    cols = _column_lattice(m, steps)
    c = g @ p
    best = 0.0
    # channels are cartesian products of per-source-letter columns
    index_iter = itertools.product(range(cols.shape[0]), repeat=n)
    buf = []
    for idx in index_iter:
        buf.append(idx)
        if len(buf) >= 200_000:
            best = max(best, _best_in_chunk(np.array(buf), cols, p, g, c, rate_budget))
            buf = []
    if buf:
        best = max(best, _best_in_chunk(np.array(buf), cols, p, g, c, rate_budget))
    return best


def _best_in_chunk(idx, cols, p, g, c, budget) -> float:
    q = cols[idx].transpose(0, 2, 1)  # (B, m, n)
    t = q @ p  # (B, m)
    e_prod = t @ c
    e_joint = np.einsum("bji,ji,i->b", q, g, p)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = q * p[None, None, :]
        logq = np.log2(q, where=q > 0, out=np.zeros_like(q))
        logt = np.log2(t, where=t > 0, out=np.zeros_like(t))
        info = np.where(z > 0, z * (logq - logt[:, :, None]), 0.0).sum(axis=(1, 2))
    ok = info <= budget + 1e-12
    if not ok.any():
        return 0.0
    return float((e_prod - e_joint)[ok].max())


def binary_entropy(q: float) -> float:
    """Binary entropy in bits, with h(0) = h(1) = 0."""
    if not 0.0 <= q <= 1.0:
        raise DomainError("entropy argument must lie in [0, 1]")
    if q in (0.0, 1.0):
        return 0.0
    return -(q * math.log2(q) + (1.0 - q) * math.log2(1.0 - q))


def binary_hamming_tc_oracle(d_id: float) -> float:
    """Closed-form TC-triangle rate for Bern(1/2) with Hamming distance.

    1 - h2(1/2 - d_id): the symmetric-channel restriction of the type-covering
    bound, cross-checked against the exhaustive channel search in the tests.
    """
    if not 0.0 <= d_id <= 0.5:
        raise DomainError("binary-Hamming threshold must lie in [0, 1/2]")
    return 1.0 - binary_entropy(0.5 - d_id)


def whole_array_streams(model, block_len, n_train, n_generators, trials, seed):
    """(training blocks, k-means generators, x blocks, y blocks): the
    estimators' seed tree, with x and y each drawn in one array."""
    train_ss, x_ss, y_ss = np.random.SeedSequence(seed).spawn(3)
    x = sample_block(model, block_len, trials, x_ss)
    y = sample_block(model, block_len, trials, y_ss)
    blocks_ss, *gen_ss = train_ss.spawn(1 + n_generators)
    train = sample_block(model, block_len, n_train, blocks_ss)
    return train, [np.random.default_rng(child) for child in gen_ss], x, y


def _whole_array_tally(maybe, d_xy, d_id):
    false_neg = int(((d_xy <= d_id) & ~maybe).sum())
    est = float(maybe.mean())
    return est, math.sqrt(est * (1.0 - est) / maybe.size), false_neg


def whole_array_pr_maybe(model, rate_bits, block_len, d_id, trials, seed):
    """`estimate_pr_maybe` (valid arguments only) with every pair in memory."""
    d_ids = np.asarray(d_id, dtype=float)
    sub_len = simulator._sub_block_len(rate_bits, block_len)
    n_sub = block_len // sub_len
    count = simulator._codeword_count(rate_bits * sub_len)
    n_train_blocks = -(-max(10 * count, 4096) // n_sub)
    train_blocks, (km_rng,), x, y = whole_array_streams(
        model, block_len, n_train_blocks, 1, trials, seed)
    cb = simulator.train_codebook(train_blocks.reshape(-1, sub_len), rate_bits, sub_len, km_rng)
    stored, d_hat = simulator._encode(cb, x, y)
    d_xy = simulator._sq_dists(x, y) / x.shape[1]
    ests, stderrs, false_negs = zip(*(
        _whole_array_tally(simulator._maybe(d_hat, stored, d), d_xy, d) for d in d_ids.ravel()))
    if d_ids.ndim == 0:
        return ests[0], stderrs[0], false_negs[0]
    return list(ests), list(stderrs), sum(false_negs)


def whole_array_component_pr_maybe(model, per_component_rates, per_component_d_ids, d_id,
                                   trials, seed, decision_log):
    """`component_scheme_pr_maybe` (valid arguments only) with every pair in
    memory; appends each component's decisions to `decision_log`."""
    m_dim = model.dim
    d_ids = np.asarray(per_component_d_ids, dtype=float)
    counts = [simulator._codeword_count(r) for r in per_component_rates]
    train_blocks, km_rngs, x, y = whole_array_streams(
        model, m_dim, max(4096, 10 * max(counts)), m_dim, trials, seed)
    train_coeff = klt_forward(model.klt, train_blocks)
    books = [simulator.train_codebook(train_coeff[:, m][:, None], math.log2(counts[m]), 1,
                                      km_rngs[m]) for m in range(m_dim)]
    xc = klt_forward(model.klt, x)
    yc = klt_forward(model.klt, y)
    maybe = np.ones(trials, dtype=bool)
    for m in range(m_dim):
        stored, d_hat = simulator._encode(books[m], xc[:, m:m + 1], yc[:, m:m + 1])
        comp_maybe = simulator._maybe(d_hat, stored, d_ids.sum())
        decision_log.append(comp_maybe)
        maybe &= comp_maybe
    return _whole_array_tally(maybe, simulator._sq_dists(x, y) / x.shape[1], d_id)
