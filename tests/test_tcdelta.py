import logging
import math
import os
import subprocess
import sys
import tracemalloc
import unittest.mock
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import idq.tcdelta
from idq.cli import run
from idq.errors import DimensionMismatch, NumericalUnderflow
from idq.idrate import curve_from_arrays, id_rate_iid
from idq.linalg import toeplitz_covariance
from idq.sources import Pmf, bernoulli_pmf, discretize_gaussian, discretize_mv_gaussian
from idq.tcdelta import (
    DEFAULT_TOL,
    MAX_ITER,
    ONE_CODEWORD,
    PRUNE_EPS,
    TOL,
    Channel,
    DistortionMatrix,
    TcSolution,
    component_tc_curve,
    distortion_matrix,
    solution_point,
    solve_tc_point,
    sweep_points,
    tc_sweep,
    triangle_similarity,
)
from oracles import (
    ba_step,
    binary_entropy,
    binary_hamming_tc_oracle,
    brute_force_tc_oracle,
    mutual_information,
)


def bern_setup():
    pmf = bernoulli_pmf(0.5)
    gamma = distortion_matrix(pmf.support, pmf.support, "hamming")
    return pmf, gamma


def test_distortion_matrix_examples():
    _, g = bern_setup()
    assert g.gamma.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    q = distortion_matrix([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0])
    assert np.array_equal(q.gamma, q.gamma.T)
    assert np.all(np.diag(q.gamma) == 0.0)
    assert q.gamma[0, 2] == 4.0
    assert distortion_matrix([2.0], [2.0]).gamma.tolist() == [[0.0]]
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            DistortionMatrix(np.array([[0.0, bad], [1.0, 0.0]]))


def test_channel_validation():
    with pytest.raises(ValueError):
        Channel(np.array([[0.6, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        Channel(np.array([[-0.1, 1.1], [1.1, -0.1]]))
    with pytest.raises(ValueError):
        Channel(np.array([[np.nan, 0.5], [np.nan, 0.5]]))


def test_ba_step_zero_slope_fixed_point():
    pmf, g = bern_setup()
    t = Pmf(pmf.support, np.array([0.3, 0.7]))
    ch, t2 = ba_step(pmf, t, g, 0.0)
    assert np.allclose(ch.q[:, 0], [0.3, 0.7])
    assert np.allclose(ch.q[:, 1], [0.3, 0.7])
    assert np.allclose(t2.probs, [0.3, 0.7])
    assert mutual_information(pmf, ch) == 0.0


def test_ba_step_large_slope_identity():
    pmf, g = bern_setup()
    t = Pmf(pmf.support, np.array([0.5, 0.5]))
    ch = None
    for _ in range(50):
        ch, t = ba_step(pmf, t, g, 50.0)
    assert np.allclose(ch.q, np.eye(2), atol=1e-10)
    assert mutual_information(pmf, ch) == pytest.approx(1.0, abs=1e-9)


def test_ba_step_columns_stochastic():
    rng = np.random.default_rng(3)
    x = np.sort(rng.standard_normal(17))
    p = rng.random(17)
    pmf = Pmf(x, p / p.sum())
    g = distortion_matrix(x, x)
    t = Pmf(x, np.full(17, 1.0 / 17))
    for s in (0.0, 0.5, 3.0):
        ch, t2 = ba_step(pmf, t, g, s)
        assert np.max(np.abs(ch.q.sum(axis=0) - 1.0)) <= 1e-12
        assert abs(t2.probs.sum() - 1.0) <= 1e-12


def test_mutual_information_cases():
    p = np.array([0.5, 0.5])
    assert mutual_information(p, np.array([[0.3, 0.3], [0.7, 0.7]])) == 0.0
    assert mutual_information(p, np.eye(2)) == 1.0
    bsc = np.array([[0.75, 0.25], [0.25, 0.75]])
    assert mutual_information(p, bsc) == pytest.approx(1.0 - binary_entropy(0.25), abs=1e-12)


def test_solve_zero_slope():
    pmf = discretize_gaussian(1.0, 6.0, 65)
    g = distortion_matrix(pmf.support, pmf.support)
    sol = solve_tc_point(pmf, g, 0.0)
    assert sol.rate == pytest.approx(0.0, abs=1e-12)
    assert sol.d_s == pytest.approx(0.0, abs=1e-12)
    assert sol.converged


def _invariant_cases():
    pmf, g = bern_setup()
    yield pmf.probs, g, 1.2
    pmf = discretize_gaussian(1.0, 6.0, 65)
    yield pmf.probs, distortion_matrix(pmf.support, pmf.support), 2.0
    letters, probs = discretize_mv_gaussian(toeplitz_covariance([1.0, 0.7], 2), 6.0, 9)
    yield probs, distortion_matrix(letters, letters), 1.0
    yield _compaction_case()


def _compaction_case():
    # 33-letter N(0, 1) grid over +-12 sigma at slope 0.53 from the uniform
    # start, just above the slope below which one codeword is optimal (there
    # no loop runs): the tail codewords' mass falls to PRUNE_EPS, and rows are
    # cut from the solve several times before it converges, with and without
    # the shift.
    pmf = discretize_gaussian(1.0, 12.0, 33)
    return pmf.probs, distortion_matrix(pmf.support, pmf.support), 0.53


def test_solution_invariants_recompute():
    # The scalar fields come from the solver loop; they must describe the
    # returned channel, also when the solve stops at max_iter.
    for p, g, s in _invariant_cases():
        for exponent_shift in (True, False):
            for max_iter in (5000, 3):
                sol = solve_tc_point(
                    p, g, s, max_iter=max_iter, exponent_shift=exponent_shift
                )
                if max_iter == 3 and p.size > 2:
                    assert not sol.converged and sol.iterations == 3
                q = sol.channel.q
                t = q @ p
                e_prod = float(t @ (g.gamma @ p))
                e_joint = float((q * p[None, :] * g.gamma).sum())
                assert np.max(np.abs(sol.code_marginal.probs - t)) <= 1e-12
                assert abs(sol.rate - mutual_information(p, sol.channel)) <= 1e-12
                assert abs(sol.e_prod - e_prod) <= 1e-12
                assert abs(sol.e_joint - e_joint) <= 1e-12
                assert abs(sol.d_s - (e_prod - e_joint)) <= 1e-12


@st.composite
def _kernel_cases(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 12))
    p = draw(arrays(float, n, elements=st.floats(0.0, 1.0)))
    assume(p.sum() > 1e-3)
    gamma = draw(arrays(float, (m, n), elements=st.floats(0.0, 10.0)))
    s = draw(st.floats(0.0, 20.0))
    return p / p.sum(), gamma, s, draw(st.booleans()), draw(st.integers(1, 5))


def _kkt_ratios(p, gamma, s, exponent_shift, k):
    """g_j = sum_i p_i E_ji / E_ki for the tilt E = exp(a), formed directly."""
    a = -s * (gamma - (np.outer(gamma @ p, p) if exponent_shift else 0.0))
    pos = p > 0
    with np.errstate(over="ignore"):
        return np.exp(a[:, pos] - a[k, pos]) @ p[pos]


def _assert_one_codeword(sol, p, gamma, s, exponent_shift):
    """sol is t = delta_k, settled before the loop, with k the argmin of
    Gamma p, and the KKT ratios of every other codeword are at most 1."""
    c = gamma @ p
    k = int(np.argmin(c))
    assert (sol.stop_reason, sol.converged, sol.iterations) == (ONE_CODEWORD, True, 0)
    assert sol.rate == 0.0 and sol.d_s == 0.0 and sol.e_prod == sol.e_joint
    # the folded kernel forms c on one codeword of each orbit
    assert abs(sol.e_prod - c[k]) <= 1e-12 * (1.0 + c[k])
    assert sol.lagrangian_rise == sol.surrogate_rise == 0.0
    one_hot = np.zeros(gamma.shape)
    one_hot[k] = 1.0
    assert np.array_equal(sol.channel.q, one_hot)
    assert np.array_equal(sol.code_marginal.probs, one_hot[:, 0])
    assert np.delete(_kkt_ratios(p, gamma, s, exponent_shift, k), k).max(initial=0.0) <= 1.0


@settings(max_examples=200, deadline=None)
@given(_kernel_cases())
def test_kernel_matches_dense_update(case):
    # Dense reference: Q = e t / col with col the column sums, then t <- Q p.
    p, gamma, s, exponent_shift, k = case
    sol = solve_tc_point(
        p, gamma, s, tol=0.0, max_iter=k, exponent_shift=exponent_shift
    )
    if sol.stop_reason == ONE_CODEWORD:  # no loop ran
        _assert_one_codeword(sol, p, gamma, s, exponent_shift)
        return
    shift = np.outer(gamma @ p, p) if exponent_shift else 0.0
    a = -s * (gamma - shift)
    e = np.exp(a - a.max(axis=0, keepdims=True))
    t = np.full(gamma.shape[0], 1.0 / gamma.shape[0])
    for _ in range(sol.iterations):
        qp = e * t[:, None]
        q = qp / qp.sum(axis=0)[None, :]
        t = q @ p
    assert np.max(np.abs(sol.channel.q - q)) <= 1e-12
    assert np.max(np.abs(sol.channel.q.sum(axis=0) - 1.0)) <= 1e-12
    assert sol.surrogate_rise <= 1e-9


def _dense_reference(p, gamma, s, exponent_shift, tol=DEFAULT_TOL, max_iter=5000):
    """The update on every codeword, its scalars computed from Q itself.

    Also returns the rows the solver's 1/8 rule cuts: at the top of an
    iteration, the live rows at or below PRUNE_EPS once they number 1/8 of
    the live rows.  This loop cuts nothing; it only marks them."""
    c = gamma @ p
    shift = np.outer(c, p) if exponent_shift else np.zeros_like(gamma)
    a = -s * (gamma - shift)
    e = np.exp(a - a.max(axis=0, keepdims=True))
    t = np.full(gamma.shape[0], 1.0 / gamma.shape[0])
    live = np.ones(t.size, dtype=bool)
    i_prev = d_prev = lagr_prev = surr_prev = math.inf
    lagr_rise = surr_rise = 0.0
    for iterations in range(1, max_iter + 1):
        dead = live & (t <= PRUNE_EPS)
        if 8 * dead.sum() >= live.sum():
            live &= ~dead
        qp = e * t[:, None]
        q = qp / qp.sum(axis=0)[None, :]
        t = q @ p
        joint = q * p[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            i_nats = float(np.where(joint > 0, joint * np.log(q / t[:, None]), 0.0).sum())
        e_joint = float((joint * gamma).sum())
        e_prod = float(t @ c)
        d_s = e_prod - e_joint
        lagr = i_nats - s * d_s
        surr = i_nats + s * (e_joint - float((joint * shift).sum()))
        if iterations > 1:
            lagr_rise = max(lagr_rise, lagr - lagr_prev)
            surr_rise = max(surr_rise, surr - surr_prev)
        i_bits = i_nats / math.log(2.0)
        converged = abs(i_bits - i_prev) <= tol and abs(d_s - d_prev) <= tol
        if converged:
            break
        i_prev, d_prev, lagr_prev, surr_prev = i_bits, d_s, lagr, surr
    fields = dict(rate=max(i_nats, 0.0) / math.log(2.0), d_s=d_s, e_prod=e_prod,
                  e_joint=e_joint, lagrangian_rise=lagr_rise, surrogate_rise=surr_rise)
    return iterations, converged, fields, q, t, ~live


@pytest.mark.parametrize("exponent_shift", [True, False])
def test_mid_solve_compaction_matches_dense_update(exponent_shift):
    p, g, s = _compaction_case()
    sol = solve_tc_point(p, g.gamma, s, exponent_shift=exponent_shift)
    iterations, converged, fields, q, t, cut = _dense_reference(p, g.gamma, s, exponent_shift)
    assert cut.sum() >= 33 // 8  # the 1/8 rule fires during the solve
    assert (sol.iterations, sol.converged) == (iterations, converged)
    for name, value in fields.items():
        assert abs(getattr(sol, name) - value) <= 1e-12, name
    assert np.all(sol.code_marginal.probs[cut] == 0.0)
    assert np.all(sol.channel.q[cut] == 0.0)
    assert np.max(np.abs(sol.code_marginal.probs - t)) <= 1e-12
    assert np.max(np.abs(sol.channel.q - q)) <= 1e-12


def test_binary_solver_matches_closed_form():
    pmf, g = bern_setup()
    for q in (0.05, 0.2, 0.4):
        s = math.log((1.0 - q) / q)
        sol = solve_tc_point(pmf, g, s)
        d = sol.d_s
        assert sol.rate == pytest.approx(binary_hamming_tc_oracle(d), abs=1e-9)
        assert d == pytest.approx(0.5 - q, abs=1e-9)
        assert sol.lagrangian_rise <= 1e-12
        assert sol.surrogate_rise <= 1e-12


def test_nonconverged_solve_logs_one_warning(caplog):
    _, g = bern_setup()
    with caplog.at_level(logging.WARNING, logger="idq.tcdelta"):
        sol = solve_tc_point(bernoulli_pmf(0.3), g, math.log(4.0), max_iter=2)
    assert not sol.converged and sol.stop_reason == MAX_ITER
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    msg = warnings[0].getMessage()
    assert "slope 1.38629" in msg and "2 iterations" in msg
    assert "|dI| = " in msg and "|dD| = " in msg


def test_converged_solve_does_not_warn(caplog):
    pmf, g = bern_setup()
    with caplog.at_level(logging.WARNING, logger="idq.tcdelta"):
        sol = solve_tc_point(pmf, g, math.log(4.0))
    assert sol.converged and sol.stop_reason == TOL
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


@pytest.mark.parametrize("exponent_shift", [True, False])
def test_update_descends_surrogate_not_literal_lagrangian(exponent_shift):
    # Gamma p varies over the codewords of a quadratic source, so the update's
    # objective J descends while the literal I - s*D_s rises from a cold start.
    pmf = discretize_gaussian(1.0, 6.0, 65)
    g = distortion_matrix(pmf.support, pmf.support)
    sol = solve_tc_point(pmf, g, 2.0, exponent_shift=exponent_shift)
    assert sol.converged
    assert sol.surrogate_rise <= 1e-9
    assert sol.lagrangian_rise > 0.1


def test_fixed_point_consistency():
    pmf, g = bern_setup()
    tol = 1e-9
    sol = solve_tc_point(pmf, g, 1.0, tol=tol)
    ch, t = ba_step(pmf, sol.code_marginal, g, 1.0)
    i2 = mutual_information(pmf, ch)
    e_prod = float(t.probs @ (g.gamma @ pmf.probs))
    e_joint = float((ch.q * pmf.probs[None, :] * g.gamma).sum())
    assert abs(i2 - sol.rate) <= 10 * tol
    assert abs((e_prod - e_joint) - sol.d_s) <= 10 * tol


def test_gaussian_point_above_iid_curve():
    pmf = discretize_gaussian(1.0, 8.0, 129)
    g = distortion_matrix(pmf.support, pmf.support)
    for s in (1.0, 3.0, 8.0):
        sol = solve_tc_point(pmf, g, s, tol=1e-8)
        d, r = solution_point(sol, "quadratic")
        assert r >= id_rate_iid(1.0, d) - 1e-9


def test_triangle_similarity_mappings():
    assert triangle_similarity(0.6, 0.1, "hamming") == pytest.approx(0.5)
    assert triangle_similarity(4.0, 1.0, "quadratic") == pytest.approx(1.0)
    assert triangle_similarity(1.0, 4.0, "quadratic") == 0.0


def test_tc_sweep_requires_sorted_nonnegative():
    pmf, g = bern_setup()
    with pytest.raises(ValueError):
        tc_sweep(pmf, g, [1.0, 0.5])
    # a NaN or infinite slope is bad input, not a numerical failure
    for bad in (-1.0, np.nan, np.inf):
        for solve in (lambda: tc_sweep(pmf, g, [bad, 0.5]),
                      lambda: sweep_points(pmf, g, [0.5, bad]),
                      lambda: solve_tc_point(pmf, g, bad),
                      lambda: ba_step(pmf, pmf, g, bad)):
            with pytest.raises(ValueError, match="slope must be finite and non-negative"):
                solve()


def test_tc_curve_single_zero_slope():
    pmf, g = bern_setup()
    curve = component_tc_curve([(pmf, g)], [0.0])
    assert len(curve.d_ids) == 1
    assert curve.d_ids[0] == pytest.approx(0.0, abs=1e-12)
    assert curve.rates[0] == pytest.approx(0.0, abs=1e-12)


def test_tc_curve_bernoulli_monotone():
    pmf, g = bern_setup()
    curve = component_tc_curve([(pmf, g)], np.geomspace(0.05, 6.0, 50))
    assert np.all(np.diff(curve.rates) >= -1e-9)
    assert curve.d_ids.max() <= 0.5 + 1e-9
    # solver fixed points sit on the closed-form curve
    for d_id, rate in zip(curve.d_ids[::7], curve.rates[::7]):
        assert rate == pytest.approx(binary_hamming_tc_oracle(d_id), abs=1e-6)


def test_warm_start_pruning_keeps_contract():
    pmf = discretize_gaussian(1.0, 6.0, 65)
    g = distortion_matrix(pmf.support, pmf.support)
    t0 = np.full(65, 1.0 / 63)
    t0[0] = t0[-1] = 0.0  # dead rows must stay dead and keep columns stochastic
    sol = solve_tc_point(pmf, g, 2.0, t0=t0 / t0.sum())
    assert sol.code_marginal.probs[0] == 0.0
    assert sol.code_marginal.probs[-1] == 0.0
    assert np.max(np.abs(sol.channel.q.sum(axis=0) - 1.0)) <= 1e-12


def test_brute_force_zero_budget():
    pmf, g = bern_setup()
    assert brute_force_tc_oracle(pmf, g, 0.0, 0.01) == pytest.approx(0.0, abs=1e-12)


def test_brute_force_full_budget():
    pmf, g = bern_setup()
    d = brute_force_tc_oracle(pmf, g, 1.0, 0.01)
    assert d == pytest.approx(0.5, abs=1e-12)


def test_brute_force_quarter_point():
    pmf, g = bern_setup()
    step = 0.01
    d = brute_force_tc_oracle(pmf, g, 1.0 - binary_entropy(0.25), step)
    assert abs(d - 0.25) <= 2 * step


def test_solver_matches_brute_force_at_budgets():
    # the iterative solver and the exhaustive search agree on achieved D_s
    pmf, g = bern_setup()
    step = 0.01
    sols = [solve_tc_point(pmf, g, s) for s in np.geomspace(0.05, 6.0, 60)]
    rates = np.array([s.rate for s in sols])
    dvals = np.array([s.d_s for s in sols])
    order = np.argsort(rates)
    for budget in (0.1, 0.25, 0.5, 0.75):
        d_solver = float(np.interp(budget, rates[order], dvals[order]))
        d_brute = brute_force_tc_oracle(pmf, g, budget, step)
        assert abs(d_solver - d_brute) <= max(1e-3, 3 * step)


def test_brute_force_validation():
    pmf, g = bern_setup()
    with pytest.raises(ValueError):
        brute_force_tc_oracle(pmf, g, 0.5, 0.1)  # step too coarse
    p4 = np.full(4, 0.25)
    g4 = distortion_matrix(np.arange(4.0), np.arange(4.0), "hamming")
    with pytest.raises(ValueError):
        brute_force_tc_oracle(p4, g4, 0.5, 0.01)


def test_component_curve_single_equals_tc_curve():
    pmf = discretize_gaussian(1.0, 6.0, 65)
    g = distortion_matrix(pmf.support, pmf.support)
    s_grid = np.geomspace(0.5, 20.0, 8)
    a = curve_from_arrays(*sweep_points(pmf, g, s_grid, tol=1e-8))
    b = component_tc_curve([(pmf, g)], s_grid, tol=1e-8)
    assert np.allclose(a.d_ids, b.d_ids)
    assert np.allclose(a.rates, b.rates)


def test_component_curve_equal_variances_symmetric():
    pmf = discretize_gaussian(1.0, 6.0, 65)
    g = distortion_matrix(pmf.support, pmf.support)
    s_grid = np.geomspace(0.5, 20.0, 6)
    one = component_tc_curve([(pmf, g)], s_grid, tol=1e-8)
    two = component_tc_curve([(pmf, g), (pmf, g)], s_grid, tol=1e-8)
    assert np.allclose(one.d_ids, two.d_ids)
    assert np.allclose(one.rates, two.rates)


def test_sweep_points_map_tc_sweep_solutions():
    pmf = discretize_gaussian(1.0, 6.0, 65)
    g = distortion_matrix(pmf.support, pmf.support)
    s_grid = np.geomspace(0.5, 20.0, 6)
    sols = tc_sweep(pmf, g, s_grid, max_iter=40)
    d, r, stopped = sweep_points(pmf, g, s_grid, max_iter=40)
    assert [sol.slope_s for sol in sols] == list(s_grid)
    assert [solution_point(sol, "quadratic") for sol in sols] == list(zip(d, r))
    assert stopped == sum(not sol.converged for sol in sols) > 0


def _two_components():
    pmf = discretize_gaussian(1.0, 6.0, 65)
    g = distortion_matrix(pmf.support, pmf.support)
    return [(pmf, g), (pmf, g)]


_FIVE_SLOPES = np.geomspace(0.5, 20.0, 5)


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: component_tc_curve(_two_components()[:1], _FIVE_SLOPES).d_ids.size,
        lambda: component_tc_curve(_two_components(), _FIVE_SLOPES).d_ids.size,
        lambda: run(
            ["compare", "--source", "mv-gaussian", "--grid-points", "65",
             "--joint-grid-points", "9", "--slopes", "5", "--tau-points", "20",
             "--out", "-"]
        ) == 0,
    ],
    ids=["tc_curve", "component_tc_curve", "compare-mv"],
)
def test_sweeps_keep_no_earlier_solution(monkeypatch, capsys, sweep):
    """A sweep maps each solution to its point and drops it: when a solve
    starts, no earlier solution is alive (only its code marginal, the warm
    start)."""
    solve, refs = idq.tcdelta.solve_tc_point, []

    def recording(*args, **kwargs):
        assert all(ref() is None for ref in refs)
        sol = solve(*args, **kwargs)
        refs.append(weakref.ref(sol))
        return sol

    monkeypatch.setattr(idq.tcdelta, "solve_tc_point", recording)
    assert sweep()
    assert len(refs) >= 5


def test_nan_source_is_rejected():
    _, g = bern_setup()
    with pytest.raises(ValueError):
        solve_tc_point(np.array([np.nan, 1.0]), g, 1.0)


def test_dimension_checks():
    pmf, g = bern_setup()
    with pytest.raises(DimensionMismatch):
        solve_tc_point(np.array([0.5, 0.25, 0.25]), g, 1.0)
    with pytest.raises(DimensionMismatch):
        ba_step(pmf, Pmf(np.arange(3.0), np.full(3, 1 / 3)), g, 1.0)


def test_ba_step_underflow_detection():
    from idq.errors import NumericalUnderflow

    # all marginal mass sits on a codeword whose exponent underflows to zero
    # in the first column, so that column cannot be normalized
    p = np.array([0.5, 0.5])
    gamma = np.array([[0.0, 1.0], [10_000.0, 9_801.0]])
    t = np.array([0.0, 1.0])
    with pytest.raises(NumericalUnderflow):
        ba_step(p, t, gamma, 1.0)
    # the second column's best codeword carries mass 1e-312 and the other sits
    # e^-720 below it, so the column normalizer is subnormal and p / col
    # overflows; the step must raise instead of returning inf or nan
    gamma = np.array([[0.0, 720.0], [720.0, 0.0]])
    t = np.array([1.0 - 1e-312, 1e-312])
    with pytest.raises(NumericalUnderflow):
        ba_step(p, t, gamma, 1.0)


def _product_letters(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def test_product_axes_of_letter_lists():
    # the per-axis grids `distortion_matrix` finds the coordinate reversal on
    product_axes = idq.tcdelta._product_axes
    for cov, points in (([1.0, 0.7], 9), ([1.0, 0.5, 0.2], 5)):
        letters, _ = discretize_mv_gaussian(toeplitz_covariance(cov, len(cov)), 6.0, points)
        g = distortion_matrix(letters, letters)
        axes = product_axes(letters)
        assert len(axes) == len(cov)
        assert np.array_equal(_product_letters(axes), letters)
        # one coordinate at a time gives the table the (m, n, d) sum gives
        ref = ((letters[:, None, :] - letters[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(g.gamma, ref)
        perm = np.random.default_rng(0).permutation(len(letters))
        assert product_axes(letters[perm]) is None
        # two letter lists give no symmetries, and a Hamming table the mirror only
        assert distortion_matrix(letters, letters[perm]).symmetries == ()
        assert distortion_matrix(letters, 1.5 * letters).symmetries == ()
        hamming = distortion_matrix(letters, letters, "hamming").symmetries
        assert list(map(_is_mirror, hamming)) == [True]
    pmf = discretize_gaussian(1.0, 6.0, 65)
    (axis,) = product_axes(pmf.support[:, None])
    assert np.array_equal(axis, pmf.support)
    assert product_axes(pmf.support[::-1, None]) is None


def _solve_or_error(*args, **kwargs):
    try:
        return solve_tc_point(*args, **kwargs)
    except NumericalUnderflow as exc:
        return type(exc)


def _assert_same_solve(a, b, same_stop=True):
    if not isinstance(a, TcSolution) or not isinstance(b, TcSolution):
        assert a == b
        return
    assert a.iterations == b.iterations
    assert (a.converged, a.stop_reason) == (b.converged, b.stop_reason) or not same_stop
    for name in ("rate", "d_s", "e_prod", "e_joint", "lagrangian_rise", "surrogate_rise"):
        assert abs(getattr(a, name) - getattr(b, name)) <= 1e-12, name
    assert np.max(np.abs(a.channel.q - b.channel.q)) <= 1e-12
    assert np.max(np.abs(a.code_marginal.probs - b.code_marginal.probs)) <= 1e-12


def test_exponent_table_has_exact_zeros_for_subnormal_entries():
    # at s=115 the 65-letter table's entries ten letters off the diagonal
    # would be sub-normal; they are written as 0, so none moves by more than
    # the smallest normal number
    pmf = discretize_gaussian(1.0, 8.0, 65)
    g = distortion_matrix(pmf.support, pmf.support).gamma
    p, tiny = pmf.probs, np.finfo(float).tiny
    for shift in (True, False):
        _, amax, e = idq.tcdelta._tilt(g, p, 115.0, shift)
        a = -115.0 * (g - np.outer(g @ p, p)) if shift else -115.0 * g
        exact = np.exp(a - amax)
        assert np.any((exact > 0) & (exact < tiny))
        assert not np.any((e > 0) & (e < tiny))
        assert np.max(np.abs(e - exact)) < tiny


def test_folded_rows_have_exact_zeros_for_subnormal_averages():
    # two row blocks, the identity's and the mirror's: orbit 0 pairs row 0
    # with its mirror row 2, orbit 1 is row 1, its own mirror: a pair summing
    # below twice the smallest normal number averages to 0, one summing to
    # exactly twice it averages to it
    tiny = np.finfo(float).tiny
    x = np.array([[tiny, 2.0 * tiny, 1.0], [1.5 * tiny, 0.0, 2.0],
                  [0.0, 0.0, 3.0], [1.5 * tiny, 0.0, 2.0]])
    out = idq.tcdelta._fold_rows(x, 2)
    assert out.tolist() == [[0.0, tiny, 2.0], [1.5 * tiny, 0.0, 2.0]]


def _is_mirror(q):
    return np.array_equal(q, np.arange(q.size)[::-1])


def test_distortion_matrix_records_mirror_symmetry():
    pmf = discretize_gaussian(1.0, 6.0, 65)
    letters, _ = discretize_mv_gaussian(toeplitz_covariance([1.0, 0.7], 2), 6.0, 9)
    for x in (pmf.support, letters, np.array([-2.0, -0.5, 0.5, 2.0])):
        for metric in ("quadratic", "hamming"):
            g = distortion_matrix(x, x, metric)
            assert sum(map(_is_mirror, g.symmetries)) == 1
            assert np.array_equal(g.gamma[::-1, ::-1], g.gamma)
    for x, xh in ((pmf.support, pmf.support[::-1]), (pmf.support + 0.5, pmf.support + 0.5),
                  (letters, letters[::-1])):
        assert not any(map(_is_mirror, distortion_matrix(x, xh).symmetries))
    assert bern_setup()[1].symmetries == ()  # {0, 1} is no mirror of itself


def test_distortion_matrix_records_axis_reversal():
    # on a product grid whose axes read the same backwards, reversing the
    # coordinate order maps the quadratic table onto itself bit for bit;
    # with the mirror and their product, that is the whole group.  A Hamming
    # table keeps no axes and records the mirror only.
    rng = np.random.default_rng(5)
    for axes in ([np.array([-1.5, 0.0, 1.5])] * 2, [np.array([-1.0, 0.0, 1.0])] * 3,
                 [np.array([-0.3, 0.2, 0.7]), np.array([-2.0, 1.0]), np.array([-0.3, 0.2, 0.7])],
                 [np.sort(rng.normal(size=4)) for _ in range(3)]):
        axes[-1] = axes[0]
        letters = _product_letters(axes)
        g = distortion_matrix(letters, letters)
        mirror = np.array_equal(letters[::-1], -letters)
        assert len(g.symmetries) == (3 if mirror else 1)
        hamming = distortion_matrix(letters, letters, "hamming").symmetries
        assert list(map(_is_mirror, hamming)) == ([True] if mirror else [])
        for q in g.symmetries:
            assert not np.array_equal(q, np.arange(q.size))
            assert np.array_equal(g.gamma[q][:, q], g.gamma)
            assert np.array_equal(np.sort(letters[q], axis=0), np.sort(letters, axis=0))
        reversal = [q for q in g.symmetries if np.array_equal(letters[q], letters[:, ::-1])]
        assert len(reversal) == 1
    letters = _product_letters([np.array([-1.0, 0.0, 1.0]), np.array([-2.0, 0.0, 2.0])])
    (q,) = distortion_matrix(letters, letters).symmetries
    assert _is_mirror(q)  # unequal axes: no reversal
    # one-point outer axes make the reversal the identity and the product
    # the mirror: the group is {identity, mirror}
    letters = _product_letters([np.zeros(1), np.array([-1.0, 0.0, 1.0]), np.zeros(1)])
    (q,) = distortion_matrix(letters, letters).symmetries
    assert _is_mirror(q)


def _mirror_letters(half, middle):
    """A letter list x with x[::-1] == -x: the points `half`, then 0 when
    `middle`, then -half in reverse order."""
    mid = [np.zeros((1, half.shape[1]))] if middle else []
    return np.concatenate([half] + mid + [-half[::-1]])


def _mirror_vector(half, middle_value=None):
    mid = [] if middle_value is None else [middle_value]
    return np.concatenate([half, mid, half[::-1]])


@st.composite
def _mirror_cases(draw):
    """A mirror-symmetric source: letters of 1-3 coordinates, odd or even
    count, either a product grid of symmetric axes or a free point list;
    exactly symmetric p and warm start, whose entries may be 0, sub-normal,
    at PRUNE_EPS, or just above it (rows the solve then cuts)."""
    dim = draw(st.integers(1, 3))
    middle = draw(st.booleans())
    if draw(st.booleans()):
        pos = arrays(float, st.integers(1, 3), elements=st.floats(0.1, 3.0), unique=True)
        axes = []
        for _ in range(dim):
            b = np.sort(draw(pos))
            axes.append(np.concatenate([-b[::-1], [0.0] if middle else [], b]))
        letters = _product_letters(axes)
    else:
        k = draw(st.integers(1, 7))
        half = draw(arrays(float, (k, dim), elements=st.floats(-3.0, 3.0)))
        letters = _mirror_letters(half, middle)
    n = len(letters)
    h, odd = n // 2, n % 2 == 1
    ph = draw(arrays(float, h, elements=st.floats(0.0, 1.0)))
    pm = draw(st.floats(0.0, 1.0)) if odd else None
    p = _mirror_vector(ph, pm)
    assume(p.sum() > 1e-3)
    t0 = None
    if draw(st.booleans()):
        th = draw(arrays(float, h, elements=st.floats(1e-3, 1.0)))
        small = draw(arrays(bool, h))
        th[small] = draw(st.sampled_from([0.0, 1e-310, PRUNE_EPS, 2 * PRUNE_EPS, 1e-290]))
        t0 = _mirror_vector(th, draw(st.floats(1e-3, 1.0)) if odd else None)
        assume((t0 > PRUNE_EPS).any())
        t0 = t0 / t0.sum()
    s = draw(st.floats(0.0, 20.0))
    return letters, p / p.sum(), s, t0, draw(st.booleans()), draw(st.integers(1, 40))


class _LastStep:
    """Records the dense loop's last (e, t, col), for the channel it
    describes, and the codewords of e's rows: those above PRUNE_EPS in the
    start t, less the rows the loop cuts at PRUNE_EPS."""

    def __init__(self, t):
        self.step, self.last = idq.tcdelta._step, None
        self.rows, self.t_new = np.flatnonzero(t > PRUNE_EPS), None

    def __call__(self, e, t, *args):
        if e.shape[0] < self.rows.size:  # rows cut before this step
            self.rows = self.rows[self.t_new > PRUNE_EPS]
        out = self.step(e, t, *args)
        self.last, self.t_new = (e, t, out[0]), out[2]
        return out

    def eager_channel(self):
        e, t, col = self.last
        return e * t[:, None] / col

    def completed_columns(self, gamma, s, letters):
        """t_j exp(-s Gamma_ji) normalized over the live codewords j, for
        each of the `letters` (as their channel columns: 0 off the rows)."""
        t = self.last[1]
        with np.errstate(divide="ignore"):
            b = np.log(t)[:, None] - s * gamma[np.ix_(self.rows, letters)]
        w = np.exp(b - b.max(axis=0))
        q = np.zeros((gamma.shape[0], letters.size))
        q[self.rows] = w / w.sum(axis=0)
        return q


def _nonzero_rows(q):
    return q[q.any(axis=1)]


def _assert_loop_channel(spy, dense, p, gamma, s):
    """The dense solve's channel, built on demand, is the loop's last
    e t / col ("eager") on the letters of positive mass, bit for bit; the
    solve leaves the letters of zero mass out, and their columns are
    t_j exp(-s Gamma_ji) normalized over the live codewords."""
    if not isinstance(dense, TcSolution) or dense.stop_reason == ONE_CODEWORD:
        return  # no loop ran
    q = dense.channel.q
    assert np.array_equal(_nonzero_rows(spy.eager_channel()), _nonzero_rows(q[:, p > 0]))
    zero = np.flatnonzero(p == 0)
    assert np.max(np.abs(q[:, zero] - spy.completed_columns(gamma, s, zero)),
                  initial=0.0) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(_mirror_cases())
def test_folded_kernel_matches_dense(case):
    # The same solve on the folded kernel (a DistortionMatrix with the mirror
    # among its symmetries) and on the dense one (the raw table), for a fixed
    # number of iterations.  The dense loop's own last
    # channel e t / col ("eager") checks the channel built on demand.
    letters, p, s, t0, exponent_shift, k = case
    g = distortion_matrix(letters, letters)
    assert any(map(_is_mirror, g.symmetries))
    t = np.full(len(p), 1.0 / len(p)) if t0 is None else t0
    assert idq.tcdelta._kernel(g, p, t)[0] == "folded"
    folded = _solve_or_error(p, g, s, 0.0, k, t0, exponent_shift)
    dense = _solve_or_error(p, g.gamma, s, 0.0, k, t0, exponent_shift)
    if isinstance(folded, TcSolution) and isinstance(dense, TcSolution) \
            and folded.iterations != dense.iterations:
        # At tol=0 a solve stops early only where I and D_s stand still to the
        # last bit while the marginal may still move, as with a point-mass p
        # or one live codeword, where both are 0 identically; rounding decides
        # in which iteration either kernel sees that.  Both are then compared
        # after the same number of iterations.
        k = min(folded.iterations, dense.iterations)
        folded = _solve_or_error(p, g, s, 0.0, k, t0, exponent_shift)
    spy = _LastStep(t)
    with unittest.mock.patch.object(idq.tcdelta, "_step", spy):
        dense = _solve_or_error(p, g.gamma, s, 0.0, k, t0, exponent_shift)
    _assert_same_solve(folded, dense, same_stop=False)
    _assert_loop_channel(spy, dense, p, g.gamma, s)
    if isinstance(dense, TcSolution):
        # the folded solve's channel and code marginal are mirror-symmetric
        assert np.array_equal(folded.channel.q[::-1, ::-1], folded.channel.q)
        assert np.array_equal(folded.code_marginal.probs[::-1], folded.code_marginal.probs)


def _group_average(v, perms):
    """v averaged over the group that the commuting involutions `perms`
    generate, one at a time, so that every one of them fixes it exactly."""
    for q in perms:
        v = (v + v[q]) / 2
    return v


@st.composite
def _group_cases(draw):
    """A product grid of 2-3 copies of one symmetric axis (an odd or even
    point count), whose table has the mirror, the coordinate reversal and their
    product as symmetries.  p is averaged over the mirror and, unless
    `mirror_only`, over the reversal too; the warm start over both."""
    pos = np.sort(draw(arrays(float, st.integers(1, 3), elements=st.floats(0.1, 3.0),
                              unique=True)))
    axis = np.concatenate([-pos[::-1], [0.0] if draw(st.booleans()) else [], pos])
    letters = _product_letters([axis] * draw(st.integers(2, 3)))
    n = len(letters)
    mirror = np.arange(n)[::-1]
    reversal = np.arange(n).reshape([axis.size] * letters.shape[1]).T.ravel()
    mirror_only = draw(st.booleans())
    p = draw(arrays(float, n, elements=st.floats(0.0, 1.0)))
    p = _group_average(p, [mirror] if mirror_only else [mirror, reversal])
    assume(p.sum() > 1e-3)
    assume(not mirror_only or not np.array_equal(p[reversal], p))
    t0 = None
    if draw(st.booleans()):
        t0 = draw(arrays(float, n, elements=st.floats(1e-3, 1.0)))
        small = draw(arrays(bool, n))
        t0[small] = draw(st.sampled_from([0.0, 1e-310, PRUNE_EPS, 1e-290]))
        t0 = _group_average(t0, [mirror, reversal])
        assume((t0 > PRUNE_EPS).any())
        t0 = t0 / t0.sum()
    s = draw(st.floats(0.0, 20.0))
    return (letters, p / p.sum(), s, t0, draw(st.booleans()), draw(st.integers(1, 40)),
            mirror_only)


@settings(max_examples=100, deadline=None)
@given(_group_cases())
def test_group_folded_kernel_matches_dense(case):
    # As above, on the orbits of the mirror, the coordinate reversal and
    # their product: 4-element orbits, 2-element ones where one map fixes
    # the letter (the diagonal and the antidiagonal at M = 2), and the
    # centre alone.  A p that only the mirror fixes
    # folds on the subgroup, into ceil(n/2) orbits.
    letters, p, s, t0, exponent_shift, k, mirror_only = case
    n = len(p)
    g = distortion_matrix(letters, letters)
    assert len(g.symmetries) == 3
    t = np.full(n, 1.0 / n) if t0 is None else t0
    kernel, group = idq.tcdelta._kernel(g, p, t)
    assert kernel == "folded" and len(group) == (2 if mirror_only else 4)
    _, orbit = idq.tcdelta._orbits(group)
    # Burnside: the orbit count is the mean number of fixed letters
    fixed = sum(int((perm == np.arange(n)).sum()) for perm in group)
    assert orbit.max() + 1 == fixed // len(group)
    if mirror_only:
        assert orbit.max() + 1 == (n + 1) // 2
    folded = _solve_or_error(p, g, s, 0.0, k, t0, exponent_shift)
    dense = _solve_or_error(p, g.gamma, s, 0.0, k, t0, exponent_shift)
    if isinstance(folded, TcSolution) and isinstance(dense, TcSolution) \
            and folded.iterations != dense.iterations:
        k = min(folded.iterations, dense.iterations)
        folded = _solve_or_error(p, g, s, 0.0, k, t0, exponent_shift)
    spy = _LastStep(t)
    with unittest.mock.patch.object(idq.tcdelta, "_step", spy):
        dense = _solve_or_error(p, g.gamma, s, 0.0, k, t0, exponent_shift)
    _assert_same_solve(folded, dense, same_stop=False)
    _assert_loop_channel(spy, dense, p, g.gamma, s)
    if isinstance(folded, TcSolution):
        q, code = folded.channel.q, folded.code_marginal.probs
        for perm in group:
            assert np.array_equal(q[perm][:, perm], q)
            assert np.array_equal(code[perm], code)


@pytest.mark.parametrize("exponent_shift", [True, False])
def test_rows_cut_during_a_folded_solve_give_the_dense_solve(caplog, exponent_shift):
    p, g, s = _compaction_case()
    sols = []
    for gamma, kernel in ((g, "folded"), (g.gamma, "dense")):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="idq.tcdelta"):
            sols.append(solve_tc_point(p, gamma, s, exponent_shift=exponent_shift))
        assert f"slope 0.53: {kernel} kernel" in caplog.text
        assert "at or below PRUNE_EPS" in caplog.text
    folded, dense = sols
    _assert_same_solve(folded, dense)
    cut = folded.code_marginal.probs == 0.0
    assert cut.sum() >= 33 // 8 and np.array_equal(cut, dense.code_marginal.probs == 0.0)
    assert np.all(folded.channel.q[cut] == 0.0)


def test_asymmetric_source_or_warm_start_runs_dense():
    pmf = discretize_gaussian(1.0, 6.0, 65)
    g = distortion_matrix(pmf.support, pmf.support)
    p = pmf.probs
    tilted = p * np.linspace(1.0, 1.5, p.size)
    t0 = np.full(p.size, 1.0 / p.size)
    t0[0] = 0.0
    assert idq.tcdelta._kernel(g, p, t0 / t0.sum())[0] == "dense"
    assert idq.tcdelta._kernel(g, tilted / tilted.sum(), t0[::-1])[0] == "dense"
    assert idq.tcdelta._kernel(g.gamma, p, p)[0] == "dense"
    assert idq.tcdelta._kernel(g, p, p)[0] == "folded"


def test_one_axis_plain_rate_distortion_solve_runs_folded(caplog):
    pmf = discretize_gaussian(1.0, 6.0, 65)
    g = distortion_matrix(pmf.support, pmf.support)
    assert list(map(_is_mirror, g.symmetries)) == [True]
    with caplog.at_level(logging.DEBUG, logger="idq.tcdelta"):
        sol = solve_tc_point(pmf.probs, g, 2.0, exponent_shift=False)
    assert "slope 2: folded kernel" in caplog.text
    _assert_same_solve(sol, solve_tc_point(pmf.probs, g.gamma, 2.0, exponent_shift=False))


def test_every_compare_mv_solve_is_folded(caplog):
    # a warm start that lost its exact symmetry would silently send the rest
    # of a sweep to the dense kernel; every solve logs the kernel it ran on
    args = ["compare", "--source", "mv-gaussian", "--grid-points", "65",
            "--joint-grid-points", "9", "--slopes", "5", "--tau-points", "20", "--out", "-"]
    with caplog.at_level(logging.DEBUG, logger="idq.tcdelta"):
        assert run(args) == 0
    lines = [r.getMessage() for r in caplog.records if " kernel, " in r.getMessage()]
    kernels = [line.split(": ")[1].split(" kernel")[0] for line in lines]
    # two component sweeps and two joint sweeps of 5 slopes each
    assert len(kernels) == 20
    assert set(kernels) == {"folded"}
    # the joint TC sweep runs first, then the joint plain rate-distortion
    # sweep, both on the orbits of the mirror, the axis swap and their
    # product: (81 + 1 + 9 + 9) / 4 = 25 of the 81 letters
    assert all(" x 25 columns, stopped on " in line for line in lines[:10])


def test_sweep_points_builds_no_channel(monkeypatch):
    # a solution's channel is an n x n array; a sweep never asks for one, on
    # either kernel
    def no_channel(*args, **kwargs):
        raise AssertionError("a sweep built a channel")

    monkeypatch.setattr(idq.tcdelta, "Channel", no_channel)
    monkeypatch.setattr(idq.tcdelta, "_build_channel", no_channel)
    letters, probs = discretize_mv_gaussian(toeplitz_covariance([1.0, 0.7], 2), 6.0, 33)
    g = distortion_matrix(letters, letters)
    s_grid = np.geomspace(0.5, 20.0, 3)
    for exponent_shift in (False, True):
        # numpy's one-time allocations then fall outside the traced sweeps
        sweep_points(probs, g, s_grid, max_iter=1, exponent_shift=exponent_shift)
    peaks = []
    for exponent_shift in (False, True):
        tracemalloc.start()
        try:
            d, r, _ = sweep_points(probs, g, s_grid, max_iter=30, exponent_shift=exponent_shift)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(r))
    plain_peak, tc_peak = peaks
    # both sweeps fold over the same four-element group, and neither holds
    # as much as one 1089 x 1089 array
    assert plain_peak <= tc_peak < g.gamma.nbytes


def _pair_order_table(letters):
    """The quadratic table of a letter list of 1-3 coordinates straight from
    the letters, coordinates 0 and d-1 added as one pair first."""
    sq = (letters[:, None, :] - letters[None, :, :]) ** 2
    if letters.shape[1] == 3:
        return (sq[..., 0] + sq[..., 2]) + sq[..., 1]
    return sq[..., 0] + sq[..., -1] if letters.shape[1] == 2 else sq[..., 0]


class _NoDenseBuild:
    """In place of `_ProductTable.gamma`: reading a product table's dense
    array raises."""

    def __get__(self, table, owner=None):
        if table is None:
            return self
        raise AssertionError("a dense table was built")


@st.composite
def _product_blocks(draw):
    """A product grid of 1-3 axes of 1-5 sorted points, and two index sets
    into its letters: an index array (repeats, any order), a mask or a slice."""
    axes = [np.sort(draw(arrays(float, st.integers(1, 5), elements=st.floats(-100.0, 100.0),
                                unique=True)))
            for _ in range(draw(st.integers(1, 3)))]
    letters = _product_letters(axes)
    n = len(letters)

    def index():
        kind = draw(st.sampled_from(["array", "mask", "slice"]))
        if kind == "array":
            return draw(arrays(np.intp, st.integers(0, 2 * n), elements=st.integers(0, n - 1)))
        if kind == "mask":
            return draw(arrays(bool, n))
        bound = st.none() | st.integers(-n, n)
        return slice(draw(bound), draw(bound), draw(st.sampled_from([None, 1, 2, -1, -3])))

    return letters, index(), index()


@settings(max_examples=150, deadline=None)
@given(_product_blocks())
def test_product_table_blocks_are_the_dense_blocks_bit_for_bit(case):
    # a product table computes each block from its letters; it is the block
    # of the dense table, with no dense array built, and so is its maximum
    letters, rows, cols = case
    n = len(letters)
    ref = _pair_order_table(letters)
    r, c = np.arange(n)[rows], np.arange(n)[cols]
    with unittest.mock.patch.object(idq.tcdelta._ProductTable, "gamma", _NoDenseBuild()):
        g = distortion_matrix(letters, letters)
        assert isinstance(g, idq.tcdelta._ProductTable)
        block = g.block(rows, cols)
        assert g.shape == (n, n)
        assert g.max_entry == ref.max()
        dense = DistortionMatrix(ref).block(rows, cols)
    assert block.shape == (r.size, c.size)
    assert block.tobytes() == ref[np.ix_(r, c)].tobytes() == dense.tobytes()
    assert g.gamma.tobytes() == ref.tobytes()


def test_sweeps_on_a_product_table_build_no_dense_table(monkeypatch):
    # M = 3: the folded kernel (p fixed by the table's symmetries) and the
    # dense one (a tilted p), with and without the shift, read the table
    # block by block only
    monkeypatch.setattr(idq.tcdelta._ProductTable, "gamma", _NoDenseBuild())
    letters, probs = discretize_mv_gaussian(toeplitz_covariance([1.0, 0.5, 0.2], 3), 6.0, 7)
    g = distortion_matrix(letters, letters)
    tilted = probs * np.linspace(1.0, 1.5, probs.size)
    for p, kernel in ((probs, "folded"), (tilted / tilted.sum(), "dense")):
        assert idq.tcdelta._kernel(g, p, np.full(p.size, 1.0 / p.size))[0] == kernel
        for exponent_shift in (True, False):
            d, r, _ = sweep_points(p, g, [0.3, 2.0, 8.0], max_iter=30,
                                   exponent_shift=exponent_shift)
            assert np.all(np.isfinite(d)) and np.all(np.isfinite(r))
    with pytest.raises(AssertionError, match="a dense table was built"):
        g.gamma


@st.composite
def _shared_table_cases(draw):
    """A mirror-symmetric letter list of `_mirror_cases` (a product grid,
    held as letters, or a free point list, held dense), masses p that the
    mirror fixes or a tilted copy that it does not, and 2-4 solves on it:
    slope, warm start, shift and iteration cap.  A warm start is None or has
    dead entries (0, sub-normal or at PRUNE_EPS), mirror-symmetric or not,
    so the solves run folded or dense and some share a set-up while others
    replace it."""
    letters, p, *_ = draw(_mirror_cases())
    n = len(p)
    if draw(st.booleans()):
        p = p * np.linspace(1.0, 2.0, n)
        p /= p.sum()

    def warm_start():
        if draw(st.booleans()):
            return None
        t0 = draw(arrays(float, n, elements=st.floats(1e-3, 1.0)))
        dead = draw(arrays(bool, n))
        if draw(st.booleans()):
            t0, dead = (t0 + t0[::-1]) / 2, dead | dead[::-1]
        t0 /= t0.sum()
        t0[dead] = draw(st.sampled_from([0.0, 1e-310, PRUNE_EPS]))
        assume((t0 > PRUNE_EPS).any())
        return t0

    solves = [(draw(st.floats(0.0, 20.0)), warm_start(), draw(st.booleans()),
               draw(st.integers(1, 30))) for _ in range(draw(st.integers(2, 4)))]
    return letters, p, solves


def _assert_identical_solve(a, b):
    """Every field of two solutions, the code marginal and the built
    channel, bit for bit; or the same error."""
    if not isinstance(a, TcSolution) or not isinstance(b, TcSolution):
        assert a == b
        return
    scalars = ("slope_s", "rate", "e_prod", "e_joint", "lagrangian_rise", "surrogate_rise")
    assert np.array([getattr(a, f) for f in scalars]).tobytes() == \
        np.array([getattr(b, f) for f in scalars]).tobytes()
    assert (a.iterations, a.stop_reason) == (b.iterations, b.stop_reason)
    for x, y in ((a.code_marginal.support, b.code_marginal.support),
                 (a.code_marginal.probs, b.code_marginal.probs), (a.channel.q, b.channel.q)):
        assert x.tobytes() == y.tobytes()


@settings(max_examples=100, deadline=None)
@given(_shared_table_cases())
def test_solves_sharing_a_table_equal_solves_on_fresh_tables(case):
    # a solve keeps its set-up for the next solve on the same table; one
    # table solved on in turn gives what a fresh table per solve gives
    letters, p, solves = case
    fresh = [_solve_or_error(p, distortion_matrix(letters, letters), s, 0.0, k, t0, shift)
             for s, t0, shift, k in solves]
    g = distortion_matrix(letters, letters)
    for (s, t0, shift, k), ref in zip(solves, fresh):
        _assert_identical_solve(_solve_or_error(p, g, s, 0.0, k, t0, shift), ref)


def _joint_table(points):
    letters, probs = discretize_mv_gaussian(toeplitz_covariance([1.0, 0.7], 2), 6.0, points)
    return probs, distortion_matrix(letters, letters)


def test_sweeps_of_one_table_build_its_set_up_once(monkeypatch):
    # the TC and the plain rate-distortion sweep of one product table share
    # one set-up: Gamma p on the 81 codeword orbits of the 289 letters, and
    # the 324 x 81 block of the orbit images on the letter orbits
    probs, g = _joint_table(17)
    shapes = []
    block = g.block

    def spy(rows, cols):
        out = block(rows, cols)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(g, "block", spy)
    for exponent_shift in (True, False):
        sweep_points(probs, g, [0.5, 2.0, 8.0], exponent_shift=exponent_shift)
    assert shapes.count((81, 289)) == 1 and shapes.count((324, 81)) == 1


def test_joint_sweep_that_prunes_rows_peaks_within_three_blocks(caplog):
    # an 8-slope ladder whose warm starts prune rows: the set-up's block is
    # kept for the whole sweep, and a solve with dead rows tilts their live
    # rows one image block at a time, holding no second copy of the block.
    # The plain rate-distortion sweep after it reuses the set-up.
    probs, g = _joint_table(17)
    s_grid = np.geomspace(0.35, 130.0, 8)
    # numpy's one-time allocations fall outside the traced sweeps, and so
    # does no set-up: this one is dropped when g builds its own
    sweep_points(probs, _joint_table(17)[1], s_grid[-1:], max_iter=1)
    block_bytes = 324 * 81 * 8
    peaks = []
    with caplog.at_level(logging.DEBUG, logger="idq.tcdelta"):
        for exponent_shift in (True, False):
            tracemalloc.start()
            try:
                sweep_points(probs, g, s_grid, max_iter=300, exponent_shift=exponent_shift)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert "dead codewords before slope" in caplog.text
    tc_peak, plain_peak = peaks
    assert tc_peak <= 3 * block_bytes
    assert plain_peak <= 2 * block_bytes


def test_product_table_with_a_non_finite_entry_is_rejected():
    # each coordinate's squares of the first grid are finite and their sum is
    # not; an infinite letter makes an entry inf or NaN
    big = np.array([-6e153, 6e153])
    for letters in (_product_letters([big, big]), np.array([-1e200, 1e200]),
                    _product_letters([np.array([-1.0, np.inf])] * 2),
                    _product_letters([np.array([np.inf]), np.array([0.0, 1.0])])):
        with pytest.raises(ValueError, match="distortions must be finite and non-negative"):
            distortion_matrix(letters, letters)


@pytest.mark.parametrize("exponent_shift", [True, False])
def test_solves_never_write_their_input_tables(exponent_shift):
    # the dense kernel with every row live tilts a view of a dense table and
    # must write e * Gamma elsewhere; the folded kernel, and the dense one on
    # a product table, tilt blocks of their own.  A read-only array raises on
    # any write.
    letters, probs = discretize_mv_gaussian(toeplitz_covariance([1.0, 0.7], 2), 6.0, 9)
    product = distortion_matrix(letters, letters)
    before = product.block(slice(None), slice(None))
    raw = before.copy()
    raw.flags.writeable = False
    tilted = probs * np.linspace(1.0, 1.5, probs.size)
    tilted /= tilted.sum()
    uniform = np.full(probs.size, 1.0 / probs.size)
    for gamma, p, kernel in ((raw, probs, "dense"), (DistortionMatrix(raw), probs, "dense"),
                             (product, probs, "folded"), (product, tilted, "dense")):
        assert idq.tcdelta._kernel(gamma, p, uniform)[0] == kernel
        sol = solve_tc_point(p, gamma, 2.0, max_iter=20, exponent_shift=exponent_shift)
        assert sol.stop_reason != ONE_CODEWORD  # the loop ran
        assert np.all(np.isfinite(sol.channel.q))
        sweep_points(p, gamma, [0.3, 2.0, 8.0], max_iter=20, exponent_shift=exponent_shift)
    assert np.array_equal(raw, before)
    assert np.array_equal(product.block(slice(None), slice(None)), before)
    assert np.array_equal(product.gamma, before)


def test_building_a_quadratic_table_imports_no_numpy_ma():
    # np.unique imports numpy.ma on its first call (about 10 ms); the
    # product-grid test sorts and drops repeats instead
    code = ("import sys\n"
            "from idq.tcdelta import distortion_matrix\n"
            "x = [[a, b] for a in (-1.0, 0.0, 1.0) for b in (-2.0, 2.0)]\n"
            "assert distortion_matrix(x, x).max_entry == 20.0\n"
            "sys.exit('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(idq.tcdelta.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _unit_gaussian_table():
    pmf = discretize_gaussian(1.0, 6.0, 65)
    return pmf, distortion_matrix(pmf.support, pmf.support)


@pytest.mark.parametrize("exponent_shift", [True, False])
def test_solve_below_the_critical_slope_is_one_codeword(caplog, exponent_shift):
    # below about 1/(2v) the single codeword at the centre is the exact
    # optimum: the solve says so before its loop, on either kernel
    pmf, g = _unit_gaussian_table()
    for gamma in (g, g.gamma):
        with caplog.at_level(logging.DEBUG, logger="idq.tcdelta"):
            sol = solve_tc_point(pmf, gamma, 0.3, exponent_shift=exponent_shift)
        _assert_one_codeword(sol, pmf.probs, g.gamma, 0.3, exponent_shift)
        assert sol.code_marginal.probs[32] == 1.0  # the letter 0
        assert solution_point(sol, "quadratic") == (0.0, 0.0)
        assert "stopped on one-codeword after 0 iterations" in caplog.text
        caplog.clear()


def _critical_slope(p, g, exponent_shift):
    """The slope where the one-codeword test stops holding, within 1e-9
    relative, by bisection on one-iteration solves."""
    lo, hi = 0.1, 1.0
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        sol = solve_tc_point(p, g, mid, max_iter=1, exponent_shift=exponent_shift)
        lo, hi = (mid, hi) if sol.stop_reason == ONE_CODEWORD else (lo, mid)
    return lo, hi


@pytest.mark.parametrize("exponent_shift", [True, False])
def test_solve_just_above_the_critical_slope_runs_the_loop_unchanged(exponent_shift):
    pmf, g = _unit_gaussian_table()
    lo, hi = _critical_slope(pmf.probs, g, exponent_shift)
    # the grid moves the continuum value 1/(2v) = 0.5 a little
    assert 0.45 < lo < hi < 0.55
    below = solve_tc_point(pmf, g, lo, max_iter=200, exponent_shift=exponent_shift)
    assert below.stop_reason == ONE_CODEWORD
    sol = solve_tc_point(pmf, g, hi, max_iter=200, exponent_shift=exponent_shift)
    with unittest.mock.patch.object(idq.tcdelta, "_one_codeword", lambda *args: False):
        loop = solve_tc_point(pmf, g, hi, max_iter=200, exponent_shift=exponent_shift)
    assert sol.stop_reason == loop.stop_reason == MAX_ITER
    for name in ("rate", "d_s", "e_prod", "e_joint", "iterations", "lagrangian_rise",
                 "surrogate_rise"):
        assert getattr(sol, name) == getattr(loop, name), name
    assert sol.rate > 0.0
    assert np.array_equal(sol.code_marginal.probs, loop.code_marginal.probs)
    assert np.array_equal(sol.channel.q, loop.channel.q)


@pytest.mark.parametrize("exponent_shift", [True, False])
def test_sweep_below_a_one_codeword_slope_stays_one_codeword(exponent_shift):
    # the sweep runs down from the largest slope; the first one-codeword
    # solve leaves every other codeword dead in the warm start, and each
    # lower slope is then proved one-codeword again over the whole table
    # (the pruned rows in the log domain), as from a cold start
    pmf, g = _unit_gaussian_table()
    s_grid = np.geomspace(0.1, 3.0, 12)
    sols = list(idq.tcdelta._sweep(pmf, g, s_grid, DEFAULT_TOL, 5000, exponent_shift))[::-1]
    one = [sol.stop_reason == ONE_CODEWORD for sol in sols]
    assert 0 < sum(one) < len(one)
    assert one == sorted(one, reverse=True)  # a prefix of the ascending slopes
    for sol in sols[:sum(one)]:
        cold = solve_tc_point(pmf, g, sol.slope_s, exponent_shift=exponent_shift)
        assert cold.stop_reason == ONE_CODEWORD
        assert np.array_equal(cold.code_marginal.probs, sol.code_marginal.probs)
    d, r, stopped = sweep_points(pmf, g, s_grid, exponent_shift=exponent_shift)
    assert np.all(d[:sum(one)] == 0.0) and np.all(r[:sum(one)] == 0.0)
    assert stopped == sum(sol.stop_reason == MAX_ITER for sol in sols)


def test_underflowed_centre_tilt_proves_nothing():
    # at the letter 30, of mass 1e-300, the centre's tilt exp(-900) is 0 in
    # floating point; the exact ratio g_j there is about 1e-300 e^900, far
    # above 1, so the loop must run
    p = np.array([1e-300, 1.0 - 2e-300, 1e-300])
    g = distortion_matrix([-30.0, 0.0, 30.0], [-30.0, 0.0, 30.0])
    for gamma in (g, g.gamma):
        sol = solve_tc_point(p, gamma, 1.0)
        assert sol.stop_reason != ONE_CODEWORD and sol.iterations > 0


def _objective(p, gamma, s, q, exponent_shift):
    """J = I + s (E_joint - sum_ij p_i Q(j|i) c_j p_i) of the channel q (nats)."""
    t = q @ p
    joint = q * p
    with np.errstate(divide="ignore", invalid="ignore"):
        info = float(np.where(joint > 0, joint * np.log(q / t[:, None]), 0.0).sum())
    shift = float((joint * np.outer(gamma @ p, p)).sum()) if exponent_shift else 0.0
    return info + s * (float((joint * gamma).sum()) - shift)


@st.composite
def _symmetric_grid_cases(draw):
    """A mirror-symmetric letter list with the origin among its letters,
    symmetric p and warm start (some rows dead), and a slope around the
    continuum's one-codeword threshold 1/(2 E|X|^2)."""
    dim = draw(st.integers(1, 2))
    half = draw(arrays(float, (draw(st.integers(1, 6)), dim), elements=st.floats(-3.0, 3.0)))
    letters = _mirror_letters(half, True)
    h = len(half)
    p = _mirror_vector(draw(arrays(float, h, elements=st.floats(0.0, 1.0))),
                       draw(st.floats(0.0, 1.0)))
    assume(p.sum() > 1e-3)
    p = p / p.sum()
    spread = float(p @ (letters ** 2).sum(axis=1))
    assume(spread > 1e-3)
    t0 = None
    if draw(st.booleans()):
        th = draw(arrays(float, h, elements=st.floats(1e-3, 1.0)))
        th[draw(arrays(bool, h))] = 0.0
        t0 = _mirror_vector(th, draw(st.floats(1e-3, 1.0)))
        t0 = t0 / t0.sum()
    s = draw(st.floats(0.05, 2.0)) / (2.0 * spread)
    return letters, p, s, t0, draw(st.booleans())


# letters of zero mass, whose column maxima the first solve used to cut
# mid-solve, until a column normalized to zero
_ZERO_MASS_LETTERS = np.array([[3.0], [0.0625], [0.0], [0.0], [-0.0], [-0.0625], [-3.0]])
_ZERO_MASS_P = np.array([0.0, 0.5, 0.0, 0.0, 0.0, 0.5, 0.0])


@settings(max_examples=60, deadline=None)
@given(_symmetric_grid_cases())
@example((_ZERO_MASS_LETTERS, _ZERO_MASS_P, 128.0, None, True))
@example((_ZERO_MASS_LETTERS, _ZERO_MASS_P, 128.0, None, False))
def test_one_codeword_solves_are_not_beaten_by_long_runs(case):
    # when the test before the loop proves one codeword optimal, also with
    # rows pruned by the warm start, no long run of the update from the
    # uniform start over every codeword reaches a lower J
    letters, p, s, t0, exponent_shift = case
    g = distortion_matrix(letters, letters)
    sol = solve_tc_point(p, g, s, t0=t0, exponent_shift=exponent_shift)
    if sol.stop_reason != ONE_CODEWORD:
        return
    _assert_one_codeword(sol, p, g.gamma, s, exponent_shift)
    j_one = _objective(p, g.gamma, s, sol.channel.q, exponent_shift)
    with unittest.mock.patch.object(idq.tcdelta, "_one_codeword", lambda *args: False):
        long_run = solve_tc_point(p, g, s, tol=1e-13, max_iter=3000,
                                  exponent_shift=exponent_shift)
    j_long = _objective(p, g.gamma, s, long_run.channel.q, exponent_shift)
    assert j_long >= j_one - 1e-12 * (1.0 + abs(j_one))
