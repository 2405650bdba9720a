import logging
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import idq.tcdelta
from idq.cli import run
from idq.errors import DimensionMismatch, NumericalUnderflow
from idq.idrate import binary_entropy, binary_hamming_tc_oracle, id_rate_iid
from idq.linalg import toeplitz_covariance
from idq.sources import Pmf, bernoulli_pmf, discretize_gaussian, discretize_mv_gaussian
from idq.tcdelta import (
    DEFAULT_TOL,
    PRUNE_EPS,
    Channel,
    DistortionMatrix,
    TcSolution,
    ba_step,
    brute_force_tc_oracle,
    component_tc_curve,
    distortion_matrix,
    mutual_information,
    solution_point,
    solve_tc_point,
    sweep_points,
    tc_curve,
    tc_sweep,
    triangle_similarity,
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
    # 33-letter N(0, 1) grid over +-8 sigma at slope 0.2 from the uniform start:
    # the tail codewords' mass falls to PRUNE_EPS within about 120 iterations,
    # and rows are cut from the solve several times before it converges.
    pmf = discretize_gaussian(1.0, 8.0, 33)
    return pmf.probs, distortion_matrix(pmf.support, pmf.support), 0.2


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


@settings(max_examples=200, deadline=None)
@given(_kernel_cases())
def test_kernel_matches_dense_update(case):
    # Dense reference: Q = e t / col with col the column sums, then t <- Q p.
    p, gamma, s, exponent_shift, k = case
    sol = solve_tc_point(
        p, gamma, s, tol=0.0, max_iter=k, exponent_shift=exponent_shift
    )
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
    assert not sol.converged
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    msg = warnings[0].getMessage()
    assert "slope 1.38629" in msg and "2 iterations" in msg
    assert "|dI| = " in msg and "|dD| = " in msg


def test_converged_solve_does_not_warn(caplog):
    pmf, g = bern_setup()
    with caplog.at_level(logging.WARNING, logger="idq.tcdelta"):
        sol = solve_tc_point(pmf, g, math.log(4.0))
    assert sol.converged
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
    with pytest.raises(ValueError):
        tc_sweep(pmf, g, [-1.0, 0.5])


def test_tc_curve_single_zero_slope():
    pmf, g = bern_setup()
    curve = tc_curve(pmf, g, [0.0])
    assert len(curve.points) == 1
    assert curve.points[0].d_id == pytest.approx(0.0, abs=1e-12)
    assert curve.points[0].rate == pytest.approx(0.0, abs=1e-12)


def test_tc_curve_bernoulli_monotone():
    pmf, g = bern_setup()
    curve = tc_curve(pmf, g, np.geomspace(0.05, 6.0, 50))
    assert np.all(np.diff(curve.rates) >= -1e-9)
    assert curve.d_ids.max() <= 0.5 + 1e-9
    # solver fixed points sit on the closed-form curve
    for p in curve.points[::7]:
        assert p.rate == pytest.approx(binary_hamming_tc_oracle(p.d_id), abs=1e-6)


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
    a = tc_curve(pmf, g, s_grid, tol=1e-8)
    b = component_tc_curve([(pmf, g)], s_grid, tol=1e-8)
    assert np.allclose(a.d_ids, b.d_ids)
    assert np.allclose(a.rates, b.rates)


def test_component_curve_equal_variances_symmetric():
    pmf = discretize_gaussian(1.0, 6.0, 65)
    g = distortion_matrix(pmf.support, pmf.support)
    s_grid = np.geomspace(0.5, 20.0, 6)
    one = tc_curve(pmf, g, s_grid, tol=1e-8)
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
        lambda: tc_curve(*_two_components()[0], _FIVE_SLOPES).points,
        lambda: component_tc_curve(_two_components(), _FIVE_SLOPES).points,
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


def test_distortion_matrix_keeps_axes_of_product_grids():
    for cov, points in (([1.0, 0.7], 9), ([1.0, 0.5, 0.2], 5)):
        letters, _ = discretize_mv_gaussian(toeplitz_covariance(cov, len(cov)), 6.0, points)
        g = distortion_matrix(letters, letters)
        assert len(g.axes) == len(cov)
        assert np.array_equal(_product_letters(g.axes), letters)
        # one coordinate at a time gives the table the (m, n, d) sum gives
        ref = ((letters[:, None, :] - letters[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(g.gamma, ref)
        perm = np.random.default_rng(0).permutation(len(letters))
        assert distortion_matrix(letters[perm], letters[perm]).axes is None
        assert distortion_matrix(letters, letters[perm]).axes is None
        assert distortion_matrix(letters, 1.5 * letters).axes is None
        assert distortion_matrix(letters, letters, "hamming").axes is None
    pmf = discretize_gaussian(1.0, 6.0, 65)
    (axis,) = distortion_matrix(pmf.support, pmf.support).axes
    assert np.array_equal(axis, pmf.support)
    assert distortion_matrix(pmf.support[::-1], pmf.support[::-1]).axes is None


def _solve_or_error(*args, **kwargs):
    try:
        return solve_tc_point(*args, **kwargs)
    except NumericalUnderflow as exc:
        return type(exc)


def _assert_same_solve(a, b):
    if not isinstance(a, TcSolution) or not isinstance(b, TcSolution):
        assert a == b
        return
    assert (a.iterations, a.converged) == (b.iterations, b.converged)
    for name in ("rate", "d_s", "e_prod", "e_joint", "lagrangian_rise", "surrogate_rise"):
        assert abs(getattr(a, name) - getattr(b, name)) <= 1e-12, name
    assert np.max(np.abs(a.channel.q - b.channel.q)) <= 1e-12
    assert np.max(np.abs(a.code_marginal.probs - b.code_marginal.probs)) <= 1e-12


@st.composite
def _product_grid_cases(draw):
    axis = arrays(float, st.integers(2, 6), elements=st.floats(-3.0, 3.0), unique=True)
    axes = [np.sort(draw(axis)) for _ in range(draw(st.integers(1, 3)))]
    letters = _product_letters(axes)
    n = len(letters)
    p = draw(arrays(float, n, elements=st.floats(0.0, 1.0)))
    assume(p.sum() > 1e-3)
    t0 = None
    if draw(st.booleans()):  # warm start, some of it at or below PRUNE_EPS
        t0 = draw(arrays(float, n, elements=st.floats(1e-3, 1.0)))
        dead = draw(arrays(bool, n))
        assume(not dead.all())
        t0[dead] = draw(st.sampled_from([0.0, 1e-310, PRUNE_EPS]))
    s = draw(st.floats(0.0, 20.0))
    return letters, p / p.sum(), s, t0, draw(st.integers(1, 5))


@settings(max_examples=100, deadline=None)
@given(_product_grid_cases())
def test_factored_kernel_matches_dense(case):
    # the plain rate-distortion solve on a product grid's DistortionMatrix
    # (per-axis kernel) against the same Gamma passed as a raw array (dense)
    letters, p, s, t0, k = case
    g = distortion_matrix(letters, letters)
    assert g.axes is not None
    for tol, max_iter in ((0.0, k), (DEFAULT_TOL, 1000)):
        a = _solve_or_error(p, g, s, tol, max_iter, t0, exponent_shift=False)
        b = _solve_or_error(p, g.gamma, s, tol, max_iter, t0, exponent_shift=False)
        if tol == 0.0 and any(getattr(x, "converged", False) for x in (a, b)):
            # At tol=0 a solve stops early only where I and D_s stop moving to
            # the last bit, as with a point-mass p or one live codeword, where
            # both are 0 identically.  Rounding decides at which iteration
            # either kernel sees two equal values while E_prod and the marginal
            # still move, so only what the stop rule watches is compared.
            for name in ("rate", "d_s"):
                assert abs(getattr(a, name) - getattr(b, name)) <= 1e-12, name
        else:
            _assert_same_solve(a, b)


def test_factored_kernel_falls_back_when_a_column_underflows():
    # the only live codeword sits at squared distance 100 from letter 10:
    # exp(-20 * 100) underflows, while the dense kernel's column shift keeps
    # that column at 1
    g = distortion_matrix([0.0, 10.0], [0.0, 10.0])
    p, t0 = np.array([0.5, 0.5]), np.array([1.0, 0.0])
    sol = solve_tc_point(p, g, 20.0, t0=t0, exponent_shift=False)
    assert sol.channel.q.tolist() == [[1.0, 1.0], [0.0, 0.0]]
    _assert_same_solve(sol, solve_tc_point(p, g.gamma, 20.0, t0=t0, exponent_shift=False))


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
