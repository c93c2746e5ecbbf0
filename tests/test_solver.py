"""Newton solver for the real moment-map equation.

Frozen oracles: on a one-vertex quiver the hermitian gauge is a single real
scalar x and the equation reduces to e^{2x}|i|^2 - e^{-2x}|j|^2 = 2 sigma,
solvable by hand or bisection without any of the package machinery.
"""

import math
import os

import numpy as np
import pytest

import quiverlim as ql
from quiverlim.repspace import block_mask, layout
from quiverlim.solver import _polar_point, _polar_spectrum, _spectral_pair

from conftest import (COMMITTED_QUIVERS, fingerprint_distance, history_rows,
                      linearized_operator, newton_derivative, quiver_spec,
                      random_lie)

# bisection of e^{2x}*1.79 - e^{-2x}*1.01 - 1.2 on [-10, 10], frozen
BISECT_X = 0.07324080802172214


def one_vertex(i_entries, j_entries, w=2):
    q = ql.Quiver(1, ())
    d = ql.DimensionVectors(v=(1,), w=(w,))
    p = ql.RepPoint.zeros(q, d)
    p.i[0] = np.array([i_entries], dtype=complex)
    p.j[0] = np.array([j_entries], dtype=complex).reshape(w, 1)
    return p


def test_closed_form_gauge():
    # i=(2,0), j=0, sigma=1: e^{2x} 4 = 2, so x = -(ln 2)/2 and |i| ends at sqrt 2
    p = one_vertex([2.0, 0.0], [0.0, 0.0])
    rep = ql.solve_real_moment(p, (1.0,))
    assert rep.residual <= 1e-10
    x = rep.xi.blocks[0][0, 0]
    assert abs(x - (-math.log(2.0) / 2.0)) < 1e-10
    assert abs(np.linalg.norm(rep.point.i[0]) - math.sqrt(2.0)) < 1e-10


def test_bisection_oracle():
    p = one_vertex([1.1, -0.3 + 0.7j], [0.25 - 0.45j, 0.85 + 0.15j])
    rep = ql.solve_real_moment(p, (0.6,))
    x = rep.xi.blocks[0][0, 0]
    assert abs(x.imag) < 1e-12
    assert abs(x.real - BISECT_X) < 1e-10
    # the complex moment value is untouched by the scalar gauge
    want = complex(np.array([1.1, -0.3 + 0.7j])
                   @ np.array([0.25 - 0.45j, 0.85 + 0.15j]))
    got = ql.moment_complex(rep.point).blocks[0][0, 0]
    assert abs(got - want) < 1e-12


def test_solution_lands_on_level(a3star, a3star_sample):
    p = a3star_sample.point
    sigma = a3star.central.sigma_array()
    res = ql.hermitian_residual(p, sigma)
    assert res.norm() <= 1e-10


def test_xi_is_hermitian(a3star, a3star_sample):
    rep = a3star_sample.solve
    for blk in rep.xi.blocks:
        assert np.linalg.norm(blk - blk.conj().T) < 1e-12 * max(1.0, np.linalg.norm(blk))


def test_point_matches_exp_xi(tstar):
    p = one_vertex([2.0, 0.0], [0.0, 0.0])
    rep = ql.solve_real_moment(p, (1.0,))
    moved = ql.gauge_act(ql.lie_exp(rep.xi), p)
    assert (moved - rep.point).norm() < 1e-12


def test_complex_moment_preserved(a3star):
    # the flow may wander but the central complex level must only drift at roundoff
    p = ql.random_rep(a3star.quiver, a3star.dims, ql.make_rng(21), scale=0.8)
    c = a3star.central.c_array()
    p = ql.project_complex_level(p, c)
    before = ql.moment_complex(p)
    rep = ql.solve_real_moment(p, a3star.central.sigma_array())
    after = ql.moment_complex(rep.point)
    assert (after - before).norm() < 1e-10 * max(1.0, before.norm())


def test_rejects_noncentral_start(a3star):
    p = ql.random_rep(a3star.quiver, a3star.dims, ql.make_rng(22))
    # generic random points have non-central mu_C on a 2-dim vertex
    dev = ql.central_deviation(ql.moment_complex(p))
    assert dev > 1e-6
    with pytest.raises(ql.NotOnVariety):
        ql.solve_real_moment(p, a3star.central.sigma_array())


def test_history_decreases(tstar):
    p = one_vertex([1.1, -0.3 + 0.7j], [0.25 - 0.45j, 0.85 + 0.15j])
    rep = ql.solve_real_moment(p, (0.6,))
    hist = [row["residual"] for row in history_rows(rep)]
    assert hist[-1] <= 1e-10
    assert hist[-1] < hist[0]
    # quadratic tail: each late step roughly squares the residual
    assert hist[-1] < hist[-2] ** 1.5


def test_forced_damping_agrees(tstar, tstar_sample):
    # two different damping schedules must meet at the same positive gauge
    p = ql.cstar_act(0.7, tstar_sample.point)
    sigma = tstar.central.sigma_array()
    a = ql.solve_real_moment(p, sigma)
    b = ql.solve_real_moment(p, sigma, forced_damping=(0.5, 0.5))
    ga = ql.lie_exp(a.xi)
    gb = ql.lie_exp(b.xi)
    diff = max(np.linalg.norm(x - y) for x, y in zip(ga.g, gb.g))
    assert diff < 1e-8


def test_max_iterations_raises():
    # far start with a tiny iteration budget
    p = one_vertex([0.1, 0.0], [0.0, 0.0])
    with pytest.raises((ql.MaxIterations, ql.NoConvergence)):
        ql.solve_real_moment(p, (1.0,), max_iter=2)


def test_linearized_operator_energy_identity(a3star):
    rng = ql.make_rng(23)
    p = ql.random_rep(a3star.quiver, a3star.dims, rng)
    xi = random_lie(a3star.dims, rng, klass="hermitian")
    lhs = ql.lie_inner(linearized_operator(p, xi), xi)
    rhs = ql.metric(ql.inf_action(p, xi), ql.inf_action(p, xi))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_newton_derivative_matches_finite_difference(a3star):
    rng = ql.make_rng(24)
    p = ql.random_rep(a3star.quiver, a3star.dims, rng)
    xi = random_lie(a3star.dims, rng, klass="hermitian", scale=1.0)
    sigma = a3star.central.sigma_array()
    t = 1e-6

    def res_at(s):
        return ql.hermitian_residual(ql.gauge_act(ql.lie_exp(s * xi), p), sigma)

    fd = (1.0 / (2 * t)) * (res_at(t) - res_at(-t))
    an = newton_derivative(p, xi)
    assert (fd - an).norm() < 1e-5 * max(1.0, an.norm())


def test_hermitian_log_inverts_exp(a3star):
    rng = ql.make_rng(25)
    xi = random_lie(a3star.dims, rng, klass="hermitian", scale=0.7)
    back = ql.hermitian_log(ql.lie_exp(xi))
    assert (back - xi).norm() < 1e-10 * max(1.0, xi.norm())


def _assert_blocks_match(got, want):
    # got is one block-diagonal V x V matrix, want the blocks it must hold
    dims = ql.DimensionVectors(v=[b.shape[0] for b in want], w=[0] * len(want))
    for x, y in zip(ql.LieElement.from_matrix(dims, got).blocks, want):
        assert np.linalg.norm(x - y) <= 1e-12 * max(1.0, np.linalg.norm(y))


def test_spectral_exponentials_match_lie_exp(a3star):
    # one eigh of the block-diagonal step gives exp(+-t step) for every halving t
    delta = random_lie(a3star.dims, ql.make_rng(26), klass="hermitian")
    lam, v = np.linalg.eigh(delta.matrix())
    for t in (1.0, 0.5, 2.0 ** -10):
        fwd, back = _spectral_pair(block_mask(a3star.dims), np.exp(t * lam), v)
        want = ql.lie_exp(t * delta)
        _assert_blocks_match(fwd, want.g)
        _assert_blocks_match(back, want.inverse().g)


def test_polar_factors_match_hermitian_log(a3star):
    # the eigh of g^dag g that gives xi also gives exp(xi) and exp(-xi)
    g = ql.lie_exp(random_lie(a3star.dims, ql.make_rng(27), scale=0.7))
    lam, v = _polar_spectrum(g.matrix())
    xi = ql.hermitian_log(g)
    _assert_blocks_match((v * (0.5 * np.log(lam))) @ v.conj().T, xi.blocks)
    fwd, back = _spectral_pair(block_mask(a3star.dims), np.sqrt(lam), v)
    want = ql.lie_exp(xi)
    _assert_blocks_match(fwd, want.g)
    _assert_blocks_match(back, want.inverse().g)


def test_overflowing_polar_rebuild_raises():
    # a singular polar factor scales j by 1/sqrt(tiny) ~ 7e153, so |p|^2 and
    # the residual overflow and the level bound SLACK tol max(1, |p|^2) is
    # infinite: the rebuild must refuse the point, not pass it vacuously
    p = one_vertex([2.0, 0.0], [3.0, 0.0])
    level = layout(p.quiver, p.dims).herm_coords(ql.central_lie((2.0,), p.dims))
    g = ql.GaugeElement(p.dims, [np.zeros((1, 1))])
    with pytest.raises(ql.NotOnVariety, match="misses its level"):
        _polar_point(p, g.matrix(), level, 1e-10)


def test_graded_solve_matches_plain_solve_orbit(a3star):
    # same orbit point as the one-shot solve: compare gauge-invariant data
    p0 = a3star.p0
    grading = a3star.grading
    A = a3star.slice_point(seed=31)
    R = 0.2
    start = p0 + grading.act(R, A)
    sigma = a3star.central.sigma_array()
    plain = ql.solve_real_moment(start, sigma)
    graded = ql.graded_solve(start, grading, R, sigma)
    assert graded.residual <= 1e-9
    d = fingerprint_distance(plain.point, graded.point, 4)
    assert d < 1e-8


def test_graded_solve_stage_scales_shrink(a3star):
    p0 = a3star.p0
    grading = a3star.grading
    A = a3star.slice_point(seed=32)
    R = 0.1
    start = p0 + grading.act(R, A)
    rep = ql.graded_solve(start, grading, R, a3star.central.sigma_array())
    stages = {}
    for j, xi_stage in rep.stages:
        stages[j] = max(stages.get(j, 0.0), xi_stage.norm())
    # later stages carry strictly smaller corrections at small R
    keys = sorted(stages)
    assert keys[0] == 0
    if len(keys) > 1:
        assert stages[keys[-1]] < stages[keys[0]]


def _flow_step_start(spec, seed):
    """(p, sigma): a sample rescaled by one flow step, as flow_limit solves it."""
    quiver, dims, central, _ = ql.resolve_quiver_spec(quiver_spec(spec))
    smp = ql.sample_on_variety(quiver, dims, central, seed=seed)
    return ql.cstar_act(0.125, smp.point), central.sigma_array()


@pytest.mark.parametrize("spec", COMMITTED_QUIVERS, ids=os.path.basename)
def test_warm_solve_returns_the_cold_answer(spec):
    # the positive polar exponent is unique, so a start from exp(guess).p
    # must land on the cold solve's point and xi, whatever the guess
    for seed in range(4):
        p, sigma = _flow_step_start(spec, seed)
        cold = ql.solve_real_moment(p, sigma)
        for scale in (1.0, 0.8, 1.5):
            warm = ql.solve_real_moment(p, sigma, guess=scale * cold.xi)
            assert warm.residual <= 1e-10
            assert (warm.point - cold.point).norm() <= 1e-9 * max(1.0, cold.point.norm())
            assert (warm.xi - cold.xi).norm() <= 1e-9 * max(1.0, cold.xi.norm())


@pytest.mark.parametrize("spec", COMMITTED_QUIVERS, ids=os.path.basename)
def test_warm_start_inside_tol_takes_one_more_step(spec):
    # a guess within 1e-12 of the answer starts under tol but above the
    # round-off a cold solve can end at; the extra Newton step must close
    # that gap instead of returning the start.  The last iterate is what the
    # step controls; the point rebuilt from p adds its own round-off
    # (up to 7e-14 here)
    rng = ql.make_rng(28)
    for seed in range(4):
        p, sigma = _flow_step_start(spec, seed)
        cold = ql.solve_real_moment(p, sigma)
        exact = ql.solve_real_moment(p, sigma, guess=cold.xi)
        assert exact.iterations <= 1 and exact.residual <= 1e-12
        nudge = random_lie(p.dims, rng, klass="hermitian")
        warm = ql.solve_real_moment(p, sigma, guess=cold.xi + (1e-12 / nudge.norm()) * nudge)
        start = warm.history[0][1]
        assert 1e-13 < start <= 1e-10, (seed, start)
        assert warm.history[-1][1] <= 1e-2 * start, (seed, start, warm.history)
        assert warm.residual <= 1e-12


def test_hermitian_log_is_accurate_on_a_wide_spectrum():
    # g = u exp(xi) with exponent eigenvalues over [-6, 6]: cond(g) = e^12,
    # so an eigh of g^dag g would lose eps cond(g)^2 ~ 6e-6 on the small end
    dims = ql.DimensionVectors(v=(3, 4, 1), w=(0, 0, 0))
    rng = np.random.default_rng(29)
    xi_blocks, u_blocks = [], []
    for vk in dims.v:
        q, _ = np.linalg.qr(rng.normal(size=(vk, vk)) + 1j * rng.normal(size=(vk, vk)))
        u, _ = np.linalg.qr(rng.normal(size=(vk, vk)) + 1j * rng.normal(size=(vk, vk)))
        xi_blocks.append((q * np.linspace(-6.0, 6.0, vk)) @ q.conj().T if vk > 1
                         else np.array([[6.0]]))
        u_blocks.append(u)
    xi = ql.LieElement(dims, xi_blocks)
    g = ql.GaugeElement(dims, [u @ e for u, e in zip(u_blocks, ql.lie_exp(xi).g)])
    back = ql.hermitian_log(g)
    assert (back - xi).norm() <= 1e-10 * xi.norm()
