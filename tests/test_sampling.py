"""Seeded random points on the variety and the deterministic RNG."""

import dataclasses

import numpy as np
import pytest

import quiverlim as ql
from quiverlim.config import CHECK_TOL, moment_scale

from conftest import COMMITTED_QUIVERS, project_complex_level_full_steps, quiver_spec


def test_make_rng_deterministic():
    a = ql.make_rng(7).standard_normal(8)
    b = ql.make_rng(7).standard_normal(8)
    assert np.array_equal(a, b)
    c = ql.make_rng(8).standard_normal(8)
    assert not np.array_equal(a, c)


def test_random_rep_deterministic(a3star):
    p = ql.random_rep(a3star.quiver, a3star.dims, ql.make_rng(3))
    q = ql.random_rep(a3star.quiver, a3star.dims, ql.make_rng(3))
    assert np.array_equal(p.flatten(), q.flatten())


def test_sample_postconditions(a3star, a3star_sample):
    p = a3star_sample.point
    sigma = a3star.central.sigma_array()
    assert ql.hermitian_residual(p, sigma).norm() <= 1e-10
    want_c = ql.central_lie(a3star.central.c_array(), a3star.dims)
    assert (ql.moment_complex(p) - want_c).norm() < 1e-9


def test_sample_deterministic(tstar):
    a = ql.sample_on_variety(tstar.quiver, tstar.dims, tstar.central, seed=9)
    b = ql.sample_on_variety(tstar.quiver, tstar.dims, tstar.central, seed=9)
    assert np.array_equal(a.point.flatten(), b.point.flatten())
    c = ql.sample_on_variety(tstar.quiver, tstar.dims, tstar.central, seed=10)
    assert not np.array_equal(a.point.flatten(), c.point.flatten())


def test_one_dimensional_frame_forces_norms():
    # v = w = 1, sigma = 1, c = 0: mu_C = i j = 0 and |i|^2 - |j|^2 = 2,
    # so j = 0 and |i| = sqrt 2 at every sample
    q = ql.Quiver(1, ())
    dims = ql.DimensionVectors(v=(1,), w=(1,))
    central = ql.CentralParameter(sigma=(1.0,), c=(0.0,))
    for seed in (0, 1, 2):
        rep = ql.sample_on_variety(q, dims, central, seed=seed)
        assert np.linalg.norm(rep.point.j[0]) < 1e-9
        assert abs(np.linalg.norm(rep.point.i[0]) - np.sqrt(2.0)) < 1e-9


def test_sampling_failure_when_level_unreachable():
    # no framing at all: mu_R is a commutator sum, its trace part cannot
    # meet a nonzero sigma
    q = ql.Quiver(1, ())
    dims = ql.DimensionVectors(v=(1,), w=(0,))
    central = ql.CentralParameter(sigma=(1.0,), c=(0.0,))
    with pytest.raises(ql.SamplingFailed):
        ql.sample_on_variety(q, dims, central, seed=0)


def test_project_complex_level(a3star):
    p = ql.random_rep(a3star.quiver, a3star.dims, ql.make_rng(77), scale=0.8)
    c = a3star.central.c_array()
    moved = ql.project_complex_level(p, c)
    want = ql.central_lie(c, a3star.dims)
    assert (ql.moment_complex(moved) - want).norm() < 1e-10
    # a point already on the level stays put
    again = ql.project_complex_level(moved, c)
    assert (again - moved).norm() < 1e-9


def test_sample_report_metadata(tstar, tstar_sample):
    assert tstar_sample.seed == 5
    assert tstar_sample.attempts >= 1
    assert tstar_sample.solve.point is tstar_sample.point


def test_d4_star_samples_land_on_their_level():
    # on these seeds the Newton iterate reaches its level but the point
    # rebuilt from the polar factor of the accumulated gauge misses it by
    # 1e-7; the solve must refuse such a point so that sampling redraws
    q = ql.Quiver(4, ((1, 0), (2, 0), (3, 0)))
    d = ql.DimensionVectors(v=(2, 1, 1, 1), w=(1, 0, 0, 0))
    central = ql.CentralParameter(sigma=(1, 1, 1, 1), c=(0, 0, 0, 0))
    tol = 1e-10
    for seed in (284, 550, 831):
        rep = ql.sample_on_variety(q, d, central, seed=seed)
        p = rep.point
        res = ql.hermitian_residual(p, central.sigma_array()).norm()
        assert res <= 10 * tol * max(1.0, p.norm() ** 2), (seed, res)
        dev = ql.central_deviation(ql.moment_complex(p))
        assert dev <= CHECK_TOL * moment_scale(p), (seed, dev)


# A2 with v=(2,2), w=(2,1): on some seeds a draw converges with a numerically
# singular exp(xi), so the point cannot be rebuilt from the polar factor
A2_V22 = {"vertices": 2, "edges": [[0, 1]], "v": [2, 2], "w": [2, 1],
          "sigma": [1, 1]}


def test_singular_polar_rebuild_redraws():
    # the solve must name that draw NotOnVariety, so that sampling redraws
    # (or gives up by name) instead of failing with a bare LinAlgError
    q, d, central = ql.quiver_from_dict(A2_V22)
    tol = 1e-10
    for seed in (97, 104):
        p = ql.sample_on_variety(q, d, central, seed=seed).point
        res = ql.hermitian_residual(p, central.sigma_array()).norm()
        assert res <= 10 * tol * max(1.0, p.norm() ** 2), (seed, res)
        dev = ql.central_deviation(ql.moment_complex(p))
        assert dev <= CHECK_TOL * moment_scale(p), (seed, dev)
    for seed in (49, 154):
        with pytest.raises(ql.SamplingFailed):
            ql.sample_on_variety(q, d, central, seed=seed)


def _assert_projection_matches_full_steps(quiver, dims, central, seed):
    raw = ql.random_rep(quiver, dims, ql.make_rng(seed))
    want = project_complex_level_full_steps(raw, central.c_array())
    got = ql.project_complex_level(raw, central.c_array())
    assert np.array_equal(got.vec, want.vec), seed


@pytest.mark.parametrize("spec", COMMITTED_QUIVERS)
def test_projection_matches_the_full_step_loop(spec):
    # on these draws the damped kernel never halves a step, so it must take
    # the full-step loop's steps and stop at the same iterate, to the bit
    quiver, dims, central, _ = ql.resolve_quiver_spec(quiver_spec(spec))
    for seed in range(12):
        _assert_projection_matches_full_steps(quiver, dims, central, seed)


def test_projection_matches_the_full_step_loop_on_a2_v22():
    q, d, central = ql.quiver_from_dict(A2_V22)
    for seed in (97, 104):
        _assert_projection_matches_full_steps(q, d, central, seed)


def test_stalled_projection_redraws(tstar, monkeypatch):
    # a projection that fails its Armijo test is a bad draw, like one that
    # runs out of iterations: sampling redraws instead of raising
    real, calls = ql.sampling.project_complex_level, []

    def stalls_once(p, c_values):
        calls.append(p)
        if len(calls) == 1:
            raise ql.LeftBasin("stalled")
        return real(p, c_values)

    monkeypatch.setattr(ql.sampling, "project_complex_level", stalls_once)
    smp = ql.sample_on_variety(tstar.quiver, tstar.dims, tstar.central, seed=3)
    assert smp.attempts == 2 and len(calls) == 2


@pytest.mark.parametrize("name", ["a3-star", "kronecker2"])
def test_attracting_increment_ignores_basis_choice(name):
    # the SVD may return any orthonormal basis of the attracting tangent
    # space; mixing its vectors by a unitary must leave A unchanged
    pre = ql.get_preset(name)
    p0 = pre.fixed_point()
    grading = ql.weight_grading(p0)
    basis = ql.bb_tangent_basis(p0, grading)
    n = basis.count()
    rng = ql.make_rng(91)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    cols = np.stack([v.flatten() for v in basis.vectors], axis=1) @ u
    mixed = dataclasses.replace(basis, span=cols)
    for seed in range(3):
        a = ql.sampling.attracting_increment(basis, grading, seed)
        b = ql.sampling.attracting_increment(mixed, grading, seed)
        assert (a - b).norm() < 1e-10 * max(1.0, a.norm()), seed
