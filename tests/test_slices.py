"""Local charts: tangent spaces, moment corrections, and slice Newton solves."""

import os

import numpy as np
import pytest

import quiverlim as ql
from quiverlim import slices
from quiverlim.config import BASIN_NORM

from conftest import COMMITTED_QUIVERS, get_setup, quiver_spec, random_lie

# frozen complex tangent counts per preset (full chart, attracting chart)
HAND_COUNTS = {
    "tstar-p1": (2, 1),
    "a2-star": (2, 1),
    "kronecker2": (2, 1),
    "a3-star": (4, 2),
}


@pytest.mark.parametrize("name", sorted(HAND_COUNTS))
def test_basis_counts(name):
    s = get_setup(name)
    full_want, bb_want = HAND_COUNTS[name]
    assert s.full_basis.count() == full_want
    assert s.full_basis.real_dimension() == ql.expected_dimension(s.quiver, s.dims)
    assert s.basis.count() == bb_want
    assert 2 * s.basis.count() == s.full_basis.count()


def test_basis_vectors_satisfy_conditions(a3star):
    p0 = a3star.p0
    for vec in a3star.full_basis.vectors:
        assert ql.dmu_complex(p0, vec).norm() < 1e-10
        assert ql.inf_action_adjoint(p0, vec).norm() < 1e-10
    for vec in a3star.basis.vectors:
        assert ql.dmu_complex(p0, vec).norm() < 1e-10
        assert ql.inf_action_adjoint(p0, vec).norm() < 1e-10
        # supported in strictly positive scaling weight
        moved = a3star.grading.act(0.5, vec)
        parts = ql.grade_increment(vec, a3star.grading)
        assert all(m >= 1 for m, part in parts.items() if part.norm() > 1e-12)


def test_bb_isotropy(a3star):
    vecs = a3star.basis.vectors
    for u in vecs:
        for v in vecs:
            assert abs(ql.symplectic_form(u, v)) <= 1e-12


def test_tangent_rejects_unstable_point():
    pre = ql.get_preset("tstar-p1")
    p = ql.RepPoint.zeros(pre.quiver, pre.dims)
    with pytest.raises((ql.DimensionMismatch, ql.NotInjective)):
        ql.tangent_basis(p)


def test_moment_correction_lands_in_kernel(a3star, a3star_sample):
    p = a3star_sample.point
    q = ql.random_rep(a3star.quiver, a3star.dims, ql.make_rng(50), scale=0.5)
    fixed = ql.moment_correction(p, q)
    assert ql.dmu_complex(p, fixed).norm() < 1e-9 * max(1.0, fixed.norm())
    # projection: applying it twice changes nothing
    again = ql.moment_correction(p, fixed)
    assert (again - fixed).norm() < 1e-9 * max(1.0, fixed.norm())


def test_moment_correction_is_linear(a3star, a3star_sample):
    p = a3star_sample.point
    rng = ql.make_rng(51)
    q1 = ql.random_rep(a3star.quiver, a3star.dims, rng, scale=0.5)
    q2 = ql.random_rep(a3star.quiver, a3star.dims, rng, scale=0.5)
    z = 0.8 - 0.3j
    lhs = ql.moment_correction(p, z * q1 + q2)
    rhs = z * ql.moment_correction(p, q1) + ql.moment_correction(p, q2)
    assert (lhs - rhs).norm() < 1e-9 * max(1.0, rhs.norm())


def test_slice_solve_chart_conditions(a3star, a3star_sample):
    p = a3star_sample.point
    basis = ql.tangent_basis(p)
    q0 = ql.seeded_increment(basis, 52, 0.1)
    q = ql.slice_solve(basis, q0)
    # on the level set, orthogonal to the orbit
    c_level = ql.moment_complex(p)
    assert (ql.moment_complex(p + q) - c_level).norm() < 1e-9
    assert ql.inf_action_adjoint(p, q).norm() < 1e-9
    # the chart coordinate is untouched: tangential projection of q equals q0
    for vec in basis.vectors:
        assert abs(ql.metric(q - q0, vec)) < 1e-9


def test_slice_solve_identity_on_zero(a3star, a3star_sample):
    p = a3star_sample.point
    z = ql.RepPoint.zeros(a3star.quiver, a3star.dims)
    q = ql.slice_solve(ql.tangent_basis(p), z)
    assert q.norm() < 1e-10


def test_slice_solve_far_start(a3star, a3star_sample):
    # far starts either land on the slice or raise the documented errors
    p = a3star_sample.point
    basis = ql.tangent_basis(p)
    huge = 50.0 * sum(basis.vectors[1:], basis.vectors[0])
    try:
        q = ql.slice_solve(basis, huge)
    except (ql.LeftBasin, ql.MaxIterations):
        return
    scale = max(1.0, q.norm() ** 2)
    assert (ql.moment_complex(p + q) - ql.moment_complex(p)).norm() < 1e-8 * scale
    assert ql.inf_action_adjoint(p, q).norm() < 1e-8 * scale


def test_bb_slice_solve_conditions(a3star):
    p0, grading = a3star.p0, a3star.grading
    A = a3star.slice_point(seed=53)
    assert ql.inf_action_adjoint(p0, A).norm() < 1e-9
    c_level = ql.moment_complex(p0)
    assert (ql.moment_complex(p0 + A) - c_level).norm() < 1e-9
    parts = ql.grade_increment(A, grading)
    assert all(m >= 1 for m, part in parts.items() if part.norm() > 1e-12)


def test_bb_slice_solve_refuses_a_full_slice_basis(a3star):
    # the full slice's directions leave weight >= 1; only an attracting
    # basis carries the grading that the solve projects onto
    full = ql.tangent_basis(a3star.p0)
    assert full.grading is None and a3star.basis.grading is a3star.grading
    assert (full.to_dict()["kind"], a3star.basis.to_dict()["kind"]) == \
        ("full_tangent", "bb_tangent")
    with pytest.raises(ValueError, match="needs an attracting basis"):
        ql.bb_slice_solve(full, ql.seeded_increment(full, 57, 0.3))


def test_bb_slice_solve_global_reach(a3star):
    # starts far outside the local basin still land on the slice
    p0, basis = a3star.p0, a3star.basis
    q0 = ql.seeded_increment(basis, 54, 2.0)
    assert q0.norm() > 1.0
    A = ql.bb_slice_solve(basis, q0)
    assert (ql.moment_complex(p0 + A) - ql.moment_complex(p0)).norm() < 1e-9
    assert ql.inf_action_adjoint(p0, A).norm() < 1e-9


def test_bb_slice_solve_equivariance(a3star):
    # solving a rescaled seed equals rescaling the solution
    p0, grading, basis = a3star.p0, a3star.grading, a3star.basis
    q0 = ql.seeded_increment(basis, 55, 0.25)
    A = ql.bb_slice_solve(basis, q0)
    for R in (0.5, 2.0):
        lhs = ql.bb_slice_solve(basis, grading.act(R, q0))
        rhs = grading.act(R, A)
        assert (lhs - rhs).norm() < 1e-8 * max(1.0, rhs.norm())


def test_bb_slice_solve_projects_a_far_start_once(a3star):
    # a far start with support below weight one: that part is dropped before
    # the one shrink, so it cannot grow with it and leave the slice
    grading, basis = a3star.grading, a3star.basis
    q0 = ql.random_rep(a3star.quiver, a3star.dims, ql.make_rng(3), scale=2.0)
    plus = ql.positive_weight_project(q0, grading)
    assert plus.norm() > BASIN_NORM and (q0 - plus).norm() > BASIN_NORM
    A = ql.bb_slice_solve(basis, q0)
    slices.check_slice_increment(A, grading)
    assert (A - ql.bb_slice_solve(basis, plus)).norm() <= 1e-12 * A.norm()


def test_check_slice_increment_names_each_defect(tstar):
    # one refusal per slice condition: a random point leaves the complex
    # level, a gauge move keeps it but lies along the orbit, and a full
    # slice solve is on the level and orthogonal but reaches weights below one
    p0, grading, full = tstar.p0, tstar.grading, tstar.full_basis
    off_level = ql.random_rep(tstar.quiver, tstar.dims, ql.make_rng(63), scale=0.3)
    along_orbit = ql.gauge_act(ql.lie_exp(random_lie(tstar.dims, ql.make_rng(71), 0.1)),
                               p0) - p0
    repelling = ql.slice_solve(full, ql.seeded_increment(full, 72, 0.05))
    for A, defect in ((off_level, "moves the complex moment off its central level"),
                      (along_orbit, "is not orthogonal to the gauge orbit"),
                      (repelling, "has support below weight one")):
        with pytest.raises(ql.NotOnSlice, match=defect):
            ql.check_slice_increment(A, grading)


def test_checked_increment_holds_its_own_copy(tstar):
    A = tstar.slice_point(seed=73)
    inc = ql.check_slice_increment(A, tstar.grading)
    before = inc.A.vec.copy()
    A.i[0][...] += 1.0
    assert inc.p0 is tstar.p0
    assert np.array_equal(inc.A.vec, before)
    assert not np.array_equal(A.vec, before)


def test_positive_weight_project(a3star):
    grading = a3star.grading
    q = ql.random_rep(a3star.quiver, a3star.dims, ql.make_rng(56))
    plus = ql.positive_weight_project(q, grading)
    parts = ql.grade_increment(plus, grading)
    assert all(m >= 1 for m, part in parts.items() if part.norm() > 1e-12)
    # idempotent and dominated by the original
    assert (ql.positive_weight_project(plus, grading) - plus).norm() < 1e-12
    assert plus.norm() <= q.norm() + 1e-12


def _count_calls(monkeypatch, owner, name) -> list:
    """Replace owner.name by a wrapper that records each call in the list."""
    calls, real = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_bases_take_the_one_svd_and_solves_reuse_it(monkeypatch, a3star, a3star_sample):
    # each basis takes one SVD of one stacked_conditions; the solves read
    # span and directions off the basis, also through the rescaled far start
    p, grading = a3star_sample.point, a3star.grading
    svd = _count_calls(monkeypatch, np.linalg, "svd")
    cond = _count_calls(monkeypatch, slices, "stacked_conditions")
    full = ql.tangent_basis(p)
    assert (len(svd), len(cond)) == (1, 1)
    bb = ql.bb_tangent_basis(grading)
    assert (len(svd), len(cond)) == (2, 2)
    ql.slice_solve(full, ql.seeded_increment(full, 52, 0.1))
    ql.bb_slice_solve(bb, ql.seeded_increment(bb, 53, 0.3))
    far = ql.seeded_increment(bb, 54, 2.0)
    assert far.norm() > BASIN_NORM
    ql.bb_slice_solve(bb, far)
    assert (len(svd), len(cond)) == (2, 2)


@pytest.mark.parametrize("spec", COMMITTED_QUIVERS, ids=os.path.basename)
def test_bb_slice_solve_stays_in_positive_weight(spec):
    # no projector runs inside the Newton loop: the attracting directions
    # keep every iterate in the weight >= 1 subspace on their own
    quiver, dims, central, _ = ql.resolve_quiver_spec(quiver_spec(spec))
    for seed in range(6):
        smp = ql.sample_on_variety(quiver, dims, central, seed=seed)
        flow = ql.flow_limit(smp.point, central.sigma_array())
        basis = ql.bb_tangent_basis(flow.grading)
        for scale in (0.3, 2.0):
            A = ql.bb_slice_solve(basis, ql.seeded_increment(basis, seed, scale))
            off = (A - ql.positive_weight_project(A, flow.grading)).norm()
            assert off <= 1e-12 * max(1.0, A.norm()), (seed, scale, off)
