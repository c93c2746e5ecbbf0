"""Scaling action, fixed points, weight gradings, and the flow to the limit."""

import numpy as np
import pytest

import quiverlim as ql
from conftest import act_reference, gauge_distance, power_blocks
from quiverlim.config import CHECK_TOL, FLOW_STEPS, STABILITY_RATIO

# hand-counted from the weights: entries of the dimension audit per preset,
# (rep slots of weight >= 1, gauge weight >= 1, gauge weight >= 0, half count)
HAND_BB_AUDIT = {
    "tstar-p1": (2, 0, 1, 1),
    "a2-star": (3, 0, 2, 1),
    "kronecker2": (3, 0, 2, 1),
    "a3-star": (8, 1, 5, 2),
}

# scales of the graded action: both sides of 1, complex, and the stage-3
# rescaling 1/(hbar R) of the default grids (40) and beyond
ACT_SCALES = (0.5, 2.0, 0.05 * (1 + 1j), 40.0, 160.0)


def test_cstar_scales_complex_moment(a3star):
    p = ql.random_rep(a3star.quiver, a3star.dims, ql.make_rng(30))
    for R in (0.5, 2.0, 1.5 - 0.5j):
        scaled = ql.cstar_act(R, p)
        want = R * ql.moment_complex(p)
        assert (ql.moment_complex(scaled) - want).norm() < 1e-12 * max(1.0, want.norm())


def test_cstar_is_a_group_action(a3star):
    p = ql.random_rep(a3star.quiver, a3star.dims, ql.make_rng(31))
    a = ql.cstar_act(0.3, ql.cstar_act(2.0, p))
    b = ql.cstar_act(0.6, p)
    assert (a - b).norm() < 1e-12


def test_random_point_is_not_fixed(a3star, a3star_sample):
    rep = ql.is_fixed_point(a3star_sample.point)
    assert not rep.fixed


def test_weight_grading_requires_fixed_point(a3star, a3star_sample):
    with pytest.raises(ql.NotFixed):
        ql.weight_grading(a3star_sample.point)


def test_weight_grading_requires_injective_action():
    # the zero representation is fixed but its stabilizer is everything
    pre = ql.get_preset("tstar-p1")
    p = ql.RepPoint.zeros(pre.quiver, pre.dims)
    with pytest.raises(ql.NotInjective):
        ql.weight_grading(p)


def test_grading_reproduces_the_action(a3star):
    # act(R) on the base point equals plain scaling composed with the gauge
    p0, grading = a3star.p0, a3star.grading
    for R in (0.5, 0.25):
        moved = grading.act(R, p0)
        assert (moved - p0).norm() < 1e-10


def test_grade_increment_reassembles(a3star):
    grading = a3star.grading
    q = ql.random_rep(a3star.quiver, a3star.dims, ql.make_rng(33))
    parts = ql.grade_increment(q, grading)
    total = ql.RepPoint.zeros(a3star.quiver, a3star.dims)
    for part in parts.values():
        total = total + part
    assert (total - q).norm() < 1e-12 * max(1.0, q.norm())
    # each piece scales as R^m under the graded action
    for m, part in parts.items():
        if part.norm() < 1e-14:
            continue
        moved = grading.act(0.5, part)
        assert (moved - (0.5 ** m) * part).norm() < 1e-10 * part.norm()


def test_bb_expected_dimension_audit():
    for name, want in HAND_BB_AUDIT.items():
        grading = ql.weight_grading(ql.get_preset(name).fixed_point())
        audit = ql.bb_expected_dimension(grading)
        got = (audit["rep_weight_ge1"], audit["gauge_weight_ge1"],
               audit["gauge_weight_ge0"], audit["bb_dimension"])
        assert got == want, name


def test_bb_dimension_is_half_expected():
    for name in HAND_BB_AUDIT:
        pre = ql.get_preset(name)
        grading = ql.weight_grading(pre.fixed_point())
        audit = ql.bb_expected_dimension(grading)
        assert 4 * audit["bb_dimension"] == ql.expected_dimension(pre.quiver, pre.dims)


def test_scaling_energy_tracks_shrinking_slots(a3star):
    p0 = a3star.p0
    A = a3star.slice_point(seed=34)
    e1 = ql.scaling_energy(p0 + a3star.grading.act(0.5, A))
    e2 = ql.scaling_energy(p0 + a3star.grading.act(0.25, A))
    assert e2 < e1 or abs(e2 - e1) < 1e-12


def test_default_schedule_decreases():
    sched = ql.default_schedule()
    assert all(b < a for a, b in zip(sched, sched[1:]))
    assert sched[0] < 1.0


def test_flow_limit_reaches_fixed_point(a3star, a3star_sample):
    flow = ql.flow_limit(a3star_sample.point, a3star.central.sigma_array())
    assert flow.fixed_report.fixed
    smin, smax = ql.stability_margin(flow.limit)
    assert smin > STABILITY_RATIO * max(1.0, smax)
    # the limit sits on the real level at the same sigma
    assert ql.hermitian_residual(flow.limit,
                                 a3star.central.sigma_array()).norm() < 1e-8
    rows = flow.rows
    assert rows[-1][0] == flow.R_final
    # the walk ends at the first iterate that passes the fixed-point test;
    # its residual shrinks with R, so the previous iterate was still above
    scale = CHECK_TOL * max(1.0, flow.limit.norm())
    assert rows[-1][2] <= scale < rows[-2][2]
    # the grading that certified the limit comes with it
    assert flow.grading.base_point is flow.limit
    assert flow.fixed_report.residual <= flow.fixed_report.tol_used


def test_flow_limit_weights_match_preset(a3star, a3star_sample):
    # the generic orbit flows to the distinguished fixed point of the preset
    flow = ql.flow_limit(a3star_sample.point, a3star.central.sigma_array())
    grading = ql.weight_grading(flow.limit)
    got = tuple(tuple(int(x) for x in wk) for wk in grading.weights)
    want = tuple(tuple(w) for w in ql.get_preset("a3-star").weights)
    assert got == want


def test_flow_limit_is_clean(tstar, tstar_sample):
    # the returned limit carries no leftover weight in its shrinking slots
    flow = ql.flow_limit(tstar_sample.point, tstar.central.sigma_array())
    grading = ql.weight_grading(flow.limit)
    parts = ql.grade_increment(flow.limit, grading)
    for m, part in parts.items():
        if m != 0:
            assert part.norm() < 1e-12


@pytest.mark.parametrize("s", ACT_SCALES)
def test_act_matches_the_closed_form_reference(a3star, s):
    grading = a3star.grading
    p = ql.random_rep(a3star.quiver, a3star.dims, ql.make_rng(34))
    want = act_reference(grading, s, p)
    assert (grading.act(s, p) - want).norm() <= 1e-12 * want.norm()


def test_act_forms_no_gauge_power(monkeypatch, a3star):
    # the action scales eigen-coordinates: no gauge element, no inverse
    def refuse(*args, **kwargs):
        raise AssertionError("the graded action formed a gauge inverse")
    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(ql.fixedpoints, "gauge_act", refuse)
    p = ql.random_rep(a3star.quiver, a3star.dims, ql.make_rng(35))
    assert a3star.grading.act(40.0, p).norm() > 0


def test_power_cond_is_the_condition_number(a3star):
    grading = a3star.grading
    assert grading.max_end_weight() > 0
    for s in ACT_SCALES:
        cond = max(np.linalg.cond(g) for g in power_blocks(grading, s) if g.size)
        assert abs(grading.power_cond(s) - cond) <= 1e-10 * cond


def _walked_limit(p, sigma, schedule=None):
    """The whole schedule (default_schedule(), R down to FLOW_RATIO^FLOW_STEPS)
    walked without a stopping rule, then polished to its weight-0 part."""
    q = ql.solve_real_moment(p, sigma).point
    R_prev = 1.0
    for R in schedule or ql.default_schedule():
        q = ql.solve_real_moment(ql.cstar_act(R / R_prev, q), sigma).point
        R_prev = R
    return ql.grade_increment(q, ql.weight_grading(q))[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flow_limit_matches_the_full_walk(a3star, seed):
    # stopping at the first fixed iterate lands on the limit of this orbit,
    # not on some other fixed point nearby
    sigma = a3star.central.sigma_array()
    smp = ql.sample_on_variety(a3star.quiver, a3star.dims, a3star.central,
                               seed=seed)
    assert len(ql.default_schedule()) >= 40
    flow = ql.flow_limit(smp.point, sigma)
    ref = _walked_limit(smp.point, sigma)
    assert gauge_distance(flow.limit, ref) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flow_limit_does_not_depend_on_the_schedule(a3star, seed):
    # the limit of an orbit is a property of the orbit: walking R through
    # 2^-t instead of the default schedule lands on the same fixed point
    sigma = a3star.central.sigma_array()
    smp = ql.sample_on_variety(a3star.quiver, a3star.dims, a3star.central,
                               seed=seed)
    halving = tuple(0.5 ** t for t in range(1, FLOW_STEPS + 1))
    flow = ql.flow_limit(smp.point, sigma)
    assert gauge_distance(flow.limit, _walked_limit(smp.point, sigma, halving)) <= 1e-12


@pytest.mark.parametrize("name", ["tstar-p1", "a2-star", "kronecker2", "a3-star"])
def test_flow_settles_in_few_steps(name):
    # the fixed-point residual is O(R), so the walk meets CHECK_TOL after
    # about log(1/CHECK_TOL) / log(1/FLOW_RATIO) steps
    pre = ql.get_preset(name)
    for seed in (0, 1, 2):
        smp = ql.sample_on_variety(pre.quiver, pre.dims, pre.central, seed=seed)
        flow = ql.flow_limit(smp.point, pre.central.sigma_array())
        assert len(flow.rows) <= 12, (name, seed)
