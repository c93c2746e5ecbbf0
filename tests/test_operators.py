"""Closed-form operator matrices against the bilinear maps probed column by column,
and the layout's slot table against the Quiver index helpers.

The action and moment-derivative matrices are scatters of p.flatten(), so they
must equal the probes exactly; the Newton matrix (a Gram product) and the
gauge conjugation matrix (a Kronecker product) sum in another order and are
held to 1e-12 relative to their scale.  The slot-wise maps keep the operation
order of the per-slot bodies in conftest, so they must equal them exactly.
"""

import numpy as np
import pytest

import quiverlim as ql
from quiverlim.repspace import layout
from quiverlim.slices import moment_derivative_matrix, stacked_conditions
from quiverlim.solver import assemble_newton_matrix

from conftest import (conformal_point_by_slots, dmoment_real_scaled_by_vertex,
                      dmu_complex_by_vertex, gauge_act_by_slots, get_setup,
                      grade_increment_by_slots, inf_action_adjoint_by_vertex,
                      max_deviation, moment_complex_by_vertex,
                      moment_real_by_vertex, positive_weight_project_by_slots,
                      random_lie, twistor_rotate_by_slots)

QUIVERS = {
    "a3-chain": (ql.Quiver(3, ((0, 1), (1, 2))),
                 ql.DimensionVectors(v=(2, 3, 2), w=(1, 2, 1))),
    "d4-star": (ql.Quiver(4, ((1, 0), (2, 0), (3, 0))),
                ql.DimensionVectors(v=(2, 1, 1, 1), w=(1, 0, 0, 0))),
    "v-zero": (ql.Quiver(3, ((0, 1), (1, 2))),
               ql.DimensionVectors(v=(2, 0, 1), w=(1, 1, 1))),
    "w-zero": (ql.Quiver(3, ((0, 1), (0, 1), (2, 1))),
               ql.DimensionVectors(v=(1, 2, 1), w=(0, 1, 0))),
}
for _name in ("tstar-p1", "a2-star", "a3-star", "kronecker2"):
    _preset = ql.get_preset(_name)
    QUIVERS[_name] = (_preset.quiver, _preset.dims)

REL = 1e-12


@pytest.fixture(params=sorted(QUIVERS))
def case(request):
    quiver, dims = QUIVERS[request.param]
    rng = ql.make_rng(sorted(QUIVERS).index(request.param))
    p = ql.random_rep(quiver, dims, rng)
    shift = ql.random_rep(quiver, dims, rng, scale=0.5)
    return layout(quiver, dims), p, shift


def units(n):
    return np.eye(n, dtype=complex)


def test_action_matrix_matches_inf_action(case):
    lay, p, _ = case
    want = np.zeros((lay.rep_dim, lay.lie_dim), dtype=complex)
    for t, e in enumerate(units(lay.lie_dim)):
        want[:, t] = ql.inf_action(p, ql.LieElement.from_flat(p.dims, e)).flatten()
    assert np.array_equal(lay.action_matrix(p), want)


def test_dmu_matrix_matches_dmu_complex(case):
    lay, p, _ = case
    want = np.zeros((lay.lie_dim, lay.rep_dim), dtype=complex)
    for t, e in enumerate(units(lay.rep_dim)):
        q = ql.RepPoint.from_flat(p.quiver, p.dims, e)
        want[:, t] = ql.dmu_complex(p, q).flatten()
    assert np.array_equal(lay.dmu_matrix(p), want)
    assert np.array_equal(moment_derivative_matrix(p), want)


def test_stacked_conditions_match_probes(case):
    lay, p, shift = case
    want = np.zeros((2 * lay.lie_dim, lay.rep_dim), dtype=complex)
    for t, e in enumerate(units(lay.rep_dim)):
        q = ql.RepPoint.from_flat(p.quiver, p.dims, e)
        want[:, t] = np.concatenate([ql.dmu_complex(p + shift, q).flatten(),
                                     ql.inf_action_adjoint(p, q).flatten()])
    assert np.array_equal(stacked_conditions(p, shift=shift), want)


def test_hermitian_basis_is_real_orthonormal(case):
    lay, p, _ = case
    h = lay.herm
    assert np.allclose((h.conj().T @ h).real, np.eye(lay.lie_dim), atol=1e-15)
    for col in h.T:
        x = ql.LieElement.from_flat(p.dims, col)
        assert max_deviation(x, "hermitian") == 0.0
    x = random_lie(p.dims, ql.make_rng(5), klass="hermitian")
    back = lay.herm_element(lay.herm_coords(x))
    assert (back - x).norm() <= REL * x.norm()


def test_newton_matrix_matches_moment_derivative(case):
    lay, p, _ = case
    want = np.zeros((lay.lie_dim, lay.lie_dim))
    for b, e in enumerate(units(lay.lie_dim).real):
        xi = lay.herm_element(e)
        want[:, b] = lay.herm_coords(ql.dmoment_real_scaled(p, ql.inf_action(p, xi)))
    got = assemble_newton_matrix(p)
    scale = max(1.0, p.norm() ** 2)
    assert np.abs(got - want).max(initial=0.0) <= REL * scale


def test_hermitian_action_matrix_matches_inf_action(case):
    lay, p, _ = case
    got = lay.hermitian_action_matrix(p)
    for b, e in enumerate(units(lay.lie_dim).real):
        z = ql.inf_action(p, lay.herm_element(e)).flatten()
        assert np.abs(got[:, b] - np.concatenate([z.real, z.imag])).max(
            initial=0.0) <= REL * max(1.0, p.norm())


def test_gauge_matrix_matches_gauge_act(case):
    lay, p, _ = case
    g = ql.lie_exp(random_lie(p.dims, ql.make_rng(6), scale=0.5))
    ginv = g.inverse()
    got = lay.gauge_matrix(g.g, ginv.g) @ p.flatten()
    want = ql.gauge_act(g, p).flatten()
    assert np.linalg.norm(got - want) <= REL * max(1.0, np.linalg.norm(want))


def test_layout_is_cached_per_quiver_and_dims(case):
    lay, p, _ = case
    assert layout(p.quiver, p.dims) is lay
    assert lay.rep_dim == p.flatten().size == ql.rep_dim(p.quiver, p.dims)


def test_slot_table_matches_quiver_helpers(case):
    lay, p, _ = case
    q, nh, n, E = p.quiver, p.quiver.num_h, p.quiver.n, p.quiver.num_edges
    assert lay.spaces == (tuple((q.h_in(h), q.h_out(h)) for h in range(nh))
                          + tuple((k, ~k) for k in range(n))
                          + tuple((~k, k) for k in range(n)))
    assert lay.degree == (tuple(int(q.h_eps(h) == -1) for h in range(nh))
                          + (0,) * n + (1,) * n)
    assert lay.partner == (tuple(q.h_bar(h) for h in range(nh))
                           + tuple(nh + n + k for k in range(n))
                           + tuple(nh + k for k in range(n)))
    assert lay.products == tuple(
        tuple((h, q.h_bar(h), q.h_eps(h)) for h in sorted(q.h_into(k)))
        + ((nh + k, nh + n + k, 1),) for k in range(n))
    want = {}
    for e in range(E):
        want[f"h{e}"], want[f"h{e}~"] = e, e + E
    for k in range(n):
        want[f"c{k}"], want[f"j{k}"] = nh + k, nh + n + k
    assert lay.token_slot == want
    # partners swap row and column space and split the scaling degree
    for x, t in enumerate(lay.partner):
        assert lay.spaces[t] == lay.spaces[x][::-1]
        assert lay.degree[x] + lay.degree[t] == 1
    slots = p.slots
    assert [m.shape for m in slots] == list(lay.shapes)
    assert slots == p.B + p.i + p.j
    assert np.array_equal(ql.RepPoint.from_slots(p.quiver, p.dims, slots).flatten(),
                          p.flatten())


def assert_same(got, want):
    if isinstance(want, ql.LieElement):
        assert len(got.blocks) == len(want.blocks)
        for a, b in zip(got.blocks, want.blocks):
            assert np.array_equal(a, b)
    else:
        assert np.array_equal(got.flatten(), want.flatten())


def synthetic_grading(p, rng):
    """A WeightGrading with random integer weights and random unitary
    eigenbases; grade_increment and the projections read only these."""
    weights, qmats = [], []
    for vk in p.dims.v:
        weights.append(tuple(sorted(int(w) for w in rng.integers(-1, 3, size=vk))))
        z = rng.standard_normal((vk, vk)) + 1j * rng.standard_normal((vk, vk))
        qmats.append(np.linalg.qr(z)[0] if vk else np.zeros((0, 0), dtype=complex))
    return ql.WeightGrading(base_point=p, weights=tuple(weights), qmats=qmats,
                            generator=ql.LieElement.zeros(p.dims))


def assert_graded_maps_match(q, grading):
    want = grade_increment_by_slots(q, grading)
    got = ql.grade_increment(q, grading)
    assert list(got) == list(want)
    for w in want:
        assert_same(got[w], want[w])
    assert_same(ql.positive_weight_project(q, grading),
                positive_weight_project_by_slots(q, grading))


def test_slotwise_maps_match_per_slot_bodies(case):
    lay, p, shift = case
    rng = ql.make_rng(7)
    g = ql.lie_exp(random_lie(p.dims, rng, scale=0.5))
    assert_same(ql.gauge_act(g, p), gauge_act_by_slots(g, p))
    for xi in (complex(*rng.uniform(-2, 2, size=2)), 0.35, 0.0):
        assert_same(ql.twistor_rotate(p, xi), twistor_rotate_by_slots(p, xi))
    zero = ql.RepPoint.zeros(p.quiver, p.dims)
    for hbar in (0.5, 0.3 - 0.2j):
        assert_same(ql.conformal_point(p, zero, hbar),
                    conformal_point_by_slots(p, zero, hbar))
    assert_same(ql.moment_real(p), moment_real_by_vertex(p))
    assert_same(ql.moment_complex(p), moment_complex_by_vertex(p))
    assert_same(ql.dmu_complex(p, shift), dmu_complex_by_vertex(p, shift))
    assert_same(ql.dmoment_real_scaled(p, shift), dmoment_real_scaled_by_vertex(p, shift))
    assert_same(ql.inf_action_adjoint(p, shift), inf_action_adjoint_by_vertex(p, shift))
    assert_graded_maps_match(shift, synthetic_grading(p, rng))


@pytest.mark.parametrize("name", ["tstar-p1", "a2-star", "a3-star", "kronecker2"])
def test_graded_and_conformal_maps_match_at_fixed_points(name):
    s = get_setup(name)
    A = s.slice_point()
    for hbar in (1.0, 0.05):
        assert_same(ql.conformal_point(s.p0, A, hbar, grading=s.grading),
                    conformal_point_by_slots(s.p0, A, hbar))
    assert_graded_maps_match(A, s.grading)
    assert_graded_maps_match(s.p0, s.grading)
