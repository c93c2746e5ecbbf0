"""Closed-form operator matrices against the bilinear maps probed column by column,
and the layout's slot table against the Quiver index helpers.

The action and moment-derivative matrices are scatters of p.flatten(), so they
must equal the probes exactly; the Newton matrix (a Gram product) sums in
another order and is held to 1e-12 relative to its scale, as is a batched
conjugation against gauge_act point by point.  The slot-wise maps that pair each
entry with one other (twistor_rotate, conformal_point) keep the operation
order of the per-slot bodies in conftest, so they must equal them exactly.
The maps that conjugate (gauge_act, the weight projections) run on the block
form, and the moment maps and their derivatives are contractions with the
layout's tables: their products also sum the exact zeros off the blocks, or
sum each term of mu_C twice before halving, and so may round in another
order; they are held to CONJ_REL relative.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import quiverlim as ql
from quiverlim.repspace import block_mask, block_matrix, layout
from quiverlim.slices import moment_derivative_matrix, stacked_conditions
from quiverlim.solver import _spectral_pair, assemble_newton_matrix

from conftest import (BENCH_QUIVER_FILES, central_deviation_by_blocks,
                      conformal_point_by_slots,
                      conjugate_by_slots, dmoment_real_scaled_by_vertex,
                      dmu_complex_by_vertex, gauge_act_by_slots, get_setup,
                      grade_increment_by_slots, inf_action_adjoint_by_vertex,
                      max_deviation, moment_complex_by_vertex,
                      moment_real_by_vertex, positive_weight_project_by_slots,
                      random_lie, stack_by_slots, twistor_rotate_by_slots)

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
CONJ_REL = 1e-13


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
        want[:, t] = dmu_complex_by_vertex(p, q).flatten()
    assert np.array_equal(lay.dmu_matrix(p), want)
    assert np.array_equal(moment_derivative_matrix(p), want)


def test_stacked_conditions_match_probes(case):
    lay, p, _ = case
    want = np.zeros((2 * lay.lie_dim, lay.rep_dim), dtype=complex)
    for t, e in enumerate(units(lay.rep_dim)):
        q = ql.RepPoint.from_flat(p.quiver, p.dims, e)
        want[:, t] = np.concatenate([ql.dmu_complex(p, q).flatten(),
                                     ql.inf_action_adjoint(p, q).flatten()])
    assert np.array_equal(stacked_conditions(p), want)


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
    got = lay.hermitian_action_matrix(p.flatten())
    for b, e in enumerate(units(lay.lie_dim).real):
        z = ql.inf_action(p, lay.herm_element(e)).flatten()
        assert np.abs(got[:, b] - np.concatenate([z.real, z.imag])).max(
            initial=0.0) <= REL * max(1.0, p.norm())


@pytest.mark.parametrize("spec", list(ql.PRESET_NAMES) + list(BENCH_QUIVER_FILES),
                         ids=os.path.basename)
def test_hermitian_residual_is_the_action_gradient(spec):
    # the Newton residual of solve_real_moment: -2i mu_R(p) - 2 sigma Id has
    # coordinates A^T [Re x; Im x] - herm_coords(2 sigma Id), x = p.flatten()
    quiver, dims, central, _ = ql.resolve_quiver_spec(spec)
    lay, sigma, rng = layout(quiver, dims), central.sigma_array(), ql.make_rng(41)
    level = lay.herm_coords(ql.central_lie(2.0 * sigma, dims))
    for _ in range(3):
        p = ql.random_rep(quiver, dims, rng)
        x = p.flatten()
        got = lay.hermitian_action_matrix(x).T @ np.concatenate([x.real, x.imag]) - level
        want = lay.herm_coords(ql.hermitian_residual(p, sigma))
        assert np.linalg.norm(got - want) <= REL * max(1.0, np.linalg.norm(want))


@pytest.mark.parametrize("spec", list(ql.PRESET_NAMES) + list(BENCH_QUIVER_FILES),
                         ids=os.path.basename)
def test_central_herm_coords_is_the_closed_form(spec):
    quiver, dims, central, _ = ql.resolve_quiver_spec(spec)
    lay = layout(quiver, dims)
    for values in (2.0 * central.sigma_array(), np.zeros(quiver.n),
                   ql.make_rng(42).normal(size=quiver.n)):
        assert np.array_equal(lay.central_herm_coords(values),
                              lay.herm_coords(ql.central_lie(values, dims)))


@pytest.mark.parametrize("spec", list(ql.PRESET_NAMES) + list(BENCH_QUIVER_FILES),
                         ids=os.path.basename)
def test_moment_maps_are_the_moment_map_identities(spec):
    # the layout derives dmu_C and mu_R from the action matrix by
    # Tr(xi dmu_C(p)[q]) = omega_C(xi.p, q) and Tr(xi (-2i mu_R(p))) = <xi.p, p>;
    # both hold for the per-vertex bodies at random p, q and general xi
    quiver, dims, _, _ = ql.resolve_quiver_spec(spec)
    rng = ql.make_rng(43)
    for _ in range(3):
        p, q = ql.random_rep(quiver, dims, rng), ql.random_rep(quiver, dims, rng)
        xi = random_lie(dims, rng)
        moved = ql.inf_action(p, xi)
        scale = xi.norm() * p.norm()
        got = np.trace(xi.mat @ dmu_complex_by_vertex(p, q).mat)
        assert abs(got - ql.symplectic_form(moved, q)) <= REL * scale * q.norm()
        got = np.trace(xi.mat @ (-2j * moment_real_by_vertex(p).mat))
        assert abs(got - ql.metric(moved, p)) <= REL * scale * p.norm()


def test_batched_conjugate_matches_gauge_act(case):
    # leading axes of to_stack, conjugate and from_stack run point by point
    lay, p, shift = case
    g = ql.lie_exp(random_lie(p.dims, ql.make_rng(6), scale=0.5))
    points = [p, shift, p + shift, ql.random_rep(p.quiver, p.dims, ql.make_rng(7))]
    batch = np.array([q.flatten() for q in points]).reshape(2, 2, -1)
    stack = lay.to_stack(batch)
    assert stack.shape == (2, 2, *lay.stack_shape)
    got = lay.from_stack(lay.conjugate(stack, g.mat, g.inverse().mat)).reshape(4, -1)
    for row, q in zip(got, points):
        want = ql.gauge_act(g, q).flatten()
        assert np.linalg.norm(row - want) <= REL * max(1.0, np.linalg.norm(want))


def test_layout_is_cached_per_quiver_and_dims(case):
    lay, p, _ = case
    assert layout(p.quiver, p.dims) is lay
    assert lay.rep_dim == p.flatten().size == ql.rep_dim(p.quiver, p.dims)


def test_equal_instances_share_one_layout(case):
    # Quiver and DimensionVectors hash once per instance; equal instances
    # built apart must still hash alike and find the same cached layout
    lay, p, _ = case
    quiver = ql.Quiver(p.quiver.n, [list(e) for e in p.quiver.edges])
    dims = ql.DimensionVectors(list(p.dims.v), list(p.dims.w))
    assert quiver is not p.quiver and dims is not p.dims
    assert (quiver, dims) == (p.quiver, p.dims)
    assert hash(quiver) == hash(p.quiver) and hash(dims) == hash(p.dims)
    assert layout(quiver, dims) is lay


def test_stack_embedding_round_trip(case):
    # every flat entry lands at its slot's rows and columns; the rest is zero
    lay, p, _ = case
    x = p.flatten()
    stack = lay.to_stack(x)
    assert stack.shape == lay.stack_shape
    assert np.array_equal(stack, stack_by_slots(lay, p.slots))
    assert np.array_equal(lay.from_stack(stack), x)
    # a leading axis of length 0 holds no point
    none = lay.to_stack(x.reshape(1, 1, -1)[:, :0])
    assert none.shape == (1, 0) + lay.stack_shape
    assert lay.from_stack(none).shape == (1, 0, lay.rep_dim)


def random_blocks(dims, rng):
    return [rng.standard_normal((vk, vk)) + 1j * rng.standard_normal((vk, vk))
            for vk in dims.v]


def test_conjugate_matches_per_slot_body(case):
    lay, p, _ = case
    rng = ql.make_rng(8)
    for _ in range(3):
        left, right = random_blocks(p.dims, rng), random_blocks(p.dims, rng)
        got = lay.from_stack(lay.conjugate(lay.to_stack(p.flatten()),
                                           block_matrix(p.dims, left),
                                           block_matrix(p.dims, right)))
        want = np.concatenate([m.ravel() for m in
                               conjugate_by_slots(lay, p.slots, left, right)])
        assert np.linalg.norm(got - want) <= CONJ_REL * np.linalg.norm(want)


def test_block_exponentials_match_lie_exp(case):
    # one eigh of the V x V step gives every block's exp(+-t step); a step
    # that is one scalar on every vertex has its eigenvalues degenerate
    # across blocks, where eigh may mix eigenvectors of different blocks
    lay, p, _ = case
    mask = block_mask(p.dims)
    scalar = ql.central_lie([0.7] * p.dims.n, p.dims)
    for delta in (random_lie(p.dims, ql.make_rng(9), klass="hermitian"), scalar):
        lam, vecs = np.linalg.eigh(delta.matrix())
        for t in (1.0, 0.5, 2.0 ** -10):
            fwd, back = _spectral_pair(mask, np.exp(t * lam), vecs)
            want = ql.lie_exp(t * delta)
            for got, blocks in ((fwd, want.g), (back, want.inverse().g)):
                assert not got[~mask].any()
                for x, y in zip(ql.LieElement.from_matrix(p.dims, got).blocks, blocks):
                    assert np.linalg.norm(x - y) <= REL * max(1.0, np.linalg.norm(y))


def test_lie_exp_of_nilpotent_is_its_closed_form(case):
    # strictly upper triangular blocks of size <= 3 have N^3 = 0
    lay, p, _ = case
    rng = ql.make_rng(10)
    n = ql.LieElement(p.dims, [np.triu(rng.standard_normal((vk, vk))
                                       + 1j * rng.standard_normal((vk, vk)), 1)
                               for vk in p.dims.v])
    assert max(p.dims.v) <= 3 and not (n.mat @ n.mat @ n.mat).any()
    want = np.eye(lay.nv) + n.mat + n.mat @ n.mat / 2
    assert np.abs(ql.lie_exp(n).mat - want).max(initial=0.0) <= 1e-14 * max(
        1.0, np.abs(want).max(initial=0.0))


def test_lie_exp_of_hermitian_matches_eigh(case):
    lay, p, _ = case
    xi = random_lie(p.dims, ql.make_rng(11), klass="hermitian")
    xi = xi * (10.0 / xi.norm())
    lam, vecs = np.linalg.eigh(xi.mat)
    want = (vecs * np.exp(lam)) @ vecs.conj().T
    got = ql.lie_exp(xi).mat
    assert np.linalg.norm(got - want) <= REL * max(1.0, np.linalg.norm(want))


def test_lie_exp_is_block_diagonal_and_exact_at_zero(case):
    lay, p, _ = case
    g = ql.lie_exp(random_lie(p.dims, ql.make_rng(12), scale=2.0))
    assert not g.mat[~block_mask(p.dims)].any()
    assert np.array_equal(ql.lie_exp(ql.LieElement.zeros(p.dims)).mat, np.eye(lay.nv))


def test_package_runs_without_scipy():
    code = ("import sys, quiverlim as ql\n"
            "ql.verify_run(ql.RunConfig(quiver_file='tstar-p1'))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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


def assert_same(got, want):
    assert np.array_equal(got.flatten(), want.flatten())


def assert_conjugated(got, want):
    """got equals want up to the rounding of the block form or of a
    contraction (a point or a LieElement)."""
    a, b = got.flatten(), want.flatten()
    assert np.linalg.norm(a - b) <= CONJ_REL * np.linalg.norm(b)


def synthetic_grading(p, rng):
    """A WeightGrading with random integer weights and random unitary
    eigenbases; grade_increment and the projections read only these."""
    weights, qmats = [], []
    for vk in p.dims.v:
        weights.append(tuple(sorted(int(w) for w in rng.integers(-1, 3, size=vk))))
        z = rng.standard_normal((vk, vk)) + 1j * rng.standard_normal((vk, vk))
        qmats.append(np.linalg.qr(z)[0] if vk else np.zeros((0, 0), dtype=complex))
    return ql.WeightGrading(base_point=p, weights=tuple(weights), qmats=qmats)


def assert_graded_maps_match(q, grading):
    want = grade_increment_by_slots(q, grading)
    got = ql.grade_increment(q, grading)
    assert list(got) == list(want)
    for w in want:
        assert_conjugated(got[w], want[w])
    assert_conjugated(ql.positive_weight_project(q, grading),
                      positive_weight_project_by_slots(q, grading))


def test_slotwise_maps_match_per_slot_bodies(case):
    lay, p, shift = case
    rng = ql.make_rng(7)
    g = ql.lie_exp(random_lie(p.dims, rng, scale=0.5))
    assert_conjugated(ql.gauge_act(g, p), gauge_act_by_slots(g, p))
    for xi in (complex(*rng.uniform(-2, 2, size=2)), 0.35, 0.0):
        assert_same(ql.twistor_rotate(p, xi), twistor_rotate_by_slots(p, xi))
    zero, grading = ql.RepPoint.zeros(p.quiver, p.dims), synthetic_grading(p, rng)
    for hbar in (0.5, 0.3 - 0.2j):
        assert_same(ql.conformal_point(p, zero, hbar, grading),
                    conformal_point_by_slots(p, zero, hbar))
    assert_conjugated(ql.moment_real(p), moment_real_by_vertex(p))
    assert_conjugated(ql.moment_complex(p), moment_complex_by_vertex(p))
    assert_conjugated(ql.dmu_complex(p, shift), dmu_complex_by_vertex(p, shift))
    assert_conjugated(ql.dmoment_real_scaled(p, shift),
                      dmoment_real_scaled_by_vertex(p, shift))
    assert_conjugated(ql.inf_action_adjoint(p, shift),
                      inf_action_adjoint_by_vertex(p, shift))
    assert_graded_maps_match(shift, grading)


@pytest.mark.parametrize("name", ["tstar-p1", "a2-star", "a3-star", "kronecker2"])
def test_graded_and_conformal_maps_match_at_fixed_points(name):
    s = get_setup(name)
    A = s.slice_point()
    for hbar in (1.0, 0.05):
        assert_same(ql.conformal_point(s.p0, A, hbar, grading=s.grading),
                    conformal_point_by_slots(s.p0, A, hbar))
    assert_graded_maps_match(A, s.grading)
    assert_graded_maps_match(s.p0, s.grading)


def test_slot_assignment_writes_through(case):
    lay, p, shift = case
    q = p.copy()
    for s, (name, k) in enumerate([("B", h) for h in range(p.quiver.num_h)]
                                  + [("i", k) for k in range(p.quiver.n)]
                                  + [("j", k) for k in range(p.quiver.n)]):
        new = shift.slots[s]
        getattr(q, name)[k] = new
        a = lay.starts[s]
        assert np.array_equal(q.flatten()[a:a + new.size], new.ravel())
        r, c = lay.shapes[s]
        with pytest.raises(ValueError, match=rf"{name}\[{k}\] must have shape"):
            getattr(q, name)[k] = np.zeros((r + 1, c))
    assert np.array_equal(q.flatten(), shift.flatten())


def test_flatten_and_from_flat_copy(case):
    _, p, _ = case
    before = p.flatten()
    out = p.flatten()
    out += 1.0
    assert np.array_equal(p.flatten(), before)
    src = before.copy()
    q = ql.RepPoint.from_flat(p.quiver, p.dims, src)
    src += 1.0
    assert np.array_equal(q.flatten(), before)


def test_slots_are_views_of_one_vector(case):
    _, p, _ = case
    before = p.flatten()
    assert all(a is b for a, b in zip(p.slots, p.B + p.i + p.j))
    for m in p.slots:
        assert m.size == 0 or np.shares_memory(m, p.vec)
        m *= 2.0
    assert np.array_equal(p.flatten(), 2.0 * before)


def test_central_deviation_matches_per_block_body(case):
    _, p, shift = case
    rng = ql.make_rng(12)
    scalar = ql.central_lie(rng.standard_normal(p.dims.n), p.dims)
    for x in (ql.moment_complex(p), ql.moment_real(shift), scalar,
              scalar + 1e-9 * random_lie(p.dims, rng)):
        assert ql.central_deviation(x) == central_deviation_by_blocks(x)
