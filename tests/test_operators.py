"""Closed-form operator matrices against the bilinear maps probed column by column.

The action and moment-derivative matrices are scatters of p.flatten(), so they
must equal the probes exactly; the Newton matrix (a Gram product) and the
gauge conjugation matrix (a Kronecker product) sum in another order and are
held to 1e-12 relative to their scale.
"""

import numpy as np
import pytest

import quiverlim as ql
from quiverlim.repspace import layout
from quiverlim.slices import moment_derivative_matrix, stacked_conditions
from quiverlim.solver import assemble_newton_matrix

from conftest import max_deviation, random_lie

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
