"""Representation points, moment maps, metric, and the gauge action.

The moment-map values are checked against hand-computed scalars on one- and
two-vertex examples where every product is a number.
"""

import numpy as np
import pytest

import quiverlim as ql

from conftest import random_lie, rep_from_dict, unitary_defect


def one_vertex_point():
    q = ql.Quiver(1, ())
    d = ql.DimensionVectors(v=(1,), w=(1,))
    p = ql.RepPoint.zeros(q, d)
    p.i[0] = np.array([[2.0]], dtype=complex)
    p.j[0] = np.array([[3.0j]], dtype=complex)
    return p


def two_vertex_point():
    q = ql.Quiver(2, ((0, 1),))
    d = ql.DimensionVectors(v=(1, 1), w=(1, 1))
    p = ql.RepPoint.zeros(q, d)
    p.B[0] = np.array([[1.5 - 0.5j]], dtype=complex)
    p.B[1] = np.array([[0.25 + 1.0j]], dtype=complex)
    p.i[0] = np.array([[0.3 + 0.1j]], dtype=complex)
    p.j[0] = np.array([[-0.2j]], dtype=complex)
    p.i[1] = np.array([[1.0 - 1.0j]], dtype=complex)
    p.j[1] = np.array([[0.4]], dtype=complex)
    return p


def test_moment_values_one_vertex():
    p = one_vertex_point()
    # mu_R = (i/2)(|i|^2 - |j|^2) = (i/2)(4 - 9); mu_C = i j
    assert abs(ql.moment_real(p).blocks[0][0, 0] - (-2.5j)) < 1e-14
    assert abs(ql.moment_complex(p).blocks[0][0, 0] - 6.0j) < 1e-14


def test_moment_values_two_vertex():
    p = two_vertex_point()
    mc = ql.moment_complex(p)
    mr = ql.moment_real(p)
    assert abs(mc.blocks[0][0, 0] - (-0.855 - 1.435j)) < 1e-14
    assert abs(mc.blocks[1][0, 0] - (1.275 + 0.975j)) < 1e-14
    assert abs(mr.blocks[0][0, 0] - (-0.68875j)) < 1e-14
    assert abs(mr.blocks[1][0, 0] - (1.63875j)) < 1e-14


def test_moment_real_is_skew_hermitian():
    pre = ql.get_preset("a3-star")
    p = ql.random_rep(pre.quiver, pre.dims, ql.make_rng(3))
    for blk in ql.moment_real(p).blocks:
        assert np.linalg.norm(blk + blk.conj().T) < 1e-12 * max(1.0, np.linalg.norm(blk))


def test_hermitian_residual_definition(a3star):
    p = ql.random_rep(a3star.quiver, a3star.dims, ql.make_rng(4))
    sigma = a3star.central.sigma_array()
    res = ql.hermitian_residual(p, sigma)
    zr = ql.zeta_real_lie(sigma, a3star.dims)
    want = -2j * (ql.moment_real(p) - zr)
    assert (res - want).norm() < 1e-12 * max(1.0, want.norm())
    for blk in res.blocks:
        assert np.linalg.norm(blk - blk.conj().T) < 1e-12 * max(1.0, np.linalg.norm(blk))


def test_zeta_and_central_lie(a3star):
    sigma = (0.5, -1.0, 2.0)
    zr = ql.zeta_real_lie(sigma, a3star.dims)
    for s, blk, n in zip(sigma, zr.blocks, a3star.dims.v):
        assert np.allclose(blk, 1j * s * np.eye(n))
    ce = ql.central_lie((1.0 + 2.0j, 0.0, -3.0j), a3star.dims)
    assert np.allclose(ce.blocks[0], (1 + 2j) * np.eye(1))
    assert np.allclose(ce.blocks[1], np.zeros((2, 2)))


def test_central_deviation(a3star):
    vals = (0.3, 0.3, 0.3)
    exact = ql.central_lie(vals, a3star.dims)
    assert ql.central_deviation(exact) < 1e-14
    bumped = exact.copy()
    bumped.blocks[1][0, 1] = 0.25
    assert abs(ql.central_deviation(bumped) - 0.25) < 1e-12


def test_lie_inner_linear_first_slot(a3star):
    rng = ql.make_rng(7)
    a = random_lie(a3star.dims, rng)
    b = random_lie(a3star.dims, rng)
    c = random_lie(a3star.dims, rng)
    z = 0.7 - 1.3j
    lhs = ql.lie_inner(z * a + b, c)
    rhs = z * ql.lie_inner(a, c) + ql.lie_inner(b, c)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))
    # conjugate symmetric, positive on the diagonal
    assert abs(ql.lie_inner(a, b) - np.conj(ql.lie_inner(b, a))) < 1e-12
    assert ql.lie_inner(a, a).real > 0
    assert abs(ql.lie_inner(a, a).imag) < 1e-12 * ql.lie_inner(a, a).real


def test_metric_diagonal_is_squared_norm(a3star):
    p = ql.random_rep(a3star.quiver, a3star.dims, ql.make_rng(9))
    val = ql.metric(p, p)
    assert abs(val - p.norm() ** 2) < 1e-12 * max(1.0, abs(val))


def test_metric_sesquilinear(a3star):
    rng = ql.make_rng(10)
    p = ql.random_rep(a3star.quiver, a3star.dims, rng)
    q = ql.random_rep(a3star.quiver, a3star.dims, rng)
    r = ql.random_rep(a3star.quiver, a3star.dims, rng)
    z = 1.1 + 0.4j
    assert abs(ql.metric(z * p + q, r) - (z * ql.metric(p, r) + ql.metric(q, r))) < 1e-12
    assert abs(ql.metric(p, z * q) - np.conj(z) * ql.metric(p, q)) < 1e-12


def test_symplectic_form_antisymmetric(a3star):
    rng = ql.make_rng(12)
    p = ql.random_rep(a3star.quiver, a3star.dims, rng)
    q = ql.random_rep(a3star.quiver, a3star.dims, rng)
    assert abs(ql.symplectic_form(p, q) + ql.symplectic_form(q, p)) < 1e-12
    # complex bilinear, not sesquilinear
    z = 0.3 - 2.0j
    assert abs(ql.symplectic_form(z * p, q) - z * ql.symplectic_form(p, q)) < 1e-11


def test_flatten_round_trip(a3star):
    p = ql.random_rep(a3star.quiver, a3star.dims, ql.make_rng(13))
    flat = p.flatten()
    assert flat.ndim == 1
    back = ql.RepPoint.from_flat(a3star.quiver, a3star.dims, flat)
    assert (back - p).norm() == 0.0
    assert np.array_equal(back.flatten(), flat)


def test_rep_point_refuses_wrong_slot_counts(a3star):
    q, d = a3star.quiver, a3star.dims
    p = ql.RepPoint.zeros(q, d)
    for B, i, j in ((p.B[:-1], p.i, p.j), (p.B + p.B[:1], p.i, p.j),
                    (p.B, p.i[:-1], p.j), (p.B, p.i, p.j + p.j[:1])):
        with pytest.raises(ValueError, match="matrices"):
            ql.RepPoint(q, d, B, i, j)


def test_dict_round_trip(a3star):
    p = ql.random_rep(a3star.quiver, a3star.dims, ql.make_rng(14))
    back = rep_from_dict(a3star.quiver, a3star.dims, p.to_dict())
    assert (back - p).norm() < 1e-15


def test_inf_action_adjoint_pairing(a3star):
    rng = ql.make_rng(15)
    p = ql.random_rep(a3star.quiver, a3star.dims, rng)
    q = ql.random_rep(a3star.quiver, a3star.dims, rng)
    xi = random_lie(a3star.dims, rng)
    lhs = ql.metric(ql.inf_action(p, xi), q)
    rhs = ql.lie_inner(xi, ql.inf_action_adjoint(p, q))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_dmu_complex_is_exact_derivative(a3star):
    # mu_C is quadratic: its directional derivative is the odd part, exactly
    rng = ql.make_rng(16)
    p = ql.random_rep(a3star.quiver, a3star.dims, rng)
    q = ql.random_rep(a3star.quiver, a3star.dims, rng)
    d = ql.dmu_complex(p, q)
    want = 0.5 * (ql.moment_complex(p + q) - ql.moment_complex(p - q))
    assert (d - want).norm() < 1e-12 * max(1.0, want.norm())


def test_equivariance_identity(a3star):
    # d mu_C(p, l_p xi) = [xi, mu_C(p)] blockwise
    rng = ql.make_rng(17)
    p = ql.random_rep(a3star.quiver, a3star.dims, rng)
    xi = random_lie(a3star.dims, rng)
    lhs = ql.dmu_complex(p, ql.inf_action(p, xi))
    mc = ql.moment_complex(p)
    comm = ql.LieElement(a3star.dims,
                         [x @ m - m @ x for x, m in zip(xi.blocks, mc.blocks)])
    assert (lhs - comm).norm() < 1e-12 * max(1.0, comm.norm())


def test_gauge_action_composition(a3star):
    rng = ql.make_rng(18)
    p = ql.random_rep(a3star.quiver, a3star.dims, rng)
    g1 = ql.lie_exp(random_lie(a3star.dims, rng, scale=0.3))
    g2 = ql.lie_exp(random_lie(a3star.dims, rng, scale=0.3))
    a = ql.gauge_act(g1, ql.gauge_act(g2, p))
    b = ql.gauge_act(ql.GaugeElement.from_matrix(a3star.dims, g1.mat @ g2.mat), p)
    assert (a - b).norm() < 1e-10 * max(1.0, b.norm())


def test_gauge_preserves_complex_moment_conjugation(a3star):
    rng = ql.make_rng(19)
    p = ql.random_rep(a3star.quiver, a3star.dims, rng)
    g = ql.lie_exp(random_lie(a3star.dims, rng, scale=0.4))
    mc = ql.moment_complex(p)
    mc_g = ql.moment_complex(ql.gauge_act(g, p))
    want = ql.LieElement(a3star.dims,
                         [gi @ m @ np.linalg.inv(gi)
                          for gi, m in zip(g.g, mc.blocks)])
    assert (mc_g - want).norm() < 1e-10 * max(1.0, want.norm())


def test_unitary_gauge_preserves_real_moment_norm(a3star):
    rng = ql.make_rng(20)
    p = ql.random_rep(a3star.quiver, a3star.dims, rng)
    skew = random_lie(a3star.dims, rng, scale=0.5)
    skew = ql.LieElement(a3star.dims,
                         [0.5 * (b - b.conj().T) for b in skew.blocks])
    u = ql.lie_exp(skew)
    assert unitary_defect(u) < 1e-12
    assert abs(ql.moment_real(ql.gauge_act(u, p)).norm()
               - ql.moment_real(p).norm()) < 1e-10
