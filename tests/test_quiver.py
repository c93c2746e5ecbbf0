"""Quiver combinatorics, genericity walls, and file round-trips."""

import json

import numpy as np
import pytest

import quiverlim as ql


def test_doubling_indexing():
    q = ql.Quiver(3, ((0, 1), (1, 2)))
    assert q.num_edges == 2
    assert q.num_h == 4
    # first block keeps the chosen orientation, second block reverses it
    assert (q.h_out(0), q.h_in(0)) == (0, 1)
    assert (q.h_out(1), q.h_in(1)) == (1, 2)
    assert (q.h_out(2), q.h_in(2)) == (1, 0)
    assert (q.h_out(3), q.h_in(3)) == (2, 1)
    for h in range(q.num_h):
        assert q.h_bar(q.h_bar(h)) == h
        assert q.h_eps(h) == (1 if h < q.num_edges else -1)
        assert q.h_out(q.h_bar(h)) == q.h_in(h)
    assert sorted(q.h_into(1)) == [0, 3]
    assert sorted(q.h_into(0)) == [2]


def test_loops_rejected():
    with pytest.raises(ValueError):
        ql.Quiver(2, ((1, 1),))


def test_edge_bounds_rejected():
    with pytest.raises(ValueError):
        ql.Quiver(2, ((0, 2),))


def test_adjacency_count():
    q = ql.Quiver(2, ((0, 1), (0, 1)))
    assert np.array_equal(q.adjacency_count(), [[0, 2], [2, 0]])


def test_cartan_matrix():
    q = ql.Quiver(3, ((0, 1), (1, 2)))
    expect = np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    assert np.array_equal(ql.cartan_matrix(q), expect)
    q2 = ql.Quiver(2, ((0, 1), (0, 1)))
    assert np.array_equal(ql.cartan_matrix(q2), [[2, -2], [-2, 2]])


def test_positive_roots_bounded():
    # A2: roots below v=(1,1) are (1,0), (0,1), (1,1)
    q = ql.Quiver(2, ((0, 1),))
    dims = ql.DimensionVectors(v=(1, 1), w=(2, 0))
    roots = set(ql.positive_roots_bounded(q, dims))
    assert roots == {(1, 0), (0, 1), (1, 1)}


def test_rep_dim():
    q = ql.Quiver(2, ((0, 1),))
    dims = ql.DimensionVectors(v=(2, 1), w=(1, 1))
    # complex dimension: edges both ways (2 + 2) plus framing (2 + 2 + 1 + 1)
    assert ql.rep_dim(q, dims) == 2 * 2 * 1 + 2 * (2 * 1 + 1 * 1)


def test_expected_dimension_matches_hand_formula():
    # dim_R = 2 (2 v.w - v^T C v) with C the Cartan matrix of the graph
    cases = [
        ("tstar-p1", 4),
        ("a2-star", 4),
        ("kronecker2", 4),
        ("a3-star", 8),
    ]
    for name, dim in cases:
        pre = ql.get_preset(name)
        assert ql.expected_dimension(pre.quiver, pre.dims) == dim
        v = np.array(pre.dims.v)
        w = np.array(pre.dims.w)
        hand = 2 * (2 * v @ w - v @ ql.cartan_matrix(pre.quiver) @ v)
        assert ql.expected_dimension(pre.quiver, pre.dims) == hand


def test_genericity_of_presets():
    for name in ("tstar-p1", "a2-star", "a3-star", "kronecker2"):
        pre = ql.get_preset(name)
        assert ql.is_generic(pre.central, pre.quiver, pre.dims)
    wall = ql.get_preset("a2-wall")
    assert not ql.is_generic(wall.central, wall.quiver, wall.dims)


def test_wall_margins_report_offending_root():
    wall = ql.get_preset("a2-wall")
    margins = ql.wall_margins(wall.central, wall.quiver, wall.dims)
    zeros = [row for row in margins if row[1] == 0]
    assert zeros, "a parameter on a wall must report a vanishing margin"


def test_wall_test_is_exact_for_rationals():
    # sigma values that cancel only exactly: 1/3 + 1/3 - 2/3 = 0 on theta=(1,1,1)
    q = ql.Quiver(3, ((0, 1), (1, 2)))
    dims = ql.DimensionVectors(v=(1, 1, 1), w=(1, 0, 1))
    from fractions import Fraction
    zeta = ql.CentralParameter(
        sigma=(Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)),
        c=(0, 0, 0))
    assert not ql.is_generic(zeta, q, dims)


def test_walls_are_cached_per_kind_of_entry():
    # equal parameters, one exact and one in floats: 1/2 + (-1/2 + 1e-13)
    # is off the theta=(1,1) wall exactly but within WALL_TOL of it, so the
    # cache must not hand one parameter's walls to the other
    from fractions import Fraction
    q = ql.Quiver(2, ((0, 1),))
    dims = ql.DimensionVectors(v=(1, 1), w=(1, 0))
    inexact = ql.CentralParameter(sigma=(0.5, -0.5 + 1e-13), c=(0.0, 0.0))
    exact = ql.CentralParameter(sigma=(Fraction(1, 2), Fraction(-0.5 + 1e-13)), c=(0, 0))
    assert exact == inexact
    assert not ql.is_generic(inexact, q, dims)
    assert ql.is_generic(exact, q, dims)
    on_walls = ql.walls(inexact, q, dims)
    assert isinstance(on_walls, tuple) and ql.walls(inexact, q, dims) is on_walls


def test_dict_round_trip():
    pre = ql.get_preset("a3-star")
    data = ql.quiver_to_dict(pre.quiver, pre.dims, pre.central)
    q2, d2, z2 = ql.quiver_from_dict(data)
    assert q2.n == pre.quiver.n
    assert q2.edges == pre.quiver.edges
    assert d2 == pre.dims
    assert np.allclose(z2.sigma_array(), pre.central.sigma_array())
    assert np.allclose(z2.c_array(), pre.central.c_array())


def test_load_quiver_file(tmp_path):
    pre = ql.get_preset("kronecker2")
    path = tmp_path / "kron.json"
    path.write_text(json.dumps(ql.quiver_to_dict(pre.quiver, pre.dims, pre.central)))
    q2, d2, z2 = ql.load_quiver_file(str(path))
    assert q2.edges == pre.quiver.edges
    assert d2 == pre.dims


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": 2}))
    with pytest.raises((ValueError, KeyError)):
        ql.load_quiver_file(str(path))


def test_resolve_quiver_spec(tmp_path):
    quiver, dims, central, preset = ql.resolve_quiver_spec("tstar-p1")
    assert preset is not None and preset.name == "tstar-p1"
    pre = ql.get_preset("a2-star")
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(ql.quiver_to_dict(pre.quiver, pre.dims, pre.central)))
    quiver2, dims2, central2, preset2 = ql.resolve_quiver_spec(str(path))
    assert preset2 is None
    assert dims2 == pre.dims
