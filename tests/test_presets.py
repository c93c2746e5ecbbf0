"""Bundled example quivers and their stored fixed points."""

import numpy as np
import pytest

import quiverlim as ql
from quiverlim.config import STABILITY_RATIO

# weights derived by hand from the stored fixed-point matrices:
# the scaling gauge that returns the point to itself is diagonal with
# integer exponents, one tuple of exponents per vertex
HAND_WEIGHTS = {
    "tstar-p1": ((0,),),
    "a2-star": ((0,), (1,)),
    "kronecker2": ((0,), (1,)),
    "a3-star": ((1,), (0, 1), (0,)),
}


def test_preset_names():
    assert set(ql.PRESET_NAMES) == {
        "tstar-p1", "a2-star", "a3-star", "kronecker2", "a2-wall"}
    with pytest.raises(KeyError):
        ql.get_preset("no-such-quiver")


def test_dimension_vectors_within_desk_scale():
    for name in ql.PRESET_NAMES:
        pre = ql.get_preset(name)
        assert pre.quiver.n <= 3
        assert all(v <= 4 for v in pre.dims.v)
        assert all(w <= 4 for w in pre.dims.w)


def test_wall_preset_has_no_distinguished_point():
    pre = ql.get_preset("a2-wall")
    assert pre.fixed_matrices is None
    with pytest.raises(ValueError):
        pre.fixed_point()


def test_stored_fixed_points_are_fixed_and_stable():
    for name in HAND_WEIGHTS:
        pre = ql.get_preset(name)
        p0 = pre.fixed_point()
        rep = ql.is_fixed_point(p0)
        assert rep.fixed, name
        smin, smax = ql.stability_margin(p0)
        assert smin > STABILITY_RATIO * max(1.0, smax), name
        assert rep.residual < 1e-10, name


def test_stored_fixed_points_sit_on_their_level():
    for name in HAND_WEIGHTS:
        pre = ql.get_preset(name)
        p0 = pre.fixed_point()
        assert ql.hermitian_residual(p0, pre.central.sigma_array()).norm() < 1e-10
        dev = (ql.moment_complex(p0)
               - ql.central_lie(pre.central.c_array(), pre.dims)).norm()
        assert dev < 1e-10


def test_weights_match_hand_computation():
    for name, want in HAND_WEIGHTS.items():
        p0 = ql.get_preset(name).fixed_point()
        grading = ql.weight_grading(p0)
        got = tuple(tuple(int(x) for x in wk) for wk in grading.weights)
        assert got == want, name


def test_preset_weights_field_agrees():
    for name in HAND_WEIGHTS:
        pre = ql.get_preset(name)
        p0 = pre.fixed_point()
        grading = ql.weight_grading(p0)
        got = tuple(tuple(int(x) for x in wk) for wk in grading.weights)
        assert got == tuple(tuple(w) for w in pre.weights), name
