"""Path and loop functionals: enumeration, evaluation, invariance, escape."""

import numpy as np
import pytest

import quiverlim as ql

from conftest import escape_profile, random_lie


def test_admissible_enumeration_no_edges(tstar):
    paths = ql.enumerate_paths(tstar.quiver, tstar.dims, 4, "admissible")
    assert [".".join(t.tokens) for t in paths] == ["c0.j0", "c0.j0.c0.j0"]
    assert ql.enumerate_paths(tstar.quiver, tstar.dims, 4, "loop") == ()


def test_enumeration_shortest_first(kronecker):
    loops = ql.enumerate_paths(kronecker.quiver, kronecker.dims, 4, "loop")
    lengths = [len(t.tokens) for t in loops]
    assert lengths == sorted(lengths)
    labels = [".".join(t.tokens) for t in loops]
    assert "h0.h0~" in labels
    assert "h0.h1~" in labels


def test_path_spec_parse_round_trip():
    for text in ("P:c0.j0", "L:h0.h1~", "P:c0.h0.h0~.j0"):
        ps = ql.PathSpec.parse(text)
        kind = "admissible" if text.startswith("P:") else "loop"
        assert ps.kind == kind
        assert text.split(":", 1)[1] == ".".join(ps.tokens)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        ql.PathSpec.parse("X:c0.j0")
    with pytest.raises(ValueError):
        ql.PathSpec.parse("P:")


def test_eval_path_by_hand(tstar):
    p = ql.random_rep(tstar.quiver, tstar.dims, ql.make_rng(40))
    val = ql.eval_path(p, ql.PathSpec.parse("P:c0.j0"))
    assert np.allclose(val, p.j[0] @ p.i[0])
    val2 = ql.eval_path(p, ql.PathSpec.parse("P:c0.j0.c0.j0"))
    assert np.allclose(val2, p.j[0] @ p.i[0] @ p.j[0] @ p.i[0])


def test_eval_loop_by_hand(kronecker):
    p = ql.random_rep(kronecker.quiver, kronecker.dims, ql.make_rng(41))
    # trace of the 2-edge loop through both vertex spaces
    val = ql.eval_path(p, ql.PathSpec.parse("L:h0.h1~"))
    hand = np.trace(p.B[3] @ p.B[0])
    assert abs(complex(val.item()) - hand) < 1e-12 * max(1.0, abs(hand))


def test_fingerprint_matches_labels(kronecker):
    p = ql.random_rep(kronecker.quiver, kronecker.dims, ql.make_rng(42))
    fp = ql.fingerprint(p, 4)
    labels = ql.fingerprint_labels(kronecker.quiver, kronecker.dims, 4)
    assert fp.shape == (len(labels),)
    assert fp.dtype == np.float64
    k = labels.index("L:h0.h1~[tr]:re")
    want = np.trace(p.B[3] @ p.B[0])
    assert abs(fp[k] - want.real) < 1e-12
    assert abs(fp[labels.index("L:h0.h1~[tr]:im")] - want.imag) < 1e-12


def test_fingerprint_gauge_invariance(kronecker):
    rng = ql.make_rng(43)
    p = ql.random_rep(kronecker.quiver, kronecker.dims, rng)
    fp = ql.fingerprint(p, 4)
    for _ in range(5):
        g = ql.lie_exp(random_lie(kronecker.dims, rng, scale=0.5))
        fp2 = ql.fingerprint(ql.gauge_act(g, p), 4)
        assert np.linalg.norm(fp2 - fp) < 1e-9 * max(1.0, np.linalg.norm(fp))


def test_loop_trace_cyclic_invariance(kronecker):
    p = ql.random_rep(kronecker.quiver, kronecker.dims, ql.make_rng(44))
    a = ql.eval_path(p, ql.PathSpec.parse("L:h0.h1~"))
    b = ql.eval_path(p, ql.PathSpec.parse("L:h1~.h0"))
    assert abs(complex(a.item()) - complex(b.item())) < 1e-12


def test_fingerprint_distance_properties(kronecker):
    rng = ql.make_rng(45)
    p = ql.random_rep(kronecker.quiver, kronecker.dims, rng)
    q = ql.random_rep(kronecker.quiver, kronecker.dims, rng)
    assert ql.fingerprint_distance(p, p, 4) == 0.0
    d = ql.fingerprint_distance(p, q, 4)
    assert d > 0
    assert abs(d - ql.fingerprint_distance(q, p, 4)) < 1e-12
    g = ql.lie_exp(random_lie(kronecker.dims, rng, scale=0.4))
    assert ql.fingerprint_distance(ql.gauge_act(g, p), p, 4) < 1e-9 * max(1.0, d)


def test_nilpotency(tstar):
    p0 = tstar.p0
    assert ql.is_nilpotent(p0)
    A = tstar.slice_point(seed=46)
    assert not ql.is_nilpotent(p0 + A)
    assert ql.nilpotency_bound(tstar.dims) == 2


def test_zero_invariant_guard(tstar):
    p0 = tstar.p0
    path = ql.PathSpec.parse("P:c0.j0")
    assert ql.invariant_size(p0, path) < 1e-14
    with pytest.raises(ql.ZeroInvariant):
        ql.escape_slope(p0, ql.RepPoint.zeros(tstar.quiver, tstar.dims),
                        (0.04, 0.02), path)


def test_escape_exponent_counts_reversals_and_exits():
    assert ql.path_escape_exponent(ql.PathSpec.parse("P:c0.j0")) == 1
    assert ql.path_escape_exponent(ql.PathSpec.parse("L:h0.h1~")) == 1
    assert ql.path_escape_exponent(ql.PathSpec.parse("L:h0.h0~.h1.h1~")) == 2
    assert ql.path_escape_exponent(ql.PathSpec.parse("P:c0.h0.h0~.j0")) == 2


def test_escape_slope_on_smallest_example(tstar):
    A = tstar.slice_point(seed=47)
    study = ql.escape_slope(tstar.p0, A, (0.04, 0.02, 0.01, 0.005),
                            ql.PathSpec.parse("P:c0.j0"))
    assert study.expected_exponent == 1
    assert abs(study.slope + 1.0) < 0.2
    assert study.used == 4


def test_escape_profile_monotone(tstar):
    A = tstar.slice_point(seed=48)
    prof = escape_profile(tstar.p0, A, (0.4, 0.2, 0.1, 0.05), 4)
    values = [v for _, v in prof]
    assert values == sorted(values)
    assert values[-1] > values[0]
