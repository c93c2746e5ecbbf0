"""Path and loop functionals: enumeration, evaluation, invariance, escape."""

import pathlib

import numpy as np
import pytest

import quiverlim as ql
from quiverlim.config import TOL
from quiverlim.invariants import invariant_sizes
from quiverlim.sampling import attracting_increment

from conftest import (escape_profile, fingerprint_by_paths, get_setup,
                      is_nilpotent_by_paths, random_lie)

ROOT = pathlib.Path(__file__).resolve().parents[1]


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


def _bench_point_pair(name):
    """(p0, A) for a bench quiver file, built as the escape command builds them."""
    quiver, dims, central, _ = ql.resolve_quiver_spec(
        str(ROOT / "bench" / "quivers" / f"{name}.json"))
    smp = ql.sample_on_variety(quiver, dims, central, seed=0)
    p0 = ql.flow_limit(smp.point, central.sigma_array(), 4).limit
    grading = ql.weight_grading(p0)
    A = attracting_increment(ql.bb_tangent_basis(p0, grading), grading, 0, TOL)
    return p0, A


@pytest.mark.parametrize("name", ["tstar-p1", "a2-star", "kronecker2", "a3-star",
                                  "a3_chain", "d4_star"])
def test_prefix_walk_matches_per_path_evaluation(name):
    if name in ql.PRESET_NAMES:
        s = get_setup(name)
        p0, A = s.p0, s.slice_point()
    else:
        p0, A = _bench_point_pair(name)
    rand = ql.random_rep(p0.quiver, p0.dims, ql.make_rng(49))
    bound = ql.nilpotency_bound(p0.dims)
    for label, p in (("p0", p0), ("p0+A", p0 + A), ("random", rand)):
        for max_len in sorted({4, bound}):
            assert np.array_equal(ql.fingerprint(p, max_len),
                                  fingerprint_by_paths(p, max_len)), (label, max_len)
        for kind in ("loop", "admissible"):
            paths = ql.enumerate_paths(p.quiver, p.dims, 4, kind)
            assert invariant_sizes(p, 4, kind) == \
                [ql.invariant_size(p, ps) for ps in paths], (label, kind)
        assert ql.is_nilpotent(p) is is_nilpotent_by_paths(p), label
    assert ql.is_nilpotent(p0)


def test_only_the_longest_path_survives_on_a_forward_chain():
    # A5 with forward edges only, fed at vertex 0 and read at vertex 4: every
    # loop and every path but c0.h0.h1.h2.h3.j4 meets a zero matrix
    q = ql.Quiver(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    d = ql.DimensionVectors(v=(1, 1, 1, 1, 1), w=(1, 0, 0, 0, 1))
    p = ql.RepPoint.zeros(q, d)
    for e in range(4):
        p.B[e][0, 0] = 1.0 + e
    p.i[0][0, 0] = 0.5j
    p.j[4][0, 0] = 2.0
    assert not np.any(ql.fingerprint(p, 4))
    assert not ql.is_nilpotent(p)
    assert not is_nilpotent_by_paths(p)
    bound = ql.nilpotency_bound(d)
    fp = ql.fingerprint(p, bound)
    labels = ql.fingerprint_labels(q, d, bound)
    assert {lab: v for lab, v in zip(labels, fp) if v} == \
        {"P:c0.h0.h1.h2.h3.j4[0,0]:im": 24.0}
