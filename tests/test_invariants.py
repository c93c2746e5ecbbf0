"""Path and loop functionals: enumeration, evaluation, invariance, escape."""

import numpy as np
import pytest

import quiverlim as ql
from quiverlim.config import IDENTITY_TOL

from conftest import (COMMITTED_QUIVERS, escape_profile, fingerprint_by_paths,
                      fingerprint_distance, get_setup, is_nilpotent_by_paths,
                      nilpotency_bound, nilpotent_by_paths, quiver_spec, random_lie,
                      verify_pair)


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


@pytest.mark.parametrize("text", ["P:c5.j5", "L:h3.h3~", "P:c-1.j-1"])
def test_eval_path_rejects_unknown_tokens(tstar, text):
    # tstar-p1 has one vertex and no edges: no slot answers c5, h3 or c-1
    p = ql.random_rep(tstar.quiver, tstar.dims, ql.make_rng(43))
    with pytest.raises(ValueError, match="unknown path token"):
        ql.eval_path(p, ql.PathSpec.parse(text))


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


def test_fingerprint_matches_labels():
    # write_outputs and `quiverlim invariants` pair labels with values by
    # position: each value must be the entry its label names
    for spec in COMMITTED_QUIVERS:
        quiver, dims, _, _ = ql.resolve_quiver_spec(quiver_spec(spec))
        p = ql.random_rep(quiver, dims, ql.make_rng(42))
        for max_len in range(1, 6):
            fp = ql.fingerprint(p, max_len)
            labels = ql.fingerprint_labels(quiver, dims, max_len)
            assert fp.shape == (len(labels),), (spec, max_len)
            assert fp.dtype == np.float64
            for value, label in zip(fp, labels):
                path, _, rest = label.partition("[")
                entry, part = rest.split("]:")
                m = ql.eval_path(p, ql.PathSpec.parse(path))
                x = np.trace(m) if entry == "tr" else m[tuple(map(int, entry.split(",")))]
                assert value == (x.real if part == "re" else x.imag), (spec, label)


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
    assert fingerprint_distance(p, p, 4) == 0.0
    d = fingerprint_distance(p, q, 4)
    assert d > 0
    assert abs(d - fingerprint_distance(q, p, 4)) < 1e-12
    g = ql.lie_exp(random_lie(kronecker.dims, rng, scale=0.4))
    assert fingerprint_distance(ql.gauge_act(g, p), p, 4) < 1e-9 * max(1.0, d)


def test_nilpotency(tstar):
    p0 = tstar.p0
    assert ql.is_nilpotent(p0)
    A = tstar.slice_point(seed=46)
    assert not ql.is_nilpotent(p0 + A)
    assert nilpotency_bound(tstar.dims) == 2


def test_nilpotency_sees_a_small_framing_lifted_by_large_edges():
    # i0 = 1e-4 is below CHECK_TOL, but the edges (1e3 each) lift the path
    # c0.h0.h1.j2 to 100; i0 is above the rank cut SV_RATIO * 1e3, so the
    # kernel flag stops at K_1 = 0
    q = ql.Quiver(3, ((0, 1), (1, 2)))
    d = ql.DimensionVectors(v=(1, 1, 1), w=(1, 0, 1))
    p = ql.RepPoint.zeros(q, d)
    p.B[0][0, 0] = p.B[1][0, 0] = 1e3
    p.i[0][0, 0] = 1e-4
    p.j[2][0, 0] = 1.0
    assert not ql.is_nilpotent(p)
    assert not is_nilpotent_by_paths(p)
    # the rank cut is relative: i0 = 1e-9, 1e-12 of the largest slot, counts
    # as zero although the path lifts it to 1e-3
    p.i[0][0, 0] = 1e-9
    assert ql.is_nilpotent(p)
    assert not is_nilpotent_by_paths(p)


@pytest.mark.parametrize("spec", COMMITTED_QUIVERS + ("tests/quivers/cycle3.json",))
def test_kernel_flag_agrees_with_the_path_oracle(spec):
    # p0 and p0 + A of seeds 0-3, all 8 points in one pass of the path oracle
    points = []
    for seed in range(4):
        p0, A = verify_pair(spec, seed)
        points += [p0, p0 + A]
    assert [ql.is_nilpotent(p) for p in points] == nilpotent_by_paths(points)


def _triangular_rep(quiver, dims, rng):
    """A random point whose framed representation on C + V maps every line
    only into earlier ones, with the line infinity first and the lines of V
    in a random order: so i = 0, j is arbitrary and B strictly triangular."""
    order = rng.permutation(sum(dims.v)) + 1
    first = np.cumsum((0,) + dims.v)
    p = ql.RepPoint.zeros(quiver, dims)
    for (r, c), m in zip(p.layout.spaces, p.slots):
        rows, cols = (np.zeros(n, dtype=int) if node < 0 else order[first[node]:first[node + 1]]
                      for node, n in ((r, m.shape[0]), (c, m.shape[1])))
        m[...] = (rows[:, None] < cols) * (rng.standard_normal(m.shape)
                                           + 1j * rng.standard_normal(m.shape))
    return p


@pytest.mark.parametrize("seed", range(4))
def test_kernel_flag_on_a_gauge_moved_triangular_rep(seed):
    # the A4 chain (2,3,3,2): paths up to 2 sum(v) = 20 tokens number 3.6
    # million, out of reach of the path oracle
    quiver, dims, _, _ = ql.resolve_quiver_spec(quiver_spec("tests/quivers/a4_chain.json"))
    rng = ql.make_rng(60 + seed)
    p = _triangular_rep(quiver, dims, rng)
    assert np.any(p.j[0]) and any(np.any(b) for b in p.B)
    g = ql.lie_exp(random_lie(dims, rng, scale=0.5))
    assert ql.is_nilpotent(ql.gauge_act(g, p))
    assert np.abs(ql.fingerprint(ql.gauge_act(g, p), 4)).max() <= 1e-10
    # one arrow infinity -> V_0 closes the cycle c0.j0
    p.i[0][0, 0] = 1.0
    q = ql.gauge_act(g, p)
    assert abs(ql.eval_path(q, ql.PathSpec.parse("P:c0.j0"))[0, 0]) > 1e-3
    assert not ql.is_nilpotent(q)


def test_zero_invariant_guard(tstar):
    p0 = tstar.p0
    path = ql.PathSpec.parse("P:c0.j0")
    assert ql.invariant_size(p0, path) < 1e-14
    with pytest.raises(ql.ZeroInvariant):
        ql.escape_slope(p0, ql.RepPoint.zeros(tstar.quiver, tstar.dims), [path],
                        tstar.grading)


def test_escape_exponent_counts_reversals_and_exits(kronecker):
    def exponent(text):
        return ql.path_escape_exponent(ql.PathSpec.parse(text),
                                       kronecker.quiver, kronecker.dims)
    assert exponent("P:c0.j0") == 1
    assert exponent("L:h0.h1~") == 1
    assert exponent("L:h0.h0~.h1.h1~") == 2
    assert exponent("P:c0.h0.h0~.j0") == 2


def test_escape_exponent_refuses_unknown_tokens(tstar):
    # tstar-p1 has no edges and no vertex named x
    with pytest.raises(ValueError, match="unknown path token"):
        ql.path_escape_exponent(ql.PathSpec.parse("P:jx.h9~"),
                                tstar.quiver, tstar.dims)


def test_escape_slope_on_smallest_example(tstar):
    A = tstar.slice_point(seed=47)
    study, = ql.escape_slope(tstar.p0, A, [ql.PathSpec.parse("P:c0.j0")],
                             tstar.grading)
    assert study.expected_exponent == 1
    assert abs(study.slope + 1.0) < 0.2
    assert study.slope == -1
    assert study.mismatch <= IDENTITY_TOL


def test_escape_profile_monotone(tstar):
    A = tstar.slice_point(seed=48)
    prof = escape_profile(tstar.p0, A, tstar.grading, (0.4, 0.2, 0.1, 0.05), 4)
    values = [v for _, v in prof]
    assert values == sorted(values)
    assert values[-1] > values[0]


@pytest.mark.parametrize("name", ["tstar-p1", "a2-star", "kronecker2", "a3-star",
                                  "a3_chain", "d4_star"])
def test_fingerprint_matches_per_path_evaluation(name):
    if name in ql.PRESET_NAMES:
        s = get_setup(name)
        p0, A = s.p0, s.slice_point()
    else:
        p0, A = verify_pair(f"bench/quivers/{name}.json", 0)
    rand = ql.random_rep(p0.quiver, p0.dims, ql.make_rng(49))
    points = (("p0", p0), ("p0+A", p0 + A), ("random", rand))
    for label, p in points:
        for max_len in (4, 6):
            assert np.array_equal(ql.fingerprint(p, max_len),
                                  fingerprint_by_paths(p, max_len)), (label, max_len)
    by_paths = nilpotent_by_paths([p for _, p in points])
    for (label, p), want in zip(points, by_paths):
        assert ql.is_nilpotent(p) is want, label
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
    bound = nilpotency_bound(d)
    fp = ql.fingerprint(p, bound)
    labels = ql.fingerprint_labels(q, d, bound)
    assert {lab: v for lab, v in zip(labels, fp) if v} == \
        {"P:c0.h0.h1.h2.h3.j4[0,0]:im": 24.0}


@pytest.mark.parametrize("spec", list(ql.PRESET_NAMES) + [
    spec for spec in COMMITTED_QUIVERS if spec.endswith(".json")])
def test_stacked_fingerprints_match_one_walk_per_point(spec):
    quiver, dims, _, _ = ql.resolve_quiver_spec(quiver_spec(spec))
    rng = ql.make_rng(50)
    pts = [ql.random_rep(quiver, dims, rng) for _ in range(8)]
    pts.append(ql.RepPoint.zeros(quiver, dims))
    stacked = ql.fingerprints(pts, 4)
    assert stacked.shape[1] > 0
    assert np.array_equal(stacked, np.stack([ql.fingerprint(p, 4) for p in pts]))
    assert np.array_equal(stacked[0], fingerprint_by_paths(pts[0], 4))


def test_fingerprints_without_paths_have_no_columns():
    # no edges and no framing: no loop and no admissible path
    q = ql.Quiver(1, ())
    d = ql.DimensionVectors(v=(2,), w=(0,))
    pts = [ql.RepPoint.zeros(q, d), ql.RepPoint.zeros(q, d)]
    assert ql.fingerprints(pts, 4).shape == (2, 0)
    assert ql.fingerprint(pts[0], 4).shape == (0,)


def test_fingerprints_refuse_mixed_dimension_vectors(tstar, a3star):
    with pytest.raises(ValueError):
        ql.fingerprints([tstar.p0, a3star.p0], 4)
