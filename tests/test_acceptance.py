"""Acceptance gate: every headline property at its contract tolerance.

Each test covers one numbered criterion and prints a single summary line with
the worst measured value once its assertions pass.  All computations run on
desk-scale quivers (n <= 3, blocks <= 4) and finish in seconds.
"""

import numpy as np

import quiverlim as ql

from conftest import (component_norm, escape_profile, gauge_cond, get_setup,
                      linearized_operator, random_lie)


def _report(num: int, text: str, worst: float):
    print(f"PASS criterion {num}: {text} (worst {worst:.3e})")


def test_criterion_01_twistor_rotation_on_variety():
    # 100 on-variety points across two quivers, |xi| <= 2:
    # mu_R rotates to (1-|xi|^2) zeta_R and mu_C to -2i xi zeta_R, at 1e-10
    worst = 0.0
    rng = ql.make_rng(1001)
    for name in ("tstar-p1", "a2-star"):
        s = get_setup(name)
        sigma = s.central.sigma_array()
        zr = ql.zeta_real_lie(sigma, s.dims)
        for seed in range(50):
            # tighten the sample below the bound: the rotation amplifies the
            # sampling residual by up to 1 + |xi|^2
            p = ql.sample_on_variety(s.quiver, s.dims, s.central, seed=seed).point
            p = ql.solve_real_moment(p, sigma, tol=1e-12).point
            z = rng.uniform(0, 2) * np.exp(2j * np.pi * rng.uniform())
            q = ql.twistor_rotate(p, z)
            dr = (ql.moment_real(q) - (1 - abs(z) ** 2) * zr).norm()
            dc = (ql.moment_complex(q) + 2j * z * zr).norm()
            worst = max(worst, dr, dc)
            assert dr <= 1e-10
            assert dc <= 1e-10
    _report(1, "twistor rotation moment values on 100 variety points", worst)


def test_criterion_02_adjoint_identity():
    # <l_p xi, q> = <xi, l_p* q> and <L(p, xi), xi> = |l_p xi|^2, 100 draws
    s = get_setup("a3-star")
    rng = ql.make_rng(1002)
    worst = 0.0
    for _ in range(100):
        p = ql.random_rep(s.quiver, s.dims, rng)
        q = ql.random_rep(s.quiver, s.dims, rng)
        xi = random_lie(s.dims, rng)
        lhs = ql.metric(ql.inf_action(p, xi), q)
        rhs = ql.lie_inner(xi, ql.inf_action_adjoint(p, q))
        d1 = abs(lhs - rhs)
        herm = random_lie(s.dims, rng, klass="hermitian")
        e_lhs = ql.lie_inner(linearized_operator(p, herm), herm)
        act = ql.inf_action(p, herm)
        d2 = abs(e_lhs - ql.metric(act, act))
        worst = max(worst, d1, d2)
        assert d1 <= 1e-10
        assert d2 <= 1e-10
    _report(2, "action adjoint and energy identities on 100 draws", worst)


def test_criterion_03_half_dimension():
    # chart tangent counts: full = expected dimension, attracting = half
    for name, full_real, bb_real in (("tstar-p1", 4, 2), ("a2-star", 4, 2)):
        s = get_setup(name)
        v = np.array(s.dims.v)
        w = np.array(s.dims.w)
        hand = 2 * (2 * v @ w - v @ ql.cartan_matrix(s.quiver) @ v)
        assert ql.expected_dimension(s.quiver, s.dims) == hand == full_real
        assert s.full_basis.real_dimension() == full_real
        assert s.basis.real_dimension() == bb_real
        assert 2 * s.basis.count() == s.full_basis.count()
    _report(3, "tangent spaces exactly halve on the attracting chart", 0.0)


def test_criterion_04_bb_isotropy():
    worst = 0.0
    for name in ("tstar-p1", "a2-star", "a3-star", "kronecker2"):
        s = get_setup(name)
        for u in s.basis.vectors:
            for v in s.basis.vectors:
                val = abs(ql.symplectic_form(u, v))
                worst = max(worst, val)
                assert val <= 1e-12
    _report(4, "attracting tangent bases are symplectically isotropic", worst)


def test_criterion_05_conformal_representative_level():
    # the rescaled-rotated representative sits on the complex level -2i zeta_R
    worst = 0.0
    rng = ql.make_rng(1005)
    for name in ("tstar-p1", "a2-star"):
        s = get_setup(name)
        sigma = s.central.sigma_array()
        zr = ql.zeta_real_lie(sigma, s.dims)
        for k in range(25):
            inc = s.increment(seed=2000 + k, scale=0.4)
            hbar = rng.uniform(0.3, 2.0) * np.exp(1j * rng.uniform(-0.5, 0.5))
            pA = ql.conformal_point(inc, hbar)
            dev = (ql.moment_complex(pA) + 2j * zr).norm()
            worst = max(worst, dev)
            assert dev <= 1e-10
    _report(5, "conformal representatives hold their complex level, 50 draws", worst)


def test_criterion_06_graded_scaling_slopes():
    # gauge exponent blocks scale as R^{|m|+2} along the attracting direction
    grid = (0.2, 0.1, 0.05)
    worst = 0.0
    for name, ms in (("a2-star", (0,)), ("a3-star", (-1, 0, 1))):
        s = get_setup(name)
        A = s.slice_point(seed=2100)
        sigma = s.central.sigma_array()
        norms = {m: [] for m in ms}
        for R in grid:
            xi = ql.solve_real_moment(s.p0 + s.grading.act(R, A), sigma).xi
            for m in ms:
                norms[m].append(component_norm(s.grading, xi, m))
        for m in ms:
            slope = np.polyfit(np.log(grid), np.log(norms[m]), 1)[0]
            dev = abs(slope - (abs(m) + 2))
            worst = max(worst, dev)
            assert dev <= 0.3, (name, m, slope)
    _report(6, "solver exponent blocks scale with weight plus two", worst)


def test_criterion_07_conformal_limit_convergence():
    # quadratic approach to the limit for hbar in {1, 0.5}; zero datum is flat
    s = get_setup("tstar-p1")
    inc = s.increment(seed=2200)
    assert any(np.linalg.norm(j) > 1e-8 for j in inc.A.j)
    sigma = s.central.sigma_array()
    worst = 0.0
    for rep in ql.convergence_study(inc, sigma, (1.0, 0.5), (0.4, 0.2, 0.1, 0.05)):
        assert not rep.degenerate
        assert 1.75 <= rep.slope <= 2.5
        worst = max(worst, abs(rep.slope - 2.0))
    zero = ql.check_slice_increment(ql.RepPoint.zeros(s.quiver, s.dims), s.grading)
    flat, = ql.convergence_study(zero, sigma, (1.0,), (0.4, 0.2, 0.1, 0.05))
    assert flat.degenerate
    _report(7, "family converges at order two; zero datum reports degenerate",
            worst)


def test_criterion_08_fingerprint_gauge_invariance():
    s = get_setup("kronecker2")
    rng = ql.make_rng(1008)
    p = ql.sample_on_variety(s.quiver, s.dims, s.central, seed=8).point
    base = ql.fingerprint(p, 4)
    scale = max(1.0, float(np.max(np.abs(base))))
    worst = 0.0
    for _ in range(100):
        g = ql.lie_exp(random_lie(s.dims, rng, scale=0.5))
        assert gauge_cond(g) <= 1e3
        rel = float(np.max(np.abs(ql.fingerprint(ql.gauge_act(g, p), 4) - base))) / scale
        worst = max(worst, rel)
        assert rel <= 1e-9
    _report(8, "fingerprints survive 100 complex gauge moves", worst)


def test_criterion_09_escape_rates():
    worst = 0.0
    # one framing exit: first-order blow-up
    s = get_setup("tstar-p1")
    inc = s.increment(seed=2300)
    study, = ql.escape_slope(inc, [ql.PathSpec.parse("P:c0.j0")])
    dev = abs(study.slope + 1.0)
    worst = max(worst, dev)
    assert dev <= 0.2
    # a loop crossing two reversed edges: second-order blow-up
    k = get_setup("kronecker2")
    inc_k = k.increment(seed=2301)
    loops = [t for t in ql.enumerate_paths(k.quiver, k.dims, 4, "loop")
             if ql.path_escape_exponent(t, k.quiver, k.dims) == 2
             and ql.invariant_size(k.p0 + inc_k.A, t) > 1e-6]
    assert loops, "need a loop with two reversed edges alive on the slice"
    study2, = ql.escape_slope(inc_k, [loops[0]])
    dev2 = abs(study2.slope + 2.0)
    worst = max(worst, dev2)
    assert dev2 <= 0.2
    # the largest invariant grows monotonically once hbar passes the threshold
    prof = escape_profile(inc, (0.4, 0.2, 0.1, 0.05, 0.025), 4)
    values = [v for _, v in prof]
    assert all(b > a for a, b in zip(values, values[1:]))
    _report(9, "invariants blow up at the predicted rates", worst)


def test_criterion_10_gauge_uniqueness():
    # two damping schedules, 50 starts: the positive gauge factor agrees to 1e-8
    worst = 0.0
    rng = ql.make_rng(1010)
    for name in ("tstar-p1", "a3-star"):
        s = get_setup(name)
        sigma = s.central.sigma_array()
        for seed in range(25):
            base = ql.sample_on_variety(s.quiver, s.dims, s.central,
                                        seed=3000 + seed).point
            r = rng.uniform(0.5, 0.9)
            start = ql.cstar_act(r, base)
            a = ql.solve_real_moment(start, sigma)
            b = ql.solve_real_moment(start, sigma, forced_damping=(0.5, 0.5, 0.5))
            ga, gb = ql.lie_exp(a.xi), ql.lie_exp(b.xi)
            d = max((np.linalg.norm(x - y) for x, y in zip(ga.g, gb.g)),
                    default=0.0)
            worst = max(worst, d)
            assert d <= 1e-8
    _report(10, "the real-moment gauge is schedule-independent, 50 starts",
            worst)
