"""Twistor rotation, the rescaled-rotated family, and its small-R limit."""

import numpy as np
import pytest

import quiverlim as ql
from quiverlim import conformal
from quiverlim.sampling import attracting_increment

from conftest import convergence_rows, fingerprint_distance, get_setup


def test_twistor_moment_identities(a3star):
    # exact for every point, not only on the variety
    p = ql.random_rep(a3star.quiver, a3star.dims, ql.make_rng(60))
    mr, mc = ql.moment_real(p), ql.moment_complex(p)
    for xi in (0.3 - 0.7j, 1.2 + 0.4j, -2.0j):
        q = ql.twistor_rotate(p, xi)
        pred_r = ((1 - abs(xi) ** 2) * mr
                  + (-1j * np.conj(xi)) * mc + (-1j * xi) * mc.dagger())
        pred_c = mc + (-2j * xi) * mr + (-xi ** 2) * mc.dagger()
        assert (ql.moment_real(q) - pred_r).norm() < 1e-12 * max(1.0, pred_r.norm())
        assert (ql.moment_complex(q) - pred_c).norm() < 1e-12 * max(1.0, pred_c.norm())


def test_twistor_zero_is_identity(a3star):
    p = ql.random_rep(a3star.quiver, a3star.dims, ql.make_rng(61))
    assert (ql.twistor_rotate(p, 0.0) - p).norm() == 0.0


def test_twistor_on_variety(tstar, tstar_sample):
    # starting on the variety, the rotated moment values are forced
    p = tstar_sample.point
    sigma = tstar.central.sigma_array()
    zr = ql.zeta_real_lie(sigma, tstar.dims)
    for xi in (0.5, 0.3 + 0.4j, 1.0):
        q = ql.twistor_rotate(p, xi)
        dr = (ql.moment_real(q) - (1 - abs(xi) ** 2) * zr).norm()
        dc = (ql.moment_complex(q) + 2j * xi * zr).norm()
        assert dr < 1e-9
        assert dc < 1e-9


def test_conformal_point_level(tstar):
    # the conformal representative sits on the complex level -2i zeta_R exactly
    p0 = tstar.p0
    A = tstar.slice_point(seed=62)
    sigma = tstar.central.sigma_array()
    zr = ql.zeta_real_lie(sigma, tstar.dims)
    for hbar in (1.0, 0.5, 0.25):
        pA = ql.conformal_point(p0, A, hbar, tstar.grading)
        assert (ql.moment_complex(pA) + 2j * zr).norm() < 1e-10


def test_conformal_point_rejects_off_slice_seed(tstar):
    p0 = tstar.p0
    bad = ql.random_rep(tstar.quiver, tstar.dims, ql.make_rng(63), scale=0.3)
    with pytest.raises(ql.NotOnSlice):
        ql.conformal_point(p0, bad, 1.0, tstar.grading)


def test_family_sample_rejects_off_slice_seed(tstar):
    # the one-member study runs the slice checks before any solve
    p0, grading = tstar.p0, tstar.grading
    bad = ql.random_rep(tstar.quiver, tstar.dims, ql.make_rng(63), scale=0.3)
    with pytest.raises(ql.NotOnSlice):
        ql.conformal_family_sample(p0, bad, tstar.central.sigma_array(), 1.0, 0.1,
                                   grading)


def test_conformal_limit_solves(tstar):
    p0 = tstar.p0
    A = tstar.slice_point(seed=64)
    rep = ql.conformal_limit(p0, A, 1.0, tstar.grading)
    assert rep.residual <= 1e-10
    # real moment vanishes, complex moment stays central at -2i zeta_R
    assert ql.moment_real(rep.point).norm() < 1e-9
    sigma = tstar.central.sigma_array()
    zr = ql.zeta_real_lie(sigma, tstar.dims)
    assert (ql.moment_complex(rep.point) + 2j * zr).norm() < 1e-9


def test_family_sample_stages(tstar):
    p0 = tstar.p0
    A = tstar.slice_point(seed=65)
    sigma = tstar.central.sigma_array()
    s = ql.conformal_family_sample(p0, A, sigma, 1.0, 0.1, grading=tstar.grading)
    assert s.R == 0.1
    assert set(s.stage_residuals) == {
        "start_solve", "rotation_real", "rotation_complex",
        "rescale_complex", "final_solve"}
    assert all(r < 1e-7 for r in s.stage_residuals.values())
    assert s.fingerprint.ndim == 1


def test_family_at_unit_rotation_needs_no_final_solve(tstar):
    # at |xi| = 1 the rotation already kills the real moment
    p0 = tstar.p0
    A = tstar.slice_point(seed=66)
    sigma = tstar.central.sigma_array()
    s = ql.conformal_family_sample(p0, A, sigma, 1.0, 1.0, grading=tstar.grading)
    assert s.iterations == 0


def test_rescale_commutes_with_the_limit(tstar):
    # rescaling the slice datum by R equals dividing hbar by R
    p0, grading = tstar.p0, tstar.grading
    A = tstar.slice_point(seed=67)
    hbar, R = 1.0, 0.5
    left = ql.conformal_limit(p0, grading.act(R, A), hbar, grading=grading)
    right = ql.conformal_limit(p0, A, hbar / R, grading=grading)
    assert fingerprint_distance(left.point, right.point, 4) < 1e-8


def test_convergence_slope_quadratic(tstar):
    p0, grading = tstar.p0, tstar.grading
    A = tstar.slice_point(seed=68)
    sigma = tstar.central.sigma_array()
    reports = list(ql.convergence_study(p0, A, sigma, (1.0, 0.5), (0.4, 0.2, 0.1, 0.05),
                                        grading=grading))
    assert [rep.hbar for rep in reports] == [1.0, 0.5]
    for rep in reports:
        assert not rep.degenerate
        assert 1.75 <= rep.slope <= 2.5
        dists = [row[1] for row in rep.rows]
        assert dists == sorted(dists, reverse=True)


def test_zero_datum_is_degenerate(tstar):
    p0, grading = tstar.p0, tstar.grading
    zero = ql.RepPoint.zeros(tstar.quiver, tstar.dims)
    sigma = tstar.central.sigma_array()
    rep, = ql.convergence_study(p0, zero, sigma, (1.0,), (0.4, 0.2, 0.1, 0.05),
                                grading=grading)
    assert rep.degenerate
    assert rep.slope is None and rep.fit_residual is None


def test_convergence_report_rows(tstar):
    p0, grading = tstar.p0, tstar.grading
    A = tstar.slice_point(seed=69)
    sigma = tstar.central.sigma_array()
    rep, = ql.convergence_study(p0, A, sigma, (1.0,), (0.2, 0.1), grading=grading)
    assert rep.hbar == 1.0
    rows = convergence_rows(rep)
    assert len(rows) == 2
    assert rows[0]["R"] == 0.2
    assert rows[0]["distance"] > rows[1]["distance"]


@pytest.mark.parametrize("name", ["a3-star", "kronecker2"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_study_over_a_grid_matches_one_study_per_hbar(name, seed):
    # the shared starts and the stacked fingerprints change no bit of a report
    s = get_setup(name)
    A = attracting_increment(s.basis, s.grading, seed)
    sigma, r_grid = s.central.sigma_array(), (0.4, 0.2, 0.1, 0.05)
    both = list(ql.convergence_study(s.p0, A, sigma, (1.0, 0.5), r_grid,
                                     grading=s.grading))
    assert len(both) == 2
    for hbar, rep in zip((1.0, 0.5), both):
        alone, = ql.convergence_study(s.p0, A, sigma, (hbar,), r_grid, grading=s.grading)
        assert rep.hbar == alone.hbar == hbar
        assert rep.rows == alone.rows
        assert np.array_equal(rep.limit_fingerprint, alone.limit_fingerprint)
        assert rep.slope == alone.slope and rep.fit_residual == alone.fit_residual
        for a, b in zip(rep.samples, alone.samples, strict=True):
            assert a.stage_residuals == b.stage_residuals
            assert np.array_equal(a.fingerprint, b.fingerprint)


def test_study_solves_each_start_once(a3star, monkeypatch):
    calls = []
    solve = conformal.graded_solve
    monkeypatch.setattr(conformal, "graded_solve",
                        lambda *args: calls.append(args[2]) or solve(*args))
    A = attracting_increment(a3star.basis, a3star.grading, 0)
    r_grid = (0.4, 0.2, 0.1, 0.05)
    reports = list(ql.convergence_study(a3star.p0, A, a3star.central.sigma_array(),
                                        (1.0, 0.5), r_grid, grading=a3star.grading))
    assert len(reports) == 2
    assert calls == list(r_grid)


def test_study_failure_keeps_the_finished_hbar(monkeypatch, tmp_path):
    # the rotation fails at the second hbar: the first report is kept and
    # written, and the suite note names the error
    cfg = ql.RunConfig(quiver_file="a3-star", seed=0)
    assert cfg.hbar_grid == (1.0, 0.5)
    rotations = []
    rotate = conformal.twistor_rotate

    def faulty(p, xi):
        rotations.append(xi)
        if len(rotations) > len(cfg.r_grid):
            raise ql.NotOnVariety("injected rotation fault")
        return rotate(p, xi)
    monkeypatch.setattr(conformal, "twistor_rotate", faulty)
    report, pl = ql.verify_run(cfg)
    suite = {st.name: st for st in report.suites}["conformal_convergence"]
    assert not suite.passed and suite.note == "NotOnVariety: injected rotation fault"
    assert [st.hbar for st in pl.studies] == [1.0]
    ql.write_outputs(report, pl, str(tmp_path))
    rows = (tmp_path / "convergence.csv").read_text().splitlines()[1:]
    assert len(rows) == len(cfg.r_grid)
    assert all(row.startswith("1.0,") for row in rows)


@pytest.mark.parametrize("hbar", [0.0, float("nan"), float("inf"), complex(1.0, float("nan"))])
def test_hbar_must_be_finite_and_nonzero(tstar, hbar):
    # refused before any solve, by each entry point that takes an hbar
    p0, grading, A = tstar.p0, tstar.grading, tstar.slice_point(seed=70)
    sigma = tstar.central.sigma_array()
    with pytest.raises(ValueError, match="hbar must be finite and nonzero"):
        ql.conformal_point(p0, A, hbar, grading=grading)
    with pytest.raises(ValueError, match="hbar must be finite and nonzero"):
        ql.conformal_family_sample(p0, A, sigma, hbar, 0.1, grading)
    with pytest.raises(ValueError, match="hbar must be finite and nonzero"):
        next(ql.convergence_study(p0, A, sigma, (1.0, hbar), (0.2, 0.1), grading=grading))
