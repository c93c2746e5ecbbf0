"""Conformal-limit construction.

The family interpolates between a circle-action rescaling of a slice datum
and a closed-form point whose complex moment sits on the central level fixed
by the real parameter.  Trading the real parameter for the complex one is
realized by a sphere rotation of the quaternionic structure followed by the
inverse circle rescaling; the final real-moment solve at parameter zero
pins the gauge representative.

Every entry point that takes a slice increment also takes the weight
grading of its base point, and refuses an increment that moves the complex
moment, meets the gauge orbit or has support below weight one.  Members are
built in one place, convergence_study; conformal_family_sample is its
one-member case.  Of a member's four stages at (hbar, R), only the first,
the graded solve at the rescaled increment, does not depend on hbar; the
rotation by hbar*R, the rescaling by 1/(hbar*R) and the final solve do, and
so does the limit point.  The study therefore runs the slice and base-point
checks once and each start once per R, and finishes every hbar from the
shared starts.
"""

from __future__ import annotations

import cmath
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .config import (CHECK_TOL, FLOOR, STAGE_SLACK, TOL, check_grid,
                     moment_scale)
from .errors import NotOnVariety
from .fixedpoints import WeightGrading
from .invariants import fingerprints
from .repspace import (LieElement, RepPoint, central_lie, moment_complex,
                       moment_real, zeta_real_lie)
from .slices import check_slice_increment, conformal_flat
from .solver import (GradedSolveReport, SolveReport, graded_solve,
                     solve_real_moment)


def twistor_rotate(p: RepPoint, xi: complex) -> RepPoint:
    """Rotate the complex-structure direction by xi in the conjugate chart.

    The moment maps transform exactly:
      real:    (1-|xi|^2) mu_R - i conj(xi) mu_C - i xi mu_C^dagger
      complex: mu_C - 2i xi mu_R - xi^2 mu_C^dagger
    """
    # B_h - eps(h) xi B_hbar^dag, i_k - xi j_k^dag and j_k + xi i_k^dag:
    # every entry minus sign xi times the conjugate of its partner entry
    lay, x = p.layout, p.vec
    return RepPoint.from_flat(p.quiver, p.dims,
                              x - (lay.sign * complex(xi)) * np.conj(x[lay.partner_index]))


def _check_hbar(hbar) -> complex:
    """hbar as a complex number; ValueError unless it is finite and nonzero."""
    hb = complex(hbar)
    if hb == 0 or not cmath.isfinite(hb):
        raise ValueError("hbar must be finite and nonzero")
    return hb


def conformal_point(p0: RepPoint, A: RepPoint, hbar: complex,
                    grading: WeightGrading) -> RepPoint:
    """Closed-form family member attached to a slice increment A at scale hbar.

    Reversed-edge and outgoing-framing data of the base point enter divided
    by hbar while conjugates of the forward data are added to the forward
    slots; the result keeps its complex moment on the central level set by
    the real parameter of the base point, uniformly as hbar shrinks.
    """
    hb = _check_hbar(hbar)
    check_slice_increment(p0, A, grading)
    return RepPoint.from_flat(p0.quiver, p0.dims, conformal_flat(p0, A, hb))


def conformal_limit(p0: RepPoint, A: RepPoint, hbar: complex,
                    grading: WeightGrading) -> SolveReport:
    """Kempf-Ness representative of the closed-form point at real parameter zero."""
    pA = conformal_point(p0, A, hbar, grading)
    return solve_real_moment(pA, np.zeros(p0.quiver.n))


@dataclass
class ConformalFamilySample:
    R: float
    hbar: complex
    point: RepPoint
    fingerprint: np.ndarray
    stage_residuals: dict[str, float]
    iterations: int


def _family_finish(p0: RepPoint, start: GradedSolveReport, sigma: np.ndarray,
                   hb: complex, R: float, grading: WeightGrading,
                   guess: LieElement | None = None) -> tuple[SolveReport, dict[str, float]]:
    """Stages two to four of the member at (hb, R) from its start: the final
    solve, started from guess (see solve_real_moment), and the residual of
    every stage."""
    xi = hb * R
    q2 = twistor_rotate(start.point, xi)
    zr = zeta_real_lie(sigma, p0.dims)
    stage_tol2 = STAGE_SLACK * TOL * moment_scale(q2)
    dev_real = (moment_real(q2) - zr * (1.0 - abs(xi) ** 2)).norm()
    dev_cplx = (moment_complex(q2) - central_lie(2.0 * xi * sigma, p0.dims)).norm()
    if dev_real > stage_tol2 or dev_cplx > stage_tol2:
        raise NotOnVariety(
            f"rotated point misses its exact moment targets "
            f"(real {dev_real:.3e}, complex {dev_cplx:.3e}, tol {stage_tol2:.3e})")

    q3 = grading.act(1.0 / xi, q2)
    # rescaling conjugates the moment; its conditioning amplifies stage-2 noise
    amp = grading.power_cond(1.0 / xi) ** 2
    stage_tol3 = STAGE_SLACK * TOL * amp * moment_scale(q3)
    dev3 = (moment_complex(q3) - central_lie(2.0 * sigma, p0.dims)).norm()
    if dev3 > stage_tol3:
        raise NotOnVariety(
            f"rescaled point leaves the limiting complex level ({dev3:.3e})")

    final = solve_real_moment(q3, np.zeros(p0.quiver.n), guess=guess)
    return final, {
        "start_solve": float(start.residual),
        "rotation_real": float(dev_real),
        "rotation_complex": float(dev_cplx),
        "rescale_complex": float(dev3),
        "final_solve": float(final.residual),
    }


def conformal_family_sample(p0: RepPoint, A: RepPoint, sigma, hbar: complex,
                            R: float, grading: WeightGrading,
                            max_len: int = 4) -> ConformalFamilySample:
    """One member of the rotation-scaling family at circle parameter R: the
    one-member convergence_study, with its slice checks and limit solve.

    Four stages: solve the real moment equation at the rescaled increment,
    rotate the sphere direction by hbar*R, apply the inverse weighted
    rescaling (which normalizes the gauge so the representative stays
    bounded), and re-solve at real parameter zero.  The exact moment values
    after the middle stages are asserted.
    """
    st, = convergence_study(p0, A, sigma, (hbar,), (R,), grading, max_len)
    return st.samples[0]


@dataclass
class ConvergenceReport:
    hbar: complex
    rows: list[tuple[float, float]]  # (R, fingerprint distance to the limit)
    limit_fingerprint: np.ndarray
    slope: float | None
    fit_residual: float | None
    degenerate: bool
    samples: list[ConformalFamilySample]


def _fit(hb: complex, fp_limit: np.ndarray,
         samples: list[ConformalFamilySample]) -> ConvergenceReport:
    """The report of one hbar from its limit's and its members' fingerprints."""
    rows = [(s.R, float(np.linalg.norm(s.fingerprint - fp_limit))) for s in samples]
    fp_scale = float(np.max(np.abs(fp_limit))) if fp_limit.size else 0.0
    floor = FLOOR * TOL * max(1.0, fp_scale)
    usable = [(r, d) for r, d in rows if d > floor]
    slope = fit_res = None
    if len(usable) >= 2:
        lr = np.log([r for r, _ in usable])
        ld = np.log([d for _, d in usable])
        coeffs = np.polyfit(lr, ld, 1)
        slope = float(coeffs[0])
        fit_res = float(np.max(np.abs(np.polyval(coeffs, lr) - ld)))
    return ConvergenceReport(hbar=hb, rows=rows, limit_fingerprint=fp_limit,
                             slope=slope, fit_residual=fit_res,
                             degenerate=slope is None, samples=samples)


def convergence_study(p0: RepPoint, A: RepPoint, sigma, hbar_grid, R_grid,
                      grading: WeightGrading,
                      max_len: int = 4) -> Iterator[ConvergenceReport]:
    """Fit the approach rate of the family to its conformal limit at every
    hbar of hbar_grid; yields one report per hbar, in grid order.

    Distances are gauge-invariant fingerprint distances; the fit is a
    least-squares line in log-log coordinates over the grid points above
    the solver floor.  With fewer than two usable points the study is
    degenerate: the slope is None.

    The slice checks of A and the check that grading was computed at p0 run
    once, and the graded start solve at each R runs once for all hbar.  Each
    hbar solves its limit and its members and fingerprints them in one
    fingerprints call before its report is yielded, so a solve error at one
    hbar comes after the reports of the hbar before it.
    Within one hbar, each member's final solve starts from the exponent of
    the previous R's (the answer does not depend on the start).
    """
    grid = check_grid("R_grid", R_grid)
    hbars = [_check_hbar(h) for h in hbar_grid]
    check_slice_increment(p0, A, grading)
    base_gap = (grading.base_point - p0).norm()
    if base_gap > CHECK_TOL * max(1.0, p0.norm()):
        raise ValueError("grading was computed at a different base point")
    sig = np.asarray(sigma, dtype=float)
    starts: dict[float, GradedSolveReport] = {}
    for hb in hbars:
        pA = RepPoint.from_flat(p0.quiver, p0.dims, conformal_flat(p0, A, hb))
        limit = solve_real_moment(pA, np.zeros(p0.quiver.n))
        members: list[tuple[SolveReport, dict[str, float]]] = []
        for R in grid:
            if R not in starts:
                starts[R] = graded_solve(p0 + grading.act(R, A), grading, R, sig)
            members.append(_family_finish(p0, starts[R], sig, hb, R, grading,
                                          members[-1][0].xi if members else None))
        fp_limit, *fps = fingerprints([limit.point, *(f.point for f, _ in members)],
                                      max_len)
        yield _fit(hb, fp_limit, [
            ConformalFamilySample(R=R, hbar=hb, point=f.point, fingerprint=fp,
                                  stage_residuals=stages, iterations=f.iterations)
            for R, (f, stages), fp in zip(grid, members, fps)])
