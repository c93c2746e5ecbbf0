"""Newton solver for the real moment map along complex-gauge orbits.

Given p with central complex moment value, find a hermitian exponent xi with
mu_R(exp(xi).p) = i sigma Id.  The iteration composes hermitian exponentials;
the reported single exponent is recovered from the polar decomposition of the
accumulated gauge (the positive factor is the unique invariant of the solve,
so two damping schedules must agree on exp(xi)).

The Newton matrix is a Gram matrix (the Kempf-Ness picture): with A the
real matrix of the infinitesimal action xi -> inf_action(p, xi) on hermitian
coordinates, the derivative of xi -> -2i mu_R(exp(xi).p) at xi = 0 is 2 A^T A,
because pairing d(-2i mu_R)(p)(q) with a hermitian eta gives
2 Re <q, inf_action(p, eta)>.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import (ARMIJO_SLOPE, CHECK_TOL, EIG_FLOOR_RATIO, MAX_HALVINGS,
                     MAX_NEWTON_ITER, SLACK, TOL, moment_scale)
from .errors import GradingViolation, MaxIterations, NotInjective, NotOnVariety
from .repspace import (GaugeElement, LieElement, RepPoint, central_deviation,
                       gauge_act, hermitian_residual, layout, lie_exp,
                       moment_complex)


def assemble_newton_matrix(p: RepPoint) -> np.ndarray:
    """Matrix of the full derivative on hermitian coordinates: 2 A^T A, with A
    the real hermitian action matrix (real symmetric PSD)."""
    a = layout(p.quiver, p.dims).hermitian_action_matrix(p)
    return 2.0 * (a.T @ a)


def _spectral_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve by eigendecomposition, guarding the smallest-eigenvalue ratio."""
    if mat.shape[0] == 0:
        return rhs.copy()
    vals, vecs = np.linalg.eigh(mat)
    top = float(vals.max(initial=0.0))
    if top <= 0.0 or float(vals.min()) < EIG_FLOOR_RATIO * top:
        raise NotInjective(
            f"linearized operator eigenvalue ratio below {EIG_FLOOR_RATIO:g} "
            f"(min {vals.min():.3e}, max {top:.3e})")
    return vecs @ ((vecs.T @ rhs) / vals)


def hermitian_log(g: GaugeElement) -> LieElement:
    """(1/2) log(g^dag g): the hermitian exponent of the positive polar factor."""
    blocks = []
    for gk in g.g:
        if gk.size == 0:
            blocks.append(gk.copy())
            continue
        h = gk.conj().T @ gk
        vals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
        vals = np.maximum(vals.real, np.finfo(float).tiny)
        blocks.append(0.5 * (vecs @ np.diag(np.log(vals)) @ vecs.conj().T))
    return LieElement(g.dims, blocks)


def _check_central_complex(p: RepPoint) -> LieElement:
    mc = moment_complex(p)
    dev = central_deviation(mc)
    if dev > CHECK_TOL * moment_scale(p):
        raise NotOnVariety(
            f"complex moment map is not central (deviation {dev:.3e}); "
            "the real-moment solve is only defined on central levels")
    return mc


def _polar_point(p: RepPoint, g_total: GaugeElement, sig: np.ndarray,
                 tol: float) -> tuple[LieElement, RepPoint, float]:
    """(xi, exp(xi).p, residual) for the polar exponent xi of g_total.

    The iterates meet tol, but the point rebuilt from a badly conditioned
    accumulated gauge can miss the level, or exp(xi) can be numerically
    singular; such a solve raises NotOnVariety rather than report a point
    off the variety.
    """
    xi = hermitian_log(g_total)
    try:
        point = gauge_act(lie_exp(xi), p)
    except np.linalg.LinAlgError as exc:
        raise NotOnVariety(
            f"point cannot be rebuilt from the polar factor ({exc})") from exc
    residual = hermitian_residual(point, sig).norm()
    bound = SLACK * tol * moment_scale(point)
    if not residual <= bound:
        raise NotOnVariety(
            f"point rebuilt from the polar factor misses its level "
            f"(residual {residual:.3e} > {bound:.3e})")
    return xi, point, residual


@dataclass
class SolveReport:
    xi: LieElement
    residual: float
    iterations: int
    history: list[tuple[int, float, float]] = field(default_factory=list)
    point: RepPoint | None = None


def solve_real_moment(p: RepPoint, sigma, tol: float = TOL,
                      max_iter: int = MAX_NEWTON_ITER,
                      forced_damping: tuple[float, ...] = ()) -> SolveReport:
    """Damped Newton on the complex-gauge orbit of p.

    forced_damping pins the step fraction of the first iterations (used to
    realize distinct schedules for the uniqueness checks); afterwards a full
    step with up to MAX_HALVINGS halvings on the residual norm is used.  The
    returned point meets its level within SLACK tol max(1, |p|^2);
    NotOnVariety otherwise.
    """
    _check_central_complex(p)
    sig = np.asarray(sigma, dtype=float)
    if sig.shape != (p.quiver.n,):
        raise ValueError("sigma must provide one real entry per vertex")

    coords = layout(p.quiver, p.dims)
    g_total = GaugeElement.identity(p.dims)
    p_cur = p.copy()
    res = hermitian_residual(p_cur, sig)
    res_norm = res.norm()
    history: list[tuple[int, float, float]] = [(0, res_norm, 0.0)]

    it = 0
    while res_norm > tol:
        if it >= max_iter:
            raise MaxIterations(
                f"real-moment solve hit {max_iter} iterations, residual {res_norm:.3e}")
        mat = assemble_newton_matrix(p_cur)
        step = coords.herm_element(_spectral_solve(mat, -coords.herm_coords(res)))

        t = forced_damping[it] if it < len(forced_damping) else 1.0
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            # an overflowing or degenerate trial is an ordinary rejection
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    g_step = lie_exp(t * step)
                    p_try = gauge_act(g_step, p_cur)
                    res_try = hermitian_residual(p_try, sig)
                    new_norm = res_try.norm()
            except np.linalg.LinAlgError:
                t *= 0.5
                continue
            if np.isfinite(new_norm) and new_norm <= (1.0 - ARMIJO_SLOPE * t) * res_norm:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise MaxIterations(
                f"residual stalled at {res_norm:.3e} after {MAX_HALVINGS} halvings")
        p_cur = p_try
        g_total = g_step.compose(g_total)
        res, res_norm = res_try, new_norm
        it += 1
        history.append((it, res_norm, t))

    xi, point, final = _polar_point(p, g_total, sig, tol)
    return SolveReport(xi=xi, residual=final, iterations=it,
                       history=history, point=point)


@dataclass
class GradedSolveReport:
    stages: list[tuple[int, LieElement]]
    residual: float
    point: RepPoint


def graded_solve(p_start: RepPoint, grading, r_scale: float, sigma,
                 tol: float = TOL) -> GradedSolveReport:
    """Stagewise solve near a graded fixed point.

    Stage j inverts the operator frozen at the fixed point on the weight
    blocks |m| <= j of the hermitian residual; the correction exponent is
    confined to those blocks (GradingViolation otherwise) and scales as
    R^{j+2}.  A final plain Newton pass finishes to tol.  Returned stage
    elements are the unscaled coefficients xi_j = delta_j / R^{j+2}.
    """
    p0 = grading.base_point
    sig = np.asarray(sigma, dtype=float)
    coords = layout(p_start.quiver, p_start.dims)
    frozen = assemble_newton_matrix(p0)
    m_max = grading.max_end_weight()

    p_cur = p_start.copy()
    g_total = GaugeElement.identity(p_start.dims)
    stages: list[tuple[int, LieElement]] = []
    for j in range(m_max):
        res = hermitian_residual(p_cur, sig)
        res_j = grading.lie_project(res, j)
        delta = coords.herm_element(_spectral_solve(frozen, -coords.herm_coords(res_j)))
        outside = (delta - grading.lie_project(delta, j)).norm()
        d_norm = delta.norm()
        if d_norm > 0 and outside > CHECK_TOL * d_norm:
            raise GradingViolation(
                f"stage {j} correction leaves its weight block "
                f"(relative leakage {outside / d_norm:.3e})")
        delta = grading.lie_project(delta, j)
        g_step = lie_exp(delta)
        p_cur = gauge_act(g_step, p_cur)
        g_total = g_step.compose(g_total)
        stages.append((j, delta * float(r_scale) ** (-(j + 2))))

    final = solve_real_moment(p_cur, sig, tol=tol)
    g_total = lie_exp(final.xi).compose(g_total)
    stages.append((m_max, final.xi * float(r_scale) ** (-(m_max + 2))))

    _, point, residual = _polar_point(p_start, g_total, sig, tol)
    return GradedSolveReport(stages=stages, residual=residual, point=point)
