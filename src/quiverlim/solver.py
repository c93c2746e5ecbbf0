"""Newton solver for the real moment map along complex-gauge orbits.

Given p with central complex moment value, find a hermitian exponent xi with
mu_R(exp(xi).p) = i sigma Id.  The iteration composes hermitian exponentials;
the reported single exponent is recovered from the polar decomposition of the
accumulated gauge (the positive factor is the unique invariant of the solve,
so two damping schedules must agree on exp(xi)).

The loop runs on slot lists and flat vectors; only the returned point is a
RepPoint.  In the Kempf-Ness picture the hermitian residual -2i mu_R(p) -
2 sigma Id is the gradient at eta = 0 of |exp(eta).p|^2 / 2 - 2 sum_k sigma_k
tr eta_k: with x = p.flatten() and A the real matrix of xi -> inf_action(p, xi)
on hermitian coordinates, its coordinates are A^T [Re x; Im x] - c_sigma
(c_sigma those of 2 sigma Id) and its derivative is 2 A^T A, so the A of an
accepted trial gives its residual and the next Newton matrix.  Gauge elements
come from hermitian eigendecompositions, with no expm and no inverse: a step
Delta = V diag(l) V^dag gives exp(+-t Delta) = V diag(e^{+-t l}) V^dag for
every halving t, and the eigh g^dag g = V diag(l) V^dag gives both the polar
exponent xi = V diag(log(l) / 2) V^dag and exp(+-xi) = V diag(l^{+-1/2}) V^dag.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import (ARMIJO_SLOPE, CHECK_TOL, EIG_FLOOR_RATIO, MAX_HALVINGS,
                     MAX_NEWTON_ITER, SLACK, TOL, moment_scale)
from .errors import GradingViolation, MaxIterations, NotInjective, NotOnVariety
from .repspace import (FlatLayout, GaugeElement, LieElement, RepPoint,
                       central_deviation, central_lie, layout, moment_complex)


def assemble_newton_matrix(p: RepPoint) -> np.ndarray:
    """Matrix of the full derivative on hermitian coordinates: 2 A^T A, with A
    the real hermitian action matrix (real symmetric PSD)."""
    a = layout(p.quiver, p.dims).hermitian_action_matrix(p.flatten())
    return 2.0 * (a.T @ a)


def _residual(coords: FlatLayout, slots: list[np.ndarray], level: np.ndarray):
    """(A, A^T [Re x; Im x] - level) at the point with these slots."""
    x = np.concatenate([m.ravel() for m in slots])
    a = coords.hermitian_action_matrix(x)
    return a, a.T @ np.concatenate([x.real, x.imag]) - level


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


def _spectral_pair(factors) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(V diag(d) V^dag, V diag(1/d) V^dag) per block from (d, V) pairs: with
    d = e^{t l}, exp(t X) and exp(-t X) for the hermitian X = V diag(l) V^dag."""
    return ([(v * d) @ v.conj().T for d, v in factors],
            [(v / d) @ v.conj().T for d, v in factors])


def _polar_spectra(g: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(l, V) per block with g^dag g = V diag(l) V^dag, l floored at tiny."""
    out = []
    for gk in g:
        h = gk.conj().T @ gk
        vals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
        out.append((np.maximum(vals, np.finfo(float).tiny), vecs))
    return out


def _polar_log(dims, spectra) -> LieElement:
    """(1/2) log(g^dag g) from the spectra of g^dag g."""
    return LieElement(dims, [(vecs * (0.5 * np.log(vals))) @ vecs.conj().T
                             for vals, vecs in spectra])


def hermitian_log(g: GaugeElement) -> LieElement:
    """(1/2) log(g^dag g): the hermitian exponent of the positive polar factor."""
    return _polar_log(g.dims, _polar_spectra(g.g))


def _check_central_complex(p: RepPoint) -> LieElement:
    mc = moment_complex(p)
    dev = central_deviation(mc)
    if dev > CHECK_TOL * moment_scale(p):
        raise NotOnVariety(
            f"complex moment map is not central (deviation {dev:.3e}); "
            "the real-moment solve is only defined on central levels")
    return mc


def _polar_point(p: RepPoint, g_total: list[np.ndarray], level: np.ndarray,
                 tol: float) -> tuple[LieElement, RepPoint, float]:
    """(xi, exp(xi).p, residual) for the polar exponent xi of the accumulated
    gauge blocks g_total; level holds the coordinates of 2 sigma Id.

    The iterates meet tol, but the point rebuilt from a badly conditioned
    accumulated gauge can miss the level, or overflow and make the bound
    SLACK tol max(1, |p|^2) infinite; such a solve raises NotOnVariety
    rather than report a point off the variety.
    """
    coords = layout(p.quiver, p.dims)
    spectra = _polar_spectra(g_total)
    with np.errstate(all="ignore"):
        roots = [(np.sqrt(vals), vecs) for vals, vecs in spectra]
        slots = coords.conjugate(p.slots, *_spectral_pair(roots))
        residual = float(np.linalg.norm(_residual(coords, slots, level)[1]))
        point = RepPoint.from_slots(p.quiver, p.dims, slots)
        bound = SLACK * tol * moment_scale(point)
    if not residual <= bound < np.inf:
        raise NotOnVariety(
            f"point rebuilt from the polar factor misses its level "
            f"(residual {residual:.3e}, bound {bound:.3e})")
    return _polar_log(p.dims, spectra), point, residual


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
    level = coords.herm_coords(central_lie(2.0 * sig, p.dims))
    slots, g_total = p.slots, GaugeElement.identity(p.dims).g
    a, res = _residual(coords, slots, level)
    res_norm = float(np.linalg.norm(res))
    history: list[tuple[int, float, float]] = [(0, res_norm, 0.0)]

    it = 0
    while res_norm > tol:
        if it >= max_iter:
            raise MaxIterations(
                f"real-moment solve hit {max_iter} iterations, residual {res_norm:.3e}")
        step = coords.herm_element(_spectral_solve(2.0 * (a.T @ a), -res))
        spectra = [np.linalg.eigh(b) for b in step.blocks]

        t = forced_damping[it] if it < len(forced_damping) else 1.0
        for _ in range(MAX_HALVINGS + 1):
            # an overflowing trial is an ordinary rejection
            with np.errstate(all="ignore"):
                fwd, back = _spectral_pair([(np.exp(t * l), v) for l, v in spectra])
                trial = coords.conjugate(slots, fwd, back)
                a_try, res_try = _residual(coords, trial, level)
                new_norm = float(np.linalg.norm(res_try))
            if np.isfinite(new_norm) and new_norm <= (1.0 - ARMIJO_SLOPE * t) * res_norm:
                break
            t *= 0.5
        else:
            raise MaxIterations(
                f"residual stalled at {res_norm:.3e} after {MAX_HALVINGS} halvings")
        slots, a, res, res_norm = trial, a_try, res_try, new_norm
        g_total = [f @ g for f, g in zip(fwd, g_total)]
        it += 1
        history.append((it, res_norm, t))

    xi, point, final = _polar_point(p, g_total, level, tol)
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
    level = coords.herm_coords(central_lie(2.0 * sig, p_start.dims))
    frozen = assemble_newton_matrix(p0)
    m_max = grading.max_end_weight()

    slots, g_total = p_start.slots, GaugeElement.identity(p_start.dims).g
    stages: list[tuple[int, LieElement]] = []
    for j in range(m_max):
        res_j = grading.lie_project(coords.herm_element(_residual(coords, slots, level)[1]), j)
        delta = coords.herm_element(_spectral_solve(frozen, -coords.herm_coords(res_j)))
        outside = (delta - grading.lie_project(delta, j)).norm()
        d_norm = delta.norm()
        if d_norm > 0 and outside > CHECK_TOL * d_norm:
            raise GradingViolation(
                f"stage {j} correction leaves its weight block "
                f"(relative leakage {outside / d_norm:.3e})")
        delta = grading.lie_project(delta, j)
        fwd, back = _spectral_pair([(np.exp(l), v) for l, v in map(np.linalg.eigh, delta.blocks)])
        slots = coords.conjugate(slots, fwd, back)
        g_total = [f @ g for f, g in zip(fwd, g_total)]
        stages.append((j, delta * float(r_scale) ** (-(j + 2))))

    final = solve_real_moment(RepPoint.from_slots(p_start.quiver, p_start.dims, slots),
                              sig, tol=tol)
    fwd, _ = _spectral_pair([(np.exp(l), v) for l, v in map(np.linalg.eigh, final.xi.blocks)])
    g_total = [f @ g for f, g in zip(fwd, g_total)]
    stages.append((m_max, final.xi * float(r_scale) ** (-(m_max + 2))))

    _, point, residual = _polar_point(p_start, g_total, level, tol)
    return GradedSolveReport(stages=stages, residual=residual, point=point)
