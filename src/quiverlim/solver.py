"""Newton solver for the real moment map along complex-gauge orbits.

Given p with central complex moment value, find a hermitian exponent xi with
mu_R(exp(xi).p) = i sigma Id.  The iteration composes hermitian exponentials;
the reported single exponent is recovered from the polar decomposition of the
accumulated gauge (the positive factor is the unique invariant of the solve,
so two damping schedules must agree on exp(xi)).

The loop runs in the block form of ``FlatLayout``: the point is one stack of
(V+W) x (V+W) matrices and every gauge element one block-diagonal V x V
matrix, so a step, a halving trial or a rebuild costs a fixed number of
numpy calls whatever the vertex count; only the returned point is a
RepPoint.  In the Kempf-Ness picture the hermitian residual -2i mu_R(p) -
2 sigma Id is the gradient at eta = 0 of |exp(eta).p|^2 / 2 - 2 sum_k sigma_k
tr eta_k: with x = p.flatten() and A the real matrix of xi -> inf_action(p, xi)
on hermitian coordinates, its coordinates are A^T [Re x; Im x] - c_sigma
(c_sigma those of 2 sigma Id) and its derivative is 2 A^T A, so the A of an
accepted trial gives its residual and the next Newton matrix.  Gauge elements
come from one decomposition of a V x V matrix, with no expm and no
inverse: a step Delta = V diag(l) V^dag gives exp(+-t Delta) =
V diag(e^{+-t l}) V^dag for every halving t, and the SVD g = U diag(s) V^dag
gives both the polar exponent xi = V diag(log(s)) V^dag and exp(+-xi) =
V diag(s^{+-1}) V^dag (the SVD rather than an eigh of g^dag g, whose small
eigenvalues carry relative error eps cond(g)^2 instead of eps cond(g)).  A
function of a block-diagonal hermitian matrix is block-diagonal even where
eigh or the SVD mixes vectors of equal values across blocks, so the entries
off the blocks are set to exact zero.

A solve may start from a guess eta: the loop then runs from exp(eta).p
with the accumulated gauge exp(eta), and the rebuild still starts from p,
so the returned point and xi are those of a cold solve up to tol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import (ARMIJO_SLOPE, CHECK_TOL, EIG_FLOOR_RATIO, MAX_HALVINGS,
                     MAX_NEWTON_ITER, SLACK, TOL, moment_scale)
from .errors import GradingViolation, MaxIterations, NotInjective, NotOnVariety
from .repspace import (FlatLayout, GaugeElement, LieElement, RepPoint,
                       central_deviation, moment_complex)


def assemble_newton_matrix(p: RepPoint) -> np.ndarray:
    """Matrix of the full derivative on hermitian coordinates: 2 A^T A, with A
    the real hermitian action matrix (real symmetric PSD)."""
    a = p.layout.hermitian_action_matrix(p.vec)
    return 2.0 * (a.T @ a)


def _residual(coords: FlatLayout, x: np.ndarray, level: np.ndarray):
    """(A, A^T [Re x; Im x] - level) at the point with flat coordinates x."""
    a = coords.hermitian_action_matrix(x)
    return a, a.T @ np.concatenate([x.real, x.imag]) - level


def guarded_eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of the symmetric PSD mat, guarding the smallest-eigenvalue ratio."""
    if mat.shape[0] == 0:
        return np.zeros(0), np.zeros((0, 0))
    vals, vecs = np.linalg.eigh(mat)
    top = float(vals.max(initial=0.0))
    if top <= 0.0 or float(vals.min()) < EIG_FLOOR_RATIO * top:
        raise NotInjective(
            f"linearized operator eigenvalue ratio below {EIG_FLOOR_RATIO:g} "
            f"(min {vals.min():.3e}, max {top:.3e})")
    return vals, vecs


def _spectral_solve(spectrum: tuple[np.ndarray, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Solve with the matrix whose (eigenvalues, eigenvectors) are spectrum."""
    vals, vecs = spectrum
    return vecs @ ((vecs.T @ rhs) / vals)


def _spectral_pair(mask: np.ndarray, d: np.ndarray, vecs: np.ndarray):
    """(V diag(d) V^dag, V diag(1/d) V^dag), zero off the blocks of mask:
    with d = e^{t l}, exp(t X) and exp(-t X) for the block-diagonal
    hermitian X = V diag(l) V^dag."""
    vh = vecs.conj().T
    return np.where(mask, (vecs * d) @ vh, 0.0), np.where(mask, (vecs / d) @ vh, 0.0)


def _polar_spectrum(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(l, V) with g^dag g = V diag(l) V^dag for the block-diagonal V x V
    gauge matrix g, l floored at tiny: the squared singular values and the
    right singular vectors of g."""
    _, s, vh = np.linalg.svd(g)
    return np.maximum(s * s, np.finfo(float).tiny), vh.conj().T


def _polar_log(dims, vals: np.ndarray, vecs: np.ndarray) -> LieElement:
    """(1/2) log(g^dag g) from the spectrum of g^dag g."""
    return LieElement.from_matrix(dims, (vecs * (0.5 * np.log(vals))) @ vecs.conj().T)


def hermitian_log(g: GaugeElement) -> LieElement:
    """(1/2) log(g^dag g): the hermitian exponent of the positive polar factor."""
    return _polar_log(g.dims, *_polar_spectrum(g.matrix()))


def _check_central_complex(p: RepPoint) -> None:
    """mu_C(p), one product of the dmu matrix with p's vector, must be central."""
    dev = central_deviation(moment_complex(p))
    if dev > CHECK_TOL * moment_scale(p):
        raise NotOnVariety(
            f"complex moment map is not central (deviation {dev:.3e}); "
            "the real-moment solve is only defined on central levels")


def _polar_point(p: RepPoint, g_total: np.ndarray, level: np.ndarray,
                 tol: float) -> tuple[LieElement, RepPoint, float]:
    """(xi, exp(xi).p, residual) for the polar exponent xi of the accumulated
    block-diagonal gauge matrix g_total; level holds the coordinates of
    2 sigma Id.

    The iterates meet tol, but the point rebuilt from a badly conditioned
    accumulated gauge can miss the level, or overflow and make the bound
    SLACK tol max(1, |p|^2) infinite; such a solve raises NotOnVariety
    rather than report a point off the variety.
    """
    coords = p.layout
    vals, vecs = _polar_spectrum(g_total)
    with np.errstate(all="ignore"):
        fwd, back = _spectral_pair(coords.block_mask, np.sqrt(vals), vecs)
        x = coords.from_stack(coords.conjugate(coords.to_stack(p.vec), fwd, back))
        residual = float(np.linalg.norm(_residual(coords, x, level)[1]))
        point = RepPoint.from_flat(p.quiver, p.dims, x)
        bound = SLACK * tol * moment_scale(point)
    if not residual <= bound < np.inf:
        raise NotOnVariety(
            f"point rebuilt from the polar factor misses its level "
            f"(residual {residual:.3e}, bound {bound:.3e})")
    return _polar_log(p.dims, vals, vecs), point, residual


class _Iterate(NamedTuple):
    """An iterate of the Newton loop: its stack, the real action matrix A at
    it, its residual and the residual's norm."""
    stack: np.ndarray
    a: np.ndarray
    res: np.ndarray
    norm: float


def _move(coords: FlatLayout, level: np.ndarray, stack: np.ndarray,
          spectrum: tuple[np.ndarray, np.ndarray],
          t: float) -> tuple[np.ndarray, _Iterate]:
    """(exp(t X), the iterate exp(t X).P) for the point P held in stack and
    the block-diagonal hermitian X of the given (eigenvalues, eigenvectors);
    an overflowing move has a non-finite residual norm."""
    lam, vecs = spectrum
    with np.errstate(all="ignore"):
        fwd, back = _spectral_pair(coords.block_mask, np.exp(t * lam), vecs)
        trial = coords.conjugate(stack, fwd, back)
        a, res = _residual(coords, coords.from_stack(trial), level)
        return fwd, _Iterate(trial, a, res, float(np.linalg.norm(res)))


def _newton_step(coords: FlatLayout, level: np.ndarray, cur: _Iterate, t: float,
                 halvings: int) -> tuple[float, np.ndarray, _Iterate] | None:
    """The Newton step from cur at fraction t, halved at most `halvings`
    times until the residual norm falls to (1 - ARMIJO_SLOPE t) times cur's:
    (the accepted fraction, exp(t step), the new iterate), or None."""
    step = np.zeros(coords.block_mask.shape, dtype=complex)
    step[coords.block_mask] = coords.herm @ _spectral_solve(
        guarded_eigh(2.0 * (cur.a.T @ cur.a)), -cur.res)
    spectrum = np.linalg.eigh(step)
    for _ in range(halvings + 1):
        # an overflowing trial is an ordinary rejection
        fwd, nxt = _move(coords, level, cur.stack, spectrum, t)
        if np.isfinite(nxt.norm) and nxt.norm <= (1.0 - ARMIJO_SLOPE * t) * cur.norm:
            return t, fwd, nxt
        t *= 0.5
    return None


@dataclass
class SolveReport:
    xi: LieElement
    residual: float
    iterations: int
    history: list[tuple[int, float, float]] = field(default_factory=list)
    point: RepPoint | None = None


def solve_real_moment(p: RepPoint, sigma, tol: float = TOL,
                      max_iter: int = MAX_NEWTON_ITER,
                      forced_damping: tuple[float, ...] = (), *,
                      guess: LieElement | None = None) -> SolveReport:
    """Damped Newton on the complex-gauge orbit of p.

    forced_damping pins the step fraction of the first iterations (used to
    realize distinct schedules for the uniqueness checks); afterwards a full
    step with up to MAX_HALVINGS halvings on the residual norm is used.  The
    returned point meets its level within SLACK tol max(1, |p|^2);
    NotOnVariety otherwise.

    guess, a hermitian element near the answer's xi (a neighbouring solve's),
    moves the start to exp(guess).p; a start that already meets tol takes one
    more step if that step passes the Armijo test, so that a warm solve ends
    at the round-off of a cold one rather than just under tol.  The returned
    point and xi are the unique Kempf-Ness answer either way.
    """
    _check_central_complex(p)
    sig = np.asarray(sigma, dtype=float)
    if sig.shape != (p.quiver.n,):
        raise ValueError("sigma must provide one real entry per vertex")

    coords = p.layout
    level = coords.central_herm_coords(2.0 * sig)
    stack = coords.to_stack(p.vec)
    if guess is None:
        a, res = _residual(coords, p.vec, level)
        g_total = np.eye(coords.nv, dtype=complex)
        cur = _Iterate(stack, a, res, float(np.linalg.norm(res)))
    else:
        g_total, cur = _move(coords, level, stack, np.linalg.eigh(guess.matrix()), 1.0)
    history: list[tuple[int, float, float]] = [(0, cur.norm, 0.0)]

    # a guessed start inside tol still tries one step: the guess alone
    # would end the solve just under tol, short of a cold solve's round-off
    it = 0
    while cur.norm > tol or (guess is not None and it == 0 < max_iter):
        if it >= max_iter:
            raise MaxIterations(
                f"real-moment solve hit {max_iter} iterations, residual {cur.norm:.3e}")
        t = forced_damping[it] if it < len(forced_damping) else 1.0
        taken = _newton_step(coords, level, cur, t,
                             MAX_HALVINGS if cur.norm > tol else 0)
        if taken is None:
            if cur.norm <= tol:
                break
            raise MaxIterations(
                f"residual stalled at {cur.norm:.3e} after {MAX_HALVINGS} halvings")
        t, fwd, cur = taken
        g_total = fwd @ g_total
        it += 1
        history.append((it, cur.norm, t))

    xi, point, final = _polar_point(p, g_total, level, tol)
    return SolveReport(xi=xi, residual=final, iterations=it,
                       history=history, point=point)


@dataclass
class GradedSolveReport:
    stages: list[tuple[int, LieElement]]
    residual: float
    point: RepPoint


def graded_solve(p_start: RepPoint, grading, r_scale: float,
                 sigma) -> GradedSolveReport:
    """Stagewise solve near a graded fixed point.

    Stage j inverts the operator frozen at the fixed point (the grading's
    frozen_spectrum, factored once per grading) on the weight blocks
    |m| <= j of the hermitian residual; the correction exponent is
    confined to those blocks (GradingViolation otherwise) and scales as
    R^{j+2}.  A final plain Newton pass finishes to TOL and gives the
    returned point and residual.  Returned stage elements are the unscaled
    coefficients xi_j = delta_j / R^{j+2}.
    """
    sig = np.asarray(sigma, dtype=float)
    coords = p_start.layout
    level = coords.central_herm_coords(2.0 * sig)
    m_max = grading.max_end_weight()

    mask, x = coords.block_mask, p_start.vec
    stack = coords.to_stack(x)
    stages: list[tuple[int, LieElement]] = []
    for j in range(m_max):
        res_j = grading.lie_project(coords.herm_element(_residual(coords, x, level)[1]), j)
        delta = coords.herm_element(
            _spectral_solve(grading.frozen_spectrum, -coords.herm_coords(res_j)))
        kept = grading.lie_project(delta, j)
        outside = (delta - kept).norm()
        d_norm = delta.norm()
        if d_norm > 0 and outside > CHECK_TOL * d_norm:
            raise GradingViolation(
                f"stage {j} correction leaves its weight block "
                f"(relative leakage {outside / d_norm:.3e})")
        lam, vecs = np.linalg.eigh(kept.matrix())
        stack = coords.conjugate(stack, *_spectral_pair(mask, np.exp(lam), vecs))
        x = coords.from_stack(stack)
        stages.append((j, kept * float(r_scale) ** (-(j + 2))))

    final = solve_real_moment(RepPoint.from_flat(p_start.quiver, p_start.dims, x),
                              sig)
    stages.append((m_max, final.xi * float(r_scale) ** (-(m_max + 2))))
    return GradedSolveReport(stages=stages, residual=final.residual, point=final.point)
