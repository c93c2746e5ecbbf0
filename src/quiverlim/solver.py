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

The min-norm Newton kernel of the sample projection and the slice solves
lives here too, and both loops step by the one rule of _armijo_step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import (ARMIJO_SLOPE, CHECK_TOL, EIG_FLOOR_RATIO, MAX_HALVINGS,
                     MAX_NEWTON_ITER, MAX_SLICE_ITER, SLACK, TOL, moment_scale)
from .errors import LeftBasin, MaxIterations, NotInjective, NotOnVariety
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


def _newton_direction(a: np.ndarray, res: np.ndarray) -> np.ndarray:
    """The solution d of 2 A^T A d = -res, from an eigh of the Newton matrix
    2 A^T A whose smallest-eigenvalue ratio is guarded (NotInjective)."""
    if res.size == 0:
        return res
    vals, vecs = np.linalg.eigh(2.0 * (a.T @ a))
    top = float(vals.max(initial=0.0))
    if top <= 0.0 or float(vals.min()) < EIG_FLOOR_RATIO * top:
        raise NotInjective(
            f"linearized operator eigenvalue ratio below {EIG_FLOOR_RATIO:g} "
            f"(min {vals.min():.3e}, max {top:.3e})")
    return vecs @ ((vecs.T @ -res) / vals)


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
    """An iterate of the moment solve: its stack, the gauge exp(t X) of the
    move that reached it (the identity at a cold start), the real action
    matrix A at it, its residual and the residual's norm."""
    stack: np.ndarray
    fwd: np.ndarray
    a: np.ndarray
    res: np.ndarray
    norm: float


def _move(coords: FlatLayout, level: np.ndarray, stack: np.ndarray,
          spectrum: tuple[np.ndarray, np.ndarray], t: float) -> _Iterate:
    """The iterate exp(t X).P for the point P held in stack and the
    block-diagonal hermitian X of the given (eigenvalues, eigenvectors)."""
    lam, vecs = spectrum
    fwd, back = _spectral_pair(coords.block_mask, np.exp(t * lam), vecs)
    trial = coords.conjugate(stack, fwd, back)
    a, res = _residual(coords, coords.from_stack(trial), level)
    return _Iterate(trial, fwd, a, res, float(np.linalg.norm(res)))


def _armijo_step(trial, norm: float, t: float, halvings: int):
    """(s, trial(s)) for the first s of t, t/2, ..., t/2^halvings whose
    residual norm, the last entry of trial(s), is finite and at most
    (1 - ARMIJO_SLOPE s) norm, else None.  A trial runs with floating-point
    warnings off: one that overflows is an ordinary rejection."""
    for _ in range(halvings + 1):
        with np.errstate(all="ignore"):
            out = trial(t)
        if np.isfinite(out[-1]) and out[-1] <= (1.0 - ARMIJO_SLOPE * t) * norm:
            return t, out
        t *= 0.5
    return None


def _newton_step(coords: FlatLayout, level: np.ndarray, cur: _Iterate, t: float,
                 halvings: int) -> tuple[float, _Iterate] | None:
    """The Newton step from cur at fraction t by the step rule: (the
    accepted fraction, the new iterate), or None."""
    step = np.zeros(coords.block_mask.shape, dtype=complex)
    step[coords.block_mask] = coords.herm @ _newton_direction(cur.a, cur.res)
    spectrum = np.linalg.eigh(step)
    return _armijo_step(lambda s: _move(coords, level, cur.stack, spectrum, s),
                        cur.norm, t, halvings)


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
        cur = _Iterate(stack, np.eye(coords.nv, dtype=complex), a, res,
                       float(np.linalg.norm(res)))
    else:
        with np.errstate(all="ignore"):  # an overflowing start fails the rebuild
            cur = _move(coords, level, stack, np.linalg.eigh(guess.matrix()), 1.0)
    g_total = cur.fwd
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
        t, cur = taken
        g_total = cur.fwd @ g_total
        it += 1
        history.append((it, cur.norm, t))

    xi, point, final = _polar_point(p, g_total, level, tol)
    return SolveReport(xi=xi, residual=final, iterations=it,
                       history=history, point=point)


def graded_solve(grading, A: RepPoint, r_scale: float, sigma) -> SolveReport:
    """The start of the conformal family member at R = r_scale: the cold
    solve at level sigma from p0 + R^D cstar_act(R, A), p0 the base point."""
    return solve_real_moment(grading.base_point + grading.act(r_scale, A), sigma)


def _min_norm_newton(base: RepPoint, q0: RepPoint, target: np.ndarray, adjoint: np.ndarray,
                     directions: np.ndarray | None, tol: float) -> RepPoint:
    """Damped min-norm Newton from q0 on F(q) = (mu_C(x + q) - target,
    adjoint q), x the base point, in the span of the orthonormal columns
    directions (the whole space when None), stepping from t = 1 (LeftBasin
    when that fails) until |F| <= tol moment_scale(x + q).  A trial's
    dmu_matrix(x + q) gives its residual (mu_C(y) = dmu_C(y, y) / 2) and,
    once accepted, the next Jacobian."""
    lay, x = base.layout, base.vec
    adjoint_dir = adjoint if directions is None else adjoint @ directions

    def trial(q: np.ndarray) -> tuple[np.ndarray, RepPoint, np.ndarray, np.ndarray, float]:
        at = RepPoint._wrap(lay, x + q)
        dmu = lay.dmu_matrix(at)
        r = np.concatenate([0.5 * (dmu @ at.vec) - target, adjoint @ q])
        return q, at, r, dmu, float(np.linalg.norm(r))

    q, at, r, dmu, r_norm = trial(q0.flatten())
    it = 0
    while r_norm > tol * moment_scale(at):
        if it >= MAX_SLICE_ITER:
            raise MaxIterations(f"min-norm Newton hit {it} iterations, residual {r_norm:.3e}")
        dmu_dir = dmu if directions is None else dmu @ directions
        delta, *_ = np.linalg.lstsq(np.concatenate([dmu_dir, adjoint_dir]), -r, rcond=None)
        delta = delta if directions is None else directions @ delta
        taken = _armijo_step(lambda t: trial(q + t * delta), r_norm, 1.0, MAX_HALVINGS)
        if taken is None:
            raise LeftBasin(f"min-norm Newton stalled at residual {r_norm:.3e}; "
                            "the start is outside the Newton basin")
        q, at, r, dmu, r_norm = taken[1]
        it += 1
    return RepPoint._wrap(lay, q)
