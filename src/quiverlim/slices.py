"""Transverse slices to gauge orbits on the complex moment level.

The tangent space at a stable point is the joint kernel of the complex
moment derivative and the adjoint of the infinitesimal action.  The slice
solvers correct a tangent increment nonlinearly so that p + q stays on the
central complex level while remaining metric-orthogonal to the orbit; the
positive-weight variants run the same construction inside the attracting
subspace of a fixed-point grading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import (ARMIJO_SLOPE, BASIN_NORM, CHECK_TOL, COND_LIMIT,
                     MAX_HALVINGS, MAX_SLICE_ITER, SV_RATIO, TANGENT_TOL, TOL,
                     moment_scale)
from .errors import (DimensionMismatch, IllConditioned, LeftBasin,
                     MaxIterations, NotOnSlice)
from .fixedpoints import WeightGrading
from .quiver import expected_dimension
from .repspace import RepPoint, central_deviation, moment_complex


def stacked_conditions(p: RepPoint, shift: RepPoint | None = None) -> np.ndarray:
    """Matrix of q -> (dmu_C(p + shift, q), adjoint-action_p(q)) on flat coords.

    The adjoint rows, the conjugate transpose of the action matrix, are
    taken at the base point p: the slice orthogonality condition is fixed
    while the moment rows move with the Newton iterate."""
    lay = p.layout
    at = p if shift is None else p + shift
    return np.concatenate([lay.dmu_matrix(at), lay.action_matrix(p).conj().T])


def _null_and_row(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(null-space basis columns, row-space basis columns)."""
    if mat.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex), np.zeros((0, 0), dtype=complex)
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    rank = int(np.sum(s > SV_RATIO * s[0])) if s.size and s[0] > 0 else 0
    return vh[rank:].conj().T, vh[:rank].conj().T


@dataclass
class SliceBasis:
    base_point: RepPoint
    vectors: list[RepPoint]
    kind: str  # "full_tangent" | "bb_tangent"

    def count(self) -> int:
        return len(self.vectors)

    def real_dimension(self) -> int:
        return 2 * len(self.vectors)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count(),
            "real_dimension": self.real_dimension(),
            "base_point": self.base_point.to_dict(),
            "vectors": [v.to_dict() for v in self.vectors],
        }


def tangent_basis(p: RepPoint) -> SliceBasis:
    """Orthonormal basis of the slice tangent space at a stable point.

    The count must match the expected dimension (as a real dimension);
    a mismatch signals non-genericity or instability.
    """
    conditions = stacked_conditions(p)
    null, _ = _null_and_row(conditions)
    expected = expected_dimension(p.quiver, p.dims)
    if 2 * null.shape[1] != expected:
        raise DimensionMismatch(
            f"tangent null space has real dimension {2 * null.shape[1]}, "
            f"expected {expected}")
    vectors = [RepPoint.from_flat(p.quiver, p.dims, col) for col in null.T]
    scale = max(1.0, p.norm())
    worst = float(np.linalg.norm(conditions @ null, axis=0).max(initial=0.0))
    if worst > TANGENT_TOL * scale:
        raise DimensionMismatch(
            f"tangent vector violates the defining conditions ({worst:.3e})")
    return SliceBasis(base_point=p, vectors=vectors, kind="full_tangent")


def moment_derivative_matrix(p: RepPoint) -> np.ndarray:
    """Flat-coordinate matrix of q -> dmu_C(p, q)."""
    return p.layout.dmu_matrix(p)


def moment_correction(p: RepPoint, q: RepPoint) -> RepPoint:
    """Linear correction q + (dmu_C)^*G(-dmu_C(p,q)) killing the moment row.

    G is the pseudo-inverse of dmu_C (dmu_C)^* on its image; the result is
    the metric-orthogonal projection of q onto ker dmu_C(p, .).
    """
    D = moment_derivative_matrix(p)
    u, s, vh = np.linalg.svd(D, full_matrices=False)
    smax = s[0] if s.size else 0.0
    keep = s > SV_RATIO * smax if smax > 0 else np.zeros(0, dtype=bool)
    if keep.any():
        smin = float(s[keep].min())
        cond = (float(smax) / smin) ** 2
        if cond > COND_LIMIT:
            raise IllConditioned(
                f"moment-derivative normal operator condition {cond:.3e}")
    y = -(D @ q.flatten())
    coef = u[:, keep].conj().T @ y
    corr = vh[keep].conj().T @ (coef / s[keep])
    return q + RepPoint.from_flat(p.quiver, p.dims, corr)


def _constrained_newton(p: RepPoint, q0: RepPoint, directions: np.ndarray,
                        target, stay_inside=None) -> RepPoint:
    """Newton on F(q) = (mu_C(p+q) - target, adjoint-action_p(q)) with updates
    restricted to the span of `directions` (columns, flat coords).  Each
    trial's stacked_conditions give its residual (mu_C(p+q) = dmu_C(p+q, p+q)
    / 2) and, once it is accepted, the next Jacobian."""
    lay, x = p.layout, p.vec
    adjoint = lay.action_matrix(p).conj().T

    def trial(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        cond = stacked_conditions(p, shift=RepPoint._wrap(lay, q))
        r = np.concatenate([0.5 * (cond[:lay.lie_dim] @ (x + q)) - target, adjoint @ q])
        return r, cond, float(np.linalg.norm(r))

    q = q0.flatten()
    r, cond, r_norm = trial(q)
    scale = moment_scale(p + q0)
    it = 0
    while r_norm > TOL * scale:
        if it >= MAX_SLICE_ITER:
            raise MaxIterations(
                f"slice correction hit {MAX_SLICE_ITER} iterations, "
                f"residual {r_norm:.3e}")
        delta_c, *_ = np.linalg.lstsq(cond @ directions, -r, rcond=None)
        delta_flat = directions @ delta_c
        t = 1.0
        for _ in range(MAX_HALVINGS + 1):
            q_try = q + t * delta_flat
            if stay_inside is not None:
                q_try = stay_inside(RepPoint._wrap(lay, q_try)).vec
            r_try, cond_try, n_try = trial(q_try)
            if n_try <= (1.0 - ARMIJO_SLOPE * t) * r_norm:
                break
            t *= 0.5
        else:
            raise LeftBasin(
                f"slice correction stalled at residual {r_norm:.3e}; "
                "starting increment is outside the Newton basin")
        q, r, cond, r_norm = q_try, r_try, cond_try, n_try
        it += 1
    return RepPoint._wrap(lay, q)


def slice_solve(p: RepPoint, q0: RepPoint) -> RepPoint:
    """Correct a tangent increment so p + q solves the complex moment equation.

    The returned q keeps the tangential projection of q0 (chart condition):
    Newton updates are restricted to the metric complement of the tangent
    space.  The complex moment target is the central value at p itself.
    """
    mc = moment_complex(p)
    if central_deviation(mc) > CHECK_TOL * moment_scale(p):
        raise NotOnSlice("base point does not sit on a central complex level")
    null, row = _null_and_row(stacked_conditions(p))
    flat0 = q0.flatten()
    off = flat0 - null @ (null.conj().T @ flat0)
    if float(np.linalg.norm(off)) > \
            CHECK_TOL * max(1.0, float(np.linalg.norm(flat0))):
        raise NotOnSlice("starting increment is not tangent to the slice")
    return _constrained_newton(p, q0, row, mc.flatten())


def bb_tangent_basis(p0: RepPoint, grading: WeightGrading) -> SliceBasis:
    """Slice tangent basis inside the strictly positive weight subspace.

    Its real dimension must be half the full slice dimension.
    """
    plus = grading.columns(grading.slot_weights() >= 1)
    null, _ = _null_and_row(stacked_conditions(p0) @ plus)
    expected = expected_dimension(p0.quiver, p0.dims)
    got = 2 * null.shape[1]
    if 2 * got != expected:
        raise DimensionMismatch(
            f"positive-weight null space has real dimension {got}, "
            f"expected half of {expected}")
    vectors = [RepPoint.from_flat(p0.quiver, p0.dims, plus @ col) for col in null.T]
    return SliceBasis(base_point=p0, vectors=vectors, kind="bb_tangent")


def positive_weight_project(q: RepPoint, grading: WeightGrading) -> RepPoint:
    """Metric-orthogonal projection onto the weight >= 1 subspace."""
    return grading.project(q, grading.slot_weights() >= 1)


def bb_slice_solve(p0: RepPoint, q0: RepPoint, grading: WeightGrading) -> RepPoint:
    """Correct a positive-weight tangent increment onto the attracting slice.

    Newton updates stay inside the weight >= 1 subspace (projector applied
    each step).  Increments beyond the basin are first shrunk with the
    inverse blockwise rescaling, solved small, and mapped back with the
    forward rescaling, which preserves both slice equations.
    """
    norm0 = q0.norm()
    if norm0 > BASIN_NORM:
        R = 2.0 * norm0 / BASIN_NORM
        return grading.act(R, bb_slice_solve(p0, grading.act(1.0 / R, q0), grading))

    plus = grading.columns(grading.slot_weights() >= 1)
    if plus.shape[1] == 0:
        return q0.copy()
    _, row_c = _null_and_row(stacked_conditions(p0) @ plus)
    directions = plus @ row_c if row_c.shape[1] else plus[:, :0]

    def keep_graded(q: RepPoint) -> RepPoint:
        return positive_weight_project(q, grading)

    target = moment_complex(p0).flatten()
    return _constrained_newton(p0, keep_graded(q0), directions, target,
                               stay_inside=keep_graded)
