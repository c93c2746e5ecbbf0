"""Transverse slices to gauge orbits on the complex moment level.

The tangent space at a stable point is the joint kernel of the complex
moment derivative and the adjoint of the infinitesimal action.  One builder
takes one SVD of these conditions per base point, on the whole space or on
the positive-weight subspace of a fixed-point grading; its SliceBasis
carries the tangent columns `span` and the Newton `directions`.  The slice
solvers take that basis and correct a tangent increment so that p + q stays
on the central complex level while remaining metric-orthogonal to the orbit.
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
    taken at the base point p: the slice orthogonality condition stays fixed
    while the moment rows move to p + shift."""
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
    """The slice tangent at base_point from one SVD: span holds its orthonormal
    flat columns, directions those of its complement in the same subspace."""
    base_point: RepPoint
    span: np.ndarray
    directions: np.ndarray
    kind: str  # "full_tangent" | "bb_tangent"

    @property
    def vectors(self) -> list[RepPoint]:
        p = self.base_point
        return [RepPoint.from_flat(p.quiver, p.dims, col) for col in self.span.T]

    def count(self) -> int:
        return self.span.shape[1]

    def real_dimension(self) -> int:
        return 2 * self.count()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count(),
            "real_dimension": self.real_dimension(),
            "base_point": self.base_point.to_dict(),
            "vectors": [v.to_dict() for v in self.vectors],
        }


def _slice_basis(p: RepPoint, sub: np.ndarray | None) -> SliceBasis:
    """Slice tangent at p inside the span of the orthonormal columns sub
    (the whole space when None), from one SVD of the conditions on it.

    Its real dimension must be the expected dimension on the whole space and
    half of it on a subspace; a mismatch signals non-genericity or
    instability.
    """
    conditions = stacked_conditions(p)
    null, row = _null_and_row(conditions if sub is None else conditions @ sub)
    if sub is not None:
        null, row = sub @ null, sub @ row
    expected, got = expected_dimension(p.quiver, p.dims), 2 * null.shape[1]
    if sub is None and got != expected:
        raise DimensionMismatch(
            f"tangent null space has real dimension {got}, expected {expected}")
    if sub is not None and 2 * got != expected:
        raise DimensionMismatch(
            f"positive-weight null space has real dimension {got}, "
            f"expected half of {expected}")
    worst = float(np.linalg.norm(conditions @ null, axis=0).max(initial=0.0))
    if worst > TANGENT_TOL * max(1.0, p.norm()):
        raise DimensionMismatch(
            f"tangent vector violates the defining conditions ({worst:.3e})")
    return SliceBasis(base_point=p, span=null, directions=row,
                      kind="full_tangent" if sub is None else "bb_tangent")


def tangent_basis(p: RepPoint) -> SliceBasis:
    """Orthonormal basis of the slice tangent space at a stable point."""
    return _slice_basis(p, None)


def bb_tangent_basis(p0: RepPoint, grading: WeightGrading) -> SliceBasis:
    """Slice tangent basis inside the strictly positive weight subspace;
    its real dimension must be half the full slice dimension."""
    return _slice_basis(p0, grading.columns(grading.slot_weights() >= 1))


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


def _constrained_newton(basis: SliceBasis, q0: RepPoint) -> RepPoint:
    """Newton on F(q) = (mu_C(p+q) - mu_C(p), adjoint-action_p(q)) at the base
    point p, with updates restricted to the span of basis.directions.  The
    adjoint rows and their product with the directions are formed once per
    solve; each trial's dmu_matrix(p + q) gives its residual (mu_C(p+q) =
    dmu_C(p+q, p+q) / 2) and, once it is accepted, the next Jacobian."""
    p, directions = basis.base_point, basis.directions
    lay, x = p.layout, p.vec
    target = moment_complex(p).flatten()
    adjoint = lay.action_matrix(p).conj().T
    adjoint_dir = adjoint @ directions

    def trial(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        at = x + q
        dmu = lay.dmu_matrix(RepPoint._wrap(lay, at))
        r = np.concatenate([0.5 * (dmu @ at) - target, adjoint @ q])
        return r, dmu, float(np.linalg.norm(r))

    q = q0.flatten()
    r, dmu, r_norm = trial(q)
    scale = moment_scale(p + q0)
    it = 0
    while r_norm > TOL * scale:
        if it >= MAX_SLICE_ITER:
            raise MaxIterations(
                f"slice correction hit {MAX_SLICE_ITER} iterations, "
                f"residual {r_norm:.3e}")
        jac = np.concatenate([dmu @ directions, adjoint_dir])
        delta_c, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        delta_flat = directions @ delta_c
        t = 1.0
        for _ in range(MAX_HALVINGS + 1):
            q_try = q + t * delta_flat
            r_try, dmu_try, n_try = trial(q_try)
            if n_try <= (1.0 - ARMIJO_SLOPE * t) * r_norm:
                break
            t *= 0.5
        else:
            raise LeftBasin(
                f"slice correction stalled at residual {r_norm:.3e}; "
                "starting increment is outside the Newton basin")
        q, r, dmu, r_norm = q_try, r_try, dmu_try, n_try
        it += 1
    return RepPoint._wrap(lay, q)


def slice_solve(basis: SliceBasis, q0: RepPoint) -> RepPoint:
    """Correct a tangent increment so p + q solves the complex moment equation,
    p the base point of the full slice basis.

    The returned q keeps the tangential projection of q0 (chart condition):
    Newton updates move along basis.directions, the metric complement of the
    tangent space.  The complex moment target is the central value at p itself.
    """
    p = basis.base_point
    if central_deviation(moment_complex(p)) > CHECK_TOL * moment_scale(p):
        raise NotOnSlice("base point does not sit on a central complex level")
    span, flat0 = basis.span, q0.flatten()
    off = flat0 - span @ (span.conj().T @ flat0)
    if float(np.linalg.norm(off)) > \
            CHECK_TOL * max(1.0, float(np.linalg.norm(flat0))):
        raise NotOnSlice("starting increment is not tangent to the slice")
    return _constrained_newton(basis, q0)


def positive_weight_project(q: RepPoint, grading: WeightGrading) -> RepPoint:
    """Metric-orthogonal projection onto the weight >= 1 subspace."""
    return grading.project(q, grading.slot_weights() >= 1)


def bb_slice_solve(basis: SliceBasis, q0: RepPoint,
                   grading: WeightGrading) -> RepPoint:
    """Correct a positive-weight tangent increment onto the attracting slice
    at the base point of the attracting basis.

    The start is projected onto the weight >= 1 subspace once; the basis
    directions lie in that subspace, so every Newton iterate stays there.
    Increments beyond the basin are first shrunk with the inverse blockwise
    rescaling, solved small, and mapped back with the forward rescaling,
    which preserves both slice equations.
    """
    norm0 = q0.norm()
    if norm0 > BASIN_NORM:
        R = 2.0 * norm0 / BASIN_NORM
        return grading.act(R, bb_slice_solve(basis, grading.act(1.0 / R, q0), grading))
    return _constrained_newton(basis, positive_weight_project(q0, grading))
