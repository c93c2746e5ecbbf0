"""Transverse slices to gauge orbits on the complex moment level.

The tangent space at a stable point is the joint kernel of the complex
moment derivative and the adjoint of the infinitesimal action.  One builder
takes one SVD of these conditions per base point, on the whole space or on
the positive-weight subspace of a fixed-point grading; its SliceBasis
carries the tangent columns `span`, the Newton `directions` and the grading
of an attracting basis.  The slice solvers take that basis and correct a
tangent increment so that p + q stays on the central complex level while
remaining metric-orthogonal to the orbit, by the solver's damped min-norm
Newton kernel.  check_slice_increment tests an increment against these
conditions and returns the checked SliceIncrement that the conformal layer
takes; conformal_flat builds the conformal family member attached to one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import (BASIN_NORM, CHECK_TOL, COND_LIMIT, SV_RATIO, TANGENT_TOL,
                     TOL, moment_scale)
from .errors import DimensionMismatch, IllConditioned, NotOnSlice
from .fixedpoints import WeightGrading
from .quiver import expected_dimension
from .repspace import RepPoint, central_deviation, inf_action_adjoint, moment_complex
from .solver import _min_norm_newton


def stacked_conditions(p: RepPoint) -> np.ndarray:
    """Matrix of q -> (dmu_C(p, q), adjoint-action_p(q)) on flat coords:
    the moment rows over the adjoint rows, the conjugate transpose of the
    action matrix."""
    lay = p.layout
    return np.concatenate([lay.dmu_matrix(p), lay.action_matrix(p).conj().T])


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
    flat columns, directions those of its complement in the same subspace,
    and grading the grading of an attracting basis (None on the full slice)."""
    base_point: RepPoint
    span: np.ndarray
    directions: np.ndarray
    grading: WeightGrading | None = None

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
            "kind": "full_tangent" if self.grading is None else "bb_tangent",
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
    return SliceBasis(base_point=p, span=null, directions=row)


def tangent_basis(p: RepPoint) -> SliceBasis:
    """Orthonormal basis of the slice tangent space at a stable point."""
    return _slice_basis(p, None)


def bb_tangent_basis(grading: WeightGrading) -> SliceBasis:
    """Slice tangent basis at grading.base_point inside the strictly positive
    weight subspace, carrying grading; half the full slice's real dimension."""
    sub = grading.columns(grading.slot_weights() >= 1)
    return replace(_slice_basis(grading.base_point, sub), grading=grading)


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
    """q0 corrected along basis.directions so that p + q keeps the complex
    moment of the base point p, q orthogonal to the gauge orbit of p."""
    p = basis.base_point
    return _min_norm_newton(p, q0, moment_complex(p).flatten(),
                            p.layout.action_matrix(p).conj().T,
                            basis.directions, TOL)


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
    if float(np.linalg.norm(off)) > CHECK_TOL * max(1.0, float(np.linalg.norm(flat0))):
        raise NotOnSlice("starting increment is not tangent to the slice")
    return _constrained_newton(basis, q0)


def positive_weight_project(q: RepPoint, grading: WeightGrading) -> RepPoint:
    """Metric-orthogonal projection onto the weight >= 1 subspace."""
    return grading.project(q, grading.slot_weights() >= 1)


def bb_slice_solve(basis: SliceBasis, q0: RepPoint) -> RepPoint:
    """Correct a positive-weight tangent increment onto the attracting slice
    at the base point of an attracting basis (ValueError for a full one).

    The start is projected onto the weight >= 1 subspace once; the basis
    directions lie in that subspace, so every Newton iterate stays there.
    A projected start beyond the basin is shrunk once by the graded action
    at 1/R, R = 2|q|/BASIN_NORM, which takes it below half the basin, solved
    small, and mapped back by the action at R; both preserve the slice.
    """
    if (grading := basis.grading) is None:
        raise ValueError("bb_slice_solve needs an attracting basis, not a full slice basis")
    q = positive_weight_project(q0, grading)
    if (norm := q.norm()) <= BASIN_NORM:
        return _constrained_newton(basis, q)
    R = 2.0 * norm / BASIN_NORM
    return grading.act(R, _constrained_newton(basis, grading.act(1.0 / R, q)))


@dataclass(frozen=True)
class SliceIncrement:
    """The point p0 + A of the attracting slice of p0 = grading.base_point,
    as check_slice_increment accepted it: A (a copy of the one checked) with
    its complex-moment move mc_dev and gauge-orbit component adj."""
    grading: WeightGrading
    A: RepPoint
    mc_dev: float
    adj: float

    @property
    def p0(self) -> RepPoint:
        return self.grading.base_point


def check_slice_increment(A: RepPoint, grading: WeightGrading) -> SliceIncrement:
    """Raise NotOnSlice unless A keeps the complex moment of p0 =
    grading.base_point on its central level, is orthogonal to the gauge
    orbit of p0 and has no support below weight one of grading."""
    p0 = grading.base_point
    at = p0 + A
    mc_dev = (moment_complex(at) - moment_complex(p0)).norm()
    if mc_dev > CHECK_TOL * moment_scale(at):
        raise NotOnSlice(
            f"increment moves the complex moment off its central level ({mc_dev:.3e})")
    adj = inf_action_adjoint(p0, A).norm()
    if adj > CHECK_TOL * max(1.0, p0.norm() * A.norm()):
        raise NotOnSlice(
            f"increment is not orthogonal to the gauge orbit ({adj:.3e})")
    off = (A - positive_weight_project(A, grading)).norm()
    if off > CHECK_TOL * max(1.0, A.norm()):
        raise NotOnSlice(
            f"increment has support below weight one ({off:.3e})")
    return SliceIncrement(grading, RepPoint.from_flat(A.quiver, A.dims, A.vec), mc_dev, adj)


def conformal_flat(inc: SliceIncrement, hbar) -> np.ndarray:
    """The flat coordinates of the conformal family member at the slice
    point inc and scale hbar; an array hbar of shape (N, 1) gives one member
    per row.  Each entry pairs with the conjugate of its partner entry (see
    FlatLayout)."""
    lay, x, a = inc.p0.layout, inc.p0.vec, inc.A.vec
    back = np.conj(x[lay.partner_index])
    return np.where(lay.scaled, (x + a) / hbar + back, x + a - hbar * back)
