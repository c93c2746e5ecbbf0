"""Seeded sampling of points on the variety.

A counter-based generator keyed by the run seed drives every draw, so equal
configurations reproduce byte-identical output.  Raw gaussian points are
first projected onto the central complex level with a min-norm Newton
iteration, then moved to the real-moment solution along the complex gauge
orbit.  The seeded attracting-slice increment of a conformal-limit setup is
drawn here as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import LEVEL_TOL, MAX_SLICE_ITER, SAMPLE_RESTARTS, moment_scale
from .errors import (MaxIterations, NotInjective, NotOnVariety, QuiverLimError,
                     SamplingFailed)
from .fixedpoints import WeightGrading
from .quiver import CentralParameter, DimensionVectors, Quiver
from .repspace import RepPoint, central_lie, rep_dim
from .slices import SliceBasis, bb_slice_solve, moment_derivative_matrix
from .solver import SolveReport, solve_real_moment


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; the single randomness source of the package."""
    return np.random.Generator(np.random.Philox(int(seed)))


def random_rep(quiver: Quiver, dims: DimensionVectors,
               rng: np.random.Generator, scale: float = 1.0) -> RepPoint:
    """Standard complex gaussian entries in every slot, scaled uniformly."""
    n = rep_dim(quiver, dims)
    flat = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    return RepPoint.from_flat(quiver, dims, scale * flat)


def project_complex_level(p: RepPoint, c_values) -> RepPoint:
    """Min-norm Newton projection onto the complex level mu_C = c.

    Each step solves the linearization in the least-squares sense, which
    picks the increment orthogonal to the kernel; quadratic convergence
    makes the projection sharp at desk scale.
    """
    target = central_lie(np.asarray(c_values, dtype=complex), p.dims).flatten()
    cur = p.copy()
    for _ in range(MAX_SLICE_ITER):
        D = moment_derivative_matrix(cur)
        res = 0.5 * (D @ cur.vec) - target  # mu_C(cur) - c, as mu_C(p) = dmu_C(p, p) / 2
        norm = float(np.linalg.norm(res))
        if norm <= LEVEL_TOL * moment_scale(cur):
            return cur
        delta, *_ = np.linalg.lstsq(D, -res, rcond=None)
        cur = cur + RepPoint.from_flat(p.quiver, p.dims, delta)
    raise MaxIterations(
        f"complex-level projection did not converge (residual {norm:.3e})")


@dataclass
class SampleReport:
    point: RepPoint
    solve: SolveReport
    attempts: int
    seed: int


def sample_on_variety(quiver: Quiver, dims: DimensionVectors,
                      central: CentralParameter, seed: int = 0) -> SampleReport:
    """Draw a random point of the variety at the configured central parameter.

    Retries with fresh gaussian draws when a projection or solve fails;
    gives up with SamplingFailed after SAMPLE_RESTARTS draws.
    """
    rng = make_rng(seed)
    sigma = central.sigma_array()
    c_vals = central.c_array()
    last: QuiverLimError | None = None
    for attempt in range(1, SAMPLE_RESTARTS + 1):
        raw = random_rep(quiver, dims, rng)
        try:
            leveled = project_complex_level(raw, c_vals)
            rep = solve_real_moment(leveled, sigma)
        except (MaxIterations, NotInjective, NotOnVariety) as exc:
            last = exc
            continue
        return SampleReport(point=rep.point, solve=rep, attempts=attempt,
                            seed=int(seed))
    raise SamplingFailed(
        f"no variety point after {SAMPLE_RESTARTS} restarts (last error: {last})")


def seeded_increment(basis: SliceBasis, seed: int, scale: float) -> RepPoint:
    """A seeded gaussian increment in the span of an orthonormal slice basis.

    Every flat coordinate draws scale * (x + iy) with x, y standard normal,
    and the draw is projected orthogonally onto the span.  Its coordinates
    in the basis are then independent with that same law, but the increment
    depends only on the span, not on which orthonormal basis of it the SVD
    returned.
    """
    p = basis.base_point
    n = rep_dim(p.quiver, p.dims)
    rng = make_rng(seed)
    flat = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    vecs = np.array([v.flatten() for v in basis.vectors], dtype=complex).reshape(-1, n)
    return RepPoint.from_flat(p.quiver, p.dims, vecs.T @ (vecs.conj() @ flat))


def attracting_increment(basis: SliceBasis, grading: WeightGrading,
                         seed: int) -> RepPoint:
    """The seeded attracting-slice increment A at the fixed point basis.base_point.

    seeded_increment(basis, seed + 5, 0.3) corrected onto the attracting
    slice; zero when the slice is zero-dimensional.  verify and the CLI both
    draw A here, so they study the same conformal limit.
    """
    p0 = basis.base_point
    if basis.count() == 0:
        return RepPoint.zeros(p0.quiver, p0.dims)
    return bb_slice_solve(p0, seeded_increment(basis, seed + 5, 0.3), grading)
