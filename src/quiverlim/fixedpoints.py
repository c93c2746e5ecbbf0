"""Scaling-action fixed points and their weight decompositions.

The scaling action multiplies every reversed-edge matrix and every j-matrix
by R and leaves the rest alone.  A point is fixed when each rescaling can be
undone by a gauge transformation; the infinitesimal compensator is i*D for a
hermitian D whose per-vertex eigenvalues are the integer weights.  Pairing
the scaling with the gauge power R^D gives a linear action on the whole
representation space that fixes the point and scales its tangent directions
blockwise.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import (CHECK_TOL, ENERGY_SLACK, FLOOR, FLOW_RATIO, FLOW_STEPS,
                     INT_WEIGHT_TOL, SLACK, STABILITY_RATIO, TOL, moment_scale)
from .errors import (GradingViolation, NoConvergence, NonIntegerWeights,
                     NotFixed, NotInjective, NotOnVariety)
from .quiver import DimensionVectors, Quiver
from .repspace import (GaugeElement, LieElement, RepPoint, central_deviation,
                       conjugate_slots, gauge_act, layout, lie_exp,
                       moment_complex, moment_real)
from .solver import solve_real_moment


def cstar_act(R: complex, p: RepPoint) -> RepPoint:
    """Multiply the slots of scaling degree 1 (reversed edges, j) by R."""
    return RepPoint.from_slots(p.quiver, p.dims, [
        R * m if d else m.copy()
        for m, d in zip(p.slots, layout(p.quiver, p.dims).degree)])


def stability_margin(p: RepPoint) -> tuple[float, float]:
    """(smallest, largest) singular value of the complexified gauge action."""
    mat = layout(p.quiver, p.dims).action_matrix(p)
    if mat.shape[1] == 0:
        return float("inf"), 0.0
    s = np.linalg.svd(mat, compute_uv=False)
    return float(s[-1]), float(s[0])


@dataclass
class FixedPointReport:
    fixed: bool
    residual: float
    tol_used: float
    generator: LieElement | None
    stable: bool
    min_singular: float
    crosscheck: float


def _require_on_variety(p: RepPoint, tol: float) -> None:
    """Both moment maps must sit at central values (scalar blocks)."""
    scale = tol * moment_scale(p)
    dev_r = central_deviation(moment_real(p))
    dev_c = central_deviation(moment_complex(p))
    if max(dev_r, dev_c) > scale:
        raise NotOnVariety(
            f"point is not on a central moment level "
            f"(real deviation {dev_r:.3e}, complex deviation {dev_c:.3e})")


def is_fixed_point(p: RepPoint, tol: float = CHECK_TOL) -> FixedPointReport:
    """Detect a scaling-action fixed point and recover its compensating generator.

    Solves the least-squares problem matching the infinitesimal gauge action
    of a hermitian D against the derivative of the scaling action, then
    confirms at two finite angles.  The point must sit on central moment
    levels (NotOnVariety otherwise).
    """
    _require_on_variety(p, tol)
    scale = tol * max(1.0, p.norm())
    lay = layout(p.quiver, p.dims)
    target = RepPoint.from_slots(p.quiver, p.dims, [
        -m if d else np.zeros_like(m) for m, d in zip(p.slots, lay.degree)])
    mat = lay.hermitian_action_matrix(p.flatten())
    flat = target.flatten()
    rhs = np.concatenate([flat.real, flat.imag])
    coeff = np.linalg.lstsq(mat, rhs, rcond=None)[0]
    resid = float(np.linalg.norm(mat @ coeff - rhs))
    gen = lay.herm_element(coeff)
    smin, smax = stability_margin(p)
    stable = smin > STABILITY_RATIO * max(1.0, smax)

    cross = 0.0
    if resid <= scale:
        for theta in (np.pi / 3, np.pi / 2):
            g = lie_exp(LieElement(dims=p.dims,
                                   blocks=[1j * theta * b for b in gen.blocks]))
            moved = gauge_act(g, cstar_act(np.exp(1j * theta), p))
            cross = max(cross, (moved - p).norm())
    fixed = resid <= scale and cross <= SLACK * scale
    return FixedPointReport(fixed=fixed, residual=resid, tol_used=scale,
                            generator=gen if fixed else None,
                            stable=stable, min_singular=smin, crosscheck=cross)


@dataclass
class WeightGrading:
    """Integer weight data of a fixed point.

    weights[k] lists the eigenvalues of the generator on V_k ascending;
    qmats[k] holds the matching orthonormal eigenvectors as columns.
    """

    base_point: RepPoint
    weights: tuple[tuple[int, ...], ...]
    qmats: list[np.ndarray]
    generator: LieElement

    @property
    def quiver(self) -> Quiver:
        return self.base_point.quiver

    @property
    def dims(self) -> DimensionVectors:
        return self.base_point.dims

    def max_end_weight(self) -> int:
        gaps = [ws[-1] - ws[0] for ws in self.weights if ws]
        return max(gaps, default=0)

    def power_gauge(self, s: complex) -> GaugeElement:
        blocks = []
        for k, q in enumerate(self.qmats):
            d = np.diag([complex(s) ** w for w in self.weights[k]]) \
                if self.weights[k] else np.zeros((0, 0), dtype=complex)
            blocks.append(q @ d @ q.conj().T)
        return GaugeElement(dims=self.dims, g=blocks)

    def act(self, R: complex, p: RepPoint) -> RepPoint:
        """Combined scaling-plus-gauge action; fixes the base point."""
        return gauge_act(self.power_gauge(R), cstar_act(R, p))

    def _to_eigen(self, xi: LieElement) -> list[np.ndarray]:
        return [q.conj().T @ b @ q for q, b in zip(self.qmats, xi.blocks)]

    def _from_eigen(self, blocks: list[np.ndarray]) -> LieElement:
        out = [q @ b @ q.conj().T for q, b in zip(self.qmats, blocks)]
        return LieElement(dims=self.dims, blocks=out)

    def lie_project(self, xi: LieElement, j: int) -> LieElement:
        """Keep only gauge-algebra components of adjoint weight |m| <= j."""
        kept = []
        for k, b in enumerate(self._to_eigen(xi)):
            ws = np.array(self.weights[k], dtype=int)
            mask = np.abs(ws[:, None] - ws[None, :]) <= j
            kept.append(np.where(mask, b, 0.0))
        return self._from_eigen(kept)

    def tangent_weight_counts(self) -> dict[int, int]:
        """Complex dimension of each full-action weight block of the rep space."""
        return dict(Counter(self.slot_weights().tolist()))

    def slot_weights(self) -> np.ndarray:
        """Full-action weight of every flat coordinate in the eigenbases: the
        row line's weight minus the column line's plus the slot's scaling
        degree, where framing lines weigh 0."""
        lay = layout(self.quiver, self.dims)

        def lines(s: int) -> np.ndarray:
            return np.array(self.weights[s] if s >= 0 else (0,) * self.dims.w[~s], dtype=int)
        return np.concatenate([(lines(r)[:, None] - lines(c)[None, :] + d).ravel()
                               for (r, c), d in zip(lay.spaces, lay.degree)])

    def project(self, q: RepPoint, keep: np.ndarray) -> RepPoint:
        """The part of q on the flat eigen-coordinates where keep holds."""
        herm = [m.conj().T for m in self.qmats]
        eig = conjugate_slots(q, herm, self.qmats).flatten()
        kept = RepPoint.from_flat(q.quiver, q.dims, np.where(keep, eig, 0.0))
        return conjugate_slots(kept, self.qmats, herm)


def grade_increment(q: RepPoint, grading: WeightGrading) -> dict[int, RepPoint]:
    """Split an increment by full-action weight (see slot_weights).

    Oriented-edge entries between weight-a and weight-b lines carry b - a;
    reversed-edge entries carry b - a + 1; i rows carry their line weight;
    j columns carry one minus theirs.  Summing the parts returns q exactly.
    """
    wts = grading.slot_weights()
    return {int(w): grading.project(q, wts == w) for w in np.unique(wts)}


def weight_grading(p: RepPoint, rep: FixedPointReport | None = None) -> WeightGrading:
    """Diagonalize the compensating generator of a fixed point.

    rep is is_fixed_point(p), when the caller has already run it.  Raises
    NotFixed when the point is not fixed, NotInjective when the complexified
    gauge action has kernel, NonIntegerWeights when an eigenvalue strays
    from the integers.
    """
    if rep is None:
        rep = is_fixed_point(p)
    if not rep.fixed:
        raise NotFixed(f"point is not a scaling fixed point "
                       f"(residual {rep.residual:.3e} > {rep.tol_used:.3e})")
    if not rep.stable:
        raise NotInjective(
            f"gauge action has kernel at the fixed point "
            f"(smallest singular value {rep.min_singular:.3e})")
    weights = []
    qmats = []
    gen_blocks = []
    for k, blk in enumerate(rep.generator.blocks):
        herm = 0.5 * (blk + blk.conj().T)
        evals, evecs = np.linalg.eigh(herm) if herm.size else (np.zeros(0), np.zeros((0, 0)))
        rounded = np.rint(evals)
        if evals.size and np.max(np.abs(evals - rounded)) > INT_WEIGHT_TOL:
            raise NonIntegerWeights(
                f"vertex {k} weights {evals} are not integral")
        ints = tuple(int(x) for x in rounded)
        weights.append(ints)
        qmats.append(evecs.astype(complex))
        gen_blocks.append(evecs @ np.diag(rounded.astype(float)) @ evecs.conj().T
                          if evals.size else np.zeros((0, 0), dtype=complex))
    gen = LieElement(dims=p.dims, blocks=gen_blocks)
    grading = WeightGrading(base_point=p, weights=tuple(weights), qmats=qmats,
                            generator=gen)

    # base-point structure: every slot entry sits at full-action weight 0
    # (oriented edges and i preserve line weight, reversed edges drop it by
    # one before the scaling shift, j is supported on weight-one lines)
    parts = grade_increment(p, grading)
    off = sum((q_part.norm() for w, q_part in parts.items() if w != 0), 0.0)
    if off > FLOOR * CHECK_TOL * max(1.0, p.norm()):
        raise GradingViolation(
            f"fixed point has components off the zero weight block "
            f"(stray norm {off:.3e})")
    return grading


def bb_expected_dimension(grading: WeightGrading) -> dict[str, int]:
    """Dimension audit of the attracting set modulo its gauge stabilizers.

    Counts the strictly positive weight block of the representation space and
    subtracts the non-negative and strictly positive conjugation blocks of the
    complexified gauge algebra.
    """
    counts = grading.tangent_weight_counts()
    dim_m_pos = sum(n for w, n in counts.items() if w >= 1)
    dim_g_pos = 0
    dim_g_nonneg = 0
    for ws in grading.weights:
        for wa in ws:
            for wb in ws:
                if wa - wb >= 1:
                    dim_g_pos += 1
                if wa - wb >= 0:
                    dim_g_nonneg += 1
    return {
        "rep_weight_ge1": dim_m_pos,
        "gauge_weight_ge1": dim_g_pos,
        "gauge_weight_ge0": dim_g_nonneg,
        "bb_dimension": dim_m_pos - dim_g_pos - dim_g_nonneg,
    }


def scaling_energy(p: RepPoint) -> float:
    """Squared norm of the slots the scaling action shrinks."""
    degree = layout(p.quiver, p.dims).degree
    total = sum(float(np.vdot(b, b).real) for b, d in zip(p.B, degree) if d)
    total += sum(float(np.vdot(m, m).real) for m in p.j)
    return total


@dataclass
class FlowReport:
    limit: RepPoint
    R_final: float
    rows: list[tuple[float, float, float]]
    fixed_report: FixedPointReport
    grading: WeightGrading


def default_schedule() -> tuple[float, ...]:
    return tuple(FLOW_RATIO ** t for t in range(1, FLOW_STEPS + 1))


def flow_limit(p: RepPoint, sigma, solve_tol: float = TOL) -> FlowReport:
    """Follow the scaling action towards R -> 0 along default_schedule().

    At each R the original point is rescaled and re-solved onto the real
    moment level.  The walk ends at the first iterate that passes the
    fixed-point test.  That iterate still carries O(R) dirt in its shrinking
    slots; its weight-0 part (grade_increment) drops the dirt exactly, and
    weight_grading certifies the result as the limit.  The energy of the
    shrinking slots must decrease monotonically along the way.
    rows: (R, shrinking-slot energy, fixed-point residual).
    """
    q = solve_real_moment(p, sigma, tol=solve_tol).point
    energy = scaling_energy(q)
    rows: list[tuple[float, float, float]] = []
    R_prev = 1.0
    for R in default_schedule():
        # rescaling the previous representative by the bounded ratio reaches
        # the same orbit point as rescaling the original by R, with uniformly
        # bounded gauge travel per step
        q = solve_real_moment(cstar_act(R / R_prev, q), sigma,
                              tol=solve_tol).point
        R_prev = R
        e_next = scaling_energy(q)
        rep = is_fixed_point(q)
        rows.append((R, e_next, rep.residual))
        if e_next > energy + ENERGY_SLACK * max(1.0, energy):
            raise NoConvergence(
                f"shrinking-slot energy rose from {energy:.6e} to {e_next:.6e} "
                f"at R={R:g}; the flow is not descending")
        energy = e_next
        if rep.fixed:
            parts = grade_increment(q, weight_grading(q, rep))
            limit = parts.get(0, RepPoint.zeros(p.quiver, p.dims))
            fixed = is_fixed_point(limit)
            return FlowReport(limit=limit, R_final=R, rows=rows,
                              fixed_report=fixed,
                              grading=weight_grading(limit, fixed))
    raise NoConvergence(
        f"scaling flow did not settle along the schedule "
        f"(last fixed-point residual {rows[-1][2]:.3e})")
