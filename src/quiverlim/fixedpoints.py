"""Scaling-action fixed points and their weight decompositions.

The scaling action multiplies every reversed-edge matrix and every j-matrix
by R and leaves the rest alone.  A point is fixed when each rescaling can be
undone by a gauge transformation; the infinitesimal compensator is i*D for a
hermitian D whose per-vertex eigenvalues are the integer weights.  Pairing
the scaling with the gauge power R^D gives a linear action on the whole
representation space that fixes the point; in the eigenbases of D it
multiplies each flat coordinate by R to its weight, with no R^D or inverse.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import (CHECK_TOL, ENERGY_SLACK, FLOOR, FLOW_RATIO, FLOW_STEPS,
                     INT_WEIGHT_TOL, SLACK, STABILITY_RATIO, moment_scale)
from .errors import (GradingViolation, NoConvergence, NonIntegerWeights,
                     NotFixed, NotInjective, NotOnVariety)
from .quiver import DimensionVectors, Quiver
from .repspace import (LieElement, RepPoint, block_matrix, central_deviation,
                       conjugate_slots, gauge_act, lie_exp, moment_complex)
from .solver import assemble_newton_matrix, guarded_eigh, solve_real_moment


def cstar_act(R: complex, p: RepPoint) -> RepPoint:
    """Multiply the slots of scaling degree 1 (reversed edges, j) by R."""
    x = p.vec
    return RepPoint.from_flat(p.quiver, p.dims, np.where(p.layout.scaled, R * x, x))


def stability_margin(p: RepPoint) -> tuple[float, float]:
    """(smallest, largest) singular value of the complexified gauge action."""
    mat = p.layout.action_matrix(p)
    if mat.shape[1] == 0:
        return float("inf"), 0.0
    s = np.linalg.svd(mat, compute_uv=False)
    return float(s[-1]), float(s[0])


def is_stable(p: RepPoint) -> tuple[bool, float]:
    """(whether the gauge action at p is injective, smallest singular value)."""
    smin, smax = stability_margin(p)
    return smin > STABILITY_RATIO * max(1.0, smax), smin


@dataclass
class FixedPointReport:
    fixed: bool
    residual: float
    tol_used: float
    generator: LieElement | None
    crosscheck: float


def _require_on_variety(p: RepPoint, real_coords: np.ndarray) -> None:
    """Both moment maps must sit at central values (scalar blocks); real_coords
    holds -2i mu_R(p) in hermitian coordinates."""
    scale = CHECK_TOL * moment_scale(p)
    dev_r = 0.5 * central_deviation(p.layout.herm_element(real_coords))
    dev_c = central_deviation(moment_complex(p))
    if max(dev_r, dev_c) > scale:
        raise NotOnVariety(
            f"point is not on a central moment level "
            f"(real deviation {dev_r:.3e}, complex deviation {dev_c:.3e})")


def is_fixed_point(p: RepPoint) -> FixedPointReport:
    """Detect a scaling-action fixed point and recover its compensating generator.

    Solves the least-squares problem matching the infinitesimal gauge action
    of a hermitian D against the derivative of the scaling action, then
    confirms at two finite angles.  The point must sit on central moment
    levels (NotOnVariety otherwise); mat^T [Re x; Im x], for the real action
    matrix mat at x = p.flatten(), is -2i mu_R(p) in hermitian coordinates.
    """
    lay, x = p.layout, p.vec
    mat = lay.hermitian_action_matrix(x)
    _require_on_variety(p, mat.T @ np.concatenate([x.real, x.imag]))
    scale = CHECK_TOL * max(1.0, p.norm())
    # the derivative of the scaling action at p, to be undone by the gauge
    target = np.where(lay.scaled, -x, 0.0)
    rhs = np.concatenate([target.real, target.imag])
    coeff = np.linalg.lstsq(mat, rhs, rcond=None)[0]
    resid = float(np.linalg.norm(mat @ coeff - rhs))
    gen = lay.herm_element(coeff)

    cross = 0.0
    if resid <= scale:
        for theta in (np.pi / 3, np.pi / 2):
            g = lie_exp(gen * (1j * theta))
            moved = gauge_act(g, cstar_act(np.exp(1j * theta), p))
            cross = max(cross, (moved - p).norm())
    fixed = resid <= scale and cross <= SLACK * scale
    return FixedPointReport(fixed=fixed, residual=resid, tol_used=scale,
                            generator=gen if fixed else None, crosscheck=cross)


@dataclass
class WeightGrading:
    """Integer weight data of a fixed point.

    weights[k] lists the eigenvalues of the generator on V_k ascending;
    qmats[k] holds the matching orthonormal eigenvectors as columns.
    """

    base_point: RepPoint
    weights: tuple[tuple[int, ...], ...]
    qmats: list[np.ndarray]

    @property
    def quiver(self) -> Quiver:
        return self.base_point.quiver

    @property
    def dims(self) -> DimensionVectors:
        return self.base_point.dims

    def max_end_weight(self) -> int:
        gaps = [ws[-1] - ws[0] for ws in self.weights if ws]
        return max(gaps, default=0)

    @functools.cached_property
    def _lines(self) -> tuple[np.ndarray, np.ndarray]:
        """(Q, w): the eigenbases qmats as one V x V matrix, the column weights."""
        return (block_matrix(self.dims, self.qmats),
                np.array([w for ws in self.weights for w in ws], dtype=int))

    @functools.cached_property
    def frozen_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """guarded_eigh of the Newton matrix at the base point: the operator
        that every stage of graded_solve inverts."""
        return guarded_eigh(assemble_newton_matrix(self.base_point))

    def power_cond(self, s: complex) -> float:
        """The largest condition number of a block of s^D: the block of V_k is
        unitarily similar to diag(s^w), so its condition number is
        max(|s|, 1/|s|) to the power of the spread of the weights on V_k."""
        r = abs(complex(s))
        return max(r, 1.0 / r) ** self.max_end_weight()

    def act(self, R: complex, p: RepPoint) -> RepPoint:
        """R^D cstar_act(R, .): R^w on each eigen-coordinate of slot weight w."""
        scale = complex(R) ** self.slot_weights()
        return RepPoint._wrap(p.layout, self._in_eigenbasis(p, lambda x: scale * x))

    def lie_project(self, xi: LieElement, j: int) -> LieElement:
        """Keep only gauge-algebra components of adjoint weight |m| <= j."""
        q, w = self._lines
        eig = q.conj().T @ xi.mat @ q
        kept = np.where(np.abs(w[:, None] - w[None, :]) <= j, eig, 0.0)
        return LieElement.from_matrix(self.dims, q @ kept @ q.conj().T)

    def tangent_weight_counts(self) -> dict[int, int]:
        """Complex dimension of each full-action weight block of the rep space."""
        return dict(Counter(self.slot_weights().tolist()))

    def slot_weights(self) -> np.ndarray:
        """Full-action weight of every flat coordinate in the eigenbases: the
        row line's weight minus the column line's plus the slot's scaling
        degree, where framing lines weigh 0."""
        lay = self.base_point.layout
        lines = np.concatenate([self._lines[1], np.zeros(sum(self.dims.w), dtype=int)])
        return lines[lay.entry_lines[0]] - lines[lay.entry_lines[1]] + lay.scaled

    def columns(self, keep: np.ndarray) -> np.ndarray:
        """The flat eigen-coordinates where keep holds, as orthonormal
        columns in flat coordinates: project(q, keep) projects onto their span."""
        lay, qm = self.base_point.layout, self._lines[0]
        units = np.eye(lay.rep_dim, dtype=complex)[keep]
        return lay.from_stack(lay.conjugate(lay.to_stack(units), qm, qm.conj().T)).T

    def project(self, q: RepPoint, keep: np.ndarray) -> RepPoint:
        """The part of q on the flat eigen-coordinates where keep holds."""
        return RepPoint._wrap(q.layout, self._in_eigenbasis(q, lambda x: np.where(keep, x, 0.0)))

    def _in_eigenbasis(self, q: RepPoint, fn) -> np.ndarray:
        """fn on the flat eigen-coordinates of q, back in flat coordinates
        (fn may stack several results along a leading axis)."""
        lay, qm = q.layout, self._lines[0]
        eig = conjugate_slots(q, qm.conj().T, qm).vec
        return lay.from_stack(lay.conjugate(lay.to_stack(fn(eig)), qm, qm.conj().T))


def grade_increment(q: RepPoint, grading: WeightGrading) -> dict[int, RepPoint]:
    """Split an increment by full-action weight (see slot_weights).

    Oriented-edge entries between weight-a and weight-b lines carry b - a;
    reversed-edge entries carry b - a + 1; i rows carry their line weight;
    j columns carry one minus theirs.  Summing the parts returns q exactly.
    """
    wts = grading.slot_weights()
    levels = np.unique(wts)
    parts = grading._in_eigenbasis(q, lambda x: np.where(wts == levels[:, None], x, 0.0))
    return {int(w): RepPoint.from_flat(q.quiver, q.dims, x) for w, x in zip(levels, parts)}


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
    stable, smin = is_stable(p)
    if not stable:
        raise NotInjective(
            f"gauge action has kernel at the fixed point "
            f"(smallest singular value {smin:.3e})")
    weights, qmats = [], []
    for k, blk in enumerate(rep.generator.blocks):
        herm = 0.5 * (blk + blk.conj().T)
        evals, evecs = np.linalg.eigh(herm) if herm.size else (np.zeros(0), np.zeros((0, 0)))
        rounded = np.rint(evals)
        if evals.size and np.max(np.abs(evals - rounded)) > INT_WEIGHT_TOL:
            raise NonIntegerWeights(
                f"vertex {k} weights {evals} are not integral")
        weights.append(tuple(int(x) for x in rounded))
        qmats.append(evecs.astype(complex))
    grading = WeightGrading(base_point=p, weights=tuple(weights), qmats=qmats)

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
    gaps = [np.subtract.outer(ws, ws) for ws in grading.weights]
    dim_g_pos = sum(int((d >= 1).sum()) for d in gaps)
    dim_g_nonneg = sum(int((d >= 0).sum()) for d in gaps)
    return {
        "rep_weight_ge1": dim_m_pos,
        "gauge_weight_ge1": dim_g_pos,
        "gauge_weight_ge0": dim_g_nonneg,
        "bb_dimension": dim_m_pos - dim_g_pos - dim_g_nonneg,
    }


def scaling_energy(p: RepPoint) -> float:
    """Squared norm of the slots the scaling action shrinks."""
    shrinking = p.vec[p.layout.scaled]
    return float(np.vdot(shrinking, shrinking).real)


@dataclass
class FlowReport:
    limit: RepPoint
    R_final: float
    rows: list[tuple[float, float, float]]
    fixed_report: FixedPointReport
    grading: WeightGrading


def default_schedule() -> tuple[float, ...]:
    return tuple(FLOW_RATIO ** t for t in range(1, FLOW_STEPS + 1))


def flow_limit(p: RepPoint, sigma) -> FlowReport:
    """Follow the scaling action towards R -> 0 along default_schedule().

    At each R the original point is rescaled and re-solved onto the real
    moment level, each solve after the first starting from the exponent of
    the one before (the answer does not depend on the start).  The walk
    ends at the first iterate that passes the fixed-point test.  That
    iterate still carries O(R) dirt in its shrinking slots; its weight-0
    part (the iterate's grading projects it) drops the dirt exactly, and
    weight_grading certifies the result as the limit.  The energy of the
    shrinking slots must decrease monotonically along the way.
    rows: (R, shrinking-slot energy, fixed-point residual).
    """
    q = solve_real_moment(p, sigma).point
    energy = scaling_energy(q)
    rows: list[tuple[float, float, float]] = []
    R_prev, xi = 1.0, None
    for R in default_schedule():
        # rescaling the previous representative by the bounded ratio reaches
        # the same orbit point as rescaling the original by R, with uniformly
        # bounded gauge travel per step; near the limit each step's exponent
        # is about -ln(R_prev / R) times the weight generator, so the
        # previous step's exponent starts the next solve
        step = solve_real_moment(cstar_act(R / R_prev, q), sigma, guess=xi)
        q, xi, R_prev = step.point, step.xi, R
        e_next = scaling_energy(q)
        rep = is_fixed_point(q)
        rows.append((R, e_next, rep.residual))
        if e_next > energy + ENERGY_SLACK * max(1.0, energy):
            raise NoConvergence(
                f"shrinking-slot energy rose from {energy:.6e} to {e_next:.6e} "
                f"at R={R:g}; the flow is not descending")
        energy = e_next
        if rep.fixed:
            grading = weight_grading(q, rep)
            limit = grading.project(q, grading.slot_weights() == 0)
            fixed = is_fixed_point(limit)
            return FlowReport(limit=limit, R_final=R, rows=rows,
                              fixed_report=fixed,
                              grading=weight_grading(limit, fixed))
    raise NoConvergence(
        f"scaling flow did not settle along the schedule "
        f"(last fixed-point residual {rows[-1][2]:.3e})")
