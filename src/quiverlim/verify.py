"""Verification pipeline.

Runs every invariant suite of the package against one configured quiver:
genericity of the central parameter, seeded sampling, the adjoint and
rotation identities, solver uniqueness, the scaling flow to a fixed point,
dimension audits, slice corrections, conformal-family convergence, and the
gauge invariance and escape behavior of path invariants.  Results are
collected per suite and written as a JSON report plus CSV tables keyed by
the configuration digest.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .config import (CHECK_TOL, CONFORMAL_SLOPE_RANGE, ESCAPE_MIN_INVARIANT,
                     IDENTITY_TOL, ISOTROPY_TOL, SLACK, TOL, RunConfig,
                     moment_scale)
from .conformal import (check_slice_increment, conformal_flat,
                        convergence_study, twistor_rotate)
from .errors import QuiverLimError
from .fixedpoints import bb_expected_dimension, cstar_act, flow_limit
from .invariants import (enumerate_paths, escape_slope, fingerprint,
                         fingerprint_labels, fingerprints, invariant_size,
                         is_nilpotent, path_escape_exponent)
from .presets import resolve_quiver_spec
from .quiver import expected_dimension, is_generic, require_nonempty
from .repspace import (LieElement, RepPoint, central_deviation, dmu_complex,
                       gauge_act, hermitian_residual, inf_action,
                       inf_action_adjoint, lie_exp, lie_inner, metric,
                       moment_complex, moment_real, symplectic_form)
from .sampling import (attracting_increment, make_rng, random_rep,
                       sample_on_variety, seeded_increment)
from .slices import (bb_tangent_basis, moment_correction, slice_solve,
                     tangent_basis)
from .solver import solve_real_moment


@dataclass
class SuiteResult:
    name: str
    passed: bool
    worst: float
    note: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "worst_residual": float(self.worst), "note": self.note}


@dataclass
class VerifyReport:
    config: RunConfig
    quiver_name: str
    suites: list[SuiteResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def to_dict(self) -> dict:
        # drop output_dir so the report bytes do not depend on where
        # the report lands
        cfg = self.config.to_dict()
        del cfg["output_dir"]
        return {
            "config": cfg,
            "config_sha256": self.config.digest(),
            "quiver": self.quiver_name,
            "suites": [s.to_dict() for s in self.suites],
            "all_passed": self.all_passed,
        }


def _rand_lie(dims, rng, scale: float) -> LieElement:
    return LieElement(dims, [scale * (rng.standard_normal((n, n))
                                      + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
                             for n in dims.v])


class _Pipeline:
    """The shared artifacts, filled in by the suites in turn."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.quiver, self.dims, self.central, _ = resolve_quiver_spec(cfg.quiver_file)
        require_nonempty(self.quiver, self.dims)
        self.sigma = self.central.sigma_array()
        self.sample = None
        self.flow = None
        self.p0 = None
        self.grading = None
        self.basis = None
        self.bb_basis = None
        self.A = None
        self.studies = []


def _stage(fn, *args):
    """(fn(*args), "") or, when it raises, (None, a note naming the error)."""
    try:
        return fn(*args), ""
    except (QuiverLimError, ValueError, np.linalg.LinAlgError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _unmet(name: str, what: str) -> SuiteResult:
    return SuiteResult(name, False, np.inf, f"prerequisite failed: {what}")


def _suite_genericity(pl: _Pipeline) -> SuiteResult:
    ok = is_generic(pl.central, pl.quiver, pl.dims)
    note = "" if ok else "central parameter lies on a wall"
    return SuiteResult("genericity", bool(ok), 0.0 if ok else 1.0, note)


def _suite_sampling(pl: _Pipeline) -> SuiteResult:
    pl.sample, note = _stage(sample_on_variety, pl.quiver, pl.dims, pl.central,
                             pl.cfg.seed)
    if pl.sample is None:
        return SuiteResult("sampling", False, np.inf, note)
    p = pl.sample.point
    scale = moment_scale(p)
    res_r = hermitian_residual(p, pl.sigma).norm()
    dev_c = central_deviation(moment_complex(p))
    twin = sample_on_variety(pl.quiver, pl.dims, pl.central, seed=pl.cfg.seed)
    identical = np.array_equal(p.flatten(), twin.point.flatten())
    worst = max(res_r, dev_c)
    passed = (res_r <= SLACK * TOL * scale and dev_c <= CHECK_TOL * scale
              and identical)
    note = "" if identical else "same seed gave different bytes"
    return SuiteResult("sampling", passed, float(worst), note)


def _suite_adjoint(pl: _Pipeline) -> SuiteResult:
    rng = make_rng(pl.cfg.seed + 1)
    worst = 0.0
    for _ in range(20):
        p = random_rep(pl.quiver, pl.dims, rng)
        q = random_rep(pl.quiver, pl.dims, rng)
        xi = _rand_lie(pl.dims, rng, 1.0)
        lhs = metric(inf_action(p, xi), q)
        rhs = lie_inner(xi, inf_action_adjoint(p, q))
        worst = max(worst, abs(lhs - rhs))
        # derivative of the complex moment agrees with its odd finite part
        odd = (moment_complex(p + q) - moment_complex(p - q)) * 0.5
        worst = max(worst, (dmu_complex(p, q) - odd).norm())
    return SuiteResult("adjoint_identities", worst <= IDENTITY_TOL, float(worst))


def _suite_solver(pl: _Pipeline) -> SuiteResult:
    if pl.sample is None:
        return _unmet("solver_uniqueness", "sampling")
    # rescaling keeps the complex moment central while leaving the real level
    start = cstar_act(0.7, pl.sample.point)
    try:
        rep_a = solve_real_moment(start, pl.sigma)
        rep_b = solve_real_moment(start, pl.sigma, forced_damping=(0.5, 0.75))
    except QuiverLimError as exc:
        return SuiteResult("solver_uniqueness", False, np.inf, str(exc))
    diff = float(np.abs(lie_exp(rep_a.xi).mat - lie_exp(rep_b.xi).mat).max(initial=0.0))
    return SuiteResult("solver_uniqueness", diff <= CHECK_TOL, float(diff))


def _suite_twistor(pl: _Pipeline) -> SuiteResult:
    if pl.sample is None:
        return _unmet("twistor_rotation", "sampling")
    p = pl.sample.point
    mr, mc = moment_real(p), moment_complex(p)
    rng = make_rng(pl.cfg.seed + 3)
    worst = 0.0
    for _ in range(5):
        re, im = rng.uniform(-2, 2, size=2)
        xi = complex(re, im)
        q = twistor_rotate(p, xi)
        tgt_r = mr * (1 - abs(xi) ** 2) - mc * (1j * np.conj(xi)) \
            - mc.dagger() * (1j * xi)
        tgt_c = mc - mr * (2j * xi) - mc.dagger() * (xi ** 2)
        worst = max(worst, (moment_real(q) - tgt_r).norm(),
                    (moment_complex(q) - tgt_c).norm())
    return SuiteResult("twistor_rotation", worst <= IDENTITY_TOL * moment_scale(p),
                       float(worst))


def _suite_flow(pl: _Pipeline) -> SuiteResult:
    if pl.sample is None:
        return _unmet("fixed_point_flow", "sampling")
    pl.flow, note = _stage(flow_limit, pl.sample.point, pl.sigma)
    if pl.flow is None:
        return SuiteResult("fixed_point_flow", False, np.inf, note)
    pl.p0, pl.grading = pl.flow.limit, pl.flow.grading
    worst = float(pl.flow.fixed_report.residual)
    return SuiteResult("fixed_point_flow", True, worst,
                       f"settled at R={pl.flow.R_final:g}")


def _suite_dimensions(pl: _Pipeline) -> SuiteResult:
    if pl.sample is None or pl.grading is None:
        return _unmet("dimension_audit", "sampling or grading")
    expected = expected_dimension(pl.quiver, pl.dims)
    pl.basis, note = _stage(tangent_basis, pl.sample.point)
    if pl.basis is None:
        return SuiteResult("dimension_audit", False, np.inf, note)
    pl.bb_basis, note = _stage(bb_tangent_basis, pl.p0, pl.grading)
    if pl.bb_basis is None:
        return SuiteResult("dimension_audit", False, np.inf, note)
    audit = bb_expected_dimension(pl.grading)
    ok = (pl.basis.real_dimension() == expected
          and 2 * pl.bb_basis.real_dimension() == expected
          and pl.bb_basis.count() == audit["bb_dimension"])
    note = (f"expected {expected}, tangent {pl.basis.real_dimension()}, "
            f"attracting {pl.bb_basis.real_dimension()}, "
            f"formula {audit['bb_dimension']}")
    return SuiteResult("dimension_audit", ok, 0.0 if ok else 1.0, note)


def _suite_isotropy(pl: _Pipeline) -> SuiteResult:
    if pl.bb_basis is None:
        return _unmet("isotropy", "attracting basis")
    vecs = pl.bb_basis.vectors
    worst = max((abs(symplectic_form(a, b)) for a in vecs for b in vecs), default=0.0)
    return SuiteResult("isotropy", worst <= ISOTROPY_TOL, float(worst))


def _suite_slice(pl: _Pipeline) -> SuiteResult:
    if pl.basis is None:
        return _unmet("slice_correction", "tangent basis")
    p = pl.sample.point
    if pl.basis.count() == 0:
        return SuiteResult("slice_correction", True, 0.0, "zero-dimensional slice")
    q0 = seeded_increment(pl.basis, pl.cfg.seed + 4, 0.05)
    try:
        q = slice_solve(pl.basis, q0)
    except QuiverLimError as exc:
        return SuiteResult("slice_correction", False, np.inf, str(exc))
    scale = moment_scale(p + q)
    dev_mc = (moment_complex(p + q) - moment_complex(p)).norm()
    dev_adj = inf_action_adjoint(p, q).norm()
    # the tangential projection of the output must be the input increment
    span = pl.basis.span
    tang = span @ (span.conj().T @ q.flatten())
    dev_chart = float(np.linalg.norm(tang - q0.flatten()))
    v0 = pl.basis.vectors[0]
    dev_proj = (moment_correction(p, v0) - v0).norm()
    worst = max(dev_mc, dev_adj, dev_chart, dev_proj)
    return SuiteResult("slice_correction", worst <= CHECK_TOL * scale, float(worst))


def _suite_bb_slice(pl: _Pipeline) -> SuiteResult:
    if pl.bb_basis is None or pl.grading is None:
        return _unmet("attracting_slice", "attracting basis")
    if pl.bb_basis.count() == 0:
        return SuiteResult("attracting_slice", True, 0.0,
                           "zero-dimensional attracting slice")
    pl.A, note = _stage(attracting_increment, pl.bb_basis, pl.grading, pl.cfg.seed)
    if pl.A is None:
        return SuiteResult("attracting_slice", False, np.inf, note)
    scale = moment_scale(pl.p0 + pl.A)
    try:
        dev_mc, dev_adj = check_slice_increment(pl.p0, pl.A, pl.grading)
    except QuiverLimError as exc:
        return SuiteResult("attracting_slice", False, np.inf, str(exc))
    pA = RepPoint.from_flat(pl.quiver, pl.dims,
                            conformal_flat(pl.p0, pl.A, complex(pl.cfg.hbar_grid[0])))
    dev_central = central_deviation(moment_complex(pA))
    worst = max(dev_mc, dev_adj, dev_central)
    return SuiteResult("attracting_slice", worst <= CHECK_TOL * scale, float(worst))


def _suite_conformal(pl: _Pipeline) -> SuiteResult:
    # a rigid quiver has no slice directions, so there is nothing to converge
    if pl.bb_basis is not None and pl.bb_basis.count() == 0:
        return SuiteResult("conformal_convergence", True, 0.0,
                           "zero-dimensional attracting slice")
    if pl.A is None or pl.grading is None:
        return _unmet("conformal_convergence", "attracting slice")
    # the fitted slope farthest from 2 itself, not |slope - 2|: that
    # difference cancels most digits and would magnify round-off
    worst = None
    notes = []
    passed = True
    lo, hi = CONFORMAL_SLOPE_RANGE
    try:
        for st in convergence_study(pl.p0, pl.A, pl.sigma, pl.cfg.hbar_grid,
                                    pl.cfg.r_grid, grading=pl.grading,
                                    max_len=pl.cfg.max_len):
            pl.studies.append(st)
            if st.degenerate:
                notes.append(f"hbar={st.hbar.real:g}: degenerate (distances at floor)")
                continue
            notes.append(f"hbar={st.hbar.real:g}: slope {st.slope:.3f}")
            if worst is None or abs(st.slope - 2.0) > abs(worst - 2.0):
                worst = st.slope
            if not (lo <= st.slope <= hi):
                passed = False
    except QuiverLimError as exc:
        return SuiteResult("conformal_convergence", False, np.inf, str(exc))
    return SuiteResult("conformal_convergence", passed,
                       0.0 if worst is None else float(worst), "; ".join(notes))


def _suite_invariance(pl: _Pipeline) -> SuiteResult:
    if pl.sample is None:
        return _unmet("gauge_invariance", "sampling")
    p = pl.sample.point
    rng = make_rng(pl.cfg.seed + 6)
    base = fingerprint(p, pl.cfg.max_len)
    ref = max(1.0, float(np.linalg.norm(base)))
    moved = fingerprints([gauge_act(lie_exp(_rand_lie(pl.dims, rng, 0.4)), p)
                          for _ in range(10)], pl.cfg.max_len)
    worst = 0.0
    for fp in moved:
        worst = max(worst, float(np.linalg.norm(fp - base)) / ref)
    return SuiteResult("gauge_invariance", worst <= IDENTITY_TOL, float(worst))


def _suite_escape(pl: _Pipeline) -> SuiteResult:
    # no slice directions means no invariant can blow up along them
    if pl.bb_basis is not None and pl.bb_basis.count() == 0:
        return SuiteResult("escape_rates", True, 0.0,
                           "zero-dimensional attracting slice")
    if pl.A is None or pl.p0 is None:
        return _unmet("escape_rates", "attracting slice")
    if np.all(np.abs(pl.central.c_array()) == 0) \
            and not is_nilpotent(pl.p0):
        return SuiteResult("escape_rates", False, 1.0,
                           "scaling limit point is not nilpotent")
    at = pl.p0 + pl.A
    candidates = [ps for kind in ("admissible", "loop")
                  for ps in enumerate_paths(pl.quiver, pl.dims, pl.cfg.max_len, kind)
                  if path_escape_exponent(ps, pl.quiver, pl.dims) >= 1
                  and invariant_size(at, ps) > ESCAPE_MIN_INVARIANT]
    if not candidates:
        return SuiteResult("escape_rates", True, 0.0,
                           "no non-vanishing escaping invariant at this point")
    try:
        studies = escape_slope(pl.p0, pl.A, candidates)
    except QuiverLimError as exc:
        return SuiteResult("escape_rates", False, np.inf, str(exc))
    failed = [st for st in studies if not st.passed]
    note = f"checked {len(studies)} paths"
    if failed:
        note = (f"{len(failed)} of {len(studies)} paths fail; {failed[0].path}: "
                f"coefficient mismatch {failed[0].mismatch:.3e}, "
                f"outside the window {failed[0].outside:.3e}")
    return SuiteResult("escape_rates", not failed,
                       float(max(st.mismatch for st in studies)), note)


def verify_run(cfg: RunConfig) -> tuple[VerifyReport, "_Pipeline"]:
    pl = _Pipeline(cfg)
    report = VerifyReport(config=cfg, quiver_name=cfg.quiver_file)
    for suite in (_suite_genericity, _suite_sampling, _suite_adjoint,
                  _suite_solver, _suite_twistor, _suite_flow,
                  _suite_dimensions, _suite_isotropy, _suite_slice,
                  _suite_bb_slice, _suite_conformal, _suite_invariance,
                  _suite_escape):
        report.suites.append(suite(pl))
    return report, pl


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(x) if isinstance(x, float) else x for x in row])


def write_outputs(report: VerifyReport, pl: "_Pipeline", out_dir: str) -> None:
    """JSON summary plus CSV tables; identical configs give identical bytes."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    audit_rows = []
    if pl.grading is not None and pl.basis is not None and pl.bb_basis is not None:
        audit = bb_expected_dimension(pl.grading)
        audit_rows.append([
            report.quiver_name,
            expected_dimension(pl.quiver, pl.dims),
            pl.basis.real_dimension(), pl.bb_basis.real_dimension(),
            audit["rep_weight_ge1"], audit["gauge_weight_ge1"],
            audit["gauge_weight_ge0"], audit["bb_dimension"]])
    _write_csv(os.path.join(out_dir, "dimension_audit.csv"),
               ["quiver", "expected_real", "tangent_real", "attracting_real",
                "rep_weight_ge1", "gauge_weight_ge1", "gauge_weight_ge0",
                "attracting_formula"], audit_rows)

    flow_rows = []
    if pl.flow is not None:
        flow_rows = [[float(r), float(e), float(d)] for r, e, d in pl.flow.rows]
    _write_csv(os.path.join(out_dir, "flow_trace.csv"),
               ["R", "shrinking_energy", "fixed_point_residual"], flow_rows)

    conv_rows = []
    for st in pl.studies:
        for smp, (r, d) in zip(st.samples, st.rows):
            conv_rows.append([
                float(st.hbar.real), float(r), float(d),
                *[float(smp.stage_residuals[k]) for k in
                  ("start_solve", "rotation_real", "rotation_complex",
                   "rescale_complex", "final_solve")]])
    _write_csv(os.path.join(out_dir, "convergence.csv"),
               ["hbar", "R", "distance", "start_solve", "rotation_real",
                "rotation_complex", "rescale_complex", "final_solve"],
               conv_rows)

    fp_rows = []
    if pl.p0 is not None:
        labels = fingerprint_labels(pl.quiver, pl.dims, pl.cfg.max_len)
        # the first conformal study solved the limit at hbar_grid[0]
        lim = pl.studies[0].limit_fingerprint if pl.studies else None
        fp_rows = [[lab, float(lim[t]) if lim is not None else ""]
                   for t, lab in enumerate(labels)]
    _write_csv(os.path.join(out_dir, "fingerprints.csv"),
               ["path", "conformal_limit_value"], fp_rows)
