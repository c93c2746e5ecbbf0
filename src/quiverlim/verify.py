"""Verification pipeline.

Runs every invariant suite of the package against one configured quiver:
genericity of the central parameter, seeded sampling, the adjoint and
rotation identities, solver uniqueness, the scaling flow to a fixed point,
dimension audits, slice corrections, conformal-family convergence, and the
gauge invariance and escape behavior of path invariants.  Results are
collected per suite and written as a JSON report plus CSV tables keyed by
the configuration digest.

Each suite returns (passed, worst[, note]) and the one runner, _suite, makes
its result: a failed prerequisite reads "prerequisite failed: <stage>" and a
raised error "<ErrorType>: <message>", both with worst_residual inf.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .config import (CHECK_TOL, CONFORMAL_SLOPE_RANGE, ESCAPE_MIN_INVARIANT,
                     IDENTITY_TOL, ISOTROPY_TOL, SLACK, TOL, RunConfig,
                     moment_scale)
from .conformal import conformal_point, convergence_study, twistor_rotate
from .errors import QuiverLimError
from .fixedpoints import bb_expected_dimension, cstar_act, flow_limit
from .invariants import (enumerate_paths, escape_slope, fingerprint_labels,
                         fingerprints, invariant_size, is_nilpotent,
                         path_escape_exponent)
from .presets import resolve_quiver_spec
from .quiver import expected_dimension, is_generic, require_nonempty
from .repspace import (LieElement, central_deviation, dmu_complex,
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


class _Unmet(Exception):
    """A stage that a suite builds on did not produce its artifact."""


class _Pipeline:
    """The shared artifacts, filled in by the suites in turn."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.quiver, self.dims, self.central, _ = resolve_quiver_spec(cfg.quiver_file)
        require_nonempty(self.quiver, self.dims, self.central)
        self.sigma = self.central.sigma_array()
        self.sample = None
        self.flow = None
        self.grading = None
        self.basis = None
        self.bb_basis = None
        self.inc = None
        self.studies = []

    def need(self, what: str, *attrs: str):
        """The named artifacts, as attrgetter gives them; _Unmet(what) if one is None."""
        if any(getattr(self, a) is None for a in attrs):
            raise _Unmet(what)
        return attrgetter(*attrs)(self)


def _suite(name: str):
    """The suite named name from fn(pl) -> (passed, worst[, note]); a missing
    prerequisite or a raised error fails it with worst inf and a note."""
    def wrap(fn):
        def run(pl: _Pipeline) -> SuiteResult:
            try:
                passed, worst, *note = fn(pl)
            except _Unmet as exc:
                passed, worst, note = False, np.inf, [f"prerequisite failed: {exc}"]
            except (QuiverLimError, ValueError, np.linalg.LinAlgError) as exc:
                passed, worst, note = False, np.inf, [f"{type(exc).__name__}: {exc}"]
            return SuiteResult(name, bool(passed), float(worst), *note)
        return run
    return wrap


@_suite("genericity")
def _suite_genericity(pl: _Pipeline):
    ok = is_generic(pl.central, pl.quiver, pl.dims)
    note = "" if ok else "central parameter lies on a wall"
    return ok, 0.0 if ok else 1.0, note


@_suite("sampling")
def _suite_sampling(pl: _Pipeline):
    pl.sample = sample_on_variety(pl.quiver, pl.dims, pl.central, pl.cfg.seed)
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
    return passed, worst, note


@_suite("adjoint_identities")
def _suite_adjoint(pl: _Pipeline):
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
    return worst <= IDENTITY_TOL, worst


@_suite("solver_uniqueness")
def _suite_solver(pl: _Pipeline):
    sample = pl.need("sampling", "sample")
    # rescaling keeps the complex moment central while leaving the real level
    start = cstar_act(0.7, sample.point)
    rep_a = solve_real_moment(start, pl.sigma)
    rep_b = solve_real_moment(start, pl.sigma, forced_damping=(0.5, 0.75))
    diff = float(np.abs(lie_exp(rep_a.xi).mat - lie_exp(rep_b.xi).mat).max(initial=0.0))
    return diff <= CHECK_TOL, diff


@_suite("twistor_rotation")
def _suite_twistor(pl: _Pipeline):
    p = pl.need("sampling", "sample").point
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
    return worst <= IDENTITY_TOL * moment_scale(p), worst


@_suite("fixed_point_flow")
def _suite_flow(pl: _Pipeline):
    sample = pl.need("sampling", "sample")
    pl.flow = flow_limit(sample.point, pl.sigma)
    pl.grading = pl.flow.grading
    return True, pl.flow.fixed_report.residual, f"settled at R={pl.flow.R_final:g}"


@_suite("dimension_audit")
def _suite_dimensions(pl: _Pipeline):
    sample, grading = pl.need("sampling or grading", "sample", "grading")
    expected = expected_dimension(pl.quiver, pl.dims)
    pl.basis = tangent_basis(sample.point)
    pl.bb_basis = bb_tangent_basis(grading)
    audit = bb_expected_dimension(grading)
    ok = (pl.basis.real_dimension() == expected
          and 2 * pl.bb_basis.real_dimension() == expected
          and pl.bb_basis.count() == audit["bb_dimension"])
    note = (f"expected {expected}, tangent {pl.basis.real_dimension()}, "
            f"attracting {pl.bb_basis.real_dimension()}, "
            f"formula {audit['bb_dimension']}")
    return ok, 0.0 if ok else 1.0, note


@_suite("isotropy")
def _suite_isotropy(pl: _Pipeline):
    vecs = pl.need("attracting basis", "bb_basis").vectors
    worst = max((abs(symplectic_form(a, b)) for a in vecs for b in vecs), default=0.0)
    return worst <= ISOTROPY_TOL, worst


@_suite("slice_correction")
def _suite_slice(pl: _Pipeline):
    basis = pl.need("tangent basis", "basis")
    p = pl.sample.point
    if basis.count() == 0:
        return True, 0.0, "zero-dimensional slice"
    q0 = seeded_increment(basis, pl.cfg.seed + 4, 0.05)
    q = slice_solve(basis, q0)
    scale = moment_scale(p + q)
    dev_mc = (moment_complex(p + q) - moment_complex(p)).norm()
    dev_adj = inf_action_adjoint(p, q).norm()
    # the tangential projection of the output must be the input increment
    tang = basis.span @ (basis.span.conj().T @ q.flatten())
    dev_chart = float(np.linalg.norm(tang - q0.flatten()))
    v0 = basis.vectors[0]
    dev_proj = (moment_correction(p, v0) - v0).norm()
    worst = max(dev_mc, dev_adj, dev_chart, dev_proj)
    return worst <= CHECK_TOL * scale, worst


@_suite("attracting_slice")
def _suite_bb_slice(pl: _Pipeline):
    bb_basis = pl.need("attracting basis", "bb_basis")
    if bb_basis.count() == 0:
        return True, 0.0, "zero-dimensional attracting slice"
    pl.inc = inc = attracting_increment(bb_basis, pl.cfg.seed)
    scale = moment_scale(inc.p0 + inc.A)
    dev_central = central_deviation(moment_complex(
        conformal_point(inc, pl.cfg.hbar_grid[0])))
    worst = max(inc.mc_dev, inc.adj, dev_central)
    return worst <= CHECK_TOL * scale, worst


@_suite("conformal_convergence")
def _suite_conformal(pl: _Pipeline):
    # a rigid quiver has no slice directions, so there is nothing to converge
    if pl.bb_basis is not None and pl.bb_basis.count() == 0:
        return True, 0.0, "zero-dimensional attracting slice"
    inc = pl.need("attracting slice", "inc")
    # the fitted slope farthest from 2 itself, not |slope - 2|: that
    # difference cancels most digits and would magnify round-off
    worst = None
    notes = []
    passed = True
    lo, hi = CONFORMAL_SLOPE_RANGE
    for st in convergence_study(inc, pl.sigma, pl.cfg.hbar_grid, pl.cfg.r_grid,
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
    return passed, 0.0 if worst is None else worst, "; ".join(notes)


@_suite("gauge_invariance")
def _suite_invariance(pl: _Pipeline):
    p = pl.need("sampling", "sample").point
    rng = make_rng(pl.cfg.seed + 6)
    moves = [gauge_act(lie_exp(_rand_lie(pl.dims, rng, 0.4)), p) for _ in range(10)]
    base, *moved = fingerprints([p, *moves], pl.cfg.max_len)
    ref = max(1.0, float(np.linalg.norm(base)))
    worst = 0.0
    for fp in moved:
        worst = max(worst, float(np.linalg.norm(fp - base)) / ref)
    return worst <= IDENTITY_TOL, worst


@_suite("escape_rates")
def _suite_escape(pl: _Pipeline):
    # no slice directions means no invariant can blow up along them
    if pl.bb_basis is not None and pl.bb_basis.count() == 0:
        return True, 0.0, "zero-dimensional attracting slice"
    inc = pl.need("attracting slice", "inc")
    paths = [ps for kind in ("admissible", "loop")
             for ps in enumerate_paths(pl.quiver, pl.dims, pl.cfg.max_len, kind)]
    if np.all(np.abs(pl.central.c_array()) == 0) and not is_nilpotent(inc.p0):
        # name the largest invariant of length max_len or less at the limit
        size, path = max(((invariant_size(inc.p0, ps), str(ps)) for ps in paths),
                         default=(0.0, ""))
        survivor = f"; {path} has size {size:.3e}" if size > CHECK_TOL else ""
        return False, 1.0, "scaling limit point is not nilpotent" + survivor
    at = inc.p0 + inc.A
    candidates = [ps for ps in paths
                  if path_escape_exponent(ps, pl.quiver, pl.dims) >= 1
                  and invariant_size(at, ps) > ESCAPE_MIN_INVARIANT]
    if not candidates:
        return True, 0.0, "no non-vanishing escaping invariant at this point"
    studies = escape_slope(inc, candidates)
    failed = [st for st in studies if not st.passed]
    note = f"checked {len(studies)} paths"
    if failed:
        note = (f"{len(failed)} of {len(studies)} paths fail; {failed[0].path}: "
                f"coefficient mismatch {failed[0].mismatch:.3e}, "
                f"outside the window {failed[0].outside:.3e}")
    return not failed, max(st.mismatch for st in studies), note


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
    if pl.grading is not None:
        labels = fingerprint_labels(pl.quiver, pl.dims, pl.cfg.max_len)
        # the first conformal study solved the limit at hbar_grid[0]
        lim = pl.studies[0].limit_fingerprint if pl.studies else None
        fp_rows = [[lab, float(lim[t]) if lim is not None else ""]
                   for t, lab in enumerate(labels)]
    _write_csv(os.path.join(out_dir, "fingerprints.csv"),
               ["path", "conformal_limit_value"], fp_rows)
