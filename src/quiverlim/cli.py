"""Command-line interface.

Every subcommand takes a quiver (preset name or JSON file), is fully
deterministic under a fixed seed, and prints a short human-readable summary;
--out writes machine-readable JSON/CSV files.  A subcommand takes only the
RunConfig fields it reads, and RunConfig alone validates them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import IDENTITY_TOL, ZERO_INVARIANT_TOL, RunConfig
from .conformal import conformal_limit, convergence_study
from .errors import QuiverLimError
from .fixedpoints import FlowReport, bb_expected_dimension, flow_limit, is_stable
from .invariants import PathSpec, escape_slope, fingerprint, fingerprint_labels
from .presets import PRESET_NAMES, resolve_quiver_spec
from .quiver import (expected_dimension, is_generic, require_generic,
                     require_nonempty, walls)
from .repspace import central_deviation, hermitian_residual, moment_complex
from .sampling import attracting_increment, sample_on_variety
from .slices import bb_tangent_basis, tangent_basis
from .verify import verify_run, write_outputs


def _write_json(out_dir: str | None, name: str, data) -> None:
    """Write data to out_dir/name; nothing without --out."""
    if not out_dir:
        return
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _grid(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _load(cfg: RunConfig, generic: bool = False) -> tuple:
    """(quiver, dims, central); generic for constructions that need it."""
    quiver, dims, central, _ = resolve_quiver_spec(cfg.quiver_file)
    require_nonempty(quiver, dims)
    if generic:
        require_generic(central, quiver, dims)
    return quiver, dims, central


def _flow(cfg: RunConfig, quiver, dims, central) -> FlowReport:
    """The scaling flow from the seeded sample, as verify runs it: its limit
    is the fixed point p0 and its grading is the one that certified it."""
    smp = sample_on_variety(quiver, dims, central, seed=cfg.seed)
    return flow_limit(smp.point, central.sigma_array())


def _limit_setup(cfg: RunConfig) -> tuple:
    """(flow, A, sigma) with A the seeded attracting increment verify draws."""
    quiver, dims, central = _load(cfg, generic=True)
    flow = _flow(cfg, quiver, dims, central)
    A = attracting_increment(bb_tangent_basis(flow.limit, flow.grading),
                             flow.grading, cfg.seed)
    return flow, A, central.sigma_array()


def _cmd_check(cfg: RunConfig, args) -> int:
    quiver, dims, central = _load(cfg)
    print(f"quiver: {cfg.quiver_file}")
    print(f"vertices: {quiver.n}, edges: {list(quiver.edges)}")
    print(f"v: {list(dims.v)}, w: {list(dims.w)}")
    print(f"expected slice dimension (real): {expected_dimension(quiver, dims)}")
    on_walls = walls(central, quiver, dims)
    generic = not on_walls
    print(f"central parameter generic: {'yes' if generic else 'no'}")
    for theta, margin in on_walls:
        print(f"  wall at root theta={list(theta)} (margin {margin:.3e})")
    _write_json(cfg.output_dir, "check.json", {
        "quiver": cfg.quiver_file,
        "vertices": quiver.n,
        "edges": [list(e) for e in quiver.edges],
        "v": list(dims.v), "w": list(dims.w),
        "expected_dimension": expected_dimension(quiver, dims),
        "generic": bool(generic),
        "walls": [{"theta": list(t), "margin": m} for t, m in on_walls],
    })
    return 0


def _cmd_sample(cfg: RunConfig, args) -> int:
    quiver, dims, central = _load(cfg)
    rep = sample_on_variety(quiver, dims, central, seed=cfg.seed)
    p = rep.point
    res = hermitian_residual(p, central.sigma_array()).norm()
    dev = central_deviation(moment_complex(p))
    print(f"sampled point after {rep.attempts} attempt(s), "
          f"{rep.solve.iterations} Newton steps")
    print(f"real-moment residual: {res:.3e}")
    print(f"complex-moment central deviation: {dev:.3e}")
    _write_json(cfg.output_dir, "sample.json", {
        "seed": cfg.seed, "attempts": rep.attempts,
        "residual": res, "central_deviation": dev,
        "point": p.to_dict(),
    })
    return 0


def _cmd_flow(cfg: RunConfig, args) -> int:
    flow = _flow(cfg, *_load(cfg))
    print(f"settled at R={flow.R_final:g} after {len(flow.rows)} steps")
    print(f"fixed-point residual: {flow.fixed_report.residual:.3e}")
    print("R, shrinking-slot energy, fixed-point residual:")
    for r, e, d in flow.rows:
        print(f"  {r:.6g}  {e:.6e}  {d:.3e}")
    _write_json(cfg.output_dir, "flow.json", {
        "R_final": flow.R_final,
        "rows": [[r, e, d] for r, e, d in flow.rows],
        "fixed": bool(flow.fixed_report.fixed),
        "stable": is_stable(flow.limit)[0],
        "residual": flow.fixed_report.residual,
        "limit": flow.limit.to_dict(),
    })
    return 0


def _cmd_fixed(cfg: RunConfig, args) -> int:
    flow = _flow(cfg, *_load(cfg))
    rep, grading = flow.fixed_report, flow.grading
    stable, smin = is_stable(flow.limit)
    audit = bb_expected_dimension(grading)
    print(f"fixed: {rep.fixed} (residual {rep.residual:.3e})")
    print(f"stable: {stable} (min singular value {smin:.3e})")
    print(f"vertex weights: {[list(w) for w in grading.weights]}")
    print(f"attracting dimension audit: {audit}")
    _write_json(cfg.output_dir, "fixed.json", {
        "fixed": bool(rep.fixed), "residual": rep.residual,
        "stable": stable,
        "weights": [list(map(int, w)) for w in grading.weights],
        "audit": audit, "point": flow.limit.to_dict(),
    })
    return 0


def _cmd_bb_basis(cfg: RunConfig, args) -> int:
    quiver, dims, central = _load(cfg)
    flow = _flow(cfg, quiver, dims, central)
    basis = bb_tangent_basis(flow.limit, flow.grading)
    full = tangent_basis(flow.limit) if is_generic(central, quiver, dims) else None
    audit = bb_expected_dimension(flow.grading)
    print(f"attracting slice basis: {basis.count()} complex vector(s) "
          f"({basis.real_dimension()} real)")
    if full is not None:
        print(f"full slice basis: {full.count()} complex vector(s) "
              f"({full.real_dimension()} real)")
    print(f"formula count: {audit['bb_dimension']}")
    _write_json(cfg.output_dir, "bb_basis.json", {
        "count": basis.count(), "audit": audit,
        "basis": basis.to_dict(),
    })
    return 0


def _cmd_climit(cfg: RunConfig, args) -> int:
    flow, A, _ = _limit_setup(cfg)
    p0 = flow.limit
    rep = conformal_limit(p0, A, args.hbar, flow.grading)
    fp = fingerprint(rep.point, cfg.max_len)
    print(f"conformal limit at hbar={args.hbar:g}: "
          f"{rep.iterations} Newton steps, residual {rep.residual:.3e}")
    labels = fingerprint_labels(p0.quiver, p0.dims, cfg.max_len)
    shown = 0
    for lab, val in zip(labels, fp):
        if abs(val) > ZERO_INVARIANT_TOL and shown < 12:
            print(f"  {lab} = {val:.6g}")
            shown += 1
    _write_json(cfg.output_dir, "climit.json", {
        "hbar": args.hbar, "residual": rep.residual,
        "iterations": rep.iterations,
        "fingerprint": {lab: float(v) for lab, v in zip(labels, fp)},
        "point": rep.point.to_dict(),
    })
    return 0


def _cmd_family(cfg: RunConfig, args) -> int:
    flow, A, sigma = _limit_setup(cfg)
    st, = convergence_study(flow.limit, A, sigma, (args.hbar,), cfg.r_grid,
                            grading=flow.grading, max_len=cfg.max_len)
    print(f"family at hbar={args.hbar:g} over R grid {list(cfg.r_grid)}:")
    for r, d in st.rows:
        print(f"  R={r:.6g}  distance={d:.6e}")
    if st.degenerate:
        print("degenerate: distances at the solver floor, no rate measurable")
    else:
        print(f"log-log slope: {st.slope:.4f} (fit residual {st.fit_residual:.2e})")
    _write_json(cfg.output_dir, "family.json", {
        "hbar": args.hbar, "rows": [[r, d] for r, d in st.rows],
        "slope": st.slope, "degenerate": st.degenerate,
    })
    return 0


def _cmd_invariants(cfg: RunConfig, args) -> int:
    quiver, dims, central = _load(cfg)
    rep = sample_on_variety(quiver, dims, central, seed=cfg.seed)
    labels = fingerprint_labels(quiver, dims, cfg.max_len)
    fp = fingerprint(rep.point, cfg.max_len)
    print(f"{len(labels)} invariant coordinates up to length {cfg.max_len}")
    for lab, val in zip(labels, fp):
        print(f"  {lab} = {val:.6g}")
    _write_json(cfg.output_dir, "invariants.json", {
        "max_len": cfg.max_len,
        "fingerprint": {lab: float(v) for lab, v in zip(labels, fp)},
    })
    return 0


def _cmd_escape(cfg: RunConfig, args) -> int:
    path = PathSpec.parse(args.path)
    flow, A, _ = _limit_setup(cfg)
    st, = escape_slope(flow.limit, A, [path], flow.grading)
    print(f"path {path}: predicted blow-up exponent {st.expected_exponent}")
    print(f"leading power of hbar: {st.slope:g}")
    print(f"Laurent coefficients, relative to the largest sampled entry: "
          f"mismatch at p0 + A {st.mismatch:.3e}, "
          f"largest outside the window {st.outside:.3e}")
    print(f"{'PASS' if st.passed else 'FAIL'} (bound {IDENTITY_TOL:.0e})")
    _write_json(cfg.output_dir, "escape.json", {
        "path": str(path), "expected_exponent": st.expected_exponent,
        "slope": st.slope, "mismatch": st.mismatch, "outside": st.outside,
        "passed": st.passed,
    })
    return 0 if st.passed else 1


def _cmd_verify(cfg: RunConfig, args) -> int:
    report, pipeline = verify_run(cfg)
    print(f"config sha256: {cfg.digest()}")
    for s in report.suites:
        mark = "PASS" if s.passed else "FAIL"
        extra = f"  [{s.note}]" if s.note else ""
        print(f"{mark}  {s.name}  (worst {s.worst:.3e}){extra}")
    print("all suites passed" if report.all_passed else "some suites FAILED")
    if cfg.output_dir:
        write_outputs(report, pipeline, cfg.output_dir)
        print(f"reports written to {cfg.output_dir}")
    return 0 if report.all_passed else 1


# the flag of each RunConfig field a subcommand can read
_FIELD_FLAGS = {
    "seed": ("--seed", {"type": int}),
    "max_len": ("--max-len", {"type": int}),
    "r_grid": ("--grid", {"type": _grid, "help": "comma-separated decreasing positive reals"}),
    "hbar_grid": ("--hbar-grid", {"type": _grid}),
    "output_dir": ("--out", {"metavar": "DIR", "help": "output directory"}),
}

# name, handler, the RunConfig fields the handler reads, help
_SEEDED = ("seed", "output_dir")
_LONG = _SEEDED + ("max_len",)
_COMMANDS = (
    ("check", _cmd_check, ("output_dir",), "validate a quiver file and genericity"),
    ("sample", _cmd_sample, _SEEDED, "draw a seeded point on the variety"),
    ("flow", _cmd_flow, _SEEDED, "follow the scaling flow to a fixed point"),
    ("fixed", _cmd_fixed, _SEEDED, "fixed-point test, weights, dimension audit"),
    ("bb-basis", _cmd_bb_basis, _SEEDED, "attracting-slice tangent basis"),
    ("climit", _cmd_climit, _LONG, "conformal limit point at a given hbar"),
    ("family", _cmd_family, _LONG + ("r_grid",), "rotation-scaling family convergence"),
    ("invariants", _cmd_invariants, _LONG, "fingerprint of a sampled point"),
    ("escape", _cmd_escape, _SEEDED, "exact blow-up order of one path invariant"),
    ("verify", _cmd_verify, _LONG + ("r_grid", "hbar_grid"),
     "run all invariant suites; exit 0 iff green"),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quiverlim",
        description="Framed doubled quivers: moment-map solvers, scaling "
                    "fixed points, attracting slices, conformal-limit maps, "
                    "and gauge-invariant path invariants.")
    sub = ap.add_subparsers(dest="command", required=True)
    defaults = RunConfig()
    parsers = {}
    for name, fn, fields, text in _COMMANDS:
        p = parsers[name] = sub.add_parser(name, help=text)
        p.add_argument("quiver",
                       help=f"preset ({', '.join(PRESET_NAMES)}) or JSON file")
        for f in fields:
            flag, kwargs = _FIELD_FLAGS[f]
            p.add_argument(flag, dest=f, default=getattr(defaults, f), **kwargs)
        p.set_defaults(fn=fn, fields=fields)
    for name in ("climit", "family"):
        parsers[name].add_argument("--hbar", type=float, default=1.0)
    parsers["escape"].add_argument("--path", required=True,
                                   help="path string, e.g. 'P:c0.j0' or 'L:h0.h0~'")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(quiver_file=args.quiver,
                        **{f: getattr(args, f) for f in args.fields})
        return args.fn(cfg, args)
    except QuiverLimError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
