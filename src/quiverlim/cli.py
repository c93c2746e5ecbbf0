"""Command-line interface.

Every subcommand takes a quiver (preset name or JSON file), is fully
deterministic under a fixed seed, and prints a short human-readable summary;
--out writes machine-readable JSON/CSV files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import INVARIANT_RANGE, RunConfig
from .conformal import conformal_limit, convergence_study
from .errors import QuiverLimError
from .fixedpoints import (bb_expected_dimension, flow_limit, is_fixed_point,
                          weight_grading)
from .invariants import (ESCAPE_GRID, PathSpec, escape_slope, fingerprint,
                         fingerprint_labels)
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


def _load(args) -> tuple:
    quiver, dims, central, preset = resolve_quiver_spec(args.quiver)
    require_nonempty(quiver, dims)
    return quiver, dims, central, preset


def _load_generic(args) -> tuple:
    """_load for the commands whose construction needs a generic parameter."""
    quiver, dims, central, preset = _load(args)
    require_generic(central, quiver, dims)
    return quiver, dims, central, preset


def _derive_setup(args, quiver, dims, central, preset):
    """(p0, grading, A) as verify builds them, except that a preset's
    hand-checked fixed point, where it has one, replaces the flow limit of
    the seeded sample."""
    if preset is not None and preset.fixed_matrices is not None:
        p0 = preset.fixed_point()
    else:
        smp = sample_on_variety(quiver, dims, central, seed=args.seed, tol=args.tol)
        p0 = flow_limit(smp.point, central.sigma_array(), args.max_len,
                        solve_tol=args.tol).limit
    grading = weight_grading(p0)
    A = attracting_increment(bb_tangent_basis(p0, grading), grading,
                             args.seed, args.tol)
    return p0, grading, A


def _cmd_check(args) -> int:
    quiver, dims, central, _ = _load(args)
    print(f"quiver: {args.quiver}")
    print(f"vertices: {quiver.n}, edges: {list(quiver.edges)}")
    print(f"v: {list(dims.v)}, w: {list(dims.w)}")
    print(f"expected slice dimension (real): {expected_dimension(quiver, dims)}")
    on_walls = walls(central, quiver, dims)
    generic = not on_walls
    print(f"central parameter generic: {'yes' if generic else 'no'}")
    for theta, margin in on_walls:
        print(f"  wall at root theta={list(theta)} (margin {margin:.3e})")
    _write_json(args.out, "check.json", {
        "quiver": args.quiver,
        "vertices": quiver.n,
        "edges": [list(e) for e in quiver.edges],
        "v": list(dims.v), "w": list(dims.w),
        "expected_dimension": expected_dimension(quiver, dims),
        "generic": bool(generic),
        "walls": [{"theta": list(t), "margin": m} for t, m in on_walls],
    })
    return 0


def _cmd_sample(args) -> int:
    quiver, dims, central, _ = _load(args)
    rep = sample_on_variety(quiver, dims, central, seed=args.seed, tol=args.tol)
    p = rep.point
    res = hermitian_residual(p, central.sigma_array()).norm()
    dev = central_deviation(moment_complex(p))
    print(f"sampled point after {rep.attempts} attempt(s), "
          f"{rep.solve.iterations} Newton steps")
    print(f"real-moment residual: {res:.3e}")
    print(f"complex-moment central deviation: {dev:.3e}")
    _write_json(args.out, "sample.json", {
        "seed": args.seed, "attempts": rep.attempts,
        "residual": res, "central_deviation": dev,
        "point": p.to_dict(),
    })
    return 0


def _cmd_flow(args) -> int:
    quiver, dims, central, _ = _load(args)
    rep = sample_on_variety(quiver, dims, central, seed=args.seed, tol=args.tol)
    flow = flow_limit(rep.point, central.sigma_array(), args.max_len,
                      solve_tol=args.tol)
    print(f"settled at R={flow.R_final:g} after {len(flow.rows)} steps")
    print(f"fixed-point residual: {flow.fixed_report.residual:.3e}")
    print("R, shrinking-slot energy, fingerprint step:")
    for r, e, d in flow.rows:
        print(f"  {r:.6g}  {e:.6e}  {d:.3e}")
    _write_json(args.out, "flow.json", {
        "R_final": flow.R_final,
        "rows": [[r, e, d] for r, e, d in flow.rows],
        "fixed": bool(flow.fixed_report.fixed),
        "stable": bool(flow.fixed_report.stable),
        "residual": flow.fixed_report.residual,
        "limit": flow.limit.to_dict(),
    })
    return 0


def _cmd_fixed(args) -> int:
    p0, grading, _ = _derive_setup(args, *_load(args))
    rep = is_fixed_point(p0)
    audit = bb_expected_dimension(grading)
    print(f"fixed: {rep.fixed} (residual {rep.residual:.3e})")
    print(f"stable: {rep.stable} (min singular value {rep.min_singular:.3e})")
    print(f"vertex weights: {[list(w) for w in grading.weights]}")
    print(f"attracting dimension audit: {audit}")
    _write_json(args.out, "fixed.json", {
        "fixed": bool(rep.fixed), "residual": rep.residual,
        "stable": bool(rep.stable),
        "weights": [list(map(int, w)) for w in grading.weights],
        "audit": audit, "point": p0.to_dict(),
    })
    return 0


def _cmd_bb_basis(args) -> int:
    quiver, dims, central, preset = _load(args)
    p0, grading, _ = _derive_setup(args, quiver, dims, central, preset)
    basis = bb_tangent_basis(p0, grading)
    full = tangent_basis(p0) if is_generic(central, quiver, dims) else None
    audit = bb_expected_dimension(grading)
    print(f"attracting slice basis: {basis.count()} complex vector(s) "
          f"({basis.real_dimension()} real)")
    if full is not None:
        print(f"full slice basis: {full.count()} complex vector(s) "
              f"({full.real_dimension()} real)")
    print(f"formula count: {audit['bb_dimension']}")
    _write_json(args.out, "bb_basis.json", {
        "count": basis.count(), "audit": audit,
        "basis": basis.to_dict(),
    })
    return 0


def _cmd_climit(args) -> int:
    p0, grading, A = _derive_setup(args, *_load_generic(args))
    rep = conformal_limit(p0, A, args.hbar, tol=args.tol, grading=grading)
    fp = fingerprint(rep.point, args.max_len)
    print(f"conformal limit at hbar={args.hbar:g}: "
          f"{rep.iterations} Newton steps, residual {rep.residual:.3e}")
    labels = fingerprint_labels(p0.quiver, p0.dims, args.max_len)
    shown = 0
    for lab, val in zip(labels, fp):
        if abs(val) > INVARIANT_RANGE[0] and shown < 12:
            print(f"  {lab} = {val:.6g}")
            shown += 1
    _write_json(args.out, "climit.json", {
        "hbar": args.hbar, "residual": rep.residual,
        "iterations": rep.iterations,
        "fingerprint": {lab: float(v) for lab, v in zip(labels, fp)},
        "point": rep.point.to_dict(),
    })
    return 0


def _cmd_family(args) -> int:
    quiver, dims, central, preset = _load_generic(args)
    p0, grading, A = _derive_setup(args, quiver, dims, central, preset)
    st = convergence_study(p0, A, central.sigma_array(), args.hbar, args.grid,
                           grading=grading, tol=args.tol, max_len=args.max_len)
    print(f"family at hbar={args.hbar:g} over R grid {list(args.grid)}:")
    for r, d in st.rows:
        print(f"  R={r:.6g}  distance={d:.6e}")
    if st.degenerate:
        print("degenerate: distances at the solver floor, no rate measurable")
    else:
        print(f"log-log slope: {st.slope:.4f} (fit residual {st.fit_residual:.2e})")
    _write_json(args.out, "family.json", {
        "hbar": args.hbar, "rows": [[r, d] for r, d in st.rows],
        "slope": st.slope, "degenerate": st.degenerate,
    })
    return 0


def _cmd_invariants(args) -> int:
    quiver, dims, central, _ = _load(args)
    rep = sample_on_variety(quiver, dims, central, seed=args.seed, tol=args.tol)
    labels = fingerprint_labels(quiver, dims, args.max_len)
    fp = fingerprint(rep.point, args.max_len)
    print(f"{len(labels)} invariant coordinates up to length {args.max_len}")
    for lab, val in zip(labels, fp):
        print(f"  {lab} = {val:.6g}")
    _write_json(args.out, "invariants.json", {
        "max_len": args.max_len,
        "fingerprint": {lab: float(v) for lab, v in zip(labels, fp)},
    })
    return 0


def _cmd_escape(args) -> int:
    p0, _, A = _derive_setup(args, *_load_generic(args))
    path = PathSpec.parse(args.path)
    st = escape_slope(p0, A, args.grid, path)
    print(f"path {path}: predicted blow-up exponent {st.expected_exponent}")
    print(f"fitted slope: {st.slope:.4f} over {st.used} points")
    for h, v in st.rows:
        print(f"  hbar={h:.6g}  |invariant|={v:.6e}")
    _write_json(args.out, "escape.json", {
        "path": str(path), "expected_exponent": st.expected_exponent,
        "slope": st.slope, "rows": [[h, v] for h, v in st.rows],
    })
    return 0


def _cmd_verify(args) -> int:
    cfg = RunConfig(quiver_file=args.quiver, seed=args.seed, tol=args.tol,
                    max_len=args.max_len, r_grid=args.grid,
                    hbar_grid=args.hbar_grid, output_dir=args.out)
    report, pipeline = verify_run(cfg)
    print(f"config sha256: {cfg.digest()}")
    for s in report.suites:
        mark = "PASS" if s.passed else "FAIL"
        extra = f"  [{s.note}]" if s.note else ""
        print(f"{mark}  {s.name}  (worst {s.worst:.3e}){extra}")
    print("all suites passed" if report.all_passed else "some suites FAILED")
    if args.out:
        write_outputs(report, pipeline, args.out)
        print(f"reports written to {args.out}")
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quiverlim",
        description="Framed doubled quivers: moment-map solvers, scaling "
                    "fixed points, attracting slices, conformal-limit maps, "
                    "and gauge-invariant path invariants.")
    sub = ap.add_subparsers(dest="command", required=True)
    defaults = RunConfig()

    def common(p):
        p.add_argument("quiver",
                       help=f"preset ({', '.join(PRESET_NAMES)}) or JSON file")
        p.add_argument("--seed", type=int, default=defaults.seed)
        p.add_argument("--tol", type=float, default=defaults.tol)
        p.add_argument("--max-len", dest="max_len", type=int,
                       default=defaults.max_len)
        p.add_argument("--grid", type=_grid, default=defaults.r_grid,
                       help="comma-separated decreasing positive reals")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("check", help="validate a quiver file and genericity")
    common(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("sample", help="draw a seeded point on the variety")
    common(p)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("flow", help="follow the scaling flow to a fixed point")
    common(p)
    p.set_defaults(fn=_cmd_flow)

    p = sub.add_parser("fixed", help="fixed-point test, weights, dimension audit")
    common(p)
    p.set_defaults(fn=_cmd_fixed)

    p = sub.add_parser("bb-basis", help="attracting-slice tangent basis")
    common(p)
    p.set_defaults(fn=_cmd_bb_basis)

    p = sub.add_parser("climit", help="conformal limit point at a given hbar")
    common(p)
    p.add_argument("--hbar", type=float, default=1.0)
    p.set_defaults(fn=_cmd_climit)

    p = sub.add_parser("family", help="rotation-scaling family convergence")
    common(p)
    p.add_argument("--hbar", type=float, default=1.0)
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("invariants", help="fingerprint of a sampled point")
    common(p)
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("escape", help="blow-up rate of one path invariant")
    common(p)
    p.add_argument("--path", required=True,
                   help="path string, e.g. 'P:c0.j0' or 'L:h0.h0~'")
    p.set_defaults(fn=_cmd_escape, grid=ESCAPE_GRID)

    p = sub.add_parser("verify", help="run all invariant suites; exit 0 iff green")
    common(p)
    p.add_argument("--hbar-grid", dest="hbar_grid", type=_grid,
                   default=defaults.hbar_grid)
    p.set_defaults(fn=_cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except QuiverLimError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
