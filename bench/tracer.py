"""In-memory span recorder for the traced benchmark run.

The tracer wraps public functions of the quiverlim modules from outside the
package: every module namespace that bound a function (``from .solver import
solve_real_moment`` copies it into four modules) gets the same wrapper, and
``uninstall`` puts the originals back.  A span is (name, start, end, parent,
op); a layer's self time is its span minus the spans of its wrapped children.
Deterministic counts are read from the reports the wrapped functions return.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import Counter

import numpy as np

# layer -> (module, wrapped public functions); one span per call
SPAN_LAYERS = {
    "solver": ("quiverlim.solver", (
        "solve_real_moment", "graded_solve", "assemble_newton_matrix",
        "hermitian_log")),
    "repspace": ("quiverlim.repspace", (
        "moment_real", "moment_complex", "hermitian_residual", "inf_action",
        "inf_action_adjoint", "dmu_complex", "dmoment_real_scaled",
        "gauge_act", "lie_exp")),
    "fixedpoints": ("quiverlim.fixedpoints", (
        "flow_limit", "is_fixed_point", "weight_grading", "stability_margin")),
    "slices": ("quiverlim.slices", (
        "stacked_conditions", "moment_derivative_matrix", "tangent_basis",
        "bb_tangent_basis", "slice_solve", "bb_slice_solve",
        "moment_correction")),
    "sampling": ("quiverlim.sampling", (
        "sample_on_variety", "project_complex_level")),
    "conformal": ("quiverlim.conformal", (
        "convergence_study", "conformal_family_sample", "conformal_limit",
        "conformal_point", "twistor_rotate")),
    "invariants": ("quiverlim.invariants", (
        "fingerprint", "enumerate_paths", "invariant_size", "escape_slope")),
}

# numpy.linalg entry points the package calls as np.linalg.<name>
LAPACK = ("eigh", "svd", "lstsq")

# Quiver index helpers, counted together as quiver.h_index.calls
H_INDEX = ("h_in", "h_out", "h_bar", "h_into", "h_eps")

# the thirteen verify suites, by the name their SuiteResult reports
SUITE_NAMES = (
    "genericity", "sampling", "adjoint_identities", "solver_uniqueness",
    "twistor_rotation", "fixed_point_flow", "dimension_audit", "isotropy",
    "slice_correction", "attracting_slice", "conformal_convergence",
    "gauge_invariance", "escape_rates")

COUNTERS = ("solver.newton_iters", "solver.halvings", "repspace.RepPoint.created",
            "quiver.h_index.calls", "fixedpoints.flow_steps", "sampling.attempts",
            "verify.bytes_written") + tuple(f"lapack.{f}.in_elems" for f in LAPACK)


def _halvings(report, args, kwargs) -> int:
    """Step halvings of one solve, read from SolveReport.history.

    Row t of the history holds the accepted step fraction, which starts at
    the forced damping of that iteration (1.0 without one) and is halved
    exactly, so the count is a whole log2.
    """
    forced = kwargs.get("forced_damping", args[4] if len(args) > 4 else ())
    total = 0
    for it, _res, frac in report.history[1:]:
        start = forced[it - 1] if it - 1 < len(forced) else 1.0
        total += int(round(math.log2(start / frac)))
    return total


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


class Tracer:
    """Records spans and counts while ``active``; inert otherwise."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.op_id = -1
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def rename(self, idx: int, name: str) -> None:
        self.name[idx] = self._intern(name)

    def span_count(self) -> int:
        return len(self.name)

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name, fn, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_return is not None:
                on_return(idx, out, args, kwargs)
            return out
        return wrapper

    def _count_wrapper(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind ``original`` to ``wrapper`` in every quiverlim namespace."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "quiverlim"
                                   or modname.startswith("quiverlim.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._installed.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _replace_attr(self, owner, attr, wrapper) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function; uninstall before installing again."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        import quiverlim.quiver
        import quiverlim.repspace
        import quiverlim.verify

        hooks = {
            "solver.solve_real_moment": self._on_solve,
            "fixedpoints.flow_limit": self._on_flow,
            "sampling.sample_on_variety": self._on_sample,
        }
        for layer, (modname, fns) in SPAN_LAYERS.items():
            mod = sys.modules[modname]
            for fn in fns:
                name = f"{layer}.{fn}"
                orig = getattr(mod, fn)
                self._replace_everywhere(
                    orig, self._span_wrapper(name, orig, hooks.get(name)))

        for fn in LAPACK:
            orig = getattr(np.linalg, fn)
            self._replace_attr(np.linalg, fn, self._span_wrapper(
                f"lapack.{fn}", orig, self._lapack_hook(fn)))

        for fn in H_INDEX:
            self._replace_attr(quiverlim.quiver.Quiver, fn, self._count_wrapper(
                "quiver.h_index.calls", getattr(quiverlim.quiver.Quiver, fn)))
        rp = quiverlim.repspace.RepPoint
        self._replace_attr(rp, "__post_init__", self._count_wrapper(
            "repspace.RepPoint.created", rp.__post_init__))

        vmod = quiverlim.verify
        for attr, val in list(vars(vmod).items()):
            if attr.startswith("_suite_") and callable(val):
                self._replace_attr(vmod, attr, self._span_wrapper(
                    f"verify.{attr}", val, self._on_suite))
        self._replace_everywhere(vmod.write_outputs, self._span_wrapper(
            "verify.write_outputs", vmod.write_outputs, self._on_write))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- counts read from returned reports ----------------------------------

    def _on_solve(self, idx, report, args, kwargs):
        self.counts["solver.newton_iters"] += report.iterations
        self.counts["solver.halvings"] += _halvings(report, args, kwargs)

    def _on_flow(self, idx, report, args, kwargs):
        self.counts["fixedpoints.flow_steps"] += len(report.rows)

    def _on_sample(self, idx, report, args, kwargs):
        self.counts["sampling.attempts"] += report.attempts

    def _on_suite(self, idx, result, args, kwargs):
        self.rename(idx, f"verify.suite.{result.name}")

    def _on_write(self, idx, _out, args, kwargs):
        out_dir = kwargs.get("out_dir", args[2] if len(args) > 2 else None)
        self.counts["verify.bytes_written"] += _dir_bytes(out_dir)

    def _lapack_hook(self, fn):
        key = f"lapack.{fn}.in_elems"

        def hook(idx, _out, args, kwargs):
            a = args[0] if args else kwargs.get("a")
            self.counts[key] += int(np.size(a))
        return hook

    # -- reduction ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.asarray(self.name, dtype=np.int32),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "op": np.asarray(self.op, dtype=np.int64),
        }

    def summarize(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Per span name over spans [lo, hi): calls, inclusive and self seconds."""
        name = np.asarray(self.name[lo:hi], dtype=np.int64)
        dur = np.asarray(self.end[lo:hi]) - np.asarray(self.start[lo:hi])
        parent = np.asarray(self.parent[lo:hi], dtype=np.int64) - lo
        child = np.zeros_like(dur)
        inside = parent >= 0
        np.add.at(child, parent[inside], dur[inside])
        own = dur - child
        out = {}
        for i in np.unique(name):
            sel = name == i
            out[self.names[i]] = {"calls": int(sel.sum()),
                                  "incl_s": float(dur[sel].sum()),
                                  "self_s": float(own[sel].sum())}
        return out
