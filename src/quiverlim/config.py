"""Run configuration and the numerical thresholds of the package.

RunConfig is what a run depends on.  The table below it holds every fixed
threshold the solvers, checks and verify suites compare against; no other
module writes a threshold as a literal.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from numbers import Integral, Real


def check_number(field: str, x, kind=Real):
    """x; ValueError naming the field unless x is a finite number of the given
    kind (Integral or Real), a bool being neither."""
    if isinstance(x, bool) or not isinstance(x, kind) or not math.isfinite(x):
        raise ValueError(f"{field}: {x!r} is not a finite {kind.__name__.lower()} number")
    return x


def check_grid(name: str, grid) -> tuple[float, ...]:
    """grid as floats; ValueError unless it is nonempty, finite, positive and
    strictly decreasing."""
    vals = tuple(float(x) for x in grid)
    if not vals:
        raise ValueError(f"{name} must not be empty")
    if not all(math.isfinite(x) for x in vals):
        raise ValueError(f"{name} entries must be finite")
    if any(x <= 0 for x in vals):
        raise ValueError(f"{name} entries must be positive")
    if any(b >= a for a, b in zip(vals, vals[1:])):
        raise ValueError(f"{name} must be strictly decreasing")
    return vals


# Numerical thresholds: every fixed bound the solvers, checks and verify
# suites compare against.  Checks bound moment-map residuals relative to
# moment_scale(p) = max(1, |p|^2), linear conditions relative to max(1, |p|).
# A real-moment solve stops on its absolute residual, and only the point it
# rebuilds is held to SLACK tol moment_scale [2]; the min-norm Newton kernel
# stops at tol moment_scale(p + q) of its current iterate.
TOL = 1e-10                # stop of real-moment solves (absolute) and slice solves
CHECK_TOL = 1e-8           # a property tol-accurate data holds to round-off [1]
SLACK = 10.0               # a bound derived from another may exceed it tenfold [2]
FLOOR = 100.0              # below FLOOR * tol * scale a derived quantity is zero
STAGE_SLACK = 50.0         # the conformal family's exact moment checks per stage
LEVEL_TOL = 1e-12          # stop of the complex-level projection of a sample
TANGENT_TOL = 1e-10        # slice tangent vectors against their conditions
WALL_TOL = 1e-12           # an inexact parameter this close to a wall is on it
# [1] central complex level, slice equations and tangency of an increment,
#     weight-block confinement, a grading's base point, the fixed-point test
#     (which also ends the scaling flow), nilpotency; the sampling,
#     solver_uniqueness, slice_correction and attracting_slice verdicts.
# [2] the point rebuilt from the polar factor (and the sampling verdict) over
#     tol, the finite-angle crosscheck over the fixed-point residual.
# [3] at 1/256, 30 of 36 flows (six quivers, seeds 0-5) ran out of step
#     halvings; 1/16 was no faster than 1/8.

# rank and conditioning
EIG_FLOOR_RATIO = 1e-10    # Newton matrix 2 A^T A singular below this eigen-ratio
STABILITY_RATIO = 1e-10    # fixed point stable above this singular-value ratio
SV_RATIO = 1e-8            # numerical rank cut of an SVD
COND_LIMIT = 1e12          # worst conditioning a moment correction accepts
INT_WEIGHT_TOL = 1e-6      # generator eigenvalues this close to integers are weights

# iterations: damped Newton accepts a step t once the residual drops by the
# factor 1 - ARMIJO_SLOPE t, halving t at most MAX_HALVINGS times
ARMIJO_SLOPE = 1e-4
MAX_HALVINGS = 10
MAX_NEWTON_ITER = 100      # cap of a moment solve
MAX_SLICE_ITER = 50        # cap of the min-norm Newton kernel (slice, level)
SAMPLE_RESTARTS = 10       # fresh gaussian draws per sample
BASIN_NORM = 1.0           # larger attracting increments are shrunk before solving

# scaling flow: R runs through FLOW_RATIO^t, t = 1..FLOW_STEPS, until the
# iterate passes the fixed-point test at CHECK_TOL.  An iterate's distance
# from the limit is O(R), so the test passes near R = CHECK_TOL after about
# 9 steps of 1/8; much smaller ratios stall the Newton solves [3]
FLOW_RATIO = 0.125
FLOW_STEPS = 40
ENERGY_SLACK = 1e-9        # round-off rise allowed in the shrinking-slot energy

# path invariants
ZERO_INVARIANT_TOL = 1e-10       # an escape study needs more at p0 + A
ESCAPE_MIN_INVARIANT = 1e-6      # the escape suite studies invariants above this

# verdicts of the verify suites (besides CHECK_TOL and SLACK above)
IDENTITY_TOL = 1e-9        # exact identities: adjoint pairing, twistor moments,
#                            gauge invariance of the fingerprint, escape Laurent
#                            coefficients
ISOTROPY_TOL = 1e-12       # isotropy of the attracting basis
CONFORMAL_SLOPE_RANGE = (1.5, 3.0)  # fitted approach rate; 2 is predicted


def moment_scale(p) -> float:
    """max(1, |p|^2): the scale of moment-map residuals at p."""
    return max(1.0, p.norm() ** 2)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; equal configs give byte-identical output."""

    quiver_file: str = "tstar-p1"  # preset name or path to a quiver JSON file
    seed: int = 0
    max_len: int = 4
    r_grid: tuple[float, ...] = (0.4, 0.2, 0.1, 0.05)
    hbar_grid: tuple[float, ...] = (1.0, 0.5)
    output_dir: str | None = None

    def __post_init__(self):
        for name in ("seed", "max_len"):
            object.__setattr__(self, name, int(check_number(name, getattr(self, name), Integral)))
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")
        object.__setattr__(self, "r_grid", check_grid("r_grid", self.r_grid))
        object.__setattr__(self, "hbar_grid",
                           check_grid("hbar_grid", self.hbar_grid))

    def to_dict(self) -> dict:
        return {
            "quiver_file": self.quiver_file,
            "seed": self.seed,
            "max_len": self.max_len,
            "r_grid": list(self.r_grid),
            "hbar_grid": list(self.hbar_grid),
            "output_dir": self.output_dir,
        }

    def digest(self) -> str:
        # output_dir does not affect any computed value, so two runs that
        # differ only in destination share a digest
        data = self.to_dict()
        del data["output_dir"]
        blob = json.dumps(data, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        return cls(**data)
