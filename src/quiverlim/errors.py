"""Exception types shared across the package."""


class QuiverLimError(Exception):
    """Base class for all structured errors raised by quiverlim."""


class NotInjective(QuiverLimError):
    """A linearized gauge operator has (numerical) kernel where injectivity is required."""


class MaxIterations(QuiverLimError):
    """An iterative solver hit its iteration cap or stalled without meeting tolerance."""


class GradingViolation(QuiverLimError):
    """A fixed point has components off the zero block of its own weight grading."""


class NotOnVariety(QuiverLimError):
    """A point fails the moment-map membership preconditions of an operation."""


class NotFixed(QuiverLimError):
    """A point is not a circle-action fixed point to tolerance."""


class NonIntegerWeights(QuiverLimError):
    """Fixed-point generator eigenvalues are not integers to tolerance."""


class NoConvergence(QuiverLimError):
    """A limiting procedure exhausted its schedule without stabilizing."""


class DimensionMismatch(QuiverLimError):
    """A computed basis count disagrees with the dimension formula."""


class IllConditioned(QuiverLimError):
    """A pseudo-inverse is requested outside its trustworthy conditioning range."""


class LeftBasin(QuiverLimError):
    """A damped Newton iteration cannot reduce the residual from the current iterate."""


class NotOnSlice(QuiverLimError):
    """An increment fails the slice equations it is required to satisfy."""


class ZeroInvariant(QuiverLimError):
    """A path invariant vanishes at the base point, so no escape rate is defined."""


class SamplingFailed(QuiverLimError):
    """Random sampling could not produce a point on the variety after retries."""


class EmptyVariety(SamplingFailed):
    """The dimension vectors admit no point: a negative expected dimension, or,
    at a generic parameter, (v, 1) is not a root of the framed quiver."""


class OnWall(QuiverLimError):
    """The central parameter lies on a root wall, so it is not generic."""
