"""Built-in desk-scale quiver configurations.

Each preset bundles a quiver, dimension vectors, a central parameter chosen
generic (except a2-wall, kept on a wall deliberately), and, where meaningful,
a hand-checked torus-fixed point solving both moment equations together with
its vertex weight lists.  These serve as reproducible anchors for tests;
the CLI builds its fixed point from the scaling flow, as verify does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quiver import (CentralParameter, DimensionVectors, Quiver,
                     load_quiver_file)
from .repspace import RepPoint


@dataclass(frozen=True)
class Preset:
    name: str
    quiver: Quiver
    dims: DimensionVectors
    central: CentralParameter
    fixed_matrices: tuple | None
    weights: tuple[tuple[int, ...], ...] | None
    description: str

    def fixed_point(self) -> RepPoint:
        if self.fixed_matrices is None:
            raise ValueError(f"preset {self.name} has no distinguished fixed point")
        B, i, j = self.fixed_matrices
        return RepPoint(self.quiver, self.dims, B, i, j)


def _tstar_p1() -> Preset:
    q = Quiver(n=1, edges=())
    d = DimensionVectors(v=(1,), w=(2,))
    c = CentralParameter(sigma=(0.5,), c=(0,))
    B: list = []
    i = [[[1.0, 0.0]]]
    j = [[[0.0], [0.0]]]
    return Preset(
        name="tstar-p1", quiver=q, dims=d, central=c,
        fixed_matrices=(B, i, j), weights=((0,),),
        description="one vertex, two-dimensional framing; cotangent line geometry")


def _a2_star() -> Preset:
    q = Quiver(n=2, edges=((0, 1),))
    d = DimensionVectors(v=(1, 1), w=(2, 0))
    c = CentralParameter(sigma=(1.5, -0.5), c=(0, 0))
    B = [[[0.0]], [[1.0]]]          # oriented slot zero, reversed slot unit
    i = [[[1.0, 1.0]], np.zeros((1, 0))]
    j = [np.zeros((2, 1)), np.zeros((0, 1))]
    return Preset(
        name="a2-star", quiver=q, dims=d, central=c,
        fixed_matrices=(B, i, j), weights=((0,), (1,)),
        description="two vertices joined by one edge, framing at the source")


def _a3_star() -> Preset:
    q = Quiver(n=3, edges=((0, 1), (2, 1)))
    d = DimensionVectors(v=(1, 2, 1), w=(0, 2, 0))
    c = CentralParameter(sigma=(-2.0, 1.0, 0.5), c=(0, 0, 0))
    s = math.sqrt(2.0)
    B = [
        [[0.0], [2.0]],             # edge 0 oriented: V_0 -> V_1
        np.zeros((2, 1)),           # edge 1 oriented: V_2 -> V_1
        np.zeros((1, 2)),           # edge 0 reversed: V_1 -> V_0
        [[0.0, 1.0]],               # edge 1 reversed: V_1 -> V_2
    ]
    i = [np.zeros((1, 0)), [[s, 0.0], [0.0, 0.0]], np.zeros((1, 0))]
    j = [np.zeros((0, 1)), [[0.0, 0.0], [0.0, 1.0]], np.zeros((0, 1))]
    return Preset(
        name="a3-star", quiver=q, dims=d, central=c,
        fixed_matrices=(B, i, j), weights=((1,), (0, 1), (0,)),
        description="three-vertex chain with a rank-two middle space; "
                    "mixes weight blocks at one vertex")


def _kronecker2() -> Preset:
    q = Quiver(n=2, edges=((0, 1), (0, 1)))
    d = DimensionVectors(v=(1, 1), w=(1, 0))
    c = CentralParameter(sigma=(1.5, -1.0), c=(0, 0))
    B = [[[0.0]], [[0.0]], [[1.0]], [[1.0]]]
    i = [[[1.0]], np.zeros((1, 0))]
    j = [np.zeros((1, 1)), np.zeros((0, 1))]
    return Preset(
        name="kronecker2", quiver=q, dims=d, central=c,
        fixed_matrices=(B, i, j), weights=((0,), (1,)),
        description="doubled arrow between two vertices; loop invariants of "
                    "length four survive the limit")


def _a2_wall() -> Preset:
    q = Quiver(n=2, edges=((0, 1),))
    d = DimensionVectors(v=(1, 1), w=(1, 1))
    c = CentralParameter(sigma=(1.0, -1.0), c=(0, 0))
    return Preset(
        name="a2-wall", quiver=q, dims=d, central=c,
        fixed_matrices=None, weights=None,
        description="deliberately non-generic central parameter: the root "
                    "(1,1) pairs to zero")


_BUILDERS = {
    "tstar-p1": _tstar_p1,
    "a2-star": _a2_star,
    "a3-star": _a3_star,
    "kronecker2": _kronecker2,
    "a2-wall": _a2_wall,
}

PRESET_NAMES = tuple(_BUILDERS)


def get_preset(name: str) -> Preset:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choose from {PRESET_NAMES}") from None


def resolve_quiver_spec(spec: str):
    """Preset name or quiver JSON path -> (quiver, dims, central, preset|None)."""
    if spec in PRESET_NAMES:
        p = get_preset(spec)
        return p.quiver, p.dims, p.central, p
    q, dims, zeta = load_quiver_file(spec)
    return q, dims, zeta, None
