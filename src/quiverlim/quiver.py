"""Quiver combinatorics.

A quiver is a finite loop-free multigraph with a chosen orientation Omega.
The doubled edge set H carries one reversed copy of every oriented edge;
edges of H are indexed 0..2E-1 with index e+E the reversal of index e < E.
Dimension vectors attach vector spaces V_k (gauged) and W_k (framing) to the
vertices.  Central parameters (sigma, c) select the moment-map level; the
genericity test walks the bounded root box of the Cartan form.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

import numpy as np

from .config import WALL_TOL
from .errors import EmptyVariety, OnWall


@dataclass(frozen=True)
class Quiver:
    """Oriented loop-free multigraph on vertices 0..n-1.

    edges lists the chosen orientation Omega as (out, in) pairs; the doubled
    set H is addressed through h_out / h_in / h_eps / h_bar, where indices
    below num_edges are Omega and the rest are the reversed copies.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("quiver needs at least one vertex")
        edges = tuple((int(a), int(b)) for a, b in self.edges)
        object.__setattr__(self, "edges", edges)
        for a, b in edges:
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"edge ({a},{b}) leaves vertex range 0..{self.n - 1}")
            if a == b:
                raise ValueError(f"loop edge at vertex {a} is not allowed")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_h(self) -> int:
        return 2 * len(self.edges)

    def h_out(self, h: int) -> int:
        e = self.num_edges
        return self.edges[h][0] if h < e else self.edges[h - e][1]

    def h_in(self, h: int) -> int:
        e = self.num_edges
        return self.edges[h][1] if h < e else self.edges[h - e][0]

    def h_eps(self, h: int) -> int:
        return 1 if h < self.num_edges else -1

    def h_bar(self, h: int) -> int:
        return (h + self.num_edges) % self.num_h

    def h_into(self, k: int) -> tuple[int, ...]:
        return tuple(h for h in range(self.num_h) if self.h_in(h) == k)

    def adjacency_count(self) -> np.ndarray:
        """Symmetric matrix counting edges between vertex pairs, either orientation."""
        a = np.zeros((self.n, self.n), dtype=int)
        for out, inn in self.edges:
            a[out, inn] += 1
            a[inn, out] += 1
        return a

    def to_dict(self) -> dict:
        return {"vertices": self.n, "edges": [list(e) for e in self.edges]}


@dataclass(frozen=True)
class DimensionVectors:
    """Gauged dimensions v and framing dimensions w, one entry per vertex."""

    v: tuple[int, ...]
    w: tuple[int, ...]

    def __post_init__(self):
        v = tuple(int(x) for x in self.v)
        w = tuple(int(x) for x in self.w)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        if len(v) != len(w):
            raise ValueError("v and w must have the same length")
        if any(x < 0 for x in v + w):
            raise ValueError("dimensions must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.v)

    def check_quiver(self, quiver: Quiver) -> None:
        if self.n != quiver.n:
            raise ValueError("dimension vectors do not match the vertex count")


def _is_exact(x) -> bool:
    return isinstance(x, (Integral, Fraction))


@dataclass(frozen=True)
class CentralParameter:
    """Moment-map level: zeta_R,k = i sigma_k Id and zeta_C,k = c_k Id.

    sigma entries may be ints, Fractions, or floats; c entries may be the
    same, or complex, or (re, im) pairs.  Exact rational wall arithmetic is
    used when every entry is exact.
    """

    sigma: tuple
    c: tuple

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(self.sigma))
        object.__setattr__(self, "c", tuple(self.c))
        if len(self.sigma) != len(self.c):
            raise ValueError("sigma and c must have the same length")

    @property
    def n(self) -> int:
        return len(self.sigma)

    def c_pair(self, k: int):
        """(re, im) of c_k, preserving exact types where given."""
        x = self.c[k]
        if isinstance(x, (tuple, list)):
            re, im = x
            return re, im
        if isinstance(x, complex):
            return x.real, x.imag
        return x, 0

    def sigma_array(self) -> np.ndarray:
        return np.array([float(s) for s in self.sigma], dtype=float)

    def c_array(self) -> np.ndarray:
        return np.array([complex(float(re), float(im))
                         for re, im in (self.c_pair(k) for k in range(self.n))])

    def is_exact(self) -> bool:
        if not all(_is_exact(s) for s in self.sigma):
            return False
        return all(_is_exact(re) and _is_exact(im)
                   for re, im in (self.c_pair(k) for k in range(self.n)))


def cartan_matrix(quiver: Quiver) -> np.ndarray:
    """2*Id minus the undirected adjacency count matrix."""
    return 2 * np.eye(quiver.n, dtype=int) - quiver.adjacency_count()


def expected_dimension(quiver: Quiver, dims: DimensionVectors) -> int:
    """Real dimension 2 v.(2w - Cv) of the variety at a generic level."""
    dims.check_quiver(quiver)
    c = cartan_matrix(quiver)
    v = np.array(dims.v, dtype=int)
    w = np.array(dims.w, dtype=int)
    return int(2 * v @ (2 * w - c @ v))


def require_nonempty(quiver: Quiver, dims: DimensionVectors) -> None:
    """Refuse dimension vectors whose variety is empty (negative expected
    dimension) before any sampling is attempted."""
    dim = expected_dimension(quiver, dims)
    if dim < 0:
        raise EmptyVariety(
            f"expected dimension {dim} is negative, so the variety is empty "
            f"(v={list(dims.v)}, w={list(dims.w)})")


def positive_roots_bounded(quiver: Quiver, dims: DimensionVectors) -> tuple[tuple[int, ...], ...]:
    """Nonzero theta in the box 0 <= theta <= v with theta^T C theta <= 2."""
    dims.check_quiver(quiver)
    c = cartan_matrix(quiver)
    roots = []
    for theta in itertools.product(*(range(vk + 1) for vk in dims.v)):
        if not any(theta):
            continue
        t = np.array(theta, dtype=int)
        if int(t @ c @ t) <= 2:
            roots.append(theta)
    return tuple(sorted(roots))


def wall_margins(zeta: CentralParameter, quiver: Quiver, dims: DimensionVectors):
    """Per bounded root theta: (theta, |sigma.theta| + |c.theta|, exact_on_wall).

    exact_on_wall is None when the parameter has inexact entries.
    """
    if zeta.n != quiver.n:
        raise ValueError("central parameter does not match the vertex count")
    exact = zeta.is_exact()
    sig = zeta.sigma_array()
    cc = zeta.c_array()
    out = []
    for theta in positive_roots_bounded(quiver, dims):
        t = np.array(theta, dtype=float)
        margin = abs(float(sig @ t)) + abs(complex(cc @ t))
        on_wall = None
        if exact:
            s_dot = sum(Fraction(zeta.sigma[k]) * theta[k] for k in range(zeta.n))
            re_dot = sum(Fraction(zeta.c_pair(k)[0]) * theta[k] for k in range(zeta.n))
            im_dot = sum(Fraction(zeta.c_pair(k)[1]) * theta[k] for k in range(zeta.n))
            on_wall = (s_dot == 0 and re_dot == 0 and im_dot == 0)
        out.append((theta, margin, on_wall))
    return out


def walls(zeta: CentralParameter, quiver: Quiver, dims: DimensionVectors):
    """(theta, margin) for every bounded root whose wall holds the parameter:
    exactly when all entries are exact, else within WALL_TOL."""
    return [(theta, margin) for theta, margin, on_wall
            in wall_margins(zeta, quiver, dims)
            if on_wall is True or (on_wall is None and margin <= WALL_TOL)]


def is_generic(zeta: CentralParameter, quiver: Quiver, dims: DimensionVectors) -> bool:
    """True when (sigma.theta, Re c.theta, Im c.theta) != 0 for every bounded root."""
    return not walls(zeta, quiver, dims)


def require_generic(zeta: CentralParameter, quiver: Quiver,
                    dims: DimensionVectors) -> None:
    """Refuse a central parameter that lies on a wall, naming each wall as
    the check command prints it."""
    on_walls = walls(zeta, quiver, dims)
    if on_walls:
        raise OnWall("central parameter is not generic: " + "; ".join(
            f"wall at root theta={list(theta)} (margin {margin:.3e})"
            for theta, margin in on_walls))


def quiver_to_dict(quiver: Quiver, dims: DimensionVectors, zeta: CentralParameter) -> dict:
    return {
        "vertices": quiver.n,
        "edges": [list(e) for e in quiver.edges],
        "v": list(dims.v),
        "w": list(dims.w),
        "sigma": [float(s) for s in zeta.sigma],
        "c": [[float(zeta.c_pair(k)[0]), float(zeta.c_pair(k)[1])] for k in range(zeta.n)],
    }


def quiver_from_dict(data: dict) -> tuple[Quiver, DimensionVectors, CentralParameter]:
    try:
        q = Quiver(n=int(data["vertices"]),
                   edges=tuple((int(a), int(b)) for a, b in data["edges"]))
        dims = DimensionVectors(v=tuple(data["v"]), w=tuple(data["w"]))
        c_raw = data.get("c", [[0.0, 0.0]] * q.n)
        c = tuple((entry[0], entry[1]) if isinstance(entry, (list, tuple)) else entry
                  for entry in c_raw)
        zeta = CentralParameter(sigma=tuple(data["sigma"]), c=c)
    except KeyError as exc:
        raise ValueError(f"quiver file is missing field {exc}") from exc
    dims.check_quiver(q)
    if zeta.n != q.n:
        raise ValueError("sigma/c length does not match the vertex count")
    return q, dims, zeta


def load_quiver_file(path: str) -> tuple[Quiver, DimensionVectors, CentralParameter]:
    with open(path, "r", encoding="utf-8") as fh:
        return quiver_from_dict(json.load(fh))
