"""Quiver combinatorics.

A quiver is a finite loop-free multigraph with a chosen orientation Omega.
The doubled edge set H carries one reversed copy of every oriented edge;
edges of H are indexed 0..2E-1 with index e+E the reversal of index e < E.
Dimension vectors attach vector spaces V_k (gauged) and W_k (framing) to the
vertices.  Central parameters (sigma, c) select the moment-map level; the
genericity test walks the bounded root box of the Cartan form.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

import numpy as np

from .config import WALL_TOL, check_number
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
        object.__setattr__(self, "n", int(check_number("vertices", self.n, Integral)))
        if self.n < 1:
            raise ValueError("quiver needs at least one vertex")
        if any(not isinstance(e, (tuple, list)) or len(e) != 2 for e in self.edges):
            raise ValueError(f"edges: each edge must be an (out, in) pair, got {self.edges!r}")
        edges = tuple(tuple(int(check_number("edges", x, Integral)) for x in e) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        for a, b in edges:
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"edge ({a},{b}) leaves vertex range 0..{self.n - 1}")
            if a == b:
                raise ValueError(f"loop edge at vertex {a} is not allowed")
        # hashed once: ``repspace.layout`` looks every quiver up by hash
        object.__setattr__(self, "_hash", hash((self.n, edges)))

    def __hash__(self) -> int:
        return self._hash

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


@dataclass(frozen=True)
class DimensionVectors:
    """Gauged dimensions v and framing dimensions w, one entry per vertex."""

    v: tuple[int, ...]
    w: tuple[int, ...]

    def __post_init__(self):
        v = tuple(int(check_number("v", x, Integral)) for x in self.v)
        w = tuple(int(check_number("w", x, Integral)) for x in self.w)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        if len(v) != len(w):
            raise ValueError("v and w must have the same length")
        if any(x < 0 for x in v + w):
            raise ValueError("dimensions must be nonnegative")
        object.__setattr__(self, "_hash", hash((v, w)))

    def __hash__(self) -> int:
        return self._hash

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
    same, or complex, or (re, im) pairs.  Every entry must be finite.  Exact
    rational wall arithmetic is used when every entry is exact.
    """

    sigma: tuple
    c: tuple

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(check_number("sigma", s) for s in self.sigma))
        # (re, im) pairs as tuples, so that the parameter hashes (see walls)
        object.__setattr__(self, "c", tuple(tuple(x) if isinstance(x, list) else x
                                            for x in self.c))
        for k, x in enumerate(self.c):
            if isinstance(x, (tuple, list)) and len(x) != 2:
                raise ValueError(f"c: {x!r} is not a number or an [re, im] pair")
            for part in self.c_pair(k):
                check_number("c", part)
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


@functools.lru_cache(maxsize=128)
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


def walls(zeta: CentralParameter, quiver: Quiver,
          dims: DimensionVectors) -> tuple[tuple[tuple[int, ...], float], ...]:
    """(theta, margin) for every bounded root whose wall holds the parameter:
    exactly when all entries are exact, else within WALL_TOL.  Computed once
    per parameter, quiver and dimension vectors."""
    return _walls(zeta, zeta.is_exact(), quiver, dims)


@functools.lru_cache(maxsize=128)
def _walls(zeta: CentralParameter, exact: bool, quiver: Quiver, dims: DimensionVectors):
    """walls, cached.  exact is part of the key because a parameter with
    exact entries compares equal to one with the same values as floats,
    while their walls are decided differently."""
    return tuple((theta, margin) for theta, margin, on_wall
                 in wall_margins(zeta, quiver, dims)
                 if on_wall is True or (on_wall is None and margin <= WALL_TOL))


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


def _root_failure(quiver: Quiver, dims: DimensionVectors) -> str | None:
    """Why alpha = (v, 1) is not a root of the framed quiver (framing vertex
    n, joined to vertex k by w_k edges), or None.  Kac's algorithm: while the
    support is connected, reflect at a k with (alpha, e_k) > 0, until an entry
    turns negative (no root) or alpha is simple or fundamental (a root)."""
    n = quiver.n
    cartan = cartan_matrix(Quiver(n + 1, quiver.edges + tuple(
        (k, n) for k, wk in enumerate(dims.w) for _ in range(wk))))
    head = f"(v, 1) is not a root of the framed quiver (framing vertex {n})"
    alpha = np.array(dims.v + (1,))
    while alpha.sum() > 1:
        sup = np.flatnonzero(alpha)
        reach = sup == sup[0]
        for _ in sup:
            reach = reach | (cartan[np.ix_(sup[reach], sup)] < 0).any(axis=0)
        if not reach.all():
            return f"{head}: the support of {alpha.tolist()} is disconnected"
        pair = cartan @ alpha
        k = int(np.argmax(pair))
        if pair[k] <= 0:
            return None
        alpha[k] -= pair[k]
        if alpha[k] < 0:
            return f"{head}: reflecting at vertex {k} makes its entry negative in {alpha.tolist()}"
    return None


def require_nonempty(quiver: Quiver, dims: DimensionVectors,
                     zeta: CentralParameter) -> None:
    """Refuse dimension vectors whose variety is empty, before any sampling:
    a negative expected dimension or, at a generic parameter, (v, 1) not a
    root of the framed quiver (Crawley-Boevey 2001).  On a wall the variety
    can be nonempty for a sum of roots, so only the sign test holds there."""
    dim = expected_dimension(quiver, dims)
    why = (f"expected dimension {dim} is negative" if dim < 0
           else is_generic(zeta, quiver, dims) and _root_failure(quiver, dims))
    if why:
        raise EmptyVariety(f"{why}, so the variety is empty "
                           f"(v={list(dims.v)}, w={list(dims.w)})")


def quiver_to_dict(quiver: Quiver, dims: DimensionVectors, zeta: CentralParameter) -> dict:
    return {
        "vertices": quiver.n,
        "edges": [list(e) for e in quiver.edges],
        "v": list(dims.v),
        "w": list(dims.w),
        "sigma": [float(s) for s in zeta.sigma],
        "c": [[float(zeta.c_pair(k)[0]), float(zeta.c_pair(k)[1])] for k in range(zeta.n)],
    }


def quiver_from_dict(data) -> tuple[Quiver, DimensionVectors, CentralParameter]:
    """The quiver, dimension vectors and central parameter of a quiver file's
    JSON object; ValueError naming the field that is missing or malformed."""
    if not isinstance(data, dict):
        raise ValueError(f"a quiver file holds a JSON object, not a {type(data).__name__}")
    for field in ("vertices", "edges", "v", "w", "sigma"):
        if field not in data:
            raise ValueError(f"quiver file is missing field {field!r}")
    for field in ("edges", "v", "w", "sigma", "c"):
        if not isinstance(data.get(field, []), list):
            raise ValueError(f"{field} must be a list")
    q = Quiver(n=data["vertices"], edges=data["edges"])
    dims = DimensionVectors(v=data["v"], w=data["w"])
    zeta = CentralParameter(sigma=data["sigma"], c=data.get("c", [[0.0, 0.0]] * q.n))
    dims.check_quiver(q)
    if zeta.n != q.n:
        raise ValueError("sigma/c length does not match the vertex count")
    return q, dims, zeta


def load_quiver_file(path: str) -> tuple[Quiver, DimensionVectors, CentralParameter]:
    with open(path, "r", encoding="utf-8") as fh:
        return quiver_from_dict(json.load(fh))
