"""Linear-algebra core on the doubled representation space.

A point holds one complex matrix per doubled edge (B), one framing-in map per
vertex (i: W_k -> V_k) and one framing-out map per vertex (j: V_k -> W_k).
Moment maps, the complex symplectic form, the hermitian metric, gauge and
infinitesimal actions, and the adjoint of the infinitesimal action live here.

Conventions:
  mu_R(p)_k = (i/2) (sum_{h in H, in(h)=k} B_h B_h^dag - B_hbar^dag B_hbar
                     + i_k i_k^dag - j_k^dag j_k)           (skew-hermitian)
  mu_C(p)_k = sum_{h in H, in(h)=k} eps(h) B_h B_hbar + i_k j_k
with the framing terms counted once per vertex.  The metric is sesquilinear,
linear in its first slot.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .quiver import DimensionVectors, Quiver

_CPLX = np.complex128


def _as_matrix(a, rows: int, cols: int, name: str, index: int) -> np.ndarray:
    m = np.asarray(a, dtype=_CPLX)
    if m.shape != (rows, cols):
        raise ValueError(f"{name}[{index}] must have shape ({rows},{cols}), got {m.shape}")
    return m


@dataclass
class RepPoint:
    """One point of the doubled representation space (with increments reusing
    the same container).  B is indexed by the doubled edge set; i and j by
    vertex.  ``slots`` lists the matrices in the flat order of the layout."""

    quiver: Quiver
    dims: DimensionVectors
    B: list[np.ndarray] = field(default_factory=list)
    i: list[np.ndarray] = field(default_factory=list)
    j: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        shapes = layout(self.quiver, self.dims).shapes
        nh, n = self.quiver.num_h, self.quiver.n
        if not self.B and not self.i and not self.j:
            self.B = [np.zeros(s, dtype=_CPLX) for s in shapes[:nh]]
            self.i = [np.zeros(s, dtype=_CPLX) for s in shapes[nh:nh + n]]
            self.j = [np.zeros(s, dtype=_CPLX) for s in shapes[nh + n:]]
            return
        if (len(self.B), len(self.i), len(self.j)) != (nh, n, n):
            raise ValueError(f"a point needs {nh} B, {n} i and {n} j matrices, got "
                             f"{len(self.B)}, {len(self.i)} and {len(self.j)}")
        self.B = [_as_matrix(m, *shapes[h], "B", h) for h, m in enumerate(self.B)]
        self.i = [_as_matrix(m, *shapes[nh + k], "i", k) for k, m in enumerate(self.i)]
        self.j = [_as_matrix(m, *shapes[nh + n + k], "j", k) for k, m in enumerate(self.j)]

    @classmethod
    def zeros(cls, quiver: Quiver, dims: DimensionVectors) -> "RepPoint":
        return cls(quiver=quiver, dims=dims)

    @classmethod
    def from_slots(cls, quiver: Quiver, dims: DimensionVectors, slots) -> "RepPoint":
        """The point with the given matrices in slot order (B, then i, then j)."""
        nh, n = quiver.num_h, quiver.n
        return cls(quiver, dims, slots[:nh], slots[nh:nh + n], slots[nh + n:])

    @property
    def slots(self) -> list[np.ndarray]:
        return self.B + self.i + self.j

    def copy(self) -> "RepPoint":
        return RepPoint.from_slots(self.quiver, self.dims, [m.copy() for m in self.slots])

    def _zip(self, other: "RepPoint", op) -> "RepPoint":
        if other.quiver != self.quiver or other.dims != self.dims:
            raise ValueError("rep points live on different quivers")
        return RepPoint.from_slots(self.quiver, self.dims,
                                   [op(a, b) for a, b in zip(self.slots, other.slots)])

    def __add__(self, other: "RepPoint") -> "RepPoint":
        return self._zip(other, np.add)

    def __sub__(self, other: "RepPoint") -> "RepPoint":
        return self._zip(other, np.subtract)

    def __mul__(self, scalar) -> "RepPoint":
        s = _CPLX(scalar)
        return RepPoint.from_slots(self.quiver, self.dims, [s * m for m in self.slots])

    __rmul__ = __mul__

    def __neg__(self) -> "RepPoint":
        return self * (-1.0)

    def norm(self) -> float:
        return float(np.sqrt(max(metric(self, self).real, 0.0)))

    def flatten(self) -> np.ndarray:
        return np.concatenate([m.ravel() for m in self.slots])

    @classmethod
    def from_flat(cls, quiver: Quiver, dims: DimensionVectors, vec: np.ndarray) -> "RepPoint":
        lay = layout(quiver, dims)
        if vec.size != lay.rep_dim:
            raise ValueError("flat vector length does not match the representation space")
        return cls.from_slots(quiver, dims, [vec[a:a + r * c].reshape(r, c).astype(_CPLX)
                                             for a, (r, c) in zip(lay.starts, lay.shapes)])

    def to_dict(self) -> dict:
        return {
            "B": [_matrix_pairs(b) for b in self.B],
            "i": [_matrix_pairs(m) for m in self.i],
            "j": [_matrix_pairs(m) for m in self.j],
        }


def _matrix_pairs(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def rep_dim(quiver: Quiver, dims: DimensionVectors) -> int:
    """Complex dimension of the doubled representation space."""
    return layout(quiver, dims).rep_dim


@dataclass
class LieElement:
    """Tuple of square blocks, one per vertex."""

    dims: DimensionVectors
    blocks: list[np.ndarray]

    def __post_init__(self):
        self.blocks = [_as_matrix(self.blocks[k], self.dims.v[k], self.dims.v[k], "xi", k)
                       for k in range(self.dims.n)]

    @classmethod
    def zeros(cls, dims: DimensionVectors) -> "LieElement":
        return cls(dims, [np.zeros((vk, vk), dtype=_CPLX) for vk in dims.v])

    def copy(self) -> "LieElement":
        return LieElement(self.dims, [b.copy() for b in self.blocks])

    def __add__(self, other: "LieElement") -> "LieElement":
        return LieElement(self.dims, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "LieElement") -> "LieElement":
        return LieElement(self.dims, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __mul__(self, scalar) -> "LieElement":
        s = _CPLX(scalar)
        return LieElement(self.dims, [s * b for b in self.blocks])

    __rmul__ = __mul__

    def __neg__(self) -> "LieElement":
        return LieElement(self.dims, [-b for b in self.blocks])

    def dagger(self) -> "LieElement":
        return LieElement(self.dims, [b.conj().T for b in self.blocks])

    def norm(self) -> float:
        return float(np.sqrt(sum(np.vdot(b, b).real for b in self.blocks)))

    def flatten(self) -> np.ndarray:
        """Blocks in vertex order, each row-major (the gauge flat layout)."""
        if not self.blocks:
            return np.zeros(0, dtype=_CPLX)
        return np.concatenate([b.ravel() for b in self.blocks])

    @classmethod
    def from_flat(cls, dims: DimensionVectors, vec: np.ndarray) -> "LieElement":
        starts = _starts([vk * vk for vk in dims.v])
        return cls(dims, [vec[a:a + vk * vk].reshape(vk, vk).astype(_CPLX)
                          for a, vk in zip(starts, dims.v)])


def lie_inner(a: LieElement, b: LieElement) -> complex:
    """Hermitian pairing sum_k Tr(a_k b_k^dag), linear in the first slot."""
    return complex(sum(np.vdot(bk, ak) for ak, bk in zip(a.blocks, b.blocks)))


def zeta_real_lie(sigma, dims: DimensionVectors) -> LieElement:
    """zeta_R as a skew-hermitian element: i sigma_k Id per vertex."""
    sig = np.asarray(sigma, dtype=float)
    return LieElement(dims, [1j * sig[k] * np.eye(dims.v[k], dtype=_CPLX)
                             for k in range(dims.n)])


def central_lie(values, dims: DimensionVectors) -> LieElement:
    vals = np.asarray(values, dtype=_CPLX)
    return LieElement(dims, [vals[k] * np.eye(dims.v[k], dtype=_CPLX)
                             for k in range(dims.n)])


def central_deviation(x: LieElement) -> float:
    """How far each block is from a scalar matrix, max over vertices."""
    dev = 0.0
    for b in x.blocks:
        if b.shape[0] == 0:
            continue
        scal = np.trace(b) / b.shape[0]
        dev = max(dev, float(np.abs(b - scal * np.eye(b.shape[0])).max(initial=0.0)))
    return dev


@dataclass
class GaugeElement:
    """Invertible blocks per vertex acting by g.p = (g_in B g_out^-1, g i, j g^-1)."""

    dims: DimensionVectors
    g: list[np.ndarray]

    def __post_init__(self):
        self.g = [_as_matrix(self.g[k], self.dims.v[k], self.dims.v[k], "g", k)
                  for k in range(self.dims.n)]

    @classmethod
    def identity(cls, dims: DimensionVectors) -> "GaugeElement":
        return cls(dims, [np.eye(vk, dtype=_CPLX) for vk in dims.v])

    def inverse(self) -> "GaugeElement":
        return GaugeElement(self.dims, [np.linalg.inv(gk) for gk in self.g])

    def compose(self, other: "GaugeElement") -> "GaugeElement":
        """self after other (matrix product blockwise)."""
        return GaugeElement(self.dims, [a @ b for a, b in zip(self.g, other.g)])

    def cond(self) -> float:
        c = 1.0
        for gk in self.g:
            if gk.shape[0] > 0:
                c = max(c, float(np.linalg.cond(gk)))
        return c


def lie_exp(xi: LieElement) -> GaugeElement:
    """Blockwise matrix exponential (scaling-and-squaring Pade)."""
    return GaugeElement(xi.dims, [scipy.linalg.expm(b) if b.size else b.copy()
                                  for b in xi.blocks])


def conjugate_slots(p: RepPoint, left: list[np.ndarray],
                    right: list[np.ndarray]) -> RepPoint:
    """The point ``FlatLayout.conjugate`` makes of p's slots."""
    return RepPoint.from_slots(p.quiver, p.dims,
                               layout(p.quiver, p.dims).conjugate(p.slots, left, right))


def gauge_act(g: GaugeElement, p: RepPoint) -> RepPoint:
    ginv = [np.linalg.inv(gk) if gk.size else gk.copy() for gk in g.g]
    return conjugate_slots(p, g.g, ginv)


def inf_action(p: RepPoint, xi: LieElement) -> RepPoint:
    """Derivative of the gauge action at the identity, in direction xi."""
    x = xi.blocks
    out = []
    for m, (r, c) in zip(p.slots, layout(p.quiver, p.dims).spaces):
        if r < 0:
            out.append(-m @ x[c])
        elif c < 0:
            out.append(x[r] @ m)
        else:
            out.append(x[r] @ m - m @ x[c])
    return RepPoint.from_slots(p.quiver, p.dims, out)


def _zero_blocks(dims: DimensionVectors) -> list[np.ndarray]:
    return [np.zeros((vk, vk), dtype=_CPLX) for vk in dims.v]


def inf_action_adjoint(p: RepPoint, incr: RepPoint) -> LieElement:
    """Adjoint of inf_action(p, .) for the metric pairings:
    <inf_action(p, xi), q> = <xi, inf_action_adjoint(p, q)>."""
    s, d, acc = p.slots, incr.slots, _zero_blocks(p.dims)
    for k, pairs in enumerate(layout(p.quiver, p.dims).products):
        for x, y, _ in pairs:
            acc[k] += d[x] @ s[x].conj().T - s[y].conj().T @ d[y]
    return LieElement(p.dims, acc)


def metric(p: RepPoint, q: RepPoint) -> complex:
    """Hermitian metric, linear in p: sum Tr(B B'^dag) + Tr(i i'^dag) + Tr(j'^dag j)."""
    acc = 0.0 + 0.0j
    for a, b in zip(p.slots, q.slots):
        acc += np.vdot(b, a)
    return complex(acc)


def symplectic_form(p: RepPoint, q: RepPoint) -> complex:
    """Complex-bilinear form sum_h Tr(eps(h) B_h B'_hbar) + sum_k Tr(i_k j'_k - i'_k j_k)."""
    lay, t = layout(p.quiver, p.dims), q.slots
    acc = 0.0 + 0.0j
    for h, b in enumerate(p.B):
        acc += (-1 if lay.degree[h] else 1) * np.trace(b @ t[lay.partner[h]])
    for k in range(p.quiver.n):
        acc += np.trace(p.i[k] @ q.j[k]) - np.trace(q.i[k] @ p.j[k])
    return complex(acc)


def moment_real(p: RepPoint) -> LieElement:
    s, acc = p.slots, _zero_blocks(p.dims)
    for k, pairs in enumerate(layout(p.quiver, p.dims).products):
        for x, y, _ in pairs:
            acc[k] += s[x] @ s[x].conj().T - s[y].conj().T @ s[y]
    return LieElement(p.dims, [0.5j * a for a in acc])


def moment_complex(p: RepPoint) -> LieElement:
    s, acc = p.slots, _zero_blocks(p.dims)
    for k, pairs in enumerate(layout(p.quiver, p.dims).products):
        for x, y, sign in pairs:
            acc[k] += sign * (s[x] @ s[y])
    return LieElement(p.dims, acc)


def dmu_complex(p: RepPoint, incr: RepPoint) -> LieElement:
    """Derivative of mu_C at p in direction incr; exact since mu_C is quadratic:
    mu_C(p + q) = mu_C(p) + dmu_complex(p, q) + mu_C(q)."""
    s, d, acc = p.slots, incr.slots, _zero_blocks(p.dims)
    for k, pairs in enumerate(layout(p.quiver, p.dims).products):
        for x, y, sign in pairs:
            acc[k] += sign * (s[x] @ d[y] + d[x] @ s[y])
    return LieElement(p.dims, acc)


def dmoment_real_scaled(p: RepPoint, incr: RepPoint) -> LieElement:
    """Derivative of -2i mu_R (the hermitian form of mu_R) at p in direction incr."""
    s, d, acc = p.slots, incr.slots, _zero_blocks(p.dims)
    for k, pairs in enumerate(layout(p.quiver, p.dims).products):
        for x, y, _ in pairs:
            acc[k] += d[x] @ s[x].conj().T + s[x] @ d[x].conj().T
            acc[k] -= d[y].conj().T @ s[y] + s[y].conj().T @ d[y]
    return LieElement(p.dims, acc)


def hermitian_residual(p: RepPoint, sigma) -> LieElement:
    """-2i (mu_R(p) - zeta_R(sigma)) as a hermitian element; zero iff on target."""
    sig = np.asarray(sigma, dtype=float)
    mr = moment_real(p)
    blocks = [-2j * mr.blocks[k] - 2.0 * sig[k] * np.eye(p.dims.v[k], dtype=_CPLX)
              for k in range(p.quiver.n)]
    return LieElement(p.dims, blocks)


# -- operator layer ---------------------------------------------------------

def _starts(sizes) -> tuple[int, ...]:
    """Offsets of consecutive blocks of the given sizes in one flat vector."""
    return tuple(int(x) for x in np.cumsum([0, *sizes])[:-1])


class FlatLayout:
    """Flat coordinates of one (quiver, dims) pair and the operators on them.

    A point flattens slot by slot (B by doubled edge, then i, then j by
    vertex) and a gauge-algebra element block by block, all row-major.  The
    per-slot table below is the one place that reads the quiver's doubled
    edge structure; every slot-wise map works on it.  The matrices of
    xi -> inf_action(p, xi) and q -> dmu_complex(p, q) are linear in p with
    every entry +1 or -1 times one entry of p.flatten(), so each is a scatter
    of that vector through index tables computed once here.  Get layouts
    from ``layout``, which caches one per pair; treat them as frozen.

    Per-slot table, indexed like ``RepPoint.slots``:
      spaces    (row space, column space); V_k is written k >= 0 (it has a
                gauge block) and W_k is written ~k < 0
      degree    scaling degree: 1 on reversed edges and j maps, else 0
      partner   symplectic partner: h <-> hbar, i_k <-> j_k
    and per vertex k, ``products[k]`` lists the (x slot, y slot, sign) pairs
    of mu_C(p)_k = sum sign X Y: B_h B_hbar over the edges h into k in
    ascending order with sign eps(h), then i_k j_k.  ``token_slot`` maps the
    path tokens h{e}, h{e}~, c{k} and j{k} to their slots.
    """

    def __init__(self, quiver: Quiver, dims: DimensionVectors):
        dims.check_quiver(quiver)
        self.quiver, self.dims = quiver, dims
        q, nh, n = quiver, quiver.num_h, quiver.n
        self.spaces = tuple([(q.h_in(h), q.h_out(h)) for h in range(nh)]
                            + [(k, ~k) for k in range(n)] + [(~k, k) for k in range(n)])
        self.degree = tuple([int(q.h_eps(h) < 0) for h in range(nh)] + [0] * n + [1] * n)
        self.partner = tuple([q.h_bar(h) for h in range(nh)]
                             + [nh + n + k for k in range(n)] + [nh + k for k in range(n)])
        self.products = tuple(tuple((h, q.h_bar(h), q.h_eps(h)) for h in q.h_into(k))
                              + ((nh + k, nh + n + k, 1),) for k in range(n))
        e_range, k_range = range(q.num_edges), range(n)
        self.token_slot = {tok: s for s, tok in enumerate(
            [f"h{e}" for e in e_range] + [f"h{e}~" for e in e_range]
            + [f"c{k}" for k in k_range] + [f"j{k}" for k in k_range])}
        self.shapes = tuple((dims.v[r] if r >= 0 else dims.w[~r],
                             dims.v[c] if c >= 0 else dims.w[~c]) for r, c in self.spaces)
        self.starts = _starts([r * c for r, c in self.shapes])
        self.rep_dim = sum(r * c for r, c in self.shapes)
        self.lie_starts = _starts([vk * vk for vk in dims.v])
        self.lie_dim = sum(vk * vk for vk in dims.v)
        self.herm = self._hermitian_basis()
        self._action = self._action_table()
        self._dmu = self._dmu_table()

    def _hermitian_basis(self) -> np.ndarray:
        """Columns: the real-orthonormal basis of hermitian tuples under
        Re Tr(a b^dag); per vertex the diagonal units, then for each a < b
        the real symmetric and the imaginary antisymmetric pair."""
        h = np.zeros((self.lie_dim, self.lie_dim), dtype=_CPLX)
        s = 1.0 / np.sqrt(2.0)
        col = 0
        for start, vk in zip(self.lie_starts, self.dims.v):
            for a in range(vk):
                h[start + a * vk + a, col] = 1.0
                col += 1
            for a in range(vk):
                for b in range(a + 1, vk):
                    pair = [start + a * vk + b, start + b * vk + a]
                    h[pair, col], h[pair, col + 1] = s, (1j * s, -1j * s)
                    col += 2
        return h

    def _action_table(self):
        """Entries of xi -> xi_r X - X xi_c on each slot X from space c to
        space r; framing spaces carry no gauge block."""
        parts = []
        for (r, c), (nr, nc), start in zip(self.spaces, self.shapes, self.starts):
            if r >= 0:  # + xi_r[a, x] X[x, b]
                a, x, b = np.indices((nr, nr, nc)).reshape(3, -1)
                parts.append((start + a * nc + b, self.lie_starts[r] + a * nr + x,
                              start + x * nc + b, 1.0))
            if c >= 0:  # - X[a, x] xi_c[x, b]
                a, b, x = np.indices((nr, nc, nc)).reshape(3, -1)
                parts.append((start + a * nc + b, self.lie_starts[c] + x * nc + b,
                              start + a * nc + x, -1.0))
        return self._table(parts, self.lie_dim)

    def _dmu_table(self):
        """Entries of q -> dmu_complex(p, q), the sum of X qY + qX Y over the
        signed slot pairs X Y of ``products``."""
        parts = []
        for k, pairs in enumerate(self.products):
            vk = self.dims.v[k]
            for x_slot, y_slot, sign in pairs:
                inner = self.shapes[x_slot][1]
                sx, sy = self.starts[x_slot], self.starts[y_slot]
                a, b, x = np.indices((vk, vk, inner)).reshape(3, -1)
                row = self.lie_starts[k] + a * vk + b
                parts.append((row, sy + x * vk + b, sx + a * inner + x, float(sign)))  # X qY
                parts.append((row, sx + a * inner + x, sy + x * vk + b, float(sign)))  # qX Y
        return self._table(parts, self.rep_dim)

    @staticmethod
    def _table(parts, ncols: int):
        """(flat matrix index, source index into p.flatten(), sign) arrays."""
        return (np.concatenate([row * ncols + col for row, col, _, _ in parts]),
                np.concatenate([src for _, _, src, _ in parts]),
                np.concatenate([np.full(src.size, sg) for _, _, src, sg in parts]))

    @staticmethod
    def _scatter(table, shape: tuple[int, int], flat: np.ndarray) -> np.ndarray:
        idx, src, sign = table
        m = np.zeros(shape[0] * shape[1], dtype=_CPLX)
        m[idx] = sign * flat[src]
        return m.reshape(shape)

    def action_matrix(self, p: RepPoint) -> np.ndarray:
        """Matrix of xi -> inf_action(p, xi) on flat coordinates."""
        return self._scatter(self._action, (self.rep_dim, self.lie_dim), p.flatten())

    def dmu_matrix(self, p: RepPoint) -> np.ndarray:
        """Matrix of q -> dmu_complex(p, q) on flat coordinates."""
        return self._scatter(self._dmu, (self.lie_dim, self.rep_dim), p.flatten())

    def hermitian_action_matrix(self, flat: np.ndarray) -> np.ndarray:
        """Real matrix of the action on hermitian coordinates at the point
        ``flat``: the real parts of the image stacked over the imaginary."""
        a = self._scatter(self._action, (self.rep_dim, self.lie_dim), flat) @ self.herm
        return np.concatenate([a.real, a.imag])

    def herm_coords(self, x: LieElement) -> np.ndarray:
        """Coordinates of a hermitian tuple in the basis ``herm``."""
        return (self.herm.conj().T @ x.flatten()).real

    def herm_element(self, coeffs: np.ndarray) -> LieElement:
        """The hermitian tuple with the given coordinates."""
        return LieElement.from_flat(self.dims, self.herm @ coeffs)

    def conjugate(self, slots: list[np.ndarray], left: list[np.ndarray],
                  right: list[np.ndarray]) -> list[np.ndarray]:
        """left[r] @ X @ right[c] on every slot X from space c to space r, with
        one left and one right block per vertex and no factor on a framing side."""
        out = []
        for m, (r, c) in zip(slots, self.spaces):
            if r >= 0:
                m = left[r] @ m
            if c >= 0:
                m = m @ right[c]
            out.append(m)
        return out

    def gauge_matrix(self, left: list[np.ndarray], right: list[np.ndarray]) -> np.ndarray:
        """Matrix of p -> (left_in B right_out, left_k i_k, j_k right_k) for
        one left and one right block per vertex; block diagonal over slots."""
        m = np.zeros((self.rep_dim, self.rep_dim), dtype=_CPLX)
        for (r, c), (nr, nc), start in zip(self.spaces, self.shapes, self.starts):
            lm = left[r] if r >= 0 else np.eye(nr)
            rm = right[c] if c >= 0 else np.eye(nc)
            m[start:start + nr * nc, start:start + nr * nc] = np.kron(lm, rm.T)
        return m


@functools.lru_cache(maxsize=128)
def layout(quiver: Quiver, dims: DimensionVectors) -> FlatLayout:
    """The flat layout of (quiver, dims), built once per pair."""
    return FlatLayout(quiver, dims)
