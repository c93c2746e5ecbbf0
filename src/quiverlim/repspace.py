"""Linear-algebra core on the doubled representation space.

A point holds one complex matrix per doubled edge (B), one framing-in map per
vertex (i: W_k -> V_k) and one framing-out map per vertex (j: V_k -> W_k),
stored as one flat complex vector ``RepPoint.vec`` in the order of its
``FlatLayout``.  ``B``, ``i``, ``j`` and ``slots`` are views of that vector:
``p.B[h] = M`` writes M into it (a wrongly shaped M raises ValueError).  A
gauge-algebra element (LieElement) or gauge element (GaugeElement) holds one
block-diagonal V x V matrix, V = sum v_k, whose vertex blocks are views of it.
Moment maps, the complex symplectic form, the hermitian metric, gauge and
infinitesimal actions, and the adjoint of the infinitesimal action live here,
each a fixed number of numpy calls on the vector or on the layout's stack.

Conventions:
  mu_R(p)_k = (i/2) (sum_{h in H, in(h)=k} B_h B_h^dag - B_hbar^dag B_hbar
                     + i_k i_k^dag - j_k^dag j_k)           (skew-hermitian)
  mu_C(p)_k = sum_{h in H, in(h)=k} eps(h) B_h B_hbar + i_k j_k
with the framing terms counted once per vertex.  The metric is sesquilinear,
linear in its first slot.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .quiver import DimensionVectors, Quiver

_CPLX = np.complex128


def _as_matrix(a, shape: tuple[int, int], name: str, index: int) -> np.ndarray:
    m = np.asarray(a, dtype=_CPLX)
    if m.shape != shape:
        raise ValueError(f"{name}[{index}] must have shape ({shape[0]},{shape[1]}), "
                         f"got {m.shape}")
    return m


class _SlotList(list):
    """Views of one point's vector; assigning an item copies into its view."""

    def __init__(self, name: str, views):
        super().__init__(views)
        self.name = name

    def __setitem__(self, k, m):
        view = self[k]
        view[...] = _as_matrix(m, view.shape, self.name, k)


class RepPoint:
    """One point of the doubled representation space (with increments reusing
    the same container), stored as the flat vector ``vec`` of its layout.  B
    is indexed by the doubled edge set and i and j by vertex; ``slots`` lists
    the matrices in layout order.  All of them are views of ``vec``."""

    def __init__(self, quiver: Quiver, dims: DimensionVectors, B=(), i=(), j=()):
        self.quiver, self.dims = quiver, dims
        self.layout = layout(quiver, dims)
        self.vec = np.zeros(self.layout.rep_dim, dtype=_CPLX)
        self._views, self._given = None, (B, i, j)
        self.__post_init__()

    def __post_init__(self):
        """Copy the matrices given to the constructor into ``vec``, checking
        count and shapes; O(1) for a point built on a layout vector."""
        given, self._given = self._given, None
        if given is None or not any(len(mats) for mats in given):
            return
        nh, n = self.quiver.num_h, self.quiver.n
        if tuple(len(mats) for mats in given) != (nh, n, n):
            raise ValueError(f"a point needs {nh} B, {n} i and {n} j matrices, got "
                             f"{len(given[0])}, {len(given[1])} and {len(given[2])}")
        for views, mats in zip((self.B, self.i, self.j), given):
            for k, m in enumerate(mats):
                views[k] = m

    @classmethod
    def _wrap(cls, lay: "FlatLayout", vec: np.ndarray) -> "RepPoint":
        """The point whose storage is vec itself: no copy and no checks."""
        p = cls.__new__(cls)
        p.quiver, p.dims, p.layout, p.vec = lay.quiver, lay.dims, lay, vec
        p._views = p._given = None
        p.__post_init__()
        return p

    @classmethod
    def zeros(cls, quiver: Quiver, dims: DimensionVectors) -> "RepPoint":
        return cls(quiver=quiver, dims=dims)

    @classmethod
    def from_flat(cls, quiver: Quiver, dims: DimensionVectors, vec) -> "RepPoint":
        """The point with flat coordinates vec, copied."""
        lay = layout(quiver, dims)
        if vec.size != lay.rep_dim:
            raise ValueError("flat vector length does not match the representation space")
        return cls._wrap(lay, np.array(vec, dtype=_CPLX))

    @property
    def slots(self) -> list[np.ndarray]:
        if self._views is None:
            self._views = self.layout.slot_views(self.vec)
        return list(self._views)

    def __getstate__(self) -> dict:
        # a copy or a pickle holds its own vector, so its views are rebuilt
        return {**self.__dict__, "_views": None}

    def _named(self, name: str) -> _SlotList:
        nh, n = self.quiver.num_h, self.quiver.n
        part = {"B": slice(nh), "i": slice(nh, nh + n), "j": slice(nh + n, None)}[name]
        return _SlotList(name, self.slots[part])

    B = property(lambda self: self._named("B"))
    i = property(lambda self: self._named("i"))
    j = property(lambda self: self._named("j"))

    def flatten(self) -> np.ndarray:
        """A copy of ``vec``."""
        return self.vec.copy()

    def copy(self) -> "RepPoint":
        return RepPoint._wrap(self.layout, self.vec.copy())

    def _other(self, other: "RepPoint") -> np.ndarray:
        if other.layout is not self.layout and (other.quiver != self.quiver
                                                or other.dims != self.dims):
            raise ValueError("rep points live on different quivers")
        return other.vec

    def __add__(self, other: "RepPoint") -> "RepPoint":
        return RepPoint._wrap(self.layout, self.vec + self._other(other))

    def __sub__(self, other: "RepPoint") -> "RepPoint":
        return RepPoint._wrap(self.layout, self.vec - self._other(other))

    def __mul__(self, scalar) -> "RepPoint":
        return RepPoint._wrap(self.layout, _CPLX(scalar) * self.vec)

    __rmul__ = __mul__

    def __neg__(self) -> "RepPoint":
        return self * (-1.0)

    def norm(self) -> float:
        return float(np.sqrt(max(metric(self, self).real, 0.0)))

    def to_dict(self) -> dict:
        return {name: [_matrix_pairs(m) for m in getattr(self, name)] for name in "Bij"}


def _matrix_pairs(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def rep_dim(quiver: Quiver, dims: DimensionVectors) -> int:
    """Complex dimension of the doubled representation space."""
    return layout(quiver, dims).rep_dim


@functools.lru_cache(maxsize=128)
def _vertex_lines(dims: DimensionVectors) -> tuple[tuple[slice, ...], np.ndarray]:
    """(the lines of each vertex block of a V x V matrix, the size v_k of the
    block that each line belongs to)."""
    ends = np.cumsum(dims.v)
    spans = tuple(slice(int(e) - vk, int(e)) for e, vk in zip(ends, dims.v))
    return spans, np.repeat(dims.v, dims.v).astype(float)


@functools.lru_cache(maxsize=128)
def block_mask(dims: DimensionVectors) -> np.ndarray:
    """Read-only mask of the vertex blocks on the diagonal of a V x V matrix,
    V = sum v_k.  Read row by row, its entries run over the flat gauge
    coordinates in order (blocks by vertex, each row-major), so m[mask] is
    the flat gauge vector of m."""
    label = np.repeat(np.arange(dims.n), dims.v)
    mask = label[:, None] == label[None, :]
    mask.flags.writeable = False
    return mask


def block_matrix(dims: DimensionVectors, blocks, name: str = "block") -> np.ndarray:
    """One V x V matrix with the given vertex blocks on its diagonal, zero
    elsewhere (a block-diagonal gauge element or gauge-algebra element).
    Each block must be v_k x v_k (ValueError otherwise)."""
    m = np.zeros((sum(dims.v),) * 2, dtype=_CPLX)
    for k, (s, b) in enumerate(zip(_vertex_lines(dims)[0], blocks, strict=True)):
        m[s, s] = _as_matrix(b, (s.stop - s.start,) * 2, name, k)
    return m


class _BlockDiagonal:
    """One block-diagonal V x V matrix ``mat``, zero off the vertex blocks."""

    @classmethod
    def _of(cls, dims: DimensionVectors, mat: np.ndarray):
        """The element held by the block-diagonal matrix mat: no copy, no checks."""
        x = cls.__new__(cls)
        x.dims, x.mat = dims, mat
        return x

    @classmethod
    def from_matrix(cls, dims: DimensionVectors, m: np.ndarray):
        """The vertex blocks of a V x V matrix; entries off them are dropped."""
        return cls._of(dims, np.where(block_mask(dims), m, _CPLX(0)))

    def matrix(self) -> np.ndarray:
        """The V x V matrix that holds the element (see block_mask)."""
        return self.mat

    def _blocks(self) -> list[np.ndarray]:
        """The vertex blocks, as views of ``mat``."""
        return [self.mat[s, s] for s in _vertex_lines(self.dims)[0]]


class LieElement(_BlockDiagonal):
    """Tuple of square blocks, one per vertex, held as one block-diagonal
    V x V matrix; ``blocks`` are views of it."""

    def __init__(self, dims: DimensionVectors, blocks):
        self.dims, self.mat = dims, block_matrix(dims, blocks, "xi")

    blocks = property(_BlockDiagonal._blocks)

    @classmethod
    def zeros(cls, dims: DimensionVectors) -> "LieElement":
        return cls._of(dims, np.zeros((sum(dims.v),) * 2, dtype=_CPLX))

    def copy(self) -> "LieElement":
        return LieElement._of(self.dims, self.mat.copy())

    def __add__(self, other: "LieElement") -> "LieElement":
        return LieElement._of(self.dims, self.mat + other.mat)

    def __sub__(self, other: "LieElement") -> "LieElement":
        return LieElement._of(self.dims, self.mat - other.mat)

    def __mul__(self, scalar) -> "LieElement":
        return LieElement._of(self.dims, _CPLX(scalar) * self.mat)

    __rmul__ = __mul__

    def __neg__(self) -> "LieElement":
        return LieElement._of(self.dims, -self.mat)

    def dagger(self) -> "LieElement":
        return LieElement._of(self.dims, self.mat.conj().T)

    def norm(self) -> float:
        return float(np.sqrt(np.vdot(self.mat, self.mat).real))

    def flatten(self) -> np.ndarray:
        """Blocks in vertex order, each row-major (the gauge flat layout)."""
        return self.mat[block_mask(self.dims)]

    @classmethod
    def from_flat(cls, dims: DimensionVectors, vec: np.ndarray) -> "LieElement":
        mask = block_mask(dims)
        m = np.zeros(mask.shape, dtype=_CPLX)
        m[mask] = vec
        return cls._of(dims, m)


def lie_inner(a: LieElement, b: LieElement) -> complex:
    """Hermitian pairing sum_k Tr(a_k b_k^dag), linear in the first slot."""
    return complex(np.vdot(b.mat, a.mat))


def central_lie(values, dims: DimensionVectors) -> LieElement:
    """values[k] Id on every vertex k."""
    vals = np.asarray(values, dtype=_CPLX)
    return LieElement._of(dims, np.diag(np.repeat(vals, dims.v)))


def zeta_real_lie(sigma, dims: DimensionVectors) -> LieElement:
    """zeta_R as a skew-hermitian element: i sigma_k Id per vertex."""
    return central_lie(1j * np.asarray(sigma, dtype=float), dims)


def central_deviation(x: LieElement) -> float:
    """How far each block is from a scalar matrix, max over vertices: one
    reduction of x minus the mean of each block's diagonal on that block."""
    d = np.diagonal(x.mat)
    mean = (block_mask(x.dims) @ d) / _vertex_lines(x.dims)[1]
    return float(np.abs(x.mat - np.diag(mean)).max(initial=0.0))


class GaugeElement(_BlockDiagonal):
    """Invertible blocks per vertex acting by g.p = (g_in B g_out^-1, g i, j g^-1),
    held as one block-diagonal V x V matrix; ``g`` lists its blocks as views."""

    def __init__(self, dims: DimensionVectors, g):
        self.dims, self.mat = dims, block_matrix(dims, g, "g")

    g = property(_BlockDiagonal._blocks)

    def inverse(self) -> "GaugeElement":
        # the inverse of a block-diagonal matrix is block-diagonal: LU and the
        # solves only ever add exact zeros across blocks
        return GaugeElement._of(self.dims, np.linalg.inv(self.mat))


# Taylor coefficients 1/k! of exp through degree 18, in five chunks of four
# (the last padded with a zero) for the Paterson-Stockmeyer evaluation
_EXP_CHUNKS = np.array([1.0 / math.factorial(k) for k in range(19)] + [0.0]).reshape(5, 4)


def lie_exp(xi: LieElement) -> GaugeElement:
    """Matrix exponential of the block-diagonal matrix m of xi by scaling and
    squaring: for the least s >= 0 with 1-norm |m|_1 < 2^(s-1), the degree-18
    Taylor sum of exp(m / 2^s) (remainder below 2e-23), squared s times.

    The sum is evaluated by Paterson-Stockmeyer in seven products: with
    x = m / 2^s, chunk c is sum_{i<4} x^i / (4c + i)!, and the sum is
    chunk 0 + x^4 (chunk 1 + x^4 (... + x^4 chunk 4))."""
    m = xi.mat
    n = len(m)
    s = max(0, math.frexp(2.0 * float(np.abs(m).sum(axis=0).max(initial=0.0)))[1])
    powers = np.zeros((4, n, n), dtype=_CPLX)  # I, x, x^2, x^3
    powers[0].flat[::n + 1] = 1.0
    np.multiply(m, 2.0 ** -s, out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    chunks = (_EXP_CHUNKS @ powers.reshape(4, -1)).reshape(5, n, n)
    x4 = powers[2] @ powers[2]
    e = chunks[4]
    for c in range(3, -1, -1):
        e = e @ x4 + chunks[c]
    for _ in range(s):
        e = e @ e
    return GaugeElement._of(xi.dims, e)


def conjugate_slots(p: RepPoint, left: np.ndarray, right: np.ndarray) -> RepPoint:
    """left_r X right_c on every slot X of p from space c to space r, for
    block-diagonal V x V matrices left and right (no factor on a framing
    side): ``FlatLayout.conjugate`` on p's stack."""
    lay = p.layout
    return RepPoint._wrap(lay, lay.from_stack(lay.conjugate(lay.to_stack(p.vec),
                                                            left, right)))


def gauge_act(g: GaugeElement, p: RepPoint) -> RepPoint:
    return conjugate_slots(p, g.mat, g.inverse().mat)


def inf_action(p: RepPoint, xi: LieElement) -> RepPoint:
    """Derivative of the gauge action at the identity, in direction xi."""
    return RepPoint._wrap(p.layout, p.layout.action_matrix(p) @ xi.flatten())


def inf_action_adjoint(p: RepPoint, incr: RepPoint) -> LieElement:
    """Adjoint of inf_action(p, .) for the metric pairings:
    <inf_action(p, xi), q> = <xi, inf_action_adjoint(p, q)>."""
    return LieElement.from_flat(p.dims, p.layout.action_matrix(p).conj().T @ incr.vec)


def metric(p: RepPoint, q: RepPoint) -> complex:
    """Hermitian metric, linear in p: sum Tr(B B'^dag) + Tr(i i'^dag) + Tr(j'^dag j)."""
    return complex(np.vdot(q.vec, p.vec))


def symplectic_form(p: RepPoint, q: RepPoint) -> complex:
    """Complex-bilinear form sum_h Tr(eps(h) B_h B'_hbar) + sum_k Tr(i_k j'_k - i'_k j_k):
    each entry of p times the transposed entry of q's partner slot, with the
    sign -1 on the slots of scaling degree 1."""
    lay = p.layout
    return complex(np.dot(lay.sign * p.vec, q.vec[lay.partner_index]))


def moment_real(p: RepPoint) -> LieElement:
    return LieElement._of(p.dims, 0.5j * p.layout.moment_form(p.vec, p.vec))


def moment_complex(p: RepPoint) -> LieElement:
    """mu_C(p) = dmu_complex(p, p) / 2, one product with the dmu matrix."""
    return LieElement.from_flat(p.dims, 0.5 * (p.layout.dmu_matrix(p) @ p.vec))


def dmu_complex(p: RepPoint, incr: RepPoint) -> LieElement:
    """Derivative of mu_C at p in direction incr; exact since mu_C is quadratic:
    mu_C(p + q) = mu_C(p) + dmu_complex(p, q) + mu_C(q)."""
    return LieElement.from_flat(p.dims, p.layout.dmu_matrix(p) @ incr.vec)


def dmoment_real_scaled(p: RepPoint, incr: RepPoint) -> LieElement:
    """Derivative of -2i mu_R (the hermitian form of mu_R) at p in direction incr."""
    half = p.layout.moment_form(incr.vec, p.vec)
    return LieElement._of(p.dims, half + half.conj().T)


def hermitian_residual(p: RepPoint, sigma) -> LieElement:
    """-2i (mu_R(p) - zeta_R(sigma)) as a hermitian element; zero iff on target."""
    level = np.repeat(2.0 * np.asarray(sigma, dtype=float), p.dims.v)
    return LieElement._of(p.dims, p.layout.moment_form(p.vec, p.vec) - np.diag(level))


# -- operator layer ---------------------------------------------------------

def _starts(sizes) -> tuple[int, ...]:
    """Offsets of consecutive blocks of the given sizes in one flat vector."""
    return tuple(int(x) for x in np.cumsum([0, *sizes])[:-1])


class FlatLayout:
    """Flat coordinates of one (quiver, dims) pair and the operators on them.

    A point flattens slot by slot (B by doubled edge, then i, then j by
    vertex) and a gauge-algebra element block by block, all row-major.  The
    per-slot table below is the one place that reads the quiver's doubled
    edge structure; every slot-wise map works on it.  The matrix of
    xi -> inf_action(p, xi) has every entry +1 or -1 times one entry of
    p.flatten(): a scatter of that vector through an index table built once
    here.  The moment maps follow from it by the moment-map identities
      Tr(xi dmu_C(p)[q]) = omega_C(xi.p, q),   Tr(xi (-2i mu_R(p))) = <xi.p, p>:
    the dmu table is the action table with entry (s, b) moved to (b
    transposed, partner_index[s]) and signed by sign[s], and mu_R is
    ``moment_form``.  Get layouts from ``layout``, which caches one per
    pair; treat them as frozen.

    Per-slot table, indexed like ``RepPoint.slots``:
      spaces    (row space, column space); V_k is written k >= 0 (it has a
                gauge block) and W_k is written ~k < 0
      degree    scaling degree: 1 on reversed edges and j maps, else 0
      partner   symplectic partner: h <-> hbar, i_k <-> j_k
    ``token_slot`` maps the path tokens h{e}, h{e}~, c{k} and j{k} to their
    slots.  Per flat entry, ``scaled`` marks the entries of degree 1,
    ``sign`` is -1 on them and +1 elsewhere, and ``partner_index`` is the
    entry (b, a) of the partner slot for the entry (a, b) of a slot: the
    symplectic form, the twistor rotation and the conformal family pair
    every entry with that one.

    Block form, which serves finite conjugation only: with lines ordered
    V_0.. V_{n-1} then W_0.. W_{n-1}, a point is one stack of (V+W) x (V+W)
    matrices in which slot X from space c to space r fills rows r and
    columns c; a space pair that repeats (parallel edges) takes one more
    layer.  Quivers are loop-free, so no slot sits on a diagonal block, and
    a gauge element is one V x V block-diagonal matrix (``block_mask``).
    ``entry_lines`` holds the (row line, column line) of every flat entry.
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
        e_range, k_range = range(q.num_edges), range(n)
        self.token_slot = {tok: s for s, tok in enumerate(
            [f"h{e}" for e in e_range] + [f"h{e}~" for e in e_range]
            + [f"c{k}" for k in k_range] + [f"j{k}" for k in k_range])}
        self.shapes = tuple((dims.v[r] if r >= 0 else dims.w[~r],
                             dims.v[c] if c >= 0 else dims.w[~c]) for r, c in self.spaces)
        sizes = [r * c for r, c in self.shapes]
        self.starts, self.rep_dim = _starts(sizes), sum(sizes)
        self.lie_starts = _starts([vk * vk for vk in dims.v])
        self.lie_dim = sum(vk * vk for vk in dims.v)
        self.nv = sum(dims.v)
        self.scaled = np.repeat(np.array(self.degree, dtype=bool), sizes)
        self.sign = np.where(self.scaled, -1.0, 1.0)
        self.partner_index = np.concatenate(
            [(self.starts[t] + np.arange(r * c).reshape(c, r).T).ravel()
             for t, (r, c) in zip(self.partner, self.shapes)])
        self.herm = self._hermitian_basis()
        # the diagonal-unit columns of herm, vertex by vertex
        self._unit_columns = np.concatenate(
            [start + np.arange(vk) for start, vk in zip(self.lie_starts, dims.v)]).astype(int)
        self.block_mask = block_mask(dims)
        position = np.zeros((self.nv,) * 2, dtype=int)
        position[self.block_mask] = np.arange(self.lie_dim)
        self._lie_transpose = position.T[self.block_mask]  # gauge entry (b, a) of (a, b)
        self._action = self._action_table()
        self._dmu = self._dmu_from_action()
        self.stack_shape, self._stack_index = self._stack_table()
        size = self.stack_shape[1]
        self.entry_lines = (self._stack_index // size % size, self._stack_index % size)

    def _hermitian_basis(self) -> np.ndarray:
        """Columns: the real-orthonormal basis of hermitian tuples under
        Re Tr(a b^dag); per vertex the diagonal units, then for each a < b
        the real symmetric and the imaginary antisymmetric pair."""
        h = np.zeros((self.lie_dim, self.lie_dim), dtype=_CPLX)
        s = 1.0 / np.sqrt(2.0)
        col = 0
        for start, vk in zip(self.lie_starts, self.dims.v):
            a, b = np.triu_indices(vk, 1)
            pairs = col + vk + 2 * np.arange(a.size)
            upper, lower = start + a * vk + b, start + b * vk + a
            h[start + np.arange(vk) * (vk + 1), col + np.arange(vk)] = 1.0
            h[upper, pairs], h[lower, pairs] = s, s
            h[upper, pairs + 1], h[lower, pairs + 1] = 1j * s, -1j * s
            col += vk * vk
        return h

    def _stack_table(self):
        """(shape, index): index[t] is the position of flat point entry t in
        the C-ordered stack of the given shape."""
        first = {k: o for k, o in enumerate(_starts(self.dims.v))}
        first.update({~k: self.nv + o for k, o in enumerate(_starts(self.dims.w))})
        size = self.nv + sum(self.dims.w)
        parts, layers = [], []
        for s, ((r, c), (nr, nc)) in enumerate(zip(self.spaces, self.shapes)):
            layers.append(self.spaces[:s].count((r, c)))
            rows = layers[-1] * size + first[r] + np.arange(nr)
            parts.append((rows[:, None] * size + first[c] + np.arange(nc)).ravel())
        return (max(layers) + 1, size, size), np.concatenate(parts)

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
        # (flat matrix index, source index into p.flatten(), sign, shape)
        return (np.concatenate([row * self.lie_dim + col for row, col, _, _ in parts]),
                np.concatenate([src for _, _, src, _ in parts]),
                np.concatenate([np.full(src.size, sg) for _, _, src, sg in parts]),
                (self.rep_dim, self.lie_dim))

    def _dmu_from_action(self):
        """The dmu table: action entry (s, b) signed by sign[s] at (b^T, partner_index[s])."""
        idx, src, sign, _ = self._action
        s, b = np.divmod(idx, self.lie_dim)
        return (self._lie_transpose[b] * self.rep_dim + self.partner_index[s],
                src, sign * self.sign[s], (self.lie_dim, self.rep_dim))

    @staticmethod
    def _scatter(table, flat: np.ndarray) -> np.ndarray:
        idx, src, sign, shape = table
        m = np.zeros(shape[0] * shape[1], dtype=_CPLX)
        m[idx] = sign * flat[src]
        return m.reshape(shape)

    def action_matrix(self, p: RepPoint) -> np.ndarray:
        """Matrix of xi -> inf_action(p, xi) on flat coordinates."""
        return self._scatter(self._action, p.vec)

    def dmu_matrix(self, p: RepPoint) -> np.ndarray:
        """Matrix of q -> dmu_complex(p, q) on flat coordinates."""
        return self._scatter(self._dmu, p.vec)

    def hermitian_action_matrix(self, flat: np.ndarray) -> np.ndarray:
        """Real matrix of the action on hermitian coordinates at the point
        ``flat``: the real parts of the image stacked over the imaginary."""
        a = self._scatter(self._action, flat) @ self.herm
        return np.concatenate([a.real, a.imag])

    def herm_coords(self, x: LieElement) -> np.ndarray:
        """Coordinates of a hermitian tuple in the basis ``herm``."""
        return (self.herm.conj().T @ x.flatten()).real

    def central_herm_coords(self, values) -> np.ndarray:
        """herm_coords(central_lie(values, dims)) for real values, in closed
        form: values[k] on the diagonal-unit columns of vertex k."""
        coeffs = np.zeros(self.lie_dim)
        coeffs[self._unit_columns] = np.repeat(values, self.dims.v)
        return coeffs

    def herm_element(self, coeffs: np.ndarray) -> LieElement:
        """The hermitian tuple with the given coordinates."""
        return LieElement.from_flat(self.dims, self.herm @ coeffs)

    def slot_views(self, flat: np.ndarray) -> list[np.ndarray]:
        """The slot matrices of the flat point(s) ``flat``, as views of it;
        leading axes of flat lead in every slot."""
        lead = flat.shape[:-1]
        return [flat[..., a:a + r * c].reshape(*lead, r, c)
                for a, (r, c) in zip(self.starts, self.shapes)]

    def moment_form(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The block-diagonal V x V matrix M with Tr(xi M) = <inf_action(a, xi), b>
        for flat points a, b: A^T conj(b) (A the action matrix at a) read through
        the Lie transpose.  Block k sums X Y^dag over the slots into V_k minus
        Y^dag X over those out of it (X of a, Y of b): -2i mu_R(p) at a = b = p."""
        m = np.zeros((self.nv,) * 2, dtype=_CPLX)
        m[self.block_mask] = (np.conj(b) @ self._scatter(self._action, a))[self._lie_transpose]
        return m

    def to_stack(self, flat: np.ndarray) -> np.ndarray:
        """The stack of the point with flat coordinates ``flat`` (leading axes
        kept); on the transposed views one point is a first-axis scatter."""
        stack = np.zeros(flat.shape[:-1] + self.stack_shape, dtype=_CPLX)
        stack.reshape(*flat.shape[:-1], math.prod(self.stack_shape)).T[
            self._stack_index] = flat.T
        return stack

    def from_stack(self, stack: np.ndarray) -> np.ndarray:
        """Flat coordinates of the point held in a stack (leading axes kept)."""
        size = math.prod(stack.shape[-3:])
        return stack.reshape(*stack.shape[:-3], size).T[self._stack_index].T

    def conjugate(self, stack: np.ndarray, left: np.ndarray,
                  right: np.ndarray) -> np.ndarray:
        """G P G' on every matrix P of the stack (leading axes kept), where G, G'
        are left, right (V x V) on the V lines and the identity on the W lines:
        each slot X from c to r becomes left[r] X right[c] for block-diagonal ones."""
        nv = left.shape[0]
        out = stack.copy()
        out[..., :nv, :] = left @ stack[..., :nv, :]
        out[..., :nv] = out[..., :nv] @ right
        return out


@functools.lru_cache(maxsize=128)
def layout(quiver: Quiver, dims: DimensionVectors) -> FlatLayout:
    """The flat layout of (quiver, dims), built once per pair."""
    return FlatLayout(quiver, dims)
