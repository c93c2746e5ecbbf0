"""Gauge-invariant path functionals.

The doubled edge alphabet is augmented with framing hops: token c{k} is the
map W_k -> V_k (the i-matrix) and token j{k} is V_k -> W_k (the j-matrix);
tokens h{e} and h{e}~ are the oriented and reversed edge matrices.  A loop
uses only edge tokens and is closed; loops are identified up to cyclic
rotation.  An admissible path starts with a c-hop and ends with a j-hop, so
its matrix is a framing-to-framing block and every entry is gauge invariant;
loop traces are gauge invariant as well.  Tokens are listed in application
order, so eval multiplies right-to-left.

Functionals over every enumerated path evaluate one path at a time with
eval_path's product; on the stacked slots of several points (fingerprints)
one product per path serves all of them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import IDENTITY_TOL, SV_RATIO, ZERO_INVARIANT_TOL
from .errors import ZeroInvariant
from .quiver import DimensionVectors, Quiver
from .repspace import RepPoint, layout
from .slices import SliceIncrement, conformal_flat


@dataclass(frozen=True)
class PathSpec:
    """kind is 'loop' or 'admissible'; tokens are in application order."""

    kind: str
    tokens: tuple[str, ...]

    def __str__(self) -> str:
        tag = "L" if self.kind == "loop" else "P"
        return f"{tag}:" + ".".join(self.tokens)

    @classmethod
    def parse(cls, text: str) -> "PathSpec":
        tag, _, body = text.partition(":")
        if tag not in ("L", "P") or not body:
            raise ValueError(f"bad path string {text!r}; expected 'L:...' or 'P:...'")
        return cls(kind="loop" if tag == "L" else "admissible",
                   tokens=tuple(body.split(".")))


def validate_path(path: PathSpec, quiver: Quiver, dims: DimensionVectors) -> list[int]:
    """The slots of the path's tokens (see FlatLayout.token_slot), after
    checking that the path is well formed."""
    lay = layout(quiver, dims)
    if not path.tokens:
        raise ValueError("empty path")
    try:
        slots = [lay.token_slot[t] for t in path.tokens]
    except KeyError as exc:
        raise ValueError(f"unknown path token {exc.args[0]!r} in {path}") from None
    # a slot maps its column space (the source node) to its row space
    ends = [lay.spaces[s] for s in slots]
    for (target, _), (_, source), tok in zip(ends, ends[1:], path.tokens[1:]):
        if source != target:
            raise ValueError(f"path {path} is not composable at token {tok}")
    if path.kind == "loop":
        if any(s >= quiver.num_h for s in slots):
            raise ValueError(f"loop {path} may only use edge tokens")
        if ends[0][1] != ends[-1][0]:
            raise ValueError(f"loop {path} is not closed")
    elif ends[0][1] >= 0 or ends[-1][0] >= 0:
        raise ValueError(f"admissible path {path} must run framing-to-framing")
    return slots


def _product(mats, slots: list[int]) -> np.ndarray:
    acc = mats[slots[0]]
    for s in slots[1:]:
        acc = mats[s] @ acc
    return acc


def eval_path(p: RepPoint, path: PathSpec) -> np.ndarray:
    """Product of the token matrices, rightmost token applied first."""
    return _product(p.slots, validate_path(path, p.quiver, p.dims))


def _canonical_rotation(tokens: tuple[str, ...]) -> tuple[str, ...]:
    rots = [tokens[r:] + tokens[:r] for r in range(len(tokens))]
    return min(rots)


@functools.lru_cache(maxsize=128)
def enumerate_paths(quiver: Quiver, dims: DimensionVectors, max_len: int,
                    kind: str) -> tuple[PathSpec, ...]:
    """All loops (cyclically deduplicated) or admissible paths up to max_len tokens.

    Tokens through zero-dimensional spaces are excluded: their functionals
    are vacuous.
    """
    if kind not in ("loop", "admissible"):
        raise ValueError("kind must be 'loop' or 'admissible'")
    lay = layout(quiver, dims)
    # (token, target node) by source node, nodes written as in FlatLayout.spaces
    steps: dict[int, list[tuple[str, int]]] = {}
    for tok, s in lay.token_slot.items():
        target, source = lay.spaces[s]
        if 0 not in lay.shapes[s] and (kind == "admissible" or s < quiver.num_h):
            steps.setdefault(source, []).append((tok, target))

    found = set()
    out_paths: list[PathSpec] = []

    def extend(seq: list[str], at: int, start: int):
        # a loop closes at its start; an admissible path ends on a framing node
        if seq and (at == start if kind == "loop" else at < 0):
            spec = _canonical_rotation(tuple(seq)) if kind == "loop" else tuple(seq)
            if spec not in found:
                found.add(spec)
                out_paths.append(PathSpec(kind, spec))
        if len(seq) >= max_len:
            return
        for tok, target in steps.get(at, ()):
            seq.append(tok)
            extend(seq, target, start)
            seq.pop()

    if kind == "loop":
        starts = [k for k in range(quiver.n) if dims.v[k] > 0]
    else:
        starts = [~k for k in range(quiver.n) if dims.w[k] > 0 and dims.v[k] > 0]
    for s in starts:
        extend([], s, s)

    out_paths.sort(key=lambda ps: (len(ps.tokens), ps.tokens))
    return tuple(out_paths)


def _size(m: np.ndarray, kind: str) -> float:
    if kind == "loop":
        return abs(complex(np.trace(m)))
    return float(np.abs(m).max(initial=0.0))


def fingerprint_labels(quiver: Quiver, dims: DimensionVectors, max_len: int) -> tuple[str, ...]:
    labels = []
    for ps in enumerate_paths(quiver, dims, max_len, "loop"):
        labels.append(f"{ps}[tr]:re")
        labels.append(f"{ps}[tr]:im")
    lay = layout(quiver, dims)
    for ps in enumerate_paths(quiver, dims, max_len, "admissible"):
        # the path matrix maps the first token's columns to the last one's rows
        rows = lay.shapes[lay.token_slot[ps.tokens[-1]]][0]
        cols = lay.shapes[lay.token_slot[ps.tokens[0]]][1]
        for r in range(rows):
            for c in range(cols):
                labels.append(f"{ps}[{r},{c}]:re")
                labels.append(f"{ps}[{r},{c}]:im")
    return tuple(labels)


def fingerprints(points, max_len: int) -> np.ndarray:
    """fingerprint of every point, one row each, from the stacked slots of
    the points, which share one quiver and dimension vectors: one eval_path
    product per path for all of them."""
    p = points[0]
    if any((q.quiver, q.dims) != (p.quiver, p.dims) for q in points):
        raise ValueError("fingerprints needs points of one quiver and dimension vectors")
    n = len(points)
    slots = p.layout.slot_views(np.stack([q.vec for q in points]))
    blocks: list[np.ndarray] = []
    for kind in ("loop", "admissible"):
        for path in enumerate_paths(p.quiver, p.dims, max_len, kind):
            m = _product(slots, validate_path(path, p.quiver, p.dims))
            blocks.append(np.trace(m, axis1=-2, axis2=-1) if kind == "loop" else m)
    if not blocks:
        return np.zeros((n, 0))
    return np.concatenate([b.reshape(n, -1) for b in blocks], axis=1).view(np.float64)


def fingerprint(p: RepPoint, max_len: int) -> np.ndarray:
    """Canonically ordered vector of loop traces and admissible-path entries,
    real and imaginary parts interleaved: the one row of fingerprints([p])."""
    return fingerprints([p], max_len)[0]


def is_nilpotent(p: RepPoint) -> bool:
    """True when every loop trace and admissible path entry of p vanishes.

    Crawley-Boevey's framed representation on C + V has a line infinity, an
    arrow infinity -> k per column of i_k, an arrow k -> infinity per row of
    j_k, and the B_h.  Those invariants are its cycle traces, which all vanish
    exactly when it is nilpotent (Le Bruyn and Procesi): when the kernel flag
    K_0 = 0, K_(t+1) = {u : every arrow maps u into K_t} fills C + V, which at
    most 1 + sum(v) SVDs of the stacked arrows decide.  Ranks are cut at
    SV_RATIO times the largest slot norm, or 1, so an entry below that counts
    as zero even where long paths lift it: edges 1e3 with i_0 = 1e-9 read
    nilpotent although the path c0.h0.h1.j2 is 1e-3.
    """
    first = np.cumsum((1,) + p.dims.v)  # V_k holds lines first[k]..; infinity is line 0
    n = int(first[-1])

    def lines(node: int) -> slice:
        return slice(0, 1) if node < 0 else slice(first[node], first[node + 1])

    arrows = [np.zeros((0, n, n))]
    for (r, c), m in zip(p.layout.spaces, p.slots):
        if m.size:
            block = m[:, None, :] if r < 0 else m.T[:, :, None] if c < 0 else m[None]
            arrows.append(np.zeros((len(block), n, n), dtype=m.dtype))
            arrows[-1][:, lines(r), lines(c)] = block
    stack = np.concatenate(arrows)
    cut = SV_RATIO * max([1.0] + [float(np.linalg.norm(m)) for m in p.slots])
    # the rows of comp span the orthogonal complement of K_t
    comp = np.eye(n)
    while len(comp):
        _, s, vh = np.linalg.svd((comp @ stack).reshape(-1, n), full_matrices=False)
        rank = int(np.sum(s > cut))
        if rank == len(comp):
            return False
        comp = vh[:rank]
    return True


def path_escape_exponent(path: PathSpec, quiver: Quiver, dims: DimensionVectors) -> int:
    """Predicted blow-up order: the scaling degrees of the path's slots,
    one per reversed edge and per j-hop."""
    lay = layout(quiver, dims)
    return sum(lay.degree[s] for s in validate_path(path, quiver, dims))


def invariant_size(p: RepPoint, path: PathSpec) -> float:
    return _size(eval_path(p, path), path.kind)


@dataclass
class EscapeStudy:
    """One path's Laurent check: slope is the lowest power of hbar whose
    coefficient exceeds IDENTITY_TOL, mismatch the distance of the hbar^-e
    coefficient from the invariant at p0 + A, and outside the largest
    coefficient outside hbar^-e .. hbar^(len - e), all relative to the
    largest sampled entry.  The path passes when both are within
    IDENTITY_TOL."""

    path: PathSpec
    expected_exponent: int
    slope: float
    mismatch: float
    outside: float

    @property
    def passed(self) -> bool:
        return max(self.mismatch, self.outside) <= IDENTITY_TOL


def escape_slope(inc: SliceIncrement, paths) -> list[EscapeStudy]:
    """Laurent coefficients in hbar of path invariants along conformal_point
    at the checked slice point p0 + A.

    Every slot of conformal_point(inc, hbar) is affine in hbar or in 1/hbar,
    so an invariant of escape exponent e is hbar^-e times a polynomial of
    degree at most len(path), whose constant term is the invariant at p0 + A;
    that invariant must not vanish.  One product with the N x N DFT matrix
    over the N-th roots of unity, N the smallest power of two above twice the
    longest path's coefficient count, gives every coefficient (the
    trapezoidal rule on the unit circle); powers below hbar^-e alias into the
    top bins.  Entry (b, k) of that matrix is the root of index -b k mod N,
    so its angles are exact.
    """
    p0 = inc.p0
    longest = max((len(path.tokens) for path in paths), default=0)
    n_pts = 1 << (2 * (longest + 1)).bit_length()
    k = np.arange(n_pts)
    roots = np.exp(2j * np.pi * k / n_pts)
    dft = roots[-np.outer(k, k) % n_pts] / n_pts
    mats = p0.layout.slot_views(conformal_flat(inc, roots[:, None]))
    at, studies = p0 + inc.A, []
    for path in paths:
        slots = validate_path(path, p0.quiver, p0.dims)
        ref = _product(at.slots, slots)
        if (size := _size(ref, path.kind)) <= ZERO_INVARIANT_TOL:
            raise ZeroInvariant(
                f"invariant of {path} vanishes at the slice point ({size:.3e})")
        vals = _product(mats, slots)
        if path.kind == "loop":
            ref, vals = np.trace(ref), np.trace(vals, axis1=1, axis2=2)
        scale = np.abs(vals).max()
        coef = np.tensordot(dft, vals, axes=1)
        e = sum(p0.layout.degree[s] for s in slots)
        # bin b holds the power m = b mod n_pts with len - e - n_pts < m <= len - e,
        # so hbar^-e sits at bin -e
        top = len(slots) - e
        powers = top - (top - np.arange(n_pts)) % n_pts
        sizes = np.abs(coef).reshape(n_pts, -1).max(axis=1) / scale
        studies.append(EscapeStudy(
            path=path, expected_exponent=e,
            slope=float(powers[sizes > IDENTITY_TOL].min()),
            mismatch=float(np.abs(coef[-e] - ref).max() / scale),
            outside=float(sizes[powers < -e].max(initial=0.0))))
    return studies
