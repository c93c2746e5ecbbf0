"""Gauge-invariant path functionals.

The doubled edge alphabet is augmented with framing hops: token c{k} is the
map W_k -> V_k (the i-matrix) and token j{k} is V_k -> W_k (the j-matrix);
tokens h{e} and h{e}~ are the oriented and reversed edge matrices.  A loop
uses only edge tokens and is closed; loops are identified up to cyclic
rotation.  An admissible path starts with a c-hop and ends with a j-hop, so
its matrix is a framing-to-framing block and every entry is gauge invariant;
loop traces are gauge invariant as well.  Tokens are listed in application
order, so eval multiplies right-to-left.

Functionals over every enumerated path go through one prefix walk per
(quiver, dims, max_len, kind): paths that share a prefix share its products,
and each product is formed by the same matrix multiplications as eval_path.
The walk also runs on the stacked slots of several points (fingerprints),
one product per path for all of them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import CHECK_TOL, IDENTITY_TOL, ZERO_INVARIANT_TOL
from .errors import ZeroInvariant
from .quiver import DimensionVectors, Quiver
from .repspace import RepPoint, layout


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


@functools.lru_cache(maxsize=128)
def _prefix_walk(quiver: Quiver, dims: DimensionVectors, max_len: int,
                 kind: str) -> tuple[tuple[int, ...], ...]:
    """Depth-first walk over enumerate_paths(quiver, dims, max_len, kind) as
    four flat tuples (depth, slot, out, skip): step t sets level depth[t] of
    the product stack to the token matrix at slot[t] applied after level
    depth[t] - 1, out[t] is the index of the path ending there, or -1, and
    skip[t] is the first later step outside the subtree of step t."""
    paths = enumerate_paths(quiver, dims, max_len, kind)
    depth: list[int] = []
    slot: list[int] = []
    out: list[int] = []
    prev: tuple[str, ...] = ()
    # in lexicographic order each path shares its longest common prefix with
    # the path before it, and no path follows one that extends it
    for n in sorted(range(len(paths)), key=lambda n: paths[n].tokens):
        slots = validate_path(paths[n], quiver, dims)
        tokens = paths[n].tokens
        common = 0
        while common < min(len(prev), len(tokens)) and prev[common] == tokens[common]:
            common += 1
        for d in range(common, len(tokens)):
            depth.append(d)
            slot.append(slots[d])
            out.append(n if d == len(tokens) - 1 else -1)
        prev = tokens
    # a subtree ends at the next step that is no deeper than its root
    skip = [len(depth)] * len(depth)
    open_steps: list[int] = []
    for t, d in enumerate(depth):
        while open_steps and depth[open_steps[-1]] >= d:
            skip[open_steps.pop()] = t
        open_steps.append(t)
    return tuple(depth), tuple(slot), tuple(out), tuple(skip)


def _path_products(p: RepPoint, slots, max_len: int, kind: str,
                   prune: tuple[float, ...] | None = None):
    """Yield (index in enumerate_paths, eval_path product) for every path of
    p's quiver and dimension vectors, in walk order, with the slot matrices
    slots; leading axes of the slots (see FlatLayout.slot_views) lead in
    every product.  With prune, one bound per depth, the paths that extend a
    product at depth d of Frobenius norm at most prune[d] are left out."""
    depth, slot, out, skip = _prefix_walk(p.quiver, p.dims, max_len, kind)
    acc: list[np.ndarray | None] = [None] * max_len
    t = 0
    while t < len(depth):
        d = depth[t]
        acc[d] = slots[slot[t]] if d == 0 else slots[slot[t]] @ acc[d - 1]
        if out[t] >= 0:
            yield out[t], acc[d]
        t = skip[t] if prune and np.linalg.norm(acc[d]) <= prune[d] else t + 1


def _size(m: np.ndarray, kind: str) -> float:
    if kind == "loop":
        return abs(complex(np.trace(m)))
    return float(np.abs(m).max(initial=0.0))


def invariant_sizes(p: RepPoint, max_len: int, kind: str) -> list[float]:
    """invariant_size of every path of enumerate_paths(..., max_len, kind), in its order."""
    sizes = [0.0] * len(enumerate_paths(p.quiver, p.dims, max_len, kind))
    for n, m in _path_products(p, p.slots, max_len, kind):
        sizes[n] = _size(m, kind)
    return sizes


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
    """fingerprint of every point, one row each, from one prefix walk over
    the stacked slots of the points, which share one quiver and dimension
    vectors."""
    p = points[0]
    if any((q.quiver, q.dims) != (p.quiver, p.dims) for q in points):
        raise ValueError("fingerprints needs points of one quiver and dimension vectors")
    n = len(points)
    slots = p.layout.slot_views(np.stack([q.vec for q in points]))
    blocks: list[np.ndarray] = []
    for kind in ("loop", "admissible"):
        part = [None] * len(enumerate_paths(p.quiver, p.dims, max_len, kind))
        for k, m in _path_products(p, slots, max_len, kind):
            part[k] = np.trace(m, axis1=-2, axis2=-1) if kind == "loop" else m
        blocks.extend(part)
    if not blocks:
        return np.zeros((n, 0))
    return np.concatenate([b.reshape(n, -1) for b in blocks], axis=1).view(np.float64)


def fingerprint(p: RepPoint, max_len: int) -> np.ndarray:
    """Canonically ordered vector of loop traces and admissible-path entries,
    real and imaginary parts interleaved: the one row of fingerprints([p])."""
    return fingerprints([p], max_len)[0]


def nilpotency_bound(dims: DimensionVectors) -> int:
    return 2 * sum(dims.v)


def is_nilpotent(p: RepPoint) -> bool:
    """True when every invariant up to the decision bound is below CHECK_TOL.

    A product P at depth d (d + 1 tokens) extends to products M of at most
    bound - 1 - d more tokens, so |M|_F <= |P|_F g^(bound - 1 - d) with g
    the largest slot norm, or 1; both invariant sizes of M are at most
    n |M|_F (|tr M| <= sqrt(dim) |M|_F, max |M_ij| <= |M|_F), n the largest
    entry of v and w.  The walk skips the extensions of P once that bound
    is at most CHECK_TOL: none of them can change the verdict.
    """
    bound = nilpotency_bound(p.dims)
    g = max([1.0] + [float(np.linalg.norm(m)) for m in p.slots])
    n = max(p.dims.v + p.dims.w + (1,))
    # g ** -k underflows to 0 rather than overflow: the bound then prunes
    # only exactly-zero products
    prune = tuple(CHECK_TOL / n * g ** -(bound - 1 - d) for d in range(bound))
    for kind in ("loop", "admissible"):
        for _, m in _path_products(p, p.slots, bound, kind, prune):
            if _size(m, kind) > CHECK_TOL:
                return False
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


def escape_slope(p0: RepPoint, A: RepPoint, paths) -> list[EscapeStudy]:
    """Laurent coefficients in hbar of path invariants along conformal_point.

    Every slot of conformal_point(p0, A, hbar) is affine in hbar or in 1/hbar,
    so an invariant of escape exponent e is hbar^-e times a polynomial of
    degree at most len(path), whose constant term is the invariant at p0 + A;
    that invariant must not vanish.  One FFT over the N-th roots of unity, N
    the smallest power of two above twice the longest path's coefficient
    count, gives every coefficient (the trapezoidal rule on the unit circle);
    powers below hbar^-e alias into the top bins.
    """
    from .conformal import check_slice_increment, conformal_flat

    check_slice_increment(p0, A)
    longest = max((len(path.tokens) for path in paths), default=0)
    n_pts = 1 << (2 * (longest + 1)).bit_length()
    mats = p0.layout.slot_views(conformal_flat(
        p0, A, np.exp(2j * np.pi * np.arange(n_pts) / n_pts)[:, None]))
    at, studies = p0 + A, []
    for path in paths:
        ref = eval_path(at, path)
        if (size := _size(ref, path.kind)) <= ZERO_INVARIANT_TOL:
            raise ZeroInvariant(
                f"invariant of {path} vanishes at the slice point ({size:.3e})")
        slots = validate_path(path, p0.quiver, p0.dims)
        vals = _product(mats, slots)
        if path.kind == "loop":
            ref, vals = np.trace(ref), np.trace(vals, axis1=1, axis2=2)
        scale = np.abs(vals).max()
        coef = np.fft.fft(vals, axis=0) / n_pts
        e = path_escape_exponent(path, p0.quiver, p0.dims)
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
