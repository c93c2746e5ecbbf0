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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import CHECK_TOL, INVARIANT_RANGE, ZERO_INVARIANT_TOL
from .errors import ZeroInvariant
from .quiver import DimensionVectors, Quiver
from .repspace import RepPoint


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


def _token_ends(tok: str, quiver: Quiver) -> tuple[tuple[str, int], tuple[str, int]]:
    """(source node, target node), nodes as ('V'|'W', vertex)."""
    if tok.startswith("c"):
        k = int(tok[1:])
        return ("W", k), ("V", k)
    if tok.startswith("j"):
        k = int(tok[1:])
        return ("V", k), ("W", k)
    if tok.startswith("h"):
        body = tok[1:]
        rev = body.endswith("~")
        e = int(body[:-1] if rev else body)
        h = e + quiver.num_edges if rev else e
        return ("V", quiver.h_out(h)), ("V", quiver.h_in(h))
    raise ValueError(f"unknown path token {tok!r}")


def _token_slot(tok: str, quiver: Quiver) -> int:
    """Index of the token's matrix in _slots(p): B by doubled edge, then i, then j."""
    if tok.startswith("c"):
        return quiver.num_h + int(tok[1:])
    if tok.startswith("j"):
        return quiver.num_h + quiver.n + int(tok[1:])
    body = tok[1:]
    rev = body.endswith("~")
    e = int(body[:-1] if rev else body)
    return e + quiver.num_edges if rev else e


def _slots(p: RepPoint) -> list[np.ndarray]:
    return p.B + p.i + p.j


def validate_path(path: PathSpec, quiver: Quiver, dims: DimensionVectors) -> None:
    if not path.tokens:
        raise ValueError("empty path")
    prev_target = None
    for tok in path.tokens:
        src, dst = _token_ends(tok, quiver)
        if prev_target is not None and src != prev_target:
            raise ValueError(f"path {path} is not composable at token {tok}")
        prev_target = dst
    first_src = _token_ends(path.tokens[0], quiver)[0]
    last_dst = _token_ends(path.tokens[-1], quiver)[1]
    if path.kind == "loop":
        if any(not t.startswith("h") for t in path.tokens):
            raise ValueError(f"loop {path} may only use edge tokens")
        if first_src != last_dst:
            raise ValueError(f"loop {path} is not closed")
    else:
        if not path.tokens[0].startswith("c") or not path.tokens[-1].startswith("j"):
            raise ValueError(f"admissible path {path} must run framing-to-framing")


def eval_path(p: RepPoint, path: PathSpec) -> np.ndarray:
    """Product of the token matrices, rightmost token applied first."""
    validate_path(path, p.quiver, p.dims)
    slots = _slots(p)
    mats = [slots[_token_slot(t, p.quiver)] for t in path.tokens]
    acc = mats[0]
    for m in mats[1:]:
        acc = m @ acc
    return acc


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
    tokens = []
    for e in range(quiver.num_edges):
        out, inn = quiver.edges[e]
        if dims.v[out] > 0 and dims.v[inn] > 0:
            tokens.append(f"h{e}")
            tokens.append(f"h{e}~")
    if kind == "admissible":
        for k in range(quiver.n):
            if dims.v[k] > 0 and dims.w[k] > 0:
                tokens.append(f"c{k}")
                tokens.append(f"j{k}")

    by_source: dict[tuple[str, int], list[str]] = {}
    for t in tokens:
        src, _ = _token_ends(t, quiver)
        by_source.setdefault(src, []).append(t)

    found = set()
    out_paths: list[PathSpec] = []

    def extend(seq: list[str], at: tuple[str, int], start: tuple[str, int]):
        if kind == "loop" and seq and at == start:
            canon = _canonical_rotation(tuple(seq))
            if canon not in found:
                found.add(canon)
                out_paths.append(PathSpec("loop", canon))
        if kind == "admissible" and seq and seq[-1].startswith("j"):
            spec = tuple(seq)
            if spec not in found:
                found.add(spec)
                out_paths.append(PathSpec("admissible", spec))
        if len(seq) >= max_len:
            return
        for t in by_source.get(at, ()):
            if kind == "loop" and not t.startswith("h"):
                continue
            if kind == "admissible" and not seq and not t.startswith("c"):
                continue
            _, dst = _token_ends(t, quiver)
            seq.append(t)
            extend(seq, dst, start)
            seq.pop()

    if kind == "loop":
        starts = [("V", k) for k in range(quiver.n) if dims.v[k] > 0]
    else:
        starts = [("W", k) for k in range(quiver.n) if dims.w[k] > 0 and dims.v[k] > 0]
    for s in starts:
        extend([], s, s)

    out_paths.sort(key=lambda ps: (len(ps.tokens), ps.tokens))
    return tuple(out_paths)


@functools.lru_cache(maxsize=128)
def _prefix_walk(quiver: Quiver, dims: DimensionVectors, max_len: int,
                 kind: str) -> tuple[tuple[int, ...], ...]:
    """Depth-first walk over enumerate_paths(quiver, dims, max_len, kind) as
    three flat tuples (depth, slot, out): step t sets level depth[t] of the
    product stack to the token matrix at slot[t] applied after level
    depth[t] - 1, and out[t] is the index of the path ending there, or -1."""
    paths = enumerate_paths(quiver, dims, max_len, kind)
    depth: list[int] = []
    slot: list[int] = []
    out: list[int] = []
    prev: tuple[str, ...] = ()
    # in lexicographic order each path shares its longest common prefix with
    # the path before it, and no path follows one that extends it
    for n in sorted(range(len(paths)), key=lambda n: paths[n].tokens):
        validate_path(paths[n], quiver, dims)
        tokens = paths[n].tokens
        common = 0
        while common < min(len(prev), len(tokens)) and prev[common] == tokens[common]:
            common += 1
        for d in range(common, len(tokens)):
            depth.append(d)
            slot.append(_token_slot(tokens[d], quiver))
            out.append(n if d == len(tokens) - 1 else -1)
        prev = tokens
    return tuple(depth), tuple(slot), tuple(out)


def _path_products(p: RepPoint, max_len: int, kind: str):
    """Yield (index in enumerate_paths, eval_path product) for every path,
    in walk order."""
    slots = _slots(p)
    acc: list[np.ndarray | None] = [None] * max_len
    for d, s, n in zip(*_prefix_walk(p.quiver, p.dims, max_len, kind)):
        acc[d] = slots[s] if d == 0 else slots[s] @ acc[d - 1]
        if n >= 0:
            yield n, acc[d]


def _size(m: np.ndarray, kind: str) -> float:
    if kind == "loop":
        return abs(complex(np.trace(m)))
    return float(np.abs(m).max(initial=0.0))


def invariant_sizes(p: RepPoint, max_len: int, kind: str) -> list[float]:
    """invariant_size of every path of enumerate_paths(..., max_len, kind), in its order."""
    sizes = [0.0] * len(enumerate_paths(p.quiver, p.dims, max_len, kind))
    for n, m in _path_products(p, max_len, kind):
        sizes[n] = _size(m, kind)
    return sizes


def fingerprint_labels(quiver: Quiver, dims: DimensionVectors, max_len: int) -> tuple[str, ...]:
    labels = []
    for ps in enumerate_paths(quiver, dims, max_len, "loop"):
        labels.append(f"{ps}[tr]:re")
        labels.append(f"{ps}[tr]:im")
    for ps in enumerate_paths(quiver, dims, max_len, "admissible"):
        k_start = int(ps.tokens[0][1:])
        k_end = int(ps.tokens[-1][1:])
        for r in range(dims.w[k_end]):
            for c in range(dims.w[k_start]):
                labels.append(f"{ps}[{r},{c}]:re")
                labels.append(f"{ps}[{r},{c}]:im")
    return tuple(labels)


def fingerprint(p: RepPoint, max_len: int) -> np.ndarray:
    """Canonically ordered vector of loop traces and admissible-path entries,
    real and imaginary parts interleaved."""
    blocks: list[np.ndarray] = []
    for kind in ("loop", "admissible"):
        part = [None] * len(enumerate_paths(p.quiver, p.dims, max_len, kind))
        for n, m in _path_products(p, max_len, kind):
            part[n] = np.trace(m) if kind == "loop" else m
        blocks.extend(part)
    if not blocks:
        return np.zeros(0)
    return np.concatenate([np.ravel(b) for b in blocks]).view(np.float64)


def fingerprint_distance(p: RepPoint, q: RepPoint, max_len: int) -> float:
    return float(np.linalg.norm(fingerprint(p, max_len) - fingerprint(q, max_len)))


def nilpotency_bound(dims: DimensionVectors) -> int:
    return 2 * sum(dims.v)


def is_nilpotent(p: RepPoint) -> bool:
    """True when every invariant up to the decision bound is below CHECK_TOL."""
    bound = nilpotency_bound(p.dims)
    for kind in ("loop", "admissible"):
        for _, m in _path_products(p, bound, kind):
            if _size(m, kind) > CHECK_TOL:
                return False
    return True


def path_escape_exponent(path: PathSpec) -> int:
    """Predicted blow-up order: reversed-edge count plus j-hop count."""
    return sum(1 for t in path.tokens if t.startswith("h") and t.endswith("~")
               or t.startswith("j"))


def invariant_size(p: RepPoint, path: PathSpec) -> float:
    return _size(eval_path(p, path), path.kind)


@dataclass
class EscapeStudy:
    path: PathSpec
    expected_exponent: int
    slope: float
    fit_residual: float
    rows: list[tuple[float, float]]
    used: int


# hbar values at which the escape suite and the escape command fit the slope
ESCAPE_GRID = (0.04, 0.02, 0.01, 0.005)


def escape_slope(p0: RepPoint, A: RepPoint, hbar_grid,
                 path: PathSpec) -> EscapeStudy:
    """Fit log|invariant| against log hbar along the algebraic limit family.

    The limit representative at each hbar is built in closed form; since the
    invariant is complex-gauge invariant, no moment solve is needed.  The
    invariant must not vanish at the slice point p0 + A.  Values outside
    INVARIANT_RANGE are dropped from the fit (floor and overflow guards).
    """
    from .conformal import conformal_point

    ref_val = invariant_size(p0 + A, path)
    if ref_val <= ZERO_INVARIANT_TOL:
        raise ZeroInvariant(
            f"invariant of {path} vanishes at the slice point ({ref_val:.3e})")
    rows = [(float(h), invariant_size(conformal_point(p0, A, h), path))
            for h in sorted(hbar_grid, reverse=True)]
    lo, hi = INVARIANT_RANGE
    pts = [(h, v) for h, v in rows if lo < v < hi]
    if len(pts) < 2:
        raise ZeroInvariant(f"not enough usable invariant values along {path}")
    xs = np.log([h for h, _ in pts])
    ys = np.log([v for _, v in pts])
    coef, res = np.polyfit(xs, ys, 1, full=True)[0:2]
    fit_res = float(res[0]) if len(res) else 0.0
    return EscapeStudy(path=path, expected_exponent=path_escape_exponent(path),
                       slope=float(coef[0]), fit_residual=fit_res, rows=rows,
                       used=len(pts))
