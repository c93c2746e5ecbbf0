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


def eval_path(p: RepPoint, path: PathSpec) -> np.ndarray:
    """Product of the token matrices, rightmost token applied first."""
    mats = p.slots
    slots = validate_path(path, p.quiver, p.dims)
    acc = mats[slots[0]]
    for s in slots[1:]:
        acc = mats[s] @ acc
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
    return tuple(depth), tuple(slot), tuple(out)


def _path_products(p: RepPoint, max_len: int, kind: str):
    """Yield (index in enumerate_paths, eval_path product) for every path,
    in walk order."""
    slots = p.slots
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
