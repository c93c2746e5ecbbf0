"""Shared fixtures: preset setups are expensive (Newton solves), so cache them."""

import importlib.util
import pathlib

import numpy as np
import pytest

import quiverlim as ql
from quiverlim.config import CHECK_TOL, LEVEL_TOL, MAX_SLICE_ITER, moment_scale
from quiverlim.sampling import attracting_increment
from quiverlim.slices import moment_derivative_matrix

ROOT = pathlib.Path(__file__).resolve().parents[1]
_sweep_spec = importlib.util.spec_from_file_location(
    "verify_sweep", ROOT / "scripts" / "verify_sweep.py")
_sweep = importlib.util.module_from_spec(_sweep_spec)
_sweep_spec.loader.exec_module(_sweep)

# the quivers whose every suite is checked over seeds 0-11: the presets and
# the benchmark files that scripts/verify_sweep.py sweeps, named as it names them
COMMITTED_QUIVERS = _sweep.QUIVERS
BENCH_QUIVER_FILES = tuple(str(ROOT / spec) for spec in COMMITTED_QUIVERS
                           if spec.endswith(".json"))


def quiver_spec(spec):
    """A preset name as it is, a quiver file relative to the repository root."""
    return str(ROOT / spec) if spec.endswith(".json") else spec


def verify_pair(spec, seed):
    """(p0, A) as verify_run draws them for this seed: the scaling flow's
    limit of the seeded sample and the seeded attracting increment there."""
    quiver, dims, central, _ = ql.resolve_quiver_spec(quiver_spec(spec))
    smp = ql.sample_on_variety(quiver, dims, central, seed=seed)
    flow = ql.flow_limit(smp.point, central.sigma_array())
    basis = ql.bb_tangent_basis(flow.limit, flow.grading)
    return flow.limit, attracting_increment(basis, flow.grading, seed)


class Setup:
    """A preset together with its derived fixed-point data."""

    def __init__(self, name: str):
        self.name = name
        self.preset = ql.get_preset(name)
        self.quiver = self.preset.quiver
        self.dims = self.preset.dims
        self.central = self.preset.central
        self.p0 = self.preset.fixed_point()
        self.grading = ql.weight_grading(self.p0)
        self.basis = ql.bb_tangent_basis(self.p0, self.grading)
        self.full_basis = ql.tangent_basis(self.p0)

    def slice_point(self, seed: int = 11, scale: float = 0.3) -> ql.RepPoint:
        return ql.bb_slice_solve(self.basis, ql.seeded_increment(self.basis, seed, scale),
                                 self.grading)


_CACHE: dict[str, Setup] = {}


def get_setup(name: str) -> Setup:
    if name not in _CACHE:
        _CACHE[name] = Setup(name)
    return _CACHE[name]


@pytest.fixture(scope="session")
def tstar():
    return get_setup("tstar-p1")


@pytest.fixture(scope="session")
def a2star():
    return get_setup("a2-star")


@pytest.fixture(scope="session")
def a3star():
    return get_setup("a3-star")


@pytest.fixture(scope="session")
def kronecker():
    return get_setup("kronecker2")


@pytest.fixture(scope="session")
def tstar_sample(tstar):
    return ql.sample_on_variety(tstar.quiver, tstar.dims, tstar.central, seed=5)


@pytest.fixture(scope="session")
def a3star_sample(a3star):
    return ql.sample_on_variety(a3star.quiver, a3star.dims, a3star.central, seed=5)


@pytest.fixture(scope="session")
def verify_tstar(tmp_path_factory):
    """One full verification run on the smallest preset, reused by several tests."""
    out = tmp_path_factory.mktemp("verify_tstar")
    cfg = ql.RunConfig(quiver_file="tstar-p1", seed=0, output_dir=str(out))
    report, pipeline = ql.verify_run(cfg)
    ql.write_outputs(report, pipeline, str(out))
    return cfg, report, pipeline, out


def random_lie(dims, rng, scale=1.0, klass="general"):
    blocks = [scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
              for n in dims.v]
    if klass == "hermitian":
        blocks = [0.5 * (b + b.conj().T) for b in blocks]
    return ql.LieElement(dims, [np.asarray(b, dtype=complex) for b in blocks])


def linearized_operator(p, xi):
    """Literal formula, blockwise:
    L(p, xi)_k = sum_{h: in(h)=k} B_h (B_h^dag xi_k - xi_out B_h^dag)
                 - (B_hbar^dag xi_out - xi_k B_hbar^dag) B_hbar
                 + i_k i_k^dag xi_k + xi_k j_k^dag j_k,
    half the derivative of xi -> -2i mu_R(exp(xi).p) at 0 (see newton_derivative)."""
    q = p.quiver
    blocks = []
    for k in range(q.n):
        acc = np.zeros((p.dims.v[k], p.dims.v[k]), dtype=complex)
        xk = xi.blocks[k]
        for h in q.h_into(k):
            xo = xi.blocks[q.h_out(h)]
            bh = p.B[h]
            bb = p.B[q.h_bar(h)]
            acc += bh @ (bh.conj().T @ xk - xo @ bh.conj().T)
            acc -= (bb.conj().T @ xo - xk @ bb.conj().T) @ bb
        acc += p.i[k] @ p.i[k].conj().T @ xk + xk @ p.j[k].conj().T @ p.j[k]
        blocks.append(acc)
    return ql.LieElement(p.dims, blocks)


def newton_derivative(p, xi):
    """Full derivative of xi -> -2i mu_R(exp(xi).p) at 0: equals L + L^dag."""
    return ql.dmoment_real_scaled(p, ql.inf_action(p, xi))


def escape_profile(p0, A, grading, hbar_grid, max_len):
    """(hbar, largest fingerprint magnitude) along the algebraic limit family,
    hbar decreasing.  Non-nilpotent slice points must blow up down the tail."""
    rows = []
    for h in sorted(hbar_grid, reverse=True):
        f = ql.fingerprint(ql.conformal_point(p0, A, h, grading), max_len)
        rows.append((float(h), float(np.abs(f).max(initial=0.0))))
    return rows


def fingerprint_distance(p, q, max_len):
    return float(np.linalg.norm(ql.fingerprint(p, max_len) - ql.fingerprint(q, max_len)))


def word_grams(p, depth=3):
    """Per vertex k, the Gram matrix of the vectors of V_k reached from the
    columns of every i_m and j_m^dag by words of length <= depth in the B_h
    and B_h^dag, listed in a fixed order.  A unitary gauge transformation
    moves every such vector by its vertex's block, so the Gram matrices are
    unchanged; on a stable point the vectors span each V_k, so equal Gram
    matrices mean equal points up to unitary gauge."""
    q = p.quiver
    layer = [(k, col) for k in range(q.n) for m in (p.i[k], p.j[k].conj().T)
             for col in m.T]
    found = list(layer)
    for _ in range(depth):
        layer = [(end, mat @ vec) for k, vec in layer for h in range(q.num_h)
                 for start, end, mat in ((q.h_out(h), q.h_in(h), p.B[h]),
                                         (q.h_in(h), q.h_out(h), p.B[h].conj().T))
                 if start == k]
        found += layer
    grams = []
    for k in range(q.n):
        vecs = np.array([v for m, v in found if m == k]).reshape(-1, p.dims.v[k])
        grams.append(vecs.conj() @ vecs.T)
    return grams


def gauge_distance(p, q, depth=3):
    """Largest entry of the difference of word_grams(p) and word_grams(q)."""
    return max((float(np.abs(a - b).max(initial=0.0))
                for a, b in zip(word_grams(p, depth), word_grams(q, depth))),
               default=0.0)


def _pairs_matrix(rows, shape):
    m = np.zeros(shape, dtype=complex)
    for r, row in enumerate(rows):
        for c, (re, im) in enumerate(row):
            m[r, c] = complex(re, im)
    return m


def rep_from_dict(quiver, dims, data):
    """Inverse of RepPoint.to_dict."""
    p = ql.RepPoint.zeros(quiver, dims)
    return ql.RepPoint(quiver, dims,
                       [_pairs_matrix(m, b.shape) for m, b in zip(data["B"], p.B)],
                       [_pairs_matrix(m, b.shape) for m, b in zip(data["i"], p.i)],
                       [_pairs_matrix(m, b.shape) for m, b in zip(data["j"], p.j)])


def fingerprint_by_paths(p, max_len):
    """fingerprint with one eval_path per enumerated path."""
    vals = []
    for ps in ql.enumerate_paths(p.quiver, p.dims, max_len, "loop"):
        tr = complex(np.trace(ql.eval_path(p, ps)))
        vals.extend((tr.real, tr.imag))
    for ps in ql.enumerate_paths(p.quiver, p.dims, max_len, "admissible"):
        m = ql.eval_path(p, ps)
        for x in m.ravel():
            vals.extend((x.real, x.imag))
    return np.array(vals, dtype=float)


def nilpotency_bound(dims):
    """Path length that decides nilpotency on the path side: 2 sum(v) tokens."""
    return 2 * sum(dims.v)


def is_nilpotent_by_paths(p):
    """Every loop and admissible path up to nilpotency_bound tokens has
    invariant_size at most CHECK_TOL, checked one path at a time."""
    bound = nilpotency_bound(p.dims)
    for kind in ("loop", "admissible"):
        for ps in ql.enumerate_paths(p.quiver, p.dims, bound, kind):
            if ql.invariant_size(p, ps) > CHECK_TOL:
                return False
    return True


def nilpotent_by_paths(points):
    """is_nilpotent_by_paths of each of several points of one quiver and
    dimension vectors: every path is validated once and its product taken
    once on the stacked slots of all the points.  A path reuses the partial
    products of the prefix it shares with the path before it (enumerate_paths
    lists paths depth first), each formed as slots[s] @ acc in path order."""
    p = points[0]
    slots = p.layout.slot_views(np.stack([q.vec for q in points]))
    nilpotent = np.ones(len(points), dtype=bool)
    for kind in ("loop", "admissible"):
        prev, prods = [], []
        for ps in ql.enumerate_paths(p.quiver, p.dims, nilpotency_bound(p.dims), kind):
            order = ql.invariants.validate_path(ps, p.quiver, p.dims)
            shared = 0
            while shared < min(len(prev), len(order)) and prev[shared] == order[shared]:
                shared += 1
            del prods[shared:]
            for s in order[shared:]:
                prods.append(slots[s] @ prods[-1] if prods else slots[s])
            prev, m = order, prods[-1]
            if kind == "loop":
                sizes = np.abs(np.trace(m, axis1=-2, axis2=-1))
            else:
                sizes = np.abs(m).max(axis=(-2, -1), initial=0.0)
            nilpotent &= sizes <= CHECK_TOL
    return [bool(x) for x in nilpotent]


def unitary_defect(g):
    """Largest entry of g^dag g - Id over the blocks of a gauge element."""
    dev = 0.0
    for gk in g.g:
        dev = max(dev, float(np.abs(gk.conj().T @ gk - np.eye(gk.shape[0])).max(initial=0.0)))
    return dev


def gauge_cond(g):
    """The largest condition number of a block of a gauge element, at least 1."""
    return max((float(np.linalg.cond(gk)) for gk in g.g if gk.size), default=1.0)


def power_blocks(grading, s, sign=1):
    """Q_k diag(s^(sign w)) Q_k^H on every vertex k, from qmats and weights:
    the gauge power s^D of the grading (its inverse for sign=-1), no LU."""
    return [(Q * complex(s) ** (sign * np.array(ws, dtype=int))) @ Q.conj().T
            for Q, ws in zip(grading.qmats, grading.weights)]


def act_reference(grading, s, p):
    """s^D cstar_act(s, p) slot by slot, conjugated by power_blocks."""
    g, ginv, x = power_blocks(grading, s), power_blocks(grading, s, -1), ql.cstar_act(s, p)
    q = p.quiver
    return ql.RepPoint(
        q, p.dims,
        [g[q.h_in(h)] @ x.B[h] @ ginv[q.h_out(h)] for h in range(q.num_h)],
        [g[k] @ x.i[k] for k in range(q.n)],
        [x.j[k] @ ginv[k] for k in range(q.n)])


def history_rows(report):
    """SolveReport.history as dicts."""
    return [{"iter": it, "residual": res, "damping": damp}
            for it, res, damp in report.history]


def convergence_rows(report):
    """ConvergenceReport.rows as dicts."""
    return [{"R": r, "distance": d} for r, d in report.rows]


def component_norm(grading, xi, m):
    """Norm of the adjoint-weight-m part of xi, split in the generator's
    per-vertex eigenbases."""
    blocks = []
    for q, ws, b in zip(grading.qmats, grading.weights, xi.blocks):
        ws = np.array(ws, dtype=int)
        eig = q.conj().T @ b @ q
        kept = np.where((ws[:, None] - ws[None, :]) == m, eig, 0.0)
        blocks.append(q @ kept @ q.conj().T)
    return ql.LieElement(grading.dims, blocks).norm()


def central_deviation_by_blocks(x):
    """The per-block body of central_deviation: the largest entry of each
    block minus the mean of its diagonal times the identity."""
    dev = 0.0
    for b in x.blocks:
        if b.shape[0] == 0:
            continue
        scal = np.trace(b) / b.shape[0]
        dev = max(dev, float(np.abs(b - scal * np.eye(b.shape[0])).max(initial=0.0)))
    return dev


def max_deviation(x, klass):
    """Distance of the blocks of x from the hermitian or skew-hermitian cone."""
    dev = 0.0
    for b in x.blocks:
        if klass == "hermitian":
            dev = max(dev, float(np.abs(b - b.conj().T).max(initial=0.0)))
        elif klass == "skew":
            dev = max(dev, float(np.abs(b + b.conj().T).max(initial=0.0)))
    return dev


def project_complex_level_full_steps(p, c_values):
    """The complex-level projection as its own loop: full min-norm Newton
    steps with no line search, stopping at LEVEL_TOL moment_scale of the
    iterate.  project_complex_level must return the same bytes."""
    target = ql.central_lie(np.asarray(c_values, dtype=complex), p.dims).flatten()
    cur = p.copy()
    for _ in range(MAX_SLICE_ITER):
        D = moment_derivative_matrix(cur)
        res = 0.5 * (D @ cur.vec) - target
        norm = float(np.linalg.norm(res))
        if norm <= LEVEL_TOL * moment_scale(cur):
            return cur
        delta, *_ = np.linalg.lstsq(D, -res, rcond=None)
        cur = cur + ql.RepPoint.from_flat(p.quiver, p.dims, delta)
    raise ql.MaxIterations(f"full-step projection did not converge (residual {norm:.3e})")


# -- per-slot reference bodies ----------------------------------------------
# The slot-wise maps as they were written before the layout's slot table,
# straight from the Quiver index helpers; tests/test_operators.py requires
# the library maps to equal them exactly.

def conjugate_by_slots(lay, slots, left, right):
    """The per-slot conjugation body: left[r] @ X @ right[c] on every slot X
    from space c to space r, no factor on a framing side."""
    out = []
    for m, (r, c) in zip(slots, lay.spaces):
        if r >= 0:
            m = left[r] @ m
        if c >= 0:
            m = m @ right[c]
        out.append(m)
    return out


def stack_by_slots(lay, slots):
    """The block-form stack written out slot by slot: lines V_0.. then W_0..,
    slot X from space c to space r at rows r and columns c, on the first
    layer that no earlier slot with the same space pair took."""
    v, w = lay.dims.v, lay.dims.w
    first = {k: sum(v[:k]) for k in range(len(v))}
    first.update({~k: sum(v) + sum(w[:k]) for k in range(len(w))})
    size = sum(v) + sum(w)
    taken = {}
    placed = []
    for m, (r, c) in zip(slots, lay.spaces):
        layer = taken.get((r, c), 0)
        taken[(r, c)] = layer + 1
        placed.append((layer, first[r], first[c], m))
    stack = np.zeros((max(taken.values()), size, size), dtype=complex)
    for layer, r0, c0, m in placed:
        stack[layer, r0:r0 + m.shape[0], c0:c0 + m.shape[1]] = m
    return stack


def gauge_act_by_slots(g, p):
    q = p.quiver
    ginv = [np.linalg.inv(gk) if gk.size else gk.copy() for gk in g.g]
    return ql.RepPoint(
        p.quiver, p.dims,
        [g.g[q.h_in(h)] @ p.B[h] @ ginv[q.h_out(h)] for h in range(q.num_h)],
        [g.g[k] @ p.i[k] for k in range(q.n)],
        [p.j[k] @ ginv[k] for k in range(q.n)])


def twistor_rotate_by_slots(p, xi):
    xi = complex(xi)
    q = p.quiver
    B = [p.B[h] - q.h_eps(h) * xi * p.B[q.h_bar(h)].conj().T
         for h in range(q.num_h)]
    i_new = [ik - xi * jk.conj().T for ik, jk in zip(p.i, p.j)]
    j_new = [jk + xi * ik.conj().T for ik, jk in zip(p.i, p.j)]
    return ql.RepPoint(p.quiver, p.dims, B, i_new, j_new)


def conformal_point_by_slots(p0, A, hbar):
    """The closed form of conformal_point, without its slice checks."""
    hb = complex(hbar)
    q = p0.quiver
    E = q.num_edges
    B = []
    for h in range(q.num_h):
        if h < E:
            B.append(p0.B[h] + A.B[h] - hb * p0.B[h + E].conj().T)
        else:
            B.append((p0.B[h] + A.B[h]) / hb + p0.B[h - E].conj().T)
    i_new = [p0.i[k] + A.i[k] - hb * p0.j[k].conj().T for k in range(q.n)]
    j_new = [(p0.j[k] + A.j[k]) / hb + p0.i[k].conj().T for k in range(q.n)]
    return ql.RepPoint(p0.quiver, p0.dims, B, i_new, j_new)


def _to_eigenbasis(grading, p):
    q, Q = p.quiver, grading.qmats
    return ql.RepPoint(
        q, p.dims,
        [Q[q.h_in(h)].conj().T @ p.B[h] @ Q[q.h_out(h)] for h in range(q.num_h)],
        [Q[k].conj().T @ p.i[k] for k in range(q.n)],
        [p.j[k] @ Q[k] for k in range(q.n)])


def _from_eigenbasis(grading, p):
    q, Q = p.quiver, grading.qmats
    return ql.RepPoint(
        q, p.dims,
        [Q[q.h_in(h)] @ p.B[h] @ Q[q.h_out(h)].conj().T for h in range(q.num_h)],
        [Q[k] @ p.i[k] for k in range(q.n)],
        [p.j[k] @ Q[k].conj().T for k in range(q.n)])


def _slot_weight_arrays(grading):
    q, dims, weights = grading.quiver, grading.dims, grading.weights
    B = []
    for h in range(q.num_h):
        a, b = q.h_out(h), q.h_in(h)
        shift = 0 if h < q.num_edges else 1
        wr = np.array(weights[b], dtype=float)[:, None]
        wc = np.array(weights[a], dtype=float)[None, :]
        B.append((wr - wc + shift) * np.ones((len(weights[b]), len(weights[a]))))
    i_w = [np.array(weights[k], dtype=float)[:, None] * np.ones((dims.v[k], dims.w[k]))
           if dims.v[k] else np.zeros((0, dims.w[k])) for k in range(q.n)]
    j_w = [(1.0 - np.array(weights[k], dtype=float)[None, :]) * np.ones((dims.w[k], dims.v[k]))
           if dims.v[k] else np.zeros((dims.w[k], 0)) for k in range(q.n)]
    return ql.RepPoint(q, dims, B, i_w, j_w)


def grade_increment_by_slots(q, grading):
    eig = _to_eigenbasis(grading, q)
    wts = _slot_weight_arrays(grading)
    parts = {}
    all_w = set()
    for arr in list(wts.B) + list(wts.i) + list(wts.j):
        all_w.update(int(round(x)) for x in np.real(arr).ravel())
    for w in sorted(all_w):
        def pick(mat, warr):
            return np.where(np.rint(np.real(warr)) == w, mat, 0.0)
        part = ql.RepPoint(
            q.quiver, q.dims,
            [pick(m, a) for m, a in zip(eig.B, wts.B)],
            [pick(m, a) for m, a in zip(eig.i, wts.i)],
            [pick(m, a) for m, a in zip(eig.j, wts.j)])
        parts[w] = _from_eigenbasis(grading, part)
    return parts


def positive_weight_project_by_slots(q, grading):
    eig = _to_eigenbasis(grading, q)
    wts = _slot_weight_arrays(grading)

    def pick(mat, warr):
        return np.where(np.real(warr) >= 1, mat, 0.0)

    kept = ql.RepPoint(q.quiver, q.dims,
                       [pick(m, a) for m, a in zip(eig.B, wts.B)],
                       [pick(m, a) for m, a in zip(eig.i, wts.i)],
                       [pick(m, a) for m, a in zip(eig.j, wts.j)])
    return _from_eigenbasis(grading, kept)


def inf_action_adjoint_by_vertex(p, incr):
    q = p.quiver
    blocks = []
    for k in range(q.n):
        acc = np.zeros((p.dims.v[k], p.dims.v[k]), dtype=complex)
        for h in q.h_into(k):
            hb = q.h_bar(h)
            acc += incr.B[h] @ p.B[h].conj().T - p.B[hb].conj().T @ incr.B[hb]
        acc += incr.i[k] @ p.i[k].conj().T - p.j[k].conj().T @ incr.j[k]
        blocks.append(acc)
    return ql.LieElement(p.dims, blocks)


def moment_real_by_vertex(p):
    q = p.quiver
    blocks = []
    for k in range(q.n):
        acc = np.zeros((p.dims.v[k], p.dims.v[k]), dtype=complex)
        for h in q.h_into(k):
            hb = q.h_bar(h)
            acc += p.B[h] @ p.B[h].conj().T - p.B[hb].conj().T @ p.B[hb]
        acc += p.i[k] @ p.i[k].conj().T - p.j[k].conj().T @ p.j[k]
        blocks.append(0.5j * acc)
    return ql.LieElement(p.dims, blocks)


def moment_complex_by_vertex(p):
    q = p.quiver
    blocks = []
    for k in range(q.n):
        acc = np.zeros((p.dims.v[k], p.dims.v[k]), dtype=complex)
        for h in q.h_into(k):
            acc += q.h_eps(h) * (p.B[h] @ p.B[q.h_bar(h)])
        acc += p.i[k] @ p.j[k]
        blocks.append(acc)
    return ql.LieElement(p.dims, blocks)


def dmu_complex_by_vertex(p, incr):
    qv = p.quiver
    blocks = []
    for k in range(qv.n):
        acc = np.zeros((p.dims.v[k], p.dims.v[k]), dtype=complex)
        for h in qv.h_into(k):
            hb = qv.h_bar(h)
            acc += qv.h_eps(h) * (p.B[h] @ incr.B[hb] + incr.B[h] @ p.B[hb])
        acc += p.i[k] @ incr.j[k] + incr.i[k] @ p.j[k]
        blocks.append(acc)
    return ql.LieElement(p.dims, blocks)


def dmoment_real_scaled_by_vertex(p, incr):
    q = p.quiver
    blocks = []
    for k in range(q.n):
        acc = np.zeros((p.dims.v[k], p.dims.v[k]), dtype=complex)
        for h in q.h_into(k):
            hb = q.h_bar(h)
            acc += incr.B[h] @ p.B[h].conj().T + p.B[h] @ incr.B[h].conj().T
            acc -= incr.B[hb].conj().T @ p.B[hb] + p.B[hb].conj().T @ incr.B[hb]
        acc += incr.i[k] @ p.i[k].conj().T + p.i[k] @ incr.i[k].conj().T
        acc -= incr.j[k].conj().T @ p.j[k] + p.j[k].conj().T @ incr.j[k]
        blocks.append(acc)
    return ql.LieElement(p.dims, blocks)
