"""Shared fixtures: preset setups are expensive (Newton solves), so cache them."""

import numpy as np
import pytest

import quiverlim as ql


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
        rng = ql.make_rng(seed)
        n = self.basis.count()
        coeffs = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        return ql.bb_slice_solve(self.p0, self.basis.combine(coeffs), self.grading)


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
    return ql.LieElement(dims, [np.asarray(b, dtype=complex) for b in blocks], klass)


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
    return ql.LieElement(p.dims, blocks, "general")


def newton_derivative(p, xi):
    """Full derivative of xi -> -2i mu_R(exp(xi).p) at 0: equals L + L^dag."""
    return ql.dmoment_real_scaled(p, ql.inf_action(p, xi))


def escape_profile(p0, A, hbar_grid, max_len):
    """(hbar, largest fingerprint magnitude) along the algebraic limit family,
    hbar decreasing.  Non-nilpotent slice points must blow up down the tail."""
    rows = []
    for h in sorted(hbar_grid, reverse=True):
        f = ql.fingerprint(ql.conformal_point(p0, A, h), max_len)
        rows.append((float(h), float(np.abs(f).max(initial=0.0))))
    return rows


def unitary_defect(g):
    """Largest entry of g^dag g - Id over the blocks of a gauge element."""
    dev = 0.0
    for gk in g.g:
        dev = max(dev, float(np.abs(gk.conj().T @ gk - np.eye(gk.shape[0])).max(initial=0.0)))
    return dev


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


def max_deviation(x, klass):
    """Distance of the blocks of x from the hermitian or skew-hermitian cone."""
    dev = 0.0
    for b in x.blocks:
        if klass == "hermitian":
            dev = max(dev, float(np.abs(b - b.conj().T).max(initial=0.0)))
        elif klass == "skew":
            dev = max(dev, float(np.abs(b + b.conj().T).max(initial=0.0)))
    return dev
