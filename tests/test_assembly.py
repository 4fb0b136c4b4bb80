import numpy as np
import pytest
import scipy.linalg

from dgprecond.mesh import (
    BOUNDARY,
    build_initial_mesh,
    build_hierarchy,
    assign_coefficient,
    edge_weights,
)
from dgprecond.assembly import (
    IP0,
    IP1,
    MethodParams,
    p1_gradients,
    assemble_dg,
    assemble_conforming,
    assemble_rhs,
    energy_norm,
    symmetric_part,
    drop_tiny,
    export_coordinate,
)

# degree-5 quadrature on the reference triangle (barycentric points, weights)
_A = (6.0 - np.sqrt(15.0)) / 21.0
_B = (6.0 + np.sqrt(15.0)) / 21.0
TRI_QUAD = [
    ((1 / 3, 1 / 3, 1 / 3), 9.0 / 40.0),
    ((_A, _A, 1 - 2 * _A), (155.0 - np.sqrt(15.0)) / 1200.0),
    ((_A, 1 - 2 * _A, _A), (155.0 - np.sqrt(15.0)) / 1200.0),
    ((1 - 2 * _A, _A, _A), (155.0 - np.sqrt(15.0)) / 1200.0),
    ((_B, _B, 1 - 2 * _B), (155.0 + np.sqrt(15.0)) / 1200.0),
    ((_B, 1 - 2 * _B, _B), (155.0 + np.sqrt(15.0)) / 1200.0),
    ((1 - 2 * _B, _B, _B), (155.0 + np.sqrt(15.0)) / 1200.0),
]

_GX, _GW = np.polynomial.legendre.leggauss(5)
EDGE_QUAD = list(zip(0.5 * (_GX + 1.0), 0.5 * _GW))  # 5-point Gauss on [0,1]


def _p1_coeffs(pts, vals):
    """Affine coefficients (a, b, c) with u(x,y) = a x + b y + c from the
    three nodal values; independent of the library gradient formula."""
    M = np.column_stack([pts[:, 0], pts[:, 1], np.ones(3)])
    return np.linalg.solve(M, vals)


def oracle_form(mesh, coeff, weights, params, u, w):
    """Brute-force quadrature evaluation of the bilinear form a(u, w)."""
    theta, alpha = params.theta, params.alpha
    total = 0.0
    co_u, co_w = {}, {}
    for t in range(mesh.n_triangles):
        pts = mesh.vertices[mesh.triangles[t]]
        co_u[t] = _p1_coeffs(pts, u[3 * t : 3 * t + 3])
        co_w[t] = _p1_coeffs(pts, w[3 * t : 3 * t + 3])
        area = mesh.triangle_area(t)
        grad_dot = co_u[t][:2] @ co_w[t][:2]
        for _, qw in TRI_QUAD:
            total += coeff.kappa[t] * area * qw * grad_dot

    def val(c, x, y):
        return c[0] * x + c[1] * y + c[2]

    for e in range(mesh.n_edges):
        tp, tm = mesh.edge_plus[e], mesh.edge_minus[e]
        n = mesh.edge_normal[e]
        length = mesh.edge_length[e]
        p0 = mesh.vertices[mesh.edge_vertices[e, 0]]
        p1 = mesh.vertices[mesh.edge_vertices[e, 1]]
        ke = weights.kappa_e[e]
        if tm == BOUNDARY:
            flux_u = coeff.kappa[tp] * co_u[tp][:2] @ n
            flux_w = coeff.kappa[tp] * co_w[tp][:2] @ n
            jump = lambda c, x, y: val(c, x, y)
            sides = (tp,)
        else:
            beta = weights.beta[e]
            kp, km = coeff.kappa[tp], coeff.kappa[tm]
            flux_u = (beta * kp * co_u[tp][:2] + (1 - beta) * km * co_u[tm][:2]) @ n
            flux_w = (beta * kp * co_w[tp][:2] + (1 - beta) * km * co_w[tm][:2]) @ n
            jump = lambda c_p, c_m, x, y: val(c_p, x, y) - val(c_m, x, y)
        mean_ju = mean_jw = 0.0
        for s, qw in EDGE_QUAD:
            x, y = (1 - s) * p0 + s * p1
            if tm == BOUNDARY:
                ju, jw = val(co_u[tp], x, y), val(co_w[tp], x, y)
            else:
                ju = jump(co_u[tp], co_u[tm], x, y)
                jw = jump(co_w[tp], co_w[tm], x, y)
            total += length * qw * (-flux_u * jw + theta * flux_w * ju)
            if params.variant == IP1:
                total += length * qw * alpha / length * ke * ju * jw
            else:
                mean_ju += qw * ju
                mean_jw += qw * jw
        if params.variant == IP0:
            total += length * alpha / length * ke * mean_ju * mean_jw
    return total


@pytest.fixture(scope="module")
def setting():
    mesh = build_initial_mesh()
    coeff = assign_coefficient(mesh, 1e-3)
    weights = edge_weights(mesh, coeff)
    return mesh, coeff, weights


@pytest.mark.parametrize("theta", [-1, 0, 1])
@pytest.mark.parametrize("variant", [IP0, IP1])
def test_matrix_matches_quadrature_oracle(setting, theta, variant):
    mesh, coeff, weights = setting
    params = MethodParams(theta=theta, alpha=8.0, variant=variant)
    A = assemble_dg(mesh, coeff, weights, params)
    rng = np.random.default_rng(42)
    scale = np.abs(A).max()
    for _ in range(5):
        u = rng.standard_normal(mesh.n_dofs)
        w = rng.standard_normal(mesh.n_dofs)
        exact = oracle_form(mesh, coeff, weights, params, u, w)
        assert w @ (A @ u) == pytest.approx(exact, rel=1e-10, abs=1e-10 * scale)


@pytest.mark.parametrize("theta", [-1, 0, 1])
@pytest.mark.parametrize("variant", [IP0, IP1])
def test_conforming_energy_identity(setting, theta, variant):
    # on a continuous function all jump terms vanish, leaving the P1 energy
    mesh, coeff, weights = setting
    params = MethodParams(theta=theta, alpha=8.0, variant=variant)
    A = assemble_dg(mesh, coeff, weights, params)
    A_c = assemble_conforming(mesh, coeff)
    vi = mesh.interior_vertices
    rng = np.random.default_rng(3)
    uc = rng.standard_normal(len(vi))
    nodal = np.zeros(mesh.n_vertices)
    nodal[vi] = uc
    u = nodal[mesh.triangles].ravel()
    assert u @ (A @ u) == pytest.approx(uc @ (A_c @ uc), rel=1e-12)


def test_sipg_symmetric_positive_definite(setting):
    mesh, coeff, weights = setting
    A = assemble_dg(mesh, coeff, weights, MethodParams(-1, 8.0, IP0))
    assert abs(A - A.T).max() < 1e-12 * np.abs(A).max()
    eigs = scipy.linalg.eigvalsh(A.toarray())
    assert eigs[0] > 0


@pytest.mark.parametrize("theta", [0, 1])
def test_nonsymmetric_symmetric_part_spd(setting, theta):
    mesh, coeff, weights = setting
    A = assemble_dg(mesh, coeff, weights, MethodParams(theta, 8.0, IP1))
    assert abs(A - A.T).max() > 0
    A_S = symmetric_part(A)
    assert abs(A_S - A_S.T).max() == 0
    eigs = scipy.linalg.eigvalsh(A_S.toarray())
    assert eigs[0] > 0


def test_ip0_ip1_differ_only_in_penalty(setting):
    # consistency terms are identical; the gap is symmetric positive
    # semidefinite (extra penalty on the linear part of the jump)
    mesh, coeff, weights = setting
    A0 = assemble_dg(mesh, coeff, weights, MethodParams(-1, 8.0, IP0))
    A1 = assemble_dg(mesh, coeff, weights, MethodParams(-1, 8.0, IP1))
    D = (A1 - A0).toarray()
    assert np.allclose(D, D.T)
    eigs = scipy.linalg.eigvalsh(D)
    assert eigs[0] > -1e-12 * np.abs(A1).max()
    assert eigs[-1] > 1.0  # the penalties genuinely differ


def test_p1_gradients_exact():
    mesh = build_initial_mesh()
    grads = p1_gradients(mesh)
    rng = np.random.default_rng(0)
    for t in rng.integers(0, mesh.n_triangles, size=5):
        pts = mesh.vertices[mesh.triangles[t]]
        for i in range(3):
            vals = np.zeros(3)
            vals[i] = 1.0
            c = _p1_coeffs(pts, vals)
            assert np.allclose(grads[t, i], c[:2], atol=1e-13)


def test_rhs_exact_for_linear_f():
    mesh = build_initial_mesh()
    f = lambda x, y: 1.0 + 2.0 * x - 3.0 * y
    b = assemble_rhs(mesh, f)
    # exact integral of f * phi via degree-5 triangle quadrature
    exact = np.zeros(mesh.n_dofs)
    for t in range(mesh.n_triangles):
        pts = mesh.vertices[mesh.triangles[t]]
        area = mesh.triangle_area(t)
        for lam, qw in TRI_QUAD:
            x, y = np.asarray(lam) @ pts
            for i in range(3):
                exact[3 * t + i] += area * qw * f(x, y) * lam[i]
    assert np.allclose(b, exact, rtol=1e-12, atol=1e-14)


def test_rhs_converges_for_smooth_f():
    f = lambda x, y: np.sin(x) * np.cos(y)
    errs = []
    for level in (0, 1):
        mesh = build_hierarchy(level).finest
        b = assemble_rhs(mesh, f)
        exact = np.zeros(mesh.n_dofs)
        for t in range(mesh.n_triangles):
            pts = mesh.vertices[mesh.triangles[t]]
            area = mesh.triangle_area(t)
            for lam, qw in TRI_QUAD:
                x, y = np.asarray(lam) @ pts
                for i in range(3):
                    exact[3 * t + i] += area * qw * f(x, y) * lam[i]
        errs.append(np.abs(b - exact).max())
    assert errs[1] < errs[0] / 8.0  # at least cubic local decay


def test_energy_norm_matches_quadratic_form(setting):
    mesh, coeff, weights = setting
    rng = np.random.default_rng(11)
    u = rng.standard_normal(mesh.n_dofs)
    # full jumps dominate projected jumps
    assert energy_norm(mesh, coeff, weights, u, "DG1") >= energy_norm(
        mesh, coeff, weights, u, "DG0"
    )
    with pytest.raises(ValueError):
        energy_norm(mesh, coeff, weights, u, "DG2")
    # conforming injection: both variants reduce to the weighted H1 seminorm
    vi = mesh.interior_vertices
    nodal = np.zeros(mesh.n_vertices)
    nodal[vi] = rng.standard_normal(len(vi))
    uc = nodal[mesh.triangles].ravel()
    A_c = assemble_conforming(mesh, coeff)
    ref = np.sqrt(nodal[vi] @ (A_c @ nodal[vi]))
    assert energy_norm(mesh, coeff, weights, uc, "DG0") == pytest.approx(ref, rel=1e-12)
    assert energy_norm(mesh, coeff, weights, uc, "DG1") == pytest.approx(ref, rel=1e-12)


def test_variant_guards(setting):
    mesh, coeff, weights = setting
    assert assemble_dg(mesh, coeff, weights, MethodParams(-1, 8.0, IP0)).shape == (
        mesh.n_dofs,
        mesh.n_dofs,
    )


def test_method_params_validation():
    with pytest.raises(ValueError):
        MethodParams(theta=2, alpha=8.0)
    with pytest.raises(ValueError):
        MethodParams(theta=-1, alpha=0.0)
    with pytest.raises(ValueError):
        MethodParams(theta=-1, alpha=8.0, variant="IP2")


def test_drop_tiny_and_export(tmp_path, setting):
    mesh, coeff, weights = setting
    A = assemble_dg(mesh, coeff, weights, MethodParams(-1, 8.0, IP0))
    B = drop_tiny(A.copy(), rel=1e-14)
    assert np.abs((A - B).toarray()).max() <= 1e-14 * np.abs(A).max()
    path = tmp_path / "A.txt"
    export_coordinate(A, path)
    rows = np.loadtxt(path)
    assert rows.shape[1] == 3
    assert len(rows) == A.nnz
    import scipy.sparse as sp

    A2 = sp.csr_matrix(
        (rows[:, 2], (rows[:, 0].astype(int), rows[:, 1].astype(int))), shape=A.shape
    )
    assert abs(A - A2).max() < 1e-15 * np.abs(A).max()
