import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import dgprecond.assembly as assembly
from dgprecond.mesh import (
    build_initial_mesh,
    build_hierarchy,
    assign_coefficient,
    edge_weights,
)
from dgprecond.assembly import (
    IP0,
    IP1,
    MethodParams,
    _gradients,
    apply_dg,
    assemble_dg,
    assemble_conforming,
    assemble_rhs,
    symmetric_part,
    edge_traces,
    element_stiffness,
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
        area = 0.5 * abs(np.linalg.det(np.column_stack([pts, np.ones(3)])))
        grad_dot = co_u[t][:2] @ co_w[t][:2]
        for _, qw in TRI_QUAD:
            total += coeff[t] * area * qw * grad_dot

    def val(c, x, y):
        return c[0] * x + c[1] * y + c[2]

    for e, bnd in enumerate(mesh.boundary_edge_mask):
        tp, tm = mesh.edge_occurrence[e] // 3
        n = mesh.edge_normal[e]
        length = mesh.edge_length[e]
        p0 = mesh.vertices[mesh.edge_vertices[e, 0]]
        p1 = mesh.vertices[mesh.edge_vertices[e, 1]]
        ke = weights.kappa_e[e]
        if bnd:
            flux_u = coeff[tp] * co_u[tp][:2] @ n
            flux_w = coeff[tp] * co_w[tp][:2] @ n
            jump = lambda c, x, y: val(c, x, y)
            sides = (tp,)
        else:
            beta = weights.beta[e]
            kp, km = coeff[tp], coeff[tm]
            flux_u = (beta * kp * co_u[tp][:2] + (1 - beta) * km * co_u[tm][:2]) @ n
            flux_w = (beta * kp * co_w[tp][:2] + (1 - beta) * km * co_w[tm][:2]) @ n
            jump = lambda c_p, c_m, x, y: val(c_p, x, y) - val(c_m, x, y)
        mean_ju = mean_jw = 0.0
        for s, qw in EDGE_QUAD:
            x, y = (1 - s) * p0 + s * p1
            if bnd:
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


@pytest.mark.parametrize("eps", [1e-14, 1e-5, 1.0, 1e5, 1e14])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_symmetric_part_is_exactly_symmetric(level, eps):
    # the stationary solve factors the CSC view of A_S^t as A_S
    mesh = build_hierarchy(level).finest
    coeff = assign_coefficient(mesh, eps)
    weights = edge_weights(mesh, coeff)
    for theta in (0, 1):
        A_S = symmetric_part(assemble_dg(mesh, coeff, weights, MethodParams(theta, 8.0, IP1)))
        A_t = A_S.T.tocsr()
        A_t.sort_indices()
        assert np.array_equal(A_t.indptr, A_S.indptr)
        assert np.array_equal(A_t.indices, A_S.indices)
        assert A_t.data.tobytes() == A_S.data.tobytes()


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
    grads = _gradients(mesh, mesh.triangle_areas()).transpose(2, 0, 1)
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
        area = 0.5 * abs(np.linalg.det(np.column_stack([pts, np.ones(3)])))
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
            area = 0.5 * abs(np.linalg.det(np.column_stack([pts, np.ones(3)])))
            for lam, qw in TRI_QUAD:
                x, y = np.asarray(lam) @ pts
                for i in range(3):
                    exact[3 * t + i] += area * qw * f(x, y) * lam[i]
        errs.append(np.abs(b - exact).max())
    assert errs[1] < errs[0] / 8.0  # at least cubic local decay


def test_variant_guards(setting):
    mesh, coeff, weights = setting
    assert assemble_dg(mesh, coeff, weights, MethodParams(-1, 8.0, IP0)).shape == (
        mesh.n_dofs,
        mesh.n_dofs,
    )


def test_method_params_validation():
    with pytest.raises(ValueError):
        MethodParams(theta=2, alpha=8.0)
    for alpha in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha must be finite and positive"):
            MethodParams(theta=-1, alpha=alpha)
    with pytest.raises(ValueError):
        MethodParams(theta=-1, alpha=8.0, variant="IP2")


def test_export_round_trips(tmp_path, setting):
    mesh, coeff, weights = setting
    A = assemble_dg(mesh, coeff, weights, MethodParams(-1, 8.0, IP0))
    path = tmp_path / "A.txt"
    export_coordinate(A, path)
    rows = np.loadtxt(path)
    assert rows.shape[1] == 3
    assert len(rows) == A.nnz
    A2 = sp.csr_matrix(
        (rows[:, 2], (rows[:, 0].astype(int), rows[:, 1].astype(int))), shape=A.shape
    )
    assert abs(A - A2).max() < 1e-15 * np.abs(A).max()


def _owns_exactly(a):
    """a is not a view of a larger buffer."""
    return a.base is None or a.base.nbytes == a.nbytes


def edge_blocks_6x6(mesh, weights, params):
    """(ne, 6, 6) edge terms on the plus then the minus dofs of each edge,
    -<{kappa grad v}, [w]> + theta <[v], {kappa grad w}> plus the penalty,
    from the traces of edge_traces and the flux of every side dof."""
    dofs, traces = edge_traces(mesh)
    side = np.where(mesh.boundary_edge_mask[:, None], (1.0, 0.0), (0.5, 0.5))
    grads = _gradients(mesh, mesh.triangle_areas()).transpose(2, 0, 1)
    normal_grad = np.einsum("edk,ek->ed", grads.reshape(-1, 2)[dofs], mesh.edge_normal)
    flux = np.repeat(weights.kappa_e[:, None] * side, 3, axis=1) * normal_grad
    mid = 0.5 * (traces[:, 0] + traces[:, 1])
    blocks = -mid[:, :, None] * flux[:, None, :]
    blocks += params.theta * flux[:, :, None] * mid[:, None, :]
    blocks *= mesh.edge_length[:, None, None]
    pen = params.alpha / mesh.edge_length * weights.kappa_e * mesh.edge_length
    points, wts = assembly._PENALTY_RULE[params.variant]
    jumps = [(1 - s) * traces[:, 0] + s * traces[:, 1] for s in points]
    blocks += sum(((w * pen)[:, None] * j)[:, :, None] * j[:, None, :]
                  for w, j in zip(wts, jumps))
    return blocks


def reference_assemble_dg(mesh, coeff, weights, params):
    """The DG matrix by a COO scatter of every element and edge block at
    its nodal dofs, duplicates summed by scipy, without the sums below 1e-14
    of the largest entry: the round-off left where an exact sum is 0."""
    n = mesh.n_dofs
    dofs, _ = edge_traces(mesh)
    tri_dofs = np.arange(n).reshape(-1, 3)
    rows = np.concatenate([np.repeat(tri_dofs, 3, axis=1).ravel(),
                           np.repeat(dofs, 6, axis=1).ravel()])
    cols = np.concatenate([np.tile(tri_dofs, 3).ravel(), np.tile(dofs, 6).ravel()])
    vals = np.concatenate([element_stiffness(mesh, coeff).ravel(),
                           edge_blocks_6x6(mesh, weights, params).ravel()])
    A = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    A.sum_duplicates()
    A.data[np.abs(A.data) < 1e-14 * np.abs(A.data).max()] = 0.0
    A.eliminate_zeros()
    return A


@pytest.mark.parametrize("eps", [1e-5, 1.0, 1e5])
@pytest.mark.parametrize("variant", [IP0, IP1])
@pytest.mark.parametrize("theta", [-1, 0, 1])
def test_block_pattern_matches_coo_scatter(theta, variant, eps):
    mesh = build_hierarchy(2).finest
    coeff = assign_coefficient(mesh, eps)
    weights = edge_weights(mesh, coeff)
    params = MethodParams(theta, 8.0, variant)
    A = assemble_dg(mesh, coeff, weights, params)
    ref = reference_assemble_dg(mesh, coeff, weights, params)
    assert A.has_canonical_format
    assert A.indices.dtype == np.int32 and A.indptr.dtype == np.int32
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    assert np.abs(A.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()


@pytest.mark.parametrize("variant", [IP0, IP1])
@pytest.mark.parametrize("theta", [-1, 0, 1])
def test_block_pattern_stores_no_structural_zeros(theta, variant):
    mesh = build_hierarchy(2).finest
    for eps in (1e-5, 1.0, 1e5):
        coeff = assign_coefficient(mesh, eps)
        A = assemble_dg(mesh, coeff, edge_weights(mesh, coeff), MethodParams(theta, 8.0, variant))
        assert np.all(A.data != 0)


@pytest.mark.parametrize("eps", [1e-14, 1e14])
def test_extreme_contrast_keeps_every_computed_entry(eps):
    # no entry is cut for its magnitude: the pattern is the one at eps = 1
    mesh = build_hierarchy(2).finest
    coeff = assign_coefficient(mesh, eps)
    weights = edge_weights(mesh, coeff)
    for theta, nnz in ((-1, 16384), (0, 13440)):
        A = assemble_dg(mesh, coeff, weights, MethodParams(theta, 8.0, IP0))
        assert A.nnz == nnz
        assert np.all(A.diagonal() != 0)
    assert assemble_conforming(mesh, coeff).nnz == 1065


@pytest.mark.parametrize("eps", [1e-14, 1e-5, 1.0, 1e5, 1e14])
@pytest.mark.parametrize("variant", [IP0, IP1])
@pytest.mark.parametrize("theta", [-1, 0, 1])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_apply_dg_matches_the_assembled_matrix(level, theta, variant, eps):
    # entry by entry, within a few roundings of the terms of (|A| |u|)
    mesh = build_hierarchy(level).finest
    coeff = assign_coefficient(mesh, eps)
    weights = edge_weights(mesh, coeff)
    params = MethodParams(theta, 8.0, variant)
    A = assemble_dg(mesh, coeff, weights, params)
    u = np.random.default_rng(level).standard_normal(mesh.n_dofs)
    err = np.abs(A @ u - apply_dg(mesh, coeff, weights, params, u))
    assert np.all(err <= 8 * np.finfo(float).eps * (abs(A) @ np.abs(u)))


# sha256 of data, indices and indptr with their dtypes and shapes, at eps
# 1e-5, alpha 8; recorded with numpy 2.4.6 and scipy 1.17.1.  Level 2 (512
# triangles) is one chunk of assemble_dg, level 4 (8,192) is eight
MATRIX_DIGESTS = {
    (-1, IP0): "8ab4cb11abd9a3ad04c5d2dd8cf0da31e0152ee364c66958077c303b366e0a22",
    (0, IP0): "61b717e928fb48c2ab992d7d59a18d9128764d70e8c03e382ccbe7bbb3723e70",
    (1, IP0): "ecb18cb0004670f316da5cfb0c109ab51abdeb13b10238214e051007871dd73e",
    (-1, IP1): "2fc551cef9e948486a4f6712bbe8a9f8d740a72427c079efb1f8d57bbd9585cf",
    (0, IP1): "b8955939e79499d7fd26dd1e9d2094ed61a94440550d8dc7532f9127df70211b",
    (1, IP1): "334c15d1805ea8f291afa329c6bf8a6ea9e40739330fb549abe9e1f61f4bab5f",
}
LEVEL4_MATRIX_DIGESTS = {
    (-1, IP0): "fb589402f9638161ac97751ec229f9d0febfd93cfbba3db38c57ae65015df812",
    (0, IP0): "a777c1b491a4c29bdbcd361242db84bbd9f46a598885bbfc8ffea560eac4dca9",
    (1, IP0): "9a051673169f842741a90cb0a5f922f0260546024664f402559f5c7fa2f47859",
    (-1, IP1): "969187f21a50f30003f8557e31be81aad543c6984411bb44e98a84b5ae0ee576",
    (0, IP1): "53028709d0f1dfccd34213c4fcdf98f34d66c7d2da8b4a350e2980c8d25c0a5e",
    (1, IP1): "cff3bf131088c88f1321124e20fc62ea7502a3805d29b18f699fce9a9bb4b8fe",
}


def _matrix_digest(level, theta, variant):
    mesh = build_hierarchy(level).finest
    coeff = assign_coefficient(mesh, 1e-5)
    A = assemble_dg(mesh, coeff, edge_weights(mesh, coeff), MethodParams(theta, 8.0, variant))
    h = hashlib.sha256()
    for a in (A.data, A.indices, A.indptr):
        h.update(f"{a.dtype} {a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("theta, variant", sorted(MATRIX_DIGESTS))
def test_level2_matrix_digest(theta, variant):
    # pins the CSR arrays byte for byte: values, their order and the dtypes
    assert _matrix_digest(2, theta, variant) == MATRIX_DIGESTS[(theta, variant)]


@pytest.mark.parametrize("theta, variant", sorted(LEVEL4_MATRIX_DIGESTS))
def test_level4_matrix_digest(theta, variant):
    # the same across the chunks of a multi-chunk assembly
    assert _matrix_digest(4, theta, variant) == LEVEL4_MATRIX_DIGESTS[(theta, variant)]


def test_assembly_memory_stays_near_its_result():
    # theta -1 IP0 at level 4, then every method at level 5
    hier = build_hierarchy(5)
    cases = [(4, -1, IP0)] + [(5, theta, variant) for variant in (IP0, IP1)
                              for theta in (-1, 0, 1)]
    ratios = {}
    for level, theta, variant in cases:
        mesh = hier.meshes[level]
        coeff = assign_coefficient(mesh, 1e-5)
        weights = edge_weights(mesh, coeff)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            A = assemble_dg(mesh, coeff, weights, MethodParams(theta, 8.0, variant))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        arrays = (A.data, A.indices, A.indptr)
        assert all(_owns_exactly(a) for a in arrays)
        ratios[level, theta, variant] = peak / sum(a.nbytes for a in arrays)
    # the expanded CSR and its copy set the peak: 2.10 times for theta -1
    # IP0 at level 4, and at level 5 2.09 for theta -1 and 1 of either
    # variant and 2.33 for theta 0, whose matrix has fewer entries
    assert max(ratios.values()) <= 2.5, ratios


def test_assembly_computes_areas_and_gradients_once(monkeypatch):
    mesh = build_hierarchy(1).finest
    coeff = assign_coefficient(mesh, 1e-5)
    weights = edge_weights(mesh, coeff)
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(type(mesh), "triangle_areas",
                        counted("areas", type(mesh).triangle_areas))
    monkeypatch.setattr(assembly, "_gradients", counted("gradients", assembly._gradients))
    assemble_dg(mesh, coeff, weights, MethodParams(-1, 8.0, IP1))
    assert sorted(calls) == ["areas", "gradients"]
