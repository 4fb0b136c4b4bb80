import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dgprecond.mesh import build_hierarchy, assign_coefficient, edge_weights
from dgprecond.assembly import IP0, MethodParams, assemble_dg, assemble_conforming
from dgprecond.basis_split import build_transform, extract_blocks
from dgprecond.krylov import estimate_spectrum
from dgprecond.precond import (
    JACOBI,
    SYM_GS,
    SmootherSpec,
    DiagonalPrecond,
    DirectSolve,
    Smoother,
    conforming_prolongation,
    cr_from_conforming,
    cr_prolongation,
    two_level,
    bpx,
    block_jacobi_dg,
    forward_substitution_solve,
)


def _vv_block(level, eps, alpha=8.0):
    hier = build_hierarchy(level)
    mesh = hier.finest
    coeff = assign_coefficient(mesh, eps)
    weights = edge_weights(mesh, coeff)
    basis = build_transform(mesh, weights)
    A = assemble_dg(mesh, coeff, weights, MethodParams(-1, alpha, IP0))
    blocks = extract_blocks(A, basis)
    return hier, mesh, coeff, blocks


def _spd(n, seed=0):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    return sp.csr_matrix(M @ M.T + n * np.eye(n))


def test_smoother_spec_validation():
    with pytest.raises(ValueError):
        SmootherSpec(kind="sor")
    with pytest.raises(ValueError):
        SmootherSpec(sweeps=0)


def test_diagonal_precond():
    A = _spd(8, seed=1)
    r = np.arange(1.0, 9.0)
    assert np.allclose(DiagonalPrecond(A).apply(r), r / A.diagonal())
    with pytest.raises(ValueError):
        DiagonalPrecond(diag=np.array([1.0, -2.0]))


def test_direct_solve():
    A = _spd(12, seed=2)
    r = np.random.default_rng(3).standard_normal(12)
    assert np.allclose(A @ DirectSolve(A).apply(r), r, atol=1e-10)


def test_jacobi_single_sweep_is_plain_inverse_diagonal():
    A = _spd(10, seed=4)
    r = np.random.default_rng(5).standard_normal(10)
    sm = Smoother(A, SmootherSpec(kind=JACOBI, sweeps=1))
    assert np.allclose(sm.apply(r), r / A.diagonal())


def test_damped_jacobi_multi_sweep():
    # x_s = sum_{k<s} (I - D^{-1}A/2)^k D^{-1}/2 r
    A = _spd(6, seed=6)
    r = np.random.default_rng(7).standard_normal(6)
    Dinv = np.diag(0.5 / A.diagonal())
    E = np.eye(6) - Dinv @ A.toarray()
    x = np.zeros(6)
    for _ in range(3):
        x = x + Dinv @ (r - A @ x)
    sm = Smoother(A, SmootherSpec(kind=JACOBI, sweeps=3))
    assert np.allclose(sm.apply(r), x, atol=1e-12)
    assert np.abs(np.linalg.eigvals(E)).max() < 1.0  # convergent splitting


def test_sym_gs_single_sweep_matches_dense_formula():
    # M = (D + L) D^{-1} (D + U) for one symmetric sweep
    A = _spd(9, seed=8)
    Ad = A.toarray()
    D = np.diag(np.diag(Ad))
    L = np.tril(Ad, -1)
    U = np.triu(Ad, 1)
    M = (D + L) @ np.linalg.solve(D, D + U)
    r = np.random.default_rng(9).standard_normal(9)
    sm = Smoother(A, SmootherSpec(kind=SYM_GS, sweeps=1))
    assert np.allclose(sm.apply(r), np.linalg.solve(M, r), atol=1e-10)


def test_many_sgs_sweeps_approach_exact_inverse():
    A = _spd(8, seed=10)
    r = np.random.default_rng(11).standard_normal(8)
    sm = Smoother(A, SmootherSpec(kind=SYM_GS, sweeps=200))
    assert np.allclose(sm.apply(r), spla.spsolve(A.tocsc(), r), atol=1e-8)


@pytest.mark.parametrize("kind,sweeps", [(JACOBI, 1), (JACOBI, 4), (SYM_GS, 1), (SYM_GS, 5)])
def test_smoother_linear_and_spd(kind, sweeps):
    A = _spd(10, seed=12)
    sm = Smoother(A, SmootherSpec(kind=kind, sweeps=sweeps))
    # materialize the operator; it must be symmetric positive definite
    M = np.column_stack([sm.apply(e) for e in np.eye(10)])
    assert np.allclose(M, M.T, atol=1e-10)
    assert np.linalg.eigvalsh(0.5 * (M + M.T))[0] > 0
    # matrix apply agrees with columnwise apply
    R = np.random.default_rng(13).standard_normal((10, 3))
    cols = np.column_stack([sm.apply(R[:, j]) for j in range(3)])
    assert np.allclose(sm.apply(R), cols, atol=1e-12)


def test_conforming_prolongation_reproduces_p1_interpolation():
    hier = build_hierarchy(2)
    for j in (0, 1):
        coarse, fine = hier.meshes[j], hier.meshes[j + 1]
        P = conforming_prolongation(hier, j)
        ci, fi = coarse.interior_vertices, fine.interior_vertices
        assert P.shape == (len(fi), len(ci))
        # prolong the nodal values of a globally linear function restricted
        # to interior vertices of a function vanishing on the boundary:
        # use a random coarse vector and check values pointwise instead
        rng = np.random.default_rng(14)
        uc = rng.standard_normal(len(ci))
        nodal_c = np.zeros(coarse.n_vertices)
        nodal_c[ci] = uc
        uf = P @ uc
        for k, f in enumerate(fi):
            if f < coarse.n_vertices:
                assert uf[k] == pytest.approx(nodal_c[f])
            else:
                a, b = hier.vertex_parents[j][f]
                assert uf[k] == pytest.approx(0.5 * (nodal_c[a] + nodal_c[b]))


def test_cr_from_conforming_midpoint_values():
    hier = build_hierarchy(1)
    mesh = hier.finest
    E = cr_from_conforming(mesh)
    vi = mesh.interior_vertices
    rng = np.random.default_rng(15)
    uc = rng.standard_normal(len(vi))
    nodal = np.zeros(mesh.n_vertices)
    nodal[vi] = uc
    vals = E @ uc
    mids = 0.5 * nodal[mesh.edge_vertices[mesh.interior_edges]].sum(axis=1)
    assert np.allclose(vals, mids)


def test_cr_prolongation_composition():
    hier = build_hierarchy(2)
    # injecting from the finest conforming level equals cr_from_conforming
    P_fine = cr_prolongation(hier, 2)
    assert abs(P_fine - cr_from_conforming(hier.finest)).max() < 1e-14
    # coarser levels compose through the conforming interpolation
    P0 = cr_prolongation(hier, 0)
    expected = (
        cr_from_conforming(hier.finest)
        @ conforming_prolongation(hier, 1)
        @ conforming_prolongation(hier, 0)
    )
    assert abs(P0 - expected).max() < 1e-14
    with pytest.raises(ValueError):
        cr_prolongation(hier, 5)


def test_galerkin_coarse_equals_direct_assembly():
    # P^t A_vv P on the conforming space equals the conforming stiffness
    # matrix assembled on that level (coefficient is resolved on level 0)
    for level in (1, 2):
        hier, mesh, coeff, blocks = _vv_block(level, 1e-2)
        for jc in range(level + 1):
            P = cr_prolongation(hier, jc)
            A_c = (P.T @ blocks.A_vv @ P).toarray()
            coeff_c = assign_coefficient(hier.meshes[jc], coeff.epsilon)
            A_ref = assemble_conforming(hier.meshes[jc], coeff_c).toarray()
            assert np.allclose(A_c, A_ref, atol=1e-12 * np.abs(A_ref).max())


def test_two_level_spd_and_bounded_condition():
    hier, mesh, coeff, blocks = _vv_block(2, 1e-3)
    P = cr_prolongation(hier, 2)
    B = two_level(blocks.A_vv, P, SmootherSpec(SYM_GS, 5))
    eigs = estimate_spectrum(blocks.A_vv, B, dense_limit=3000)
    assert eigs[0] > 0
    # one coefficient-induced small eigenvalue, rest well conditioned
    assert eigs[-1] / eigs[1] < 10.0


def test_bpx_single_level_equals_two_level():
    hier, mesh, coeff, blocks = _vv_block(0, 1e-2)
    spec = SmootherSpec(SYM_GS, 5)
    B_ml = bpx(blocks.A_vv, hier, spec)
    B_2l = two_level(blocks.A_vv, cr_prolongation(hier, 0), spec)
    r = np.random.default_rng(16).standard_normal(blocks.A_vv.shape[0])
    assert np.allclose(B_ml.apply(r), B_2l.apply(r), atol=1e-12)


def test_bpx_spd():
    hier, mesh, coeff, blocks = _vv_block(2, 1e-3)
    B = bpx(blocks.A_vv, hier, SmootherSpec(SYM_GS, 5))
    n = blocks.A_vv.shape[0]
    M = B.apply(np.eye(n))
    assert np.allclose(M, M.T, atol=1e-10)
    assert np.linalg.eigvalsh(0.5 * (M + M.T))[0] > 0


def test_block_jacobi_structure():
    hier, mesh, coeff, blocks = _vv_block(1, 1e-2)
    nz = blocks.A_zz.shape[0]
    P = cr_prolongation(hier, 1)
    B = block_jacobi_dg(blocks.A_zz, two_level(blocks.A_vv, P))
    r = np.random.default_rng(17).standard_normal(nz + blocks.A_vv.shape[0])
    x = B.apply(r)
    assert np.allclose(x[:nz], r[:nz] / blocks.A_zz.diagonal())
    # v part is independent of the z part of the residual
    r2 = r.copy()
    r2[:nz] = 0.0
    assert np.allclose(B.apply(r2)[nz:], x[nz:])


def test_forward_substitution_solves_split_system():
    hier, mesh, coeff, blocks = _vv_block(1, 1e-3)
    rng = np.random.default_rng(18)
    f_z = rng.standard_normal(blocks.A_zz.shape[0])
    f_v = rng.standard_normal(blocks.A_vv.shape[0])
    z, v = forward_substitution_solve(blocks, f_z, f_v)
    assert np.allclose(blocks.A_zz @ z, f_z, atol=1e-9)
    assert np.allclose(blocks.A_vz @ z + blocks.A_vv @ v, f_v, atol=1e-9)


def test_smoother_largest_eigenvalue_stable_across_coefficients():
    # the smoothed operator R^{-1} A_vv has lambda_max nearly independent of
    # the coefficient contrast
    tops = []
    for eps in (1e-4, 1e-2, 1.0, 1e2):
        hier, mesh, coeff, blocks = _vv_block(1, eps)
        sm = Smoother(blocks.A_vv, SmootherSpec(SYM_GS, 5))
        eigs = estimate_spectrum(blocks.A_vv, sm, dense_limit=1000)
        tops.append(eigs[-1])
    tops = np.asarray(tops)
    assert tops.max() / tops.min() < 1.1
