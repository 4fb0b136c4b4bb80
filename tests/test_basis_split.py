import numpy as np
import pytest
import scipy.sparse as sp

from dgprecond.mesh import build_initial_mesh, build_hierarchy, assign_coefficient, edge_weights
from dgprecond.assembly import IP0, IP1, MethodParams, assemble_dg
from dgprecond.basis_split import (
    BlockStructureError,
    build_transform,
    to_split,
    from_split,
    extract_blocks,
    split_matrix,
    star_product,
    star_diagonal,
)


@pytest.fixture(scope="module", params=[1.0, 1e-3])
def setting(request):
    mesh = build_initial_mesh()
    coeff = assign_coefficient(mesh, request.param)
    weights = edge_weights(mesh, coeff)
    basis = build_transform(mesh, weights)
    return mesh, coeff, weights, basis


def test_transform_is_square_and_invertible(setting):
    mesh, _, _, basis = setting
    T = basis.transform
    assert T.shape == (mesh.n_dofs, mesh.n_dofs)
    assert basis.n_z == mesh.n_edges
    assert basis.n_v == len(mesh.interior_edges)
    assert np.linalg.matrix_rank(T.toarray()) == mesh.n_dofs


def test_split_roundtrip(setting):
    mesh, _, weights, basis = setting
    rng = np.random.default_rng(5)
    for _ in range(3):
        u = rng.standard_normal(mesh.n_dofs)
        z, v = to_split(u, mesh, weights)
        assert np.allclose(from_split(z, v, basis), u, atol=1e-12)


def test_to_split_inverts_transform(setting):
    # coefficients of a split-basis expansion are recovered exactly
    mesh, _, weights, basis = setting
    rng = np.random.default_rng(6)
    c = rng.standard_normal(basis.n_dofs)
    u = basis.transform @ c
    z, v = to_split(u, mesh, weights)
    assert np.allclose(np.concatenate([z, v]), c, atol=1e-12)


def test_conforming_function_has_zero_interior_jumps(setting):
    mesh, _, weights, _ = setting
    nodal = np.zeros(mesh.n_vertices)
    nodal[mesh.interior_vertices] = np.random.default_rng(7).standard_normal(
        len(mesh.interior_vertices)
    )
    u = nodal[mesh.triangles].ravel()
    z, v = to_split(u, mesh, weights)
    assert np.allclose(z[mesh.interior_edges], 0.0, atol=1e-13)
    # CR coefficients are the midpoint values
    mids = 0.5 * nodal[mesh.edge_vertices[mesh.interior_edges]].sum(axis=1)
    assert np.allclose(v, mids, atol=1e-13)


@pytest.mark.parametrize("theta", [-1, 0, 1])
def test_ip0_block_lower_triangular(setting, theta):
    mesh, coeff, weights, basis = setting
    A = assemble_dg(mesh, coeff, weights, MethodParams(theta, 8.0, IP0))
    blocks = extract_blocks(A, basis)
    S = split_matrix(A, basis)
    nz = basis.n_z
    assert abs(S[:nz, nz:]).max() <= 1e-11 * np.abs(A.data).max()
    assert np.allclose(blocks.A_zz.toarray(), S[:nz, :nz].toarray(), atol=1e-12)
    assert np.allclose(blocks.A_vv.toarray(), S[nz:, nz:].toarray(), atol=1e-12)


def test_sipg0_fully_decouples(setting):
    # theta = -1 kills the remaining coupling block as well
    mesh, coeff, weights, basis = setting
    A = assemble_dg(mesh, coeff, weights, MethodParams(-1, 8.0, IP0))
    blocks = extract_blocks(A, basis)
    scale = np.abs(A.data).max()
    assert blocks.A_vz.nnz == 0 or abs(blocks.A_vz).max() < 1e-11 * scale


def test_iipg0_zz_block_is_diagonal(setting):
    mesh, coeff, weights, basis = setting
    A = assemble_dg(mesh, coeff, weights, MethodParams(0, 8.0, IP0))
    blocks = extract_blocks(A, basis)
    off = blocks.A_zz - sp.diags(blocks.A_zz.diagonal())
    assert off.nnz == 0 or abs(off).max() < 1e-12 * np.abs(A.data).max()
    # diagonal entries are alpha * kappa_e (|e| = h_e cancels)
    assert np.allclose(blocks.A_zz.diagonal(), 8.0 * weights.kappa_e, rtol=1e-12)


def test_ip1_violates_block_structure(setting):
    mesh, coeff, weights, basis = setting
    A = assemble_dg(mesh, coeff, weights, MethodParams(-1, 8.0, IP1))
    with pytest.raises(BlockStructureError):
        extract_blocks(A, basis)


def test_vv_block_is_cr_stiffness_plus_penalty(setting):
    # CR hat functions are continuous at midpoints, so the vv block is
    # symmetric positive definite for every theta (jump terms vanish on it)
    mesh, coeff, weights, basis = setting
    for theta in (-1, 0, 1):
        A = assemble_dg(mesh, coeff, weights, MethodParams(theta, 8.0, IP0))
        blocks = extract_blocks(A, basis)
        V = blocks.A_vv.toarray()
        assert np.allclose(V, V.T, atol=1e-12 * np.abs(V).max())
        assert np.linalg.eigvalsh(V)[0] > 0


def test_vv_block_independent_of_theta(setting):
    mesh, coeff, weights, basis = setting
    ref = None
    for theta in (-1, 0, 1):
        A = assemble_dg(mesh, coeff, weights, MethodParams(theta, 8.0, IP0))
        V = extract_blocks(A, basis).A_vv.toarray()
        if ref is None:
            ref = V
        else:
            assert np.allclose(V, ref, atol=1e-12 * np.abs(ref).max())


def test_star_product(setting):
    mesh, _, weights, _ = setting
    rng = np.random.default_rng(8)
    z1 = rng.standard_normal(mesh.n_edges)
    z2 = rng.standard_normal(mesh.n_edges)
    D = star_diagonal(mesh, weights)
    assert star_product(z1, z2, mesh, weights) == pytest.approx(z1 @ (D @ z2))
    assert star_product(z1, z1, mesh, weights) > 0
    with pytest.raises(ValueError):
        star_product(z1[:-1], z2[:-1], mesh, weights)


def test_shape_guards(setting):
    mesh, _, weights, _ = setting
    with pytest.raises(ValueError):
        to_split(np.zeros(mesh.n_dofs - 1), mesh, weights)


def test_split_works_on_refined_mesh():
    hier = build_hierarchy(1)
    mesh = hier.finest
    coeff = assign_coefficient(mesh, 1e-2)
    weights = edge_weights(mesh, coeff)
    basis = build_transform(mesh, weights)
    A = assemble_dg(mesh, coeff, weights, MethodParams(-1, 8.0, IP0))
    blocks = extract_blocks(A, basis)
    assert blocks.A_vv.shape == (basis.n_v, basis.n_v)
    u = np.random.default_rng(9).standard_normal(mesh.n_dofs)
    z, v = to_split(u, mesh, weights)
    assert np.allclose(from_split(z, v, basis), u, atol=1e-12)
