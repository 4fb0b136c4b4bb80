import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from dgprecond.mesh import assign_coefficient, build_hierarchy, edge_weights
from dgprecond.assembly import IP0, IP1, MethodParams, assemble_dg, edge_traces
from dgprecond.basis_split import (
    BlockStructureError,
    build_transform,
    drop_tiny,
    to_split,
    from_split,
    extract_blocks,
    product_blocks,
    split_matrix,
)
from dgprecond.experiments import build_problem


@pytest.fixture(scope="module", params=[1.0, 1e-3])
def setting(request):
    p = build_problem(build_hierarchy(0), request.param, MethodParams(-1, 8.0, IP0))
    return p.mesh, p.coeff, p.weights, p.basis


def test_transform_is_square_and_invertible(setting):
    mesh, _, _, basis = setting
    T = basis.transform
    assert T.shape == (mesh.n_dofs, mesh.n_dofs)
    assert basis.n_z == mesh.n_edges
    assert basis.n_v == len(mesh.interior_edges)
    assert np.linalg.matrix_rank(T.toarray()) == mesh.n_dofs


def test_transform_csc_matches_coo_scatter(setting):
    # the columns of every basis function scattered at their nodal dofs;
    # a boundary z-column's minus half is 0 and gets summed away
    mesh, _, weights, basis = setting
    dofs, traces = edge_traces(mesh)
    hat = 2.0 * np.abs(traces).sum(axis=1) - 1.0
    bp = np.where(mesh.boundary_edge_mask, 1.0, weights.beta)
    z_vals = np.repeat(np.column_stack([bp, -(1.0 - bp)]), 3, axis=1) * hat
    interior = mesh.interior_edges
    ref = sp.csc_matrix(
        (np.concatenate([z_vals.ravel(), hat[interior].ravel()]),
         (np.concatenate([dofs.ravel(), dofs[interior].ravel()]),
          np.repeat(np.arange(basis.n_z + basis.n_v), 6))),
        shape=(mesh.n_dofs, basis.n_z + basis.n_v))
    ref.sum_duplicates()
    T = basis.transform
    assert T.format == "csc" and T.has_canonical_format
    assert np.array_equal(np.diff(T.indptr)[: basis.n_z],
                          np.where(mesh.boundary_edge_mask, 3, 6))
    assert np.all(np.diff(T.indptr)[basis.n_z:] == 6)
    assert np.array_equal(T.indptr, ref.indptr)
    assert np.array_equal(T.indices, ref.indices)
    assert np.array_equal(T.data, ref.data)


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
    c = rng.standard_normal(basis.n_z + basis.n_v)
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
    params = MethodParams(theta, 8.0, IP0)
    A = assemble_dg(mesh, coeff, weights, params)
    blocks = extract_blocks(mesh, coeff, weights, params)
    T, nz = basis.transform, basis.n_z
    S = drop_tiny((T.T @ A) @ T)
    assert abs(S[:nz, nz:]).max() <= 1e-11 * np.abs(A.data).max()
    assert np.allclose(blocks.A_zz.toarray(), S[:nz, :nz].toarray(), atol=1e-12)
    assert np.allclose(blocks.A_vv.toarray(), S[nz:, nz:].toarray(), atol=1e-12)


def test_sipg0_fully_decouples(setting):
    # theta = -1 kills the remaining coupling block as well, and none of its
    # round-off is stored; theta = 0 and 1 keep it
    mesh, coeff, weights, basis = setting
    for theta in (-1, 0, 1):
        params = MethodParams(theta, 8.0, IP0)
        A = assemble_dg(mesh, coeff, weights, params)
        for blocks in (extract_blocks(mesh, coeff, weights, params), product_blocks(A, basis)):
            assert blocks.A_vz.shape == (basis.n_v, basis.n_z)
            assert (blocks.A_vz.nnz == 0) == (theta == -1)


def test_iipg0_zz_block_is_diagonal(setting):
    # a property of the DG form, so checked on the products; the closed form
    # is alpha diag(kappa_e) by construction
    mesh, coeff, weights, basis = setting
    A = assemble_dg(mesh, coeff, weights, MethodParams(0, 8.0, IP0))
    blocks = product_blocks(A, basis)
    off = blocks.A_zz - sp.diags(blocks.A_zz.diagonal())
    assert off.nnz == 0 or abs(off).max() < 1e-12 * np.abs(A.data).max()
    # diagonal entries are alpha * kappa_e (|e| = h_e cancels)
    assert np.allclose(blocks.A_zz.diagonal(), 8.0 * weights.kappa_e, rtol=1e-12)


def test_ip1_violates_block_structure(setting):
    mesh, coeff, weights, basis = setting
    A = assemble_dg(mesh, coeff, weights, MethodParams(-1, 8.0, IP1))
    with pytest.raises(BlockStructureError):
        product_blocks(A, basis)


def test_vv_block_is_cr_stiffness_plus_penalty(setting):
    # CR hat functions are continuous at midpoints, so the vv block is
    # symmetric positive definite for every theta (jump terms vanish on it)
    mesh, coeff, weights, _ = setting
    for theta in (-1, 0, 1):
        blocks = extract_blocks(mesh, coeff, weights, MethodParams(theta, 8.0, IP0))
        V = blocks.A_vv.toarray()
        assert np.allclose(V, V.T, atol=1e-12 * np.abs(V).max())
        assert np.linalg.eigvalsh(V)[0] > 0


def test_vv_block_independent_of_theta(setting):
    # a property of the DG form, so checked on the products; the closed form
    # does not read theta for A_vv
    mesh, coeff, weights, basis = setting
    ref = None
    for theta in (-1, 0, 1):
        A = assemble_dg(mesh, coeff, weights, MethodParams(theta, 8.0, IP0))
        V = product_blocks(A, basis).A_vv.toarray()
        if ref is None:
            ref = V
        else:
            assert np.allclose(V, ref, atol=1e-12 * np.abs(ref).max())


def test_shape_guards(setting):
    mesh, _, weights, _ = setting
    with pytest.raises(ValueError):
        to_split(np.zeros(mesh.n_dofs - 1), mesh, weights)


def test_split_works_on_refined_mesh():
    p = build_problem(build_hierarchy(1), 1e-2, MethodParams(-1, 8.0, IP0))
    mesh, weights, basis = p.mesh, p.weights, p.basis
    blocks = p.blocks()
    assert blocks.A_vv.shape == (basis.n_v, basis.n_v)
    u = np.random.default_rng(9).standard_normal(mesh.n_dofs)
    z, v = to_split(u, mesh, weights)
    assert np.allclose(from_split(z, v, basis), u, atol=1e-12)


# (A_zz, A_vz, A_vv) nonzeros at level 2: the entries that are nonzero in
# exact arithmetic.  theta = -1 makes A_vz vanish by structure, theta = 0
# makes A_zz diagonal; the CR block A_vv does not depend on theta.
@pytest.mark.parametrize("theta, nnz", [(-1, (2848, 0, 2656)),
                                        (0, (800, 1984, 2656)),
                                        (1, (2848, 1984, 2656))])
@pytest.mark.parametrize("eps", [1e-5, 1.0, 1e5])
def test_split_block_patterns_are_pinned(eps, theta, nnz):
    p = build_problem(build_hierarchy(2), eps, MethodParams(theta, 8.0, IP0))
    for blocks in (p.blocks(), product_blocks(p.A, p.basis)):
        assert (blocks.A_zz.nnz, blocks.A_vz.nnz, blocks.A_vv.nnz) == nnz


def _same_bytes(A, B):
    return all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
               for a, b in zip((A.data, A.indices, A.indptr), (B.data, B.indices, B.indptr)))


@pytest.fixture(scope="module")
def hierarchy3():
    return build_hierarchy(3)


@pytest.mark.parametrize("eps", [1e-5, 1.0, 1e5])
@pytest.mark.parametrize("theta", [-1, 0, 1])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_blocks_are_the_slices_of_the_whole_product(hierarchy3, level, theta, eps):
    # the blocks, formed from column slices of T, against the four slices of
    # the whole (T^t A) T, byte for byte
    mesh = hierarchy3.meshes[level]
    coeff = assign_coefficient(mesh, eps)
    weights = edge_weights(mesh, coeff)
    basis = build_transform(mesh, weights)
    A = assemble_dg(mesh, coeff, weights, MethodParams(theta, 8.0, IP0))
    T, nz = basis.transform, basis.n_z
    S = (T.T @ A) @ T
    blocks = product_blocks(A, basis)
    assert _same_bytes(blocks.A_zz, drop_tiny(S[:nz, :nz]))
    assert _same_bytes(blocks.A_vv, drop_tiny(S[nz:, nz:]))
    if theta == -1:
        assert blocks.A_vz.nnz == 0
        assert abs(S[nz:, :nz]).max() <= 1e-11 * np.abs(A.data).max()
    else:
        assert _same_bytes(blocks.A_vz, drop_tiny(S[nz:, :nz]))
    assert abs(S[:nz, nz:]).max() <= 1e-11 * np.abs(A.data).max()


def _assert_matches_product(C, P):
    """C stores the pattern of the product P, in canonical CSR, and agrees
    with it to 1e-15 of the product's largest entry."""
    P = P.copy()
    P.sort_indices()
    assert C.has_canonical_format and C.shape == P.shape
    assert np.array_equal(C.indptr, P.indptr) and np.array_equal(C.indices, P.indices)
    assert np.abs(C.data - P.data).max(initial=0.0) <= 1e-15 * np.abs(P.data).max(initial=0.0)


@pytest.mark.parametrize("eps", [1e-5, 1.0, 1e5])
@pytest.mark.parametrize("theta", [-1, 0, 1])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_closed_form_blocks_match_the_products(hierarchy3, level, theta, eps):
    mesh = hierarchy3.meshes[level]
    coeff = assign_coefficient(mesh, eps)
    weights = edge_weights(mesh, coeff)
    params = MethodParams(theta, 8.0, IP0)
    closed = extract_blocks(mesh, coeff, weights, params)
    products = product_blocks(assemble_dg(mesh, coeff, weights, params),
                              build_transform(mesh, weights))
    for name in ("A_zz", "A_vz", "A_vv"):
        _assert_matches_product(getattr(closed, name), getattr(products, name))


@pytest.mark.parametrize("eps", [1e-5, 1.0, 1e5])
@pytest.mark.parametrize("theta", [-1, 0, 1])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_ip1_split_matrix_matches_the_product(hierarchy3, level, theta, eps):
    # the whole T^t A_IP1 T, cut at 1e-14 of its largest entry, against the
    # closed-form blocks plus the penalty term; a plain (J T)^t W (J T)
    # stores round-off at couplings of a z-function with its own CR hat that
    # are zero in exact arithmetic (12 at level 1, eps 1e-5), and
    # split_matrix stores none of them
    mesh = hierarchy3.meshes[level]
    coeff = assign_coefficient(mesh, eps)
    weights = edge_weights(mesh, coeff)
    params = MethodParams(theta, 8.0, IP1)
    basis = build_transform(mesh, weights)
    T = basis.transform
    product = drop_tiny((T.T @ assemble_dg(mesh, coeff, weights, params)) @ T)
    _assert_matches_product(split_matrix(mesh, coeff, weights, params, basis), product)


_EXTREME_EPS = (1e-16, 1e-14, 1e14, 1e16)


# the IP0 cases keep their ids from before IP1 was a parameter
@pytest.mark.parametrize("eps, variant", [
    *(pytest.param(eps, IP0, id=str(eps)) for eps in _EXTREME_EPS),
    *(pytest.param(eps, IP1, id=f"{eps}-IP1") for eps in _EXTREME_EPS)])
def test_closed_form_diagonals_stay_positive_at_extreme_contrast(eps, variant):
    # the products, cut at 1e-14 of each block's largest entry, leave
    # 720/624, 288/621, 32/48 and 112/80 nonpositive diagonals in A_zz/A_vv
    # here; the closed form makes no cut, and the IP1 penalty term adds a
    # sum of squares to the diagonal
    p = build_problem(build_hierarchy(2), eps, MethodParams(-1, 8.0, variant))
    if variant == IP0:
        blocks = p.blocks()
        diagonal = np.concatenate([blocks.A_zz.diagonal(), blocks.A_vv.diagonal()])
    else:
        diagonal = split_matrix(p.mesh, p.coeff, p.weights, p.params, p.basis).diagonal()
    assert np.all(diagonal > 0)


@pytest.mark.parametrize("level", [0, 3])
def test_ip1_error_reports_the_coupling_of_the_whole_product(hierarchy3, level):
    mesh = hierarchy3.meshes[level]
    coeff = assign_coefficient(mesh, 1e-5)
    weights = edge_weights(mesh, coeff)
    basis = build_transform(mesh, weights)
    A = assemble_dg(mesh, coeff, weights, MethodParams(-1, 8.0, IP1))
    T, nz = basis.transform, basis.n_z
    worst = np.abs(((T.T @ A) @ T)[:nz, nz:].data).max()
    scale = np.abs(A.data).max()
    with pytest.raises(BlockStructureError) as err:
        product_blocks(A, basis)
    assert str(err.value) == f"CR-to-z coupling {worst:.3e} exceeds {1e-11:.1e} * {scale:.3e}"


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _nbytes(*matrices):
    return sum(a.nbytes for M in matrices for a in (M.data, M.indices, M.indptr))


@pytest.fixture(scope="module")
def level4():
    mesh = build_hierarchy(4).finest
    coeff = assign_coefficient(mesh, 1e-5)
    return mesh, coeff, edge_weights(mesh, coeff)


def test_transform_memory_stays_near_its_result(level4):
    mesh, _, weights = level4
    basis, peak = _traced_peak(build_transform, mesh, weights)
    # 2.28 times at level 4; building it from edge_traces took 3.49
    assert peak <= 2.5 * _nbytes(basis.transform)


def test_extraction_memory_stays_near_its_result(level4):
    mesh, coeff, weights = level4
    basis = build_transform(mesh, weights)
    A = assemble_dg(mesh, coeff, weights, MethodParams(-1, 8.0, IP0))
    blocks, peak = _traced_peak(product_blocks, A, basis)
    # 4.80 times at level 4; slicing the whole T^t A T took 13.29
    assert peak <= 6 * _nbytes(blocks.A_zz, blocks.A_vz, blocks.A_vv)


def test_closed_form_memory_stays_near_its_result(level4):
    mesh, coeff, weights = level4
    blocks, peak = _traced_peak(extract_blocks, mesh, coeff, weights, MethodParams(-1, 8.0, IP0))
    # 4.05 times at level 4, against 4.80 for the products; concatenating
    # the triangle terms with the penalty, on int64 indices, took 5.80
    assert peak <= 4.5 * _nbytes(blocks.A_zz, blocks.A_vz, blocks.A_vv)
