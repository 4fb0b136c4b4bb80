import functools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from dgprecond import assembly, basis_split
from dgprecond.mesh import assign_coefficient, build_hierarchy, edge_weights
from dgprecond.assembly import (IP0, IP1, MethodParams, apply_dg, assemble_dg, assemble_rhs,
                                edge_traces)
from dgprecond.basis_split import (
    IDENTITY_BOUND,
    build_transform,
    from_split,
    extract_blocks,
    identity_ratios,
    split_matrix,
    split_rhs,
)
from dgprecond.experiments import build_problem


def to_split(u, mesh, weights):
    """Closed-form decomposition coefficients: the reference that
    test_to_split_inverts_transform checks build_transform against.

    v_e is the gamma-weighted trace average at the edge midpoint, z_e the
    jump along n+ (the trace value itself on boundary edges).
    """
    u = np.asarray(u)
    if u.shape != (mesh.n_dofs,):
        raise ValueError("nodal vector has wrong length")
    dofs, traces = edge_traces(mesh)
    mid = 0.5 * (traces[:, 0] + traces[:, 1])
    # (ne, 2): plus-side midpoint value, minus of the minus-side one (0 on
    # the boundary)
    sides = np.einsum("esd,esd->es", mid.reshape(-1, 2, 3), u[dofs].reshape(-1, 2, 3))
    z = sides[:, 0] + sides[:, 1]
    interior = mesh.interior_edges
    v = weights.gamma[interior] * sides[interior, 0] - weights.beta[interior] * sides[interior, 1]
    return z, v


@pytest.fixture(scope="module", params=[1.0, 1e-3])
def setting(request):
    p = build_problem(build_hierarchy(0), request.param, MethodParams(-1, 8.0, IP0))
    return p.mesh, p.coeff, p.weights, p.transform


def test_transform_is_square_and_invertible(setting):
    mesh, _, _, T = setting
    assert T.shape == (mesh.n_dofs, mesh.n_dofs)
    assert T.shape[1] == mesh.n_edges + len(mesh.interior_edges)
    assert np.linalg.matrix_rank(T.toarray()) == mesh.n_dofs


def test_transform_csc_matches_coo_scatter(setting):
    # the columns of every basis function scattered at their nodal dofs;
    # a boundary z-column's minus half is 0 and gets summed away
    mesh, _, weights, T = setting
    dofs, traces = edge_traces(mesh)
    hat = 2.0 * np.abs(traces).sum(axis=1) - 1.0
    z_vals = np.repeat(np.column_stack([weights.beta, -weights.gamma]), 3, axis=1) * hat
    interior = mesh.interior_edges
    ref = sp.csc_matrix(
        (np.concatenate([z_vals.ravel(), hat[interior].ravel()]),
         (np.concatenate([dofs.ravel(), dofs[interior].ravel()]),
          np.repeat(np.arange(mesh.n_dofs), 6))),
        shape=(mesh.n_dofs, mesh.n_dofs))
    ref.sum_duplicates()
    assert T.format == "csc" and T.has_canonical_format
    assert np.array_equal(np.diff(T.indptr)[: mesh.n_edges],
                          np.where(mesh.boundary_edge_mask, 3, 6))
    assert np.all(np.diff(T.indptr)[mesh.n_edges:] == 6)
    assert np.array_equal(T.indptr, ref.indptr)
    assert np.array_equal(T.indices, ref.indices)
    assert np.array_equal(T.data, ref.data)


def test_split_roundtrip(setting):
    mesh, _, weights, T = setting
    rng = np.random.default_rng(5)
    for _ in range(3):
        u = rng.standard_normal(mesh.n_dofs)
        z, v = to_split(u, mesh, weights)
        assert np.allclose(from_split(z, v, mesh, weights), u, atol=1e-12)


def test_to_split_inverts_transform(setting):
    # coefficients of a split-basis expansion are recovered exactly
    mesh, _, weights, T = setting
    rng = np.random.default_rng(6)
    c = rng.standard_normal(mesh.n_edges + len(mesh.interior_edges))
    u = T @ c
    z, v = to_split(u, mesh, weights)
    assert np.allclose(np.concatenate([z, v]), c, atol=1e-12)


@functools.cache
def _hierarchy(level):
    return build_hierarchy(level)


@pytest.mark.parametrize("eps", [1e-14, 1e-5, 1.0, 1e5, 1e14])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_gathers_equal_the_products_with_transform(level, eps):
    # split_rhs and from_split add their terms in the order of scipy's
    # products with T, so they agree bit for bit
    mesh = _hierarchy(level).finest
    weights = edge_weights(mesh, assign_coefficient(mesh, eps))
    T = build_transform(mesh, weights)
    b, x = np.random.default_rng(level).standard_normal((2, mesh.n_dofs))
    assert np.array_equal(split_rhs(b, mesh, weights), T.T @ b)
    z, v = np.split(x, [mesh.n_edges])
    assert np.array_equal(from_split(z, v, mesh, weights), T @ x)


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


def _ratios(mesh, coeff, weights, params, T, S, x, A=None):
    """identity_ratios of S for the DG matrix of params at x."""
    if A is None:
        A = assemble_dg(mesh, coeff, weights, params)
    apply = functools.partial(apply_dg, mesh, coeff, weights, params)
    return identity_ratios(S, x, T, A, apply)


def _split_parts(mesh):
    """A seeded x of split coefficients, its z part and its CR part, each
    with the other part zero."""
    x = np.random.default_rng(0).standard_normal(mesh.n_dofs)
    z = np.arange(len(x)) < mesh.n_edges
    return x, np.where(z, x, 0.0), np.where(z, 0.0, x)


@pytest.mark.parametrize("theta", [-1, 0, 1])
def test_ip0_block_lower_triangular(setting, theta):
    # the z rows of T^t A T x_v, the coupling of CR trial with z test
    # functions, are zero to round-off, and the closed form matches the rest
    mesh, coeff, weights, T = setting
    params = MethodParams(theta, 8.0, IP0)
    A = assemble_dg(mesh, coeff, weights, params)
    S = extract_blocks(mesh, coeff, weights, params).matrix()
    x, _, x_v = _split_parts(mesh)
    assert _ratios(mesh, coeff, weights, params, T, S, x_v, A)[:mesh.n_edges].max() <= IDENTITY_BOUND
    assert _ratios(mesh, coeff, weights, params, T, S, x, A).max() <= IDENTITY_BOUND


def test_sipg0_fully_decouples(setting):
    # theta = -1 kills the remaining coupling block as well, and none of its
    # round-off is stored; theta = 0 and 1 keep it
    mesh, coeff, weights, _ = setting
    for theta in (-1, 0, 1):
        blocks = extract_blocks(mesh, coeff, weights, MethodParams(theta, 8.0, IP0))
        assert blocks.A_vz.shape == (len(mesh.interior_edges), mesh.n_edges)
        assert (blocks.A_vz.nnz == 0) == (theta == -1)


def test_iipg0_zz_block_is_diagonal(setting):
    # the closed form is alpha diag(kappa_e) (|e| = h_e cancels); that the
    # DG form's zz block is diagonal too is the identity on the z rows of
    # T^t A T x_z
    mesh, coeff, weights, T = setting
    params = MethodParams(0, 8.0, IP0)
    blocks = extract_blocks(mesh, coeff, weights, params)
    assert blocks.A_zz.nnz == mesh.n_edges
    assert np.array_equal(blocks.A_zz.diagonal(), 8.0 * weights.kappa_e)
    _, x_z, _ = _split_parts(mesh)
    ratios = _ratios(mesh, coeff, weights, params, T, blocks.matrix(), x_z)
    assert ratios[:mesh.n_edges].max() <= IDENTITY_BOUND


def test_ip1_violates_block_structure(setting):
    # the IP1 matrix couples CR trial with z test functions: the z rows of
    # T^t A_IP1 T x_v miss the IP0 zero block far beyond round-off
    mesh, coeff, weights, T = setting
    params = MethodParams(-1, 8.0, IP1)
    S = extract_blocks(mesh, coeff, weights, params).matrix()
    _, _, x_v = _split_parts(mesh)
    assert _ratios(mesh, coeff, weights, params, T, S, x_v)[:mesh.n_edges].max() > 1e10


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
    # a property of the DG form, so checked on the CR rows of T^t A T x_v
    # for every theta against the one theta = -1 closed form; the closed
    # form does not read theta for A_vv
    mesh, coeff, weights, T = setting
    S = extract_blocks(mesh, coeff, weights, MethodParams(-1, 8.0, IP0)).matrix()
    _, _, x_v = _split_parts(mesh)
    for theta in (-1, 0, 1):
        ratios = _ratios(mesh, coeff, weights, MethodParams(theta, 8.0, IP0), T, S, x_v)
        assert ratios[mesh.n_edges:].max() <= IDENTITY_BOUND


def test_shape_guards(setting):
    mesh, _, weights, _ = setting
    with pytest.raises(ValueError):
        to_split(np.zeros(mesh.n_dofs - 1), mesh, weights)


def test_split_works_on_refined_mesh():
    p = build_problem(build_hierarchy(1), 1e-2, MethodParams(-1, 8.0, IP0))
    mesh, weights = p.mesh, p.weights
    blocks = p.blocks()
    assert blocks.A_vv.shape == (len(mesh.interior_edges), len(mesh.interior_edges))
    u = np.random.default_rng(9).standard_normal(mesh.n_dofs)
    z, v = to_split(u, mesh, weights)
    assert np.allclose(from_split(z, v, mesh, weights), u, atol=1e-12)


# (A_zz, A_vz, A_vv) nonzeros at level 2: the entries that are nonzero in
# exact arithmetic.  theta = -1 makes A_vz vanish by structure, theta = 0
# makes A_zz diagonal; the CR block A_vv does not depend on theta.
@pytest.mark.parametrize("theta, nnz", [(-1, (2848, 0, 2656)),
                                        (0, (800, 1984, 2656)),
                                        (1, (2848, 1984, 2656))])
@pytest.mark.parametrize("eps", [1e-5, 1.0, 1e5])
def test_split_block_patterns_are_pinned(eps, theta, nnz):
    blocks = build_problem(build_hierarchy(2), eps, MethodParams(theta, 8.0, IP0)).blocks()
    assert (blocks.A_zz.nnz, blocks.A_vz.nnz, blocks.A_vv.nnz) == nnz


@pytest.fixture(scope="module")
def hierarchy3():
    return build_hierarchy(3)


def _cut_product(T, A):
    """(T^t A) T in canonical CSR without the entries below 1e-14 of its
    largest one: the pattern of the entries that are nonzero in exact
    arithmetic."""
    P = (T.T @ A) @ T
    P.data[np.abs(P.data) < 1e-14 * np.abs(P.data).max()] = 0.0
    P.eliminate_zeros()
    P.sort_indices()
    return P


def _assert_matches_product(S, params, mesh, coeff, weights, T):
    """S stores, in canonical CSR, the pattern of the cut product T^t A T,
    and keeps the identity S x = T^t A T x entry by entry."""
    A = assemble_dg(mesh, coeff, weights, params)
    P = _cut_product(T, A)
    assert S.has_canonical_format and S.shape == P.shape
    assert np.array_equal(S.indptr, P.indptr) and np.array_equal(S.indices, P.indices)
    x, _, x_v = _split_parts(mesh)
    assert _ratios(mesh, coeff, weights, params, T, S, x, A).max() <= IDENTITY_BOUND
    if params.variant == IP0:
        zero = _ratios(mesh, coeff, weights, params, T, S, x_v, A)[:mesh.n_edges]
        assert zero.max() <= IDENTITY_BOUND


@pytest.mark.parametrize("eps", [1e-5, 1.0, 1e5])
@pytest.mark.parametrize("theta", [-1, 0, 1])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_closed_form_blocks_match_the_products(hierarchy3, level, theta, eps):
    mesh = hierarchy3.meshes[level]
    coeff = assign_coefficient(mesh, eps)
    weights = edge_weights(mesh, coeff)
    params = MethodParams(theta, 8.0, IP0)
    S = extract_blocks(mesh, coeff, weights, params).matrix()
    _assert_matches_product(S, params, mesh, coeff, weights, build_transform(mesh, weights))


@pytest.mark.parametrize("eps", [1e-5, 1.0, 1e5])
@pytest.mark.parametrize("theta", [-1, 0, 1])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_ip1_split_matrix_matches_the_product(hierarchy3, level, theta, eps):
    # the closed-form blocks plus the penalty term; a plain (J T)^t W (J T)
    # stores round-off at couplings of a z-function with its own CR hat that
    # are zero in exact arithmetic (12 at level 1, eps 1e-5), and
    # split_matrix stores none of them
    mesh = hierarchy3.meshes[level]
    coeff = assign_coefficient(mesh, eps)
    weights = edge_weights(mesh, coeff)
    params = MethodParams(theta, 8.0, IP1)
    T = build_transform(mesh, weights)
    _assert_matches_product(split_matrix(mesh, coeff, weights, params, T), params,
                            mesh, coeff, weights, T)


@settings(deadline=None, max_examples=40)
@given(log_eps=st.floats(min_value=-16, max_value=16), level=st.sampled_from([0, 1]),
       variant=st.sampled_from([IP0, IP1]), theta=st.sampled_from([-1, 0, 1]))
def test_split_identity_holds_at_any_contrast(log_eps, level, variant, theta):
    # S x = T^t A T x entry by entry, and the IP0 zero block, at any
    # contrast in [1e-16, 1e16]; forming gamma as 1 - beta made the ratios
    # up to 2e14 at eps 1e+-16
    params = MethodParams(theta, 8.0, variant)
    p = build_problem(build_hierarchy(level), 10.0**log_eps, params)
    if variant == IP0:
        S = p.blocks().matrix()
    else:
        S = split_matrix(p.mesh, p.coeff, p.weights, params, p.transform)
    x, _, x_v = _split_parts(p.mesh)
    args = p.mesh, p.coeff, p.weights, params, p.transform, S
    assert _ratios(*args, x, p.A).max() <= IDENTITY_BOUND
    if variant == IP0:
        assert _ratios(*args, x_v, p.A)[:p.mesh.n_edges].max() <= IDENTITY_BOUND


@pytest.mark.parametrize("eps", [1e-16, 1e-14, 1e-5, 1.0, 1e5, 1e14, 1e16])
@pytest.mark.parametrize("level", [0, 1])
def test_transform_entries_match_their_rational_values(level, eps):
    # column by column in exact arithmetic: the CR hat of an edge on each
    # of its sides (1 at the edge's endpoints, -1 at the opposite vertex),
    # times beta = kappa- / (kappa+ + kappa-) on the plus and -gamma =
    # -kappa+ / (kappa+ + kappa-) on the minus side for a z-column; a
    # boundary z-column is the plus-side hat.  A float eps is an exact
    # Fraction, and every entry not listed is 0
    mesh = build_hierarchy(level).finest
    coeff = assign_coefficient(mesh, eps)
    T = build_transform(mesh, edge_weights(mesh, coeff)).toarray()

    def hat(t, e):
        ends = set(mesh.edge_vertices[e].tolist())
        return {3 * t + k: 1 if v in ends else -1 for k, v in enumerate(mesh.triangles[t].tolist())}

    exact = {}
    cr_columns = iter(range(mesh.n_edges, mesh.n_dofs))
    for e, bnd in enumerate(mesh.boundary_edge_mask):
        tp, tm = mesh.edge_occurrence[e] // 3
        if bnd:
            exact.update(((d, e), Fraction(h)) for d, h in hat(tp, e).items())
            continue
        kp, km = Fraction(coeff[tp]), Fraction(coeff[tm])
        j = next(cr_columns)
        for t, weight in ((tp, km / (kp + km)), (tm, -kp / (kp + km))):
            for d, h in hat(t, e).items():
                exact[d, e] = h * weight
                exact[d, j] = Fraction(h)
    rows, cols = np.nonzero(T)
    assert set(zip(rows.tolist(), cols.tolist())) <= set(exact)
    worst = max(abs(Fraction(T[i, j]) - r) / abs(r) for (i, j), r in exact.items())
    assert worst <= 2 * Fraction(np.finfo(float).eps)


_EXTREME_EPS = (1e-16, 1e-14, 1e14, 1e16)


# the IP0 cases keep their ids from before IP1 was a parameter
@pytest.mark.parametrize("eps, variant", [
    *(pytest.param(eps, IP0, id=str(eps)) for eps in _EXTREME_EPS),
    *(pytest.param(eps, IP1, id=f"{eps}-IP1") for eps in _EXTREME_EPS)])
def test_closed_form_diagonals_stay_positive_at_extreme_contrast(eps, variant):
    # the products T_a^t A T_b, cut at 1e-14 of each block's largest entry,
    # left 720/624, 288/621, 32/48 and 112/80 nonpositive diagonals in
    # A_zz/A_vv here; the closed form makes no cut, and the IP1 penalty term
    # adds a sum of squares to the diagonal
    p = build_problem(build_hierarchy(2), eps, MethodParams(-1, 8.0, variant))
    if variant == IP0:
        blocks = p.blocks()
        diagonal = np.concatenate([blocks.A_zz.diagonal(), blocks.A_vv.diagonal()])
    else:
        diagonal = split_matrix(p.mesh, p.coeff, p.weights, p.params, p.transform).diagonal()
    assert np.all(diagonal > 0)


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
    T, peak = _traced_peak(build_transform, mesh, weights)
    # 2.12 times at level 4 (2.28 when the values were concatenated);
    # building it from edge_traces took 3.49
    assert peak <= 2.5 * _nbytes(T)


def test_closed_form_memory_stays_near_its_result(level4):
    mesh, coeff, weights = level4
    blocks, peak = _traced_peak(extract_blocks, mesh, coeff, weights, MethodParams(-1, 8.0, IP0))
    # 2.5 times at level 4 with the rows filled a chunk of triangles at a
    # time; summing whole-mesh COO terms took 4.05, and concatenating them
    # with the penalty, on int64 indices, 5.80
    assert peak <= 4.5 * _nbytes(blocks.A_zz, blocks.A_vz, blocks.A_vv)


def test_split_matrix_memory_stays_near_its_result(level4):
    # 1.77 times at level 4 with P = D^t W D formed first, D freed and the
    # blocks summed into P's own arrays; 2.87 with S, D, P, S + fix and
    # their sum alive at once
    mesh, coeff, weights = level4
    params = MethodParams(-1, 8.0, IP1)
    T = build_transform(mesh, weights)
    S, peak = _traced_peak(split_matrix, mesh, coeff, weights, params, T)
    assert peak <= 2.0 * _nbytes(S)


def _summed_split_matrix(mesh, coeff, weights, params, T):
    """The IP1 split matrix as the sum S + (own - p) + P of three scipy
    matrices, the oracle that split_matrix's in-place sum must equal byte
    for byte."""
    S = extract_blocks(mesh, coeff, weights, params).matrix()
    D = assembly.edge_jumps(mesh) @ T
    P = D.T.tocsr() @ (sp.diags_array(params.alpha * weights.kappa_e / 12) @ D)
    P.sort_indices()
    kappa = np.take(weights.kappa_e, mesh.tri_edges)
    ratio = (np.roll(kappa, 1, axis=1) + np.roll(kappa, -1, axis=1)) / coeff[:, None]
    ratio[mesh.tri_minus] *= -1
    interior = mesh.interior_edges
    own = np.bincount(mesh.tri_edges.ravel(), ratio.ravel())[interior] * weights.kappa_e[interior]
    rows = np.concatenate([interior, mesh.n_edges + np.arange(len(interior))])
    cols = np.roll(rows, len(interior))
    fix = np.tile(params.alpha / 6 * own, 2) - np.asarray(P[rows, cols]).ravel()
    F = sp.csr_matrix((fix, (rows, cols)), shape=S.shape)
    F.eliminate_zeros()
    return S + F + P


def _csr_bytes(A):
    return [(a.dtype, a.tobytes()) for a in (A.indptr, A.indices, A.data)]


@pytest.mark.parametrize("alpha", [1.0, 8.0])
@pytest.mark.parametrize("eps", [1e-14, 1e-5, 1.0, 1e5, 1e14])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_split_matrix_equals_the_scipy_sum(level, eps, alpha):
    mesh = _hierarchy(level).finest
    coeff = assign_coefficient(mesh, eps)
    weights = edge_weights(mesh, coeff)
    params = MethodParams(-1, alpha, IP1)
    T = build_transform(mesh, weights)
    got = split_matrix(mesh, coeff, weights, params, T)
    assert got.has_canonical_format
    assert _csr_bytes(got) == _csr_bytes(_summed_split_matrix(mesh, coeff, weights, params, T))


def test_add_into_merges_entries_outside_the_pattern():
    # B has one entry, (1, 0), where P stores nothing, and one sum, at
    # (0, 0), that cancels to 0; the result is scipy's B + P byte for byte
    P = sp.csr_matrix(np.array([[2.0, 0.0, 0.1], [0.0, 3.0, 0.0], [0.3, 0.0, 5.0]]))
    B = sp.csr_matrix(np.array([[-2.0, 0.0, 0.7], [0.6, 1.0, 0.0], [0.0, 0.0, 1e-17]]))
    expected = B + P
    got = basis_split._add_into(P.copy(), B)
    assert got.has_canonical_format and got.nnz == 5 and got[1, 0] == 0.6
    assert _csr_bytes(got) == _csr_bytes(expected)


def _solve_kernels(mesh, coeff, weights):
    """The whole-mesh kernels of the IP0 solve, in its order, each a
    function of nothing that returns its result's arrays."""
    params = MethodParams(-1, 8.0, IP0)
    rng = np.random.default_rng(4)
    b, u = rng.standard_normal((2, mesh.n_dofs))
    z, v = np.split(u, [mesh.n_edges])

    def blocks():
        B = extract_blocks(mesh, coeff, weights, params)
        return [a for M in (B.A_zz, B.A_vz, B.A_vv) for a in (M.data, M.indices, M.indptr)]

    return {
        "assemble_rhs": lambda: [assemble_rhs(mesh, lambda x, y: 1.0 + x * y)],
        "extract_blocks": blocks,
        "split_rhs": lambda: [split_rhs(b, mesh, weights)],
        "from_split": lambda: [from_split(z, v, mesh, weights)],
        "apply_dg": lambda: [apply_dg(mesh, coeff, weights, params, u)],
    }


# the traced peak of each kernel over its result at level 4, eps 1e-5;
# measured 3.5, 2.5, 4.25, 5.5 and 14.8 with 2,048-triangle chunks,
# against 9.35, 4.05, 11.1, 14.3 and 22.4 for the whole-mesh temporaries
# they replace.  apply_dg's result is one vector, next to which its chunk's
# sides and blocks are large
KERNEL_PEAK_BOUNDS = {"assemble_rhs": 4.5, "extract_blocks": 3.0, "split_rhs": 5.0,
                      "from_split": 6.5, "apply_dg": 17.0}


@pytest.mark.parametrize("kernel", sorted(KERNEL_PEAK_BOUNDS))
def test_solve_kernel_transients_stay_near_their_results(level4, kernel):
    arrays, peak = _traced_peak(_solve_kernels(*level4)[kernel])
    assert peak <= KERNEL_PEAK_BOUNDS[kernel] * sum(a.nbytes for a in arrays)


@pytest.mark.parametrize("level", [1, 2])
def test_chunks_give_the_same_bytes_as_one_pass(monkeypatch, level):
    # a few triangles a chunk, so that chunks and the neighbours outside
    # them cut through the mesh, against one chunk over the whole mesh
    mesh = _hierarchy(level).finest
    coeff = assign_coefficient(mesh, 1e-5)
    weights = edge_weights(mesh, coeff)
    kernels = _solve_kernels(mesh, coeff, weights)
    u = np.random.default_rng(level).standard_normal(mesh.n_dofs)
    for theta in (0, 1):
        params = MethodParams(theta, 8.0, IP1)
        kernels[f"assemble_dg {theta}"] = lambda params=params: [
            getattr(assemble_dg(mesh, coeff, weights, params), a) for a in ("data", "indices", "indptr")]
        kernels[f"apply_dg {theta}"] = lambda params=params: [
            apply_dg(mesh, coeff, weights, params, u)]
        kernels[f"extract_blocks {theta}"] = lambda params=params: [
            a for M in vars(extract_blocks(mesh, coeff, weights, params)).values()
            for a in (M.data, M.indices, M.indptr)]
    whole = {name: kernel() for name, kernel in kernels.items()}
    monkeypatch.setattr(assembly, "_CHUNK", 7)
    for name, kernel in kernels.items():
        got = kernel()
        assert [a.dtype for a in got] == [a.dtype for a in whole[name]], name
        assert [a.tobytes() for a in got] == [a.tobytes() for a in whole[name]], name


@pytest.mark.parametrize("eps", [1e-14, 1e-5, 1.0, 1e5, 1e14])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_cr_block_is_exactly_symmetric(level, eps):
    # forward_substitution_solve factors the CSC view of A_vv^t as A_vv
    mesh = _hierarchy(level).finest
    coeff = assign_coefficient(mesh, eps)
    A_vv = extract_blocks(mesh, coeff, edge_weights(mesh, coeff), MethodParams(-1, 8.0)).A_vv
    A_t = A_vv.T.tocsr()
    A_t.sort_indices()
    assert np.array_equal(A_t.indptr, A_vv.indptr)
    assert np.array_equal(A_t.indices, A_vv.indices)
    assert A_t.data.tobytes() == A_vv.data.tobytes()
