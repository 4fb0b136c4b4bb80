import dataclasses
import inspect
import pathlib
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

from dgprecond import krylov, precond
from dgprecond.mesh import build_hierarchy, assign_coefficient
from dgprecond.assembly import IP0, MethodParams, assemble_conforming, assemble_rhs
from dgprecond.basis_split import split_rhs
from dgprecond.experiments import build_problem
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
    p = build_problem(build_hierarchy(level), eps, MethodParams(-1, alpha, IP0))
    return p.hier, p.mesh, p.coeff, p.blocks()


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
    assert np.allclose(DiagonalPrecond(A.diagonal()).apply(r), r / A.diagonal())
    with pytest.raises(ValueError):
        DiagonalPrecond(np.array([1.0, -2.0]))


@pytest.mark.parametrize("kind", [JACOBI, SYM_GS])
def test_nan_diagonal_is_refused(kind):
    # NaN <= 0 is false: a test written that way let NaN through
    with pytest.raises(ValueError, match="diagonal must be positive"):
        DiagonalPrecond(np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="diagonal must be positive"):
        Smoother(sp.diags_array([1.0, np.nan], format="csr"), SmootherSpec(kind))


def test_direct_solve():
    A = _spd(12, seed=2)
    r = np.random.default_rng(3).standard_normal(12)
    assert np.allclose(A @ DirectSolve(A).apply(r), r, atol=1e-10)


@pytest.mark.parametrize("theta, block", [(-1, "A_vv"), (1, "A_zz")])
def test_direct_solve_split_blocks_with_minimum_degree_fill(theta, block):
    # the CR block (symmetric) and the theta = 1 complement block
    # (nonsymmetric) at L3, eps = 1e-5: an accurate solve with at most half
    # the fill of SuperLU's default ordering (35,186 against 82,598 for A_vv
    # and 35,560 against 83,692 for A_zz)
    p = build_problem(build_hierarchy(3), 1e-5, MethodParams(theta, 8.0, IP0))
    A = getattr(p.blocks(), block)
    solver = DirectSolve(A)
    r = np.random.default_rng(4).standard_normal(A.shape[0])
    res = np.linalg.norm(A @ solver.apply(r) - r) / np.linalg.norm(r)
    assert res < 1e-8
    default = spla.splu(A.tocsc())
    fill = solver.lu.L.nnz + solver.lu.U.nnz
    assert fill <= 0.5 * (default.L.nnz + default.U.nnz)


def test_direct_solve_is_the_only_factorization():
    # one factorization path: every sparse LU of the package is a DirectSolve
    src = pathlib.Path(precond.__file__).parent
    calls = {path.name: path.read_text().count("splu(")
             for path in sorted(src.glob("*.py"))}
    assert {name: n for name, n in calls.items() if n} == {"precond.py": 1}
    assert "splu(" in inspect.getsource(DirectSolve)


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


def test_sym_gs_smoother_keeps_its_triangles_not_the_matrix():
    # apply reads only the two triangles and the inverse diagonal; the
    # matrix itself would be one more copy for the preconditioner's lifetime
    _, _, _, blocks = _vv_block(2, 1e-5)
    A = blocks.A_vv
    sm = Smoother(A, SmootherSpec(SYM_GS, 5))
    assert not any(sp.issparse(v) for v in vars(sm).values())
    held = sum(a.nbytes for v in vars(sm).values()
               for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray))
    # the inverse diagonal, and the two strict triangles, which hold A's
    # off-diagonal entries once
    n = A.shape[0]
    assert held == 8 * n + 2 * A.indptr.nbytes + (A.nnz - n) * (
        A.data.itemsize + A.indices.itemsize)


def test_factored_sym_gs_sweep_matches_triangular_solves():
    # one sweep equals forward then backward substitution with the triangles
    # of the matrix itself
    _, _, _, blocks = _vv_block(2, 1e-5)
    A = blocks.A_vv.tocsr()
    n = A.shape[0]
    sm = Smoother(A, SmootherSpec(SYM_GS, 1))
    lower, upper = sp.tril(A, format="csr"), sp.triu(A, format="csr")
    rng = np.random.default_rng(19)
    # a contiguous residual, then strided columns, which give the same bits
    # as their copies and stay as they were
    for r in (rng.standard_normal(n), *rng.standard_normal((n, 3)).T):
        y = spla.spsolve_triangular(lower, r, lower=True)
        ref = spla.spsolve_triangular(upper, A.diagonal() * y, lower=False)
        r_in = r.copy()
        x = sm.apply(r)
        assert x.shape == r.shape
        assert np.array_equal(r, r_in)
        assert np.array_equal(x, sm.apply(r_in))
        assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
    # the operators, on A with each row's entries shuffled: forward holds
    # -D^-1 tril(A, -1), backward -D^-1 triu(A, 1) with rows and columns
    # reversed, each row's entries in A's stored order, and every stored
    # entry points to an earlier row
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    order = np.lexsort((rng.random(A.nnz), rows))
    A = sp.csr_matrix((A.data[order], A.indices[order], A.indptr), shape=(n, n))
    sm = Smoother(A, SmootherSpec(SYM_GS, 1))
    Dinv = sp.diags(1.0 / A.diagonal())
    cols = np.split(A.indices, A.indptr[1:-1])
    rev = np.arange(n)[::-1]
    for (ptr, indices, data), T, numbering, entry_cols in (
            (sm._forward, sp.tril(A, -1), np.arange(n),
             [c[c < i] for i, c in enumerate(cols)]),
            (sm._backward, sp.triu(A, 1), rev,
             [n - 1 - c[c > i] for i, c in enumerate(cols)][::-1])):
        stored = sp.csr_matrix((data, indices, ptr), shape=(n, n))
        expected = -(Dinv @ T).tocsr()[numbering][:, numbering]
        assert stored.nnz == T.nnz
        assert (stored != expected).nnz == 0
        assert np.array_equal(indices, np.concatenate(entry_cols))
        assert np.all(indices < np.repeat(np.arange(n), np.diff(ptr)))


def _sym_gs_reference(A, r, sweeps):
    """x <- x + M^-1 (r - A x) from x = 0, M = (D + L) D^-1 (D + U), by dense
    triangular solves in the matrix's own numbering."""
    Ad = A.toarray()
    d = np.diag(Ad)
    lower, upper = np.tril(Ad), np.triu(Ad)
    x = np.zeros_like(r)
    for _ in range(sweeps):
        y = scipy.linalg.solve_triangular(lower, r - Ad @ x, lower=True)
        x = x + scipy.linalg.solve_triangular(upper, d * y, lower=False)
    return x


def test_sym_gs_sweeps_match_dense_triangular_solves():
    _, _, _, blocks = _vv_block(2, 1e-5)
    A = blocks.A_vv
    r = np.random.default_rng(20).standard_normal(A.shape[0])
    ref = _sym_gs_reference(A, r, 5)
    x = Smoother(A, SmootherSpec(SYM_GS, 5)).apply(r)
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("drop", ["lower", "upper"])
def test_sym_gs_asymmetric_stored_pattern(drop):
    # two chains 0 - 1 - 2 - 3 and 4 - 5 - 6 - 7 coupled by (2, 5) stored on
    # one side only: unknown 5 must still follow 2 in the forward sweep when
    # only A_25 is stored, and precede it in the backward sweep when only A_52
    n = 8
    chain = sp.diags([-np.ones(3), 4.0 * np.ones(4), -np.ones(3)], [-1, 0, 1])
    A = sp.block_diag([chain, chain]).tolil()
    A[(2, 5) if drop == "lower" else (5, 2)] = -0.5
    A = A.tocsr()
    r = np.random.default_rng(22).standard_normal(n)
    for sweeps in (1, 5):
        ref = _sym_gs_reference(A, r, sweeps)
        x = Smoother(A, SmootherSpec(SYM_GS, sweeps)).apply(r)
        assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(1, 200), density=st.floats(0.0, 0.2), seed=st.integers(0, 2**31 - 1),
       sweeps=st.sampled_from([1, 5]))
@example(n=50, density=0.0, seed=0, sweeps=5)
def test_sym_gs_matches_reference_on_random_matrices(n, density, seed, sweeps):
    # diagonally dominant SPD matrices, numbered at random
    rng = np.random.default_rng(seed)
    S = sp.random(n, n, density=density, random_state=rng, format="csr")
    S = S + S.T
    A = S + sp.diags(abs(S).sum(axis=1).A1 + rng.uniform(0.5, 2.0, n))
    perm = rng.permutation(n)
    A = A.tocsr()[perm][:, perm]
    r = rng.standard_normal(n)
    ref = _sym_gs_reference(A, r, sweeps)
    x = Smoother(A, SmootherSpec(SYM_GS, sweeps)).apply(r)
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("kind,sweeps", [(JACOBI, 1), (JACOBI, 4), (SYM_GS, 1), (SYM_GS, 5)])
def test_smoother_linear_and_spd(kind, sweeps):
    A = _spd(10, seed=12)
    sm = Smoother(A, SmootherSpec(kind=kind, sweeps=sweeps))
    # materialize the operator; it must be symmetric positive definite
    M = np.column_stack([sm.apply(e) for e in np.eye(10)])
    assert np.allclose(M, M.T, atol=1e-10)
    assert np.linalg.eigvalsh(0.5 * (M + M.T))[0] > 0


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
                # fine vertex n_vertices + e bisects coarse edge e
                a, b = coarse.edge_vertices[f - coarse.n_vertices]
                assert np.allclose(
                    fine.vertices[f], 0.5 * (coarse.vertices[a] + coarse.vertices[b])
                )
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
    eps = 1e-2
    for level in (1, 2):
        hier, mesh, coeff, blocks = _vv_block(level, eps)
        for jc in range(level + 1):
            P = cr_prolongation(hier, jc)
            A_c = (P.T @ blocks.A_vv @ P).toarray()
            coeff_c = assign_coefficient(hier.meshes[jc], eps)
            A_ref = assemble_conforming(hier.meshes[jc], coeff_c).toarray()
            assert np.allclose(A_c, A_ref, atol=1e-12 * np.abs(A_ref).max())


def test_two_level_spd_and_bounded_condition():
    hier, mesh, coeff, blocks = _vv_block(2, 1e-3)
    P = cr_prolongation(hier, 2)
    B = two_level(blocks.A_vv, P, SmootherSpec(SYM_GS, 5))
    eigs = estimate_spectrum(blocks.A_vv, B)
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


@pytest.mark.parametrize("eps", [1e-5, 1e5])
def test_bpx_level_by_level_transfers_match_composite_prolongations(eps):
    # restricting and prolonging one level at a time, with one smoother on
    # the stacked levels, is the additive sum smoother + sum_j P_j op_j(P_j^t r)
    # with the composite P_j
    hier, mesh, coeff, blocks = _vv_block(3, eps)
    A_vv = blocks.A_vv
    B = bpx(A_vv, hier, SmootherSpec(SYM_GS, 5))
    P = [cr_prolongation(hier, j) for j in range(hier.levels)]
    # B keeps no level matrix: they are rebuilt down its transfers, finest
    # first (A_vv, then conforming levels J, ..., 0), and reversed
    A_levels = [A_vv]
    for T in B.transfers:
        A_levels.append((T.T @ A_levels[-1] @ T).tocsr())
    A_levels = A_levels[:0:-1]
    for j, P_j in enumerate(P):
        ref = (P_j.T @ A_vv @ P_j).toarray()
        assert np.abs(A_levels[j].toarray() - ref).max() <= 1e-12 * np.abs(ref).max()
    # reference: a smoother of its own on A_vv and on every level but the
    # coarsest, which is solved exactly
    spec = SmootherSpec(SYM_GS, 5)
    ops = [DirectSolve(A_levels[0])] + [Smoother(A_j, spec) for A_j in A_levels[1:]]
    fine = Smoother(A_vv, spec)
    r = np.random.default_rng(19).standard_normal((A_vv.shape[0], 3))
    for x in r.T:
        ref = fine.apply(x)
        for P_j, op in zip(P, ops):
            ref = ref + P_j @ op.apply(P_j.T @ x)
        got = B.apply(x)
        assert got.shape == x.shape
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_additive_precond_keeps_no_level_matrix(monkeypatch):
    # the level matrices are set-up only: while the preconditioners are
    # held, the coarsest level, which they factored, is freed
    hier, mesh, coeff, blocks = _vv_block(3, 1e-5)
    coarse = []

    class Spy(DirectSolve):
        def __init__(self, A):
            coarse.append(weakref.ref(A))
            super().__init__(A)

    monkeypatch.setattr(precond, "DirectSolve", Spy)
    held = [bpx(blocks.A_vv, hier), two_level(blocks.A_vv, cr_prolongation(hier, 2))]
    assert len(held) == len(coarse) == 2
    assert all(r() is None for r in coarse)


def test_bpx_stored_restrictions_match_transposed_transfers():
    hier, mesh, coeff, blocks = _vv_block(3, 1e-5)
    B = bpx(blocks.A_vv, hier, SmootherSpec(SYM_GS, 5))
    assert len(B.restrictions) == len(B.transfers) == hier.levels
    rng = np.random.default_rng(24)
    for T, R in zip(B.transfers, B.restrictions):
        assert R.format == "csr"
        for r in (rng.standard_normal(T.shape[0]), *rng.standard_normal((3, T.shape[0]))):
            assert np.array_equal(R @ r, T.T @ r)


def test_bpx_spd():
    hier, mesh, coeff, blocks = _vv_block(2, 1e-3)
    B = bpx(blocks.A_vv, hier, SmootherSpec(SYM_GS, 5))
    n = blocks.A_vv.shape[0]
    M = np.column_stack([B.apply(e) for e in np.eye(n)])
    assert np.allclose(M, M.T, atol=1e-10)
    assert np.linalg.eigvalsh(0.5 * (M + M.T))[0] > 0


def test_block_jacobi_structure():
    hier, mesh, coeff, blocks = _vv_block(1, 1e-2)
    nz = blocks.A_zz.shape[0]
    P = cr_prolongation(hier, 1)
    B = block_jacobi_dg(blocks.A_zz.diagonal(), two_level(blocks.A_vv, P))
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
    # the solve took A_zz and A_vz out of the blocks it was handed
    blocks = _vv_block(1, 1e-3)[3]
    assert np.allclose(blocks.A_zz @ z, f_z, atol=1e-9)
    assert np.allclose(blocks.A_vz @ z + blocks.A_vv @ v, f_v, atol=1e-9)


@pytest.mark.parametrize("theta", [-1, 0, 1])
def test_forward_substitution_factors_without_the_complement_blocks(theta, monkeypatch):
    # SuperLU factors A_vv with A_zz and A_vz unreachable, though the caller
    # still holds the blocks they came in, and the solution keeps its bytes
    p = build_problem(build_hierarchy(2), 1e-5, MethodParams(theta, 8.0, IP0))
    b = assemble_rhs(p.mesh, lambda x, y: 1.0)
    f_z, f_v = np.split(split_rhs(b, p.mesh, p.weights), [p.mesh.n_edges])
    # the reference, on a fresh extraction: the same PCG, then the same LU
    ref = p.blocks()
    z_ref, _ = krylov.pcg(ref.A_zz, f_z, DiagonalPrecond(ref.A_zz.diagonal()),
                          tol=precond.ZZ_RTOL)
    lu = spla.splu(ref.A_vv.T, permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1)
    v_ref = lu.solve(f_v - ref.A_vz @ z_ref)

    blocks = p.blocks()
    taken = weakref.ref(blocks.A_zz), weakref.ref(blocks.A_vz)
    alive = []

    class Spy(DirectSolve):
        def __init__(self, A):
            alive.append([r() is not None for r in taken])
            super().__init__(A)

    monkeypatch.setattr(precond, "DirectSolve", Spy)
    z, v = forward_substitution_solve(blocks, f_z, f_v)
    assert alive == [[False, False]]
    assert blocks.A_zz is None and blocks.A_vz is None and blocks.A_vv is not None
    assert z.tobytes() == z_ref.tobytes() and v.tobytes() == v_ref.tobytes()


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_complement_block_solve_is_robust(level, monkeypatch):
    # the paper's claim behind the z solve: A_zz is symmetric and spectrally
    # equivalent to its diagonal, uniformly in the contrast and the level, so
    # diagonally preconditioned CG reaches ZZ_RTOL in a few iterations
    hier = build_hierarchy(level)
    b = assemble_rhs(hier.finest, lambda x, y: 1.0)
    reports = []

    def spy(*args, **kwargs):
        x, rep = krylov.pcg(*args, **kwargs)
        reports.append(rep)
        return x, rep

    monkeypatch.setattr(precond, "pcg", spy)
    for eps in (1e-5, 1.0, 1e5):
        for theta in (-1, 0, 1):
            p = build_problem(hier, eps, MethodParams(theta, 8.0, IP0))
            blocks = p.blocks()
            A = blocks.A_zz
            assert abs(A - A.T).max() <= 1e-15 * abs(A).max()
            f_z, f_v = np.split(split_rhs(b, p.mesh, p.weights), [p.mesh.n_edges])
            z, _ = forward_substitution_solve(blocks, f_z, f_v)
            assert reports[-1].iterations <= 20
            assert np.linalg.norm(A @ z - f_z) <= 1e-14 * np.linalg.norm(f_z)
    assert len(reports) == 9


def test_complement_block_solve_fails_loudly(monkeypatch):
    # each call takes A_zz and A_vz out of its blocks: every call gets its own
    def blocks():
        return _vv_block(1, 1e-3)[3]

    f_z = np.ones(blocks().A_zz.shape[0])
    f_v = np.ones(blocks().A_vv.shape[0])

    def stalled(A, b, B=None, tol=1e-7, maxit=1000):
        return np.zeros(len(b)), krylov.SolveReport(iterations=maxit)

    monkeypatch.setattr(precond, "pcg", stalled)
    with pytest.raises(RuntimeError, match="missed"):
        forward_substitution_solve(blocks(), f_z, f_v)

    # a recurrence that claims convergence but a wrong answer
    def wrong(A, b, B=None, tol=1e-7, maxit=1000):
        return np.zeros(len(b)), krylov.SolveReport(iterations=1, converged=True)

    monkeypatch.setattr(precond, "pcg", wrong)
    with pytest.raises(RuntimeError, match="missed"):
        forward_substitution_solve(blocks(), f_z, f_v)

    # refused by DiagonalPrecond, the one check of the diagonal
    fresh = blocks()
    negative = dataclasses.replace(fresh, A_zz=-fresh.A_zz)
    with pytest.raises(ValueError, match="diagonal must be positive"):
        forward_substitution_solve(negative, f_z, f_v)


def test_smoother_largest_eigenvalue_stable_across_coefficients():
    # the smoothed operator R^{-1} A_vv has lambda_max nearly independent of
    # the coefficient contrast
    tops = []
    for eps in (1e-4, 1e-2, 1.0, 1e2):
        hier, mesh, coeff, blocks = _vv_block(1, eps)
        sm = Smoother(blocks.A_vv, SmootherSpec(SYM_GS, 5))
        eigs = estimate_spectrum(blocks.A_vv, sm)
        tops.append(eigs[-1])
    tops = np.asarray(tops)
    assert tops.max() / tops.min() < 1.1
