"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line.  Reference bands are centered on
the stored reference values; exact table values depend on the eigenvalue
estimation method, so bands rather than equalities are asserted.
"""

import dataclasses
import functools

import numpy as np
import pytest
import scipy.linalg

from dgprecond.mesh import build_hierarchy
from dgprecond.assembly import IP0, IP1, MethodParams, apply_dg, assemble_rhs
from dgprecond.basis_split import IDENTITY_BOUND, from_split, identity_ratios, split_rhs
from dgprecond.precond import (DirectSolve, cr_prolongation, two_level, bpx,
                               forward_substitution_solve)
from dgprecond.krylov import estimate_spectrum
from dgprecond.experiments import (
    EPS_DEFAULT,
    ExperimentConfig,
    GOLDEN,
    RUNNERS,
    build_problem,
    compare_to_golden,
)


def _report(num, desc, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num} ({desc})"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig()


@pytest.fixture(scope="module")
def two_level_tables(cfg):
    return {w: RUNNERS["two-level"](dataclasses.replace(cfg, ratio=w))
            for w in (1, 2, 4)}


def _feasible(table):
    return [c for c in table.cells if not c.get("infeasible")]


def test_criterion_1_zz_robustness(cfg):
    table = RUNNERS["zz"](cfg)
    ks = [c["K"] for c in table.cells]
    its = [c["iterations"] for c in table.cells]
    ok = all(1.5 <= k <= 2.0 for k in ks) and all(i <= 20 for i in its)
    _report(1, "diagonal zz preconditioner robustness", ok,
            f"K in [{min(ks):.3f}, {max(ks):.3f}], max iters {max(its)}")


def test_criterion_2_iipg_zz_diagonal():
    # the closed-form A_zz stores its diagonal alone, and the z rows of
    # T^t A T x_z match it entry by entry (identity_ratios), x_z a seeded
    # vector of z coefficients
    worst, off_diagonal = 0.0, 0
    for level in (0, 1, 2):
        hier = build_hierarchy(level)
        for eps in (1e-5, 1.0, 1e5):
            p = build_problem(hier, eps, MethodParams(0, 8.0, IP0))
            blocks = p.blocks()
            off_diagonal += blocks.A_zz.nnz - np.count_nonzero(blocks.A_zz.diagonal())
            n_z = p.mesh.n_edges
            x_z = np.zeros(p.mesh.n_dofs)
            x_z[:n_z] = np.random.default_rng(level).standard_normal(n_z)
            apply = functools.partial(apply_dg, p.mesh, p.coeff, p.weights, p.params)
            ratios = identity_ratios(blocks.matrix(), x_z, p.transform, p.A, apply)
            worst = max(worst, ratios[:n_z].max())
    _report(2, "incomplete-variant zz block diagonal",
            off_diagonal == 0 and worst <= IDENTITY_BOUND,
            f"{off_diagonal} off-diagonal entries, identity at most {worst:.3g} of "
            f"eps (|T|^t |A| |T| |x|)")


def test_criterion_3_orthogonality():
    worst = 0.0
    for level in (0, 1, 2):
        hier = build_hierarchy(level)
        for eps in (1e-5, 1.0, 1e5):
            for theta in (-1, 0, 1):
                p = build_problem(hier, eps, MethodParams(theta, 8.0, IP0))
                T = p.transform
                S = (T.T @ p.A @ T).tocsr()
                zv = S[: p.mesh.n_edges, p.mesh.n_edges :]
                worst_cell = np.abs(zv.data).max() if zv.nnz else 0.0
                worst = max(worst, worst_cell / np.abs(p.A.data).max())
    _report(3, "CR-to-complement coupling vanishes", worst < 1e-12,
            f"worst relative coupling {worst:.3e}")


def test_criterion_4_two_level_w1(cfg, two_level_tables):
    table = two_level_tables[1]
    k1s = [c["K_1"] for c in _feasible(table)]
    cell = table.cell(1e-5, 4)
    hier = build_hierarchy(4)
    p = build_problem(hier, 1e-5, MethodParams(-1, 8.0, IP0))
    A_vv = p.blocks().A_vv
    B = two_level(A_vv, cr_prolongation(hier, 4), cfg.smoother_spec())
    eigs = estimate_spectrum(A_vv, B, seed=cfg.seed)
    n_isolated = int(np.sum(eigs < eigs[-1] / 1000.0))
    iter_checks = [c for c in compare_to_golden(table)["checks"]
                   if c["quantity"] == "iters"]
    iters_ok = all(c["pass"] for c in iter_checks)
    ok = (max(k1s) <= 5.0 and 1.3e4 <= cell["K"] <= 3.2e4
          and n_isolated == 1 and iters_ok)
    _report(4, "two-level same-mesh coarse space", ok,
            f"max K_1 {max(k1s):.2f}, K(1e-5, L4) {cell['K']:.3g}, "
            f"isolated eigenvalues {n_isolated}, "
            f"iteration checks {sum(c['pass'] for c in iter_checks)}/{len(iter_checks)}")


def test_criterion_5_two_level_coarser_ratios(two_level_tables):
    t1, t2, t4 = (two_level_tables[w] for w in (1, 2, 4))
    max2 = max(c["K_1"] for c in _feasible(t2))
    max4 = max(c["K_1"] for c in _feasible(t4))
    monotone = True
    for lo, hi in ((t1, t2), (t2, t4)):
        for cell in _feasible(hi):
            ref = lo.cell(cell["eps"], cell["level"])
            if cell["K_1"] < ref["K_1"] * (1 - 1e-9):
                monotone = False
    ok = max2 <= 5.0 and max4 <= 8.5 and monotone
    _report(5, "two-level with coarser coarse meshes", ok,
            f"max K_1 ratio-2 {max2:.2f}, ratio-4 {max4:.2f}, "
            f"monotone in ratio: {monotone}")


def test_criterion_6_bpx(cfg):
    table = RUNNERS["bpx"](cfg)
    k1_l4 = [table.cell(eps, 4)["K_1"] for eps in EPS_DEFAULT]
    ratios = [
        table.cell(1.0, l + 1)["K_1"] / table.cell(1.0, l)["K_1"]
        for l in range(4)
    ]
    ok = all(5.0 <= v <= 12.0 for v in k1_l4) and all(r <= 1.7 for r in ratios)
    _report(6, "multilevel preconditioner", ok,
            f"K_1 at level 4 in [{min(k1_l4):.2f}, {max(k1_l4):.2f}], "
            f"max growth ratio {max(ratios):.2f}")


def test_criterion_7_sipg1_block_jacobi(cfg):
    table = RUNNERS["sipg1"](cfg)
    k1s = [c["K_1"] for c in table.cells]
    k_cell = table.cell(1e-5, 3)["K"]
    ok = max(k1s) <= 8.5 and 1.4e4 <= k_cell <= 4.5e4
    _report(7, "fully penalized symmetric system block-Jacobi", ok,
            f"max K_1 {max(k1s):.2f}, K(1e-5, L3) {k_cell:.3g}")


def test_criterion_8_iipg_propagator(cfg):
    table = RUNNERS["iipg-propagator"](cfg)
    norms = [c["norm"] for c in table.cells]
    ok = all(0.09 <= v <= 0.27 for v in norms) and all(v < 1.0 for v in norms)
    _report(8, "nonsymmetric error propagator contraction", ok,
            f"norms in [{min(norms):.3f}, {max(norms):.3f}]")


def test_criterion_9_forward_substitution_oracle():
    worst = 0.0
    for level in (0, 1):
        hier = build_hierarchy(level)
        b = assemble_rhs(hier.finest, lambda x, y: 1.0 + x * y)
        for eps in (1e-3, 1.0, 1e3):
            for theta in (-1, 0, 1):
                p = build_problem(hier, eps, MethodParams(theta, 8.0, IP0))
                blocks = p.blocks()
                f = split_rhs(b, p.mesh, p.weights)
                z, v = forward_substitution_solve(blocks, f[: p.mesh.n_edges],
                                                  f[p.mesh.n_edges :])
                u = from_split(z, v, p.mesh, p.weights)
                u_ref = scipy.linalg.solve(p.A.toarray(), b)
                rel = np.linalg.norm(p.A @ (u - u_ref)) / np.linalg.norm(b)
                worst = max(worst, rel)
    _report(9, "block forward substitution equals direct solve", worst <= 1e-9,
            f"worst relative residual gap {worst:.3e}")


def test_criterion_10_spectral_equivalence():
    c0s = []
    lower_ok = True
    # the top Ritz value verify prints as c0, relative to the dense c0
    lanczos_dev = 0.0
    hier = build_hierarchy(2)
    for eps in EPS_DEFAULT:
        A0 = build_problem(hier, eps, MethodParams(-1, 8.0, IP0)).A
        A1 = build_problem(hier, eps, MethodParams(-1, 8.0, IP1)).A
        eigs = scipy.linalg.eigh(A1.toarray(), A0.toarray(), eigvals_only=True)
        lower_ok = lower_ok and eigs[0] >= 1.0 - 1e-10
        c0s.append(eigs[-1])
        top = estimate_spectrum(A1, DirectSolve(A0))[-1]
        lanczos_dev = max(lanczos_dev, abs(top - eigs[-1]) / eigs[-1])
    drift = max(c0s) / min(c0s) - 1.0
    ok = lower_ok and drift < 0.10 and lanczos_dev <= 1e-7
    _report(10, "penalty-variant spectral equivalence", ok,
            f"c0 in [{min(c0s):.3f}, {max(c0s):.3f}], drift {100 * drift:.1f}%, "
            f"Lanczos c0 within {lanczos_dev:.1e}")


def test_criterion_11_lanczos_dense_crosscheck(cfg):
    hier = build_hierarchy(2)
    p = build_problem(hier, 1e-3, MethodParams(-1, 8.0, IP0))
    A_vv = p.blocks().A_vv
    n = A_vv.shape[0]
    # dense reference: with A = L L^t, the eigenvalues of B*A are those of
    # the symmetric L^t B L, B applied to the columns of L
    L = scipy.linalg.cholesky(A_vv.toarray(), lower=True)
    worst = 0.0
    for B in (
        two_level(A_vv, cr_prolongation(hier, 2), cfg.smoother_spec()),
        bpx(A_vv, hier, cfg.smoother_spec()),
    ):
        M = L.T @ np.column_stack([B.apply(c) for c in L.T])
        dense = scipy.linalg.eigvalsh(0.5 * (M + M.T))
        lanczos = estimate_spectrum(A_vv, B, k=n, seed=1)
        for di, li in ((dense[0], lanczos[0]), (dense[1], lanczos[1]),
                       (dense[-1], lanczos[-1])):
            worst = max(worst, abs(li - di) / abs(di))
    _report(11, "iterative vs dense eigenvalue estimates", worst <= 1e-6,
            f"worst relative deviation {worst:.3e}")
