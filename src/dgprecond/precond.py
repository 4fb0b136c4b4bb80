"""Preconditioners for the split-basis systems.

All preconditioners expose ``apply(r) -> x`` approximating the inverse action.
The additive two-level and multilevel operators combine a smoother on the
Crouzeix-Raviart block with exact or smoothed corrections from nested
conforming P1 spaces (homogeneous Dirichlet, interior vertices only).  Coarse
matrices are Galerkin triple products of the fine CR matrix, which guarantees
symmetric positive definite and nested coarse problems.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

JACOBI = "jacobi"
SYM_GS = "sym_gs"


@dataclass
class SmootherSpec:
    kind: str = SYM_GS
    sweeps: int = 5

    def __post_init__(self):
        if self.kind not in (JACOBI, SYM_GS):
            raise ValueError("kind must be 'jacobi' or 'sym_gs'")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")


def _scale(d, r):
    """Multiply by a diagonal; r may be a vector or a matrix of columns."""
    if r.ndim == 1:
        return d * r
    return d[:, None] * r


class DiagonalPrecond:
    """Inverse of the matrix diagonal (or of an explicitly given diagonal)."""

    def __init__(self, A=None, diag=None):
        d = A.diagonal() if diag is None else np.asarray(diag, dtype=float)
        if np.any(d <= 0):
            raise ValueError("diagonal must be positive")
        self.inv_diag = 1.0 / d

    def apply(self, r):
        return _scale(self.inv_diag, r)


class DirectSolve:
    """Exact inverse via sparse LU."""

    def __init__(self, A):
        self.lu = spla.splu(A.tocsc())

    def apply(self, r):
        return self.lu.solve(r)


class Smoother:
    """Fixed number of stationary sweeps x <- x + M^{-1}(r - A x) from x = 0.

    Jacobi sweeps are damped by 1/2 (plain Jacobi need not converge on these
    stiffness matrices); symmetric Gauss-Seidel sweeps forward then backward
    in the fixed unknown order.  The resulting operator (I - E^s) A^{-1} with
    E = I - M^{-1} A is symmetric positive definite for a convergent sweep.
    """

    def __init__(self, A, spec=None):
        spec = spec or SmootherSpec()
        self.A = A.tocsr()
        self.spec = spec
        d = self.A.diagonal()
        if np.any(d <= 0):
            raise ValueError("matrix diagonal must be positive")
        if spec.kind == JACOBI:
            # a single Jacobi sweep is the plain inverse diagonal; repeated
            # sweeps are damped by 1/2 to guarantee a convergent splitting
            self._inv_diag = (1.0 if spec.sweeps == 1 else 0.5) / d
        else:
            self._diag = d
            self._lower = sp.tril(self.A, format="csr")
            self._upper = sp.triu(self.A, format="csr")

    def _sweep(self, r):
        if self.spec.kind == JACOBI:
            return _scale(self._inv_diag, r)
        y = spla.spsolve_triangular(self._lower, r, lower=True)
        return spla.spsolve_triangular(self._upper, _scale(self._diag, y),
                                       lower=False)

    def apply(self, r):
        x = self._sweep(r)
        for _ in range(self.spec.sweeps - 1):
            x = x + self._sweep(r - self.A @ x)
        return x


def conforming_prolongation(hier, j):
    """Interior-vertex P1 prolongation from level j to level j+1.

    Coarse vertices keep their values; each edge-midpoint vertex averages its
    two parents.  Boundary vertices carry homogeneous values on both levels.
    """
    coarse = hier.meshes[j]
    fine = hier.meshes[j + 1]
    ci = coarse.interior_vertices
    fi = fine.interior_vertices
    cidx = -np.ones(coarse.n_vertices, dtype=np.int64)
    cidx[ci] = np.arange(len(ci))
    parents = hier.vertex_parents[j]
    rows, cols, vals = [], [], []
    for k, f in enumerate(fi):
        if f < coarse.n_vertices:
            if cidx[f] >= 0:
                rows.append(k)
                cols.append(cidx[f])
                vals.append(1.0)
        else:
            for p in parents[f]:
                if cidx[p] >= 0:
                    rows.append(k)
                    cols.append(cidx[p])
                    vals.append(0.5)
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(fi), len(ci)))


def cr_from_conforming(mesh):
    """Inject interior-vertex P1 values into Crouzeix-Raviart coefficients.

    The CR coefficient of an interior edge is the function value at the edge
    midpoint, i.e. the mean of the endpoint values.
    """
    interior_edges = mesh.interior_edges
    vi = mesh.interior_vertices
    vidx = -np.ones(mesh.n_vertices, dtype=np.int64)
    vidx[vi] = np.arange(len(vi))
    rows, cols, vals = [], [], []
    for k, e in enumerate(interior_edges):
        for v in mesh.edge_vertices[e]:
            if vidx[v] >= 0:
                rows.append(k)
                cols.append(vidx[v])
                vals.append(0.5)
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(interior_edges), len(vi)))


def cr_prolongation(hier, jc):
    """Prolongation from the conforming P1 space at level jc into the CR
    space on the finest mesh of the hierarchy."""
    J = hier.levels - 1
    if not 0 <= jc <= J:
        raise ValueError("coarse level outside the hierarchy")
    P = cr_from_conforming(hier.finest)
    for j in range(J - 1, jc - 1, -1):
        P = P @ conforming_prolongation(hier, j)
    return P.tocsr()


class TwoLevelPrecond:
    """Additive two-level operator: CR smoother plus exact coarse correction
    on the conforming space reached by the prolongation P."""

    def __init__(self, A_vv, P, spec=None):
        if P.shape[0] != A_vv.shape[0]:
            raise ValueError("prolongation shape mismatch")
        self.P = P.tocsr()
        A_c = (self.P.T @ A_vv @ self.P).tocsc()
        self.coarse = DirectSolve(A_c)
        self.smoother = Smoother(A_vv, spec)

    def apply(self, r):
        return self.smoother.apply(r) + self.P @ self.coarse.apply(self.P.T @ r)


def two_level(A_vv, P, spec=None):
    return TwoLevelPrecond(A_vv, P, spec)


class HierarchyPrecond:
    """Additive multilevel operator on the Crouzeix-Raviart block.

    Exact solve on the coarsest conforming space, smoothers on every finer
    conforming level and on the fine CR block itself, all corrections summed.
    Level matrices are Galerkin products P_j^t A_vv P_j.
    """

    def __init__(self, A_vv, hier, spec=None):
        J = hier.levels - 1
        self.smoother = Smoother(A_vv, spec)
        self.P = []
        self.level_ops = []
        for j in range(J + 1):
            P_j = cr_prolongation(hier, j)
            A_j = (P_j.T @ A_vv @ P_j).tocsr()
            self.P.append(P_j)
            if j == 0:
                self.level_ops.append(DirectSolve(A_j))
            else:
                self.level_ops.append(Smoother(A_j, spec))

    def apply(self, r):
        x = self.smoother.apply(r)
        for P, op in zip(self.P, self.level_ops):
            x = x + P @ op.apply(P.T @ r)
        return x


def bpx(A_vv, hier, spec=None):
    return HierarchyPrecond(A_vv, hier, spec)


class BlockJacobiPrecond:
    """Block-diagonal operator for the full split system ordered [z; v]:
    inverse diagonal on the z block, any preconditioner on the v block."""

    def __init__(self, zz_diag, v_precond, n_z):
        self.z_prec = DiagonalPrecond(diag=zz_diag)
        self.v_prec = v_precond
        self.n_z = n_z

    def apply(self, r):
        return np.concatenate(
            [self.z_prec.apply(r[: self.n_z]), self.v_prec.apply(r[self.n_z :])]
        )


def block_jacobi_dg(A1_zz, B_cr):
    """Block-Jacobi preconditioner for the full split system: literal matrix
    diagonal on the z block, B_cr (typically multilevel) on the CR block."""
    return BlockJacobiPrecond(A1_zz.diagonal(), B_cr, A1_zz.shape[0])


def forward_substitution_solve(blocks, f_z, f_v):
    """Exact solve of the block lower triangular split system.

    First the z block, then the CR block with the z coupling moved to the
    right-hand side, each by sparse LU.
    """
    z = DirectSolve(blocks.A_zz).apply(np.asarray(f_z, dtype=float))
    v = DirectSolve(blocks.A_vv).apply(np.asarray(f_v, dtype=float) - blocks.A_vz @ z)
    return z, v
