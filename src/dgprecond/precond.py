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
from scipy.sparse.linalg._dsolve._superlu import gstrs

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


def _csc_arrays(T):
    """A CSC matrix as the (n, nnz, data, indices, indptr) arguments of gstrs."""
    return (T.shape[0], T.nnz, T.data, T.indices.astype(np.intc, copy=False),
            T.indptr.astype(np.intc, copy=False))


class Smoother:
    """Fixed number of stationary sweeps x <- x + M^{-1}(r - A x) from x = 0.

    Jacobi sweeps are damped by 1/2 (plain Jacobi need not converge on these
    stiffness matrices); symmetric Gauss-Seidel sweeps forward then backward
    in the fixed unknown order.  The resulting operator (I - E^s) A^{-1} with
    E = I - M^{-1} A is symmetric positive definite for a convergent sweep.

    A symmetric Gauss-Seidel sweep is one SuperLU triangular-pair solve with
    the LU factors (I + L D^{-1})(D + U) of M = (D + L) D^{-1} (D + U), stored
    at setup as CSC arrays in SuperLU's layout: L D^{-1} with D in the diagonal
    slots (SuperLU keeps U's diagonal with L), and the strict upper triangle U.
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
            lower = (sp.tril(self.A, -1, format="csc") @ sp.diags(1.0 / d)
                     + sp.diags(d)).tocsc()
            upper = sp.triu(self.A, 1, format="csc")
            if not np.array_equal(lower.indices[lower.indptr[:-1]], np.arange(len(d))):
                raise RuntimeError("a Gauss-Seidel factor column does not "
                                   "store its diagonal first")
            self._factors = _csc_arrays(lower) + _csc_arrays(upper)

    def _sweep(self, r):
        if self.spec.kind == JACOBI:
            return _scale(self._inv_diag, r)
        x, info = gstrs("N", *self._factors, r)
        if info != 0:
            raise RuntimeError(f"SuperLU triangular solve failed (info={info})")
        return x

    def apply(self, r):
        x = self._sweep(r)
        for _ in range(self.spec.sweeps - 1):
            x = x + self._sweep(r - self.A @ x)
        return x


def conforming_prolongation(hier, j):
    """Interior-vertex P1 prolongation from level j to level j+1.

    Coarse vertices keep their values; fine vertex ``n_vertices + e`` (see
    ``refine``) averages the two endpoints of coarse edge ``e``.  Boundary
    vertices carry homogeneous values on both levels.
    """
    coarse = hier.meshes[j]
    nv = coarse.n_vertices
    ci = coarse.interior_vertices
    fi = hier.meshes[j + 1].interior_vertices
    cidx = -np.ones(nv, dtype=np.int64)
    cidx[ci] = np.arange(len(ci))
    # the coarse parents of each fine vertex: itself twice, or an edge's ends
    parents = np.vstack([np.repeat(np.arange(nv)[:, None], 2, axis=1), coarse.edge_vertices])
    c = cidx[parents[fi]]
    old = fi < nv
    keep = c >= 0
    keep[old, 1] = False
    rows = np.broadcast_to(np.arange(len(fi))[:, None], c.shape)[keep]
    vals = np.broadcast_to(np.where(old, 1.0, 0.5)[:, None], c.shape)[keep]
    return sp.csr_matrix((vals, (rows, c[keep])), shape=(len(fi), len(ci)))


def cr_from_conforming(mesh):
    """Inject interior-vertex P1 values into Crouzeix-Raviart coefficients.

    The CR coefficient of an interior edge is the function value at the edge
    midpoint, i.e. the mean of the endpoint values.
    """
    interior_edges = mesh.interior_edges
    vi = mesh.interior_vertices
    vidx = -np.ones(mesh.n_vertices, dtype=np.int64)
    vidx[vi] = np.arange(len(vi))
    c = vidx[mesh.edge_vertices[interior_edges]]
    keep = c >= 0
    rows = np.broadcast_to(np.arange(len(interior_edges))[:, None], c.shape)[keep]
    return sp.csr_matrix((np.full(keep.sum(), 0.5), (rows, c[keep])),
                         shape=(len(interior_edges), len(vi)))


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
    Residuals are restricted one level at a time, by C^t = the transpose of
    cr_from_conforming on the finest mesh and then by each p_j^t
    (conforming_prolongation), and the corrections are prolonged back the
    same way, so an apply never forms the composite prolongations
    P_j = C p_{J-1} ... p_j.  Level matrices are Galerkin products of the
    next finer one: A_J = C^t A_vv C and A_j = p_j^t A_{j+1} p_j, which equal
    P_j^t A_vv P_j.
    """

    def __init__(self, A_vv, hier, spec=None):
        J = hier.levels - 1
        self.smoother = Smoother(A_vv, spec)
        self.C = cr_from_conforming(hier.finest)
        self.p = [conforming_prolongation(hier, j) for j in range(J)]
        self.A_levels = [(self.C.T @ A_vv @ self.C).tocsr()]
        for p_j in reversed(self.p):
            self.A_levels.insert(0, (p_j.T @ self.A_levels[0] @ p_j).tocsr())
        self.level_ops = [DirectSolve(self.A_levels[0])]
        self.level_ops += [Smoother(A_j, spec) for A_j in self.A_levels[1:]]

    def apply(self, r):
        # level residuals, coarsest first: r_J = C^t r, r_j = p_j^t r_{j+1}
        residuals = [self.C.T @ r]
        for p_j in reversed(self.p):
            residuals.insert(0, p_j.T @ residuals[0])
        # corrections summed from the coarsest level up: y_j = x_j + p_{j-1} y_{j-1}
        y = self.level_ops[0].apply(residuals[0])
        for p_j, op, r_j in zip(self.p, self.level_ops[1:], residuals[1:]):
            y = op.apply(r_j) + p_j @ y
        return self.smoother.apply(r) + self.C @ y


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
