"""Preconditioners for the split-basis systems.

All preconditioners expose ``apply(r) -> x`` approximating the inverse action.
The two-level and multilevel (BPX) operators are one additive operator,
AdditivePrecond: a smoother on the Crouzeix-Raviart block plus exact or
smoothed corrections from nested conforming P1 spaces (homogeneous Dirichlet,
interior vertices only), reached through a chain of transfers.  Coarse
matrices are Galerkin triple products of the fine CR matrix, which guarantees
symmetric positive definite and nested coarse problems.
"""

import functools
import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools

from .krylov import pcg

JACOBI = "jacobi"
SYM_GS = "sym_gs"
# relative residual, recurrence and true, to which forward_substitution_solve
# solves the complement block
ZZ_RTOL = 1e-14


@dataclass
class SmootherSpec:
    kind: str = SYM_GS
    sweeps: int = 5

    def __post_init__(self):
        if self.kind not in (JACOBI, SYM_GS):
            raise ValueError(f"smoother must be 'jacobi' or 'sym_gs', got {self.kind!r}")
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be >= 1, got {self.sweeps}")


class DiagonalPrecond:
    """Inverse of a positive diagonal d; NaN counts as not positive."""

    def __init__(self, d):
        if not np.all(d > 0):
            raise ValueError("diagonal must be positive")
        self.inv_diag = 1.0 / d

    def apply(self, r):
        return self.inv_diag * r


class DirectSolve:
    """Exact inverse via sparse LU; the package's only factorization.

    The matrices factored here (the CR block, Galerkin coarse matrices,
    symmetric parts) are structurally symmetric, so a minimum-degree ordering
    of A^t + A (Liu 1985) fills in about a third of what SuperLU's default
    COLAMD ordering does.  Supernodes are not relaxed: with relaxed
    supernodes that ordering factors 10 to 400 times slower.  Partial
    pivoting is SuperLU's default, which keeps a nonsymmetric matrix safe.
    """

    def __init__(self, A):
        self.lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1,
                            panel_size=1)

    def apply(self, r):
        return self.lu.solve(r)


def _strict_lower(A, inv_diag):
    """-D^{-1} L for the CSR matrix A = D + L + U, as CSR arrays (indptr,
    indices, data) with each row's entries in A's stored order."""
    n = A.shape[0]
    rows = np.repeat(np.arange(n, dtype=A.indices.dtype), np.diff(A.indptr))
    keep = A.indices < rows
    ptr = np.zeros(n + 1, dtype=A.indices.dtype)
    np.cumsum(np.bincount(rows[keep], minlength=n), out=ptr[1:])
    return ptr, A.indices[keep], A.data[keep] * -inv_diag[rows[keep]]


def _substitute(ptr, indices, data, x):
    """x <- x + T x row by row, in place, for the strictly lower CSR matrix
    T: scipy's csr_matvec forms row i from x as it stands, every row before
    i already written, so one product with the same x as input and output is
    the forward substitution."""
    n = len(x)
    _sparsetools.csr_matvec(n, n, ptr, indices, data, x, x)


class Smoother:
    """Fixed number of stationary sweeps x <- x + M^{-1}(r - A x) from x = 0.

    Jacobi sweeps are damped by 1/2 (plain Jacobi need not converge on these
    stiffness matrices); symmetric Gauss-Seidel sweeps forward then backward
    in the fixed unknown order, M = (D + L) D^{-1} (D + U).  The resulting
    operator (I - E^s) A^{-1} with E = I - M^{-1} A is symmetric positive
    definite for a convergent sweep.

    Each half-sweep of Gauss-Seidel is one in-place product (_substitute):
    the forward one with -D^{-1} L, the backward one with -D^{-1} U stored
    with its rows and columns reversed, on a reversed copy of the iterate,
    so that it too is a forward substitution.  The sweeps run in Eisenstat's
    form (Eisenstat 1981): with h = D^{-1} U x, a sweep is
    x' = (D + L)^{-1} (r - D h), x'' = (D + U)^{-1} D (h + x') and
    h <- h + x' - x'', so no sweep multiplies by A.
    """

    def __init__(self, A, spec=None):
        spec = spec or SmootherSpec()
        A = A.tocsr()
        self.spec = spec
        d = A.diagonal()
        if not np.all(d > 0):
            raise ValueError("matrix diagonal must be positive")
        if spec.kind == JACOBI:
            # a single Jacobi sweep is the plain inverse diagonal; repeated
            # sweeps are damped by 1/2 to guarantee a convergent splitting
            self.A = A
            self._inv_diag = (1.0 if spec.sweeps == 1 else 0.5) / d
            return
        # Gauss-Seidel keeps its two triangles, not A
        n = len(d)
        self._inv_diag = 1.0 / d
        self._forward = _strict_lower(A, self._inv_diag)
        # -D^{-1} U in reversed numbering is the strict lower part of A with
        # rows and columns reversed; row slicing keeps each row's entry order
        flipped = sp.csr_matrix((A.data, n - 1 - A.indices, A.indptr), shape=(n, n))[::-1]
        self._backward = _strict_lower(flipped, self._inv_diag[::-1])

    def _sym_gs(self, r):
        b = self._inv_diag * r
        h = np.zeros_like(b)
        for _ in range(self.spec.sweeps):
            x = b - h
            _substitute(*self._forward, x)
            y = h[::-1] + x[::-1]
            _substitute(*self._backward, y)
            h += x
            h -= y[::-1]
        # contiguous, in the unknowns' own order
        return y[::-1].copy()

    def apply(self, r):
        if self.spec.kind == SYM_GS:
            return self._sym_gs(r)
        x = self._inv_diag * r
        for _ in range(self.spec.sweeps - 1):
            x = x + self._inv_diag * (r - self.A @ x)
        return x


def conforming_prolongation(hier, j):
    """Interior-vertex P1 prolongation from level j to level j+1: the
    identity stacked on cr_from_conforming of the level-j mesh.

    Under ``refine`` the coarse interior vertices keep their numbers and
    come first among the fine ones, and fine vertex ``n_vertices + e``,
    the midpoint of coarse edge ``e``, is interior exactly when ``e`` is,
    where a P1 function takes the CR coefficient of ``e``.  Boundary
    vertices carry homogeneous values on both levels.
    """
    inject = cr_from_conforming(hier.meshes[j])
    return sp.vstack([sp.identity(inject.shape[1], format="csr"), inject], format="csr")


def cr_from_conforming(mesh):
    """Inject interior-vertex P1 values into Crouzeix-Raviart coefficients.

    The CR coefficient of an interior edge is the function value at the edge
    midpoint, i.e. the mean of the endpoint values.
    """
    interior_edges = mesh.interior_edges
    c = mesh.interior_vertex_index()[mesh.edge_vertices[interior_edges]]
    keep = c >= 0
    rows = np.broadcast_to(np.arange(len(interior_edges))[:, None], c.shape)[keep]
    return sp.csr_matrix((np.full(keep.sum(), 0.5), (rows, c[keep])),
                         shape=(len(interior_edges), len(mesh.interior_vertices)))


def transfer_chain(hier, jc):
    """Finest-first transfers [C, p_{J-1}, ..., p_jc] from the CR space on
    the finest mesh down to the conforming space at level jc: C is
    cr_from_conforming on the finest mesh, p_j is conforming_prolongation
    from level j to j+1."""
    J = hier.levels - 1
    if not 0 <= jc <= J:
        raise ValueError("coarse level outside the hierarchy")
    return [cr_from_conforming(hier.finest)] + [
        conforming_prolongation(hier, j) for j in range(J - 1, jc - 1, -1)]


def cr_prolongation(hier, jc):
    """Prolongation from the conforming P1 space at level jc into the CR
    space on the finest mesh of the hierarchy: the product of
    transfer_chain(hier, jc) from left to right."""
    return functools.reduce(operator.matmul, transfer_chain(hier, jc)).tocsr()


class AdditivePrecond:
    """Additive subspace correction on the Crouzeix-Raviart block over a
    finest-first chain of transfers [T_1, ..., T_L] (Xu, SIAM Rev. 1992).

    Level 0 is A_vv itself; T_l maps level l into level l-1, and the level
    matrices are Galerkin products down the chain, A_l = T_l^t A_{l-1} T_l,
    which equal P_l^t A_vv P_l with the composite P_l = T_1 ... T_l.  The
    last level is solved exactly; A_vv and every other level are smoothed by
    one Smoother on block_diag(A_0, ..., A_{L-1}): Gauss-Seidel on a
    block-diagonal matrix sweeps each block on its own.  An apply restricts
    the residual one transfer at a time, r_l = T_l^t r_{l-1}, and prolongs
    the corrections back the same way, y_{l-1} = x_{l-1} + T_l y_l, so it
    never forms the composite P_l.
    """

    def __init__(self, A_vv, transfers, spec=None):
        self.transfers = [T.tocsr() for T in transfers]
        # T^t as CSR once: a transposed view would be rebuilt on every apply
        self.restrictions = [T.T.tocsr() for T in self.transfers]
        # the level matrices are set-up only: the last one is freed once
        # factored, the others once the smoother holds what it needs of
        # their block diagonal; no apply reads them
        A_levels = [A_vv]
        for T in self.transfers:
            A_levels.append((T.T @ A_levels[-1] @ T).tocsr())
        self.coarse = DirectSolve(A_levels.pop())
        self.splits = np.cumsum([A.shape[0] for A in A_levels])[:-1]
        self.smoother = Smoother(sp.block_diag(A_levels, format="csr"), spec)

    def apply(self, r):
        residuals = [r]
        for R in self.restrictions:
            residuals.append(R @ residuals[-1])
        x = np.split(self.smoother.apply(np.concatenate(residuals[:-1])),
                     self.splits)
        y = self.coarse.apply(residuals[-1])
        for T, x_l in zip(self.transfers[::-1], x[::-1]):
            y = x_l + T @ y
        return y


def two_level(A_vv, P, spec=None):
    """Smoother on A_vv plus an exact correction on the space reached by the
    prolongation P."""
    return AdditivePrecond(A_vv, [P], spec)


def bpx(A_vv, hier, spec=None):
    """Smoother on A_vv and on every conforming level of hier but the
    coarsest, which is solved exactly."""
    return AdditivePrecond(A_vv, transfer_chain(hier, 0), spec)


class BlockJacobiPrecond:
    """Block-diagonal operator for the full split system ordered [z; v]:
    inverse diagonal on the z block, any preconditioner on the v block."""

    def __init__(self, zz_diag, v_precond):
        self.z_prec = DiagonalPrecond(zz_diag)
        self.v_prec = v_precond
        self.n_z = len(zz_diag)

    def apply(self, r):
        return np.concatenate(
            [self.z_prec.apply(r[: self.n_z]), self.v_prec.apply(r[self.n_z :])]
        )


def block_jacobi_dg(zz_diag, B_cr):
    """Block-Jacobi preconditioner for the full split system: the inverse of
    zz_diag on the z block, B_cr (typically multilevel) on the CR block."""
    return BlockJacobiPrecond(zz_diag, B_cr)


def forward_substitution_solve(blocks, f_z, f_v):
    """Solve of the block lower triangular split system.

    First the z block, by conjugate gradients preconditioned with its
    diagonal, to which it is spectrally equivalent uniformly in the contrast
    and the mesh size (Ayuso de Dios and Zikatanov 2009), down to a relative
    residual of ZZ_RTOL; then the CR block, with the z coupling moved to the
    right-hand side, by sparse LU.  Raises ValueError (DiagonalPrecond) for
    a z diagonal that is not positive, RuntimeError when the z solve misses.

    The solve takes A_zz and A_vz out of blocks: it sets both to None on
    entry, whether or not it succeeds, and frees them, with its references
    to f_z and f_v, once z and f_v - A_vz z are formed, so SuperLU factors
    A_vv with none of them alive.  The caller keeps blocks.A_vv alone, and
    f_z and f_v are freed only if the caller holds no other reference to
    them (cli.cmd_solve passes them unnamed).
    """
    A_zz, A_vz = blocks.A_zz, blocks.A_vz
    blocks.A_zz = blocks.A_vz = None
    f_z = np.asarray(f_z, dtype=float)
    z, rep = pcg(A_zz, f_z, DiagonalPrecond(A_zz.diagonal()), tol=ZZ_RTOL)
    residual = np.linalg.norm(A_zz @ z - f_z)
    if not (rep.converged and residual <= ZZ_RTOL * np.linalg.norm(f_z)):
        raise RuntimeError(f"complement block solve missed {ZZ_RTOL:g} "
                           f"after {rep.iterations} iterations")
    rhs = np.asarray(f_v, dtype=float) - A_vz @ z
    del A_zz, A_vz, f_z, f_v
    # extract_blocks builds A_vv exactly symmetric, so the CSC view of its
    # transpose holds A_vv itself, and SuperLU takes it without a copy
    return z, DirectSolve(blocks.A_vv.T).apply(rhs)
