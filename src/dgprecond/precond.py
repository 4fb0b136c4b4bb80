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

JACOBI = "jacobi"
SYM_GS = "sym_gs"


@dataclass
class SmootherSpec:
    kind: str = SYM_GS
    sweeps: int = 5

    def __post_init__(self):
        if self.kind not in (JACOBI, SYM_GS):
            raise ValueError(f"smoother must be 'jacobi' or 'sym_gs', got {self.kind!r}")
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be >= 1, got {self.sweeps}")


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
    """Exact inverse via sparse LU; the package's only factorization.

    The matrices factored here (split blocks, Galerkin coarse matrices,
    symmetric parts) are structurally symmetric, so a minimum-degree ordering
    of A^t + A (Liu 1985) fills in about a third of what SuperLU's default
    COLAMD ordering does.  Supernodes are not relaxed: with relaxed
    supernodes that ordering factors 10 to 400 times slower.  Partial
    pivoting is SuperLU's default, which keeps the nonsymmetric theta = 0
    and theta = 1 blocks safe.
    """

    def __init__(self, A):
        self.lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1,
                            panel_size=1)

    def apply(self, r):
        return self.lu.solve(r)


def _wavefronts(A):
    """Unknowns of the CSR matrix A grouped into Gauss-Seidel wavefronts, in
    sweep order.

    Unknown k must wait for unknown j < k when A_jk or A_kj is stored, i.e. on
    the pattern of tril(A, -1) + triu(A, 1)^t.  A wavefront holds the
    unknowns whose longest chain of predecessors has the same length, so no
    two unknowns of one wavefront are coupled.  Fronts are peeled off one at
    a time (Kahn's algorithm): each front's rows of A and A^t are read once,
    plus one pass over the unknowns per front.
    """
    n = A.shape[0]
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    off = rows != A.indices
    waiting = np.bincount(np.maximum(rows, A.indices)[off], minlength=n)
    # rows j and n + j of (ptr, coupled) are rows j of A and of A^t: the
    # unknowns coupled to j
    At = A.T.tocsr()
    ptr = np.concatenate([A.indptr, At.indptr[1:] + A.indptr[-1]])
    sizes = np.diff(ptr)
    coupled = np.concatenate([A.indices, At.indices])
    front = np.flatnonzero(waiting == 0)
    fronts = []
    while front.size:
        fronts.append(front)
        waiting[front] = -1
        both = np.concatenate([front, front + n])
        starts, counts = ptr[both], sizes[both]
        ends = np.cumsum(counts)
        # predecessors and the front itself, done already, only sink further
        # below zero
        waiting -= np.bincount(coupled[np.repeat(starts - ends + counts, counts)
                                       + np.arange(ends[-1])], minlength=n)
        front = np.flatnonzero(waiting == 0)
    return fronts


def _sweep_operators(A, inv_diag, bounds):
    """-D^{-1} L and -D^{-1} U for the CSR matrix A = D + L + U, whose rows
    and columns are in wavefront order (wavefront l holds rows bounds[l] to
    bounds[l + 1]).  Each is the row slice (start, end, indptr view) of every
    wavefront that stores an entry, then the CSR indices and data; the
    backward one lists its wavefronts last to first."""
    n = A.shape[0]
    rows = np.repeat(np.arange(n, dtype=A.indices.dtype), np.diff(A.indptr))
    scaled = A.data * -inv_diag[rows]
    ops = []
    for keep in (A.indices < rows, A.indices > rows):
        ptr = np.zeros(n + 1, dtype=A.indices.dtype)
        np.cumsum(np.bincount(np.compress(keep, rows), minlength=n), out=ptr[1:])
        levels = [(s, e, ptr[s:e + 1]) for s, e in zip(bounds[:-1], bounds[1:])
                  if ptr[s] < ptr[e]]
        ops.append((levels, np.compress(keep, A.indices), np.compress(keep, scaled)))
    forward, (levels, indices, data) = ops
    return forward, (levels[::-1], indices, data)


def _substitute(levels, indices, data, x):
    """x_l += T_l x for every wavefront l in turn, in place; T_l reads only
    wavefronts already done.  x is a vector or a C-ordered block of columns."""
    n = x.shape[0]
    if x.ndim == 1:
        for s, e, ptr in levels:
            _sparsetools.csr_matvec(e - s, n, ptr, indices, data, x, x[s:e])
    else:
        for s, e, ptr in levels:
            _sparsetools.csr_matvecs(e - s, n, x.shape[1], ptr, indices, data,
                                     x, x[s:e])


class Smoother:
    """Fixed number of stationary sweeps x <- x + M^{-1}(r - A x) from x = 0.

    Jacobi sweeps are damped by 1/2 (plain Jacobi need not converge on these
    stiffness matrices); symmetric Gauss-Seidel sweeps forward then backward
    in the fixed unknown order, M = (D + L) D^{-1} (D + U).  The resulting
    operator (I - E^s) A^{-1} with E = I - M^{-1} A is symmetric positive
    definite for a convergent sweep.

    Gauss-Seidel runs by wavefronts (_wavefronts): the unknowns are permuted
    once, at setup, into wavefront order, in which the strict lower triangle
    L of A is block lower and the strict upper triangle U block upper, so the
    forward substitution walks the wavefronts in order and the backward one
    walks them in reverse, each wavefront being one product with a row slice
    of -D^{-1} L or -D^{-1} U.  The sweeps run in Eisenstat's form (Eisenstat
    1981): with h = D^{-1} U x, a sweep is x' = (D + L)^{-1} (r - D h),
    x'' = (D + U)^{-1} D (h + x') and h <- h + x' - x'', so no sweep
    multiplies by A.
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
            return
        fronts = _wavefronts(self.A)
        self._perm = np.concatenate(fronts)
        n = len(d)
        where = np.empty(n, dtype=self.A.indices.dtype)
        where[self._perm] = np.arange(n)
        # A and its inverse diagonal with rows and columns in wavefront order
        A = sp.csr_matrix((self.A.data, where[self.A.indices], self.A.indptr),
                          shape=(n, n))[self._perm]
        self._inv_diag = 1.0 / d[self._perm]
        bounds = np.cumsum([0] + [len(f) for f in fronts])
        self._forward, self._backward = _sweep_operators(A, self._inv_diag, bounds)

    def _sym_gs(self, r):
        b = np.asarray(r, dtype=float)[self._perm]
        b = _scale(self._inv_diag, b)
        h = np.zeros_like(b)
        for _ in range(self.spec.sweeps):
            x = b - h
            _substitute(*self._forward, x)
            y = h + x
            _substitute(*self._backward, y)
            h += x
            h -= y
        out = np.empty_like(y)
        out[self._perm] = y
        return out

    def apply(self, r):
        if self.spec.kind == SYM_GS:
            return self._sym_gs(r)
        x = _scale(self._inv_diag, r)
        for _ in range(self.spec.sweeps - 1):
            x = x + _scale(self._inv_diag, r - self.A @ x)
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
    block-diagonal matrix sweeps each block on its own, so the levels share
    its wavefronts.  An apply restricts the residual one transfer at a time,
    r_l = T_l^t r_{l-1}, and prolongs the corrections back the same way,
    y_{l-1} = x_{l-1} + T_l y_l, so it never forms the composite P_l.
    """

    def __init__(self, A_vv, transfers, spec=None):
        self.transfers = [T.tocsr() for T in transfers]
        self.A_levels = [A_vv]
        for T in self.transfers:
            self.A_levels.append((T.T @ self.A_levels[-1] @ T).tocsr())
        self.coarse = DirectSolve(self.A_levels[-1])
        smoothed = self.A_levels[:-1]
        self.splits = np.cumsum([A.shape[0] for A in smoothed])[:-1]
        self.smoother = Smoother(sp.block_diag(smoothed, format="csr"), spec)

    def apply(self, r):
        residuals = [r]
        for T in self.transfers:
            residuals.append(T.T @ residuals[-1])
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
