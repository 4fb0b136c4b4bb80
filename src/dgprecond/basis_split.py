"""Change of basis between the nodal DG basis and the split basis.

The split basis consists of one function per edge spanning the
coefficient-dependent complement space (z-block, boundary edges included) and
one Crouzeix-Raviart hat per interior edge (v-block).  In this basis the
weakly penalized stiffness matrix is block lower triangular; the structurally
zero block is verified during extraction, not trusted.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import BOUNDARY
from .assembly import _edge_local_vertices, drop_tiny


class BlockStructureError(RuntimeError):
    """The expected zero block of the split-basis matrix is not zero."""


@dataclass
class SplitBasis:
    """Sparse transform from split coefficients [z; v] to nodal DG dofs.

    Columns 0..n_edges-1 are the z-block (all edges, in edge order); the
    remaining columns are the CR hats of the interior edges.
    """

    transform: sp.csr_matrix
    n_z: int
    n_v: int
    interior_edges: np.ndarray  # edge index of each v-column

    @property
    def n_dofs(self):
        return self.n_z + self.n_v


def _cr_nodal_values(mesh, t, e):
    """Nodal values on triangle t of its CR basis function for edge e
    (1 - 2 * barycentric coordinate of the opposite vertex)."""
    vals = np.ones(3)
    vals[mesh.local_edge_index(t, e)] = -1.0
    return vals


def build_transform(mesh, weights):
    """Columns express each split basis function in nodal DG dofs."""
    rows, cols, vals = [], [], []

    def put(col, t, nodal):
        for i in range(3):
            rows.append(3 * t + i)
            cols.append(col)
            vals.append(nodal[i])

    interior = mesh.interior_edges
    n_z = mesh.n_edges
    for e in range(mesh.n_edges):
        tp = mesh.edge_plus[e]
        tm = mesh.edge_minus[e]
        if tm == BOUNDARY:
            put(e, tp, _cr_nodal_values(mesh, tp, e))
        else:
            bp = weights.beta[e]
            put(e, tp, bp * _cr_nodal_values(mesh, tp, e))
            put(e, tm, -(1.0 - bp) * _cr_nodal_values(mesh, tm, e))
    for k, e in enumerate(interior):
        tp = mesh.edge_plus[e]
        tm = mesh.edge_minus[e]
        put(n_z + k, tp, _cr_nodal_values(mesh, tp, e))
        put(n_z + k, tm, _cr_nodal_values(mesh, tm, e))

    T = sp.csr_matrix((vals, (rows, cols)), shape=(mesh.n_dofs, n_z + len(interior)))
    return SplitBasis(T, n_z, len(interior), interior)


def to_split(u, mesh, weights):
    """Closed-form decomposition coefficients.

    v_e is the (1-beta)-weighted trace average at the edge midpoint, z_e the
    jump along n+ (the trace value itself on boundary edges).
    """
    u = np.asarray(u)
    if u.shape != (mesh.n_dofs,):
        raise ValueError("nodal vector has wrong length")
    z = np.empty(mesh.n_edges)
    v = np.empty(len(mesh.interior_edges))
    for e in range(mesh.n_edges):
        tp = mesh.edge_plus[e]
        lp = _edge_local_vertices(mesh, tp, e)
        up = 0.5 * (u[3 * tp + lp[0]] + u[3 * tp + lp[1]])
        tm = mesh.edge_minus[e]
        if tm == BOUNDARY:
            z[e] = up
        else:
            lm = _edge_local_vertices(mesh, tm, e)
            um = 0.5 * (u[3 * tm + lm[0]] + u[3 * tm + lm[1]])
            z[e] = up - um
    for k, e in enumerate(mesh.interior_edges):
        tp, tm = mesh.edge_plus[e], mesh.edge_minus[e]
        lp = _edge_local_vertices(mesh, tp, e)
        lm = _edge_local_vertices(mesh, tm, e)
        up = 0.5 * (u[3 * tp + lp[0]] + u[3 * tp + lp[1]])
        um = 0.5 * (u[3 * tm + lm[0]] + u[3 * tm + lm[1]])
        bp = weights.beta[e]
        v[k] = (1.0 - bp) * up + bp * um
    return z, v


def from_split(z, v, basis):
    return basis.transform @ np.concatenate([z, v])


@dataclass
class BlockOperator:
    """Split-basis stiffness blocks; the structurally-zero block is checked
    at extraction and not stored."""

    A_zz: sp.csr_matrix
    A_vz: sp.csr_matrix
    A_vv: sp.csr_matrix


def extract_blocks(A_nodal, basis, zero_tol=1e-11):
    """Form T^t A T and partition into blocks, verifying the zero block.

    With trial functions indexing columns, the coupling of CR-trial with
    z-test sits in the upper-right block, which must vanish for every IP0
    method.
    """
    T = basis.transform
    S = (T.T @ A_nodal @ T).tocsr()
    nz = basis.n_z
    A_zv = S[:nz, nz:]
    scale = np.abs(A_nodal.data).max()
    worst = np.abs(A_zv.data).max() if A_zv.nnz else 0.0
    if worst > zero_tol * scale:
        raise BlockStructureError(
            f"CR-to-z coupling {worst:.3e} exceeds {zero_tol:.1e} * {scale:.3e}"
        )
    return BlockOperator(
        A_zz=drop_tiny(S[:nz, :nz].tocsr()),
        A_vz=drop_tiny(S[nz:, :nz].tocsr()),
        A_vv=drop_tiny(S[nz:, nz:].tocsr()),
    )


def split_matrix(A_nodal, basis):
    """Full split-basis matrix T^t A T (no structural-zero check)."""
    T = basis.transform
    return drop_tiny((T.T @ A_nodal @ T).tocsr())


def star_product(z1, z2, mesh, weights):
    """Weighted product sum_e (|e|/h_e) kappa_e z1_e z2_e (= sum kappa_e z1 z2
    in 2D where |e| = h_e)."""
    z1 = np.asarray(z1)
    z2 = np.asarray(z2)
    if z1.shape != (mesh.n_edges,) or z2.shape != (mesh.n_edges,):
        raise ValueError("z vectors must have one entry per edge")
    return float(np.sum(weights.kappa_e * z1 * z2))


def star_diagonal(mesh, weights):
    """Diagonal matrix of the weighted product in the z basis."""
    return sp.diags(weights.kappa_e).tocsr()
