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

from .assembly import edge_traces


class BlockStructureError(RuntimeError):
    """The expected zero block of the split-basis matrix is not zero."""


@dataclass
class SplitBasis:
    """Sparse transform from split coefficients [z; v] to nodal DG dofs.

    Columns 0..n_edges-1 are the z-block (all edges, in edge order); the
    remaining columns are the CR hats of the interior edges.  The transform
    is CSC, so its transpose, which every product T^t A T starts with, is
    CSR like A.
    """

    transform: sp.csc_matrix
    n_z: int
    n_v: int


def build_transform(mesh, weights):
    """Columns express each split basis function in nodal DG dofs.

    On each side of an edge its CR hat is 1 at the edge's endpoints and -1 at
    the opposite vertex.  The z-function of an edge is beta times the hat on
    the plus side and -(1 - beta) times it on the minus side; beta = 1 on a
    boundary edge leaves the plus-side hat alone.  Only nonzero values are
    stored, so a boundary z-column has 3 entries and every other column 6.
    The CSC arrays are written directly, rows ascending in each column.
    """
    dofs, traces = edge_traces(mesh)
    hat = 2.0 * np.abs(traces).sum(axis=1) - 1.0
    bnd = mesh.boundary_edge_mask
    bp = np.where(bnd, 1.0, weights.beta)
    z_vals = np.repeat(np.column_stack([bp, -(1.0 - bp)]), 3, axis=1) * hat
    z_kept = z_vals != 0
    interior = mesh.interior_edges
    n_z, n_v = mesh.n_edges, len(interior)
    counts = np.concatenate([z_kept.sum(axis=1), np.full(n_v, 6)])
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    indices = np.concatenate([dofs[z_kept], dofs[interior].ravel()]).astype(np.int32)
    data = np.concatenate([z_vals[z_kept], hat[interior].ravel()])
    T = sp.csc_matrix((data, indices, indptr), shape=(mesh.n_dofs, n_z + n_v))
    return SplitBasis(T, n_z, n_v)


def to_split(u, mesh, weights):
    """Closed-form decomposition coefficients: the reference that
    test_to_split_inverts_transform checks build_transform against.

    v_e is the (1-beta)-weighted trace average at the edge midpoint, z_e the
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
    bp = weights.beta[interior]
    v = (1.0 - bp) * sides[interior, 0] - bp * sides[interior, 1]
    return z, v


def from_split(z, v, basis):
    return basis.transform @ np.concatenate([z, v])


def drop_tiny(A):
    """A new CSR copy of A without its stored entries below 1e-14 times the
    largest magnitude and without its exact zeros.

    The kept entries stay in A's order, in data and indices arrays that
    hold exactly nnz entries."""
    A = A.tocsr(copy=True)
    mag = np.abs(A.data)
    A.data[mag < 1e-14 * mag.max(initial=0.0)] = 0.0
    A.eliminate_zeros()
    # eliminate_zeros leaves views of the full-size buffers
    return A.copy()


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
    A_vz = S[nz:, :nz]
    scale = np.abs(A_nodal.data).max()
    worst = np.abs(S[:nz, nz:].data).max(initial=0.0)
    if worst > zero_tol * scale:
        raise BlockStructureError(
            f"CR-to-z coupling {worst:.3e} exceeds {zero_tol:.1e} * {scale:.3e}"
        )
    # A_vz is zero by structure for theta = -1: store none of its round-off
    if np.abs(A_vz.data).max(initial=0.0) <= zero_tol * scale:
        A_vz = sp.csr_matrix(A_vz.shape)
    return BlockOperator(
        A_zz=drop_tiny(S[:nz, :nz].tocsr()),
        A_vz=drop_tiny(A_vz.tocsr()),
        A_vv=drop_tiny(S[nz:, nz:].tocsr()),
    )


def split_matrix(A_nodal, basis):
    """Full split-basis matrix T^t A T (no structural-zero check)."""
    T = basis.transform
    return drop_tiny((T.T @ A_nodal @ T).tocsr())

