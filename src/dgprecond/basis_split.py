"""Change of basis between the nodal DG basis and the split basis.

The split basis consists of one function per edge spanning the
coefficient-dependent complement space (z-block, boundary edges included) and
one Crouzeix-Raviart hat per interior edge (v-block).  In this basis the
weakly penalized stiffness matrix is block lower triangular.  extract_blocks
writes its blocks in closed form, and split_matrix the IP1 split system.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import _gradients, _stiffness, edge_jumps, edge_traces, flux_average


def _side_values(mesh, weights):
    """T's entries, edge by edge and side by side: for each edge e and side
    s (0 plus, 1 minus), tri[e, s] the triangle and z[e, s, k], psi[e, s, k]
    the values of e's z-column and of its CR column at that triangle's local
    dof k.

    On each side of an edge its CR hat psi is 1 at the edge's endpoints and
    -1 at the opposite vertex.  The z-function of an edge is beta times the
    hat on the plus side and -gamma times it on the minus side, gamma =
    kappa+ / (kappa+ + kappa-).  A boundary edge's minus side repeats its
    plus triangle, with z-values gamma = 0 times the hat; it has no CR
    column.
    """
    occ = mesh.edge_occurrence
    tri = occ // 3
    # -1 at the local vertex off the edge, the side's local edge index
    psi = np.ones(6 * mesh.n_edges)
    psi[np.arange(0, len(psi), 3) + (occ % 3).ravel()] = -1.0
    psi = psi.reshape(-1, 2, 3)
    z = psi * np.column_stack([weights.beta, -weights.gamma])[:, :, None]
    return tri, z, psi


def build_transform(mesh, weights):
    """The sparse transform T from split coefficients [z; v] to nodal DG
    dofs: each column expresses one split basis function in nodal dofs.

    Columns 0..n_edges-1 are the z-block (all edges, in edge order); the
    remaining columns are the CR hats of the interior edges.  T is CSC, so
    its transpose, which every product T^t A T starts with, is CSR like A.

    The entries are those of _side_values.  Only nonzero values are stored,
    so a boundary z-column has 3 entries and every other column 6.  The CSC
    arrays are written directly, rows ascending in each column: the plus
    triangle has the smaller index.  solve applies T and T^t without it
    (split_rhs, from_split).
    """
    interior = mesh.interior_edges
    n_z, n_v = mesh.n_edges, len(interior)
    tri, z, psi = _side_values(mesh, weights)
    # a hat is never 0, so a side stores its z-values where its weight is
    # not; kept numbers the (edge, side) pairs that do
    kept = z[:, :, 0] != 0
    indptr = np.zeros(n_z + n_v + 1, dtype=np.int32)
    np.cumsum(np.concatenate([3 * np.add(kept[:, 0], kept[:, 1], dtype=np.int32),
                              np.full(n_v, 6)]), out=indptr[1:])
    kept = np.flatnonzero(kept)
    dofs = 3 * tri[:, :, None].astype(np.int32) + np.arange(3, dtype=np.int32)
    indices = np.concatenate([np.take(dofs.reshape(-1, 3), kept, axis=0).ravel(),
                              np.take(dofs, interior, axis=0).ravel()])
    del tri, dofs
    data = np.empty(len(indices))
    n_kept = 3 * len(kept)
    np.take(z.reshape(-1, 3), kept, axis=0, out=data[:n_kept].reshape(-1, 3))
    np.take(psi, interior, axis=0, out=data[n_kept:].reshape(-1, 2, 3))
    return sp.csc_matrix((data, indices, indptr), shape=(mesh.n_dofs, n_z + n_v))


def split_rhs(b, mesh, weights):
    """T^t b (build_transform) without T, equal to scipy's product entry for
    entry: each entry sums its terms from 0 in T's stored order, the plus
    side's local dofs 0, 1, 2, then the minus side's.  T stores no zeros;
    the terms that are 0 here, a boundary edge's minus ones, add +-0 to a
    sum started at +0, which leaves it as it is."""
    tri, z, psi = _side_values(mesh, weights)
    # the CR sums of every edge; those of the interior edges are T^t b's
    f_z, f_psi = np.zeros(mesh.n_edges), np.zeros(mesh.n_edges)
    dof0 = 3 * tri
    for s in (0, 1):
        for k in range(3):
            b_k = np.take(b, dof0[:, s] + k)
            f_z += z[:, s, k] * b_k
            f_psi += psi[:, s, k] * b_k
    return np.concatenate([f_z, np.take(f_psi, mesh.interior_edges)])


def from_split(z, v, mesh, weights):
    """T [z; v] (build_transform) without T, equal to scipy's product entry
    for entry: each nodal dof sums from 0 the z-terms of its triangle's
    edges in ascending edge order, then their CR terms.  A boundary edge
    has no CR column; its term here is +-0 and leaves the sum as it is."""
    _, z_vals, psi = _side_values(mesh, weights)
    # the row of each (triangle, edge) pair in the (edge, side) rows of
    # _side_values, each triangle's in ascending edge order
    a, b, c = (2 * mesh.tri_edges + mesh.tri_minus).T
    lo, hi = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
    rows = (lo, a + b + c - lo - hi, hi)
    edges = [r // 2 for r in rows]
    v_e = np.zeros(mesh.n_edges)
    v_e[mesh.interior_edges] = v
    u = np.zeros((mesh.n_triangles, 3))
    for values, coeffs in ((z_vals, z), (psi, v_e)):
        values = values.reshape(-1, 3)
        for e, r in zip(edges, rows):
            u += np.take(values, r, axis=0) * np.take(coeffs, e)[:, None]
    return u.ravel()


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


@dataclass
class BlockOperator:
    """Split-basis stiffness blocks; the structurally zero block, the
    coupling of CR trial with z test functions, is not stored."""

    A_zz: sp.csr_matrix
    A_vz: sp.csr_matrix
    A_vv: sp.csr_matrix

    def matrix(self):
        """The whole split-basis matrix [A_zz 0; A_vz A_vv] in CSR."""
        return sp.block_array([[self.A_zz, None], [self.A_vz, self.A_vv]], format="csr")


def extract_blocks(mesh, coeff, weights, params):
    """The IP0 blocks of the split-basis matrix in closed form, at any theta.

    Every split function has a zero midpoint jump on every edge but its own,
    and a CR hat on its own edge too, so of the edge terms only alpha kappa_e
    on the z diagonal and the flux terms on the edge f of a z-function are
    left: -|f| {kappa grad w}_beta . n_f with it as the test function and
    theta |f| {kappa grad v}_beta . n_f with it as the trial function.
    Integrated by parts on each triangle, the element term of the z-function
    of f against any split function u is |f| {kappa grad u}_beta . n_f, as
    beta kappa+ = gamma kappa- = kappa_e / 2, gamma = kappa+ / (kappa+ +
    kappa-).  It cancels the test term, so the CR-to-z coupling is zero and
    is not formed; against a CR test function it adds to the trial term.
    With z_e the z-function and psi_e the CR hat of edge e:
    - A_vv is the element stiffness of the CR hats of the interior edges,
      grad psi = -2 grad lambda on each side;
    - A_zz = alpha diag(kappa_e) + theta G, G[e, f] = |f| {kappa grad z_e}_beta . n_f;
    - A_vz = (1 + theta) H, H[e, f] = |f| {kappa grad psi_e}_beta . n_f,
      stored with no entries for theta = -1.
    params.variant is not read.  Each block is canonical CSR of the entries
    computed as nonzero, with no magnitude cut.
    """
    ne = mesh.n_edges
    areas = mesh.triangle_areas()
    grads = _gradients(mesh, areas)
    edges = mesh.tri_edges.T
    # flux[i, j, t]: |f| times triangle t's term of {kappa grad psi}_beta . n_f,
    # psi the CR hat of t's local edge i (-2 grad lambda_i on t) and f its
    # local edge j; it goes to row i and column j of the edges of t
    flux = flux_average(mesh, weights, grads)
    flux *= -2.0 * np.take(mesh.edge_length, edges)
    index = edges.astype(np.int32)
    rows, cols = np.broadcast_arrays(index[:, None], index[None])
    penalty = sp.diags_array(params.alpha * weights.kappa_e, format="csr")
    if params.theta == 0:
        A_zz = penalty
    else:
        # the z-function of an edge is beta times its CR hat on the plus
        # side and -gamma times it on the minus side
        side = np.where(mesh.tri_minus.T, -np.take(weights.gamma, edges),
                        np.take(weights.beta, edges))
        G = (params.theta * side)[:, None] * flux
        del side
        A_zz = _summed(G, rows, cols, (ne, ne)) + penalty
        del G
    n_v = len(mesh.interior_edges)
    vidx = np.full(ne, -1, dtype=np.int32)
    vidx[mesh.interior_edges] = np.arange(n_v, dtype=np.int32)
    v_row = np.take(vidx, rows)
    on_v = v_row >= 0
    if params.theta == -1:
        A_vz = sp.csr_matrix((n_v, ne))
    else:
        A_vz = _summed((1.0 + params.theta) * flux[on_v], v_row[on_v], cols[on_v], (n_v, ne))
    del flux
    v_col = np.take(vidx, cols)
    on_v &= v_col >= 0
    stiff = _stiffness(grads, coeff * areas)
    A_vv = _summed(4.0 * stiff[on_v], v_row[on_v], v_col[on_v], (n_v, n_v))
    return BlockOperator(A_zz=A_zz, A_vz=A_vz, A_vv=A_vv)


def _summed(terms, rows, cols, shape):
    """Canonical CSR of the terms summed at (rows, cols), without the sums
    that are exactly zero."""
    A = sp.csr_matrix((terms.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
    A.eliminate_zeros()
    return A


def split_matrix(mesh, coeff, weights, params, T):
    """The IP1 split-basis matrix in canonical CSR, with no magnitude cut:
    [A_zz 0; A_vz A_vv] of extract_blocks plus D^t diag(alpha kappa_e / 12) D,
    D = J T (edge_jumps).  In that term the coupling of z_e with its own
    psi_e is written as alpha kappa_e / 6 ((kappa_a + kappa_b) / kappa+ -
    (kappa_c + kappa_d) / kappa-), a, b the other edges of the plus and c, d
    of the minus triangle: the product leaves round-off where it is 0.
    params.variant is not read."""
    S = extract_blocks(mesh, coeff, weights, params).matrix()
    D = edge_jumps(mesh) @ T
    P = D.T.tocsr() @ (sp.diags_array(params.alpha * weights.kappa_e / 12) @ D)
    P.sort_indices()  # canonical, so that scipy adds it to S by merging sorted rows
    # (kappa_a + kappa_b) / kappa_t, a, b the other edges of t, negated on the minus side
    kappa = np.take(weights.kappa_e, mesh.tri_edges)
    ratio = (np.roll(kappa, 1, axis=1) + np.roll(kappa, -1, axis=1)) / coeff[:, None]
    ratio[mesh.tri_minus] *= -1
    interior = mesh.interior_edges
    own = np.bincount(mesh.tri_edges.ravel(), ratio.ravel())[interior] * weights.kappa_e[interior]
    rows = np.concatenate([interior, mesh.n_edges + np.arange(len(interior))])
    cols = np.roll(rows, len(interior))
    # own - p added to p gives own back, and cancels p exactly where own is 0
    fix = np.tile(params.alpha / 6 * own, 2) - np.asarray(P[rows, cols]).ravel()
    return S + _summed(fix, rows, cols, S.shape) + P


# the bound on the identity_ratios of a closed-form split-basis matrix at
# any contrast; the largest measured is 1.1 (IP1, theta = 1, level 5, eps
# 1e-5), and at most 0.87 at levels 0-3 for eps in [1e-16, 1e16]
IDENTITY_BOUND = 4.0


def identity_ratios(S, x, T, A, apply):
    """The check that S is the split-basis matrix T^t A T, entry by entry:
    |S x - T^t apply(T x)| over eps_mach (|T|^t |A| |T| |x|), apply the
    matrix-free product with A (assembly.apply_dg); 0 over 0 is 0.  The
    rounding of both sides is a small multiple of that scale, so the ratios
    stay near 1 at any contrast where S is right."""
    diff = abs(S @ x - T.T @ apply(T @ x))
    scale = np.finfo(float).eps * (abs(T).T @ (abs(A) @ (abs(T) @ abs(x))))
    return np.divide(diff, scale, out=np.where(diff > 0, np.inf, 0.0), where=scale > 0)
