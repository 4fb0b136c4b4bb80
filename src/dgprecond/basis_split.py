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
from scipy.sparse import _sparsetools

from .assembly import (_chunks, _gradients, _stiffness, _with_halo, edge_jumps,
                       flux_average)


def _side_values(mesh, weights, edges=slice(None)):
    """T's entries, edge by edge and side by side: for each edge e of the
    slice edges (all by default) and side s (0 plus, 1 minus), tri[e, s]
    the triangle and z[e, s, k], psi[e, s, k] the values of e's z-column and
    of its CR column at that triangle's local dof k.

    On each side of an edge its CR hat psi is 1 at the edge's endpoints and
    -1 at the opposite vertex.  The z-function of an edge is beta times the
    hat on the plus side and -gamma times it on the minus side, gamma =
    kappa+ / (kappa+ + kappa-).  A boundary edge's minus side repeats its
    plus triangle, with z-values gamma = 0 times the hat; it has no CR
    column.
    """
    occ = mesh.edge_occurrence[edges]
    tri = occ // 3
    # -1 at the local vertex off the edge, the side's local edge index
    psi = np.ones(6 * len(occ))
    psi[np.arange(0, len(psi), 3) + (occ % 3).ravel()] = -1.0
    psi = psi.reshape(-1, 2, 3)
    z = psi * np.column_stack([weights.beta[edges], -weights.gamma[edges]])[:, :, None]
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
    dofs = 3 * tri[:, :, None] + np.arange(3, dtype=np.int32)
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
    sum started at +0, which leaves it as it is.  _CHUNK edges at a time."""
    ne = mesh.n_edges
    inner = ~mesh.boundary_edge_mask
    f = np.empty(ne + np.count_nonzero(inner))
    f_v = f[ne:]
    n_v = 0
    for e in _chunks(ne):
        tri, z, psi = _side_values(mesh, weights, e)
        # the chunk's z-entries, summed in place, and the CR sums of its
        # edges; those of the interior edges are T^t b's
        f_z = f[e]
        f_z[:] = 0.0
        f_psi = np.zeros(len(tri))
        dof0 = 3 * tri
        for s in (0, 1):
            for k in range(3):
                b_k = np.take(b, dof0[:, s] + k)
                f_z += z[:, s, k] * b_k
                f_psi += psi[:, s, k] * b_k
        f_psi = f_psi[inner[e]]
        f_v[n_v:n_v + len(f_psi)] = f_psi
        n_v += len(f_psi)
    return f


def from_split(z, v, mesh, weights):
    """T [z; v] (build_transform) without T, equal to scipy's product entry
    for entry: each nodal dof sums from 0 the z-terms of its triangle's
    edges in ascending edge order, then their CR terms.  A boundary edge
    has no CR column; its term here is +-0 and leaves the sum as it is.
    _CHUNK triangles at a time, with the values of _side_values: on its
    triangle the CR hat of local edge i is -1 at local dof i and 1 at the
    others, and the z-function is beta times it on the plus side and
    -gamma times it on the minus one."""
    v_e = np.zeros(mesh.n_edges)
    v_e[mesh.interior_edges] = v
    u = np.empty((mesh.n_triangles, 3))
    for t in _chunks(mesh.n_triangles):
        # (position, triangle): each triangle's edges in ascending order,
        # their local index i and their side
        a, b, c = mesh.tri_edges[t].T
        lo, hi = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
        edges = np.stack([lo, a + b + c - lo - hi, hi])
        i = np.where(edges == a, 0, np.where(edges == b, 1, 2))
        minus = np.take_along_axis(mesh.tri_minus[t], i.T, axis=1).T
        # (position, local dof, triangle)
        psi = np.where(i[:, None] == np.arange(3)[:, None], -1.0, 1.0)
        weight = np.where(minus, -np.take(weights.gamma, edges), np.take(weights.beta, edges))
        ut = np.zeros((3, t.stop - t.start))
        for values, coeffs in ((psi * weight[:, None], z), (psi, v_e)):
            coeffs = np.take(coeffs, edges)
            for k in range(3):
                ut += values[k] * coeffs[k]
        u[t] = ut.T
    return u.ravel()


@dataclass
class BlockOperator:
    """Split-basis stiffness blocks; the structurally zero block, the
    coupling of CR trial with z test functions, is not stored.  Whoever
    holds the operator owns the blocks; forward_substitution_solve sets
    A_zz and A_vz to None, leaving A_vv alone."""

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
    computed as nonzero, with no magnitude cut, filled _CHUNK triangles at
    a time (_RowFill): the rows of the edges whose plus side lies in the
    chunk, from the terms of the chunk's triangles and of the minus sides
    outside it.
    """
    ne = mesh.n_edges
    theta = params.theta
    occ = mesh.edge_occurrence
    inner = ~mesh.boundary_edge_mask
    n_v = np.count_nonzero(inner)
    vidx = np.full(ne, -1, dtype=np.int32)
    vidx[inner] = np.arange(n_v, dtype=np.int32)
    penalty = params.alpha * weights.kappa_e
    A_zz = None if theta == 0 else _RowFill((ne, ne))
    A_vz = None if theta == -1 else _RowFill((n_v, ne))
    A_vv = _RowFill((n_v, n_v))
    rows = slice(0, 0)
    for t in _chunks(mesh.n_triangles):
        # the rows of the edges whose plus side lies in t, numbered by first
        # appearance, and the triangles of both their sides; a boundary
        # edge's minus side repeats its plus one
        rows = slice(rows.stop, rows.stop + np.count_nonzero(~mesh.tri_minus[t]))
        tri, loc = np.divmod(occ[rows], 3)
        tris, pos = _with_halo(t, tri)
        areas = mesh.triangle_areas(tris)
        grads = _gradients(mesh, areas, tris)
        # flux[i, j, t]: |f| times triangle t's term of {kappa grad
        # psi}_beta . n_f, psi the CR hat of t's local edge i (-2 grad
        # lambda_i on t) and f its local edge j; it goes to row i and column
        # j of the edges of t
        flux = flux_average(mesh, weights, grads, tris)
        flux *= -2.0 * np.take(mesh.edge_length, mesh.tri_edges[tris].T)
        # a row's entries: on each side (row, side, j) the term of the row's
        # edge, local edge loc there, with the side's local edge j, at that
        # edge's column (flat indices into the (3, 3, triangles) terms)
        at = (3 * len(tris) * loc + pos)[:, :, None] + len(tris) * np.arange(3)
        cols = np.take(mesh.tri_edges, tri, axis=0)
        if A_zz is not None:
            # the z-function of an edge is beta times its CR hat on the plus
            # side and -gamma times it on the minus side
            side = np.column_stack([weights.beta[rows], -weights.gamma[rows]])
            G = np.take(flux, at)
            G[~inner[rows], 1] = 0.0
            G *= np.repeat(theta * side, 3, axis=1).reshape(G.shape)
            A_zz.add(G, cols, loc, penalty[rows])
        # the CR rows: the interior edges
        on_v = np.flatnonzero(inner[rows])
        at, cols, loc = (np.take(a, on_v, axis=0) for a in (at, cols, loc))
        if A_vz is not None:
            A_vz.add((1.0 + theta) * np.take(flux, at), cols, loc)
        stiff = _stiffness(grads, coeff[tris] * areas)
        A_vv.add(4.0 * np.take(stiff, at), np.take(vidx, cols), loc)
    A_zz = sp.diags_array(penalty, format="csr") if A_zz is None else A_zz.matrix()
    A_vz = sp.csr_matrix((n_v, ne)) if A_vz is None else A_vz.matrix()
    return BlockOperator(A_zz=A_zz, A_vz=A_vz, A_vv=A_vv.matrix())


class _RowFill:
    """A CSR matrix filled a chunk of consecutive rows at a time: each
    chunk's entries are kept, and joined into the matrix's arrays at the
    end.

    Row r takes the (m, 2, 3) entries [r] of add: on its plus side (0) and
    its minus side (1) the term with each of the side's local edges, at the
    columns cols (-1: none); loc (m, 2) is the row's own local edge.  The
    diagonal is the sum of both sides' own terms; any other entry comes from
    one side, with no summation.  scipy's sparsetools sort each row's
    columns and drop the entries that are 0, with no magnitude cut, so the
    matrix is the canonical CSR of the summed terms."""

    def __init__(self, shape):
        self.shape = shape
        self.indptr = np.zeros(shape[0] + 1, dtype=np.int32)
        self.indices, self.data = [], []
        self.rows = 0

    def add(self, vals, cols, loc, diagonal=0.0):
        """Append the rows of vals and cols, with diagonal added to the
        diagonal entries after the sum of the sides."""
        m = len(vals)
        x, j = vals.reshape(-1), cols.astype(np.int32).reshape(-1)
        # the flat places of the two sides' own terms
        ptr = np.arange(0, 6 * m + 1, 6, dtype=np.int32)
        own = ptr[:-1] + loc[:, 0], ptr[:-1] + 3 + loc[:, 1]
        diag = np.take(x, own[0])
        diag += np.take(x, own[1])
        diag += diagonal
        x[own[0]], x[own[1]] = diag, 0.0
        missing = j < 0
        x[missing], j[missing] = 0.0, 0
        _sparsetools.csr_sort_indices(m, ptr, j, x)
        _sparsetools.csr_eliminate_zeros(m, self.shape[1], ptr, j, x)
        lo, nnz = self.indptr[self.rows], ptr[-1]
        self.indices.append(j[:nnz].copy())
        self.data.append(x[:nnz].copy())
        self.indptr[self.rows + 1:self.rows + m + 1] = lo + ptr[1:]
        self.rows += m

    def matrix(self):
        return sp.csr_matrix((np.concatenate(self.data), np.concatenate(self.indices),
                              self.indptr), shape=self.shape)


def _summed(terms, rows, cols, shape):
    """Canonical CSR of the terms summed at (rows, cols), without the sums
    that are exactly zero."""
    A = sp.csr_matrix((terms.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
    A.eliminate_zeros()
    return A


def _add_into(P, B):
    """B + P in canonical CSR, P and B canonical, with the bytes of scipy's
    B + P: B's entries are added into P's own data where P stores their
    position (p + b is b + p), the sums that are exactly 0 are dropped as
    scipy's sum drops them, and any entry of B outside P's stored pattern is
    merged by a sparse sum.  P's arrays are reused: P is consumed."""
    idx = P.indices.dtype
    rows = np.repeat(np.arange(B.shape[0], dtype=idx), np.diff(B.indptr))
    at = np.empty(B.nnz, dtype=idx)
    _sparsetools.csr_sample_offsets(P.shape[0], P.shape[1], P.indptr, P.indices, B.nnz,
                                    rows, B.indices, at)
    del rows
    inside = at >= 0
    P.data[at[inside]] += B.data[inside]
    P.eliminate_zeros()
    if inside.all():
        return P
    B = B.copy()
    B.data[inside] = 0.0
    B.eliminate_zeros()
    return P + B


def split_matrix(mesh, coeff, weights, params, T):
    """The IP1 split-basis matrix in canonical CSR, with no magnitude cut:
    [A_zz 0; A_vz A_vv] of extract_blocks plus D^t diag(alpha kappa_e / 12) D,
    D = J T (edge_jumps).  In that term the coupling of z_e with its own
    psi_e is written as alpha kappa_e / 6 ((kappa_a + kappa_b) / kappa+ -
    (kappa_c + kappa_d) / kappa-), a, b the other edges of the plus and c, d
    of the minus triangle: the product leaves round-off where it is 0.
    The product P = D^t (W D) is formed first and D freed; the blocks plus
    that correction are then summed into P's own arrays (_add_into), with
    the bytes of their scipy sum with P.  params.variant is not read."""
    D = edge_jumps(mesh) @ T
    P = D.T.tocsr() @ (sp.diags_array(params.alpha * weights.kappa_e / 12) @ D)
    del D
    P.sort_indices()  # canonical, as _add_into needs
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
    del kappa, ratio, own
    S = extract_blocks(mesh, coeff, weights, params).matrix()
    S = S + _summed(fix, rows, cols, S.shape)
    return _add_into(P, S)


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
