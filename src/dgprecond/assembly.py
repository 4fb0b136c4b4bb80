"""Assembly of the weighted interior penalty bilinear forms.

Degrees of freedom of the discontinuous space are element-local P1 vertex
values: global dof = 3 * triangle + local vertex.  All integrands are
polynomials of degree <= 2 with piecewise-constant coefficient, so every
integral is computed exactly (constant-gradient element formula, midpoint rule
for projected jumps, 2-point Gauss for products of traces).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

IP0 = "IP0"
IP1 = "IP1"

# 2-point Gauss on [0,1]
_GAUSS_S = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


@dataclass
class MethodParams:
    """theta in {-1, 0, 1} (SIPG / IIPG / NIPG), penalty alpha > 0."""

    theta: int
    alpha: float
    variant: str = IP0

    def __post_init__(self):
        if self.theta not in (-1, 0, 1):
            raise ValueError(f"theta must be -1, 0 or 1, got {self.theta}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.variant not in (IP0, IP1):
            raise ValueError(f"variant must be IP0 or IP1, got {self.variant!r}")


def p1_gradients(mesh):
    """Per-triangle gradients of the three nodal P1 basis functions.

    Returns (nt, 3, 2) array; row i is grad of the basis that is 1 at local
    vertex i.  The triangles are counterclockwise, so the edge from vertex
    i+1 to vertex i+2, turned by +90 degrees, points toward vertex i.
    """
    return _gradients(mesh, mesh.triangle_areas())


def _gradients(mesh, areas):
    """p1_gradients with the triangle areas given."""
    p = mesh.vertices[mesh.triangles]
    grads = np.empty((mesh.n_triangles, 3, 2))
    for i in range(3):
        t = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        n = np.column_stack([-t[:, 1], t[:, 0]])
        grads[:, i, :] = n / (2.0 * areas)[:, None]
    return grads


def element_stiffness(mesh, coeff):
    """(nt, 3, 3) element blocks kappa_T |T| grad phi_i . grad phi_j."""
    areas = mesh.triangle_areas()
    return _stiffness(_gradients(mesh, areas), coeff.kappa * areas)


def _stiffness(grads, kappa_area):
    """element_stiffness from the gradients and kappa_T |T|."""
    scaled = kappa_area[:, None, None] * grads
    return scaled @ grads.transpose(0, 2, 1)


def edge_traces(mesh):
    """Local dofs of both sides of every edge and the jump of their traces.

    Returns ``dofs`` (ne, 6), the nodal dofs of the plus then the minus
    triangle, and ``traces`` (ne, 2, 6), where ``traces[e, k]`` maps the six
    local dof values to the jump plus - minus at endpoint
    ``edge_vertices[e, k]``.  On a boundary edge the minus half of
    ``traces`` is zero (its dofs repeat the plus ones), so the jump is the
    plus trace itself.
    """
    bnd = mesh.boundary_edge_mask
    sides = np.column_stack([mesh.edge_plus, np.where(bnd, mesh.edge_plus, mesh.edge_minus)])
    dofs = (3 * sides[:, :, None] + np.arange(3)).reshape(-1, 6)
    sign = np.column_stack([np.ones(len(bnd)), np.where(bnd, 0.0, -1.0)])
    traces = np.zeros((mesh.n_edges, 2, 2, 3))
    e, s, k = np.indices(mesh.edge_local.shape)
    traces[e, k, s, mesh.edge_local] = sign[:, :, None]
    return dofs, traces.reshape(-1, 2, 6)


# quadrature of the penalty on an edge: the projected jump (IP0) is the jump
# at the midpoint, the full jump (IP1) is integrated by 2-point Gauss
_PENALTY_RULE = {IP0: ((0.5,), (1.0,)), IP1: (_GAUSS_S, (0.5, 0.5))}


def _jump_at(traces, points):
    """(ne, q, ...) jump at the parameters s of points along each edge."""
    s = np.asarray(points)[:, None]
    return (1 - s) * traces[:, None, 0] + s * traces[:, None, 1]


def assemble_dg(mesh, coeff, weights, params):
    """Stiffness matrix of the IP(beta) form in the nodal DG basis.

    Every dof belongs to one triangle, so the matrix is made of 3 x 3 blocks:
    one diagonal block per triangle, its element stiffness plus the self
    blocks of its edges added in local edge order 0, 1, 2, and the two
    off-diagonal blocks of each interior edge.  Each edge block is computed
    once, for the one slot it fills.  The CSR arrays hold the entries of
    this pattern computed as nonzero, with no magnitude cut, block columns
    ascending in each block row, with int32 indices.
    """
    nt = mesh.n_triangles
    areas = mesh.triangle_areas()
    grads = _gradients(mesh, areas)
    edge_block = _edge_blocks(mesh, weights, params, grads)
    diag = _stiffness(grads, coeff.kappa * areas)
    del grads, areas
    tri = np.arange(nt)
    edges = mesh.tri_edges
    plus, minus = mesh.edge_plus[edges], mesh.edge_minus[edges]
    side = (plus != tri[:, None]).astype(np.int32)  # 0 where the triangle is plus
    # block columns: the triangle, then its neighbour across each local edge
    # (nt, which sorts last, across a boundary edge)
    cols = np.column_stack([tri, np.where(mesh.boundary_edge_mask[edges], nt,
                                          plus + minus - tri[:, None])])
    del plus, minus
    order = np.argsort(cols, axis=1, kind="stable")
    rank = np.argsort(order, axis=1).astype(np.int32)
    first_col = 3 * np.take_along_axis(cols, order, axis=1).astype(np.int32)
    del cols, order

    for i in range(3):
        diag += edge_block(edges[:, i], side[:, i], side[:, i])
    # (triangle, row, block in ascending column order, column)
    vals = np.zeros((nt, 3, 4, 3))
    vals[tri, :, rank[:, 0], :] = diag
    del diag
    for i in range(3):
        vals[tri, :, rank[:, i + 1], :] = edge_block(edges[:, i], side[:, i], 1 - side[:, i])
    # free the per-edge arrays before the compress step, to bound the peak
    # memory
    del edge_block, side, rank
    kept = vals != 0
    data = vals[kept]
    del vals
    indices = np.broadcast_to(first_col[:, None, :, None] + np.arange(3, dtype=np.int32),
                              kept.shape)[kept]
    indptr = np.zeros(3 * nt + 1, dtype=np.int32)
    np.cumsum(kept.sum(axis=(2, 3)).ravel(), out=indptr[1:])
    return sp.csr_matrix((data, indices, indptr), shape=(3 * nt, 3 * nt))


def _edge_blocks(mesh, weights, params, grads):
    """The edge terms of the form, as a function edge_block(e, rows, cols)
    of edges e and, for each, the side whose dofs are the rows (test
    functions) and the side whose dofs are the columns (trial functions),
    0 for plus and 1 for minus (see edge_traces); it returns the
    (len(e), 3, 3) blocks -<{kappa grad v}, [w]> + theta <[v], {kappa grad w}>
    plus the penalty.  The minus side of a boundary edge gives zeros."""
    dofs, traces = edge_traces(mesh)
    ne = mesh.n_edges
    length = mesh.edge_length
    ke = weights.kappa_e
    # weighted flux average {kappa grad v}_beta . n+ = kappa_e {grad v} . n+;
    # on a boundary edge the plus side's kappa grad v . n (kappa_e = kappa+)
    side = np.where(mesh.boundary_edge_mask[:, None], (1.0, 0.0), (0.5, 0.5))
    normal_grad = np.einsum("edk,ek->ed", grads.reshape(-1, 2)[dofs], mesh.edge_normal)
    del dofs
    # column 2 e + s of each array below holds side s of edge e, so that the
    # products run along the edges
    flux = (np.repeat(ke[:, None] * side, 3, axis=1) * normal_grad).reshape(2 * ne, 3).T.copy()
    del normal_grad
    jump_mid = (0.5 * (traces[:, 0] + traces[:, 1])).reshape(2 * ne, 3).T.copy()
    points, wts = _PENALTY_RULE[params.variant]
    q = len(points)
    jumps = _jump_at(traces, points).reshape(ne, q, 2, 3).transpose(1, 3, 0, 2)
    jumps = jumps.reshape(q, 3, 2 * ne)
    del traces
    # h_e = |e| in the penalty alpha / h_e kappa_e |e|
    pen = params.alpha / length * ke * length
    theta = params.theta

    def edge_block(e, rows, cols):
        r, c = 2 * e + rows, 2 * e + cols
        blk = -jump_mid.take(r, axis=1)[:, None] * flux.take(c, axis=1)
        blk += theta * flux.take(r, axis=1)[:, None] * jump_mid.take(c, axis=1)
        blk *= length[e]
        # the penalty: its terms at the quadrature points, summed from 0 in
        # order, added as one
        blk += sum(((w * pen[e]) * j_r)[:, None] * j_c
                   for w, j_r, j_c in zip(wts, jumps.take(r, axis=2), jumps.take(c, axis=2)))
        return blk.transpose(2, 0, 1)

    return edge_block


def assemble_conforming(mesh, coeff):
    """P1 conforming stiffness matrix on interior vertices (Dirichlet)."""
    gi = mesh.interior_vertex_index()[mesh.triangles]
    rows = np.repeat(gi[:, :, None], 3, axis=2)
    cols = np.repeat(gi[:, None, :], 3, axis=1)
    keep = (rows >= 0) & (cols >= 0)
    n = len(mesh.interior_vertices)
    A = sp.csr_matrix((element_stiffness(mesh, coeff)[keep], (rows[keep], cols[keep])),
                      shape=(n, n))
    A.eliminate_zeros()
    return A


def assemble_rhs(mesh, f):
    """DG load vector via the 3-point edge-midpoint rule (order-2 exact).

    ``f(x, y)`` is called once, on the arrays of all quadrature-point
    coordinates, so it must work elementwise on arrays; a constant result
    broadcasts.
    """
    p = mesh.vertices[mesh.triangles]
    # midpoint opposite local vertex i
    mids = 0.5 * (p[:, [1, 2, 0]] + p[:, [2, 0, 1]])
    fv = np.broadcast_to(f(mids[..., 0], mids[..., 1]), mids.shape[:2])
    contrib = (mesh.triangle_areas() / 3.0)[:, None] * fv * 0.5
    # P1 basis values at edge midpoints: 0 at the opposite one, 1/2 else
    return (contrib[:, [1, 0, 0]] + contrib[:, [2, 2, 1]]).ravel()


def symmetric_part(A):
    """(A + A^T) / 2."""
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    return ((A + A.T) * 0.5).tocsr()


def export_coordinate(A, path):
    """Write 'row col value' lines, 0-based, 17 significant digits."""
    A = A.tocoo()
    with open(path, "w") as fh:
        for r, c, v in zip(A.row, A.col, A.data):
            fh.write(f"{r} {c} {v:.17g}\n")
