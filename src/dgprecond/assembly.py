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

from .mesh import triangle_area

IP0 = "IP0"
IP1 = "IP1"

# 2-point Gauss on [0,1]
_GAUSS_S = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


@dataclass
class MethodParams:
    """theta in {-1, 0, 1} (SIPG / IIPG / NIPG), finite penalty alpha > 0."""

    theta: int
    alpha: float
    variant: str = IP0

    def __post_init__(self):
        if self.theta not in (-1, 0, 1):
            raise ValueError(f"theta must be -1, 0 or 1, got {self.theta}")
        if not 0.0 < self.alpha < np.inf:  # also false for NaN
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if self.variant not in (IP0, IP1):
            raise ValueError(f"variant must be IP0 or IP1, got {self.variant!r}")


def _gradients(mesh, areas, tris=slice(None)):
    """(3, 2, ...) gradients of the P1 basis functions of the three local
    vertices of the triangles tris (all by default), from their areas.  The
    triangles are counterclockwise, so the edge from vertex i+1 to vertex
    i+2, turned by +90 degrees, points toward vertex i."""
    p = mesh.corners(tris)
    grads = np.empty((3, 2, *areas.shape))
    for i in range(3):
        t = p[(i + 2) % 3] - p[(i + 1) % 3]
        grads[i] = np.array([-t[:, 1], t[:, 0]]) / (2.0 * areas)
    return grads


def element_stiffness(mesh, coeff):
    """(nt, 3, 3) element blocks kappa_T |T| grad phi_i . grad phi_j."""
    areas = mesh.triangle_areas()
    return _stiffness(_gradients(mesh, areas), coeff * areas).transpose(2, 0, 1)


def _stiffness(grads, kappa_area):
    """element_stiffness from _gradients and kappa_T |T|, as (3, 3, nt)."""
    scaled = kappa_area * grads
    return scaled[:, None, 0] * grads[None, :, 0] + scaled[:, None, 1] * grads[None, :, 1]


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
    tri = mesh.edge_occurrence // 3
    dofs = (3 * tri[:, :, None] + np.arange(3)).reshape(-1, 6)
    sign = np.column_stack([np.ones(len(bnd)), np.where(bnd, 0.0, -1.0)])
    # (edge, endpoint k, side, local dof): the side's sign at the local
    # vertex of endpoint k
    at_end = mesh.triangles[tri][:, None] == mesh.edge_vertices[:, :, None, None]
    traces = np.where(at_end, sign[:, None, :, None], 0.0)
    return dofs, traces.reshape(-1, 2, 6)


def edge_jumps(mesh):
    """(ne, n_dofs) CSR J: (J u)_e is u's jump at edge_vertices[e, 1] minus
    that at edge_vertices[e, 0], and A_IP1 - A_IP0 = J^t diag(alpha kappa_e / 12) J."""
    dofs, traces = edge_traces(mesh)
    return sp.csr_matrix(((traces[:, 1] - traces[:, 0]).ravel(), dofs.ravel(),
                          np.arange(0, dofs.size + 1, 6)), shape=(mesh.n_edges, mesh.n_dofs))


# quadrature of the penalty on an edge: the projected jump (IP0) is the jump
# at the midpoint, the full jump (IP1) is integrated by 2-point Gauss
_PENALTY_RULE = {IP0: ((0.5,), (1.0,)), IP1: (_GAUSS_S, (0.5, 0.5))}
# triangles or edges per chunk of the whole-mesh kernels: their
# temporaries stay small next to their results, and their numpy calls few
# next to the work of each (at 1024, extract_blocks took 17-40% longer
# than one whole-mesh pass at level 4)
_CHUNK = 2048


def _chunks(n):
    """Slices of _CHUNK consecutive indices that cover range(n)."""
    return [slice(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]


def _with_halo(t, tris):
    """The triangles of slice t followed by the entries of the index array
    tris outside t, and the position of every entry of tris in that list.
    A chunk of red-refined triangles is mostly the children of a few coarse
    ones, so few of its neighbours lie outside it."""
    outside = (tris < t.start) | (tris >= t.stop)
    halo = tris[outside]
    pos = tris - t.start
    pos[outside] = np.arange(t.stop - t.start, t.stop - t.start + len(halo))
    return np.concatenate([np.arange(t.start, t.stop), halo]), pos


def assemble_dg(mesh, coeff, weights, params):
    """Stiffness matrix of the IP(beta) form in the nodal DG basis.

    Every dof belongs to one triangle, so the matrix is made of 3 x 3 blocks:
    one diagonal block per triangle, its element stiffness plus the self
    blocks of its edges added in local edge order 0, 1, 2, and the two
    off-diagonal blocks of each interior edge.  Each edge block is computed
    once, for the one place it fills.  _CHUNK triangles at a time, the blocks
    of each block row are written to one array, which scipy lays out in BSR
    and expands row by row into CSR.  The CSR arrays hold the entries of
    this pattern computed as nonzero, with no magnitude cut, block columns
    ascending in each block row, with int32 indices.
    """
    nt = mesh.n_triangles
    # (triangle, block, row, column): the triangle's own block, then its
    # neighbour's across local edge 0, 1 and 2; the block of a boundary
    # edge's missing side is zero, in the triangle's own column
    blocks = np.empty((nt, 4, 3, 3))
    cols = np.empty((nt, 4), dtype=np.int64)
    for t in _chunks(nt):
        stiff, sides, tris, across, bnd, block = _terms(mesh, coeff, weights, params, t)
        own = sides[..., :t.stop - t.start]
        # the triangle of each side across
        nbr = np.take(tris, across % len(tris))
        across = np.take(sides.reshape(*sides.shape[:2], -1), across, axis=2)
        across[:, :, bnd] = 0.0
        vals = blocks[t].transpose(1, 2, 3, 0)
        _diagonal_block(stiff, own, block, vals[0])
        block(across, vals[1:].transpose(1, 2, 0, 3))
        cols[t, 0] = np.arange(t.start, t.stop)
        cols[t, 1:] = nbr.T
    del stiff, sides, tris, across, bnd, block, own, nbr, vals
    A = sp.bsr_matrix((blocks.reshape(-1, 3, 3), cols.ravel(),
                       np.arange(0, 4 * nt + 1, 4, dtype=np.int32)), shape=(3 * nt, 3 * nt))
    del blocks, cols
    A.sort_indices()
    A = A.tocsr()
    A.eliminate_zeros()
    # eliminate_zeros leaves views of the full-size arrays
    return A.copy()


def apply_dg(mesh, coeff, weights, params, u):
    """A u for the assemble_dg matrix A, without assembling it.

    Each triangle's diagonal block is formed as assemble_dg forms it, since
    its element and edge terms cancel to far below their size where the
    coefficient is large.  The blocks of its neighbours are not formed: each
    edge gives the _edge_block with the triangle's own side as rows and, as
    columns, the trace functionals of _edge_sides of the other side applied
    to u.  No reduction goes through BLAS, so the result has the same bytes
    at any thread count.
    """
    nt = mesh.n_triangles
    u = u.reshape(nt, 3)
    ut = u.T
    Au = np.empty((3, nt))
    for t in _chunks(nt):
        stiff, sides, tris, across, bnd, block = _terms(mesh, coeff, weights, params, t)
        m = t.stop - t.start
        diag = _diagonal_block(stiff, sides[..., :m], block, np.empty((3, 3, m)))
        np.add.reduce(diag * ut[None, :, t], axis=1, out=Au[:, t])
        # (row of sides, local edge, triangle): each side's functionals
        # applied to its triangle's dofs, then those of the side across, 0
        # for a boundary edge
        traces = np.add.reduce(sides * np.take(u, tris, axis=0).T[None, :, None], axis=1)
        traces = np.take(traces.reshape(len(traces), -1), across, axis=1)
        traces[:, bnd] = 0.0
        across_terms = block(traces[:, None], np.empty((3, 1, 3, m)))
        for i in range(3):
            Au[:, t] += across_terms[:, 0, i]
    return Au.T.ravel()


def _terms(mesh, coeff, weights, params, t):
    """What assemble_dg and apply_dg build the block rows of the m triangles
    of slice t from: stiff, their (3, 3, m) element stiffness; sides, the
    _edge_sides of tris, the triangles of t followed by their neighbours
    outside t; tris; across (3, m), the column of the other side of each
    of their local edges in sides flattened over local edge and triangle,
    the own one for a boundary edge; bnd (3, m), whether the edge is on the
    boundary; and block(cols, out), the _edge_block with the sides of t as
    rows."""
    m = t.stop - t.start
    edges, minus = mesh.tri_edges[t].T, mesh.tri_minus[t].T
    # the occurrence 3 t' + i' of the other side of every local edge; a
    # boundary edge's minus side repeats its plus one
    occ = np.take(mesh.edge_occurrence, edges, axis=0)
    other = np.where(minus, occ[..., 0], occ[..., 1])
    nbr, loc = np.divmod(other, 3)
    bnd = other == 3 * np.arange(t.start, t.stop) + np.arange(3)[:, None]
    tris, pos = _with_halo(t, nbr)
    areas = mesh.triangle_areas(tris)
    grads = _gradients(mesh, areas, tris)
    stiff = _stiffness(grads[..., :m], coeff[t] * areas[:m])
    sides, penalty = _edge_sides(mesh, weights, params.variant, grads, tris)
    own = sides[..., :m]
    # h_e = |e| in the penalty alpha / h_e kappa_e |e|
    length = np.take(mesh.edge_length, edges)
    pen = params.alpha / length * np.take(weights.kappa_e, edges) * length

    def block(cols, out):
        return _edge_block(own, cols, out, theta=params.theta, penalty=penalty,
                           length=length, pen=pen)

    return stiff, sides, tris, loc * len(tris) + pos, bnd, block


def _diagonal_block(stiff, own, block, out):
    """The diagonal blocks of a chunk of triangles, from the _terms stiff,
    own and block, written to out (3, 3, triangles): the element stiffness
    plus the block of each edge with itself, added in local edge order 0,
    1, 2."""
    self_blocks = block(own, np.empty((3, *out.shape)))
    np.add(stiff, self_blocks[:, :, 0], out=out)
    out += self_blocks[:, :, 1]
    out += self_blocks[:, :, 2]
    return out


def _edge_sides(mesh, weights, variant, grads, tris):
    """Each triangle of the index array tris's side of its local edges.

    Returns ``sides`` (1 + p, 3, 3, len(tris)), whose entry (0, k, i, t)
    is, over dof k of triangle tris[t], the weighted flux average {kappa
    grad phi}_beta . n+ on its local edge i, and (1 + j, k, i, t) the jump
    [phi] along n+ at the midpoint (j = 0) and at the other points of the
    variant's penalty rule, from the _gradients grads of tris; and
    ``penalty``, the (row of sides, weight) of each point of the rule.
    """
    rule_points, rule_weights = _PENALTY_RULE[variant]
    points = list(dict.fromkeys((0.5, *rule_points)))
    penalty = tuple((1 + points.index(s), w) for s, w in zip(rule_points, rule_weights))
    sides = np.zeros((1 + len(points), 3, 3, len(tris)))
    flux_average(mesh, weights, grads, tris, out=sides[0])
    # the jump at parameter s along the edge, from edge_vertices[e, 0] where
    # it is 1 - s, times -1 on the minus side; local edge i runs from local
    # vertex i + 1 to i + 2, and the jump is 0 at vertex i
    sign = np.where(mesh.tri_minus[tris].T, -1.0, 1.0)
    vertices = mesh.triangles[tris]
    first = (vertices[:, [1, 2, 0]] < vertices[:, [2, 0, 1]]).T
    i = np.arange(3)
    for j, s in enumerate(points):
        sides[1 + j, (i + 1) % 3, i] = sign * np.where(first, 1 - s, s)
        sides[1 + j, (i + 2) % 3, i] = sign * np.where(first, s, 1 - s)
    return sides, penalty


def flux_average(mesh, weights, grads, tris=slice(None), out=None):
    """(3, 3, ...): entry (i, j, t) is triangle tris[t]'s term of the
    weighted flux average {kappa grad phi}_beta . n+ on its local edge j,
    phi the P1 basis function of its local vertex i, from the _gradients
    grads of the triangles tris (all by default).

    beta kappa+ = gamma kappa- = kappa_e / 2, with gamma = kappa+ / (kappa+
    + kappa-), so a side's term is kappa_e / 2 grad phi . n+; on a boundary
    edge it is the plus side's kappa grad phi . n (kappa_e = kappa+)."""
    edges = mesh.tri_edges[tris].T
    occ = np.take(mesh.edge_occurrence, edges, axis=0)
    kw = np.take(weights.kappa_e, edges) * np.where(occ[..., 0] == occ[..., 1], 1.0, 0.5)
    n = np.take(mesh.edge_normal, edges, axis=0)
    return np.multiply(kw, grads[:, None, 0] * n[..., 0] + grads[:, None, 1] * n[..., 1],
                       out=out)


def _edge_block(rows, cols, out, *, theta, penalty, length, pen):
    """The edge terms -<{kappa grad v}, [w]> + theta <[v], {kappa grad w}>
    plus the penalty, v the dofs of side data rows and w those of cols (as
    in the sides of _edge_sides), written to out (3, 3, ...)."""
    np.multiply(-rows[1][:, None], cols[0][None], out=out)
    term = np.multiply(theta * rows[0][:, None], cols[1][None])
    out += term
    out *= length
    # the penalty: its terms at the quadrature points, summed in order, added
    # as one
    (r, w), *rest = penalty
    np.multiply(((w * pen) * rows[r])[:, None], cols[r][None], out=term)
    for r, w in rest:
        term += ((w * pen) * rows[r])[:, None] * cols[r][None]
    out += term
    return out


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

    ``f(x, y)`` is called on the arrays of the quadrature-point coordinates
    of _CHUNK triangles at a time, so it must work elementwise on arrays; a
    constant result broadcasts.
    """
    b = np.empty((mesh.n_triangles, 3))
    for t in _chunks(mesh.n_triangles):
        p = mesh.corners(t)
        # midpoint opposite local vertex i
        mids = np.stack([0.5 * (p[(i + 1) % 3] + p[(i + 2) % 3]) for i in range(3)], axis=1)
        fv = np.broadcast_to(f(mids[..., 0], mids[..., 1]), mids.shape[:2])
        contrib = (triangle_area(*p) / 3.0)[:, None] * fv * 0.5
        # P1 basis values at edge midpoints: 0 at the opposite one, 1/2 else
        for i, (j, k) in enumerate(((1, 2), (0, 2), (0, 1))):
            np.add(contrib[:, j], contrib[:, k], out=b[t, i])
    return b.ravel()


def symmetric_part(A):
    """(A + A^T) / 2 in CSR, scaled in place.  Its entries are exactly
    symmetric, a + b = b + a, so the CSC view of its transpose holds it."""
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    S = (A + A.T).tocsr()
    S.data *= 0.5
    return S


def export_coordinate(A, path):
    """Write 'row col value' lines, 0-based, 17 significant digits."""
    A = A.tocoo()
    with open(path, "w") as fh:
        for r, c, v in zip(A.row, A.col, A.data):
            fh.write(f"{r} {c} {v:.17g}\n")
