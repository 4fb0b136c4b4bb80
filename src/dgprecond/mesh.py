"""Structured triangulations of [-1,1]^2 with edge adjacency and jump coefficients.

The level-0 mesh is a 4x4 grid of squares, each cut by the lower-left to
upper-right diagonal (32 triangles, mesh size h = 1/2).  Refinement is uniform
red refinement: every triangle is split into four congruent children via its
edge midpoints, so level ``l`` has ``32 * 4**l`` triangles.
"""

from dataclasses import dataclass, field

import numpy as np

# Inclusion squares carrying coefficient 1; everything else gets the
# background value eps.
_INCLUSIONS = ((-0.5, 0.0, -0.5, 0.0), (0.0, 0.5, 0.0, 0.5))


class UnresolvedCoefficientError(ValueError):
    """A triangle straddles the subdomain interface."""


def _cross2(a, b):
    """z-component of the cross product of 2D vectors (vectorized)."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def triangle_area(p0, p1, p2):
    """Area of the triangles with corners p0, p1, p2 (..., 2)."""
    return 0.5 * np.abs(_cross2(p1 - p0, p2 - p0))


@dataclass
class Mesh:
    """Conforming triangulation with full edge/element adjacency.

    Attributes
    ----------
    level : refinement level (0 = coarsest).
    vertices : (nv, 2) float array.
    triangles : (nt, 3) int32 array, counterclockwise vertex indices
        (refine keeps the orientation of the level-0 triangles).
    edge_vertices : (ne, 2) int32 array, endpoint indices with v0 < v1.
    edge_length : (ne,) float array.
    edge_occurrence : (ne, 2) int32 array; entry (e, s) is the flat index
        3 t + i into ``tri_edges`` of edge e on its plus (s = 0) or minus
        (s = 1) side: t is that side's triangle, and i its local edge and
        the local vertex off the edge.  The plus triangle has the smaller
        index.  On a boundary edge the minus column repeats the plus one.
    edge_normal : (ne, 2) unit normal pointing from plus to minus side
        (outward on the boundary).
    tri_edges : (nt, 3) int32 array; entry (t, i) is the edge opposite local
        vertex i of triangle t.  Edges are numbered in order of first
        appearance in ``tri_edges.ravel()``; this is the dof order of both
        split-basis blocks and so the Gauss-Seidel sweep order.
    tri_minus : (nt, 3) bool array; whether t is the minus triangle of
        ``tri_edges[t, i]``.

    Every index is below 2**31 up to level 7 (1,572,864 dofs), so the index
    arrays are int32.  Arithmetic on them stays int32 under NumPy 2, so the
    one product of two index-sized numbers, the edge-pairing key of
    _build_edges, is formed in int64.  ``edge_midpoint`` is derived from the
    vertices, not stored.
    """

    level: int
    vertices: np.ndarray
    triangles: np.ndarray
    edge_vertices: np.ndarray
    edge_length: np.ndarray
    edge_occurrence: np.ndarray
    edge_normal: np.ndarray
    tri_edges: np.ndarray
    tri_minus: np.ndarray

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def n_edges(self):
        return len(self.edge_vertices)

    @property
    def edge_midpoint(self):
        """(ne, 2) float array, the midpoint of every edge."""
        p0 = np.take(self.vertices, self.edge_vertices[:, 0], axis=0)
        p1 = np.take(self.vertices, self.edge_vertices[:, 1], axis=0)
        return 0.5 * (p0 + p1)

    @property
    def n_dofs(self):
        """Dimension of the piecewise-linear discontinuous space."""
        return 3 * self.n_triangles

    @property
    def boundary_edge_mask(self):
        return self.edge_occurrence[:, 0] == self.edge_occurrence[:, 1]

    @property
    def interior_edges(self):
        return np.flatnonzero(~self.boundary_edge_mask)

    @property
    def boundary_edges(self):
        return np.flatnonzero(self.boundary_edge_mask)

    @property
    def interior_vertices(self):
        on_bnd = np.zeros(self.n_vertices, dtype=bool)
        on_bnd[self.edge_vertices[self.boundary_edge_mask].ravel()] = True
        return np.flatnonzero(~on_bnd)

    def interior_vertex_index(self):
        """Number of every vertex among the interior vertices; -1 on the
        boundary."""
        interior = self.interior_vertices
        idx = -np.ones(self.n_vertices, dtype=np.int64)
        idx[interior] = np.arange(len(interior))
        return idx

    def corners(self, tris=slice(None)):
        """The (..., 2) coordinates of local vertex 0, 1 and 2 of the
        triangles tris (a slice or an index array; all by default); np.take
        copies rows several times faster than fancy indexing."""
        return [np.take(self.vertices, self.triangles[tris, i], axis=0) for i in range(3)]

    def triangle_areas(self, tris=slice(None)):
        return triangle_area(*self.corners(tris))

    def barycenters(self):
        p0, p1, p2 = self.corners()
        # summed and divided as .mean(axis=1) of the stacked corners
        return (p0 + p1 + p2) / 3


@dataclass
class MeshHierarchy:
    """Nested meshes T_0 subset T_1 subset ... subset T_J.

    The numbering of ``refine`` fixes the parent maps: coarse vertices keep
    their indices, fine vertex ``n_vertices + e`` bisects coarse edge ``e``,
    and the children of coarse triangle ``t`` are ``4t .. 4t+3``.
    """

    meshes: list = field(default_factory=list)

    @property
    def levels(self):
        return len(self.meshes)

    @property
    def finest(self):
        return self.meshes[-1]

    def truncated(self, level):
        """The hierarchy of levels 0..level; shares the meshes."""
        if not 0 <= level < self.levels:
            raise ValueError("level outside the hierarchy")
        return MeshHierarchy(meshes=self.meshes[: level + 1])


@dataclass
class EdgeWeights:
    """Per-edge weights beta_e = kappa^- / (kappa^+ + kappa^-) of the plus
    and gamma_e = kappa^+ / (kappa^+ + kappa^-) of the minus side, which sum
    to 1 in exact arithmetic, and the harmonic-mean coefficient kappa_e.

    On a boundary edge the weighted average is the plus side's value:
    ``beta`` is 1, ``gamma`` 0 and ``kappa_e`` the coefficient of the single
    adjacent element.
    """

    beta: np.ndarray
    gamma: np.ndarray
    kappa_e: np.ndarray


def _build_edges(vertices, triangles):
    """Enumerate edges with adjacency; plus side is the smaller triangle index.

    Local edge i of a triangle joins its local vertices (i+1) % 3 and
    (i+2) % 3.  Edges are numbered by first appearance over (triangle, local
    edge), so the first occurrence of an edge is on its plus triangle.  The
    index arrays are int32 like triangles.  The temporaries are freed in
    groups, before the next ones are made, so that a refinement's traced
    peak is about 1.6 times the mesh it returns.
    """
    nt = len(triangles)
    # per occurrence (triangle, local edge): local vertices i + 1 and i + 2
    lo = np.roll(triangles, -1, axis=1).ravel()
    hi = np.roll(triangles, -2, axis=1).ravel()
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi, out=hi)
    # a stable sort of the endpoint keys puts the two occurrences of an
    # interior edge side by side, the first appearance in front; the key
    # is int64, as lo * n_vertices passes 2**31 from level 6 on
    key = lo.astype(np.int64)
    key *= len(vertices)
    key += hi
    srt = np.argsort(key, kind="stable")
    key = np.take(key, srt)
    repeat = key[1:] == key[:-1]
    second, partner = srt[1:][repeat], srt[:-1][repeat]
    del key, srt, repeat
    is_first = np.ones(3 * nt, dtype=bool)
    is_first[second] = False
    # edges numbered by first appearance: the dof order of the split blocks
    tri_edges = np.cumsum(is_first, dtype=np.int32).reshape(nt, 3)
    tri_edges -= 1
    occ_edge = tri_edges.reshape(-1)
    occ_edge[second] = np.take(occ_edge, partner)
    # the second occurrence of an interior edge is on its minus triangle
    tri_minus = ~is_first.reshape(nt, 3)
    first = np.flatnonzero(is_first).astype(np.int32)
    edge_occurrence = np.column_stack([first, first])
    edge_occurrence[np.take(occ_edge, second), 1] = second
    edge_vertices = np.column_stack([np.take(lo, first), np.take(hi, first)])
    # the vertex of the plus triangle off each edge: local vertex i of
    # occurrence (t, i)
    off_edge = np.take(triangles.ravel(), first)
    del lo, hi, second, partner, is_first, first
    p0 = np.take(vertices, edge_vertices[:, 0], axis=0)
    away = np.take(vertices, edge_vertices[:, 1], axis=0)
    tangent = away - p0
    # orient outward from the plus triangle, away from its vertex off the
    # edge: from it to the edge midpoint, with the bits of Mesh.edge_midpoint
    away += p0
    del p0
    away *= 0.5
    away -= np.take(vertices, off_edge, axis=0)
    # the Euclidean norm, summed as np.linalg.norm sums it
    edge_length = np.sqrt(tangent[:, 0] * tangent[:, 0] + tangent[:, 1] * tangent[:, 1])
    normal = np.empty_like(tangent)
    normal[:, 0] = tangent[:, 1]
    np.negative(tangent[:, 0], out=normal[:, 1])
    del tangent
    normal /= edge_length[:, None]
    dot = normal[:, 0] * away[:, 0]
    dot += normal[:, 1] * away[:, 1]
    np.negative(normal, out=normal, where=(dot < 0)[:, None])
    return edge_vertices, edge_length, edge_occurrence, normal, tri_edges, tri_minus


def _make_mesh(level, vertices, triangles):
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int32)
    return Mesh(level, vertices, triangles, *_build_edges(vertices, triangles))


def build_initial_mesh():
    """4x4 grid of squares on [-1,1]^2, diagonals lower-left to upper-right."""
    n = 4
    xs = np.linspace(-1.0, 1.0, n + 1)
    vid = lambda i, j: j * (n + 1) + i
    vertices = [(xs[i], xs[j]) for j in range(n + 1) for i in range(n + 1)]
    triangles = []
    for j in range(n):
        for i in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            triangles.append((a, b, c))
            triangles.append((a, c, d))
    return _make_mesh(0, vertices, triangles)


def refine(mesh):
    """Red refinement: split every triangle into 4 congruent children.

    Coarse vertices keep their indices, fine vertex ``n_vertices + e`` is the
    midpoint of coarse edge ``e``, and the children of triangle ``t`` are
    ``4t .. 4t+3``.
    """
    vertices = np.vstack([mesh.vertices, mesh.edge_midpoint])
    # corners 0-2 of a coarse triangle are its vertices v_i, corners 3-5
    # the new vertices m_i at the midpoints of the edges opposite them; the
    # children are [v0, m2, m1], [v1, m0, m2], [v2, m1, m0], [m0, m1, m2]
    children = np.take(np.hstack([mesh.triangles, mesh.n_vertices + mesh.tri_edges]),
                       [[0, 5, 4], [1, 3, 5], [2, 4, 3], [3, 4, 5]], axis=1)
    return _make_mesh(mesh.level + 1, vertices, children.reshape(-1, 3))


def build_hierarchy(J):
    """J+1 nested meshes, levels 0..J."""
    if J < 0:
        raise ValueError("J must be >= 0")
    hier = MeshHierarchy([build_initial_mesh()])
    for _ in range(J):
        hier.meshes.append(refine(hier.finest))
    return hier


def _in_inclusion(p):
    """Whether each point of the (..., 2) array p lies in an inclusion."""
    x, y = p[..., 0], p[..., 1]
    return np.logical_or.reduce(
        [(x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1) for x0, x1, y0, y1 in _INCLUSIONS]
    )


def assign_coefficient(mesh, eps):
    """The piecewise-constant coefficient kappa, one value per triangle:
    1 on the two inclusion squares, eps elsewhere.

    Membership is decided by the barycenter; a triangle whose corners end up
    on both sides of the subdomain interface is rejected.
    """
    if not 0.0 < eps < np.inf:  # also false for NaN
        raise ValueError("eps must be finite and positive")
    bary = mesh.barycenters()
    inside = _in_inclusion(bary)
    # probe slightly inside the triangle at each corner; straddling the
    # interface means the mesh does not resolve the coefficient
    straddle = np.flatnonzero(np.logical_or.reduce(
        [_in_inclusion(p + 1e-9 * (bary - p)) != inside for p in mesh.corners()]))
    if len(straddle):
        raise UnresolvedCoefficientError(
            f"triangle {straddle[0]} straddles the coefficient interface"
        )
    return np.where(inside, 1.0, eps)


def edge_weights(mesh, coeff):
    """beta_e = kappa^- / (kappa^+ + kappa^-), gamma_e = kappa^+ / (kappa^+ +
    kappa^-), kappa_e = harmonic mean.

    gamma_e is divided out, not formed as 1 - beta_e, which cancels to few
    or no correct digits where beta_e is close to 1.  Boundary edges get
    beta = 1, gamma = 0 and kappa_e = kappa of the adjacent element.
    """
    if not np.all(coeff > 0):  # NaN > 0 is false too
        raise ValueError("kappa must be positive")
    bnd = mesh.boundary_edge_mask
    # a boundary edge's minus side repeats its plus one
    kp, km = coeff[mesh.edge_occurrence // 3].T
    beta = np.where(bnd, 1.0, km / (kp + km))
    gamma = np.where(bnd, 0.0, kp / (kp + km))
    kappa_e = np.where(bnd, kp, 2.0 * kp * km / (kp + km))
    return EdgeWeights(beta, gamma, kappa_e)
