"""Structured triangulations of [-1,1]^2 with edge adjacency and jump coefficients.

The level-0 mesh is a 4x4 grid of squares, each cut by the lower-left to
upper-right diagonal (32 triangles, mesh size h = 1/2).  Refinement is uniform
red refinement: every triangle is split into four congruent children via its
edge midpoints, so level ``l`` has ``32 * 4**l`` triangles.
"""

from dataclasses import dataclass, field

import numpy as np

BOUNDARY = -1

# Inclusion squares carrying coefficient 1; everything else gets the
# background value eps.
_INCLUSIONS = ((-0.5, 0.0, -0.5, 0.0), (0.0, 0.5, 0.0, 0.5))


class UnresolvedCoefficientError(ValueError):
    """A triangle straddles the subdomain interface."""


def _cross2(a, b):
    """z-component of the cross product of 2D vectors (vectorized)."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


@dataclass
class Mesh:
    """Conforming triangulation with full edge/element adjacency.

    Attributes
    ----------
    level : refinement level (0 = coarsest).
    vertices : (nv, 2) float array.
    triangles : (nt, 3) int array, counterclockwise vertex indices.
    edge_vertices : (ne, 2) int array, endpoint indices with v0 < v1.
    edge_midpoint : (ne, 2) float array.
    edge_length : (ne,) float array.
    edge_plus : (ne,) int array, adjacent triangle with smaller index.
    edge_minus : (ne,) int array, other triangle or BOUNDARY.
    edge_normal : (ne, 2) unit normal pointing from plus to minus side
        (outward on the boundary).
    tri_edges : (nt, 3) int array; entry (t, i) is the edge opposite local
        vertex i of triangle t.
    """

    level: int
    vertices: np.ndarray
    triangles: np.ndarray
    edge_vertices: np.ndarray
    edge_midpoint: np.ndarray
    edge_length: np.ndarray
    edge_plus: np.ndarray
    edge_minus: np.ndarray
    edge_normal: np.ndarray
    tri_edges: np.ndarray

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
    def n_dofs(self):
        """Dimension of the piecewise-linear discontinuous space."""
        return 3 * self.n_triangles

    @property
    def boundary_edge_mask(self):
        return self.edge_minus == BOUNDARY

    @property
    def interior_edges(self):
        return np.flatnonzero(self.edge_minus != BOUNDARY)

    @property
    def boundary_edges(self):
        return np.flatnonzero(self.edge_minus == BOUNDARY)

    @property
    def interior_vertices(self):
        on_bnd = np.zeros(self.n_vertices, dtype=bool)
        on_bnd[self.edge_vertices[self.boundary_edge_mask].ravel()] = True
        return np.flatnonzero(~on_bnd)

    def triangle_area(self, t):
        p = self.vertices[self.triangles[t]]
        return 0.5 * abs(_cross2(p[1] - p[0], p[2] - p[0]))

    def triangle_areas(self):
        p = self.vertices[self.triangles]
        return 0.5 * np.abs(_cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]))

    def barycenters(self):
        return self.vertices[self.triangles].mean(axis=1)

    def local_edge_index(self, t, e):
        """Local index (0..2) of edge e within triangle t (opposite vertex)."""
        loc = np.flatnonzero(self.tri_edges[t] == e)
        if len(loc) != 1:
            raise ValueError(f"edge {e} not on triangle {t}")
        return int(loc[0])

    def dump(self):
        """Plain-text dump: VERTICES / TRIANGLES / EDGES sections, 0-based."""
        lines = ["VERTICES"]
        for x, y in self.vertices:
            lines.append(f"{x:.17g} {y:.17g}")
        lines.append("TRIANGLES")
        for tri in self.triangles:
            lines.append(" ".join(str(v) for v in tri))
        lines.append("EDGES")
        for e in range(self.n_edges):
            v0, v1 = self.edge_vertices[e]
            mx, my = self.edge_midpoint[e]
            nx, ny = self.edge_normal[e]
            lines.append(
                f"{v0} {v1} {mx:.17g} {my:.17g} {self.edge_length[e]:.17g} "
                f"{self.edge_plus[e]} {self.edge_minus[e]} {nx:.17g} {ny:.17g}"
            )
        return "\n".join(lines) + "\n"


@dataclass
class MeshHierarchy:
    """Nested meshes T_0 subset T_1 subset ... subset T_J.

    ``tri_parent[j]`` maps triangles of mesh j+1 to their parent in mesh j.
    ``vertex_parents[j]`` maps each new vertex of mesh j+1 to the coarse edge
    endpoints it bisects; coarse vertices keep their indices on refinement.
    """

    meshes: list = field(default_factory=list)
    tri_parent: list = field(default_factory=list)
    vertex_parents: list = field(default_factory=list)

    @property
    def levels(self):
        return len(self.meshes)

    @property
    def finest(self):
        return self.meshes[-1]

    def truncated(self, level):
        """The hierarchy of levels 0..level; shares the meshes and maps."""
        if not 0 <= level < self.levels:
            raise ValueError("level outside the hierarchy")
        return MeshHierarchy(
            meshes=self.meshes[: level + 1],
            tri_parent=self.tri_parent[:level],
            vertex_parents=self.vertex_parents[:level],
        )


@dataclass
class CoefficientField:
    """Piecewise-constant diffusion coefficient, one value per triangle."""

    kappa: np.ndarray
    epsilon: float

    def jump_ratio(self):
        return float(self.kappa.max() / self.kappa.min())


@dataclass
class EdgeWeights:
    """Per-edge weight beta_e and harmonic-mean coefficient kappa_e.

    ``beta`` is NaN on boundary edges where the weighted average degenerates;
    there ``kappa_e`` is the coefficient of the single adjacent element.
    """

    beta: np.ndarray
    kappa_e: np.ndarray


def _build_edges(vertices, triangles):
    """Enumerate edges with adjacency; plus side is the smaller triangle index."""
    nt = len(triangles)
    edge_map = {}
    tri_edges = np.empty((nt, 3), dtype=np.int64)
    pairs = []
    adj = []
    for t in range(nt):
        tri = triangles[t]
        for i in range(3):
            a, b = tri[(i + 1) % 3], tri[(i + 2) % 3]
            key = (min(a, b), max(a, b))
            e = edge_map.get(key)
            if e is None:
                e = len(pairs)
                edge_map[key] = e
                pairs.append(key)
                adj.append([t, BOUNDARY])
            else:
                adj[e][1] = t
            tri_edges[t, i] = e

    edge_vertices = np.asarray(pairs, dtype=np.int64)
    adj = np.asarray(adj, dtype=np.int64)
    # plus = smaller adjacent triangle index (adjacency is filled in
    # ascending t order, so adj[:, 0] already is the smaller one)
    edge_plus = adj[:, 0]
    edge_minus = adj[:, 1]

    p0 = vertices[edge_vertices[:, 0]]
    p1 = vertices[edge_vertices[:, 1]]
    edge_midpoint = 0.5 * (p0 + p1)
    tangent = p1 - p0
    edge_length = np.linalg.norm(tangent, axis=1)
    normal = np.column_stack([tangent[:, 1], -tangent[:, 0]]) / edge_length[:, None]
    # orient outward from the plus triangle
    bary_plus = vertices[triangles[edge_plus]].mean(axis=1)
    flip = np.einsum("ij,ij->i", normal, edge_midpoint - bary_plus) < 0
    normal[flip] *= -1.0
    return edge_vertices, edge_midpoint, edge_length, edge_plus, edge_minus, normal, tri_edges


def _make_mesh(level, vertices, triangles):
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    # enforce counterclockwise orientation
    p = vertices[triangles]
    flip = _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]) < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    ev, mid, length, plus, minus, normal, tri_edges = _build_edges(vertices, triangles)
    return Mesh(level, vertices, triangles, ev, mid, length, plus, minus, normal, tri_edges)


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

    Returns (fine_mesh, tri_parent, vertex_parents); coarse vertices keep
    their indices, each new vertex bisects one coarse edge.
    """
    nv = mesh.n_vertices
    new_vertices = list(mesh.vertices)
    midpoint_vertex = np.empty(mesh.n_edges, dtype=np.int64)
    vertex_parents = {}
    for e in range(mesh.n_edges):
        midpoint_vertex[e] = len(new_vertices)
        vertex_parents[len(new_vertices)] = tuple(mesh.edge_vertices[e])
        new_vertices.append(mesh.edge_midpoint[e])

    triangles = []
    tri_parent = []
    for t in range(mesh.n_triangles):
        v0, v1, v2 = mesh.triangles[t]
        # m_i = midpoint of the edge opposite vertex i
        m0, m1, m2 = midpoint_vertex[mesh.tri_edges[t]]
        for child in ((v0, m2, m1), (v1, m0, m2), (v2, m1, m0), (m0, m1, m2)):
            triangles.append(child)
            tri_parent.append(t)

    fine = _make_mesh(mesh.level + 1, np.asarray(new_vertices), triangles)
    return fine, np.asarray(tri_parent, dtype=np.int64), vertex_parents


def build_hierarchy(J):
    """J+1 nested meshes, levels 0..J, with parent maps."""
    if J < 0:
        raise ValueError("J must be >= 0")
    hier = MeshHierarchy()
    mesh = build_initial_mesh()
    hier.meshes.append(mesh)
    for _ in range(J):
        mesh, tp, vp = refine(mesh)
        hier.meshes.append(mesh)
        hier.tri_parent.append(tp)
        hier.vertex_parents.append(vp)
    return hier


def _in_inclusion(p):
    x, y = p
    return any(x0 <= x <= x1 and y0 <= y <= y1 for x0, x1, y0, y1 in _INCLUSIONS)


def assign_coefficient(mesh, eps):
    """Coefficient 1 on the two inclusion squares, eps elsewhere.

    Membership is decided by the barycenter; a triangle whose corners end up
    on both sides of the subdomain interface is rejected.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    kappa = np.empty(mesh.n_triangles)
    bary = mesh.barycenters()
    for t in range(mesh.n_triangles):
        inside = _in_inclusion(bary[t])
        # probe slightly inside the triangle at each corner; straddling the
        # interface means the mesh does not resolve the coefficient
        for v in mesh.vertices[mesh.triangles[t]]:
            q = v + 1e-9 * (bary[t] - v)
            if _in_inclusion(q) != inside:
                raise UnresolvedCoefficientError(
                    f"triangle {t} straddles the coefficient interface"
                )
        kappa[t] = 1.0 if inside else eps
    return CoefficientField(kappa, float(eps))


def edge_weights(mesh, coeff):
    """beta_e = kappa^- / (kappa^+ + kappa^-), kappa_e = harmonic mean.

    Boundary edges get beta = NaN and kappa_e = kappa of the adjacent element.
    """
    if np.any(coeff.kappa <= 0):
        raise ValueError("kappa must be positive")
    kp = coeff.kappa[mesh.edge_plus]
    km = np.where(mesh.boundary_edge_mask, kp, coeff.kappa[mesh.edge_minus])
    beta = np.where(mesh.boundary_edge_mask, np.nan, km / (kp + km))
    kappa_e = np.where(mesh.boundary_edge_mask, kp, 2.0 * kp * km / (kp + km))
    return EdgeWeights(beta, kappa_e)
