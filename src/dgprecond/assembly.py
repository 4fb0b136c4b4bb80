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

from .mesh import BOUNDARY

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
            raise ValueError("theta must be -1, 0 or 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.variant not in (IP0, IP1):
            raise ValueError("variant must be IP0 or IP1")


def p1_gradients(mesh):
    """Per-triangle gradients of the three nodal P1 basis functions.

    Returns (nt, 3, 2) array; row i is grad of the basis that is 1 at local
    vertex i.
    """
    p = mesh.vertices[mesh.triangles]
    nt = mesh.n_triangles
    grads = np.empty((nt, 3, 2))
    areas = mesh.triangle_areas()
    for i in range(3):
        # edge opposite vertex i, rotated to point toward vertex i
        a = p[:, (i + 1) % 3]
        b = p[:, (i + 2) % 3]
        t = b - a
        n = np.column_stack([-t[:, 1], t[:, 0]])
        sgn = np.sign(np.einsum("ij,ij->i", n, p[:, i] - a))
        grads[:, i, :] = sgn[:, None] * n / (2.0 * areas)[:, None]
    return grads


def _edge_local_vertices(mesh, t, e):
    """Local indices in triangle t of the two endpoints of edge e, ordered
    as (v0, v1) with v0 < v1 globally."""
    tri = mesh.triangles[t]
    v0, v1 = mesh.edge_vertices[e]
    return int(np.flatnonzero(tri == v0)[0]), int(np.flatnonzero(tri == v1)[0])


def _trace_matrix(local_pair):
    """Rows = (value at v0, value at v1) of the 3 local nodal basis functions."""
    M = np.zeros((2, 3))
    M[0, local_pair[0]] = 1.0
    M[1, local_pair[1]] = 1.0
    return M


def assemble_dg(mesh, coeff, weights, params):
    """Stiffness matrix of the IP(beta) form in the nodal DG basis."""
    n = mesh.n_dofs
    grads = p1_gradients(mesh)
    areas = mesh.triangle_areas()
    rows, cols, vals = [], [], []

    def add_block(dofs_r, dofs_c, block):
        r, c = np.meshgrid(dofs_r, dofs_c, indexing="ij")
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(np.asarray(block).ravel())

    # element terms: kappa_T |T| grad_i . grad_j
    for t in range(mesh.n_triangles):
        dofs = 3 * t + np.arange(3)
        add_block(dofs, dofs, coeff.kappa[t] * areas[t] * grads[t] @ grads[t].T)

    theta, alpha = params.theta, params.alpha
    for e in range(mesh.n_edges):
        tp = mesh.edge_plus[e]
        tm = mesh.edge_minus[e]
        length = mesh.edge_length[e]
        he = length  # |e| is the 1D measure in 2D
        normal = mesh.edge_normal[e]
        ke = weights.kappa_e[e]

        if tm == BOUNDARY:
            lp = _edge_local_vertices(mesh, tp, e)
            Tr = _trace_matrix(lp)  # (2, 3) endpoint traces
            mid = 0.5 * (Tr[0] + Tr[1])  # value at m_e
            flux = coeff.kappa[tp] * grads[tp] @ normal  # (3,)
            dofs = 3 * tp + np.arange(3)
            block = np.zeros((3, 3))
            # -<kappa grad v . n, w> + theta <v, kappa grad w . n>
            block += -length * np.outer(mid, flux)
            block += theta * length * np.outer(flux, mid)
            if params.variant == IP0:
                block += alpha / he * ke * length * np.outer(mid, mid)
            else:
                for s in _GAUSS_S:
                    tr = (1 - s) * Tr[0] + s * Tr[1]
                    block += alpha / he * ke * (length / 2.0) * np.outer(tr, tr)
            add_block(dofs, dofs, block)
            continue

        lp = _edge_local_vertices(mesh, tp, e)
        lm = _edge_local_vertices(mesh, tm, e)
        Trp = _trace_matrix(lp)
        Trm = _trace_matrix(lm)
        dofs = np.concatenate([3 * tp + np.arange(3), 3 * tm + np.arange(3)])
        # endpoint traces of the 6 local dofs, jump = plus - minus along n+
        Tr = np.hstack([Trp, -Trm])  # (2, 6) jump traces at the endpoints
        jump_mid = 0.5 * (Tr[0] + Tr[1])
        # weighted flux average {kappa grad v}_beta . n+ = kappa_e {grad v}.n+
        flux = ke * 0.5 * np.concatenate([grads[tp] @ normal, grads[tm] @ normal])
        block = np.zeros((6, 6))
        block += -length * np.outer(jump_mid, flux)
        block += theta * length * np.outer(flux, jump_mid)
        if params.variant == IP0:
            block += alpha / he * ke * length * np.outer(jump_mid, jump_mid)
        else:
            for s in _GAUSS_S:
                tr = (1 - s) * Tr[0] + s * Tr[1]
                block += alpha / he * ke * (length / 2.0) * np.outer(tr, tr)
        add_block(dofs, dofs, block)

    A = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    A.sum_duplicates()
    return drop_tiny(A)


def assemble_conforming(mesh, coeff):
    """P1 conforming stiffness matrix on interior vertices (Dirichlet)."""
    grads = p1_gradients(mesh)
    areas = mesh.triangle_areas()
    interior = mesh.interior_vertices
    idx = -np.ones(mesh.n_vertices, dtype=np.int64)
    idx[interior] = np.arange(len(interior))
    rows, cols, vals = [], [], []
    for t in range(mesh.n_triangles):
        gi = idx[mesh.triangles[t]]
        block = coeff.kappa[t] * areas[t] * grads[t] @ grads[t].T
        for i in range(3):
            if gi[i] < 0:
                continue
            for j in range(3):
                if gi[j] < 0:
                    continue
                rows.append(gi[i])
                cols.append(gi[j])
                vals.append(block[i, j])
    n = len(interior)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    A.sum_duplicates()
    return drop_tiny(A)


def assemble_rhs(mesh, f):
    """DG load vector via the 3-point edge-midpoint rule (order-2 exact)."""
    b = np.zeros(mesh.n_dofs)
    areas = mesh.triangle_areas()
    for t in range(mesh.n_triangles):
        p = mesh.vertices[mesh.triangles[t]]
        w = areas[t] / 3.0
        for i in range(3):
            m = 0.5 * (p[(i + 1) % 3] + p[(i + 2) % 3])  # midpoint opposite i
            fv = f(m[0], m[1])
            # P1 basis values at edge midpoints: 0 at the opposite one, 1/2 else
            for j in range(3):
                if j != i:
                    b[3 * t + j] += w * fv * 0.5
    return b


def energy_norm(mesh, coeff, weights, u, which="DG0"):
    """Energy norm: element gradients plus penalty-weighted jump terms.

    ``which`` selects the projected-jump (DG0) or full-jump (DG1) variant.
    """
    if which not in ("DG0", "DG1"):
        raise ValueError("which must be DG0 or DG1")
    grads = p1_gradients(mesh)
    areas = mesh.triangle_areas()
    total = 0.0
    for t in range(mesh.n_triangles):
        g = grads[t].T @ u[3 * t : 3 * t + 3]
        total += coeff.kappa[t] * areas[t] * (g @ g)
    for e in range(mesh.n_edges):
        tp = mesh.edge_plus[e]
        tm = mesh.edge_minus[e]
        length = mesh.edge_length[e]
        lp = _edge_local_vertices(mesh, tp, e)
        jp = np.array([u[3 * tp + lp[0]], u[3 * tp + lp[1]]])
        if tm == BOUNDARY:
            jend = jp
        else:
            lm = _edge_local_vertices(mesh, tm, e)
            jend = jp - np.array([u[3 * tm + lm[0]], u[3 * tm + lm[1]]])
        ke = weights.kappa_e[e]
        if which == "DG0":
            jmid = 0.5 * (jend[0] + jend[1])
            total += ke / length * length * jmid**2
        else:
            for s in _GAUSS_S:
                j = (1 - s) * jend[0] + s * jend[1]
                total += ke / length * (length / 2.0) * j**2
    return float(np.sqrt(total))


def symmetric_part(A):
    """(A + A^T) / 2."""
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    return ((A + A.T) * 0.5).tocsr()


def drop_tiny(A, rel=1e-14):
    """Drop stored entries below rel * max|entry|."""
    A = A.tocsr()
    if A.nnz == 0:
        return A
    cut = rel * np.abs(A.data).max()
    A.data[np.abs(A.data) < cut] = 0.0
    A.eliminate_zeros()
    return A


def export_coordinate(A, path):
    """Write 'row col value' lines, 0-based, 17 significant digits."""
    A = A.tocoo()
    with open(path, "w") as fh:
        for r, c, v in zip(A.row, A.col, A.data):
            fh.write(f"{r} {c} {v:.17g}\n")
