import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgprecond.mesh import (
    UnresolvedCoefficientError,
    build_initial_mesh,
    build_hierarchy,
    refine,
    assign_coefficient,
    edge_weights,
    _make_mesh,
)


def test_initial_mesh_counts():
    m = build_initial_mesh()
    assert m.n_triangles == 32
    assert m.n_dofs == 96
    assert m.n_vertices == 25
    assert m.n_edges == 56
    assert len(m.boundary_edges) == 16
    assert len(m.interior_edges) == 40
    assert len(m.interior_vertices) == 9


@pytest.mark.parametrize("level", [1, 2, 3])
def test_refined_counts(level):
    m = build_hierarchy(level).finest
    nt = 32 * 4**level
    nb = 16 * 2**level
    assert m.n_triangles == nt
    assert m.n_dofs == 3 * nt
    assert m.n_edges == (3 * nt + nb) // 2
    assert len(m.boundary_edges) == nb
    assert len(m.interior_edges) == (3 * nt - nb) // 2
    assert len(m.interior_vertices) == (2 ** (level + 2) - 1) ** 2


def test_level1_edge_count():
    m = build_hierarchy(1).finest
    assert m.n_edges == 208


def test_orientation_and_areas():
    for level in (0, 1):
        m = build_hierarchy(level).finest
        p = m.vertices[m.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        assert np.all(signed > 0)  # counterclockwise
        assert np.isclose(m.triangle_areas().sum(), 4.0)
        h = 2.0 ** (-1 - level)
        assert np.allclose(m.triangle_areas(), 0.5 * h * h)


def test_edge_geometry():
    m = build_hierarchy(1).finest
    nrm = np.linalg.norm(m.edge_normal, axis=1)
    assert np.allclose(nrm, 1.0)
    # normal points away from the plus triangle
    bary = m.vertices[m.triangles[m.edge_occurrence[:, 0] // 3]].mean(axis=1)
    dots = np.einsum("ij,ij->i", m.edge_normal, m.edge_midpoint - bary)
    assert np.all(dots > 0)
    # midpoints and lengths consistent with endpoints
    p0 = m.vertices[m.edge_vertices[:, 0]]
    p1 = m.vertices[m.edge_vertices[:, 1]]
    assert np.allclose(m.edge_midpoint, 0.5 * (p0 + p1))
    assert np.allclose(m.edge_length, np.linalg.norm(p1 - p0, axis=1))


def test_tri_edges_opposite_vertex():
    m = build_initial_mesh()
    for t in range(m.n_triangles):
        for i in range(3):
            e = m.tri_edges[t, i]
            # edge opposite local vertex i contains the other two vertices
            others = {m.triangles[t, (i + 1) % 3], m.triangles[t, (i + 2) % 3]}
            assert set(m.edge_vertices[e]) == others


def test_edge_adjacency():
    m = build_hierarchy(1).finest
    for e, bnd in enumerate(m.boundary_edge_mask):
        tp, tm = m.edge_occurrence[e] // 3
        assert set(m.edge_vertices[e]) <= set(m.triangles[tp])
        if bnd:
            assert np.max(np.abs(m.edge_midpoint[e])) == pytest.approx(1.0)
        else:
            assert tp < tm
            assert set(m.edge_vertices[e]) <= set(m.triangles[tm])


def test_refinement_nesting():
    coarse = build_initial_mesh()
    fine = refine(coarse)
    nv = coarse.n_vertices
    assert fine.n_triangles == 4 * coarse.n_triangles
    # coarse vertices keep their indices
    assert np.allclose(fine.vertices[:nv], coarse.vertices)
    # fine vertex nv + e bisects coarse edge e
    for e, (a, b) in enumerate(coarse.edge_vertices):
        assert np.allclose(
            fine.vertices[nv + e], 0.5 * (coarse.vertices[a] + coarse.vertices[b])
        )
    # the children 4t .. 4t+3 of t use its corners and edge midpoints and
    # partition its area
    areas = fine.triangle_areas()
    for t in range(coarse.n_triangles):
        children = np.arange(4 * t, 4 * t + 4)
        allowed = set(coarse.triangles[t]) | set(nv + coarse.tri_edges[t])
        assert set(fine.triangles[children].ravel()) == allowed
        pts = coarse.vertices[coarse.triangles[t]]
        assert np.isclose(areas[children].sum(), 0.5 * abs(np.linalg.det(np.column_stack([pts, np.ones(3)]))))


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_edge_occurrence_matches_brute_force_lookup(level):
    m = build_hierarchy(level).finest
    occ = m.edge_occurrence
    assert occ.shape == (m.n_edges, 2) and m.tri_minus.shape == (m.n_triangles, 3)
    flat = m.tri_edges.ravel()
    for e in range(m.n_edges):
        found = np.flatnonzero(flat == e)
        assert np.array_equal(flat[occ[e]], [e, e])
        assert set(occ[e].tolist()) == set(found.tolist()) and occ[e, 0] == found[0]
        for o in occ[e]:
            # local vertex o % 3 of triangle o // 3 is the one off the edge
            assert m.triangles[o // 3, o % 3] not in m.edge_vertices[e]
        if len(found) == 2:
            assert occ[e, 0] // 3 < occ[e, 1] // 3
            assert not m.tri_minus.ravel()[occ[e, 0]] and m.tri_minus.ravel()[occ[e, 1]]
    assert np.count_nonzero(m.tri_minus) == len(m.interior_edges)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_edges_numbered_by_first_appearance(level):
    m = build_hierarchy(level).finest
    _, first = np.unique(m.tri_edges.ravel(), return_index=True)
    assert np.all(np.diff(first) > 0)


def _arrays(mesh):
    """The array fields of mesh, by name."""
    return {f.name: getattr(mesh, f.name) for f in dataclasses.fields(mesh)
            if isinstance(getattr(mesh, f.name), np.ndarray)}


def _digest_arrays(mesh):
    """The mesh's arrays in the form the digest below was first taken of:
    each edge's plus and minus triangle (-1 on the boundary) and, per side,
    the local index of each endpoint, in place of edge_occurrence and
    tri_minus, which they determine."""
    tri = mesh.edge_occurrence // 3
    local = np.argmax(mesh.triangles[tri][:, :, None] == mesh.edge_vertices[:, None, :, None],
                      axis=-1)
    return {"vertices": mesh.vertices, "triangles": mesh.triangles,
            "edge_vertices": mesh.edge_vertices, "edge_midpoint": mesh.edge_midpoint,
            "edge_length": mesh.edge_length, "edge_plus": tri[:, 0],
            "edge_minus": np.where(mesh.boundary_edge_mask, -1, tri[:, 1]),
            "edge_normal": mesh.edge_normal, "tri_edges": mesh.tri_edges, "edge_local": local}


def test_level3_edge_numbering_digest():
    # pins the mesh's arrays, the edge numbering and adjacency among them:
    # the numbering is the split-block dof order and so the Gauss-Seidel
    # sweep order of every table.  The digest was taken of int64 index
    # arrays; hashed as int64, the int32 ones show the same values
    mesh = build_hierarchy(3).finest
    h = hashlib.sha256()
    for name, a in _digest_arrays(mesh).items():
        a = a.astype(np.int64) if a.dtype.kind == "i" else a
        h.update(f"{name} {a.dtype} {a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == (
        "642e44ea1bdeb2b08d6fc8d8bc85bafa3891ef442de62886b0de45139e11e15e"
    )
    assert {name: a.dtype.name for name, a in _arrays(mesh).items()} == {
        "vertices": "float64", "triangles": "int32", "edge_vertices": "int32",
        "edge_length": "float64", "edge_occurrence": "int32", "edge_normal": "float64",
        "tri_edges": "int32", "tri_minus": "bool"}


def test_hierarchy_memory_stays_near_its_meshes():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        hier = build_hierarchy(4)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    arrays = [a for m in hier.meshes for a in _arrays(m).values()]
    # each array owns its buffer, so its bytes are all the mesh keeps
    assert all(a.base is None or a.base.nbytes == a.nbytes for a in arrays)
    # 1.44 times at level 4 (1.49 at level 3, 1.43 at level 5)
    assert peak <= 1.6 * sum(a.nbytes for a in arrays)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_coefficient_assignment(level):
    m = build_hierarchy(level).finest
    c = assign_coefficient(m, 1e-3)
    assert np.sum(c == 1.0) == 4 * 4**level
    assert np.sum(c == 1e-3) == m.n_triangles - 4 * 4**level
    assert c.max() / c.min() == pytest.approx(1e3)
    # inclusion triangles have barycenters inside the two squares
    bary = m.barycenters()
    inside = ((bary[:, 0] > -0.5) & (bary[:, 0] < 0) & (bary[:, 1] > -0.5) & (bary[:, 1] < 0)) | (
        (bary[:, 0] > 0) & (bary[:, 0] < 0.5) & (bary[:, 1] > 0) & (bary[:, 1] < 0.5)
    )
    assert np.array_equal(c == 1.0, inside)


def test_unresolved_coefficient_raises():
    # triangle with barycenter inside inclusion 1 but a corner outside it
    verts = [(-0.25, -0.25), (0.25, -0.25), (0.0, 0.25)]
    m = _make_mesh(0, verts, [(0, 1, 2)])
    with pytest.raises(UnresolvedCoefficientError):
        assign_coefficient(m, 1e-3)


@pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_bad_eps_rejected(eps):
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        assign_coefficient(build_initial_mesh(), eps)


@pytest.mark.parametrize("kappa", [0.0, -1.0, np.nan])
def test_edge_weights_refuse_a_coefficient_not_positive(kappa):
    m = build_initial_mesh()
    coeff = np.ones(m.n_triangles)
    coeff[5] = kappa
    with pytest.raises(ValueError, match="kappa must be positive"):
        edge_weights(m, coeff)


@settings(deadline=None, max_examples=25)
@given(st.floats(min_value=-8, max_value=8))
def test_edge_weights_invariants(log_eps):
    eps = 10.0**log_eps
    m = build_initial_mesh()
    c = assign_coefficient(m, eps)
    w = edge_weights(m, c)
    interior = m.interior_edges
    boundary = m.boundary_edges
    beta = w.beta[interior]
    gamma = w.gamma[interior]
    assert np.all((beta > 0) & (beta < 1))
    assert np.allclose(beta + gamma, 1.0, rtol=0, atol=2 * np.finfo(float).eps)
    # beta+ kappa+ = beta- kappa- = kappa_e / 2
    kp, km = c[m.edge_occurrence[interior] // 3].T
    assert np.allclose(beta * kp, gamma * km)
    assert np.allclose(w.kappa_e[interior], 2 * kp * km / (kp + km))
    # harmonic mean between min and max
    assert np.all(w.kappa_e[interior] <= np.maximum(kp, km) * (1 + 1e-12))
    assert np.all(w.kappa_e[interior] >= np.minimum(kp, km) * (1 - 1e-12))
    assert np.all(w.beta[boundary] == 1.0) and np.all(w.gamma[boundary] == 0.0)
    assert np.allclose(w.kappa_e[boundary], c[m.edge_occurrence[boundary, 0] // 3])


def test_hierarchy_structure():
    h = build_hierarchy(2)
    assert h.levels == 3
    assert h.finest is h.meshes[2]
    assert [m.n_triangles for m in h.meshes] == [32, 128, 512]
    for j, m in enumerate(h.meshes):
        assert m.level == j


def test_truncated_hierarchy_equals_fresh_build():
    full = build_hierarchy(4)
    for j in range(5):
        cut, fresh = full.truncated(j), build_hierarchy(j)
        assert cut.levels == fresh.levels == j + 1
        for a, b in zip(cut.meshes, fresh.meshes):
            for f in dataclasses.fields(a):
                assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name
    with pytest.raises(ValueError):
        full.truncated(5)
