import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgprecond.mesh import (
    BOUNDARY,
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
    bary = m.vertices[m.triangles[m.edge_plus]].mean(axis=1)
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
    for e in range(m.n_edges):
        tp, tm = m.edge_plus[e], m.edge_minus[e]
        assert set(m.edge_vertices[e]) <= set(m.triangles[tp])
        if tm == BOUNDARY:
            assert np.max(np.abs(m.edge_midpoint[e])) == pytest.approx(1.0)
        else:
            assert tp < tm
            assert set(m.edge_vertices[e]) <= set(m.triangles[tm])


def test_refinement_nesting():
    coarse = build_initial_mesh()
    fine, tri_parent, vertex_parents = refine(coarse)
    assert fine.n_triangles == 4 * coarse.n_triangles
    # coarse vertices keep their indices
    assert np.allclose(fine.vertices[: coarse.n_vertices], coarse.vertices)
    # each new vertex bisects a coarse edge
    for v, (a, b) in vertex_parents.items():
        assert np.allclose(
            fine.vertices[v], 0.5 * (coarse.vertices[a] + coarse.vertices[b])
        )
    # children partition the parent area
    areas = fine.triangle_areas()
    for t in range(coarse.n_triangles):
        children = np.flatnonzero(tri_parent == t)
        assert len(children) == 4
        assert np.isclose(areas[children].sum(), coarse.triangle_area(t))


@pytest.mark.parametrize("level", [0, 1, 2])
def test_coefficient_assignment(level):
    m = build_hierarchy(level).finest
    c = assign_coefficient(m, 1e-3)
    assert np.sum(c.kappa == 1.0) == 4 * 4**level
    assert np.sum(c.kappa == 1e-3) == m.n_triangles - 4 * 4**level
    assert c.jump_ratio() == pytest.approx(1e3)
    # inclusion triangles have barycenters inside the two squares
    bary = m.barycenters()
    inside = ((bary[:, 0] > -0.5) & (bary[:, 0] < 0) & (bary[:, 1] > -0.5) & (bary[:, 1] < 0)) | (
        (bary[:, 0] > 0) & (bary[:, 0] < 0.5) & (bary[:, 1] > 0) & (bary[:, 1] < 0.5)
    )
    assert np.array_equal(c.kappa == 1.0, inside)


def test_unresolved_coefficient_raises():
    # triangle with barycenter inside inclusion 1 but a corner outside it
    verts = [(-0.25, -0.25), (0.25, -0.25), (0.0, 0.25)]
    m = _make_mesh(0, verts, [(0, 1, 2)])
    with pytest.raises(UnresolvedCoefficientError):
        assign_coefficient(m, 1e-3)


def test_bad_eps_rejected():
    m = build_initial_mesh()
    with pytest.raises(ValueError):
        assign_coefficient(m, 0.0)
    with pytest.raises(ValueError):
        assign_coefficient(m, -1.0)


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
    assert np.all((beta > 0) & (beta < 1))
    # beta+ kappa+ = beta- kappa- = kappa_e / 2
    kp = c.kappa[m.edge_plus[interior]]
    km = c.kappa[m.edge_minus[interior]]
    assert np.allclose(beta * kp, (1 - beta) * km)
    assert np.allclose(w.kappa_e[interior], 2 * kp * km / (kp + km))
    # harmonic mean between min and max
    assert np.all(w.kappa_e[interior] <= np.maximum(kp, km) * (1 + 1e-12))
    assert np.all(w.kappa_e[interior] >= np.minimum(kp, km) * (1 - 1e-12))
    assert np.all(np.isnan(w.beta[boundary]))
    assert np.allclose(w.kappa_e[boundary], c.kappa[m.edge_plus[boundary]])


def test_hierarchy_structure():
    h = build_hierarchy(2)
    assert h.levels == 3
    assert h.finest is h.meshes[2]
    assert len(h.tri_parent) == 2
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
        for a, b in zip(cut.tri_parent, fresh.tri_parent):
            assert np.array_equal(a, b)
        assert cut.vertex_parents == fresh.vertex_parents
    with pytest.raises(ValueError):
        full.truncated(5)


def test_dump_roundtrip_format():
    m = build_initial_mesh()
    text = m.dump()
    assert text.startswith("VERTICES\n")
    sections = text.split("TRIANGLES\n")
    assert len(sections) == 2
    body = sections[1].split("EDGES\n")
    assert len(body[0].strip().splitlines()) == m.n_triangles
    assert len(body[1].strip().splitlines()) == m.n_edges
