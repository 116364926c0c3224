"""Interval meshes and newest-vertex bisection."""

import numpy as np
import pytest

from defectbench.meshing import (
    DIRICHLET,
    ROBIN,
    IntervalMesh,
    TriMesh,
    initial_square_triangulation,
    nvb_refine,
    uniform_interval_mesh,
)


def _contains_node(mesh, x, tol=1e-12):
    return bool(np.any(np.abs(mesh.nodes - x) <= tol))


def _areas(mesh):
    """Signed triangle areas, positive for counterclockwise vertex order."""
    v, t = mesh.vertices, mesh.triangles
    d1 = v[t[:, 1]] - v[t[:, 0]]
    d2 = v[t[:, 2]] - v[t[:, 0]]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _min_angle(mesh):
    v, t = mesh.vertices, mesh.triangles
    angles = []
    for i in range(3):
        a, b, c = v[t[:, i]], v[t[:, (i + 1) % 3]], v[t[:, (i + 2) % 3]]
        u, w = b - a, c - a
        cosang = np.sum(u * w, axis=1) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(w, axis=1)
        )
        angles.append(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return float(np.min(angles))


def test_uniform_interval_mesh_basic():
    mesh = uniform_interval_mesh(8)
    assert mesh.n_elements == 8
    assert mesh.h == pytest.approx(1 / 8)


def test_force_node_inserts_breakpoint():
    mesh = uniform_interval_mesh(8, force_node=1 / 3)
    assert mesh.n_elements == 9
    assert _contains_node(mesh, 1 / 3)
    # already-present node is not duplicated
    mesh2 = uniform_interval_mesh(8, force_node=0.5)
    assert mesh2.n_elements == 8 and _contains_node(mesh2, 0.5)


def test_interval_mesh_validation():
    with pytest.raises(ValueError):
        uniform_interval_mesh(0)
    with pytest.raises(ValueError):
        uniform_interval_mesh(4, force_node=1.5)
    with pytest.raises(ValueError):
        IntervalMesh(nodes=np.array([0.0, 0.7, 0.3, 1.0]))


def _check_conforming(mesh):
    # every interior edge is shared by exactly two triangles, boundary by one
    _, _, counts = mesh.edges()
    assert set(np.unique(counts)) <= {1, 2}


def test_edges_are_computed_once_and_read_only():
    mesh = initial_square_triangulation(2)
    first = mesh.edges()
    assert mesh.edges() is first
    for arr in first:
        with pytest.raises(ValueError):
            arr[0] = 0


def test_initial_triangulation_geometry():
    mesh = initial_square_triangulation(4)
    assert mesh.n_triangles == 32
    areas = _areas(mesh)
    assert np.all(areas > 0)  # counterclockwise orientation
    assert np.sum(areas) == pytest.approx(1.0)
    _check_conforming(mesh)
    bnd, tags = mesh.boundary_edges()
    assert len(bnd) == 16
    assert tags.count(DIRICHLET) == 8 and tags.count(ROBIN) == 8


def test_uniform_nvb_refinement():
    mesh = initial_square_triangulation(2)
    fine = nvb_refine(mesh, range(mesh.n_triangles))
    assert fine.n_triangles == 2 * mesh.n_triangles
    assert np.sum(_areas(fine)) == pytest.approx(1.0)
    assert np.all(_areas(fine) > 0)
    _check_conforming(fine)


def test_nvb_closure_keeps_conformity():
    mesh = initial_square_triangulation(2)
    fine = nvb_refine(mesh, [0])  # single marked triangle forces closure
    assert fine.n_triangles > mesh.n_triangles
    assert np.sum(_areas(fine)) == pytest.approx(1.0)
    assert np.all(_areas(fine) > 0)
    _check_conforming(fine)


def test_nvb_minimum_angle_is_bounded():
    # NVB generates finitely many similarity classes: the minimum angle
    # must not degrade under repeated local refinement
    mesh = initial_square_triangulation(2)
    base_angle = _min_angle(mesh)
    rng = np.random.default_rng(3)
    for _ in range(6):
        k = max(1, mesh.n_triangles // 4)
        marked = rng.choice(mesh.n_triangles, size=k, replace=False)
        mesh = nvb_refine(mesh, marked)
        _check_conforming(mesh)
    assert _min_angle(mesh) >= 0.5 * base_angle - 1e-12


def test_nvb_empty_marking_is_identity():
    mesh = initial_square_triangulation(2)
    assert nvb_refine(mesh, []) is mesh


# ------------------------------------------------ loop references, graded mesh


def _graded_mesh(steps=6):
    # NVB-graded towards the corner (1, 1): mixed refinement levels and
    # closure bisections everywhere between
    mesh = initial_square_triangulation(3)
    for _ in range(steps):
        v, t = mesh.vertices, mesh.triangles
        centroid = v[t].mean(axis=1)
        near = np.hypot(centroid[:, 0] - 1, centroid[:, 1] - 1) < 0.5
        mesh = nvb_refine(mesh, np.flatnonzero(near))
    return mesh


def _boundary_edges_loop(mesh, tol=1e-12):
    uniq, _, counts = mesh.edges()
    bnd = uniq[counts == 1]
    tags = []
    v = mesh.vertices
    for e in bnd:
        p, q = v[e[0]], v[e[1]]
        if (abs(p[0]) <= tol and abs(q[0]) <= tol) or (
            abs(p[1]) <= tol and abs(q[1]) <= tol
        ):
            tags.append(DIRICHLET)
        elif (abs(p[0] - 1) <= tol and abs(q[0] - 1) <= tol) or (
            abs(p[1] - 1) <= tol and abs(q[1] - 1) <= tol
        ):
            tags.append(ROBIN)
        else:
            raise ValueError(f"boundary edge {e} not on the unit square")
    return bnd, tags


def _nvb_refine_recursive(mesh, marked):
    # recursive bisection with a dictionary edge lookup
    uniq_edges, tri_edge_ids, _ = mesh.edges()
    edge_marked = np.zeros(len(uniq_edges), dtype=bool)
    edge_marked[tri_edge_ids[sorted(set(marked)), 0]] = True
    while True:
        touches = edge_marked[tri_edge_ids].any(axis=1)
        need = touches & ~edge_marked[tri_edge_ids[:, 0]]
        if not need.any():
            break
        edge_marked[tri_edge_ids[need, 0]] = True
    nv = len(mesh.vertices)
    marked_ids = np.flatnonzero(edge_marked)
    mid_of = {int(e): nv + k for k, e in enumerate(marked_ids)}
    midpoints = 0.5 * (mesh.vertices[uniq_edges[marked_ids, 0]]
                       + mesh.vertices[uniq_edges[marked_ids, 1]])
    lookup = {(int(a), int(b)): i for i, (a, b) in enumerate(uniq_edges)}
    out = []

    def bisect(tri):
        v0, v1, v2 = tri
        eid = lookup.get((min(v0, v1), max(v0, v1)))
        if eid is None or not edge_marked[eid]:
            out.append(tri)
            return
        m = mid_of[eid]
        bisect((v2, v0, m))
        bisect((v1, v2, m))

    for tri in mesh.triangles:
        bisect(tuple(int(i) for i in tri))
    return np.vstack([mesh.vertices, midpoints]), np.array(out)


def test_edges_match_rowwise_unique_on_graded_mesh():
    mesh = _graded_mesh()
    uniq, tri_edge_ids, counts = mesh.edges()
    t = mesh.triangles
    flat = np.sort(
        np.stack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]], axis=1)
        .reshape(-1, 2),
        axis=1,
    )
    ref_uniq, ref_inv, ref_counts = np.unique(
        flat, axis=0, return_inverse=True, return_counts=True
    )
    np.testing.assert_array_equal(uniq, ref_uniq)
    np.testing.assert_array_equal(tri_edge_ids, ref_inv.reshape(-1, 3))
    np.testing.assert_array_equal(counts, ref_counts)


def test_boundary_edges_match_loop_on_graded_mesh():
    mesh = _graded_mesh()
    bnd, tags = mesh.boundary_edges()
    ref_bnd, ref_tags = _boundary_edges_loop(mesh)
    np.testing.assert_array_equal(bnd, ref_bnd)
    assert tags == ref_tags
    assert DIRICHLET in tags and ROBIN in tags


def test_boundary_edge_off_the_square_raises():
    # the edge from (1, 0) to (0.5, 0.5) bounds the mesh but no side
    mesh = TriMesh(vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5]]),
                   triangles=np.array([[0, 1, 2]]))
    with pytest.raises(ValueError, match="not on the unit square"):
        _boundary_edges_loop(mesh)
    with pytest.raises(ValueError, match="not on the unit square"):
        mesh.boundary_edges()


def test_nvb_refine_matches_recursive_bisection():
    mesh = initial_square_triangulation(3)
    rng = np.random.default_rng(7)
    for step in range(8):
        if step % 3 == 0:
            marked = [0]  # a single triangle: closure does most of the work
        else:
            marked = rng.choice(mesh.n_triangles,
                                size=max(1, mesh.n_triangles // 5),
                                replace=False)
        ref_vertices, ref_triangles = _nvb_refine_recursive(mesh, marked)
        mesh = nvb_refine(mesh, marked)
        np.testing.assert_array_equal(mesh.vertices, ref_vertices)
        np.testing.assert_array_equal(mesh.triangles, ref_triangles)
