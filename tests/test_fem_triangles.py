"""Simplicial 2D assembly: known Laplacian eigenvalue, symmetry, Robin term."""

import numpy as np
import pytest
import scipy.linalg as sla

from defectbench.analytic1d import ModelParams
from defectbench.fem import assemble_triangles
from defectbench.fem.triangles import free_dof_count
from defectbench.meshing import ROBIN, initial_square_triangulation, nvb_refine

UNIT = ModelParams(b=0.5, a_R=1.0 + 0j, c=0.0 + 0j)

REGULAR = ModelParams(
    b=0.5,
    a_R=0.1069220800406739 + 0.08937533852238478j,
    c=-0.9634059612381408 + 0.5989684988897067j,
)


def _smallest_eigs(pencil, k=3):
    w = sla.eig(pencil.A.toarray(), pencil.B.toarray(), right=False)
    return np.sort(w.real[np.abs(w.imag) < 1e-8])[:k]


def test_laplacian_eigenvalue_mixed_square():
    # -Laplace on the unit square, Dirichlet on {x=0, y=0}, Neumann on
    # {x=1, y=1}: eigenvalues ((j+1/2)^2 + (k+1/2)^2) pi^2, smallest pi^2/2
    mesh = initial_square_triangulation(8)
    pencil = assemble_triangles(mesh, UNIT, 2)
    exact = np.pi**2 / 2
    w = _smallest_eigs(pencil, 1)
    assert abs(w[0] - exact) < 1e-4 * exact
    # P1 on the same mesh is less accurate but consistent
    w1 = _smallest_eigs(assemble_triangles(mesh, UNIT, 1), 1)
    assert abs(w1[0] - exact) < 2e-2 * exact
    assert abs(w[0] - exact) < abs(w1[0] - exact)


def test_laplacian_eigenvalue_converges_under_refinement():
    exact = np.pi**2 / 2
    errs = []
    mesh = initial_square_triangulation(4)
    for _ in range(4):
        w = _smallest_eigs(assemble_triangles(mesh, UNIT, 1), 1)
        errs.append(abs(w[0] - exact))
        mesh = nvb_refine(mesh, range(mesh.n_triangles))
    # two uniform NVB rounds halve h: P1 eigenvalue error drops ~4x per pair
    assert errs[0] > 3.0 * errs[2]
    assert errs[1] > 3.0 * errs[3]


def test_matrices_complex_symmetric_and_b_spd():
    mesh = initial_square_triangulation(4)
    for p in (1, 2):
        pencil = assemble_triangles(mesh, REGULAR, p)
        A, B = pencil.A, pencil.B
        assert abs(A - A.T).max() < 1e-13 * abs(A).max()
        assert abs(B - B.T).max() < 1e-14 * abs(B).max()
        assert np.max(np.abs(B.toarray().imag)) == 0.0
        assert np.all(sla.eigvalsh(B.toarray().real) > 0)


def test_robin_term_is_boundary_mass():
    mesh = initial_square_triangulation(4)
    c = -0.25 + 0.5j
    base = assemble_triangles(mesh, UNIT, 1)
    robin = assemble_triangles(
        mesh, ModelParams(b=0.5, a_R=1.0 + 0j, c=c), 1
    )
    delta = (robin.A - base.A).toarray()
    # difference is c times the mass matrix of the Robin boundary
    # {x=1} u {y=1}, restricted to free DOFs: the corners (1,0) and (0,1)
    # are Dirichlet, so each Robin side loses (2/3)L of its unit weight,
    # where L is the boundary element length
    coords = base.meta["coords"][base.free]
    on_robin = (np.abs(coords[:, 0] - 1) < 1e-12) | (
        np.abs(coords[:, 1] - 1) < 1e-12
    )
    ones = np.ones(base.n, dtype=complex)
    L = 1 / 4
    assert ones @ delta @ ones == pytest.approx(2 * c * (1 - 2 * L / 3),
                                                abs=1e-12)
    # and it is supported on boundary DOFs only
    interior = np.flatnonzero(~on_robin)
    assert np.max(np.abs(delta[np.ix_(interior, interior)])) == 0.0


def _robin_mass_loop(mesh, p, c):
    """Edge-by-edge reference: c times the Robin edge mass on all DOFs."""
    v, nv = mesh.vertices, len(mesh.vertices)
    uniq = mesh.edges()[0]
    edge_index = {(int(e[0]), int(e[1])): i for i, e in enumerate(uniq)}
    x, w = np.polynomial.legendre.leggauss(3)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    if p == 1:
        ev = np.stack([1 - x, x])
    else:
        ev = np.stack([(1 - x) * (1 - 2 * x), x * (2 * x - 1), 4 * x * (1 - x)])
    ndof = nv + (len(uniq) if p == 2 else 0)
    M = np.zeros((ndof, ndof), dtype=complex)
    for e, tag in zip(*mesh.boundary_edges()):
        if tag != ROBIN:
            continue
        a, b = int(e[0]), int(e[1])
        dofs = [a, b]
        if p == 2:
            dofs.append(nv + edge_index[(min(a, b), max(a, b))])
        length = float(np.linalg.norm(v[b] - v[a]))
        M[np.ix_(dofs, dofs)] += c * np.einsum("q,iq,jq->ij", w * length, ev, ev)
    return M


def _graded_mesh():
    """NVB-graded towards the Robin corner (1, 1): Robin edges of many
    lengths."""
    mesh = initial_square_triangulation(3)
    for _ in range(5):
        centroid = mesh.vertices[mesh.triangles].mean(axis=1)
        near = np.hypot(centroid[:, 0] - 1, centroid[:, 1] - 1) < 0.5
        mesh = nvb_refine(mesh, np.flatnonzero(near))
    return mesh


@pytest.mark.parametrize("p", [1, 2])
def test_robin_mass_matches_edge_loop_on_graded_mesh(p):
    mesh = _graded_mesh()
    base = assemble_triangles(mesh, ModelParams(b=REGULAR.b, a_R=REGULAR.a_R,
                                                c=0j), p)
    robin = assemble_triangles(mesh, REGULAR, p)
    ref = _robin_mass_loop(mesh, p, REGULAR.c)
    ref = ref[np.ix_(robin.free, robin.free)]
    assert np.count_nonzero(ref) > 0
    delta = (robin.A - base.A).toarray()
    assert np.max(np.abs(delta - ref)) < 1e-14 * abs(robin.A).max()


def test_invalid_degree_rejected():
    mesh = initial_square_triangulation(2)
    with pytest.raises(ValueError):
        assemble_triangles(mesh, UNIT, 3)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("graded", [False, True])
def test_free_dof_count_is_pencil_size(p, graded):
    # the adaptive loop's budget check reads the count before assembling
    mesh = _graded_mesh() if graded else initial_square_triangulation(4)
    assert free_dof_count(mesh, p) == assemble_triangles(mesh, REGULAR, p).n
