"""Interval/tensor assembly: hand-checked matrices, known eigenvalues, norms."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from defectbench.analytic1d import ModelParams, eigenfunction_jet
from defectbench.eigensolve import eigs_near
from defectbench.fem import (
    Pencil,
    assemble_interval,
    assemble_tensor,
    assemble_triangles,
    h1_error,
)
from defectbench.fem.interval import SingularAlignmentError, lagrange_basis, segments
from defectbench.meshing import initial_square_triangulation, uniform_interval_mesh

UNIT = ModelParams(b=0.5, a_R=1.0 + 0j, c=0.0 + 0j)

REGULAR = ModelParams(
    b=0.5,
    a_R=0.1069220800406739 + 0.08937533852238478j,
    c=-0.9634059612381408 + 0.5989684988897067j,
)
REGULAR_LAMBDA = 5.250721274740938 + 6.750931815875402j


def test_hand_assembled_p1_two_elements():
    # two P1 elements, a = 1, c = 0: after eliminating the Dirichlet DOF,
    # A = [[4, -2], [-2, 2]] and B = [[1/3, 1/12], [1/12, 1/6]]
    pencil = assemble_interval(uniform_interval_mesh(2), UNIT, 1)
    A = pencil.A.toarray()
    B = pencil.B.toarray()
    assert np.allclose(A, [[4.0, -2.0], [-2.0, 2.0]], atol=1e-14)
    assert np.allclose(B, [[1 / 3, 1 / 12], [1 / 12, 1 / 6]], atol=1e-14)


def _assemble_interval_loop(mesh, params, p):
    """Element-by-element reference: (A, B, node_x) with the x=0 DOF removed."""
    xs = mesh.nodes
    nel = mesh.n_elements
    nnode = nel * p + 1
    node_x = np.empty(nnode)
    for k in range(nel):
        node_x[k * p : (k + 1) * p + 1] = xs[k] + (xs[k + 1] - xs[k]) * \
            np.linspace(0.0, 1.0, p + 1)
    vals, ders = lagrange_basis(p)
    tq, wq = np.polynomial.legendre.leggauss(p + 1)
    tq, wq = 0.5 * (tq + 1.0), 0.5 * wq
    A = np.zeros((nnode, nnode), dtype=complex)
    B = np.zeros((nnode, nnode))
    for k in range(nel):
        xl, xr = xs[k], xs[k + 1]
        h = xr - xl
        g = k * p + np.arange(p + 1)
        if xl < params.b < xr:
            segs = [(xl, params.b), (params.b, xr)]
        else:
            segs = [(xl, xr)]
        for sl, sr in segs:
            xq = sl + (sr - sl) * tq
            tref = (xq - xl) / h
            phi, dphi = vals(tref), ders(tref) / h
            a = 1.0 if 0.5 * (sl + sr) <= params.b else params.a_R
            wseg = (sr - sl) * wq
            A[np.ix_(g, g)] += a * np.einsum("q,iq,jq->ij", wseg, dphi, dphi)
            B[np.ix_(g, g)] += np.einsum("q,iq,jq->ij", wseg, phi, phi)
    A[-1, -1] += params.c
    return A[1:, 1:], B[1:, 1:], node_x


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("b", [0.5, 1 / 3], ids=["aligned", "cut"])
def test_assembly_matches_element_loop(p, b):
    params = ModelParams(b=b, a_R=REGULAR.a_R, c=REGULAR.c)
    mesh = uniform_interval_mesh(8)
    assert (b in mesh.nodes) == (b == 0.5)
    pencil = assemble_interval(mesh, params, p)
    A, B, node_x = _assemble_interval_loop(mesh, params, p)
    assert sp.issparse(pencil.A) and sp.issparse(pencil.B)
    for got, ref in ((pencil.A, A), (pencil.B, B)):
        assert np.max(np.abs(got.toarray() - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert np.max(np.abs(pencil.meta["node_x"] - node_x)) <= 1e-15


def test_robin_constant_enters_last_diagonal_only():
    c = -0.3 + 0.7j
    base = assemble_interval(uniform_interval_mesh(4), UNIT, 1).A.toarray()
    robin = assemble_interval(
        uniform_interval_mesh(4), ModelParams(0.5, 1.0 + 0j, c), 1
    ).A.toarray()
    delta = robin - base
    assert delta[-1, -1] == pytest.approx(c)
    delta[-1, -1] = 0.0
    assert np.max(np.abs(delta)) == 0.0


def test_dirichlet_neumann_eigenvalue():
    # a = 1, c = 0 gives the mixed problem with eigenvalues ((k+1/2) pi)^2
    pencil = assemble_interval(uniform_interval_mesh(64), UNIT, 2)
    w = np.sort(sla.eigvals(pencil.A.toarray(), pencil.B.toarray()).real)
    exact = (np.pi / 2) ** 2
    assert abs(w[0] - exact) < 1e-8 * exact


def test_matrices_are_complex_symmetric():
    for p in (1, 2, 3):
        pencil = assemble_interval(
            uniform_interval_mesh(8, force_node=0.5), REGULAR, p
        )
        A, B = pencil.A, pencil.B
        assert abs(A - A.T).max() < 1e-13 * abs(A).max()
        assert abs(B - B.T).max() < 1e-14 * abs(B).max()
        # B is real positive definite
        assert np.max(np.abs(pencil.B.toarray().imag)) == 0.0
        assert np.all(sla.eigvalsh(pencil.B.toarray().real) > 0)


def test_invalid_degree_rejected():
    with pytest.raises(ValueError):
        assemble_interval(uniform_interval_mesh(4), UNIT, 4)


def test_tensor_spectrum_is_pairwise_sums():
    p1d = assemble_interval(uniform_interval_mesh(4, force_node=0.5),
                            REGULAR, 1)
    w1 = sla.eig(p1d.A.toarray(), p1d.B.toarray(), right=False)
    p2d = assemble_tensor(p1d, 2)
    w2 = np.sort_complex(sla.eig(p2d.A.toarray(), p2d.B.toarray(),
                                 right=False))
    sums = np.sort_complex((w1[:, None] + w1[None, :]).ravel())
    scale = np.max(np.abs(sums))
    assert np.max(np.abs(w2 - sums)) < 1e-10 * scale


def test_tensor_3d_spectrum_is_triple_sums():
    p1d = assemble_interval(uniform_interval_mesh(2, force_node=0.5),
                            REGULAR, 1)
    w1 = sla.eig(p1d.A.toarray(), p1d.B.toarray(), right=False)
    p3d = assemble_tensor(p1d, 3)
    w3 = np.sort_complex(sla.eig(p3d.A.toarray(), p3d.B.toarray(),
                                 right=False))
    sums = np.sort_complex(
        (w1[:, None, None] + w1[None, :, None] + w1[None, None, :]).ravel()
    )
    scale = np.max(np.abs(sums))
    assert np.max(np.abs(w3 - sums)) < 1e-10 * scale


def test_tensor_size_guard():
    p1d = assemble_interval(uniform_interval_mesh(256), UNIT, 1)
    with pytest.raises(ValueError):
        assemble_tensor(p1d, 3)


def test_segments_reproduce_p1_interpolant():
    mesh = uniform_interval_mesh(8)
    node_x = assemble_interval(mesh, UNIT, 1).meta["node_x"]
    seg = segments(mesh, 1 / 3, 1, 3)  # b = 1/3 splits one element
    coef = node_x[seg.dofs].T[:, :, None]  # nodal values of u(x) = x
    v, d = np.sum(coef * seg.phi, axis=0), np.sum(coef * seg.dphi, axis=0)
    assert np.max(np.abs(v - seg.x)) < 1e-13
    assert np.max(np.abs(d - 1.0)) < 1e-12
    # H1 norm of x on (0,1): sqrt(1/3 + 1)
    norm = np.sqrt(np.sum(seg.w * (np.abs(v) ** 2 + np.abs(d) ** 2)))
    assert norm == pytest.approx(np.sqrt(4 / 3))


def test_h1_error_against_exact_evaluator():
    pencil = assemble_interval(uniform_interval_mesh(8), UNIT, 1)
    vec = pencil.meta["node_x"][pencil.free].astype(complex)

    def linear(x):
        x = np.asarray(x, dtype=float)
        return x.astype(complex), np.ones_like(x, dtype=complex)

    # identical function up to any complex scale: aligned error vanishes
    assert h1_error(pencil, vec, linear)[0] < 1e-12

    def sine(x):
        x = np.asarray(x, dtype=float)
        return np.sin(np.pi * x) + 0j, np.pi * np.cos(np.pi * x) + 0j

    def sine_linear(x):
        (sv, sd), (lv, ld) = sine(x), linear(x)
        return np.stack([sv, lv]), np.stack([sd, ld])

    err_single = h1_error(pencil, vec, sine)[0]
    err_span = h1_error(pencil, vec, sine_linear)[-1]
    assert err_span <= err_single + 1e-14
    assert err_span < 1e-12  # linear member matches exactly


def test_h1_error_needs_an_interval_pencil():
    pencil = assemble_triangles(initial_square_triangulation(2), UNIT, 1)
    with pytest.raises(ValueError, match="interval pencil"):
        h1_error(pencil, np.zeros(pencil.n, dtype=complex), None)


def _segments_loop(mesh, b, p, nq):
    """Reference: per-element segment loop, in element order."""
    vals, ders = lagrange_basis(p)
    gx, gw = np.polynomial.legendre.leggauss(nq)
    gx, gw = 0.5 * (gx + 1.0), 0.5 * gw
    dofs, pts, wts, phi, dphi = [], [], [], [], []
    for k, (xl, xr) in enumerate(zip(mesh.nodes[:-1], mesh.nodes[1:])):
        segs = [(xl, b), (b, xr)] if xl < b < xr else [(xl, xr)]
        for sl, sr in segs:
            x = sl + (sr - sl) * gx
            dofs.append(k * p + np.arange(p + 1))
            pts.append(x)
            wts.append((sr - sl) * gw)
            phi.append(vals((x - xl) / (xr - xl)))
            dphi.append(ders((x - xl) / (xr - xl)) / (xr - xl))
    return (np.array(dofs), np.array(pts), np.array(wts),
            np.stack(phi, axis=1), np.stack(dphi, axis=1))


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("b", [0.5, 1 / 3], ids=["aligned", "cut"])
def test_quad_points_match_element_loop(p, b):
    mesh = uniform_interval_mesh(8)
    seg = segments(mesh, b, p, p + 2)
    assert seg.x.shape == (8 + (b != 0.5), p + 2)
    order = np.argsort(seg.x[:, 0])  # the loop keeps a cut element's halves together
    got = (seg.dofs[order], seg.x[order], seg.w[order], seg.phi[:, order],
           seg.dphi[:, order])
    for g, ref in zip(got, _segments_loop(mesh, b, p, p + 2)):
        assert np.array_equal(g, ref)


def _evaluate(pencil, vec, x):
    """Reference values and slopes of u_h at points x, element by search."""
    p, xs = pencil.meta["p"], pencil.meta["mesh"].nodes
    full = np.zeros(len(pencil.meta["node_x"]), dtype=complex)
    full[pencil.free] = vec
    k = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    h = xs[k + 1] - xs[k]
    vals, ders = lagrange_basis(p)
    t = (x - xs[k]) / h
    c = full[k[None, :] * p + np.arange(p + 1)[:, None]]
    return np.sum(c * vals(t), axis=0), np.sum(c * ders(t) / h, axis=0)


def _h1_error_lstsq(pencil, vec, evaluators):
    """Reference: the earlier lstsq distance to span{evaluators}."""
    mesh, b, p = pencil.meta["mesh"], pencil.meta["params"].b, pencil.meta["p"]
    _, x, wq, _, _ = _segments_loop(mesh, b, p, p + 2)
    x, wq = x.ravel(), wq.ravel()
    sq = np.sqrt(wq)
    uv, ud = _evaluate(pencil, vec, x)
    rhs = np.concatenate([sq * uv, sq * ud])
    cols = []
    for wi in evaluators:
        vv, vd = wi(x)
        cols.append(np.concatenate([sq * vv, sq * vd]))
    design = np.column_stack(cols)
    gamma, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    return float(np.linalg.norm(design @ gamma - rhs))


@pytest.mark.parametrize("p,n_el", [(1, 16), (1, 256), (1, 1024), (2, 16), (2, 512)])
def test_nested_h1_distances_match_prefix_lstsq(p, n_el):
    # one QR gives the distances to span{w_1..w_j} for every j; each must
    # equal a separate least-squares solve on that prefix
    pencil = assemble_interval(uniform_interval_mesh(n_el, force_node=0.5),
                               REGULAR, p)
    spec = eigs_near(pencil, REGULAR_LAMBDA, 3)
    jet = eigenfunction_jet(REGULAR, REGULAR_LAMBDA, 3)
    members = [
        lambda x, j=j: tuple(a[j] for a in jet.value_matrix(x)) for j in range(3)
    ]
    for i in range(3):
        vec = spec.vectors[:, i]
        dist = h1_error(pencil, vec, jet.value_matrix)
        ref = [_h1_error_lstsq(pencil, vec, members[: j + 1]) for j in range(3)]
        assert np.all(np.abs(dist - ref) <= 1e-12 * np.array(ref))
        assert np.all(np.diff(dist) <= 1e-14)


def test_repeated_span_member_raises_singular_alignment():
    pencil = assemble_interval(uniform_interval_mesh(16, force_node=0.5),
                               REGULAR, 1)
    spec = eigs_near(pencil, REGULAR_LAMBDA, 3)
    vec = spec.vectors[:, 0]
    jet = eigenfunction_jet(REGULAR, REGULAR_LAMBDA, 3)

    def repeated(x, eps=0.0):
        # w_1 again, perturbed by eps times the linear function x
        vals, ders = jet.value_matrix(x)
        return (np.vstack([vals, vals[:1] + eps * x]),
                np.vstack([ders, ders[:1] + eps]))

    with pytest.raises(SingularAlignmentError):
        h1_error(pencil, vec, repeated)
    # the bound is on cond(Gram) = cond(R)^2: at eps = 1e-8 cond(R) is
    # about 1e9, far below 1e15, but its square is above
    with pytest.raises(SingularAlignmentError):
        h1_error(pencil, vec, lambda x: repeated(x, 1e-8))


def test_pencil_shape_validation():
    import scipy.sparse as sp

    with pytest.raises(ValueError):
        Pencil(A=sp.eye(3, format="csr", dtype=complex),
               B=sp.eye(4, format="csr", dtype=complex),
               free=np.arange(3))
