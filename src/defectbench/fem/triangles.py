"""Unstructured P1/P2 assembly on triangulations of the unit square.

The diffusion coefficient is the tensorized diagonal matrix
diag(a(x), a(y)) with a(t) = 1 for t <= b and a_R for t > b, evaluated
pointwise at the quadrature points of a fixed order-4 symmetric triangle
rule (no sub-triangulation of cut triangles).  Robin edges on {x=1} u {y=1}
add c times an edge mass matrix; DOFs on the Dirichlet part {x=0} u {y=0}
are eliminated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..meshing import ROBIN, TriMesh
from .common import Pencil

__all__ = ["Coefficient2D", "assemble_triangles"]

_GEOM_TOL = 1e-12
DEGREES = (1, 2)

# Dunavant degree-4 rule: 6 points, weights sum to 1 on the reference triangle
_QA1, _QW1 = 0.445948490915965, 0.223381589678011
_QA2, _QW2 = 0.091576213509771, 0.109951743655322
_QPTS = np.array(
    [
        [_QA1, _QA1],
        [1 - 2 * _QA1, _QA1],
        [_QA1, 1 - 2 * _QA1],
        [_QA2, _QA2],
        [1 - 2 * _QA2, _QA2],
        [_QA2, 1 - 2 * _QA2],
    ]
)
_QWTS = np.array([_QW1, _QW1, _QW1, _QW2, _QW2, _QW2])

# 3-point Gauss on [0,1] for the Robin edge mass
_EG_X, _EG_W = np.polynomial.legendre.leggauss(3)
_EG_X, _EG_W = 0.5 * (_EG_X + 1.0), 0.5 * _EG_W


@dataclass(frozen=True)
class Coefficient2D:
    """Tensorized coefficient: diag(a(x), a(y)) plus the Robin constant."""

    b: float
    a_R: complex
    robin_c: complex

    def axis(self, t):
        return np.where(np.asarray(t) <= self.b, 1.0 + 0.0j, self.a_R)


def _basis(p: int):
    """Reference shape functions and gradients at barycentric (xi, eta)."""
    if p == 1:

        def vals(x):
            xi, eta = x[:, 0], x[:, 1]
            return np.stack([1 - xi - eta, xi, eta], axis=0)

        def grads(x):
            m = len(x)
            g = np.empty((3, m, 2))
            g[0] = [-1.0, -1.0]
            g[1] = [1.0, 0.0]
            g[2] = [0.0, 1.0]
            return g

        return vals, grads
    if p == 2:

        def vals(x):
            xi, eta = x[:, 0], x[:, 1]
            l0 = 1 - xi - eta
            return np.stack(
                [
                    l0 * (2 * l0 - 1),
                    xi * (2 * xi - 1),
                    eta * (2 * eta - 1),
                    4 * l0 * xi,
                    4 * xi * eta,
                    4 * eta * l0,
                ],
                axis=0,
            )

        def grads(x):
            xi, eta = x[:, 0], x[:, 1]
            l0 = 1 - xi - eta
            z = np.zeros_like(xi)
            d = np.empty((6, len(xi), 2))
            d[0] = np.stack([1 - 4 * l0, 1 - 4 * l0], axis=-1)
            d[1] = np.stack([4 * xi - 1, z], axis=-1)
            d[2] = np.stack([z, 4 * eta - 1], axis=-1)
            d[3] = np.stack([4 * (l0 - xi), -4 * xi], axis=-1)
            d[4] = np.stack([4 * eta, 4 * xi], axis=-1)
            d[5] = np.stack([-4 * eta, 4 * (l0 - eta)], axis=-1)
            return d

        return vals, grads
    raise ValueError(f"degree must be 1 or 2, got {p}")


def _dof_layout(mesh: TriMesh, p: int):
    """Global DOF coordinates and per-triangle DOF indices."""
    nv = len(mesh.vertices)
    t = mesh.triangles
    if p == 1:
        return mesh.vertices.copy(), t.copy()
    uniq, tri_edge_ids, _ = mesh.edges()
    mid = 0.5 * (mesh.vertices[uniq[:, 0]] + mesh.vertices[uniq[:, 1]])
    coords = np.vstack([mesh.vertices, mid])
    # local edges (0,1), (1,2), (2,0) follow the local midpoint order
    tri_dofs = np.hstack([t, nv + tri_edge_ids])
    return coords, tri_dofs


def _free_dofs(coords: np.ndarray) -> np.ndarray:
    """DOFs off the Dirichlet part {x=0} u {y=0}; the rest are eliminated."""
    return np.flatnonzero(np.all(np.abs(coords) > _GEOM_TOL, axis=1))


def assemble_triangles(mesh: TriMesh, coeff: Coefficient2D, p: int) -> Pencil:
    if p not in DEGREES:
        raise ValueError(f"degree must be 1 or 2, got {p}")
    vals, grads = _basis(p)
    coords, tri_dofs = _dof_layout(mesh, p)
    ndof = len(coords)
    ndl = tri_dofs.shape[1]
    v = mesh.vertices
    t = mesh.triangles

    P0, P1, P2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    J = np.stack([P1 - P0, P2 - P0], axis=-1)  # (nt, 2, 2)
    detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    invJT = (
        np.stack(
            [
                np.stack([J[:, 1, 1], -J[:, 1, 0]], axis=-1),
                np.stack([-J[:, 0, 1], J[:, 0, 0]], axis=-1),
            ],
            axis=1,
        )
        / detJ[:, None, None]
    )

    phi = vals(_QPTS)  # (ndl, nq)
    dphi = grads(_QPTS)  # (ndl, nq, 2)
    nt = len(t)
    Ae = np.zeros((nt, ndl, ndl), dtype=complex)
    Be = np.zeros((nt, ndl, ndl))
    for q in range(len(_QWTS)):
        gq = np.einsum("tab,kb->tka", invJT, dphi[:, q, :])  # (nt, ndl, 2)
        xq = P0 + _QPTS[q, 0] * (P1 - P0) + _QPTS[q, 1] * (P2 - P0)
        ax = coeff.axis(xq[:, 0])
        ay = coeff.axis(xq[:, 1])
        wdet = _QWTS[q] * 0.5 * np.abs(detJ)
        Ae += (wdet * ax)[:, None, None] * np.einsum(
            "tk,tl->tkl", gq[:, :, 0], gq[:, :, 0]
        )
        Ae += (wdet * ay)[:, None, None] * np.einsum(
            "tk,tl->tkl", gq[:, :, 1], gq[:, :, 1]
        )
        Be += wdet[:, None, None] * np.outer(phi[:, q], phi[:, q])[None, :, :]

    rows = np.repeat(tri_dofs, ndl, axis=1).ravel()
    cols = np.tile(tri_dofs, (1, ndl)).ravel()
    A = sp.coo_matrix((Ae.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()
    B = sp.coo_matrix(
        (Be.ravel().astype(complex), (rows, cols)), shape=(ndof, ndof)
    ).tocsr()

    # Robin boundary mass, all Robin edges in one COO
    bnd, tags = mesh.boundary_edges()
    robin = np.array(tags) == ROBIN
    ends = bnd[robin]
    if p == 1:
        eval_edge = np.stack([1 - _EG_X, _EG_X], axis=0)  # (2, 3)
        edge_dofs = ends
    else:
        eval_edge = np.stack(
            [
                (1 - _EG_X) * (1 - 2 * _EG_X),
                _EG_X * (2 * _EG_X - 1),
                4 * _EG_X * (1 - _EG_X),
            ],
            axis=0,
        )
        # boundary_edges keeps the order of uniq[counts == 1], and unique
        # edge i has its midpoint DOF at nv + i
        _, _, counts = mesh.edges()
        mid = len(v) + np.flatnonzero(counts == 1)[robin]
        edge_dofs = np.column_stack([ends, mid])
    length = np.linalg.norm(v[ends[:, 1]] - v[ends[:, 0]], axis=1)
    Me = np.einsum("q,iq,jq->ij", _EG_W, eval_edge, eval_edge)
    nde = edge_dofs.shape[1]
    A = A + sp.coo_matrix(
        (
            (coeff.robin_c * length[:, None, None] * Me).ravel(),
            (np.repeat(edge_dofs, nde, axis=1).ravel(),
             np.tile(edge_dofs, (1, nde)).ravel()),
        ),
        shape=(ndof, ndof),
    ).tocsr()

    free = _free_dofs(coords)
    A = A[free][:, free].tocsr()
    B = B[free][:, free].tocsr()
    # h: max triangle diameter = max edge length
    e01 = np.linalg.norm(v[t[:, 1]] - v[t[:, 0]], axis=1)
    e12 = np.linalg.norm(v[t[:, 2]] - v[t[:, 1]], axis=1)
    e20 = np.linalg.norm(v[t[:, 0]] - v[t[:, 2]], axis=1)
    meta = {
        "kind": "tri",
        "p": p,
        "dim": 2,
        "coords": coords,
        "h": float(np.max(np.stack([e01, e12, e20]))),
    }
    return Pencil(A=A, B=B, free=free, meta=meta)
