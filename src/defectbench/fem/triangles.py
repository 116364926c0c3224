"""Unstructured P1/P2 discretization on triangulations of the unit square.

The diffusion coefficient is the tensorized diagonal matrix
diag(a(x), a(y)) with a = ModelParams.a (1 up to b, a_R beyond), evaluated
pointwise at the quadrature points of a fixed order-4 symmetric triangle
rule (no sub-triangulation of cut triangles).  Robin edges on {x=1} u {y=1}
add c times an edge mass matrix; DOFs on the Dirichlet part {x=0} u {y=0}
are eliminated.

The basis, quadrature, geometry, DOF layout and Robin edges defined here
serve both the assembly and the residual estimator's EstimatorMesh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..analytic1d import ModelParams
from ..meshing import ROBIN, TriMesh
from .common import Pencil

__all__ = ["EstimatorMesh", "assemble_triangles", "free_dof_count"]

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

# reference vertices; local edges (0,1), (1,2), (2,0)
_LREF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
_LOC_ENDS = ((0, 1), (1, 2), (2, 0))

# reference Hessians of the P2 basis (constant); order matches _basis(2)
_HESS_P2 = np.array(
    [
        [[4.0, 4.0], [4.0, 4.0]],
        [[4.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 4.0]],
        [[-8.0, -4.0], [-4.0, 0.0]],
        [[0.0, 4.0], [4.0, 0.0]],
        [[0.0, -4.0], [-4.0, -8.0]],
    ]
)


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


def _geometry(mesh: TriMesh):
    """Corners, inverse transposed Jacobians, |det J| and edge lengths.

    Returns ((P0, P1, P2), invJT, absdet, edge_len): the corners are
    (nt, 2) each, invJT (nt, 2, 2) maps reference gradients to physical
    ones, absdet (nt,) is twice the area, and edge_len (nt, 3) holds the
    lengths of the local edges (0,1), (1,2), (2,0).
    """
    v, t = mesh.vertices, mesh.triangles
    P0, P1, P2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    J = np.stack([P1 - P0, P2 - P0], axis=-1)  # (nt, 2, 2)
    detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    cof = np.stack([J[:, 1, 1], -J[:, 1, 0], -J[:, 0, 1], J[:, 0, 0]], axis=-1)
    invJT = cof.reshape(-1, 2, 2) / detJ[:, None, None]
    edge_len = np.linalg.norm(np.stack([P1 - P0, P2 - P1, P0 - P2], axis=1),
                              axis=2)
    return (P0, P1, P2), invJT, np.abs(detJ), edge_len


def _volume_point(P, q: int):
    """Physical coordinates (nt, 2) of volume quadrature point q."""
    P0, P1, P2 = P
    return P0 + _QPTS[q, 0] * (P1 - P0) + _QPTS[q, 1] * (P2 - P0)


def _robin_edge_ids(mesh: TriMesh) -> np.ndarray:
    """Ascending ids of the Robin edges among the unique edges of mesh.edges().

    Unique edge i has its P2 midpoint DOF at nv + i.
    """
    _, _, counts = mesh.edges()
    _, tags = mesh.boundary_edges()  # aligned with the ids where counts == 1
    return np.flatnonzero(counts == 1)[np.array(tags) == ROBIN]


def _dof_layout(mesh: TriMesh, p: int):
    """Global DOF coordinates, per-triangle DOF indices and the free DOFs.

    The free DOFs lie off the Dirichlet part {x=0} u {y=0}; the rest are
    eliminated.
    """
    nv = len(mesh.vertices)
    t = mesh.triangles
    if p == 1:
        coords, tri_dofs = mesh.vertices.copy(), t.copy()
    else:
        uniq, tri_edge_ids, _ = mesh.edges()
        mid = 0.5 * (mesh.vertices[uniq[:, 0]] + mesh.vertices[uniq[:, 1]])
        coords = np.vstack([mesh.vertices, mid])
        # local edges (0,1), (1,2), (2,0) follow the local midpoint order
        tri_dofs = np.hstack([t, nv + tri_edge_ids])
    free = np.flatnonzero(np.all(np.abs(coords) > _GEOM_TOL, axis=1))
    return coords, tri_dofs, free


def free_dof_count(mesh: TriMesh, p: int) -> int:
    """Size of the degree-p pencil that assemble_triangles builds on mesh."""
    return len(_dof_layout(mesh, p)[2])


def assemble_triangles(mesh: TriMesh, params: ModelParams, p: int) -> Pencil:
    vals, grads = _basis(p)
    coords, tri_dofs, free = _dof_layout(mesh, p)
    ndof = len(coords)
    ndl = tri_dofs.shape[1]
    v = mesh.vertices
    P, invJT, absdet, edge_len = _geometry(mesh)

    phi = vals(_QPTS)  # (ndl, nq)
    dphi = grads(_QPTS)  # (ndl, nq, 2)
    nt = mesh.n_triangles
    Ae = np.zeros((nt, ndl, ndl), dtype=complex)
    Be = np.zeros((nt, ndl, ndl))
    for q in range(len(_QWTS)):
        gq = np.einsum("tab,kb->tka", invJT, dphi[:, q, :])  # (nt, ndl, 2)
        xq = _volume_point(P, q)
        ax = params.a(xq[:, 0])
        ay = params.a(xq[:, 1])
        wdet = _QWTS[q] * 0.5 * absdet
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
    robin = _robin_edge_ids(mesh)
    ends = mesh.edges()[0][robin]
    x = _EG_X  # edge basis: the two ends, then the P2 midpoint
    if p == 1:
        eval_edge, edge_dofs = np.stack([1 - x, x]), ends
    else:
        eval_edge = np.stack([(1 - x) * (1 - 2 * x), x * (2 * x - 1),
                              4 * x * (1 - x)])
        edge_dofs = np.column_stack([ends, len(v) + robin])
    length = np.linalg.norm(v[ends[:, 1]] - v[ends[:, 0]], axis=1)
    Me = np.einsum("q,iq,jq->ij", _EG_W, eval_edge, eval_edge)
    nde = edge_dofs.shape[1]
    A = A + sp.coo_matrix(
        (
            (params.c * length[:, None, None] * Me).ravel(),
            (np.repeat(edge_dofs, nde, axis=1).ravel(),
             np.tile(edge_dofs, (1, nde)).ravel()),
        ),
        shape=(ndof, ndof),
    ).tocsr()

    A = A[free][:, free].tocsr()
    B = B[free][:, free].tocsr()
    meta = {
        "kind": "tri",
        "p": p,
        "dim": 2,
        "coords": coords,
        "h": float(np.max(edge_len)),  # max triangle diameter
    }
    return Pencil(A=A, B=B, free=free, meta=meta, points=coords[free])


@dataclass
class EstimatorMesh:
    """Pair-independent data of the residual estimator, contracted per pair.

    Slots are the triangle-edge pairs (t, loc), flattened as 3 t + loc,
    with local edges (0,1), (1,2), (2,0) and 3 Gauss points each.
    """

    tri_dofs: np.ndarray  # (nt, ndl)
    phi: np.ndarray  # (ndl, nq) basis values at the volume points
    lap: np.ndarray | None  # (nt, nq, ndl) div(a grad phi_k) for P2
    vol_w: np.ndarray  # (nt, nq) h_T^2 times quadrature weight times area
    flux: np.ndarray  # (nt, 3 nq_e, ndl) outward a grad phi_k . n
    sL: np.ndarray  # (ni,) one slot of each interior edge
    sR: np.ndarray  # (ni,) the other slot, traversed in reverse
    jump_w: np.ndarray  # (ni,) h_E times the edge length of the Gauss rule
    robin_s: np.ndarray  # (nr,) slots of the Robin edges
    robin_trace: np.ndarray  # (nr, nq_e, ndl) c times basis trace
    robin_w: np.ndarray  # (nr,) likewise

    @classmethod
    def build(cls, mesh: TriMesh, params: ModelParams, p: int):
        vals, grads = _basis(p)
        _, tri_dofs, _ = _dof_layout(mesh, p)
        P, invJT, absdet, edge_len = _geometry(mesh)
        nt = mesh.n_triangles
        area = 0.5 * absdet
        h_T = edge_len.max(axis=1)

        # --- volume residual: lambda u + div(a grad u) at _QPTS -----------
        lap = None
        if p == 2:
            # physical u_xx and u_yy: row x resp. y of invJT (d/dref -> d/dx)
            # applied on both sides of the reference Hessian
            uxx = np.einsum("tb,kbc,tc->tk", invJT[:, 0], _HESS_P2,
                            invJT[:, 0], optimize=True)
            uyy = np.einsum("tb,kbc,tc->tk", invJT[:, 1], _HESS_P2,
                            invJT[:, 1], optimize=True)
            xq = np.stack([_volume_point(P, q) for q in range(len(_QWTS))],
                          axis=1)  # (nt, nq, 2)
            ax, ay = params.a(xq[..., 0]), params.a(xq[..., 1])
            lap = ax[:, :, None] * uxx[:, None] + ay[:, :, None] * uyy[:, None]
        vol_w = (h_T**2 * area)[:, None] * _QWTS[None, :]

        # --- outward normal flux at the edge Gauss points of every slot ----
        # (orientation follows the vertex order, so outward assumes
        # positively oriented triangles)
        nq_e = len(_EG_X)
        flux = np.empty((nt, 3, nq_e, tri_dofs.shape[1]), dtype=complex)
        traces = []
        for loc, (ia, ib) in enumerate(_LOC_ENDS):
            ref = (_LREF[ia][None, :] * (1 - _EG_X)[:, None]
                   + _LREF[ib][None, :] * _EG_X[:, None])
            gref = grads(ref)  # (ndl, nq_e, 2)
            xe = (
                P[ia][:, None, :] * (1 - _EG_X)[None, :, None]
                + P[ib][:, None, :] * _EG_X[None, :, None]
            )  # (nt, nq_e, 2)
            tang = P[ib] - P[ia]
            ln = edge_len[:, loc]
            nx, ny = tang[:, 1] / ln, -tang[:, 0] / ln  # outward for ccw order
            cx = params.a(xe[:, :, 0]) * nx[:, None]  # (nt, nq_e)
            cy = params.a(xe[:, :, 1]) * ny[:, None]
            # (a grad phi) . n with grad phi = invJT grad_ref phi, collected
            # on the two reference derivatives
            w0 = cx * invJT[:, 0, 0, None] + cy * invJT[:, 1, 0, None]
            w1 = cx * invJT[:, 0, 1, None] + cy * invJT[:, 1, 1, None]
            flux[:, loc] = (w0[..., None] * gref[:, :, 0].T
                            + w1[..., None] * gref[:, :, 1].T)
            traces.append(vals(ref).T)  # (nq_e, ndl)
        flux = flux.reshape(nt, 3 * nq_e, -1)
        slot_len = edge_len.ravel()

        # --- edge adjacency -------------------------------------------------
        _, tri_edge_ids, counts = mesh.edges()
        order = np.argsort(tri_edge_ids.ravel(), kind="stable")
        starts = np.cumsum(counts) - counts
        interior = np.flatnonzero(counts == 2)
        sL, sR = order[starts[interior]], order[starts[interior] + 1]
        robin_s = order[starts[_robin_edge_ids(mesh)]]
        robin_trace = params.c * np.stack(traces)[robin_s % 3]

        return cls(
            tri_dofs=tri_dofs, phi=vals(_QPTS), lap=lap, vol_w=vol_w,
            flux=flux, sL=sL, sR=sR, jump_w=slot_len[sL] ** 2,
            robin_s=robin_s, robin_trace=robin_trace,
            robin_w=slot_len[robin_s] ** 2,
        )

    def residuals(self, lam: complex, u: np.ndarray):
        """Squared residuals of one pair: per triangle, interior edge, and
        Robin edge, before they are distributed to triangles."""
        ce = u[self.tri_dofs]  # (nt, ndl)
        r = lam * (ce @ self.phi)  # (nt, nq)
        if self.lap is not None:
            r += np.einsum("tk,tqk->tq", ce, self.lap)
        vol = np.sum(self.vol_w * np.abs(r) ** 2, axis=1)

        fl = np.einsum("tk,tjk->tj", ce, self.flux).reshape(-1, len(_EG_X))
        # both sides traverse the shared edge in opposite directions, so the
        # symmetric Gauss points match after reversal
        jump = fl[self.sL] + fl[self.sR, ::-1]
        jump = self.jump_w * (np.abs(jump) ** 2 @ _EG_W)

        rb = fl[self.robin_s] + np.einsum(
            "ek,eqk->eq", ce[self.robin_s // 3], self.robin_trace
        )
        robin = self.robin_w * (np.abs(rb) ** 2 @ _EG_W)
        return vol, jump, robin
