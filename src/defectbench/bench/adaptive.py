"""Residual a posteriori estimator, Dörfler marking, and the adaptive loop.

The estimator sums, over the cluster pairs (lambda, u_h), element volume
residuals h_T^2 ||div(a grad u_h) + lambda u_h||^2, interior flux jumps
h_E ||[a grad u_h . n]||^2, and Robin boundary residuals
h_E ||a grad u_h . n + c u_h||^2, for the primal and the adjoint pairs.
The assemblies are complex symmetric, so adjoint eigenpairs are conjugates
of primal ones.  With conjugated lambda, u_h and coefficient every adjoint
residual is the exact complex conjugate of the primal one, so the adjoint
half equals the primal half and is taken as a factor 2, not recomputed.

The mesh-only data (DOF layout, geometry, coefficient values and flux
weights at the quadrature points, edge adjacency) is built once per
estimator call; each pair only contracts its element coefficients
against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..eigensolve import eigs_near, select_cluster
from ..fem import Coefficient2D, assemble_triangles
from ..fem.triangles import _EG_W, _EG_X, _QPTS, _QWTS, _basis, _dof_layout
from ..meshing import ROBIN, TriMesh, initial_square_triangulation, nvb_refine
from .cases import BenchmarkCase
from .convergence import (
    LEVEL_ERRORS,
    ConvergenceTable,
    _tri_coefficient,
    cluster_row,
    failed_row,
)

__all__ = [
    "EstimatorField",
    "residual_estimator",
    "dorfler_mark",
    "adaptive_loop",
]

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


@dataclass
class EstimatorField:
    eta_sq: np.ndarray  # per-triangle indicator, >= 0

    @property
    def total(self) -> float:
        return float(np.sum(self.eta_sq))


@dataclass
class _EstimatorMesh:
    """Mesh-only data of the estimator, contracted against each pair.

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
    robin_trace: np.ndarray  # (nr, nq_e, ndl) robin_c times basis trace
    robin_w: np.ndarray  # (nr,) likewise

    @classmethod
    def build(cls, mesh: TriMesh, coeff: Coefficient2D, p: int):
        vals, grads = _basis(p)
        _, tri_dofs = _dof_layout(mesh, p)
        v, t = mesh.vertices, mesh.triangles
        nt = len(t)

        P0, P1, P2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
        J = np.stack([P1 - P0, P2 - P0], axis=-1)
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
        area = 0.5 * np.abs(detJ)
        edge_vecs = np.stack([P1 - P0, P2 - P1, P0 - P2], axis=1)  # (nt, 3, 2)
        edge_len = np.linalg.norm(edge_vecs, axis=2)  # (nt, 3)
        h_T = edge_len.max(axis=1)

        # --- volume residual: lambda u + div(a grad u) at _QPTS -----------
        xq = (
            P0[:, None, :]
            + _QPTS[None, :, 0, None] * (P1 - P0)[:, None, :]
            + _QPTS[None, :, 1, None] * (P2 - P0)[:, None, :]
        )  # (nt, nq, 2)
        lap = None
        if p == 2:
            # physical u_xx and u_yy: row x resp. y of invJT (d/dref -> d/dx)
            # applied on both sides of the reference Hessian
            uxx = np.einsum("tb,kbc,tc->tk", invJT[:, 0], _HESS_P2,
                            invJT[:, 0], optimize=True)
            uyy = np.einsum("tb,kbc,tc->tk", invJT[:, 1], _HESS_P2,
                            invJT[:, 1], optimize=True)
            ax, ay = coeff.axis(xq[..., 0]), coeff.axis(xq[..., 1])
            lap = ax[:, :, None] * uxx[:, None] + ay[:, :, None] * uyy[:, None]
        vol_w = (h_T**2 * area)[:, None] * _QWTS[None, :]

        # --- outward normal flux at the edge Gauss points of every slot ----
        # (orientation follows the vertex order, so outward assumes
        # positively oriented triangles)
        nq_e = len(_EG_X)
        flux = np.empty((nt, 3, nq_e, tri_dofs.shape[1]), dtype=complex)
        traces = []
        for loc, (ia, ib) in enumerate(_LOC_ENDS):
            ref = _LREF[ia][None, :] * (1 - _EG_X)[:, None] + _LREF[ib][
                None, :
            ] * _EG_X[:, None]
            gref = grads(ref)  # (ndl, nq_e, 2)
            xe = (
                v[t[:, ia]][:, None, :] * (1 - _EG_X)[None, :, None]
                + v[t[:, ib]][:, None, :] * _EG_X[None, :, None]
            )  # (nt, nq_e, 2)
            tang = v[t[:, ib]] - v[t[:, ia]]
            ln = edge_len[:, loc]
            nx, ny = tang[:, 1] / ln, -tang[:, 0] / ln  # outward for ccw order
            cx = coeff.axis(xe[:, :, 0]) * nx[:, None]  # (nt, nq_e)
            cy = coeff.axis(xe[:, :, 1]) * ny[:, None]
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

        bnd_ids = np.flatnonzero(counts == 1)
        _, tags = mesh.boundary_edges()  # aligned with uniq[counts == 1]
        robin_s = order[starts[bnd_ids[np.array(tags) == ROBIN]]]
        robin_trace = coeff.robin_c * np.stack(traces)[robin_s % 3]

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


def residual_estimator(mesh: TriMesh, pairs, coeff: Coefficient2D,
                       p: int = 1) -> EstimatorField:
    """Cluster residual estimator; primal plus conjugate-adjoint halves.

    pairs: (eigenvalue, full-DOF coefficient vector) for each cluster member.
    The conjugate-adjoint half (conj(lambda), conj(u), conjugated
    coefficient) has residuals that are the exact complex conjugates of the
    primal ones, so it equals the primal half and enters as a factor 2.
    """
    if not pairs:
        return EstimatorField(eta_sq=np.zeros(mesh.n_triangles))
    md = _EstimatorMesh.build(mesh, coeff, p)
    # the mesh data is built once; the pairs are contracted one at a time,
    # so no array carries a cluster axis over every triangle (GBs on fine
    # adaptive meshes)
    vol, jump, robin = 0.0, 0.0, 0.0
    for lam, u in pairs:
        dv, dj, dr = md.residuals(lam, u)
        vol, jump, robin = vol + dv, jump + dj, robin + dr
    nt = mesh.n_triangles
    eta = (
        vol
        + np.bincount(md.sL // 3, 0.5 * jump, minlength=nt)
        + np.bincount(md.sR // 3, 0.5 * jump, minlength=nt)
        + np.bincount(md.robin_s // 3, robin, minlength=nt)
    )
    return EstimatorField(eta_sq=2.0 * eta)


def dorfler_mark(field: EstimatorField, theta: float):
    """Minimal set (greedy, ties by index) with theta of the total mass."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    eta = field.eta_sq
    total = float(eta.sum())
    if total == 0.0:
        return []
    order = np.argsort(-eta, kind="stable")
    csum = np.cumsum(eta[order])
    k = int(np.searchsorted(csum, theta * total)) + 1
    k = min(k, len(order))
    # never mark zero-indicator triangles (theta = 1 edge case)
    marked = [int(i) for i in order[:k] if eta[i] > 0.0]
    return marked


def adaptive_loop(case: BenchmarkCase, theta: float = 0.5,
                  max_dofs: int = 100_000, p: int = 1,
                  tol: float = 1e-9, n0: int = 4) -> ConvergenceTable:
    """Solve -> estimate -> mark -> refine until the DOF budget is spent."""
    if case.family != "tri":
        raise ValueError("adaptive loop runs on triangular cases")
    coeff = _tri_coefficient(case)
    target, m = case.target, case.m_alg
    table = ConvergenceTable(case_id=case.id, p=p, target=target)

    mesh = initial_square_triangulation(n0)
    level = 0
    while True:
        pencil = assemble_triangles(mesh, coeff, p)
        if pencil.n > max_dofs:
            break
        try:
            spectrum = eigs_near(pencil, target, m, tol=tol)
        except LEVEL_ERRORS as exc:
            table.rows.append(failed_row(level, exc))
            break
        idx = select_cluster(spectrum, target, m)
        values = spectrum.values[idx]
        ndof_full = len(pencil.meta["coords"])
        pairs = []
        for s, j in enumerate(idx):
            full = np.zeros(ndof_full, dtype=complex)
            full[pencil.free] = spectrum.vectors[:, j]
            pairs.append((values[s], full))
        fld = residual_estimator(mesh, pairs, coeff, p)
        table.rows.append(cluster_row(level, pencil, target, values,
                                      eta_total=np.sqrt(fld.total)))
        marked = dorfler_mark(fld, theta)
        if not marked:
            break
        mesh = nvb_refine(mesh, marked)
        level += 1
    table.fit_all()
    return table
