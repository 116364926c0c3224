"""1D Lagrange elements (degrees 1-3): pencil assembly and H1 distances.

Every integral over (0, 1) runs on the same quadrature segments, built by
``segments``: one per element, and an element cut by the coefficient jump
at b is split there.  The coefficient is then constant on each segment, so
the stiffness a(x) u' v' is integrated exactly and the approximation space
(not quadrature) is responsible for any reduced rates.  ``segments`` also
owns the DOF layout (element e holds DOFs e*p .. e*p + p) and the basis
evaluation; ``assemble_interval`` integrates the pencil on them and
``h1_error`` the distance of a discrete function to a span of analytic
functions.  The Robin term adds c at the x=1 DOF; the Dirichlet DOF at x=0
is eliminated.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from ..analytic1d import ModelParams
from ..meshing import IntervalMesh
from .common import Pencil, gauss_legendre

__all__ = ["assemble_interval", "h1_error", "lagrange_basis", "segments",
           "Segments", "SingularAlignmentError"]

DEGREES = (1, 2, 3)


class SingularAlignmentError(RuntimeError):
    """The Gram matrix of the alignment space is numerically singular."""


def lagrange_basis(p: int):
    """Lagrange basis on equispaced nodes of [0,1]; returns (vals, ders).

    Both are callables mapping reference points (m,) to arrays (p+1, m).
    """
    nodes = np.linspace(0.0, 1.0, p + 1)
    polys = []
    for i in range(p + 1):
        roots = np.delete(nodes, i)
        coeffs = np.poly(roots) / np.prod(nodes[i] - roots)
        polys.append(np.poly1d(coeffs))
    ders = [poly.deriv() for poly in polys]

    def vals(t):
        return np.array([poly(t) for poly in polys])

    def derivs(t):
        return np.array([d(t) for d in ders])

    return vals, derivs


class Segments(NamedTuple):
    """Quadrature segments of an interval mesh; index s is one segment."""

    dofs: np.ndarray  # (nseg, p+1) full-numbering DOFs of its element
    x: np.ndarray  # (nseg, nq) Gauss points
    w: np.ndarray  # (nseg, nq) Gauss weights
    phi: np.ndarray  # (p+1, nseg, nq) element basis values at x
    dphi: np.ndarray  # (p+1, nseg, nq) their x-derivatives


def segments(mesh: IntervalMesh, b: float, p: int, nq: int) -> Segments:
    """nq-point Gauss segments of the degree-p elements, split at b.

    One segment per element; an element cut by the jump at b keeps [xl, b]
    in its own slot and appends [b, xr] after the last element.
    """
    xs = mesh.nodes
    h = np.diff(xs)
    cut = np.flatnonzero((xs[:-1] < b) & (b < xs[1:]))
    el = np.concatenate([np.arange(mesh.n_elements), cut])
    sl = np.concatenate([xs[:-1], np.full(len(cut), b)])
    sr = np.concatenate([xs[1:], xs[cut + 1]])
    sr[cut] = b
    vals, ders = lagrange_basis(p)
    tq, wq = gauss_legendre(nq)
    x = sl[:, None] + (sr - sl)[:, None] * tq
    tref = (x - xs[el, None]) / h[el, None]
    return Segments(dofs=el[:, None] * p + np.arange(p + 1), x=x,
                    w=(sr - sl)[:, None] * wq, phi=vals(tref),
                    dphi=ders(tref) / h[el, None])


def assemble_interval(mesh: IntervalMesh, params: ModelParams, p: int) -> Pencil:
    """Assemble the pencil (A, B) for degree p Lagrange elements."""
    if p not in DEGREES:
        raise ValueError(f"degree must be 1, 2 or 3, got {p}")
    xs = mesh.nodes
    nnode = mesh.n_elements * p + 1
    ref = np.linspace(0.0, 1.0, p + 1)
    node_x = np.append(xs[:-1, None] + np.diff(xs)[:, None] * ref[None, :p],
                       xs[-1])

    seg = segments(mesh, params.b, p, p + 1)
    aq = params.a(seg.x[:, 0])  # a is constant on a segment
    Ae = np.einsum("s,sq,isq,jsq->sij", aq, seg.w, seg.dphi, seg.dphi)
    Be = np.einsum("sq,isq,jsq->sij", seg.w, seg.phi, seg.phi)

    rows = np.repeat(seg.dofs, p + 1, axis=1).ravel()
    cols = np.tile(seg.dofs, (1, p + 1)).ravel()
    # the Robin term c u(1) v(1) is one more triplet at the x = 1 DOF
    A = sp.coo_matrix(
        (np.append(Ae.ravel(), params.c),
         (np.append(rows, nnode - 1), np.append(cols, nnode - 1))),
        shape=(nnode, nnode),
    ).tocsr()
    B = sp.coo_matrix(
        (Be.ravel().astype(complex), (rows, cols)), shape=(nnode, nnode)
    ).tocsr()

    free = np.arange(1, nnode)  # eliminate the Dirichlet DOF at x = 0
    A = A[1:, 1:]
    B = B[1:, 1:]
    meta = {
        "kind": "interval",
        "p": p,
        "dim": 1,
        "mesh": mesh,
        "params": params,
        "node_x": node_x,
        "h": mesh.h,
    }
    return Pencil(A=A, B=B, free=free, meta=meta)


def h1_error(pencil: Pencil, vec: np.ndarray, span) -> np.ndarray:
    """Distances d_j = min over gamma of ||sum_{i<=j} gamma_i w_i - u_h||_{H1(0,1)}.

    u_h is the discrete function of the free-DOF vector vec on an interval
    pencil.  Eigenfunctions are defined up to a complex scalar, so the
    error is measured after projecting onto a span: span maps points x to a
    (values, derivatives) pair of (k, nx) arrays, one row per w_i (an (nx,)
    pair is k = 1).  Returns d_1..d_k, the distances to the nested spans
    span{w_1..w_j}, from one QR of the quadrature-weighted design.
    """
    if pencil.meta.get("kind") != "interval":
        raise ValueError("h1_error needs an interval pencil")
    p = pencil.meta["p"]
    # p+2 points integrate degree 2p+3 >= 2p+2
    seg = segments(pencil.meta["mesh"], pencil.meta["params"].b, p, p + 2)
    full = np.zeros(len(pencil.meta["node_x"]), dtype=complex)
    full[pencil.free] = vec
    c = full[seg.dofs.T][:, :, None]  # (p+1, nseg, 1)
    sq = np.sqrt(seg.w.ravel())
    rhs = np.concatenate([sq * np.sum(c * f, axis=0).ravel()
                          for f in (seg.phi, seg.dphi)])
    vv, vd = span(seg.x.ravel())
    design = np.hstack([np.atleast_2d(vv) * sq, np.atleast_2d(vd) * sq]).T
    Q, R = np.linalg.qr(design)
    cond = np.linalg.cond(R) ** 2  # cond of the Gram matrix design^H design
    if not np.isfinite(cond) or cond > 1e15:
        raise SingularAlignmentError(
            f"alignment Gram matrix is singular (cond {cond:.3e})"
        )
    # residuals of the prefix solutions R_j gamma = (Q^H rhs)_j are taken
    # against the design itself: Q spans its columns only to eps * cond
    coef = Q.conj().T @ rhs
    return np.array([
        np.linalg.norm(design[:, :j] @ np.linalg.solve(R[:j, :j], coef[:j]) - rhs)
        for j in range(1, len(coef) + 1)
    ])
