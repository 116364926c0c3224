"""1D Lagrange assembly (degrees 1-3) for the transmission pencil.

Stiffness integrates a(x) u' v' exactly: elements cut by the coefficient
jump at b are integrated by splitting the element integral at b, so the
approximation space (not quadrature) is responsible for any reduced rates.
The Robin term adds c at the x=1 DOF; the Dirichlet DOF at x=0 is
eliminated.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..analytic1d import ModelParams
from ..meshing import IntervalMesh
from .common import Pencil

__all__ = ["assemble_interval", "Function1D", "lagrange_basis"]

DEGREES = (1, 2, 3)


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


def _gauss(nq: int):
    x, w = np.polynomial.legendre.leggauss(nq)
    return 0.5 * (x + 1.0), 0.5 * w  # on [0,1]


def _coeff_a(params: ModelParams, x):
    return np.where(np.asarray(x) <= params.b, 1.0 + 0.0j, params.a_R)


def assemble_interval(mesh: IntervalMesh, params: ModelParams, p: int) -> Pencil:
    """Assemble the pencil (A, B) for degree p Lagrange elements."""
    if p not in DEGREES:
        raise ValueError(f"degree must be 1, 2 or 3, got {p}")
    xs = mesh.nodes
    nel = mesh.n_elements
    nnode = nel * p + 1
    h = np.diff(xs)
    ref = np.linspace(0.0, 1.0, p + 1)
    node_x = np.append(xs[:-1, None] + h[:, None] * ref[None, :p], xs[-1])

    # quadrature segments: one per element; an element cut by the jump at b
    # keeps [xl, b] in its own slot and appends [b, xr]
    cut = np.flatnonzero((xs[:-1] < params.b) & (params.b < xs[1:]))
    el = np.concatenate([np.arange(nel), cut])
    sl = np.concatenate([xs[:-1], np.full(len(cut), params.b)])
    sr = np.concatenate([xs[1:], xs[cut + 1]])
    sr[cut] = params.b

    vals, ders = lagrange_basis(p)
    tq, wq = _gauss(p + 1)
    xq = sl[:, None] + (sr - sl)[:, None] * tq  # (nseg, nq)
    tref = (xq - xs[el, None]) / h[el, None]
    phi = vals(tref)  # (p+1, nseg, nq)
    dphi = ders(tref) / h[el, None]
    wseg = (sr - sl)[:, None] * wq
    aq = _coeff_a(params, 0.5 * (sl + sr))
    Ae = np.einsum("s,sq,isq,jsq->sij", aq, wseg, dphi, dphi)
    Be = np.einsum("sq,isq,jsq->sij", wseg, phi, phi)

    gdofs = el[:, None] * p + np.arange(p + 1)
    rows = np.repeat(gdofs, p + 1, axis=1).ravel()
    cols = np.tile(gdofs, (1, p + 1)).ravel()
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


class Function1D:
    """Discrete FEM function from a pencil and a free-DOF vector."""

    def __init__(self, pencil: Pencil, vec: np.ndarray):
        if pencil.meta.get("kind") != "interval":
            raise ValueError("Function1D needs an interval pencil")
        self.pencil = pencil
        self.p = pencil.meta["p"]
        self.mesh = pencil.meta["mesh"]
        self.node_x = pencil.meta["node_x"]
        full = np.zeros(len(self.node_x), dtype=complex)
        full[pencil.free] = vec
        self.coeffs = full
        self._vals, self._ders = lagrange_basis(self.p)

    def __call__(self, x):
        """Values and first derivatives at points x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xs = self.mesh.nodes
        k = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
        xl, xr = xs[k], xs[k + 1]
        h = xr - xl
        tref = (x - xl) / h
        phi = self._vals(tref)  # (p+1, m)
        dphi = self._ders(tref) / h
        p = self.p
        gdofs = k[None, :] * p + np.arange(p + 1)[:, None]
        c = self.coeffs[gdofs]
        return np.sum(c * phi, axis=0), np.sum(c * dphi, axis=0)
