"""H1 distances between discrete functions and analytic spans.

Eigenfunctions are defined up to a complex scalar, so errors are measured
after projecting onto the span of the supplied analytic evaluators: the
reported value is min over complex coefficients of the quadrature H1 norm
of (linear combination - u_h).
"""

from __future__ import annotations

import numpy as np

from .interval import Function1D, _gauss

__all__ = ["h1_error"]


class SingularAlignmentError(RuntimeError):
    """The Gram matrix of the alignment space is numerically singular."""


def _quad_points(func: Function1D):
    """Per-element Gauss points of order 2p+2, split at the coefficient jump."""
    nodes = func.mesh.nodes
    b = func.pencil.meta["params"].b
    gx, gw = _gauss(func.p + 2)  # p+2 points integrate degree 2p+3 >= 2p+2
    cut = np.flatnonzero((nodes[:-1] < b) & (b < nodes[1:]))
    ends = np.insert(nodes, cut + 1, b)
    h = np.diff(ends)[:, None]
    return (ends[:-1, None] + h * gx).ravel(), (h * gw).ravel()


def h1_error(u_h: Function1D, span) -> np.ndarray:
    """Distances d_j = min over gamma of ||sum_{i<=j} gamma_i w_i - u_h||_{H1(0,1)}.

    span maps points x to a (values, derivatives) pair of (k, nx) arrays,
    one row per w_i (an (nx,) pair is k = 1).  Returns d_1..d_k, the
    distances to the nested spans span{w_1..w_j}, from one QR of the
    quadrature-weighted design.
    """
    x, wq = _quad_points(u_h)
    sq = np.sqrt(wq)
    uv, ud = u_h(x)
    rhs = np.concatenate([sq * uv, sq * ud])
    vv, vd = span(x)
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
