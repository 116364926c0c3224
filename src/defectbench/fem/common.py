"""Shared pencil container and the Gauss-Legendre rule on [0, 1]."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = ["Pencil", "gauss_legendre"]


def gauss_legendre(nq: int):
    """Points and weights of the nq-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(nq)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass
class Pencil:
    """Complex sparse matrix pair (A, B) on the free (non-Dirichlet) DOFs.

    Both matrices are complex symmetric (A^T = A, B^T = B); B is real
    positive definite.  meta carries degree/dimension/mesh information the
    drivers and error norms need to reconstruct discrete functions.
    points, when the assembler supplies them, are the coordinates of the
    free DOFs in the unit square or cube; the shifted LU orders by them.
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    free: np.ndarray  # indices of free DOFs in the full node numbering
    meta: dict = field(default_factory=dict)
    points: np.ndarray | None = None  # (n, dim)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def __post_init__(self):
        if self.A.shape != self.B.shape or self.A.shape[0] != self.A.shape[1]:
            raise ValueError("A and B must be square and of equal size")
