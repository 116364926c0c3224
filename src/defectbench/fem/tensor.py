"""Kronecker-sum pencils on tensor grids in 2 and 3 dimensions."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .common import Pencil

__all__ = ["assemble_tensor"]

SIZE_LIMIT = 5_000_000


def assemble_tensor(p1d: Pencil, dim: int) -> Pencil:
    """Tensorize a 1D pencil: A2 = A(x)B + B(x)A, B2 = B(x)B, etc.

    The spectrum is exactly all dim-wise sums of the 1D pencil spectrum.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    n = p1d.n
    if n**dim > SIZE_LIMIT:
        raise ValueError(f"tensor pencil would have {n**dim} unknowns")
    A, B = p1d.A.tocsr(), p1d.B.tocsr()
    if dim == 2:
        A2 = sp.kron(A, B) + sp.kron(B, A)
        B2 = sp.kron(B, B)
    else:
        A2 = (
            sp.kron(sp.kron(A, B), B)
            + sp.kron(sp.kron(B, A), B)
            + sp.kron(sp.kron(B, B), A)
        )
        B2 = sp.kron(sp.kron(B, B), B)
    meta = dict(p1d.meta)
    meta.update(kind="tensor", dim=dim, base=p1d)
    # unknown (i, j[, k]) sits at index (i n + j) n + k, as sp.kron numbers it
    x = p1d.meta["node_x"][p1d.free]
    grid = np.meshgrid(*[x] * dim, indexing="ij")
    return Pencil(A=A2.tocsr(), B=B2.tocsr(), free=np.arange(A2.shape[0]),
                  meta=meta, points=np.column_stack([g.ravel() for g in grid]))
