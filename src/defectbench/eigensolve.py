"""Shift-invert Krylov eigensolver for complex non-Hermitian pencils.

Arnoldi iteration on T = (A - sigma B)^{-1} B from a fixed-seed complex
start vector, stopped once the wanted Schur block is invariant; Ritz
values are mapped back via lambda = sigma + 1/theta.  Every returned
eigenpair is certified by the scaled residual
||A v - lambda B v|| / ((||A||_1 + |lambda| ||B||_1) ||v||); this contract,
not the internal method, is what the callers rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .fem import Pencil

__all__ = [
    "ShiftedFactorization",
    "Spectrum",
    "SingularShiftError",
    "EigsNotConvergedError",
    "factorize_shifted",
    "eigs_near",
    "mean_of_cluster",
    "one_norm",
]

DEFAULT_TOL = 1e-9
# relative residual of the wanted Schur block at which Arnoldi stops
INVARIANCE_TOL = 1e-12


class SingularShiftError(RuntimeError):
    """sigma is (numerically) an eigenvalue of the pencil."""


class EigsNotConvergedError(RuntimeError):
    """Some eigenpair stays above DEFAULT_TOL at both shifts."""


@dataclass
class ShiftedFactorization:
    lu: object
    perm: np.ndarray | None = None  # unknown factorized at each position

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=complex)
        if self.perm is None:
            return self.lu.solve(rhs)
        x = np.empty_like(rhs)
        x[self.perm] = self.lu.solve(rhs[self.perm])  # a vector or n x m
        return x


def _highest_bit(x: np.ndarray) -> np.ndarray:
    """floor(log2 x) of uint64 integers by exact shifts (-1 where x = 0);
    a float log2 would round 2^k - 1 up to 2^k for k > 53."""
    x = x.astype(np.uint64)
    out = np.where(x > 0, 0, -1)
    for s in (32, 16, 8, 4, 2, 1):
        high = x >> np.uint64(s)
        hit = high > 0
        out[hit] += s
        x[hit] = high[hit]
    return out


def _morton(points: np.ndarray) -> np.ndarray:
    """Morton code of each point's dyadic box in the unit square or cube,
    63 // dim bits per axis (uint64); the top bit cuts the first axis."""
    dim = points.shape[1]
    bits = 63 // dim
    box = np.minimum(np.clip(points, 0.0, 1.0) * 2.0**bits,
                     2.0**bits - 1).astype(np.uint64)
    code = np.zeros(len(points), dtype=np.uint64)
    for b in range(bits - 1, -1, -1):
        for d in range(dim):
            code = (code << np.uint64(1)) | ((box[:, d] >> np.uint64(b))
                                              & np.uint64(1))
    return code


def _nested_dissection(M, points: np.ndarray) -> np.ndarray:
    """Geometric nested-dissection order of M's unknowns (George 1973).

    Cut c of a dyadic box halves it at Morton bit c.  An unknown becomes a
    separator of the first (highest) cut crossed by an entry of M that
    joins it to a neighbour on the upper side; once the separators are
    removed no entry crosses a cut.  Post-order: each box's lower half,
    upper half, then its separator, whose sort key is its code with bits
    c..0 set (the last code of the box), ties going to the deeper cut.
    """
    code = _morton(points)
    C = M.tocoo()
    up = code[C.col] > code[C.row]
    row = C.row[up]
    cut = np.full(len(code), -1)
    np.maximum.at(cut, row, _highest_bit(code[row] ^ code[C.col[up]]))
    sep = cut >= 0
    key = code.copy()
    key[sep] |= (np.uint64(2) << cut[sep].astype(np.uint64)) - np.uint64(1)
    return np.lexsort((cut, key))


def factorize_shifted(pencil: Pencil, sigma: complex) -> ShiftedFactorization:
    """Sparse LU of A - sigma B.

    A pencil that carries its unknowns' points is factorized in their
    geometric nested-dissection order under SuperLU's natural column
    order.  One without points (an interval pencil, already banded as
    assembled) is factorized as assembled, under SuperLU's COLAMD.
    A shift on (or next to) an eigenvalue may factorize with a tiny pivot;
    that is not rejected here, since the residual certificate of eigs_near
    is the guard.  Only SuperLU's exact singularity raises.
    """
    M = pencil.A - sigma * pencil.B
    perm, spec = None, "COLAMD"
    if pencil.points is not None:
        perm, spec = _nested_dissection(M, pencil.points), "NATURAL"
        M = M[perm][:, perm]
    try:
        lu = spla.splu(M.tocsc(), permc_spec=spec)
    except RuntimeError as exc:
        if "singular" in str(exc).lower():
            raise SingularShiftError(f"A - sigma B is singular at sigma={sigma}")
        raise
    return ShiftedFactorization(lu=lu, perm=perm)


@dataclass
class Spectrum:
    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    sigma: complex
    krylov_dim: int  # Arnoldi steps of the accepted solve


def one_norm(M) -> float:
    return float(np.max(np.abs(M).sum(axis=0)))


def _b_normalize(vecs: np.ndarray, B) -> np.ndarray:
    """v^H B v = 1 with the largest component rotated to positive real."""
    v = vecs / np.sqrt(np.real(np.sum(vecs.conj() * (B @ vecs), axis=0)))
    top = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return v / (top / np.abs(top))


def _arnoldi(op, v0: np.ndarray, k: int, m: int):
    """Arnoldi with classical Gram-Schmidt applied twice (CGS2).

    The basis is stored as rows, so V[:j+1] is contiguous and each
    projection is one matrix-vector product that does not copy the basis.
    At j = 2m, 3m, ... below k, the iteration stops once the Schur basis Z
    of the m Ritz values of largest |theta| spans an invariant block:
    |h_{j+1,j}| ||e_j^T Z|| <= INVARIANCE_TOL |theta_m| (the Krylov-Schur
    locking test).  Returns the basis V as columns, H and the residual f
    of the Arnoldi relation op(V) = V H + f e_j^T.
    """
    V = np.empty((k + 1, len(v0)), dtype=complex)
    H = np.zeros((k + 1, k), dtype=complex)
    V[0] = v0 / np.linalg.norm(v0)
    for j in range(k):
        w = op(V[j])
        for _ in range(2):  # "twice is enough"
            h = (V[: j + 1] @ w.conj()).conj()
            H[: j + 1, j] += h
            w -= h @ V[: j + 1]
        beta = np.linalg.norm(w)
        H[j + 1, j] = beta
        if beta < 1e-14 * max(1.0, np.abs(H).max()):
            return V[: j + 1].T, H[: j + 1, : j + 1], w
        V[j + 1] = w / beta
        if (j + 1) % m == 0 and 2 * m <= j + 1 < k:
            Hj = H[: j + 1, : j + 1]
            size = np.sort(np.abs(np.linalg.eigvals(Hj)))[::-1]
            cut = 0.5 * (size[m - 1] + size[m])
            _, Z, sdim = sla.schur(Hj, output="complex",
                                   sort=lambda x: abs(x) > cut)
            if sdim == m and (beta * np.linalg.norm(Z[j, :m])
                              <= INVARIANCE_TOL * size[m - 1]):
                return V[: j + 1].T, Hj, w
    return V[:k].T, H[:k, :k], w


def _refine_block(op, V, H, f, Y, sigma: complex):
    """Three inverse subspace iterations on the cluster V Y, then a
    projection.

    Individual Ritz pairs of a (near-)defective cluster do not share a
    single backward perturbation — their vectors are nearly parallel — so
    the cluster mean computed from them loses its first-order stability.
    Refining the orthonormalized cluster subspace and re-extracting the
    values from the small projected operator restores it.  The first
    iteration needs no solve: op(V Y) = V (H Y) + f (e_j^T Y).
    """
    Z = np.linalg.qr(V @ (H @ Y) + np.outer(f, Y[-1]))[0]
    for _ in range(2):
        Z = np.linalg.qr(op(Z))[0]
    S = Z.conj().T @ op(Z)
    theta, Y = np.linalg.eig(S)
    return sigma + 1.0 / theta, Z @ Y


def eigs_near(pencil: Pencil, sigma: complex, m: int) -> Spectrum:
    """The m eigenpairs closest to sigma, residual-certified.

    A shift on or next to an eigenvalue can make the LU singular or leave
    the cluster uncertified; moving the shift cures that, a larger Krylov
    space does not.  So a failed solve at sigma is repeated once at
    sigma + 1e-6 (1 + |sigma|), from the same start vector and Krylov cap,
    where a singular LU raises.  Spectrum.sigma is the shift used.
    """
    n = pencil.n
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= {n}, got {m}")
    A, B = pencil.A, pencil.B
    normA, normB = one_norm(A), one_norm(B)
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    k = min(n, max(2 * m + 20, 40))
    for shift in (sigma, sigma + 1e-6 * (1.0 + abs(sigma))):
        try:
            fact = factorize_shifted(pencil, shift)
        except SingularShiftError:
            if shift != sigma:
                raise
            continue
        op = lambda v: fact.solve(B @ v)  # a vector or an n x m block
        V, H, f = _arnoldi(op, v0, k, m)
        theta, S = np.linalg.eig(H)
        nonzero = np.abs(theta) > 1e-14 * np.max(np.abs(theta))
        lam = np.full_like(theta, np.inf)
        lam[nonzero] = shift + 1.0 / theta[nonzero]
        order = np.argsort(np.abs(lam - shift), kind="stable")[:m]
        vals, vecs = _refine_block(op, V, H, f, S[:, order], shift)
        reorder = np.argsort(np.abs(vals - shift), kind="stable")
        vals, vecs = vals[reorder], vecs[:, reorder]
        # a shift on an eigenvalue can end the Krylov space below m
        # vectors (one huge direction makes the rest look invariant): the
        # missing pairs count as unconverged, so the nudge follows
        res = np.full(m, np.inf)
        res[: len(vals)] = np.linalg.norm(
            A @ vecs - (B @ vecs) * vals, axis=0
        ) / ((normA + np.abs(vals) * normB) * np.linalg.norm(vecs, axis=0))
        if np.all(res <= DEFAULT_TOL):
            return Spectrum(values=vals, vectors=_b_normalize(vecs, B),
                            residuals=res, sigma=shift,
                            krylov_dim=V.shape[1])
    raise EigsNotConvergedError(
        f"eigensolver residuals above {DEFAULT_TOL:.1e}: max {res.max():.3e}"
    )


def mean_of_cluster(values) -> complex:
    """Inverse of the arithmetic mean of the inverse cluster eigenvalues."""
    values = np.asarray(values, dtype=complex)
    if np.any(values == 0):
        raise ValueError("cluster contains a zero eigenvalue")
    return complex(1.0 / np.mean(1.0 / values))
