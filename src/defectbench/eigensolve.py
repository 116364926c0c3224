"""Shift-invert Krylov eigensolver for complex non-Hermitian pencils.

Arnoldi iteration on T = (A - sigma B)^{-1} B with a deterministic start
vector; Ritz values are mapped back via lambda = sigma + 1/theta.  Every
returned eigenpair is certified by the scaled residual
||A v - lambda B v|| / ((||A||_1 + |lambda| ||B||_1) ||v||); this contract,
not the internal method, is what the callers rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
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
    "select_cluster",
]

DEFAULT_TOL = 1e-9


class SingularShiftError(RuntimeError):
    """sigma is (numerically) an eigenvalue of the pencil."""


class EigsNotConvergedError(RuntimeError):
    def __init__(self, msg, residuals=None):
        super().__init__(msg)
        self.residuals = residuals


@dataclass
class ShiftedFactorization:
    sigma: complex
    lu: object
    n: int

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.lu.solve(np.asarray(rhs, dtype=complex))


def factorize_shifted(pencil: Pencil, sigma: complex) -> ShiftedFactorization:
    """Sparse LU of A - sigma B under SuperLU's COLAMD column ordering.

    A shift on (or next to) an eigenvalue may factorize with a tiny pivot;
    that is not rejected here, since the residual certificate of eigs_near
    is the guard.  Only SuperLU's exact singularity raises.
    """
    M = (pencil.A - sigma * pencil.B).tocsc()
    try:
        lu = spla.splu(M)
    except RuntimeError as exc:
        if "singular" in str(exc).lower():
            raise SingularShiftError(f"A - sigma B is singular at sigma={sigma}")
        raise
    return ShiftedFactorization(sigma=sigma, lu=lu, n=M.shape[0])


@dataclass
class Spectrum:
    values: np.ndarray
    vectors: np.ndarray | None
    residuals: np.ndarray
    sigma: complex


def _one_norm(M) -> float:
    return float(np.max(np.abs(M).sum(axis=0)))


def _b_normalize(vecs: np.ndarray, B) -> np.ndarray:
    """v^H B v = 1 with the largest component rotated to positive real."""
    v = vecs / np.sqrt(np.real(np.sum(vecs.conj() * (B @ vecs), axis=0)))
    top = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return v / (top / np.abs(top))


def _arnoldi(op, v0: np.ndarray, k: int):
    """Arnoldi with classical Gram-Schmidt applied twice (CGS2).

    The basis is stored as rows, so V[:j+1] is contiguous and each
    projection is one matrix-vector product that does not copy the basis.
    Returns the basis as columns.
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
            return V[: j + 1].T, H[: j + 1, : j + 1]
        V[j + 1] = w / beta
    return V[:k].T, H[:k, :k]


def _refine_block(op, vecs: np.ndarray, sigma: complex):
    """Three inverse subspace iterations on the cluster, then a projection.

    Individual Ritz pairs of a (near-)defective cluster do not share a
    single backward perturbation — their vectors are nearly parallel — so
    the cluster mean computed from them loses its first-order stability.
    Refining the orthonormalized cluster subspace and re-extracting the
    values from the small projected operator restores it.
    """
    Z = np.linalg.qr(vecs)[0]
    for _ in range(3):
        Z = np.linalg.qr(op(Z))[0]
    S = Z.conj().T @ op(Z)
    theta, Y = np.linalg.eig(S)
    if np.any(theta == 0):
        return None
    return sigma + 1.0 / theta, Z @ Y


def eigs_near(pencil: Pencil, sigma: complex, m: int) -> Spectrum:
    """The m eigenpairs closest to sigma, residual-certified.

    A shift pathologically close to the spectrum can stall both Arnoldi
    attempts; the solve is then repeated once, deterministically, at the
    shift nudged by 1e-6 (1 + |sigma|).
    """
    n = pencil.n
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= {n}, got {m}")
    A, B = pencil.A, pencil.B
    for retry in (False, True):
        if retry:
            sigma = sigma + 1e-6 * (1.0 + abs(sigma))
        try:
            fact = factorize_shifted(pencil, sigma)
        except SingularShiftError:
            sigma = sigma + 1e-8 * (1.0 + abs(sigma))
            fact = factorize_shifted(pencil, sigma)

        op = lambda v: fact.solve(B @ v)  # a vector or an n x m block
        normA, normB = _one_norm(A), _one_norm(B)

        ones = np.ones(n, dtype=complex)
        v0 = ones / np.sqrt(np.real(ones @ (B @ ones)))

        k = min(n, max(2 * m + 20, 40))
        for attempt in range(2):
            V, H = _arnoldi(op, v0, k)
            theta, S = np.linalg.eig(H)
            nonzero = np.abs(theta) > 1e-14 * np.max(np.abs(theta))
            lam = np.full_like(theta, np.inf)
            lam[nonzero] = sigma + 1.0 / theta[nonzero]
            order = np.argsort(np.abs(lam - sigma), kind="stable")[:m]
            vecs = V @ S[:, order]
            vals = lam[order]
            refined = _refine_block(op, vecs, sigma)
            if refined is not None:
                vals, vecs = refined
                reorder = np.argsort(np.abs(vals - sigma), kind="stable")
                vals, vecs = vals[reorder], vecs[:, reorder]
            # a shift on an eigenvalue can end the Krylov space below m
            # vectors (one huge direction makes the rest look invariant):
            # the missing pairs count as unconverged, so the restart and
            # the nudge follow
            res = np.full(m, np.inf)
            res[: len(vals)] = np.linalg.norm(
                A @ vecs - (B @ vecs) * vals, axis=0
            ) / ((normA + np.abs(vals) * normB) * np.linalg.norm(vecs, axis=0))
            if np.all(res <= DEFAULT_TOL):
                return Spectrum(values=vals, vectors=_b_normalize(vecs, B),
                                residuals=res, sigma=sigma)
            if attempt == 0 and k < n:
                # one deterministic restart: bigger space, restarted start
                # vector
                v0 = vecs.sum(axis=1)
                v0 = v0 / np.linalg.norm(v0)
                k = min(n, 2 * k)
    raise EigsNotConvergedError(
        f"eigensolver residuals above {DEFAULT_TOL:.1e}: max {res.max():.3e}",
        residuals=res,
    )


def mean_of_cluster(values) -> complex:
    """Inverse of the arithmetic mean of the inverse cluster eigenvalues."""
    values = np.asarray(values, dtype=complex)
    if np.any(values == 0):
        raise ValueError("cluster contains a zero eigenvalue")
    return complex(1.0 / np.mean(1.0 / values))


def select_cluster(spectrum: Spectrum, target: complex, m: int):
    """Indices of the m eigenvalues nearest target; ties to the lower index."""
    vals = spectrum.values
    if len(vals) < m:
        raise ValueError(f"spectrum has {len(vals)} < m = {m} entries")
    order = np.argsort(np.abs(vals - target), kind="stable")
    return list(order[:m])
