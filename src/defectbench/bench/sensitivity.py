"""Perturbation studies: how the defective cluster reacts to c -> c + delta.

A real perturbation delta of the Robin constant splits the defective
triple into simple eigenvalues.  Errors are measured two ways: per
eigenvalue against high-order reference values lambda_j(delta), and the
cluster mean against the unperturbed defective eigenvalue (which it no
longer approximates once the split dominates).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import permutations

import numpy as np

from ..analytic1d import ModelParams
from ..eigensolve import eigs_near, mean_of_cluster, select_cluster
from .cases import BenchmarkCase
from .convergence import (
    LEVEL_ERRORS,
    ConvergenceTable,
    build_pencil_1d,
    check_levels,
    cluster_row,
    failed_row,
    level_elements,
    solver_floor,
)

__all__ = [
    "SensitivityReport",
    "sensitivity_study",
    "compute_reference_cluster",
    "PairingAmbiguityError",
]

REFERENCE_EXPONENTS = (10, 11, 12)  # P3 meshes with n = 2^k elements
REFERENCE_DEGREE = 3


class PairingAmbiguityError(RuntimeError):
    """Nearest-match pairing across meshes is ambiguous and consequential."""


def _perturbed_params(case: BenchmarkCase, delta: float) -> ModelParams:
    par = case.config.params
    return replace(par, c=par.c + delta)


def _pair_to(reference: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Reorder values so values[j] is the match of reference[j].

    Uses the optimal assignment, the minimum total distance over all
    matchings (clusters are small: m = 3 in 1D); flags ambiguity only when
    a competing match is both close (distance ratio < 2) and would change
    the paired value by more than 1e-8 relative.
    """
    dist = np.abs(reference[:, None] - values[None, :])
    rows = np.arange(len(reference))
    order = np.array(min(permutations(range(len(values)), len(reference)),
                         key=lambda cols: dist[rows, cols].sum()))
    for j in range(len(reference)):
        d = dist[j]
        chosen = d[order[j]]
        rival_idx = [k for k in range(len(values)) if k != order[j]]
        rival = min(d[rival_idx])
        if rival < 2.0 * chosen:
            spread = abs(values[order[j]] - values[int(np.argmin(d))])
            if spread > 1e-8 * max(1.0, abs(reference[j])):
                raise PairingAmbiguityError(
                    f"match for {reference[j]} ambiguous: "
                    f"best {chosen:.3e}, rival {rival:.3e}"
                )
    return values[order]


def compute_reference_cluster(case: BenchmarkCase, delta: float) -> np.ndarray:
    """Three reference eigenvalues of the delta-perturbed 1D problem.

    High-order elements on a sequence of fine aligned meshes, followed by
    per-eigenvalue Richardson extrapolation with the observed local order.

    When the perturbation does not separate the cluster beyond the
    floating-point sensitivity of a (near-)defective triple, individual
    eigenvalues carry no information — only the cluster mean does — and
    the oracle returns the mean replicated, which is the exact limit for
    delta = 0.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if case.dimension != 1:
        raise ValueError("reference oracle is one-dimensional")
    params = _perturbed_params(case, delta)
    target, m = case.target, case.m_alg

    clusters, floors = [], []
    for k in REFERENCE_EXPONENTS:
        pencil = build_pencil_1d(case, REFERENCE_DEGREE, 2**k, params=params)
        spectrum = eigs_near(pencil, target, m)
        idx = select_cluster(spectrum, target, m)
        clusters.append(spectrum.values[idx])
        floors.append(solver_floor(pencil))

    fine_vals = clusters[-1]
    spread = float(np.max(np.abs(fine_vals[:, None] - fine_vals[None, :])))
    # per-eigenvalue fp sensitivity of an ascent-3 cluster: backward noise
    # enters at the 1/3 power (the 100 in solver_floor is stripped first)
    fuzz = 3.0 * (floors[-1] / 100.0) ** (1.0 / 3.0) * abs(target) ** (2.0 / 3.0)
    if spread <= fuzz:
        # unresolved split: the stable quantity is the mean (coarsest mesh:
        # the mean floor grows with the norm ratio)
        return np.full(m, mean_of_cluster(clusters[0]))

    coarse = np.sort_complex(clusters[0])
    mid = _pair_to(coarse, clusters[1])
    fine = _pair_to(mid, clusters[2])

    refs = np.empty(m, dtype=complex)
    for j in range(m):
        d1 = abs(mid[j] - coarse[j])
        d2 = abs(fine[j] - mid[j])
        if d1 > 0 and d2 <= d1 / 4.0:
            # clean decay: Richardson with the observed local order
            q = min(max(np.log2(d1 / d2), 0.5), 8.0)
            refs[j] = fine[j] + (fine[j] - mid[j]) / (2.0**q - 1.0)
        else:
            # noise-flat differences: the mid mesh is converged and less
            # noisy than the finest
            refs[j] = mid[j]
    return refs


@dataclass
class SensitivityReport:
    case_id: str
    p: int
    deltas: list
    references: dict = field(default_factory=dict)  # delta -> 3 values
    tables: dict = field(default_factory=dict)  # delta -> ConvergenceTable
    separations: dict = field(default_factory=dict)  # delta -> max pair dist


def sensitivity_study(case: BenchmarkCase, deltas, p: int,
                      levels: int) -> SensitivityReport:
    """Convergence tables of the perturbed problems.

    Per-eigenvalue errors are measured against the per-delta references;
    the mean error stays measured against the unperturbed defective
    eigenvalue, exposing stagnation once the perturbation dominates.
    """
    if case.dimension != 1:
        raise ValueError("sensitivity study is one-dimensional")
    if any(d <= 0 for d in deltas):
        raise ValueError("deltas must be positive")
    check_levels(levels)
    report = SensitivityReport(case_id=case.id, p=p, deltas=list(deltas))
    target, m = case.target, case.m_alg
    for delta in deltas:
        refs = compute_reference_cluster(case, delta)
        report.references[delta] = refs
        report.separations[delta] = float(
            np.max(np.abs(refs[:, None] - refs[None, :]))
        )
        params = _perturbed_params(case, delta)
        table = ConvergenceTable(
            case_id=f"{case.id}_delta{delta:g}", p=p, target=target
        )
        for level in range(levels):
            pencil = build_pencil_1d(case, p, level_elements(case, level),
                                     params=params)
            try:
                spectrum = eigs_near(pencil, target, m)
            except LEVEL_ERRORS as exc:
                table.rows.append(failed_row(level, exc))
                continue
            values = spectrum.values[select_cluster(spectrum, target, m)]
            try:
                paired = _pair_to(refs, values)
            except PairingAmbiguityError:
                # coarse levels cannot distinguish a barely split cluster;
                # fall back to sorted pairing which is error-equivalent there
                paired = _sorted_pairing(refs, values)
            table.rows.append(cluster_row(
                level, pencil, target, values, values=paired,
                errors=np.sort(np.abs(refs - paired))[::-1],
            ))
        table.fit_all()
        report.tables[delta] = table
    return report


def _sorted_pairing(reference: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Pair by lexicographic complex sort; used when matching is ambiguous."""
    order_r = np.argsort(reference)
    order_v = np.argsort(values)
    out = np.empty_like(values)
    out[order_r] = values[order_v]
    return out
