"""Correctness checks of the study benchmark.

Every check rests on theory or on an independent computation, never on a
stored copy of earlier output: fitted convergence slopes against the
theoretical rates of a defective eigenvalue, dense QZ eigenvalues of the
same pencil, the Kronecker-sum identity of tensor spectra, and the
comparison of adaptive with uniform refinement.  Errors are recomputed
here from the eigenvalues the drivers return, so a wrong eigenvalue or a
wrong target shows up even when a driver's own error column agrees with it.

A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment

from defectbench.bench.convergence import build_pencil_1d, level_elements

FIT_WINDOW = 4  # least-squares window of the acceptance tests: last 4 levels


class CheckFailed(AssertionError):
    """A study output contradicts the theory or an independent computation."""


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def within(value: float, lo: float, hi: float, label: str):
    require(lo <= value <= hi, f"{label} = {value:.4f} not in [{lo:.4f}, {hi:.4f}]")


def harmonic_mean(values) -> complex:
    """The cluster mean of the paper: inverse of the mean inverse."""
    values = np.asarray(values, dtype=complex)
    return complex(1.0 / np.mean(1.0 / values))


def slope(ns, errs, window: int = FIT_WINDOW, floors=None) -> float:
    """Least-squares slope of log(err) against log(N) over the last points.

    Points at or below their noise floor are dropped before windowing.
    """
    ns, errs = np.asarray(ns, dtype=float), np.asarray(errs, dtype=float)
    keep = errs > (0.0 if floors is None else np.asarray(floors))
    ns, errs = ns[keep][-window:], errs[keep][-window:]
    require(len(ns) >= 2, "fewer than 2 points above the noise floor")
    return float(np.polyfit(np.log(ns), np.log(errs), 1)[0])


def cluster_errors(rows, target) -> np.ndarray:
    """(levels, m) eigenvalue errors, sorted descending within each level.

    target is one complex value, or one reference per cluster member.
    """
    return np.array([np.sort(np.abs(target - r.values))[::-1] for r in rows])


def mean_errors(rows, target: complex) -> np.ndarray:
    return np.array([abs(target - harmonic_mean(r.values)) for r in rows])


def cluster_slopes(table, target: complex):
    """Per-eigenvalue slopes and the cluster-mean slope of a uniform study."""
    rows = table.ok_rows
    ns = [r.N for r in rows]
    floors = np.maximum([r.floor for r in rows], 1e-13 * abs(target))
    errs = cluster_errors(rows, target)
    each = [slope(ns, errs[:, k], floors=floors) for k in range(errs.shape[1])]
    return each, slope(ns, mean_errors(rows, target), floors=floors)


def check_cluster_rates(table, target: complex, each: float, mean: float,
                        tol: float = 0.12):
    """Every eigenvalue converges at `each`, the cluster mean at `mean`."""
    slopes, mean_slope = cluster_slopes(table, target)
    for k, s in enumerate(slopes, start=1):
        within(s, each - tol, each + tol, f"{table.case_id} P{table.p} err{k} slope")
    within(mean_slope, mean - tol, mean + tol, f"{table.case_id} P{table.p} mean slope")


def check_simplicial_rates(table, target: complex):
    """2D P1 on triangles: the slowest eigenvalue of the ascent-9 cluster
    converges at a rate in [-0.30, -0.14], the mean at -1 +- 0.15."""
    slopes, mean_slope = cluster_slopes(table, target)
    within(max(slopes), -0.30, -0.14, f"{table.case_id} worst slope")
    within(mean_slope, -1.15, -0.85, f"{table.case_id} mean slope")


def dense_cluster(pencil, target: complex, m: int) -> np.ndarray:
    """The m eigenvalues nearest target from a dense QZ solve."""
    w = sla.eig(pencil.A.toarray(), pencil.B.toarray(), right=False)
    return w[np.argsort(np.abs(w - target))[:m]]


def match_distance(a, b) -> float:
    """Largest distance of the best one-to-one matching of two sets."""
    a, b = np.asarray(a), np.asarray(b)
    require(len(a) == len(b), f"cluster sizes differ: {len(a)} vs {len(b)}")
    dist = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(dist)
    return float(dist[rows, cols].max())


def check_coarsest_against_dense(table, case, rtol: float = 1e-8):
    """The coarsest-level cluster equals a dense eig of the same pencil."""
    row = table.ok_rows[0]
    pencil = build_pencil_1d(case, table.p, level_elements(case, row.level))
    require(pencil.n == row.N, f"{table.case_id}: pencil size {pencil.n} != {row.N}")
    ref = dense_cluster(pencil, case.target, case.m_alg)
    d = match_distance(row.values, ref)
    require(d <= rtol * abs(case.target),
            f"{table.case_id} P{table.p} level {row.level}: cluster is "
            f"{d:.3e} away from the dense eigenvalues")


def check_tensor_sums(table, case, rtol_mean: float = 1e-10,
                      rtol_each: float = 1e-6):
    """A tensor cluster is the set of pairwise sums of 1D eigenvalues nearest
    the target, computed here from a dense eig of the 1D pencil.

    Members of a nearly defective cluster amplify the solvers' backward
    errors (2.6e-9 relative at 16,384 DOFs), the cluster mean does not
    (1e-13), so the members get the looser tolerance.
    """
    for row in table.ok_rows:
        p1d = build_pencil_1d(case, table.p, level_elements(case, row.level))
        w = sla.eig(p1d.A.toarray(), p1d.B.toarray(), right=False)
        sums = (w[:, None] + w[None, :]).ravel()
        ref = sums[np.argsort(np.abs(sums - case.target))[: case.m_alg]]
        scale = abs(case.target)
        d_mean = abs(harmonic_mean(row.values) - harmonic_mean(ref))
        require(d_mean <= rtol_mean * scale,
                f"{table.case_id} level {row.level}: cluster mean is "
                f"{d_mean:.3e} away from the mean of the 1D sums")
        d = match_distance(row.values, ref)
        require(d <= rtol_each * scale,
                f"{table.case_id} level {row.level}: cluster is {d:.3e} away "
                "from the sums of the 1D eigenvalues")


def check_sensitivity(report, target: complex):
    """The two regimes of a perturbed defective eigenvalue (delta 1e-2, 1e-6).

    delta = 1e-2: the cluster splits by the cube root of delta and its mean
    stagnates away from the unperturbed eigenvalue.  delta = 1e-6: the
    mean converges while the split is unresolved, then every eigenvalue
    converges at the optimal simple-eigenvalue rate -2.
    """
    refs = report.references[1e-2]
    sep = float(np.max(np.abs(refs[:, None] - refs[None, :])))
    require(sep > 2.0, f"delta 1e-2: cluster separation {sep:.3f} <= 2")
    rows = report.tables[1e-2].ok_rows
    stagnation = slope([r.N for r in rows], mean_errors(rows, target))
    require(stagnation > -0.2, f"delta 1e-2: mean slope {stagnation:.3f} <= -0.2")

    rows = report.tables[1e-6].ok_rows
    coarse = rows[: max(4, len(rows) // 2)]
    coarse_mean = slope([r.N for r in coarse], mean_errors(coarse, target))
    require(coarse_mean <= -0.5,
            f"delta 1e-6: coarse mean slope {coarse_mean:.3f} > -0.5")
    # row values are paired with the references, so errors are elementwise
    errs = cluster_errors(rows, report.references[1e-6])
    worst = max(slope([r.N for r in rows], errs[:, k]) for k in range(errs.shape[1]))
    require(worst <= -1.7, f"delta 1e-6: worst fine slope {worst:.3f} > -1.7")


def check_eigenfunction(table, p: int, tol: float = 0.15):
    """H1 distance to the jet span converges at -p, and never exceeds the
    distance to the first jet function alone (nested minimization)."""
    rows = table.ok_rows
    s = slope([r.N for r in rows], [r.errors[1] for r in rows])
    within(s, -p - tol, -p + tol, f"{table.case_id} P{p} eigenfunction slope")
    for r in rows:
        require(r.errors[1] <= r.errors[0] + 1e-14,
                f"level {r.level}: span distance {r.errors[1]:.3e} exceeds "
                f"single-function distance {r.errors[0]:.3e}")


def doubling_markers(rows):
    """Rows at which N has at least doubled since the previous marker, plus
    the last row: adaptive steps grow N by ~1.3x, so a fit over markers
    spans octaves of N."""
    markers, last_n = [], 0
    for r in rows:
        if r.N >= 2 * last_n:
            markers.append(r)
            last_n = r.N
    if markers[-1] is not rows[-1]:
        markers.append(rows[-1])
    return markers


def check_adaptive(adaptive, uniform, target: complex):
    """Adaptivity restores the convergence that reduced regularity costs
    uniform refinement.

    The mean error over all doubling markers decays faster than the
    uniform reduced-regularity rate -1/2 and faster than the uniform
    study's own rate, and some adaptive step with fewer DOFs than the
    finest uniform level has a smaller mean error.
    """
    markers = doubling_markers(adaptive.ok_rows)
    a_slope = slope([r.N for r in markers], mean_errors(markers, target),
                    window=len(markers))
    require(a_slope < -0.5, f"adaptive mean slope {a_slope:.3f} not below -1/2")
    u_rows = uniform.ok_rows
    u_err = mean_errors(u_rows, target)
    u_slope = slope([r.N for r in u_rows], u_err)
    require(a_slope < u_slope,
            f"adaptive slope {a_slope:.3f} not steeper than uniform {u_slope:.3f}")
    finest_n, finest_err = u_rows[-1].N, u_err[-1]
    a_rows = adaptive.ok_rows
    a_err = mean_errors(a_rows, target)
    better = [r.N for r, e in zip(a_rows, a_err) if r.N < finest_n and e < finest_err]
    require(bool(better),
            f"no adaptive step below {finest_n} DOFs beats the uniform mean "
            f"error {finest_err:.3f}")
