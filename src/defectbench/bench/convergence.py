"""Uniform-refinement convergence drivers and log-log rate fitting.

A convergence run records, per refinement level, the discrete cluster of
m_alg eigenvalues nearest the analytic target, the per-eigenvalue errors
(sorted descending so that rank k is comparable across levels), and the
error of the cluster mean, which converges at the full rate regardless of
the defect.

All four study drivers solve their levels here: ``solve_level`` is the one
shift-invert solve and row of a level, and a driver passes only a measure
that overrides the row's default errors.  A level that raises one of
``LEVEL_ERRORS``, the solver's declared numerical failures, becomes a
failed row with its cause; any other exception is a programming or usage
error and propagates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..eigensolve import (
    EigsNotConvergedError,
    SingularShiftError,
    eigs_near,
    mean_of_cluster,
    one_norm,
)
from ..fem import assemble_interval, assemble_tensor, assemble_triangles
from ..fem.interval import SingularAlignmentError
from ..meshing import initial_square_triangulation, nvb_refine, uniform_interval_mesh
from .cases import BenchmarkCase

__all__ = [
    "ConvergenceRow",
    "ConvergenceTable",
    "LEVEL_ERRORS",
    "solve_level",
    "uniform_pencils",
    "uniform_study",
    "run_convergence",
    "fit_rate",
    "build_pencil_1d",
    "check_levels",
    "NoFitPointsError",
]

INITIAL_INTERVAL_ELEMENTS = 8
INITIAL_SQUARE_DIVISIONS = 4
MIN_LEVELS = 3  # fewest levels a level-based study runs
K_LAST = 4  # rate fits use the last K_LAST good levels

# the numerical failures a level may end in; they become failed rows
LEVEL_ERRORS = (EigsNotConvergedError, SingularShiftError, SingularAlignmentError)


class NoFitPointsError(RuntimeError):
    """Every point fell below the noise floor; no slope can be fitted."""


@dataclass
class ConvergenceRow:
    level: int
    N: int
    h: float
    values: np.ndarray  # cluster eigenvalues, solver order
    errors: np.ndarray  # |target - value| sorted descending
    mean_value: complex
    mean_error: float
    eta_total: float | None = None
    # solver noise floor at this level: errors below it are plateau, not
    # discretization error (measured model: 100 * eps * ||A||_1 / ||B||_1)
    floor: float = 0.0
    reason: str = ""  # "<ExceptionType>: <message>" of a failed level

    @property
    def failed(self) -> bool:
        return bool(self.reason)


@dataclass
class ConvergenceTable:
    case_id: str
    p: int
    target: complex
    rows: list = field(default_factory=list)
    fitted_rates: dict = field(default_factory=dict)

    @property
    def ok_rows(self):
        return [r for r in self.rows if not r.failed]

    def fit_all(self):
        """Rank-wise and mean-error slopes over the last K_LAST good levels."""
        rows = self.ok_rows
        if len(rows) < 2:
            return self.fitted_rates
        floor = 1e-13 * abs(self.target)
        m = len(rows[0].errors)
        for k in range(m):
            pts = [(r.N, r.errors[k]) for r in rows if r.errors[k] > r.floor]
            try:
                self.fitted_rates[f"err{k + 1}"] = fit_rate(pts, K_LAST, floor)
            except NoFitPointsError:
                pass
        try:
            self.fitted_rates["mean"] = fit_rate(
                [(r.N, r.mean_error) for r in rows if r.mean_error > r.floor],
                K_LAST,
                floor,
            )
        except NoFitPointsError:
            pass
        return self.fitted_rates


def fit_rate(points, k_last: int, floor: float = 0.0) -> float:
    """Least-squares slope of log(err) vs log(N) over the last k_last points.

    Points at or below the noise floor are excluded before windowing.
    """
    kept = [(n, e) for n, e in points if e > floor and e > 0.0]
    if len(kept) < 2:
        raise NoFitPointsError("fewer than 2 points above the noise floor")
    kept = kept[-k_last:]
    logn = np.log([n for n, _ in kept])
    loge = np.log([e for _, e in kept])
    A = np.column_stack([logn, np.ones_like(logn)])
    sol, *_ = np.linalg.lstsq(A, loge, rcond=None)
    return float(sol[0])


def solver_floor(pencil) -> float:
    """Measured plateau of the cluster-mean error for this pencil.

    The mean is first-order stable under backward perturbations, so its
    floor scales with eps times the pencil's norm ratio; the factor 100
    envelopes the observed plateaus across degrees and mesh sizes.
    """
    return 100.0 * np.finfo(float).eps * one_norm(pencil.A) / one_norm(pencil.B)


def level_elements(case: BenchmarkCase, level: int) -> int:
    """Element count of a refinement level.

    Doubling alone makes the b = 1/3 jump alternate between two relative
    positions inside its element (n mod 3 cycles 2, 1, 2, ...), which
    superimposes a period-2 oscillation on the errors and biases short
    least-squares rate fits.  Keeping n = 1 (mod 3) pins the jump at the
    same relative position on every level.
    """
    n = INITIAL_INTERVAL_ELEMENTS * 2**level
    if not case.aligned and n % 3 != 1:
        n -= n % 3 - 1
    return n


def build_pencil_1d(case: BenchmarkCase, p: int, n: int):
    """Assemble the 1D pencil of a case on n uniform elements."""
    params = case.config.params
    force = params.b if case.aligned else None
    mesh = uniform_interval_mesh(n, force_node=force)
    return assemble_interval(mesh, params, p)


def solve_level(level: int, pencil, target: complex, m: int,
                measure=None) -> ConvergenceRow:
    """Row of one level: the m eigenvalues of pencil nearest target.

    N, h and the cluster mean are always derived here.  By default the row
    holds the cluster in solver order (nearest first), its errors against
    target sorted descending, the mean's error and the solver floor;
    measure(pencil, spectrum) returns the fields that override these.  A
    solve or a measure that raises one of LEVEL_ERRORS gives a failed row
    with the cause.
    """
    try:
        spectrum = eigs_near(pencil, target, m)
        fields = measure(pencil, spectrum) if measure else {}
    except LEVEL_ERRORS as exc:
        return ConvergenceRow(level, 0, 0.0, np.array([]), np.array([]), 0j,
                              np.nan, reason=f"{type(exc).__name__}: {exc}")
    cluster = spectrum.values
    mean = mean_of_cluster(cluster)
    fields.setdefault("values", cluster)
    fields.setdefault("errors", np.sort(np.abs(target - cluster))[::-1])
    fields.setdefault("mean_error", float(abs(target - mean)))
    if "floor" not in fields:
        fields["floor"] = solver_floor(pencil)
    return ConvergenceRow(level=level, N=pencil.n, h=pencil.meta["h"],
                          mean_value=mean, **fields)


def check_levels(levels: int) -> None:
    """Reject a level count too small for a rate fit to mean anything."""
    if levels < MIN_LEVELS:
        raise ValueError(f"need levels >= {MIN_LEVELS}, got {levels}")


def uniform_pencils(case: BenchmarkCase, p: int, levels: int):
    """The pencils of the case's uniform refinement levels, coarsest first."""
    if case.family == "tri":
        mesh = initial_square_triangulation(INITIAL_SQUARE_DIVISIONS)
    for level in range(levels):
        if case.family == "interval":
            yield build_pencil_1d(case, p, level_elements(case, level))
        elif case.family == "tensor":
            yield assemble_tensor(
                build_pencil_1d(case, p, level_elements(case, level)),
                case.dimension,
            )
        else:
            if level > 0:
                # two all-marked bisection sweeps halve every edge, so each
                # level is a true h-halving (a single sweep only splits the
                # refinement edges and makes consecutive levels alternate
                # between two mesh patterns)
                for _ in range(2):
                    mesh = nvb_refine(mesh, range(mesh.n_triangles))
            yield assemble_triangles(mesh, case.config.params, p)


def uniform_study(case: BenchmarkCase, p: int, levels: int,
                  measure=None) -> ConvergenceTable:
    """Table of a uniform refinement study with its fitted rates; measure
    is passed to solve_level at every level."""
    check_levels(levels)
    table = ConvergenceTable(case_id=case.id, p=p, target=case.target)
    for level, pencil in enumerate(uniform_pencils(case, p, levels)):
        table.rows.append(
            solve_level(level, pencil, case.target, case.m_alg, measure))
    table.fit_all()
    return table


def run_convergence(case: BenchmarkCase, p: int, levels: int) -> ConvergenceTable:
    """Uniform refinement study against the analytic target d*lambda."""
    return uniform_study(case, p, levels)
