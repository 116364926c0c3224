"""Experiment drivers: convergence tables, sensitivity, adaptivity, CSV."""

from .adaptive import EstimatorField, adaptive_loop, dorfler_mark, residual_estimator
from .cases import CASES, REDUCED_CONFIG, REGULAR_CONFIG, BenchmarkCase
from .convergence import (
    ConvergenceRow,
    ConvergenceTable,
    NoFitPointsError,
    fit_rate,
    run_convergence,
)
from .eigenfunction import eigenfunction_convergence
from .io import write_rates_csv, write_table_csv
from .sensitivity import (
    RootCountError,
    SensitivityReport,
    compute_reference_cluster,
    sensitivity_study,
)

__all__ = [
    "BenchmarkCase",
    "CASES",
    "REGULAR_CONFIG",
    "REDUCED_CONFIG",
    "ConvergenceRow",
    "ConvergenceTable",
    "NoFitPointsError",
    "fit_rate",
    "run_convergence",
    "sensitivity_study",
    "compute_reference_cluster",
    "SensitivityReport",
    "RootCountError",
    "residual_estimator",
    "EstimatorField",
    "dorfler_mark",
    "adaptive_loop",
    "eigenfunction_convergence",
    "write_table_csv",
    "write_rates_csv",
]
