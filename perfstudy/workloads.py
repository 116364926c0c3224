"""The three workloads of the study benchmark.

A workload round runs the paper's studies through the public API of
``defectbench.bench``, writes their tables as CSV through ``bench.io`` and
returns them for the checks.  The inputs are the two published parameter
sets; nothing is random, so every round performs the same operations.
Level counts and the DOF budget are sized so that one round takes about
10 to 25 s on a 2-core machine (see README.md).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

from defectbench import bench

import checks

SENSITIVITY_DELTAS = (1e-2, 1e-6)
ADAPTIVE_THETA = 0.5
ADAPTIVE_MAX_DOFS = 8_000
# the finest uniform level (16,384 DOFs) is the one an adaptive step below
# 8,000 DOFs beats; coarser uniform levels are not yet beaten
ADAPTIVE_UNIFORM_LEVELS = 6


@dataclass
class Round:
    """The outputs of one round: every table by study name."""

    tables: dict = field(default_factory=dict)
    sensitivity: bench.SensitivityReport | None = None

    @property
    def attempted(self) -> int:
        return sum(len(t.rows) for t in self.tables.values())

    @property
    def failed(self) -> int:
        return sum(r.failed for t in self.tables.values() for r in t.rows)


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple  # published parameter sets certified during set-up
    run: Callable[[str], Round]
    check: Callable[[Round], None]


def _write(out_dir: str, rnd: Round):
    os.makedirs(out_dir, exist_ok=True)
    for name, table in rnd.tables.items():
        stem = os.path.join(out_dir, name)
        bench.write_table_csv(stem + ".csv", table)
        bench.write_rates_csv(stem + ".rates.csv", table)


def run_study1d(out_dir: str) -> Round:
    cases = bench.CASES
    rnd = Round()
    rnd.tables["regular1d_p1"] = bench.run_convergence(cases["regular1d"], 1, 11)
    rnd.tables["reduced1d_p2"] = bench.run_convergence(cases["reduced1d"], 2, 10)
    rnd.sensitivity = bench.sensitivity_study(
        cases["regular1d"], SENSITIVITY_DELTAS, 1, 11
    )
    for delta, table in rnd.sensitivity.tables.items():
        rnd.tables[f"sensitivity_delta{delta:g}"] = table
    rnd.tables["eigenfunction_p2"] = bench.eigenfunction_convergence(
        cases["regular1d"], 2, 8
    )
    _write(out_dir, rnd)
    return rnd


def check_study1d(rnd: Round):
    regular, reduced = bench.CASES["regular1d"], bench.CASES["reduced1d"]
    checks.check_cluster_rates(rnd.tables["regular1d_p1"], regular.target,
                               each=-2 / 3, mean=-2.0)
    checks.check_cluster_rates(rnd.tables["reduced1d_p2"], reduced.target,
                               each=-1 / 3, mean=-1.0)
    checks.check_sensitivity(rnd.sensitivity, regular.target)
    checks.check_eigenfunction(rnd.tables["eigenfunction_p2"], 2)
    checks.check_coarsest_against_dense(rnd.tables["regular1d_p1"], regular)
    checks.check_coarsest_against_dense(rnd.tables["reduced1d_p2"], reduced)


def run_uniform2d(out_dir: str) -> Round:
    cases = bench.CASES
    rnd = Round()
    rnd.tables["regular2d_tri_p1"] = bench.run_convergence(
        cases["regular2d_tri"], 1, 6
    )
    rnd.tables["regular2d_tensor_p1"] = bench.run_convergence(
        cases["regular2d_tensor"], 1, 5
    )
    _write(out_dir, rnd)
    return rnd


def check_uniform2d(rnd: Round):
    tri, tensor = bench.CASES["regular2d_tri"], bench.CASES["regular2d_tensor"]
    checks.check_simplicial_rates(rnd.tables["regular2d_tri_p1"], tri.target)
    checks.check_tensor_sums(rnd.tables["regular2d_tensor_p1"], tensor)


def run_adaptive2d(out_dir: str) -> Round:
    case = bench.CASES["reduced2d_tri"]
    rnd = Round()
    rnd.tables["reduced2d_tri_adaptive"] = bench.adaptive_loop(
        case, theta=ADAPTIVE_THETA, max_dofs=ADAPTIVE_MAX_DOFS
    )
    rnd.tables["reduced2d_tri_uniform"] = bench.run_convergence(
        case, 1, ADAPTIVE_UNIFORM_LEVELS
    )
    _write(out_dir, rnd)
    return rnd


def check_adaptive2d(rnd: Round):
    checks.check_adaptive(rnd.tables["reduced2d_tri_adaptive"],
                          rnd.tables["reduced2d_tri_uniform"],
                          bench.CASES["reduced2d_tri"].target)


WORKLOADS = {
    w.name: w
    for w in [
        Workload("study1d", (bench.REGULAR_CONFIG, bench.REDUCED_CONFIG),
                 run_study1d, check_study1d),
        Workload("uniform2d", (bench.REGULAR_CONFIG,),
                 run_uniform2d, check_uniform2d),
        Workload("adaptive2d", (bench.REDUCED_CONFIG,),
                 run_adaptive2d, check_adaptive2d),
    ]
}
