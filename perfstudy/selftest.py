"""Self-test of the benchmark's correctness checks.

    python3 perfstudy/selftest.py

Runs one round of each workload, shows that every check accepts the real
outputs, then feeds each check a wrong answer (a shifted target, shifted
eigenvalues, swapped error columns, ...) and shows that the check rejects
it.  Exits 1 if a real output is rejected or a wrong answer accepted.
Takes about a minute.
"""

from __future__ import annotations

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from defectbench import bench  # noqa: E402


def shifted(table, delta: complex, rows=None):
    """A copy of a table whose eigenvalues (of the given rows) moved by delta."""
    out = copy.deepcopy(table)
    for r in out.rows if rows is None else [out.rows[i] for i in rows]:
        r.values = r.values + delta
    return out


def contracted(table, factor: float, target: complex):
    """A copy whose eigenvalues lie `factor` times as far from the target."""
    out = copy.deepcopy(table)
    for r in out.rows:
        r.values = target + factor * (r.values - target)
    return out


def mean_kept(table, delta: complex):
    """A copy whose first two cluster members move by about delta while the
    cluster's harmonic mean stays the same."""
    out = copy.deepcopy(table)
    for r in out.rows:
        v = r.values.copy()
        moved = v[0] + delta
        v[1] = 1.0 / (1.0 / v[0] + 1.0 / v[1] - 1.0 / moved)
        v[0] = moved
        r.values = v
    return out


def swapped_errors(table):
    out = copy.deepcopy(table)
    for r in out.rows:
        r.errors = r.errors[::-1].copy()
    return out


class SelfTest:
    def __init__(self):
        self.bad = 0

    def accepts(self, label, check, *args):
        try:
            check(*args)
            print(f"ok    {label}: real output accepted")
        except checks.CheckFailed as exc:
            print(f"FAIL  {label}: real output rejected: {exc}")
            self.bad += 1

    def rejects(self, label, check, *args):
        try:
            check(*args)
        except checks.CheckFailed as exc:
            print(f"ok    {label}: rejected ({exc})")
            return
        print(f"FAIL  {label}: wrong answer accepted")
        self.bad += 1


def main() -> int:
    out_dir = os.path.join(HERE, "out", "selftest")
    st = SelfTest()
    cases = bench.CASES

    rnd = workloads.run_study1d(out_dir)
    st.accepts("study1d", workloads.check_study1d, rnd)
    reg, red = cases["regular1d"], cases["reduced1d"]
    reg_p1, red_p2 = rnd.tables["regular1d_p1"], rnd.tables["reduced1d_p2"]
    st.rejects("regular1d P1 rates, target shifted by 1%",
               checks.check_cluster_rates, reg_p1, reg.target * 1.01, -2 / 3, -2.0)
    st.rejects("reduced1d P2 rates, target shifted by 1%",
               checks.check_cluster_rates, red_p2, red.target * 1.01, -1 / 3, -1.0)
    st.rejects("sensitivity, unperturbed target shifted by 1%",
               checks.check_sensitivity, rnd.sensitivity, reg.target * 1.01)
    report = copy.deepcopy(rnd.sensitivity)
    report.references[1e-6] = report.references[1e-6] + 1e-2
    st.rejects("sensitivity, delta 1e-6 references shifted by 1e-2",
               checks.check_sensitivity, report, reg.target)
    report = copy.deepcopy(rnd.sensitivity)
    report.references[1e-2] = np.full(3, report.references[1e-2].mean())
    st.rejects("sensitivity, delta 1e-2 cluster not split",
               checks.check_sensitivity, report, reg.target)
    eig = rnd.tables["eigenfunction_p2"]
    st.rejects("eigenfunction, error columns swapped",
               checks.check_eigenfunction, swapped_errors(eig), 2)
    slower = copy.deepcopy(eig)
    for r in slower.rows:
        r.errors = r.errors * np.sqrt(r.N)
    st.rejects("eigenfunction, distances decaying like N^-1.5",
               checks.check_eigenfunction, slower, 2)
    delta = 1e-6 * abs(reg.target)
    st.rejects("regular1d coarsest cluster shifted by 1e-6 relative",
               checks.check_coarsest_against_dense,
               shifted(reg_p1, delta, rows=[0]), reg)
    st.rejects("reduced1d coarsest cluster shifted by 1e-6 relative",
               checks.check_coarsest_against_dense,
               shifted(red_p2, 1e-6 * abs(red.target), rows=[0]), red)

    rnd = workloads.run_uniform2d(out_dir)
    st.accepts("uniform2d", workloads.check_uniform2d, rnd)
    tri, tensor = cases["regular2d_tri"], cases["regular2d_tensor"]
    st.rejects("regular2d_tri P1 rates, target shifted by 1%",
               checks.check_simplicial_rates, rnd.tables["regular2d_tri_p1"],
               tri.target * 1.01)
    st.rejects("regular2d_tensor cluster shifted by 1e-6 relative",
               checks.check_tensor_sums,
               shifted(rnd.tables["regular2d_tensor_p1"],
                       1e-6 * abs(tensor.target)), tensor)
    st.rejects("regular2d_tensor members moved by 1e-4 relative, mean kept",
               checks.check_tensor_sums,
               mean_kept(rnd.tables["regular2d_tensor_p1"],
                         1e-4 * abs(tensor.target)), tensor)

    rnd = workloads.run_adaptive2d(out_dir)
    st.accepts("adaptive2d", workloads.check_adaptive2d, rnd)
    case = cases["reduced2d_tri"]
    adaptive = rnd.tables["reduced2d_tri_adaptive"]
    uniform = rnd.tables["reduced2d_tri_uniform"]
    st.rejects("adaptive eigenvalues shifted by 1.0",
               checks.check_adaptive, shifted(adaptive, 1.0), uniform, case.target)
    st.rejects("uniform eigenvalues ten times closer to the target",
               checks.check_adaptive, adaptive,
               contracted(uniform, 0.1, case.target), case.target)
    st.rejects("adaptive and uniform studies swapped",
               checks.check_adaptive, uniform, adaptive, case.target)

    print("self-test", "passed" if st.bad == 0 else f"FAILED ({st.bad})")
    return 1 if st.bad else 0


if __name__ == "__main__":
    sys.exit(main())
