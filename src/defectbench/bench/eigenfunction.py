"""H1 convergence of discrete eigenfunctions towards the analytic jet span.

At a defective eigenvalue the discrete eigenvector approximates an element
of the generalized eigenspace, so the natural error is the H1 distance to
the span of the jet {w_1, w_2, w_3}, not to a single eigenfunction.
"""

from __future__ import annotations

import numpy as np

from ..analytic1d import eigenfunction_jet
from ..eigensolve import eigs_near, select_cluster
from ..fem import Function1D, h1_error
from .cases import BenchmarkCase
from .convergence import (
    LEVEL_ERRORS,
    ConvergenceTable,
    build_pencil_1d,
    check_levels,
    cluster_row,
    failed_row,
    level_elements,
)

__all__ = ["eigenfunction_convergence"]


def eigenfunction_convergence(case: BenchmarkCase, p: int,
                              levels: int) -> ConvergenceTable:
    """Distance of the smallest-residual cluster vector to the jet span.

    Recorded per level: errors[0] = distance to span{w_1} alone and
    errors[1] = mean_error = distance to span{w_1, w_2, w_3} (nested
    minimization guarantees errors[0] >= errors[1]); the rate of the latter
    is the quantity of interest (expected slope -p vs N).  Both come from
    one evaluation of the jet and one h1_error call per level.
    """
    if case.dimension != 1:
        raise ValueError("eigenfunction study is one-dimensional")
    check_levels(levels)
    cfg = case.config
    jet = eigenfunction_jet(cfg.params, cfg.lam, cfg.ascent)
    table = ConvergenceTable(case_id=case.id, p=p, target=cfg.lam)
    for level in range(levels):
        pencil = build_pencil_1d(case, p, level_elements(case, level))
        try:
            spectrum = eigs_near(pencil, case.target, case.m_alg)
            idx = select_cluster(spectrum, case.target, case.m_alg)
            best = idx[int(np.argmin(spectrum.residuals[idx]))]
            u_h = Function1D(pencil, spectrum.vectors[:, best])
            dist = h1_error(u_h, jet.value_matrix)
        except LEVEL_ERRORS as exc:
            table.rows.append(failed_row(level, exc))
            continue
        table.rows.append(cluster_row(
            level, pencil, cfg.lam, spectrum.values[idx],
            errors=np.array([dist[0], dist[-1]]), mean_error=dist[-1],
            floor=0.0,
        ))
    table.fit_all()
    return table
