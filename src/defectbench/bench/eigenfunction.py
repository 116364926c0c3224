"""H1 convergence of discrete eigenfunctions towards the analytic jet span.

At a defective eigenvalue the discrete eigenvector approximates an element
of the generalized eigenspace, so the natural error is the H1 distance to
the span of the jet {w_1, w_2, w_3}, not to a single eigenfunction.
"""

from __future__ import annotations

import numpy as np

from ..analytic1d import eigenfunction_jet
from ..eigensolve import eigs_near  # noqa: F401  perfstudy/tracing.py looks it up here
from ..fem import h1_error
from .cases import BenchmarkCase
from .convergence import ConvergenceTable, uniform_study

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
    cfg = case.config
    jet = eigenfunction_jet(cfg.params, cfg.lam, cfg.ascent)

    def jet_distances(pencil, spectrum):
        best = int(np.argmin(spectrum.residuals))
        dist = h1_error(pencil, spectrum.vectors[:, best], jet.value_matrix)
        return {"errors": np.array([dist[0], dist[-1]]),
                "mean_error": dist[-1], "floor": 0.0}

    return uniform_study(case, p, levels, jet_distances)
