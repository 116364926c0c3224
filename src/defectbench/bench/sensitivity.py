"""Perturbation studies: how the defective cluster reacts to c -> c + delta.

A real perturbation delta of the Robin constant splits the defective
triple into simple eigenvalues.  Errors are measured two ways: per
eigenvalue against the reference values lambda_j(delta), the roots of the
transmission determinant det M, and the cluster mean against the
unperturbed defective eigenvalue (which it no longer approximates once the
split dominates).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from itertools import permutations

import numpy as np

from ..analytic1d import roots_in_disc
from ..eigensolve import eigs_near  # noqa: F401  perfstudy/tracing.py looks it up here
from .cases import BenchmarkCase
from .convergence import check_levels, uniform_study

__all__ = [
    "SensitivityReport",
    "sensitivity_study",
    "compute_reference_cluster",
    "PairingAmbiguityError",
    "RootCountError",
]

# reference disc radius over |lambda|: it holds the split roots of the
# published sets for delta <= 0.1, clear of the branch cut of sqrt(lambda)
REFERENCE_RADIUS = 0.5


class PairingAmbiguityError(RuntimeError):
    """Nearest-match pairing to the references is ambiguous and consequential."""


class RootCountError(RuntimeError):
    """The reference disc does not hold exactly m_alg roots of det M."""


def _perturbed(case: BenchmarkCase, delta: float) -> BenchmarkCase:
    """The case with Robin constant c + delta, named <id>_delta<delta>."""
    cfg = case.config
    params = replace(cfg.params, c=cfg.params.c + delta)
    return replace(case, id=f"{case.id}_delta{delta:g}",
                   config=replace(cfg, params=params))


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
    """The m_alg eigenvalues of the delta-perturbed 1D problem near lambda.

    They are the roots of det M in the disc of radius REFERENCE_RADIUS |lambda|
    about the unperturbed eigenvalue lambda, counted by the argument
    principle, and sorted; delta = 0 returns lambda itself, m_alg times.
    Raises RootCountError when the disc holds another number of roots.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if case.dimension != 1:
        raise ValueError("reference oracle is one-dimensional")
    lam, m = case.target, case.m_alg
    if delta == 0:
        return np.full(m, lam)
    radius = REFERENCE_RADIUS * abs(lam)
    roots = roots_in_disc(_perturbed(case, delta).config.params, lam, radius)
    if len(roots) != m:
        raise RootCountError(f"delta {delta:g}: det M has {len(roots)} roots "
                             f"within {radius:.3g} of {lam}, not {m}")
    return roots


def _paired_errors(refs: np.ndarray, _pencil, spectrum) -> dict:
    """The cluster paired with the references, and its per-member errors."""
    try:
        paired = _pair_to(refs, spectrum.values)
    except PairingAmbiguityError:
        # coarse levels cannot distinguish a barely split cluster; sorted
        # order (as refs) is error-equivalent there
        paired = np.sort_complex(spectrum.values)
    return {"values": paired, "errors": np.sort(np.abs(refs - paired))[::-1]}


@dataclass
class SensitivityReport:
    references: dict = field(default_factory=dict)  # delta -> m_alg values
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
    report = SensitivityReport()
    for delta in deltas:
        refs = compute_reference_cluster(case, delta)
        report.references[delta] = refs
        report.separations[delta] = float(
            np.max(np.abs(refs[:, None] - refs[None, :]))
        )
        report.tables[delta] = uniform_study(
            _perturbed(case, delta), p, levels, partial(_paired_errors, refs))
    return report
