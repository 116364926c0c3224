"""Residual a posteriori estimator, Dörfler marking, and the adaptive loop.

The estimator sums, over the cluster pairs (lambda, u_h), element volume
residuals h_T^2 ||div(a grad u_h) + lambda u_h||^2, interior flux jumps
h_E ||[a grad u_h . n]||^2, and Robin boundary residuals
h_E ||a grad u_h . n + c u_h||^2, for the primal and the adjoint pairs.
The assemblies are complex symmetric, so adjoint eigenpairs are conjugates
of primal ones.  With conjugated lambda, u_h and coefficient every adjoint
residual is the exact complex conjugate of the primal one, so the adjoint
half equals the primal half and is taken as a factor 2, not recomputed.

The pair-independent data (DOF layout, geometry, coefficient values and
flux weights at the quadrature points, edge adjacency) is built once per
estimator call by fem.triangles.EstimatorMesh; each pair only contracts
its element coefficients against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analytic1d import ModelParams
from ..eigensolve import eigs_near  # noqa: F401  perfstudy/tracing.py looks it up here
from ..fem.triangles import EstimatorMesh, assemble_triangles, free_dof_count
from ..meshing import TriMesh, initial_square_triangulation, nvb_refine
from .cases import BenchmarkCase
from .convergence import INITIAL_SQUARE_DIVISIONS, ConvergenceTable, solve_level

__all__ = [
    "EstimatorField",
    "residual_estimator",
    "dorfler_mark",
    "adaptive_loop",
    "initial_mesh",
]


@dataclass
class EstimatorField:
    eta_sq: np.ndarray  # per-triangle indicator, >= 0

    @property
    def total(self) -> float:
        return float(np.sum(self.eta_sq))


def residual_estimator(mesh: TriMesh, pairs, params: ModelParams,
                       p: int = 1) -> EstimatorField:
    """Cluster residual estimator; primal plus conjugate-adjoint halves.

    pairs: (eigenvalue, full-DOF coefficient vector) for each cluster member.
    The conjugate-adjoint half (conj(lambda), conj(u), conjugated
    coefficient) has residuals that are the exact complex conjugates of the
    primal ones, so it equals the primal half and enters as a factor 2.
    """
    if not pairs:
        return EstimatorField(eta_sq=np.zeros(mesh.n_triangles))
    md = EstimatorMesh.build(mesh, params, p)
    # the mesh data is built once; the pairs are contracted one at a time,
    # so no array carries a cluster axis over every triangle (GBs on fine
    # adaptive meshes)
    vol, jump, robin = 0.0, 0.0, 0.0
    for lam, u in pairs:
        dv, dj, dr = md.residuals(lam, u)
        vol, jump, robin = vol + dv, jump + dj, robin + dr
    nt = mesh.n_triangles
    eta = (
        vol
        + np.bincount(md.sL // 3, 0.5 * jump, minlength=nt)
        + np.bincount(md.sR // 3, 0.5 * jump, minlength=nt)
        + np.bincount(md.robin_s // 3, robin, minlength=nt)
    )
    return EstimatorField(eta_sq=2.0 * eta)


def dorfler_mark(field: EstimatorField, theta: float):
    """Minimal set (greedy, ties by index) with theta of the total mass."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    eta = field.eta_sq
    total = float(eta.sum())
    if total == 0.0:
        return []
    order = np.argsort(-eta, kind="stable")
    csum = np.cumsum(eta[order])
    k = int(np.searchsorted(csum, theta * total)) + 1
    k = min(k, len(order))
    # never mark zero-indicator triangles (theta = 1 edge case)
    marked = [int(i) for i in order[:k] if eta[i] > 0.0]
    return marked


def initial_mesh(max_dofs: int, p: int) -> TriMesh:
    """The adaptive loop's first mesh; ValueError if it exceeds the budget."""
    mesh = initial_square_triangulation(INITIAL_SQUARE_DIVISIONS)
    ndof = free_dof_count(mesh, p)
    if ndof > max_dofs:
        raise ValueError(f"max_dofs {max_dofs} is below the {ndof} free "
                         f"DOFs of the initial P{p} mesh")
    return mesh


def adaptive_loop(case: BenchmarkCase, theta: float = 0.5,
                  max_dofs: int = 100_000, p: int = 1) -> ConvergenceTable:
    """Solve -> estimate -> mark -> refine while the free DOFs fit the budget."""
    if case.family != "tri":
        raise ValueError("adaptive loop runs on triangular cases")
    params = case.config.params
    table = ConvergenceTable(case_id=case.id, p=p, target=case.target)

    def estimate_and_mark(pencil, spectrum):
        """Estimate on the current mesh and mark for the next one."""
        nonlocal marked
        pairs = []
        for lam, u in zip(spectrum.values, spectrum.vectors.T):
            full = np.zeros(len(pencil.meta["coords"]), dtype=complex)
            full[pencil.free] = u
            pairs.append((lam, full))
        fld = residual_estimator(mesh, pairs, params, p)
        marked = dorfler_mark(fld, theta)
        return {"eta_total": np.sqrt(fld.total)}

    mesh, marked = initial_mesh(max_dofs, p), []
    level = 0
    while free_dof_count(mesh, p) <= max_dofs:
        pencil = assemble_triangles(mesh, params, p)
        row = solve_level(level, pencil, case.target, case.m_alg,
                          estimate_and_mark)
        table.rows.append(row)
        if row.failed or not marked:
            break
        mesh = nvb_refine(mesh, marked)
        level += 1
    table.fit_all()
    return table
