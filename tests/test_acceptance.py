"""Acceptance gate: published configurations, convergence-rate signatures,
sensitivity regimes, adaptivity, and the cross-cutting property suite.

Slope assertions use the least-squares log-log fit over the last 4 usable
levels with tolerance +/-0.12 unless a wider band is stated at the
assertion.  Long-running studies (2D simplicial, adaptive) are at the end.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from defectbench.analytic1d import (
    ModelParams,
    det_transmission,
    taylor_coefficients,
)
from defectbench.bench import (
    CASES,
    REDUCED_CONFIG,
    REGULAR_CONFIG,
    adaptive_loop,
    eigenfunction_convergence,
    fit_rate,
    run_convergence,
    sensitivity_study,
)
from defectbench.bench.convergence import build_pencil_1d
from defectbench.eigensolve import eigs_near, select_cluster
from defectbench.fem import (
    assemble_interval,
    assemble_tensor,
    assemble_triangles,
)
from defectbench.meshing import initial_square_triangulation, uniform_interval_mesh
from defectbench.paramfind import verify_configuration

SELFADJOINT = ModelParams(b=0.5, a_R=1.0 + 0j, c=0.0 + 0j)


def _assert_close(value, target, tol):
    assert abs(value - target) <= tol, f"{value:.3f} not within {target}+-{tol}"


def _assert_no_failed_level(table):
    # fits run over ok_rows only, so a failed level would otherwise pass
    failed = [r.level for r in table.rows if r.failed]
    assert not failed, f"{table.case_id}: levels {failed} failed"


# ---------------------------------------------------------------------------
# 1. Both published parameter sets are defective of ascent 3
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("config", [REGULAR_CONFIG, REDUCED_CONFIG],
                         ids=["half", "third"])
def test_01_published_configurations_certify_ascent_3(config):
    report = verify_configuration(config)
    assert report.converged
    assert report.certified_ascent == 3
    scaled = report.solution.residuals
    assert max(scaled[:3]) <= 1e-6


# ---------------------------------------------------------------------------
# 2. Closed-form determinant oracle
# ---------------------------------------------------------------------------


def test_02_closed_form_determinant_oracle():
    rng = np.random.default_rng(42)
    lam = (rng.normal(size=100) * 30 + 1j * rng.normal(size=100) * 30)
    det = det_transmission(SELFADJOINT, lam)
    exact = lam * np.cos(np.sqrt(lam.astype(complex)))
    assert np.max(np.abs(det - exact) / np.abs(exact)) < 1e-12
    gamma = taylor_coefficients(SELFADJOINT, (np.pi / 2) ** 2, 2, radius=0.1)
    assert abs(gamma[1] - (-np.pi / 4)) < 1e-10


# ---------------------------------------------------------------------------
# 3. 1D jump-aligned meshes: cube-root cluster, full-rate mean
# ---------------------------------------------------------------------------


def test_03_regular1d_rates_p1():
    table = run_convergence(CASES["regular1d"], 1, 12)
    _assert_no_failed_level(table)
    rates = table.fitted_rates
    for k in ("err1", "err2", "err3"):
        _assert_close(rates[k], -2 / 3, 0.12)
    _assert_close(rates["mean"], -2.0, 0.12)


def test_03_regular1d_rates_p2():
    # fewer levels: the -4 mean hits the arithmetic floor quickly
    table = run_convergence(CASES["regular1d"], 2, 7)
    _assert_no_failed_level(table)
    rates = table.fitted_rates
    for k in ("err1", "err2", "err3"):
        _assert_close(rates[k], -4 / 3, 0.12)
    _assert_close(rates["mean"], -4.0, 0.12)


# ---------------------------------------------------------------------------
# 4. 1D non-aligned meshes: reduced regularity caps both degrees at -1/3 / -1
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2])
def test_04_reduced1d_rates_degree_independent(p):
    table = run_convergence(CASES["reduced1d"], p, 12)
    _assert_no_failed_level(table)
    rates = table.fitted_rates
    for k in ("err1", "err2", "err3"):
        _assert_close(rates[k], -1 / 3, 0.12)
    _assert_close(rates["mean"], -1.0, 0.12)


# ---------------------------------------------------------------------------
# 5. Sensitivity to parameter perturbation: splitting and two regimes
# ---------------------------------------------------------------------------


def test_05_sensitivity_regimes():
    case = CASES["regular1d"]
    report = sensitivity_study(case, [1e-2, 1e-6], 1, 13)
    for table in report.tables.values():
        _assert_no_failed_level(table)

    # delta = 1e-2: the cluster splits into well-separated simple roots
    # (cube-root amplification) and the mean no longer tends to the
    # unperturbed defective eigenvalue
    sep = report.separations[1e-2]
    assert sep > 2.0
    t2 = report.tables[1e-2]
    rows = t2.ok_rows
    stagnation = fit_rate([(r.N, r.mean_error) for r in rows], 4)
    assert stagnation > -0.2

    # delta = 1e-6: reduced rate while the splitting is unresolved, then
    # optimal per-eigenvalue rate once the mesh resolves the simple roots
    t6 = report.tables[1e-6]
    rows = t6.ok_rows
    coarse = rows[: max(4, len(rows) // 2)]
    coarse_mean = fit_rate([(r.N, r.mean_error) for r in coarse], 4)
    assert coarse_mean <= -0.5
    fine_worst = max(
        fit_rate([(r.N, r.errors[j]) for r in rows], 4)
        for j in range(case.m_alg)
    )
    assert fine_worst <= -1.7


# ---------------------------------------------------------------------------
# 7. Tensor-product oracle: exact Kronecker spectra; tensor grids cannot
#    reproduce the simplicial rates
# ---------------------------------------------------------------------------


def test_07_kronecker_spectra_identity():
    par = REGULAR_CONFIG.params
    p1d = assemble_interval(uniform_interval_mesh(4, force_node=par.b), par, 1)
    w1 = sla.eig(p1d.A.toarray(), p1d.B.toarray(), right=False)
    w2 = np.sort_complex(
        sla.eig(*(m.toarray() for m in
                  (assemble_tensor(p1d, 2).A, assemble_tensor(p1d, 2).B)),
                right=False)
    )
    sums2 = np.sort_complex((w1[:, None] + w1[None, :]).ravel())
    assert np.max(np.abs(w2 - sums2)) < 1e-10 * np.max(np.abs(sums2))
    p3 = assemble_tensor(p1d, 3)
    w3 = np.sort_complex(sla.eig(p3.A.toarray(), p3.B.toarray(), right=False))
    sums3 = np.sort_complex(
        (w1[:, None, None] + w1[None, :, None] + w1[None, None, :]).ravel()
    )
    assert np.max(np.abs(w3 - sums3)) < 1e-10 * np.max(np.abs(sums3))


def test_07_tensor_grid_rates_exceed_simplicial_band():
    # per-eigenvalue slopes on 2D tensor grids are strictly steeper than
    # -1/4: a tensor discretization cannot exhibit the shallow simplicial
    # cluster rates, so the 2D/3D simplicial studies need true triangulations
    table = run_convergence(CASES["regular2d_tensor"], 1, 5)
    _assert_no_failed_level(table)
    rates = table.fitted_rates
    _assert_close(rates["mean"], -1.0, 0.12)
    for k, v in rates.items():
        if k.startswith("err"):
            assert v < -0.25, f"{k} slope {v:.3f} not steeper than -1/4"


# ---------------------------------------------------------------------------
# 9. Property suite
# ---------------------------------------------------------------------------


def test_09_all_assemblies_complex_symmetric_with_positive_mass():
    par = REGULAR_CONFIG.params
    pencils = [
        assemble_interval(uniform_interval_mesh(8, force_node=par.b), par, p)
        for p in (1, 2, 3)
    ]
    mesh = initial_square_triangulation(4)
    pencils += [assemble_triangles(mesh, par, p) for p in (1, 2)]
    p1d = pencils[0]
    pencils += [assemble_tensor(p1d, 2), assemble_tensor(p1d, 3)]
    for pencil in pencils:
        A, B = pencil.A, pencil.B
        assert abs(A - A.T).max() < 1e-12 * abs(A).max()
        assert abs(B - B.T).max() < 1e-13 * abs(B).max()
        Bd = B.toarray()
        assert np.max(np.abs(Bd.imag)) == 0.0
        assert np.all(sla.eigvalsh(Bd.real) > 0)


def test_09_adjoint_conjugacy_of_spectra():
    # conjugating the coefficients conjugates the (complex symmetric)
    # pencil, hence the spectrum: the adjoint problem needs no new assembly
    par = REGULAR_CONFIG.params
    mesh = uniform_interval_mesh(8, force_node=par.b)
    fwd = assemble_interval(mesh, par, 1)
    adj = assemble_interval(
        mesh, ModelParams(par.b, np.conj(par.a_R), np.conj(par.c)), 1
    )
    wf = np.sort_complex(sla.eig(fwd.A.toarray(), fwd.B.toarray(),
                                 right=False))
    wa = np.sort_complex(sla.eig(adj.A.toarray(), adj.B.toarray(),
                                 right=False))
    assert np.max(np.abs(np.sort_complex(np.conj(wa)) - wf)) < \
        1e-10 * np.max(np.abs(wf))


def test_09_determinant_branch_invariance():
    par = REGULAR_CONFIG.params
    d1 = det_transmission(par, -4.0 + 1e-12j)
    d2 = det_transmission(par, -4.0 - 1e-12j)
    assert abs(abs(d1) - abs(d2)) < 1e-8 * abs(d1)


def _char_poly_roots(A, B):
    """Independent oracle: det(A - z B) roots via sampling + Newton polish."""
    n = A.shape[0]
    dense_det = lambda z: np.linalg.det(A - z * B)  # noqa: E731
    # sample on a circle enclosing the spectrum, fit the degree-n polynomial
    radius = 4.0 * np.linalg.norm(A, 1) / np.linalg.norm(B, 1)
    zs = radius * np.exp(2j * np.pi * np.arange(2 * n + 1) / (2 * n + 1))
    vals = np.array([dense_det(z) for z in zs])
    coeffs = np.polyfit(zs, vals, n)
    roots = np.roots(coeffs)
    # Newton polish directly on det evaluations (no polynomial involved)
    for _ in range(50):
        h = 1e-7 * (1.0 + np.abs(roots))
        f = np.array([dense_det(z) for z in roots])
        fp = np.array(
            [(dense_det(z + hz) - dense_det(z - hz)) / (2 * hz)
             for z, hz in zip(roots, h)]
        )
        step = f / fp
        roots = roots - step
        if np.max(np.abs(step) / (1.0 + np.abs(roots))) < 1e-13:
            break
    return roots


def test_09_matches_determinant_root_oracle_on_tiny_pencil():
    case = CASES["regular1d"]
    pencil = build_pencil_1d(case, 1, 12)
    assert pencil.n <= 13
    roots = _char_poly_roots(pencil.A.toarray(), pencil.B.toarray())
    spec = eigs_near(pencil, case.target, case.m_alg)
    idx = select_cluster(spec, case.target, case.m_alg)
    for lam in spec.values[idx]:
        assert np.min(np.abs(roots - lam)) < 1e-8 * abs(lam)


def test_09_selfadjoint_degeneration_has_real_spectrum():
    par = ModelParams(b=0.5, a_R=2.0 + 0j, c=0.5 + 0j)
    pencil = assemble_interval(uniform_interval_mesh(32, force_node=0.5),
                               par, 2)
    w = sla.eig(pencil.A.toarray(), pencil.B.toarray(), right=False)
    near = w[np.abs(w) < 100]
    assert np.max(np.abs(near.imag) / np.abs(near)) < 1e-9
    spec = eigs_near(pencil, float(np.sort(near.real)[0]), 3)
    assert np.max(np.abs(spec.values.imag) / np.abs(spec.values)) < 1e-9


# ---------------------------------------------------------------------------
# 10. Eigenfunction convergence towards the generalized eigenspace
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,levels", [(1, 10), (2, 8)])
def test_10_eigenfunction_h1_rates(p, levels):
    table = eigenfunction_convergence(CASES["regular1d"], p, levels)
    _assert_no_failed_level(table)
    _assert_close(table.fitted_rates["mean"], -float(p), 0.15)
    for row in table.ok_rows:
        # distance to the full jet span never exceeds the single-function one
        assert row.errors[1] <= row.errors[0] + 1e-14


# ---------------------------------------------------------------------------
# 6. 2D simplicial meshes: ascent-5 signature (long-running)
# ---------------------------------------------------------------------------


def test_06_regular2d_tri_rates_p1():
    table = run_convergence(CASES["regular2d_tri"], 1, 7)
    _assert_no_failed_level(table)
    rates = table.fitted_rates
    err_slopes = [rates[f"err{j + 1}"] for j in range(9)]
    worst = max(err_slopes)
    assert -0.30 <= worst <= -0.14
    _assert_close(rates["mean"], -1.0, 0.15)
    assert min(err_slopes) <= -0.35
    # at most one index already converging at the optimal cluster rate
    assert sum(1 for s in err_slopes if s <= -0.9) <= 1


def test_06_regular2d_tri_rates_p2():
    table = run_convergence(CASES["regular2d_tri"], 2, 6)
    _assert_no_failed_level(table)
    rates = table.fitted_rates
    err_slopes = [rates[f"err{j + 1}"] for j in range(9)]
    _assert_close(max(err_slopes), -0.4, 0.12)
    _assert_close(rates["mean"], -2.0, 0.25)


# ---------------------------------------------------------------------------
# 8. Adaptive refinement restores the optimal mean rate (long-running)
# ---------------------------------------------------------------------------


def test_08_adaptive_mean_rate():
    table = adaptive_loop(CASES["reduced2d_tri"], theta=0.5, max_dofs=200_000)
    _assert_no_failed_level(table)
    rows = table.ok_rows
    assert len(rows) >= 8
    # adaptive steps grow N by ~1.3x; fit on doubling markers so the
    # last-4 window spans several octaves of N
    markers, last_n = [], 0
    for r in rows:
        if r.N >= 2 * last_n:
            markers.append(r)
            last_n = r.N
    if markers[-1] is not rows[-1]:
        markers.append(rows[-1])
    slope = fit_rate([(r.N, r.mean_error) for r in markers], 4)
    _assert_close(slope, -1.0, 0.2)
