"""Benchmark drivers: rate fits, marking, estimator, references, CSV output."""

import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment

from defectbench.analytic1d import Jet, ModelParams, det_transmission
from defectbench.bench import (
    CASES,
    EstimatorField,
    NoFitPointsError,
    RootCountError,
    adaptive_loop,
    compute_reference_cluster,
    dorfler_mark,
    eigenfunction_convergence,
    fit_rate,
    residual_estimator,
    run_convergence,
    sensitivity_study,
    write_rates_csv,
    write_table_csv,
)
from defectbench.bench.convergence import (
    build_pencil_1d,
    level_elements,
    solver_floor,
)
from defectbench.bench.io import HEADER, RATES_HEADER, format_float
from defectbench.bench import adaptive, convergence, eigenfunction, sensitivity
from defectbench.bench.sensitivity import PairingAmbiguityError, _pair_to
from defectbench.fem.error_norms import SingularAlignmentError
from defectbench.eigensolve import EigsNotConvergedError, eigs_near
from defectbench.fem import assemble_tensor, assemble_triangles
from defectbench.meshing import initial_square_triangulation


# ---------------------------------------------------------------- fit_rate


def test_fit_rate_exact_power_law():
    assert fit_rate([(10, 1e-1), (100, 1e-3)], 2) == pytest.approx(-2.0)
    assert fit_rate([(8, 5.0), (16, 5.0), (32, 5.0)], 3) == pytest.approx(0.0)


def test_fit_rate_windows_last_points():
    pts = [(10, 1.0), (100, 1.0), (1000, 1e-2), (10000, 1e-4)]
    assert fit_rate(pts, 2) == pytest.approx(-2.0)


def test_fit_rate_floor_exclusion():
    # the last point sits on the noise floor and must not flatten the fit
    pts = [(10, 1e-2), (100, 1e-4), (1000, 1e-6), (10000, 1e-9)]
    assert fit_rate(pts, 3, floor=1e-8) == pytest.approx(-2.0)
    with pytest.raises(NoFitPointsError):
        fit_rate([(10, 1e-12)], 2, floor=1e-8)


# ------------------------------------------------------------- element counts


def test_level_elements_doubles_when_aligned():
    case = CASES["regular1d"]
    assert [level_elements(case, k) for k in range(3)] == [8, 16, 32]


def test_level_elements_fixes_mod3_phase_when_not_aligned():
    # b = 1/3 inside a uniform mesh: keep n = 1 (mod 3) so the jump sits at
    # the same relative position in its element on every level
    case = CASES["reduced1d"]
    ns = [level_elements(case, k) for k in range(5)]
    assert all(n % 3 == 1 for n in ns)
    assert all(b > a for a, b in zip(ns, ns[1:]))


def test_solver_floor_is_positive_and_grows_with_refinement():
    case = CASES["regular1d"]
    f1 = solver_floor(build_pencil_1d(case, 1, 16))
    f2 = solver_floor(build_pencil_1d(case, 1, 256))
    assert 0 < f1 < f2


# ------------------------------------------------------------------ marking


def test_dorfler_minimal_set():
    field = EstimatorField(eta_sq=np.array([4.0, 3.0, 2.0, 1.0]))
    assert dorfler_mark(field, 0.5) == [0, 1]
    assert dorfler_mark(field, 0.39) == [0]
    assert dorfler_mark(field, 1.0) == [0, 1, 2, 3]


def test_dorfler_skips_zero_indicators():
    field = EstimatorField(eta_sq=np.array([1.0, 0.0, 0.0]))
    assert dorfler_mark(field, 1.0) == [0]
    assert dorfler_mark(EstimatorField(eta_sq=np.zeros(3)), 0.5) == []


def test_dorfler_theta_validation():
    field = EstimatorField(eta_sq=np.ones(3))
    with pytest.raises(ValueError):
        dorfler_mark(field, 0.0)
    with pytest.raises(ValueError):
        dorfler_mark(field, 1.5)


# ---------------------------------------------------------------- estimator


def _tri_cluster(n0=4, p=1):
    case = CASES["regular2d_tri"]
    mesh = initial_square_triangulation(n0)
    params = case.config.params
    pencil = assemble_triangles(mesh, params, p)
    spec = eigs_near(pencil, case.target, case.m_alg)
    pairs = []
    for j in range(case.m_alg):
        full = np.zeros(pencil.meta["coords"].shape[0], dtype=complex)
        full[pencil.free] = spec.vectors[:, j]
        pairs.append((spec.values[j], full))
    return mesh, pairs, params


def test_estimator_zero_input_is_zero():
    mesh = initial_square_triangulation(2)
    params = ModelParams(b=0.5, a_R=1.0 + 0j, c=0j)
    zero = np.zeros(len(mesh.vertices), dtype=complex)
    field = residual_estimator(mesh, [(1.0 + 0j, zero)], params, p=1)
    assert field.total == 0.0
    assert residual_estimator(mesh, [], params, p=1).total == 0.0


def test_estimator_conjugation_symmetry():
    # the estimator is primal + conjugate-adjoint: conjugating every input
    # swaps the two halves and must leave each indicator unchanged
    mesh, pairs, params = _tri_cluster()
    field = residual_estimator(mesh, pairs, params)
    conj_pairs = [(np.conj(lam), np.conj(u)) for lam, u in pairs]
    conj_params = ModelParams(b=params.b, a_R=np.conj(params.a_R),
                              c=np.conj(params.c))
    conj_field = residual_estimator(mesh, conj_pairs, conj_params)
    assert np.max(np.abs(field.eta_sq - conj_field.eta_sq)) < \
        1e-12 * field.total


def test_estimator_positive_on_true_cluster():
    mesh, pairs, params = _tri_cluster()
    field = residual_estimator(mesh, pairs, params)
    assert field.total > 0
    assert np.all(field.eta_sq >= 0)
    assert len(field.eta_sq) == mesh.n_triangles


# indicators of _tri_cluster(n0=4, p) computed by the earlier implementation,
# which evaluated the conjugate-adjoint half separately and rebuilt the mesh
# data for every pair
_GOLDEN_ETA_P1 = np.array([
    11.221070363031837, 11.22107036303184, 23.100621396745538,
    13.730961537571073, 33.91290833514537, 58.70854468892203,
    68.53988819366256, 95.8507501857611, 13.730961537571153,
    23.100621396745623, 61.80864156355072, 61.80864156355082,
    71.74562723168445, 160.10277094846785, 103.88486751272237,
    189.00016274342366, 58.70854468892214, 33.91290833514541,
    160.10277094846776, 71.74562723168441, 162.07749227999636,
    162.0774922799962, 222.47344033463605, 112.05089785711026,
    95.85075018576137, 68.53988819366282, 189.00016274342377,
    103.8848675127227, 112.05089785711012, 222.47344033463602,
    134.7755764591288, 134.77557645912873
])
_GOLDEN_ETA_P2 = np.array([
    0.16508839300685568, 0.1650883930068586, 15.039567817900963,
    0.42879830015392895, 4.0678106771289615, 19.37200261367265,
    5.224266419318448, 7.348407807718286, 0.4287983001539185,
    15.039567817902771, 59.71360923746929, 59.713609237475204,
    10.377659753330963, 207.55775416646745, 15.31873170077749,
    216.86597714129877, 19.372002613675026, 4.067810677129551,
    207.55775416648254, 10.37765975333274, 169.32810815962944,
    169.32810815964012, 244.22274572692007, 45.111722806506826,
    7.348407807718917, 5.2242664193187105, 216.8659771413149,
    15.318731700778804, 45.11172280650586, 244.2227457269376,
    119.66991886150468, 119.66991886150525
])


@pytest.mark.parametrize("p,golden", [(1, _GOLDEN_ETA_P1),
                                      (2, _GOLDEN_ETA_P2)])
def test_estimator_matches_recorded_indicators(p, golden):
    mesh, pairs, params = _tri_cluster(n0=4, p=p)
    field = residual_estimator(mesh, pairs, params, p=p)
    assert np.max(np.abs(field.eta_sq - golden)) <= 1e-12 * golden.sum()


@pytest.mark.parametrize("p", [1, 2])
def test_estimator_is_additive_over_pairs(p):
    mesh, pairs, params = _tri_cluster(n0=4, p=p)
    field = residual_estimator(mesh, pairs, params, p=p)
    summed = sum(residual_estimator(mesh, [pair], params, p=p).eta_sq
                 for pair in pairs)
    assert np.max(np.abs(field.eta_sq - summed)) <= 1e-12 * field.total


def test_adaptive_loop_reduces_error_and_estimator():
    table = adaptive_loop(CASES["regular2d_tri"], theta=0.5, max_dofs=4000)
    rows = table.ok_rows
    assert len(rows) >= 4
    assert all(b.N > a.N for a, b in zip(rows, rows[1:]))
    assert rows[-1].eta_total < rows[0].eta_total
    assert rows[-1].mean_error < rows[0].mean_error


# --------------------------------------------------------- tensor vs direct


def test_tensor_cluster_matches_pairwise_sums():
    case = CASES["regular2d_tensor"]
    p1d = build_pencil_1d(case, 1, 8)
    w1 = sla.eig(p1d.A.toarray(), p1d.B.toarray(), right=False)
    sums = (w1[:, None] + w1[None, :]).ravel()
    p2d = assemble_tensor(p1d, 2)
    spec = eigs_near(p2d, case.target, case.m_alg)
    for lam in spec.values:
        assert np.min(np.abs(sums - lam)) < 1e-10 * abs(lam)


# ----------------------------------------------------------------- reference


def test_reference_cluster_consistent_with_unperturbed_target():
    case = CASES["regular1d"]
    refs = compute_reference_cluster(case, 0.0)
    assert np.array_equal(refs, np.full(case.m_alg, case.target))


@pytest.mark.parametrize("case_id", ["regular1d", "reduced1d"])
@pytest.mark.parametrize("delta", [1e-6, 1e-2, 0.1])
def test_reference_cluster_holds_distinct_roots_of_det(case_id, delta):
    case = CASES[case_id]
    refs = compute_reference_cluster(case, delta)
    params = sensitivity._perturbed(case, delta).config.params
    circle = case.target + 0.5 * abs(case.target) * np.exp(
        2j * np.pi * np.arange(64) / 64)
    scale = np.max(np.abs(det_transmission(params, circle)))
    assert np.max(np.abs(det_transmission(params, refs))) <= 1e-12 * scale
    gaps = np.abs(refs[:, None] - refs[None, :])[np.triu_indices(case.m_alg, 1)]
    assert np.all(gaps > 1e-2)


@pytest.mark.parametrize("delta,tol", [(1e-2, 1e-7), (1e-6, 3e-5)])
def test_reduced1d_reference_matches_aligned_p3_pencil(delta, tol):
    # a node at the jump b = 1/3 restores the high-order rate of P3; the
    # distance is the pencil's own error (3.1e-8 and 9.9e-6 measured)
    case = CASES["reduced1d"]
    refs = compute_reference_cluster(case, delta)
    pencil = build_pencil_1d(
        replace(sensitivity._perturbed(case, delta), aligned=True), 3, 384)
    spectrum = eigs_near(pencil, case.target, case.m_alg)
    assert np.max(np.abs(_pair_to(refs, spectrum.values) - refs)) <= tol


def test_reference_disc_without_the_whole_cluster_raises():
    # at delta = 0.5 two of the three roots of regular1d leave the disc
    with pytest.raises(RootCountError, match="1 roots"):
        sensitivity_study(CASES["regular1d"], [0.5], 1, 3)


def _pair_to_lsa(reference, values):
    """Reference: the earlier pairing by scipy's linear_sum_assignment."""
    dist = np.abs(reference[:, None] - values[None, :])
    rows, cols = linear_sum_assignment(dist)
    order = np.empty(len(reference), dtype=int)
    order[rows] = cols
    for j in range(len(reference)):
        d = dist[j]
        chosen = d[order[j]]
        rival = min(d[[k for k in range(len(values)) if k != order[j]]])
        if rival < 2.0 * chosen:
            spread = abs(values[order[j]] - values[int(np.argmin(d))])
            if spread > 1e-8 * max(1.0, abs(reference[j])):
                raise PairingAmbiguityError(
                    f"match for {reference[j]} ambiguous: "
                    f"best {chosen:.3e}, rival {rival:.3e}"
                )
    return values[order]


def test_pair_to_matches_linear_sum_assignment():
    rng = np.random.default_rng(7)
    paired = 0
    for trial in range(300):
        ref = rng.normal(size=3) + 1j * rng.normal(size=3)
        noise = (0.05, 0.3, 1.0)[trial % 3]
        vals = rng.permutation(ref) + noise * (
            rng.normal(size=3) + 1j * rng.normal(size=3))
        try:
            want = _pair_to_lsa(ref, vals)
        except PairingAmbiguityError as exc:
            # the message names the chosen distance, so it checks the matching
            with pytest.raises(PairingAmbiguityError, match=re.escape(str(exc))):
                _pair_to(ref, vals)
            continue
        assert np.array_equal(_pair_to(ref, vals), want)
        paired += 1
    assert 50 <= paired <= 250  # both outcomes are exercised


def test_sensitivity_separation_grows_with_delta():
    case = CASES["regular1d"]
    report = sensitivity_study(case, [1e-2, 1e-4], 1, 4)
    # cube-root splitting: larger perturbations separate the cluster more
    assert report.separations[1e-2] > report.separations[1e-4] > 0


# ------------------------------------------------------------ eigenfunction


def test_eigenfunction_study_evaluates_jet_once_per_level(monkeypatch):
    calls = []
    value_matrix = Jet.value_matrix

    def counted(self, x):
        calls.append(len(x))
        return value_matrix(self, x)

    monkeypatch.setattr(Jet, "value_matrix", counted)
    table = eigenfunction_convergence(CASES["regular1d"], 1, 3)
    assert len(calls) == 3
    assert not any(r.failed for r in table.rows)
    assert all(r.errors[1] <= r.errors[0] for r in table.rows)


def test_eigenfunction_study_across_the_cut_element_of_reduced1d():
    # b = 1/3 is no mesh node, so one element is split for quadrature and
    # its two parts evaluate the jet on different sides of the jump
    table = eigenfunction_convergence(CASES["reduced1d"], 1, 6)
    assert len(table.rows) == 6 and not any(r.failed for r in table.rows)
    assert all(r.errors[1] <= r.errors[0] for r in table.rows)
    span = [r.errors[1] for r in table.rows]
    assert all(fine < coarse for coarse, fine in zip(span, span[1:]))


def test_adaptive_loop_assembles_only_meshes_within_budget(monkeypatch):
    sizes = []

    def counted(*args, **kwargs):
        pencil = assemble_triangles(*args, **kwargs)
        sizes.append(pencil.n)
        return pencil

    monkeypatch.setattr(adaptive, "assemble_triangles", counted)
    table = adaptive_loop(CASES["regular2d_tri"], max_dofs=400)
    assert len(sizes) == len(table.rows) >= 2
    assert max(sizes) <= 400
    assert [r.N for r in table.rows] == sizes


@pytest.mark.parametrize("p,max_dofs", [(1, 0), (1, 15), (2, 63)])
def test_adaptive_budget_below_initial_mesh_raises(p, max_dofs):
    # the initial 4x4 mesh has 16 free P1 and 64 free P2 DOFs
    with pytest.raises(ValueError, match="initial"):
        adaptive_loop(CASES["regular2d_tri"], max_dofs=max_dofs, p=p)


def test_adaptive_budget_of_initial_mesh_solves_it():
    table = adaptive_loop(CASES["regular2d_tri"], max_dofs=16)
    assert [r.N for r in table.rows] == [16]


@pytest.mark.parametrize("study", [
    lambda levels: run_convergence(CASES["regular1d"], 1, levels),
    lambda levels: sensitivity_study(CASES["regular1d"], [1e-2], 1, levels),
    lambda levels: eigenfunction_convergence(CASES["regular1d"], 1, levels),
])
def test_level_studies_reject_fewer_than_three_levels(study):
    with pytest.raises(ValueError, match="levels >= 3"):
        study(2)


# ------------------------------------------------------------ failed levels

# every driver solves its levels through convergence.solve_level, the one
# caller of eigs_near in the drivers
DRIVERS = {
    "convergence": lambda: run_convergence(CASES["regular1d"], 1, 4),
    "sensitivity": lambda: sensitivity_study(CASES["regular1d"], [1e-2], 1, 4)
    .tables[1e-2],
    "eigenfunction": lambda: eigenfunction_convergence(CASES["regular1d"], 1, 4),
    "adaptive": lambda: adaptive_loop(CASES["regular2d_tri"], max_dofs=400),
}


def _failing(monkeypatch, module, name, exc, at_call=2):
    """Make module's function name raise exc on its at_call-th call."""
    calls = []
    real = getattr(module, name)

    def fake(*args, **kwargs):
        calls.append(None)
        if len(calls) == at_call:
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, fake)


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_declared_solver_error_becomes_failed_row_with_reason(monkeypatch,
                                                              driver):
    _failing(monkeypatch, convergence, "eigs_near",
             EigsNotConvergedError("residuals above 1.0e-09"))
    table = DRIVERS[driver]()
    failed = [r for r in table.rows if r.failed]
    assert [r.level for r in failed] == [1]
    assert failed[0].reason == "EigsNotConvergedError: residuals above 1.0e-09"
    good = table.ok_rows
    assert all(r.reason == "" and len(r.values) for r in good)
    if driver == "adaptive":
        # the adaptive mesh cannot grow past a failed level
        assert [r.level for r in table.rows] == [0, 1]
    else:
        assert [r.level for r in good] == [0, 2, 3]


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_programming_error_propagates_out_of_driver(monkeypatch, driver):
    _failing(monkeypatch, convergence, "eigs_near", TypeError("bad argument"))
    with pytest.raises(TypeError, match="bad argument"):
        DRIVERS[driver]()


def test_declared_error_of_a_measure_becomes_failed_row(monkeypatch):
    # a level error of a measure (here the H1 alignment of the eigenfunction
    # study) fails its level only, like one of the solve
    _failing(monkeypatch, eigenfunction, "h1_error",
             SingularAlignmentError("Gram matrix is singular"))
    table = DRIVERS["eigenfunction"]()
    failed = [r for r in table.rows if r.failed]
    assert [r.level for r in failed] == [1]
    assert failed[0].reason == "SingularAlignmentError: Gram matrix is singular"
    assert [r.level for r in table.ok_rows] == [0, 2, 3]
    assert all(r.reason == "" and len(r.values) for r in table.ok_rows)


def test_programming_error_of_a_measure_propagates(monkeypatch):
    _failing(monkeypatch, adaptive, "residual_estimator",
             TypeError("bad estimator argument"))
    with pytest.raises(TypeError, match="bad estimator argument"):
        DRIVERS["adaptive"]()


# ----------------------------------------------------------------- CSV files


def test_convergence_csv_layout(tmp_path):
    case = CASES["regular1d"]
    table = run_convergence(case, 1, 4)
    out = tmp_path / "table.csv"
    rates = tmp_path / "table.rates.csv"
    write_table_csv(str(out), table)
    write_rates_csv(str(rates), table)

    lines = out.read_text().strip().split("\n")
    assert lines[0] == HEADER
    # per level: one row per cluster eigenvalue plus a mean row
    assert len(lines) == 1 + 4 * (case.m_alg + 1)
    first = lines[1].split(",")
    assert first[0] == case.id and first[1] == "1" and first[5] == "1"
    mean_row = lines[1 + case.m_alg].split(",")
    assert mean_row[5] == "mean"
    # errors are sorted descending within a level
    errs = [float(lines[1 + j].split(",")[8]) for j in range(case.m_alg)]
    assert errs == sorted(errs, reverse=True)

    rlines = rates.read_text().strip().split("\n")
    assert rlines[0] == RATES_HEADER
    cols = {ln.split(",")[2] for ln in rlines[1:]}
    assert "mean" in cols and "err1" in cols


def test_format_float_roundtrip():
    for x in (1 / 3, 5.250721274740938, 1e-300):
        assert float(format_float(x)) == x
