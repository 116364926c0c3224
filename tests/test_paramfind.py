"""Newton forging of defective parameter sets: recovery, surplus unknowns,
errors."""

import json

import numpy as np
import pytest

from defectbench import paramfind
from defectbench.analytic1d import (
    ContourNotConvergedError,
    EigenConfig,
    ModelParams,
    ascent_of,
    taylor_coefficients,
)
from defectbench.bench.cases import REDUCED_CONFIG, REGULAR_CONFIG
from defectbench.paramfind import (
    DEFECT_ORDERS,
    LeftAdmissibleRegionError,
    config_to_json,
    solve_defect_system,
    verify_configuration,
)


def _perturb(config: EigenConfig, rel: float) -> tuple:
    par = config.params
    return (
        par.a_R * (1 + rel * (1 + 1j)),
        par.c * (1 + rel * (1 - 1j)),
        config.lam * (1 + rel * 1j),
    )


@pytest.mark.parametrize("config", [REGULAR_CONFIG, REDUCED_CONFIG],
                         ids=["half", "third"])
def test_recovers_published_triple_from_perturbation(config):
    init = _perturb(config, 1e-3)
    report = solve_defect_system(config.params.b, 3, init)
    assert report.converged
    assert report.certified_ascent == 3
    sol = report.solution
    assert abs(sol.lam - config.lam) < 1e-6 * abs(config.lam)
    assert abs(sol.params.a_R - config.params.a_R) < 1e-6 * abs(config.params.a_R)
    assert abs(sol.params.c - config.params.c) < 1e-6 * abs(config.params.c)


def test_nu1_freezes_coefficients_and_finds_simple_root():
    # with a_R=1, c=0 fixed, the nu=1 system is a root solve for
    # lam cos(sqrt(lam)); nearest root to 2 is (pi/2)^2
    report = solve_defect_system(0.5, 1, (1.0, 0.0, 2.0 + 0.1j))
    sol = report.solution
    assert sol.params.a_R == 1.0 and sol.params.c == 0.0
    assert abs(sol.lam - (np.pi / 2) ** 2) < 1e-8
    assert report.certified_ascent == 1


def test_nu2_freezes_c_only():
    a_R, _, lam = _perturb(REGULAR_CONFIG, 1e-3)
    init = (a_R, REGULAR_CONFIG.params.c, lam)
    report = solve_defect_system(0.5, 2, init)
    assert report.solution.params.c == REGULAR_CONFIG.params.c
    assert report.residual_norm <= 1e-10


def test_verify_configuration_certifies_published_ascent():
    report = verify_configuration(REGULAR_CONFIG)
    assert report.converged
    assert report.certified_ascent == 3
    assert report.residual_norm < 1e-6


def test_verify_configuration_rejects_wrong_ascent_claim():
    wrong = EigenConfig(params=REGULAR_CONFIG.params, lam=REGULAR_CONFIG.lam,
                        ascent=2)
    report = verify_configuration(wrong)
    assert not report.converged


def test_left_half_plane_start_rejected():
    with pytest.raises(LeftAdmissibleRegionError):
        solve_defect_system(0.5, 3, (-1.0 + 0j, 0.0, 5.0 + 5.0j))


def test_invalid_defect_order_rejected():
    assert DEFECT_ORDERS == (1, 2, 3)
    for nu in (0, 4):
        with pytest.raises(ValueError):
            solve_defect_system(0.5, nu, (1.0, 0.0, 2.0))


def _failing_coefficients(monkeypatch, exc, at_call):
    """Make the solver's at_call-th Taylor-coefficient request raise exc."""
    calls = []

    def fake(*args, **kwargs):
        calls.append(None)
        if len(calls) == at_call:
            raise exc
        return taylor_coefficients(*args, **kwargs)

    monkeypatch.setattr(paramfind, "taylor_coefficients", fake)
    return calls


# nu = 1 from the simple-root start: the residual (call 1) and the two
# Jacobian columns (calls 2, 3) come before the first trial step (call 4)
_FIRST_TRIAL = 4


def test_line_search_backtracks_past_unconverged_contour(monkeypatch):
    calls = _failing_coefficients(
        monkeypatch, ContourNotConvergedError("not converged"), _FIRST_TRIAL
    )
    report = solve_defect_system(0.5, 1, (1.0, 0.0, 2.0 + 0.1j))
    assert len(calls) > _FIRST_TRIAL
    assert abs(report.solution.lam - (np.pi / 2) ** 2) < 1e-8


def test_line_search_lets_programming_errors_propagate(monkeypatch):
    _failing_coefficients(monkeypatch, TypeError("bad argument"), _FIRST_TRIAL)
    with pytest.raises(TypeError, match="bad argument"):
        solve_defect_system(0.5, 1, (1.0, 0.0, 2.0 + 0.1j))


def test_config_json_roundtrip_fields():
    text = config_to_json(REGULAR_CONFIG)
    doc = json.loads(text)
    assert doc["b"] == 0.5
    assert doc["ascent"] == 3
    par = ModelParams(doc["b"], complex(doc["a_R"]["re"], doc["a_R"]["im"]),
                      complex(doc["c"]["re"], doc["c"]["im"]))
    lam = complex(doc["lambda"]["re"], doc["lambda"]["im"])
    assert ascent_of(par, lam) == 3
