"""Analytic transmission-problem layer: determinant, Taylor, ascent, jets."""

import math
import warnings

import numpy as np
import pytest

from defectbench.analytic1d import (
    CERT_RTOL,
    NODES,
    ContourNotConvergedError,
    ModelParams,
    ascent_of,
    default_radius,
    det_transmission,
    eigenfunction_jet,
    fundamental_solutions,
    roots_in_disc,
    scaled_magnitudes,
    taylor_coefficients,
    transmission_matrix,
)
from defectbench.bench.cases import REDUCED_CONFIG, REGULAR_CONFIG

SELFADJOINT = ModelParams(b=0.5, a_R=1.0 + 0j, c=0.0 + 0j)

REGULAR = ModelParams(
    b=0.5,
    a_R=0.1069220800406739 + 0.08937533852238478j,
    c=-0.9634059612381408 + 0.5989684988897067j,
)
REGULAR_LAMBDA = 5.250721274740938 + 6.750931815875402j


def test_closed_form_determinant():
    # with unit coefficient and no Robin term the determinant collapses to
    # lambda * cos(sqrt(lambda))
    rng = np.random.default_rng(7)
    lam = rng.normal(size=100) * 30 + 1j * rng.normal(size=100) * 30
    det = det_transmission(SELFADJOINT, lam)
    expected = lam * np.cos(np.sqrt(lam.astype(complex)))
    assert np.max(np.abs(det - expected) / np.abs(expected)) < 1e-12


def test_first_taylor_coefficient_at_simple_root():
    # d/dlam [lam cos sqrt(lam)] at (pi/2)^2 is -pi/4
    lam0 = (np.pi / 2) ** 2
    gamma = taylor_coefficients(SELFADJOINT, lam0, 2, radius=0.1)
    assert abs(gamma[0]) < 1e-12
    assert abs(gamma[1] - (-np.pi / 4)) < 1e-10


def test_fundamental_solution_boundary_values():
    f = fundamental_solutions(SELFADJOINT, np.pi**2, 1.0)
    # right fundamental solution satisfies the Robin condition by
    # construction and is normalized so its value at x=1 is mu*cos(0)=pi
    assert abs(f.vR - np.pi) < 1e-12
    assert abs(f.dvR) < 1e-12
    assert abs(f.vL - np.sin(np.pi)) < 1e-12


def test_transmission_matrix_entries():
    M = transmission_matrix(SELFADJOINT, np.pi**2)
    f = fundamental_solutions(SELFADJOINT, np.pi**2, 0.5)
    assert M[0, 0] == f.vL and M[0, 1] == -f.vR
    assert M[1, 0] == f.dvL and M[1, 1] == -f.dvR


def test_branch_invariance_of_determinant():
    # flipping the sqrt branch can only flip the global sign of det M:
    # |det| (hence the root set and the ascent) is branch-invariant
    d1 = det_transmission(REGULAR, -4.0 + 1e-12j)
    d2 = det_transmission(REGULAR, -4.0 - 1e-12j)
    assert abs(abs(d1) - abs(d2)) < 1e-8 * abs(d1)
    # with real data the determinant itself is even in the square root
    e1 = det_transmission(SELFADJOINT, -4.0 + 1e-12j)
    e2 = det_transmission(SELFADJOINT, -4.0 - 1e-12j)
    assert abs(e1 - e2) < 1e-10 * abs(e1)


def test_ascent_simple_root():
    lam0 = (np.pi / 2) ** 2
    assert ascent_of(SELFADJOINT, lam0) == 1


def test_ascent_of_published_configuration():
    assert ascent_of(REGULAR, REGULAR_LAMBDA) == 3


def test_scaled_magnitudes_of_defective_point():
    radius = max(1e-2, 1e-3 * abs(REGULAR_LAMBDA))
    gamma = taylor_coefficients(REGULAR, REGULAR_LAMBDA, 4, radius=radius)
    mags = scaled_magnitudes(gamma, radius)
    scale = mags.max()
    assert np.all(mags[:3] / scale < 1e-6)
    assert mags[3] / scale > 1e-3


def test_jet_solves_ode_hierarchy():
    # w_1 solves the eigenvalue ODE; w_2 satisfies the Jordan-chain
    # relation -(a w_2')' - lam w_2 = w_1, checked via finite differences
    jet = eigenfunction_jet(REGULAR, REGULAR_LAMBDA, 3)
    x = np.linspace(0.05, 0.45, 41)  # stay on one side of the jump
    h = x[1] - x[0]
    vals, _ = jet.value_matrix(x)
    w1, w2 = vals[0], vals[1]
    lap_w1 = (w1[2:] - 2 * w1[1:-1] + w1[:-2]) / h**2
    r1 = -lap_w1 - REGULAR_LAMBDA * w1[1:-1]
    assert np.max(np.abs(r1)) < 1e-3 * np.max(np.abs(w1))
    lap_w2 = (w2[2:] - 2 * w2[1:-1] + w2[:-2]) / h**2
    r2 = -lap_w2 - REGULAR_LAMBDA * w2[1:-1] - w1[1:-1]
    assert np.max(np.abs(r2)) < 1e-3 * max(np.max(np.abs(w2)), 1.0)


def test_jet_derivatives_match_values():
    jet = eigenfunction_jet(REGULAR, REGULAR_LAMBDA, 3)
    x = np.linspace(0.6, 0.9, 31)
    vals, ders = jet.value_matrix(x)
    h = x[1] - x[0]
    fd = (vals[:, 2:] - vals[:, :-2]) / (2 * h)
    assert np.max(np.abs(fd - ders[:, 1:-1])) < 1e-2 * np.max(np.abs(ders))


def test_invalid_contour_arguments_raise():
    with pytest.raises(ValueError):
        taylor_coefficients(REGULAR, REGULAR_LAMBDA, 3, radius=-1.0)
    with pytest.raises(ValueError):
        taylor_coefficients(REGULAR, REGULAR_LAMBDA, -1, radius=0.1)


# far from the published root the contour integrand oscillates too fast for
# the node cap on the default radius
FAR_LAMBDA = 1e5


@pytest.mark.parametrize("compute", [
    lambda: taylor_coefficients(REGULAR, FAR_LAMBDA, 3,
                                radius=default_radius(FAR_LAMBDA)),
    lambda: ascent_of(REGULAR, FAR_LAMBDA),
    lambda: eigenfunction_jet(REGULAR, FAR_LAMBDA, 3),
], ids=["taylor_coefficients", "ascent_of", "eigenfunction_jet"])
def test_unconverged_contour_rule_raises(compute):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a failure, not an overflow
        with pytest.raises(ContourNotConvergedError):
            compute()


def _reference_jet_nodes(params, lambda0, order):
    """Contour offsets and null-vector values of the earlier jet, which
    certified its own node count by a copy of the doubling loop."""
    rho = default_radius(lambda0)
    M0 = transmission_matrix(params, lambda0)
    norm = np.max(np.abs(M0))
    use_first = max(abs(M0[0, 1]), abs(M0[0, 0])) > 1e-12 * norm

    def coeffs_at(m):
        theta = 2.0 * np.pi * np.arange(m) / m
        z = rho * np.exp(1j * theta)
        f = fundamental_solutions(params, lambda0 + z, params.b)
        if use_first:
            A1, A2 = -f.vR, -f.vL
        else:
            A1, A2 = -params.a_R * f.dvR, -f.dvL
        return theta, z, A1, A2

    ell = np.arange(order)

    def taylor_of(A, theta, m):
        return np.exp(-1j * np.outer(ell, theta)) @ A / m / rho**ell

    m = NODES
    theta, z, A1, A2 = coeffs_at(m)
    t1 = np.concatenate([taylor_of(A1, theta, m), taylor_of(A2, theta, m)])
    while True:
        theta, z, A1, A2 = coeffs_at(2 * m)
        t2 = np.concatenate(
            [taylor_of(A1, theta, 2 * m), taylor_of(A2, theta, 2 * m)]
        )
        scale = np.max(np.abs(t2) * np.concatenate([rho**ell, rho**ell]))
        diff = np.abs(t2 - t1) * np.concatenate([rho**ell, rho**ell])
        if scale == 0.0 or np.all(diff <= CERT_RTOL * scale):
            break
        if 2 * m >= 16 * NODES:
            raise ContourNotConvergedError("jet contour rule not converged")
        t1, m = t2, 2 * m
    n = 2 * m
    theta = 2.0 * np.pi * np.arange(n) / n
    fact = np.array([float(math.factorial(k)) for k in ell])
    weights = (
        fact[:, None] * np.exp(-1j * np.outer(ell, theta)) / n / rho ** ell[:, None]
    )
    return z, weights, A1, A2


def _contour_jet(params, lambda0, order, x):
    """w_l and w_l' of the earlier jet: u(lambda_k, x) at every contour node,
    contracted with the Cauchy differentiation weights."""
    z, weights, A1, A2 = _reference_jet_nodes(params, lambda0, order)
    f = fundamental_solutions(params, (lambda0 + z)[:, None], x)
    left = x <= params.b
    val = np.where(left, A1[:, None] * f.vL, A2[:, None] * f.vR)
    der = np.where(left, A1[:, None] * f.dvL, A2[:, None] * f.dvR)
    return weights @ val, weights @ der


def _row_error(got, want):
    return np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)


@pytest.mark.parametrize("config", [REGULAR_CONFIG, REDUCED_CONFIG],
                         ids=["half", "third"])
def test_series_jet_matches_contour_node_evaluation(config):
    b = config.params.b
    x = np.concatenate([np.linspace(0.0, b, 2001), np.linspace(b, 1.0, 2001)[1:]])
    jet = eigenfunction_jet(config.params, config.lam, config.ascent)
    reference = _contour_jet(config.params, config.lam, config.ascent, x)
    for got, want in zip(jet.value_matrix(x), reference):
        assert np.all(_row_error(got, want) <= 1e-9)


@pytest.mark.parametrize("config", [REGULAR_CONFIG, REDUCED_CONFIG],
                         ids=["half", "third"])
def test_jet_satisfies_the_interface_and_boundary_conditions(config):
    p = config.params
    grid = np.linspace(0.0, 1.0, 1001)
    jet = eigenfunction_jet(p, config.lam, config.ascent)
    vals, ders = jet.value_matrix(grid)
    vscale = np.max(np.abs(vals), axis=1)
    fscale = np.max(np.abs(p.a(grid) * ders), axis=1)
    ends = np.array([0.0, p.b, np.nextafter(p.b, 1.0), 1.0])
    v, d = jet.value_matrix(ends)
    assert np.all(np.abs(v[:, 0]) <= 1e-9 * vscale)  # Dirichlet at 0
    assert np.all(np.abs(v[:, 1] - v[:, 2]) <= 1e-9 * vscale)
    assert np.all(np.abs(d[:, 1] - p.a_R * d[:, 2]) <= 1e-9 * fscale)
    robin = p.a_R * d[:, 3] + p.c * v[:, 3]
    assert np.all(np.abs(robin) <= 1e-9 * np.maximum(vscale, fscale))
    # a lower-order jet is the leading rows of this one
    for order in (1, 2):
        low = eigenfunction_jet(p, config.lam, order).value_matrix(grid)
        assert np.all(_row_error(low[0], vals[:order]) <= 1e-9)
        assert np.all(_row_error(low[1], ders[:order]) <= 1e-9)


def test_roots_in_disc_closed_form():
    # lambda cos(sqrt(lambda)) vanishes at ((k + 1/2) pi)^2: two in [15, 65]
    roots = roots_in_disc(SELFADJOINT, 40.0, 25.0)
    exact = np.array([(1.5 * np.pi) ** 2, (2.5 * np.pi) ** 2])
    assert np.max(np.abs(roots - exact)) <= 1e-12 * np.max(exact)
    assert len(roots_in_disc(SELFADJOINT, 40.0, 15.0)) == 0


def test_roots_in_disc_counts_a_triple_root_three_times():
    roots = roots_in_disc(REGULAR, REGULAR_LAMBDA, 0.5 * abs(REGULAR_LAMBDA))
    assert len(roots) == 3
    # a triple root is resolved only to about eps^(1/3)
    assert np.max(np.abs(roots - REGULAR_LAMBDA)) <= 1e-4 * abs(REGULAR_LAMBDA)


def test_roots_in_disc_across_the_branch_cut_fails_certification():
    with pytest.raises(ContourNotConvergedError):
        roots_in_disc(REGULAR, -3.0 + 1.0j, 2.0)
