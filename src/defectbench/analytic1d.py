"""Closed-form machinery for the 1D transmission eigenvalue problem.

The operator is -(a u')' on (0,1) with a = 1 on (0,b) and a = a_R on (b,1),
a Dirichlet condition at x=0 and the Robin condition a_R u'(1) + c u(1) = 0.
Eigenvalues are the roots of the determinant of a 2x2 transmission matrix;
the order of the zero equals the ascent of the eigenvalue, and the
generalized eigenfunctions are lambda-derivatives of the eigenfunction
family, evaluated exactly in x by a series in the shift of the square
roots: only their x-free coefficients come from a contour.  All contour
integrals use the trapezoid rule on circles, certified by node doubling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ModelParams",
    "EigenConfig",
    "FundamentalValues",
    "Jet",
    "ContourNotConvergedError",
    "NoRootHereError",
    "DegenerateParametrizationError",
    "fundamental_solutions",
    "transmission_matrix",
    "det_transmission",
    "taylor_coefficients",
    "default_radius",
    "ascent_of",
    "roots_in_disc",
    "eigenfunction_jet",
]

NODES = 64  # trapezoid nodes of the first pass; doubled up to MAX_NODES
MAX_NODES = 16 * NODES
ASCENT_TOL = 1e-6
CERT_RTOL = 1e-8
MAX_ORDER = 6  # highest zero order ascent_of looks for
# degree of the Taylor polynomial whose roots start Newton in roots_in_disc;
# its scaled tail is ~1e-15 on the published sets at radius |lambda|/2
ROOT_ORDER = 16
NEWTON_STEPS = 8


class ContourNotConvergedError(RuntimeError):
    """Node doubling changed a requested Taylor coefficient too much."""


class NoRootHereError(RuntimeError):
    """ascent_of was called at a point that is not a root of det M."""


class DegenerateParametrizationError(RuntimeError):
    """Both candidate null vectors of M vanish (invalid input)."""


@dataclass(frozen=True)
class ModelParams:
    """Benchmark-defining triple: breakpoint b, right diffusion a_R, Robin c.

    The diffusion on (0, b) is fixed to 1.
    """

    b: float
    a_R: complex
    c: complex

    def __post_init__(self):
        if not 0.0 < self.b < 1.0:
            raise ValueError(f"b must be in (0,1), got {self.b}")
        if not np.real(self.a_R) > 0.0:
            raise ValueError(f"Re(a_R) must be positive, got {self.a_R}")

    def a(self, x):
        """Diffusion coefficient at x: 1 for x <= b, a_R beyond."""
        return np.where(np.asarray(x) <= self.b, 1.0 + 0.0j, self.a_R)


@dataclass
class EigenConfig:
    """A parameter set together with its eigenvalue and certified ascent."""

    params: ModelParams
    lam: complex
    ascent: int
    residuals: list = field(default_factory=list)

    def __post_init__(self):
        if self.lam == 0:
            raise ValueError("lambda = 0 is not supported")
        if self.ascent < 1:
            raise ValueError("ascent must be >= 1")


@dataclass
class FundamentalValues:
    """Values of v^L, v^R and their x-derivatives at a point."""

    vL: complex
    dvL: complex
    vR: complex
    dvR: complex


def _mu(params: ModelParams, lam):
    """Principal square roots sqrt(lambda), sqrt(lambda / a_R)."""
    lam = np.asarray(lam, dtype=complex)
    return np.sqrt(lam), np.sqrt(lam / params.a_R)


def _vR_coeffs(params: ModelParams, lam):
    """Coefficients (c1, c2) of v^R = c1 sin(mu_R x) + c2 cos(mu_R x).

    Chosen so that a_R dv^R(1) + c v^R(1) = 0 (the stated Robin condition;
    the sign convention makes v^R(x) = mu cos(mu(1-x)) for a_R=1, c=0).
    """
    a_R, c = params.a_R, params.c
    _, muR = _mu(params, lam)
    c1 = a_R * muR * np.sin(muR) - c * np.cos(muR)
    c2 = a_R * muR * np.cos(muR) + c * np.sin(muR)
    return c1, c2


def fundamental_solutions(params: ModelParams, lam, x) -> FundamentalValues:
    """Evaluate v^L = sin(mu_L x), v^R and their x-derivatives at x."""
    muL, muR = _mu(params, lam)
    c1, c2 = _vR_coeffs(params, lam)
    x = np.asarray(x, dtype=float)
    s, c = np.sin(muR * x), np.cos(muR * x)
    return FundamentalValues(vL=np.sin(muL * x), dvL=muL * np.cos(muL * x),
                             vR=c1 * s + c2 * c, dvR=muR * (c1 * c - c2 * s))


def transmission_matrix(params: ModelParams, lam: complex) -> np.ndarray:
    """2x2 matrix coupling the left/right ansatz coefficients at x=b."""
    f = fundamental_solutions(params, lam, params.b)
    return np.array(
        [[f.vL, -f.vR], [f.dvL, -params.a_R * f.dvR]], dtype=complex
    )


def det_transmission(params: ModelParams, lam) -> complex:
    """det of the transmission matrix; lambda is an eigenvalue iff zero.

    Vectorized over lam.  Up to a global sign this is independent of the
    square-root branch.
    """
    f = fundamental_solutions(params, lam, params.b)
    return f.vL * (-params.a_R * f.dvR) + f.vR * f.dvL


def default_radius(lam0: complex) -> float:
    """Scale-aware default contour radius."""
    return max(1e-2, 1e-3 * abs(lam0))


def _certified_taylor(f, lam0, n, radius):
    """Taylor coefficients 0..n about lam0 of f, certified by node doubling.

    f maps contour points to values, scalar or stacked in rows; the trapezoid
    rule on |lambda - lam0| = radius is applied to Cauchy's integral until a
    doubled node count changes no scaled coefficient |gamma_l| radius^l by
    more than CERT_RTOL of the largest.  The count may double a few times, so
    that large |lam0| (fast oscillation on the circle) stays usable.
    Returns the coefficients, the contour offsets and f at those nodes.
    """
    ell = np.arange(n + 1)

    def trapezoid(m):
        theta = 2.0 * np.pi * np.arange(m) / m
        z = radius * np.exp(1j * theta)
        fv = f(lam0 + z)
        # gamma_l = (1/m) sum_k f_k exp(-i l theta_k) / radius^l
        phase = np.exp(-1j * np.outer(ell, theta))
        return (phase @ fv.T).T / m / radius**ell, z, fv

    g1, _, _ = trapezoid(NODES)
    m = 2 * NODES
    while True:
        g2, z, fv = trapezoid(m)
        scale = np.max(np.abs(g2) * radius**ell)
        diff = np.abs(g2 - g1) * radius**ell
        if scale == 0.0 or np.all(diff <= CERT_RTOL * scale):
            return g2, z, fv
        if m >= MAX_NODES:
            raise ContourNotConvergedError(
                f"contour rule not converged at nodes={m} "
                f"(max scaled change {np.max(diff) / scale:.3e})"
            )
        g1, m = g2, 2 * m


def taylor_coefficients(
    params: ModelParams, lambda0: complex, n: int, radius: float
) -> np.ndarray:
    """Taylor coefficients gamma_0..gamma_n of det M about lambda0.

    Computed by the trapezoid rule on |lambda - lambda0| = radius applied to
    Cauchy's integral; certified by agreement with a doubled node count.
    """
    if n < 0 or radius <= 0:
        raise ValueError("need n >= 0, radius > 0")
    gamma, _, _ = _certified_taylor(
        lambda z: det_transmission(params, z), lambda0, n, radius
    )
    return gamma


def scaled_magnitudes(gamma: np.ndarray, radius: float) -> np.ndarray:
    """|gamma_l| radius^l normalized by the dominant term (dimensionless)."""
    ell = np.arange(len(gamma))
    mags = np.abs(gamma) * radius**ell
    top = np.max(mags)
    return mags / top if top > 0 else mags


def ascent_of(params: ModelParams, lambda0: complex) -> int:
    """Order of the zero of det M at lambda0 (= ascent of the eigenvalue)."""
    rho = default_radius(lambda0)
    gamma = taylor_coefficients(params, lambda0, MAX_ORDER, rho)
    mags = scaled_magnitudes(gamma, rho)
    if mags[0] > ASCENT_TOL:
        raise NoRootHereError(
            f"det M does not vanish at {lambda0} (scaled |gamma_0| = {mags[0]:.3e})"
        )
    for ell in range(1, MAX_ORDER + 1):
        if mags[ell] > ASCENT_TOL:
            return ell
    raise NoRootHereError(
        f"no nonvanishing Taylor coefficient up to order {MAX_ORDER}"
    )


def roots_in_disc(params: ModelParams, center: complex,
                  radius: float) -> np.ndarray:
    """Roots of det M in |lambda - center| < radius, sorted.

    Their number is the winding number of det M on the certified contour.
    They start at the roots of the Taylor polynomial nearest the centre, and
    Newton steps on det M polish each while the step lowers |det M|.  A disc
    that crosses a branch cut of the square roots fails certification.
    """
    gamma, _, fv = _certified_taylor(
        lambda z: det_transmission(params, z), center, ROOT_ORDER, radius
    )
    count = round(np.sum(np.angle(np.roll(fv, -1) / fv)) / (2 * np.pi))
    poly = (gamma * radius ** np.arange(ROOT_ORDER + 1))[::-1]
    w = np.roots(poly)
    lam = center + radius * w[np.argsort(np.abs(w))[:count]]
    for _ in range(NEWTON_STEPS):
        val = det_transmission(params, lam)
        step = radius * val / np.polyval(np.polyder(poly), (lam - center) / radius)
        lower = np.abs(det_transmission(params, lam - step)) < np.abs(val)
        lam = np.where(lower, lam - step, lam)
    return np.sort_complex(lam)


def _shifted_series(mu0, x, order):
    """Rows n < order of x^n/n! sin(mu0 x + n pi/2) and of the same with cos.

    Weighted by delta^n and summed over n they give sin((mu0 + delta) x) and
    cos((mu0 + delta) x), from one sin and one cos of mu0 x per point.
    """
    s, c = np.sin(mu0 * x), np.cos(mu0 * x)
    quarter = (s, c, -s, -c)  # sin(mu0 x + n pi/2) for n mod 4
    shifted = np.array([quarter[n % 4] for n in range(order + 1)])
    powers = np.array([x**n / math.factorial(n) for n in range(order)])
    return powers * shifted[:-1], powers * shifted[1:]


@dataclass
class Jet:
    """Generalized-eigenfunction jet w_l = d^{l-1} u / d lambda^{l-1}.

    value_matrix evaluates (w_l, w_l') for l = 1..order at points of [0,1].
    The family u(lambda, x) uses the smooth null-vector parametrization
    (A1, A2) of the transmission matrix: u = A1 sin(mu_L x) for x <= b and
    u = A2 (c1 sin(mu_R x) + c2 cos(mu_R x)) beyond.  With delta = mu(lambda)
    - mu(lambda0) on each side, sin(mu x) is the series over n of
    (delta x)^n / n! sin(mu0 x + n pi/2), and cos alike.  As delta =
    O(lambda - lambda0), the terms n < order give every Taylor coefficient
    the jet needs exactly; the coefficients of the x-free factors (A1 delta^n
    and the like) come once from the certified contour, so an evaluation is
    one sin and one cos of mu0 x per point and small matrix products.

    At the default radius, rows beyond w_3 lose about three digits per order
    (against a 40-digit reference, w_4..w_6 are off by up to 1e-7, 2e-4 and
    1.4e-1 relative on the published sets), as did the earlier evaluation
    at every contour node; a use of them needs a larger radius.
    """

    params: ModelParams
    lam0: complex
    order: int
    # [k, l-1, n] = (l-1)! times Taylor coefficient l-1 of F_k delta^n, for
    # F = (A1, A1 mu_L, A2 c1, A2 c2, A2 mu_R c1, A2 mu_R c2)
    _coeffs: np.ndarray

    def value_matrix(self, x):
        """(order, nx) arrays of w_l values and derivatives at points x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        left = x <= self.params.b
        muL, muR = _mu(self.params, self.lam0)
        a1, da1, c1, c2, dc1, dc2 = self._coeffs
        val = np.empty((self.order, len(x)), dtype=complex)
        der = np.empty_like(val)
        s, c = _shifted_series(muL, x[left], self.order)
        val[:, left], der[:, left] = a1 @ s, da1 @ c
        s, c = _shifted_series(muR, x[~left], self.order)
        val[:, ~left], der[:, ~left] = c1 @ s + c2 @ c, dc1 @ c - dc2 @ s
        return val, der


def eigenfunction_jet(params: ModelParams, lambda0: complex, order: int) -> Jet:
    """Jet of generalized eigenfunctions w_1..w_order at the root lambda0."""
    if order < 1:
        raise ValueError("order must be >= 1")
    rho = default_radius(lambda0)

    M0 = transmission_matrix(params, lambda0)
    norm = np.max(np.abs(M0))
    if norm == 0.0:
        raise DegenerateParametrizationError("transmission matrix is zero")
    # smooth null-vector family: (A1, A2) = (M12, -M11), fallback (M22, -M21)
    use_first = max(abs(M0[0, 1]), abs(M0[0, 0])) > 1e-12 * norm
    muL0, muR0 = _mu(params, lambda0)
    n = np.arange(order)[:, None]

    def series_factors(lam):
        f = fundamental_solutions(params, lam, params.b)
        if use_first:
            A1, A2 = -f.vR, -f.vL
        else:
            A1, A2 = -params.a_R * f.dvR, -f.dvL
        muL, muR = _mu(params, lam)
        c1, c2 = _vR_coeffs(params, lam)
        left = A1 * (muL - muL0) ** n
        right = A2 * (muR - muR0) ** n
        return np.concatenate([left, muL * left, c1 * right, c2 * right,
                               muR * c1 * right, muR * c2 * right])

    # w_l = (l-1)! * (Taylor coefficient l-1 of u(lambda, x)); a factor with
    # delta^n has no Taylor coefficient below n
    gamma, _, _ = _certified_taylor(series_factors, lambda0, order - 1, rho)
    fact = np.array([float(math.factorial(k)) for k in range(order)])
    coeffs = fact[:, None] * gamma.reshape(6, order, order).transpose(0, 2, 1)
    return Jet(params=params, lam0=lambda0, order=order, _coeffs=np.tril(coeffs))
