"""Newton solver that manufactures defective parameter sets.

Solves gamma_0 = ... = gamma_{nu-1} = 0 in the complex unknowns
(lambda, a_R, c) for fixed breakpoint b.  Only the first nu unknowns are
active (nu=1: lambda; nu=2: lambda and a_R); for nu < 3 the surplus
unknowns stay at their starting values, so that the system stays square.
The map is holomorphic, so the Jacobian is computed by central differences
with a real step in each complex variable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .analytic1d import (
    ContourNotConvergedError,
    EigenConfig,
    ModelParams,
    NoRootHereError,
    ascent_of,
    taylor_coefficients,
)

__all__ = [
    "DEFECT_ORDERS",
    "ForgeReport",
    "SolverDivergedError",
    "LeftAdmissibleRegionError",
    "RankDeficientJacobianError",
    "solve_defect_system",
    "verify_configuration",
    "config_to_json",
]

DEFECT_ORDERS = (1, 2, 3)  # the nu the square system can be posed for
SUCCESS_RTOL = 1e-10
MAX_ITER = 50
FD_STEP = 1e-6
COND_LIMIT = 1e14


class SolverDivergedError(RuntimeError):
    pass


class LeftAdmissibleRegionError(RuntimeError):
    pass


class RankDeficientJacobianError(RuntimeError):
    pass


@dataclass
class ForgeReport:
    solution: EigenConfig
    iterations: int
    residual_norm: float
    certified_ascent: int
    converged: bool = True


def _solver_radius(lam: complex) -> float:
    # larger than the module default: the 1e-10 success bound must sit above
    # the double-precision evaluation noise of the contour coefficients
    return max(0.1, 1e-2 * abs(lam))


def _scaled_coefficients(params: ModelParams, lam, nu: int, radius: float):
    """gamma_0..gamma_max(nu,3) of det M about lam and |gamma_l| radius^l.

    The request runs through gamma_3 so that the scale is nontrivial even
    when the leading coefficients vanish at a defective configuration.
    """
    gamma = taylor_coefficients(params, lam, max(nu, 3), radius)
    return gamma, np.abs(gamma) * radius ** np.arange(len(gamma))


def solve_defect_system(b: float, nu: int, init) -> ForgeReport:
    """Damped Newton for the defect system; see module docstring.

    init is the (a_R, c, lambda) triple of starting values.
    """
    if nu not in DEFECT_ORDERS:
        raise ValueError(f"unsupported defect order nu={nu}")
    a_R, c, lam = (complex(v) for v in init)
    if not np.real(a_R) > 0:
        raise LeftAdmissibleRegionError("Re(a_R) <= 0 at start")
    radius = _solver_radius(lam)

    def F(x):
        """Dimensionless residual of the unknowns x = (lambda, a_R, c)."""
        gamma, mags = _scaled_coefficients(ModelParams(b, x[1], x[2]), x[0],
                                           nu, radius)
        # normalize by the trailing (non-targeted) coefficients: the leading
        # ones are being driven to zero and cannot set the scale
        return gamma[:nu] * radius ** np.arange(nu) / float(np.max(mags[nu:]))

    x = np.array([lam, a_R, c])
    res = F(x)
    rnorm = float(np.linalg.norm(res))

    it = 0
    for it in range(1, MAX_ITER + 1):
        if rnorm <= SUCCESS_RTOL:
            break
        # central-difference Jacobian (holomorphic map, real step suffices)
        J = np.empty((nu, nu), dtype=complex)
        for j in range(nu):
            h = FD_STEP * (1.0 + abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            J[:, j] = (F(xp) - F(xm)) / (2.0 * h)
        cond = np.linalg.cond(J)
        if cond > COND_LIMIT:
            raise RankDeficientJacobianError(
                f"Jacobian condition number {cond:.3e}"
            )
        step = np.linalg.solve(J, -res)
        # Armijo backtracking on ||F||
        t = 1.0
        for _ in range(30):
            x_try = x.copy()
            x_try[:nu] += t * step
            rn_try = np.inf
            if np.real(x_try[1]) > 0 and x_try[0] != 0:
                try:
                    res_try = F(x_try)
                except ContourNotConvergedError:
                    pass  # too long a step: the contour rule fails there
                else:
                    rn_try = float(np.linalg.norm(res_try))
            if rn_try <= (1.0 - 1e-4 * t) * rnorm or rn_try <= SUCCESS_RTOL:
                x, res, rnorm = x_try, res_try, rn_try
                break
            t /= 2.0
        else:
            raise SolverDivergedError(
                f"line search failed at iteration {it} (||F|| = {rnorm:.3e})"
            )
    else:
        raise SolverDivergedError(
            f"no convergence within {MAX_ITER} iterations (||F|| = {rnorm:.3e})"
        )

    lam, a_R, c = x
    params = ModelParams(b, a_R, c)
    certified = ascent_of(params, lam)
    _, mags = _scaled_coefficients(params, lam, nu, radius)
    residuals = list(mags[: nu + 1] / np.max(mags))
    config = EigenConfig(params=params, lam=lam, ascent=certified,
                         residuals=residuals)
    return ForgeReport(
        solution=config,
        iterations=it,
        residual_norm=rnorm,
        certified_ascent=certified,
    )


def verify_configuration(config: EigenConfig) -> ForgeReport:
    """Recompute gamma_0..gamma_nu and the certified ascent for a config."""
    params, lam, nu = config.params, config.lam, config.ascent
    # a set whose contour rule does not converge is uncertified: ascent 0
    residuals, rnorm, certified = [], float("nan"), 0
    try:
        _, mags = _scaled_coefficients(params, lam, nu, _solver_radius(lam))
        scale = float(np.max(mags))
        residuals = list(mags / scale) if scale > 0 else list(mags)
        rnorm = float(np.linalg.norm(mags[:nu] / scale)) if scale > 0 else 0.0
        certified = ascent_of(params, lam)
    except (NoRootHereError, ContourNotConvergedError):
        pass
    verified = EigenConfig(params=params, lam=lam, ascent=max(certified, 1),
                           residuals=residuals[: nu + 1])
    return ForgeReport(
        solution=verified,
        iterations=0,
        residual_norm=rnorm,
        certified_ascent=certified,
        converged=certified == nu,
    )


def _cplx(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def config_to_json(config: EigenConfig) -> str:
    """Serialize a parameter set in the wire format used by the CLI."""
    doc = {
        "b": float(config.params.b),
        "a_R": _cplx(config.params.a_R),
        "c": _cplx(config.params.c),
        "lambda": _cplx(config.lam),
        "ascent": int(config.ascent),
        "residuals": [float(r) for r in config.residuals],
    }
    return json.dumps(doc, indent=2)
