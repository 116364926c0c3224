"""Newton solver that manufactures defective parameter sets.

Solves gamma_0 = ... = gamma_{nu-1} = 0 in the complex unknowns
(a_R, c, lambda) for fixed breakpoint b.  For nu < 3 the surplus unknowns
are frozen (nu=2: c fixed; nu=1: a_R and c fixed) so that the system stays
square.  The map is holomorphic, so the Jacobian is computed by central
differences with a real step in each complex variable.
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
    "DefectSystem",
    "ForgeReport",
    "SolverDivergedError",
    "LeftAdmissibleRegionError",
    "RankDeficientJacobianError",
    "defect_residual",
    "solve_defect_system",
    "verify_configuration",
    "config_to_json",
]

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
class DefectSystem:
    """Square system gamma_0..gamma_{nu-1} = 0 with frozen extra unknowns."""

    b: float
    nu: int
    a_R: complex
    c: complex
    lam: complex

    def __post_init__(self):
        if self.nu not in (1, 2, 3):
            raise ValueError(f"unsupported defect order nu={self.nu}")


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


def defect_residual(b: float, a_R: complex, c: complex, lam: complex, nu: int,
                    radius: float | None = None) -> np.ndarray:
    """(gamma_0, ..., gamma_{nu-1}) of det M about lam."""
    if nu < 1:
        raise ValueError(f"need nu >= 1, got {nu}")
    if not np.real(a_R) > 0:
        raise ValueError("Re(a_R) must be positive")
    if lam == 0:
        raise ValueError("lambda = 0 is not supported")
    rho = _solver_radius(lam) if radius is None else radius
    # request through gamma_3 so the certification scale is nontrivial even
    # when the leading coefficients vanish at a defective configuration
    gamma = taylor_coefficients(ModelParams(b, a_R, c), lam, max(nu, 3), rho)
    return gamma[:nu]


def _scaled_system(b, nu, radius):
    """Dimensionless residual map F and its scale, at fixed contour radius."""

    def F(a_R, c, lam):
        gamma = taylor_coefficients(
            ModelParams(b, a_R, c), lam, max(nu, 3), radius
        )
        mags = np.abs(gamma) * radius ** np.arange(len(gamma))
        # normalize by the trailing (non-targeted) coefficients: the leading
        # ones are being driven to zero and cannot set the scale
        scale = float(np.max(mags[nu:]))
        res = gamma[:nu] * radius ** np.arange(nu)
        return res / scale, scale

    return F


def solve_defect_system(b: float, nu: int, init, *,
                        freeze_a_R: complex | None = None,
                        freeze_c: complex | None = None) -> ForgeReport:
    """Damped Newton for the defect system; see module docstring.

    init is the (a_R, c, lambda) triple of starting values.  For nu < 3 the
    frozen unknowns are taken from init unless overridden.
    """
    if nu not in (1, 2, 3):
        raise ValueError(f"unsupported defect order nu={nu}")
    a_R, c, lam = (complex(v) for v in init)
    if freeze_a_R is not None:
        a_R = complex(freeze_a_R)
    if freeze_c is not None:
        c = complex(freeze_c)
    if not np.real(a_R) > 0:
        raise LeftAdmissibleRegionError("Re(a_R) <= 0 at start")

    radius = _solver_radius(lam)
    F = _scaled_system(b, nu, radius)
    # active unknowns: lambda always; a_R for nu>=2; c for nu=3
    nactive = nu

    def pack(a_R, c, lam):
        return [lam, a_R, c][:nactive]

    def unpack(z, a_R, c, lam):
        vals = [a_R, c, lam]
        names = [2, 0, 1]  # order: lam, a_R, c
        for i in range(nactive):
            vals[names[i]] = z[i]
        return vals[0], vals[1], vals[2]

    z = np.array(pack(a_R, c, lam), dtype=complex)
    res, scale = F(a_R, c, lam)
    rnorm = float(np.linalg.norm(res))
    history = [rnorm]

    it = 0
    for it in range(1, MAX_ITER + 1):
        if rnorm <= SUCCESS_RTOL:
            break
        # central-difference Jacobian (holomorphic map, real step suffices)
        J = np.empty((nactive, nactive), dtype=complex)
        for j in range(nactive):
            h = FD_STEP * (1.0 + abs(z[j]))
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            fp, _ = F(*unpack(zp, a_R, c, lam))
            fm, _ = F(*unpack(zm, a_R, c, lam))
            J[:, j] = (fp - fm) / (2.0 * h)
        if np.linalg.cond(J) > COND_LIMIT:
            raise RankDeficientJacobianError(
                f"Jacobian condition number {np.linalg.cond(J):.3e}"
            )
        step = np.linalg.solve(J, -res)
        # Armijo backtracking on ||F||
        t = 1.0
        accepted = False
        for _ in range(30):
            z_try = z + t * step
            a_try, c_try, l_try = unpack(z_try, a_R, c, lam)
            if np.real(a_try) > 0 and l_try != 0:
                try:
                    res_try, _ = F(a_try, c_try, l_try)
                except Exception:
                    res_try = None
                if res_try is not None:
                    rn_try = float(np.linalg.norm(res_try))
                    if rn_try <= (1.0 - 1e-4 * t) * rnorm or rn_try <= SUCCESS_RTOL:
                        z, res, rnorm = z_try, res_try, rn_try
                        a_R, c, lam = a_try, c_try, l_try
                        accepted = True
                        break
            t /= 2.0
        if not accepted:
            raise SolverDivergedError(
                f"line search failed at iteration {it} (||F|| = {rnorm:.3e})"
            )
        history.append(rnorm)
    else:
        raise SolverDivergedError(
            f"no convergence within {MAX_ITER} iterations (||F|| = {rnorm:.3e})"
        )

    if not np.real(a_R) > 0:
        raise LeftAdmissibleRegionError("Re(a_R) <= 0 at solution")

    params = ModelParams(b, a_R, c)
    certified = ascent_of(params, lam)
    gamma = taylor_coefficients(params, lam, max(nu, 3), radius)
    mags = np.abs(gamma) * radius ** np.arange(len(gamma))
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
    radius = _solver_radius(lam)
    gamma = taylor_coefficients(params, lam, max(nu, 3), radius)
    mags = np.abs(gamma) * radius ** np.arange(len(gamma))
    scale = float(np.max(mags))
    residuals = list(mags / scale) if scale > 0 else list(mags)
    try:
        certified = ascent_of(params, lam)
        ok = certified == nu
    except (NoRootHereError, ContourNotConvergedError):
        certified = 0
        ok = False
    verified = EigenConfig(params=params, lam=lam, ascent=max(certified, 1),
                           residuals=residuals[: nu + 1])
    rnorm = float(np.linalg.norm(np.array(residuals[:nu]))) if scale > 0 else 0.0
    return ForgeReport(
        solution=verified,
        iterations=0,
        residual_norm=rnorm,
        certified_ascent=certified,
        converged=ok,
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
