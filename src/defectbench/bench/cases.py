"""Built-in benchmark cases with published defective parameter sets.

Each case wraps a verified 1D parameter triple (b, a_R, c) with its
defective eigenvalue of ascent 3.  Tensorization in d dimensions targets
d*lambda with algebraic multiplicity ascent^d (3^d for these cases).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analytic1d import EigenConfig, ModelParams
from ..fem import interval, triangles

__all__ = ["BenchmarkCase", "CASES", "REGULAR_CONFIG", "REDUCED_CONFIG"]

REGULAR_CONFIG = EigenConfig(
    params=ModelParams(
        b=0.5,
        a_R=0.1069220800406739 + 0.08937533852238478j,
        c=-0.9634059612381408 + 0.5989684988897067j,
    ),
    lam=5.250721274740938 + 6.750931815875402j,
    ascent=3,
)

# the coefficient jump at b = 1/3 is never a mesh point: regularity is
# reduced and the approximation space sees the full effect of the jump
REDUCED_CONFIG = EigenConfig(
    params=ModelParams(
        b=1.0 / 3.0,
        a_R=8.834634001449438 + 2.381273183203226j,
        c=-23.62602259938114 + 23.10185194698031j,
    ),
    lam=72.26224904068889 + 65.85698689932984j,
    ascent=3,
)


@dataclass(frozen=True)
class BenchmarkCase:
    """A named experiment: 1D base configuration + dimension + mesh family."""

    id: str
    config: EigenConfig
    dimension: int
    family: str  # "interval" | "tri" | "tensor"
    aligned: bool  # whether meshes place a node/line at the jump

    @property
    def target(self) -> complex:
        return self.dimension * self.config.lam

    @property
    def m_alg(self) -> int:
        return self.config.ascent**self.dimension

    @property
    def degrees(self) -> tuple:
        """Element degrees the case's mesh family assembles."""
        return triangles.DEGREES if self.family == "tri" else interval.DEGREES


CASES = {
    c.id: c
    for c in [
        BenchmarkCase("regular1d", REGULAR_CONFIG, 1, "interval", True),
        BenchmarkCase("reduced1d", REDUCED_CONFIG, 1, "interval", False),
        BenchmarkCase("regular2d_tri", REGULAR_CONFIG, 2, "tri", True),
        BenchmarkCase("reduced2d_tri", REDUCED_CONFIG, 2, "tri", False),
        BenchmarkCase("regular2d_tensor", REGULAR_CONFIG, 2, "tensor", True),
        BenchmarkCase("regular3d_tensor", REGULAR_CONFIG, 3, "tensor", True),
    ]
}
