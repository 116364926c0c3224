"""Complex sesquilinear-form pencils: 1D, tensorized, and triangular."""

from .common import Pencil
from .error_norms import h1_error
from .interval import Function1D, assemble_interval
from .tensor import assemble_tensor
from .triangles import Coefficient2D, assemble_triangles

__all__ = [
    "Pencil",
    "assemble_interval",
    "assemble_tensor",
    "assemble_triangles",
    "Coefficient2D",
    "Function1D",
    "h1_error",
]
