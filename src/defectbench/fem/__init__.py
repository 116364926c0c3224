"""Complex sesquilinear-form pencils: 1D, tensorized, and triangular."""

from .common import Pencil
from .interval import assemble_interval, h1_error
from .tensor import assemble_tensor
from .triangles import assemble_triangles

__all__ = [
    "Pencil",
    "assemble_interval",
    "assemble_tensor",
    "assemble_triangles",
    "h1_error",
]
