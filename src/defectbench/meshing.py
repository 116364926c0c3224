"""Interval meshes and NVB-refined triangulations.

Triangles are stored as vertex-index triples (v0, v1, v2) where the
refinement edge is (v0, v1) and v2 is the newest vertex.  Newest-vertex
bisection of (v0, v1, v2) with edge midpoint m produces (v2, v0, m) and
(v1, v2, m).  Boundary tags on the unit square follow the geometric rule:
Dirichlet on {x=0} and {y=0}, Robin on {x=1} and {y=1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "IntervalMesh",
    "TriMesh",
    "uniform_interval_mesh",
    "initial_square_triangulation",
    "nvb_refine",
]

DIRICHLET = "DIRICHLET"
ROBIN = "ROBIN"
_GEOM_TOL = 1e-12


@dataclass(frozen=True)
class IntervalMesh:
    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes[0] != 0.0 or nodes[-1] != 1.0 or np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must increase strictly from 0 to 1")

    @property
    def n_elements(self) -> int:
        return len(self.nodes) - 1

    @property
    def h(self) -> float:
        return float(np.max(np.diff(self.nodes)))


def uniform_interval_mesh(n: int, force_node: float | None = None) -> IntervalMesh:
    """n equal elements on [0,1], optionally with an extra node inserted."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    nodes = np.linspace(0.0, 1.0, n + 1)
    if force_node is not None:
        if not 0.0 < force_node < 1.0:
            raise ValueError("force_node must be in (0,1)")
        if not np.any(np.abs(nodes - force_node) <= _GEOM_TOL):
            nodes = np.sort(np.append(nodes, force_node))
    return IntervalMesh(nodes=nodes)


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangulation of the unit square.

    vertices: (nv, 2) float array; triangles: (nt, 3) int array with the
    refinement-edge convention from the module docstring.
    """

    vertices: np.ndarray
    triangles: np.ndarray

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def edges(self):
        """All unique edges as sorted vertex pairs, plus per-triangle edges.

        Returns (uniq, tri_edge_ids, counts): uniq (ne, 2) lexicographically
        sorted with uniq[:, 0] < uniq[:, 1]; tri_edge_ids (nt, 3) indexes
        uniq for the local edges (0,1), (1,2), (2,0); counts (ne,) is 1 on
        the boundary and 2 inside.  Computed once per mesh and read-only.
        """
        return self._edges

    @cached_property
    def _edges(self):
        nv = len(self.vertices)
        t = self.triangles
        a, b = t, t[:, [1, 2, 0]]
        # the int64 key min*nv + max sorts exactly like the pair (min, max)
        keys = (np.minimum(a, b).astype(np.int64) * nv
                + np.maximum(a, b)).ravel()
        ukeys, inv, counts = np.unique(
            keys, return_inverse=True, return_counts=True
        )
        edges = (np.column_stack([ukeys // nv, ukeys % nv]),
                 inv.reshape(-1, 3), counts)
        for arr in edges:
            arr.setflags(write=False)
        return edges

    def boundary_edges(self):
        """(ne, 2) boundary edges with their tags, by the geometric rule."""
        uniq, _, counts = self.edges()
        bnd = uniq[counts == 1]
        p, q = self.vertices[bnd[:, 0]], self.vertices[bnd[:, 1]]

        def on_line(axis, value):
            return (np.abs(p[:, axis] - value) <= _GEOM_TOL) & (
                np.abs(q[:, axis] - value) <= _GEOM_TOL
            )

        dirichlet = on_line(0, 0.0) | on_line(1, 0.0)
        robin = on_line(0, 1.0) | on_line(1, 1.0)
        off = ~(dirichlet | robin)
        if off.any():
            e = bnd[np.argmax(off)]
            raise ValueError(f"boundary edge {e} not on the unit square")
        tags = [DIRICHLET if d else ROBIN for d in dirichlet]
        return bnd, tags


def initial_square_triangulation(n0: int) -> TriMesh:
    """n0 x n0 squares, each split by the bottom-left to top-right diagonal.

    The diagonal is the longest edge and becomes the refinement edge.
    """
    if n0 < 1:
        raise ValueError(f"need n0 >= 1, got {n0}")
    xs = np.linspace(0.0, 1.0, n0 + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):  # column i, row j
        return j * (n0 + 1) + i

    tris = []
    for j in range(n0):
        for i in range(n0):
            bl, br = vid(i, j), vid(i + 1, j)
            tl, tr = vid(i, j + 1), vid(i + 1, j + 1)
            # diagonal bl-tr is the refinement edge of both children;
            # vertex order keeps the orientation positive
            tris.append((tr, bl, br))
            tris.append((bl, tr, tl))
    return TriMesh(vertices=vertices, triangles=np.array(tris, dtype=np.int64))


def nvb_refine(mesh: TriMesh, marked) -> TriMesh:
    """Newest-vertex bisection of marked triangles + conforming closure."""
    marked = np.unique(np.asarray(list(marked), dtype=np.int64))
    if not len(marked):
        return mesh
    t = mesh.triangles
    uniq_edges, tri_edge_ids, _ = mesh.edges()
    # tri_edge_ids[:, 0] is the refinement edge (v0, v1)

    # closure: any triangle touching a marked edge must have its refinement
    # edge marked too
    edge_marked = np.zeros(len(uniq_edges), dtype=bool)
    edge_marked[tri_edge_ids[marked, 0]] = True
    while True:
        touches = edge_marked[tri_edge_ids].any(axis=1)
        need = touches & ~edge_marked[tri_edge_ids[:, 0]]
        if not need.any():
            break
        edge_marked[tri_edge_ids[need, 0]] = True

    # midpoints for all marked edges, numbered in edge order
    nv = len(mesh.vertices)
    marked_ids = np.flatnonzero(edge_marked)
    mid_of = np.full(len(uniq_edges), -1, dtype=np.int64)
    mid_of[marked_ids] = nv + np.arange(len(marked_ids))
    midpoints = 0.5 * (
        mesh.vertices[uniq_edges[marked_ids, 0]]
        + mesh.vertices[uniq_edges[marked_ids, 1]]
    )
    vertices = np.vstack([mesh.vertices, midpoints])

    # bisecting (v0, v1, v2) at m gives A = (v2, v0, m) and B = (v1, v2, m),
    # whose refinement edges are the parent's edges 2 and 1.  Their other
    # edges contain m, which no marked edge does, so a triangle splits into
    # at most four children, emitted in the order A0, A1, B0, B1 (A0 = A and
    # B0 = B when those are not bisected again).
    v0, v1, v2 = t[:, 0], t[:, 1], t[:, 2]
    split0 = edge_marked[tri_edge_ids[:, 0]]
    split2 = split0 & edge_marked[tri_edge_ids[:, 2]]
    split1 = split0 & edge_marked[tri_edge_ids[:, 1]]
    m = mid_of[tri_edge_ids[:, 0]]
    m2, m1 = mid_of[tri_edge_ids[:, 2]], mid_of[tri_edge_ids[:, 1]]
    kids = np.empty((len(t), 4, 3), dtype=np.int64)
    kids[:, 0] = np.where(
        split2[:, None],
        np.column_stack([m, v2, m2]),
        np.column_stack([v2, v0, m]),
    )
    kids[:, 1] = np.column_stack([v0, m, m2])
    kids[:, 2] = np.where(
        split1[:, None],
        np.column_stack([m, v1, m1]),
        np.column_stack([v1, v2, m]),
    )
    kids[:, 3] = np.column_stack([v2, m, m1])
    kids[~split0, 0] = t[~split0]
    keep = np.column_stack([np.ones(len(t), dtype=bool), split2, split0, split1])
    return TriMesh(vertices=vertices, triangles=kids[keep])
