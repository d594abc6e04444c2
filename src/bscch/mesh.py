"""Triangulated unit disk with an ordered boundary loop as the surface mesh.

The generator is fully deterministic: a polar construction with one center
vertex, ``nr`` concentric rings of ``nb`` vertices each, a fan of triangles
around the center and two triangles per angular sector between rings.  The
outermost ring, in counterclockwise angular order, is the discrete surface.
Meshes are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidArgument, ValidationError

FORMAT_HEADER = "bscch-mesh 1"


@dataclass(frozen=True)
class CsrPattern:
    """m x n CSR pattern of (row, col) entries, entry k at data[slot[k]]: each row's
    columns sorted and distinct, int32 indices (the canonical form of scipy's CSR)."""

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    slot: np.ndarray


def csr_pattern(rows, cols, shape) -> CsrPattern:
    m, n = shape
    entries = np.ravel(rows).astype(np.int64) * n + np.ravel(cols)
    keys = np.sort(entries)  # np.unique takes ten times as long here, and more memory
    keys = keys[np.diff(keys, prepend=-1) != 0]
    indptr = np.searchsorted(keys, np.arange(m + 1) * n).astype(np.int32)
    return CsrPattern(shape, indptr, (keys % n).astype(np.int32), np.searchsorted(keys, entries))


@dataclass(frozen=True)
class MeshGeometry:
    """P1 element data of a mesh, computed once per mesh.

    Triangle arrays are indexed by triangle.  Boundary edge ``k`` joins the
    loop positions ``edge_pos[k] = (k, k + 1 mod B)``.  The patterns place
    each local entry of a 3x3 triangle or 2x2 edge matrix (row index varying
    slowest) in the CSR data of the V x V or B x B matrix.
    """

    areas: np.ndarray  # (T,) signed areas
    grads: np.ndarray  # (T, 3, 2) constant P1 basis gradients
    gdot: np.ndarray  # (T, 3, 3) grad N_i . grad N_j
    centroids: np.ndarray  # (T, 2)
    tri_pattern: CsrPattern  # vertex indices
    edge_pos: np.ndarray  # (B, 2) loop positions
    edge_pattern: CsrPattern  # loop positions
    tangents: np.ndarray  # (B, 2) edge vectors, counterclockwise
    lengths: np.ndarray  # (B,)


def _element_geometry(vertices, triangles, loop) -> MeshGeometry:
    p = vertices[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    # grad N_i = rot90 of the opposite edge / (2A); degenerate triangles
    # are rejected by validate_mesh, which reads these areas
    e = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        grads = np.stack([-e[:, :, 1], e[:, :, 0]], axis=2) / (2.0 * areas)[:, None, None]
    b = len(loop)
    pe = np.stack([np.arange(b), (np.arange(b) + 1) % b], axis=1)
    pts = vertices[loop]
    tangents = pts[pe[:, 1]] - pts[pe[:, 0]]
    return MeshGeometry(
        areas=areas,
        grads=grads,
        gdot=np.einsum("tid,tjd->tij", grads, grads),
        centroids=p.mean(axis=1),
        tri_pattern=csr_pattern(np.repeat(triangles, 3, axis=1), np.tile(triangles, (1, 3)),
                                (len(vertices),) * 2),
        edge_pos=pe,
        edge_pattern=csr_pattern(np.repeat(pe, 2, axis=1), np.tile(pe, (1, 2)), (b, b)),
        tangents=tangents,
        lengths=np.linalg.norm(tangents, axis=1),
    )


@dataclass(frozen=True)
class TriMesh:
    vertices: np.ndarray  # (V, 2)
    triangles: np.ndarray  # (T, 3), counterclockwise
    boundary_loop: np.ndarray  # (B,) ordered closed cycle, counterclockwise

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.ascontiguousarray(self.vertices, dtype=float))
        object.__setattr__(self, "triangles", np.ascontiguousarray(self.triangles, dtype=np.int64))
        object.__setattr__(self, "boundary_loop", np.ascontiguousarray(self.boundary_loop, dtype=np.int64))
        validate_mesh(self)

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_boundary(self):
        return self.boundary_loop.shape[0]

    @cached_property
    def geometry(self) -> MeshGeometry:
        return _element_geometry(self.vertices, self.triangles, self.boundary_loop)


def validate_mesh(mesh: TriMesh):
    """Raise ValidationError if any structural invariant is violated."""
    v, t, loop = mesh.vertices, mesh.triangles, mesh.boundary_loop
    if v.ndim != 2 or v.shape[1] != 2:
        raise ValidationError("vertices must be an (V,2) array")
    if not np.all(np.isfinite(v)):
        raise ValidationError("non-finite vertex coordinates")
    if t.size and (t.min() < 0 or t.max() >= len(v)):
        raise ValidationError("triangle vertex index out of range")
    if loop.size and (loop.min() < 0 or loop.max() >= len(v)):
        raise ValidationError("boundary index out of range")
    # a vertex of no triangle has an empty stiffness row, which no step can solve for
    unused = np.flatnonzero(np.bincount(t.ravel(), minlength=len(v)) == 0)
    if unused.size:
        raise ValidationError(f"vertex {unused[0]} belongs to no triangle")
    ordered = np.sort(loop)  # np.unique would execute numpy.ma
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValidationError("boundary loop visits a vertex twice")

    g = mesh.geometry
    if np.any(g.areas <= 0):
        raise ValidationError("triangle with non-positive signed area (clockwise or degenerate)")

    # each boundary edge must belong to exactly one triangle, and the loop
    # must be the full set of single-triangle edges
    def edge_keys(pairs):
        return np.min(pairs, axis=1) * len(v) + np.max(pairs, axis=1)

    keys, counts = np.unique(edge_keys(t[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)), return_counts=True)
    if np.any(counts > 2):
        raise ValidationError("non-manifold edge")
    loop_keys = np.sort(edge_keys(loop[g.edge_pos]))
    if not np.array_equal(loop_keys[np.diff(loop_keys, prepend=-1) != 0], keys[counts == 1]):
        raise ValidationError("boundary loop is not the closed cycle of boundary edges")

    # counterclockwise orientation of the loop (positive polygon area)
    x, y = v[loop, 0], v[loop, 1]
    poly_area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    if poly_area <= 0:
        raise ValidationError("boundary loop is not counterclockwise")


def generate_disk_mesh(nb: int, nr: int) -> TriMesh:
    """Polar triangulation of the unit disk.

    ``nb`` vertices per ring (even, >= 8), ``nr`` rings.  Produces
    1 + nb*nr vertices and nb*(2nr - 1) triangles; every boundary vertex
    sits exactly on the unit circle.
    """
    if nb < 8 or nb % 2 != 0:
        raise InvalidArgument("nb must be an even integer >= 8")
    if nr < 1:
        raise InvalidArgument("nr must be >= 1")

    angles = 2.0 * np.pi * np.arange(nb) / nb
    rad = np.arange(1, nr + 1)[:, None] / nr
    rings = np.stack([rad * np.cos(angles), rad * np.sin(angles)], axis=2).reshape(-1, 2)
    vertices = np.concatenate([np.zeros((1, 2)), rings], axis=0)

    j = np.arange(nb)
    ring = 1 + np.arange(nr)[:, None] * nb  # first vertex of each ring
    a, b = ring + j, ring + (j + 1) % nb  # (ring, sector) -> vertex at angle j, j + 1
    fan = np.stack([np.zeros(nb, dtype=np.int64), a[0], b[0]], axis=1)
    # two triangles per sector between rings k and k + 1, in sector order
    band = np.stack([a[:-1], a[1:], b[1:], a[:-1], b[1:], b[:-1]], axis=2).reshape(-1, 3)
    triangles = np.concatenate([fan, band]).astype(np.int64)
    return TriMesh(vertices=vertices, triangles=triangles, boundary_loop=a[-1])


def mesh_stats(mesh: TriMesh):
    """(h_max, min_angle): the longest edge and the smallest corner angle in degrees.  The
    edge opposite corner i has length 2A |grad N_i|; the angle at i has cosine
    -grad N_j . grad N_k / (|grad N_j| |grad N_k|)."""
    g = mesh.geometry
    norm = np.sqrt(np.einsum("tii->ti", g.gdot))
    j, k = [1, 2, 0], [2, 0, 1]
    cosang = -g.gdot[:, j, k] / (norm[:, j] * norm[:, k])
    h_max = float((2.0 * g.areas[:, None] * norm).max())
    return h_max, float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))).min())


def write_mesh(mesh: TriMesh, path):
    """ASCII mesh file: header, counts, coordinates (17 significant digits),
    triangles, boundary loop."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(FORMAT_HEADER + "\n")
        fh.write(f"{mesh.n_vertices} {len(mesh.triangles)} {mesh.n_boundary}\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")
        for i in mesh.boundary_loop:
            fh.write(f"{i}\n")

