"""Serialization of time series (CSV) and field snapshots (legacy VTK)."""

from __future__ import annotations

import os

from .diagnostics import CSV_FIELDS


def _fmt(value) -> str:
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return str(value)
    return "%.17g" % float(value)


def write_series(path, records):
    """Write diagnostics records as CSV with the fixed schema."""
    with open(path, "w") as fh:
        fh.write(",".join(CSV_FIELDS) + "\n")
        for rec in records:
            fh.write(",".join(_fmt(v) for v in rec.as_row()) + "\n")


def _rows(row_format, array):
    """One formatted line per row of ``array``, with one format operation."""
    return (row_format * len(array)) % tuple(array.ravel().tolist())


def _bulk_geometry(mesh):
    """Legacy VTK unstructured grid of the triangulation, up to POINT_DATA."""
    n, m = mesh.n_vertices, len(mesh.triangles)
    return ("# vtk DataFile Version 3.0\nbulk phase field snapshot\nASCII\n"
            f"DATASET UNSTRUCTURED_GRID\nPOINTS {n} double\n"
            + _rows("%.17g %.17g 0\n", mesh.vertices)
            + f"CELLS {m} {4 * m}\n" + _rows("3 %d %d %d\n", mesh.triangles)
            + f"CELL_TYPES {m}\n" + "5\n" * m + f"POINT_DATA {n}\n")


def _surface_geometry(mesh):
    """Legacy VTK polydata of the boundary loop, up to POINT_DATA."""
    b = mesh.n_boundary
    return ("# vtk DataFile Version 3.0\nsurface phase field snapshot\nASCII\n"
            f"DATASET POLYDATA\nPOINTS {b} double\n"
            + _rows("%.17g %.17g 0\n", mesh.vertices[mesh.boundary_loop])
            + f"LINES {b} {3 * b}\n" + _rows("2 %d %d\n", mesh.geometry.edge_pos)
            + f"POINT_DATA {b}\n")


def _write_vtk(path, geometry, scalars):
    """The geometry text, then one block per (name, nodal values) pair."""
    with open(path, "w") as fh:
        fh.write(geometry)
        for name, vals in scalars:
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            fh.write(_rows("%.17g\n", vals))


def write_snapshots(outdir, mesh, states):
    """One bulk + one surface VTK file per recorded state (mesh text formatted once)."""
    os.makedirs(outdir, exist_ok=True)
    bulk, surf = _bulk_geometry(mesh), _surface_geometry(mesh)
    for k, s in enumerate(states):
        _write_vtk(os.path.join(outdir, f"bulk_{k:05d}.vtk"), bulk, (("phi", s.phi), ("mu", s.mu)))
        _write_vtk(os.path.join(outdir, f"surf_{k:05d}.vtk"), surf,
                   (("psi", s.psi), ("theta", s.theta)))
