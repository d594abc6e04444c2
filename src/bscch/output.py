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


def write_vtk_bulk(path, mesh, phi, mu):
    """Legacy ASCII VTK unstructured grid with nodal scalars phi and mu."""
    n, m = mesh.n_vertices, len(mesh.triangles)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("bulk phase field snapshot\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {n} double\n")
        for x, y in mesh.vertices:
            fh.write(f"{_fmt(x)} {_fmt(y)} 0\n")
        fh.write(f"CELLS {m} {4 * m}\n")
        for tri in mesh.triangles:
            fh.write(f"3 {tri[0]} {tri[1]} {tri[2]}\n")
        fh.write(f"CELL_TYPES {m}\n")
        fh.write("5\n" * m)
        fh.write(f"POINT_DATA {n}\n")
        for name, vals in (("phi", phi), ("mu", mu)):
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for v in vals:
                fh.write(_fmt(v) + "\n")


def write_vtk_surface(path, mesh, psi, theta):
    """Legacy ASCII VTK polydata: the boundary loop with scalars psi, theta."""
    loop = mesh.boundary_loop
    b = len(loop)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("surface phase field snapshot\nASCII\nDATASET POLYDATA\n")
        fh.write(f"POINTS {b} double\n")
        for idx in loop:
            x, y = mesh.vertices[idx]
            fh.write(f"{_fmt(x)} {_fmt(y)} 0\n")
        fh.write(f"LINES {b} {3 * b}\n")
        for k in range(b):
            fh.write(f"2 {k} {(k + 1) % b}\n")
        fh.write(f"POINT_DATA {b}\n")
        for name, vals in (("psi", psi), ("theta", theta)):
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for v in vals:
                fh.write(_fmt(v) + "\n")


def write_snapshots(outdir, mesh, states):
    """One bulk + one surface VTK file per recorded state."""
    os.makedirs(outdir, exist_ok=True)
    for k, s in enumerate(states):
        write_vtk_bulk(os.path.join(outdir, f"bulk_{k:05d}.vtk"), mesh, s.phi, s.mu)
        write_vtk_surface(os.path.join(outdir, f"surf_{k:05d}.vtk"), mesh, s.psi, s.theta)
