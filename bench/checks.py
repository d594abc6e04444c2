"""Correctness checks on what a workload invocation wrote or printed.

The bounds are the acceptance gate's (tests/test_acceptance.py): mass drift
<= 1e-10 (criterion 06), energy nonincreasing within 1e-9 (criterion 07),
separation margin > 1e-3 (criterion 08), and for the continuous-dependence
experiment a zero-amplitude distance <= 1e-12, monotone distances and a
doubling ratio in [1.5, 2.5] (criterion 09). The Dirichlet trace
constraints must hold exactly: `%.17g` round-trips doubles, so the values
read back from the VTK files are the program's own.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math
import os
import re

MASS_TOL = 1e-10
ENERGY_TOL = 1e-9
SEPARATION_MIN = 1e-3
ZERO_TOL = 1e-12
DOUBLING_RANGE = (1.5, 2.5)


def read_series(path):
    """Rows of a `series.csv` as dicts of floats."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, map(float, line.split(",")))) for line in fh if line.strip()]


def check_mass(rows, separate_means):
    """Criterion 06: combined mass (and, for L=inf, each mass) conserved."""
    if not rows:
        return ["series.csv has no records"]
    first = rows[0]
    keys = ["mass_combined"] + (["mass_bulk", "mass_surf"] if separate_means else [])
    drift = max(abs(r[k] - first[k]) for r in rows for k in keys)
    return [] if drift <= MASS_TOL else [f"mass drift {drift:.3e} > {MASS_TOL:g}"]


def check_energy(rows):
    """Criterion 07: energy nonincreasing between records, within 1e-9."""
    bad = [(r1["t"], r2["t"]) for r1, r2 in zip(rows, rows[1:])
           if not r2["energy"] <= r1["energy"] + ENERGY_TOL]
    return [f"energy increases between t={t1:g} and t={t2:g}" for t1, t2 in bad[:3]]


def check_separation(rows):
    """Criterion 08: the state stays strictly inside (-1, 1)."""
    worst = min(min(r["sep_margin_bulk"], r["sep_margin_surf"]) for r in rows)
    return [] if worst > SEPARATION_MIN else [f"separation margin {worst:.4g} <= {SEPARATION_MIN:g}"]


def read_vtk(path):
    """Point lines (as written) and named point scalars of a legacy VTK file."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    points, scalars = [], {}
    i = 0
    while i < len(lines):
        head = lines[i].split()
        if head[:1] == ["POINTS"]:
            n = int(head[1])
            points = lines[i + 1 : i + 1 + n]
            i += 1 + n
        elif head[:1] == ["POINT_DATA"]:
            n = int(head[1])
            i += 1
            while i < len(lines) and lines[i].startswith("SCALARS"):
                name = lines[i].split()[1]
                scalars[name] = [float(v) for v in lines[i + 2 : i + 2 + n]]
                i += 2 + n
        else:
            i += 1
    return points, scalars


def last_snapshot_pair(outdir):
    """Paths of the highest-numbered bulk/surface VTK pair, and the count."""
    bulk = sorted(f for f in os.listdir(outdir) if re.fullmatch(r"bulk_\d{5}\.vtk", f))
    surf = sorted(f for f in os.listdir(outdir) if re.fullmatch(r"surf_\d{5}\.vtk", f))
    if not bulk or len(bulk) != len(surf):
        return None, None, len(bulk)
    return os.path.join(outdir, bulk[-1]), os.path.join(outdir, surf[-1]), len(bulk)


def check_trace(bulk_path, surf_path, alpha, beta):
    """phi|G == alpha*psi and mu|G == beta*theta, exactly, at every boundary node."""
    bpts, bvals = read_vtk(bulk_path)
    spts, svals = read_vtk(surf_path)
    index = {line: k for k, line in enumerate(bpts)}
    loop = [index.get(line) for line in spts]
    if not spts or None in loop:
        return ["surface points do not match bulk points"]
    errors = []
    for bulk_name, surf_name, w in (("phi", "psi", alpha), ("mu", "theta", beta)):
        b, s = bvals.get(bulk_name), svals.get(surf_name)
        if b is None or s is None:
            errors.append(f"missing {bulk_name}/{surf_name} in snapshot")
            continue
        bad = [k for k, v in enumerate(loop) if not b[v] == w * s[k]]
        if bad:
            errors.append(f"{bulk_name}|G != {w:g}*{surf_name} at {len(bad)} boundary nodes")
    return errors


_AMP = re.compile(r"amplitude=(\S+)\s+max_dual_distance=(\S+)")
_FLAGS = re.compile(r"zero_is_zero: (\w+)\s+monotone: (\w+)")


def parse_cont_dep(stdout):
    """(amplitudes, distances, zero_is_zero, monotone) from `bscch cont-dep` output."""
    pairs = [(float(a), float(d)) for a, d in _AMP.findall(stdout)]
    flags = _FLAGS.search(stdout)
    zero, mono = (flags.group(1) == "True", flags.group(2) == "True") if flags else (None, None)
    return [a for a, _ in pairs], [d for _, d in pairs], zero, mono


def check_cont_dep(stdout):
    """Criterion 09 on the printed report of amplitudes 0, a, 2a."""
    amps, dists, zero, mono = parse_cont_dep(stdout)
    if len(dists) != 3 or zero is None:
        return ["cont-dep report incomplete"]
    errors = []
    if not zero or not dists[0] <= ZERO_TOL:
        errors.append("zero_is_zero is false")
    if not mono:
        errors.append("distances not monotone")
    ratio = dists[2] / dists[1] if dists[1] > 0 else math.inf
    lo, hi = DOUBLING_RANGE
    if not lo <= ratio <= hi:
        errors.append(f"doubling ratio {ratio:.3f} outside [{lo}, {hi}]")
    return errors


def check_invocation(workload, outdir, stdout):
    """All checks a workload names, on one invocation's outputs."""
    cfg = workload.config
    errors = []
    if {"mass", "energy", "separation"} & set(workload.checks):
        path = os.path.join(outdir, "series.csv")
        if not os.path.isfile(path):
            return ["series.csv not written"]
        rows = read_series(path)
        if "mass" in workload.checks:
            errors += check_mass(rows, separate_means=cfg["model.L"] == "inf")
        if "energy" in workload.checks:
            errors += check_energy(rows)
        if "separation" in workload.checks:
            errors += check_separation(rows)
    if "trace" in workload.checks:
        bulk, surf, count = last_snapshot_pair(outdir)
        if count != workload.snapshots or bulk is None:
            errors.append(f"{count} VTK snapshots, expected {workload.snapshots}")
        else:
            errors += check_trace(bulk, surf, float(cfg["model.alpha"]), float(cfg["model.beta"]))
    if "cont_dep" in workload.checks:
        errors += check_cont_dep(stdout)
    return errors
