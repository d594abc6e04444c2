from dataclasses import replace

import numpy as np
import pytest

from bscch.assembly import CouplingParams, VelocityField, assemble_core
from bscch.diagnostics import (
    CSV_FIELDS,
    DiagnosticsRecord,
    continuous_dependence_experiment,
    energy,
    limit_study,
    masses,
    separation_margin,
)
from bscch.errors import InvalidArgument
from bscch.mesh import generate_disk_mesh
from bscch.output import write_snapshots
from bscch.potentials import Potential, moreau_envelope
from bscch.stepper import InitialDataSpec, RunConfig, RunParams, State, run

LOG = Potential("log")


@pytest.fixture(scope="module")
def mesh():
    return generate_disk_mesh(16, 4)


@pytest.fixture(scope="module")
def forms(mesh):
    return assemble_core(mesh)


def _params(**kw):
    defaults = dict(
        tau=1e-4, t_final=1e-3, eps=0.05,
        coupling=CouplingParams(K=1.0, L=1.0, alpha=1.0, beta=1.0),
        pot_bulk=LOG, pot_surf=LOG,
        init=InitialDataSpec(mode="random", mean=0.0, amplitude=0.2, seed=7),
    )
    defaults.update(kw)
    return RunParams(**defaults)


def test_masses_trivial(forms):
    cp = CouplingParams(K=1.0, L=1.0, alpha=1.0, beta=2.0)
    m = 0.3
    phi = np.full(forms.n_bulk, m)
    psi = np.zeros(forms.n_surf)
    mb, ms, mc = masses(phi, psi, forms, cp)
    assert mb == pytest.approx(m * forms.area, rel=1e-14)
    assert ms == 0.0
    assert mc == pytest.approx(cp.beta * m * forms.area, rel=1e-14)
    assert masses(np.zeros(forms.n_bulk), psi, forms, cp) == (0.0, 0.0, 0.0)


def test_energy_zero_state(forms):
    p = _params()
    phi = np.zeros(forms.n_bulk)
    psi = np.zeros(forms.n_surf)
    # W_log(0) = 0, all quadratic terms vanish
    assert energy(phi, psi, forms, p) == pytest.approx(0.0, abs=1e-14)


def test_energy_constant_state(forms):
    p = _params()
    m = 0.4
    phi = np.full(forms.n_bulk, m)
    psi = np.full(forms.n_surf, m)
    r = np.array([m])
    (Fe,) = moreau_envelope(p.pot_bulk, p.eps, r) + p.pot_bulk.smooth_value(r)
    (Ge,) = moreau_envelope(p.pot_surf, p.eps, r) + p.pot_surf.smooth_value(r)
    expected = forms.area * Fe + forms.perimeter * Ge
    assert energy(phi, psi, forms, p) == pytest.approx(expected, rel=1e-14)


def test_energy_recomputed_from_vtk_snapshot(tmp_path, mesh, forms):
    # independent oracle: parse the emitted VTK and recompute the energy
    p = _params(t_final=5e-4)
    res = run(RunConfig(nb=16, nr=4, params=p), mesh=mesh)
    s = res.final_state
    write_snapshots(str(tmp_path), mesh, [s])
    bpath, spath = tmp_path / "bulk_00000.vtk", tmp_path / "surf_00000.vtk"

    def scalars(path, name, count):
        lines = path.read_text().splitlines()
        i = lines.index(f"SCALARS {name} double 1")
        return np.array([float(v) for v in lines[i + 2 : i + 2 + count]])

    phi = scalars(bpath, "phi", mesh.n_vertices)
    psi = scalars(spath, "psi", mesh.n_boundary)
    np.testing.assert_array_equal(phi, s.phi)
    recomputed = energy(phi, psi, forms, p)
    assert recomputed == pytest.approx(res.records[-1].energy, abs=1e-12)


def _reference_vtk(path, mesh, bulk, first, second):
    """The value-by-value legacy VTK writer the snapshot writers must match."""
    def fmt(value):
        return "%.17g" % float(value)

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        if bulk:
            n, m = mesh.n_vertices, len(mesh.triangles)
            fh.write("bulk phase field snapshot\nASCII\nDATASET UNSTRUCTURED_GRID\n")
            fh.write(f"POINTS {n} double\n")
            for x, y in mesh.vertices:
                fh.write(f"{fmt(x)} {fmt(y)} 0\n")
            fh.write(f"CELLS {m} {4 * m}\n")
            for tri in mesh.triangles:
                fh.write(f"3 {tri[0]} {tri[1]} {tri[2]}\n")
            fh.write(f"CELL_TYPES {m}\n" + "5\n" * m + f"POINT_DATA {n}\n")
            names = ("phi", "mu")
        else:
            b = mesh.n_boundary
            fh.write("surface phase field snapshot\nASCII\nDATASET POLYDATA\n")
            fh.write(f"POINTS {b} double\n")
            for idx in mesh.boundary_loop:
                x, y = mesh.vertices[idx]
                fh.write(f"{fmt(x)} {fmt(y)} 0\n")
            fh.write(f"LINES {b} {3 * b}\n")
            for k in range(b):
                fh.write(f"2 {k} {(k + 1) % b}\n")
            fh.write(f"POINT_DATA {b}\n")
            names = ("psi", "theta")
        for name, vals in zip(names, (first, second)):
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for v in vals:
                fh.write(fmt(v) + "\n")


def test_vtk_writers_match_value_by_value_writer(tmp_path, mesh):
    rng = np.random.default_rng(5)
    n, b = mesh.n_vertices, mesh.n_boundary
    # signed zeros, integer-valued, tiny and huge values format the same way
    special = np.array([-0.0, 0.0, 1.0, -3.0, 1e-300, -2.5e17, 0.1])
    phi, mu = rng.standard_normal(n), rng.standard_normal(n) * 1e5
    psi, theta = rng.standard_normal(b), rng.standard_normal(b) * 1e-7
    phi[: len(special)] = special
    theta[: len(special)] = special
    states = [State(0.0, phi, psi, mu, theta), State(1.0, -phi, psi, 2 * mu, theta)]
    write_snapshots(str(tmp_path / "snap"), mesh, states)
    for k, s in enumerate(states):
        for bulk, name, fields in ((True, "bulk", (s.phi, s.mu)), (False, "surf", (s.psi, s.theta))):
            ref = tmp_path / f"ref_{name}_{k}.vtk"
            _reference_vtk(ref, mesh, bulk, *fields)
            assert (tmp_path / "snap" / f"{name}_{k:05d}.vtk").read_bytes() == ref.read_bytes()


def test_separation_margin_trivial():
    phi = np.array([0.5, -0.2])
    psi = np.array([0.0])
    assert separation_margin(phi, psi) == (0.5, 1.0)


def test_record_field_order_matches_csv():
    rec = DiagnosticsRecord(*range(14))
    assert rec.as_row() == list(range(14))
    assert CSV_FIELDS[0] == "t" and CSV_FIELDS[-1] == "newton_iters"


def test_stationary_energy_residual_zero():
    p = _params(init=InitialDataSpec(mode="constant", mean=0.1),
                coupling=CouplingParams(K=1.0, L=np.inf, alpha=1.0, beta=1.0))
    res = run(RunConfig(nb=16, nr=4, params=p, keep_states=False))
    assert all(abs(r.energy_residual) <= 1e-12 for r in res.records)


def test_limit_study_degenerate_schedule():
    # fewer than two members leave no consecutive pair, so no trend to report
    cfg = RunConfig(nb=16, nr=4, params=_params(t_final=3e-4), keep_states=False)
    for schedule in ([1.0], []):
        with pytest.raises(InvalidArgument, match="at least two"):
            limit_study(cfg, "K->0", schedule)


def test_limit_study_rejects_bad_schedule():
    cfg = RunConfig(nb=16, nr=4, params=_params(), keep_states=False)
    with pytest.raises(InvalidArgument):
        limit_study(cfg, "K->0", [0.25, 0.5])
    with pytest.raises(InvalidArgument):
        limit_study(cfg, "K->sideways", [1.0])


def test_limit_study_eps_distances():
    # the eps->0 observable: L2 gaps of the final bulk phase between consecutive levels
    cfg = RunConfig(nb=16, nr=4, params=_params(), keep_states=False)
    schedule = [0.1, 0.05, 0.025]
    rep = limit_study(cfg, "eps->0", schedule)
    finals = [run(replace(cfg, params=replace(cfg.params, eps=e))) for e in schedule]
    M = finals[0].forms.M_bulk
    gaps = [r1.final_state.phi - r2.final_state.phi for r1, r2 in zip(finals, finals[1:])]
    assert rep.values == tuple(float(np.sqrt(d @ (M @ d))) for d in gaps)
    assert all(d >= 0 for d in rep.values) and rep.extra == ()
    with pytest.raises(InvalidArgument):
        limit_study(cfg, "eps->0", [0.05, 0.1])


def test_cont_dep_requires_rotation_and_constant_mobility():
    cfg = RunConfig(nb=16, nr=4, params=_params())
    with pytest.raises(InvalidArgument):
        continuous_dependence_experiment(cfg, [0.0, 1e-3])


def test_cont_dep_zero_amplitude_identical():
    vel = VelocityField(bulk_kind="rigid_rotation", omega=1.0)
    cfg = RunConfig(nb=16, nr=4,
                    params=_params(t_final=5e-4, velocity=vel,
                                   init=InitialDataSpec(mode="bubbles")))
    rep = continuous_dependence_experiment(cfg, [0.0, 1e-3, 2e-3])
    assert rep.zero_is_zero and rep.monotone
    assert rep.max_distances[0] == 0.0
    assert rep.first_order_ratio == pytest.approx(1.0, abs=0.2)
