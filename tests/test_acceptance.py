"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

The spinodal-run criteria (6, 7, 8) share a module-scoped battery of
(K, L) in {0, 1, inf}^2 runs with and without convection at the stated
resolution (log potentials, eps=0.05, tau=1e-4, 500 steps, 64x16 mesh),
plus one tau/2 convective run for the residual refinement check.
"""

import itertools
import time

import numpy as np
import pytest

from bscch.assembly import CouplingParams, VelocityField, assemble_core
from bscch.cli import main
from bscch.diagnostics import continuous_dependence_experiment, limit_study
from bscch.elliptic import InverseCoupledOperator, manufactured_errors
from bscch.elliptic import estimate_poincare_constant
from bscch.mesh import generate_disk_mesh
from bscch.potentials import KINDS, Potential, check_domination
from bscch.stepper import InitialDataSpec, RunConfig, RunParams, run

from oracles import as_scipy, prolongation, verify_scalar_properties

LOG = Potential("log")
CASES = list(itertools.product([0.0, 1.0, np.inf], repeat=2))


@pytest.fixture()
def report(request):
    """Per-criterion PASS/FAIL line, written past pytest's capture."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _report(num, name, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        extra = f"  ({detail})" if detail else ""
        line = f"ACCEPTANCE {num:02d} {name}: {status}{extra}"
        if reporter is not None:
            reporter.write_line("\n" + line)
        else:
            print(line)
        assert ok, f"criterion {num} ({name}) failed{extra}"

    return _report


def _spinodal_params(K, L, convective, tau=1e-4):
    vel = (VelocityField(bulk_kind="rigid_rotation", omega=1.0,
                         surf_kind="rotation", speed=1.0)
           if convective else VelocityField())
    return RunParams(
        tau=tau, t_final=500 * 1e-4, eps=0.05,
        coupling=CouplingParams(K=K, L=L, alpha=1.0, beta=1.0),
        pot_bulk=LOG, pot_surf=LOG, velocity=vel,
        init=InitialDataSpec(mode="random", mean=0.0, amplitude=0.2, seed=7),
    )


@pytest.fixture(scope="module")
def spinodal_runs():
    mesh = generate_disk_mesh(64, 16)
    out = {}
    for K, L in CASES:
        for convective in (False, True):
            params = _spinodal_params(K, L, convective)
            out[(K, L, convective)] = run(
                RunConfig(nb=64, nr=16, params=params, keep_states=False), mesh=mesh)
    params = _spinodal_params(1.0, 1.0, True, tau=5e-5)
    out["half_tau"] = run(RunConfig(nb=64, nr=16, params=params,
                                    keep_states=False), mesh=mesh)
    return out


def test_criterion_01_scalar_battery(report):
    t0 = time.time()
    grid = np.linspace(-4.0, 4.0, 2001)
    ok = True
    for kind in KINDS:
        battery = verify_scalar_properties(Potential(kind),
                                           (0.5, 0.1, 0.02), grid)
        ok = ok and battery.passed
    elapsed = time.time() - t0
    report(1, "scalar convex-analysis battery", ok and elapsed < 1.0,
            f"{elapsed:.2f}s")


def test_criterion_02_domination_taxonomy(report):
    def verdict(bulk, surf, alpha):
        return check_domination(Potential(bulk),
                                Potential(surf),
                                alpha).admissible

    expected = [
        all(verdict("log", "log", a) for a in (-1.0, -0.5, 0.0, 1.0)),
        not verdict("log", "log", 1.2),
        all(verdict("reg", s, a) for s in KINDS for a in (-2.0, 0.0, 3.0)),
        verdict("log", "obst", 0.99) and not verdict("log", "obst", 1.0),
        verdict("obst", "log", 1.0) and not verdict("obst", "log", 1.1),
        verdict("obst", "obst", 1.0) and not verdict("obst", "obst", 1.1),
        verdict("log", "reg", 0.0) and not verdict("log", "reg", 0.5),
    ]
    report(2, "domination taxonomy", all(expected))


def test_criterion_03_elliptic_mms(report):
    ratios = []
    for K in (0.0, 1.0, np.inf):
        errs = manufactured_errors(K, mesh_sizes=((32, 8), (64, 16), (128, 32)))
        ratios += [a / b for a, b in zip(errs, errs[1:])]
    report(3, "elliptic MMS convergence", all(r >= 3.4 for r in ratios),
            "min ratio %.2f" % min(ratios))


def test_criterion_04_dual_norm_identity(report):
    mesh = generate_disk_mesh(64, 16)
    forms = assemble_core(mesh)
    rng = np.random.default_rng(11)
    worst = 0.0
    for L in (0.0, 1.0, np.inf):
        cp = CouplingParams(K=1.0, L=L, alpha=1.0, beta=1.0)
        op = InverseCoupledOperator(mesh, cp, forms=forms)
        for _ in range(20):
            f = rng.standard_normal(forms.n_bulk)
            g = rng.standard_normal(forms.n_surf)
            if np.isinf(L):
                f -= (forms.lump_bulk @ f) / forms.area
                g -= (forms.lump_surf @ g) / forms.perimeter
            else:
                shift = ((forms.lump_bulk @ f + forms.lump_surf @ g)
                         / (forms.area + forms.perimeter))
                f -= shift
                g -= shift
            s = op.apply(np.concatenate([f, g]))
            s_bulk, s_surf = forms.split(s)
            lhs = op.energy_product(s, s)
            rhs = f @ (forms.M_bulk @ s_bulk) + g @ (forms.M_surf @ s_surf)
            norm2 = f @ (forms.M_bulk @ f) + g @ (forms.M_surf @ g)
            worst = max(worst, abs(lhs + rhs) / norm2)
    report(4, "dual-norm identity", worst <= 1e-9, f"worst {worst:.2e}")


def test_criterion_05_poincare(report):
    ok = True
    details = []
    for K in (0.0, 1.0):
        cps = [estimate_poincare_constant(generate_disk_mesh(nb, nr), K, 1.0, 1.0)
               for nb, nr in ((32, 8), (64, 16))]
        variation = abs(cps[0] - cps[1]) / cps[1]
        ok = ok and variation < 0.05
        mesh = generate_disk_mesh(32, 8)
        forms = assemble_core(mesh)
        from bscch.assembly import build_case_spaces

        cp = CouplingParams(K=K, L=np.inf, alpha=1.0, beta=1.0)
        phase, _ = build_case_spaces(cp, forms)
        P = prolongation(phase)
        A = (P.T @ (as_scipy(forms.A_pair) + as_scipy(phase.block)) @ P).tocsr()
        M = (P.T @ as_scipy(forms.M_pair) @ P).tocsr()
        c = P.T @ np.concatenate([forms.lump_bulk, forms.lump_surf])
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.standard_normal(A.shape[0])
            x -= c * (c @ x) / (c @ c)
            ok = ok and (np.sqrt(x @ (M @ x))
                         <= cps[0] * np.sqrt(x @ (A @ x)) * (1 + 1e-10))
        details.append(f"K={K:g}: C_P={cps[0]:.4f} var={variation:.2%}")
    report(5, "Poincare constant", ok, "; ".join(details))


def test_criterion_06_mass_conservation(spinodal_runs, report):
    worst = 0.0
    for (K, L), convective in itertools.product(CASES, (False, True)):
        recs = spinodal_runs[(K, L, convective)].records
        drift = max(abs(r.mass_combined - recs[0].mass_combined) for r in recs)
        if np.isinf(L):
            drift = max(drift,
                        max(abs(r.mass_bulk - recs[0].mass_bulk) for r in recs),
                        max(abs(r.mass_surf - recs[0].mass_surf) for r in recs))
        worst = max(worst, drift)
    report(6, "mass conservation", worst <= 1e-10, f"worst drift {worst:.2e}")


def test_criterion_07_energy_stability(spinodal_runs, report):
    ok = True
    for K, L in CASES:
        energies = [r.energy for r in spinodal_runs[(K, L, False)].records]
        ok = ok and all(e2 <= e1 + 1e-9 for e1, e2 in zip(energies, energies[1:]))
    # residual refinement on the convective (K=1, L=1) pair, measured after
    # the initial transient where the O(tau) defect dominates
    def windowed_max(res):
        return max(abs(r.energy_residual) for r in res.records if r.t > 0.01)

    ratio = (windowed_max(spinodal_runs[(1.0, 1.0, True)])
             / windowed_max(spinodal_runs["half_tau"]))
    ok = ok and 1.4 <= ratio <= 2.6
    report(7, "energy stability", ok, f"residual ratio {ratio:.3f}")


def test_criterion_08_separation(spinodal_runs, report):
    worst = min(
        min(min(r.sep_margin_bulk, r.sep_margin_surf)
            for r in spinodal_runs[(K, L, False)].records)
        for K, L in CASES)
    report(8, "strict separation", worst > 1e-3, f"min margin {worst:.4f}")


def test_criterion_09_continuous_dependence(report):
    vel = VelocityField(bulk_kind="rigid_rotation", omega=1.0)
    params = RunParams(
        tau=2e-4, t_final=4e-3, eps=0.05,
        coupling=CouplingParams(K=1.0, L=1.0, alpha=1.0, beta=1.0),
        pot_bulk=LOG, pot_surf=LOG, velocity=vel,
        init=InitialDataSpec(mode="bubbles"),
    )
    rep = continuous_dependence_experiment(
        RunConfig(nb=32, nr=8, params=params), [0.0, 1e-3, 2e-3])
    doubling = rep.max_distances[2] / rep.max_distances[1]
    ok = (rep.max_distances[0] <= 1e-12 and rep.monotone
          and 1.5 <= doubling <= 2.5)
    report(9, "continuous dependence", ok, f"doubling {doubling:.3f}")


def test_criterion_10_limit_studies(report):
    params = RunParams(
        tau=1e-4, t_final=5e-3, eps=0.05,
        coupling=CouplingParams(K=1.0, L=1.0, alpha=1.0, beta=1.0),
        pot_bulk=LOG, pot_surf=LOG,
        init=InitialDataSpec(mode="random", mean=0.0, amplitude=0.2, seed=7),
    )
    cfg = RunConfig(nb=32, nr=8, params=params, keep_states=False)
    rep_L = limit_study(cfg, "L->0", (1.0, 0.5, 0.25))
    rep_K = limit_study(cfg, "K->0", (1.0, 0.5, 0.25))
    rep_e = limit_study(cfg, "eps->0", (0.1, 0.05, 0.025))
    strictly = lambda vals: all(b < a for a, b in zip(vals, vals[1:]))
    ok = (strictly(rep_L.values) and strictly(rep_K.values)
          and all(b <= a for a, b in zip(rep_e.values, rep_e.values[1:])))
    report(10, "limit studies", ok)


def test_criterion_11_determinism(tmp_path, report):
    cfg = tmp_path / "d.cfg"
    cfg.write_text(
        "mesh.nb = 16\nmesh.nr = 4\ntime.tau = 1e-4\ntime.T = 5e-4\n"
        "init.amplitude = 0.2\ninit.seed = 7\noutput.vtk = true\n"
        f"output.dir = {tmp_path / 'out'}\n")
    assert main(["run", "--config", str(cfg)]) == 0
    blobs1 = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert main(["run", "--config", str(cfg)]) == 0
    blobs2 = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    mesh_out = tmp_path / "m.mesh"
    assert main(["mesh", "--nb", "16", "--nr", "4", "--out", str(mesh_out)]) == 0
    m1 = mesh_out.read_bytes()
    assert main(["mesh", "--nb", "16", "--nr", "4", "--out", str(mesh_out)]) == 0
    report(11, "determinism", blobs1 == blobs2 and m1 == mesh_out.read_bytes())
