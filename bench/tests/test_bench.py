"""Self-tests of the benchmark: span arithmetic, correctness checks and
tracing of names the program may not have.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def span_list(*rows):
    return [[name, start, end, parent, attrs] for name, start, end, parent, attrs in rows]


# -- span arithmetic -------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    tree = span_list(
        ("root", 0.0, 10.0, -1, None),
        ("a", 1.0, 3.0, 0, None),
        ("b", 2.0, 5.0, 0, None),    # overlaps a: the union [1, 5] counts once
        ("a.x", 1.5, 2.5, 1, None),
        ("c", 9.0, 12.0, 0, None),   # runs past its parent: clipped to [9, 10]
    )
    assert spans.self_times(tree) == pytest.approx([10 - 4 - 1, 2 - 1, 3, 1, 3])


def test_layer_metrics_on_a_synthetic_run():
    tree = span_list(
        ("stepper.run", 0.0, 10.0, -1, None),
        ("stepper.Stepper.init", 0.0, 2.0, 0, None),
        ("stepper.step", 2.0, 6.0, 0, {"newton_iters": 2}),
        ("stepper.factor", 2.5, 3.5, 2, None),
        ("stepper.factor", 4.0, 5.0, 2, None),
        ("stepper.step", 6.0, 9.0, 0, {"newton_iters": 1}),
        ("stepper.factor", 6.0, 8.0, 5, None),
        ("diagnostics.make_record", 9.0, 10.0, 0, None),
        ("potentials.eval_regularized", 9.2, 9.8, 7, None),
    )
    m, step_ms, shares = spans.layer_metrics(tree, {"stepper.factor": 1234})
    assert m["stepper.factor.calls"] == 3
    assert m["stepper.factor.ms"] == pytest.approx(4000.0)
    assert m["stepper.newton_iters"] == 3
    assert m["stepper.factor_per_newton"] == pytest.approx(1.0)
    # the loop runs from the first step (t=2) to the end of the run (t=10)
    assert m["stepper.factor.share"] == pytest.approx(4.0 / 8.0)
    assert m["stepper.step.self_ms"] == pytest.approx(3000.0)
    assert m["stepper.lu_nnz"] == 1234
    assert sorted(step_ms) == pytest.approx([3000.0, 4000.0])
    assert "stepper.Stepper.init" not in shares  # set-up lies outside the loop
    assert m["stepper.Stepper.init.ms"] == pytest.approx(2000.0)
    # named shares include children; the self shares leave them out
    assert m["diagnostics.make_record.share"] == pytest.approx(1.0 / 8.0)
    assert shares["diagnostics.make_record"] == pytest.approx(0.4 / 8.0)
    assert m["stepper.step.self_share"] == pytest.approx(3.0 / 8.0)


def test_no_run_span_gives_an_empty_loop():
    tree = span_list(("stepper.step", 0.0, 1.0, -1, None), ("stepper.factor", 0.2, 0.8, 0, None))
    m, _, shares = spans.layer_metrics(tree)
    assert m["stepper.factor.share"] == 0.0 and shares == {}
    assert m["stepper.factor.calls"] == 1


def test_totals_count_reentrant_spans_once():
    tree = span_list(
        ("assembly.assemble_core", 0.0, 4.0, -1, None),
        ("assembly.assemble_core", 1.0, 2.0, 0, None),
    )
    m, _, _ = spans.layer_metrics(tree)
    assert m["assembly.assemble_core.ms"] == pytest.approx(4000.0)
    assert m["assembly.assemble_core.calls"] == 2


def test_percentile_interpolates():
    assert spans.percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
    assert spans.percentile([5.0], 98) == 5.0
    assert spans.percentile([], 50) == 0.0


# -- tracing from outside --------------------------------------------------

def fake_package(with_splu=True):
    def splu(a):
        return types.SimpleNamespace(solve=lambda b: b, L=[], U=[])

    def make_record():
        return "record"

    stepper = types.ModuleType("bscch.stepper")
    if with_splu:
        stepper.splu = splu
    diagnostics = types.ModuleType("bscch.diagnostics")
    make_record.__module__ = "bscch.diagnostics"
    diagnostics.make_record = make_record
    cli = types.ModuleType("bscch.cli")
    cli.record_alias = make_record  # imported under another name
    return {"bscch": types.ModuleType("bscch"), "bscch.stepper": stepper,
            "bscch.diagnostics": diagnostics, "bscch.cli": cli}


def test_absent_names_are_reported_not_raised():
    mods = fake_package(with_splu=False)
    tracer = spans.Tracer()
    absent = spans.install(tracer, mods)
    assert "bscch.stepper.splu" in absent
    assert "bscch.stepper.Stepper.step" in absent
    assert "bscch.assembly.FormsBundle.M_pair" in absent
    assert "bscch.diagnostics.make_record" not in absent
    m, _, _ = spans.layer_metrics(tracer.spans, tracer.factor_nnz())
    assert m["stepper.factor.calls"] == 0 and m["stepper.lu_nnz"] == 0


def test_wrapped_names_record_spans_in_every_importer():
    mods = fake_package()
    tracer = spans.Tracer()
    spans.install(tracer, mods)
    assert mods["bscch.cli"].record_alias() == "record"
    assert mods["bscch.stepper"].splu(None).solve(7) == 7
    assert [s[spans.NAME] for s in tracer.spans] == [
        "diagnostics.make_record", "stepper.factor", "stepper.lu_solve"]
    assert all(s[spans.END] is not None for s in tracer.spans)


# -- correctness checks ----------------------------------------------------

SERIES_HEADER = ("t,mass_bulk,mass_surf,mass_combined,energy,diss_bulk,diss_surf,diss_robin,"
                 "conv_power_bulk,conv_power_surf,energy_residual,sep_margin_bulk,"
                 "sep_margin_surf,newton_iters")


def write_series(path, rows):
    lines = [SERIES_HEADER]
    for t, mass, energy in rows:
        lines.append(f"{t!r},0.5,0.25,{mass!r},{energy!r},0,0,0,0,0,0,0.8,0.8,2")
    path.write_text("\n".join(lines) + "\n")


def test_series_checks_accept_a_good_run(tmp_path):
    write_series(tmp_path / "series.csv", [(0.0, 0.75, 3.0), (0.1, 0.75, 2.0), (0.2, 0.75, 1.5)])
    rows = checks.read_series(tmp_path / "series.csv")
    assert checks.check_mass(rows, False) == []
    assert checks.check_energy(rows) == []
    assert checks.check_separation(rows) == []


def test_mass_check_rejects_drift(tmp_path):
    write_series(tmp_path / "series.csv", [(0.0, 0.75, 3.0), (0.1, 0.75 + 1e-9, 2.0)])
    assert checks.check_mass(checks.read_series(tmp_path / "series.csv"), False)


def test_energy_check_rejects_an_increase(tmp_path):
    write_series(tmp_path / "series.csv", [(0.0, 0.75, 3.0), (0.1, 0.75, 2.0), (0.2, 0.75, 2.1)])
    assert checks.check_energy(checks.read_series(tmp_path / "series.csv"))


def snapshot_pair(tmp_path):
    """A bulk/surface VTK pair written by the program's own writer, with the
    Dirichlet trace constraints met exactly."""
    np = pytest.importorskip("numpy")
    sys.path.insert(0, str(ROOT / "src"))
    from bscch.mesh import generate_disk_mesh
    from bscch.output import write_snapshots
    from bscch.stepper import State

    mesh = generate_disk_mesh(8, 2)
    rng = np.random.default_rng(0)
    phi, mu = rng.uniform(-0.5, 0.5, mesh.n_vertices), rng.uniform(-2, 2, mesh.n_vertices)
    state = State(0.0, phi, phi[mesh.boundary_loop].copy(), mu, mu[mesh.boundary_loop].copy())
    write_snapshots(str(tmp_path), mesh, [state])
    return tmp_path / "bulk_00000.vtk", tmp_path / "surf_00000.vtk"


def test_trace_check_accepts_exact_constraints(tmp_path):
    bulk, surf = snapshot_pair(tmp_path)
    assert checks.check_trace(str(bulk), str(surf), 1.0, 1.0) == []


@pytest.mark.parametrize("field", ["psi", "theta"])
def test_trace_check_rejects_one_ulp(tmp_path, field):
    bulk, surf = snapshot_pair(tmp_path)
    lines = surf.read_text().splitlines()
    at = lines.index(f"SCALARS {field} double 1") + 2 + 3  # fourth boundary value
    value = float(lines[at])
    lines[at] = "%.17g" % math.nextafter(value, math.inf)
    surf.write_text("\n".join(lines) + "\n")
    errors = checks.check_trace(str(bulk), str(surf), 1.0, 1.0)
    assert len(errors) == 1 and "at 1 boundary nodes" in errors[0]


CONT_DEP_OK = """amplitude=0  max_dual_distance=0.000000000e+00
amplitude=0.001  max_dual_distance=5.201904181e-08
amplitude=0.002  max_dual_distance=1.040380876e-07
zero_is_zero: True  monotone: True  first_order_ratio: 1.000000038224655
"""


def test_cont_dep_check_accepts_the_seed_report():
    assert checks.check_cont_dep(CONT_DEP_OK) == []


def test_cont_dep_check_rejects_zero_is_zero_false():
    doctored = CONT_DEP_OK.replace("zero_is_zero: True", "zero_is_zero: False")
    assert checks.check_cont_dep(doctored) == ["zero_is_zero is false"]


def test_cont_dep_check_rejects_a_bad_doubling_ratio():
    doctored = CONT_DEP_OK.replace("1.040380876e-07", "1.5e-07")
    assert any("doubling" in e for e in checks.check_cont_dep(doctored))


# -- the definition file ---------------------------------------------------

def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in spans.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u, _ in spans.PER_LAYER]
    e2e = dict(bench_run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == e2e
    assert {w.name: w.why for w in WORKLOADS.values()} == {
        w["name"]: w["why"] for w in spec["workloads"]}
