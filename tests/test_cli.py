import dataclasses
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

import bscch
import bscch.stepper
from bscch.cli import main
from bscch.config import (
    KEY_REGISTRY,
    build_run_config,
    load_run_config,
    parse_config,
    resolve,
    serialize_config,
)
from bscch.errors import ValidationError
from bscch.mesh import read_mesh
from bscch.stepper import initial_state

SHORT_CFG = """
mesh.nb = 16
mesh.nr = 4
model.K = 1
model.L = 1
time.tau = 1e-4
time.T = 5e-4
init.mode = random
init.amplitude = 0.2
init.seed = 7
potential.bulk = log
potential.surf = log
yosida.eps = 0.05
output.every = 1
"""


@pytest.fixture()
def cfg_file(tmp_path):
    p = tmp_path / "short.cfg"
    p.write_text(SHORT_CFG + f"output.dir = {tmp_path / 'out'}\n")
    return str(p)


# -- config --------------------------------------------------------------------

def test_parse_serialize_round_trip():
    cfg = parse_config(SHORT_CFG)
    assert parse_config(serialize_config(cfg)) == cfg


@settings(max_examples=50, deadline=None)
@given(keys=st.lists(st.sampled_from(sorted(KEY_REGISTRY)), unique=True),
       values=st.lists(st.text(
           alphabet=st.characters(min_codepoint=33, max_codepoint=126,
                                  exclude_characters="#="),
           min_size=1).map(str.strip).filter(bool), min_size=50, max_size=50))
def test_round_trip_property(keys, values):
    cfg = dict(zip(keys, values))
    assert parse_config(serialize_config(cfg)) == cfg


def test_unknown_key_rejected():
    with pytest.raises(ValidationError, match="unknown config keys"):
        resolve({"model.Q": "1"})


def test_extended_parameters_accept_inf():
    cfg = resolve(parse_config("model.K = inf\nmodel.L = 0"))
    assert cfg["model.K"] == float("inf")
    assert cfg["model.L"] == 0.0


def test_malformed_lines_rejected():
    with pytest.raises(ValidationError):
        parse_config("just words\n")
    with pytest.raises(ValidationError):
        parse_config("a.b = 1\na.b = 2\n")


def test_build_run_config_revalidates():
    cfg = parse_config(SHORT_CFG)
    cfg["time.tau"] = "-1"
    with pytest.raises(Exception):
        build_run_config(cfg)


@pytest.mark.parametrize("every", ["0", "-2"])
def test_output_every_below_one_exits_1(tmp_path, capsys, every):
    p = tmp_path / "e.cfg"
    p.write_text(SHORT_CFG.replace("output.every = 1", f"output.every = {every}")
                 + f"output.dir = {tmp_path / 'out'}\n")
    assert main(["run", "--config", str(p)]) == 1
    assert "output.every" in capsys.readouterr().err


def test_final_time_rounding_to_zero_steps_exits_1(tmp_path, capsys):
    p = tmp_path / "t.cfg"
    p.write_text(SHORT_CFG.replace("time.T = 5e-4", "time.T = 4e-5")
                 + f"output.dir = {tmp_path / 'out'}\n")
    assert main(["run", "--config", str(p)]) == 1
    assert "time.T" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", [("newton.tol_abs", "-1"), ("newton.tol_rel", "-1e-10"),
                                       ("newton.max_iter", "0"), ("newton.max_iter", "-3"),
                                       ("newton.max_tau_halvings", "-1")])
def test_invalid_newton_parameter_exits_1(tmp_path, capsys, key, value):
    p = tmp_path / "n.cfg"
    p.write_text(SHORT_CFG + f"{key} = {value}\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["run", "--config", str(p)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# -- subcommands ----------------------------------------------------------------

def test_mesh_subcommand(tmp_path, capsys):
    out = str(tmp_path / "m.mesh")
    assert main(["mesh", "--nb", "16", "--nr", "4", "--out", out]) == 0
    mesh = read_mesh(out)
    assert mesh.n_vertices == 65


def test_potential_check_admissible(capsys):
    assert main(["potential-check", "--pair", "log,log", "--alpha", "0.5"]) == 0
    assert "admissible" in capsys.readouterr().out


def test_potential_check_inadmissible(capsys):
    assert main(["potential-check", "--pair", "log,obst", "--alpha", "1.0"]) == 1
    assert "inadmissible: |alpha| >= 1" in capsys.readouterr().err


def test_elliptic_mms_subcommand(capsys):
    assert main(["elliptic-mms", "--K", "inf", "--levels", "2"]) == 0
    out = capsys.readouterr().out
    ratios = [float(line.split()[1]) for line in out.splitlines()
              if line.startswith("ratio")]
    assert ratios and all(r >= 3.4 for r in ratios)


def test_poincare_subcommand(capsys):
    assert main(["poincare", "--K", "0", "--nb", "16", "--nr", "4"]) == 0
    assert "C_P" in capsys.readouterr().out


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_unknown_flag_exits_1(capsys):
    assert main(["mesh", "--nb", "16", "--sides", "3", "--out", "x"]) == 1


def test_run_deterministic_and_csv_header(cfg_file, tmp_path):
    assert main(["run", "--config", cfg_file]) == 0
    series = tmp_path / "out" / "series.csv"
    first = series.read_bytes()
    header = first.decode().splitlines()[0]
    assert header == ("t,mass_bulk,mass_surf,mass_combined,energy,diss_bulk,"
                      "diss_surf,diss_robin,conv_power_bulk,conv_power_surf,"
                      "energy_residual,sep_margin_bulk,sep_margin_surf,newton_iters")
    assert main(["run", "--config", cfg_file]) == 0
    assert series.read_bytes() == first


def test_run_vtk_output(tmp_path):
    p = tmp_path / "v.cfg"
    p.write_text(SHORT_CFG + f"output.dir = {tmp_path / 'out'}\noutput.vtk = true\n")
    assert main(["run", "--config", str(p)]) == 0
    files = os.listdir(tmp_path / "out")
    assert any(f.startswith("bulk_") for f in files)
    assert any(f.startswith("surf_") for f in files)


def test_run_bad_config_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("model.Q = 1\n")
    assert main(["run", "--config", str(p)]) == 1


def test_limit_study_subcommand(cfg_file, capsys):
    assert main(["limit-study", "--config", cfg_file,
                 "--parameter", "K->0", "--schedule", "1,0.5"]) == 0
    assert "decreasing" in capsys.readouterr().out


def test_limit_study_members_keep_no_states(cfg_file, capsys, monkeypatch):
    # the members keep no states, and keeping them again changes no output
    run, kept = bscch.stepper.run, []

    def recording(config, **kwargs):
        kept.append(config.keep_states)
        return run(config, **kwargs)

    def keeping(config, **kwargs):
        return run(dataclasses.replace(config, keep_states=True), **kwargs)

    outs = []
    for wrapper in (recording, keeping):
        monkeypatch.setattr(bscch.stepper, "run", wrapper)
        assert main(["limit-study", "--config", cfg_file,
                     "--parameter", "eps->0", "--schedule", "0.1,0.05"]) == 0
        outs.append(capsys.readouterr().out)
    assert kept == [False, False]
    assert outs[0] == outs[1]


def test_cont_dep_subcommand(tmp_path, capsys):
    p = tmp_path / "c.cfg"
    p.write_text(SHORT_CFG.replace("init.mode = random", "init.mode = bubbles")
                 + "velocity.bulk = rigid_rotation\nvelocity.omega = 1\n")
    assert main(["cont-dep", "--config", str(p), "--amplitudes", "0,1e-3"]) == 0
    assert "zero_is_zero: True" in capsys.readouterr().out


@pytest.mark.parametrize("amplitudes", ["0,1e-3,2e-3", "0,1e-3"])
def test_cont_dep_prints_ratio_with_fixed_digits(tmp_path, capsys, amplitudes):
    p = tmp_path / "c.cfg"
    p.write_text(SHORT_CFG.replace("init.mode = random", "init.mode = bubbles")
                 + "velocity.bulk = rigid_rotation\nvelocity.omega = 1\n")
    assert main(["cont-dep", "--config", str(p), "--amplitudes", amplitudes]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    ratio = last.split("first_order_ratio: ")[1]
    if amplitudes.count(",") == 1:  # one nonzero amplitude: no ratio
        assert ratio == "None"
    else:
        assert re.fullmatch(r"\d\.\d{9}e[+-]\d{2}", ratio), last
        assert float(ratio) == pytest.approx(1.0, abs=0.2)


def test_non_integer_thread_count_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BSCCH_THREADS", "abc")
    p = tmp_path / "c.cfg"
    p.write_text(SHORT_CFG.replace("init.mode = random", "init.mode = bubbles")
                 + "velocity.bulk = rigid_rotation\nvelocity.omega = 1\n")
    assert main(["cont-dep", "--config", str(p), "--amplitudes", "0,1e-3"]) == 1
    assert "BSCCH_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cont-dep", "--amplitudes", "0,1e-3"],
    ["limit-study", "--parameter", "eps->0", "--schedule", "0.1,0.05"],
    ["limit-study", "--parameter", "K->0", "--schedule", "1,0.5"],
])
def test_thread_count_checked_before_any_run(tmp_path, capsys, monkeypatch, argv):
    def no_run(*args, **kwargs):
        raise AssertionError("simulation started before BSCCH_THREADS was checked")

    monkeypatch.setenv("BSCCH_THREADS", "abc")
    monkeypatch.setattr(bscch.stepper, "run", no_run)
    p = tmp_path / "c.cfg"
    p.write_text(SHORT_CFG + "velocity.bulk = rigid_rotation\nvelocity.omega = 1\n")
    assert main([argv[0], "--config", str(p), *argv[1:]]) == 1
    assert "BSCCH_THREADS" in capsys.readouterr().err


def test_singular_jacobian_exits_2(cfg_file, capsys, monkeypatch):
    def singular(J):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(bscch.stepper, "splu", singular)
    assert main(["run", "--config", cfg_file]) == 2
    assert "solver failure" in capsys.readouterr().err


def test_benchmark_setup_calls(tmp_path):
    # the public set-up sequence of bench/child.py, with forms passed positionally
    p = tmp_path / "s.cfg"
    p.write_text(SHORT_CFG + "velocity.bulk = rigid_rotation\nvelocity.omega = 1\n")
    config, _ = load_run_config(str(p))
    mesh = bscch.generate_disk_mesh(config.nb, config.nr)
    forms = bscch.assemble_core(mesh)
    stepper = bscch.Stepper(mesh, config.params, forms)
    state = initial_state(mesh, config.params, forms)
    op = bscch.InverseCoupledOperator(mesh, config.params.coupling, forms=forms)
    assert stepper.forms is forms
    new, report = stepper.step(state)
    assert report.newton_iters > 0 and new.t == config.params.tau
    assert op.dual_norm(bscch.BulkSurfacePair(new.phi - state.phi, new.psi - state.psi)) > 0


def test_module_entry_point(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "m.mesh"
    proc = subprocess.run([sys.executable, "-m", "bscch.cli", "mesh", "--nb", "8", "--nr", "1",
                           "--out", str(out)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert read_mesh(out).n_vertices == 9


_EXTENDED = st.sampled_from(["0", "1", "inf"])
_POTENTIAL = st.sampled_from(["reg", "log", "obst"])
_MOBILITY = st.sampled_from(["constant", "degenerate"])
_INVALID = [("time.tau", "0"), ("time.tau", "-1e-4"), ("time.T", "4e-5"), ("time.T", "-1"),
            ("yosida.eps", "0"), ("yosida.eps", "1.5"), ("output.every", "0"),
            ("mesh.nb", "6"), ("mesh.nr", "0"), ("init.amplitude", "3")]


@settings(max_examples=25, deadline=None)
@given(command=st.sampled_from(["run", "limit-study", "cont-dep"]),
       values=st.fixed_dictionaries({
           "mesh.nb": st.sampled_from(["8", "16"]), "mesh.nr": st.sampled_from(["2", "4"]),
           "model.K": _EXTENDED, "model.L": _EXTENDED,
           "model.alpha": st.sampled_from(["0", "0.5", "1"]),
           "potential.bulk": _POTENTIAL, "potential.surf": _POTENTIAL,
           "mobility.bulk.kind": _MOBILITY, "mobility.surf.kind": _MOBILITY,
           "velocity.bulk": st.sampled_from(["none", "rigid_rotation"]),
           "velocity.omega": st.just("1"),
           "time.tau": st.sampled_from(["1e-4", "2e-4"]),
           "time.T": st.sampled_from(["3e-4", "5e-4"]),
           "yosida.eps": st.sampled_from(["0.05", "0.02"]),
           "newton.max_iter": st.sampled_from(["50", "2"]),
           "newton.max_tau_halvings": st.sampled_from(["0", "2"]),
           "init.amplitude": st.sampled_from(["0.2", "0.6"]),
           "output.every": st.sampled_from(["1", "2"]),
           "output.vtk": st.sampled_from(["false", "true"]),
       }),
       invalid=st.one_of(st.none(), st.sampled_from(_INVALID)))
def test_generated_configs_end_in_a_documented_exit(command, values, invalid):
    # any config ends in a correct run (0), a message (1) or a solver failure (2)
    extra = {"run": [], "limit-study": ["--parameter", "L->0", "--schedule", "1,0.5"],
             "cont-dep": ["--amplitudes", "0,1e-3"]}[command]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "g.cfg"
        cfg.write_text(serialize_config({**values, **dict([invalid] if invalid else []),
                                         "output.dir": str(Path(tmp) / "out")}))
        rc = main([command, "--config", str(cfg), *extra])
    event(f"{command} exit {rc}")
    assert rc in (0, 1, 2)
