import csv
import dataclasses
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import currently_in_test_context, event, example, given, settings, strategies as st

import bscch
import bscch.diagnostics
import bscch.stepper
from bscch.cli import main
from bscch.config import (
    KEY_REGISTRY,
    build_run_config,
    load_run_config,
    parse_config,
    resolve,
)
from bscch.errors import InvalidArgument, ValidationError
from bscch.mesh import generate_disk_mesh
from bscch.stepper import initial_state

from oracles import read_mesh, regularized_lower_bound, serialize_config

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


@pytest.fixture()
def rotating_cfg(tmp_path):
    # valid for cont-dep: bubbles under a rigid rotation
    p = tmp_path / "rotating.cfg"
    p.write_text(SHORT_CFG.replace("init.mode = random", "init.mode = bubbles")
                 + "velocity.bulk = rigid_rotation\nvelocity.omega = 1\n"
                 + f"output.dir = {tmp_path / 'out'}\n")
    return str(p)


def _python(*args):
    """Stdout of a fresh interpreter that imports bscch from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


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


@pytest.mark.parametrize("argv", [
    ["run"],
    ["limit-study", "--parameter", "L->0", "--schedule", "1,0.5"],
    ["cont-dep", "--amplitudes", "0,1e-3"],
])
def test_non_utf8_config_exits_1(tmp_path, capsys, argv):
    # a UnicodeDecodeError traceback
    p = tmp_path / "b.cfg"
    p.write_bytes(b"mesh.nb = 16\xff\n")
    assert main([argv[0], "--config", str(p), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: {p}: not UTF-8 text (byte 12)"]


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


@pytest.mark.parametrize("extra,error,message", [
    # RunParams' rule, so the API refuses it too; like every RunParams refusal, no usage line
    ({"time.tau": "1e-3", "time.T": "4e-4"}, InvalidArgument,
     "time.T = 0.0004 is less than half a step (time.tau = 0.001) and would run no steps"),
    # the config's own rule: NewtonParams allows max_iter = 0
    ({"newton.max_iter": "0"}, ValidationError, "newton.max_iter must be >= 1, got 0"),
])
def test_run_config_refusal_through_the_api_and_run(tmp_path, capsys, extra, error, message):
    cfg = {**parse_config(SHORT_CFG), **extra}
    with pytest.raises(error) as exc:
        build_run_config(cfg)
    assert str(exc.value) == message
    p = tmp_path / "r.cfg"
    p.write_text(serialize_config({**cfg, "output.dir": str(tmp_path / "out")}))
    assert main(["run", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}\n") and ("usage:" in err) == (error is ValidationError)
    assert not (tmp_path / "out").exists()


def test_vanishing_combined_mean_exits_1(tmp_path, capsys):
    # beta = -|Gamma| / |Omega| of the 16x4 mesh, so alpha*beta*|Omega| + |Gamma| = 0 at alpha = 1
    beta, message = "-2.0391823164166367", "error: alpha*beta*|Omega| + |Gamma| must be nonzero\n"
    p = tmp_path / "b.cfg"
    p.write_text(SHORT_CFG + f"model.beta = {beta}\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["run", "--config", str(p)]) == 1
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()
    assert main(["poincare", "--K", "1", "--nb", "16", "--nr", "4", "--beta", beta]) == 1
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("key,value", [("newton.tol_abs", "-1"), ("newton.tol_rel", "-1e-10"),
                                       ("newton.max_iter", "0"), ("newton.max_iter", "-3"),
                                       ("newton.max_tau_halvings", "-1"),
                                       ("newton.max_tau_halvings", "53")])
def test_invalid_newton_parameter_exits_1(tmp_path, capsys, key, value):
    p = tmp_path / "n.cfg"
    p.write_text(SHORT_CFG + f"{key} = {value}\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["run", "--config", str(p)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_deepest_tau_halving_of_a_failing_newton_exits_2(tmp_path, capsys):
    # 980 halvings ended in a RecursionError; the deepest allowed one fails cleanly
    p = tmp_path / "h.cfg"
    p.write_text(SHORT_CFG + "newton.max_iter = 1\nnewton.tol_abs = 0\nnewton.tol_rel = 0\n"
                 f"newton.max_tau_halvings = 52\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["run", "--config", str(p)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("velocity.ramp", "-1"), ("velocity.ramp", "nan"),
                                       ("velocity.omega", "inf"), ("velocity.omega", "nan")])
def test_invalid_velocity_exits_1(tmp_path, capsys, key, value):
    # these ran as unramped (ramp) or ended in a solver failure (omega)
    other = {"velocity.ramp": "velocity.omega = 1\n", "velocity.omega": ""}[key]
    p = tmp_path / "v.cfg"
    p.write_text(SHORT_CFG + f"velocity.bulk = rigid_rotation\n{other}{key} = {value}\n"
                 f"output.dir = {tmp_path / 'out'}\n")
    assert main(["run", "--config", str(p)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", [("time.tau", "nan"), ("time.T", "nan"),
                                       ("time.tau", "inf"), ("time.T", "inf")])
def test_non_finite_time_exits_1(tmp_path, capsys, key, value):
    # nan raised a ValueError traceback from the step count
    p = tmp_path / "t.cfg"
    text = SHORT_CFG.replace(f"{key} = ", "# ")
    p.write_text(text + f"{key} = {value}\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["run", "--config", str(p)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0", "1", "nan"])
def test_eps_outside_unit_interval_exits_1(tmp_path, capsys, value):
    # the message named neither the key nor the value
    p = tmp_path / "e.cfg"
    text = SHORT_CFG.replace("yosida.eps = ", "# ")
    p.write_text(text + f"yosida.eps = {value}\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["run", "--config", str(p)]) == 1
    assert f"yosida.eps must lie in (0, 1), got {float(value)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["bulk", "surf"])
@pytest.mark.parametrize("lines", ["m0 = nan", "m0 = inf", "kind = degenerate\n{key}.m1 = inf",
                                   "kind = degenerate\n{key}.m1 = nan"])
def test_non_finite_mobility_exits_1(tmp_path, capsys, where, lines):
    # these ended in a solver failure (exit 2, non-finite Newton residual)
    key = f"mobility.{where}"
    p = tmp_path / "m.cfg"
    p.write_text(SHORT_CFG + f"{key}.{lines.format(key=key)}\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["run", "--config", str(p)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", [("init.mean", "inf"), ("init.mean", "1.5"),
                                       ("init.mean", "-1"), ("init.mean", "nan"),
                                       ("init.amplitude", "inf"), ("init.radius", "inf"),
                                       ("init.separation", "nan"), ("init.seed", "-1")])
def test_invalid_initial_data_exits_1(tmp_path, capsys, key, value):
    # |mean| >= 1 and the infinite values ran as data clamped to +-(1 - margin);
    # a seed is a non-negative integer (numpy's SeedSequence convention), and a
    # negative one once ended in a ValueError traceback
    p = tmp_path / "i.cfg"
    p.write_text(SHORT_CFG.replace(f"{key} = ", "# ") + f"{key} = {value}\n"
                 f"output.dir = {tmp_path / 'out'}\n")
    assert main(["run", "--config", str(p)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["newton.tol_abs", "newton.tol_rel"])
def test_infinite_newton_tolerance_exits_1(tmp_path, capsys, key):
    # an infinite tolerance counted every step as converged before its first iteration
    p = tmp_path / "n.cfg"
    p.write_text(SHORT_CFG + f"{key} = inf\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["run", "--config", str(p)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind,key,value", [
    ("reg", "potential.c", "inf"), ("reg", "potential.c", "nan"),
    ("log", "potential.theta", "nan"), ("log", "potential.theta_c", "inf"),
    ("log", "model.alpha", "nan"), ("log", "model.beta", "inf"),
    # out of range: these messages named no key
    ("reg", "potential.c", "-1"), ("log", "potential.theta", "0"),
    ("log", "potential.theta", "2"), ("log", "potential.theta_c", "0.5"),
])
def test_non_finite_model_parameter_exits_1(tmp_path, capsys, kind, key, value):
    # these ran to a NaN or -inf energy, or ended in a solver failure (c = nan)
    p = tmp_path / "p.cfg"
    text = SHORT_CFG.replace("= log", f"= {kind}").replace("model.K = 1", "model.K = inf")
    p.write_text(text + f"{key} = {value}\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["run", "--config", str(p)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind,lines,key", [
    ("log", "model.K = 0\nmodel.alpha = 5e-324", "model.alpha"),
    ("reg", "potential.c = 1e308", "potential.c"),
], ids=["alpha", "c"])
def test_extreme_model_parameter_names_its_key(tmp_path, capsys, kind, lines, key):
    # these warned of an overflow or invalid value first, and then blamed the
    # clamp margin (alpha) or the potential pairing (c)
    p = tmp_path / "x.cfg"
    p.write_text(SHORT_CFG.replace("= log", f"= {kind}").replace("model.K = 1\n", "")
                 + f"{lines}\noutput.dir = {tmp_path / 'out'}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(p)]) == 1
    assert key in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_non_finite_energy_exits_2(tmp_path, capsys):
    # the explicit convection at omega = 1e300 blew the state up in the first step, and
    # the run completed with energy=nan
    p = tmp_path / "e.cfg"
    p.write_text(SHORT_CFG + "velocity.bulk = rigid_rotation\nvelocity.omega = 1e300\n"
                 f"output.dir = {tmp_path / 'out'}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the blow-up itself warns
        assert main(["run", "--config", str(p)]) == 2
    assert "non-finite energy" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_step_moving_the_conserved_mass_exits_2(tmp_path, capsys):
    # beta = 1e100 at L = 0 puts beta times the convection into the chem rows, 1e98 past
    # the phase rows, and one Newton tolerance for both stopped each step after one
    # iteration with its phase rows unsolved: the run exited 0 with its combined mass
    # moved by 7e97, 1e-10 * beta being its rounding scale
    values = {**_PINNED, "mesh.nb": "8", "mesh.nr": "2", "model.L": "0",
              "potential.bulk": "reg", "potential.surf": "reg",
              "velocity.bulk": "rigid_rotation", "output.vtk": "false", "model.beta": "1e100"}
    p = tmp_path / "m.cfg"
    p.write_text(serialize_config({**values, "output.dir": str(tmp_path / "out")}))
    assert main(["run", "--config", str(p)]) == 2
    assert "solver failure: conserved mass moved by" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("c", ["10", "100"])
def test_regularized_energy_without_lower_bound_exits_1(tmp_path, capsys, c):
    # these runs exited 0, at c = 100 with energy -1.1e140: 4 eps c >= 1 leaves the
    # regularized reg energy unbounded below, and the scheme decreases it without bound
    cfg = parse_config((Path(__file__).resolve().parents[1] / "scripts" / "spinodal.cfg")
                       .read_text())
    cfg.update({"mesh.nb": "16", "mesh.nr": "4", "potential.bulk": "reg", "potential.surf": "reg",
                "potential.c": c, "time.T": "1e-2", "output.dir": str(tmp_path / "out")})
    p = tmp_path / "reg.cfg"
    p.write_text(serialize_config(cfg))
    assert main(["run", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert "yosida.eps" in err and "potential.c" in err
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


def test_elliptic_mms_help_states_the_range_of_order_two(capsys):
    # past 1e-12 <= K <= 1e12 the Robin penalty 1/K swamps or vanishes in double
    # precision, and the command still exits 0 with its ratios
    with pytest.raises(SystemExit) as exc:
        main(["elliptic-mms", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "K in [0, inf]; order 2 holds at K = 0, at inf, and for 1e-12 <= K <= 1e12" in text


@pytest.mark.parametrize("levels", ["0", "-1"])
def test_elliptic_mms_without_levels_exits_1(capsys, levels):
    # printed nothing and exited 0
    assert main(["elliptic-mms", "--K", "1", "--levels", levels]) == 1
    assert "--levels" in capsys.readouterr().err


@pytest.mark.parametrize("command,args,name", [
    ("run", ["reg", "model.alpha = 1e200"], "model.alpha"),
    ("run", ["log", "model.beta = 1e200"], "model.beta"),
    ("run", ["log", "model.beta = 1e200\nmodel.L = inf"], "model.beta"),
    ("poincare", ["--K", "1", "--alpha", "1e308"], "--alpha"),
    ("potential-check", ["--pair", "reg,reg", "--alpha", "1e200"], "--alpha"),
    ("poincare", ["--K", "1", "--alpha", "nan"], "--alpha"),
    ("poincare", ["--K", "1", "--beta", "inf"], "--beta"),
    ("poincare", ["--K", "-1"], "--K"),
    ("poincare", ["--K", "nan"], "--K"),
    ("elliptic-mms", ["--K", "-1"], "--K"),
    ("elliptic-mms", ["--K", "nan"], "--K"),
])
def test_trace_weight_whose_cube_overflows_exits_1(tmp_path, capsys, command, args, name):
    # an OverflowError traceback, NaN columns in series.csv (model.L = inf), or
    # exit 2 with "singular bordered system" (nan/inf poincare weights)
    if command == "run":  # args: the potential kind, then config lines
        p = tmp_path / "w.cfg"
        text = SHORT_CFG.replace("= log", f"= {args[0]}").replace("model.L = 1\n", "")
        p.write_text(text + f"{args[1]}\noutput.dir = {tmp_path / 'out'}\n")
        args = ["--config", str(p)]
    elif command == "poincare":
        args = args + ["--nb", "16", "--nr", "4"]
    assert main([command, *args]) == 1
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_poincare_subcommand(capsys):
    assert main(["poincare", "--K", "0", "--nb", "16", "--nr", "4"]) == 0
    assert "C_P" in capsys.readouterr().out


def test_poincare_at_infinite_K_exits_1_before_any_mesh(capsys, monkeypatch):
    # built the default 64x16 mesh first
    built = []
    monkeypatch.setattr(bscch.cli, "generate_disk_mesh", lambda *a: built.append(a))
    assert main(["poincare", "--K", "inf"]) == 1
    assert "Poincare constant is defined for K in [0, inf)" in capsys.readouterr().err
    assert built == []


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


@pytest.mark.parametrize("argv", [
    ["limit-study", "--parameter", "K->0", "--schedule", "1,abc"],
    ["cont-dep", "--amplitudes", "0,x"],
])
def test_non_numeric_list_exits_1(cfg_file, capsys, argv):
    # a ValueError traceback once the config was read
    assert main([argv[0], "--config", cfg_file, *argv[1:]]) == 1
    assert argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["limit-study", "--parameter", "K->0", "--schedule", ""],
    ["limit-study", "--parameter", "K->0", "--schedule", " , "],
    ["cont-dep", "--amplitudes", ""],
])
def test_empty_list_exits_1(rotating_cfg, capsys, argv):
    # an empty list ran no member and printed vacuous verdicts with exit 0
    assert main([argv[0], "--config", rotating_cfg, *argv[1:]]) == 1
    assert argv[-2] in capsys.readouterr().err


def test_step_count_overflow_exits_1(tmp_path, capsys):
    # 1e300: an OverflowError traceback, T / tau is inf and RunParams.n_steps rounded it;
    # 1e20: 1e30 steps, a run that never ends (t + tau stops resolving tau past 2**53 steps)
    for T in ("1e300", "1e20"):
        p = tmp_path / "o.cfg"
        p.write_text(SHORT_CFG.replace("time.tau = 1e-4", "time.tau = 1e-10")
                     .replace("time.T = 5e-4", f"time.T = {T}"))
        assert main(["run", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert "time.T" in err and "time.tau" in err


@pytest.mark.parametrize("argv", [
    ["cont-dep", "--amplitudes", "0,1e-3,2e-3"],
    ["limit-study", "--parameter", "L->0", "--schedule", "1,0.5,0.25"],
])
def test_sweep_assembles_core_operators_once(rotating_cfg, capsys, monkeypatch, argv):
    # every member shares the mesh, so its core operators are assembled once
    calls = []
    assemble = bscch.stepper.assemble_core

    def counting(mesh):
        calls.append(mesh)
        return assemble(mesh)

    monkeypatch.setattr(bscch.stepper, "assemble_core", counting)
    monkeypatch.setattr(bscch.diagnostics, "assemble_core", counting, raising=False)
    assert main([argv[0], "--config", rotating_cfg, *argv[1:]]) == 0
    assert len(calls) == 1


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


@pytest.mark.parametrize("argv,message", [
    # one member: the trend compares consecutive members, so it printed a vacuous verdict
    (["limit-study", "--parameter", "eps->0", "--schedule", "0.1"], "at least two"),
    (["limit-study", "--parameter", "K->0", "--schedule", "1"], "at least two"),
    # a non-finite amplitude: the base run completed, then velocity.omega was blamed
    (["cont-dep", "--amplitudes", "0,nan,1e-3"], "finite"),
    (["cont-dep", "--amplitudes", "0,1e-3,inf"], "finite"),
    # an invalid last member: the members before it ran in full first
    (["limit-study", "--parameter", "K->0", "--schedule", "1,0.5,-1"], "model.K"),
    (["limit-study", "--parameter", "eps->0", "--schedule", "0.1,0.05,0"], "yosida.eps"),
], ids=[f"argv{i}" for i in range(6)])
def test_invalid_sweep_exits_1_before_any_run(rotating_cfg, capsys, monkeypatch, argv, message):
    def no_run(*args, **kwargs):
        raise AssertionError("simulation started before the sweep was checked")

    monkeypatch.setattr(bscch.stepper, "run", no_run)
    assert main([argv[0], "--config", rotating_cfg, *argv[1:]]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("schedule", [
    "3e-4,1e-4",  # 3 steps of 3e-4 end at 9e-4: the gap would measure the missing time
    "1e-4,2e-4",  # moves away from the limit
])
def test_tau_schedule_refusal_names_time_tau(tmp_path, capsys, monkeypatch, schedule):
    def no_run(*args, **kwargs):
        raise AssertionError("simulation started before the sweep was checked")

    monkeypatch.setattr(bscch.stepper, "run", no_run)
    p = tmp_path / "t.cfg"
    p.write_text(SHORT_CFG.replace("time.T = 5e-4", "time.T = 1e-3"))
    assert main(["limit-study", "--config", str(p), "--parameter", "tau->0",
                 "--schedule", schedule]) == 1
    assert "time.tau" in capsys.readouterr().err


def test_overflowing_member_speed_exits_1_before_any_run(tmp_path, capsys, monkeypatch):
    # omega + a = inf: the base run started before the member was checked
    def no_run(*args, **kwargs):
        raise AssertionError("simulation started before the sweep was checked")

    monkeypatch.setattr(bscch.stepper, "run", no_run)
    p = tmp_path / "o.cfg"
    p.write_text(SHORT_CFG + "velocity.bulk = rigid_rotation\nvelocity.omega = 1e308\n")
    assert main(["cont-dep", "--config", str(p), "--amplitudes", "0,1e308"]) == 1
    assert "velocity.omega must be finite, got inf" in capsys.readouterr().err


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
    assert op.dual_norm(np.concatenate([new.phi - state.phi, new.psi - state.psi])) > 0


def test_module_entry_point(tmp_path):
    out = tmp_path / "m.mesh"
    _python("-m", "bscch.cli", "mesh", "--nb", "8", "--nr", "1", "--out", str(out))
    assert read_mesh(out).n_vertices == 9


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("preset", [None, "2"])
def test_run_starts_no_blas_thread_pool(cfg_file, monkeypatch, preset):
    # numpy's OpenBLAS and the one SuperLU links each started a worker pool: 3 tasks.
    # A value the caller set is left alone
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    code = f"""
import contextlib, io, os
from bscch.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["run", "--config", {cfg_file!r}]) == 0
print(len(os.listdir("/proc/self/task")), os.environ["OPENBLAS_NUM_THREADS"])
"""
    tasks, value = _python("-c", code).split()
    assert value == (preset or "1")
    if preset is None:
        assert tasks == "1"


def test_cli_import_leaves_unused_numpy_submodules_unexecuted():
    # executing these costs about 0.16 s of start-up
    code = ("import sys, bscch.cli; print([m for m in ('numpy.f2py.crackfortran', "
            "'numpy.testing._private.utils', 'numpy.ma.core', 'numpy.polynomial.polynomial') "
            "if m in sys.modules])")
    assert _python("-c", code) == "[]"


def test_commands_load_neither_scipy_linalg_nor_numpy_ma(rotating_cfg, tmp_path):
    # run validates a mesh and factors a Jacobian, cont-dep also a bordered system; of
    # scipy only the two compiled modules load (a scipy package costs about 5 MB), and
    # numpy's unused subpackages not at all (numpy.ma alone about 1.3 MB).  Random
    # initial data is drawn without numpy.random, which with hashlib and secrets
    # costs about 6 MB
    random_cfg = tmp_path / "random.cfg"
    random_cfg.write_text(Path(rotating_cfg).read_text().replace("init.mode = bubbles",
                                                                 "init.mode = random"))
    code = f"""
import contextlib, io, sys
from bscch.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["run", "--config", {rotating_cfg!r}]) == 0
    assert main(["cont-dep", "--config", {rotating_cfg!r}, "--amplitudes", "0,1e-3"]) == 0
    assert main(["run", "--config", {str(random_cfg)!r}]) == 0
    assert main(["cont-dep", "--config", {str(random_cfg)!r}, "--amplitudes", "0,1e-3"]) == 0
    assert main(["limit-study", "--config", {str(random_cfg)!r}, "--parameter", "L->0",
                 "--schedule", "1,0.5"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
      [m for m in ("numpy.ma", "numpy.testing", "numpy.polynomial", "numpy.f2py")
       if m in sys.modules],
      [m for m in ("numpy.random", "hashlib", "secrets") if m in sys.modules])
"""
    assert _python("-c", code) == (
        "['scipy.sparse._sparsetools', 'scipy.sparse.linalg._dsolve._superlu'] [] []")


_EXTENDED = st.sampled_from(["0", "1", "inf"])
_POTENTIAL = st.sampled_from(["reg", "log", "obst"])
_MOBILITY = st.sampled_from(["constant", "degenerate"])
_INVALID = [("time.tau", "0"), ("time.tau", "-1e-4"), ("time.T", "4e-5"), ("time.T", "-1"),
            ("yosida.eps", "0"), ("yosida.eps", "1.5"), ("output.every", "0"),
            ("mesh.nb", "6"), ("mesh.nr", "0"), ("init.amplitude", "3")]
_EXTREME = [("init.seed", "-1"), ("yosida.eps", "1e-300"), ("mobility.bulk.m0", "1e300"),
            ("mobility.bulk.m0", "1e-320"), ("velocity.omega", "1e300"), ("potential.c", "1e308"),
            ("potential.theta", "1e-300"), ("init.amplitude", "1e300"), ("time.tau", "1e-320"),
            ("model.beta", "1e100"), ("model.alpha", "5e-324")]


_VALUES = st.fixed_dictionaries({
    "mesh.nb": st.sampled_from(["8", "16"]), "mesh.nr": st.sampled_from(["2", "4"]),
    "model.K": _EXTENDED, "model.L": _EXTENDED,
    "model.alpha": st.sampled_from(["0", "0.3", "0.5", "1"]),
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
})


_PINNED = {  # alpha = 0.3 at K = 0: an initial state off the trace constraint
    "mesh.nb": "16", "mesh.nr": "4", "model.K": "0", "model.L": "1", "model.alpha": "0.3",
    "potential.bulk": "log", "potential.surf": "log", "mobility.bulk.kind": "constant",
    "mobility.surf.kind": "constant", "velocity.bulk": "none", "velocity.omega": "1",
    "time.tau": "1e-4", "time.T": "3e-4", "yosida.eps": "0.05", "newton.max_iter": "50",
    "newton.max_tau_halvings": "0", "init.amplitude": "0.2", "output.every": "1",
    "output.vtk": "true"}


@settings(max_examples=25, deadline=None)
@given(command=st.sampled_from(["run", "limit-study", "cont-dep"]),
       values=_VALUES,
       invalid=st.one_of(st.none(), st.sampled_from(_INVALID + _EXTREME)))
# at L = inf a huge beta runs to exit 0; its combined mass rounds on the scale of beta
@example(command="run", values={**_PINNED, "model.L": "inf"}, invalid=("model.beta", "1e100"))
# at L = 0 with convection it exited 0 with the combined mass moved by 7e97; now exit 2
@example(command="run", values={**_PINNED, "mesh.nb": "8", "mesh.nr": "2", "model.L": "0",
                                "potential.bulk": "reg", "potential.surf": "reg",
                                "velocity.bulk": "rigid_rotation", "output.vtk": "false"},
         invalid=("model.beta", "1e100"))
def test_generated_configs_end_in_a_documented_exit(command, values, invalid):
    # any config ends in a correct run (0), a message (1) or a solver failure (2);
    # ``invalid`` also draws extreme values: huge, tiny, denormal or negative
    extra = {"run": [], "limit-study": ["--parameter", "L->0", "--schedule", "1,0.5"],
             "cont-dep": ["--amplitudes", "0,1e-3"]}[command]
    values = {**values, **dict([invalid] if invalid else [])}
    assert _generated_exit(command, values, extra) in (0, 1, 2)


@pytest.mark.parametrize("K", ["0", "1", "inf"])
@pytest.mark.parametrize("key, value", _EXTREME)
def test_extreme_value_ends_in_a_documented_exit(key, value, K):
    # each extreme value the generator draws, run once; an exit 0 keeps its invariants
    assert _generated_exit("run", {**_PINNED, "model.K": K, key: value}) in (0, 1, 2)


@settings(max_examples=40, deadline=None)
@given(values=_VALUES)
@example(values=_PINNED)
def test_generated_runs_keep_their_invariants(values):
    # every valid run, with snapshots, that ends in exit 0 meets the discrete invariants
    assert _generated_exit("run", {**values, "output.vtk": "true"}) in (0, 1, 2)


def _generated_exit(command, values, extra=()):
    """Exit code of ``command`` on the config ``values``; a run that exits 0 must
    also meet its invariants."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "g.cfg"
        cfg.write_text(serialize_config({**values, "output.dir": str(Path(tmp) / "out")}))
        rc = main([command, "--config", str(cfg), *extra])
        if command == "run" and rc == 0:
            _check_run_invariants(values, Path(tmp) / "out")
    _event(f"{command} exit {rc}")
    return rc


def _event(label):
    """Hypothesis statistics; a parametrized test records none."""
    if currently_in_test_context():
        event(label)


def _vtk_scalars(path, name):
    lines = path.read_text().splitlines()
    i = lines.index(f"SCALARS {name} double 1")
    count = int(next(ln for ln in lines if ln.startswith("POINT_DATA")).split()[1])
    return np.array([float(v) for v in lines[i + 2 : i + 2 + count]])


def _check_run_invariants(values, outdir):
    """A correct run's invariants, read from its outputs: the conserved masses of
    series.csv drift by at most 1e-10 (criterion 06), the combined one
    beta * mass_bulk + mass_surf by 1e-10 * max(1, |beta|), its rounding scale;
    the energy does not rise by more than 1e-9 without convection (criterion 07)
    nor fall below the closed-form lower bound of its potentials, and at K = 0 every snapshot meets phi|_Gamma = alpha * psi bitwise."""
    with open(outdir / "series.csv") as fh:
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    bounds = {"mass_combined": 1e-10 * max(1.0, abs(float(values.get("model.beta", "1"))))}
    if values["model.L"] == "inf":
        bounds.update(mass_bulk=1e-10, mass_surf=1e-10)
    for name, bound in bounds.items():
        assert max(abs(r[name] - rows[0][name]) for r in rows) <= bound, name
    if values["velocity.bulk"] == "none":
        assert all(b["energy"] <= a["energy"] + 1e-9 for a, b in zip(rows, rows[1:]))
    # every term but the potentials is >= 0, and |Omega| <= pi, |Gamma| <= 2 pi
    p = build_run_config(values).params
    floor = (np.pi * regularized_lower_bound(p.pot_bulk, p.eps)
             + 2 * np.pi * regularized_lower_bound(p.pot_surf, p.eps))
    assert min(r["energy"] for r in rows) >= floor
    if values["model.K"] == "0" and values["output.vtk"] == "true":
        loop = generate_disk_mesh(int(values["mesh.nb"]), int(values["mesh.nr"])).boundary_loop
        bulk = sorted(outdir.glob("bulk_*.vtk"))
        assert bulk
        for path in bulk:
            phi = _vtk_scalars(path, "phi")
            psi = _vtk_scalars(outdir / path.name.replace("bulk", "surf"), "psi")
            np.testing.assert_array_equal(phi[loop], float(values["model.alpha"]) * psi)
        _event("run exit 0 at K = 0 with snapshots")
