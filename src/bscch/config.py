"""Line-based configuration: `key = value` with `#` comments, dotted keys.

The flat key map is validated against a closed registry; building the run
configuration revalidates every cross-field invariant of the downstream
dataclasses."""

from __future__ import annotations

import math

from .assembly import CouplingParams, Mobility, VelocityField
from .errors import ValidationError
from .potentials import KINDS, make_potential
from .stepper import InitialDataSpec, NewtonParams, RunConfig, RunParams


def parse_config(text: str) -> dict:
    """Parse `key = value` lines into an ordered flat map (values as strings)."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ValidationError(f"line {lineno}: empty key or value")
        if key in out:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def serialize_config(cfg: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in cfg.items())


def _float(value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValidationError(f"not a number: {value!r}") from None


def _extended(value: str) -> float:
    if value.strip().lower() == "inf":
        return math.inf
    return _float(value)


def _int(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValidationError(f"not an integer: {value!r}") from None


def _bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ValidationError(f"not a boolean: {value!r}")


def _choice(options):
    def conv(value):
        if value not in options:
            raise ValidationError(f"expected one of {options}, got {value!r}")
        return value
    return conv


# registry: key -> (converter, default as string or None for required)
KEY_REGISTRY = {
    "mesh.nb": (_int, "64"),
    "mesh.nr": (_int, "16"),
    "model.K": (_extended, "1"),
    "model.L": (_extended, "1"),
    "model.alpha": (_float, "1"),
    "model.beta": (_float, "1"),
    "potential.bulk": (_choice(KINDS), "log"),
    "potential.surf": (_choice(KINDS), "log"),
    "potential.c": (_float, "1"),
    "potential.theta": (_float, "0.8"),
    "potential.theta_c": (_float, "1.6"),
    "mobility.bulk.kind": (_choice(("constant", "degenerate")), "constant"),
    "mobility.bulk.m0": (_float, "1"),
    "mobility.bulk.m1": (_float, "1"),
    "mobility.surf.kind": (_choice(("constant", "degenerate")), "constant"),
    "mobility.surf.m0": (_float, "1"),
    "mobility.surf.m1": (_float, "1"),
    "velocity.bulk": (_choice(("none", "rigid_rotation")), "none"),
    "velocity.omega": (_float, "0"),
    "velocity.surf": (_choice(("none", "rotation")), "none"),
    "velocity.speed": (_float, "0"),
    "velocity.ramp": (_float, "0"),
    "time.tau": (_float, "1e-4"),
    "time.T": (_float, "0.05"),
    "yosida.eps": (_float, "0.05"),
    "newton.tol_abs": (_float, "1e-11"),
    "newton.tol_rel": (_float, "1e-10"),
    "newton.max_iter": (_int, "50"),
    "newton.max_tau_halvings": (_int, "0"),
    "init.mode": (_choice(("constant", "random", "bubbles")), "random"),
    "init.mean": (_float, "0"),
    "init.amplitude": (_float, "0.1"),
    "init.seed": (_int, "0"),
    "init.margin": (_float, "0.005"),
    "init.radius": (_float, "0.35"),
    "init.separation": (_float, "0.9"),
    "output.dir": (str, "out"),
    "output.every": (_int, "1"),
    "output.vtk": (_bool, "false"),
}


def resolve(cfg: dict) -> dict:
    """Apply defaults and converters; reject unknown keys."""
    unknown = sorted(set(cfg) - set(KEY_REGISTRY))
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    resolved = {}
    for key, (conv, default) in KEY_REGISTRY.items():
        raw = cfg.get(key, default)
        try:
            resolved[key] = conv(raw)
        except ValidationError as exc:
            raise ValidationError(f"{key}: {exc}") from None
    return resolved


def build_run_config(cfg: dict) -> RunConfig:
    r = resolve(cfg)
    coupling = CouplingParams(K=r["model.K"], L=r["model.L"],
                              alpha=r["model.alpha"], beta=r["model.beta"])
    pot_kwargs = dict(c=r["potential.c"], theta=r["potential.theta"],
                      theta_c=r["potential.theta_c"])
    params = RunParams(
        tau=r["time.tau"],
        t_final=r["time.T"],
        eps=r["yosida.eps"],
        coupling=coupling,
        pot_bulk=make_potential(r["potential.bulk"], **pot_kwargs),
        pot_surf=make_potential(r["potential.surf"], **pot_kwargs),
        mob_bulk=Mobility(kind=r["mobility.bulk.kind"], m0=r["mobility.bulk.m0"],
                          m1=r["mobility.bulk.m1"]),
        mob_surf=Mobility(kind=r["mobility.surf.kind"], m0=r["mobility.surf.m0"],
                          m1=r["mobility.surf.m1"]),
        velocity=VelocityField(bulk_kind=r["velocity.bulk"], omega=r["velocity.omega"],
                               surf_kind=r["velocity.surf"], speed=r["velocity.speed"],
                               ramp=r["velocity.ramp"]),
        newton=NewtonParams(tol_abs=r["newton.tol_abs"], tol_rel=r["newton.tol_rel"],
                            max_iter=r["newton.max_iter"],
                            max_tau_halvings=r["newton.max_tau_halvings"]),
        init=InitialDataSpec(mode=r["init.mode"], mean=r["init.mean"],
                             amplitude=r["init.amplitude"], seed=r["init.seed"],
                             margin=r["init.margin"], radius=r["init.radius"],
                             separation=r["init.separation"]),
    )
    for key in ("output.every", "newton.max_iter"):
        if r[key] < 1:
            raise ValidationError(f"{key} must be >= 1, got {r[key]}")
    if params.t_final > 0 and params.n_steps == 0:
        raise ValidationError(f"time.T = {params.t_final:g} is less than half a step "
                              f"(time.tau = {params.tau:g}) and would run no steps")
    return RunConfig(nb=r["mesh.nb"], nr=r["mesh.nr"], params=params,
                     output_every=r["output.every"])


def load_run_config(path: str):
    """Read a config file; returns (RunConfig, resolved map)."""
    with open(path) as fh:
        cfg = parse_config(fh.read())
    return build_run_config(cfg), resolve(cfg)
