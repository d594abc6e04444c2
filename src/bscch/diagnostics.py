"""Observables of the coupled system: energy, masses, dissipation budget,
separation margins, and the continuous-dependence and limit experiments."""

from __future__ import annotations

from dataclasses import dataclass, replace, fields as dc_fields

import numpy as np

from .assembly import CouplingParams, FormsBundle, assemble_core, sigma
from .elliptic import InverseCoupledOperator
from .errors import InvalidArgument
from .mesh import generate_disk_mesh
from .potentials import moreau_envelope

@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    mass_bulk: float
    mass_surf: float
    mass_combined: float
    energy: float
    diss_bulk: float
    diss_surf: float
    diss_robin: float
    conv_power_bulk: float
    conv_power_surf: float
    energy_residual: float
    sep_margin_bulk: float
    sep_margin_surf: float
    newton_iters: int

    def as_row(self):
        return [getattr(self, f) for f in CSV_FIELDS]


CSV_FIELDS = tuple(f.name for f in dc_fields(DiagnosticsRecord))  # series.csv columns


def masses(phi, psi, forms: FormsBundle, cp: CouplingParams):
    mass_bulk = float(forms.lump_bulk @ phi)
    mass_surf = float(forms.lump_surf @ psi)
    return mass_bulk, mass_surf, cp.beta * mass_bulk + mass_surf


def energy(phi, psi, forms: FormsBundle, params, resolvents=None) -> float:
    """Discrete regularized energy with lumped potential terms; ``resolvents``
    = (J(phi), J(psi)) when known."""
    cp = params.coupling
    e = params.eps
    j_b, j_s = resolvents or (None, None)
    F = moreau_envelope(params.pot_bulk, e, phi, j_b) + params.pot_bulk.smooth_value(phi)
    G = moreau_envelope(params.pot_surf, e, psi, j_s) + params.pot_surf.smooth_value(psi)
    val = 0.5 * float(phi @ (forms.A_bulk @ phi)) + float(forms.lump_bulk @ F)
    val += 0.5 * float(psi @ (forms.A_surf @ psi)) + float(forms.lump_surf @ G)
    s_K = sigma(cp.K)
    if s_K > 0.0:
        val += 0.5 * s_K * forms.mismatch_sq(phi, psi, cp.alpha)
    return val


def separation_margin(phi, psi):
    return 1.0 - float(np.abs(phi).max()), 1.0 - float(np.abs(psi).max())


def energy_residual(e_new, e_old, tau, report) -> float:
    """Discrete energy-identity defect; <= 0 means dissipation holds."""
    return (
        (e_new - e_old) / tau
        + report.diss_bulk + report.diss_surf + report.diss_robin
        - report.conv_power_bulk - report.conv_power_surf
    )


def make_record(state, forms: FormsBundle, params, report, prev_energy) -> DiagnosticsRecord:
    mb, ms, mc = masses(state.phi, state.psi, forms, params.coupling)
    en = energy(state.phi, state.psi, forms, params, state.nonlinear and state.nonlinear[2])
    defect = 0.0 if prev_energy is None else energy_residual(en, prev_energy, params.tau, report)
    db, ds = separation_margin(state.phi, state.psi)
    return DiagnosticsRecord(  # the step's rates and Newton count under their StepReport names
        t=state.t, mass_bulk=mb, mass_surf=ms, mass_combined=mc, energy=en,
        energy_residual=defect, sep_margin_bulk=db, sep_margin_surf=ds,
        **{name: getattr(report, name) for name in CSV_FIELDS if hasattr(report, name)},
    )


# -- experiments -----------------------------------------------------------

@dataclass(frozen=True)
class CDReport:
    amplitudes: tuple
    max_distances: tuple
    zero_is_zero: bool
    monotone: bool
    first_order_ratio: float | None


def continuous_dependence_experiment(config_base, perturbation_amplitudes) -> CDReport:
    """Perturb the rigid-rotation speed and measure trajectory divergence.

    Each member run uses the same initial data and omega + a, on the base
    run's mesh and core operators; distances are dual norms of the pair
    differences against the unperturbed trajectory, maximized over the
    recorded times.
    """
    from .stepper import run  # local import to avoid a cycle

    params = config_base.params
    for mob in (params.mob_bulk, params.mob_surf):
        if mob.kind != "constant":
            raise InvalidArgument("continuous dependence experiment requires constant mobilities")
    vel = params.velocity
    if vel.bulk_kind != "rigid_rotation":
        raise InvalidArgument("continuous dependence experiment requires a rigid_rotation velocity")
    amps = [float(a) for a in perturbation_amplitudes]
    if not np.all(np.isfinite(amps)):  # checked first: NaN defeats the sorted check
        raise InvalidArgument(f"perturbation amplitudes must be finite, got {amps}")
    if sorted(amps) != amps:
        raise InvalidArgument("perturbation amplitudes must be sorted ascending")

    members = [  # every member is checked (omega + a too) before the base run
        replace(config_base, params=replace(params, velocity=replace(vel, omega=vel.omega + a)))
        for a in amps
    ]
    base = run(config_base)
    op = InverseCoupledOperator(base.mesh, params.coupling, forms=base.forms)

    def max_distance(cfg):
        res = run(cfg, mesh=base.mesh, forms=base.forms)
        dmax = 0.0
        for s_base, s_pert in zip(base.states, res.states):
            pair = np.concatenate([s_pert.phi - s_base.phi, s_pert.psi - s_base.psi])
            dmax = max(dmax, op.dual_norm(pair))
        return dmax

    maxima = [max_distance(cfg) for cfg in members]

    zero_ok = all(d <= 1e-12 for a, d in zip(amps, maxima) if a == 0.0)
    monotone = all(d1 <= d2 + 1e-14 for d1, d2 in zip(maxima, maxima[1:]))
    nonzero = [(a, d) for a, d in zip(amps, maxima) if a > 0.0]
    ratio = None
    if len(nonzero) >= 2:
        (a1, d1), (a2, d2) = nonzero[0], nonzero[1]
        if d1 > 0.0:
            ratio = (d2 / a2) / (d1 / a1)
    return CDReport(tuple(amps), tuple(maxima), zero_ok, monotone, ratio)


LIMITS = ("L->0", "L->inf", "K->0", "K->inf", "eps->0", "tau->0")
_GAP_LIMITS = ("eps->0", "tau->0")  # observed through the final-state gap of consecutive members


@dataclass(frozen=True)
class LimitReport:
    parameter: str
    schedule: tuple
    values: tuple        # primary observable per schedule entry
    extra: tuple         # secondary observable (mass drift for L->inf), else empty
    decreasing: bool


def _mass_drift(result):
    recs = result.records
    db = max(abs(r.mass_bulk - recs[0].mass_bulk) for r in recs)
    ds = max(abs(r.mass_surf - recs[0].mass_surf) for r in recs)
    return max(db, ds)


def _observables(parameter, results):
    """The observable named in the convergence statement of ``parameter``, one
    per member run; for "eps->0" and "tau->0" one per consecutive pair of
    members: the L2 gap of their final bulk phase fields."""
    if parameter in _GAP_LIMITS:
        gaps = [(r1.forms.M_bulk, r1.final_state.phi - r2.final_state.phi)
                for r1, r2 in zip(results, results[1:])]
        return [float(np.sqrt(d @ (M_bulk @ d))) for M_bulk, d in gaps]

    def observable(res):
        final, cp = res.final_state, res.params.coupling
        if parameter == "L->0":
            return res.robin_gap_sq_integral
        if parameter == "L->inf":
            return sigma(cp.L)**2 * res.robin_gap_sq_integral
        gap_norm = float(np.sqrt(res.forms.mismatch_sq(final.phi, final.psi, cp.alpha)))
        return gap_norm if parameter == "K->0" else 0.5 * sigma(cp.K) * gap_norm**2

    return [observable(res) for res in results]


def limit_study(config_base, parameter: str, schedule) -> LimitReport:
    """Trend check for the coupling, regularization and time-step limits.

    parameter is one of LIMITS; the schedule must move monotonically toward
    the limit.  Every member runs on one shared mesh and its core operators,
    and keeps no states (only its records and final state are read).  The
    report carries the observables of ``_observables``; for "L->inf" the
    trend is that of the mass drift in ``extra``.  A "tau->0" member must
    end at time.T: n_steps * tau within 4 u T of it (one rounding each of T,
    tau and the product), or its gap would measure a time mismatch, not the
    scheme.
    """
    from .stepper import UNIT_ROUNDOFF, run  # local import to avoid a cycle

    schedule = [float(v) for v in schedule]
    if parameter not in LIMITS:
        raise InvalidArgument(f"unknown limit parameter {parameter!r}")
    name = parameter.split("->")[0]  # eps, tau, K or L
    toward_zero = parameter.endswith("->0")
    if not all((b < a) if toward_zero else (b > a) for a, b in zip(schedule, schedule[1:])):
        key = {"eps": "yosida.eps", "tau": "time.tau"}.get(name, f"model.{name}")
        raise InvalidArgument(f"schedule of {key} must be monotone toward the limit, got {schedule}")
    if len(schedule) < 2:  # every observable's trend compares consecutive members
        raise InvalidArgument(f"schedule must list at least two values, got {schedule}")

    params = config_base.params
    members = [  # every member is checked before the first run
        replace(config_base, keep_states=False,
                params=(replace(params, **{name: v}) if name in ("eps", "tau")
                        else replace(params, coupling=replace(params.coupling, **{name: v}))))
        for v in schedule
    ]
    T = params.t_final
    for v, cfg in zip(schedule, members):
        n = cfg.params.n_steps
        if name == "tau" and abs(n * v - T) > 4 * UNIT_ROUNDOFF * T:
            raise InvalidArgument(f"time.tau = {v:g} does not divide time.T = {T:g}: "
                                  f"its {n} steps end at {n * v:g}")
    mesh = generate_disk_mesh(config_base.nb, config_base.nr)
    forms = assemble_core(mesh)
    results = [run(cfg, mesh=mesh, forms=forms) for cfg in members]
    values = _observables(parameter, results)
    extra = [_mass_drift(res) for res in results] if parameter == "L->inf" else []
    seq = extra if parameter == "L->inf" else values
    dec = all((b <= a) if parameter in _GAP_LIMITS else (b < a) for a, b in zip(seq, seq[1:]))
    return LimitReport(parameter, tuple(schedule), tuple(values), tuple(extra), dec)
