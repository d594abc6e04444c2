import itertools
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from dataclasses import fields, replace
from types import SimpleNamespace

import bscch.potentials
import bscch.stepper
from bscch.assembly import (
    CouplingParams,
    Mobility,
    VelocityField,
    assemble_core,
    assemble_mobility_stiffness,
    build_case_spaces,
)
from bscch.diagnostics import energy, limit_study, make_record, masses
from bscch.errors import InvalidArgument, StepFailure
from bscch.mesh import generate_disk_mesh
from bscch.potentials import Potential
from bscch.stepper import (
    InitialDataSpec,
    NewtonParams,
    RunConfig,
    RunParams,
    Stepper,
    StepReport,
    initial_state,
    run,
)
from oracles import as_scipy, means_reference, output_digest, prolongation, triple_product

LOG = Potential("log")


def _params(K=1.0, L=1.0, **kw):
    defaults = dict(
        tau=1e-4, t_final=2e-3, eps=0.05,
        coupling=CouplingParams(K=K, L=L, alpha=1.0, beta=1.0),
        pot_bulk=LOG, pot_surf=LOG,
        init=InitialDataSpec(mode="random", mean=0.0, amplitude=0.2, seed=7),
    )
    defaults.update(kw)
    return RunParams(**defaults)


@pytest.mark.parametrize("K", [0.0, 1.0, np.inf])
def test_constant_state_is_stationary(K):
    p = _params(K=K, L=np.inf, init=InitialDataSpec(mode="constant", mean=0.1))
    res = run(RunConfig(nb=16, nr=4, params=p))
    for s in res.states:
        assert np.abs(s.phi - 0.1).max() < 1e-13
        assert np.abs(s.psi - 0.1).max() < 1e-13
    assert all(abs(r.energy_residual) < 1e-12 for r in res.records)


@pytest.mark.parametrize("K,L", list(itertools.product([0.0, 1.0, np.inf], repeat=2)))
def test_mass_conservation_all_cases(K, L):
    res = run(RunConfig(nb=32, nr=8, params=_params(K=K, L=L), keep_states=False))
    recs = res.records
    scale = max(1.0, abs(recs[0].mass_combined))
    drift = max(abs(r.mass_combined - recs[0].mass_combined) for r in recs)
    assert drift <= 1e-10 * scale
    if np.isinf(L):
        assert max(abs(r.mass_bulk - recs[0].mass_bulk) for r in recs) <= 1e-10
        assert max(abs(r.mass_surf - recs[0].mass_surf) for r in recs) <= 1e-10


def test_energy_decreases_without_convection():
    res = run(RunConfig(nb=32, nr=8, params=_params(), keep_states=False))
    energies = [r.energy for r in res.records]
    assert all(e2 <= e1 + 1e-9 for e1, e2 in zip(energies, energies[1:]))
    assert all(r.energy_residual <= 1e-10 for r in res.records)


def test_determinism_bitwise():
    cfg = RunConfig(nb=16, nr=4, params=_params(), keep_states=False)
    r1, r2 = run(cfg), run(cfg)
    for a, b in zip(r1.records, r2.records):
        assert a == b
    np.testing.assert_array_equal(r1.final_state.phi, r2.final_state.phi)


def test_time_consistency_first_order():
    # halving tau reduces the final-state gap by ~2 (first-order scheme), and the
    # tau->0 limit study reports these gaps bit for bit, with a decreasing trend
    base = _params(t_final=8e-3, init=InitialDataSpec(mode="bubbles"))
    mesh = generate_disk_mesh(32, 8)
    taus = (4e-4, 2e-4, 1e-4)
    finals = []
    for tau in taus:
        res = run(RunConfig(nb=32, nr=8, params=replace(base, tau=tau),
                            keep_states=False), mesh=mesh)
        finals.append(res.final_state.phi)
        forms = res.forms
    gaps = []
    for a, b in zip(finals, finals[1:]):
        d = a - b
        gaps.append(float(np.sqrt(d @ (forms.M_bulk @ d))))
    assert 1.7 <= gaps[0] / gaps[1] <= 2.3
    rep = limit_study(RunConfig(nb=32, nr=8, params=base), "tau->0", taus)
    assert rep.values == tuple(gaps) and rep.extra == ()
    assert rep.decreasing


def test_convective_run_conserves_mass():
    vel = VelocityField(bulk_kind="rigid_rotation", omega=1.0,
                        surf_kind="rotation", speed=1.0)
    res = run(RunConfig(nb=32, nr=8, params=_params(velocity=vel), keep_states=False))
    recs = res.records
    drift = max(abs(r.mass_combined - recs[0].mass_combined) for r in recs)
    assert drift <= 1e-10


# -- initial data -------------------------------------------------------------

def test_initial_data_respects_clamp_and_trace():
    mesh = generate_disk_mesh(16, 4)
    cp = CouplingParams(K=0.0, L=1.0, alpha=2.0, beta=1.0)
    spec = InitialDataSpec(mode="random", mean=0.0, amplitude=0.4, seed=3, margin=0.01)
    state = initial_state(mesh, _params(coupling=cp, init=spec))
    phi, psi = state.phi, state.psi
    assert np.abs(phi).max() <= 0.99 + 1e-15
    np.testing.assert_allclose(phi[mesh.boundary_loop], cp.alpha * psi, atol=1e-15)


# 3**100 has five 32-bit words: SeedSequence mixes the fifth into the full pool
@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**64, 10**30, 3**100])
@pytest.mark.parametrize("sizes", [(0, 0), (1, 0), (1089, 64), (4225, 128)])
def test_uniform_draws_bitwise_equal_to_default_rng(seed, sizes):
    rng = np.random.default_rng(seed)
    expected = [rng.random(size) for size in sizes]
    drawn = bscch.stepper._uniform_draws(seed, *sizes)
    assert len(drawn) == len(sizes)
    for got, want in zip(drawn, expected):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.7, 0.9, 0.0, -0.8])
def test_initial_trace_constraint_holds_bitwise(alpha):
    # psi = phi|_Gamma / alpha alone left alpha * psi off phi|_Gamma in the last bit
    mesh = generate_disk_mesh(16, 4)
    cp = CouplingParams(K=0.0, L=1.0, alpha=alpha, beta=1.0)
    state = initial_state(mesh, _params(coupling=cp, init=InitialDataSpec(seed=0)))
    trace = state.phi[mesh.boundary_loop]
    np.testing.assert_array_equal(trace, alpha * state.psi)
    if alpha == 0.0:  # +0.0, not the -0.0 of 0.0 * psi for psi < 0
        assert not np.any(np.signbit(trace)) and np.any(state.psi < 0)


def test_initial_state_of_separate_masses_carries_the_lumped_means():
    # L = inf conserves the bulk and surface masses separately: the record's separate
    # lumped means of the clamped fields, which lie inside every well's domain
    mesh = generate_disk_mesh(16, 4)
    cp = CouplingParams(K=1.0, L=np.inf, alpha=1.0, beta=2.0)
    spec = InitialDataSpec(mode="bubbles", margin=0.01)
    p = _params(coupling=cp, init=spec)
    forms = assemble_core(mesh)
    state = initial_state(mesh, p, forms)
    _, chem = build_case_spaces(cp, forms)
    assert len(chem.pairs) == 2
    c_b, c_s = forms.split(chem.means(np.concatenate([state.phi, state.psi])))
    ref_b, ref_s = means_reference(forms, state.phi, state.psi, cp.beta, True)
    assert abs(c_b[0] - ref_b) <= 8 * np.spacing(1.0)
    assert abs(c_s[-1] - ref_s) <= 8 * np.spacing(1.0)
    assert np.all(c_b == c_b[0]) and np.all(c_s == c_s[0])


def test_initial_data_mean_admissibility():
    # beta = 5 inflates the conserved combined mean past the log domain edge
    mesh = generate_disk_mesh(16, 4)
    cp = CouplingParams(K=1.0, L=1.0, alpha=1.0, beta=5.0)
    spec = InitialDataSpec(mode="constant", mean=0.9)
    with pytest.raises(InvalidArgument):
        initial_state(mesh, _params(coupling=cp, init=spec))


def test_initial_data_bubbles_deterministic():
    mesh = generate_disk_mesh(16, 4)
    cp = CouplingParams(K=1.0, L=1.0, alpha=1.0, beta=1.0)
    spec = InitialDataSpec(mode="bubbles")
    phi1 = initial_state(mesh, _params(coupling=cp, init=spec)).phi
    phi2 = initial_state(mesh, _params(coupling=cp, init=spec)).phi
    np.testing.assert_array_equal(phi1, phi2)


# -- failure paths -------------------------------------------------------------

def test_newton_failure_raises_step_failure():
    p = _params(newton=NewtonParams(max_iter=0))
    mesh = generate_disk_mesh(16, 4)
    stepper = Stepper(mesh, p)
    state = initial_state(mesh, p)
    with pytest.raises(StepFailure):
        stepper.step(state)


# a 2-iteration Newton budget fails at tau but suffices at tau/16
HARD = dict(
    tau=1e-4, t_final=2e-4, eps=0.02,
    init=InitialDataSpec(mode="random", mean=0.0, amplitude=0.6, seed=7, margin=0.02),
)


def test_tau_halving_rescue():
    hard = HARD
    p_fail = _params(newton=NewtonParams(max_iter=2), **hard)
    with pytest.raises(StepFailure):
        run(RunConfig(nb=16, nr=4, params=p_fail, keep_states=False))
    p_ok = _params(newton=NewtonParams(max_iter=2, max_tau_halvings=6), **hard)
    res = run(RunConfig(nb=16, nr=4, params=p_ok, keep_states=False))
    assert res.records[-1].t == pytest.approx(p_ok.t_final)


def test_inadmissible_pairing_rejected():
    # singular bulk over regular surface requires alpha = 0
    p = _params(pot_bulk=LOG, pot_surf=Potential("reg"))
    mesh = generate_disk_mesh(16, 4)
    with pytest.raises(InvalidArgument):
        Stepper(mesh, p)


@pytest.mark.parametrize("where", ["bulk", "surf"])
@pytest.mark.parametrize("kind,key,eps", [("reg", "4 * yosida.eps * potential.c", 0.25),
                                          ("log", "yosida.eps * potential.theta_c", 0.625),
                                          ("obst", "2 * yosida.eps", 0.5)])
def test_eps_at_which_a_well_is_unbounded_below_is_refused(where, kind, key, eps):
    # F1_eps + F2 is bounded below exactly when eps * (4c, theta_c, 2) < 1 (c = 1 and
    # theta_c = 1.6 here); each well is checked, the other one bounded at any eps < 1
    pot = {"pot_bulk": Potential("reg", c=0.1), "pot_surf": Potential("reg", c=0.1),
           f"pot_{where}": Potential(kind)}
    with pytest.raises(InvalidArgument) as exc:
        _params(eps=eps, **pot)
    assert str(exc.value) == (f"{key} = 1 must be less than 1: the regularized "
                              f"potential.{where} = {kind} well has no lower bound")
    _params(eps=np.nextafter(eps, 0.0), **pot)


def test_admissible_reg_pairing_with_a_large_quartic_coefficient_builds():
    # a grid re-check of kappa1 = |alpha|^3 with an absolute slack of 1e-10
    # rejected this pairing, whose domination inequality is an identity.  eps = 1e-7 keeps
    # 4 eps c < 1, so that the regularized energy is bounded below
    reg = Potential("reg", c=1e6)
    p = _params(coupling=CouplingParams(K=1.0, L=1.0, alpha=0.7, beta=1.0),
                pot_bulk=reg, pot_surf=reg, eps=1e-7)
    Stepper(generate_disk_mesh(16, 4), p)
    assert bscch.potentials.check_domination(reg, reg, 0.7).admissible


def test_stepper_runs_no_regularized_domination_pass(monkeypatch):
    # the pairing check's Yosida pass (two calls per Stepper) had no reader
    calls = []
    yosida = bscch.potentials.yosida
    monkeypatch.setattr(bscch.potentials, "yosida", lambda *a: calls.append(1) or yosida(*a))
    Stepper(generate_disk_mesh(16, 4), _params())
    assert calls == []


def test_run_params_validation():
    with pytest.raises(InvalidArgument):
        _params(tau=-1.0)
    with pytest.raises(InvalidArgument):
        _params(eps=1.5)


def test_run_params_refuse_a_final_time_of_no_step():
    # run(RunConfig(16, 4, ...)) returned the t = 0 record alone and no error
    message = ("time.T = 0.0004 is less than half a step (time.tau = 0.001) "
               "and would run no steps")
    with pytest.raises(InvalidArgument) as exc:
        _params(tau=1e-3, t_final=4e-4)
    assert str(exc.value) == message
    assert _params(tau=1e-3, t_final=6e-4).n_steps == 1
    assert _params(tau=1e-3, t_final=0.0).n_steps == 0  # T = 0 asks for the initial record


def test_run_params_round_a_final_time_at_half_a_step_up():
    # round() tied to even: T = tau / 2 was refused as "less than half a step", 2.5 tau ran 2
    assert _params(tau=0.25, t_final=0.125).n_steps == 1
    assert _params(tau=0.25, t_final=0.625).n_steps == 3
    assert _params(tau=0.25, t_final=0.375).n_steps == 2
    # just below half a step is no step (int(r + 0.5) would round 0.49999999999999994 up)
    with pytest.raises(InvalidArgument, match="less than half a step"):
        _params(tau=1.0, t_final=np.nextafter(0.5, 0.0))


def _halving_by_hand(stepper, state, tau):
    """Sub-steps tau/2**k driven by hand: (final state, [(tau_i, report_i)])."""
    try:
        new, report = stepper.step(state, tau)
        return new, [(tau, report)]
    except StepFailure:
        mid, first = _halving_by_hand(stepper, state, tau / 2)
        new, second = _halving_by_hand(stepper, mid, tau / 2)
        return new, first + second


def test_rescued_step_reports_whole_step():
    p = _params(newton=NewtonParams(max_iter=2, max_tau_halvings=6), **HARD)
    res = run(RunConfig(nb=16, nr=4, params=p, keep_states=False))
    mesh = generate_disk_mesh(16, 4)
    stepper = Stepper(mesh, p)
    state = initial_state(mesh, p)
    robin_integral, n_subs = 0.0, []
    for rec in res.records[1:]:
        state, subs = _halving_by_hand(stepper, state, p.tau)
        n_subs.append(len(subs))
        assert rec.newton_iters == sum(r.newton_iters for _, r in subs)
        for name in ("diss_bulk", "diss_surf", "diss_robin"):
            weighted = sum(t * getattr(r, name) for t, r in subs) / p.tau
            assert getattr(rec, name) == pytest.approx(weighted, rel=1e-12)
        robin_integral += sum(t * r.robin_gap_sq for t, r in subs)
        assert rec.t == state.t
    assert n_subs[0] > 1  # the first step is rescued
    np.testing.assert_array_equal(res.final_state.phi, state.phi)
    assert res.robin_gap_sq_integral == pytest.approx(robin_integral, rel=1e-12)


class _ScriptedStepper:
    """A stepper without a PDE: a step of size tau from time t fails when tau is
    above ``limit(t)``; else it reports dyadic counts and rates that depend on (t, tau)."""

    def __init__(self, limit):
        self.limit, self.calls = limit, []

    def step(self, state, tau):
        self.calls.append((state.t, tau))
        if tau > self.limit(state.t):
            raise StepFailure(f"tau {tau} at t {state.t}")
        rates = {f.name: (i + 1) * state.t + tau
                 for i, f in enumerate(fields(StepReport)[3:])}
        self.report = StepReport(2, int(1 / tau), int(state.t == 0), **rates)
        return SimpleNamespace(t=state.t + tau), self.report


def test_tau_halving_loop_schedule_and_report():
    # the second half of the step needs one halving more than the first
    fake = _ScriptedStepper(lambda t: 0.5 if t < 0.5 else 0.125)
    state, report = bscch.stepper._attempt_step(fake, SimpleNamespace(t=0.0), 1.0, 3)
    assert fake.calls == [(0.0, 1.0), (0.0, 0.5), (0.5, 0.5), (0.5, 0.25), (0.5, 0.125),
                          (0.625, 0.125), (0.75, 0.25), (0.75, 0.125), (0.875, 0.125)]
    assert state.t == 1.0
    taken = [(0.0, 0.5), (0.5, 0.125), (0.625, 0.125), (0.75, 0.125), (0.875, 0.125)]
    assert (report.newton_iters, report.linear_iters, report.factorizations) == (10, 34, 1)
    for i, f in enumerate(fields(StepReport)[3:]):  # tau-weighted, exact in binary
        assert getattr(report, f.name) == sum(tau * ((i + 1) * t + tau) for t, tau in taken)
    # at the depth limit the failure of that sub-step is raised, after the same calls
    fake = _ScriptedStepper(fake.limit)
    with pytest.raises(StepFailure, match="tau 0.25 at t 0.5"):
        bscch.stepper._attempt_step(fake, SimpleNamespace(t=0.0), 1.0, 2)
    assert fake.calls == [(0.0, 1.0), (0.0, 0.5), (0.5, 0.5), (0.5, 0.25)]
    with pytest.raises(StepFailure, match="tau 1.0 at t 0.0"):
        bscch.stepper._attempt_step(fake, SimpleNamespace(t=0.0), 1.0, 0)
    # a step without a rescue returns its own report, untouched
    fake = _ScriptedStepper(lambda t: 1.0)
    state, report = bscch.stepper._attempt_step(fake, SimpleNamespace(t=0.25), 1.0, 3)
    assert fake.calls == [(0.25, 1.0)] and state.t == 1.25 and report is fake.report


@pytest.mark.parametrize("field", ["phi", "psi", "mu", "theta"])
def test_non_finite_state_raises_step_failure(field):
    p = _params(newton=NewtonParams(max_tau_halvings=2))
    mesh = generate_disk_mesh(16, 4)
    stepper = Stepper(mesh, p)
    state = initial_state(mesh, p)
    getattr(state, field)[3] = np.nan
    with pytest.raises(StepFailure):
        stepper.step(state)
    with pytest.raises(StepFailure):  # tau-halving cannot rescue it either
        bscch.stepper._attempt_step(stepper, state, p.tau, p.newton.max_tau_halvings)


class _NonFiniteFactor:
    def __init__(self, J):
        self.n = J.shape[0]

    def solve(self, rhs):
        return np.full(self.n, np.inf)


def _singular(J):
    raise RuntimeError("Factor is exactly singular")


@pytest.mark.parametrize("factor", [_singular, _NonFiniteFactor])
def test_linear_solver_breakdown_raises_step_failure(monkeypatch, factor):
    # an exactly singular factor, and a solve that yields a non-finite iterate
    p = _params()
    mesh = generate_disk_mesh(16, 4)
    stepper = Stepper(mesh, p)
    state = initial_state(mesh, p)
    monkeypatch.setattr(bscch.stepper, "splu", factor)
    with pytest.raises(StepFailure):
        stepper.step(state)


@pytest.mark.parametrize("K", [0.0, 1.0])
def test_lumped_diagonal_equals_triple_product(K):
    # weights that are not exact in binary, so a reassociated product would show
    p = _params(coupling=CouplingParams(K=K, L=1.0, alpha=0.8, beta=1.2))
    mesh = generate_disk_mesh(16, 4)
    st = Stepper(mesh, p)
    phase = st.phase
    d = st.forms.lump_pair * np.random.default_rng(1).random(len(st.forms.lump_pair))
    # zero surface entries leave no sum to round a slaved product's last bit away
    bulk_only = np.where(np.arange(len(d)) < st.forms.n_bulk, d, 0.0)
    for dd in (d, bulk_only):
        P = prolongation(phase)
        triple = (P.T @ sp.diags(dd) @ P).toarray()
        np.testing.assert_array_equal(np.diag(phase.lumped(dd)), triple)


@pytest.mark.parametrize("kind,calls", [("constant", 1), ("degenerate", 3)])
def test_mobility_stiffness_built_at_its_rate(monkeypatch, kind, calls):
    # the (bulk, surface) pair: once per run for constant mobilities, once per step otherwise
    count = []
    assemble = bscch.stepper.assemble_mobility_stiffness
    monkeypatch.setattr(bscch.stepper, "assemble_mobility_stiffness",
                        lambda *a: count.append(1) or assemble(*a))
    mob = Mobility(kind=kind, m0=1.0, m1=1.0)
    run(RunConfig(nb=16, nr=4, params=_params(t_final=3e-4, mob_bulk=mob, mob_surf=mob),
                  keep_states=False))
    assert len(count) == calls


# -- the kept Jacobian factor ----------------------------------------------------

def _steps(p, n, mesh, forget=False):
    """n steps of size p.tau driven by hand through the tau-halving loop, each on a
    copy of the state when ``forget`` (no predictor): (final state, reports, worst
    drift of the conserved masses: the combined one, and for L = inf also each
    phase's)."""
    stepper = Stepper(mesh, p)
    state = initial_state(mesh, p, stepper.forms)
    conserved = slice(0, 3) if np.isinf(p.coupling.L) else slice(2, 3)
    m0 = masses(state.phi, state.psi, stepper.forms, p.coupling)[conserved]
    reports, drift = [], 0.0
    for _ in range(n):
        state, report = bscch.stepper._attempt_step(
            stepper, state.copy() if forget else state, p.tau, p.newton.max_tau_halvings)
        reports.append(report)
        m = masses(state.phi, state.psi, stepper.forms, p.coupling)[conserved]
        drift = max(drift, *(abs(a - b) for a, b in zip(m, m0)))
    return state, reports, drift


@pytest.mark.parametrize("K,L", list(itertools.product([0.0, 1.0, np.inf], repeat=2)))
def test_kept_factor_matches_refactoring_every_iteration(monkeypatch, K, L):
    p = _params(K=K, L=L)
    mesh = generate_disk_mesh(16, 4)
    kept, kept_reports, kept_drift = _steps(p, 8, mesh)
    # a Krylov solve that never converges refactors in every Newton iteration
    monkeypatch.setattr(bscch.stepper, "_krylov", lambda *args: (None, 0))
    fresh, fresh_reports, _ = _steps(p, 8, mesh)
    assert all(r.factorizations == r.newton_iters for r in fresh_reports)
    assert sum(r.factorizations for r in kept_reports) < sum(r.newton_iters for r in kept_reports)
    assert [r.newton_iters for r in kept_reports] == [r.newton_iters for r in fresh_reports]
    for name in ("phi", "psi", "mu", "theta"):
        a, b = getattr(kept, name), getattr(fresh, name)
        assert np.abs(a - b).max() <= 1e-10 * max(np.abs(b).max(), 1e-300)
    assert kept_drift <= 1e-13


def test_kept_factor_through_a_rescue_matches_refactoring_every_iteration(monkeypatch):
    # each new tau of the rescued HARD steps drops the kept factor
    p = _params(newton=NewtonParams(max_iter=2, max_tau_halvings=6), **HARD)
    mesh = generate_disk_mesh(16, 4)
    schedule = []  # per sub-step: (tau, Newton iterations, or None when it failed)
    step = Stepper.step

    def logged(stepper, state, tau):
        schedule.append((tau, None))
        new, report = step(stepper, state, tau)
        schedule[-1] = (tau, report.newton_iters)
        return new, report

    monkeypatch.setattr(Stepper, "step", logged)
    kept, kept_reports, kept_drift = _steps(p, 3, mesh)
    kept_schedule = schedule.copy()
    schedule.clear()
    monkeypatch.setattr(bscch.stepper, "_krylov", lambda *args: (None, 0))
    fresh, fresh_reports, fresh_drift = _steps(p, 3, mesh)
    assert schedule == kept_schedule
    assert any(n is None for _, n in schedule) and min(tau for tau, _ in schedule) < p.tau
    assert all(r.factorizations == r.newton_iters for r in fresh_reports)
    assert sum(r.factorizations for r in kept_reports) < sum(r.newton_iters for r in kept_reports)
    assert [r.newton_iters for r in kept_reports] == [r.newton_iters for r in fresh_reports]
    digest = output_digest()
    taken = sum(n is not None for _, n in schedule)  # sub-steps, each to the Newton tolerance
    for name in ("phi", "psi", "mu", "theta"):
        a, b = getattr(kept, name), getattr(fresh, name)
        bound = digest.newton_bound(taken, digest.shortest_edge(mesh), np.abs(b).max())
        assert np.abs(a - b).max() <= bound
    assert max(kept_drift, fresh_drift) <= 1e-13


def _loosest_forcing(monkeypatch):
    """Every GMRES solve to FORCING_MAX, the loosest forcing term."""
    krylov = bscch.stepper._krylov
    monkeypatch.setattr(bscch.stepper, "_krylov", lambda apply, precondition, b, rtol, *mass: (
        krylov(apply, precondition, b, bscch.stepper.FORCING_MAX, *mass)))


@pytest.mark.parametrize("K,L", list(itertools.product([0.0, 1.0, np.inf], repeat=2)))
def test_mass_conserved_at_the_loosest_forcing_term(monkeypatch, K, L):
    # the kept factor has the step's tau, so a loose GMRES solve moves no mass
    _loosest_forcing(monkeypatch)
    _, reports, drift = _steps(_params(K=K, L=L), 20, generate_disk_mesh(32, 8))
    assert sum(r.linear_iters for r in reports) > 0
    assert drift <= 1e-13


def test_mass_conserved_at_the_loosest_forcing_term_with_degenerate_mobility(monkeypatch):
    # J0 changes every step while the kept factor holds an older mobility
    mob = Mobility(kind="degenerate", m0=0.5, m1=2.0)
    _loosest_forcing(monkeypatch)
    _, reports, drift = _steps(_params(K=0.0, L=0.0, mob_bulk=mob, mob_surf=mob, velocity=ROTATION),
                               20, generate_disk_mesh(32, 8))
    assert sum(r.linear_iters for r in reports) > 0
    assert drift <= 1e-13


def test_mass_conserved_at_the_loosest_forcing_term_through_a_rescue(monkeypatch):
    # one more Newton iteration than the HARD rescue above, which the loose solves need
    p = _params(newton=NewtonParams(max_iter=3, max_tau_halvings=6), **HARD)
    taus = []
    step = Stepper.step
    monkeypatch.setattr(Stepper, "step", lambda stepper, state, tau: taus.append(tau) or step(
        stepper, state, tau))
    _loosest_forcing(monkeypatch)
    _, reports, drift = _steps(p, 3, generate_disk_mesh(16, 4))
    assert min(taus) < p.tau and sum(r.linear_iters for r in reports) > 0
    assert drift <= 1e-13


def test_mass_drift_of_a_long_rescued_run_within_one_mass_rounding(monkeypatch):
    # 200 steps of obstacle wells at eps = 1e-3 (Jacobian entries 1/eps on the active nodes,
    # an ill-conditioned kept factor) with Newton capped at 3 iterations, so steps are rescued
    # by tau-halving.  The drift of the combined mass over the whole run must stay below the
    # rounding of one evaluation of its n-term lumped sum, sqrt(n) u sum_i |w_i phi_i| (the
    # probabilistic bound of Higham & Mary, SIAM J. Sci. Comput. 41 (2019))
    obst = Potential("obst")
    p = _params(tau=1e-3, t_final=0.2, eps=1e-3, pot_bulk=obst, pot_surf=obst,
                newton=NewtonParams(max_iter=3, max_tau_halvings=6),
                init=InitialDataSpec(mode="bubbles"))
    taus = []
    step = Stepper.step
    monkeypatch.setattr(Stepper, "step", lambda stepper, state, tau: taus.append(tau) or step(
        stepper, state, tau))
    res = run(RunConfig(nb=64, nr=16, params=p))
    f = res.forms
    sums = [np.abs(f.lump_bulk * s.phi).sum() + np.abs(f.lump_surf * s.psi).sum()
            for s in res.states]
    bound = np.sqrt(f.n_bulk + f.n_surf) * 2.0**-53 * max(sums)
    drift = max(abs(r.mass_combined - res.records[0].mass_combined) for r in res.records)
    assert len(res.records) == 201 and min(taus) < p.tau
    assert drift <= bound


def _count_splu(monkeypatch):
    calls = []
    factor = bscch.stepper.splu
    monkeypatch.setattr(bscch.stepper, "splu", lambda J: calls.append(1) or factor(J))
    return calls


def test_constant_mobility_run_factors_once(monkeypatch):
    calls = _count_splu(monkeypatch)
    res = run(RunConfig(nb=16, nr=4, params=_params(), keep_states=False))
    assert len(res.records) == 21 and sum(r.newton_iters for r in res.records) > 20
    assert len(calls) == 1


def test_new_tau_refactors():
    p = _params()
    mesh = generate_disk_mesh(16, 4)
    stepper = Stepper(mesh, p)
    state = initial_state(mesh, p)
    mid, first = stepper.step(state, p.tau)
    assert first.factorizations == 1 and stepper.system.factor[0] == p.tau
    _, half = stepper.step(state, p.tau / 2)
    assert half.factorizations == 1 and stepper.system.factor[0] == p.tau / 2
    _, again = stepper.step(mid, p.tau / 2)
    assert again.factorizations == 0 and again.linear_iters > 0


def test_at_most_one_factor_alive(monkeypatch):
    # the kept factor is dropped before each new one is taken: two alive double the memory
    p = _params()
    mesh = generate_disk_mesh(16, 4)
    stepper = Stepper(mesh, p)
    alive = []
    factor = bscch.stepper.splu
    monkeypatch.setattr(bscch.stepper, "splu",
                        lambda J: alive.append(stepper.system.factor) or factor(J))
    state = initial_state(mesh, p)
    mid, first = stepper.step(state)  # the first factor
    _, half = stepper.step(state, p.tau / 2)  # a new tau
    assert first.factorizations == half.factorizations == 1 and len(alive) == 2
    missed = []
    monkeypatch.setattr(bscch.stepper, "_krylov", lambda *args: missed.append(1) or (None, 0))
    _, miss = stepper.step(mid, p.tau / 2)  # a GMRES miss with the factor of this tau
    assert missed and miss.factorizations == len(missed) == len(alive) - 2
    assert alive == [None] * len(alive)
    assert stepper.system.factor[0] == p.tau / 2


def test_gmres_exact_breakdown_stops_without_dividing_by_zero():
    # a 1x1 system: the first Arnoldi vector spans the space, so h = 0 exactly, while the
    # true residual b - k (b / k) = -8.9e-16 misses rtol = 0: GMRES stops, unconverged
    k, b = 6.105694180095081, np.array([7.322015953741584])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, iters = bscch.stepper._krylov(lambda v: k * v, lambda v: v, b, 0.0,
                                         np.zeros((0, 1)), 0.0)
    assert x is None and iters == 1


class _NaNFactor(_NonFiniteFactor):
    def solve(self, rhs):
        return np.full(self.n, np.nan)


@pytest.mark.parametrize("factor", [_NonFiniteFactor, _NaNFactor])
def test_non_finite_kept_factor_refactors(monkeypatch, factor):
    p = _params()
    mesh = generate_disk_mesh(16, 4)
    stepper = Stepper(mesh, p)
    state, _ = stepper.step(initial_state(mesh, p))
    jacobian_shape = sp.eye(len(stepper.phase.idx) + len(stepper.chem.idx))
    stepper.system.factor = p.tau, factor(jacobian_shape)
    calls = _count_splu(monkeypatch)
    new, report = stepper.step(state)
    assert len(calls) == 1 and report.factorizations == 1
    assert all(np.all(np.isfinite(getattr(new, f))) for f in ("phi", "psi", "mu", "theta"))
    # a refactor that is no better ends in a StepFailure, not in a NaN state
    monkeypatch.setattr(bscch.stepper, "splu", factor)
    stepper.system.factor = p.tau, factor(jacobian_shape)
    with pytest.raises(StepFailure):
        stepper.step(new)


# the nine (K, L) cases with alpha = beta = 1, then alpha=0.5/beta=2 and K=0/alpha=0
FACTOR_CASES = [(K, L, 1.0, 1.0) for K, L in itertools.product([0.0, 1.0, np.inf], repeat=2)]
FACTOR_CASES += [(1.0, 1.0, 0.5, 2.0), (0.0, 1.0, 0.0, 1.0)]


@pytest.mark.parametrize("K,L,alpha,beta", FACTOR_CASES)
def test_jacobian_factor_is_accurate_and_sparse(monkeypatch, K, L, alpha, beta):
    p = _params(coupling=CouplingParams(K=K, L=L, alpha=alpha, beta=beta))
    mesh = generate_disk_mesh(32, 8)
    stepper = Stepper(mesh, p)
    captured = []
    factor = bscch.stepper.splu
    monkeypatch.setattr(bscch.stepper, "splu", lambda J: captured.append(J) or factor(J))
    stepper.step(initial_state(mesh, p, stepper.forms))
    J = captured[0]
    # (a) the direct solve of a fresh factor meets the Krylov tolerance
    b = np.random.default_rng(3).standard_normal(J.shape[0])
    lu = factor(J)
    assert np.linalg.norm(J @ lu.solve(b) - b) <= bscch.stepper.KRYLOV_RTOL * np.linalg.norm(b)
    # (b) far fewer L+U nonzeros than scipy's default splu in the (x, y) column order
    ny = len(stepper.chem.idx)
    phase_first = as_scipy(J)[:, np.r_[ny:J.shape[0], 0:ny]].tocsc()
    default = scipy.sparse.linalg.splu(phase_first)
    assert lu.L.nnz + lu.U.nnz <= 0.6 * (default.L.nnz + default.U.nnz)


# -- each piece built at its rate -------------------------------------------------

ROTATION = VelocityField(bulk_kind="rigid_rotation", omega=1.0, surf_kind="rotation", speed=1.0)


@pytest.mark.parametrize("kind", ["constant", "degenerate"])
def test_convection_assembled_once_per_stepper(monkeypatch, kind):
    count = []
    assemble = bscch.stepper.assemble_convection
    monkeypatch.setattr(bscch.stepper, "assemble_convection",
                        lambda *a: count.append(1) or assemble(*a))
    mob = Mobility(kind=kind, m0=1.0, m1=1.0)
    p = _params(t_final=5e-4, velocity=ROTATION, mob_bulk=mob, mob_surf=mob)
    res = run(RunConfig(nb=16, nr=4, params=p, keep_states=False))
    assert len(res.records) == 6 and len(count) == 1


def test_ramped_convection_matches_per_step_assembly():
    vel = replace(ROTATION, ramp=3e-4)
    p = _params(velocity=vel)
    mesh = generate_disk_mesh(16, 4)
    stepper = Stepper(mesh, p)
    state = initial_state(mesh, p, stepper.forms)
    C_b, C_s = stepper.convection
    for t in (1e-4, 2e-4, 3e-4, 5e-4):
        scaled = vel.factor(t) * np.concatenate([C_b @ state.phi, C_s @ state.psi])
        f = vel.factor(t)  # an independent reference: the field scaled by the ramp factor
        D_b, D_s = bscch.stepper.assemble_convection(
            mesh, replace(vel, omega=f * vel.omega, speed=f * vel.speed))
        direct = np.concatenate([D_b @ state.phi, D_s @ state.psi])
        assert np.abs(scaled - direct).max() <= 1e-15 * np.abs(direct).max()
    # the step uses the unit-ramp operators scaled by the ramp at the new time
    new, report = stepper.step(state)
    s = vel.factor(state.t + p.tau)
    assert report.conv_power_bulk == float(new.mu @ (s * (C_b @ state.phi)))
    assert report.conv_power_surf == float(new.theta @ (s * (C_s @ state.psi)))


def _first_newton_iterate(stepper, p):
    """(initial state, the first iteration's Jacobian blocks A1, M_LK/tau, M_KL,
    A_K and lumped diagonal D)."""
    state = initial_state(stepper.mesh, p, stepper.forms)
    phase = stepper.phase
    x_n = np.concatenate([state.phi, state.psi])[phase.idx]
    _, derivative, _ = stepper._nonlinear(phase.prolong(x_n))
    D = phase.lumped(stepper.forms.lump_pair * derivative)
    chem, f = stepper.chem, stepper.forms
    K_pair = sp.block_diag([as_scipy(K) for K in stepper.run_mobility], format="csr")
    B_L = as_scipy(chem.block)
    A1 = triple_product(chem, K_pair, chem) + triple_product(chem, B_L, chem)
    M_pair = as_scipy(f.M_pair)
    M_LK, M_KL = triple_product(chem, M_pair, phase), triple_product(phase, M_pair, chem)
    return state, (A1, (1.0 / p.tau) * M_LK, M_KL, as_scipy(stepper.system.A_K), D)


@pytest.mark.parametrize("K,L", list(itertools.product([0.0, 1.0, np.inf], repeat=2)))
def test_refactor_matrix_equals_block_form(monkeypatch, K, L):
    p = _params(K=K, L=L)
    stepper = Stepper(generate_disk_mesh(16, 4), p)
    state, (A1, J11, M_KL, A_K, D) = _first_newton_iterate(stepper, p)
    captured = []
    factor = bscch.stepper.splu
    monkeypatch.setattr(bscch.stepper, "splu", lambda J: captured.append(J) or factor(J))
    stepper.step(state)
    blocks = sp.bmat([[A1, J11], [M_KL, -(A_K + sp.diags(D))]], format="csc")
    np.testing.assert_array_equal(as_scipy(captured[0]).toarray(), blocks.toarray())


def test_factored_jacobian_is_the_sparse_difference(monkeypatch):
    # J0 - diag(0, D), with the exact zeros the sparse difference drops, bit for bit
    p = _params(K=0.0, L=1.0)
    mesh = generate_disk_mesh(16, 4)
    stepper = Stepper(mesh, p)
    stepper.step(initial_state(mesh, p, stepper.forms))
    system = stepper.system
    J0, ny = system.J0, system.ny
    D = np.random.default_rng(2).uniform(0.5, 2.0, J0.shape[0] - ny)
    D[0] = 0.0
    D[1] = as_scipy(J0)[ny + 1, ny + 1]  # an exact zero on the diagonal
    captured = []
    monkeypatch.setattr(bscch.stepper, "splu",
                        lambda J: captured.append(J) or SimpleNamespace(solve=lambda b: b))
    system.factor = None
    system.solve(D, np.ones(J0.shape[0]), bscch.stepper.KRYLOV_RTOL, None)  # no factor: no GMRES
    (J,), expected = captured, (as_scipy(J0) - sp.diags(np.concatenate([np.zeros(ny), D]))).tocsr()
    assert expected.nnz == np.count_nonzero(J0.data) - 1 < J0.nnz - 1  # J0 stores zeros too
    for attr in ("indptr", "indices", "data"):
        assert getattr(J, attr).tobytes() == getattr(expected, attr).tobytes()


@pytest.mark.parametrize("K,L", list(itertools.product([0.0, 1.0, np.inf], repeat=2)))
def test_apply_jacobian_matches_block_application(monkeypatch, K, L):
    p = _params(K=K, L=L)
    stepper = Stepper(generate_disk_mesh(16, 4), p)
    state, (A1, J11, M_KL, A_K, D) = _first_newton_iterate(stepper, p)
    # a kept factor sends the first iteration to GMRES, whose operator is applied
    # there (its D changes with the iteration)
    stepper.step(state)  # builds J0 for p.tau, the tau of the factor kept below
    stepper.system.factor = p.tau, _NonFiniteFactor(A1)
    ny = A1.shape[0]
    vs = [np.random.default_rng(seed).standard_normal(ny + len(D)) for seed in range(3)]
    applied = []
    monkeypatch.setattr(bscch.stepper, "_krylov", lambda apply, *rest: (
        applied.append([apply(v) for v in vs]) or (None, 0)))
    stepper.step(state)
    for v, got in zip(vs, applied[0]):
        vy, vx = v[:ny], v[ny:]
        blockwise = np.concatenate([A1 @ vy + J11 @ vx, M_KL @ vy - A_K @ vx - D * vx])
        assert np.abs(got - blockwise).max() <= 1e-14 * np.abs(blockwise).max()


@pytest.mark.parametrize("alpha,beta", [(0.8, 1.2), (0.0, 0.0)])
@pytest.mark.parametrize("K,L", list(itertools.product([0.0, 1.0, np.inf], repeat=2)))
def test_refreshed_linear_jacobian_matches_block_form(K, L, alpha, beta):
    # weights not exact in binary or zero, and mobilities that change with the state
    mob = Mobility(kind="degenerate", m0=0.5, m1=2.0)
    p = _params(K=K, L=L, coupling=CouplingParams(K=K, L=L, alpha=alpha, beta=beta),
                mob_bulk=mob, mob_surf=mob, velocity=ROTATION)
    mesh = generate_disk_mesh(16, 4)
    stepper = Stepper(mesh, p)
    phase, chem, f = stepper.phase, stepper.chem, stepper.forms
    M_pair, B_L = as_scipy(f.M_pair), as_scipy(chem.block)
    M_LK, M_KL = triple_product(chem, M_pair, phase), triple_product(phase, M_pair, chem)
    state = initial_state(mesh, p, stepper.forms)
    for _ in range(2):  # the J0 of each step is the one at the state it starts from
        K_pair = sp.block_diag([as_scipy(K) for K in assemble_mobility_stiffness(
            mesh, mob, state.phi, mob, state.psi)])
        A1 = triple_product(chem, K_pair, chem) + triple_product(chem, B_L, chem)
        ref = sp.bmat([[A1, M_LK / p.tau], [M_KL, -as_scipy(stepper.system.A_K)]], format="csr")
        state, _ = stepper.step(state)
        J0 = as_scipy(stepper.system.J0)
        assert J0.shape == ref.shape
        assert abs(J0 - ref).max() <= 1e-14 * abs(ref).max()


def test_half_step_after_full_step_equals_fresh_stepper():
    p = _params()
    mesh = generate_disk_mesh(16, 4)
    stepper = Stepper(mesh, p)
    state = initial_state(mesh, p, stepper.forms)
    stepper.step(state, p.tau)
    half, half_report = stepper.step(state, p.tau / 2)
    assert stepper.system.factor[0] == p.tau / 2
    fresh, fresh_report = Stepper(mesh, p).step(state, p.tau / 2)
    assert half_report == fresh_report
    for name in ("phi", "psi", "mu", "theta"):
        np.testing.assert_array_equal(getattr(half, name), getattr(fresh, name))


@pytest.mark.parametrize("K,pot", [(1.0, "log"), (0.0, "obst")])
def test_record_energy_equals_recomputed_energy(K, pot):
    potential = Potential(pot)
    p = _params(K=K, pot_bulk=potential, pot_surf=potential, velocity=ROTATION, t_final=5e-4)
    res = run(RunConfig(nb=16, nr=4, params=p))
    assert len(res.records) == len(res.states) == 6
    for rec, s in zip(res.records, res.states):
        assert s.nonlinear is None  # kept states are copies: the energy is recomputed
        assert rec.energy == energy(s.phi, s.psi, res.forms, p)


def _count_resolvents(monkeypatch, p, per_residual):
    """Over four steps: per_residual resolvent calls per damping trial and for the
    predictor when it is tried; none for a step's first residual, except at a
    hand-built state, and none for the record of the state a step returns."""
    mesh = generate_disk_mesh(16, 4)
    stepper = Stepper(mesh, p)
    state = initial_state(mesh, p, stepper.forms)
    calls = []
    resolve = bscch.potentials.resolvent
    monkeypatch.setattr(bscch.potentials, "resolvent", lambda *a: calls.append(1) or resolve(*a))
    monkeypatch.setattr(bscch.stepper, "DAMPING_FACTORS", (1.0,))  # one trial per iteration
    make_record(state, stepper.forms, p, StepReport(newton_iters=0), None)
    assert len(calls) == 2  # a hand-built state has no resolvents yet
    for k in range(4):
        calls.clear()
        # from the third step on, each starts from a state with a history of its own
        # tau (the first two start from the initial state and from a step of it); a
        # step with Newton iterations did not start converged, so it tries the predictor
        predicted = state.previous is not None and state.previous[0] == p.tau
        assert predicted == (k > 1)
        state, report = stepper.step(state)
        assert report.newton_iters > 0
        assert len(calls) == per_residual * (report.newton_iters + predicted + (k == 0))
        calls.clear()
        make_record(state, stepper.forms, p, report, 0.0)
        assert calls == []


def test_each_resolvent_evaluated_once(monkeypatch):
    # both wells the same record: one call on the whole pair (the resolvent works entry
    # by entry)
    _count_resolvents(monkeypatch, _params(), 1)


def test_each_resolvent_evaluated_once_for_unequal_wells(monkeypatch):
    # an admissible pair of different wells: one call each for bulk and surface
    _count_resolvents(monkeypatch, _params(pot_surf=Potential("log", theta_c=1.5)), 2)


# -- the Newton start: the extrapolated state ---------------------------------------

NINE = list(itertools.product([0.0, 1.0, np.inf], repeat=2))


@pytest.mark.parametrize("K,L", NINE)
def test_predictor_matches_stepping_without_history(K, L):
    # the bound of scripts/output_digest.py: two runs that each meet the Newton
    # tolerance at every one of n steps on a mesh of shortest edge h_min
    p = _params(K=K, L=L)
    mesh = generate_disk_mesh(16, 4)
    predicted, predicted_reports, predicted_drift = _steps(p, 20, mesh)
    plain, plain_reports, plain_drift = _steps(p, 20, mesh, forget=True)
    digest = output_digest()
    h_min = digest.shortest_edge(mesh)
    for name in ("phi", "psi", "mu", "theta"):
        a, b = getattr(predicted, name), getattr(plain, name)
        assert np.abs(a - b).max() <= digest.newton_bound(20, h_min, np.abs(b).max())
    assert max(predicted_drift, plain_drift) <= 1e-13
    assert (sum(r.newton_iters for r in predicted_reports)
            < sum(r.newton_iters for r in plain_reports))


@pytest.mark.parametrize("K,L", NINE)
def test_step_converged_at_the_predictor_conserves_mass(K, L):
    # the predictor 2 x_n - x_{n-1} is an affine combination of two states of equal
    # mass, so a step that takes it without a Newton iteration keeps the mass
    p = _params(K=K, L=L, newton=NewtonParams(tol_rel=0.5))
    _, reports, drift = _steps(p, 8, generate_disk_mesh(16, 4))
    assert any(r.newton_iters == 0 for r in reports)
    assert drift <= 1e-13


def test_copies_and_initial_states_carry_no_history():
    # a history is kept only from a start point that came out of a step: the first
    # step from an initial state or a copy records none, the second one does
    p = _params()
    mesh = generate_disk_mesh(16, 4)
    stepper = Stepper(mesh, p)
    state = initial_state(mesh, p, stepper.forms)
    assert state.previous is None
    first, _ = stepper.step(state)
    assert first.previous is None
    second, _ = stepper.step(first)
    assert second.previous[0] == p.tau and second.copy().previous is None
    from_copy, _ = stepper.step(second.copy())
    assert from_copy.previous is None
    assert stepper.step(from_copy)[0].previous[0] == p.tau
    res = run(RunConfig(nb=16, nr=4, params=p))
    assert res.final_state.previous is None
    assert all(s.previous is None for s in res.states)


def _twin_steps(p, mesh, tau):
    """From two equal steppers after two steps at p.tau, one step of size tau, taken
    from the state with its history and from the same state without it; per side
    (new state, report, regularized-derivative evaluations)."""
    sides = []
    for keep in (True, False):
        stepper = Stepper(mesh, p)
        state, _ = stepper.step(initial_state(mesh, p, stepper.forms))
        state, _ = stepper.step(state)
        calls = []
        evaluate = stepper._nonlinear
        stepper._nonlinear = lambda phase: calls.append(1) or evaluate(phase)
        new, report = stepper.step(state if keep else replace(state, previous=None), tau)
        sides.append((new, report, len(calls)))
    return sides


def test_new_tau_does_not_use_the_predictor(monkeypatch):
    monkeypatch.setattr(bscch.stepper, "DAMPING_FACTORS", (1.0,))  # one trial per iteration
    p = _params()
    mesh = generate_disk_mesh(16, 4)
    (kept, kept_report, kept_calls), (plain, plain_report, plain_calls) = _twin_steps(
        p, mesh, p.tau / 2)
    assert kept_report == plain_report and kept_calls == plain_calls == kept_report.newton_iters
    for name in ("phi", "psi", "mu", "theta"):
        np.testing.assert_array_equal(getattr(kept, name), getattr(plain, name))
    # at the same tau the history is used: one more evaluation, for the predictor,
    # and another Newton path
    (kept, kept_report, kept_calls), (plain, plain_report, plain_calls) = _twin_steps(
        p, mesh, p.tau)
    assert (kept_calls, plain_calls) == (kept_report.newton_iters + 1, plain_report.newton_iters)
    assert not np.array_equal(kept.mu, plain.mu)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_predictor_falls_back_to_the_current_state(bad):
    p = _params()
    mesh = generate_disk_mesh(16, 4)
    steps = []
    for keep in (True, False):  # a non-finite x_{n-1}, and no history
        stepper = Stepper(mesh, p)
        state, _ = stepper.step(initial_state(mesh, p, stepper.forms))
        state, _ = stepper.step(state)  # the first step with a history
        tau, x_prev, y_prev = state.previous
        history = (tau, np.full_like(x_prev, bad), y_prev) if keep else None
        steps.append(stepper.step(replace(state, previous=history)))
    (new, report), (plain, plain_report) = steps
    assert report == plain_report
    for name in ("phi", "psi", "mu", "theta"):
        np.testing.assert_array_equal(getattr(new, name), getattr(plain, name))


def test_tau_halving_rescue_starts_each_new_tau_without_the_predictor(monkeypatch):
    p = _params(newton=NewtonParams(max_iter=2, max_tau_halvings=6), **HARD)
    mesh = generate_disk_mesh(16, 4)
    stepper = Stepper(mesh, p)
    # (tau, the tau of the history of the state it starts from, whether that state
    # came out of a step)
    steps = []
    step = stepper.step
    monkeypatch.setattr(stepper, "step", lambda state, tau: steps.append(
        (tau, state.previous and state.previous[0], state.nonlinear is not None))
        or step(state, tau))
    state = initial_state(mesh, p, stepper.forms)
    for _ in range(3):  # the third step is the first to start from a history of its tau
        state, _ = bscch.stepper._attempt_step(stepper, state, p.tau, 6)
    taus = [tau for tau, _, _ in steps]
    assert min(taus) < p.tau  # a step was rescued
    # each sub-step of a new tau starts from a state of another tau: the outer state,
    # whose step it halves, or none.  A sub-step of the tau before it starts from that
    # sub-step's result, which has a history only when that sub-step started from a
    # stepped state: not the first one taken from the initial state
    for (tau, previous, _), (before, _, stepped) in zip(steps[1:], steps):
        assert (previous == tau) == (tau == before and stepped)
    assert any(previous == tau for tau, previous, _ in steps)  # the predictor is tried
    assert any(tau == before and not stepped  # and the rule without history is met
               for (tau, _, _), (before, _, stepped) in zip(steps[1:], steps))
    assert state.previous[0] == taus[-1]


@pytest.mark.parametrize("every", [0, -1])
def test_output_every_below_one_rejected(every):
    # run divided by it: a ZeroDivisionError at 0, and every step recorded at -1
    with pytest.raises(InvalidArgument, match="output.every"):
        run(RunConfig(nb=16, nr=4, params=_params(t_final=3e-4), output_every=every))
