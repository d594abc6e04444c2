import itertools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from dataclasses import replace

import bscch.stepper
from bscch.assembly import CouplingParams, Mobility, VelocityField
from bscch.diagnostics import masses
from bscch.errors import InvalidArgument, StepFailure
from bscch.mesh import generate_disk_mesh
from bscch.potentials import make_potential
from bscch.stepper import (
    InitialDataSpec,
    NewtonParams,
    RunConfig,
    RunParams,
    Stepper,
    StepReport,
    initial_state,
    make_initial_data,
    run,
)

LOG = make_potential("log")


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
    # halving tau reduces the final-state gap by ~2 (first-order scheme)
    base = _params(t_final=8e-3, init=InitialDataSpec(mode="bubbles"))
    mesh = generate_disk_mesh(32, 8)
    finals = []
    for tau in (4e-4, 2e-4, 1e-4):
        res = run(RunConfig(nb=32, nr=8, params=replace(base, tau=tau),
                            keep_states=False), mesh=mesh)
        finals.append(res.final_state.phi)
        forms = res.forms
    gaps = []
    for a, b in zip(finals, finals[1:]):
        d = a - b
        gaps.append(float(np.sqrt(d @ (forms.M_bulk @ d))))
    assert 1.7 <= gaps[0] / gaps[1] <= 2.3


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
    phi, psi = make_initial_data(spec, mesh, cp, LOG, LOG)
    assert np.abs(phi).max() <= 0.99 + 1e-15
    np.testing.assert_allclose(phi[mesh.boundary_loop], cp.alpha * psi, atol=1e-15)


def test_initial_data_mean_admissibility():
    # beta = 5 inflates the conserved combined mean past the log domain edge
    mesh = generate_disk_mesh(16, 4)
    cp = CouplingParams(K=1.0, L=1.0, alpha=1.0, beta=5.0)
    spec = InitialDataSpec(mode="constant", mean=0.9)
    with pytest.raises(InvalidArgument):
        make_initial_data(spec, mesh, cp, LOG, LOG)


def test_initial_data_bubbles_deterministic():
    mesh = generate_disk_mesh(16, 4)
    cp = CouplingParams(K=1.0, L=1.0, alpha=1.0, beta=1.0)
    spec = InitialDataSpec(mode="bubbles")
    phi1, _ = make_initial_data(spec, mesh, cp, LOG, LOG)
    phi2, _ = make_initial_data(spec, mesh, cp, LOG, LOG)
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
    p = _params(pot_bulk=LOG, pot_surf=make_potential("reg"))
    mesh = generate_disk_mesh(16, 4)
    with pytest.raises(InvalidArgument):
        Stepper(mesh, p)


def test_run_params_validation():
    with pytest.raises(InvalidArgument):
        _params(tau=-1.0)
    with pytest.raises(InvalidArgument):
        _params(eps=1.5)


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
    p = _params(coupling=CouplingParams(K=K, L=1.0, alpha=0.5, beta=2.0))
    mesh = generate_disk_mesh(16, 4)
    st = Stepper(mesh, p)
    d = st.lump_pair * np.random.default_rng(1).random(len(st.lump_pair))
    triple = (st.A_K + st.P_K.T @ sp.diags(d) @ st.P_K).toarray()
    lumped = (st.A_K + sp.diags(st.P_K.T @ (st.p_K * d))).toarray()
    np.testing.assert_array_equal(lumped, triple)


@pytest.mark.parametrize("kind,calls", [("constant", 2), ("degenerate", 2 * 3)])
def test_mobility_stiffness_built_at_its_rate(monkeypatch, kind, calls):
    # once per run for constant mobilities, once per step (bulk + surface) otherwise
    count = []
    assemble = bscch.stepper.assemble_mobility_stiffness
    monkeypatch.setattr(bscch.stepper, "assemble_mobility_stiffness",
                        lambda *a: count.append(1) or assemble(*a))
    mob = Mobility(kind=kind, m0=1.0, m1=1.0)
    run(RunConfig(nb=16, nr=4, params=_params(t_final=3e-4, mob_bulk=mob, mob_surf=mob),
                  keep_states=False))
    assert len(count) == calls


# -- the kept Jacobian factor ----------------------------------------------------

def _steps(p, n, mesh):
    """n steps driven by hand: (final state, reports, worst drift of the
    conserved masses: the combined one, and for L = inf also each phase's)."""
    stepper = Stepper(mesh, p)
    state = initial_state(mesh, p, stepper.forms)
    conserved = slice(0, 3) if np.isinf(p.coupling.L) else slice(2, 3)
    m0 = masses(state.phi, state.psi, stepper.forms, p.coupling)[conserved]
    reports, drift = [], 0.0
    for _ in range(n):
        state, report = stepper.step(state)
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
    assert first.factorizations == 1 and stepper.factor_tau == p.tau
    _, half = stepper.step(state, p.tau / 2)
    assert half.factorizations == 1 and stepper.factor_tau == p.tau / 2
    _, again = stepper.step(mid, p.tau / 2)
    assert again.factorizations == 0 and again.linear_iters > 0


class _NaNFactor(_NonFiniteFactor):
    def solve(self, rhs):
        return np.full(self.n, np.nan)


@pytest.mark.parametrize("factor", [_NonFiniteFactor, _NaNFactor])
def test_non_finite_kept_factor_refactors(monkeypatch, factor):
    p = _params()
    mesh = generate_disk_mesh(16, 4)
    stepper = Stepper(mesh, p)
    state, _ = stepper.step(initial_state(mesh, p))
    jacobian_shape = sp.eye(stepper.P_K.shape[1] + stepper.P_L.shape[1])
    stepper.factor = factor(jacobian_shape)
    calls = _count_splu(monkeypatch)
    new, report = stepper.step(state)
    assert len(calls) == 1 and report.factorizations == 1
    assert all(np.all(np.isfinite(getattr(new, f))) for f in ("phi", "psi", "mu", "theta"))
    # a refactor that is no better ends in a StepFailure, not in a NaN state
    monkeypatch.setattr(bscch.stepper, "splu", factor)
    stepper.factor = factor(jacobian_shape)
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
    ny = stepper.P_L.shape[1]
    phase_first = J[:, np.r_[ny:J.shape[0], 0:ny]].tocsc()
    default = scipy.sparse.linalg.splu(phase_first)
    assert lu.L.nnz + lu.U.nnz <= 0.6 * (default.L.nnz + default.U.nnz)


def test_followed_by_adds_counts_and_averages_rates():
    a = StepReport(newton_iters=2, residual=1e-3, linear_iters=5, factorizations=1,
                   diss_bulk=2.0, robin_gap_sq=1.0)
    b = StepReport(newton_iters=3, residual=1e-12, linear_iters=7, factorizations=0,
                   diss_bulk=4.0, robin_gap_sq=3.0)
    m = a.followed_by(b)
    assert (m.newton_iters, m.linear_iters, m.factorizations) == (5, 12, 1)
    assert (m.residual, m.diss_bulk, m.robin_gap_sq) == (1e-12, 3.0, 2.0)
