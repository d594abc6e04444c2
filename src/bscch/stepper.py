"""Time integration of the coupled bulk-surface system.

One step solves the implicit Euler / convex-splitting system for
(phi, psi, mu, theta): the convex potential part enters through its
regularized monotone derivative (implicit, mass-lumped), the concave smooth
part and the convection are explicit in the phase fields, the mobility is
lagged one step, and the velocity is evaluated at the new time.  This keeps
every step mass-conservative to roundoff and energy-decreasing without
convection.

Dirichlet couplings (K=0, L=0) are eliminated exactly through the case-space
prolongations, so slaved boundary values satisfy their constraints bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import diagnostics as diag
from .assembly import (
    CouplingParams,
    FormsBundle,
    Mobility,
    VelocityField,
    assemble_convection,
    assemble_core,
    assemble_mobility_stiffness,
    build_case_spaces,
)
from .errors import InvalidArgument, StepFailure
from .mesh import TriMesh, generate_disk_mesh
from .potentials import Potential, check_domination, yosida

DAMPING_FACTORS = (1.0, 0.5, 0.25, 0.125)


@dataclass
class State:
    t: float
    phi: np.ndarray
    psi: np.ndarray
    mu: np.ndarray
    theta: np.ndarray

    def copy(self):
        return State(self.t, self.phi.copy(), self.psi.copy(), self.mu.copy(), self.theta.copy())


@dataclass(frozen=True)
class NewtonParams:
    tol_abs: float = 1e-11
    tol_rel: float = 1e-10
    max_iter: int = 50
    damping_floor: float = 0.125
    max_tau_halvings: int = 0


@dataclass(frozen=True)
class InitialDataSpec:
    mode: str = "random"  # constant | random | bubbles
    mean: float = 0.0
    amplitude: float = 0.1
    seed: int = 0
    margin: float = 0.005  # clamp distance from +-1
    radius: float = 0.35
    separation: float = 0.9

    def __post_init__(self):
        if self.mode not in ("constant", "random", "bubbles"):
            raise InvalidArgument(f"unknown initial data mode {self.mode!r}")
        if not (0.0 < self.margin < 1.0):
            raise InvalidArgument("clamp margin must lie in (0,1)")


@dataclass(frozen=True)
class RunParams:
    tau: float
    t_final: float
    eps: float
    coupling: CouplingParams
    pot_bulk: Potential
    pot_surf: Potential
    mob_bulk: Mobility = Mobility()
    mob_surf: Mobility = Mobility()
    velocity: VelocityField = VelocityField()
    newton: NewtonParams = NewtonParams()
    init: InitialDataSpec = InitialDataSpec()

    def __post_init__(self):
        if self.tau <= 0:
            raise InvalidArgument("time step must be positive")
        if self.t_final < 0:
            raise InvalidArgument("final time must be nonnegative")
        if not (0.0 < self.eps < 1.0):
            raise InvalidArgument("regularization parameter must lie in (0,1)")

    @property
    def n_steps(self):
        """Number of steps of size tau to the final time (T rounded to a multiple of tau)."""
        return int(round(self.t_final / self.tau))


@dataclass(frozen=True)
class RunConfig:
    nb: int
    nr: int
    params: RunParams
    output_every: int = 1
    keep_states: bool = True


@dataclass
class StepReport:
    newton_iters: int
    residual: float
    diss_bulk: float = 0.0
    diss_surf: float = 0.0
    diss_robin: float = 0.0
    conv_power_bulk: float = 0.0
    conv_power_surf: float = 0.0


@dataclass
class RunResult:
    records: list
    states: list
    mesh: TriMesh
    forms: FormsBundle
    params: RunParams
    final_state: State = None
    robin_gap_sq_integral: float = 0.0


def make_initial_data(spec: InitialDataSpec, mesh: TriMesh, cp: CouplingParams,
                      pot_bulk: Potential, pot_surf: Potential,
                      forms: FormsBundle | None = None):
    """Construct admissible nodal initial data (phi0, psi0).

    Values are clamped into [-1 + margin, 1 - margin]; the K=0 trace
    constraint is imposed exactly; the mean conditions of the relevant
    L-case are checked against the interiors of the derivative domains.
    """
    forms = forms if forms is not None else assemble_core(mesh)
    n, b = mesh.n_vertices, mesh.n_boundary
    lo, hi = -1.0 + spec.margin, 1.0 - spec.margin

    if spec.mode == "constant":
        phi = np.full(n, float(spec.mean))
        psi = np.full(b, float(spec.mean))
    elif spec.mode == "random":
        rng = np.random.default_rng(spec.seed)
        phi = spec.mean + spec.amplitude * (2.0 * rng.random(n) - 1.0)
        psi = spec.mean + spec.amplitude * (2.0 * rng.random(b) - 1.0)
    else:  # bubbles
        centers = np.array([[-spec.separation / 2, 0.0], [spec.separation / 2, 0.0]])
        d = np.min(np.linalg.norm(mesh.vertices[:, None, :] - centers[None], axis=2), axis=1)
        phi = np.tanh((spec.radius - d) / 0.1)
        psi = phi[mesh.boundary_loop]

    phi = np.clip(phi, lo, hi)
    psi = np.clip(psi, lo, hi)

    if cp.K == 0.0:
        # trace constraint phi|_Gamma = alpha * psi, imposed exactly
        if cp.alpha == 0.0:
            phi[mesh.boundary_loop] = 0.0
        else:
            psi = phi[mesh.boundary_loop] / cp.alpha
            if np.any(np.abs(psi) > hi):
                raise InvalidArgument("slaved surface values exceed the clamp margin")

    _check_mean_admissibility(phi, psi, cp, pot_bulk, pot_surf, forms)
    return phi, psi


def _check_mean_admissibility(phi, psi, cp, pot_bulk, pot_surf, forms):
    def in_interior(value, convex):
        lo, hi = convex.prime_domain
        return lo < value < hi

    mean_b = (forms.lump_bulk @ phi) / forms.area
    mean_s = (forms.lump_surf @ psi) / forms.perimeter
    if np.isinf(cp.L):
        if not in_interior(mean_b, pot_bulk.convex):
            raise InvalidArgument("initial bulk mean outside int D(f1) (separate-mean condition)")
        if not in_interior(mean_s, pot_surf.convex):
            raise InvalidArgument("initial surface mean outside int D(g1) (separate-mean condition)")
    else:
        combined = (cp.beta * forms.area * mean_b + forms.perimeter * mean_s) / (
            cp.beta**2 * forms.area + forms.perimeter
        )
        if not in_interior(cp.beta * combined, pot_bulk.convex):
            raise InvalidArgument("beta * combined mean outside int D(f1) (combined-mean condition)")
        if not in_interior(combined, pot_surf.convex):
            raise InvalidArgument("combined mean outside int D(g1) (combined-mean condition)")


class Stepper:
    """Holds the assembled operators and advances states in time."""

    def __init__(self, mesh: TriMesh, params: RunParams, forms: FormsBundle | None = None):
        self.mesh = mesh
        self.params = params
        self.forms = forms if forms is not None else assemble_core(mesh)
        cp = params.coupling
        if not np.isinf(cp.K):
            rep = check_domination(
                params.pot_bulk.convex, params.pot_surf.convex, cp.alpha,
                np.linspace(-0.99, 0.99, 199), eps_list=[params.eps],
            )
            if not rep.admissible:
                raise InvalidArgument(f"potential pairing {rep.reason or 'fails domination'}")
        self.spaces = build_case_spaces(mesh, cp, self.forms)
        f = self.forms
        P_K, P_L = self.spaces.P_phase, self.spaces.P_chem
        self.P_K, self.P_L = P_K, P_L
        self.A_K = (P_K.T @ (f.A_pair + self.spaces.B_K) @ P_K).tocsr()
        self.M_LK = (P_L.T @ f.M_pair @ P_K).tocsr()  # eq1 coupling to phase increment
        self.M_KL = (P_K.T @ f.M_pair @ P_L).tocsr()  # eq2 coupling to chem unknowns
        self.BL_red = (P_L.T @ self.spaces.B_L @ P_L).tocsr()
        self.lump_pair = np.concatenate([f.lump_bulk, f.lump_surf])
        self.n_bulk = f.n_bulk

    # -- nonlinearity ------------------------------------------------------

    def _nonlinear(self, phase_full):
        """Implicit regularized derivative and its diagonal Jacobian."""
        e = self.params.eps
        phi, psi = phase_full[: self.n_bulk], phase_full[self.n_bulk :]
        fval, fder = yosida(self.params.pot_bulk.convex, e, phi)
        gval, gder = yosida(self.params.pot_surf.convex, e, psi)
        return np.concatenate([fval, gval]), np.concatenate([fder, gder])

    def _explicit_smooth(self, phase_full):
        phi, psi = phase_full[: self.n_bulk], phase_full[self.n_bulk :]
        return np.concatenate(
            [self.params.pot_bulk.smooth.derivative(phi), self.params.pot_surf.smooth.derivative(psi)]
        )

    # -- single step -------------------------------------------------------

    def step(self, state: State, tau: float | None = None):
        """Advance the state by one step; returns (new_state, StepReport)."""
        p = self.params
        tau = p.tau if tau is None else tau
        f = self.forms
        cp = p.coupling

        phase_n = np.concatenate([state.phi, state.psi])
        chem_n = np.concatenate([state.mu, state.theta])
        x_n = phase_n[self.spaces.idx_phase]
        t_new = state.t + tau

        K_b = assemble_mobility_stiffness(self.mesh, p.mob_bulk, state.phi)
        K_s = assemble_mobility_stiffness(self.mesh, p.mob_surf, state.psi)
        K_pair = sp.block_diag([K_b, K_s], format="csr")
        A1 = (self.P_L.T @ K_pair @ self.P_L).tocsr() + self.BL_red

        if p.velocity.is_zero:
            conv = np.zeros(f.n_bulk + f.n_surf)
        else:
            C_b, C_s = assemble_convection(self.mesh, p.velocity, t_new)
            conv = np.concatenate([C_b @ state.phi, C_s @ state.psi])
        conv_red = self.P_L.T @ conv

        smooth_n = self._explicit_smooth(phase_n)

        x = x_n.copy()
        y = chem_n[self.spaces.idx_chem].copy()

        def residual(x_red, y_red):
            phase_full = self.P_K @ x_red
            nl, nl_der = self._nonlinear(phase_full)
            g1 = (1.0 / tau) * (self.M_LK @ (x_red - x_n)) - conv_red + A1 @ y_red
            rhs2 = self.lump_pair * (nl + smooth_n)
            g2 = self.M_KL @ y_red - self.A_K @ x_red - self.P_K.T @ rhs2
            return np.concatenate([g1, g2]), nl_der

        g, nl_der = residual(x, y)
        res0 = float(np.abs(g).max())
        tol = p.newton.tol_abs + p.newton.tol_rel * res0
        iters = 0
        res = res0
        nx = len(x)
        while res > tol:
            if iters >= p.newton.max_iter:
                raise StepFailure(
                    f"Newton did not converge (residual {res:.3e})", residual=res, t=t_new
                )
            D = sp.diags(self.lump_pair * nl_der)
            J21 = -(self.A_K + (self.P_K.T @ D @ self.P_K))
            J11 = (1.0 / tau) * self.M_LK
            J = sp.bmat([[J11, A1], [J21, self.M_KL]], format="csc")
            delta = splu(J).solve(-g)
            dx, dy = delta[:nx], delta[nx:]

            accepted = False
            for lam in DAMPING_FACTORS:
                if lam < p.newton.damping_floor:
                    break
                g_try, nl_der_try = residual(x + lam * dx, y + lam * dy)
                if float(np.abs(g_try).max()) < res:
                    x, y = x + lam * dx, y + lam * dy
                    g, nl_der = g_try, nl_der_try
                    accepted = True
                    break
            if not accepted:
                lam = p.newton.damping_floor
                x, y = x + lam * dx, y + lam * dy
                g, nl_der = residual(x, y)
            res = float(np.abs(g).max())
            iters += 1

        phase_full = self.P_K @ x
        chem_full = self.P_L @ y
        new = State(
            t=t_new,
            phi=phase_full[: self.n_bulk],
            psi=phase_full[self.n_bulk :],
            mu=chem_full[: self.n_bulk],
            theta=chem_full[self.n_bulk :],
        )

        mu, theta = new.mu, new.theta
        report = StepReport(newton_iters=iters, residual=res)
        report.diss_bulk = float(mu @ (K_b @ mu))
        report.diss_surf = float(theta @ (K_s @ theta))
        gap = cp.beta * theta - f.trace @ mu
        report.diss_robin = float(cp.sigma_L * (gap @ (f.M_surf @ gap)))
        if not p.velocity.is_zero:
            conv_b, conv_s = f.split(conv)
            report.conv_power_bulk = float(mu @ conv_b)
            report.conv_power_surf = float(theta @ conv_s)
        return new, report


def _attempt_step(stepper: Stepper, state: State, tau: float, halvings_left: int):
    try:
        return stepper.step(state, tau)
    except StepFailure:
        if halvings_left <= 0:
            raise
        mid, _ = _attempt_step(stepper, state, tau / 2, halvings_left - 1)
        return _attempt_step(stepper, mid, tau / 2, halvings_left - 1)


def initial_state(mesh: TriMesh, params: RunParams, forms: FormsBundle | None = None) -> State:
    """Initial state with chemical potentials from the stationary identity."""
    forms = forms if forms is not None else assemble_core(mesh)
    phi0, psi0 = make_initial_data(
        params.init, mesh, params.coupling, params.pot_bulk, params.pot_surf, forms
    )
    return State(t=0.0, phi=phi0, psi=psi0,
                 mu=np.zeros(mesh.n_vertices), theta=np.zeros(mesh.n_boundary))


def run(config: RunConfig, mesh: TriMesh | None = None) -> RunResult:
    """Run the scheme to the final time, recording diagnostics.

    Deterministic for a fixed configuration (including the initial-data
    seed).  A diagnostics record is kept every ``output_every`` steps plus
    at the initial and final time.
    """
    mesh = mesh if mesh is not None else generate_disk_mesh(config.nb, config.nr)
    forms = assemble_core(mesh)
    params = config.params
    stepper = Stepper(mesh, params, forms)
    state = initial_state(mesh, params, forms)

    records = [diag.make_record(state, forms, params, StepReport(newton_iters=0, residual=0.0),
                                prev_energy=None, tau=params.tau)]
    states = [state.copy()] if config.keep_states else []
    robin_sq = 0.0

    n_steps = params.n_steps
    prev_energy = records[0].energy
    for k in range(1, n_steps + 1):
        state, report = _attempt_step(stepper, state, params.tau,
                                      params.newton.max_tau_halvings)
        gap = params.coupling.beta * state.theta - forms.trace @ state.mu
        robin_sq += params.tau * float(gap @ (forms.M_surf @ gap))
        rec = diag.make_record(state, forms, params, report,
                               prev_energy=prev_energy, tau=params.tau)
        prev_energy = rec.energy
        if k % config.output_every == 0 or k == n_steps:
            records.append(rec)
            if config.keep_states:
                states.append(state.copy())

    return RunResult(records=records, states=states, mesh=mesh, forms=forms,
                     params=params, final_state=state.copy(),
                     robin_gap_sq_integral=robin_sq)


def epsilon_continuation(config: RunConfig, schedule, mesh: TriMesh | None = None):
    """Run the same scenario for each regularization level in the schedule.

    Returns ``(results, distances)`` where distances are the L2 gaps of the
    final bulk phase fields between consecutive levels.
    """
    schedule = [float(e) for e in schedule]
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise InvalidArgument("schedule must be strictly decreasing")
    mesh = mesh if mesh is not None else generate_disk_mesh(config.nb, config.nr)
    results = []
    for e in schedule:
        cfg = replace(config, params=replace(config.params, eps=e))
        results.append(run(cfg, mesh=mesh))
    distances = []
    forms = results[0].forms
    for r1, r2 in zip(results, results[1:]):
        d = r1.final_state.phi - r2.final_state.phi
        distances.append(float(np.sqrt(d @ (forms.M_bulk @ d))))
    return results, distances
