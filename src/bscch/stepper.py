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

import functools
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

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
# Krylov solve of each Newton correction, preconditioned by the kept LU factor:
# it must reach KRYLOV_RTOL in the true residual within KRYLOV_MAX_ITER
# iterations, or the Jacobian is factored afresh.  The first block row of the
# system is linear, so its linear residual is the step's mass defect: the
# tolerance is tight and fixed.
KRYLOV_RTOL = 1e-12
KRYLOV_MAX_ITER = 10
# The Newton unknowns are ordered (y, x), chemical potentials first, so the
# Jacobian [[A1, M_LK/tau], [M_KL, -(A_K + diag D)]] has square diagonal
# blocks and a symmetric sparsity pattern.  Its LU factor takes a symmetric
# fill-reducing ordering (minimum degree on J^T + J) and prefers diagonal
# pivots down to LU_DIAG_PIVOT_THRESH times the column maximum.
LU_DIAG_PIVOT_THRESH = 1e-3
splu = functools.partial(scipy.sparse.linalg.splu, permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=LU_DIAG_PIVOT_THRESH)


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
    max_tau_halvings: int = 0

    def __post_init__(self):
        # max_iter = 0 is allowed: the step then fails unless already converged
        for name in ("tol_abs", "tol_rel", "max_iter", "max_tau_halvings"):
            value = getattr(self, name)
            if not value >= 0:  # also rejects NaN
                raise InvalidArgument(f"newton.{name} must be >= 0, got {value}")


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


_COUNTS = ("newton_iters", "linear_iters", "factorizations")


@dataclass
class StepReport:
    """Newton, Krylov and factorization counts, final residual and the step's
    rates (per unit time)."""

    newton_iters: int
    residual: float
    linear_iters: int = 0
    factorizations: int = 0
    diss_bulk: float = 0.0
    diss_surf: float = 0.0
    diss_robin: float = 0.0
    conv_power_bulk: float = 0.0
    conv_power_surf: float = 0.0
    robin_gap_sq: float = 0.0  # |beta*theta - mu|_Gamma|^2 in the M_Gamma norm

    def followed_by(self, later: "StepReport") -> "StepReport":
        """Report of this half step followed by an equally long ``later`` one:
        the counts add up, the residual is the later one, the rates average,
        i.e. are tau-weighted."""
        def merge(name):
            a, b = getattr(self, name), getattr(later, name)
            return a + b if name in _COUNTS else b if name == "residual" else 0.5 * (a + b)

        return StepReport(**{f.name: merge(f.name) for f in fields(self)})


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
    """Holds the assembled operators and advances states in time.

    Each block of the Newton system is built at the rate it changes: the
    case-space blocks once per run; the lagged-mobility blocks once per step,
    or once per run when both mobilities are constant (a constant mobility
    ignores the field); the lumped diagonal of the regularized derivative
    once per Newton iteration.

    The Jacobian is factored rarely: ``factor`` is one LU factor kept across
    Newton iterations and steps, and each correction is solved by GMRES
    preconditioned with it, applying the Jacobian block by block.  A new
    factor is taken (lazily, in the first Newton iteration that needs one)
    when GMRES misses its tolerance, or when the step's tau is not the
    ``factor_tau`` the factor was built for; the correction is then the
    direct solve with the new factor.
    """

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
        # each row of P_K holds one entry p_K, so P_K^T diag(d) P_K = diag(P_K^T (p_K * d))
        self.p_K = np.asarray(P_K.sum(axis=1)).ravel()
        constant = params.mob_bulk.kind == params.mob_surf.kind == "constant"
        self.run_mobility = (  # (K_b, K_s, A1) for the whole run, or None: built per step
            self._mobility_blocks(np.zeros(f.n_bulk), np.zeros(f.n_surf)) if constant else None)
        self.factor, self.factor_tau = None, None

    def _mobility_blocks(self, phi, psi):
        """Mobility stiffnesses K_b, K_s at (phi, psi) and A1 = P_L^T (K_pair + B_L) P_L."""
        p = self.params
        K_b = assemble_mobility_stiffness(self.mesh, p.mob_bulk, phi)
        K_s = assemble_mobility_stiffness(self.mesh, p.mob_surf, psi)
        K_pair = sp.block_diag([K_b, K_s], format="csr")
        return K_b, K_s, (self.P_L.T @ K_pair @ self.P_L).tocsr() + self.BL_red

    def _nonlinear(self, phase_full):
        """Implicit regularized derivative and its diagonal Jacobian."""
        p = self.params
        phi, psi = self.forms.split(phase_full)
        fval, fder = yosida(p.pot_bulk.convex, p.eps, phi)
        gval, gder = yosida(p.pot_surf.convex, p.eps, psi)
        return np.concatenate([fval, gval]), np.concatenate([fder, gder])

    def step(self, state: State, tau: float | None = None):
        """Advance the state by one step; returns (new_state, StepReport).

        Every failure raises StepFailure: Newton not converging within
        ``max_iter``, a non-finite residual or phase iterate, or a singular
        Jacobian.
        """
        p = self.params
        tau = p.tau if tau is None else tau
        f = self.forms
        t_new = state.t + tau

        x_n = np.concatenate([state.phi, state.psi])[self.spaces.idx_phase]
        K_b, K_s, A1 = self.run_mobility or self._mobility_blocks(state.phi, state.psi)
        J11 = (1.0 / tau) * self.M_LK

        if p.velocity.is_zero:
            conv = np.zeros(f.n_bulk + f.n_surf)
        else:
            C_b, C_s = assemble_convection(self.mesh, p.velocity, t_new)
            conv = np.concatenate([C_b @ state.phi, C_s @ state.psi])
        conv_red = self.P_L.T @ conv
        smooth_n = np.concatenate([p.pot_bulk.smooth.derivative(state.phi),
                                   p.pot_surf.smooth.derivative(state.psi)])

        def failure(why, res):
            return StepFailure(f"{why} (residual {res:.3e})", residual=res, t=t_new)

        def residual(x_red, y_red):
            phase_full = self.P_K @ x_red
            if not np.all(np.isfinite(phase_full)):
                raise failure("non-finite phase iterate", np.nan)
            nl, nl_der = self._nonlinear(phase_full)
            g1 = (1.0 / tau) * (self.M_LK @ (x_red - x_n)) - conv_red + A1 @ y_red
            rhs2 = self.lump_pair * (nl + smooth_n)
            g2 = self.M_KL @ y_red - self.A_K @ x_red - self.P_K.T @ rhs2
            g = np.concatenate([g1, g2])
            return g, float(np.abs(g).max()), nl_der

        x = x_n
        y = np.concatenate([state.mu, state.theta])[self.spaces.idx_chem]
        g, res, nl_der = residual(x, y)
        tol = p.newton.tol_abs + p.newton.tol_rel * res
        iters = linear_iters = factorizations = 0
        ny = len(y)  # Newton unknowns (y, x); the residual rows stay (g1, g2)
        if tau != self.factor_tau:  # J11 = M_LK / tau: a factor for another tau is dropped
            self.factor = None
        while not res <= tol:  # a NaN residual must fail, not pass as converged
            if not np.isfinite(res):
                raise failure("non-finite Newton residual", res)
            if iters >= p.newton.max_iter:
                raise failure("Newton did not converge", res)
            D = self.P_K.T @ (self.p_K * (self.lump_pair * nl_der))

            def apply_jacobian(v):
                vy, vx = v[:ny], v[ny:]
                return np.concatenate([A1 @ vy + J11 @ vx,
                                       self.M_KL @ vy - self.A_K @ vx - D * vx])

            delta = None
            if self.factor is not None:
                delta, n_krylov = _krylov(apply_jacobian, self.factor.solve, -g)
                linear_iters += n_krylov
            if delta is None:  # refactor; the old factor goes first, two alive would double memory
                self.factor = None
                J = sp.bmat([[A1, J11], [self.M_KL, -(self.A_K + sp.diags(D))]], format="csc")
                try:
                    self.factor = splu(J)
                except RuntimeError as exc:  # exactly singular Jacobian
                    raise failure(f"Newton Jacobian not invertible: {exc}", res) from None
                self.factor_tau = tau
                factorizations += 1
                delta = self.factor.solve(-g)
                if not np.all(np.isfinite(delta)):
                    raise failure("non-finite Newton correction", res)
            dy, dx = delta[:ny], delta[ny:]

            # damped update: the first factor that lowers the residual, else the last one
            for lam in DAMPING_FACTORS:
                x_try, y_try = x + lam * dx, y + lam * dy
                g_try, res_try, der_try = residual(x_try, y_try)
                if res_try < res:
                    break
            x, y, g, res, nl_der = x_try, y_try, g_try, res_try, der_try
            iters += 1

        new = State(t_new, *f.split(self.P_K @ x), *f.split(self.P_L @ y))
        mu, theta = new.mu, new.theta
        gap = p.coupling.beta * theta - f.trace @ mu
        report = StepReport(newton_iters=iters, residual=res, linear_iters=linear_iters,
                            factorizations=factorizations,
                            diss_bulk=float(mu @ (K_b @ mu)),
                            diss_surf=float(theta @ (K_s @ theta)),
                            robin_gap_sq=float(gap @ (f.M_surf @ gap)))
        report.diss_robin = p.coupling.sigma_L * report.robin_gap_sq
        if not p.velocity.is_zero:
            conv_b, conv_s = f.split(conv)
            report.conv_power_bulk = float(mu @ conv_b)
            report.conv_power_surf = float(theta @ conv_s)
        return new, report


def _krylov(apply_jacobian, precondition, b):
    """Right-preconditioned GMRES for J x = b: one cycle of at most
    KRYLOV_MAX_ITER iterations, its least-squares problem kept triangular by
    Givens rotations (no LAPACK call, whose first use costs about 1 MB of
    resident memory).  Returns (x, iterations), with x None unless the true
    residual |b - J x| reaches KRYLOV_RTOL |b| (never for a non-finite x)."""
    m = KRYLOV_MAX_ITER
    b_norm = np.linalg.norm(b)
    R, rotations = np.zeros((m, m)), []
    e = np.zeros(m + 1)
    e[0] = b_norm  # b_norm * e_1, rotated along with R
    basis, search = [b / b_norm], []
    for j in range(m):
        search.append(precondition(basis[j]))
        w = apply_jacobian(search[j])
        if not np.all(np.isfinite(w)):
            break
        for i, v in enumerate(basis):  # modified Gram-Schmidt
            R[i, j] = v @ w
            w -= R[i, j] * v
        h = np.linalg.norm(w)
        for i, (c, s) in enumerate(rotations):
            R[i, j], R[i + 1, j] = c * R[i, j] + s * R[i + 1, j], c * R[i + 1, j] - s * R[i, j]
        r = np.hypot(R[j, j], h)
        if r == 0.0:
            break
        c, s = R[j, j] / r, h / r
        rotations.append((c, s))
        R[j, j] = r
        e[j], e[j + 1] = c * e[j], -s * e[j]
        if abs(e[j + 1]) <= KRYLOV_RTOL * b_norm:  # the residual estimate; now the true one
            y = np.zeros(j + 1)
            for i in range(j, -1, -1):
                y[i] = (e[i] - R[i, i + 1:j + 1] @ y[i + 1:]) / R[i, i]
            x = y @ np.array(search)
            if np.linalg.norm(b - apply_jacobian(x)) <= KRYLOV_RTOL * b_norm:
                return x, j + 1
        if h == 0.0:
            break
        basis.append(w / h)
    return None, j + 1


def _attempt_step(stepper: Stepper, state: State, tau: float, halvings_left: int):
    """One step of size tau; on StepFailure, two half steps (recursively)
    whose reports merge into one for the whole step."""
    try:
        return stepper.step(state, tau)
    except StepFailure:
        if halvings_left <= 0:
            raise
        mid, first = _attempt_step(stepper, state, tau / 2, halvings_left - 1)
        new, second = _attempt_step(stepper, mid, tau / 2, halvings_left - 1)
        return new, first.followed_by(second)


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
        robin_sq += params.tau * report.robin_gap_sq
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
