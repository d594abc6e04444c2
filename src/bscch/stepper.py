"""Time integration of the coupled bulk-surface system.

One step solves the implicit Euler / convex-splitting system for
(phi, psi, mu, theta): the convex potential part enters through its
regularized monotone derivative (implicit, mass-lumped), the concave smooth
part and the convection are explicit in the phase fields, the mobility is
lagged one step, and the velocity is evaluated at the new time.  This keeps
every step mass-conservative to roundoff and energy-decreasing without
convection.

Dirichlet couplings (K=0, L=0) are eliminated exactly through the case
spaces' prolongation rows, so slaved boundary values satisfy their constraints
bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import diagnostics as diag
from .assembly import (
    CouplingParams,
    FormsBundle,
    Mobility,
    VelocityField,
    add,
    assemble_convection,
    assemble_core,
    assemble_mobility_stiffness,
    build_case_spaces,
    prune,
    reduce,
    scatter,
    sigma,
    triplets,
)
from .elliptic import splu
from .errors import InvalidArgument, StepFailure
from .mesh import TriMesh, csr_pattern, generate_disk_mesh
from .potentials import Potential, check_domination, yosida

DAMPING_FACTORS = (1.0, 0.5, 0.25, 0.125)
# GMRES budget of each Newton correction (see _NewtonSystem).  A correction is solved to
# the inexact-Newton forcing term eta = max(KRYLOV_RTOL, min(FORCING_MAX, 0.1 tol / res))
# (Dembo, Eisenstat & Steihaug 1982): a tenth of the Newton tolerance relative to the
# residual, never looser than FORCING_MAX.  Mass takes a second test.  The first block row
# of the system is linear: for each conserved mass w @ (phi, psi) its constant pair c (the
# chem coordinates of the case record's pair) has c A1 = 0 for every mobility, and a correction
# whose linear residual is r moves the mass by lambda tau c r_1.  In exact arithmetic, with
# D only in the phase rows and the kept factor F of the current tau (a new tau drops it),
# c (J F^-1 v)_1 = c v_1, so c r_1 = (1 - q(1)) c b_1 for the Krylov polynomial q: a loose
# eta would cost no mass.  In floating point F's solve has a backward error along c, and a
# stop at eta up to 1e-2 moved the mass by up to 33 u sum_i |w_i x_i| in one correction
# (obstacle wells, eps = 1e-3).  So GMRES stops only once also tau |c r_1| <= u sum_i
# |w_i x_i| at the step's start x, the rounding that storing the corrected iterate can
# itself cause; the direct solve after a refactor is backward stable.  KRYLOV_RTOL is the
# floor of eta.
UNIT_ROUNDOFF = 2.0**-53
KRYLOV_RTOL = 1e-12
FORCING_MAX = 1e-2
KRYLOV_MAX_ITER = 10


@dataclass
class State:
    t: float
    phi: np.ndarray
    psi: np.ndarray
    mu: np.ndarray
    theta: np.ndarray
    # (value, derivative, (J_bulk, J_surf)) of the regularized derivative at (phi, psi),
    # set by the step that returned this state and valid for its stepper while phi and
    # psi are unchanged; None (a state built by hand, a copy) recomputes
    nonlinear: tuple | None = None
    # (tau, x, y): the step size and reduced start point of the step that returned this
    # state, for the next step's predictor; None unless that step started from a stepped state
    previous: tuple | None = None

    def copy(self):
        return State(self.t, self.phi.copy(), self.psi.copy(), self.mu.copy(), self.theta.copy())


@dataclass(frozen=True)
class NewtonParams:
    tol_abs: float = 1e-11
    tol_rel: float = 1e-10
    max_iter: int = 50
    max_tau_halvings: int = 0

    def __post_init__(self):
        # max_iter = 0 is allowed: the step then fails unless already converged.  Past 52
        # halvings, t + tau / 2**53 no longer resolves the sub-step (tau underflows near 1075)
        for name in ("tol_abs", "tol_rel", "max_iter", "max_tau_halvings"):
            value, hi = getattr(self, name), 53 if name == "max_tau_halvings" else np.inf
            if not 0 <= value < hi:  # also rejects NaN; an infinite tolerance passes any state
                raise InvalidArgument(f"newton.{name} must lie in [0, {hi:g}), got {value}")


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
        bounds = {"margin": (0.0, 1.0), "mean": (-1.0, 1.0)}  # |mean| >= 1: a clamped constant
        for name in ("margin", "mean", "amplitude", "radius", "separation"):
            value, (lo, hi) = getattr(self, name), bounds.get(name, (-np.inf, np.inf))
            if not lo < value < hi:  # also rejects nan
                raise InvalidArgument(f"init.{name} must lie in ({lo:g}, {hi:g}), got {value}")
        if self.seed < 0:  # a seed is a non-negative integer, hashed as numpy's SeedSequence
            raise InvalidArgument(f"init.seed must be >= 0, got {self.seed}")


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
        if not 0 < self.tau < np.inf:  # also rejects nan
            raise InvalidArgument(f"time step time.tau must be positive and finite, got {self.tau}")
        if not 0 <= self.t_final < np.inf:
            raise InvalidArgument(f"final time time.T must be >= 0 and finite, got {self.t_final}")
        if not (0.0 < self.eps < 1.0):
            raise InvalidArgument(f"yosida.eps must lie in (0, 1), got {self.eps}")
        for where, pot in (("bulk", self.pot_bulk), ("surf", self.pot_surf)):
            kappa, term = pot.concavity
            if not self.eps * kappa < 1.0:
                raise InvalidArgument(f"{term} = {self.eps * kappa:g} must be less than 1: "
                                      f"the regularized potential.{where} = {pot.kind} well has "
                                      "no lower bound")
        if self.t_final / self.tau > 2**53:  # t + tau stops resolving tau; also overflow
            raise InvalidArgument(f"time.T / time.tau = {self.t_final:g} / {self.tau:g} "
                                  "exceeds 2**53 steps")
        if self.t_final > 0 and self.n_steps == 0:
            raise InvalidArgument(f"time.T = {self.t_final:g} is less than half a step "
                                  f"(time.tau = {self.tau:g}) and would run no steps")

    @property
    def n_steps(self):
        """Number of steps of size tau to the final time: T / tau rounded, a tie up."""
        r = self.t_final / self.tau
        return int(r) + (r - int(r) >= 0.5)


@dataclass(frozen=True)
class RunConfig:
    nb: int
    nr: int
    params: RunParams
    output_every: int = 1
    keep_states: bool = True

    def __post_init__(self):
        if self.output_every < 1:
            raise InvalidArgument(f"output.every must be >= 1, got {self.output_every}")


_COUNTS = ("newton_iters", "linear_iters", "factorizations")


@dataclass
class StepReport:
    """Newton, Krylov and factorization counts and the step's rates (per unit
    time)."""

    newton_iters: int
    linear_iters: int = 0
    factorizations: int = 0
    diss_bulk: float = 0.0
    diss_surf: float = 0.0
    diss_robin: float = 0.0
    conv_power_bulk: float = 0.0
    conv_power_surf: float = 0.0
    robin_gap_sq: float = 0.0  # |beta*theta - mu|_Gamma|^2 in the M_Gamma norm


@dataclass
class RunResult:
    records: list
    states: list
    mesh: TriMesh
    forms: FormsBundle
    params: RunParams
    final_state: State = None
    robin_gap_sq_integral: float = 0.0


class Stepper:
    """Holds the assembled operators and advances states in time.

    Each piece of the Newton system is built at the rate it changes: the
    case-space blocks and unit-ramp convection operators once per run; the
    mobility blocks once per step, or once per run when both mobilities are
    constant (a constant mobility ignores the field); the lumped diagonal D
    and the resolvent per iterate; J0 and its kept LU factor in ``system``.
    """

    def __init__(self, mesh: TriMesh, params: RunParams, forms: FormsBundle | None = None):
        self.mesh = mesh
        self.params = params
        self.forms = forms if forms is not None else assemble_core(mesh)
        cp = params.coupling
        if not np.isinf(cp.K):
            rep = check_domination(params.pot_bulk, params.pot_surf, cp.alpha)
            if not rep.admissible:
                raise InvalidArgument(f"potential pairing {rep.reason}")
        self.phase, self.chem = phase, chem = build_case_spaces(cp, self.forms)
        f = self.forms
        self.A_K = reduce(phase, add(f.A_pair, phase.block), phase)
        self.system = _NewtonSystem(f, chem, reduce(chem, chem.block, chem),
                                    reduce(chem, f.M_pair, phase), reduce(phase, f.M_pair, chem),
                                    self.A_K)
        constant = params.mob_bulk.kind == params.mob_surf.kind == "constant"
        self.run_mobility = (  # (K_b, K_s) for the whole run, or None: built per step
            assemble_mobility_stiffness(mesh, params.mob_bulk, np.zeros(f.n_bulk),
                                        params.mob_surf, np.zeros(f.n_surf)) if constant else None)
        vel = params.velocity  # unit-ramp operators: vel.factor(vel.ramp) = 1
        self.convection = None if vel.is_zero else assemble_convection(mesh, vel)

    def _nonlinear(self, phase_full):
        """Implicit regularized derivative, its diagonal Jacobian, the resolvents."""
        p = self.params
        if p.pot_bulk == p.pot_surf:  # the resolvent works entry by entry: one call
            value, deriv, j = yosida(p.pot_bulk, p.eps, phase_full)
            return value, deriv, self.forms.split(j)
        phi, psi = self.forms.split(phase_full)
        fval, fder, fj = yosida(p.pot_bulk, p.eps, phi)
        gval, gder, gj = yosida(p.pot_surf, p.eps, psi)
        return np.concatenate([fval, gval]), np.concatenate([fder, gder]), (fj, gj)

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
        phase, chem = self.phase, self.chem

        pair_n = np.concatenate([state.phi, state.psi])
        x_n = pair_n[phase.idx]
        mobility = self.run_mobility or assemble_mobility_stiffness(
            self.mesh, p.mob_bulk, state.phi, p.mob_surf, state.psi)
        J0 = self.system.jacobian(tau, mobility)

        if self.convection is None:
            conv = np.zeros(f.n_bulk + f.n_surf)
        else:
            C_b, C_s = self.convection
            conv = p.velocity.factor(t_new) * np.concatenate([C_b @ state.phi, C_s @ state.psi])
        # linear terms in increment form, J0 (y, x - x_n) - lin_n: x = x_n cancels exactly
        lin_n = np.concatenate([chem.restrict(conv), self.A_K @ x_n])
        smooth_n = np.concatenate([p.pot_bulk.smooth_derivative(state.phi),
                                   p.pot_surf.smooth_derivative(state.psi)])

        def failure(why, res):
            return StepFailure(f"{why} (residual {res:.3e})")

        def residual(x_red, y_red, nonlinear=None):
            if nonlinear is None:
                phase_full = phase.prolong(x_red)
                if not np.all(np.isfinite(phase_full)):
                    raise failure("non-finite phase iterate", np.nan)
                nonlinear = self._nonlinear(phase_full)
            g = J0 @ np.concatenate([y_red, x_red - x_n]) - lin_n
            g[ny:] -= phase.restrict(f.lump_pair * (nonlinear[0] + smooth_n))
            return g, float(np.abs(g).max()), nonlinear

        x = x_n
        y = y_n = np.concatenate([state.mu, state.theta])[chem.idx]
        ny = len(y)  # Newton unknowns (y, x); the residual rows stay (g1, g2)
        g, res, nonlinear = residual(x, y, state.nonlinear)
        tol = p.newton.tol_abs + p.newton.tol_rel * res
        if state.previous is not None and state.previous[0] == tau and not res <= tol:
            # start at the linear extrapolation of the last two start points when its
            # residual is lower.  Its weights 2 and -1 sum to one, so it carries the
            # conserved means of x_n and x_prev, equal up to rounding
            _, x_prev, y_prev = state.previous
            x_pred, y_pred = 2.0 * x_n - x_prev, 2.0 * y_n - y_prev
            phase_pred = phase.prolong(x_pred)
            if np.all(np.isfinite(phase_pred)):
                g_pred, res_pred, nl_pred = residual(x_pred, y_pred, self._nonlinear(phase_pred))
                if res_pred < res:
                    x, y, g, res, nonlinear = x_pred, y_pred, g_pred, res_pred, nl_pred
        iters = linear_iters = factorizations = 0
        while not res <= tol:  # a NaN residual must fail, not pass as converged
            if not np.isfinite(res):
                raise failure("non-finite Newton residual", res)
            if iters >= p.newton.max_iter:
                raise failure("Newton did not converge", res)
            eta = max(KRYLOV_RTOL, min(FORCING_MAX, 0.1 * tol / res))
            try:
                delta, krylov, factored = self.system.solve(
                    phase.lumped(f.lump_pair * nonlinear[1]), -g, eta, pair_n)
            except RuntimeError as exc:  # exactly singular Jacobian
                raise failure(f"Newton Jacobian not invertible: {exc}", res) from None
            if not np.all(np.isfinite(delta)):
                raise failure("non-finite Newton correction", res)
            dy, dx = delta[:ny], delta[ny:]

            # damped update: the first factor that lowers the residual, else the last one
            for lam in DAMPING_FACTORS:
                x_try, y_try = x + lam * dx, y + lam * dy
                g_try, res_try, nl_try = residual(x_try, y_try)
                if res_try < res:
                    break
            x, y, g, res, nonlinear = x_try, y_try, g_try, res_try, nl_try
            iters += 1
            linear_iters += krylov
            factorizations += factored

        new = State(t_new, *f.split(phase.prolong(x)), *f.split(chem.prolong(y)), nonlinear,
                    None if state.nonlinear is None else (tau, x_n, y_n))
        mu, theta = new.mu, new.theta
        report = StepReport(iters, linear_iters, factorizations,
                            diss_bulk=float(mu @ (mobility[0] @ mu)),
                            diss_surf=float(theta @ (mobility[1] @ theta)),
                            robin_gap_sq=f.mismatch_sq(mu, theta, p.coupling.beta))
        report.diss_robin = sigma(p.coupling.L) * report.robin_gap_sq
        if not p.velocity.is_zero:
            conv_b, conv_s = f.split(conv)
            report.conv_power_bulk = float(mu @ conv_b)
            report.conv_power_surf = float(theta @ conv_s)
        return new, report


class _NewtonSystem:
    """The Newton linear algebra of a stepper: J0 = [[A1, M_LK/tau], [M_KL, -A_K]],
    the Jacobian's linear part (A1 = P^T diag(K_b, K_s) P + BL_red for the chem
    space's P), as one CSR pattern and the scatter into it of [the data of
    [[BL_red, M_LK], [M_KL, -A_K]], M_LK over tau; coef * (K_b, K_s data)].
    The unknowns are ordered (y, x), chemical potentials first, so the Jacobian
    J0 - diag(0, D) has square diagonal blocks and a symmetric sparsity pattern,
    which the package's `splu` (symmetric ordering, diagonal pivots) is set for.

    It is factored rarely: ``factor`` is kept across Newton iterations and steps
    and preconditions the GMRES solve of each correction to the caller's
    tolerance.  When GMRES misses it within KRYLOV_MAX_ITER iterations, the
    correction is the direct solve with a new factor, taken then; a new tau
    drops the factor (J0 holds M_LK / tau).  Along the constant pair of each
    conserved mass GMRES also bounds the residual (see KRYLOV_RTOL).
    """

    def __init__(self, forms, chem, BL_red, M_LK, M_KL, A_K):
        ny = len(chem.idx)
        c, w = chem.col, chem.scale  # P holds one entry per row: w[i] in column c[i]
        k_rows, k_cols, _ = triplets(forms.A_pair)  # the slots of the (K_b, K_s) data
        size = ny + A_K.shape[0]  # the entries of scipy's bmat, block by block
        F_row, F_col, self.F_data = (np.concatenate(x) for x in zip(
            triplets(BL_red), triplets(M_LK, 0, ny), triplets(M_KL, ny, 0),
            triplets(replace(A_K, data=-A_K.data), ny, ny)))
        self.pattern = csr_pattern(np.concatenate([F_row, c[k_rows]]),
                                   np.concatenate([F_col, c[k_cols]]), (size, size))
        self.over_tau = (F_row < ny) & (F_col >= ny)
        self.coef, self.ny = w[k_rows] * w[k_cols], ny
        rows = np.repeat(np.arange(size), np.diff(self.pattern.indptr))
        self.x_diag = np.flatnonzero((rows == self.pattern.indices) & (rows >= ny))  # where D goes
        self.tau = self.mobility = self.J0 = self.D = self.factor = None
        # one row w per conserved mass w @ (phi, psi), and its constant pair in chem
        # coordinates (c with c A1 = 0 for every mobility), zero on the phase rows
        self.mass_weights = np.abs(chem.mean_rows)
        self.conserved = np.hstack([chem.pairs[:, chem.idx],
                                    np.zeros((len(chem.pairs), A_K.shape[0]))])

    def jacobian(self, tau, mobility):
        """J0 for step size tau and the mobility pair (K_b, K_s), built anew when either changed."""
        if self.tau != tau or self.mobility is not mobility:
            if self.tau != tau:  # the kept factor holds M_LK over the old tau
                self.factor = None
            data = [np.where(self.over_tau, (1.0 / tau) * self.F_data, self.F_data),
                    self.coef * np.concatenate([K.data for K in mobility])]
            self.tau, self.mobility, self.J0 = tau, mobility, scatter(self.pattern, np.concatenate(data))
        return self.J0

    def solve(self, D, rhs, rtol, start):
        """The correction delta with (J0 - diag(0, D)) delta = rhs in the step from the
        pair ``start``: GMRES to the relative tolerance rtol and to tau |c r| <= u
        sum_i |w_i start_i| for the residual r and each conserved mass w with constant
        pair c, preconditioned by the kept factor, else the direct solve with a new
        factor.  Returns (delta, GMRES iterations, factorizations taken: 0 or 1).  An
        exactly singular Jacobian raises RuntimeError."""
        self.D = D
        n_krylov = 0
        if self.factor is not None:
            mass_tol = UNIT_ROUNDOFF * (self.mass_weights @ np.abs(start)) / self.tau
            delta, n_krylov = _krylov(self._apply, self.factor.solve, rhs, rtol,
                                      self.conserved, mass_tol)
            if delta is not None:
                return delta, n_krylov, 0
        self.factor = None  # the old factor goes first, two alive would double memory
        data = self.J0.data.copy()
        data[self.x_diag] -= D
        self.factor = splu(prune(replace(self.J0, data=data)))  # J0 - diag(0, D), as scipy's
        return self.factor.solve(rhs), n_krylov, 1

    def _apply(self, v):
        """The Jacobian J0 - diag(0, D) applied to v."""
        w = self.J0 @ v
        w[self.ny:] -= self.D * v[self.ny:]
        return w


def _krylov(apply_jacobian, precondition, b, rtol, conserved, mass_tol):
    """Right-preconditioned GMRES for J x = b: one cycle of at most
    KRYLOV_MAX_ITER iterations, its least-squares problem kept triangular by
    Givens rotations (no LAPACK call, whose first use costs about 1 MB of
    resident memory).  Returns (x, iterations), with x None unless the true
    residual r = b - J x reaches rtol |b| and |conserved @ r| <= mass_tol entry by
    entry (never for a non-finite x)."""
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
        if abs(e[j + 1]) <= rtol * b_norm:  # the residual estimate; now the true one
            y = np.zeros(j + 1)
            for i in range(j, -1, -1):
                y[i] = (e[i] - R[i, i + 1:j + 1] @ y[i + 1:]) / R[i, i]
            x = y @ np.array(search)
            r = b - apply_jacobian(x)
            if (np.linalg.norm(r) <= rtol * b_norm
                    and np.all(np.abs(conserved @ r) <= mass_tol)):
                return x, j + 1
        if h == 0.0:
            break
        basis.append(w / h)
    return None, j + 1


def _attempt_step(stepper: Stepper, state: State, tau: float, halvings: int):
    """One step of size tau as sub-steps: a failed sub-step is retaken as two
    halves, at most ``halvings`` deep.  Counts add up, rates are tau-weighted."""
    pending, done = [(tau, 0)], []  # (sub_tau, depth) to take, (sub_tau, report) taken
    while pending:
        sub_tau, depth = pending.pop()
        try:
            state, report = stepper.step(state, sub_tau)
            done.append((sub_tau, report))
        except StepFailure:
            if depth >= halvings:
                raise
            pending += [(sub_tau / 2, depth + 1)] * 2
    if len(done) == 1:  # no rescue: the step's own report, bit for bit
        return state, report
    whole = StepReport(**{name: sum(getattr(r, name) for _, r in done) for name in _COUNTS})
    for name in (f.name for f in fields(whole) if f.name not in _COUNTS):  # the rates
        setattr(whole, name, sum(s / tau * getattr(r, name) for s, r in done))
    return state, whole


M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uniform_draws(seed: int, *sizes: int) -> list[np.ndarray]:
    """The arrays ``rng.random(size)`` of ``rng = np.random.default_rng(seed)``, in order.

    Bit for bit numpy's generator, without importing numpy.random: the
    SeedSequence hash of the seed's 32-bit words into a 4-word pool, its
    ``generate_state(4, uint64)``, PCG64 (XSL-RR 128/64) seeded from those
    words, and doubles ``(u64 >> 11) * 2**-53``.
    """

    def hasher(hash_const, mult):  # SeedSequence's multiply-xorshift hash on uint32
        def hashmix(value):
            nonlocal hash_const
            value ^= hash_const
            hash_const = hash_const * mult & M32
            value = value * hash_const & M32
            return value ^ value >> 16
        return hashmix

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & M32
        return r ^ r >> 16

    seed = int(seed)
    words = [seed >> shift & M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hashmix = hasher(0x8B51F9DD, 0x58F38DED)
    state32 = [hashmix(pool[i % 4]) for i in range(8)]
    s = [state32[2 * k] | state32[2 * k + 1] << 32 for k in range(4)]  # little-endian pairs

    inc = ((s[2] << 64 | s[3]) << 1 | 1) & M128  # state 0, step, add initstate, step
    state = ((inc + (s[0] << 64 | s[1])) * PCG64_MULT + inc) & M128
    draws = []
    for size in sizes:
        raw = []
        for _ in range(size):
            state = (state * PCG64_MULT + inc) & M128
            x, rot = (state >> 64 ^ state) & M64, state >> 122
            raw.append((x >> rot | x << (64 - rot)) & M64)
        draws.append((np.array(raw, dtype=np.uint64) >> np.uint64(11)) * 2.0**-53)
    return draws


def initial_state(mesh: TriMesh, params: RunParams, forms: FormsBundle | None = None) -> State:
    """Admissible initial state, with zero chemical potentials.

    The phase fields are clamped into [-1 + margin, 1 - margin]; the K=0
    trace constraint is imposed exactly; the conserved means of the L-case
    are checked against the interiors of the derivative domains.
    """
    forms = forms if forms is not None else assemble_core(mesh)
    spec, cp = params.init, params.coupling
    n, b = mesh.n_vertices, mesh.n_boundary
    lo, hi = -1.0 + spec.margin, 1.0 - spec.margin

    if spec.mode == "constant":
        phi = np.full(n, float(spec.mean))
        psi = np.full(b, float(spec.mean))
    elif spec.mode == "random":
        u_bulk, u_surf = _uniform_draws(spec.seed, n, b)
        phi = spec.mean + spec.amplitude * (2.0 * u_bulk - 1.0)
        psi = spec.mean + spec.amplitude * (2.0 * u_surf - 1.0)
    else:  # bubbles
        centers = np.array([[-spec.separation / 2, 0.0], [spec.separation / 2, 0.0]])
        d = np.min(np.linalg.norm(mesh.vertices[:, None, :] - centers[None], axis=2), axis=1)
        phi = np.tanh((spec.radius - d) / 0.1)
        psi = phi[mesh.boundary_loop]

    phi = np.clip(phi, lo, hi)
    psi = np.clip(psi, lo, hi)

    phase, chem = build_case_spaces(cp, forms)
    if cp.K == 0.0 and cp.alpha != 0.0:  # psi follows phi|_Gamma
        with np.errstate(over="ignore"):  # a tiny alpha overflows to inf, rejected next
            psi = phi[mesh.boundary_loop] / cp.alpha
        if np.any(np.abs(psi) > hi):
            raise InvalidArgument(f"slaved surface values phi / model.alpha exceed the clamp "
                                  f"margin (model.alpha = {cp.alpha})")
    # K = 0: the phase space sets phi|_Gamma = alpha * psi exactly (phi / alpha * alpha may
    # differ from phi, and alpha = 0 gives 0.0)
    pair = phase.prolong(np.concatenate([phi, psi])[phase.idx])
    rule = "separate" if len(chem.pairs) == 2 else "combined"
    for mean, pot, where in zip(chem.means(pair)[[0, -1]], (params.pot_bulk, params.pot_surf),
                                ("bulk", "surface")):
        lo, hi = pot.prime_domain
        if not lo < mean < hi:
            raise InvalidArgument(f"initial {where} mean {mean:g} outside its domain's interior "
                                  f"({rule}-mean condition)")
    return State(0.0, *forms.split(pair), np.zeros(n), np.zeros(b))


def run(config: RunConfig, mesh: TriMesh | None = None,
        forms: FormsBundle | None = None) -> RunResult:
    """Run the scheme to the final time, recording diagnostics.

    Deterministic for a fixed configuration (including the initial-data
    seed).  A diagnostics record is kept every ``output_every`` steps plus
    at the initial and final time.  ``forms``, when given, are the core
    operators of ``mesh``.  A step whose energy is not finite, or that moves
    a conserved mass past the rounding bound of its sum, raises StepFailure.
    """
    mesh = mesh if mesh is not None else generate_disk_mesh(config.nb, config.nr)
    forms = forms if forms is not None else assemble_core(mesh)
    params = config.params
    stepper = Stepper(mesh, params, forms)
    state = initial_state(mesh, params, forms)

    records = [diag.make_record(state, forms, params, StepReport(newton_iters=0), prev_energy=None)]
    states = [state.copy()] if config.keep_states else []
    robin_sq = 0.0

    n_steps = params.n_steps
    prev_energy = records[0].energy
    masses, weights = stepper.chem.mean_rows, stepper.system.mass_weights  # w and |w| per mass
    for k in range(1, n_steps + 1):
        before = np.concatenate([state.phi, state.psi])
        state, report = _attempt_step(stepper, state, params.tau,
                                      params.newton.max_tau_halvings)
        robin_sq += params.tau * report.robin_gap_sq
        rec = diag.make_record(state, forms, params, report, prev_energy=prev_energy)
        if not np.isfinite(rec.energy):  # a blown-up state is a failure, not a result
            raise StepFailure(f"non-finite energy at t = {state.t:.6g}")
        # n u sum_i |w_i x_i| bounds the rounding of a sum of n terms.  A step whose Newton
        # stop met the tolerance of its largest rows only (a huge trace weight scales the
        # chem rows far past the phase rows) moved its mass by orders more
        moved = np.abs(masses @ np.concatenate([state.phi, state.psi]) - masses @ before)
        bound = len(before) * UNIT_ROUNDOFF * (weights @ np.abs(before))
        if not np.all(moved <= bound):
            raise StepFailure(f"conserved mass moved by {moved.max():.3e} at t = {state.t:.6g}, "
                              f"past its rounding bound {bound[moved.argmax()]:.3e}")
        prev_energy = rec.energy
        if k % config.output_every == 0 or k == n_steps:
            records.append(rec)
            if config.keep_states:
                states.append(state.copy())

    return RunResult(records=records, states=states, mesh=mesh, forms=forms,
                     params=params, final_state=state.copy(),
                     robin_gap_sq_integral=robin_sq)
