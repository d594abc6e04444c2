"""Scalar convex-analysis engine for the double-well potentials.

Each potential splits into a convex part (possibly singular at +-1, exposing
resolvent / regularized-derivative / envelope evaluation) and a smooth
concave part with a Lipschitz derivative.  The three classical wells are
supported:

* ``reg``  -- quartic double well, convex part c*s^4, smooth part -2c*s^2
* ``log``  -- Flory-Huggins well, convex part the entropy term on [-1,1],
  smooth part -(theta_c/2) s^2
* ``obst`` -- double obstacle, convex part the indicator of [-1,1],
  smooth part 1 - s^2

All evaluation routines accept scalars or numpy arrays and are pure
functions, safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument

KINDS = ("reg", "log", "obst")

# Default well parameters (user-overridable); 0 < theta < theta_c.
DEFAULT_C = 1.0
DEFAULT_THETA = 0.8
DEFAULT_THETA_C = 1.6

_BRACKET_MARGIN = 1e-15


def _xlogx(x):
    """x log x, 0 at x = 0; NaN for x < 0 (both branches of np.where are
    evaluated, so the warnings of the unused one are silenced)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0.0, 0.0, x * np.log(x))


@dataclass(frozen=True)
class ConvexPart:
    """Convex component of a well, with its effective domains.

    ``domain`` is the effective domain of the function itself,
    ``prime_domain`` the domain of its subdifferential.  ``(-inf, inf)``
    is encoded with math.inf endpoints.
    """

    kind: str
    c: float = DEFAULT_C
    theta: float = DEFAULT_THETA

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidArgument(f"unknown convex part kind {self.kind!r}")
        if self.kind == "reg" and self.c <= 0:
            raise InvalidArgument("quartic coefficient must be positive")
        if self.kind == "log" and self.theta <= 0:
            raise InvalidArgument("temperature must be positive")

    @property
    def domain(self):
        if self.kind == "reg":
            return (-math.inf, math.inf)
        return (-1.0, 1.0)

    @property
    def prime_domain(self):
        if self.kind == "reg":
            return (-math.inf, math.inf)
        if self.kind == "log":
            return (-1.0, 1.0)  # open interval
        return (-1.0, 1.0)  # closed for the obstacle graph

    @property
    def prime_domain_open(self):
        """Whether prime_domain is an open interval."""
        return self.kind == "log"

    def value(self, r):
        """F1(r); +inf outside the effective domain."""
        r = np.asarray(r, dtype=float)
        if self.kind == "reg":
            return self.c * r**4
        if self.kind == "log":
            out = np.where(
                np.abs(r) <= 1.0,
                0.5 * self.theta * (_xlogx(1.0 + r) + _xlogx(1.0 - r)),
                np.inf,
            )
            return out if out.shape else float(out)
        out = np.where(np.abs(r) <= 1.0, 0.0, np.inf)
        return out if out.shape else float(out)

    def minimal_section(self, r):
        """f1_circle(r), the minimal-modulus element of the subdifferential."""
        r = np.asarray(r, dtype=float)
        if self.kind == "reg":
            return 4.0 * self.c * r**3
        if self.kind == "log":
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(
                    np.abs(r) < 1.0,
                    self.theta * np.arctanh(np.clip(r, -1, 1)),
                    np.inf * np.sign(r),
                )
            return out if out.shape else float(out)
        out = np.where(np.abs(r) <= 1.0, 0.0, np.nan)
        return out if out.shape else float(out)

    def second_derivative(self, r):
        """F1''(r) on the interior of the prime domain."""
        r = np.asarray(r, dtype=float)
        if self.kind == "reg":
            return 12.0 * self.c * r**2
        if self.kind == "log":
            return self.theta / (1.0 - r**2)
        return np.zeros_like(r) if r.shape else 0.0


@dataclass(frozen=True)
class SmoothPart:
    """Smooth concave component with Lipschitz-continuous derivative."""

    kind: str
    c: float = DEFAULT_C
    theta_c: float = DEFAULT_THETA_C

    @property
    def lipschitz_bound(self):
        if self.kind == "reg":
            return 4.0 * self.c
        if self.kind == "log":
            return self.theta_c
        return 2.0

    def value(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "reg":
            return -2.0 * self.c * r**2
        if self.kind == "log":
            return -0.5 * self.theta_c * r**2
        return 1.0 - r**2

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "reg":
            return -4.0 * self.c * r
        if self.kind == "log":
            return -self.theta_c * r
        return -2.0 * r


@dataclass(frozen=True)
class Potential:
    """One of the three classical wells, as matched convex + smooth parts."""

    convex: ConvexPart
    smooth: SmoothPart
    name: str = ""

    def __post_init__(self):
        if self.convex.kind != self.smooth.kind:
            raise InvalidArgument("convex and smooth kinds must match")
        if self.convex.kind == "log" and not (0.0 < self.convex.theta < self.smooth.theta_c):
            raise InvalidArgument("logarithmic well requires 0 < theta < theta_c")

    @property
    def kind(self):
        return self.convex.kind


def make_potential(kind, c=DEFAULT_C, theta=DEFAULT_THETA, theta_c=DEFAULT_THETA_C):
    """Construct one of the classical wells by kind name."""
    return Potential(
        convex=ConvexPart(kind, c=c, theta=theta),
        smooth=SmoothPart(kind, c=c, theta_c=theta_c),
        name=kind,
    )


def _as_eps(eps):
    # scalar operations are total for any positive eps; the strict (0,1)
    # range is enforced on run configurations (RunParams)
    e = float(eps)
    if not (e > 0.0):
        raise InvalidArgument(f"regularization parameter must be positive, got {e}")
    return e


def _check_finite(r):
    if not np.all(np.isfinite(r)):
        raise InvalidArgument("non-finite input")


def resolvent(cp: ConvexPart, eps, r):
    """(I + eps*f1)^{-1}(r), the unique s with s + eps*f1(s) = r.

    For the obstacle graph this is the projection onto [-1,1].  Smooth
    kinds are solved by safeguarded Newton with bisection fallback; the
    residual satisfies |s + eps*f1'(s) - r| <= 1e-13 * max(1, |r|).
    """
    e = _as_eps(eps)
    r_arr = np.asarray(r, dtype=float)
    _check_finite(r_arr)
    scalar = r_arr.ndim == 0
    x = np.atleast_1d(r_arr).astype(float).copy()

    if cp.kind == "obst":
        s = np.clip(x, -1.0, 1.0)
        return float(s[0]) if scalar else s

    # monotone scalar equation; root shares the sign of r and |s| <= |r|
    lo = np.minimum(0.0, x)
    hi = np.maximum(0.0, x)
    if cp.kind == "log":
        lo = np.maximum(lo, -1.0 + _BRACKET_MARGIN)
        hi = np.minimum(hi, 1.0 - _BRACKET_MARGIN)

    s = 0.5 * (lo + hi)
    tol = 1e-13 * np.maximum(1.0, np.abs(x))
    for _ in range(200):
        f = cp.minimal_section(s)
        res = s + e * f - x
        done = np.abs(res) <= tol
        if np.all(done):
            break
        lo = np.where(res < 0, s, lo)
        hi = np.where(res > 0, s, hi)
        deriv = 1.0 + e * cp.second_derivative(s)
        step = res / deriv
        cand = s - step
        bad = (cand <= lo) | (cand >= hi) | ~np.isfinite(cand)
        cand = np.where(bad, 0.5 * (lo + hi), cand)
        s = np.where(done, s, cand)
    return float(s[0]) if scalar else s


def yosida(cp: ConvexPart, eps, r):
    """Yosida approximation value and its derivative at r.

    Returns ``(value, derivative)`` with value = (r - J(r))/eps for the
    resolvent J.  The derivative is the exact Newton Jacobian of the value:
    (1 - J'(r))/eps, with the convention that the obstacle derivative is 0
    on the closed interval [-1,1].
    """
    e = _as_eps(eps)
    r_arr = np.asarray(r, dtype=float)
    _check_finite(r_arr)
    scalar = r_arr.ndim == 0
    x = np.atleast_1d(r_arr).astype(float)

    j = np.atleast_1d(np.asarray(resolvent(cp, e, x)))
    value = (x - j) / e
    if cp.kind == "obst":
        deriv = np.where(np.abs(x) <= 1.0, 0.0, 1.0 / e)
    else:
        jprime = 1.0 / (1.0 + e * cp.second_derivative(j))
        deriv = (1.0 - jprime) / e
    if scalar:
        return float(value[0]), float(deriv[0])
    return value, deriv


def moreau_envelope(cp: ConvexPart, eps, r):
    """Moreau envelope of the convex part, via the resolvent identity.

    F_eps(r) = |r - J(r)|^2 / (2 eps) + F1(J(r)).
    """
    e = _as_eps(eps)
    r_arr = np.asarray(r, dtype=float)
    _check_finite(r_arr)
    j = resolvent(cp, e, r_arr)
    return (r_arr - j) ** 2 / (2.0 * e) + cp.value(j)


def eval_regularized(pot: Potential, eps, r):
    """Regularized potential value and derivative parts at r.

    Returns ``(F_eps, f1_eps, f2)`` where F_eps is the Moreau envelope of
    the convex part plus the smooth part, f1_eps the regularized monotone
    derivative, and f2 the smooth derivative.
    """
    e = _as_eps(eps)
    fe = moreau_envelope(pot.convex, e, r) + pot.smooth.value(r)
    f1e, _ = yosida(pot.convex, e, r)
    f2 = pot.smooth.derivative(r)
    return fe, f1e, f2


def quadratic_lower_bound_certificate(pot: Potential, grid=None, max_level=40):
    """Constructive certificate for the quadratic lower bound.

    Finds the largest eps = 2^-k such that F_eps(r) >= r^2 - C on a wide
    grid, with C from a kind-specific closed-form bound.  Returns
    ``(eps_star, C)``.
    """
    kind = pot.kind
    if kind == "reg":
        # +1 slack: the envelope lies strictly below the quartic, so the
        # exact touching constant (2c+1)^2/(4c) would never certify
        c = pot.convex.c
        C = (2.0 * c + 1.0) ** 2 / (4.0 * c) + 1.0
    elif kind == "log":
        C = 2.0 + pot.smooth.theta_c
    else:
        C = 2.0
    if grid is None:
        grid = np.linspace(-20.0, 20.0, 4001)
    for k in range(1, max_level + 1):
        e = 2.0**-k
        fe, _, _ = eval_regularized(pot, e, grid)
        if np.all(fe >= grid**2 - C):
            return e, C
    raise InvalidArgument("no admissible regularization level found")


@dataclass
class PropertyReport:
    """Outcome of the scalar property battery; failures list (name, eps, r)."""

    passed: bool
    failures: list = field(default_factory=list)

    def record(self, ok_mask, name, eps, grid):
        bad = np.atleast_1d(~np.asarray(ok_mask))
        if bad.any():
            self.passed = False
            for r in np.atleast_1d(grid)[bad]:
                self.failures.append((name, eps, float(r)))


def verify_scalar_properties(cp: ConvexPart, eps_list, grid):
    """Check the pointwise bounds and monotonicity of the regularization.

    Verified on the grid, for each eps: |f1_eps| <= |f1_circle| (where the
    minimal section is defined), |f1_eps| <= |r|/eps, monotonicity of
    f1_eps, the divided-difference Lipschitz bound 1/eps, envelope
    monotonicity in eps, and convergence f1_eps -> f1_circle along eps
    halvings on interior points.
    """
    grid = np.sort(np.asarray(grid, dtype=float))
    eps_list = sorted(float(_as_eps(e)) for e in eps_list)
    report = PropertyReport(passed=True)

    lo, hi = cp.prime_domain
    interior = (grid > lo) & (grid < hi)
    in_dom = interior if cp.prime_domain_open else (grid >= lo) & (grid <= hi)
    f_min = np.where(in_dom, cp.minimal_section(np.clip(grid, lo, hi)), np.inf)

    prev_env = None
    prev_gap = None
    for e in sorted(eps_list, reverse=True):
        val, _ = yosida(cp, e, grid)
        report.record(np.abs(val) <= np.abs(f_min) * (1 + 1e-10) + 1e-12, "bound_vs_minimal_section", e, grid)
        report.record(np.abs(val) <= np.abs(grid) / e * (1 + 1e-10) + 1e-12, "bound_vs_linear", e, grid)
        report.record(np.diff(val) >= -1e-12, "monotone", e, grid[1:])
        dg = np.diff(grid)
        with np.errstate(divide="ignore", invalid="ignore"):
            dd = np.where(dg > 0, np.diff(val) / dg, 0.0)
        report.record(dd <= (1.0 / e) * (1 + 1e-10), "lipschitz", e, grid[1:])

        env = moreau_envelope(cp, e, grid)
        if prev_env is not None:
            # eps decreasing along the loop => envelope nondecreasing
            report.record(env >= prev_env - 1e-12, "envelope_monotone_in_eps", e, grid)
        prev_env = env

        gap = np.where(interior, np.abs(val - np.where(interior, f_min, 0.0)), 0.0)
        if prev_gap is not None:
            report.record(gap <= prev_gap + 1e-12, "convergence_to_minimal_section", e, grid)
        prev_gap = gap

    return report


@dataclass
class DominationReport:
    """Admissibility verdict for a (bulk, surface) convex-part pairing."""

    admissible: bool
    reason: str = ""
    kappa1: float = float("nan")
    kappa2: float = float("nan")
    regularized_ok: bool = True


def _domain_transfer_ok(f_kind, g_kind, alpha):
    """Whether alpha * D(g1) is contained in D(f1), and a reason if not."""
    if f_kind == "reg":
        return True, ""
    if g_kind == "reg":
        # D(g1) = R; fits into a bounded D(f1) only for alpha = 0
        if alpha == 0.0:
            return True, ""
        return False, "inadmissible: alpha * D(g1) not contained in D(f1) (requires alpha = 0)"
    if f_kind == "log":
        # D(f1) = (-1,1) open
        if g_kind == "log":
            ok = abs(alpha) <= 1.0
            reason = "" if ok else "inadmissible: |alpha| > 1"
        else:  # g obstacle: D(g1) = [-1,1] closed
            ok = abs(alpha) < 1.0
            reason = "" if ok else "inadmissible: |alpha| >= 1"
        return ok, reason
    # f obstacle: D(f1) = [-1,1] closed
    ok = abs(alpha) <= 1.0
    return ok, "" if ok else "inadmissible: |alpha| > 1"


def check_domination(f_cp: ConvexPart, g_cp: ConvexPart, alpha, grid, eps_list=()):
    """Decide admissibility of the pairing and produce domination witnesses.

    Checks alpha*D(g1) subset of D(f1) plus the graph-level domination
    |f1_circle(alpha r)| <= kappa1 |g1_circle(r)| + kappa2, returning the
    witness constants.  When admissible and eps_list is nonempty, the
    regularized transfer with the same constants is verified on the grid.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise InvalidArgument("grid must be nonempty")
    ok, reason = _domain_transfer_ok(f_cp.kind, g_cp.kind, float(alpha))
    if not ok:
        return DominationReport(admissible=False, reason=reason)

    fk, gk, a = f_cp.kind, g_cp.kind, float(alpha)
    if fk == "obst":
        kappa1, kappa2 = 1.0, 0.0
    elif fk == "reg" and gk == "reg":
        kappa1, kappa2 = (f_cp.c / g_cp.c) * abs(a) ** 3, 0.0
    elif fk == "reg":
        # bounded D(g1): the cubic is bounded on alpha*[-1,1]
        kappa1, kappa2 = 1.0, 4.0 * f_cp.c * abs(a) ** 3
    elif fk == "log" and gk == "log":
        kappa1, kappa2 = f_cp.theta / g_cp.theta, 0.0
    elif fk == "log" and gk == "obst":
        kappa1, kappa2 = 1.0, f_cp.theta * float(np.arctanh(abs(a))) if a != 0 else 0.0
    else:  # log vs reg, alpha = 0
        kappa1, kappa2 = 1.0, 0.0

    report = DominationReport(admissible=True, kappa1=kappa1, kappa2=kappa2)

    # graph-level check on the grid (restricted to D(g1))
    glo, ghi = g_cp.prime_domain
    mask = (grid > glo) & (grid < ghi) if g_cp.prime_domain_open else (grid >= glo) & (grid <= ghi)
    pts = grid[mask]
    if pts.size:
        # the masks keep every argument inside the open log domain
        fmin = np.abs(f_cp.minimal_section(a * pts))
        gmin = np.abs(g_cp.minimal_section(pts))
        if not np.all(fmin <= kappa1 * gmin + kappa2 + 1e-10):
            report.regularized_ok = False
            report.admissible = False
            report.reason = "domination witnesses violated on grid"
            return report

    for e in eps_list:
        fval, _ = yosida(f_cp, e, a * grid)
        gval, _ = yosida(g_cp, e, grid)
        if not np.all(np.abs(fval) <= kappa1 * np.abs(gval) + kappa2 + 1e-10):
            report.regularized_ok = False
    return report
