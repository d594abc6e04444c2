"""Scalar convex-analysis engine for the double-well potentials.

Each well is one ``Potential`` record F = F1 + F2: a convex part F1,
possibly singular at +-1, and a smooth concave part F2 with a Lipschitz
derivative.  ``resolvent``, ``yosida`` (value, derivative and resolvent of
the regularized derivative of F1), ``moreau_envelope`` and
``check_domination`` take the record itself.  The three classical wells are
supported:

* ``reg``  -- quartic double well, convex part c*s^4, smooth part -2c*s^2
* ``log``  -- Flory-Huggins well, convex part the entropy term on [-1,1],
  smooth part -(theta_c/2) s^2
* ``obst`` -- double obstacle, convex part the indicator of [-1,1],
  smooth part 1 - s^2

All evaluation routines take float numpy arrays (``resolvent``, ``yosida``
and ``moreau_envelope`` one-dimensional ones) and are pure functions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument

KINDS = ("reg", "log", "obst")

# Default well parameters (user-overridable); 0 < theta < theta_c.
DEFAULT_C = 1.0
DEFAULT_THETA = 0.8
DEFAULT_THETA_C = 1.6

_EDGE_MARGIN = 1e-15  # least distance of the log resolvent from +-1


def _xlogx(x):
    """x log x, 0 at x = 0; NaN for x < 0 (both branches of np.where are
    evaluated, so the warnings of the unused one are silenced)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0.0, 0.0, x * np.log(x))


@dataclass(frozen=True)
class Potential:
    """One of the three classical wells F = F1 + F2.

    ``value`` and ``second_derivative`` are those of the convex part F1;
    ``smooth_value`` and ``smooth_derivative`` those of the smooth part F2.
    ``prime_domain`` holds the endpoints of the domain of the subdifferential
    of F1, which the effective domain of F1 itself shares.  ``(-inf, inf)``
    is encoded with math.inf endpoints.
    """

    kind: str
    c: float = DEFAULT_C
    theta: float = DEFAULT_THETA
    theta_c: float = DEFAULT_THETA_C

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidArgument(f"unknown potential kind {self.kind!r}")
        self._check_finite("c", "theta")
        if self.kind == "reg" and self.c <= 0:
            raise InvalidArgument(f"potential.c must be positive for the reg well, got {self.c}")
        if self.kind == "reg" and 12.0 * self.c == math.inf:  # F1'' = 12 c r^2 must stay finite
            raise InvalidArgument(f"potential.c must be at most {sys.float_info.max / 12:.4g} "
                                  f"for the reg well, got {self.c}")
        if self.kind == "log" and self.theta <= 0:
            raise InvalidArgument(f"potential.theta must be positive for the log well, "
                                  f"got {self.theta}")
        self._check_finite("theta_c")
        if self.kind == "log" and not self.theta < self.theta_c:
            raise InvalidArgument(f"potential.theta must be less than potential.theta_c for the "
                                  f"log well, got {self.theta} >= {self.theta_c}")

    def _check_finite(self, *names):
        for name in names:
            if not math.isfinite(getattr(self, name)):
                raise InvalidArgument(f"potential.{name} must be finite, got {getattr(self, name)}")

    @property
    def concavity(self):
        """(kappa, the run-config terms of eps * kappa) for kappa = -F2'', constant: the
        regularized F1_eps + F2 is bounded below exactly when eps * kappa < 1, since
        F1_eps grows like r^2 / (2 eps)."""
        return {"reg": (4.0 * self.c, "4 * yosida.eps * potential.c"),
                "log": (self.theta_c, "yosida.eps * potential.theta_c"),
                "obst": (2.0, "2 * yosida.eps")}[self.kind]

    @property
    def prime_domain(self):
        return (-math.inf, math.inf) if self.kind == "reg" else (-1.0, 1.0)

    @property
    def prime_domain_open(self):
        """Whether prime_domain is an open interval (log); the obstacle
        graph's is closed."""
        return self.kind == "log"

    def value(self, r):
        """F1(r); +inf outside the effective domain."""
        if self.kind == "reg":
            return self.c * r**4
        if self.kind == "log":
            return np.where(np.abs(r) <= 1.0,
                            0.5 * self.theta * (_xlogx(1.0 + r) + _xlogx(1.0 - r)), np.inf)
        return np.where(np.abs(r) <= 1.0, 0.0, np.inf)

    def second_derivative(self, r):
        """F1''(r) on the interior of the prime domain."""
        if self.kind == "reg":
            return 12.0 * self.c * r**2
        if self.kind == "log":
            return self.theta / (1.0 - r**2)
        return np.zeros_like(r)

    def smooth_value(self, r):
        """F2(r) = F2(0) - kappa r^2 / 2, concave with a Lipschitz derivative; F2(0) is
        1 for obst, else 0."""
        return float(self.kind == "obst") - 0.5 * self.concavity[0] * r**2

    def smooth_derivative(self, r):
        """F2'(r) = -kappa r."""
        return -self.concavity[0] * r


def _as_eps(eps):
    # the calculus is total for any positive eps; the strict (0,1) range is
    # enforced on run configurations (RunParams)
    e = float(eps)
    if not (e > 0.0):
        raise InvalidArgument(f"regularization parameter must be positive, got {e}")
    return e


def _check_finite(r):
    if not np.all(np.isfinite(r)):
        raise InvalidArgument("non-finite input")


def _log_sweep(u, a, y):
    """One Newton step for tanh(u) + a*u = y in u >= 0."""
    t = np.tanh(u)
    return u - (t + a * u - y) / (1.0 - t * t + a)


def _reg_sweep(s, k, y):
    """One Newton step for s + k*s^3 = y in s >= 0."""
    return s - (s + k * s**3 - y) / (1.0 + 3.0 * k * s * s)


def _monotone_newton(sweep, x, a, y, direction):
    """Newton sweeps moving each entry toward its root in ``direction`` (+1 up,
    -1 down); an entry stops at its first update that does not move it on."""
    active, xa, ya = np.arange(x.size), x, y
    while active.size:
        new = sweep(xa, a, ya)
        moved = new > xa if direction > 0 else new < xa
        active, xa, ya = active[moved], new[moved], ya[moved]
        x[active] = xa
    return x


def resolvent(pot: Potential, eps, r):
    """(I + eps*f1)^{-1}(r), the unique s with s + eps*f1(s) = r, entry by entry.

    For the obstacle graph this is the projection onto [-1,1].  Smooth kinds
    solve for |s| by monotone Newton, so each entry stops at its root to
    rounding.  ``log``: tanh(u) + eps*theta*u = |r| in u = artanh|s| is
    concave increasing, and Newton from the lower bound max(|r|/(1 +
    eps*theta), (|r| - 1)/(eps*theta)) climbs without passing the root;
    |s| <= 1 - 1e-15 also where tanh(u) rounds to 1.  ``reg``: s + 4*eps*c*s^3
    = |r| is convex, and Newton from s = |r| descends to the root.
    """
    e = _as_eps(eps)
    _check_finite(r)
    if pot.kind == "obst":
        return np.clip(r, -1.0, 1.0)
    y = np.abs(r)
    if pot.kind == "log":
        a = e * pot.theta
        u = _monotone_newton(_log_sweep, np.maximum(y / (1.0 + a), (y - 1.0) / a), a, y, 1)
        return np.copysign(np.minimum(np.tanh(u), 1.0 - _EDGE_MARGIN), r)
    return np.copysign(_monotone_newton(_reg_sweep, y.copy(), 4.0 * e * pot.c, y, -1), r)


def yosida(pot: Potential, eps, r):
    """Yosida approximation value, its derivative and the resolvent at r.

    Returns ``(value, derivative, J(r))``, with value = (r - J(r))/eps for
    the resolvent J.  The derivative is the exact Newton Jacobian of the
    value: with J'(r) = 1/(1 + eps*F1''(J)) it is F1''(J)/(1 + eps*F1''(J)),
    formed as 1/(eps + 1/F1''(J)).  Unlike (1 - J'(r))/eps it does not cancel
    where eps*F1'' is small, and it is 1/eps where F1'' overflows.  The
    obstacle derivative is 0 on the closed interval [-1,1].
    """
    j = resolvent(pot, eps, r)  # checks eps and r
    e = float(eps)
    if pot.kind == "obst":
        deriv = np.where(np.abs(r) <= 1.0, 0.0, 1.0 / e)
    else:
        with np.errstate(divide="ignore"):  # F1'' = 0 gives 1/(eps + inf) = 0
            deriv = 1.0 / (e + 1.0 / pot.second_derivative(j))
    return (r - j) / e, deriv, j


def moreau_envelope(pot: Potential, eps, r, j=None):
    """Moreau envelope of the convex part, via the resolvent identity.

    F_eps(r) = |r - J(r)|^2 / (2 eps) + F1(J(r)); ``j`` is J(r) when the
    caller already has it.
    """
    e = _as_eps(eps)
    _check_finite(r)
    j = resolvent(pot, e, r) if j is None else j
    return (r - j) ** 2 / (2.0 * e) + pot.value(j)


@dataclass
class DominationReport:
    """Admissibility verdict for a (bulk, surface) pairing of wells."""

    admissible: bool
    reason: str = ""
    kappa1: float = float("nan")
    kappa2: float = float("nan")


def _domain_transfer_ok(f: Potential, g: Potential, alpha):
    """Whether alpha * D(g1) is contained in D(f1), and a reason if not.
    Each domain is R, (-1, 1) or [-1, 1], told apart by ``prime_domain`` and
    ``prime_domain_open``."""
    if math.isinf(f.prime_domain[1]):
        return True, ""
    if math.isinf(g.prime_domain[1]):
        ok, reason = alpha == 0.0, "alpha * D(g1) not contained in D(f1) (requires alpha = 0)"
    elif f.prime_domain_open and not g.prime_domain_open:  # alpha * [-1,1] in (-1,1)
        ok, reason = abs(alpha) < 1.0, "|alpha| >= 1"
    else:
        ok, reason = abs(alpha) <= 1.0, "|alpha| > 1"
    return ok, "" if ok else f"inadmissible: {reason}"


def check_domination(f: Potential, g: Potential, alpha):
    """Decide admissibility of the pairing and produce domination witnesses.

    The verdict is the domain rule alpha*D(g1) subset of D(f1); an
    admissible pairing gets the closed-form constants of the graph-level
    domination |f1_circle(alpha r)| <= kappa1 |g1_circle(r)| + kappa2 on D(g1).
    """
    ok, reason = _domain_transfer_ok(f, g, float(alpha))
    if not ok:
        return DominationReport(admissible=False, reason=reason)

    fk, gk, a = f.kind, g.kind, float(alpha)
    if fk == "obst":
        kappa1, kappa2 = 1.0, 0.0
    elif fk == "reg" and gk == "reg":
        kappa1, kappa2 = (f.c / g.c) * abs(a) ** 3, 0.0
    elif fk == "reg":
        # bounded D(g1): the cubic is bounded on alpha*[-1,1]
        kappa1, kappa2 = 1.0, 4.0 * f.c * abs(a) ** 3
    elif fk == "log" and gk == "log":
        kappa1, kappa2 = f.theta / g.theta, 0.0
    elif fk == "log" and gk == "obst":
        kappa1, kappa2 = 1.0, f.theta * float(np.arctanh(abs(a))) if a != 0 else 0.0
    else:  # log vs reg, alpha = 0
        kappa1, kappa2 = 1.0, 0.0
    return DominationReport(admissible=True, kappa1=kappa1, kappa2=kappa2)
