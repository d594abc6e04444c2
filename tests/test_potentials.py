import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import xlogy

import bscch.potentials
from bscch.errors import InvalidArgument
from bscch.potentials import (
    KINDS,
    Potential,
    check_domination,
    moreau_envelope,
    resolvent,
    yosida,
)

from oracles import (
    minimal_section,
    quadratic_lower_bound_certificate,
    regularized_lower_bound,
    smooth_part,
    verify_scalar_properties,
)

EPS_LIST = (0.5, 0.1, 0.02)


# -- resolvent worked examples (hand-derived oracles) ------------------------

def test_resolvent_obstacle_clamps():
    pot = Potential("obst")
    # obstacle resolvent is the projection onto [-1, 1]
    j = resolvent(pot, 0.5, np.array([2.0, -3.0, 0.3]))
    np.testing.assert_allclose(j, [1.0, -1.0, 0.3], rtol=0, atol=1e-13)


def test_resolvent_quartic_worked_example():
    # J solves 4*eps*c*J^3 + J = r; with c=1, eps=0.25, r=2: J=1
    pot = Potential("reg")
    np.testing.assert_allclose(resolvent(pot, 0.25, np.array([2.0])), [1.0], rtol=0, atol=1e-12)


def test_resolvent_log_inverts_forward_map():
    # r = J + eps*Theta*atanh(J) at J=0.5, Theta=1, eps=1
    pot = Potential("log", theta=1.0, theta_c=1.6)
    r = np.array([0.5 + np.arctanh(0.5)])
    np.testing.assert_allclose(resolvent(pot, 1.0, r), [0.5], rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_resolvent_vectorized_matches_scalar(kind):
    pot = Potential(kind)
    grid = np.linspace(-3, 3, 41)
    vec = resolvent(pot, 0.1, grid)
    # each entry stops on its own: one-entry arrays give the same values
    singles = np.concatenate([resolvent(pot, 0.1, grid[i:i + 1]) for i in range(len(grid))])
    np.testing.assert_allclose(vec, singles, rtol=0, atol=1e-14)


@pytest.mark.parametrize("eps", [0.05, 0.01, 1e-3])
def test_log_resolvent_sweeps_bounded_near_the_singularity(monkeypatch, eps):
    # the bracketed solver ran all of its 200 sweeps at these r: its residual
    # bound cannot be met in floating point once the root is within ~1e-5 of +-1
    sweeps = []
    sweep = bscch.potentials._log_sweep
    monkeypatch.setattr(bscch.potentials, "_log_sweep", lambda *a: sweeps.append(1) or sweep(*a))
    pot = Potential("log")
    r = np.array([1.05, 1.1, 1.3, -1.05, -1.1, -1.3])
    grid = np.linspace(-1.4, 1.4, 2801)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for values, bound in ((r, 10), (grid, 15)):
            sweeps.clear()
            j = resolvent(pot, eps, values)
            assert len(sweeps) <= bound
            assert np.all(np.abs(j) < 1.0) and np.all(np.sign(j) == np.sign(values))
            assert np.all(np.diff(j[np.argsort(values)]) >= 0.0)
            # away from the rounding edge at +-1 the root solves its equation
            inner = np.abs(j) < 0.999
            lhs = j + eps * pot.theta * np.arctanh(j)
            assert np.all(np.abs(lhs - values)[inner] <= 1e-14 * np.abs(values)[inner] + 1e-15)


# -- regularized evaluation worked examples ----------------------------------

def test_eval_regularized_obstacle():
    # eps=0.5, r=2: J=1, f1e=(2-1)/0.5=2, F1e=1, F2=1-4=-3 => Fe=-2, f2=-4
    pot, r = Potential("obst"), np.array([2.0])
    Fe = moreau_envelope(pot, 0.5, r) + pot.smooth_value(r)
    f1e, _, _ = yosida(pot, 0.5, r)
    assert Fe[0] == pytest.approx(-2.0, abs=1e-13)
    assert f1e[0] == pytest.approx(2.0, abs=1e-13)
    assert pot.smooth_derivative(r)[0] == pytest.approx(-4.0, abs=1e-13)


def test_eval_regularized_quartic():
    # c=1, eps=0.25, r=2: J=1, f1e=(2-1)/0.25=4, f2=-4*2=-8
    pot, r = Potential("reg"), np.array([2.0])
    f1e, _, _ = yosida(pot, 0.25, r)
    assert f1e[0] == pytest.approx(4.0, abs=1e-12)
    assert pot.smooth_derivative(r)[0] == pytest.approx(-8.0, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("c", [1.0, 1e6])
@pytest.mark.parametrize("theta_c", [1.6, 12.0])
def test_smooth_part_from_concavity_equals_the_per_kind_formulas(kind, c, theta_c):
    # F2 = F2(0) - kappa r^2 / 2 and F2' = -kappa r with kappa from Potential.concavity.
    # Equal as floats; at r = 0 the value is +0.0 where -2c r^2 and -theta_c r^2 / 2 give -0.0
    pot, r = Potential(kind, c=c, theta_c=theta_c), np.array([0.0, 0.5, -0.5, 1.0, -1.0])
    value, derivative = smooth_part(pot, r)
    np.testing.assert_array_equal(pot.smooth_value(r), value)
    assert pot.smooth_derivative(r).tobytes() == derivative.tobytes()


def test_yosida_derivative_accurate_where_eps_times_curvature_is_small():
    # reg, eps = 1e-3 near r = 0: eps * F1'' = 12e-3 * J^2 falls to 1e-21, where
    # (1 - 1/(1 + eps F1''))/eps loses every digit and rounds to 0
    pot, eps = Potential("reg"), 1e-3
    r = np.array([0.0, 1e-9, -1e-7, 1e-5, 1e-3, -0.05])
    with np.errstate(all="raise"):  # F1''(0) = 0 gives 0 without a warning
        _, deriv, j = yosida(pot, eps, r)
    for got, jk in zip(deriv, j):
        d = 12 * Fraction(pot.c) * Fraction(jk) ** 2
        exact = d / (1 + Fraction(eps) * d)
        assert abs(Fraction(got) - exact) <= 4 * 2.0**-53 * exact


@pytest.mark.parametrize("kind", KINDS)
def test_envelope_matches_direct_minimization(kind):
    # independent oracle: minimize |r-s|^2/(2 eps) + F1(s) over a fine grid
    pot = Potential(kind)
    eps = 0.1
    lo, hi = pot.prime_domain
    s = np.linspace(max(lo, -3.0) + 1e-12, min(hi, 3.0) - 1e-12, 600001)
    vals = pot.value(s)
    r = np.array([-1.5, -0.4, 0.0, 0.7, 2.0])
    direct = np.min((r[:, None] - s) ** 2 / (2 * eps) + vals, axis=1)
    # grid-minimization error is (delta^2/8) F1''(s*); near the log
    # singularity that is a few 1e-8 at this resolution
    np.testing.assert_allclose(moreau_envelope(pot, eps, r), direct, rtol=0, atol=5e-8)


# -- scalar battery (acceptance criterion 1 at unit level) --------------------

@pytest.mark.parametrize("kind", KINDS)
def test_scalar_property_battery(kind):
    pot = Potential(kind)
    grid = np.linspace(-4.0, 4.0, 2001)
    report = verify_scalar_properties(pot, EPS_LIST, grid)
    assert report.passed, report.failures


# -- hypothesis property tests ------------------------------------------------

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(KINDS), eps=st.sampled_from(EPS_LIST),
       r1=finite, r2=finite)
def test_resolvent_monotone_and_nonexpansive(kind, eps, r1, r2):
    pot = Potential(kind)
    j1, j2 = resolvent(pot, eps, np.array([r1, r2]))
    assert (j2 - j1) * (r2 - r1) >= -1e-12
    assert abs(j2 - j1) <= abs(r2 - r1) + 1e-12


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(KINDS), eps=st.sampled_from(EPS_LIST), r=finite)
def test_yosida_bounded_by_linear(kind, eps, r):
    pot = Potential(kind)
    (val,), _, _ = yosida(pot, eps, np.array([r]))
    assert abs(val) <= abs(r) / eps + 1e-10


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(KINDS), eps=st.sampled_from(EPS_LIST),
       r=st.floats(min_value=-0.999, max_value=0.999))
def test_envelope_below_potential(kind, eps, r):
    pot, r = Potential(kind), np.array([r])
    assert moreau_envelope(pot, eps, r)[0] <= pot.value(r)[0] + 1e-12


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(KINDS), r=finite)
def test_resolvent_stays_in_domain(kind, r):
    pot = Potential(kind)
    lo, hi = pot.prime_domain
    (j,) = resolvent(pot, 0.1, np.array([r]))
    assert lo - 1e-12 <= j <= hi + 1e-12


# -- domination taxonomy (acceptance criterion 2 at unit level) ---------------

WELLS = [(c, theta) for c in (1.0, 1e6, 1e100) for theta in (0.8, 1e12)]  # defaults first
WITNESS_GRID = np.linspace(-2.0, 2.0, 4001)  # holds -1, 0 and 1


def _verdict(bulk, surf, alpha):
    """The verdict at the default well parameters, checked to be the same for
    every (c, theta) of WELLS; an admissible verdict's witnesses must bound
    |f1_circle(alpha r)| by kappa1 |g1_circle(r)| + kappa2 on D(g1)."""
    reports = []
    for c, theta in WELLS:
        f, g = (Potential(k, c=c, theta=theta, theta_c=2 * theta) for k in (bulk, surf))
        rep = check_domination(f, g, alpha)
        if rep.admissible:
            lo, hi = g.prime_domain
            r = WITNESS_GRID[(WITNESS_GRID > lo) & (WITNESS_GRID < hi) if g.prime_domain_open
                             else (WITNESS_GRID >= lo) & (WITNESS_GRID <= hi)]
            lhs = np.abs(minimal_section(f, alpha * r))
            rhs = rep.kappa1 * np.abs(minimal_section(g, r)) + rep.kappa2
            assert np.all(lhs <= rhs * (1 + 1e-12)), (c, theta, r[lhs > rhs * (1 + 1e-12)])
        reports.append(rep)
    assert all(rep.admissible is reports[0].admissible for rep in reports), [
        rep.admissible for rep in reports]
    return reports[0]


@pytest.mark.parametrize("alpha,ok", [(-1.0, True), (-0.5, True), (0.0, True),
                                      (0.7, True), (1.0, True), (1.2, False)])
def test_taxonomy_log_log(alpha, ok):
    assert _verdict("log", "log", alpha).admissible is ok


@pytest.mark.parametrize("surf", KINDS)
def test_taxonomy_reg_bulk_always_admissible(surf):
    for alpha in (-2.0, 0.0, 0.7, 1.0, 3.0):
        assert _verdict("reg", surf, alpha).admissible


def test_taxonomy_log_obst_strict():
    assert _verdict("log", "obst", 0.9).admissible
    assert _verdict("log", "obst", 0.99).admissible
    rep = _verdict("log", "obst", 1.0)
    assert not rep.admissible
    assert rep.reason == "inadmissible: |alpha| >= 1"


@pytest.mark.parametrize("bulk", ["obst"])
@pytest.mark.parametrize("surf", ["log", "obst"])
def test_taxonomy_obst_bulk(bulk, surf):
    assert _verdict(bulk, surf, 1.0).admissible
    assert not _verdict(bulk, surf, 1.1).admissible


def test_taxonomy_singular_bulk_regular_surface():
    # only alpha = 0 decouples the singular bulk from the regular surface
    assert _verdict("log", "reg", 0.0).admissible
    assert not _verdict("log", "reg", 0.5).admissible
    assert not _verdict("obst", "reg", 0.5).admissible


# -- the regularized energy's lower bound --------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_regularized_lower_bound_holds_and_eps_concavity_is_its_limit(kind):
    # below eps * concavity = 1 the closed-form bound of F1_eps + F2 holds on a wide
    # grid, whose minimum is interior; at the limit the minimum sits at the grid's end
    pot = Potential(kind, c=2.0, theta_c=3.0)
    r = np.linspace(-1e4, 1e4, 400001)
    for fraction in (0.5, 0.9, 0.99, 1.0):
        eps = fraction / pot.concavity[0]
        values = moreau_envelope(pot, eps, r) + pot.smooth_value(r)
        at_edge = np.argmin(values) in (0, len(r) - 1)
        if fraction < 1.0:
            bound = regularized_lower_bound(pot, eps)
            assert values.min() >= bound - 1e-12 * abs(bound) and not at_edge
        else:
            assert at_edge


# -- quadratic lower-bound certificate ----------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_certificate_holds_on_grid(kind):
    pot = Potential(kind)
    eps_star, C = quadratic_lower_bound_certificate(pot)
    assert 0 < eps_star < 1
    grid = np.linspace(-5, 5, 4001)
    for eps in (eps_star, eps_star / 4):
        Fe = moreau_envelope(pot, eps, grid) + pot.smooth_value(grid)
        assert np.all(Fe >= 0.25 * grid**2 - C + -1e-10)


def test_unknown_kind_rejected():
    with pytest.raises(InvalidArgument):
        Potential("polynomial")


@pytest.mark.parametrize("kwargs,message", [
    (dict(kind="polynomial", c=np.nan), "unknown potential kind 'polynomial'"),
    (dict(kind="obst", c=np.inf), "potential.c must be finite, got inf"),
    (dict(kind="obst", theta=np.nan, theta_c=np.nan), "potential.theta must be finite, got nan"),
    (dict(kind="reg", c=0.0), "potential.c must be positive for the reg well, got 0.0"),
    # c is checked before theta_c
    (dict(kind="reg", c=-1.0, theta_c=np.inf), "potential.c must be positive for the reg well, got -1.0"),
    (dict(kind="reg", c=1e308), "potential.c must be at most 1.498e+307 for the reg well, got 1e+308"),
    (dict(kind="log", theta=-0.5), "potential.theta must be positive for the log well, got -0.5"),
    # theta is checked before theta_c
    (dict(kind="log", theta=np.nan, theta_c=np.nan), "potential.theta must be finite, got nan"),
    (dict(kind="log", theta_c=-np.inf), "potential.theta_c must be finite, got -inf"),
    (dict(kind="log", theta=1.6), "potential.theta must be less than potential.theta_c for the "
                                  "log well, got 1.6 >= 1.6"),
])
def test_invalid_potential_message(kwargs, message):
    with pytest.raises(InvalidArgument) as exc:
        Potential(**kwargs)
    assert str(exc.value) == message


def test_log_value_matches_xlogy_reference():
    pot = Potential("log")
    r = np.concatenate([np.linspace(-1.0, 1.0, 2001), [0.0, -1.0, 1.0, np.nextafter(1.0, 0.0)]])
    ref = 0.5 * pot.theta * (xlogy(1.0 + r, 1.0 + r) + xlogy(1.0 - r, 1.0 - r))
    np.testing.assert_allclose(pot.value(r), ref, rtol=0.0, atol=1e-15)
    edge = pot.value(np.array([1.0]))[0]
    assert edge == pytest.approx(pot.theta * np.log(2.0), rel=1e-15)  # 0 log 0 = 0
    outside = np.array([-1.5, np.nextafter(-1.0, -2.0), np.nextafter(1.0, 2.0), 3.0])
    with np.errstate(all="raise"):  # no warning leaks from the unused branch
        assert np.all(pot.value(outside) == np.inf)
        assert pot.value(np.array([2.0]))[0] == np.inf


def test_cli_import_does_not_load_scipy_special():
    # the package needs no scipy.special; importing it costs memory and start-up time
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, bscch.cli; print('scipy.special' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
