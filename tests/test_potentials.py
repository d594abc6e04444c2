import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import xlogy

from bscch.errors import InvalidArgument
from bscch.potentials import (
    KINDS,
    check_domination,
    eval_regularized,
    make_potential,
    moreau_envelope,
    quadratic_lower_bound_certificate,
    resolvent,
    verify_scalar_properties,
    yosida,
)

EPS_LIST = (0.5, 0.1, 0.02)


# -- resolvent worked examples (hand-derived oracles) ------------------------

def test_resolvent_obstacle_clamps():
    cp = make_potential("obst").convex
    # obstacle resolvent is the projection onto [-1, 1]
    assert resolvent(cp, 0.5, 2.0) == pytest.approx(1.0, abs=1e-13)
    assert resolvent(cp, 0.5, -3.0) == pytest.approx(-1.0, abs=1e-13)
    assert resolvent(cp, 0.5, 0.3) == pytest.approx(0.3, abs=1e-13)


def test_resolvent_quartic_worked_example():
    # J solves 4*eps*c*J^3 + J = r; with c=1, eps=0.25, r=2: J=1
    cp = make_potential("reg").convex
    assert resolvent(cp, 0.25, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_resolvent_log_inverts_forward_map():
    # r = J + eps*Theta*atanh(J) at J=0.5, Theta=1, eps=1
    cp = make_potential("log", theta=1.0, theta_c=1.6).convex
    r = 0.5 + np.arctanh(0.5)
    assert resolvent(cp, 1.0, r) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_resolvent_vectorized_matches_scalar(kind):
    cp = make_potential(kind).convex
    grid = np.linspace(-3, 3, 41)
    vec = resolvent(cp, 0.1, grid)
    scalars = np.array([resolvent(cp, 0.1, float(r)) for r in grid])
    np.testing.assert_allclose(vec, scalars, rtol=0, atol=1e-14)


# -- regularized evaluation worked examples ----------------------------------

def test_eval_regularized_obstacle():
    # eps=0.5, r=2: J=1, f1e=(2-1)/0.5=2, F1e=1, F2=1-4=-3 => Fe=-2, f2=-4
    pot = make_potential("obst")
    Fe, f1e, f2 = eval_regularized(pot, 0.5, 2.0)
    assert Fe == pytest.approx(-2.0, abs=1e-13)
    assert f1e == pytest.approx(2.0, abs=1e-13)
    assert f2 == pytest.approx(-4.0, abs=1e-13)


def test_eval_regularized_quartic():
    # c=1, eps=0.25, r=2: J=1, f1e=(2-1)/0.25=4, f2=-4*2=-8
    pot = make_potential("reg")
    _, f1e, f2 = eval_regularized(pot, 0.25, 2.0)
    assert f1e == pytest.approx(4.0, abs=1e-12)
    assert f2 == pytest.approx(-8.0, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_envelope_matches_direct_minimization(kind):
    # independent oracle: minimize |r-s|^2/(2 eps) + F1(s) over a fine grid
    cp = make_potential(kind).convex
    eps = 0.1
    lo, hi = cp.domain
    s = np.linspace(max(lo, -3.0) + 1e-12, min(hi, 3.0) - 1e-12, 600001)
    vals = cp.value(s)
    for r in (-1.5, -0.4, 0.0, 0.7, 2.0):
        direct = np.min((r - s) ** 2 / (2 * eps) + vals)
        # grid-minimization error is (delta^2/8) F1''(s*); near the log
        # singularity that is a few 1e-8 at this resolution
        assert moreau_envelope(cp, eps, r) == pytest.approx(direct, abs=5e-8)


# -- scalar battery (acceptance criterion 1 at unit level) --------------------

@pytest.mark.parametrize("kind", KINDS)
def test_scalar_property_battery(kind):
    cp = make_potential(kind).convex
    grid = np.linspace(-4.0, 4.0, 2001)
    report = verify_scalar_properties(cp, EPS_LIST, grid)
    assert report.passed, report.failures


# -- hypothesis property tests ------------------------------------------------

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(KINDS), eps=st.sampled_from(EPS_LIST),
       r1=finite, r2=finite)
def test_resolvent_monotone_and_nonexpansive(kind, eps, r1, r2):
    cp = make_potential(kind).convex
    j1, j2 = resolvent(cp, eps, r1), resolvent(cp, eps, r2)
    assert (j2 - j1) * (r2 - r1) >= -1e-12
    assert abs(j2 - j1) <= abs(r2 - r1) + 1e-12


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(KINDS), eps=st.sampled_from(EPS_LIST), r=finite)
def test_yosida_bounded_by_linear(kind, eps, r):
    cp = make_potential(kind).convex
    val, _ = yosida(cp, eps, r)
    assert abs(val) <= abs(r) / eps + 1e-10


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(KINDS), eps=st.sampled_from(EPS_LIST),
       r=st.floats(min_value=-0.999, max_value=0.999))
def test_envelope_below_potential(kind, eps, r):
    cp = make_potential(kind).convex
    assert moreau_envelope(cp, eps, r) <= cp.value(r) + 1e-12


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(KINDS), r=finite)
def test_resolvent_stays_in_domain(kind, r):
    cp = make_potential(kind).convex
    lo, hi = cp.domain
    j = resolvent(cp, 0.1, r)
    assert lo - 1e-12 <= j <= hi + 1e-12


# -- domination taxonomy (acceptance criterion 2 at unit level) ---------------

GRID = np.linspace(-0.999, 0.999, 999)


def _verdict(bulk, surf, alpha):
    return check_domination(make_potential(bulk).convex,
                            make_potential(surf).convex, alpha, GRID,
                            eps_list=[0.1, 0.05])


@pytest.mark.parametrize("alpha,ok", [(-1.0, True), (-0.5, True), (0.0, True),
                                      (0.7, True), (1.0, True), (1.2, False)])
def test_taxonomy_log_log(alpha, ok):
    assert _verdict("log", "log", alpha).admissible is ok


@pytest.mark.parametrize("surf", KINDS)
def test_taxonomy_reg_bulk_always_admissible(surf):
    for alpha in (-2.0, 0.0, 1.0, 3.0):
        assert _verdict("reg", surf, alpha).admissible


def test_taxonomy_log_obst_strict():
    assert _verdict("log", "obst", 0.9).admissible
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


# -- quadratic lower-bound certificate ----------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_certificate_holds_on_grid(kind):
    pot = make_potential(kind)
    eps_star, C = quadratic_lower_bound_certificate(pot)
    assert 0 < eps_star < 1
    grid = np.linspace(-5, 5, 4001)
    for eps in (eps_star, eps_star / 4):
        Fe, _, _ = eval_regularized(pot, eps, grid)
        assert np.all(Fe >= 0.25 * grid**2 - C + -1e-10)


def test_unknown_kind_rejected():
    with pytest.raises(InvalidArgument):
        make_potential("polynomial")


def test_log_value_matches_xlogy_reference():
    cp = make_potential("log").convex
    r = np.concatenate([np.linspace(-1.0, 1.0, 2001), [0.0, -1.0, 1.0, np.nextafter(1.0, 0.0)]])
    ref = 0.5 * cp.theta * (xlogy(1.0 + r, 1.0 + r) + xlogy(1.0 - r, 1.0 - r))
    np.testing.assert_allclose(cp.value(r), ref, rtol=0.0, atol=1e-15)
    assert cp.value(1.0) == pytest.approx(cp.theta * np.log(2.0), rel=1e-15)  # 0 log 0 = 0
    outside = np.array([-1.5, np.nextafter(-1.0, -2.0), np.nextafter(1.0, 2.0), 3.0])
    with np.errstate(all="raise"):  # no warning leaks from the unused branch
        assert np.all(cp.value(outside) == np.inf)
        assert cp.value(2.0) == np.inf


def test_cli_import_does_not_load_scipy_special():
    # the package needs no scipy.special; importing it costs memory and start-up time
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, bscch.cli; print('scipy.special' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
