import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

import bscch.assembly
import bscch.elliptic
import bscch.stepper
from bscch.assembly import (
    CouplingParams,
    FormsBundle,
    assemble_core,
    case_space,
    check_extension,
    from_triplets,
    load_extension,
    triplets,
)
from bscch.elliptic import (
    LU_DIAG_PIVOT_THRESH,
    LU_RELAX,
    BorderedSolver,
    InverseCoupledOperator,
    estimate_poincare_constant,
    manufactured_case,
    manufactured_errors,
    solve_coupled_poisson,
    splu,
)
from bscch.errors import InvalidArgument
from bscch.mesh import generate_disk_mesh
from bscch.potentials import Potential
from bscch.stepper import InitialDataSpec, RunParams, Stepper, initial_state
from oracles import as_scipy, prolongation, triple_product


@pytest.fixture(scope="module")
def mesh():
    return generate_disk_mesh(64, 16)


@pytest.fixture(scope="module")
def forms(mesh):
    return assemble_core(mesh)


def _mean_free_pair(forms, cp, rng):
    f = rng.standard_normal(forms.n_bulk)
    g = rng.standard_normal(forms.n_surf)
    if np.isinf(cp.L):
        f -= (forms.lump_bulk @ f) / forms.area
        g -= (forms.lump_surf @ g) / forms.perimeter
    else:
        total = cp.beta * (forms.lump_bulk @ f) + forms.lump_surf @ g
        shift = total / (cp.beta**2 * forms.area + forms.perimeter)
        f -= cp.beta * shift
        g -= shift
    return np.concatenate([f, g])


@pytest.mark.parametrize("L", [0.0, 1.0, np.inf])
def test_dual_norm_defining_identity(mesh, forms, L):
    # <S(x), S(x)>_{L,beta} = -<x, S(x)>_{L2} for 20 random mean-free pairs
    cp = CouplingParams(K=1.0, L=L, alpha=1.0, beta=1.0)
    op = InverseCoupledOperator(mesh, cp, forms=forms)
    rng = np.random.default_rng(42)
    for _ in range(20):
        x = _mean_free_pair(forms, cp, rng)
        s = op.apply(x)
        lhs = op.energy_product(s, s)
        rhs = x @ (forms.M_pair @ s)
        norm2 = x @ (forms.M_pair @ x)
        assert abs(lhs + rhs) <= 1e-9 * norm2


def test_inverse_operator_linearity(mesh, forms):
    cp = CouplingParams(K=1.0, L=1.0, alpha=1.0, beta=1.0)
    op = InverseCoupledOperator(mesh, cp, forms=forms)
    rng = np.random.default_rng(1)
    x = _mean_free_pair(forms, cp, rng)
    y = _mean_free_pair(forms, cp, rng)
    s1 = op.apply(2 * x - y)
    sx, sy = op.apply(x), op.apply(y)
    np.testing.assert_allclose(s1, 2 * sx - sy, atol=1e-11)


def test_non_mean_free_rejected(mesh, forms):
    cp = CouplingParams(K=1.0, L=1.0, alpha=1.0, beta=1.0)
    op = InverseCoupledOperator(mesh, cp, forms=forms)
    with pytest.raises(InvalidArgument):
        op.apply(np.ones(forms.n_bulk + forms.n_surf))


@pytest.mark.parametrize("surface", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_pair_rejected(mesh, forms, bad, surface):
    # the mean-free test alone passes them: abs(nan) > tol is False, and so is
    # inf > tol * inf, the tolerance scaling with the norm
    cp = CouplingParams(K=1.0, L=1.0, alpha=1.0, beta=1.0)
    op = InverseCoupledOperator(mesh, cp, forms=forms)
    pair = _mean_free_pair(forms, cp, np.random.default_rng(2))
    pair[forms.n_bulk * surface + 3] = bad
    with pytest.raises(InvalidArgument, match="non-finite entries in pair"):
        op.apply(pair)
    f, g = forms.split(pair)
    with pytest.raises(InvalidArgument, match="non-finite entries in pair"):
        solve_coupled_poisson(1.0, 1.0, f, g, forms=forms)


def test_inverse_operator_assembles_only_the_l_block(monkeypatch, mesh, forms):
    # the (L, beta) case alone: no B_K block that the operator never reads
    calls = []
    block = FormsBundle.coupling_block
    monkeypatch.setattr(FormsBundle, "coupling_block",
                        lambda self, w: calls.append(w) or block(self, w))
    InverseCoupledOperator(mesh, CouplingParams(K=1.0, L=1.0, alpha=0.8, beta=1.2), forms=forms)
    assert calls == [1.2]


def _bordered_matrix(monkeypatch):
    captured = []
    factor = bscch.elliptic.splu
    monkeypatch.setattr(bscch.elliptic, "splu", lambda A: captured.append(A) or factor(A))
    InverseCoupledOperator(generate_disk_mesh(32, 8),
                           CouplingParams(K=1.0, L=1.0, alpha=1.0, beta=1.0))
    (A,) = captured
    return A


def _newton_jacobian(monkeypatch):
    captured = []
    factor = bscch.stepper.splu
    monkeypatch.setattr(bscch.stepper, "splu", lambda J: captured.append(J) or factor(J))
    p = RunParams(tau=1e-4, t_final=1e-4, eps=0.05,
                  coupling=CouplingParams(K=0.0, L=1.0, alpha=0.5, beta=1.0),
                  pot_bulk=Potential("log"), pot_surf=Potential("log"),
                  init=InitialDataSpec(mode="random", mean=0.0, amplitude=0.2, seed=7))
    mesh = generate_disk_mesh(32, 8)
    stepper = Stepper(mesh, p)
    stepper.step(initial_state(mesh, p, stepper.forms))
    return captured[0]


def test_bordered_factor_is_accurate_and_sparse(monkeypatch):
    # one factor policy for the package: the stepper's Jacobian and the bordered systems
    assert bscch.stepper.splu is bscch.elliptic.splu
    A = _bordered_matrix(monkeypatch)
    lu = splu(A)
    b = np.random.default_rng(5).standard_normal(A.shape[0])
    assert np.linalg.norm(A @ lu.solve(b) - b) <= 1e-13 * np.linalg.norm(b)
    default = scipy.sparse.linalg.splu(as_scipy(A).tocsc())
    assert lu.L.nnz + lu.U.nnz <= 0.75 * (default.L.nnz + default.U.nnz)


@pytest.mark.parametrize("matrix", [_bordered_matrix, _newton_jacobian])
def test_splu_is_the_public_splu_with_the_package_options(monkeypatch, matrix):
    # splu calls scipy's SuperLU extension itself; the public splu is the reference
    record = matrix(monkeypatch)
    A = sp.csc_array(as_scipy(record))
    reference = scipy.sparse.linalg.splu(A, permc_spec="MMD_AT_PLUS_A",
                                         diag_pivot_thresh=LU_DIAG_PIVOT_THRESH, relax=LU_RELAX)
    rows, cols, vals = triplets(record)  # each entry given twice, as two exact halves
    halves = from_triplets(A.shape, (rows, cols, vals / 2), (rows, cols, vals / 2))
    b = np.random.default_rng(11).standard_normal(A.shape[0])
    for lu in (splu(record), splu(halves)):
        np.testing.assert_array_equal(lu.perm_r, reference.perm_r)
        np.testing.assert_array_equal(lu.perm_c, reference.perm_c)
        assert (lu.L.nnz, lu.U.nnz) == (reference.L.nnz, reference.U.nnz)
        assert lu.solve(b).tobytes() == reference.solve(b).tobytes()


@pytest.mark.parametrize("value,weight,mean_weight", [
    (1.0, 1.0, 1.0), (0.0, 0.8, 1.2), (0.0, -0.7, 3.0), (np.inf, 1.0, 1.0), (0.5, 1e5, 0.5)])
def test_bordered_matrix_bitwise_equal_to_scipy_bmat(monkeypatch, value, weight, mean_weight):
    # the CSC arrays handed to SuperLU against scipy's bmat of the reduced operator and C
    mesh = generate_disk_mesh(32, 8)
    forms = assemble_core(mesh)
    captured, superlu = [], bscch.elliptic._superlu
    monkeypatch.setattr(bscch.elliptic, "_superlu", SimpleNamespace(
        gstrf=lambda *args, **kw: captured.append(args) or superlu.gstrf(*args, **kw)))
    solver = BorderedSolver(forms, value, weight, mean_weight)
    space = case_space(forms, value, weight, mean_weight)
    A = triple_product(space, as_scipy(forms.A_pair) + as_scipy(space.block), space)
    C = sp.csr_matrix(np.column_stack([space.restrict(c) for c in solver.space.mean_rows]))
    ref = sp.bmat([[A, C], [C.T, None]], format="csc")
    ((n, nnz, data, indices, indptr),) = captured
    assert (n, nnz) == (ref.shape[0], ref.nnz)
    for got, name in ((data, "data"), (indices, "indices"), (indptr, "indptr")):
        assert got.tobytes() == getattr(ref, name).tobytes(), name


def test_moved_superlu_extension_fails_naming_it():
    # both extensions the package binds: SuperLU and the CSR kernels
    for name in ("scipy.sparse.linalg._dsolve._moved", "scipy.sparse._moved"):
        with pytest.raises(ImportError, match=name.replace(".", r"\.")) as raised:
            load_extension(name)
        assert raised.value.name == name


# each private function the package calls, its 2x2 self-check, and stand-ins for a
# scipy that changed it: other arguments, or other results
EXTENSION_CHECKS = {
    "csr_matvec": (bscch.assembly._sparsetools, bscch.assembly._matvec_gives_known_values,
                   lambda m, n, indptr, indices, data, x: data[:m] * x,  # returns, no output
                   lambda m, n, indptr, indices, data, x, out: None),  # leaves out at zero
    "gstrf": (bscch.elliptic._superlu, bscch.elliptic._factor_gives_known_values,
              lambda n, nnz, data, rows, indptr, options: None,  # no ilu, no constructor
              lambda *args, **kw: SimpleNamespace(solve=lambda b: b)),  # no factor at all
}


@pytest.mark.parametrize("function", sorted(EXTENSION_CHECKS))
def test_changed_extension_function_fails_naming_it(monkeypatch, function):
    module, probe, other_signature, other_values = EXTENSION_CHECKS[function]
    check_extension(module, function, probe)  # the installed scipy passes
    name = re.escape(f"{module.__name__}.{function}")
    for stand_in, message in ((other_signature, "does not take the package's call"),
                              (other_values, "gives wrong values on a 2x2 check")):
        monkeypatch.setattr(module, function, stand_in)
        with pytest.raises(ImportError, match=f"{name} {message}") as raised:
            check_extension(module, function, probe)
        assert raised.value.name == module.__name__


@pytest.mark.parametrize("K", [0.0, 1e-3, 0.5, 1.0, 2.0, 1e3, np.inf])
def test_mms_convergence_order(K):
    errors = manufactured_errors(K, mesh_sizes=((32, 8), (64, 16), (128, 32)))
    for e1, e2 in zip(errors, errors[1:]):
        assert e1 / e2 >= 3.4


def test_mms_exact_pair_satisfies_interface_condition():
    # Robin case: K d_n u* = alpha v* - u* on r=1, and the surface datum is
    # g = -Delta_Gamma v* + alpha d_n u* = 4 cos 2t + (alpha/K)(alpha v* - u*)
    t = np.linspace(0, 2 * np.pi, 17)
    x, y = np.cos(t), np.sin(t)
    for K in (1e-3, 0.5, 1.0, 2.0, 1e3):
        alpha, u_ex, v_ex, _, g_ex = manufactured_case(K)
        # central difference along the normal, exact for a quadratic at any step (here 1/2)
        d_n_u = u_ex(1.5 * x, 1.5 * y) - u_ex(0.5 * x, 0.5 * y)
        gap = alpha * v_ex(t) - u_ex(x, y)
        np.testing.assert_allclose(K * d_n_u, gap, rtol=0, atol=1e-14 * alpha)
        np.testing.assert_allclose(g_ex(t), 4.0 * np.cos(2 * t) + (alpha / K) * gap,
                                   rtol=0, atol=1e-14 * (1.0 + alpha / K))


def test_coupled_poisson_incompatible_data(mesh, forms):
    f = np.ones(forms.n_bulk)
    g = np.zeros(forms.n_surf)
    with pytest.raises(InvalidArgument):
        solve_coupled_poisson(np.inf, 1.0, f, g, forms=forms)


@pytest.mark.parametrize("K", [0.0, 1.0])
def test_poincare_inequality_and_mesh_stability(K):
    cps = []
    for nb, nr in [(32, 8), (64, 16)]:
        m = generate_disk_mesh(nb, nr)
        cps.append(estimate_poincare_constant(m, K, alpha=1.0, beta=1.0))
    assert abs(cps[0] - cps[1]) / cps[1] < 0.05

    m = generate_disk_mesh(32, 8)
    f = assemble_core(m)
    cp = CouplingParams(K=K, L=np.inf, alpha=1.0, beta=1.0)
    from bscch.assembly import build_case_spaces

    phase, _ = build_case_spaces(cp, f)
    P = prolongation(phase)
    A = (P.T @ (as_scipy(f.A_pair) + as_scipy(phase.block)) @ P).tocsr()
    M = (P.T @ as_scipy(f.M_pair) @ P).tocsr()
    c = P.T @ np.concatenate([f.lump_bulk, f.lump_surf])
    rng = np.random.default_rng(7)
    C_P = cps[0]
    for _ in range(100):
        x = rng.standard_normal(A.shape[0])
        x -= c * (c @ x) / (c @ c)
        l2 = np.sqrt(x @ (M @ x))
        energy = np.sqrt(x @ (A @ x))
        assert l2 <= C_P * energy * (1 + 1e-10)
