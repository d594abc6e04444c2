import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from bscch.assembly import (
    CouplingParams,
    Mobility,
    VelocityField,
    add,
    assemble_convection,
    assemble_core,
    assemble_mobility_stiffness,
    build_case_spaces,
    case_space,
    reduce,
    sigma,
)
from bscch.errors import InvalidArgument
from bscch.mesh import TriMesh, generate_disk_mesh
from bscch.potentials import Potential
from bscch.stepper import RunParams, Stepper, initial_state
from oracles import as_scipy, means_reference, prolongation, triple_product


@pytest.fixture(scope="module")
def mesh():
    return generate_disk_mesh(32, 8)


@pytest.fixture(scope="module")
def forms(mesh):
    return assemble_core(mesh)


def test_sigma_values():
    assert sigma(0.0) == 0.0
    assert sigma(np.inf) == 0.0
    assert sigma(2.0) == pytest.approx(0.5, rel=1e-15)
    assert sigma(0.25) == pytest.approx(4.0, rel=1e-15)


def test_coupling_params_validation():
    with pytest.raises(InvalidArgument):
        CouplingParams(K=-1.0, L=1.0, alpha=1.0, beta=1.0)
    # alpha*beta*|Omega| + |Gamma| = 0 is the degenerate measure combination
    cp = CouplingParams(K=1.0, L=1.0, alpha=1.0, beta=1.0)
    assert sigma(cp.K) == 1.0 and sigma(cp.L) == 1.0


def test_stiffness_annihilates_constants(forms):
    one_b = np.ones(forms.n_bulk)
    one_s = np.ones(forms.n_surf)
    assert np.abs(forms.A_bulk @ one_b).max() < 1e-13
    assert np.abs(forms.A_surf @ one_s).max() < 1e-13


def test_mass_matrices_integrate_one(mesh, forms):
    one_b = np.ones(forms.n_bulk)
    one_s = np.ones(forms.n_surf)
    assert one_b @ (forms.M_bulk @ one_b) == pytest.approx(forms.area, rel=1e-14)
    assert one_s @ (forms.M_surf @ one_s) == pytest.approx(forms.perimeter, rel=1e-14)
    # odd moments vanish by symmetry of the polar mesh
    x = mesh.vertices[:, 0]
    assert abs(one_b @ (forms.M_bulk @ x)) < 1e-13


def test_bulk_stiffness_linear_exact(mesh, forms):
    # energy of u = x is area: int |grad x|^2 = |Omega|
    u = mesh.vertices[:, 0]
    assert u @ (forms.A_bulk @ u) == pytest.approx(forms.area, rel=1e-13)


def test_lumped_masses_match_row_sums(forms):
    np.testing.assert_allclose(forms.lump_bulk,
                               np.asarray(as_scipy(forms.M_bulk).sum(axis=1)).ravel(),
                               rtol=0, atol=1e-15)
    assert forms.lump_bulk.sum() == pytest.approx(forms.area, rel=1e-14)


def test_constant_mobility_reduces_to_stiffness(mesh, forms):
    phi, psi = np.linspace(-0.5, 0.5, forms.n_bulk), np.linspace(-0.5, 0.5, forms.n_surf)
    mob = Mobility(kind="constant", m0=2.5)
    K, K_s = assemble_mobility_stiffness(mesh, mob, phi, mob, psi)
    assert abs(as_scipy(K) - 2.5 * as_scipy(forms.A_bulk)).max() < 1e-13
    assert abs(as_scipy(K_s) - 2.5 * as_scipy(forms.A_surf)).max() < 1e-13


def test_degenerate_mobility_at_pure_phase(mesh, forms):
    # m(+-1) = m0: degenerate part vanishes at the pure states
    phi, psi = np.ones(forms.n_bulk), -np.ones(forms.n_surf)
    mob = Mobility(kind="degenerate", m0=1.0, m1=3.0)
    K, K_s = assemble_mobility_stiffness(mesh, mob, phi, mob, psi)
    assert abs(as_scipy(K) - as_scipy(forms.A_bulk)).max() < 1e-13
    assert abs(as_scipy(K_s) - as_scipy(forms.A_surf)).max() < 1e-13


def test_surface_mobility_block(mesh, forms):
    # each block takes its own mobility: the unit one in the bulk, 2 on the surface
    psi = np.zeros(forms.n_surf)
    K_b, K = assemble_mobility_stiffness(mesh, Mobility(), np.zeros(forms.n_bulk),
                                         Mobility(kind="degenerate", m0=1.0, m1=1.0), psi)
    assert abs(as_scipy(K) - 2.0 * as_scipy(forms.A_surf)).max() < 1e-13
    np.testing.assert_array_equal(K_b.data, forms.A_bulk.data)


def test_surface_stiffness_without_interior_vertex_is_the_arclength_laplacian():
    # the unit square cut into two triangles: every vertex is on the boundary (n = b)
    square = TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                     np.array([[0, 1, 2], [0, 2, 3]]), np.arange(4))
    forms = assemble_core(square)
    h, b = square.geometry.lengths, square.n_boundary
    laplacian = np.zeros((b, b))
    for k in range(b):  # edge k joins loop positions k and k + 1 (mod b)
        ends = [k, (k + 1) % b]
        laplacian[np.ix_(ends, ends)] += np.array([[1.0, -1.0], [-1.0, 1.0]]) / h[k]
    np.testing.assert_array_equal(as_scipy(forms.A_surf).toarray(), laplacian)
    assert not np.array_equal(as_scipy(forms.A_bulk).toarray(), laplacian)


@pytest.mark.parametrize("fields", ["swapped", "bulk short", "surface long", "two-dimensional"])
def test_mobility_fields_of_the_wrong_shape_are_refused(mesh, fields):
    n, b, mob = mesh.n_vertices, mesh.n_boundary, Mobility()
    phi, psi = {"swapped": (np.zeros(b), np.zeros(n)), "bulk short": (np.zeros(n - 1), np.zeros(b)),
                "surface long": (np.zeros(n), np.zeros(b + 1)),
                "two-dimensional": (np.zeros((n, 1)), np.zeros(b))}[fields]
    with pytest.raises(InvalidArgument, match="mobility fields"):
        assemble_mobility_stiffness(mesh, mob, phi, mob, psi)


@settings(max_examples=50, deadline=None)
@given(s=st.floats(min_value=-2, max_value=2))
def test_mobility_bounds(s):
    mob = Mobility(kind="degenerate", m0=0.5, m1=2.0)
    assert 0.5 - 1e-15 <= mob(s) <= 2.5 + 1e-15


def test_convection_mass_neutral(mesh):
    vel = VelocityField(bulk_kind="rigid_rotation", omega=1.3,
                        surf_kind="rotation", speed=0.7)
    C_b, C_s = assemble_convection(mesh, vel)
    one_b = np.ones(C_b.shape[0])
    one_s = np.ones(C_s.shape[0])
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(C_b.shape[0])
    psi = rng.standard_normal(C_s.shape[0])
    # 1^T C = 0: transport moves mass around, never creates it
    assert abs(one_b @ (C_b @ phi)) < 1e-12
    assert abs(one_s @ (C_s @ psi)) < 1e-12


def test_convection_radial_orthogonality_converges():
    # rigid rotation is orthogonal to radial gradients: mu = r^2 test field
    errs = []
    for nb, nr in [(32, 8), (64, 16)]:
        mesh = generate_disk_mesh(nb, nr)
        vel = VelocityField(bulk_kind="rigid_rotation", omega=1.0)
        C_b, _ = assemble_convection(mesh, vel)
        r4 = (mesh.vertices**2).sum(axis=1) ** 2
        phi = np.exp(mesh.vertices[:, 0])
        errs.append(abs(r4 @ (C_b @ phi)))
    assert errs[0] / errs[1] > 3.0


def test_case_space_dirichlet_phase_constraint(mesh, forms):
    cp = CouplingParams(K=0.0, L=1.0, alpha=2.0, beta=1.0)
    phase, _ = build_case_spaces(cp, forms)
    rng = np.random.default_rng(0)
    P = prolongation(phase)
    x_red = rng.standard_normal(P.shape[1])
    full = P @ x_red
    phi, psi = full[: forms.n_bulk], full[forms.n_bulk :]
    np.testing.assert_allclose(phi[mesh.boundary_loop], cp.alpha * psi, atol=1e-14)


def _loop_prolongation(mesh, dirichlet, weight):
    """Dense reference prolongation, built entry by entry."""
    n, b = mesh.n_vertices, mesh.n_boundary
    if not dirichlet:
        return np.eye(n + b)
    boundary = set(mesh.boundary_loop.tolist())
    interior = [v for v in range(n) if v not in boundary]
    P = np.zeros((n + b, len(interior) + b))
    for r, v in enumerate(interior):
        P[v, r] = 1.0
    for pos, v in enumerate(mesh.boundary_loop):
        P[v, len(interior) + pos] = weight
        P[n + pos, len(interior) + pos] = 1.0
    return P


@pytest.mark.parametrize("K,L", list(itertools.product((0.0, 1.0, np.inf), repeat=2)))
def test_case_space_restriction_inverts_prolongation(mesh, forms, K, L):
    rng = np.random.default_rng(1)
    # weights that are not exact in binary, and zero weights (rows of scale 0)
    for alpha, beta in ((0.8, 1.2), (0.0, 0.0)):
        phase, chem = build_case_spaces(CouplingParams(K=K, L=L, alpha=alpha, beta=beta), forms)
        for space, dirichlet, weight in ((phase, K == 0.0, alpha), (chem, L == 0.0, beta)):
            P = prolongation(space)
            assert np.array_equal(P.toarray(), _loop_prolongation(mesh, dirichlet, weight))
            x = rng.standard_normal(P.shape[1])
            assert np.array_equal((P @ x)[space.idx], x)
            # the row form is bitwise the sparse product in both directions and
            # for the lumped diagonal, signed zeros included
            x[::7] = -0.0
            assert space.prolong(x).tobytes() == (P @ x).tobytes()
            v = rng.standard_normal(P.shape[0])
            v[::7] = -0.0
            assert space.restrict(v).tobytes() == (P.T @ v).tobytes()
            assert space.lumped(v).tobytes() == (P.T @ sp.diags(v) @ P).diagonal().tobytes()


def test_coupling_block_kernel(mesh, forms):
    cp = CouplingParams(K=2.0, L=np.inf, alpha=1.5, beta=1.0)
    phase, _ = build_case_spaces(cp, forms)
    psi = np.cos(3 * np.linspace(0, 2 * np.pi, forms.n_surf, endpoint=False))
    phi = np.zeros(forms.n_bulk)
    phi[mesh.boundary_loop] = cp.alpha * psi
    x = np.concatenate([phi, psi])
    # compliant pairs are in the kernel of the Robin penalty block
    assert np.abs(phase.block @ x).max() < 1e-13


@pytest.mark.parametrize("weight", [0.0, 0.8, 1.2])
def test_pairing_helpers_bitwise_equal_to_the_formulas_they_replace(mesh, forms, weight):
    rng = np.random.default_rng(11)
    u, v = rng.standard_normal(forms.n_bulk), rng.standard_normal(forms.n_surf)
    mb, ms = forms.lump_bulk, forms.lump_surf

    def same(a, b):
        return np.asarray(a).tobytes() == np.asarray(b).tobytes()

    # the boundary mismatch of the K energy term, the Robin gap and the K-limit gap
    gap = weight * v - u[forms.loop]
    assert same(forms.mismatch_sq(u, v, weight), float(gap @ (forms.M_surf @ gap)))
    # the pair lumping of the stepper and the constraint columns of the bordered solver
    assert same(forms.lump_pair, np.concatenate([mb, ms]))
    cols = case_space(forms, np.inf, weight, weight).mean_rows
    assert same(cols[0], np.concatenate([mb, np.zeros(forms.n_surf)]))
    assert same(cols[1], np.concatenate([np.zeros(forms.n_bulk), ms]))
    (col,) = case_space(forms, 1.0, weight, weight).mean_rows
    assert same(col, np.concatenate([weight * mb, ms]))
    # the separate centring and the combined gauge of the manufactured-solution errors: the
    # record divides by its rows' sums, the reference by |Omega| and |Gamma|
    x, scale = np.concatenate([u, v]), max(np.abs(u).max(), np.abs(v).max())
    for separate in (True, False):
        space = case_space(forms, np.inf if separate else 1.0, weight, weight)
        c_b, c_s = forms.split(space.means(x))
        ref_b, ref_s = means_reference(forms, u, v, weight, separate)
        assert np.abs(c_b - ref_b).max() <= 8 * np.spacing(scale)
        assert np.abs(c_s - ref_s).max() <= 8 * np.spacing(scale)
        # the constant pair carries the means: what is left has zero constraint integrals
        rest = x - space.means(x)
        for c in space.mean_rows:
            assert abs(c @ rest) <= 1e-13 * np.abs(c).sum() * np.abs(rest).max()


@pytest.mark.parametrize("value", [0.0, 1.0, np.inf])
@pytest.mark.parametrize("weight", [0.0, -0.8, 1.2])
def test_case_space_means_are_constant_on_each_block(forms, value, weight):
    x = np.random.default_rng(5).standard_normal(forms.n_bulk + forms.n_surf)
    c_b, c_s = forms.split(case_space(forms, value, weight, weight).means(x))
    assert np.all(c_b == c_b[0]) and np.all(c_s == c_s[0])
    if not np.isinf(value):  # the combined mean m is carried by (weight * m, m)
        assert c_b[0] == weight * c_s[0]


@pytest.mark.parametrize("value", [0.0, 1.0, np.inf])
def test_case_space_mean_rows_are_the_lumped_integrals(forms, value):
    # separate bulk and surface integrals at the Neumann end, else the combined mean
    mean_weight, mb, ms = 1.3, forms.lump_bulk, forms.lump_surf
    zb, zs = np.zeros(forms.n_bulk), np.zeros(forms.n_surf)
    expected = ([np.concatenate([mb, zs]), np.concatenate([zb, ms])] if np.isinf(value)
                else [np.concatenate([mean_weight * mb, ms])])
    rows = case_space(forms, value, 0.8, mean_weight).mean_rows
    assert rows.shape == (len(expected), forms.n_bulk + forms.n_surf)
    assert [r.tobytes() for r in rows] == [e.tobytes() for e in expected]


def test_case_space_refuses_a_vanishing_combined_mean(forms):
    # beta = -|Gamma| / |Omega| at alpha = 1: the constant pairs (1, 1) have zero combined mean
    beta, message = -forms.perimeter / forms.area, r"alpha\*beta\*\|Omega\| \+ \|Gamma\|"
    for value in (0.0, 1.0, np.inf):
        with pytest.raises(InvalidArgument, match=message):
            case_space(forms, value, 1.0, beta)
    with pytest.raises(InvalidArgument, match=message):
        build_case_spaces(CouplingParams(K=1.0, L=1.0, alpha=1.0, beta=beta), forms)
    # the chem case's beta^2 |Omega| + |Gamma| is positive: refused for the phase case only
    case_space(forms, 1.0, beta, beta)
    build_case_spaces(CouplingParams(K=1.0, L=1.0, alpha=-1.0, beta=beta), forms)


def test_velocity_ramp():
    vel = VelocityField(bulk_kind="rigid_rotation", omega=2.0, ramp=0.5)
    assert vel.factor(0.0) == 0.0
    assert vel.factor(0.25) == pytest.approx(0.5)
    assert vel.factor(10.0) == 1.0


def test_reduce_between_full_spaces_is_the_operator(mesh, forms):
    # L > 0 and K > 0: both case spaces are the full pair space
    phase, chem = build_case_spaces(CouplingParams(K=1.0, L=1.0, alpha=1.0, beta=1.0), forms)
    for op in (forms.M_pair, add(forms.A_pair, phase.block)):
        reduced = reduce(chem, op, phase)
        assert reduced is op
        triple = (prolongation(chem).T @ as_scipy(op) @ prolongation(phase)).tocsr()
        triple.sort_indices()
        np.testing.assert_array_equal(reduced.indptr, triple.indptr)
        np.testing.assert_array_equal(reduced.indices, triple.indices)
        np.testing.assert_array_equal(reduced.data, triple.data)


def test_mobility_stiffness_on_fixed_pattern_matches_coo_scatter(mesh):
    # reference: sum the local matrices through COO, as a general assembler would
    g, n, b = mesh.geometry, mesh.n_vertices, mesh.n_boundary
    mob = Mobility(kind="degenerate", m0=0.5, m1=2.0)
    rng = np.random.default_rng(3)
    phi, psi = rng.uniform(-1.2, 1.2, n), rng.uniform(-1.2, 1.2, b)
    tri, pe = mesh.triangles, g.edge_pos
    bulk = (mob(phi[tri].mean(axis=1)) * g.areas)[:, None, None] * g.gdot
    surf = (mob(0.5 * (psi[pe[:, 0]] + psi[pe[:, 1]])) / g.lengths)[:, None, None] \
        * np.array([[1.0, -1.0], [-1.0, 1.0]])
    pair = assemble_mobility_stiffness(mesh, mob, phi, mob, psi)
    for K, elements, local, size in zip(pair, (tri, pe), (bulk, surf), (n, b)):
        k = elements.shape[1]
        rows, cols = np.repeat(elements, k, axis=1), np.tile(elements, (1, k))
        ref = sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())), shape=(size, size))
        got = as_scipy(K)
        assert got.has_sorted_indices and got.shape == (size, size)
        diff = np.abs((got - ref.tocsr()).toarray()).max()
        assert diff <= 1e-14 * np.abs(got.data).max()


@pytest.mark.parametrize("alpha", [0.0, 0.8, 1.0])
def test_coupling_block_bitwise_equal_to_triple_products(forms, alpha):
    b, n = forms.n_surf, forms.n_bulk
    R = sp.csr_matrix((np.ones(b), (np.arange(b), forms.loop)), shape=(b, n))
    Ms = as_scipy(forms.M_surf)
    top = sp.hstack([R.T @ Ms @ R, -alpha * (R.T @ Ms)])
    bot = sp.hstack([-alpha * (Ms @ R), alpha**2 * Ms])
    ref = sp.vstack([top, bot]).tocsr()
    got = forms.coupling_block(alpha)
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name


# -- the package's sparse records against scipy, bit for bit ---------------------

def _bitwise(got, ref):
    """Whether the record ``got`` stores exactly the arrays of the scipy matrix ``ref``."""
    ref = sp.csr_matrix(ref)
    return got.shape == ref.shape and all(
        getattr(got, name).tobytes() == getattr(ref, name).tobytes()
        for name in ("indptr", "indices", "data"))


# (K, L) with every case family, and weights: equal, not exact in binary with
# alpha != beta, zero, negative and large
REDUCE_WEIGHTS = [(1.0, 1.0), (0.8, 1.2), (0.0, 0.0), (-0.7, 3.0), (1e5, 0.5)]


@pytest.mark.parametrize("alpha,beta", REDUCE_WEIGHTS)
@pytest.mark.parametrize("K,L", list(itertools.product((0.0, 1.0, np.inf, 0.5), repeat=2)))
def test_reduce_bitwise_equal_to_scipy_triple_product(mesh, forms, K, L, alpha, beta):
    phase, chem = build_case_spaces(CouplingParams(K=K, L=L, alpha=alpha, beta=beta), forms)
    A_K, A_L = add(forms.A_pair, phase.block), add(forms.A_pair, chem.block)
    # every reduction of the stepper, the bordered solvers and the Poincare iteration
    for test, op, trial in ((phase, A_K, phase), (chem, A_L, chem), (chem, chem.block, chem),
                            (chem, forms.M_pair, phase), (phase, forms.M_pair, chem),
                            (phase, forms.M_pair, phase)):
        ref = triple_product(test, as_scipy(op), trial)
        assert _bitwise(reduce(test, op, trial), ref)


@pytest.mark.parametrize("K", [1.0, np.inf])
def test_pruned_sum_bitwise_equal_to_scipy_sum(mesh, forms, K):
    # at K = inf the coupling block is empty: the sum only drops A_pair's stored zeros
    phase, _ = build_case_spaces(CouplingParams(K=K, L=1.0, alpha=0.8, beta=1.0), forms)
    assert np.count_nonzero(forms.A_pair.data == 0) > 0
    assert (phase.block.nnz == 0) == np.isinf(K)
    assert _bitwise(add(forms.A_pair, phase.block), as_scipy(forms.A_pair) + as_scipy(phase.block))


def test_pair_blocks_bitwise_equal_to_scipy_block_diag(forms):
    for pair, bulk, surf in ((forms.M_pair, forms.M_bulk, forms.M_surf),
                             (forms.A_pair, forms.A_bulk, forms.A_surf)):
        assert _bitwise(pair, sp.block_diag([as_scipy(bulk), as_scipy(surf)], format="csr"))


def test_lumped_diagonals_bitwise_equal_to_scipy_row_sums(forms):
    # the center row of the polar mesh holds 33 entries, where numpy sums pairwise
    assert np.diff(forms.M_bulk.indptr).max() > 8
    for lumped, M in ((forms.lump_bulk, forms.M_bulk), (forms.lump_surf, forms.M_surf)):
        assert lumped.tobytes() == np.asarray(as_scipy(M).sum(axis=1)).ravel().tobytes()


def test_matvec_bitwise_equal_to_scipy(mesh, forms):
    p = RunParams(tau=1e-4, t_final=1e-4, eps=0.05,
                  coupling=CouplingParams(K=0.0, L=1.0, alpha=0.8, beta=1.0),
                  pot_bulk=Potential("log"), pot_surf=Potential("log"))
    stepper = Stepper(mesh, p, forms)
    stepper.step(initial_state(mesh, p, forms))
    rng = np.random.default_rng(4)
    for A in (stepper.system.J0, stepper.A_K, forms.M_surf,
              reduce(stepper.chem, forms.M_pair, stepper.phase)):
        x = rng.standard_normal(A.shape[1])
        x[::5] = -0.0
        assert (A @ x).tobytes() == (as_scipy(A) @ x).tobytes()
    with pytest.raises(ValueError, match="dimension mismatch"):
        forms.M_surf @ np.ones(forms.n_bulk)
