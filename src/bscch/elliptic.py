"""Bulk-surface elliptic solvers: the inverse coupled operator, the induced
dual norm, the coupled Poisson problem, and the Poincare constant.

Mean constraints are enforced with Lagrange multipliers (bordered sparse
systems, direct factorization), so the constraints hold to solver accuracy
and the same factorization serves every right-hand side.
"""

from __future__ import annotations

import numpy as np

from .assembly import (Csr, CouplingParams, FormsBundle, add, assemble_core, case_space,
                       check_extension, from_triplets, load_extension, reduce, triplets)
from .errors import InvalidArgument, SolverFailure
from .mesh import TriMesh, generate_disk_mesh

MEAN_TOL = 1e-10
# inverse power iteration of the Poincare constant: relative eigenvalue change
# at which it stops, its iteration cap and the seed of its start vector
POINCARE_TOL = 1e-8
POINCARE_MAX_ITER = 500
POINCARE_SEED = 0
# The package's one sparse LU: both factored systems (the bordered ones here,
# the stepper's Newton Jacobian) have a symmetric sparsity pattern, so it takes
# a minimum-degree ordering on A^T + A and prefers diagonal pivots down to
# this threshold times the column maximum.  Supernodes are not relaxed: SuperLU's
# default merges small subtrees into supernodes and stores the explicit zeros that
# adds (a fifth of the stored entries of the 64x16 Newton factor), which costs factor
# and solve time.
LU_DIAG_PIVOT_THRESH = 1e-3
LU_RELAX = 1
_superlu = load_extension("scipy.sparse.linalg._dsolve._superlu")


def splu(A: Csr):
    """``scipy.sparse.linalg.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=LU_DIAG_PIVOT_THRESH,
    relax=LU_RELAX)`` as its one call of the extension, on the CSC form of the square
    record ``A``: a stable sort by column keeps each column's rows ascending, as scipy's
    ``csr_tocsc``.  The factors L and U come back as records of their transposes (CSC
    arrays read as CSR)."""
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError("can only factor square matrices")
    order = np.argsort(A.indices, kind="stable")
    rows = np.repeat(np.arange(n, dtype=np.intc), np.diff(A.indptr))[order]
    indptr = np.searchsorted(A.indices[order], np.arange(n + 1)).astype(np.intc)
    options = dict(ColPerm="MMD_AT_PLUS_A", DiagPivotThresh=LU_DIAG_PIVOT_THRESH, Relax=LU_RELAX)
    return _superlu.gstrf(n, A.nnz, A.data[order], rows, indptr, ilu=False, options=options,
                          csc_construct_func=lambda arrays, shape: Csr(shape[::-1], *arrays))


def _factor_gives_known_values():
    """The factor of [[4, 1], [2, 3]] solves for [5, 5] to [1, 1]."""
    two_by_two = Csr((2, 2), np.array([4.0, 1.0, 2.0, 3.0]),
                     np.array([0, 1, 0, 1], dtype=np.int32), np.array([0, 2, 4], dtype=np.int32))
    x = splu(two_by_two).solve(np.array([5.0, 5.0]))
    return bool(np.abs(x - 1.0).max() <= 1e-15)


check_extension(_superlu, "gstrf", _factor_gives_known_values)


class BorderedSolver:
    """The energy form ``op`` = A_pair + ``space.block`` on ``space``, the case
    of one extended parameter ``value`` with trace weight ``weight``, under
    the space's mean constraints: the separate means at value = inf, else
    the ``mean_weight``-combined one.  ``A`` is the reduced P^T op P.  One
    LU factor of [[A, C], [C^T, 0]], C the restricted constraint rows as
    columns, serves every right-hand side; right-hand sides and solutions
    are full pair vectors."""

    def __init__(self, forms: FormsBundle, value, weight, mean_weight):
        self.forms = forms
        self.space = case_space(forms, value, weight, mean_weight)
        self.op = add(forms.A_pair, self.space.block)
        self.A = reduce(self.space, self.op, self.space)
        C = np.column_stack([self.space.restrict(c) for c in self.space.mean_rows])
        i, k = np.nonzero(C)  # its exact zeros left out, as scipy's sparse form of C
        ny = self.A.shape[0]
        bordered = from_triplets((ny + C.shape[1],) * 2, triplets(self.A),
                                 (i, ny + k, C[i, k]), (ny + k, i, C[i, k]))
        try:
            self.lu = splu(bordered)
        except RuntimeError as exc:
            raise SolverFailure(f"singular bordered system: {exc}") from exc

    def check_mean_free(self, rhs):
        """Reject a full pair right-hand side that is not finite or whose constraint
        integrals do not vanish."""
        if not np.all(np.isfinite(rhs)):  # a NaN mean would pass the test below
            raise InvalidArgument("non-finite entries in pair")
        scale = max(1.0, float(np.linalg.norm(rhs)))
        for c in self.space.mean_rows:
            m = c @ rhs
            if abs(m) > MEAN_TOL * scale:
                raise InvalidArgument(f"right-hand side is not mean-free (residual mean {m:.3e})")

    def solve_reduced(self, rhs):
        """Reduced solution for reduced right-hand side ``rhs``."""
        return self.lu.solve(np.concatenate([rhs, np.zeros(len(self.space.mean_rows))]))[: len(rhs)]

    def solve(self, rhs):
        """Full pair solution for full pair right-hand side ``rhs``."""
        return self.space.prolong(self.solve_reduced(self.space.restrict(rhs)))


class InverseCoupledOperator:
    """Discrete inverse of the coupled bulk-surface elliptic operator.

    Solves, for mean-free data (phi, psi), the system whose weak identity is
    <S(phi,psi), (zeta,xi)>_{L,beta} = -<(phi,psi), (zeta,xi)>_{L2}
    on the (L, beta) case space, returning the mean-free solution pair.
    Pairs are full pair vectors (bulk values, then surface values).
    """

    def __init__(self, mesh: TriMesh, cp: CouplingParams, forms: FormsBundle | None = None):
        forms = forms if forms is not None else assemble_core(mesh)
        self.solver = BorderedSolver(forms, cp.L, cp.beta, cp.beta)

    def apply(self, pair):
        self.solver.check_mean_free(pair)
        return self.solver.solve(-(self.solver.forms.M_pair @ pair))

    def energy_product(self, p1, p2):
        """<p1, p2>_{L,beta} with the assembled form."""
        return float(p1 @ (self.solver.op @ p2))

    def dual_norm(self, pair) -> float:
        s = self.apply(pair)
        val = self.energy_product(s, s)
        return float(np.sqrt(max(val, 0.0)))


def solve_coupled_poisson(K, alpha, f, g, forms: FormsBundle):
    """Discrete weak solution of the coupled Poisson system.

    Solves <(u,v), (zeta,xi)>_{K,alpha} = <(f,g), (zeta,xi)>_{L2} on the
    (K, alpha) case space, under the compatibility condition on the data
    (combined for K finite, separate means for the Neumann endpoint).  The
    returned pair (u, v) has zero generalized mean(s).
    """
    f, g = np.asarray(f, dtype=float), np.asarray(g, dtype=float)
    if f.shape != (forms.n_bulk,) or g.shape != (forms.n_surf,):
        raise InvalidArgument("data length does not match mesh")
    solver = BorderedSolver(forms, float(K), alpha, alpha)
    data = np.concatenate([f, g])
    solver.check_mean_free(data)
    return forms.split(solver.solve(forms.M_pair @ data))


def check_poincare_K(K):
    """Reject K = inf: the Poincare constant is defined for finite K."""
    if np.isinf(K):
        raise InvalidArgument("Poincare constant is defined for K in [0, inf)")


def estimate_poincare_constant(mesh: TriMesh, K, alpha, beta) -> float:
    """Discrete Poincare constant 1/sqrt(lambda_min).

    lambda_min is the smallest eigenvalue of the (K, alpha) energy form
    relative to the L2 pair inner product, restricted to pairs with zero
    beta-weighted combined mean, computed by inverse power iteration.
    """
    K = float(K)
    check_poincare_K(K)
    forms = assemble_core(mesh)
    solver = BorderedSolver(forms, K, alpha, beta)
    A_red, M_red = solver.A, reduce(solver.space, forms.M_pair, solver.space)
    c = solver.space.restrict(solver.space.mean_rows[0])

    rng = np.random.default_rng(POINCARE_SEED)
    x = rng.standard_normal(A_red.shape[0])
    x -= c * (c @ x) / (c @ c)
    lam_old = np.inf
    for _ in range(POINCARE_MAX_ITER):
        y = solver.solve_reduced(M_red @ x)
        norm = float(np.sqrt(y @ (M_red @ y)))
        if norm == 0.0:
            raise SolverFailure("inverse iteration collapsed to zero")
        x = y / norm
        lam = float(x @ (A_red @ x)) / float(x @ (M_red @ x))
        if abs(lam - lam_old) <= POINCARE_TOL * abs(lam):
            if lam <= 0:
                raise SolverFailure("nonpositive smallest eigenvalue")
            return 1.0 / np.sqrt(lam)
        lam_old = lam
    raise SolverFailure(f"inverse power iteration did not converge in {POINCARE_MAX_ITER} iterations")


# -- manufactured solutions -------------------------------------------------

def manufactured_case(K):
    """Exact solution/data callables for the coupled Poisson problem.

    Returns (alpha, u(x, y), v(angle), f(x, y), g(angle)).  Each case is
    constructed so that the interface condition of the chosen K holds
    identically for the exact pair.
    """
    if np.isinf(K):
        # pure Neumann: d_n u* = 0 on r = 1
        return (
            1.0,
            lambda x, y: (x * x + y * y - 1.0) ** 2,
            lambda a: np.cos(2.0 * a),
            lambda x, y: -(16.0 * (x * x + y * y) - 8.0),
            lambda a: 4.0 * np.cos(2.0 * a),
        )
    if K == 0.0:
        # Dirichlet trace u*|_Gamma = alpha v* with alpha = 1
        return (
            1.0,
            lambda x, y: x * x - y * y,
            lambda a: np.cos(2.0 * a),
            lambda x, y: np.zeros_like(x),
            lambda a: 6.0 * np.cos(2.0 * a),
        )
    # Robin with alpha = 3 and u* = c (x^2 - y^2), c = alpha / (1 + 2K): at r = 1
    # K d_n u* = 2cK cos 2t = (alpha - c) cos 2t = alpha v* - u*, and g = 4 cos 2t + alpha d_n u*
    alpha = 3.0
    c = alpha / (1.0 + 2.0 * K)
    return (
        alpha,
        lambda x, y: c * (x * x - y * y),
        lambda a: np.cos(2.0 * a),
        lambda x, y: np.zeros_like(x),
        lambda a: (4.0 + 2.0 * alpha * c) * np.cos(2.0 * a),
    )


def manufactured_errors(K, mesh_sizes=((32, 8), (64, 16), (128, 32))):
    """Combined L2 errors of the coupled Poisson solve against the exact pair.

    The discrete solution is normalized into the mean gauge of the exact
    pair before the error is measured (the operator fixes its own gauge
    through the solvability constraints).
    """
    K = float(K)
    alpha, u_ex, v_ex, f_ex, g_ex = manufactured_case(K)
    errors = []
    for nb, nr in mesh_sizes:
        mesh = generate_disk_mesh(nb, nr)
        forms = assemble_core(mesh)
        x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
        ang = np.arctan2(
            mesh.vertices[mesh.boundary_loop, 1], mesh.vertices[mesh.boundary_loop, 0]
        )
        space, data = case_space(forms, K, alpha, alpha), np.concatenate([f_ex(x, y), g_ex(ang)])
        if np.isinf(K):
            # the continuous means vanish; remove the quadrature defect
            data -= space.means(data)
        u, v = solve_coupled_poisson(K, alpha, *forms.split(data), forms=forms)
        diff = np.concatenate([u - u_ex(x, y), v - v_ex(ang)])
        # separate gauges at K = inf, else the kernel along (alpha, 1): match the means
        du, dv = forms.split(diff - space.means(diff))
        err = np.sqrt(du @ (forms.M_bulk @ du) + dv @ (forms.M_surf @ dv))
        errors.append(float(err))
    return errors
