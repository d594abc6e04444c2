"""P1 finite-element assembly on the bulk triangulation and boundary polygon.

Operators act on nodal coefficient vectors.  Bulk matrices are indexed by
vertex; surface matrices by position along the boundary loop.  Pair vectors
concatenate (bulk, surface) blocks.  The case-dependent trial/test space
reductions (Dirichlet couplings K=0 / L=0) are realized by the rows of a
prolongation that slave boundary bulk values to surface values, so
constraints hold exactly.
Operators are ``Csr`` records, applied by scipy's compiled CSR kernel.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import InvalidArgument
from .mesh import CsrPattern, TriMesh, csr_pattern

# Largest trace weight: its cube, the highest power of a weight the package
# forms, stays a finite double.
WEIGHT_MAX = sys.float_info.max ** (1 / 3)


def load_extension(name):
    """scipy's compiled module ``name``, loaded from its file under its own name: importing
    any scipy package would also import scipy's array-API layer and test utilities, about
    45 ms and 5 MB per process.  The names are private (checked with scipy 1.17.1); a scipy
    that moves one fails here, at ``import bscch``, with an ImportError naming it."""
    if name in sys.modules:
        return sys.modules[name]
    top, *middle, _ = name.split(".")
    root = importlib.util.find_spec(top)  # a top-level name: finds scipy without importing it
    folder = os.path.join(root.submodule_search_locations[0], *middle) if root else top
    loaders = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    spec = importlib.machinery.FileFinder(folder, loaders).find_spec(name)
    if spec is None:
        raise ImportError(f"no {name} extension in {folder}", name=name)
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_extension(module, function, probe):
    """Run ``probe()``, which calls ``module.<function>`` as the package does on a 2x2
    case and says whether it gave the known values.  Called at import, it turns a scipy
    whose private function changed its signature or results into an ImportError naming
    the function, instead of a bare TypeError at the first factor or matvec."""
    name = f"{module.__name__}.{function}"
    try:
        ok = probe()
    except (AttributeError, TypeError, ValueError) as exc:
        raise ImportError(f"{name} does not take the package's call: {exc}",
                          name=module.__name__) from None
    if not ok:
        raise ImportError(f"{name} gives wrong values on a 2x2 check", name=module.__name__)


_sparsetools = load_extension("scipy.sparse._sparsetools")


@dataclass(frozen=True, eq=False)
class Csr:
    """An m x n sparse matrix as the arrays of scipy's CSR form; ``A @ x`` on a 1-D
    float64 vector calls scipy's ``csr_matvec`` kernel into zeros, as scipy's does."""

    shape: tuple
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @property
    def nnz(self):
        return int(self.indptr[-1])

    def __matmul__(self, x):
        m, n = self.shape
        if x.shape != (n,):
            raise ValueError(f"matmul: dimension mismatch, {self.shape} @ {x.shape}")
        out = np.zeros(m)
        _sparsetools.csr_matvec(m, n, self.indptr, self.indices, self.data, x, out)
        return out


def _matvec_gives_known_values():
    """[[2, 1], [0, 3]] @ [1, 2] == [4, 6] through ``Csr.__matmul__``."""
    two_by_two = Csr((2, 2), np.array([2.0, 1.0, 3.0]), np.array([0, 1, 1], dtype=np.int32),
                     np.array([0, 2, 3], dtype=np.int32))
    return (two_by_two @ np.array([1.0, 2.0])).tolist() == [4.0, 6.0]


check_extension(_sparsetools, "csr_matvec", _matvec_gives_known_values)


def scatter(pattern: CsrPattern, vals):
    """The matrix summing the local entries ``vals`` into ``pattern``; where every slot
    takes one entry, their copy (a sum from +0.0 would make a -0.0 entry +0.0)."""
    vals, slot = np.ravel(vals), pattern.slot
    data = (vals[np.argsort(slot)] if len(slot) == len(pattern.indices)
            else np.bincount(slot, weights=vals, minlength=len(pattern.indices)))
    return Csr(pattern.shape, data, pattern.indices, pattern.indptr)


def triplets(A: Csr, row0=0, col0=0):
    """(rows, cols, values) of the stored entries of ``A``, shifted by (row0, col0)."""
    rows = np.repeat(np.arange(row0, row0 + A.shape[0]), np.diff(A.indptr))
    return rows, col0 + A.indices, A.data


def from_triplets(shape, *parts):
    """The matrix summing the entries of the (rows, cols, values) ``parts``, stored zeros
    kept: scipy's COO conversion, so also its ``block_diag`` and ``bmat``."""
    rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
    return scatter(csr_pattern(rows, cols, shape), vals)


def empty(shape):
    """The matrix of ``shape`` with no stored entry."""
    return from_triplets(shape, ((), (), ()))


def block_diag(A: Csr, B: Csr):
    """scipy's ``block_diag([A, B], format="csr")``."""
    (m, n), (p, q) = A.shape, B.shape
    return from_triplets((m + p, n + q), triplets(A), triplets(B, m, n))


def prune(A: Csr):
    """``A`` without its stored exact zeros, as scipy's sums and products leave them out."""
    keep = A.data != 0
    indptr = np.concatenate([[0], np.cumsum(keep)])[A.indptr].astype(np.int32)
    return Csr(A.shape, A.data[keep], A.indices[keep], indptr)


def add(A: Csr, B: Csr):
    """A + B as scipy's sparse sum."""
    return prune(from_triplets(A.shape, triplets(A), triplets(B)))


def row_sums(A: Csr):
    """The row sums as scipy's ``A.sum(axis=1)`` forms them, row by row in stored order."""
    out, rows = np.zeros(A.shape[0]), np.flatnonzero(np.diff(A.indptr))
    out[rows] = np.add.reduceat(A.data, A.indptr[rows])
    return out


def sigma(value):
    """Case weight: 1/x on (0,inf), 0 at the Dirichlet/Neumann endpoints."""
    v = float(value)
    check_extended("extended parameter", v)
    if v == 0.0 or math.isinf(v):
        return 0.0
    return 1.0 / v


def check_extended(name, value):
    """Reject an extended parameter ``name`` outside [0, inf]."""
    if not value >= 0:  # also rejects nan
        raise InvalidArgument(f"{name} must be in [0, inf], got {value}")


def check_weight(name, value):
    """Reject a trace weight ``name`` that is not finite or exceeds WEIGHT_MAX in modulus."""
    if not abs(value) <= WEIGHT_MAX:  # also rejects nan
        raise InvalidArgument(f"{name} must be finite, at most {WEIGHT_MAX:.3g} in modulus, got {value}")


@dataclass(frozen=True)
class CouplingParams:
    """Extended coupling parameters (K, L) and trace weights (alpha, beta)."""

    K: float
    L: float
    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("K", "L"):
            check_extended(f"model.{name}", getattr(self, name))
        for name in ("alpha", "beta"):
            check_weight(f"model.{name}", getattr(self, name))


@dataclass(frozen=True)
class Mobility:
    """Uniformly positive bounded mobility: m0 or m0 + m1*(1 - clamp(s)^2)."""

    kind: str = "constant"
    m0: float = 1.0
    m1: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "degenerate"):
            raise InvalidArgument(f"unknown mobility kind {self.kind!r}")
        if not 0 < self.m0 < math.inf:  # also rejects nan
            raise InvalidArgument(f"mobility floor m0 must be positive and finite, got {self.m0}")
        if not math.isfinite(self.m1) or (self.kind == "degenerate" and self.m1 < 0):
            raise InvalidArgument(f"mobility amplitude m1 must be finite (>= 0 if degenerate), got {self.m1}")

    def __call__(self, s):
        if self.kind == "constant":
            return np.full_like(np.asarray(s, dtype=float), self.m0)
        return self.m0 + self.m1 * (1.0 - np.clip(s, -1.0, 1.0) ** 2)


@dataclass(frozen=True)
class VelocityField:
    """Prescribed velocities: rigid rotation in the bulk, rotation on the loop.

    The bulk field v = omega*(-y, x) is divergence-free with v.n = 0 on the
    unit circle; the surface field is tangent to each boundary edge by
    construction.  ``ramp`` > 0 scales both fields by ``factor(t)`` =
    min(1, t/ramp).
    """

    bulk_kind: str = "none"  # none | rigid_rotation
    omega: float = 0.0
    surf_kind: str = "none"  # none | rotation
    speed: float = 0.0
    ramp: float = 0.0

    def __post_init__(self):
        if self.bulk_kind not in ("none", "rigid_rotation"):
            raise InvalidArgument(f"unsupported bulk velocity kind {self.bulk_kind!r}")
        if self.surf_kind not in ("none", "rotation"):
            raise InvalidArgument(f"unsupported surface velocity kind {self.surf_kind!r}")
        for name in ("omega", "speed", "ramp"):
            value = getattr(self, name)
            if not math.isfinite(value) or (name == "ramp" and value < 0):
                bound = " and >= 0" if name == "ramp" else ""
                raise InvalidArgument(f"velocity.{name} must be finite{bound}, got {value}")

    @property
    def is_zero(self):
        return (self.bulk_kind == "none" or self.omega == 0.0) and (
            self.surf_kind == "none" or self.speed == 0.0
        )

    def factor(self, t):
        if self.ramp > 0:
            return min(1.0, t / self.ramp)
        return 1.0


@dataclass(frozen=True)
class FormsBundle:
    """Assembled core operators plus frequently used derived quantities."""

    M_bulk: Csr
    A_bulk: Csr
    M_surf: Csr
    A_surf: Csr
    loop: np.ndarray  # (B,) boundary-loop position -> vertex
    area: float
    perimeter: float
    lump_bulk: np.ndarray
    lump_surf: np.ndarray

    @property
    def n_bulk(self):
        return self.M_bulk.shape[0]

    @property
    def n_surf(self):
        return self.M_surf.shape[0]

    @cached_property
    def M_pair(self):
        return block_diag(self.M_bulk, self.M_surf)

    @cached_property
    def A_pair(self):
        return block_diag(self.A_bulk, self.A_surf)

    @cached_property
    def lump_pair(self):
        return np.concatenate([self.lump_bulk, self.lump_surf])

    def mismatch_sq(self, bulk, surf, weight):
        """|weight * surf - bulk|_Gamma|^2 in the M_Gamma norm, the form of ``coupling_block``."""
        gap = weight * surf - bulk[self.loop]
        return float(gap @ (self.M_surf @ gap))

    def coupling_block(self, weight):
        """Pair-space matrix of the boundary mismatch form.

        Assembles the bilinear form (w*psi - phi, w*xi - eta) on the surface
        mass matrix, as a symmetric operator on pair vectors: the blocks
        [[R^T Ms R, -w R^T Ms], [-w Ms R, w^2 Ms]], entry by entry, for the
        trace R with R[k, loop[k]] = 1.
        """
        (row, col, ms), n, loop = triplets(self.M_surf), self.n_bulk, self.loop
        rows = np.concatenate([loop[row], loop[row], n + row, n + row])
        cols = np.concatenate([loop[col], n + col, loop[col], n + col])
        vals = np.concatenate([ms, -weight * ms, -weight * ms, weight**2 * ms])
        return from_triplets((n + self.n_surf,) * 2, (rows, cols, vals))

    def split(self, pair_vec):
        return pair_vec[: self.n_bulk], pair_vec[self.n_bulk :]


def assemble_core(mesh: TriMesh) -> FormsBundle:
    """Exact P1 mass/stiffness on the triangulation and the boundary polygon.

    The surface stiffness is the periodic arclength Laplacian on the
    boundary loop.
    """
    n, b = mesh.n_vertices, mesh.n_boundary
    g = mesh.geometry

    mass_local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    M_bulk = scatter(g.tri_pattern, g.areas[:, None, None] * mass_local[None, :, :])
    h = g.lengths
    m_loc = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    M_surf = scatter(g.edge_pattern, h[:, None, None] * m_loc)
    # at the unit mobility, bitwise the unweighted stiffnesses
    A_bulk, A_surf = assemble_mobility_stiffness(mesh, Mobility(), np.zeros(n), Mobility(), np.zeros(b))

    return FormsBundle(
        M_bulk=M_bulk,
        A_bulk=A_bulk,
        M_surf=M_surf,
        A_surf=A_surf,
        loop=mesh.boundary_loop,
        area=float(np.sum(g.areas)),
        perimeter=float(np.sum(h)),
        lump_bulk=row_sums(M_bulk),
        lump_surf=row_sums(M_surf),
    )


def assemble_mobility_stiffness(mesh: TriMesh, mob_bulk: Mobility, phi, mob_surf: Mobility, psi):
    """``(K_bulk, K_surf)``: the bulk stiffness weighted by ``mob_bulk`` at the triangle
    means of ``phi`` (one value per vertex) and the surface stiffness weighted by
    ``mob_surf`` at the edge means of ``psi`` (one value per boundary-loop position)."""
    phi, psi = np.asarray(phi, dtype=float), np.asarray(psi, dtype=float)
    if phi.shape != (mesh.n_vertices,) or psi.shape != (mesh.n_boundary,):
        raise InvalidArgument(f"mobility fields of shapes {phi.shape}, {psi.shape} need "
                              f"({mesh.n_vertices},), ({mesh.n_boundary},)")
    g = mesh.geometry
    coef_bulk = mob_bulk(phi[mesh.triangles].mean(axis=1)) * g.areas
    coef_surf = mob_surf(0.5 * (psi[g.edge_pos[:, 0]] + psi[g.edge_pos[:, 1]])) / g.lengths
    return (scatter(g.tri_pattern, coef_bulk[:, None, None] * g.gdot),
            scatter(g.edge_pattern, coef_surf[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])))


def assemble_convection(mesh: TriMesh, vel: VelocityField):
    """Convection operators with centroid quadrature, at unit ramp factor.

    Returns ``(C_bulk, C_surf)`` with C[i, j] = integral of N_j (vel . grad
    N_i); pairing any field with a constant test vector gives zero exactly.
    """
    n, b = mesh.n_vertices, mesh.n_boundary
    g = mesh.geometry

    if vel.bulk_kind == "none":
        C_bulk = empty((n, n))
    else:
        vc = vel.omega * np.stack([-g.centroids[:, 1], g.centroids[:, 0]], axis=1)
        # vals[t, i, j] = area/3 * v.gradN_i; trial index j enters only
        # through N_j(centroid) = 1/3
        vdotg = np.einsum("td,tid->ti", vc, g.grads)
        vals = (g.areas[:, None, None] / 3.0) * vdotg[:, :, None] * np.ones((1, 1, 3))
        C_bulk = scatter(g.tri_pattern, vals)

    if vel.surf_kind == "none":
        C_surf = empty((b, b))
    else:
        pe = g.edge_pos
        pts = mesh.vertices[mesh.boundary_loop]
        mid = 0.5 * (pts[pe[:, 0]] + pts[pe[:, 1]])
        v_mid = vel.speed * np.stack([-mid[:, 1], mid[:, 0]], axis=1)
        wt = np.einsum("ed,ed->e", v_mid, g.tangents / g.lengths[:, None])
        # dN/ds = (-1/h, +1/h), N_j(mid) = 1/2, edge length h
        dn = np.stack([-np.ones(b), np.ones(b)], axis=1)
        vals = (0.5 * wt)[:, None, None] * dn[:, :, None] * np.ones((1, 1, 2))
        C_surf = scatter(g.edge_pattern, vals)

    return C_bulk, C_surf


@dataclass(frozen=True)
class CaseSpace:
    """The case of one extended parameter: its space, held as the rows of its
    prolongation P, one entry each (full row i is ``scale[i]`` times reduced
    slot ``col[i]``), and ``block``, its sigma-weighted coupling block on the
    full pair space.  ``idx`` holds the positions of the reduced coordinates
    in the full pair vector; in a Dirichlet case (K = 0 or L = 0) each
    boundary bulk row is the weight times its surface slot.  ``pairs`` holds
    the full pair-space constant pair of each mean the case fixes: (1, 0) and
    (0, 1) at the Neumann end (value = inf), else (mean_weight, 1), and
    ``mean_rows`` = pairs * lump_pair the rows c with c @ (u, v) its conserved
    integral.  ``prolong`` is P x, ``restrict`` P^T v and ``lumped`` the
    diagonal of P^T diag(d) P, as one gather or bincount each, bitwise equal
    to the sparse products (a slot sums at most two terms).  Like the sparse
    kernels, each sum starts from +0.0, so a zero result is +0.0 (0.0 * x is
    -0.0 for x < 0)."""

    idx: np.ndarray
    col: np.ndarray
    scale: np.ndarray
    block: Csr
    pairs: np.ndarray  # (k, n + b), as mean_rows
    mean_rows: np.ndarray

    def means(self, v):
        """The constant pair with the conserved integrals of ``v``: v minus it has none."""
        return ((self.mean_rows @ v) / np.sum(self.mean_rows * self.pairs, axis=1)) @ self.pairs

    def prolong(self, x):
        return 0.0 + self.scale * x[self.col]

    def restrict(self, v):
        return np.bincount(self.col, self.scale * v, len(self.idx))

    def lumped(self, d):
        return np.bincount(self.col, self.scale * (self.scale * d), len(self.idx))


def reduce(test: CaseSpace, op: Csr, trial: CaseSpace):
    """P_test^T op P_trial, or ``op`` itself when both spaces are full: op_ij goes to
    (test.col[i], trial.col[j]) as (test.scale[i] * op_ij) * trial.scale[j], exact zeros
    dropped, bitwise scipy's product where a reduced entry sums at most two terms (so for
    every operator reduced here: coupling blocks meet only full spaces)."""
    if len(test.idx) == len(test.col) and len(trial.idx) == len(trial.col):
        return op
    rows, cols, vals = triplets(op)
    return prune(from_triplets((len(test.idx), len(trial.idx)), (
        test.col[rows], trial.col[cols], (test.scale[rows] * vals) * trial.scale[cols])))


def case_space(forms: FormsBundle, value, weight, mean_weight) -> CaseSpace:
    """The case of one extended parameter (K with alpha, or L with beta).  Its
    block is sigma(value) * coupling_block(weight), with no stored entry where
    sigma vanishes.  Its space is the full pair space, or at value = 0 the
    Dirichlet space: the interior bulk dofs and the surface dofs, each
    boundary bulk dof slaved to ``weight`` times its surface dof.  A combined
    mean that vanishes on the constant pairs (weight, 1) is rejected."""
    s, n, b, loop = sigma(value), forms.n_bulk, forms.n_surf, forms.loop
    a, p = forms.area, forms.perimeter
    if abs(weight * mean_weight * a + p) < 1e-12 * (a + p):
        raise InvalidArgument("alpha*beta*|Omega| + |Gamma| must be nonzero")
    on_bulk = np.arange(n + b) < n
    pairs = (np.array([on_bulk, ~on_bulk], dtype=float) if math.isinf(value)
             else np.where(on_bulk, mean_weight, 1.0)[None])
    rows = pairs * forms.lump_pair
    block = forms.coupling_block(weight) if s > 0 else empty((n + b, n + b))
    block = replace(block, data=s * block.data)  # scipy's s * block: stored zeros kept
    col, scale = np.arange(n + b), np.ones(n + b)
    if value != 0.0:
        return CaseSpace(col, col, scale, block, pairs, rows)
    is_bnd = np.zeros(n, dtype=bool)
    is_bnd[loop] = True
    idx = np.concatenate([np.flatnonzero(~is_bnd), n + np.arange(b)])
    col[idx] = np.arange(len(idx))
    col[loop], scale[loop] = col[n:], weight
    return CaseSpace(idx, col, scale, block, pairs, rows)


def build_case_spaces(cp: CouplingParams, forms: FormsBundle):
    """The (K, alpha) phase case, whose beta-combined mean is checked, and the (L, beta)
    chemical-potential case, whose constraint rows are the stepper's conserved masses."""
    return case_space(forms, cp.K, cp.alpha, cp.beta), case_space(forms, cp.L, cp.beta, cp.beta)
