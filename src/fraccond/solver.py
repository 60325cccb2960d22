"""Galerkin solves of the exterior value problems on the grid.

Unknowns are the nodal values inside Omega; the exterior datum is held
fixed and couples in through the right-hand side b_i = -B(f_ext, e_i).
The interior stiffness block is dense (the kernel couples every pair of
cells) but small, so a Cholesky factorization is the solver.  For the
Schrodinger equation the stiffness is the unit-conductivity block plus the
diagonal h^n q; by the exact discrete Liouville transform the conductivity
block is congruent to it, A_gamma = D_g (A_1 + h^n Q) D_g with D_g the
diagonal of g = gamma^(1/2) on Omega.  Cholesky failure for a potential
therefore signals a genuinely non-transformed, non-coercive q and is
reported as such.

Solves are batched and use the discrete Alessandrini identity.  For a
(k, *grid) stack F of exterior data, one stacked full-grid apply gives AF;
its interior rows are the right-hand sides B = -(AF)_Omega, one multi-RHS
Cholesky solve gives the interior values X, and the energy pairings of the
solutions are M = F (AF)^T - X^T B, with no second apply for the fluxes.
The one FFT pair of an apply is the convolution of the weights with g F
(with F for a potential), through `operators.apply_multiplier`; the
operator keeps the last two in `FracOperator.convolutions`, keyed by a
digest of g F.  Where g = 1 on the support of F, g F is bitwise F, so every
potential and every conductivity equal to 1 there share one convolution
per basis.  Every block is built in that congruence form, A_gamma =
D_g A' D_g: A' is one scaled copy of the operator's unit stencil with the
diagonal of A_gamma divided by g^2 (for a potential g = 1 and A' is the
block itself).  A' is factored in place, so one array per system holds its
factor (lower triangle) and A' (strict upper triangle, diagonal kept
apart); the solve is X = D_g^-1 A'^-1 D_g^-1 B.  Every column's Galerkin
residual is checked against A_gamma itself, D_g A' D_g applied from that
packed block.  A_gamma is positive definite exactly when A' is, as g > 0.

The operator owns the factored systems: `interior_system` keeps them in
`FracOperator.systems`, keyed by the coefficient's kind and values, and
holds at most four, evicting the least recently used.  Four is what the
suites reuse: each reduction check looks up g, 1 and their two Liouville
potentials, and the next check looks up 1 and its potential again.  A
larger store only keeps more dense blocks alive (262 MB each at 2D N=512).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import dsymm
from scipy.linalg.lapack import dpotrf

from .conductivity import Conductivity, Potential
from .geometry import GridField
from .operators import FracOperator, apply_multiplier

__all__ = [
    "SolverError",
    "ExteriorDatum",
    "Solution",
    "InteriorSystem",
    "solve_conductivity",
    "solve_schrodinger",
    "coercivity_check",
]


class SolverError(RuntimeError):
    """Raised when the Galerkin system cannot be solved to tolerance."""


@dataclass(frozen=True)
class ExteriorDatum:
    """Exterior boundary datum: a grid field vanishing on closure(Omega)."""

    geometry: object
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(self.geometry.shape)
        if not np.all(np.isfinite(v)):
            raise ValueError("exterior datum must be finite")
        closure = self.geometry.omega_closure_mask()
        if np.any(v[closure] != 0.0):
            raise ValueError("exterior datum must vanish on the closure of Omega")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def field(self):
        return GridField(self.geometry, self.values)


@dataclass(frozen=True)
class Solution:
    """Forward solution: full-grid field, Galerkin residual, energy B(u, u)."""

    u: GridField
    residual: float
    energy: float


def _digest(*arrays):
    hsh = hashlib.sha256()
    for a in arrays:
        hsh.update(np.ascontiguousarray(a))
    return hsh.hexdigest()[:24]


def _kept(store, key, limit, build):
    """store[key], built on a miss, in a least-recently-used store of at most
    limit entries; the oldest entry is freed before the new one is built."""
    if key in store:
        store.move_to_end(key)
    else:
        if len(store) >= limit:
            store.popitem(last=False)
        store[key] = build()
    return store[key]


# full-grid convolutions an operator keeps: a basis convolved with 1 (shared
# by every potential) and with the last conductivity that differs there;
# each is k * N^n floats, 33 MB for 16 fields at 2D N=512
_CONVOLUTIONS_KEPT = 2


class InteriorSystem:
    """Interior Galerkin block, factored in place, with the full-grid operator.

    coefficient is a Conductivity (conductivity equation) or a Potential
    (Schrodinger equation) on the operator's grid.  Matrix-vector products
    with the full-grid operator are `apply_multiplier` convolutions with the
    operator's cached weight spectrum, kept in its convolution store; only
    the interior block is ever formed densely, in the congruence form
    A_gamma = D_g A' D_g (g = 1 for a potential).  One n x n array holds
    both A' and its Cholesky factor: L in the lower triangle, A' in the
    strict upper triangle, and its diagonal `_diag` kept apart; `_gi` is g
    on Omega.
    """

    def __init__(self, coefficient, op: FracOperator):
        if coefficient.geometry != op.geometry:
            raise ValueError("coefficient and operator live on different grids")
        self.geometry = geom = op.geometry
        self.mask = geom.omega_mask()
        self.idx = np.flatnonzero(self.mask.reshape(-1))
        if self.idx.size == 0:
            raise SolverError("no interior degrees of freedom")
        if isinstance(coefficient, Conductivity):
            self.kind = "conductivity"
            self.g = coefficient.sqrt_values
            self.q = None
        elif isinstance(coefficient, Potential):
            self.kind = "schrodinger"
            self.g = None
            self.q = coefficient.values
        else:
            raise TypeError("coefficient must be a Conductivity or a Potential")

        # the operator's arrays, shared, not copied; holding the operator
        # itself would make it and its stored systems a reference cycle
        self._stencil = op.interior_stencil
        self._spectrum = op.form_spectrum
        self._convolutions = op.convolutions
        self._scale = op.cns * geom.cell_volume
        G = np.ones(geom.shape) if self.g is None else self.g
        wg = apply_multiplier(self._spectrum, G)  # w * g, the diagonal's convolution
        diag = self._scale * (G * wg).reshape(-1)[self.idx]
        # the factors of apply: A u = s (e u - w * (g u))
        if self.q is None:
            self._e, self._s = wg, self._scale * self.g
        else:
            diag = diag + geom.cell_volume * self.q.reshape(-1)[self.idx]
            self._e, self._s = wg + self.q / op.cns, self._scale
        # A_gamma = D_g A' D_g; A' has A_gamma's diagonal divided by g^2
        self._gi = G.reshape(-1)[self.idx]
        self._diag = diag / self._gi**2

        factor, info = dpotrf(self._interior_block(), lower=1, clean=0, overwrite_a=1)
        if info != 0:
            if self.kind == "schrodinger":
                raise SolverError(
                    "interior Schrodinger matrix is not positive definite; "
                    "the potential does not come from an admissible "
                    "conductivity"
                )
            raise SolverError(
                "interior conductivity matrix is not positive definite; "
                "this indicates an assembly bug, the form is coercive"
            )
        self._factor = factor

    def _interior_block(self):
        """A', the dense interior block of the unit stencil: its off-diagonal
        entries scaled by -c h^n, its diagonal that of A_gamma over g^2."""
        A = np.multiply(self._stencil, -self._scale)  # Fortran order, as the stencil
        np.fill_diagonal(A, self._diag)
        return A

    def _block_product(self, X):
        """A_gamma X = D_g A' D_g X, A' read from the packed upper triangle."""
        Y = self._gi[:, None] * X
        AY = dsymm(1.0, self._factor, Y, lower=0)
        AY += (self._diag - np.diagonal(self._factor))[:, None] * Y
        AY *= self._gi[:, None]
        return AY

    # -- full-grid operator --------------------------------------------------

    def apply(self, values):
        """Full-grid stiffness applied to a field or a (k, *grid) stack.

        A u = s (e u - w * (g u)) with s = c h^n g and e = w * g, or, for a
        potential, g = 1, s = c h^n and e = w * 1 + q / c.  The one FFT
        pair, the convolution w * (g u), is kept in the operator's
        convolution store under a digest of g u and its shape.
        """
        gv = values if self.g is None else self.g * values
        conv = _kept(
            self._convolutions,
            (gv.shape, _digest(gv)),
            _CONVOLUTIONS_KEPT,
            lambda: apply_multiplier(self._spectrum, gv),
        )
        out = values * self._e
        out -= conv
        out *= self._s
        return out

    def solve_many(self, data, tol: float = 1e-10):
        """Solve for a (k, *grid) stack F of exterior data in one batch.

        One stacked apply gives AF and the right-hand sides B = -(AF)_Omega,
        one multi-RHS Cholesky solve the interior values X = D_g^-1 A'^-1
        D_g^-1 B.  Each column's Galerkin residual is measured against the
        dense block A_gamma = D_g A' D_g and must not exceed tol.  Returns
        (U, M, residuals): the full-grid solutions, the energy pairings
        M_ij = B(u_i, f_j) = B(u_i, u_j) and the residual of each column.
        M = F (AF)^T - X^T B by Alessandrini's identity, which needs no flux
        apply; it is returned unsymmetrized.
        """
        F = np.asarray(data, dtype=float)
        k = F.shape[0]
        AF = self.apply(F).reshape(k, -1)
        B = -AF[:, self.idx].T
        gi = self._gi[:, None]
        X = sla.cho_solve((self._factor, True), B / gi, check_finite=False)
        X /= gi
        R = self._block_product(X) - B
        scale = np.maximum(np.linalg.norm(B, axis=0), 1e-300)
        residuals = np.linalg.norm(R, axis=0) / scale
        bad = np.flatnonzero(~(residuals <= tol))
        if bad.size:
            i = int(bad[0])
            raise SolverError(
                f"Galerkin residual {residuals[i]:.3e} exceeds tol {tol:.3e} "
                f"in column {i}"
            )
        flat = F.reshape(k, -1)
        M = flat @ AF.T - X.T @ B
        U = flat.copy()
        U[:, self.idx] = X.T
        return U.reshape(F.shape), M, residuals

    def solve(self, datum: ExteriorDatum, tol: float = 1e-10) -> Solution:
        if datum.geometry != self.geometry:
            raise ValueError("geometry mismatch")
        U, M, residuals = self.solve_many(datum.values[None], tol)
        return Solution(
            u=GridField(self.geometry, U[0]),
            residual=float(residuals[0]),
            energy=float(M[0, 0]),
        )

    def smallest_eigenvalue(self):
        """Smallest eigenvalue of A_gamma = D_g A' D_g."""
        A = self._interior_block()
        A *= self._gi[:, None]
        A *= self._gi
        vals = sla.eigh(
            A,
            eigvals_only=True,
            subset_by_index=[0, 0],
            check_finite=False,
        )
        return float(vals[0])


# factored systems an operator keeps (see the module docstring)
_SYSTEMS_KEPT = 4


def interior_system(coefficient, op: FracOperator) -> InteriorSystem:
    """Factored interior system of a coefficient, kept in the operator's store.

    A coefficient on another grid than the operator is refused before the
    lookup: the key holds only the coefficient's kind and a digest of its
    values, which equal values on another grid would share.
    """
    if coefficient.geometry != op.geometry:
        raise ValueError("coefficient and operator live on different grids")
    tag = "c" if isinstance(coefficient, Conductivity) else "q"
    key = (tag, _digest(coefficient.values))
    return _kept(op.systems, key, _SYSTEMS_KEPT, lambda: InteriorSystem(coefficient, op))


def solve_conductivity(
    gamma: Conductivity, f: ExteriorDatum, op: FracOperator, tol: float = 1e-10
) -> Solution:
    """Weak solution of the fractional conductivity problem with datum f."""
    return interior_system(gamma, op).solve(f, tol)


def solve_schrodinger(
    q: Potential, f: ExteriorDatum, op: FracOperator, tol: float = 1e-10
) -> Solution:
    """Weak solution of the fractional Schrodinger problem with datum f."""
    return interior_system(q, op).solve(f, tol)


def coercivity_check(coefficient, op: FracOperator) -> float:
    """Smallest eigenvalue of the interior Galerkin matrix (diagnostic)."""
    return interior_system(coefficient, op).smallest_eigenvalue()
