"""Galerkin solves of the exterior value problems on the grid.

Unknowns are the nodal values inside Omega; the exterior datum is held
fixed and couples in through the right-hand side b_i = -B(f_ext, e_i).
The interior stiffness block is dense (the kernel couples every pair of
cells) but small, so a Cholesky factorization is the solver.  For the
Schrodinger equation the stiffness is the unit-conductivity block plus the
diagonal h^n q, which by the exact discrete Liouville transform is the
congruence D_g A_gamma D_g of the conductivity block; Cholesky failure for
a potential therefore signals a genuinely non-transformed, non-coercive q
and is reported as such.

Solves are batched: a stack of k exterior data costs one stacked full-grid
apply for the right-hand sides, one multi-RHS Cholesky solve and one
stacked apply for the fluxes.  Each full-grid apply convolves with the
operator's weight spectrum through `operators.apply_multiplier`, one
forward and one inverse real FFT, the path every pair form takes too.  The
block is built by scaling the operator's unit stencil and factored in
place, so one array per system holds the factor (lower triangle) and the
block (strict upper triangle, diagonal kept apart).  Every column's
Galerkin residual is checked against that packed block.

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
from .operators import _BLOCK, FracOperator, apply_multiplier

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
        hsh.update(np.ascontiguousarray(a).tobytes())
    return hsh.hexdigest()[:24]


class InteriorSystem:
    """Interior Galerkin block, factored in place, with the full-grid operator.

    coefficient is a Conductivity (conductivity equation) or a Potential
    (Schrodinger equation) on the operator's grid.  Matrix-vector products
    with the full-grid operator are `apply_multiplier` convolutions with the
    operator's cached weight spectrum; only the interior block is ever
    formed densely.  One n x n array holds both the block and its
    Cholesky factor: L in the lower triangle, the block in the strict upper
    triangle, and the block's diagonal kept apart.
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
        self._scale = op.cns * geom.cell_volume
        G = np.ones(geom.shape) if self.g is None else self.g
        # w * g, the diagonal's convolution; apply reuses it
        self._wg = apply_multiplier(self._spectrum, G)
        diag = self._scale * (G * self._wg).reshape(-1)[self.idx]
        if self.q is not None:
            diag = diag + geom.cell_volume * self.q.reshape(-1)[self.idx]
        self._diag = diag

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
        """Dense interior block: the operator's unit stencil, scaled."""
        stencil = self._stencil
        A = np.empty_like(stencil)
        if self.g is None:
            np.multiply(stencil, -self._scale, out=A)
        else:
            # scaling by the outer product g_i g_j keeps A exactly symmetric
            gi = self.g.reshape(-1)[self.idx]
            for c0 in range(0, gi.size, _BLOCK):
                cols = slice(c0, c0 + _BLOCK)
                A[:, cols] = stencil[:, cols] * (-self._scale * np.outer(gi, gi[cols]))
        np.fill_diagonal(A, self._diag)
        return A

    def _block_product(self, X):
        """Interior block times X, read from the packed upper triangle."""
        AX = dsymm(1.0, self._factor, X, lower=0)
        AX += (self._diag - np.diagonal(self._factor))[:, None] * X
        return AX

    # -- full-grid operator --------------------------------------------------

    def apply(self, values):
        """Full-grid stiffness applied to a field or a (k, *grid) stack."""
        if self.g is None:
            return self._scale * (
                values * self._wg - apply_multiplier(self._spectrum, values)
            ) + self.geometry.cell_volume * self.q * values
        return self._scale * self.g * (
            values * self._wg - apply_multiplier(self._spectrum, self.g * values)
        )

    def solve_many(self, data, tol: float = 1e-10):
        """Solve for a (k, *grid) stack of exterior data in one batch.

        One stacked apply gives the right-hand sides, one multi-RHS Cholesky
        solve the interior values, and a second stacked apply the fluxes.
        Each column's Galerkin residual is measured against the dense block
        and must not exceed tol.  Returns (U, Z, residuals): the full-grid
        solutions, their fluxes apply(U) and the residual of each column.
        """
        F = np.asarray(data, dtype=float)
        k = F.shape[0]
        B = -self.apply(F).reshape(k, -1)[:, self.idx].T
        X = sla.cho_solve((self._factor, True), B, check_finite=False)
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
        U = F.reshape(k, -1).copy()
        U[:, self.idx] = X.T
        U = U.reshape(F.shape)
        return U, self.apply(U), residuals

    def solve(self, datum: ExteriorDatum, tol: float = 1e-10) -> Solution:
        if datum.geometry != self.geometry:
            raise ValueError("geometry mismatch")
        U, Z, residuals = self.solve_many(datum.values[None], tol)
        return Solution(
            u=GridField(self.geometry, U[0]),
            residual=float(residuals[0]),
            energy=float(np.sum(U[0] * Z[0])),
        )

    def smallest_eigenvalue(self):
        vals = sla.eigh(
            self._interior_block(),
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
    systems = op.systems
    if key in systems:
        systems.move_to_end(key)
    else:
        if len(systems) >= _SYSTEMS_KEPT:
            systems.popitem(last=False)  # freed before the new block is built
        systems[key] = InteriorSystem(coefficient, op)
    return systems[key]


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
