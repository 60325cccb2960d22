"""Galerkin solves of the exterior value problems on the grid.

Unknowns are the nodal values inside Omega; the exterior datum is held
fixed and couples in through the right-hand side b_i = -B(f_ext, e_i).
The interior stiffness block is dense (the kernel couples every pair of
cells).  For the Schrodinger equation it is the unit-conductivity block
plus the diagonal h^n q; by the exact discrete Liouville transform the
conductivity block is congruent to it, A_gamma = D_g (A_1 + h^n Q) D_g
with D_g the diagonal of g = gamma^(1/2) on Omega.  So every block is
built in that congruence form, A_gamma = D_g A' D_g, where A' is -c h^n
times the operator's unit stencil with the diagonal of A_gamma divided by
g^2 (for a potential g = 1 and A' is the block itself): every A' of one
operator differs from the unit block A'_0 (gamma = 1, q = 0) only on its
diagonal.  A_gamma is positive definite exactly when A' is, as g > 0;
failure for a potential signals a genuinely non-transformed, non-coercive
q and is reported as such.  The congruence gives Lambda_q(F) =
Lambda_gamma(F / g) for the Liouville potential q of gamma, so the suites
build no Potential system (`experiments._liouville_dns`).

Solves are batched and use the discrete Alessandrini identity.  The
exterior data F come as a (k, *box) stack on their solve box, a box of the
grid that holds Omega and every point where a datum is nonzero (a
`dnmap.ExteriorBasis` keeps its stack on the bounding box of Omega and the
data's support); nothing of F off the box is stored or read.  One stacked
apply gives AF on the box; its interior rows are the right-hand sides
B = -(AF)_Omega, one batched solve gives the interior values
X = D_g^-1 A'^-1 D_g^-1 B, and the energy pairings of the solutions are
M = F (AF)^T - X^T B over the box, with no second apply for the fluxes.
The identity reads AF only at S, the box points where some datum is
nonzero and those of Omega.  The one FFT pair of an apply is the
convolution of the weights with g F (with F for a potential) over the
periodic grid, through `operators.apply_multiplier` with the box as the
grid's low corner (a convolution is translation invariant), so the real
passes run over the box's rows only (251 of 512 rows at 2D N = 512).  It
is taken field by field into one compact (k, *box) array, so no stacked
spectrum of the grid is formed, and in 2D each field's forward real pass
runs over its nonzero rows only (`operators.convolve_fields`); AF is then
formed in that array.  `solve_many` keeps the convolution at S only in
the operator's one slot, `FracOperator.convolution` (23,577 of the box's
63,001 points for 16 bumps at 2D N = 512), keyed by the identity of the
stack F, held by a weak reference, and by g on F's support (g = 1 for a
potential); the next solve reuses it when both match, and then g F is the
same stack bit for bit, so AF rebuilt at S from it is bit for bit a
fresh one's there.  Only a stack that is read-only down its whole base
chain is keyed (an `ExteriorBasis` keeps its stack so), since nothing
else rules out its values having changed in place.  g F is formed once
per field, for the convolution, and never stacked.  F (AF)^T and B are
taken right after the apply and AF is freed, so during the solve the
only stack of the box is the data, beside the slot's values at S.  Every
potential and every conductivity equal to 1 on the support of F share one
convolution per basis, as do conductivities that differ only inside
Omega, and a suite's assemblies on one basis follow one another.

A' is never factored and nothing m x m is formed (m the number of
unknowns).  Every system, the unit coefficient's too, is solved by block
PCG with A' applied through the operator's windowed convolution
(`FracOperator.interior_convolution`):
A'Y = (diag(A') + c h^n w_0) Y - c h^n (S Y), S the stencil, one FFT over a
periodic box holding Omega's bounding box, transformed only on the rows of
that bounding box.  The preconditioner is Strang's circulant of the unit
block A'_0 on a box half that side: L_P keeps the weights of the offsets up
to half Omega's extent, wraps the larger ones, and agrees with A'_0 on
every entry whose offset it keeps.  R L_P^-1 E r is one FFT pair on that
box with the inverse symbol the operator keeps
(`FracOperator.box_inverse_symbol`; a box of side 90 against the product's
180 at 2D N = 512).  The columns of one solve share one block Krylov
space: each block step orthonormalizes the preconditioned residuals and
advances every column at once, so the outlying eigenvalues of the
preconditioned block are found once for the whole stack (12 block steps
for 16 harmonic data at 2D N = 512, where each column alone takes 18).
A step keeps only the numerically independent directions: with each
column divided by its stopping target, the directions whose singular
values fall below sqrt(eps) of the largest are dropped from the block,
and come back at a later step if they still matter.  Harmonic data are
nearly dependent (with unit columns their singular values fall to
~1e-13), so blocks narrow and take fewer steps than with every direction
kept.

The PCG is two-level: the operator's coarse space V
(`FracOperator.coarse_space`, the real Fourier modes of the 16 frequencies
where the box preconditioner's symbol is smallest, orthonormal on Omega)
is deflated (Nicolaides, SIAM J. Numer. Anal. 24, 1987; Saad, Yeung,
Erhel and Guyomarc'h, SIAM J. Sci. Comput. 21, 2000).  A system factors
the Galerkin block E = V^T A' V, with A'V = shift V - c h^n SV from the
operator's one product SV, each run starts from the coarse solution
V E^-1 V^T B, and every block of directions is kept A'-orthogonal to V.
A coefficient's diagonal moves A' from A'_0 by more than the box
symbol's smallest values, so a few low modes carry the spread of the
preconditioned spectrum, and V takes them out: at 1D N = 2048, 16
harmonic data on the first eight Mandache members of seed 5 take 4 to 7
block steps, where they took 8 to 11 without V.
Because A' has off-diagonal entries <= 0 it is positive definite
exactly when A' v > 0 for some v > 0 (a nonsingular M-matrix).  Cholesky
refusing E is the first sign that A' is not, and raises before any run.
The operator keeps the first certified v, from a PCG solve of A' v = 1,
and a later system of the operator is certified by the one product
A' v > 0, with its own PCG solve only when that product fails.  A system
holds only vectors: at 2D N = 512 a dense block would be 262 MB.

Every column's Galerkin residual is checked against A_gamma itself,
D_g A' D_g applied through the windowed convolution with the diagonal the
system states, and the operator's `counts` record the PCG solves, block
steps and block columns, the coarse space's columns, the systems built
and those certified by one product, the convolution hits and the worst
residual.

Nothing keeps a system: `interior_system` builds one for each call, and a
caller that needs a coefficient's DN matrix twice keeps the matrix (as
`experiments._assembler` does).  So at most one system, with its
full-grid factors, is alive during an assembly.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass

import numpy as np

from .conductivity import Conductivity, Potential
from .geometry import GridField, bounding_box
from .operators import FracOperator, apply_multiplier, convolve_fields

__all__ = [
    "SolverError",
    "ExteriorDatum",
    "Solution",
    "InteriorSystem",
    "interior_system",
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


@dataclass(frozen=True)
class Solution:
    """Forward solution: full-grid field, Galerkin residual, energy B(u, u)."""

    u: GridField
    residual: float
    energy: float


class _StackKey:
    """The key of a convolution of a data stack: the stack, held by a weak
    reference, and g on the stack's support, the points where some field is
    nonzero (1 for a potential).  Two keys are equal while their stack is
    alive and the same object and their values of g are equal, and then g u
    is the same stack bit for bit; a key of a freed stack equals none."""

    def __init__(self, values, g):
        self._data = weakref.ref(values)
        self._g = g

    def __eq__(self, other):
        if not isinstance(other, _StackKey):
            return NotImplemented
        data = self._data()
        return data is not None and data is other._data() and np.array_equal(self._g, other._g)


def _read_only(array):
    """Whether array and every array down its base chain are read-only, so
    that nothing can write its values through numpy."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return array is None


# PCG stops when every column's residual is below this fraction of its
# right-hand side; the Galerkin residual is then checked against tol apart.
# At 1e-14 the stop sat on the roundoff floor, where last-bit changes in B
# moved the step count; 1e-11 is too loose for the step-count tests
_PCG_RTOL = 1e-12
_PCG_MAXITER = 100
# a block step keeps the directions of the scaled preconditioned residuals
# whose singular values exceed this fraction of the largest
_DEFLATION = float(np.sqrt(np.finfo(float).eps))


class InteriorSystem:
    """Interior Galerkin system of a coefficient, with the full-grid operator.

    coefficient is a Conductivity (conductivity equation) or a Potential
    (Schrodinger equation) on the operator's grid.  Matrix-vector products
    with the full-grid operator are `apply_multiplier` convolutions with the
    operator's cached weight spectrum; `solve_many` keeps its convolution
    on the data's support and Omega in the operator's `convolution` slot.
    The interior block is A_gamma = D_g A' D_g (g = 1 for a potential,
    never formed); `_gi` is g on Omega and `_diag` the diagonal of A'.  Of
    the grid the system owns only apply's factor `_e`.  A' is solved by
    block PCG: the system holds the PCG product's diagonal shift `_shift`,
    its own shallow copies of the operator's windowed convolution
    `_convolve` and box preconditioner `_preconditioner`, whose FFT arrays,
    one block of columns' (`operators._PRODUCT_BYTES`), are freed with the
    system, the inverse `_coarse_inverse`
    of its coarse block E = V^T A' V and the (m, c) `_coarse` = A'V E^-1,
    and nothing m x m.  Building it factors E and runs the M-matrix
    certificate of A', one product with the operator's kept certificate
    vector or a PCG solve; either refuses a system that is not positive
    definite.  The system holds its operator (`op`), whose counts, coarse
    space, certificate vector and PCG work array it uses; the operator
    holds no system.
    """

    def __init__(self, coefficient, op: FracOperator):
        if not isinstance(coefficient, (Conductivity, Potential)):
            raise TypeError("coefficient must be a Conductivity or a Potential")
        if coefficient.geometry != op.geometry:
            raise ValueError("coefficient and operator live on different grids")
        self.op = op
        self.geometry = geom = op.geometry
        self.mask = geom.omega_mask()
        self.idx = np.flatnonzero(self.mask.reshape(-1))
        if self.idx.size == 0:
            raise SolverError("no interior degrees of freedom")
        op.counts.systems += 1
        self._scale = op.cns * geom.cell_volume
        # e, the factor of apply's A u = c h^n g (e u - w * (g u)), and the
        # diagonal c h^n g (w * g) (+ h^n q) of A_gamma on Omega
        if isinstance(coefficient, Conductivity):
            self.kind, self.g, self.q = "conductivity", coefficient.sqrt_values, None
            self._e = apply_multiplier(op.form_spectrum, self.g)  # w * g
            self._gi = self.g.reshape(-1)[self.idx]
            diag = self._scale * (self._gi * self._e.reshape(-1)[self.idx])
        else:
            self.kind, self.g, self.q = "schrodinger", None, coefficient.values
            w1 = op.form_spectrum.flat[0].real  # w * 1, the weights' sum
            self._e = w1 + self.q / op.cns
            self._gi = np.ones(self.idx.size)
            diag = self._scale * w1 + geom.cell_volume * self.q.reshape(-1)[self.idx]
        # A_gamma = D_g A' D_g; A' has A_gamma's diagonal divided by g^2
        self._diag = diag / self._gi**2

        # shallow copies: they share the operator's spectra, and the FFT
        # arrays each keeps between products go with the system
        self._convolve = copy.copy(op.interior_convolution)
        self._preconditioner = copy.copy(op.box_inverse_symbol)
        # PCG applies A' Y = shift Y - c h^n (S Y), S the stencil with its
        # diagonal w_0
        self._shift = self._diag + self._scale * self._convolve.center
        # E = V^T A'V, A'V = shift V - c h^n SV for the operator's coarse
        # space V, is a Galerkin block of A': Cholesky refuses it when A' is
        # not positive definite on V's span.  PCG reads E^-1 and A'V E^-1
        V, SV = op.coarse_space
        AV = np.multiply(self._shift[:, None], V, order="F")
        AV -= self._scale * SV
        try:
            L_inv = np.linalg.inv(np.linalg.cholesky(V.T @ AV))
        except np.linalg.LinAlgError:
            self._not_positive_definite()
        self._coarse_inverse = L_inv.T @ L_inv
        self._coarse = np.matmul(AV, self._coarse_inverse, order="F")
        # A' has off-diagonal entries <= 0, so it is positive definite
        # exactly when some v > 0 has A' v > 0 (a nonsingular M-matrix).
        # The operator's kept v is tried first; otherwise v solves A' v = 1
        # up to a residual of 2-norm at most 1/2, so every entry of A' v is
        # at least 1/2, and the first v so certified is kept
        v = op.certificate
        if v is not None and self._matvec(v, self._shift).min() > 0:
            op.counts.certificate_products += 1
            return
        m = self.idx.size
        v, converged = self._pcg(np.ones((m, 1)), 0.5 / np.sqrt(m))
        if not (converged and v.min() > 0 and self._matvec(v, self._shift).min() > 0):
            self._not_positive_definite()
        if op.certificate is None:
            v.setflags(write=False)
            op.certificate = v

    def _not_positive_definite(self):
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

    def _precondition(self, V, out=None):
        """R L_P^-1 E V: V's columns scattered into the preconditioner's box,
        multiplied by the inverse box symbol and restricted to Omega, one FFT
        pair, written into out when it is given."""
        return self._preconditioner(V, out)

    def _matvec(self, Y, shift, out=None, work=None):
        """A' Y = shift Y - c h^n (S Y) through the operator's windowed
        convolution, A''s diagonal being shift - c h^n w_0; written into out
        and with shift Y formed in work when they are given (column-major
        blocks of Y's shape)."""
        AY = self._convolve(Y, out)
        AY *= -self._scale
        AY += np.multiply(shift[:, None], Y, out=work)
        return AY

    def _pcg(self, B, rtol=_PCG_RTOL):
        """(Y, converged): A' Y = B by block conjugate gradients,
        preconditioned by the box inverse and deflated by the operator's
        coarse space V: every column searches one Krylov space (O'Leary,
        Linear Algebra Appl. 29, 1980), so the outlying eigenvalues of the
        preconditioned block are found once for all of them.  The run starts
        from Y = V E^-1 V^T B, E = V^T A' V, so that V^T R = 0, and keeps
        every block of directions A'-orthogonal to V, so that V^T R stays 0
        (deflated CG; Saad, Yeung, Erhel and Guyomarc'h, SIAM J. Sci.
        Comput. 21, 2000).  Each step makes the preconditioned residuals Z
        A'-orthogonal to the last block of directions P and then to V,
        divides each column by its stopping target (rtol times its
        right-hand side's norm, 1 for a zero one) and takes the triangle R
        of its Householder QR, Z = QR (Dubrulle, ETNA 12, 2001), with no Q
        formed.  The new P keeps only the numerically independent
        directions, as breakdown-free block CG does (Ji and Li, BIT Numer.
        Math. 57, 2017): P = Z R^-1, which is Q, when
        min |R_ii| > sqrt(eps) max |R_ii|, and otherwise P = Z W_r S_r^-1,
        which is Q U_r, for R = U S W^T and the singular values S_r above
        sqrt(eps) of the largest, so a column near or below its target, or
        one that repeats another, stops widening the block.  A dropped
        direction stays in the residuals and comes back at a later step if
        it still matters.  R^-1 magnifies the roundoff left on V by Z's
        projection, so P is made A'-orthogonal to V once more: without that,
        a run of the instability suite stalled and failed the Galerkin
        residual check.  The run stops when every column's residual is
        below rtol of its right-hand side.  A P^T A' P that Cholesky
        refuses, the block form of a curvature p^T A' p <= 0 (A' is not
        positive definite), stops it unconverged.

        The residuals R, the preconditioned block Z, the directions P and
        A' P are the leading k columns of the operator's `pcg_blocks`, so
        the only (m, k) arrays a run allocates are its solution Y and the
        copy of Z that numpy's QR factors: every step writes its blocks,
        projections and updates into them (through whichever block is free
        at the time), and a block of r < k directions lives in its leading
        columns."""
        m, k = B.shape
        op = self.op
        if op.pcg_blocks is None or op.pcg_blocks.shape[1] < k:
            op.pcg_blocks = None  # the old array goes first
            op.pcg_blocks = np.empty((4, k, m))
        R, Z, P, Q = (block[:k].T for block in op.pcg_blocks)
        # Y = V E^-1 V^T B, so that V^T R = 0 for R = B - A'V E^-1 V^T B
        V = op.coarse_space[0]
        coefficients = V.T @ B
        Y = np.matmul(V, self._coarse_inverse @ coefficients, order="F")
        np.subtract(B, np.matmul(self._coarse, coefficients, out=R), out=R)
        norms = np.sqrt(np.einsum("ij,ij->j", B, B))
        target = (rtol * norms) ** 2
        scale = 1.0 / np.where(norms > 0, rtol * norms, 1.0)
        r = 0  # the width of the last block of directions P, and Q = A' P
        L_inv = None  # L^-1 for P^T A' P = L L^T
        it = columns = 0
        converged = True
        while np.any(np.einsum("ij,ij->j", R, R) > target):
            if it == _PCG_MAXITER:
                converged = False
                break
            it += 1
            self._precondition(R, Z)
            # Q is free from here to the product A' P
            if r:
                Z -= np.matmul(P[:, :r], L_inv.T @ (L_inv @ (Q[:, :r].T @ Z)), out=Q)
            Z -= self._coarse_correction(Z, Q)
            Z *= scale
            R_z = np.linalg.qr(Z, mode="r")
            d = np.abs(np.diagonal(R_z))
            if len(R_z) == k and d.min() > _DEFLATION * d.max():
                r = k
                np.matmul(Z, np.linalg.inv(R_z), out=P)
            else:
                _, sigma, Wt = np.linalg.svd(R_z, full_matrices=False)
                r = int(np.count_nonzero(sigma > _DEFLATION * sigma[0]))
                np.matmul(Z, Wt[:r].T / sigma[:r], out=P[:, :r])
            Pr, Qr = P[:, :r], Q[:, :r]
            Pr -= self._coarse_correction(Pr, Qr)
            # Z is free from here to the next step's preconditioning
            self._matvec(Pr, self._shift, Qr, Z[:, :r])
            columns += r
            try:
                L_inv = np.linalg.inv(np.linalg.cholesky(Pr.T @ Qr))
            except np.linalg.LinAlgError:
                converged = False
                break
            alpha = L_inv.T @ (L_inv @ (Pr.T @ R))
            Y += np.matmul(Pr, alpha, out=Z)
            R -= np.matmul(Qr, alpha, out=Z)
        counts = op.counts
        counts.pcg_solves += 1
        counts.pcg_iterations += it
        counts.pcg_max_iterations = max(counts.pcg_max_iterations, it)
        counts.pcg_columns += columns
        return Y, converged

    def _coarse_correction(self, X, out):
        """V E^-1 (A'V)^T X, the A'-orthogonal projection of X's columns on
        the coarse space V, written into out, a column-major block of X's
        shape."""
        return np.matmul(self.op.coarse_space[0], self._coarse.T @ X, out=out)

    def _block_product(self, X):
        """A_gamma X = D_g A' D_g X, A''s diagonal read from `_diag`.

        The solves fix A''s diagonal in the PCG product's shift when the
        system is built, so a `_diag` that no longer matches it fails the
        Galerkin residual check.
        """
        gi = self._gi[:, None]
        AY = self._matvec(gi * X, self._diag + self._scale * self._convolve.center)
        AY *= gi
        return AY

    # -- full-grid operator --------------------------------------------------

    def apply(self, values, box=None):
        """Stiffness applied to a field or a (k, *box) stack on a box.

        A u = s (e u - w * (g u)) with s = c h^n g and e = w * g, or, for a
        potential, g = 1, s = c h^n and e = w * 1 + q / c (w * 1 the sum of
        the weights).  box is a tuple of slices of the grid, the whole grid
        when None, and values hold u on it; every factor is read on it, and
        the result is A u on the box, exact when u vanishes off it.  The one
        FFT pair, the convolution w * (g u) over the periodic grid, takes the
        box as the grid's low corner, field by field into one compact array
        (`operators.convolve_fields`).  It is the plain product: the
        operator's `convolution` slot is `solve_many`'s, and `apply` neither
        reads nor fills it.
        """
        box = (Ellipsis,) if box is None else (Ellipsis,) + tuple(box)
        out = values * self._e[box]
        out -= self._convolution(values, box)
        out *= self._scale if self.g is None else self._scale * self.g[box]
        return out

    def _convolution(self, values, box):
        """w * (g u) over the periodic grid for a field or a stack on a box,
        transformed one field at a time into a preallocated result."""
        g = None if self.g is None else self.g[box]
        return convolve_fields(self.op.form_spectrum, values, self.geometry.shape, g)

    def _stacked_apply(self, F, box, inside):
        """AF, flat (k, box points), for a (k, *box) stack F on a box whose
        Omega points are inside, through the operator's `convolution` slot.

        The slot keeps w * (g F) at S only, the box points where some field
        is nonzero and those of Omega, under the `_StackKey` of F (g = 1 for
        a potential); only a stack read-only down its whole base chain is
        keyed, and nothing is kept for another.  A hit rebuilds AF =
        s (e F - w * (g F)) at S from the kept values, bit for bit a miss's,
        and zero elsewhere: F vanishes there and Omega lies in S, so F (AF)^T
        and (AF)_Omega are a miss's.  A miss frees the slot before its
        convolution is built, keeps its values at S, and forms AF in the
        convolution's own array, one field at a time.
        """
        k = len(F)
        flat = F.reshape(k, -1)
        support = np.any(F, axis=0)
        S = np.flatnonzero(support.reshape(-1) | inside.reshape(-1))
        e = self._e[box].reshape(-1)
        scale = self._scale if self.g is None else self._scale * self.g[box].reshape(-1)
        op = self.op
        key = None
        if _read_only(F):
            g = np.ones(np.count_nonzero(support)) if self.g is None else self.g[box][support]
            key = _StackKey(F, g)
        if key is not None and op.convolution is not None and op.convolution[0] == key:
            op.counts.convolution_hits += 1
            e, scale = e[S], scale if self.g is None else scale[S]
            AF = np.zeros_like(flat)
            for row, u, conv in zip(AF, flat, op.convolution[1]):
                row_S = u[S] * e
                row_S -= conv
                row_S *= scale
                row[S] = row_S
            return AF
        op.convolution = None  # the old array is freed before the new one is built
        AF = self._convolution(F, box).reshape(k, -1)
        if key is not None:
            op.convolution = (key, AF[:, S])
        for conv, u in zip(AF, flat):
            np.subtract(u * e, conv, out=conv)
            conv *= scale
        return AF

    def solve_many(self, data, box, tol: float = 1e-10):
        """Solve for a (k, *box) stack F of exterior data on a box in one batch.

        box is a tuple of slices of the grid that holds Omega, and F the data
        on it, zero off it (a `dnmap.ExteriorBasis` keeps its stack and box
        so).  One stacked apply gives AF on the box and the right-hand sides
        B = -(AF)_Omega; the interior values are X = D_g^-1 Y with
        A' Y = D_g^-1 B, Y from one run of box-preconditioned block PCG.
        Each column's Galerkin residual is measured against
        A_gamma = D_g A' D_g (`_block_product`) and must not exceed tol.
        Returns (X, M, residuals): the (k, interior) solution values, the
        energy pairings M_ij = B(u_i, f_j) = B(u_i, u_j) and the residual of
        each column.  M = F (AF)^T - X^T B by Alessandrini's identity, the
        product over the box; it needs no flux apply and is returned
        unsymmetrized.  The apply owns the operator's `convolution` slot,
        which keeps the convolution at the points the identity reads
        (`_stacked_apply`); F (AF)^T and B are formed right after it and AF
        is freed before PCG runs, so during the run the data are the only
        stack of the box, beside the slot's values at S.  A box that does
        not hold Omega raises ValueError.
        """
        F = np.asarray(data, dtype=float)
        k = F.shape[0]
        box = (Ellipsis,) + tuple(box)
        inside = self.mask[box]
        if np.count_nonzero(inside) != self.idx.size:
            raise ValueError("the solve box must hold Omega")
        AF = self._stacked_apply(F, box, inside)
        B = -AF[:, np.flatnonzero(inside)].T  # Omega in the box's order
        FAF = F.reshape(k, -1) @ AF.T
        del AF  # freed before the solve, which needs only B
        gi = self._gi[:, None]
        X, _ = self._pcg(B / gi)
        X /= gi
        R = self._block_product(X) - B
        scale = np.maximum(np.linalg.norm(B, axis=0), 1e-300)
        residuals = np.linalg.norm(R, axis=0) / scale
        counts = self.op.counts
        counts.worst_residual = max(counts.worst_residual, float(residuals.max()))
        bad = np.flatnonzero(~(residuals <= tol))
        if bad.size:
            i = int(bad[0])
            raise SolverError(
                f"Galerkin residual {residuals[i]:.3e} exceeds tol {tol:.3e} "
                f"in column {i}"
            )
        M = FAF - X.T @ B
        return X.T, M, residuals

    def solve(self, datum: ExteriorDatum, tol: float = 1e-10) -> Solution:
        """Forward solution of one full-grid datum, solved on the bounding
        box of Omega and the datum's support."""
        if datum.geometry != self.geometry:
            raise ValueError("geometry mismatch")
        box = bounding_box(self.mask | (datum.values != 0))
        X, M, residuals = self.solve_many(datum.values[box][None], box, tol)
        u = datum.values.copy()
        u.reshape(-1)[self.idx] = X[0]
        return Solution(
            u=GridField(self.geometry, u),
            residual=float(residuals[0]),
            energy=float(M[0, 0]),
        )


def interior_system(coefficient, op: FracOperator) -> InteriorSystem:
    """Interior system of a coefficient on an operator, built anew: the
    operator keeps no systems."""
    return InteriorSystem(coefficient, op)
