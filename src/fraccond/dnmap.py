"""Discrete Dirichlet-to-Neumann matrices and dual-pairing operator norms.

A DN matrix collects M_ij = B(u_{f_i}, f_j) over a finite exterior basis;
by Galerkin orthogonality this equals B(u_{f_i}, u_{f_j}), so symmetry is
automatic up to solver roundoff.  The dual-pairing norm over the basis span
is the largest singular value of G^(-1/2) M G^(-1/2) with G the H^s Gram
matrix: a lower bound for the continuum operator norm, consistent across
experiments that share a basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import bounding_box, mollifier_profile
from .operators import FracOperator, hs_gram
from .solver import SolverError, interior_system

__all__ = [
    "ExteriorBasis",
    "DnMatrix",
    "DnBlock",
    "build_exterior_basis",
    "basis_from_fields",
    "assemble_dn",
    "dn_operator_norm",
    "whiten_gram",
    "restrict_dn",
]


@dataclass(frozen=True)
class ExteriorBasis:
    """Finite family of exterior data spanning the measurement region.

    The data live on their solve box: `box` is a tuple of slices of the
    grid, the bounding box of Omega and the data's support, and `stack` the
    (k, *box) array of the data on it, which the basis takes read-only.
    The data vanish off the box, so no array of the whole grid is kept.
    """

    geometry: object
    stack: np.ndarray
    box: tuple
    orders: tuple  # (radial, angular) per function; bumps carry (index, 0)
    kind: str
    gram: np.ndarray
    whitening: np.ndarray = None  # G^(-1/2) for the DN norms; whiten_gram(gram) if None

    def __post_init__(self):
        shape = tuple(len(range(N)[b]) for b, N in zip(self.box, self.geometry.shape))
        if self.stack.ndim != 1 + self.geometry.n or self.stack.shape[1:] != shape:
            raise ValueError(f"stack of shape {self.stack.shape} does not fit box {shape}")
        self.stack.setflags(write=False)
        if self.whitening is None:
            object.__setattr__(self, "whitening", whiten_gram(self.gram))

    def __len__(self):
        return len(self.stack)

    def order_of(self, i):
        h, k = self.orders[i]
        return h + k


def _asymmetry(M):
    """max |M - M^T| / max |M| of a square matrix, 0 for a zero one."""
    scale = np.max(np.abs(M))
    return float(np.max(np.abs(M - M.T)) / scale) if scale > 0 else 0.0


@dataclass(frozen=True)
class DnMatrix:
    """Exterior-basis matrix of a DN operator plus its pairing metadata."""

    entries: np.ndarray
    basis: ExteriorBasis

    def __post_init__(self):
        M = np.asarray(self.entries, dtype=float)
        if _asymmetry(M) > 1e-10:
            raise SolverError("DN matrix lost symmetry beyond roundoff")
        M = 0.5 * (M + M.T)
        M.setflags(write=False)
        object.__setattr__(self, "entries", M)

    def __sub__(self, other):
        """The difference on self's basis: a difference of two exactly
        symmetric matrices is exactly symmetric, so storing it is bitwise
        the subtraction."""
        if other.basis is not self.basis and not np.array_equal(
            other.basis.gram, self.basis.gram
        ):
            raise ValueError("DN matrices built on different bases")
        return DnMatrix(entries=self.entries - other.entries, basis=self.basis)


@dataclass(frozen=True)
class DnBlock:
    """A (possibly rectangular) DN block with the Gram blocks of its pairing."""

    entries: np.ndarray
    gram_rows: np.ndarray
    gram_cols: np.ndarray


# ---------------------------------------------------------------------------
# basis construction
# ---------------------------------------------------------------------------


def _radial_window(t):
    """Smooth window on (0, 1), compactly supported, peak 1 at t = 1/2."""
    return mollifier_profile(2.0 * (t - 0.5))


def build_exterior_basis(geometry, size, kind="bumps"):
    """Exterior basis of the requested size supported in the geometry's
    measurement region.

    kind "bumps": mollifier bumps on a lattice filling the region.
    kind "harmonic": radial oscillations times angular modes, ordered by
    (radial index h, angular order k); in one dimension the angular factor
    degenerates to parity (k = 0 even, k = 1 odd).
    The fields are evaluated on the region's box only
    (`GeometryConfig.region_box`).  Every function is normalized to unit
    H^s norm.  Rank deficiency of the resulting Gram matrix (region too
    small for the requested size) raises ValueError.
    """
    if size < 1:
        raise ValueError("basis size must be >= 1")
    box = geometry.region_box()
    if kind == "bumps":
        fields = _bump_fields(geometry, box, size)
        orders = tuple((i, 0) for i in range(size))
    elif kind == "harmonic":
        fields, orders = _harmonic_fields(geometry, box, size)
    else:
        raise ValueError(f"unknown basis kind {kind!r}")
    return basis_from_fields(geometry, fields, orders, kind)


def basis_from_fields(geometry, fields, orders, kind):
    """Exterior basis of a (k, *box) stack of fields in the measurement
    region, each normalized to unit H^s norm.

    The fields are given on the region's box (`GeometryConfig.region_box`),
    zero off it, and must be finite and vanish on the closure of Omega, as
    every exterior datum must; a field that is not raises ValueError.  The
    basis keeps them cropped to the bounding box of Omega and their support,
    the box its solves read.  The norms are the square roots of the diagonal
    of the raw fields' Gram matrix, which then scales to the basis Gram
    matrix; its one eigendecomposition checks it and whitens it.  A vanishing
    field or a Gram smallest eigenvalue below 1e-10 raises ValueError."""
    box = geometry.region_box()
    F = np.asarray(fields, dtype=float)
    omega = geometry.omega_mask()[box]
    if F.shape[1:] != omega.shape:
        raise ValueError(f"fields of shape {F.shape[1:]} do not fit the region's box {omega.shape}")
    if not np.all(np.isfinite(F)):
        raise ValueError("exterior datum must be finite")
    if np.any(F[:, geometry.omega_closure_mask()[box]] != 0.0):
        raise ValueError("exterior datum must vanish on the closure of Omega")
    crop = bounding_box(omega | np.any(F, axis=0))
    F = F[(slice(None),) + crop]
    box = tuple(slice(b.start + c.start, b.start + c.stop) for b, c in zip(box, crop))
    gram = hs_gram(F, geometry, geometry.s)
    norms = np.sqrt(np.maximum(np.diagonal(gram), 0.0))
    if np.any(norms <= 0):
        raise ValueError("degenerate basis function (region too coarse)")
    gram = gram / np.outer(norms, norms)
    vals, vecs = np.linalg.eigh(gram)
    if vals[0] < 1e-10:
        raise ValueError(
            f"requested {len(F)} functions exceed the region's resolution "
            f"(Gram smallest eigenvalue {vals[0]:.3e})"
        )
    return ExteriorBasis(
        geometry=geometry,
        stack=F / norms.reshape((-1,) + (1,) * geometry.n),
        box=box,
        orders=orders,
        kind=kind,
        gram=gram,
        whitening=_whiten(vals, vecs),
    )


def _bump_fields(geometry, box, size):
    """Mollifier bumps in the region: evenly spaced along each of its two
    intervals in 1D (the left one takes the odd bump), on a ring lattice of
    equally spaced angles on the mid-radius circle in 2D."""
    r_in, r_out = geometry.region.r_in, geometry.region.r_out
    if geometry.n == 1:
        layout = []
        for (a, b), count in zip(((-r_out, -r_in), (r_in, r_out)), (size - size // 2, size // 2)):
            width = (b - a) / (count + 1) * 0.9
            layout += [((c,), width) for c in a + (b - a) * (np.arange(count) + 1) / (count + 1)]
    else:
        mid = 0.5 * (r_in + r_out)
        width = min(0.45 * (r_out - r_in), 0.9 * np.pi * mid / size)
        angles = (2.0 * np.pi * i / size for i in range(size))
        layout = [((mid * np.cos(th), mid * np.sin(th)), width) for th in angles]
    mask = geometry.region_mask()[box]
    fields = np.empty((size,) + mask.shape)
    for i, (center, width) in enumerate(layout):
        fields[i] = np.where(mask, mollifier_profile(geometry.distance(center, box) / width), 0.0)
    return fields


def _harmonic_orders(size, n):
    """(radial h, angular k) pairs sorted by total order h + k, then h."""
    pairs = []
    kmax = 1 if n == 1 else 64
    order = 0
    while len(pairs) < size:
        for k in range(min(order, kmax) + 1):
            h = order - k
            if n == 2 and k > 0:
                pairs.append((h, k, "cos"))
                pairs.append((h, k, "sin"))
            else:
                pairs.append((h, k, "cos"))
        order += 1
    return pairs[:size]


def _harmonic_fields(geometry, box, size):
    lo, hi = geometry.region.r_in, geometry.region.r_out
    r = geometry.radius[box]
    t = (r - lo) / (hi - lo)
    mask = geometry.region_mask()[box]
    window = np.where(mask, _radial_window(np.clip(t, 0.0, 1.0)), 0.0)
    fields = np.empty((size,) + r.shape)
    orders = []
    if geometry.n == 1:
        (x,) = geometry.coords(box)
        parity_sign = np.sign(x)
        for i, (h, k, _) in enumerate(_harmonic_orders(size, 1)):
            radial = window * np.cos(np.pi * h * t)
            fields[i] = radial if k == 0 else radial * parity_sign
            orders.append((h, k))
    else:
        X, Y = geometry.coords(box)
        theta = np.arctan2(Y, X)
        for i, (h, k, phase) in enumerate(_harmonic_orders(size, 2)):
            radial = window * np.cos(np.pi * h * t)
            if k == 0:
                ang = np.ones_like(theta)
            elif phase == "cos":
                ang = np.cos(k * theta)
            else:
                ang = np.sin(k * theta)
            fields[i] = radial * ang
            orders.append((h, k))
    return fields, tuple(orders)


# ---------------------------------------------------------------------------
# assembly and norms
# ---------------------------------------------------------------------------


def assemble_dn(coefficient, basis: ExteriorBasis, op: FracOperator, tol=1e-10):
    """DN matrix M_ij = B(u_{f_i}, f_j) for the given coefficient.

    Conductivity coefficients address the conductivity equation, Potential
    coefficients the Schrodinger one (the suites take a Liouville
    potential's map from its conductivity's, `experiments._liouville_dns`).
    All k basis data F are solved in one batch (InteriorSystem.solve_many)
    on the basis' box, where its stack holds them: one stacked apply gives
    AF on the box and the right-hand sides B = -(AF)_Omega, and one run of
    block PCG with the operator's half-size box preconditioner the interior
    values X.  Each column's Galerkin residual is checked against the
    interior block; a failure raises SolverError naming the column.  By
    Alessandrini's identity M = F (AF)^T - X^T B over the box, so no flux
    apply is made, and the apply's convolution, kept in the operator's one
    slot, is shared by consecutive assemblies on the basis of coefficients
    whose g agree on the support of its stack; the slot keeps it on the
    stack's support and Omega only, the points the identity reads.  The
    system is built for this call and dropped after it.  M's raw asymmetry
    max |M - M^T| / max |M| goes into the operator's
    `counts.worst_asymmetry`, and M is passed to DnMatrix unsymmetrized, so
    its symmetry check sees the raw solver asymmetry.  Any other coefficient
    raises TypeError.
    """
    system = interior_system(coefficient, op)
    if basis.geometry != system.geometry:
        raise ValueError("geometry mismatch")
    _, M, _ = system.solve_many(basis.stack, basis.box, tol)
    op.counts.worst_asymmetry = max(op.counts.worst_asymmetry, _asymmetry(M))
    return DnMatrix(entries=M, basis=basis)


def whiten_gram(gram):
    """G^(-1/2) of a Gram matrix by one symmetric eigendecomposition."""
    return _whiten(*np.linalg.eigh(gram))


def _whiten(vals, vecs):
    """G^(-1/2) from the eigenvalues and eigenvectors of G."""
    if vals[0] <= 1e-14 * vals[-1]:
        raise ValueError("singular Gram matrix: rank-deficient basis")
    return vecs @ np.diag(vals**-0.5) @ vecs.T


def dn_operator_norm(delta) -> float:
    """Dual-pairing operator norm of a DnMatrix (a DN matrix or a
    difference of them), whitened by its basis' stored G^(-1/2), or of a
    DnBlock (one restricted by `restrict_dn`), whitened by its Gram blocks,
    over the basis span."""
    if isinstance(delta, DnMatrix):
        wr = wc = delta.basis.whitening
    elif isinstance(delta, DnBlock):
        wr, wc = whiten_gram(delta.gram_rows), whiten_gram(delta.gram_cols)
    else:
        raise TypeError("dn_operator_norm expects a DnMatrix or DnBlock")
    core = wr @ delta.entries @ wc
    return float(np.linalg.svd(core, compute_uv=False)[0])


def restrict_dn(dn: DnMatrix, rows, cols):
    """Partial-data restriction of a DN matrix, or of a difference of them:
    keep the test functions of basis indices rows and the trial functions of
    basis indices cols, with the matching Gram blocks of its basis.  An
    empty or out-of-range index set raises ValueError."""
    if not isinstance(dn, DnMatrix):
        raise TypeError("restrict_dn expects a DnMatrix")
    basis = dn.basis
    rows, cols = np.asarray(rows), np.asarray(cols)
    for index in (rows, cols):
        if index.size == 0 or index.min() < 0 or index.max() >= len(basis):
            raise ValueError(f"basis indices must be nonempty and within 0..{len(basis) - 1}")
    return DnBlock(
        entries=dn.entries[np.ix_(rows, cols)],
        gram_rows=basis.gram[np.ix_(rows, rows)],
        gram_cols=basis.gram[np.ix_(cols, cols)],
    )
