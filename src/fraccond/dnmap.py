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
import scipy.linalg as sla

from .conductivity import Conductivity, Potential
from .geometry import GridField, mollifier_profile
from .operators import FracOperator, hs_gram, hs_norm
from .solver import ExteriorDatum, SolverError, interior_system

__all__ = [
    "ExteriorBasis",
    "DnMatrix",
    "DnBlock",
    "build_exterior_basis",
    "basis_from_fields",
    "assemble_dn",
    "dn_operator_norm",
    "restrict_dn",
]


@dataclass(frozen=True)
class ExteriorBasis:
    """Finite family of exterior data spanning the measurement region(s)."""

    geometry: object
    functions: tuple  # ExteriorDatum
    regions: tuple  # region name per function
    orders: tuple  # (radial, angular) per function; bumps carry (index, 0)
    kind: str
    gram: np.ndarray

    def __len__(self):
        return len(self.functions)

    def order_of(self, i):
        h, k = self.orders[i]
        return h + k


@dataclass(frozen=True)
class DnMatrix:
    """Exterior-basis matrix of a DN operator plus its pairing metadata."""

    entries: np.ndarray
    basis: ExteriorBasis
    equation: str  # "conductivity" or "schrodinger"

    def __post_init__(self):
        M = np.asarray(self.entries, dtype=float)
        scale = np.max(np.abs(M))
        if scale > 0 and np.max(np.abs(M - M.T)) > 1e-10 * scale:
            raise SolverError("DN matrix lost symmetry beyond roundoff")
        M = 0.5 * (M + M.T)
        M.setflags(write=False)
        object.__setattr__(self, "entries", M)

    def __sub__(self, other):
        if other.basis is not self.basis and not np.array_equal(
            other.basis.gram, self.basis.gram
        ):
            raise ValueError("DN matrices built on different bases")
        return DnBlock(
            entries=self.entries - other.entries,
            gram_rows=self.basis.gram,
            gram_cols=self.basis.gram,
        )


@dataclass(frozen=True)
class DnBlock:
    """A (possibly rectangular) DN block with the Gram blocks of its pairing."""

    entries: np.ndarray
    gram_rows: np.ndarray
    gram_cols: np.ndarray


# ---------------------------------------------------------------------------
# basis construction
# ---------------------------------------------------------------------------


def _interval_components(region):
    return sorted(region.data, key=lambda ab: ab[0])


def _radial_window(t):
    """Smooth window on (0, 1), compactly supported, peak 1 at t = 1/2."""
    return mollifier_profile(2.0 * (t - 0.5))


def build_exterior_basis(geometry, region_name, size, kind="bumps"):
    """Exterior basis of the requested size supported in one region.

    kind "bumps": mollifier bumps on a lattice filling the region.
    kind "harmonic": radial oscillations times angular modes, ordered by
    (radial index h, angular order k); in one dimension the angular factor
    degenerates to parity (k = 0 even, k = 1 odd).
    Every function is normalized to unit H^s norm.  Rank deficiency of the
    resulting Gram matrix (region too small for the requested size) raises
    ValueError.
    """
    if size < 1:
        raise ValueError("basis size must be >= 1")
    region = geometry.region(region_name)
    if kind == "bumps":
        fields = _bump_fields(geometry, region, size)
        orders = tuple((i, 0) for i in range(size))
    elif kind == "harmonic":
        fields, orders = _harmonic_fields(geometry, region, size)
    else:
        raise ValueError(f"unknown basis kind {kind!r}")
    return basis_from_fields(geometry, region_name, fields, orders, kind)


def basis_from_fields(geometry, region_name, fields, orders, kind):
    """Exterior basis of the given fields in one region, each normalized to
    unit H^s norm.  A vanishing field or a Gram matrix with smallest
    eigenvalue below 1e-10 raises ValueError."""
    s = geometry.s
    normalized = []
    for vals in fields:
        f = GridField(geometry, vals)
        nrm = hs_norm(f, s)
        if nrm <= 0:
            raise ValueError("degenerate basis function (region too coarse)")
        normalized.append(GridField(geometry, vals / nrm))
    gram = hs_gram(normalized, s)
    lam_min = float(sla.eigvalsh(gram)[0])
    if lam_min < 1e-10:
        raise ValueError(
            f"requested {len(fields)} functions exceed the region's resolution "
            f"(Gram smallest eigenvalue {lam_min:.3e})"
        )
    data = tuple(ExteriorDatum(geometry, f.values) for f in normalized)
    return ExteriorBasis(
        geometry=geometry,
        functions=data,
        regions=(region_name,) * len(fields),
        orders=orders,
        kind=kind,
        gram=gram,
    )


def _bump_fields(geometry, region, size):
    mask = geometry.region_mask(region.name)
    if geometry.n == 1:
        comps = _interval_components(region)
        per = [size // len(comps)] * len(comps)
        for i in range(size - sum(per)):
            per[i] += 1
        x = geometry.axis()
        fields = []
        for (a, b), count in zip(comps, per):
            if count == 0:
                continue
            width = (b - a) / (count + 1) * 0.9
            centers = a + (b - a) * (np.arange(count) + 1) / (count + 1)
            for c in centers:
                v = mollifier_profile((x - c) / width)
                v = np.where(mask, v, 0.0)
                fields.append(v)
        return fields
    r_in, r_out = region.data
    # ring lattice: equally spaced angles on the mid-radius circle
    mid = 0.5 * (r_in + r_out)
    width = min(0.45 * (r_out - r_in), 0.9 * np.pi * mid / size)
    X, Y = geometry.coords()
    fields = []
    for i in range(size):
        th = 2.0 * np.pi * i / size
        cx, cy = mid * np.cos(th), mid * np.sin(th)
        v = mollifier_profile(np.hypot(X - cx, Y - cy) / width)
        v = np.where(mask, v, 0.0)
        fields.append(v)
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


def _harmonic_fields(geometry, region, size):
    lo, hi = region.bounds()
    r = geometry.radius()
    t = (r - lo) / (hi - lo)
    window = np.where((t > 0) & (t < 1), _radial_window(np.clip(t, 0.0, 1.0)), 0.0)
    mask = geometry.region_mask(region.name)
    window = np.where(mask, window, 0.0)
    fields = []
    orders = []
    if geometry.n == 1:
        x = geometry.axis()
        parity_sign = np.sign(x)
        for h, k, _ in _harmonic_orders(size, 1):
            radial = window * np.cos(np.pi * h * t)
            v = radial if k == 0 else radial * parity_sign
            fields.append(v)
            orders.append((h, k))
    else:
        X, Y = geometry.coords()
        theta = np.arctan2(Y, X)
        for h, k, phase in _harmonic_orders(size, 2):
            radial = window * np.cos(np.pi * h * t)
            if k == 0:
                ang = np.ones_like(theta)
            elif phase == "cos":
                ang = np.cos(k * theta)
            else:
                ang = np.sin(k * theta)
            fields.append(radial * ang)
            orders.append((h, k))
    return fields, tuple(orders)


# ---------------------------------------------------------------------------
# assembly and norms
# ---------------------------------------------------------------------------


def assemble_dn(coefficient, basis: ExteriorBasis, op: FracOperator, tol=1e-10):
    """DN matrix M_ij = B(u_{f_i}, f_j) for the given coefficient.

    Conductivity coefficients address the conductivity equation, Potential
    coefficients the Schrodinger one.  All k basis data are solved in one
    batch (InteriorSystem.solve_many): one stacked apply for the right-hand
    sides, one multi-RHS solve against the cached factor, one stacked apply
    for the fluxes Z.  Each column's Galerkin residual is checked against
    the interior block; a failure raises SolverError naming the column.
    M = Z F^T is passed to DnMatrix unsymmetrized, so its symmetry check
    sees the raw solver asymmetry.
    """
    if isinstance(coefficient, Conductivity):
        equation = "conductivity"
    elif isinstance(coefficient, Potential):
        equation = "schrodinger"
    else:
        raise TypeError("coefficient must be a Conductivity or a Potential")
    system = interior_system(coefficient, op)
    if basis.geometry != system.geometry:
        raise ValueError("geometry mismatch")
    k = len(basis)
    F = np.stack([f.values for f in basis.functions])
    _, Z, _ = system.solve_many(F, tol)
    M = Z.reshape(k, -1) @ F.reshape(k, -1).T
    return DnMatrix(entries=M, basis=basis, equation=equation)


def _whiten(gram):
    vals, vecs = sla.eigh(gram)
    if vals[0] <= 1e-14 * vals[-1]:
        raise ValueError("singular Gram matrix: rank-deficient basis")
    return vecs @ np.diag(vals**-0.5) @ vecs.T


def dn_operator_norm(delta, basis: ExteriorBasis | None = None) -> float:
    """Dual-pairing operator norm of a DN difference over the basis span.

    Accepts a DnBlock (difference of DN matrices, possibly restricted) or a
    raw square matrix together with the basis that supplies the Gram.
    """
    if isinstance(delta, DnMatrix):
        entries, g_rows, g_cols = delta.entries, delta.basis.gram, delta.basis.gram
    elif isinstance(delta, DnBlock):
        entries, g_rows, g_cols = delta.entries, delta.gram_rows, delta.gram_cols
    else:
        if basis is None:
            raise ValueError("a basis is required with a raw matrix")
        entries, g_rows, g_cols = np.asarray(delta, float), basis.gram, basis.gram
    wr = _whiten(g_rows)
    wc = _whiten(g_cols)
    core = wr @ entries @ wc
    if core.size == 0:
        return 0.0
    return float(np.linalg.svd(core, compute_uv=False)[0])


def restrict_dn(block, rows_region: str, cols_region: str, basis: ExteriorBasis | None = None):
    """Partial-data restriction: keep test functions in rows_region and
    trial functions in cols_region, with the matching Gram blocks."""
    if isinstance(block, DnMatrix):
        basis = block.basis
        entries = block.entries
    elif isinstance(block, DnBlock):
        if basis is None:
            raise ValueError("restricting a DnBlock requires the originating basis")
        entries = block.entries
    else:
        raise TypeError("restrict_dn expects a DnMatrix or DnBlock")
    rows = [i for i, r in enumerate(basis.regions) if r == rows_region]
    cols = [j for j, r in enumerate(basis.regions) if r == cols_region]
    if not rows or not cols:
        raise ValueError("a requested region has no basis functions")
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    return DnBlock(
        entries=entries[np.ix_(rows, cols)],
        gram_rows=basis.gram[np.ix_(rows, rows)],
        gram_cols=basis.gram[np.ix_(cols, cols)],
    )
