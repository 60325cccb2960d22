"""Fractional Laplacian, H^s inner products and nonlocal bilinear forms.

Everything acts on grid fields over the periodic box.  The operator
evaluates the singular integral through kernel-moment weights built in real
space (kernels module); since those weights are translation invariant,
applying the operator is a circular convolution carried out with an FFT,
but the weights themselves never reference the multiplier |k|^(2s).  That
multiplier (`fourier_symbol`) is kept only as an independent oracle, which
is what the cross-validation tests and the residual diagnostics rely on.

Every Fourier multiplier and every weight convolution goes through
`apply_multiplier`, one forward and one inverse real FFT: the oracle
multipliers in the full DFT layout, the weights as their cached real-FFT
half spectrum.  Every weighted Parseval sum goes through `parseval_pairing`.

The conductivity form

    B_gamma(u, v) = (c_{n,s}/2) * double integral of
        gamma^(1/2)(x) gamma^(1/2)(y) (u(x)-u(y)) (v(x)-v(y)) / |x-y|^(n+2s)

is discretized as a weighted sum over grid-point pairs.  With weight family
w and g = gamma^(1/2) it reduces to two circular convolutions:

    B(u, v) = c h^n [ sum_i g_i u_i v_i (w*g)_i - sum_i g_i v_i (w*(g u))_i ].
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cached_property

import numpy as np

from .geometry import GridField
from .kernels import (
    central_second_moment_for,
    moment_weights_for,
    normalization_constant,
    product_weights_for,
    symbol_from_weights,
)

__all__ = [
    "FracOperator",
    "frac_laplacian",
    "bilinear_form",
    "fourier_symbol",
    "bessel_symbol",
    "apply_multiplier",
    "parseval_pairing",
    "hs_inner",
    "hs_gram",
    "pair_form",
    "pair_matvec",
]


def fourier_symbol(geometry, s):
    """Multiplier |k|^(2s) of (-Delta)^s on the grid's DFT frequencies."""
    return geometry.freq_magnitude() ** (2.0 * s)


def bessel_symbol(geometry, power):
    """Bessel-potential weight (1 + |k|^2)^power on the grid's DFT frequencies."""
    return (1.0 + geometry.freq_magnitude() ** 2) ** power


def apply_multiplier(symbol, values):
    """Fourier multiplier applied to a grid field or a (k, *grid) stack.

    symbol is a real even multiplier in the full DFT layout (`fourier_symbol`,
    `bessel_symbol`, `FracOperator.quadrature_symbol`) or the real-FFT half
    spectrum of a weight array (`FracOperator.form_spectrum`), which makes
    the call the circular convolution with those weights.  The grid has
    symbol.ndim axes, the last ones of values; a symbol of another grid is
    refused, since slicing it would silently apply a different multiplier.
    """
    grid = values.shape[-symbol.ndim :]
    if symbol.shape[:-1] != grid[:-1] or symbol.shape[-1] not in (grid[-1], grid[-1] // 2 + 1):
        raise ValueError(f"multiplier of shape {symbol.shape} does not fit grid {grid}")
    axes = tuple(range(-symbol.ndim, 0))
    spec = np.fft.rfftn(values, axes=axes)
    spec *= symbol[..., : spec.shape[-1]]
    return np.fft.irfftn(spec, s=grid, axes=axes)


def parseval_pairing(weight, a_hat, b_hat, cell_volume):
    """Weighted Parseval sum  sum w Re(a_hat conj(b_hat)) h^n / N^n  of two FFTs."""
    return float(np.sum(weight * (a_hat * np.conj(b_hat)).real)) * cell_volume / a_hat.size


# columns per block when interior matrices are filled blockwise
_BLOCK = 256


class FracOperator:
    """Fractional Laplacian of order s on a fixed grid.

    It is the principal-value singular integral with per-cell kernel
    moments (high-order product weights for n = 1, cell masses plus a
    second-difference correction on the singular cell for n = 2).

    The geometry fixes everything: the order s, the constant c_{n,s} and
    every weight array.  The operator owns what it derives from them, each
    built on first use and kept for its lifetime: both weight families,
    their real-FFT half spectra, the quadrature symbol, the interior stencil, and the
    factored interior systems (`systems`, a least-recently-used store that
    `solver.interior_system` fills and bounds).  Nothing is cached outside
    an operator, so two operators share no state.
    """

    def __init__(self, geometry):
        self.geometry = geometry
        self.systems = OrderedDict()  # least recently used first

    @property
    def s(self):
        return self.geometry.s

    @cached_property
    def cns(self):
        return normalization_constant(self.geometry.n, self.geometry.s)

    # -- weights and spectra -------------------------------------------------

    @cached_property
    def form_weights(self):
        """Nonnegative moment weights; every Galerkin form uses these."""
        g = self.geometry
        return moment_weights_for(g.n, g.s, g.grid_points, g.box_halfwidth)

    @cached_property
    def form_spectrum(self):
        """Real-FFT half spectrum of the moment weights: `apply_multiplier`
        with it is their circular convolution."""
        return np.fft.rfftn(self.form_weights)

    @cached_property
    def diagnostic_weights(self):
        """High-order product weights (n = 1); moment weights otherwise."""
        g = self.geometry
        if g.n == 1:
            return product_weights_for(g.s, g.grid_points, g.box_halfwidth)
        return self.form_weights

    @cached_property
    def diagnostic_spectrum(self):
        """Real-FFT half spectrum of the diagnostic weights."""
        if self.geometry.n == 1:
            return np.fft.rfftn(self.diagnostic_weights)
        return self.form_spectrum

    @cached_property
    def interior_stencil(self):
        """Moment weights between every pair of grid points inside Omega.

        Entry (i, j) is the weight at offset x_i - x_j averaged with the
        weight at x_j - x_i, so the matrix is exactly symmetric.  It is in
        Fortran order: interior blocks are scaled copies of it that LAPACK
        factors in place.
        """
        geom = self.geometry
        N = geom.grid_points
        axes = tuple(range(geom.n))
        w = self.form_weights
        w = 0.5 * (w + np.roll(np.flip(w, axes), 1, axes))  # w(r) <- w(-r)
        coords = np.unravel_index(np.flatnonzero(geom.omega_mask()), geom.shape)
        m = coords[0].size
        stencil = np.empty((m, m), order="F")
        # column blocks bound the index temporaries to m * _BLOCK entries
        for c0 in range(0, m, _BLOCK):
            cols = slice(c0, c0 + _BLOCK)
            stencil[:, cols] = w[tuple((a[:, None] - a[None, cols]) % N for a in coords)]
        return stencil

    @cached_property
    def quadrature_symbol(self):
        """Multiplier realized by the real-space quadrature weights."""
        geom = self.geometry
        if geom.n == 1:
            return symbol_from_weights(self.diagnostic_weights, self.cns)
        sym = symbol_from_weights(self.form_weights, self.cns)
        # second-difference handling of the singular cell
        h = geom.h
        i2 = central_second_moment_for(geom.n, geom.s, h)
        k1, k2 = geom.freqs()
        lap = (2.0 - 2.0 * np.cos(k1 * h) + 2.0 - 2.0 * np.cos(k2 * h)) / h**2
        return sym + (self.cns * i2 / 8.0) * lap


def frac_laplacian(u: GridField, op: FracOperator) -> GridField:
    """Fractional Laplacian of a grid field through the quadrature symbol."""
    if not np.all(np.isfinite(u.values)):
        raise ValueError("non-finite input field")
    return GridField(u.geometry, apply_multiplier(op.quadrature_symbol, u.values))


# ---------------------------------------------------------------------------
# pair-difference forms
# ---------------------------------------------------------------------------


def pair_form(spectrum, cns, h_n, g, u, v):
    """Weighted pair-difference form of the weights with half spectrum `spectrum`.

    Computes c h^n sum_{i,r} w_r g_i g_{i+r} (u_i - u_{i+r}) (v_i - v_{i+r}) / 2
    as <v, pair_matvec(u)>; g may be None for a unit conductivity.
    """
    return float(np.sum(v * pair_matvec(spectrum, cns, h_n, g, u)))


def pair_matvec(spectrum, cns, h_n, g, u):
    """Matrix-vector product of the pair form: row i of B against u."""
    if g is None:
        conv_1 = apply_multiplier(spectrum, np.ones_like(u))
        return cns * h_n * (u * conv_1 - apply_multiplier(spectrum, u))
    conv_g = apply_multiplier(spectrum, g)
    return cns * h_n * g * (u * conv_g - apply_multiplier(spectrum, g * u))


def _gamma_sqrt(gamma):
    if gamma is None:
        return None
    if hasattr(gamma, "sqrt_values"):
        return gamma.sqrt_values
    return np.sqrt(np.asarray(gamma, dtype=float))


def bilinear_form(u: GridField, v: GridField, gamma, op: FracOperator) -> float:
    """Conductivity energy pairing B_gamma(u, v): the full moment-weight
    pair sum, which is the Galerkin discretization.

    gamma is a Conductivity, an array of conductivity values on the grid, or
    None for the unit conductivity.
    """
    if not u.same_grid(v):
        raise ValueError("geometry mismatch")
    geom = u.geometry
    g = _gamma_sqrt(gamma)
    if gamma is not None and hasattr(gamma, "geometry"):
        if gamma.geometry != geom:
            raise ValueError("geometry mismatch")
    return pair_form(op.form_spectrum, op.cns, geom.cell_volume, g, u.values, v.values)


# ---------------------------------------------------------------------------
# H^s inner products
# ---------------------------------------------------------------------------


def hs_inner(u: GridField, v: GridField, s: float) -> float:
    """Discrete H^s pairing with Bessel weight (1 + |k|^2)^s."""
    if not u.same_grid(v):
        raise ValueError("geometry mismatch")
    geom = u.geometry
    return parseval_pairing(
        bessel_symbol(geom, s), np.fft.fftn(u.values), np.fft.fftn(v.values), geom.cell_volume
    )


def hs_norm(u: GridField, s: float) -> float:
    return float(np.sqrt(max(hs_inner(u, u, s), 0.0)))


def hs_gram(basis, s: float) -> np.ndarray:
    """Gram matrix of a list of grid fields in the discrete H^s product.

    Each field is transformed once; every pair sum is a `parseval_pairing`.
    """
    if len(basis) == 0:
        raise ValueError("empty basis")
    geom = basis[0].geometry
    weight = bessel_symbol(geom, s)
    hats = [np.fft.fftn(b.values) for b in basis]
    k = len(basis)
    G = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            G[i, j] = G[j, i] = parseval_pairing(weight, hats[i], hats[j], geom.cell_volume)
    return 0.5 * (G + G.T)
