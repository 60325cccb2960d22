"""Fractional Laplacian, H^s inner products and nonlocal bilinear forms.

Everything acts on grid fields over the periodic box.  The operator
evaluates the singular integral through kernel-moment weights built in real
space (kernels module); since those weights are translation invariant,
applying the operator is a circular convolution carried out with an FFT,
but the weights themselves never reference the multiplier |k|^(2s).  That
multiplier (`fourier_symbol`) is kept only as an independent oracle, which
is what the cross-validation tests and the residual diagnostics rely on.

Every Fourier multiplier goes through `apply_multiplier` and every weighted
Parseval sum through `parseval_pairing`.

The conductivity form

    B_gamma(u, v) = (c_{n,s}/2) * double integral of
        gamma^(1/2)(x) gamma^(1/2)(y) (u(x)-u(y)) (v(x)-v(y)) / |x-y|^(n+2s)

is discretized as a weighted sum over grid-point pairs.  With weight family
w and g = gamma^(1/2) it reduces to two circular convolutions:

    B(u, v) = c h^n [ sum_i g_i u_i v_i (w*g)_i - sum_i g_i u_i (w*(g v))_i ].
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
    """Fourier multiplier applied to a grid field: ifft(symbol * fft(values)).

    The product is taken in place with the operand order symbol * fft(values)
    fixed: a complex product rounds differently with the operands swapped,
    which the `*` operator may do when it reuses a temporary.
    """
    spec = np.fft.fftn(values)
    np.multiply(symbol, spec, out=spec)
    return np.fft.ifftn(spec).real


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
    their FFTs, the quadrature symbol, the interior stencil, and the
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
        """FFT of the moment weights: the multiplier of their convolution."""
        return np.fft.fftn(self.form_weights)

    @cached_property
    def form_half_spectrum(self):
        """Real FFT of the moment weights, for the solver's stacked real FFTs."""
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
        """FFT of the diagnostic weights."""
        if self.geometry.n == 1:
            return np.fft.fftn(self.diagnostic_weights)
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
    """Weighted pair-difference form of the weights w with FFT `spectrum`.

    Computes c h^n sum_{i,r} w_r g_i g_{i+r} (u_i - u_{i+r}) (v_i - v_{i+r}) / 2
    via circular convolutions; g may be None for a unit conductivity.
    """
    if g is None:
        conv_1 = apply_multiplier(spectrum, np.ones_like(u))
        conv_v = apply_multiplier(spectrum, v)
        direct = float(np.sum(u * v * conv_1))
        cross = float(np.sum(u * conv_v))
    else:
        conv_g = apply_multiplier(spectrum, g)
        conv_gv = apply_multiplier(spectrum, g * v)
        direct = float(np.sum(g * u * v * conv_g))
        cross = float(np.sum(g * u * conv_gv))
    return cns * h_n * (direct - cross)


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
    if isinstance(gamma, GridField):
        return np.sqrt(gamma.values)
    arr = np.asarray(gamma, dtype=float)
    if arr.ndim == 0:
        return float(np.sqrt(arr))
    return np.sqrt(arr)


def bilinear_form(u: GridField, v: GridField, gamma, op: FracOperator) -> float:
    """Conductivity energy pairing B_gamma(u, v): the full moment-weight
    pair sum, which is the Galerkin discretization."""
    if not u.same_grid(v):
        raise ValueError("geometry mismatch")
    geom = u.geometry
    g = _gamma_sqrt(gamma)
    if gamma is not None and hasattr(gamma, "geometry"):
        if gamma.geometry != geom:
            raise ValueError("geometry mismatch")
    h_n = geom.cell_volume
    w_hat = op.form_spectrum
    if np.isscalar(g):
        return g * g * pair_form(w_hat, op.cns, h_n, None, u.values, v.values)
    return pair_form(w_hat, op.cns, h_n, g, u.values, v.values)


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
