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

from dataclasses import dataclass, field

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


def _circ_conv(weights, v):
    return apply_multiplier(np.fft.fftn(weights), v)


# columns per block when interior matrices are filled blockwise
_BLOCK = 256


@dataclass
class FracOperator:
    """Fractional Laplacian of order s on a fixed grid.

    It is the principal-value singular integral with per-cell kernel
    moments (high-order product weights for n = 1, cell masses plus a
    second-difference correction on the singular cell for n = 2).
    """

    geometry: object
    s: float = None
    cns: float = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.s is None:
            self.s = self.geometry.s
        if not (0.0 < self.s < 1.0):
            raise ValueError("fractional order must lie in (0, 1)")
        if self.cns is None:
            self.cns = normalization_constant(self.geometry.n, self.s)

    # -- weights and symbols -------------------------------------------------

    def _grid_params(self):
        g = self.geometry
        return g.n, float(self.s), g.grid_points, float(g.box_halfwidth)

    def form_weights(self):
        """Nonnegative moment weights; every Galerkin form uses these."""
        if "moment" not in self._cache:
            n, s, N, L = self._grid_params()
            self._cache["moment"] = moment_weights_for(n, s, N, L)
        return self._cache["moment"]

    def form_spectrum(self):
        """Real FFT of the moment weights, so a convolution costs two FFTs."""
        if "moment_spectrum" not in self._cache:
            self._cache["moment_spectrum"] = np.fft.rfftn(self.form_weights())
        return self._cache["moment_spectrum"]

    def interior_stencil(self):
        """Moment weights between every pair of grid points inside Omega.

        Entry (i, j) is the weight at offset x_i - x_j averaged with the
        weight at x_j - x_i, so the matrix is exactly symmetric.  It is in
        Fortran order: interior blocks are scaled copies of it that LAPACK
        factors in place.
        """
        if "stencil" not in self._cache:
            geom = self.geometry
            N = geom.grid_points
            axes = tuple(range(geom.n))
            w = self.form_weights()
            w = 0.5 * (w + np.roll(np.flip(w, axes), 1, axes))  # w(r) <- w(-r)
            coords = np.unravel_index(np.flatnonzero(geom.omega_mask()), geom.shape)
            m = coords[0].size
            stencil = np.empty((m, m), order="F")
            # column blocks bound the index temporaries to m * _BLOCK entries
            for c0 in range(0, m, _BLOCK):
                cols = slice(c0, c0 + _BLOCK)
                stencil[:, cols] = w[tuple((a[:, None] - a[None, cols]) % N for a in coords)]
            self._cache["stencil"] = stencil
        return self._cache["stencil"]

    def diagnostic_weights(self):
        """High-order product weights (n = 1); moment weights otherwise."""
        if "product" not in self._cache:
            n, s, N, L = self._grid_params()
            if n == 1:
                self._cache["product"] = product_weights_for(s, N, L)
            else:
                self._cache["product"] = self.form_weights()
        return self._cache["product"]

    def quadrature_symbol(self):
        """Multiplier realized by the real-space quadrature weights."""
        if "quad_symbol" not in self._cache:
            if self.geometry.n == 1:
                sym = symbol_from_weights(self.diagnostic_weights(), self.cns)
            else:
                sym = symbol_from_weights(self.form_weights(), self.cns)
                # second-difference handling of the singular cell
                h = self.geometry.h
                i2 = central_second_moment_for(self.geometry.n, self.s, h)
                k1, k2 = self.geometry.freqs()
                lap = (2.0 - 2.0 * np.cos(k1 * h) + 2.0 - 2.0 * np.cos(k2 * h)) / h**2
                sym = sym + (self.cns * i2 / 8.0) * lap
            self._cache["quad_symbol"] = sym
        return self._cache["quad_symbol"]


def frac_laplacian(u: GridField, op: FracOperator) -> GridField:
    """Fractional Laplacian of a grid field through the quadrature symbol."""
    if not np.all(np.isfinite(u.values)):
        raise ValueError("non-finite input field")
    return GridField(u.geometry, apply_multiplier(op.quadrature_symbol(), u.values))


# ---------------------------------------------------------------------------
# pair-difference forms
# ---------------------------------------------------------------------------


def pair_form(weights, cns, h_n, g, u, v):
    """Weighted pair-difference form with kernel weights `weights`.

    Computes c h^n sum_{i,r} w_r g_i g_{i+r} (u_i - u_{i+r}) (v_i - v_{i+r}) / 2
    via circular convolutions; g may be None for a unit conductivity.
    """
    if g is None:
        conv_1 = _circ_conv(weights, np.ones_like(u))
        conv_v = _circ_conv(weights, v)
        direct = float(np.sum(u * v * conv_1))
        cross = float(np.sum(u * conv_v))
    else:
        conv_g = _circ_conv(weights, g)
        conv_gv = _circ_conv(weights, g * v)
        direct = float(np.sum(g * u * v * conv_g))
        cross = float(np.sum(g * u * conv_gv))
    return cns * h_n * (direct - cross)


def pair_matvec(weights, cns, h_n, g, u):
    """Matrix-vector product of the pair form: row i of B against u."""
    if g is None:
        conv_1 = _circ_conv(weights, np.ones_like(u))
        return cns * h_n * (u * conv_1 - _circ_conv(weights, u))
    conv_g = _circ_conv(weights, g)
    return cns * h_n * g * (u * conv_g - _circ_conv(weights, g * u))


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
    w = op.form_weights()
    if np.isscalar(g):
        return g * g * pair_form(w, op.cns, h_n, None, u.values, v.values)
    return pair_form(w, op.cns, h_n, g, u.values, v.values)


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
