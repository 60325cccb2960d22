"""Singular-kernel quadrature weights for the periodic box.

All nonlocal forms here discretize integrals against the kernel
K(y) = |y|^(-n-2s).  Because fields are extended periodically, the kernel
is folded over the period lattice: the weight attached to a grid offset r
is the total K-mass of every cell congruent to r modulo the box.

Two weight families are built:

* "moment" weights: plain cell masses (midpoint evaluation of the field,
  exact kernel mass per cell).  They are nonnegative, which makes every
  assembled quadratic form positive semidefinite and monotone in the
  conductivity.  All Galerkin matrices use these.  In 2D the weights
  depend only on (|r1|, |r2|) up to order, so they are evaluated on the
  octant 0 <= r1 <= r2 <= N/2 and mirrored to the grid: every octant entry
  is bitwise what a full-grid evaluation gives, the other entries agree
  with it within 4e-15 relative, and the array is exactly symmetric.
* "product" weights (n = 1): high-order product-integration weights.  Each
  cell integrates the kernel against a local polynomial interpolant of the
  field; in a near zone around the singularity the field is divided by y^2
  first (it vanishes to second order there) so the interpolation stays
  smooth.  The far cells' integrals come from one Gauss-Legendre rule over
  all cells at once, and the periodic images from a Gauss-Laguerre rule on
  the steepest-descent contour of their Fourier multiplier.  These drive
  the high-accuracy diagnostic forms.

Every rule has a fixed node count, a module constant, so the module needs
numpy alone.

The builders keep nothing: `operators.FracOperator` builds each family once
and owns it.

The normalization constant c_{n,s} = 4^s Gamma(n/2+s) / (pi^(n/2) |Gamma(-s)|)
is validated against the Fourier multiplier |k|^(2s) by the test suite, not
assumed.
"""

from __future__ import annotations

from math import gamma

import numpy as np
from numpy.polynomial import polynomial as P

__all__ = [
    "normalization_constant",
    "moment_weights_for",
    "product_weights_for",
    "symbol_from_weights",
    "central_second_moment_for",
]


def normalization_constant(n, s):
    """c_{n,s} making the singular integral match the multiplier |k|^(2s)."""
    return 4.0**s * gamma(n / 2.0 + s) / (np.pi ** (n / 2.0) * abs(gamma(-s)))


# ---------------------------------------------------------------------------
# elementary kernel moments in one dimension
# ---------------------------------------------------------------------------


def _cell_mass_scaled(m, s):
    """Mass of |t|^(-1-2s) over the unit-spaced cell (m-1/2, m+1/2), m >= 1."""
    m = np.asarray(m, dtype=float)
    return ((m - 0.5) ** (-2.0 * s) - (m + 0.5) ** (-2.0 * s)) / (2.0 * s)


def _tail_mass_scaled(a_start, s, N):
    """Sum of _cell_mass_scaled(q + j N) over j >= 0 landing at q+jN >= a_start.

    Euler-Maclaurin in j with analytic antiderivative; a_start is the first
    cell index of the tail.  Accurate to ~1e-14 once a_start >> 1.
    """
    A = np.asarray(a_start, dtype=float)
    two_s = 2.0 * s
    if abs(two_s - 1.0) < 1e-14:
        integral = np.log((A + 0.5) / (A - 0.5))
    else:
        integral = ((A + 0.5) ** (1.0 - two_s) - (A - 0.5) ** (1.0 - two_s)) / (
            1.0 - two_s
        )
    integral /= 2.0 * s * N
    half = 0.5 * _cell_mass_scaled(A, s)
    deriv = (A + 0.5) ** (-1.0 - two_s) - (A - 0.5) ** (-1.0 - two_s)
    return integral + half - (N / 12.0) * deriv


# `_folded_cell_masses_1d`: exact images per side, and offsets per block,
# whose (rows, images) arrays are 0.4 MB each
_IMAGES_1D = 48
_IMAGE_ROWS = 1024
# `_moment_weights_2d`: offsets |r_i| <= _NEAR_2D get exact cell masses by a
# _GL_ORDER_2D-point Gauss-Legendre product rule; images |j_i| <= _IMAGES_2D
_NEAR_2D = 4
_IMAGES_2D = 6
_GL_ORDER_2D = 24
# `product_weights_for`: Gauss-Legendre nodes per far cell, and
# Gauss-Laguerre nodes of the image multiplier's contour integral
_FAR_CELL_NODES = 16
_LAGUERRE_NODES = 60
# `central_second_moment_for`: Gauss-Legendre nodes of the 2D polar rule
_POLAR_NODES = 16


def _folded_cell_masses_1d(N, s, h):
    """Periodized moment weights: W[r] = total kernel mass of cells = r (mod N).

    Each offset r sums the masses of its images r + jN and N - r + jN,
    j = 0 ... _IMAGES_1D, then an Euler-Maclaurin tail for each side.  The
    images are evaluated for a block of `_IMAGE_ROWS` offsets at a time,
    so no (N, images) array is formed; every offset's sum is the same
    row reduction in the same order whatever the block, so the weights do
    not depend on it bit for bit.

    W[0] is zero: offsets congruent to 0 pair a grid point with its own
    periodic copies, so they never contribute to a pair difference.
    """
    j = np.arange(_IMAGES_1D + 1)
    W = np.zeros(N)
    for start in range(0, N, _IMAGE_ROWS):
        r = np.arange(start, min(start + _IMAGE_ROWS, N))
        w = W[start : start + _IMAGE_ROWS]
        for q in (r, N - r):
            idx = q[:, None] + N * j[None, :]
            valid = idx >= 1
            contrib = np.where(valid, _cell_mass_scaled(np.maximum(idx, 1), s), 0.0)
            w += contrib.sum(axis=1)
            w += _tail_mass_scaled(q + N * (_IMAGES_1D + 1), s, N)
    W[0] = 0.0
    return W * h ** (-2.0 * s)


# ---------------------------------------------------------------------------
# public weight builders
# ---------------------------------------------------------------------------


def moment_weights_for(n, s, N, L):
    """Nonnegative periodized cell-moment weights, indexed by grid offset."""
    if n == 1:
        return _folded_cell_masses_1d(N, s, 2.0 * L / N)
    return _moment_weights_2d(s, N, L)


def _moment_weights_2d(s, N, L):
    """Moment weights of the 2D grid, evaluated on the symmetry octant.

    W(r1, r2) = W(+-r1, +-r2) = W(r2, r1), so the principal term, the exact
    near-cell masses (24-point Gauss-Legendre, |r_i| <= 4), the 168
    midpoint image terms and the uniform tail are evaluated only on the
    offsets 0 <= r1 <= r2 <= N/2, as flat arrays, in that order and with
    the images added j1 outer and j2 inner.  The (N/2+1)^2 quarter is filled
    by transposition and mirrored to the grid by r -> min(r, N - r).  Each
    octant entry is bitwise the full-grid loop's; the others differed from
    it by at most 4e-15 relative, since that loop summed a mirrored entry's
    images in the reverse order.  The result is exactly symmetric.
    """
    h = 2.0 * L / N
    M = N // 2 + 1
    r1, r2 = np.triu_indices(M)
    y1, y2 = r1 * h, r2 * h
    R2 = y1**2 + y2**2
    R2[0] = np.inf  # singular cell excluded
    W = h**2 * R2 ** (-(1.0 + s))

    # near cells: exact mass by Gauss-Legendre product rule
    nodes, wts = np.polynomial.legendre.leggauss(_GL_ORDER_2D)
    half = 0.5 * h
    WW = np.outer(wts, wts) * half * half
    for k in np.flatnonzero((r2 > 0) & (r2 <= _NEAR_2D)):
        x = int(r1[k]) * h + half * nodes
        y = int(r2[k]) * h + half * nodes
        X, Y = np.meshgrid(x, y, indexing="ij")
        W[k] = np.sum(WW * (X**2 + Y**2) ** (-(1.0 + s)))

    # periodic images by midpoint, then a uniformly spread radial tail
    shifts = range(-_IMAGES_2D, _IMAGES_2D + 1)
    for j1 in shifts:
        d1 = (y1 + 2 * L * j1) ** 2
        for j2 in shifts:
            if j1 == 0 and j2 == 0:
                continue
            W += h**2 * (d1 + (y2 + 2 * L * j2) ** 2) ** (-(1.0 + s))
    R_out = (2 * _IMAGES_2D + 1) * L
    tail = 2.0 * np.pi * R_out ** (-2.0 * s) / (2.0 * s)
    W += tail / N**2
    W[0] = 0.0

    Q = np.empty((M, M))
    Q[r1, r2] = W
    Q[r2, r1] = W
    idx = np.minimum(np.arange(N), N - np.arange(N))
    return Q[np.ix_(idx, idx)]


def _lagrange_coeffs(nodes):
    """Row i: polynomial coefficients (ascending) of the Lagrange basis l_i."""
    others = [np.delete(nodes, i) for i in range(len(nodes))]
    return np.array([P.polyfromroots(o) / np.prod(x - o) for x, o in zip(nodes, others)])


def product_weights_for(s, N, L):
    """High-order product-integration weights (one-dimensional grids only).

    Near zone of 4 cells either side of the singularity, 5-point stencils
    in the far cells.
    """
    near, stencil = 4, 5
    h = 2.0 * L / N
    half = stencil // 2
    V = np.zeros(N)

    # near zone |y| < (near + 1/2) h: interpolate f(y)/y^2 on the nodes
    # +-h ... +-near*h and integrate against y^2 K(y) = |y|^(1-2s).
    qs = np.array([q for q in range(-near, near + 1) if q != 0], dtype=float)
    coeffs = _lagrange_coeffs(qs)  # in the variable z = y/h
    Y = (near + 0.5) * h
    mmax = coeffs.shape[1]
    zmom = np.zeros(mmax)
    for m in range(0, mmax, 2):
        # integral of z^m |y|^(1-2s) dy over (-Y, Y), z = y/h
        zmom[m] = 2.0 * h ** (-m) * Y ** (m + 2.0 - 2.0 * s) / (m + 2.0 - 2.0 * s)
    cq = coeffs @ zmom
    for q, c in zip(qs.astype(int), cq):
        V[q % N] += c / (q * h) ** 2

    # principal far cells p = near+1 ... N/2: product integration with a
    # centered stencil, exact for the interpolating polynomial of degree
    # stencil-1.  The weight of node p + j is h int_{-1/2}^{1/2} l_j(z)
    # (ph + hz)^(-1-2s) dz, the moments of the cell combined by the Lagrange
    # coefficients; the singularity lies at least 9 half-widths from every
    # cell, so one Gauss-Legendre rule integrates all cells at once to
    # roundoff, where a closed-form expansion of the moments about y = 0
    # cancels like p^m.  The negative-side cell mirrors the positive one
    # (node j <-> node -j), so only the positive side is integrated.  Cells
    # at +L and -L are both kept, matching the double count in the folded
    # moment weights.
    zs = np.arange(-half, half + 1, dtype=float)
    x, wx = np.polynomial.legendre.leggauss(_FAR_CELL_NODES)
    z = 0.5 * x
    lag = P.polyval(z, _lagrange_coeffs(zs).T)  # row j: l_j at the nodes
    p = np.arange(near + 1, N // 2 + 1)
    kern = (0.5 * h * wx) * (h * (p[:, None] + z)) ** (-1.0 - 2.0 * s)
    for j, w in zip(range(-half, half + 1), lag @ kern.T):
        V[(p + j) % N] += w
        V[(-p - j) % N] += w

    # periodic images |y| > Y = L + h/2: the principal cells tile (-Y, Y)
    # exactly, and on torus frequencies the image contribution has the
    # closed multiplier T(k) = 2 int_Y^inf (1 - cos ky) K(y) dy; the unique
    # circulant weights realizing that multiplier are its inverse transform.
    V += _image_weights_1d(s, N, L)
    return V


def _image_weights_1d(s, N, L):
    """Circulant weights of the image multiplier T(k) at k = pi j / L.

    T(k) = 2 (Y^(-2s)/(2s) - C(k)) with C(k) = int_Y^inf y^(-1-2s) cos(ky) dy.
    Rotating the path to y = Y + iu/k, where e^(iky) decays fastest, gives
    C(k) = k^(2s) Re[i e^(iX) int_0^inf (X + iu)^(-1-2s) e^(-u) du], X = kY.
    That integrand is smooth (X >= pi), so Gauss-Laguerre evaluates it for
    every frequency in one matrix product.
    """
    Y = L + L / N  # (N/2 + 1/2) h with h = 2L/N
    k = np.pi * np.arange(1, N // 2 + 1) / L
    X = k * Y
    u, wu = np.polynomial.laguerre.laggauss(_LAGUERRE_NODES)
    contour = (X[:, None] + 1j * u) ** (-1.0 - 2.0 * s) @ wu
    osc = k ** (2.0 * s) * (1j * np.exp(1j * X) * contour).real
    T = np.zeros(N // 2 + 1)
    T[1:] = 2.0 * (Y ** (-2.0 * s) / (2.0 * s) - osc)
    w = -np.fft.irfft(T, N)
    w[0] = 0.0
    return w


# ---------------------------------------------------------------------------
# symbols and central-cell data
# ---------------------------------------------------------------------------


def symbol_from_weights(weights, cns):
    """Multiplier of the pair-difference operator u -> c Sum_r w_r (u - u_shift_r)."""
    if weights.ndim == 1:
        spectrum = np.fft.fft(weights).real
    else:
        spectrum = np.fft.fft2(weights).real
    sym = cns * (weights.sum() - spectrum)
    # roundoff guard: the symbol of a nonnegative-weight form is >= 0 at k=0
    flat = sym.reshape(-1)
    flat[0] = 0.0
    return sym


def central_second_moment_for(n, s, h):
    """Integral of |y|^2 K(y) = |y|^(-2s) over the singular cell (-a, a)^n, a = h/2.

    In 2D, polar coordinates over the square's eight octants give
    8 a^(2-2s)/(2-2s) int_0^(pi/4) sec^(2-2s)(t) dt; that integrand is smooth
    on [0, pi/4], so Gauss-Legendre is exact to roundoff.
    """
    a = 0.5 * h
    if n == 1:
        return 2.0 * a ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    x, wx = np.polynomial.legendre.leggauss(_POLAR_NODES)
    t = np.pi / 8.0 * (x + 1.0)
    sec_integral = np.pi / 8.0 * np.sum(wx * np.cos(t) ** (2.0 * s - 2.0))
    return 8.0 * a ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s) * sec_integral
