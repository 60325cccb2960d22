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
The transforms are numpy.fft's, so the module needs numpy alone.

The conductivity form

    B_gamma(u, v) = (c_{n,s}/2) * double integral of
        gamma^(1/2)(x) gamma^(1/2)(y) (u(x)-u(y)) (v(x)-v(y)) / |x-y|^(n+2s)

is discretized as a weighted sum over grid-point pairs.  With weight family
w and g = gamma^(1/2) it reduces to two circular convolutions:

    B(u, v) = c h^n [ sum_i g_i u_i v_i (w*g)_i - sum_i g_i v_i (w*(g u))_i ].
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
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
    "SolverCounts",
    "frac_laplacian",
    "bilinear_form",
    "fourier_symbol",
    "bessel_symbol",
    "apply_multiplier",
    "convolve_fields",
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


def apply_multiplier(symbol, values, grid=None):
    """Fourier multiplier applied to a grid field or a (k, *grid) stack.

    symbol is a real even multiplier in the full DFT layout (`fourier_symbol`,
    `bessel_symbol`, `FracOperator.quadrature_symbol`) or the real-FFT half
    spectrum of a weight array (`FracOperator.form_spectrum`), which makes
    the call the circular convolution with those weights.  The grid has
    symbol.ndim axes, the last ones of values, and one or two of them; a
    symbol of another grid is refused, since slicing it would silently apply
    a different multiplier.

    With grid given, values hold the low corner of a periodic grid of that
    shape, zero elsewhere, and the result is read back on the same corner.
    The forward transform runs its real last-axis pass over the corner's
    rows only, each padded to the grid's last axis, and the complex pass of
    the leading axis over the padded columns; the inverse runs the complex
    pass, keeps the corner's rows and runs the last-axis pass only over
    those.  No real array of the whole grid is formed, and the result is the
    full grid's, restricted to the corner, bit for bit.  A convolution is
    translation invariant, so values from any box of the grid may be given
    as its low corner: the result is the convolution read back on that box.
    The passes are numpy.fft's (`_CornerPasses`).
    """
    corner = values.shape[-symbol.ndim :]
    grid = corner if grid is None else tuple(grid)
    _check_symbol(symbol, grid)
    return _CornerPasses(values.shape, grid)(symbol, values)


def convolve_fields(spectrum, values, grid, factor=None):
    """`apply_multiplier(spectrum, factor * u, grid)` for every field u of a
    (k, *corner) stack, bit for bit, into one compact (k, *corner) array.

    spectrum is a multiplier of the grid as `apply_multiplier` takes it, in
    practice a weight array's half spectrum (`FracOperator.form_spectrum`),
    values the low corner of the grid, and factor an array of the corner's
    shape, or None for 1.  The fields go one at a time through one set of
    pass arrays (`_CornerPasses`), so no stacked spectrum is formed.  In 2D
    a zero row transforms to zero, so a field's product with factor and its
    forward real pass run over the rows from its first nonzero one to its
    last only, and the other rows enter the leading axis' pass as zeros (38
    of the 251 rows of an exterior bump's box at 2D N = 512).
    """
    grid = tuple(grid)
    _check_symbol(spectrum, grid)
    corner = values.shape[-len(grid) :]
    passes = _CornerPasses(corner, grid)
    conv = np.empty(values.shape)
    out = conv.reshape((-1,) + corner)
    for i, u in enumerate(values.reshape(out.shape)):
        rows = slice(None)
        if len(grid) == 2:
            (nonzero,) = np.nonzero(u.any(axis=1))
            rows = slice(nonzero[0], nonzero[-1] + 1) if nonzero.size else slice(0, 0)
            u = u[rows]
        out[i] = passes(spectrum, u if factor is None else factor[rows] * u, rows)
    return conv


def _check_symbol(symbol, grid):
    """Refuse a multiplier of another grid: slicing it would silently apply
    a different one."""
    if (
        symbol.ndim > 2
        or symbol.shape[:-1] != grid[:-1]
        or symbol.shape[-1] not in (grid[-1], grid[-1] // 2 + 1)
    ):
        raise ValueError(f"multiplier of shape {symbol.shape} does not fit grid {grid}")


def _fast_length(n):
    """The smallest 2^a 3^b 5^c >= n, a length the real FFT takes at full
    speed (`scipy.fft.next_fast_len(n, real=True)`)."""
    best = 1 << (n - 1).bit_length()  # the power of two
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the smallest odd * 2^a >= n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _check_corner(corner, grid):
    if any(c > p for c, p in zip(corner, grid)):
        raise ValueError(f"values of shape {corner} exceed grid {grid}")


class _CornerPasses:
    """The FFT pair of `apply_multiplier` for one stack shape on one grid,
    with the arrays its passes write kept for every call with that shape or
    a shorter stack.

    values of shape (*stack, *corner) hold the low corner of a periodic grid
    of one or two axes, zero elsewhere; rows already padded to the grid's
    last axis may be given as the corner.  The real last-axis pass writes
    the corner's rows, padded to the grid's last axis, into `half`.  In 2D
    the leading axis' complex passes run in place on `lead`, the half
    spectrum transposed to (*stack, columns, rows) and zero-padded along
    rows, so each pass runs along a contiguous last axis.  The inverse
    last-axis pass writes the corner's rows into `out`, which in 2D is
    `half`'s memory, free once `lead` holds its copy; `base` is the
    contiguous real array that holds `out` (in 2D the half spectrum's
    interleaved parts, each row two entries longer than the grid's when the
    grid's last axis is even).  A call returns its corner, a view of `out`
    that the next call overwrites.  Values with fewer fields than the stack
    it was built for are transformed in the leading fields of every array,
    prefix views that need no array of their own.
    """

    def __init__(self, shape, grid):
        n = len(grid)
        stack, corner = tuple(shape[:-n]), tuple(shape[-n:])
        _check_corner(corner, grid)
        self.grid, self.corner = tuple(grid), corner
        self.stacked = bool(stack)
        rows = stack + corner[:-1]
        self.half = np.empty(rows + (grid[-1] // 2 + 1,), dtype=complex)
        if n == 2:
            self.lead = np.empty(stack + self.half.shape[-1:] + grid[:1], dtype=complex)
            self.base = self.half.view(float)
            self.out = self.base[..., : grid[-1]]
        else:
            self.lead = None
            self.base = self.out = np.empty(rows + grid[-1:])

    def __call__(self, symbol, values, rows=slice(None)):
        """The product for values on the corner; in 2D, rows may be a slice
        of the corner's rows outside which it is zero, and values then hold
        those rows only."""
        P = self.grid[-1]
        fields = slice(len(values)) if self.stacked else slice(None)
        symbol = symbol[..., : P // 2 + 1]
        if self.lead is None:
            half = np.fft.rfft(values, P, out=self.half[fields])
            half *= symbol
        else:
            # numpy's pass is faster on a padded, contiguous copy than when
            # it gathers and pads strided rows itself
            r, lead = self.corner[0], self.lead[fields]
            lo, hi, _ = rows.indices(r)
            half = np.fft.rfft(values, P, out=self.half[fields][..., lo:hi, :])
            lead[..., :lo] = 0.0
            lead[..., lo:hi] = np.swapaxes(half, -1, -2)
            lead[..., hi:] = 0.0
            np.fft.fft(lead, out=lead)
            lead *= symbol.T
            np.fft.ifft(lead, out=lead)
            half = np.swapaxes(lead[..., :r], -1, -2)
        out = self.out[fields]
        np.fft.irfft(half, P, out=out)
        return out[..., : self.corner[-1]]


# modes of the solver's coarse space (`FracOperator.coarse_space`), one per
# frequency of the box preconditioner's full DFT grid
_COARSE_MODES = 16

# bytes of the periodic box's complex spectrum per block of columns of a
# windowed product (`WindowConvolution`): 8 of 16 columns at 2D N = 512,
# where the whole product's pass arrays are 8.1 MB
_PRODUCT_BYTES = 2**21

# frequencies per block of a stacked `parseval_pairing`: the weighted copy
# of a block of 16 spectra is 1 MB
_PAIRING_BLOCK = 4096


def parseval_pairing(weight, a_hat, b_hat, cell_volume, points=None):
    """Weighted Parseval sum  sum w Re(a_hat conj(b_hat)) h^n / N^n  of two FFTs.

    a_hat and b_hat are FFTs of grid fields, giving a float, or of (k, *grid)
    and (l, *grid) stacks, giving the (k, l) matrix of every pair's sum as one
    weighted matrix product.  They are full FFTs unless points, the number of
    grid points N^n, is given: then they are real half spectra (`rfftn`), the
    weight is given on the half spectrum, and every column of its last axis
    but k = 0 and k = N/2 stands for itself and its conjugate, so it counts
    twice.
    """
    if points is None:
        points = weight.size
    else:
        twice = np.full(weight.shape[-1], 2.0)
        twice[[0, -1]] = 1.0
        weight = weight * twice
    if a_hat.ndim == weight.ndim:
        return float(np.sum(weight * (a_hat * np.conj(b_hat)).real)) * cell_volume / points
    a = a_hat.reshape(a_hat.shape[0], -1)
    b = b_hat.reshape(b_hat.shape[0], -1)
    w = weight.reshape(-1)
    # sum w Re(a conj(b)) is a real product of the interleaved parts, summed
    # over blocks of frequencies, so no weighted copy of a whole stack is made
    P = np.zeros((len(a), len(b)))
    for start in range(0, w.size, _PAIRING_BLOCK):
        block = slice(start, start + _PAIRING_BLOCK)
        P += (a[:, block] * w[block]).view(float) @ b[:, block].view(float).T
    return P * (cell_volume / points)


class WindowConvolution:
    """The interior stencil times a stack of vectors, without the dense stencil.

    The stencil is Toeplitz in the grid offsets: (S y)_i = sum_j w(x_i - x_j)
    y_j over the points of Omega, every offset in [-D, D]^n.  Scattered into
    a zero box of side P >= 2D + 1, that sum is the circular convolution with
    the window laid out at its offsets mod P: Omega's bounding box, of side
    at most D + 1, fits in the box, and P keeps the 2D + 1 offsets of each
    axis apart.  P is the smallest such 2^a 3^b 5^c (`_fast_length`), a
    length the FFT takes at full speed (180 against a power of two's 256
    at 2D N = 512).  The vectors are scattered into the rows of the
    bounding box, the low corner of the periodic box, each row padded to the
    box's side (`points` indexes Omega there), and the FFT pair of
    `apply_multiplier` with the box as its grid transforms only those rows
    and reads them back (85 of 180 rows at 2D N = 512).  A product runs over
    blocks of columns whose complex spectrum of the periodic box stays
    within `_PRODUCT_BYTES` (8 of 16 columns at 2D N = 512; one block in 1D
    and at 2D N = 256); each column's transforms are its own, so the result
    is the one-block product bit for bit.  The padded rows and the pair's
    arrays (`_CornerPasses`) are kept for the widest block so far, and a
    block of fewer columns runs in their leading fields: Omega's points are
    rewritten, and every other point stays zero.
    The scatter and the gather index one field's flat points (`_scatter`
    and `_gather`); where Omega's points fill one contiguous range of the
    padded rows, as they always do in 1D, they are slice copies of that
    range instead of index arrays.
    `center` is the weight at offset 0, the stencil's diagonal.  A window
    of offsets [-D, D]^n with D below Omega's extent makes a box that still
    holds the bounding box as long as 2D + 1 is at least its side; the
    products then wrap the larger offsets.  The solver's preconditioner
    (`FracOperator.box_inverse_symbol`) is such a convolution with its
    spectrum replaced by an inverse symbol.
    """

    def __init__(self, window, coords, D):
        n = window.ndim
        P = _fast_length(2 * D + 1)
        span = np.arange(-D, D + 1) % P
        padded = np.zeros((P,) * n)
        padded[np.ix_(*[span] * n)] = window
        self.shape = padded.shape
        # column-major, so that its transpose, the layout of the leading
        # axis' passes (`_CornerPasses`), multiplies them contiguously
        self.spectrum = np.asfortranarray(np.fft.rfftn(padded))
        self.corner = tuple(int(a.max()) + 1 for a in coords)  # Omega's bounding box
        self.points = (slice(None),) + tuple(coords)  # Omega in a stack of rows
        self.center = float(window[(D,) * n])
        # the complex spectrum of one column on the periodic box, which the
        # passes hold (in 2D the leading axis' array)
        self._column_bytes = self.spectrum.nbytes
        self._scatter = _as_range(np.ravel_multi_index(coords, self.corner[:-1] + (P,)))
        self._rows = self._passes = self._gather = None

    def __call__(self, Y, out=None):
        """S Y for an (m, k) array Y of interior columns: Y scattered into
        the bounding box, multiplied by `spectrum` over the periodic box and
        restricted to Omega, one block of columns at a time.  The result is
        written into out, an (m, k) array whose transpose is C-contiguous (a
        column-major block or its leading columns), or into a new such array
        when out is None."""
        k = Y.shape[1]
        width = max(1, min(k, _PRODUCT_BYTES // self._column_bytes))
        if self._rows is None or len(self._rows) < width:
            self._rows = self._passes = None  # the old arrays go first
            self._rows = np.zeros((width,) + self.corner[:-1] + self.shape[-1:])
            self._passes = _CornerPasses(self._rows.shape, self.shape)
            # Omega's points in one field of the passes' output
            self._gather = _as_range(
                np.ravel_multi_index(self.points[1:], self._passes.base.shape[1:])
            )
        if out is None:
            out = np.empty((k, len(Y))).T
        for start in range(0, k, width):
            block = slice(start, min(start + width, k))
            b = block.stop - start
            rows = self._rows[:b]
            rows.reshape(b, -1)[:, self._scatter] = Y[:, block].T
            self._passes(self.spectrum, rows)
            fields = self._passes.base[:b].reshape(b, -1)
            if isinstance(self._gather, slice):
                np.copyto(out.T[block], fields[:, self._gather])
            else:
                np.take(fields, self._gather, axis=1, out=out.T[block], mode="clip")
        return out


def _as_range(flat):
    """flat, increasing flat indices, as a slice when they are one contiguous
    range, and as they are otherwise."""
    if flat[-1] - flat[0] == len(flat) - 1:
        return slice(int(flat[0]), int(flat[-1]) + 1)
    return flat


@dataclass
class SolverCounts:
    """What the solver did on one operator, for the run's provenance.

    systems counts the interior systems built, each with one
    positive-definiteness certificate, and certificate_products those of
    them certified by one product with the operator's kept certificate
    vector; pcg_solves counts the block PCG runs (one per batched solve and
    one per certificate that needed a run), pcg_iterations and
    pcg_max_iterations their total and largest numbers of block steps, and
    pcg_columns the sum over every step of its block's width, the columns
    its windowed product transformed, and coarse_columns the columns of
    each operator's one product S V of its coarse space
    (`FracOperator.coarse_space`); convolution_hits counts the applies
    that reused the operator's kept convolution; worst_residual is the
    largest relative Galerkin residual of any solved column, and
    worst_asymmetry the largest max |M - M^T| / max |M| of a DN matrix M
    before `dnmap.DnMatrix` symmetrizes it.
    """

    systems: int = 0
    pcg_solves: int = 0
    pcg_iterations: int = 0
    pcg_max_iterations: int = 0
    pcg_columns: int = 0
    coarse_columns: int = 0
    certificate_products: int = 0
    convolution_hits: int = 0
    worst_residual: float = 0.0
    worst_asymmetry: float = 0.0


class FracOperator:
    """Fractional Laplacian of order s on a fixed grid.

    It is the principal-value singular integral with per-cell kernel
    moments (high-order product weights for n = 1, cell masses plus a
    second-difference correction on the singular cell for n = 2).

    The geometry fixes everything: the order s, the constant c_{n,s} and
    every weight array.  The operator owns what it derives from them, each
    built on first use and kept for its lifetime: both weight families,
    their real-FFT half spectra, the multiplier |k|^(2s) on the half
    spectrum (`multiplier_spectrum`), the quadrature symbol, and the windowed
    interior convolution, box preconditioner and coarse space that every
    interior system is solved with (no m x m array; each system solves with
    its own shallow copies of the first two, which keep the FFT arrays of
    one block of columns).  It keeps no interior systems.  Its one slot
    `convolution` holds the weight convolution of the last read-only data
    stack that `solver.InteriorSystem.solve_many` solved, as (key, values),
    the values a compact (k, |S|) array at S, the points of the solve box
    where some datum is nonzero and those of Omega, where the Alessandrini
    identity reads it: the key holds the stack by a weak reference, so the
    slot keeps no stack alive, and g on the stack's support.  It is None
    after a solve of data that are not read-only, which no key could match.
    `certificate` holds the first vector v > 0 that certified an
    interior system of the operator, (m, 1) and read-only, and a later
    system is certified by one product with it where that suffices.
    `pcg_blocks` is the work array of the solver's block PCG, kept for the
    widest block so far, so that a run allocates no work blocks of its own,
    and so an operator serves one solve at a time.  The solver also records
    what it did in `counts`.  Nothing is cached outside an operator, so two
    operators share no state.
    """

    def __init__(self, geometry):
        self.geometry = geometry
        self.convolution = None  # (key, values at S) of the last exterior solve
        self.certificate = None  # the first certified v > 0 of an interior system
        self.pcg_blocks = None  # block PCG's (4, k, m) work array, widest k so far
        self.counts = SolverCounts()

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
    def multiplier_spectrum(self):
        """The multiplier |k|^(2s) on the real-FFT half spectrum, the last
        axis' frequencies 0 ... N/2: the residual diagnostics' oracle for the
        quadrature operator."""
        g = self.geometry
        return np.ascontiguousarray(fourier_symbol(g, g.s)[..., : g.grid_points // 2 + 1])

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
    def interior_offsets(self):
        """The weights on every offset between two points of Omega.

        Returns (window, coords, D): the moment weights symmetrized,
        w(r) <- (w(r) + w(-r)) / 2, on the offsets [-D, D]^n (taken mod N,
        the wraparound of the periodic box) as an array of side 2D + 1
        centred on offset 0, D the largest coordinate difference inside
        Omega; and each point's coordinates relative to Omega's bounding
        box, in the flat order of the grid.
        """
        geom = self.geometry
        N = geom.grid_points
        axes = tuple(range(geom.n))
        w = self.form_weights
        w = 0.5 * (w + np.roll(np.flip(w, axes), 1, axes))  # w(r) <- w(-r)
        coords = np.unravel_index(np.flatnonzero(geom.omega_mask()), geom.shape)
        D = max(int(a.max() - a.min()) for a in coords)
        span = np.arange(-D, D + 1) % N
        window = w[np.ix_(*[span] * geom.n)]
        return window, tuple(a - a.min() for a in coords), D

    @cached_property
    def interior_convolution(self):
        """Convolution of interior vectors with the symmetrized weights,
        through an FFT over Omega's bounding box (`WindowConvolution`)."""
        window, coords, D = self.interior_offsets
        # the stencil's off-diagonal entries are -c h^n times these weights,
        # so the solver's M-matrix certificate needs them nonnegative
        if window.min() < 0:
            raise RuntimeError("negative moment weights: interior blocks are not Z-matrices")
        return WindowConvolution(window, coords, D)

    @cached_property
    def box_inverse_symbol(self):
        """The solver's preconditioner R L_P^-1 E: a `WindowConvolution`
        whose spectrum is the inverse symbol of a circulant L_P on a box half
        the side of `interior_convolution`'s.

        Let corner = D + 1 be the side of Omega's bounding box and
        Dp = floor(corner / 2).  L_P = c h^n ((sum w + w_0) I - W_P) on the
        periodic box of side P = _fast_length(2 Dp + 1) >= corner, W_P the
        circular convolution with the symmetrized window truncated to the
        offsets [-Dp, Dp]^n and sum w the full grid's weight sum, A'_0's
        diagonal over c h^n.  Restricted to Omega, L_P has A'_0's diagonal
        and its every entry whose offset lies within [-Dp, Dp]^n; a larger
        offset wraps onto a central weight.  That is Strang's circulant for
        a Toeplitz matrix (Strang 1986; Chan and Ng, SIAM Review 38, 1996;
        Lei and Sun, J. Comput. Phys. 242, 2013), here of A'_0, the interior
        block of gamma = 1 and q = 0.  Its symbol c h^n (sum w + w_0 - w_P(k)),
        w_P the truncated window's real half spectrum, is at least c h^n
        times the weights the truncated window leaves out, as its offsets
        are distinct on the grid (2 Dp + 1 <= N whenever Omega lies strictly
        inside the box), so positive.  A symbol that is not positive is
        refused.  R L_P^-1 E r, E scattering into the box and R restricting
        to Omega, is one product of this convolution.
        """
        window, coords, D = self.interior_offsets
        Dp = (D + 1) // 2
        central = (slice(D - Dp, D + Dp + 1),) * window.ndim
        conv = WindowConvolution(window[central], coords, Dp)
        scale = self.cns * self.geometry.cell_volume
        symbol = scale * (self.form_weights.sum() + conv.center - conv.spectrum.real)
        if not symbol.min() > 0:
            raise ValueError("box symbol is not positive: the box operator is not definite")
        conv.spectrum = np.asfortranarray(1.0 / symbol)
        return conv

    @cached_property
    def coarse_space(self):
        """(V, SV): the coarse space of the solver's block PCG, an (m, c)
        array V with orthonormal columns, and SV the interior stencil times
        it (`interior_convolution`), both column-major.

        V spans the modes, at Omega's points, of the `_COARSE_MODES`
        frequencies k of the box's full DFT grid where the box
        preconditioner's symbol is smallest, one real mode
        cas(theta_k) = cos(theta_k) + sin(theta_k) each, theta_k = 2 pi k.x / P
        (Hartley's): the symbol is even, so cas(theta_k) and cas(theta_-k)
        span the cos and sin modes of the pair k, -k.  A coefficient moves
        A''s diagonal from A'_0's by more than those symbols, so these few
        modes carry the spread of the preconditioned spectrum of every A' of
        the operator.  They are orthonormalized by an SVD, and directions
        whose singular values fall below the rank tolerance of numpy's
        `matrix_rank` are dropped, every one past the m-th among them, so
        c <= min(m, _COARSE_MODES).  SV is one product on a shallow copy of
        `interior_convolution`, whose FFT arrays go with the copy, so the
        operator's own instance keeps none.
        """
        pre = self.box_inverse_symbol
        _, coords, _ = self.interior_offsets
        P = pre.shape[0]
        k = np.arange(P)
        # the inverse symbol on the full grid: the real-FFT half spectrum
        # holds each frequency whose last coordinate exceeds P / 2 as -k
        last = np.minimum(k, P - k)
        inverse = pre.spectrum.real
        if len(coords) == 1:
            full = inverse[last]
        else:
            full = inverse[np.where(k > P // 2, -k[:, None] % P, k[:, None]), last]
        smallest = np.argsort(-full, axis=None, kind="stable")[:_COARSE_MODES]
        frequencies = np.unravel_index(smallest, full.shape)
        theta = sum(np.multiply.outer(x, f) for x, f in zip(coords, frequencies))
        theta = theta * (2.0 * np.pi / P)
        modes = np.cos(theta)
        modes += np.sin(theta)
        U, sigma, _ = np.linalg.svd(modes, full_matrices=False)
        rank = int(np.count_nonzero(sigma > max(modes.shape) * np.finfo(float).eps * sigma[0]))
        V = np.asfortranarray(U[:, :rank])
        SV = copy.copy(self.interior_convolution)(V)
        self.counts.coarse_columns += rank
        return V, SV

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


def bilinear_form(u: GridField, v: GridField, gamma, op: FracOperator) -> float:
    """Conductivity energy pairing B_gamma(u, v): the full moment-weight
    pair sum, which is the Galerkin discretization.

    gamma is a Conductivity, or None for the unit conductivity; anything
    else is refused.
    """
    from .conductivity import Conductivity  # it imports this module

    if not u.same_grid(v):
        raise ValueError("geometry mismatch")
    geom = u.geometry
    if gamma is None:
        g = None
    elif isinstance(gamma, Conductivity):
        if gamma.geometry != geom:
            raise ValueError("geometry mismatch")
        g = gamma.sqrt_values
    else:
        raise TypeError(f"gamma must be a Conductivity or None, got {type(gamma).__name__}")
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


# half-spectrum columns per block of `hs_gram`'s leading-axis passes: a
# block of 16 fields at 2D N = 2048 is 13 MB, where the whole padded half
# spectrum is 537 MB
_GRAM_COLUMNS = 24


def hs_gram(stack, geometry, s: float) -> np.ndarray:
    """Gram matrix of a (k, *corner) stack of fields in the discrete H^s
    product of the geometry's grid.

    The fields lie on a box of the grid, given as its low corner and zero
    elsewhere: the pairing is translation invariant, so the box may lie
    anywhere.  The real last-axis pass of the real FFT runs over the
    corner's rows into one (k, *corner[:-1], N/2 + 1) array, numpy padding
    each row to the grid's last axis itself: it is the box's own transform,
    and in 1D the whole one.  The leading axis is then padded and
    transformed one block of half-spectrum columns at a time, into one
    array that every block of the same width reuses, and each block's
    stacked `parseval_pairing` is added, so no complex stack of the grid's
    size is formed.  The pass runs along the strided axis: a transposed,
    contiguous copy of each block ran a few percent faster at 2D N = 512,
    but its two fresh arrays per block cost more page faults than that.
    Consecutive blocks share their edge column: the pairing counts a
    block's first and last column once, as the half spectrum's own edges
    k = 0 and k = N/2 must count, so a shared column counts twice, as every
    other column must.  With no leading axis there is one block, the whole
    half spectrum."""
    if len(stack) == 0:
        raise ValueError("empty basis")
    grid = geometry.shape
    stack = np.asarray(stack, dtype=float)
    _check_corner(stack.shape[1:], grid)
    hats = np.fft.rfft(stack, grid[-1], axis=-1)
    weight = bessel_symbol(geometry, s)[..., : hats.shape[-1]]
    last = hats.shape[-1] - 1
    step = _GRAM_COLUMNS if geometry.n > 1 else last
    points = geometry.grid_points**geometry.n
    G = 0.0
    spectrum = None
    for start in range(0, last, step):
        columns = (Ellipsis, slice(start, min(start + step, last) + 1))
        block = hats[columns]
        if geometry.n > 1:
            width = block.shape[-1]
            if spectrum is None or spectrum.shape[-1] != width:
                spectrum = np.empty((len(block), grid[0], width), dtype=complex)
            block = np.fft.fft(block, grid[0], axis=-2, out=spectrum)
        G = G + parseval_pairing(weight[columns], block, block, geometry.cell_volume, points)
    return 0.5 * (G + G.T)
