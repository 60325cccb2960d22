"""Periodic-box geometry and grid fields.

The computational domain is the periodic box [-L, L]^n (n = 1 or 2) with N
uniformly spaced points per axis.  The inclusion Omega is a centered ball
(an interval when n = 1); everything outside its closure is the exterior,
where the one measurement region lives: the annulus r_in < |x| < r_out,
which in one dimension is a pair of intervals.  All fields are real
samples on the grid.

This module is the one place that knows how the dimension enters a
distance: `GeometryConfig.distance` gives |x - c| on the grid or on a box
of it, and the radius, the frequency magnitude and the region masks are
built from it, so callers never branch on n to measure one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# numpy imports these on first use; importing them here keeps that cost
# (about 20 ms for numpy.random) out of the first field a run synthesizes
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

__all__ = [
    "Region",
    "GeometryConfig",
    "GridField",
    "bounding_box",
    "default_geometry",
    "mollifier_profile",
    "smoothstep",
    "plateau_profile",
    "bandlimited_field",
]


def mollifier_profile(t):
    """Standard C_c^infinity bump: exp(1 - 1/(1-t^2)) on |t| < 1, else 0, peak 1."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def smoothstep(u):
    """C^infinity transition: 0 for u <= 0, 1 for u >= 1."""
    u = np.asarray(u, dtype=float)

    def ramp(t):
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = np.exp(-1.0 / t[pos])
        return out

    a = ramp(np.clip(u, -1.0, 2.0))
    b = ramp(1.0 - np.clip(u, -1.0, 2.0))
    return a / (a + b + 1e-300)


def plateau_profile(t, edge=0.35):
    """C_c^infinity plateau: 1 on |t| <= 1-edge, smooth to 0 at |t| = 1."""
    return smoothstep((1.0 - np.abs(np.asarray(t, dtype=float))) / edge)


@dataclass(frozen=True)
class Region:
    """The exterior measurement region, the annulus r_in < |x| < r_out.

    In one dimension it is the interval pair (-r_out, -r_in) u (r_in, r_out).
    """

    r_in: float
    r_out: float

    def __post_init__(self):
        if not (0 < self.r_in < self.r_out):
            raise ValueError("annulus needs 0 < r_in < r_out")


def _norm(components):
    """Euclidean norm of one or two component arrays: |a|, or hypot(a, b)."""
    if len(components) == 1:
        return np.abs(components[0])
    return np.hypot(*components)


def bounding_box(mask):
    """Slices of the smallest box that holds every nonzero entry of mask."""
    return tuple(slice(int(a.min()), int(a.max()) + 1) for a in np.nonzero(mask))


@dataclass(frozen=True)
class GeometryConfig:
    """Dimension, fractional order, truncation box, grid and measurement
    region.

    Invariants enforced at construction: 0 < s < min(1, n/2); the inclusion
    Omega = B_omega_radius sits strictly inside the box; the measurement
    region is contained in the exterior of Omega and in the box; N is a
    power of two with N >= 64.
    """

    n: int
    s: float
    box_halfwidth: float
    grid_points: int
    omega_radius: float = 1.0
    region: Region = Region(2.0, 3.0)

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("dimension n must be 1 or 2")
        s_max = min(1.0, self.n / 2.0)
        if not (0.0 < self.s < s_max):
            raise ValueError(f"need 0 < s < {s_max} for n={self.n}, got s={self.s}")
        N = self.grid_points
        if N < 64 or (N & (N - 1)) != 0:
            raise ValueError("grid_points must be a power of two, at least 64")
        if not (0 < self.omega_radius < self.box_halfwidth):
            raise ValueError("Omega must sit strictly inside the box")
        if self.region.r_in <= self.omega_radius:
            raise ValueError("the measurement region touches Omega")
        if self.region.r_out >= self.box_halfwidth:
            raise ValueError("the measurement region leaves the box")

    # -- grid helpers -------------------------------------------------------

    @property
    def h(self):
        return 2.0 * self.box_halfwidth / self.grid_points

    @property
    def shape(self):
        return (self.grid_points,) * self.n

    @property
    def cell_volume(self):
        return self.h**self.n

    def axis(self):
        """Grid coordinates along one axis, x_j = -L + j h."""
        N = self.grid_points
        return -self.box_halfwidth + self.h * np.arange(N)

    def coords(self, box=None):
        """Coordinate arrays; shape (N,) for n=1, two (N,N) arrays for n=2.
        With box, a tuple of slices of the grid, they are read on that box."""
        x = self.axis()
        box = (slice(None),) * self.n if box is None else box
        return tuple(np.meshgrid(*(x[b] for b in box), indexing="ij"))

    def distance(self, center, box=None):
        """|x - center| at every grid point, or on box, a tuple of slices of
        the grid; center is a point of R^n."""
        return _norm(tuple(x - c for x, c in zip(self.coords(box), center, strict=True)))

    @cached_property
    def radius(self):
        """Distance from the origin at every grid point, computed once per
        geometry and read-only, since every caller shares it."""
        r = self.distance((0.0,) * self.n)
        r.setflags(write=False)
        return r

    def freqs(self):
        """Angular frequency arrays matching numpy's FFT layout."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.grid_points, d=self.h)
        return tuple(np.meshgrid(*(k,) * self.n, indexing="ij"))

    def freq_magnitude(self):
        return _norm(self.freqs())

    # -- masks --------------------------------------------------------------

    def omega_mask(self):
        """Grid points strictly inside Omega (the Galerkin unknowns)."""
        return self.radius < self.omega_radius

    def omega_closure_mask(self):
        """Grid cells meeting the closure of Omega; exterior data vanish here."""
        return self.radius <= self.omega_radius + 0.5 * self.h

    def exterior_mask(self):
        return ~self.omega_closure_mask()

    def region_mask(self):
        return (self.radius > self.region.r_in) & (self.radius < self.region.r_out)

    def region_box(self):
        """Slices of the bounding box of Omega and the region: the box the
        exterior data are built on."""
        return bounding_box(self.omega_mask() | self.region_mask())


def default_geometry(
    n=1,
    s=None,
    box_halfwidth=6.0,
    grid_points=None,
    omega_radius=1.0,
    region=(2.0, 3.0),
):
    """Standard layout: Omega = B_1, measurement annulus between radii 2 and 3.

    region is (r_in, r_out), the layout's `Region`; s defaults
    to 0.4 in 1D and 0.5 in 2D, grid_points to 1024 in 1D and 128 in 2D.
    """
    if s is None:
        s = 0.4 if n == 1 else 0.5
    if grid_points is None:
        grid_points = 1024 if n == 1 else 128
    return GeometryConfig(
        n=n,
        s=s,
        box_halfwidth=box_halfwidth,
        grid_points=grid_points,
        omega_radius=omega_radius,
        region=Region(*region),
    )


@dataclass(frozen=True)
class GridField:
    """Real samples of a function on the grid of a GeometryConfig."""

    geometry: GeometryConfig
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.geometry.shape:
            if v.size == self.geometry.grid_points**self.geometry.n:
                v = v.reshape(self.geometry.shape)
            else:
                raise ValueError("field size does not match the grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def same_grid(self, other):
        return self.geometry == other.geometry


def _random_trig_sum(geometry, seed, kmax):
    """Seeded trigonometric sum over the modes pi k / L, synthesized by one inverse real FFT.

    The modes are k = (k_1, ..., k_n) with 0 <= k_i <= kmax and |k| = sum k_i
    >= 1.  Mode k has coefficients (a, b) ~ N(0, 1) / |k|, drawn from a Philox
    stream keyed by `seed` in row-major mode order, and contributes
    a cos(pi k.x / L) + b sin(pi k.x / L).  Because x_j = -L + j h with
    h = 2L/N, pi k.x_j / L = 2 pi k.j / N - pi |k|: every mode is a DFT mode
    of the grid, and the sum is the real part of the unnormalized inverse DFT
    of c_k = (-1)^|k| (a - i b).  That real part is the inverse DFT of the
    Hermitian part, c_k / 2 at k and conj(c_k) / 2 at -k, so one `irfftn` of
    its half spectrum (last axis 0 ... N/2) gives it: c_k / 2 sits at every
    mode, and conj(c_k) / 2 is added at -k only where -k falls in the half
    spectrum, on the column k_n = 0; irfftn supplies every other conjugate.
    Modes at or above N/2 would alias, so kmax must satisfy 1 <= kmax < N/2.

    Returns the grid values and the coefficient energy sum(a^2 + b^2).
    """
    N = geometry.grid_points
    if not 1 <= kmax < N // 2:
        raise ValueError(f"mode cutoff must satisfy 1 <= k < N/2 = {N // 2}, got {kmax}")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    idx = np.unravel_index(np.arange(1, (kmax + 1) ** geometry.n), (kmax + 1,) * geometry.n)
    kabs = sum(idx)
    a, b = (rng.standard_normal((kabs.size, 2)) / kabs[:, None]).T
    # cumsum adds strictly in mode order, like a per-mode loop; np.sum's
    # pairwise order would move the normalization at roundoff
    total = float(np.cumsum(a * a + b * b)[-1])
    c = np.where(kabs % 2, -0.5, 0.5) * (a - 1j * b)
    spec = np.zeros(geometry.shape[:-1] + (N // 2 + 1,), dtype=complex)
    spec[idx] = c
    column = idx[-1] == 0
    spec[tuple(-k[column] % N for k in idx)] = np.conj(c[column])
    axes = tuple(range(geometry.n))
    return np.fft.irfftn(spec, s=geometry.shape, axes=axes, norm="forward"), total


def bandlimited_field(geometry, seed, kmodes=20):
    """Seeded random trigonometric field with a fixed mode cutoff.

    The modes pi k / L with 0 <= k_i <= kmodes, 1 <= kmodes < N/2, are DFT
    modes of the grid, and the field is synthesized by one inverse FFT.
    Band-limited fields are the right probes for refinement studies: the
    function (including its normalization, which uses the coefficients, not
    the samples) does not change as the grid is refined.
    """
    vals, total = _random_trig_sum(geometry, seed, kmodes)
    return GridField(geometry, vals / np.sqrt(total))

