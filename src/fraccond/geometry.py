"""Periodic-box geometry and grid fields.

The computational domain is the periodic box [-L, L]^n (n = 1 or 2) with N
uniformly spaced points per axis.  The inclusion Omega is a centered ball
(an interval when n = 1); everything outside its closure is the exterior,
where measurement regions live.  All fields are real samples on the grid.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Region",
    "GeometryConfig",
    "GridField",
    "mollifier_profile",
    "smoothstep",
    "plateau_profile",
    "smooth_random_field",
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
    """Named exterior measurement region.

    kind "intervals": data is a tuple of (a, b) intervals (n = 1).
    kind "annulus":   data is (r_in, r_out), the set r_in < |x| < r_out.
    """

    name: str
    kind: str
    data: tuple

    def __post_init__(self):
        if self.kind not in ("intervals", "annulus"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        if self.kind == "annulus":
            r_in, r_out = self.data
            if not (0 < r_in < r_out):
                raise ValueError("annulus needs 0 < r_in < r_out")

    def bounds(self):
        """Min/max distance from origin touched by the region."""
        if self.kind == "annulus":
            return self.data
        lo = min(min(abs(a), abs(b)) for a, b in self.data)
        hi = max(max(abs(a), abs(b)) for a, b in self.data)
        return lo, hi


def annulus_region(name, r_in, r_out, n):
    """Annular region; for n = 1 this is the interval pair (-r_out,-r_in) u (r_in,r_out)."""
    if n == 1:
        return Region(name, "intervals", ((-r_out, -r_in), (r_in, r_out)))
    return Region(name, "annulus", (float(r_in), float(r_out)))


@dataclass(frozen=True)
class GeometryConfig:
    """Dimension, fractional order, truncation box, grid and region layout.

    Invariants enforced at construction: 0 < s < min(1, n/2); the inclusion
    Omega = B_omega_radius sits strictly inside the box; every measurement
    region is contained in the exterior of Omega and in the box; N is a
    power of two with N >= 64.
    """

    n: int
    s: float
    box_halfwidth: float
    grid_points: int
    omega_radius: float = 1.0
    measurement_sets: tuple = field(default_factory=tuple)

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
        for reg in self.measurement_sets:
            lo, hi = reg.bounds()
            if lo <= self.omega_radius:
                raise ValueError(f"region {reg.name!r} touches Omega")
            if hi >= self.box_halfwidth:
                raise ValueError(f"region {reg.name!r} leaves the box")

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

    def coords(self):
        """Coordinate arrays; shape (N,) for n=1, two (N,N) arrays for n=2."""
        x = self.axis()
        if self.n == 1:
            return (x,)
        X, Y = np.meshgrid(x, x, indexing="ij")
        return (X, Y)

    def radius(self):
        """Distance from the origin at every grid point."""
        if self.n == 1:
            return np.abs(self.axis())
        X, Y = self.coords()
        return np.hypot(X, Y)

    def freqs(self):
        """Angular frequency arrays matching numpy's FFT layout."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.grid_points, d=self.h)
        if self.n == 1:
            return (k,)
        KX, KY = np.meshgrid(k, k, indexing="ij")
        return (KX, KY)

    def freq_magnitude(self):
        ks = self.freqs()
        if self.n == 1:
            return np.abs(ks[0])
        return np.hypot(ks[0], ks[1])

    # -- masks --------------------------------------------------------------

    def omega_mask(self):
        """Grid points strictly inside Omega (the Galerkin unknowns)."""
        return self.radius() < self.omega_radius

    def omega_closure_mask(self):
        """Grid cells meeting the closure of Omega; exterior data vanish here."""
        return self.radius() <= self.omega_radius + 0.5 * self.h

    def exterior_mask(self):
        return ~self.omega_closure_mask()

    def region_mask(self, name):
        reg = self.region(name)
        if reg.kind == "annulus":
            r = self.radius()
            r_in, r_out = reg.data
            return (r > r_in) & (r < r_out)
        x = self.axis()
        m = np.zeros_like(x, dtype=bool)
        for a, b in reg.data:
            m |= (x > a) & (x < b)
        return m

    def region(self, name):
        for reg in self.measurement_sets:
            if reg.name == name:
                return reg
        raise KeyError(f"no measurement region named {name!r}")

    def content_hash(self):
        """Stable hash of the geometry, recorded in conductivity file headers."""
        parts = [
            f"n={self.n}",
            f"s={self.s!r}",
            f"L={self.box_halfwidth!r}",
            f"N={self.grid_points}",
            f"omega={self.omega_radius!r}",
        ]
        for reg in self.measurement_sets:
            parts.append(f"{reg.name}:{reg.kind}:{reg.data!r}")
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def default_geometry(n=1, s=None, box_halfwidth=6.0, grid_points=None):
    """Standard layout: Omega = B_1, measurement annulus between radii 2 and 3."""
    if s is None:
        s = 0.4 if n == 1 else 0.5
    if grid_points is None:
        grid_points = 1024 if n == 1 else 128
    annulus = annulus_region("annulus", 2.0, 3.0, n)
    return GeometryConfig(
        n=n,
        s=s,
        box_halfwidth=box_halfwidth,
        grid_points=grid_points,
        omega_radius=1.0,
        measurement_sets=(annulus,),
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

    def __add__(self, other):
        self._check(other)
        return GridField(self.geometry, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return GridField(self.geometry, self.values - other.values)

    def __mul__(self, scalar):
        return GridField(self.geometry, self.values * float(scalar))

    __rmul__ = __mul__

    def _check(self, other):
        if not self.same_grid(other):
            raise ValueError("geometry mismatch")


def bandlimited_field(geometry, seed, kmodes=20):
    """Seeded random trigonometric field with a fixed mode cutoff.

    Band-limited fields are the right probes for refinement studies: the
    function (including its normalization, which uses the coefficients, not
    the samples) does not change as the grid is refined.
    """
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    L = geometry.box_halfwidth
    vals = np.zeros(geometry.shape)
    total = 0.0
    if geometry.n == 1:
        x = geometry.axis()
        for k in range(1, kmodes + 1):
            a, b = rng.standard_normal(2) / k
            total += a * a + b * b
            vals += a * np.cos(np.pi * k * x / L) + b * np.sin(np.pi * k * x / L)
    else:
        X, Y = geometry.coords()
        for kx in range(0, kmodes + 1):
            for ky in range(0, kmodes + 1):
                if kx == 0 and ky == 0:
                    continue
                a, b = rng.standard_normal(2) / (kx + ky)
                total += a * a + b * b
                phase = np.pi * (kx * X + ky * Y) / L
                vals += a * np.cos(phase) + b * np.sin(phase)
    return GridField(geometry, vals / np.sqrt(total))


def smooth_random_field(geometry, seed, kmax=8, support_radius=None):
    """Seeded smooth compactly supported field with unit sup norm.

    A band-limited random Fourier sum (counter-based Philox stream) is
    multiplied by a mollifier window so the result is C_c^infinity inside
    |x| < support_radius.
    """
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    if support_radius is None:
        support_radius = 0.85 * geometry.box_halfwidth
    x = geometry.coords()
    L = geometry.box_halfwidth
    vals = np.zeros(geometry.shape)
    if geometry.n == 1:
        for k in range(1, kmax + 1):
            a, b = rng.standard_normal(2) / k
            vals += a * np.cos(np.pi * k * x[0] / L) + b * np.sin(np.pi * k * x[0] / L)
    else:
        for kx in range(0, kmax + 1):
            for ky in range(0, kmax + 1):
                if kx == 0 and ky == 0:
                    continue
                a, b = rng.standard_normal(2) / (kx + ky)
                phase = np.pi * (kx * x[0] + ky * x[1]) / L
                vals += a * np.cos(phase) + b * np.sin(phase)
    window = mollifier_profile(geometry.radius() / support_radius)
    vals = vals * window
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals = vals / peak
    return GridField(geometry, vals)
