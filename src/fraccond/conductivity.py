"""Conductivities, Liouville potentials, admissibility checks, bump families.

A conductivity gamma lives on the grid, is uniformly elliptic
(gamma0 <= gamma <= 1/gamma0) and deviates from the background 1 only
strictly inside the truncation box, so the background deviation
m = gamma^(1/2) - 1 is compactly supported and all global norms are
computable on the grid.

The Liouville transform sends the conductivity equation to a Schrodinger
equation with potential q = -(-Delta)^s m / gamma^(1/2).  The sign is fixed
by requiring the energy identity

    B_gamma(u, phi) = <(-Delta)^(s/2)(g u), (-Delta)^(s/2)(g phi)>
                      + <q (g u), (g phi)>,        g = gamma^(1/2),

to hold; with the opposite sign it fails at the percent level, which the
test suite demonstrates.  The potential is built from the same kernel
moments as the Galerkin forms, making the discrete transform exact to
rounding.  The admissibility proxies use the Fourier multipliers of the
operators module instead, as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import GeometryConfig, mollifier_profile
from .operators import (
    FracOperator,
    apply_multiplier,
    bessel_symbol,
    fourier_symbol,
    pair_matvec,
)

__all__ = [
    "Conductivity",
    "Potential",
    "AdmissibilityReport",
    "MandacheParams",
    "liouville_potential",
    "validate_admissibility",
    "check_theta0",
    "mandache_family",
    "bump_conductivity",
    "c_ell_norm",
    "bessel_norm_surrogate",
]


@dataclass(frozen=True)
class Conductivity:
    """Grid-sampled uniformly elliptic conductivity with cached sqrt and m."""

    geometry: GeometryConfig
    values: np.ndarray
    gamma0: float = 0.5

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(self.geometry.shape)
        if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
            raise ValueError("conductivity must be positive and finite")
        if not (0.0 < self.gamma0 < 1.0):
            raise ValueError("ellipticity constant gamma0 must lie in (0, 1)")
        if v.min() < self.gamma0 - 1e-12 or v.max() > 1.0 / self.gamma0 + 1e-12:
            raise ValueError(
                f"conductivity leaves the ellipticity band "
                f"[{self.gamma0}, {1.0 / self.gamma0}]"
            )
        # decay surrogate: the deviation from a constant background must be
        # confined strictly inside the box, so global norms are computable
        # on the grid.  Constant backgrounds other than 1 are allowed (they
        # arise in scaling identities); the edge ring must be uniform.
        margin = max(2, self.geometry.grid_points // 32)
        edge = _edge_mask(self.geometry, margin)
        if np.max(v[edge]) - np.min(v[edge]) > 1e-13 * max(1.0, np.max(np.abs(v))):
            raise ValueError("gamma must be constant near the box boundary")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @cached_property
    def sqrt_values(self):
        """g = gamma^(1/2), computed once and read-only, since every caller
        (the interior system among them) shares it."""
        g = np.sqrt(self.values)
        g.setflags(write=False)
        return g

    @cached_property
    def m_values(self):
        """m = gamma^(1/2) - 1, computed once and read-only."""
        m = self.sqrt_values - 1.0
        m.setflags(write=False)
        return m


def _edge_mask(geometry, margin):
    """Grid points within margin cells of the box boundary along any axis."""
    N = geometry.grid_points
    idx = np.arange(N)
    near = (idx < margin) | (idx >= N - margin)
    mask = near
    for _ in range(geometry.n - 1):
        mask = mask[..., None] | near
    return mask


@dataclass(frozen=True)
class Potential:
    """Liouville potential samples; sign convention as in the module docstring."""

    geometry: GeometryConfig
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(self.geometry.shape)
        if not np.all(np.isfinite(v)):
            raise ValueError("potential must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def liouville_potential(gamma: Conductivity, op: FracOperator) -> Potential:
    """Potential of the transformed Schrodinger equation.

    It uses the pair-weight principal-value operator that also defines the
    Galerkin forms, so the discrete Liouville transform holds exactly.
    """
    lap_m = pair_matvec(op.form_spectrum, op.cns, 1.0, None, gamma.m_values)
    return Potential(gamma.geometry, -lap_m / gamma.sqrt_values)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityReport:
    gamma_min: float
    gamma_max: float
    smoothness_proxies: tuple  # per conductivity: (bessel surrogate, exterior L1)
    smoothness_ok: bool
    theta0: float
    smallness_gate: float | None
    smallness_ok: bool | None
    all_ok: bool


def bessel_norm_surrogate(geometry, values, t, p):
    """Grid surrogate of the Bessel-potential norm ||<D>^t f||_{L^p}."""
    smoothed = apply_multiplier(bessel_symbol(geometry, t / 2.0), values)
    return float(
        (np.sum(np.abs(smoothed) ** p) * geometry.cell_volume) ** (1.0 / p)
    )


def check_theta0(geometry, theta0):
    """Raise ValueError unless theta0 lies in (max(1/2, 2s/n), 1)."""
    lo = max(0.5, 2.0 * geometry.s / geometry.n)
    if not (lo < theta0 < 1.0):
        raise ValueError(f"theta0 must lie in ({lo}, 1), got {theta0}")


def validate_admissibility(
    g1: Conductivity,
    g2: Conductivity,
    theta0: float,
    *,
    eps: float = 0.05,
    c1: float = 100.0,
    c2: float = 50.0,
    dn_gap: float | None = None,
    delta: float | None = None,
) -> AdmissibilityReport:
    """Check the hypotheses of the log-stability estimate on the grid.

    theta0 must lie in (max(1/2, 2s/n), 1); violating it is a hard error.
    The norm thresholds c1 (Bessel surrogate of m at smoothness 4s+2eps,
    integrability n/(2s)) and c2 (exterior L1 of (-Delta)^s m) are
    user-configured; they stand in for a priori constants, with no claim of
    matching any particular theoretical value.  When a DN-difference norm
    is supplied, the smallness gate ||dLambda|| <= 3^(-1/delta) with
    0 < delta < (1-theta0)/2 is evaluated too.  (-Delta)^s m is the Fourier
    multiplier |k|^(2s), independent of the quadrature operator.  Ellipticity
    is not rechecked: each Conductivity enforces its band when it is built.
    """
    if g1.geometry != g2.geometry:
        raise ValueError("geometry mismatch")
    geom = g1.geometry
    n, s = geom.n, geom.s
    check_theta0(geom, theta0)

    gmin = float(min(g1.values.min(), g2.values.min()))
    gmax = float(max(g1.values.max(), g2.values.max()))

    symbol = fourier_symbol(geom, s)
    proxies = []
    ext = geom.exterior_mask()
    for g in (g1, g2):
        m = g.m_values
        bessel = bessel_norm_surrogate(geom, m, 4.0 * s + 2.0 * eps, n / (2.0 * s))
        lap_m = apply_multiplier(symbol, m)
        l1_ext = float(np.sum(np.abs(lap_m[ext])) * geom.cell_volume)
        proxies.append((bessel, l1_ext))
    smoothness_ok = all(b <= c1 and l1 <= c2 for b, l1 in proxies)

    gate = None
    small_ok = None
    if dn_gap is not None:
        if delta is None:
            delta = 0.95 * (1.0 - theta0) / 2.0
        if not (0.0 < delta < (1.0 - theta0) / 2.0):
            raise ValueError("delta must lie in (0, (1-theta0)/2)")
        gate = 3.0 ** (-1.0 / delta)
        small_ok = bool(dn_gap <= gate)

    all_ok = smoothness_ok and (small_ok is not False)
    return AdmissibilityReport(
        gamma_min=gmin,
        gamma_max=gmax,
        smoothness_proxies=tuple(proxies),
        smoothness_ok=smoothness_ok,
        theta0=theta0,
        smallness_gate=gate,
        smallness_ok=small_ok,
        all_ok=all_ok,
    )


# ---------------------------------------------------------------------------
# bump conductivities and Mandache-style lattice families
# ---------------------------------------------------------------------------


def bump_conductivity(geometry, height, center=0.0, width=0.8, gamma0=None):
    """gamma = 1 + height * mollifier(|x - center| / width); center is a point
    of R^n, and a scalar c stands for (c, 0, ...)."""
    if np.isscalar(center):
        center = (center,) + (0.0,) * (geometry.n - 1)
    vals = 1.0 + height * mollifier_profile(geometry.distance(center) / width)
    if gamma0 is None:
        lo = float(vals.min())
        hi = float(vals.max())
        gamma0 = min(0.9 * lo if lo < 1 else 0.5, 0.9 / hi if hi > 1 else 0.5)
        gamma0 = float(np.clip(gamma0, 1e-3, 0.999))
    return Conductivity(geometry, vals, gamma0=gamma0)


def c_ell_norm(geometry, values, ell):
    """Discrete C^ell norm: finite differences up to floor(ell) plus a
    Hoelder quotient of the top difference at exponent ell - floor(ell).

    The differences are periodic: each is d(x + h) - d(x) with the last
    point's taken against the first, and the quotient's d(x + lag h) - d(x)
    wraps around the box the same way."""
    if geometry.n != 1:
        raise NotImplementedError("C^ell surrogate implemented for n = 1")
    k = int(math.floor(ell))
    sigma = ell - k
    h = geometry.h
    d = np.asarray(values, dtype=float)
    total = float(np.max(np.abs(d)))
    for _ in range(k):
        step = np.empty_like(d)
        np.subtract(d[1:], d[:-1], out=step[:-1])
        step[-1] = d[0] - d[-1]
        d = step / h
        total = max(total, float(np.max(np.abs(d))))
    # Hoelder quotient of the k-th difference over dyadic separations
    quot = 0.0
    N = geometry.grid_points
    lag = 1
    while lag < N // 2:
        diff = max(np.max(np.abs(d[lag:] - d[:-lag])), np.max(np.abs(d[:lag] - d[-lag:])))
        quot = max(quot, float(diff / (lag * h) ** sigma))
        lag *= 2
    return total + quot


@dataclass(frozen=True)
class MandacheParams:
    """Parameters of the lattice bump family used by the instability probe."""

    ell: float
    eps: float
    beta: float
    lattice_spacing: float
    seed: int
    s: float = 0.4
    n: int = 1

    def __post_init__(self):
        if self.eps <= 0 or self.beta <= 0 or self.ell <= 0:
            raise ValueError("eps, beta, ell must be positive")
        for name, value in (("ell", self.ell), ("ell - 2s", self.ell - 2 * self.s)):
            if value <= 0 or abs(value - round(value)) < 1e-9:
                raise ValueError(f"{name} must be a positive non-integer, got {value}")
        if self.lattice_spacing <= 0:
            raise ValueError("lattice_spacing must be positive")


def _lattice_sites(spacing, radius=0.9):
    """Bump centers inside (-radius, radius) with the given spacing."""
    count = int(math.floor(2 * radius / spacing))
    if count < 1:
        return np.array([0.0])
    left = -0.5 * spacing * (count - 1)
    return left + spacing * np.arange(count)


def _level_patterns(n_sites, count, rng):
    """Deterministic ladder of ternary level patterns, then seeded random fill.

    Levels live in {0, 1, 2}.  The ladder enumerates alternating patterns of
    increasing spatial frequency (Walsh-like), which is what exposes
    near-collisions of the measurement operator; seeded random ternary
    patterns complete the family.
    """
    patterns = []
    seen = set()

    def push(p):
        key = tuple(int(v) for v in p)
        if key not in seen:
            seen.add(key)
            patterns.append(np.array(key, dtype=float))

    push(2 * np.ones(n_sites))
    push(np.zeros(n_sites))
    push(np.ones(n_sites))
    for period in range(1, n_sites + 1):
        base = np.array([2.0 if (j // period) % 2 == 0 else 0.0 for j in range(n_sites)])
        push(base)
        push(2.0 - base)
        push(np.roll(base, 1))
    for j in range(n_sites):
        single = np.zeros(n_sites)
        single[j] = 2.0
        push(single)
        push(2.0 - single)
    while len(patterns) < count and len(seen) < 3**n_sites:
        push(rng.integers(0, 3, size=n_sites).astype(float))
    return patterns


def mandache_family(params: MandacheParams, count: int, geometry: GeometryConfig):
    """Lattice-bump conductivities gamma = 1 + sum_j level_j * eps * psi_j.

    The bumps psi_j are disjoint mollifiers on a lattice inside the unit
    ball and the levels lie in {0, 1, 2}, the nonnegative shift of a signed
    ternary packing: every member satisfies 1 <= gamma <= 2 with
    supp(gamma - 1) in B_1, distinct members differ by at least eps in sup
    norm on B_1 (the supports are disjoint), and the C^ell budget beta is
    enforced through the discrete surrogate norm.  Infeasible requests
    (count exceeding the number of distinct patterns) raise ValueError
    carrying the packing bound exp((beta/eps)^(n/ell)).
    """
    if geometry.n != 1:
        raise NotImplementedError("the lattice family is built on n = 1 grids")
    if params.eps > 0.5:
        raise ValueError("eps <= 1/2 is required to keep gamma <= 2")
    sites = _lattice_sites(params.lattice_spacing)
    n_sites = len(sites)
    max_count = 3**n_sites
    if count > max_count:
        bound = math.exp((params.beta / params.eps) ** (params.n / params.ell))
        raise ValueError(
            f"requested {count} members but only {max_count} distinct level "
            f"patterns exist at this spacing (packing bound ~ exp("
            f"(beta/eps)^(n/ell)) = {bound:.3e})"
        )
    half = 0.45 * params.lattice_spacing
    bumps = np.array([mollifier_profile(geometry.distance((c,)) / half) for c in sites])

    rng = np.random.Generator(np.random.Philox(key=int(params.seed)))
    patterns = _level_patterns(n_sites, count, rng)
    if len(patterns) < count:
        raise ValueError(f"could not realize {count} distinct patterns")

    members = []
    for p in patterns[:count]:
        # the bumps are disjoint, so each point's sum has one nonzero term
        # and is exact
        f = (p * params.eps) @ bumps
        member = Conductivity(geometry, 1.0 + f, gamma0=0.5)
        norm = c_ell_norm(geometry, member.values - 1.0, params.ell)
        if norm > params.beta:
            raise ValueError(
                f"C^ell budget exceeded: {norm:.3g} > beta = {params.beta}; "
                f"increase beta or the lattice spacing"
            )
        members.append(member)
    return members


def pairwise_sup_gaps(members, mask):
    """All pairwise sup-norm distances over the masked region."""
    k = len(members)
    values = np.array([member.values[mask] for member in members])
    gaps = np.zeros((k, k))
    for i in range(k - 1):
        gaps[i, i + 1 :] = gaps[i + 1 :, i] = np.max(np.abs(values[i + 1 :] - values[i]), axis=1)
    return gaps
