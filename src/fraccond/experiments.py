"""Stability and instability experiment suites.

Each suite probes one estimate at desk scale and returns a plain dict
payload (JSON-ready) so the command-line harness can persist and plot it:

* residuals    - Liouville identity and transformed-equation residuals with
                 a grid-refinement study.
* exterior     - Lipschitz behavior of the exterior DN difference under an
                 amplitude scan, plus pointwise exterior recovery from
                 concentrating probe bumps.
* reduction    - the two DN differences of a shrinking interior family and
                 the fitted constant of the power-shape bound.
* logmodulus   - log-modulus fit of coefficient error versus DN error over
                 an amplitude ladder, with the smallness gate applied.
* instability  - lattice-family search for an eps-separated pair with tiny
                 partial-data DN gap, plus harmonic coefficient decay.

All fitted constants are reported together with their fit quality; nothing
here claims to reproduce a theoretical constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import spearmanr

from .conductivity import (
    Conductivity,
    MandacheParams,
    Potential,
    bump_conductivity,
    check_theta0,
    liouville_potential,
    mandache_family,
    pairwise_sup_gaps,
)
from .dnmap import (
    DnMatrix,
    assemble_dn,
    basis_from_fields,
    build_exterior_basis,
    dn_operator_norm,
    restrict_dn,
)
from .geometry import (
    GridField,
    bandlimited_field,
    mollifier_profile,
    plateau_profile,
)
from .operators import (
    FracOperator,
    apply_multiplier,
    fourier_symbol,
    pair_form,
    parseval_pairing,
)

__all__ = [
    "ModulusFit",
    "ReductionCheck",
    "InstabilityRecord",
    "liouville_identity_residual",
    "mtilde_equation_residual",
    "exterior_recovery",
    "exterior_stability_scan",
    "reduction_check",
    "log_stability_fit",
    "instability_search",
    "run_suite",
    "SUITES",
]

EPS_GUARD = 1e-300


# ---------------------------------------------------------------------------
# result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModulusFit:
    C: float
    sigma: float
    q_norm_index: float
    r_squared: float
    data_points: tuple  # (x, y) per retained pair
    flagged_points: tuple  # (x, y) of pairs failing the smallness gate
    gate: float
    floor: float

    def __post_init__(self):
        if not np.isfinite(self.sigma):
            raise ValueError("fit produced a non-finite exponent")
        for x, _ in self.data_points:
            if x > 1.0:
                raise ValueError("modulus fits are restricted to x <= 1")


@dataclass(frozen=True)
class ReductionCheck:
    theta0: float
    lhs: float
    x: float
    rhs_shape: float
    fitted_constant: float


@dataclass(frozen=True)
class InstabilityRecord:
    params: MandacheParams
    pair: tuple
    gamma_gap: float
    dn_gap: float
    delta_target: float
    decay_fit: tuple  # (amplitude, rate, r_squared)
    net_size_bound: float
    packing_bound: float
    spearman_envelope: float
    decay_table: dict
    min_pairwise_gap: float


# ---------------------------------------------------------------------------
# identity residuals
# ---------------------------------------------------------------------------


def _multiplier_potential(gamma: Conductivity, s: float) -> np.ndarray:
    """Liouville potential -(-Delta)^s m / gamma^(1/2) with (-Delta)^s the
    Fourier multiplier |k|^(2s); the diagnostics' oracle for the quadrature
    potential."""
    lap_m = apply_multiplier(fourier_symbol(gamma.geometry, s), gamma.m_values)
    return -lap_m / gamma.sqrt_values


def liouville_identity_residual(gamma: Conductivity, u: GridField, phi: GridField, op: FracOperator) -> float:
    """Relative defect of the Liouville energy identity.

    The left side is the conductivity pairing evaluated by high-order pair
    quadrature; the right side is the Parseval pairing with the multiplier
    |k|^(2s) of the transformed fields, plus the potential built from that
    multiplier.  The two routes share no discretization, so the defect
    measures discretization error and must shrink under grid refinement.
    """
    geom = gamma.geometry
    g = gamma.sqrt_values
    h_n = geom.cell_volume
    lhs = pair_form(op.diagnostic_spectrum, op.cns, h_n, g, u.values, phi.values)
    q = _multiplier_potential(gamma, op.s)
    gu = g * u.values
    gphi = g * phi.values
    rhs = parseval_pairing(
        fourier_symbol(geom, op.s), np.fft.fftn(gu), np.fft.fftn(gphi), h_n
    ) + h_n * float(np.sum(q * gu * gphi))
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + EPS_GUARD)


def mtilde_equation_residual(g1: Conductivity, g2: Conductivity, op: FracOperator, n_tests: int = 10) -> float:
    """Weak-form defect of the equation for mtilde = (m1 - m2)/gamma1^(1/2).

    Tests div_s(Theta_gamma1 grad_s mtilde) = gamma1^(1/2) gamma2^(1/2)
    (q2 - q1) against a fixed battery of band-limited fields; returns the
    worst relative defect.
    """
    if g1.geometry != g2.geometry:
        raise ValueError("geometry mismatch")
    geom = g1.geometry
    h_n = geom.cell_volume
    sqrt1 = g1.sqrt_values
    sqrt2 = g2.sqrt_values
    mtilde = (g1.m_values - g2.m_values) / sqrt1
    q1 = _multiplier_potential(g1, op.s)
    q2 = _multiplier_potential(g2, op.s)
    rhs_density = sqrt1 * sqrt2 * (q2 - q1)
    worst = 0.0
    for seed in range(n_tests):
        phi = bandlimited_field(geom, seed=1000 + seed)
        lhs = pair_form(
            op.diagnostic_spectrum, op.cns, h_n, sqrt1, mtilde, phi.values
        )
        rhs = h_n * float(np.sum(rhs_density * phi.values))
        worst = max(worst, abs(lhs - rhs) / (abs(lhs) + abs(rhs) + EPS_GUARD))
    return worst


# ---------------------------------------------------------------------------
# exterior determination
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeSpec:
    """One recovery probe: a point, shrinking widths, basis column indices."""

    point: float
    widths: tuple
    indices: tuple


def exterior_recovery(M: DnMatrix, M0: DnMatrix, basis, probes) -> list:
    """Pointwise exterior conductivity estimates from concentrating probes.

    For each probe the quadratic-form ratio <Lambda_gamma phi_w, phi_w> /
    <Lambda_1 phi_w, phi_w> is recorded per width and extrapolated in
    w^(2s), the rate at which far pairs of the concentrating bump stop
    seeing the surrounding conductivity.
    """
    s = basis.geometry.s
    results = []
    for probe in probes:
        ratios = []
        for idx in probe.indices:
            num = M.entries[idx, idx]
            den = M0.entries[idx, idx]
            ratios.append(float(num / den))
        widths = np.asarray(probe.widths, dtype=float)
        est = ratios[-1]
        if len(ratios) >= 2:
            p = 2.0 * s
            w1, w2 = widths[-1], widths[-2]
            est = ratios[-1] + (ratios[-1] - ratios[-2]) * w1**p / (w2**p - w1**p)
        results.append(
            {
                "point": probe.point,
                "widths": list(map(float, widths)),
                "ratios": ratios,
                "estimate": float(est),
                "finest_ratio": float(ratios[-1]),
            }
        )
    return results


def exterior_stability_scan(pairs, basis, op: FracOperator):
    """(sup-norm exterior gap, DN-difference norm) per pair plus the fitted
    Lipschitz constant; identical pairs are excluded with a note."""
    geom = basis.geometry
    ext = geom.exterior_mask()
    data = []
    excluded = 0
    for ga, gb in pairs:
        y = float(np.max(np.abs(ga.values - gb.values)[ext]))
        Ma = assemble_dn(ga, basis, op)
        Mb = assemble_dn(gb, basis, op)
        x = dn_operator_norm(Ma - Mb)
        if x == 0.0:
            excluded += 1
            continue
        data.append((y, x))
    if not data:
        return {"data": [], "excluded": excluded, "c_hat": float("nan"), "band": float("nan")}
    cs = [y / x for y, x in data]
    return {
        "data": [(float(y), float(x)) for y, x in data],
        "excluded": excluded,
        "c_hat": float(max(cs)),
        "band": float(max(cs) / min(cs)),
    }


# ---------------------------------------------------------------------------
# reduction and log-modulus
# ---------------------------------------------------------------------------


def reduction_check(g1, g2, theta0, basis, op: FracOperator) -> ReductionCheck:
    """Both DN differences of a pair in one basis and the shape-fitted constant."""
    check_theta0(g1.geometry, theta0)
    Mg1 = assemble_dn(g1, basis, op)
    Mg2 = assemble_dn(g2, basis, op)
    x = dn_operator_norm(Mg1 - Mg2)
    q1 = liouville_potential(g1, op)
    q2 = liouville_potential(g2, op)
    Mq1 = assemble_dn(q1, basis, op)
    Mq2 = assemble_dn(q2, basis, op)
    lhs = dn_operator_norm(Mq1 - Mq2)
    shape = x + x**0.5 + x ** ((1.0 - theta0) / 2.0) if x > 0 else 0.0
    fitted = lhs / shape if shape > 0 else float("nan")
    return ReductionCheck(theta0=theta0, lhs=lhs, x=x, rhs_shape=shape, fitted_constant=fitted)


def dn_floor_estimate(basis, op: FracOperator) -> float:
    """Heuristic resolution floor of DN-difference norms: scaled roundoff of
    the unit-conductivity DN norm.  Differences below the floor are solver
    noise, not signal."""
    one = Conductivity(basis.geometry, np.ones(basis.geometry.shape), gamma0=0.5)
    base = dn_operator_norm(assemble_dn(one, basis, op))
    return 100.0 * float(np.finfo(float).eps) * base


def log_stability_fit(family, q_index, basis, op: FracOperator, theta0=0.81, delta=None) -> ModulusFit:
    """Least-squares log-modulus fit over an admissible family of pairs.

    Fits log y = log C - sigma log|log x| over pairs passing the smallness
    gate, where x is the DN-difference norm and y the L^q(Omega) distance of
    the square roots.  Pairs failing the gate are reported but excluded.
    """
    geom = basis.geometry
    n, s = geom.n, geom.s
    q_max = 2.0 * n / (n - 2.0 * s)
    if not (1.0 <= q_index <= q_max):
        raise ValueError(f"q index must lie in [1, {q_max}], got {q_index}")
    check_theta0(geom, theta0)
    if delta is None:
        delta = 0.95 * (1.0 - theta0) / 2.0
    gate = 3.0 ** (-1.0 / delta)
    floor = dn_floor_estimate(basis, op)
    omega = geom.omega_mask()

    retained = []
    flagged = []
    for ga, gb in family:
        Ma = assemble_dn(ga, basis, op)
        Mb = assemble_dn(gb, basis, op)
        x = dn_operator_norm(Ma - Mb)
        if x == 0.0:
            continue
        diff = np.abs(ga.sqrt_values - gb.sqrt_values)[omega]
        y = float((np.sum(diff**q_index) * geom.cell_volume) ** (1.0 / q_index))
        if x <= gate and x > floor:
            retained.append((float(x), y))
        else:
            flagged.append((float(x), y))
    if len(retained) < 4:
        raise ValueError(
            f"only {len(retained)} usable pairs below the gate {gate:.3e}; "
            f"at least 4 are required"
        )
    xs = np.array([p[0] for p in retained])
    ys = np.array([p[1] for p in retained])
    t = np.log(np.abs(np.log(xs)))
    A = np.vstack([np.ones_like(t), t]).T
    coef, *_ = np.linalg.lstsq(A, np.log(ys), rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((np.log(ys) - pred) ** 2))
    ss_tot = float(np.sum((np.log(ys) - np.mean(np.log(ys))) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ModulusFit(
        C=float(np.exp(coef[0])),
        sigma=float(-coef[1]),
        q_norm_index=float(q_index),
        r_squared=r2,
        data_points=tuple(retained),
        flagged_points=tuple(flagged),
        gate=float(gate),
        floor=float(floor),
    )


# ---------------------------------------------------------------------------
# instability
# ---------------------------------------------------------------------------


def coefficient_decay(entries, orders):
    """Envelope fit |a| <= A exp(-c maxorder) plus rank statistics."""
    buckets = {}
    for i in range(entries.shape[0]):
        for j in range(entries.shape[1]):
            o = max(orders[i], orders[j])
            buckets.setdefault(o, []).append(abs(float(entries[i, j])))
    xs = np.array(sorted(buckets))
    env = np.array([max(buckets[o]) for o in xs])
    good = env > 0
    A = np.vstack([np.ones(int(good.sum())), xs[good]]).T
    coef, *_ = np.linalg.lstsq(A, np.log(env[good]), rcond=None)
    pred = A @ coef
    logs = np.log(env[good])
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 - float(np.sum((logs - pred) ** 2)) / ss_tot if ss_tot > 0 else 1.0
    sp = float(spearmanr(xs[good], logs).statistic) if good.sum() > 2 else 0.0
    return {
        "amplitude": float(np.exp(coef[0])),
        "rate": float(-coef[1]),
        "r_squared": r2,
        "spearman_envelope": sp,
        "orders": [int(o) for o in xs],
        "envelope": [float(e) for e in env],
    }


def instability_search(
    params: MandacheParams, basis, op: FracOperator, count=32
) -> InstabilityRecord:
    """Search a lattice family for an eps-separated pair with a tiny
    partial-data DN gap on the annulus basis.

    Reports the theoretical targets (net radius delta and packing bound)
    next to the measured quantities; theory values come from the stated
    formulas, measured ones from the assembled matrices.
    """
    geom = basis.geometry
    members = mandache_family(params, count, geom)
    omega = geom.omega_mask()
    gaps = pairwise_sup_gaps(members, omega)

    zero_q = Potential(geom, np.zeros(geom.shape))
    M0 = assemble_dn(zero_q, basis, op)
    mats = []
    for member in members:
        q = liouville_potential(member, op)
        mats.append(assemble_dn(q, basis, op))

    region = basis.regions[0]
    best = None
    for i in range(count):
        for j in range(i + 1, count):
            if gaps[i, j] < params.eps:
                continue
            block = restrict_dn(mats[i] - mats[j], region, region, basis=basis)
            dn_gap = dn_operator_norm(block)
            if best is None or dn_gap < best[0]:
                best = (dn_gap, float(gaps[i, j]), (i, j))
    if best is None:
        raise ValueError(
            "no pair with gamma gap >= eps; family too small "
            f"(packing bound exp((beta/eps)^(n/ell)) = "
            f"{math.exp((params.beta / params.eps) ** (params.n / params.ell)):.3e})"
        )

    iu = np.triu_indices(count, k=1)
    min_gap = float(np.min(gaps[iu])) if count > 1 else 0.0
    orders = [basis.order_of(i) for i in range(len(basis))]
    decay = coefficient_decay(mats[0].entries - M0.entries, orders)
    n, ell, eps = params.n, params.ell, params.eps
    delta_target = math.exp(-(eps ** (-n / ((2 * n + 3) * ell))))
    packing = math.exp((params.beta / eps) ** (n / ell))
    net_bound = params.beta * math.exp(eps ** (-n / ell))
    return InstabilityRecord(
        params=params,
        pair=best[2],
        gamma_gap=best[1],
        dn_gap=float(best[0]),
        delta_target=delta_target,
        decay_fit=(decay["amplitude"], decay["rate"], decay["r_squared"]),
        net_size_bound=net_bound,
        packing_bound=packing,
        spearman_envelope=decay["spearman_envelope"],
        decay_table=decay,
        min_pairwise_gap=min_gap,
    )


# ---------------------------------------------------------------------------
# bundled suites (named presets, reproducible from config + seed)
# ---------------------------------------------------------------------------


def _residual_battery(geometry):
    """Five bump conductivities of varying height/width."""
    specs = [(0.5, 0.8), (0.35, 0.6), (0.25, 0.5), (-0.25, 0.7), (-0.4, 0.9)]
    return [bump_conductivity(geometry, height=a, width=w) for a, w in specs]


def suite_residuals(geometry, op, config):
    refine = config.get("refine", True)
    out = {"cases": [], "refinement": []}
    u = bandlimited_field(geometry, seed=config.get("seed", 0) + 11)
    phi = bandlimited_field(geometry, seed=config.get("seed", 0) + 23)
    for k, gamma in enumerate(_residual_battery(geometry)):
        res = liouville_identity_residual(gamma, u, phi, op)
        out["cases"].append({"case": k, "liouville_residual": float(res)})
    g1 = bump_conductivity(geometry, height=0.5, width=0.8)
    g2 = Conductivity(geometry, np.ones(geometry.shape), gamma0=0.5)
    out["mtilde_residual"] = float(mtilde_equation_residual(g1, g2, op))
    if refine and geometry.grid_points >= 128:
        from dataclasses import replace

        coarse = replace(geometry, grid_points=geometry.grid_points // 2)
        op_c = FracOperator(coarse)
        uc = bandlimited_field(coarse, seed=config.get("seed", 0) + 11)
        pc = bandlimited_field(coarse, seed=config.get("seed", 0) + 23)
        for k, (gamma_f, gamma_c) in enumerate(
            zip(_residual_battery(geometry), _residual_battery(coarse))
        ):
            fine = liouville_identity_residual(gamma_f, u, phi, op)
            crs = liouville_identity_residual(gamma_c, uc, pc, op_c)
            out["refinement"].append(
                {"case": k, "coarse": float(crs), "fine": float(fine), "ratio": float(fine / crs)}
            )
    return out


def _scan_pair(geometry, amplitude, center=2.5, halfwidth=0.5):
    x = geometry.radius()
    vals = 1.0 + amplitude * plateau_profile((x - center) / halfwidth)
    return Conductivity(geometry, vals, gamma0=0.5)


def suite_exterior(geometry, op, config):
    region = config.get("region", "annulus")
    basis = build_exterior_basis(geometry, region, config.get("basis_size", 16), "bumps")
    one = Conductivity(geometry, np.ones(geometry.shape), gamma0=0.5)
    amplitudes = config.get("amplitudes", (0.05, 0.1, 0.2))
    pairs = [(_scan_pair(geometry, a), one) for a in amplitudes]
    scan = exterior_stability_scan(pairs, basis, op)

    # recovery probes on a dedicated probe basis
    point = config.get("probe_point", 2.5)
    widths = tuple(config.get("probe_widths", (0.32, 0.226, 0.16, 0.113)))
    mask = geometry.region_mask(region)
    fields = []
    if geometry.n == 1:
        x = geometry.axis()
        for w in widths:
            fields.append(np.where(mask, mollifier_profile((x - point) / w), 0.0))
    else:
        X, Y = geometry.coords()
        for w in widths:
            fields.append(
                np.where(mask, mollifier_profile(np.hypot(X - point, Y) / w), 0.0)
            )
    orders = tuple((i, 0) for i in range(len(widths)))
    probe_basis = basis_from_fields(geometry, region, fields, orders, "bumps")
    gam = _scan_pair(geometry, config.get("recovery_height", 0.5))
    Mg = assemble_dn(gam, probe_basis, op)
    M0 = assemble_dn(one, probe_basis, op)
    probes = [ProbeSpec(point=point, widths=widths, indices=tuple(range(len(widths))))]
    recov = exterior_recovery(Mg, M0, probe_basis, probes)
    idx = np.argmin(np.abs(geometry.radius().reshape(-1) - point))
    true_val = float(gam.values.reshape(-1)[idx])
    return {
        "scan": scan,
        "recovery": recov,
        "recovery_true_value": true_val,
        "amplitudes": list(amplitudes),
    }


def suite_reduction(geometry, op, config):
    theta0 = config.get("theta0", 0.9)
    amplitude = config.get("amplitude", 0.3)
    widths = config.get("widths")
    if widths is None:
        base = 0.4
        factor = config.get("factor", 1.3)
        widths = [base / factor**k for k in range(6)]
    basis = build_exterior_basis(
        geometry, config.get("region", "annulus"), config.get("basis_size", 16), "bumps"
    )
    one = Conductivity(geometry, np.ones(geometry.shape), gamma0=0.5)
    checks = []
    for w in widths:
        g = bump_conductivity(geometry, height=amplitude, width=w)
        chk = reduction_check(g, one, theta0, basis, op)
        checks.append(
            {
                "width": float(w),
                "x": chk.x,
                "lhs": chk.lhs,
                "rhs_shape": chk.rhs_shape,
                "fitted_constant": chk.fitted_constant,
                "lhs_over_x": chk.lhs / chk.x if chk.x > 0 else float("nan"),
                "lhs_over_x_pow": chk.lhs / chk.x ** ((1 - theta0) / 2)
                if chk.x > 0
                else float("nan"),
            }
        )
    fitted = [c["fitted_constant"] for c in checks]
    return {
        "theta0": theta0,
        "checks": checks,
        "fitted_band": float(max(fitted) / min(fitted)),
        "lhs_over_x_growth": float(checks[-1]["lhs_over_x"] / checks[0]["lhs_over_x"]),
        "lhs_over_x_pow_growth": float(
            checks[-1]["lhs_over_x_pow"] / checks[0]["lhs_over_x_pow"]
        ),
    }


def suite_logmodulus(geometry, op, config):
    theta0 = config.get("theta0", 0.81)
    q_index = config.get("q_index", 2.0)
    base = config.get("base_amplitude", 8e-4)
    count = config.get("pairs", 8)
    basis = build_exterior_basis(
        geometry, config.get("region", "annulus"), config.get("basis_size", 16), "bumps"
    )
    one = Conductivity(geometry, np.ones(geometry.shape), gamma0=0.5)
    family = [
        (bump_conductivity(geometry, height=base * 2.0**-k, width=0.6), one)
        for k in range(1, count + 1)
    ]
    fit = log_stability_fit(family, q_index, basis, op, theta0=theta0)
    xs = [p[0] for p in fit.data_points]
    ys = [p[1] for p in fit.data_points]
    monotone = all(
        (xs[i] - xs[j]) * (ys[i] - ys[j]) > 0 for i in range(len(xs)) for j in range(i)
    )
    return {
        "theta0": theta0,
        "q_index": q_index,
        "C": fit.C,
        "sigma": fit.sigma,
        "r_squared": fit.r_squared,
        "gate": fit.gate,
        "floor": fit.floor,
        "data_points": [list(p) for p in fit.data_points],
        "flagged_points": [list(p) for p in fit.flagged_points],
        "monotone": bool(monotone),
    }


def suite_instability(geometry, op, config):
    params = MandacheParams(
        ell=config.get("ell", 2.5),
        eps=config.get("eps", 0.1),
        beta=config.get("beta", 1e4),
        lattice_spacing=config.get("lattice_spacing", 0.2),
        seed=config.get("seed", 0),
        s=geometry.s,
        n=geometry.n,
    )
    basis = build_exterior_basis(
        geometry, config.get("region", "annulus"), config.get("basis_size", 16), "harmonic"
    )
    count = config.get("count", 32)
    rec = instability_search(params, basis, op, count=count)
    return {
        "count": count,
        "ell": params.ell,
        "eps": params.eps,
        "beta": params.beta,
        "seed": params.seed,
        "pair": list(rec.pair),
        "gamma_gap": rec.gamma_gap,
        "dn_gap": rec.dn_gap,
        "dn_over_gamma": rec.dn_gap / rec.gamma_gap,
        "delta_target": rec.delta_target,
        "net_size_bound": rec.net_size_bound,
        "packing_bound": rec.packing_bound,
        "decay_amplitude": rec.decay_fit[0],
        "decay_rate": rec.decay_fit[1],
        "decay_r_squared": rec.decay_fit[2],
        "decay_orders": rec.decay_table["orders"],
        "decay_envelope": rec.decay_table["envelope"],
        "spearman_envelope": rec.spearman_envelope,
        "min_pairwise_gap": rec.min_pairwise_gap,
        "eps_discrete": bool(rec.min_pairwise_gap >= params.eps / 2.0),
    }


SUITES = {
    "residuals": suite_residuals,
    "exterior": suite_exterior,
    "reduction": suite_reduction,
    "logmodulus": suite_logmodulus,
    "instability": suite_instability,
}


def run_suite(name, geometry, op, config=None):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](geometry, op, config or {})
