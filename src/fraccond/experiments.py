"""Stability and instability experiment suites.

Each suite probes one estimate at desk scale and is one record in SUITES,
`Suite(run, gates, figures)`.  run is a function of the geometry, the
operator and its keyword parameters, whose defaults are the suite's
settings, returning a plain dict payload (JSON-ready) for the command-line
harness to persist; gates and figures derive its flags and plot sidecars:

* residuals    - Liouville identity and transformed-equation residuals with
                 a grid-refinement study.
* exterior     - Lipschitz behavior of the exterior DN difference under an
                 amplitude scan, plus pointwise exterior recovery from
                 concentrating probe bumps.
* reduction    - the two DN differences of a shrinking interior family and
                 the fitted constant of the power-shape bound, Lambda_q
                 from the exact Liouville identity, not a second solve.
* logmodulus   - log-modulus fit of coefficient error versus DN error over
                 an amplitude ladder, with the smallness gate applied.
* instability  - lattice-family search for an eps-separated pair with tiny
                 partial-data DN gap, plus harmonic coefficient decay.

All fitted constants are reported together with their fit quality; nothing
here claims to reproduce a theoretical constant.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .conductivity import (
    Conductivity,
    MandacheParams,
    bump_conductivity,
    check_theta0,
    mandache_family,
    pairwise_sup_gaps,
)
from .dnmap import (
    DnMatrix,
    assemble_dn,
    basis_from_fields,
    build_exterior_basis,
    dn_operator_norm,
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
    pair_form,
    pair_matvec,
    parseval_pairing,
)

__all__ = [
    "liouville_identity_residual",
    "mtilde_equation_residual",
    "exterior_recovery",
    "exterior_stability_scan",
    "log_stability_fit",
    "instability_search",
    "Suite",
    "SUITES",
]

EPS_GUARD = 1e-300


# ---------------------------------------------------------------------------
# identity residuals
# ---------------------------------------------------------------------------


def _multiplier_potential(gamma: Conductivity, op: FracOperator) -> np.ndarray:
    """Liouville potential -(-Delta)^s m / gamma^(1/2) with (-Delta)^s the
    Fourier multiplier |k|^(2s) (`op.multiplier_spectrum`); the diagnostics'
    oracle for the quadrature potential."""
    lap_m = apply_multiplier(op.multiplier_spectrum, gamma.m_values)
    return -lap_m / gamma.sqrt_values


def _multiplier_pairing(gamma: Conductivity, u: GridField, phi: GridField, op: FracOperator) -> float:
    """The Liouville identity's right side: the Parseval pairing of g u and
    g phi (g = gamma^(1/2)) with the multiplier |k|^(2s), on their real
    half spectra, plus h^n sum q g u g phi with the multiplier potential q."""
    g = gamma.sqrt_values
    gu = g * u.values
    gphi = g * phi.values
    h_n = gamma.geometry.cell_volume
    q = _multiplier_potential(gamma, op)
    return parseval_pairing(
        op.multiplier_spectrum, np.fft.rfftn(gu), np.fft.rfftn(gphi), h_n, gu.size
    ) + h_n * float(np.sum(q * gu * gphi))


def liouville_identity_residual(gamma: Conductivity, u: GridField, phi: GridField, op: FracOperator) -> float:
    """Relative defect of the Liouville energy identity.

    The left side is the conductivity pairing evaluated by high-order pair
    quadrature; the right side is the Parseval pairing with the multiplier
    |k|^(2s) of the transformed fields, plus the potential built from that
    multiplier (`_multiplier_pairing`).  The two routes share no
    discretization, so the defect measures discretization error and must
    shrink under grid refinement.
    """
    h_n = gamma.geometry.cell_volume
    lhs = pair_form(op.diagnostic_spectrum, op.cns, h_n, gamma.sqrt_values, u.values, phi.values)
    rhs = _multiplier_pairing(gamma, u, phi, op)
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + EPS_GUARD)


def mtilde_equation_residual(g1: Conductivity, g2: Conductivity, op: FracOperator) -> float:
    """Weak-form defect of the equation for mtilde = (m1 - m2)/gamma1^(1/2).

    Tests div_s(Theta_gamma1 grad_s mtilde) = gamma1^(1/2) gamma2^(1/2)
    (q2 - q1) against a fixed battery of ten band-limited fields; returns
    the worst relative defect.
    """
    if g1.geometry != g2.geometry:
        raise ValueError("geometry mismatch")
    geom = g1.geometry
    h_n = geom.cell_volume
    sqrt1 = g1.sqrt_values
    sqrt2 = g2.sqrt_values
    mtilde = (g1.m_values - g2.m_values) / sqrt1
    rhs_density = _multiplier_potential(g2, op) - _multiplier_potential(g1, op)
    rhs_density *= sqrt1 * sqrt2
    bm = pair_matvec(op.diagnostic_spectrum, op.cns, h_n, sqrt1, mtilde)
    worst = 0.0
    for seed in range(10):
        phi = bandlimited_field(geom, seed=1000 + seed)
        lhs = float(np.sum(phi.values * bm))
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


def exterior_recovery(M: DnMatrix, M0: DnMatrix, probes) -> list:
    """Pointwise exterior conductivity estimates from concentrating probes.

    For each probe the quadratic-form ratio <Lambda_gamma phi_w, phi_w> /
    <Lambda_1 phi_w, phi_w> is recorded per width and extrapolated in
    w^(2s), the rate at which far pairs of the concentrating bump stop
    seeing the surrounding conductivity.
    """
    s = M.basis.geometry.s
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


def _digest(array):
    """sha256 of an array's bytes, shortened."""
    return hashlib.sha256(np.ascontiguousarray(array)).hexdigest()[:24]


def _assembler(basis, op: FracOperator):
    """assemble_dn on one basis and operator, made once per conductivity: a
    conductivity of the same grid and values as one already given gets that
    one's DnMatrix.  Anything but a Conductivity is refused with TypeError
    before it is hashed."""
    assembled = {}

    def dn(gamma):
        if not isinstance(gamma, Conductivity):
            raise TypeError("coefficient must be a Conductivity")
        key = (_digest(gamma.values), gamma.geometry)
        if key not in assembled:
            assembled[key] = assemble_dn(gamma, basis, op)
        return assembled[key]

    return dn


def _liouville_dns(gamma: Conductivity, basis, op: FracOperator):
    """(Lambda_gamma, Lambda_q) on a basis, q = `liouville_potential(gamma)`,
    with no Potential system: the discrete Liouville transform is exact,
    B_gamma(u, phi) = B_q(g u, g phi) with g = gamma^(1/2), so Lambda_q(F) =
    Lambda_gamma(F / g).  Where g = 1 wherever a basis field is nonzero,
    F / g is F bitwise and Lambda_q is Lambda_gamma's matrix; otherwise
    Lambda_gamma is assembled on F / g, its entries kept on the basis."""
    M = assemble_dn(gamma, basis, op)
    g = gamma.sqrt_values[basis.box]
    if np.all(g[np.any(basis.stack != 0, axis=0)] == 1.0):
        return M, M
    Mq = assemble_dn(gamma, replace(basis, stack=basis.stack / g), op)
    return M, DnMatrix(entries=Mq.entries, basis=basis)


def exterior_stability_scan(pairs, basis, op: FracOperator):
    """(sup-norm exterior gap, DN-difference norm) per pair plus the fitted
    Lipschitz constant; identical pairs are excluded with a note.  Each
    distinct coefficient is assembled once (`_assembler`).  pairs is read
    once, pair by pair, so a generator need hold only the current pair."""
    geom = basis.geometry
    ext = geom.exterior_mask()
    data = []
    excluded = 0
    dn = _assembler(basis, op)
    for ga, gb in pairs:
        y = float(np.max(np.abs(ga.values - gb.values)[ext]))
        x = dn_operator_norm(dn(ga) - dn(gb))
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


def _reduction_record(Mg1, Mg2, Mq1, Mq2, theta0) -> dict:
    """x = |Lambda_g1 - Lambda_g2| and lhs = |Lambda_q1 - Lambda_q2| from
    the four DN matrices of a pair and of its Liouville potentials, with the
    constant fitted to the shape x + x^(1/2) + x^((1-theta0)/2); ratios are
    nan when x = 0."""
    x = dn_operator_norm(Mg1 - Mg2)
    lhs = dn_operator_norm(Mq1 - Mq2)
    shape = x + x**0.5 + x ** ((1.0 - theta0) / 2.0) if x > 0 else 0.0
    nan = float("nan")
    return {
        "x": x,
        "lhs": lhs,
        "rhs_shape": shape,
        "fitted_constant": lhs / shape if shape > 0 else nan,
        "lhs_over_x": lhs / x if x > 0 else nan,
        "lhs_over_x_pow": lhs / x ** ((1 - theta0) / 2) if x > 0 else nan,
    }


def dn_floor_estimate(dn, geometry) -> float:
    """Heuristic resolution floor of DN-difference norms: scaled roundoff of
    the unit-conductivity DN norm, its matrix from dn (`_assembler`).
    Differences below the floor are solver noise, not signal."""
    one = Conductivity(geometry, np.ones(geometry.shape), gamma0=0.5)
    return 100.0 * float(np.finfo(float).eps) * dn_operator_norm(dn(one))


def log_stability_fit(family, q_index, basis, op: FracOperator, theta0=0.81) -> dict:
    """Least-squares log-modulus fit over an admissible family of pairs.

    Fits log y = log C - sigma log|log x| over pairs passing the smallness
    gate x <= 3^(-1/delta), delta = 0.95 (1 - theta0)/2, where x is the
    DN-difference norm and y the L^q(Omega) distance of the square roots.  Pairs failing the gate are reported but excluded;
    monotone says whether y grows with x over the retained pairs.
    """
    geom = basis.geometry
    n, s = geom.n, geom.s
    q_max = 2.0 * n / (n - 2.0 * s)
    if not (1.0 <= q_index <= q_max):
        raise ValueError(f"q index must lie in [1, {q_max}], got {q_index}")
    check_theta0(geom, theta0)
    delta = 0.95 * (1.0 - theta0) / 2.0
    gate = 3.0 ** (-1.0 / delta)
    dn = _assembler(basis, op)
    floor = dn_floor_estimate(dn, geom)
    omega = geom.omega_mask()

    retained = []
    flagged = []
    for ga, gb in family:
        x = dn_operator_norm(dn(ga) - dn(gb))
        if x == 0.0:
            continue
        diff = np.abs(ga.sqrt_values - gb.sqrt_values)[omega]
        y = float((np.sum(diff**q_index) * geom.cell_volume) ** (1.0 / q_index))
        if x <= gate and x > floor:
            retained.append([float(x), y])
        else:
            flagged.append([float(x), y])
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
    sigma = float(-coef[1])
    if not np.isfinite(sigma):
        raise ValueError("fit produced a non-finite exponent")
    monotone = all(
        (xs[i] - xs[j]) * (ys[i] - ys[j]) > 0 for i in range(len(xs)) for j in range(i)
    )
    return {
        "theta0": theta0,
        "q_index": q_index,
        "C": float(np.exp(coef[0])),
        "sigma": sigma,
        "r_squared": r2,
        "gate": float(gate),
        "floor": float(floor),
        "data_points": retained,
        "flagged_points": flagged,
        "monotone": bool(monotone),
    }


# ---------------------------------------------------------------------------
# instability
# ---------------------------------------------------------------------------


def _average_ranks(a):
    """Ranks 1..n of the entries of a, ties sharing the mean of their ranks."""
    a = np.asarray(a, dtype=float)
    order = np.argsort(a, kind="mergesort")
    s = a[order]
    first = np.r_[True, s[1:] != s[:-1]]  # where each run of equal values starts
    bounds = np.flatnonzero(np.r_[first, True])
    mean_rank = 0.5 * (bounds[:-1] + bounds[1:] + 1)
    ranks = np.empty(a.size)
    ranks[order] = mean_rank[np.cumsum(first) - 1]
    return ranks


def _rank_correlation(a, b):
    """Spearman's rank correlation: the Pearson correlation of the average
    ranks of a and of b; nan when either is constant."""
    ra, rb = _average_ranks(a), _average_ranks(b)
    if np.ptp(ra) == 0 or np.ptp(rb) == 0:
        return math.nan
    return float(np.corrcoef(ra, rb)[0, 1])


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
    sp = _rank_correlation(xs[good], logs) if good.sum() > 2 else 0.0
    return {
        "amplitude": float(np.exp(coef[0])),
        "rate": float(-coef[1]),
        "r_squared": r2,
        "spearman_envelope": sp,
        "orders": [int(o) for o in xs],
        "envelope": [float(e) for e in env],
    }


def instability_search(params: MandacheParams, basis, op: FracOperator, count=32) -> dict:
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

    one = Conductivity(geom, np.ones(geom.shape), gamma0=0.5)
    M0 = _liouville_dns(one, basis, op)[1]
    mats = []
    for i in range(len(members)):
        mats.append(_liouville_dns(members[i], basis, op)[1])
        # the gaps are taken and the fit reads only the matrices, so each
        # member's values and cached square root go once its map is built
        members[i] = None

    best = None
    for i in range(count):
        for j in range(i + 1, count):
            if gaps[i, j] < params.eps:
                continue
            dn_gap = dn_operator_norm(mats[i] - mats[j])
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
    dn_gap, gamma_gap, pair = float(best[0]), best[1], best[2]
    return {
        "count": count,
        "ell": ell,
        "eps": eps,
        "beta": params.beta,
        "seed": params.seed,
        "pair": list(pair),
        "gamma_gap": gamma_gap,
        "dn_gap": dn_gap,
        "dn_over_gamma": dn_gap / gamma_gap,
        "delta_target": math.exp(-(eps ** (-n / ((2 * n + 3) * ell)))),
        "net_size_bound": params.beta * math.exp(eps ** (-n / ell)),
        "packing_bound": math.exp((params.beta / eps) ** (n / ell)),
        "decay_amplitude": decay["amplitude"],
        "decay_rate": decay["rate"],
        "decay_r_squared": decay["r_squared"],
        "decay_orders": decay["orders"],
        "decay_envelope": decay["envelope"],
        "spearman_envelope": decay["spearman_envelope"],
        "min_pairwise_gap": min_gap,
        "eps_discrete": bool(min_gap >= eps / 2.0),
    }


# ---------------------------------------------------------------------------
# bundled suites: a suite's keyword parameters are its [suite] config keys,
# their defaults its settings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Suite:
    """One experiment suite.  run(geometry, op, **keys) returns the payload,
    its keyword parameters the suite's [suite] keys; gates(payload) the
    named pass/fail flags that gate the run's exit status; figures(payload)
    a (stem, header, rows, plot) per plot sidecar: <stem>.dat holds the
    header lines and the rows, and <stem>.svg is `plots.svg_plot` called
    with the keyword arguments plot, or is not drawn when plot is None;
    figures warns when the payload holds no data to draw."""

    run: Callable
    gates: Callable
    figures: Callable


def _residual_battery(geometry):
    """Five bump conductivities of varying height/width, made one at a time,
    so that only the one in use keeps its cached g and m."""
    specs = [(0.5, 0.8), (0.35, 0.6), (0.25, 0.5), (-0.25, 0.7), (-0.4, 0.9)]
    return (bump_conductivity(geometry, height=a, width=w) for a, w in specs)


def suite_residuals(geometry, op, seed=0):
    out = {"cases": [], "refinement": []}
    u = bandlimited_field(geometry, seed=seed + 11)
    phi = bandlimited_field(geometry, seed=seed + 23)
    out["cases"] = [
        {"case": k, "liouville_residual": float(liouville_identity_residual(gamma, u, phi, op))}
        for k, gamma in enumerate(_residual_battery(geometry))
    ]
    g1 = bump_conductivity(geometry, height=0.5, width=0.8)
    g2 = Conductivity(geometry, np.ones(geometry.shape), gamma0=0.5)
    out["mtilde_residual"] = float(mtilde_equation_residual(g1, g2, op))
    if geometry.grid_points >= 128:
        coarse = replace(geometry, grid_points=geometry.grid_points // 2)
        op_c = FracOperator(coarse)
        uc = bandlimited_field(coarse, seed=seed + 11)
        pc = bandlimited_field(coarse, seed=seed + 23)
        for case, gamma_c in zip(out["cases"], _residual_battery(coarse)):
            k, fine = case["case"], case["liouville_residual"]
            crs = liouville_identity_residual(gamma_c, uc, pc, op_c)
            out["refinement"].append(
                {"case": k, "coarse": float(crs), "fine": float(fine), "ratio": float(fine / crs)}
            )
    return out


def residuals_gates(payload):
    gates = {"residuals_small": all(c["liouville_residual"] <= 1e-6 for c in payload["cases"])}
    if payload["refinement"]:
        gates["residuals_refine"] = all(r["ratio"] <= 0.7 for r in payload["refinement"])
    return gates


def residuals_figures(payload):
    rows = [(c["case"], c["liouville_residual"]) for c in payload["cases"]]
    header = ["Liouville identity residuals", "columns: case residual"]
    return [("residuals", header, rows, None)]


def _scan_pair(geometry, amplitude, center=2.5, halfwidth=0.5):
    x = geometry.radius
    vals = 1.0 + amplitude * plateau_profile((x - center) / halfwidth)
    return Conductivity(geometry, vals, gamma0=0.5)


def suite_exterior(
    geometry,
    op,
    basis_size=16,
    amplitudes=(0.05, 0.1, 0.2),
    probe_point=2.5,
    recovery_height=0.5,
):
    basis = build_exterior_basis(geometry, basis_size, "bumps")
    one = Conductivity(geometry, np.ones(geometry.shape), gamma0=0.5)
    # built one at a time, so a scan conductivity and its cached square
    # root are freed once its pair is assembled
    pairs = ((_scan_pair(geometry, a), one) for a in amplitudes)
    scan = exterior_stability_scan(pairs, basis, op)

    # recovery probes on a dedicated probe basis
    widths = (0.32, 0.226, 0.16, 0.113)
    box = geometry.region_box()
    mask = geometry.region_mask()[box]
    offset = geometry.distance((probe_point,) + (0.0,) * (geometry.n - 1), box)
    fields = np.stack([np.where(mask, mollifier_profile(offset / w), 0.0) for w in widths])
    orders = tuple((i, 0) for i in range(len(widths)))
    probe_basis = basis_from_fields(geometry, fields, orders, "bumps")
    gam = _scan_pair(geometry, recovery_height)
    Mg = assemble_dn(gam, probe_basis, op)
    M0 = assemble_dn(one, probe_basis, op)
    probes = [ProbeSpec(point=probe_point, widths=widths, indices=tuple(range(len(widths))))]
    recov = exterior_recovery(Mg, M0, probes)
    idx = np.argmin(np.abs(geometry.radius.reshape(-1) - probe_point))
    true_val = float(gam.values.reshape(-1)[idx])
    return {
        "scan": scan,
        "recovery": recov,
        "recovery_true_value": true_val,
        "amplitudes": list(amplitudes),
    }


def exterior_gates(payload):
    true_val = payload["recovery_true_value"]
    return {
        "lipschitz_band": payload["scan"]["band"] <= 2.0,
        "recovery_within_5pct": all(
            abs(r["estimate"] - true_val) <= 0.05 * true_val for r in payload["recovery"]
        ),
    }


def exterior_figures(payload):
    rows = []
    for r in payload["recovery"]:
        rows.extend((w, v) for w, v in zip(r["widths"], r["ratios"]))
    plot = None
    if rows:
        true_val = payload["recovery_true_value"]
        widths = [r[0] for r in rows]
        plot = dict(
            series=[
                {"x": widths, "y": [r[1] for r in rows], "kind": "points", "label": "ratio"},
                {
                    "x": [min(widths), max(widths)],
                    "y": [true_val, true_val],
                    "kind": "line",
                    "label": f"true value {true_val:g}",
                },
            ],
            xlabel="probe width",
            ylabel="recovered conductivity",
            title="exterior recovery vs true value",
        )
    scan_rows = [tuple(p) for p in payload["scan"]["data"]]
    if not rows and not scan_rows:
        warnings.warn("exterior report has no data")
    return [
        ("recovery", ["exterior recovery profile", "columns: probe_width ratio"], rows, plot),
        ("exterior_scan", ["exterior stability scan", "columns: sup_gap dn_gap"], scan_rows, None),
    ]


def suite_reduction(geometry, op, theta0=0.9, amplitude=0.3, factor=1.3, basis_size=16):
    check_theta0(geometry, theta0)
    basis = build_exterior_basis(geometry, basis_size, "bumps")
    one = Conductivity(geometry, np.ones(geometry.shape), gamma0=0.5)
    # every check compares with the same unit conductivity and its potential
    M_one, M_q_one = _liouville_dns(one, basis, op)
    checks = []
    for w in [0.4 / factor**k for k in range(6)]:
        g = bump_conductivity(geometry, height=amplitude, width=w)
        M_g, M_q = _liouville_dns(g, basis, op)
        checks.append({"width": float(w), **_reduction_record(M_g, M_one, M_q, M_q_one, theta0)})
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


def reduction_gates(payload):
    return {"fitted_band_5x": payload["fitted_band"] <= 5.0}


def reduction_figures(payload):
    rows = [(c["x"], c["lhs"]) for c in payload["checks"]]
    header = ["reduction inequality data", "columns: gamma_dn_gap schrodinger_dn_gap"]
    return [("reduction", header, rows, None)]


def suite_logmodulus(
    geometry,
    op,
    theta0=0.81,
    q_index=2.0,
    base_amplitude=8e-4,
    pairs=8,
    basis_size=16,
):
    basis = build_exterior_basis(geometry, basis_size, "bumps")
    one = Conductivity(geometry, np.ones(geometry.shape), gamma0=0.5)
    family = [
        (bump_conductivity(geometry, height=base_amplitude * 2.0**-k, width=0.6), one)
        for k in range(1, pairs + 1)
    ]
    return log_stability_fit(family, q_index, basis, op, theta0=theta0)


def logmodulus_gates(payload):
    return {
        "sigma_positive": payload["sigma"] > 0,
        "fit_quality": payload["r_squared"] >= 0.8,
        "monotone_data": payload["monotone"],
    }


def logmodulus_figures(payload):
    rows = [tuple(p) for p in payload["data_points"]]
    plot = None
    if rows:
        xs = [r[0] for r in rows]
        fit_x = sorted(xs)
        C, sigma = payload["C"], payload["sigma"]
        fit_y = [C * abs(math.log(x)) ** (-sigma) for x in fit_x]
        plot = dict(
            series=[
                {"x": xs, "y": [r[1] for r in rows], "kind": "points", "label": "pairs"},
                {
                    "x": fit_x,
                    "y": fit_y,
                    "kind": "line",
                    "label": f"C|log x|^-sigma, sigma={sigma:.2f}",
                },
            ],
            xlabel="DN difference norm",
            ylabel="L^q coefficient gap",
            title="log-modulus stability fit",
            logx=True,
            logy=True,
        )
    else:
        warnings.warn("logmodulus report has no retained data points")
    header = ["log-modulus fit data", "columns: dn_gap coefficient_gap"]
    return [("logmodulus", header, rows, plot)]


def suite_instability(
    geometry,
    op,
    seed=0,
    ell=2.5,
    eps=0.1,
    beta=1e4,
    lattice_spacing=0.2,
    count=32,
    basis_size=16,
):
    params = MandacheParams(
        ell=ell,
        eps=eps,
        beta=beta,
        lattice_spacing=lattice_spacing,
        seed=seed,
        s=geometry.s,
        n=geometry.n,
    )
    basis = build_exterior_basis(geometry, basis_size, "harmonic")
    return instability_search(params, basis, op, count=count)


def instability_gates(payload):
    return {
        "eps_discrete": payload["eps_discrete"],
        "decay_fit": payload["decay_rate"] > 0 and payload["decay_r_squared"] >= 0.9,
        "collapse_ratio": payload["dn_over_gamma"] <= 1e-3,
    }


def instability_figures(payload):
    orders = payload.get("decay_orders", [])
    env = payload.get("decay_envelope", [])
    rows = list(zip(orders, env))
    plot = None
    if rows:
        A, c = payload["decay_amplitude"], payload["decay_rate"]
        plot = dict(
            series=[
                {"x": orders, "y": env, "kind": "points", "label": "envelope"},
                {
                    "x": orders,
                    "y": [A * math.exp(-c * o) for o in orders],
                    "kind": "line",
                    "label": f"A exp(-c k), c={c:.3f}",
                },
            ],
            xlabel="max harmonic order",
            ylabel="coefficient magnitude",
            title="partial-data coefficient decay",
            logy=True,
        )
    else:
        warnings.warn("instability report has no decay data")
    header = ["harmonic coefficient decay", "columns: max_order envelope"]
    return [("decay", header, rows, plot)]


SUITES = {
    "residuals": Suite(suite_residuals, residuals_gates, residuals_figures),
    "exterior": Suite(suite_exterior, exterior_gates, exterior_figures),
    "reduction": Suite(suite_reduction, reduction_gates, reduction_figures),
    "logmodulus": Suite(suite_logmodulus, logmodulus_gates, logmodulus_figures),
    "instability": Suite(suite_instability, instability_gates, instability_figures),
}
