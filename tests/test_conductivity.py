"""Conductivity data model, Liouville transform, admissibility, families."""

import numpy as np
import pytest

import fraccond.conductivity as conductivity
from fraccond.conductivity import (
    Conductivity,
    MandacheParams,
    Potential,
    bessel_norm_surrogate,
    bump_conductivity,
    c_ell_norm,
    liouville_potential,
    mandache_family,
    pairwise_sup_gaps,
    validate_admissibility,
)
from fraccond.experiments import _multiplier_potential
from fraccond.geometry import GeometryConfig, mollifier_profile
from fraccond.operators import apply_multiplier, fourier_symbol, parseval_pairing
from fraccond.solver import interior_system


class TestConductivityType:
    def test_constant_one(self, geom):
        g = Conductivity(geom, np.ones(geom.shape), gamma0=0.5)
        assert np.all(g.m_values == 0.0)

    def test_constant_four(self, geom):
        g = Conductivity(geom, np.full(geom.shape, 4.0), gamma0=0.25)
        assert np.allclose(g.m_values, 1.0)

    def test_ellipticity_violation(self, geom):
        with pytest.raises(ValueError, match="ellipticity"):
            Conductivity(geom, np.full(geom.shape, 3.0), gamma0=0.5)

    def test_nonpositive_rejected(self, geom):
        vals = np.ones(geom.shape)
        vals.reshape(-1)[5] = -1.0
        with pytest.raises(ValueError):
            Conductivity(geom, vals, gamma0=0.5)

    def test_edge_deviation_rejected(self, geom):
        vals = np.ones(geom.shape)
        vals.reshape(-1)[0] = 1.5  # first grid point sits at the box edge
        with pytest.raises(ValueError, match="boundary"):
            Conductivity(geom, vals, gamma0=0.5)

    def test_edge_deviation_on_one_axis_rejected_2d(self, geom2d):
        # cell (0, N/2) lies in the edge ring along the first axis only
        vals = np.ones(geom2d.shape)
        vals[0, geom2d.grid_points // 2] = 1.5
        with pytest.raises(ValueError, match="boundary"):
            Conductivity(geom2d, vals, gamma0=0.5)

    def test_bump_at_a_point_2d(self, geom2d):
        X, Y = geom2d.coords()
        ref = 1.0 + 0.5 * mollifier_profile(np.hypot(X - 0.3, Y - -0.2) / 0.8)
        g = bump_conductivity(geom2d, height=0.5, center=(0.3, -0.2), width=0.8)
        assert np.array_equal(g.values, ref)

    def test_bump_peak(self, geom):
        g = bump_conductivity(geom, height=3.0, width=0.8)
        assert np.max(g.m_values) == pytest.approx(1.0, abs=1e-12)  # sqrt(4) - 1

    def test_values_immutable(self, geom):
        g = bump_conductivity(geom, height=0.5)
        with pytest.raises(ValueError):
            g.values[0] = 2.0

    def test_sqrt_and_m_computed_once_and_shared(self, geom, op_quad):
        g = bump_conductivity(geom, height=0.5)
        assert g.sqrt_values is g.sqrt_values and g.m_values is g.m_values
        assert np.array_equal(g.sqrt_values, np.sqrt(g.values))
        assert np.array_equal(g.m_values, np.sqrt(g.values) - 1.0)
        for a in (g.sqrt_values, g.m_values):
            with pytest.raises(ValueError):
                a[0] = 2.0
        # the interior system shares g instead of holding its own copy
        assert interior_system(g, op_quad).g is g.sqrt_values


class TestBackgroundDeviation:
    def test_range_bounds(self, geom):
        g = bump_conductivity(geom, height=-0.4, width=0.8, gamma0=0.5)
        m = g.m_values
        g0 = g.gamma0
        assert np.all(m >= np.sqrt(g0) - 1 - 1e-12)
        assert np.all(m <= 1 / np.sqrt(g0) - 1 + 1e-12)

    def test_round_trip(self, geom):
        g = bump_conductivity(geom, height=0.7, width=0.9)
        m = g.m_values
        rebuilt = Conductivity(geom, (1.0 + m) ** 2, gamma0=g.gamma0)
        assert np.max(np.abs(rebuilt.m_values - m)) <= 1e-12


class TestLiouvillePotential:
    # the quadrature potential and the residual diagnostics' multiplier one
    def test_unit_gamma_zero_potential(self, geom, op_quad, ones_gamma):
        for q in (liouville_potential(ones_gamma, op_quad).values,
                  _multiplier_potential(ones_gamma, op_quad)):
            assert np.max(np.abs(q)) <= 1e-12

    def test_constant_gamma_zero_potential(self, geom, op_quad):
        g = Conductivity(geom, np.full(geom.shape, 2.0), gamma0=0.5)
        for q in (liouville_potential(g, op_quad).values, _multiplier_potential(g, op_quad)):
            assert np.max(np.abs(q)) <= 1e-10

    def test_first_order_consistency(self, geom, op_quad):
        # q(1 + t f) approaches its linearization -(t/2) (-Delta)^s f
        f = mollifier_profile(geom.axis() / 0.8)
        lin = -0.5 * apply_multiplier(fourier_symbol(geom, geom.s), f)
        errs = []
        for t in (1e-2, 1e-3):
            g = Conductivity(geom, 1.0 + t * f, gamma0=0.5)
            q = _multiplier_potential(g, op_quad)
            errs.append(np.max(np.abs(q - t * lin)) / t)
        assert errs[1] < errs[0]
        assert errs[1] <= 1e-2 * np.max(np.abs(lin))

    def test_sign_convention_satisfies_identity(self, geom, op_quad):
        # the identity holds with q = -(-Delta)^s m / sqrt(gamma); flipping
        # the sign breaks it by orders of magnitude
        from fraccond.experiments import liouville_identity_residual
        from fraccond.geometry import bandlimited_field
        from fraccond.operators import pair_form

        gam = bump_conductivity(geom, height=0.5, width=0.8)
        u = bandlimited_field(geom, seed=3)
        phi = bandlimited_field(geom, seed=7)
        good = liouville_identity_residual(gam, u, phi, op_quad)
        assert good <= 1e-6

        g = gam.sqrt_values
        q_flipped = -_multiplier_potential(gam, op_quad)
        h_n = geom.cell_volume
        lhs = pair_form(op_quad.diagnostic_spectrum, op_quad.cns, h_n, g, u.values, phi.values)
        gu, gphi = g * u.values, g * phi.values
        sym = fourier_symbol(geom, geom.s)
        sp = parseval_pairing(sym, np.fft.fftn(gu), np.fft.fftn(gphi), h_n)
        bad = abs(lhs - sp - h_n * np.sum(q_flipped * gu * gphi)) / (abs(lhs) + 1e-300)
        assert bad > 1e3 * good


class TestAdmissibility:
    def test_unit_pair_passes(self, geom, ones_gamma):
        rep = validate_admissibility(ones_gamma, ones_gamma, theta0=0.9)
        assert rep.all_ok
        for bessel, l1 in rep.smoothness_proxies:
            assert bessel <= 1e-10
            assert l1 <= 1e-10

    def test_theta0_interval(self, geom, ones_gamma):
        # s = 0.4, n = 1: admissible window is (0.8, 1)
        with pytest.raises(ValueError, match="theta0"):
            validate_admissibility(ones_gamma, ones_gamma, theta0=0.75)
        rep = validate_admissibility(ones_gamma, ones_gamma, theta0=0.85)
        assert rep.theta0 == 0.85

    def test_smallness_gate(self, geom, ones_gamma):
        rep = validate_admissibility(
            ones_gamma, ones_gamma, theta0=0.9, dn_gap=1e-12
        )
        assert rep.smallness_gate == pytest.approx(3.0 ** (-1.0 / (0.95 * 0.05)))
        assert rep.smallness_ok
        rep2 = validate_admissibility(ones_gamma, ones_gamma, theta0=0.9, dn_gap=0.5)
        assert not rep2.smallness_ok
        assert not rep2.all_ok

    def test_bad_delta_rejected(self, geom, ones_gamma):
        with pytest.raises(ValueError, match="delta"):
            validate_admissibility(
                ones_gamma, ones_gamma, theta0=0.9, dn_gap=1e-3, delta=0.2
            )

    @staticmethod
    def surrogate_growth(coarse, fine, eps=0.05):
        """The Bessel surrogate of m at smoothness 4s + 2 eps, integrability
        n/(2s), on a coarse and a fine grid."""
        n, s = coarse.geometry.n, coarse.geometry.s
        t, p = 4.0 * s + 2.0 * eps, n / (2.0 * s)
        return tuple(bessel_norm_surrogate(g.geometry, g.m_values, t, p) for g in (coarse, fine))

    def test_jump_flagged_under_refinement(self):
        # the surrogate norm of a discontinuous deviation diverges at rate
        # h^(1/p - t) ~ h^(-0.9); two doublings push the growth factor past 2
        def jump_conductivity(g):
            x = g.axis()
            vals = np.where(np.abs(x) < 0.5, 1.8, 1.0)
            return Conductivity(g, vals, gamma0=0.5)

        coarse = GeometryConfig(n=1, s=0.4, box_halfwidth=6.0, grid_points=256)
        fine = GeometryConfig(n=1, s=0.4, box_halfwidth=6.0, grid_points=1024)
        a, b = self.surrogate_growth(jump_conductivity(coarse), jump_conductivity(fine))
        assert b > 2.0 * a

    def test_smooth_not_flagged(self):
        coarse = GeometryConfig(n=1, s=0.4, box_halfwidth=6.0, grid_points=256)
        fine = GeometryConfig(n=1, s=0.4, box_halfwidth=6.0, grid_points=1024)
        a, b = self.surrogate_growth(
            bump_conductivity(coarse, height=0.5, width=0.8),
            bump_conductivity(fine, height=0.5, width=0.8),
        )
        assert b <= 2.0 * a

    def test_surrogate_norm_positive_homogeneous(self, geom):
        m = mollifier_profile(geom.axis() / 0.7)
        a = bessel_norm_surrogate(geom, m, 1.0, 2.0)
        b = bessel_norm_surrogate(geom, 2.0 * m, 1.0, 2.0)
        assert b == pytest.approx(2.0 * a, rel=1e-12)


class TestMandacheFamily:
    def params(self, **kw):
        base = dict(ell=2.5, eps=0.1, beta=1e4, lattice_spacing=0.2, seed=7, s=0.4, n=1)
        base.update(kw)
        return MandacheParams(**base)

    def test_single_member_bounds(self, geom):
        fam = mandache_family(self.params(), 1, geom)
        assert len(fam) == 1
        assert np.all(fam[0].values >= 1.0 - 1e-12)
        assert np.all(fam[0].values <= 2.0 + 1e-12)

    def test_support_inside_unit_ball(self, geom):
        fam = mandache_family(self.params(), 8, geom)
        outside = geom.radius >= 1.0
        for g in fam:
            assert np.max(np.abs(g.values[outside] - 1.0)) == 0.0

    def test_pairwise_separation(self, geom):
        fam = mandache_family(self.params(), 32, geom)
        gaps = pairwise_sup_gaps(fam, geom.omega_mask())
        iu = np.triu_indices(len(fam), k=1)
        assert np.min(gaps[iu]) >= 0.5 * 0.1  # eps' >= eps/2

    def test_level_flip_doubles_gap(self, geom):
        # first two deterministic patterns are all-high and all-zero
        fam = mandache_family(self.params(), 2, geom)
        gap = np.max(np.abs(fam[0].values - fam[1].values)[geom.omega_mask()])
        assert gap >= 2.0 * 0.1 - 1e-3

    def test_non_integer_orders_enforced(self):
        with pytest.raises(ValueError):
            self.params(ell=2.8)  # ell - 2s = 2.0 integer
        with pytest.raises(ValueError):
            self.params(ell=2.0)
        self.params(ell=2.5)  # ell - 2s = 1.7: fine

    def test_eps_budget(self, geom):
        with pytest.raises(ValueError, match="gamma <= 2"):
            mandache_family(self.params(eps=0.7), 2, geom)

    def test_infeasible_count_reports_bound(self, geom):
        with pytest.raises(ValueError, match="packing bound"):
            mandache_family(self.params(lattice_spacing=0.9), 4000, geom)

    def test_c_ell_budget_enforced(self, geom):
        with pytest.raises(ValueError, match="budget"):
            mandache_family(self.params(beta=1.0), 4, geom)

    def test_reproducible_from_seed(self, geom):
        a = mandache_family(self.params(seed=42), 16, geom)
        b = mandache_family(self.params(seed=42), 16, geom)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga.values, gb.values)

    def test_ellipticity_with_half(self, geom):
        # every member lies in [1, 2], inside the band of gamma0 = 1/2
        fam = mandache_family(self.params(), 8, geom)
        for g in fam:
            assert g.values.min() >= 1.0
            assert g.values.max() <= 2.0

    def test_vectorized_helpers_are_the_loops_bitwise(self, geom):
        # the loops the helpers replaced: members summed bump by bump, a
        # rolled copy per difference, two masked gathers per pair
        params = self.params()
        fam = mandache_family(params, 32, geom)
        sites = conductivity._lattice_sites(params.lattice_spacing)
        rng = np.random.Generator(np.random.Philox(key=params.seed))
        patterns = conductivity._level_patterns(len(sites), 32, rng)
        half = 0.45 * params.lattice_spacing
        bumps = [mollifier_profile(geom.distance((c,)) / half) for c in sites]
        h, k, sigma = geom.h, 2, 0.5
        for member, p in zip(fam, patterns):
            f = np.zeros(geom.shape)
            for level, psi in zip(p, bumps):
                f = f + level * params.eps * psi
            assert np.array_equal(member.values, 1.0 + f)
            d, total = f, 0.0
            for _ in range(k + 1):
                total = max(total, float(np.max(np.abs(d))))
                d, d_prev = (np.roll(d, -1) - d) / h, d
            quot, lag = 0.0, 1
            while lag < geom.grid_points // 2:
                diff = np.max(np.abs(np.roll(d_prev, -lag) - d_prev))
                quot = max(quot, float(diff / (lag * h) ** sigma))
                lag *= 2
            assert c_ell_norm(geom, f, params.ell) == total + quot
        mask = geom.omega_mask()
        gaps = np.zeros((32, 32))
        for i in range(32):
            for j in range(i + 1, 32):
                d = np.max(np.abs(fam[i].values[mask] - fam[j].values[mask]))
                gaps[i, j] = gaps[j, i] = d
        assert np.array_equal(pairwise_sup_gaps(fam, mask), gaps)

    def test_c_ell_norm_grows_for_narrow_bumps(self, geom):
        x = geom.axis()
        wide = mollifier_profile(x / 0.4)
        narrow = mollifier_profile(x / 0.2)
        assert c_ell_norm(geom, narrow, 2.5) > c_ell_norm(geom, wide, 2.5)


class TestPotentialType:
    def test_finite_required(self, geom):
        vals = np.zeros(geom.shape)
        vals.reshape(-1)[0] = np.inf
        with pytest.raises(ValueError):
            Potential(geom, vals)
