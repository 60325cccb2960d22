"""Operator-level oracles: closed forms, adaptive quadrature, brute force."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from fraccond.geometry import (
    GeometryConfig,
    GridField,
    bandlimited_field,
    mollifier_profile,
    smooth_random_field,
)
from fraccond.kernels import normalization_constant
from fraccond.operators import (
    FracOperator,
    apply_multiplier,
    bessel_symbol,
    bilinear_form,
    fourier_symbol,
    frac_laplacian,
    hs_gram,
    hs_inner,
    hs_norm,
    parseval_pairing,
)


def oracle_laplacian(u, s):
    """(-Delta)^s u through the Fourier multiplier |k|^(2s)."""
    return apply_multiplier(fourier_symbol(u.geometry, s), u.values)


def getoor_value(n, s):
    """Closed form of (-Delta)^s (1-|x|^2)_+^s on the unit ball."""
    return 2.0 ** (2 * s) * gamma_fn(1 + s) * gamma_fn(n / 2 + s) / gamma_fn(n / 2)


def adaptive_singular_oracle(x, s):
    """Independent adaptive quadrature of the second-difference integral for
    u(t) = (1-t^2)_+^(1/2) at an interior point x, order s = 1/2."""

    def u(t):
        v = 1.0 - t * t
        return np.sqrt(v) if v > 0 else 0.0

    C = normalization_constant(1, s)
    upp = -((1.0 - x * x) ** -1.5)

    def second_diff(y):
        return u(x + y) + u(x - y) - 2.0 * u(x)

    delta = 1e-3
    regular = quad(
        lambda y: (second_diff(y) - upp * y * y) / y ** (1 + 2 * s),
        0.0,
        delta,
        limit=200,
    )[0]
    regular += upp * delta ** (2 - 2 * s) / (2 - 2 * s)
    Y = 1 + abs(x) + 0.5
    middle = quad(
        lambda y: second_diff(y) / y ** (1 + 2 * s),
        delta,
        Y,
        points=sorted({1 - x, 1 + x}),
        limit=400,
    )[0]
    tail = -2.0 * u(x) * Y ** (-2 * s) / (2 * s)
    # the integrand is even in y: double the half-line integral
    return -C * (regular + middle + tail)


class TestGetoorIdentity:
    def test_adaptive_oracle_confirms_closed_form(self):
        # verified before trusting the grid operator: the constant c_{1,1/2}
        # and the closed-form value 1.0 agree at several interior points
        closed = getoor_value(1, 0.5)
        assert closed == pytest.approx(1.0, abs=1e-14)
        for x in (0.0, 0.3, 0.5):
            assert adaptive_singular_oracle(x, 0.5) == pytest.approx(closed, rel=1e-6)

    def test_grid_quadrature_matches_closed_form(self):
        errs = {}
        for N in (512, 1024):
            g = GeometryConfig(n=1, s=0.4, box_halfwidth=16.0, grid_points=N)
            closed = getoor_value(1, g.s)
            op = FracOperator(g)
            x = g.axis()
            u = GridField(g, np.maximum(1 - x * x, 0) ** g.s)
            lu = frac_laplacian(u, op)
            sel = np.abs(x) <= 0.5
            errs[N] = float(np.max(np.abs(lu.values[sel] - closed)) / closed)
        assert errs[1024] <= 1e-2
        assert errs[1024] < errs[512]


class TestFracLaplacian:
    def test_constant_in_kernel(self, geom, op_quad):
        u = GridField(geom, np.full(geom.shape, 3.7))
        for out in (oracle_laplacian(u, geom.s), frac_laplacian(u, op_quad).values):
            assert np.max(np.abs(out)) <= 1e-10

    def test_cosine_eigenfunction(self, geom, op_quad):
        x = geom.axis()
        k = np.pi * 7 / geom.box_halfwidth
        u = GridField(geom, np.cos(k * x))
        lam = k ** (2 * geom.s)
        oracle = oracle_laplacian(u, geom.s)
        assert np.max(np.abs(oracle - lam * u.values)) / lam <= 1e-10
        quadv = frac_laplacian(u, op_quad)
        assert np.max(np.abs(quadv.values - lam * u.values)) / lam <= 1e-2

    def test_normalization_on_low_frequencies(self, geom, op_quad):
        x = geom.axis()
        worst = 0.0
        for j in (1, 2, 3, 5, 8):
            k = np.pi * j / geom.box_halfwidth
            u = GridField(geom, np.cos(k * x))
            out = frac_laplacian(u, op_quad)
            lam = k ** (2 * geom.s)
            worst = max(worst, np.max(np.abs(out.values - lam * u.values)) / lam)
        assert worst <= 1e-2

    def test_mode_agreement_random_fields(self, geom, op_quad):
        # the quadrature operator against the multiplier oracle
        worst = 0.0
        for seed in range(10):
            f = smooth_random_field(geom, seed=seed, support_radius=4.0)
            a = oracle_laplacian(f, geom.s)
            b = frac_laplacian(f, op_quad).values
            worst = max(worst, np.linalg.norm(a - b) / np.linalg.norm(a))
        assert worst <= 1e-2

    def test_mode_agreement_improves_under_refinement(self):
        errs = {}
        for N in (512, 1024):
            g = GeometryConfig(n=1, s=0.4, box_halfwidth=6.0, grid_points=N)
            opq = FracOperator(g)
            worst = 0.0
            for seed in range(5):
                f = bandlimited_field(g, seed=seed)
                a = oracle_laplacian(f, g.s)
                b = frac_laplacian(f, opq).values
                worst = max(worst, np.linalg.norm(a - b) / np.linalg.norm(a))
            errs[N] = worst
        assert errs[1024] < errs[512]

    def test_rejects_bad_order(self, geom):
        # The order comes from the geometry, so an operator of order
        # outside (0, 1) cannot be built: its geometry is refused first.
        for s in (1.2, 0.0):
            with pytest.raises(ValueError):
                FracOperator(dataclasses.replace(geom, s=s))

    def test_2d_cosine(self, geom2d):
        X, Y = geom2d.coords()
        k = np.pi * 3 / geom2d.box_halfwidth
        u = GridField(geom2d, np.cos(k * X) * np.cos(k * Y))
        lam = (2 * k**2) ** geom2d.s
        oracle = oracle_laplacian(u, geom2d.s)
        assert np.max(np.abs(oracle - lam * u.values)) / lam <= 1e-10
        quadv = frac_laplacian(u, FracOperator(geom2d))
        assert np.max(np.abs(quadv.values - lam * u.values)) / lam <= 3e-2


class TestApplyMultiplier:
    """The real-FFT multiplier path against its complex-FFT definition."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_full_layout_symbol_matches_complex_definition(self, geom, geom2d, n):
        g = geom if n == 1 else geom2d
        v = bandlimited_field(g, seed=4).values
        for sym in (fourier_symbol(g, g.s), bessel_symbol(g, -0.7)):
            ref = np.fft.ifftn(sym * np.fft.fftn(v)).real
            out = apply_multiplier(sym, v)
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2])
    def test_stack_equals_fieldwise(self, geom, geom2d, op_quad, n):
        g = geom if n == 1 else geom2d
        sym = op_quad.form_spectrum if n == 1 else fourier_symbol(g, g.s)
        stack = np.stack([bandlimited_field(g, seed=k).values for k in range(3)])
        out = apply_multiplier(sym, stack)
        for k in range(3):
            assert np.array_equal(out[k], apply_multiplier(sym, stack[k]))

    def test_half_spectrum_is_circular_convolution(self):
        rng = np.random.default_rng(11)
        N = 64
        w = rng.standard_normal(N)
        v = rng.standard_normal(N)
        i = np.arange(N)
        brute = np.sum(w[None, :] * v[(i[:, None] - i[None, :]) % N], axis=1)
        out = apply_multiplier(np.fft.rfftn(w), v)
        assert np.max(np.abs(out - brute)) <= 1e-12 * np.max(np.abs(brute))

    def test_symbol_of_another_grid_rejected(self, geom, geom_small, op_quad):
        v = bandlimited_field(geom_small, seed=1).values
        for sym in (op_quad.form_spectrum, fourier_symbol(geom, geom.s)):
            with pytest.raises(ValueError, match="does not fit"):
                apply_multiplier(sym, v)
        u = smooth_random_field(geom_small, seed=1)
        with pytest.raises(ValueError):
            bilinear_form(u, u, None, op_quad)


class TestBilinearForm:
    def test_parseval(self, geom):
        # the |k|^(2s) Parseval pairing is the squared L2 norm of the
        # half-order multiplier applied to the field
        sym = fourier_symbol(geom, geom.s)
        for seed in range(10):
            u = smooth_random_field(geom, seed=seed, support_radius=4.0)
            du = oracle_laplacian(u, geom.s / 2)
            rhs = float(np.sum(du**2) * geom.cell_volume)
            uh = np.fft.fftn(u.values)
            lhs = parseval_pairing(sym, uh, uh, geom.cell_volume)
            assert abs(lhs - rhs) / rhs <= 1e-6

    def test_constant_field_vanishes(self, geom, op_quad, ones_gamma):
        u = GridField(geom, np.full(geom.shape, 2.5))
        v = smooth_random_field(geom, seed=3)
        assert abs(bilinear_form(u, v, ones_gamma, op_quad)) <= 1e-12

    def test_symmetry_and_bilinearity(self, geom, op_quad):
        from fraccond.conductivity import bump_conductivity

        gam = bump_conductivity(geom, height=0.5, width=0.8)
        u = smooth_random_field(geom, seed=1)
        v = smooth_random_field(geom, seed=2)
        w = smooth_random_field(geom, seed=3)
        buv = bilinear_form(u, v, gam, op_quad)
        bvu = bilinear_form(v, u, gam, op_quad)
        assert abs(buv - bvu) <= 1e-10
        lin = bilinear_form(
            GridField(geom, 2.0 * u.values + 3.0 * w.values), v, gam, op_quad
        )
        parts = 2.0 * buv + 3.0 * bilinear_form(w, v, gam, op_quad)
        assert abs(lin - parts) <= 1e-10 * max(1.0, abs(parts))

    def test_brute_force_double_sum_oracle(self):
        # the pair-quadrature form against a plain double Riemann sum on a
        # refined grid; both approximate the same continuum integral, so the
        # comparison needs compactly supported fields (the Riemann sum knows
        # nothing about the periodic surrogate)
        def fields_on(g):
            x = g.axis()
            gam_vals = 1.0 + 0.4 * mollifier_profile(x / 0.9)
            u = smooth_random_field(g, seed=5, support_radius=3.0)
            return gam_vals, u

        g = GeometryConfig(n=1, s=0.4, box_halfwidth=6.0, grid_points=256)
        op = FracOperator(g)
        gam_vals, u = fields_on(g)
        from fraccond.conductivity import Conductivity

        ours = bilinear_form(u, u, Conductivity(g, gam_vals, gamma0=0.5), op)

        gf = GeometryConfig(n=1, s=0.4, box_halfwidth=6.0, grid_points=1024)
        gam_f, uf = fields_on(gf)
        xf = gf.axis()
        gvals = np.sqrt(gam_f)
        h = gf.h
        two_s = 2 * gf.s
        D = xf[:, None] - xf[None, :]
        # kernel of the periodic surrogate: fold the period lattice, with an
        # analytic bound for the truncated far images
        K = np.zeros_like(D)
        period = 2 * gf.box_halfwidth
        for j in range(-32, 33):
            shifted = np.abs(D + period * j)
            if j == 0:
                np.fill_diagonal(shifted, np.inf)
            K += shifted ** (-(1.0 + two_s))
        K += 2.0 * (32 * period) ** (-two_s) / (two_s * period)
        UU = uf.values[:, None] - uf.values[None, :]
        brute = 0.5 * op.cns * h * h * float(np.sum(np.outer(gvals, gvals) * UU * UU * K))
        assert ours == pytest.approx(brute, rel=5e-2)

    def test_geometry_mismatch_rejected(self, geom, geom_small, op_quad):
        u = smooth_random_field(geom, seed=1)
        v = smooth_random_field(geom_small, seed=1)
        with pytest.raises(ValueError):
            bilinear_form(u, v, None, op_quad)


class TestGradientEnergy:
    """The energy <Theta_gamma grad_s u, grad_s u> is bilinear_form(u, u)."""

    def test_matches_bilinear_form(self, geom, op_quad):
        from fraccond.conductivity import bump_conductivity

        gam = bump_conductivity(geom, height=0.3, width=0.7)
        u = smooth_random_field(geom, seed=6)
        assert bilinear_form(u, u, gam, op_quad) == pytest.approx(
            bilinear_form(u, u, gam.values, op_quad), rel=1e-14
        )

    def test_zero_field(self, geom, op_quad, ones_gamma):
        z = GridField(geom, np.zeros(geom.shape))
        assert bilinear_form(z, z, ones_gamma, op_quad) == 0.0

    def test_quadratic_scaling(self, geom, op_quad, ones_gamma):
        u = smooth_random_field(geom, seed=8)
        e1 = bilinear_form(u, u, ones_gamma, op_quad)
        e2 = bilinear_form(2.0 * u, 2.0 * u, ones_gamma, op_quad)
        assert e2 == pytest.approx(4.0 * e1, rel=1e-12)

    def test_unit_gamma_is_half_laplacian_norm(self, geom, op_quad):
        # the quadrature energy against the multiplier oracle's
        # ||(-Delta)^(s/2) u||^2; measured defect 3.5e-4 at N = 1024
        u = smooth_random_field(geom, seed=9)
        du = oracle_laplacian(u, geom.s / 2)
        rhs = float(np.sum(du**2) * geom.cell_volume)
        assert bilinear_form(u, u, None, op_quad) == pytest.approx(rhs, rel=1e-3)

    def test_nonnegative_for_elliptic_gamma(self, geom, op_quad):
        from fraccond.conductivity import bump_conductivity

        gam = bump_conductivity(geom, height=-0.4, width=0.8)
        for seed in range(5):
            u = smooth_random_field(geom, seed=seed)
            assert bilinear_form(u, u, gam, op_quad) >= 0.0


class TestHsGram:
    def test_single_normalized_function(self, geom):
        f = smooth_random_field(geom, seed=11)
        f = GridField(geom, f.values / hs_norm(f, geom.s))
        G = hs_gram([f], geom.s)
        assert G.shape == (1, 1)
        assert G[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_s_zero_reduces_to_l2(self, geom):
        fs = [smooth_random_field(geom, seed=s) for s in range(3)]
        G0 = hs_gram(fs, 0.0)
        for i in range(3):
            for j in range(3):
                l2 = float(np.sum(fs[i].values * fs[j].values) * geom.cell_volume)
                assert G0[i, j] == pytest.approx(l2, rel=1e-10, abs=1e-12)

    def test_disjoint_spectra_near_orthogonal(self, geom):
        x = geom.axis()
        L = geom.box_halfwidth
        lo = GridField(geom, np.cos(np.pi * 2 * x / L))
        hi = GridField(geom, np.cos(np.pi * 37 * x / L))
        G = hs_gram([lo, hi], geom.s)
        assert abs(G[0, 1]) <= 1e-10 * np.sqrt(G[0, 0] * G[1, 1])

    def test_monotone_in_s(self, geom):
        fs = [smooth_random_field(geom, seed=s) for s in range(4)]
        G1 = hs_gram(fs, 0.2)
        G2 = hs_gram(fs, 0.4)
        assert np.all(np.diag(G2) >= np.diag(G1) - 1e-14)

    def test_positive_definite_for_independent_basis(self, geom):
        fs = [smooth_random_field(geom, seed=s) for s in range(4)]
        vals = np.linalg.eigvalsh(hs_gram(fs, geom.s))
        assert vals[0] > 0

    def test_empty_basis_rejected(self, geom):
        with pytest.raises(ValueError):
            hs_gram([], geom.s)

    def test_inner_product_symmetric(self, geom):
        a = smooth_random_field(geom, seed=21)
        b = smooth_random_field(geom, seed=22)
        assert hs_inner(a, b, geom.s) == pytest.approx(hs_inner(b, a, geom.s), rel=1e-12)


class TestWeights:
    def test_moment_weights_nonnegative(self, op_quad):
        w = op_quad.form_weights
        assert w.min() >= 0.0
        assert w.reshape(-1)[0] == 0.0

    def test_product_weights_symmetric(self, op_quad):
        v = op_quad.diagnostic_weights
        assert np.allclose(v[1:], v[1:][::-1], rtol=1e-12, atol=1e-15)

    def test_quadrature_symbol_tracks_multiplier(self, geom, op_quad):
        sym_q = op_quad.quadrature_symbol
        sym_s = fourier_symbol(geom, geom.s)
        k = geom.freq_magnitude()
        sel = (k > 0) & (k < 20)
        assert np.max(np.abs(sym_q[sel] - sym_s[sel]) / sym_s[sel]) <= 1e-5

    def test_2d_moment_symbol_accuracy(self, geom2d):
        op = FracOperator(geom2d)
        sym_q = op.quadrature_symbol
        sym_s = fourier_symbol(geom2d, geom2d.s)
        k = geom2d.freq_magnitude()
        sel = (k > 0) & (k < 5)
        assert np.max(np.abs(sym_q[sel] - sym_s[sel]) / sym_s[sel]) <= 3e-2
