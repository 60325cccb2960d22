"""Operator-level oracles: closed forms, adaptive quadrature, brute force."""

import copy
import dataclasses

import numpy as np
import pytest
import scipy.fft as sfft
from scipy.integrate import dblquad, quad
from scipy.special import gamma as gamma_fn

import fraccond.kernels as kernels
import fraccond.operators as operators
from fraccond.conductivity import bump_conductivity
from fraccond.dnmap import assemble_dn, build_exterior_basis
from fraccond.geometry import (
    GeometryConfig,
    GridField,
    bandlimited_field,
    default_geometry,
    mollifier_profile,
)
from fraccond.kernels import (
    _cell_mass_scaled,
    _folded_cell_masses_1d,
    _image_weights_1d,
    _tail_mass_scaled,
    central_second_moment_for,
    moment_weights_for,
    normalization_constant,
    product_weights_for,
)
from fraccond.operators import (
    FracOperator,
    apply_multiplier,
    bessel_symbol,
    bilinear_form,
    convolve_fields,
    fourier_symbol,
    frac_laplacian,
    hs_gram,
    hs_inner,
    hs_norm,
    parseval_pairing,
)

from conftest import (
    fancy_index_stencil,
    full_grid_moment_weights_2d,
    outer_product_path,
    peak_traced_bytes,
    smooth_random_field,
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

    @pytest.mark.parametrize(
        "grid, corner, stack",
        [((30,), (17,), ()), ((24, 24), (13, 13), ()), ((24, 20), (7, 13), (3,))],
    )
    def test_corner_of_a_larger_grid_is_bitwise_the_full_grid(self, grid, corner, stack):
        # values on the low corner of a periodic grid, the result read back
        # there: the full grid's transform pair on the zero-padded values,
        # bit for bit
        rng = np.random.default_rng(7)
        values = rng.standard_normal(stack + corner)
        on_corner = (Ellipsis,) + tuple(slice(c) for c in corner)
        padded = np.zeros(stack + grid)
        padded[on_corner] = values
        axes = tuple(range(-len(grid), 0))
        for symbol in (np.fft.rfftn(rng.standard_normal(grid)), rng.standard_normal(grid)):
            spec = np.fft.rfftn(padded, axes=axes)
            full = np.fft.irfftn(spec * symbol[..., : spec.shape[-1]], s=grid, axes=axes)
            assert np.array_equal(apply_multiplier(symbol, padded), full)
            out = apply_multiplier(symbol, values, grid)
            assert out.shape == values.shape
            assert np.array_equal(out, full[on_corner])
        with pytest.raises(ValueError, match="exceed"):
            apply_multiplier(symbol, np.zeros(stack + tuple(p + 1 for p in grid)), grid)

    def test_symbol_of_another_grid_rejected(self, geom, geom_small, op_quad):
        v = bandlimited_field(geom_small, seed=1).values
        for sym in (op_quad.form_spectrum, fourier_symbol(geom, geom.s)):
            with pytest.raises(ValueError, match="does not fit"):
                apply_multiplier(sym, v)
        u = smooth_random_field(geom_small, seed=1)
        with pytest.raises(ValueError):
            bilinear_form(u, u, None, op_quad)


def scipy_corner_product(symbol, values, grid):
    """The corner FFT pair of `apply_multiplier` in scipy.fft, pass for
    pass: the real last-axis pass over the corner's rows, the complex
    leading-axis passes along their own axes, the inverse keeping the
    corner's rows."""
    corner = values.shape[-symbol.ndim :]
    axes = tuple(range(-symbol.ndim, 0))
    spec = sfft.rfft(values, grid[-1], axis=-1)
    for axis in axes[:-1]:
        spec = sfft.fft(spec, grid[axis], axis=axis)
    spec *= symbol[..., : spec.shape[-1]]
    for axis, c in zip(axes[:-1], corner):
        rows = (Ellipsis, slice(c)) + (slice(None),) * (-axis - 1)
        spec = sfft.ifft(spec, axis=axis)[rows]
    return sfft.irfft(spec, grid[-1], axis=-1)[..., : corner[-1]]


class TestNumpyTransforms:
    """numpy.fft's passes against scipy.fft's, which run the same pocketfft."""

    def test_fast_length_is_scipys(self):
        ns = range(1, 20001)
        assert [operators._fast_length(n) for n in ns] == [sfft.next_fast_len(n, True) for n in ns]
        # the product and preconditioner boxes of 2D N = 512 and 1D N = 16384
        assert [operators._fast_length(2 * D + 1) for D in (84, 42, 2730, 1365)] == [
            180,
            90,
            5625,
            2880,
        ]

    @pytest.mark.parametrize("k", [1, 4, 16])
    @pytest.mark.parametrize("grid, corner", [((90,), (43,)), ((45, 45), (21, 21)), ((24, 20), (13, 7))])
    def test_apply_multiplier_is_scipys_bitwise(self, k, grid, corner):
        rng = np.random.default_rng(k)
        values = rng.standard_normal((k,) + corner)
        half = np.fft.rfftn(rng.standard_normal(grid))
        for symbol in (half, rng.standard_normal(grid)):
            out = apply_multiplier(symbol, values, grid)
            assert np.array_equal(out, scipy_corner_product(symbol, values, grid))
            assert np.array_equal(out[0], apply_multiplier(symbol, values[0], grid))

    @pytest.mark.parametrize("n, grid_points", [(1, 1024), (2, 128)])
    def test_window_convolution_is_scipys_bitwise(self, n, grid_points):
        op = FracOperator(default_geometry(n=n, grid_points=grid_points))
        rng = np.random.default_rng(n)
        for conv in (op.interior_convolution, op.box_inverse_symbol):
            omega = np.zeros(conv.corner, dtype=bool)
            omega[conv.points[1:]] = True
            # the kept arrays are rebuilt when the column count changes and
            # reused while it holds
            for k in (4, 4, 1, 16, 4):
                Y = rng.standard_normal((np.count_nonzero(omega), k))
                corner = np.zeros((k,) + conv.corner)
                corner[:, omega] = Y.T
                ref = scipy_corner_product(conv.spectrum, corner, conv.shape)
                assert np.array_equal(conv(Y), ref[:, omega].T)

    @pytest.mark.parametrize("n, grid_points", [(1, 1024), (2, 128)])
    def test_column_blocks_are_the_one_block_product_bitwise(self, n, grid_points, monkeypatch):
        # each column's transforms are its own, so a product in blocks of
        # one column is the one-block product bit for bit, as is the coarse
        # space's SV
        geometry = default_geometry(n=n, grid_points=grid_points)
        op = FracOperator(geometry)
        rng = np.random.default_rng(n)
        convs = (op.interior_convolution, op.box_inverse_symbol)
        Ys = [rng.standard_normal((len(op.interior_offsets[1][0]), k)) for k in (16, 3)]
        for conv in convs:
            assert operators._PRODUCT_BYTES // conv._column_bytes >= 16  # one block
        whole = [copy.copy(conv)(Y) for conv in convs for Y in Ys]
        _, SV = op.coarse_space
        with monkeypatch.context() as patched:
            patched.setattr(operators, "_PRODUCT_BYTES", 1)
            blocked = [copy.copy(conv) for conv in convs]
            columns = [conv(Y) for conv in blocked for Y in Ys]
            assert all(len(conv._rows) == 1 for conv in blocked)
            _, SV_blocked = FracOperator(geometry).coarse_space
        for out, ref in zip(columns, whole):
            assert out.tobytes() == ref.tobytes()
        assert SV_blocked.tobytes() == SV.tobytes()

    @pytest.mark.parametrize("n, grid_points", [(1, 1024), (2, 128)])
    def test_window_convolution_slices_are_the_index_arrays_bitwise(
        self, n, grid_points, monkeypatch
    ):
        # in 1D Omega fills one range of the padded rows, so the product and
        # the preconditioner scatter and gather by slices; in 2D they cannot
        op = FracOperator(default_geometry(n=n, grid_points=grid_points))
        rng = np.random.default_rng(n)
        for conv in (op.interior_convolution, op.box_inverse_symbol):
            m = len(conv.points[1])
            sliced = copy.copy(conv)
            Ys = [rng.standard_normal((m, k)) for k in (4, 1, 16)]
            outs = [sliced(Y) for Y in Ys]
            forms = (type(sliced._scatter), type(sliced._gather))
            assert forms == ((slice, slice) if n == 1 else (np.ndarray, np.ndarray))
            with monkeypatch.context() as patched:
                patched.setattr(operators, "_as_range", lambda flat: flat)
                indexed = copy.copy(conv)
                indexed._scatter = np.ravel_multi_index(
                    conv.points[1:], conv.corner[:-1] + conv.shape[-1:]
                )
                refs = [indexed(Y) for Y in Ys]
            assert isinstance(indexed._gather, np.ndarray)
            for out, ref in zip(outs, refs):
                assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("grid, corner", [((45, 40), (21, 17)), ((24, 20), (13, 7))])
    def test_nonzero_rows_are_the_full_rows_bitwise(self, grid, corner):
        rng = np.random.default_rng(7)
        spectrum = np.fft.rfftn(rng.standard_normal(grid))
        factor = 1.0 + rng.random(corner)
        fields = rng.standard_normal((5,) + corner)
        fields[0, :3] = fields[0, -2:] = 0.0  # zero rows at the top and the bottom
        fields[1, 1:] = 0.0  # one nonzero row, the first
        fields[2, :-1] = 0.0  # one nonzero row, the last
        fields[3] = 0.0  # all zero; fields[4] spans the whole box
        conv = convolve_fields(spectrum, fields, grid, factor)
        plain = convolve_fields(spectrum, fields, grid)
        assert conv.shape == fields.shape and conv.flags.c_contiguous
        for u, out, out_plain in zip(fields, conv, plain):
            ref = apply_multiplier(spectrum, factor * u, grid)
            assert out.tobytes() == ref.tobytes()
            assert out_plain.tobytes() == apply_multiplier(spectrum, u, grid).tobytes()
        # a single field is its own stack
        assert convolve_fields(spectrum, fields[0], grid, factor).tobytes() == conv[0].tobytes()

    @pytest.mark.parametrize("n, s", [(1, 0.4), (2, 0.5), (1, 0.25), (2, 0.8)])
    def test_normalization_constant_is_scipys_to_roundoff(self, n, s):
        ref = 4.0**s * gamma_fn(n / 2.0 + s) / (np.pi ** (n / 2.0) * abs(gamma_fn(-s)))
        assert normalization_constant(n, s) == pytest.approx(ref, rel=4 * np.finfo(float).eps)


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

    def test_array_gamma_refused(self, geom_small):
        # only a Conductivity carries the positivity, shape and grid checks,
        # so raw conductivity values of any shape are refused
        op = FracOperator(geom_small)
        u = smooth_random_field(geom_small, seed=1)
        for gamma in (np.full(256, 2.0), np.full((256, 256), 2.0), np.full(256, -1.0), 2.0):
            with pytest.raises(TypeError, match="Conductivity or None"):
                bilinear_form(u, u, gamma, op)


class TestGradientEnergy:
    """The energy <Theta_gamma grad_s u, grad_s u> is bilinear_form(u, u)."""

    def test_zero_field(self, geom, op_quad, ones_gamma):
        z = GridField(geom, np.zeros(geom.shape))
        assert bilinear_form(z, z, ones_gamma, op_quad) == 0.0

    def test_quadratic_scaling(self, geom, op_quad, ones_gamma):
        u = smooth_random_field(geom, seed=8)
        e1 = bilinear_form(u, u, ones_gamma, op_quad)
        u2 = GridField(geom, 2.0 * u.values)
        e2 = bilinear_form(u2, u2, ones_gamma, op_quad)
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


def fields(fs):
    """The (k, *grid) stack of a list of grid fields."""
    return np.stack([f.values for f in fs])


class TestHsGram:
    def test_single_normalized_function(self, geom):
        f = smooth_random_field(geom, seed=11)
        f = GridField(geom, f.values / hs_norm(f, geom.s))
        G = hs_gram(fields([f]), geom, geom.s)
        assert G.shape == (1, 1)
        assert G[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_s_zero_reduces_to_l2(self, geom):
        fs = [smooth_random_field(geom, seed=s) for s in range(3)]
        G0 = hs_gram(fields(fs), geom, 0.0)
        for i in range(3):
            for j in range(3):
                l2 = float(np.sum(fs[i].values * fs[j].values) * geom.cell_volume)
                assert G0[i, j] == pytest.approx(l2, rel=1e-10, abs=1e-12)

    def test_disjoint_spectra_near_orthogonal(self, geom):
        x = geom.axis()
        L = geom.box_halfwidth
        lo = GridField(geom, np.cos(np.pi * 2 * x / L))
        hi = GridField(geom, np.cos(np.pi * 37 * x / L))
        G = hs_gram(fields([lo, hi]), geom, geom.s)
        assert abs(G[0, 1]) <= 1e-10 * np.sqrt(G[0, 0] * G[1, 1])

    def test_monotone_in_s(self, geom):
        fs = [smooth_random_field(geom, seed=s) for s in range(4)]
        G1 = hs_gram(fields(fs), geom, 0.2)
        G2 = hs_gram(fields(fs), geom, 0.4)
        assert np.all(np.diag(G2) >= np.diag(G1) - 1e-14)

    def test_positive_definite_for_independent_basis(self, geom):
        fs = [smooth_random_field(geom, seed=s) for s in range(4)]
        vals = np.linalg.eigvalsh(hs_gram(fields(fs), geom, geom.s))
        assert vals[0] > 0

    def test_empty_basis_rejected(self, geom):
        with pytest.raises(ValueError):
            hs_gram(np.zeros((0,) + geom.shape), geom, geom.s)

    @pytest.mark.parametrize("n,N", [(1, 1024), (2, 64)])
    def test_stacked_gram_matches_pairwise_inner_products(self, n, N):
        g = default_geometry(n=n, grid_points=N)
        fs = [smooth_random_field(g, seed=s, kmax=5) for s in range(5)]
        G = hs_gram(fields(fs), g, g.s)
        ref = np.array([[hs_inner(a, b, g.s) for b in fs] for a in fs])
        assert np.array_equal(G, G.T)
        assert np.max(np.abs(G - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_stacked_pairing_is_rectangular(self, geom):
        w = bessel_symbol(geom, geom.s)
        a = np.fft.fftn([smooth_random_field(geom, seed=s).values for s in range(3)], axes=(1,))
        b = np.fft.fftn([smooth_random_field(geom, seed=s).values for s in (7, 8)], axes=(1,))
        P = parseval_pairing(w, a, b, geom.cell_volume)
        assert P.shape == (3, 2)
        for i in range(3):
            for j in range(2):
                one = parseval_pairing(w, a[i], b[j], geom.cell_volume)
                assert P[i, j] == pytest.approx(one, rel=1e-13)

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

    @pytest.mark.parametrize("N", [64, 128])
    @pytest.mark.parametrize("s", [0.5, 0.3])
    def test_2d_moment_weights_from_the_octant(self, N, s):
        W = moment_weights_for(2, s, N, 6.0)
        ref = full_grid_moment_weights_2d(s, N, 6.0)
        # W(r1, r2) = W(r2, r1) = W(-r1, r2) = W(r1, -r2), exactly
        assert np.array_equal(W, W.T)
        mirror = (-np.arange(N)) % N
        assert np.array_equal(W, W[mirror, :])
        assert np.array_equal(W, W[:, mirror])
        # the octant 0 <= r1 <= r2 <= N/2 is the full-grid loop's, bit for bit
        r1, r2 = np.triu_indices(N // 2 + 1)
        assert np.array_equal(W[r1, r2], ref[r1, r2])
        # elsewhere that loop summed the images in another order
        assert np.max(np.abs(W - ref)) <= 1e-14 * np.max(np.abs(ref))
        nonzero = ref > 0
        assert np.max(np.abs(W - ref)[nonzero] / ref[nonzero]) <= 1e-14

    @pytest.mark.parametrize("N", [64, 1024, 16384])
    @pytest.mark.parametrize("s", [0.4, 0.1])
    def test_1d_moment_weights_in_row_blocks(self, N, s):
        # the one-shot sum over every offset's images, as one (N, images)
        # array per side: the row blocks must give it bit for bit
        h, images = 12.0 / N, 48
        q = np.arange(N)[:, None]
        j = np.arange(images + 1)[None, :]
        ref = np.zeros(N)
        for side in (q, N - q):
            idx = side + N * j
            ref += np.where(idx >= 1, _cell_mass_scaled(np.maximum(idx, 1), s), 0.0).sum(axis=1)
            ref += _tail_mass_scaled(side[:, 0] + N * (images + 1), s, N)
        ref[0] = 0.0
        assert np.array_equal(_folded_cell_masses_1d(N, s, h), ref * h ** (-2.0 * s))

    def test_1d_moment_weights_peak_memory(self):
        # the one-shot sum held several (16384, 49) arrays, about 38 MB
        assert peak_traced_bytes(moment_weights_for, 1, 0.4, 16384, 6.0) < 4 * 2**20

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


def quad_image_weights(s, N, L):
    """The 1D image weights from adaptive cosine-weighted quadrature of
    C(k) = int_Y^inf y^(-1-2s) cos(ky) dy, one frequency at a time."""
    Y = L + L / N
    T = np.zeros(N // 2 + 1)
    for j in range(1, N // 2 + 1):
        osc = quad(
            lambda y: y ** (-1.0 - 2.0 * s),
            Y,
            np.inf,
            weight="cos",
            wvar=np.pi * j / L,
            epsabs=1e-13,
            epsrel=1e-12,
            limit=400,
        )[0]
        T[j] = 2.0 * (Y ** (-2.0 * s) / (2.0 * s) - osc)
    w = -np.fft.irfft(T, N)
    w[0] = 0.0
    return w


def quad_far_cell_weights(s, N, L):
    """The 1D product weights of the far cells p = 5 ... N/2 and their
    mirrors: each cell's moments h int_{-1/2}^{1/2} z^m (ph + hz)^(-1-2s) dz,
    m = 0 ... 4, by adaptive quadrature, and the weights on the nodes
    p - 2 ... p + 2 that integrate those five monomials exactly."""
    h = 2.0 * L / N
    zs = np.arange(-2, 3)
    moment_matrix = np.vander(zs, increasing=True).T
    V = np.zeros(N)
    for p in range(5, N // 2 + 1):
        scale = (p * h) ** (-1.0 - 2.0 * s)
        mu = [
            h * quad(
                lambda z: z**m * (h * (p + z)) ** (-1.0 - 2.0 * s),
                -0.5,
                0.5,
                epsabs=1e-14 * scale,
                epsrel=1e-12,
            )[0]
            for m in range(5)
        ]
        w = np.linalg.solve(moment_matrix, mu)
        V[(p + zs) % N] += w
        V[(-p - zs) % N] += w
    return V


class TestFixedNodeRules:
    """The fixed-node rules of `kernels` against scipy's adaptive quadrature."""

    @pytest.mark.parametrize("N", [256, 1024, 4096])
    @pytest.mark.parametrize("s", [0.1, 0.25, 0.4, 0.49])
    def test_contour_image_weights_match_adaptive_quadrature(self, s, N):
        w = _image_weights_1d(s, N, 6.0)
        ref = quad_image_weights(s, N, 6.0)
        assert np.max(np.abs(w - ref)) <= 2e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("N", [256, 1024, 4096])
    @pytest.mark.parametrize("s", [0.1, 0.25, 0.4, 0.49])
    def test_contour_image_weights_converged_in_nodes(self, s, N, monkeypatch):
        w = _image_weights_1d(s, N, 6.0)
        monkeypatch.setattr(kernels, "_LAGUERRE_NODES", 2 * kernels._LAGUERRE_NODES)
        ref = _image_weights_1d(s, N, 6.0)
        assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.4])
    def test_far_cell_product_weights_match_adaptive_moments(self, s):
        # offsets 5 ... N-5 get no near-zone weight, so there the product
        # weights less the image weights are the far cells' alone
        N = 4096
        far = product_weights_for(s, N, 6.0) - _image_weights_1d(s, N, 6.0)
        ref = quad_far_cell_weights(s, N, 6.0)
        r = slice(5, N - 4)
        assert np.max(np.abs(far[r] - ref[r])) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_polar_central_moment_matches_dblquad(self, s):
        h = 12.0 / 128
        quarter = dblquad(
            lambda y, x: (x * x + y * y) ** (-s),
            0.0,
            0.5 * h,
            0.0,
            0.5 * h,
            epsabs=1e-13,
            epsrel=1e-12,
        )[0]
        assert central_second_moment_for(2, s, h) == pytest.approx(4.0 * quarter, rel=1e-13)


class TestInteriorStencil:
    @pytest.mark.parametrize(
        "n, grid_points, omega_radius",
        [(1, 1024, 1.0), (2, 128, 1.0), (1, 256, 4.0), (2, 64, 4.0)],
    )
    def test_matches_fancy_index_gather(self, n, grid_points, omega_radius):
        geom = default_geometry(
            n=n,
            grid_points=grid_points,
            omega_radius=omega_radius,
            region=(omega_radius + 0.5, 5.5),
        )
        op = FracOperator(geom)
        # an Omega wider than the box half-width has offsets that wrap around
        coords = np.unravel_index(np.flatnonzero(geom.omega_mask()), geom.shape)
        spread = max(int(a.max() - a.min()) for a in coords)
        assert (spread > grid_points // 2) == (omega_radius > geom.box_halfwidth / 2)
        # the window and coordinates the convolutions are built from give
        # every pair's weight at the difference of their coordinates
        window, rel, D = op.interior_offsets
        assert D == spread
        gathered = window[tuple(a[:, None] - a[None, :] + D for a in rel)]
        assert np.array_equal(gathered, fancy_index_stencil(op))

    @pytest.mark.parametrize(
        "n, grid_points, omega_radius",
        [(1, 1024, 1.0), (2, 128, 1.0), (1, 256, 4.0), (2, 64, 4.0)],
    )
    def test_window_convolution_matches_stencil(self, n, grid_points, omega_radius):
        geom = default_geometry(
            n=n,
            grid_points=grid_points,
            omega_radius=omega_radius,
            region=(omega_radius + 0.5, 5.5),
        )
        op = FracOperator(geom)
        stencil = fancy_index_stencil(op)
        Y = np.random.Generator(np.random.Philox(key=5)).standard_normal((stencil.shape[0], 3))
        ref = stencil @ Y
        conv = op.interior_convolution
        assert conv.center == stencil[0, 0]
        assert np.max(np.abs(conv(Y) - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "n, grid_points, omega_radius",
        [(1, 1024, 1.0), (2, 128, 1.0), (1, 256, 4.0), (2, 64, 4.0)],
    )
    def test_box_symbol_guard(self, n, grid_points, omega_radius, monkeypatch):
        # the truncated window's offsets [-Dp, Dp] are distinct on the grid,
        # so the symbol is bounded below by the weights it leaves out: it is
        # positive, and the PCG path's DN matrix is the dpotrf oracle's, also
        # where Omega spans more than half the grid
        geom = default_geometry(
            n=n,
            grid_points=grid_points,
            omega_radius=omega_radius,
            region=(omega_radius + 0.5, 5.5),
        )
        op = FracOperator(geom)
        window, _, D = op.interior_offsets
        Dp = (D + 1) // 2
        assert 2 * Dp + 1 <= grid_points
        pre = op.box_inverse_symbol
        P = pre.shape[0]
        assert D + 1 <= P < 2 * D + 1
        # the symbol from the truncated window laid out at its offsets mod P
        padded = np.zeros(pre.shape)
        span = np.arange(-Dp, Dp + 1) % P
        padded[np.ix_(*[span] * n)] = window[(slice(D - Dp, D + Dp + 1),) * n]
        w0 = window[(D,) * n]
        symbol = op.form_weights.sum() + w0 - np.fft.rfftn(padded).real
        symbol *= op.cns * geom.cell_volume
        assert symbol.min() > 0
        assert np.max(np.abs(pre.spectrum * symbol - 1.0)) <= 1e-13

        basis = build_exterior_basis(geom, 8, kind="harmonic")
        gam = bump_conductivity(geom, height=0.5, width=0.8 * omega_radius)
        factored = outer_product_path(gam, basis, FracOperator(geom))
        iterated = assemble_dn(gam, basis, op).entries
        assert np.max(np.abs(iterated - factored)) <= 1e-10 * np.max(np.abs(factored))

        # a zero patched into the spectrum, a singular box operator, is refused
        class Zeroed(operators.WindowConvolution):
            def __init__(self, *args):
                super().__init__(*args)
                self.spectrum.flat[self.spectrum.size // 3] = op.form_weights.sum() + self.center

        monkeypatch.setattr(operators, "WindowConvolution", Zeroed)
        with pytest.raises(ValueError, match="box symbol is not positive"):
            FracOperator(geom).box_inverse_symbol
