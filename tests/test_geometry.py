"""Geometry, grids, profiles, field containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraccond.geometry import (
    GeometryConfig,
    GridField,
    Region,
    bandlimited_field,
    default_geometry,
    mollifier_profile,
    plateau_profile,
    smoothstep,
    _random_trig_sum,
)

from conftest import smooth_random_field


class TestGeometryValidation:
    def test_s_range_1d(self):
        for s in (0.0, 0.5, 1.2):
            with pytest.raises(ValueError):
                GeometryConfig(n=1, s=s, box_halfwidth=6.0, grid_points=128)
        GeometryConfig(n=1, s=0.49, box_halfwidth=6.0, grid_points=128)

    def test_s_range_2d(self):
        GeometryConfig(n=2, s=0.9, box_halfwidth=6.0, grid_points=64)
        for s in (0.0, 1.0, 1.2):
            with pytest.raises(ValueError):
                GeometryConfig(n=2, s=s, box_halfwidth=6.0, grid_points=64)

    def test_grid_points_power_of_two(self):
        with pytest.raises(ValueError):
            GeometryConfig(n=1, s=0.4, box_halfwidth=6.0, grid_points=100)
        with pytest.raises(ValueError):
            GeometryConfig(n=1, s=0.4, box_halfwidth=6.0, grid_points=32)

    def test_omega_inside_box(self):
        with pytest.raises(ValueError):
            GeometryConfig(n=1, s=0.4, box_halfwidth=1.0, grid_points=128)

    def test_region_must_avoid_omega(self):
        with pytest.raises(ValueError, match="touches Omega"):
            GeometryConfig(
                n=1,
                s=0.4,
                box_halfwidth=6.0,
                grid_points=128,
                region=Region(0.5, 2.0),
            )

    def test_region_must_stay_in_box(self):
        with pytest.raises(ValueError, match="leaves the box"):
            GeometryConfig(
                n=1,
                s=0.4,
                box_halfwidth=6.0,
                grid_points=128,
                region=Region(2.0, 7.0),
            )

    @pytest.mark.parametrize("r_in, r_out", [(0.0, 1.0), (-1.0, 2.0), (2.0, 2.0), (3.0, 2.0)])
    def test_region_needs_ordered_positive_radii(self, r_in, r_out):
        with pytest.raises(ValueError, match="0 < r_in < r_out"):
            Region(r_in, r_out)

    def test_dimension_restricted(self):
        with pytest.raises(ValueError):
            GeometryConfig(n=3, s=0.4, box_halfwidth=6.0, grid_points=128)


class TestMasksAndGrids:
    def test_axis_spacing(self, geom):
        x = geom.axis()
        assert x[0] == -geom.box_halfwidth
        assert np.allclose(np.diff(x), geom.h)
        assert x[-1] == pytest.approx(geom.box_halfwidth - geom.h)

    def test_mask_partition(self, geom):
        interior = geom.omega_mask()
        closure = geom.omega_closure_mask()
        exterior = geom.exterior_mask()
        assert np.all(interior <= closure)
        assert not np.any(closure & exterior)
        assert np.all(closure | exterior)

    def test_region_mask_inside_exterior(self, geom):
        m = geom.region_mask()
        assert np.any(m)
        assert not np.any(m & geom.omega_closure_mask())

    def test_2d_radius(self, geom2d):
        r = geom2d.radius
        assert r.shape == geom2d.shape
        assert r.min() >= 0.0

    def test_radius_is_computed_once_and_read_only(self, geom2d):
        # every mask and caller shares one array, so none may write to it
        r = geom2d.radius
        assert geom2d.radius is r
        with pytest.raises(ValueError, match="read-only"):
            r[0, 0] = 1.0
        X, Y = geom2d.coords()
        assert np.array_equal(r, np.hypot(X, Y))

    def test_box_distance_is_euclidean(self, geom, geom2d):
        box = geom.region_box()
        (x,) = geom.coords(box)
        assert np.array_equal(geom.distance((2.5,), box), np.abs(x - 2.5))
        box = geom2d.region_box()
        X, Y = geom2d.coords(box)
        assert np.array_equal(geom2d.distance((0.3, -0.2), box), np.hypot(X - 0.3, Y - -0.2))

    def test_radius_is_distance_from_origin(self, geom, geom2d):
        for g in (geom, geom2d):
            assert np.array_equal(g.radius, g.distance((0.0,) * g.n))

    def test_distance_needs_a_point_of_the_dimension(self, geom2d):
        with pytest.raises(ValueError):
            geom2d.distance((2.5,))

    def test_1d_region_mask_is_the_interval_pair(self):
        # both radii are grid points, so the open ends are exercised exactly
        g = default_geometry(n=1, grid_points=64, region=(2.25, 3.0))
        x = g.axis()
        assert np.any(x == -2.25) and np.any(x == 3.0)
        pair = ((x > -3.0) & (x < -2.25)) | ((x > 2.25) & (x < 3.0))
        assert np.array_equal(g.region_mask(), pair)


class TestProfiles:
    def test_mollifier_support_and_peak(self):
        t = np.linspace(-2, 2, 801)
        v = mollifier_profile(t)
        assert np.all(v[np.abs(t) >= 1.0] == 0.0)
        assert v[400] == pytest.approx(1.0)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)

    def test_smoothstep_limits(self):
        u = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
        v = smoothstep(u)
        assert v[0] == 0.0 and v[1] == 0.0
        assert v[3] == 1.0 and v[4] == 1.0
        assert 0.0 < v[2] < 1.0

    def test_plateau_flat_top(self):
        t = np.linspace(-1.5, 1.5, 301)
        v = plateau_profile(t, edge=0.35)
        assert np.all(v[np.abs(t) <= 0.64] == 1.0)
        assert np.all(v[np.abs(t) >= 1.0] == 0.0)


class TestGridField:
    def test_shape_validation(self, geom):
        with pytest.raises(ValueError):
            GridField(geom, np.ones(17))

    def test_finite_validation(self, geom):
        vals = np.ones(geom.shape)
        vals.reshape(-1)[0] = np.nan
        with pytest.raises(ValueError):
            GridField(geom, vals)

    def test_immutable(self, geom):
        f = GridField(geom, np.ones(geom.shape))
        with pytest.raises(ValueError):
            f.values[0] = 2.0


def loop_trig_sum(geometry, seed, kmax):
    """Direct per-mode cos/sin sum over the full grid, one Philox draw of two
    coefficients per mode: the reference for the FFT synthesis.  Returns the
    values and the coefficient energy."""
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    L = geometry.box_halfwidth
    vals = np.zeros(geometry.shape)
    total = 0.0
    if geometry.n == 1:
        x = geometry.axis()
        for k in range(1, kmax + 1):
            a, b = rng.standard_normal(2) / k
            total += a * a + b * b
            vals += a * np.cos(np.pi * k * x / L) + b * np.sin(np.pi * k * x / L)
    else:
        X, Y = geometry.coords()
        for kx in range(0, kmax + 1):
            for ky in range(0, kmax + 1):
                if kx == 0 and ky == 0:
                    continue
                a, b = rng.standard_normal(2) / (kx + ky)
                total += a * a + b * b
                phase = np.pi * (kx * X + ky * Y) / L
                vals += a * np.cos(phase) + b * np.sin(phase)
    return vals, total


def complex_trig_sum(geometry, seed, kmax):
    """The FFT synthesis as a full complex inverse DFT: the same Philox draws,
    (-1)^|k| (a - i b) at every mode k of the full spectrum, and the real
    part of the unnormalized inverse.  The reference for the half-spectrum
    synthesis."""
    N = geometry.grid_points
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    idx = np.unravel_index(np.arange(1, (kmax + 1) ** geometry.n), (kmax + 1,) * geometry.n)
    kabs = sum(idx)
    a, b = (rng.standard_normal((kabs.size, 2)) / kabs[:, None]).T
    total = float(np.cumsum(a * a + b * b)[-1])
    spec = np.zeros((N,) * geometry.n, dtype=complex)
    spec[idx] = np.where(kabs % 2, -1.0, 1.0) * (a - 1j * b)
    return np.fft.ifftn(spec, norm="forward").real, total


def sup_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


SYNTHESIS_GRIDS = [(1, 64), (1, 1024), (2, 64), (2, 128)]


class TestFftSynthesis:
    @pytest.mark.parametrize("n,N", SYNTHESIS_GRIDS)
    @pytest.mark.parametrize("kmax", [20, 5])
    def test_bandlimited_matches_loop(self, n, N, kmax):
        g = default_geometry(n=n, grid_points=N)
        for seed in (0, 5, 23):
            ref, total = loop_trig_sum(g, seed, kmax)
            vals, fft_total = _random_trig_sum(g, seed, kmax)
            # the same Philox draws in the same order give the same energy
            assert fft_total == pytest.approx(total, rel=1e-15, abs=0)
            assert sup_rel(vals, ref) <= 1e-13
            f = bandlimited_field(g, seed=seed, kmodes=kmax)
            assert sup_rel(f.values, ref / np.sqrt(total)) <= 1e-13

    @pytest.mark.parametrize("n,N", [(1, 1024), (2, 128)])
    @pytest.mark.parametrize("kmax", [20, 5])
    def test_half_spectrum_matches_complex_synthesis(self, n, N, kmax):
        g = default_geometry(n=n, grid_points=N)
        for seed in (0, 5, 23):
            ref, total = complex_trig_sum(g, seed, kmax)
            vals, half_total = _random_trig_sum(g, seed, kmax)
            assert half_total == total
            assert sup_rel(vals, ref) <= 1e-14
            f = bandlimited_field(g, seed=seed, kmodes=kmax)
            assert sup_rel(f.values, ref / np.sqrt(total)) <= 1e-14

    @pytest.mark.parametrize("n,N", SYNTHESIS_GRIDS)
    @pytest.mark.parametrize("kmax", [8, 5])
    def test_smooth_matches_loop(self, n, N, kmax):
        # the compactly supported test field of the operator oracles is the
        # windowed trigonometric sum, normalized to unit sup norm
        g = default_geometry(n=n, grid_points=N)
        for seed in (0, 5, 23):
            ref, _ = loop_trig_sum(g, seed, kmax)
            ref = ref * mollifier_profile(g.radius / (0.85 * g.box_halfwidth))
            ref = ref / np.max(np.abs(ref))
            f = smooth_random_field(g, seed=seed, kmax=kmax)
            assert sup_rel(f.values, ref) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2])
    def test_mode_cutoff_guard(self, n):
        g = default_geometry(n=n, grid_points=64)
        for k in (0, -1, 32, 40):
            with pytest.raises(ValueError, match="mode cutoff"):
                bandlimited_field(g, seed=1, kmodes=k)
        bandlimited_field(g, seed=1, kmodes=31)
        bandlimited_field(g, seed=1, kmodes=1)


class TestRandomFields:
    def test_seeded_reproducibility(self, geom):
        a = bandlimited_field(geom, seed=5)
        b = bandlimited_field(geom, seed=5)
        assert np.array_equal(a.values, b.values)
        c = bandlimited_field(geom, seed=6)
        assert not np.array_equal(a.values, c.values)

    def test_compact_support(self, geom):
        f = smooth_random_field(geom, seed=5, support_radius=4.0)
        assert np.all(f.values[geom.radius >= 4.0] == 0.0)
        assert np.max(np.abs(f.values)) == pytest.approx(1.0)

    def test_bandlimited_grid_independent(self):
        coarse = default_geometry(n=1, grid_points=512)
        fine = default_geometry(n=1, grid_points=1024)
        a = bandlimited_field(coarse, seed=9)
        b = bandlimited_field(fine, seed=9)
        assert np.allclose(a.values, b.values[::2], rtol=0, atol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_bandlimited_bounded(self, seed):
        # coefficient normalization bounds the sup norm by sqrt(2 kmodes)
        g = default_geometry(n=1, grid_points=64)
        f = bandlimited_field(g, seed=seed, kmodes=5)
        assert np.max(np.abs(f.values)) <= np.sqrt(10.0) + 1e-12

    @given(
        a=st.floats(-3, 3, allow_nan=False),
        b=st.floats(-3, 3, allow_nan=False),
    )
    @settings(max_examples=20, deadline=None)
    def test_field_linearity(self, a, b):
        g = default_geometry(n=1, grid_points=64)
        u = bandlimited_field(g, seed=1, kmodes=4)
        v = bandlimited_field(g, seed=2, kmodes=4)
        combo = GridField(g, a * u.values + b * v.values)
        assert combo.same_grid(u)
        assert np.allclose(combo.values, a * u.values + b * v.values)
