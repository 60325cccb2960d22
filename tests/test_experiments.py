"""Experiment suites: residuals, scans, fits, instability search."""

import math

import numpy as np
import pytest

import fraccond.experiments as experiments
from fraccond.conductivity import (
    Conductivity,
    MandacheParams,
    Potential,
    bump_conductivity,
    liouville_potential,
)
from fraccond.dnmap import assemble_dn, build_exterior_basis, dn_operator_norm, whiten_gram
from fraccond.experiments import (
    EPS_GUARD,
    _multiplier_pairing,
    _multiplier_potential,
    _assembler,
    _liouville_dns,
    _rank_correlation,
    exterior_stability_scan,
    instability_search,
    liouville_identity_residual,
    log_stability_fit,
    mtilde_equation_residual,
    SUITES,
    _reduction_record,
    suite_reduction,
)
from fraccond.geometry import bandlimited_field, default_geometry
from fraccond.operators import FracOperator, fourier_symbol, pair_form, parseval_pairing

from conftest import square_arrays


@pytest.fixture(scope="module")
def fields(geom):
    return bandlimited_field(geom, seed=3), bandlimited_field(geom, seed=7)


class TestLiouvilleResidual:
    def test_unit_gamma(self, geom, op_quad, ones_gamma, fields):
        u, phi = fields
        assert liouville_identity_residual(ones_gamma, u, phi, op_quad) <= 1e-8

    def test_constant_gamma(self, geom, op_quad, fields):
        u, phi = fields
        g = Conductivity(geom, np.full(geom.shape, 2.0), gamma0=0.5)
        assert liouville_identity_residual(g, u, phi, op_quad) <= 1e-8

    def test_bump_residual_and_refinement(self, op_quad, fields):
        resids = {}
        for N in (512, 1024):
            g = default_geometry(n=1, grid_points=N)
            op = FracOperator(g)
            gam = bump_conductivity(g, height=0.5, width=0.8)
            u = bandlimited_field(g, seed=3)
            phi = bandlimited_field(g, seed=7)
            resids[N] = liouville_identity_residual(gam, u, phi, op)
        assert resids[1024] <= 1e-6
        assert resids[1024] / resids[512] <= 0.7

    @pytest.mark.parametrize("n, N", [(1, 1024), (2, 128)])
    def test_right_side_matches_full_spectrum(self, n, N):
        # the half-spectrum Parseval sum is the full complex FFT's
        g = default_geometry(n=n, grid_points=N)
        op = FracOperator(g)
        u = bandlimited_field(g, seed=3)
        phi = bandlimited_field(g, seed=7)
        h_n = g.cell_volume
        for gam in (bump_conductivity(g, height=0.5, width=0.8), bump_conductivity(g, height=-0.4)):
            gu = gam.sqrt_values * u.values
            gphi = gam.sqrt_values * phi.values
            q = _multiplier_potential(gam, op)
            full = parseval_pairing(
                fourier_symbol(g, g.s), np.fft.fftn(gu), np.fft.fftn(gphi), h_n
            ) + h_n * float(np.sum(q * gu * gphi))
            assert _multiplier_pairing(gam, u, phi, op) == pytest.approx(full, rel=1e-12)

    def test_multiplier_spectrum_is_the_half_of_the_symbol(self, geom2d):
        op = FracOperator(geom2d)
        half = geom2d.grid_points // 2 + 1
        full = fourier_symbol(geom2d, geom2d.s)
        assert np.array_equal(op.multiplier_spectrum, full[:, :half])
        assert op.multiplier_spectrum is op.multiplier_spectrum


class TestMtildeResidual:
    def test_identical_pair_vanishes(self, geom, op_quad, ones_gamma):
        gam = bump_conductivity(geom, height=0.4, width=0.7)
        assert mtilde_equation_residual(gam, gam, op_quad) <= 1e-12

    def test_bump_vs_unit(self, geom, op_quad, ones_gamma):
        gam = bump_conductivity(geom, height=0.5, width=0.8)
        assert mtilde_equation_residual(gam, ones_gamma, op_quad) <= 1e-5

    def test_swap_recomputation(self, geom, op_quad, ones_gamma):
        gam = bump_conductivity(geom, height=0.5, width=0.8)
        a = mtilde_equation_residual(gam, ones_gamma, op_quad)
        b = mtilde_equation_residual(ones_gamma, gam, op_quad)
        assert a <= 1e-5 and b <= 1e-5

    def test_matches_per_field_pair_form(self, geom, op_quad, ones_gamma):
        # one pair_matvec paired with each test field is bitwise the
        # per-field pair_form
        gam = bump_conductivity(geom, height=0.5, width=0.8)
        h_n = geom.cell_volume
        mtilde = (gam.m_values - ones_gamma.m_values) / gam.sqrt_values
        q_gap = _multiplier_potential(ones_gamma, op_quad) - _multiplier_potential(gam, op_quad)
        rhs_density = gam.sqrt_values * ones_gamma.sqrt_values * q_gap
        worst = 0.0
        for seed in range(10):
            phi = bandlimited_field(geom, seed=1000 + seed).values
            lhs = pair_form(
                op_quad.diagnostic_spectrum, op_quad.cns, h_n, gam.sqrt_values, mtilde, phi
            )
            rhs = h_n * float(np.sum(rhs_density * phi))
            worst = max(worst, abs(lhs - rhs) / (abs(lhs) + abs(rhs) + EPS_GUARD))
        assert mtilde_equation_residual(gam, ones_gamma, op_quad) == worst

    def test_refinement(self, op_quad):
        resids = {}
        for N in (512, 1024):
            g = default_geometry(n=1, grid_points=N)
            op = FracOperator(g)
            gam = bump_conductivity(g, height=0.5, width=0.8)
            one = Conductivity(g, np.ones(g.shape), gamma0=0.5)
            resids[N] = mtilde_equation_residual(gam, one, op)
        assert resids[1024] / resids[512] <= 0.7


class TestAssembler:
    def test_equal_conductivities_share_one_matrix(self, geom_small):
        op = FracOperator(geom_small)
        dn = _assembler(build_exterior_basis(geom_small, 4, "bumps"), op)
        ones = np.ones(geom_small.shape)
        M = dn(Conductivity(geom_small, ones, gamma0=0.5))
        # the key is the grid and the values: gamma0 is not part of it
        assert dn(Conductivity(geom_small, ones, gamma0=0.9)) is M
        assert op.counts.systems == 1
        assert dn(bump_conductivity(geom_small, 0.3, width=0.5)) is not M
        assert op.counts.systems == 2

    def test_potential_and_array_rejected(self, geom_small):
        op = FracOperator(geom_small)
        dn = _assembler(build_exterior_basis(geom_small, 4, "bumps"), op)
        ones = np.ones(geom_small.shape)
        for coefficient in (Potential(geom_small, ones), ones):
            with pytest.raises(TypeError, match="must be a Conductivity"):
                dn(coefficient)
        assert op.counts.systems == 0


class TestLiouvilleDns:
    """Lambda_q from the exact discrete Liouville identity Lambda_q(F) =
    Lambda_gamma(F / g), checked through the solver's Schrodinger path."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("width", [0.4, 3.1])
    def test_matches_the_potential_system(self, geom, geom2d, n, width):
        # width 3.1 reaches the annulus (2, 3), where the basis lives, so
        # g != 1 on the data and only the F / g assembly gives Lambda_q
        g = geom if n == 1 else geom2d
        op = FracOperator(g)
        basis = build_exterior_basis(g, 16, "bumps")
        gam = bump_conductivity(g, height=0.3, width=width)
        support = np.any(basis.stack != 0, axis=0)
        reaches = bool(np.any(gam.sqrt_values[basis.box][support] != 1.0))
        assert reaches == (width > 2.0)
        Mg, Mq = _liouville_dns(gam, basis, op)
        ref = assemble_dn(liouville_potential(gam, op), basis, op).entries
        scale = np.max(np.abs(ref))
        assert Mq.basis is basis
        assert np.max(np.abs(Mq.entries - ref)) <= 1e-13 * scale
        if reaches:
            # Lambda_gamma(F) is not Lambda_q(F): 12% (1D) and 4.8% (2D) off
            assert np.max(np.abs(Mg.entries - ref)) > 1e-2 * scale
        else:
            assert Mq is Mg

    def test_reachable_from_the_reduction_config(self, geom_small):
        # at factor 0.6 the widths 3.09 and 5.14 reach the annulus: their
        # Lambda_q take a second assembly each, 7 + 2 systems
        op = FracOperator(geom_small)
        out = suite_reduction(geom_small, op, factor=0.6, basis_size=8)
        assert op.counts.systems == 9
        wide = [c for c in out["checks"] if c["width"] > 2.0]
        assert len(wide) == 2 and all(c["lhs"] != c["x"] for c in wide)

    def test_suites_build_no_potential_system(self, geom_small, monkeypatch):
        import fraccond.solver as solver

        kinds = []
        init = solver.InteriorSystem.__init__

        def recording(self, coefficient, op):
            kinds.append(type(coefficient))
            init(self, coefficient, op)

        monkeypatch.setattr(solver.InteriorSystem, "__init__", recording)
        for name, systems in (("reduction", 7), ("instability", 33)):
            kinds.clear()
            SUITES[name].run(geom_small, FracOperator(geom_small))
            assert len(kinds) == systems
            assert set(kinds) == {Conductivity}


class TestExteriorSuite:
    def test_scan_linearity(self, geom, op_quad, ones_gamma):
        from fraccond.experiments import _scan_pair

        basis = build_exterior_basis(geom, 12, kind="bumps")
        pairs = [
            (_scan_pair(geom, 0.1), ones_gamma),
            (_scan_pair(geom, 0.05), ones_gamma),
        ]
        out = exterior_stability_scan(pairs, basis, op_quad)
        (y1, x1), (y2, x2) = out["data"]
        assert 0.3 <= x2 / x1 <= 0.7  # halved amplitude roughly halves the gap
        assert out["band"] <= 2.0

    def test_shared_coefficient_assembled_once(self, geom, ones_gamma, monkeypatch):
        import fraccond.experiments as experiments
        from fraccond.experiments import _scan_pair

        basis = build_exterior_basis(geom, 8, kind="bumps")
        pairs = [(_scan_pair(geom, a), ones_gamma) for a in (0.05, 0.1, 0.2)]
        op = FracOperator(geom)
        ext = geom.exterior_mask()
        data = [
            (
                float(np.max(np.abs(ga.values - gb.values)[ext])),
                dn_operator_norm(assemble_dn(ga, basis, op) - assemble_dn(gb, basis, op)),
            )
            for ga, gb in pairs
        ]
        calls = []

        def counted(*args):
            calls.append(args[0])
            return assemble_dn(*args)

        monkeypatch.setattr(experiments, "assemble_dn", counted)
        out = exterior_stability_scan(pairs, basis, op)
        assert len(calls) == 4  # three scan conductivities and the shared unit one
        assert out["data"] == data  # bitwise the per-pair assembly

    def test_identical_pair_excluded(self, geom, op_quad, ones_gamma):
        basis = build_exterior_basis(geom, 8, kind="bumps")
        out = exterior_stability_scan([(ones_gamma, ones_gamma)], basis, op_quad)
        assert out["excluded"] == 1
        assert out["data"] == []

    def test_suite_payload(self, geom, op_quad):
        out = SUITES["exterior"].run(geom, op_quad)
        assert out["scan"]["band"] <= 2.0
        rec = out["recovery"][0]
        true_val = out["recovery_true_value"]
        assert abs(rec["estimate"] - true_val) <= 0.05 * true_val
        assert abs(rec["finest_ratio"] - true_val) <= 0.05 * true_val

    def test_recovery_trivial_background(self, geom, op_quad, ones_gamma):
        # with gamma = 1 everywhere the probe ratio is identically 1
        from fraccond.experiments import suite_exterior

        out = suite_exterior(geom, op_quad, recovery_height=0.0, amplitudes=(0.1,))
        rec = out["recovery"][0]
        for r in rec["ratios"]:
            assert r == pytest.approx(1.0, abs=1e-12)

    def test_interior_perturbation_invisible_at_probes(self, geom, op_quad):
        # gamma deviating only inside Omega: exterior probes still read ~1
        from fraccond.experiments import ProbeSpec, exterior_recovery, suite_exterior
        from fraccond.geometry import GridField, mollifier_profile
        from fraccond.operators import hs_gram, hs_norm
        from fraccond.dnmap import ExteriorBasis
        from fraccond.geometry import bounding_box

        x = geom.axis()
        widths = (0.32, 0.226, 0.16)
        mask = geom.region_mask()
        normed = []
        for w in widths:
            v = np.where(mask, mollifier_profile((x - 2.5) / w), 0.0)
            normed.append(v / hs_norm(GridField(geom, v), geom.s))
        box = bounding_box(geom.omega_mask() | np.any(normed, axis=0))
        stack = np.stack(normed)[(Ellipsis,) + box].copy()
        basis = ExteriorBasis(
            geometry=geom,
            stack=stack,
            box=box,
            orders=tuple((i, 0) for i in range(len(widths))),
            kind="bumps",
            gram=hs_gram(stack, geom, geom.s),
        )
        one = Conductivity(geom, np.ones(geom.shape), gamma0=0.5)
        gam = bump_conductivity(geom, height=0.8, width=0.8)  # interior only
        Mg = assemble_dn(gam, basis, op_quad)
        M0 = assemble_dn(one, basis, op_quad)
        res = exterior_recovery(Mg, M0, [ProbeSpec(2.5, widths, tuple(range(len(widths))))])[0]
        assert abs(res["finest_ratio"] - 1.0) <= 5e-2
        ratios = res["ratios"]
        assert abs(ratios[-1] - 1.0) <= abs(ratios[0] - 1.0) + 1e-12


class TestReduction:
    def test_identical_pair_vacuous(self, geom, op_quad):
        gam = bump_conductivity(geom, height=0.3, width=0.5)
        basis = build_exterior_basis(geom, 8, kind="bumps")
        M = assemble_dn(gam, basis, op_quad)
        Mq = assemble_dn(liouville_potential(gam, op_quad), basis, op_quad)
        chk = _reduction_record(M, M, Mq, Mq, 0.9)
        assert chk["x"] == 0.0 and chk["lhs"] == 0.0
        assert math.isnan(chk["fitted_constant"])

    def test_shape_arithmetic(self):
        # x + sqrt(x) + x^{(1-theta0)/2} at theta0 = 0.9, x = 0.01
        x, theta0 = 0.01, 0.9
        shape = x + x**0.5 + x ** ((1 - theta0) / 2)
        assert shape == pytest.approx(0.01 + 0.1 + 0.01**0.05, rel=1e-14)
        assert x**0.05 == pytest.approx(0.7943282347242815, rel=1e-12)

    def test_inadmissible_theta0(self, geom, op_quad):
        with pytest.raises(ValueError, match="theta0"):
            suite_reduction(geom, op_quad, theta0=0.7)

    def test_suite_assembles_the_unit_reference_once(self, geom_small, monkeypatch):
        # every check compares with gamma = 1 and its Liouville potential:
        # the suite assembles gamma = 1 once and no potential, since every g
        # is 1 on the basis' support and Lambda_q is then Lambda_gamma; 7
        # DN matrices where two per check make 12, and its payload is
        # theirs bitwise, lhs equal to x
        import fraccond.experiments as experiments

        calls = []

        def counted(*args):
            calls.append(args[0])
            return assemble_dn(*args)

        monkeypatch.setattr(experiments, "assemble_dn", counted)
        op = FracOperator(geom_small)
        out = suite_reduction(geom_small, op, basis_size=8)
        assert len(calls) == 7
        assert set(map(type, calls)) == {Conductivity}
        assert not square_arrays(op)  # nothing m x m is kept
        calls.clear()
        basis = build_exterior_basis(geom_small, 8, "bumps")
        one = Conductivity(geom_small, np.ones(geom_small.shape), gamma0=0.5)
        checks = []
        for w in [0.4 / 1.3**k for k in range(6)]:
            g = bump_conductivity(geom_small, height=0.3, width=w)
            Mg, Mone = (experiments.assemble_dn(c, basis, op) for c in (g, one))
            checks.append({"width": w, **_reduction_record(Mg, Mone, Mg, Mone, 0.9)})
        assert len(calls) == 12
        assert out["checks"] == checks
        assert all(c["lhs"] == c["x"] for c in out["checks"])

    def test_family_fitted_band(self, geom, op_quad):
        out = SUITES["reduction"].run(geom, op_quad, basis_size=12)
        assert out["fitted_band"] <= 5.0
        # transformed and original DN differences coincide for
        # exterior-clean pairs, exactly as the equivalence demands
        for chk in out["checks"]:
            assert chk["lhs_over_x"] == pytest.approx(1.0, rel=1e-9)


class TestLogModulus:
    def test_q_index_validation(self, geom, op_quad, ones_gamma):
        basis = build_exterior_basis(geom, 8, kind="bumps")
        family = [(bump_conductivity(geom, height=1e-4, width=0.6), ones_gamma)]
        # n=1, s=0.4: 2n/(n-2s) = 10
        with pytest.raises(ValueError, match="q index"):
            log_stability_fit(family, 11.0, basis, op_quad)

    def test_identical_pairs_filtered(self, geom, op_quad, ones_gamma):
        basis = build_exterior_basis(geom, 8, kind="bumps")
        family = [(ones_gamma, ones_gamma)] * 6
        with pytest.raises(ValueError, match="usable"):
            log_stability_fit(family, 2.0, basis, op_quad)

    def test_ladder_fit(self, geom, op_quad):
        out = SUITES["logmodulus"].run(geom, op_quad, basis_size=12)
        assert out["sigma"] > 0
        assert out["r_squared"] >= 0.8
        assert out["monotone"]
        assert all(p[0] <= out["gate"] for p in out["data_points"])
        assert all(p[0] >= 10 * out["floor"] for p in out["data_points"])

    def test_each_coefficient_assembled_once(self, geom, ones_gamma, monkeypatch):
        # the pairs' shared unit conductivity and the floor's are one
        # assembly; x and the floor are bitwise the per-pair assembly's
        import fraccond.experiments as experiments

        basis = build_exterior_basis(geom, 8, kind="bumps")
        family = [
            (bump_conductivity(geom, height=4e-4 * 2.0**-k, width=0.6), ones_gamma)
            for k in range(6)
        ]
        op = FracOperator(geom)
        xs = [
            dn_operator_norm(assemble_dn(ga, basis, op) - assemble_dn(gb, basis, op))
            for ga, gb in family
        ]
        one = Conductivity(geom, np.ones(geom.shape), gamma0=0.5)
        floor = 100.0 * np.finfo(float).eps * dn_operator_norm(assemble_dn(one, basis, op))
        calls = []

        def counted(*args):
            calls.append(args[0])
            return assemble_dn(*args)

        monkeypatch.setattr(experiments, "assemble_dn", counted)
        fit = log_stability_fit(family, 2.0, basis, op)
        assert len(calls) == 7  # six bumps and gamma = 1
        assert fit["floor"] == floor
        assert sorted(p[0] for p in fit["data_points"] + fit["flagged_points"]) == sorted(xs)

    def test_fit_reproduces_inputs(self, geom, op_quad, ones_gamma):
        basis = build_exterior_basis(geom, 8, kind="bumps")
        family = [
            (bump_conductivity(geom, height=4e-4 * 2.0**-k, width=0.6), ones_gamma)
            for k in range(6)
        ]
        fit = log_stability_fit(family, 2.0, basis, op_quad)
        # serialization round trip: data points are exactly the measured pairs
        omega = geom.omega_mask()
        for (x, y), (ga, gb) in zip(fit["data_points"], family):
            diff = np.abs(ga.sqrt_values - gb.sqrt_values)[omega]
            y_direct = float((np.sum(diff**2.0) * geom.cell_volume) ** 0.5)
            assert y == y_direct


class TestInstability:
    def test_delta_target_arithmetic(self):
        # eps = 0.1, ell = 2.5, n = 1: exp(-0.1^(-1/12.5)) ~ 0.3005
        val = math.exp(-(0.1 ** (-1.0 / 12.5)))
        assert val == pytest.approx(0.3005, abs=2e-4)

    def test_search_record(self, geom, op_quad):
        basis = build_exterior_basis(geom, 16, kind="harmonic")
        params = MandacheParams(
            ell=2.5, eps=0.1, beta=1e4, lattice_spacing=0.2, seed=7, s=geom.s, n=1
        )
        rec = instability_search(params, basis, op_quad, count=16)
        assert rec["gamma_gap"] >= params.eps
        assert rec["dn_gap"] >= 0
        assert rec["delta_target"] == pytest.approx(0.3005, abs=2e-4)
        assert rec["decay_rate"] > 0
        assert rec["decay_r_squared"] >= 0.9
        assert rec["spearman_envelope"] <= -0.8

    def test_suite_collapse(self, geom, op_quad):
        out = SUITES["instability"].run(geom, op_quad, seed=7, count=32)
        assert out["eps_discrete"]
        assert out["dn_over_gamma"] <= 1e-3
        assert out["decay_rate"] > 0 and out["decay_r_squared"] >= 0.9

    def test_search_whitens_each_gram_once(self, geom, op_quad, monkeypatch):
        # one eigendecomposition of the basis' Gram both checks and whitens
        # it, and every pair's norm reads that whitening
        grams, bases = [], []
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
        build = experiments.build_exterior_basis

        def counting_eigh(a, *args, **kwargs):
            grams.append(np.array(a))
            return eigh(a, *args, **kwargs)

        def counting_eigvalsh(a, *args, **kwargs):
            grams.append(np.array(a))
            return eigvalsh(a, *args, **kwargs)

        def recording_build(*args, **kwargs):
            bases.append(build(*args, **kwargs))
            return bases[-1]

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(experiments, "build_exterior_basis", recording_build)
        SUITES["instability"].run(geom, op_quad, seed=7, count=32)
        assert len(bases) == len(grams) == 1
        assert np.array_equal(grams[0], bases[0].gram)

    def test_whitened_norms_are_the_norms(self, geom, op_quad, monkeypatch):
        # every norm of the search is bitwise the largest singular value of
        # W M W, W = G^(-1/2) of the basis' Gram
        seen = []

        def checked(d):
            norm = dn_operator_norm(d)
            W = d.basis.whitening
            assert norm == np.linalg.svd(W @ d.entries @ W, compute_uv=False)[0]
            seen.append(norm)
            return norm

        monkeypatch.setattr(experiments, "dn_operator_norm", checked)
        basis = build_exterior_basis(geom, 16, kind="harmonic")
        params = MandacheParams(
            ell=2.5, eps=0.1, beta=1e4, lattice_spacing=0.2, seed=7, s=geom.s, n=1
        )
        rec = instability_search(params, basis, op_quad, count=16)
        assert seen and rec["dn_gap"] == min(seen)
        assert np.array_equal(basis.whitening, whiten_gram(basis.gram))

    def test_single_bump_decay(self, geom, op_quad, ones_gamma):
        from fraccond.conductivity import Potential, liouville_potential
        from fraccond.experiments import coefficient_decay

        basis = build_exterior_basis(geom, 16, kind="harmonic")
        gam = bump_conductivity(geom, height=0.5, width=0.5)
        q = liouville_potential(gam, op_quad)
        M = assemble_dn(q, basis, op_quad)
        M0 = assemble_dn(Potential(geom, np.zeros(geom.shape)), basis, op_quad)
        orders = [basis.order_of(i) for i in range(len(basis))]
        decay = coefficient_decay(M.entries - M0.entries, orders)
        assert decay["rate"] > 0
        assert decay["r_squared"] >= 0.9
        assert max(decay["orders"]) >= 7


class TestResidualSuite:
    def test_payload_structure(self, geom, op_quad):
        out = SUITES["residuals"].run(geom, op_quad, seed=0)
        assert len(out["cases"]) == 5
        for case in out["cases"]:
            assert case["liouville_residual"] <= 1e-6
        for ref in out["refinement"]:
            assert ref["ratio"] <= 0.7
        assert out["mtilde_residual"] <= 1e-5


@pytest.mark.parametrize(
    "a, b",
    [
        ([1.0, 2.0, 3.0, 4.0, 5.0], [-0.5, -1.5, -1.0, -3.0, -4.0]),
        ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 1.0, 1.0, 1.0, 0.5, 0.5]),  # ties
        ([3.0, 1.0, 3.0, 2.0, 1.0, 3.0], [1.0, 2.0, 2.0, 5.0, 2.0, 1.0]),  # ties in both
    ],
)
def test_rank_correlation_matches_scipy(a, b):
    from scipy.stats import spearmanr

    assert _rank_correlation(a, b) == pytest.approx(spearmanr(a, b).statistic, abs=1e-15)


def test_rank_correlation_of_random_ties_matches_scipy():
    from scipy.stats import spearmanr

    rng = np.random.Generator(np.random.Philox(key=11))
    for _ in range(20):
        a, b = rng.integers(0, 6, size=(2, 17)).astype(float)
        assert _rank_correlation(a, b) == pytest.approx(spearmanr(a, b).statistic, abs=1e-15)


def test_rank_correlation_of_constant_input_is_nan():
    assert math.isnan(_rank_correlation([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]))



# per suite: a minimal payload that passes every gate, and per flag the
# payload changes that make that flag, and only it, fail
GATE_TABLE = {
    "residuals": (
        {"cases": [{"liouville_residual": 1e-7}], "refinement": [{"ratio": 0.6}]},
        [
            ("residuals_small", {"cases": [{"liouville_residual": 2e-6}]}),
            ("residuals_refine", {"refinement": [{"ratio": 0.6}, {"ratio": 0.8}]}),
        ],
    ),
    "exterior": (
        {"scan": {"band": 1.5}, "recovery": [{"estimate": 1.47}], "recovery_true_value": 1.5},
        [
            ("lipschitz_band", {"scan": {"band": 2.5}}),
            ("lipschitz_band", {"scan": {"band": math.nan}}),
            ("recovery_within_5pct", {"recovery": [{"estimate": 1.5}, {"estimate": 1.6}]}),
        ],
    ),
    "reduction": ({"fitted_band": 4.0}, [("fitted_band_5x", {"fitted_band": 6.0})]),
    "logmodulus": (
        {"sigma": 0.5, "r_squared": 0.85, "monotone": True},
        [
            ("sigma_positive", {"sigma": 0.0}),
            ("fit_quality", {"r_squared": 0.75}),
            ("monotone_data", {"monotone": False}),
        ],
    ),
    "instability": (
        {"eps_discrete": True, "decay_rate": 0.3, "decay_r_squared": 0.95, "dn_over_gamma": 1e-4},
        [
            ("eps_discrete", {"eps_discrete": False}),
            ("decay_fit", {"decay_rate": -0.1}),
            ("decay_fit", {"decay_r_squared": 0.85}),
            ("collapse_ratio", {"dn_over_gamma": 2e-3}),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_gate_can_fire(name):
    passing, failing = GATE_TABLE[name]
    gates = SUITES[name].gates
    flags = {flag for flag, _ in failing}
    assert gates(passing) == dict.fromkeys(flags, True)
    for flag, change in failing:
        assert gates({**passing, **change}) == {f: f != flag for f in flags}


def test_refinement_gate_absent_without_refinement():
    passing, _ = GATE_TABLE["residuals"]
    assert SUITES["residuals"].gates({**passing, "refinement": []}) == {"residuals_small": True}
