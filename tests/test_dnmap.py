"""DN matrices, dual-pairing norms, bases, restrictions."""

import numpy as np
import pytest
import scipy.linalg as sla

from fraccond.conductivity import (
    Conductivity,
    Potential,
    bump_conductivity,
    liouville_potential,
)
from fraccond.dnmap import (
    DnBlock,
    DnMatrix,
    ExteriorBasis,
    assemble_dn,
    build_exterior_basis,
    dn_operator_norm,
    restrict_dn,
)
from fraccond.geometry import default_geometry
from fraccond.operators import FracOperator, hs_gram
from fraccond.solver import ExteriorDatum, SolverError, interior_system

from conftest import two_region_geometry


@pytest.fixture(scope="module")
def basis(geom):
    return build_exterior_basis(geom, "annulus", 16, kind="bumps")


@pytest.fixture(scope="module")
def harmonic(geom):
    return build_exterior_basis(geom, "annulus", 16, kind="harmonic")


def merge_bases(a, b):
    functions = a.functions + b.functions
    fields = [f.field() for f in functions]
    return ExteriorBasis(
        geometry=a.geometry,
        functions=functions,
        regions=a.regions + b.regions,
        orders=a.orders + b.orders,
        kind=a.kind,
        gram=hs_gram(fields, a.geometry.s),
    )


class TestBasisConstruction:
    def test_single_bump_unit_gram(self, geom):
        b = build_exterior_basis(geom, "annulus", 1, kind="bumps")
        assert b.gram.shape == (1, 1)
        assert b.gram[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_functions_supported_in_region(self, geom, basis, harmonic):
        mask = geom.region_mask("annulus")
        for b in (basis, harmonic):
            for f in b.functions:
                assert np.all(f.values[~mask] == 0.0)

    def test_parity_orthogonality_1d(self, geom):
        b = build_exterior_basis(geom, "annulus", 4, kind="harmonic")
        # parity is the angular label k: any even (k=0) function is exactly
        # orthogonal to any odd (k=1) one
        for i in range(4):
            for j in range(4):
                if b.orders[i][1] != b.orders[j][1]:
                    assert abs(b.gram[i, j]) <= 1e-12

    def test_harmonic_order_bookkeeping(self, geom):
        b = build_exterior_basis(geom, "annulus", 6, kind="harmonic")
        orders = [b.order_of(i) for i in range(6)]
        assert orders == sorted(orders)

    def test_2d_angular_block_structure(self, geom2d):
        b = build_exterior_basis(geom2d, "annulus", 10, kind="harmonic")
        # functions with different angular order are near-orthogonal
        for i in range(len(b)):
            for j in range(len(b)):
                ki = b.orders[i][1]
                kj = b.orders[j][1]
                if ki != kj:
                    assert abs(b.gram[i, j]) <= 1e-8

    def test_rank_deficiency_detected(self, geom):
        with pytest.raises(ValueError):
            build_exterior_basis(geom, "annulus", 200, kind="bumps")

    def test_bad_size(self, geom):
        with pytest.raises(ValueError):
            build_exterior_basis(geom, "annulus", 0)

    def test_unknown_region(self, geom):
        with pytest.raises(KeyError):
            build_exterior_basis(geom, "nowhere", 4)


class TestAssembly:
    def test_symmetry(self, geom, op_quad, basis):
        gam = bump_conductivity(geom, height=0.5, width=0.8)
        M = assemble_dn(gam, basis, op_quad)
        scale = np.max(np.abs(M.entries))
        assert np.max(np.abs(M.entries - M.entries.T)) <= 1e-10 * scale

    def test_unit_gamma_equals_zero_potential(self, geom, op_quad, basis, ones_gamma):
        Mg = assemble_dn(ones_gamma, basis, op_quad)
        Mq = assemble_dn(Potential(geom, np.zeros(geom.shape)), basis, op_quad)
        assert np.max(np.abs(Mg.entries - Mq.entries)) <= 1e-10

    def test_identical_pair_zero_difference(self, geom, op_quad, basis):
        gam = bump_conductivity(geom, height=0.4, width=0.7)
        Ma = assemble_dn(gam, basis, op_quad)
        Mb = assemble_dn(gam, basis, op_quad)
        assert dn_operator_norm(Ma - Mb) == 0.0

    def test_liouville_equivalence(self, geom, op_quad, basis):
        gam = bump_conductivity(geom, height=0.5, width=0.8)
        q = liouville_potential(gam, op_quad)
        Mg = assemble_dn(gam, basis, op_quad)
        Mq = assemble_dn(q, basis, op_quad)
        rel = dn_operator_norm(Mg - Mq) / dn_operator_norm(Mg)
        assert rel <= 1e-4

    def test_liouville_equivalence_refined(self):
        for N in (512, 1024):
            g = default_geometry(n=1, grid_points=N)
            op = FracOperator(g)
            b = build_exterior_basis(g, "annulus", 8, kind="bumps")
            gam = bump_conductivity(g, height=0.5, width=0.8)
            q = liouville_potential(gam, op)
            rel = dn_operator_norm(
                assemble_dn(gam, b, op) - assemble_dn(q, b, op)
            ) / dn_operator_norm(assemble_dn(gam, b, op))
            assert rel <= 1e-4

    def test_constant_scaling(self, geom, op_quad, basis, ones_gamma):
        g2 = Conductivity(geom, np.full(geom.shape, 2.0), gamma0=0.5)
        M1 = assemble_dn(ones_gamma, basis, op_quad)
        M2 = assemble_dn(g2, basis, op_quad)
        assert np.allclose(M2.entries, 2.0 * M1.entries, rtol=1e-10)
        delta = M2 - M1
        assert dn_operator_norm(delta) == pytest.approx(
            dn_operator_norm(M1), rel=1e-10
        )

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("equation", ["conductivity", "schrodinger"])
    def test_batched_matches_column_reference(self, geom, geom2d, n, equation):
        g = geom if n == 1 else geom2d
        op = FracOperator(g)
        b = build_exterior_basis(g, "annulus", 8, kind="harmonic")
        gam = bump_conductivity(g, height=0.5, width=0.8)
        coefficient = gam if equation == "conductivity" else liouville_potential(gam, op)
        M = assemble_dn(coefficient, b, op).entries
        ref = column_reference(coefficient, b, op)
        assert np.max(np.abs(M - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_batched_failure_names_column(self, geom, op_quad, basis):
        zero = ExteriorDatum(geom, np.zeros(geom.shape))
        pair = ExteriorBasis(
            geometry=geom,
            functions=(zero, basis.functions[0]),
            regions=("annulus",) * 2,
            orders=((0, 0), (1, 0)),
            kind="bumps",
            gram=np.eye(2),
        )
        gam = bump_conductivity(geom, height=0.5, width=0.8)
        # the zero column solves exactly; the second cannot meet tol
        with pytest.raises(SolverError, match="residual .* in column 1"):
            assemble_dn(gam, pair, op_quad, tol=1e-300)

    def test_asymmetric_entries_rejected(self, basis):
        k = len(basis)
        entries = np.eye(k) + 1e-6 * np.triu(np.ones((k, k)), 1)
        with pytest.raises(SolverError, match="symmetry"):
            DnMatrix(entries=entries, basis=basis, equation="conductivity")


def column_reference(coefficient, basis, op):
    """DN matrix one column at a time: dense solve, flux through a complex-FFT
    convolution of the weights that shares no code with the solver's apply."""
    system = interior_system(coefficient, op)
    A = system._interior_block()
    geom = basis.geometry
    h_n = geom.cell_volume
    conductivity = isinstance(coefficient, Conductivity)
    g = coefficient.sqrt_values if conductivity else np.ones(geom.shape)
    w_hat = np.fft.fftn(op.form_weights)

    def conv(x):
        return np.fft.ifftn(w_hat * np.fft.fftn(x)).real

    def full_apply(u):
        out = op.cns * h_n * g * (u * conv(g) - conv(g * u))
        return out if conductivity else out + h_n * coefficient.values * u

    k = len(basis)
    M = np.empty((k, k))
    for i, f in enumerate(basis.functions):
        b = -full_apply(f.values).reshape(-1)[system.idx]
        u = f.values.copy().reshape(-1)
        u[system.idx] = np.linalg.solve(A, b)
        z = full_apply(u.reshape(geom.shape))
        for j, fj in enumerate(basis.functions):
            M[i, j] = np.sum(fj.values * z)
    return M


class TestOperatorNorm:
    def test_zero_matrix(self, basis):
        z = DnBlock(
            entries=np.zeros((len(basis), len(basis))),
            gram_rows=basis.gram,
            gram_cols=basis.gram,
        )
        assert dn_operator_norm(z) == 0.0

    def test_gram_gives_unity(self, basis):
        block = DnBlock(entries=basis.gram, gram_rows=basis.gram, gram_cols=basis.gram)
        assert dn_operator_norm(block) == pytest.approx(1.0, rel=1e-10)

    def test_brute_force_sphere_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=13))
        A = rng.standard_normal((3, 3))
        delta = 0.5 * (A + A.T)
        B = rng.standard_normal((3, 3))
        G = B @ B.T + 3.0 * np.eye(3)
        ours = dn_operator_norm(DnBlock(entries=delta, gram_rows=G, gram_cols=G))
        # maximize |x^T delta y| over the G-unit sphere by dense sampling
        L = sla.cholesky(G, lower=True)
        best = 0.0
        th = np.linspace(0, np.pi, 181)
        ph = np.linspace(0, 2 * np.pi, 361)
        TH, PH = np.meshgrid(th, ph, indexing="ij")
        dirs = np.stack(
            [np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], axis=-1
        ).reshape(-1, 3)
        xs = sla.solve_triangular(L, dirs.T, lower=True, trans="T").T
        Ax = xs @ delta
        # for fixed x the maximizing y has value |G^{-1/2} delta x|
        vals = np.einsum(
            "ij,ij->i", Ax @ np.linalg.inv(G), Ax
        )
        best = np.sqrt(np.max(vals))
        assert ours == pytest.approx(best, rel=1e-3)

    def test_monotone_under_basis_enrichment(self, geom, op_quad):
        big = build_exterior_basis(geom, "annulus", 12, kind="bumps")
        gam = bump_conductivity(geom, height=0.3, width=0.7)
        one = Conductivity(geom, np.ones(geom.shape), gamma0=0.5)
        delta = assemble_dn(gam, big, op_quad).entries - assemble_dn(one, big, op_quad).entries
        norms = []
        for k in (4, 8, 12):
            block = DnBlock(
                entries=delta[:k, :k],
                gram_rows=big.gram[:k, :k],
                gram_cols=big.gram[:k, :k],
            )
            norms.append(dn_operator_norm(block))
        assert norms[0] <= norms[1] + 1e-12
        assert norms[1] <= norms[2] + 1e-12

    def test_singular_gram_rejected(self, basis):
        G = np.zeros_like(basis.gram)
        block = DnBlock(entries=basis.gram, gram_rows=G, gram_cols=G)
        with pytest.raises(ValueError, match="Gram"):
            dn_operator_norm(block)


class TestRestriction:
    def test_full_region_restriction_is_identity(self, geom, op_quad, basis):
        gam = bump_conductivity(geom, height=0.4, width=0.7)
        M = assemble_dn(gam, basis, op_quad)
        block = restrict_dn(M, "annulus", "annulus")
        assert np.array_equal(block.entries, M.entries)
        assert dn_operator_norm(block) == pytest.approx(dn_operator_norm(M))

    def test_two_region_blocks(self, op_quad):
        geo = two_region_geometry()
        op = FracOperator(geo)
        inner = build_exterior_basis(geo, "inner", 6, kind="bumps")
        outer = build_exterior_basis(geo, "outer", 6, kind="bumps")
        both = merge_bases(inner, outer)
        gam = bump_conductivity(geo, height=0.4, width=0.7)
        one = Conductivity(geo, np.ones(geo.shape), gamma0=0.5)
        delta = assemble_dn(gam, both, op) - assemble_dn(one, both, op)
        off = restrict_dn(delta, "inner", "outer", basis=both)
        assert off.entries.shape == (6, 6)
        full_norm = dn_operator_norm(delta)
        part_norm = dn_operator_norm(off)
        assert part_norm <= full_norm + 1e-12

    def test_partial_leq_full_random(self, basis):
        rng = np.random.Generator(np.random.Philox(key=5))
        for _ in range(5):
            A = rng.standard_normal((len(basis), len(basis)))
            delta = DnBlock(entries=0.5 * (A + A.T), gram_rows=basis.gram, gram_cols=basis.gram)
            sub = DnBlock(
                entries=delta.entries[:7, :9],
                gram_rows=basis.gram[:7, :7],
                gram_cols=basis.gram[:9, :9],
            )
            assert dn_operator_norm(sub) <= dn_operator_norm(delta) + 1e-12

    def test_missing_region_rejected(self, geom, op_quad, basis):
        gam = bump_conductivity(geom, height=0.4, width=0.7)
        M = assemble_dn(gam, basis, op_quad)
        with pytest.raises(ValueError):
            restrict_dn(M, "annulus", "elsewhere")
