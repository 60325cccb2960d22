"""DN matrices, dual-pairing norms, bases, restrictions."""

import numpy as np
import pytest
import scipy.fft as sfft
import scipy.linalg as sla

import fraccond.operators as operators
import fraccond.solver as solver
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
    basis_from_fields,
    build_exterior_basis,
    dn_operator_norm,
    restrict_dn,
)
from fraccond.experiments import suite_reduction
from fraccond.geometry import GridField, bounding_box, default_geometry, mollifier_profile
from fraccond.operators import (
    FracOperator,
    apply_multiplier,
    bessel_symbol,
    hs_gram,
    parseval_pairing,
)
from fraccond.solver import InteriorSystem, SolverError, interior_system

from conftest import (
    full_grid_hs_gram,
    grid_stack,
    outer_product_path,
    peak_traced_bytes,
    reachable,
    reference_block,
    square_arrays,
)


@pytest.fixture(scope="module")
def basis(geom):
    return build_exterior_basis(geom, 16, kind="bumps")


@pytest.fixture(scope="module")
def harmonic(geom):
    return build_exterior_basis(geom, 16, kind="harmonic")


class TestBasisConstruction:
    def test_single_bump_unit_gram(self, geom):
        b = build_exterior_basis(geom, 1, kind="bumps")
        assert b.gram.shape == (1, 1)
        assert b.gram[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_functions_supported_in_region(self, geom, basis, harmonic):
        mask = geom.region_mask()
        for b in (basis, harmonic):
            assert np.all(grid_stack(b)[:, ~mask] == 0.0)

    def test_parity_orthogonality_1d(self, geom):
        b = build_exterior_basis(geom, 4, kind="harmonic")
        # parity is the angular label k: any even (k=0) function is exactly
        # orthogonal to any odd (k=1) one
        for i in range(4):
            for j in range(4):
                if b.orders[i][1] != b.orders[j][1]:
                    assert abs(b.gram[i, j]) <= 1e-12

    def test_harmonic_order_bookkeeping(self, geom):
        b = build_exterior_basis(geom, 6, kind="harmonic")
        orders = [b.order_of(i) for i in range(6)]
        assert orders == sorted(orders)

    def test_2d_angular_block_structure(self, geom2d):
        b = build_exterior_basis(geom2d, 10, kind="harmonic")
        # functions with different angular order are near-orthogonal
        for i in range(len(b)):
            for j in range(len(b)):
                ki = b.orders[i][1]
                kj = b.orders[j][1]
                if ki != kj:
                    assert abs(b.gram[i, j]) <= 1e-8

    def test_rank_deficiency_detected(self, geom):
        with pytest.raises(ValueError):
            build_exterior_basis(geom, 200, kind="bumps")

    def test_bad_size(self, geom):
        with pytest.raises(ValueError):
            build_exterior_basis(geom, 0)


class TestBoxBasis:
    """A basis keeps its data as one (k, *box) stack on its solve box."""

    @pytest.mark.parametrize("n, N", [(1, 1024), (2, 128), (2, 256)])
    @pytest.mark.parametrize("kind", ["bumps", "harmonic"])
    def test_box_gram_matches_full_grid_gram(self, n, N, kind):
        g = default_geometry(n=n, grid_points=N)
        b = build_exterior_basis(g, 16, kind=kind)
        ref = full_grid_hs_gram(grid_stack(b), g, g.s)
        for G in (b.gram, hs_gram(b.stack, g, g.s)):
            assert np.max(np.abs(G - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kind", ["bumps", "harmonic"])
    def test_no_array_has_the_grid_shape(self, geom, geom2d, n, kind):
        g = geom if n == 1 else geom2d
        b = build_exterior_basis(g, 8, kind=kind)
        arrays = [v for v in vars(b).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 3  # the stack, the Gram and its whitening
        for a in arrays:
            assert a.shape[-g.n :] != g.shape
        assert b.stack.shape[0] == len(b) and not b.stack.flags.writeable
        # the box is the bounding box of Omega and the data's support
        covered = g.omega_mask() | np.any(grid_stack(b), axis=0)
        assert b.box == bounding_box(covered)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("bad", ["nan", "inf", "closure"])
    def test_invalid_fields_refused(self, geom, geom2d, n, bad):
        g = geom if n == 1 else geom2d
        box = g.region_box()
        mask = g.region_mask()[box]
        r = np.abs(g.coords(box)[0] - 2.5) if n == 1 else np.hypot(*g.coords(box)) - 2.5
        F = np.stack([np.where(mask, mollifier_profile(r / w), 0.0) for w in (0.3, 0.2)])
        basis_from_fields(g, F, ((0, 0), (1, 0)), "bumps")  # valid as given
        outside = np.flatnonzero(~g.omega_closure_mask()[box])[0]
        inside = np.flatnonzero(g.omega_closure_mask()[box])[-1]
        index, value = {
            "nan": (outside, np.nan),
            "inf": (outside, np.inf),
            "closure": (inside, 1e-300),
        }[bad]
        F[1].reshape(-1)[index] = value
        match = "closure" if bad == "closure" else "finite"
        with pytest.raises(ValueError, match=match):
            basis_from_fields(g, F, ((0, 0), (1, 0)), "bumps")

    def test_build_peak_memory_below_two_grid_stacks(self):
        # 16 fields on the grid are k N^2 8 bytes; the basis is built, its
        # Gram included, in less than twice that
        g = default_geometry(n=2, grid_points=256)
        k = 16
        peak = peak_traced_bytes(build_exterior_basis, g, k, "bumps")
        assert peak < 2 * k * g.grid_points**2 * 8


class TestGramBlocks:
    """`hs_gram` transforms the leading axes one block of half-spectrum
    columns at a time, after the real last-axis pass over the box."""

    @pytest.mark.parametrize("kind", ["bumps", "harmonic"])
    @pytest.mark.parametrize("on", ["box", "grid"])
    def test_ragged_blocks_match_full_grid_gram(self, kind, on):
        # 33 half-spectrum columns at N = 64 leave a last block shorter
        # than the others; a stack on the whole grid is transformed with
        # no padding
        g = default_geometry(n=2, grid_points=64)
        assert (g.grid_points // 2 + 1) % operators._GRAM_COLUMNS != 0
        b = build_exterior_basis(g, 12, kind=kind)
        ref = full_grid_hs_gram(grid_stack(b), g, g.s)
        stack = b.stack if on == "box" else grid_stack(b)
        G = hs_gram(stack, g, g.s)
        assert np.array_equal(G, G.T)
        assert np.max(np.abs(G - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("N", [1024, 16384])
    def test_1d_is_the_one_shot_pairing(self, N):
        # in 1D the last-axis pass is the whole transform, paired at once
        g = default_geometry(n=1, grid_points=N)
        b = build_exterior_basis(g, 16, kind="harmonic")
        hats = sfft.rfft(b.stack, N, axis=-1)
        weight = bessel_symbol(g, g.s)[: hats.shape[-1]]
        G = parseval_pairing(weight, hats, hats, g.cell_volume, N)
        assert np.array_equal(hs_gram(b.stack, g, g.s), 0.5 * (G + G.T))

    def test_peak_memory_below_the_padded_half_spectrum(self):
        # the whole padded half spectrum of the stack, (k, N, N/2 + 1)
        # complex, is more than the blocked Gram ever holds
        g = default_geometry(n=2, grid_points=256)
        b = build_exterior_basis(g, 16, kind="bumps")
        k, N = len(b), g.grid_points
        padded = k * N * (N // 2 + 1) * 16
        assert peak_traced_bytes(hs_gram, b.stack, g, g.s) < padded
        # the one-shot oracle forms that stack, so the bound can fire
        assert peak_traced_bytes(full_grid_hs_gram, grid_stack(b), g, g.s) > padded


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
            b = build_exterior_basis(g, 8, kind="bumps")
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

    def test_difference_is_a_dn_matrix_on_the_basis(self, geom, op_quad, basis, ones_gamma):
        Mg = assemble_dn(bump_conductivity(geom, height=0.5, width=0.8), basis, op_quad)
        M1 = assemble_dn(ones_gamma, basis, op_quad)
        delta = Mg - M1
        assert isinstance(delta, DnMatrix) and delta.basis is basis
        # exactly symmetric, so storing it leaves the subtraction bitwise
        assert np.array_equal(delta.entries, Mg.entries - M1.entries)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("equation", ["conductivity", "schrodinger"])
    def test_batched_matches_column_reference(self, geom, geom2d, n, equation):
        g = geom if n == 1 else geom2d
        op = FracOperator(g)
        b = build_exterior_basis(g, 8, kind="harmonic")
        gam = bump_conductivity(g, height=0.5, width=0.8)
        coefficient = gam if equation == "conductivity" else liouville_potential(gam, op)
        M = assemble_dn(coefficient, b, op).entries
        ref = column_reference(coefficient, b, op)
        assert np.max(np.abs(M - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_batched_failure_names_column(self, geom, op_quad, basis):
        pair = ExteriorBasis(
            geometry=geom,
            stack=np.stack([np.zeros_like(basis.stack[0]), basis.stack[0]]),
            box=basis.box,
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
            DnMatrix(entries=entries, basis=basis)

    @pytest.mark.parametrize("kind", ["ndarray", "GridField"])
    def test_non_coefficient_rejected(self, geom, basis, kind):
        values = np.ones(geom.shape)
        coefficient = values if kind == "ndarray" else GridField(geom, values)
        with pytest.raises(TypeError, match="Conductivity or a Potential"):
            assemble_dn(coefficient, basis, FracOperator(geom))


def reference_apply(coefficient, op):
    """Full-grid stiffness through a complex-FFT convolution of the weights
    that shares no code with the solver's apply."""
    geom = op.geometry
    h_n = geom.cell_volume
    conductivity = isinstance(coefficient, Conductivity)
    g = coefficient.sqrt_values if conductivity else np.ones(geom.shape)
    w_hat = np.fft.fftn(op.form_weights)
    axes = tuple(range(-geom.n, 0))

    def conv(x):
        return np.fft.ifftn(w_hat * np.fft.fftn(x, axes=axes), axes=axes).real

    def full_apply(u):
        out = op.cns * h_n * g * (u * conv(g) - conv(g * u))
        return out if conductivity else out + h_n * coefficient.values * u

    return full_apply


def column_reference(coefficient, basis, op):
    """DN matrix one column at a time: dense solve, flux through
    `reference_apply`."""
    system = interior_system(coefficient, op)
    A = reference_block(coefficient, op)
    geom = basis.geometry
    full_apply = reference_apply(coefficient, op)
    k = len(basis)
    M = np.empty((k, k))
    F = grid_stack(basis)
    for i, f in enumerate(F):
        b = -full_apply(f).reshape(-1)[system.idx]
        u = f.copy().reshape(-1)
        u[system.idx] = np.linalg.solve(A, b)
        z = full_apply(u.reshape(geom.shape))
        for j, fj in enumerate(F):
            M[i, j] = np.sum(fj * z)
    return M


def two_apply_reference(coefficient, basis, op):
    """DN matrix as the flux pairing Z F^T: one stacked apply for the
    right-hand sides, a dense solve, a second stacked apply Z = A U."""
    system = interior_system(coefficient, op)
    full_apply = reference_apply(coefficient, op)
    F = grid_stack(basis)
    k = len(basis)
    B = -full_apply(F).reshape(k, -1)[:, system.idx].T
    U = F.reshape(k, -1).copy()
    U[:, system.idx] = np.linalg.solve(reference_block(coefficient, op), B).T
    Z = full_apply(U.reshape(F.shape))
    return Z.reshape(k, -1) @ F.reshape(k, -1).T


def ring_conductivity(geom, height=0.3):
    """A conductivity that differs from 1 on the annulus (2, 3) only."""
    bump = mollifier_profile((geom.radius - 2.5) / 0.45)
    return Conductivity(geom, 1.0 + height * bump, gamma0=0.5)


class TestCongruenceAssembly:
    """DN matrices through A_gamma = D_g A' D_g against the entrywise block."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_conductivity_matches_outer_product_path(self, geom, geom2d, n):
        g = geom if n == 1 else geom2d
        op = FracOperator(g)
        b = build_exterior_basis(g, 8, kind="harmonic")
        gam = bump_conductivity(g, height=0.5, width=0.8)
        assert np.any(gam.sqrt_values[g.omega_mask()] != 1.0)
        M = assemble_dn(gam, b, op).entries
        ref = outer_product_path(gam, b, op)
        assert np.max(np.abs(M - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("case", ["unit-on-omega", "potential"])
    def test_bitwise_where_g_is_one(self, geom, geom2d, n, case):
        # where g = 1 on Omega, D_g is the identity and A' is A_gamma bit for
        # bit.  The first assembly keeps w * (g F) on the support of F and
        # Omega, bit for bit a fresh transform's there; the second hits it,
        # and its M is the first's bit for bit; M is the dpotrf oracle's
        # within the PCG tolerance
        g = geom if n == 1 else geom2d
        op = FracOperator(g)
        b = build_exterior_basis(g, 8, kind="harmonic")
        if case == "potential":
            coefficient = liouville_potential(bump_conductivity(g, 0.5, 0.8), op)
            gF = b.stack
        else:
            coefficient = ring_conductivity(g)
            assert np.all(coefficient.sqrt_values[g.omega_mask()] == 1.0)
            gF = coefficient.sqrt_values[b.box] * b.stack
        system = interior_system(coefficient, op)
        assert np.all(system._gi == 1.0)
        assert np.array_equal(system._diag, np.diag(reference_block(coefficient, op)))
        M = assemble_dn(coefficient, b, op).entries  # a cold slot: the convolution is computed
        _, entry = op.convolution
        fresh = apply_multiplier(op.form_spectrum, gF, g.shape).reshape(len(b), -1)
        assert np.array_equal(entry, fresh[:, slot_points(b)])
        assert np.array_equal(assemble_dn(coefficient, b, op).entries, M)
        assert op.convolution[1] is entry and op.counts.convolution_hits == 1
        ref = outer_product_path(coefficient, b, FracOperator(g))
        assert np.max(np.abs(M - ref)) <= 1e-10 * np.max(np.abs(ref))


def slot_points(basis):
    """The flat points of a basis' box that the operator's convolution slot
    keeps: those where some field is nonzero, and those of Omega."""
    omega = basis.geometry.omega_mask()[basis.box]
    return np.flatnonzero(np.any(basis.stack, axis=0) | omega)


class TestSharedFactorAssembly:
    """DN matrices by PCG preconditioned by the operator's box inverse, the
    one path every system takes, against the dpotrf-factored entrywise
    block."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("case", ["bump", "ring", "potential"])
    def test_matches_outer_product_path(self, geom, geom2d, n, case):
        g = geom if n == 1 else geom2d
        op = FracOperator(g)
        b = build_exterior_basis(g, 8, kind="harmonic")
        coefficient = {
            "bump": lambda: bump_conductivity(g, 0.5, 0.8),
            "ring": lambda: ring_conductivity(g),
            "potential": lambda: liouville_potential(bump_conductivity(g, 0.5, 0.8), op),
        }[case]()
        M = assemble_dn(coefficient, b, op).entries
        assert op.counts.pcg_solves == 2
        # nothing m x m is held by a system or by the operator it reaches
        assert not square_arrays(interior_system(coefficient, op))
        ref = outer_product_path(coefficient, b, FracOperator(g))
        assert np.max(np.abs(M - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2])
    def test_unit_and_zero_potential_are_bitwise(self, geom, geom2d, n):
        # gamma = 1 and q = 0 state the same system bit for bit, so their
        # PCG runs agree bitwise; both match the factored oracle
        g = geom if n == 1 else geom2d
        b = build_exterior_basis(g, 8, kind="harmonic")
        one = Conductivity(g, np.ones(g.shape), gamma0=0.5)
        zero = Potential(g, np.zeros(g.shape))
        own = outer_product_path(one, b, FracOperator(g))
        op = FracOperator(g)
        unit, pot = (assemble_dn(c, b, op).entries for c in (one, zero))
        assert np.array_equal(unit, pot)
        assert np.max(np.abs(unit - own)) <= 1e-10 * np.max(np.abs(own))
        # two solves and one PCG certificate, whose vector certifies the
        # second system by one product
        assert (op.counts.pcg_solves, op.counts.certificate_products) == (3, 1)

    @pytest.mark.parametrize("n", [1, 2])
    def test_operator_keeps_no_system(self, geom, geom2d, n):
        # assemble_dn builds its system for the call: once it returns, no
        # InteriorSystem, and so none of its full-grid factors, can be
        # reached from the operator
        g = geom if n == 1 else geom2d
        op = FracOperator(g)
        b = build_exterior_basis(g, 8, kind="harmonic")
        gam = bump_conductivity(g, 0.5, 0.8)
        for coefficient in (gam, liouville_potential(gam, op)):
            assemble_dn(coefficient, b, op)
        assert op.counts.systems == 2
        assert not [x for x in reachable(op) if isinstance(x, InteriorSystem)]

    @pytest.mark.parametrize("n, grid_points", [(1, 4096), (1, 16384), (2, 128), (2, 256)])
    def test_iterations_stay_bounded_under_refinement(self, n, grid_points):
        # the box symbol preconditions uniformly: a bump conductivity and its
        # Liouville potential take at most 30 iterations on every grid
        g = default_geometry(n=n, grid_points=grid_points)
        op = FracOperator(g)
        b = build_exterior_basis(g, 8, kind="harmonic")
        gam = bump_conductivity(g, 0.5, 0.8)
        for coefficient in (gam, liouville_potential(gam, op)):
            assemble_dn(coefficient, b, op)
        # A' of the potential is the conductivity's: the kept certificate
        # vector certifies it by one product
        assert (op.counts.pcg_solves, op.counts.certificate_products) == (3, 1)
        assert 0 < op.counts.pcg_max_iterations <= 30


class TestAlessandriniAssembly:
    """One stacked apply per DN matrix, its convolution kept by the operator."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("case", ["potential", "unit", "ring"])
    def test_matches_two_apply_reference(self, geom, geom2d, n, case):
        g = geom if n == 1 else geom2d
        op = FracOperator(g)
        b = build_exterior_basis(g, 8, kind="harmonic")
        coefficient = {
            "potential": lambda: liouville_potential(bump_conductivity(g, 0.5, 0.8), op),
            "unit": lambda: Conductivity(g, np.ones(g.shape), gamma0=0.5),
            "ring": lambda: ring_conductivity(g),
        }[case]()
        M = assemble_dn(coefficient, b, op).entries
        ref = two_apply_reference(coefficient, b, op)
        assert np.max(np.abs(M - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2])
    def test_support_change_is_not_a_stale_hit(self, geom, geom2d, n):
        g = geom if n == 1 else geom2d
        b = build_exterior_basis(g, 8, kind="bumps")
        ring = ring_conductivity(g)
        op = FracOperator(g)
        assemble_dn(Conductivity(g, np.ones(g.shape), gamma0=0.5), b, op)
        kept = op.convolution[0]
        cached = assemble_dn(ring, b, op).entries
        fresh = assemble_dn(ring, b, FracOperator(g)).entries
        # the ring differs from 1 on the basis' support: its g F has another
        # key, so the unit assembly's convolution is not reused
        assert op.convolution[0] != kept and op.counts.convolution_hits == 0
        assert np.array_equal(cached, fresh)

    @pytest.mark.parametrize("n", [1, 2])
    def test_convolution_entry_is_compact(self, geom, geom2d, n):
        # the stored entry owns exactly k |S| floats, S the support of the
        # basis and Omega, not a view into the box's convolution
        g = geom if n == 1 else geom2d
        op = FracOperator(g)
        b = build_exterior_basis(g, 8, kind="bumps")
        assemble_dn(bump_conductivity(g, 0.5, 0.8), b, op)
        _, entry = op.convolution
        owner = entry if entry.base is None else entry.base
        S = slot_points(b)
        assert entry.shape == (len(b), S.size) and S.size < b.stack[0].size
        assert entry.nbytes == owner.nbytes == len(b) * S.size * entry.itemsize

    def test_unit_on_support_shares_one_convolution(self, geom):
        op = FracOperator(geom)
        b = build_exterior_basis(geom, 8, kind="bumps")
        bump = bump_conductivity(geom, height=0.5, width=0.8)  # 1 outside Omega
        for c in (bump, liouville_potential(bump, op), Potential(geom, np.zeros(geom.shape))):
            assemble_dn(c, b, op)
        assert op.counts.convolution_hits == 2

    def test_reduction_suite_convolves_each_basis_once(self, geom_small, monkeypatch):
        # a per-matrix convolution coming back would show as one stacked
        # call per assembly (14 here) instead of one per basis
        stacked = []
        plain = solver.InteriorSystem._convolution

        def counting(self, values, box):
            stacked.append(values.shape)
            return plain(self, values, box)

        monkeypatch.setattr(solver.InteriorSystem, "_convolution", counting)
        out = suite_reduction(geom_small, FracOperator(geom_small), basis_size=8)
        assert len(out["checks"]) == 6
        # the one stack is on the bounding box of Omega and the basis' support
        b = build_exterior_basis(geom_small, 8, kind="bumps")
        covered = geom_small.omega_mask() | np.any(grid_stack(b), axis=0)
        (support,) = np.nonzero(covered)
        assert stacked == [(8, support.max() - support.min() + 1)] == [b.stack.shape]
        assert stacked[0][1] < geom_small.grid_points


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
        big = build_exterior_basis(geom, 12, kind="bumps")
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
        every = range(len(basis))
        block = restrict_dn(M, every, every)
        assert np.array_equal(block.entries, M.entries)
        assert np.array_equal(block.gram_rows, basis.gram)
        assert dn_operator_norm(block) == dn_operator_norm(M)

    def test_two_region_blocks(self, geom, op_quad, basis):
        # the first size - size // 2 bumps lie on (-r_out, -r_in), the rest
        # on (r_in, r_out): testing the left interval against the right one
        # is partial data on two disjoint sets W1 and W2
        k = len(basis)
        left, right = range(k - k // 2), range(k - k // 2, k)
        x = geom.axis()
        F = grid_stack(basis)
        assert np.all(F[list(left)][:, x > 0] == 0.0) and np.all(F[list(right)][:, x < 0] == 0.0)
        gam = bump_conductivity(geom, height=0.4, width=0.7)
        one = Conductivity(geom, np.ones(geom.shape), gamma0=0.5)
        delta = assemble_dn(gam, basis, op_quad) - assemble_dn(one, basis, op_quad)
        off = restrict_dn(delta, left, right)
        assert off.entries.shape == (len(left), len(right))
        assert 0.0 < dn_operator_norm(off) <= dn_operator_norm(delta)

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

    def test_dn_block_rejected(self, basis):
        # a block carries no basis: restricting it with some basis' indices
        # would pair them unchecked
        block = DnBlock(entries=basis.gram, gram_rows=basis.gram, gram_cols=basis.gram)
        every = range(len(basis))
        with pytest.raises(TypeError, match="DnMatrix"):
            restrict_dn(block, every, every)

    def test_bad_indices_rejected(self, geom, op_quad, basis):
        # an empty index set, and ones reaching past either end of the basis
        M = assemble_dn(bump_conductivity(geom, height=0.4, width=0.7), basis, op_quad)
        every = range(len(basis))
        for bad in ([], [len(basis)], [-1], [0, len(basis)]):
            for rows, cols in ((bad, every), (every, bad)):
                with pytest.raises(ValueError, match="basis indices"):
                    restrict_dn(M, rows, cols)
