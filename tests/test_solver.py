"""Galerkin solver: exactness relations, invariants, convergence."""

import copy
import sys
import weakref

import numpy as np
import pytest

import fraccond.operators as operators
import fraccond.solver as solver
from fraccond.conductivity import (
    Conductivity,
    MandacheParams,
    Potential,
    bump_conductivity,
    liouville_potential,
    mandache_family,
)
from fraccond.dnmap import assemble_dn, build_exterior_basis
from fraccond.geometry import GeometryConfig, default_geometry, mollifier_profile
from fraccond.operators import FracOperator, bilinear_form
from fraccond.solver import ExteriorDatum, InteriorSystem, SolverError, interior_system

from conftest import factored_path, fancy_index_stencil, grid_stack, reachable, reference_block


def annulus_bump_datum(geom, center=2.5, width=0.4, height=1.0):
    x = geom.radius
    vals = height * mollifier_profile((x - center) / width)
    vals = np.where(geom.omega_closure_mask(), 0.0, vals)
    return ExteriorDatum(geom, vals)


@pytest.fixture(scope="module")
def datum(geom):
    return annulus_bump_datum(geom)


class TestExteriorDatum:
    def test_interior_support_rejected(self, geom):
        vals = np.zeros(geom.shape)
        vals.reshape(-1)[geom.grid_points // 2] = 1.0  # x = 0 sits in Omega
        with pytest.raises(ValueError, match="closure"):
            ExteriorDatum(geom, vals)

    def test_valid_datum(self, geom, datum):
        assert np.all(datum.values[geom.omega_closure_mask()] == 0.0)


class TestSolveConductivity:
    def test_zero_datum_zero_solution(self, geom, op_quad, ones_gamma):
        z = ExteriorDatum(geom, np.zeros(geom.shape))
        sol = interior_system(ones_gamma, op_quad).solve(z)
        assert np.max(np.abs(sol.u.values)) == 0.0
        assert sol.energy == 0.0

    def test_exterior_values_preserved(self, geom, op_quad, ones_gamma, datum):
        sol = interior_system(ones_gamma, op_quad).solve(datum)
        outside = ~geom.omega_mask()
        assert np.array_equal(sol.u.values[outside], datum.values[outside])
        assert sol.residual <= 1e-10

    def test_unit_gamma_equals_zero_potential(self, geom, op_quad, ones_gamma, datum):
        a = interior_system(ones_gamma, op_quad).solve(datum)
        b = interior_system(Potential(geom, np.zeros(geom.shape)), op_quad).solve(datum)
        assert np.max(np.abs(a.u.values - b.u.values)) <= 1e-14

    def test_constant_gamma_same_solution(self, geom, op_quad, ones_gamma, datum):
        g2 = Conductivity(geom, np.full(geom.shape, 2.0), gamma0=0.5)
        a = interior_system(ones_gamma, op_quad).solve(datum)
        b = interior_system(g2, op_quad).solve(datum)
        assert np.max(np.abs(a.u.values - b.u.values)) <= 1e-12
        assert b.energy == pytest.approx(2.0 * a.energy, rel=1e-12)

    def test_linearity(self, geom, op_quad, ones_gamma):
        f = annulus_bump_datum(geom, center=2.4, width=0.3)
        g = annulus_bump_datum(geom, center=2.7, width=0.35)
        combo = ExteriorDatum(geom, 2.0 * f.values - 0.5 * g.values)
        uf = interior_system(ones_gamma, op_quad).solve(f).u.values
        ug = interior_system(ones_gamma, op_quad).solve(g).u.values
        uc = interior_system(ones_gamma, op_quad).solve(combo).u.values
        err = np.max(np.abs(uc - (2.0 * uf - 0.5 * ug)))
        assert err <= 1e-10 * max(np.max(np.abs(uc)), 1e-30)

    def test_galerkin_orthogonality(self, geom, op_quad, datum):
        gam = bump_conductivity(geom, height=0.5, width=0.8)
        sol = interior_system(gam, op_quad).solve(datum)
        from fraccond.geometry import GridField

        w = GridField(geom, sol.u.values - datum.values)
        pairing = bilinear_form(sol.u, w, gam, op_quad)
        assert abs(pairing) <= 1e-8 * abs(sol.energy)

    def test_maximum_principle_smoke(self, geom, op_quad, ones_gamma, datum):
        sol = interior_system(ones_gamma, op_quad).solve(datum)
        assert sol.u.values.min() >= -1e-8 * datum.values.max()

    def test_self_convergence(self):
        sols = {}
        for N in (256, 512, 1024):
            g = GeometryConfig(n=1, s=0.4, box_halfwidth=6.0, grid_points=N)
            op = FracOperator(g)
            gam = bump_conductivity(g, height=0.5, width=0.8)
            sol = interior_system(gam, op).solve(annulus_bump_datum(g))
            sols[N] = sol.u.values
        # compare on the shared coarse grid points
        e_coarse = np.max(np.abs(sols[256] - sols[512][::2]))
        e_fine = np.max(np.abs(sols[512] - sols[1024][::2]))
        assert e_coarse / e_fine >= 1.5

    def test_residual_tolerance_enforced(self, geom, op_quad, ones_gamma, datum):
        with pytest.raises(SolverError, match="residual"):
            interior_system(ones_gamma, op_quad).solve(datum, tol=1e-300)


class TestLiouvilleCorrespondence:
    def test_transformed_solution_solves_schrodinger(self, geom, op_quad, datum):
        # gamma = 1 on the exterior: datum passes through the transform
        gam = bump_conductivity(geom, height=0.5, width=0.8)
        q = liouville_potential(gam, op_quad)
        u = interior_system(gam, op_quad).solve(datum)
        v = interior_system(q, op_quad).solve(datum)
        transformed = gam.sqrt_values * u.u.values
        rel = np.max(np.abs(v.u.values - transformed)) / np.max(np.abs(v.u.values))
        assert rel <= 1e-12  # the discrete transform is exact: 6.7e-16 measured

    def test_energy_from_unit_gamma(self, geom, op_quad, ones_gamma, datum):
        sol = interior_system(ones_gamma, op_quad).solve(datum)
        energy_direct = bilinear_form(sol.u, sol.u, None, op_quad)
        assert sol.energy == pytest.approx(energy_direct, rel=1e-10)


def smallest_eigenvalue(coefficient, op):
    return np.linalg.eigvalsh(reference_block(coefficient, op))[0]


class TestCoercivity:
    def test_positive_for_unit(self, geom, op_quad, ones_gamma):
        lam = smallest_eigenvalue(ones_gamma, op_quad)
        assert lam > 0

    def test_monotone_in_gamma(self, geom, op_quad, ones_gamma):
        gam = bump_conductivity(geom, height=0.5, width=0.8)  # gamma >= 1
        assert smallest_eigenvalue(gam, op_quad) >= smallest_eigenvalue(ones_gamma, op_quad)

    def test_constant_scaling_doubles_spectrum(self, geom, op_quad, ones_gamma):
        g2 = Conductivity(geom, np.full(geom.shape, 2.0), gamma0=0.5)
        lam1 = smallest_eigenvalue(ones_gamma, op_quad)
        lam2 = smallest_eigenvalue(g2, op_quad)
        assert lam2 == pytest.approx(2.0 * lam1, rel=1e-10)

    def test_non_coercive_potential_reported(self, geom, op_quad):
        bad = Potential(geom, -50.0 * np.ones(geom.shape))
        with pytest.raises(SolverError, match="positive definite"):
            interior_system(bad, op_quad)

    def test_transformed_potential_coercive(self, geom, op_quad):
        gam = bump_conductivity(geom, height=0.9, width=0.9)
        q = liouville_potential(gam, op_quad)
        assert smallest_eigenvalue(q, op_quad) > 0

    def test_congruence_form_matches_reference_block(self, geom, op_quad):
        # A' is -c h^n times the stencil with the system's diagonal, and
        # A_gamma = D_g A' D_g is the entrywise block
        gam = bump_conductivity(geom, height=0.5, width=0.8)
        system = interior_system(gam, op_quad)
        a_prime = np.multiply(fancy_index_stencil(op_quad), -system._scale)
        np.fill_diagonal(a_prime, system._diag)
        congruent = system._gi[:, None] * a_prime * system._gi
        ref = reference_block(gam, op_quad)
        assert np.max(np.abs(congruent - ref)) <= 1e-15 * np.max(np.abs(ref))


class TestPackedSystem:
    @pytest.mark.parametrize("equation", ["conductivity", "schrodinger"])
    def test_block_product_matches_dense(self, geom, op_quad, equation):
        gam = bump_conductivity(geom, height=0.5, width=0.8)
        coefficient = gam if equation == "conductivity" else liouville_potential(gam, op_quad)
        system = interior_system(coefficient, op_quad)
        X = np.random.Generator(np.random.Philox(key=3)).standard_normal((system.idx.size, 3))
        ref = reference_block(coefficient, op_quad) @ X
        assert np.max(np.abs(system._block_product(X) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_mismatched_box_rejected(self, geom, op_quad):
        gam = bump_conductivity(geom, height=0.5, width=0.8)
        other = GeometryConfig(
            n=1, s=geom.s, box_halfwidth=5.0, grid_points=geom.grid_points
        )
        with pytest.raises(ValueError, match="different grids"):
            interior_system(gam, FracOperator(other))
        moved = Conductivity(other, gam.values, gamma0=gam.gamma0)
        with pytest.raises(ValueError, match="different grids"):
            interior_system(moved, op_quad)

    def test_non_coefficient_rejected_before_its_grid_is_read(self, geom_small):
        class Impostor:
            @property
            def geometry(self):
                pytest.fail("read the grid of a non-coefficient")

        op = FracOperator(geom_small)
        for impostor in (Impostor(), np.ones(geom_small.shape)):
            with pytest.raises(TypeError, match="Conductivity or a Potential"):
                InteriorSystem(impostor, op)
        assert op.counts.systems == 0

    @pytest.mark.parametrize("equation", ["conductivity", "schrodinger"])
    def test_corrupted_diagonal_fails_the_residual_check(self, geom, datum, equation):
        op = FracOperator(geom)
        gam = bump_conductivity(geom, height=0.5, width=0.8)
        coefficient = gam if equation == "conductivity" else liouville_potential(gam, op)
        system = InteriorSystem(coefficient, op)
        assert system.solve(datum).residual <= 1e-10
        system._diag = system._diag * (1.0 + 1e-6)
        with pytest.raises(SolverError, match="residual"):
            system.solve(datum)

    def test_every_call_builds_a_system(self, geom_small):
        op = FracOperator(geom_small)
        gam = bump_conductivity(geom_small, height=0.5, width=0.8)
        assert interior_system(gam, op) is not interior_system(gam, op)
        assert op.counts.systems == 2
        # the first system's certificate is a PCG run, and its vector
        # certifies the second by one product
        assert (op.counts.pcg_solves, op.counts.certificate_products) == (1, 1)


def whole_grid(geom):
    """The box of the whole grid, as `solve_many` takes it."""
    return (slice(None),) * geom.n


def assert_same_solve(got, want, factor=1.0):
    """X and M of two `solve_many` calls agree bit for bit, the first's data
    being the second's times factor (a power of two, exact in every step):
    X scales by it and M by its square."""
    assert np.array_equal(got[0], factor * want[0])
    assert np.array_equal(got[1], factor**2 * want[1])


class TestConvolutionStore:
    """Each operator keeps the convolution of the last stack that
    `solve_many` solved in a single slot."""

    @staticmethod
    def data(geom, *centers):
        return [annulus_bump_datum(geom, center=x).values[None] for x in centers]

    def test_only_the_last_solve_is_kept(self, geom_small):
        op = FracOperator(geom_small)
        system = interior_system(Potential(geom_small, np.zeros(geom_small.shape)), op)
        box = whole_grid(geom_small)
        a, b = self.data(geom_small, 2.2, 2.5)
        solved_a = system.solve_many(a, box)
        key_a, conv_a = op.convolution
        assert_same_solve(system.solve_many(a, box), solved_a)  # a hit
        assert op.convolution[1] is conv_a and op.counts.convolution_hits == 1
        system.solve_many(b, box)  # a miss replaces a
        assert op.convolution[0] != key_a
        assert_same_solve(system.solve_many(a, box), solved_a)  # a again, rebuilt
        assert op.convolution[1] is not conv_a and op.counts.convolution_hits == 1

    def test_slot_is_freed_before_a_miss_is_built(self, geom_small, monkeypatch):
        op = FracOperator(geom_small)
        system = interior_system(Potential(geom_small, np.zeros(geom_small.shape)), op)
        box = whole_grid(geom_small)
        a, b = self.data(geom_small, 2.2, 2.5)
        system.solve_many(a, box)
        held = []
        plain = solver.InteriorSystem._convolution

        def watching(self, *args):
            held.append(op.convolution)
            return plain(self, *args)

        monkeypatch.setattr(solver.InteriorSystem, "_convolution", watching)
        system.solve_many(b, box)
        assert held == [None]

    def test_conductivity_and_potential_share_a_unit_entry(self, geom_small):
        op = FracOperator(geom_small)
        one = Conductivity(geom_small, np.ones(geom_small.shape), gamma0=0.5)
        zero = Potential(geom_small, np.zeros(geom_small.shape))
        box = whole_grid(geom_small)
        (F,) = self.data(geom_small, 2.5)
        unit = interior_system(one, op).solve_many(F, box)
        assert_same_solve(interior_system(zero, op).solve_many(F, box), unit)
        assert op.counts.convolution_hits == 1

    def test_apply_is_the_plain_product(self, geom_small):
        # apply neither reads nor fills the slot
        op = FracOperator(geom_small)
        system = interior_system(Potential(geom_small, np.zeros(geom_small.shape)), op)
        a, b = self.data(geom_small, 2.2, 2.5)
        system.solve_many(a, whole_grid(geom_small))
        kept = op.convolution
        Aa = system.apply(a)
        assert np.array_equal(system.apply(a), Aa)
        system.apply(b)
        assert op.convolution is kept and op.counts.convolution_hits == 0


class TestStreamedAssembly:
    """`solve_many` keys the operator's convolution by the data stack's
    identity and g on the stack's support, keeps it on the support and
    Omega only, and forms g u once per field, for the convolution; it frees
    AF before its PCG run."""

    @staticmethod
    def coefficient(op, equation):
        # reaches the annulus, so g != 1 where the basis lives
        gamma = bump_conductivity(op.geometry, height=0.5, width=2.8)
        return gamma if equation == "conductivity" else liouville_potential(gamma, op)

    @staticmethod
    def fresh(coefficient, F, box):
        """The solve of a coefficient on an operator with an empty slot."""
        return interior_system(coefficient, FracOperator(coefficient.geometry)).solve_many(F, box)

    @staticmethod
    def read_only_copy(stack):
        F = stack.copy()
        F.setflags(write=False)
        return F

    @pytest.mark.parametrize("n", [1, 2])
    def test_same_stack_and_g_on_its_support_hits(self, geom, geom2d, n):
        g = geom if n == 1 else geom2d
        op = FracOperator(g)
        b = build_exterior_basis(g, 8, kind="bumps")
        support = np.any(b.stack, axis=0)
        unit = Potential(g, np.zeros(g.shape))  # a potential counts as g = 1
        inside = bump_conductivity(g, height=0.5, width=0.8)  # g != 1 inside Omega only
        wide = self.coefficient(op, "conductivity")
        assert np.all(inside.sqrt_values[b.box][support] == 1.0)
        assert np.any(inside.sqrt_values[g.omega_mask()] != 1.0)
        assert np.any(wide.sqrt_values[b.box][support] != 1.0)
        hits = []
        for coefficient in (unit, inside, wide, wide):
            solved = interior_system(coefficient, op).solve_many(b.stack, b.box)
            hits.append(op.counts.convolution_hits)
            assert_same_solve(solved, self.fresh(coefficient, b.stack, b.box))
        # inside hits unit's entry, a second system of wide hits the first's
        assert hits == [0, 1, 1, 2]

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("equation", ["conductivity", "schrodinger"])
    def test_other_g_on_the_support_or_a_copy_misses(self, geom, geom2d, n, equation):
        g = geom if n == 1 else geom2d
        op = FracOperator(g)
        b = build_exterior_basis(g, 8, kind="harmonic")
        coefficient = self.coefficient(op, equation)
        unit = Conductivity(g, np.ones(g.shape), gamma0=0.5)
        interior_system(unit, op).solve_many(b.stack, b.box)
        system = interior_system(coefficient, op)
        solved = system.solve_many(b.stack, b.box)
        # equal values in another array are another stack
        copied = self.read_only_copy(b.stack)
        assert_same_solve(system.solve_many(copied, b.box), solved)
        hits = 0 if equation == "conductivity" else 1  # the potential is g = 1
        assert op.counts.convolution_hits == hits
        assert_same_solve(solved, self.fresh(coefficient, b.stack, b.box))

    @pytest.mark.parametrize("n", [1, 2])
    def test_writable_data_never_hit(self, geom, geom2d, n):
        g = geom if n == 1 else geom2d
        op = FracOperator(g)
        b = build_exterior_basis(g, 8, kind="bumps")
        system = interior_system(self.coefficient(op, "conductivity"), op)
        F = b.stack.copy()
        solved = system.solve_many(F, b.box)
        assert op.convolution is None  # nothing is kept that no solve could hit
        F *= 2.0
        assert_same_solve(system.solve_many(F, b.box), solved, 2.0)
        # a read-only view of a writable base is as writable as the base
        base = b.stack.copy()
        view = base[:]
        view.setflags(write=False)
        assert_same_solve(system.solve_many(view, b.box), solved)
        base *= 2.0
        assert_same_solve(system.solve_many(view, b.box), solved, 2.0)
        assert op.counts.convolution_hits == 0

    @pytest.mark.parametrize("n", [1, 2])
    def test_freed_stack_misses(self, geom, geom2d, n):
        g = geom if n == 1 else geom2d
        op = FracOperator(g)
        b = build_exterior_basis(g, 8, kind="bumps")
        system = interior_system(self.coefficient(op, "schrodinger"), op)
        F = self.read_only_copy(b.stack)
        solved = system.solve_many(F, b.box)
        kept, stack = op.convolution[0], weakref.ref(F)
        del F
        assert stack() is None  # the slot keeps no stack alive
        # an equal stack, perhaps at the freed one's address, is not a hit
        F = self.read_only_copy(b.stack)
        assert_same_solve(system.solve_many(F, b.box), solved)
        assert op.counts.convolution_hits == 0 and op.convolution[0] != kept

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("equation", ["conductivity", "schrodinger"])
    def test_dn_matrix_is_the_alessandrini_product(self, geom, geom2d, n, equation):
        # from a cold slot and from a hit, which rebuilds AF on the support
        # and Omega only, M is F (AF)^T - X^T B with AF the plain product
        g = geom if n == 1 else geom2d
        op = FracOperator(g)
        b = build_exterior_basis(g, 8, kind="harmonic")
        system = interior_system(self.coefficient(op, equation), op)
        k = len(b)
        AF = system.apply(b.stack, b.box).reshape(k, -1)
        B = -AF[:, np.flatnonzero(system.mask[b.box])].T
        for hits in (0, 1):
            X, M, _ = system.solve_many(b.stack, b.box)
            assert op.counts.convolution_hits == hits
            assert np.array_equal(M, b.stack.reshape(k, -1) @ AF.T - X @ B)

    def test_no_stack_of_the_box_but_the_data_during_the_solve(self, monkeypatch):
        # while PCG runs, the slot holds the convolution on the data's
        # support and Omega only, and AF is freed: of the arrays that the
        # assembly's frames and the operator reach, none but the basis' own
        # stack has a stack's k x box elements
        g = default_geometry(n=2, grid_points=128)
        op = FracOperator(g)
        b = build_exterior_basis(g, 16, kind="bumps")
        test = sys._getframe().f_code
        seen = []
        plain = solver.InteriorSystem._pcg

        def watching(self, *args):
            seen.append(held_arrays(b.stack.size, test))
            return plain(self, *args)

        monkeypatch.setattr(solver.InteriorSystem, "_pcg", watching)
        for _ in range(2):  # a miss and a hit
            assemble_dn(bump_conductivity(g, 0.5, 0.8), b, op)
        assert op.counts.convolution_hits == 1 and len(seen) >= 2
        assert all(len(held) == 1 and held[0] is b.stack for held in seen)


def held_arrays(size, stop):
    """The arrays of size elements reachable (`reachable`) from the locals of
    every frame on the call stack, up to the frame that runs the code object
    stop."""
    frame, roots = sys._getframe(1), []
    while frame is not None:
        roots.append(frame.f_locals)
        if frame.f_code is stop:
            break
        frame = frame.f_back
    return [x for x in reachable(roots) if isinstance(x, np.ndarray) and x.size == size]


class TestBoxApply:
    """An apply on a box of the grid is the full-grid apply read on the box."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("equation", ["conductivity", "schrodinger"])
    def test_box_apply_is_the_full_grid_apply_restricted(self, geom, geom2d, n, equation):
        g = geom if n == 1 else geom2d
        op = FracOperator(g)
        wide = mollifier_profile(g.radius / 4.0)  # away from 0 on Omega and the data
        coefficient = {
            "conductivity": lambda: Conductivity(g, 1.0 + 0.3 * wide, gamma0=0.5),
            "schrodinger": lambda: Potential(g, 0.5 * wide),
        }[equation]()
        basis = build_exterior_basis(g, 4, kind="harmonic")
        F = grid_stack(basis)
        support = np.any(F != 0, axis=0)
        if equation == "conductivity":
            assert np.all(coefficient.sqrt_values[support] != 1.0)
        box = basis.box
        assert all(b.start > 0 for b in box)  # the box is not the grid's low corner
        system = interior_system(coefficient, op)
        full = system.apply(F)[(Ellipsis,) + box]
        boxed = system.apply(basis.stack, box)
        assert boxed.shape == full.shape
        # A u = s (e u - w * (g u)) is a difference of two terms of the size
        # of s e u, s = c h^n g (g = 1 for a potential), which sets the
        # roundoff of either transform's result
        g_grid = coefficient.sqrt_values if equation == "conductivity" else 1.0
        terms = np.abs(system._scale * g_grid * system._e * F)[(Ellipsis,) + box]
        assert np.max(np.abs(boxed - full)) <= 1e-15 * np.max(terms)


class TestSystemArrays:
    @pytest.mark.parametrize("equation", ["conductivity", "schrodinger"])
    def test_system_owns_one_full_grid_array(self, geom, op_quad, equation):
        # of the grid a system owns only apply's factor e: g (or q) is the
        # coefficient's, the weights' spectra are the operator's, apply's
        # scale c h^n g is formed on the box and g = 1 is never formed; the
        # boolean Omega mask aside
        gam = bump_conductivity(geom, 0.5, 0.8)
        coefficient = gam if equation == "conductivity" else liouville_potential(gam, op_quad)
        system = interior_system(coefficient, op_quad)
        shared = {id(x) for root in (op_quad, coefficient) for x in reachable(root)}
        owned = [
            x
            for x in reachable(system)
            if isinstance(x, np.ndarray)
            and x.dtype == float
            and x.shape == geom.shape
            and id(x) not in shared
        ]
        assert len(owned) == 1 and owned[0] is system._e


class TestSchrodingerSolve:
    def test_zero_everything(self, geom, op_quad):
        z = ExteriorDatum(geom, np.zeros(geom.shape))
        sol = interior_system(Potential(geom, np.zeros(geom.shape)), op_quad).solve(z)
        assert np.max(np.abs(sol.u.values)) == 0.0

    def test_far_field_energy(self, geom, op_quad, datum):
        sol = interior_system(Potential(geom, np.zeros(geom.shape)), op_quad).solve(datum)
        direct = bilinear_form(sol.u, sol.u, None, op_quad)
        assert sol.energy == pytest.approx(direct, rel=1e-10)


def column_pcg(system, B, rtol=solver._PCG_RTOL):
    """(Y, steps): A' Y = B by preconditioned CG on each column alone, with
    the system's box preconditioner and product; steps is the most any
    column took."""
    Y = np.zeros_like(B)
    steps = 0
    for j in range(B.shape[1]):
        b = B[:, j : j + 1]
        y = np.zeros_like(b)
        r = b.copy()
        z = system._precondition(r)
        p = z.copy()
        rz = np.vdot(r, z)
        it = 0
        while np.linalg.norm(r) > rtol * np.linalg.norm(b):
            it += 1
            q = system._matvec(p, system._shift)
            alpha = rz / np.vdot(p, q)
            y += alpha * p
            r -= alpha * q
            z = system._precondition(r)
            rz, rz_old = np.vdot(r, z), rz
            p = z + (rz / rz_old) * p
        Y[:, j] = y[:, 0]
        steps = max(steps, it)
    return Y, steps


class TestSharedFactor:
    """Every system: PCG preconditioned by the inverse symbol of the unit
    block's box extension, which the operator shares between them; no
    factor is formed.  The oracle is the dpotrf-factored entrywise block
    (`conftest.factored_path`)."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_preconditioner_keeps_the_unit_block_near_the_diagonal(self, geom, geom2d, n):
        # R L_P E, L_P applied through its symbol on the half-size box: A'_0's
        # diagonal and every entry whose offset lies within [-Dp, Dp]^n
        g = geom if n == 1 else geom2d
        op = FracOperator(g)
        one = Conductivity(g, np.ones(g.shape), gamma0=0.5)
        ref = reference_block(one, op)
        pre = op.box_inverse_symbol
        forward = copy.copy(pre)  # L_P itself: the same box, the symbol
        forward.spectrum = 1.0 / pre.spectrum
        restricted = forward(np.eye(ref.shape[0]))
        _, coords, D = op.interior_offsets
        Dp = (D + 1) // 2
        near = np.ones(ref.shape, dtype=bool)
        for a in coords:
            near &= np.abs(a[:, None] - a[None, :]) <= Dp
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(np.diag(restricted) - np.diag(ref))) <= 1e-13 * scale
        assert np.max(np.abs(restricted - ref)[near]) <= 1e-13 * scale
        # farther offsets wrap onto central weights
        assert np.max(np.abs(restricted - ref)[~near]) > 1e-6 * scale

    @pytest.mark.parametrize("coefficient", ["unit", "zero"])
    def test_unit_coefficient_matches_factored_path(self, geom, datum, coefficient):
        make = {
            "unit": lambda: Conductivity(geom, np.ones(geom.shape), gamma0=0.5),
            "zero": lambda: Potential(geom, np.zeros(geom.shape)),
        }[coefficient]
        X, M = factored_path(make(), FracOperator(geom), datum.values[None])
        op = FracOperator(geom)
        shared = interior_system(make(), op).solve(datum)
        direct = datum.values.copy()
        direct[geom.omega_mask()] = X[0]
        ref = np.max(np.abs(direct))
        assert np.max(np.abs(shared.u.values - direct)) <= 1e-12 * ref
        assert shared.energy == pytest.approx(M[0, 0], rel=1e-12)
        counts = op.counts
        assert counts.pcg_solves == 2  # certificate, solve
        assert counts.pcg_max_iterations > 0

    def test_matches_own_factor_and_counts(self, geom, datum):
        gam = bump_conductivity(geom, height=0.5, width=0.8)
        X, _ = factored_path(gam, FracOperator(geom), datum.values[None])
        op = FracOperator(geom)
        sol = interior_system(gam, op).solve(datum)
        interior = sol.u.values[geom.omega_mask()]
        assert np.max(np.abs(interior - X[0])) <= 1e-12 * np.max(np.abs(sol.u.values))
        counts = op.counts
        assert counts.systems == 1
        assert counts.pcg_solves == 2  # the certificate and the solve
        assert 0 < counts.pcg_max_iterations < counts.pcg_iterations
        assert 0 < counts.worst_residual == sol.residual <= 1e-10

    def test_non_coercive_potential_reported(self, geom):
        bad = Potential(geom, -50.0 * np.ones(geom.shape))
        op = FracOperator(geom)
        with pytest.raises(SolverError, match="positive definite"):
            interior_system(bad, op)
        # E = V^T A' V on the coarse space refuses it before any PCG run
        assert (op.counts.pcg_solves, op.counts.pcg_iterations) == (0, 0)

    @pytest.mark.parametrize("margin", [0.05, -0.05])
    def test_certificate_at_the_coercivity_edge(self, geom, margin):
        # q = const shifts the spectrum of A' = A'_0 + h^n q I by h^n q:
        # a margin of +-5% of A'_0's smallest eigenvalue either side of 0
        op = FracOperator(geom)
        zero = Potential(geom, np.zeros(geom.shape))
        lam0 = np.linalg.eigvalsh(reference_block(zero, op))[0]
        q = Potential(geom, np.full(geom.shape, -(1.0 - margin) * lam0 / geom.cell_volume))
        lam = np.linalg.eigvalsh(reference_block(q, op))[0]
        assert np.sign(lam) == np.sign(margin)
        if margin > 0:
            system = interior_system(q, op)
            assert system.solve(annulus_bump_datum(geom)).residual <= 1e-10
        else:
            with pytest.raises(SolverError, match="positive definite"):
                interior_system(q, op)

    @pytest.mark.parametrize("case", ["negative-entry", "negative-product", "unconverged"])
    def test_every_certificate_condition_can_fire(self, geom, monkeypatch, case):
        # each certificate is one the guard must refuse.  For a well of
        # q = -30 on one point of Omega, which A' does not survive but its
        # coarse block E = V^T A' V does: the exact solution of A' v = 1,
        # which has negative entries as A' is not an M-matrix, and v = 1 > 0,
        # where A' 1 has negative entries.  For a bump conductivity, its
        # exact v > 0 from a run that did not converge.
        op = FracOperator(geom)
        ones = np.ones(np.count_nonzero(geom.omega_mask()))
        well = np.zeros(geom.shape)
        well.flat[np.flatnonzero(geom.omega_mask())[len(ones) // 2]] = -30.0
        bad = Potential(geom, well)
        assert np.linalg.eigvalsh(reference_block(bad, op))[0] < 0
        bump = bump_conductivity(geom, height=0.5, width=0.8)
        gi = bump.sqrt_values[geom.omega_mask()]
        exact_bad = np.linalg.solve(reference_block(bad, op), ones)
        exact_bump = np.linalg.solve(reference_block(bump, op) / np.outer(gi, gi), ones)
        assert exact_bad.min() < 0 < exact_bump.min()
        coefficient, v, converged = {
            "negative-entry": (bad, exact_bad, True),
            "negative-product": (bad, ones, True),
            "unconverged": (bump, exact_bump, False),
        }[case]
        runs = []

        def certificate(system, B, rtol):
            runs.append(rtol)
            return v[:, None], converged

        monkeypatch.setattr(InteriorSystem, "_pcg", certificate)
        with pytest.raises(SolverError, match="positive definite"):
            InteriorSystem(coefficient, op)
        assert len(runs) == 1  # refused by the certificate, not by E

    def test_kept_certificate_falls_back_to_a_run(self, geom):
        # the unit system's certificate run keeps its v > 0, which certifies
        # a wide bump by one product but not a tall narrow one (its Liouville
        # potential is strongly negative inside Omega): that system is
        # certified by a run of its own, and the kept v stays the first
        op = FracOperator(geom)
        interior_system(Conductivity(geom, np.ones(geom.shape), gamma0=0.5), op)
        v = op.certificate
        assert v.shape == (np.count_nonzero(geom.omega_mask()), 1)
        assert v.min() > 0 and not v.flags.writeable
        interior_system(bump_conductivity(geom, height=0.5, width=0.8), op)
        assert (op.counts.pcg_solves, op.counts.certificate_products) == (1, 1)
        system = interior_system(bump_conductivity(geom, height=9.0, width=0.2), op)
        assert system._matvec(v, system._shift).min() < 0
        assert (op.counts.pcg_solves, op.counts.certificate_products) == (2, 1)
        assert op.certificate is v
        assert system.solve(annulus_bump_datum(geom)).residual <= 1e-10
        # a system that is not positive definite on the coarse space is
        # refused by E = V^T A' V before the product or a run
        with pytest.raises(SolverError, match="positive definite"):
            interior_system(Potential(geom, -50.0 * np.ones(geom.shape)), op)
        assert (op.counts.systems, op.counts.pcg_solves, op.counts.certificate_products) == (4, 3, 1)

    @pytest.mark.parametrize("block", ["repeated", "zero", "near"])
    def test_rank_deficient_block_matches_factored_path(self, geom, datum, block):
        # the residual block loses rank; QR keeps the directions
        # orthonormal, so every column still converges, the zero one exactly
        gam = bump_conductivity(geom, height=0.5, width=0.8)
        f = datum.values
        g = annulus_bump_datum(geom, center=2.7, width=0.3).values
        second = {"repeated": f, "zero": np.zeros_like(f), "near": f + 1e-13 * g}[block]
        F = np.stack([f, g, second])
        direct, _ = factored_path(gam, FracOperator(geom), F)
        whole = (slice(None),) * geom.n
        X, _, residuals = interior_system(gam, FracOperator(geom)).solve_many(F, whole)
        assert np.max(np.abs(X - direct)) <= 1e-12 * np.max(np.abs(direct))
        assert np.all(residuals <= 1e-10)
        if block == "zero":
            assert not np.any(X[2])

    def test_block_steps_fewer_than_column_steps(self):
        # one Krylov space for the whole block takes fewer steps than the
        # column-wise PCG each column would run on its own (a test-local
        # reference with the same preconditioner, product and stopping rule)
        g = default_geometry(n=2, grid_points=256)
        op = FracOperator(g)
        basis = build_exterior_basis(g, 16, kind="harmonic")
        system = interior_system(bump_conductivity(g, 0.5, 0.8), op)
        F = grid_stack(basis)
        B = -system.apply(F).reshape(len(F), -1)[:, system.idx].T / system._gi[:, None]
        before = op.counts.pcg_iterations
        Y, converged = system._pcg(B)
        block_steps = op.counts.pcg_iterations - before
        Yc, column_steps = column_pcg(system, B)
        assert converged
        assert np.max(np.abs(Y - Yc)) <= 1e-12 * np.max(np.abs(Yc))
        assert 0 < block_steps < column_steps

    def test_dependent_harmonic_block_beats_its_slowest_column(self):
        # the 16 harmonic right-hand sides of a Mandache member are
        # numerically dependent (with unit columns their singular values
        # fall to ~1e-13); a block that kept every direction took as many
        # steps as its slowest column (11 at 1D N = 2048), and one that keeps
        # only the independent directions takes fewer, on narrower blocks:
        # 10 without the coarse space, 6 with it
        g = default_geometry(n=1, grid_points=2048)
        params = MandacheParams(ell=2.5, eps=0.1, beta=1e4, lattice_spacing=0.2, seed=5, s=g.s, n=1)
        member = mandache_family(params, 5, g)[4]
        op = FracOperator(g)
        system = interior_system(member, op)
        F = grid_stack(build_exterior_basis(g, 16, kind="harmonic"))
        B = -system.apply(F).reshape(len(F), -1)[:, system.idx].T
        before, columns = op.counts.pcg_iterations, op.counts.pcg_columns
        Y, converged = system._pcg(B / system._gi[:, None])
        block_steps = op.counts.pcg_iterations - before
        _, column_steps = column_pcg(system, B / system._gi[:, None])
        assert converged
        assert 0 < block_steps < column_steps and block_steps <= 7
        assert op.counts.pcg_columns - columns < 16 * block_steps
        X, _ = factored_path(member, FracOperator(g), F)
        assert np.max(np.abs(Y.T / system._gi - X)) <= 1e-12 * np.max(np.abs(X))

    def test_half_size_box_takes_at_most_one_more_step(self):
        # the Strang circulant on the half-size box against a test-local
        # oracle preconditioned by the unit block's extension L_P to the
        # product's 2D + 1 box, whose restriction to Omega is A'_0 exactly
        g = default_geometry(n=2, grid_points=128)
        op = FracOperator(g)
        basis = build_exterior_basis(g, 16, kind="harmonic")
        system = interior_system(bump_conductivity(g, 0.5, 0.8), op)
        F = grid_stack(basis)
        B = -system.apply(F).reshape(len(F), -1)[:, system.idx].T / system._gi[:, None]
        conv = op.interior_convolution
        assert op.box_inverse_symbol.shape[0] < conv.shape[0]
        symbol = op.form_weights.sum() + conv.center - conv.spectrum.real
        unit_inverse = copy.copy(conv)  # R L_P^-1 E on the product's box
        unit_inverse.spectrum = 1.0 / (op.cns * g.cell_volume * symbol)

        def steps(precondition):
            system._precondition = precondition
            before = op.counts.pcg_iterations
            Y, converged = system._pcg(B)
            assert converged
            return Y, op.counts.pcg_iterations - before

        Y, half = steps(system._preconditioner)
        Y_unit, unit = steps(unit_inverse)
        assert 0 < half <= unit + 1
        assert np.max(np.abs(Y - Y_unit)) <= 1e-12 * np.max(np.abs(Y_unit))


class TestCoarseSpace:
    """The operator's coarse space V, the low modes of the box
    preconditioner, which every system's PCG starts from and keeps its
    directions A'-orthogonal to."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_orthonormal_and_one_product_on_a_copy(self, geom, geom2d, n):
        op = FracOperator(geom if n == 1 else geom2d)
        V, SV = op.coarse_space
        m = np.count_nonzero(op.geometry.omega_mask())
        assert V.shape == SV.shape and 0 < V.shape[1] <= min(m, operators._COARSE_MODES)
        assert V.flags.f_contiguous and SV.flags.f_contiguous
        assert np.max(np.abs(V.T @ V - np.eye(V.shape[1]))) <= 1e-12
        assert op.counts.coarse_columns == V.shape[1]
        # V spans the modes cos + sin of every frequency of the box's full
        # DFT grid whose inverse symbol lies strictly above the cut, the
        # 16th largest (ties at the cut may go either way)
        pre = op.box_inverse_symbol
        axes = tuple(range(n))
        inverse = np.fft.fftn(np.fft.irfftn(pre.spectrum, s=pre.shape, axes=axes)).real
        cut = np.sort(inverse, axis=None)[-operators._COARSE_MODES]
        inside = np.nonzero(inverse > cut * (1 + 1e-9))
        _, coords, _ = op.interior_offsets
        theta = sum(np.multiply.outer(x, k) for x, k in zip(coords, inside)) * (2 * np.pi)
        modes = np.cos(theta / pre.shape[0]) + np.sin(theta / pre.shape[0])
        assert 0 < modes.shape[1] < operators._COARSE_MODES
        assert np.max(np.abs(modes - V @ (V.T @ modes))) <= 1e-10 * np.max(np.abs(modes))
        # the product ran on a copy: the operator's convolution keeps no
        # product arrays
        conv = op.interior_convolution
        assert conv._rows is None and conv._passes is None
        assert np.array_equal(SV, copy.copy(conv)(V))

    def test_omega_of_fewer_points_than_the_modes(self):
        # at 1D N = 64 Omega has 11 points: V spans them all, and the solve
        # is the coarse solve
        g = default_geometry(n=1, grid_points=64)
        op = FracOperator(g)
        m = np.count_nonzero(g.omega_mask())
        assert m < operators._COARSE_MODES and op.coarse_space[0].shape == (m, m)
        gam = bump_conductivity(g, 0.5, 0.8)
        datum = annulus_bump_datum(g)
        sol = interior_system(gam, op).solve(datum)
        X, _ = factored_path(gam, FracOperator(g), datum.values[None])
        assert sol.residual <= 1e-10
        assert np.max(np.abs(sol.u.values[g.omega_mask()] - X[0])) <= 1e-12 * np.max(np.abs(X))
