import numpy as np
import pytest

from fraccond.conductivity import Conductivity
from fraccond.geometry import GeometryConfig, annulus_region, default_geometry
from fraccond.operators import FracOperator, apply_multiplier


@pytest.fixture(scope="session")
def geom():
    """Default 1D layout: s = 0.4, N = 1024, box [-6, 6], annulus (2, 3)."""
    return default_geometry(n=1)


@pytest.fixture(scope="session")
def geom_small():
    return default_geometry(n=1, grid_points=256)


@pytest.fixture(scope="session")
def geom2d():
    return default_geometry(n=2, grid_points=128)


@pytest.fixture(scope="session")
def op_quad(geom):
    return FracOperator(geom)


@pytest.fixture(scope="session")
def ones_gamma(geom):
    return Conductivity(geom, np.ones(geom.shape), gamma0=0.5)


def two_region_geometry():
    """Layout with two disjoint exterior measurement regions."""
    return GeometryConfig(
        n=1,
        s=0.4,
        box_halfwidth=6.0,
        grid_points=1024,
        omega_radius=1.0,
        measurement_sets=(
            annulus_region("inner", 1.5, 2.2, 1),
            annulus_region("outer", 2.4, 3.4, 1),
        ),
    )


def reference_block(coefficient, op):
    """Interior block A_gamma built entrywise, independently of the solver's
    congruence form: the unit stencil times -c h^n g_i g_j, with diagonal
    c h^n g_i (w * g)_i, plus h^n q_i for a potential (g = 1)."""
    geom = op.geometry
    idx = np.flatnonzero(geom.omega_mask().reshape(-1))
    scale = op.cns * geom.cell_volume
    conductivity = isinstance(coefficient, Conductivity)
    G = coefficient.sqrt_values if conductivity else np.ones(geom.shape)
    gi = G.reshape(-1)[idx]
    A = op.interior_stencil * (-scale * np.outer(gi, gi))
    diag = scale * (G * apply_multiplier(op.form_spectrum, G)).reshape(-1)[idx]
    if not conductivity:
        diag = diag + geom.cell_volume * coefficient.values.reshape(-1)[idx]
    np.fill_diagonal(A, diag)
    return A
