import numpy as np
import pytest

from fraccond.geometry import GeometryConfig, annulus_region, default_geometry
from fraccond.operators import FracOperator


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
    from fraccond.conductivity import Conductivity

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
