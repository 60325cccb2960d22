import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft
import scipy.linalg as sla
from scipy.linalg.lapack import dpotrf

from fraccond.conductivity import Conductivity
from fraccond.geometry import GridField, _random_trig_sum, default_geometry, mollifier_profile
from fraccond.operators import FracOperator, apply_multiplier, bessel_symbol
from fraccond.solver import interior_system


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


def smooth_random_field(geometry, seed, kmax=8, support_radius=None):
    """Seeded smooth compactly supported test field with unit sup norm: the
    random trigonometric sum of `bandlimited_field` over the modes
    0 <= k_i <= kmax, times a mollifier window of radius support_radius
    (default 0.85 L), so that it is C_c^infinity inside that radius."""
    if support_radius is None:
        support_radius = 0.85 * geometry.box_halfwidth
    vals, _ = _random_trig_sum(geometry, seed, kmax)
    vals = vals * mollifier_profile(geometry.radius / support_radius)
    return GridField(geometry, vals / np.max(np.abs(vals)))


def fancy_index_stencil(op):
    """Interior stencil: the moment weights at the offset between every pair
    of grid points inside Omega, averaged with the weight at the opposite
    offset, gathered with one modulo-N index array per axis.  The solver
    never forms this m x m matrix; it is the tests' oracle for the windowed
    convolution and the entrywise blocks."""
    geom = op.geometry
    N = geom.grid_points
    axes = tuple(range(geom.n))
    w = op.form_weights
    w = 0.5 * (w + np.roll(np.flip(w, axes), 1, axes))
    coords = np.unravel_index(np.flatnonzero(geom.omega_mask()), geom.shape)
    return w[tuple((a[:, None] - a[None, :]) % N for a in coords)]


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
    A = fancy_index_stencil(op) * (-scale * np.outer(gi, gi))
    diag = scale * (G * apply_multiplier(op.form_spectrum, G)).reshape(-1)[idx]
    if not conductivity:
        diag = diag + geom.cell_volume * coefficient.values.reshape(-1)[idx]
    np.fill_diagonal(A, diag)
    return A


def factored_path(coefficient, op, F):
    """(X, M) for a (k, *grid) stack F of exterior data with the entrywise
    block A_gamma factored by dpotrf, the oracle of the solver's PCG:
    X = A_gamma^-1 B, (k, interior), and M = F (AF)^T - X^T B, with no
    congruence, AF and F on the bounding box of Omega and F's support, as
    the solver applies; M is unsymmetrized."""
    system = interior_system(coefficient, op)
    k = len(F)
    covered = np.nonzero(system.mask | np.any(F != 0, axis=0))
    box = tuple(slice(a.min(), a.max() + 1) for a in covered)
    F = F[(Ellipsis,) + box]
    AF = system.apply(F, box).reshape(k, -1)
    B = -AF[:, np.flatnonzero(system.mask[box])].T
    block = np.asfortranarray(reference_block(coefficient, op))
    factor, info = dpotrf(block, lower=1, clean=0, overwrite_a=1)
    assert info == 0
    X = sla.cho_solve((factor, True), B, check_finite=False)
    M = F.reshape(k, -1) @ AF.T - X.T @ B
    return X.T, M


def outer_product_path(coefficient, basis, op):
    """DN matrix of `factored_path` on a basis, symmetrized as DnMatrix
    stores it."""
    _, M = factored_path(coefficient, op, grid_stack(basis))
    return 0.5 * (M + M.T)


def grid_stack(basis):
    """A basis' (k, *box) stack scattered onto a zero (k, *grid) array: the
    full-grid data the basis stands for."""
    F = np.zeros((len(basis),) + basis.geometry.shape)
    F[(Ellipsis,) + basis.box] = basis.stack
    return F


def full_grid_hs_gram(F, geometry, s):
    """H^s Gram matrix of a (k, *grid) stack by one full-grid real FFT and a
    weighted product of the whole half-spectrum stacks, with no padding and
    no blocks: the oracle of `operators.hs_gram` on a box."""
    axes = tuple(range(1, geometry.n + 1))
    hats = sfft.rfftn(F, axes=axes)
    twice = np.full(hats.shape[-1], 2.0)
    twice[[0, -1]] = 1.0
    weight = bessel_symbol(geometry, s)[..., : hats.shape[-1]] * twice
    a = (hats * weight).reshape(len(F), -1)
    b = hats.reshape(len(F), -1)
    points = geometry.grid_points**geometry.n
    G = (a.view(float) @ b.view(float).T) * (geometry.cell_volume / points)
    return 0.5 * (G + G.T)


def reachable(root):
    """Every object reachable from root through the attributes of fraccond's
    objects and the containers it finds, root included."""
    seen, todo = set(), [root]
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        yield x
        if isinstance(x, dict):
            todo.extend(x.values())
        elif isinstance(x, (tuple, list)):
            todo.extend(x)
        elif type(x).__module__.startswith("fraccond") and hasattr(x, "__dict__"):
            todo.extend(vars(x).values())


def square_arrays(root):
    """Every m x m array (m the interior unknowns of root's geometry) that
    an operator or a system holds: its attributes, its convolution slot, a
    system's operator and whatever they hold (`reachable`)."""
    m = int(np.count_nonzero(root.geometry.omega_mask()))
    return [
        x
        for x in reachable(root)
        if isinstance(x, np.ndarray) and x.ndim >= 2 and x.shape[-2:] == (m, m)
    ]


def full_grid_moment_weights_2d(s, N, L, near=4, images=6, gl_order=24):
    """The 2D moment weights as the full-grid loop builds them: the principal
    term, the Gauss-Legendre near-cell masses, the midpoint periodic images
    (j1 outer, j2 inner) and the uniform tail at every one of the N^2
    offsets, with no symmetry used.  The oracle of the octant evaluation in
    `kernels._moment_weights_2d`."""
    h = 2.0 * L / N
    ax = np.where(np.arange(N) <= N // 2, np.arange(N), np.arange(N) - N) * h
    Y1, Y2 = np.meshgrid(ax, ax, indexing="ij")
    R2 = Y1**2 + Y2**2
    R2[0, 0] = np.inf
    W = h**2 * R2 ** (-(1.0 + s))
    nodes, wts = np.polynomial.legendre.leggauss(gl_order)
    half = 0.5 * h
    for r1 in range(-near, near + 1):
        for r2 in range(-near, near + 1):
            if r1 == 0 and r2 == 0:
                continue
            x = r1 * h + half * nodes
            y = r2 * h + half * nodes
            X, Y = np.meshgrid(x, y, indexing="ij")
            WW = np.outer(wts, wts) * half * half
            W[r1 % N, r2 % N] = np.sum(WW * (X**2 + Y**2) ** (-(1.0 + s)))
    shifts = range(-images, images + 1)
    for j1 in shifts:
        for j2 in shifts:
            if j1 == 0 and j2 == 0:
                continue
            D2 = (Y1 + 2 * L * j1) ** 2 + (Y2 + 2 * L * j2) ** 2
            W += h**2 * D2 ** (-(1.0 + s))
    R_out = (2 * images + 1) * L
    W += 2.0 * np.pi * R_out ** (-2.0 * s) / (2.0 * s) / N**2
    W[0, 0] = 0.0
    return W


def peak_traced_bytes(fn, *args):
    """The peak of the memory that tracemalloc traces while fn(*args) runs,
    in bytes: numpy's arrays are traced, so it bounds the call's transient
    arrays.  Tracing is stopped however the call ends."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
