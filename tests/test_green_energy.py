import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diskvort import disk_spectral as ds
from diskvort import green_energy as ge
from diskvort.bessel import bessel_j, bessel_zero
from complex_layout import as_complex
from green_oracle import apply_green, apply_green_kernel


def test_multipliers_positive_nonincreasing(basis):
    assert (basis.green_mult > 0).all()
    assert (np.diff(basis.green_mult, axis=1) <= 0).all()


def test_eigenmode_division(basis):
    j = bessel_zero(1, 1)
    eta = ds.single_mode(basis, 1, 1)
    psi = apply_green(eta)
    assert np.abs(psi.coeffs - eta.coeffs / j**2).max() == 0.0


def test_zero_field(basis):
    z = ds.SpectralField(basis, np.zeros((basis.n_modes + 1, 2, basis.k_radial)))
    assert np.abs(apply_green(z).coeffs).max() == 0.0
    assert ge.energy(z) == 0.0


def test_energy_of_unit_dipole(basis):
    j = bessel_zero(1, 1)
    eta = ds.single_mode(basis, 1, 1)
    unit = ds.SpectralField(basis, eta.coeffs / math.sqrt(ds.spectral_norm2(eta)))
    assert abs(ge.energy(unit) - 1.0 / (2 * j**2)) < 1e-14
    assert abs(ge.energy(unit) - 0.034055) < 1e-6


def test_positivity(basis, rng):
    f = ds.random_in_span(basis, rng, scale=1e-6)
    assert ge.energy(f) > 0.0


def test_symmetry(basis, rng):
    f1 = ds.random_in_span(basis, rng)
    f2 = ds.random_in_span(basis, rng)
    g1, g2 = ds.to_grid(f1), ds.to_grid(f2)
    gf1 = ds.to_grid(apply_green(f1))
    gf2 = ds.to_grid(apply_green(f2))
    a = ge.inner_product_grid(g1, gf2)
    b = ge.inner_product_grid(g2, gf1)
    assert abs(a - b) < 1e-10


def test_inverse_property(basis, rng):
    f = ds.random_in_span(basis, rng)
    back = ds.SpectralField(basis, apply_green(f).coeffs / basis.green_mult[:, None])
    assert np.abs(as_complex(back.coeffs - f.coeffs)).max() < 1e-9


def test_rotation_commutes(basis, rng):
    f = ds.random_in_span(basis, rng)
    beta = 0.77
    a = apply_green(ds.rotate(f, beta))
    b = ds.rotate(apply_green(f), beta)
    assert np.abs(as_complex(a.coeffs - b.coeffs)).max() < 1e-15


def test_radial_affine_relation_on_grid(basis, grid):
    # J_0(j r) - j^2 G J_0(j r) realizes the constant J_0(j) through the
    # basis expansion of that constant, checked on grid values
    j = bessel_zero(1, 1)
    xi_vals = np.tile(bessel_j(0, j * grid.r)[:, None], (1, grid.n_theta))
    xi = ds.from_grid(ds.GridField(grid, xi_vals), basis)
    lhs = ds.SpectralField(basis, xi.coeffs - j**2 * apply_green(xi).coeffs)
    const = ds.from_grid(
        ds.GridField(grid, np.full((grid.n_r, grid.n_theta), bessel_j(0, j))), basis
    )
    diff = ds.to_grid(lhs).values - ds.to_grid(const).values
    assert np.abs(diff).max() < 1e-8


def test_kernel_zero_field(grid):
    z = ds.GridField(grid, np.zeros((grid.n_r, grid.n_theta)))
    assert np.abs(apply_green_kernel(z).values).max() == 0.0


def test_kernel_constant_closed_form():
    grid = ds.DiskGrid(48, 96)
    one = ds.GridField(grid, np.ones((48, 96)))
    psi = apply_green_kernel(one)
    # closed form G(1) = (1 - r^2) / 4
    exact = ds.GridField(grid, np.tile(((1.0 - grid.r**2) / 4.0)[:, None], (1, grid.n_theta)))
    rel = ds.lp_norm(ds.GridField(grid, psi.values - exact.values), 2) / ds.lp_norm(exact, 2)
    assert rel < 5e-3


def test_kernel_cross_validates_spectral():
    basis = ds.DiskBasis(8, 12, ds.DiskGrid(48, 96))
    grid = basis.grid
    eta = ds.single_mode(basis, 1, 1)
    spec = ds.to_grid(apply_green(eta))
    kern = apply_green_kernel(ds.to_grid(eta))
    rel = ds.lp_norm(ds.GridField(grid, spec.values - kern.values), 2) / ds.lp_norm(spec, 2)
    assert rel < 5e-3
    mask = (grid.r >= 0.1) & (grid.r <= 0.9)
    interior = np.abs(spec.values - kern.values)[mask].max()
    assert interior < 5e-3 * np.abs(spec.values).max()


def _pointwise_kernel(omega):
    """The kernel quadrature cell by cell in Cartesian coordinates:
    psi(x) = sum_y G(x, y) omega(y) mu(y), with the -(1/2pi) ln|x - y| term of
    the target's own cell replaced by mu (1/2 - ln rho) / (2 pi)."""
    grid = omega.grid
    pts = [(r * math.cos(t), r * math.sin(t)) for r in grid.r for t in grid.theta]
    mu = grid.cell_measure
    w = omega.values.ravel() * mu
    psi = np.zeros(len(pts))
    for a, (x1, y1) in enumerate(pts):
        r1 = math.hypot(x1, y1)
        for b, (x2, y2) in enumerate(pts):
            image = math.log(math.hypot(x1 / r1 - r1 * x2, y1 / r1 - r1 * y2)) / (2 * math.pi)
            if a == b:
                rho = math.sqrt(mu[a] / math.pi)
                direct = (0.5 - math.log(rho)) / (2 * math.pi)
            else:
                direct = -math.log(math.hypot(x1 - x2, y1 - y2)) / (2 * math.pi)
            psi[a] += (direct + image) * w[b]
    return psi.reshape(omega.values.shape)


@pytest.mark.parametrize("n_r, n_theta", [(6, 8), (5, 9), (7, 12)])
def test_kernel_circulant_matches_pointwise_quadrature(n_r, n_theta):
    grid = ds.DiskGrid(n_r, n_theta)
    rng = np.random.default_rng(n_r * n_theta)
    for _ in range(3):
        om = ds.GridField(grid, rng.standard_normal((n_r, n_theta)))
        expect = _pointwise_kernel(om)
        got = apply_green_kernel(om).values
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


def test_kernel_peak_memory_on_default_grid():
    # one call on the default 80 x 128 grid, in a fresh process so that the
    # peak resident set is its own
    code = (
        "import resource, numpy as np\n"
        "from diskvort import disk_spectral as ds\n"
        "from green_oracle import apply_green_kernel\n"
        "om = ds.GridField(ds.DiskGrid(80, 128),"
        " np.random.default_rng(0).standard_normal((80, 128)))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "apply_green_kernel(om)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    src = str(Path(ge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    grown_kb = int(proc.stdout.strip())        # ru_maxrss is in KiB on Linux
    assert grown_kb < 100 * 1024
