"""Inverse Dirichlet Laplacian on the disk and the kinetic energy functional.

Two independent routes are provided.  The spectral route divides each basis
coefficient by the squared Bessel root of its mode, which is exact on the
basis span.  The kernel route integrates the explicit disk Green function

    G(x, y) = -(1/2pi) ln|x - y| + (1/2pi) ln| x/|x| - |x| y |

against a grid field cell by cell; the log singularity on the diagonal cell
is replaced by its analytic integral over a disk of equal measure.  The
kernel route is about second-order accurate in the cell size and serves as a
cross-check oracle for the spectral route (and handles fields outside the
zero-trace basis, e.g. constants).
"""

import math

import numpy as np

from .disk_spectral import GridField, SpectralField


def apply_green(omega: SpectralField) -> SpectralField:
    """Stream function G omega: each coefficient times 1/j^2 of its mode."""
    return SpectralField(omega.basis, omega.coeffs * omega.basis.green_mult)


def energy(omega: SpectralField) -> float:
    """Kinetic energy E = (1/2) <omega, G omega> from coefficients."""
    b = omega.basis
    return 0.5 * float(
        (np.abs(omega.coeffs) ** 2 * b.parseval * b.green_mult).sum()
    )


def inner_product_grid(g1: GridField, g2: GridField) -> float:
    return float((g1.values * g2.values * g1.grid.measures).sum())


def energy_grid(omega: GridField, psi: GridField) -> float:
    return 0.5 * inner_product_grid(omega, psi)


def apply_green_kernel(omega: GridField) -> GridField:
    """Quadrature of the explicit kernel against all cells.

    The -(1/2pi) ln|x-y| contribution of the target's own cell is replaced by
    the analytic integral over the equal-measure disk of radius
    rho = sqrt(mu/pi):  mu (1/2 - ln rho) / (2 pi).
    """
    grid = omega.grid
    x, y = grid.nodes_xy()
    pts = np.stack([x.ravel(), y.ravel()], axis=1)
    mu = grid.measures.ravel()
    w = omega.values.ravel() * mu
    r2 = (pts**2).sum(axis=1)

    n = pts.shape[0]
    psi = np.empty(n)
    rho = np.sqrt(mu / math.pi)
    self_corr = omega.values.ravel() * mu * (0.5 - np.log(rho)) / (2.0 * math.pi)

    chunk = 512                         # target cells per block of kernel rows
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        tgt = pts[lo:hi]
        dot = tgt @ pts.T
        d2 = r2[lo:hi, None] + r2[None, :] - 2.0 * dot
        rows = np.arange(lo, hi)
        d2[rows - lo, rows] = 1.0          # neutralize the singular diagonal
        np.maximum(d2, 1e-300, out=d2)
        # |x/|x| - |x| y|^2 = 1 - 2 x.y + |x|^2 |y|^2
        img2 = 1.0 - 2.0 * dot + r2[lo:hi, None] * r2[None, :]
        kern = np.log(img2 / d2)
        psi[lo:hi] = (kern @ w) / (4.0 * math.pi)
        # the image term of the self cell is smooth and already included via
        # img2; only the -ln|x-y| part needed the correction
        psi[lo:hi] += self_corr[rows]
    return GridField(grid, psi.reshape(omega.values.shape))

