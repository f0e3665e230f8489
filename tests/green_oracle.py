"""The inverse Dirichlet Laplacian on the disk by two independent routes,
for the tests to compare: spectrally, and by quadrature of the explicit
Green kernel.

The spectral route divides each basis coefficient by the squared Bessel root
of its mode, which is exact on the basis span.  The kernel route integrates
the explicit disk Green function

    G(x, y) = -(1/2pi) ln|x - y| + (1/2pi) ln| x/|x| - |x| y |

against a grid field cell by cell; the log singularity on the diagonal cell
is replaced by its analytic integral over a disk of equal measure.  On the
polar grid the kernel between two cells depends on their angles only through
the offset, so the quadrature is a circulant over theta on every pair of
rings: it runs as one real FFT over the angles and one (n_r x n_r) product
per azimuthal frequency, with no Bessel function and no basis.  The kernel
route is about second-order accurate in the cell size and cross-checks the
spectral route (and handles fields outside the zero-trace basis, e.g.
constants).
"""

import math

import numpy as np

from complex_layout import as_complex, as_rows
from diskvort.disk_spectral import GridField, SpectralField


def apply_green(omega: SpectralField) -> SpectralField:
    """Stream function G omega: each coefficient times 1/j^2 of its mode."""
    return SpectralField(omega.basis, as_rows(as_complex(omega.coeffs) * omega.basis.green_mult))


def apply_green_kernel(omega: GridField) -> GridField:
    """Quadrature of the explicit kernel against all cells, as a ring circulant.

    On the polar grid the kernel between (r_i, theta_a) and (r_j, theta_b)
    depends on the angles only through the offset theta_k = theta_a - theta_b,
    so one (n_theta, n_r, n_r) table of ln(img2 / d2) over the offsets holds
    every kernel value, and the sum over source angles is a circular
    convolution: one real FFT of the table and of omega mu over theta, one
    (n_r x n_r) product per azimuthal frequency, and one inverse FFT.

    The -(1/2pi) ln|x-y| contribution of the target's own cell is replaced by
    the analytic integral over the equal-measure disk of radius
    rho = sqrt(mu/pi):  mu (1/2 - ln rho) / (2 pi).
    """
    grid = omega.grid
    r, mu = grid.r, grid.measure_r
    rr = r[:, None] * r[None, :]                        # r_i r_j
    # s = 4 r_i r_j sin^2(theta_k / 2) = 2 r_i r_j (1 - cos theta_k) writes both
    # squared distances without cancellation:
    # |x - y|^2 = (r_i - r_j)^2 + s and |x/|x| - |x| y|^2 = (1 - r_i r_j)^2 + s
    s = 4.0 * np.sin(0.5 * grid.theta)[:, None, None] ** 2 * rr
    d2 = (r[:, None] - r[None, :]) ** 2 + s
    np.fill_diagonal(d2[0], 1.0)        # neutralize the singular self cell
    img2 = (1.0 - rr) ** 2 + s
    kern = np.fft.rfft(np.log(img2 / d2), axis=0)       # (n_theta//2 + 1, n_r, n_r)
    w = np.fft.rfft(omega.values * mu[:, None], axis=1)  # (n_r, n_theta//2 + 1)
    psi = np.fft.irfft(np.einsum("mij,jm->im", kern, w), n=grid.n_theta, axis=1)
    psi /= 4.0 * math.pi
    # the image term of the self cell is smooth and already included via
    # img2; only the -ln|x-y| part needed the correction
    rho = np.sqrt(mu / math.pi)
    psi += omega.values * (mu * (0.5 - np.log(rho)) / (2.0 * math.pi))[:, None]
    return GridField(grid, psi)
