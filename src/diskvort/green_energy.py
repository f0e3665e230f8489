"""The kinetic energy functional on the disk.

The stream function of a basis field is its coefficients divided by the
squared Bessel roots of their modes (``DiskBasis.green_mult``), which is
exact on the basis span, so the energy (1/2) <omega, G omega> is one
weighted sum of the coefficients; on the grid it is the measure-weighted
sum of omega psi.
"""

import numpy as np

from .disk_spectral import GridField, SpectralField


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
