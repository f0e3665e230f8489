"""The kinetic energy functional on the disk.

The stream function of a basis field is its coefficients divided by the
squared Bessel roots of their modes (``DiskBasis.green_mult``), which is
exact on the basis span, so the energy (1/2) <omega, G omega> is one
weighted sum of the coefficients, ``rows_energy``, which the solver's trace
takes on its band too; on the grid it is the measure-weighted sum of
omega psi.
"""

from .disk_spectral import GridField, SpectralField


def rows_energy(basis, rows) -> float:
    """(1/2) sum parseval |c|^2 / j^2 over the real row pairs ``rows``,
    (M, 2, K'), [Re c_n; Im c_n] of the modes n < M in the first K' radial
    columns: a half spectrum, or the solver's dealias band."""
    m, _, k = rows.shape
    weights = basis.parseval[:m, :k] * basis.green_mult[:m, :k]
    return 0.5 * float((weights * (rows * rows).sum(axis=1)).sum())


def energy(omega: SpectralField) -> float:
    """Kinetic energy E = (1/2) <omega, G omega> from coefficients."""
    return rows_energy(omega.basis, omega.coeffs)


def inner_product_grid(g1: GridField, g2: GridField) -> float:
    return float((g1.values * g2.values * g1.grid.measures).sum())


def energy_grid(omega: GridField, psi: GridField) -> float:
    return 0.5 * inner_product_grid(omega, psi)
