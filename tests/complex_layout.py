"""The complex half-spectrum layout, for the reference oracles that keep
complex arithmetic: c_n = Re c_n + i Im c_n of the real (M, 2, K) rows
[Re c_n; Im c_n] that ``SpectralField.coeffs`` and the kernels use."""

import numpy as np


def as_complex(rows):
    """The (M, K) complex coefficients of the real rows (M, 2, K)."""
    return rows[:, 0] + 1j * rows[:, 1]


def as_rows(c):
    """The real rows (M, 2, K) of the (M, K) complex coefficients."""
    return np.stack([c.real, c.imag], axis=1)
