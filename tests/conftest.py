import numpy as np
import pytest

from diskvort.disk_spectral import DiskBasis, DiskGrid


@pytest.fixture(scope="session")
def basis():
    """Default-resolution basis shared across the suite (cold build ~0.05 s on
    a 2-core x86 VM, the zeros of all 17 orders in one solve)."""
    return DiskBasis(16, 32, DiskGrid(80, 128))


@pytest.fixture(scope="session")
def grid(basis):
    return basis.grid


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
