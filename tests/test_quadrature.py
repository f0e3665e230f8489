import math

import numpy as np
import pytest

from diskvort.errors import QuadratureConvergenceError
from diskvort.quadrature import gauss_legendre, integrate


def test_polynomial_exact():
    assert abs(integrate(lambda x: x**2, 0, 1) - 1 / 3) < 1e-14


def test_sine():
    assert abs(integrate(np.sin, 0, math.pi) - 2.0) < 1e-12


def test_oscillatory():
    val = integrate(lambda x: np.cos(40 * x), 0, 1, abs_tol=1e-12)
    assert abs(val - math.sin(40) / 40) < 1e-11


def test_reversed_interval_is_zero_length():
    assert integrate(np.sin, 2.0, 2.0) == 0.0


def test_depth_exhaustion_raises():
    with pytest.raises(QuadratureConvergenceError):
        integrate(lambda x: np.abs(x) ** -0.9, 0, 1, abs_tol=1e-13, max_depth=8)


def _reference_rule(n, digits=40):
    """The positive nodes (descending) and their weights at ``digits`` digits:
    Newton on the Legendre recurrence in mpmath from cos(pi (4k - 1) / (4n + 2))."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        def legendre(x):
            p0, p1 = mpmath.mpf(1), x
            for k in range(1, n):
                p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
            return p1, n * (x * p1 - p0) / (x * x - 1)

        nodes, weights = [], []
        for k in range(1, n // 2 + 1):
            x = mpmath.cos(mpmath.pi * (4 * k - 1) / (4 * n + 2))
            for _ in range(100):
                p, dp = legendre(x)
                x -= p / dp
                if abs(p / dp) < mpmath.mpf(10) ** (4 - digits):
                    break
            _, dp = legendre(x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
        return nodes, weights


@pytest.mark.parametrize("n", [12, 13, 80, 128, 256])
def test_gauss_legendre_against_40_digits(n):
    # nodes within 2 ulp; weights within 1e-13 relative up to 100 nodes and
    # 1e-12 up to the CLI's largest grid, 256 radii
    mpmath = pytest.importorskip("mpmath")
    x, w = gauss_legendre(n)
    nodes, weights = _reference_rule(n)
    # the positive half, descending, is the mirror of the negative half
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert (n % 2 == 0) or x[n // 2] == 0.0
    for xi, wi, ref_x, ref_w in zip(x[::-1], w[::-1], nodes, weights):
        assert abs(mpmath.mpf(float(xi)) - ref_x) <= 2 * np.spacing(xi)
        assert abs(mpmath.mpf(float(wi)) / ref_w - 1) <= (1e-13 if n <= 100 else 1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 12, 13, 80, 128, 256])
def test_gauss_legendre_integrates_even_monomials(n):
    # exact for degree <= 2n - 1: the integral of x^(2k) over [-1, 1] is 2 / (2k + 1)
    x, w = gauss_legendre(n)
    assert np.all(np.diff(x) > 0) and np.all(w > 0)
    for k in range(n):
        assert abs(w @ x ** (2 * k) - 2.0 / (2 * k + 1)) <= 1e-14


def test_gauss_legendre_matches_leggauss():
    # the stated tolerance against the previous rule, on every grid the suite
    # and the default basis use: leggauss's own weights are off by 1.1e-12 at
    # n = 80 and 1.4e-11 at n = 128, so the two part by more on larger grids
    for n in list(range(1, 49)) + [80]:
        xl, wl = np.polynomial.legendre.leggauss(n)
        x, w = gauss_legendre(n)
        assert np.all(np.abs(x - xl) <= 2 * np.spacing(np.abs(xl))), n
        assert np.all(np.abs(w / wl - 1) <= 2e-12), n
