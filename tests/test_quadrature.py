import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from diskvort.bessel import bessel_zero
from diskvort.quadrature import gauss_legendre, interval_rule


def _integral(g, a, b):
    t, w = interval_rule(a, b)
    return w @ g(t)


def test_polynomial_exact():
    assert abs(_integral(lambda x: x**2, 0, 1) - 1 / 3) < 1e-14


def test_sine():
    assert abs(_integral(np.sin, 0, math.pi) - 2.0) < 1e-12


def test_oscillatory():
    # exponential type 3, the most the rule is sized for, over 60 radians
    assert abs(_integral(lambda x: np.cos(3 * x), 0, 20) - math.sin(60) / 3) < 1e-13


def test_reversed_interval_is_zero_length():
    assert _integral(np.sin, 2.0, 2.0) == 0.0


_BESSEL_INTEGRANDS = {
    "J0^2 t": lambda t: special.j0(t) ** 2 * t,
    "J0 J1^2 t": lambda t: special.j0(t) * special.j1(t) ** 2 * t,
    "J0^3 t": lambda t: special.j0(t) ** 3 * t,
    "J1^3": lambda t: special.j1(t) ** 3,
    "J1^2 t": lambda t: special.j1(t) ** 2 * t,
}


def test_interval_rule_matches_quad_on_bessel_integrands():
    # the power integrals of the identity suite and the moment coefficients,
    # on one integrand evaluation for both routes; the worst gap is 1.8e-15
    # (J0^2 t at s = 20, whose integral is 6.47)
    for s in (0.5, 1.0, 2.0, bessel_zero(1, 1), 5.0, 8.0, 20.0):
        for name, g in _BESSEL_INTEGRANDS.items():
            ref, _ = integrate.quad(g, 0.0, s, epsabs=1e-15, limit=200)
            assert abs(_integral(g, 0.0, s) - ref) <= 1e-14, (name, s)


def _reference_rule(n, digits=40):
    """The positive nodes (descending) and their weights at ``digits`` digits:
    Newton on the Legendre recurrence in mpmath from cos(pi (4k - 1) / (4n + 2))."""
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
