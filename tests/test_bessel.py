import math

import numpy as np
import pytest
from scipy import special

from diskvort import bessel
from diskvort.disk_spectral import DiskBasis, DiskGrid
from diskvort.errors import UnsupportedOrderError, ZeroScanError
from diskvort.quadrature import integrate


def test_values_at_zero():
    assert bessel.bessel_j(0, 0.0) == 1.0
    assert bessel.bessel_j(1, 0.0) == 0.0
    assert bessel.bessel_j(5, 0.0) == 0.0


def test_first_dipole_zero_value():
    # J_1 vanishes at its first positive zero, 3.831706 to six decimals
    assert abs(bessel.bessel_j(1, 3.831706)) < 1e-6


def test_j2_equals_minus_j0_at_dipole_root():
    j = bessel.bessel_zero(1, 1)
    assert abs(bessel.bessel_j(2, j) + bessel.bessel_j(0, j)) < 1e-14


def test_against_scipy_across_orders():
    rng = np.random.default_rng(0)
    for n in [0, 1, 2, 3, 8, 16, 32, 64]:
        s = rng.uniform(0, 50, 150)
        err = np.abs(bessel.bessel_j(n, s) - special.jv(n, s))
        assert err.max() < 1e-13, f"order {n}: {err.max()}"


def test_negative_argument_parity():
    for n in (0, 1, 2, 5):
        s = 7.3
        expect = (-1) ** n * bessel.bessel_j(n, s)
        assert abs(bessel.bessel_j(n, -s) - expect) < 1e-15


def test_order_cap():
    with pytest.raises(UnsupportedOrderError):
        bessel.bessel_j(65, 1.0)
    with pytest.raises(UnsupportedOrderError):
        bessel.bessel_j(-1, 1.0)


def test_prime_at_zero():
    assert bessel.bessel_j_prime(0, 0.0) == 0.0


def test_prime_is_minus_j1():
    for s in (0.5, 1.0, 2.0, 5.0):
        assert abs(bessel.bessel_j_prime(0, s) + bessel.bessel_j(1, s)) < 1e-14


def test_prime_solves_bessel_ode():
    # s^2 J'' + s J' + (s^2 - 1) J = 0 for n = 1 at s = 2, with J'' assembled
    # from the derivative recurrences of the neighbouring orders
    s = 2.0
    j1 = bessel.bessel_j(1, s)
    j1p = bessel.bessel_j_prime(1, s)
    j0p = bessel.bessel_j_prime(0, s)
    j2p = bessel.bessel_j_prime(2, s)
    j1pp = 0.5 * (j0p - j2p)
    resid = s * s * j1pp + s * j1p + (s * s - 1.0) * j1
    assert abs(resid) < 1e-10


def test_recurrence_s_j1_derivative():
    # (s J_1)' = s J_0: central differences at step 1e-5 sit on the float64
    # differencing floor eps*|s J_1|/h ~ 4e-10 for s up to 20, so the finite
    # difference route is asserted at 1e-9 and the analytic derivative
    # carries the tight bound
    rng = np.random.default_rng(5)
    s = rng.uniform(0.1, 20.0, 100)
    h = 1e-5
    lhs = ((s + h) * bessel.bessel_j(1, s + h) - (s - h) * bessel.bessel_j(1, s - h)) / (2 * h)
    assert np.abs(lhs - s * bessel.bessel_j(0, s)).max() < 1e-9
    exact = bessel.bessel_j(1, s) + s * bessel.bessel_j_prime(1, s)
    assert np.abs(exact - s * bessel.bessel_j(0, s)).max() < 1e-12


def test_three_term_recurrence():
    rng = np.random.default_rng(6)
    for n in range(9):
        s = rng.uniform(0.01, 20.0, 40)
        resid = s * (bessel.bessel_j(n, s) + bessel.bessel_j(n + 2, s)) \
            - 2 * (n + 1) * bessel.bessel_j(n + 1, s)
        assert np.abs(resid).max() < 1e-10


def test_zero_values_and_ordering():
    assert abs(bessel.bessel_zero(1, 1) - 3.831706) < 1e-6
    assert bessel.bessel_zero(1, 2) > bessel.bessel_zero(1, 1)
    for n in (0, 1, 2, 7):
        ref = special.jn_zeros(n, 6)
        for k in range(1, 7):
            assert abs(bessel.bessel_zero(n, k) - ref[k - 1]) < 1e-12


def test_zero_against_series_bisection_oracle():
    # independent oracle: bisect the power series itself on a bracket around
    # the first J_0 zero, interval width 1e-10
    lo, hi = 2.0, 3.0
    f = lambda x: bessel._series_j((0,), np.array([x]))[0, 0]
    assert f(lo) > 0 > f(hi)
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert abs(bessel.bessel_zero(0, 1) - 0.5 * (lo + hi)) < 1e-6


def _series_loop(n, s):
    """The power series of one order, as each order was summed before
    _series_j summed its orders in one pass."""
    half = 0.5 * s
    q = half * half
    term = half ** n / math.factorial(n)
    total = term.copy()
    comp = np.zeros_like(total)
    for m in range(1, bessel._SERIES_TERMS + 1):
        term = term * (-q) / (m * (m + n))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def test_series_rows_match_per_order_loop():
    # the one-pass rows of _j_neighbours are bitwise the per-order sums on
    # the series range
    for n in range(21):
        s = np.linspace(1e-3, bessel._series_threshold(max(n - 1, 0)), 257)
        rows = bessel._j_neighbours(n, s)
        expect = [_series_loop(abs(m), s) for m in (n - 1, n, n + 1)]
        if n == 0:
            expect[0] = -expect[2]
        assert all(np.array_equal(r, e) for r, e in zip(rows, expect)), n


def test_orthogonality_by_quadrature():
    for n in (0, 1, 2):
        zeros = [bessel.bessel_zero(n, k) for k in range(1, 5)]
        for i, zi in enumerate(zeros):
            for l, zl in enumerate(zeros):
                if i == l:
                    continue
                val = integrate(
                    lambda s: bessel.bessel_j(n, zi * s) * bessel.bessel_j(n, zl * s) * s,
                    0.0, 1.0, abs_tol=1e-11,
                )
                assert abs(val) < 1e-9


def test_normalization_chain():
    # integral of J_1^2(js) s ds equals both half J_2^2(j) and half J_0^2(j)
    j = bessel.bessel_zero(1, 1)
    val = integrate(lambda s: bessel.bessel_j(1, j * s) ** 2 * s, 0, 1, abs_tol=1e-11)
    assert abs(val - 0.5 * bessel.bessel_j(2, j) ** 2) < 1e-9
    assert abs(val - 0.5 * bessel.bessel_j(0, j) ** 2) < 1e-9


def test_identity_suite():
    j = bessel.bessel_zero(1, 1)
    report = bessel.verify_identity_suite([0.5, 1.0, 2.0, j, 5.0])
    for name, resid in report.items():
        assert resid < 1e-9, f"{name}: {resid}"


def test_identity_apd1_at_zero_is_trivial():
    # both sides vanish at s = 0
    assert integrate(lambda t: bessel.bessel_j(0, t) ** 2 * t, 0.0, 0.0) == 0.0


def test_certified_zeros():
    rows = bessel.certified_zeros(3, 5)
    assert [(n, k) for n, k, _, _ in rows] == [(n, k) for n in range(4) for k in range(1, 6)]
    for n, k, z, bound in rows:
        assert abs(bessel.bessel_j(n, z)) <= 1e-12 * max(1.0, abs(bessel.bessel_j_prime(n, z)))
        assert bound >= 0
        if k > 1:
            assert z - bessel.bessel_zero(n, k - 1) > 1.0
        assert z == bessel.bessel_zero(n, k)


def test_certified_zeros_failed_checks_raise(monkeypatch):
    true_zeros = bessel.bessel_zeros
    for fake, message in (
            (lambda n, k: true_zeros(n, k) + 1e-6, "failed certification"),
            (lambda n, k: np.repeat(true_zeros(n, 1), k), "separated by <= 1"),
            (lambda n, k: true_zeros(n, k + n)[n:], "do not interlace")):
        monkeypatch.setattr(bessel, "bessel_zeros", fake)
        with pytest.raises(ZeroScanError, match=message):
            bessel.certified_zeros(1, 3)


def test_scan_window_error():
    with pytest.raises(ZeroScanError):
        bessel._zeros_for_order(0, 5, window=8.0)  # room for only two roots


def test_zeros_match_scipy_oracle():
    # every zero of the default basis; high orders, where McMahon's expansion
    # is one to two root spacings off at small k; long runs of J_0, J_1 zeros
    cases = [(n, 32) for n in range(17)] + [(n, 8) for n in (32, 48, 64)] \
        + [(0, 100), (1, 100)]
    for n, k_max in cases:
        err = np.abs(bessel.bessel_zeros(n, k_max) - special.jn_zeros(n, k_max))
        assert err.max() < 1e-13, f"order {n}: {err.max()}"


def test_zeros_interlace():
    z = np.array([bessel.bessel_zeros(n, 32) for n in range(17)])
    assert np.all(z[:-1] < z[1:])              # j_{n,k} < j_{n+1,k}
    assert np.all(z[1:, :-1] < z[:-1, 1:])     # j_{n+1,k} < j_{n,k+1}


def test_basis_build_solves_each_order_once(monkeypatch):
    solve, orders = bessel._zeros_for_order, []

    def counted(n, k_max, **kw):
        orders.append(n)
        return solve(n, k_max, **kw)

    monkeypatch.setattr(bessel, "_zeros", {})
    monkeypatch.setattr(bessel, "_zeros_for_order", counted)
    DiskBasis(16, 32, DiskGrid(80, 128))
    assert sorted(orders) == list(range(17))


def test_extending_an_order_keeps_returned_zeros(monkeypatch):
    monkeypatch.setattr(bessel, "_zeros", {})
    basis = DiskBasis(4, 8, DiskGrid(12, 16))
    before = bessel.bessel_zeros(2, 32)
    far = bessel.bessel_zero(2, 80)
    assert abs(far - special.jn_zeros(2, 80)[-1]) < 1e-13
    assert np.array_equal(bessel.bessel_zeros(2, 32), before)
    for n in range(5):
        for k in range(1, 9):
            assert basis.roots[n, k - 1] == bessel.bessel_zero(n, k)
