import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from diskvort import bessel
from diskvort.disk_spectral import DiskBasis, DiskGrid, _projector
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
        s = np.linspace(1e-3, bessel._SERIES_LIMIT[max(n - 1, 0)], 257)
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


def test_scan_window_error(monkeypatch):
    # a window of 8 has room for the first zero of J_1 but only two of J_0
    monkeypatch.setattr(bessel, "_scan_window", lambda n, k_max: 8.0)
    with pytest.raises(ZeroScanError, match="found only 2 sign changes of J_0, needed 5"):
        bessel._solve_zeros({1: 1, 0: 5})


def _single_order_j(n, s):
    """J_n alone, as the package computed it before every value came from
    the three-order kernel: the series of order n up to its own limit, and
    the recurrence started above max(n, s)."""
    s = np.asarray(s, dtype=float)
    n = np.asarray(n)
    out = np.empty_like(s)
    small = s <= bessel._SERIES_LIMIT[n]
    if small.any():
        out[small] = bessel._series_j(np.reshape(bessel._cols(n, small), (1, -1)), s[small])[0]
    if (~small).any():
        m = bessel._cols(n, ~small)
        out[~small] = bessel._miller_rows(s[~small], m, m)[0]
    return out


def test_values_match_the_single_order_kernel():
    # bitwise for n <= 5 and wherever s >= n + 1 (the same series range and
    # recurrence start); below n + 1 the three-order recurrence starts two
    # orders higher or replaces the series, within 4e-16
    s = np.concatenate([np.linspace(0.0, 80.0, 4001)[1:], [1e-3, 0.5, 150.0, 300.0]])
    for n in range(bessel.MAX_ORDER + 1):
        j, ref = bessel.bessel_j(n, s), _single_order_j(n, s)
        same = (n <= 5) | (s >= n + 1)
        assert np.array_equal(j[same], ref[same]), n
        assert np.abs(j - ref).max() <= 4e-16, n
        assert np.array_equal(bessel.bessel_j(n, -s), (-1) ** n * j), n


def _zeros_for_order(n, k_max):
    """First k_max positive zeros of J_n: one scan, then guarded Newton, as
    each order was solved on its own before the orders shared one solve."""
    start = float(max(n, 1))
    window = start + 1.2 * math.pi * (k_max + 0.5 * n + 3.0) + 5.0
    pts = np.arange(start, window + bessel._SCAN_STEP, bessel._SCAN_STEP)
    vals = _single_order_j(n, pts)
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0][:k_max]
    lo, hi = pts[flips], pts[flips + 1]
    flo, fhi = vals[flips], vals[flips + 1]
    root = lo - flo * (hi - lo) / (fhi - flo)
    active = np.ones(k_max, dtype=bool)
    for _ in range(bessel._NEWTON_ITERS):
        jm, f, jp = bessel._j_neighbours(n, root[active])
        step = f / (0.5 * (jm - jp))
        x = root[active]
        left = np.sign(f) == np.sign(flo[active])
        lo[active] = np.where(left, x, lo[active])
        flo[active] = np.where(left, f, flo[active])
        hi[active] = np.where(left, hi[active], x)
        nxt = x - step
        bad = ~((nxt >= lo[active]) & (nxt <= hi[active]))
        root[active] = np.where(bad, 0.5 * (lo[active] + hi[active]), nxt)
        active[active] = bad | (np.abs(step) > bessel._NEWTON_TOL * x)
        if not active.any():
            return root
    raise AssertionError(f"oracle Newton on J_{n} did not converge")


def test_shared_solve_matches_per_order_oracle():
    # bit for bit: the default basis' orders in one solve, high orders, long
    # runs of J_0 and J_1 zeros
    for want in ({n: 32 for n in range(17)}, {32: 8, 48: 8, 64: 8}, {0: 100, 1: 100}):
        solved = bessel._solve_zeros(want)
        for n, k_max in want.items():
            assert np.array_equal(solved[n], _zeros_for_order(n, k_max)), n


def test_per_column_kernels_match_single_order_calls(monkeypatch):
    # each column of a mixed-order call is bitwise the call of its own order:
    # J_0 (J_{-1} = -J_1), orders whose series rows include order 2, series
    # and recurrence abscissae, and columns that rescale beside ones that do not
    rng = np.random.default_rng(11)
    n = np.concatenate([np.repeat([0, 1, 2, 3], 30), rng.integers(0, 65, 200)])
    s = np.concatenate([rng.uniform(1e-3, 6.0, 120), rng.uniform(0.01, 150.0, 200)])
    rows = bessel._j_neighbours(n, s)
    for m in set(n.tolist()):
        assert np.array_equal(rows[:, n == m], bessel._j_neighbours(m, s[n == m])), m
    # J_n is the single-order kernel's, bitwise where both take one path
    single = _single_order_j(n, s)
    same = (n <= 5) | (s >= n + 1)
    assert np.array_equal(rows[1, same], single[same])
    assert np.abs(rows[1] - single).max() <= 4e-16
    # at s = 0.1 the recurrence from order 123 grows far past 2^600, and
    # without the rescale it would overflow
    lo = np.concatenate([[60, 60, 61], rng.integers(0, 62, 100)])
    s = np.concatenate([[0.1, 0.1, 0.1], rng.uniform(0.1, 80.0, 100)])
    rows = bessel._miller_rows(s, lo, lo + 2)
    assert np.isfinite(rows).all()
    for m in set(lo.tolist()):
        assert np.array_equal(rows[:, lo == m], bessel._miller_rows(s[lo == m], m, m + 2)), m
    with monkeypatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(bessel, "_RESCALE_LIMIT", np.inf)
        assert not np.isfinite(bessel._miller_rows(s[:1], 60, 62)).all()


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
    # one solve covers orders 0..16
    solve, calls = bessel._solve_zeros, []

    def counted(want):
        calls.append(dict(want))
        return solve(want)

    monkeypatch.setattr(bessel, "_zeros", {})
    monkeypatch.setattr(bessel, "_solve_zeros", counted)
    DiskBasis(16, 32, DiskGrid(80, 128))
    assert calls == [{n: 32 for n in range(17)}]


def test_zero_batches_keep_the_column_budget(monkeypatch):
    # a request larger than the budget is split into batches whose scans
    # hold at most _SCAN_COLUMNS points, and the zeros do not change
    solve, batches = bessel._solve_zeros, []

    def counted(want):
        batches.append(dict(want))
        return solve(want)

    monkeypatch.setattr(bessel, "_zeros", {})
    monkeypatch.setattr(bessel, "_solve_zeros", counted)
    monkeypatch.setattr(bessel, "_SCAN_COLUMNS", 1000)
    zeros = bessel._order_zeros(range(12), 32)
    assert len(batches) > 1 and [n for b in batches for n in b] == list(range(12))
    for b in batches:
        assert sum(bessel._scan_points(n, k).size for n, k in b.items()) <= 1000
    one = solve({n: 32 for n in range(12)})
    assert all(np.array_equal(zeros[n], one[n]) for n in range(12))


def test_cold_basis_build_runs_few_recurrences(monkeypatch):
    # one scan pass, a few shared Newton passes and one table pass per batch
    # of two orders (13 in all); solving each order on its own took 85, and
    # one table pass per order 21
    miller, passes = bessel._miller_rows, []

    def counted(*args):
        passes.append(1)
        return miller(*args)

    monkeypatch.setattr(bessel, "_zeros", {})
    monkeypatch.setattr(bessel, "_miller_rows", counted)
    DiskBasis(16, 32, DiskGrid(80, 128))
    assert len(passes) <= 16


def test_cold_basis_build_peak_memory():
    # a cold default basis in a fresh process, so that the peak resident set
    # is its own: ~3.9 MB above the imported package
    code = (
        "import resource\n"
        "from diskvort.disk_spectral import DiskBasis, DiskGrid\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "DiskBasis(16, 32, DiskGrid(80, 128))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    src = str(Path(bessel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    grown_kb = int(proc.stdout.strip())        # ru_maxrss is in KiB on Linux
    assert grown_kb < 5 * 1024


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


def _full_width_rows(s, lo, hi):
    """The backward recurrence as it ran before the columns were recurred by
    start order: every column through every step, a column holding 0 until
    its start order is reached."""
    s = np.asarray(s, dtype=float)
    lo = np.asarray(lo)
    n_rows = int(np.max(hi - lo)) + 1
    starts = (1.5 * np.maximum(hi, s)).astype(int) + 30
    born = np.argsort(starts, kind="stable")
    born_at = [0] + np.cumsum(np.bincount(starts)).tolist()
    out = np.zeros((n_rows, s.size))
    upper, cur, even = np.zeros(s.size), np.zeros(s.size), np.zeros(s.size)
    for m in range(len(born_at) - 2, 0, -1):
        new = born[born_at[m]:born_at[m + 1]]
        cur[new] = 1e-30
        if m % 2 == 0:
            even[new] = 1e-30
        upper, cur = cur, (2.0 * m / s) * cur - upper
        if m % 2 == 1 and m > 1:
            even += cur
        for i in range(n_rows):
            np.copyto(out[i], cur, where=lo == m - 1 - i)
        if m % bessel._RESCALE_EVERY == 0 and np.abs(cur).max() > bessel._RESCALE_LIMIT:
            scale = np.where(np.abs(cur) > bessel._RESCALE_LIMIT, bessel._RESCALE_FACTOR, 1.0)
            upper, cur, even, out = upper * scale, cur * scale, even * scale, out * scale
    return out / (cur + 2.0 * even)


# the power series' denominators at the 60 terms it summed before
_SIXTY_TERMS = np.array([[m * (m + k) for k in range(bessel.MAX_ORDER + 2)]
                         for m in range(1, 61)], dtype=float)


def _reference_kernels(patch):
    patch.setattr(bessel, "_SERIES_DENOMS", _SIXTY_TERMS)
    patch.setattr(bessel, "_miller_rows", _full_width_rows)


def test_series_length_is_bitwise():
    # every order's series range, densely, and the neighbourhoods of the zeros
    # inside the series ranges, where the sums are smallest: the shortened
    # series gives bitwise the sum of 60 terms
    zeros = [z for n in range(4) for z in bessel.bessel_zeros(n, 3) if z <= 6.0]
    assert len(zeros) == 4                      # j_{0,1}, j_{0,2}, j_{1,1}, j_{2,1}
    near = np.concatenate([z + np.arange(-500, 501) * np.spacing(z) for z in zeros]
                          + [np.outer(zeros, 1.0 + np.geomspace(1e-15, 1e-2, 300)).ravel(),
                             np.outer(zeros, 1.0 - np.geomspace(1e-15, 1e-2, 300)).ravel()])
    for n in range(bessel.MAX_ORDER + 2):
        top = bessel._SERIES_LIMIT[n]
        s = np.concatenate([np.linspace(0.0, top, 5001)[1:], near[near <= top]])
        short = bessel._series_j([[n]], s)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bessel, "_SERIES_DENOMS", _SIXTY_TERMS)
            assert np.array_equal(short, bessel._series_j([[n]], s)), n


def test_recurrence_by_start_order_is_bitwise():
    # one order for all columns (the scalar path), one per column, and
    # columns that rescale beside ones that do not
    rng = np.random.default_rng(21)
    s = np.concatenate([[0.1, 0.1], rng.uniform(0.5, 300.0, 2000)])
    n = rng.integers(0, 65, s.size)
    for lo, hi in ((3, 5), (0, 0), (64, 66), (n - 1, n + 1), (n, n)):
        assert np.array_equal(bessel._miller_rows(s, lo, hi), _full_width_rows(s, lo, hi))


def test_zeros_match_reference_kernels(monkeypatch):
    # bessel_zeros(n, 40), n <= 64, from a cold solve are bitwise those of the
    # 60-term series and the full-width recurrence
    monkeypatch.setattr(bessel, "_zeros", {})
    zeros = bessel._order_zeros(range(bessel.MAX_ORDER + 1), 40)
    monkeypatch.setattr(bessel, "_zeros", {})
    _reference_kernels(monkeypatch)
    expect = bessel._order_zeros(range(bessel.MAX_ORDER + 1), 40)
    assert all(np.array_equal(z, e) for z, e in zip(zeros, expect))


@pytest.mark.parametrize("size", ["default", "small"])
def test_basis_tables_match_per_order_reference(basis, size, monkeypatch):
    # the batched table build equals, bit for bit, one _j_neighbours call per
    # order with the 60-term series and the full-width recurrence, on the
    # same grid
    b = basis if size == "default" else DiskBasis(6, 10, DiskGrid(24, 32))
    _reference_kernels(monkeypatch)
    grid, K = b.grid, b.k_radial
    nd, kd = b.dealias_band()
    rw = grid.measure_r * grid.n_theta
    for n in range(b.n_modes + 1):
        z = b.roots[n]
        jm, j, jp = bessel._j_neighbours(n, np.append(np.outer(grid.r, z), z))
        table = j[:-K].reshape(grid.n_r, K)
        assert np.array_equal(b.r_eval[n], table), n
        assert np.array_equal(b.norm2[n], math.pi * jp[-K:] ** 2), n
        assert np.array_equal(b.analysis[n], _projector(table, rw)), n
        if n == 0:
            assert np.array_equal(b.mean0, 2.0 * np.pi * jp[-K:] / z)
        if n <= nd:
            r_diff = z * (0.5 * (jm[:-K] - jp[:-K])).reshape(grid.n_r, K)
            assert np.array_equal(b.band_kit["radial"][n, : grid.n_r], r_diff[:, :kd]), n
