"""Bessel functions of the first kind: values, derivatives, positive zeros.

Evaluation strategy
-------------------
The defining power series

    J_n(s) = sum_k (-1)^k / (k! (k+n)!) (s/2)^(2k+n)

is used only where its terms decay essentially from the first one, i.e. for
s <= max(6, sqrt(2(n+1))).  There the float64 sum (compensated) carries
absolute errors near 1e-15.  Beyond that range the alternating terms grow
large before decaying and the series cancels catastrophically, so a
normalized backward recurrence takes over: recur J_m down from a start order
well above max(n, s) with arbitrary seed values, then normalize with
J_0 + 2*(J_2 + J_4 + ...) = 1.  The recurrence is stable downward and keeps
relative accuracy near machine precision for all supported arguments.

Zeros are solved once per order and kept in one array per order.  A
fixed-step sign-change scan brackets them (consecutive positive zeros of J_n
are more than 3 apart, so a 0.5 step cannot straddle two), a secant point
inside each bracket seeds Newton's method, and every Newton iterate tightens
its bracket, which also catches a step that leaves it.  Each Newton step
takes J_n and J_n' from one backward recurrence that yields J_{n-1}, J_n and
J_{n+1} together.  Asking for more zeros of an order than it holds solves the
order again and appends only the new zeros, so a zero once returned never
changes.
"""

import math

import numpy as np

from .errors import UnsupportedOrderError, ZeroScanError
from .quadrature import integrate

MAX_ORDER = 64

_SERIES_TERMS = 60
_RESCALE_LIMIT = 2.0 ** 600
_RESCALE_FACTOR = 2.0 ** -600
_RESCALE_EVERY = 8


def _series_threshold(n):
    return max(6.0, math.sqrt(2.0 * (n + 1)))


# the denominators m (m + k) of series term m of order k <= MAX_ORDER + 1,
# integers exact as floats
_SERIES_DENOMS = np.array([[m * (m + k) for k in range(MAX_ORDER + 2)]
                           for m in range(1, _SERIES_TERMS + 1)], dtype=float)


def _series_j(orders, s):
    """Power series of the orders ``orders`` (rows) in one pass, on their
    well-conditioned range; ``s`` is a positive array.  -q is spread over
    the rows once, so only the division by m (m + k) broadcasts."""
    s = np.asarray(s, dtype=float)
    half = 0.5 * s
    term = np.stack([half ** k / math.factorial(k) for k in orders])
    neg_q = np.repeat(-(half * half)[None], len(orders), axis=0)
    total = term.copy()
    comp = np.zeros_like(total)          # Kahan compensation
    for d in _SERIES_DENOMS[:, orders, None]:
        term = term * neg_q / d
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _miller_rows(s, lo, hi):
    """Orders lo..hi (rows) at the positive abscissae ``s`` by backward recurrence.

    Each abscissa starts from its own order int(1.5 max(hi, s)) + 30, so its
    values do not depend on the other abscissae of the call.  Only three
    rows and the normalization sum are kept while recurring down, and a
    recurrence step allocates nothing.  The magnitude is checked every
    ``_RESCALE_EVERY`` rows; a column that grew past ``_RESCALE_LIMIT`` is
    scaled by a power of two, which is exact, so the result does not depend
    on where the rescale falls.
    """
    s = np.asarray(s, dtype=float)
    starts = (1.5 * np.maximum(hi, s)).astype(int) + 30
    order = np.argsort(starts, kind="stable")
    cuts = np.flatnonzero(np.diff(starts[order])) + 1
    births = {int(starts[g[0]]): g for g in np.split(order, cuts)}   # m -> columns
    out = np.empty((hi - lo + 1, s.size))
    upper = np.zeros(s.size)                 # J_{m+1}, unnormalized
    cur = np.zeros(s.size)                   # J_m
    even = np.zeros(s.size)                  # J_2 + J_4 + ... recurred so far
    spare = np.empty(s.size)
    for m in range(max(births), 0, -1):
        if m in births:
            cur[births[m]] = 1e-30
            if m % 2 == 0:
                even[births[m]] = 1e-30
        np.divide(2.0 * m, s, out=spare)     # J_{m-1} = (2m/s) J_m - J_{m+1}
        spare *= cur
        spare -= upper
        upper, cur, spare = cur, spare, upper
        if m % 2 == 1 and m > 1:
            even += cur
        if lo <= m - 1 <= hi:
            out[m - 1 - lo] = cur
        if m % _RESCALE_EVERY == 0 and np.abs(cur).max() > _RESCALE_LIMIT:
            scale = np.where(np.abs(cur) > _RESCALE_LIMIT, _RESCALE_FACTOR, 1.0)
            upper *= scale
            cur *= scale
            even *= scale
            out *= scale
    return out / (cur + 2.0 * even)


def _j_neighbours(n, s):
    """J_{n-1}, J_n and J_{n+1} at the positive abscissae ``s``, as rows.

    One series pass or recurrence serves all three orders (J_{-1} = -J_1), so
    J_n' = (J_{n-1} - J_{n+1}) / 2 costs no more than J_n.
    """
    s = np.asarray(s, dtype=float)
    out = np.empty((3, s.size))
    small = s <= _series_threshold(max(n - 1, 0))
    if small.any():
        out[:, small] = _series_j((abs(n - 1), n, n + 1), s[small])
    if (~small).any():
        rows = _miller_rows(s[~small], max(n - 1, 0), n + 1)
        out[3 - len(rows):, ~small] = rows
    if n == 0:
        out[0] = -out[2]
    return out


def _bessel_j_impl(n, s):
    """J_n over a float array, any sign of s."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    sign = np.where((s < 0) & (n % 2 == 1), -1.0, 1.0)
    sa = np.abs(s)
    small = sa <= _series_threshold(n)
    if small.any():
        out[small] = _series_j((n,), sa[small])[0]
    if (~small).any():
        out[~small] = _miller_rows(sa[~small], n, n)[0]
    return out * sign


def _check_order(n):
    if n != int(n) or n < 0:
        raise UnsupportedOrderError(f"order must be a non-negative integer, got {n!r}")
    if n > MAX_ORDER:
        raise UnsupportedOrderError(f"order {n} exceeds supported maximum {MAX_ORDER}")
    return int(n)


def bessel_j(n, s):
    """J_n(s) for non-negative integer order n <= MAX_ORDER.

    Accepts a scalar or array argument; absolute accuracy is ~1e-14 for
    |s| <= 50 and degrades gracefully beyond.
    """
    n = _check_order(n)
    arr = np.asarray(s, dtype=float)
    res = _bessel_j_impl(n, arr)
    return float(res) if np.isscalar(s) or arr.ndim == 0 else res


def bessel_j_prime(n, s):
    """dJ_n/ds = (J_{n-1} - J_{n+1}) / 2, the mean of the two ladder
    recurrences, with J_{-1} = -J_1 so that J_0' = -J_1."""
    n = _check_order(n)
    arr = np.asarray(s, dtype=float)
    jm, _, jp = _j_neighbours(n, np.abs(arr).ravel())
    sign = np.where((arr < 0) & (n % 2 == 0), -1.0, 1.0)
    res = sign * (0.5 * (jm - jp)).reshape(arr.shape)
    return float(res) if np.isscalar(s) or arr.ndim == 0 else res


# ---------------------------------------------------------------------------
# Zeros

_NEWTON_TOL = 1e-13
_NEWTON_ITERS = 60
_SCAN_STEP = 0.5


def _zeros_for_order(n, k_max, window=None):
    """First k_max positive zeros of J_n: one scan, then guarded Newton."""
    start = float(max(n, 1))
    if window is None:
        window = start + 1.2 * math.pi * (k_max + 0.5 * n + 3.0) + 5.0
    pts = np.arange(start, window + _SCAN_STEP, _SCAN_STEP)
    vals = _bessel_j_impl(n, pts)
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if flips.size < k_max:
        raise ZeroScanError(
            f"scan window [{start:g}, {window:g}] found only {flips.size} "
            f"sign changes of J_{n}, needed {k_max}"
        )
    flips = flips[:k_max]
    lo, hi = pts[flips], pts[flips + 1]
    flo, fhi = vals[flips], vals[flips + 1]
    root = lo - flo * (hi - lo) / (fhi - flo)
    # Newton, each iterate shrinking its bracket; a step that lands outside
    # the bracket is replaced by its midpoint.  A root is final once its
    # step is <= _NEWTON_TOL relative (the error after that step is of the
    # step's square), so each root's iterates do not depend on the others.
    active = np.ones(k_max, dtype=bool)
    for _ in range(_NEWTON_ITERS):
        jm, f, jp = _j_neighbours(n, root[active])
        step = f / (0.5 * (jm - jp))
        x = root[active]
        left = np.sign(f) == np.sign(flo[active])
        lo[active] = np.where(left, x, lo[active])
        flo[active] = np.where(left, f, flo[active])
        hi[active] = np.where(left, hi[active], x)
        nxt = x - step
        bad = ~((nxt >= lo[active]) & (nxt <= hi[active]))
        root[active] = np.where(bad, 0.5 * (lo[active] + hi[active]), nxt)
        active[active] = bad | (np.abs(step) > _NEWTON_TOL * x)
        if not active.any():
            return root
    raise ZeroScanError(f"Newton polish of the zeros of J_{n} did not converge")


_zeros = {}          # order n -> array of its first zeros, only ever extended


def _order_zeros(n, k):
    """The cached zeros of J_n, holding at least k of them."""
    have = _zeros.get(n)
    if have is None or have.size < k:
        held = 0 if have is None else have.size
        new = _zeros_for_order(n, max(k, 2 * held))
        _zeros[n] = new if have is None else np.concatenate([have, new[held:]])
    return _zeros[n]


def _check_index(k):
    if k != int(k) or k < 1:
        raise ValueError(f"zero index must be a positive integer, got {k!r}")
    return int(k)


def bessel_zeros(n, k):
    """First k positive zeros of J_n as an array, accurate to ~1e-13 absolute."""
    k = _check_index(k)
    return _order_zeros(_check_order(n), k)[:k].copy()


def bessel_zero(n, k):
    """k-th positive zero of J_n (k >= 1), accurate to ~1e-13 absolute."""
    k = _check_index(k)
    return float(_order_zeros(_check_order(n), k)[k - 1])


def certified_zeros(n_max, k_max):
    """Rows (n, k, zero, bound) of the first k_max positive zeros of J_0 ...
    J_{n_max}, in (n, k) order, bound a certified absolute error bound.

    Each order is certified in one vectorized pass: residual |J_n(z)|,
    separation of consecutive zeros > 1, and the interlacing
    j_{n-1,k} < j_{n,k} < j_{n-1,k+1} with the order below; a failed check
    raises ZeroScanError.
    """
    rows = []
    below = None
    for n in range(n_max + 1):
        z = bessel_zeros(n, k_max)
        jm, resid, jp = _j_neighbours(n, z)
        resid = np.abs(resid)
        slope = np.abs(0.5 * (jm - jp))
        failed = np.nonzero(resid > 1e-12 * np.maximum(1.0, slope))[0]
        if failed.size:
            k = failed[0] + 1
            raise ZeroScanError(f"zero ({n},{k}) failed certification: |J|={resid[k - 1]:g}")
        close = np.nonzero(np.diff(z) <= 1.0)[0]
        if close.size:
            k = close[0] + 2
            raise ZeroScanError(f"zeros ({n},{k-1}) and ({n},{k}) separated by <= 1")
        if below is not None and not (np.all(below < z) and np.all(z[:-1] < below[1:])):
            raise ZeroScanError(f"zeros of J_{n - 1} and J_{n} do not interlace")
        bound = resid / np.maximum(slope, 1e-300) + 1e-14 * z
        rows += [(n, k + 1, float(z[k]), float(bound[k])) for k in range(k_max)]
        below = z
    return rows


# ---------------------------------------------------------------------------
# Integral identity suite


def verify_identity_suite(s_samples, abs_tol=1e-11):
    """Max residuals of the J_0/J_1 cubic and quadratic integral identities.

    Left sides are evaluated by adaptive quadrature, right sides from the
    closed forms (plus quadrature where the right side keeps an integral of
    a different integrand).  Returns a dict identity -> max |residual|.
    """
    j = bessel_zero(1, 1)
    j0 = lambda t: _bessel_j_impl(0, t)
    j1 = lambda t: _bessel_j_impl(1, t)

    r1 = 0.0
    r3 = 0.0
    r4 = 0.0
    for s in s_samples:
        s = float(s)
        lhs1 = integrate(lambda t: j0(t) ** 2 * t, 0.0, s, abs_tol=abs_tol)
        rhs1 = 0.5 * s * s * (bessel_j(0, s) ** 2 + bessel_j(1, s) ** 2)
        r1 = max(r1, abs(lhs1 - rhs1))

        cross = integrate(lambda t: j0(t) * j1(t) ** 2 * t, 0.0, s, abs_tol=abs_tol)
        lhs3 = integrate(lambda t: j0(t) ** 3 * t, 0.0, s, abs_tol=abs_tol)
        rhs3 = s * bessel_j(0, s) ** 2 * bessel_j(1, s) + 2.0 * cross
        r3 = max(r3, abs(lhs3 - rhs3))

        cube = integrate(lambda t: j1(t) ** 3, 0.0, s, abs_tol=abs_tol)
        rhs4 = s * bessel_j(1, s) ** 3 / 3.0 + (2.0 / 3.0) * cube
        r4 = max(r4, abs(cross - rhs4))

    lhs2 = integrate(lambda t: j1(j * t) ** 2 * t, 0.0, 1.0, abs_tol=abs_tol)
    r2 = abs(lhs2 - 0.5 * bessel_j(0, j) ** 2)

    return {"apd1": r1, "apd2": r2, "apd3": r3, "apd4": r4}
