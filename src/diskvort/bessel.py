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

One kernel, ``_j_neighbours``, gives every value: J_{n-1}, J_n and J_{n+1}
from one series pass or one recurrence, so J_n and J_n' cost one call.  Its
series range is that of its lowest order n - 1, and its recurrence starts
above max(n + 1, s).

Zeros are kept in one array per order, and all orders of a request are
solved in one scan and one Newton loop (a request whose scans would hold
more than ``_SCAN_COLUMNS`` points, in batches under that budget).  The
kernel takes one order per abscissa, so the scan points of every order
form one recurrence pass, and so do the roots of every Newton step.  A
fixed-step sign-change scan brackets the zeros of each order in its own
window (consecutive positive zeros of J_n are more than 3 apart, so a 0.5
step cannot straddle two), a secant point inside each bracket seeds
Newton's method, and every Newton iterate tightens its bracket, which also
catches a step that leaves it.  A zero depends on its own order and
abscissae only, never on the other orders of the solve.  Asking for more
zeros of an order than it holds solves the order again and appends only the
new zeros, so a zero once returned never changes.
"""

import math

import numpy as np

from .errors import UnsupportedOrderError, ZeroScanError
from .quadrature import integrate

MAX_ORDER = 64

# On a dense sample of every order n <= MAX_ORDER + 1 over its series range,
# zero neighbourhoods included (where a sum is smallest), terms 1..27 give
# the float64 sum of all 60; a later term is below 1/75 of the one before,
# (s/2)^2 / (m (m + n)) there, so three more terms are a margin.
_SERIES_TERMS = 30
_RESCALE_LIMIT = 2.0 ** 600
_RESCALE_FACTOR = 2.0 ** -600
_RESCALE_EVERY = 8


# the largest abscissa at which the series of order n is used, by n
_SERIES_LIMIT = np.array([max(6.0, math.sqrt(2.0 * (n + 1))) for n in range(MAX_ORDER + 2)])

# the denominators m (m + k) of series term m of order k <= MAX_ORDER + 1,
# integers exact as floats
_SERIES_DENOMS = np.array([[m * (m + k) for k in range(MAX_ORDER + 2)]
                           for m in range(1, _SERIES_TERMS + 1)], dtype=float)


def _cols(n, mask):
    """The orders of the columns ``mask``: all of them for one order."""
    return n[mask] if n.ndim else n


def _series_j(orders, s):
    """Power series of the orders ``orders`` (rows) in one pass, on their
    well-conditioned range; ``s`` is a positive array.  A row holds one
    order, or one per abscissa (``orders`` of shape (rows, s.size)).  -q is
    spread over the rows once, so only the division by m (m + k) broadcasts."""
    s = np.asarray(s, dtype=float)
    orders = np.reshape(orders, (len(orders), -1))
    half = 0.5 * s
    term = np.empty((len(orders), s.size))
    for k in set(orders.ravel().tolist()):
        np.copyto(term, half ** k / math.factorial(k), where=orders == k)
    neg_q = np.repeat(-(half * half)[None], len(orders), axis=0)
    total = term.copy()
    comp = np.zeros_like(total)          # Kahan compensation
    for d in _SERIES_DENOMS[:, orders]:
        term = term * neg_q / d
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _miller_rows(s, lo, hi):
    """Orders lo..hi (rows) at the positive abscissae ``s`` by backward recurrence.

    ``lo`` and ``hi`` are one order each or one per abscissa, hi - lo the
    same for all; row i of an abscissa holds its order lo + i, and a row
    below order 0 stays 0.  Each abscissa starts from its own order
    int(1.5 max(hi, s)) + 30, so its values do not depend on the other
    abscissae of the call.  The columns are recurred in order of falling
    start order, so the columns started by step m are a prefix, and each
    step touches only that prefix.  Only three rows and the normalization
    sum are kept while recurring down, and a step that keeps no row
    allocates nothing.  The magnitude is checked every ``_RESCALE_EVERY``
    rows; a column that grew past ``_RESCALE_LIMIT`` is scaled by a power of
    two, which is exact, so the result does not depend on where the rescale
    falls.
    """
    s = np.asarray(s, dtype=float)
    lo = np.asarray(lo)
    n_rows = int(np.max(hi - lo)) + 1
    starts = (1.5 * np.maximum(hi, s)).astype(int) + 30
    by_start = np.argsort(-starts, kind="stable")
    s = s[by_start]
    if lo.ndim:
        lo = lo[by_start]
    # started[m]: the columns that start at order m or above
    started = np.cumsum(np.bincount(starts)[::-1])[::-1].tolist() + [0]
    del starts
    first_kept, last_kept = int(lo.min()) + 1, int(lo.max()) + n_rows
    out = np.zeros((n_rows, s.size))
    # the three rotating buffers hold 0 beyond the started prefix, which no
    # step writes, so a column starts from J_{m+1} = 0 in whichever is upper
    upper = np.zeros(s.size)                 # J_{m+1}, unnormalized
    cur = np.zeros(s.size)                   # J_m
    even = np.zeros(s.size)                  # J_2 + J_4 + ... recurred so far
    spare = np.zeros(s.size)
    for m in range(len(started) - 2, 0, -1):
        a = started[m]
        if started[m + 1] < a:
            cur[started[m + 1]:a] = 1e-30
            if m % 2 == 0:
                even[started[m + 1]:a] = 1e-30
        nxt = np.divide(2.0 * m, s[:a], out=spare[:a])   # J_{m-1} = (2m/s) J_m - J_{m+1}
        nxt *= cur[:a]
        nxt -= upper[:a]
        upper, cur, spare = cur, spare, upper
        if m % 2 == 1 and m > 1:
            even[:a] += nxt
        if first_kept <= m <= last_kept:     # nxt is J_{m-1}: row m - 1 - lo
            keep = lo[:a] if lo.ndim else lo
            for i in range(n_rows):
                np.copyto(out[i, :a], nxt, where=keep == m - 1 - i)
        if m % _RESCALE_EVERY == 0 and np.abs(nxt).max() > _RESCALE_LIMIT:
            scale = np.where(np.abs(nxt) > _RESCALE_LIMIT, _RESCALE_FACTOR, 1.0)
            upper[:a] *= scale
            nxt *= scale
            even[:a] *= scale
            out[:, :a] *= scale
    out /= cur + 2.0 * even
    rows = np.empty_like(out)
    rows[:, by_start] = out
    return rows


_NEIGHBOURS = np.array([[-1], [0], [1]])


def _j_neighbours(n, s):
    """J_{n-1}, J_n and J_{n+1} at the positive abscissae ``s``, as rows;
    ``n`` is one order or one per abscissa.

    One series pass or recurrence serves all three orders (J_{-1} = -J_1), so
    J_n' = (J_{n-1} - J_{n+1}) / 2 costs no more than J_n.
    """
    s = np.asarray(s, dtype=float)
    n = np.asarray(n)
    out = np.empty((3, s.size))
    small = s <= _SERIES_LIMIT[np.maximum(n - 1, 0)]
    if small.any():
        out[:, small] = _series_j(np.abs(np.reshape(_cols(n, small), (1, -1)) + _NEIGHBOURS),
                                  s[small])
    if (~small).any():
        m = _cols(n, ~small)
        out[:, ~small] = _miller_rows(s[~small], m - 1, m + 1)
    if np.any(n == 0):
        np.copyto(out[0], -out[2], where=n == 0)
    return out


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
    sign = np.where((arr < 0) & (n % 2 == 1), -1.0, 1.0)
    res = _j_neighbours(n, np.abs(arr).ravel())[1].reshape(arr.shape) * sign
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
# the most scan points of one solve: a batch of orders keeps its recurrence
# arrays near 256 KB each (the default basis' 17 orders hold ~5300)
_SCAN_COLUMNS = 2 ** 15


def _scan_window(n, k_max):
    """Right end of the scan that brackets the first k_max zeros of J_n."""
    return float(max(n, 1)) + 1.2 * math.pi * (k_max + 0.5 * n + 3.0) + 5.0


def _scan_points(n, k_max):
    """The scan of J_n for its first k_max zeros, from max(n, 1) on."""
    return np.arange(float(max(n, 1)), _scan_window(n, k_max) + _SCAN_STEP, _SCAN_STEP)


def _solve_zeros(want):
    """First zeros of several orders at once, ``want`` mapping order n to
    its count k_max: one sign-change scan over the scan points of every
    order, then one guarded Newton loop over all their roots.  Returns a
    dict n -> its first k_max zeros.

    Each order keeps its own scan window and brackets, and each root its own
    iterates, so a zero does not depend on the other orders of the call.
    """
    ns, ks = list(want), list(want.values())
    pts = [_scan_points(n, k) for n, k in want.items()]
    sizes = [p.size for p in pts]
    pts = np.concatenate(pts)
    vals = _j_neighbours(np.repeat(ns, sizes), pts)[1]
    brackets, at = [], 0
    for n, k, size in zip(ns, ks, sizes):
        p, v = pts[at:at + size], vals[at:at + size]
        at += size
        flips = np.nonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)[0]
        if flips.size < k:
            raise ZeroScanError(
                f"scan window [{p[0]:g}, {_scan_window(n, k):g}] found only "
                f"{flips.size} sign changes of J_{n}, needed {k}"
            )
        flips = flips[:k]
        brackets.append((p[flips], p[flips + 1], v[flips], v[flips + 1]))
    lo, hi, flo, fhi = (np.concatenate(c) for c in zip(*brackets))
    order = np.repeat(ns, ks)
    root = lo - flo * (hi - lo) / (fhi - flo)
    # Newton, each iterate shrinking its bracket; a step that lands outside
    # the bracket is replaced by its midpoint.  A root is final once its
    # step is <= _NEWTON_TOL relative (the error after that step is of the
    # step's square), so each root's iterates do not depend on the others.
    active = np.ones(root.size, dtype=bool)
    for _ in range(_NEWTON_ITERS):
        jm, f, jp = _j_neighbours(order[active], root[active])
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
            return dict(zip(ns, np.split(root, np.cumsum(ks)[:-1])))
    raise ZeroScanError(f"Newton polish of the zeros of J_{order[active][0]} did not converge")


_zeros = {}          # order n -> array of its first zeros, only ever extended


def _order_zeros(orders, k):
    """The cached zeros of each order in ``orders``, each holding at least k.

    The orders that are missing or short are solved together, in batches
    whose scans hold at most ``_SCAN_COLUMNS`` points; a short order is
    solved again to max(k, twice what it holds) and only its new zeros are
    appended, so a zero once returned never changes.
    """
    held = {n: len(_zeros.get(n, ())) for n in orders}
    batches, points = [{}], 0
    for n, h in held.items():
        if h < k:
            size = _scan_points(n, max(k, 2 * h)).size
            if batches[-1] and points + size > _SCAN_COLUMNS:
                batches.append({})
                points = 0
            batches[-1][n] = max(k, 2 * h)
            points += size
    for batch in filter(None, batches):
        for n, new in _solve_zeros(batch).items():
            _zeros[n] = np.concatenate([_zeros[n], new[held[n]:]]) if held[n] else new
    return [_zeros[n] for n in orders]


def _check_index(k):
    if k != int(k) or k < 1:
        raise ValueError(f"zero index must be a positive integer, got {k!r}")
    return int(k)


def bessel_zeros(n, k):
    """First k positive zeros of J_n as an array, accurate to ~1e-13 absolute."""
    k = _check_index(k)
    return _order_zeros((_check_order(n),), k)[0][:k].copy()


def bessel_zero(n, k):
    """k-th positive zero of J_n (k >= 1), accurate to ~1e-13 absolute."""
    k = _check_index(k)
    return float(_order_zeros((_check_order(n),), k)[0][k - 1])


def certified_zeros(n_max, k_max):
    """Rows (n, k, zero, bound) of the first k_max positive zeros of J_0 ...
    J_{n_max}, in (n, k) order, bound a certified absolute error bound.

    Each order is certified in one vectorized pass: residual |J_n(z)|,
    separation of consecutive zeros > 1, and the interlacing
    j_{n-1,k} < j_{n,k} < j_{n-1,k+1} with the order below; a failed check
    raises ZeroScanError.
    """
    _order_zeros(range(n_max + 1), k_max)
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
    j0 = lambda t: _j_neighbours(0, t)[1]
    j1 = lambda t: _j_neighbours(1, t)[1]

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
