"""Bessel functions of the first kind: values, derivatives, positive zeros.

Evaluation strategy
-------------------
Every value comes from Miller's normalized backward recurrence (Gautschi,
"Computational aspects of three-term recurrence relations", SIAM Rev. 9,
1967): recur J_m down from a start order well above max(n, s) with arbitrary
seed values, then normalize with J_0 + 2*(J_2 + J_4 + ...) = 1.  The
recurrence is stable downward and keeps relative accuracy near machine
precision for all supported arguments.  At small s its relative error grows
with the order n, as J_n is reached from the normalization at order 0
through n steps of two roundings each: against 200-bit values on
1e-8 <= s <= 12, orders 9 to 65 (no zeros there) are within 4.0e-15, where
the kernel with a power series for small s was within 2.9e-15.  Below
``_TINY`` an argument takes the leading term (s/2)^n / n! of the power
series, which is J_n there to rounding (the next term is below 3e-17 of
it), makes s = 0 exact and keeps the recurrence clear of its per-row growth
2m/s, which would there outrun the rescale.

One kernel, ``_j_neighbours``, gives every value: J_{n-1}, J_n and J_{n+1}
from one recurrence, so J_n and J_n' cost one call.  Its recurrence starts
above max(n + 1, 2, s), so the requests for orders 0 and 1 start from the
same order and share their values bitwise.  Arguments must be finite and at
most ``MAX_ARGUMENT``.

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
zeros of an order than it holds solves the order again and stores it whole,
which repeats the zeros it held: a zero once returned never changes.
"""

import math

import numpy as np

from .errors import NonFiniteFieldError, UnsupportedOrderError, ZeroScanError
from .quadrature import interval_rule

MAX_ORDER = 64
# the largest argument: the recurrence runs one row per order from 1.5 s
# down, so its time grows with s.  The largest zero scan the CLI asks for,
# order 64 with 1000 zeros, ends at 3970.9, and extending an order's zeros
# to twice what it holds ends below 7740 for up to 1000 zeros
MAX_ARGUMENT = 8192.0
# below this argument J_n is its leading term (s/2)^n / n!
_TINY = 1e-8
_RESCALE_LIMIT = 2.0 ** 600
_RESCALE_FACTOR = 2.0 ** -600
_RESCALE_EVERY = 8

# n! for the orders the kernel returns, correctly rounded
_FACTORIALS = np.array([math.factorial(n) for n in range(MAX_ORDER + 2)], dtype=float)


def _cols(n, mask):
    """The orders of the columns ``mask``: all of them for one order."""
    return n[mask] if n.ndim else n


def _miller_rows(s, lo, hi):
    """Orders lo..hi (rows) at the positive abscissae ``s`` by backward recurrence.

    ``lo`` and ``hi`` are one order each or one per abscissa, hi - lo the
    same for all; row i of an abscissa holds its order lo + i, and a row
    below order 0 stays 0.  Each abscissa starts from its own order
    int(1.5 max(hi, 2, s)) + 30, so its values do not depend on the other
    abscissae of the call, nor on hi where hi <= 2.  The columns are
    recurred in order of falling start order, so the columns started by
    step m are a prefix, and each step touches only that prefix.  Only three
    rows and the normalization sum are kept while recurring down, and a step
    that keeps no row allocates nothing.  The magnitude is checked every
    ``_RESCALE_EVERY`` rows; a column that grew past ``_RESCALE_LIMIT`` is
    scaled by a power of two, which is exact, so the result does not depend
    on where the rescale falls.
    """
    s = np.asarray(s, dtype=float)
    lo = np.asarray(lo)
    n_rows = int(np.max(hi - lo)) + 1
    starts = (1.5 * np.maximum(np.maximum(hi, 2), s)).astype(int) + 30
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
    """J_{n-1}, J_n and J_{n+1} at the non-negative abscissae ``s``, as rows;
    ``n`` is one order or one per abscissa.

    One recurrence serves all three orders (J_{-1} = -J_1), so
    J_n' = (J_{n-1} - J_{n+1}) / 2 costs no more than J_n.  A non-finite
    abscissa raises NonFiniteFieldError, one above ``MAX_ARGUMENT``
    UnsupportedOrderError.
    """
    s = np.asarray(s, dtype=float)
    n = np.asarray(n)
    top = s.max(initial=0.0)
    if not math.isfinite(top):
        raise NonFiniteFieldError(f"Bessel argument {top} is not finite")
    if top > MAX_ARGUMENT:
        raise UnsupportedOrderError(
            f"Bessel argument {top:g} exceeds supported maximum {MAX_ARGUMENT:g}")
    # a column below _TINY recurs from _TINY, and its rows are replaced
    out = _miller_rows(np.maximum(s, _TINY), n - 1, n + 1)
    tiny = s < _TINY
    if tiny.any():
        k = np.abs(np.reshape(_cols(n, tiny), (1, -1)) + _NEIGHBOURS)
        out[:, tiny] = (0.5 * s[tiny]) ** k / _FACTORIALS[k]
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

    Accepts a scalar or array argument, finite and with |s| <= MAX_ARGUMENT;
    absolute accuracy is ~1e-14 for |s| <= 50 and degrades gracefully beyond.
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
    solved again to max(k, twice what it holds) and stored whole, which
    repeats the zeros it held, so a zero once returned never changes.
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
        _zeros.update(_solve_zeros(batch))
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


def _power_integrals(s):
    """The integrals on [0, s] of J_0^2 t, J_1^2 t, J_0^3 t, J_0 J_1^2 t and
    J_1^3, each ``w @ g(t)`` on the Gauss-Legendre rule of
    ``quadrature.interval_rule``, J_0 and J_1 at its nodes from one call."""
    t, w = interval_rule(0.0, s)
    j0, j1, _ = _j_neighbours(1, t)
    return tuple(float(w @ g) for g in (j0 * j0 * t, j1 * j1 * t, j0 ** 3 * t,
                                         j0 * j1 * j1 * t, j1 ** 3))


def verify_identity_suite(s_samples):
    """Max residuals of the J_0/J_1 cubic and quadratic integral identities.

    Each integral on [0, s] is one of ``_power_integrals``; right sides come
    from the closed forms (plus such an integral where the right side keeps
    one of a different integrand).  Returns a dict identity -> max |residual|.
    """
    r1 = r3 = r4 = 0.0
    for s in s_samples:
        s = float(s)
        lhs1, _, lhs3, cross, cube = _power_integrals(s)
        rhs1 = 0.5 * s * s * (bessel_j(0, s) ** 2 + bessel_j(1, s) ** 2)
        r1 = max(r1, abs(lhs1 - rhs1))

        rhs3 = s * bessel_j(0, s) ** 2 * bessel_j(1, s) + 2.0 * cross
        r3 = max(r3, abs(lhs3 - rhs3))

        rhs4 = s * bessel_j(1, s) ** 3 / 3.0 + (2.0 / 3.0) * cube
        r4 = max(r4, abs(cross - rhs4))

    # int_0^1 J_1(j t)^2 t dt = int_0^j J_1(u)^2 u du / j^2
    j = bessel_zero(1, 1)
    lhs2 = _power_integrals(j)[1] / j**2
    r2 = abs(lhs2 - 0.5 * bessel_j(0, j) ** 2)

    return {"apd1": r1, "apd2": r2, "apd3": r3, "apd4": r4}
