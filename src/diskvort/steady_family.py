"""Exact steady vortex states a J_0(l r) + b J_n(l r) cos(n theta + beta).

With l = j_{n,k} (the k-th positive zero of J_n), every such field is a
steady solution of the vorticity equation: the cos part is a Laplacian
eigenfunction with eigenvalue l^2, and the radial part satisfies
G[a J_0(l r)] = a (J_0(l r) - J_0(l)) / l^2, so the whole field is an affine
function of its own stream function.

The default family (n, k) = (1, 1) is the one whose rotation orbits the rest
of the package studies; ``j_11()`` returns its root.  ``orbital_distance``
is the L^p distance to an element's rotation orbit.  The module also carries
the moment machinery that identifies an orbit inside a rearrangement class:
the quadratic and cubic power integrals of a family element reduce to
r1 = 2a^2 + b^2 and r2 = 4a^3 + 3ab^2, and that algebraic system has at most
one solution with b >= 0, recovered here by bisection of a monotone cubic.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bessel import bessel_j, bessel_zero
from .disk_spectral import DiskBasis, DiskGrid, GridField, SpectralField, single_mode
from .errors import ResolutionError
from .quadrature import integrate


def j_11():
    return bessel_zero(1, 1)


@dataclass(frozen=True)
class VElement:
    """Parameters (a, b, beta) of a steady state; normal form keeps b >= 0.

    family selects (n, k); the root is j_{n,k} and the angular part is
    cos(n theta + beta).
    """

    a: float
    b: float
    beta: float = 0.0
    family: tuple = (1, 1)

    def __post_init__(self):
        a, b, beta = float(self.a), float(self.b), float(self.beta)
        if b < 0:
            b, beta = -b, beta + math.pi
        beta = beta % (2.0 * math.pi)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "beta", beta)

    @property
    def root(self):
        n, k = self.family
        return bessel_zero(n, k)

    def rotated(self, angle):
        return VElement(self.a, self.b, self.beta + angle, self.family)


@lru_cache(maxsize=64)
def _orbit_tables(a, b, family, grid: DiskGrid):
    """Radial part and the cos / sin parts, on the grid, of the orbit of the
    elements with these a, b and family; beta does not enter them, so every
    rotation of an element shares one cache entry."""
    n, k = family
    lam = bessel_zero(n, k)
    base = a * bessel_j(0, lam * grid.r)[:, None]
    rad = b * bessel_j(n, lam * grid.r)
    gc = rad[:, None] * np.cos(n * grid.theta)[None, :]
    gs = rad[:, None] * np.sin(n * grid.theta)[None, :]
    return base, gc, gs


def v_element_grid(ve: VElement, grid: DiskGrid) -> GridField:
    """Exact closed-form evaluation at the collocation nodes, from the orbit
    tables: gc[:, 0] is b J_n(l r) times cos 0 = 1."""
    base, gc, _ = _orbit_tables(ve.a, ve.b, ve.family, grid)
    return GridField(grid, base + gc[:, :1] * np.cos(ve.family[0] * grid.theta + ve.beta))


def dipole_part(ve: VElement, basis: DiskBasis) -> SpectralField:
    """Only the exactly representable cos component of the element."""
    n, k = ve.family
    return single_mode(basis, n, k, amplitude=ve.b, phase=ve.beta)


# ---------------------------------------------------------------------------
# Orbital distance


# restart scan size; a Newton bracket spans one scan spacing either side
_N_COARSE = 256


def _orbit_distance_curve(g: GridField, ve: VElement, p: float, betas):
    """L^p distance from g to the rotations ve.rotated(beta) for many betas."""
    grid = g.grid
    base, gc, gs = _orbit_tables(ve.a, ve.b, ve.family, grid)
    resid0 = g.values - base
    mu = grid.measures
    betas = np.atleast_1d(betas)
    out = np.empty(betas.size)
    for i, beta in enumerate(betas):
        phi = ve.beta + beta
        diff = resid0 - (math.cos(phi) * gc - math.sin(phi) * gs)
        out[i] = (np.abs(diff) ** p * mu).sum()
    return out ** (1.0 / p)


def _newton_angle(r0, gc, gs, mu, p, phi):
    """Least D = sum mu |e|^p, e = r0 - m, m = cos(phi) gc - sin(phi) gs, in
    phi +- 2 pi / _N_COARSE by Newton on D'/p = sum mu sign(e)|e|^(p-1) t,
    t = de/dphi, with D''/p = sum mu ((p-1)|e|^(p-2) t^2 + sign(e)|e|^(p-1) m),
    infinite at p < 2 where e = 0.  Each D' narrows the bracket by its sign; a
    step that leaves it, is not under half the step before last, or comes
    from a D'' that is not finite and positive bisects instead.  Where the
    Newton step leaves past an end of the first bracket, or a finite D'' <= 0
    gives none, the end that D' falls towards is probed once instead; if D'
    still falls outward there, the minimum lies past the bracket, and the
    search stops on that end for ``orbital_distance``'s restart scan.  The
    search also stops where D' lies within the bound of its rounding noise,
    as it does at once on a field that lies on its orbit, where every e is
    noise."""
    span = 2.0 * math.pi / _N_COARSE
    lo, hi, last, before = phi - span, phi + span, span, span
    ends, probe = [lo, hi], 0.0     # unprobed first-bracket ends; the D' that sent a probe
    eps = np.finfo(float).eps
    tol = 8.0 * eps
    # the field and the orbit are each known to a few rounding errors, so e
    # only to within u; a term mu sign(e)|e|^(p-1) t of D'/p is then known to
    # a relative (p-1) u / |e| to first order, and not even in sign where
    # |e| <= u, which max(p-1, 1) u / max(|e|, u) covers.  Where D' lies
    # within the sum of those uncertainties, its sign is noise
    u = 4.0 * eps * float(np.abs(r0).max() + np.abs(gc).max() + np.abs(gs).max())
    for _ in range(100):        # ~45 bisections reach the step tolerance
        c, s = math.cos(phi), math.sin(phi)
        m = c * gc - s * gs
        e, t = r0 - m, s * gc + c * gs
        a = np.abs(e)
        w = np.copysign(a ** (p - 1.0), e) * mu
        wt = w * t
        d1 = float(wt.sum())
        if (abs(d1) <= max(p - 1.0, 1.0) * u * float((np.abs(wt) / np.maximum(a, u)).sum())
                or probe * d1 > 0.0):
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            d2 = float(((p - 1.0) * a ** (p - 2.0) * t * t * mu + w * m).sum())
        lo, hi = (lo, phi) if d1 > 0.0 else (phi, hi)
        step, probe = (-d1 / d2 if 0.0 < d2 < math.inf else math.inf), 0.0
        # a converged step is taken even where it rounds onto the bracket end
        if abs(step) > tol and not (lo < phi + step < hi and abs(step) < 0.5 * abs(before)):
            end = lo if d1 > 0.0 else hi
            if end in ends and d2 < math.inf and not lo < phi + step < hi:
                ends.remove(end)
                step, probe = end - phi, d1
            else:
                step = 0.5 * (lo + hi) - phi
        phi, last, before = phi + step, step, last
        if abs(step) <= tol:
            break
    return phi


def _tangent_floor(gc, grid: DiskGrid, p: float) -> float:
    """Lower bound on min over psi of ||rad(r) sin(n theta + psi)||_p, rad =
    gc[:, 0]: each ring has sum_j sin^2 = n_theta / 2, and power means bound
    sum_j |sin|^p below by n_theta min(1/2, 2^(-p/2))."""
    ring = (grid.measure_r * np.abs(gc[:, 0]) ** p).sum()
    return (min(0.5, 2.0 ** (-0.5 * p)) * grid.n_theta * ring) ** (1.0 / p)


def orbital_distance(g: GridField, ve: VElement, p: float):
    """min over rotations of ||g - ve(., . + beta)||_p and the minimizer.

    With r = g - base, gc and gs the orbit's sampled cos(n theta) and
    sin(n theta) parts and phi = ve.beta + beta, every p starts from the L^2
    angle phi0 = atan2(-<r, gs>, <r, gc>), exact at p = 2: for 0 < 2n <
    n_theta, gc and gs are orthogonal with equal norms, so d^2(phi) = C -
    2 cos(phi) <r, gc> + 2 sin(phi) <r, gs>.  Other p take ``_newton_angle``
    steps to a distance d at phi.  Rotating by dphi moves the orbit by
    2 |sin(dphi / 2)| rad(r) sin(n theta + psi), so no angle farther than
    2 asin(d / ``_tangent_floor``) from phi is closer.  If that radius reaches
    past the bracket (so always when Newton ends on its edge), the least of
    256 scanned angles starts a second Newton run; the closer result is kept.
    b = 0 or n = 0 leaves one orbit field; 2n >= n_theta is a ResolutionError.
    """
    if not (1.0 < p < math.inf):
        raise ValueError(f"p must lie in (1, inf), got {p}")
    grid = g.grid
    n, _ = ve.family
    if ve.b == 0.0 or n == 0:
        return float(_orbit_distance_curve(g, ve, p, [0.0])[0]), 0.0
    if 2 * n >= grid.n_theta:
        raise ResolutionError(f"family order {n} needs n_theta > {2 * n}, got {grid.n_theta}")
    base, gc, gs = _orbit_tables(ve.a, ve.b, ve.family, grid)
    resid = (g.values - base) * grid.measures
    phi0 = math.atan2(-float((resid * gs).sum()), float((resid * gc).sum()))

    def at(phi):
        beta = (phi - ve.beta) % (2.0 * math.pi)
        return float(_orbit_distance_curve(g, ve, p, [beta])[0]), float(beta)

    if p == 2.0:
        return at(phi0)
    r0, mu = g.values - base, grid.measures
    phi = _newton_angle(r0, gc, gs, mu, p, phi0)
    best = at(phi)
    reach = 2.0 * math.asin(min(1.0, best[0] / _tangent_floor(gc, grid, p)))
    if reach >= 2.0 * math.pi / _N_COARSE - abs(phi - phi0):
        betas = 2.0 * math.pi * np.arange(_N_COARSE) / _N_COARSE
        start = ve.beta + betas[int(np.argmin(_orbit_distance_curve(g, ve, p, betas)))]
        best = min(best, at(_newton_angle(r0, gc, gs, mu, p, start)))
    return best


def plain_distance(g: GridField, ref: GridField, p: float) -> float:
    return float(
        ((np.abs(g.values - ref.values) ** p) * g.grid.measures).sum() ** (1.0 / p)
    )


# ---------------------------------------------------------------------------
# Moment machinery (family (1,1) only: the coefficients depend on j = j_{1,1})


@dataclass(frozen=True)
class MomentPair:
    r1: float
    r2: float


@lru_cache(maxsize=1)
def moment_coefficients():
    """(p1, p2, q1, q2) by quadrature of the radial power integrals."""
    j = j_11()
    p1 = (2.0 * math.pi / j**2) * integrate(
        lambda t: bessel_j(0, t) ** 2 * t, 0.0, j, abs_tol=1e-12
    )
    p2 = (math.pi / j**2) * integrate(
        lambda t: bessel_j(1, t) ** 2 * t, 0.0, j, abs_tol=1e-12
    )
    q1 = (2.0 * math.pi / j**2) * integrate(
        lambda t: bessel_j(0, t) ** 3 * t, 0.0, j, abs_tol=1e-12
    )
    q2 = (3.0 * math.pi / j**2) * integrate(
        lambda t: bessel_j(0, t) * bessel_j(1, t) ** 2 * t, 0.0, j, abs_tol=1e-12
    )
    return p1, p2, q1, q2


def moments(g: GridField) -> MomentPair:
    """Normalized quadratic/cubic moments: for a family element these equal
    (2a^2 + b^2, 4a^3 + 3ab^2)."""
    _, p2, _, q2 = moment_coefficients()
    mu = g.grid.measures
    m2 = float((g.values**2 * mu).sum())
    m3 = float((g.values**3 * mu).sum())
    return MomentPair(r1=m2 / p2, r2=3.0 * m3 / q2)


def solve_moment_system(m: MomentPair, tol=1e-6):
    """Unique (a, b >= 0) with 2a^2 + b^2 = r1 and 4a^3 + 3ab^2 = r2.

    Substituting the first equation into the second leaves the cubic
    -2x^3 + 3 r1 x = r2, strictly increasing on 2x^2 <= r1; bisection finds
    the only admissible root.  Returns None when the system is inconsistent
    beyond ``tol``.
    """
    r1, r2 = m.r1, m.r2
    scale = max(1.0, abs(r1)) ** 1.5
    if r1 < -tol:
        return None
    if r1 <= tol:
        return (0.0, 0.0) if abs(r2) <= tol * scale else None
    xmax = math.sqrt(r1 / 2.0)
    f = lambda x: -2.0 * x**3 + 3.0 * r1 * x
    if abs(r2) > f(xmax) + tol * scale:
        return None
    lo, hi = -xmax, xmax
    target = min(max(r2, f(lo)), f(hi))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    y2 = r1 - 2.0 * x * x
    y = math.sqrt(max(y2, 0.0))
    resid = max(abs(2 * x * x + y * y - r1), abs(4 * x**3 + 3 * x * y * y - r2))
    if resid > tol * scale:
        return None
    return (x, y)


def verify_moment_coefficients():
    """Quadrature values of p1, p2, q1, q2 against the closed forms and the
    internal ratios p1 = 2 p2, q1 = (4/3) q2."""
    j = j_11()
    p1, p2, q1, q2 = moment_coefficients()
    p1_closed = math.pi * bessel_j(0, j) ** 2
    cube = integrate(lambda t: bessel_j(1, t) ** 3, 0.0, j, abs_tol=1e-12)
    q1_closed = (8.0 * math.pi / (3.0 * j**2)) * cube
    q2_closed = (2.0 * math.pi / j**2) * cube
    return {
        "p1": p1,
        "p2": p2,
        "q1": q1,
        "q2": q2,
        "p1_vs_closed": abs(p1 - p1_closed),
        "p2_vs_half_closed": abs(p2 - 0.5 * p1_closed),
        "p_ratio_residual": abs(p1 - 2.0 * p2),
        "q_ratio_residual": abs(q1 - (4.0 / 3.0) * q2),
        "q1_vs_closed": abs(q1 - q1_closed),
        "q2_vs_closed": abs(q2 - q2_closed),
    }
