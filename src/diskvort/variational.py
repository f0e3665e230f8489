"""Dual variational problems and the rearrangement energy ascent.

Problem one minimizes the Dirichlet integral over unit-norm stream functions
that are constant on the boundary (constant free) with zero disk mean; its
minimum is the square of the first zero of J_1 and the minimizing space is
the steady family.  The discretization spans the zero-trace modes plus one
lifted direction ell(r) = 2 r^2 - 1 (the constant minus 2 (1 - r^2): unit
boundary value, zero mean), which is exactly the boundary-constant freedom
the constraint set allows.  The operator is block diagonal over azimuthal
mode.  Away from n = 0 the blocks are diagonal, so their minima are the
j_{n,1}^2 read off the basis roots; the n = 0 block, reduced to its
zero-mean subspace, is solved by one symmetric eigendecomposition after a
Cholesky reduction of its mass matrix.  The minimum is the least of these.

Problem two maximizes <v, G v> over unit-norm zero-mean fields, again
blockwise: the n >= 1 blocks are diagonal with maxima 1 / j_{n,1}^2, and
the n = 0 block, which carries the mean constraint, is one symmetric
eigendecomposition of the mean-projected Green operator.  The two problems
are mutually inverse (m * M = 1), both attained on the same family.

The rearrangement ascent maximizes the kinetic energy over the convex hull
(weak closure) of a profile's rearrangement class on the grid.  A plain step
gives every cell the profile's average over its slot in the current stream
function's level order, which maximizes <f, psi_old> over the hull, so from
an iterate in the hull the energy cannot fall.  Only the first step, the
seed's entry into the hull, may lower it.  From the second step on, a step
first tries the same transplant onto the led order psi + lambda (psi -
psi_prev), a heavy-ball lead (Polyak 1964) along the last change of the
stream function, and keeps it when its energy is not below the current one;
otherwise it takes the plain step.  Every iterate stays in the hull and
every accepted step is monotone.  The lead shortens the slow linear approach
to the orbit: on the default basis the orbital distance falls by a median
factor of 0.72 a step there, against 0.89 for plain steps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .disk_spectral import (
    DiskBasis,
    DistributionProfile,
    GridField,
    SpectralField,
    _analyze,
    _synthesize,
    distribution_profile,
    lp_norm,
    single_mode,
    spectral_norm2,
    to_grid,
    transplant,
)
from .errors import AscentError, NonFiniteFieldError, ResolutionError
from .green_energy import energy_grid
from .steady_family import VElement, orbital_distance, v_element_grid


@dataclass(frozen=True)
class V1Result:
    value: float
    minimizer: GridField
    boundary_constant: float
    block: tuple


@dataclass(frozen=True)
class V2Result:
    value: float
    maximizer: GridField
    maximizer_spectral: SpectralField
    relation_residual: float
    block: tuple


def _lift_vector(basis: DiskBasis):
    """Radial lift ell = 2 r^2 - 1 and its couplings.

    ell has boundary value 1 and zero mean; grad ell = 4 r.
    """
    grid = basis.grid
    ell = 2.0 * grid.r**2 - 1.0
    mu_r = grid.measure_r * grid.n_theta         # 2 pi r w
    # <phi_0k, ell> over the disk, by radial quadrature (exact for the basis)
    mass_cross = basis.r_eval[0].T @ (mu_r * ell)
    return ell, mass_cross


def _zero_mean_basis(mean_vec):
    """Orthonormal columns spanning the complement of ``mean_vec``.

    They are the columns after the first of the Householder reflector that
    maps ``mean_vec`` onto the first coordinate axis.
    """
    u = mean_vec / np.linalg.norm(mean_vec)
    v = u.copy()
    v[0] -= 1.0
    H = np.eye(len(u)) - 2.0 * np.outer(v, v) / (v @ v)
    return H[:, 1:]


def _radial_pencil(basis: DiskBasis):
    """Dirichlet and mass matrices (A0, M0) of the n = 0 block.

    The block spans the zero-trace modes phi_0k plus the lift ell, in that
    order.
    """
    _, mass_cross = _lift_vector(basis)
    K = basis.k_radial
    A0 = np.zeros((K + 1, K + 1))
    M0 = np.zeros((K + 1, K + 1))
    A0[:K, :K] = np.diag(basis.roots[0] ** 2 * basis.norm2[0])
    M0[:K, :K] = np.diag(basis.norm2[0])
    # grad coupling: <grad phi, grad ell> = -<phi, lap ell> = -8 <phi, 1>
    A0[:K, K] = A0[K, :K] = -8.0 * basis.mean0
    A0[K, K] = 8.0 * math.pi                    # integral of |4 r|^2
    M0[:K, K] = M0[K, :K] = mass_cross
    M0[K, K] = math.pi / 3.0                    # integral of (2 r^2 - 1)^2
    return A0, M0


def _radial_block_v1(basis: DiskBasis):
    """Least Dirichlet quotient of the n = 0 block on its zero-mean subspace.

    Returns the minimum and its vector [coefficients of phi_0k, weight of
    ell].
    """
    A0, M0 = _radial_pencil(basis)
    # only the phi_0k directions carry mean
    Z = _zero_mean_basis(np.append(basis.mean0, 0.0))
    Ar = Z.T @ A0 @ Z
    Mr = Z.T @ M0 @ Z
    # with Mr = L L^t the pencil (Ar, Mr) has the eigenvalues of the
    # symmetric L^-1 Ar L^-t, and its eigenvectors are L^-t y
    L = np.linalg.cholesky(Mr)
    vals, vecs = np.linalg.eigh(np.linalg.solve(L, np.linalg.solve(L, Ar).T))
    return float(vals[0]), Z @ np.linalg.solve(L.T, vecs[:, 0])


def solve_v1(basis: DiskBasis):
    """Minimize the Dirichlet integral over the discrete constraint space.

    Returns the minimum m, one minimizer (unit L2 norm, zero mean, constant
    boundary trace), its boundary constant and the winning (n-block, k)
    label.
    """
    # n >= 1 blocks are diagonal, A = diag(j^2 norm2) and M = diag(norm2),
    # so each block minimum is j_{n,1}^2; the least n wins ties
    n = int(np.argmin(basis.roots[1:, 0])) + 1
    value = float(basis.roots[n, 0] ** 2)
    rho0, vec = _radial_block_v1(basis)
    grid = basis.grid
    if rho0 < value:
        value, label = rho0, ("radial", 0)
        ell, _ = _lift_vector(basis)
        vals = (basis.r_eval[0] @ vec[:-1])[:, None] + vec[-1] * ell[:, None]
        g = GridField(grid, np.tile(vals, (1, grid.n_theta)))
        norm = lp_norm(g, 2)
        c = float(vec[-1] / norm)
    else:
        label = ("cos", n)
        g = to_grid(single_mode(basis, n, 1, amplitude=1.0))
        norm = lp_norm(g, 2)
        c = 0.0
    minimizer = GridField(grid, g.values / norm)
    return V1Result(value, minimizer, c, label)


def _radial_block_v2(basis: DiskBasis):
    """Largest <c, G c> over unit-norm zero-mean n = 0 coefficients c.

    In x = sqrt(norm2) c the norm is |x|, the mean constraint is
    (mean0 / sqrt(norm2)) . x = 0 and G is diag(green_mult[0]).  Returns
    the maximum and its coefficients c.
    """
    s = np.sqrt(basis.norm2[0])
    Z = _zero_mean_basis(basis.mean0 / s)
    vals, vecs = np.linalg.eigh((Z.T * basis.green_mult[0]) @ Z)
    return float(vals[-1]), (Z @ vecs[:, -1]) / s


def solve_v2(basis: DiskBasis):
    """Maximize <v, G v> over unit-norm zero-mean fields, blockwise over the
    mean-projected Green operator.  The grid maximizer has unit grid norm,
    the spectral one unit Parseval norm (2 energy = value).  The relation
    residual is |P G x / M - x| in coefficients x = sqrt(parseval) c, P
    projecting off the mean direction of row 0."""
    # n >= 1 blocks are diagonal with maximum green_mult[n, 0]
    n = int(np.argmax(basis.green_mult[1:, 0])) + 1
    value = float(basis.green_mult[n, 0])
    rho0, c0 = _radial_block_v2(basis)
    if rho0 > value:
        value, label = rho0, ("radial", 0)
        coeffs = np.zeros((basis.n_modes + 1, 2, basis.k_radial))
        coeffs[0, 0] = c0
        f = SpectralField(basis, coeffs)
    else:
        label = ("cos", n)
        f = single_mode(basis, n, 1, amplitude=1.0)
    g = to_grid(f)
    g = GridField(basis.grid, g.values / lp_norm(g, 2))
    # * (1.0 / d) here and below, as numpy divided complex values by a real d: same bits
    f = SpectralField(basis, f.coeffs * (1.0 / math.sqrt(spectral_norm2(f))))

    x = np.sqrt(basis.parseval)[:, None] * f.coeffs
    gx = basis.green_mult[:, None] * x
    u = basis.mean0 / np.sqrt(basis.norm2[0])
    gx[0, 0] -= (u @ gx[0, 0]) * (1.0 / (u @ u)) * u
    residual = float(np.linalg.norm(gx * (1.0 / value) - x))
    return V2Result(value, g, f, residual, label)


# ---------------------------------------------------------------------------
# Rearrangement energy ascent


# The lead factor lambda of the led order psi + lambda (psi - psi_prev).  On
# six bases and elements (6 x 10 to 16 x 32 modes, a in {0, 0.2, 0.3}, eight
# ring-shuffled seeds each) 0.5 made 28-45% fewer transplants than the plain
# ascent and 0.7 28-59%, both reaching the orbit from the same seeds; 0.7
# rejects two to six times as many trials as 0.5, yet its ascents on the
# Lamb dipole took 9% less time, faster in 18 of 20 interleaved benchmark
# pairs on a 2-core x86 host.
_LEAD = 0.7


@dataclass
class AscentState:
    """One energy-ascent iterate over a fixed rearrangement profile, with its
    stream function psi, the previous iterate's stream function psi_prev
    (None at the start) and the count of lead trials rejected so far."""

    iterate: GridField
    energy: float
    iteration: int
    profile: DistributionProfile
    psi: GridField
    psi_prev: GridField = None
    rejected: int = 0


def _stream_of(g: GridField, basis: DiskBasis) -> GridField:
    """Stream function of g: half-spectrum analysis, 1/j^2, synthesis."""
    half = _analyze(g.values, basis) * basis.green_mult[:, None]
    return GridField(basis.grid, _synthesize(half, basis))


def ascent_start(seed: GridField, profile: DistributionProfile, basis: DiskBasis) -> AscentState:
    """The iterate ``seed``; ResolutionError if it lies on another grid than
    the basis, which every later step shares with it."""
    if seed.grid != basis.grid:
        raise ResolutionError(f"ascent seed on {seed.grid}, basis on {basis.grid}")
    psi = _stream_of(seed, basis)
    return AscentState(seed, energy_grid(seed, psi), 0, profile, psi)


def _transplanted(profile: DistributionProfile, onto: GridField, basis: DiskBasis):
    """The profile transplanted onto the level order of ``onto``, its stream
    function and its energy."""
    nxt = transplant(profile, onto)
    psi_next = _stream_of(nxt, basis)
    return nxt, psi_next, energy_grid(nxt, psi_next)


def burton_step(state: AscentState, basis: DiskBasis) -> AscentState:
    """One monotone transplantation of the state's profile.

    When the state carries psi_prev, the step first transplants onto the
    led order psi + lambda (psi - psi_prev) and keeps that trial if its
    energy is at least the state's (a NaN energy is not).  psi is linear in
    the iterate, so the lead is one grid axpy; a rejected trial costs a
    second transplant and stream solve.  Otherwise, or after a rejection,
    the step transplants onto psi.  From iteration 1 on the iterate lies in
    the profile's hull, and a plain step's energy drop beyond rounding
    raises; so does a non-finite energy.
    """
    rejected = state.rejected
    if state.psi_prev is not None:
        led = state.psi.values - state.psi_prev.values
        led *= _LEAD
        led += state.psi.values
        nxt, psi_next, e_next = _transplanted(state.profile, GridField(basis.grid, led), basis)
        if e_next >= state.energy:
            return AscentState(nxt, e_next, state.iteration + 1, state.profile,
                               psi_next, state.psi, rejected)
        del led, nxt, psi_next          # so the peak holds one trial at a time
        rejected += 1
    nxt, psi_next, e_next = _transplanted(state.profile, state.psi, basis)
    if not math.isfinite(e_next):       # which no comparison below would catch
        raise NonFiniteFieldError(f"ascent energy {e_next!r}")
    if state.iteration >= 1 and e_next < state.energy - 1e-12 * max(1.0, abs(state.energy)):
        raise AscentError(
            f"transplantation decreased energy: {state.energy!r} -> {e_next!r}"
        )
    return AscentState(nxt, e_next, state.iteration + 1, state.profile, psi_next,
                       state.psi, rejected)


@dataclass
class AscentResult:
    """The end of one ascent.  ``converged`` means that the 8-step stall
    rule stopped it: the energy stopped rising, not that the iterate reached
    the orbit; ``distance`` to the orbit tells that.  ``rejected`` counts the
    lead trials that fell back to the plain step, so the ascent made
    ``len(energies) - 1 + rejected`` transplants."""

    final: GridField
    energies: list
    converged: bool
    distance: float
    beta: float
    distances: list
    rejected: int


def burton_maximize(ve: VElement, seed: GridField, basis: DiskBasis,
                    max_iters=600, p=2.0, trace_distance=False) -> AscentResult:
    """Iterate burton_step from ``seed`` until the energy gain stays below
    1e-12 relative for 8 consecutive steps, or for max_iters steps.

    Elements with a dominant radial component can freeze the ascent at a
    radially arranged critical state well away from the orbit; the returned
    distance reports such stalls, it does not hide them.
    """
    target = v_element_grid(ve, basis.grid)
    profile = distribution_profile(target)
    state = ascent_start(seed, profile, basis)
    energies = [state.energy]
    distances = [orbital_distance(state.iterate, ve, p)[0]] if trace_distance else None
    stall = 0
    for _ in range(max_iters):
        state = burton_step(state, basis)
        gain = state.energy - energies[-1]
        energies.append(state.energy)
        if trace_distance:
            distances.append(orbital_distance(state.iterate, ve, p)[0])
        stall = stall + 1 if gain <= 1e-12 * max(1.0, abs(state.energy)) else 0
        if stall == 8:
            break
    dist, beta = orbital_distance(state.iterate, ve, p)
    return AscentResult(state.iterate, energies, stall == 8, dist, beta, distances,
                        state.rejected)
