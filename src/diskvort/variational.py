"""Dual variational problems and the rearrangement energy ascent.

Problem one minimizes the Dirichlet integral over unit-norm stream functions
that are constant on the boundary (constant free) with zero disk mean; its
minimum is the square of the first zero of J_1 and the minimizing space is
the steady family.  The discretization spans the zero-trace modes plus one
lifted direction ell(r) = 2 r^2 - 1 (the constant minus 2 (1 - r^2): unit
boundary value, zero mean), which is exactly the boundary-constant freedom
the constraint set allows.  The operator is block diagonal over azimuthal
mode away from n = 0, so the solver runs a guarded inverse iteration per
block and takes the smallest block minimum.

Problem two maximizes <v, G v> over unit-norm zero-mean fields by power
iteration of the mean-projected Green operator, again blockwise: the n = 0
block carries the mean constraint, all other blocks are diagonal.  The two
problems are mutually inverse (m * M = 1), both attained on the same family.

The rearrangement ascent maximizes the kinetic energy over a discrete
rearrangement class: each step transplants the seed profile monotonically
onto the level structure of the current stream function, which cannot
decrease the energy.
"""

import math
from dataclasses import dataclass, field

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
    mean_value,
    profiles_close,
    quantization_tolerance,
    single_mode,
    to_grid,
    transplant,
)
from .green_energy import energy_grid
from .steady_family import VElement, orbital_distance


@dataclass(frozen=True)
class V1Result:
    value: float
    minimizer: GridField
    boundary_constant: float
    block: tuple
    iterations: int


@dataclass(frozen=True)
class V2Result:
    value: float
    maximizer: GridField
    maximizer_spectral: SpectralField
    relation_residual: float
    block: tuple
    iterations: int


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


def _inverse_iteration(A, M, x0, max_iters=200, tol=1e-14):
    """Smallest generalized eigenpair of (A, M), both SPD, dense."""
    lu = np.linalg.inv(A)          # small dense blocks; explicit inverse is fine
    x = x0 / math.sqrt(x0 @ M @ x0)
    rho_prev = math.inf
    for it in range(1, max_iters + 1):
        x = lu @ (M @ x)
        x = x / math.sqrt(x @ M @ x)
        rho = float(x @ A @ x)
        if abs(rho - rho_prev) <= tol * max(abs(rho), 1.0):
            return rho, x, it
        rho_prev = rho
    raise RuntimeError(f"inverse iteration failed to settle in {max_iters} iterations")


def solve_v1(basis: DiskBasis, max_iters=200):
    """Minimize the Dirichlet integral over the discrete constraint space.

    Returns the minimum m, one minimizer (unit L2 norm, zero mean, constant
    boundary trace), its boundary constant, the winning (n-block, k) label
    and the iteration count of the block solve.
    """
    j2 = basis.roots**2
    best = None

    # n >= 1 blocks: the quadratic form is diagonal; the block minimum is the
    # first radial eigenvalue.  Run the iteration anyway for uniformity.
    for n in range(1, basis.n_modes + 1):
        A = np.diag(j2[n] * basis.norm2[n])
        M = np.diag(basis.norm2[n])
        x0 = np.ones(basis.k_radial)
        rho, x, it = _inverse_iteration(A, M, x0, max_iters)
        if best is None or rho < best[0]:
            best = (rho, ("cos", n), x, it)

    # n = 0 block with the lift direction and the zero-mean constraint.
    ell, mass_cross = _lift_vector(basis)
    K = basis.k_radial
    A0 = np.zeros((K + 1, K + 1))
    M0 = np.zeros((K + 1, K + 1))
    A0[:K, :K] = np.diag(j2[0] * basis.norm2[0])
    M0[:K, :K] = np.diag(basis.norm2[0])
    # grad coupling: <grad phi, grad ell> = -<phi, lap ell> = -8 <phi, 1>
    A0[:K, K] = A0[K, :K] = -8.0 * basis.mean0
    A0[K, K] = 8.0 * math.pi                    # integral of |4 r|^2
    M0[:K, K] = M0[K, :K] = mass_cross
    M0[K, K] = math.pi / 3.0                    # integral of (2 r^2 - 1)^2
    # zero-mean constraint: only the phi_0k directions carry mean.  Build an
    # orthonormal null-space basis with the Householder reflector that maps
    # the constraint vector onto the first coordinate axis.
    mean_vec = np.concatenate([basis.mean0, [0.0]])
    u = mean_vec / np.linalg.norm(mean_vec)
    v = u.copy()
    v[0] -= 1.0
    H = np.eye(K + 1) - 2.0 * np.outer(v, v) / (v @ v)
    Z = H[:, 1:]                                 # columns orthogonal to mean_vec
    Ar = Z.T @ A0 @ Z
    Mr = Z.T @ M0 @ Z
    rho0, y, it0 = _inverse_iteration(Ar, Mr, np.ones(K), max_iters)
    if rho0 < best[0]:
        x0_full = Z @ y
        best = (rho0, ("radial", 0), x0_full, it0)

    value, label, vec, iters = best
    grid = basis.grid
    if label[0] == "cos":
        n = label[1]
        k_star = int(np.argmax(np.abs(vec))) + 1
        f = single_mode(basis, n, k_star, amplitude=1.0)
        g = to_grid(f)
        norm = lp_norm(g, 2)
        minimizer = GridField(grid, g.values / norm)
        c = 0.0
    else:
        coeffs = vec[:-1]
        vals = (basis.r_eval[0] @ coeffs)[:, None] + vec[-1] * (2.0 * grid.r**2 - 1.0)[:, None]
        g = GridField(grid, np.tile(vals, (1, grid.n_theta)))
        norm = lp_norm(g, 2)
        minimizer = GridField(grid, g.values / norm)
        c = float(vec[-1] / norm)
    return V1Result(value, minimizer, c, label, iters)


def _power_block_radial(basis: DiskBasis, rng, tol=1e-12, max_iters=200000):
    """Top constrained eigenpair of G on the zero-mean radial sector."""
    mult = basis.green_mult[0]
    norm2 = basis.norm2[0]
    mean = basis.mean0
    proj_den = float((mean**2 / norm2).sum())

    def project(c):
        lam = float((c * mean).sum()) / proj_den
        return c - lam * mean / norm2

    c = project(rng.standard_normal(basis.k_radial))
    c /= math.sqrt(float((c**2 * norm2).sum()))
    rho_prev = -math.inf
    for it in range(1, max_iters + 1):
        c = project(mult * c)
        nrm = math.sqrt(float((c**2 * norm2).sum()))
        c /= nrm
        rho = float((c**2 * norm2 * mult).sum())
        if abs(rho - rho_prev) <= tol:
            return rho, c, it
        rho_prev = rho
    raise RuntimeError("power iteration failed to settle")


def solve_v2(basis: DiskBasis, seed=0, tol=1e-12):
    """Maximize <v, G v> over unit-norm zero-mean fields, blockwise power
    iteration of the mean-projected Green operator."""
    rng = np.random.default_rng(seed)
    best = None
    for n in range(1, basis.n_modes + 1):
        # diagonal block: a one-step power iteration lands on k = 1
        rho = float(basis.green_mult[n, 0])
        if best is None or rho > best[0]:
            best = (rho, ("cos", n), None, 1)
    rho0, c0, it0 = _power_block_radial(basis, rng, tol)
    if rho0 > best[0]:
        best = (rho0, ("radial", 0), c0, it0)

    value, label, vec, iters = best
    if label[0] == "cos":
        n = label[1]
        f = single_mode(basis, n, 1, amplitude=1.0)
    else:
        coeffs = np.zeros((2 * basis.n_modes + 1, basis.k_radial), complex)
        coeffs[basis.mode_row(0)] = vec
        f = SpectralField(basis, coeffs)
    g = to_grid(f)
    norm = lp_norm(g, 2)
    f = SpectralField(basis, f.coeffs / norm)
    g = GridField(basis.grid, g.values / norm)

    # residual of v = (G v - mean(G v)) / M
    gv = to_grid(SpectralField(basis, f.coeffs * basis.green_mult_pm))
    rel = GridField(basis.grid, (gv.values - mean_value(gv)) / value - g.values)
    residual = lp_norm(rel, 2)
    return V2Result(value, g, f, residual, label, iters)


# ---------------------------------------------------------------------------
# Rearrangement energy ascent


@dataclass
class AscentState:
    """One energy-ascent iterate over a fixed rearrangement profile."""

    iterate: GridField
    energy: float
    iteration: int
    profile: DistributionProfile
    psi: GridField = None

    def check_profile(self, tol=None):
        prof = distribution_profile(self.iterate)
        if tol is None:
            tol = quantization_tolerance(self.profile, self.iterate.grid)
        ok, gap = profiles_close(prof, self.profile, tol=tol)
        return ok, gap


def _stream_of(g: GridField, basis: DiskBasis) -> GridField:
    """Stream function of g: half-spectrum analysis, 1/j^2, synthesis."""
    half = _analyze(g.values, basis) * basis.green_mult[:, :, None]
    return GridField(basis.grid, _synthesize(half, basis))


def ascent_start(seed: GridField, profile: DistributionProfile, basis: DiskBasis) -> AscentState:
    psi = _stream_of(seed, basis)
    return AscentState(seed, energy_grid(seed, psi), 0, profile, psi)


def burton_step(state: AscentState, profile: DistributionProfile, basis: DiskBasis,
                slack=1e-12) -> AscentState:
    """One monotone transplantation of ``profile`` onto the current stream
    function.  Raises if the energy drops beyond the arithmetic slack."""
    psi = state.psi if state.psi is not None else _stream_of(state.iterate, basis)
    nxt = transplant(profile, psi)
    psi_next = _stream_of(nxt, basis)
    e_next = energy_grid(nxt, psi_next)
    if e_next < state.energy - slack * max(1.0, abs(state.energy)):
        raise RuntimeError(
            f"transplantation decreased energy: {state.energy!r} -> {e_next!r}"
        )
    return AscentState(nxt, e_next, state.iteration + 1, state.profile, psi_next)


@dataclass
class AscentResult:
    final: GridField
    energies: list
    converged: bool
    distance: float
    beta: float
    profile_gap: float
    distances: list = None


def burton_maximize(ve: VElement, seed: GridField, basis: DiskBasis,
                    max_iters=600, stall_steps=8, gain_tol=1e-12,
                    p=2.0, trace_distance=False) -> AscentResult:
    """Iterate burton_step from ``seed`` until the energy gain stays below
    ``gain_tol`` for ``stall_steps`` consecutive steps or max_iters.

    Steps run with a quantization-sized slack: requantizing a continuum
    maximizer that is not grid aligned can lower the energy by up to ~1e-7,
    which the stall logic treats as terminal wobble rather than a defect
    (the strict burton_step contract still catches real transplantation
    bugs, which miss by orders of magnitude more).  Elements with a dominant
    radial component can freeze the ascent at a radially arranged critical
    state well away from the orbit; the returned distance reports such
    stalls, it does not hide them.
    """
    from .steady_family import v_element_grid

    target = v_element_grid(ve, basis.grid)
    profile = distribution_profile(target)
    state = ascent_start(seed, profile, basis)
    energies = [state.energy]
    distances = [orbital_distance(state.iterate, ve, p)[0]] if trace_distance else None
    stall = 0
    converged = False
    for _ in range(max_iters):
        nxt = burton_step(state, profile, basis, slack=1e-6)
        gain = nxt.energy - state.energy
        state = nxt
        energies.append(state.energy)
        if trace_distance:
            distances.append(orbital_distance(state.iterate, ve, p)[0])
        stall = stall + 1 if gain <= gain_tol * max(1.0, abs(state.energy)) else 0
        if stall >= stall_steps:
            converged = True
            break
    dist, beta = orbital_distance(state.iterate, ve, p)
    _, gap = state.check_profile()
    return AscentResult(state.iterate, energies, converged, dist, beta, gap, distances)
