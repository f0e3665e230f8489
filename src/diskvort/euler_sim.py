"""Pseudo-spectral time integration of the disk vorticity equation.

The advection term in polar coordinates,

    d omega / dt = -(1/r) (d_theta psi d_r omega - d_r psi d_theta omega),

is evaluated on the collocation grid from spectral derivatives: d_theta is a
mode multiplication, d_r uses the exact radial derivatives of the Bessel
basis, and the 1/r factor is absorbed into the (1/r) d_theta combinations,
which are smooth at the origin because mode-n basis functions scale like
r^|n| there.  Products are formed pointwise and projected back with a 2/3
dealias rule in both the azimuthal and radial indices; the evolving state is
kept inside that band so the quadratic term is a clean Galerkin truncation.

For a state in the band (|n| <= nd) the product is formed on a subgrid: every
s-th angle, s the largest divisor of n_theta that leaves n_b > 3 nd angles
(32 of 128 at the default resolution).  Each factor has modes |n| <= nd, so
the product has |n| <= 2 nd, and the DFT on n_b points folds a mode q onto
m = q - j n_b, j != 0.  A kept mode |m| <= nd would need |q - m| <= 3 nd to be
a nonzero multiple of n_b > 3 nd, so no alias reaches the band, and its
projection is exact, as on the full grid.  The CFL velocity max|u| is still
taken on the full grid, which the subgrid would under-sample.

The band is the solver's only domain.  ``tendency`` and
``velocity_magnitude`` raise ResolutionError on a field with any nonzero
coefficient outside it.  The experiments admit a perturbation through
``require_band_limited`` (coefficients outside the band at most 1e-12 of the
largest) and zero that residue with ``band_limit``, so every run starts
exactly in the band and the Galerkin truncation keeps it there.  The time
step is the CFL limit times a safety factor in (0, 1], refreshed every
cadence steps.

RK4 stages live on the real band array [Re c, Im c] of shape (nd+1, kd, 2),
whose layout and transform kernels belong to disk_spectral.  ``tendency``
takes a SpectralField (checked and answered in kind) or the stepper's
unchecked in-band carrier (answered with the band array).

One exact radial channel, ``RadialBackground``, extends the zero-trace
basis with the vorticity a J_0(l r) + c.  Both parts are exact radial
solutions with closed-form stream functions:

* a J_0(l r), the non-eigenfunction component of the steady family, has
  stream function a (J_0(l r) - J_0(l)) / l^2, so steady family elements are
  steady to rounding, which a truncated projection of J_0(l r) could never
  achieve;
* a uniform offset c (c = 2 Omega in the rotating-state experiments) has
  stream function c (1 - r^2) / 4.  Its -c r / 2 in d_r psi turns the band
  product d_r psi (1/r) d_theta omega into the rigid advection
  -Omega d_theta omega, which is exact on the band.
"""

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .bessel import _j_neighbours, bessel_j
from .disk_spectral import (
    DiskBasis,
    GridField,
    SpectralField,
    _band_values,
    _embed,
    _outside_band,
    _project,
    _synth,
    distribution_profile,
    from_grid,
    lp_norm,
    mean_value,
    profiles_close,
    random_in_span,
    ring_shuffle,
    single_mode,
    to_grid,
)
from .errors import CFLError, ConfigError, NonFiniteFieldError, ResolutionError
from .green_energy import energy_grid
from .steady_family import VElement, dipole_part, orbital_distance, v_element_grid


# the lowest n = 0 radial modes that carry the mean fix
_MEAN_FIX_MODES = 6


@dataclass(frozen=True)
class RadialBackground:
    """The exact radial channel: vorticity amplitude * J_0(root r) + uniform.

    Its run constants are built at construction, with a = amplitude and
    c = uniform, from one recurrence that gives J_0 and J_1 on the radii of
    ``basis.grid`` and J_0(root): the vorticity profile a J_0(root r) + c,
    the stream profile a (J_0(root r) - J_0(root)) / root^2 + c (1 - r^2) / 4,
    their radial derivatives, and ``stream_row``, the first _MEAN_FIX_MODES
    n = 0 coefficients of the stream profile that _mean_fix needs, projected
    by the basis' own analysis operator.  Callers add a profile to a grid by
    broadcasting it over the angles.
    """

    amplitude: float
    root: float
    basis: DiskBasis = field(repr=False)
    uniform: float = 0.0
    profile: np.ndarray = field(init=False, repr=False, compare=False)
    stream_profile: np.ndarray = field(init=False, repr=False, compare=False)
    d_r_profile: np.ndarray = field(init=False, repr=False, compare=False)
    stream_d_r_profile: np.ndarray = field(init=False, repr=False, compare=False)
    stream_row: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, c, root, r = self.amplitude, self.uniform, self.root, self.basis.grid.r
        j0, j1, _ = _j_neighbours(1, np.append(root * r, root))
        j0_root, j0_profile, j1_profile = j0[-1], j0[:-1], j1[:-1]
        stream = a * (j0_profile - j0_root) / root**2 + c * (1.0 - r**2) / 4.0
        for name, value in (
                ("profile", a * j0_profile + c),
                ("stream_profile", stream),
                ("d_r_profile", -a * root * j1_profile),
                ("stream_d_r_profile", -a * j1_profile / root - 0.5 * c * r),
                ("stream_row", self.basis.analysis[0, :_MEAN_FIX_MODES] @ stream)):
            object.__setattr__(self, name, value)


# The stepper's in-band state: the basis and the real band array, built only
# from a state that passed the band check.
_Band = namedtuple("_Band", "basis values")


def _band_grids(cv, kit, synth_r, synth_t, background=None):
    """(d_r omega, (1/r) d_theta omega, d_r psi, (1/r) d_theta psi) of the band
    array cv = [Re c, Im c] on the angles of the synthesis tables.
    ``background`` adds its radial profiles to the n = 0 column."""
    x = np.concatenate([cv, cv * kit["mult"][..., None]], axis=2)  # omega, psi
    m = np.matmul(kit["radial"], x)         # (nd+1, 2 n_r, 4): d_r above 1/r rows
    if background is not None:
        nr = m.shape[1] // 2
        m[0, :nr, 0] += background.d_r_profile
        m[0, :nr, 2] += background.stream_d_r_profile
    return _synth(m, (synth_r, synth_t))


def velocity_magnitude(w: SpectralField, background=None):
    """Max |u| on the grid from the two grids of psi alone;
    u_r = (1/r) d_theta psi, u_theta = -d_r psi."""
    kit = w.basis.band_kit
    psi = _band_values(w) * kit["mult"][..., None]
    dr_psi, dth_psi = _synth(np.matmul(kit["radial"], psi), (kit["synth_r"], kit["synth_t"]))
    if background is not None:
        dr_psi = dr_psi + background.stream_d_r_profile[:, None]
    return float(np.sqrt(dr_psi**2 + dth_psi**2).max())


def _mean_fix(row0, y: _Band, background):
    """Remove the dealias projection's spurious disk mean from the tendency.

    The continuum advection term has exactly zero mean; the dealias cut
    breaks that discretely because the radial modes all carry disk mean.
    The defect is removed along a combination of the lowest radial modes
    constrained to be L2-orthogonal to the current total stream function:
    since dE/dt = <dw/dt, psi>, that hard constraint leaves the energy
    balance of the uncorrected scheme untouched.  (Orthogonality to the
    vorticity as well is impossible at a steady state, where omega, psi and
    the constant are affinely dependent; the enstrophy impact is O(defect)
    and stays far below the L2 drift budget.)

    ``row0`` holds the real n = 0 coefficients k = 1, 2, ... of the tendency
    of the state ``y`` and is corrected in place.
    """
    b = y.basis
    m = _MEAN_FIX_MODES
    defect = float(row0 @ b.mean0[: row0.size])
    psi = y.values[0, :m, 0] * b.green_mult[0, :m]
    if background is not None:
        psi = psi + background.stream_row
    # the correction spans mean0 and psi weighted by norm2; its 2 x 2 Gram
    # system G alpha = (defect, 0), regularized, solved by Cramer's rule
    mean0, q = b.mean0[:m], psi * b.norm2[0, :m]
    g00, g01, g11 = mean0 @ mean0, mean0 @ q, q @ q
    reg = 1e-14 * max(g00, g11, 1e-30)
    g00, g11 = g00 + reg, g11 + reg
    scale = defect / (g00 * g11 - g01 * g01)
    row0[:m] -= scale * (g11 * mean0 - g01 * q)


def tendency(w: SpectralField | _Band, background: RadialBackground | None = None):
    """Right-hand side of the vorticity equation, dealiased.

    ``w`` is a SpectralField in the dealias band (ResolutionError otherwise),
    answered with a SpectralField, or the stepper's ``_Band``, answered with
    the band array.  The product is formed on the band subgrid; ``background``
    adds the exact radial channel to omega and psi, its uniform offset included.
    """
    y = w if isinstance(w, _Band) else _Band(w.basis, _band_values(w))
    kit = y.basis.band_kit
    dr_om, dth_om, dr_psi, dth_psi = _band_grids(y.values, kit, kit["sub_synth_r"],
                                                 kit["sub_synth_t"], background)
    band = _project(dr_psi * dth_om - dth_psi * dr_om, kit["sub_analyze"], kit["proj"])
    _mean_fix(band[0, :, 0], y, background)
    return band if y is w else SpectralField(y.basis, _embed(band, y.basis))


@dataclass
class RunConfig:
    """Time-stepping policy and diagnostics for one run."""

    t_end: float
    cfl_safety: float = 0.4
    cadence: int = 10
    p: float = 2.0
    reference: VElement | None = None

    def __post_init__(self):
        # each check is written so that NaN fails it: a NaN t_end would end
        # the run after its first row, as if it had passed
        if not (self.t_end > 0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be finite and positive, got {self.t_end}")
        # a zero limit would step by dt = 0 forever, a negative one
        # backwards, and one above 1 over the advective limit
        if not 0 < self.cfl_safety <= 1:
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")
        if not (isinstance(self.cadence, numbers.Integral) and self.cadence >= 1):
            raise ValueError(f"cadence must be an integer >= 1, got {self.cadence!r}")


@dataclass
class SolverState:
    """Evolving vorticity: spectral part + exact radial channel + diagnostics."""

    w: SpectralField
    background: RadialBackground | None = None
    t: float = 0.0
    diagnostics: list = field(default_factory=list)

    def _grid_values(self):
        """(omega, psi) grids with the channel, from one band synthesis."""
        b, bg = self.w.basis, self.background
        kit = b.band_kit
        cv = _band_values(self.w)
        x = np.concatenate([cv, cv * kit["mult"][..., None]], axis=2)
        m = np.matmul(b.r_eval[: kit["nd"] + 1, :, : kit["kd"]], x)
        omega, psi = _synth(m, (kit["synth_r"],))
        if bg is not None:
            omega = omega + bg.profile[:, None]
            psi = psi + bg.stream_profile[:, None]
        return GridField(b.grid, omega), GridField(b.grid, psi)

    def full_grid_values(self):
        return self._grid_values()[0]

    def stream_grid_values(self):
        return self._grid_values()[1]


def resolved_spacing(basis: DiskBasis) -> float:
    """Half wavelength of the finest retained basis oscillation.

    The Gauss-Legendre node clustering near r = 0 and r = 1 is a quadrature
    artifact, not a stability constraint for the Galerkin evaluation, so the
    advective limit uses the resolved scale pi / max j instead.
    """
    nd, kd = basis.dealias_band()
    return math.pi / basis.roots[: nd + 1, :kd].max()


def cfl_dt(state: SolverState, safety: float) -> float:
    umax = velocity_magnitude(state.w, state.background)
    if umax == 0.0:
        return math.inf
    return safety * resolved_spacing(state.w.basis) / umax


def step_rk4(state: SolverState, dt: float, check_cfl=True) -> SolverState:
    """Classical 4-stage update of the spectral part; the exact radial channel
    is static.  The state is checked against the band once, and the stages
    are formed on its real band array.  ``check_cfl`` raises CFLError for a
    dt above the advective limit at safety 1."""
    if check_cfl:
        limit = cfl_dt(state, 1.0)
        if dt > limit:
            raise CFLError(f"dt={dt:g} exceeds advective limit {limit:g}")
    b, bg = state.w.basis, state.background
    y0 = _band_values(state.w)
    k1 = tendency(_Band(b, y0), bg)
    k2 = tendency(_Band(b, y0 + 0.5 * dt * k1), bg)
    k3 = tendency(_Band(b, y0 + 0.5 * dt * k2), bg)
    k4 = tendency(_Band(b, y0 + dt * k3), bg)
    y = y0 + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return replace(state, w=SpectralField(b, _embed(y, b)), t=state.t + dt)


@dataclass(frozen=True)
class TraceRow:
    t: float
    energy: float
    l2: float
    lp: float
    mean: float
    orbital_distance: float
    beta_star: float


def _diagnose(state: SolverState, cfg: RunConfig) -> TraceRow:
    omega, psi = state._grid_values()
    e = energy_grid(omega, psi)
    l2 = lp_norm(omega, 2)
    lp = l2 if cfg.p == 2 else lp_norm(omega, cfg.p)
    if not (math.isfinite(e) and math.isfinite(l2)):
        raise NonFiniteFieldError(f"non-finite state at t={state.t!r}: energy {e!r}, L2 {l2!r}")
    mean = mean_value(omega)
    dist, beta = math.nan, math.nan
    # a uniform offset shifts both the state and every orbit element, so it
    # cancels from the distance
    uniform = state.background.uniform if state.background is not None else 0.0
    shifted = omega if uniform == 0.0 else GridField(omega.grid, omega.values - uniform)
    if cfg.reference is not None:
        dist, beta = orbital_distance(shifted, cfg.reference, cfg.p)
    return TraceRow(state.t, e, l2, lp, mean, dist, beta)


def run(state: SolverState, cfg: RunConfig):
    """Advance to cfg.t_end recording a TraceRow every cfg.cadence steps.

    The step is the advective limit at cfg.cfl_safety, refreshed every
    cadence steps; the safety factor absorbs the slow velocity drift in
    between.
    """
    state.diagnostics.append(_diagnose(state, cfg))
    steps = 0
    dt_cfl = cfl_dt(state, cfg.cfl_safety)
    while state.t < cfg.t_end - 1e-12:
        state = step_rk4(state, min(dt_cfl, cfg.t_end - state.t), check_cfl=False)
        steps += 1
        if steps % cfg.cadence == 0 or state.t >= cfg.t_end - 1e-12:
            state.diagnostics.append(_diagnose(state, cfg))
            dt_cfl = cfl_dt(state, cfg.cfl_safety)
    return state


def turnover_time(state: SolverState) -> float:
    umax = velocity_magnitude(state.w, state.background)
    if not math.isfinite(umax):
        raise NonFiniteFieldError(f"non-finite velocity {umax!r}")
    if umax == 0.0:
        raise ConfigError("zero velocity field has no turnover time")
    return 2.0 * math.pi / umax


def steady_state(ve: VElement, basis: DiskBasis, uniform: float = 0.0) -> SolverState:
    """Solver state representing the family element ve plus the uniform
    vorticity ``uniform`` exactly; its radial channel is None only when
    both ve.a and ``uniform`` are zero."""
    nd, kd = basis.dealias_band()
    n, k = ve.family
    if n > nd or k > kd:
        raise ResolutionError(f"family {ve.family} outside dealias band ({nd},{kd})")
    bg = RadialBackground(ve.a, ve.root, basis, uniform) if ve.a or uniform else None
    return SolverState(w=dipole_part(ve, basis), background=bg)


def band_limit(f: SpectralField) -> SpectralField:
    c = f.coeffs.copy()
    for block in _outside_band(c, f.basis):
        block[...] = 0.0
    return SpectralField(f.basis, c)


def require_band_limited(f: SpectralField):
    """ResolutionError if a coefficient outside the band exceeds 1e-12 of the largest."""
    outside = max(float(np.abs(block).max(initial=0.0))
                  for block in _outside_band(f.coeffs, f.basis))
    scale = max(float(np.abs(f.coeffs).max()), 1e-300)
    if outside > 1e-12 * scale:
        raise ResolutionError("perturbation has content outside the dealias band")


# ---------------------------------------------------------------------------
# Experiments


@dataclass
class ExperimentResult:
    trace: list
    max_distance: float
    energy_drift: float
    l2_drift: float
    lp_drift: float
    mean_drift: float
    initial_field: GridField
    final_field: GridField
    extra: dict = field(default_factory=dict)


def _drifts(trace):
    e0, l20, lp0 = trace[0].energy, trace[0].l2, trace[0].lp
    e_drift = max(abs(r.energy - e0) for r in trace) / max(abs(e0), 1e-300)
    l2_drift = max(abs(r.l2 - l20) for r in trace) / max(l20, 1e-300)
    lp_drift = max(abs(r.lp - lp0) for r in trace) / max(lp0, 1e-300)
    mean_drift = max(abs(r.mean - trace[0].mean) for r in trace)
    return e_drift, l2_drift, lp_drift, mean_drift


def _profile_drift(initial: GridField, final: GridField) -> float:
    """Sup difference of the resampled distribution profiles over the range.

    The flow conserves the distribution function exactly; the spectral
    truncation only approximately, so this is reported as a fidelity metric
    rather than asserted.
    """
    p0 = distribution_profile(initial)
    p1 = distribution_profile(final)
    _, gap = profiles_close(p0, p1, tol=math.inf)
    return gap / max(p0.value_range(), 1e-300)


def _evolve_element(ve: VElement, perturbation: SpectralField | None, p, t_end,
                    turnovers, basis, uniform, cfl_safety, cadence):
    """The body of both experiments: evolve ve + uniform (+ perturbation)
    to t_end, or to ``turnovers`` turnover times when t_end is None, tracking
    the orbital L^p distance to ve.  The perturbation is admitted by
    require_band_limited and enters as its band_limit.  Without a basis the
    perturbation's is used, and ValueError is raised when there is none."""
    if basis is None:
        if perturbation is None:
            raise ValueError("need a basis when no perturbation is given")
        basis = perturbation.basis
    state = steady_state(ve, basis, uniform)
    if perturbation is not None:
        require_band_limited(perturbation)
        state.w = SpectralField(basis, state.w.coeffs + band_limit(perturbation).coeffs)
    initial = state.full_grid_values()
    if t_end is None:
        t_end = turnovers * turnover_time(state)
    cfg = RunConfig(t_end=t_end, cfl_safety=cfl_safety, cadence=cadence,
                    p=p, reference=ve)
    state = run(state, cfg)
    trace = state.diagnostics
    return ExperimentResult(trace, max(r.orbital_distance for r in trace),
                            *_drifts(trace), initial, state.full_grid_values())


def run_stability_experiment(ve: VElement, perturbation: SpectralField | None, p: float,
                             t_end=None, turnovers=20.0, basis=None,
                             cfl_safety=0.4, cadence=10) -> ExperimentResult:
    """Evolve ve (+ perturbation) and track the orbital L^p distance."""
    res = _evolve_element(ve, perturbation, p, t_end, turnovers, basis, 0.0,
                          cfl_safety, cadence)
    res.extra["profile_drift"] = _profile_drift(res.initial_field, res.final_field)
    return res


def run_rotating_orbit_experiment(ve: VElement, omega_rot: float,
                                  perturbation: SpectralField | None, p: float,
                                  t_end=None, periods=1.0, basis=None,
                                  cfl_safety=0.4, cadence=10) -> ExperimentResult:
    """Evolve ve + 2*omega_rot (+ perturbation); distance is to the shifted
    orbit, and the recovered rotation rate comes from the beta*(t) slope."""
    if t_end is None and omega_rot != 0.0:
        t_end = periods * 2.0 * math.pi / abs(omega_rot)
    res = _evolve_element(ve, perturbation, p, t_end, 20.0, basis,
                          2.0 * omega_rot, cfl_safety, cadence)
    if ve.b > 0 and omega_rot != 0.0:
        ts = np.array([r.t for r in res.trace])
        n_fold, _ = ve.family
        betas = np.unwrap(np.array([r.beta_star for r in res.trace]) * n_fold) / n_fold
        slope = np.polyfit(ts, betas, 1)[0]
        res.extra["recovered_omega"] = -slope
    return res


@dataclass(frozen=True)
class SteadyReport:
    functional_residual: float
    tendency_rel: float


def verify_steady(ve: VElement, basis: DiskBasis) -> SteadyReport:
    """Check the affine stream-function relationship and the Euler tendency.

    Both take the solver's steady state: the relationship
    omega = l^2 G omega + a J_0(l) is evaluated on the grid with its stream
    function (the spectral G on the cos component, the closed form on the
    radial channel), and the tendency is the solver's right-hand side.
    """
    lam = ve.root
    omega = v_element_grid(ve, basis.grid)
    state = steady_state(ve, basis)
    rhs = lam**2 * state.stream_grid_values().values + ve.a * bessel_j(0, lam)
    functional = float(np.max(np.abs(omega.values - rhs)))

    t = tendency(state.w, state.background)
    tnorm = lp_norm(to_grid(t), 2)
    onorm = lp_norm(omega, 2)
    return SteadyReport(functional, tnorm / max(onorm, 1e-300))


def mixed_nonsteady_field(basis: DiskBasis) -> SpectralField:
    """J_1(j r) cos theta + J_0(j_{0,1} r): two different eigenvalues mixed,
    hence not steady; used as the control case for departure detection."""
    f1 = single_mode(basis, 1, 1)
    f0 = single_mode(basis, 0, 1)
    return SpectralField(basis, f1.coeffs + f0.coeffs)


# ---------------------------------------------------------------------------
# Perturbation builders


def make_perturbation(kind: str, ve: VElement, delta: float, p: float,
                      basis: DiskBasis, rng, mode=(2, 1)) -> SpectralField:
    """Band-limited perturbation of L^p size delta.

    random-shuffle: band-limited projection of a ring-permutation increment
    of the element (the raw shuffle is not band limited, which the evolution
    requires, so it is projected and rescaled);
    mode-injection: a single spectral mode;
    smooth-random: low-mode random field.
    """
    if kind == "mode-injection":
        n, k = mode
        f = single_mode(basis, n, k, amplitude=1.0, phase=float(rng.uniform(0, 2 * math.pi)))
    elif kind == "smooth-random":
        f = random_in_span(basis, rng, n_cut=min(5, basis.dealias_band()[0]),
                           k_cut=min(6, basis.dealias_band()[1]))
    elif kind == "random-shuffle":
        g = v_element_grid(ve, basis.grid)
        shuffled = ring_shuffle(g, rng)
        incr = GridField(basis.grid, shuffled.values - g.values)
        f = from_grid(incr, basis)
    else:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    f = band_limit(f)
    size = lp_norm(to_grid(f), p)
    if size == 0.0:
        raise ConfigError("degenerate zero perturbation")
    return SpectralField(basis, f.coeffs * (delta / size))
