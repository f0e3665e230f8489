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

The band is the solver's only domain.  ``tendency`` and ``SolverState``
raise ResolutionError on a field with any nonzero coefficient outside it,
or on a basis of another resolution than the run's.  The experiments admit
a perturbation on the run's resolution (ResolutionError otherwise) through
``require_band_limited`` (every coefficient finite, NonFiniteFieldError
otherwise, and the moduli |c_nk| outside the band at most 1e-12 of the
largest), whose band rows join the element's band array, so every run
starts exactly in the band and the Galerkin truncation keeps it there.  The
time step is the CFL limit times a safety factor in (0, 1], refreshed every
cadence steps.

RK4 stages live on the band array of shape (nd+1, 2, kd): the rows n <= nd
and columns k < kd of the real [Re c; Im c] layout a SpectralField stores,
whose transform kernels belong to disk_spectral.  A stage is one batched
product with the band's radial operator (the columns d_r omega, d_r psi,
(1/r) psi and (1/r) omega, psi = omega / j^2 folded in), one product per DFT
table, the advection product on the subgrid as two in-place operations on
the synthesized blocks, one analysis product, one batched projection and
the mean fix, whose stream row is the n = 0 part of the trace's energy
gradient; every reshape between them is a free view, and the stage inputs
and the RK4 sum are formed in place.
``tendency`` takes a SpectralField (checked, and answered with the band
array zero padded to a SpectralField) or the stepper's unchecked band array
(answered with the band array).

A run lives on the band array from step to step: a ``SolverState`` holds
only the band array, a copy of the band rows checked once, when the state
is built from a SpectralField, the radial channel and the time;
``step_rk4`` answers with a state built from the new band array, which is
zero padded to a SpectralField only where a caller asks a state for ``w``.
``run`` returns its final state, its trace and its StepLog, and leaves the
state it was given as it was.  The CFL velocity is taken from the band
array too, by one product with the radial operator's psi columns
(``velocity_magnitude`` takes the band array only).
The trace is read from the coefficients: the energy, L^2 norm and mean are
Parseval sums plus the channel's couplings and its own integrals (built
with ``RadialBackground``), and the p = 2 orbital distance is a masked
Parseval sum when the reference's a J_0 is the channel's.  The omega grid is
synthesized only for the L^p norm and the distance at p != 2, for a
reference the sum does not cover, and for the initial and final fields.

The exact radial channel a J_0(l r) + c, ``RadialBackground``, lives in
radial_channel; ``tendency`` and ``velocity_magnitude`` take it as their one
input besides the field, and the trace and the mean fix read its coupling
constants.  The channel holds the run's basis, ``background.basis``, the
one place every stage, the CFL step and the trace read it from.  There is
one solver path: every state carries a channel and every run a reference.
A field with no channel of its own runs with the zero channel
``RadialBackground(0.0, l, basis)``, whose root l only labels it and which
adds zeros; ``steady_state`` builds the channel of every element, the Lamb
dipole (a = 0) included.
"""

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .bessel import bessel_j
from .disk_spectral import (
    DiskBasis,
    GridField,
    SpectralField,
    _band_values,
    _embed,
    _on_basis,
    _outside_band,
    _project,
    _synth,
    _synthesize,
    casimir3_drift,
    from_grid,
    lp_norm,
    random_in_span,
    ring_shuffle,
    single_mode,
    to_grid,
)
from .errors import CFLError, ConfigError, NonFiniteFieldError, ResolutionError
from .green_energy import rows_energy
from .radial_channel import RadialBackground
from .steady_family import VElement, dipole_part, orbital_distance, v_element_grid


def velocity_magnitude(y, background: RadialBackground):
    """Max |u| of the band array ``y`` on the grid of the channel's basis,
    from its two grids of psi, synthesized from the radial operator's
    adjacent psi columns in one product; u_r = (1/r) d_theta psi,
    u_theta = -d_r psi.  The root of the largest |u|^2 is the largest root
    (sqrt: monotone, correctly rounded)."""
    b = background.basis
    kit, nr = b.band_kit, b.grid.n_r
    dr_psi, dth_psi = _synth(np.matmul(y, kit["radial"][..., nr: 3 * nr]),
                             (kit["synth_r"], kit["synth_t"]))
    dr_psi += background.stream_d_r_profile[:, None]
    dr_psi *= dr_psi
    dth_psi *= dth_psi
    dr_psi += dth_psi
    return math.sqrt(dr_psi.max())


def _mean_fix(row0, y, background):
    """Remove the dealias projection's spurious disk mean from the tendency.

    The continuum advection term has exactly zero mean; the dealias cut
    breaks that discretely because the radial modes all carry disk mean.
    The defect is removed along the lowest m = min(6, kd) n = 0 modes,
    orthogonally to q, the n = 0 part of the trace's energy gradient
    W y + X_psi (the ``energy_row`` of the channel basis' band kit times y,
    plus the channel's ``stream_dual``): since dE/dt = <dy/dt, W y + X_psi>,
    that leaves the energy balance of the uncorrected scheme untouched.
    (Orthogonality to the vorticity as well is impossible at a steady state,
    where omega, psi and the constant are affinely dependent; the enstrophy
    impact is O(defect) and stays far below the L2 drift budget.)  ``row0``,
    the real n = 0 coefficients of the tendency of the band array ``y``, is
    corrected in place.
    """
    kit = background.basis.band_kit
    mean0 = kit["mean0"]
    q = kit["energy_row"] * y[0, 0, : mean0.size]
    q += background.stream_dual[: mean0.size]
    # the correction spans mean0 and q: G alpha = (defect, 0), regularized,
    # solved by Cramer's rule
    defect = float(row0.dot(kit["mean_row"]))
    g00, g01, g11 = kit["g00"], float(mean0.dot(q)), float(q.dot(q))
    reg = 1e-14 * max(g00, g11, 1e-30)
    g00, g11 = g00 + reg, g11 + reg
    scale = defect / (g00 * g11 - g01 * g01)
    row0[: mean0.size] -= scale * (g11 * mean0 - g01 * q)


def tendency(w, background: RadialBackground):
    """Right-hand side of the vorticity equation, dealiased.

    ``w`` is a SpectralField on the resolution of the channel's basis and in
    its dealias band (ResolutionError otherwise), answered with a
    SpectralField, or the stepper's band array, unchecked, answered with the
    band array.  The product is formed on the band subgrid; ``background``
    adds the exact radial channel to omega and psi, its uniform offset
    included (a bare field takes the zero channel), and holds the basis.
    The radial operator's d_r block [d_r omega; d_r psi] times its (1/r) block
    [(1/r) d_theta psi; (1/r) d_theta omega] holds both advection products.
    """
    b = background.basis
    y = _band_values(_on_basis(w, b)) if isinstance(w, SpectralField) else w
    kit = b.band_kit
    m = np.matmul(y, kit["radial"])  # (nd+1, 2, 4 n_r)
    nr = m.shape[2] // 4
    m[0, 0, : 2 * nr] += background.d_r_pair
    d_r, over_r = _synth(m, (kit["sub_synth_r"], kit["sub_synth_t"]))
    del m                   # freed before the projection's temporaries
    d_r *= over_r
    advection = d_r[nr:]
    advection -= d_r[:nr]
    band = _project(advection, kit["sub_analyze"], kit["proj"])
    _mean_fix(band[0, 0], y, background)
    return band if y is w else SpectralField(b, _embed(band, b))


@dataclass
class RunConfig:
    """Time-stepping policy and diagnostics for one run; the trace's orbital
    distance is taken to the orbit of ``reference``."""

    t_end: float
    reference: VElement
    cfl_safety: float = 0.4
    cadence: int = 10
    p: float = 2.0

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


# A run's step count and its least and largest dt (None for a run of no step)
StepLog = namedtuple("StepLog", "rk4_steps dt_min dt_max")


class SolverState:
    """Evolving vorticity at time ``t``: spectral part + exact radial channel.

    The spectral part is held only as the stepper's band array ``band``,
    built at construction from ``w``: a copy of a SpectralField's band rows
    (ResolutionError for a field on another resolution than the channel's
    basis or outside the band), or a band array, taken as it is
    (ResolutionError unless its shape is the basis's (nd+1, 2, kd)).  ``w``
    zero pads it back to a SpectralField.  ``background``, the channel, is
    required (a bare field takes the zero channel) and holds the run's basis.
    """

    def __init__(self, w, background: RadialBackground, t=0.0):
        b = background.basis
        if isinstance(w, SpectralField):
            w = _band_values(_on_basis(w, b))
        else:
            nd, kd = b.dealias_band()
            if w.shape != (nd + 1, 2, kd):
                raise ResolutionError(f"band array of shape {w.shape}, expected {(nd + 1, 2, kd)}")
        self.band = w
        self.background = background
        self.t = t

    @property
    def w(self):
        b = self.background.basis
        return SpectralField(b, _embed(self.band, b))

    def _grid_values(self, stream):
        """omega, or psi for ``stream``, with the channel, by the full-grid
        synthesis of to_grid on the zero-padded band array."""
        bg = self.background
        b = bg.basis
        half = _embed(self.band, b)
        if stream:
            half *= b.green_mult[:, None]
        values = _synthesize(half, b) + (bg.stream_profile if stream else bg.profile)[:, None]
        return GridField(b.grid, values)

    def full_grid_values(self):
        return self._grid_values(False)

    def stream_grid_values(self):
        return self._grid_values(True)


def cfl_dt(state: SolverState, safety: float) -> float:
    """safety times the advective limit pi / max j / max|u|: the resolved
    spacing of the band kit over the largest velocity."""
    umax = velocity_magnitude(state.band, state.background)
    if umax == 0.0:
        return math.inf
    return safety * state.background.basis.band_kit["spacing"] / umax


def step_rk4(state: SolverState, dt: float, check_cfl=True) -> SolverState:
    """Classical 4-stage update of the spectral part; the exact radial channel
    is static.  The stages are formed on the state's band array, and the new
    state holds the new one.  ``check_cfl`` raises CFLError for a dt above the
    advective limit at safety 1."""
    if check_cfl:
        limit = cfl_dt(state, 1.0)
        if dt > limit:
            raise CFLError(f"dt={dt:g} exceeds advective limit {limit:g}")
    y0, bg = state.band, state.background
    k1 = tendency(y0, bg)
    stage = k1 * (0.5 * dt)
    stage += y0
    k2 = tendency(stage, bg)
    np.multiply(k2, 0.5 * dt, out=stage)
    stage += y0
    k3 = tendency(stage, bg)
    np.multiply(k3, dt, out=stage)
    stage += y0
    k4 = tendency(stage, bg)
    # y0 + (dt / 6) (k1 + 2 k2 + 2 k3 + k4), summed left to right in k2
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= dt / 6.0
    k2 += y0
    return SolverState(k2, bg, state.t + dt)


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
    """The trace row of the state, from the coefficients c of its band array.

    With P the Parseval weights and X_omega, X_psi the channel's duals,
    E = (1/2) sum P |c|^2 / j^2 + <c_0, X_psi> + E_bg,
    ||omega||^2 = sum P |c|^2 + 2 <c_0, X_omega> + ||omega_bg||^2 and the
    mean is <c_0, mean0> / pi + mean_bg.  When the reference's family (n, k)
    lies in the band with n >= 1 and its a J_0 is the channel's, that part
    cancels from the state minus an orbit element, as does the uniform
    offset, so the squared p = 2 distance is the sum of P |c|^2 over every
    mode but (n, k), plus P_nk (|c_nk| - b/2)^2, at the angle
    beta* = arg c_nk - beta (0 for b = 0).  The omega grid is synthesized
    only for lp and the distance at p != 2, and for a distance to any other
    reference."""
    y, bg, ref = state.band, state.background, cfg.reference
    b = bg.basis
    nd1, _, kd = y.shape
    terms = b.parseval[:nd1, :kd] * (y * y).sum(axis=1)
    c0, e, l2sq = y[0, 0], rows_energy(b, y), float(terms.sum())
    e += float(c0 @ bg.stream_dual) + bg.energy
    l2sq += 2.0 * float(c0 @ bg.omega_dual) + bg.norm2
    mean = float(c0 @ b.mean0[:kd]) / math.pi + bg.mean
    l2 = math.sqrt(max(l2sq, 0.0))
    if not (math.isfinite(e) and math.isfinite(l2)):
        raise NonFiniteFieldError(f"non-finite state at t={state.t!r}: energy {e!r}, L2 {l2!r}")
    n, k = ref.family
    if (cfg.p == 2 and 1 <= n < nd1 and k <= kd and ref.a == bg.amplitude
            and (ref.a == 0.0 or ref.root == bg.root)):
        re, im = y[n, 0, k - 1], y[n, 1, k - 1]
        terms[n, k - 1] = b.parseval[n, k - 1] * (math.hypot(re, im) - 0.5 * ref.b) ** 2
        beta = (math.atan2(im, re) - ref.beta) % (2.0 * math.pi) if ref.b else 0.0
        return TraceRow(state.t, e, l2, l2, mean, math.sqrt(float(terms.sum())), beta)
    omega = state.full_grid_values()
    lp = l2 if cfg.p == 2 else lp_norm(omega, cfg.p)
    # a uniform offset shifts both the state and every orbit element, so it
    # cancels from the distance
    shifted = omega if bg.uniform == 0.0 else GridField(omega.grid, omega.values - bg.uniform)
    return TraceRow(state.t, e, l2, lp, mean, *orbital_distance(shifted, ref, cfg.p))


def run(state: SolverState, cfg: RunConfig):
    """Advance to cfg.t_end recording a TraceRow every cfg.cadence steps.

    Returns (final state, trace, StepLog); the trace starts with the row of
    ``state`` at its own t, and ``state`` is left as it was.  The step is the
    advective limit at cfg.cfl_safety, refreshed every cadence steps; the
    safety factor absorbs the slow velocity drift in between.
    """
    trace, dts = [_diagnose(state, cfg)], []
    dt_cfl = cfl_dt(state, cfg.cfl_safety)
    while state.t < cfg.t_end - 1e-12:
        dts.append(min(dt_cfl, cfg.t_end - state.t))
        state = step_rk4(state, dts[-1], check_cfl=False)
        if len(dts) % cfg.cadence == 0 or state.t >= cfg.t_end - 1e-12:
            trace.append(_diagnose(state, cfg))
            dt_cfl = cfl_dt(state, cfg.cfl_safety)
    return state, trace, StepLog(len(dts), min(dts, default=None), max(dts, default=None))


def turnover_time(state: SolverState) -> float:
    umax = velocity_magnitude(state.band, state.background)
    if not math.isfinite(umax):
        raise NonFiniteFieldError(f"non-finite velocity {umax!r}")
    if umax == 0.0:
        raise ConfigError("zero velocity field has no turnover time")
    return 2.0 * math.pi / umax


def steady_state(ve: VElement, basis: DiskBasis, uniform: float = 0.0) -> SolverState:
    """Solver state representing the family element ve plus the uniform
    vorticity ``uniform`` exactly; its radial channel is
    RadialBackground(ve.a, ve.root, basis, uniform), the zero channel when
    both ve.a and ``uniform`` are zero."""
    nd, kd = basis.dealias_band()
    n, k = ve.family
    if n > nd or k > kd:
        raise ResolutionError(f"family {ve.family} outside dealias band ({nd},{kd})")
    return SolverState(dipole_part(ve, basis), RadialBackground(ve.a, ve.root, basis, uniform))


def band_limit(f: SpectralField) -> SpectralField:
    c = f.coeffs.copy()
    for block in _outside_band(c, f.basis):
        block[...] = 0.0
    return SpectralField(f.basis, c)


def require_band_limited(f: SpectralField):
    """A copy of f's band rows, (nd+1, 2, kd), what lies outside the band
    dropped.  NonFiniteFieldError if a coefficient is not finite (one outside
    the band would be dropped unseen); ResolutionError if the modulus |c_nk|
    of one outside the band exceeds 1e-12 of the largest."""
    if not np.isfinite(f.coeffs).all():
        raise NonFiniteFieldError("perturbation has a non-finite coefficient")
    moduli = np.hypot(f.coeffs[:, 0], f.coeffs[:, 1])      # |c_nk|
    outside = max(float(block.max(initial=0.0)) for block in _outside_band(moduli, f.basis))
    if outside > 1e-12 * max(float(moduli.max()), 1e-300):
        raise ResolutionError("perturbation has content outside the dealias band")
    nd, kd = f.basis.dealias_band()
    return f.coeffs[: nd + 1, :, : kd].copy()


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


def _evolve_element(ve: VElement, perturbation: SpectralField | None, p, t_end,
                    turnovers, basis, uniform, cfl_safety, cadence):
    """The body of both experiments: evolve ve + uniform (+ perturbation)
    to t_end, or to ``turnovers`` turnover times when t_end is None, tracking
    the orbital L^p distance to ve.  The band rows of the perturbation, as
    require_band_limited admits them from a field on the run's resolution
    (ResolutionError otherwise), join the element's band array."""
    state = steady_state(ve, basis, uniform)
    if perturbation is not None:
        rows = require_band_limited(_on_basis(perturbation, basis))
        state = SolverState(state.band + rows, state.background)
    initial = state.full_grid_values()
    if t_end is None:
        t_end = turnovers * turnover_time(state)
    cfg = RunConfig(t_end=t_end, cfl_safety=cfl_safety, cadence=cadence,
                    p=p, reference=ve)
    state, trace, log = run(state, cfg)
    final = state.full_grid_values()
    return ExperimentResult(trace, max(r.orbital_distance for r in trace),
                            *_drifts(trace), initial, final,
                            extra={**log._asdict(),
                                   "casimir3_drift": casimir3_drift(initial, final)})


def run_stability_experiment(ve: VElement, perturbation: SpectralField | None, p: float,
                             basis: DiskBasis, t_end=None, turnovers=20.0,
                             cfl_safety=0.4, cadence=10) -> ExperimentResult:
    """Evolve ve (+ perturbation) and track the orbital L^p distance."""
    return _evolve_element(ve, perturbation, p, t_end, turnovers, basis, 0.0,
                           cfl_safety, cadence)


def run_rotating_orbit_experiment(ve: VElement, omega_rot: float,
                                  perturbation: SpectralField | None, p: float,
                                  basis: DiskBasis, t_end=None, periods=1.0,
                                  cfl_safety=0.4, cadence=10) -> ExperimentResult:
    """Evolve ve + 2*omega_rot (+ perturbation); distance is to the shifted
    orbit, and the recovered rotation rate comes from the beta*(t) slope.  An
    element with b = 0 or order n = 0 has no phase, so a rate is fitted only
    for b > 0, n >= 1 and omega_rot != 0; and n beta* is unwrapped only where
    it turns by less than pi between trace rows, n |omega_rot| max(dt) < pi,
    so rows farther apart fit no rate either.  A zero rate has no period,
    so it needs t_end (ConfigError otherwise)."""
    if t_end is None:
        if omega_rot == 0.0:
            raise ConfigError("a run at rotation rate 0 needs t_end")
        t_end = periods * 2.0 * math.pi / abs(omega_rot)
    res = _evolve_element(ve, perturbation, p, t_end, None, basis,
                          2.0 * omega_rot, cfl_safety, cadence)
    n_fold, _ = ve.family
    if ve.b > 0 and n_fold >= 1 and omega_rot != 0.0:
        ts = np.array([r.t for r in res.trace])
        if ts.size > 1 and n_fold * abs(omega_rot) * np.diff(ts).max() < math.pi:
            betas = np.unwrap(np.array([r.beta_star for r in res.trace]) * n_fold) / n_fold
            res.extra["recovered_omega"] = -np.polyfit(ts, betas, 1)[0]
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
