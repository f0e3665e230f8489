import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from diskvort import bessel
from diskvort import disk_spectral as ds
from diskvort import euler_sim as es
from diskvort import steady_family as sf
from diskvort import variational as vr
from diskvort.bessel import _j_neighbours, bessel_j, bessel_j_prime
from diskvort.errors import CFLError, ConfigError, NonFiniteFieldError, ResolutionError
from diskvort.green_energy import energy_grid
from complex_layout import as_complex, as_rows
from green_oracle import apply_green, apply_green_kernel


def fd_theta(v, n_theta):
    dth = 2 * math.pi / n_theta
    return (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2 * dth)


def fd_r(v, r):
    out = np.empty_like(v)
    for i in range(len(r)):
        if i == 0:
            idx = [0, 1, 2]
        elif i == len(r) - 1:
            idx = [len(r) - 3, len(r) - 2, len(r) - 1]
        else:
            idx = [i - 1, i, i + 1]
        x0, x1, x2 = r[idx]
        xi = r[i]
        d0 = (2 * xi - x1 - x2) / ((x0 - x1) * (x0 - x2))
        d1 = (2 * xi - x0 - x2) / ((x1 - x0) * (x1 - x2))
        d2 = (2 * xi - x0 - x1) / ((x2 - x0) * (x2 - x1))
        out[i] = d0 * v[idx[0]] + d1 * v[idx[1]] + d2 * v[idx[2]]
    return out


def _bare(basis):
    """The zero channel that a bare field runs with; its root only labels it."""
    return es.RadialBackground(0.0, sf.j_11(), basis)


def test_steady_tendency_all_elements(basis):
    for ve in [sf.VElement(0.0, 1.0, 0.0), sf.VElement(1.0, 0.0, 0.0),
               sf.VElement(0.7, 0.9, 1.1), sf.VElement(-0.5, 0.8, 2.2),
               sf.VElement(0.4, 0.6, 0.3, family=(2, 1)),
               sf.VElement(0.3, 0.5, 1.0, family=(1, 2))]:
        state = es.steady_state(ve, basis)
        t = es.tendency(state.w, state.background)
        tnorm = ds.lp_norm(ds.to_grid(t), 2)
        onorm = ds.lp_norm(sf.v_element_grid(ve, basis.grid), 2)
        assert tnorm <= 1e-6 * onorm, (ve, tnorm / onorm)


def test_radial_tendency_vanishes(basis):
    f = ds.single_mode(basis, 0, 2, 1.3)
    assert np.abs(as_complex(es.tendency(f, _bare(basis)).coeffs)).max() <= 1e-12


def test_tendency_matches_kernel_fd_oracle(basis):
    # independent oracle: stream function by kernel quadrature, derivatives
    # by grid finite differences; agreement is O(h^2)
    grid = basis.grid
    eps = 0.05
    f = ds.SpectralField(
        basis,
        ds.single_mode(basis, 1, 1, 1.0).coeffs + eps * ds.single_mode(basis, 2, 1, 1.0).coeffs,
    )
    t_spec = ds.to_grid(es.tendency(f, _bare(basis))).values
    om = ds.to_grid(f)
    psi = apply_green_kernel(om)
    oracle = -(
        fd_theta(psi.values, grid.n_theta) * fd_r(om.values, grid.r)
        - fd_r(psi.values, grid.r) * fd_theta(om.values, grid.n_theta)
    ) / grid.r[:, None]
    mask = (grid.r >= 0.1) & (grid.r <= 0.9)
    scale = np.abs(t_spec[mask]).max()
    assert np.abs(t_spec - oracle)[mask].max() < 0.05 * scale

    # the tendency is O(eps): halving eps halves it
    f2 = ds.SpectralField(
        basis,
        ds.single_mode(basis, 1, 1, 1.0).coeffs + 0.5 * eps * ds.single_mode(basis, 2, 1, 1.0).coeffs,
    )
    t2 = ds.to_grid(es.tendency(f2, _bare(basis))).values
    ratio = np.abs(t_spec[mask]).max() / np.abs(t2[mask]).max()
    assert abs(ratio - 2.0) < 0.05


def test_rk4_order(basis):
    mix = es.mixed_nonsteady_field(basis)
    st = es.SolverState(w=mix, background=_bare(basis))
    ref = st
    for _ in range(8):
        ref = es.step_rk4(ref, 0.05 / 8, check_cfl=False)
    one = es.step_rk4(st, 0.05, check_cfl=False)
    half = es.step_rk4(es.step_rk4(st, 0.025, check_cfl=False), 0.025, check_cfl=False)
    e1 = np.abs(as_complex(one.w.coeffs - ref.w.coeffs)).max()
    e2 = np.abs(as_complex(half.w.coeffs - ref.w.coeffs)).max()
    assert 12.0 < e1 / e2 < 20.0


def test_steady_state_under_steps(basis):
    ve = sf.VElement(0.5, 1.0, 0.7)
    state = es.steady_state(ve, basis)
    w0 = state.w.coeffs.copy()
    for _ in range(100):
        state = es.step_rk4(state, 0.05, check_cfl=False)
    drift = np.abs(as_complex(state.w.coeffs - w0)).max()
    assert drift <= 1e-10


def test_cfl_violation_raises(basis):
    ve = sf.VElement(0.5, 1.0, 0.7)
    state = es.steady_state(ve, basis)
    with pytest.raises(CFLError):
        es.step_rk4(state, 1e3)


def test_rotation_covariance(basis, rng):
    # evolving then rotating equals rotating then evolving
    pert = es.make_perturbation("smooth-random", sf.VElement(0.0, 1.0, 0.0), 0.05, 2.0, basis, rng)
    st_a = es.SolverState(w=pert, background=_bare(basis))
    st_b = es.SolverState(w=ds.rotate(pert, 0.9), background=_bare(basis))
    for _ in range(10):
        st_a = es.step_rk4(st_a, 0.05, check_cfl=False)
        st_b = es.step_rk4(st_b, 0.05, check_cfl=False)
    rotated_after = ds.rotate(st_a.w, 0.9)
    assert np.abs(as_complex(rotated_after.coeffs - st_b.w.coeffs)).max() < 1e-10


def test_conservation_short_run(basis, rng):
    ve = sf.VElement(0.5, 1.0, 0.7)
    pert = es.make_perturbation("smooth-random", ve, 1e-3, 2.0, basis, rng)
    res = es.run_stability_experiment(ve, pert, 2.0, turnovers=0.5, basis=basis)
    assert res.energy_drift <= 1e-7
    assert res.l2_drift <= 1e-5
    assert res.mean_drift <= 1e-10
    assert res.max_distance <= 10 * 1e-3


def test_rotating_run_zero_perturbation(basis):
    ve = sf.VElement(0.4, 1.0, 0.7)
    res = es.run_rotating_orbit_experiment(ve, 0.3, None, 2.0, basis=basis, periods=0.5)
    assert res.max_distance <= 1e-6
    assert abs(res.extra["recovered_omega"] - 0.3) <= 0.01 * 0.3


def test_rotating_run_fits_no_rate_without_a_phase():
    # b = 0 and order n = 0 leave beta* without meaning; at n = 0 the fit
    # divided by n ("invalid value encountered in divide")
    small = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    for ve in (sf.VElement(0.5, 0.0), sf.VElement(0.3, 0.5, 0.0, family=(0, 2))):
        res = es.run_rotating_orbit_experiment(ve, 0.3, None, 2.0, basis=small, t_end=0.5)
        assert "recovered_omega" not in res.extra and res.max_distance <= 1e-6


def test_rotating_run_fits_no_rate_from_rows_too_far_apart():
    # rotate-demo --seed 3 on 6 x 10 modes and a 24 x 32 grid: at cadence 100
    # n beta* turns by 1.23 pi between trace rows, and the unwrapped fit read
    # a rate of -0.0175 for 0.3; at cadence 30, 0.37 pi, it recovers 0.30013
    small = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    ve = sf.VElement(0.0, 1.0, 0.0)
    delta = 1e-3 * ds.lp_norm(sf.v_element_grid(ve, small.grid), 2.0)
    pert = es.make_perturbation("smooth-random", ve, delta, 2.0, small,
                                np.random.default_rng(3))
    coarse, fine = (es.run_rotating_orbit_experiment(ve, 0.3, pert, 2.0, basis=small,
                                                     cadence=cadence)
                    for cadence in (100, 30))
    assert "recovered_omega" not in coarse.extra
    assert abs(fine.extra["recovered_omega"] - 0.3) <= 0.01 * 0.3


@pytest.mark.parametrize("small", [False, True], ids=["default", "6x10"])
def test_casimir3_drift_reads_rounding_under_exact_rotations(basis, small):
    # an exact spectral rotation keeps the distribution function, and the
    # angular sum of omega^3 is exact on the grid, so the reading is rounding
    b = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32)) if small else basis
    for a in (0.0, 0.5):
        ve = sf.VElement(a, 1.0, 0.7)
        pert = es.make_perturbation("smooth-random", ve, 1e-3, 2.0, b,
                                    np.random.default_rng(3))
        for c in (0.0, 0.6):
            steady = es.steady_state(ve, b, c)
            w = ds.SpectralField(b, steady.w.coeffs + pert.coeffs)
            initial = es.SolverState(w, steady.background).full_grid_values()
            for angle in (1e-3, 0.01, 2 * math.pi / 256, 0.3, 1.0):
                turned = es.SolverState(ds.rotate(w, angle), steady.background)
                assert ds.casimir3_drift(initial, turned.full_grid_values()) <= 1e-14
            # the perturbation itself reads far above rounding
            assert ds.casimir3_drift(initial, steady.full_grid_values()) > 1e-8


def test_rotating_run_omega_zero_matches_stability(basis, rng):
    ve = sf.VElement(0.3, 1.0, 0.2)
    pert = es.make_perturbation("mode-injection", ve, 1e-4, 2.0, basis,
                                np.random.default_rng(3))
    a = es.run_stability_experiment(ve, pert, 2.0, t_end=2.0, basis=basis)
    b = es.run_rotating_orbit_experiment(ve, 0.0, pert, 2.0, t_end=2.0, basis=basis)
    for ra, rb in zip(a.trace, b.trace):
        assert abs(ra.energy - rb.energy) < 1e-14
        assert abs(ra.orbital_distance - rb.orbital_distance) < 1e-12


def test_rotating_run_at_rate_zero_needs_t_end(monkeypatch):
    # a zero rate has no period, so without t_end the run is refused before
    # its first step rather than run for some other horizon
    def no_step(*args, **kwargs):
        raise AssertionError("stepped")

    monkeypatch.setattr(es, "step_rk4", no_step)
    b = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    with pytest.raises(ConfigError, match="t_end"):
        es.run_rotating_orbit_experiment(sf.VElement(0.3, 1.0), 0.0, None, 2.0, basis=b,
                                         periods=0.01)


# (t, energy, l2, lp, mean, orbital_distance, beta_star) of a quarter period
# at Omega = 0.3, recorded when the offset entered as the spectral rigid term
# -Omega i n w with its own stream function added to the diagnostics
_ROTATING_REFERENCE = [
    (0.0, 0.10270424679519932, 1.2106843706942012, 1.2106843706942012, 0.5997856405740338, 0.00099171845853456, 6.282930767612223),
    (0.38669166607412414, 0.10270424679519041, 1.2106843706764423, 1.2106843706764423, 0.5997856405740338, 0.0009886518841813086, 6.166950158271602),
    (0.7733962335837146, 0.10270424679520072, 1.2106843706841073, 1.2106843706841073, 0.5997856405740338, 0.000985442625779583, 6.050966776416897),
    (1.160110446993054, 0.10270424679523166, 1.210684370718916, 1.210684370718916, 0.5997856405740338, 0.0009821308038310819, 5.934981716697325),
    (1.546812105731032, 0.10270424679528747, 1.2106843707861312, 1.2106843707861312, 0.5997856405740339, 0.0009787584417935294, 5.81900173077128),
    (1.9335314784991038, 0.10270424679537302, 1.2106843708916408, 1.2106843708916408, 0.5997856405740337, 0.000975367460497105, 5.703017808891927),
    (2.32024653662761, 0.10270424679549342, 1.2106843710417128, 1.2106843710417128, 0.5997856405740338, 0.000971999276552069, 5.587036601257748),
    (2.706953204354458, 0.10270424679565514, 1.2106843712442201, 1.2106843712442201, 0.5997856405740338, 0.0009686929502578656, 5.471059347797013),
    (3.09368134933601, 0.10270424679586333, 1.2106843715055025, 1.2106843715055025, 0.5997856405740338, 0.0009654839445832948, 5.355077082575814),
    (3.480391000849294, 0.10270424679612075, 1.2106843718288198, 1.2106843718288198, 0.5997856405740338, 0.0009624040433890538, 5.239101759242866),
    (3.867095774474085, 0.1027042467964879, 1.2106843722859197, 1.2106843722859197, 0.5997856405740338, 0.0009594794229122807, 5.123129236787776),
    (4.253824069146625, 0.1027042467972277, 1.2106843731907686, 1.2106843731907686, 0.5997856405740338, 0.0009567302176708389, 5.0071509203381),
    (4.640521248565157, 0.10270424679853572, 1.2106843747823692, 1.2106843747823692, 0.5997856405740339, 0.00095417227615754, 4.89118310043536),
    (5.027217492675919, 0.10270424679930519, 1.210684375754371, 1.210684375754371, 0.5997856405740338, 0.000951820704622171, 4.7752166191418),
    (5.235987755982989, 0.10270424679848435, 1.2106843748173894, 1.2106843748173894, 0.5997856405740339, 0.0009506431420624814, 4.712608826027383),
]


def test_rotating_run_matches_reference(basis):
    # the offset carried by the channel reproduces the lab-frame run: every
    # column to 1e-14 relative, the orbital distance (a small difference of
    # O(1) fields) to 1e-12
    ve = sf.VElement(0.4, 1.0, 0.3)
    pert = es.make_perturbation("smooth-random", ve, 1e-3, 2.0, basis,
                                np.random.default_rng(5))
    res = es.run_rotating_orbit_experiment(ve, 0.3, pert, 2.0, basis=basis, periods=0.25)
    got = np.array([(r.t, r.energy, r.l2, r.lp, r.mean, r.orbital_distance, r.beta_star)
                    for r in res.trace])
    expect = np.array(_ROTATING_REFERENCE)
    assert got.shape == expect.shape
    rel = np.abs(got - expect) / np.maximum(np.abs(expect), 1e-300)
    assert rel[:, 5].max() <= 1e-12
    assert np.delete(rel, 5, axis=1).max() <= 1e-14
    assert abs(res.extra["recovered_omega"] - 0.2999088806754532) <= 1e-12 * 0.3


def test_perturbation_builders(basis, rng):
    ve = sf.VElement(0.5, 1.0, 0.7)
    for kind in ("random-shuffle", "mode-injection", "smooth-random"):
        pert = es.make_perturbation(kind, ve, 2e-3, 3.0, basis, rng)
        assert abs(ds.lp_norm(ds.to_grid(pert), 3.0) - 2e-3) < 1e-12
        es.require_band_limited(pert)
    with pytest.raises(ValueError):
        es.make_perturbation("bogus", ve, 1e-3, 2.0, basis, rng)


def test_run_config_rejects_nonpositive_cfl_safety():
    # above 1 every refresh would step over the advective limit
    ve = sf.VElement(0.5, 1.0)
    for value in (0.0, -0.4, math.nan, 1.2, math.inf):
        with pytest.raises(ValueError, match="cfl_safety"):
            es.RunConfig(t_end=1.0, reference=ve, cfl_safety=value)
    assert es.RunConfig(t_end=1.0, reference=ve, cfl_safety=0.4).cfl_safety == 0.4
    assert es.RunConfig(t_end=1.0, reference=ve, cfl_safety=1.0).cfl_safety == 1.0


def test_run_config_rejects_silent_no_op_runs():
    # NaN t_end would end the run after its first row, and cadence 0
    # divided by zero in run()
    ve = sf.VElement(0.5, 1.0)
    for t_end in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t_end"):
            es.RunConfig(t_end=t_end, reference=ve)
    for cadence in (0, -3, 2.5, math.nan, "10"):
        with pytest.raises(ValueError, match="cadence"):
            es.RunConfig(t_end=1.0, reference=ve, cadence=cadence)
    assert es.RunConfig(t_end=1.0, reference=ve, cadence=1).cadence == 1
    assert es.RunConfig(t_end=1.0, reference=ve, cadence=np.int64(3)).cadence == 3


def _corner_mode(basis, value=1.0):
    """A field whose one nonzero coefficient sits at (N, K), outside the band."""
    c = np.zeros((basis.n_modes + 1, 2, basis.k_radial))
    c[basis.n_modes, 0, -1] = value
    return ds.SpectralField(basis, c)


def test_band_limit_enforcement(basis):
    with pytest.raises(ResolutionError):
        es.require_band_limited(_corner_mode(basis))
    # the 1e-12 bound and its scale are on the moduli |c_nk|: beside a mode
    # of modulus 1, a corner coefficient with Re = Im = 0.8e-12 has modulus
    # 1.13e-12 and is refused, one with Re = Im = 0.7e-12 (0.99e-12) passes
    for part, refused in ((0.8e-12, True), (0.7e-12, False)):
        c = ds.single_mode(basis, 1, 1, amplitude=2.0).coeffs.copy()
        c[basis.n_modes, :, -1] = part
        f = ds.SpectralField(basis, c)
        if refused:
            with pytest.raises(ResolutionError):
                es.require_band_limited(f)
        else:
            assert np.array_equal(es.require_band_limited(f), ds._band_values(es.band_limit(f)))


def test_experiments_reject_non_finite_perturbations():
    # a NaN outside the band would be zeroed by band_limit and the run would
    # go on silently (NaN fails every comparison of the band check); an
    # infinity inside it is refused the same way, before any step
    b = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    ve = sf.VElement(0.5, 1.0, 0.3)
    pert = es.make_perturbation("smooth-random", ve, 1e-3, 2.0, b, np.random.default_rng(8))
    for (n, k), value in (((6, 9), np.nan), ((1, 0), np.inf), ((0, 2), -np.inf)):
        c = pert.coeffs.copy()
        c[n, 0, k] = value
        bad = ds.SpectralField(b, c)
        with pytest.raises(NonFiniteFieldError, match="non-finite coefficient"):
            es.require_band_limited(bad)
        with pytest.raises(NonFiniteFieldError):
            es.run_stability_experiment(ve, bad, 2.0, t_end=0.3, basis=b)
        with pytest.raises(NonFiniteFieldError):
            es.run_rotating_orbit_experiment(ve, 0.3, bad, 2.0, t_end=0.3, basis=b)


def test_solver_rejects_fields_outside_the_band(basis):
    # tendency and a SolverState's construction each refuse a field with
    # content outside the band, even a 1e-13 corner mode (velocity_magnitude
    # takes the carrier, which only a SolverState builds from a field)
    ve = sf.VElement(0.5, 1.0, 0.3)
    state = es.steady_state(ve, basis)
    rotating = es.steady_state(ve, basis, uniform=0.6)
    corner = _corner_mode(basis)
    w = ds.SpectralField(basis, state.w.coeffs + _corner_mode(basis, 1e-13).coeffs)
    for f in (corner, w):
        for bg in (_bare(basis), state.background, rotating.background):
            with pytest.raises(ResolutionError, match="outside the dealias band"):
                es.tendency(f, bg)
            with pytest.raises(ResolutionError, match="outside the dealias band"):
                es.SolverState(w=f, background=bg)


def test_experiments_zero_a_sub_tolerance_residue(basis):
    # a perturbation with a 1e-13-relative coefficient at (N, K) passes
    # require_band_limited, whose band rows are its band_limit's, and runs as
    # its band_limit, float for float
    ve = sf.VElement(0.5, 1.0, 0.3)
    pert = es.make_perturbation("smooth-random", ve, 1e-3, 2.0, basis,
                                np.random.default_rng(8))
    scale = np.abs(as_complex(pert.coeffs)).max()
    dirty = ds.SpectralField(basis, pert.coeffs + _corner_mode(basis, 1e-13 * scale).coeffs)
    rows = es.require_band_limited(dirty)
    assert not ds._in_band(dirty)
    assert np.array_equal(es.band_limit(dirty).coeffs, pert.coeffs)
    expect_rows = ds._band_values(es.band_limit(dirty))
    assert rows.shape == expect_rows.shape and rows.tobytes() == expect_rows.tobytes()
    runs = (lambda f: es.run_stability_experiment(ve, f, 2.0, t_end=0.3, basis=basis),
            lambda f: es.run_rotating_orbit_experiment(ve, 0.3, f, 2.0, t_end=0.3,
                                                       basis=basis))
    for experiment in runs:
        got, expect = experiment(dirty), experiment(pert)
        assert len(got.trace) > 1
        assert got.trace == expect.trace
        assert got.extra == expect.extra
        for name in ("initial_field", "final_field"):
            assert np.array_equal(getattr(got, name).values, getattr(expect, name).values)


def test_uniform_offset_induces_rotation(basis):
    # a state with uniform vorticity 2 Omega rotates its dipole at rate Omega
    ve = sf.VElement(0.0, 1.0, 0.0)
    state = es.steady_state(ve, basis, uniform=0.5)    # Omega = 0.25
    assert state.background.amplitude == 0.0
    cfg = es.RunConfig(t_end=1.0, cadence=5, p=2.0, reference=ve)
    _, trace, _ = es.run(state, cfg)
    last = trace[-1]
    # beta_star tracks -Omega t
    expected = (-0.25 * last.t) % (2 * math.pi)
    diff = abs((last.beta_star - expected + math.pi) % (2 * math.pi) - math.pi)
    assert diff < 1e-3


def _pointwise_band_grids(w, theta, background=None):
    """(d_r omega, (1/r) d_theta omega, d_r psi, (1/r) d_theta psi) of the band
    of w at the grid radii and the angles theta, summed mode by mode from
    bessel_j and bessel_j_prime at j_{n,k} r_i times cos / sin(n theta)."""
    b = w.basis
    nd, kd = b.dealias_band()
    r, coeffs = b.grid.r, as_complex(w.coeffs)
    grids = [np.zeros((r.size, theta.size)) for _ in range(4)]
    for n in range(nd + 1):
        weight = 1.0 if n == 0 else 2.0
        cos, sin = np.cos(n * theta), np.sin(n * theta)
        j = b.roots[n, :kd]
        jr = np.outer(r, j)
        value, slope = bessel_j(n, jr), j * bessel_j_prime(n, jr)
        for i, c in ((0, coeffs[n, :kd]), (2, coeffs[n, :kd] / j**2)):
            # Re(S e^{i n theta}) and its theta derivative, S the radial sums
            d_r, over_r = slope @ c, (value / r[:, None]) @ c
            grids[i] += weight * (np.outer(d_r.real, cos) - np.outer(d_r.imag, sin))
            grids[i + 1] -= weight * n * (np.outer(over_r.real, sin) + np.outer(over_r.imag, cos))
    if background is not None:
        # the channel's a J_0(l r) + c: d_r of a J_0(l r) is -a l J_1(l r),
        # d_r of its stream function -a J_1(l r) / l, and d_r of c (1 - r^2) / 4
        # is -c r / 2
        j1 = bessel_j(1, background.root * r)
        grids[0] += (-background.amplitude * background.root * j1)[:, None]
        grids[2] += (-background.amplitude * j1 / background.root
                     - background.uniform * r / 2)[:, None]
    return grids


def _band_grids(y, kit, synth_r, synth_t, background=None):
    """(d_r omega, (1/r) d_theta omega, d_r psi, (1/r) d_theta psi) of the band
    array y on the angles of the synthesis tables, read from the blocks that
    tendency forms: the radial operator's d_r columns [d_r omega; d_r psi]
    and its (1/r) columns [(1/r) psi; (1/r) omega], the channel's d_r pair
    added to the n = 0 real row."""
    m = np.matmul(y, kit["radial"])
    nr = m.shape[2] // 4
    if background is not None:
        m[0, 0, : 2 * nr] += background.d_r_pair
    d_r, over_r = ds._synth(m, (synth_r, synth_t))
    return d_r[:nr], over_r[nr:], d_r[nr:], over_r[:nr]


def _check_band_grids(basis, full):
    """The band grids on the collocation tables (full) or on the subgrid
    tables against the pointwise oracle, with the zero channel, a J_0 channel
    and one with a uniform offset too; on the collocation grid also
    velocity_magnitude."""
    coarse = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    for b in (basis, coarse):
        kit = b.band_kit
        s = 1 if full else b.grid.n_theta // kit["sub_synth_r"].shape[1]
        tables = ((kit["synth_r"], kit["synth_t"]) if full
                  else (kit["sub_synth_r"], kit["sub_synth_t"]))
        for w, bg in _band_states(b):
            y = ds._band_values(w)
            for background in _channels(bg):
                got = _band_grids(y, kit, *tables, background)
                expect = _pointwise_band_grids(w, b.grid.theta[::s], background)
                for g, e in zip(got, expect):
                    assert g.shape == (b.grid.n_r, b.grid.n_theta // s)
                    assert np.abs(g - e).max() <= 1e-14 * np.abs(e).max()
                if full:
                    umax = np.sqrt(expect[2]**2 + expect[3]**2).max()
                    got = es.velocity_magnitude(es.SolverState(w, background).band, background)
                    assert abs(got - umax) <= 1e-14 * umax


def test_band_grids_match_pointwise_oracle(basis):
    # the collocation-grid synthesis that velocity_magnitude uses
    _check_band_grids(basis, full=True)


def test_band_subgrids_are_collocation_columns(basis):
    # the subgrid synthesis of tendency, at every s-th collocation angle
    _check_band_grids(basis, full=False)


def _band_analyze(basis):
    """Columns cos(n theta), -sin(n theta), n <= nd, of the basis DFT analysis
    table: the band analysis on the whole collocation grid."""
    return basis.dft_analyze[:, : 2 * basis.dealias_band()[0] + 2]


def _full_grid_tendency(w, background, rotation=0.0):
    """The in-band tendency as it ran on every collocation angle before the
    subgrid, and the largest coefficient of either projected product term.

    A nonzero ``rotation`` adds a uniform vorticity 2 * rotation as the
    solver once did, outside the channel: its stream function joins the mean
    fix, and its rigid advection enters as the spectral term
    -rotation * i n * w."""
    b = w.basis
    kit, nr = _old_band_kit(b), b.grid.n_r
    nd, kd = kit["nd"], kit["kd"]
    analyze = _old_dft_tables(b, nd)[0]
    wc = as_complex(w.coeffs)
    c = wc[: nd + 1, :kd]
    cpsi = c * kit["mult"]
    x = np.stack([c.real, c.imag, cpsi.real, cpsi.imag], axis=2)
    m = np.matmul(kit["radial"], x).transpose(1, 2, 0)
    sr, st = kit["synth_r"], kit["synth_t"]
    dr_om, dth_om = m[:nr, 0:2].reshape(nr, -1) @ sr, m[nr:, 0:2].reshape(nr, -1) @ st
    dr_psi, dth_psi = m[:nr, 2:4].reshape(nr, -1) @ sr, m[nr:, 2:4].reshape(nr, -1) @ st
    if background is not None:
        d_r_omega, d_r_psi = np.split(background.d_r_pair, 2)
        dr_om = dr_om + d_r_omega[:, None]
        dr_psi = dr_psi + d_r_psi[:, None]

    def project(values):
        F = (values @ analyze).reshape(-1, 2, nd + 1).transpose(2, 0, 1)
        cn = np.matmul(kit["proj"], F)
        coeffs = np.zeros((b.n_modes + 1, b.k_radial), complex)
        coeffs[: nd + 1, :kd] = cn[..., 0] + 1j * cn[..., 1]
        return coeffs

    terms = project(dr_psi * dth_om), project(dth_psi * dr_om)
    coeffs = project(dr_psi * dth_om - dth_psi * dr_om)
    # the mean fix as a 2 x 2 solve, along the n = 0 energy gradient: the
    # stream coefficients weighted by norm2, the channel's as its dual
    M = min(ds._MEAN_FIX_MODES, kd)
    defect = float((coeffs[0].real * b.mean0).sum())
    psi = wc[0].real[:M] * b.green_mult[0, :M]
    # the n = 0 coefficients of 1 - r^2; the offset's stream function is
    # rotation (1 - r^2) / 2
    para = 4.0 * b.mean0[:M] / (b.roots[0, :M] ** 2 * b.norm2[0, :M])
    psi = psi + 0.5 * rotation * para
    q = psi * b.norm2[0, :M]
    if background is not None:
        q = q + background.stream_dual[:M]
    rows = np.vstack([b.mean0[:M], q])
    G = rows @ rows.T
    G[np.diag_indices(2)] += 1e-14 * max(G[0, 0], G[1, 1], 1e-30)
    coeffs[0, :M] -= rows.T @ np.linalg.solve(G, np.array([defect, 0.0]))
    coeffs = coeffs - rotation * (1j * np.arange(b.n_modes + 1)[:, None]) * wc
    return coeffs, max(np.abs(t).max() for t in terms)


def _channels(bg):
    """The zero channel, the channel bg, and bg with a uniform offset 0.6."""
    return (es.RadialBackground(0.0, bg.root, bg.basis), bg,
            es.RadialBackground(bg.amplitude, bg.root, bg.basis, uniform=0.6))


def _band_states(basis):
    """Band-limited states with a background: the default one of these tests
    and a (2,1) family element."""
    for ve, seed in ((sf.VElement(0.5, 1.0, 0.3), 11),
                     (sf.VElement(0.4, 0.6, 0.3, family=(2, 1)), 12)):
        state = es.steady_state(ve, basis)
        pert = es.make_perturbation("smooth-random", ve, 0.05, 2.0, basis,
                                    np.random.default_rng(seed))
        yield ds.SpectralField(basis, state.w.coeffs + pert.coeffs), state.background


def test_subgrid_tendency_matches_full_grid_oracle(basis):
    coarse = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    for b in (basis, coarse):
        for w, bg in _band_states(b):
            assert ds._in_band(w)
            for background in _channels(bg):
                expect, term = _full_grid_tendency(w, background)
                got = as_complex(es.tendency(w, background).coeffs)
                assert np.abs(got - expect).max() <= 1e-14 * term


def test_channel_offset_is_the_lab_frame_rigid_term(basis):
    # a channel with uniform vorticity c = 2 Omega gives, through its -c r / 2
    # in d_r psi, the tendency of the lab-frame formula: the product without
    # the offset, minus the exact spectral rigid advection Omega i n w
    coarse = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    for b in (basis, coarse):
        for w, bg in _band_states(b):
            for omega in (0.3, -0.5):
                for lab in (None, bg):
                    a = 0.0 if lab is None else lab.amplitude
                    channel = es.RadialBackground(a, bg.root, b, uniform=2.0 * omega)
                    expect, _ = _full_grid_tendency(w, lab, omega)
                    got = as_complex(es.tendency(w, channel).coeffs)
                    rigid = np.abs(omega * np.arange(b.n_modes + 1)[:, None]
                                   * as_complex(w.coeffs)).max()
                    assert np.abs(got - expect).max() <= 1e-14 * rigid


def test_run_calls_tendency_four_times_per_step(basis, monkeypatch):
    # counted on the module globals that run() and step_rk4 look up, as the
    # benchmark's tracer counts them
    counts = {"tendency": 0, "step_rk4": 0}

    def counting(name):
        fn = getattr(es, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(es, name, counting(name))
    ve = sf.VElement(0.5, 1.0, 0.3)
    state = es.steady_state(ve, basis)
    es.run(state, es.RunConfig(t_end=1.0, cadence=3, reference=ve))
    assert counts["step_rk4"] > 3
    assert counts["tendency"] == 4 * counts["step_rk4"]


def test_runs_return_their_own_trace():
    # two runs from one state each return their own rows from t = 0 and
    # leave the state as it was; a run continued from a final state returns
    # only its own rows, from that state's t
    b = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    ve = sf.VElement(0.3, 1.0)
    state = es.steady_state(ve, b)
    values = state.band.tobytes()
    cfg = es.RunConfig(t_end=0.5, cadence=2, reference=ve)
    first, second = es.run(state, cfg), es.run(state, cfg)
    assert state.t == 0.0 and state.band.tobytes() == values
    assert first[1] is not second[1] and first[1] == second[1]
    mid = first[0]
    resumed = es.run(mid, es.RunConfig(t_end=1.0, cadence=2, reference=ve))
    assert mid.t == first[1][-1].t
    for start, (final, trace, log) in ((0.0, first), (0.0, second), (mid.t, resumed)):
        ts = [r.t for r in trace]
        assert ts[0] == start and ts[-1] == final.t
        assert all(s < t for s, t in zip(ts, ts[1:]))
        assert len(ts) == 1 + -(-log.rk4_steps // 2)
    assert abs(mid.t - 0.5) < 1e-12 and abs(resumed[0].t - 1.0) < 1e-12


def test_band_and_outside_blocks_partition_the_spectrum(basis):
    # _outside_band's two blocks and the (nd+1, kd) band slice that the
    # solver reads cover the (N+1, K) coefficients exactly once, and the
    # band is the one dealias_band() names
    for b in (basis, ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))):
        nd, kd = b.dealias_band()
        loop = np.zeros((b.n_modes + 1, b.k_radial), dtype=bool)
        for n in range(nd + 1):
            loop[n, :kd] = True
        outside = np.zeros(loop.shape, dtype=int)
        for block in ds._outside_band(outside, b):
            block += 1
        covered = outside.copy()
        covered[: b.band_kit["nd"] + 1, : b.band_kit["kd"]] += 1
        assert (covered == 1).all()
        assert np.array_equal(outside == 0, loop)


def test_background_constants_are_hoisted(basis, monkeypatch):
    # the four profiles come from one recurrence, bitwise the bessel_j
    # expressions; neither the construction nor a tendency call with the
    # channel calls bessel_j
    r = basis.grid.r
    roots = (sf.j_11(), sf.VElement(0.0, 1.0, 0.0, family=(2, 1)).root, 3.7)
    expect = []
    for root in roots:
        j0, j1, j0_root = bessel_j(0, root * r), bessel_j(1, root * r), bessel_j(0, root)
        expect.append((0.5 * j0 + 0.4,
                       0.5 * (j0 - j0_root) / root**2 + 0.4 * (1.0 - r**2) / 4.0,
                       -0.5 * root * j1, -0.5 * j1 / root - 0.5 * 0.4 * r))
    calls = []
    for module in (bessel, es, sf):
        fn = module.bessel_j
        monkeypatch.setattr(module, "bessel_j",
                            lambda *a, fn=fn: calls.append(a) or fn(*a))
    for root, profiles in zip(roots, expect):
        bg = es.RadialBackground(0.5, root, basis, uniform=0.4)
        got = bg.profile, bg.stream_profile, *np.split(bg.d_r_pair, 2)
        assert all(np.array_equal(g, e) for g, e in zip(got, profiles)), root
    assert calls == []
    ve = sf.VElement(0.5, 1.0, 0.3)
    state = es.steady_state(ve, basis)
    rotating = es.steady_state(ve, basis, uniform=0.4)
    es.tendency(state.w, state.background)
    es.tendency(rotating.w, rotating.background)
    assert calls == []


def _closed_form_stream_row(bg):
    """The channel's n = 0 stream coefficients from the closed-form cross
    integrals: J_0(l r) has coefficients 2 z J_0(l) / ((z^2 - l^2) J_1(z))
    over the zeros z = j_{0,k} (one-hot when l is one of them), the constant
    mean0 / norm2 and (1 - r^2) 4 mean0 / (z^2 norm2)."""
    b, a, c, lam = bg.basis, bg.amplitude, bg.uniform, bg.root
    z = b.roots[0]
    hit = np.isclose(z, lam, rtol=0, atol=1e-9)
    if hit.any():
        proj = hit * 1.0
    else:
        proj = 4.0 * math.pi * bessel_j(0, lam) / ((z**2 - lam**2) * b.mean0)
    const = b.mean0 / b.norm2[0]
    return (a * (proj - bessel_j(0, lam) * const) / lam**2
            + c * b.mean0 / (z**2 * b.norm2[0]))


def test_stream_dual_matches_closed_form(basis):
    # the channel's stream dual, the quadrature of its stream profile against
    # the band's J_0(j_k r) that the mean fix reads, against norm2 times the
    # closed-form coefficients: within 2e-16 on the default basis and on 24
    # nodes (8.3e-17 and 3.5e-17 measured; the 6-mode analysis row that it
    # replaced read 2e-16 and 2e-14)
    coarse = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    for b in (basis, coarse):
        kd = b.band_kit["kd"]
        for family in ((1, 1), (0, 1), (2, 1), (1, 2)):
            root = sf.VElement(0.0, 1.0, 0.0, family=family).root
            for c in (0.0, 0.6):
                bg = es.RadialBackground(0.5, root, b, uniform=c)
                expect = (_closed_form_stream_row(bg) * b.norm2[0])[:kd]
                assert np.abs(bg.stream_dual - expect).max() <= 2e-16, (family, c)


def test_background_derivatives_built_at_construction(basis):
    r = basis.grid.r
    for amplitude, root in ((0.5, sf.j_11()), (-1.3, 3.7), (0.0, 3.7)):
        for c in (0.0, 0.6):
            bg = es.RadialBackground(amplitude, root, basis, uniform=c)
            j0, j1 = bessel_j(0, root * r), bessel_j(1, root * r)
            # at c = 0 bit-identical to the expressions evaluated per call before
            d_r_omega, d_r_psi = np.split(bg.d_r_pair, 2)
            assert np.array_equal(d_r_omega, -amplitude * root * j1)
            assert np.array_equal(d_r_psi, -amplitude * j1 / root - 0.5 * c * r)
            assert np.array_equal(bg.stream_d_r_profile, d_r_psi)
            assert np.array_equal(bg.profile, amplitude * j0 + c)
            stream = amplitude * (j0 - bessel_j(0, root)) / root**2 + c * (1 - r**2) / 4
            assert np.array_equal(bg.stream_profile, stream)


def test_runs_leave_the_basis_unchanged():
    # run constants live with their owners: a run with a background and an
    # orbital distance add no attribute to the basis
    basis = ds.DiskBasis(8, 12, ds.DiskGrid(30, 32))
    keys = set(vars(basis))
    ve = sf.VElement(0.5, 1.0, 0.3)
    pert = es.make_perturbation("smooth-random", ve, 1e-3, 2.0, basis,
                                np.random.default_rng(5))
    res = es.run_stability_experiment(ve, pert, 2.0, turnovers=0.02, basis=basis)
    sf.orbital_distance(res.final_field, ve, 1.5)
    assert set(vars(basis)) == keys


def test_short_run_drifts_match_reference(basis):
    # energy and L2 drifts of a 0.25-turnover run, against the values of the
    # full-spectrum synthesis with per-call J_0(root) that preceded the
    # half-spectrum band kit
    ve = sf.VElement(0.5, 1.0, 0.0)
    delta = 1e-3 * ds.lp_norm(sf.v_element_grid(ve, basis.grid), 2.0)
    pert = es.make_perturbation("smooth-random", ve, delta, 2.0, basis,
                                np.random.default_rng(2024))
    res = es.run_stability_experiment(ve, pert, 2.0, turnovers=0.25, basis=basis)
    assert len(res.trace) == 12
    assert abs(res.energy_drift - 2.076815351879574e-09) <= 1e-12
    assert abs(res.l2_drift - 7.134828155390779e-10) <= 1e-12


def _old_dft_tables(basis, n_top):
    """The DFT analysis and synthesis tables of the modes n <= n_top in the
    layout that preceded the row pairs: a block of cos rows (columns) above
    a block of -sin ones."""
    n_half = np.arange(n_top + 1)[:, None]
    w = np.where(n_half == 0, 1.0, 2.0)
    cos, sin = np.cos(n_half * basis.grid.theta), np.sin(n_half * basis.grid.theta)
    return np.vstack([cos, -sin]).T / basis.grid.n_theta, np.vstack([w * cos, -w * sin])


def _old_band_kit(basis):
    """The band operators as the first tendency call built them before they
    moved into DiskBasis construction, in the (nd+1, kd, 2) layout that
    preceded the row pairs: radial (nd+1, 2 n_r, kd) with the d_r rows above
    the (1/r) rows, and DFT tables with a block of cos rows above a block of
    -sin ones."""
    nd, kd = basis.dealias_band()
    rw = basis.grid.measure_r * basis.grid.n_theta
    theta = basis.grid.theta
    n_half = np.arange(nd + 1)[:, None]
    w = np.where(n_half == 0, 1.0, 2.0)
    cos = np.cos(n_half * theta)
    sin = np.sin(n_half * theta)
    proj = np.empty((nd + 1, kd, basis.grid.n_r))
    for n in range(nd + 1):
        T = basis.r_eval[n][:, :kd]
        G = T.T @ (rw[:, None] * T)
        proj[n] = np.linalg.solve(G, (rw[:, None] * T).T)
    # the subgrid tables, built on the angles of every s-th column
    n_theta = basis.grid.n_theta
    s = max(d for d in range(1, n_theta + 1) if n_theta % d == 0 and n_theta // d > 3 * nd)
    sub_cos, sub_sin = np.cos(n_half * theta[::s]), np.sin(n_half * theta[::s])
    # d_r rows from the one recurrence per order over the nodes and the zeros
    r, r_diff = basis.grid.r, []
    for n in range(nd + 1):
        z = basis.roots[n]
        jm, _, jp = _j_neighbours(n, np.append(np.outer(r, z), z))
        r_diff.append(z * (0.5 * (jm[:-z.size] - jp[:-z.size])).reshape(r.size, z.size))
    return {
        "nd": nd,
        "kd": kd,
        "radial": np.concatenate([np.stack(r_diff)[:, :, :kd],
                                  basis.r_eval[: nd + 1, :, :kd] / basis.grid.r[:, None]],
                                 axis=1),
        "mult": basis.green_mult[: nd + 1, :kd],
        "synth_r": np.vstack([w * cos, -w * sin]),
        "synth_t": np.vstack([-n_half * w * sin, -n_half * w * cos]),
        "proj": proj,
        "stride": s,
        "sub_synth_r": np.vstack([w * sub_cos, -w * sub_sin]),
        "sub_synth_t": np.vstack([-n_half * w * sub_sin, -n_half * w * sub_cos]),
        "sub_analyze": np.vstack([sub_cos, -sub_sin]).T / (n_theta // s),
    }


def _oracle_band_kit(basis):
    """The band operators of the row-pair layout, re-laid from the old ones:
    the DFT rows (columns) a [cos; -sin] pair per mode, the radial operator
    (nd+1, kd, 4 n_r) with the columns d_r omega, d_r psi, (1/r) psi and
    (1/r) omega, psi = omega / j^2 folded in, the mean fix's constants and
    the CFL spacing."""
    old = _old_band_kit(basis)
    nd, kd, nr = old["nd"], old["kd"], basis.grid.n_r

    def pairs(rows):
        return rows.reshape(2, nd + 1, -1).transpose(1, 0, 2).reshape(2 * nd + 2, -1)

    d_r, over_r, mult = old["radial"][:, :nr], old["radial"][:, nr:], old["mult"][:, None]
    m = min(ds._MEAN_FIX_MODES, kd)
    mean0 = basis.mean0[:m]
    return {
        "nd": nd,
        "kd": kd,
        "radial": np.concatenate([d_r, d_r * mult, over_r * mult, over_r],
                                 axis=1).transpose(0, 2, 1).copy(),
        "synth_r": pairs(old["synth_r"]),
        "synth_t": pairs(old["synth_t"]),
        "proj": old["proj"],
        "sub_synth_r": pairs(old["sub_synth_r"]),
        "sub_synth_t": pairs(old["sub_synth_t"]),
        "sub_analyze": pairs(old["sub_analyze"].T).T,
        "mean_row": basis.mean0[:kd],
        "mean0": mean0,
        "energy_row": basis.norm2[0, :m] * basis.green_mult[0, :m],
        "g00": float(mean0 @ mean0),
        "spacing": math.pi / basis.roots[: nd + 1, :kd].max(),
    }


def test_band_operators_built_with_basis(basis, monkeypatch):
    oracle = _oracle_band_kit(basis)
    assert set(basis.band_kit) == set(oracle)
    for key, value in oracle.items():
        assert np.array_equal(basis.band_kit[key], value), key
    assert basis.band_kit["mean_row"].flags.c_contiguous
    # the in-band tendency is bit-identical under the lazily built operators
    ve = sf.VElement(0.5, 1.0, 0.3)
    state = es.steady_state(ve, basis)
    pert = es.make_perturbation("smooth-random", ve, 0.05, 2.0, basis,
                                np.random.default_rng(11))
    w = ds.SpectralField(basis, state.w.coeffs + pert.coeffs)
    channels = _channels(state.background)
    built = [es.tendency(w, bg).coeffs for bg in channels]
    monkeypatch.setattr(basis, "band_kit", oracle)
    for bg, c in zip(channels, built):
        assert np.array_equal(es.tendency(w, bg).coeffs, c)


def test_mean_fix_matches_linear_solve(basis):
    # the closed-form 2 x 2 solve against np.linalg.solve on the same
    # regularized system, with the zero channel, a J_0 channel and one with a
    # uniform offset too
    ve = sf.VElement(0.5, 1.0, 0.3)
    state = es.steady_state(ve, basis)
    pert = es.make_perturbation("smooth-random", ve, 0.05, 2.0, basis,
                                np.random.default_rng(3))
    w = ds.SpectralField(basis, state.w.coeffs + pert.coeffs)
    m = ds._MEAN_FIX_MODES
    for bg in _channels(state.background):
        kit = basis.band_kit
        raw = ds._embed(ds._project(np.random.default_rng(4).standard_normal(
            (basis.grid.n_r, basis.grid.n_theta)), _band_analyze(basis), kit["proj"]), basis)
        got = raw.copy()
        es._mean_fix(got[0, 0, : kit["kd"]], ds._band_values(w), bg)
        # the rows the correction spans: mean0 and the stream function
        # weighted by norm2, the channel's from its closed form
        psi = w.coeffs[0, 0] * basis.green_mult[0] + _closed_form_stream_row(bg)
        rows = np.vstack([basis.mean0[:m], psi[:m] * basis.norm2[0, :m]])
        G = rows @ rows.T
        G[np.diag_indices(2)] += 1e-14 * max(G[0, 0], G[1, 1], 1e-30)
        defect = float((raw[0, 0] * basis.mean0).sum())
        alpha = np.linalg.solve(G, np.array([defect, 0.0]))
        expect = raw.copy()
        expect[0, 0, :m] -= rows.T @ alpha
        got, expect, raw = as_complex(got), as_complex(expect), as_complex(raw)
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(raw[0, :m]).max()
        # the corrected tendency has zero disk mean, up to the regularization
        assert abs((got[0].real * basis.mean0).sum()) <= 1e-12 * abs(defect)


def _small_bases():
    """Bases whose band holds fewer than the mean fix's six n = 0 modes:
    kd = 5 and kd = 4."""
    return ds.DiskBasis(4, 8, ds.DiskGrid(12, 16)), ds.DiskBasis(3, 6, ds.DiskGrid(10, 16))


def test_tendency_runs_on_bands_of_fewer_than_six_radial_modes():
    # the mean fix spans min(6, kd) modes: a band of 5 or 4 radial modes
    # gets a finite tendency with no disk mean, with the zero channel and two
    # others
    root = sf.VElement(0.0, 1.0, 0.0).root
    rng = np.random.default_rng(73)
    for b in _small_bases():
        nd, kd = b.dealias_band()
        assert kd < ds._MEAN_FIX_MODES
        y = ds._band_values(_flat_field(b, rng, band_only=True))
        for bg in (es.RadialBackground(0.0, root, b), es.RadialBackground(0.5, root, b),
                   es.RadialBackground(0.5, root, b, uniform=0.6)):
            t = es.tendency(y, bg)
            assert t.shape == (nd + 1, 2, kd)
            assert np.isfinite(t).all()
            assert abs(float(t[0, 0] @ b.mean0[:kd])) <= 1e-13 * np.abs(t).max()


def test_mean_fix_zeroes_the_mean_rate_and_keeps_the_energy_rate(basis, monkeypatch):
    # on flat band spectra with channels a in {0, 0.5}, c in {0, 0.6}: the
    # fixed tendency T has no disk mean, <T_0, mean_row> = 0, and the same
    # energy rate <T, W y + X_psi> (W the weights norm2 / j^2 of the trace
    # energy, X_psi the channel's stream_dual) as the unfixed one, U.  Both
    # hold up to the 2 x 2 solve's 1e-14 regularization, whose share the
    # Gram system's conditioning scales, not to rounding: measured
    # mean <= 1.8e-13 of the defect, and energy <= 3.4e-12, 2.3e-12 and
    # 3.9e-11 of sum |U (W y + X_psi)| on the three bases, the last one's
    # 12 radial nodes under-resolving its 8 radial modes
    root = sf.VElement(0.0, 1.0, 0.0).root
    fix = es._mean_fix
    for b, energy_tol in ((basis, 2e-11), (ds.DiskBasis(6, 10, ds.DiskGrid(24, 32)), 2e-11),
                          (_small_bases()[0], 2e-10)):
        kit, rng = b.band_kit, np.random.default_rng(71)
        nd, kd = kit["nd"], kit["kd"]
        weights = (b.parseval * b.green_mult)[: nd + 1, None, :kd]
        for _ in range(3):
            y = ds._band_values(_flat_field(b, rng, band_only=True))
            for a in (0.0, 0.5):
                for c in (0.0, 0.6):
                    bg = es.RadialBackground(a, root, b, uniform=c)
                    grad = weights * y
                    grad[0, 0] += bg.stream_dual
                    monkeypatch.setattr(es, "_mean_fix", lambda *args: None)
                    unfixed = es.tendency(y, bg)
                    monkeypatch.setattr(es, "_mean_fix", fix)
                    fixed = es.tendency(y, bg)
                    defect = float(unfixed[0, 0] @ kit["mean_row"])
                    assert abs(float(fixed[0, 0] @ kit["mean_row"])) <= 1e-12 * abs(defect)
                    change = float((fixed * grad).sum()) - float((unfixed * grad).sum())
                    assert abs(change) <= energy_tol * np.abs(unfixed * grad).sum(), (a, c)


def _stream_row_mean_fix(row0, y, background):
    """The mean fix as it ran before it read the trace's energy gradient: the
    stream row on the first six n = 0 modes from Python floats, the channel's
    part the basis' analysis of its stream profile."""
    b, m = background.basis, ds._MEAN_FIX_MODES
    kit = b.band_kit
    mean0 = b.mean0[:m]
    defect = float(row0.dot(kit["mean_row"]))
    green, norm2 = b.green_mult[0, :m].tolist(), b.norm2[0, :m].tolist()
    stream = (b.analysis[0, :m] @ background.stream_profile).tolist()
    q = [(v * g + s) * n for v, g, s, n in zip(y[0, 0].tolist(), green, stream, norm2)]
    qa = np.array(q)
    g00, g01, g11 = float(mean0 @ mean0), float(mean0.dot(qa)), float(qa.dot(qa))
    reg = 1e-14 * max(g00, g11, 1e-30)
    g00, g11 = g00 + reg, g11 + reg
    scale = defect / (g00 * g11 - g01 * g01)
    row0[: len(q)] -= [scale * (g11 * x0 - g01 * x) for x0, x in zip(mean0.tolist(), q)]


def test_tendency_within_tolerance_of_stream_row_fix(basis, monkeypatch):
    # the energy-gradient row against the stream row it replaced: within
    # 1e-15 of the largest coefficient on the default and the 6 x 10 bases,
    # with the zero channel and others (measured 1.2e-17, bitwise in 6 of its
    # 10 cases, and 7.6e-16)
    for b in (basis, ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))):
        for w, background in _stage_cases(b):
            y = ds._band_values(w)
            got = es.tendency(y, background)
            monkeypatch.setattr(es, "_mean_fix", _stream_row_mean_fix)
            expect = es.tendency(y, background)
            monkeypatch.undo()
            assert np.abs(got - expect).max() <= 1e-15 * np.abs(expect).max()


def test_run_raises_on_non_finite_state(basis):
    state = es.steady_state(sf.VElement(0.5, 1.0, 0.0), basis)
    c = state.w.coeffs.copy()
    c[1, 0, 0] = np.nan
    state = es.SolverState(ds.SpectralField(basis, c), state.background)
    values = state.band.tobytes()
    with pytest.raises(NonFiniteFieldError):
        es.run(state, es.RunConfig(t_end=1.0, reference=sf.VElement(0.5, 1.0, 0.0)))
    # the given state is left as it was
    assert state.t == 0.0 and state.band.tobytes() == values


def _spectral_field_rk4(state, dt):
    """The RK4 step as it ran before the band carrier: every stage a
    SpectralField, checked against the band by tendency and padded back to
    (N+1, K) coefficients."""
    b, bg = state.w.basis, state.background
    c0 = state.w.coeffs
    k1 = es.tendency(state.w, bg).coeffs
    k2 = es.tendency(ds.SpectralField(b, c0 + 0.5 * dt * k1), bg).coeffs
    k3 = es.tendency(ds.SpectralField(b, c0 + 0.5 * dt * k2), bg).coeffs
    k4 = es.tendency(ds.SpectralField(b, c0 + dt * k3), bg).coeffs
    w_new = ds.SpectralField(b, c0 + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
    return es.SolverState(w=w_new, background=bg, t=state.t + dt)


# The in-band stage as it ran before the paired advection product, kept as
# its oracle: the radial operator's columns in the order d_r omega, d_r psi,
# (1/r) omega, (1/r) psi, the four band grids, the product as three
# allocating ufuncs, the mean fix on numpy vectors, the RK4 stages and sum as
# whole-array expressions, and the CFL velocity from one product per psi
# column block.


def _unpaired_kit(basis):
    """The band kit with the radial operator's columns in the unpaired order
    d_r omega, d_r psi, (1/r) omega, (1/r) psi."""
    kit = dict(basis.band_kit)
    nd, kd, nr = kit["nd"], kit["kd"], basis.grid.n_r
    radial = kit["radial"].reshape(nd + 1, kd, 4, nr)[:, :, [0, 1, 3, 2]]
    kit["radial"] = radial.reshape(nd + 1, kd, 4 * nr)
    return kit


def _unpaired_band_grids(y, kit, synth_r, synth_t, background=None):
    m = np.matmul(y, kit["radial"])        # (nd+1, 2, 4 n_r)
    nr = m.shape[2] // 4
    if background is not None:
        d_r_omega, d_r_psi = np.split(background.d_r_pair, 2)
        m[0, 0, :nr] += d_r_omega
        m[0, 0, nr: 2 * nr] += d_r_psi
    d_r, over_r = ds._synth(m, (synth_r, synth_t))
    return d_r[:nr], over_r[:nr], d_r[nr:], over_r[nr:]


def _unpaired_mean_fix(row0, y, b, kit, background):
    m = min(ds._MEAN_FIX_MODES, kit["kd"])
    defect = float(row0 @ b.mean0[: row0.size])
    q = y[0, 0, :m] * (b.norm2[0, :m] * b.green_mult[0, :m])
    if background is not None:
        q = q + background.stream_dual[:m]
    mean0 = kit["mean0"]
    g00, g01, g11 = kit["g00"], float(mean0 @ q), float(q @ q)
    reg = 1e-14 * max(g00, g11, 1e-30)
    g00, g11 = g00 + reg, g11 + reg
    scale = defect / (g00 * g11 - g01 * g01)
    row0[:m] -= scale * (g11 * mean0 - g01 * q)


def _unpaired_tendency(y, background, b=None):
    """The oracle stage of the band array y on the basis b, by default the
    channel's; a channel-free call (background None) names b."""
    b = background.basis if b is None else b
    kit = _unpaired_kit(b)
    dr_om, dth_om, dr_psi, dth_psi = _unpaired_band_grids(
        y, kit, kit["sub_synth_r"], kit["sub_synth_t"], background)
    band = ds._project(dr_psi * dth_om - dth_psi * dr_om, kit["sub_analyze"], kit["proj"])
    _unpaired_mean_fix(band[0, 0], y, b, kit, background)
    return band


def _unpaired_rk4(y0, dt, background):
    k1 = _unpaired_tendency(y0, background)
    k2 = _unpaired_tendency(y0 + 0.5 * dt * k1, background)
    k3 = _unpaired_tendency(y0 + 0.5 * dt * k2, background)
    k4 = _unpaired_tendency(y0 + dt * k3, background)
    return y0 + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _unpaired_velocity_magnitude(y, background, b=None):
    """Max |u| from the psi columns d_r psi and (1/r) psi, one product and
    one synthesis each, with the root taken of every grid point; ``y`` is the
    stepper's band array on the basis b, by default the channel's."""
    b = background.basis if b is None else b
    kit, nr = _unpaired_kit(b), b.grid.n_r
    radial = kit["radial"]
    dr_psi, = ds._synth(np.matmul(y, radial[..., nr: 2 * nr]), (kit["synth_r"],))
    dth_psi, = ds._synth(np.matmul(y, radial[..., 3 * nr:]), (kit["synth_t"],))
    if background is not None:
        dr_psi = dr_psi + background.stream_d_r_profile[:, None]
    return float(np.sqrt(dr_psi**2 + dth_psi**2).max())


def _four_grid_velocity_magnitude(y, background, b=None):
    """Max |u| as it was taken before the two-grid synthesis: all four band
    grids synthesized on the collocation grid, the two of psi read.  ``y`` is
    the stepper's band array on the basis b, by default the channel's."""
    b = background.basis if b is None else b
    kit = _unpaired_kit(b)
    _, _, dr_psi, dth_psi = _unpaired_band_grids(y, kit, kit["synth_r"], kit["synth_t"])
    if background is not None:
        dr_psi = dr_psi + background.stream_d_r_profile[:, None]
    return float(np.sqrt(dr_psi**2 + dth_psi**2).max())


def _stage_cases(basis):
    """(field, channel) pairs: _band_states x _channels, and flat band spectra
    of size 0.05 plus an element, with channels (a, c) in {(0.5, 0), (0, 0),
    (0.5, 0.6), (0.3, 0.2)}."""
    for w, bg in _band_states(basis):
        for background in _channels(bg):
            yield w, background
    rng = np.random.default_rng(61)
    for a, c in ((0.5, 0.0), (0.0, 0.0), (0.5, 0.6), (0.3, 0.2)):
        ve = sf.VElement(a, 0.8, 1.1)
        flat = _flat_field(basis, rng, band_only=True).coeffs
        w = ds.SpectralField(basis, sf.dipole_part(ve, basis).coeffs + 0.05 * flat)
        yield w, es.RadialBackground(a, ve.root, basis, uniform=c)


def test_stage_matches_unpaired_oracle(basis):
    # tendency, velocity_magnitude and step_rk4 equal the unpaired stage
    # bitwise, over 8 steps of every case on both bases
    coarse = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    for b in (basis, coarse):
        for w, background in _stage_cases(b):
            state = es.SolverState(w, background)
            assert (es.velocity_magnitude(state.band, background)
                    == _unpaired_velocity_magnitude(ds._band_values(w), background))
            for _ in range(8):
                y = state.band
                assert np.array_equal(es.tendency(y, background), _unpaired_tendency(y, background))
                assert (es.velocity_magnitude(y, background)
                        == _unpaired_velocity_magnitude(y, background)
                        == _four_grid_velocity_magnitude(y, background))
                state = es.step_rk4(state, 0.02)
                assert np.array_equal(state.band, _unpaired_rk4(y, 0.02, background))


def test_zero_channel_is_the_channel_free_solver(basis):
    # a bare field runs with the zero channel, which adds zeros: tendency and
    # velocity_magnitude equal the oracles' channel-free results, and the
    # diagnostic grids to_grid of the padded field, bitwise; its constants
    # are zeros
    coarse = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    for b in (basis, coarse):
        zero = _bare(b)
        for name in ("energy", "norm2", "mean"):
            assert getattr(zero, name) == 0.0, name
        for name in ("d_r_pair", "omega_dual", "stream_dual", "profile", "stream_profile"):
            assert not getattr(zero, name).any(), name
        for w, _ in _band_states(b):
            state = es.SolverState(w, zero)
            y = state.band
            assert np.array_equal(es.tendency(y, zero), _unpaired_tendency(y, None, b))
            assert (es.velocity_magnitude(y, zero) == _unpaired_velocity_magnitude(y, None, b)
                    == _four_grid_velocity_magnitude(y, None, b))
            assert np.array_equal(state.full_grid_values().values, ds.to_grid(state.w).values)
            assert np.array_equal(state.stream_grid_values().values,
                                  ds.to_grid(apply_green(state.w)).values)


def test_band_stages_match_spectral_field_stages(basis):
    # the stages on the real band array reproduce the SpectralField stages
    # bitwise over 20 steps, with the zero channel, a J_0 channel and one with
    # a uniform offset too
    coarse = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    for b in (basis, coarse):
        w, bg = next(_band_states(b))
        for background in _channels(bg):
            got = expect = es.SolverState(w=w, background=background)
            for _ in range(20):
                got = es.step_rk4(got, 0.02)
                expect = _spectral_field_rk4(expect, 0.02)
                assert got.t == expect.t
                assert np.array_equal(got.w.coeffs, expect.w.coeffs)


def test_tendency_on_the_carrier_is_the_band_slice(basis):
    coarse = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    for b in (basis, coarse):
        nd, kd = b.dealias_band()
        for w, bg in _band_states(b):
            for background in _channels(bg):
                band = es.tendency(ds._band_values(w), background)
                full = es.tendency(w, background).coeffs
                assert band.shape == (nd + 1, 2, kd)
                assert np.array_equal(band[:, 0], full[: nd + 1, 0, :kd])
                assert np.array_equal(band[:, 1], full[: nd + 1, 1, :kd])


def test_fields_on_another_resolution_are_refused(basis):
    # a SpectralField on a basis whose modes, radial modes or grid differ
    # from the channel's basis raises ResolutionError in SolverState and in
    # tendency, whether or not its band has the channel's shape (7 x 10 and
    # the 24 x 48 grid keep the 6 x 10 band); one on a basis built apart at
    # the channel's resolution runs as on the channel's own
    coarse = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    root = sf.VElement(0.5, 1.0).root
    for b, other in ((basis, coarse), (coarse, basis),
                     (coarse, ds.DiskBasis(7, 10, ds.DiskGrid(24, 32))),
                     (coarse, ds.DiskBasis(6, 11, ds.DiskGrid(24, 32))),
                     (coarse, ds.DiskBasis(6, 10, ds.DiskGrid(24, 48)))):
        w, _ = next(_band_states(other))
        bg = es.RadialBackground(0.5, root, b)
        with pytest.raises(ResolutionError):
            es.SolverState(w, bg)
        with pytest.raises(ResolutionError):
            es.tendency(w, bg)
    twin = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    w, _ = next(_band_states(twin))
    own = ds.SpectralField(coarse, w.coeffs)
    bg = es.RadialBackground(0.5, root, coarse)
    assert np.array_equal(es.tendency(w, bg).coeffs, es.tendency(own, bg).coeffs)
    assert np.array_equal(es.SolverState(w, bg).band, es.SolverState(own, bg).band)


def test_band_arrays_of_another_shape_are_refused():
    # a band array whose shape is not the channel's (nd+1, 2, kd), (5, 2, 6)
    # on 6 x 10, raises ResolutionError in SolverState; it used to be built,
    # and the first step raised numpy's matmul ValueError
    coarse = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    bg = es.RadialBackground(0.5, sf.VElement(0.5, 1.0).root, coarse)
    for shape in ((3, 2, 4), (5, 2, 7), (6, 2, 6), (5, 1, 6), (5, 6, 2), (5, 2, 6, 1)):
        with pytest.raises(ResolutionError, match="band array of shape"):
            es.SolverState(np.zeros(shape), bg)
    w, _ = next(_band_states(coarse))
    state = es.SolverState(ds._band_values(w), bg)
    assert es.step_rk4(state, 1e-3).band.shape == (5, 2, 6)


def test_experiments_refuse_a_perturbation_on_another_resolution():
    # both experiments raise ResolutionError for a perturbation on another
    # number of modes, or on another grid with the same band shape; one on a
    # basis built apart at the run's resolution gives the run's own trace
    b = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    ve = sf.VElement(0.3, 1.0)
    for other in (ds.DiskBasis(8, 12, ds.DiskGrid(32, 32)),
                  ds.DiskBasis(6, 10, ds.DiskGrid(24, 48))):
        pert = es.make_perturbation("smooth-random", ve, 1e-3, 2.0, other,
                                    np.random.default_rng(5))
        with pytest.raises(ResolutionError):
            es.run_stability_experiment(ve, pert, 2.0, b, t_end=0.05)
        with pytest.raises(ResolutionError):
            es.run_rotating_orbit_experiment(ve, 0.3, pert, 2.0, b, t_end=0.05)
    twin = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    pert = es.make_perturbation("smooth-random", ve, 1e-3, 2.0, twin, np.random.default_rng(5))
    got = es.run_stability_experiment(ve, pert, 2.0, b, t_end=0.05)
    expect = es.run_stability_experiment(ve, ds.SpectralField(b, pert.coeffs), 2.0, b, t_end=0.05)
    assert got.trace == expect.trace


def test_every_producer_gives_the_real_row_layout(basis, rng):
    # SpectralField.coeffs is the float64 (N+1, 2, K) array [Re c_n; Im c_n],
    # row 0's imaginary part zero, whichever function made the field
    state = es.steady_state(sf.VElement(0.5, 1.0, 0.3), basis)
    f = ds.random_in_span(basis, rng)
    fields = {
        "from_grid": ds.from_grid(ds.to_grid(f), basis),
        "single_mode": ds.single_mode(basis, 2, 3, 0.7, 0.4),
        "random_in_span": f,
        "rotate": ds.rotate(f, 0.9),
        "field_from_dict": ds.field_from_dict(ds.field_to_dict(f), basis=basis),
        "tendency": es.tendency(state.w, state.background),
        "SolverState.w": state.w,
    }
    for name, field in fields.items():
        c = field.coeffs
        assert c.dtype == np.float64, name
        assert c.shape == (basis.n_modes + 1, 2, basis.k_radial), name
        assert not c[0, 1].any(), name


# The transform kernels and the band stage as they ran in the (M, K, 2)
# layout [Re c, Im c] that preceded the row pairs, kept as oracles: _synth
# reordered the radial values with one copy per call, _project transposed
# the DFT products of the modes, and the band's radial operator acted on the
# omega and psi coefficients as four columns.


def _old_synth(m, tables):
    nd1, nb = m.shape[0], len(tables)
    nr, q = m.shape[1] // nb, m.shape[2] // 2
    t = m.reshape(nd1, nb, nr, q, 2).transpose(3, 1, 2, 4, 0).reshape(q, nb, nr, 2 * nd1)
    return [t[i, d] @ tables[d] for i in range(q) for d in range(nb)]


def _old_project(values, analyze, proj):
    F = (values @ analyze).reshape(-1, 2, proj.shape[0]).transpose(2, 0, 1)
    return np.matmul(proj, F)


def _old_split(c):
    return np.stack([c.real, c.imag], axis=2)


def _old_band_grids(cv, kit, synth_r, synth_t, background=None):
    x = np.concatenate([cv, cv * kit["mult"][..., None]], axis=2)  # omega, psi
    m = np.matmul(kit["radial"], x)         # (nd+1, 2 n_r, 4): d_r above 1/r rows
    if background is not None:
        nr = m.shape[1] // 2
        d_r_omega, d_r_psi = np.split(background.d_r_pair, 2)
        m[0, :nr, 0] += d_r_omega
        m[0, :nr, 2] += d_r_psi
    return _old_synth(m, (synth_r, synth_t))


def _old_mean_fix(row0, cv, basis, background):
    m = min(ds._MEAN_FIX_MODES, row0.size)
    defect = float(row0 @ basis.mean0[: row0.size])
    q = cv[0, :m, 0] * basis.green_mult[0, :m] * basis.norm2[0, :m]
    if background is not None:
        q = q + background.stream_dual[:m]
    mean0 = basis.mean0[:m]
    g00, g01, g11 = mean0 @ mean0, mean0 @ q, q @ q
    reg = 1e-14 * max(g00, g11, 1e-30)
    g00, g11 = g00 + reg, g11 + reg
    scale = defect / (g00 * g11 - g01 * g01)
    row0[:m] -= scale * (g11 * mean0 - g01 * q)


def _old_tendency(w, kit, background):
    """(N+1, K) tendency coefficients of the band field w, on the old tables."""
    nd, kd = kit["nd"], kit["kd"]
    c = as_complex(w.coeffs)
    cv = _old_split(c[: nd + 1, :kd])
    dr_om, dth_om, dr_psi, dth_psi = _old_band_grids(cv, kit, kit["sub_synth_r"],
                                                     kit["sub_synth_t"], background)
    band = _old_project(dr_psi * dth_om - dth_psi * dr_om, kit["sub_analyze"], kit["proj"])
    _old_mean_fix(band[0, :, 0], cv, w.basis, background)
    coeffs = np.zeros_like(c)
    coeffs[: nd + 1, :kd] = band[..., 0] + 1j * band[..., 1]
    return coeffs


def _flat_field(basis, rng, band_only):
    """Coefficients of order one at every mode of the band (or of the whole
    basis), the hardest spectrum for rounding; row 0 real."""
    nd, kd = basis.dealias_band() if band_only else (basis.n_modes, basis.k_radial)
    c = np.zeros((basis.n_modes + 1, basis.k_radial), complex)
    c[: nd + 1, :kd] = rng.standard_normal((nd + 1, kd)) + 1j * rng.standard_normal((nd + 1, kd))
    c[0] = c[0].real
    return ds.SpectralField(basis, as_rows(c))


def test_tendency_matches_old_layout_oracle(basis):
    # the row-pair band stage against the (nd+1, kd, 2) composition, on flat
    # band spectra with channel amplitude a in {0, 0.5} and uniform c in
    # {0, 0.6}: within 2e-15 of the largest coefficient
    root = sf.VElement(0.0, 1.0, 0.0).root
    for b in (basis, ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))):
        kit, rng = _old_band_kit(b), np.random.default_rng(41)
        for _ in range(3):
            w = _flat_field(b, rng, band_only=True)
            for a in (0.0, 0.5):
                for c in (0.0, 0.6):
                    bg = es.RadialBackground(a, root, b, uniform=c)
                    expect = _old_tendency(w, kit, bg)
                    got = as_complex(es.tendency(w, bg).coeffs)
                    assert np.abs(got - expect).max() <= 2e-15 * np.abs(expect).max(), (a, c)


def test_full_grid_transforms_match_old_layout_oracle(basis):
    # to_grid, from_grid and the ascent's stream solve against the old kernels
    # on flat spectra and on grids outside the span, within 2e-15 relative;
    # from_grid(to_grid(f)) stays an identity to rounding
    for b in (basis, ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))):
        analyze, synth = _old_dft_tables(b, b.n_modes)
        rng = np.random.default_rng(43)
        for _ in range(3):
            f = _flat_field(b, rng, band_only=False)
            grid = ds.to_grid(f)
            c = as_complex(f.coeffs)
            expect = _old_synth(np.matmul(b.r_eval, _old_split(c)), (synth,))[0]
            assert np.abs(grid.values - expect).max() <= 2e-15 * np.abs(expect).max()
            back = as_complex(ds.from_grid(grid, b).coeffs)
            assert np.abs(back - c).max() <= 1e-14 * np.abs(c).max()
            for values in (grid.values, rng.standard_normal(grid.values.shape)):
                g = ds.GridField(b.grid, values)
                half = _old_project(values, analyze, b.analysis)
                expect = half[..., 0] + 1j * half[..., 1]
                got = as_complex(ds.from_grid(g, b).coeffs)
                assert np.abs(got - expect).max() <= 2e-15 * np.abs(expect).max()
                stream = _old_synth(np.matmul(b.r_eval, half * b.green_mult[..., None]),
                                    (synth,))[0]
                got = vr._stream_of(g, b).values
                assert np.abs(got - stream).max() <= 2e-15 * np.abs(stream).max()


def _traced_peak(call):
    """Peak traced allocation of one call, after one call to warm up."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_band_stage_and_stream_solve_peak_memory(basis):
    # one in-band tendency call and one full-grid stream solve allocate no
    # more than their few grid temporaries, each under glibc's 128 KB mmap
    # threshold: a larger temporary could get fresh pages, and page faults,
    # on every call
    w, bg = next(_band_states(basis))
    y = ds._band_values(w)
    for background in _channels(bg):
        assert _traced_peak(lambda: es.tendency(y, background)) <= 200 * 1024
    g = ds.to_grid(w)
    assert _traced_peak(lambda: vr._stream_of(g, basis)) <= 135 * 1024


def test_rk4_step_peak_memory(basis):
    # one RK4 step holds its four (nd+1, 2, kd) stage results and one stage
    # input besides one stage's temporaries, so it stays under the band
    # stage's bound; its CFL check adds the two collocation grids of psi
    # (80 KB each) and their band product, squared and summed in place
    w, bg = next(_band_states(basis))
    for background in _channels(bg):
        state = es.SolverState(w, background)
        assert _traced_peak(lambda: es.step_rk4(state, 0.01, check_cfl=False)) <= 200 * 1024
        assert _traced_peak(lambda: es.step_rk4(state, 0.01)) <= 256 * 1024


def test_basis_build_peak_memory(basis):
    # the default basis computes its radial derivatives for the band's
    # orders and modes only, into the radial operator, and holds no table of
    # them for every order and mode (348 KB): traced peak 1803 KB, with its
    # 136 KB of Gram matrices, against 2110 KB with that table (and no Gram)
    assert _traced_peak(lambda: ds.DiskBasis(16, 32, basis.grid)) <= 1900 * 1024


def test_run_dt_sequence_matches_four_grid_velocity(basis, monkeypatch):
    # the CFL step from the two psi grids equals, bitwise, the one from the
    # four-grid synthesis, at every refresh of a run with a rotating channel
    ve = sf.VElement(0.5, 1.0, 0.3)
    pert = es.make_perturbation("smooth-random", ve, 1e-2, 2.0, basis,
                                np.random.default_rng(6))
    steps = []

    def recording(state, dt, check_cfl=True, step=es.step_rk4):
        steps.append(dt)
        return step(state, dt, check_cfl)

    monkeypatch.setattr(es, "step_rk4", recording)
    sequences = []
    for velocity in (es.velocity_magnitude, _four_grid_velocity_magnitude):
        monkeypatch.setattr(es, "velocity_magnitude", velocity)
        state = es.steady_state(ve, basis, uniform=0.6)
        state = es.SolverState(ds.SpectralField(basis, state.w.coeffs + pert.coeffs),
                               state.background)
        steps.clear()
        es.run(state, es.RunConfig(t_end=1.0, cadence=3, reference=ve))
        sequences.append(list(steps))
    assert len(sequences[0]) > 6
    assert sequences[0] == sequences[1]


def test_grid_values_are_the_band_synthesis(basis):
    # full_grid_values and stream_grid_values of an in-band state equal
    # to_grid of the whole spectrum (plus the channel profile) bitwise, and a
    # state outside the band is refused at construction
    coarse = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    for b in (basis, coarse):
        for w, bg in _band_states(b):
            for background in _channels(bg):
                state = es.SolverState(w=w, background=background)
                omega = ds.to_grid(w).values + background.profile[:, None]
                psi = ds.to_grid(apply_green(w)).values + background.stream_profile[:, None]
                assert np.array_equal(state.full_grid_values().values, omega)
                assert np.array_equal(state.stream_grid_values().values, psi)
        with pytest.raises(ResolutionError, match="outside the dealias band"):
            es.SolverState(w=_corner_mode(b, 1e-13), background=_bare(b))


def test_solver_import_loads_neither_ascent_nor_cli():
    # a fresh interpreter: the package namespace re-exports nothing, so
    # importing the solver loads only the modules that it uses
    code = (
        "import sys\n"
        "import diskvort.euler_sim\n"
        "print(' '.join(m for m in ('diskvort.variational', 'diskvort.cli') if m in sys.modules))\n"
    )
    src = str(Path(es.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def _mean_value(g):
    """The disk mean of a grid field: its cell-measure sum over pi."""
    return float((g.values * g.grid.measures).sum() / math.pi)


def _grid_diagnose(state, cfg):
    """The trace row as it was taken before the coefficient sums, kept as
    their oracle: energy, L^2, L^p and mean from the omega and psi grids, and
    the distance from orbital_distance of omega less the uniform offset."""
    omega = state.full_grid_values()
    e = energy_grid(omega, state.stream_grid_values())
    l2 = ds.lp_norm(omega, 2)
    lp = l2 if cfg.p == 2 else ds.lp_norm(omega, cfg.p)
    mean = _mean_value(omega)
    uniform = state.background.uniform
    shifted = omega if uniform == 0.0 else ds.GridField(omega.grid, omega.values - uniform)
    dist, beta = sf.orbital_distance(shifted, cfg.reference, cfg.p)
    return es.TraceRow(state.t, e, l2, lp, mean, dist, beta)


# Coefficient trace against the grid oracle on the bases below: energy, L^2
# and L^p relative, the mean and the distance absolute over ||omega||_2 (an
# on-orbit distance is a difference of O(1) fields), beta* in radians.  The
# 24-node basis is under-resolved for the band (its band Gram defect is
# ~1e-6), so there the grid quadrature, not the coefficient sum, is off, by
# up to 2e-8 relative on flat spectra.
_TRACE_TOL = 5e-15
_UNRESOLVED_TRACE_TOL = 1e-7
_BETA_TOL = 1e-13


def _trace_cases(basis):
    """(state, reference, tolerance) over three bases, channel amplitude
    a in {0, 0.5} and uniform c in {0, 0.6}, families (1, 1) and (2, 1) and
    four seeds: the element's cos mode plus a flat band spectrum of size 1
    (far from the orbit) or 1e-8 (near it)."""
    bases = ((basis, _TRACE_TOL),
             (ds.DiskBasis(8, 12, ds.DiskGrid(32, 32)), _TRACE_TOL),
             (ds.DiskBasis(8, 12, ds.DiskGrid(24, 32)), _UNRESOLVED_TRACE_TOL))
    for b, tol in bases:
        rng = np.random.default_rng(53)
        for family in ((1, 1), (2, 1)):
            for a in (0.0, 0.5):
                for c in (0.0, 0.6):
                    ve = sf.VElement(a, 0.8, 1.1, family=family)
                    bg = es.RadialBackground(a, ve.root, b, uniform=c)
                    for _ in range(4):
                        flat = _flat_field(b, rng, band_only=True).coeffs
                        for size in (1.0, 1e-8):
                            w = ds.SpectralField(b, sf.dipole_part(ve, b).coeffs + size * flat)
                            yield es.SolverState(w=w, background=bg), ve, tol


def _check_trace_row(got, expect, tol):
    for name in ("energy", "l2", "lp"):
        assert abs(getattr(got, name) - getattr(expect, name)) <= tol * abs(getattr(expect, name))
    for name in ("mean", "orbital_distance"):
        assert abs(getattr(got, name) - getattr(expect, name)) <= tol * expect.l2
    dbeta = (got.beta_star - expect.beta_star + math.pi) % (2.0 * math.pi) - math.pi
    assert abs(dbeta) <= _BETA_TOL


def test_coefficient_trace_matches_grid_oracle(basis):
    # at p = 2 every column is a coefficient sum and no grid is synthesized
    for state, ve, tol in _trace_cases(basis):
        cfg = es.RunConfig(t_end=1.0, reference=ve)
        state.full_grid_values = None       # a call would raise TypeError
        got = es._diagnose(state, cfg)
        del state.full_grid_values
        _check_trace_row(got, _grid_diagnose(state, cfg), tol)


def test_grid_trace_columns_are_the_oracle(basis):
    # at p in {1.5, 4} the L^p norm and the distance take the omega grid, and
    # so does the distance to a reference whose a differs from the channel's:
    # those columns equal the oracle's bitwise, the rest stay within its bounds
    for i, (state, ve, tol) in enumerate(_trace_cases(basis)):
        if i % 8:                           # one seed and size in eight
            continue
        other = sf.VElement(ve.a + 0.25, ve.b, ve.beta, ve.family)
        for p, ref in ((1.5, ve), (4.0, ve), (2.0, other)):
            cfg = es.RunConfig(t_end=1.0, p=p, reference=ref)
            got, expect = es._diagnose(state, cfg), _grid_diagnose(state, cfg)
            _check_trace_row(got, expect, tol)
            assert (got.orbital_distance, got.beta_star) == \
                (expect.orbital_distance, expect.beta_star)
            assert p == 2.0 or got.lp == expect.lp


def test_step_log_counts_module_level_steps(basis, monkeypatch):
    # rk4_steps is the number of module-level step_rk4 calls, which the
    # benchmark counts, and dt_min / dt_max the range of their dt
    steps = []

    def recording(state, dt, check_cfl=True, step=es.step_rk4):
        steps.append(dt)
        return step(state, dt, check_cfl)

    monkeypatch.setattr(es, "step_rk4", recording)
    ve = sf.VElement(0.5, 1.0, 0.3)
    pert = es.make_perturbation("smooth-random", ve, 1e-2, 2.0, basis,
                                np.random.default_rng(6))
    res = es.run_stability_experiment(ve, pert, 2.0, t_end=0.7, basis=basis, cadence=4)
    assert len(steps) > 4
    assert res.extra["rk4_steps"] == len(steps)
    assert (res.extra["dt_min"], res.extra["dt_max"]) == (min(steps), max(steps))
    assert res.extra["dt_min"] < res.extra["dt_max"]     # the last step is cut to t_end
