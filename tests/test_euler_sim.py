import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diskvort import bessel
from diskvort import disk_spectral as ds
from diskvort import euler_sim as es
from diskvort import steady_family as sf
from diskvort.bessel import _j_neighbours, bessel_j, bessel_j_prime
from diskvort.errors import CFLError, NonFiniteFieldError, ResolutionError
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
    assert np.abs(es.tendency(f).coeffs).max() <= 1e-12


def test_tendency_matches_kernel_fd_oracle(basis):
    # independent oracle: stream function by kernel quadrature, derivatives
    # by grid finite differences; agreement is O(h^2)
    grid = basis.grid
    eps = 0.05
    f = ds.SpectralField(
        basis,
        ds.single_mode(basis, 1, 1, 1.0).coeffs + eps * ds.single_mode(basis, 2, 1, 1.0).coeffs,
    )
    t_spec = ds.to_grid(es.tendency(f)).values
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
    t2 = ds.to_grid(es.tendency(f2)).values
    ratio = np.abs(t_spec[mask]).max() / np.abs(t2[mask]).max()
    assert abs(ratio - 2.0) < 0.05


def test_rk4_order(basis):
    mix = es.mixed_nonsteady_field(basis)
    st = es.SolverState(w=mix)
    ref = st
    for _ in range(8):
        ref = es.step_rk4(ref, 0.05 / 8, check_cfl=False)
    one = es.step_rk4(st, 0.05, check_cfl=False)
    half = es.step_rk4(es.step_rk4(st, 0.025, check_cfl=False), 0.025, check_cfl=False)
    e1 = np.abs(one.w.coeffs - ref.w.coeffs).max()
    e2 = np.abs(half.w.coeffs - ref.w.coeffs).max()
    assert 12.0 < e1 / e2 < 20.0


def test_steady_state_under_steps(basis):
    ve = sf.VElement(0.5, 1.0, 0.7)
    state = es.steady_state(ve, basis)
    w0 = state.w.coeffs.copy()
    for _ in range(100):
        state = es.step_rk4(state, 0.05, check_cfl=False)
    drift = np.abs(state.w.coeffs - w0).max()
    assert drift <= 1e-10


def test_cfl_violation_raises(basis):
    ve = sf.VElement(0.5, 1.0, 0.7)
    state = es.steady_state(ve, basis)
    with pytest.raises(CFLError):
        es.step_rk4(state, 1e3)


def test_rotation_covariance(basis, rng):
    # evolving then rotating equals rotating then evolving
    pert = es.make_perturbation("smooth-random", sf.VElement(0.0, 1.0, 0.0), 0.05, 2.0, basis, rng)
    st_a = es.SolverState(w=pert)
    st_b = es.SolverState(w=ds.rotate(pert, 0.9))
    for _ in range(10):
        st_a = es.step_rk4(st_a, 0.05, check_cfl=False)
        st_b = es.step_rk4(st_b, 0.05, check_cfl=False)
    rotated_after = ds.rotate(st_a.w, 0.9)
    assert np.abs(rotated_after.coeffs - st_b.w.coeffs).max() < 1e-10


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


def test_rotating_run_omega_zero_matches_stability(basis, rng):
    ve = sf.VElement(0.3, 1.0, 0.2)
    pert = es.make_perturbation("mode-injection", ve, 1e-4, 2.0, basis,
                                np.random.default_rng(3))
    a = es.run_stability_experiment(ve, pert, 2.0, t_end=2.0, basis=basis)
    b = es.run_rotating_orbit_experiment(ve, 0.0, pert, 2.0, t_end=2.0, basis=basis)
    for ra, rb in zip(a.trace, b.trace):
        assert abs(ra.energy - rb.energy) < 1e-14
        assert abs(ra.orbital_distance - rb.orbital_distance) < 1e-12


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


def test_drivers_without_basis_raise_value_error():
    # the stability driver used to die on None.basis with AttributeError
    ve = sf.VElement(0.4, 1.0, 0.3)
    with pytest.raises(ValueError, match="need a basis"):
        es.run_stability_experiment(ve, None, 2.0)
    with pytest.raises(ValueError, match="need a basis"):
        es.run_rotating_orbit_experiment(ve, 0.3, None, 2.0)


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
    for value in (0.0, -0.4, math.nan, 1.2, math.inf):
        with pytest.raises(ValueError, match="cfl_safety"):
            es.RunConfig(t_end=1.0, cfl_safety=value)
    assert es.RunConfig(t_end=1.0, cfl_safety=0.4).cfl_safety == 0.4
    assert es.RunConfig(t_end=1.0, cfl_safety=1.0).cfl_safety == 1.0


def test_run_config_rejects_silent_no_op_runs():
    # NaN t_end would end the run after its first row, and cadence 0
    # divided by zero in run()
    for t_end in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t_end"):
            es.RunConfig(t_end=t_end)
    for cadence in (0, -3, 2.5, math.nan, "10"):
        with pytest.raises(ValueError, match="cadence"):
            es.RunConfig(t_end=1.0, cadence=cadence)
    assert es.RunConfig(t_end=1.0, cadence=1).cadence == 1
    assert es.RunConfig(t_end=1.0, cadence=np.int64(3)).cadence == 3


def _corner_mode(basis, value=1.0):
    """A field whose one nonzero coefficient sits at (N, K), outside the band."""
    c = np.zeros((basis.n_modes + 1, basis.k_radial), complex)
    c[basis.n_modes, -1] = value
    return ds.SpectralField(basis, c)


def test_band_limit_enforcement(basis):
    with pytest.raises(ResolutionError):
        es.require_band_limited(_corner_mode(basis))


def test_solver_rejects_fields_outside_the_band(basis):
    ve = sf.VElement(0.5, 1.0, 0.3)
    state = es.steady_state(ve, basis)
    rotating = es.steady_state(ve, basis, uniform=0.6)
    corner = _corner_mode(basis)
    w = ds.SpectralField(basis, state.w.coeffs + _corner_mode(basis, 1e-13).coeffs)
    for f in (corner, w):
        with pytest.raises(ResolutionError, match="outside the dealias band"):
            es.tendency(f)
        for bg in (state.background, rotating.background):
            with pytest.raises(ResolutionError, match="outside the dealias band"):
                es.tendency(f, bg)
            with pytest.raises(ResolutionError, match="outside the dealias band"):
                es.velocity_magnitude(f, bg)


def test_experiments_zero_a_sub_tolerance_residue(basis):
    # a perturbation with a 1e-13-relative coefficient at (N, K) passes
    # require_band_limited and runs as its band_limit, float for float
    ve = sf.VElement(0.5, 1.0, 0.3)
    pert = es.make_perturbation("smooth-random", ve, 1e-3, 2.0, basis,
                                np.random.default_rng(8))
    scale = np.abs(pert.coeffs).max()
    dirty = ds.SpectralField(basis, pert.coeffs + _corner_mode(basis, 1e-13 * scale).coeffs)
    es.require_band_limited(dirty)
    assert not ds._in_band(dirty)
    assert np.array_equal(es.band_limit(dirty).coeffs, pert.coeffs)
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
    state = es.run(state, cfg)
    last = state.diagnostics[-1]
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
    r = b.grid.r
    grids = [np.zeros((r.size, theta.size)) for _ in range(4)]
    for n in range(nd + 1):
        weight = 1.0 if n == 0 else 2.0
        cos, sin = np.cos(n * theta), np.sin(n * theta)
        j = b.roots[n, :kd]
        jr = np.outer(r, j)
        value, slope = bessel_j(n, jr), j * bessel_j_prime(n, jr)
        for i, c in ((0, w.coeffs[n, :kd]), (2, w.coeffs[n, :kd] / j**2)):
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


def _check_band_grids(basis, full):
    """_band_grids on the collocation tables (full) or on the subgrid tables
    against the pointwise oracle, with no channel, a J_0 channel and one with
    a uniform offset too; on the collocation grid also velocity_magnitude."""
    coarse = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    for b in (basis, coarse):
        kit = b.band_kit
        s = 1 if full else kit["stride"]
        tables = ((kit["synth_r"], kit["synth_t"]) if full
                  else (kit["sub_synth_r"], kit["sub_synth_t"]))
        for w, bg in _band_states(b):
            cv = ds._band_values(w)
            for background in _channels(bg):
                got = es._band_grids(cv, kit, *tables, background)
                expect = _pointwise_band_grids(w, b.grid.theta[::s], background)
                for g, e in zip(got, expect):
                    assert g.shape == (b.grid.n_r, b.grid.n_theta // s)
                    assert np.abs(g - e).max() <= 1e-14 * np.abs(e).max()
                if full:
                    umax = np.sqrt(expect[2]**2 + expect[3]**2).max()
                    assert abs(es.velocity_magnitude(w, background) - umax) <= 1e-14 * umax


def test_band_grids_match_pointwise_oracle(basis):
    # the collocation-grid synthesis that velocity_magnitude uses
    _check_band_grids(basis, full=True)


def test_band_subgrids_are_collocation_columns(basis):
    # the subgrid synthesis of tendency, at every s-th collocation angle
    _check_band_grids(basis, full=False)


def _band_analyze(basis):
    """Columns cos(n theta), -sin(n theta), n <= nd, of the basis DFT analysis
    table: the band analysis on the whole collocation grid."""
    N, nd = basis.n_modes, basis.dealias_band()[0]
    return np.hstack([basis.dft_analyze[:, : nd + 1], basis.dft_analyze[:, N + 1: N + nd + 2]])


def _full_grid_tendency(w, background, rotation=0.0):
    """The in-band tendency as it ran on every collocation angle before the
    subgrid, and the largest coefficient of either projected product term.

    A nonzero ``rotation`` adds a uniform vorticity 2 * rotation as the
    solver once did, outside the channel: its stream function joins the mean
    fix, and its rigid advection enters as the spectral term
    -rotation * i n * w."""
    b = w.basis
    kit, nr = b.band_kit, b.grid.n_r
    nd, kd = kit["nd"], kit["kd"]
    analyze = _band_analyze(b)
    c = w.coeffs[: nd + 1, :kd]
    cpsi = c * kit["mult"]
    x = np.stack([c.real, c.imag, cpsi.real, cpsi.imag], axis=2)
    m = np.matmul(kit["radial"], x).transpose(1, 2, 0)
    sr, st = kit["synth_r"], kit["synth_t"]
    dr_om, dth_om = m[:nr, 0:2].reshape(nr, -1) @ sr, m[nr:, 0:2].reshape(nr, -1) @ st
    dr_psi, dth_psi = m[:nr, 2:4].reshape(nr, -1) @ sr, m[nr:, 2:4].reshape(nr, -1) @ st
    if background is not None:
        dr_om = dr_om + background.d_r_profile[:, None]
        dr_psi = dr_psi + background.stream_d_r_profile[:, None]

    def project(values):
        F = (values @ analyze).reshape(-1, 2, nd + 1).transpose(2, 0, 1)
        cn = np.matmul(kit["proj"], F)
        coeffs = np.zeros((b.n_modes + 1, b.k_radial), complex)
        coeffs[: nd + 1, :kd] = cn[..., 0] + 1j * cn[..., 1]
        return coeffs

    terms = project(dr_psi * dth_om), project(dth_psi * dr_om)
    coeffs = project(dr_psi * dth_om - dth_psi * dr_om)
    # the mean fix as a 2 x 2 solve
    M = es._MEAN_FIX_MODES
    defect = float((coeffs[0].real * b.mean0).sum())
    psi = w.coeffs[0].real[:M] * b.green_mult[0, :M]
    if background is not None:
        psi = psi + background.stream_row
    # the n = 0 coefficients of 1 - r^2; the offset's stream function is
    # rotation (1 - r^2) / 2
    para = 4.0 * b.mean0[:M] / (b.roots[0, :M] ** 2 * b.norm2[0, :M])
    psi = psi + 0.5 * rotation * para
    rows = np.vstack([b.mean0[:M], psi * b.norm2[0, :M]])
    G = rows @ rows.T
    G[np.diag_indices(2)] += 1e-14 * max(G[0, 0], G[1, 1], 1e-30)
    coeffs[0, :M] -= rows.T @ np.linalg.solve(G, np.array([defect, 0.0]))
    coeffs = coeffs - rotation * (1j * np.arange(b.n_modes + 1)[:, None]) * w.coeffs
    return coeffs, max(np.abs(t).max() for t in terms)


def _channels(bg):
    """No channel, the channel bg, and bg with a uniform offset 0.6."""
    return None, bg, es.RadialBackground(bg.amplitude, bg.root, bg.basis, uniform=0.6)


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
                got = es.tendency(w, background).coeffs
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
                    got = es.tendency(w, channel).coeffs
                    rigid = np.abs(omega * np.arange(b.n_modes + 1)[:, None] * w.coeffs).max()
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
        got = bg.profile, bg.stream_profile, bg.d_r_profile, bg.stream_d_r_profile
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


def test_stream_row_matches_closed_form(basis):
    # the basis' analysis of the stream profile against the closed form it
    # replaced: within 2e-16 on the default basis and 2e-14 on 24 nodes
    coarse = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    for b, tol in ((basis, 2e-16), (coarse, 2e-14)):
        for family in ((1, 1), (0, 1), (2, 1), (1, 2)):
            root = sf.VElement(0.0, 1.0, 0.0, family=family).root
            for c in (0.0, 0.6):
                bg = es.RadialBackground(0.5, root, b, uniform=c)
                expect = _closed_form_stream_row(bg)[: es._MEAN_FIX_MODES]
                assert np.abs(bg.stream_row - expect).max() <= tol, (family, c)


def test_background_derivatives_built_at_construction(basis):
    r = basis.grid.r
    for amplitude, root in ((0.5, sf.j_11()), (-1.3, 3.7), (0.0, 3.7)):
        for c in (0.0, 0.6):
            bg = es.RadialBackground(amplitude, root, basis, uniform=c)
            j0, j1 = bessel_j(0, root * r), bessel_j(1, root * r)
            # at c = 0 bit-identical to the expressions evaluated per call before
            assert np.array_equal(bg.d_r_profile, -amplitude * root * j1)
            assert np.array_equal(bg.stream_d_r_profile, -amplitude * j1 / root - 0.5 * c * r)
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


def _oracle_band_kit(basis):
    """The band operators as the first tendency call built them before they
    moved into DiskBasis construction."""
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


def test_band_operators_built_with_basis(basis, monkeypatch):
    oracle = _oracle_band_kit(basis)
    assert set(basis.band_kit) == set(oracle)
    for key, value in oracle.items():
        assert np.array_equal(basis.band_kit[key], value), key
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
    # regularized system, with no channel, a J_0 channel and one with a
    # uniform offset too
    ve = sf.VElement(0.5, 1.0, 0.3)
    state = es.steady_state(ve, basis)
    pert = es.make_perturbation("smooth-random", ve, 0.05, 2.0, basis,
                                np.random.default_rng(3))
    w = ds.SpectralField(basis, state.w.coeffs + pert.coeffs)
    m = es._MEAN_FIX_MODES
    for bg in _channels(state.background):
        kit = basis.band_kit
        raw = ds._embed(ds._project(np.random.default_rng(4).standard_normal(
            (basis.grid.n_r, basis.grid.n_theta)), _band_analyze(basis), kit["proj"]), basis)
        got = raw.copy()
        es._mean_fix(got[0].real, es._Band(basis, ds._band_values(w)), bg)
        # the rows the correction spans: mean0 and the stream function
        # weighted by norm2, the channel's from its closed form
        psi = w.coeffs[0].real * basis.green_mult[0]
        if bg is not None:
            psi = psi + _closed_form_stream_row(bg)
        rows = np.vstack([basis.mean0[:m], psi[:m] * basis.norm2[0, :m]])
        G = rows @ rows.T
        G[np.diag_indices(2)] += 1e-14 * max(G[0, 0], G[1, 1], 1e-30)
        defect = float((raw[0].real * basis.mean0).sum())
        alpha = np.linalg.solve(G, np.array([defect, 0.0]))
        expect = raw.copy()
        expect[0, :m] -= rows.T @ alpha
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(raw[0, :m]).max()
        # the corrected tendency has zero disk mean, up to the regularization
        assert abs((got[0].real * basis.mean0).sum()) <= 1e-12 * abs(defect)


def test_run_raises_on_non_finite_state(basis):
    state = es.steady_state(sf.VElement(0.5, 1.0, 0.0), basis)
    c = state.w.coeffs.copy()
    c[1, 0] = np.nan
    state.w = ds.SpectralField(basis, c)
    with pytest.raises(NonFiniteFieldError):
        es.run(state, es.RunConfig(t_end=1.0))
    assert state.diagnostics == []          # nothing was recorded


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


def _four_grid_velocity_magnitude(w, background=None):
    """Max |u| as it was taken before: all four band grids synthesized on the
    collocation grid, the two of psi read."""
    kit = w.basis.band_kit
    _, _, dr_psi, dth_psi = es._band_grids(ds._band_values(w), kit, kit["synth_r"],
                                           kit["synth_t"])
    if background is not None:
        dr_psi = dr_psi + background.stream_d_r_profile[:, None]
    return float(np.sqrt(dr_psi**2 + dth_psi**2).max())


def test_band_stages_match_spectral_field_stages(basis):
    # the stages on the real band array reproduce the SpectralField stages
    # bitwise over 20 steps, with no channel, a J_0 channel and one with a
    # uniform offset too
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
                band = es.tendency(es._Band(b, ds._band_values(w)), background)
                full = es.tendency(w, background).coeffs
                assert band.shape == (nd + 1, kd, 2)
                assert np.array_equal(band[..., 0], full[: nd + 1, :kd].real)
                assert np.array_equal(band[..., 1], full[: nd + 1, :kd].imag)


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
        state.w = ds.SpectralField(basis, state.w.coeffs + pert.coeffs)
        steps.clear()
        es.run(state, es.RunConfig(t_end=1.0, cadence=3, reference=ve))
        sequences.append(list(steps))
    assert len(sequences[0]) > 6
    assert sequences[0] == sequences[1]


def test_grid_values_are_the_band_synthesis(basis):
    # full_grid_values and stream_grid_values synthesize the band only; on an
    # in-band state they equal to_grid of the whole spectrum (plus the channel
    # profile) bitwise, and a state outside the band is refused
    coarse = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    for b in (basis, coarse):
        for w, bg in _band_states(b):
            for background in _channels(bg):
                state = es.SolverState(w=w, background=background)
                omega = ds.to_grid(w).values
                psi = ds.to_grid(apply_green(w)).values
                if background is not None:
                    omega = omega + background.profile[:, None]
                    psi = psi + background.stream_profile[:, None]
                assert np.array_equal(state.full_grid_values().values, omega)
                assert np.array_equal(state.stream_grid_values().values, psi)
        dirty = es.SolverState(w=_corner_mode(b, 1e-13))
        for values in (dirty.full_grid_values, dirty.stream_grid_values):
            with pytest.raises(ResolutionError, match="outside the dealias band"):
                values()


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
