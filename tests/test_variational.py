import copy
import dataclasses
import math

import numpy as np
import pytest

from diskvort import disk_spectral as ds
from diskvort import variational as vr
from diskvort import steady_family as sf
from diskvort.bessel import bessel_j, bessel_zero
from diskvort.errors import AscentError, NonFiniteFieldError, ResolutionError
from diskvort.green_energy import energy, energy_grid
from complex_layout import as_complex


def _mean_value(g):
    """The disk mean of a grid field: its cell-measure sum over pi."""
    return float((g.values * g.grid.measures).sum() / math.pi)


def resample(profile, points):
    """The profile's value at each cumulative-measure point: that of the
    first cell whose right knot lies at or past it."""
    idx = np.searchsorted(profile.cum_measure, points, side="left")
    return profile.values[np.minimum(idx, profile.values.size - 1)]


def quantization_tolerance(profile, grid):
    """Value slack absorbing one cell of measure quantization.

    Cell-level transplantation reproduces a profile only up to the value
    variation across a single cell's measure, so comparisons against
    transplanted fields use this bound (plus the exact-case tolerance).
    """
    mu_max = float(grid.measure_r.max())
    drop = np.max(profile.values - resample(profile, profile.cum_measure + mu_max))
    value_range = float(profile.values[0] - profile.values[-1])
    return float(drop + 1e-6 * max(value_range, 1e-300))


def unit_dipole_element():
    j = bessel_zero(1, 1)
    b = 1.0 / math.sqrt(math.pi * bessel_j(0, j) ** 2 / 2.0)
    return sf.VElement(0.0, b, 0.0)


def test_solve_v1(basis):
    j = bessel_zero(1, 1)
    res = vr.solve_v1(basis)
    assert abs(res.value - j * j) / (j * j) < 1e-6
    assert abs(ds.lp_norm(res.minimizer, 2) - 1.0) < 1e-12
    assert abs(_mean_value(res.minimizer)) < 1e-8
    d, _ = sf.orbital_distance(res.minimizer, unit_dipole_element(), 2.0)
    assert d < 1e-5


def test_solve_v2(basis):
    j = bessel_zero(1, 1)
    res = vr.solve_v2(basis)
    assert abs(res.value - 1.0 / (j * j)) * (j * j) < 1e-6
    assert res.relation_residual < 1e-6
    d, _ = sf.orbital_distance(res.maximizer, unit_dipole_element(), 2.0)
    assert d < 1e-5


def test_duality(basis):
    r1 = vr.solve_v1(basis)
    r2 = vr.solve_v2(basis)
    assert abs(r1.value * r2.value - 1.0) < 1e-6
    # the maximizer's Dirichlet integral reproduces the minimum
    f = r2.maximizer_spectral
    dirichlet = float(
        (np.abs(as_complex(f.coeffs)) ** 2 * f.basis.parseval * f.basis.roots ** 2).sum()
    )
    assert abs(dirichlet - r1.value) < 1e-5
    # and the minimizer attains the maximum of the dual objective
    g = r1.minimizer
    fmin = ds.from_grid(g, f.basis)
    quad = float(
        (np.abs(as_complex(fmin.coeffs)) ** 2 * f.basis.parseval * f.basis.green_mult).sum()
    )
    assert abs(quad - r2.value) < 1e-6


def _inverse_iteration(A, M, x0, max_iters=200, tol=1e-14):
    """Smallest generalized eigenpair of (A, M), both SPD: the iteration
    solve_v1 ran on every block before the closed form."""
    inv = np.linalg.inv(A)
    x = x0 / math.sqrt(x0 @ M @ x0)
    rho_prev = math.inf
    for _ in range(max_iters):
        x = inv @ (M @ x)
        x = x / math.sqrt(x @ M @ x)
        rho = float(x @ A @ x)
        if abs(rho - rho_prev) <= tol * max(abs(rho), 1.0):
            return rho, x
        rho_prev = rho
    raise RuntimeError("inverse iteration did not settle")


def _power_block_radial(basis, rng, tol=1e-12, max_iters=200000):
    """Top eigenpair of G on the zero-mean n = 0 block by power iteration:
    the solver solve_v2 ran before the closed form."""
    mult, norm2, mean = basis.green_mult[0], basis.norm2[0], basis.mean0
    proj_den = float((mean**2 / norm2).sum())

    def project(c):
        return c - float((c * mean).sum()) / proj_den * mean / norm2

    c = project(rng.standard_normal(basis.k_radial))
    c /= math.sqrt(float((c**2 * norm2).sum()))
    rho_prev = -math.inf
    for _ in range(max_iters):
        c = project(mult * c)
        c /= math.sqrt(float((c**2 * norm2).sum()))
        rho = float((c**2 * norm2 * mult).sum())
        if abs(rho - rho_prev) <= tol:
            return rho, c
        rho_prev = rho
    raise RuntimeError("power iteration did not settle")


@pytest.fixture(scope="module", params=["default", "coarse"])
def any_basis(request, basis):
    if request.param == "default":
        return basis
    return ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))


def test_radial_block_wins_when_n_ge_1_blocks_are_moved():
    # on the test bases the cos block wins, so the ("radial", 0) result
    # branch runs only on a basis whose n >= 1 blocks are pushed away:
    # roots doubled raise their v1 minima, multipliers quartered lower
    # their v2 maxima
    coarse = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    b1 = copy.copy(coarse)
    b1.roots = coarse.roots.copy()
    b1.roots[1:, 0] *= 2.0
    r1 = vr.solve_v1(b1)
    assert r1.block == ("radial", 0)
    assert abs(ds.lp_norm(r1.minimizer, 2) - 1.0) <= 1e-13
    assert abs(_mean_value(r1.minimizer)) <= 1e-13
    assert abs(r1.boundary_constant) > 0.1      # the lift carries weight
    b2 = copy.copy(coarse)
    b2.green_mult = coarse.green_mult.copy()
    b2.green_mult[1:, 0] *= 0.25
    r2 = vr.solve_v2(b2)
    assert r2.block == ("radial", 0)
    assert abs(ds.lp_norm(r2.maximizer, 2) - 1.0) <= 1e-13
    assert abs(_mean_value(r2.maximizer)) <= 1e-13
    # the returned row 0 is the block's eigenvector, with unit Parseval norm
    # (the grid normalization above differs from it by the 24-node quadrature
    # error, ~1e-9): twice its energy is the maximum, and the eigen-relation
    # holds in coefficient space (it read 0.198 when checked on the grid)
    f = r2.maximizer_spectral
    assert abs(ds.spectral_norm2(f) - 1.0) <= 1e-13
    assert abs(2.0 * energy(f) - r2.value) <= 1e-13 * r2.value
    assert r2.relation_residual <= 1e-13


def test_radial_block_v1_matches_inverse_iteration(any_basis):
    b = any_basis
    A0, M0 = vr._radial_pencil(b)
    mean_vec = np.append(b.mean0, 0.0)
    Z = vr._zero_mean_basis(mean_vec)
    rho_it, _ = _inverse_iteration(Z.T @ A0 @ Z, Z.T @ M0 @ Z, np.ones(b.k_radial))
    rho, vec = vr._radial_block_v1(b)
    assert abs(rho - rho_it) <= 1e-12 * rho_it
    assert abs(mean_vec @ vec) <= 1e-13 * np.linalg.norm(mean_vec) * np.linalg.norm(vec)
    assert abs((vec @ A0 @ vec) / (vec @ M0 @ vec) - rho) <= 1e-13 * rho


def test_radial_block_v2_matches_power_iteration(any_basis):
    b = any_basis
    rho_it, _ = _power_block_radial(b, np.random.default_rng(0))
    rho, c = vr._radial_block_v2(b)
    assert abs(rho - rho_it) <= 1e-10 * rho_it
    weight = np.sqrt(b.norm2[0])
    assert abs(c @ b.mean0) <= 1e-13 * np.linalg.norm(b.mean0 / weight) * np.linalg.norm(c * weight)
    quotient = float((c**2 * b.norm2[0] * b.green_mult[0]).sum() / (c**2 * b.norm2[0]).sum())
    assert abs(quotient - rho) <= 1e-13 * rho


def test_dual_solvers_are_closed_form(any_basis, monkeypatch):
    calls = {"inv": 0, "eigh": 0}
    inv, eigh = np.linalg.inv, np.linalg.eigh

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "inv", counted("inv", inv))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", eigh))
    for solve in (vr.solve_v1, vr.solve_v2):
        calls.update(inv=0, eigh=0)
        solve(any_basis)
        assert calls["inv"] == 0 and calls["eigh"] <= 1, (solve.__name__, calls)


def test_burton_step_constant_profile(basis, grid):
    g = ds.GridField(grid, np.full((grid.n_r, grid.n_theta), 2.5))
    profile = ds.distribution_profile(g)
    state = vr.ascent_start(g, profile, basis)
    nxt = vr.burton_step(state, basis)
    assert np.abs(nxt.iterate.values - 2.5).max() < 1e-14


def test_burton_step_energy_increases_from_shuffle(basis, grid, rng):
    ve = sf.VElement(0.0, 1.0, 0.3)
    target = sf.v_element_grid(ve, grid)
    profile = ds.distribution_profile(target)
    seed = ds.ring_shuffle(target, rng)
    state = vr.ascent_start(seed, profile, basis)
    nxt = vr.burton_step(state, basis)
    assert nxt.energy > state.energy + 1e-6


def test_burton_step_raises_on_decrease(basis, grid):
    ve = sf.VElement(0.0, 1.0, 0.0)
    target = sf.v_element_grid(ve, grid)
    profile = ds.distribution_profile(target)
    state = vr.ascent_start(target, profile, basis)
    # lie about the current energy to trip the decrease guard, which holds
    # from iteration 1 on
    state.energy = state.energy + 1.0
    state.iteration = 1
    with pytest.raises(RuntimeError) as exc:
        vr.burton_step(state, basis)
    assert isinstance(exc.value, AscentError)


def test_entry_step_may_lower_the_energy(basis, grid):
    # a seed outside the profile's class (a scaled rotated element) loses
    # energy on its first step, its entry into the class; that step used to
    # raise AscentError (0.01952 -> 0.008677) although the ascent converges
    ve = sf.VElement(0.0, 1.0, 0.0)
    seed = ds.GridField(grid, 1.5 * sf.v_element_grid(ve.rotated(0.5), grid).values)
    res = vr.burton_maximize(ve, seed, basis)
    assert res.energies[1] < 0.5 * res.energies[0]
    assert res.converged
    assert res.distance <= 1e-3 * ds.lp_norm(sf.v_element_grid(ve, grid), 2)
    gains = np.diff(res.energies[1:])
    assert gains.min() >= -1e-12 * max(1.0, res.energies[-1])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_ascent_energy_raises(basis, grid):
    # an overflowing energy is NaN, which the decrease guard cannot see:
    # burton-maximize at a = 1e300 used to report every seed as converged
    lamb = sf.v_element_grid(sf.VElement(0.0, 1.0, 0.0), grid)
    seed = ds.GridField(grid, 1e300 * lamb.values)
    state = vr.ascent_start(seed, ds.distribution_profile(seed), basis)
    with pytest.raises(NonFiniteFieldError, match="ascent energy"):
        vr.burton_step(state, basis)


def test_burton_fixed_point_near_element(basis, grid):
    ve = sf.VElement(0.5, 1.0, 0.9)
    target = sf.v_element_grid(ve, grid)
    res = vr.burton_maximize(ve, target, basis, max_iters=50)
    assert res.converged
    nrm = ds.lp_norm(target, 2)
    assert res.distance <= 1e-3 * nrm
    # the iterate keeps the seed's rearrangement profile at cell level
    prof_target = ds.distribution_profile(target)
    prof_final = ds.distribution_profile(res.final)
    tol = quantization_tolerance(prof_target, grid)
    # compared at 1000 common measure points
    pts = (np.arange(1, 1001) - 0.5) * (math.pi / 1000)
    gap = np.abs(resample(prof_final, pts) - resample(prof_target, pts)).max()
    assert gap <= tol, gap


def test_burton_rotated_seed(basis, grid):
    # a rotated element is already a maximizer; its first step moves it into
    # the class on the grid, after which the ascent stalls on the orbit
    ve = sf.VElement(0.5, 1.0, 0.9)
    seed = sf.v_element_grid(ve.rotated(2.0), grid)
    res = vr.burton_maximize(ve, seed, basis)
    assert res.converged
    assert res.distance <= 1e-3 * ds.lp_norm(seed, 2)
    # iterates may drift along the orbit; hold the phase to one cell
    assert abs((res.beta % (2 * math.pi)) - 2.0) < 2 * math.pi / grid.n_theta


def test_burton_shuffle_converges_to_orbit(basis, grid, rng):
    ve = sf.VElement(0.0, 1.3, 0.7)
    target = sf.v_element_grid(ve, grid)
    nrm = ds.lp_norm(target, 2)
    e_target = energy_grid(target, vr._stream_of(target, basis))
    seed = ds.ring_shuffle(target, rng)
    res = vr.burton_maximize(ve, seed, basis)
    assert res.converged
    assert res.distance <= 1e-3 * nrm
    assert res.energies[-1] >= e_target * (1 - 1e-6)
    # a ring shuffle lies in the class, so every step is monotone to rounding
    drops = [res.energies[i] - res.energies[i + 1] for i in range(len(res.energies) - 1)]
    assert max(drops, default=0.0) <= 1e-12 * max(1.0, abs(res.energies[-1]))
    assert res.energies[-1] >= max(res.energies) - 1e-12 * max(1.0, abs(res.energies[-1]))


def test_burton_radial_stall_is_reported(basis, grid, rng):
    # elements dominated by the radial component freeze the discrete ascent
    # at a radially arranged state; the result reports the distance honestly
    ve = sf.VElement(1.0, 0.3, 0.0)
    target = sf.v_element_grid(ve, grid)
    seed = ds.ring_shuffle(target, rng)
    res = vr.burton_maximize(ve, seed, basis, max_iters=200)
    assert res.distance > 1e-2 * ds.lp_norm(target, 2)


def _plain_ascent(ve, seed, basis, max_iters=600):
    """Energies of burton_maximize's ascent with every step plain: burton_step
    on states whose psi_prev is cleared, under the same 8-step stall rule;
    and whether that rule stopped it."""
    profile = ds.distribution_profile(sf.v_element_grid(ve, basis.grid))
    state = vr.ascent_start(seed, profile, basis)
    energies = [state.energy]
    stall = 0
    for _ in range(max_iters):
        state = vr.burton_step(dataclasses.replace(state, psi_prev=None), basis)
        gain = state.energy - energies[-1]
        energies.append(state.energy)
        stall = stall + 1 if gain <= 1e-12 * max(1.0, abs(state.energy)) else 0
        if stall == 8:
            break
    return energies, stall == 8


def test_ascent_matches_reference(basis, grid):
    # energies and step count of one plain ascent from a fixed ring shuffle,
    # recorded from the slot-average transplant; the final energy is the
    # one the midpoint transplant before it reached, to rounding.  The led
    # ascent from the same seed reaches that energy in 33 steps
    ve = sf.VElement(0.0, 1.0, 0.4)
    seed = ds.ring_shuffle(sf.v_element_grid(ve, grid), np.random.default_rng(7))
    energies, converged = _plain_ascent(ve, seed, basis)
    assert converged and len(energies) - 1 == 77
    reference = {0: 1.9074714765443258e-05, 1: 0.003097803912513607,
                 2: 0.0050435460192467816, 5: 0.00836961966669095,
                 10: 0.008659460910505398, 20: 0.008674903608737024,
                 77: 0.008677545333119235}
    for i, e in reference.items():
        assert abs(energies[i] - e) <= 1e-12 * e, i
    midpoint_final = 0.008677545333119234
    assert abs(energies[-1] - midpoint_final) <= 1e-12 * midpoint_final
    res = vr.burton_maximize(ve, seed, basis)
    assert res.converged and len(res.energies) - 1 == 33
    assert abs(res.energies[-1] - midpoint_final) <= 1e-12 * midpoint_final


@pytest.mark.parametrize("trial_energy", [-math.inf, math.nan], ids=["lower", "nan"])
def test_rejected_lead_trial_is_the_plain_step(basis, grid, monkeypatch, trial_energy):
    # a lead trial whose energy reads below the state's, or NaN, is dropped,
    # and the step is the plain transplant onto psi, bit for bit
    ve = sf.VElement(0.0, 1.0, 0.4)
    target = sf.v_element_grid(ve, grid)
    state = vr.ascent_start(ds.ring_shuffle(target, np.random.default_rng(7)),
                            ds.distribution_profile(target), basis)
    state = vr.burton_step(vr.burton_step(state, basis), basis)
    plain = vr.burton_step(dataclasses.replace(state, psi_prev=None), basis)
    energies = []
    energy_grid = vr.energy_grid

    def trial_misread(g, psi):
        energies.append(energy_grid(g, psi))
        return trial_energy if len(energies) == 1 else energies[-1]

    monkeypatch.setattr(vr, "energy_grid", trial_misread)
    got = vr.burton_step(state, basis)
    # read truly, the trial would have been kept
    assert len(energies) == 2 and energies[0] >= state.energy
    assert np.array_equal(got.iterate.values, plain.iterate.values)
    assert np.array_equal(got.psi.values, plain.psi.values)
    assert (got.energy, got.iteration) == (plain.energy, plain.iteration)
    assert got.psi_prev is state.psi and got.rejected == plain.rejected + 1


def test_led_ascent_reaches_the_plain_energy_in_fewer_steps(basis, grid):
    # criterion 5's three a = 0 elements, three ring-shuffled seeds each: the
    # led ascent is monotone to rounding and ends at the plain ascent's final
    # energy, in fewer steps
    rng = np.random.default_rng(42)
    for ve in (sf.VElement(0.0, 1.0, 0.0), sf.VElement(0.0, 0.7, 1.3),
               sf.VElement(0.0, 1.6, 2.5)):
        target = sf.v_element_grid(ve, grid)
        for _ in range(3):
            seed = ds.ring_shuffle(target, rng)
            res = vr.burton_maximize(ve, seed, basis)
            plain, converged = _plain_ascent(ve, seed, basis)
            assert res.converged and converged
            e = plain[-1]
            assert np.diff(res.energies).min() >= -1e-12 * max(1.0, e)
            assert abs(res.energies[-1] - e) <= 1e-12 * e
            assert len(res.energies) < len(plain)


def test_burton_step_makes_no_linalg_solve(basis, grid, monkeypatch):
    ve = sf.VElement(0.0, 1.0, 0.4)
    target = sf.v_element_grid(ve, grid)
    profile = ds.distribution_profile(target)
    state = vr.ascent_start(ds.ring_shuffle(target, np.random.default_rng(7)),
                            profile, basis)
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(a) or solve(*a))
    # the entry step and one in-class step, each on its carried stream function
    nxt = vr.burton_step(state, basis)
    vr.burton_step(nxt, basis)
    assert calls == [] and nxt.energy > state.energy


def test_ascent_refuses_a_seed_on_another_grid():
    # a seed on another grid than the basis raises ResolutionError before the
    # first step, as from_grid and plain_distance do
    basis = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    ve = sf.VElement(0.0, 1.0, 0.4)
    seed = ds.ring_shuffle(sf.v_element_grid(ve, ds.DiskGrid(24, 48)), np.random.default_rng(7))
    with pytest.raises(ResolutionError):
        vr.burton_maximize(ve, seed, basis, max_iters=3)
