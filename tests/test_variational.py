import copy
import math

import numpy as np
import pytest

from diskvort import disk_spectral as ds
from diskvort import variational as vr
from diskvort import steady_family as sf
from diskvort.bessel import bessel_j, bessel_zero
from diskvort.errors import AscentError, NonFiniteFieldError
from diskvort.green_energy import energy, energy_grid


def unit_dipole_element():
    j = bessel_zero(1, 1)
    b = 1.0 / math.sqrt(math.pi * bessel_j(0, j) ** 2 / 2.0)
    return sf.VElement(0.0, b, 0.0)


def test_solve_v1(basis):
    j = bessel_zero(1, 1)
    res = vr.solve_v1(basis)
    assert abs(res.value - j * j) / (j * j) < 1e-6
    assert abs(ds.lp_norm(res.minimizer, 2) - 1.0) < 1e-12
    assert abs(ds.mean_value(res.minimizer)) < 1e-8
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
        (np.abs(f.coeffs) ** 2 * f.basis.parseval * f.basis.roots ** 2).sum()
    )
    assert abs(dirichlet - r1.value) < 1e-5
    # and the minimizer attains the maximum of the dual objective
    g = r1.minimizer
    fmin = ds.from_grid(g, f.basis)
    quad = float(
        (np.abs(fmin.coeffs) ** 2 * f.basis.parseval * f.basis.green_mult).sum()
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
    assert abs(ds.mean_value(r1.minimizer)) <= 1e-13
    assert abs(r1.boundary_constant) > 0.1      # the lift carries weight
    b2 = copy.copy(coarse)
    b2.green_mult = coarse.green_mult.copy()
    b2.green_mult[1:, 0] *= 0.25
    r2 = vr.solve_v2(b2)
    assert r2.block == ("radial", 0)
    assert abs(ds.lp_norm(r2.maximizer, 2) - 1.0) <= 1e-13
    assert abs(ds.mean_value(r2.maximizer)) <= 1e-13
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
    tol = ds.quantization_tolerance(prof_target, grid)
    ok, gap = ds.profiles_close(prof_final, prof_target, tol=tol)
    assert ok, gap


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


def test_ascent_matches_reference(basis, grid):
    # energies and step count of one ascent from a fixed ring shuffle,
    # recorded from the slot-average transplant; the final energy is the
    # one the midpoint transplant before it reached, to rounding
    ve = sf.VElement(0.0, 1.0, 0.4)
    seed = ds.ring_shuffle(sf.v_element_grid(ve, grid), np.random.default_rng(7))
    res = vr.burton_maximize(ve, seed, basis)
    assert res.converged and len(res.energies) - 1 == 77
    reference = {0: 1.9074714765443258e-05, 1: 0.003097803912513607,
                 2: 0.0050435460192467816, 5: 0.00836961966669095,
                 10: 0.008659460910505398, 20: 0.008674903608737024,
                 77: 0.008677545333119235}
    for i, e in reference.items():
        assert abs(res.energies[i] - e) <= 1e-12 * e, i
    midpoint_final = 0.008677545333119234
    assert abs(res.energies[-1] - midpoint_final) <= 1e-12 * midpoint_final


def test_burton_step_makes_no_linalg_solve(basis, grid, monkeypatch):
    ve = sf.VElement(0.0, 1.0, 0.4)
    target = sf.v_element_grid(ve, grid)
    profile = ds.distribution_profile(target)
    state = vr.ascent_start(ds.ring_shuffle(target, np.random.default_rng(7)),
                            profile, basis)
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(a) or solve(*a))
    # with and without the carried stream function: one and two stream solves
    nxt = vr.burton_step(state, basis)
    state.psi = None
    vr.burton_step(state, basis)
    assert calls == [] and nxt.energy > state.energy
