import math

import numpy as np
import pytest

from diskvort import disk_spectral as ds
from diskvort import euler_sim as es
from diskvort import steady_family as sf
from diskvort.bessel import bessel_j, bessel_zero
from diskvort.errors import ResolutionError


def test_normal_form():
    ve = sf.VElement(1.0, -2.0, 0.5)
    assert ve.b == 2.0
    assert abs(ve.beta - (0.5 + math.pi)) < 1e-15


def test_make_v_element_dipole_only(basis):
    # a pure-dipole element is one spectral mode: row 1, first zero, b / 2
    f = sf.dipole_part(sf.VElement(0.0, 1.0, 0.0), basis)
    c = f.coeffs.copy()
    assert abs(c[1, 0] - 0.5) < 1e-15
    c[1, 0] = 0.0
    assert np.abs(c).max() == 0.0


def test_radial_projection_matches_scalar_loop(basis):
    # the basis' n = 0 analysis of 0.7 J_0(lam r) against the per-zero
    # closed-form cross integrals
    r = basis.grid.r
    for lam in (sf.j_11(), bessel_zero(2, 1), 3.7):
        loop = np.array([2.0 * 0.7 * z * bessel_j(0, lam)
                         / ((z * z - lam * lam) * bessel_j(1, z))
                         for z in basis.roots[0]])
        got = basis.analysis[0] @ (0.7 * bessel_j(0, lam * r))
        assert np.abs(got - loop).max() <= 5e-15, lam
    # on a J_0 zero the projection is one mode
    one_hot = np.zeros(basis.k_radial)
    one_hot[2] = 0.7
    got = basis.analysis[0] @ (0.7 * bessel_j(0, basis.roots[0, 2] * r))
    assert np.abs(got - one_hot).max() <= 1e-15


def test_grid_evaluation_matches_closed_form(basis, grid):
    ve = sf.VElement(0.8, 1.2, 1.9)
    g = sf.v_element_grid(ve, grid)
    j = ve.root
    expect = (
        0.8 * bessel_j(0, j * grid.r)[:, None]
        + 1.2 * bessel_j(1, j * grid.r)[:, None] * np.cos(grid.theta + 1.9)[None, :]
    )
    assert np.abs(g.values - expect).max() < 1e-8


def test_spectral_dipole_part_matches_grid(basis, grid):
    # the b component alone is exactly representable: mode (1, 1) with
    # phase beta, whatever a is
    ve = sf.VElement(0.0, 0.7, 0.4)
    f = sf.dipole_part(ve, basis)
    assert np.array_equal(sf.dipole_part(sf.VElement(1.0, 0.7, 0.4), basis).coeffs, f.coeffs)
    assert abs(f.coeffs[1, 0] - 0.35 * np.exp(0.4j)) < 1e-15
    g1 = ds.to_grid(f)
    g2 = sf.v_element_grid(ve, grid)
    assert np.abs(g1.values - g2.values).max() < 1e-12


def test_verify_steady_family_members(basis):
    for ve in [sf.VElement(0.0, 1.0, 0.0), sf.VElement(1.0, 0.0, 0.0),
               sf.VElement(0.7, 0.9, 1.1), sf.VElement(0.4, 0.6, 0.2, family=(2, 1))]:
        rep = es.verify_steady(ve, basis)
        assert rep.functional_residual < 1e-8
        assert rep.tendency_rel < 1e-6


def test_verify_steady_detects_nonsteady(basis):
    mix = es.mixed_nonsteady_field(basis)
    t = ds.to_grid(es.tendency(mix))
    rel = ds.lp_norm(t, 2) / ds.lp_norm(ds.to_grid(mix), 2)
    assert rel > 1e-3


def test_orbital_distance_orbit_member(basis, grid):
    # exact orbit members leave cells with zero residual, where the p < 2
    # second derivative is infinite
    ve = sf.VElement(0.3, 1.0, 0.4)
    g = sf.v_element_grid(ve.rotated(1.3), grid)
    for p in (1.5, 2.0, 4.0):
        d, beta = sf.orbital_distance(g, ve, p)
        assert d <= 1e-8 * ds.lp_norm(sf.v_element_grid(ve, grid), p), p
        assert abs(beta - 1.3) < 1e-6, p


def test_orbital_distance_self(basis, grid):
    ve = sf.VElement(0.3, 1.0, 0.4)
    for p in (1.5, 2.0, 4.0):
        d, beta = sf.orbital_distance(sf.v_element_grid(ve, grid), ve, p)
        assert d < 1e-10, p
        assert min(beta, 2 * math.pi - beta) < 1e-4, p


def test_orbital_distance_radial_skips_search(grid):
    # b = 0 and order n = 0: the orbit is one field
    for ve in (sf.VElement(0.5, 0.0, 0.0), sf.VElement(0.5, 0.7, 1.0, family=(0, 2))):
        for p in (1.5, 2.0):
            d, beta = sf.orbital_distance(sf.v_element_grid(ve, grid), ve, p)
            assert d < 1e-12 and beta == 0.0


def test_orbital_distance_unresolved_order():
    # sin(n theta) vanishes on every node of an n_theta = 2n grid
    coarse = ds.DiskGrid(24, 8)
    for n in (4, 5):
        ve = sf.VElement(0.2, 1.0, 0.3, family=(n, 1))
        with pytest.raises(ResolutionError):
            sf.orbital_distance(sf.v_element_grid(ve, coarse), ve, 2.0)
    ve = sf.VElement(0.2, 1.0, 0.3, family=(3, 1))
    d, _ = sf.orbital_distance(sf.v_element_grid(ve.rotated(0.5), coarse), ve, 1.5)
    assert d < 1e-10


def test_orbital_distance_orthogonal_perturbation(basis, grid):
    # perturbation in a different azimuthal mode is orthogonal to the orbit
    # tangent; for p = 2 the distance equals delta up to second order
    ve = sf.VElement(0.3, 1.0, 0.4)
    delta = 1e-3
    pert = ds.to_grid(ds.single_mode(basis, 2, 1))
    pert_scaled = delta / ds.lp_norm(pert, 2)
    g = ds.GridField(grid, sf.v_element_grid(ve, grid).values + pert_scaled * pert.values)
    d, _ = sf.orbital_distance(g, ve, 2.0)
    assert 0.9 * delta <= d <= 1.0000001 * delta


def test_orbital_distance_invariance_and_lipschitz(basis, grid, rng):
    ve = sf.VElement(0.4, 0.8, 1.0)
    f = ds.random_in_span(basis, rng, scale=0.1)
    g = ds.to_grid(f)
    shift = 11
    beta = 2 * math.pi * shift / grid.n_theta
    h = ds.to_grid(ds.random_in_span(basis, rng, scale=0.05))
    sum_field = ds.GridField(grid, g.values + h.values)
    for p in (1.5, 2.0, 4.0):
        d1, _ = sf.orbital_distance(g, ve, p)
        shifted = ds.GridField(grid, np.roll(g.values, -shift, axis=1))
        d2, _ = sf.orbital_distance(shifted, ve.rotated(-beta), p)
        assert abs(d1 - d2) < 1e-10, p

        d3, _ = sf.orbital_distance(sum_field, ve, p)
        assert abs(d3 - d1) <= ds.lp_norm(h, p) + 1e-12, p


def test_moments_examples(basis, grid):
    zero = ds.GridField(grid, np.zeros((grid.n_r, grid.n_theta)))
    m0 = sf.moments(zero)
    assert m0.r1 == 0.0 and m0.r2 == 0.0

    ve = sf.VElement(1.0, 1.0, 0.0)
    m = sf.moments(sf.v_element_grid(ve, grid))
    assert abs(m.r1 - 3.0) < 1e-9
    assert abs(m.r2 - 7.0) < 1e-9

    m_rot = sf.moments(sf.v_element_grid(ve.rotated(2.4), grid))
    assert abs(m_rot.r1 - m.r1) < 1e-12
    assert abs(m_rot.r2 - m.r2) < 1e-12


def test_solve_moment_system_examples():
    assert sf.solve_moment_system(sf.MomentPair(0.0, 0.0)) == (0.0, 0.0)
    a, b = sf.solve_moment_system(sf.MomentPair(2.0, 0.0))
    assert abs(a) < 1e-9 and abs(b - math.sqrt(2.0)) < 1e-9
    a, b = sf.solve_moment_system(sf.MomentPair(3.0, 7.0))
    assert abs(a - 1.0) < 1e-9 and abs(b - 1.0) < 1e-9


def test_solve_moment_system_inconsistent():
    # r2 beyond the cubic's range on the admissible interval
    assert sf.solve_moment_system(sf.MomentPair(1.0, 5.0)) is None
    assert sf.solve_moment_system(sf.MomentPair(-1.0, 0.0)) is None


def test_moment_uniqueness_by_grid_scan(rng):
    # brute-force confirmation that the admissible solution set is a single
    # connected cluster: with y eliminated (y^2 = r1 - 2x^2, y >= 0) the
    # solutions are the roots of a cubic restricted to 2x^2 <= r1, so the
    # near-root set of a fine x-scan must be one contiguous run
    for _ in range(10):
        a = rng.uniform(-1.5, 1.5)
        b = rng.uniform(0.0, 1.5)
        r1 = 2 * a * a + b * b
        r2 = 4 * a**3 + 3 * a * b * b
        sol = sf.solve_moment_system(sf.MomentPair(r1, r2))
        assert sol is not None
        assert abs(sol[0] - a) < 1e-6 and abs(sol[1] - b) < 1e-6
        if r1 < 1e-12:
            continue
        xmax = math.sqrt(r1 / 2.0)
        xs = np.linspace(-xmax, xmax, 4001)
        resid = np.abs(-2 * xs**3 + 3 * r1 * xs - r2)
        hits = np.nonzero(resid < 1e-3 * max(1.0, r1) ** 1.5)[0]
        assert hits.size > 0
        assert hits[-1] - hits[0] == hits.size - 1, "admissible root set is disconnected"
        assert abs(xs[hits].mean() - a) < 2e-2 * max(1.0, xmax)


def test_orbit_identification_from_moments(grid, rng):
    # parameters of a random element are recoverable from its grid moments
    for _ in range(10):
        ve = sf.VElement(rng.uniform(-1, 1), rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi))
        m = sf.moments(sf.v_element_grid(ve, grid))
        sol = sf.solve_moment_system(m)
        assert sol is not None
        assert abs(sol[0] - ve.a) < 1e-6
        assert abs(sol[1] - ve.b) < 1e-6


def test_moment_coefficients_report():
    rep = sf.verify_moment_coefficients()
    assert rep["p_ratio_residual"] < 1e-8
    assert rep["q_ratio_residual"] < 1e-8
    assert rep["p1_vs_closed"] < 1e-8
    assert rep["p2_vs_half_closed"] < 1e-8
    assert abs(rep["p1"] / rep["p2"] - 2.0) < 1e-8
    assert abs(rep["q1"] / rep["q2"] - 4.0 / 3.0) < 1e-8


def test_orbital_distance_rejects_bad_p(grid):
    ve = sf.VElement(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        sf.orbital_distance(sf.v_element_grid(ve, grid), ve, 1.0)


def _orbit_distance_search(g, ve, p):
    """A scan over 256 angles, then golden section to a 1e-8 bracket: the
    minimizer that Newton's method from the L^2 angle replaced."""
    n_scan, tol = 256, 1e-8
    betas = 2.0 * math.pi * np.arange(n_scan) / n_scan
    i = int(np.argmin(sf._orbit_distance_curve(g, ve, p, betas)))
    span = 2.0 * math.pi / n_scan
    lo, hi = betas[i] - span, betas[i] + span
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1 = sf._orbit_distance_curve(g, ve, p, [x1])[0]
    f2 = sf._orbit_distance_curve(g, ve, p, [x2])[0]
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = sf._orbit_distance_curve(g, ve, p, [x1])[0]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = sf._orbit_distance_curve(g, ve, p, [x2])[0]
    beta_star = 0.5 * (lo + hi) % (2.0 * math.pi)
    return float(sf._orbit_distance_curve(g, ve, p, [beta_star])[0]), float(beta_star)


def test_closed_form_distance_matches_search(basis, grid):
    # the p = 2 closed form against the scan + golden section it replaced,
    # over rotated elements of two families plus perturbations of relative
    # size 1e-6 to 1: the closed form is never farther, and the minimizers agree
    rng = np.random.default_rng(77)
    eps = np.finfo(float).eps
    cases = 0
    for family in ((1, 1), (2, 1)):
        for size in np.logspace(-6, 0, 16):
            ve = sf.VElement(rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0]),
                             rng.uniform(0.5, 1.5), rng.uniform(0, 2 * math.pi), family)
            target = sf.v_element_grid(ve.rotated(rng.uniform(0, 2 * math.pi)), grid)
            pert = ds.to_grid(ds.random_in_span(basis, rng, n_cut=6, k_cut=8))
            scale = size * ds.lp_norm(target, 2) / ds.lp_norm(pert, 2)
            g = ds.GridField(grid, target.values + scale * pert.values)
            d, beta = sf.orbital_distance(g, ve, 2.0)
            base, gc, gs = sf._orbit_tables(ve.a, ve.b, ve.family, grid)
            r = (g.values - base) * grid.measures
            # p = 2 takes no Newton step: beta* is the L^2 angle itself
            phi0 = math.atan2(-float((r * gs).sum()), float((r * gc).sum()))
            assert beta == (phi0 - ve.beta) % (2.0 * math.pi)
            d_search, beta_search = _orbit_distance_search(g, ve, 2.0)
            assert d <= d_search * (1 + 1e-13), (family, size, d, d_search)

            # d^2 = C - 2 R cos(phi - phi*) exactly, so three samples at
            # beta* and beta* +- h give the offset of beta* from the minimizer
            h = 1e-3
            fm, f0, fp = sf._orbit_distance_curve(g, ve, 2.0, [beta - h, beta, beta + h]) ** 2
            offset = math.atan((fp - fm) / (fp - 2 * f0 + fm) * math.tan(h / 2))
            assert abs(offset) <= 1e-12, (family, size, offset)

            # the search stops at a 1e-8 bracket but cannot place beta closer
            # than where d^2 changes by its rounding: R dbeta^2 ~ 4 eps d^2
            R = math.hypot(float((r * gc).sum()), float((r * gs).sum()))
            flat = 2.0 * math.sqrt(eps) * d / math.sqrt(R)
            gap = abs((beta - beta_search + math.pi) % (2 * math.pi) - math.pi)
            assert gap <= 1e-8 + flat, (family, size, gap, flat)
            cases += 1
    assert cases >= 30


def _newton_cases(rng, basis, grid):
    """(p, (perturbed, lamb)) for p in (1.5, 4): 32 (element, field) pairs,
    rotated elements of two families perturbed by smooth or ring-shuffle
    fields of relative size 1e-6 to 1, and 16 ring-shuffled seeds of the Lamb
    dipole, the inputs of burton-maximize."""
    lamb = sf.VElement(0.0, 1.0, 0.0)
    out = []
    for p in (1.5, 4.0):
        perturbed = []
        for family in ((1, 1), (2, 1)):
            for i, size in enumerate(np.logspace(-6, 0, 16)):
                ve = sf.VElement(rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0]),
                                 rng.uniform(0.5, 1.5), rng.uniform(0, 2 * math.pi), family)
                target = sf.v_element_grid(ve.rotated(rng.uniform(0, 2 * math.pi)), grid)
                if i % 2:
                    pert = ds.to_grid(ds.random_in_span(basis, rng, n_cut=6, k_cut=8)).values
                else:
                    pert = ds.ring_shuffle(target, rng).values - target.values
                scale = size * ds.lp_norm(target, 2) / ds.lp_norm(ds.GridField(grid, pert), 2)
                perturbed.append((ve, ds.GridField(grid, target.values + scale * pert)))
        seeds = [(lamb, ds.ring_shuffle(sf.v_element_grid(lamb, grid), rng)) for _ in range(16)]
        out.append((p, (perturbed, seeds)))
    return out


def test_newton_distance_never_farther_than_search(basis, grid, monkeypatch):
    # p in {1.5, 4}: rotated elements of two families, perturbed by smooth or
    # ring-shuffle fields of relative size 1e-6 to 1, and ring-shuffled seeds
    # of the Lamb dipole, the inputs of burton-maximize.  The rng seed gives
    # Lamb seeds where Newton from the L^2 angle stops at an interior local
    # minimum, so the restart past it is exercised, not only the one after
    # Newton ends on a bracket edge.  Rotated elements without perturbation
    # lie on their orbit, where every residual cell is rounding noise: Newton
    # stops at the L^2 angle, which is exact there, instead of bisecting away
    # from it and back.
    runs = []

    def recorded(*args, newton=sf._newton_angle):
        runs.append((args[-1], newton(*args)))
        return runs[-1][1]

    monkeypatch.setattr(sf, "_newton_angle", recorded)
    span = 2 * math.pi / sf._N_COARSE
    eps = np.finfo(float).eps
    restarts = interior = 0
    for p, cases in _newton_cases(np.random.default_rng(20), basis, grid):
        cases = cases[0] + cases[1]
        on_orbit = []
        for family in ((1, 1), (2, 1)):
            for angle in (0.3, 2.0, 4.4):
                ve = sf.VElement(0.6, 1.2, 0.4, family)
                on_orbit.append((ve, sf.v_element_grid(ve.rotated(angle), grid)))
        for i, (ve, g) in enumerate(cases + on_orbit):
            runs.clear()
            d, _ = sf.orbital_distance(g, ve, p)
            d_search, _ = _orbit_distance_search(g, ve, p)
            # each residual cell is a difference of O(|g - base|) terms, so an
            # evaluated distance is only good to a few eps ||g - base||_p; the
            # search keeps the least of ~40 such values, which can undercut the
            # true minimum by that much at small perturbations
            base, _, _ = sf._orbit_tables(ve.a, ve.b, ve.family, grid)
            floor = 4 * eps * ds.lp_norm(ds.GridField(grid, g.values - base), p)
            assert d <= d_search * (1 + 1e-13) + floor, (p, ve, d, d_search)
            if i >= len(cases):
                (phi0, phi), = runs
                assert phi == phi0, (p, ve, phi - phi0)
            if len(runs) > 1:
                restarts += 1
                (phi0, phi), = runs[:1]
                first = sf._orbit_distance_curve(g, ve, p, [phi - ve.beta])[0]
                interior += abs(phi - phi0) < span - 1e-12 and d < first * (1 - 1e-10)
    assert restarts >= 1 and interior >= 1, (restarts, interior)


def test_newton_bisects_where_residual_cells_vanish(basis, grid):
    # at phi = 0.3 half the rings match the orbit exactly: e = 0 there makes
    # the p = 1.5 second derivative infinite, and the minimum lies in
    # (0.3, 0.31), where the other half matches
    ve = sf.VElement(0.0, 1.0, 0.0)
    _, gc, gs = sf._orbit_tables(ve.a, ve.b, ve.family, grid)
    r0 = math.cos(0.3) * gc - math.sin(0.3) * gs
    r0[40:] = (math.cos(0.31) * gc - math.sin(0.31) * gs)[40:]
    phi = sf._newton_angle(r0, gc, gs, grid.measures, 1.5, 0.3)
    g = ds.GridField(grid, r0)
    d_search, _ = _orbit_distance_search(g, ve, 1.5)
    assert sf._orbit_distance_curve(g, ve, 1.5, [phi])[0] <= d_search * (1 + 1e-13)
    assert 0.3 < phi < 0.31


class _CountingNumpy:
    """numpy, counting the calls of ``copysign``: one per Newton pass."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def copysign(self, *args):
        self.calls += 1
        return np.copysign(*args)


def test_newton_hands_a_minimum_past_the_bracket_to_the_scan(basis, grid, monkeypatch):
    # rng seed 21 gives perturbed elements whose minimum lies past the first
    # bracket: D' falls towards one end all the way there, and bisecting the
    # whole bracket took 44 passes before the restart scan.  Probing that end
    # hands them to the scan in two; Lamb seeds ending on an end do the same
    counting, runs = _CountingNumpy(), []

    def recorded(*args, newton=sf._newton_angle):
        counting.calls = 0
        runs.append((args[-1], newton(*args), counting.calls))
        return runs[-1][1]

    monkeypatch.setattr(sf, "np", counting)
    monkeypatch.setattr(sf, "_newton_angle", recorded)
    span = 2 * math.pi / sf._N_COARSE
    past = 0
    for p, (perturbed, seeds) in _newton_cases(np.random.default_rng(21), basis, grid):
        for i, (ve, g) in enumerate(perturbed + seeds):
            runs.clear()
            sf.orbital_distance(g, ve, p)
            phi0, phi, passes = runs[0]
            if abs(phi - phi0) >= span * (1 - 1e-12):
                assert passes <= 3 and len(runs) == 2, (p, i, passes)
                past += i < len(perturbed)
            if i < len(perturbed):
                assert max(r[2] for r in runs) <= 8, (p, i, runs)
    assert past >= 4, past


def test_tangent_floor_bounds_the_orbit_tangent(grid):
    # the floor under ||sin(psi) gc + cos(psi) gs||_p that confines the
    # minimizer: never above the norm at any psi (equal to it at p = 2, up to
    # rounding), and within a factor 2 of it
    coarse = ds.DiskGrid(24, 32)
    psis = np.linspace(0, 2 * math.pi, 97)
    for g in (grid, coarse):
        for family in ((1, 1), (2, 1), (3, 2)):
            ve = sf.VElement(0.3, 0.8, 0.0, family)
            _, gc, gs = sf._orbit_tables(ve.a, ve.b, ve.family, g)
            for p in (1.1, 1.5, 2.0, 4.0, 8.0):
                norms = [(np.abs(math.sin(q) * gc + math.cos(q) * gs) ** p
                          * g.measures).sum() ** (1 / p) for q in psis]
                floor = sf._tangent_floor(gc, g, p)
                assert 0.5 * min(norms) <= floor <= min(norms) * (1 + 1e-13), (family, p)


def test_orbit_tables_are_shared_by_rotations(basis, grid):
    # beta does not enter the tables: 100 rotations of one element add one
    # cache entry, and each distance equals the one from freshly built tables
    ve = sf.VElement(0.5, 1.0, 0.0)
    g = ds.to_grid(ds.random_in_span(basis, np.random.default_rng(9), n_cut=4, k_cut=6))
    g = ds.GridField(grid, sf.v_element_grid(ve, grid).values + 1e-2 * g.values)
    rotations = [ve.rotated(0.01 * i) for i in range(100)]
    sf._orbit_tables.cache_clear()
    shared = [sf.orbital_distance(g, r, 2.0) for r in rotations]
    assert sf._orbit_tables.cache_info().currsize == 1
    for r, got in zip(rotations, shared):
        sf._orbit_tables.cache_clear()
        assert sf.orbital_distance(g, r, 2.0) == got
