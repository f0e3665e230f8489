"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The stability sweep
(criterion 7) evolves nine 20-turnover runs and dominates the runtime
(tens of minutes); everything else finishes in seconds to a few minutes.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from diskvort import bessel
from diskvort import disk_spectral as ds
from diskvort import euler_sim as es
from diskvort import green_energy as ge
from diskvort import steady_family as sf
from diskvort import variational as vr
from green_oracle import apply_green, apply_green_kernel


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_bessel_fidelity():
    j = bessel.bessel_zero(1, 1)
    ok = abs(j - 3.831706) <= 1e-6
    worst = 0.0

    for n in (0, 1, 2):
        zeros = [bessel.bessel_zero(n, k) for k in range(1, 5)]
        for i, zi in enumerate(zeros):
            for l, zl in enumerate(zeros):
                if i == l:
                    continue
                val, _ = integrate.quad(
                    lambda s: bessel.bessel_j(n, zi * s) * bessel.bessel_j(n, zl * s) * s,
                    0.0, 1.0, epsabs=1e-11, epsrel=0.0,
                )
                worst = max(worst, abs(val))

    # three-term recurrence and the derivative ladder, analytic routes
    rng = np.random.default_rng(10)
    s = rng.uniform(0.05, 20.0, 100)
    for n in range(9):
        resid = s * (bessel.bessel_j(n, s) + bessel.bessel_j(n + 2, s)) \
            - 2 * (n + 1) * bessel.bessel_j(n + 1, s)
        worst = max(worst, np.abs(resid).max())
    ladder = bessel.bessel_j(1, s) + s * bessel.bessel_j_prime(1, s) \
        - s * bessel.bessel_j(0, s)
    worst = max(worst, np.abs(ladder).max())

    suite = bessel.verify_identity_suite([0.5, 1.0, 2.0, j, 5.0, 8.0])
    worst = max(worst, max(suite.values()))

    norm, _ = integrate.quad(lambda t: bessel.bessel_j(1, j * t) ** 2 * t, 0, 1,
                             epsabs=1e-11, epsrel=0.0)
    worst = max(worst, abs(norm - 0.5 * bessel.bessel_j(0, j) ** 2))
    worst = max(worst, abs(norm - 0.5 * bessel.bessel_j(2, j) ** 2))

    ok = ok and worst <= 1e-9
    report("1 bessel-fidelity", ok,
           f"(j11 err {abs(j - 3.831706):.2e}, max identity residual {worst:.2e})")


def test_criterion_2_green_cross_validation(basis):
    def rel_err(b):
        grid = b.grid
        fields = [
            ds.single_mode(b, 1, 1),
            ds.single_mode(b, 0, 2),
            ds.SpectralField(b, ds.single_mode(b, 1, 1, 0.7, 0.4).coeffs
                             + ds.single_mode(b, 2, 1, 0.5, 1.1).coeffs
                             + ds.single_mode(b, 0, 1, 0.3).coeffs),
        ]
        errs = []
        for f in fields:
            spec = ds.to_grid(apply_green(f))
            kern = apply_green_kernel(ds.to_grid(f))
            num = ds.lp_norm(ds.GridField(grid, kern.values - spec.values), 2)
            errs.append(num / ds.lp_norm(spec, 2))
        return errs

    errs_default = rel_err(basis)
    ok = max(errs_default) <= 5e-3

    # refinement study on the dipole field
    sizes = [(24, 48), (32, 64), (48, 96)]
    errors = []
    for nr, nt in sizes:
        b = ds.DiskBasis(4, 6, ds.DiskGrid(nr, nt))
        f = ds.single_mode(b, 1, 1)
        spec = ds.to_grid(apply_green(f))
        kern = apply_green_kernel(ds.to_grid(f))
        errors.append(
            ds.lp_norm(ds.GridField(b.grid, kern.values - spec.values), 2)
            / ds.lp_norm(spec, 2)
        )
    slope = -np.polyfit(np.log([nr for nr, _ in sizes]), np.log(errors), 1)[0]
    ok = ok and slope >= 1.5
    report("2 green-cross-validation", ok,
           f"(rel errors {['%.2e' % e for e in errs_default]}, order {slope:.2f})")


def test_criterion_3_eigenvalues(basis):
    j = bessel.bessel_zero(1, 1)
    r1 = vr.solve_v1(basis)
    r2 = vr.solve_v2(basis)
    m_err = abs(r1.value - j * j) / (j * j)
    big_m_err = abs(r2.value - 1 / (j * j)) * (j * j)
    prod_err = abs(r1.value * r2.value - 1.0)
    b_unit = 1.0 / math.sqrt(math.pi * bessel.bessel_j(0, j) ** 2 / 2.0)
    proj, _ = sf.orbital_distance(r2.maximizer, sf.VElement(0.0, b_unit, 0.0), 2.0)
    ok = (m_err <= 1e-6 and big_m_err <= 1e-6 and prod_err <= 1e-6
          and r2.relation_residual <= 1e-6 and proj <= 1e-5)
    report("3 eigenvalue-reproduction", ok,
           f"(m rel {m_err:.2e}, M rel {big_m_err:.2e}, mM-1 {prod_err:.2e}, "
           f"relation {r2.relation_residual:.2e}, V-projection {proj:.2e})")


def test_criterion_4_moments(grid):
    rep = sf.verify_moment_coefficients()
    ok = rep["p_ratio_residual"] <= 1e-8 and rep["q_ratio_residual"] <= 1e-8

    # b is kept away from the singular boundary b = 0, where the reduced
    # cubic has a double root (derivative 3 b^2 at the solution) and no
    # finite-precision inversion can hit 1e-6
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(100):
        ve = sf.VElement(rng.uniform(-1.5, 1.5), rng.uniform(0.05, 1.5),
                         rng.uniform(0, 2 * math.pi))
        sol = sf.solve_moment_system(sf.moments(sf.v_element_grid(ve, grid)))
        if sol is None:
            worst = math.inf
            break
        worst = max(worst, abs(sol[0] - ve.a), abs(sol[1] - ve.b))
    ok = ok and worst <= 1e-6

    connected = True
    for _ in range(10):
        a = rng.uniform(-1.5, 1.5)
        b = rng.uniform(0.0, 1.5)
        r1v = 2 * a * a + b * b
        r2v = 4 * a**3 + 3 * a * b * b
        if r1v < 1e-12:
            continue
        xmax = math.sqrt(r1v / 2)
        xs = np.linspace(-xmax, xmax, 4001)
        hits = np.nonzero(np.abs(-2 * xs**3 + 3 * r1v * xs - r2v)
                          < 1e-3 * max(1.0, r1v) ** 1.5)[0]
        connected &= hits.size > 0 and hits[-1] - hits[0] == hits.size - 1
    ok = ok and connected
    report("4 moment-machinery", ok,
           f"(ratio residuals {rep['p_ratio_residual']:.2e}/{rep['q_ratio_residual']:.2e}, "
           f"worst recovery {worst:.2e}, uniqueness scans {'ok' if connected else 'FAIL'})")


def test_criterion_5_variational_characterization(basis):
    elements = [sf.VElement(0.0, 1.0, 0.0),
                sf.VElement(0.0, 0.7, 1.3),
                sf.VElement(0.0, 1.6, 2.5)]
    rng = np.random.default_rng(42)
    summary = []
    all_ok = True
    for ve in elements:
        target = sf.v_element_grid(ve, basis.grid)
        nrm = ds.lp_norm(target, 2)
        e_target = ge.energy_grid(target, vr._stream_of(target, basis))
        good = 0
        for _ in range(10):
            seed = ds.ring_shuffle(target, rng)
            res = vr.burton_maximize(ve, seed, basis)
            hit = (res.energies[-1] >= e_target * (1 - 1e-6)
                   and res.distance <= 1e-3 * nrm)
            good += hit
            drops = [res.energies[i] - res.energies[i + 1]
                     for i in range(len(res.energies) - 1)]
            mono = max(drops, default=0.0) <= 1e-12 * max(1.0, abs(res.energies[-1]))
            all_ok = all_ok and mono
        summary.append(good)
        all_ok = all_ok and good >= 9
    report("5 variational-characterization", all_ok,
           f"(converged runs per element {summary}/10, traces monotone to rounding)")


def test_criterion_6_steadiness_and_rotation(basis):
    worst = 0.0
    for ve in [sf.VElement(0.0, 1.0, 0.0), sf.VElement(1.0, 0.0, 0.0),
               sf.VElement(0.7, 0.9, 1.1), sf.VElement(-0.5, 0.8, 2.2),
               sf.VElement(0.6, 1.2, 4.0), sf.VElement(0.4, 0.6, 0.3, family=(2, 1))]:
        state = es.steady_state(ve, basis)
        tnorm = ds.lp_norm(ds.to_grid(es.tendency(state.w, state.background)), 2)
        onorm = ds.lp_norm(sf.v_element_grid(ve, basis.grid), 2)
        worst = max(worst, tnorm / onorm)
    ok = worst <= 1e-6

    # steady element unchanged after 1000 steps
    ve = sf.VElement(0.5, 1.0, 0.7)
    state = es.steady_state(ve, basis)
    w0 = state.w.coeffs.copy()
    for _ in range(1000):
        state = es.step_rk4(state, 0.05, check_cfl=False)
    d = state.w.coeffs - w0
    drift = np.hypot(d[:, 0], d[:, 1]).max()
    onorm = ds.lp_norm(sf.v_element_grid(ve, basis.grid), 2)
    ok = ok and drift <= 1e-6 * onorm

    res = es.run_rotating_orbit_experiment(sf.VElement(0.4, 1.0, 0.7), 0.3,
                                           None, 2.0, basis=basis, periods=1.0)
    omega_err = abs(res.extra["recovered_omega"] - 0.3) / 0.3
    ok = ok and omega_err <= 0.01 and res.max_distance <= 1e-6
    report("6 steadiness-and-rotation", ok,
           f"(worst tendency {worst:.2e}, 1000-step drift {drift:.2e}, "
           f"rotation rate err {100 * omega_err:.4f}%)")


@pytest.mark.slow
def test_criterion_7_orbital_stability(basis):
    ve = sf.VElement(0.5, 1.0, 0.7)
    rng = np.random.default_rng(7)
    rows = []
    ok = True
    for p in (1.5, 2.0, 4.0):
        for kind in ("random-shuffle", "mode-injection", "smooth-random"):
            target = sf.v_element_grid(ve, basis.grid)
            delta = 1e-3 * ds.lp_norm(target, p)
            pert = es.make_perturbation(kind, ve, delta, p, basis, rng)
            res = es.run_stability_experiment(ve, pert, p, turnovers=20.0,
                                              basis=basis)
            ratio = res.max_distance / delta
            good = (ratio <= 50.0 and res.energy_drift <= 1e-6
                    and res.l2_drift <= 1e-4)
            ok = ok and good
            rows.append((p, kind, ratio, res.energy_drift, res.l2_drift, good))
            print(f"  stability p={p} {kind}: dist/delta {ratio:.2f}, "
                  f"dE {res.energy_drift:.2e}, dL2 {res.l2_drift:.2e}"
                  f"{'' if good else '  <-- FAIL'}", flush=True)

    # control: the non-steady mixed field drifts away from its own orbit
    mix = es.mixed_nonsteady_field(basis)
    mix_grid = ds.to_grid(mix)
    delta = 1e-3 * ds.lp_norm(mix_grid, 2)
    pert = es.make_perturbation("smooth-random", ve, delta, 2.0, basis, rng)
    state = es.SolverState(w=ds.SpectralField(basis, mix.coeffs + pert.coeffs),
                           background=es.RadialBackground(0.0, sf.j_11(), basis))

    def grid_orbit_distance(state):
        # the least L^2 distance to the mixed field's rotations by whole cells
        om = state.full_grid_values()
        return min(sf.plain_distance(om, ds.GridField(om.grid, np.roll(mix_grid.values, -s, 1)), 2.0)
                   for s in range(om.grid.n_theta))

    # stepped as es.run steps, a distance every 10 steps
    t_end, cadence = 20.0, 10
    distances, steps = [grid_orbit_distance(state)], 0
    dt = es.cfl_dt(state, 0.4)
    while state.t < t_end - 1e-12:
        state = es.step_rk4(state, min(dt, t_end - state.t), check_cfl=False)
        steps += 1
        if steps % cadence == 0 or state.t >= t_end - 1e-12:
            distances.append(grid_orbit_distance(state))
            dt = es.cfl_dt(state, 0.4)
    d0, dmax = distances[0], max(distances)
    control = dmax >= 10.0 * d0
    ok = ok and control
    report("7 orbital-stability", ok,
           f"(max dist/delta {max(r[2] for r in rows):.1f}, control growth "
           f"{dmax / d0:.0f}x)")


def test_criterion_8_sharpness(basis):
    ve = sf.VElement(0.4, 1.0, 0.0)
    n = 50
    target = sf.v_element_grid(ve, basis.grid)
    ok = True
    details = []
    for frac in (0.25, 0.5, 1.0):
        beta = math.pi * frac
        uniform = 2.0 / n
        state = es.steady_state(ve, basis, uniform)
        cfg = es.RunConfig(t_end=n * beta, cadence=50, p=2.0, reference=ve)
        state, _, _ = es.run(state, cfg)
        om = state.full_grid_values()
        shifted = ds.GridField(om.grid, om.values - uniform)
        dist, bstar = sf.orbital_distance(shifted, ve, 2.0)
        phase = (-bstar) % (2 * math.pi)
        plain = sf.plain_distance(om, target, 2.0)
        separation = sf.plain_distance(
            sf.v_element_grid(ve.rotated(-beta), basis.grid), target, 2.0)
        good = (abs(phase - beta) <= 0.02 * beta
                and plain >= 0.5 * separation
                and dist <= 1e-6)
        ok = ok and good
        details.append(f"beta={beta:.3f}: phase err {abs(phase - beta) / beta:.2e}, "
                       f"plain dist {plain:.3f} (orbit dist {dist:.1e})")
    report("8 sharpness", ok, "(" + "; ".join(details) + ")")
