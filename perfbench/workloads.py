"""The benchmark's workloads: inputs drawn from the seed, one timed solve per
operation, and a correctness gate per operation.

An operation is one evolution run or one ascent seed.  Its input comes from
``numpy.random.default_rng([seed, index])``; the gates use the tolerances of
the matching ``diskvort`` CLI experiment.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from diskvort.disk_spectral import lp_norm, ring_shuffle
from diskvort.euler_sim import (
    make_perturbation,
    run_rotating_orbit_experiment,
    run_stability_experiment,
)
from diskvort.steady_family import VElement, v_element_grid
from diskvort.variational import burton_maximize

# Evolution horizons, sized so that one operation takes 0.2 to 1.5 s on a
# 2-core x86 VM and a run completes several of them.  They are far shorter
# than the CLI defaults (20 turnovers, 1 period), so each run's fixed costs
# weigh more than in a CLI run: orbit-track spends ~73% of its time in
# orbital_distance and ~17% in tendency, evolve-perturbed ~24% and ~67%.
EVOLVE_TURNOVERS = 0.25
ORBIT_PERIODS = 0.02
OMEGA_ROT = 0.3


@dataclass
class Outcome:
    ok: bool
    iterations: int              # RK4 steps or burton_step iterations
    info: dict


def _evolve_input(basis, rng):
    ve = VElement(0.5, 1.0, 0.0)
    delta = 1e-3 * lp_norm(v_element_grid(ve, basis.grid), 2.0)
    pert = make_perturbation("smooth-random", ve, delta, 2.0, basis, rng)
    return ve, pert, delta


def _evolve_solve(basis, inp):
    ve, pert, _ = inp
    return run_stability_experiment(ve, pert, 2.0, turnovers=EVOLVE_TURNOVERS,
                                    basis=basis, cfl_safety=0.4, cadence=10)


def _evolve_gate(basis, inp, res, steps):
    ratio = res.max_distance / inp[2]
    ok = res.energy_drift <= 1e-6 and res.l2_drift <= 1e-4 and ratio <= 50.0
    return Outcome(ok, steps, {"energy_drift": res.energy_drift,
                               "l2_drift": res.l2_drift,
                               "distance_over_delta": ratio})


def _orbit_input(basis, rng):
    # the phase is the seeded input; cost does not depend on it
    return VElement(0.4, 1.0, float(rng.uniform(0.0, 2.0 * math.pi)))


def _orbit_solve(basis, ve):
    return run_rotating_orbit_experiment(ve, OMEGA_ROT, None, 1.5, basis=basis,
                                         periods=ORBIT_PERIODS, cfl_safety=0.4,
                                         cadence=1)


def _orbit_gate(basis, ve, res, steps):
    rec = res.extra.get("recovered_omega", math.nan)
    ok = abs(rec - OMEGA_ROT) <= 0.01 * OMEGA_ROT and res.max_distance <= 1e-6
    return Outcome(ok, steps, {"energy_drift": res.energy_drift,
                               "l2_drift": res.l2_drift,
                               "recovered_omega": float(rec),
                               "max_distance": res.max_distance})


_LAMB = VElement(0.0, 1.0, 0.0)


def _ascent_input(basis, rng):
    return ring_shuffle(v_element_grid(_LAMB, basis.grid), rng)


def _ascent_solve(basis, seed_field):
    return burton_maximize(_LAMB, seed_field, basis, max_iters=600, p=2.0,
                           trace_distance=False)


def _ascent_gate(basis, seed_field, res, steps):
    norm = lp_norm(v_element_grid(_LAMB, basis.grid), 2.0)
    ok = res.distance <= 1e-3 * norm
    return Outcome(ok, len(res.energies) - 1,
                   {"distance_over_norm": res.distance / norm,
                    "converged": bool(res.converged)})


@dataclass(frozen=True)
class Workload:
    name: str
    make_input: Callable         # (basis, rng) -> input
    solve: Callable              # (basis, input) -> result; the timed body
    gate: Callable               # (basis, input, result, rk4_steps) -> Outcome
    counted_ops: int             # traced operations whose counts are reported

    def input(self, basis, seed, index):
        return self.make_input(basis, np.random.default_rng([seed, index]))


WORKLOADS = {
    w.name: w for w in (
        Workload("evolve-perturbed", _evolve_input, _evolve_solve, _evolve_gate, 2),
        Workload("orbit-track", _orbit_input, _orbit_solve, _orbit_gate, 2),
        Workload("ascent", _ascent_input, _ascent_solve, _ascent_gate, 4),
    )
}


def tendency_cost(basis):
    """Computed (not measured) flops and bytes of one in-band ``tendency`` call.

    Derived from the band-kit shapes: nb = 2 nd + 1 azimuthal rows and kd
    radial columns of the 2/3 band, on the n_r x n_theta grid.  Counted
    kernels: the radial-derivative and 1/r angular matmuls (two right-hand
    columns each), the synthesis of four grid fields, the advection product,
    the azimuthal analysis and the per-mode radial projection.  A complex
    multiply-add is 8 flops, a real-by-complex one 4.  Bytes are one read of
    each operator table (complex, 16 B) plus one write and one read of each
    grid-sized intermediate; cache reuse is ignored.
    """
    nd, kd = basis.dealias_band()
    nb = 2 * nd + 1
    nr, nt = basis.grid.n_r, basis.grid.n_theta
    flops = (2 * 8 * nb * nr * kd * 2       # diff and over matmuls
             + 8 * 4 * nr * nb * nt         # synthesis of four fields
             + 5 * nr * nt                  # background add and product
             + 4 * nr * nt * (nd + 1)       # azimuthal analysis
             + 8 * (nd + 1) * kd * nr)      # radial projection
    tables = 2 * nb * nr * kd + nb * nt + nt * (nd + 1) + (nd + 1) * kd * nr
    grids = 2 * (4 * nr * nt * (16 + 8) + nr * nt * 8 + nr * (nd + 1) * 16)
    return flops, 16 * tables + grids
