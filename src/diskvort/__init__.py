"""Steady Bessel vortex states of the 2D Euler equation in the unit disk.

Exact steady states built from first-kind Bessel functions, their
variational characterization as energy maximizers over rearrangement
classes, and orbital-stability experiments with a pseudo-spectral vorticity
solver.
"""

__version__ = "0.1.0"

from .bessel import (
    MAX_ORDER,
    bessel_j,
    bessel_j_prime,
    bessel_zero,
    bessel_zeros,
    certified_zeros,
    verify_identity_suite,
)
from .disk_spectral import (
    DiskBasis,
    DiskGrid,
    DistributionProfile,
    GridField,
    SpectralField,
    distribution_profile,
    from_grid,
    lp_norm,
    mean_value,
    profiles_close,
    ring_shuffle,
    rotate,
    single_mode,
    to_grid,
    transplant,
)
from .green_energy import energy, energy_grid
from .steady_family import (
    MomentPair,
    VElement,
    moments,
    orbital_distance,
    solve_moment_system,
    v_element_grid,
    verify_moment_coefficients,
)
from .variational import AscentState, burton_maximize, burton_step, solve_v1, solve_v2
from .euler_sim import (
    RadialBackground,
    RunConfig,
    SolverState,
    run_rotating_orbit_experiment,
    run_stability_experiment,
    steady_state,
    step_rk4,
    tendency,
    verify_steady,
)
