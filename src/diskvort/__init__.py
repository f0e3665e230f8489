"""Steady Bessel vortex states of the 2D Euler equation in the unit disk.

Exact steady states built from first-kind Bessel functions, their
variational characterization as energy maximizers over rearrangement
classes, and orbital-stability experiments with a pseudo-spectral vorticity
solver.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# numpy's bundled OpenBLAS lets its idle worker thread spin for 2^28 cycles
# (~0.1 s) after the library loads and after each LAPACK call; on a host with
# few cores that spin takes a core from the basis build that follows.  2^4
# cycles, OpenBLAS's minimum, puts the worker to sleep at once and changes no
# result; the thread count stays, so large products still thread.  OpenBLAS
# reads the timeout once, when numpy loads it, so this process-wide write is
# made only before numpy is imported, and never over a value the user set.
if "OPENBLAS_THREAD_TIMEOUT" in _os.environ:
    _timeout_set_by = "environment"
elif "numpy" in _sys.modules:
    _timeout_set_by = "numpy loaded first"
else:
    _os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
    _timeout_set_by = "diskvort"
# the idle policy in force for this process, as recorded in manifest.json;
# the timeout is None where OpenBLAS keeps its default
BLAS_IDLE_POLICY = {"openblas_thread_timeout": _os.environ.get("OPENBLAS_THREAD_TIMEOUT"),
                    "set_by": _timeout_set_by}

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
