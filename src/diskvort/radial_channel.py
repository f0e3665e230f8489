"""The exact radial channel of the solver: vorticity a J_0(l r) + c.

It extends the zero-trace basis of disk_spectral, whose functions vanish on
the boundary, with the one radial field that the steady family and the
rotating states need.  Both parts are exact radial solutions with
closed-form stream functions:

* a J_0(l r), the non-eigenfunction component of the steady family, has
  stream function a (J_0(l r) - J_0(l)) / l^2, so steady family elements are
  steady to rounding, which a truncated projection of J_0(l r) could never
  achieve;
* a uniform offset c (c = 2 Omega in the rotating-state experiments) has
  stream function c (1 - r^2) / 4.  Its -c r / 2 in d_r psi turns the band
  product d_r psi (1/r) d_theta omega into the rigid advection
  -Omega d_theta omega, which is exact on the band.

The channel's part of the trace's energy gradient W y + X_psi is
X_psi = ``stream_dual``; euler_sim's mean fix reads its n = 0 part too.

Every solver state carries a channel, and the channel carries the run's
basis, ``basis``: euler_sim's band array holds none, so its stages, CFL
step, mean fix and trace read it here.  One of amplitude 0 and offset 0,
``RadialBackground(0.0, l, basis)``, is the zero channel of a field that has
none of its own: its profiles, derivatives and duals are zeros and its
energy, norm and mean 0.0, so it adds zeros, and its root l only labels it.
"""

import math

import numpy as np

from .bessel import _j_neighbours
from .disk_spectral import DiskBasis


class RadialBackground:
    """The exact radial channel: vorticity amplitude * J_0(root r) + uniform.

    Its run constants are built at construction, with a = amplitude and
    c = uniform, from one recurrence that gives J_0 and J_1 on the radii of
    ``basis.grid`` and J_0(root): the vorticity profile a J_0(root r) + c,
    the stream profile a (J_0(root r) - J_0(root)) / root^2 + c (1 - r^2) / 4,
    their radial derivatives, also held as one (2 n_r,) array ``d_r_pair``
    [d_r omega; d_r psi], which euler_sim adds to the d_r block of its band
    product in one slice add (``stream_d_r_profile``, a view of its second
    half, serves the CFL velocity).  Callers add a profile to a grid by
    broadcasting it over the angles.

    euler_sim's trace reads the channel's coupling to the band from two
    vectors of 2 pi r w quadratures against the band's n = 0 functions
    J_0(j_k r), k <= kd: ``omega_dual`` of the vorticity profile and
    ``stream_dual`` of the stream profile; and its own integrals from
    ``energy`` (1/2) int omega psi, ``norm2`` int omega^2 and ``mean``
    int omega / pi.
    """

    def __init__(self, amplitude: float, root: float, basis: DiskBasis, uniform: float = 0.0):
        self.amplitude, self.root, self.basis, self.uniform = amplitude, root, basis, uniform
        a, c, b = amplitude, uniform, basis
        r, rw = b.grid.r, b.grid.measure_r * b.grid.n_theta     # 2 pi r w
        j0, j1, _ = _j_neighbours(1, np.append(root * r, root))
        j0_root, j0_profile, j1_profile = j0[-1], j0[:-1], j1[:-1]
        profile = a * j0_profile + c
        stream = a * (j0_profile - j0_root) / root**2 + c * (1.0 - r**2) / 4.0
        self.profile, self.stream_profile = profile, stream
        dual = b.r_eval[0, :, : b.band_kit["kd"]].T
        self.d_r_pair = np.concatenate([-a * root * j1_profile,
                                        -a * j1_profile / root - 0.5 * c * r])
        self.stream_d_r_profile = self.d_r_pair[r.size:]
        self.omega_dual = dual @ (rw * profile)
        self.stream_dual = dual @ (rw * stream)
        self.energy = 0.5 * float(rw @ (profile * stream))
        self.norm2 = float(rw @ (profile * profile))
        self.mean = float(rw @ profile) / math.pi
