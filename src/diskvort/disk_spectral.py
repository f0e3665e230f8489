"""Scalar fields on the unit disk: spectral and collocation representations.

A SpectralField holds complex coefficients over the zero-trace basis
e^{i n theta} J_{|n|}(j_{|n|,k} r), 1 <= k <= K, stored as the half spectrum:
rows n = 0..N, with c[-n] = conj(c[n]) implied because fields are real.  A
GridField holds values at radial Gauss-Legendre nodes times uniform azimuthal
angles, with per-cell measures r_i w_i (2 pi / N_theta).  Transforms are
exact (to rounding) for fields in the basis span.  Both run in real
arithmetic: analysis is one product with the basis's truncated real DFT
table (modes n = 0..N) and one batched matmul of [Re F_n, Im F_n] with the
per-mode operators Gram_n^-1 T_n^t diag(2 pi r w), which makes
from_grid(to_grid(f)) an identity and from_grid an orthogonal projection in
the discrete inner product for everything else; synthesis is one batched
matmul with the radial tables and one product with the DFT synthesis table.

Distribution profiles (value vs cumulative cell measure) provide the
rearrangement-class machinery: cells are ordered by value descending, ties
broken by the flattened (radial-major) cell index (numpy's default sort, then
each run of equal values re-sorted by index), so runs are reproducible.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bessel import _j_neighbours, bessel_zeros
from .errors import NonFiniteFieldError, ResolutionError


@dataclass(frozen=True)
class DiskGrid:
    """Collocation grid: Gauss-Legendre radii on (0,1) x uniform angles.

    The nodes are a function of the resolution, so grids compare and hash
    by (n_r, n_theta).
    """

    n_r: int
    n_theta: int
    r: np.ndarray = field(init=False, repr=False, compare=False)
    w_r: np.ndarray = field(init=False, repr=False, compare=False)
    theta: np.ndarray = field(init=False, repr=False, compare=False)
    measure_r: np.ndarray = field(init=False, repr=False, compare=False)
    cell_measure: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x, w = np.polynomial.legendre.leggauss(self.n_r)
        r = 0.5 * (x + 1.0)
        w = 0.5 * w
        theta = 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta
        mu_r = r * w * (2.0 * np.pi / self.n_theta)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "w_r", w)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "measure_r", mu_r)
        object.__setattr__(self, "cell_measure", np.repeat(mu_r, self.n_theta))
        total = self.n_theta * mu_r.sum()
        if abs(total - math.pi) > 1e-12:
            raise ResolutionError(f"cell measures sum to {total!r}, expected pi")

    @property
    def measures(self):
        """Full (n_r, n_theta) matrix of cell measures."""
        return np.broadcast_to(self.measure_r[:, None], (self.n_r, self.n_theta))

    def nodes_xy(self):
        x = self.r[:, None] * np.cos(self.theta)[None, :]
        y = self.r[:, None] * np.sin(self.theta)[None, :]
        return x, y


def _projector(T, rw):
    """Gram^-1 T^t diag(rw): projection onto T's columns in the rw product."""
    G = T.T @ (rw[:, None] * T)
    return np.linalg.solve(G, (rw[:, None] * T).T)


class DiskBasis:
    """Fourier-Bessel basis bound to a collocation grid.

    Holds the radial and azimuthal DFT tables, the per-mode real operators
    r_eval[n] (synthesis) and analysis[n] = Gram_n^-1 r_eval[n]^t diag(2 pi r w),
    and the dealias-band operators and channel projections of euler_sim.
    """

    def __init__(self, n_theta_modes=16, k_radial=32, grid=None):
        # Default 80 radial nodes: Gauss-Legendre is then exact (to rounding)
        # on products of the highest retained radial modes, which keeps the
        # discrete and analytic mode norms consistent below 1e-10.
        if grid is None:
            grid = DiskGrid(80, 128)
        if grid.n_theta < 2 * n_theta_modes + 2:
            raise ResolutionError(
                f"n_theta={grid.n_theta} under-resolves {n_theta_modes} azimuthal modes"
            )
        if grid.n_r < k_radial + 2:
            raise ResolutionError(
                f"n_r={grid.n_r} under-resolves {k_radial} radial modes"
            )
        self.n_modes = int(n_theta_modes)
        self.k_radial = int(k_radial)
        self.grid = grid

        N, K = self.n_modes, self.k_radial
        r = grid.r
        self.roots = np.empty((N + 1, K))
        self.r_eval = np.empty((N + 1, grid.n_r, K))
        self.r_diff = np.empty((N + 1, grid.n_r, K))
        # Analytic squared L2 norms of the basis functions over the disk.
        self.norm2 = np.empty((N + 1, K))
        # One recurrence per order gives J_{n-1}, J_n, J_{n+1} at every node
        # j_{n,k} r_i and at the zeros themselves (the last K abscissae).
        for n in range(N + 1):
            z = bessel_zeros(n, K)
            jm, j, jp = _j_neighbours(n, np.append(np.outer(r, z), z))
            self.roots[n] = z
            self.r_eval[n] = j[:-K].reshape(grid.n_r, K)
            self.r_diff[n] = z * (0.5 * (jm[:-K] - jp[:-K])).reshape(grid.n_r, K)
            self.norm2[n] = math.pi * jp[-K:] ** 2
            if n == 0:
                # Mean of the n=0 radial modes: integral of J_0(j_{0,k} r) over the disk.
                self.mean0 = 2.0 * np.pi * jp[-K:] / z

        # Per-mode analysis operators (N+1, K, n_r): measure-weighted least
        # squares onto the columns of r_eval[n].
        rw = grid.measure_r * grid.n_theta  # = 2 pi r w
        self.analysis = np.stack([_projector(T, rw) for T in self.r_eval])

        self.green_mult = 1.0 / self.roots**2
        # Half-spectrum Parseval weights w_n norm2: row n > 0 also stands for
        # mode -n, so w_0 = 1 and w_n = 2.
        self.parseval = self.norm2.copy()
        self.parseval[1:] *= 2.0

        # Truncated real DFT tables of the modes n = 0..N: with c[-n] = conj(c[n])
        # a grid is [Re s, Im s] @ [w cos; -w sin], w_0 = 1, w_n = 2, and
        # values @ [cos | -sin] / n_theta is [Re F_n, Im F_n].
        n_half = np.arange(N + 1)[:, None]
        w = np.where(n_half == 0, 1.0, 2.0)
        cos = np.cos(n_half * grid.theta)
        sin = np.sin(n_half * grid.theta)
        self.dft_analyze = np.vstack([cos, -sin]).T / grid.n_theta
        self.dft_synth = np.vstack([w * cos, -w * sin])

        # Band operators of the 2/3 dealias band (rows n <= nd, columns
        # k < kd), from the DFT rows n <= nd.  Angular grids have s = i n S,
        # S = over @ c, with i n folded into the table acting on [Re S, Im S].
        nd, kd = self.dealias_band()
        n_half, w, cos, sin = n_half[: nd + 1], w[: nd + 1], cos[: nd + 1], sin[: nd + 1]
        synth_r = np.vstack([w * cos, -w * sin])
        synth_t = np.vstack([-n_half * w * sin, -n_half * w * cos])
        # The advection product of two band fields has modes |n| <= 2 nd, so
        # its projection onto |n| <= nd is exact on any n_b > 3 nd equispaced
        # angles: every s-th angle, s the largest divisor of n_theta that
        # leaves more than 3 nd of them.
        s = max(d for d in range(1, grid.n_theta + 1)
                if grid.n_theta % d == 0 and grid.n_theta // d > 3 * nd)
        self.band_kit = {
            "nd": nd,
            "kd": kd,
            # (nd+1, 2 n_r, kd): d_r rows above (1/r) rows, per mode
            "radial": np.concatenate([self.r_diff[: nd + 1, :, :kd],
                                      self.r_eval[: nd + 1, :, :kd] / r[:, None]], axis=1),
            "mult": self.green_mult[: nd + 1, :kd],
            # (2 nd + 2, n_theta): synthesis on the collocation grid
            "synth_r": synth_r,
            "synth_t": synth_t,
            # (nd+1, kd, n_r): analysis of the truncated tables r_eval[n][:, :kd]
            # (their Gram differs from analysis[n]'s, so not a slice of it)
            "proj": np.stack([_projector(T[:, :kd], rw) for T in self.r_eval[: nd + 1]]),
            # the same tables on the subgrid of every s-th angle, and its
            # analysis: columns cos(n theta), -sin(n theta), over n_b
            "stride": s,
            "sub_synth_r": np.ascontiguousarray(synth_r[:, ::s]),
            "sub_synth_t": np.ascontiguousarray(synth_t[:, ::s]),
            "sub_analyze": np.vstack([cos[:, ::s], -sin[:, ::s]]).T / (grid.n_theta // s),
        }
        # n=0 projection coefficients of the constant and of (1 - r^2)
        self.chan_proj = (self.mean0 / self.norm2[0],
                          4.0 * self.mean0 / (self.roots[0] ** 2 * self.norm2[0]))

    def dealias_band(self):
        """Retained (|n|, k) band under the 2/3 rule."""
        return (2 * self.n_modes) // 3, (2 * self.k_radial) // 3


@dataclass(frozen=True)
class SpectralField:
    """Coefficients over the zero-trace Fourier-Bessel basis.

    coeffs has shape (N+1, K) with row n holding mode n >= 0; mode -n is
    conj(c[n]), implied by reality.  Row 0 is made real at construction
    (on a copy, when it has an imaginary part).
    """

    basis: DiskBasis
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        expected = (self.basis.n_modes + 1, self.basis.k_radial)
        if c.shape != expected:
            raise ValueError(f"coefficient shape {c.shape}, expected {expected}")
        if c[0].imag.any():
            c = c.copy()
            c[0] = c[0].real
        object.__setattr__(self, "coeffs", c)

    def copy(self):
        return SpectralField(self.basis, self.coeffs.copy())


@dataclass(frozen=True)
class GridField:
    """Real values at the collocation nodes, shape (n_r, n_theta)."""

    grid: DiskGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_r, self.grid.n_theta):
            raise ValueError(
                f"value shape {v.shape}, expected {(self.grid.n_r, self.grid.n_theta)}"
            )
        object.__setattr__(self, "values", v)


def zero_field(basis):
    return SpectralField(basis, np.zeros((basis.n_modes + 1, basis.k_radial), complex))


def single_mode(basis, n, k, amplitude=1.0, phase=0.0):
    """Real mode amplitude * J_|n|(j_{|n|,k} r) cos(n theta + phase).

    For n < 0 this is cos(|n| theta - phase), so row |n| holds
    amplitude e^{-i phase} / 2.
    """
    if abs(n) > basis.n_modes or not (1 <= k <= basis.k_radial):
        raise ResolutionError(f"mode ({n},{k}) outside basis")
    c = np.zeros((basis.n_modes + 1, basis.k_radial), complex)
    if n == 0:
        c[0, k - 1] = amplitude * math.cos(phase)
    else:
        c[abs(n), k - 1] = 0.5 * amplitude * np.exp(1j * (phase if n > 0 else -phase))
    return SpectralField(basis, c)


def random_in_span(basis, rng, scale=1.0, n_cut=None, k_cut=None):
    """Random real field with algebraically decaying mode amplitudes."""
    N, K = basis.n_modes, basis.k_radial
    n_cut = N if n_cut is None else min(n_cut, N)
    k_cut = K if k_cut is None else min(k_cut, K)
    c = np.zeros((N + 1, K), complex)
    for n in range(0, n_cut + 1):
        amp = rng.standard_normal(k_cut) + 1j * rng.standard_normal(k_cut)
        amp /= (1.0 + n) * (1.0 + np.arange(k_cut))
        c[n, :k_cut] = amp
    c[0] = c[0].real
    return SpectralField(basis, scale * c)


# ---------------------------------------------------------------------------
# Transforms


def _split(c):
    """(M, K) complex coefficients as (M, K, 2) real [Re c, Im c]."""
    return np.stack([c.real, c.imag], axis=2)


def _modes_to_grid(m, basis):
    """Real grid sum_n w_n Re(S_n(r) e^{i n theta}), w_0 = 1, w_n = 2, from
    the radial values S_n = m[n, :, 0] + i m[n, :, 1] of the modes n = 0..N."""
    return m.transpose(1, 2, 0).reshape(basis.grid.n_r, -1) @ basis.dft_synth


def _analyze(values, basis):
    """(N+1, K, 2) half-spectrum [Re c_n, Im c_n], n = 0..N, of grid values."""
    F = (values @ basis.dft_analyze).reshape(-1, 2, basis.n_modes + 1)
    return np.matmul(basis.analysis, F.transpose(2, 0, 1))


def _synthesize(half, basis):
    """Grid values of the (N+1, K, 2) half-spectrum coefficients."""
    return _modes_to_grid(np.matmul(basis.r_eval, half), basis)


def to_grid(f: SpectralField) -> GridField:
    """Evaluate the basis expansion at all collocation nodes."""
    return GridField(f.basis.grid, _synthesize(_split(f.coeffs), f.basis))


def from_grid(g: GridField, basis: DiskBasis) -> SpectralField:
    """Azimuthal DFT + per-mode measure-weighted radial projection."""
    if g.grid != basis.grid:
        raise ResolutionError("grid field resolution does not match basis grid")
    half = _analyze(g.values, basis)
    return SpectralField(basis, half[..., 0] + 1j * half[..., 1])


def rotate(f: SpectralField, beta: float) -> SpectralField:
    """Rotated field f(r, theta + beta)."""
    phases = np.exp(1j * np.arange(f.basis.n_modes + 1) * beta)
    return SpectralField(f.basis, f.coeffs * phases[:, None])


def azimuthal_shift(g: GridField, steps: int) -> GridField:
    """Grid-exact rotation by ``steps`` azimuthal cells."""
    return GridField(g.grid, np.roll(g.values, -steps, axis=1))


# ---------------------------------------------------------------------------
# Norms, means, profiles


def lp_norm(g: GridField, p: float) -> float:
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    mu = g.grid.measures
    return float((np.abs(g.values) ** p * mu).sum() ** (1.0 / p))


def mean_value(g: GridField) -> float:
    return float((g.values * g.grid.measures).sum() / math.pi)


def spectral_norm2(f: SpectralField) -> float:
    """Squared L2 norm from coefficients (Parseval with analytic mode norms)."""
    return float((np.abs(f.coeffs) ** 2 * f.basis.parseval).sum())


@dataclass(frozen=True)
class DistributionProfile:
    """Sorted (value, cumulative measure) pairs; values non-increasing.

    Cell j holds values[j] on [knots[j], knots[j+1]], knots = [0, cum_measure].
    ``integral`` is the cumulative integral at the knots plus i times the knot
    index, so that one interpolation gives both at any measure point.
    """

    values: np.ndarray
    cum_measure: np.ndarray
    knots: np.ndarray = field(init=False, repr=False, compare=False)
    integral: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if np.any(np.diff(self.values) > 0):
            raise ValueError("profile values must be non-increasing")
        if abs(self.cum_measure[-1] - math.pi) > 1e-9:
            raise ValueError("profile cumulative measure must end at pi")
        knots = np.concatenate([[0.0], self.cum_measure])
        integral = np.zeros(knots.size, complex)
        np.cumsum(self.values * np.diff(knots), out=integral.real[1:])
        integral.imag = np.arange(knots.size)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "integral", integral)

    def slot_averages(self, bounds, measures):
        """Profile average over each slot [bounds[i], bounds[i+1]] of measure
        measures[i]: exact for a slot inside one profile cell, and clipped
        into [value at the slot end, value at its start], which rounding of
        the integral differences can leave."""
        at = np.interp(bounds, self.knots, self.integral)
        cell = at.imag.astype(np.intp)  # the cell right of each bound
        # the cell left of each slot end; the fractional index is exact at a knot
        end = cell[1:] - (cell[1:] == at.imag[1:])
        avg = np.diff(at.real)
        del at      # fewer live temporaries: see transplant
        avg /= measures
        np.maximum(avg, self.values[end], out=avg)
        return np.minimum(avg, self.values[cell[:-1]], out=avg)

    def resample(self, points):
        idx = np.clip(
            np.searchsorted(self.cum_measure, points, side="left"),
            0,
            len(self.values) - 1,
        )
        return self.values[idx]

    def value_range(self):
        return float(self.values[0] - self.values[-1])


def _descending_order(flat):
    """Stable descending order of ``flat`` (ties by index) from the faster
    default sort, whose runs of equal values are re-sorted by index in one
    integer sort of run * n + index.  NaN and +-inf, at the ends, raise."""
    order = np.argsort(-flat)
    s = flat[order]
    if not (math.isfinite(s[0]) and math.isfinite(s[-1])):
        raise NonFiniteFieldError(f"field holds non-finite values ({s[0]!r}, {s[-1]!r})")
    same = s[1:] == s[:-1]
    if same.any():
        tied = np.append(same, False)           # cells in a run of equal values
        tied[1:] |= same
        pos = np.flatnonzero(tied)
        run = np.cumsum(~same[pos - 1])         # run number, up to a constant
        order[pos] = np.sort(run * flat.size + order[pos]) % flat.size
    return order


def distribution_profile(g: GridField) -> DistributionProfile:
    """Cells sorted by value descending, ties broken by flattened index."""
    flat = g.values.ravel()
    order = _descending_order(flat)
    return DistributionProfile(flat[order], np.cumsum(g.grid.cell_measure[order]))


def profiles_close(p1, p2, tol=None, n_samples=1000):
    """Equimeasurability check on profiles resampled at common measure points."""
    pts = (np.arange(1, n_samples + 1) - 0.5) * (math.pi / n_samples)
    v1 = p1.resample(pts)
    v2 = p2.resample(pts)
    if tol is None:
        tol = 1e-6 * max(p1.value_range(), p2.value_range(), 1e-300)
    return bool(np.max(np.abs(v1 - v2)) <= tol), float(np.max(np.abs(v1 - v2)))


def quantization_tolerance(profile, grid):
    """Value slack absorbing one cell of measure quantization.

    Cell-level transplantation reproduces a profile only up to the value
    variation across a single cell's measure, so comparisons against
    transplanted fields use this bound (plus the exact-case tolerance).
    """
    mu_max = float(grid.measure_r.max())
    drop = np.max(profile.values - profile.resample(profile.cum_measure + mu_max))
    return float(drop + 1e-6 * max(profile.value_range(), 1e-300))


def transplant(profile: DistributionProfile, onto: GridField) -> GridField:
    """Measure-preserving monotone transplantation of ``profile`` onto the
    level structure of ``onto``: cells sorted by ``onto`` descending (ties
    broken by flattened index) receive the profile's average over their
    cumulative-measure slot.  The result lies in the convex hull of the
    profile's rearrangement class on the grid."""
    order = _descending_order(onto.values.ravel())
    mu = onto.grid.cell_measure[order]
    bounds = np.zeros(mu.size + 1)
    np.cumsum(mu, out=bounds[1:])
    # averaged before new_vals is allocated, and with the interpolant freed
    # early: with fewer live temporaries the allocator keeps its pages rather
    # than faulting them in again every ascent step
    averages = profile.slot_averages(bounds, mu)
    new_vals = np.empty(mu.size)
    new_vals[order] = averages
    return GridField(onto.grid, new_vals.reshape(onto.values.shape))


def ring_shuffle(g: GridField, rng) -> GridField:
    """Random permutation of values within each radial ring.

    Cells in one ring share the same measure, so this is an exact
    rearrangement on the discrete grid.
    """
    vals = g.values.copy()
    for i in range(g.grid.n_r):
        vals[i] = vals[i, rng.permutation(g.grid.n_theta)]
    return GridField(g.grid, vals)


# ---------------------------------------------------------------------------
# Serialization: {"kind": "grid"|"spectral", "shape": [...], "data": [...]},
# row-major; spectral data stores [re, im] pairs of the half spectrum, shape
# [N+1, K].  Writers may add metadata keys; readers ignore unknown keys.


def field_to_dict(f):
    if isinstance(f, GridField):
        return {
            "kind": "grid",
            "shape": list(f.values.shape),
            "data": [float(v) for v in f.values.ravel()],
        }
    if isinstance(f, SpectralField):
        flat = f.coeffs.ravel()
        return {
            "kind": "spectral",
            "shape": list(f.coeffs.shape),
            "data": [[float(z.real), float(z.imag)] for z in flat],
        }
    raise TypeError(f"not a field: {type(f)!r}")


def field_from_dict(doc, basis=None, grid=None):
    kind = doc["kind"]
    shape = tuple(doc["shape"])
    if kind == "grid":
        if grid is None:
            raise ValueError("grid fields require the target DiskGrid")
        vals = np.array(doc["data"], dtype=float).reshape(shape)
        return GridField(grid, vals)
    if kind == "spectral":
        if basis is None:
            raise ValueError("spectral fields require the target DiskBasis")
        pairs = np.array(doc["data"], dtype=float).reshape(shape + (2,))
        return SpectralField(basis, pairs[..., 0] + 1j * pairs[..., 1])
    raise ValueError(f"unknown field kind {kind!r}")


def save_field(path, f, extra=None):
    doc = field_to_dict(f)
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_field(path, basis=None, grid=None):
    with open(path) as fh:
        return field_from_dict(json.load(fh), basis=basis, grid=grid)
