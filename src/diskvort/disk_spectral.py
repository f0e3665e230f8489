"""Scalar fields on the unit disk: spectral and collocation representations.

A SpectralField holds the coefficients of a real field over the zero-trace
basis e^{i n theta} J_{|n|}(j_{|n|,k} r), 1 <= k <= K, as the half spectrum
n = 0..N, c[-n] = conj(c[n]) implied, on the one layout that every kernel
reads: a set of modes n < M is a real (M, 2, K) array with a [Re c_n; Im c_n]
row pair per mode, so that every reshape between stages is a free view.  A
GridField holds values at radial Gauss-Legendre nodes times uniform azimuthal
angles, with per-cell measures r_i w_i (2 pi / N_theta).  Transforms are
exact (to rounding) for fields in the basis span, in real arithmetic.  The
truncated real DFT tables interleave their rows (or columns) to
match: cos(n theta) beside -sin(n theta) for each mode.  Analysis is one
product of the DFT analysis table's transpose with the transposed values,
read as [Re F_n; Im F_n] per mode, and one batched matmul with the per-mode
operators (Gram_n^-1 T_n^t diag(2 pi r w))^t, which makes
from_grid(to_grid(f)) an identity and from_grid an orthogonal projection in
the discrete inner product for everything else; synthesis is one batched
matmul with the transposed radial tables and one product of the transposed
radial values with the DFT synthesis table.  These two kernels, ``_synth``
and ``_project``, are the only ones: the solver's dealias band runs them on
band tables cut from the DFT tables.

Distribution profiles (value vs cumulative cell measure) provide the
rearrangement-class machinery: cells are ordered by value descending, ties
broken by the flattened (radial-major) cell index, so runs are reproducible.
The order is one sort of int64 keys, each the integer image of the negated
value with the cell index in its low bits; values that differ only in those
bits are then put right, so the order is bitwise numpy's stable argsort of
the negated values.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bessel import _j_neighbours, _order_zeros
from .errors import NonFiniteFieldError, ResolutionError
from .quadrature import gauss_legendre


# the most abscissae of one batch of the basis tables: their (3, columns)
# Bessel rows, 127 KB, stay under glibc's 128 KB mmap threshold, so the
# batches reuse heap pages rather than map fresh ones (the default basis
# builds its 17 orders in 9 batches)
_TABLE_COLUMNS = 5400

# the lowest n = 0 radial modes that carry euler_sim's mean fix, or all kd
_MEAN_FIX_MODES = 6

# the least normal float: an L^p sum below it has lost digits to underflow
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class DiskGrid:
    """Collocation grid: Gauss-Legendre radii on (0,1) x uniform angles.

    The radii and weights come from ``quadrature.gauss_legendre``: Newton on
    the Legendre recurrence, nodes within 2 ulp and weights within 1e-12
    relative of a 40-digit reference for n_r <= 256 (1.4e-14 at n_r = 80).
    The nodes are a function of the resolution, so grids compare and hash
    by (n_r, n_theta).  ``measures`` is the read-only (n_r, n_theta) array of
    cell measures r_i w_i (2 pi / n_theta), and ``cell_measure`` its flat view.
    """

    n_r: int
    n_theta: int
    r: np.ndarray = field(init=False, repr=False, compare=False)
    theta: np.ndarray = field(init=False, repr=False, compare=False)
    measure_r: np.ndarray = field(init=False, repr=False, compare=False)
    measures: np.ndarray = field(init=False, repr=False, compare=False)
    cell_measure: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x, w = gauss_legendre(self.n_r)
        r = 0.5 * (x + 1.0)
        theta = 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta
        mu_r = r * (0.5 * w) * (2.0 * np.pi / self.n_theta)
        measures = np.repeat(mu_r, self.n_theta).reshape(self.n_r, self.n_theta)
        measures.flags.writeable = False
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "measure_r", mu_r)
        object.__setattr__(self, "measures", measures)
        object.__setattr__(self, "cell_measure", measures.reshape(-1))
        total = self.n_theta * mu_r.sum()
        if abs(total - math.pi) > 1e-12:
            raise ResolutionError(f"cell measures sum to {total!r}, expected pi")


def _projector(T, rw):
    """Gram^-1 T^t diag(rw): projection onto T's columns in the rw product."""
    G = T.T @ (rw[:, None] * T)
    return np.linalg.solve(G, (rw[:, None] * T).T)


class DiskBasis:
    """Fourier-Bessel basis bound to a collocation grid.

    Holds the radial and azimuthal DFT tables, the per-mode real operators
    r_eval[n] (synthesis) and analysis[n] = Gram_n^-1 r_eval[n]^t diag(2 pi r w),
    and the dealias-band operators of euler_sim.
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
        nd, kd = self.dealias_band()
        if kd == 0:
            raise ResolutionError(f"k_radial={K} leaves no radial mode in the dealias band")
        r = grid.r
        self.roots = np.empty((N + 1, K))
        self.r_eval = np.empty((N + 1, grid.n_r, K))
        # The solver's radial operator, (nd+1, kd, 4 n_r): per mode and basis
        # function the columns d_r omega, d_r psi, (1/r) psi and (1/r) omega,
        # psi = omega / j^2 folded in, so that the d_r block times the (1/r)
        # block pairs the two advection products, and the psi columns are
        # adjacent.  It is filled in place; its d_r omega columns are the one
        # radial derivative table, computed for the band's orders and modes.
        radial = np.empty((nd + 1, kd, 4, grid.n_r))
        # Analytic squared L2 norms of the basis functions over the disk.
        self.norm2 = np.empty((N + 1, K))
        # One solve finds the zeros of every order; then one recurrence per
        # batch of orders gives J_{n-1}, J_n, J_{n+1} at every node j_{n,k} r_i
        # and at the zeros themselves (the last K abscissae of each order).
        zeros = _order_zeros(range(N + 1), K)
        per_order = (grid.n_r + 1) * K
        batch = max(1, _TABLE_COLUMNS // per_order)
        for first in range(0, N + 1, batch):
            orders = np.arange(first, min(first + batch, N + 1))
            z = np.array([zeros[n][:K] for n in orders])
            s = np.concatenate([np.append(np.outer(r, zn), zn) for zn in z])
            jm, j, jp = _j_neighbours(np.repeat(orders, per_order), s).reshape(
                3, orders.size, per_order)
            rows = slice(first, first + orders.size)
            self.roots[rows] = z
            self.r_eval[rows] = j[:, :-K].reshape(-1, grid.n_r, K)
            nb = max(0, min(orders.size, nd + 1 - first))       # the band's orders
            jm_b, jp_b = (t[:nb, :-K].reshape(nb, grid.n_r, K)[..., :kd] for t in (jm, jp))
            radial[first: first + nb, :, 0] = (
                z[:nb, None, :kd] * (0.5 * (jm_b - jp_b))).transpose(0, 2, 1)
            self.norm2[rows] = math.pi * jp[:, -K:] ** 2
            if first == 0:
                # Mean of the n=0 radial modes: integral of J_0(j_{0,k} r) over the disk.
                self.mean0 = 2.0 * np.pi * jp[0, -K:] / z[0]

        # Per-mode analysis operators (N+1, K, n_r): measure-weighted least
        # squares onto the columns of r_eval[n].
        rw = grid.measure_r * grid.n_theta  # = 2 pi r w
        self.analysis = np.stack([_projector(T, rw) for T in self.r_eval])

        self.green_mult = 1.0 / self.roots**2
        # Half-spectrum Parseval weights w_n norm2: row n > 0 also stands for
        # mode -n, so w_0 = 1 and w_n = 2.
        self.parseval = self.norm2.copy()
        self.parseval[1:] *= 2.0

        # Truncated real DFT tables of the modes n = 0..N, a row pair
        # [cos(n theta); -sin(n theta)] per mode.  With c[-n] = conj(c[n]) a
        # grid is S^t @ dft_synth, S the (2 N + 2, n_r) radial values
        # [Re S_n; Im S_n] and dft_synth the rows [w cos; -w sin], w_0 = 1,
        # w_n = 2; and dft_analyze^t @ values^t, dft_analyze the columns
        # [cos | -sin] / n_theta, is [Re F_n; Im F_n].
        n_half = np.arange(N + 1)[:, None]
        w = np.where(n_half == 0, 1.0, 2.0)
        cos_sin = np.stack([np.cos(n_half * grid.theta),
                            -np.sin(n_half * grid.theta)], axis=1).reshape(2 * N + 2, -1)
        self.dft_analyze = cos_sin.T / grid.n_theta
        self.dft_synth = np.repeat(w, 2, axis=0) * cos_sin

        # Band operators of the 2/3 dealias band (rows n <= nd, columns
        # k < kd): the DFT synthesis rows n <= nd.  Angular grids have
        # s = i n S, with i n folded into the table acting on [Re S; Im S]:
        # rows -n w sin and -n w cos.
        synth_r = self.dft_synth[: 2 * nd + 2]
        n_band, w_cos, w_sin = n_half[: nd + 1], synth_r[0::2], -synth_r[1::2]
        synth_t = np.stack([-n_band * w_sin, -n_band * w_cos], axis=1).reshape(2 * nd + 2, -1)
        w_rows = np.repeat(w[: nd + 1], 2, axis=0)
        mult = self.green_mult[: nd + 1, :kd, None]
        np.multiply(radial[:, :, 0], mult, out=radial[:, :, 1])
        np.divide(self.r_eval[: nd + 1, :, :kd].transpose(0, 2, 1), r, out=radial[:, :, 3])
        np.multiply(radial[:, :, 3], mult, out=radial[:, :, 2])
        mean0 = self.mean0[: min(_MEAN_FIX_MODES, kd)]
        # The advection product of two band fields has modes |n| <= 2 nd, so
        # its projection onto |n| <= nd is exact on any n_b > 3 nd equispaced
        # angles: every s-th angle, s the largest divisor of n_theta that
        # leaves more than 3 nd of them.
        s = max(d for d in range(1, grid.n_theta + 1)
                if grid.n_theta % d == 0 and grid.n_theta // d > 3 * nd)
        self.band_kit = {
            "nd": nd,
            "kd": kd,
            "radial": radial.reshape(nd + 1, kd, 4 * grid.n_r),
            # (2 nd + 2, n_theta): synthesis on the collocation grid
            "synth_r": synth_r,
            "synth_t": synth_t,
            # (nd+1, kd, n_r): analysis of the truncated tables r_eval[n][:, :kd]
            # (their Gram differs from analysis[n]'s, so not a slice of it)
            "proj": np.stack([_projector(T[:, :kd], rw) for T in self.r_eval[: nd + 1]]),
            # the same tables on the subgrid of every s-th angle, and its
            # analysis: columns cos(n theta), -sin(n theta), over n_b (w is
            # 1 or 2, so dividing the synthesis rows by it is exact)
            "sub_synth_r": np.ascontiguousarray(synth_r[:, ::s]),
            "sub_synth_t": np.ascontiguousarray(synth_t[:, ::s]),
            "sub_analyze": (synth_r[:, ::s] / w_rows).T / (grid.n_theta // s),
            # the mean fix's constants: the defect row mean0[:kd]; on its
            # lowest m = min(6, kd) modes the spanning row mean0, the n = 0
            # energy weights norm2 / j^2 of the trace's gradient W y + X_psi,
            # and the Gram entry of mean0
            "mean_row": self.mean0[:kd].copy(),
            "mean0": mean0,
            "energy_row": self.norm2[0, : mean0.size] * self.green_mult[0, : mean0.size],
            "g00": float(mean0 @ mean0),
            # the CFL step's length pi / max j, the half wavelength of the
            # finest band oscillation: the Gauss-Legendre node clustering near
            # r = 0 and r = 1 is a quadrature artifact, not a stability
            # constraint of the Galerkin evaluation
            "spacing": math.pi / self.roots[: nd + 1, :kd].max(),
        }

    def dealias_band(self):
        """Retained (|n|, k) band under the 2/3 rule."""
        return (2 * self.n_modes) // 3, (2 * self.k_radial) // 3


@dataclass(frozen=True)
class SpectralField:
    """Coefficients over the zero-trace Fourier-Bessel basis.

    coeffs is the real (N+1, 2, K) array of row pairs [Re c_n; Im c_n],
    n >= 0; mode -n is conj(c_n), implied by reality.  Row 0's imaginary
    part is zeroed at construction (on a copy, when it is nonzero).  A
    complex array raises ValueError: converting it would drop its imaginary part.
    """

    basis: DiskBasis
    coeffs: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.coeffs):
            raise ValueError("complex coefficients; expected the real rows [Re c; Im c]")
        c = np.asarray(self.coeffs, dtype=float)
        expected = (self.basis.n_modes + 1, 2, self.basis.k_radial)
        if c.shape != expected:
            raise ValueError(f"coefficient shape {c.shape}, expected {expected}")
        if c[0, 1].any():
            c = c.copy()
            c[0, 1] = 0.0
        object.__setattr__(self, "coeffs", c)


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


def single_mode(basis, n, k, amplitude=1.0, phase=0.0):
    """Real mode amplitude * J_|n|(j_{|n|,k} r) cos(n theta + phase).

    For n < 0 this is cos(|n| theta - phase), so row |n| holds
    amplitude e^{-i phase} / 2.
    """
    if abs(n) > basis.n_modes or not (1 <= k <= basis.k_radial):
        raise ResolutionError(f"mode ({n},{k}) outside basis")
    c = np.zeros((basis.n_modes + 1, 2, basis.k_radial))
    if n == 0:
        c[0, 0, k - 1] = amplitude * math.cos(phase)
    else:
        half, angle = 0.5 * amplitude, phase if n > 0 else -phase
        c[abs(n), :, k - 1] = half * math.cos(angle), half * math.sin(angle)
    return SpectralField(basis, c)


def random_in_span(basis, rng, scale=1.0, n_cut=None, k_cut=None):
    """Random real field with algebraically decaying mode amplitudes: per
    mode n <= n_cut, k_cut draws of Re c_n, then k_cut of Im c_n."""
    N, K = basis.n_modes, basis.k_radial
    n_cut = N if n_cut is None else min(n_cut, N)
    k_cut = K if k_cut is None else min(k_cut, K)
    c = np.zeros((N + 1, 2, K))
    for n in range(0, n_cut + 1):
        # times 1 / decay, as numpy divided complex draws by a real decay: same bits
        decay = (1.0 + n) * (1.0 + np.arange(k_cut))
        c[n, :, :k_cut] = rng.standard_normal((2, k_cut)) * (1.0 / decay)
    return SpectralField(basis, scale * c)


# ---------------------------------------------------------------------------
# Transforms


def _outside_band(coeffs, basis: DiskBasis):
    """The two blocks of ``coeffs`` (N+1, ..., K) outside the dealias band, as views."""
    nd, kd = basis.dealias_band()
    return coeffs[nd + 1:], coeffs[: nd + 1, ..., kd:]


def _in_band(f: SpectralField):
    # count_nonzero beats any() here: 0.8 and 1.0 us against 1.2 and 1.4 (default basis)
    return not any(np.count_nonzero(block) for block in _outside_band(f.coeffs, f.basis))


def _band_values(f: SpectralField):
    """A copy of the band of f's coefficients, (nd+1, 2, kd), that no band
    array shares with f; ResolutionError if f has content outside the band."""
    if not _in_band(f):
        raise ResolutionError("field has content outside the dealias band")
    kit = f.basis.band_kit
    return f.coeffs[: kit["nd"] + 1, :, : kit["kd"]].copy()


def _on_basis(f: SpectralField, basis: DiskBasis):
    """f, if its basis has the resolution of ``basis`` (modes, radial modes
    and grid; a basis built apart at that resolution passes), ResolutionError
    otherwise."""
    b = f.basis
    if (b.n_modes, b.k_radial, b.grid) != (basis.n_modes, basis.k_radial, basis.grid):
        raise ResolutionError(
            f"field on a {b.n_modes} x {b.k_radial} basis over {b.grid}, expected "
            f"{basis.n_modes} x {basis.k_radial} over {basis.grid}")
    return f


def _embed(band, basis: DiskBasis):
    """The (N+1, 2, K) coefficients of the band rows, zero padded."""
    nd1, _, kd = band.shape
    coeffs = np.zeros((basis.n_modes + 1, 2, basis.k_radial))
    coeffs[:nd1, :, :kd] = band
    return coeffs


def _synth(m, tables):
    """Real grids sum_n w_n Re(S_n(r) e^{i n theta}), w_0 = 1, w_n = 2, of the
    radial values m, shape (M, 2, len(tables) rows), [Re S_n; Im S_n] for the
    modes n < M: column block d synthesized by tables[d], a (2 M, n_angles)
    DFT synthesis table with a row pair per mode.  m read as (2 M, columns) is
    a free view, and each block is one real product of its transpose with the
    table.  The only temporaries are the grids: at 80 x 128 one grid is 80 KB,
    under glibc's 128 KB mmap threshold (larger ones can get fresh pages on
    every call, and their page faults cost more than the products)."""
    t = m.reshape(-1, m.shape[2]).T
    rows = t.shape[0] // len(tables)
    return [t[d * rows:(d + 1) * rows] @ table for d, table in enumerate(tables)]


def _project(values, analyze, proj):
    """Real (M, 2, K) coefficients [Re c_n; Im c_n] of grid values at the angles
    of the DFT analysis table ``analyze`` (n_angles, 2 M), columns cos, -sin
    per mode: [Re F_n; Im F_n] of the modes n < M from one real product of the
    transposes, then projected by the per-mode radial operators ``proj``
    (M, K, n_r), transposed, in one batched matmul."""
    F = (analyze.T @ values.T).reshape(proj.shape[0], 2, -1)
    return np.matmul(F, proj.transpose(0, 2, 1))


def _analyze(values, basis):
    """(N+1, 2, K) half-spectrum [Re c_n; Im c_n], n = 0..N, of grid values."""
    return _project(values, basis.dft_analyze, basis.analysis)


def _synthesize(half, basis):
    """Grid values of the (N+1, 2, K) half-spectrum coefficients."""
    return _synth(np.matmul(half, basis.r_eval.transpose(0, 2, 1)), (basis.dft_synth,))[0]


def to_grid(f: SpectralField) -> GridField:
    """Evaluate the basis expansion at all collocation nodes."""
    return GridField(f.basis.grid, _synthesize(f.coeffs, f.basis))


def from_grid(g: GridField, basis: DiskBasis) -> SpectralField:
    """Azimuthal DFT + per-mode measure-weighted radial projection."""
    if g.grid != basis.grid:
        raise ResolutionError("grid field resolution does not match basis grid")
    return SpectralField(basis, _analyze(g.values, basis))


def rotate(f: SpectralField, beta: float) -> SpectralField:
    """Rotated field f(r, theta + beta): each c_n times e^{i n beta}."""
    n_beta = np.arange(f.basis.n_modes + 1)[:, None] * beta
    (re, im), cos, sin = f.coeffs.swapaxes(0, 1), np.cos(n_beta), np.sin(n_beta)
    return SpectralField(f.basis, np.stack([re * cos - im * sin, re * sin + im * cos], axis=1))


# ---------------------------------------------------------------------------
# Norms, means, profiles


def _check_p(p):
    """ValueError unless 1 <= p < inf; NaN fails too."""
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must lie in [1, inf), got {p}")


def weighted_lp(a, mu, p: float) -> float:
    """(sum mu a^p)^(1/p) of magnitudes a >= 0.  Where that sum leaves the
    normal float range (large p), it is taken on a / max a instead and the
    root scaled back, so it neither underflows to 0 nor overflows."""
    with np.errstate(over="ignore"):
        s = (a ** p * mu).sum()
    if not _TINY <= s < math.inf and 0.0 < (top := float(a.max())) < math.inf:
        return top * float(((a / top) ** p * mu).sum() ** (1.0 / p))
    return float(s ** (1.0 / p))


def lp_norm(g: GridField, p: float) -> float:
    _check_p(p)
    return weighted_lp(np.abs(g.values), g.grid.measures, p)


def spectral_norm2(f: SpectralField) -> float:
    """Squared L2 norm from coefficients (Parseval with analytic mode norms)."""
    return float((np.square(f.coeffs).sum(axis=1) * f.basis.parseval).sum())


def casimir3_drift(initial: GridField, final: GridField) -> float:
    """|C_3(final) - C_3(initial)| / int |omega_initial|^3 dA, C_3 = int omega^3 dA.

    The Euler flow conserves every Casimir int F(omega) dA; C_3 is the lowest
    one that the L^2 norm does not already give.  Each integral is a row sum
    of the cubes against the ring measures ``measure_r``.  On the solver's
    fields, the dealias band of a DiskBasis (|n| <= nd) plus a radial channel,
    the angular sum is exact: omega^3 has |n| <= 3 nd <= 2 N < n_theta, so
    only its n = 0 part survives the sum, and an exact rotation, which leaves
    that part alone, moves the reading by rounding only.
    """
    cubes = [g.values * g.values * g.values for g in (initial, final)]
    mu = initial.grid.measure_r
    c0, c1, scale = (float(c.sum(axis=1) @ mu) for c in (*cubes, np.abs(cubes[0])))
    return abs(c1 - c0) / max(scale, 1e-300)


@dataclass(frozen=True)
class DistributionProfile:
    """Sorted (value, cumulative measure) pairs; values non-increasing.

    Cell j holds values[j] on [knots[j], knots[j+1]], knots = [0, cum_measure].
    ``integral`` is the cumulative integral at the knots plus i times the knot
    index, so that one interpolation gives both at any measure point.  Both
    tables serve slot_averages, the profile's one reader, and are built once,
    at construction.
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


def _descending_order(flat):
    """Stable descending order of ``flat`` (ties by index) from one sort of
    int64 keys: the order-preserving integer image of 0.0 - flat (which folds
    -0.0 into +0.0), its low bits replaced by the cell index.  Cells whose
    keys agree above those bits are then in index order, equal values among
    them too; where their values rise, one stable sort of the gathered values
    puts them right.  NaN and +-inf, at the ends, raise."""
    mask = (1 << (flat.size - 1).bit_length()) - 1
    key = np.subtract(0.0, flat).view(np.int64)
    key ^= (key >> 63) & 0x7FFFFFFFFFFFFFFF     # negative: flip the magnitude
    key &= ~mask
    key |= np.arange(flat.size)
    key.sort()
    order = key & mask
    s = flat[order]
    if not (math.isfinite(s[0]) and math.isfinite(s[-1])):
        raise NonFiniteFieldError(f"field holds non-finite values ({s[0]!r}, {s[-1]!r})")
    if (s[1:] > s[:-1]).any():
        order = order[np.argsort(0.0 - s, kind="stable")]
    return order


def distribution_profile(g: GridField) -> DistributionProfile:
    """Cells sorted by value descending, ties broken by flattened index."""
    flat = g.values.ravel()
    order = _descending_order(flat)
    return DistributionProfile(flat[order], np.cumsum(g.grid.cell_measure[order]))


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
# row-major; spectral data stores the [Re; Im] axis of the coefficients last,
# as [re, im] pairs of shape [N+1, K].  Writers may add metadata keys; readers
# ignore unknown keys.


def field_to_dict(f):
    if isinstance(f, GridField):
        return {
            "kind": "grid",
            "shape": list(f.values.shape),
            "data": [float(v) for v in f.values.ravel()],
        }
    if isinstance(f, SpectralField):
        pairs = f.coeffs.swapaxes(1, 2)
        return {
            "kind": "spectral",
            "shape": list(pairs.shape[:2]),
            "data": pairs.reshape(-1, 2).tolist(),
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
        return SpectralField(basis, pairs.swapaxes(1, 2))
    raise ValueError(f"unknown field kind {kind!r}")


def save_field(path, f, extra=None):
    doc = field_to_dict(f)
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh)
