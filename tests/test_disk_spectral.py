import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diskvort import disk_spectral as ds
from diskvort import green_energy as ge
from diskvort import steady_family as sf
from diskvort import variational as vr
from diskvort.bessel import bessel_j, bessel_j_prime, bessel_zero
from diskvort.errors import NonFiniteFieldError, ResolutionError
from complex_layout import as_complex, as_rows


def _mean_value(g):
    """The disk mean of a grid field: its cell-measure sum over pi."""
    return float((g.values * g.grid.measures).sum() / math.pi)


def azimuthal_shift(g, steps):
    """Grid-exact rotation by ``steps`` azimuthal cells."""
    return ds.GridField(g.grid, np.roll(g.values, -steps, axis=1))


def test_cell_measures(grid):
    assert abs(grid.n_theta * grid.measure_r.sum() - math.pi) < 1e-12
    assert (grid.measure_r > 0).all()


def test_measures_array_matches_broadcast_form(basis, grid, rng):
    # the precomputed measures give bitwise the sums of the broadcast view
    # they replaced
    assert grid.measures.flags.c_contiguous and not grid.measures.flags.writeable
    assert np.shares_memory(grid.cell_measure, grid.measures)
    old = ds.DiskGrid(grid.n_r, grid.n_theta)
    object.__setattr__(old, "measures", np.broadcast_to(
        old.measure_r[:, None], (old.n_r, old.n_theta)))
    ve = sf.VElement(0.3, 1.0, 0.4)
    omega = ds.to_grid(ds.random_in_span(basis, rng))
    psi = ds.to_grid(ds.random_in_span(basis, rng))

    def on(g, f):
        return ds.GridField(g, f.values)

    assert np.array_equal(old.measures, grid.measures)
    assert ge.energy_grid(omega, psi) == ge.energy_grid(on(old, omega), on(old, psi))
    assert _mean_value(omega) == _mean_value(on(old, omega))
    for p in (1.0, 1.5, 2.0, 4.0):
        assert ds.lp_norm(omega, p) == ds.lp_norm(on(old, omega), p)
        if p > 1:
            assert (sf.orbital_distance(omega, ve, p)
                    == sf.orbital_distance(on(old, omega), ve, p))


def test_setup_calls_no_eigen_solver():
    # a fresh interpreter builds the default basis, the steady state and the
    # first tendency with numpy's eigen solvers refusing to run: the radial
    # rule comes from quadrature.gauss_legendre, not from leggauss, whose
    # eigvalsh woke OpenBLAS's worker thread for the rest of the build
    code = (
        "import sys\n"
        "import numpy as np\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('eigen solver called')\n"
        "for name in ('eig', 'eigh', 'eigvals', 'eigvalsh'):\n"
        "    setattr(np.linalg, name, refuse)\n"
        "from diskvort.disk_spectral import DiskBasis, DiskGrid\n"
        "from diskvort.euler_sim import steady_state, tendency\n"
        "from diskvort.steady_family import VElement\n"
        "basis = DiskBasis(16, 32, DiskGrid(80, 128))\n"
        "state = steady_state(VElement(0.5, 1.0, 0.0), basis)\n"
        "tendency(state.w, state.background)\n"
        "assert 'numpy.polynomial' not in sys.modules\n"
    )
    src = str(Path(ds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_resolution_preconditions():
    with pytest.raises(ResolutionError):
        ds.DiskBasis(16, 32, ds.DiskGrid(80, 30))   # too few angles
    with pytest.raises(ResolutionError):
        ds.DiskBasis(16, 32, ds.DiskGrid(20, 128))  # too few radii
    # k_radial = 1 leaves kd = 0 radial modes in the dealias band; the build
    # failed on a zero-size reduction (ValueError) after its zero solve
    with pytest.raises(ResolutionError, match="no radial mode in the dealias band"):
        ds.DiskBasis(4, 1, ds.DiskGrid(12, 16))
    assert ds.DiskBasis(4, 2, ds.DiskGrid(12, 16)).band_kit["kd"] == 1


def test_basis_roots_are_the_zero_table(basis):
    for n in range(basis.n_modes + 1):
        for k in range(1, basis.k_radial + 1):
            assert basis.roots[n, k - 1] == bessel_zero(n, k)


def test_radial_tables_match_pointwise_calls(basis, grid):
    # the tables come from one recurrence per order over all its abscissae;
    # one bessel_j / bessel_j_prime call per (n, k) is the reference, for the
    # d_r rows on the dealias band they feed
    nd, kd = basis.dealias_band()
    d_r = basis.band_kit["radial"][:, :, : grid.n_r]
    for n in range(basis.n_modes + 1):
        for k, z in enumerate(basis.roots[n]):
            jr = z * grid.r
            assert np.abs(basis.r_eval[n, :, k] - bessel_j(n, jr)).max() <= 1e-14
            if n <= nd and k < kd:
                assert np.abs(d_r[n, k] - z * bessel_j_prime(n, jr)).max() <= 1e-14
            assert abs(basis.norm2[n, k] - math.pi * bessel_j(n + 1, z) ** 2) <= 1e-14
    assert not hasattr(basis, "r_diff")
    mean0 = [2.0 * np.pi * bessel_j(1, z) / z for z in basis.roots[0]]
    assert np.abs(basis.mean0 - mean0).max() <= 1e-14


def test_to_grid_zero_field(basis):
    zero = np.zeros((basis.n_modes + 1, 2, basis.k_radial))
    g = ds.to_grid(ds.SpectralField(basis, zero))
    assert np.all(g.values == 0.0)


def test_to_grid_single_mode_oracle(basis, grid):
    j = bessel_zero(1, 1)
    g = ds.to_grid(ds.single_mode(basis, 1, 1))
    i = int(np.argmin(np.abs(grid.r - 0.5)))
    expect = bessel_j(1, j * grid.r[i]) * np.cos(grid.theta)
    assert np.abs(g.values[i] - expect).max() < 1e-12


def test_round_trip_identity(basis, rng):
    f = ds.random_in_span(basis, rng)
    f2 = ds.from_grid(ds.to_grid(f), basis)
    assert np.abs(as_complex(f.coeffs - f2.coeffs)).max() < 1e-10


def test_from_grid_constant_is_radial(basis, grid):
    g = ds.GridField(grid, np.ones((grid.n_r, grid.n_theta)))
    f = ds.from_grid(g, basis)
    others = np.delete(f.coeffs, 0, axis=0)
    assert np.abs(as_complex(others)).max() < 1e-12


def test_from_grid_pure_radial_mode(basis, grid):
    z = bessel_zero(0, 2)
    vals = np.tile(bessel_j(0, z * grid.r)[:, None], (1, grid.n_theta))
    f = ds.from_grid(ds.GridField(grid, vals), basis)
    c = as_complex(f.coeffs)
    assert abs(c[0, 1] - 1.0) < 1e-9
    c[0, 1] = 0.0
    assert np.abs(c).max() < 1e-9


def test_from_grid_rejects_other_grid(basis):
    other = ds.DiskGrid(40, 64)
    g = ds.GridField(other, np.zeros((40, 64)))
    with pytest.raises(ResolutionError):
        ds.from_grid(g, basis)


def test_grids_compare_and_hash_by_resolution(basis):
    a, b = ds.DiskGrid(80, 128), ds.DiskGrid(80, 128)
    assert a == b and hash(a) == hash(b) and a == basis.grid
    assert a != ds.DiskGrid(80, 64) and a != ds.DiskGrid(40, 128)
    # a field on an equal grid object passes from_grid's resolution check
    f = ds.single_mode(basis, 1, 1)
    g = ds.GridField(a, ds.to_grid(f).values)
    assert np.array_equal(ds.from_grid(g, basis).coeffs,
                          ds.from_grid(ds.to_grid(f), basis).coeffs)


def test_lp_norms(basis, grid):
    zero = ds.GridField(grid, np.zeros((grid.n_r, grid.n_theta)))
    assert ds.lp_norm(zero, 2) == 0.0
    one = ds.GridField(grid, np.ones((grid.n_r, grid.n_theta)))
    assert abs(ds.lp_norm(one, 2) - math.sqrt(math.pi)) < 1e-12
    j = bessel_zero(1, 1)
    g = ds.to_grid(ds.single_mode(basis, 1, 1))
    expect = math.sqrt(math.pi * bessel_j(0, j) ** 2 / 2)
    assert abs(ds.lp_norm(g, 2) - expect) < 1e-12
    # p must lie in [1, inf): infinite, NaN and sub-one exponents raise
    for p in (math.inf, math.nan, 0.5):
        with pytest.raises(ValueError, match=r"p must lie in \[1, inf\)"):
            ds.lp_norm(one, p)
    assert abs(ds.lp_norm(one, 1.0) - math.pi) < 1e-12


def test_mean_values(basis, grid):
    one = ds.GridField(grid, np.ones((grid.n_r, grid.n_theta)))
    assert abs(_mean_value(one) - 1.0) < 1e-14
    dip = ds.to_grid(ds.single_mode(basis, 1, 1))
    assert abs(_mean_value(dip)) < 1e-12
    # J_0(j r) with j the first J_1 zero has zero disk mean: its radial
    # integral telescopes to J_1(j)/j = 0
    j = bessel_zero(1, 1)
    rad = ds.GridField(grid, np.tile(bessel_j(0, j * grid.r)[:, None], (1, grid.n_theta)))
    assert abs(_mean_value(rad)) < 1e-9


def test_parseval(basis, rng):
    f = ds.random_in_span(basis, rng)
    g = ds.to_grid(f)
    assert abs(ds.lp_norm(g, 2) ** 2 - ds.spectral_norm2(f)) < 1e-9


def test_rotation_equivariance(basis, rng):
    f = ds.random_in_span(basis, rng)
    shift = 9
    beta = 2 * math.pi * shift / basis.grid.n_theta
    a = ds.to_grid(ds.rotate(f, beta))
    b = azimuthal_shift(ds.to_grid(f), shift)
    assert np.abs(a.values - b.values).max() < 1e-10


def test_profile_constant_field(grid):
    g = ds.GridField(grid, np.full((grid.n_r, grid.n_theta), 3.25))
    p = ds.distribution_profile(g)
    assert np.all(p.values == 3.25)
    assert abs(p.cum_measure[-1] - math.pi) < 1e-12


def _assert_same_profile(p1, p2):
    # a rotation by whole cells or a ring shuffle moves cells only within
    # their rings, which share one measure, so both arrays agree bitwise
    assert np.array_equal(p1.values, p2.values)
    assert np.array_equal(p1.cum_measure, p2.cum_measure)


def test_profile_rotation_invariance(basis, rng):
    g = ds.to_grid(ds.random_in_span(basis, rng))
    _assert_same_profile(ds.distribution_profile(g),
                         ds.distribution_profile(azimuthal_shift(g, 17)))


def test_ring_shuffle_preserves_profile(basis, rng):
    g = ds.to_grid(ds.random_in_span(basis, rng))
    _assert_same_profile(ds.distribution_profile(g),
                         ds.distribution_profile(ds.ring_shuffle(g, rng)))


def test_transplant_onto_own_levels_is_identity(grid):
    # strictly monotone radial field: sorting by itself reassigns each cell
    # its own value
    vals = np.tile(np.linspace(2.0, 1.0, grid.n_r)[:, None], (1, grid.n_theta))
    vals += 1e-3 * np.cos(grid.theta)[None, :]
    g = ds.GridField(grid, vals)
    p = ds.distribution_profile(g)
    t = ds.transplant(p, g)
    assert np.abs(t.values - g.values).max() < 1e-14


def test_slot_averages_match_cellwise_integrals():
    # oracle: each slot's integral summed exactly over the profile cells it
    # overlaps; the profile has tied values, the slots come from another
    # field's order
    grid = ds.DiskGrid(24, 32)
    rng = np.random.default_rng(11)
    shape = (grid.n_r, grid.n_theta)
    prof = ds.distribution_profile(ds.GridField(grid, np.round(rng.standard_normal(shape), 1)))
    order = ds._descending_order(rng.standard_normal(grid.n_r * grid.n_theta))
    mu = grid.cell_measure[order]
    bounds = np.concatenate([[0.0], np.cumsum(mu)])
    got = prof.slot_averages(bounds, mu)
    knots, v = prof.knots, prof.values
    # rounding of the cumulative-integral differences, over the slot measure
    slack = 16 * np.finfo(float).eps * np.abs(prof.integral.real).max()
    inside = 0
    for i in range(mu.size):
        a, b = bounds[i], bounds[i + 1]
        first = np.searchsorted(knots, a, "right") - 1
        last = min(np.searchsorted(knots, b, "left") - 1, v.size - 1)
        expect = math.fsum(v[j] * (min(b, knots[j + 1]) - max(a, knots[j]))
                           for j in range(first, last + 1)) / (b - a)
        assert v[last] <= got[i] <= v[first], i
        assert abs(got[i] - expect) <= slack / mu[i], i
        if first == last:
            inside += 1
            assert got[i] == v[first], i
    assert inside > 100


def test_serialization_round_trip(basis, grid, rng, tmp_path):
    f = ds.random_in_span(basis, rng)
    doc = ds.field_to_dict(f)
    assert set(doc) == {"kind", "shape", "data"}
    f2 = ds.field_from_dict(doc, basis=basis)
    assert np.abs(f.coeffs - f2.coeffs).max() == 0.0

    g = ds.to_grid(f)
    path = tmp_path / "field.json"
    ds.save_field(path, g, extra={"config_hash": "abc"})
    with open(path) as fh:
        raw = json.load(fh)
    assert raw["kind"] == "grid" and raw["config_hash"] == "abc"
    g2 = ds.field_from_dict(raw, grid=grid)
    assert np.abs(g.values - g2.values).max() == 0.0


def test_row0_made_real(basis, rng):
    # mode 0 is its own conjugate partner: its imaginary part is dropped, on
    # a copy, and the rows n >= 1 are kept as given
    c = ds.random_in_span(basis, rng).coeffs.copy()
    c[0, 1] += rng.standard_normal(basis.k_radial)
    given = c.copy()
    f = ds.SpectralField(basis, c)
    assert np.array_equal(c, given)
    assert np.array_equal(f.coeffs[0], [given[0, 0], np.zeros(basis.k_radial)])
    assert np.array_equal(f.coeffs[1:], given[1:])


def test_spectral_shape_checked(basis, rng):
    N, K = basis.n_modes, basis.k_radial
    # a complex array, the old layout among them, fails loudly rather than
    # losing its imaginary part
    for shape in ((2 * N + 1, K), (N + 1, K), (N + 1, 2, K)):
        with pytest.raises(ValueError, match="complex"):
            ds.SpectralField(basis, np.zeros(shape, complex))
    with pytest.raises(ValueError, match="shape"):
        ds.SpectralField(basis, np.zeros((2 * N + 1, 2, K)))
    # a document in the old signed-mode layout, shape [2N+1, K], is rejected
    doc = ds.field_to_dict(ds.random_in_span(basis, rng))
    assert doc["shape"] == [N + 1, K]
    c = np.array(doc["data"]).reshape(N + 1, K, 2)
    signed = np.concatenate([c[:0:-1] * [1.0, -1.0], c])
    old = {"kind": "spectral", "shape": [2 * N + 1, K], "data": signed.reshape(-1, 2).tolist()}
    with pytest.raises(ValueError):
        ds.field_from_dict(old, basis=basis)


# The generators as they built complex coefficients, kept as oracles: the
# real rows must hold their values bitwise, from the same draws in the same
# order.


def _complex_random_in_span(basis, rng, scale=1.0, n_cut=None, k_cut=None):
    N, K = basis.n_modes, basis.k_radial
    n_cut = N if n_cut is None else min(n_cut, N)
    k_cut = K if k_cut is None else min(k_cut, K)
    c = np.zeros((N + 1, K), complex)
    for n in range(0, n_cut + 1):
        amp = rng.standard_normal(k_cut) + 1j * rng.standard_normal(k_cut)
        amp /= (1.0 + n) * (1.0 + np.arange(k_cut))
        c[n, :k_cut] = amp
    c[0] = c[0].real
    return as_rows(scale * c)


def _complex_single_mode(basis, n, k, amplitude, phase):
    c = np.zeros((basis.n_modes + 1, basis.k_radial), complex)
    if n == 0:
        c[0, k - 1] = amplitude * math.cos(phase)
    else:
        c[abs(n), k - 1] = 0.5 * amplitude * np.exp(1j * (phase if n > 0 else -phase))
    return as_rows(c)


def test_generators_match_complex_layout_oracles(basis):
    for seed in (5, 2024):
        for cuts in ({}, {"n_cut": 5, "k_cut": 6}):
            got = ds.random_in_span(basis, np.random.default_rng(seed), 0.3, **cuts)
            expect = _complex_random_in_span(basis, np.random.default_rng(seed), 0.3, **cuts)
            assert got.coeffs.tobytes() == expect.tobytes(), (seed, cuts)
    for n in (-3, 0, 2):
        for amplitude, phase in ((1.3, 0.7), (-0.4, 2.9), (1.0, -1.1)):
            got = ds.single_mode(basis, n, 2, amplitude, phase)
            expect = _complex_single_mode(basis, n, 2, amplitude, phase)
            assert got.coeffs.tobytes() == expect.tobytes(), (n, amplitude, phase)


def test_single_mode_phase_sign(basis):
    # cos(n theta + phase) for negative n too, i.e. cos(|n| theta - phase)
    small = ds.DiskBasis(6, 10, ds.DiskGrid(24, 32))
    for b in (basis, small):
        g = b.grid
        for n in (-2, 0, 2):
            got = ds.to_grid(ds.single_mode(b, n, 1, amplitude=1.3, phase=0.3)).values
            z = bessel_zero(abs(n), 1)
            expect = 1.3 * bessel_j(abs(n), z * g.r)[:, None] * np.cos(n * g.theta + 0.3)[None, :]
            assert np.abs(got - expect).max() <= 1e-13


# The per-mode transforms that the batched half-spectrum ones replaced, kept
# as oracles: a complex signed-mode einsum with a full inverse FFT, and two
# triangular solves with each mode's Cholesky-factored Gram matrix.


def _oracle_to_grid(f):
    basis, grid = f.basis, f.basis.grid
    # expand the half spectrum to the signed modes n = -N..N, c[-n] = conj(c[n])
    n_values = np.arange(-basis.n_modes, basis.n_modes + 1)
    c = as_complex(f.coeffs)
    signed = np.concatenate([np.conj(c[:0:-1]), c])
    S = np.einsum("nrk,nk->nr", basis.r_eval[np.abs(n_values)], signed)
    full = np.zeros((grid.n_r, grid.n_theta), complex)
    for row, n in enumerate(n_values):
        full[:, n % grid.n_theta] += S[row]
    return np.fft.ifft(full, axis=1).real * grid.n_theta


def _oracle_from_grid(values, basis):
    grid = basis.grid
    rw = grid.measure_r * grid.n_theta
    F = np.fft.fft(values, axis=1) / grid.n_theta
    c = np.zeros((basis.n_modes + 1, basis.k_radial), complex)
    for n in range(basis.n_modes + 1):
        T = basis.r_eval[n]
        L = np.linalg.cholesky(T.T @ (rw[:, None] * T))
        c[n] = np.linalg.solve(L.T, np.linalg.solve(L, T.T @ (rw * F[:, n])))
    return c


def _transform_inputs(basis, grid):
    rng = np.random.default_rng(77)
    spans = [ds.random_in_span(basis, rng, scale=s) for s in (1.0, 1e-3, 50.0)]
    spans.append(ds.random_in_span(basis, rng, n_cut=3, k_cut=5))
    # real grids outside the span: white noise and a discontinuous shuffle
    noise = ds.GridField(grid, rng.standard_normal((grid.n_r, grid.n_theta)))
    shuffled = ds.ring_shuffle(ds.to_grid(spans[0]), rng)
    return spans, [noise, shuffled] + [ds.to_grid(f) for f in spans]


def test_to_grid_matches_per_mode_oracle(basis, grid):
    spans, _ = _transform_inputs(basis, grid)
    for f in spans:
        expect = _oracle_to_grid(f)
        assert np.abs(ds.to_grid(f).values - expect).max() <= 1e-14 * np.abs(expect).max()
        # from_grid(to_grid(f)) is an identity, with an exactly real row 0
        back = as_complex(ds.from_grid(ds.to_grid(f), basis).coeffs)
        c = as_complex(f.coeffs)
        assert np.abs(back - c).max() <= 1e-14 * np.abs(c).max()
        assert not np.any(back[0].imag)


def test_from_grid_matches_per_mode_oracle(basis, grid):
    _, grids = _transform_inputs(basis, grid)
    for g in grids:
        expect = _oracle_from_grid(g.values, basis)
        got = as_complex(ds.from_grid(g, basis).coeffs)
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()



# The real-FFT half-spectrum transforms that the truncated DFT tables
# replaced, kept as oracles.


def _rfft_analyze(values, basis):
    F = np.fft.rfft(values, axis=1)[:, : basis.n_modes + 1] / basis.grid.n_theta
    return np.matmul(as_rows(F.T), basis.analysis.transpose(0, 2, 1))


def _irfft_synthesize(half, basis):
    grid = basis.grid
    m = np.matmul(half, basis.r_eval.transpose(0, 2, 1))
    H = np.zeros((grid.n_r, grid.n_theta // 2 + 1), complex)
    H[:, : len(m)] = (m[:, 0] + 1j * m[:, 1]).T
    return np.fft.irfft(H, grid.n_theta, axis=1) * grid.n_theta


def test_dft_transforms_match_fft_oracle(basis, grid):
    spans, grids = _transform_inputs(basis, grid)
    for g in grids:
        expect = _rfft_analyze(g.values, basis)
        got = ds._analyze(g.values, basis)
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()
    halves = [f.coeffs for f in spans] + [_rfft_analyze(g.values, basis)
                                                    for g in grids[:2]]
    for half in halves:
        expect = _irfft_synthesize(half, basis)
        got = ds._synthesize(half, basis)
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()


def test_band_tables_are_rows_of_the_dft_tables(basis):
    for b in (basis, ds.DiskBasis(8, 12, ds.DiskGrid(32, 48))):   # strides 4 and 3
        _check_band_tables(b)


def _check_band_tables(basis):
    nd = basis.band_kit["nd"]
    n = np.repeat(np.arange(nd + 1), 2)[:, None]
    w = np.where(n == 0, 1.0, 2.0)
    synth, analyze = basis.dft_synth, basis.dft_analyze
    # a row pair per mode: w cos(n theta), -w sin(n theta)
    modes = np.arange(basis.n_modes + 1)[:, None]
    w_all, theta = np.where(modes == 0, 1.0, 2.0), basis.grid.theta
    assert np.array_equal(synth[0::2], w_all * np.cos(modes * theta))
    assert np.array_equal(synth[1::2], -w_all * np.sin(modes * theta))
    band = slice(0, 2 * nd + 2)
    kit = basis.band_kit
    assert np.array_equal(kit["synth_r"], synth[band])
    # [-n w sin; -n w cos] from the rows w cos and -w sin (w n is exact)
    swapped = np.stack([synth[1:2 * nd + 2:2], -synth[0:2 * nd + 2:2]], axis=1).reshape(2 * nd + 2, -1)
    assert np.array_equal(kit["synth_t"], n * swapped)
    # the subgrid tables: every s-th column; the analysis is the synthesis
    # rows over w (exact) and n_b, which are the analysis rows scaled by s,
    # exactly at a power-of-two stride and to rounding at any other
    s = basis.grid.n_theta // kit["sub_synth_r"].shape[1]
    assert np.array_equal(kit["sub_synth_r"], kit["synth_r"][:, ::s])
    assert np.array_equal(kit["sub_synth_t"], kit["synth_t"][:, ::s])
    assert np.array_equal(kit["sub_analyze"],
                          (synth[band] / w)[:, ::s].T / (basis.grid.n_theta // s))
    scaled = analyze[:, band][::s] * s
    if s & (s - 1) == 0:
        assert np.array_equal(kit["sub_analyze"], scaled)
    assert np.abs(kit["sub_analyze"] - scaled).max() <= 1e-16
    # the columns d_r omega, d_r psi, (1/r) psi, (1/r) omega: the band's
    # (1/r) omega columns divide the r_eval slice by r, and the psi columns
    # are the omega columns over j^2; the table, filled in place, is bitwise
    # these expressions, each formed in a temporary of its own
    nr, kd = basis.grid.n_r, kit["kd"]
    radial = kit["radial"].reshape(nd + 1, kd, 4, nr)
    assert np.array_equal(radial[:, :, 3],
                          (basis.r_eval[: nd + 1, :, :kd] / basis.grid.r[:, None]).transpose(0, 2, 1))
    mult = basis.green_mult[: nd + 1, :kd, None]
    assert np.array_equal(radial[:, :, 1], radial[:, :, 0] * mult)
    assert np.array_equal(radial[:, :, 2], radial[:, :, 3] * mult)
    assert not hasattr(basis, "r_over")


def test_band_subgrid_stride_rule(basis):
    # the largest divisor s of n_theta leaving more than 3 nd angles
    cases = ((basis, 4, 32),                                  # nd = 10
             (ds.DiskBasis(6, 10, ds.DiskGrid(24, 32)), 2, 16),   # nd = 4
             (ds.DiskBasis(16, 4, ds.DiskGrid(8, 34)), 1, 34))    # 34 / 2 = 17 <= 30
    for b, stride, n_angles in cases:
        kit = b.band_kit
        assert b.grid.n_theta // stride == n_angles
        assert kit["sub_synth_r"].shape == (2 * kit["nd"] + 2, n_angles)
        assert kit["sub_synth_t"].shape == (2 * kit["nd"] + 2, n_angles)
        assert kit["sub_analyze"].shape == (n_angles, 2 * kit["nd"] + 2)


# The stable-sort profile and transplantation that the int64 key sort
# replaced, kept as oracles.


def _stable_profile(g):
    flat = g.values.ravel()
    mu = np.broadcast_to(g.grid.measure_r[:, None], g.values.shape).ravel()
    order = np.argsort(-flat, kind="stable")
    return ds.DistributionProfile(flat[order], np.cumsum(mu[order]))


def _stable_transplant(profile, onto):
    grid = onto.grid
    flat = onto.values.ravel()
    mu = np.broadcast_to(grid.measure_r[:, None], onto.values.shape).ravel()
    order = np.argsort(-flat, kind="stable")
    bounds = np.concatenate([[0.0], np.cumsum(mu[order])])
    new_vals = np.empty_like(flat)
    new_vals[order] = profile.slot_averages(bounds, mu[order])
    return ds.GridField(grid, new_vals.reshape(onto.values.shape))


def _assert_matches_stable_sort(g, profile):
    flat = g.values.ravel()
    assert np.array_equal(ds._descending_order(flat), np.argsort(-flat, kind="stable"))
    got, expect = ds.distribution_profile(g), _stable_profile(g)
    assert np.array_equal(got.values, expect.values)
    assert np.array_equal(got.cum_measure, expect.cum_measure)
    assert np.array_equal(ds.transplant(profile, g).values,
                          _stable_transplant(profile, g).values)


def test_tie_runs_keep_index_order(basis, grid):
    rng = np.random.default_rng(5)
    shape = (grid.n_r, grid.n_theta)
    lamb = sf.v_element_grid(sf.VElement(0.0, 1.0, 0.0), grid)
    signed_zeros = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    signed_zeros[::3] = rng.standard_normal(shape)[::3]
    fields = {
        "constant": np.full(shape, 1.5),                       # one run
        "radial": np.tile(grid.r[:, None], (1, grid.n_theta)),  # n_r runs
        "signed zeros": signed_zeros,
        "rounded": np.round(rng.standard_normal(shape), 3),   # many runs
        "lamb dipole": lamb.values,                            # mirror pairs
    }
    profile = ds.distribution_profile(lamb)
    for name, vals in fields.items():
        g = ds.GridField(grid, vals)
        s = np.sort(vals.ravel())
        assert np.any(s[1:] == s[:-1]), name
        _assert_matches_stable_sort(g, profile)
        _assert_matches_stable_sort(g, ds.distribution_profile(g))


def _near_ties(n, rng):
    """Fields of n values whose keys agree above the index bits of the level
    order's int64 sort, so that only the value comparisons after it can
    order them."""
    x = rng.standard_normal(n)
    mirror = x.copy()                   # 1-ulp pairs, either way up
    up = np.where(rng.random(n // 2) < 0.5, np.inf, -np.inf)
    mirror[1::2] = np.nextafter(mirror[0::2][: n // 2], up)
    ulp_run = x.copy()                  # 1-ulp steps rising with the index
    cells = np.sort(rng.choice(n, size=min(n, 5), replace=False))
    ulp_run[cells] = 1.0 + np.arange(cells.size) * np.spacing(1.0)
    zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    zeros[rng.random(n) < 0.2] = 5e-324      # the smallest subnormal...
    zeros[rng.random(n) < 0.2] = -5e-324     # ...shares the zeros' keys
    return {
        "1-ulp mirror pairs": mirror[rng.permutation(n)],
        "1-ulp run": ulp_run,
        "rounded near ties": np.round(x, 1) * (1.0 + 1e-13 * rng.uniform(-1.0, 1.0, n)),
        "signed zeros": zeros,
    }


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (3, 3), (12, 20), (144, 128)],
                         ids=lambda shape: f"{shape[0]}x{shape[1]}")
def test_near_ties_match_stable_sort(shape):
    # 144 x 128 = 18432 cells puts the index in 15 bits of the key
    grid = ds.DiskGrid(*shape)
    rng = np.random.default_rng(shape[0])
    profile = ds.distribution_profile(ds.GridField(grid, rng.standard_normal(shape)))
    for name, vals in _near_ties(grid.n_r * grid.n_theta, rng).items():
        g = ds.GridField(grid, vals.reshape(shape))
        _assert_matches_stable_sort(g, profile)
        _assert_matches_stable_sort(g, ds.distribution_profile(g))


def test_ascent_transplants_match_stable_sort(basis, grid, monkeypatch):
    # every step of the ascent from test_ascent_matches_reference's seed, and
    # of one shaped like a perfbench ascent op: the Lamb dipole from a ring
    # shuffle drawn from default_rng([seed, 0])
    ve = sf.VElement(0.0, 1.0, 0.4)
    lamb = sf.VElement(0.0, 1.0, 0.0)
    # each pinned count is steps plus rejected lead trials (the Lamb ascent's
    # step 14 trial ties the state's energy to rounding, and is kept)
    ascents = (
        (ve, ds.ring_shuffle(sf.v_element_grid(ve, grid), np.random.default_rng(7)), 23 + 4),
        (lamb, ds.ring_shuffle(sf.v_element_grid(lamb, grid),
                               np.random.default_rng([400, 0])), 16 + 2),
    )
    calls = []

    def checked(profile, onto):
        got = ds.transplant(profile, onto)
        calls.append(np.array_equal(got.values, _stable_transplant(profile, onto).values))
        return got

    monkeypatch.setattr(vr, "transplant", checked)
    for element, seed, transplants in ascents:
        calls.clear()
        res = vr.burton_maximize(element, seed, basis, max_iters=600, p=2.0)
        assert len(calls) == len(res.energies) - 1 + res.rejected == transplants and all(calls)
        _assert_matches_stable_sort(res.final, ds.distribution_profile(res.final))


# a NaN with its sign bit set lands at the other end of the int64 keys
@pytest.mark.parametrize("bad", [np.nan, -np.nan, np.inf, -np.inf],
                         ids=["nan", "-nan", "inf", "-inf"])
def test_non_finite_fields_raise(grid, bad):
    vals = np.ones((grid.n_r, grid.n_theta))
    profile = ds.distribution_profile(ds.GridField(grid, vals))
    vals[3, 7] = bad
    g = ds.GridField(grid, vals)
    with pytest.raises(NonFiniteFieldError):
        ds.distribution_profile(g)
    with pytest.raises(NonFiniteFieldError):
        ds.transplant(profile, g)
