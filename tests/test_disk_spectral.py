import json
import math

import numpy as np
import pytest

from diskvort import disk_spectral as ds
from diskvort import steady_family as sf
from diskvort import variational as vr
from diskvort.bessel import bessel_j, bessel_j_prime, bessel_zero
from diskvort.errors import NonFiniteFieldError, ResolutionError


def test_cell_measures(grid):
    assert abs(grid.n_theta * grid.measure_r.sum() - math.pi) < 1e-12
    assert (grid.measure_r > 0).all()


def test_resolution_preconditions():
    with pytest.raises(ResolutionError):
        ds.DiskBasis(16, 32, ds.DiskGrid(80, 30))   # too few angles
    with pytest.raises(ResolutionError):
        ds.DiskBasis(16, 32, ds.DiskGrid(20, 128))  # too few radii


def test_basis_roots_are_the_zero_table(basis):
    for n in range(basis.n_modes + 1):
        for k in range(1, basis.k_radial + 1):
            assert basis.roots[n, k - 1] == bessel_zero(n, k)


def test_radial_tables_match_pointwise_calls(basis, grid):
    # the tables come from one recurrence per order over all its abscissae;
    # one bessel_j / bessel_j_prime call per (n, k) is the reference
    for n in range(basis.n_modes + 1):
        for k, z in enumerate(basis.roots[n]):
            jr = z * grid.r
            assert np.abs(basis.r_eval[n, :, k] - bessel_j(n, jr)).max() <= 1e-14
            assert np.abs(basis.r_diff[n, :, k] - z * bessel_j_prime(n, jr)).max() <= 1e-14
            assert abs(basis.norm2[n, k] - math.pi * bessel_j(n + 1, z) ** 2) <= 1e-14
    mean0 = [2.0 * np.pi * bessel_j(1, z) / z for z in basis.roots[0]]
    assert np.abs(basis.mean0 - mean0).max() <= 1e-14


def test_to_grid_zero_field(basis):
    g = ds.to_grid(ds.zero_field(basis))
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
    assert np.abs(f.coeffs - f2.coeffs).max() < 1e-10


def test_from_grid_constant_is_radial(basis, grid):
    g = ds.GridField(grid, np.ones((grid.n_r, grid.n_theta)))
    f = ds.from_grid(g, basis)
    others = np.delete(f.coeffs, 0, axis=0)
    assert np.abs(others).max() < 1e-12


def test_from_grid_pure_radial_mode(basis, grid):
    z = bessel_zero(0, 2)
    vals = np.tile(bessel_j(0, z * grid.r)[:, None], (1, grid.n_theta))
    f = ds.from_grid(ds.GridField(grid, vals), basis)
    c = f.coeffs.copy()
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
    with pytest.raises(ValueError):
        ds.lp_norm(one, 0.5)


def test_mean_values(basis, grid):
    one = ds.GridField(grid, np.ones((grid.n_r, grid.n_theta)))
    assert abs(ds.mean_value(one) - 1.0) < 1e-14
    dip = ds.to_grid(ds.single_mode(basis, 1, 1))
    assert abs(ds.mean_value(dip)) < 1e-12
    # J_0(j r) with j the first J_1 zero has zero disk mean: its radial
    # integral telescopes to J_1(j)/j = 0
    j = bessel_zero(1, 1)
    rad = ds.GridField(grid, np.tile(bessel_j(0, j * grid.r)[:, None], (1, grid.n_theta)))
    assert abs(ds.mean_value(rad)) < 1e-9


def test_parseval(basis, rng):
    f = ds.random_in_span(basis, rng)
    g = ds.to_grid(f)
    assert abs(ds.lp_norm(g, 2) ** 2 - ds.spectral_norm2(f)) < 1e-9


def test_rotation_equivariance(basis, rng):
    f = ds.random_in_span(basis, rng)
    shift = 9
    beta = 2 * math.pi * shift / basis.grid.n_theta
    a = ds.to_grid(ds.rotate(f, beta))
    b = ds.azimuthal_shift(ds.to_grid(f), shift)
    assert np.abs(a.values - b.values).max() < 1e-10


def test_profile_constant_field(grid):
    g = ds.GridField(grid, np.full((grid.n_r, grid.n_theta), 3.25))
    p = ds.distribution_profile(g)
    assert np.all(p.values == 3.25)
    assert abs(p.cum_measure[-1] - math.pi) < 1e-12
    pts = np.linspace(0.01, math.pi - 0.01, 50)
    assert np.all(p.resample(pts) == 3.25)


def test_profile_rotation_invariance(basis, rng):
    g = ds.to_grid(ds.random_in_span(basis, rng))
    p1 = ds.distribution_profile(g)
    p2 = ds.distribution_profile(ds.azimuthal_shift(g, 17))
    ok, gap = ds.profiles_close(p1, p2)
    assert ok and gap == 0.0


def test_ring_shuffle_preserves_profile(basis, rng):
    g = ds.to_grid(ds.random_in_span(basis, rng))
    p1 = ds.distribution_profile(g)
    p2 = ds.distribution_profile(ds.ring_shuffle(g, rng))
    ok, gap = ds.profiles_close(p1, p2)
    assert ok and gap == 0.0


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
    g2 = ds.load_field(path, grid=grid)
    assert np.abs(g.values - g2.values).max() == 0.0


def test_row0_made_real(basis, rng):
    # mode 0 is its own conjugate partner: its imaginary part is dropped, on
    # a copy, and the rows n >= 1 are kept as given
    c = ds.random_in_span(basis, rng).coeffs.copy()
    c[0] += 1j * rng.standard_normal(basis.k_radial)
    given = c.copy()
    f = ds.SpectralField(basis, c)
    assert np.array_equal(c, given)
    assert np.array_equal(f.coeffs[0], given[0].real)
    assert np.array_equal(f.coeffs[1:], given[1:])


def test_spectral_shape_checked(basis, rng):
    N, K = basis.n_modes, basis.k_radial
    with pytest.raises(ValueError):
        ds.SpectralField(basis, np.zeros((2 * N + 1, K), complex))
    # a document in the old signed-mode layout, shape [2N+1, K], is rejected
    doc = ds.field_to_dict(ds.random_in_span(basis, rng))
    assert doc["shape"] == [N + 1, K]
    c = np.array(doc["data"]).reshape(N + 1, K, 2)
    signed = np.concatenate([c[:0:-1] * [1.0, -1.0], c])
    old = {"kind": "spectral", "shape": [2 * N + 1, K], "data": signed.reshape(-1, 2).tolist()}
    with pytest.raises(ValueError):
        ds.field_from_dict(old, basis=basis)


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
    signed = np.concatenate([np.conj(f.coeffs[:0:-1]), f.coeffs])
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
        back = ds.from_grid(ds.to_grid(f), basis).coeffs
        assert np.abs(back - f.coeffs).max() <= 1e-14 * np.abs(f.coeffs).max()
        assert not np.any(back[0].imag)


def test_from_grid_matches_per_mode_oracle(basis, grid):
    _, grids = _transform_inputs(basis, grid)
    for g in grids:
        expect = _oracle_from_grid(g.values, basis)
        got = ds.from_grid(g, basis).coeffs
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()



# The real-FFT half-spectrum transforms that the truncated DFT tables
# replaced, kept as oracles.


def _rfft_analyze(values, basis):
    F = np.fft.rfft(values, axis=1)[:, : basis.n_modes + 1] / basis.grid.n_theta
    return np.matmul(basis.analysis, ds._split(F.T))


def _irfft_synthesize(half, basis):
    grid = basis.grid
    m = np.matmul(basis.r_eval, half)
    H = np.zeros((grid.n_r, grid.n_theta // 2 + 1), complex)
    H[:, : len(m)] = (m[..., 0] + 1j * m[..., 1]).T
    return np.fft.irfft(H, grid.n_theta, axis=1) * grid.n_theta


def test_dft_transforms_match_fft_oracle(basis, grid):
    spans, grids = _transform_inputs(basis, grid)
    for g in grids:
        expect = _rfft_analyze(g.values, basis)
        got = ds._analyze(g.values, basis)
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()
    halves = [ds._split(f.coeffs) for f in spans] + [_rfft_analyze(g.values, basis)
                                                    for g in grids[:2]]
    for half in halves:
        expect = _irfft_synthesize(half, basis)
        got = ds._synthesize(half, basis)
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()


def test_band_tables_are_rows_of_the_dft_tables(basis):
    N = basis.n_modes
    nd = basis.band_kit["nd"]
    n = np.arange(nd + 1)[:, None]
    synth, analyze = basis.dft_synth, basis.dft_analyze
    cos_rows, sin_rows = slice(0, nd + 1), slice(N + 1, N + nd + 2)
    kit = basis.band_kit
    assert np.array_equal(kit["synth_r"], np.vstack([synth[cos_rows], synth[sin_rows]]))
    # [-n w sin; -n w cos] from the rows w cos and -w sin (w n is exact)
    assert np.array_equal(kit["synth_t"], np.vstack([n * synth[sin_rows],
                                                     -n * synth[cos_rows]]))
    # the subgrid tables: every s-th column, and analysis rows scaled by s
    # (powers of two at n_theta = 128, so exact)
    s = kit["stride"]
    assert np.array_equal(kit["sub_synth_r"], kit["synth_r"][:, ::s])
    assert np.array_equal(kit["sub_synth_t"], kit["synth_t"][:, ::s])
    assert np.array_equal(kit["sub_analyze"],
                          np.hstack([analyze[:, cos_rows], analyze[:, sin_rows]])[::s] * s)
    # the band's 1/r rows divide the r_eval slice by r
    nr, kd = basis.grid.n_r, kit["kd"]
    assert np.array_equal(kit["radial"][:, nr:],
                          basis.r_eval[: nd + 1, :, :kd] / basis.grid.r[:, None])
    assert not hasattr(basis, "r_over")


def test_band_subgrid_stride_rule(basis):
    # the largest divisor s of n_theta leaving more than 3 nd angles
    cases = ((basis, 4, 32),                                  # nd = 10
             (ds.DiskBasis(6, 10, ds.DiskGrid(24, 32)), 2, 16),   # nd = 4
             (ds.DiskBasis(16, 4, ds.DiskGrid(8, 34)), 1, 34))    # 34 / 2 = 17 <= 30
    for b, stride, n_angles in cases:
        kit = b.band_kit
        assert kit["stride"] == stride
        assert kit["sub_synth_r"].shape == (2 * kit["nd"] + 2, n_angles)
        assert kit["sub_synth_t"].shape == (2 * kit["nd"] + 2, n_angles)
        assert kit["sub_analyze"].shape == (n_angles, 2 * kit["nd"] + 2)


# The stable-sort profile and transplantation that the tie-run sort replaced,
# kept as oracles.


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


def test_ascent_transplants_match_stable_sort(basis, grid, monkeypatch):
    # every step of the ascent from test_ascent_matches_reference's seed
    ve = sf.VElement(0.0, 1.0, 0.4)
    seed = ds.ring_shuffle(sf.v_element_grid(ve, grid), np.random.default_rng(7))
    calls = []

    def checked(profile, onto):
        got = ds.transplant(profile, onto)
        calls.append(np.array_equal(got.values, _stable_transplant(profile, onto).values))
        return got

    monkeypatch.setattr(vr, "transplant", checked)
    res = vr.burton_maximize(ve, seed, basis)
    assert len(calls) == len(res.energies) - 1 == 77 and all(calls)
    _assert_matches_stable_sort(res.final, ds.distribution_profile(res.final))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_fields_raise(grid, bad):
    vals = np.ones((grid.n_r, grid.n_theta))
    profile = ds.distribution_profile(ds.GridField(grid, vals))
    vals[3, 7] = bad
    g = ds.GridField(grid, vals)
    with pytest.raises(NonFiniteFieldError):
        ds.distribution_profile(g)
    with pytest.raises(NonFiniteFieldError):
        ds.transplant(profile, g)
