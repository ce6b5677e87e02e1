import tracemalloc

import numpy as np
import pytest

from ilc_sos.polyalg import AffinePoly
from ilc_sos import freqdomain as fd
from ilc_sos import timedomain as td
from ilc_sos import verify as vf


def lin(vars_, c0, *cs):
    p = AffinePoly.constant(vars_, c0)
    for i, c in enumerate(cs):
        exps = tuple(1 if j == i else 0 for j in range(len(vars_)))
        p = p + AffinePoly.monomial(vars_, exps, c)
    return p


def paper_plant():
    tv = ("theta",)
    return fd.simplexify(
        [lin(tv, 16, 60), lin(tv, -40)],
        [lin(tv, 1, 16), lin(tv, 4, 20), lin(tv, -20)],
        [[-0.5], [-0.7]], theta_vars=tv)


# -- grids ---------------------------------------------------------------


def test_simplex_mesh_covers_unit_simplex():
    pts = vf.simplex_mesh(3, 4)
    assert pts.shape == (15, 3)  # C(4+2, 2)
    assert np.allclose(pts.sum(axis=1), 1.0)
    assert np.all(pts >= 0)


def test_make_grid_contains_vertices():
    grid = vf.make_grid(3, resolution=5, n_random=20, n_freq=64, seed=3)
    pts = grid.lambda_points
    for v in np.eye(3):
        assert np.min(np.linalg.norm(pts - v, axis=1)) < 1e-12
    assert grid.freq_points.shape == (64,)
    assert grid.freq_points[0] == 0.0


def test_make_grid_no_random_points():
    grid = vf.make_grid(2, resolution=10, n_random=0, n_freq=8, seed=0)
    assert grid.lambda_points.shape == (13, 2)  # 2 vertices + 11 mesh points


def test_sample_grid_rejects_off_simplex():
    with pytest.raises(ValueError):
        vf.SampleGrid(np.array([[0.5, 0.6]]), np.array([0.0]))


@pytest.mark.parametrize("pts, freq", [
    ([[np.nan, 1.0]], [0.0]),
    ([[0.5, 0.5], [np.nan, np.nan]], [0.0]),
    ([[0.5, 0.5]], [0.0, np.inf]),
])
def test_sample_grid_rejects_non_finite(pts, freq):
    with pytest.raises(ValueError, match="finite"):
        vf.SampleGrid(np.array(pts), np.array(freq))


@pytest.mark.parametrize("resolution", [0, -2])
def test_mesh_resolution_below_one_rejected(resolution):
    # resolution 0 used to divide by zero into a NaN grid point
    with pytest.raises(ValueError, match="resolution"):
        vf.simplex_mesh(2, resolution)
    for d in (0, 1, 2):
        with pytest.raises(ValueError, match="resolution"):
            vf.make_grid(d, resolution=resolution)


def test_row_batches_cover_rows_in_budget():
    for n_rows, row_entries in [(0, 5), (1, 10**6), (1053, 720), (7, 0)]:
        batches = vf._row_batches(n_rows, row_entries)
        assert [i for b in batches for i in range(b.start, b.stop)] == list(range(n_rows))
        for b in batches:
            rows = b.stop - b.start
            assert rows >= 1 and (rows == 1 or rows * row_entries <= vf.BATCH_ENTRIES)


# -- frequency-domain sampling ------------------------------------------


def test_freq_gain_flat_for_delay_plant():
    # P = 1/z, L = 0.5: |1 - z * 0.5 * z^-1| = 0.5 at every frequency
    plant = fd.UncertainTransferFunction.from_coeffs([1.0], [0.0, 1.0], ())
    G = vf.freq_gain_grid(plant, fd.NoncausalFir.unity(),
                          fd.NoncausalFir(0, 0, [0.5]))
    assert G.shape == (1, 720)
    assert np.allclose(G, 0.5, atol=1e-12)


def test_freq_gain_deadbeat_is_zero():
    plant = fd.UncertainTransferFunction.from_coeffs([1.0], [0.0, 1.0], ())
    g, _ = vf.sampled_gamma_freq(plant, fd.NoncausalFir.unity(),
                                 fd.NoncausalFir(0, 0, [1.0]))
    assert g < 1e-14


def test_freq_gain_matches_direct_evaluation():
    # random second-order plant, random taps, compare against a plain loop
    rng = np.random.default_rng(7)
    num = rng.normal(size=2)
    den = np.append(rng.normal(size=2) * 0.3, 1.0)
    plant = fd.UncertainTransferFunction.from_coeffs(list(num), list(den), ())
    lf = fd.NoncausalFir(1, 2, list(rng.normal(size=4) * 0.3))
    qf = fd.NoncausalFir(0, 1, [0.8, 0.1])
    grid = vf.SampleGrid(np.zeros((1, 0)), np.linspace(0.1, 6.0, 40))
    G = vf.freq_gain_grid(plant, qf, lf, grid)
    for k, w in enumerate(grid.freq_points):
        z = np.exp(1j * w)
        P = (num[0] + num[1] * z) / (den[0] + den[1] * z + z ** 2)
        L = sum(c * z ** -i for i, c in lf.numeric().items())
        Q = sum(c * z ** -i for i, c in qf.numeric().items())
        assert G[0, k] == pytest.approx(abs(Q * (1 - z * L * P)), abs=1e-12)


def test_freq_gain_matches_direct_evaluation_uncertain():
    # the paper's plant at K > 1 simplex points, a Q filter with a lead tap
    plant = paper_plant()
    lf = fd.NoncausalFir(1, 2, [0.05, 0.4, -0.1, 0.2])
    qf = fd.NoncausalFir(1, 1, [0.1, 0.8, 0.1])
    grid = vf.make_grid(2, resolution=4, n_random=5, n_freq=64)
    G = vf.freq_gain_grid(plant, qf, lf, grid)
    assert G.shape == (len(grid.lambda_points), 64) and G.shape[0] > 1
    for k, lam in enumerate(grid.lambda_points):
        for f, w in enumerate(grid.freq_points):
            z = np.exp(1j * w)
            P = plant.response(z, dict(zip(plant.lambda_vars, lam)))
            L = sum(c * z ** -i for i, c in lf.numeric().items())
            Q = sum(c * z ** -i for i, c in qf.numeric().items())
            assert G[k, f] == pytest.approx(abs(Q * (1 - z * L * P)), abs=1e-12)


def _unbatched_freq_gain(plant, qf, lf, grid):
    # the oracle's formula over the whole grid in one pass:
    # |Q| |den - z L num| / |den|, den - z L num from one matmul
    z = np.exp(1j * grid.freq_points)
    pts = grid.lambda_points
    num_c = np.column_stack([c.evaluate_batch(pts) for c in plant.num])
    den_c = np.column_stack([c.evaluate_batch(pts) for c in plant.den]
                            + [np.ones(len(pts))])
    zp = z[None, :] ** np.arange(plant.n + 1)[:, None]
    diff = np.hstack([den_c, num_c]) @ np.vstack(
        [zp, -z * lf.response(z) * zp[: num_c.shape[1]]])
    return np.abs(qf.response(z)) * (np.abs(diff) / np.abs(den_c @ zp))


def test_freq_gain_batches_match_one_pass():
    # 91 rows of 720 frequencies a batch: 263 rows are 91 + 91 + 81
    plant = paper_plant()
    lf = fd.NoncausalFir(1, 2, [0.05, 0.4, -0.1, 0.2])
    qf = fd.NoncausalFir(1, 1, [0.1, 0.8, 0.1])
    grid = vf.make_grid(2, resolution=10, n_random=250, n_freq=720, seed=4)
    batches = vf._row_batches(len(grid.lambda_points), 720)
    sizes = [b.stop - b.start for b in batches]
    assert len(sizes) >= 3 and sizes[-1] < sizes[0]
    G = vf.freq_gain_grid(plant, qf, lf, grid)
    ref = _unbatched_freq_gain(plant, qf, lf, grid)
    np.testing.assert_allclose(G, ref, rtol=1e-14, atol=0)
    g, (lam, omega) = vf.sampled_gamma_freq(plant, qf, lf, grid)
    ik, iw = np.unravel_index(int(np.argmax(ref)), ref.shape)
    assert (g, omega) == (G[ik, iw], grid.freq_points[iw])
    assert np.array_equal(lam, grid.lambda_points[ik])


def test_freq_oracle_memory_stays_near_output_size():
    # on the default grid (1,053 points x 720 frequencies) the temporaries
    # of one batch, not of the whole grid, ride on top of the result
    plant = paper_plant()
    gains = fd.NoncausalFir(0, 3, [0.508, -0.0716, 0.189, -0.197])
    grid = vf.make_grid(2)
    out_bytes = grid.lambda_points.shape[0] * grid.freq_points.size * 8
    tracemalloc.start()
    try:
        vf.sampled_gamma_freq(plant, fd.NoncausalFir.unity(), gains, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out_bytes + 4 * 2**20


def test_paper_gains_sampled_bound():
    # published order-3 taps stay comfortably monotone across the polytope
    gains = fd.NoncausalFir(0, 3, [0.508, -0.0716, 0.189, -0.197])
    g, (lam, omega) = vf.sampled_gamma_freq(paper_plant(),
                                            fd.NoncausalFir.unity(), gains)
    assert g == pytest.approx(0.3312305, abs=1e-6)
    assert g <= 0.339
    # worst case sits at the theta = -0.7 vertex
    assert lam == pytest.approx([0.0, 1.0], abs=1e-12)


def test_sampled_gamma_freq_grows_with_grid():
    plant = paper_plant()
    gains = fd.NoncausalFir(0, 1, [0.4, 0.1])
    q = fd.NoncausalFir.unity()
    coarse = vf.SampleGrid(np.eye(2), np.linspace(0, 2 * np.pi, 16, endpoint=False))
    fine = vf.make_grid(2, resolution=30, n_random=200, n_freq=256, seed=1)
    g0, _ = vf.sampled_gamma_freq(plant, q, gains, coarse)
    g1, _ = vf.sampled_gamma_freq(plant, q, gains, fine)
    # the fine grid contains the vertices, so its max can only be larger
    assert g1 >= g0 - 1e-12


def test_unit_circle_pole_detected():
    plant = fd.UncertainTransferFunction.from_coeffs([1.0], [-1.0, 1.0], ())
    with pytest.raises(vf.UnitCirclePole):
        vf.freq_gain_grid(plant, fd.NoncausalFir.unity(),
                          fd.NoncausalFir(0, 0, [0.1]))


def test_unit_circle_pole_in_later_batch_names_its_point():
    # pole at z = 0.5 lam1 + lam2, on the circle (at omega = 0) only at the
    # last grid point, lambda = (0, 1), three batches in
    lam = ("lam1", "lam2")
    plant = fd.UncertainTransferFunction.from_coeffs(
        [AffinePoly.constant(lam, 1.0)],
        [lin(lam, 0, -0.5, -1.0), AffinePoly.constant(lam, 1.0)], lam)
    t = np.linspace(1.0, 0.05, 299)
    grid = vf.SampleGrid(np.vstack([np.column_stack([t, 1 - t]), [0.0, 1.0]]),
                         np.linspace(0, 2 * np.pi, 720, endpoint=False))
    assert len(vf._row_batches(300, 720)) >= 3
    with pytest.raises(vf.UnitCirclePole) as err:
        vf.freq_gain_grid(plant, fd.NoncausalFir.unity(), fd.NoncausalFir(0, 0, [0.1]), grid)
    assert f"lambda={grid.lambda_points[-1]}" in str(err.value)
    assert "omega=0.0000" in str(err.value)


def test_freq_rejects_decision_taps():
    plant = fd.UncertainTransferFunction.from_coeffs([1.0], [0.0, 1.0], ())
    with pytest.raises(ValueError):
        vf.sampled_gamma_freq(plant, fd.NoncausalFir.unity(),
                              fd.NoncausalFir.causal_decision(1))


# -- time-domain sampling ------------------------------------------------


def test_time_gain_scalar_plant():
    # N = 1: gain is exactly |1 - l * p1|
    plant = td.LiftedUncertainPlant(1, [AffinePoly.constant((), 2.0)], ())
    g, _ = vf.sampled_gamma_time(plant, td.LiftedFilter.identity(1),
                                 td.LiftedFilter(1, (0.25,)))
    assert g == pytest.approx(0.5, abs=1e-12)


def test_time_gain_zero_for_inverse_gains():
    # P = I (p1 = 1, p2 = 0) with Q = L = I gives Q(I - LP) = 0
    one = AffinePoly.constant((), 1.0)
    zero = AffinePoly.zero(())
    plant = td.LiftedUncertainPlant(2, [one, zero], ())
    g, _ = vf.sampled_gamma_time(plant, td.LiftedFilter.identity(2),
                                 td.LiftedFilter.identity(2))
    assert g < 1e-14


def test_time_gain_uncertain_argmax_on_vertex():
    # p1 = 0.5 lam1 + 2 lam2 scalar: gain |1 - 0.3 p1| peaks at p1 = 0.5
    lam = ("lam1", "lam2")
    plant = td.LiftedUncertainPlant(1, [lin(lam, 0, 0.5, 2.0)], lam)
    grid = vf.make_grid(2, resolution=40, n_random=100, n_freq=1, seed=2)
    g, arg = vf.sampled_gamma_time(plant, td.LiftedFilter.identity(1),
                                   td.LiftedFilter(1, (0.3,)), grid)
    assert g == pytest.approx(abs(1 - 0.3 * 0.5), abs=1e-12)
    assert arg == pytest.approx([1.0, 0.0], abs=1e-12)


def test_time_gain_singular_plant_on_grid():
    # p1 crosses zero inside the simplex; construction passes (the seeded
    # screen misses the null set) but a grid containing the root must raise
    lam = ("lam1", "lam2")
    plant = td.LiftedUncertainPlant(
        2, [lin(lam, 0, 1.0, -0.5), lin(lam, 0.1)], lam)
    grid = vf.SampleGrid(np.array([[1 / 3, 2 / 3]]), np.zeros(1))
    with pytest.raises(td.SingularPlant):
        vf.time_gain_profile(plant, td.LiftedFilter.identity(2),
                             td.LiftedFilter(2, (0.0, 0.5, 0.0)), grid)


@pytest.mark.parametrize("N, lam", [(5, ("lam1", "lam2")), (64, ("lam1", "lam2")),
                                    (4, ()), (16, ("lam1", "lam2"))])
def test_time_gain_profile_matches_per_point_loop(N, lam):
    rng = np.random.default_rng(N)
    markov = [lin(lam, 1.0, *(0.5 + rng.uniform(size=len(lam))))]
    markov += [lin(lam, *rng.normal(scale=0.3, size=len(lam) + 1)) for _ in range(N - 1)]
    plant = td.LiftedUncertainPlant(N, markov, lam)
    q = rng.normal(scale=0.2, size=2 * N - 1)
    q[N - 1] = 1.0
    l = rng.normal(scale=0.3, size=2 * N - 1)
    grid = vf.make_grid(len(lam), resolution=10, n_random=600, seed=1)
    # 613 points: 256 + 256 + 101 a batch at N = 16, 38 x 16 + 5 at N = 64
    assert (len(vf._row_batches(len(grid.lambda_points), N * N)) >= 3) == (N >= 16)
    batched = vf.time_gain_profile(plant, q, l, grid)
    loop = np.array([np.linalg.svd(td.contraction_matrix(plant, q, l, pt),
                                   compute_uv=False)[0]
                     for pt in grid.lambda_points])
    np.testing.assert_allclose(batched, loop, rtol=1e-12, atol=0)
    assert int(np.argmax(batched)) == int(np.argmax(loop))


def test_time_rejects_decision_taps():
    plant = td.LiftedUncertainPlant(1, [AffinePoly.constant((), 1.0)], ())
    with pytest.raises(ValueError):
        vf.sampled_gamma_time(plant, td.LiftedFilter.identity(1),
                              td.LiftedFilter.causal_decision(1))


def test_time_approaches_freq_bound_from_below():
    # finite-horizon gains grow with N toward the frequency-domain sup
    nom = fd.UncertainTransferFunction.from_coeffs([1.0, 0.5], [0.1, -0.3, 1.0], ())
    lf = fd.NoncausalFir(0, 1, [0.4, 0.2])
    gf, _ = vf.sampled_gamma_freq(nom, fd.NoncausalFir.unity(), lf)
    assert gf == pytest.approx(1.26965, abs=1e-4)
    prev = 0.0
    for N in (4, 8, 16, 32):
        lift = td.LiftedUncertainPlant.from_transfer(nom, N)
        gt, _ = vf.sampled_gamma_time(lift, td.LiftedFilter.identity(N),
                                      td.LiftedFilter.from_fir(lf, N))
        assert prev - 1e-12 <= gt <= gf + 1e-9
        prev = gt
    assert gt == pytest.approx(gf, rel=0.1)
