"""Brute-force rate oracles, independent of the SOS machinery.

Both oracles sample the uncertainty simplex (vertices, a uniform barycentric
mesh, and seeded random draws) and take a plain max.  They can only certify
violations -- a sampled value slightly below the synthesized bound is the
expected outcome, never proof of optimality.

Both evaluate the grid a batch of simplex points at a time, so their
temporaries stay near ``BATCH_ENTRIES`` entries however large the grid is.
The frequency oracle reduces each batch over the frequencies at once, so
both return one value per simplex point, and only the per-point
coefficients and that (K,) profile grow with the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .freqdomain import NoncausalFir, UncertainTransferFunction
from .polyalg import simplex_mesh
from .timedomain import LiftedFilter, LiftedUncertainPlant, SingularPlant, \
    lower_toeplitz, toeplitz_from_taps


# entries per array of one batch's temporaries (at least one grid row a batch)
BATCH_ENTRIES = 1 << 16


def _row_batches(n_rows: int, row_entries: int) -> list:
    """Consecutive slices covering range(n_rows), each of as many rows of
    ``row_entries`` entries as fit in BATCH_ENTRIES, and at least one."""
    step = max(1, BATCH_ENTRIES // max(1, row_entries))
    return [slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step)]


class UnitCirclePole(Exception):
    """Plant denominator vanishes on (or numerically at) the unit circle."""


@dataclass(frozen=True)
class SampleGrid:
    """Evaluation grid: simplex points (K x d) and circle frequencies (F,)."""

    lambda_points: np.ndarray
    freq_points: np.ndarray
    seed: int = 0

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.lambda_points, dtype=float))
        object.__setattr__(self, "lambda_points", pts)
        freq = np.asarray(self.freq_points, dtype=float)
        object.__setattr__(self, "freq_points", freq)
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(freq))):
            raise ValueError("grid points must be finite")
        if pts.shape[0] == 0:
            raise ValueError("the grid needs at least one lambda point")
        if pts.shape[1] > 0:
            if np.any(pts < -1e-12) or np.max(np.abs(pts.sum(axis=1) - 1.0)) > 1e-12:
                raise ValueError("lambda points must lie on the unit simplex")


def make_grid(n_lambda: int, resolution: int = 50, n_random: int = 1000,
              n_freq: int = 720, seed: int = 0) -> SampleGrid:
    """Vertices + uniform barycentric mesh + seeded Dirichlet draws; uniform
    frequencies on [0, 2pi)."""
    if resolution < 1:
        raise ValueError(f"mesh resolution must be at least 1, got {resolution}")
    if n_freq < 1:
        raise ValueError(f"n_freq must be at least 1, got {n_freq}")
    if n_random < 0:
        raise ValueError(f"n_random must be at least 0, got {n_random}")
    freq = np.linspace(0.0, 2.0 * np.pi, n_freq, endpoint=False)
    if n_lambda == 0:
        return SampleGrid(np.zeros((1, 0)), freq, seed)
    parts = [np.eye(n_lambda)]
    if n_lambda > 1:
        parts.append(simplex_mesh(n_lambda, resolution))
        if n_random > 0:
            rng = np.random.default_rng(seed)
            parts.append(rng.dirichlet(np.ones(n_lambda), size=n_random))
    pts = np.vstack(parts)
    pts = np.clip(pts, 0.0, None)
    pts /= pts.sum(axis=1, keepdims=True)
    return SampleGrid(pts, freq, seed)


def _grid_for(grid: SampleGrid | None, n_lambda: int) -> SampleGrid:
    """The default grid when none is given; otherwise the grid, checked to
    sample a simplex of the plant's dimension."""
    if grid is None:
        return make_grid(n_lambda)
    if grid.lambda_points.shape[1] != n_lambda:
        raise ValueError(f"grid points have {grid.lambda_points.shape[1]} lambda "
                         f"coordinates, the plant has {n_lambda}")
    return grid


def _filter_taps(filt, N: int) -> np.ndarray:
    if isinstance(filt, LiftedFilter):
        if filt.has_decisions():
            raise ValueError("filter taps must be numeric for sampling")
        return filt.numeric()
    taps = np.asarray(filt, dtype=float)
    if taps.shape != (2 * N - 1,):
        raise ValueError(f"expected {2 * N - 1} taps, got shape {taps.shape}")
    return taps


def time_gain_profile(plant: LiftedUncertainPlant, qfilter, lfilter,
                      grid: SampleGrid | None = None) -> np.ndarray:
    """sigma_max(P Q (I - L P) P^-1) at every grid point; shape (K,).
    Raises ValueError when that matrix overflows floating point."""
    grid = _grid_for(grid, plant.n_lambda)
    q = _filter_taps(qfilter, plant.N)
    l = _filter_taps(lfilter, plant.N)
    pts = grid.lambda_points
    h = np.column_stack([m.evaluate_batch(pts) for m in plant.markov])
    p1 = h[:, 0]
    scale = max(1.0, float(np.max(np.abs(p1))))
    if np.min(np.abs(p1)) <= 1e-12 * scale:
        bad = pts[int(np.argmin(np.abs(p1)))]
        raise SingularPlant(f"p1 vanishes at a grid point (lambda={bad})")
    N = plant.N
    Qm, Lm = toeplitz_from_taps(q, N), toeplitz_from_taps(l, N)
    out = np.empty(len(h))
    for b in _row_batches(len(h), N * N):
        P = lower_toeplitz(h[b])  # the lifted plant at every point of the batch
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            X = P @ Qm @ (np.eye(N) - Lm @ P) @ np.linalg.inv(P)
        if not np.isfinite(X).all():
            raise ValueError("the lifted gain overflows floating point on the grid")
        out[b] = np.linalg.svd(X, compute_uv=False)[:, 0]
    return out


def sampled_gamma_time(plant: LiftedUncertainPlant, qfilter, lfilter,
                       grid: SampleGrid | None = None) -> tuple:
    """Max over the grid of sigma_max(P Q (I - L P) P^-1); also the argmax."""
    grid = _grid_for(grid, plant.n_lambda)
    vals = time_gain_profile(plant, qfilter, lfilter, grid)
    i = int(np.argmax(vals))
    return float(vals[i]), np.asarray(grid.lambda_points[i])


def _freq_gain_batches(plant: UncertainTransferFunction, qfilter: NoncausalFir,
                       lfilter: NoncausalFir, grid: SampleGrid):
    """Yield (rows, G) for each row batch of the grid: rows is the batch's
    slice of the simplex points, and G is |Q(z)[1 - z L(z) P(z, lambda)]|
    at those points x every grid frequency, in work buffers that the next
    batch overwrites.  Raises UnitCirclePole at the first batch where the
    plant denominator vanishes on the circle."""
    if qfilter.has_decisions() or lfilter.has_decisions():
        raise ValueError("filter taps must be numeric for sampling")
    omega = grid.freq_points
    if omega.size == 0:
        raise ValueError("the frequency oracle needs at least one grid frequency")
    z = np.exp(1j * omega)
    absQ = np.abs(qfilter.response(z))
    Lw = lfilter.response(z)
    pts = grid.lambda_points

    # plant response on the lambda grid: coefficient matrices (K x n+1)
    # against the Vandermonde powers of z
    K = pts.shape[0]
    num_c = np.column_stack([c.evaluate_batch(pts) for c in plant.num])
    den_c = np.column_stack([c.evaluate_batch(pts) for c in plant.den])
    den_c = np.hstack([den_c, np.ones((K, 1))])
    zp = z[None, :] ** np.arange(plant.n + 1)[:, None]     # (n+1, F)
    den_scale = max(1.0, float(np.max(np.abs(den_c))))
    # |Q (1 - z L num / den)| = |Q| |den - z L num| / |den|, with den - z L num
    # one matmul of [den num] against [powers; -z L(z) powers]
    coeffs = np.hstack([den_c, num_c])
    basis = np.vstack([zp, -z * Lw * zp[: num_c.shape[1]]])
    batches = _row_batches(K, omega.size)
    rows = batches[0].stop  # the first batch is the largest
    work = np.empty((rows, omega.size), complex)
    den_abs, gain = np.empty((2, rows, omega.size))
    for b in batches:
        n = b.stop - b.start
        D, G = den_abs[:n], gain[:n]
        np.abs(np.matmul(den_c[b], zp, out=work[:n]), out=D)
        if np.min(D) <= 1e-10 * den_scale:
            ik, iw = np.unravel_index(int(np.argmin(D)), D.shape)
            raise UnitCirclePole(
                f"denominator ~0 at omega={omega[iw]:.4f}, lambda={pts[b.start + ik]}")
        np.abs(np.matmul(coeffs[b], basis, out=work[:n]), out=G)
        G /= D
        G *= absQ
        yield b, G


def freq_gain_profile(plant: UncertainTransferFunction, qfilter: NoncausalFir,
                      lfilter: NoncausalFir, grid: SampleGrid | None = None) -> tuple:
    """Max over the grid frequencies of |Q(z)[1 - z L(z) P(z, lambda)]| at
    every grid point, and the index of the frequency that reaches it (the
    first on ties); shapes (K,) and (K,).

    The gain is reduced over the frequencies one row batch at a time, so
    the (K, F) gain grid is never formed."""
    grid = _grid_for(grid, len(plant.lambda_vars))
    K = grid.lambda_points.shape[0]
    peak, arg = np.empty(K), np.empty(K, dtype=np.intp)
    for b, G in _freq_gain_batches(plant, qfilter, lfilter, grid):
        np.argmax(G, axis=1, out=arg[b])
        np.max(G, axis=1, out=peak[b])
    return peak, arg


def sampled_gamma_freq(plant: UncertainTransferFunction, qfilter: NoncausalFir,
                       lfilter: NoncausalFir, grid: SampleGrid | None = None) -> tuple:
    """Max over the grid of |Q(z)[1 - z L(z) P(z, lambda)]| on |z| = 1.

    Returns (gamma_hat, (argmax lambda, argmax omega)).
    """
    grid = _grid_for(grid, len(plant.lambda_vars))
    peak, arg = freq_gain_profile(plant, qfilter, lfilter, grid)
    k = int(np.argmax(peak))
    return float(peak[k]), (grid.lambda_points[k], float(grid.freq_points[arg[k]]))
