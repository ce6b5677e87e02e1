"""Trial-by-trial replay of the learning loop on sampled plant instances.

Everything here is plain numerics: the plant instance is a lower-triangular
Toeplitz matrix (or its first column), filters are full Toeplitz matrices
built from 2N-1 taps, and one trial is

    y_j = P u_j + d,   e_j = y_d - y_j,   u_{j+1} = Q (u_j + L e_j).

Contraction is measured against the asymptotic error of the fixed point, so
the reported ratios are exactly the quantity the synthesized gamma bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .timedomain import lower_toeplitz, toeplitz_from_taps


class Divergent(Exception):
    """Spectral radius of the trial-to-trial iteration map is >= 1."""


@dataclass
class TrialConfig:
    """One simulation scenario: reference, disturbance, iteration budget."""

    y_d: np.ndarray
    d: np.ndarray
    trials: int = 40
    u0: np.ndarray | None = None
    lambda_sample: object = None   # provenance only (simplex point or theta)
    seed: int | None = None

    def __post_init__(self):
        self.y_d = np.asarray(self.y_d, dtype=float)
        self.d = np.asarray(self.d, dtype=float)
        if self.y_d.shape != self.d.shape or self.y_d.ndim != 1:
            raise ValueError("y_d and d must be equal-length vectors")
        if self.u0 is not None:
            self.u0 = np.asarray(self.u0, dtype=float)
            if self.u0.shape != self.y_d.shape:
                raise ValueError("u0 must match the trajectory length")
        if self.trials < 1:
            raise ValueError("need at least one trial")


@dataclass
class TrialTrace:
    """Per-trial norms and contraction ratios of one replay."""

    error_norms: list
    contraction_ratios: list
    e_infinity: np.ndarray
    truncated_noncausal: bool = False
    errors: list | None = None
    inputs: list | None = None
    lambda_sample: object = None
    seed: int | None = None

    def summary(self) -> dict:
        ratios = [r for r in self.contraction_ratios if np.isfinite(r)]
        return {
            "trials": len(self.error_norms) - 1,
            "initial_error": self.error_norms[0],
            "final_error": self.error_norms[-1],
            "max_ratio": max(ratios) if ratios else None,
            "n_ratios": len(ratios),
            "e_infinity_norm": float(np.linalg.norm(self.e_infinity)),
            "truncated_noncausal": self.truncated_noncausal,
            "seed": self.seed,
        }


def _as_matrix(obj, N: int, lower_triangular: bool = False) -> np.ndarray:
    """Accept an N x N matrix, 2N-1 Toeplitz taps, or (plants) a length-N
    first column."""
    arr = np.asarray(obj, dtype=float)
    if arr.ndim == 2:
        if arr.shape != (N, N):
            raise ValueError(f"expected a {N}x{N} matrix, got {arr.shape}")
        return arr
    if lower_triangular and arr.shape == (N,):
        return lower_toeplitz(arr)
    if arr.shape == (2 * N - 1,):
        return toeplitz_from_taps(arr, N)
    raise ValueError(f"cannot interpret shape {arr.shape} on horizon N={N}")


def sample_disturbance(N: int, seed: int, scale: float = 0.1) -> np.ndarray:
    """Uniform disturbance in [-scale, scale], reproducible by seed."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, size=N)


def asymptotic_error(plant, qfilter, lfilter, y_d, d) -> np.ndarray:
    """Fixed-point error of the learning recursion.

    Solves (I - Q + Q L P) u = Q L (y_d - d) and returns y_d - P u - d;
    falls back to running the recursion itself when the system is close to
    singular.  Raises :class:`Divergent` when the iteration map Q(I - L P)
    has spectral radius >= 1 (no fixed point is approached), or when the
    recursion's iterate overflows before it settles.
    """
    y_d = np.asarray(y_d, dtype=float)
    d = np.asarray(d, dtype=float)
    N = y_d.shape[0]
    P = _as_matrix(plant, N, lower_triangular=True)
    Q = _as_matrix(qfilter, N)
    L = _as_matrix(lfilter, N)
    G = Q - Q @ L @ P
    rho = float(np.max(np.abs(np.linalg.eigvals(G))))
    if rho > 1.0 + 1e-9:
        raise Divergent(f"iteration map has spectral radius {rho:.6f} >= 1")
    A = np.eye(N) - G
    rhs = Q @ L @ (y_d - d)
    if rho < 1.0 and np.linalg.cond(A) <= 1e12:
        u_inf = np.linalg.solve(A, rhs)
    else:
        # marginal (rho ~ 1) or ill-conditioned: run the recursion itself;
        # it must settle or there is no fixed point to measure against
        u_inf = np.zeros(N)
        settled = False
        # an iterate whose norm overflows has no fixed point to settle on
        # (and inf <= 1e-13 * inf would pass the settle test)
        with np.errstate(over="ignore"):
            for _ in range(10000):
                nxt = G @ u_inf + rhs
                size = np.linalg.norm(nxt)
                if not np.isfinite(size):
                    raise Divergent(f"recursion overflows (spectral radius {rho:.6f})")
                if np.linalg.norm(nxt - u_inf) <= 1e-13 * max(1.0, size):
                    u_inf = nxt
                    settled = True
                    break
                u_inf = nxt
        if not settled:
            raise Divergent(
                f"recursion does not settle (spectral radius {rho:.6f})")
    return y_d - P @ u_inf - d


RATIO_FLOOR = 1e-10


def run_ilc(plant, qfilter, lfilter, config: TrialConfig,
            keep_vectors: bool = False) -> TrialTrace:
    """Replay ``config.trials`` learning iterations and report contraction.

    Ratios ||e_inf - e_{j+1}|| / ||e_inf - e_j|| are recorded only while the
    distance to the fixed point stays above a small floor; once converged the
    quotient is numerical noise and is dropped.  Lead taps (anything acting
    on future samples) are truncated by the finite horizon, which is flagged.
    """
    y_d = config.y_d
    d = config.d
    N = y_d.shape[0]
    P = _as_matrix(plant, N, lower_triangular=True)
    Q = _as_matrix(qfilter, N)
    L = _as_matrix(lfilter, N)
    # lead taps c_{-(N-1)}..c_{-1} sit above the diagonal
    truncated = bool(np.any(np.triu(Q, 1) != 0) or np.any(np.triu(L, 1) != 0))

    e_inf = asymptotic_error(P, Q, L, y_d, d)
    u = config.u0.copy() if config.u0 is not None else np.zeros(N)

    error_norms = []
    ratios = []
    errors = [] if keep_vectors else None
    inputs = [] if keep_vectors else None
    prev_dist = None
    for _ in range(config.trials + 1):
        e = y_d - (P @ u + d)
        error_norms.append(float(np.linalg.norm(e)))
        if keep_vectors:
            errors.append(e.copy())
            inputs.append(u.copy())
        dist = float(np.linalg.norm(e - e_inf))
        if prev_dist is not None and prev_dist > RATIO_FLOOR:
            ratios.append(dist / prev_dist)
        prev_dist = dist
        u = Q @ (u + L @ e)
    return TrialTrace(
        error_norms=error_norms, contraction_ratios=ratios,
        e_infinity=e_inf, truncated_noncausal=truncated,
        errors=errors, inputs=inputs,
        lambda_sample=config.lambda_sample, seed=config.seed)
