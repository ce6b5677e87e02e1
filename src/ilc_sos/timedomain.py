"""Lifted trial-domain model and the finite-horizon contraction synthesis.

A trial of length N turns the plant into an N x N lower-triangular Toeplitz
matrix of Markov parameters and the learning filters into full Toeplitz
matrices.  The guaranteed trial-to-trial contraction rate is

    gamma = max over the simplex of  sigma_max( P Q (I - L P) P^-1 )

and a bound on it is certified by a polynomial matrix inequality, linear
in the bound, that forms no rational function of lambda.
Lower-triangular Toeplitz matrices are polynomials in the shift matrix, so
they commute (Norrlof & Gunnarsson 2002).  For a causal Q the contraction
matrix is therefore T = Q (I - P L), and ||T|| <= gamma in Schur form,

    [[gamma * I, T^T], [T, gamma * I]],

must be PSD on the simplex; it has the degree of P and is affine in L.  A
non-causal Q = Qc + Qa, with Qa its taps at d < 0, leaves the contraction
matrix Qc (I - P L) + P Qa (P^-1 - L).  When p1 is constant P^-1 is a
polynomial matrix, so that matrix takes T's place.  Otherwise the
congruence by P gives the equivalent condition with X = P Q (I - L P):

    [[gamma * P^T P, X^T], [X, gamma * I]]

of twice P's degree.  The block is homogenized in the simplex weights and
handed to :func:`result.escalate`, shared with the frequency domain: it
substitutes lam -> lam^2 and multiplies by ||lam||^(2k), an SOS relaxation
that tightens as k grows.  A positivity margin eps certifies the block
with slack eps times its gamma-coefficient (I, or P^T P in the congruence
head) and costs exactly eps on gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings
from typing import Mapping, Sequence

import numpy as np

from .polyalg import AffinePoly, PolyMatrix, homogenize
from .result import MAX_SCHUR_DIM, SynthesisResult, decision_value, escalate


class SingularPlant(Exception):
    """First Markov parameter vanishes somewhere on the uncertainty set."""


class InfeasibleAtAllK(UserWarning):
    """No multiplier power certified a contracting (gamma < 1) design."""


def markov_from_coeffs(num: Sequence[float], den: Sequence[float], count: int) -> np.ndarray:
    """First ``count`` impulse-response samples of num(z)/den(z).

    Coefficients ascending in z; den must have a nonzero leading entry and
    strictly higher degree than num (trailing zeros of num dropped).  The
    long division is :func:`lower_toeplitz_solve` on the monic denominator.
    Raises ValueError when a sample overflows floating point.
    """
    num = np.trim_zeros(np.asarray(num, dtype=float), "b")
    den = np.asarray(den, dtype=float)
    n = len(den) - 1
    if abs(den[-1]) < 1e-300:
        raise ValueError("denominator leading coefficient is zero")
    if len(num) - 1 >= n:
        raise ValueError("plant must be strictly proper")
    rhs = np.zeros(n + count)  # b_{n-1}, ..., b_0, then zeros
    rhs[n - len(num): n] = num[::-1] / den[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        h = np.array(lower_toeplitz_solve((den / den[-1])[::-1], rhs[:count], 1.0))
    if not np.isfinite(h).all():
        raise ValueError("Markov parameters overflow floating point")
    return h


def simplex_samples(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Vertices plus Dirichlet draws; shape (>=count, dim)."""
    if dim == 0:
        return np.zeros((1, 0))
    if dim == 1:
        return np.ones((1, 1))
    rng = np.random.default_rng(seed)
    verts = np.eye(dim)
    rand = rng.dirichlet(np.ones(dim), size=count)
    return np.vstack([verts, rand])


@dataclass(frozen=True)
class LiftedUncertainPlant:
    """Trial length plus the N Markov parameters p_1..p_N as simplex polynomials."""

    N: int
    markov: tuple
    lambda_vars: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "markov", tuple(self.markov))
        object.__setattr__(self, "lambda_vars", tuple(self.lambda_vars))
        if self.N < 1:
            raise ValueError(f"trial length N must be at least 1, got {self.N}")
        if len(self.markov) != self.N:
            raise ValueError(f"expected {self.N} Markov parameters, got {len(self.markov)}")
        for p in self.markov:
            if p.has_decisions():
                raise ValueError("Markov parameters must be decision-free")
            if p.variables != self.lambda_vars:
                raise ValueError("Markov parameters must share the plant's lambda variables")
        self._check_leading()

    @property
    def n_lambda(self) -> int:
        return len(self.lambda_vars)

    def _check_leading(self):
        """p1 must stay away from zero everywhere (the rate involves P^-1).
        An affine p1 takes its extremes at the vertices, so they decide
        exactly; a p1 of higher degree is sampled.  Either way the values
        must share one sign and clear 1e-9 of their scale."""
        p1 = self.markov[0]
        pts = simplex_samples(len(self.lambda_vars), 0 if p1.degree() <= 1 else 1000,
                              seed=20240117)
        vals = p1.evaluate_batch(pts)
        if vals.min() < 0 < vals.max():
            raise SingularPlant(f"first Markov parameter changes sign on the simplex "
                                f"(from {vals.min():.2e} to {vals.max():.2e}), so it vanishes")
        scale = max(1.0, float(np.max(np.abs(vals))))
        if np.min(np.abs(vals)) <= 1e-9 * scale:
            worst = pts[int(np.argmin(np.abs(vals)))]
            raise SingularPlant(
                f"first Markov parameter reaches {np.min(np.abs(vals)):.2e} "
                f"on the simplex (near lambda={worst})")

    @classmethod
    def from_transfer(cls, plant, N: int) -> "LiftedUncertainPlant":
        """Symbolic long division of an uncertain transfer function.

        ``plant`` carries numerator b_0..b_m and monic denominator
        z^n + a_{n-1} z^{n-1} + ... + a_0 with coefficients polynomial in the
        simplex weights; requires m < n.  Markov parameters come out as
        simplex polynomials of growing degree.
        """
        n = plant.n
        if plant.m >= n:
            raise ValueError("lifting needs a strictly proper plant (m < n)")
        variables = plant.lambda_vars
        zero = AffinePoly.zero(variables)
        rhs = [zero] * (n - len(plant.num)) + list(plant.num)[::-1] + [zero] * N
        col = [AffinePoly.constant(variables, 1.0)] + list(plant.den)[::-1]
        return cls(N, tuple(lower_toeplitz_solve(col, rhs[:N], 1.0)), variables)

    def markov_at(self, lam) -> np.ndarray:
        if not isinstance(lam, Mapping):
            lam = dict(zip(self.lambda_vars, lam))
        return np.array([p.evaluate(lam) for p in self.markov])

    def is_nominal(self) -> bool:
        return not self.lambda_vars


@dataclass(frozen=True)
class LiftedFilter:
    """2N-1 Toeplitz taps c_{-(N-1)}..c_{N-1}; as a matrix, entry (i,j) = c_{i-j}.

    Taps are fixed reals or decision-variable names.  Tap c_d acts on the
    input d samples in the past (negative d: future samples, non-causal).
    """

    N: int
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) != 2 * self.N - 1:
            raise ValueError(f"expected {2 * self.N - 1} taps, got {len(self.coeffs)}")

    @classmethod
    def identity(cls, N: int) -> "LiftedFilter":
        return cls(N, (0.0,) * (N - 1) + (1.0,) + (0.0,) * (N - 1))

    @classmethod
    def causal_decision(cls, N: int, prefix: str = "l") -> "LiftedFilter":
        return cls(N, (0.0,) * (N - 1) + tuple(f"{prefix}{d}" for d in range(N)))

    @classmethod
    def full_decision(cls, N: int, prefix: str = "l") -> "LiftedFilter":
        c = [f"{prefix}m{-d}" if d < 0 else f"{prefix}{d}"
             for d in range(-(N - 1), N)]
        return cls(N, tuple(c))

    @classmethod
    def from_fir(cls, fir, N: int) -> "LiftedFilter":
        """Place a z-domain FIR's taps on the trial horizon."""
        if fir.k_lead > N - 1 or fir.k_lag > N - 1:
            raise ValueError("FIR taps reach outside the trial horizon")
        c: list = [0.0] * (2 * N - 1)
        for d, coeff in fir.taps():
            c[d + N - 1] = coeff
        return cls(N, tuple(c))

    def decision_ids(self) -> tuple:
        return tuple(c for c in self.coeffs if isinstance(c, str))

    def has_decisions(self) -> bool:
        return any(isinstance(c, str) for c in self.coeffs)

    def numeric(self, assignment: Mapping[str, float] | None = None) -> np.ndarray:
        assignment = assignment or {}
        out = np.empty(2 * self.N - 1)
        for i, c in enumerate(self.coeffs):
            out[i] = assignment[c] if isinstance(c, str) else float(c)
        return out

    def pinned(self, assignment: Mapping[str, float]) -> "LiftedFilter":
        return LiftedFilter(self.N, tuple(
            float(assignment[c]) if isinstance(c, str) and c in assignment else c
            for c in self.coeffs))


@dataclass(frozen=True)
class TimeSynthesisProblem:
    """One finite-horizon synthesis instance: fixed Q, decision L taps."""

    plant: LiftedUncertainPlant
    qfilter: LiftedFilter
    lstructure: LiftedFilter
    epsilon: float = 1e-3
    k_max: int = 5
    k_tol: float = 1e-3

    def __post_init__(self):
        if self.qfilter.has_decisions():
            raise ValueError("Q filter must be decision-free")
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if self.qfilter.N != self.plant.N or self.lstructure.N != self.plant.N:
            raise ValueError("filters and plant must share the trial length")

    def solve(self) -> SynthesisResult:
        return synth_time(self)


# ---------------------------------------------------------------------------
# lifted matrices


def _poly_toeplitz(taps: Sequence[AffinePoly]) -> PolyMatrix:
    """The :func:`tap_index` map on 2N-1 polynomial taps."""
    index = tap_index((len(taps) + 1) // 2)
    return PolyMatrix.from_rows([[taps[k] for k in row] for row in index.tolist()])


def build_lifted_plant(markov: Sequence[AffinePoly]) -> PolyMatrix:
    """Lower-triangular Toeplitz plant matrix: entry (i,j) = p_{i-j+1} for i >= j."""
    zero = AffinePoly.zero(markov[0].variables)
    return _poly_toeplitz((zero,) * (len(markov) - 1) + tuple(markov))


def build_filter_matrix(filt: LiftedFilter, N: int, variables: Sequence[str] = ()) -> PolyMatrix:
    """Full Toeplitz matrix of a lifted filter; decision taps become symbols."""
    if len(filt.coeffs) != 2 * N - 1:
        raise ValueError(f"filter has {len(filt.coeffs)} taps, horizon needs {2 * N - 1}")
    variables = tuple(variables)
    return _poly_toeplitz([AffinePoly.decision(variables, c) if isinstance(c, str)
                           else AffinePoly.constant(variables, float(c)) for c in filt.coeffs])


def _inverse_markov(markov: Sequence[AffinePoly]) -> list:
    """Markov parameters of P^-1 for a constant p_1 (then they are polynomials):
    P's Toeplitz system solved for e_1."""
    variables = markov[0].variables
    c = 1.0 / markov[0].evaluate(dict.fromkeys(variables, 0.0))
    e1 = [AffinePoly.constant(variables, 1.0)] + [AffinePoly.zero(variables)] * (len(markov) - 1)
    return lower_toeplitz_solve(markov, e1, c)


def build_M(problem: TimeSynthesisProblem) -> PolyMatrix:
    """Homogenized 2N x 2N block matrix whose PSD on the simplex is
    sigma_max(P Q (I - L P) P^-1) <= gamma.

    Causal Q (no tap at d < 0): [[gamma I, T^T], [T, gamma I]] with
    T = Q (I - P L).
    T is the contraction matrix itself, since P Q = Q P gives
    P Q (I - L P) P^-1 = Q - Q P L for any L.  A non-causal Q = Qc + Qa
    (Qa: the taps at d < 0) with a constant p1 gives the same block with
    T = Qc (I - P L) + P Qa (P^-1 - L), P^-1 polynomial.  Otherwise
    [[gamma P^T P, X^T], [X, gamma I]] with X = P Q (I - L P), the
    congruence of the same condition by P.
    """
    plant = problem.plant
    N = plant.N
    variables = plant.lambda_vars
    P = build_lifted_plant(plant.markov)
    Q = build_filter_matrix(problem.qfilter, N, variables)
    L = build_filter_matrix(problem.lstructure, N, variables)
    I = PolyMatrix.identity(N, variables)
    gamma = AffinePoly.decision(variables, "gamma")
    head = gI = I.scaled(gamma)
    future = problem.qfilter.coeffs[:N - 1]  # taps c_{-(N-1)}..c_{-1}
    if not any(future):
        R = Q @ (I - P @ L)
    elif plant.markov[0].degree() == 0:
        Qa = build_filter_matrix(LiftedFilter(N, future + (0.0,) * N), N, variables)
        Pinv = build_lifted_plant(_inverse_markov(plant.markov))
        R = (Q - Qa) @ (I - P @ L) + P @ Qa @ (Pinv - L)
    else:
        R, head = P @ Q @ (I - L @ P), (P.transpose() @ P).scaled(gamma)
    return homogenize(PolyMatrix.from_blocks([[head, R.transpose()], [R, gI]]), variables)


# ---------------------------------------------------------------------------
# the lifted layout and its triangular solve (shared with verify and simulate)


def tap_index(N: int) -> np.ndarray:
    """Entry (i, j) of a lifted N x N matrix holds the tap c_{i-j}, at
    (N - 1) + i - j in c_{-(N-1)}..c_{N-1}.  Every lifted matrix reads this."""
    return (N - 1) + np.subtract.outer(np.arange(N), np.arange(N))


def toeplitz_from_taps(taps: np.ndarray, N: int) -> np.ndarray:
    """Full N x N Toeplitz from taps c_{-(N-1)}..c_{N-1} on the last axis;
    leading axes are a batch."""
    taps = np.asarray(taps, dtype=float)
    if taps.shape[-1:] != (2 * N - 1,):
        raise ValueError("tap vector length must be 2N-1")
    return taps[..., tap_index(N)]


def lower_toeplitz(col) -> np.ndarray:
    """Lower-triangular Toeplitz (a lifted plant) from first columns on the
    last axis: the full map after N - 1 zero taps."""
    col = np.asarray(col, dtype=float)
    pad = np.zeros(col.shape[:-1] + (col.shape[-1] - 1,))
    return toeplitz_from_taps(np.concatenate([pad, col], axis=-1), col.shape[-1])


def lower_toeplitz_solve(col: Sequence, rhs: Sequence, inv_lead) -> list:
    """Forward substitution for T x = rhs, T lower-triangular Toeplitz with
    first column ``col`` (zero past its end) and inv_lead = 1 / col[0],
    on floats or AffinePoly: x_k = (rhs_k - sum_j col_j x_{k-j}) inv_lead."""
    x: list = []
    for k, acc in enumerate(rhs):
        for j in range(1, min(k + 1, len(col))):
            acc = acc - col[j] * x[k - j]
        x.append(acc * inv_lead)
    return x


def contraction_matrix(plant: LiftedUncertainPlant, q_taps: np.ndarray,
                       l_taps: np.ndarray, lam) -> np.ndarray:
    """Numeric P Q (I - L P) P^-1 at one simplex point."""
    N = plant.N
    P = lower_toeplitz(plant.markov_at(lam))
    Qm = toeplitz_from_taps(q_taps, N)
    Lm = toeplitz_from_taps(l_taps, N)
    return P @ Qm @ (np.eye(N) - Lm @ P) @ np.linalg.inv(P)


def _gain_list(filt: LiftedFilter, gains: Mapping[str, float]) -> list:
    return [decision_value(gains, c) for c in filt.coeffs if isinstance(c, str)]


# ---------------------------------------------------------------------------
# synthesis


def synth_time(problem: TimeSynthesisProblem) -> SynthesisResult:
    """Minimize the certified contraction rate over the free taps of L.

    Poses the block-matrix SOS program at multiplier powers k = 0, 1, ... and
    keeps the best certificate (levels never have to get worse: a level-j
    Gram times the norm factor stays valid at level k > j).  Level 0 is
    already exact, and solved alone, for two simplex weights or a block
    affine in the weights, as with a causal Q and affine Markov parameters
    (:func:`result.level0_exact`).  A plant without uncertainty (lam = ())
    gives an exact program too: it is solved at level 0 only, without the
    positivity margin, and the result's ``epsilon`` is None.
    """
    plant = problem.plant
    N = plant.N
    # each upper-triangle position of the 2N x 2N block holds at least one
    # equality, so p >= N (2N + 1): refuse before build_M's O(N^3) products
    if N * (2 * N + 1) > MAX_SCHUR_DIM:
        raise ValueError(
            f"trial length N={N} gives the lifted program at least N(2N + 1) = "
            f"{N * (2 * N + 1)} equalities, above the cap of {MAX_SCHUR_DIM}; "
            "use the frequency-domain route (synth_freq_robust)")
    lam = plant.lambda_vars
    # without uncertainty the program is exact and takes no margin
    result = escalate(build_M(problem), lam, float(problem.epsilon) if lam else None,
                      problem.k_max, problem.k_tol,
                      lambda gains: _gain_list(problem.lstructure, gains))
    result.diagnostics["N"] = N
    if result.not_monotone:
        warnings.warn("no multiplier power certified a rate below one", InfeasibleAtAllK)
    return result
