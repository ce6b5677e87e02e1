"""Lifted trial-domain model and the finite-horizon contraction synthesis.

A trial of length N turns the plant into an N x N lower-triangular Toeplitz
matrix of Markov parameters and the learning filters into full Toeplitz
matrices.  The guaranteed trial-to-trial contraction rate is

    gamma = max over the simplex of  sigma_max( P Q (I - L P) P^-1 )

and gamma <= sqrt(eta) is certified by a polynomial matrix inequality: with
W = P Q (I - L P) adj(P) and a = det(P), the 2N x 2N block matrix

    [[eta * a^2 * I, W^T], [W, I]]

must be PSD on the simplex.  After homogenizing in the simplex weights,
substituting lam -> lam^2 and multiplying by ||lam||^(2k), positivity is
relaxed to an SOS feasibility problem that tightens as k grows.
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings
from typing import Mapping, Sequence

import numpy as np

from .polyalg import (AffineCoeff, AffinePoly, PolyMatrix, substitute_squares,
                      homogenize, triangular_toeplitz_det_adj)
from .soscompiler import compile_sos, kron_pairs, monomial_basis, sign_classes
from . import sdp
from .result import SynthesisResult, decision_value, escalate

MAX_TRIAL_LENGTH = 8


class SingularPlant(Exception):
    """First Markov parameter vanishes somewhere on the uncertainty set."""


class InfeasibleAtAllK(UserWarning):
    """No multiplier power certified a contracting (gamma < 1) design."""


def markov_from_coeffs(num: Sequence[float], den: Sequence[float], count: int) -> np.ndarray:
    """First ``count`` impulse-response samples of num(z)/den(z).

    Coefficients ascending in z; den must have a nonzero leading entry and
    strictly higher degree than num.  Plain long-division recursion.
    """
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    n = len(den) - 1
    if abs(den[-1]) < 1e-300:
        raise ValueError("denominator leading coefficient is zero")
    if len(num) - 1 >= n:
        raise ValueError("plant must be strictly proper")
    aa = den / den[-1]
    bb = np.zeros(n + 1)
    bb[: len(num)] = num / den[-1]
    h = np.zeros(count)
    for k in range(1, count + 1):
        acc = bb[n - k] if n - k >= 0 else 0.0
        for j in range(1, min(k, n + 1)):
            acc -= aa[n - j] * h[k - j - 1]
        h[k - 1] = acc
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
        """p1 must stay away from zero everywhere (the rate involves P^-1)."""
        p1 = self.markov[0]
        if self.lambda_vars:
            pts = simplex_samples(len(self.lambda_vars), 1000, seed=20240117)
            vals = p1.evaluate_batch(pts)
        else:
            pts = None
            vals = np.array([p1.evaluate({})])
        scale = max(1.0, float(np.max(np.abs(vals))))
        if np.min(np.abs(vals)) <= 1e-9 * scale:
            worst = pts[int(np.argmin(np.abs(vals)))] if pts is not None else None
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
        b = [plant.num[i] if i < len(plant.num) else zero for i in range(n + 1)]
        a = list(plant.den)  # a_0 .. a_{n-1}; leading coefficient is 1
        h: list = []
        for k in range(1, N + 1):
            acc = b[n - k] if n - k >= 0 else zero
            for j in range(1, min(k, n + 1)):
                acc = acc - a[n - j] * h[k - j - 1]
            h.append(acc)
        return cls(N, tuple(h), variables)

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
        c = [0.0] * (2 * N - 1)
        c[N - 1] = 1.0
        return cls(N, tuple(c))

    @classmethod
    def causal_decision(cls, N: int, prefix: str = "l") -> "LiftedFilter":
        c = [0.0] * (N - 1) + [f"{prefix}{d}" for d in range(N)]
        return cls(N, tuple(c))

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

    def tap(self, d: int):
        return self.coeffs[d + self.N - 1]

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

    def solve(self, **kwargs) -> SynthesisResult:
        return synth_time(self, **kwargs)


# ---------------------------------------------------------------------------
# lifted matrices


def build_lifted_plant(markov: Sequence[AffinePoly], N: int | None = None) -> PolyMatrix:
    """Lower-triangular Toeplitz plant matrix: entry (i,j) = p_{i-j+1} for i >= j."""
    if N is None:
        N = len(markov)
    if len(markov) != N:
        raise ValueError(f"expected {N} Markov parameters, got {len(markov)}")
    variables = markov[0].variables
    zero = AffinePoly.zero(variables)
    rows = [[markov[i - j] if i >= j else zero for j in range(N)] for i in range(N)]
    return PolyMatrix.from_rows(rows)


def build_filter_matrix(filt: LiftedFilter, N: int, variables: Sequence[str] = ()) -> PolyMatrix:
    """Full Toeplitz matrix of a lifted filter; decision taps become symbols."""
    if len(filt.coeffs) != 2 * N - 1:
        raise ValueError(f"filter has {len(filt.coeffs)} taps, horizon needs {2 * N - 1}")
    variables = tuple(variables)
    entries = {}
    for d in range(-(N - 1), N):
        c = filt.tap(d)
        if isinstance(c, str):
            entries[d] = AffinePoly.constant(variables, AffineCoeff.decision(c))
        else:
            entries[d] = AffinePoly.constant(variables, float(c))
    rows = [[entries[i - j] for j in range(N)] for i in range(N)]
    return PolyMatrix.from_rows(rows)


def build_M(problem: TimeSynthesisProblem, eta_id: str = "eta") -> PolyMatrix:
    """Homogenized 2N x 2N block matrix [[eta a^2 I, W^T], [W, I]].

    W = P Q (I - L P) adj(P), a = det(P); PSD of this block on the simplex
    is the Schur-complement form of sigma_max(P Q (I - L P) P^-1) <= sqrt(eta).
    """
    plant = problem.plant
    N = plant.N
    variables = plant.lambda_vars
    P = build_lifted_plant(plant.markov, N)
    Q = build_filter_matrix(problem.qfilter, N, variables)
    L = build_filter_matrix(problem.lstructure, N, variables)
    det, adj = triangular_toeplitz_det_adj(P)
    I = PolyMatrix.identity(N, variables)
    W = (P @ Q @ (I - L @ P)) @ adj
    head = I.scaled((det * det).scaled(AffineCoeff.decision(eta_id)))
    M = PolyMatrix.from_blocks([[head, W.transpose()], [W, I]])
    if variables:
        M = homogenize(M, variables)
    return M


# ---------------------------------------------------------------------------
# numeric helpers (shared with the verification side)


def toeplitz_from_taps(taps: np.ndarray, N: int) -> np.ndarray:
    """Full N x N Toeplitz from taps c_{-(N-1)}..c_{N-1}."""
    taps = np.asarray(taps, dtype=float)
    if len(taps) != 2 * N - 1:
        raise ValueError("tap vector length must be 2N-1")
    out = np.empty((N, N))
    for d in range(-(N - 1), N):
        idx = np.arange(max(0, d), min(N, N + d))
        out[idx, idx - d] = taps[d + N - 1]
    return out


def lifted_numeric(plant: LiftedUncertainPlant, lam) -> np.ndarray:
    """Numeric lower-triangular Toeplitz plant at one simplex point."""
    h = plant.markov_at(lam)
    N = plant.N
    P = np.zeros((N, N))
    for d in range(N):
        idx = np.arange(d, N)
        P[idx, idx - d] = h[d]
    return P


def contraction_matrix(plant: LiftedUncertainPlant, q_taps: np.ndarray,
                       l_taps: np.ndarray, lam) -> np.ndarray:
    """Numeric P Q (I - L P) P^-1 at one simplex point."""
    N = plant.N
    P = lifted_numeric(plant, lam)
    Qm = toeplitz_from_taps(q_taps, N)
    Lm = toeplitz_from_taps(l_taps, N)
    return P @ Qm @ (np.eye(N) - Lm @ P) @ np.linalg.inv(P)


def _gain_list(filt: LiftedFilter, gains: Mapping[str, float]) -> list:
    return [decision_value(gains, c) for c in filt.coeffs if isinstance(c, str)]


# ---------------------------------------------------------------------------
# synthesis


def synth_time(problem: TimeSynthesisProblem, feas_tol: float = 1e-8,
               gap_tol: float = 1e-9) -> SynthesisResult:
    """Minimize the certified contraction rate over the free taps of L.

    Poses the block-matrix SOS program at multiplier powers k = 0, 1, ... and
    keeps the best certificate (levels never have to get worse: a level-j
    Gram times the norm factor stays valid at level k > j).  A plant without
    uncertainty skips the positivity margin and the escalation entirely --
    the program is a single exact SDP there.
    """
    plant = problem.plant
    N = plant.N
    if N > MAX_TRIAL_LENGTH:
        raise ValueError(
            f"trial length N={N} blows up the lifted program; "
            "use the frequency-domain route (synth_freq_robust)")
    lam = plant.lambda_vars
    M = build_M(problem)
    variables = M.variables

    if not lam:
        basis = monomial_basis(variables, [])
        prob = compile_sos(M, {"eta": 1.0}, bases=[kron_pairs(basis, M.rows)])
        sol = sdp.solve(prob, feas_tol=feas_tol, gap_tol=gap_tol)
        if not sol.ok:
            raise sdp.SolverFailure(f"lifted synthesis failed: {sol.status} ({sol.message})")
        sol, cert, report = sdp.ensure_certified(prob, M, sol)
        result = SynthesisResult.from_solution(
            sol, cert, report, _gain_list(problem.lstructure, sol.scalar_values),
            epsilon=None,
            diagnostics={"N": N, "deg_lambda": 0,
                         "n_equalities": prob.n_equalities,
                         "block_dims": list(prob.block_dims)})
        if result.not_monotone:
            warnings.warn("certified rate is not below one", InfeasibleAtAllK)
        return result

    flips = [((variables.index(v),), ()) for v in lam]
    deg_lambda = M.degree_in(lam)
    T_sq = substitute_squares(M, lam)
    norm2 = AffinePoly.zero(variables)
    for v in lam:
        norm2 = norm2 + AffinePoly.variable(variables, v) ** 2
    eps_poly = (norm2 ** deg_lambda).scaled(float(problem.epsilon))
    base = T_sq - PolyMatrix.identity(2 * N, variables).scaled(eps_poly)

    def compile_level(S, k):
        basis = monomial_basis(variables, [(lam, "homogeneous", deg_lambda + k)])
        return compile_sos(S, {"eta": 1.0},
                           bases=sign_classes(kron_pairs(basis, S.rows), flips))

    esc = escalate(base, norm2, compile_level, problem.k_max, problem.k_tol,
                   feas_tol, gap_tol)
    result = SynthesisResult.from_solution(
        esc.solution, esc.certificate, esc.report,
        _gain_list(problem.lstructure, esc.solution.scalar_values),
        epsilon=float(problem.epsilon), polya_k=esc.k, k_trace=esc.k_trace,
        diagnostics={"N": N, "deg_lambda": deg_lambda, **esc.diagnostics})
    if result.not_monotone:
        warnings.warn("no multiplier power certified a rate below one", InfeasibleAtAllK)
    return result
