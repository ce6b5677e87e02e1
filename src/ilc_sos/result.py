"""Shared result container and the Polya relaxation ladder for both synthesis domains."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from . import sdp
from .polyalg import AffinePoly, PolyMatrix, substitute_squares
from .soscompiler import (RESIDUAL_TOL, CertificateReport, SosCertificate, compile_sos,
                          kron_pairs, monomial_basis, sign_classes)


# The one size rule of every SOS program: the Schur dimension p of a compiled
# level (SdpProblem.n_equalities) sets the IPM's dense p x p Schur factor, and
# so its time and memory.  The cap keeps a level-0 solve within about 10 s and
# 400 MB on 2 vCPUs with one BLAS thread (BENCH_31.json): p = 2783 took 10.3 s
# and 300 MB, p = 3192 took 9.4 s and 366 MB, p = 3660 took 14.0 s and 467 MB.
MAX_SCHUR_DIM = 3200


class UnusedDecision(Exception):
    """A decision tap does not occur in the compiled program, so the solve
    gives it no value: the plant leaves the tap no influence on the rate."""


def decision_value(gains: Mapping[str, float], name: str) -> float:
    if name not in gains:
        raise UnusedDecision(f"decision {name!r} drops out of the compiled program "
                             "(the plant gives it no usable influence)")
    return float(gains[name])


@dataclass
class SynthesisResult:
    """Outcome of one rate-minimization run.

    ``gamma`` is the guaranteed contraction rate; ``gains`` maps decision
    ids (the learning-function taps and gamma) to their optimized values.
    ``epsilon`` is the pinned positivity margin, or None for a program
    without one.
    ``k_trace`` records the bound eta for every multiplier power k that was
    solved, ``polya_k`` the power that produced the reported bound.
    """

    gamma: float
    gains: dict
    gain_list: list
    epsilon: float | None
    polya_k: int
    k_trace: list
    certificate: SosCertificate | None = None
    certificate_report: CertificateReport | None = None
    solver_status: str = ""
    solver_method: str = ""
    solver_iterations: int = 0
    diagnostics: dict = field(default_factory=dict)

    @property
    def eta(self) -> float:
        return self.gamma * self.gamma

    @property
    def not_monotone(self) -> bool:
        """A gamma within the certificate's residual tolerance of 1 is
        rounding, not a contraction."""
        return bool(self.gamma >= 1.0 - RESIDUAL_TOL)

    @property
    def certified(self) -> bool:
        return self.certificate_report is not None and self.certificate_report.passed

    def to_json_dict(self) -> dict:
        rep = self.certificate_report
        return {
            "gamma": self.gamma,
            "eta": self.eta,
            "gains": {k: self.gains[k] for k in sorted(self.gains)},
            "gain_list": list(self.gain_list),
            "epsilon": self.epsilon,
            "polya_k": self.polya_k,
            "k_trace": [[int(k), float(v)] for k, v in self.k_trace],
            "not_monotone": self.not_monotone,
            "certificate": None if rep is None else {
                "passed": rep.passed,
                "residual": rep.residual,
                "scale": rep.scale,
                "min_eig": min(rep.min_eigs) if rep.min_eigs else None,
            },
            "solver": {
                "status": self.solver_status,
                "method": self.solver_method,
                "iterations": self.solver_iterations,
            },
            "diagnostics": self.diagnostics,
        }


def _gamma(sol: sdp.SdpSolution) -> float:
    """The solved rate; a roundoff-negative value certifies gamma = 0."""
    return max(float(sol.scalar_values["gamma"]), 0.0)


def _less_gamma(M: PolyMatrix, epsilon: float) -> PolyMatrix:
    """M(gamma - epsilon): the constant column loses epsilon times gamma's."""
    entry, exps, coeffs, names = M.table()
    coeffs = coeffs.copy()
    coeffs[:, 0] -= epsilon * coeffs[:, 1 + names.index("gamma")]
    return M.with_table((entry, exps, coeffs, names))


def level0_exact(M: PolyMatrix, lam: Sequence[str], deg_lambda: int) -> str | None:
    """Why Polya level 0 is already the exact condition for M to be PSD on
    the simplex, or None: no simplex weights, at most two weights and no
    other variable, or M affine in the weights (see :func:`escalate`)."""
    if not lam:
        return "no_simplex"
    if len(lam) <= 2 and set(M.variables) <= set(lam):
        return "two_weights"
    if deg_lambda <= 1:
        return "affine_in_lambda"
    return None


def escalate(M: PolyMatrix, lam: Sequence[str], epsilon: float | None, k_max: int,
             k_tol: float, gain_list: Callable[[Mapping[str, float]], list],
             groups: Sequence[tuple] = (), flips: Sequence[tuple] = ()) -> SynthesisResult:
    """Minimize the rate gamma whose block M is PSD on the simplex.

    M is affine in the decision ``gamma`` and homogeneous in the simplex
    variables ``lam``.  The Polya relaxation substitutes lam -> lam^2, which
    drops the nonnegativity constraints, and asks level k,
    S_k = ||lam||^(2k) M(gamma - eps), to be SOS in a basis of the monomial
    ``groups`` (:func:`monomial_basis` groups of the other variables) times
    the lam monomials of degree deg_lam(M) + k.  Every level is invariant
    under lam_i -> -lam_i, and under the extra ``flips`` ((variable indices,
    negated coordinates), as in :func:`sign_classes`), so its Gram matrix
    splits by sign class.

    The margin eps (None: no margin) is eps times M's gamma-coefficient H,
    the positive diagonal of the rate block: the Grams certify
    M(gamma) - eps H, and since M is affine in gamma the certified gamma is
    the margin-free bound plus eps.  A margin must be positive: with
    eps <= 0 the certified gamma would undercut the margin-free bound, so it
    raises ValueError.

    Levels k = 0, 1, ... are solved until eta = gamma^2 improves by less
    than ``k_tol`` or ``k_max`` is reached.  Level 0 alone is solved where
    it is already exact (:func:`level0_exact`, recorded in the diagnostics
    as ``level0_exact``):
      - ``"no_simplex"``: without simplex variables there is nothing to relax;
      - ``"two_weights"``: at most two weights and no other variable.  After
        lam -> lam^2, M is a bivariate matrix form, i.e. a univariate matrix
        polynomial, and a PSD univariate matrix polynomial is a sum of
        squares with factors of half its degree (Jakubovic 1970, Dokl. Akad.
        Nauk SSSR 194; Aylward, Itani & Parrilo 2007, IEEE CDC), which is
        the level-0 basis;
      - ``"affine_in_lambda"``: M = sum lam_i M_i is PSD on the simplex iff
        every M_i is, and level 0, sum lam_i^2 M_i, splits by sign class into
        exactly those vertex LMIs.
    Every level's compiled program must keep its Schur dimension p (its
    equality count) within ``MAX_SCHUR_DIM``, checked before it is solved: a
    level 0 above the cap raises ValueError, and a higher level above it
    ends the ladder as ``k_max`` does, recorded in the diagnostics as
    ``size_stop`` (the level and its p; None when no level was stopped).
    The solved levels' Grams are then
    checked by ``sdp.ensure_certified`` in ascending eta (nothing is
    re-solved), and the first that passes is returned; when none passes, the
    lowest-eta level comes back with its failed report.  ``gain_list`` maps
    the solved decisions to the result's tap list.

    A certificate solved at level j stays valid at every level k > j
    (multiply the Gram polynomial by the norm factor), so the guaranteed
    bound after processing level k is the best value seen so far; k_trace
    records that, and the raw per-level solve values go to the diagnostics
    together with a flag for a numerical increase beyond 1e-6.
    """
    if epsilon is not None and not epsilon > 0:
        raise ValueError("epsilon must be positive (or None for no margin)")
    variables = M.variables
    deg_lambda = M.degree_in(lam)
    base = substitute_squares(M, lam)
    if epsilon is not None:
        base = _less_gamma(base, epsilon)
    norm2 = sum((AffinePoly.variable(variables, v) ** 2 for v in lam), AffinePoly.zero(variables))
    signs = [((variables.index(v),), ()) for v in lam] + list(flips)

    k_trace = []
    k_raw = []
    solved = []
    prev_bound = None
    increased = False
    exact = level0_exact(M, lam, deg_lambda)
    size_stop = None
    mult = AffinePoly.constant(variables, 1.0)
    for k in range(1 if exact else k_max + 1):
        S = base.scaled(mult) if k else base
        basis = monomial_basis(variables, [*groups, (lam, "homogeneous", deg_lambda + k)])
        prob = compile_sos(S, {"gamma": 1.0}, bases=sign_classes(kron_pairs(basis, S.rows), signs))
        if prob.n_equalities > MAX_SCHUR_DIM:
            if not k:
                raise ValueError(f"the level-0 program has Schur dimension "
                                 f"{prob.n_equalities}, above the cap of {MAX_SCHUR_DIM}")
            size_stop = {"k": k, "n_equalities": prob.n_equalities}
            break
        sol = sdp.solve(prob)
        if sol.ok:
            eta = _gamma(sol) ** 2
            k_raw.append((k, eta))
            solved.append((k, eta, sol, prob, S))
            if len(k_raw) > 1 and eta > k_raw[-2][1] + 1e-6:
                increased = True
        else:
            k_raw.append((k, float("nan")))
        bound = min((level[1] for level in solved), default=float("nan"))
        k_trace.append((k, bound))
        if prev_bound is not None and solved and abs(prev_bound - bound) < k_tol:
            break
        prev_bound = bound
        mult = mult * norm2

    if not solved:  # the ladder ran to its last level, or to the size cap
        raise sdp.SolverFailure(f"no multiplier power up to k={k_trace[-1][0]} "
                                "yielded a solution")

    fallback = None
    for k_best, _, sol, prob, S in sorted(solved, key=lambda level: level[1]):
        checked = sdp.ensure_certified(prob, S, sol)
        if checked[2].passed:
            break
        fallback = fallback or (k_best, prob, checked)
    else:
        k_best, prob, checked = fallback
    sol, cert, report = checked
    gains = {k: float(v) for k, v in sol.scalar_values.items()}
    return SynthesisResult(
        gamma=_gamma(sol), gains=gains, gain_list=gain_list(gains), epsilon=epsilon,
        polya_k=k_best, k_trace=k_trace, certificate=cert, certificate_report=report,
        solver_status=sol.status, solver_method=sol.method,
        solver_iterations=sol.iterations,
        diagnostics={"deg_lambda": deg_lambda, "level0_exact": exact,
                     "eta_increased_with_k": increased, "size_stop": size_stop,
                     "k_trace_raw": k_raw, "n_equalities": prob.n_equalities,
                     "block_dims": list(prob.block_dims)})
