"""Shared result container and multiplier escalation for both synthesis domains."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from . import sdp
from .polyalg import AffinePoly, PolyMatrix
from .soscompiler import RESIDUAL_TOL, CertificateReport, SdpProblem, SosCertificate


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

    ``gamma`` is the guaranteed contraction rate, ``eta`` its square;
    ``gains`` maps decision ids (learning-function taps, optionally filter
    taps) to their optimized values.  ``epsilon`` is the pinned positivity
    margin, or None for a program without one.
    ``k_trace`` records the bound eta for every multiplier power k that was
    solved, ``polya_k`` the power that produced the reported bound.
    """

    gamma: float
    eta: float
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
    not_monotone: bool = False
    diagnostics: dict = field(default_factory=dict)

    @classmethod
    def from_solution(cls, sol: sdp.SdpSolution, certificate: SosCertificate,
                      report: CertificateReport, gain_list: list,
                      epsilon: float | None, diagnostics: dict, polya_k: int = 0,
                      k_trace: list | None = None) -> "SynthesisResult":
        """Result of a solve whose objective scalar is ``gamma``; ``k_trace``
        defaults to the single level 0.  A gamma within the certificate's
        residual tolerance of 1 is rounding, not a contraction."""
        gamma = _gamma(sol)
        eta = gamma * gamma
        return cls(
            gamma=gamma, eta=eta,
            gains={k: float(v) for k, v in sol.scalar_values.items()},
            gain_list=gain_list, epsilon=epsilon, polya_k=polya_k,
            k_trace=[(0, eta)] if k_trace is None else k_trace,
            certificate=certificate, certificate_report=report,
            solver_status=sol.status, solver_method=sol.method,
            solver_iterations=sol.iterations,
            not_monotone=bool(gamma >= 1.0 - RESIDUAL_TOL), diagnostics=diagnostics)

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


@dataclass
class Escalation:
    """Best level of a multiplier ladder, its checked solution and the
    per-level record (``diagnostics`` holds the raw trace and program size)."""

    k: int
    solution: sdp.SdpSolution
    certificate: SosCertificate
    report: CertificateReport
    k_trace: list
    diagnostics: dict


def escalate(base: PolyMatrix, norm2: AffinePoly,
             compile_level: Callable[[PolyMatrix, int], SdpProblem],
             k_max: int, k_tol: float) -> Escalation:
    """Minimize the rate gamma over the levels S_k = norm2^k * base.

    ``compile_level(S_k, k)`` returns level k's program, whose objective is
    the scalar ``gamma``; the ladder is kept in eta = gamma^2.  Levels
    k = 0, 1, ... are solved until eta improves by less than ``k_tol`` or
    ``k_max`` is reached.  An identically zero ``norm2`` (no simplex
    variable) leaves level 0 alone.  The solved levels' Gram matrices are
    then checked as certificates by ``sdp.ensure_certified`` in ascending
    eta (nothing is re-solved), and the first that passes is returned; when
    none passes, the lowest-eta level comes back with its failed report.

    A certificate solved at level j stays valid at every level k > j
    (multiply the Gram polynomial by the norm factor), so the guaranteed
    bound after processing level k is the best value seen so far; k_trace
    records that, and the raw per-level solve values go to the diagnostics
    together with a flag for a numerical increase beyond 1e-6.
    """
    k_trace = []
    k_raw = []
    solved = []
    prev_bound = None
    increased = False
    mult = AffinePoly.constant(norm2.variables, 1.0)
    if norm2.is_zero():
        k_max = 0
    for k in range(k_max + 1):
        S = base.scaled(mult) if k else base
        prob = compile_level(S, k)
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

    if not solved:
        raise sdp.SolverFailure(f"no multiplier power up to k={k_max} yielded a solution")

    fallback = None
    for k_best, _, sol, prob, S in sorted(solved, key=lambda level: level[1]):
        checked = sdp.ensure_certified(prob, S, sol)
        if checked[2].passed:
            break
        fallback = fallback or (k_best, prob, checked)
    else:
        k_best, prob, checked = fallback
    sol, cert, report = checked
    return Escalation(k_best, sol, cert, report, k_trace, {
        "eta_increased_with_k": increased,
        "k_trace_raw": k_raw,
        "n_equalities": prob.n_equalities,
        "block_dims": list(prob.block_dims),
    })
