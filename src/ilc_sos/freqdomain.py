"""Transfer-function domain: uncertain plants, stability screen, synthesis.

The plant is a strictly proper discrete transfer function whose numerator
and denominator coefficients are polynomials in simplex uncertainty
variables (``lam1 + ... + lams = 1``, all nonnegative).  The learning update

    u_{j+1}(z) = Q(z) [ u_j(z) + L(z) e_j(z) ]

contracts the tracking error monotonically for every admissible uncertainty
iff  sup_{lam, |z|=1} |Q(z)(1 - z L(z) P(z, lam))| < 1.  The squared bound
eta on that sup is minimized over the free taps of L (or Q) through a
sum-of-squares program:

* nominal plants: rationalize z on the circle with one real parameter x and
  certify a 3x3 polynomial matrix inequality in x (exact, no conservatism);
* uncertain plants: keep z = x1 + j x2 on the circle, homogenize in lam,
  substitute lam -> lam^2 to drop the nonnegativity constraints, map
  (x1, x2) -> x, and escalate a "multiply by ||lam||^2k" relaxation ladder
  until the bound stops improving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import sdp
from .polyalg import (
    AffineCoeff,
    AffinePoly,
    PolyMatrix,
    circle_rationalize_single,
    circle_rationalize_xy,
    homogenize,
    laurent_mul,
    simplex_mesh,
    substitute_squares,
    x_parameterize,
)
from .result import SynthesisResult, decision_value, escalate
from .sdp import SolverFailure
from .soscompiler import compile_sos, kron_pairs, monomial_basis, sign_classes


class EmptyPolytope(Exception):
    """No vertices supplied for the uncertainty polytope."""


class UnstablePlant(Exception):
    """Stability screen failed; monotone synthesis is meaningless."""


# ---------------------------------------------------------------------------
# filters


@dataclass
class NoncausalFir:
    """Finite impulse response filter, possibly with advance (lead) taps.

    ``coeffs[i]`` multiplies ``z**(-(i - k_lead))``; entries are floats
    (pinned) or strings (decision ids).
    """

    k_lead: int
    k_lag: int
    coeffs: list

    def __post_init__(self):
        if len(self.coeffs) != self.k_lead + self.k_lag + 1:
            raise ValueError("coeffs length must be k_lead + k_lag + 1")

    @classmethod
    def unity(cls) -> "NoncausalFir":
        return cls(0, 0, [1.0])

    @classmethod
    def causal_decision(cls, order: int, prefix: str = "l") -> "NoncausalFir":
        return cls(0, order, [f"{prefix}{i}" for i in range(order + 1)])

    @classmethod
    def decision(cls, k_lead: int, k_lag: int, prefix: str = "l") -> "NoncausalFir":
        return cls(k_lead, k_lag, [f"{prefix}{i}" for i in range(-k_lead, k_lag + 1)])

    def taps(self):
        """Yields (i, coeff) with the tap multiplying z**(-i)."""
        for pos, c in enumerate(self.coeffs):
            yield pos - self.k_lead, c

    def decision_ids(self) -> list:
        return [c for c in self.coeffs if isinstance(c, str)]

    def has_decisions(self) -> bool:
        return any(isinstance(c, str) for c in self.coeffs)

    def has_leads(self) -> bool:
        return self.k_lead > 0 and any(
            (isinstance(c, str) or c != 0.0) for i, c in self.taps() if i < 0
        )

    def to_laurent(self, variables: Sequence[str]) -> dict:
        out = {}
        for i, c in self.taps():
            coeff = AffineCoeff.decision(c) if isinstance(c, str) else AffineCoeff(float(c))
            out[-i] = AffinePoly.constant(variables, coeff)
        return {k: v for k, v in out.items() if not v.is_zero()}

    def numeric(self, gains: Mapping[str, float] | None = None) -> dict:
        """Taps as {i: float}, decisions resolved through ``gains``."""
        out = {}
        for i, c in self.taps():
            out[i] = float(gains[c]) if isinstance(c, str) else float(c)
        return out

    def pinned(self, gains: Mapping[str, float]) -> "NoncausalFir":
        return NoncausalFir(self.k_lead, self.k_lag,
                            [gains[c] if isinstance(c, str) else c for c in self.coeffs])

    def response(self, z: np.ndarray, gains: Mapping[str, float] | None = None) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for i, c in self.numeric(gains).items():
            out += c * z ** (-i)
        return out


# ---------------------------------------------------------------------------
# plants


@dataclass
class UncertainTransferFunction:
    """Strictly proper plant num(z, lam)/den(z, lam), den monic in z.

    ``num`` holds ascending powers z^0..z^m, ``den`` ascending z^0..z^(n-1);
    the leading z^n coefficient is 1 after construction.  Coefficients are
    decision-free polynomials over the simplex variables.
    """

    num: list
    den: list
    lambda_vars: tuple
    stability: "JuryReport | None" = field(default=None, compare=False)

    @classmethod
    def from_coeffs(cls, num, den, lambda_vars: Sequence[str] = ()) -> "UncertainTransferFunction":
        lambda_vars = tuple(lambda_vars)

        def to_poly(c):
            if isinstance(c, AffinePoly):
                return c.lift(lambda_vars)
            return AffinePoly.constant(lambda_vars, float(c))

        num = [to_poly(c) for c in num]
        den = [to_poly(c) for c in den]
        while len(num) > 1 and num[-1].is_zero():
            num.pop()
        if len(den) < 2:
            raise ValueError("denominator must have degree >= 1")
        lead = den[-1]
        if lead.has_decisions() or lead.degree() > 0:
            raise ValueError("leading denominator coefficient must be a nonzero constant")
        lead_val = lead.coeff((0,) * len(lambda_vars)).const
        if lead_val == 0.0:
            raise ValueError("leading denominator coefficient must be a nonzero constant")
        num = [c.scaled(1.0 / lead_val) for c in num]
        den = [c.scaled(1.0 / lead_val) for c in den[:-1]]
        for c in num + den:
            if c.has_decisions():
                raise ValueError("plant coefficients must be decision-free")
        if len(num) - 1 >= len(den) + 1:
            raise ValueError("plant must be proper")
        return cls(num=num, den=den, lambda_vars=lambda_vars)

    @property
    def n(self) -> int:
        return len(self.den)

    @property
    def m(self) -> int:
        return len(self.num) - 1

    def num_laurent(self) -> dict:
        return {i: c for i, c in enumerate(self.num) if not c.is_zero()}

    def den_laurent(self) -> dict:
        out = {i: c for i, c in enumerate(self.den) if not c.is_zero()}
        out[self.n] = AffinePoly.constant(self.lambda_vars, 1.0)
        return out

    def coeff_arrays(self, lam: Mapping[str, float]) -> tuple:
        num = np.array([c.evaluate(lam) for c in self.num])
        den = np.append([c.evaluate(lam) for c in self.den], 1.0)
        return num, den

    def response(self, z: complex, lam: Mapping[str, float]) -> complex:
        num, den = self.coeff_arrays(lam)
        zp = z ** np.arange(len(den))
        return (num @ zp[: len(num)]) / (den @ zp)

    def is_nominal(self) -> bool:
        return len(self.lambda_vars) == 0


@dataclass(frozen=True)
class FreqSynthesisProblem:
    """One z-domain synthesis instance: fixed Q, decision L taps.

    ``epsilon=None`` leaves the positivity margin as an optimized variable
    (nominal plants only; lets deadbeat designs reach gamma = 0 exactly).
    """

    plant: UncertainTransferFunction
    qfilter: NoncausalFir
    lstructure: NoncausalFir
    epsilon: float | None = 1e-3
    k_max: int = 5
    k_tol: float = 1e-3

    def __post_init__(self):
        if self.qfilter.has_decisions():
            raise ValueError("Q filter must be decision-free")
        if self.epsilon is not None and not (self.epsilon > 0):
            raise ValueError("epsilon must be positive (or None for a free margin)")

    def solve(self, **kwargs) -> SynthesisResult:
        if self.plant.is_nominal():
            return synth_freq_nominal(self.qfilter, self.lstructure, self.plant,
                                      epsilon=self.epsilon, **kwargs)
        return synth_freq_robust(self.qfilter, self.lstructure, self.plant,
                                 epsilon=self.epsilon, k_max=self.k_max,
                                 k_tol=self.k_tol, **kwargs)


def simplexify(num_theta: Sequence, den_theta: Sequence, vertices,
               theta_vars: Sequence[str] = ("theta",),
               lambda_prefix: str = "lam") -> UncertainTransferFunction:
    """Convert a plant polynomial in box/polytope parameters theta into
    simplex coordinates: theta = sum_i lam_i * vertex_i.

    ``num_theta``/``den_theta`` are ascending z-power coefficient lists, each
    entry an AffinePoly over ``theta_vars`` (or a plain number).  The sign of
    the whole fraction is normalized so the leading denominator coefficient
    is positive at the simplex barycenter.
    """
    vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
    if vertices.size == 0:
        raise EmptyPolytope("polytope has no vertices")
    s, d = vertices.shape
    theta_vars = tuple(theta_vars)
    if d != len(theta_vars):
        raise ValueError("vertex dimension does not match theta variables")
    lam_vars = tuple(f"{lambda_prefix}{i + 1}" for i in range(s))

    images = {}
    for j, tv in enumerate(theta_vars):
        images[tv] = AffinePoly.linear_form(
            lam_vars, {lv: vertices[i, j] for i, lv in enumerate(lam_vars)})

    def convert(c):
        if not isinstance(c, AffinePoly):
            return AffinePoly.constant(lam_vars, float(c))
        return c.substitute(images, lam_vars)

    num = [convert(c) for c in num_theta]
    den = [convert(c) for c in den_theta]

    lead = den[-1]
    if lead.has_decisions() or lead.degree() > 0:
        raise ValueError("leading denominator coefficient must not depend on the uncertainty")
    bary = {v: 1.0 / s for v in lam_vars}
    if lead.evaluate(bary) < 0:
        num = [-c for c in num]
        den = [-c for c in den]
    elif lead.evaluate(bary) == 0:
        raise ValueError("leading denominator coefficient vanishes")
    return UncertainTransferFunction.from_coeffs(num, den, lam_vars)


# ---------------------------------------------------------------------------
# stability screen


@dataclass
class JuryReport:
    stable: bool
    margin: float
    worst_lambda: dict
    order: int
    method: str
    n_points: int

    def __str__(self) -> str:
        verdict = "stable" if self.stable else "UNSTABLE"
        return (f"jury[{self.method}] order {self.order}: {verdict}, "
                f"margin {self.margin:.6f} at {self.worst_lambda}")


def _jury_margin_table(coeffs: np.ndarray) -> float:
    """Margin for one sampled monic polynomial via Schur-Cohn recursion.

    Positive iff all roots are strictly inside the unit circle; the value is
    min over the recursion of (1 - |reflection coefficient|).
    """
    a = np.asarray(coeffs, dtype=float)  # ascending, monic
    margin = np.inf
    while len(a) > 1:
        k = a[0] / a[-1]
        margin = min(margin, 1.0 - abs(k))
        if abs(k) >= 1.0:
            return margin
        a = (a[1:] - k * a[-2::-1]) / (1.0 - k * k)  # monic again by construction
    return margin


def jury_stability(plant: UncertainTransferFunction, resolution: int = 50) -> JuryReport:
    """Evaluate the Jury stability conditions over all simplex vertices and
    a dense lambda mesh; attach and return the worst-case report.

    First and second order use the closed-form conditions (|a0| < 1 and
    |a1| < 1 + a0), whose margins are concave in affine coefficients, so the
    mesh check is exact for vertex-affine plants; higher orders run the
    Schur-Cohn table per sample.
    """
    lam_vars = plant.lambda_vars
    d = len(lam_vars)
    mesh = simplex_mesh(d, resolution)
    if d > 0:
        vertices = np.eye(d)
        pts = np.vstack([vertices, mesh])
    else:
        pts = mesh
    n = plant.n

    if n <= 2:
        den_vals = np.stack([c.evaluate_batch(pts) for c in plant.den], axis=1)
        if n == 1:
            margins = 1.0 - np.abs(den_vals[:, 0])
        else:
            a0, a1 = den_vals[:, 0], den_vals[:, 1]
            margins = np.minimum(1.0 - np.abs(a0), 1.0 + a0 - np.abs(a1))
        method = f"closed-form-n{n}"
    else:
        margins = np.empty(len(pts))
        den_vals = np.stack([c.evaluate_batch(pts) for c in plant.den], axis=1)
        for k in range(len(pts)):
            margins[k] = _jury_margin_table(np.append(den_vals[k], 1.0))
        method = "schur-cohn-table"

    worst = int(np.argmin(margins))
    report = JuryReport(
        stable=bool(margins[worst] > 0.0),
        margin=float(margins[worst]),
        worst_lambda={v: float(pts[worst, i]) for i, v in enumerate(lam_vars)},
        order=n,
        method=method,
        n_points=len(pts),
    )
    plant.stability = report
    return report


# ---------------------------------------------------------------------------
# rationalized forms


def tau_decompose(qfilter: NoncausalFir, lfir: NoncausalFir,
                  plant: UncertainTransferFunction) -> tuple:
    """(tau1, tau2, tau3) with Q(z)[1 - z L(z) P(z)] = (tau1 + j tau2)/tau3
    on the rational circle parameterization.  Nominal plants only."""
    if not plant.is_nominal():
        raise ValueError("tau decomposition applies to nominal plants; use build_T_hat")
    novars: tuple = ()
    a = qfilter.to_laurent(novars)
    zlq = laurent_mul({1: AffinePoly.constant(novars, 1.0)},
                      laurent_mul(lfir.to_laurent(novars), a))
    b = {k: -v for k, v in zlq.items()}
    return circle_rationalize_single(a, b, plant.num_laurent(), plant.den_laurent())


@dataclass
class THatData:
    T_hat: PolyMatrix      # over ("x", lam...), affine in eta and the taps
    deg_x: int             # degree of T in (x1, x2) before parameterization
    deg_lambda: int        # homogeneous lambda degree of T
    nu3: AffinePoly


def build_T_hat(qfilter: NoncausalFir, lfir: NoncausalFir,
                plant: UncertainTransferFunction, eta_id: str = "eta") -> THatData:
    """Rationalized robust-rate matrix: with nu-decomposition
    Q[1 - zLP] = (nu1 + j nu2)/nu3 on |z| = 1, the 3x3 matrix

        T = [[eta nu3^2, nu1, nu2], [nu1, 1, 0], [nu2, 0, 1]]

    is PSD iff |Q(1 - zLP)|^2 <= eta.  T is homogenized over the simplex
    variables and the circle is parameterized by one real x (clearing
    (1+x^2)^deg_x, a positive factor)."""
    lam = plant.lambda_vars
    a = qfilter.to_laurent(lam)
    zlq = laurent_mul({1: AffinePoly.constant(lam, 1.0)},
                      laurent_mul(lfir.to_laurent(lam), a))
    b = {k: -v for k, v in zlq.items()}
    nu1, nu2, nu3 = circle_rationalize_xy(a, b, plant.num_laurent(), plant.den_laurent())

    variables = nu3.variables  # ("x1", "x2", lam...)
    one = AffinePoly.constant(variables, 1.0)
    zero = AffinePoly.zero(variables)
    eta_term = (nu3 * nu3).scaled(AffineCoeff.decision(eta_id))
    T = PolyMatrix.from_rows([
        [eta_term, nu1, nu2],
        [nu1, one, zero],
        [nu2, zero, one],
    ])
    deg_x = T.degree_in(["x1", "x2"])
    Tbar = homogenize(T, lam)
    deg_lambda = Tbar.degree_in(lam)
    T_hat = x_parameterize(Tbar)
    return THatData(T_hat=T_hat, deg_x=deg_x, deg_lambda=deg_lambda, nu3=nu3)


# ---------------------------------------------------------------------------
# synthesis


def _eps_coeff(epsilon, eta_id: str = "eta"):
    """(epsilon coefficient, nonneg side constraints, is_variable)."""
    if epsilon is None:
        c = AffineCoeff.decision("eps")
        return c, [AffineCoeff.decision("eps")], True
    return AffineCoeff(float(epsilon)), [], False


def _gain_list(fir: NoncausalFir, gains: Mapping[str, float]) -> list:
    return [decision_value(gains, c) if isinstance(c, str) else float(c)
            for c in fir.coeffs]


def synth_freq_nominal(qfilter: NoncausalFir, lstructure: NoncausalFir,
                       plant: UncertainTransferFunction, epsilon: float | None = None,
                       feas_tol: float = 1e-8, gap_tol: float = 1e-9,
                       extra_nonneg: Sequence[AffineCoeff] = ()) -> SynthesisResult:
    """Minimize the guaranteed rate for a nominal plant.

    The positivity margin defaults to a free (optimized) variable so exact
    deadbeat designs reach gamma = 0; pass a float to pin it.
    """
    tau1, tau2, tau3 = tau_decompose(qfilter, lstructure, plant)
    variables = tau3.variables
    one = AffinePoly.constant(variables, 1.0)
    zero = AffinePoly.zero(variables)
    eps_c, nonneg, eps_var = _eps_coeff(epsilon)
    head = (tau3 * tau3).scaled(AffineCoeff.decision("eta") - eps_c)
    S = PolyMatrix.from_rows([
        [head, tau1, tau2],
        [tau1, one, zero],
        [tau2, zero, one],
    ])
    # Uneven row degrees: the head carries everything while rows 2 and 3 are
    # the identity, so give row 1 the full half-degree basis and the identity
    # rows just the constant.  A shared basis would force zero Gram diagonals
    # against the identity block and leave the SDP without interior.
    d1 = max((head.degree() + 1) // 2, tau1.degree(), tau2.degree())
    row_basis = monomial_basis(variables, [(variables, "graded", d1)])
    const = (0,) * len(variables)
    pairs = [(mono, 0) for mono in row_basis] + [(const, 1), (const, 2)]
    prob = compile_sos(S, {"eta": 1.0}, bases=[pairs], nonneg=nonneg + list(extra_nonneg))
    sol = sdp.solve(prob, feas_tol=feas_tol, gap_tol=gap_tol)
    if not sol.ok:
        raise SolverFailure(f"nominal synthesis failed: {sol.status} ({sol.message})")

    sol, cert, report = sdp.ensure_certified(prob, S, sol)
    opt_filter = lstructure if lstructure.has_decisions() else qfilter
    return SynthesisResult.from_solution(
        sol, cert, report, _gain_list(opt_filter, sol.scalar_values),
        epsilon=float(sol.scalar_values.get("eps", 0.0)) if eps_var else epsilon,
        diagnostics={"n_equalities": prob.n_equalities,
                     "block_dims": list(prob.block_dims)})


def synth_freq_robust(qfilter: NoncausalFir, lstructure: NoncausalFir,
                      plant: UncertainTransferFunction, epsilon: float | None = 1e-3,
                      k_max: int = 5, k_tol: float = 1e-3,
                      feas_tol: float = 1e-8, gap_tol: float = 1e-9,
                      stability_check: bool = True,
                      extra_nonneg: Sequence[AffineCoeff] = ()) -> SynthesisResult:
    """Minimize the guaranteed robust rate over the free taps of L (or Q).

    Solves the SOS program for multiplier powers k = 0, 1, ... and stops
    when the bound improves by less than ``k_tol`` or ``k_max`` is reached.
    The bound is non-increasing in k (each certificate stays valid one level
    up); a numerical increase beyond 1e-6 is recorded in the diagnostics.
    """
    if plant.is_nominal():
        return synth_freq_nominal(qfilter, lstructure, plant, epsilon=epsilon,
                                  feas_tol=feas_tol, gap_tol=gap_tol,
                                  extra_nonneg=extra_nonneg)
    if stability_check:
        report = plant.stability or jury_stability(plant)
        if not report.stable:
            raise UnstablePlant(str(report))

    data = build_T_hat(qfilter, lstructure, plant)
    lam = plant.lambda_vars
    variables = data.T_hat.variables  # ("x", lam...)
    # Every level is invariant under lam_i -> -lam_i (lam enters squared) and
    # under x -> -x with congruence by diag(1, 1, -1): x -> -x maps z to
    # conj(z), which keeps nu1 and nu3 and negates nu2 for real plant and
    # filter coefficients
    flips = [((variables.index(v),), ()) for v in lam] + [((variables.index("x"),), (2,))]

    T_sq = substitute_squares(data.T_hat, lam)
    norm2 = AffinePoly.linear_form(variables, {}, 0.0)
    for v in lam:
        norm2 = norm2 + AffinePoly.variable(variables, v) ** 2
    one_px2 = AffinePoly.constant(variables, 1.0) + AffinePoly.variable(variables, "x") ** 2

    eps_c, nonneg, eps_var = _eps_coeff(epsilon)
    eps_poly = (norm2 ** data.deg_lambda * one_px2 ** data.deg_x).scaled(eps_c)
    base = T_sq - PolyMatrix.identity(3, variables).scaled(eps_poly)

    def compile_level(S, k):
        basis = monomial_basis(variables, [(("x",), "graded", data.deg_x),
                                           (lam, "homogeneous", data.deg_lambda + k)])
        return compile_sos(S, {"eta": 1.0}, bases=sign_classes(kron_pairs(basis, 3), flips),
                           nonneg=nonneg + list(extra_nonneg))

    esc = escalate(base, norm2, compile_level, k_max, k_tol, feas_tol, gap_tol)
    gains = esc.solution.scalar_values
    opt_filter = lstructure if lstructure.has_decisions() else qfilter
    return SynthesisResult.from_solution(
        esc.solution, esc.certificate, esc.report, _gain_list(opt_filter, gains),
        epsilon=float(gains.get("eps", 0.0)) if eps_var else epsilon,
        polya_k=esc.k, k_trace=esc.k_trace,
        diagnostics={"deg_x": data.deg_x, "deg_lambda": data.deg_lambda,
                     **esc.diagnostics})


def alternate_LQ(problem: FreqSynthesisProblem, rounds: int = 2,
                 q_constraints: Mapping[str, tuple] | None = None,
                 q_structure: NoncausalFir | None = None,
                 **solver_opts) -> list:
    """Coordinate descent on (L, Q): odd rounds optimize the learning taps
    with Q pinned, even rounds re-optimize the filter taps (subject to the
    interval bounds in ``q_constraints``) with L pinned.  Each round's
    feasible set contains the previous optimum when the bounds admit the
    incumbent Q, so the bound is non-increasing round to round.  Returns one
    result per round.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    plant = problem.plant
    lstructure = problem.lstructure
    q_init = problem.qfilter
    if q_structure is None:
        q_structure = NoncausalFir(q_init.k_lead, q_init.k_lag,
                                   [f"q{i}" for i in range(-q_init.k_lead, q_init.k_lag + 1)])
    q_constraints = dict(q_constraints or {})

    synth = synth_freq_nominal if plant.is_nominal() else synth_freq_robust
    kwargs = dict(solver_opts)
    if not plant.is_nominal():
        kwargs.setdefault("k_max", problem.k_max)
        kwargs.setdefault("k_tol", problem.k_tol)

    results = []
    q_current = q_init
    for r in range(rounds):
        if r % 2 == 0:
            res = synth(q_current, lstructure, plant, epsilon=problem.epsilon, **kwargs)
            l_current = lstructure.pinned(res.gains)
        else:
            bounds = []
            for qid, (lo, hi) in q_constraints.items():
                bounds.append(AffineCoeff.decision(qid) - float(lo))
                bounds.append(AffineCoeff(float(hi)) - AffineCoeff.decision(qid))
            res = synth(q_structure, l_current, plant, epsilon=problem.epsilon,
                        extra_nonneg=bounds, **kwargs)
            q_current = q_structure.pinned(res.gains)
        results.append(res)
    return results
