"""Transfer-function domain: uncertain plants, stability screen, synthesis.

The plant is a strictly proper discrete transfer function whose numerator
and denominator coefficients are polynomials in simplex uncertainty
variables (``lam1 + ... + lams = 1``, all nonnegative).  The learning update

    u_{j+1}(z) = Q(z) [ u_j(z) + L(z) e_j(z) ]

contracts the tracking error monotonically for every admissible uncertainty
iff  sup_{lam, |z|=1} |Q(z)(1 - z L(z) P(z, lam))| < 1.  A bound gamma on
that sup, linear in a Schur form, is minimized over the free taps of L for
a fixed Q through a sum-of-squares program: map the circle to one real x
through z = (1 + jx)/(1 - jx) and homogenize in lam; :func:`result.escalate`,
shared with the lifted domain, substitutes lam -> lam^2 to drop the
nonnegativity constraints and climbs a "multiply by ||lam||^2k" relaxation
ladder until the bound stops improving.  A positivity margin eps certifies
the block with slack eps diag(E, S, S), its gamma-coefficient, and costs
exactly eps on gamma.  A plant without uncertainty is the case lam = (): its
3x3 polynomial matrix inequality in x is exact, so only level 0 is solved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .polyalg import (
    AffinePoly,
    PolyMatrix,
    _check_den_on_circle,
    circle_degree,
    circle_image,
    homogenize,
    simplex_mesh,
)
from .result import SynthesisResult, decision_value, escalate


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
        for name in ("k_lead", "k_lag"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be at least 0")
        if len(self.coeffs) != self.k_lead + self.k_lag + 1:
            raise ValueError("coeffs length must be k_lead + k_lag + 1")

    @classmethod
    def unity(cls) -> "NoncausalFir":
        return cls(0, 0, [1.0])

    @classmethod
    def causal_decision(cls, order: int, prefix: str = "l") -> "NoncausalFir":
        return cls(0, order, [f"{prefix}{i}" for i in range(order + 1)])

    def taps(self):
        """Yields (i, coeff) with the tap multiplying z**(-i)."""
        for pos, c in enumerate(self.coeffs):
            yield pos - self.k_lead, c

    def has_decisions(self) -> bool:
        return any(isinstance(c, str) for c in self.coeffs)

    def to_laurent(self, variables: Sequence[str]) -> AffinePoly:
        """sum_i tap_i z^-i over ("z", *variables)."""
        zv = ("z",) + tuple(variables)
        out = AffinePoly.zero(zv)
        for i, c in self.taps():
            z_i = AffinePoly.monomial(zv, (-i,) + (0,) * len(variables), 1.0)
            out = out + z_i * (AffinePoly.decision(zv, c) if isinstance(c, str) else float(c))
        return out

    def numeric(self, gains: Mapping[str, float] | None = None) -> dict:
        """Taps as {i: float}, decisions resolved through ``gains``."""
        out = {}
        for i, c in self.taps():
            out[i] = float(gains[c]) if isinstance(c, str) else float(c)
        return out

    def response(self, z: np.ndarray, gains: Mapping[str, float] | None = None) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for i, c in self.numeric(gains).items():
            out += c * z ** (-i)
        return out


# ---------------------------------------------------------------------------
# plants


def _z_series(coeffs: Sequence[AffinePoly], lam: tuple) -> AffinePoly:
    """sum_i coeffs[i] z^i over ("z", *lam), for decision-free coefficients."""
    exps = [np.zeros((0, 1 + len(lam)), dtype=np.int64)]
    exps += [np.column_stack([np.full(len(c.exps), i), c.exps]) for i, c in enumerate(coeffs)]
    return AffinePoly(("z",) + lam, np.concatenate(exps),
                      np.concatenate([np.zeros((0, 1))] + [c.coeffs for c in coeffs]))


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

        num = [to_poly(c) for c in num] or [to_poly(0.0)]  # an empty numerator is 0
        den = [to_poly(c) for c in den]
        while len(num) > 1 and num[-1].is_zero():
            num.pop()
        if len(den) < 2:
            raise ValueError("denominator must have degree >= 1")
        lead = den[-1]
        if lead.has_decisions() or lead.degree() > 0:
            raise ValueError("leading denominator coefficient must be a nonzero constant")
        lead_val = lead.evaluate(dict.fromkeys(lambda_vars, 0.0))
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

    def num_laurent(self) -> AffinePoly:
        return _z_series(self.num, self.lambda_vars)

    def den_laurent(self) -> AffinePoly:
        return _z_series(self.den + [AffinePoly.constant(self.lambda_vars, 1.0)], self.lambda_vars)

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
        images[tv] = sum((AffinePoly.variable(lam_vars, lv).scaled(vertices[i, j])
                          for i, lv in enumerate(lam_vars)), AffinePoly.zero(lam_vars))

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
    a dense lambda mesh (the single point of a plant without uncertainty);
    attach and return the worst-case report.

    First and second order use the closed-form conditions (|a0| < 1 and
    |a1| < 1 + a0), whose margins are concave in affine coefficients, so the
    mesh check is exact for vertex-affine plants; higher orders run the
    Schur-Cohn table per sample.
    """
    lam_vars = plant.lambda_vars
    d = len(lam_vars)
    pts = simplex_mesh(d, resolution)  # holds the vertices
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


@dataclass
class THatData:
    T_hat: PolyMatrix      # over ("x", lam...), affine in gamma and the taps
    deg_x: int             # degree of T in (Re z, Im z)
    deg_lambda: int        # homogeneous lambda degree of T
    nu3: AffinePoly        # (1 + x^2)^deg_x |den(z(x))|^2 over ("x", lam...)


def build_T_hat(qfilter: NoncausalFir, lfir: NoncausalFir,
                plant: UncertainTransferFunction) -> THatData:
    """Rationalized robust-rate matrix.  On |z| = 1, with conj(z) = 1/z,

        Q[1 - zLP] = (a den + b num) den(1/z) / (den den(1/z)),

    a = Q, b = -zLQ; at z = (1 + jx)/(1 - jx), both sides times
    (1 + x^2)^deg_x give nu1 + j nu2 over nu3 (see :func:`circle_image`).
    With S = (1 + x^2)^deg_x and E = nu3^2 / S, the 3x3 matrix

        T = [[gamma E, nu1, nu2], [nu1, gamma S, 0], [nu2, 0, gamma S]]

    is PSD iff gamma^2 E S >= nu1^2 + nu2^2 (S > 0): |Q(1 - zLP)| <= gamma.
    deg_x is the degree of T in (Re z, Im z), the smallest that clears every
    entry; T is homogenized over the simplex variables."""
    lam = plant.lambda_vars
    den = plant.den_laurent()
    # the simplex vertices and the barycenter ({} alone when lam = ())
    _check_den_on_circle(den, [{v: float(v == w) for v in lam} for w in lam]
                         + [{v: 1.0 / len(lam) for v in lam}])

    a = qfilter.to_laurent(lam)
    zv = den.variables
    b = -(AffinePoly.variable(zv, "z") * (lfir.to_laurent(lam) * a))
    den_conj = AffinePoly(zv, den.exps * ([-1] + [1] * len(lam)), den.coeffs)  # z -> 1/z
    numer = (a * den + b * plant.num_laurent()) * den_conj
    den_sq = den * den_conj
    deg_x = max(2 * circle_degree(den_sq), circle_degree(numer),
                circle_degree(numer, imag=True))

    nu1, nu2 = circle_image(numer, deg_x)
    nu3 = circle_image(den_sq, deg_x)[0]
    variables = nu3.variables
    gamma = AffinePoly.decision(variables, "gamma")
    E = circle_image(den_sq * den_sq, deg_x)[0] * gamma
    x = AffinePoly.variable(variables, "x")
    S = (AffinePoly.constant(variables, 1.0) + x * x) ** deg_x * gamma
    zero = AffinePoly.zero(variables)
    T_hat = homogenize(PolyMatrix.from_rows([
        [E, nu1, nu2],
        [nu1, S, zero],
        [nu2, zero, S],
    ]), lam)
    return THatData(T_hat=T_hat, deg_x=deg_x, deg_lambda=T_hat.degree_in(lam), nu3=nu3)


# ---------------------------------------------------------------------------
# synthesis


def _gain_list(fir: NoncausalFir, gains: Mapping[str, float]) -> list:
    return [decision_value(gains, c) if isinstance(c, str) else float(c)
            for c in fir.coeffs]


def synth_freq_robust(qfilter: NoncausalFir, lstructure: NoncausalFir,
                      plant: UncertainTransferFunction, epsilon: float | None = 1e-3,
                      k_max: int = 5, k_tol: float = 1e-3) -> SynthesisResult:
    """Minimize the guaranteed robust rate over the free taps of L for a
    fixed, decision-free Q.

    Solves the SOS program for multiplier powers k = 0, 1, ... and stops
    when the bound improves by less than ``k_tol`` or ``k_max`` is reached.
    The bound is non-increasing in k (each certificate stays valid one level
    up); a numerical increase beyond 1e-6 is recorded in the diagnostics.
    A plant without uncertainty (lam = ()) has an exact program, solved at
    level 0 only.  An unstable plant raises :class:`UnstablePlant`.
    """
    if qfilter.has_decisions():
        raise ValueError("Q filter must be decision-free")
    report = plant.stability or jury_stability(plant)
    if not report.stable:
        raise UnstablePlant(str(report))

    data = build_T_hat(qfilter, lstructure, plant)
    # x -> -x with congruence by diag(1, 1, -1) leaves every level invariant:
    # it maps z to conj(z), which keeps nu1 and nu3 and negates nu2 for real
    # plant and filter coefficients (x is variable 0)
    res = escalate(data.T_hat, plant.lambda_vars, epsilon, k_max, k_tol,
                   lambda gains: _gain_list(lstructure, gains),
                   groups=[(("x",), "graded", data.deg_x)], flips=[((0,), (2,))])
    res.diagnostics["deg_x"] = data.deg_x
    return res


def synth_freq_nominal(qfilter: NoncausalFir, lstructure: NoncausalFir,
                       plant: UncertainTransferFunction, epsilon: float | None = None,
                       **kwargs) -> SynthesisResult:
    """:func:`synth_freq_robust` without a positivity margin by default.

    A plant without uncertainty has an exact program, and a margin would
    only add eps to gamma: exact deadbeat designs reach gamma = 0 without
    it.  Pass a float to pin the margin."""
    return synth_freq_robust(qfilter, lstructure, plant, epsilon=epsilon, **kwargs)
