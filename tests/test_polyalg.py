import cmath
import math

import numpy as np
import pytest

from ilc_sos.polyalg import (
    AffineCoeff,
    AffinePoly,
    PolyMatrix,
    AffinityError,
    DegenerateDenominator,
    homogenize,
    substitute_squares,
    circle_degree,
    circle_image,
    laurent_eval,
    _check_den_on_circle,
)
from ilc_sos import freqdomain as fd

rng = np.random.default_rng(20240811)


def random_poly(variables, deg, n_terms, decisions=(), scale=1.0):
    p = AffinePoly.zero(variables)
    for _ in range(n_terms):
        exps = rng.integers(0, deg + 1, size=len(variables))
        c = AffineCoeff(rng.normal() * scale)
        for d in decisions:
            if rng.random() < 0.5:
                c = c + AffineCoeff.decision(d, rng.normal() * scale)
        p = p + AffinePoly.monomial(variables, exps, c)
    return p


def test_affine_coeff_arithmetic():
    a = AffineCoeff(1.0, {"l0": 2.0})
    b = AffineCoeff(3.0, {"l1": -1.0})
    s = a + b
    assert s.const == 4.0
    assert s.terms == {"l0": 2.0, "l1": -1.0}
    assert (a * 2.0).terms == {"l0": 4.0}
    assert s.evaluate({"l0": 1.0, "l1": 2.0}) == pytest.approx(4.0 + 2.0 - 2.0)


def test_affinity_guard():
    a = AffineCoeff(0.0, {"l0": 1.0})
    b = AffineCoeff(0.0, {"l1": 1.0})
    with pytest.raises(AffinityError):
        a * b
    # decision * constant is fine
    assert (a * AffineCoeff(2.0)).terms == {"l0": 2.0}

    p = AffinePoly.monomial(("x",), (1,), a)
    q = AffinePoly.monomial(("x",), (0,), b)
    with pytest.raises(AffinityError):
        p * q


def test_poly_mul_matches_numeric():
    variables = ("x", "y")
    for _ in range(20):
        p = random_poly(variables, 3, 5)
        q = random_poly(variables, 3, 5)
        prod = p * q
        pt = {"x": rng.normal(), "y": rng.normal()}
        assert prod.evaluate(pt) == pytest.approx(p.evaluate(pt) * q.evaluate(pt), rel=1e-10, abs=1e-10)


def test_exact_cancellation_pruned():
    x = AffinePoly.variable(("x",), "x")
    p = x.scaled(0.1) + x.scaled(0.2) - x.scaled(0.3)
    assert p.is_zero()


def test_pow_and_degree():
    variables = ("a", "b")
    p = AffinePoly.variable(variables, "a") + AffinePoly.variable(variables, "b")
    q = p ** 4
    # binomial coefficients
    assert q.coeff((2, 2)).const == pytest.approx(6.0)
    assert q.degree() == 4
    assert q.degree_in(["a"]) == 4


def test_substitute():
    # p(t) = t^2 + 1, t -> 2u - 1
    p = AffinePoly.variable(("t",), "t") ** 2 + AffinePoly.constant(("t",), 1.0)
    img = AffinePoly.linear_form(("u",), {"u": 2.0}, -1.0)
    q = p.substitute({"t": img}, ("u",))
    for u in (-1.3, 0.0, 0.7):
        assert q.evaluate({"u": u}) == pytest.approx((2 * u - 1) ** 2 + 1)


def test_evaluate_batch():
    p = random_poly(("x", "y"), 4, 8, decisions=("l0",))
    pts = rng.normal(size=(17, 2))
    vals = p.evaluate_batch(pts, {"l0": 0.3})
    for k in range(17):
        assert vals[k] == pytest.approx(
            p.evaluate({"x": pts[k, 0], "y": pts[k, 1]}, {"l0": 0.3}), rel=1e-10, abs=1e-12
        )


def test_matrix_ops_numeric():
    variables = ("s",)
    A = PolyMatrix.from_rows([
        [random_poly(variables, 2, 3) for _ in range(3)] for _ in range(2)
    ])
    B = PolyMatrix.from_rows([
        [random_poly(variables, 2, 3) for _ in range(2)] for _ in range(3)
    ])
    C = A @ B
    pt = {"s": 0.37}
    np.testing.assert_allclose(C.evaluate(pt), A.evaluate(pt) @ B.evaluate(pt), rtol=1e-10)
    np.testing.assert_allclose((A + A).evaluate(pt), 2 * A.evaluate(pt), rtol=1e-12)
    np.testing.assert_allclose(A.T.evaluate(pt), A.evaluate(pt).T, rtol=1e-12)


def test_from_blocks_and_symmetry():
    variables = ("s",)
    W = random_poly(variables, 2, 3)
    one = AffinePoly.constant(variables, 1.0)
    M = PolyMatrix.from_blocks([
        [PolyMatrix.from_rows([[one]]), PolyMatrix.from_rows([[W]])],
        [PolyMatrix.from_rows([[W]]), PolyMatrix.identity(1, variables)],
    ])
    assert M.rows == M.cols == 2
    assert M.is_symmetric()
    M[0, 1] = W + one
    assert not M.is_symmetric()


# ---------------------------------------------------------------------------
# homogenize / substitute_squares


def test_homogenize_preserves_simplex_values():
    variables = ("l1", "l2")
    p = random_poly(variables, 3, 6, decisions=("eta",))
    h = homogenize(p, variables)
    assign = {"eta": 0.7}
    for _ in range(10):
        lam = rng.dirichlet((1.0, 1.0))
        pt = {"l1": lam[0], "l2": lam[1]}
        assert h.evaluate(pt, assign) == pytest.approx(p.evaluate(pt, assign), rel=1e-9, abs=1e-9)
    # homogeneous of the max degree
    d = p.degree_in(variables)
    for e in h.terms:
        assert sum(e) == d


def test_homogenize_matches_term_at_a_time_sum():
    # reference: add each shifted term to a running sum, pruning every step
    variables = ("x", "l1", "l2")
    x, l1, l2 = (AffinePoly.variable(variables, v) for v in variables)
    g = AffineCoeff.decision("gamma", 2.0) + 0.5
    # l1 - l1^2 - l1 l2 homogenizes to zero on the simplex: a cancelling pair
    p = (l1 * x).scaled(g) + l1 - l1 * l1 - l1 * l2 + (l2 * l2 * x).scaled(3.0) \
        + AffinePoly.constant(variables, AffineCoeff.decision("l0", -1.5))
    target = p.degree_in(("l1", "l2"))
    lin = l1 + l2
    ref = AffinePoly.zero(variables)
    for e, c in p.terms.items():
        shift = AffinePoly.monomial(variables, e, 1.0) * lin ** (target - e[1] - e[2])
        ref = ref + shift.scaled(c)
    h = homogenize(p, ("l1", "l2"))
    assert h.terms == ref.pruned().terms
    # the pair cancels: only the decision term's share is left at l1^2, l1 l2
    assert h.terms[(0, 2, 0)] == AffineCoeff.decision("l0", -1.5)
    assert h.terms[(0, 1, 1)] == AffineCoeff.decision("l0", -3.0)


def test_homogenize_matrix_common_degree():
    variables = ("l1", "l2")
    one = AffinePoly.constant(variables, 1.0)
    lin = AffinePoly.variable(variables, "l1")
    M = PolyMatrix.from_rows([[lin * lin, one], [one, lin]])
    H = homogenize(M, variables)
    for p in H.entries:
        for e in p.terms:
            assert sum(e) == 2
    lam = rng.dirichlet((2.0, 1.0))
    pt = {"l1": lam[0], "l2": lam[1]}
    np.testing.assert_allclose(H.evaluate(pt), M.evaluate(pt), atol=1e-12)


def test_homogenize_without_simplex_vars_keeps_every_term():
    # nothing to multiply: even a term pruning would drop (1e-20 next to 1)
    # stays, in a matrix and in a single polynomial
    variables = ("x", "y")
    p = random_poly(variables, 3, 6, decisions=("eta",))
    p = AffinePoly(variables, {**p.terms, (4, 4): AffineCoeff(1e-20)})
    M = PolyMatrix.from_rows([[p, AffinePoly.variable(variables, "x")],
                              [AffinePoly.zero(variables), p.scaled(2.0)]])
    assert p.pruned().terms != p.terms
    assert homogenize(p, ()).terms == p.terms
    H = homogenize(M, ())
    assert [h.terms for h in H.entries] == [m.terms for m in M.entries]


def test_substitute_squares_pointwise():
    p = random_poly(("x", "l1"), 3, 6)
    q = substitute_squares(p, ["l1"])
    for _ in range(5):
        x, l = rng.normal(), rng.normal()
        assert q.evaluate({"x": x, "l1": l}) == pytest.approx(
            p.evaluate({"x": x, "l1": l * l}), rel=1e-10, abs=1e-10
        )


# ---------------------------------------------------------------------------
# circle rationalization


# L = l0 + lg1 z^-1
L_TWO_TAP = fd.NoncausalFir(0, 1, ["l0", "lg1"])


def test_circle_image_pointwise():
    lam = ("l1",)
    l1 = AffinePoly.variable(lam, "l1")
    c = {-2: l1.scaled(0.7),
         -1: AffinePoly.constant(lam, AffineCoeff(0.2, {"g": -1.5})),
         0: AffinePoly.constant(lam, 1.0) - l1,
         3: l1.scaled(-0.4)}
    deg = 5  # above max |i| = 3: the image carries spare (1 + x^2) factors
    re, im = circle_image(c, deg, ("x",) + lam)
    assert re.variables == im.variables == ("x", "l1")
    assert re.degree_in(["x"]) <= 2 * deg and im.degree_in(["x"]) <= 2 * deg
    gains = {"g": 0.8}
    for _ in range(20):
        x, l = rng.normal() * 2, rng.normal()
        z = (1 + 1j * x) / (1 - 1j * x)
        want = laurent_eval(c, z, {"l1": l}, gains) * (1 + x * x) ** deg
        pt = {"x": x, "l1": l}
        got = complex(re.evaluate(pt, gains), im.evaluate(pt, gains))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)
    with pytest.raises(ValueError):
        circle_image(c, 2, ("x",) + lam)


def test_circle_degree_cancellations():
    def k(value):
        return AffinePoly.constant((), value)

    # c_2 = c_-2: sin(2 omega) cancels, cos(2 omega) stays
    c = {2: k(0.5), -2: k(0.5), 1: k(1.0), -1: k(0.3), 0: k(2.0)}
    assert circle_degree(c) == 2
    assert circle_degree(c, imag=True) == 1
    # c_2 = -c_-2: cos(2 omega) cancels, sin(2 omega) stays
    c[-2] = k(-0.5)
    assert circle_degree(c) == 1
    assert circle_degree(c, imag=True) == 2
    # decision coefficients: g (z - 1/z) = 2j g sin(omega) has no cosine part
    g = {1: k(AffineCoeff.decision("g")), -1: k(AffineCoeff.decision("g", -1.0))}
    assert circle_degree(g) == 0
    assert circle_degree(g, imag=True) == 1
    assert circle_degree({0: k(3.0)}) == circle_degree({0: k(3.0)}, imag=True) == 0


def test_circle_rationalize_xy_identity():
    lam = ("l1", "l2")
    one = AffinePoly.constant(lam, 1.0)
    lin1 = AffinePoly.variable(lam, "l1")
    lin2 = AffinePoly.variable(lam, "l2")
    plant = fd.UncertainTransferFunction.from_coeffs(
        [one.scaled(-0.8), lin1.scaled(2.0) + lin2.scaled(0.5)],
        [one.scaled(0.05), lin1.scaled(0.5) - lin2.scaled(0.7), one], lam)
    data = fd.build_T_hat(fd.NoncausalFir.unity(), L_TWO_TAP, plant)
    assert data.T_hat.variables == ("x", "l1", "l2")
    assert not data.nu3.has_decisions()

    gains = {"l0": 0.3, "lg1": -0.1, "gamma": 0.0}
    for _ in range(15):
        w = rng.uniform(0, 2 * np.pi)
        lpt = rng.dirichlet((1.0, 1.0))
        z = cmath.exp(1j * w)
        point = {"x": math.tan(w / 2), "l1": lpt[0], "l2": lpt[1]}
        lam_pt = {"l1": lpt[0], "l2": lpt[1]}
        P = plant.response(z, lam_pt)
        L = gains["l0"] + gains["lg1"] * z ** (-1)
        F = 1 - z * L * P
        T = data.T_hat.evaluate(point, gains)
        n3 = data.nu3.evaluate(point)
        assert n3 > 0
        assert complex(T[0, 1], T[0, 2]) / n3 == pytest.approx(F, rel=1e-9, abs=1e-9)


def test_circle_rationalize_single_rejects_circle_pole():
    # the plant without uncertainty 1/(z + 1) has its pole at z = -1
    plant = fd.UncertainTransferFunction.from_coeffs([1.0], [1.0, 1.0], ())
    with pytest.raises(DegenerateDenominator):
        fd.build_T_hat(fd.NoncausalFir.unity(), L_TWO_TAP, plant)


def test_circle_rationalize_xy_rejects_uncertain_circle_pole():
    lam = ("l1", "l2")
    one = AffinePoly.constant(lam, 1.0)
    # den = z - l1: hits the circle at the vertex l1 = 1
    plant = fd.UncertainTransferFunction.from_coeffs(
        [one], [-AffinePoly.variable(lam, "l1"), one], lam)
    with pytest.raises(DegenerateDenominator):
        fd.build_T_hat(fd.NoncausalFir.unity(), L_TWO_TAP, plant)


def _scalar_den_check(den, lambda_points, n_omega=721, tol=1e-9):
    """The unit-circle denominator check as a scalar double loop."""
    scale = max(max((p.max_magnitude() for p in den.values()), default=0.0), 1.0)
    for pt in lambda_points:
        for w in np.linspace(0.0, 2.0 * np.pi, n_omega):
            val = laurent_eval(den, cmath.exp(1j * w), pt)
            if abs(val) < tol * scale:
                return f"omega={w:.4f}, point={dict(pt)}"
    return None


def _den_verdict(den, lambda_points):
    try:
        _check_den_on_circle(den, lambda_points)
    except DegenerateDenominator as exc:
        return str(exc).split(" at ", 1)[1]
    return None


def test_den_on_circle_check_matches_scalar_loop():
    lam = ("l1", "l2")
    l1, l2 = (AffinePoly.variable(lam, v) for v in lam)
    one = AffinePoly.constant(lam, 1.0)
    points = [{"l1": 1.0, "l2": 0.0}, {"l1": 0.0, "l2": 1.0}, {"l1": 0.5, "l2": 0.5}]
    cases = [
        # stable: roots 0.5 l1 - 0.3 l2 and z^2 - 0.6 z + 0.08 (Laurent: z^-1 factor)
        ({1: one, 0: -(l1.scaled(0.5) - l2.scaled(0.3))}, True),
        ({1: one, 0: one.scaled(-0.6), -1: one.scaled(0.08)}, True),
        # z - l1 - l2 has its root at z = 1 at every point
        ({1: one, 0: -(l1 + l2)}, False),
        # z + l1 + 0.2 l2: root on the circle only at the first vertex, at omega = pi
        ({1: one, 0: l1 + l2.scaled(0.2)}, False),
    ]
    r_above = 1.0 + 1.5e-9     # |1 - r| just above tol * scale (scale = r)
    r_below = 1.0 + 0.5e-9
    cases += [({1: one, 0: one.scaled(-r_above)}, True),
              ({1: one, 0: one.scaled(-r_below)}, False)]
    for den, stable in cases:
        want = _scalar_den_check(den, points)
        assert (want is None) == stable
        assert _den_verdict(den, points) == want
    assert _den_verdict(cases[3][0], points) == "omega=3.1416, point={'l1': 1.0, 'l2': 0.0}"
