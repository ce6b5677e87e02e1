import cmath
import math

import numpy as np
import pytest

from ilc_sos.polyalg import (
    AffinePoly,
    PolyMatrix,
    AffinityError,
    DegenerateDenominator,
    homogenize,
    substitute_squares,
    circle_degree,
    circle_image,
    _check_den_on_circle,
)
from ilc_sos import freqdomain as fd

rng = np.random.default_rng(20240811)


def random_poly(variables, deg, n_terms, decisions=(), scale=1.0):
    p = AffinePoly.zero(variables)
    for _ in range(n_terms):
        exps = rng.integers(0, deg + 1, size=len(variables))
        c = AffinePoly.constant(variables, rng.normal() * scale)
        for d in decisions:
            if rng.random() < 0.5:
                c = c + AffinePoly.decision(variables, d, rng.normal() * scale)
        p = p + AffinePoly.monomial(variables, exps, 1.0) * c
    return p


def terms(p):
    """{exponents: {name: weight}}, "" naming the constant; nonzero weights only."""
    return {tuple(e): {n: w for n, w in zip(("",) + p.decisions, c) if w}
            for e, c in zip(p.exps.tolist(), p.coeffs.tolist())}


def laurent(variables, powers):
    """sum_i c_i z^i over ("z", *variables) from {i: c_i}, c_i over variables."""
    zv = ("z",) + tuple(variables)
    out = AffinePoly.zero(zv)
    for i, c in powers.items():
        out = out + AffinePoly.monomial(zv, (i,) + (0,) * len(variables), 1.0) * c.lift(zv)
    return out


def test_affine_coeff_arithmetic():
    # the affine coefficients 1 + 2 l0 and 3 - l1, as constant polynomials
    a = AffinePoly.constant((), 1.0) + AffinePoly.decision((), "l0", 2.0)
    b = AffinePoly.constant((), 3.0) + AffinePoly.decision((), "l1", -1.0)
    s = a + b
    assert s.decisions == ("l0", "l1")
    assert s.coeffs.tolist() == [[4.0, 2.0, -1.0]]
    assert terms(a * 2.0) == {(): {"": 2.0, "l0": 4.0}}
    assert s.evaluate({}, {"l0": 1.0, "l1": 2.0}) == pytest.approx(4.0 + 2.0 - 2.0)


def test_affinity_guard():
    a = AffinePoly.decision(("x",), "l0")
    b = AffinePoly.decision(("x",), "l1")
    with pytest.raises(AffinityError):
        a * b
    # decision * constant is fine
    assert terms(a * AffinePoly.constant(("x",), 2.0)) == {(0,): {"l0": 2.0}}

    p = AffinePoly.monomial(("x",), (1,), 1.0) * a
    q = AffinePoly.monomial(("x",), (0,), 1.0) * b
    with pytest.raises(AffinityError):
        p * q
    with pytest.raises(AffinityError):
        PolyMatrix.from_rows([[p]]) @ PolyMatrix.from_rows([[q]])


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
    # each column is pruned against its own scale: a large decision weight
    # neither drops the constant nor another decision
    one = AffinePoly.constant(("x",), 1.0)
    l0, l1 = AffinePoly.decision(("x",), "l0"), AffinePoly.decision(("x",), "l1")
    assert terms(one - l0.scaled(1e13)) == {(0,): {"": 1.0, "l0": -1e13}}
    assert terms(l0.scaled(1e12) + l1) == {(0,): {"l0": 1e12, "l1": 1.0}}
    assert terms(one - l0.scaled(1e13) + l0.scaled(1e13)) == {(0,): {"": 1.0}}
    # the same on matrices
    M = PolyMatrix.from_rows([[one]]) - PolyMatrix.from_rows([[l0.scaled(1e13)]])
    assert terms(M[0, 0]) == {(0,): {"": 1.0, "l0": -1e13}}
    assert terms((PolyMatrix.from_rows([[x]]) @ PolyMatrix.from_rows([[one - l0.scaled(1e13)]]))[0, 0]) \
        == {(1,): {"": 1.0, "l0": -1e13}}


def test_pow_and_degree():
    variables = ("a", "b")
    p = AffinePoly.variable(variables, "a") + AffinePoly.variable(variables, "b")
    q = p ** 4
    # binomial coefficients
    assert terms(q)[(2, 2)][""] == pytest.approx(6.0)
    assert q.degree() == 4
    assert q.degree_in(["a"]) == 4


def test_substitute():
    # p(t) = t^2 + 1, t -> 2u - 1
    p = AffinePoly.variable(("t",), "t") ** 2 + AffinePoly.constant(("t",), 1.0)
    img = AffinePoly.variable(("u",), "u").scaled(2.0) - 1.0
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
    # the table product against the entry-by-entry sum of polynomial products
    for i in range(2):
        for j in range(2):
            ref = A[i, 0] * B[0, j] + A[i, 1] * B[1, j] + A[i, 2] * B[2, j]
            assert C[i, j].allclose(ref, 1e-14)
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
    assert set(h.exps.sum(axis=1).tolist()) == {d}


def test_homogenize_matches_term_at_a_time_sum():
    # reference: add each shifted term to a running sum, pruning every step
    variables = ("x", "l1", "l2")
    x, l1, l2 = (AffinePoly.variable(variables, v) for v in variables)
    g = AffinePoly.decision(variables, "gamma", 2.0) + 0.5
    # l1 - l1^2 - l1 l2 homogenizes to zero on the simplex: a cancelling pair
    p = (l1 * x) * g + l1 - l1 * l1 - l1 * l2 + (l2 * l2 * x).scaled(3.0) \
        + AffinePoly.decision(variables, "l0", -1.5)
    target = p.degree_in(("l1", "l2"))
    lin = l1 + l2
    ref = AffinePoly.zero(variables)
    for e, c in zip(p.exps.tolist(), p.coeffs):
        shift = AffinePoly.monomial(variables, e, 1.0) * lin ** (target - e[1] - e[2])
        ref = ref + shift * AffinePoly(variables, [[0, 0, 0]], [c], p.decisions)
    h = homogenize(p, ("l1", "l2"))
    assert terms(h) == terms(ref.pruned())
    # the pair cancels: only the decision term's share is left at l1^2, l1 l2
    assert terms(h)[(0, 2, 0)] == {"l0": -1.5}
    assert terms(h)[(0, 1, 1)] == {"l0": -3.0}


def test_homogenize_matrix_common_degree():
    variables = ("l1", "l2")
    one = AffinePoly.constant(variables, 1.0)
    lin = AffinePoly.variable(variables, "l1")
    M = PolyMatrix.from_rows([[lin * lin, one], [one, lin]])
    H = homogenize(M, variables)
    for p in H.entries:
        assert set(p.exps.sum(axis=1).tolist()) == {2}
    lam = rng.dirichlet((2.0, 1.0))
    pt = {"l1": lam[0], "l2": lam[1]}
    np.testing.assert_allclose(H.evaluate(pt), M.evaluate(pt), atol=1e-12)


def test_homogenize_without_simplex_vars_keeps_every_term():
    # nothing to multiply: even a term pruning would drop (1e-20 next to 1)
    # stays, in a matrix and in a single polynomial
    variables = ("x", "y")
    p = random_poly(variables, 3, 6, decisions=("eta",))
    dust = np.zeros((1, p.coeffs.shape[1]))
    dust[0, 0] = 1e-20
    p = AffinePoly(variables, np.vstack([p.exps, [[4, 4]]]), np.vstack([p.coeffs, dust]),
                   p.decisions)
    M = PolyMatrix.from_rows([[p, AffinePoly.variable(variables, "x")],
                              [AffinePoly.zero(variables), p.scaled(2.0)]])
    assert terms(p.pruned()) != terms(p)
    assert terms(homogenize(p, ())) == terms(p)
    H = homogenize(M, ())
    assert [terms(h) for h in H.entries] == [terms(m) for m in M.entries]


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
    c = laurent(lam, {-2: l1.scaled(0.7),
                      -1: AffinePoly.constant(lam, 0.2) + AffinePoly.decision(lam, "g", -1.5),
                      0: AffinePoly.constant(lam, 1.0) - l1,
                      3: l1.scaled(-0.4)})
    deg = 5  # above max |i| = 3: the image carries spare (1 + x^2) factors
    re, im = circle_image(c, deg)
    assert re.variables == im.variables == ("x", "l1")
    assert re.degree_in(["x"]) <= 2 * deg and im.degree_in(["x"]) <= 2 * deg
    gains = {"g": 0.8}
    for _ in range(20):
        x, l = rng.normal() * 2, rng.normal()
        z = (1 + 1j * x) / (1 - 1j * x)
        want = c.evaluate({"z": z, "l1": l}, gains) * (1 + x * x) ** deg
        pt = {"x": x, "l1": l}
        got = complex(re.evaluate(pt, gains), im.evaluate(pt, gains))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)
    with pytest.raises(ValueError):
        circle_image(c, 2)


def test_circle_degree_cancellations():
    def k(value):
        return AffinePoly.constant((), value)

    # c_2 = c_-2: sin(2 omega) cancels, cos(2 omega) stays
    c = {2: k(0.5), -2: k(0.5), 1: k(1.0), -1: k(0.3), 0: k(2.0)}
    assert circle_degree(laurent((), c)) == 2
    assert circle_degree(laurent((), c), imag=True) == 1
    # c_2 = -c_-2: cos(2 omega) cancels, sin(2 omega) stays
    c[-2] = k(-0.5)
    assert circle_degree(laurent((), c)) == 1
    assert circle_degree(laurent((), c), imag=True) == 2
    # decision coefficients: g (z - 1/z) = 2j g sin(omega) has no cosine part
    g = laurent((), {1: AffinePoly.decision((), "g"), -1: AffinePoly.decision((), "g", -1.0)})
    assert circle_degree(g) == 0
    assert circle_degree(g, imag=True) == 1
    three = laurent((), {0: k(3.0)})
    assert circle_degree(three) == circle_degree(three, imag=True) == 0


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
    scale = max(den.max_magnitude(), 1.0)
    for pt in lambda_points:
        for w in np.linspace(0.0, 2.0 * np.pi, n_omega):
            val = den.evaluate({"z": cmath.exp(1j * w), **pt})
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
    cases = [(laurent(lam, den), stable) for den, stable in cases]
    for den, stable in cases:
        want = _scalar_den_check(den, points)
        assert (want is None) == stable
        assert _den_verdict(den, points) == want
    assert _den_verdict(cases[3][0], points) == "omega=3.1416, point={'l1': 1.0, 'l2': 0.0}"
