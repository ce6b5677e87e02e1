import numpy as np
import pytest

from ilc_sos.polyalg import AffineCoeff, AffinePoly, PolyMatrix
from ilc_sos.soscompiler import (
    BasisDeficiency,
    SdpProblem,
    certificate_from_grams,
    check_certificate,
    compile_sos,
    monomial_basis,
    parity_classes,
)
from ilc_sos import sdp

rng = np.random.default_rng(7)


def test_monomial_basis_graded():
    b = monomial_basis(("x", "y"), [(("x", "y"), "graded", 2)])
    assert b == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_monomial_basis_homogeneous():
    b = monomial_basis(("l1", "l2"), [(("l1", "l2"), "homogeneous", 3)])
    assert b == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert all(sum(e) == 3 for e in b)


def test_monomial_basis_mixed_groups():
    b = monomial_basis(("x", "l1", "l2"),
                       [(("x",), "graded", 2), (("l1", "l2"), "homogeneous", 1)])
    assert len(b) == 3 * 2
    assert all(e[1] + e[2] == 1 and e[0] <= 2 for e in b)


def test_parity_classes():
    b = monomial_basis(("l1", "l2"), [(("l1", "l2"), "homogeneous", 2)])
    classes = parity_classes(b, [0, 1])
    # (0,2),(2,0) are even/even; (1,1) is odd/odd
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 2]
    for cls in classes:
        pars = {tuple(e % 2 for e in mono) for mono in cls}
        assert len(pars) == 1


def sos_value(S, basis, G, m, point, variables):
    v = np.array([np.prod([point[var] ** e for var, e in zip(variables, mono)])
                  for mono in basis])
    V = np.kron(v[:, None], np.eye(m))
    return V.T @ G @ V


def test_compile_and_solve_scalar_quartic():
    # global minimum of x^4 - 2x^2 is -1; SOS bound is tight for univariate
    x = AffinePoly.variable(("x",), "x")
    f = x ** 4 - (x ** 2).scaled(2.0)
    S = PolyMatrix.from_rows([[f - AffinePoly.constant(("x",), AffineCoeff.decision("eta"))]])
    prob = compile_sos(S, {"eta": -1.0})  # maximize eta
    sol = sdp.solve(prob)
    assert sol.ok
    assert sol.scalar_values["eta"] == pytest.approx(-1.0, abs=1e-6)

    cert = certificate_from_grams(prob, sol.gram_values)
    rep = check_certificate(S, {"eta": sol.scalar_values["eta"]}, cert)
    assert rep.passed, str(rep)


def test_compile_matrix_case():
    # [[eta (1+x^2), 2x], [2x, 1+x^2]] is PSD for all x iff eta >= 1
    variables = ("x",)
    x = AffinePoly.variable(variables, "x")
    one = AffinePoly.constant(variables, 1.0)
    eta = AffinePoly.constant(variables, AffineCoeff.decision("eta"))
    S = PolyMatrix.from_rows([
        [eta * (one + x * x), x.scaled(2.0)],
        [x.scaled(2.0), one + x * x],
    ])
    basis = monomial_basis(variables, [(("x",), "graded", 1)])
    prob = compile_sos(S, {"eta": 1.0}, bases=[basis])
    # distinct product monomials {1, x, x^2} times m(m+1)/2 positions
    assert prob.n_equalities == 3 * 3
    sol = sdp.solve(prob)
    assert sol.ok
    assert sol.objective_value == pytest.approx(1.0, abs=1e-6)
    cert = certificate_from_grams(prob, sol.gram_values)
    rep = check_certificate(S, sol.scalar_values, cert)
    assert rep.passed, str(rep)


def test_infeasible_detected():
    S = PolyMatrix.from_rows([[AffinePoly.constant((), -1.0)]])
    prob = compile_sos(S, {})
    sol = sdp.solve(prob)
    assert sol.status in ("infeasible", "numerical_failure")
    assert sol.status == "infeasible"


def test_basis_deficiency():
    x = AffinePoly.variable(("x",), "x")
    S = PolyMatrix.from_rows([[x ** 4 + 1.0]])
    basis = [(0,)]  # cannot produce x^4
    with pytest.raises(BasisDeficiency):
        compile_sos(S, {}, bases=[basis])


def test_gram_round_trip_exact():
    # random PSD Gram -> polynomial matrix -> coefficient match at 1e-12
    variables = ("x", "y")
    m = 2
    basis = monomial_basis(variables, [(variables, "graded", 2)])
    n = len(basis) * m
    F = rng.normal(size=(n, n))
    G0 = F @ F.T

    entries = [[AffinePoly.zero(variables) for _ in range(m)] for _ in range(m)]
    for i, mi in enumerate(basis):
        for j, mj in enumerate(basis):
            mu = tuple(a + b for a, b in zip(mi, mj))
            blk = G0[i * m:(i + 1) * m, j * m:(j + 1) * m]
            for r in range(m):
                for s in range(m):
                    entries[r][s] = entries[r][s] + AffinePoly.monomial(variables, mu, blk[r, s])
    S = PolyMatrix.from_rows(entries)
    assert S.is_symmetric(1e-12)

    prob = compile_sos(S, {}, bases=[basis])
    cert = certificate_from_grams(prob, [G0])
    rep = check_certificate(S, {}, cert, residual_tol=1e-12)
    assert rep.passed
    assert rep.residual <= 1e-12 * rep.scale


def test_certificate_rejects_perturbation():
    x = AffinePoly.variable(("x",), "x")
    S = PolyMatrix.from_rows([[x * x + 1.0]])
    prob = compile_sos(S, {})
    sol = sdp.solve(prob)
    assert sol.ok
    G = sol.gram_values[0].copy()
    G[0, 0] += 1e-3
    cert = certificate_from_grams(prob, [G])
    rep = check_certificate(S, {}, cert)
    assert not rep.passed


def test_serialize_round_trip():
    x = AffinePoly.variable(("x",), "x")
    eta = AffinePoly.constant(("x",), AffineCoeff.decision("eta"))
    S = PolyMatrix.from_rows([[x ** 2 - x.scaled(0.6) + eta]])
    prob = compile_sos(S, {"eta": 1.0})
    text = prob.serialize()
    back = SdpProblem.parse(text)
    assert back.block_dims == prob.block_dims
    assert back.free_ids == prob.free_ids
    assert back.n_equalities == prob.n_equalities
    s1 = sdp.solve(prob)
    s2 = sdp.solve(back)
    assert s1.ok and s2.ok
    assert s1.objective_value == pytest.approx(s2.objective_value, abs=1e-12)


def test_nonneg_side_constraint():
    # minimize eta s.t. eta - 0.25 >= 0  (via the 1x1 block path)
    x = AffinePoly.variable(("x",), "x")
    eta_c = AffineCoeff.decision("eta")
    S = PolyMatrix.from_rows([[x * x + AffinePoly.constant(("x",), eta_c)]])
    prob = compile_sos(S, {"eta": 1.0}, nonneg=[eta_c - 0.25])
    sol = sdp.solve(prob)
    assert sol.ok
    assert sol.scalar_values["eta"] == pytest.approx(0.25, abs=1e-6)
