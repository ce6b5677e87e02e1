import itertools
from fractions import Fraction

import numpy as np
import pytest

from ilc_sos.polyalg import AffinePoly, PolyMatrix, compositions, substitute_squares
from ilc_sos.soscompiler import (
    BasisDeficiency,
    SdpProblem,
    certificate_from_grams,
    check_certificate,
    compile_sos,
    kron_pairs,
    monomial_basis,
    sign_classes,
)
from ilc_sos import cli
from ilc_sos import freqdomain as fd
from ilc_sos import result
from ilc_sos import soscompiler
from ilc_sos import sdp
from ilc_sos import timedomain as td

rng = np.random.default_rng(7)


def test_monomial_basis_graded():
    b = monomial_basis(("x", "y"), [(("x", "y"), "graded", 2)])
    assert b.dtype == np.int64
    assert b.tolist() == [[0, 0], [0, 1], [1, 0], [0, 2], [1, 1], [2, 0]]


def test_monomial_basis_homogeneous():
    b = monomial_basis(("l1", "l2"), [(("l1", "l2"), "homogeneous", 3)])
    assert b.tolist() == [[0, 3], [1, 2], [2, 1], [3, 0]]
    assert (b.sum(axis=1) == 3).all()


def test_monomial_basis_mixed_groups():
    b = monomial_basis(("x", "l1", "l2"),
                       [(("x",), "graded", 2), (("l1", "l2"), "homogeneous", 1)])
    assert len(b) == 3 * 2
    assert all(e[1] + e[2] == 1 and e[0] <= 2 for e in b.tolist())


@pytest.mark.parametrize("groups", [
    pytest.param([(("x",), "graded", 1), (("x", "y"), "graded", 1)], id="repeated"),
    pytest.param([(("x",), "graded", 1)], id="missing"),
    pytest.param([(("x", "y", "z"), "graded", 1)], id="unknown"),
])
def test_monomial_basis_rejects_bad_groups(groups):
    with pytest.raises(ValueError):
        monomial_basis(("x", "y"), groups)


@pytest.mark.parametrize("total, parts", [(0, 0), (2, 0), (0, 1), (3, 1), (0, 3), (4, 3),
                                          (3, 4), (5, 2)])
def test_compositions_match_itertools(total, parts):
    want = [list(t) for t in itertools.product(range(total + 1), repeat=parts)
            if sum(t) == total]
    got = compositions(total, parts)
    assert got.shape == (len(want), parts)
    assert got.tolist() == want


def _loop_monomial_basis(variables, groups):
    """The list-of-tuples basis: a recursive enumerator per group, the
    cross product in dicts, sorted by (degree, exponents)."""
    def group_exps(names, mode, degree):
        k = len(names)
        out = []

        def rec(prefix, remaining):
            if len(prefix) == k - 1:
                if mode == "homogeneous":
                    out.append(prefix + (remaining,))
                else:
                    out.extend(prefix + (d,) for d in range(remaining + 1))
                return
            for d in range(remaining + 1):
                rec(prefix + (d,), remaining - d)

        if k == 0:
            return [()]
        rec((), degree)
        return out

    basis = [{}]
    for names, mode, deg in groups:
        basis = [dict(b, **dict(zip(names, ex))) for b in basis
                 for ex in group_exps(tuple(names), mode, deg)]
    return sorted({tuple(b.get(v, 0) for v in variables) for b in basis},
                  key=lambda t: (sum(t), t))


def _loop_sign_classes(pairs, flips):
    """The list-of-tuples split: buckets of (monomial, coordinate) pairs by
    sign pattern, sorted by pattern."""
    buckets = {}
    for mono, c in pairs:
        key = tuple((sum(mono[i] for i in idx) + (c in coords)) % 2 for idx, coords in flips)
        buckets.setdefault(key, []).append((mono, c))
    return [buckets[k] for k in sorted(buckets)]


def _as_pairs(block):
    mono, coord = block
    return [(tuple(e), c) for e, c in zip(mono.tolist(), coord.tolist())]


@pytest.mark.parametrize("variables, groups", [
    (("x", "y"), [(("x", "y"), "graded", 3)]),
    (("l1", "l2", "l3"), [(("l1", "l2", "l3"), "homogeneous", 4)]),
    (("x", "l1", "l2"), [(("x",), "graded", 2), (("l1", "l2"), "homogeneous", 3)]),
    (("l1", "x", "l2"), [(("l2", "l1"), "homogeneous", 2), (("x",), "graded", 3)]),
    (("x",), [(("x",), "graded", 0)]),
    ((), [((), "homogeneous", 0)]),
    ((), []),
])
def test_basis_and_sign_classes_match_loop_references(variables, groups):
    basis = monomial_basis(variables, groups)
    want = _loop_monomial_basis(variables, groups)
    assert basis.shape == (len(want), len(variables))
    assert [tuple(e) for e in basis.tolist()] == want
    n = len(variables)
    for m in (1, 3):
        block = kron_pairs(basis, m)
        pairs = [(mono, r) for mono in want for r in range(m)]
        assert _as_pairs(block) == pairs
        for flips in ([], [((i,), ()) for i in range(n)],
                      [((i,), ()) for i in range(n)] + [((0,), (m - 1,))] * bool(n),
                      [(tuple(range(n)), (0,))]):
            got = sign_classes(block, flips)
            assert [_as_pairs(c) for c in got] == _loop_sign_classes(pairs, flips)


def test_sign_classes():
    b = monomial_basis(("l1", "l2"), [(("l1", "l2"), "homogeneous", 2)])
    classes = sign_classes(kron_pairs(b, 1), [((0,), ()), ((1,), ())])
    # (0,2),(2,0) are even/even; (1,1) is odd/odd
    sizes = sorted(len(coord) for _, coord in classes)
    assert sizes == [1, 2]
    for mono, _ in classes:
        assert len({tuple(e) for e in (mono % 2).tolist()}) == 1
    # x -> -x with coordinate 2 negated: parity of x XOR (coordinate == 2)
    xb = monomial_basis(("x",), [(("x",), "graded", 2)])
    split = sign_classes(kron_pairs(xb, 3), [((0,), (2,))])
    assert [(mono.tolist(), coord.tolist()) for mono, coord in split] == [
        ([[0], [0], [1], [2], [2]], [0, 1, 2, 0, 1]),
        ([[0], [1], [1], [2]], [2, 0, 1, 2])]


def sos_value(S, basis, G, m, point, variables):
    v = np.array([np.prod([point[var] ** e for var, e in zip(variables, mono)])
                  for mono in basis])
    V = np.kron(v[:, None], np.eye(m))
    return V.T @ G @ V


def test_compile_and_solve_scalar_quartic():
    # global minimum of x^4 - 2x^2 is -1; SOS bound is tight for univariate
    x = AffinePoly.variable(("x",), "x")
    f = x ** 4 - (x ** 2).scaled(2.0)
    S = PolyMatrix.from_rows([[f - AffinePoly.decision(("x",), "eta")]])
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
    eta = AffinePoly.decision(variables, "eta")
    S = PolyMatrix.from_rows([
        [eta * (one + x * x), x.scaled(2.0)],
        [x.scaled(2.0), one + x * x],
    ])
    basis = monomial_basis(variables, [(("x",), "graded", 1)])
    prob = compile_sos(S, {"eta": 1.0}, bases=[kron_pairs(basis, 2)])
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
        compile_sos(S, {}, bases=[kron_pairs(basis, 1)])


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

    prob = compile_sos(S, {}, bases=[kron_pairs(basis, m)])
    cert = certificate_from_grams(prob, [G0])
    rep = check_certificate(S, {}, cert, residual_tol=1e-12)
    assert rep.passed
    assert rep.residual <= 1e-12 * rep.scale


def test_certificate_residual_matches_term_loop():
    # the array residual against S - V^T G V formed term by term in dicts.
    # Each mismatch is scaled by its coefficient's resolved value; scaling by
    # the coefficients' sizes instead gives another residual here, since
    # eta's weights meet eta = 0.7 (50 eta - 34 resolves to 1) and mu's weight
    # meets mu = 40
    variables = ("x", "y")
    x, y = (AffinePoly.variable(variables, v) for v in variables)
    eta, mu = (AffinePoly.decision(variables, d) for d in ("eta", "mu"))
    off = x * y.scaled(0.3) + mu.scaled(0.5)
    S = PolyMatrix.from_rows([[x * x + eta.scaled(50.0) - 34.0, off],
                              [off, y * y * eta.scaled(3.0) + x.scaled(0.2) + 2.0]])
    basis = monomial_basis(variables, [(variables, "graded", 1)])
    prob = compile_sos(S, {}, bases=[kron_pairs(basis, 2)])
    F = rng.normal(size=(6, 6))
    # a small Gram, so that the largest mismatches are at S's own coefficients
    cert = certificate_from_grams(prob, [1e-3 * F @ F.T])
    assignment = {"eta": 0.7, "mu": 40.0}
    target, scales, coeff_scales, expansion = {}, {}, {}, {}
    for r in range(2):
        for s in range(r, 2):
            p = S[r, s]
            for e, c in zip(p.exps.tolist(), p.coeffs.tolist()):
                w = dict(zip(p.decisions, c[1:]))
                target[(tuple(e), r, s)] = c[0] + sum(w[d] * assignment[d] for d in w)
                scales[(tuple(e), r, s)] = max(1.0, abs(target[(tuple(e), r, s)]))
                coeff_scales[(tuple(e), r, s)] = max(1.0, *map(abs, c))
    G = cert.grams[0]
    pairs = list(zip(*(a.tolist() for a in cert.bases[0])))
    for p, (mp, r) in enumerate(pairs):
        for q, (mq, s) in enumerate(pairs):
            if r <= s:
                key = (tuple(a + b for a, b in zip(mp, mq)), r, s)
                expansion[key] = expansion.get(key, 0.0) + G[p, q]
    want, by_coeffs = (
        max(abs(target.get(k, 0.0) - expansion.get(k, 0.0)) / sc.get(k, 1.0)
            for k in set(target) | set(expansion))
        for sc in (scales, coeff_scales))
    assert by_coeffs > 10 * want
    assert check_certificate(S, assignment, cert).residual == pytest.approx(want, rel=1e-15)


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


def test_certificate_refuses_taps_whose_product_rounds_away():
    # markov [1, 1e15] certifies the deadbeat taps (1, -1e15).  With
    # l0 = 1 - 2^-53 and l1 = -1e15 + 0.125, x l0 + l1 is 0.125 - 1e15 2^-53
    # = 0.0140 exactly, but fl(x l0) = -l1 and the float sum is 0
    plant = td.LiftedUncertainPlant(2, [AffinePoly.constant((), 1.0),
                                        AffinePoly.constant((), 1e15)], ())
    prob = td.TimeSynthesisProblem(plant, td.LiftedFilter.identity(2),
                                   td.LiftedFilter.causal_decision(2))
    res = td.synth_time(prob)
    assert res.certificate_report.passed
    assert res.gain_list == pytest.approx([1.0, -1e15], rel=1e-15)
    S = substitute_squares(td.build_M(prob), ())
    assert check_certificate(S, res.gains, res.certificate).passed
    l0, l1 = 0.9999999999999999, -999999999999999.9
    assert 1e15 * l0 + l1 == 0.0
    rep = check_certificate(S, dict(res.gains, l0=l0, l1=l1), res.certificate)
    assert not rep.passed
    want = float(Fraction(10**15) * Fraction(l0) + Fraction(l1))
    assert rep.residual == pytest.approx(want, rel=1e-6)


def test_resolved_coefficients_match_exact_sums():
    # rows c0 + sum_j d_j y_j that cancel to their rounding error, with
    # coefficients from 1e-200 to 1.7e300 (where Veltkamp's split of d
    # itself overflows), zeros and single-term rows among them
    rng = np.random.default_rng(29)
    rows, m = 600, 4
    d = rng.normal(size=(rows, m)) * 10.0 ** rng.uniform(-200, 300, size=(rows, 1))
    d[:50] = rng.choice([-1.7e300, 1.7e300], size=(50, m))
    d[rng.uniform(size=d.shape) < 0.2] = 0.0
    y = rng.uniform(0.5, 1.0, size=m) * rng.choice([-1.0, 1.0], size=m)
    coeffs = np.column_stack([-(d @ y), d])
    coeffs[-20:, 0] = rng.normal(size=20)
    coeffs[-10:, 1:] = 0.0
    names = tuple(f"y{j}" for j in range(m))
    got = soscompiler._resolved_once(coeffs, names, dict(zip(names, y)))
    fy = [Fraction(v) for v in y]
    want = np.array([float(sum((Fraction(c) * v for c, v in zip(row[1:], fy)),
                               Fraction(row[0]))) for row in coeffs.tolist()])
    np.testing.assert_array_equal(got, want)
    assert np.count_nonzero(coeffs @ np.concatenate([[1.0], y]) != want) > rows // 2
    # a partial sum past the float range, then an exact sum past it
    big = np.array([[0.0, 1e308, 1e308, -1e308], [0.0, 1e308, 1e308, 0.0]])
    got = soscompiler._resolved_once(big, names[:3], dict.fromkeys(names[:3], 1.0))
    np.testing.assert_array_equal(got, [1e308, np.inf])


def test_serialize_round_trip():
    x = AffinePoly.variable(("x",), "x")
    eta = AffinePoly.decision(("x",), "eta")
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


@pytest.fixture(scope="module")
def paper_program():
    """The level-0 program of the paper plant at order 0, as its text."""
    with pytest.MonkeyPatch.context() as mp:
        seen = _capture_compiles(mp)
        fd.synth_freq_robust(fd.NoncausalFir.unity(), fd.NoncausalFir.causal_decision(0),
                             cli.paper_plant(), k_max=0)
    return seen[0][1]


def test_solve_file_replays_the_in_memory_solve(tmp_path, paper_program):
    path = tmp_path / "program.txt"
    path.write_text(paper_program.serialize())
    direct, replayed = sdp.solve(paper_program), sdp.solve_file(str(path))
    assert direct.ok and replayed.ok
    assert replayed.objective_value == direct.objective_value
    assert replayed.trace == direct.trace


def _garbled(text, line, field, value):
    lines = text.splitlines()
    toks = lines[line].split()
    toks[field] = value
    lines[line] = " ".join(toks)
    return "\n".join(lines)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda t: t[:len(t) // 2], id="truncated-mid-line"),
    pytest.param(lambda t: "\n".join(t.splitlines()[:-1]), id="last-equality-missing"),
    pytest.param(lambda t: t + "g 0 f 0 r 1.0\n", id="extra-equality"),
    pytest.param(lambda t: _garbled(t, 0, 1, "2"), id="unknown-version"),
    pytest.param(lambda t: _garbled(t, 4, 1, "x"), id="count-not-an-int"),
    pytest.param(lambda t: _garbled(t, 5, 5, "1.0.0"), id="weight-not-a-float"),
    pytest.param(lambda t: _garbled(t, 5, 2, "99"), id="block-out-of-range"),
    pytest.param(lambda t: _garbled(t, 5, 0, "h"), id="not-an-equality"),
    pytest.param(lambda t: _garbled(t, 5, 1, "999"), id="gram-count-too-large"),
])
def test_parse_rejects_bad_text(paper_program, edit):
    text = paper_program.serialize()
    SdpProblem.parse(text)
    with pytest.raises(ValueError, match=r"^line \d+: "):
        SdpProblem.parse(edit(text))


# ---------------------------------------------------------------------------
# the (monomial, coordinate) pair layout against the two layouts it replaced


def _old_parity_classes(basis, var_indices):
    buckets = {}
    for mono in basis:
        buckets.setdefault(tuple(mono[i] % 2 for i in var_indices), []).append(mono)
    return [sorted(buckets[k], key=lambda t: (sum(t), t)) for k in sorted(buckets)]


def _old_equalities(S, bases):
    """Equalities as the Kronecker layout (v_b (x) I_m per block) compiled them."""
    m = S.rows
    support = {}
    for r in range(m):
        for s in range(r, m):
            p = S[r, s]
            for e, c in zip(p.exps.tolist(), p.coeffs.tolist()):
                support.setdefault(tuple(e), {})[(r, s)] = (c[0], list(zip(p.decisions, c[1:])))
    add = lambda a, b: tuple(x + y for x, y in zip(a, b))
    prod = {}  # mu -> {(r, s): {(b, p, q): weight}}
    for b, basis in enumerate(bases):
        for i, mi in enumerate(basis):
            for j, mj in enumerate(basis):
                for r in range(m):
                    for s in range(r, m):
                        p, q = sorted((i * m + r, j * m + s))
                        w = prod.setdefault(add(mi, mj), {}).setdefault((r, s), {})
                        w[(b, p, q)] = w.get((b, p, q), 0.0) + 1.0
    out = []
    for mu in sorted(prod, key=lambda t: (sum(t), t)):
        for (r, s), weights in sorted(prod[mu].items()):
            const, dec = support.get(mu, {}).get((r, s), (0.0, []))
            scale = max(abs(const), *(abs(v) for _, v in dec), 1.0)
            out.append(repr(([(b, p, q, w / scale) for (b, p, q), w in sorted(weights.items())],
                             [(k, v / scale) for k, v in dec if v],
                             const / scale, mu, (r, s))))
    return out


def _new_equalities(prob):
    """Each compiled equality in _old_equalities' form; its monomial and
    position are read off the pairs of its first Gram entry."""
    bounds = np.searchsorted(prob.entries[:, 0], np.arange(prob.n_equalities + 1)).tolist()
    gram = [(b, p, q, w) for (_, b, p, q), w in zip(prob.entries.tolist(), prob.weights.tolist())]
    out = []
    for lo, hi, row, rhs in zip(bounds, bounds[1:], prob.free.tolist(), prob.rhs.tolist()):
        b, p, q, _ = gram[lo]
        mono, coord = (a.tolist() for a in prob.bases[b])
        (mp, cp), (mq, cq) = (mono[p], coord[p]), (mono[q], coord[q])
        out.append(repr((gram[lo:hi], [(k, v) for k, v in zip(prob.free_ids, row) if v], rhs,
                         tuple(x + y for x, y in zip(mp, mq)), (min(cp, cq), max(cp, cq)))))
    return out


def _capture_compiles(monkeypatch):
    seen = []
    orig = result.compile_sos

    def spy(S, objective, bases=None):
        prob = orig(S, objective, bases=bases)
        seen.append((S, prob))
        return prob

    monkeypatch.setattr(result, "compile_sos", spy)
    return seen


def test_pair_layout_matches_kronecker_lifted_program(monkeypatch):
    # three weights and a Markov parameter of degree 2: level 0 is not known
    # to be exact, so both levels are compiled
    lam = ("lam1", "lam2", "lam3")
    lam1, lam2, lam3 = (AffinePoly.variable(lam, v) for v in lam)
    markov = [lam1 + lam2.scaled(1.4) + lam3.scaled(0.8),
              lam1.scaled(0.3) + lam2.scaled(-0.2) + (lam1 * lam3).scaled(0.5)]
    plant = td.LiftedUncertainPlant(2, markov, lam)
    problem = td.TimeSynthesisProblem(plant, td.LiftedFilter.identity(2),
                                      td.LiftedFilter.causal_decision(2),
                                      epsilon=1e-6, k_max=1, k_tol=0.0)
    seen = _capture_compiles(monkeypatch)
    td.synth_time(problem)
    assert len(seen) == 2
    for S, prob in seen:
        degree = int(prob.bases[0][0][0].sum())
        basis = [tuple(e) for e in
                 monomial_basis(S.variables, [(lam, "homogeneous", degree)]).tolist()]
        old = _old_parity_classes(basis, [S.variables.index(v) for v in lam])
        assert prob.block_dims == [len(b) * S.rows for b in old]
        assert _new_equalities(prob) == _old_equalities(S, old)


def test_symmetry_split_keeps_robust_bound(monkeypatch):
    # paper plant, theta in [-0.7, -0.5]
    tv = ("theta",)
    lin = lambda c0, c1=0.0: AffinePoly.constant(tv, c0) + AffinePoly.variable(tv, "theta").scaled(c1)
    plant = fd.simplexify([lin(16, 60), lin(-40)], [lin(1, 16), lin(4, 20), lin(-20)],
                          [[-0.5], [-0.7]], theta_vars=tv)
    args = (fd.NoncausalFir.unity(), fd.NoncausalFir.causal_decision(1), plant)
    split = fd.synth_freq_robust(*args, k_max=0)
    assert split.certified, str(split.certificate_report)
    assert split.certificate_report.residual <= 1e-6

    # the same program with the lambda-sign split only (no x -> -x flip)
    lam_only = lambda pairs, flips: sign_classes(pairs, [f for f in flips if not f[1]])
    monkeypatch.setattr(result, "sign_classes", lam_only)
    whole = fd.synth_freq_robust(*args, k_max=0)
    assert sum(split.diagnostics["block_dims"]) == sum(whole.diagnostics["block_dims"])
    assert max(split.diagnostics["block_dims"]) < max(whole.diagnostics["block_dims"])
    assert split.diagnostics["n_equalities"] < whole.diagnostics["n_equalities"]
    assert split.eta == pytest.approx(whole.eta, abs=1e-6)


def _x_flip_program(corner):
    """3x3 S over x whose (0, 2) entry is ``corner``; the split is exact
    only when that entry is odd in x."""
    x = AffinePoly.variable(("x",), "x")
    one = AffinePoly.constant(("x",), 1.0)
    zero = AffinePoly.zero(("x",))
    S = PolyMatrix.from_rows([[one + x * x, zero, corner],
                              [zero, one, zero],
                              [corner, zero, one + x * x]])
    basis = monomial_basis(("x",), [(("x",), "graded", 1)])
    return S, sign_classes(kron_pairs(basis, 3), [((0,), (2,))])


def test_symmetry_split_rejects_asymmetric_matrix():
    x = AffinePoly.variable(("x",), "x")
    S, split = _x_flip_program(x.scaled(0.5))
    prob = compile_sos(S, {}, bases=split)
    assert prob.block_dims == [3, 3]
    sol = sdp.solve(prob)
    assert sol.ok
    assert check_certificate(S, {}, certificate_from_grams(prob, sol.gram_values)).passed

    # an even term at (0, 2) breaks the symmetry: no split Gram produces it
    S, split = _x_flip_program(x.scaled(0.5) + 0.25)
    with pytest.raises(BasisDeficiency):
        compile_sos(S, {}, bases=split)
    # ... but a term whose coefficient is identically zero is no obstacle
    S, split = _x_flip_program(AffinePoly(("x",), [[0], [1]], [[0.0], [0.5]]))
    assert compile_sos(S, {}, bases=split).block_dims == [3, 3]
