import numpy as np
import pytest

from ilc_sos.soscompiler import Equality, SdpProblem
from ilc_sos import sdp


def make_problem(block_dims, equalities, objective):
    ids = set(objective)
    for eq in equalities:
        ids |= set(eq.free)
    return SdpProblem(list(block_dims), tuple(sorted(ids)), dict(objective), list(equalities))


def test_min_scalar_psd():
    # min y s.t. [[y]] >= 0
    prob = make_problem([1], [Equality([(0, 0, 0, 1.0)], {"y": 1.0}, 0.0)], {"y": 1.0})
    sol = sdp.solve(prob)
    assert sol.ok
    assert sol.objective_value == pytest.approx(0.0, abs=1e-7)


def test_min_diagonal_with_unit_offdiag():
    # min y s.t. [[y, 1], [1, y]] >= 0  ->  y* = 1
    eqs = [
        Equality([(0, 0, 0, 1.0)], {"y": 1.0}, 0.0),
        Equality([(0, 0, 1, 1.0)], {}, 1.0),
        Equality([(0, 1, 1, 1.0)], {"y": 1.0}, 0.0),
    ]
    prob = make_problem([2], eqs, {"y": 1.0})
    sol = sdp.solve(prob)
    assert sol.ok
    assert sol.objective_value == pytest.approx(1.0, abs=1e-7)
    G = sol.gram_values[0]
    assert np.linalg.eigvalsh(G)[0] >= -1e-8


def test_two_blocks_and_trace_constraint():
    # blocks G1 (2x2), G2 (1x1); tr(G1) + G2 = 1, G1[0,1] = 0.2
    # minimize G2 via y tied to it
    eqs = [
        Equality([(0, 0, 0, 1.0), (0, 1, 1, 1.0), (1, 0, 0, 1.0)], {}, 1.0),
        Equality([(0, 0, 1, 1.0)], {}, 0.2),
        Equality([(1, 0, 0, 1.0)], {"y": 1.0}, 0.0),
    ]
    prob = make_problem([2, 1], eqs, {"y": 1.0})
    sol = sdp.solve(prob)
    assert sol.ok
    # G2 can go to zero: G1 = [[a, .2], [.2, 1-a]] is PSD for suitable a
    assert sol.objective_value == pytest.approx(0.0, abs=1e-6)


def test_infeasible_psd():
    # [[y]] >= 0 with y = -1 pinned by equality on the Gram entry
    prob = make_problem([1], [Equality([(0, 0, 0, 1.0)], {}, -1.0)], {})
    sol = sdp.solve(prob)
    assert sol.status == "infeasible"


def test_determinism():
    eqs = [
        Equality([(0, 0, 0, 1.0)], {"y": 1.0}, 0.0),
        Equality([(0, 0, 1, 1.0)], {}, 0.3),
        Equality([(0, 1, 1, 1.0)], {"y": 1.0}, -0.1),
    ]
    prob = make_problem([2], eqs, {"y": 1.0})
    a = sdp.solve(prob)
    b = sdp.solve(prob)
    assert a.ok and b.ok
    assert a.objective_value == b.objective_value  # bit-identical arithmetic
    for Ga, Gb in zip(a.gram_values, b.gram_values):
        np.testing.assert_array_equal(Ga, Gb)


def _offdiag_problem(a):
    # min y s.t. [[y, a], [a, y]] >= 0  ->  y* = a
    eqs = [
        Equality([(0, 0, 0, 1.0)], {"y": 1.0}, 0.0),
        Equality([(0, 0, 1, 1.0)], {}, a),
        Equality([(0, 1, 1, 1.0)], {"y": 1.0}, 0.0),
    ]
    return make_problem([2], eqs, {"y": 1.0})


def test_start_follows_the_data_scale():
    # the same program at scale 1e4 and rescaled to 1 converges alike
    big = sdp.solve(_offdiag_problem(1e4))
    unit = sdp.solve(_offdiag_problem(1.0))
    assert big.ok and unit.ok
    assert big.objective_value == pytest.approx(1e4, rel=1e-6)
    assert unit.objective_value == pytest.approx(1.0, rel=1e-6)
    assert big.iterations <= 15 and unit.iterations <= 15
    assert abs(big.iterations - unit.iterations) <= 3


def test_solve_runs_the_ipm_once(monkeypatch):
    calls = []
    ipm = sdp._solve_ipm

    def counted(*args, **kwargs):
        calls.append(args)
        return ipm(*args, **kwargs)

    monkeypatch.setattr(sdp, "_solve_ipm", counted)
    assert sdp.solve(_offdiag_problem(1.0)).ok
    assert len(calls) == 1
    # cut off after one iteration: a numerical failure, and no second start
    assert sdp.solve(_offdiag_problem(1.0), max_iter=1).status == "numerical_failure"
    assert len(calls) == 2
    infeasible = make_problem([1], [Equality([(0, 0, 0, 1.0)], {}, -1.0)], {})
    assert sdp.solve(infeasible).status == "infeasible"
    assert len(calls) == 3


def test_solution_report_format():
    prob = make_problem([1], [Equality([(0, 0, 0, 1.0)], {"y": 1.0}, 0.0)], {"y": 1.0})
    sol = sdp.solve(prob)
    text = sol.report()
    assert "status" in text and "optimal" in text
    assert "scalar y" in text


def _random_assembled(n_free=0):
    # blocks 0 and 1 carry several entries per equality, including a
    # repeated (r, s) entry and its transpose; block 2 has no entries at all.
    # With n_free, every equality carries n_free dense free columns in place
    # of the sparse "y".
    rng = np.random.default_rng(3)
    dims = [5, 3, 2]
    eqs = []
    for i in range(9):
        gram = []
        for _ in range(int(rng.integers(1, 6))):
            b = int(rng.integers(0, 2))
            r, s = (int(v) for v in rng.integers(0, dims[b], size=2))
            gram.append((b, r, s, float(rng.normal())))
        eqs.append(Equality(gram, {"y": float(rng.normal())} if i % 3 == 0 else {},
                            float(rng.normal())))
    eqs[4].gram.extend([(0, 1, 3, 0.7), (0, 1, 3, -0.2), (0, 3, 1, 0.4)])
    objective = {"y": 1.0}
    if n_free:
        frng = np.random.default_rng(n_free)
        for eq in eqs:
            eq.free = {f"f{j}": float(frng.normal()) for j in range(n_free)}
        objective = {"f0": 1.0}
    prob = make_problem(dims, eqs, objective)
    Ws = []
    for n in dims:
        X = rng.normal(size=(n, n))
        Ws.append(X @ X.T + n * np.eye(n))
    return sdp._Assembled(prob), Ws


def _unit_At(A):
    return [A.apply_At(np.eye(A.p)[i]) for i in range(A.p)]


def test_schur_matches_definition():
    A, Ws = _random_assembled()
    K = _unit_At(A)
    ref = np.array([[sum(np.trace(Ki[b] @ W @ Kj[b] @ W) for b, W in enumerate(Ws))
                     for Kj in K] for Ki in K])
    np.testing.assert_allclose(A.schur(Ws), ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("n_free", [0, 3, 9])
def test_null_space_step_matches_dense_kkt(n_free):
    # q = 1, 3 and 9 free columns against p = 9 equalities (9 is p == q)
    A, _ = _random_assembled(n_free)
    assert A.q == (n_free or 1)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(A.p, A.p))
    M = X @ X.T + A.p * np.eye(A.p)
    h, r = rng.normal(size=A.p), rng.normal(size=A.q)
    dnu, dy = sdp._null_space_solver(A, M)(h, r)
    kkt = np.block([[M, -A.D], [A.D.T, np.zeros((A.q, A.q))]])
    ref = np.linalg.solve(kkt, np.concatenate([h, r]))
    np.testing.assert_allclose(np.concatenate([dnu, dy]), ref,
                               rtol=1e-10, atol=1e-12 * np.abs(ref).max())


def test_free_scalar_in_no_equality_is_fixed_at_zero():
    prob = SdpProblem([1], ("y", "w"), {"y": 1.0},
                      [Equality([(0, 0, 0, 1.0)], {"y": 1.0}, 0.0)])
    sol = sdp.solve(prob)
    assert sol.ok
    assert sol.scalar_values["w"] == 0.0
    assert sol.objective_value == pytest.approx(0.0, abs=1e-7)


def _offdiag_with(free):
    # [[y, 1], [1, y]] >= 0 with the diagonal tied to the given free columns
    return [Equality([(0, 0, 0, 1.0)], dict(free), 0.0),
            Equality([(0, 0, 1, 1.0)], {}, 1.0),
            Equality([(0, 1, 1, 1.0)], dict(free), 0.0)]


@pytest.mark.parametrize("free_ids, objective, eqs", [
    pytest.param(("w", "y"), {"y": 1.0, "w": 1.0}, _offdiag_with({"y": 1.0}),
                 id="zero-column-with-cost"),
    pytest.param(("w", "y"), {"y": 1.0}, _offdiag_with({"y": 1.0, "w": 1.0}),
                 id="duplicate-columns"),
    pytest.param(("w", "y"), {"y": 1.0},
                 [Equality([(0, 0, 0, 1.0)], {"y": 1.0, "w": -2.0}, 0.0)],
                 id="wide"),  # q = 2 free columns, p = 1 equality
])
def test_dependent_free_scalars_are_a_named_failure(free_ids, objective, eqs):
    sol = sdp.solve(SdpProblem([2], free_ids, objective, eqs))
    assert sol.status == "numerical_failure"
    assert "rank-deficient" in sol.message
    assert set(sol.scalar_values) == set(free_ids)


def test_refined_solve_on_ill_conditioned_schur():
    rng = np.random.default_rng(7)
    p = 120
    Q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    M = (Q * np.logspace(0, -12, p)) @ Q.T
    M = 0.5 * (M + M.T)
    B = rng.normal(size=(p, 3))
    X = sdp._refined_solver(M)(B)
    eps = np.finfo(float).eps
    resid = np.linalg.norm(B - M @ X) / (np.linalg.norm(M, 2) * np.linalg.norm(X))
    assert resid <= 4 * eps  # normwise backward stable despite the explicit inverse
    # a rank-deficient M only factors with a ridge, whose bias (residual
    # ~1e-13 relative without refinement) the refinement removes
    V = rng.normal(size=(p, p // 2))
    Ms = V @ V.T
    Bs = Ms @ rng.normal(size=p)
    Xs = sdp._refined_solver(Ms)(Bs)
    assert np.linalg.norm(Bs - Ms @ Xs) <= 100 * eps * np.linalg.norm(Bs)
