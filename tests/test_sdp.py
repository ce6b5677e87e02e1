import gc
import tracemalloc

import numpy as np
import pytest

from ilc_sos.soscompiler import SdpProblem
from ilc_sos import cli, sdp
from ilc_sos import timedomain as td


def make_problem(block_dims, equalities, objective, free_ids=None):
    """The program of per-row ``(gram, free, rhs)`` lists: ``gram`` holds
    (block, p, q, weight) tuples, ``free`` maps free ids to coefficients."""
    if free_ids is None:
        free_ids = tuple(sorted(set(objective).union(*(free for _, free, _ in equalities))))
    entries = [(i, b, p, q) for i, (gram, _, _) in enumerate(equalities) for b, p, q, _ in gram]
    return SdpProblem(
        list(block_dims), tuple(free_ids), dict(objective),
        np.array(entries, dtype=np.int64).reshape(-1, 4),
        np.array([w for gram, _, _ in equalities for *_, w in gram], dtype=float),
        np.array([[free.get(k, 0.0) for k in free_ids] for _, free, _ in equalities],
                 dtype=float).reshape(len(equalities), len(free_ids)),
        np.array([rhs for *_, rhs in equalities], dtype=float))


def test_min_scalar_psd():
    # min y s.t. [[y]] >= 0
    prob = make_problem([1], [([(0, 0, 0, 1.0)], {"y": 1.0}, 0.0)], {"y": 1.0})
    sol = sdp.solve(prob)
    assert sol.ok
    assert sol.objective_value == pytest.approx(0.0, abs=1e-7)


def test_min_diagonal_with_unit_offdiag():
    # min y s.t. [[y, 1], [1, y]] >= 0  ->  y* = 1
    eqs = [
        ([(0, 0, 0, 1.0)], {"y": 1.0}, 0.0),
        ([(0, 0, 1, 1.0)], {}, 1.0),
        ([(0, 1, 1, 1.0)], {"y": 1.0}, 0.0),
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
        ([(0, 0, 0, 1.0), (0, 1, 1, 1.0), (1, 0, 0, 1.0)], {}, 1.0),
        ([(0, 0, 1, 1.0)], {}, 0.2),
        ([(1, 0, 0, 1.0)], {"y": 1.0}, 0.0),
    ]
    prob = make_problem([2, 1], eqs, {"y": 1.0})
    sol = sdp.solve(prob)
    assert sol.ok
    # G2 can go to zero: G1 = [[a, .2], [.2, 1-a]] is PSD for suitable a
    assert sol.objective_value == pytest.approx(0.0, abs=1e-6)


def test_infeasible_psd():
    # [[y]] >= 0 with y = -1 pinned by equality on the Gram entry
    prob = make_problem([1], [([(0, 0, 0, 1.0)], {}, -1.0)], {})
    sol = sdp.solve(prob)
    assert sol.status == "infeasible"


def test_determinism():
    eqs = [
        ([(0, 0, 0, 1.0)], {"y": 1.0}, 0.0),
        ([(0, 0, 1, 1.0)], {}, 0.3),
        ([(0, 1, 1, 1.0)], {"y": 1.0}, -0.1),
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
        ([(0, 0, 0, 1.0)], {"y": 1.0}, 0.0),
        ([(0, 0, 1, 1.0)], {}, a),
        ([(0, 1, 1, 1.0)], {"y": 1.0}, 0.0),
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
    infeasible = make_problem([1], [([(0, 0, 0, 1.0)], {}, -1.0)], {})
    assert sdp.solve(infeasible).status == "infeasible"
    assert len(calls) == 3


def test_unconverged_eigenvalues_are_a_numerical_failure(monkeypatch, tmp_path):
    # LAPACK's "Eigenvalues did not converge" in the step length ends the
    # solve as a named failure, in memory and from a file, instead of raising
    def no_convergence(S):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    prob = _offdiag_problem(1.0)
    path = tmp_path / "offdiag.sdp"
    path.write_text(prob.serialize())
    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    for sol in (sdp.solve(prob), sdp.solve_file(str(path))):
        assert sol.status == "numerical_failure"
        assert sol.message == "linear algebra failure: Eigenvalues did not converge"
        assert sol.iterations == 0 and len(sol.trace) == 1
        assert np.isnan(sol.scalar_values["y"])


def test_three_kkt_solves_per_iteration(monkeypatch):
    # the predictor takes one KKT solve, the corrector one plus a refinement pass
    solves = []
    factor = sdp._null_space_solver

    def counted(*args):
        kkt = factor(*args)

        def solve(*rhs):
            solves.append(rhs)
            return kkt(*rhs)

        return solve

    monkeypatch.setattr(sdp, "_null_space_solver", counted)
    sol = sdp.solve(_offdiag_problem(1.0))
    assert sol.ok and sol.iterations > 0
    assert len(solves) == 3 * sol.iterations


def test_solution_report_format():
    prob = make_problem([1], [([(0, 0, 0, 1.0)], {"y": 1.0}, 0.0)], {"y": 1.0})
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
        eqs.append((gram, {"y": float(rng.normal())} if i % 3 == 0 else {},
                    float(rng.normal())))
    eqs[4][0].extend([(0, 1, 3, 0.7), (0, 1, 3, -0.2), (0, 3, 1, 0.4)])
    objective = {"y": 1.0}
    if n_free:
        frng = np.random.default_rng(n_free)
        eqs = [(gram, {f"f{j}": float(frng.normal()) for j in range(n_free)}, rhs)
               for gram, _, rhs in eqs]
        objective = {"f0": 1.0}
    prob = make_problem(dims, eqs, objective)
    # scalings stacked as the IPM keeps them: (B, 5, 5), identity in the pads
    Ws = np.stack([np.eye(max(dims))] * len(dims))
    for b, n in enumerate(dims):
        X = rng.normal(size=(n, n))
        Ws[b, :n, :n] = X @ X.T + n * np.eye(n)
    return sdp._Assembled(prob), Ws


def _unit_At(A):
    # A^*(e_i), stacked and zero in the pads
    return [A.apply_At(np.eye(A.p)[i]) for i in range(A.p)]


def _two_block_assembled():
    # equality 0 has entries in both blocks, equality 1 in block 1 only
    eqs = [([(0, 0, 1, 0.6), (0, 2, 2, -1.1), (1, 0, 0, 0.9), (1, 0, 1, 0.4)], {}, 1.0),
           ([(1, 1, 1, 1.3)], {"y": 1.0}, 0.0)]
    rng = np.random.default_rng(11)
    Ws = np.stack([np.eye(3)] * 2)
    for b, n in enumerate([3, 2]):
        X = rng.normal(size=(n, n))
        Ws[b, :n, :n] = X @ X.T + n * np.eye(n)
    return sdp._Assembled(make_problem([3, 2], eqs, {"y": 1.0})), Ws


# a chunk of 50 doubles cuts each of _random_assembled's two nonempty blocks
# (8 equalities each) into at least 3 chunks
@pytest.mark.parametrize("chunk", [sdp._SCHUR_CHUNK, 50], ids=["default", "chunk50"])
@pytest.mark.parametrize("make", [_random_assembled, _two_block_assembled],
                         ids=["random", "two-block"])
def test_schur_matches_definition(monkeypatch, chunk, make):
    monkeypatch.setattr(sdp, "_SCHUR_CHUNK", chunk)
    A, Ws = make()
    if chunk == 50 and make is _random_assembled:
        for active, *_, rows in A.padded:
            assert not len(active) or -(-len(active) // rows) >= 3
    K = _unit_At(A)
    ref = np.array([[sum(np.trace(Ki[b] @ W @ Kj[b] @ W) for b, W in enumerate(Ws))
                     for Kj in K] for Ki in K])
    tol = dict(rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    M, work = np.empty((A.p, A.p)), A.workspace()
    assert A.schur(Ws, M, work) is M
    np.testing.assert_allclose(M, ref, **tol)
    # a second call into the same (dirty) M and workspace overwrites them
    A.schur(Ws, M, work)
    np.testing.assert_allclose(M, ref, **tol)


def test_schur_with_supplied_buffers_allocates_under_one_chunk():
    # two 24 x 24 blocks whose 300 upper-triangle entries each are spread
    # over 168 equalities: p = 168 like the paper's level-1 programs, and
    # every block spans at least 3 chunks; M and the workspace are given,
    # so nothing p^2-sized or block-sized is allocated per call
    rng = np.random.default_rng(3)
    p, n = 168, 24
    eqs = [([], {}, float(rng.normal())) for _ in range(p)]
    for b in range(2):
        for r, c in zip(*np.triu_indices(n)):
            eqs[int(rng.integers(p))][0].append((b, int(r), int(c), float(rng.normal())))
    eqs[0][1]["y"] = 1.0
    A = sdp._Assembled(make_problem([n, n], eqs, {"y": 1.0}))
    assert all(-(-len(active) // rows) >= 3 for active, *_, rows in A.padded)
    Ws = np.empty((2, n, n))
    for b in range(2):
        X = rng.normal(size=(n, n))
        Ws[b] = X @ X.T + n * np.eye(n)
    M, work = np.empty((p, p)), A.workspace()
    assert all(w.size <= sdp._SCHUR_CHUNK for w in work)
    A.schur(Ws, M, work)
    tracemalloc.start()
    try:
        A.schur(Ws, M, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sdp._SCHUR_CHUNK * 8


class _Captured(Exception):
    """Raised by a stand-in for sdp.solve to hand out the program it got."""


@pytest.fixture(scope="module")
def lifted_paper_level0():
    # the level-0 program of the lifted paper plant at N = 8 (Q = I, causal
    # L), as synthesis hands it to the solver: p = 1,088 equalities on two
    # 64 x 64 Gram blocks
    N = 8
    problem = td.TimeSynthesisProblem(td.LiftedUncertainPlant.from_transfer(cli.paper_plant(), N),
                                      td.LiftedFilter.identity(N),
                                      td.LiftedFilter.causal_decision(N))

    def capture(prob, **_):
        raise _Captured(prob)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdp, "solve", capture)
        with pytest.raises(_Captured) as got:
            problem.solve()
    return got.value.args[0]


def _traced(fn):
    """fn()'s result, the traced memory it leaves allocated and its traced
    peak, both above what was traced before the call."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held - base, peak - base


def test_assembly_holds_no_index_per_equality_pair(lifted_paper_level0):
    # one intp per (active equality, block entry) pair was 33.0 MB here; a
    # row offset per entry is what the Schur build keeps instead
    A, held, _ = _traced(lambda: sdp._Assembled(lifted_paper_level0))
    assert A.p == 1088 and A.dims == [64, 64]
    assert held < 2e6


def test_ipm_iteration_allocates_one_factor_beyond_its_buffers(lifted_paper_level0):
    # M, the rank-2q update's buffer and the Cholesky factor of K's trailing
    # block are the only p x p arrays of a solve: two iterations peak 3.3 p^2
    # doubles above the entry (8.4 p^2 with K, U, U + U^T and the factor's
    # inverse formed every iteration)
    A = sdp._Assembled(lifted_paper_level0)
    assert A.p >= 400
    sol, _, peak = _traced(lambda: sdp._solve_ipm(A, 1e-8, 1e-8, 2))
    assert sol.iterations == 2 and "no convergence" in sol.message
    assert peak <= 4 * 8 * A.p ** 2


@pytest.mark.parametrize("n_free", [0, 3, 9])
def test_null_space_step_matches_dense_kkt(n_free):
    # q = 1, 3 and 9 free columns against p = 9 equalities (9 is p == q)
    A, _ = _random_assembled(n_free)
    assert A.q == (n_free or 1)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(A.p, A.p))
    M = X @ X.T + A.p * np.eye(A.p)
    h, r = rng.normal(size=A.p), rng.normal(size=A.q)
    # the solver forms Q^T M Q in M's storage, with the dirty buffer as scratch
    dnu, dy = sdp._null_space_solver(A, M.copy(), np.full((A.p, A.p), np.nan))(h, r)
    kkt = np.block([[M, -A.D], [A.D.T, np.zeros((A.q, A.q))]])
    ref = np.linalg.solve(kkt, np.concatenate([h, r]))
    np.testing.assert_allclose(np.concatenate([dnu, dy]), ref,
                               rtol=1e-10, atol=1e-12 * np.abs(ref).max())


def test_free_scalar_in_no_equality_is_fixed_at_zero():
    prob = make_problem([1], [([(0, 0, 0, 1.0)], {"y": 1.0}, 0.0)], {"y": 1.0},
                        free_ids=("y", "w"))
    sol = sdp.solve(prob)
    assert sol.ok
    assert sol.scalar_values["w"] == 0.0
    assert sol.objective_value == pytest.approx(0.0, abs=1e-7)


def _offdiag_with(free):
    # [[y, 1], [1, y]] >= 0 with the diagonal tied to the given free columns
    return [([(0, 0, 0, 1.0)], dict(free), 0.0),
            ([(0, 0, 1, 1.0)], {}, 1.0),
            ([(0, 1, 1, 1.0)], dict(free), 0.0)]


@pytest.mark.parametrize("free_ids, objective, eqs", [
    pytest.param(("w", "y"), {"y": 1.0, "w": 1.0}, _offdiag_with({"y": 1.0}),
                 id="zero-column-with-cost"),
    pytest.param(("w", "y"), {"y": 1.0}, _offdiag_with({"y": 1.0, "w": 1.0}),
                 id="duplicate-columns"),
    pytest.param(("w", "y"), {"y": 1.0},
                 [([(0, 0, 0, 1.0)], {"y": 1.0, "w": -2.0}, 0.0)],
                 id="wide"),  # q = 2 free columns, p = 1 equality
])
def test_dependent_free_scalars_are_a_named_failure(free_ids, objective, eqs):
    sol = sdp.solve(make_problem([2], eqs, objective, free_ids))
    assert sol.status == "numerical_failure"
    assert "rank-deficient" in sol.message
    assert set(sol.scalar_values) == set(free_ids)


def test_free_columns_far_apart_in_scale_are_independent():
    # min y s.t. [[y + e, 1], [1, y - e]] >= 0, e = 1e-20 w: y* = 1.  D's
    # columns (1, 1, 0) and 1e-20 (1, -1, 0) are orthogonal, so R keeps all
    # of the small one, although it is 1e-20 of the largest singular value
    eqs = [([(0, 0, 0, 1.0)], {"y": 1.0, "w": 1e-20}, 0.0),
           ([(0, 1, 1, 1.0)], {"y": 1.0, "w": -1e-20}, 0.0),
           ([(0, 0, 1, 1.0)], {}, 1.0)]
    prob = make_problem([2], eqs, {"y": 1.0}, ("w", "y"))
    assert sdp._Assembled(prob).defect is None
    sol = sdp.solve(prob)
    assert sol.ok
    assert sol.objective_value == pytest.approx(1.0, abs=1e-7)


def test_refined_solve_on_ill_conditioned_schur():
    # p = 120 spans two diagonal blocks of the substitution, p = 300 five
    eps = np.finfo(float).eps
    for p in (120, 300):
        rng = np.random.default_rng(7)
        Q, _ = np.linalg.qr(rng.normal(size=(p, p)))
        M = (Q * np.logspace(0, -12, p)) @ Q.T
        M = 0.5 * (M + M.T)
        B = rng.normal(size=(p, 3))
        X = sdp._refined_solver(M)(B)
        resid = np.linalg.norm(B - M @ X) / (np.linalg.norm(M, 2) * np.linalg.norm(X))
        assert resid <= 4 * eps  # normwise backward stable without refinement
        # a rank-deficient M factors only with the one ridge, and its solve is
        # not refined: the residual B - M X = ridge X is the ridge's bias
        V = rng.normal(size=(p, p // 2))
        Ms = V @ V.T
        Bs = Ms @ rng.normal(size=p)
        assert sdp._chol(Ms) is None
        Xs = sdp._refined_solver(Ms)(Bs)
        ridge = sdp._RIDGE * Ms.diagonal().max()
        assert np.linalg.norm(Bs - Ms @ Xs) <= 2 * ridge * np.linalg.norm(Xs)


@pytest.mark.parametrize("cols", [None, 1, 4], ids=["vector", "one-column", "four-columns"])
def test_blocked_substitution_matches_dense_solve(cols):
    # p = 200 spans four diagonal blocks, the last one partial
    rng = np.random.default_rng(13)
    p = 200
    assert -(-p // sdp._SUBST_BLOCK) >= 3 and p % sdp._SUBST_BLOCK
    X = rng.normal(size=(p, p))
    M = X @ X.T + p * np.eye(p)
    B = rng.normal(size=(p,) if cols is None else (p, cols))
    got = sdp._tril_solver(np.linalg.cholesky(M))(B)
    assert got.shape == B.shape
    np.testing.assert_allclose(got, np.linalg.solve(M, B), rtol=1e-10)


def test_unridged_factor_solves_without_refinement():
    # a factor of M itself gives the substitution as it stands: no product
    # with M, so a solve returns _tril_solver's result bit for bit
    rng = np.random.default_rng(17)
    p = 150
    X = rng.normal(size=(p, p))
    M = X @ X.T + p * np.eye(p)
    B = rng.normal(size=(p, 2))
    ref = sdp._tril_solver(np.linalg.cholesky(M))(B)
    np.testing.assert_array_equal(sdp._refined_solver(M)(B), ref)


def _mixed_size_problem():
    # blocks [1, 3, 2]: min y s.t. diag(G1) = y with the path graph's unit
    # off-diagonals, G0 = y - 1 (an n = 1 block), and G2 in no equality;
    # y* = sqrt(2), the path matrix's largest eigenvalue
    eqs = [([(1, i, i, 1.0)], {"y": 1.0}, 0.0) for i in range(3)]
    eqs += [([(1, 0, 1, 1.0)], {}, 1.0), ([(1, 1, 2, 1.0)], {}, 1.0),
            ([(1, 0, 2, 1.0)], {}, 0.0), ([(0, 0, 0, 1.0)], {"y": 1.0}, -1.0)]
    return make_problem([1, 3, 2], eqs, {"y": 1.0})


def test_mixed_size_blocks_solve_to_reference():
    sol = sdp.solve(_mixed_size_problem())
    assert sol.ok and not sol.message
    # reference: the same program solved block by block, without the stacking
    assert sol.objective_value == pytest.approx(1.4142135633519517, abs=1e-9)
    assert [G.shape for G in sol.gram_values] == [(1, 1), (3, 3), (2, 2)]
    assert sol.gram_values[0][0, 0] == pytest.approx(np.sqrt(2) - 1, abs=1e-7)


@pytest.mark.parametrize("problem", [_mixed_size_problem(), _random_assembled()[0]],
                         ids=["mixed-size", "random"])
def test_pads_stay_identity_at_every_iterate(monkeypatch, problem):
    # every stacked factorization the IPM asks for is of an iterate G or Z
    seen = []
    chol = sdp._chol

    def recording(M):
        if M.ndim == 3:
            seen.append(M.copy())
        return chol(M)

    monkeypatch.setattr(sdp, "_chol", recording)
    A = problem if isinstance(problem, sdp._Assembled) else sdp._Assembled(problem)
    sol = sdp._solve_ipm(A, 1e-8, 1e-8, 200)
    assert sol.iterations >= 5 and len(seen) == 2 * sol.iterations
    pad = A.mask == 0
    assert pad.any()
    eye = np.broadcast_to(np.eye(A.n), A.mask.shape)
    for X in seen:
        np.testing.assert_array_equal(X[pad], eye[pad])
    # and they add nothing to mu: iteration k factors G, then Z
    for k, rec in enumerate(sol.trace[:sol.iterations]):
        G, Z = seen[2 * k], seen[2 * k + 1]
        mu = sum(np.vdot(G[b, :n, :n], Z[b, :n, :n]) for b, n in enumerate(A.dims))
        assert rec["mu"] == pytest.approx(mu / sum(A.dims), rel=1e-12)


def test_batched_max_step_is_the_per_block_minimum():
    rng = np.random.default_rng(11)
    B, n = 4, 6
    inv_sqrt = 1.0 / rng.uniform(0.1, 3.0, size=(B, n))
    sym = lambda X: X + np.swapaxes(X, -1, -2)
    deltas = sym(rng.normal(size=(3, B, n, n)))
    # a direction that keeps every block positive definite: no bound
    deltas[2] = np.eye(n)

    def one_block(s_inv, D):
        # the unbatched step of a single block (scaled coordinates)
        emin = float(np.linalg.eigvalsh(s_inv[:, None] * D * s_inv[None, :])[0])
        return np.inf if emin >= -1e-14 else -1.0 / emin

    ref = [min(one_block(inv_sqrt[b], deltas[k, b]) for b in range(B)) for k in range(3)]
    got = sdp._max_step(inv_sqrt, deltas)
    assert got.shape == (3,) and got[2] == np.inf
    np.testing.assert_allclose(got, ref, rtol=1e-13)
    assert sdp._max_step(inv_sqrt, deltas[0]) == pytest.approx(ref[0], rel=1e-13)
