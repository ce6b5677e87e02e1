import dataclasses
import warnings

import numpy as np
import pytest

from ilc_sos.polyalg import AffinePoly
from ilc_sos import freqdomain as fd
from ilc_sos import result
from ilc_sos import timedomain as td
from ilc_sos import verify as vf
from ilc_sos.freqdomain import UncertainTransferFunction, simplexify


def const_markov(values, lam=()):
    return tuple(AffinePoly.constant(lam, v) for v in values)


def lin(lam, c0, *cs):
    """c0 + sum of cs[i]*lam[i]."""
    p = AffinePoly.constant(lam, c0)
    for i, c in enumerate(cs):
        exps = tuple(1 if j == i else 0 for j in range(len(lam)))
        p = p + AffinePoly.monomial(lam, exps, c)
    return p


LAM2 = ("lam1", "lam2")


def at(pt):
    return dict(zip(LAM2, pt))


# -- impulse-response extraction --------------------------------------------


def test_markov_matches_difference_equation():
    # simulate the monic difference equation directly as the oracle
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, n))
        num = rng.normal(size=m + 1)
        den = rng.normal(size=n + 1)
        den[-1] = rng.choice([-1, 1]) * (1 + rng.random())
        K = 12
        a = den / den[-1]
        b = np.zeros(n + 1)
        b[: m + 1] = num / den[-1]
        y = np.zeros(K + 2)
        u = np.zeros(K + 2)
        u[0] = 1.0
        for k in range(K + 1):
            acc = 0.0
            for i in range(n + 1):
                if k - (n - i) >= 0:
                    acc += b[i] * u[k - (n - i)]
            for i in range(n):
                if k - (n - i) >= 0:
                    acc -= a[i] * y[k - (n - i)]
            y[k] = acc
        h = td.markov_from_coeffs(num, den, K)
        # h[i] is the response one step after the pulse
        assert np.allclose(h, y[1 : K + 1], atol=1e-10)


def test_markov_paper_plant_first_sample():
    # long division of (-40z + 60*th + 16) / (20z^2 + (4+20*th)z + 16*th + 1)
    for th in np.linspace(-0.7, -0.5, 7):
        h = td.markov_from_coeffs([16 + 60 * th, -40.0],
                                  [16 * th + 1, 4 + 20 * th, 20.0], 4)
        assert h[0] == pytest.approx(-2.0, abs=1e-12)


def test_markov_rejects_improper():
    with pytest.raises(ValueError):
        td.markov_from_coeffs([1.0, 2.0], [0.5, 1.0], 3)


def test_markov_trailing_zero_numerator_matches_lifted():
    # num [1, 0] is the plant 1 / (z + 0.5): strictly proper once the zero
    # z-coefficient is dropped, as from_coeffs drops it
    h = td.markov_from_coeffs([1.0, 0.0], [0.5, 1.0], 3)
    tf = UncertainTransferFunction.from_coeffs([1.0, 0.0], [0.5, 1.0], ())
    lifted = td.LiftedUncertainPlant.from_transfer(tf, 3)
    assert h.tolist() == [1.0, -0.5, 0.25]
    assert np.array_equal(lifted.markov_at(()), h)
    assert td.markov_from_coeffs([0.0, 0.0], [0.5, 1.0], 2).tolist() == [0.0, 0.0]


def test_lower_toeplitz_solve_matches_dense_solve():
    # first columns shorter than, equal to and longer than the system
    rng = np.random.default_rng(17)
    for N in range(1, 9):
        for width in (1, 2, N, N + 2):
            col = rng.normal(size=width)
            col[0] = rng.choice([-1, 1]) * (0.5 + rng.random())
            T = td.lower_toeplitz(np.concatenate([col, np.zeros(N)])[:N])
            rhs = rng.normal(size=N)
            x = td.lower_toeplitz_solve(col, rhs, 1.0 / col[0])
            np.testing.assert_allclose(x, np.linalg.solve(T, rhs), rtol=1e-10, atol=1e-12)


# -- lifted matrices ---------------------------------------------------------


def test_build_lifted_plant_small():
    P = td.build_lifted_plant(const_markov([1.0, 2.0]))
    vals = P.evaluate({}, {})
    assert np.array_equal(vals, [[1.0, 0.0], [2.0, 1.0]])


def test_build_lifted_plant_placement():
    p = (lin(LAM2, 0, 1, 0), lin(LAM2, 0, 0, 1), lin(LAM2, 1))
    P = td.build_lifted_plant(p)
    vals = P.evaluate(at([0.3, 0.7]), {})
    assert vals[2][0] == pytest.approx(1.0)
    assert vals[2][2] == pytest.approx(0.3)
    assert vals[0][1] == 0.0 and vals[0][2] == 0.0


def test_build_filter_matrix_full_toeplitz():
    # taps (l_{-1}, l0, l1) = (a, b, c) -> [[b, a], [c, b]]
    f = td.LiftedFilter(2, ("a", "b", "c"))
    L = td.build_filter_matrix(f, 2)
    vals = L.evaluate({}, {"a": 0.1, "b": 0.2, "c": 0.3})
    assert np.allclose(vals, [[0.2, 0.1], [0.3, 0.2]])


def test_build_filter_matrix_identity_and_leads():
    q = td.LiftedFilter.identity(3)
    vals = td.build_filter_matrix(q, 3).evaluate({}, {})
    assert np.array_equal(vals, np.eye(3))
    l = td.LiftedFilter.full_decision(3)
    M = td.build_filter_matrix(l, 3)
    zero_gains = {d: 0.0 for d in l.decision_ids()}
    assert M.evaluate({}, zero_gains)[0][2] == 0.0
    lead_only = dict(zero_gains)
    lead_only[l.coeffs[0]] = 1.0  # the two-step lead tap c_{-2}
    assert M.evaluate({}, lead_only)[0][2] == 1.0


def toeplitz_loop(taps, N):
    """Reference map: fill each diagonal d = i - j with its tap c_d."""
    out = np.empty((N, N))
    for d in range(-(N - 1), N):
        for i in range(max(0, d), min(N, N + d)):
            out[i, i - d] = taps[d + N - 1]
    return out


@pytest.mark.parametrize("N", range(1, 7))
def test_toeplitz_map_matches_diagonal_loop(N):
    rng = np.random.default_rng(40 + N)
    taps = rng.normal(size=2 * N - 1)
    assert np.array_equal(td.toeplitz_from_taps(taps, N), toeplitz_loop(taps, N))
    col = rng.normal(size=N)
    padded = np.concatenate([np.zeros(N - 1), col])
    assert np.array_equal(td.lower_toeplitz(col), toeplitz_loop(padded, N))
    batch = rng.normal(size=(5, 2 * N - 1))
    full = td.toeplitz_from_taps(batch, N)
    lower = td.lower_toeplitz(batch[:, N - 1:])
    assert full.shape == lower.shape == (5, N, N)
    for k in range(5):
        assert np.array_equal(full[k], toeplitz_loop(batch[k], N))
        assert np.array_equal(lower[k], toeplitz_loop(np.concatenate(
            [np.zeros(N - 1), batch[k, N - 1:]]), N))
    with pytest.raises(ValueError):
        td.toeplitz_from_taps(np.zeros(2 * N), N)

    # the polynomial builders read the same map: evaluated at a point (and
    # the decisions at values), they are the numeric matrices
    markov = [lin(LAM2, *rng.normal(size=3)) for _ in range(N)]
    filt = td.LiftedFilter(N, tuple(f"c{k}" if k % 2 else float(rng.normal())
                                    for k in range(2 * N - 1)))
    gains = {c: float(rng.normal()) for c in filt.decision_ids()}
    pt = rng.dirichlet([1, 1])
    P = np.asarray(td.build_lifted_plant(markov).evaluate(at(pt), {}))
    np.testing.assert_allclose(P, td.lower_toeplitz([p.evaluate(at(pt)) for p in markov]),
                               rtol=1e-14, atol=1e-15)
    F = np.asarray(td.build_filter_matrix(filt, N, LAM2).evaluate(at(pt), gains))
    np.testing.assert_allclose(F, td.toeplitz_from_taps(filt.numeric(gains), N),
                               rtol=1e-14, atol=1e-15)


def test_filter_length_checked():
    with pytest.raises(ValueError):
        td.LiftedFilter(2, (1.0, 0.0))


# -- the LMI block matrix ----------------------------------------------------


def test_build_M_scalar_nominal():
    plant = td.LiftedUncertainPlant(1, const_markov([1.0]), ())
    prob = td.TimeSynthesisProblem(plant, td.LiftedFilter.identity(1),
                                   td.LiftedFilter.causal_decision(1))
    M = td.build_M(prob)
    for l0, gamma in [(0.0, 1.0), (0.7, 0.4), (1.0, 0.0)]:
        vals = M.evaluate({}, {"gamma": gamma, "l0": l0})
        assert np.allclose(vals, [[gamma, 1 - l0], [1 - l0, gamma]])


def test_build_M_uncertain_scalar_hand_expansion():
    plant = td.LiftedUncertainPlant(1, (lin(LAM2, 0, 1, 2),), LAM2)
    q = td.LiftedFilter.identity(1)
    lstr = td.LiftedFilter.causal_decision(1)
    prob = td.TimeSynthesisProblem(plant, q, lstr)
    M = td.build_M(prob)
    # causal Q: [[gamma, 1 - l0 a], [., gamma]], every entry homogeneous of degree 1
    for e in M.entries:
        assert {sum(exp) for exp in e.exps.tolist()} <= {1}
    rng = np.random.default_rng(3)
    for _ in range(100):
        pt = rng.dirichlet([1, 1])
        gamma, l0 = rng.normal(size=2)
        a = pt[0] + 2 * pt[1]
        T = 1 - l0 * a
        G = td.contraction_matrix(plant, q.numeric(), lstr.numeric({"l0": l0}), pt)
        assert G[0, 0] == pytest.approx(T, abs=1e-12)
        vals = M.evaluate(at(pt), {"gamma": gamma, "l0": l0})
        assert np.allclose(vals, [[gamma, T], [T, gamma]], atol=1e-12)


def test_build_M_symmetric():
    rng = np.random.default_rng(8)
    plant = td.LiftedUncertainPlant(
        3, tuple(lin(LAM2, rng.normal() + 2, rng.normal(), rng.normal())
                 for _ in range(3)), LAM2)
    prob = td.TimeSynthesisProblem(plant, td.LiftedFilter.identity(3),
                                   td.LiftedFilter.causal_decision(3))
    M = td.build_M(prob)
    gains = {d: rng.normal() for d in prob.lstructure.decision_ids()}
    gains["gamma"] = 0.3
    for _ in range(10):
        vals = np.asarray(M.evaluate(at(rng.dirichlet([1, 1])), gains))
        assert np.allclose(vals, vals.T, atol=1e-12)


def test_error_dynamics_factorization():
    # for a causal Q the off-diagonal block is P Q (I - L P) P^-1 itself:
    # Q = I with a causal L, and a causal Q with c_1 != 0 with a full L
    rng = np.random.default_rng(17)
    N = 3
    plant = td.LiftedUncertainPlant(
        N, tuple(lin(LAM2, rng.normal() + 2.5, rng.normal(), rng.normal())
                 for _ in range(N)), LAM2)
    for q, lstr in [(td.LiftedFilter.identity(N), td.LiftedFilter.causal_decision(N)),
                    (td.LiftedFilter(N, (0.0, 0.0, 0.7, 0.3, 0.1)),
                     td.LiftedFilter.full_decision(N))]:
        M = td.build_M(td.TimeSynthesisProblem(plant, q, lstr))
        for _ in range(100):
            pt = rng.dirichlet([1, 1])
            gains = {d: rng.normal() for d in lstr.decision_ids()}
            gains["gamma"] = 0.0
            G = td.contraction_matrix(plant, q.numeric(), lstr.numeric(gains), pt)
            vals = np.asarray(M.evaluate(at(pt), gains))
            assert np.max(np.abs(G - vals[N:, :N])) < 1e-8


def random_plant(seed, N):
    """Two-vertex plant: p1 in [0.6, 1.8], later Markov parameters in [-0.5, 0.5]."""
    rng = np.random.default_rng(seed)
    verts = np.vstack([rng.uniform(0.6, 1.8, size=(1, 2)),
                       rng.uniform(-0.5, 0.5, size=(N - 1, 2))])
    return td.LiftedUncertainPlant(N, tuple(lin(LAM2, 0.0, *v) for v in verts), LAM2)


def noncausal_problem():
    # Q = (0.2, 0.6, 0.2) as taps c_-2..c_2, and a full L
    return td.TimeSynthesisProblem(random_plant(202, 3),
                                   td.LiftedFilter(3, (0.0, 0.2, 0.6, 0.2, 0.0)),
                                   td.LiftedFilter.full_decision(3),
                                   epsilon=1e-6, k_max=2, k_tol=1e-7)


def test_build_M_noncausal_q_congruence():
    # a non-causal Q does not commute with P: the block is the congruence by
    # P, [[gamma P^T P, X^T], [X, gamma I]] with X P^-1 the contraction matrix
    prob = noncausal_problem()
    plant, q, lstr = prob.plant, prob.qfilter, prob.lstructure
    N = plant.N
    M = td.build_M(prob)
    assert M.degree_in(LAM2) == 2
    rng = np.random.default_rng(5)
    for _ in range(100):
        pt = rng.dirichlet([1, 1])
        gains = {d: rng.normal() for d in lstr.decision_ids()}
        gains["gamma"] = gamma = rng.uniform(0.1, 2.0)
        G = td.contraction_matrix(plant, q.numeric(), lstr.numeric(gains), pt)
        P = td.lower_toeplitz(plant.markov_at(pt))
        vals = np.asarray(M.evaluate(at(pt), gains))
        assert np.max(np.abs(G - vals[N:, :N] @ np.linalg.inv(P))) < 1e-8
        assert np.allclose(vals[:N, :N], gamma * P.T @ P, atol=1e-12)
        assert np.allclose(vals[N:, N:], gamma * np.eye(N), atol=1e-12)


def paper_plant():
    """The paper's interval plant, theta in [-0.7, -0.5], on the simplex."""
    tv = ("theta",)
    return simplexify(
        [lin(tv, 16, 60), lin(tv, -40)],
        [lin(tv, 1, 16), lin(tv, 4, 20), lin(tv, -20)],
        [[-0.5], [-0.7]], theta_vars=tv)


def paper_lifted(N):
    """The paper's interval plant lifted to N samples: p1 = 2 for every theta."""
    return td.LiftedUncertainPlant.from_transfer(paper_plant(), N)


def constant_lead_problem():
    # Q = (0.2, 0.6, 0.2) and a full L on a plant with a constant p1
    return td.TimeSynthesisProblem(paper_lifted(3),
                                   td.LiftedFilter(3, (0.0, 0.2, 0.6, 0.2, 0.0)),
                                   td.LiftedFilter.full_decision(3),
                                   epsilon=1e-6, k_max=2, k_tol=1e-7)


def test_build_M_noncausal_q_constant_lead():
    # p1 constant: P^-1 is polynomial, so the block keeps the head gamma I and
    # its off-diagonal is the contraction matrix, of degree below 2 deg P
    prob = constant_lead_problem()
    plant, q, lstr = prob.plant, prob.qfilter, prob.lstructure
    N, lam = plant.N, plant.lambda_vars
    assert plant.markov[0].degree() == 0 and plant.markov[2].degree() == 2
    M = td.build_M(prob)
    assert M.degree_in(lam) == 3
    rng = np.random.default_rng(6)
    for _ in range(100):
        pt = rng.dirichlet([1, 1])
        gains = {d: rng.normal() for d in lstr.decision_ids()}
        gains["gamma"] = gamma = rng.uniform(0.1, 2.0)
        G = td.contraction_matrix(plant, q.numeric(), lstr.numeric(gains), pt)
        vals = np.asarray(M.evaluate(dict(zip(lam, pt)), gains))
        assert np.max(np.abs(G - vals[N:, :N])) < 1e-8
        assert np.allclose(vals[:N, :N], gamma * np.eye(N), atol=1e-12)
        assert np.allclose(vals[N:, N:], gamma * np.eye(N), atol=1e-12)


# -- synthesis ---------------------------------------------------------------


def test_synth_nominal_scalar_deadbeat():
    plant = td.LiftedUncertainPlant(1, const_markov([1.0]), ())
    prob = td.TimeSynthesisProblem(plant, td.LiftedFilter.identity(1),
                                   td.LiftedFilter.causal_decision(1))
    res = prob.solve()
    assert res.certified
    assert res.gamma <= 1e-4
    assert res.gains["l0"] == pytest.approx(1.0, abs=1e-3)
    # no uncertainty: the exact level 0 is the only program solved
    assert [k for k, _ in res.diagnostics["k_trace_raw"]] == [0]
    assert res.epsilon is None


def test_synth_uncertain_n2_vs_sampled():
    plant = td.LiftedUncertainPlant(
        2, (lin(LAM2, 1.0), lin(LAM2, 0, 1, -1)), LAM2)
    q = td.LiftedFilter.identity(2)
    prob = td.TimeSynthesisProblem(plant, q, td.LiftedFilter.causal_decision(2),
                                   k_max=2)
    res = prob.solve()
    assert res.certified and res.gamma < 1
    taps = np.concatenate([np.zeros(1), res.gain_list])  # (l_{-1}, l0, l1)
    # dense segment grid over the 1-simplex
    t = np.linspace(0, 1, 201)
    grid = vf.SampleGrid(np.column_stack([t, 1 - t]), np.zeros(1), seed=0)
    gam_hat, _ = vf.sampled_gamma_time(plant, q.numeric(), taps, grid)
    assert gam_hat <= res.gamma + 1e-6
    assert abs(gam_hat - res.gamma) <= 0.01 * res.gamma


@pytest.mark.parametrize("make, gamma_det_adj", [(noncausal_problem, 0.070835),
                                                  (constant_lead_problem, 0.073102)],
                         ids=["congruence", "constant-p1"])
def test_synth_noncausal_q_vs_sampled(make, gamma_det_adj):
    prob = make()
    res = prob.solve()
    assert res.certified and res.gamma < 1
    grid = vf.make_grid(2, resolution=50, n_random=1000, seed=0)
    gam_hat, _ = vf.sampled_gamma_time(prob.plant, prob.qfilter,
                                       prob.lstructure.pinned(res.gains), grid)
    assert gam_hat <= res.gamma + 1e-6
    # the det(P)/adj(P) form of the same condition gave gamma_det_adj
    assert abs(res.gamma - gamma_det_adj) <= 1e-5


def commuting_problem():
    return td.TimeSynthesisProblem(random_plant(101, 2), td.LiftedFilter.identity(2),
                                   td.LiftedFilter.causal_decision(2),
                                   epsilon=1e-6, k_max=2, k_tol=1e-7)


@pytest.mark.parametrize("make", [commuting_problem, noncausal_problem],
                         ids=["commuting", "congruence"])
def test_margin_adds_epsilon_to_gamma(make):
    # the margin is eps times the block's gamma-coefficient (I, or P^T P in the
    # congruence head), so the certified gamma moves by the change in eps
    prob = make()
    small = prob.solve()
    large = dataclasses.replace(prob, epsilon=1e-3).solve()
    assert small.certified and large.certified
    assert large.gamma - small.gamma == pytest.approx(0.999e-3, abs=2e-6)


def test_synth_long_horizon_vs_sampled():
    # N = 10 is beyond the horizon the det(P)/adj(P) form could reach (8)
    N = 10
    plant = random_plant(303, N)
    q = td.LiftedFilter.identity(N)
    prob = td.TimeSynthesisProblem(plant, q, td.LiftedFilter.causal_decision(N))
    res = prob.solve()
    assert res.certified and res.gamma < 1
    assert res.diagnostics["deg_lambda"] == 1
    grid = vf.make_grid(2, resolution=50, n_random=1000, seed=0)
    gam_hat, _ = vf.sampled_gamma_time(plant, q, prob.lstructure.pinned(res.gains), grid)
    assert gam_hat <= res.gamma + 1e-6


def test_synth_k_escalation_monotone():
    # three weights and a Markov parameter of degree 2, so that level 0 is
    # not known to be exact and level 1 is solved too
    lam3 = ("lam1", "lam2", "lam3")
    rng = np.random.default_rng(29)
    for _ in range(2):
        cross = AffinePoly.monomial(lam3, (1, 0, 1), rng.normal())
        plant = td.LiftedUncertainPlant(
            2, (lin(lam3, 2 + rng.random(), *rng.normal(size=3) / 2),
                lin(lam3, 0, *rng.normal(size=3)) + cross), lam3)
        prob = td.TimeSynthesisProblem(plant, td.LiftedFilter.identity(2),
                                       td.LiftedFilter.causal_decision(2),
                                       k_max=1, k_tol=0.0)
        res = prob.solve()
        assert res.diagnostics["level0_exact"] is None
        trace = dict(res.k_trace)
        assert trace[1] <= trace[0] + 1e-6


def three_vertex_affine(N):
    """A lifted plant with three simplex weights and Markov parameters
    linear in them (first parameter positive at every vertex)."""
    lam3 = ("lam1", "lam2", "lam3")
    rng = np.random.default_rng(7)
    verts = np.vstack([rng.uniform(0.6, 1.8, size=(1, 3)),
                       rng.uniform(-0.5, 0.5, size=(N - 1, 3))])
    return td.LiftedUncertainPlant(N, [lin(lam3, 0.0, *v) for v in verts], lam3)


@pytest.mark.parametrize("plant, case, deg_lambda", [
    pytest.param(three_vertex_affine(4), "affine_in_lambda", 1, id="affine-3-weights"),
    pytest.param(paper_lifted(4), "two_weights", 3, id="paper-2-weights"),
])
def test_exact_level0_matches_level2(monkeypatch, plant, case, deg_lambda):
    # where level 0 is exact, the ladder is skipped; forcing it shows that
    # level 2 certifies the same rate
    N = plant.N
    prob = td.TimeSynthesisProblem(plant, td.LiftedFilter.identity(N),
                                   td.LiftedFilter.causal_decision(N), k_max=2, k_tol=0.0)
    res = prob.solve()
    assert res.certified
    assert res.diagnostics["level0_exact"] == case
    assert res.diagnostics["deg_lambda"] == deg_lambda
    assert res.polya_k == 0 and [k for k, _ in res.k_trace] == [0]

    monkeypatch.setattr(result, "level0_exact", lambda M, lam, deg_lambda: None)
    ladder = prob.solve()
    raw = dict(ladder.diagnostics["k_trace_raw"])
    assert sorted(raw) == [0, 1, 2]
    assert raw[0] == res.eta
    assert np.sqrt(raw[2]) == pytest.approx(res.gamma, abs=1e-7)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_lifted_rate_rises_with_horizon_to_the_frequency_rate(r):
    # a causal L of order r: the N x N contraction matrix is the leading block
    # of the (N + 1) x (N + 1) one, so the lifted rate does not fall with N,
    # and no finite horizon exceeds the frequency-domain (infinite) rate
    plant = paper_plant()
    fir = fd.NoncausalFir.causal_decision(r)
    gamma_freq = fd.synth_freq_robust(fd.NoncausalFir.unity(), fir, plant,
                                      epsilon=1e-6, k_max=1).gamma
    gammas = []
    for N in range(r + 1, 7):
        res = td.synth_time(td.TimeSynthesisProblem(
            td.LiftedUncertainPlant.from_transfer(plant, N), td.LiftedFilter.identity(N),
            td.LiftedFilter.from_fir(fir, N), epsilon=1e-6))
        assert res.certified
        gammas.append(res.gamma)
    assert all(a <= b + 1e-6 for a, b in zip(gammas, gammas[1:])), gammas
    assert gammas[-1] <= gamma_freq + 1e-6, (gammas, gamma_freq)


def _refuse(monkeypatch, module, name):
    def refused(*args):
        raise AssertionError(f"{name} ran for a refused program")

    monkeypatch.setattr(module, name, refused)


def test_large_horizon_rejected(monkeypatch):
    # every upper-triangle position of the 2N x 2N block is an equality, so
    # N (2N + 1) above the Schur-dimension cap is refused before the build
    N = next(n for n in range(1, 100) if n * (2 * n + 1) > result.MAX_SCHUR_DIM)
    assert N == 40
    plant = td.LiftedUncertainPlant(N, const_markov([1.0] + [0.0] * (N - 1)), ())
    prob = td.TimeSynthesisProblem(plant, td.LiftedFilter.identity(N),
                                   td.LiftedFilter.causal_decision(N))
    _refuse(monkeypatch, td, "build_M")
    with pytest.raises(ValueError, match=f"N\\(2N \\+ 1\\) = {N * (2 * N + 1)}.*synth_freq"):
        prob.solve()


def test_large_program_rejected(monkeypatch):
    # the lifted paper plant's Markov degree grows with N: its level-0
    # program at N = 12 has p = 3600 equalities, above the cap, although
    # N (2N + 1) = 300 is not; the compiled program is refused unsolved
    N = 12
    assert N * (2 * N + 1) <= result.MAX_SCHUR_DIM < 3600
    prob = td.TimeSynthesisProblem(paper_lifted(N), td.LiftedFilter.identity(N),
                                   td.LiftedFilter.causal_decision(N))
    _refuse(monkeypatch, result.sdp, "solve")
    with pytest.raises(ValueError, match="level-0 program has Schur dimension 3600, above"):
        prob.solve()


@pytest.mark.parametrize("lead", [False, True], ids=["identity", "noncausal"])
def test_large_program_rejected_before_build(monkeypatch, lead):
    # the pre-check reads N alone, whatever form build_M would take: an
    # uncertain affine plant at N = 40 is refused without building its
    # block, with Q = I and with a non-causal Q
    N = 40
    markov = (lin(LAM2, 0.0, 1.0, 1.5),) + tuple(lin(LAM2, 0.0, 0.1, -0.2) for _ in range(N - 1))
    q = (td.LiftedFilter(N, (0.0,) * (N - 2) + (0.2, 0.6, 0.2) + (0.0,) * (N - 2))
         if lead else td.LiftedFilter.identity(N))
    prob = td.TimeSynthesisProblem(td.LiftedUncertainPlant(N, markov, LAM2), q,
                                   td.LiftedFilter.causal_decision(N))
    _refuse(monkeypatch, td, "build_M")
    with pytest.raises(ValueError, match="above the cap.*synth_freq"):
        prob.solve()


def test_vanishing_lead_markov_rejected():
    with pytest.raises(td.SingularPlant):
        td.LiftedUncertainPlant(1, (lin(LAM2, 0, 1, 0),), LAM2)


def test_sign_changing_lead_markov_rejected():
    # p1 = lam1 - 0.3 lam2 vanishes only at lam1 = 0.3 / 1.3, which no
    # sample hits; an affine p1 is decided at the vertices, 1 and -0.3
    with pytest.raises(td.SingularPlant, match="changes sign"):
        td.LiftedUncertainPlant(2, (lin(LAM2, 0, 1, -0.3), lin(LAM2, 0.5)), LAM2)
    # a quadratic p1 is sampled, and its samples change sign too
    quad = lin(LAM2, 0, 1, -0.3) * lin(LAM2, 0, 1, 1)
    with pytest.raises(td.SingularPlant, match="changes sign"):
        td.LiftedUncertainPlant(2, (quad, lin(LAM2, 0.5)), LAM2)
    # one sign on the simplex is accepted, affine or not
    td.LiftedUncertainPlant(2, (lin(LAM2, 0, 1, 0.3), lin(LAM2, 0.5)), LAM2)
    td.LiftedUncertainPlant(2, (lin(LAM2, 0, 1, 0.3) * lin(LAM2, 0, 1, 1), lin(LAM2, 0.5)),
                            LAM2)


def test_problem_validation():
    plant = td.LiftedUncertainPlant(1, const_markov([1.0]), ())
    with pytest.raises(ValueError):
        td.TimeSynthesisProblem(plant, td.LiftedFilter.identity(1),
                                td.LiftedFilter.causal_decision(1), epsilon=0.0)
    with pytest.raises(ValueError):
        td.TimeSynthesisProblem(plant, td.LiftedFilter.causal_decision(1),
                                td.LiftedFilter.causal_decision(1))


def test_from_transfer_lifts_paper_plant():
    lifted = paper_lifted(4)
    # markov samples must match plain numeric long division at each theta
    for pt in [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.4, 0.6])]:
        th = -0.5 * pt[0] - 0.7 * pt[1]
        ref = td.markov_from_coeffs([16 + 60 * th, -40.0],
                                    [16 * th + 1, 4 + 20 * th, -20.0], 4)
        assert np.allclose(lifted.markov_at(pt), ref, atol=1e-12)


def test_from_transfer_matches_numeric_division_on_three_vertices():
    lam = ("a", "b", "c")
    num = [lin(lam, 0.0, 0.3, -0.2, 0.5), lin(lam, 0.0, -0.4, 0.1, 0.2),
           lin(lam, 0.0, 1.0, 1.5, 2.0)]
    den = [lin(lam, 0.0, 0.1, -0.2, 0.05), lin(lam, 0.0, 0.3, 0.1, -0.4),
           lin(lam, 0.0, -0.5, 0.2, 0.6), 1.0]
    plant = UncertainTransferFunction.from_coeffs(num, den, lam)
    N = 8
    lifted = td.LiftedUncertainPlant.from_transfer(plant, N)
    assert [p.degree() for p in lifted.markov[:4]] == [1, 2, 3, 4]
    rng = np.random.default_rng(23)
    for pt in rng.dirichlet(np.ones(3), size=50):
        num_v, den_v = plant.coeff_arrays(dict(zip(lam, pt)))
        np.testing.assert_allclose(lifted.markov_at(pt), td.markov_from_coeffs(num_v, den_v, N),
                                   rtol=1e-12, atol=1e-14)


def test_inverse_markov_inverts_the_lifted_plant():
    # constant p1, the other parameters polynomial in three weights
    lam = ("a", "b", "c")
    rng = np.random.default_rng(29)
    N = 6
    markov = [lin(lam, -1.5)] + [lin(lam, *rng.normal(scale=0.5, size=4)) for _ in range(N - 1)]
    inv = td._inverse_markov(markov)
    for pt in rng.dirichlet(np.ones(3), size=30):
        point = dict(zip(lam, pt))
        P = td.lower_toeplitz([p.evaluate(point) for p in markov])
        Pinv = td.lower_toeplitz([p.evaluate(point) for p in inv])
        np.testing.assert_allclose(P @ Pinv, np.eye(N), atol=1e-12)


def test_from_transfer_requires_strictly_proper():
    plant = UncertainTransferFunction.from_coeffs([1.0, 1.0], [0.5, 1.0], ())
    with pytest.raises(ValueError):
        td.LiftedUncertainPlant.from_transfer(plant, 3)


def test_infeasible_contraction_warns_not_raises():
    # Q = 2I forces gamma >= 2|1 - l0 p1| with p1 in [1, 4]: best is 1.2
    plant = td.LiftedUncertainPlant(1, (lin(LAM2, 0, 1.0, 4.0),), LAM2)
    prob = td.TimeSynthesisProblem(plant, td.LiftedFilter(1, (2.0,)),
                                   td.LiftedFilter.causal_decision(1), k_max=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = prob.solve()
    assert res.not_monotone
    assert res.gamma >= 1.0
    assert any(issubclass(w.category, td.InfeasibleAtAllK) for w in caught)
