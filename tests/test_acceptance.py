"""End-to-end acceptance runs, one test per shipped guarantee.

The benchmark interval plant is synthesized once (all learning-function
orders, full escalation) and the remaining checks reuse those results; the
file takes about 14 s.  Run it with -v to get one verdict per line.
"""

import sys

import numpy as np
import pytest

from ilc_sos.polyalg import (
    AffinePoly,
    PolyMatrix,
    homogenize,
    substitute_squares,
)
from ilc_sos.soscompiler import SosCertificate, check_certificate, kron_pairs, monomial_basis
from ilc_sos import freqdomain as fd
from ilc_sos import sdp
from ilc_sos import timedomain as td
from ilc_sos import simulate as sim
from ilc_sos import verify as vf


def lin(vars_, c0, *cs):
    p = AffinePoly.constant(vars_, c0)
    for i, c in enumerate(cs):
        exps = tuple(1 if j == i else 0 for j in range(len(vars_)))
        p = p + AffinePoly.monomial(vars_, exps, c)
    return p


def benchmark_plant():
    tv = ("theta",)
    return fd.simplexify(
        [lin(tv, 16, 60), lin(tv, -40)],
        [lin(tv, 1, 16), lin(tv, 4, 20), lin(tv, -20)],
        [[-0.5], [-0.7]], theta_vars=tv)


@pytest.fixture(scope="module")
def paper_synthesis():
    """Robust synthesis on the benchmark plant for orders 0..3, Q = 1,
    eps = 1e-3, escalation forced through k = 3 (order 3 needs no ladder)."""
    plant = benchmark_plant()
    q = fd.NoncausalFir.unity()
    results = {}
    ipm_calls, calls = {}, []
    ipm = sdp._solve_ipm
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdp, "_solve_ipm", lambda *a, **kw: calls.append(a) or ipm(*a, **kw))
        for order, k_max in ((0, 3), (1, 3), (2, 3), (3, 0)):
            before = len(calls)
            results[order] = fd.synth_freq_robust(
                q, fd.NoncausalFir.causal_decision(order), plant,
                epsilon=1e-3, k_max=k_max, k_tol=0.0)
            ipm_calls[order] = len(calls) - before
    return {"plant": plant, "q": q, "results": results, "ipm_calls": ipm_calls}


def test_criterion_1_paper_table_reproduction(paper_synthesis):
    res = paper_synthesis["results"]
    for order in (0, 1, 2):
        assert res[order].certified, f"order {order} certificate failed"

    assert 0.79 <= res[0].gamma <= 0.83
    assert 0.28 <= res[0].gains["l0"] <= 0.33

    assert 0.66 <= res[1].gamma <= 0.70
    assert res[1].gain_list == pytest.approx([0.326, -0.132], abs=0.05)

    assert 0.44 <= res[2].gamma <= 0.48

    # escalation can only help: bound at k = 3 within 1e-6 of the k = 0 one
    for order in (0, 1, 2):
        trace = {k: np.sqrt(max(v, 0.0)) for k, v in res[order].k_trace}
        assert trace[3] <= trace[0] + 1e-6


def test_criterion_1_one_ipm_run_per_level(paper_synthesis):
    # every escalation level is one IPM run from the data-scaled start, and
    # its certificate is checked as solved: no restart, no re-solve
    for order, res in paper_synthesis["results"].items():
        assert paper_synthesis["ipm_calls"][order] == len(res.k_trace)
        assert res.certified


def test_criterion_1_raw_polya_ladder_does_not_rise(paper_synthesis):
    # the raw per-level bound is non-increasing in k (a level-j Gram stays
    # valid at every k > j), so no solved level may end above k = 0
    for order in (0, 1, 2):
        raw = dict(paper_synthesis["results"][order].diagnostics["k_trace_raw"])
        for k, eta in raw.items():
            assert eta <= raw[0] + 1e-6, \
                f"order {order}: raw eta {eta} at k = {k} above k = 0 ({raw[0]})"


def test_criterion_2_order3_gains(paper_synthesis):
    res = paper_synthesis["results"][3]
    assert res.certified
    assert 0.30 <= res.gamma <= 0.34
    assert res.gain_list == pytest.approx([0.508, -0.0716, 0.189, -0.197],
                                          abs=0.05)


def test_criterion_3_sampled_oracle_soundness(paper_synthesis):
    plant = paper_synthesis["plant"]
    q = paper_synthesis["q"]
    grid = vf.make_grid(2, resolution=1, n_random=1000, n_freq=720, seed=0)
    for order, res in paper_synthesis["results"].items():
        lf = fd.NoncausalFir(0, order, res.gain_list)
        gamma_hat, _ = vf.sampled_gamma_freq(plant, q, lf, grid)
        assert gamma_hat <= res.gamma + 1e-4, \
            f"order {order}: sampled {gamma_hat} above bound {res.gamma}"


def test_criterion_4_simulation_envelope(paper_synthesis):
    res = paper_synthesis["results"][3]
    gamma = res.gamma
    N = 100
    y_d = np.sin(2 * np.pi * np.arange(N) / N)
    l_taps = np.concatenate([np.zeros(N - 1), res.gain_list, np.zeros(N - 4)])
    rng = np.random.default_rng(42)
    for run in range(30):
        th = rng.uniform(-0.7, -0.5)
        num = np.array([16 + 60 * th, -40.0])
        den = np.array([16 * th + 1, 4 + 20 * th, -20.0])
        h = td.markov_from_coeffs(num / den[-1], den / den[-1], N)
        d = sim.sample_disturbance(N, seed=1000 + run)
        trace = sim.run_ilc(h, np.eye(N), l_taps,
                            sim.TrialConfig(y_d, d, trials=40))
        assert max(trace.contraction_ratios) <= gamma + 0.02
        norms = trace.error_norms
        assert min(norms) < 1e-8, f"run {run} never reached 1e-8"
        for j in range(len(norms) - 1):
            if norms[j] > 1e-8:
                assert norms[j + 1] <= norms[j], \
                    f"run {run}: error grew at trial {j}"


def test_criterion_5_time_domain_brute_force_match():
    lam = ("lam1", "lam2")

    def random_plant(seed, N):
        rng = np.random.default_rng(seed)
        verts = np.empty((N, 2))
        verts[0] = rng.uniform(0.6, 1.8, size=2)
        verts[1:] = rng.uniform(-0.5, 0.5, size=(N - 1, 2))
        markov = [lin(lam, 0.0, verts[i, 0], verts[i, 1]) for i in range(N)]
        return td.LiftedUncertainPlant(N, markov, lam), verts

    def brute_force(verts):
        # zooming grid over the causal taps; gamma(l) is the max over a
        # segment mesh of sigma_max(I - P(lambda) L), exact since Q = I and
        # triangular Toeplitz matrices commute
        N = verts.shape[0]
        Zp = [np.linalg.matrix_power(np.diag(np.ones(N - 1), -1), t)
              for t in range(N)]

        def basis_mats(n_lam):
            t = np.linspace(0, 1, n_lam)
            lams = np.column_stack([t, 1 - t])
            out = np.empty((n_lam, N, N, N))
            for k, pt in enumerate(lams):
                P = sum((verts @ pt)[i] * Zp[i] for i in range(N))
                for j in range(N):
                    out[k, j] = P @ Zp[j]
            return out

        center, width, best = np.zeros(verts.shape[0]), 1.5, None
        for n_l, n_lam in ((17, 51), (13, 201), (13, 401)):
            axes = [np.linspace(c - width, c + width, n_l) for c in center]
            mesh = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, N)
            B = basis_mats(n_lam)
            X = np.eye(N)[None, None] - np.einsum("lt,ktij->lkij", mesh, B)
            gam = np.linalg.svd(X, compute_uv=False)[..., 0].max(axis=1)
            i = int(np.argmin(gam))
            best, center = float(gam[i]), mesh[i]
            width = float(axes[0][1] - axes[0][0]) * 1.5
        return best

    for seed, N in ((101, 2), (202, 3), (303, 3)):
        plant, verts = random_plant(seed, N)
        reference = brute_force(verts)
        res = td.TimeSynthesisProblem(
            plant, td.LiftedFilter.identity(N),
            td.LiftedFilter.causal_decision(N),
            epsilon=1e-6, k_max=8, k_tol=1e-7).solve()
        assert res.certified
        assert abs(res.gamma - reference) <= 0.02 * reference, \
            f"seed {seed}: sos {res.gamma} vs brute force {reference}"


def test_criterion_6_nominal_exactness():
    plant = fd.UncertainTransferFunction.from_coeffs([1.0], [0.0, 1.0], ())
    res = fd.synth_freq_nominal(fd.NoncausalFir.unity(),
                                fd.NoncausalFir.causal_decision(0), plant)
    assert res.certified
    assert res.gamma <= 1e-4
    assert res.gains["l0"] == pytest.approx(1.0, abs=1e-3)


def test_criterion_7_structural_properties():
    rng = np.random.default_rng(2024)
    lam = ("lam1", "lam2", "lam3")

    # homogenization is the identity on the simplex
    def rand_poly():
        p = AffinePoly.constant(lam, rng.normal())
        for _ in range(4):
            exps = tuple(int(e) for e in rng.integers(0, 3, size=3))
            p = p + AffinePoly.monomial(lam, exps, rng.normal())
        return p

    T = PolyMatrix.from_rows([[rand_poly() for _ in range(2)] for _ in range(2)])
    Tbar = homogenize(T, lam)
    pts = rng.dirichlet(np.ones(3), size=1000)
    worst = 0.0
    for pt in pts:
        at = dict(zip(lam, pt))
        worst = max(worst, np.max(np.abs(T.evaluate(at) - Tbar.evaluate(at))))
    assert worst <= 1e-9

    # substituting squares evaluates as lam = mu^2 (draws bounded like the
    # simplex ball the substitution targets, else float dust dominates)
    Tsq = substitute_squares(Tbar, lam)
    mus = rng.uniform(-1.2, 1.2, size=(1000, 3))
    worst = 0.0
    for mu in mus:
        direct = Tbar.evaluate(dict(zip(lam, mu ** 2)))
        subbed = Tsq.evaluate(dict(zip(lam, mu)))
        worst = max(worst, np.max(np.abs(direct - subbed)))
    assert worst <= 1e-9

    # circle rationalization of a plant without uncertainty (T_hat's first
    # row over x) against a direct response
    plant = fd.UncertainTransferFunction.from_coeffs(
        [16 + 60 * -0.6, -40.0], [16 * -0.6 + 1, 4 + 20 * -0.6, -20.0], ())
    lf = fd.NoncausalFir(0, 2, [0.4, -0.1, 0.2])
    data = fd.build_T_hat(fd.NoncausalFir.unity(), lf, plant)
    num, den = plant.coeff_arrays({})
    worst = 0.0
    for x in rng.normal(size=1000):
        z = (1 - x * x + 2j * x) / (1 + x * x)
        P = (num[0] + num[1] * z) / (den[0] + den[1] * z + z * z)
        L = 0.4 - 0.1 / z + 0.2 / z ** 2
        direct = 1.0 - z * L * P
        at = {"x": float(x)}
        ratio = ((data.T_hat[0, 1].evaluate(at) + 1j * data.T_hat[0, 2].evaluate(at))
                 / data.nu3.evaluate(at))
        worst = max(worst, abs(ratio - direct))
    assert worst <= 1e-9

    # circle rationalization with uncertain coefficients this time
    upoly = benchmark_plant()
    data = fd.build_T_hat(fd.NoncausalFir.unity(), fd.NoncausalFir(0, 1, [0.3, -0.2]), upoly)
    worst = 0.0
    for _ in range(1000):
        w = rng.uniform(0, 2 * np.pi)
        z = np.exp(1j * w)
        pt = rng.dirichlet(np.ones(2))
        at = {"x": np.tan(w / 2), "lam1": pt[0], "lam2": pt[1]}
        num, den = upoly.coeff_arrays(dict(zip(upoly.lambda_vars, pt)))
        P = (num[0] + num[1] * z) / (den[0] + den[1] * z + z * z)
        direct = 1.0 - z * (0.3 - 0.2 / z) * P
        ratio = ((data.T_hat[0, 1].evaluate(at) + 1j * data.T_hat[0, 2].evaluate(at))
                 / data.nu3.evaluate(at))
        worst = max(worst, abs(ratio - direct))
    assert worst <= 1e-9

    # causal lifted operators commute: P Q (I - L P) = Q (I - P L) P as
    # polynomials, for any L (the rate matrix of build_M's causal-Q form)
    lam2 = ("lam1", "lam2")
    markov = [lin(lam2, 0.0, rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5))]
    markov += [lin(lam2, 0.0, rng.normal(), rng.normal()) for _ in range(3)]
    P = td.build_lifted_plant(markov)
    Q = td.build_filter_matrix(td.LiftedFilter(4, (0.0,) * 3 + tuple(rng.normal(size=4))),
                               4, lam2)
    L = td.build_filter_matrix(td.LiftedFilter.full_decision(4), 4, lam2)
    I = PolyMatrix.identity(4, lam2)
    for a, b in zip((P @ Q @ (I - L @ P)).entries, (Q @ (I - P @ L) @ P).entries):
        assert a.allclose(b, 1e-12)

    # Gram certificate round-trip at machine precision
    basis = monomial_basis(("x", "y"), [(("x", "y"), "graded", 2)])
    m, nb = 2, len(basis)
    A = rng.normal(size=(nb * m, nb * m))
    G = A @ A.T / (nb * m)
    entries = [[AffinePoly.zero(("x", "y")) for _ in range(m)] for _ in range(m)]
    for i, mi in enumerate(basis):
        for j, mj in enumerate(basis):
            mu = tuple(p + q for p, q in zip(mi, mj))
            for r in range(m):
                for s in range(m):
                    entries[r][s] = entries[r][s] + AffinePoly.monomial(
                        ("x", "y"), mu, G[i * m + r, j * m + s])
    S = PolyMatrix.from_rows(entries)
    cert = SosCertificate(grams=[G], bases=[kron_pairs(basis, m)])
    report = check_certificate(S, {}, cert)
    assert report.residual <= 1e-12
    assert report.passed

    # the whole pipeline above ran without any external SDP solver
    external = {"cvxpy", "mosek", "scs", "ecos", "clarabel", "cvxopt", "sdpa"}
    assert not external & set(sys.modules)


def test_criterion_8_jury_screen():
    report = fd.jury_stability(benchmark_plant())
    assert report.stable
    assert report.margin > 0

    unstable = fd.UncertainTransferFunction.from_coeffs(
        [1.0], [0.0, -2.0, 1.0], ())
    report = fd.jury_stability(unstable)
    assert not report.stable
