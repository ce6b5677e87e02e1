import numpy as np
import pytest

from ilc_sos.polyalg import AffinePoly
from ilc_sos import freqdomain as fd
from ilc_sos import sdp
from ilc_sos import verify as vf


def lin(vars_, c0, *cs):
    p = AffinePoly.constant(vars_, c0)
    for i, c in enumerate(cs):
        exps = tuple(1 if j == i else 0 for j in range(len(vars_)))
        p = p + AffinePoly.monomial(vars_, exps, c)
    return p


LAM2 = ("lam1", "lam2")


def paper_plant():
    tv = ("theta",)
    return fd.simplexify(
        [lin(tv, 16, 60), lin(tv, -40)],
        [lin(tv, 1, 16), lin(tv, 4, 20), lin(tv, -20)],
        [[-0.5], [-0.7]], theta_vars=tv)


def frozen_theta_plant(th=-0.6):
    # the interval plant pinned at one theta, stable orientation (monic)
    return fd.UncertainTransferFunction.from_coeffs(
        [16 + 60 * th, -40.0], [16 * th + 1, 4 + 20 * th, -20.0], ())


# -- simplex substitution ----------------------------------------------------


def test_simplexify_paper_plant_verbatim():
    plant = paper_plant()
    assert plant.lambda_vars == LAM2
    # monic-normalized: num (30lam1+42lam2-16)/20, 2 ; den .., z-coeff ..
    assert plant.num[0].allclose(lin(LAM2, -0.8, 1.5, 2.1), 1e-12)
    assert plant.num[1].allclose(lin(LAM2, 2.0), 1e-12)
    assert plant.den[0].allclose(lin(LAM2, -0.05, 0.4, 0.56), 1e-12)
    assert plant.den[1].allclose(lin(LAM2, -0.2, 0.5, 0.7), 1e-12)


def test_simplexify_unit_interval():
    tv = ("theta",)
    plant = fd.simplexify([lin(tv, 0, 1)], [lin(tv, 0), lin(tv, 1)],
                          [[0.0], [1.0]], theta_vars=tv)
    # theta = 0*lam1 + 1*lam2
    assert plant.num[0].allclose(lin(LAM2, 0, 0, 1), 1e-12)


def test_simplexify_vertex_consistency():
    tv = ("t1", "t2")
    verts = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
    num = [lin(tv, 1, 1, 0)]
    den = [lin(tv, 0.2, 0, 0.1), lin(tv, 1)]
    plant = fd.simplexify(num, den, verts, theta_vars=tv)
    assert len(plant.lambda_vars) == 4
    for i, v in enumerate(verts):
        lam = {n: (1.0 if j == i else 0.0)
               for j, n in enumerate(plant.lambda_vars)}
        th = dict(zip(tv, v))
        assert plant.num[0].evaluate(lam) == pytest.approx(num[0].evaluate(th))
        assert plant.den[0].evaluate(lam) == pytest.approx(den[0].evaluate(th))


def test_simplexify_empty_polytope():
    with pytest.raises(fd.EmptyPolytope):
        fd.simplexify([lin(("t",), 1)], [lin(("t",), 0), lin(("t",), 1)],
                      [], theta_vars=("t",))


# -- stability screen --------------------------------------------------------


def test_jury_second_order_origin():
    plant = fd.UncertainTransferFunction.from_coeffs([1.0], [0.0, 0.0, 1.0], ())
    rep = fd.jury_stability(plant)
    assert rep.stable and rep.margin > 0


def test_jury_unstable_double_pole():
    plant = fd.UncertainTransferFunction.from_coeffs([1.0], [0.0, -2.0, 1.0], ())
    rep = fd.jury_stability(plant)
    assert not rep.stable
    assert rep.margin < 0


def test_jury_frozen_theta():
    # z^2 - 0.4z - 0.43 as printed for theta = -0.6
    plant = fd.UncertainTransferFunction.from_coeffs(
        [1.0], [-0.43, -0.4, 1.0], ())
    rep = fd.jury_stability(plant)
    assert rep.stable
    assert rep.margin == pytest.approx(0.17, abs=0.02)


def test_jury_matches_root_magnitudes():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 15:
        n = int(rng.integers(1, 5))
        den = np.append(rng.uniform(-1, 1, n), 1.0)
        roots = np.roots(den[::-1])
        worst = np.max(np.abs(roots))
        if abs(worst - 1.0) < 0.05:
            continue  # too close to the boundary for a sign test
        plant = fd.UncertainTransferFunction.from_coeffs([1.0], den, ())
        rep = fd.jury_stability(plant)
        assert rep.stable == (worst < 1.0)
        checked += 1


def test_jury_paper_plant_robustly_stable():
    rep = fd.jury_stability(paper_plant())
    assert rep.stable
    assert rep.margin > 0.4


# -- circle rationalization --------------------------------------------------


def circle_z(x):
    return (1 - x * x + 2j * x) / (1 + x * x)


def test_tau_trivial_delay():
    plant = fd.UncertainTransferFunction.from_coeffs([1.0], [0.0, 1.0], ())
    t1, t2, t3 = fd.tau_decompose(fd.NoncausalFir.unity(),
                                  fd.NoncausalFir.causal_decision(0), plant)
    for x in np.linspace(-3, 3, 13):
        for l0 in (-0.5, 0.0, 0.8):
            a = {"l0": l0}
            assert t2.evaluate({"x": x}, a) == pytest.approx(0.0, abs=1e-12)
            assert t1.evaluate({"x": x}, a) == pytest.approx(
                (1 - l0) * t3.evaluate({"x": x}), abs=1e-9)


def test_tau_dc_evaluation():
    plant = fd.UncertainTransferFunction.from_coeffs([1.0], [0.0, 1.0], ())
    t1, t2, t3 = fd.tau_decompose(fd.NoncausalFir.unity(),
                                  fd.NoncausalFir.causal_decision(1), plant)
    for l0, l1 in [(0.3, 0.2), (1.0, -0.4)]:
        a = {"l0": l0, "l1": l1}
        ratio = (t1.evaluate({"x": 0.0}, a) + 1j * t2.evaluate({"x": 0.0}, a)) \
            / t3.evaluate({"x": 0.0})
        assert ratio == pytest.approx(1 - l0 - l1, abs=1e-9)


def test_tau_identity_on_frozen_plant():
    plant = frozen_theta_plant()
    q = fd.NoncausalFir.unity()
    lstr = fd.NoncausalFir.causal_decision(1)
    t1, t2, t3 = fd.tau_decompose(q, lstr, plant)
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.uniform(-4, 4)
        gains = {"l0": rng.normal(), "l1": rng.normal()}
        z = circle_z(x)
        L = lstr.response(z, gains)
        P = plant.response(z, {})
        want = 1.0 - z * L * P
        got = (t1.evaluate({"x": x}, gains) + 1j * t2.evaluate({"x": x}, gains)) \
            / t3.evaluate({"x": x})
        assert abs(got - want) < 1e-9


def test_tau_rejects_uncertain_plant():
    with pytest.raises(ValueError):
        fd.tau_decompose(fd.NoncausalFir.unity(),
                         fd.NoncausalFir.causal_decision(0), paper_plant())


# -- nominal synthesis -------------------------------------------------------


def test_nominal_delay_deadbeat():
    plant = fd.UncertainTransferFunction.from_coeffs([1.0], [0.0, 1.0], ())
    res = fd.synth_freq_nominal(fd.NoncausalFir.unity(),
                                fd.NoncausalFir.causal_decision(0), plant)
    assert res.certified
    assert res.gamma <= 1e-4
    assert res.gains["l0"] == pytest.approx(1.0, abs=1e-3)


def test_nominal_pinned_gain():
    plant = fd.UncertainTransferFunction.from_coeffs([1.0], [0.0, 1.0], ())
    res = fd.synth_freq_nominal(fd.NoncausalFir.unity(),
                                fd.NoncausalFir(0, 0, [0.5]), plant)
    assert res.gamma == pytest.approx(0.5, abs=1e-4)


def _sup_gain(plant, taps, omegas):
    z = np.exp(1j * omegas)
    L = sum(t * z ** (-d) for d, t in enumerate(taps))
    P = np.array([plant.response(zz, {}) for zz in z])
    return np.max(np.abs(1.0 - z * L * P))


def _nelder_mead(f, x0, steps=250):
    # bare-bones simplex descent, good enough for a smooth 3-d objective
    n = len(x0)
    pts = [np.array(x0, dtype=float)]
    for i in range(n):
        p = np.array(x0, dtype=float)
        p[i] += 0.25
        pts.append(p)
    vals = [f(p) for p in pts]
    for _ in range(steps):
        order = np.argsort(vals)
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        centroid = np.mean(pts[:-1], axis=0)
        xr = centroid + (centroid - pts[-1])
        fr = f(xr)
        if fr < vals[0]:
            xe = centroid + 2 * (centroid - pts[-1])
            fe = f(xe)
            pts[-1], vals[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < vals[-2]:
            pts[-1], vals[-1] = xr, fr
        else:
            xc = centroid + 0.5 * (pts[-1] - centroid)
            fc = f(xc)
            if fc < vals[-1]:
                pts[-1], vals[-1] = xc, fc
            else:
                pts = [pts[0] + 0.5 * (p - pts[0]) for p in pts]
                vals = [f(p) for p in pts]
    return min(vals)


def test_nominal_frozen_plant_vs_grid_search():
    plant = frozen_theta_plant()
    res = fd.synth_freq_nominal(fd.NoncausalFir.unity(),
                                fd.NoncausalFir.causal_decision(2), plant)
    assert res.certified
    omegas = np.linspace(0, 2 * np.pi, 600, endpoint=False)

    def f(taps):
        return _sup_gain(plant, taps, omegas)

    # coarse grid start, then local refinement
    axis = np.linspace(-0.3, 1.0, 6)
    best = min((f((a, b, c)), (a, b, c))
               for a in axis for b in axis for c in axis)[1]
    oracle = _nelder_mead(f, best)
    assert abs(oracle - res.gamma) <= 0.01 * res.gamma + 1e-4


# -- robust pieces -----------------------------------------------------------


def test_T_hat_structure_and_identity():
    plant = paper_plant()
    q = fd.NoncausalFir.unity()
    lstr = fd.NoncausalFir.causal_decision(1)
    data = fd.build_T_hat(q, lstr, plant)
    lam_idx = [data.T_hat.variables.index(v) for v in LAM2]
    for e in data.T_hat.entries:
        degs = {sum(exp[i] for i in lam_idx) for exp in e.terms}
        assert degs <= {data.deg_lambda}
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.uniform(-3, 3)
        lam = rng.dirichlet([1, 1])
        gains = {"l0": rng.normal(), "l1": rng.normal(), "eta": rng.random()}
        lam_map = dict(zip(LAM2, lam))
        z = circle_z(x)
        G = 1.0 - z * lstr.response(z, gains) * plant.response(z, lam_map)
        x1 = (1 - x * x) / (1 + x * x)
        x2 = 2 * x / (1 + x * x)
        nu3 = data.nu3.evaluate({"x1": x1, "x2": x2, **lam_map})
        scale = (1 + x * x) ** data.deg_x
        pt = {"x": x, **lam_map}
        T = np.asarray(data.T_hat.evaluate(pt, gains)) / scale
        assert T[0, 1] == pytest.approx(G.real * nu3, abs=1e-9)
        assert T[0, 2] == pytest.approx(G.imag * nu3, abs=1e-9)
        assert T[0, 0] == pytest.approx(gains["eta"] * nu3 * nu3, abs=1e-9)
        assert np.allclose(T[1:, 1:], np.eye(2), atol=1e-9)


def test_robust_collapses_to_nominal_on_point_plant():
    lam = ("lam1",)
    point = fd.UncertainTransferFunction.from_coeffs(
        [lin(lam, 16 - 36), lin(lam, -40)],
        [lin(lam, 16 * -0.6 + 1), lin(lam, 4 - 12), lin(lam, -20)], lam)
    q = fd.NoncausalFir.unity()
    lstr = fd.NoncausalFir.causal_decision(1)
    # same tiny pinned margin on both sides: the robust build subtracts eps
    # from the whole diagonal, the nominal one only from the head, so the
    # bounds only coincide as eps -> 0
    robust = fd.synth_freq_robust(q, lstr, point, epsilon=1e-6, k_max=1)
    nominal = fd.synth_freq_nominal(q, lstr, frozen_theta_plant(), epsilon=1e-6)
    assert robust.gamma == pytest.approx(nominal.gamma, abs=1e-4)


def test_robust_paper_order0():
    res = fd.synth_freq_robust(fd.NoncausalFir.unity(),
                               fd.NoncausalFir.causal_decision(0),
                               paper_plant(), k_max=0)
    assert res.certified
    assert 0.79 <= res.gamma <= 0.83
    assert 0.28 <= res.gains["l0"] <= 0.33


def test_robust_order_monotonicity_and_sampled_bound():
    plant = paper_plant()
    q = fd.NoncausalFir.unity()
    res0 = fd.synth_freq_robust(q, fd.NoncausalFir.causal_decision(0),
                                plant, k_max=0)
    res1 = fd.synth_freq_robust(q, fd.NoncausalFir.causal_decision(1),
                                plant, k_max=0)
    assert res1.gamma <= res0.gamma + 1e-6
    grid = vf.make_grid(2, resolution=398, n_random=0, n_freq=400, seed=1)
    for res, order in [(res0, 0), (res1, 1)]:
        taps = fd.NoncausalFir(0, order, res.gain_list)
        gam_hat, _ = vf.sampled_gamma_freq(plant, q, taps, grid)
        assert gam_hat <= res.gamma + 1e-4


def test_robust_rejects_unstable_plant():
    unstable = fd.UncertainTransferFunction.from_coeffs(
        [lin(LAM2, 1)], [lin(LAM2, 0), lin(LAM2, -2), lin(LAM2, 1)], LAM2)
    with pytest.raises(fd.UnstablePlant):
        fd.synth_freq_robust(fd.NoncausalFir.unity(),
                             fd.NoncausalFir.causal_decision(0), unstable)


# -- alternating refinement --------------------------------------------------


def test_alternate_single_round_is_direct():
    plant = frozen_theta_plant()
    prob = fd.FreqSynthesisProblem(plant, fd.NoncausalFir.unity(),
                                   fd.NoncausalFir.causal_decision(1))
    seq = fd.alternate_LQ(prob, rounds=1)
    direct = prob.solve()
    assert len(seq) == 1
    assert seq[0].gamma == pytest.approx(direct.gamma, abs=1e-12)


def test_alternate_descends_with_q_bounds():
    plant = frozen_theta_plant()
    prob = fd.FreqSynthesisProblem(plant, fd.NoncausalFir.unity(),
                                   fd.NoncausalFir.causal_decision(1))
    seq = fd.alternate_LQ(prob, rounds=2, q_constraints={"q0": (0.8, 1.0)})
    assert len(seq) == 2
    assert seq[1].gamma <= seq[0].gamma + 1e-6
    # the q-round should exploit the full slack allowed by the bound
    assert seq[1].gamma == pytest.approx(0.8 * seq[0].gamma, rel=0.02)


def test_alternate_paper_three_rounds(monkeypatch):
    # every Gram the IPM returns is symmetric, and every certificate check
    # (one per checked level: nothing re-solves) passes
    grams, reports = [], []
    ipm, check = sdp._solve_ipm, sdp.check_certificate

    def recorded_ipm(*args, **kwargs):
        sol = ipm(*args, **kwargs)
        grams.extend(sol.gram_values)
        return sol

    def recorded_check(*args, **kwargs):
        reports.append(check(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(sdp, "_solve_ipm", recorded_ipm)
    monkeypatch.setattr(sdp, "check_certificate", recorded_check)
    prob = fd.FreqSynthesisProblem(paper_plant(), fd.NoncausalFir.unity(),
                                   fd.NoncausalFir.causal_decision(1),
                                   k_max=2)
    seq = fd.alternate_LQ(prob, rounds=3, q_constraints={"q0": (0.9, 1.0)})
    for a, b in zip(seq, seq[1:]):
        assert b.gamma <= a.gamma + 1e-6
    assert seq[-1].gamma <= 0.683 + 1e-6
    for G in grams:
        assert np.linalg.norm(G - G.T) <= 1e-12 * np.linalg.norm(G)
    assert reports and all(r.passed for r in reports)


def test_alternate_rejects_bad_rounds():
    prob = fd.FreqSynthesisProblem(frozen_theta_plant(), fd.NoncausalFir.unity(),
                                   fd.NoncausalFir.causal_decision(0))
    with pytest.raises(ValueError):
        fd.alternate_LQ(prob, rounds=0)
