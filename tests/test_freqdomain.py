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


@pytest.mark.parametrize("d, distinct", [(1, 1), (2, 51), (3, 1326)])
def test_jury_counts_each_sample_once(d, distinct):
    # den z + c(lam) on the simplex in d coordinates, default resolution 50:
    # C(50 + d - 1, d - 1) distinct grid points, the vertices among them
    lam = tuple(f"lam{i + 1}" for i in range(d))
    c = lin(lam, 0.0, *np.linspace(-0.6, 0.4, d))
    rep = fd.jury_stability(fd.UncertainTransferFunction.from_coeffs([1.0], [c, 1.0], lam))
    assert rep.n_points == distinct
    assert rep.margin == pytest.approx(0.4)  # at the vertex lam1 = 1


def test_jury_paper_plant_robustly_stable():
    rep = fd.jury_stability(paper_plant())
    assert rep.stable
    assert rep.margin > 0.4


# -- circle rationalization --------------------------------------------------


def circle_z(x):
    return (1 - x * x + 2j * x) / (1 + x * x)


def nominal_rate(data, x, gains):
    """(T[0,1] + j T[0,2], nu3) from build_T_hat on a plant without
    uncertainty: their ratio is Q(1 - zLP) at z(x)."""
    T = np.asarray(data.T_hat.evaluate({"x": x}, gains))
    return complex(T[0, 1], T[0, 2]), data.nu3.evaluate({"x": x})


@pytest.mark.parametrize("order", [-1, -2])
def test_fir_rejects_negative_order(order):
    # order -1 used to give an empty FIR, order -2 a length error
    with pytest.raises(ValueError, match="k_lag: must be at least 0"):
        fd.NoncausalFir.causal_decision(order)


def test_tau_trivial_delay():
    plant = fd.UncertainTransferFunction.from_coeffs([1.0], [0.0, 1.0], ())
    data = fd.build_T_hat(fd.NoncausalFir.unity(),
                          fd.NoncausalFir.causal_decision(0), plant)
    assert data.T_hat.variables == ("x",)
    for x in np.linspace(-3, 3, 13):
        for l0 in (-0.5, 0.0, 0.8):
            num, den = nominal_rate(data, x, {"l0": l0, "gamma": 0.0})
            assert num.imag == pytest.approx(0.0, abs=1e-12)
            assert num.real == pytest.approx((1 - l0) * den, abs=1e-9)


def test_tau_dc_evaluation():
    plant = fd.UncertainTransferFunction.from_coeffs([1.0], [0.0, 1.0], ())
    data = fd.build_T_hat(fd.NoncausalFir.unity(),
                          fd.NoncausalFir.causal_decision(1), plant)
    for l0, l1 in [(0.3, 0.2), (1.0, -0.4)]:
        num, den = nominal_rate(data, 0.0, {"l0": l0, "l1": l1, "gamma": 0.0})
        assert num / den == pytest.approx(1 - l0 - l1, abs=1e-9)


def test_tau_identity_on_frozen_plant():
    plant = frozen_theta_plant()
    q = fd.NoncausalFir.unity()
    lstr = fd.NoncausalFir.causal_decision(1)
    data = fd.build_T_hat(q, lstr, plant)
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.uniform(-4, 4)
        gains = {"l0": rng.normal(), "l1": rng.normal(), "gamma": 0.0}
        z = circle_z(x)
        L = lstr.response(z, gains)
        P = plant.response(z, {})
        want = 1.0 - z * L * P
        num, den = nominal_rate(data, x, gains)
        assert abs(num / den - want) < 1e-9


# -- nominal synthesis -------------------------------------------------------


def test_nominal_delay_deadbeat():
    plant = fd.UncertainTransferFunction.from_coeffs([1.0], [0.0, 1.0], ())
    res = fd.synth_freq_nominal(fd.NoncausalFir.unity(),
                                fd.NoncausalFir.causal_decision(0), plant)
    assert res.certified
    assert res.gamma <= 1e-4
    assert res.gains["l0"] == pytest.approx(1.0, abs=1e-3)
    # no uncertainty: the exact level 0 is the only program solved
    assert [k for k, _ in res.diagnostics["k_trace_raw"]] == [0]


@pytest.mark.parametrize("k, order, gamma", [(2, 3, 0.2562961), (5, 2, 0.3626061),
                                            (23, 2, 0.1458774)])
def test_nominal_sweep_designs_end_clean(monkeypatch, k, order, gamma):
    # designs of the benchmark's nominal sweep (theta on 25 points of
    # [-0.7, -0.5]) whose squared-rate programs stalled near the optimum:
    # in the gamma form each solve meets the solver's tolerances as is
    messages = []
    ipm = sdp._solve_ipm

    def recorded_ipm(*args, **kwargs):
        sol = ipm(*args, **kwargs)
        messages.append(sol.message)
        return sol

    monkeypatch.setattr(sdp, "_solve_ipm", recorded_ipm)
    theta = float(np.linspace(-0.7, -0.5, 25)[k])
    res = fd.synth_freq_nominal(fd.NoncausalFir.unity(),
                                fd.NoncausalFir.causal_decision(order),
                                frozen_theta_plant(theta))
    assert res.certified
    assert res.solver_status == "optimal"
    assert messages == [""]
    assert res.gamma == pytest.approx(gamma, abs=1e-6)
    # no margin on a plant without uncertainty: no eps decision, equality
    # or 1x1 Gram block
    assert 1 not in res.diagnostics["block_dims"]
    assert "eps" not in res.gains
    assert res.epsilon is None


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
    assert data.deg_x == 4  # pins the size of the Gram basis in x
    lam_idx = [data.T_hat.variables.index(v) for v in LAM2]
    for e in data.T_hat.entries:
        degs = {sum(exp[i] for i in lam_idx) for exp in e.exps.tolist()}
        assert degs <= {data.deg_lambda}
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.uniform(-3, 3)
        lam = rng.dirichlet([1, 1])
        gains = {"l0": rng.normal(), "l1": rng.normal(), "gamma": rng.random()}
        lam_map = dict(zip(LAM2, lam))
        z = circle_z(x)
        G = 1.0 - z * lstr.response(z, gains) * plant.response(z, lam_map)
        scale = (1 + x * x) ** data.deg_x
        pt = {"x": x, **lam_map}
        nu3 = data.nu3.evaluate(pt) / scale
        T = np.asarray(data.T_hat.evaluate(pt, gains)) / scale
        assert T[0, 1] == pytest.approx(G.real * nu3, abs=1e-9)
        assert T[0, 2] == pytest.approx(G.imag * nu3, abs=1e-9)
        assert T[0, 0] == pytest.approx(gains["gamma"] * nu3 * nu3, abs=1e-9)
        assert np.allclose(T[1:, 1:], gains["gamma"] * np.eye(2), atol=1e-9)


def test_robust_collapses_to_nominal_on_point_plant():
    lam = ("lam1",)
    point = fd.UncertainTransferFunction.from_coeffs(
        [lin(lam, 16 - 36), lin(lam, -40)],
        [lin(lam, 16 * -0.6 + 1), lin(lam, 4 - 12), lin(lam, -20)], lam)
    q = fd.NoncausalFir.unity()
    lstr = fd.NoncausalFir.causal_decision(1)
    # same tiny pinned margin on both sides: written over one simplex
    # variable, the point plant gives the frozen plant's program times a
    # power of lam1, so the bounds agree up to the solver's accuracy
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


def test_robust_without_margin_on_uncertain_plant():
    # epsilon=None is no margin on an uncertain plant too; the program stays
    # solvable and certifies, and dropping a small margin does not raise gamma
    q, lstr = fd.NoncausalFir.unity(), fd.NoncausalFir.causal_decision(0)
    free = fd.synth_freq_robust(q, lstr, paper_plant(), epsilon=None, k_max=1)
    pinned = fd.synth_freq_robust(q, lstr, paper_plant(), epsilon=1e-6, k_max=1)
    assert free.certified and pinned.certified
    assert free.epsilon is None and "eps" not in free.gains
    assert free.gamma <= pinned.gamma + 1e-6
    # the margin is eps times the block's gamma-coefficient: it costs eps on gamma
    margin = fd.synth_freq_robust(q, lstr, paper_plant(), epsilon=1e-3, k_max=1)
    assert margin.certified
    for res, eps in [(pinned, 1e-6), (margin, 1e-3)]:
        assert res.gamma == pytest.approx(free.gamma + eps, abs=1e-6)


def test_margin_does_not_scale_with_the_denominator():
    # 1/(z - theta), theta in [0.85, 0.9]: |den| falls to 0.1 on the circle.
    # A margin eps S on every diagonal entry floored gamma at
    # eps / min |den|^4 = 10 here; eps diag(E, S, S) costs eps whatever the plant
    tv = ("theta",)
    plant = fd.simplexify([lin(tv, 1.0)], [lin(tv, 0.0, -1.0), lin(tv, 1.0)],
                          [[0.85], [0.9]], theta_vars=tv)
    q, lstr = fd.NoncausalFir.unity(), fd.NoncausalFir.causal_decision(1)
    res = fd.synth_freq_robust(q, lstr, plant, k_max=2)
    assert res.certified, str(res.certificate_report)
    assert res.gamma <= 0.2011
    gam_hat, _ = vf.sampled_gamma_freq(plant, q, fd.NoncausalFir(0, 1, res.gain_list))
    assert gam_hat <= res.gamma + 1e-6


def test_robust_rejects_unstable_plant():
    unstable = fd.UncertainTransferFunction.from_coeffs(
        [lin(LAM2, 1)], [lin(LAM2, 0), lin(LAM2, -2), lin(LAM2, 1)], LAM2)
    with pytest.raises(fd.UnstablePlant):
        fd.synth_freq_robust(fd.NoncausalFir.unity(),
                             fd.NoncausalFir.causal_decision(0), unstable)


def test_robust_rejects_decision_q():
    # the decision taps are L's; gain_list reports L, so a free Q tap
    # would be optimized but never reported
    q = fd.NoncausalFir(0, 0, ["q0"])
    with pytest.raises(ValueError, match="decision-free"):
        fd.synth_freq_robust(q, fd.NoncausalFir.causal_decision(1), frozen_theta_plant())


@pytest.mark.parametrize("epsilon", [0.0, -0.1])
def test_robust_rejects_nonpositive_margin(monkeypatch, epsilon):
    # M(gamma - eps) with eps < 0 would certify a rate below the margin-free one
    monkeypatch.setattr(sdp, "solve", lambda *a, **k: pytest.fail("solved"))
    with pytest.raises(ValueError, match="epsilon must be positive"):
        fd.synth_freq_robust(fd.NoncausalFir.unity(), fd.NoncausalFir.causal_decision(0),
                             paper_plant(), epsilon=epsilon, k_max=0)


def test_paper_grams_symmetric_and_certified(monkeypatch):
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
    res = fd.synth_freq_robust(fd.NoncausalFir.unity(), fd.NoncausalFir.causal_decision(1),
                               paper_plant(), k_max=2)
    assert res.certified
    assert grams
    for G in grams:
        assert np.linalg.norm(G - G.T) <= 1e-12 * np.linalg.norm(G)
    assert reports and all(r.passed for r in reports)
