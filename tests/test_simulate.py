import numpy as np
import pytest

from ilc_sos import simulate as sim
from ilc_sos.timedomain import lower_toeplitz


def causal_matrix(col, N):
    assert len(col) == N
    return lower_toeplitz(col)


def random_setup(seed, N=6):
    rng = np.random.default_rng(seed)
    col = rng.normal(size=N) * 0.4
    col[0] = 1.0 + abs(col[0])          # keep the plant invertible
    y_d = np.sin(2 * np.pi * np.arange(N) / N) + rng.normal(size=N) * 0.1
    d = rng.uniform(-0.1, 0.1, size=N)
    return col, y_d, d


def test_deadbeat_kills_error_in_one_trial():
    col, y_d, d = random_setup(0)
    N = len(col)
    P = causal_matrix(col, N)
    cfg = sim.TrialConfig(y_d=y_d, d=d, trials=3)
    trace = sim.run_ilc(col, np.eye(N), np.linalg.inv(P), cfg)
    assert trace.error_norms[0] > 0.1
    assert trace.error_norms[1] < 1e-12
    assert np.linalg.norm(trace.e_infinity) < 1e-12


def test_unity_q_converges_to_zero_error():
    col, y_d, d = random_setup(1)
    N = len(col)
    L = causal_matrix(np.array([0.5] + [0.0] * (N - 1)), N)
    cfg = sim.TrialConfig(y_d=y_d, d=d, trials=200)
    trace = sim.run_ilc(col, np.eye(N), L, cfg)
    assert np.linalg.norm(trace.e_infinity) < 1e-12
    assert trace.error_norms[-1] < 1e-10


def test_filtered_q_leaves_residual():
    # Q = 0.5 I, L = 0: inputs decay to zero, the error parks at y_d - d
    col, y_d, d = random_setup(2)
    N = len(col)
    cfg = sim.TrialConfig(y_d=y_d, d=d, trials=10)
    trace = sim.run_ilc(col, 0.5 * np.eye(N), np.zeros((N, N)), cfg)
    assert trace.e_infinity == pytest.approx(y_d - d, abs=1e-12)
    assert trace.error_norms[-1] == pytest.approx(np.linalg.norm(y_d - d))


def test_no_learning_is_marginal_not_divergent():
    # L = 0, Q = I: iteration map is the identity (rho = 1); errors stay
    # constant and no contraction ratios are recorded
    col, y_d, d = random_setup(3)
    N = len(col)
    cfg = sim.TrialConfig(y_d=y_d, d=d, trials=5)
    trace = sim.run_ilc(col, np.eye(N), np.zeros((N, N)), cfg)
    assert np.ptp(trace.error_norms) == 0.0
    assert trace.contraction_ratios == []


def test_fixed_point_matches_long_recursion():
    col, y_d, d = random_setup(4)
    N = len(col)
    L = causal_matrix(np.array([0.6, 0.1] + [0.0] * (N - 2)), N)
    Q = 0.95 * np.eye(N)
    cfg = sim.TrialConfig(y_d=y_d, d=d, trials=500)
    trace = sim.run_ilc(col, Q, L, cfg, keep_vectors=True)
    assert np.linalg.norm(trace.errors[-1] - trace.e_infinity) < 1e-9


def test_divergent_learning_raises():
    cfg = sim.TrialConfig(y_d=np.ones(1), d=np.zeros(1), trials=5)
    with pytest.raises(sim.Divergent):
        sim.run_ilc(np.array([1.0]), np.eye(1), np.array([[-3.0]]), cfg)


def test_overflowing_recursion_is_divergent():
    # zero plant, Q = I: the map is I (spectral radius 1), so the fixed point
    # comes from the recursion, whose iterate grows by 1e300 (y_d - d) a
    # trial; its norm overflows, and inf <= 1e-13 * inf must not settle it
    N = 3
    with pytest.raises(sim.Divergent, match="overflows"):
        sim.asymptotic_error(np.zeros(N), np.eye(N), 1e300 * np.eye(N),
                             np.ones(N), np.zeros(N))


def test_ratios_obey_contraction_bound():
    col, y_d, d = random_setup(5)
    N = len(col)
    P = causal_matrix(col, N)
    L = causal_matrix(np.array([0.4, 0.05] + [0.0] * (N - 2)), N)
    Q = np.eye(N)
    gamma = np.linalg.svd(P @ (Q - Q @ L @ P) @ np.linalg.inv(P),
                          compute_uv=False)[0]
    assert gamma < 1
    cfg = sim.TrialConfig(y_d=y_d, d=d, trials=60)
    trace = sim.run_ilc(col, Q, L, cfg, keep_vectors=True)
    assert max(trace.contraction_ratios) <= gamma + 1e-9
    d0 = np.linalg.norm(trace.errors[0] - trace.e_infinity)
    for j, e in enumerate(trace.errors):
        dist = np.linalg.norm(e - trace.e_infinity)
        assert dist <= gamma ** j * d0 * (1 + 1e-9) + 1e-12


def test_lead_taps_flagged_as_truncated():
    col, y_d, d = random_setup(6)
    N = len(col)
    cfg = sim.TrialConfig(y_d=y_d, d=d, trials=2)
    # taps c_{-(N-1)}..c_{N-1}: c_d sits at index d + N - 1 and acts on the
    # input d samples in the past, so d < 0 reaches ahead of the sample
    lead = np.zeros(2 * N - 1)
    lead[N - 1] = 0.3   # current sample
    lead[N - 2] = 0.2   # one sample ahead (c_{-1})
    trace = sim.run_ilc(col, np.eye(N), lead, cfg)
    assert trace.truncated_noncausal
    causal = np.zeros(2 * N - 1)
    causal[N - 1] = 0.3
    causal[N] = 0.2     # one sample in the past (c_1)
    trace = sim.run_ilc(col, np.eye(N), causal, cfg)
    assert not trace.truncated_noncausal
    # the same filters as matrices: a lead sits above the diagonal
    assert sim.run_ilc(col, np.eye(N), lower_toeplitz(causal[N - 1:]).T, cfg).truncated_noncausal
    assert not sim.run_ilc(col, np.eye(N), lower_toeplitz(causal[N - 1:]), cfg).truncated_noncausal


def test_disturbance_sampler_reproducible():
    a = sim.sample_disturbance(50, seed=9)
    b = sim.sample_disturbance(50, seed=9)
    c = sim.sample_disturbance(50, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.max(np.abs(a)) <= 0.1


def test_config_validation():
    with pytest.raises(ValueError):
        sim.TrialConfig(y_d=np.ones(4), d=np.ones(5))
    with pytest.raises(ValueError):
        sim.TrialConfig(y_d=np.ones(4), d=np.ones(4), trials=0)
    with pytest.raises(ValueError):
        sim.TrialConfig(y_d=np.ones(4), d=np.ones(4), u0=np.ones(3))
