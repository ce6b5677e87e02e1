"""The benchmark's workloads: seeded inputs and one gated design at a time.

Each workload is a closed loop with a single caller: a design is a
synthesis followed by its cross-checks, and the next design starts only
after the previous one has returned.  Every call into the package goes
through a module attribute (``fd.synth_freq_robust``, ``vf.sampled_gamma_freq``
...) so that the tracer can patch the name where it is looked up.

Why these three, and what each one stresses, is in README.md next to this
file.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from ilc_sos import freqdomain as fd
from ilc_sos import simulate as sim
from ilc_sos import timedomain as td
from ilc_sos import verify as vf
from ilc_sos.polyalg import AffinePoly

# gamma bands of tests/test_acceptance.py (criteria 1 and 2), by order
PAPER_BANDS = {0: (0.79, 0.83), 1: (0.66, 0.70), 2: (0.44, 0.48), 3: (0.30, 0.34)}
# certified gamma of the criterion-5 plants; the acceptance test holds them
# within 2 % of a brute-force optimum, and so does the gate here
LIFTED_BASELINE = {101: 0.2720, 202: 0.1574, 303: 0.4703}
LIFTED_REL_TOL = 0.02
SAMPLED_SLACK = 1e-4      # sampled gamma may exceed the certified one by this
REPLAY_SLACK = 0.02       # per-trial contraction may exceed gamma by this
REPLAY_N = 100
REPLAY_TRIALS = 40
REPLAY_PLANTS = 3         # seeded theta draws replayed per paper design
THETA_RANGE = (-0.7, -0.5)


class GateFailure(Exception):
    """A design failed a check.  ``refuted`` marks a wrong output: a
    certified gamma that sampling, replay or a known band contradicts.  A
    design the program could not certify is failed but not refuted."""

    def __init__(self, msg: str, refuted: bool = True):
        super().__init__(msg)
        self.refuted = refuted


@dataclass
class Design:
    label: str
    run: Callable[[], float]   # returns the certified gamma or raises


def _require(ok: bool, msg: str, refuted: bool = True) -> None:
    if not ok:
        raise GateFailure(msg, refuted)


def _lin(variables, c0, *cs):
    p = AffinePoly.constant(variables, c0)
    for i, c in enumerate(cs):
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        p = p + AffinePoly.monomial(variables, exps, c)
    return p


def _theta_coeffs(theta: float) -> tuple:
    """Paper plant at one theta: numerator and denominator, ascending in z."""
    return ([16.0 + 60.0 * theta, -40.0],
            [16.0 * theta + 1.0, 4.0 + 20.0 * theta, -20.0])


def paper_plant() -> fd.UncertainTransferFunction:
    """The paper's interval plant, theta in [-0.7, -0.5], on the simplex."""
    tv = ("theta",)
    return fd.simplexify(
        [_lin(tv, 16, 60), _lin(tv, -40)],
        [_lin(tv, 1, 16), _lin(tv, 4, 20), _lin(tv, -20)],
        [[THETA_RANGE[0]], [THETA_RANGE[1]]], theta_vars=tv)


def lifted_plant(seed: int, N: int) -> td.LiftedUncertainPlant:
    """Two-vertex lifted plant drawn like test_criterion_5's generator."""
    lam = ("lam1", "lam2")
    rng = np.random.default_rng(seed)
    verts = np.empty((N, 2))
    verts[0] = rng.uniform(0.6, 1.8, size=2)
    verts[1:] = rng.uniform(-0.5, 0.5, size=(N - 1, 2))
    markov = [_lin(lam, 0.0, verts[i, 0], verts[i, 1]) for i in range(N)]
    return td.LiftedUncertainPlant(N, markov, lam)


# ---------------------------------------------------------------------------
# paper_robust


def _replay_ok(order: int, gains: list, gamma: float, theta: float,
               dist_seed: int) -> None:
    """Replay the learning loop on one sampled plant instance; every
    trial-to-trial contraction must stay under the certified rate."""
    num, den = _theta_coeffs(theta)
    num, den = np.array(num), np.array(den)
    h = td.markov_from_coeffs(num / den[-1], den / den[-1], REPLAY_N)
    l_taps = np.concatenate([np.zeros(REPLAY_N - 1), gains,
                             np.zeros(REPLAY_N - 1 - order)])
    y_d = np.sin(2 * np.pi * np.arange(REPLAY_N) / REPLAY_N)
    d = sim.sample_disturbance(REPLAY_N, seed=dist_seed)
    trace = sim.run_ilc(h, np.eye(REPLAY_N), l_taps,
                        sim.TrialConfig(y_d, d, trials=REPLAY_TRIALS))
    worst = max(trace.contraction_ratios)
    _require(worst <= gamma + REPLAY_SLACK,
             f"replay at theta={theta:.4f}: ratio {worst:.6f} above gamma {gamma:.6f}")


def _paper_design(plant, grid, order: int, k_max: int, thetas, dist_seeds) -> float:
    q = fd.NoncausalFir.unity()
    res = fd.synth_freq_robust(q, fd.NoncausalFir.causal_decision(order), plant,
                               epsilon=1e-3, k_max=k_max, k_tol=0.0)
    _require(res.certified, str(res.certificate_report), refuted=False)
    gamma_hat, _ = vf.sampled_gamma_freq(plant, q, fd.NoncausalFir(0, order, res.gain_list),
                                         grid)
    _require(gamma_hat <= res.gamma + SAMPLED_SLACK,
             f"sampled gamma {gamma_hat:.6f} above certified {res.gamma:.6f}")
    lo, hi = PAPER_BANDS[order]
    _require(lo <= res.gamma <= hi, f"gamma {res.gamma:.6f} outside [{lo}, {hi}]")
    for theta, ds in zip(thetas, dist_seeds):
        _replay_ok(order, res.gain_list, res.gamma, float(theta), int(ds))
    return res.gamma


def paper_robust(seed: int, smoke: bool) -> list:
    """Orders 0-2 escalated through k = 0..1 plus order 3 at k = 0: seven
    SDPs on the paper plant.  The seed drives the cross-check grid's random
    simplex draws and the replayed plant instances; the synthesis inputs
    are the paper's and do not depend on it."""
    plant = paper_plant()
    grid = vf.make_grid(2, resolution=50, n_random=1000, n_freq=720, seed=seed)
    rng = np.random.default_rng(seed)
    specs = ((3, 0),) if smoke else ((0, 1), (1, 1), (2, 1), (3, 0))
    designs = []
    for order, k_max in specs:
        thetas = rng.uniform(*THETA_RANGE, size=REPLAY_PLANTS)
        dist_seeds = rng.integers(0, 2**31, size=REPLAY_PLANTS)
        designs.append(Design(f"order{order}", partial(
            _paper_design, plant, grid, order, k_max, thetas, dist_seeds)))
    return designs


# ---------------------------------------------------------------------------
# lifted_fallback


def _lifted_design(plant_seed: int, N: int, grid) -> float:
    plant = lifted_plant(plant_seed, N)
    problem = td.TimeSynthesisProblem(
        plant, td.LiftedFilter.identity(N), td.LiftedFilter.causal_decision(N),
        epsilon=1e-6, k_max=8, k_tol=1e-7)
    res = td.synth_time(problem)
    _require(res.certified, str(res.certificate_report), refuted=False)
    gamma_hat, _ = vf.sampled_gamma_time(plant, problem.qfilter,
                                         problem.lstructure.pinned(res.gains), grid)
    _require(gamma_hat <= res.gamma + SAMPLED_SLACK,
             f"sampled gamma {gamma_hat:.6f} above certified {res.gamma:.6f}")
    ref = LIFTED_BASELINE[plant_seed]
    _require(abs(res.gamma - ref) <= LIFTED_REL_TOL * ref,
             f"gamma {res.gamma:.6f} more than 2% from {ref}")
    return res.gamma


def lifted_fallback(seed: int, smoke: bool) -> list:
    """Lifted synthesis on the criterion-5 plants (seeds 101/N=2, 202/N=3,
    303/N=3).  The plant set is fixed because whether the bisection
    fallback fires depends on the plant, and firing it is the point of the
    workload; the seed drives the cross-check grid's random draws."""
    grid = vf.make_grid(2, resolution=50, n_random=1000, seed=seed)
    plants = ((101, 2),) if smoke else ((101, 2), (202, 3), (303, 3))
    return [Design(f"plant{ps}_N{N}", partial(_lifted_design, ps, N, grid))
            for ps, N in plants]


# ---------------------------------------------------------------------------
# nominal_sweep


def _nominal_design(theta: float, order: int, grid) -> float:
    num, den = _theta_coeffs(theta)
    plant = fd.UncertainTransferFunction.from_coeffs(num, den, ())
    q = fd.NoncausalFir.unity()
    res = fd.synth_freq_nominal(q, fd.NoncausalFir.causal_decision(order), plant)
    _require(res.certified, str(res.certificate_report), refuted=False)
    gamma_hat, _ = vf.sampled_gamma_freq(plant, q, fd.NoncausalFir(0, order, res.gain_list),
                                         grid)
    _require(gamma_hat <= res.gamma + SAMPLED_SLACK,
             f"sampled gamma {gamma_hat:.6f} above certified {res.gamma:.6f}")
    return res.gamma


def nominal_sweep(seed: int, smoke: bool) -> list:
    """Nominal designs at 25 evenly spaced theta in [-0.7, -0.5] x orders
    0-3 (free margin), in an order shuffled by the seed.  The theta grid is
    fixed: with seeded theta the run time followed how many theta a seed
    drew that need the certificate re-solve ladder, which swamped every
    other effect from seed to seed."""
    lo, hi = THETA_RANGE
    thetas = [-0.6] if smoke else np.linspace(lo, hi, 25)
    grid = vf.make_grid(0, n_freq=720)
    designs = [Design(f"theta{theta:+.5f}_order{order}",
                      partial(_nominal_design, float(theta), order, grid))
               for theta in thetas for order in range(4)]
    order = np.random.default_rng(seed).permutation(len(designs))
    return [designs[i] for i in order]


_BY_NAME = {"paper_robust": paper_robust, "lifted_fallback": lifted_fallback,
            "nominal_sweep": nominal_sweep}


def build(workload: str, seed: int, smoke: bool = False) -> list:
    """The workload's designs, with every input generated from ``seed``."""
    return _BY_NAME[workload](seed, smoke)
