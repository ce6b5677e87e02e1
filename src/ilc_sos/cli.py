"""Command-line front end: JSON config in, result files out.

Every mode reads one JSON config (strictly validated -- unknown keys are
rejected so typos fail loudly), applies any flag overrides, runs the
requested stage, and writes ``result.json`` plus a ``trace.csv`` into the
output directory.  ``repro-paper`` additionally writes ``table.md``.

Exit codes: 0 success, 2 bad config or an input the mode cannot use
(unstable plant, pole on the unit circle, ...), 3 solver/certificate/divergence
failure, 4 synthesis finished but could not certify contraction (gamma not below 1).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import sys

import numpy as np

from .polyalg import AffinePoly, AffinityError, DegenerateDenominator
from . import freqdomain as fd
from . import timedomain as td
from . import verify as vf
from . import simulate as sim
from .sdp import SolverFailure
from .soscompiler import BasisDeficiency
from .result import SynthesisResult, UnusedDecision

MODES = ("synth-time", "synth-freq", "verify", "simulate", "repro-paper")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_NOT_MONOTONE = 4


class ConfigError(Exception):
    """Config file failed schema validation."""


# ---------------------------------------------------------------------------
# schema helpers


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _check_keys(d, allowed, path: str):
    _require(isinstance(d, dict), f"{path}: expected an object")
    unknown = set(d) - set(allowed)
    _require(not unknown, f"{path}: unknown key(s) {sorted(unknown)}")


def _number(x, path: str) -> float:
    _require(isinstance(x, (int, float)) and not isinstance(x, bool),
             f"{path}: expected a number")
    # json parses NaN and Infinity, which no coefficient or setting may take
    _require(math.isfinite(x), f"{path}: expected a finite number")
    return float(x)


def _integer(x, path: str) -> int:
    _require(isinstance(x, int) and not isinstance(x, bool),
             f"{path}: expected an integer")
    return x


def _count(x, path: str, least: int) -> int:
    n = _integer(x, path)
    _require(n >= least, f"{path}: must be at least {least}")
    return n


def _poly(obj, variables: tuple, path: str) -> AffinePoly:
    """A coefficient: plain number, or [{exponents, value}, ...] over the
    declared variables."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return AffinePoly.constant(variables, _number(obj, path))
    _require(isinstance(obj, list), f"{path}: expected a number or a term list")
    p = AffinePoly.zero(variables)
    for i, item in enumerate(obj):
        here = f"{path}[{i}]"
        _check_keys(item, {"exponents", "value"}, here)
        _require("exponents" in item and "value" in item,
                 f"{here}: needs 'exponents' and 'value'")
        exps = item["exponents"]
        _require(isinstance(exps, list) and len(exps) == len(variables)
                 and all(isinstance(e, int) and e >= 0 for e in exps),
                 f"{here}: exponents must list one nonnegative int per variable "
                 f"({len(variables)} here)")
        p = p + AffinePoly.monomial(variables, exps, _number(item["value"], here))
    return p


def _str_list(obj, path: str) -> tuple:
    _require(isinstance(obj, list) and all(isinstance(s, str) for s in obj),
             f"{path}: expected a list of strings")
    return tuple(obj)


def _freq_plant(d, path: str) -> fd.UncertainTransferFunction:
    _require(isinstance(d, dict), f"{path}: expected an object")
    kind = d.get("type", "transfer")
    if kind == "transfer":
        _check_keys(d, {"type", "num", "den", "lambda_vars"}, path)
        lv = _str_list(d.get("lambda_vars", []), f"{path}.lambda_vars")
        _require(isinstance(d.get("num"), list) and isinstance(d.get("den"), list),
                 f"{path}: 'num' and 'den' coefficient lists required")
        num = [_poly(c, lv, f"{path}.num[{i}]") for i, c in enumerate(d["num"])]
        den = [_poly(c, lv, f"{path}.den[{i}]") for i, c in enumerate(d["den"])]
        try:
            return fd.UncertainTransferFunction.from_coeffs(num, den, lv)
        except ValueError as e:
            raise ConfigError(f"{path}: {e}")
    if kind == "polytope":
        _check_keys(d, {"type", "num", "den", "vertices", "theta_vars"}, path)
        tv = _str_list(d.get("theta_vars", ["theta"]), f"{path}.theta_vars")
        _require(isinstance(d.get("num"), list) and isinstance(d.get("den"), list),
                 f"{path}: 'num' and 'den' coefficient lists required")
        num = [_poly(c, tv, f"{path}.num[{i}]") for i, c in enumerate(d["num"])]
        den = [_poly(c, tv, f"{path}.den[{i}]") for i, c in enumerate(d["den"])]
        verts = d.get("vertices")
        _require(isinstance(verts, list) and verts
                 and all(isinstance(v, list) and len(v) == len(tv) for v in verts),
                 f"{path}.vertices: expected a nonempty list of length-{len(tv)} points")
        try:
            return fd.simplexify(num, den, verts, theta_vars=tv)
        except (ValueError, fd.EmptyPolytope) as e:
            raise ConfigError(f"{path}: {e}")
    raise ConfigError(f"{path}.type: must be 'transfer' or 'polytope'")


def _fir(d, path: str, default_unity: bool = False) -> fd.NoncausalFir:
    if d is None:
        _require(default_unity, f"{path}: required")
        return fd.NoncausalFir.unity()
    _require(isinstance(d, dict), f"{path}: expected an object")
    if set(d) == {"order"}:
        return fd.NoncausalFir.causal_decision(_count(d["order"], f"{path}.order", 0))
    _check_keys(d, {"k_lead", "k_lag", "coeffs"}, path)
    _require("coeffs" in d, f"{path}: 'coeffs' required (or use the 'order' shorthand)")
    coeffs = d["coeffs"]
    _require(isinstance(coeffs, list) and coeffs, f"{path}.coeffs: nonempty list")
    out = []
    for i, c in enumerate(coeffs):
        if isinstance(c, str):
            out.append(c)
        else:
            out.append(_number(c, f"{path}.coeffs[{i}]"))
    k_lead = _integer(d.get("k_lead", 0), f"{path}.k_lead")
    k_lag = _integer(d.get("k_lag", len(out) - 1 - k_lead), f"{path}.k_lag")
    try:
        return fd.NoncausalFir(k_lead, k_lag, out)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}")


def _time_plant(d, path: str) -> td.LiftedUncertainPlant:
    _require(isinstance(d, dict), f"{path}: expected an object")
    kind = d.get("type", "markov")
    if kind == "markov":
        _check_keys(d, {"type", "N", "markov", "lambda_vars"}, path)
        _require(isinstance(d.get("markov"), list), f"{path}.markov: list required")
        N = _integer(d.get("N", len(d["markov"])), f"{path}.N")
        lv = _str_list(d.get("lambda_vars", []), f"{path}.lambda_vars")
        markov = tuple(_poly(c, lv, f"{path}.markov[{i}]")
                       for i, c in enumerate(d["markov"]))
        try:
            return td.LiftedUncertainPlant(N, markov, lv)
        except (ValueError, td.SingularPlant) as e:
            raise ConfigError(f"{path}: {e}")
    if kind in ("transfer", "polytope"):
        sub = dict(d)
        N = sub.pop("N", None)
        _require(N is not None, f"{path}: trial length 'N' required")
        N = _integer(N, f"{path}.N")
        tf = _freq_plant(sub, path)
        try:
            return td.LiftedUncertainPlant.from_transfer(tf, N)
        except (ValueError, td.SingularPlant) as e:
            raise ConfigError(f"{path}: {e}")
    raise ConfigError(f"{path}.type: must be 'markov', 'transfer' or 'polytope'")


def _lifted_filter(d, N: int, path: str, role: str) -> td.LiftedFilter:
    if d is None:
        return td.LiftedFilter.identity(N) if role == "q" \
            else td.LiftedFilter.causal_decision(N)
    _require(isinstance(d, dict), f"{path}: expected an object")
    _check_keys(d, {"identity", "causal_decisions", "taps", "fir"}, path)
    _require(len(d) == 1, f"{path}: give exactly one of identity/causal_decisions/taps/fir")
    for key, build in (("identity", td.LiftedFilter.identity),
                       ("causal_decisions", td.LiftedFilter.causal_decision)):
        if key in d:
            _require(d[key] is True, f"{path}.{key}: must be true")
            return build(N)
    if "taps" in d:
        taps = d["taps"]
        _require(isinstance(taps, list), f"{path}.taps: list required")
        out = [c if isinstance(c, str) else _number(c, f"{path}.taps[{i}]")
               for i, c in enumerate(taps)]
        try:
            return td.LiftedFilter(N, tuple(out))
        except ValueError as e:
            raise ConfigError(f"{path}: {e}")
    fir = _fir(d["fir"], f"{path}.fir")
    try:
        return td.LiftedFilter.from_fir(fir, N)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}")


# ---------------------------------------------------------------------------
# output helpers


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _write_json(path: str, payload: dict):
    payload = dict(payload)
    payload["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(path, "w") as fh:
        json.dump(_sanitize(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _synthesis_exit(res: SynthesisResult, out_dir: str, mode: str) -> int:
    payload = {"mode": mode, "result": res.to_json_dict()}
    if not res.certified:
        # refuse to report a rate whose certificate does not check out
        payload["result"]["gamma"] = None
        payload["result"]["eta"] = None
        payload["error"] = "certificate check failed"
        _write_json(os.path.join(out_dir, "result.json"), payload)
        print("certificate check failed; rate withheld", file=sys.stderr)
        return EXIT_SOLVER
    _write_json(os.path.join(out_dir, "result.json"), payload)
    _write_csv(os.path.join(out_dir, "trace.csv"), ["k", "gamma_bound"],
               [[k, f"{math.sqrt(max(v, 0.0)):.12e}"] for k, v in res.k_trace])
    gains = ", ".join(f"{g:.6g}" for g in res.gain_list)
    print(f"gamma* = {res.gamma:.6f} at k = {res.polya_k} "
          f"(certificate residual {res.certificate_report.residual:.2e}); "
          f"gains: {gains}")
    if res.not_monotone:
        print(f"synthesis finished but gamma*={res.gamma:.4f} is not below 1 "
              "(no contraction certified)", file=sys.stderr)
        return EXIT_NOT_MONOTONE
    return EXIT_OK


def _or_config_error(fn, *args, **kwargs):
    """fn(*args, **kwargs); an input it rejects (ValueError) is a config error."""
    try:
        return fn(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(str(e))


# ---------------------------------------------------------------------------
# mode handlers


def _run_synth_freq(cfg: dict, out_dir: str) -> int:
    _check_keys(cfg, {"mode", "plant", "qfilter", "lstructure", "epsilon",
                      "k_max", "k_tol"}, "config")
    _require("plant" in cfg, "config: 'plant' required")
    _require("lstructure" in cfg, "config: 'lstructure' required")
    plant = _freq_plant(cfg["plant"], "plant")
    qf = _fir(cfg.get("qfilter"), "qfilter", default_unity=True)
    ls = _fir(cfg.get("lstructure"), "lstructure")
    if "epsilon" in cfg:
        epsilon = None if cfg["epsilon"] is None else _number(cfg["epsilon"], "epsilon")
    else:
        epsilon = None if plant.is_nominal() else 1e-3
    res = _or_config_error(fd.synth_freq_robust, qf, ls, plant, epsilon=epsilon,
                           k_max=_count(cfg.get("k_max", 5), "k_max", 0),
                           k_tol=_number(cfg.get("k_tol", 1e-3), "k_tol"))
    return _synthesis_exit(res, out_dir, "synth-freq")


def _run_synth_time(cfg: dict, out_dir: str) -> int:
    _check_keys(cfg, {"mode", "plant", "qfilter", "lstructure", "epsilon",
                      "k_max", "k_tol"}, "config")
    _require("plant" in cfg, "config: 'plant' required")
    plant = _time_plant(cfg["plant"], "plant")
    # without uncertainty the program is exact and carries no margin
    _require(not ("epsilon" in cfg and plant.is_nominal()),
             "epsilon: a plant without uncertainty takes no positivity margin")
    qf = _lifted_filter(cfg.get("qfilter"), plant.N, "qfilter", "q")
    ls = _lifted_filter(cfg.get("lstructure"), plant.N, "lstructure", "l")
    problem = _or_config_error(td.TimeSynthesisProblem, plant, qf, ls,
                               epsilon=_number(cfg.get("epsilon", 1e-3), "epsilon"),
                               k_max=_count(cfg.get("k_max", 5), "k_max", 0),
                               k_tol=_number(cfg.get("k_tol", 1e-3), "k_tol"))
    return _synthesis_exit(_or_config_error(td.synth_time, problem), out_dir, "synth-time")


def _grid_settings(cfg: dict):
    g = cfg.get("grid", {})
    _check_keys(g, {"resolution", "n_random", "n_freq"}, "grid")
    return (_count(g.get("resolution", 50), "grid.resolution", 1),
            _count(g.get("n_random", 1000), "grid.n_random", 0),
            _count(g.get("n_freq", 720), "grid.n_freq", 1))


def _run_verify(cfg: dict, out_dir: str) -> int:
    _check_keys(cfg, {"mode", "domain", "plant", "qfilter", "lfilter",
                      "grid", "bound", "seed"}, "config")
    domain = cfg.get("domain", "freq")
    _require(domain in ("freq", "time"), "domain: must be 'freq' or 'time'")
    _require("plant" in cfg and "lfilter" in cfg,
             "config: 'plant' and 'lfilter' required")
    resolution, n_random, n_freq = _grid_settings(cfg)
    seed = _count(cfg.get("seed", 0), "seed", 0)
    bound = None if cfg.get("bound") is None else _number(cfg["bound"], "bound")

    if domain == "freq":
        plant = _freq_plant(cfg["plant"], "plant")
        qf = _fir(cfg.get("qfilter"), "qfilter", default_unity=True)
        lf = _fir(cfg["lfilter"], "lfilter")
        _require(not (qf.has_decisions() or lf.has_decisions()),
                 "verify needs numeric filter taps")
        grid = vf.make_grid(len(plant.lambda_vars), resolution=resolution,
                            n_random=n_random, n_freq=n_freq, seed=seed)
        per_point, arg = vf.freq_gain_profile(plant, qf, lf, grid)
    else:
        plant = _time_plant(cfg["plant"], "plant")
        qf = _lifted_filter(cfg.get("qfilter"), plant.N, "qfilter", "q")
        lf = _lifted_filter(cfg["lfilter"], plant.N, "lfilter", "l")
        _require(not (qf.has_decisions() or lf.has_decisions()),
                 "verify needs numeric filter taps")
        grid = vf.make_grid(plant.n_lambda, resolution=resolution,
                            n_random=n_random, n_freq=n_freq, seed=seed)
        per_point = _or_config_error(vf.time_gain_profile, plant, qf, lf, grid)
    ik = int(np.argmax(per_point))
    gamma_hat = float(per_point[ik])
    argmax = {"lambda": grid.lambda_points[ik]}
    if domain == "freq":
        argmax["omega"] = float(grid.freq_points[arg[ik]])

    d = grid.lambda_points.shape[1]
    _write_csv(os.path.join(out_dir, "trace.csv"),
               [f"lambda{i+1}" for i in range(d)] + ["gamma"],
               [[*(f"{x:.12e}" for x in lam), f"{v:.12e}"]
                for lam, v in zip(grid.lambda_points, per_point)])
    ok = bound is None or gamma_hat <= bound
    _write_json(os.path.join(out_dir, "result.json"), {
        "mode": "verify", "domain": domain, "gamma_hat": gamma_hat,
        "argmax": argmax, "bound": bound, "bound_satisfied": ok,
        "grid": {"lambda_points": int(grid.lambda_points.shape[0]),
                 "freq_points": int(grid.freq_points.shape[0]),
                 "seed": seed},
    })
    print(f"sampled gamma = {gamma_hat:.6f} over "
          f"{grid.lambda_points.shape[0]} uncertainty points"
          + (f" x {grid.freq_points.shape[0]} frequencies" if domain == "freq" else ""))
    if not ok:
        print(f"sampled gamma {gamma_hat:.6f} exceeds the bound {bound:.6f}",
              file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _run_simulate(cfg: dict, out_dir: str) -> int:
    _check_keys(cfg, {"mode", "plant", "qfilter", "lfilter", "horizon",
                      "trials", "n_runs", "disturbance_scale", "reference",
                      "gamma_star", "seed"}, "config")
    _require("plant" in cfg and "lfilter" in cfg,
             "config: 'plant' and 'lfilter' required")
    plant = _freq_plant(cfg["plant"], "plant")
    qf = _fir(cfg.get("qfilter"), "qfilter", default_unity=True)
    lf = _fir(cfg["lfilter"], "lfilter")
    _require(not (qf.has_decisions() or lf.has_decisions()),
             "simulate needs numeric filter taps")
    N = _integer(cfg.get("horizon", 100), "horizon")
    trials = _count(cfg.get("trials", 40), "trials", 1)
    n_runs = _count(cfg.get("n_runs", 30), "n_runs", 1)
    scale = _number(cfg.get("disturbance_scale", 0.1), "disturbance_scale")
    _require(scale >= 0, "disturbance_scale: must be at least 0")
    seed = _count(cfg.get("seed", 0), "seed", 0)
    gamma_star = None if cfg.get("gamma_star") is None \
        else _number(cfg["gamma_star"], "gamma_star")
    if "reference" in cfg:
        ref = cfg["reference"]
        _require(isinstance(ref, list) and len(ref) == N,
                 f"reference: expected {N} samples")
        y_d = np.array([_number(v, "reference[*]") for v in ref])
    else:
        y_d = np.sin(2.0 * np.pi * np.arange(N) / N)

    try:
        q_taps = td.LiftedFilter.from_fir(qf, N).numeric()
        l_taps = td.LiftedFilter.from_fir(lf, N).numeric()
    except ValueError as e:
        raise ConfigError(str(e))

    rng = np.random.default_rng(seed)
    d_lam = len(plant.lambda_vars)
    rows = []
    summaries = []
    worst_ratio = 0.0
    for run in range(n_runs):
        lam_pt = rng.dirichlet(np.ones(d_lam)) if d_lam else np.zeros(0)
        lam = dict(zip(plant.lambda_vars, lam_pt))
        num, den = plant.coeff_arrays(lam)
        h = _or_config_error(td.markov_from_coeffs, num, den, N)
        d_vec = sim.sample_disturbance(N, seed=seed + 1000 + run, scale=scale)
        trace = sim.run_ilc(h, q_taps, l_taps,
                            sim.TrialConfig(y_d, d_vec, trials=trials,
                                            lambda_sample=lam_pt.tolist(),
                                            seed=seed + 1000 + run))
        for j, en in enumerate(trace.error_norms):
            ratio = trace.contraction_ratios[j - 1] \
                if 1 <= j <= len(trace.contraction_ratios) else ""
            rows.append([run, j, f"{en:.12e}",
                         f"{ratio:.12e}" if ratio != "" else ""])
        s = trace.summary()
        s["lambda"] = lam_pt.tolist()
        summaries.append(s)
        if s["max_ratio"] is not None:
            worst_ratio = max(worst_ratio, s["max_ratio"])
    _write_csv(os.path.join(out_dir, "trace.csv"),
               ["run", "trial", "error_norm", "ratio"], rows)
    envelope_ok = None if gamma_star is None else worst_ratio <= gamma_star + 0.02
    _write_json(os.path.join(out_dir, "result.json"), {
        "mode": "simulate", "runs": summaries, "worst_ratio": worst_ratio,
        "gamma_star": gamma_star, "envelope_ok": envelope_ok,
        "horizon": N, "trials": trials, "seed": seed,
    })
    finals = [s["final_error"] for s in summaries]
    print(f"{n_runs} runs x {trials} trials: worst contraction ratio "
          f"{worst_ratio:.6f}, worst final error {max(finals):.3e}")
    if envelope_ok is False:
        print(f"worst ratio {worst_ratio:.4f} exceeds gamma*+0.02", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


# ---------------------------------------------------------------------------
# paper reproduction

# theta-form of the benchmark plant (leading denominator sign follows the
# stable orientation) and its published simplex form; both are hardcoded and
# cross-checked against each other before any synthesis
_THETA_NUM = [[{"exponents": [0], "value": 16.0}, {"exponents": [1], "value": 60.0}],
              -40.0]
_THETA_DEN = [[{"exponents": [0], "value": 1.0}, {"exponents": [1], "value": 16.0}],
              [{"exponents": [0], "value": 4.0}, {"exponents": [1], "value": 20.0}],
              -20.0]
_THETA_VERTICES = [[-0.5], [-0.7]]
_LAMBDA_NUM = [[{"exponents": [0, 0], "value": -16.0},
                {"exponents": [1, 0], "value": 30.0},
                {"exponents": [0, 1], "value": 42.0}],
               40.0]
_LAMBDA_DEN = [[{"exponents": [0, 0], "value": -1.0},
                {"exponents": [1, 0], "value": 8.0},
                {"exponents": [0, 1], "value": 11.2}],
               [{"exponents": [0, 0], "value": -4.0},
                {"exponents": [1, 0], "value": 10.0},
                {"exponents": [0, 1], "value": 14.0}],
               20.0]


def paper_plant() -> fd.UncertainTransferFunction:
    """The benchmark interval plant, built from the theta form and verified
    coefficient-by-coefficient against the published simplex form."""
    via_theta = _freq_plant({"type": "polytope", "num": _THETA_NUM,
                             "den": _THETA_DEN, "vertices": _THETA_VERTICES},
                            "paper-plant-theta")
    direct = _freq_plant({"type": "transfer", "num": _LAMBDA_NUM,
                          "den": _LAMBDA_DEN,
                          "lambda_vars": ["lam1", "lam2"]},
                         "paper-plant-lambda")
    for a, b, what in [(via_theta.num, direct.num, "numerator"),
                       (via_theta.den, direct.den, "denominator")]:
        if len(a) != len(b) or not all(x.allclose(y, 1e-9) for x, y in zip(a, b)):
            raise RuntimeError(f"paper plant forms disagree in the {what}")
    return via_theta


def _run_repro_paper(cfg: dict, out_dir: str) -> int:
    _check_keys(cfg, {"mode", "epsilon", "k_values", "orders", "order3_k_max"},
                "config")
    epsilon = _number(cfg.get("epsilon", 1e-3), "epsilon")
    k_values = cfg.get("k_values", [0, 1, 2, 3])
    _require(isinstance(k_values, list) and k_values
             and all(isinstance(k, int) and k >= 0 for k in k_values)
             and list(k_values) == sorted(set(k_values)),
             "k_values: strictly increasing list of nonnegative ints")
    orders = cfg.get("orders", [0, 1, 2])
    _require(isinstance(orders, list) and orders
             and all(isinstance(o, int) and o >= 0 for o in orders)
             and len(set(orders)) == len(orders),
             "orders: list of distinct nonnegative ints")
    order3_k_max = _count(cfg.get("order3_k_max", 0), "order3_k_max", 0)

    plant = paper_plant()
    jury = fd.jury_stability(plant)
    if not jury.stable:
        print("plant failed the stability screen", file=sys.stderr)
        return EXIT_SOLVER

    q = fd.NoncausalFir.unity()
    results = {}
    trace_rows = []
    for order in orders:
        res = _or_config_error(fd.synth_freq_robust, q, fd.NoncausalFir.causal_decision(order),
                               plant, epsilon=epsilon, k_max=max(k_values), k_tol=0.0)
        if not res.certified:
            print(f"order {order}: certificate check failed", file=sys.stderr)
            return EXIT_SOLVER
        results[order] = res
        for k, v in res.k_trace:
            trace_rows.append([order, k, f"{math.sqrt(max(v, 0.0)):.12e}"])

    res3 = _or_config_error(fd.synth_freq_robust, q, fd.NoncausalFir.causal_decision(3),
                            plant, epsilon=epsilon, k_max=order3_k_max, k_tol=0.0)
    if not res3.certified:
        print("order 3: certificate check failed", file=sys.stderr)
        return EXIT_SOLVER
    for k, v in res3.k_trace:
        trace_rows.append([3, k, f"{math.sqrt(max(v, 0.0)):.12e}"])

    bounds = {o: {k: math.sqrt(max(v, 0.0)) for k, v in results[o].k_trace}
              for o in orders}
    lines = ["# Benchmark plant: certified contraction rates", "",
             "Rate bound after escalation level k, per learning-function order.",
             "", "| k | " + " | ".join(f"order {o}" for o in orders) + " |",
             "|---|" + "|".join("---" for _ in orders) + "|"]
    for k in k_values:
        cells = [f"{bounds[o][k]:.4f}" if k in bounds[o] else "-" for o in orders]
        lines.append(f"| {k} | " + " | ".join(cells) + " |")
    lines += ["", f"Order 3 (k={res3.polya_k}): gamma = {res3.gamma:.4f}, gains = "
              + ", ".join(f"{g:.4f}" for g in res3.gain_list), "",
              f"Jury stability margin: {jury.margin:.4f}", ""]
    with open(os.path.join(out_dir, "table.md"), "w") as fh:
        fh.write("\n".join(lines))

    _write_csv(os.path.join(out_dir, "trace.csv"),
               ["order", "k", "gamma_bound"], trace_rows)
    _write_json(os.path.join(out_dir, "result.json"), {
        "mode": "repro-paper",
        "jury": {"stable": jury.stable, "margin": jury.margin},
        "orders": {str(o): results[o].to_json_dict() for o in orders},
        "order3": res3.to_json_dict(),
        "epsilon": epsilon, "k_values": k_values,
    })
    print("\n".join(lines[4:]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


_HANDLERS = {
    "synth-freq": _run_synth_freq,
    "synth-time": _run_synth_time,
    "verify": _run_verify,
    "simulate": _run_simulate,
    "repro-paper": _run_repro_paper,
}


# config keys each flag override is allowed to touch, per mode
_OVERRIDE_KEYS = {
    "synth-freq": {"epsilon", "k_max"},
    "synth-time": {"epsilon", "k_max"},
    "verify": {"seed"},
    "simulate": {"seed"},
    "repro-paper": {"epsilon"},
}


def load_config(path: str, mode: str, overrides: dict) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    _require(isinstance(cfg, dict), "config: top level must be an object")
    if "mode" in cfg:
        _require(cfg["mode"] == mode,
                 f"config is for mode {cfg['mode']!r}, invoked as {mode!r}")
    for key, val in overrides.items():
        if val is None:
            continue
        _require(key in _OVERRIDE_KEYS[mode],
                 f"flag --{key.replace('_', '-')} does not apply to mode {mode!r}")
        cfg[key] = val
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ilc-sos",
        description="Certified contraction-rate synthesis for uncertain "
                    "learning-control loops.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--epsilon", type=float, default=None,
                       help="override the positivity margin, which adds epsilon "
                            "to the certified gamma")
        p.add_argument("--k-max", type=int, default=None, dest="k_max",
                       help="override the multiplier escalation cap")
        p.add_argument("--seed", type=int, default=None,
                       help="override the sampling seed")
        p.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.mode,
                          {"epsilon": args.epsilon, "k_max": args.k_max,
                           "seed": args.seed})
        os.makedirs(args.out, exist_ok=True)
        return _HANDLERS[args.mode](cfg, args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (fd.UnstablePlant, fd.EmptyPolytope, td.SingularPlant, vf.UnitCirclePole,
            DegenerateDenominator, AffinityError, UnusedDecision) as e:
        print(f"unusable input: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverFailure, BasisDeficiency) as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except sim.Divergent as e:
        print(f"divergent learning loop: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
