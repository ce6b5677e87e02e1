import copy
import csv
import json

import numpy as np
import pytest

from ilc_sos import cli, sdp
from ilc_sos.soscompiler import CertificateReport


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


DELAY_PLANT = {"type": "transfer", "num": [1.0], "den": [0.0, 1.0]}

PAPER_POLYTOPE = {
    "type": "polytope",
    "num": [[{"exponents": [0], "value": 16.0}, {"exponents": [1], "value": 60.0}],
            -40.0],
    "den": [[{"exponents": [0], "value": 1.0}, {"exponents": [1], "value": 16.0}],
            [{"exponents": [0], "value": 4.0}, {"exponents": [1], "value": 20.0}],
            -20.0],
    "vertices": [[-0.5], [-0.7]],
    "theta_vars": ["theta"],
}

PAPER_GAINS = {"k_lead": 0, "k_lag": 3, "coeffs": [0.508, -0.0716, 0.189, -0.197]}


def verify_config(bound, grid=None):
    cfg = {"mode": "verify", "domain": "freq", "plant": PAPER_POLYTOPE,
           "lfilter": PAPER_GAINS, "bound": bound}
    if grid:
        cfg["grid"] = grid
    return cfg


def read_result(out_dir):
    with open(out_dir / "result.json") as fh:
        return json.load(fh)


# -- synthesis modes -----------------------------------------------------


def test_synth_freq_trivial_plant(tmp_path, capsys):
    cfg = write_config(tmp_path, {"mode": "synth-freq", "plant": DELAY_PLANT,
                                  "lstructure": {"order": 0}})
    out = tmp_path / "out"
    rc = cli.main(["synth-freq", "--config", cfg, "--out", str(out)])
    assert rc == 0
    res = read_result(out)["result"]
    assert res["gamma"] == pytest.approx(0.0, abs=1e-4)
    assert res["gains"]["l0"] == pytest.approx(1.0, abs=1e-3)
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "gamma_bound"]
    assert len(rows) >= 2
    assert "gamma* =" in capsys.readouterr().out


def test_synth_time_trivial_plant(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "synth-time",
        "plant": {"type": "markov", "N": 2, "markov": [1.0, 0.5]},
    })
    out = tmp_path / "out"
    rc = cli.main(["synth-time", "--config", cfg, "--out", str(out)])
    assert rc == 0
    res = read_result(out)["result"]
    assert res["gamma"] < 1e-4


def test_synth_freq_epsilon_override(tmp_path):
    # pinned margin shows up as the floor of the optimized rate: gamma = eps
    cfg = write_config(tmp_path, {"mode": "synth-freq", "plant": DELAY_PLANT,
                                  "lstructure": {"order": 0}})
    out = tmp_path / "out"
    rc = cli.main(["synth-freq", "--config", cfg, "--out", str(out),
                   "--epsilon", "0.01"])
    assert rc == 0
    res = read_result(out)["result"]
    assert res["epsilon"] == pytest.approx(0.01)
    assert res["gamma"] == pytest.approx(0.01, abs=1e-3)


def test_synth_freq_margin_on_small_denominator_plant(tmp_path):
    # 1/(z - theta), theta in [0.85, 0.9]: the default margin costs eps on
    # gamma, not eps / min |den|^4 (which was 10 here, exit 4)
    cfg = write_config(tmp_path, {
        "mode": "synth-freq",
        "plant": {"type": "polytope", "num": [1.0],
                  "den": [[{"exponents": [1], "value": -1.0}], 1.0],
                  "vertices": [[0.85], [0.9]]},
        "lstructure": {"order": 1}, "k_max": 2,
    })
    out = tmp_path / "out"
    assert cli.main(["synth-freq", "--config", cfg, "--out", str(out)]) == 0
    res = read_result(out)["result"]
    assert res["certificate"]["passed"] is True
    assert res["gamma"] < 0.21


def test_synth_freq_pinned_zero_gain_not_monotone(tmp_path, capsys):
    # L pinned to zero cannot contract anything: gamma* = 1, exit 4
    cfg = write_config(tmp_path, {
        "mode": "synth-freq", "plant": DELAY_PLANT,
        "lstructure": {"k_lead": 0, "k_lag": 0, "coeffs": [0.0]},
        "epsilon": None,
    })
    out = tmp_path / "out"
    rc = cli.main(["synth-freq", "--config", cfg, "--out", str(out)])
    assert rc == 4
    assert read_result(out)["result"]["not_monotone"] is True
    assert "no contraction certified" in capsys.readouterr().err


def test_synth_freq_pinned_l_reports_l_taps(tmp_path, capsys):
    # with no decision tap anywhere, the reported design is L's taps, not Q's
    cfg = write_config(tmp_path, {
        "mode": "synth-freq",
        "plant": {"type": "transfer", "num": [-24.0, -40.0], "den": [-8.6, -8.0, -20.0]},
        "qfilter": {"coeffs": [0.5]}, "lstructure": {"coeffs": [0.01, 0.02]},
    })
    out = tmp_path / "out"
    assert cli.main(["synth-freq", "--config", cfg, "--out", str(out)]) == 0
    assert read_result(out)["result"]["gain_list"] == [0.01, 0.02]
    assert "gains: 0.01, 0.02" in capsys.readouterr().out


def test_synth_freq_failed_certificate_withholds_rate(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sdp, "check_certificate",
                        lambda target, values, cert: CertificateReport(1.0, 1.0, [-1.0], False))
    cfg = write_config(tmp_path, {"mode": "synth-freq", "plant": DELAY_PLANT,
                                  "lstructure": {"order": 0}})
    out = tmp_path / "out"
    rc = cli.main(["synth-freq", "--config", cfg, "--out", str(out)])
    assert rc == 3
    payload = read_result(out)
    assert payload["result"]["gamma"] is None
    assert payload["result"]["eta"] is None
    assert payload["error"] == "certificate check failed"
    assert "certificate check failed" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


def test_synth_time_transfer_plant_matches_markov(tmp_path):
    # the delay plant 1/z lifted to N = 2 has Markov parameters [1, 0]
    results = []
    for name, plant in (("transfer", {**DELAY_PLANT, "N": 2}),
                        ("markov", {"type": "markov", "N": 2, "markov": [1.0, 0.0]})):
        cfg = write_config(tmp_path, {"mode": "synth-time", "plant": plant}, name=f"{name}.json")
        out = tmp_path / name
        assert cli.main(["synth-time", "--config", cfg, "--out", str(out)]) == 0
        results.append(read_result(out)["result"])
    via_transfer, via_markov = results
    assert via_transfer["gamma"] == via_markov["gamma"]
    assert via_transfer["gain_list"] == via_markov["gain_list"]


# -- config validation ---------------------------------------------------


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"mode": "synth-freq", "plant": DELAY_PLANT,
                                  "lstructure": {"order": 0}, "bogus": 1})
    rc = cli.main(["synth-freq", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_invalid_json_rejected(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = cli.main(["synth-freq", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_mode_mismatch_rejected(tmp_path):
    cfg = write_config(tmp_path, {"mode": "synth-freq", "plant": DELAY_PLANT,
                                  "lstructure": {"order": 0}})
    rc = cli.main(["verify", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2


def test_missing_required_section(tmp_path, capsys):
    cfg = write_config(tmp_path, {"mode": "synth-freq", "plant": DELAY_PLANT})
    rc = cli.main(["synth-freq", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "lstructure" in capsys.readouterr().err


def test_override_flag_wrong_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, {"mode": "verify", "plant": PAPER_POLYTOPE,
                                  "lfilter": PAPER_GAINS})
    rc = cli.main(["verify", "--config", cfg, "--out", str(tmp_path),
                   "--epsilon", "0.1"])
    assert rc == 2
    assert "--epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("form", ["key", "flag"])
def test_synth_time_nominal_plant_rejects_epsilon(tmp_path, capsys, form):
    # a plant without uncertainty has an exact program with no margin to set
    payload = {"mode": "synth-time",
               "plant": {"type": "markov", "N": 2, "markov": [1.0, 0.5]}}
    flags = ["--epsilon", "2.0"] if form == "flag" else []
    if form == "key":
        payload["epsilon"] = 2.0
    cfg = write_config(tmp_path, payload)
    rc = cli.main(["synth-time", "--config", cfg, "--out", str(tmp_path / "out"), *flags])
    assert rc == 2
    assert "config error: epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("form", ["key", "flag"])
def test_synth_freq_rejects_seed(tmp_path, capsys, form):
    # synthesis samples nothing, so a seed would change nothing
    payload = {"mode": "synth-freq", "plant": DELAY_PLANT, "lstructure": {"order": 0}}
    flags = ["--seed", "3"] if form == "flag" else []
    if form == "key":
        payload["seed"] = 3
    cfg = write_config(tmp_path, payload)
    rc = cli.main(["synth-freq", "--config", cfg, "--out", str(tmp_path / "out"), *flags])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_bad_polynomial_coefficient(tmp_path):
    plant = {"type": "transfer", "num": [[{"exponents": [1], "value": 1.0}]],
             "den": [0.0, 1.0], "lambda_vars": []}
    cfg = write_config(tmp_path, {"mode": "synth-freq", "plant": plant,
                                  "lstructure": {"order": 0}})
    rc = cli.main(["synth-freq", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("role", ["qfilter", "lstructure"])
@pytest.mark.parametrize("key", ["identity", "causal_decisions"])
def test_lifted_filter_false_flag_rejected(tmp_path, capsys, role, key):
    cfg = write_config(tmp_path, {
        "mode": "synth-time",
        "plant": {"type": "markov", "N": 2, "markov": [1.0, 0.5]},
        role: {key: False},
    })
    rc = cli.main(["synth-time", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert f"{role}.{key}: must be true" in capsys.readouterr().err


def _lin(c0, c1):
    return [{"exponents": [0], "value": c0}, {"exponents": [1], "value": c1}]


UNIT_CIRCLE_POLE = {"type": "transfer", "num": [1.0], "den": [-1.0, 1.0]}


@pytest.mark.parametrize("mode, payload", [
    # pole at z = 2 + theta/2: the Jury screen rejects the polytope
    pytest.param("synth-freq", {"plant": {"type": "polytope", "num": [1.0],
                                          "den": [_lin(-2.0, -0.5), 1.0],
                                          "vertices": [[0.0], [1.0]],
                                          "theta_vars": ["theta"]},
                                "lstructure": {"order": 0}}, id="UnstablePlant"),
    # a pole at z = 2, and one on the circle at z = 1: the Jury screen
    # rejects nominal plants too
    pytest.param("synth-freq", {"plant": {"type": "transfer", "num": [1.0], "den": [-2.0, 1.0]},
                                "lstructure": {"order": 1}}, id="UnstablePlant-nominal"),
    pytest.param("synth-freq", {"plant": UNIT_CIRCLE_POLE, "lstructure": {"order": 0}},
                 id="UnstablePlant-pole-on-circle"),
    pytest.param("verify", {"plant": UNIT_CIRCLE_POLE,
                            "lfilter": {"k_lead": 0, "k_lag": 0, "coeffs": [0.5]}},
                 id="UnitCirclePole"),
    # the learning tap drops out of the compiled program
    pytest.param("synth-freq", {"plant": {"type": "transfer", "num": [0.0], "den": [0.0, 1.0]},
                                "lstructure": {"order": 0}}, id="UnusedDecision-zero-num"),
    pytest.param("synth-freq", {"plant": {"type": "transfer", "num": [], "den": [0.0, 1.0]},
                                "lstructure": {"order": 0}}, id="UnusedDecision-empty-num"),
])
def test_unusable_plant_exits_2(tmp_path, capsys, mode, payload):
    cfg = write_config(tmp_path, {"mode": mode, **payload})
    rc = cli.main([mode, "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "unusable input" in capsys.readouterr().err


def _verify_design(tmp_path, mode, plant, res):
    """verify's sampled rate of a synthesized design, bounded by its gamma."""
    if mode == "synth-time":
        lfilter, domain = {"taps": [0.0] * (len(res["gain_list"]) - 1) + res["gain_list"]}, "time"
    else:
        lfilter, domain = {"k_lead": 0, "coeffs": res["gain_list"]}, "freq"
    vcfg = write_config(tmp_path, {"mode": "verify", "domain": domain, "plant": plant,
                                   "lfilter": lfilter, "bound": res["gamma"]},
                        name="verify.json")
    vout = tmp_path / "verify"
    cli.main(["verify", "--config", vcfg, "--out", str(vout)])
    return read_result(vout)["gamma_hat"]


@pytest.mark.parametrize("x", [1e15, 1e300], ids=["1e15", "1e300"])
@pytest.mark.parametrize("mode, plant", [
    # the deadbeat taps are (1, -x) and x: the compile scales the row of
    # x l0 by x, so l1's column of D is 1/x of l0's, yet independent
    pytest.param("synth-time", lambda x: {"type": "markov", "markov": [1.0, x]},
                 id="markov-1-x"),
    pytest.param("synth-freq", lambda x: {"type": "transfer", "num": [1.0], "den": [0.0, x]},
                 id="one-over-xz"),
])
def test_huge_coefficient_plant_certifies(tmp_path, mode, plant, x):
    plant = plant(x)
    cfg = {"mode": mode, "plant": plant}
    if mode == "synth-freq":
        cfg["lstructure"] = {"order": 0}
    out = tmp_path / "out"
    assert cli.main([mode, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    res = read_result(out)["result"]
    assert res["certificate"]["passed"] is True
    assert _verify_design(tmp_path, mode, plant, res) <= res["gamma"] + 1e-6


@pytest.mark.parametrize("mode, plant, lstructure", [
    # the deadbeat taps are (1e-50, -5e-51).  A certificate check that
    # scaled each mismatch by 1e50, the decision weight, passed taps
    # (6e-37, -4e-36) whose sampled rate is 7e14
    pytest.param("synth-freq", {"type": "transfer", "num": [1e50], "den": [-0.5, 1.0]},
                 {"order": 1}, id="1e50-over-z-minus-half"),
    # the deadbeat l1 = -x cancels x l0 = x: a tap one ulp off (1.5e-5 at
    # 1e11, 1.4e14 at 1e30) is a mismatch of 1e-16 against the terms' size
    pytest.param("synth-time", {"type": "markov", "markov": [1.0, 1e11]}, None,
                 id="markov-1-1e11"),
    pytest.param("synth-time", {"type": "markov", "markov": [1.0, 1e30]}, None,
                 id="markov-1-1e30"),
])
def test_huge_gain_not_falsely_certified(tmp_path, mode, plant, lstructure):
    cfg = {"mode": mode, "plant": plant}
    if lstructure:
        cfg["lstructure"] = lstructure
    out = tmp_path / "out"
    if cli.main([mode, "--config", write_config(tmp_path, cfg), "--out", str(out)]) != 0:
        return
    res = read_result(out)["result"]
    assert _verify_design(tmp_path, mode, plant, res) <= res["gamma"] + 1e-6


UNCERTAIN_LIFTED = {"mode": "synth-time", "plant": {
    "type": "markov", "N": 2, "lambda_vars": ["a", "b"],
    "markov": [[{"exponents": [1, 0], "value": 1.0}, {"exponents": [0, 1], "value": 2.0}], 0.5]}}

REPRO_REDUCED = {"mode": "repro-paper", "orders": [0], "k_values": [0], "order3_k_max": 0}

SIMULATE_DEADBEAT = {"mode": "simulate", "plant": DELAY_PLANT,
                     "lfilter": {"k_lead": 0, "k_lag": 0, "coeffs": [1.0]},
                     "horizon": 8, "trials": 3, "n_runs": 2}


@pytest.mark.parametrize("mode, payload, flags, key", [
    # resolution 0 used to sample a NaN point and print "sampled gamma = nan"
    pytest.param("verify", verify_config(None, {"resolution": 0}), [], "grid.resolution",
                 id="verify-resolution-0"),
    pytest.param("verify", verify_config(0.339, {"resolution": 0}), [], "grid.resolution",
                 id="verify-resolution-0-bound"),
    pytest.param("verify", verify_config(None, {"resolution": -2}), [], "grid.resolution",
                 id="verify-resolution-negative"),
    pytest.param("verify", verify_config(None, {"n_freq": 0}), [], "grid.n_freq",
                 id="verify-n-freq-0"),
    pytest.param("verify", verify_config(None, {"n_freq": -2}), [], "grid.n_freq",
                 id="verify-n-freq-negative"),
    pytest.param("verify", verify_config(None, {"n_random": -1}), [], "grid.n_random",
                 id="verify-n-random-negative"),
    pytest.param("verify", {**verify_config(None), "seed": -1}, [], "seed",
                 id="verify-seed-negative"),
    pytest.param("verify", verify_config(None), ["--seed", "-1"], "seed",
                 id="verify-seed-flag-negative"),
    pytest.param("simulate", {**SIMULATE_DEADBEAT, "seed": -1}, [], "seed",
                 id="simulate-seed-negative"),
    pytest.param("simulate", SIMULATE_DEADBEAT, ["--seed", "-1"], "seed",
                 id="simulate-seed-flag-negative"),
    # no run or no trial used to end in a traceback
    pytest.param("simulate", {**SIMULATE_DEADBEAT, "n_runs": 0}, [], "n_runs",
                 id="simulate-n-runs-0"),
    pytest.param("simulate", {**SIMULATE_DEADBEAT, "trials": 0}, [], "trials",
                 id="simulate-trials-0"),
    # a negative disturbance scale used to end in numpy's "high - low < 0"
    pytest.param("simulate", {**SIMULATE_DEADBEAT, "disturbance_scale": -1}, [],
                 "disturbance_scale", id="simulate-disturbance-scale-negative"),
    # a negative escalation cap used to end as "solver failure: no multiplier
    # power up to k=-1" (exit 3)
    pytest.param("synth-freq", {"mode": "synth-freq", "plant": PAPER_POLYTOPE,
                                "lstructure": {"order": 0}}, ["--k-max", "-1"], "k_max",
                 id="synth-freq-k-max-flag-negative"),
    pytest.param("synth-time", {**UNCERTAIN_LIFTED, "k_max": -2}, [], "k_max",
                 id="synth-time-k-max-negative"),
    pytest.param("repro-paper", {**REPRO_REDUCED, "order3_k_max": -1}, [], "order3_k_max",
                 id="repro-paper-order3-k-max-negative"),
    # a filter order below -1 used to end in a traceback, -1 in an empty FIR
    # (exit 4), and a negative lead in a silent delay
    pytest.param("synth-freq", {"mode": "synth-freq", "plant": DELAY_PLANT,
                                "lstructure": {"order": -2}}, [], "lstructure.order",
                 id="synth-freq-order-negative"),
    pytest.param("synth-freq", {"mode": "synth-freq", "plant": DELAY_PLANT,
                                "lstructure": {"order": -1}}, [], "lstructure.order",
                 id="synth-freq-order-minus-1"),
    pytest.param("synth-freq", {"mode": "synth-freq", "plant": DELAY_PLANT,
                                "qfilter": {"order": -2}, "lstructure": {"order": 0}}, [],
                 "qfilter.order", id="synth-freq-qfilter-order-negative"),
    pytest.param("synth-freq", {"mode": "synth-freq", "plant": DELAY_PLANT,
                                "lstructure": {"k_lead": -2, "coeffs": ["a"]}}, [],
                 "lstructure: k_lead", id="synth-freq-k-lead-negative"),
    pytest.param("synth-freq", {"mode": "synth-freq", "plant": DELAY_PLANT,
                                "lstructure": {"k_lead": 2, "coeffs": ["a"]}}, [],
                 "lstructure: k_lag", id="synth-freq-k-lag-negative"),
    pytest.param("synth-time", {"mode": "synth-time",
                                "plant": {"type": "markov", "N": 2, "markov": [1.0, 0.5]},
                                "lstructure": {"fir": {"order": -2}}}, [],
                 "lstructure.fir.order", id="synth-time-fir-order-negative"),
    pytest.param("verify", {**verify_config(None), "lfilter": {"order": -2}}, [],
                 "lfilter.order", id="verify-order-negative"),
    pytest.param("simulate", {**SIMULATE_DEADBEAT, "lfilter": {"order": -2}}, [],
                 "lfilter.order", id="simulate-order-negative"),
])
def test_bad_sampling_setting_exits_2(tmp_path, capsys, mode, payload, flags, key):
    cfg = write_config(tmp_path, payload)
    rc = cli.main([mode, "--config", cfg, "--out", str(tmp_path / "out"), *flags])
    assert rc == 2
    assert f"config error: {key}: must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("mode, payload, flags", [
    pytest.param("synth-freq", {"mode": "synth-freq", "plant": DELAY_PLANT,
                                "lstructure": {"order": 0}, "epsilon": 0}, [],
                 id="synth-freq-epsilon-0"),
    pytest.param("synth-freq", {"mode": "synth-freq", "plant": PAPER_POLYTOPE,
                                "lstructure": {"order": 0}, "epsilon": -1}, [],
                 id="synth-freq-epsilon-negative"),
    # M(gamma - eps) with eps = -0.1 used to certify a rate 0.1 below the
    # margin-free one, and exit 0
    pytest.param("repro-paper", {**REPRO_REDUCED, "epsilon": -0.1}, [],
                 id="repro-paper-epsilon-negative"),
    pytest.param("repro-paper", REPRO_REDUCED, ["--epsilon", "-0.1"],
                 id="repro-paper-epsilon-flag-negative"),
])
def test_nonpositive_epsilon_exits_2(tmp_path, capsys, mode, payload, flags):
    cfg = write_config(tmp_path, payload)
    rc = cli.main([mode, "--config", cfg, "--out", str(tmp_path / "out"), *flags])
    assert rc == 2
    assert "config error: epsilon must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out" / "result.json").exists()


def test_repro_paper_negative_k_value_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {**REPRO_REDUCED, "k_values": [-1, 0]})
    rc = cli.main(["repro-paper", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error: k_values" in capsys.readouterr().err


def test_repro_paper_repeated_order_exits_2(tmp_path, capsys):
    # orders [1, 1] used to solve order 1 twice and write two "order 1" columns
    cfg = write_config(tmp_path, {**REPRO_REDUCED, "orders": [1, 1]})
    rc = cli.main(["repro-paper", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error: orders" in capsys.readouterr().err
    assert not (tmp_path / "out" / "result.json").exists()


# inputs that used to end in a Python traceback (exit 1)
@pytest.mark.parametrize("mode, payload, message", [
    pytest.param("simulate", {**SIMULATE_DEADBEAT,
                              "plant": {"type": "transfer", "num": [1.0, 1.0], "den": [0.5, 1.0]}},
                 "plant must be strictly proper", id="simulate-biproper"),
    # a pole at z = -1e300: the Markov parameters overflow
    pytest.param("simulate", {**SIMULATE_DEADBEAT,
                              "plant": {"type": "transfer", "num": [1.0], "den": [1e300, 1.0]}},
                 "Markov parameters overflow", id="simulate-markov-overflow"),
    pytest.param("verify", {"mode": "verify", "domain": "time",
                            "plant": {"type": "markov", "markov": [1e300, 0.5]},
                            "lfilter": {"taps": [0, 1, -0.5]}},
                 "lifted gain overflows", id="verify-time-gain-overflow"),
])
def test_traceback_inputs_exit_2(tmp_path, capsys, mode, payload, message):
    cfg = write_config(tmp_path, payload)
    rc = cli.main([mode, "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert err.count("\n") == 1


def test_verify_empty_numerator_is_zero_plant(tmp_path):
    # "num": [] used to end in numpy's "need at least one array to concatenate";
    # it is the zero plant, whose rate is |Q| = 1
    cfg = write_config(tmp_path, {"mode": "verify", "bound": 1.0,
                                  "plant": {"type": "transfer", "num": [], "den": [0.0, 1.0]},
                                  "lfilter": {"coeffs": [0.5]},
                                  "grid": {"resolution": 2, "n_random": 2, "n_freq": 8}})
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert read_result(out)["gamma_hat"] == 1.0


@pytest.mark.parametrize("plant", [
    pytest.param({"type": "markov", "markov": 99}, id="markov-int"),
    pytest.param({"type": "markov", "markov": True}, id="markov-bool"),
    pytest.param({"type": "markov", "markov": None}, id="markov-null"),
    pytest.param({"type": "markov", "markov": 1e300}, id="markov-float"),
    pytest.param({"type": "markov", "markov": []}, id="markov-empty"),
    pytest.param({"type": "markov", "markov": [float("nan"), 0.5]}, id="markov-nan"),
    pytest.param({"type": "markov", "markov": [1.0, float("inf")]}, id="markov-inf"),
])
def test_malformed_time_plant_rejected(tmp_path, capsys, plant):
    cfg = write_config(tmp_path, {"mode": "synth-time", "plant": plant})
    rc = cli.main(["synth-time", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "config error: plant" in capsys.readouterr().err


def test_synth_time_large_margin_not_monotone(tmp_path, capsys):
    # the positivity margin floors gamma: with gamma on both diagonal blocks
    # of the lifted matrix, a margin of 2 is feasible at gamma >= 2, so the
    # run certifies a rate above one and exits 4
    first = [{"exponents": [1, 0], "value": 1.0}, {"exponents": [0, 1], "value": 2.0}]
    cfg = write_config(tmp_path, {"mode": "synth-time", "epsilon": 2.0, "k_max": 0,
                                  "plant": {"type": "markov", "N": 2, "lambda_vars": ["a", "b"],
                                            "markov": [first, 0.5]}})
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="no multiplier power certified"):
        rc = cli.main(["synth-time", "--config", cfg, "--out", str(out)])
    assert rc == 4
    res = read_result(out)["result"]
    assert res["not_monotone"] is True
    assert res["gamma"] >= 2.0
    assert "no contraction certified" in capsys.readouterr().err


def test_synth_time_deadbeat_with_huge_gain(tmp_path):
    # markov [1, 1e10] has the deadbeat design L = P^-1 (gains 1 and -1e10)
    cfg = write_config(tmp_path, {"mode": "synth-time",
                                  "plant": {"type": "markov", "N": 2,
                                            "markov": [1.0, 1e10]}})
    out = tmp_path / "out"
    rc = cli.main(["synth-time", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert read_result(out)["result"]["gamma"] <= 1e-4


def test_synth_time_huge_first_markov_certifies(tmp_path):
    # markov [1e9, 0.5]: the deadbeat design L = P^-1 has taps 1e-9 and
    # -5e-19.  The Schur complement of this program only factors with a ridge.
    cfg = write_config(tmp_path, {"mode": "synth-time",
                                  "plant": {"type": "markov", "N": 2, "markov": [1e9, 0.5]}})
    out = tmp_path / "out"
    assert cli.main(["synth-time", "--config", cfg, "--out", str(out)]) == 0
    res = read_result(out)["result"]
    assert res["gamma"] <= 1e-4
    assert res["gain_list"] == pytest.approx([1e-9, -5e-19], rel=1e-6)


def test_synth_time_deadbeat_with_a_1e12_gain(tmp_path):
    # markov [1, 1e12]: the tap l1 = -1e12 keeps its place next to l0's 1e12
    cfg = write_config(tmp_path, {"mode": "synth-time",
                                  "plant": {"type": "markov", "N": 2, "markov": [1.0, 1e12]}})
    out = tmp_path / "out"
    assert cli.main(["synth-time", "--config", cfg, "--out", str(out)]) == 0
    res = read_result(out)["result"]
    assert res["certificate"]["passed"] is True
    assert res["gain_list"] == pytest.approx([1.0, -1e12], rel=1e-6)


def test_synth_time_huge_first_markov_not_falsely_certified(tmp_path):
    plant = {"type": "markov", "N": 2, "markov": [1e13, 0.5]}
    cfg = write_config(tmp_path, {"mode": "synth-time", "plant": plant})
    out = tmp_path / "out"
    cli.main(["synth-time", "--config", cfg, "--out", str(out)])
    res = read_result(out)["result"] if (out / "result.json").exists() else {}
    if not (res.get("certificate") or {}).get("passed"):
        return
    assert _verify_design(tmp_path, "synth-time", plant, res) <= res["gamma"] + 1e-6


# Seeded fuzz: minimal configs with one or two keys deleted or values
# replaced, anywhere in the tree, by values from this pool.  Every input must
# run or exit with a documented code, never raise.
FUZZ_POOL = (None, True, False, 0, -1, 1e300, float("nan"), "x", "", [], {}, [0.0])
FUZZ_BASES = (
    ("synth-freq", {"mode": "synth-freq", "plant": DELAY_PLANT, "lstructure": {"order": 0}}),
    ("synth-time", {"mode": "synth-time",
                    "plant": {"type": "markov", "N": 2, "markov": [1.0, 0.5]}}),
)


def _mutate(cfg, rng):
    cfg = json.loads(json.dumps(cfg))
    for _ in range(int(rng.integers(1, 3))):
        slots = []

        def walk(node):
            for key in (list(node) if isinstance(node, dict) else range(len(node))):
                slots.append((node, key))
                if isinstance(node[key], (dict, list)):
                    walk(node[key])

        walk(cfg)
        if not slots:
            break
        node, key = slots[int(rng.integers(len(slots)))]
        if isinstance(node, dict) and rng.random() < 0.3:
            del node[key]
        else:
            node[key] = copy.deepcopy(FUZZ_POOL[int(rng.integers(len(FUZZ_POOL)))])
    return cfg


# the sampling modes on small grids and horizons
FUZZ_SAMPLING_BASES = (
    ("simulate", {"mode": "simulate", "plant": DELAY_PLANT, "lfilter": {"coeffs": [0.5]},
                  "horizon": 10, "trials": 3, "n_runs": 2}),
    ("verify", {"mode": "verify", "plant": DELAY_PLANT, "lfilter": {"coeffs": [0.5]},
                "grid": {"resolution": 2, "n_random": 2, "n_freq": 8}}),
    ("verify", {"mode": "verify", "domain": "time",
                "plant": {"type": "markov", "N": 2, "markov": [1.0, 0.5]},
                "lfilter": {"taps": [0.0, 0.5, 0.0]},
                "grid": {"resolution": 2, "n_random": 2, "n_freq": 8}}),
)


def _fuzz(tmp_path, bases, seed, count):
    rng = np.random.default_rng(seed)
    for i in range(count):
        mode, base = bases[i % len(bases)]
        payload = _mutate(base, rng)
        cfg = write_config(tmp_path, payload)
        try:
            rc = cli.main([mode, "--config", cfg, "--out", str(tmp_path / "out")])
        except Exception as e:  # report the offending config, not just the error
            raise AssertionError(f"{mode} {json.dumps(payload)} raised {e!r}") from e
        assert rc in (0, 2, 3, 4), (mode, payload, rc)


def test_fuzzed_configs_exit_with_documented_codes(tmp_path):
    _fuzz(tmp_path, FUZZ_BASES, 20240518, 400)


def test_fuzzed_sampling_configs_exit_with_documented_codes(tmp_path):
    _fuzz(tmp_path, FUZZ_SAMPLING_BASES, 20261020, 1500)


# -- verify mode ---------------------------------------------------------


def test_verify_paper_gains_within_bound(tmp_path, capsys):
    grid = {"resolution": 10, "n_random": 50, "n_freq": 120}
    cfg = write_config(tmp_path, verify_config(0.339, grid))
    out = tmp_path / "out"
    rc = cli.main(["verify", "--config", cfg, "--out", str(out)])
    assert rc == 0
    res = read_result(out)
    assert res["bound_satisfied"] is True
    assert 0.31 <= res["gamma_hat"] <= 0.339
    # vertices + barycentric mesh + random draws, one csv row each
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda1", "lambda2", "gamma"]
    assert len(rows) == 1 + 2 + 11 + 50
    assert "sampled gamma" in capsys.readouterr().out


def test_verify_bound_violation_exits_3(tmp_path, capsys):
    grid = {"resolution": 10, "n_random": 50, "n_freq": 120}
    cfg = write_config(tmp_path, verify_config(0.30, grid))
    out = tmp_path / "out"
    rc = cli.main(["verify", "--config", cfg, "--out", str(out)])
    assert rc == 3
    assert read_result(out)["bound_satisfied"] is False
    assert "exceeds the bound" in capsys.readouterr().err


def test_verify_time_domain(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "verify", "domain": "time",
        "plant": {"type": "markov", "N": 2, "markov": [2.0, 0.4]},
        "lfilter": {"taps": [0.0, 0.25, 0.0]},
        "bound": 0.6,
    })
    out = tmp_path / "out"
    rc = cli.main(["verify", "--config", cfg, "--out", str(out)])
    assert rc == 0
    res = read_result(out)
    # scalar-ish oracle: sigma_max is close to |1 - 0.25 * 2| = 0.5
    assert res["gamma_hat"] == pytest.approx(0.55, abs=0.05)


# -- simulate mode -------------------------------------------------------


def test_simulate_deadbeat(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "mode": "simulate", "plant": DELAY_PLANT,
        "lfilter": {"k_lead": 0, "k_lag": 0, "coeffs": [1.0]},
        "horizon": 8, "trials": 3, "n_runs": 2, "gamma_star": 0.1, "seed": 5,
    })
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config", cfg, "--out", str(out)])
    assert rc == 0
    res = read_result(out)
    assert res["envelope_ok"] is True
    assert res["worst_ratio"] <= 0.12
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run", "trial", "error_norm", "ratio"]
    assert len(rows) == 1 + 2 * (3 + 1)  # header + n_runs x (trials + 1)
    assert [r[3] for r in rows[1:] if r[1] == "0"] == ["", ""]  # no ratio before an update
    assert "worst contraction ratio" in capsys.readouterr().out


def test_simulate_divergent_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "mode": "simulate", "plant": DELAY_PLANT,
        "lfilter": {"k_lead": 0, "k_lag": 0, "coeffs": [-3.0]},
        "horizon": 6, "trials": 3, "n_runs": 1,
    })
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert "divergent" in capsys.readouterr().err.lower()


def test_simulate_overflowing_recursion_exits_3(tmp_path, capsys):
    # the zero plant with a 1e300 gain: the recursion's norm overflows, which
    # used to pass its settle test and exit 0 with worst ratio 0
    cfg = write_config(tmp_path, {
        "mode": "simulate", "plant": {"type": "transfer", "num": [], "den": [0.0, 1.0]},
        "lfilter": {"coeffs": [1e300]}, "horizon": 6, "trials": 3, "n_runs": 1,
    })
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert "divergent" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("lfilter, truncated", [
    ({"k_lead": 0, "k_lag": 1, "coeffs": [0.5, 0.1]}, False),
    ({"k_lead": 1, "k_lag": 0, "coeffs": [0.1, 0.5]}, True),
], ids=["lag", "lead"])
def test_simulate_flags_only_lead_taps_as_truncated(tmp_path, lfilter, truncated):
    # a lag tap acts on past samples; a lead tap needs samples beyond the
    # horizon's end, which the lifted filter cuts off
    cfg = write_config(tmp_path, {"mode": "simulate", "plant": DELAY_PLANT,
                                  "lfilter": lfilter, "horizon": 8, "trials": 3,
                                  "n_runs": 2})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert [r["truncated_noncausal"] for r in read_result(out)["runs"]] == [truncated] * 2


# -- determinism ---------------------------------------------------------


def strip_timestamp(path):
    with open(path) as fh:
        return [ln for ln in fh if '"timestamp"' not in ln]


def test_results_reproducible_except_timestamp(tmp_path):
    cfg = write_config(tmp_path, {"mode": "synth-freq", "plant": DELAY_PLANT,
                                  "lstructure": {"order": 1}})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["synth-freq", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["synth-freq", "--config", cfg, "--out", str(out2)]) == 0
    assert strip_timestamp(out1 / "result.json") == strip_timestamp(out2 / "result.json")
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


# -- paper reproduction --------------------------------------------------


def test_paper_plant_forms_agree():
    plant = cli.paper_plant()
    assert plant.lambda_vars == ("lam1", "lam2")
    assert len(plant.num) == 2 and len(plant.den) == 2


def test_repro_paper_reduced(tmp_path, capsys):
    cfg = write_config(tmp_path, {"mode": "repro-paper", "orders": [0],
                                  "k_values": [0], "order3_k_max": 0})
    out = tmp_path / "out"
    rc = cli.main(["repro-paper", "--config", cfg, "--out", str(out)])
    assert rc == 0
    table = (out / "table.md").read_text()
    assert "order 0" in table
    assert "Order 3" in table
    assert "Jury stability margin" in table
    res = read_result(out)
    assert res["jury"]["stable"] is True
    assert res["jury"]["margin"] == pytest.approx(0.49, abs=0.02)
    assert 0.79 <= res["orders"]["0"]["gamma"] <= 0.83
    assert 0.30 <= res["order3"]["gamma"] <= 0.34
    outtext = capsys.readouterr().out
    assert "| 0 |" in outtext
