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
    pytest.param("synth-freq", {"plant": {"type": "transfer", "num": [1.0], "den": [0.0, 1e300]},
                                "lstructure": {"order": 0}}, id="UnusedDecision-huge-den"),
    pytest.param("synth-time", {"plant": {"type": "markov", "markov": [1.0, 1e300]}},
                 id="UnusedDecision-huge-markov"),
])
def test_unusable_plant_exits_2(tmp_path, capsys, mode, payload):
    cfg = write_config(tmp_path, {"mode": mode, **payload})
    rc = cli.main([mode, "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "unusable input" in capsys.readouterr().err


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
])
def test_bad_sampling_setting_exits_2(tmp_path, capsys, mode, payload, flags, key):
    cfg = write_config(tmp_path, payload)
    rc = cli.main([mode, "--config", cfg, "--out", str(tmp_path / "out"), *flags])
    assert rc == 2
    assert f"config error: {key}: must be at least" in capsys.readouterr().err


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


@pytest.mark.xfail(strict=True, reason="the compile prunes the 1 of 1 - 1e13 l0 "
                   "relative to the decision weight, so a zero L certifies")
def test_synth_time_huge_first_markov_not_falsely_certified(tmp_path):
    plant = {"type": "markov", "N": 2, "markov": [1e13, 0.5]}
    cfg = write_config(tmp_path, {"mode": "synth-time", "plant": plant})
    out = tmp_path / "out"
    cli.main(["synth-time", "--config", cfg, "--out", str(out)])
    res = read_result(out)["result"] if (out / "result.json").exists() else {}
    if not (res.get("certificate") or {}).get("passed"):
        return
    l0, l1 = res["gain_list"]
    vcfg = write_config(tmp_path, {"mode": "verify", "domain": "time", "plant": plant,
                                   "lfilter": {"taps": [0.0, l0, l1]},
                                   "bound": res["gamma"]}, name="verify.json")
    vout = tmp_path / "verify"
    cli.main(["verify", "--config", vcfg, "--out", str(vout)])
    assert read_result(vout)["gamma_hat"] <= res["gamma"] + 1e-6


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


def test_fuzzed_configs_exit_with_documented_codes(tmp_path):
    rng = np.random.default_rng(20240518)
    for i in range(400):
        mode, base = FUZZ_BASES[i % len(FUZZ_BASES)]
        payload = _mutate(base, rng)
        cfg = write_config(tmp_path, payload)
        try:
            rc = cli.main([mode, "--config", cfg, "--out", str(tmp_path / "out")])
        except Exception as e:  # report the offending config, not just the error
            raise AssertionError(f"{mode} {json.dumps(payload)} raised {e!r}") from e
        assert rc in (0, 2, 3, 4), (mode, payload, rc)


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
