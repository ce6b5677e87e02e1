import copy
import csv
import json

import numpy as np
import pytest

from ilc_sos import cli


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
    # pinned margin shows up as the floor of the optimized rate: eta = eps
    cfg = write_config(tmp_path, {"mode": "synth-freq", "plant": DELAY_PLANT,
                                  "lstructure": {"order": 0}})
    out = tmp_path / "out"
    rc = cli.main(["synth-freq", "--config", cfg, "--out", str(out),
                   "--epsilon", "0.01"])
    assert rc == 0
    res = read_result(out)["result"]
    assert res["epsilon"] == pytest.approx(0.01)
    assert res["gamma"] == pytest.approx(0.1, abs=1e-3)


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
    pytest.param("synth-freq", {"plant": UNIT_CIRCLE_POLE, "lstructure": {"order": 0}},
                 id="DegenerateDenominator"),
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


def test_synth_time_unsolvable_plant_is_solver_failure(tmp_path, capsys):
    # a positivity margin of 2 exceeds the identity block of the lifted
    # matrix at every vertex, so no multiplier power has a certificate
    first = [{"exponents": [1, 0], "value": 1.0}, {"exponents": [0, 1], "value": 2.0}]
    cfg = write_config(tmp_path, {"mode": "synth-time", "epsilon": 2.0, "k_max": 0,
                                  "plant": {"type": "markov", "N": 2, "lambda_vars": ["a", "b"],
                                            "markov": [first, 0.5]}})
    rc = cli.main(["synth-time", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "solver failure" in err
    assert "bisection" not in err


def test_synth_time_deadbeat_with_huge_gain(tmp_path):
    # markov [1, 1e10] has the deadbeat design L = P^-1 (gains 1 and -1e10)
    cfg = write_config(tmp_path, {"mode": "synth-time",
                                  "plant": {"type": "markov", "N": 2,
                                            "markov": [1.0, 1e10]}})
    out = tmp_path / "out"
    rc = cli.main(["synth-time", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert read_result(out)["result"]["gamma"] <= 1e-4


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


def verify_config(bound, grid=None):
    cfg = {"mode": "verify", "domain": "freq", "plant": PAPER_POLYTOPE,
           "lfilter": PAPER_GAINS, "bound": bound}
    if grid:
        cfg["grid"] = grid
    return cfg


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
    assert len(rows) == 1 + 2 * 4
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
