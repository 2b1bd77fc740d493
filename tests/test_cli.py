import csv
import json
from pathlib import Path

import numpy as np
import pytest

from blockadechain.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    DEFAULT_PARAMETERS,
    ConfigError,
    load_config,
    main,
)

REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, tree, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tree), encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


SMALL_SWEEP = {
    "scenario": "deviation-sweep",
    "parameters": {"n_min": 2, "n_max": 3, "j2": [0.01], "t_points": 5, "scenarios": ["idle"]},
}


# ---------------------------------------------------------------------------
# configuration handling

def test_unknown_keys_rejected(tmp_path):
    cfg = write_config(tmp_path, {"scenario": "deviation-sweep", "parameters": {"bogus": 1}})
    assert main(["deviation-sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG


def test_unknown_top_level_key_rejected(tmp_path):
    cfg = write_config(tmp_path, {"scenario": "deviation-sweep", "extra": 1})
    assert main(["deviation-sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG


def test_scenario_mismatch_rejected(tmp_path):
    cfg = write_config(tmp_path, SMALL_SWEEP)
    assert main(["gate-fidelity", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG


def test_empty_t_grid_rejected(tmp_path):
    bad = json.loads(json.dumps(SMALL_SWEEP))
    bad["parameters"]["t_points"] = 0
    cfg = write_config(tmp_path, bad)
    assert main(["deviation-sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG


def test_non_finite_parameter_rejected(tmp_path):
    path = tmp_path / "inf.json"
    path.write_text('{"scenario": "gate-fidelity", "parameters": {"j1": Infinity}}', encoding="utf-8")
    with pytest.raises(ConfigError, match="finite"):
        load_config("gate-fidelity", str(path), 0)


@pytest.mark.parametrize(
    "scenario, key",
    [
        ("deviation-sweep", "n_min"),
        ("deviation-sweep", "n_max"),
        ("deviation-sweep", "t_points"),
        ("josephson-map", "n_boxes"),
        ("blockade-check", "n_logical"),
        ("blockade-check", "m"),
    ],
)
def test_boolean_integer_parameter_rejected(tmp_path, scenario, key):
    params = json.loads(json.dumps(DEFAULT_PARAMETERS[scenario]))
    target = params["checks"][1] if scenario == "blockade-check" else params
    target[key] = True  # JSON true loads as a Python bool, an int subclass
    cfg = write_config(tmp_path, {"scenario": scenario, "parameters": params})
    with pytest.raises(ConfigError, match=rf"{key}.*integer"):
        load_config(scenario, cfg, 0)


@pytest.mark.parametrize("seed", [None, True])
def test_non_integer_seed_rejected(tmp_path, capsys, seed):
    cfg = write_config(tmp_path, dict(SMALL_SWEEP, seed=seed))
    assert main(["deviation-sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG
    assert "config error: seed" in capsys.readouterr().err


@pytest.mark.parametrize("params", [{"j2": [True]}, {"x1": True}], ids=["j2", "x1"])
def test_boolean_float_parameter_rejected(tmp_path, capsys, params):
    cfg = write_config(tmp_path, {"scenario": "gate-fidelity", "parameters": params})
    assert main(["gate-fidelity", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG
    assert "boolean" in capsys.readouterr().err


def test_non_string_scenario_entry_rejected(tmp_path, capsys):
    bad = json.loads(json.dumps(SMALL_SWEEP))
    bad["parameters"]["scenarios"] = [["idle"]]
    cfg = write_config(tmp_path, bad)
    assert main(["deviation-sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG
    assert "config error: scenarios" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["output_path", "json_mirror"])
def test_non_string_output_path_rejected(tmp_path, capsys, key):
    cfg = write_config(tmp_path, {"scenario": "blockade-check", key: 5})
    out = tmp_path / "o.csv"
    assert main(["blockade-check", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {key}" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file(tmp_path):
    assert (
        main(["deviation-sweep", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.csv")])
        == EXIT_CONFIG
    )


def test_checked_in_configs_parse():
    for name, scenario in [
        ("deviation_sweep.json", "deviation-sweep"),
        ("gate_fidelity.json", "gate-fidelity"),
        ("josephson_map.json", "josephson-map"),
        ("blockade_check.json", "blockade-check"),
    ]:
        cfg = load_config(scenario, str(REPO_CONFIGS / name), 0)
        assert cfg.scenario == scenario


# ---------------------------------------------------------------------------
# deviation sweep

def test_sweep_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path, SMALL_SWEEP)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["deviation-sweep", "--config", cfg, "--out", out1, "--seed", "3"]) == EXIT_OK
    assert main(["deviation-sweep", "--config", cfg, "--out", out2, "--seed", "3"]) == EXIT_OK
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = write_config(tmp_path, SMALL_SWEEP)
    out1, out2 = str(tmp_path / "serial.csv"), str(tmp_path / "par.csv")
    assert main(["deviation-sweep", "--config", cfg, "--out", out1]) == EXIT_OK
    assert main(["deviation-sweep", "--config", cfg, "--out", out2, "--jobs", "2"]) == EXIT_OK
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_sweep_zero_coupling_columns(tmp_path):
    tree = json.loads(json.dumps(SMALL_SWEEP))
    tree["parameters"]["j2"] = [0.0]
    cfg = write_config(tmp_path, tree)
    out = str(tmp_path / "o.csv")
    assert main(["deviation-sweep", "--config", cfg, "--out", out]) == EXIT_OK
    rows = [r for r in read_rows(out) if r["record"] == "deviation"]
    assert rows
    for row in rows:
        assert float(row["exact_raw"]) == 0.0
        assert float(row["exact_phase_opt"]) == 0.0
        assert float(row["lower_bound"]) == 0.0
        assert row["bound_ok"] == "pass"


def test_sweep_default_config_bounds_pass(tmp_path):
    out = str(tmp_path / "o.csv")
    assert main(["deviation-sweep", "--out", out]) == EXIT_OK
    rows = read_rows(out)
    dev = [r for r in rows if r["record"] == "deviation"]
    assert all(r["bound_ok"] == "pass" for r in dev)
    scenarios = {r["scenario"] for r in dev}
    assert scenarios == {"idle", "sigma_z", "sigma_x", "inter_qubit"}
    # per-scenario n floors: sigma_x starts at 4, inter_qubit at 3
    assert min(int(r["n"]) for r in dev if r["scenario"] == "sigma_x") == 4
    assert min(int(r["n"]) for r in dev if r["scenario"] == "inter_qubit") == 3
    slopes = [r for r in rows if r["record"] == "slope"]
    assert slopes and all(r["slope"] != "" for r in slopes)


def test_sweep_json_mirror(tmp_path):
    tree = json.loads(json.dumps(SMALL_SWEEP))
    mirror = tmp_path / "mirror.json"
    tree["json_mirror"] = str(mirror)
    cfg = write_config(tmp_path, tree)
    assert main(["deviation-sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == EXIT_OK
    data = json.loads(mirror.read_text(encoding="utf-8"))
    assert data["scenario"] == "deviation-sweep"
    assert data["rows"]


# ---------------------------------------------------------------------------
# gate fidelity

def test_gate_fidelity_single_point(tmp_path):
    tree = {"scenario": "gate-fidelity", "parameters": {"tau": [0.1]}}
    cfg = write_config(tmp_path, tree)
    out = str(tmp_path / "gate.csv")
    assert main(["gate-fidelity", "--config", cfg, "--out", out]) == EXIT_OK
    (row,) = read_rows(out)
    assert row["mode"] == "compensated"
    assert float(row["fidelity"]) >= 1 - 1e-9
    assert float(row["leakage"]) <= 1e-10
    assert abs(float(row["phi_residual"])) < 1e-8


def test_gate_fidelity_naive_flag(tmp_path):
    tree = {"scenario": "gate-fidelity", "parameters": {"tau": [0.1]}}
    cfg = write_config(tmp_path, tree)
    out = str(tmp_path / "naive.csv")
    assert main(["gate-fidelity", "--config", cfg, "--out", out, "--naive"]) == EXIT_OK
    (row,) = read_rows(out)
    assert row["mode"] == "naive"
    assert float(row["deficit"]) > 1e-3


def test_gate_fidelity_schedule_interchange(tmp_path):
    from blockadechain.chain import ControlSchedule

    dump = tmp_path / "schedules.json"
    tree = {
        "scenario": "gate-fidelity",
        "parameters": {"tau": [0.1], "schedule_out": str(dump)},
    }
    cfg = write_config(tmp_path, tree)
    assert main(["gate-fidelity", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == EXIT_OK
    payload = json.loads(dump.read_text(encoding="utf-8"))
    (entry,) = payload
    schedule = ControlSchedule.from_payload(entry["segments"])
    assert schedule.n_spins == 10
    assert all(not any(s["bx"]) and not any(s["bz"]) for s in entry["segments"])


def test_gate_fidelity_tau_zero_identity_row(tmp_path):
    tree = {"scenario": "gate-fidelity", "parameters": {"tau": [0.0]}}
    cfg = write_config(tmp_path, tree)
    out = str(tmp_path / "zero.csv")
    assert main(["gate-fidelity", "--config", cfg, "--out", out]) == EXIT_OK
    (row,) = read_rows(out)
    assert float(row["fidelity"]) >= 1 - 1e-9
    assert min(float(row["phi"]), 2 * np.pi - float(row["phi"])) < 1e-8


def test_gate_fidelity_imprecise_phase_is_invariant_failure(tmp_path, capsys):
    # 4 J1 tau mod 2 pi carries no precision at tau = 1e300; the row is
    # still written, and the run reports the failed phase check
    tree = {"scenario": "gate-fidelity", "parameters": {"tau": [1e300]}}
    cfg = write_config(tmp_path, tree)
    out = str(tmp_path / "big.csv")
    assert main(["gate-fidelity", "--config", cfg, "--out", out]) == EXIT_INVARIANT
    assert "phase residual" in capsys.readouterr().err
    (row,) = read_rows(out)
    assert abs(float(row["phi_residual"])) > 1e-12
    # naive mode reports its residual without failing
    assert main(["gate-fidelity", "--config", cfg, "--out", out, "--naive"]) == EXIT_OK


def test_gate_fidelity_checked_in_config_phase_exact(tmp_path):
    out = str(tmp_path / "gate.csv")
    assert main(["gate-fidelity", "--config", str(REPO_CONFIGS / "gate_fidelity.json"), "--out", out]) == EXIT_OK
    assert all(abs(float(row["phi_residual"])) <= 1e-12 for row in read_rows(out))


# ---------------------------------------------------------------------------
# josephson map

def test_josephson_default_decay_pass(tmp_path):
    out = str(tmp_path / "jj.csv")
    assert main(["josephson-map", "--out", out]) == EXIT_OK
    rows = read_rows(out)
    (check,) = [r for r in rows if r["record"] == "decay_check"]
    assert check["status"] == "pass"
    couplings = {int(r["order"]): float(r["value"]) for r in rows if r["record"] == "coupling"}
    assert couplings[2] / couplings[1] == pytest.approx(0.01, rel=0.05)


def test_josephson_out_of_regime_reported(tmp_path):
    tree = {"scenario": "josephson-map", "parameters": {"c_c": 0.5}}
    cfg = write_config(tmp_path, tree)
    out = str(tmp_path / "jj.csv")
    with pytest.warns(UserWarning, match="epsilon"):
        code = main(["josephson-map", "--config", cfg, "--out", out])
    assert code == EXIT_OK
    (check,) = [r for r in read_rows(out) if r["record"] == "decay_check"]
    assert check["status"] == "out-of-regime"


def test_josephson_rejects_single_box(tmp_path):
    tree = {"scenario": "josephson-map", "parameters": {"n_boxes": 1}}
    cfg = write_config(tmp_path, tree)
    assert main(["josephson-map", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# blockade check

def test_blockade_check_default_rows(tmp_path):
    out = str(tmp_path / "bc.csv")
    assert main(["blockade-check", "--out", out]) == EXIT_OK
    rows = read_rows(out)
    assert len(rows) == 3
    assert float(rows[0]["residual"]) == 0.0  # single-spin, nearest order only
    assert float(rows[1]["residual"]) == 0.0  # pair encoding, both orders
    assert float(rows[2]["residual"]) > 0.0   # injected third order


def test_blockade_check_null_m_rejected(tmp_path, capsys):
    check = {"layout": "pair-encoded", "n_logical": 2, "m": None, "couplings": [1.0]}
    cfg = write_config(tmp_path, {"scenario": "blockade-check", "parameters": {"checks": [check]}})
    assert main(["blockade-check", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


def test_exit_codes_are_distinct():
    assert (EXIT_OK, EXIT_CONFIG, EXIT_INVARIANT) == (0, 1, 2)
