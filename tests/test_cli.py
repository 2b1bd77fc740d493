import csv
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from blockadechain import LAYOUT_BYTES_CAP, InvariantViolation, blockade, cli, deviation, josephson
from blockadechain.chain import ChainSpec
from blockadechain.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    DEFAULT_PARAMETERS,
    SCENARIOS,
    ConfigError,
    Table,
    _RUNNERS,
    _fmt,
    _write_outputs,
    load_config,
    main,
)
from blockadechain.deviation import MIN_QUBITS, Scenario, deviation_speed, scenario_deviation
from blockadechain.blockade import pair_encoded_layout
from blockadechain.gates import logical_sigma_z, simulate_gate
from blockadechain.josephson import (
    JosephsonArraySpec,
    build_capacitance_matrix,
    extract_couplings,
    invert_capacitance,
)
from blockadechain.oracles import PauliTerm, dense_tridiagonal

REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(cli.__file__).resolve().parents[1]


def write_config(tmp_path, tree, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tree), encoding="utf-8")
    return str(path)


def files(root):
    """Every file under ``root`` and its bytes."""
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


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


BLOCKADE_CHECK = {"layout": "single-spin", "n_logical": 4, "couplings": [1.0]}
PATHS_COLLIDE = "the CSV, json_mirror, schedule_out and --config paths must name different files"


@pytest.mark.parametrize(
    "scenario, tree, args, message",
    [
        # an integer past the float range, one key per subcommand
        ("gate-fidelity", {"parameters": {"j1": 10**400}}, [], "j1 must be finite"),
        ("deviation-sweep", {"parameters": {"j2": [0.01, -10**400]}}, [], "j2 must be finite"),
        ("josephson-map", {"parameters": {"c_c": 10**400}}, [], "c_c must be finite"),
        ("blockade-check", {"parameters": {"checks": [dict(BLOCKADE_CHECK, couplings=[1.0, 10**400])]}}, [],
         "couplings must be finite"),
        # a numeric string is not a number
        ("gate-fidelity", {"parameters": {"j1": "1_0"}}, [], "j1 must be a number"),
        ("deviation-sweep", {"parameters": {"j2": ["0.01"]}}, [], "j2 must be a number"),
        ("josephson-map", {"parameters": {"c_g": "0.5"}}, [], "c_g must be a number"),
        ("blockade-check", {"parameters": {"checks": [dict(BLOCKADE_CHECK, couplings=["1e0"])]}}, [],
         "couplings must be a number"),
        # gate-fidelity's j2 is a list, as tau is
        ("gate-fidelity", {"parameters": {"j2": 0.05}}, [], "j2 must be a nonempty list of numbers"),
        ("gate-fidelity", {"parameters": {"j1": 0}}, [], "j1 must be nonzero"),
        ("gate-fidelity", {"parameters": {"x1": 0.0}}, [], "x1 must be positive"),
        ("gate-fidelity", {"parameters": {"tau": [0.1, -0.1]}}, [], "tau values must be nonnegative"),
        ("gate-fidelity", {"parameters": {"naive": 1}}, [], "naive must be a boolean"),
        ("gate-fidelity", {"parameters": {"schedule_out": 5}}, [], "schedule_out must be a path string"),
        ("josephson-map", {"parameters": {"units": "SI"}}, [], "units must be 'reduced' or 'si'"),
        ("blockade-check", {"parameters": {"checks": []}}, [], "checks must be a nonempty list"),
        ("blockade-check", {"parameters": {"checks": [BLOCKADE_CHECK, [4]]}}, [], "each check must be an object"),
        ("blockade-check", {"parameters": {"checks": [dict(BLOCKADE_CHECK, layout="pair")]}}, [],
         "layout must be 'single-spin' or 'pair-encoded'"),
        ("deviation-sweep", {"parameters": {"n_min": 5, "n_max": 4}}, [], "need 2 <= n_min <= n_max"),
        ("deviation-sweep", {"parameters": {"n_min": 1}}, [], "need 2 <= n_min <= n_max"),
        ("deviation-sweep", [], [], "config root must be an object"),
        ("deviation-sweep", {"parameters": []}, [], "parameters must be an object"),
        ("blockade-check", {}, ["--jobs", "0"], "--jobs must be at least 1"),
        # deviation-sweep takes each J2 and each scenario once
        ("deviation-sweep", {"parameters": {"j2": [0.03, 0.03]}}, [], "j2 values must be distinct (0.0 and -0.0 are equal)"),
        ("deviation-sweep", {"parameters": {"j2": [0.0, -0.0]}}, [], "j2 values must be distinct (0.0 and -0.0 are equal)"),
        ("deviation-sweep", {"parameters": {"scenarios": ["idle", "idle"]}}, [],
         "scenarios must be a nonempty subset of ['idle', 'inter_qubit', 'sigma_x', 'sigma_z']"),
        # a C_0 = c_g + c_j whose reciprocal overflows: 1 / C_0 bounds every |C^-1_ij|, as
        # C = C_0 (I + eps L) with L the path Laplacian, L >= 0
        ("josephson-map", {"parameters": {"c_g": 1e-310, "c_j": 1e-310, "c_c": 1e-312}}, [],
         "c_g + c_j = 2e-310 is too small: its reciprocal overflows"),
        ("josephson-map", {"parameters": {"c_g": 1e-310, "c_j": 1e-310, "c_c": 1e-310}}, [],
         "c_g + c_j = 2e-310 is too small: its reciprocal overflows"),
        # a C_0 that overflows, and a finite C_0 whose diagonal C_0 (1 + 2 epsilon) does
        ("josephson-map", {"parameters": {"c_g": 1e308, "c_j": 1e308}}, [],
         "c_g + c_j = inf is too large: C's diagonal C_0 (1 + 2 epsilon) overflows"),
        ("josephson-map", {"parameters": {"c_g": 8e307, "c_j": 8e307, "c_c": 1.6e307}}, [],
         "c_g + c_j = 1.6e+308 is too large: C's diagonal C_0 (1 + 2 epsilon) overflows"),
        # two outputs, or an output and the config, that resolve to one file: the later
        # write would replace the earlier one (relative paths are in tmp_path)
        ("blockade-check", {"json_mirror": "o.csv"}, [], PATHS_COLLIDE),
        ("gate-fidelity", {"parameters": {"schedule_out": "./o.csv"}}, [], PATHS_COLLIDE),
        ("gate-fidelity", {"json_mirror": "s.json", "parameters": {"schedule_out": "./s.json"}}, [],
         PATHS_COLLIDE),
        ("deviation-sweep", {"json_mirror": "config.json"}, [], PATHS_COLLIDE),
        ("gate-fidelity", {"parameters": {"schedule_out": "config.json"}}, [], PATHS_COLLIDE),
        ("josephson-map", {}, ["--out", "config.json"], PATHS_COLLIDE),
        # a pair-encoded layout and an array past the byte budget
        ("blockade-check", {"parameters": {"checks": [{"layout": "pair-encoded", "n_logical": 16, "m": 100_000,
                                                       "couplings": [1.0]}]}}, [],
         f"checks[0]: a layout of 1700032 sites exceeds the budget of {LAYOUT_BYTES_CAP} bytes"),
        ("josephson-map", {"parameters": {"n_boxes": 10**9}}, [],
         f"an array of 1000000000 boxes exceeds the budget of {LAYOUT_BYTES_CAP} bytes"),
    ],
)
def test_config_error_is_one_line(tmp_path, capsys, monkeypatch, scenario, tree, args, message):
    # a refused run creates no file and changes none, the config included
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, tree)
    before = files(tmp_path)
    code = main([scenario, "--config", config, "--out", str(tmp_path / "o.csv"), *args])
    assert (code, capsys.readouterr().err) == (EXIT_CONFIG, f"config error: {message}\n")
    assert files(tmp_path) == before


def test_outputs_that_resolve_to_one_file_are_refused(tmp_path, capsys, monkeypatch):
    # output_path reaches the mirror's file through a symlink: neither is written
    monkeypatch.chdir(tmp_path)
    Path("link.txt").symlink_to("same.txt")
    config = write_config(tmp_path, {"output_path": "link.txt", "json_mirror": "same.txt"})
    assert main(["blockade-check", "--config", config]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {PATHS_COLLIDE}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "link.txt"]
    # a symlink loop resolves to no file, and opening it is a config error, not a traceback
    Path("loop").symlink_to("loop")
    config = write_config(tmp_path, {"json_mirror": "loop"})
    assert main(["blockade-check", "--config", config, "--out", "o.csv"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def unopenable_paths(root):
    """A symlink loop, a directory and a path under a missing directory, made in ``root``."""
    (root / "loop").symlink_to("loop")
    (root / "dir").mkdir()
    return ["loop", "dir", "missing/file"]


@pytest.mark.parametrize("csv", ["o.csv", "old.csv"], ids=["new-csv", "old-csv"])
@pytest.mark.parametrize("bad", range(3), ids=["loop", "directory", "missing-directory"])
def test_a_mirror_that_cannot_be_opened_leaves_no_csv(tmp_path, capsys, monkeypatch, bad, csv):
    monkeypatch.chdir(tmp_path)
    mirror = unopenable_paths(tmp_path)[bad]
    Path("old.csv").write_text("kept\n", encoding="utf-8")
    config = write_config(tmp_path, {"json_mirror": mirror})
    before = files(tmp_path)
    assert main(["blockade-check", "--config", config, "--out", csv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert files(tmp_path) == before


@pytest.mark.parametrize("mirror", ["m.json", "old.json"], ids=["new-mirror", "old-mirror"])
@pytest.mark.parametrize("bad", range(3), ids=["loop", "directory", "missing-directory"])
def test_a_csv_that_cannot_be_opened_leaves_no_mirror_or_schedule(tmp_path, capsys, monkeypatch, bad, mirror):
    monkeypatch.chdir(tmp_path)
    out = unopenable_paths(tmp_path)[bad]
    Path("old.json").write_text("kept\n", encoding="utf-8")
    tree = {"json_mirror": mirror, "parameters": {"tau": [0.1], "schedule_out": "schedule.json"}}
    config = write_config(tmp_path, tree)
    before = files(tmp_path)
    assert main(["gate-fidelity", "--config", config, "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert files(tmp_path) == before


def test_missing_config_file(tmp_path):
    assert (
        main(["deviation-sweep", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.csv")])
        == EXIT_CONFIG
    )


def test_directory_config_is_config_error(tmp_path, capsys):
    assert main(["deviation-sweep", "--config", str(tmp_path), "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


def test_deeply_nested_config_is_invalid_json(tmp_path):
    # the JSON decoder recurses once per level and gives up long before 10^5
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    with pytest.raises(ConfigError, match="^config is not valid JSON: "):
        load_config("gate-fidelity", str(path), 0)


@pytest.mark.parametrize("where", ["--out", "json_mirror", "schedule_out"])
def test_missing_output_directory_is_config_error(tmp_path, capsys, where):
    target = str(tmp_path / "missing" / "file")
    tree = {"scenario": "gate-fidelity", "parameters": {"tau": [0.1]}}
    if where == "json_mirror":
        tree["json_mirror"] = target
    elif where == "schedule_out":
        tree["parameters"]["schedule_out"] = target
    out = target if where == "--out" else str(tmp_path / "o.csv")
    assert main(["gate-fidelity", "--config", write_config(tmp_path, tree), "--out", out]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


def test_checked_in_configs_parse():
    for name, scenario in [
        ("deviation_sweep.json", "deviation-sweep"),
        ("gate_fidelity.json", "gate-fidelity"),
        ("josephson_map.json", "josephson-map"),
        ("blockade_check.json", "blockade-check"),
    ]:
        cfg = load_config(scenario, str(REPO_CONFIGS / name), 0)
        assert cfg.scenario == scenario


def test_default_sweep_lists_every_scenario_in_order():
    # a literal, so that the CLI can list its defaults without importing deviation
    assert DEFAULT_PARAMETERS["deviation-sweep"]["scenarios"] == [s.value for s in Scenario]


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


def test_sweep_slope_past_bound_window(tmp_path):
    # at J2 = 1e5 an unscaled slope stencil's t = 2e-4 lies far past
    # (k+1)|J2|t = pi, where the phases wrap around and the bound is not a theorem
    tree = json.loads(json.dumps(SMALL_SWEEP))
    tree["parameters"].update(n_min=3, n_max=3, j2=[1e5])
    cfg = write_config(tmp_path, tree)
    out = str(tmp_path / "o.csv")
    assert main(["deviation-sweep", "--config", cfg, "--out", out]) == EXIT_OK
    rows = read_rows(out)
    assert [r["record"] for r in rows] == ["deviation"] * 5 + ["slope"]
    assert all(r["bound_ok"] == "pass" for r in rows[:5])


def test_sweep_slope_at_large_coupling(tmp_path):
    # idle n = 3: the slope is (n - 1)|J2|; the fixed stencil wrote 5901.008
    tree = json.loads(json.dumps(SMALL_SWEEP))
    tree["parameters"].update(n_min=3, n_max=3, j2=[1e5])
    cfg = write_config(tmp_path, tree)
    out = str(tmp_path / "o.csv")
    assert main(["deviation-sweep", "--config", cfg, "--out", out]) == EXIT_OK
    (slope,) = [r for r in read_rows(out) if r["record"] == "slope"]
    assert float(slope["slope"]) == pytest.approx(2e5, rel=1e-6)


@pytest.mark.parametrize("j2", [[1e308], [-1e308], [5e-324, 0.01], [1e-310], [5e307], [4e-309]])
def test_sweep_rejects_unresolvable_j2(tmp_path, capsys, j2):
    # |J2| = 1e308 overflows the slope stencil's scale (k+1)|J2|, so both
    # stencil times are 0; a subnormal |J2| overflows the t grid's end pi / (2|J2|n).
    # 5e307 overflows the scale only at the largest n (4), 4e-309 the t grid
    # only at the smallest (2 and 3).
    mirror = tmp_path / "mirror.json"
    tree = {"scenario": "deviation-sweep", "parameters": {"j2": j2, "n_max": 4}, "json_mirror": str(mirror)}
    cfg = write_config(tmp_path, tree)
    out = tmp_path / "o.csv"
    assert main(["deviation-sweep", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: j2 ") and err.count("\n") == 1
    assert not out.exists() and not mirror.exists()


def test_sweep_accepts_the_largest_resolvable_j2(tmp_path, capsys):
    # at n = 4 the idle scale (k+1)|J2| = 4 * 3e307 is still finite
    tree = {"scenario": "deviation-sweep", "parameters": {"j2": [3e307], "n_max": 4}}
    cfg = write_config(tmp_path, tree)
    out = str(tmp_path / "o.csv")
    assert main(["deviation-sweep", "--config", cfg, "--out", out]) == EXIT_OK
    assert capsys.readouterr().err == ""
    rows = read_rows(out)
    assert all(r["bound_ok"] == "pass" for r in rows if r["record"] == "deviation")
    slopes = [float(r["slope"]) for r in rows if r["record"] == "slope"]
    assert len(slopes) == 9 and all(0.0 < s < np.inf for s in slopes)


def test_sweep_past_the_enumeration_cap(tmp_path):
    tree = json.loads(json.dumps(SMALL_SWEEP))
    tree["parameters"].update(n_max=30, t_points=5, scenarios=DEFAULT_PARAMETERS["deviation-sweep"]["scenarios"])
    cfg = write_config(tmp_path, tree)
    out = str(tmp_path / "o.csv")
    assert main(["deviation-sweep", "--config", cfg, "--out", out]) == EXIT_OK
    dev = [r for r in read_rows(out) if r["record"] == "deviation"]
    assert max(int(r["n"]) for r in dev) == 30
    assert all(r["bound_ok"] == "pass" for r in dev)


@pytest.mark.parametrize(
    "parameters, budget",
    [({"n_max": 10**9}, rf"the sweep's \d+ rows exceed the budget of {LAYOUT_BYTES_CAP} bytes"),
     ({"n_min": 10**400, "n_max": 10**400}, r"need n_max <= 2\*\*40"),
     ({"n_min": 2**40 + 1, "n_max": 2**40 + 1}, r"need n_max <= 2\*\*40"),
     ({"n_min": 500_000, "n_max": 500_000, "j2": [0.01], "t_points": 1, "scenarios": ["idle"]}, None),
     ({"n_min": 2**40, "n_max": 2**40, "j2": [0.01], "t_points": 1, "scenarios": ["idle"]}, None),
     ({"n_max": 522}, rf"the sweep's 131103 rows exceed the budget of {LAYOUT_BYTES_CAP} bytes"),
     ({"n_max": 521}, None)],
    ids=["rows", "huge-n", "past-the-window-cap", "single-row-500000", "single-row-2**40", "default-grid-522",
         "default-grid-521"],
)
def test_sweep_size_checked_at_load(tmp_path, capsys, parameters, budget):
    # the bound is a closed-form count, known before any batch runs; a sweep
    # inside it runs, each point in O(1)
    cfg = write_config(tmp_path, {"scenario": "deviation-sweep", "parameters": parameters})
    if budget is None:
        assert main(["deviation-sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == EXIT_OK
        assert capsys.readouterr().err == ""
        return
    with pytest.raises(ConfigError, match=budget):
        load_config("deviation-sweep", cfg, 0)
    assert main(["deviation-sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "parameters",
    [None, "deviation_sweep.json",
     {"n_min": 2, "n_max": 30, "j2": [0.03, -0.0, 0.01, -0.02, 1e5], "t_points": 1,
      "scenarios": DEFAULT_PARAMETERS["deviation-sweep"]["scenarios"]},
     {"n_min": 5000, "n_max": 5000, "scenarios": ["idle"]},
     {"n_max": 521},
     {"n_min": 2**40 - 2, "n_max": 2**40, "j2": [0.005, -0.01, 0.05, 0.3, -7.0, 1e5, 1e-300], "t_points": 5}],
    ids=["defaults", "checked-config", "edge", "n5000", "default-grid-521", "window-cap-2**40"],
)
def test_sweep_points_never_take_the_row_loop(tmp_path, monkeypatch, parameters):
    # every CLI point lies inside the window |J2 t m| < pi, where a point costs
    # O(1) from the two end sums; this is why no budget charges the k + 1 sums
    # of a row.  Iterating the sums raises before a row is built, at any n.
    class SumEnds:
        def __init__(self, sums):
            self.sums = sums

        def __getitem__(self, i):
            return self.sums[i]

        def __iter__(self):
            raise AssertionError("a CLI point built its row of phases")

    reachable_sums = deviation._reachable_sums
    monkeypatch.setattr(deviation, "_reachable_sums", lambda scenario, n: SumEnds(reachable_sums(scenario, n)))
    argv = ["deviation-sweep", "--out", str(tmp_path / "o.csv")]
    if isinstance(parameters, str):
        argv += ["--config", str(REPO_CONFIGS / parameters)]
    elif parameters is not None:
        argv += ["--config", write_config(tmp_path, {"scenario": "deviation-sweep", "parameters": parameters})]
    assert main(argv) == EXIT_OK


@pytest.mark.parametrize(
    "parameters, rows",
    [({"n_max": 100, "scenarios": ["idle"]}, None),
     ({"n_max": 10, "t_points": 1323}, 99 * 1324), ({"n_max": 10, "t_points": 1322}, None)],
    ids=["listed-once", "long-t-grid-1323", "long-t-grid-1322"],
)
def test_sweep_rows_checked_at_load(tmp_path, parameters, rows):
    # through load_config only: each scenario has one row per t and one slope per
    # J2 for each n, and the run holds them all until written
    cfg = write_config(tmp_path, {"scenario": "deviation-sweep", "parameters": parameters})
    if rows is None:
        load_config("deviation-sweep", cfg, 0)
        return
    assert rows * cli.ROW_BYTES > LAYOUT_BYTES_CAP
    with pytest.raises(ConfigError, match=rf"the sweep's {rows} rows exceed the budget of {LAYOUT_BYTES_CAP} bytes"):
        load_config("deviation-sweep", cfg, 0)


@pytest.mark.parametrize("n_max", [30, 100])
def test_row_bytes_is_close_to_the_traced_peak(tmp_path, n_max):
    # safety: a sweep's traced peak, run plus write with a mirror, stays within its rows'
    # charge; honesty: the charge is at most twice the peak (337 and 332 bytes a row
    # against 512, CPython 3.11)
    tree = {"scenario": "deviation-sweep", "parameters": {"n_max": n_max}, "json_mirror": str(tmp_path / "m.json")}
    cfg = load_config("deviation-sweep", write_config(tmp_path, tree), 0)
    cli.run_deviation_sweep(load_config("deviation-sweep", None, 0))  # first use of the modules
    rows = []

    def run_and_write():
        header, table = cli.run_deviation_sweep(cfg)
        _write_outputs(cfg, header, table, str(tmp_path / "o.csv"))
        rows.append(len(table))

    peak = traced_peak(run_and_write)
    assert peak <= rows[0] * cli.ROW_BYTES <= 2 * peak


def test_streamed_sweep_holds_no_rows(tmp_path):
    # without a mirror the writer takes each (scenario, n) block as the runner makes it:
    # run plus write traces 137 bytes a row at n_max 100 (CPython 3.11), against 286 when
    # every row was held until the write
    tree = {"scenario": "deviation-sweep", "parameters": {"n_max": 100}}
    cfg = load_config("deviation-sweep", write_config(tmp_path, tree), 0)
    list(cli.run_deviation_sweep(load_config("deviation-sweep", None, 0))[1].blocks)  # first use of the modules
    rows = []

    def run_and_write():
        header, table = cli.run_deviation_sweep(cfg)
        _write_outputs(cfg, header, table, str(tmp_path / "o.csv"))
        rows.append(len(table))

    peak = traced_peak(run_and_write)
    assert rows[0] == len(read_rows(tmp_path / "o.csv"))
    assert peak <= 200 * rows[0]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64), st.floats(1e-300, 1e300))
def test_linspace_replica_matches_numpy(num, stop):
    assert [x.hex() for x in deviation.linspace(0.0, stop, num)] == [x.hex() for x in np.linspace(0.0, stop, num).tolist()]


DEVIATION_HEADER = [
    "record", "scenario", "n", "j2", "t",
    "exact_raw", "exact_phase_opt", "lower_bound", "bound_ok", "slope",
]


def reference_deviation_sweep(p):
    """Rows and invariant failures of deviation-sweep as the row-wise runner
    made them: a scalar call per point, a dict per row, one sort at the end."""
    order = {s.value: i for i, s in enumerate(Scenario)}
    rows = []
    for name in sorted(p["scenarios"], key=order.get):
        scenario = Scenario(name)
        for n in range(max(p["n_min"], MIN_QUBITS[scenario]), p["n_max"] + 1):
            for j2 in p["j2"]:
                t_max = np.pi / (2.0 * abs(j2) * n) if j2 != 0 else 1.0
                for t in np.linspace(0.0, t_max, p["t_points"]):
                    row = {"record": "deviation", "scenario": name, "n": n, "j2": j2, "t": float(t)}
                    try:
                        res = scenario_deviation(scenario, n, j2, float(t))
                        row.update(exact_raw=res.exact_raw, exact_phase_opt=res.exact_phase_opt,
                                   lower_bound=res.lower_bound, bound_ok="pass")
                    except InvariantViolation as exc:
                        row["bound_ok"] = f"fail: {exc}"
                    rows.append(row)
                rows.append({"record": "slope", "scenario": name, "n": n, "j2": j2,
                             "slope": deviation_speed(scenario, n, j2)})
    rows.sort(key=lambda r: (order[r["scenario"]], r["n"], r["j2"], r["record"] != "deviation", r.get("t", 0.0)))
    return rows, [r["bound_ok"] for r in rows if r.get("bound_ok", "pass") != "pass"]


def assert_sweep_matches_reference(tmp_path, capsys, params):
    """CSV, mirror, stderr and exit code of the CLI equal those of the reference;
    returns the reference's invariant failures, or None if a slope point failed."""
    out, mirror = tmp_path / "new.csv", tmp_path / "new.json"
    out.unlink(missing_ok=True)
    tree = {"scenario": "deviation-sweep", "parameters": params, "json_mirror": str(mirror)}
    cfg_path = write_config(tmp_path, tree)
    code = main(["deviation-sweep", "--config", cfg_path, "--out", str(out)])
    err = capsys.readouterr().err
    cfg = load_config("deviation-sweep", cfg_path, 0)
    try:
        rows, failures = reference_deviation_sweep(cfg.parameters)
    except InvariantViolation as exc:  # a slope point failed: nothing is written
        assert (code, err, out.exists()) == (EXIT_INVARIANT, f"numerical invariant violation: {exc}\n", False)
        return None
    cfg.json_mirror = str(tmp_path / "ref.json")
    reference_write(cfg, DEVIATION_HEADER, rows, str(tmp_path / "ref.csv"))
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert mirror.read_bytes() == (tmp_path / "ref.json").read_bytes()
    assert err == "".join(f"numerical invariant violation: {m}\n" for m in failures)
    assert code == (EXIT_INVARIANT if failures else EXIT_OK)
    return failures


# |J2| below about 1e-308 / n overflows the t grid's end to inf (t = nan, inf, ...),
# where the row order of nan times is not defined; those couplings are left out
J2_VALUES = st.sampled_from([0.0, -0.0, 0.01, -0.02, 0.03, 0.5, 1e5, -1e5]) | st.floats(-2.0, 2.0).filter(
    lambda x: x == 0 or abs(x) > 1e-300
)
EDGE_SWEEP = {"n_min": 2, "n_max": 30, "j2": [0.03, -0.0, 0.01, -0.02, 1e5], "t_points": 1,
              "scenarios": ["idle", "sigma_z", "sigma_x", "inter_qubit"]}


@st.composite
def sweep_parameters(draw):
    n_min = draw(st.integers(2, 6))
    return {
        "n_min": n_min,
        "n_max": draw(st.integers(n_min, n_min + 4)),
        "j2": draw(st.lists(J2_VALUES, min_size=1, max_size=5, unique=True)),
        "t_points": draw(st.integers(1, 25)),
        "scenarios": draw(st.lists(st.sampled_from([s.value for s in Scenario]), min_size=1, max_size=4, unique=True)),
    }


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(EDGE_SWEEP)
@example(dict(EDGE_SWEEP, n_max=5, t_points=4, scenarios=["sigma_x", "idle"]))
@given(sweep_parameters())
def test_sweep_matches_row_wise_reference(tmp_path, capsys, params):
    assert_sweep_matches_reference(tmp_path, capsys, params)


@pytest.mark.parametrize("cutoff", [1e-3, 0.0])
def test_sweep_violations_match_row_wise_reference(tmp_path, capsys, monkeypatch, cutoff):
    # a bound raised by 10 past t = cutoff fails every point inside the window there:
    # at 1e-3 the t grids give fail: rows and the slope stencils (t <= 2e-4) pass;
    # at 0 a slope point fails too, which stops the run
    lower_bound = deviation.lower_bound
    monkeypatch.setattr(deviation, "lower_bound", lambda s, n, j2, t: lower_bound(s, n, j2, t) + 10.0 * (np.asarray(t) >= cutoff))
    params = dict(EDGE_SWEEP, n_max=5, t_points=6, scenarios=["inter_qubit", "idle"])
    failures = assert_sweep_matches_reference(tmp_path, capsys, params)
    if cutoff:
        assert failures and all(m.startswith("fail: deviation ") for m in failures)
    else:
        assert failures is None


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


def test_gate_path_does_no_dense_linear_algebra(tmp_path, monkeypatch):
    def eigh(*args, **kwargs):
        raise AssertionError("dense eigendecomposition on the gate path")

    def pauli_term(*args, **kwargs):
        raise AssertionError("Pauli terms built on the gate path")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(PauliTerm, "__init__", pauli_term)
    out = str(tmp_path / "gate.csv")
    assert main(["gate-fidelity", "--out", out]) == EXIT_OK
    assert main(["gate-fidelity", "--out", out, "--naive"]) == EXIT_OK
    spec = ChainSpec(10, j1=1.0, j2=0.05, x1_max=0.5)
    layout = pair_encoded_layout(2, 2)
    report = simulate_gate(spec, layout, logical_sigma_z(spec, layout, 1, 0.3))
    assert report.leakage < 1e-10


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


@pytest.mark.parametrize(
    "j1, reason",
    [pytest.param(j1, reason, id=str(j1)) for j1, reason in [
        *[(j1, "4 J1 overflows") for j1 in (1e308, -1e308, 5e307)],
        *[(j1, "the phase period 2 pi / (4|J1|) overflows") for j1 in (5e-309, 1e-310, 1e-320)],
    ]],
)
def test_gate_fidelity_overflowing_j1_is_a_config_error(tmp_path, capsys, j1, reason):
    # 4|J1| overflows, so the phase period 2 pi / (4|J1|) would be 0, or J1 is so
    # small that the period itself overflows
    cfg = write_config(tmp_path, {"scenario": "gate-fidelity", "parameters": {"j1": j1, "j2": [0.0]}})
    out = tmp_path / "o.csv"
    assert main(["gate-fidelity", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: J1 = {j1!r} is out of range: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "params",
    [{"j1": 4.4e307}, {"j1": -4.4e307}, {"j1": 4.4e307, "naive": True}, {"j2": [4.4e307]}],
)
def test_gate_fidelity_non_finite_row_is_invariant_failure(tmp_path, capsys, params):
    # 4|J1| is finite, but the Ising energies overflow and every gate row is nan
    cfg = write_config(tmp_path, {"scenario": "gate-fidelity", "parameters": params})
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["gate-fidelity", "--config", cfg, "--out", str(out)]) == EXIT_INVARIANT
    j2 = params.get("j2", [0.05])[0]
    assert capsys.readouterr().err.splitlines() == [
        f"numerical invariant violation: non-finite fidelity, leakage, phi, phi_residual at j2={j2}, tau={tau}"
        for tau in (0.1, 0.2, 0.4)
    ]
    assert len(read_rows(out)) == 3


@pytest.mark.parametrize("params", [{"j1": 4.4e307}, {"j1": -4.4e307}, {"j2": [4.4e307]}])
def test_gate_fidelity_non_finite_row_prints_only_its_invariant_lines(tmp_path, params):
    # the overflowed energies print no arithmetic warnings; a huge J2 earns
    # the one regime warning, as one line that names no source file
    cfg = write_config(tmp_path, {"scenario": "gate-fidelity", "parameters": params})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-m", "blockadechain.cli", "gate-fidelity", "--config", cfg, "--out", "o.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == EXIT_INVARIANT
    j2 = params.get("j2", [0.05])[0]
    lines = out.stderr.splitlines()
    assert lines[-3:] == [
        f"numerical invariant violation: non-finite fidelity, leakage, phi, phi_residual at j2={j2}, tau={tau}"
        for tau in (0.1, 0.2, 0.4)
    ]
    if "j2" not in params:
        assert len(lines) == 3
    else:
        assert lines[:-3] == ["warning: next-nearest coupling |j2| >= |j1|; outside the weak long-range regime"]


def test_gate_fidelity_builds_no_schedule_payload_without_schedule_out(tmp_path, monkeypatch):
    from blockadechain.chain import ControlSchedule

    def to_payload(self):
        raise AssertionError("schedule payload built without schedule_out")

    monkeypatch.setattr(ControlSchedule, "to_payload", to_payload)
    assert main(["gate-fidelity", "--out", str(tmp_path / "o.csv")]) == EXIT_OK


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


def test_josephson_out_of_regime_reported(tmp_path, capsys):
    tree = {"scenario": "josephson-map", "parameters": {"c_c": 0.5}}
    cfg = write_config(tmp_path, tree)
    out = str(tmp_path / "jj.csv")
    assert main(["josephson-map", "--config", cfg, "--out", out]) == EXIT_OK
    assert capsys.readouterr().err == (
        "warning: epsilon = 0.5 exceeds 0.1; the exponential-decay analysis assumes epsilon << 1\n"
    )
    (check,) = [r for r in read_rows(out) if r["record"] == "decay_check"]
    assert check["status"] == "out-of-regime"


def test_josephson_decay_out_of_band_is_invariant_failure(tmp_path, capsys, monkeypatch):
    from blockadechain import josephson

    monkeypatch.setattr(josephson, "decay_check", lambda c_inv, eps: ((10.0 * eps,), False))
    out = str(tmp_path / "jj.csv")
    assert main(["josephson-map", "--out", out]) == EXIT_INVARIANT
    assert capsys.readouterr().err == (
        "numerical invariant violation: decay ratios left the epsilon band in regime\n"
    )
    (check,) = [r for r in read_rows(out) if r["record"] == "decay_check"]
    assert check["status"] == "fail"


def test_warning_lines_follow_the_callers_filters(tmp_path, capsys):
    # an ignored warning prints nothing, and the caller's showwarning comes back after the run
    cfg = write_config(tmp_path, {"scenario": "josephson-map", "parameters": {"c_c": 0.5}})
    shown = warnings.showwarning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["josephson-map", "--config", cfg, "--out", str(tmp_path / "jj.csv")]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert warnings.showwarning is shown


@pytest.mark.parametrize(
    "scenario, params, message",
    [
        ("josephson-map", {"c_c": 0.5},
         "epsilon = 0.5 exceeds 0.1; the exponential-decay analysis assumes epsilon << 1"),
        ("gate-fidelity", {"j2": [1.5]},
         "next-nearest coupling |j2| >= |j1|; outside the weak long-range regime"),
    ],
    ids=["epsilon", "j2"],
)
def test_warning_turned_error_is_a_config_error(tmp_path, scenario, params, message):
    # under python -W error the library's warning raises: one line and exit 1, no traceback
    cfg = write_config(tmp_path, {"scenario": scenario, "parameters": params})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "blockadechain.cli", scenario, "--config", cfg, "--out", "o.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert (out.returncode, out.stderr) == (EXIT_CONFIG, f"config error: {message}\n")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("n_boxes", [2, 4])
def test_josephson_small_array_decay_unchecked(tmp_path, n_boxes):
    # below five boxes there is no central-row ratio to hold to the band
    tree = {"scenario": "josephson-map", "parameters": {"n_boxes": n_boxes}}
    cfg = write_config(tmp_path, tree)
    out = str(tmp_path / "jj.csv")
    assert main(["josephson-map", "--config", cfg, "--out", out]) == EXIT_OK
    rows = read_rows(out)
    (check,) = [r for r in rows if r["record"] == "decay_check"]
    assert check["status"] == "unchecked"
    assert not [r for r in rows if r["record"] == "decay_ratio"]


LARGEST_ARRAY = math.isqrt((LAYOUT_BYTES_CAP - cli.MAP_FIXED_BYTES) // cli.BOX_PAIR_BYTES)


@pytest.mark.parametrize("n_boxes, admitted", [
    pytest.param(LARGEST_ARRAY, True, id="largest-admitted"),
    pytest.param(LARGEST_ARRAY + 1, False, id="one-box-more"),
    (100_000, False),
    (10**9, False),
])
def test_josephson_size_checked_at_load(tmp_path, n_boxes, admitted):
    # through load_config only: n_boxes^2 box pairs at BOX_PAIR_BYTES each and the fixed
    # allowance, before any matrix is built
    assert (n_boxes**2 * cli.BOX_PAIR_BYTES + cli.MAP_FIXED_BYTES <= LAYOUT_BYTES_CAP) == admitted
    cfg = write_config(tmp_path, {"scenario": "josephson-map", "parameters": {"n_boxes": n_boxes}})
    if admitted:
        load_config("josephson-map", cfg, 0)
        return
    with pytest.raises(ConfigError, match=rf"^an array of {n_boxes} boxes exceeds the budget of {LAYOUT_BYTES_CAP} bytes$"):
        load_config("josephson-map", cfg, 0)


def josephson_peak(tmp_path, n_boxes):
    """Traced peak of josephson-map's run and write with a mirror, at c_c = 0.99,
    where the writer holds the most distinct cell texts."""
    tree = {"scenario": "josephson-map", "json_mirror": str(tmp_path / "jj.json"),
            "parameters": {"n_boxes": n_boxes, "c_g": 0.4, "c_j": 0.6, "c_c": 0.99}}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # epsilon 0.99 is out of the decay regime
        cfg = load_config("josephson-map", write_config(tmp_path, tree), 0)
        cli.run_josephson_map(load_config("josephson-map", None, 0))  # first use of the modules
        tracemalloc.start()
        try:
            header, table = cli.run_josephson_map(cfg)
            _write_outputs(cfg, header, table, str(tmp_path / "jj.csv"))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("n_boxes", [300, 400])
def test_box_pair_bytes_is_close_to_the_traced_peak(tmp_path, n_boxes):
    # safety: the traced peak stays within the charge; honesty: the charge is at most
    # twice the peak (2.83 MB against 4.5 MB at 300 boxes, CPython 3.11)
    charge = n_boxes**2 * cli.BOX_PAIR_BYTES + cli.MAP_FIXED_BYTES
    peak = josephson_peak(tmp_path, n_boxes)
    assert peak <= charge <= 2 * peak


def test_largest_array_under_a_small_cap_fits_it(tmp_path, monkeypatch):
    # with a 6 MiB cap the largest admitted array has 457 boxes: it runs within the cap,
    # and one box more is refused at load
    cap = 6 * 2**20
    monkeypatch.setattr(cli, "LAYOUT_BYTES_CAP", cap)
    largest = math.isqrt((cap - cli.MAP_FIXED_BYTES) // cli.BOX_PAIR_BYTES)
    assert josephson_peak(tmp_path, largest) <= cap
    cfg = write_config(tmp_path, {"scenario": "josephson-map", "parameters": {"n_boxes": largest + 1}})
    with pytest.raises(ConfigError, match=f"^an array of {largest + 1} boxes exceeds the budget of {cap} bytes$"):
        load_config("josephson-map", cfg, 0)


def test_josephson_runs_at_a_c0_whose_diagonal_is_finite(tmp_path, capsys):
    # C_0 = 1.6e308 and epsilon = 0.05: the diagonal C_0 (1 + 2 epsilon) = 1.76e308 is finite
    tree = {"scenario": "josephson-map", "parameters": {"c_g": 8e307, "c_j": 8e307, "c_c": 8e306}}
    assert main(["josephson-map", "--config", write_config(tmp_path, tree), "--out", str(tmp_path / "o.csv")]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_josephson_runs_at_a_c0_whose_reciprocal_is_finite(tmp_path, capsys):
    # C_0 = 1e-308: 1 / C_0 = 1e308 bounds every entry of C^-1
    tree = {"scenario": "josephson-map", "parameters": {"c_g": 5e-309, "c_j": 5e-309, "c_c": 1e-310}}
    assert main(["josephson-map", "--config", write_config(tmp_path, tree), "--out", str(tmp_path / "o.csv")]) == EXIT_OK
    assert capsys.readouterr().err == ""


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.just(0.0) | st.floats(0.0, 0.99, exclude_max=True), st.floats(0.3, 0.7))
def test_capacitance_rows_are_the_rows_of_c(n_boxes, c_c, c_g):
    # the runner writes C's rows as windows of a band and of an edge array; c_c = 0 gives
    # -0.0 off-diagonals, which must stay -0.0
    params = dict(DEFAULT_PARAMETERS["josephson-map"], n_boxes=n_boxes, c_g=c_g, c_j=1.0 - c_g, c_c=c_c)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # epsilon above 0.1 is out of the decay regime
        _, table = cli.run_josephson_map(cli.RunConfig("josephson-map", params))
        dense = dense_tridiagonal(build_capacitance_matrix(JosephsonArraySpec(n_boxes, c_g, 1.0 - c_g, c_c)))
    rows = [(cells["i"], bytes(cells["value"])) for _, cells in table.blocks if cells.get("record") == "capacitance"]
    assert rows == [(i + 1, dense[i].tobytes()) for i in range(n_boxes)]


@pytest.mark.parametrize("c_c, vector, k, value", [
    (0.01, 0, 3, 1.5),  # an interior diagonal entry
    (0.01, 1, 2, -0.02),  # an off-diagonal entry
    (0.0, 1, 4, 0.0),  # an off-diagonal 0.0 among -0.0s
])
def test_josephson_refuses_a_capacitance_matrix_that_is_not_one_band(monkeypatch, c_c, vector, k, value):
    build = josephson.build_capacitance_matrix

    def uneven(spec):
        cmat = build(spec)
        cmat[vector][k] = value
        return cmat

    monkeypatch.setattr(josephson, "build_capacitance_matrix", uneven)
    params = dict(DEFAULT_PARAMETERS["josephson-map"], c_c=c_c)
    with pytest.raises(InvariantViolation, match="^capacitance matrix is not one band"):
        cli.run_josephson_map(cli.RunConfig("josephson-map", params))


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


def test_blockade_check_builds_each_layout_once(tmp_path, monkeypatch):
    # the layouts built for the budget check at load are the ones the run walks
    built = []
    for name in ("single_spin_layout", "pair_encoded_layout"):
        builder = getattr(blockade, name)
        monkeypatch.setattr(blockade, name, lambda *args, builder=builder: built.append(args) or builder(*args))
    assert main(["blockade-check", "--out", str(tmp_path / "bc.csv")]) == EXIT_OK
    assert built == [(4,), (2, 2), (2, 2)]


@pytest.mark.parametrize(
    "layout, m, n_logical, couplings, residual",
    [
        ("single-spin", None, 40, [1.0], 0.0),
        ("single-spin", None, 40, [1.0, 0.05], 39 * 0.05),
        ("pair-encoded", 2, 40, [1.0, 0.05], 0.0),
        ("pair-encoded", 2, 40, [1.0, 0.05, 0.01], 39 * 0.01),
        ("pair-encoded", 2, 400, [1.0, 0.05, 0.01], 399 * 0.01),
        ("pair-encoded", 2, 2000, [1.0, 0.05, 0.01], 1999 * 0.01),
    ],
    ids=[
        "single-spin-40-cancelled",
        "single-spin-40",
        "pair-encoded-40-cancelled",
        "pair-encoded-40",
        "pair-encoded-400",
        "pair-encoded-2000",
    ],
)
def test_blockade_check_large_layouts_match_closed_form(tmp_path, layout, m, n_logical, couplings, residual):
    # orders up to the block width cancel; the next order leaves a
    # +-J_{m+1} coupling between each pair of neighbouring qubits, a residual
    # of (n_logical - 1) J_{m+1} (J3 at n_logical = 2, as in test_gates)
    check = {"layout": layout, "n_logical": n_logical, "couplings": couplings}
    if m is not None:
        check["m"] = m
    cfg = write_config(tmp_path, {"scenario": "blockade-check", "parameters": {"checks": [check]}})
    out = tmp_path / "o.csv"
    assert main(["blockade-check", "--config", cfg, "--out", str(out)]) == EXIT_OK
    (row,) = read_rows(out)
    assert int(row["n_logical"]) == n_logical
    if residual == 0.0:
        assert float(row["residual"]) == 0.0
    else:
        assert float(row["residual"]) == pytest.approx(residual, rel=1e-11)


def test_blockade_check_many_orders_stop_at_the_budget(tmp_path, capsys, monkeypatch):
    # single-spin n_logical = 20 with 41 orders walks a window of 40 sites,
    # up to 2^20 states; the run stops near the budget and names the check
    # (a 4 MiB budget keeps the traced run short)
    budget = 2**22
    monkeypatch.setattr(blockade, "LAYOUT_BYTES_CAP", budget)
    small = {"layout": "single-spin", "n_logical": 4, "couplings": [1.0]}
    check = {"layout": "single-spin", "n_logical": 20, "couplings": [1.0] * 41}
    cfg = write_config(tmp_path, {"scenario": "blockade-check", "parameters": {"checks": [small, check]}})
    out = tmp_path / "o.csv"
    tracemalloc.start()
    try:
        code = main(["blockade-check", "--config", cfg, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: checks[1]: the reachable states exceed the budget of {budget} bytes\n"
    assert not out.exists()
    assert peak < 2 * budget


def test_blockade_check_long_chain_stops_at_the_step_budget(tmp_path, capsys, monkeypatch):
    # the steps grow linearly with the chain: past a small budget a long chain
    # stops with exit 1 and names the check
    monkeypatch.setattr(blockade, "STEPS_CAP", 2**16)
    check = {"layout": "pair-encoded", "n_logical": 100_000, "m": 2, "couplings": [1.0, 0.05, 0.01]}
    cfg = write_config(tmp_path, {"scenario": "blockade-check", "parameters": {"checks": [check]}})
    out = tmp_path / "o.csv"
    assert main(["blockade-check", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: checks[0]: the reachable states exceed the budget of {2**16} steps\n"
    assert not out.exists()


def test_blockade_check_overflowing_residual_is_a_config_error(tmp_path, capsys):
    # finite couplings whose energies overflow used to write residual=inf with exit 0
    check = {"layout": "single-spin", "n_logical": 4, "couplings": [1e308, 1e308]}
    cfg = write_config(tmp_path, {"scenario": "blockade-check", "parameters": {"checks": [check]}})
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["blockade-check", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


def test_blockade_check_state_budget_checked_at_load(tmp_path):
    # through load_config only: the states a walk would hold are counted from the layout
    small = {"layout": "single-spin", "n_logical": 4, "couplings": [1.0]}
    check = {"layout": "single-spin", "n_logical": 20, "couplings": [1.0] * 41}
    cfg = write_config(tmp_path, {"scenario": "blockade-check", "parameters": {"checks": [small, check]}})
    with pytest.raises(ConfigError, match=rf"^checks\[1\]: the reachable states exceed the budget of {LAYOUT_BYTES_CAP} bytes$"):
        load_config("blockade-check", cfg, 0)


@pytest.mark.parametrize("n_logical, m", [(16, 100000), (1, 10**7)])
def test_blockade_check_layout_budget_checked_at_load(tmp_path, n_logical, m):
    # through load_config only: the builder refuses the layout before it builds a site
    check = {"layout": "pair-encoded", "n_logical": n_logical, "m": m, "couplings": [1.0]}
    cfg = write_config(tmp_path, {"scenario": "blockade-check", "parameters": {"checks": [check]}})
    with pytest.raises(ConfigError, match=rf"checks\[0\]: .* budget of {LAYOUT_BYTES_CAP} bytes"):
        load_config("blockade-check", cfg, 0)


def test_blockade_check_null_m_rejected(tmp_path, capsys):
    check = {"layout": "pair-encoded", "n_logical": 2, "m": None, "couplings": [1.0]}
    cfg = write_config(tmp_path, {"scenario": "blockade-check", "parameters": {"checks": [check]}})
    assert main(["blockade-check", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


def test_blockade_check_single_spin_m_rejected(tmp_path, capsys):
    check = {"layout": "single-spin", "n_logical": 4, "m": 3, "couplings": [1.0]}
    cfg = write_config(tmp_path, {"scenario": "blockade-check", "parameters": {"checks": [check]}})
    out = tmp_path / "o.csv"
    assert main(["blockade-check", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "config error: checks[0]: m " in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# column-wise writer against the row-wise one it replaced

def numpy_fmt(value) -> str:
    """The text of one CSV cell as the writer gave it when it imported numpy."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def reference_write(cfg, header, rows, out_path):
    """The row-wise writer: one dict per row, ``numpy_fmt`` on every cell."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(numpy_fmt(row.get(col, "")) for col in header))
    Path(out_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if cfg.json_mirror:
        mirror = {
            "scenario": cfg.scenario,
            "seed": cfg.seed,
            "parameters": cfg.parameters,
            "columns": header,
            "rows": [{k: row.get(k, None) for k in header} for row in rows],
        }
        Path(cfg.json_mirror).write_text(
            json.dumps(mirror, sort_keys=True, indent=1, default=float) + "\n", encoding="utf-8"
        )


def table_rows(table):
    """Per-row dicts of a table; a missing cell is an absent key, and an
    array cell is the Python scalar of its ``tolist()``."""
    rows = []
    for n, cells in table.blocks:
        columns = {
            k: v.tolist() if isinstance(v, (array, memoryview)) else v if isinstance(v, list) else [v] * n
            for k, v in cells.items()
        }
        rows += [{k: col[r] for k, col in columns.items() if col[r] is not None} for r in range(n)]
    return rows


def reference_josephson_rows(p):
    """Rows of josephson-map built one dict at a time, as the row-wise runner did."""
    spec = JosephsonArraySpec(p["n_boxes"], p["c_g"], p["c_j"], p["c_c"], tuple(p["gate_charges"]))
    diag, off = cmat = build_capacitance_matrix(spec)
    cinv = invert_capacitance(cmat)
    report = extract_couplings(spec, cinv, units=p["units"])
    base = {"n_boxes": spec.n_boxes, "c_g": spec.c_g, "c_j": spec.c_j, "c_c": spec.c_c, "epsilon": spec.epsilon}
    n = spec.n_boxes
    rows = []
    for i in range(n):
        for j in range(n):
            value = diag[i] if i == j else off[min(i, j)] if abs(i - j) == 1 else 0.0
            rows.append(dict(base, record="capacitance", i=i + 1, j=j + 1, value=value))
    for i in range(n):
        for j in range(n):
            rows.append(dict(base, record="inverse", i=i + 1, j=j + 1, value=cinv[i * n + j]))
    for order, value in sorted(report.couplings_by_order.items()):
        rows.append(dict(base, record="coupling", order=order, value=value))
    for k, ratio in enumerate(report.decay_ratios):
        rows.append(dict(base, record="decay_ratio", order=k, value=ratio))
    assert report.decay_in_regime and report.decay_in_band
    rows.append(dict(base, record="decay_check", status="pass"))
    rows.append(dict(base, record="residual_bound", value=report.residual_bound))
    for i, h in enumerate(report.linear_coeffs):
        rows.append(dict(base, record="linear_field", i=i + 1, value=float(h)))
    chain = report.effective_chain
    for record, value in (("chain_j1", chain.j1), ("chain_j2", chain.j2), ("chain_x1_max", chain.x1_max)):
        rows.append(dict(base, record=record, value=value))
    return rows


def assert_same_outputs(tmp_path, cfg, header, table, rows):
    cfg.json_mirror = str(tmp_path / "new.json")
    _write_outputs(cfg, header, table, str(tmp_path / "new.csv"))
    cfg.json_mirror = str(tmp_path / "ref.json")
    reference_write(cfg, header, rows, str(tmp_path / "ref.csv"))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_writer_matches_row_wise_reference(tmp_path, scenario):
    # the reference rows come from a second run: deviation-sweep's blocks pass once
    cfg = load_config(scenario, None, 0)
    header, table = _RUNNERS[scenario](cfg)
    assert_same_outputs(tmp_path, cfg, header, table, table_rows(_RUNNERS[scenario](cfg)[1]))


def test_recycled_cells_of_a_streamed_source_match_a_list(tmp_path, monkeypatch):
    # a source that yields one cells dict, a fresh array of the same length in it for each
    # block: a freed column's id can come back, and must not bring back its texts
    monkeypatch.setattr(cli, "_SLICE_ROWS", 2)  # blocks of 5 rows span three slices
    values = [[float(10 * b + r) for r in range(5)] for b in range(8)]

    class Recycled:  # makes its blocks anew on each pass, so the mirror does not list them
        def __iter__(self):
            cells = {"b": "x"}
            for v in values:
                del cells["a" if "a" in cells else "b"]  # free the previous block's column first
                cells["a"] = array("d", v)
                yield len(v), cells

    streamed = Table(Recycled(), rows=40)
    listed = Table([(len(v), {"a": array("d", v)}) for v in values])
    cfg = load_config("blockade-check", None, 0)
    outputs = []
    for table in (streamed, listed):
        cfg.json_mirror = str(tmp_path / f"m{len(outputs)}.json")
        _write_outputs(cfg, ["a"], table, str(tmp_path / f"o{len(outputs)}.csv"))
        outputs.append(((tmp_path / f"o{len(outputs)}.csv").read_bytes(), Path(cfg.json_mirror).read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].decode().split("\n")[1:-1] == [_fmt(x) for v in values for x in v]


def test_josephson_columns_match_row_wise_runner(tmp_path):
    rng = np.random.default_rng(11)
    params = {"n_boxes": 40, "c_g": 0.4, "c_j": 0.6, "c_c": 0.02,
              "gate_charges": list(0.5 + rng.uniform(-0.02, 0.02, 40))}
    mirror = tmp_path / "mirror.json"
    cfg_path = write_config(tmp_path, {"scenario": "josephson-map", "parameters": params, "json_mirror": str(mirror)})
    out = tmp_path / "jj.csv"
    assert main(["josephson-map", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    cfg = load_config("josephson-map", cfg_path, 0)
    cfg.json_mirror = str(tmp_path / "ref.json")
    header = ["n_boxes", "c_g", "c_j", "c_c", "epsilon", "record", "i", "j", "order", "value", "status"]
    reference_write(cfg, header, reference_josephson_rows(cfg.parameters), str(tmp_path / "ref.csv"))
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert mirror.read_bytes() == (tmp_path / "ref.json").read_bytes()
    assert len(json.loads(mirror.read_text(encoding="utf-8"))["rows"]) == len(read_rows(out))


MIXED = [-0.0, 0.0, -0.0, True, 1, True, np.float64(-0.0), np.float64(0.0), np.float64(2.5), 2.5,
         np.int64(1), np.int64(-3), False, 0, float("nan"), float("inf"), -float("inf"), "inf", "0", "",
         None, "pass", np.bool_(True), 0.1 + 0.2]


def written_column(tmp_path, n, cells):
    """The CSV texts of a one-column table of ``n`` rows."""
    table = Table()
    table.append(n, x=cells)
    _write_outputs(load_config("blockade-check", None, 0), ["x"], table, str(tmp_path / "x.csv"))
    return (tmp_path / "x.csv").read_text(encoding="utf-8").split("\n")[1:-1]


def test_format_column_mixed_cells(tmp_path):
    expected = ["-0", "0", "-0", "true", "1", "true", "-0", "0", "2.5", "2.5",
                "1", "-3", "false", "0", "nan", "inf", "-inf", "inf", "0", "",
                "", "pass", "true", "0.3"]
    assert written_column(tmp_path, len(MIXED), MIXED) == expected
    assert written_column(tmp_path, len(MIXED), MIXED[::-1]) == expected[::-1]
    assert written_column(tmp_path, 3, -0.0) == ["-0"] * 3
    assert written_column(tmp_path, 2, None) == ["", ""]


def test_writer_mixed_column_matches_reference(tmp_path):
    n = len(MIXED)
    table = Table()
    table.append(n, k=list(range(n)), mixed=MIXED, flag=True, zero=-0.0)
    header = ["k", "mixed", "flag", "zero", "absent"]
    cfg = load_config("blockade-check", None, 0)
    assert_same_outputs(tmp_path, cfg, header, table, table_rows(table))


SPECIAL_FLOATS = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 2.2e-308, 1e308, -1e308, 0.1]
# quotes, backslashes, control, non-ASCII, line-separator and astral characters, which
# the mirror's cell texts must escape as json.dumps does
TEXT = st.text(alphabet='ab%{},-0. "\\\n\té\u2028\U0001d11e', max_size=6)
FLOATS = st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_nan=True, allow_infinity=True)
FLOATS32 = st.sampled_from([-0.0, 0.0, 0.1, float("nan")]) | st.floats(width=32)
INTS = st.integers(-(2**63), 2**63 - 1)
NUMPY_SCALARS = st.one_of(
    st.booleans().map(np.bool_), INTS.map(np.int64), FLOATS32.map(np.float32), FLOATS.map(np.float64)
)


@settings(max_examples=200, deadline=None)
@given(NUMPY_SCALARS)
def test_fmt_matches_the_numpy_formatting(value):
    # the writer tells numpy scalars apart without importing numpy
    assert _fmt(value) == numpy_fmt(value)


# NaNs of either sign with any payload, signalling ones included
NAN_BITS = st.tuples(st.booleans(), st.integers(1, 2**52 - 1)).map(lambda s: s[0] << 63 | 0x7FF << 52 | s[1])
FLOAT_BITS = FLOATS.map(lambda x: array("Q", array("d", [x]).tobytes())[0]) | NAN_BITS


def float_bits(bits, code="d"):
    """An array of typecode ``code`` with the given bit patterns ('d' 64-bit, 'f' 32-bit)."""
    return array(code, array({"d": "Q", "f": "I"}[code], bits).tobytes())


def block_cells(n):
    """One block's cell of each kind: an array (or a memoryview of one), a list or a constant."""
    arrays = st.one_of(
        st.lists(FLOAT_BITS, min_size=n, max_size=n).map(float_bits),
        st.lists(FLOATS32, min_size=n, max_size=n).map(lambda v: array("f", v)),
        st.lists(INTS, min_size=n, max_size=n).map(lambda v: array("q", v)),
        st.lists(st.integers(-(2**31), 2**31 - 1), min_size=n, max_size=n).map(lambda v: array("i", v)),
    )
    # a memoryview of the rows of a longer array, as josephson-map's matrix rows are
    arrays = arrays | arrays.map(lambda a: memoryview(a + a)[len(a) :])
    lists = st.lists(st.sampled_from(MIXED) | TEXT | FLOATS | NUMPY_SCALARS, min_size=n, max_size=n)
    constants = st.none() | st.sampled_from(MIXED) | TEXT | FLOATS | INTS | NUMPY_SCALARS
    return arrays | lists | constants


@st.composite
def block_tables(draw):
    header = ["a", "b", "c", "d", "absent"]
    table = Table()
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 6))
        names = draw(st.lists(st.sampled_from(header[:-1]), unique=True))
        # a column object may come back in a later block, as josephson-map's i and j do
        earlier = [cell for m, cells in table.blocks if m == n for cell in cells.values()
                   if isinstance(cell, (list, array, memoryview))]
        if earlier:  # drawn by index: a memoryview cannot be hashed
            cells = block_cells(n) | st.sampled_from(range(len(earlier))).map(earlier.__getitem__)
        else:
            cells = block_cells(n)
        table.append(n, **{name: draw(cells) for name in names})
    return header, table


def example_table(*blocks):
    table = Table()
    for cells in blocks:
        table.append(len(next(iter(cells.values()))), **cells)
    return ["a", "b", "c", "d", "absent"], table


SHARED = array("d", [0.5, -0.0, 0.0, 0.5, 7.0, -0.0])
NANS = [0x7FF8 << 48, 0xFFF8 << 48, 0x7FF0 << 48 | 1, 0xFFF0 << 48 | 12345, 0x7FFF << 48 | 2**48 - 1]
NANS32 = [0x7FC00000, 0xFFC00000, 0x7F800001, 0xFF803039, 0x7FFFFFFF]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(block_tables())
# one column object in two blocks and twice in one block
@example(example_table({"a": SHARED, "b": SHARED}, {"c": SHARED, "d": list(SHARED)}))
# -0.0 and 0.0 in different slices of one array, in both orders, in float64 and float32
@example(example_table({"a": array("d", [-0.0, 1.0, 2.0, 3.0, 0.0, -0.0])},
                       {"a": memoryview(array("d", [0.0, 1.0, 2.0, 3.0, -0.0, 0.0]))},
                       {"b": array("f", [0.0, 1.0, 2.0, 3.0, -0.0])}))
# NaNs of different payload bits and signs, in float64 and float32
@example(example_table({"a": float_bits(NANS), "b": float_bits(NANS32, "f")}))
def test_block_writer_matches_row_wise_reference(tmp_path, monkeypatch, header_table):
    monkeypatch.setattr(cli, "_SLICE_ROWS", 4)  # blocks of up to 6 rows span two slices
    header, table = header_table
    cfg = load_config("blockade-check", None, 0)
    assert_same_outputs(tmp_path, cfg, header, table, table_rows(table))


def traced_peak(action) -> int:
    """The traced peak of ``action``, on top of what was held before it."""
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: What the writer may hold on top of the table: one slice of cells and texts and
#: the texts of the distinct cells.
WRITER_BYTES = 1_500_000


def josephson_table(tmp_path, n_boxes):
    cfg = load_config("josephson-map", write_config(tmp_path, {"scenario": "josephson-map",
                                                               "parameters": {"n_boxes": n_boxes}}), 0)
    return cfg, *cli.run_josephson_map(cfg)


def test_josephson_writer_holds_one_slice(tmp_path):
    # 180k rows at 300 boxes; a writer that formats whole blocks holds about 7 MB more
    cfg, header, table = josephson_table(tmp_path, 300)
    assert traced_peak(lambda: _write_outputs(cfg, header, table, str(tmp_path / "jj.csv"))) < WRITER_BYTES


def test_josephson_mirror_write_holds_one_slice(tmp_path):
    # 180k rows at 300 boxes; an encoder writing batches of 2^16 pieces holds about 2.7 MB
    cfg, header, table = josephson_table(tmp_path, 300)
    cfg.json_mirror = str(tmp_path / "jj.json")
    assert traced_peak(lambda: _write_outputs(cfg, header, table, str(tmp_path / "jj.csv"))) < WRITER_BYTES


def test_shared_column_texts_are_taken_once_while_blocks_hold_it(tmp_path, monkeypatch):
    # the 2n matrix rows share one j column, which the linear fields reuse as i: its texts
    # are taken once for the rows and once for the fields in the CSV, and in the mirror,
    # where they carry the record, once for each matrix and once for the fields
    cfg = load_config("josephson-map", None, 0)
    cfg.json_mirror = str(tmp_path / "m.json")
    header, table = cli.run_josephson_map(cfg)
    first = next(table.blocks)  # the blocks pass once: put the first one back
    index, table.blocks = first[1]["j"], itertools.chain([first], table.blocks)
    taken, texts = [], cli._Texts.texts
    monkeypatch.setattr(cli._Texts, "texts", lambda memo, column, lo, hi: (
        taken.append(column is index), texts(memo, column, lo, hi))[1])
    _write_outputs(cfg, header, table, str(tmp_path / "o.csv"))
    assert taken.count(True) == 2 + 3


def test_array_cells_reach_the_mirror_as_python_scalars(tmp_path):
    table = Table()
    table.append(2, i=array("i", [1, 2]), value=memoryview(array("d", [0.5, -0.0])))
    cfg = load_config("josephson-map", None, 0)
    cfg.json_mirror = str(tmp_path / "m.json")
    _write_outputs(cfg, ["i", "value"], table, str(tmp_path / "o.csv"))
    text = (tmp_path / "m.json").read_text(encoding="utf-8")
    assert '"i": 1,' in text and '"i": 1.0' not in text
    rows = json.loads(text)["rows"]
    assert [type(r["i"]) for r in rows] == [int, int]
    assert [r["value"] for r in rows] == [0.5, -0.0] and math.copysign(1.0, rows[1]["value"]) == -1.0
    assert (tmp_path / "o.csv").read_text(encoding="utf-8") == "i,value\n1,0.5\n2,-0\n"


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_runner_length_is_row_count(tmp_path, scenario):
    # the benchmark tracer counts rows as len() of a runner's second result
    cfg = load_config(scenario, None, 0)
    cfg.json_mirror = str(tmp_path / "m.json")
    result = _RUNNERS[scenario](cfg)
    _write_outputs(cfg, *result, str(tmp_path / "o.csv"))
    n_rows = len(read_rows(tmp_path / "o.csv"))
    assert len(result[1]) == n_rows == len(json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))["rows"])
    # a fresh run's blocks, as deviation-sweep's pass once
    assert all(len(cell) == n for n, cells in _RUNNERS[scenario](cfg)[1].blocks
               for cell in cells.values() if isinstance(cell, (list, array, memoryview)))


def test_exit_codes_are_distinct():
    assert (EXIT_OK, EXIT_CONFIG, EXIT_INVARIANT) == (0, 1, 2)
