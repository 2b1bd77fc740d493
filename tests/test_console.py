"""The console entry point run end to end in fresh processes, as a user starts it."""

import filecmp
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from blockadechain import LAYOUT_BYTES_CAP, cli
from blockadechain.deviation import MIN_QUBITS, Scenario

SRC = Path(cli.__file__).resolve().parents[1]
CONFIGS = SRC.parent / "configs"


def run_cli(args, cwd, **env):
    """``python -m blockadechain.cli ARGS`` on this checkout's package, with extra environment."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "blockadechain.cli", *args], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=300,
    )


def run_across_hash_seeds(tmp_path, subcommand, tree, name):
    """Run ``tree`` with a JSON mirror under ``PYTHONHASHSEED`` 1 and 2, each silently and
    with exit 0; both CSVs and both mirrors must match.  The first run's CSV and mirror."""
    outputs = []
    for run in (1, 2):
        csv, mirror, config = (tmp_path / f"{name}_{run}{suffix}" for suffix in (".csv", "_mirror.json", ".json"))
        config.write_text(json.dumps(dict(tree, json_mirror=str(mirror))), encoding="utf-8")
        done = run_cli([subcommand, "--config", str(config), "--out", str(csv)], tmp_path, PYTHONHASHSEED=str(run))
        assert (done.returncode, done.stderr) == (0, "")
        outputs.append((csv, mirror))
    for first, second in zip(*outputs):
        assert filecmp.cmp(first, second, shallow=False)
    return outputs[0]


def data_lines(csv):
    """Lines of a CSV after its header, counted a MiB at a time."""
    lines = -1
    with open(csv, "rb") as fh:
        while chunk := fh.read(2**20):
            lines += chunk.count(b"\n")
    return lines


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.stem)
def test_checked_in_config_across_hash_seeds(tmp_path, config):
    tree = json.loads(config.read_text(encoding="utf-8"))
    csv, mirror = run_across_hash_seeds(tmp_path, config.stem.replace("_", "-"), tree, config.stem)
    assert data_lines(csv) == len(json.loads(mirror.read_bytes())["rows"])


def test_josephson_map_at_the_benchmark_size_across_hash_seeds(tmp_path):
    # 300 boxes with gate charges; the mirror holds one row per CSV data line
    charges = [0.5 + 0.01 * ((7 * k) % 5 - 2) for k in range(300)]
    tree = {"scenario": "josephson-map",
            "parameters": {"n_boxes": 300, "c_g": 0.4, "c_j": 0.6, "c_c": 0.02, "gate_charges": charges}}
    csv, mirror = run_across_hash_seeds(tmp_path, "josephson-map", tree, "josephson_300")
    assert data_lines(csv) == len(json.loads(mirror.read_bytes())["rows"])
    assert data_lines(csv) >= 2 * 300 * 300


def test_josephson_map_at_the_largest_admitted_array(tmp_path):
    # the largest n_boxes whose n_boxes^2 * BOX_PAIR_BYTES + MAP_FIXED_BYTES fits the budget
    # runs (a CSV of about 400 MB, deleted once counted); one box more is a config error
    # found at load, before any output is opened
    largest = math.isqrt((LAYOUT_BYTES_CAP - cli.MAP_FIXED_BYTES) // cli.BOX_PAIR_BYTES)
    for n_boxes in (largest, largest + 1):
        config = tmp_path / f"boxes_{n_boxes}.json"
        config.write_text(json.dumps({"scenario": "josephson-map", "parameters": {"n_boxes": n_boxes}}), encoding="utf-8")
        csv = tmp_path / f"boxes_{n_boxes}.csv"
        done = run_cli(["josephson-map", "--config", str(config), "--out", str(csv)], tmp_path)
        if n_boxes == largest:
            assert (done.returncode, done.stderr) == (0, "")
            assert data_lines(csv) >= 2 * largest * largest
            csv.unlink()
        else:
            assert done.returncode == 1
            assert done.stderr.startswith("config error: ") and done.stderr.count("\n") == 1
            assert not csv.exists()


def test_blockade_check_far_past_16_logical_qubits_across_hash_seeds(tmp_path):
    # the residual walks the states of a window of sites, not the 2^n_logical patterns
    checks = [{"layout": "pair-encoded", "n_logical": 200, "m": 2, "couplings": [1.0, 0.05, 0.01]},
              {"layout": "single-spin", "n_logical": 40, "couplings": [1.0, 0.05]},
              {"layout": "pair-encoded", "n_logical": 20000, "m": 2, "couplings": [1.0, 0.05, 0.01]}]
    tree = {"scenario": "blockade-check", "parameters": {"checks": checks}}
    csv, mirror = run_across_hash_seeds(tmp_path, "blockade-check", tree, "blockade_large")
    assert data_lines(csv) == len(json.loads(mirror.read_bytes())["rows"]) == 3


def largest_default_grid():
    """The largest ``n_max`` whose default deviation-sweep rows fit ``cli.ROW_BYTES`` a row
    into the budget: each scenario has one row per t and one slope per J2 for each n
    from its ``MIN_QUBITS``."""
    p = cli.DEFAULT_PARAMETERS["deviation-sweep"]
    lows = [MIN_QUBITS[Scenario(name)] for name in p["scenarios"]]
    blocks = LAYOUT_BYTES_CAP // cli.ROW_BYTES // (len(p["j2"]) * (p["t_points"] + 1))
    return (blocks + sum(lows)) // len(lows) - 1


def test_deviation_sweep_on_the_largest_default_grid_across_hash_seeds(tmp_path):
    # every point costs O(1), so the largest grid the row budget admits runs in seconds
    n_max = largest_default_grid()
    for n, admitted in ((n_max, True), (n_max + 1, False)):
        config = tmp_path / f"grid_{n}.json"
        config.write_text(json.dumps({"parameters": {"n_max": n}}), encoding="utf-8")
        if admitted:
            cli.load_config("deviation-sweep", str(config), 0)
        else:
            with pytest.raises(cli.ConfigError, match="rows exceed the budget"):
                cli.load_config("deviation-sweep", str(config), 0)
    tree = {"scenario": "deviation-sweep", "parameters": {"n_max": n_max}}
    run_across_hash_seeds(tmp_path, "deviation-sweep", tree, "deviation_grid")


@pytest.mark.parametrize(
    "parameters, slopes",
    [({"n_min": 2, "n_max": 30, "j2": [0.03, -0.0, 0.01, -0.02, 1e5], "t_points": 1,
       "scenarios": ["idle", "sigma_z", "sigma_x", "inter_qubit"]}, 565),
     # every slope comes from deviation_speed, one per (scenario, n, J2): 84 (scenario, n)
     # blocks times 5 couplings
     ({"n_min": 2, "n_max": 30, "j2": [0.03, -0.0, 0.01, -0.02, 1e5], "t_points": 5,
       "scenarios": ["inter_qubit", "idle", "sigma_x"]}, 420)],
    ids=["edge", "unsorted-scenarios"],
)
def test_deviation_sweep_on_unsorted_and_signed_zero_couplings_across_hash_seeds(tmp_path, parameters, slopes):
    # rows go by ascending J2 whatever the config order, -0.0 written as -0; CSV-only and
    # with a mirror, under two hash seeds, every CSV and both mirrors match, and the mirror
    # holds one row per CSV data line
    csvs, mirrors = [], []
    for run in (1, 2):
        for mirror in (None, tmp_path / f"deviation_edge_{run}_mirror.json"):
            tree = {"scenario": "deviation-sweep", "parameters": parameters}
            if mirror is not None:
                tree["json_mirror"] = str(mirror)
            name = f"deviation_edge_{run}{'_m' if mirror else ''}"
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(tree), encoding="utf-8")
            csv = tmp_path / f"{name}.csv"
            done = run_cli(["deviation-sweep", "--config", str(config), "--out", str(csv)], tmp_path,
                           PYTHONHASHSEED=str(run))
            assert (done.returncode, done.stderr) == (0, "")
            csvs.append(csv.read_bytes())
            if mirror is not None:
                mirrors.append(mirror.read_bytes())
    assert csvs[1:] == csvs[:1] * 3
    assert mirrors[0] == mirrors[1]
    assert csvs[0].count(b"\n") - 1 == len(json.loads(mirrors[0])["rows"])
    assert b",-0," in csvs[0]
    assert csvs[0].count(b"\nslope,") == slopes
