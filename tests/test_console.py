"""The console entry point run end to end in fresh processes, as a user starts it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import blockadechain

SRC = Path(blockadechain.__file__).resolve().parents[1]


def run_cli(args, cwd, **env):
    """``python -m blockadechain.cli ARGS`` on this checkout's package, with extra environment."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "blockadechain.cli", *args], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=300,
    )


def test_josephson_map_at_the_benchmark_size_across_hash_seeds(tmp_path):
    # 300 boxes with gate charges and a JSON mirror, under two hash seeds: both CSVs and
    # both mirrors match, and the mirror holds one row per CSV data line
    charges = [0.5 + 0.01 * ((7 * k) % 5 - 2) for k in range(300)]
    outputs = []
    for run in (1, 2):
        tree = {"scenario": "josephson-map",
                "parameters": {"n_boxes": 300, "c_g": 0.4, "c_j": 0.6, "c_c": 0.02, "gate_charges": charges},
                "json_mirror": str(tmp_path / f"josephson_300_{run}_mirror.json")}
        config = tmp_path / f"josephson_300_{run}.json"
        config.write_text(json.dumps(tree), encoding="utf-8")
        csv = tmp_path / f"josephson_300_{run}.csv"
        done = run_cli(["josephson-map", "--config", str(config), "--out", str(csv)], tmp_path, PYTHONHASHSEED=str(run))
        assert (done.returncode, done.stderr) == (0, "")
        outputs.append((csv.read_bytes(), Path(tree["json_mirror"]).read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    data_lines = outputs[0][0].count(b"\n") - 1
    assert data_lines == len(json.loads(outputs[0][1])["rows"])
    assert data_lines >= 2 * 300 * 300


def test_deviation_sweep_on_unsorted_and_signed_zero_couplings_across_hash_seeds(tmp_path):
    # rows go by ascending J2 whatever the config order, -0.0 written as -0; CSV-only and
    # with a mirror, under two hash seeds, every CSV and both mirrors match, and the mirror
    # holds one row per CSV data line
    parameters = {"n_min": 2, "n_max": 30, "j2": [0.03, -0.0, 0.01, -0.02, 1e5], "t_points": 1,
                  "scenarios": ["idle", "sigma_z", "sigma_x", "inter_qubit"]}
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
