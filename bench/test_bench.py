"""Self-tests of the benchmark: generators, checkers, tracer and contract.

Run from the repository root with ``python3 -m pytest -q bench/test_bench.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from run import ROOT, SPEC_PATH, Bench, layer_metrics
from workloads import SRC, WORKLOADS, check_output, generate_config

sys.path.insert(0, str(SRC))
from blockadechain import cli  # noqa: E402

SPEC = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
PREDICTIONS = json.loads((ROOT / "bench" / "predictions.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert generate_config(workload, 7) == generate_config(workload, 7)
    assert generate_config(workload, 7) != generate_config(workload, 8)
    assert generate_config(workload, 7, tiny=True) != generate_config(workload, 7)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("tiny", [False, True])
def test_generated_config_loads(workload, tiny, tmp_path):
    for seed in (0, 1, 12345):
        config = generate_config(workload, seed, tiny)
        path = tmp_path / f"{seed}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        loaded = cli.load_config(config["scenario"], str(path), 0)
        assert loaded.seed == seed


def test_spec_matches_workloads_and_predictions():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    predicted = [m for entry in PREDICTIONS["predictions"] for m in entry["layer_metrics"]]
    assert sorted(predicted) == sorted(m["name"] for m in SPEC["per_layer"])
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in PREDICTIONS["predictions"]:
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["workloads"]) <= set(WORKLOADS)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One tiny untraced and one traced run per workload."""
    results = {}
    for workload in WORKLOADS:
        bench = Bench(workload, 3, tmp_path_factory.mktemp(workload), tiny=True)
        setup = bench.setup_times()
        (sample,) = bench.timed_runs(0.0, min_runs=1)
        traced, doc, out_bytes = bench.traced_run()
        metrics = layer_metrics(doc, traced.wall_s, sample.wall_s, out_bytes)
        results[workload] = (bench, setup, sample, metrics)
    return results


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_smoke_run(smoke, workload):
    bench, setup, sample, metrics = smoke[workload]
    assert bench.failures == [] and bench.attempted == 2
    assert min(setup) > 0 and sample.wall_s > 0 and sample.peak_rss_mb > 0
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["cli.write.rows"] > 0 and metrics["cli.import_s"] > 0
    dense = metrics["operators.realize.calls"] + metrics["linalg.eigh.calls"]
    assert (dense > 0) == (workload == "gate-cphase")


def test_traced_gate_counts(smoke):
    metrics = smoke["gate-cphase"][3]
    assert metrics["gates.simulate_gate.calls"] == 1
    # one schedule of 13 segments applied to 4 logical basis states, 9 distinct segments
    assert metrics["gates.segment_lookups"] == 52
    assert metrics["gates.eig_cache.hit_ratio"] == pytest.approx(1 - 9 / 52)


def _corrupt(text: str, column: str, value: str, where) -> str:
    """``text`` with ``column`` set to ``value`` in the first row matching ``where``."""
    lines = text.splitlines()
    header = lines[0].split(",")
    i = next(i for i in range(1, len(lines)) if where(dict(zip(header, lines[i].split(",")))))
    cells = lines[i].split(",")
    cells[header.index(column)] = value
    lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


CORRUPTIONS = {
    "gate-cphase": [("deficit", "1e-06", lambda r: True)],
    "deviation-wide": [
        ("bound_ok", "fail: injected", lambda r: r["record"] == "deviation"),
        ("lower_bound", "0.5", lambda r: r["record"] == "deviation" and r["t"] != "0"),
    ],
    "blockade-wide": [("residual", "0.125", lambda r: True)],
    "josephson-array": [("value", "0.75", lambda r: r["record"] == "inverse")],
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checker_rejects_one_corrupted_row(smoke, workload):
    bench = smoke[workload][0]
    text = bench.reference.decode("utf-8")
    assert check_output(workload, bench.config, text) == []
    for column, value, where in CORRUPTIONS[workload]:
        assert check_output(workload, bench.config, _corrupt(text, column, value, where))


def test_benchmark_fails_without_the_package(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path / SPEC_PATH.name)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "gate-cphase", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
