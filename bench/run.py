"""Benchmark of the blockadechain CLI on seeded workloads.

Usage (from the repository root):

    python3 bench/run.py --workload gate-cphase --seed 1 --seconds 20 --trace 0

The workload's config is generated from the seed and the real CLI runs on
it in child processes, one fresh process per run as a user would start it
(``--jobs 1``), until ``--seconds`` have passed and at least three runs
are done.  Each run's CSV is checked by ``workloads.check_output``; a run
that exits non-zero or fails the check counts in ``failed``.  ``setup_s``
is the median of seven children that only import ``blockadechain.cli``
and load the config.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics, the medians over runs; with ``--trace 1`` it carries
the per-layer metrics of one extra run under ``tracer.py``.  Metric
names, units and bounds live in ``BENCHMARK.json``; which layer metric
should move which end-to-end metric on which workload is in
``bench/predictions.json``.  Self-tests: ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import ROOT, SRC, WORKLOADS, check_output, generate_config

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = ROOT / "BENCHMARK.json"

MIN_RUNS = 3
SETUP_REPEATS = 7
# Every child must have ended this long after the benchmark started.
HARD_LIMIT_S = 170.0

SETUP_CODE = """
import sys
from pathlib import Path
import blockadechain.cli as cli
if Path(cli.__file__).resolve().parents[1] != Path(sys.argv[3]).resolve():
    sys.exit(f"imported {cli.__file__}, not the checkout's package")
cli.load_config(sys.argv[1], sys.argv[2], 0)
"""


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list, cwd: Path, timeout: float) -> Sample:
    """Spawn-to-exit wall time and rusage of one child, measured by ``spawn.py``."""
    timeout = max(timeout, 0.0)
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "spawn.py"), str(timeout), str(cwd / "stderr.txt"), *argv],
        cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=timeout + 30, check=True,
    )
    return Sample(**json.loads(out.stdout))


def child_error(cwd: Path) -> str:
    lines = (cwd / "stderr.txt").read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no stderr)"


class Bench:
    """One workload at one seed, in a scratch directory inside the checkout."""

    def __init__(self, workload: str, seed: int, work: Path, tiny: bool = False) -> None:
        self.workload = workload
        self.started = time.perf_counter()
        self.work = work
        self.config = generate_config(workload, seed, tiny)
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1) + "\n", encoding="utf-8")
        self.out_path = work / "out.csv"
        self.reference: bytes | None = None
        self.attempted = 0
        self.failures: list = []

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def cli_args(self) -> list:
        return [
            self.config["scenario"], "--config", str(self.config_path), "--out", str(self.out_path),
            "--jobs", "1", "--seed", str(self.config["seed"]),
        ]

    def setup_times(self) -> list:
        argv = [sys.executable, "-c", SETUP_CODE, self.config["scenario"], str(self.config_path), str(SRC)]
        times = []
        for _ in range(SETUP_REPEATS):
            sample = run_child(argv, self.work, self.remaining())
            if sample.code != 0:
                raise RuntimeError(f"set-up child failed: {child_error(self.work)}")
            times.append(sample.wall_s)
        return times

    def run_cli(self, argv: list) -> tuple:
        """One CLI run and its output check: ``(sample, passed)``; failures are recorded."""
        self.out_path.unlink(missing_ok=True)
        sample = run_child(argv, self.work, self.remaining())
        self.attempted += 1
        if sample.code != 0:
            self.failures.append(f"exit code {sample.code}: {child_error(self.work)}")
            return sample, False
        output = self.out_path.read_bytes() if self.out_path.exists() else b""
        if output != self.reference:
            problems = check_output(self.workload, self.config, output.decode("utf-8", "replace"))
            if problems:
                self.failures.append("; ".join(problems[:3]))
                return sample, False
            self.reference = output
        return sample, True

    def timed_runs(self, seconds: float, min_runs: int = MIN_RUNS) -> list:
        """Samples of the runs that passed, from at least ``min_runs`` runs."""
        argv = [sys.executable, "-m", "blockadechain.cli", *self.cli_args()]
        deadline = time.perf_counter() + seconds
        passed = []
        runs = 0
        while (runs < min_runs or time.perf_counter() < deadline) and self.remaining() > 0:
            sample, ok = self.run_cli(argv)
            runs += 1
            if ok:
                passed.append(sample)
        return passed

    def traced_run(self) -> tuple:
        spans_path = self.work / "spans.json"
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path), *self.cli_args()]
        sample, ok = self.run_cli(argv)
        if not ok:
            raise RuntimeError(f"traced run failed: {self.failures[-1]}")
        doc = json.loads(spans_path.read_text(encoding="utf-8"))
        if Path(doc["module"]).resolve().parents[1] != SRC.resolve():
            raise RuntimeError(f"traced run imported {doc['module']}, not the checkout's package")
        return sample, doc, self.out_path.stat().st_size


def layer_metrics(doc: dict, traced_wall: float, untraced_wall: float, out_bytes: int) -> dict:
    """Per-layer counts and self times from one traced run's spans."""
    spans = doc["spans"]
    covered = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    durations = defaultdict(list)
    scenario_keys = set()
    realize_in_gate = 0
    for i, (name, parent, start, end, attrs) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - covered[i]
        durations[name].append(end - start)
        for key, value in (attrs or {}).items():
            if key == "key":
                scenario_keys.add(tuple(value))
            else:
                counts[f"{name}.{key}"] += value
        if name == "operators.realize":
            while parent >= 0 and spans[parent][0] != "gates.simulate_gate":
                parent = spans[parent][1]
            realize_in_gate += parent >= 0
    for entry in ("cli.main", "cli.load_config", "cli.run"):
        if calls[entry] != 1:
            raise RuntimeError(f"traced run has {calls[entry]} {entry} spans, expected 1")

    gate = durations["gates.simulate_gate"]
    lookups = counts["gates.simulate_gate.lookups"]
    deviation_calls = calls["deviation.scenario_deviation"]
    metrics = {}
    for name in ("operators.realize", "linalg.eigh", "chain.build_h_model", "gates.simulate_gate",
                 "gates.compile_cphase", "gates.verify_blockade_cancellation",
                 "deviation.scenario_deviation", "operators.phase_set_distance"):
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    metrics.update({
        "operators.realize.terms": counts["operators.realize.terms"],
        "operators.realize.bytes": counts["operators.realize.bytes"],
        "gates.simulate_gate.cold_s": gate[0] if gate else 0.0,
        "gates.simulate_gate.warm_s": statistics.median(gate[1:]) if len(gate) > 1 else 0.0,
        "gates.segment_lookups": lookups,
        "gates.eig_cache.hit_ratio": 1.0 - realize_in_gate / lookups if lookups else 0.0,
        "gates.verify_blockade_cancellation.patterns": counts["gates.verify_blockade_cancellation.patterns"],
        "deviation.scenario_deviation.patterns": counts["deviation.scenario_deviation.patterns"],
        "deviation.enum.useful_ratio": len(scenario_keys) / deviation_calls if deviation_calls else 0.0,
        "josephson.build_capacitance_matrix.self_s": self_s["josephson.build_capacitance_matrix"],
        "josephson.invert_capacitance.self_s": self_s["josephson.invert_capacitance"],
        "josephson.extract_couplings.self_s": self_s["josephson.extract_couplings"],
        "cli.import_s": doc["import_s"],
        "cli.load_config.self_s": self_s["cli.load_config"],
        "cli.run.self_s": self_s["cli.run"],
        # main's own time: argument parsing and writing the outputs
        "cli.write.self_s": self_s["cli.main"],
        "cli.write.rows": counts["cli.run.rows"],
        "cli.write.bytes": out_bytes,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return metrics


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def blas_threads() -> str:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            return f"{var}={os.environ[var]}"
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        query = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if query is not None:
            query.restype = ctypes.c_int
            return f"{query()} (OpenBLAS default)"
    return "unknown"


def metadata(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def summarize(name: str, values: list, unit: str) -> str:
    return (f"# {name}: median {statistics.median(values):.6g} {unit} over n={len(values)} "
            f"(min {min(values):.6g}, max {max(values):.6g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "blockadechain" / "cli.py").is_file():
        print(f"error: no blockadechain package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"# {args.workload}: {why[args.workload]}")
    print("# meta " + json.dumps(metadata(args.workload, args.seed), sort_keys=True))
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        bench = Bench(args.workload, args.seed, Path(tmp))
        setup = bench.setup_times()
        passed = bench.timed_runs(args.seconds)
        if not passed:
            print(f"error: every run failed: {bench.failures[0]}", file=sys.stderr)
            return 1
        wall = statistics.median(s.wall_s for s in passed)
        series = {
            "wall_s": [s.wall_s for s in passed],
            "cpu_s": [s.cpu_s for s in passed],
            "peak_rss_mb": [s.peak_rss_mb for s in passed],
            "setup_s": setup,
        }
        for name, values in series.items():
            print(summarize(name, values, "MiB" if name == "peak_rss_mb" else "s"))
        if args.trace:
            traced, doc, out_bytes = bench.traced_run()
            values = layer_metrics(doc, traced.wall_s, wall, out_bytes)
        else:
            values = {name: statistics.median(v) for name, v in series.items()}
    for failure in bench.failures:
        print(f"run failed: {failure}", file=sys.stderr)
    print(f"# error_rate: {len(bench.failures) / bench.attempted:.6g} "
          f"({len(bench.failures)} of {bench.attempted} runs exited non-zero or failed the check)")
    if set(values) != set(units):
        raise RuntimeError(f"computed metrics {sorted(set(values) ^ set(units))} disagree with {SPEC_PATH.name}")
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
