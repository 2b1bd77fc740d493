"""Seeded workload generators and output checkers for the benchmark.

Each workload writes one CLI config from a seed and checks the CSV the
CLI produced without going through the code path that was timed: the
gate, bound, capacitance and blockade invariants are recomputed here
from the config with plain numpy.  Every generator keeps the amount of
work fixed across seeds (the seed moves values, never sizes), so run
times from different seeds are comparable.
"""

from __future__ import annotations

import csv
import io
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Tolerance for values the CLI prints with 12 significant digits.
PRINT_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    generate: Callable[[random.Random, bool], dict]
    check: Callable[[dict, str, int], list]


def generate_config(workload: str, seed: int, tiny: bool = False) -> dict:
    """CLI config tree for one workload; ``tiny`` shrinks it for self-tests."""
    spec = WORKLOADS[workload]
    params = spec.generate(random.Random(seed), tiny)
    return {"scenario": spec.scenario, "parameters": params, "seed": seed}


def check_output(workload: str, config: dict, csv_text: str) -> list:
    """Problems found in one run's CSV; an empty list means the run is correct."""
    try:
        return WORKLOADS[workload].check(config["parameters"], csv_text, config["seed"])
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _rows(csv_text: str) -> list:
    return list(csv.DictReader(io.StringIO(csv_text)))


def _close(a: float, b: float, rtol: float = PRINT_RTOL, atol: float = 1e-12) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# gate-cphase: gate-fidelity on the canonical ten-spin pair layout


def _gate_generate(rng: random.Random, tiny: bool) -> dict:
    taus = [rng.uniform(0.0, math.pi / 2.0) for _ in range(1 if tiny else 3)]
    return {"j1": 1.0, "j2": [0.05], "x1": 0.5, "tau": taus, "naive": False}


def _gate_check(params: dict, csv_text: str, seed: int) -> list:
    rows = _rows(csv_text)
    expected = [(j2, tau) for j2 in params["j2"] for tau in params["tau"]]
    if len(rows) != len(expected):
        return [f"expected {len(expected)} rows, got {len(rows)}"]
    problems = []
    for row, (j2, tau) in zip(rows, expected):
        if row["mode"] != "compensated" or not _close(float(row["tau"]), tau):
            problems.append(f"row for tau={tau} has mode {row['mode']} tau {row['tau']}")
        for col in ("deficit", "leakage", "phi_residual"):
            if not abs(float(row[col])) <= 1e-12:
                problems.append(f"tau={tau}: |{col}| = {row[col]} exceeds 1e-12")
        target = (4.0 * params["j1"] * tau) % (2.0 * math.pi)
        if not _close(float(row["phi_target"]), target):
            problems.append(f"tau={tau}: phi_target {row['phi_target']} != {target}")
    return problems


# ---------------------------------------------------------------------------
# deviation-wide: every scenario over n = 2..15


# Smallest chain and surviving-term count k(n) per scenario, as stated by
# the paper's bound 2 |sin(J2 t k / 2)|.
_DEVIATION_SCENARIOS = {
    "idle": (2, lambda n: n - 1),
    "sigma_z": (2, lambda n: n - 1),
    "sigma_x": (4, lambda n: n - 3),
    "inter_qubit": (3, lambda n: n - 2),
}
_ORACLE_SAMPLES = 4
_ORACLE_MAX_N = 4


def _deviation_generate(rng: random.Random, tiny: bool) -> dict:
    j2 = [rng.uniform(0.005, 0.05) for _ in range(1 if tiny else 3)]
    return {
        "n_min": 2,
        "n_max": 4 if tiny else 15,
        "j2": j2,
        "t_points": 3 if tiny else 20,
        "scenarios": list(_DEVIATION_SCENARIOS),
    }


def _deviation_check(params: dict, csv_text: str, seed: int) -> list:
    rows = _rows(csv_text)
    groups: dict = {}
    for row in rows:
        key = (row["scenario"], int(row["n"]), float(row["j2"]))
        groups.setdefault(key, []).append(row)
    expected = [
        (name, n, j2)
        for name, (n_min, _) in _DEVIATION_SCENARIOS.items()
        for n in range(max(params["n_min"], n_min), params["n_max"] + 1)
        for j2 in params["j2"]
    ]
    problems = []
    if len(groups) != len(expected):
        problems.append(f"expected {len(expected)} (scenario, n, j2) groups, got {len(groups)}")
    candidates = []
    for name, n, j2 in expected:
        group = groups.get((name, n, float(f"{j2:.12g}")))
        if group is None:
            problems.append(f"missing rows for {name} n={n} j2={j2}")
            continue
        points = [r for r in group if r["record"] == "deviation"]
        slopes = [r for r in group if r["record"] == "slope"]
        if len(points) != params["t_points"] or len(slopes) != 1:
            problems.append(f"{name} n={n} j2={j2}: {len(points)} points, {len(slopes)} slopes")
            continue
        k = _DEVIATION_SCENARIOS[name][1](n)
        t_grid = np.linspace(0.0, math.pi / (2.0 * abs(j2) * n), params["t_points"])
        for row, t in zip(points, t_grid):
            where = f"{name} n={n} j2={j2} t={row['t']}"
            if row["bound_ok"] != "pass":
                problems.append(f"{where}: bound_ok={row['bound_ok']}")
                continue
            raw, opt, bound = (float(row[c]) for c in ("exact_raw", "exact_phase_opt", "lower_bound"))
            if not _close(float(row["t"]), float(t)):
                problems.append(f"{where}: t differs from the grid value {t}")
            if not _close(bound, 2.0 * abs(math.sin(j2 * float(t) * k / 2.0))):
                problems.append(f"{where}: lower_bound {bound} differs from 2|sin(J2 t k/2)|")
            if opt < bound - 1e-9 or opt > raw + 1e-12:
                problems.append(f"{where}: not lower_bound <= exact_phase_opt <= exact_raw")
            if name == "idle" and not _close(opt, bound):
                problems.append(f"{where}: idle exact_phase_opt {opt} != lower_bound {bound}")
            if n <= _ORACLE_MAX_N and t > 0:
                candidates.append((name, n, j2, float(t), raw, opt))
        slope = float(slopes[0]["slope"])
        if name == "idle" and not _close(slope, (n - 1) * abs(j2), rtol=1e-6):
            problems.append(f"idle n={n} j2={j2}: slope {slope} != (n-1) J2")
    return problems + _deviation_oracle(candidates, seed)


def _deviation_oracle(candidates: list, seed: int) -> list:
    """Recompute a seeded sample of small-n rows from full-chain propagators."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from blockadechain.deviation import full_chain_deviation

    problems = []
    sample = random.Random(seed).sample(candidates, min(_ORACLE_SAMPLES, len(candidates)))
    for name, n, j2, t, raw, opt in sample:
        oracle_raw, oracle_opt = full_chain_deviation(name, n, j2, t)
        if abs(oracle_raw - raw) > 1e-9 or abs(oracle_opt - opt) > 1e-9:
            problems.append(
                f"{name} n={n} j2={j2} t={t}: CSV ({raw}, {opt}) vs full chain "
                f"({oracle_raw}, {oracle_opt})"
            )
    return problems


# ---------------------------------------------------------------------------
# blockade-wide: frozen-pattern residuals over several layouts


# (layout, m, coupling orders, n_logical).  The residual is exactly zero
# when the orders do not exceed the block width m, and nonzero otherwise.
_BLOCKADE_SHAPES = (
    ("single-spin", 1, 1, 14),
    ("single-spin", 1, 2, 13),
    ("pair-encoded", 1, 2, 12),
    ("pair-encoded", 2, 2, 13),
    ("pair-encoded", 2, 3, 14),
    ("pair-encoded", 3, 4, 12),
)


def _blockade_generate(rng: random.Random, tiny: bool) -> dict:
    checks = []
    for layout, m, orders, n_logical in _BLOCKADE_SHAPES:
        j1 = rng.uniform(0.5, 1.5)
        eps = rng.uniform(0.005, 0.05)
        check = {
            "layout": layout,
            "n_logical": min(n_logical, 3) if tiny else n_logical,
            "couplings": [j1 * eps**k for k in range(orders)],
        }
        if layout == "pair-encoded":
            check["m"] = m
        checks.append(check)
    rng.shuffle(checks)
    return {"checks": checks}


def _layout_sigma(layout: str, m: int, n_logical: int) -> np.ndarray:
    """sigma^z of every site for every logical basis pattern, shape (2^n, N)."""
    codes = np.arange(2**n_logical)
    bits = (codes[:, None] >> (n_logical - 1 - np.arange(n_logical))) & 1
    q = 2 * bits - 1  # +1 for logical |1>
    columns = []
    if layout == "single-spin":
        # frozen |0>, |1>, |0>, ... on odd sites, qubits on even sites
        for i in range(n_logical):
            columns.append(np.full(q.shape[0], -1 if i % 2 == 0 else 1))
            columns.append(q[:, i])
        columns.append(np.full(q.shape[0], -1 if n_logical % 2 == 0 else 1))
    else:
        block = [np.full(q.shape[0], -1)] * m
        columns.extend(block)
        for i in range(n_logical):
            columns.extend([q[:, i], -q[:, i]])  # |0>_L = |01>, |1>_L = |10>
            columns.extend(block)
    return np.stack(columns, axis=1)


def blockade_residual(sigma: np.ndarray, couplings) -> float:
    """Half the spread of the frozen Ising energy over logical patterns."""
    n = sigma.shape[1]
    sums = np.stack(
        [np.sum(sigma[:, : n - k] * sigma[:, k:], axis=1) for k in range(1, len(couplings) + 1)],
        axis=1,
    )
    if (sums == sums[0]).all():
        return 0.0
    energy = (sums - sums[0]) @ np.asarray(couplings, dtype=float)
    return float(energy.max() - energy.min()) / 2.0


def _blockade_check(params: dict, csv_text: str, seed: int) -> list:
    rows = _rows(csv_text)
    if len(rows) != len(params["checks"]):
        return [f"expected {len(params['checks'])} rows, got {len(rows)}"]
    problems = []
    for row, chk in zip(rows, params["checks"]):
        m = chk.get("m", 2) if chk["layout"] == "pair-encoded" else 1
        sigma = _layout_sigma(chk["layout"], m, chk["n_logical"])
        where = f"{chk['layout']} m={m} n_logical={chk['n_logical']}"
        described = (row["layout"], int(row["m"]), int(row["n_logical"]), int(row["n_sites"]))
        if described != (chk["layout"], m, chk["n_logical"], sigma.shape[1]):
            problems.append(f"{where}: row describes {described}")
            continue
        expected = blockade_residual(sigma, chk["couplings"])
        got = float(row["residual"])
        if (expected == 0.0 and got != 0.0) or not _close(got, expected):
            problems.append(f"{where}: residual {got}, recomputed {expected}")
    return problems


# ---------------------------------------------------------------------------
# josephson-array: capacitance mapping of a long box array


def _josephson_generate(rng: random.Random, tiny: bool) -> dict:
    n = 8 if tiny else 300
    c_g = rng.uniform(0.3, 0.7)
    eps = rng.uniform(0.005, 0.05)
    return {
        "n_boxes": n,
        "c_g": c_g,
        "c_j": 1.0 - c_g,
        "c_c": eps,
        "gate_charges": [0.5 + rng.uniform(-0.02, 0.02) for _ in range(n)],
        "units": "reduced",
    }


def _josephson_check(params: dict, csv_text: str, seed: int) -> list:
    n = params["n_boxes"]
    cmat = np.full((n, n), np.nan)
    cinv = np.full((n, n), np.nan)
    status = []
    couplings = {}
    for row in _rows(csv_text):
        record = row["record"]
        if record in ("capacitance", "inverse"):
            target = cmat if record == "capacitance" else cinv
            target[int(row["i"]) - 1, int(row["j"]) - 1] = float(row["value"])
        elif record == "decay_check":
            status.append(row["status"])
        elif record == "coupling":
            couplings[int(row["order"])] = float(row["value"])
    if np.isnan(cmat).any() or np.isnan(cinv).any():
        return ["capacitance or inverse matrix rows are missing"]
    problems = []
    c0 = params["c_g"] + params["c_j"]
    eps = params["c_c"] / c0
    expected = np.diag(np.full(n, c0 * (1.0 + 2.0 * eps)))
    expected[0, 0] = expected[-1, -1] = c0 * (1.0 + eps)
    idx = np.arange(n - 1)
    expected[idx, idx + 1] = expected[idx + 1, idx] = -c0 * eps
    if not np.allclose(cmat, expected, rtol=PRINT_RTOL, atol=0.0):
        problems.append("capacitance matrix differs from the tridiagonal model")
    residual = float(np.max(np.abs(cmat @ cinv - np.eye(n))))
    if residual > 1e-10:
        problems.append(f"max |C C^-1 - I| = {residual:.3e} exceeds 1e-10")
    if status != ["pass"]:
        problems.append(f"decay_check status {status}, expected ['pass']")
    if sorted(couplings) != list(range(1, n)):
        problems.append(f"coupling orders {sorted(couplings)[:5]}... are not 1..{n - 1}")
    else:
        for k, value in couplings.items():
            i0 = (n - k - 1) // 2
            if not _close(value, c0 * cinv[i0, i0 + k] / 4.0, atol=1e-280):
                problems.append(f"order-{k} coupling {value} != C0 C^-1[{i0 + 1},{i0 + k + 1}] / 4")
                break
    return problems


# Why each workload was chosen is recorded with its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("gate-cphase", "gate-fidelity", _gate_generate, _gate_check),
        Workload("deviation-wide", "deviation-sweep", _deviation_generate, _deviation_check),
        Workload("blockade-wide", "blockade-check", _blockade_generate, _blockade_check),
        Workload("josephson-array", "josephson-map", _josephson_generate, _josephson_check),
    )
}
