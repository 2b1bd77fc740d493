"""Deterministic batch front end: sweeps to CSV with a JSON mirror.

Four subcommands drive the library: ``deviation-sweep`` (scale-dependent
gate deviations and their small-t slopes), ``gate-fidelity`` (compiled
CPHASE schedules simulated on the ten-spin chain), ``josephson-map``
(capacitance network to effective couplings), and ``blockade-check``
(frozen-pattern cancellation residuals).  Identical config and seed
produce byte-identical output files; exit codes are 0 on success, 1 on
configuration errors, and 2 when a numerical invariant fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .chain import ChainSpec
from .deviation import MIN_QUBITS, Scenario, deviation_speed, scenario_deviation
from .gates import (
    compile_cphase,
    pair_encoded_layout,
    simulate_gate,
    single_spin_layout,
    verify_blockade_cancellation,
)
from .josephson import JosephsonArraySpec, build_capacitance_matrix, extract_couplings, invert_capacitance
from .operators import InvariantViolation

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2

#: Largest |phi - 4 J1 tau mod 2 pi| a compensated CPHASE row may report.
PHASE_TOL = 1e-12

SCENARIOS = ("deviation-sweep", "gate-fidelity", "josephson-map", "blockade-check")

_SCENARIO_ORDER = {s.value: i for i, s in enumerate(Scenario)}

DEFAULT_PARAMETERS = {
    "deviation-sweep": {
        "n_min": 2,
        "n_max": 6,
        "j2": [0.005, 0.01, 0.05],
        "t_points": 20,
        "scenarios": [s.value for s in Scenario],
    },
    "gate-fidelity": {
        "j1": 1.0,
        "j2": [0.05],
        "x1": 0.5,
        "tau": [0.1, 0.2, 0.4],
        "naive": False,
        "schedule_out": None,
    },
    "josephson-map": {
        "n_boxes": 8,
        "c_g": 0.5,
        "c_j": 0.5,
        "c_c": 0.01,
        "gate_charges": None,
        "units": "reduced",
    },
    "blockade-check": {
        "checks": [
            {"layout": "single-spin", "n_logical": 4, "couplings": [1.0]},
            {"layout": "pair-encoded", "n_logical": 2, "m": 2, "couplings": [1.0, 0.05]},
            {"layout": "pair-encoded", "n_logical": 2, "m": 2, "couplings": [1.0, 0.05, 0.01]},
        ]
    },
}


class ConfigError(Exception):
    """Invalid or unparseable run configuration."""


@dataclass
class RunConfig:
    scenario: str
    parameters: dict
    output_path: str | None = None
    seed: int = 0
    json_mirror: str | None = None
    invariant_failures: list = field(default_factory=list)


def _check_keys(tree: dict, allowed: set, where: str) -> None:
    unknown = set(tree) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _is_int(value) -> bool:
    # JSON true/false load as bool, which is a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(value, name: str) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, not a boolean")
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a number") from exc
    if not np.isfinite(out):
        raise ConfigError(f"{name} must be finite")
    return out


def _finite_list(values, name: str) -> list:
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(f"{name} must be a nonempty list of numbers")
    return [_finite(v, name) for v in values]


def load_config(scenario: str, path: str | None, seed: int) -> RunConfig:
    """Read and strictly validate a JSON config tree for one subcommand."""
    if path is None:
        tree = {"scenario": scenario, "parameters": json.loads(json.dumps(DEFAULT_PARAMETERS[scenario]))}
    else:
        try:
            tree = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(tree, dict):
        raise ConfigError("config root must be an object")
    _check_keys(tree, {"scenario", "parameters", "output_path", "seed", "json_mirror"}, "config root")
    if tree.get("scenario", scenario) != scenario:
        raise ConfigError(
            f"config is for scenario {tree.get('scenario')!r} but the "
            f"{scenario!r} subcommand was invoked"
        )
    params = tree.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigError("parameters must be an object")
    merged = json.loads(json.dumps(DEFAULT_PARAMETERS[scenario]))
    merged.update(params)
    if not _is_int(tree.get("seed", seed)):
        raise ConfigError("seed must be an integer")
    for key in ("output_path", "json_mirror"):
        if tree.get(key) is not None and not isinstance(tree[key], str):
            raise ConfigError(f"{key} must be a path string or null")
    cfg = RunConfig(
        scenario=scenario,
        parameters=merged,
        output_path=tree.get("output_path"),
        seed=tree.get("seed", seed),
        json_mirror=tree.get("json_mirror"),
    )
    _validate_parameters(cfg)
    return cfg


def _validate_parameters(cfg: RunConfig) -> None:
    p = cfg.parameters
    _check_keys(p, set(DEFAULT_PARAMETERS[cfg.scenario]), f"{cfg.scenario} parameters")
    if cfg.scenario == "deviation-sweep":
        if not _is_int(p["n_min"]) or not _is_int(p["n_max"]):
            raise ConfigError("n_min and n_max must be integers")
        if p["n_min"] < 2 or p["n_max"] < p["n_min"]:
            raise ConfigError("need 2 <= n_min <= n_max")
        p["j2"] = _finite_list(p["j2"], "j2")
        if not _is_int(p["t_points"]) or p["t_points"] < 1:
            raise ConfigError("t_points must be a positive integer (empty t-grids are invalid)")
        names = {s.value for s in Scenario}
        scenarios = p["scenarios"]
        if (
            not isinstance(scenarios, list)
            or not scenarios
            or any(not isinstance(s, str) or s not in names for s in scenarios)
        ):
            raise ConfigError(f"scenarios must be a nonempty subset of {sorted(names)}")
    elif cfg.scenario == "gate-fidelity":
        p["j1"] = _finite(p["j1"], "j1")
        p["x1"] = _finite(p["x1"], "x1")
        if p["j1"] == 0:
            raise ConfigError("j1 must be nonzero")
        if p["x1"] <= 0:
            raise ConfigError("x1 must be positive")
        p["j2"] = _finite_list(p["j2"] if isinstance(p["j2"], list) else [p["j2"]], "j2")
        p["tau"] = _finite_list(p["tau"], "tau")
        if any(tau < 0 for tau in p["tau"]):
            raise ConfigError("tau values must be nonnegative")
        if not isinstance(p["naive"], bool):
            raise ConfigError("naive must be a boolean")
        if p["schedule_out"] is not None and not isinstance(p["schedule_out"], str):
            raise ConfigError("schedule_out must be a path string")
    elif cfg.scenario == "josephson-map":
        if not _is_int(p["n_boxes"]) or p["n_boxes"] < 2:
            raise ConfigError("n_boxes must be an integer >= 2")
        for key in ("c_g", "c_j", "c_c"):
            p[key] = _finite(p[key], key)
        if p["gate_charges"] is not None:
            p["gate_charges"] = _finite_list(p["gate_charges"], "gate_charges")
        if p["units"] not in ("reduced", "si"):
            raise ConfigError("units must be 'reduced' or 'si'")
    elif cfg.scenario == "blockade-check":
        if not isinstance(p["checks"], list) or not p["checks"]:
            raise ConfigError("checks must be a nonempty list")
        for i, chk in enumerate(p["checks"]):
            if not isinstance(chk, dict):
                raise ConfigError("each check must be an object")
            _check_keys(chk, {"layout", "n_logical", "m", "couplings"}, f"checks[{i}]")
            if chk.get("layout") not in ("single-spin", "pair-encoded"):
                raise ConfigError("layout must be 'single-spin' or 'pair-encoded'")
            if not _is_int(chk.get("n_logical")) or chk["n_logical"] < 1:
                raise ConfigError("n_logical must be a positive integer")
            if not _is_int(chk.get("m", 2)) or chk.get("m", 2) < 1:
                raise ConfigError("m must be a positive integer")
            chk["couplings"] = _finite_list(chk.get("couplings"), "couplings")
    else:  # pragma: no cover
        raise ConfigError(f"unknown scenario {cfg.scenario!r}")


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _write_outputs(cfg: RunConfig, header: list, rows: list, out_path: str) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col, "")) for col in header))
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


# ---------------------------------------------------------------------------
# deviation-sweep

def _deviation_task(args) -> list:
    name, n, j2, t_points = args
    scenario = Scenario(name)
    t_max = np.pi / (2.0 * abs(j2) * n) if j2 != 0 else 1.0
    rows = []
    for t in np.linspace(0.0, t_max, t_points):
        try:
            res = scenario_deviation(scenario, n, j2, float(t))
            rows.append(
                {
                    "record": "deviation",
                    "scenario": name,
                    "n": n,
                    "j2": j2,
                    "t": float(t),
                    "exact_raw": res.exact_raw,
                    "exact_phase_opt": res.exact_phase_opt,
                    "lower_bound": res.lower_bound,
                    "bound_ok": "pass",
                }
            )
        except InvariantViolation as exc:
            rows.append(
                {
                    "record": "deviation",
                    "scenario": name,
                    "n": n,
                    "j2": j2,
                    "t": float(t),
                    "bound_ok": f"fail: {exc}",
                }
            )
    rows.append(
        {
            "record": "slope",
            "scenario": name,
            "n": n,
            "j2": j2,
            "slope": deviation_speed(scenario, n, j2),
        }
    )
    return rows


def run_deviation_sweep(cfg: RunConfig, jobs: int = 1) -> tuple[list, list]:
    p = cfg.parameters
    tasks = []
    for name in sorted(p["scenarios"], key=_SCENARIO_ORDER.get):
        n_lo = max(p["n_min"], MIN_QUBITS[Scenario(name)])
        for n in range(n_lo, p["n_max"] + 1):
            for j2 in p["j2"]:
                tasks.append((name, n, j2, p["t_points"]))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_deviation_task, tasks))
    else:
        chunks = [_deviation_task(t) for t in tasks]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(
        key=lambda r: (
            _SCENARIO_ORDER[r["scenario"]],
            r["n"],
            r["j2"],
            0 if r["record"] == "deviation" else 1,
            r.get("t", 0.0),
        )
    )
    for row in rows:
        if str(row.get("bound_ok", "")).startswith("fail"):
            cfg.invariant_failures.append(row["bound_ok"])
    header = [
        "record", "scenario", "n", "j2", "t",
        "exact_raw", "exact_phase_opt", "lower_bound", "bound_ok", "slope",
    ]
    return header, rows


# ---------------------------------------------------------------------------
# gate-fidelity

def run_gate_fidelity(cfg: RunConfig, jobs: int = 1) -> tuple[list, list]:
    del jobs
    p = cfg.parameters
    layout = pair_encoded_layout(2, 2)
    rows = []
    compiled = []
    for j2 in p["j2"]:
        spec = ChainSpec(layout.n_sites, j1=p["j1"], j2=j2, x1_max=p["x1"])
        for tau in p["tau"]:
            schedule = compile_cphase(spec, tau, layout=layout, naive=p["naive"])
            compiled.append({"j1": p["j1"], "j2": j2, "x1": p["x1"], "tau": tau,
                             "segments": schedule.to_payload()})
            report = simulate_gate(spec, layout, schedule)
            phi_target = (4.0 * p["j1"] * tau) % (2.0 * np.pi)
            resid = (report.phase_phi - phi_target + np.pi) % (2.0 * np.pi) - np.pi
            # the compensated gate phase is exact; the naive residual is the point
            if not p["naive"] and abs(resid) > PHASE_TOL:
                cfg.invariant_failures.append(
                    f"gate phase residual {resid:.3e} exceeds {PHASE_TOL} at j2={j2}, tau={tau}"
                )
            rows.append(
                {
                    "mode": "naive" if p["naive"] else "compensated",
                    "j1": p["j1"],
                    "j2": j2,
                    "x1": p["x1"],
                    "tau": tau,
                    "fidelity": report.fidelity,
                    "deficit": 1.0 - report.fidelity,
                    "leakage": report.leakage,
                    "phi": report.phase_phi,
                    "phi_target": phi_target,
                    "phi_residual": resid,
                }
            )
    if p["schedule_out"]:
        Path(p["schedule_out"]).write_text(
            json.dumps(compiled, sort_keys=True, indent=1) + "\n", encoding="utf-8"
        )
    header = [
        "mode", "j1", "j2", "x1", "tau",
        "fidelity", "deficit", "leakage", "phi", "phi_target", "phi_residual",
    ]
    return header, rows


# ---------------------------------------------------------------------------
# josephson-map

def run_josephson_map(cfg: RunConfig, jobs: int = 1) -> tuple[list, list]:
    del jobs
    p = cfg.parameters
    spec = JosephsonArraySpec(
        n_boxes=p["n_boxes"],
        c_g=p["c_g"],
        c_j=p["c_j"],
        c_c=p["c_c"],
        gate_charges=tuple(p["gate_charges"]) if p["gate_charges"] else None,
    )
    cmat = build_capacitance_matrix(spec)
    cinv = invert_capacitance(cmat)
    report = extract_couplings(spec, cinv, units=p["units"])

    base = {"n_boxes": spec.n_boxes, "c_g": spec.c_g, "c_j": spec.c_j, "c_c": spec.c_c, "epsilon": spec.epsilon}
    rows = []
    for i in range(spec.n_boxes):
        for j in range(spec.n_boxes):
            rows.append(dict(base, record="capacitance", i=i + 1, j=j + 1, value=cmat[i, j]))
    for i in range(spec.n_boxes):
        for j in range(spec.n_boxes):
            rows.append(dict(base, record="inverse", i=i + 1, j=j + 1, value=cinv[i, j]))
    for order, value in sorted(report.couplings_by_order.items()):
        rows.append(dict(base, record="coupling", order=order, value=value))
    for k, ratio in enumerate(report.decay_ratios):
        rows.append(dict(base, record="decay_ratio", order=k, value=ratio))
    if not report.decay_in_regime:
        status = "out-of-regime"
    elif report.decay_in_band:
        status = "pass"
    else:
        status = "fail"
        cfg.invariant_failures.append("decay ratios left the epsilon band in regime")
    rows.append(dict(base, record="decay_check", status=status))
    rows.append(dict(base, record="residual_bound", value=report.residual_bound))
    for i, h in enumerate(report.linear_coeffs):
        rows.append(dict(base, record="linear_field", i=i + 1, value=float(h)))
    chain = report.effective_chain
    rows.append(dict(base, record="chain_j1", value=chain.j1))
    rows.append(dict(base, record="chain_j2", value=chain.j2))
    rows.append(dict(base, record="chain_x1_max", value=chain.x1_max))
    header = ["n_boxes", "c_g", "c_j", "c_c", "epsilon", "record", "i", "j", "order", "value", "status"]
    return header, rows


# ---------------------------------------------------------------------------
# blockade-check

def run_blockade_check(cfg: RunConfig, jobs: int = 1) -> tuple[list, list]:
    del jobs
    rows = []
    for chk in cfg.parameters["checks"]:
        if chk["layout"] == "single-spin":
            layout = single_spin_layout(chk["n_logical"])
        else:
            layout = pair_encoded_layout(chk["n_logical"], chk.get("m", 2))
        residual = verify_blockade_cancellation(layout, chk["couplings"])
        rows.append(
            {
                "layout": chk["layout"],
                "m": layout.m,
                "n_logical": layout.n_logical,
                "n_sites": layout.n_sites,
                "couplings": "[" + ";".join(_fmt(j) for j in chk["couplings"]) + "]",
                "residual": residual,
            }
        )
    header = ["layout", "m", "n_logical", "n_sites", "couplings", "residual"]
    return header, rows


_RUNNERS = {
    "deviation-sweep": run_deviation_sweep,
    "gate-fidelity": run_gate_fidelity,
    "josephson-map": run_josephson_map,
    "blockade-check": run_blockade_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockadechain",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        sp = sub.add_parser(
            name,
            help=f"run the {name} scenario",
            formatter_class=argparse.RawDescriptionHelpFormatter,
            epilog="parameter defaults:\n" + json.dumps(DEFAULT_PARAMETERS[name], indent=2),
        )
        sp.add_argument("--config", type=str, default=None, help="JSON config file (defaults used when omitted)")
        sp.add_argument("--out", type=str, default=None, help=f"output CSV path (default {name}.csv)")
        sp.add_argument("--jobs", type=int, default=1, help="worker processes for sweep points")
        sp.add_argument("--seed", type=int, default=0, help="seed recorded with the run (randomized tests only)")
        if name == "gate-fidelity":
            sp.add_argument("--naive", action="store_true", help="disable the long-range tilt compensation")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.scenario, args.config, args.seed)
        if args.scenario == "gate-fidelity" and getattr(args, "naive", False):
            cfg.parameters["naive"] = True
        if args.jobs < 1:
            raise ConfigError("--jobs must be at least 1")
        out_path = args.out or cfg.output_path or f"{args.scenario}.csv"
        header, rows = _RUNNERS[args.scenario](cfg, jobs=args.jobs)
        _write_outputs(cfg, header, rows, out_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InvariantViolation, np.linalg.LinAlgError) as exc:
        print(f"numerical invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if cfg.invariant_failures:
        for message in cfg.invariant_failures:
            print(f"numerical invariant violation: {message}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
