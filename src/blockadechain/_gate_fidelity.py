"""``gate-fidelity``: compiled CPHASE schedules simulated on the ten-spin chain.

The CLI imports this module only when this subcommand runs: ``validate``
checks and normalizes a loaded config's parameters, ``run`` returns the
CSV header and the rows, and writes ``schedule_out`` when it is set.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from . import ConfigError, Table, _finite, _finite_list

#: Largest |phi - 4 J1 tau mod 2 pi| a compensated CPHASE row may report.
PHASE_TOL = 1e-12


def validate(cfg) -> None:
    p = cfg.parameters
    for key in ("j1", "x1"):
        p[key] = _finite(p[key], key)
    if p["j1"] == 0:
        raise ConfigError("j1 must be nonzero")
    if p["x1"] <= 0:
        raise ConfigError("x1 must be positive")
    for key in ("j2", "tau"):
        p[key] = _finite_list(p[key], key)
    if any(tau < 0 for tau in p["tau"]):
        raise ConfigError("tau values must be nonnegative")
    if not isinstance(p["naive"], bool):
        raise ConfigError("naive must be a boolean")
    if p["schedule_out"] is not None and not isinstance(p["schedule_out"], str):
        raise ConfigError("schedule_out must be a path string")


def run(cfg) -> tuple[list, Table]:
    from .blockade import pair_encoded_layout
    from .chain import ChainSpec
    from .gates import compile_cphase, simulate_gate

    p = cfg.parameters
    layout = pair_encoded_layout(2, 2)
    table = Table()
    compiled = []
    for j2 in p["j2"]:
        spec = ChainSpec(layout.n_sites, j1=p["j1"], j2=j2, x1_max=p["x1"])
        for tau in p["tau"]:
            schedule = compile_cphase(spec, tau, layout=layout, naive=p["naive"])
            if p["schedule_out"]:
                compiled.append({"j1": p["j1"], "j2": j2, "x1": p["x1"], "tau": tau,
                                 "segments": schedule.to_payload()})
            report = simulate_gate(spec, layout, schedule)
            phi_target = (4.0 * p["j1"] * tau) % (2.0 * math.pi)
            resid = (report.phase_phi - phi_target + math.pi) % (2.0 * math.pi) - math.pi
            row = {
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
            table.append(1, **row)
            # a non-finite row fails in either mode, as abs(nan) > PHASE_TOL is False;
            # the compensated gate phase is exact; the naive residual is the point
            bad = [col for col in ("fidelity", "leakage", "phi", "phi_residual") if not math.isfinite(row[col])]
            if bad:
                cfg.invariant_failures.append(f"non-finite {', '.join(bad)} at j2={j2}, tau={tau}")
            elif not p["naive"] and abs(resid) > PHASE_TOL:
                cfg.invariant_failures.append(
                    f"gate phase residual {resid:.3e} exceeds {PHASE_TOL} at j2={j2}, tau={tau}"
                )
    if p["schedule_out"]:
        Path(p["schedule_out"]).write_text(
            json.dumps(compiled, sort_keys=True, indent=1) + "\n", encoding="utf-8"
        )
    return list(row), table
