"""``deviation-sweep``: scale-dependent gate deviations and their small-t slopes.

The CLI imports this module only when this subcommand runs: ``validate``
checks and normalizes a loaded config's parameters, ``run`` returns the
CSV header and the rows.
"""

from __future__ import annotations

import math

from . import LAYOUT_BYTES_CAP, ConfigError, Table, _finite_list, _is_int

#: Peak bytes of one deviation-sweep row; checked with the sweep's row count against
#: LAYOUT_BYTES_CAP at load.  Without a mirror the writer takes each (scenario, n) block
#: as the runner makes it, but keeps the text of each distinct list cell for the whole
#: write; with one, every row is held from the run through both writes, and that case
#: sets the charge.  Traced run plus write at n_max 30 and 100 (CPython 3.11): 320 and
#: 330 bytes a row with a mirror, 141 and 138 without one, about 120 of them that memo.
ROW_BYTES = 512


def validate(cfg) -> None:
    from .deviation import MIN_QUBITS, Scenario, speed_stencil

    p = cfg.parameters
    if not _is_int(p["n_min"]) or not _is_int(p["n_max"]):
        raise ConfigError("n_min and n_max must be integers")
    if p["n_min"] < 2 or p["n_max"] < p["n_min"]:
        raise ConfigError("need 2 <= n_min <= n_max")
    if p["n_max"] > 2**40:
        raise ConfigError("need n_max <= 2**40, where every t grid stays inside the O(1) window")
    p["j2"] = _finite_list(p["j2"], "j2")
    if len(set(p["j2"])) < len(p["j2"]):
        raise ConfigError("j2 values must be distinct (0.0 and -0.0 are equal)")
    if not _is_int(p["t_points"]) or p["t_points"] < 1:
        raise ConfigError("t_points must be a positive integer (empty t-grids are invalid)")
    names = {s.value for s in Scenario}
    scenarios = p["scenarios"]
    if (
        not isinstance(scenarios, list)
        or not scenarios
        or any(not isinstance(s, str) or s not in names for s in scenarios)
        or len(set(scenarios)) < len(scenarios)
    ):
        raise ConfigError(f"scenarios must be a nonempty subset of {sorted(names)}")
    # Every nonzero J2 needs a finite t grid end pi / (2|J2|n), largest at the fewest
    # qubits, and two distinct slope-stencil times, which collapse to 0 where the scale
    # (k+1)|J2| overflows, at the most qubits.  The rows, one per t and one slope per J2
    # for each scenario and n, each cost O(1); a mirror holds them all until it is written.
    j2 = [x for x in p["j2"] if x != 0.0]
    rows = 0
    for name in scenarios:
        n_lo = max(p["n_min"], MIN_QUBITS[Scenario(name)])
        if n_lo > p["n_max"]:
            continue
        rows += (p["n_max"] - n_lo + 1) * len(p["j2"]) * (p["t_points"] + 1)
        for x in j2:
            t1, t2 = speed_stencil(name, p["n_max"], x)
            if not math.isfinite(math.pi / (2.0 * abs(x) * n_lo)) or t1 == t2:
                raise ConfigError(
                    f"j2 value {x!r} is out of range: the {name} t grid or slope "
                    f"stencil overflows for n in {n_lo}..{p['n_max']}"
                )
    if rows * ROW_BYTES > LAYOUT_BYTES_CAP:
        raise ConfigError(f"the sweep's {rows} rows exceed the budget of {LAYOUT_BYTES_CAP} bytes")


def _blocks(cfg, points: list):
    """The rows of each (scenario, n, slopes by J2) point as one block, made when the
    writer reaches it, in the order they are written: for each J2 in ascending order,
    its t grid from one ``scenario_deviations`` call, then its slope.  A grid point that
    breaks an invariant gives a ``fail:`` row, recorded in ``cfg.invariant_failures``.
    """
    from .deviation import linspace, scenario_deviations

    t_points = cfg.parameters["t_points"]
    for name, n, slope in points:
        columns = {col: [] for col in ("record", "j2", "t", "exact_raw", "exact_phase_opt",
                                       "lower_bound", "bound_ok", "slope")}
        for x in sorted(slope):
            t = linspace(0.0, math.pi / (2.0 * abs(x) * n) if x != 0 else 1.0, t_points)
            batch = scenario_deviations(name, n, [x] * t_points, t)
            ok = [v is None for v in batch.violations]
            columns["record"] += ["deviation"] * t_points + ["slope"]
            # the config's own object, which the writer formats once per run of equal cells
            columns["j2"] += [x] * (t_points + 1)
            columns["t"] += t + [None]
            for col in ("exact_raw", "exact_phase_opt", "lower_bound"):
                columns[col] += [v if k else None for v, k in zip(getattr(batch, col), ok)] + [None]
            columns["bound_ok"] += ["pass" if v is None else f"fail: {v}" for v in batch.violations] + [None]
            columns["slope"] += [None] * t_points + [slope[x]]
        cfg.invariant_failures += [cell for cell in columns["bound_ok"] if cell not in (None, "pass")]
        yield len(columns["record"]), dict(scenario=name, n=n, **columns)


def run(cfg) -> tuple[list, Table]:
    from .deviation import MIN_QUBITS, Scenario, deviation_speed

    p = cfg.parameters
    header = ["record", "scenario", "n", "j2", "t", "exact_raw", "exact_phase_opt", "lower_bound", "bound_ok", "slope"]
    # every slope before any row, so a slope point that raises (the first in scenario,
    # n and config order) leaves no output
    points = []
    for scenario in Scenario:
        if scenario.value not in p["scenarios"]:
            continue
        for n in range(max(p["n_min"], MIN_QUBITS[scenario]), p["n_max"] + 1):
            points.append((scenario.value, n, {x: deviation_speed(scenario.value, n, x) for x in p["j2"]}))
    rows = len(points) * len(p["j2"]) * (p["t_points"] + 1)
    return header, Table(_blocks(cfg, points), rows)
