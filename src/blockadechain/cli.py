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
import math
import os
import struct
import sys
import warnings
from pathlib import Path

# Each subcommand imports the workflow modules it runs inside its own code
# paths, so a run loads only those; no subcommand loads numpy.
from . import LAYOUT_BYTES_CAP, InvariantViolation

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2

#: Largest |phi - 4 J1 tau mod 2 pi| a compensated CPHASE row may report.
PHASE_TOL = 1e-12

#: Peak bytes of one deviation-sweep row; checked with the sweep's row count against
#: LAYOUT_BYTES_CAP at load.  Without a mirror the writer takes each (scenario, n) block
#: as the runner makes it; with one, every row is held from the run through both writes,
#: and that case sets the charge.  Traced run plus write at n_max 30 and 100 (CPython
#: 3.11): 338 and 331 bytes a row with a mirror, 140 and 137 without one.
ROW_BYTES = 512

#: Peak bytes of josephson-map per pair of boxes, and its fixed allowance: a run of
#: n_boxes is charged n_boxes^2 * BOX_PAIR_BYTES + MAP_FIXED_BYTES against
#: LAYOUT_BYTES_CAP at load.  The run holds C^{-1} row-major, 8 bytes a pair, and O(n)
#: beside it; the writer adds the texts of the distinct cells, which stop growing once
#: the entries underflow.  Traced run plus write with a mirror at c_c = 0.99 (CPython
#: 3.11): 2.83 / 8.90 / 14.0 / 48.2 MB at 300 / 700 / 965 / 2200 boxes, against charges
#: of 4.5 / 10.5 / 17.1 / 75.8 MB.  Admits up to 2064 boxes (2.7-2.9 s, 52 MiB RSS on 2 cores).
BOX_PAIR_BYTES = 15
MAP_FIXED_BYTES = 3 * 2**20

DEFAULT_PARAMETERS = {
    "deviation-sweep": {
        "n_min": 2,
        "n_max": 6,
        "j2": [0.005, 0.01, 0.05],
        "t_points": 20,
        "scenarios": ["idle", "sigma_z", "sigma_x", "inter_qubit"],
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


SCENARIOS = tuple(DEFAULT_PARAMETERS)


class ConfigError(Exception):
    """Invalid or unparseable run configuration."""


class RunConfig:
    def __init__(self, scenario: str, parameters: dict, output_path: str | None = None,
                 seed: int = 0, json_mirror: str | None = None) -> None:
        self.scenario = scenario
        self.parameters = parameters
        self.output_path = output_path
        self.seed = seed
        self.json_mirror = json_mirror
        self.invariant_failures: list = []
        #: blockade-check: the layout of each check, built once at load
        self.layouts: list = []


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
    if not isinstance(value, (int, float)):  # a numeric string is not a number
        raise ConfigError(f"{name} must be a number")
    try:
        out = float(value)
    except OverflowError:  # an integer past the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{name} must be finite")
    return out


def _finite_list(values, name: str) -> list:
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(f"{name} must be a nonempty list of numbers")
    return [_finite(v, name) for v in values]


def load_config(scenario: str, path: str | None, seed: int) -> RunConfig:
    """Read and strictly validate a JSON config tree for one subcommand."""
    if path is None:
        tree = {}
    else:
        try:
            tree = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
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
        from .deviation import MIN_QUBITS, Scenario, speed_stencil

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
    elif cfg.scenario == "gate-fidelity":
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
    elif cfg.scenario == "josephson-map":
        if not _is_int(p["n_boxes"]) or p["n_boxes"] < 2:
            raise ConfigError("n_boxes must be an integer >= 2")
        if p["n_boxes"] ** 2 * BOX_PAIR_BYTES + MAP_FIXED_BYTES > LAYOUT_BYTES_CAP:
            raise ConfigError(f"an array of {p['n_boxes']} boxes exceeds the budget of {LAYOUT_BYTES_CAP} bytes")
        for key in ("c_g", "c_j", "c_c"):
            p[key] = _finite(p[key], key)
        if p["gate_charges"] is not None:
            p["gate_charges"] = _finite_list(p["gate_charges"], "gate_charges")
        if p["units"] not in ("reduced", "si"):
            raise ConfigError("units must be 'reduced' or 'si'")
    elif cfg.scenario == "blockade-check":
        from .blockade import check_residual_budget, pair_encoded_layout, single_spin_layout

        if not isinstance(p["checks"], list) or not p["checks"]:
            raise ConfigError("checks must be a nonempty list")
        for i, chk in enumerate(p["checks"]):
            if not isinstance(chk, dict):
                raise ConfigError("each check must be an object")
            _check_keys(chk, {"layout", "n_logical", "m", "couplings"}, f"checks[{i}]")
            if chk.get("layout") not in ("single-spin", "pair-encoded"):
                raise ConfigError("layout must be 'single-spin' or 'pair-encoded'")
            if chk["layout"] == "single-spin" and "m" in chk:
                raise ConfigError(f"checks[{i}]: m applies only to the pair-encoded layout")
            if not _is_int(chk.get("n_logical")) or chk["n_logical"] < 1:
                raise ConfigError("n_logical must be a positive integer")
            if not _is_int(chk.get("m", 2)) or chk.get("m", 2) < 1:
                raise ConfigError("m must be a positive integer")
            try:  # a layout past the byte budget is reported before its couplings are read
                if chk["layout"] == "single-spin":
                    layout = single_spin_layout(chk["n_logical"])
                else:
                    layout = pair_encoded_layout(chk["n_logical"], chk.get("m", 2))
                chk["couplings"] = _finite_list(chk.get("couplings"), "couplings")
                check_residual_budget(layout, chk["couplings"])
            except ValueError as exc:
                raise ConfigError(f"checks[{i}]: {exc}") from None
            cfg.layouts.append(layout)
    else:  # pragma: no cover
        raise ConfigError(f"unknown scenario {cfg.scenario!r}")


#: Rows the writer assembles and writes at a time, which bounds the text it holds.
_SLICE_ROWS = 1024


def _fmt(value) -> str:
    if type(value).__module__ == "numpy":  # a numpy scalar prints as its Python value
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(int(value))
    if isinstance(value, float):
        return f"{float(value):.12g}"
    return str(value)


def _text(value) -> str:
    return "" if value is None else _fmt(value)


class Table:
    """Output rows as blocks ``(n, cells)``; ``len()`` is the row count, ``rows``.

    ``cells`` maps a header name to a list, an ``array.array`` or a memoryview
    of one with one cell per row, or to one value that is the same on every
    row.  ``None`` marks a missing cell, and a name absent from a block is
    missing on every row of it.  ``blocks`` is the list that ``append`` fills,
    or an iterable that makes each block when the writer reaches it.  An
    iterator passes once, so a mirror lists its blocks, each with its own
    cells; any other iterable is passed once per output.
    """

    def __init__(self, blocks=None, rows: int = 0) -> None:
        self.blocks, self.rows = [] if blocks is None else blocks, rows

    def __len__(self) -> int:
        return self.rows

    def append(self, n: int, /, **cells) -> None:
        """Add ``n`` rows as one block."""
        self.blocks.append((n, cells))
        self.rows += n


def _kind(cell):
    """``list``, the format of an ``array.array`` or a memoryview of one (told apart
    without importing ``array``), or None for a cell that is the same on every row."""
    if isinstance(cell, memoryview) or hasattr(cell, "typecode"):
        return memoryview(cell).format
    return list if isinstance(cell, list) else None


#: The unsigned format of each float format's size: a float cell is read as its bit pattern.
_BITS = {"d": "Q", "f": "I"}


class _Texts(dict):
    """Each distinct cell's text, formatted by ``fmt`` and followed by ``suffix`` when first
    looked up; a list cell is keyed by type, value and sign, an array cell by value, a
    float by its bit pattern, so -0.0 stays apart from 0.0."""

    def __init__(self, kind, suffix: str, fmt):
        self.kind, self.suffix, self.fmt = kind, suffix, fmt

    def __missing__(self, key):
        value = key[1] if self.kind is list else key
        if self.kind in _BITS:
            value = struct.unpack(self.kind, struct.pack(_BITS[self.kind], key))[0]
        text = self[key] = self.fmt(value) + self.suffix
        return text

    def cell(self, value) -> str:
        return self[type(value), value, value == 0 and str(value).startswith("-")]

    def texts(self, column, lo: int, hi: int) -> list:
        if self.kind is not list:
            cells = memoryview(column)[lo:hi]
            cells = cells.cast("B").cast(_BITS[self.kind]) if self.kind in _BITS else cells
            return list(map(self.__getitem__, cells.tolist()))
        texts, value, text = [], object(), ""
        for cell in column[lo:hi]:
            if cell is not value:  # the runners repeat one object over runs of rows
                value, text = cell, self.cell(cell)
            texts.append(text)
        return texts


def _row_texts(blocks, columns: list, glue: list, end: str, fmt):
    """The text of each slice of the blocks' rows: per row, each column's glue and its
    cell formatted by ``fmt``, then ``end``.  A block's row is one text shared by every
    row, then one text per list or array column that carries what follows it."""
    constants = _Texts(list, "", fmt)
    memos, last, pieces = {}, {}, []  # per kind and suffix, for the whole write; the previous block's texts and cells
    for n, cells in blocks:
        literals, varying = [""], []
        for col, before in zip(columns, glue):
            literals[-1] += before
            if kind := _kind(cell := cells.get(col)):
                varying.append((kind, cell))
                literals.append("")
            else:
                literals[-1] += constants.cell(cell)
        literals[-1] += end
        held, last, kept = last, {}, pieces  # held keys kept's cells by id, so kept keeps them alive
        pieces = [(memos.setdefault((kind, suffix), _Texts(kind, suffix, fmt)), cell)
                  for (kind, cell), suffix in zip(varying, literals[1:])]
        width = len(pieces) + 1
        for lo in range(0, n, _SLICE_ROWS):
            hi = min(lo + _SLICE_ROWS, n)
            texts = [literals[0]] * ((hi - lo) * width)  # row-major: piece k of each row at k::width
            for k, (memo, cell) in enumerate(pieces, 1):
                # a column the previous block held (josephson-map's j) reuses its texts; no other
                # cell can take the id of a cell that kept holds, and the memos last the whole
                # write
                key = (id(cell), id(memo), lo)
                texts[k::width] = last[key] = held.get(key) or memo.texts(cell, lo, hi)
            yield "".join(texts)


def _write_outputs(cfg: RunConfig, header: list, table: Table, out_path: str) -> None:
    blocks = table.blocks
    if cfg.json_mirror and iter(blocks) is blocks:  # an iterator passes once, and the mirror passes again
        blocks = list(blocks)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(_row_texts(blocks, header, [""] + [","] * (len(header) - 1), "\n", _text))
    if cfg.json_mirror:
        # json.dumps's text of the mirror, its rows spliced in from the slice texts
        mirror = {"scenario": cfg.scenario, "seed": cfg.seed, "parameters": cfg.parameters,
                  "columns": header, "rows": []}
        head, _, tail = json.dumps(mirror, sort_keys=True, indent=1, default=float).rpartition('"rows": []')
        columns = sorted(header)
        glue = [("," if k else ",\n  {") + f"\n   {json.dumps(col)}: " for k, col in enumerate(columns)]
        rows = _row_texts(blocks, columns, glue, "\n  }", json.JSONEncoder(default=float).encode)
        with open(cfg.json_mirror, "w", encoding="utf-8") as fh:
            fh.write(head + '"rows": [')
            first = next(rows, "")
            if first:
                fh.write(first[1:])  # the first row opens without a comma
                fh.writelines(rows)
                fh.write("\n ")
            fh.write("]" + tail + "\n")


# ---------------------------------------------------------------------------
# deviation-sweep

def _deviation_blocks(cfg: RunConfig, points: list):
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


def run_deviation_sweep(cfg: RunConfig) -> tuple[list, Table]:
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
    return header, Table(_deviation_blocks(cfg, points), rows)


# ---------------------------------------------------------------------------
# gate-fidelity

def run_gate_fidelity(cfg: RunConfig) -> tuple[list, Table]:
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


# ---------------------------------------------------------------------------
# josephson-map

def run_josephson_map(cfg: RunConfig) -> tuple[list, Table]:
    from array import array

    from .josephson import JosephsonArraySpec, build_capacitance_matrix, extract_couplings, invert_capacitance

    p = cfg.parameters
    spec = JosephsonArraySpec(p["n_boxes"], p["c_g"], p["c_j"], p["c_c"], p["gate_charges"])
    cmat = build_capacitance_matrix(spec)
    cinv = invert_capacitance(cmat)
    report = extract_couplings(spec, cinv, units=p["units"])

    if not report.decay_in_regime:
        status = "out-of-regime"
    elif not report.decay_ratios:
        status = "unchecked"  # no ratio was computed, as below five boxes
    elif report.decay_in_band:
        status = "pass"
    else:
        status = "fail"
        cfg.invariant_failures.append("decay ratios left the epsilon band in regime")

    n = spec.n_boxes
    header = ["n_boxes", "c_g", "c_j", "c_c", "epsilon", "record", "i", "j", "order", "value", "status"]
    base = dict(n_boxes=n, c_g=spec.c_g, c_j=spec.c_j, c_c=spec.c_c, epsilon=spec.epsilon)
    # C's rows are windows: interior row i is band[n-i : 2n-i], an edge row half of edges
    diag, off = cmat
    if diag[1:-1].tobytes() != diag[1:2].tobytes() * (n - 2) or off.tobytes() != off[:1].tobytes() * (n - 1):
        raise InvariantViolation("capacitance matrix is not one band: interior diagonal or off-diagonal varies")
    zeros = array("d", [0.0]) * (n - 2)
    band = memoryview(zeros + array("d", [0.0, off[0], diag[1], off[0], 0.0]) + zeros)
    edges = memoryview(zeros + array("d", [off[0], diag[-1], diag[0], off[0]]) + zeros)
    index = array("i", range(1, n + 1))
    orders = sorted(report.couplings_by_order)
    couplings = [report.couplings_by_order[k] for k in orders]
    ratios = list(report.decay_ratios)
    chain = report.effective_chain
    inverse = memoryview(cinv)
    tail = [
        (len(orders), dict(base, record="coupling", order=orders, value=couplings)),
        (len(ratios), dict(base, record="decay_ratio", order=list(range(len(ratios))), value=ratios)),
        (1, dict(base, record="decay_check", status=status)),
        (1, dict(base, record="residual_bound", value=report.residual_bound)),
        (n, dict(base, record="linear_field", i=index, value=report.linear_coeffs)),
        (1, dict(base, record="chain_j1", value=chain.j1)),
        (1, dict(base, record="chain_j2", value=chain.j2)),
        (1, dict(base, record="chain_x1_max", value=chain.x1_max)),
    ]

    def blocks():
        # one block per matrix row: i is constant on it, and every row shares one j column
        for i in range(n):
            yield n, dict(base, record="capacitance", i=i + 1, j=index,
                          value=edges[n:] if i == 0 else edges[:n] if i == n - 1 else band[n - i : 2 * n - i])
        for i in range(n):
            yield n, dict(base, record="inverse", i=i + 1, j=index, value=inverse[i * n : (i + 1) * n])
        yield from tail

    return header, Table(blocks(), rows=2 * n * n + len(orders) + len(ratios) + n + 5)


# ---------------------------------------------------------------------------
# blockade-check

def run_blockade_check(cfg: RunConfig) -> tuple[list, Table]:
    from .blockade import verify_blockade_cancellation

    table = Table()
    for i, (chk, layout) in enumerate(zip(cfg.parameters["checks"], cfg.layouts, strict=True)):
        try:
            residual = verify_blockade_cancellation(layout, chk["couplings"])
        except ValueError as exc:
            raise ValueError(f"checks[{i}]: {exc}") from None
        table.append(
            1,
            layout=chk["layout"],
            m=layout.m,
            n_logical=layout.n_logical,
            n_sites=layout.n_sites,
            couplings="[" + ";".join(_fmt(j) for j in chk["couplings"]) + "]",
            residual=residual,
        )
    header = ["layout", "m", "n_logical", "n_sites", "couplings", "residual"]
    return header, table


_RUNNERS = {
    "deviation-sweep": run_deviation_sweep,
    "gate-fidelity": run_gate_fidelity,
    "josephson-map": run_josephson_map,
    "blockade-check": run_blockade_check,
}


def build_parser() -> argparse.ArgumentParser:
    raw = argparse.RawDescriptionHelpFormatter
    parser = argparse.ArgumentParser(prog="blockadechain", description=__doc__, formatter_class=raw)
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        sp = sub.add_parser(
            name,
            help=f"run the {name} scenario",
            formatter_class=raw,
            epilog="parameter defaults:\n" + json.dumps(DEFAULT_PARAMETERS[name], indent=2),
        )
        sp.add_argument("--config", type=str, default=None, help="JSON config file (defaults used when omitted)")
        sp.add_argument("--out", type=str, default=None, help=f"output CSV path (default {name}.csv)")
        sp.add_argument("--jobs", type=int, default=1, help="accepted and ignored; every run is one process")
        sp.add_argument("--seed", type=int, default=0, help="seed recorded with the run (randomized tests only)")
        if name == "gate-fidelity":
            sp.add_argument("--naive", action="store_true", help="disable the long-range tilt compensation")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # each warning that the caller's filters let through is one line that names no
    # source file; catch_warnings restores the caller's showwarning afterwards
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            cfg = load_config(args.scenario, args.config, args.seed)
            if getattr(args, "naive", False):  # only gate-fidelity has --naive
                cfg.parameters["naive"] = True
            if args.jobs < 1:
                raise ConfigError("--jobs must be at least 1")
            out_path = args.out or cfg.output_path or f"{args.scenario}.csv"
            outputs = [out_path, cfg.json_mirror, cfg.parameters.get("schedule_out")]
            # a later write would replace an earlier one; realpath follows symlinks and,
            # unlike Path.resolve, does not raise on a loop
            paths = [os.path.realpath(path) for path in outputs + [args.config] if path]
            if len(set(paths)) < len(paths):
                raise ConfigError("the CSV, json_mirror, schedule_out and --config paths must name different files")
            for path, real in zip(filter(None, outputs), paths):  # all open before any is written, unchanged
                new = not os.path.exists(real)
                open(path, "ab").close()
                if new:
                    os.remove(real)
            header, table = _RUNNERS[args.scenario](cfg)
            _write_outputs(cfg, header, table, out_path)
        except InvariantViolation as exc:
            print(f"numerical invariant violation: {exc}", file=sys.stderr)
            return EXIT_INVARIANT
        # OSError: unreadable config or unwritable output; Warning: a warning that
        # the caller's filters (python -W error) turned into an exception
        except (ConfigError, ValueError, OSError, Warning) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    if cfg.invariant_failures:
        for message in cfg.invariant_failures:
            print(f"numerical invariant violation: {message}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
