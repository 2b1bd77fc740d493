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
import struct
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# Each subcommand imports the workflow modules it runs, and numpy, inside its
# own code paths, so a run loads only those; blockade-check and gate-fidelity
# load no numpy.
from . import LAYOUT_BYTES_CAP, InvariantViolation

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2

#: Largest |phi - 4 J1 tau mod 2 pi| a compensated CPHASE row may report.
PHASE_TOL = 1e-12

#: Peak bytes of one deviation-sweep row, held from the run through the
#: writer; checked with the sweep's row count against LAYOUT_BYTES_CAP at load.
ROW_BYTES = 512

#: Peak bytes of josephson-map per pair of boxes: matrices, index columns and writer
#: (32-36 traced at 300-965 boxes, with or without a json_mirror, CPython 3.11);
#: checked at load, n_boxes^2 of them, against LAYOUT_BYTES_CAP: up to 965 boxes.
BOX_PAIR_BYTES = 72

SCENARIOS = ("deviation-sweep", "gate-fidelity", "josephson-map", "blockade-check")

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
        tree = {"scenario": scenario, "parameters": json.loads(json.dumps(DEFAULT_PARAMETERS[scenario]))}
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
        # Every nonzero J2 needs a finite t grid end pi / (2|J2|n), largest at the fewest
        # qubits, and two distinct slope-stencil times, which collapse to 0 where the scale
        # (k+1)|J2| overflows, at the most qubits.  The rows, one per t and one slope per J2
        # for each n and listing, are all held until the sweep is written; each costs O(1).
        j2 = [x for x in p["j2"] if x != 0.0]
        rows, copies = 0, Counter(scenarios)
        for name in copies:
            n_lo = max(p["n_min"], MIN_QUBITS[Scenario(name)])
            if n_lo > p["n_max"]:
                continue
            rows += copies[name] * (p["n_max"] - n_lo + 1) * len(p["j2"]) * (p["t_points"] + 1)
            t1, t2 = speed_stencil(name, p["n_max"], j2)
            for x, s1, s2 in zip(j2, t1, t2):
                if not math.isfinite(math.pi / (2.0 * abs(x) * n_lo)) or s1 == s2:
                    raise ConfigError(
                        f"j2 value {x!r} is out of range: the {name} t grid or slope "
                        f"stencil overflows for n in {n_lo}..{p['n_max']}"
                    )
        if rows * ROW_BYTES > LAYOUT_BYTES_CAP:
            raise ConfigError(f"the sweep's {rows} rows exceed the budget of {LAYOUT_BYTES_CAP} bytes")
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
        if p["n_boxes"] ** 2 * BOX_PAIR_BYTES > LAYOUT_BYTES_CAP:
            raise ConfigError(f"an array of {p['n_boxes']} boxes exceeds the budget of {LAYOUT_BYTES_CAP} bytes")
        for key in ("c_g", "c_j", "c_c"):
            p[key] = _finite(p[key], key)
        if p["gate_charges"] is not None:
            p["gate_charges"] = _finite_list(p["gate_charges"], "gate_charges")
        if p["units"] not in ("reduced", "si"):
            raise ConfigError("units must be 'reduced' or 'si'")
    elif cfg.scenario == "blockade-check":
        from .blockade import check_residual_budget, layout_bytes, layout_sites

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
            m = chk.get("m", 2) if chk["layout"] == "pair-encoded" else None
            n_sites = layout_sites(chk["n_logical"], m)
            if layout_bytes(n_sites) > LAYOUT_BYTES_CAP:
                raise ConfigError(
                    f"checks[{i}]: a layout of {n_sites} sites exceeds the budget of {LAYOUT_BYTES_CAP} bytes"
                )
            chk["couplings"] = _finite_list(chk.get("couplings"), "couplings")
            try:
                check_residual_budget(_layout(chk), chk["couplings"])
            except ValueError as exc:
                raise ConfigError(f"checks[{i}]: {exc}") from None
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


@dataclass
class Table:
    """Output rows held as blocks, one per ``append``; ``len()`` is the row count.

    A block is ``(n, cells)``.  ``cells`` maps a header name to a list or
    a 1-D numeric or boolean numpy array with one cell per row, or to one
    value that is the same on every row.  ``None`` marks a missing cell,
    and a name absent from a block is missing on every row of it.
    """

    blocks: list = field(default_factory=list)

    def __len__(self) -> int:
        return sum(n for n, _ in self.blocks)

    def append(self, n: int, /, **cells) -> None:
        """Add ``n`` rows as one block."""
        self.blocks.append((n, cells))

    @classmethod
    def from_rows(cls, header: list, rows: list) -> Table:
        table = cls()
        table.append(len(rows), **{col: [row.get(col) for row in rows] for col in header})
        return table


def _is_array(column) -> bool:
    """A 1-D numpy array, told apart without importing numpy."""
    return getattr(column, "ndim", None) == 1


class _ArrayTexts(dict):
    """Texts of the array cells of one dtype, each formatted by ``fmt`` when first
    looked up; a float is keyed by its bit pattern, which keeps -0.0 apart from 0.0."""

    def __init__(self, dtype, fmt):
        self.dtype, self.fmt = dtype, fmt

    def texts(self, cells) -> list:
        if self.dtype.kind == "f":
            cells = cells.view(self.dtype.str.replace("f", "u"))  # same size and byte order
        return list(map(self.__getitem__, cells.tolist()))

    def __missing__(self, key):
        value = key
        if self.dtype.kind == "f":
            value = struct.unpack(self.dtype.char, key.to_bytes(self.dtype.itemsize, sys.byteorder))[0]
        text = self[key] = self.fmt(value)
        return text


def _texts(column, lo: int, hi: int, memos: dict, fmt) -> list:
    """Texts of rows lo:hi of a list or array column; ``memos`` keeps
    each distinct cell's text for the whole write."""
    if _is_array(column):
        if column.dtype.str not in memos:
            memos[column.dtype.str] = _ArrayTexts(column.dtype, fmt)
        return memos[column.dtype.str].texts(column[lo:hi])
    memo = memos.setdefault(list, {})
    texts = []
    last = text = object()
    for value in column[lo:hi]:
        if value is not last:  # the runners repeat one object over runs of rows
            last = value
            # the type keeps True apart from 1, the sign -0.0 apart from 0.0
            key = (type(value), value, value == 0 and str(value).startswith("-"))
            text = memo.get(key)
            if text is None:
                text = memo[key] = fmt(value)
        texts.append(text)
    return texts


def _row_texts(table: Table, columns: list, glue: list, end: str, fmt):
    """The text of each slice of the table's rows: per row, each column's glue
    and its cell formatted by ``fmt``, then ``end``."""
    memos = {}  # one per dtype of array cells and one for list cells, for the whole write
    for n, cells in table.blocks:
        # a str piece is the same on every row (constant cells fold into it with
        # their glue); any other piece is a list or an array with one cell per row
        pieces = []
        literal = ""
        for col, before in zip(columns, glue):
            cell = cells.get(col)
            literal += before
            if isinstance(cell, list) or _is_array(cell):
                pieces += [literal, cell] if literal else [cell]
                literal = ""
            else:
                literal += fmt(cell)
        pieces.append(literal + end)
        for lo in range(0, n, _SLICE_ROWS):
            hi = min(lo + _SLICE_ROWS, n)
            texts = [""] * ((hi - lo) * len(pieces))  # row-major: piece k of each row at k::len(pieces)
            for k, piece in enumerate(pieces):
                texts[k :: len(pieces)] = ([piece] * (hi - lo) if isinstance(piece, str)
                                           else _texts(piece, lo, hi, memos, fmt))
            yield "".join(texts)


def _write_outputs(cfg: RunConfig, header: list, table: Table, out_path: str) -> None:
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(_row_texts(table, header, [""] + [","] * (len(header) - 1), "\n", _text))
    if cfg.json_mirror:
        # json.dumps's text of the mirror, its rows spliced in from the slice texts
        mirror = {"scenario": cfg.scenario, "seed": cfg.seed, "parameters": cfg.parameters,
                  "columns": header, "rows": []}
        head, _, tail = json.dumps(mirror, sort_keys=True, indent=1, default=float).rpartition('"rows": []')
        columns = sorted(header)
        glue = [("," if k else ",\n  {") + f"\n   {json.dumps(col)}: " for k, col in enumerate(columns)]
        rows = _row_texts(table, columns, glue, "\n  }", json.JSONEncoder(default=float).encode)
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

def _linspace(start: float, stop: float, num: int) -> list:
    """``np.linspace(start, stop, num)`` by numpy's arithmetic: i * step + start
    with step = (stop - start) / (num - 1), the last point exactly stop."""
    if num == 1:
        return [start]
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


def _deviation_columns(name: str, n: int, j2: list, t_points: int, copies: int) -> dict:
    """The rows of one (scenario, n) as columns of cells, from one batch over
    every J2's t grid and slope stencil.

    Rows go in the order of the key (j2, deviation before slope, t), ties
    in config order, and repeat ``copies`` times, once per listing of the
    scenario.  A point that breaks an invariant gives a ``fail:`` row; a
    slope point that does raises, as ``deviation_speed`` does.
    """
    from .deviation import scenario_deviations, speed_stencil, stencil_slopes

    t = [s for x in j2 for s in _linspace(0.0, math.pi / (2.0 * abs(x) * n) if x != 0 else 1.0, t_points)]
    t1, t2 = speed_stencil(name, n, j2)
    n_dev = len(t)
    # the config's own objects, which the writer formats once per run of equal cells
    j2_rows = [x for x in j2 for _ in range(t_points)] + j2
    batch = scenario_deviations(name, n, j2_rows + j2, t + t1 + t2)
    slope = stencil_slopes(batch, t1, t2)

    size = len(j2_rows)
    keys = [(x, i >= n_dev, t[i] if i < n_dev else 0.0) for i, x in enumerate(j2_rows)]
    # each listing of the scenario adds the rows again, after the earlier ones on ties
    order = [i % size for i in sorted(range(size * copies), key=lambda i: keys[i % size])]

    def column(cells: list) -> list:
        return [cells[i] for i in order]

    ok = [v is None for v in batch.violations[:n_dev]]
    no_slope = [None] * len(j2)
    return {
        "record": ["slope" if i >= n_dev else "deviation" for i in order],
        "scenario": [name] * len(order),
        "n": [n] * len(order),
        "j2": column(j2_rows),
        "t": column(t + no_slope),
        "exact_raw": column([x if k else None for x, k in zip(batch.exact_raw, ok)] + no_slope),
        "exact_phase_opt": column([x if k else None for x, k in zip(batch.exact_phase_opt, ok)] + no_slope),
        "lower_bound": column([x if k else None for x, k in zip(batch.lower_bound, ok)] + no_slope),
        "bound_ok": column(["pass" if v is None else f"fail: {v}" for v in batch.violations[:n_dev]] + no_slope),
        "slope": column([None] * n_dev + slope),
    }


def run_deviation_sweep(cfg: RunConfig) -> tuple[list, Table]:
    from .deviation import MIN_QUBITS, Scenario

    p = cfg.parameters
    scenario_order = {s.value: i for i, s in enumerate(Scenario)}
    header = [
        "record", "scenario", "n", "j2", "t",
        "exact_raw", "exact_phase_opt", "lower_bound", "bound_ok", "slope",
    ]
    columns = {col: [] for col in header}
    copies = Counter(p["scenarios"])
    for name in sorted(copies, key=scenario_order.get):
        for n in range(max(p["n_min"], MIN_QUBITS[Scenario(name)]), p["n_max"] + 1):
            for col, cells in _deviation_columns(name, n, p["j2"], p["t_points"], copies[name]).items():
                columns[col] += cells
    cfg.invariant_failures += [cell for cell in columns["bound_ok"] if cell not in (None, "pass")]
    table = Table()
    table.append(len(columns["record"]), **columns)
    return header, table


# ---------------------------------------------------------------------------
# gate-fidelity

def run_gate_fidelity(cfg: RunConfig) -> tuple[list, Table]:
    from .blockade import pair_encoded_layout
    from .chain import ChainSpec
    from .gates import compile_cphase, simulate_gate

    p = cfg.parameters
    layout = pair_encoded_layout(2, 2)
    rows = []
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
            rows.append(row)
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
    header = [
        "mode", "j1", "j2", "x1", "tau",
        "fidelity", "deficit", "leakage", "phi", "phi_target", "phi_residual",
    ]
    return header, Table.from_rows(header, rows)


# ---------------------------------------------------------------------------
# josephson-map

def run_josephson_map(cfg: RunConfig) -> tuple[list, Table]:
    import numpy as np

    from .josephson import JosephsonArraySpec, build_capacitance_matrix, extract_couplings, invert_capacitance

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
    index = np.arange(1, n + 1, dtype=np.int32)
    ij = dict(i=np.repeat(index, n), j=np.tile(index, n))
    orders = sorted(report.couplings_by_order)
    couplings = [report.couplings_by_order[k] for k in orders]
    ratios = list(report.decay_ratios)
    chain = report.effective_chain
    table = Table()
    for rows, cells in (
        (n * n, dict(ij, record="capacitance", value=cmat.ravel())),
        (n * n, dict(ij, record="inverse", value=cinv.ravel())),
        (len(orders), dict(record="coupling", order=orders, value=couplings)),
        (len(ratios), dict(record="decay_ratio", order=list(range(len(ratios))), value=ratios)),
        (1, dict(record="decay_check", status=status)),
        (1, dict(record="residual_bound", value=report.residual_bound)),
        (n, dict(record="linear_field", i=index, value=report.linear_coeffs)),
        (1, dict(record="chain_j1", value=chain.j1)),
        (1, dict(record="chain_j2", value=chain.j2)),
        (1, dict(record="chain_x1_max", value=chain.x1_max)),
    ):
        table.append(rows, **base, **cells)
    return header, table


# ---------------------------------------------------------------------------
# blockade-check

def _layout(chk: dict):
    """The layout one validated blockade check names."""
    from .blockade import pair_encoded_layout, single_spin_layout

    if chk["layout"] == "single-spin":
        return single_spin_layout(chk["n_logical"])
    return pair_encoded_layout(chk["n_logical"], chk.get("m", 2))


def run_blockade_check(cfg: RunConfig) -> tuple[list, Table]:
    from .blockade import verify_blockade_cancellation

    rows = []
    for i, chk in enumerate(cfg.parameters["checks"]):
        layout = _layout(chk)
        try:
            residual = verify_blockade_cancellation(layout, chk["couplings"])
        except ValueError as exc:
            raise ValueError(f"checks[{i}]: {exc}") from None
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
    return header, Table.from_rows(header, rows)


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
        sp.add_argument("--jobs", type=int, default=1, help="accepted and ignored; every run is one process")
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
        header, table = _RUNNERS[args.scenario](cfg)
        _write_outputs(cfg, header, table, out_path)
    except InvariantViolation as exc:
        print(f"numerical invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ConfigError, ValueError, OSError) as exc:  # OSError: unreadable config or unwritable output
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if cfg.invariant_failures:
        for message in cfg.invariant_failures:
            print(f"numerical invariant violation: {message}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
