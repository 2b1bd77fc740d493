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
import os
import struct
import sys
import warnings
from pathlib import Path

# Each subcommand's checks and runner live in its own module, which imports the
# workflow modules it runs inside its own code paths, so a run loads only those;
# no subcommand loads numpy.
from . import ConfigError, InvariantViolation, Table, _check_keys, _fmt, _is_int

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2

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
    _check_keys(merged, set(DEFAULT_PARAMETERS[scenario]), f"{scenario} parameters")
    _subcommand(scenario).validate(cfg)
    return cfg


def _subcommand(scenario: str):
    """The module of ``scenario``: its ``validate(cfg)`` checks and normalizes the
    parameters, and its ``run(cfg)`` returns the CSV header and the ``Table`` of rows."""
    # the import statement's own machinery, unlike importlib's, shows in -X importtime
    return __import__(f"{__package__}._{scenario.replace('-', '_')}", fromlist=["run"])


def run_subcommand(cfg: RunConfig) -> tuple[list, Table]:
    """Run ``cfg``'s subcommand.  ``main`` calls it through this module's global,
    which the benchmark's tracer (``bench/tracer.py``) wraps as the ``cli.run`` span."""
    return _subcommand(cfg.scenario).run(cfg)


#: Rows the writer assembles and writes at a time, which bounds the text it holds.
_SLICE_ROWS = 1024


def _text(value) -> str:
    return "" if value is None else _fmt(value)


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
            header, table = run_subcommand(cfg)
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
