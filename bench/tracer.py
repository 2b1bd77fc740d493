"""Run the blockadechain CLI in this process with a span around every layer crossing.

Usage: python3 bench/tracer.py SPANS_JSON CLI_ARG...

The layers are the package modules.  Because the package imports with
``from .x import y``, each function is wrapped under the name it has in
the module that imports it, so every call from one module into another
opens a span; the CLI's own entry points (``main``, ``load_config`` and
the subcommand runners) and ``numpy.linalg.eigh`` are wrapped as well.
No library file changes.  Spans stay in memory and are written to
SPANS_JSON when the CLI returns.  Run it in a fresh process per
workload, so process-global caches start cold as they do for a user.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from pathlib import Path

PACKAGE = "blockadechain"


class Tracer:
    """Nested spans of one single-threaded run."""

    def __init__(self) -> None:
        # [name, parent index or -1, start, end, attributes or None]
        self.spans: list = []
        self._open: list = []

    def wrap(self, name: str, fn, attributes=None):
        """``fn`` with a span per call; ``attributes(bound_args, result)`` adds counts."""
        signature = inspect.signature(fn) if attributes else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._open[-1] if self._open else -1, 0.0, 0.0, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if attributes:
                span[4] = attributes(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


# Logical qubits each deviation scenario holds fixed; the rest are enumerated.
_FIXED_QUBITS = {"idle": 0, "sigma_z": 1, "sigma_x": 3, "inter_qubit": 2}


# Counts recorded per call, from the arguments and the result.
def _realize_counts(a, result):
    return {"terms": len(a["op"].terms), "bytes": 16 * 4 ** a["op"].n_spins}


def _simulate_counts(a, result):
    return {"lookups": len(a["schedule"].segments) * 2 ** a["layout"].n_logical}


def _blockade_counts(a, result):
    return {"patterns": 2 ** a["layout"].n_logical}


def _deviation_counts(a, result):
    name = getattr(a["scenario"], "value", a["scenario"])
    patterns = 2 ** (a["n"] - _FIXED_QUBITS[name])
    if name == "sigma_x":
        patterns *= 2  # both target assignments are enumerated
    return {"patterns": patterns, "key": [name, a["n"], a.get("target")]}


def _runner_counts(a, result):
    return {"rows": len(result[1])}


ATTRIBUTES = {
    "operators.realize": _realize_counts,
    "gates.simulate_gate": _simulate_counts,
    "gates.verify_blockade_cancellation": _blockade_counts,
    "deviation.scenario_deviation": _deviation_counts,
    "cli.run": _runner_counts,
}


def _span_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


def install(tracer: Tracer, cli):
    """Wrap every cross-module import, the CLI entry points and eigh; return main."""
    import numpy.linalg

    package = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{PACKAGE}.{info.name}")
        for attr, obj in list(vars(module).items()):
            origin = getattr(obj, "__module__", "") or ""
            if inspect.isfunction(obj) and origin.startswith(PACKAGE + ".") and origin != module.__name__:
                name = _span_name(obj)
                setattr(module, attr, tracer.wrap(name, obj, ATTRIBUTES.get(name)))

    runners = {}
    for attr, obj in list(vars(cli).items()):
        if inspect.isfunction(obj) and attr.startswith("run_") and obj.__module__ == cli.__name__:
            runners[obj] = tracer.wrap("cli.run", obj, ATTRIBUTES["cli.run"])
            setattr(cli, attr, runners[obj])
    # the subcommand dispatch table holds the runners by value
    for table in vars(cli).values():
        if isinstance(table, dict):
            for key, value in table.items():
                if inspect.isfunction(value) and value in runners:
                    table[key] = runners[value]
    cli.load_config = tracer.wrap("cli.load_config", cli.load_config)
    numpy.linalg.eigh = tracer.wrap("linalg.eigh", numpy.linalg.eigh)
    return tracer.wrap("cli.main", cli.main)


def main(argv: list) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = Path(argv[0]), argv[1:]
    start = time.perf_counter()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    traced_main = install(tracer, cli)
    try:
        code = traced_main(cli_args)
    finally:
        spans_path.write_text(
            json.dumps({"module": cli.__file__, "import_s": import_s, "spans": tracer.spans}),
            encoding="utf-8",
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
