"""CLI fuzz property: mutated configs end in exit 0, 1 or 2 with honest stderr.

Each example mutates one subcommand's default config (wrong types, null,
huge, subnormal and non-finite numbers, unknown keys, nested lists) and
runs it through ``cli.main``; a run that exits 0 must write only finite
numbers.  All examples run in one child process under an address-space
limit, so a missing size budget shows as a ``MemoryError`` instead of
exhausting the machine.  Run this file as a script, with an output
directory, to run the property in the current process.
"""

import contextlib
import copy
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import blockadechain
from blockadechain.cli import DEFAULT_PARAMETERS, EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, SCENARIOS, main

SRC = Path(blockadechain.__file__).resolve().parents[1]

#: Address space of the child process that runs the property.
ADDRESS_SPACE_BYTES = 3 << 30

#: Values a mutation puts in place of a config entry: wrong types, null,
#: extreme and non-finite numbers, and a nested list.
VALUES = ["x", True, None, [[1.0]], 1e308, -1e308, 5e307, 4.4e307, 1e-320, 10**9, float("nan"), float("inf")]


def containers(node) -> list:
    """Every nonempty dict or list in a config tree, its root first."""
    found = [node]
    for child in node.values() if isinstance(node, dict) else node:
        if isinstance(child, (dict, list)) and child:
            found += containers(child)
    return found


@st.composite
def mutated_configs(draw):
    scenario = draw(st.sampled_from(SCENARIOS))
    params = copy.deepcopy(DEFAULT_PARAMETERS[scenario])
    # one parameter first, then up to two entries anywhere among the parameters;
    # most examples change one entry, so that an error elsewhere does not mask it
    for i in range(draw(st.sampled_from([1, 1, 1, 2, 3]))):
        node = params if i == 0 else draw(st.sampled_from(containers(params)))
        if isinstance(node, dict):
            key = draw(st.sampled_from([*node, "unknown"]))
        else:
            key = draw(st.integers(0, len(node) - 1))
        node[key] = copy.deepcopy(draw(st.sampled_from(VALUES)))
    return scenario, {"scenario": scenario, "parameters": params}


def run(scenario: str, config: Path, out: Path) -> tuple:
    """Exit code and stderr lines of one CLI run; the CSV must not exist before."""
    with contextlib.suppress(FileNotFoundError):
        out.unlink()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([scenario, "--config", str(config), "--out", str(out)])
    return code, err.getvalue().splitlines()


def check_property(workdir: Path) -> None:
    config = workdir / "config.json"

    @settings(max_examples=400, derandomize=True, database=None, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(mutated_configs())
    def mutated_config_runs_honestly(case):
        scenario, tree = case
        config.write_text(json.dumps(tree), encoding="utf-8")
        code, lines = run(scenario, config, workdir / "first.csv")
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INVARIANT)
        if code == EXIT_CONFIG:
            assert len(lines) == 1 and lines[0].startswith("config error: "), lines
        elif code == EXIT_INVARIANT:
            assert lines and all(line.startswith("numerical invariant violation: ") for line in lines), lines
        else:
            with open(workdir / "first.csv", newline="", encoding="utf-8") as fh:
                cells = {cell for row in csv.reader(fh) for cell in row}
            assert not cells & {"nan", "inf", "-inf"}, "a successful run wrote a non-finite cell"
            again, _ = run(scenario, config, workdir / "second.csv")
            assert again == EXIT_OK
            assert (workdir / "first.csv").read_bytes() == (workdir / "second.csv").read_bytes()

    mutated_config_runs_honestly()


def test_mutated_configs_exit_honestly(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, __file__, str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr


if __name__ == "__main__":
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    warnings.simplefilter("ignore")  # the library's UserWarnings are intended
    check_property(Path(sys.argv[1]))
