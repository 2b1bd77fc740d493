"""The package root resolves names lazily, and each subcommand loads only its modules."""

import filecmp
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import blockadechain

SRC = Path(blockadechain.__file__).resolve().parents[1]

#: Package modules each subcommand loads besides the package root.  Under
#: ``python -m`` the CLI itself runs as ``__main__``, so ``cli`` is listed
#: here but never imported under its own name.
SUBCOMMAND_MODULES = {
    "josephson-map": {"cli", "chain", "josephson"},
    "gate-fidelity": {"cli", "chain", "blockade", "gates"},
    "blockade-check": {"cli", "blockade"},
    "deviation-sweep": {"cli", "deviation"},
}

#: The package's public names, pinned so that moving a name between modules
#: cannot drop it.
PUBLIC_NAMES = [
    "ChainSpec", "ControlSchedule", "ControlSegment", "CouplingReport", "GateReport",
    "InvariantViolation", "JosephsonArraySpec", "LogicalLayout", "PulseParameters",
    "Scenario", "ScenarioResult", "build_capacitance_matrix", "compile_cphase",
    "composite_pulse_parameters", "decay_check", "deviation_speed", "extract_couplings",
    "invert_capacitance", "logical_background_energy",
    "logical_sigma_x", "logical_sigma_z", "lower_bound", "pair_encoded_layout",
    "phase_set_distance", "scenario_deviation", "simulate_gate", "single_spin_layout",
    "verify_blockade_cancellation",
]


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def imported_package_modules(importtime_log: str) -> set:
    """Package modules named in ``-X importtime`` lines."""
    names = set()
    for line in importtime_log.splitlines():
        if line.startswith("import time:"):
            name = line.rpartition("|")[2].strip()
            if name == "blockadechain" or name.startswith("blockadechain."):
                names.add(name)
    return names


@pytest.mark.parametrize("subcommand", sorted(SUBCOMMAND_MODULES))
def test_subcommand_loads_only_its_modules(tmp_path, subcommand):
    out = run_python(
        ["-X", "importtime", "-m", "blockadechain.cli", subcommand, "--out", "out.csv"], tmp_path
    )
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "out.csv").stat().st_size > 0
    expected = {"blockadechain"} | {f"blockadechain.{m}" for m in SUBCOMMAND_MODULES[subcommand] - {"cli"}}
    assert imported_package_modules(out.stderr) == expected


def test_blockade_check_runs_without_numpy(tmp_path):
    config = str(SRC.parent / "configs" / "blockade_check.json")
    code = (
        "import sys; sys.modules['numpy'] = None; from blockadechain.cli import main; "
        f"sys.exit(main(['blockade-check', '--config', {config!r}, '--out', 'blocked.csv']))"
    )
    blocked = run_python(["-c", code], tmp_path)
    assert blocked.returncode == 0, blocked.stderr
    normal = run_python(["-m", "blockadechain.cli", "blockade-check", "--config", config, "--out", "normal.csv"], tmp_path)
    assert normal.returncode == 0, normal.stderr
    assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "normal.csv").read_bytes()


@pytest.mark.parametrize("naive", [[], ["--naive"]], ids=["compensated", "naive"])
def test_gate_fidelity_runs_without_numpy(tmp_path, naive):
    tree = json.loads((SRC.parent / "configs" / "gate_fidelity.json").read_text(encoding="utf-8"))
    outputs = {}
    for side, prefix in (("blocked", "import sys; sys.modules['numpy'] = None; "), ("normal", "")):
        tree["parameters"]["schedule_out"] = f"{side}_schedule.json"
        (tmp_path / f"{side}.json").write_text(json.dumps(tree), encoding="utf-8")
        code = (
            f"{prefix}from blockadechain.cli import main; import sys; "
            f"sys.exit(main(['gate-fidelity', '--config', '{side}.json', '--out', '{side}.csv', *{naive!r}]))"
        )
        out = run_python(["-c", code], tmp_path)
        assert out.returncode == 0, out.stderr
        outputs[side] = [(tmp_path / f"{side}{suffix}").read_bytes() for suffix in (".csv", "_schedule.json")]
    assert outputs["blocked"] == outputs["normal"]


@pytest.mark.parametrize("config", ["deviation_sweep.json", None], ids=["config", "defaults"])
def test_deviation_sweep_runs_without_numpy(tmp_path, config):
    tree = {"scenario": "deviation-sweep"}
    if config:
        tree = json.loads((SRC.parent / "configs" / config).read_text(encoding="utf-8"))
    outputs = {}
    for side, prefix in (("blocked", "import sys; sys.modules['numpy'] = None; "), ("normal", "")):
        tree["json_mirror"] = f"{side}_mirror.json"
        (tmp_path / f"{side}.json").write_text(json.dumps(tree), encoding="utf-8")
        code = (
            f"{prefix}from blockadechain.cli import main; import sys; "
            f"sys.exit(main(['deviation-sweep', '--config', '{side}.json', '--out', '{side}.csv']))"
        )
        out = run_python(["-c", code], tmp_path)
        assert out.returncode == 0, out.stderr
        outputs[side] = [(tmp_path / f"{side}{suffix}").read_bytes() for suffix in (".csv", "_mirror.json")]
    assert outputs["blocked"] == outputs["normal"]


def seeded_charges(n_boxes):
    rng = random.Random(1)
    return [rng.uniform(0.3, 0.7) for _ in range(n_boxes)]


# the defaults, and a 40-box array away from the degeneracy point, which has linear fields;
# at 300 and 965 boxes with gate charges, a numpy-blocked run matching the normal one shows
# that no BLAS setting (OPENBLAS_NUM_THREADS) can reach the output: a BLAS product for the
# linear fields once moved a mirror cell at 965 boxes by an ulp
@pytest.mark.parametrize(
    "parameters",
    [{}, {"n_boxes": 40, "gate_charges": [0.5 + 0.01 * (k % 5 - 2) for k in range(40)]},
     {"n_boxes": 300, "c_g": 0.4, "c_j": 0.6, "c_c": 0.02,
      "gate_charges": [0.5 + 0.01 * ((7 * k) % 5 - 2) for k in range(300)]},
     {"n_boxes": 965, "c_g": 0.4, "c_j": 0.6, "c_c": 0.02,
      "gate_charges": seeded_charges(965)}],
    ids=["defaults", "charged", "300-boxes", "965-boxes"],
)
def test_josephson_map_runs_without_numpy(tmp_path, parameters):
    tree = {"scenario": "josephson-map", "parameters": parameters}
    outputs = {}
    for side, prefix in (("blocked", "import sys; sys.modules['numpy'] = None; "), ("normal", "")):
        tree["json_mirror"] = f"{side}_mirror.json"
        (tmp_path / f"{side}.json").write_text(json.dumps(tree), encoding="utf-8")
        code = (
            f"{prefix}from blockadechain.cli import main; import sys; "
            f"sys.exit(main(['josephson-map', '--config', '{side}.json', '--out', '{side}.csv']))"
        )
        out = run_python(["-c", code], tmp_path)
        assert out.returncode == 0, out.stderr
        outputs[side] = [tmp_path / f"{side}{suffix}" for suffix in (".csv", "_mirror.json")]
    for blocked, normal in zip(outputs["blocked"], outputs["normal"]):
        assert filecmp.cmp(blocked, normal, shallow=False)
        blocked.unlink()  # 87 MB of CSV and 377 MB of mirror at 965 boxes, compared without reading them whole
        normal.unlink()


#: Standard-library modules each subcommand must run without.  No package
#: module imports them.
BLOCKED = {
    "josephson-map": ("dataclasses", "typing", "inspect"),
    "gate-fidelity": ("dataclasses", "typing", "inspect"),
    "blockade-check": ("dataclasses", "typing", "inspect"),
    "deviation-sweep": ("dataclasses", "typing", "inspect"),
}


@pytest.mark.parametrize("subcommand", sorted(BLOCKED))
def test_subcommand_runs_without_dataclasses_typing_or_inspect(tmp_path, subcommand):
    outputs = {}
    for side, blocked in (("blocked", BLOCKED[subcommand]), ("normal", ())):
        tree = {"scenario": subcommand, "json_mirror": f"{side}_mirror.json"}
        (tmp_path / f"{side}.json").write_text(json.dumps(tree), encoding="utf-8")
        code = (
            f"import sys; sys.modules.update(dict.fromkeys({blocked!r})); "
            "from blockadechain.cli import main; "
            f"sys.exit(main([{subcommand!r}, '--config', '{side}.json', '--out', '{side}.csv']))"
        )
        out = run_python(["-c", code], tmp_path)
        outputs[side] = [out.returncode, out.stderr] + [
            (tmp_path / f"{side}{suffix}").read_bytes() for suffix in (".csv", "_mirror.json")
        ]
    assert outputs["blocked"] == outputs["normal"]
    assert outputs["normal"][:2] == [0, ""]


def test_package_runs_without_numpy(tmp_path):
    # numpy is in the test extra only: with it unimportable, every public name resolves
    # and every library module the subcommands use imports
    code = (
        "import sys; sys.modules['numpy'] = None; import importlib, blockadechain; "
        "[importlib.import_module(f'blockadechain.{m}') for m in ('chain', 'deviation', 'blockade', 'gates', "
        "'josephson', 'cli')]; print(len([getattr(blockadechain, name) for name in blockadechain.__all__]))"
    )
    out = run_python(["-c", code], tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == str(len(PUBLIC_NAMES))


def test_cli_import_and_load_config_load_no_numpy(tmp_path):
    code = (
        "import sys; from blockadechain.cli import load_config; "
        "[load_config(s, None, 0) for s in ('gate-fidelity', 'josephson-map', 'blockade-check', 'deviation-sweep')]; "
        "print('numpy' in sys.modules)"
    )
    out = run_python(["-c", code], tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_importing_the_package_loads_no_submodule(tmp_path):
    code = "import sys, blockadechain; print(sorted(m for m in sys.modules if m.startswith('blockadechain')))"
    out = run_python(["-c", code], tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['blockadechain']"


def test_importing_deviation_loads_no_other_package_module(tmp_path):
    code = "import sys, blockadechain.deviation; print(sorted(m for m in sys.modules if m.startswith('blockadechain')))"
    out = run_python(["-c", code], tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['blockadechain', 'blockadechain.deviation']"


def test_deviation_resolves_the_oracle_from_oracles():
    from blockadechain import deviation, oracles

    assert deviation.full_chain_deviation is oracles.full_chain_deviation
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        deviation.no_such_name


def test_public_names_are_unchanged():
    assert blockadechain.__all__ == PUBLIC_NAMES


def test_public_names_resolve_and_are_listed():
    listed = dir(blockadechain)
    for name in blockadechain.__all__:
        assert getattr(blockadechain, name).__name__ == name
        assert name in listed
    namespace = {}
    exec("from blockadechain import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(blockadechain.__all__)


def test_oracles_are_not_public_names():
    from blockadechain import oracles

    assert "oracles" not in blockadechain.__all__
    for name in ("PauliTerm", "realize", "evolve", "reduced_hamiltonians", "phase_optimized_distance",
                 "full_chain_deviation"):
        assert hasattr(oracles, name)
        assert name not in blockadechain.__all__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        blockadechain.no_such_name
    with pytest.raises(ImportError):
        from blockadechain import no_such_name  # noqa: F401
