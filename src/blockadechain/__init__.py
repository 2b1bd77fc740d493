"""Exact dynamics of spin-1/2 chains with always-on Ising couplings.

Spectral-norm gate deviations from an omitted next-nearest-neighbor
coupling, blockade-encoded logical qubits with exact CPHASE
compilation, and the charge-qubit capacitance network that realizes
the model.

The public names resolve on first access (PEP 562), so importing the
package, or one CLI subcommand, loads only the modules it uses.  The
dense reference implementations live in ``blockadechain.oracles``.
``InvariantViolation`` is defined here, so the CLI can catch it without
loading numpy.
"""

import importlib

#: Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "chain": ("ChainSpec", "ControlSchedule", "ControlSegment"),
        "deviation": (
            "Scenario",
            "ScenarioResult",
            "deviation_speed",
            "full_chain_deviation",
            "lower_bound",
            "scenario_deviation",
        ),
        "blockade": (
            "LogicalLayout",
            "pair_encoded_layout",
            "single_spin_layout",
            "verify_blockade_cancellation",
        ),
        "gates": (
            "GateReport",
            "PulseParameters",
            "compile_cphase",
            "composite_pulse_parameters",
            "logical_background_energy",
            "logical_sigma_x",
            "logical_sigma_z",
            "simulate_gate",
        ),
        "josephson": (
            "CouplingReport",
            "JosephsonArraySpec",
            "build_capacitance_matrix",
            "decay_check",
            "extract_couplings",
            "invert_capacitance",
        ),
        "operators": ("phase_set_distance",),
    }.items()
    for name in names
}

__all__ = sorted([*_EXPORTS, "InvariantViolation"])

__version__ = "0.1.0"


class InvariantViolation(RuntimeError):
    """A numerical invariant (unitarity, hermiticity, bound dominance) failed."""


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS))
