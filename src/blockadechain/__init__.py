"""Exact dynamics of spin-1/2 chains with always-on Ising couplings.

Spectral-norm gate deviations from an omitted next-nearest-neighbor
coupling, blockade-encoded logical qubits with exact CPHASE
compilation, and the charge-qubit capacitance network that realizes
the model.

The public names resolve on first access (PEP 562), so importing the
package, or one CLI subcommand, loads only the modules it uses.  The
dense reference implementations live in ``blockadechain.oracles``.
``InvariantViolation``, the byte budget ``LAYOUT_BYTES_CAP`` and the
value types' base ``_Frozen`` are defined here, so the CLI can use them
without loading numpy or ``dataclasses``.
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
            "lower_bound",
            "phase_set_distance",
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
    }.items()
    for name in names
}

__all__ = sorted([*_EXPORTS, "InvariantViolation"])

__version__ = "0.1.0"


#: Bytes a run may hold in each budgeted part: a blockade check's layout or walk
#: states, a deviation batch or the sweep's rows, a josephson map's arrays and rows.
LAYOUT_BYTES_CAP = 2**26


class InvariantViolation(RuntimeError):
    """A numerical invariant (unitarity, hermiticity, bound dominance) failed."""


class _Frozen:
    """Base of the validated value types: immutable slots that compare, hash and
    print by value like a frozen dataclass.  A subclass lists its fields in
    ``__slots__``, and its ``__init__`` validates them and then calls ``_set``;
    copy and pickle call that ``__init__`` again."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS))
