"""Exact dynamics of spin-1/2 chains with always-on Ising couplings.

Spectral-norm gate deviations from an omitted next-nearest-neighbor
coupling, blockade-encoded logical qubits with exact CPHASE
compilation, and the charge-qubit capacitance network that realizes
the model.

The public names resolve on first access (PEP 562), so importing the
package, or one CLI subcommand, loads only the modules it uses.  The
dense reference implementations live in ``blockadechain.oracles``.
``InvariantViolation``, the byte budget ``LAYOUT_BYTES_CAP``, the value
types' base ``_Frozen`` and the finiteness helpers ``_float`` and
``_isfinite`` are defined here, where every module can use them without
loading numpy or ``dataclasses``.  So are the names that the CLI's entry
module and its subcommand modules share: under ``python -m`` the entry
runs as ``__main__``, and a subcommand module that imported them from it
would load a second copy of ``cli``.
"""

import importlib
import math

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


def _float(value) -> float:
    """``float(value)``, but an infinity for an integer past the float range,
    where ``float`` raises ``OverflowError``, so that a finiteness check
    refuses it with its own ``ValueError``."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _isfinite(value) -> bool:
    """``math.isfinite``, but False for an integer past the float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# ---------------------------------------------------------------------------
# shared by the CLI's entry module and its subcommand modules

class ConfigError(Exception):
    """Invalid or unparseable run configuration."""


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
    out = _float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{name} must be finite")
    return out


def _finite_list(values, name: str) -> list:
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(f"{name} must be a nonempty list of numbers")
    return [_finite(v, name) for v in values]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(int(value))
    if isinstance(value, float):
        return f"{float(value):.12g}"
    return str(value)


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


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS))
