"""Exact dynamics of spin-1/2 chains with always-on Ising couplings.

Spectral-norm gate deviations from an omitted next-nearest-neighbor
coupling, blockade-encoded logical qubits with exact CPHASE
compilation, and the charge-qubit capacitance network that realizes
the model.
"""

from .chain import (
    ChainSpec,
    ControlSchedule,
    ControlSegment,
    build_h_ideal,
    build_h_long_range,
    build_h_model,
    evolve,
)
from .deviation import (
    Scenario,
    ScenarioResult,
    deviation_speed,
    full_chain_deviation,
    lower_bound,
    scenario_deviation,
)
from .gates import (
    GateReport,
    LogicalLayout,
    PulseParameters,
    ReducedHamiltonians,
    compile_cphase,
    composite_pulse_parameters,
    logical_background_energy,
    logical_sigma_x,
    logical_sigma_z,
    pair_encoded_layout,
    pulse_rotation,
    reduced_hamiltonians,
    simulate_gate,
    single_spin_layout,
    solve_pulse_parameters,
    verify_blockade_cancellation,
)
from .josephson import (
    CouplingReport,
    JosephsonArraySpec,
    build_capacitance_matrix,
    decay_check,
    extract_couplings,
    invert_capacitance,
)
from .operators import (
    InvariantViolation,
    OperatorSum,
    PauliTerm,
    Propagator,
    expm_unitary,
    phase_optimized_distance,
    phase_set_distance,
    realize,
    spectral_norm,
)

__all__ = [
    "ChainSpec",
    "ControlSchedule",
    "ControlSegment",
    "CouplingReport",
    "GateReport",
    "InvariantViolation",
    "JosephsonArraySpec",
    "LogicalLayout",
    "OperatorSum",
    "PauliTerm",
    "Propagator",
    "PulseParameters",
    "ReducedHamiltonians",
    "Scenario",
    "ScenarioResult",
    "build_capacitance_matrix",
    "build_h_ideal",
    "build_h_long_range",
    "build_h_model",
    "compile_cphase",
    "composite_pulse_parameters",
    "decay_check",
    "deviation_speed",
    "evolve",
    "expm_unitary",
    "extract_couplings",
    "full_chain_deviation",
    "invert_capacitance",
    "logical_background_energy",
    "logical_sigma_x",
    "logical_sigma_z",
    "lower_bound",
    "pair_encoded_layout",
    "phase_optimized_distance",
    "phase_set_distance",
    "pulse_rotation",
    "realize",
    "reduced_hamiltonians",
    "scenario_deviation",
    "simulate_gate",
    "single_spin_layout",
    "solve_pulse_parameters",
    "spectral_norm",
    "verify_blockade_cancellation",
]

__version__ = "0.1.0"
