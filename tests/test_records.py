"""The value types and result records behave as the frozen dataclasses they replace,
and the library's input checks refuse integers past the float range, non-finite
numbers and sizes that are not integers."""

import copy
import pickle
from array import array

import pytest

from blockadechain.blockade import LogicalLayout, pair_encoded_layout, verify_blockade_cancellation
from blockadechain.chain import ChainSpec, ControlSchedule, ControlSegment
from blockadechain.deviation import (
    DeviationBatch,
    Scenario,
    ScenarioResult,
    deviation_speed,
    lower_bound,
    phase_set_distance,
    scenario_deviation,
)
from blockadechain.gates import (
    GateReport,
    PulseParameters,
    compile_cphase,
    composite_pulse_parameters,
    logical_sigma_x,
    logical_sigma_z,
)
from blockadechain.josephson import CouplingReport, JosephsonArraySpec

SEGMENT = ControlSegment(0.5, [0, 1], [0, 0], [0.25])
SEGMENT_TEXT = "ControlSegment(duration=0.5, bx=(0.0, 1.0), bz=(0.0, 0.0), jxy=(0.25,))"

#: Validated value types: the class, the arguments of one instance, and the
#: repr a frozen dataclass gave it.
VALUES = {
    "ChainSpec": (ChainSpec, (4, 1.0, 0.05, 0.5), "ChainSpec(n_spins=4, j1=1.0, j2=0.05, x1_max=0.5)"),
    "ControlSegment": (ControlSegment, (0.5, [0, 1], [0, 0], [0.25]), SEGMENT_TEXT),
    "ControlSchedule": (
        ControlSchedule, ([SEGMENT, SEGMENT],), f"ControlSchedule(segments=({SEGMENT_TEXT}, {SEGMENT_TEXT}))"
    ),
    "LogicalLayout": (
        LogicalLayout, (1, 1, ((2, 3),), ((1, 0), (4, 0))),
        "LogicalLayout(n_logical=1, m=1, qubit_sites=((2, 3),), blockade_sites=((1, 0), (4, 0)))",
    ),
    "JosephsonArraySpec": (
        JosephsonArraySpec, (3, 0.5, 0.5, 0.01, [0.5, 0.4, 0.6]),
        "JosephsonArraySpec(n_boxes=3, c_g=0.5, c_j=0.5, c_c=0.01, gate_charges=(0.5, 0.4, 0.6))",
    ),
    "ScenarioResult": (
        ScenarioResult, (Scenario.IDLE, 2, 0.01, 1.0, 0.5, 0.25, 0.0),
        "ScenarioResult(scenario=<Scenario.IDLE: 'idle'>, n_logical=2, j2=0.01, t=1.0, "
        "exact_raw=0.5, exact_phase_opt=0.25, lower_bound=0.0)",
    ),
}

#: Result-only records, as above.
RECORDS = {
    "PulseParameters": (
        PulseParameters, (1.0, 0.5, 2.0, 0.25, 0.75),
        "PulseParameters(x1=1.0, theta=0.5, x2=2.0, t_r1=0.25, t_r2=0.75)",
    ),
    "GateReport": (
        GateReport, (((1 + 0j, 0j),), 0.0, 1.0, 0.5),
        "GateReport(logical_matrix=(((1+0j), 0j),), leakage=0.0, fidelity=1.0, phase_phi=0.5)",
    ),
    "DeviationBatch": (
        DeviationBatch, ([1.0], [0.5], [0.25], [None]),
        "DeviationBatch(exact_raw=[1.0], exact_phase_opt=[0.5], lower_bound=[0.25], violations=[None])",
    ),
    "CouplingReport": (
        CouplingReport,
        ({1: 0.01}, (), True, True, ChainSpec(2, 0.01, 0.0), 0.0, array("d", [0.0, -0.5])),
        "CouplingReport(couplings_by_order={1: 0.01}, decay_ratios=(), decay_in_band=True, "
        "decay_in_regime=True, effective_chain=ChainSpec(n_spins=2, j1=0.01, j2=0.0, x1_max=0.0), "
        "residual_bound=0.0, linear_coeffs=array('d', [0.0, -0.5]))",
    ),
}

ALL = {**VALUES, **RECORDS}


@pytest.mark.parametrize("name", sorted(ALL))
def test_repr_is_the_dataclass_text(name):
    cls, args, text = ALL[name]
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_compare_equal_only_within_their_class(name):
    cls, args, _ = VALUES[name]
    value = cls(*args)
    assert value == cls(*args) and not value != cls(*args)
    other = type("Other", (cls,), {})(*args)  # same fields, another class
    assert value != other and other != value
    assert value != tuple(args) and value != object()


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_values_hash_equal(name):
    cls, args, _ = VALUES[name]
    assert hash(cls(*args)) == hash(cls(*args))
    assert len({cls(*args), cls(*args)}) == 1


@pytest.mark.parametrize("name", sorted(ALL))
def test_fields_cannot_be_assigned_or_deleted(name):
    cls, args, text = ALL[name]
    value = cls(*args)
    field = text[len(name) + 1 : text.index("=")]  # the first field
    for attempt in (
        lambda: setattr(value, field, 1),
        lambda: delattr(value, field),
        lambda: setattr(value, "extra", 1),
    ):
        with pytest.raises(AttributeError):
            attempt()
    assert repr(value) == text


@pytest.mark.parametrize("name", sorted(ALL))
def test_copy_and_pickle_give_an_equal_object(name):
    cls, args, text = ALL[name]
    value = cls(*args)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls
        assert repr(twin) == text
        assert twin == value


def test_copy_and_pickle_validate_again():
    with pytest.warns(UserWarning, match="epsilon"):
        spec = JosephsonArraySpec(4, 0.5, 0.5, 0.5)
    for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        with pytest.warns(UserWarning, match="epsilon"):
            assert clone(spec) == spec


def test_layout_partition_check():
    with pytest.raises(ValueError, match="partition"):
        LogicalLayout(0, 1, (), ())  # an empty layout partitions no 1..N
    with pytest.raises(ValueError, match="partition"):
        LogicalLayout(1, 1, ((2, 3),), ((1, 0), (5, 0)))  # site 4 missing
    with pytest.raises(ValueError, match="partition"):
        LogicalLayout(1, 1, ((2, 3),), ((1, 0), (3, 0)))  # site 3 twice
    assert LogicalLayout(1, 1, ((2, 3),), ((4, 0), (1, 0))).n_sites == 4  # in any order


#: An integer past the float range, where float() and math.isfinite raise OverflowError.
HUGE = 10**400
SPEC = ChainSpec(10, 1.0, 0.05, 0.5)
PAIRS = pair_encoded_layout(2, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: ChainSpec(3, HUGE, 0.0), "j1 must be finite"),
    (lambda: ChainSpec(3, 1.0, -HUGE), "j2 must be finite"),
    (lambda: ChainSpec(3, 1.0, 0.0, HUGE), "x1_max must be finite"),
    (lambda: ControlSegment(HUGE, [0, 0], [0, 0], [0]), "segment duration must be positive and finite"),
    (lambda: ControlSegment(1.0, [HUGE, 0], [0, 0], [0]), "bx has non-finite entries"),
    (lambda: ControlSegment(1.0, [0, 0], [0, -HUGE], [0]), "bz has non-finite entries"),
    (lambda: ControlSegment(1.0, [0, 0], [0, 0], [HUGE]), "jxy has non-finite entries"),
    (lambda: verify_blockade_cancellation(PAIRS, [1.0, HUGE]), "couplings must be finite"),
    (lambda: compile_cphase(SPEC, HUGE), "tau must be finite and nonnegative"),
    (lambda: logical_sigma_x(SPEC, PAIRS, 1, -HUGE), "angle must be finite"),
    (lambda: logical_sigma_z(SPEC, PAIRS, 1, HUGE), "phi must be finite"),
    (lambda: scenario_deviation("idle", 4, HUGE, 1.0), "the phases J2 t m must be finite"),
    (lambda: scenario_deviation("idle", 4, 0.01, -HUGE), "time must be nonnegative"),
    (lambda: deviation_speed("idle", 4, HUGE), f"j2 = {HUGE} is out of range: .* overflows at n = 4"),
    (lambda: JosephsonArraySpec(4, HUGE, 0.5, 0.0), "c_g must be finite"),
    (lambda: JosephsonArraySpec(4, 0.5, 0.5, 0.0, [0.5, HUGE, 0.5, 0.5]), "gate_charges must be finite"),
    (lambda: phase_set_distance([HUGE]), "phases must be finite"),
    (lambda: lower_bound("idle", 4, HUGE, 1.0), "J2 t k must be finite"),
    (lambda: composite_pulse_parameters(HUGE, 0.5), "x1 and delta must be finite"),
    (lambda: composite_pulse_parameters(0.5, -HUGE), "x1 and delta must be finite"),
], ids=["chain-j1", "chain-j2", "chain-x1_max", "segment-duration", "segment-bx", "segment-bz", "segment-jxy",
        "blockade-couplings", "cphase-tau", "sigma_x-angle", "sigma_z-phi", "deviation-j2", "deviation-t",
        "speed-j2", "josephson-c_g", "josephson-gate_charges", "phases", "bound-j2", "pulse-x1", "pulse-delta"])
def test_integers_past_the_float_range_are_value_errors(call, message):
    # each check's own message, the one a non-finite float gets, and no OverflowError
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, message", [
    (lambda: phase_set_distance([INF]), "phases must be finite"),
    (lambda: phase_set_distance([0.0, NAN]), "phases must be finite"),
    (lambda: lower_bound("idle", 4, INF, 1.0), "J2 t k must be finite"),
    (lambda: lower_bound("idle", 4, 0.1, NAN), "J2 t k must be finite"),
    (lambda: lower_bound("idle", 4, 1e308, 1e308), "J2 t k must be finite"),
    (lambda: lower_bound("sigma_x", 1, 0.1, 1.0), "sigma_x scenario needs n >= 4"),
    (lambda: lower_bound(Scenario.INTER_QUBIT, 2, 0.1, 1.0), "inter_qubit scenario needs n >= 3"),
    (lambda: composite_pulse_parameters(0.5, NAN), "x1 and delta must be finite"),
    (lambda: composite_pulse_parameters(INF, 0.5), "x1 and delta must be finite"),
], ids=["phases-inf", "phases-nan", "bound-j2-inf", "bound-t-nan", "bound-overflow", "bound-sigma_x-n1",
        "bound-inter_qubit-n2", "pulse-delta-nan", "pulse-x1-inf"])
def test_deviation_and_pulse_helpers_refuse_non_finite_input(call, message):
    # unchecked, each gives nan, ZeroDivisionError or math's "domain error", and a chain below MIN_QUBITS
    # a bound that scenario_deviation refuses to compute
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: ChainSpec(2.5, 1.0, 0.05), "n_spins must be an integer"),
    (lambda: ChainSpec(4.0, 1.0, 0.05), "n_spins must be an integer"),
    (lambda: ChainSpec(True, 1.0, 0.05), "n_spins must be an integer"),
    (lambda: JosephsonArraySpec(2.5, 0.5, 0.5, 0.01), "n_boxes must be an integer"),
    (lambda: JosephsonArraySpec(3.0, 0.5, 0.5, 0.01), "n_boxes must be an integer"),
], ids=["chain-float", "chain-integral-float", "chain-bool", "josephson-float", "josephson-integral-float"])
def test_value_types_refuse_sizes_that_are_not_integers(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
