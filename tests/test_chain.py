import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockadechain.chain import ChainSpec, ControlSchedule, ControlSegment
from blockadechain.oracles import (
    OperatorSum,
    PauliTerm,
    build_h_ideal,
    build_h_long_range,
    build_h_model,
    evolve,
    expm_unitary,
    realize,
    spectral_norm,
)

rng = np.random.default_rng(42)


def random_segment(n, duration=None, with_bx=True):
    return ControlSegment(
        duration if duration is not None else rng.uniform(0.2, 1.0),
        rng.uniform(-0.5, 0.5, n) if with_bx else np.zeros(n),
        rng.uniform(-0.5, 0.5, n),
        rng.uniform(-0.5, 0.5, n - 1),
    )


# ---------------------------------------------------------------------------
# specs and segments

def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(1, 1.0, 0.0)
    with pytest.raises(ValueError):
        ChainSpec(4, np.nan, 0.0)
    with pytest.warns(UserWarning, match="regime"):
        ChainSpec(4, 0.1, 0.2)


def test_regime_warning_names_the_caller():
    # stacklevel points past ChainSpec.__init__ to the line that built the spec
    with pytest.warns(UserWarning, match="regime") as record:
        ChainSpec(4, 0.1, 0.2)
    assert record[0].filename == __file__


def test_segment_validation():
    with pytest.raises(ValueError, match="duration"):
        ControlSegment(0.0, [0, 0], [0, 0], [0])
    with pytest.raises(ValueError, match="length"):
        ControlSegment(1.0, [0, 0], [0], [0])
    with pytest.raises(ValueError, match="length"):
        ControlSegment(1.0, [0, 0], [0, 0], [0, 0])


def test_schedule_must_be_nonempty():
    with pytest.raises(ValueError, match="at least one"):
        ControlSchedule([])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ChainSpec(4, 1.0, 0.05, x1_max=-0.1), "x1_max must be nonnegative"),
        (lambda: ControlSegment(1.0, [0, 0], [0, np.inf], [0]), "bz has non-finite entries"),
        (lambda: ControlSegment(1.0, [0, 0], [0, 0], [np.nan]), "jxy has non-finite entries"),
        (lambda: ControlSegment(1.0, [0, np.nan], [0, 0], [0]), "bx has non-finite entries"),
        (lambda: ControlSegment.bond_pulse(3, 0, 1.0, 1.0), "bond 0 out of range for 3 spins"),
        (lambda: ControlSegment.bond_pulse(3, 3, 1.0, 1.0), "bond 3 out of range for 3 spins"),
        (lambda: ControlSchedule([ControlSegment.idle(2, 1.0), ControlSegment.idle(3, 1.0)]),
         "segments act on different register sizes"),
    ],
)
def test_chain_guards(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_total_duration_sums_the_segments():
    schedule = ControlSchedule([ControlSegment.idle(3, 0.25), ControlSegment.bond_pulse(3, 2, 0.5, 1.5)])
    assert schedule.total_duration == 1.75


# ---------------------------------------------------------------------------
# Hamiltonian builders

def test_h_ideal_two_spins_ising_only():
    spec = ChainSpec(2, j1=1.0, j2=0.0)
    op = build_h_ideal(spec, ControlSegment.idle(2, 1.0))
    assert len(op.terms) == 1
    assert op.terms[0].letters == ((1, "Z"), (2, "Z"))


def test_h_ideal_single_field_term_count():
    spec = ChainSpec(3, j1=1.0, j2=0.0)
    seg = ControlSegment(1.0, [0.0, 0.2, 0.0], [0.0] * 3, [0.0, 0.0])
    op = build_h_ideal(spec, seg)
    expected = OperatorSum(
        [
            PauliTerm(0.2, {2: "X"}),
            PauliTerm(1.0, {1: "Z", 2: "Z"}),
            PauliTerm(1.0, {2: "Z", 3: "Z"}),
        ],
        3,
    )
    assert np.allclose(realize(op), realize(expected))
    assert len(op.terms) == 3


def test_h_ideal_additivity_of_field_and_coupling_parts():
    n = 5
    spec = ChainSpec(n, j1=0.8, j2=0.0)
    seg = random_segment(n)
    h_total = realize(build_h_ideal(spec, seg))

    field_terms = []
    for i in range(1, n + 1):
        field_terms.append(PauliTerm(seg.bx[i - 1], {i: "X"}))
        field_terms.append(PauliTerm(seg.bz[i - 1], {i: "Z"}))
    coupling_terms = []
    for i in range(1, n):
        coupling_terms.append(PauliTerm(seg.jxy[i - 1], {i: "X", i + 1: "X"}))
        coupling_terms.append(PauliTerm(seg.jxy[i - 1], {i: "Y", i + 1: "Y"}))
        coupling_terms.append(PauliTerm(spec.j1, {i: "Z", i + 1: "Z"}))
    h_split = realize(OperatorSum(field_terms, n)) + realize(OperatorSum(coupling_terms, n))
    assert np.max(np.abs(h_total - h_split)) < 1e-13


def test_h_long_range_three_spins():
    op = build_h_long_range(ChainSpec(3, j1=1.0, j2=0.05))
    assert len(op.terms) == 1
    assert op.terms[0].coefficient == 0.05
    assert op.terms[0].letters == ((1, "Z"), (3, "Z"))


def test_h_long_range_two_spins_is_zero():
    op = build_h_long_range(ChainSpec(2, j1=1.0, j2=0.05))
    assert len(op.terms) == 0
    assert np.allclose(realize(op), np.zeros((4, 4)))


def test_h_long_range_six_spins_traceless():
    op = build_h_long_range(ChainSpec(6, j1=1.0, j2=0.05))
    assert len(op.terms) == 4
    assert abs(np.trace(realize(op))) < 1e-14


def test_h_model_additivity():
    spec = ChainSpec(4, j1=1.0, j2=0.05)
    seg = random_segment(4)
    total = realize(build_h_model(spec, seg))
    split = realize(build_h_ideal(spec, seg)) + realize(build_h_long_range(spec))
    assert np.max(np.abs(total - split)) < 1e-13


def test_h_model_two_spins_equals_ideal():
    spec = ChainSpec(2, j1=1.0, j2=0.05)
    seg = random_segment(2)
    assert np.allclose(
        realize(build_h_model(spec, seg)), realize(build_h_ideal(spec, seg))
    )


def test_h_model_all_zero_is_zero_operator():
    spec = ChainSpec(3, j1=0.0, j2=0.0)
    op = build_h_model(spec, ControlSegment.idle(3, 1.0))
    assert len(op.terms) == 0


# ---------------------------------------------------------------------------
# evolution

def test_evolve_zero_hamiltonian_is_identity():
    spec = ChainSpec(3, j1=0.0, j2=0.0)
    u = evolve(spec, ControlSchedule([ControlSegment.idle(3, 1.3)]))
    assert np.allclose(u.matrix, np.eye(8), atol=1e-12)


def test_evolve_semigroup_split_segment():
    spec = ChainSpec(3, j1=1.0, j2=0.05)
    seg = random_segment(3)
    once = evolve(spec, ControlSchedule([ControlSegment(0.9, seg.bx, seg.bz, seg.jxy)]))
    split = evolve(
        spec,
        ControlSchedule(
            [
                ControlSegment(0.4, seg.bx, seg.bz, seg.jxy),
                ControlSegment(0.5, seg.bx, seg.bz, seg.jxy),
            ]
        ),
    )
    assert np.max(np.abs(once.matrix - split.matrix)) < 1e-10


def rk4_propagator(hams_and_durations, dim, steps_per_unit):
    """Fixed-step RK4 on U' = -i H(t) U; independent of the eigh path."""
    u = np.eye(dim, dtype=complex)
    for h, duration in hams_and_durations:
        steps = max(1, int(np.ceil(steps_per_unit * duration)))
        dt = duration / steps
        for _ in range(steps):
            k1 = -1j * (h @ u)
            k2 = -1j * (h @ (u + 0.5 * dt * k1))
            k3 = -1j * (h @ (u + 0.5 * dt * k2))
            k4 = -1j * (h @ (u + dt * k3))
            u = u + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def test_evolve_against_rk4_oracle():
    spec = ChainSpec(4, j1=1.0, j2=0.05)
    segments = [random_segment(4, duration=0.4), random_segment(4, duration=0.3)]
    schedule = ControlSchedule(segments)
    u = evolve(spec, schedule).matrix

    hams = [(realize(build_h_model(spec, s)), s.duration) for s in segments]
    coarse = rk4_propagator(hams, 16, steps_per_unit=400)
    fine = rk4_propagator(hams, 16, steps_per_unit=800)
    assert np.max(np.abs(fine - coarse)) < 1e-9  # step-halving convergence
    assert np.max(np.abs(u - fine)) < 1e-8


def test_evolve_time_ordering_first_segment_rightmost():
    spec = ChainSpec(2, j1=0.0, j2=0.0)
    seg_x = ControlSegment(0.7, [0.5, 0.0], [0.0, 0.0], [0.0])
    seg_z = ControlSegment(0.7, [0.0, 0.0], [0.5, 0.0], [0.0])
    u = evolve(spec, ControlSchedule([seg_x, seg_z])).matrix
    ux = evolve(spec, ControlSchedule([seg_x])).matrix
    uz = evolve(spec, ControlSchedule([seg_z])).matrix
    assert np.max(np.abs(u - uz @ ux)) < 1e-12
    assert np.max(np.abs(u - ux @ uz)) > 1e-3  # the order genuinely matters


def test_long_range_flag_changes_evolution_only_with_j2():
    seg = random_segment(4, duration=0.8)
    spec0 = ChainSpec(4, j1=1.0, j2=0.0)
    u_on = evolve(spec0, ControlSchedule([seg]))
    u_off = expm_unitary(realize(build_h_ideal(spec0, seg)), seg.duration)
    assert spectral_norm(u_on.matrix - u_off.matrix) < 1e-12

    spec = ChainSpec(4, j1=1.0, j2=0.05)
    v_on = evolve(spec, ControlSchedule([seg]))
    v_off = expm_unitary(realize(build_h_ideal(spec, seg)), seg.duration)
    assert spectral_norm(v_on.matrix - v_off.matrix) > 1e-4


def test_schedule_payload_roundtrip():
    import json

    segments = [random_segment(3), random_segment(3)]
    schedule = ControlSchedule(segments)
    payload = json.loads(json.dumps(schedule.to_payload()))
    restored = ControlSchedule.from_payload(payload)
    assert restored == schedule
    assert payload[0].keys() == {"duration", "bx", "bz", "jxy"}


STRENGTHS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308]) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def schedules(draw):
    n = draw(st.integers(1, 5))
    segments = [
        ControlSegment(
            draw(st.sampled_from([5e-324, 1.0]) | st.floats(min_value=5e-324, max_value=1e308)),
            draw(st.lists(STRENGTHS, min_size=n, max_size=n)),
            draw(st.lists(STRENGTHS, min_size=n, max_size=n)),
            draw(st.lists(STRENGTHS, min_size=n - 1, max_size=n - 1)),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    return ControlSchedule(segments)


def schedule_bits(schedule):
    return [np.array([seg.duration, *seg.bx, *seg.bz, *seg.jxy]).tobytes() for seg in schedule.segments]


@settings(max_examples=60, deadline=None)
@given(schedules())
def test_schedule_payload_roundtrip_property(schedule):
    restored = ControlSchedule.from_payload(json.loads(json.dumps(schedule.to_payload())))
    assert restored == schedule
    assert schedule_bits(restored) == schedule_bits(schedule)  # -0.0 and subnormals keep their bits


def test_magnetization_blocks_without_transverse_field():
    n = 4
    spec = ChainSpec(n, j1=1.0, j2=0.05)
    seg = random_segment(n, with_bx=False)
    u = evolve(spec, ControlSchedule([seg])).matrix
    mags = np.array([bin(i).count("1") for i in range(2**n)])
    for a in range(2**n):
        for b in range(2**n):
            if mags[a] != mags[b]:
                assert abs(u[a, b]) < 1e-12
