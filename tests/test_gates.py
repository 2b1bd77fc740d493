import gc
import math
import re
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockadechain.chain import ChainSpec, ControlSchedule, ControlSegment
from blockadechain import InvariantViolation, blockade, gates
from blockadechain.blockade import (
    LAYOUT_BYTES_CAP,
    SITE_BYTES,
    pair_encoded_layout,
    single_spin_layout,
    state_counts,
    verify_blockade_cancellation,
)
from blockadechain.gates import (
    compile_cphase,
    composite_pulse_parameters,
    logical_background_energy,
    logical_sigma_x,
    logical_sigma_z,
    simulate_gate,
)
from blockadechain.oracles import (
    PATTERN_CAP,
    _evolve_state,
    _ising_energy,
    build_h_model,
    evolve,
    layout_patterns,
    order_sums,
    pattern_index,
    pulse_rotation,
    realize,
    reduced_hamiltonians,
    solve_pulse_parameters,
    spin_patterns,
)

SPEC = ChainSpec(10, j1=1.0, j2=0.05, x1_max=0.5)
LAYOUT = pair_encoded_layout(2, 2)


# ---------------------------------------------------------------------------
# layouts and cancellation

def test_pair_layout_matches_canonical_ten_spin_chain():
    assert LAYOUT.n_sites == 10
    assert LAYOUT.qubit_sites == ((3, 4), (7, 8))
    assert dict(LAYOUT.blockade_sites) == {1: 0, 2: 0, 5: 0, 6: 0, 9: 0, 10: 0}


def test_single_spin_layout_alternates():
    layout = single_spin_layout(3)
    assert layout.qubit_sites == ((2,), (4,), (6,))
    assert layout.blockade_sites == ((1, 0), (3, 1), (5, 0), (7, 1))


def test_cancellation_pair_layout_with_both_orders():
    assert verify_blockade_cancellation(LAYOUT, [1.0, 0.05]) == 0.0


def test_cancellation_single_spin_layout_nearest_only():
    assert verify_blockade_cancellation(single_spin_layout(4), [1.0]) == 0.0


def test_cancellation_third_order_leaks():
    residual = verify_blockade_cancellation(LAYOUT, [1.0, 0.05, 0.01])
    # the only surviving operator is J3 Z_4 Z_7, a +-J3 energy split
    assert residual == pytest.approx(0.01, abs=1e-15)
    assert residual > 0


def test_cancellation_generalized_block_width():
    layout = pair_encoded_layout(2, 3)
    assert verify_blockade_cancellation(layout, [1.0, 0.05, 0.01]) == 0.0
    assert verify_blockade_cancellation(layout, [1.0, 0.05, 0.01, 0.002]) > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cancellation_rejects_non_finite_couplings(bad):
    # a cancelling layout would turn bad * 0 into a nan residual
    with pytest.raises(ValueError, match="finite"):
        verify_blockade_cancellation(LAYOUT, [1.0, bad])


def build_layout(n_logical, m):
    return single_spin_layout(n_logical) if m is None else pair_encoded_layout(n_logical, m)


@pytest.mark.parametrize("m", [None, 1, 2, 3, 4, 5, 6])
def test_layout_builders_charge_their_sites_at_the_boundary(monkeypatch, m):
    # a layout of exactly cap // SITE_BYTES sites is built; one byte less of cap
    # puts the same layout one site past the budget, and its builder raises
    n_sites = 2 * 5 + 1 if m is None else (5 + 1) * m + 2 * 5  # five logical qubits
    monkeypatch.setattr(blockade, "LAYOUT_BYTES_CAP", n_sites * SITE_BYTES)
    assert build_layout(5, m).n_sites == n_sites
    monkeypatch.setattr(blockade, "LAYOUT_BYTES_CAP", n_sites * SITE_BYTES - 1)
    message = f"^a layout of {n_sites} sites exceeds the budget of {n_sites * SITE_BYTES - 1} bytes$"
    with pytest.raises(ValueError, match=message):
        build_layout(5, m)


def test_layout_byte_budget_admits_large_layouts():
    # the budget bounds the sites alone; n_logical enters only through them
    assert pair_encoded_layout(400, 2).n_sites * SITE_BYTES <= LAYOUT_BYTES_CAP
    for m in (None, 1, 2, 3):
        assert build_layout(10_000, m).n_sites * SITE_BYTES <= LAYOUT_BYTES_CAP
    # a layout far past the budget raises before it builds a site
    for m in (None, 10**12):
        with pytest.raises(ValueError, match=f"budget of {LAYOUT_BYTES_CAP} bytes"):
            build_layout(10**12, m)


@pytest.mark.parametrize("n_logical, m", [(10_000, None), (10_000, 2), (2_000, 6), (10, 10_000)])
def test_site_bytes_is_close_to_the_traced_peak(n_logical, m):
    # safety: a build's traced peak stays within its charge; honesty: the charge is
    # at most twice the peak (96-113 bytes a site here against 160, CPython 3.11;
    # the wide blocks of (10, 10_000) are the most)
    tracemalloc.start()
    try:
        layout = build_layout(n_logical, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SITE_BYTES * layout.n_sites <= 2 * peak


@pytest.mark.parametrize(
    "layout, couplings",
    [(pair_encoded_layout(12, 1), [1.0] * 22), (single_spin_layout(11), [1.0] * 22),
     (single_spin_layout(12), [1.0, 0.05, 0.01] * 8)],
    ids=["512-states", "4096-states", "8192-states-wide-sums"],
)
def test_state_bytes_is_close_to_the_traced_peak(monkeypatch, layout, couplings):
    # a walk is charged its largest held-plus-new state count times the bytes of a state;
    # that charge is the smallest LAYOUT_BYTES_CAP that check_residual_budget admits
    weights, _ = blockade.check_residual_budget(layout, couplings)
    state_bytes = blockade.STATE_BYTES + 8 * len(weights)
    state_bytes += (layout.n_sites * sum(map(abs, weights))).bit_length() // 30 * 8
    counts = [1, *state_counts(layout, len(weights))]
    charge = max(map(sum, zip(counts, counts[1:]))) * state_bytes
    monkeypatch.setattr(blockade, "LAYOUT_BYTES_CAP", charge - 1)
    with pytest.raises(ValueError, match=f"budget of {charge - 1} bytes"):
        blockade.check_residual_budget(layout, couplings)
    monkeypatch.setattr(blockade, "LAYOUT_BYTES_CAP", charge)
    # safety: the walk's traced peak stays within its charge; honesty: the charge is at
    # most twice the peak (1.79x, 1.59x and 1.48x here, CPython 3.11).  A full collection
    # first empties CPython's tuple free lists, which would hand the walk untraced tuples.
    gc.collect()
    tracemalloc.start()
    try:
        verify_blockade_cancellation(layout, couplings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= charge <= 2 * peak


def budget_error_peak(monkeypatch, n_logical, n_couplings):
    """Traced peak bytes of a single-spin residual that stops at a 1 MiB budget."""
    monkeypatch.setitem(sys.modules, "numpy", None)  # no numpy pattern enumeration
    monkeypatch.setattr(blockade, "LAYOUT_BYTES_CAP", 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"budget of {2**20} bytes"):
            verify_blockade_cancellation(single_spin_layout(n_logical), [1.0] * n_couplings)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cancellation_rejects_layout_past_byte_budget(monkeypatch):
    # single-spin n_logical = 24 with 30 orders walks a window of 30 sites,
    # 2^15 states, far more than a 1 MiB budget admits: the walk stops near
    # the budget and no pattern is enumerated
    assert budget_error_peak(monkeypatch, 24, 30) < 2 * 2**20


@pytest.mark.parametrize("n_couplings", [41, 1000])
def test_cancellation_budget_charges_long_state_keys(monkeypatch, n_couplings):
    # 40 orders key each of up to 2^20 states by 40 spins; the budget charges
    # the keys, and orders past the 41-site chain pair no sites
    assert budget_error_peak(monkeypatch, 20, n_couplings) < 2 * 2**20


def test_cancellation_stops_at_the_step_budget(monkeypatch):
    # the steps grow with the chain: one that fits a budget runs, a longer one stops
    monkeypatch.setattr(blockade, "STEPS_CAP", 2**12)
    assert verify_blockade_cancellation(pair_encoded_layout(40, 2), [1.0, 0.05, 0.01]) == pytest.approx(0.39)
    with pytest.raises(ValueError, match=f"budget of {2**12} steps"):
        verify_blockade_cancellation(pair_encoded_layout(400, 2), [1.0, 0.05, 0.01])


@settings(max_examples=120, deadline=None)
@given(st.booleans(), st.integers(1, 7), st.integers(1, 4), st.integers(1, 14))
def test_state_counts_match_the_walk(single, n_logical, m, width):
    # the walk's own state count after every site, windows past the chain included
    layout = single_spin_layout(n_logical) if single else pair_encoded_layout(n_logical, m)
    walked = [len(states) for states in blockade._walk(layout, [1] * width)]
    assert state_counts(layout, width) == walked


@pytest.mark.parametrize(
    "layout, n_couplings, message",
    [(single_spin_layout(20), 41, f"budget of {blockade.LAYOUT_BYTES_CAP} bytes"),
     (pair_encoded_layout(400, 2), 3, f"budget of {2**12} steps")],
)
def test_cancellation_checks_the_budget_before_walking(monkeypatch, layout, n_couplings, message):
    def walk(layout, weights):
        raise AssertionError("walked past the budget")

    monkeypatch.setattr(blockade, "_walk", walk)
    if "steps" in message:
        monkeypatch.setattr(blockade, "STEPS_CAP", 2**12)
    with pytest.raises(ValueError, match=message):
        verify_blockade_cancellation(layout, [1.0] * n_couplings)


def enumerated_residual(layout, couplings):
    """Half the spread of the frozen energy over all 2^n_logical patterns,
    summed exactly per distinct tuple of order sums and rounded once."""
    s = layout_patterns(layout)
    tuples = set(zip(*(order_sums(s, k).tolist() for k in range(1, len(couplings) + 1))))
    energies = [sum(Fraction(j) * m for j, m in zip(couplings, sums)) for sums in tuples]
    return float((max(energies) - min(energies)) / 2)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["single-spin", "pair-encoded"]),
    st.integers(1, 12),
    st.integers(1, 4),
    st.lists(
        st.sampled_from([0.0, -0.0, -1.0, 0.1, 0.3, -0.1]) | st.floats(-2.0, 2.0), min_size=1, max_size=12
    ),
)
def test_cancellation_matches_pattern_enumeration(kind, n_logical, m, couplings):
    layout = single_spin_layout(n_logical) if kind == "single-spin" else pair_encoded_layout(n_logical, m)
    expected = enumerated_residual(layout, couplings)
    assert verify_blockade_cancellation(layout, couplings).hex() == expected.hex()


def test_single_spin_layout_next_nearest_survives():
    # width-1 blockades cancel nothing beyond the nearest order
    assert verify_blockade_cancellation(single_spin_layout(4), [1.0, 0.05]) > 0


# ---------------------------------------------------------------------------
# pulse parameters

def test_pulse_parameters_invariants():
    p = solve_pulse_parameters(SPEC)
    h1 = np.hypot(p.x1, 2 * SPEC.j2)
    assert np.cos(p.theta) == pytest.approx(p.x1 / h1, abs=1e-14)
    assert np.sin(p.theta) == pytest.approx(2 * SPEC.j2 / h1, abs=1e-14)
    h2 = np.hypot(p.x2, 2 * SPEC.j2)
    assert np.cos(2 * p.theta) == pytest.approx(p.x2 / h2, abs=1e-14)
    assert p.t_r1 == pytest.approx(np.pi / (2 * h1), abs=1e-14)
    assert p.t_r2 == pytest.approx(np.pi / (2 * h2), abs=1e-14)
    assert p.total_duration == pytest.approx(2 * p.t_r1 + p.t_r2)


def test_pulse_parameters_zero_tilt():
    p = solve_pulse_parameters(ChainSpec(10, j1=1.0, j2=0.0, x1_max=0.5))
    assert p.theta == 0.0
    assert p.x2 == p.x1 == 0.5
    assert p.t_r1 == p.t_r2 == pytest.approx(np.pi, abs=1e-14)


def test_pulse_parameters_quarter_tilt():
    # x1 == 2 J2 puts the tilt at pi/4 and turns off the middle coupling
    p = solve_pulse_parameters(ChainSpec(10, j1=1.0, j2=0.25, x1_max=0.5))
    assert p.theta == pytest.approx(np.pi / 4, abs=1e-14)
    assert p.x2 == pytest.approx(0.0, abs=1e-14)
    assert p.t_r2 == pytest.approx(np.pi / (2 * 2 * 0.25), abs=1e-13)


def test_pulse_parameters_require_positive_amplitude():
    with pytest.raises(ValueError, match="x1_max"):
        solve_pulse_parameters(ChainSpec(10, j1=1.0, j2=0.05, x1_max=0.0))


def test_composite_rotation_identity_specific():
    spec = ChainSpec(10, j1=1.0, j2=0.05, x1_max=0.5)
    p = solve_pulse_parameters(spec)
    product = pulse_rotation(p.x1, spec.j2) @ pulse_rotation(p.x2, spec.j2) @ pulse_rotation(p.x1, spec.j2)
    target = -1j * np.array([[0, 1], [1, 0]])  # exp(-i pi X / 2)
    assert np.max(np.abs(product - target)) < 1e-12


def test_composite_rotation_identity_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x1 = rng.uniform(0.05, 2.0)
        j2 = rng.uniform(0.0, 1.5 * x1)
        p = composite_pulse_parameters(x1, 2 * j2)
        product = pulse_rotation(p.x1, j2) @ pulse_rotation(p.x2, j2) @ pulse_rotation(p.x1, j2)
        target = -1j * np.array([[0, 1], [1, 0]])
        assert np.max(np.abs(product - target)) < 1e-12


@pytest.mark.parametrize("x1, delta", [(0.5, 0.1), (0.5, 0.5 * math.sqrt(3)), (0.5, 1.9), (2.0, -0.3), (1.0, 5.0)])
def test_composite_middle_amplitude_closed_form(x1, delta):
    assert composite_pulse_parameters(x1, delta).x2 == pytest.approx((x1 * x1 - delta * delta) / (2.0 * x1), rel=1e-12)


def test_default_cphase_middle_pulses_exceed_x1_max():
    # x1_max sets only the outer pulses: past delta = sqrt(3) x1 the middle one is larger,
    # as on the default chain's second transfer, delta = 2 (J1 - J2) = 1.9
    p = composite_pulse_parameters(SPEC.x1_max, 2.0 * (SPEC.j1 - SPEC.j2))
    assert p.x2 == pytest.approx(-3.36, rel=1e-12)
    assert abs(p.x2) > 6.7 * SPEC.x1_max
    strengths = [abs(j) for seg in compile_cphase(SPEC, 0.2, layout=LAYOUT).segments for j in seg.jxy]
    assert max(strengths) == pytest.approx(abs(p.x2) / 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# reduced Hamiltonians

def test_reduced_h2_off_diagonal():
    blocks = reduced_hamiltonians(SPEC, j45=0.0, j67=0.3)
    assert np.allclose(blocks.h2, [[0.0, 0.6], [0.6, 0.0]])


def test_reduced_h4_static_diagonal():
    blocks = reduced_hamiltonians(SPEC, j45=0.0, j67=0.0)
    assert np.allclose(blocks.h4, np.diag([0.0, 4 * SPEC.j2, 4 * SPEC.j2, 4 * SPEC.j1]))


def test_reduced_h4_matches_full_chain_projection():
    # project the full ten-spin Hamiltonian onto the four window states;
    # the reduced block reappears up to the common frozen-background shift
    j45, j67 = 0.21, -0.13
    blocks = reduced_hamiltonians(SPEC, j45=j45, j67=j67)

    jxy = [0.0] * 9
    jxy[3] = j45  # bond (4, 5)
    jxy[5] = j67  # bond (6, 7)
    seg = ControlSegment(1.0, [0.0] * 10, [0.0] * 10, jxy)
    h_full = realize(build_h_model(SPEC, seg))

    idx = [window_index(w) for w in ("010010", "010100", "001010", "001100")]
    projected = h_full[np.ix_(idx, idx)]
    shift = blocks.background_energy
    assert shift == pytest.approx(1.0, abs=1e-14)  # J1 * 1 for these parameters
    assert np.max(np.abs(projected - (blocks.h4 + shift * np.eye(4)))) < 1e-12


def test_background_energy_requires_degenerate_logical_states():
    assert logical_background_energy(SPEC, LAYOUT) == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_ising_energy_matches_dense_diagonal(n, j1, j2):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # |j2| >= |j1| is allowed here
        spec = ChainSpec(n, j1=j1, j2=j2)
    dense = np.real(np.diag(realize(build_h_model(spec, ControlSegment.idle(n, 1.0)))))
    assert np.max(np.abs(_ising_energy(spec, spin_patterns(n)) - dense)) < 1e-12


# ---------------------------------------------------------------------------
# CPHASE compilation and simulation

def test_compiled_schedule_controls_are_clean():
    sched = compile_cphase(SPEC, 0.2, layout=LAYOUT)
    for seg in sched.segments:
        assert not any(seg.bx) and not any(seg.bz)
    bonds_used = {
        i for seg in sched.segments for i, j in enumerate(seg.jxy, start=1) if j != 0
    }
    assert bonds_used == {4, 6}


def test_cphase_zero_tau_is_identity():
    report = simulate_gate(SPEC, LAYOUT, compile_cphase(SPEC, 0.0, layout=LAYOUT))
    assert np.max(np.abs(report.logical_matrix - np.eye(4))) < 1e-9
    assert report.leakage < 1e-10
    assert report.fidelity > 1 - 1e-9


@pytest.mark.parametrize("tau", [0.1, 0.2, 0.4])
def test_cphase_exactness_and_phase(tau):
    report = simulate_gate(SPEC, LAYOUT, compile_cphase(SPEC, tau, layout=LAYOUT))
    assert report.fidelity >= 1 - 1e-9
    assert report.leakage <= 1e-10
    target = (4 * SPEC.j1 * tau) % (2 * np.pi)
    assert report.phase_phi == pytest.approx(target, abs=1e-9)
    ideal = np.diag([1, np.exp(1j * target), 1, 1])
    assert np.max(np.abs(report.logical_matrix - ideal)) < 1e-9


def test_cphase_zero_j2_degenerate_case():
    spec = ChainSpec(10, j1=1.0, j2=0.0, x1_max=0.5)
    tau = 0.3
    report = simulate_gate(spec, LAYOUT, compile_cphase(spec, tau, layout=LAYOUT))
    assert report.fidelity >= 1 - 1e-9
    assert report.phase_phi == pytest.approx((4 * tau) % (2 * np.pi), abs=1e-9)


def test_cphase_phase_linear_in_tau():
    taus = [0.1, 0.2, 0.4]
    phis = [
        simulate_gate(SPEC, LAYOUT, compile_cphase(SPEC, t, layout=LAYOUT)).phase_phi
        for t in taus
    ]
    for tau, phi in zip(taus, phis):
        assert abs(phi / tau - 4 * SPEC.j1) / (4 * SPEC.j1) < 1e-8


def test_naive_compilation_loses_fidelity():
    exact = simulate_gate(SPEC, LAYOUT, compile_cphase(SPEC, 0.2, layout=LAYOUT))
    naive = simulate_gate(SPEC, LAYOUT, compile_cphase(SPEC, 0.2, layout=LAYOUT, naive=True))
    assert (1 - naive.fidelity) >= 100 * (1 - exact.fidelity)
    assert (1 - naive.fidelity) > 1e-3


def test_cphase_rejects_bad_inputs():
    with pytest.raises(ValueError, match="nonneg"):
        compile_cphase(SPEC, -0.1, layout=LAYOUT)
    with pytest.warns(UserWarning, match="regime"):
        degenerate = ChainSpec(10, j1=0.0, j2=0.05, x1_max=0.5)
    with pytest.raises(ValueError, match="J1"):
        compile_cphase(degenerate, 0.1, layout=LAYOUT)
    with pytest.raises(ValueError, match="layout"):
        compile_cphase(ChainSpec(6, j1=1.0, j2=0.05, x1_max=0.5), 0.1, layout=LAYOUT)


@pytest.mark.parametrize("tau", [np.nan, np.inf])
def test_cphase_rejects_non_finite_tau(tau):
    # the hold would be nan and silently dropped from the schedule
    with pytest.raises(ValueError, match="finite"):
        compile_cphase(SPEC, tau, layout=LAYOUT)


def test_gate_simulator_enumeration_cap():
    spec = ChainSpec(PATTERN_CAP + 1, j1=1.0, j2=0.05)
    sched = ControlSchedule([ControlSegment.idle(PATTERN_CAP + 1, 1.0)])
    with pytest.raises(ValueError, match="cap"):
        _evolve_state(spec, sched, np.zeros(1, dtype=complex))


def test_zero_control_segment_acts_as_logical_identity():
    sched = ControlSchedule([ControlSegment.idle(10, 0.8)])
    report = simulate_gate(SPEC, LAYOUT, sched)
    assert np.max(np.abs(report.logical_matrix - np.eye(4))) < 1e-12
    assert report.leakage < 1e-12
    assert report.fidelity == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# protocol internals: transfer step and its reversal

def window_index(window_bits):
    """Basis index of the canonical chain with window spins 3..8 set (site 1 most significant)."""
    return int("00" + window_bits + "00", 2)


def window_state(window_bits):
    psi = np.zeros(2**10, dtype=complex)
    psi[window_index(window_bits)] = 1.0
    return psi


def step_one_schedule(spec, flip=False):
    p = solve_pulse_parameters(spec)
    sgn = -1.0 if flip else 1.0
    segs = [
        ControlSegment.bond_pulse(10, 4, sgn * p.x1 / 2, p.t_r1),
        ControlSegment.bond_pulse(10, 4, sgn * p.x2 / 2, p.t_r2),
        ControlSegment.bond_pulse(10, 4, sgn * p.x1 / 2, p.t_r1),
    ]
    return ControlSchedule(segs), p


def test_step_one_intermediate_states():
    sched, _ = step_one_schedule(SPEC)
    for w in ("100001", "100010"):
        psi = _evolve_state(SPEC, sched, window_state(w))
        overlap = np.vdot(window_state(w), psi)
        assert abs(abs(overlap) - 1) < 1e-10  # invariant up to a global phase
    psi = _evolve_state(SPEC, sched, window_state("010010"))
    population = abs(np.vdot(window_state("001010"), psi)) ** 2
    assert population >= 1 - 1e-10


def test_step_one_reversal_up_to_block_phase():
    # negated strengths invert the rotations exactly; the populated
    # transfer block additionally returns a phase e^{-4 i J2 T1} from the
    # static displaced-state energy, which the compiler's hold absorbs
    forward, p = step_one_schedule(SPEC)
    backward, _ = step_one_schedule(SPEC, flip=True)
    both = forward + backward
    e0 = logical_background_energy(SPEC, LAYOUT)
    t1 = p.total_duration
    base = np.exp(-2j * e0 * t1)  # frozen-background phase, common to the sector
    for w in ("100001", "100010", "010001", "001001"):
        psi = _evolve_state(SPEC, both, window_state(w))
        assert abs(np.vdot(window_state(w), psi) - base) < 1e-10
    expected = base * np.exp(-4j * SPEC.j2 * t1)
    for w in ("010010", "001010"):
        psi = _evolve_state(SPEC, both, window_state(w))
        amp = np.vdot(window_state(w), psi)
        assert abs(amp - expected) < 1e-10


def test_compiled_schedule_conserves_magnetization():
    sched = compile_cphase(SPEC, 0.2, layout=LAYOUT)
    psi = _evolve_state(SPEC, sched, window_state("010010"))
    mags = np.array([bin(i).count("1") for i in range(2**10)])
    off_sector = np.abs(psi[mags != 2])
    assert np.max(off_sector) < 1e-12


# ---------------------------------------------------------------------------
# structured propagation against the dense oracle

@st.composite
def single_bond_runs(draw):
    n = draw(st.integers(3, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # |j2| >= |j1| is allowed here
        spec = ChainSpec(n, j1=draw(st.floats(-2.0, 2.0)), j2=draw(st.floats(-2.0, 2.0)))
    duration = st.floats(0.01, 3.0)
    idle = st.builds(ControlSegment.idle, st.just(n), duration)
    pulse = st.builds(
        ControlSegment.bond_pulse, st.just(n), st.integers(1, n - 1), st.floats(-1.5, 1.5), duration
    )
    sched = ControlSchedule(draw(st.lists(idle | pulse, min_size=1, max_size=6)))
    seed = draw(st.integers(0, 2**32 - 1))
    return spec, sched, seed


def random_states(dim, k, seed):
    g = np.random.default_rng(seed)
    psi = g.normal(size=(dim, k)) + 1j * g.normal(size=(dim, k))
    return psi / np.linalg.norm(psi, axis=0)


@settings(max_examples=60, deadline=None)
@given(single_bond_runs())
def test_structured_propagation_matches_dense_evolve(run):
    spec, sched, seed = run
    psi = random_states(2**spec.n_spins, 3, seed)
    u = evolve(spec, sched).matrix
    assert np.max(np.abs(_evolve_state(spec, sched, psi) - u @ psi)) < 1e-12
    single = _evolve_state(spec, sched, psi[:, 0])
    assert single.shape == (2**spec.n_spins,)
    assert np.max(np.abs(single - u @ psi[:, 0])) < 1e-12


@st.composite
def logical_register_runs(draw):
    layout = pair_encoded_layout(2, draw(st.integers(1, 3)))
    n = layout.n_sites
    j2 = draw(st.just(0.0) | st.floats(-2.0, 2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # |j2| >= |j1| is allowed here
        spec = ChainSpec(n, j1=draw(st.floats(-2.0, 2.0)), j2=j2)
    duration = st.floats(0.01, 3.0)
    idle = st.builds(ControlSegment.idle, st.just(n), duration)
    pulse = st.builds(
        ControlSegment.bond_pulse, st.just(n), st.integers(1, n - 1), st.floats(-1.5, 1.5), duration
    )
    return spec, layout, ControlSchedule(draw(st.lists(idle | pulse, min_size=1, max_size=8)))


@settings(max_examples=80, deadline=None)
@given(logical_register_runs())
def test_reachable_propagation_matches_dense_vector(run):
    # the four logical columns on the reachable codes against all 2^N rows
    spec, layout, sched = run
    idx = pattern_index(layout_patterns(layout))
    basis = np.zeros((2**layout.n_sites, idx.size), dtype=complex)
    basis[idx, np.arange(idx.size)] = 1.0
    psi = gates._propagate(spec, sched, idx.tolist())
    reached = np.zeros_like(basis)
    for code, amplitudes in psi.items():
        reached[code] = amplitudes
    assert np.max(np.abs(reached - _evolve_state(spec, sched, basis))) < 1e-12


def logical_codes(layout):
    return [gates._logical_code(layout, v) for v in range(4)]


def test_cphase_reaches_nine_codes():
    sched = compile_cphase(SPEC, 0.2, layout=LAYOUT)
    assert len(gates._reachable_codes(sched, logical_codes(LAYOUT))) == 9


def test_sigma_z_composite_reaches_nine_codes():
    sched = logical_sigma_z(SPEC, LAYOUT, 1, 0.7)
    assert len(sched.segments) == 28
    assert len(gates._reachable_codes(sched, logical_codes(LAYOUT))) == 9


def test_reachable_codes_budget_stops_before_propagating(monkeypatch):
    def energy(spec, code, n):
        raise AssertionError("propagated past the budget")

    sched = compile_cphase(SPEC, 0.2, layout=LAYOUT)
    monkeypatch.setattr(gates, "LAYOUT_BYTES_CAP", 9 * gates.CODE_BYTES)
    assert len(gates._reachable_codes(sched, logical_codes(LAYOUT))) == 9
    monkeypatch.setattr(gates, "LAYOUT_BYTES_CAP", 8 * gates.CODE_BYTES)
    monkeypatch.setattr(gates, "_energy", energy)
    with pytest.raises(ValueError, match=f"budget of {8 * gates.CODE_BYTES} bytes"):
        simulate_gate(SPEC, LAYOUT, sched)


def test_reachable_codes_step_budget_stops_before_propagating(monkeypatch):
    def energy(spec, code, n):
        raise AssertionError("propagated past the budget")

    # the CPHASE takes 13 segments x 9 codes x 4 columns = 468 steps
    sched = compile_cphase(SPEC, 0.2, layout=LAYOUT)
    monkeypatch.setattr(gates, "STEPS_CAP", 468)
    assert len(gates._reachable_codes(sched, logical_codes(LAYOUT))) == 9
    monkeypatch.setattr(gates, "STEPS_CAP", 467)
    with pytest.raises(ValueError, match="budget of 467 steps"):
        gates._reachable_codes(sched, logical_codes(LAYOUT))
    # 12 sweeps over the 39 bonds of a 40-spin chain from four 3-excitation codes:
    # thousands of codes within the byte budget, but millions of steps
    n = 40
    bonds = [[0.0] * k + [0.3] + [0.0] * (n - 2 - k) for k in range(n - 1)]
    sweep = ControlSchedule([ControlSegment(0.5, [0.0] * n, [0.0] * n, jxy) for jxy in bonds * 12])
    starts = [(1 << 39 - q) | (1 << 19 - q) | (1 << q) for q in range(4)]
    monkeypatch.setattr(gates, "STEPS_CAP", 2**20)
    monkeypatch.setattr(gates, "_energy", energy)
    with pytest.raises(ValueError, match=f"budget of {2**20} steps"):
        gates._propagate(ChainSpec(n, j1=1.0, j2=0.05), sweep, starts)


@pytest.mark.parametrize("n", [10, 20])
def test_code_bytes_is_close_to_the_traced_peak(n):
    # safety: a propagation's traced peak stays within its codes' charge; honesty: the
    # charge is at most twice the peak (two sweeps over every bond from four 3-excitation
    # codes reach 120 and 553 codes, 1.84x and 1.75x their peak, CPython 3.11)
    sweep = ControlSchedule([ControlSegment.bond_pulse(n, b, 0.3, 0.5) for b in range(1, n)] * 2)
    starts = [(1 << n - 1 - q) | (1 << n // 2 - 1 - q) | (1 << q) for q in range(4)]
    spec = ChainSpec(n, j1=1.0, j2=0.05)
    tracemalloc.start()
    try:
        codes = len(gates._propagate(spec, sweep, starts))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= codes * (gates.CODE_BYTES + n // 30 * 4) <= 2 * peak


@pytest.mark.parametrize(
    "seg",
    [
        ControlSegment(0.5, [0.0] * 10, [0.0] * 9 + [0.1], [0.0] * 9),
        ControlSegment(0.5, [0.0] * 10, [0.1] + [0.0] * 9, [0.0, 0.0, 0.0, 0.2] + [0.0] * 5),
        ControlSegment(0.5, [0.2] + [0.0] * 9, [0.1] + [0.0] * 9, [0.0] * 9),
        ControlSegment(0.7, [0.3, 0.0, -0.2] + [0.0] * 7, [0.0] * 10, [0.0, 0.25] + [0.0] * 7),
        ControlSegment(0.4, [0.0] * 10, [0.0] * 10, [0.2, 0.0, -0.35] + [0.0] * 6),
    ],
    ids=["idle", "single-bond", "x-field", "x-field-no-z", "two-bonds"],
)
def test_z_fields_rejected_on_every_path(seg):
    with pytest.raises(ValueError, match="bz == 0"):
        simulate_gate(SPEC, LAYOUT, ControlSchedule([seg]))


# ---------------------------------------------------------------------------
# single-qubit logical rotations

def logical_x_matrix(spec, layout, qubit, angle):
    sched = logical_sigma_x(spec, layout, qubit, angle)
    idx = pattern_index(layout_patterns(layout))
    basis = np.zeros((2**layout.n_sites, idx.size), dtype=complex)
    basis[idx, np.arange(idx.size)] = 1.0
    return _evolve_state(spec, sched, basis)[idx]


def test_sigma_x_zero_angle_is_identity():
    m = logical_x_matrix(SPEC, LAYOUT, 1, 0.0)
    m = m / (m[0, 0] / abs(m[0, 0]))
    assert np.max(np.abs(m - np.eye(4))) < 1e-12


def test_sigma_x_full_turn_is_minus_identity():
    m = logical_x_matrix(SPEC, LAYOUT, 1, 2 * np.pi)
    e0 = logical_background_energy(SPEC, LAYOUT)
    duration = 2 * np.pi / (4 * (SPEC.x1_max / 2))
    m = m * np.exp(1j * e0 * duration)  # strip the frozen-background phase
    assert np.max(np.abs(m + np.eye(4))) < 1e-10


def test_sigma_x_quarter_turn_matches_analytic_rotation():
    angle = np.pi / 2
    m = logical_x_matrix(SPEC, LAYOUT, 1, angle)
    m = m / (m[0, 0] / abs(m[0, 0]))
    rot = np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * np.array([[0, 1], [1, 0]])
    expected = np.kron(rot, np.eye(2))
    expected = expected / (expected[0, 0] / abs(expected[0, 0]))
    assert np.max(np.abs(m - expected)) < 1e-10


def test_sigma_x_rejects_bad_qubit():
    with pytest.raises(ValueError, match="out of range"):
        logical_sigma_x(SPEC, LAYOUT, 3, 0.3)


# ---------------------------------------------------------------------------
# z-from-CPHASE composite

@pytest.mark.parametrize("phi", [0.0, 0.7, np.pi])
def test_sigma_z_composite_matches_analytic(phi):
    sched = logical_sigma_z(SPEC, LAYOUT, 1, phi)
    report = simulate_gate(SPEC, LAYOUT, sched)
    target = np.diag([np.exp(2j * phi), np.exp(2j * phi), 1.0, 1.0])
    target = target / (target[0, 0] / abs(target[0, 0]))
    assert np.max(np.abs(report.logical_matrix - target)) < 1e-8
    assert report.leakage < 1e-10


@pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
def test_sigma_z_rejects_non_finite_phi(phi):
    with pytest.raises(ValueError, match="finite"):
        logical_sigma_z(SPEC, LAYOUT, 1, phi)


def test_sigma_z_rejects_zero_j1():
    with pytest.warns(UserWarning, match="regime"):
        spec = ChainSpec(10, j1=0.0, j2=0.05, x1_max=0.5)
    with pytest.raises(ValueError, match="J1"):
        logical_sigma_z(spec, LAYOUT, 1, 0.3)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: blockade.LogicalLayout(2, 1, ((2,),), ((1, 0), (3, 1))), ValueError,
         "qubit_sites length must equal n_logical"),
        (lambda: blockade.LogicalLayout(1, 1, ((2,),), ((1, 0), (3, 2))), ValueError, "frozen states must be 0 or 1"),
        (lambda: single_spin_layout(0), ValueError, "need at least one logical qubit"),
        (lambda: pair_encoded_layout(0, 2), ValueError, "need n_logical >= 1 and m >= 1"),
        (lambda: pair_encoded_layout(2, 0), ValueError, "need n_logical >= 1 and m >= 1"),
        (lambda: blockade.check_residual_budget(single_spin_layout(2), []), ValueError,
         "need at least one coupling order"),
    ],
)
def test_blockade_guards(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: composite_pulse_parameters(0.0, 0.1), ValueError, "pulse amplitude x1 must be positive"),
        (lambda: logical_background_energy(ChainSpec(5, j1=1.0, j2=0.05), single_spin_layout(2)), InvariantViolation,
         "logical basis states are not degenerate for this layout"),
        (lambda: compile_cphase(ChainSpec(13, j1=1.0, j2=0.05, x1_max=0.5), 0.2, layout=pair_encoded_layout(2, 3)),
         ValueError, "CPHASE compilation supports the two-qubit pair layout with m = 2"),
        (lambda: simulate_gate(ChainSpec(6, j1=1.0, j2=0.05), pair_encoded_layout(1, 2),
                               ControlSchedule([ControlSegment.idle(6, 1.0)])),
         ValueError, "gate simulation reports the two-logical-qubit register"),
        (lambda: simulate_gate(SPEC, LAYOUT, ControlSchedule([ControlSegment.idle(9, 1.0)])), ValueError,
         "chain, layout, and schedule sizes must agree"),
        (lambda: simulate_gate(SPEC, LAYOUT, logical_sigma_x(SPEC, LAYOUT, 1, math.pi)), InvariantViolation,
         "|00> amplitude vanished; cannot fix the global phase"),
        (lambda: logical_sigma_x(SPEC, single_spin_layout(2), 1, 0.3), ValueError, "x-rotations need the pair encoding"),
        (lambda: logical_sigma_x(SPEC, LAYOUT, 1, math.inf), ValueError, "angle must be finite"),
        (lambda: logical_sigma_x(ChainSpec(10, j1=1.0, j2=0.05), LAYOUT, 1, 0.3), ValueError,
         "chain has no tunable XY range (x1_max == 0)"),
        (lambda: logical_sigma_z(SPEC, pair_encoded_layout(1, 2), 1, 0.3), ValueError,
         "the z-rotation composite needs two logical qubits"),
        (lambda: logical_sigma_z(SPEC, LAYOUT, 3, 0.3), ValueError, "qubit index out of range"),
    ],
)
def test_gates_guards(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "j1, reason",
    [pytest.param(j1, reason, id=str(j1)) for j1, reason in [
        *[(j1, "4 J1 overflows") for j1 in (1e308, -1e308)],
        *[(j1, "the phase period 2 pi / (4|J1|) overflows") for j1 in (5e-309, 1e-310, 1e-320)],
    ]],
)
def test_cphase_rejects_j1_whose_4_j1_overflows(j1, reason):
    # the phase period 2 pi / (4|J1|) would be 0 or inf, and the hold is taken modulo it
    spec = ChainSpec(10, j1=j1, j2=0.0, x1_max=0.5)
    message = re.escape(f"J1 = {j1!r} is out of range: {reason}")
    with pytest.raises(ValueError, match=message):
        compile_cphase(spec, 0.2, layout=LAYOUT)
    with pytest.raises(ValueError, match=message):
        logical_sigma_z(spec, LAYOUT, 1, 0.3)


def test_sigma_z_second_qubit():
    phi = 0.4
    sched = logical_sigma_z(SPEC, LAYOUT, 2, phi)
    report = simulate_gate(SPEC, LAYOUT, sched)
    target = np.diag([np.exp(2j * phi), 1.0, np.exp(2j * phi), 1.0])
    target = target / (target[0, 0] / abs(target[0, 0]))
    assert np.max(np.abs(report.logical_matrix - target)) < 1e-8
