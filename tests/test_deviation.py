import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockadechain.deviation import (
    MIN_QUBITS,
    Scenario,
    ScenarioResult,
    _reachable_sums,
    deviation_speed,
    lower_bound,
    phase_set_distance,
    scenario_deviation,
    scenario_deviations,
)
from blockadechain import InvariantViolation, deviation
from blockadechain.oracles import (
    FROZEN,
    _scenario_rows,
    default_target,
    deviation_batch,
    expm_unitary,
    full_chain_deviation,
    order_sums,
    spectral_norm,
)


def idle_phases_by_loop(n, j2, t):
    """Independent enumeration: alternating blockades, qubits on even sites."""
    phases = []
    for bits in itertools.product([0, 1], repeat=n):
        s = {}
        for k in range(1, n + 2):
            s[2 * k - 1] = -1 if k % 2 == 1 else 1
        for i, b in enumerate(bits, start=1):
            s[2 * i] = 2 * b - 1
        m = sum(s[i] * s[i + 2] for i in range(1, 2 * n))
        phases.append(-j2 * t * m)
    return phases


# ---------------------------------------------------------------------------
# idle

def test_idle_zero_coupling_and_zero_time():
    for res in (
        scenario_deviation(Scenario.IDLE, 4, 0.0, 1.0),
        scenario_deviation(Scenario.IDLE, 4, 0.02, 0.0),
    ):
        assert res.exact_raw == pytest.approx(0.0, abs=1e-14)
        assert res.exact_phase_opt == pytest.approx(0.0, abs=1e-14)
        assert res.lower_bound == pytest.approx(0.0, abs=1e-14)


def test_idle_against_enumeration_and_grid_oracle():
    n, j2, t = 4, 0.01, 1.0
    res = scenario_deviation(Scenario.IDLE, n, j2, t)
    assert res.lower_bound == pytest.approx(2 * abs(np.sin(0.015)), abs=1e-12)

    phases = idle_phases_by_loop(n, j2, t)
    raw = max(abs(1 - np.exp(1j * p)) for p in phases)
    assert res.exact_raw == pytest.approx(raw, abs=1e-12)

    phase_arr = np.array(phases)

    def objective(grid):
        return np.max(np.abs(1 - np.exp(1j * (grid[:, None] + phase_arr[None, :]))), axis=1)

    grid = np.linspace(0, 2 * np.pi, 100000, endpoint=False)
    vals = objective(grid)
    k = int(np.argmin(vals))
    step = grid[1] - grid[0]
    for _ in range(3):  # zoom the exhaustive search around its bracket
        grid = np.linspace(grid[k] - step, grid[k] + step, 2001)
        vals = objective(grid)
        k = int(np.argmin(vals))
        step = grid[1] - grid[0]
    assert res.exact_phase_opt == pytest.approx(float(vals[k]), abs=1e-7)


def test_idle_phase_opt_equals_bound_on_safe_grid():
    for n in range(2, 7):
        for j2 in (0.005, 0.05):
            for t in np.linspace(0, np.pi / (2 * j2 * n), 7):
                res = scenario_deviation(Scenario.IDLE, n, j2, float(t))
                assert res.exact_phase_opt == pytest.approx(res.lower_bound, abs=1e-12)


def test_idle_raw_monotone_onset():
    n, j2 = 5, 0.01
    ts = np.linspace(0.0, np.pi / (2 * j2 * (2 * n - 1)), 15)  # all phases inside (-pi, pi)
    values = [scenario_deviation(Scenario.IDLE, n, j2, float(t)).exact_raw for t in ts]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# z-rotation

def test_sigma_z_trivial_cases():
    assert scenario_deviation(Scenario.SIGMA_Z, 5, 0.0, 0.7).exact_phase_opt == pytest.approx(0.0, abs=1e-14)
    assert scenario_deviation(Scenario.SIGMA_Z, 5, 0.02, 0.0).exact_raw == pytest.approx(0.0, abs=1e-14)


def test_sigma_z_against_reduced_matrix_oracle():
    n, j2, t = 5, 0.02, 0.5
    res = scenario_deviation(Scenario.SIGMA_Z, n, j2, t)
    assert res.exact_phase_opt >= 2 * abs(np.sin(j2 * t * (n - 1) / 2)) - 1e-12

    # brute force in the frozen subspace: dense diagonal matrices
    i0 = default_target(Scenario.SIGMA_Z, n)
    phases = []
    free = [i for i in range(1, n + 1) if i != i0]
    for bits in itertools.product([0, 1], repeat=len(free)):
        s = {2 * k - 1: (-1 if k % 2 == 1 else 1) for k in range(1, n + 2)}
        s[2 * i0] = -1
        for q, b in zip(free, bits):
            s[2 * q] = 2 * b - 1
        m = sum(s[i] * s[i + 2] for i in range(1, 2 * n))
        phases.append(-j2 * t * m)
    v = np.diag(np.exp(1j * np.array(phases)))
    raw = spectral_norm(np.eye(len(phases)) - v)
    assert res.exact_raw == pytest.approx(raw, abs=1e-12)
    _, opt = phase_set_distance(phases)
    assert res.exact_phase_opt == pytest.approx(opt, abs=1e-12)


# ---------------------------------------------------------------------------
# x-rotation

def test_sigma_x_trivial_and_bounds():
    assert scenario_deviation(Scenario.SIGMA_X, 4, 0.0, 1.0).exact_phase_opt == pytest.approx(0.0, abs=1e-14)
    res = scenario_deviation(Scenario.SIGMA_X, 4, 0.03, 0.8)
    assert res.lower_bound == pytest.approx(2 * abs(np.sin(0.03 * 0.8 / 2)), abs=1e-12)


def test_sigma_x_against_qubit_space_propagator():
    # exponentiate the full 2^n qubit-space generator (drive + long-range
    # diagonal, no commutation assumed) and restrict to the frozen slice
    n, j2, t, bx = 6, 0.02, 1.0, 0.2
    i0 = default_target(Scenario.SIGMA_X, n)
    res = scenario_deviation(Scenario.SIGMA_X, n, j2, t)

    dim = 2**n
    diag = np.zeros(dim)
    for code in range(dim):
        s = {2 * k - 1: (-1 if k % 2 == 1 else 1) for k in range(1, n + 2)}
        for q in range(1, n + 1):
            s[2 * q] = 2 * ((code >> (n - q)) & 1) - 1
        diag[code] = j2 * sum(s[i] * s[i + 2] for i in range(1, 2 * n))
    h_real = np.diag(diag).astype(complex)
    x_op = np.zeros((dim, dim))
    for code in range(dim):
        x_op[code ^ (1 << (n - i0)), code] = 1.0
    h_ideal = bx * x_op
    u = expm_unitary(h_ideal, t).matrix
    v = expm_unitary(h_ideal + h_real, t).matrix

    cols = []
    for bits in itertools.product([0, 1], repeat=n - 3):
        fixed = {i0 - 1: 0, i0 + 1: 1}
        free = [q for q in range(1, n + 1) if q not in (i0 - 1, i0, i0 + 1)]
        col = np.zeros(dim, dtype=complex)
        for tb in (0, 1):
            code = 0
            values = dict(zip(free, bits))
            values.update(fixed)
            values[i0] = tb
            for q in range(1, n + 1):
                code = (code << 1) | values[q]
            col[code] = 1 / np.sqrt(2)
        cols.append(col)
    e = np.array(cols).T
    u_sub, v_sub = e.conj().T @ u @ e, e.conj().T @ v @ e
    raw = spectral_norm(u_sub - v_sub)
    _, opt = phase_set_distance(np.angle(np.diag(v_sub)) - np.angle(np.diag(u_sub)))
    assert res.exact_raw == pytest.approx(raw, abs=1e-10)
    assert res.exact_phase_opt == pytest.approx(opt, abs=1e-10)
    assert res.exact_phase_opt >= res.lower_bound - 1e-9


# ---------------------------------------------------------------------------
# inter-qubit

def test_interqubit_trivial_and_bound_value():
    res = scenario_deviation(Scenario.INTER_QUBIT, 5, 0.0, 2.0)
    assert res.exact_phase_opt == pytest.approx(0.0, abs=1e-14)
    assert scenario_deviation(Scenario.INTER_QUBIT, 5, 0.01, 0.0).exact_raw == pytest.approx(0.0, abs=1e-14)
    res = scenario_deviation(Scenario.INTER_QUBIT, 5, 0.01, 2.0)
    assert res.lower_bound == pytest.approx(2 * abs(np.sin(0.03)), abs=1e-12)


def test_interqubit_against_enumeration_oracle():
    n, j2, t = 5, 0.01, 2.0
    i0 = default_target(Scenario.INTER_QUBIT, n)
    res = scenario_deviation(Scenario.INTER_QUBIT, n, j2, t)
    phases = []
    free = [q for q in range(1, n + 1) if q not in (i0, i0 + 1)]
    for bits in itertools.product([0, 1], repeat=len(free)):
        s = {2 * k - 1: (-1 if k % 2 == 1 else 1) for k in range(1, n + 2)}
        s[2 * i0] = s[2 * (i0 + 1)] = -1
        for q, b in zip(free, bits):
            s[2 * q] = 2 * b - 1
        phases.append(-j2 * t * sum(s[i] * s[i + 2] for i in range(1, 2 * n)))
    _, opt = phase_set_distance(phases)
    assert res.exact_phase_opt == pytest.approx(opt, abs=1e-12)


# ---------------------------------------------------------------------------
# guards

@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: phase_set_distance([]), ValueError, "empty phase set"),
        (lambda: ScenarioResult(Scenario.IDLE, 2, 0.01, 0.1, exact_raw=0.1, exact_phase_opt=0.2, lower_bound=0.0),
         InvariantViolation, "phase-optimized deviation exceeds raw deviation"),
        (lambda: scenario_deviations(Scenario.IDLE, 2, [0.01], [-1.0]), ValueError, "time must be nonnegative"),
    ],
)
def test_deviation_guards(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# deviation speed

def test_speed_zero_coupling():
    assert deviation_speed(Scenario.IDLE, 4, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_speed_linear_in_j2():
    for n in (3, 6):
        s1 = deviation_speed(Scenario.IDLE, n, 0.01)
        s2 = deviation_speed(Scenario.IDLE, n, 0.02)
        assert s2 / s1 == pytest.approx(2.0, rel=1e-6)


def test_speed_measured_law_is_j2_times_n_minus_one():
    j2 = 0.01
    for n in range(3, 9):
        assert deviation_speed(Scenario.IDLE, n, j2) == pytest.approx(j2 * (n - 1), rel=1e-7)


@pytest.mark.parametrize("scenario", list(Scenario))
def test_speed_stays_in_the_bound_window_at_large_coupling(scenario):
    # the stencil shrinks by (k+1)|J2| when that exceeds 1; at the fixed
    # t = 2e-4 a J2 of 1e5 wrapped the phases and gave a slope of 5901
    for j2 in (1e5, -3e3, 0.05):
        for n in (MIN_QUBITS[scenario], MIN_QUBITS[scenario] + 3):
            k = n + 1 - MIN_QUBITS[scenario]
            assert deviation_speed(scenario, n, j2) == pytest.approx(k * abs(j2), rel=1e-7)


@pytest.mark.parametrize("scenario", list(Scenario))
def test_speed_refuses_a_stencil_whose_scale_overflows(scenario):
    # (k+1)|J2| = inf collapses both stencil times to 0, where the difference
    # quotient would divide by zero
    n = MIN_QUBITS[scenario] + 3
    for j2 in (1e308, -1e308):
        with pytest.raises(ValueError) as info:
            deviation_speed(scenario, n, j2)
        assert str(info.value) == f"j2 = {j2!r} is out of range: the slope stencil's scale (k + 1)|J2| overflows at n = {n}"
    assert math.isfinite(deviation_speed(scenario, n, 1e300))


@pytest.mark.parametrize("messages, raised", [(["at t1", "at t2"], "at t1"), ([None, "at t2"], "at t2")])
def test_speed_raises_the_t1_violation_first(monkeypatch, messages, raised):
    monkeypatch.setattr(deviation, "_violations", lambda *args: messages)
    with pytest.raises(InvariantViolation, match=f"^{raised}$"):
        deviation_speed(Scenario.IDLE, 4, 0.01)


# ---------------------------------------------------------------------------
# bound dominance and consistency

@pytest.mark.parametrize("scenario", list(Scenario))
def test_bound_dominance_across_grid(scenario):
    n_min = {Scenario.IDLE: 2, Scenario.SIGMA_Z: 2, Scenario.SIGMA_X: 4, Scenario.INTER_QUBIT: 3}
    for n in range(n_min[scenario], 9):
        for j2 in (0.005, 0.01, 0.05):
            for t in np.linspace(0, np.pi / (2 * j2 * n), 20):
                res = scenario_deviation(scenario, n, j2, float(t))
                assert res.exact_phase_opt >= res.lower_bound - 1e-9
                assert res.exact_phase_opt <= res.exact_raw + 1e-12


@st.composite
def bound_window_cases(draw):
    """A scenario, n up to 60, |J2| in [1e-4, 0.5] and t with (k+1)|J2|t <= pi."""
    scenario = draw(st.sampled_from(list(Scenario)))
    n = draw(st.integers(MIN_QUBITS[scenario], 60))
    j2 = draw(st.floats(1e-4, 0.5)) * draw(st.sampled_from([1.0, -1.0]))
    k = n + 1 - MIN_QUBITS[scenario]
    t = draw(st.floats(0.0, 1.0)) * np.pi / ((k + 1) * abs(j2))
    return scenario, n, j2, t


@settings(max_examples=60, deadline=None)
@given(bound_window_cases())
def test_bound_dominance_property(case):
    res = scenario_deviation(*case)
    assert res.exact_raw >= res.exact_phase_opt >= res.lower_bound - 1e-9


@pytest.mark.parametrize("scenario", list(Scenario))
def test_reduced_equals_full_chain_restriction(scenario):
    n_values = {
        Scenario.IDLE: (2, 3, 4),
        Scenario.SIGMA_Z: (2, 3, 4),
        Scenario.SIGMA_X: (4,),
        Scenario.INTER_QUBIT: (3, 4),
    }[scenario]
    for n in n_values:
        for j2, t in ((0.01, 0.9), (0.05, 0.4)):
            res = scenario_deviation(scenario, n, j2, t)
            raw, opt = full_chain_deviation(scenario, n, j2, t)
            assert res.exact_raw == pytest.approx(raw, abs=1e-9)
            assert res.exact_phase_opt == pytest.approx(opt, abs=1e-9)


@pytest.mark.parametrize(
    "scenario, n_min",
    [(Scenario.IDLE, 2), (Scenario.SIGMA_Z, 2), (Scenario.SIGMA_X, 4), (Scenario.INTER_QUBIT, 3)],
)
def test_scenario_minimum_qubits(scenario, n_min):
    # the smallest n with a nonzero bound: one surviving qubit-qubit term
    assert MIN_QUBITS[scenario] == n_min
    with pytest.raises(ValueError, match=f"n >= {n_min}"):
        scenario_deviation(scenario, n_min - 1, 0.01, 1.0)
    res = scenario_deviation(scenario, n_min, 0.01, 1.0)
    assert res.lower_bound == pytest.approx(2 * abs(np.sin(0.01 / 2)), abs=1e-15)


def next_nearest_sums_by_loop(scenario, n):
    """Sorted distinct sum_i s_i s_{i+2} over the frozen subspace, by brute force."""
    frozen = {}
    if scenario is not Scenario.IDLE:
        i0 = default_target(scenario, n)
        frozen = {
            Scenario.SIGMA_Z: {i0: 0},
            Scenario.SIGMA_X: {i0 - 1: 0, i0 + 1: 1},  # the target itself stays free
            Scenario.INTER_QUBIT: {i0: 0, i0 + 1: 0},
        }[scenario]
    free = [q for q in range(1, n + 1) if q not in frozen]
    sums = set()
    for bits in itertools.product([0, 1], repeat=len(free)):
        s = {2 * k - 1: (-1 if k % 2 == 1 else 1) for k in range(1, n + 2)}
        s.update({2 * q: 2 * b - 1 for q, b in frozen.items()})
        s.update({2 * q: 2 * b - 1 for q, b in zip(free, bits)})
        sums.add(sum(s[i] * s[i + 2] for i in range(1, 2 * n)))
    return sorted(sums)


@pytest.mark.parametrize("scenario", list(Scenario))
def test_reachable_sums_are_k_plus_one_steps_of_two(scenario):
    # the bound is exact because the sums are m_max - 2j, j = 0..k; inside
    # (k+1)|J2|t <= pi the phase-optimized deviation then equals it
    for n in range(MIN_QUBITS[scenario], 13):
        k = n + 1 - MIN_QUBITS[scenario]
        sums = next_nearest_sums_by_loop(scenario, n)
        assert sums == [sums[-1] - 2 * j for j in range(k, -1, -1)]
        for j2 in (0.01, -0.05):
            for t in np.linspace(0.0, np.pi / ((k + 1) * abs(j2)), 9):
                res = scenario_deviation(scenario, n, j2, float(t))
                assert res.exact_phase_opt == pytest.approx(res.lower_bound, abs=1e-15)


@pytest.mark.parametrize("scenario", list(Scenario))
def test_bound_dominance_checked_inside_its_window(scenario):
    n, j2 = MIN_QUBITS[scenario] + 2, 0.05
    window = np.pi / ((n + 2 - MIN_QUBITS[scenario]) * j2)  # (k+1)|J2|t = pi
    # past the window the phases wrap around and undercut the bound
    res = scenario_deviation(scenario, n, j2, 1.5 * window)
    assert res.exact_phase_opt < res.lower_bound - 1e-9
    with pytest.raises(InvariantViolation, match="undercuts the lower bound"):
        ScenarioResult(scenario, n, j2, window, exact_raw=1.0, exact_phase_opt=0.5, lower_bound=0.6)


@pytest.mark.parametrize("j2, t", [(1e308, 1e10), (0.01, np.inf), (np.nan, 1.0), (0.0, np.inf)])
def test_non_finite_phases_are_rejected(j2, t):
    with pytest.raises(ValueError, match="phases J2 t m must be finite"):
        scenario_deviation(Scenario.IDLE, 4, j2, t)


def test_lower_bound_formula_factors():
    j2, t = 0.02, 0.7
    assert lower_bound(Scenario.IDLE, 5, j2, t) == pytest.approx(2 * abs(np.sin(j2 * t * 4 / 2)))
    assert lower_bound(Scenario.SIGMA_Z, 5, j2, t) == pytest.approx(2 * abs(np.sin(j2 * t * 4 / 2)))
    assert lower_bound(Scenario.SIGMA_X, 5, j2, t) == pytest.approx(2 * abs(np.sin(j2 * t * 2 / 2)))
    assert lower_bound(Scenario.INTER_QUBIT, 5, j2, t) == pytest.approx(2 * abs(np.sin(j2 * t * 3 / 2)))


def test_enumeration_cap():
    # only the enumeration behind the oracle is capped; scenario_deviation
    # runs past it (test_reachable_sums_past_the_enumeration_cap)
    with pytest.raises(ValueError, match="cap"):
        _scenario_rows(Scenario.IDLE, 21)
    with pytest.raises(ValueError, match="cap"):
        full_chain_deviation(Scenario.IDLE, 21, 0.01, 0.1)


# ---------------------------------------------------------------------------
# closed-form reachable sums against the enumeration


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(list(Scenario)).flatmap(
        lambda sc: st.tuples(st.just(sc), st.integers(MIN_QUBITS[sc], 14))
    )
)
def test_reachable_sums_match_enumeration(case):
    scenario, n = case
    s, halves, _ = _scenario_rows(scenario, n)
    m = order_sums(s, 2)
    assert all(np.array_equal(m[halves[0]], m[h]) for h in halves[1:])
    got = _reachable_sums(scenario, n)
    assert isinstance(got, range)
    assert list(got) == np.unique(m[halves[0]]).tolist()


def test_reachable_sums_catch_uncancelled_x_target(monkeypatch):
    # both target neighbors down: the target's couplings add to -2 s_t, so
    # each half of the enumeration shifts by +-2 off the closed-form sums
    monkeypatch.setitem(FROZEN, Scenario.SIGMA_X, {-1: 0, 1: 0})
    s, halves, _ = _scenario_rows(Scenario.SIGMA_X, 5)
    m = order_sums(s, 2)
    got = _reachable_sums(Scenario.SIGMA_X, 5)
    assert isinstance(got, range)
    for h, shift in zip(halves, (2, -2)):
        assert np.unique(m[h]).tolist() != list(got)
        assert np.unique(m[h]).tolist() == [x + shift for x in got]


@pytest.mark.parametrize("n", [21, 40, 3000])
@pytest.mark.parametrize("scenario", list(Scenario))
def test_reachable_sums_past_the_enumeration_cap(scenario, n):
    k = n + 1 - MIN_QUBITS[scenario]
    sums = _reachable_sums(scenario, n)
    assert isinstance(sums, range)
    assert list(sums) == [sums[-1] - 2 * j for j in range(k, -1, -1)]
    for j2 in (0.01, -0.05):
        for t in np.linspace(0.0, np.pi / ((k + 1) * abs(j2)), 9):
            res = scenario_deviation(scenario, n, j2, float(t))
            assert res.exact_phase_opt == pytest.approx(res.lower_bound, abs=1e-15)


@st.composite
def deviation_points(draw):
    """A scenario, n up to 40, and 1-8 points with |J2| <= 0.1 and t up to 50,
    most of them past the bound window, where the phases wrap around."""
    scenario = draw(st.sampled_from(list(Scenario)))
    n = draw(st.integers(MIN_QUBITS[scenario], 40))
    size = draw(st.integers(1, 8))
    j2 = draw(st.lists(st.floats(-0.1, 0.1), min_size=size, max_size=size))
    t = draw(st.lists(st.floats(0.0, 50.0), min_size=size, max_size=size))
    return scenario, n, j2, t


@settings(max_examples=100, deadline=None)
@given(deviation_points())
def test_scenario_deviations_equal_the_numpy_batch_bit_for_bit(case):
    # the loops keep the numpy batch's arithmetic in its order; this also needs
    # numpy's float64 sin to round as libm's math.sin does, and fails where it does not
    batch = scenario_deviations(*case)
    for got, want in zip(batch, deviation_batch(*case)):
        assert [x.hex() for x in got] == [x.hex() for x in want.tolist()]


#: ±0.0 and subnormal couplings or times, and a coupling far past the weak regime
EDGE_J2 = [0.0, -0.0, 5e-324, -1e-310, 1e5, -1e5]
EDGE_T = [0.0, -0.0, 5e-324, 1e-310]


@st.composite
def window_points(draw):
    """A scenario, n up to 40, and 1-8 points, most of them inside the window
    |J2 t m| < pi: t up to 1.25 times its end pi / (|J2| |m|) at the largest |m|,
    or one ulp either side of that end, or an edge value."""
    scenario = draw(st.sampled_from(list(Scenario)))
    n = draw(st.integers(MIN_QUBITS[scenario], 40))
    far = abs(_reachable_sums(scenario, n)[0])
    size = draw(st.integers(1, 8))
    j2 = draw(st.lists(st.floats(-0.1, 0.1) | st.sampled_from(EDGE_J2), min_size=size, max_size=size))
    t = []
    for x in j2:
        end = math.pi / (abs(x) * far) if x else math.inf
        fraction = st.floats(0.0, 1.25).map(lambda f: f * end)
        ends = st.sampled_from([math.nextafter(end, 0.0), end, math.nextafter(end, math.inf)])
        times = fraction | ends if math.isfinite(end) else st.floats(0.0, 50.0)
        t.append(draw(times | st.sampled_from(EDGE_T)))
    return scenario, n, j2, t


@settings(max_examples=200, deadline=None)
@given(window_points())
@example(("sigma_x", 4, [0.1] * 3, [math.nextafter(2 * math.pi, 0.0), 2 * math.pi, math.nextafter(2 * math.pi, 7.0)]))
def test_window_points_equal_the_numpy_batch_bit_for_bit(case):
    # inside the window scenario_deviations takes each point's floats from its
    # two end phases; they must be the row's, bit for bit (k = 1 at sigma_x, n = 4)
    batch = scenario_deviations(*case)
    for got, want in zip(batch, deviation_batch(*case)):
        assert [x.hex() for x in got] == [x.hex() for x in want.tolist()]
