"""Exact gate deviations induced by the omitted next-nearest Ising coupling.

A chain of 2n+1 spins encodes n logical qubits on the even sites; the
odd sites are blockade spins frozen in alternating |0>,|1> states so the
nearest-neighbor Ising field on every qubit cancels.  The long-range
coupling J2 survives on qubit-qubit pairs and the four operating
scenarios (idle, z-rotation, x-rotation, inter-qubit gate) pick up a
scale-dependent deviation between the intended and realistic
propagators, measured here in spectral norm with and without a free
global phase on the realistic side.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .chain import ChainSpec, ControlSegment, build_h_ideal, build_h_long_range
from .operators import (
    InvariantViolation,
    expm_unitary,
    order_sums,
    pattern_index,
    phase_set_distance,
    realize,
    spectral_norm,
    spin_patterns,
)

#: Finite-difference stencil for the small-t deviation speed, in 1/|J1|.
SPEED_STEPS = (1e-4, 2e-4)


class Scenario(str, Enum):
    IDLE = "idle"
    SIGMA_Z = "sigma_z"
    SIGMA_X = "sigma_x"
    INTER_QUBIT = "inter_qubit"


#: Fewest logical qubits each scenario runs on.  The bound factor
#: k = n + 1 - MIN_QUBITS counts the qubit-qubit next-nearest terms that
#: survive the frozen configuration, so the minimum is the smallest n
#: with a nonzero bound.
MIN_QUBITS = {Scenario.IDLE: 2, Scenario.SIGMA_Z: 2, Scenario.SIGMA_X: 4, Scenario.INTER_QUBIT: 3}


@dataclass(frozen=True)
class ScenarioResult:
    """Deviation of one scenario at one (n, j2, t) point.

    ``exact_raw`` is ||U - V||; ``exact_phase_opt`` additionally
    minimizes over a global phase on V; ``lower_bound`` is the analytic
    bound 2|sin(J2 t k / 2)| with k the scenario's surviving-term count.
    """

    scenario: Scenario
    n_logical: int
    j2: float
    t: float
    exact_raw: float
    exact_phase_opt: float
    lower_bound: float

    def __post_init__(self) -> None:
        if self.exact_phase_opt > self.exact_raw + 1e-12:
            raise InvariantViolation("phase-optimized deviation exceeds raw deviation")
        if self.exact_phase_opt < self.lower_bound - 1e-9:
            raise InvariantViolation(
                f"deviation {self.exact_phase_opt:.3e} undercuts the lower bound "
                f"{self.lower_bound:.3e} for {self.scenario.value}"
            )


def _blockade_z(k: int) -> int:
    # blockade k (1-based) sits at site 2k-1, frozen alternately |0>,|1>
    return -1 if k % 2 == 1 else 1


def default_target(scenario: Scenario, n: int) -> int:
    """Default qubit position for the scenario; mid-chain where allowed."""
    if scenario is Scenario.IDLE:
        raise ValueError("idle scenario has no target qubit")
    if scenario in (Scenario.SIGMA_Z, Scenario.SIGMA_X):
        return (n + 1) // 2
    # inter-qubit gate acts on (i, i+1); even i keeps the middle blockade
    # in |0> so the exchange pulses annihilate the frozen subspace
    candidates = range(2, n, 2)
    if not candidates:
        raise ValueError("no valid inter-qubit position")
    mid = (n + 1) / 2
    return min(candidates, key=lambda i: (abs(i - mid), i))


def _frozen_configuration(scenario: Scenario, n: int):
    """Frozen sigma^z template and free-qubit site list for a scenario.

    Returns ``(template, free_sites, x_site, i0)`` where ``template`` is a
    length-(2n+1) int array (0 marks a free site), ``free_sites`` are the
    0-based positions enumerated over, ``x_site`` is the 0-based site
    held in |+> for the x-rotation scenario (None otherwise), and ``i0``
    is the scenario's target qubit (None for idle).
    """
    if n < MIN_QUBITS[scenario]:
        raise ValueError(f"{scenario.value} scenario needs n >= {MIN_QUBITS[scenario]}")
    template = np.zeros(2 * n + 1, dtype=np.int64)
    for k in range(1, n + 2):
        template[2 * k - 2] = _blockade_z(k)
    qubit_site = {i: 2 * i - 1 for i in range(1, n + 1)}  # 0-based site of qubit i

    free = set(range(1, n + 1))
    i0 = None if scenario is Scenario.IDLE else default_target(scenario, n)
    x_site = None
    if scenario is Scenario.SIGMA_Z:
        # The bz field acts identically in the intended and realistic
        # evolutions restricted to the frozen subspace, so it cancels.
        template[qubit_site[i0]] = -1  # frozen |0>
        free.discard(i0)
    elif scenario is Scenario.SIGMA_X:
        # The target's neighbors are frozen in opposite states so its own
        # long-range couplings cancel; the bx drive then commutes with the
        # restriction and drops out of the deviation like bz.
        template[qubit_site[i0 - 1]] = -1  # |0>
        template[qubit_site[i0 + 1]] = 1   # |1>
        x_site = qubit_site[i0]
        free -= {i0 - 1, i0, i0 + 1}
    elif scenario is Scenario.INTER_QUBIT:
        template[qubit_site[i0]] = -1
        template[qubit_site[i0 + 1]] = -1
        free -= {i0, i0 + 1}
    free_sites = [qubit_site[i] for i in sorted(free)]
    return template, free_sites, x_site, i0


def _free_patterns(template: np.ndarray, free_sites) -> np.ndarray:
    """The frozen template with every free-qubit pattern filled in, one per row."""
    free = spin_patterns(len(free_sites))
    s = np.empty((free.shape[0], template.size), dtype=np.int8, order="F")
    s[:] = template
    s[:, free_sites] = free
    return s


def _next_nearest_sums(template: np.ndarray, free_sites, x_site) -> np.ndarray:
    """Integer sum_i s_i s_{i+2} for every free-qubit pattern.

    For the x-rotation scenario the target's couplings cancel between
    its frozen neighbors; both target assignments are evaluated and
    checked to agree, which validates that cancellation exactly.
    """
    s = _free_patterns(template, free_sites)
    if x_site is None:
        return order_sums(s, 2)
    s[:, x_site] = 1
    m = order_sums(s, 2)
    s[:, x_site] = -1
    if not np.array_equal(m, order_sums(s, 2)):
        raise InvariantViolation("x-rotation target couplings failed to cancel")
    return m


def lower_bound(scenario: Scenario, n: int, j2: float, t: float) -> float:
    """Analytic deviation bound 2|sin(J2 t k / 2)| for the scenario."""
    return 2.0 * abs(np.sin(j2 * t * (n + 1 - MIN_QUBITS[scenario]) / 2.0))


def scenario_deviation(scenario: Scenario, n: int, j2: float, t: float) -> ScenarioResult:
    """Exact deviation in the scenario's frozen subspace.

    The realistic propagator restricted to the frozen configuration is
    diagonal, so the deviation reduces to phases exp(-i J2 t m) with m
    the integer next-nearest sigma^z sums enumerated over all free-qubit
    patterns.
    """
    scenario = Scenario(scenario)
    if t < 0:
        raise ValueError("time must be nonnegative")
    template, free_sites, x_site, _ = _frozen_configuration(scenario, n)
    m = np.unique(_next_nearest_sums(template, free_sites, x_site))
    phases = -j2 * t * m
    raw = float(np.max(2.0 * np.abs(np.sin(phases / 2.0))))
    _, opt = phase_set_distance(phases)
    return ScenarioResult(
        scenario=scenario,
        n_logical=n,
        j2=j2,
        t=t,
        exact_raw=raw,
        exact_phase_opt=opt,
        lower_bound=lower_bound(scenario, n, j2, t),
    )


def deviation_speed(scenario: Scenario, n: int, j2: float) -> float:
    """Small-t growth rate of the scenario's phase-optimized deviation.

    Finite difference over t in SPEED_STEPS; for the idle chain the
    measured law is (n - 1) * |J2| exactly, the slope of its lower bound.
    """
    t1, t2 = SPEED_STEPS
    d1 = scenario_deviation(scenario, n, j2, t1).exact_phase_opt
    d2 = scenario_deviation(scenario, n, j2, t2).exact_phase_opt
    return (d2 - d1) / (t2 - t1)


# ---------------------------------------------------------------------------
# Full-chain oracle: the same deviations from 2^(2n+1)-dimensional propagators
# restricted to the frozen configuration.

def _embedding(template: np.ndarray, free_sites, x_site) -> np.ndarray:
    """Isometry from free-qubit patterns into the full-chain Hilbert space."""
    s = _free_patterns(template, free_sites)
    p = np.arange(s.shape[0])
    cols = np.zeros((2**template.size, p.size), dtype=complex)
    if x_site is None:
        cols[pattern_index(s), p] = 1.0
    else:
        for val in (-1, 1):
            s[:, x_site] = val
            cols[pattern_index(s), p] = 1.0 / np.sqrt(2.0)
    return cols


def full_chain_deviation(scenario: Scenario, n: int, j2: float, t: float) -> tuple[float, float]:
    """(raw, phase-optimized) deviation from full-chain propagators.

    Builds exp(-i t H_ideal) and exp(-i t (H_ideal + H_L)) on all
    2n+1 spins with the scenario's actual controls switched on (J1 = 1,
    bz = 0.3, bx = 0.2, exchange 0.15), restricts both to the frozen
    configuration, and measures the same two deviations as the
    reduced-space path.  Serves as the independent consistency oracle
    for chains of up to 9 spins.
    """
    scenario = Scenario(scenario)
    template, free_sites, x_site, i0 = _frozen_configuration(scenario, n)
    n_sites = template.size
    spec = ChainSpec(n_sites, j1=1.0, j2=j2, x1_max=1.0)

    bxv = [0.0] * n_sites
    bzv = [0.0] * n_sites
    jxy = [0.0] * (n_sites - 1)
    if scenario is Scenario.SIGMA_Z:
        bzv[2 * i0 - 1] = 0.3  # qubit i0 sits on site 2 i0
    elif scenario is Scenario.SIGMA_X:
        bxv[2 * i0 - 1] = 0.2
    elif scenario is Scenario.INTER_QUBIT:
        jxy[2 * i0 - 1] = 0.15  # bond (2 i0, 2 i0 + 1)
        jxy[2 * i0] = 0.15      # bond (2 i0 + 1, 2 i0 + 2)
    seg = ControlSegment(max(t, 1.0), bxv, bzv, jxy)

    h_ideal = realize(build_h_ideal(spec, seg))
    h_real = h_ideal + realize(build_h_long_range(spec))
    u = expm_unitary(h_ideal, t).matrix
    v = expm_unitary(h_real, t).matrix

    e = _embedding(template, free_sites, x_site)
    u_sub = e.conj().T @ u @ e
    v_sub = e.conj().T @ v @ e
    closure = max(
        float(np.max(np.abs(u @ e - e @ u_sub))),
        float(np.max(np.abs(v @ e - e @ v_sub))),
    )
    if closure > 1e-10:
        raise InvariantViolation(f"frozen subspace not closed under evolution ({closure:.3e})")

    raw = spectral_norm(u_sub - v_sub)
    du = np.diag(u_sub)
    dv = np.diag(v_sub)
    offdiag = max(
        float(np.max(np.abs(u_sub - np.diag(du)))),
        float(np.max(np.abs(v_sub - np.diag(dv)))),
    )
    if offdiag > 1e-12:
        raise InvariantViolation("restricted propagators are not diagonal")
    _, opt = phase_set_distance(np.angle(dv) - np.angle(du))
    return raw, opt
