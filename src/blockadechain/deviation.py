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
from typing import NamedTuple

import numpy as np

from . import InvariantViolation
from .blockade import LogicalLayout, single_spin_layout
from .chain import ChainSpec, ControlSegment
from .gates import layout_patterns
from .operators import pattern_index, phase_set_distance

#: Peak bytes ``scenario_deviations`` spends per cell, one point's phase at
#: one sum (32 traced on batches of 0.3-1.3 million cells, CPython 3.11).
CELL_BYTES = 32
#: Cells one deviation sweep may evaluate over all its batches (45-84 ns a
#: cell measured on a 2-core x86-64 VM, so at most about 11 s).
CELLS_CAP = 2**27

#: Finite-difference stencil for the small-t deviation speed, in 1/|J1|;
#: divided by (k+1)|J2| where that exceeds 1, so both points stay inside
#: the bound's window.
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

#: Largest next-nearest sum m over each scenario's frozen subspace.  The n
#: blockade-blockade pairs add -n, as the blockades alternate.  The
#: qubit-qubit pairs form paths that each hold at most one frozen qubit, so
#: each of the k surviving pairs adds +1 or -1 independently and the sums
#: are TOP_SUM - 2j, j = 0..k.  Besides, the frozen inter-qubit pair adds
#: +1, and the x-rotation target's two pairs cancel (its neighbors are
#: frozen opposite), leaving k = n - 3.
TOP_SUM = {Scenario.IDLE: -1, Scenario.SIGMA_Z: -1, Scenario.SIGMA_X: -3, Scenario.INTER_QUBIT: -1}

#: Qubits each scenario freezes, as offset from its target qubit -> frozen
#: bit; the scenario's layout is ``single_spin_layout(n)`` with these
#: qubits turned into blockades.
FROZEN = {
    Scenario.IDLE: {},
    # The bz field acts identically in the intended and realistic
    # evolutions restricted to the frozen subspace, so it cancels.
    Scenario.SIGMA_Z: {0: 0},
    # The target's neighbors are frozen in opposite states so its own
    # long-range couplings cancel; the target stays free, held in |+>,
    # and the bx drive then commutes with the restriction and drops out
    # of the deviation like bz.
    Scenario.SIGMA_X: {-1: 0, 1: 1},
    Scenario.INTER_QUBIT: {0: 0, 1: 0},
}

#: Control the full-chain oracle switches on, as (field, strength, offsets
#: from the 0-based index 2 i0 - 1 of the target's site or bond).
CONTROL = {
    Scenario.SIGMA_Z: ("bz", 0.3, (0,)),
    Scenario.SIGMA_X: ("bx", 0.2, (0,)),
    Scenario.INTER_QUBIT: ("jxy", 0.15, (0, 1)),
}


def _violations(scenario: Scenario, n: int, j2, t, raw, opt, bound) -> list:
    """Message of the first ScenarioResult invariant each point breaks, or None.

    ``raw``, ``opt`` and ``bound`` hold one entry per point, and ``j2``
    and ``t`` broadcast against them.  The raw deviation must dominate
    the phase-optimized one, and the phase-optimized one the lower bound
    while (k+1)|J2|t <= pi.
    """
    raw, opt, bound = (np.asarray(a, dtype=float) for a in (raw, opt, bound))
    over_raw = opt > raw + 1e-12
    # The reachable next-nearest sums are TOP_SUM - 2j, j = 0..k: k+1
    # phases 2|J2|t apart.  While (k+1)|J2|t <= pi the widest circular
    # gap closes the ends, the points span 2k|J2|t and the optimum is
    # exactly 2|sin(J2 t k / 2)|; past that they wrap around, can bunch
    # into a shorter arc, and the bound no longer holds.
    k = n + 1 - MIN_QUBITS[scenario]
    in_window = (k + 1) * np.abs(j2) * t <= np.pi
    under_bound = in_window & (opt < bound - 1e-9)
    messages = [None] * len(opt)
    for i in np.flatnonzero(over_raw | under_bound):
        messages[i] = (
            "phase-optimized deviation exceeds raw deviation"
            if over_raw[i]
            else f"deviation {opt[i]:.3e} undercuts the lower bound {bound[i]:.3e} for {scenario.value}"
        )
    return messages


@dataclass(frozen=True)
class ScenarioResult:
    """Deviation of one scenario at one (n, j2, t) point.

    ``exact_raw`` is ||U - V||; ``exact_phase_opt`` additionally
    minimizes over a global phase on V; ``lower_bound`` is the analytic
    bound 2|sin(J2 t k / 2)| with k the scenario's surviving-term count,
    checked to hold while (k+1)|J2|t <= pi.
    """

    scenario: Scenario
    n_logical: int
    j2: float
    t: float
    exact_raw: float
    exact_phase_opt: float
    lower_bound: float

    def __post_init__(self) -> None:
        (message,) = _violations(
            self.scenario, self.n_logical, self.j2, self.t,
            [self.exact_raw], [self.exact_phase_opt], [self.lower_bound],
        )
        if message:
            raise InvariantViolation(message)


class DeviationBatch(NamedTuple):
    """Deviations of one scenario and chain length at points (j2[i], t[i]).

    The arrays hold ScenarioResult's three numbers, one entry per point;
    ``violations[i]`` is the message of the first invariant point i
    breaks, or None.
    """

    exact_raw: np.ndarray
    exact_phase_opt: np.ndarray
    lower_bound: np.ndarray
    violations: list


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


def _scenario_layout(scenario: Scenario, n: int) -> tuple[LogicalLayout, int | None]:
    """The scenario's layout and target qubit (None for idle).

    The layout is ``single_spin_layout(n)`` with the FROZEN qubits made
    blockades.
    """
    if n < MIN_QUBITS[scenario]:
        raise ValueError(f"{scenario.value} scenario needs n >= {MIN_QUBITS[scenario]}")
    base = single_spin_layout(n)
    i0 = None if scenario is Scenario.IDLE else default_target(scenario, n)
    frozen = {i0 + d: bit for d, bit in FROZEN[scenario].items()}
    qubits = tuple(q for i, q in enumerate(base.qubit_sites, 1) if i not in frozen)
    blockades = base.blockade_sites + tuple((base.qubit_sites[i - 1][0], b) for i, b in frozen.items())
    return LogicalLayout(len(qubits), 1, qubits, blockades), i0


def _reachable_sums(scenario: Scenario, n: int) -> np.ndarray:
    """Sorted distinct next-nearest sums m over the frozen subspace, read-only int64:
    the k + 1 values TOP_SUM - 2j.

    The x-rotation target is free, held in |+>; its couplings cancel on
    every path iff its neighbors are frozen in opposite states.
    """
    if n < MIN_QUBITS[scenario]:
        raise ValueError(f"{scenario.value} scenario needs n >= {MIN_QUBITS[scenario]}")
    frozen = FROZEN[scenario]
    if scenario is Scenario.SIGMA_X and {frozen.get(-1), frozen.get(1)} != {0, 1}:
        raise InvariantViolation("x-rotation target couplings failed to cancel")
    top, k = TOP_SUM[scenario], n + 1 - MIN_QUBITS[scenario]
    m = np.arange(top - 2 * k, top + 1, 2, dtype=np.int64)
    m.setflags(write=False)
    return m


def _scenario_rows(scenario: Scenario, n: int):
    """sigma^z rows of the scenario's layout and the halves of each state.

    The enumeration behind the full-chain oracle and the check on
    ``_reachable_sums``; capped at ``PATTERN_CAP`` spins.

    Returns ``(s, halves, i0)``: ``s`` has one row of all 2n+1 sites per
    pattern of the free qubits, and each of ``halves`` selects one row
    per frozen-subspace state, in the same order.  The x-rotation target
    is free and held in |+>, so its halves are the rows with the target
    down and up; otherwise one half holds every row.
    """
    layout, i0 = _scenario_layout(scenario, n)
    s = layout_patterns(layout)
    if scenario is not Scenario.SIGMA_X:
        return s, (slice(None),), i0
    up = s[:, 2 * i0 - 1] > 0
    return s, (~up, up), i0


def lower_bound(scenario: Scenario, n: int, j2: float, t: float) -> float:
    """Analytic deviation bound 2|sin(J2 t k / 2)| for the scenario; elementwise on arrays."""
    return 2.0 * abs(np.sin(j2 * t * (n + 1 - MIN_QUBITS[scenario]) / 2.0))


def scenario_deviations(scenario: Scenario, n: int, j2, t) -> DeviationBatch:
    """Exact deviations in the scenario's frozen subspace at points (j2[i], t[i]).

    The realistic propagator restricted to the frozen configuration is
    diagonal, so the deviation reduces to phases exp(-i J2 t m) with m
    the integer next-nearest sigma^z sums reachable over the free-qubit
    patterns; one row of phases per point.
    """
    scenario = Scenario(scenario)
    j2, t = np.broadcast_arrays(np.asarray(j2, dtype=float), np.asarray(t, dtype=float))
    if np.any(t < 0):
        raise ValueError("time must be nonnegative")
    phases = (-j2 * t)[:, None] * _reachable_sums(scenario, n)
    raw = np.max(2.0 * np.abs(np.sin(phases / 2.0)), axis=1)
    _, opt = phase_set_distance(phases)
    bound = lower_bound(scenario, n, j2, t)
    return DeviationBatch(raw, opt, bound, _violations(scenario, n, j2, t, raw, opt, bound))


def scenario_deviation(scenario: Scenario, n: int, j2: float, t: float) -> ScenarioResult:
    """Exact deviation in the scenario's frozen subspace at one point."""
    batch = scenario_deviations(scenario, n, [j2], [t])
    return ScenarioResult(
        scenario=Scenario(scenario),
        n_logical=n,
        j2=j2,
        t=t,
        exact_raw=float(batch.exact_raw[0]),
        exact_phase_opt=float(batch.exact_phase_opt[0]),
        lower_bound=batch.lower_bound[0],
    )


def speed_stencil(scenario: Scenario, n: int, j2) -> tuple:
    """The two times ``deviation_speed`` samples at each J2 (SPEED_STEPS, scaled), as two arrays."""
    k = n + 1 - MIN_QUBITS[Scenario(scenario)]
    scale = np.maximum(1.0, (k + 1) * np.abs(np.asarray(j2, dtype=float)))
    return SPEED_STEPS[0] / scale, SPEED_STEPS[1] / scale


def stencil_slopes(batch: DeviationBatch, t1, t2) -> list:
    """Finite-difference slopes of the phase-optimized deviation over the
    last 2 len(t1) points of ``batch``: every J2 at its ``t1``, then at its ``t2``.

    Raises the first invariant violation among them, a J2's t1 point
    before its t2 point.
    """
    k = len(t1)
    d = batch.exact_phase_opt[-2 * k:].tolist()
    violations = batch.violations[-2 * k:]
    slopes = []
    for i, (s1, s2) in enumerate(zip(t1.tolist(), t2.tolist())):
        message = violations[i] or violations[k + i]
        if message:
            raise InvariantViolation(message)
        slopes.append((d[k + i] - d[i]) / (s2 - s1))
    return slopes


def deviation_speed(scenario: Scenario, n: int, j2: float) -> float:
    """Small-t growth rate of the scenario's phase-optimized deviation.

    Finite difference over the ``speed_stencil`` times; for the idle
    chain the measured law is (n - 1) * |J2| exactly, the slope of its
    lower bound.
    """
    t1, t2 = speed_stencil(scenario, n, [j2])
    (speed,) = stencil_slopes(scenario_deviations(scenario, n, j2, np.concatenate([t1, t2])), t1, t2)
    return speed


# ---------------------------------------------------------------------------
# Full-chain oracle: the same deviations from 2^(2n+1)-dimensional propagators
# restricted to the frozen configuration.

def _embedding(s: np.ndarray, halves) -> np.ndarray:
    """Isometry from the frozen-subspace states into the full-chain Hilbert space."""
    cols = np.zeros((2 ** s.shape[1], s[halves[0]].shape[0]), dtype=complex)
    p = np.arange(cols.shape[1])
    for h in halves:
        cols[pattern_index(s[h]), p] = 1.0 / np.sqrt(len(halves))
    return cols


def full_chain_deviation(scenario: Scenario, n: int, j2: float, t: float) -> tuple[float, float]:
    """(raw, phase-optimized) deviation from full-chain propagators.

    Builds exp(-i t H_ideal) and exp(-i t (H_ideal + H_L)) on all
    2n+1 spins with J1 = 1 and the scenario's CONTROL switched on,
    restricts both to the frozen configuration, and measures the same
    two deviations as the reduced-space path.  Serves as the independent
    consistency oracle for chains of up to 9 spins.
    """
    from .oracles import build_h_ideal, build_h_long_range, expm_unitary, realize, spectral_norm

    scenario = Scenario(scenario)
    s, halves, i0 = _scenario_rows(scenario, n)
    n_sites = s.shape[1]
    spec = ChainSpec(n_sites, j1=1.0, j2=j2, x1_max=1.0)
    fields = {"bx": [0.0] * n_sites, "bz": [0.0] * n_sites, "jxy": [0.0] * (n_sites - 1)}
    if scenario in CONTROL:
        name, strength, offsets = CONTROL[scenario]
        for d in offsets:
            fields[name][2 * i0 - 1 + d] = strength
    seg = ControlSegment(max(t, 1.0), **fields)

    h_ideal = realize(build_h_ideal(spec, seg))
    h_real = h_ideal + realize(build_h_long_range(spec))
    u = expm_unitary(h_ideal, t).matrix
    v = expm_unitary(h_real, t).matrix

    e = _embedding(s, halves)
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
