"""Exact gate deviations induced by the omitted next-nearest Ising coupling.

A chain of 2n+1 spins encodes n logical qubits on the even sites; the
odd sites are blockade spins frozen in alternating |0>,|1> states so the
nearest-neighbor Ising field on every qubit cancels.  The long-range
coupling J2 survives on qubit-qubit pairs and the four operating
scenarios (idle, z-rotation, x-rotation, inter-qubit gate) pick up a
scale-dependent deviation between the intended and realistic
propagators, measured here in spectral norm with and without a free
global phase on the realistic side (``phase_set_distance``), in closed
form; the dense full-chain oracle ``full_chain_deviation`` is in ``oracles``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import InvariantViolation

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


def phase_set_distance(phases) -> tuple:
    """Optimal global phase against a set of unit-circle points.

    For diagonal unitaries ``V = diag(e^{i theta_k})`` this returns
    ``(phi*, d*)`` with ``d* = min_phi max_k |1 - e^{i(phi + theta_k)}|``,
    located exactly through the largest circular gap of the phase set.
    A 2-D array holds one phase set per row; ``phi*`` and ``d*`` are
    then arrays with one entry per row, each equal to the call on its row.
    """
    phases = np.asarray(phases, dtype=float)
    p = np.sort(np.mod(np.atleast_2d(phases), 2.0 * np.pi), axis=1)
    if p.shape[1] == 0:
        raise ValueError("empty phase set")
    gaps = np.diff(np.concatenate([p, p[:, :1] + 2.0 * np.pi], axis=1), axis=1)
    g = np.argmax(gaps, axis=1)
    rows = np.arange(p.shape[0])
    width = 2.0 * np.pi - gaps[rows, g]
    start = p[rows, (g + 1) % p.shape[1]]
    centre = start + width / 2.0
    dist = 2.0 * np.sin(width / 4.0)
    phi = (-centre) % (2.0 * np.pi)
    if phases.ndim < 2:
        return float(phi[0]), float(dist[0])
    return phi, dist


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


def _reachable_sums(scenario: Scenario, n: int) -> np.ndarray:
    """Sorted distinct next-nearest sums m over the frozen subspace, read-only int64:
    the k + 1 values TOP_SUM - 2j.
    """
    if n < MIN_QUBITS[scenario]:
        raise ValueError(f"{scenario.value} scenario needs n >= {MIN_QUBITS[scenario]}")
    top, k = TOP_SUM[scenario], n + 1 - MIN_QUBITS[scenario]
    m = np.arange(top - 2 * k, top + 1, 2, dtype=np.int64)
    m.setflags(write=False)
    return m


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


def __getattr__(name: str):
    # bench/workloads.py imports the dense oracle from here until ROADMAP item 1 deletes this hook
    if name != "full_chain_deviation":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .oracles import full_chain_deviation
    return full_chain_deviation
