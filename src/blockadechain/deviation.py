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

import math
from collections import namedtuple
from enum import Enum

from . import InvariantViolation, _Frozen

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
    located exactly through the largest circular gap of the phase set
    (the first of equal gaps).  ``oracles.phase_set_distance`` is the
    row-wise numpy reference, equal to this bit for bit.
    """
    p = sorted(float(x) % math.tau for x in phases)
    if not p:
        raise ValueError("empty phase set")
    gaps = [b - a for a, b in zip(p, p[1:])]
    gaps.append(p[0] + math.tau - p[-1])
    g = gaps.index(max(gaps))
    width = math.tau - gaps[g]
    centre = p[(g + 1) % len(p)] + width / 2.0
    return (-centre) % math.tau, 2.0 * math.sin(width / 4.0)


def _violations(scenario: Scenario, n: int, j2, t, raw, opt, bound) -> list:
    """Message of the first ScenarioResult invariant each point breaks, or None.

    The five sequences hold one entry per point.  The raw deviation must
    dominate the phase-optimized one, and the phase-optimized one the
    lower bound while (k+1)|J2|t <= pi.
    """
    # The reachable next-nearest sums are TOP_SUM - 2j, j = 0..k: k+1
    # phases 2|J2|t apart.  While (k+1)|J2|t <= pi the widest circular
    # gap closes the ends, the points span 2k|J2|t and the optimum is
    # exactly 2|sin(J2 t k / 2)|; past that they wrap around, can bunch
    # into a shorter arc, and the bound no longer holds.
    k = n + 1 - MIN_QUBITS[scenario]
    messages = []
    for x, s, r, o, b in zip(j2, t, raw, opt, bound):
        if o > r + 1e-12:
            messages.append("phase-optimized deviation exceeds raw deviation")
        elif (k + 1) * abs(x) * s <= math.pi and o < b - 1e-9:
            messages.append(f"deviation {o:.3e} undercuts the lower bound {b:.3e} for {scenario.value}")
        else:
            messages.append(None)
    return messages


class ScenarioResult(_Frozen):
    """Deviation of one scenario at one (n, j2, t) point.

    ``exact_raw`` is ||U - V||; ``exact_phase_opt`` additionally
    minimizes over a global phase on V; ``lower_bound`` is the analytic
    bound 2|sin(J2 t k / 2)| with k the scenario's surviving-term count,
    checked to hold while (k+1)|J2|t <= pi.
    """

    __slots__ = ("scenario", "n_logical", "j2", "t", "exact_raw", "exact_phase_opt", "lower_bound")

    def __init__(self, scenario: Scenario, n_logical: int, j2: float, t: float,
                 exact_raw: float, exact_phase_opt: float, lower_bound: float) -> None:
        (message,) = _violations(scenario, n_logical, [j2], [t], [exact_raw], [exact_phase_opt], [lower_bound])
        if message:
            raise InvariantViolation(message)
        self._set(scenario, n_logical, j2, t, exact_raw, exact_phase_opt, lower_bound)


class DeviationBatch(namedtuple("DeviationBatch", "exact_raw exact_phase_opt lower_bound violations")):
    """Deviations of one scenario and chain length at points (j2[i], t[i]).

    The lists hold ScenarioResult's three numbers, one entry per point;
    ``violations[i]`` is the message of the first invariant point i
    breaks, or None.
    """

    __slots__ = ()


def _reachable_sums(scenario: Scenario, n: int) -> range:
    """Sorted distinct next-nearest sums m over the frozen subspace: the k + 1 integers TOP_SUM - 2j."""
    if n < MIN_QUBITS[scenario]:
        raise ValueError(f"{scenario.value} scenario needs n >= {MIN_QUBITS[scenario]}")
    top, k = TOP_SUM[scenario], n + 1 - MIN_QUBITS[scenario]
    return range(top - 2 * k, top + 1, 2)


def lower_bound(scenario: Scenario, n: int, j2: float, t: float) -> float:
    """Analytic deviation bound 2|sin(J2 t k / 2)| for the scenario."""
    return 2.0 * abs(math.sin(j2 * t * (n + 1 - MIN_QUBITS[scenario]) / 2.0))


def linspace(start: float, stop: float, num: int) -> list:
    """``np.linspace(start, stop, num)`` by numpy's arithmetic: i * step + start
    with step = (stop - start) / (num - 1), the last point exactly stop."""
    if num == 1:
        return [start]
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


def scenario_deviations(scenario: Scenario, n: int, j2, t) -> DeviationBatch:
    """Exact deviations in the scenario's frozen subspace at points (j2[i], t[i]).

    The realistic propagator restricted to the frozen configuration is
    diagonal, so the deviation reduces to phases exp(-i J2 t m) with m
    the integer next-nearest sigma^z sums reachable over the free-qubit
    patterns; a point inside the window |J2 t m| < pi costs O(1), any
    other builds its row of k + 1 phases.
    """
    scenario = Scenario(scenario)
    j2, t = [float(x) for x in j2], [float(x) for x in t]
    if any(x < 0 for x in t):
        raise ValueError("time must be nonnegative")
    sums = _reachable_sums(scenario, n)
    far, near = float(sums[0]), float(sums[-1])  # the largest and the smallest |m|, all m < 0
    if not all(math.isfinite(x * s * far) for x, s in zip(j2, t)):
        raise ValueError("the phases J2 t m must be finite")
    raw, opt, bound = [], [], []
    for x, s in zip(j2, t):
        c = -x * s
        if abs(c * far) < math.pi:
            # The row loop's expressions on the two end phases: every c m lies within
            # half a turn of 0 on one side, so |sin(c m / 2)| peaks at far, the residues
            # of far and near are the extremes, and their wrap gap (>= pi) beats each
            # inner gap 2|c| < pi.  Every CLI point is here: its t ends at pi / (2|J2|n)
            # and |far| < 2n, a margin of 1/(2n) that the CLI's n <= 2**40 keeps far above
            # the few ulps the products round by; the slope stencil keeps |J2 t far| < 6e-4.
            lo, hi = sorted((c * far % math.tau, c * near % math.tau))
            raw.append(2.0 * abs(math.sin(c * far / 2.0)))
            opt.append(2.0 * math.sin((math.tau - (lo + math.tau - hi)) / 4.0))
        else:
            phases = [c * float(m) for m in sums]
            raw.append(max(2.0 * abs(math.sin(p / 2.0)) for p in phases))
            opt.append(phase_set_distance(phases)[1])
        bound.append(lower_bound(scenario, n, x, s))
    return DeviationBatch(raw, opt, bound, _violations(scenario, n, j2, t, raw, opt, bound))


def scenario_deviation(scenario: Scenario, n: int, j2: float, t: float) -> ScenarioResult:
    """Exact deviation in the scenario's frozen subspace at one point."""
    batch = scenario_deviations(scenario, n, [j2], [t])
    return ScenarioResult(
        scenario=Scenario(scenario),
        n_logical=n,
        j2=j2,
        t=t,
        exact_raw=batch.exact_raw[0],
        exact_phase_opt=batch.exact_phase_opt[0],
        lower_bound=batch.lower_bound[0],
    )


def speed_stencil(scenario: Scenario, n: int, j2: float) -> tuple:
    """The two times ``deviation_speed`` samples at J2: SPEED_STEPS, scaled."""
    k = n + 1 - MIN_QUBITS[Scenario(scenario)]
    scale = max(1.0, (k + 1) * abs(j2))
    return SPEED_STEPS[0] / scale, SPEED_STEPS[1] / scale


def deviation_speed(scenario: Scenario, n: int, j2: float) -> float:
    """Small-t growth rate of the scenario's phase-optimized deviation.

    Finite difference over the ``speed_stencil`` times; raises the first
    invariant violation, the t1 point's before the t2 point's, and
    ``ValueError`` where the two times coincide.  For the idle chain the
    measured law is (n - 1) * |J2| exactly, the slope of its lower bound.
    """
    t1, t2 = speed_stencil(scenario, n, j2)
    if t1 == t2:  # both 0: the scale (k + 1)|J2| overflowed
        raise ValueError(f"j2 = {j2!r} is out of range: the slope stencil's scale (k + 1)|J2| overflows at n = {n}")
    batch = scenario_deviations(scenario, n, [j2, j2], [t1, t2])
    message = batch.violations[0] or batch.violations[1]
    if message:
        raise InvariantViolation(message)
    d1, d2 = batch.exact_phase_opt
    return (d2 - d1) / (t2 - t1)


def __getattr__(name: str):
    # bench/workloads.py imports the dense oracle from here until ROADMAP item 1 deletes this hook
    if name != "full_chain_deviation":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .oracles import full_chain_deviation
    return full_chain_deviation
