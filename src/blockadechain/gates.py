"""Blockade-encoded logical qubits and exact two-qubit gate compilation.

One logical qubit lives on two adjacent physical spins with
|0>_L = |01> and |1>_L = |10>; blocks of blockade spins frozen in |0>
separate the pairs so that the always-on Ising couplings up to the
block width cancel on the logical subspace.  The CPHASE protocol moves
one logical excitation onto the blockade block with composite
tilt-compensated exchange pulses, lets the displaced configuration
accumulate static phase, and retraces the transfer with negated pulse
strengths.  The layouts and their static residual are in ``blockade``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import InvariantViolation
from .blockade import LogicalLayout, pair_encoded_layout
from .chain import ChainSpec, ControlSchedule, ControlSegment
from .operators import order_sums, pattern_index, spin_patterns


def layout_patterns(layout: LogicalLayout) -> np.ndarray:
    """sigma^z of every site for every logical basis pattern, shape (2^n_logical, N)."""
    logical = spin_patterns(layout.n_logical)  # +1 for logical |1>
    s = np.empty((logical.shape[0], layout.n_sites), dtype=np.int8, order="F")
    for site, bit in layout.blockade_sites:
        s[:, site - 1] = 2 * bit - 1
    for q, pair in enumerate(layout.qubit_sites):
        s[:, pair[0] - 1] = logical[:, q]
        if len(pair) == 2:  # |0>_L = |01>, |1>_L = |10>
            s[:, pair[1] - 1] = -logical[:, q]
    return s


@dataclass(frozen=True)
class PulseParameters:
    """Three-pulse composite achieving a full pi X-rotation despite a tilt.

    For a two-level block [[0, x], [x, -2 delta]] the single pulse of
    duration pi / (2 sqrt(x^2 + delta^2)) is a pi rotation about an axis
    tilted by theta = atan(delta / x); the sequence x1, x2, x1 with
    cos 2 theta = x2 / sqrt(x2^2 + delta^2) composes to an exact pi
    rotation about X.
    """

    x1: float
    theta: float
    x2: float
    t_r1: float
    t_r2: float

    @property
    def total_duration(self) -> float:
        return 2.0 * self.t_r1 + self.t_r2


def composite_pulse_parameters(x1: float, delta: float) -> PulseParameters:
    """Solve the composite for coupling cap x1 and tilt parameter delta.

    ``delta`` is half the diagonal splitting of the two-level block
    (2 J2 for the first transfer step of the CPHASE protocol).  The
    untilted case delta = 0 returns x2 = x1, three plain pi pulses.
    """
    if x1 <= 0:
        raise ValueError("pulse amplitude x1 must be positive")
    theta = float(np.arctan2(delta, x1))
    if delta == 0.0:
        x2 = x1
    elif abs(np.cos(2 * theta)) < 1e-15:
        x2 = 0.0
    else:
        x2 = delta * np.cos(2 * theta) / np.sin(2 * theta)
    t_r1 = np.pi / (2.0 * np.hypot(x1, delta))
    t_r2 = np.pi / (2.0 * np.hypot(x2, delta))
    return PulseParameters(x1=x1, theta=theta, x2=x2, t_r1=float(t_r1), t_r2=float(t_r2))


def _ising_energy(spec: ChainSpec, s: np.ndarray) -> np.ndarray:
    """Static J1 + J2 Ising energy of every sigma^z pattern row."""
    return spec.j1 * order_sums(s, 1) + spec.j2 * order_sums(s, 2)


def logical_background_energy(spec: ChainSpec, layout: LogicalLayout) -> float:
    """Static Ising energy shared by all logical basis states."""
    energies = _ising_energy(spec, layout_patterns(layout))
    if energies.max() - energies.min() > 1e-12:
        raise InvariantViolation("logical basis states are not degenerate for this layout")
    return float(energies[0])


def _cphase_bonds(layout: LogicalLayout) -> tuple[int, int]:
    if layout.n_logical != 2 or layout.m != 2 or any(len(p) != 2 for p in layout.qubit_sites):
        raise ValueError("CPHASE compilation supports the two-qubit pair layout with m = 2")
    (_, b1), (a2, _) = layout.qubit_sites
    return b1, a2 - 1  # bonds (b1, b1+1) and (a2-1, a2)


def compile_cphase(
    spec: ChainSpec,
    tau: float,
    layout: LogicalLayout | None = None,
    naive: bool = False,
) -> ControlSchedule:
    """Pulse schedule for CPHASE(phi) with phi = 4 J1 tau mod 2 pi.

    Four steps: composite transfer pulses on the first inter-pair bond,
    the same composite shape on the second bond (tilt 2 (J1 - J2) from
    the displaced-configuration splitting), a free-evolution hold, and
    the two transfers retraced with negated strengths.  The hold length
    absorbs the transit phases 4 J2 T1 + 4 (J1 + J2) T2 accumulated by
    the displaced state during the pulses, so the compiled gate phase
    lands exactly on 4 J1 tau.

    ``naive`` solves every parameter as if J2 were zero, reproducing
    schemes that omit the long-range coupling; simulated against the
    true chain this leaves a measurable fidelity deficit.
    """
    if not (np.isfinite(tau) and tau >= 0):
        raise ValueError("tau must be finite and nonnegative")
    if spec.j1 == 0:
        raise ValueError("CPHASE needs a nonzero static coupling J1")
    layout = pair_encoded_layout(2, 2) if layout is None else layout
    if layout.n_sites != spec.n_spins:
        raise ValueError("layout size does not match the chain")
    bond1, bond2 = _cphase_bonds(layout)

    j2_model = 0.0 if naive else spec.j2
    p1 = composite_pulse_parameters(spec.x1_max, 2.0 * j2_model)
    p2 = composite_pulse_parameters(spec.x1_max, 2.0 * (spec.j1 - j2_model))

    transit = 4.0 * j2_model * p1.total_duration
    transit += 4.0 * (spec.j1 + j2_model) * p2.total_duration
    # raw gate phase is -(transit + 4 J1 t_hold); choose the hold so it
    # equals +4 J1 tau modulo 2 pi
    period = 2.0 * np.pi / (4.0 * abs(spec.j1))
    t_hold = ((-4.0 * spec.j1 * tau - transit) / (4.0 * spec.j1)) % period

    n = spec.n_spins

    def pulses(bond: int, p: PulseParameters, flip: bool) -> list:
        sgn = -1.0 if flip else 1.0
        segs = []
        for strength, dur in ((p.x1, p.t_r1), (p.x2, p.t_r2), (p.x1, p.t_r1)):
            if dur > 0:
                segs.append(ControlSegment.bond_pulse(n, bond, sgn * strength / 2.0, dur))
        return segs

    segments = pulses(bond1, p1, False) + pulses(bond2, p2, False)
    if t_hold > 0:
        segments.append(ControlSegment.idle(n, t_hold))
    segments += pulses(bond2, p2, True) + pulses(bond1, p1, True)
    return ControlSchedule(segments)


@dataclass(frozen=True)
class GateReport:
    """Logical action of a simulated schedule on the two-qubit register."""

    logical_matrix: np.ndarray
    leakage: float
    fidelity: float
    phase_phi: float


def _evolve_state(spec: ChainSpec, schedule: ControlSchedule, psi: np.ndarray) -> np.ndarray:
    """Apply the schedule's propagator to a state (2^N,) or to columns (2^N, k).

    Idle segments are phases of the static Ising diagonal.  A single XY
    bond of strength j couples each |..10..>, |..01..> pair of its sites
    through the block [[E_a, 2j], [2j, E_c]], rotated in closed form;
    |..00..> and |..11..> only pick up their phase.  Encoded gates keep
    every field off, so any other segment raises ``ValueError``.
    """
    if any(any(seg.bx) or any(seg.bz) or np.count_nonzero(seg.jxy) > 1 for seg in schedule.segments):
        raise ValueError("encoded gates need bx == 0, bz == 0 and at most one XY bond per segment")
    n = spec.n_spins
    energy = _ising_energy(spec, spin_patterns(n))
    codes = np.arange(energy.size)
    shape = np.shape(psi)
    psi = np.asarray(psi, dtype=complex).reshape(energy.size, -1)
    for seg in schedule.segments:
        bonds = [b for b, j in enumerate(seg.jxy, start=1) if j]
        t = seg.duration
        out = np.exp(-1j * t * energy)[:, None] * psi
        if bonds:
            hi = 1 << (n - bonds[0])  # bit of the bond's first site
            pair = hi | (hi >> 1)
            a = codes[(codes & pair) == hi]  # |..10..>
            c = a ^ pair  # |..01..>
            g = 2.0 * seg.jxy[bonds[0] - 1]
            ea, ec = energy[a, None], energy[c, None]
            half = (ea - ec) / 2.0
            w = np.hypot(half, g)
            cos = np.cos(w * t)
            sinc = np.sin(w * t) / w
            phase = np.exp(-0.5j * t * (ea + ec))
            u_aa = phase * (cos - 1j * sinc * half)
            u_cc = phase * (cos + 1j * sinc * half)
            u_ac = phase * (-1j * sinc * g)
            out[a] = u_aa * psi[a] + u_ac * psi[c]
            out[c] = u_ac * psi[a] + u_cc * psi[c]
        psi = out
    return psi.reshape(shape)


def simulate_gate(spec: ChainSpec, layout: LogicalLayout, schedule: ControlSchedule) -> GateReport:
    """Evolve the logical basis under the full chain and project back.

    The report's 4x4 matrix is normalized so the |00>_L element is real
    and positive; ``phase_phi`` is the argument of the |01>_L diagonal
    element, the slot where the CPHASE protocol deposits its phase.
    Fidelity is |tr(V^dag M)|^2 / 16 against the ideal CPHASE of that
    extracted phase, and leakage is the largest population that left
    the logical subspace.
    """
    if layout.n_logical != 2:
        raise ValueError("gate simulation reports the two-logical-qubit register")
    if layout.n_sites != spec.n_spins or schedule.n_spins != spec.n_spins:
        raise ValueError("chain, layout, and schedule sizes must agree")
    idx = pattern_index(layout_patterns(layout))  # |q1 q2>_L in binary order
    basis = np.zeros((2**layout.n_sites, idx.size), dtype=complex)
    basis[idx, np.arange(idx.size)] = 1.0
    m = _evolve_state(spec, schedule, basis)[idx]
    leakage = float(max(1.0 - np.linalg.norm(m[:, k]) ** 2 for k in range(4)))
    a00 = m[0, 0]
    if abs(a00) < 1e-12:
        raise InvariantViolation("|00> amplitude vanished; cannot fix the global phase")
    m = m * (a00.conjugate() / abs(a00))
    phi = float(np.angle(m[1, 1]) % (2.0 * np.pi))
    ideal = np.diag([1.0, np.exp(1j * phi), 1.0, 1.0])
    fidelity = float(abs(np.trace(ideal.conj().T @ m)) ** 2 / 16.0)
    return GateReport(logical_matrix=m, leakage=leakage, fidelity=fidelity, phase_phi=phi)


def logical_sigma_x(spec: ChainSpec, layout: LogicalLayout, qubit: int, angle: float) -> ControlSchedule:
    """Intra-pair exchange pulse rotating one logical qubit about X.

    The bond XY coupling acts as 2 j sigma^x on span{|01>, |10>}, so a
    strength-j pulse of duration angle / (4 j) implements
    exp(-i angle sigma^x / 2) up to a global phase.
    """
    if not 1 <= qubit <= layout.n_logical:
        raise ValueError("qubit index out of range")
    pair = layout.qubit_sites[qubit - 1]
    if len(pair) != 2:
        raise ValueError("x-rotations need the pair encoding")
    if not np.isfinite(angle):
        raise ValueError("angle must be finite")
    if spec.x1_max <= 0:
        raise ValueError("chain has no tunable XY range (x1_max == 0)")
    n = spec.n_spins
    if angle == 0.0:
        # free evolution is the logical identity up to a global phase
        return ControlSchedule([ControlSegment.idle(n, 1.0)])
    j = spec.x1_max / 2.0 if angle > 0 else -spec.x1_max / 2.0
    duration = angle / (4.0 * j)
    return ControlSchedule([ControlSegment.bond_pulse(n, pair[0], j, duration)])


def logical_sigma_z(spec: ChainSpec, layout: LogicalLayout, qubit: int, phi: float) -> ControlSchedule:
    """Z-rotation by composing CPHASE gates with X flips of the partner.

    Two repetitions of [CPHASE(2 phi), pi X-flip on the other qubit]
    act as e^{i phi} e^{i sigma^z phi} on the target, with the partner
    returned to its initial state.
    """
    if layout.n_logical < 2:
        raise ValueError("the z-rotation composite needs two logical qubits")
    if qubit not in (1, 2):
        raise ValueError("qubit index out of range")
    if not np.isfinite(phi):
        raise ValueError("phi must be finite")
    if spec.j1 == 0:
        raise ValueError("CPHASE needs a nonzero static coupling J1")
    other = 2 if qubit == 1 else 1
    target_phase = 2.0 * phi if qubit == 1 else -2.0 * phi
    period = 2.0 * np.pi / (4.0 * abs(spec.j1))
    tau = (target_phase / (4.0 * spec.j1)) % period
    cphase = compile_cphase(spec, tau, layout=layout)
    flip = logical_sigma_x(spec, layout, other, np.pi)
    return cphase + flip + cphase + flip
