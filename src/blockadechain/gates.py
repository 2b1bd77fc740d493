"""Blockade-encoded logical qubits and exact two-qubit gate compilation.

One logical qubit lives on two adjacent physical spins with
|0>_L = |01> and |1>_L = |10>; blocks of blockade spins frozen in |0>
separate the pairs so that the always-on Ising couplings up to the
block width cancel on the logical subspace.  The CPHASE protocol moves
one logical excitation onto the blockade block with composite
tilt-compensated exchange pulses, lets the displaced configuration
accumulate static phase, and retraces the transfer with negated pulse
strengths.  The layouts and their static residual are in ``blockade``.

Basis convention used across the package: site 1 is the most significant
bit of the basis code, ``|1>`` is the ``sigma^z = +1`` eigenstate and
``|0>`` the ``-1`` eigenstate, so the occupation operator is
``n = (1 + sigma^z) / 2``.  All energies are in units with hbar = 1.
Gates run on Python integers and floats; the numpy pattern arrays and
dense Pauli algebra these closed forms replace are in ``oracles``.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import LAYOUT_BYTES_CAP, InvariantViolation
from .blockade import LogicalLayout, pair_encoded_layout, verify_blockade_cancellation
from .chain import ChainSpec, ControlSchedule, ControlSegment

#: Bytes charged per basis code a gate simulation reaches, plus 4 per 30 spins:
#: 1.6-1.8x its peak tracemalloc bytes per code (the code, its energy and its
#: four amplitudes twice) for 9 to 9880 codes of 10 to 100 spins, CPython 3.11.
CODE_BYTES = 1024
#: Steps a gate simulation may take: one per reachable code, segment and
#: column, the updates ``_propagate`` makes (0.7-0.9 us each for 1865-4392
#: codes of 40 spins on a 2-core x86-64 VM, so about 7 s at most).
STEPS_CAP = 2**23


def _energy(spec: ChainSpec, code: int, n: int) -> float:
    """Static J1 + J2 Ising energy of a basis code of ``n`` spins: each of the
    n - k pairs of order k adds J_k, or -J_k where its two bits differ."""
    m1, m2 = (n - k - 2 * ((code ^ (code >> k)) & ((1 << (n - k)) - 1)).bit_count() for k in (1, 2))
    return spec.j1 * m1 + spec.j2 * m2


def _logical_code(layout: LogicalLayout, value: int) -> int:
    """Basis code of the logical basis state ``value``, qubit 1 its most
    significant bit, with every blockade in its frozen state."""
    bits = list(layout.blockade_sites)
    for q, sites in enumerate(layout.qubit_sites):
        one = value >> (layout.n_logical - 1 - q) & 1
        bits += zip(sites, (one, 1 - one))  # |1>_L = |10>, |0>_L = |01>; a single site holds the bit
    return sum(bit << (layout.n_sites - site) for site, bit in bits)


class PulseParameters(namedtuple("PulseParameters", "x1 theta x2 t_r1 t_r2")):
    """Three-pulse composite achieving a full pi X-rotation despite a tilt.

    For a two-level block [[0, x], [x, -2 delta]] the single pulse of
    duration pi / (2 sqrt(x^2 + delta^2)) is a pi rotation about an axis
    tilted by theta = atan(delta / x); the sequence x1, x2, x1 with
    cos 2 theta = x2 / sqrt(x2^2 + delta^2) composes to an exact pi
    rotation about X.
    """

    __slots__ = ()

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
    theta = math.atan2(delta, x1)
    if delta == 0.0:
        x2 = x1
    elif abs(math.cos(2 * theta)) < 1e-15:
        x2 = 0.0
    else:
        x2 = delta * math.cos(2 * theta) / math.sin(2 * theta)
    t_r1 = math.pi / (2.0 * math.hypot(x1, delta))
    t_r2 = math.pi / (2.0 * math.hypot(x2, delta))
    return PulseParameters(x1=x1, theta=theta, x2=x2, t_r1=t_r1, t_r2=t_r2)


def logical_background_energy(spec: ChainSpec, layout: LogicalLayout) -> float:
    """Static Ising energy shared by all logical basis states."""
    if verify_blockade_cancellation(layout, [spec.j1, spec.j2]) > 0.5e-12:
        raise InvariantViolation("logical basis states are not degenerate for this layout")
    return _energy(spec, _logical_code(layout, 0), layout.n_sites)


def _cphase_bonds(layout: LogicalLayout) -> tuple[int, int]:
    if layout.n_logical != 2 or layout.m != 2 or any(len(p) != 2 for p in layout.qubit_sites):
        raise ValueError("CPHASE compilation supports the two-qubit pair layout with m = 2")
    (_, b1), (a2, _) = layout.qubit_sites
    return b1, a2 - 1  # bonds (b1, b1+1) and (a2-1, a2)


def _phase_period(spec: ChainSpec) -> float:
    """Period 2 pi / (4|J1|) of the CPHASE phase 4 J1 tau; ``ValueError`` for
    a J1 that is zero, whose 4|J1| overflows, so that the period is 0, or so
    small (below about 8.7e-309) that the period overflows."""
    if spec.j1 == 0:
        raise ValueError("CPHASE needs a nonzero static coupling J1")
    if not math.isfinite(4.0 * spec.j1):
        raise ValueError(f"J1 = {spec.j1!r} is out of range: 4 J1 overflows")
    period = 2.0 * math.pi / (4.0 * abs(spec.j1))
    if not math.isfinite(period):
        raise ValueError(f"J1 = {spec.j1!r} is out of range: the phase period 2 pi / (4|J1|) overflows")
    return period


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
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError("tau must be finite and nonnegative")
    period = _phase_period(spec)
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


class GateReport(namedtuple("GateReport", "logical_matrix leakage fidelity phase_phi")):
    """Logical action of a simulated schedule on the two-qubit register;
    ``logical_matrix`` is the 4x4 block as a tuple of rows of complex."""

    __slots__ = ()


def _bond_bit(seg: ControlSegment, n: int) -> int:
    """Bit of the first site of the segment's XY bond, 0 for an idle segment;
    ``ValueError`` for any other segment, which encoded gates never need."""
    on = [b for b, j in enumerate(seg.jxy, start=1) if j]
    if any(seg.bx) or any(seg.bz) or len(on) > 1:
        raise ValueError("encoded gates need bx == 0, bz == 0 and at most one XY bond per segment")
    return 1 << (n - on[0]) if on else 0


def _reachable_codes(schedule: ControlSchedule, starts) -> list:
    """Sorted basis codes the schedule can populate from the codes ``starts``:
    a bond flips |..10..> <-> |..01..> on its sites, so the codes held after
    a segment are those before it and their flips.  Raises ``ValueError``
    once they pass ``LAYOUT_BYTES_CAP`` or their propagation ``STEPS_CAP``
    steps (codes x segments x starts), before anything is propagated."""
    n = schedule.n_spins
    steps_per_code = len(schedule.segments) * len(starts)
    held = set(starts)
    for seg in schedule.segments:
        hi = _bond_bit(seg, n)
        pair = hi | (hi >> 1)
        held.update([c ^ pair for c in held if hi and c & pair in (hi, hi >> 1)])
        if len(held) * (CODE_BYTES + n // 30 * 4) > LAYOUT_BYTES_CAP:
            raise ValueError(f"the reachable basis codes exceed the budget of {LAYOUT_BYTES_CAP} bytes")
        if len(held) * steps_per_code > STEPS_CAP:
            raise ValueError(f"propagating the reachable basis codes exceeds the budget of {STEPS_CAP} steps")
    return sorted(held)


def _cis(x: float) -> complex:
    """e^{i x}; nan for a non-finite x, where overflowed energies lead."""
    if not math.isfinite(x):
        return complex(math.nan, math.nan)
    return complex(math.cos(x), math.sin(x))


def _propagate(spec: ChainSpec, schedule: ControlSchedule, starts: list) -> dict:
    """Amplitudes of every reachable code in the columns that start on the
    basis codes ``starts``.  Idle segments are phases of the static Ising
    energy.  A single XY bond of strength j couples each |..10..>, |..01..>
    pair of its sites through the block [[E_a, 2j], [2j, E_c]], rotated in
    closed form; |..00..> and |..11..> only pick up their phase, and so does
    a code whose partner is unreachable, as it holds no amplitude yet."""
    codes = _reachable_codes(schedule, starts)
    n = spec.n_spins
    energy = {c: _energy(spec, c, n) for c in codes}
    psi = {c: [complex(c == s) for s in starts] for c in codes}
    for seg in schedule.segments:
        t, hi, g = seg.duration, _bond_bit(seg, n), 2.0 * max(seg.jxy, key=abs)
        pair = hi | (hi >> 1)
        out = {}
        for c in codes:
            phase = _cis(-t * energy[c])
            out[c] = [phase * x for x in psi[c]]
        for a in codes:
            c = a ^ pair
            if not hi or a & pair != hi or c not in psi:
                continue
            ea, ec = energy[a], energy[c]
            half = (ea - ec) / 2.0
            w = math.hypot(half, g)
            rot = _cis(w * t)
            sinc = rot.imag / w
            phase = _cis(-0.5 * t * (ea + ec))
            u_aa = phase * (rot.real - 1j * sinc * half)
            u_cc = phase * (rot.real + 1j * sinc * half)
            u_ac = phase * (-1j * sinc * g)
            out[a] = [u_aa * x + u_ac * y for x, y in zip(psi[a], psi[c])]
            out[c] = [u_ac * x + u_cc * y for x, y in zip(psi[a], psi[c])]
        psi = out
    return psi


def simulate_gate(spec: ChainSpec, layout: LogicalLayout, schedule: ControlSchedule) -> GateReport:
    """Evolve the logical basis under the full chain and project back.

    The four logical codes are propagated on the codes the schedule reaches
    from them (``_propagate``).  The report's 4x4 matrix is normalized so
    the |00>_L element is real and positive; ``phase_phi`` is the argument
    of the |01>_L diagonal element, the slot where the CPHASE protocol
    deposits its phase.  Fidelity is |tr(V^dag M)|^2 / 16 against the ideal
    CPHASE of that extracted phase, and leakage is the largest population
    that left the logical subspace.
    """
    if layout.n_logical != 2:
        raise ValueError("gate simulation reports the two-logical-qubit register")
    if layout.n_sites != spec.n_spins or schedule.n_spins != spec.n_spins:
        raise ValueError("chain, layout, and schedule sizes must agree")
    codes = [_logical_code(layout, v) for v in range(4)]  # |q1 q2>_L in binary order
    psi = _propagate(spec, schedule, codes)
    m = [psi[c] for c in codes]  # m[i][k]: logical state i from column k
    leakage = max(1.0 - math.sqrt(sum(z.real * z.real for z in col) + sum(z.imag * z.imag for z in col)) ** 2
                  for col in zip(*m))
    a00 = m[0][0]
    if abs(a00) < 1e-12:
        raise InvariantViolation("|00> amplitude vanished; cannot fix the global phase")
    unphase = a00.conjugate() * (1.0 / abs(a00))
    m = tuple(tuple(x * unphase for x in row) for row in m)
    phi = math.atan2(m[1][1].imag, m[1][1].real) % (2.0 * math.pi)
    fidelity = abs(m[0][0] + _cis(phi).conjugate() * m[1][1] + m[2][2] + m[3][3]) ** 2 / 16.0
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
    if not math.isfinite(angle):
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
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    period = _phase_period(spec)
    other = 2 if qubit == 1 else 1
    target_phase = 2.0 * phi if qubit == 1 else -2.0 * phi
    tau = (target_phase / (4.0 * spec.j1)) % period
    cphase = compile_cphase(spec, tau, layout=layout)
    flip = logical_sigma_x(spec, layout, other, math.pi)
    return cphase + flip + cphase + flip
