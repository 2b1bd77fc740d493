"""Dense reference implementations: the independent oracles of the library.

The sigma^z patterns of all 2^N basis codes with their integer Ising
sums and the dense-vector gate propagator ``_evolve_state`` on them,
Pauli-string operators realized as dense 2^N x 2^N matrices,
eigendecomposition propagators with a unitarity certificate, the chain
Hamiltonian builders and time-ordered evolution, a grid search for the
optimal global phase, the CPHASE transfer blocks, the deviation kernel in
numpy (``phase_set_distance`` row by row, ``deviation_batch``), and the
frozen deviation layouts with the full-chain deviation
``full_chain_deviation`` built on them, and LAPACK's inverse of a
capacitance matrix.  No CLI subcommand imports this
module: the library's closed forms run on the basis codes they reach,
and these dense paths check them in tests.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import InvariantViolation
from .blockade import LogicalLayout, pair_encoded_layout, single_spin_layout
from .chain import ChainSpec, ControlSchedule, ControlSegment
from .deviation import MIN_QUBITS, Scenario, _reachable_sums
from .gates import PulseParameters, composite_pulse_parameters, logical_background_energy

#: Largest register realized as a dense 2^N x 2^N matrix.
DIMENSION_CAP = 14

HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-10

# i**k for the number k of Y letters in a Pauli string, exact in both parts
_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


# ---------------------------------------------------------------------------
# sigma^z patterns of basis codes and the dense-vector gate propagator

#: Largest number of spins whose sigma^z patterns are enumerated (2**20 rows).
PATTERN_CAP = 20


def spin_patterns(n: int) -> np.ndarray:
    """sigma^z of every site for all 2^n basis codes, shape (2^n, n), int8.

    Row c holds the pattern of basis index c: site 1 is the most
    significant bit and a set bit is ``sigma^z = +1``.
    """
    if n > PATTERN_CAP:
        raise ValueError(f"2**{n} patterns exceed the enumeration cap of 2**{PATTERN_CAP}")
    codes = np.arange(2**n, dtype=np.int64)
    s = np.empty((codes.size, n), dtype=np.int8, order="F")
    for j in range(n):
        s[:, j] = 2 * ((codes >> (n - 1 - j)) & 1) - 1
    return s


def order_sums(s: np.ndarray, k: int) -> np.ndarray:
    """Integer Ising order-k sum ``sum_i s_i s_{i+k}`` of every pattern row."""
    out = np.zeros(s.shape[0], dtype=np.int64)
    for i in range(s.shape[1] - k):
        out += s[:, i] * s[:, i + k]
    return out


def pattern_index(s: np.ndarray) -> np.ndarray:
    """Basis index of every sigma^z pattern row (site 1 most significant)."""
    idx = np.zeros(s.shape[0], dtype=np.int64)
    for j in range(s.shape[1]):
        idx <<= 1
        idx |= s[:, j] > 0
    return idx


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


def _ising_energy(spec: ChainSpec, s: np.ndarray) -> np.ndarray:
    """Static J1 + J2 Ising energy of every sigma^z pattern row."""
    return spec.j1 * order_sums(s, 1) + spec.j2 * order_sums(s, 2)


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


# ---------------------------------------------------------------------------
# Pauli-string operators and dense propagators

@dataclass(frozen=True)
class PauliTerm:
    """One term ``coefficient * prod_i sigma_i^letter`` of a spin operator.

    ``letters`` maps 1-based site indices to ``'X' | 'Y' | 'Z'``; absent
    sites act as identity.  Coefficients are real so that every term is
    Hermitian.
    """

    coefficient: float
    letters: tuple

    def __init__(self, coefficient: float, letters) -> None:
        coefficient = float(coefficient)
        if not np.isfinite(coefficient):
            raise ValueError("coefficient must be finite")
        if isinstance(letters, Mapping):
            items = letters.items()
        else:
            items = letters
        norm = tuple(sorted((int(s), str(p).upper()) for s, p in items))
        for site, pauli in norm:
            if site < 1:
                raise ValueError(f"site index {site} out of range (sites are 1-based)")
            if pauli not in ("X", "Y", "Z"):
                raise ValueError(f"unknown Pauli letter {pauli!r}")
        if len({s for s, _ in norm}) != len(norm):
            raise ValueError("duplicate site index in Pauli term")
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "letters", norm)

    @property
    def max_site(self) -> int:
        return self.letters[-1][0] if self.letters else 0


@dataclass(frozen=True)
class OperatorSum:
    """Sum of Pauli terms on an N-spin register; always Hermitian."""

    terms: tuple
    n_spins: int

    def __init__(self, terms, n_spins: int) -> None:
        terms = tuple(terms)
        n_spins = int(n_spins)
        if n_spins < 1:
            raise ValueError("n_spins must be positive")
        for term in terms:
            if term.max_site > n_spins:
                raise ValueError(
                    f"term touches site {term.max_site} beyond register size {n_spins}"
                )
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "n_spins", n_spins)

    def __add__(self, other: "OperatorSum") -> "OperatorSum":
        if other.n_spins != self.n_spins:
            raise ValueError("cannot add operators on different registers")
        return OperatorSum(self.terms + other.terms, self.n_spins)


@dataclass(frozen=True)
class Propagator:
    """Unitary on the full register, with a certificate check at construction."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        u = np.asarray(self.matrix, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError("propagator must be a square matrix")
        defect = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
        if defect > UNITARITY_TOL:
            raise InvariantViolation(f"unitarity defect {defect:.3e} exceeds {UNITARITY_TOL}")
        object.__setattr__(self, "matrix", u)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def realize(op: OperatorSum) -> np.ndarray:
    """Dense Hermitian matrix of an operator sum.

    Each Pauli string maps basis index c to ``c ^ flip`` (X and Y flip
    their bits) with amplitude ``coefficient * i**#Y`` times the sigma^z
    value of every Z and Y site, so no tensor products are formed.
    """
    if op.n_spins > DIMENSION_CAP:
        raise ValueError(
            f"register of {op.n_spins} spins exceeds the dense dimension cap {DIMENSION_CAP}"
        )
    n = op.n_spins
    dim = 2**n
    s = spin_patterns(n)
    cols = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for term in op.terms:
        flip = 0
        sign = np.ones(dim, dtype=np.int8)
        for site, pauli in term.letters:
            if pauli != "Z":
                flip |= 1 << (n - site)
            if pauli != "X":
                sign *= s[:, site - 1]
        n_y = sum(p == "Y" for _, p in term.letters)
        out[cols ^ flip, cols] += term.coefficient * _I_POWERS[n_y % 4] * sign
    defect = np.max(np.abs(out - out.conj().T)) if dim else 0.0
    if defect > 1e-14:
        raise InvariantViolation(f"realized matrix hermiticity defect {defect:.3e}")
    return out


def expm_unitary(h: np.ndarray, t: float) -> Propagator:
    """``exp(-i t H)`` for Hermitian H via eigendecomposition.

    Uses a phase-only path for diagonal H and a real symmetric
    eigensolver when H has no imaginary part.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("H must be a square matrix")
    if not np.all(np.isfinite(h)):
        raise ValueError("H has non-finite entries")
    defect = np.max(np.abs(h - h.conj().T))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"H is not Hermitian (defect {defect:.3e})")

    offdiag = h - np.diag(np.diag(h))
    if not offdiag.any():
        u = np.diag(np.exp(-1j * t * np.real(np.diag(h))))
        return Propagator(u)
    if not h.imag.any():
        w, v = np.linalg.eigh(h.real)
    else:
        w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * t * w)) @ v.conj().T
    return Propagator(u)


def spectral_norm(a) -> float:
    """Largest singular value (the operator 2-norm)."""
    a = a.matrix if isinstance(a, Propagator) else np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix has non-finite entries")
    return float(np.linalg.norm(a, ord=2))


def phase_optimized_distance(u, v) -> tuple[float, float]:
    """Minimize ``|| U - e^{i phi} V ||`` over the global phase of V.

    Coarse 512-point grid over [0, 2pi) followed by window refinement
    until the window is narrower than 1e-12.  Returns
    ``(phi*, d*)``; the phase multiplies V, matching the freedom of
    choosing an energy zero point for the realistic evolution.
    """
    u = u.matrix if isinstance(u, Propagator) else np.asarray(u, dtype=complex)
    v = v.matrix if isinstance(v, Propagator) else np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise ValueError("dimension mismatch between U and V")

    def objective(phi: float) -> float:
        return float(np.linalg.norm(u - np.exp(1j * phi) * v, ord=2))

    phis = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    vals = np.array([objective(p) for p in phis])
    best = int(np.argmin(vals))
    step = phis[1] - phis[0]
    lo, hi = phis[best] - step, phis[best] + step
    best_phi, best_val = phis[best], vals[best]
    while hi - lo > 1e-12:
        phis = np.linspace(lo, hi, 33)
        vals = np.array([objective(p) for p in phis])
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val, best_phi = vals[k], phis[k]
        step = phis[1] - phis[0]
        lo, hi = phis[k] - step, phis[k] + step
    return float(best_phi % (2.0 * np.pi)), float(best_val)


# ---------------------------------------------------------------------------
# Chain Hamiltonians and time-ordered evolution

def build_h_ideal(spec: ChainSpec, seg: ControlSegment) -> OperatorSum:
    """Controlled fields plus XXZ bonds: the long-range-free Hamiltonian.

    H = sum_i (bx_i X_i + bz_i Z_i)
      + sum_i [jxy_i (X_i X_{i+1} + Y_i Y_{i+1}) + J1 Z_i Z_{i+1}]
    """
    if seg.n_spins != spec.n_spins:
        raise ValueError(
            f"segment is for {seg.n_spins} spins but chain has {spec.n_spins}"
        )
    terms = []
    for i in range(1, spec.n_spins + 1):
        if seg.bx[i - 1]:
            terms.append(PauliTerm(seg.bx[i - 1], {i: "X"}))
        if seg.bz[i - 1]:
            terms.append(PauliTerm(seg.bz[i - 1], {i: "Z"}))
    for i in range(1, spec.n_spins):
        j = seg.jxy[i - 1]
        if j:
            terms.append(PauliTerm(j, {i: "X", i + 1: "X"}))
            terms.append(PauliTerm(j, {i: "Y", i + 1: "Y"}))
        if spec.j1:
            terms.append(PauliTerm(spec.j1, {i: "Z", i + 1: "Z"}))
    return OperatorSum(terms, spec.n_spins)


def build_h_long_range(spec: ChainSpec) -> OperatorSum:
    """Always-on next-nearest-neighbor Ising part J2 sum_i Z_i Z_{i+2}.

    Chains with fewer than three spins have no next-nearest pairs and
    yield the zero operator.
    """
    terms = []
    if spec.j2:
        for i in range(1, spec.n_spins - 1):
            terms.append(PauliTerm(spec.j2, {i: "Z", i + 2: "Z"}))
    return OperatorSum(terms, spec.n_spins)


def build_h_model(spec: ChainSpec, seg: ControlSegment) -> OperatorSum:
    """Full model Hamiltonian including the long-range coupling."""
    return build_h_ideal(spec, seg) + build_h_long_range(spec)


def evolve(spec: ChainSpec, schedule: ControlSchedule) -> Propagator:
    """Time-ordered propagator U = U_K ... U_2 U_1 of a control schedule.

    Segment k contributes U_k = exp(-i * duration_k * H_k); the first
    segment acts first (rightmost in the product).
    """
    if schedule.n_spins != spec.n_spins:
        raise ValueError("schedule register size does not match the chain")
    dim = 2**spec.n_spins
    u = np.eye(dim, dtype=complex)
    for seg in schedule.segments:
        u = expm_unitary(realize(build_h_model(spec, seg)), seg.duration).matrix @ u
    return Propagator(u)


# ---------------------------------------------------------------------------
# Reduced transfer blocks of the CPHASE protocol

def solve_pulse_parameters(spec: ChainSpec) -> PulseParameters:
    """Composite parameters for the first transfer step (tilt 2 J2)."""
    if spec.x1_max <= 0:
        raise ValueError("chain has no tunable XY range (x1_max == 0)")
    return composite_pulse_parameters(spec.x1_max, 2.0 * spec.j2)


def pulse_rotation(x: float, j2: float) -> np.ndarray:
    """Ideal 2x2 rotation of one composite pulse in the transfer block.

    R(x) = i [[sin t, cos t], [cos t, -sin t]] with cos t = x / h,
    sin t = 2 J2 / h, h = sqrt(x^2 + (2 J2)^2).  The product
    R(x1) R(x2) R(x1) with the solved x2 equals exp(-i pi sigma^x / 2).
    """
    h = np.hypot(x, 2.0 * j2)
    if h == 0:
        raise ValueError("degenerate pulse: x and j2 both zero")
    c, s = x / h, 2.0 * j2 / h
    return 1j * np.array([[s, c], [c, -s]], dtype=complex)


@dataclass(frozen=True)
class ReducedHamiltonians:
    """Transfer-relevant blocks of the six-spin window, zero-pointed
    at the static energy of the four logical basis states.

    ``background_energy`` is that common static energy on the full
    chain; it reappears as a global phase in simulated gates.
    """

    h2: np.ndarray
    h3: np.ndarray
    h4: np.ndarray
    background_energy: float


def reduced_hamiltonians(spec: ChainSpec, j45: float, j67: float) -> ReducedHamiltonians:
    """Blocks of the model Hamiltonian on the two-qubit transfer window.

    Bases: h2 on {|100010>, |100100>}, h3 on {|010001>, |001001>}, h4 on
    {|010010>, |010100>, |001010>, |001100>} (window spins 3..8 of the
    ten-spin chain).  Diagonals follow from direct evaluation of the
    Ising energies relative to the logical zero point: the displaced
    configurations sit at +4 J2 and +4 J1.
    """
    z = 2.0 * j67
    y = 2.0 * j45
    h2 = np.array([[0.0, z], [z, 0.0]])
    h3 = np.array([[0.0, y], [y, 0.0]])
    h4 = np.array(
        [
            [0.0, z, y, 0.0],
            [z, 4.0 * spec.j2, 0.0, y],
            [y, 0.0, 4.0 * spec.j2, z],
            [0.0, y, z, 4.0 * spec.j1],
        ]
    )
    e0 = logical_background_energy(spec, pair_encoded_layout(2, 2))
    return ReducedHamiltonians(h2=h2, h3=h3, h4=h4, background_energy=e0)


# ---------------------------------------------------------------------------
# Frozen layouts of the deviation scenarios, for ``full_chain_deviation``

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


def _scenario_rows(scenario: Scenario, n: int):
    """sigma^z rows of the scenario's layout and the halves of each state.

    The layout is ``single_spin_layout(n)`` with the FROZEN qubits made
    blockades.  The enumeration behind the full-chain oracle and the check
    on ``deviation._reachable_sums``; capped at ``PATTERN_CAP`` spins.

    Returns ``(s, halves, i0)``: ``s`` has one row of all 2n+1 sites per
    pattern of the free qubits, and each of ``halves`` selects one row
    per frozen-subspace state, in the same order.  ``i0`` is the target
    qubit (None for idle).  The x-rotation target is free and held in |+>,
    so its halves are the rows with the target down and up; otherwise one
    half holds every row.
    """
    if n < MIN_QUBITS[scenario]:
        raise ValueError(f"{scenario.value} scenario needs n >= {MIN_QUBITS[scenario]}")
    base = single_spin_layout(n)
    i0 = None if scenario is Scenario.IDLE else default_target(scenario, n)
    frozen = {i0 + d: bit for d, bit in FROZEN[scenario].items()}
    qubits = tuple(q for i, q in enumerate(base.qubit_sites, 1) if i not in frozen)
    blockades = base.blockade_sites + tuple((base.qubit_sites[i - 1][0], b) for i, b in frozen.items())
    s = layout_patterns(LogicalLayout(len(qubits), 1, qubits, blockades))
    if scenario is not Scenario.SIGMA_X:
        return s, (slice(None),), i0
    up = s[:, 2 * i0 - 1] > 0
    return s, (~up, up), i0


def _embedding(s: np.ndarray, halves) -> np.ndarray:
    """Isometry from the frozen-subspace states into the full-chain Hilbert space."""
    cols = np.zeros((2 ** s.shape[1], s[halves[0]].shape[0]), dtype=complex)
    p = np.arange(cols.shape[1])
    for h in halves:
        cols[pattern_index(s[h]), p] = 1.0 / np.sqrt(len(halves))
    return cols


# ---------------------------------------------------------------------------
# The deviation kernel in numpy, one 2-D array of phase rows per batch: the
# reference that ``deviation``'s one-row-at-a-time loops equal bit for bit.

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


def deviation_batch(scenario: Scenario, n: int, j2, t) -> tuple:
    """``exact_raw``, ``exact_phase_opt`` and ``lower_bound`` of
    ``deviation.scenario_deviations`` as three arrays, from one row of
    phases per point (j2[i], t[i]) on the closed-form reachable sums."""
    scenario = Scenario(scenario)
    j2, t = np.broadcast_arrays(np.asarray(j2, dtype=float), np.asarray(t, dtype=float))
    phases = (-j2 * t)[:, None] * np.array(_reachable_sums(scenario, n), dtype=np.int64)
    raw = np.max(2.0 * np.abs(np.sin(phases / 2.0)), axis=1)
    _, opt = phase_set_distance(phases)
    bound = 2.0 * np.abs(np.sin(j2 * t * (n + 1 - MIN_QUBITS[scenario]) / 2.0))
    return raw, opt, bound


# ---------------------------------------------------------------------------
# Full-chain oracle: the same deviations from 2^(2n+1)-dimensional propagators
# restricted to the frozen configuration.

def full_chain_deviation(scenario: Scenario, n: int, j2: float, t: float) -> tuple[float, float]:
    """(raw, phase-optimized) deviation from full-chain propagators.

    Builds exp(-i t H_ideal) and exp(-i t (H_ideal + H_L)) on all
    2n+1 spins with J1 = 1 and the scenario's CONTROL switched on,
    restricts both to the frozen configuration, and measures the same
    two deviations as the reduced-space path.  Serves as the independent
    consistency oracle for chains of up to 9 spins.
    """
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


# ---------------------------------------------------------------------------
# Capacitance matrices: dense forms and the LAPACK inverse

def dense_tridiagonal(c) -> np.ndarray:
    """The n x n matrix of a symmetric tridiagonal (diagonal, off-diagonal) pair,
    as ``josephson.build_capacitance_matrix`` returns it.  Entries are placed, not
    summed, so a -0.0 off-diagonal (c_c = 0) stays -0.0."""
    diag, off = (np.asarray(v, dtype=float) for v in c)
    dense = np.diag(diag)
    k = np.arange(len(off))
    dense[k, k + 1] = dense[k + 1, k] = off
    return dense


def lapack_inverse(c) -> np.ndarray:
    """LAPACK's inverse of a (diagonal, off-diagonal) pair, symmetrized: the
    reference for ``josephson.invert_capacitance``."""
    inv = np.linalg.inv(dense_tridiagonal(c))
    return (inv + inv.T) / 2.0
